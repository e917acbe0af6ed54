//! # panda-bench
//!
//! Experiment harness for the PANDA reproduction. One binary per paper
//! artefact (see DESIGN.md §5 and EXPERIMENTS.md):
//!
//! | bin | paper artefact |
//! |-----|----------------|
//! | `exp_policy_equivalence` | Fig. 2 + Theorems 2.1/2.2 |
//! | `exp_monitoring_utility` | §3.2(1) + Fig. 5 utility panel |
//! | `exp_r0_estimation` | §3.2(1) transmission-model accuracy |
//! | `exp_contact_tracing` | §3.2(2) dynamic-policy tracing |
//! | `exp_privacy_utility` | §3.2(3) adversary error |
//! | `exp_random_policy_sweep` | Fig. 5 Size/Density knobs |
//! | `run_all` | everything, plus the Fig. 1/3 smoke pipeline |
//!
//! Experiments print aligned tables to stdout and write CSVs under
//! `results/`. Set `PANDA_FULL=1` for the full parameter grids (defaults
//! are sized to finish in seconds-to-minutes per binary in release mode).

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::io::Write as _;
use std::path::PathBuf;

pub mod workload;

/// `true` when the full (slow) parameter grid was requested.
pub fn full_mode() -> bool {
    std::env::var("PANDA_FULL").is_ok_and(|v| v == "1")
}

/// A results table that renders to stdout and persists as CSV under
/// `results/<name>.csv`.
pub struct Table {
    name: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given CSV stem and column headers.
    pub fn new(name: &str, headers: &[&str]) -> Self {
        Table {
            name: name.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows
            .push(cells.iter().map(|c| format!("{c}")).collect());
    }

    /// Prints an aligned view to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let mut out = String::new();
            for (i, cell) in cells.iter().enumerate() {
                out.push_str(&format!("{:>width$}  ", cell, width = widths[i]));
            }
            println!("{}", out.trim_end());
        };
        line(&self.headers);
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            line(row);
        }
    }

    /// Writes `results/<name>.csv` (creating the directory), returning the
    /// path.
    pub fn save_csv(&self) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from("results");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.csv", self.name));
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "{}", self.headers.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(path)
    }

    /// Print and save, logging the CSV path.
    pub fn finish(&self) {
        self.print();
        match self.save_csv() {
            Ok(path) => println!("[saved {}]", path.display()),
            Err(e) => eprintln!("[csv not saved: {e}]"),
        }
        println!();
    }
}

/// Runs `f` over `items` on up to `available_parallelism` crossbeam-scoped
/// threads, preserving input order in the output.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let n_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(items.len());
    let chunk = items.len().div_ceil(n_threads.max(1));
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(items.len(), || None);
    crossbeam::scope(|scope| {
        for (slot_chunk, item_chunk) in out.chunks_mut(chunk).zip(items.chunks(chunk)) {
            let f = &f;
            scope.spawn(move |_| {
                for (slot, item) in slot_chunk.iter_mut().zip(item_chunk.iter()) {
                    *slot = Some(f(item));
                }
            });
        }
    })
    .expect("sweep thread panicked");
    out.into_iter().map(|r| r.expect("slot filled")).collect()
}

/// The `p`-th percentile (0 < p ≤ 1) of an ascending-sorted sample by the
/// ceil-index rule, 0.0 on an empty sample — the one formula the latency
/// benchmarks share, so their reported p50/p99 stay comparable.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Formats a float with 3 decimal places (table helper).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 1 decimal place (table helper).
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("unit_test_table", &["a", "b"]);
        t.row(&[&1, &"x"]);
        t.row(&[&2, &"y"]);
        let path = t.save_csv().unwrap();
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents, "a,b\n1,x\n2,y\n");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("bad", &["a", "b"]);
        t.row(&[&1]);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..97).collect();
        let out = parallel_map(items.clone(), |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty() {
        let out: Vec<u32> = parallel_map(Vec::<u32>::new(), |_| unreachable!());
        assert!(out.is_empty());
    }
}
