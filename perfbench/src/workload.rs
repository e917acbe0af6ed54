//! The three workloads and the inputs each makes from its seed.

use panda_bench::workload::{city_policy, geolife, grid};
use panda_core::LocationPolicyGraph;
use panda_geo::{CellId, GridMap};
use panda_graph::distances::{DEFAULT_MAX_TABLE_ENTRIES, DEFAULT_ORACLE_ENTRIES_PER_NODE};
use panda_mobility::{Timestamp, UserId};
use panda_surveillance::ingest::PendingReport;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reports per `SubmitBatch` frame.
pub const FRAME: usize = 256;
/// ε of every release.
pub const EPS: f64 = 1.0;

/// Which policy graph the workload releases under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// `Gb`: 2×2-cell areas of a 32×32 grid (4-entry release tables).
    GridGb,
    /// The 96×96 `city_like` component on the hub-label oracle.
    City,
}

/// One named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub policy: PolicyKind,
    /// Shard nodes behind a `ShardRouter`; 0 = one `IngestGateway`.
    pub shards: usize,
    /// Open-loop offered rate in reports/s: about a fifth to a quarter of
    /// the saturated rate measured on the 2-hardware-thread reference box (see
    /// README).
    pub open_rate: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Closed-loop warm-up before the timed rounds, in seconds.
    pub warmup_s: f64,
    /// Contact-tracing policy switches per run, spread over the open-loop
    /// phase, the last inside its final trace cycle (the dashboard runs at a
    /// fixed cadence throughout).
    pub rounds: usize,
}

impl Workload {
    pub fn all() -> Vec<Workload> {
        vec![
            Workload {
                name: "grid-gateway",
                policy: PolicyKind::GridGb,
                shards: 0,
                open_rate: 250_000.0,
                setups: 101,
                warmup_s: 0.5,
                rounds: 10,
            },
            Workload {
                name: "grid-cluster2",
                policy: PolicyKind::GridGb,
                shards: 2,
                open_rate: 250_000.0,
                setups: 101,
                warmup_s: 0.5,
                rounds: 10,
            },
            Workload {
                name: "city-outbreak",
                policy: PolicyKind::City,
                shards: 0,
                open_rate: 10_000.0,
                setups: 25,
                warmup_s: 1.5,
                rounds: 5,
            },
        ]
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::all().into_iter().find(|w| w.name == name)
    }

    pub fn is_cluster(&self) -> bool {
        self.shards > 0
    }

    /// The number of owning servers (one per shard node, or the single
    /// gateway's server).
    pub fn n_servers(&self) -> usize {
        self.shards.max(1)
    }

    /// The workload's policy graph, built anew (part of set-up).
    pub fn build_policy(&self) -> LocationPolicyGraph {
        match self.policy {
            PolicyKind::GridGb => LocationPolicyGraph::partition(grid(32), 2, 2),
            // The city is fixed; only the reports depend on the seed.
            PolicyKind::City => city_policy(
                17,
                96,
                96,
                DEFAULT_MAX_TABLE_ENTRIES,
                DEFAULT_ORACLE_ENTRIES_PER_NODE,
            ),
        }
    }

    /// The coarse-area block size of the monitoring dashboard.
    pub fn dashboard_block(&self) -> u32 {
        match self.policy {
            PolicyKind::GridGb => 4,
            PolicyKind::City => 8,
        }
    }
}

/// A patient whose tracing round the operator runs.
#[derive(Debug, Clone)]
pub struct TracingRound {
    pub patient: UserId,
    /// The patient's confirmed `(epoch, cell)` history.
    pub history: Vec<(Timestamp, CellId)>,
    /// Cells the contact-tracing policy isolates.
    pub isolate: Vec<CellId>,
}

/// Everything a run sends, made from the seed alone.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub grid: GridMap,
    /// Epoch-major reports; the stream cycles through them, so stream
    /// position `p` carries `trace[p % trace.len()]`.
    pub trace: Vec<PendingReport>,
    pub horizon: Timestamp,
    pub rounds: Vec<TracingRound>,
    /// Seed of the per-report release streams.
    pub release_seed: u64,
}

/// GeoLife-like grid population: 1 024 users × 7 days of hourly epochs.
const GRID_USERS: u32 = 1024;
const GRID_DAYS: u32 = 7;
/// City population: 1 024 users × 48 epochs, cells drawn from a Zipf law.
const CITY_USERS: u32 = 1024;
const CITY_EPOCHS: u32 = 48;
/// Zipf exponent over the city's cells. At 1.2 about 6% of draws fall
/// outside the 1 820 most popular cells — the number of 9 216-entry tables
/// the distribution cache holds — so cold rows and tables keep being built.
pub const CITY_ZIPF: f64 = 1.2;
/// Tracing rounds prepared per run.
const ROUNDS: usize = 12;
/// Epochs of a patient's history whose cells the policy isolates.
const ISOLATE_WINDOW: Timestamp = 24;

/// Builds the workload's inputs from `seed`.
pub fn inputs(workload: &Workload, seed: u64) -> Inputs {
    let (grid, trajectories, horizon) = match workload.policy {
        PolicyKind::GridGb => {
            let g = grid(32);
            let db = geolife(seed, &g, GRID_USERS, GRID_DAYS);
            let horizon = db.horizon();
            let trajectories: Vec<(UserId, Vec<CellId>)> = db
                .trajectories()
                .iter()
                .map(|tr| (tr.user, tr.cells.clone()))
                .collect();
            (g, trajectories, horizon)
        }
        PolicyKind::City => {
            let g = GridMap::new(96, 96, 500.0);
            let mut rng = StdRng::seed_from_u64(seed);
            let zipf = Zipf::new(g.n_cells() as usize, CITY_ZIPF);
            // Popularity ranks land on a seeded permutation of the cells,
            // so hot spots are scattered over the city.
            let mut cells: Vec<CellId> = (0..g.n_cells()).map(CellId).collect();
            for i in (1..cells.len()).rev() {
                cells.swap(i, rng.gen_range(0..=i));
            }
            let trajectories = (0..CITY_USERS)
                .map(|u| {
                    let tr = (0..CITY_EPOCHS)
                        .map(|_| cells[zipf.sample(&mut rng)])
                        .collect();
                    (UserId(u), tr)
                })
                .collect();
            (g, trajectories, CITY_EPOCHS)
        }
    };
    let mut trace = Vec::with_capacity(trajectories.len() * horizon as usize);
    for t in 0..horizon {
        for (user, cells) in &trajectories {
            trace.push(PendingReport {
                user: *user,
                epoch: t,
                cell: cells[t as usize],
                resend: false,
            });
        }
    }
    assert_eq!(trace.len() % FRAME, 0, "frames never wrap the trace");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7472_6163_696e_6721);
    let rounds = (0..ROUNDS)
        .map(|_| {
            let (patient, cells) = &trajectories[rng.gen_range(0..trajectories.len())];
            let history: Vec<(Timestamp, CellId)> = cells
                .iter()
                .enumerate()
                .map(|(t, &c)| (t as Timestamp, c))
                .collect();
            let mut isolate: Vec<CellId> = history
                .iter()
                .filter(|&&(t, _)| t + ISOLATE_WINDOW >= horizon)
                .map(|&(_, c)| c)
                .collect();
            isolate.sort_unstable();
            isolate.dedup();
            TracingRound {
                patient: *patient,
                history,
                isolate,
            }
        })
        .collect();
    Inputs {
        grid,
        trace,
        horizon,
        rounds,
        release_seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5eed,
    }
}

/// Inverse-CDF Zipf sampler over ranks `0..n` with `P(k) ∝ (k+1)^-s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        for w in Workload::all() {
            let a = inputs(&w, 3);
            let b = inputs(&w, 3);
            let c = inputs(&w, 4);
            assert_eq!(a.trace, b.trace, "{}", w.name);
            assert_ne!(a.trace, c.trace, "{}", w.name);
            assert_eq!(a.trace.len() % FRAME, 0);
            assert!(a.rounds.iter().all(|r| !r.isolate.is_empty()));
        }
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(100, 1.2);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
    }
}
