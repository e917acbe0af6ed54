//! [`ParallelReleaser`]: the one release kernel and its deterministic
//! multi-threaded fan-out.
//!
//! Every perturbed report in the workspace comes out of one per-report
//! kernel, whether it belongs to a bulk release (the simulation driver,
//! the experiment binaries, `release_db_parallel`) or to an ingest flush:
//!
//! * a report is a `(seq, cell)` pair, and its released cell is drawn from
//!   its own RNG stream [`chunk_rng`]`(seed, seq)` — a pure function of
//!   the report, never of the batch it rides in, the lane count, the pool
//!   size or which worker runs it, so a fixed seed is **bit-identical on 1
//!   thread or 64**;
//! * a bulk release ([`ParallelReleaser::release`]) stamps positions
//!   `0..n`, the ingest pipeline stamps arrival sequence numbers — so a
//!   bulk release of `n` reports lands exactly what an ingest pipeline with
//!   the same seed lands when fed the same `n` reports in order;
//! * every lane shares one [`SamplerTable`] for the `(mechanism, index,
//!   ε)` triple: the shared [`PolicyIndex`] caches are touched at most once
//!   per distinct cell for the table's life (one bulk call, or one policy of
//!   an ingest pipeline), and every report then draws lock-free. Resolution
//!   consumes no randomness and a handle draw consumes what
//!   [`Mechanism::perturb`] does, so the output equals releasing each report
//!   alone through `perturb`. An exact handle draws nothing, so its report
//!   builds no stream;
//! * a batch is cut into contiguous lanes fanned over the persistent
//!   [`pool::ReleasePool`]. The **caller runs the last lane itself** and
//!   the workers take the others, so one lane never leaves the caller
//!   thread and two lanes send one across.
//!
//! The surveillance server consumes the output via
//! `Server::receive_batch`, which groups reports by shard before taking any
//! lock.

pub mod pool;

use crate::error::PglpError;
use crate::index::PolicyIndex;
use crate::mech::{Mechanism, SamplerTable};
use panda_check::ordered::{rank, OrderedMutex};
use panda_geo::CellId;
use pool::ReleasePool;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The first report of a batch that could not be released: its position
/// in the batch and why.
pub type Rejection = (usize, PglpError);

/// A deterministic parallel release driver. Cheap to construct; holds no
/// per-policy state (that lives in the [`PolicyIndex`]) and no threads
/// (releases run on a [`ReleasePool`], or inline when a single lane
/// suffices).
#[derive(Debug, Clone)]
pub struct ParallelReleaser {
    n_threads: usize,
}

impl Default for ParallelReleaser {
    fn default() -> Self {
        Self::new()
    }
}

impl ParallelReleaser {
    /// A releaser using all available hardware parallelism.
    pub fn new() -> Self {
        Self::with_threads(pool::default_parallelism())
    }

    /// A releaser with an explicit lane count (≥ 1): the maximum number of
    /// pool workers one release call occupies. The lane count affects
    /// wall-clock only, never the released cells.
    pub fn with_threads(n_threads: usize) -> Self {
        ParallelReleaser {
            n_threads: n_threads.max(1),
        }
    }

    /// Maximum concurrent lanes per release call.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Releases `locs` through `mech` under the indexed policy on the
    /// shared [`ReleasePool::global`]. Report `i` is drawn from
    /// [`chunk_rng`]`(seed, i)`, so the output is positionally aligned with
    /// `locs` and **bit-identical for a fixed seed regardless of the lane
    /// count, pool size, or scheduling**.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Mechanism::perturb_batch`]. When several
    /// reports fail, the error of the earliest failing position is
    /// returned (deterministic).
    pub fn release(
        &self,
        mech: &(dyn Mechanism + Sync),
        index: &PolicyIndex,
        eps: f64,
        locs: &[CellId],
        seed: u64,
    ) -> Result<Vec<CellId>, PglpError> {
        self.release_on(ReleasePool::global(), mech, index, eps, locs, seed)
    }

    /// [`ParallelReleaser::release`] on an explicit pool (a dedicated
    /// ingest pool, a test pool of a fixed size). Output does not depend on
    /// which pool runs the work.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`ParallelReleaser::release`].
    pub fn release_on(
        &self,
        pool: &ReleasePool,
        mech: &(dyn Mechanism + Sync),
        index: &PolicyIndex,
        eps: f64,
        locs: &[CellId],
        seed: u64,
    ) -> Result<Vec<CellId>, PglpError> {
        let stamped: Vec<(u64, CellId)> = (0u64..).zip(locs.iter().copied()).collect();
        let table = SamplerTable::new(mech, index, eps);
        match self.release_stamped(pool, &table, seed, &stamped) {
            (_, Some((_, e))) => Err(e),
            // No rejection: every slot is filled.
            (out, None) => Ok(out.into_iter().flatten().collect()),
        }
    }

    /// Releases `(seq, cell)` reports on `pool` through `table`'s handles,
    /// each drawn from [`chunk_rng`]`(seed, seq)`. Slot `i` of the returned
    /// vector is the released cell of `reports[i]`, or `None` when that
    /// report cannot be released (bad ε, foreign cell); the [`Rejection`] is
    /// the earliest such position.
    ///
    /// The batch is cut into up to [`ParallelReleaser::n_threads`]
    /// contiguous lanes. The caller thread runs the last lane (a single
    /// lane never reaches the pool) while pool workers run the rest.
    pub fn release_stamped(
        &self,
        pool: &ReleasePool,
        table: &SamplerTable<'_>,
        seed: u64,
        reports: &[(u64, CellId)],
    ) -> (Vec<Option<CellId>>, Option<Rejection>) {
        let mut out = vec![None; reports.len()];
        let n_lanes = self.n_threads.min(reports.len());
        if n_lanes <= 1 {
            let rejection = release_into(table, seed, reports, &mut out);
            return (out, rejection);
        }
        let lane_len = reports.len().div_ceil(n_lanes);
        let rejections: OrderedMutex<Vec<Rejection>> =
            OrderedMutex::new(rank::RELEASE_FAILURES, Vec::new());
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = reports
            .chunks(lane_len)
            .zip(out.chunks_mut(lane_len))
            .enumerate()
            .map(|(lane, (reports, out))| {
                let rejections = &rejections;
                Box::new(move || {
                    if let Some((i, e)) = release_into(table, seed, reports, out) {
                        rejections.lock().push((lane * lane_len + i, e));
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_scoped(jobs);
        let rejection = rejections.into_inner().into_iter().min_by_key(|&(i, _)| i);
        (out, rejection)
    }
}

/// The release kernel: one lane of `(seq, cell)` reports, each drawn from
/// its own stream `chunk_rng(seed, seq)` into the matching slot of `out`.
/// An unreleasable report is marked rejected (`None`); the first rejection
/// in the lane is returned.
///
/// Handles come from the shared [`SamplerTable`], so every report draws
/// lock-free from its own stream; an exact handle needs no stream at all.
fn release_into(
    table: &SamplerTable<'_>,
    seed: u64,
    reports: &[(u64, CellId)],
    out: &mut [Option<CellId>],
) -> Option<Rejection> {
    let mut rejection = None;
    for (i, (&(seq, cell), slot)) in reports.iter().zip(out.iter_mut()).enumerate() {
        match table.handle(cell) {
            Ok(sampler) => {
                let fixed = sampler.fixed();
                *slot = Some(fixed.unwrap_or_else(|| sampler.draw(&mut chunk_rng(seed, seq))));
            }
            Err(e) => {
                *slot = None;
                rejection.get_or_insert((i, e));
            }
        }
    }
    rejection
}

/// The SplitMix64 finaliser: a bijective avalanche mix, shared by the
/// report-stream derivation here and the server's shard routing so the two
/// never drift apart.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG stream of report `seq` under `seed` (its bulk position or its
/// ingest arrival sequence number): a SplitMix64-style finaliser over the
/// pair, so nearby sequence numbers (and nearby seeds) get unrelated
/// streams. The name predates per-report keying; the benchmark package
/// (`perfbench/`) calls it by this name.
pub fn chunk_rng(seed: u64, seq: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mech::{GraphExponential, UniformComponent};
    use crate::policy::LocationPolicyGraph;
    use panda_geo::GridMap;
    use rand::Rng;

    fn workload(n: usize) -> (PolicyIndex, Vec<CellId>) {
        let grid = GridMap::new(16, 16, 100.0);
        let policy = LocationPolicyGraph::partition(grid.clone(), 4, 4);
        let mut rng = StdRng::seed_from_u64(42);
        let locs: Vec<CellId> = (0..n)
            .map(|_| CellId(rng.gen_range(0..grid.n_cells())))
            .collect();
        (PolicyIndex::new(policy), locs)
    }

    /// The determinism contract spelled out: report `i` of a bulk release
    /// is released alone, through the mechanism's definition
    /// [`Mechanism::perturb`], from `chunk_rng(seed, i)`.
    fn per_report_reference(
        mech: &dyn Mechanism,
        index: &PolicyIndex,
        eps: f64,
        locs: &[CellId],
        seed: u64,
    ) -> Vec<CellId> {
        locs.iter()
            .enumerate()
            .map(|(i, &s)| {
                mech.perturb(index.policy(), eps, s, &mut chunk_rng(seed, i as u64))
                    .unwrap()
            })
            .collect()
    }

    const BATCHES: [usize; 4] = [1, 100, 4096, 10_000];
    const LANES: [usize; 4] = [1, 2, 4, 16];

    #[test]
    fn output_is_bit_identical_across_thread_counts() {
        let (index, locs) = workload(10_000);
        let reference = ParallelReleaser::with_threads(1)
            .release(&GraphExponential, &index, 1.0, &locs, 7)
            .unwrap();
        for threads in [2, 3, 4, 8, 16] {
            let out = ParallelReleaser::with_threads(threads)
                .release(&GraphExponential, &index, 1.0, &locs, 7)
                .unwrap();
            assert_eq!(out, reference, "thread count {threads} changed output");
        }
    }

    /// The pooled lanes — including the single-lane inline path — must
    /// match the sequential per-report reference byte for byte.
    #[test]
    fn pooled_release_matches_scoped_reference() {
        for n in BATCHES {
            let (index, locs) = workload(n);
            let reference = per_report_reference(&GraphExponential, &index, 1.0, &locs, 7);
            for threads in LANES {
                let pooled = ParallelReleaser::with_threads(threads)
                    .release(&GraphExponential, &index, 1.0, &locs, 7)
                    .unwrap();
                assert_eq!(
                    pooled, reference,
                    "pooled != per-report reference at batch {n}, {threads} threads"
                );
            }
        }
    }

    /// Output must not depend on the size of the pool running the lanes.
    #[test]
    fn output_is_pool_size_invariant() {
        let pools: Vec<ReleasePool> = [1, 2, 8].into_iter().map(ReleasePool::new).collect();
        for n in BATCHES {
            let (index, locs) = workload(n);
            let reference = per_report_reference(&GraphExponential, &index, 1.0, &locs, 3);
            for threads in LANES {
                let r = ParallelReleaser::with_threads(threads);
                for pool in &pools {
                    let out = r
                        .release_on(pool, &GraphExponential, &index, 1.0, &locs, 3)
                        .unwrap();
                    assert_eq!(
                        out,
                        reference,
                        "pool size {} changed output at batch {n}, {threads} threads",
                        pool.n_workers()
                    );
                }
            }
        }
    }

    #[test]
    fn seed_is_part_of_the_stream() {
        let (index, locs) = workload(5_000);
        let r = ParallelReleaser::with_threads(4);
        let a = r.release(&UniformComponent, &index, 1.0, &locs, 1).unwrap();
        let b = r.release(&UniformComponent, &index, 1.0, &locs, 2).unwrap();
        assert_ne!(a, b, "different seeds must differ");
    }

    #[test]
    fn matches_sequential_perturb_batch_distribution() {
        // Not bit-equal to a single-rng run (streams differ), but each
        // output must stay in its component and the empirical distribution
        // must match the single-threaded batch path.
        let (index, _) = workload(0);
        let s = CellId(0);
        let locs = vec![s; 40_000];
        let par = ParallelReleaser::with_threads(4)
            .release(&GraphExponential, &index, 1.0, &locs, 11)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let seq = GraphExponential
            .perturb_batch(&index, 1.0, &locs, &mut rng)
            .unwrap();
        let census = |out: &[CellId]| {
            let mut m = std::collections::HashMap::new();
            for &z in out {
                *m.entry(z).or_insert(0usize) += 1;
            }
            m
        };
        let (cp, cs) = (census(&par), census(&seq));
        for (cell, &n_par) in &cp {
            assert!(index.policy().same_component(s, *cell));
            let n_seq = *cs.get(cell).unwrap_or(&0);
            let (fp, fs) = (
                n_par as f64 / locs.len() as f64,
                n_seq as f64 / locs.len() as f64,
            );
            assert!((fp - fs).abs() < 0.015, "cell {cell}: {fp} vs {fs}");
        }
    }

    #[test]
    fn empty_batch_and_error_propagation() {
        let (index, _) = workload(0);
        let r = ParallelReleaser::with_threads(4);
        assert_eq!(
            r.release(&GraphExponential, &index, 1.0, &[], 3).unwrap(),
            Vec::new()
        );
        // Invalid eps fails every report; the error must surface.
        let locs = vec![CellId(0); 100];
        assert!(matches!(
            r.release(&GraphExponential, &index, 0.0, &locs, 3),
            Err(PglpError::InvalidEpsilon(_))
        ));
        // Two foreign cells, in different lanes whenever there are several:
        // the error names the earlier one at every lane count.
        let (early, late) = (CellId(u32::MAX - 1), CellId(u32::MAX));
        let mut locs = vec![CellId(0); 9000];
        locs[100] = early;
        locs[8999] = late;
        for threads in LANES {
            let err = ParallelReleaser::with_threads(threads)
                .release(&GraphExponential, &index, 1.0, &locs, 3)
                .unwrap_err();
            assert!(
                matches!(err, PglpError::LocationOutOfDomain(c) if c == early),
                "{threads} threads: {err:?} must name the earlier foreign cell"
            );
        }
    }

    /// A release touches the shared distribution cache at most once per
    /// distinct cell per lane, no matter how many reports the lane covers
    /// (the shared table tightens this to once per distinct cell).
    #[test]
    fn release_touches_cache_once_per_distinct_cell_per_lane() {
        let grid = GridMap::new(16, 16, 100.0);
        let policy = LocationPolicyGraph::partition(grid, 4, 4);
        let index = PolicyIndex::new(policy);
        let distinct = 2usize;
        let locs: Vec<CellId> = (0..40_000).map(|i| CellId(i % distinct as u32)).collect();
        let releaser = ParallelReleaser::with_threads(4);
        let n_lanes = releaser.n_threads().min(locs.len());
        let touches0 = index.distribution_cache_touches();
        releaser
            .release(&GraphExponential, &index, 1.0, &locs, 9)
            .unwrap();
        let touches = index.distribution_cache_touches() - touches0;
        let bound = (n_lanes * distinct) as u64;
        assert!(
            touches <= bound,
            "one release: {touches} cache touches; bound is lanes({n_lanes}) × \
             distinct({distinct}) = {bound}"
        );
        assert!(touches >= distinct as u64, "every distinct cell resolves");
    }

    /// An index whose ring budget holds fewer handles than the batch has
    /// distinct cells pins what fits, resolves the rest per use, and
    /// releases exactly what an unbounded index releases.
    #[test]
    fn small_ring_budget_releases_alike_and_pins_within_it() {
        let grid = GridMap::new(16, 16, 100.0);
        let policy = LocationPolicyGraph::g1_geo_indistinguishability(grid);
        // One 256-cell component: a handle's rings and ring slots take most
        // of a 1.6 kB budget, so few of the 256 distinct cells are pinned.
        let small = PolicyIndex::with_cache_capacity(policy.clone(), 100);
        let unbounded = PolicyIndex::new(policy);
        let reports: Vec<(u64, CellId)> = (0..4_096u64)
            .map(|i| (i, CellId((i % 256) as u32)))
            .collect();
        let releaser = ParallelReleaser::with_threads(4);
        let pool = ReleasePool::new(2);
        let release = |index: &PolicyIndex| {
            let table = SamplerTable::new(&GraphExponential, index, 1.0);
            let (out, rejection) = releaser.release_stamped(&pool, &table, 5, &reports);
            assert!(rejection.is_none());
            (out, table.pinned_bytes())
        };
        let (from_small, pinned) = release(&small);
        let (from_unbounded, _) = release(&unbounded);
        assert_eq!(from_small, from_unbounded, "the budget changed the output");
        assert!(pinned > 0, "the first handles fit");
        let budget = 100 * PolicyIndex::RING_BYTES_PER_ENTRY;
        assert!(
            pinned <= budget,
            "pinned {pinned} B past the {budget} B budget"
        );
        assert!(
            small.distribution_cache_touches() > 256,
            "cells past the budget resolve per use"
        );
    }

    #[test]
    fn more_threads_than_chunks_is_fine() {
        let (index, locs) = workload(10);
        let out = ParallelReleaser::with_threads(64)
            .release(&GraphExponential, &index, 1.0, &locs, 5)
            .unwrap();
        assert_eq!(out.len(), locs.len());
    }
}
