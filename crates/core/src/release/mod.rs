//! [`ParallelReleaser`] and [`Lanes`]: the one release kernel and its
//! deterministic multi-threaded fan-out.
//!
//! Every perturbed report in the workspace comes out of one per-report
//! kernel, whether it belongs to a bulk release (the simulation driver,
//! the experiment binaries, `release_db_parallel`) or to an ingest flush:
//!
//! * a report is a `(seq, cell)` pair, and its released cell is drawn from
//!   its own RNG stream [`chunk_rng`]`(seed, seq)` — a pure function of
//!   the report, never of the batch it rides in, the lane count or which
//!   thread runs it, so a fixed seed is **bit-identical on 1 thread or 64**;
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
//! * a batch is cut into contiguous lanes. The **caller runs the last
//!   lane itself** and helper threads, spawned in a [`std::thread::scope`]
//!   next to the table, take the others, so one lane never leaves the
//!   caller thread and two lanes send one across. A bulk release spawns
//!   its helpers per call, each borrowing its chunk; the ingest collector
//!   keeps [`Lanes`], helpers that live as long as one policy's table and
//!   park between flushes.
//!
//! The surveillance server consumes the output via
//! `Server::receive_batch`, which groups reports by shard before taking any
//! lock.

use crate::error::PglpError;
use crate::index::PolicyIndex;
use crate::mech::{Mechanism, SamplerTable};
use crossbeam::channel::{bounded, Receiver, Sender};
use panda_geo::CellId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::thread::Scope;

/// The first report of a batch that could not be released: its position
/// in the batch and why.
pub type Rejection = (usize, PglpError);

/// The engine-wide "one lane per hardware thread" default, shared by
/// [`ParallelReleaser::new`] and the ingest pipeline's lane default so the
/// two can never silently diverge.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A deterministic parallel release driver. Cheap to construct; holds no
/// per-policy state (that lives in the [`PolicyIndex`]) and no threads
/// (each call runs its lanes in its own scope, or inline when a single
/// lane suffices).
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
        Self::with_threads(default_parallelism())
    }

    /// A releaser with an explicit lane count (≥ 1): the maximum number of
    /// threads one release call occupies, the caller's included. The lane
    /// count affects wall-clock only, never the released cells.
    pub fn with_threads(n_threads: usize) -> Self {
        ParallelReleaser {
            n_threads: n_threads.max(1),
        }
    }

    /// Maximum concurrent lanes per release call.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Releases `locs` through `mech` under the indexed policy, on up to
    /// [`ParallelReleaser::n_threads`] lanes scoped to this call. Report `i`
    /// is drawn from [`chunk_rng`]`(seed, i)`, so the output is
    /// positionally aligned with `locs` and **bit-identical for a fixed
    /// seed regardless of the lane count or scheduling**.
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
        let stamped: Vec<(u64, CellId)> = (0u64..).zip(locs.iter().copied()).collect();
        let table = &SamplerTable::new(mech, index, eps);
        let mut out = vec![None; locs.len()];
        let lane_len = locs.len().div_ceil(self.n_threads).max(1);
        // One release, so each helper borrows its chunk and starts with it
        // in hand: unlike `Lanes`, nothing is copied and no helper parks
        // before its work arrives.
        let rejection = std::thread::scope(|scope| {
            let mut lanes = stamped.chunks(lane_len).zip(out.chunks_mut(lane_len));
            let last = lanes.next_back();
            let helpers: Vec<_> = lanes
                .map(|(reports, out)| scope.spawn(move || release_into(table, seed, reports, out)))
                .collect();
            let inline = last.and_then(|(reports, out)| release_into(table, seed, reports, out));
            // Lanes in position order, so the first rejection is the
            // earliest; every helper is joined either way.
            helpers
                .into_iter()
                .map(|helper| helper.join().expect("release lane panicked"))
                .fold(None, Option::or)
                .or(inline)
        });
        match rejection {
            Some((_, e)) => Err(e),
            // No rejection: every slot is filled.
            None => Ok(out.into_iter().flatten().collect()),
        }
    }
}

/// One helper's share of a release: the `(seq, cell)` reports it draws,
/// the slots it fills and its first rejection. Sent to the helper and back,
/// so its buffers carry over from one release to the next.
#[derive(Default)]
struct Lane {
    reports: Vec<(u64, CellId)>,
    out: Vec<Option<CellId>>,
    rejection: Option<Rejection>,
}

/// The caller's ends of one helper thread's channels.
struct Helper {
    work: Sender<Lane>,
    done: Receiver<Lane>,
    /// The lane buffers while the helper is idle.
    spare: Lane,
}

/// Release lanes over one [`SamplerTable`]: `n_lanes − 1` named helper
/// threads, spawned in a [`std::thread::scope`] and parked on a bounded
/// channel between releases, plus the caller, which runs the last lane of
/// every release inline.
///
/// Helpers exit when the `Lanes` is dropped, and the scope joins them, so
/// the lanes live exactly as long as the table they draw from. A panic on
/// either side never hangs the scope: a helper's panic closes its channels
/// and re-raises in the caller, and the caller's panic drops the `Lanes`,
/// which lets every helper finish its lane and exit.
pub struct Lanes<'t, 'a> {
    table: &'t SamplerTable<'a>,
    seed: u64,
    helpers: Vec<Helper>,
}

impl<'t, 'a> Lanes<'t, 'a> {
    /// Spawns `n_lanes − 1` helpers (none for one lane) on `scope`, each
    /// drawing from `table` with RNG streams keyed by `seed`.
    pub fn spawn<'scope>(
        scope: &'scope Scope<'scope, '_>,
        table: &'t SamplerTable<'a>,
        seed: u64,
        n_lanes: usize,
    ) -> Self
    where
        't: 'scope,
    {
        let helpers = (1..n_lanes)
            .map(|i| {
                let (work, jobs) = bounded::<Lane>(1);
                let (results, done) = bounded::<Lane>(1);
                std::thread::Builder::new()
                    .name(format!("panda-release-{i}"))
                    .spawn_scoped(scope, move || {
                        // Parked in `recv` between releases; `Err` means
                        // the `Lanes` was dropped.
                        while let Ok(mut lane) = jobs.recv() {
                            lane.out.clear();
                            lane.out.resize(lane.reports.len(), None);
                            lane.rejection =
                                release_into(table, seed, &lane.reports, &mut lane.out);
                            if results.send(lane).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn release lane");
                Helper {
                    work,
                    done,
                    spare: Lane::default(),
                }
            })
            .collect();
        Lanes {
            table,
            seed,
            helpers,
        }
    }

    /// Releases `(seq, cell)` reports, each drawn from
    /// [`chunk_rng`]`(seed, seq)`, into `out`: slot `i` becomes the
    /// released cell of `reports[i]`, or `None` when that report cannot be
    /// released (bad ε, foreign cell). The [`Rejection`] is the earliest
    /// such position.
    ///
    /// The batch is cut into up to `n_lanes` contiguous lanes. The caller
    /// runs the last one; a single lane never leaves the caller thread.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of the kernel on any lane.
    pub fn release(
        &mut self,
        reports: &[(u64, CellId)],
        out: &mut Vec<Option<CellId>>,
    ) -> Option<Rejection> {
        out.clear();
        out.resize(reports.len(), None);
        let lane_len = reports.len().div_ceil(self.helpers.len() + 1).max(1);
        let n_sent = reports.len().div_ceil(lane_len).saturating_sub(1);
        let helpers = &mut self.helpers[..n_sent];
        for (helper, lane) in helpers.iter_mut().zip(reports.chunks(lane_len)) {
            let mut job = std::mem::take(&mut helper.spare);
            job.reports.clear();
            job.reports.extend_from_slice(lane);
            helper.work.send(job).expect("release lane panicked");
        }
        let start = n_sent * lane_len;
        let inline = release_into(self.table, self.seed, &reports[start..], &mut out[start..])
            .map(|(i, e)| (start + i, e));
        let mut rejection = None;
        for (k, helper) in helpers.iter_mut().enumerate() {
            let mut lane = helper.done.recv().expect("release lane panicked");
            out[k * lane_len..][..lane.out.len()].copy_from_slice(&lane.out);
            let lane_rejection = lane.rejection.take().map(|(i, e)| (k * lane_len + i, e));
            rejection = rejection.or(lane_rejection);
            helper.spare = lane;
        }
        rejection.or(inline)
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
    use crate::mech::{CellSampler, GraphExponential, IdentityMechanism, UniformComponent};
    use crate::policy::LocationPolicyGraph;
    use panda_geo::GridMap;
    use rand::Rng;
    use std::sync::mpsc::RecvTimeoutError;
    use std::sync::Mutex;
    use std::thread::ThreadId;

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

    /// The lanes — including the single-lane inline path — must match the
    /// sequential per-report reference byte for byte.
    #[test]
    fn lanes_match_per_report_reference() {
        for n in BATCHES {
            let (index, locs) = workload(n);
            let reference = per_report_reference(&GraphExponential, &index, 1.0, &locs, 7);
            for threads in LANES {
                let out = ParallelReleaser::with_threads(threads)
                    .release(&GraphExponential, &index, 1.0, &locs, 7)
                    .unwrap();
                assert_eq!(
                    out, reference,
                    "lanes != per-report reference at batch {n}, {threads} threads"
                );
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
        let release = |index: &PolicyIndex| {
            let table = SamplerTable::new(&GraphExponential, index, 1.0);
            let mut out = Vec::new();
            let rejection = std::thread::scope(|scope| {
                Lanes::spawn(scope, &table, 5, 4).release(&reports, &mut out)
            });
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

    /// Identity release that records the thread resolving each cell and
    /// panics on `panic_on`.
    #[derive(Default)]
    struct Probe {
        panic_on: Option<CellId>,
        resolved_on: Mutex<Vec<(CellId, ThreadId)>>,
    }

    static IDENTITY: IdentityMechanism = IdentityMechanism;

    impl Mechanism for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }

        fn perturb(
            &self,
            policy: &LocationPolicyGraph,
            eps: f64,
            true_loc: CellId,
            rng: &mut dyn rand::RngCore,
        ) -> Result<CellId, PglpError> {
            IDENTITY.perturb(policy, eps, true_loc, rng)
        }

        fn sampler<'a>(
            &'a self,
            index: &'a PolicyIndex,
            eps: f64,
            cell: CellId,
        ) -> Result<CellSampler<'a>, PglpError> {
            assert_ne!(Some(cell), self.panic_on, "sampler panic on {cell}");
            let thread = std::thread::current().id();
            self.resolved_on.lock().unwrap().push((cell, thread));
            IDENTITY.sampler(index, eps, cell)
        }
    }

    #[test]
    fn last_lane_runs_on_the_caller_thread() {
        let (index, _) = workload(0);
        let probe = Probe::default();
        let table = SamplerTable::new(&probe, &index, 1.0);
        let reports = [(0, CellId(1)), (1, CellId(2))];
        let mut out = Vec::new();
        std::thread::scope(|scope| Lanes::spawn(scope, &table, 3, 2).release(&reports, &mut out));
        let mut resolved_on = probe.resolved_on.into_inner().unwrap();
        resolved_on.sort_unstable_by_key(|&(cell, _)| cell);
        let caller = std::thread::current().id();
        assert_ne!(resolved_on[0].1, caller, "the first lane goes to a helper");
        assert_eq!(resolved_on[1].1, caller, "the last lane runs inline");
    }

    /// One `Lanes` serves many releases of changing size, a rejected one
    /// among them: no slot or rejection of an earlier release leaks into a
    /// later one through the reused lane buffers.
    #[test]
    fn lanes_are_reused_across_releases() {
        let (index, locs) = workload(4096);
        let table = SamplerTable::new(&GraphExponential, &index, 1.0);
        std::thread::scope(|scope| {
            let mut lanes = Lanes::spawn(scope, &table, 7, 4);
            let mut out = Vec::new();
            for n in [4096, 100, 3, 0, 1000, 4096] {
                let mut reports: Vec<(u64, CellId)> =
                    (0..).zip(locs[..n].iter().copied()).collect();
                let reference = per_report_reference(&GraphExponential, &index, 1.0, &locs[..n], 7);
                assert!(lanes.release(&reports, &mut out).is_none(), "batch {n}");
                assert_eq!(
                    out.iter().map(|c| c.unwrap()).collect::<Vec<_>>(),
                    reference
                );
                if let Some(first) = reports.first_mut() {
                    first.1 = CellId(u32::MAX);
                    let rejection = lanes.release(&reports, &mut out);
                    assert!(matches!(rejection, Some((0, _))), "batch {n}");
                    assert_eq!(out[0], None);
                }
            }
        });
    }

    /// A kernel panic on a helper's lane or on the caller's own lane
    /// re-raises in the caller, and never hangs the release's scope.
    #[test]
    fn lane_panic_reaches_the_caller() {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let (index, _) = workload(0);
            let bad = CellId(5);
            // Four lanes of 16: position 0 is the first helper's, 63 the
            // caller's.
            let panicked = [0usize, 63].map(|at| {
                let mut locs = vec![CellId(0); 64];
                locs[at] = bad;
                let probe = Probe {
                    panic_on: Some(bad),
                    ..Probe::default()
                };
                let release =
                    || ParallelReleaser::with_threads(4).release(&probe, &index, 1.0, &locs, 3);
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(release)).is_err()
            });
            tx.send(panicked).unwrap();
        });
        let panicked = rx.recv_timeout(std::time::Duration::from_secs(60));
        assert!(
            !matches!(panicked, Err(RecvTimeoutError::Timeout)),
            "a lane panic hung the release"
        );
        worker.join().expect("the panic escaped catch_unwind");
        assert_eq!(panicked.unwrap(), [true, true], "helper lane, caller lane");
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
