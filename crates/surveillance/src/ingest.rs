//! [`IngestPipeline`]: streaming report ingest with micro-batching.
//!
//! PANDA's surveillance setting is inherently *streaming* — users report
//! perturbed locations continuously, not as one offline bulk replay. This
//! module is the server-side front end for that regime:
//!
//! * producers push [`Entry`]s through a **bounded MPMC queue** — one
//!   entry point for every kind of report: [`IngestHandle::try_submit`]
//!   enqueues the prefix that fits and never blocks,
//!   [`IngestHandle::submit`] blocks at capacity (backpressure, never an
//!   unbounded backlog);
//! * a collector thread **micro-batches** the stream under a size/deadline
//!   flush policy: a batch goes out when it reaches
//!   [`IngestConfig::max_batch`] reports or when its oldest report has
//!   waited [`IngestConfig::max_delay`];
//! * the collector **drains in runs**: each time a blocking receive wakes
//!   it, it also takes the messages queued behind, up to the pending
//!   batch's free room, under one more lock
//!   (`Receiver::try_recv_batch`), and handles them in order. Reports in
//!   memory stay within `queue_capacity + max_batch`. A drained run has
//!   left the queue, so [`IngestHandle::queue_len`] can read up to
//!   `max_batch` lower than the backlog the collector has not yet handled;
//! * each flush releases through one shared [`PolicyIndex`] with the
//!   release kernel bulk release uses ([`panda_core::ParallelReleaser`])
//!   and lands via `Server::receive_batch`. The collector keeps one
//!   [`SamplerTable`] per policy, alive from one in-band switch to the
//!   next, so each distinct cell resolves once per policy, not once per
//!   flush. The table's release [`Lanes`] live in a thread scope beside
//!   it: spawned with the policy, joined when the next one takes over. The
//!   collector runs the last lane of each flush itself;
//! * dropping or [`IngestPipeline::shutdown`]-ing the pipeline **drains**:
//!   everything queued before shutdown is flushed before the collector
//!   exits — no report is lost.
//!
//! ## Determinism
//!
//! Every report is perturbed from its own RNG stream, keyed by the
//! pipeline seed and the report's **arrival sequence number** (its position
//! in the queue order, or the position a routing tier stamped upstream).
//! Batch boundaries therefore do not touch the sampling streams: for a
//! fixed seed and a fixed arrival order the released cells are
//! bit-identical regardless of flush timing, micro-batch sizes, or
//! release-lane count.
//!
//! Caveats: (1) the *arrival order* is the contract — concurrent producers
//! interleave nondeterministically, so cross-producer reproducibility
//! requires replaying the same interleaving (each report's released cell
//! still depends only on its own sequence number, so any two runs that
//! agree on a report's queue position agree on its output); (2) reports
//! for the same `(user, epoch)` overwrite in queue order — racing them
//! across *separate* pipelines (or submitting after shutdown began) forfeits
//! that ordering.
//!
//! Policy updates ride the same queue ([`IngestHandle::switch_policy`]):
//! a switch flushes the batch in progress, then applies to every later
//! report — epoch boundaries in the streaming simulation map onto exactly
//! this mechanism.

use crate::protocol::LocationReport;
use crate::server::Server;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use panda_core::release::{default_parallelism, Lanes};
use panda_core::{Mechanism, PolicyIndex, SamplerTable};
use panda_geo::CellId;
use panda_mobility::{Timestamp, UserId};
use panda_obs::{clock, Counter, Gauge, Histogram, Registry};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A client's planned (not yet perturbed) report entering the pipeline.
///
/// The pipeline perturbs `cell` under the current policy index before the
/// server ever sees it — mirroring how the simulation driver releases
/// planned routine reports centrally through one shared index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingReport {
    /// Reporting user.
    pub user: UserId,
    /// Epoch the location belongs to.
    pub epoch: Timestamp,
    /// The *true* cell, to be perturbed on release.
    pub cell: CellId,
    /// Whether this supersedes an earlier report for the same epoch.
    pub resend: bool,
}

/// A report whose arrival sequence number was assigned *upstream* — by a
/// routing tier stamping stream positions — instead of by this pipeline's
/// own arrival counter.
///
/// Two flavours share the type:
///
/// * `released: false` — a pending report to perturb exactly like a
///   [`PendingReport`] at queue position `seq`: the released cell is drawn
///   from `chunk_rng(seed, seq)`, so a router that stamps the client's
///   stream positions reproduces the single-process pipeline byte for
///   byte.
/// * `released: true` — an already-perturbed report (the client released
///   it under its own budget, e.g. a re-send): `report.cell` lands **as
///   is**, drawing no randomness; `seq` only fixes its place in the
///   `(user, epoch)` overwrite order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SequencedReport {
    /// Arrival sequence number assigned upstream (RNG stream key for
    /// pending reports, overwrite-order position for released ones).
    pub seq: u64,
    /// The report payload; for `released: true` the cell is final.
    pub report: PendingReport,
    /// Whether `report.cell` is already perturbed (lands verbatim).
    pub released: bool,
}

/// Flush policy, queue bound and release parameters of a pipeline.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Flush a micro-batch at this many pending reports.
    pub max_batch: usize,
    /// Flush when the oldest pending report has waited this long.
    pub max_delay: Duration,
    /// Bounded queue capacity: producers block (or [`IngestHandle::try_submit`]
    /// fails fast) once this many messages are in flight.
    pub queue_capacity: usize,
    /// Maximum release lanes per flush, as in
    /// `ParallelReleaser::with_threads`. The collector thread runs the last
    /// lane itself and `release_threads − 1` helper threads per policy take
    /// the others, so 1 releases wholly inline and 2 hands one lane to a
    /// helper. Affects wall-clock only, never the released cells.
    pub release_threads: usize,
    /// ε per released report.
    pub eps: f64,
    /// Base seed of the per-report RNG streams.
    pub seed: u64,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            max_batch: 512,
            max_delay: Duration::from_millis(5),
            queue_capacity: 8192,
            release_threads: default_parallelism(),
            eps: 1.0,
            seed: 0,
        }
    }
}

/// Counters of a pipeline's lifetime, returned by
/// [`IngestPipeline::shutdown`]. Submitted, landed, rejected, batches and
/// policy switches are read from the registry's `panda_ingest_*_total`
/// counters ([`IngestHandle::metrics`]), their one copy, so a scrape
/// after shutdown reads the same numbers; the flush-cause tallies are
/// the collector's own. Flush latency lives in the registry's
/// `panda_ingest_flush_ns` histogram.
#[derive(Debug, Clone, Default)]
pub struct IngestStats {
    /// Reports that entered the collector.
    pub submitted: usize,
    /// Reports released and landed on the server.
    pub landed: usize,
    /// Reports dropped because release failed (bad ε, foreign cell).
    pub rejected: usize,
    /// Micro-batches flushed (only non-empty flushes count).
    pub batches: usize,
    /// Flushes triggered by reaching [`IngestConfig::max_batch`].
    pub size_flushes: usize,
    /// Flushes triggered by the [`IngestConfig::max_delay`] deadline.
    pub deadline_flushes: usize,
    /// Flushes forced by a policy switch or shutdown drain.
    pub forced_flushes: usize,
    /// Policy switches applied.
    pub policy_switches: usize,
}

/// One report entering the ingest queue. The variant fixes how the
/// report gets its arrival sequence number and its landed cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// Takes the next local sequence number and is released from
    /// `chunk_rng(seed, seq)`.
    Pending(PendingReport),
    /// Uses the sequence number stamped upstream; released or landed as
    /// sent according to [`SequencedReport::released`].
    Sequenced(SequencedReport),
    /// An already-perturbed report (a client-side release such as a
    /// re-send): takes the next local sequence number, which fixes its
    /// place in the `(user, epoch)` overwrite order, and lands as sent.
    Released(LocationReport),
}

impl From<PendingReport> for Entry {
    fn from(report: PendingReport) -> Self {
        Entry::Pending(report)
    }
}

impl From<SequencedReport> for Entry {
    fn from(report: SequencedReport) -> Self {
        Entry::Sequenced(report)
    }
}

impl From<LocationReport> for Entry {
    fn from(report: LocationReport) -> Self {
        Entry::Released(report)
    }
}

/// The pipeline has shut down, so nothing more can be enqueued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

impl std::fmt::Display for Closed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ingest pipeline has shut down")
    }
}

impl std::error::Error for Closed {}

/// Messages riding the ingest queue: reports, in-band policy switches, and
/// the shutdown marker.
enum IngestMsg {
    Report(Entry),
    Switch(Arc<PolicyIndex>),
    Stop,
}

/// A cloneable producer handle onto a pipeline's bounded queue.
#[derive(Clone)]
pub struct IngestHandle {
    tx: Sender<IngestMsg>,
    registry: Arc<Registry>,
}

impl IngestHandle {
    /// Enqueues the longest prefix of `entries` that fits right now, under
    /// one queue-lock acquisition, and returns its length. `Ok(0)` for a
    /// non-empty slice means the queue is full; a short count means it
    /// filled mid-slice — retry from that offset, order is preserved.
    /// Never blocks, so a socket or router thread can call it.
    ///
    /// # Errors
    ///
    /// [`Closed`] when the pipeline has shut down (nothing from this call
    /// is enqueued).
    pub fn try_submit<E: Copy + Into<Entry>>(&self, entries: &[E]) -> Result<usize, Closed> {
        self.tx
            .try_send_batch(entries.iter().map(|&e| IngestMsg::Report(e.into())))
            .map_err(|_| Closed)
    }

    /// Enqueues all of `entries` in order, blocking while the queue is at
    /// capacity. The queue lock is taken once per run of free slots, and
    /// no other producer's entries interleave within a run. Lands exactly
    /// what one-at-a-time submission would (same sequence numbers, same
    /// released cells).
    ///
    /// # Errors
    ///
    /// [`Closed`] when the pipeline has shut down; a prefix of the slice
    /// may already be enqueued (and is drained if it entered before
    /// shutdown).
    pub fn submit<E: Copy + Into<Entry>>(&self, entries: &[E]) -> Result<(), Closed> {
        self.tx
            .send_batch(entries.iter().map(|&e| IngestMsg::Report(e.into())))
            .map(|_| ())
            .map_err(|_| Closed)
    }

    /// Switches the policy index for all later reports if the queue has
    /// room right now: `Ok(true)` when enqueued, `Ok(false)` at capacity
    /// (the caller keeps `index` for a retry). The switch rides the queue
    /// in-band: the batch in progress is flushed first, so it is a clean
    /// boundary at this handle's position in the arrival order.
    ///
    /// # Errors
    ///
    /// [`Closed`] when the pipeline has shut down.
    pub fn try_switch_policy(&self, index: &Arc<PolicyIndex>) -> Result<bool, Closed> {
        match self.tx.try_send(IngestMsg::Switch(Arc::clone(index))) {
            Ok(()) => Ok(true),
            Err(TrySendError::Full(_)) => Ok(false),
            Err(TrySendError::Disconnected(_)) => Err(Closed),
        }
    }

    /// Like [`IngestHandle::try_switch_policy`], but blocks while the queue
    /// is at capacity.
    ///
    /// # Errors
    ///
    /// [`Closed`] when the pipeline has shut down.
    pub fn switch_policy(&self, index: Arc<PolicyIndex>) -> Result<(), Closed> {
        self.tx.send(IngestMsg::Switch(index)).map_err(|_| Closed)
    }

    /// The pipeline's metric registry: the collector's ingest-side
    /// instruments (queue depth, flush size/latency, and the submitted,
    /// landed, rejected, batch and switch counters [`IngestStats`] is read
    /// from) plus the `PolicyIndex` cache and per-shard server counters
    /// registered in it. A gateway merges this with its own registry when
    /// serving a scrape.
    pub fn metrics(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Messages currently queued (racy by nature; for monitoring/tests).
    /// The collector's drained run is not counted: at most `max_batch`
    /// received messages wait outside the queue for their turn.
    pub fn queue_len(&self) -> usize {
        self.tx.len()
    }

    /// The queue's fixed capacity.
    pub fn queue_capacity(&self) -> usize {
        self.tx.capacity()
    }
}

/// The streaming ingest front end: one bounded queue, one collector thread,
/// releases fanned over the collector's [`Lanes`].
pub struct IngestPipeline {
    tx: Sender<IngestMsg>,
    registry: Arc<Registry>,
    collector: Option<std::thread::JoinHandle<IngestStats>>,
}

impl IngestPipeline {
    /// Spawns a pipeline landing into `server`, releasing through `mech`
    /// under `index` with the given flush policy.
    pub fn spawn(
        server: Arc<Server>,
        index: Arc<PolicyIndex>,
        mech: Arc<dyn Mechanism + Send + Sync>,
        config: IngestConfig,
    ) -> Self {
        let (tx, rx) = bounded::<IngestMsg>(config.queue_capacity.max(1));
        let registry = Arc::new(Registry::new());
        let collector = {
            let registry = Arc::clone(&registry);
            std::thread::Builder::new()
                .name("panda-ingest".into())
                .spawn(move || {
                    Collector::new(server, &index, config, registry).run(rx, index, mech)
                })
                .expect("spawn ingest collector")
        };
        IngestPipeline {
            tx,
            registry,
            collector: Some(collector),
        }
    }

    /// A new producer handle onto the queue (clone freely across threads).
    pub fn handle(&self) -> IngestHandle {
        IngestHandle {
            tx: self.tx.clone(),
            registry: Arc::clone(&self.registry),
        }
    }

    /// The pipeline's metric registry (see [`IngestHandle::metrics`]).
    pub fn metrics(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Shuts down: everything queued before this call is flushed and
    /// landed, then the collector exits and its stats are returned.
    ///
    /// Reports submitted concurrently with shutdown (from cloned handles)
    /// may or may not make the final drain; reports submitted *before* are
    /// never lost.
    pub fn shutdown(mut self) -> IngestStats {
        let _ = self.tx.send(IngestMsg::Stop);
        self.collector
            .take()
            .expect("collector joined once")
            .join()
            .expect("ingest collector panicked")
    }
}

impl Drop for IngestPipeline {
    fn drop(&mut self) {
        if let Some(collector) = self.collector.take() {
            let _ = self.tx.send(IngestMsg::Stop);
            // Same drain guarantee as `shutdown`; stats are discarded.
            collector.join().expect("ingest collector panicked");
        }
    }
}

/// The collector's registry-backed instruments. The counters are the only
/// copy of what [`IngestStats`] reports for them; the gauge and the
/// histograms compile out under `--cfg panda_obs_off`.
struct IngestMetrics {
    /// Messages on the bounded queue, sampled at batch boundaries (at
    /// most one micro-batch stale; per-message updates cost real
    /// throughput at saturation).
    queue_depth: Gauge,
    /// Reports per flushed micro-batch.
    flush_reports: Histogram,
    /// Wall-clock latency of one flush (release + server landing), ns.
    flush_ns: Histogram,
    /// Recorded per flush, not per push: lags the collector's intake by
    /// at most the pending batch, and is exact once a flush drains it.
    submitted: Counter,
    landed: Counter,
    rejected: Counter,
    batches: Counter,
    policy_switches: Counter,
}

impl IngestMetrics {
    fn new(registry: &Registry) -> Self {
        IngestMetrics {
            queue_depth: registry.gauge("panda_ingest_queue_depth"),
            flush_reports: registry.histogram("panda_ingest_flush_reports"),
            flush_ns: registry.histogram("panda_ingest_flush_ns"),
            submitted: registry.counter("panda_ingest_submitted_reports_total"),
            landed: registry.counter("panda_ingest_landed_reports_total"),
            rejected: registry.counter("panda_ingest_rejected_reports_total"),
            batches: registry.counter("panda_ingest_batches_total"),
            policy_switches: registry.counter("panda_ingest_policy_switches_total"),
        }
    }
}

/// The collector-thread state: pending micro-batch plus lifetime counts.
struct Collector {
    server: Arc<Server>,
    config: IngestConfig,
    /// Sequenced entries pending in the current batch.
    pending: Vec<SequencedReport>,
    /// The flush's `(seq, cell)` reports to draw and their drawn slots,
    /// kept so that steady-state flushes reuse their buffers.
    stamped: Vec<(u64, CellId)>,
    drawn: Vec<Option<CellId>>,
    /// When the oldest pending report arrived (deadline anchor).
    oldest: Option<Instant>,
    next_seq: u64,
    /// Flushes by [`FlushCause`], indexed by `cause as usize`.
    flushes: [usize; 3],
    metrics: IngestMetrics,
    /// Kept to re-register a switched-in index's cache handles.
    registry: Arc<Registry>,
}

/// Why a flush fired (stats attribution).
#[derive(Clone, Copy, PartialEq, Eq)]
enum FlushCause {
    Size,
    Deadline,
    Forced,
}

impl Collector {
    fn new(
        server: Arc<Server>,
        index: &PolicyIndex,
        config: IngestConfig,
        registry: Arc<Registry>,
    ) -> Self {
        let metrics = IngestMetrics::new(&registry);
        // Adopt the neighbouring components' handles into this pipeline's
        // scrape scope: the index's cache counters and the server's
        // per-stripe landing counters.
        index.register_metrics(&registry);
        server.register_metrics(&registry);
        Collector {
            server,
            config,
            pending: Vec::new(),
            stamped: Vec::new(),
            drawn: Vec::new(),
            oldest: None,
            next_seq: 0,
            flushes: [0; 3],
            metrics,
            registry,
        }
    }

    fn run(
        mut self,
        rx: Receiver<IngestMsg>,
        mut index: Arc<PolicyIndex>,
        mech: Arc<dyn Mechanism + Send + Sync>,
    ) -> IngestStats {
        // The run of messages taken under one lock, handled in order. It
        // holds at most what the pending batch has room for, so reports in
        // memory stay within `queue_capacity + max_batch`.
        let mut run = VecDeque::new();
        loop {
            // One sampler table per policy, alive from one in-band switch
            // to the next: no handle of an old index serves a later report.
            // Its release lanes live in a scope beside it and are joined
            // when it ends.
            let table = SamplerTable::new(&*mech, &index, self.config.eps);
            let (seed, n_lanes) = (self.config.seed, self.config.release_threads);
            let next = std::thread::scope(|scope| {
                let mut lanes = Lanes::spawn(scope, &table, seed, n_lanes);
                self.serve(&rx, &mut run, &mut lanes)
            });
            let Some(next) = next else {
                return self.stats();
            };
            index = next;
            // Re-point the scrape plane at the new index's cache handles
            // (adopt-replace by name).
            index.register_metrics(&self.registry);
            self.metrics.policy_switches.inc();
        }
    }

    /// The lifetime counts, read once the final drain has flushed the
    /// pending batch (so `submitted` is exact).
    fn stats(&self) -> IngestStats {
        let m = &self.metrics;
        let [size_flushes, deadline_flushes, forced_flushes] = self.flushes;
        IngestStats {
            submitted: m.submitted.get() as usize,
            landed: m.landed.get() as usize,
            rejected: m.rejected.get() as usize,
            batches: m.batches.get() as usize,
            size_flushes,
            deadline_flushes,
            forced_flushes,
            policy_switches: m.policy_switches.get() as usize,
        }
    }

    /// Handles queue messages in arrival order under one policy's `lanes`
    /// until a switch, flushing under the old policy first (the switch is a
    /// clean boundary in the landed stream) and returning the new index; or
    /// until a Stop, draining and returning `None`.
    fn serve(
        &mut self,
        rx: &Receiver<IngestMsg>,
        run: &mut VecDeque<IngestMsg>,
        lanes: &mut Lanes<'_, '_>,
    ) -> Option<Arc<PolicyIndex>> {
        loop {
            while let Some(msg) = run.pop_front() {
                match msg {
                    IngestMsg::Report(entry) => self.accept(entry, lanes),
                    IngestMsg::Switch(index) => {
                        self.flush(FlushCause::Forced, lanes);
                        return Some(index);
                    }
                    IngestMsg::Stop => {
                        self.flush(FlushCause::Forced, lanes);
                        return None;
                    }
                }
            }
            // Sample the backlog at batch boundaries only (first message
            // of a batch and idle wake-ups): per-message gauge stores are
            // measurable at saturation, and a reading at most one
            // micro-batch stale is exactly as actionable.
            if self.pending.is_empty() {
                self.metrics.queue_depth.set(rx.len() as i64);
            }
            // Parked when idle; woken by work or by the flush deadline.
            // A `max_delay` too large for `Instant` arithmetic (e.g.
            // `Duration::MAX` as a "never flush by deadline" sentinel)
            // simply disables the deadline.
            let deadline = self
                .oldest
                .and_then(|oldest| oldest.checked_add(self.config.max_delay));
            // Every sender gone reads as a Stop: drain and exit.
            let msg = match deadline {
                None => rx.recv().unwrap_or(IngestMsg::Stop),
                Some(deadline) => {
                    let now = clock::now();
                    if now >= deadline {
                        self.flush(FlushCause::Deadline, lanes);
                        continue;
                    }
                    match rx.recv_timeout(deadline - now) {
                        Ok(msg) => msg,
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                            self.flush(FlushCause::Deadline, lanes);
                            continue;
                        }
                        Err(crossbeam::channel::RecvTimeoutError::Disconnected) => IngestMsg::Stop,
                    }
                }
            };
            // Wake once, drain in runs: take what is already queued behind
            // `msg`, up to the pending batch's free room, under one lock.
            run.push_back(msg);
            let room = self.config.max_batch.saturating_sub(self.pending.len() + 1);
            rx.try_recv_batch(run, room);
        }
    }

    /// Sequences one report entry into the pending batch.
    fn accept(&mut self, entry: Entry, lanes: &mut Lanes<'_, '_>) {
        let (report, released) = match entry {
            Entry::Sequenced(s) => {
                // Keep the local counter ahead of upstream stamps so a
                // pipeline fed from both paths never reuses a stream.
                self.next_seq = self.next_seq.max(s.seq.saturating_add(1));
                self.push_entry(s, lanes);
                return;
            }
            Entry::Pending(report) => (report, false),
            Entry::Released(r) => {
                let report = PendingReport {
                    user: r.user,
                    epoch: r.epoch,
                    cell: r.cell,
                    resend: r.resend,
                };
                (report, true)
            }
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_entry(
            SequencedReport {
                seq,
                report,
                released,
            },
            lanes,
        );
    }

    /// Appends one sequenced entry to the pending batch, firing a size
    /// flush at the threshold.
    fn push_entry(&mut self, entry: SequencedReport, lanes: &mut Lanes<'_, '_>) {
        if self.pending.is_empty() {
            self.oldest = Some(clock::now());
        }
        self.pending.push(entry);
        if self.pending.len() >= self.config.max_batch {
            self.flush(FlushCause::Size, lanes);
        }
    }

    /// Releases the pending micro-batch through the release kernel
    /// (per-report RNG streams, on the policy's `lanes`) and lands it on
    /// the server.
    fn flush(&mut self, cause: FlushCause, lanes: &mut Lanes<'_, '_>) {
        self.oldest = None;
        if self.pending.is_empty() {
            return;
        }
        let t0 = clock::now();
        let n = self.pending.len();
        // One batched add instead of a per-report increment in
        // `push_entry`: the collector's hot loop stays free of per-report
        // atomics.
        self.metrics.submitted.add(n as u64);
        self.metrics.flush_reports.record(n as u64);
        // `Released` entries land verbatim without drawing; the rest go
        // through the release kernel, keyed by their arrival seq.
        self.stamped.clear();
        self.stamped.extend(
            self.pending
                .iter()
                .filter(|e| !e.released)
                .map(|e| (e.seq, e.report.cell)),
        );
        lanes.release(&self.stamped, &mut self.drawn);
        let mut drawn = self.drawn.iter();
        let mut landed = Vec::with_capacity(n);
        for entry in self.pending.drain(..) {
            let r = entry.report;
            let released = if entry.released {
                Some(r.cell)
            } else {
                *drawn.next().expect("one draw per pending report")
            };
            if let Some(cell) = released {
                landed.push(LocationReport {
                    user: r.user,
                    epoch: r.epoch,
                    cell,
                    resend: r.resend,
                });
            }
        }
        let n_landed = landed.len();
        if n_landed > 0 {
            self.server.receive_batch(landed);
        }
        // Counted after landing: a landed count never runs ahead of the
        // server's rows.
        self.metrics.landed.add(n_landed as u64);
        self.metrics.rejected.add((n - n_landed) as u64);
        self.metrics.batches.inc();
        self.flushes[cause as usize] += 1;
        self.metrics.flush_ns.record(clock::ns_since(t0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_core::release::chunk_rng;
    use panda_core::{GraphExponential, LocationPolicyGraph, ParallelReleaser};
    use panda_geo::GridMap;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(shards: usize) -> (Arc<Server>, Arc<PolicyIndex>) {
        let grid = GridMap::new(8, 8, 100.0);
        let server = Arc::new(Server::with_shards(grid.clone(), shards));
        let index = Arc::new(PolicyIndex::new(LocationPolicyGraph::partition(grid, 2, 2)));
        (server, index)
    }

    fn trace(n: usize, seed: u64) -> Vec<PendingReport> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| PendingReport {
                user: UserId(rng.gen_range(0..200)),
                epoch: (i / 200) as Timestamp,
                cell: CellId(rng.gen_range(0..64)),
                resend: false,
            })
            .collect()
    }

    fn run_trace(trace: &[PendingReport], config: IngestConfig) -> (Arc<Server>, IngestStats) {
        let (server, index) = setup(16);
        let pipeline = IngestPipeline::spawn(
            Arc::clone(&server),
            index,
            Arc::new(GraphExponential),
            config,
        );
        let handle = pipeline.handle();
        for &r in trace {
            handle.submit(&[r]).unwrap();
        }
        let stats = pipeline.shutdown();
        (server, stats)
    }

    /// The determinism contract: same seed + same arrival trace ⇒ identical
    /// server DB, regardless of lane count and flush timing.
    #[test]
    fn server_db_invariant_to_lanes_and_flush_policy() {
        let trace = trace(3_000, 5);
        let configs = [
            // One lane, big batches.
            IngestConfig {
                max_batch: 1024,
                release_threads: 1,
                seed: 9,
                ..Default::default()
            },
            // Many lanes, big batches.
            IngestConfig {
                max_batch: 1024,
                release_threads: 8,
                seed: 9,
                ..Default::default()
            },
            // Tiny batches: ~94 flushes instead of 3.
            IngestConfig {
                max_batch: 32,
                release_threads: 4,
                seed: 9,
                ..Default::default()
            },
            // Deadline-dominated: flushes fire on the clock mid-stream.
            IngestConfig {
                max_batch: usize::MAX,
                max_delay: Duration::from_micros(200),
                release_threads: 2,
                seed: 9,
                ..Default::default()
            },
        ];
        let (reference, ref_stats) = run_trace(&trace, configs[0].clone());
        assert_eq!(ref_stats.landed, trace.len());
        let horizon = 16;
        let ref_db = reference.reported_db(horizon);
        for config in &configs[1..] {
            let (server, stats) = run_trace(&trace, config.clone());
            assert_eq!(stats.landed, trace.len());
            assert_eq!(
                server.reported_db(horizon).trajectories(),
                ref_db.trajectories(),
                "lanes={} max_batch={} changed the DB",
                config.release_threads,
                config.max_batch
            );
        }
    }

    /// A different seed must change the released stream.
    #[test]
    fn seed_is_part_of_the_stream() {
        let trace = trace(2_000, 5);
        let (a, _) = run_trace(
            &trace,
            IngestConfig {
                seed: 1,
                ..Default::default()
            },
        );
        let (b, _) = run_trace(
            &trace,
            IngestConfig {
                seed: 2,
                ..Default::default()
            },
        );
        assert_ne!(
            a.reported_db(16).trajectories(),
            b.reported_db(16).trajectories()
        );
    }

    /// Backpressure: under a bursty multi-producer load the queue never
    /// exceeds its capacity, and every blocked submit still lands.
    #[test]
    fn backpressure_bound_is_honored() {
        let (server, index) = setup(16);
        let pipeline = IngestPipeline::spawn(
            Arc::clone(&server),
            index,
            Arc::new(GraphExponential),
            IngestConfig {
                queue_capacity: 64,
                max_batch: 128,
                ..Default::default()
            },
        );
        let producers: Vec<_> = (0..4u32)
            .map(|p| {
                let handle = pipeline.handle();
                std::thread::spawn(move || {
                    for i in 0..2_000u32 {
                        handle
                            .submit(&[PendingReport {
                                user: UserId(p * 10_000 + i % 100),
                                epoch: (i / 100) as Timestamp,
                                cell: CellId(i % 64),
                                resend: false,
                            }])
                            .unwrap();
                    }
                })
            })
            .collect();
        let sampler = {
            let handle = pipeline.handle();
            std::thread::spawn(move || {
                let mut max_len = 0;
                for _ in 0..2_000 {
                    max_len = max_len.max(handle.queue_len());
                    std::thread::yield_now();
                }
                max_len
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        let max_len = sampler.join().unwrap();
        assert!(
            max_len <= 64,
            "queue grew past its capacity: {max_len} > 64"
        );
        let stats = pipeline.shutdown();
        assert_eq!(stats.submitted, 8_000);
        assert_eq!(stats.landed, 8_000);
        assert_eq!(server.n_received(), 8_000);
    }

    /// Every entry point reports `Closed` after shutdown.
    #[test]
    fn try_submit_reports_full_and_closed() {
        let report = PendingReport {
            user: UserId(0),
            epoch: 0,
            cell: CellId(0),
            resend: false,
        };
        let (server, index) = setup(1);
        let pipeline = IngestPipeline::spawn(
            server,
            index,
            Arc::new(GraphExponential),
            IngestConfig::default(),
        );
        let handle = pipeline.handle();
        pipeline.shutdown();
        assert_eq!(handle.try_submit(&[report]), Err(Closed));
        assert_eq!(handle.submit(&[report]), Err(Closed));
        let index = setup(1).1;
        assert_eq!(handle.try_switch_policy(&index), Err(Closed));
        assert_eq!(handle.switch_policy(index), Err(Closed));
    }

    /// Saturating a tiny queue with a spinning producer must surface
    /// `Ok(0)` (the backpressure fast-fail the README advertises), and
    /// every accepted report still lands.
    #[test]
    fn try_submit_full_under_saturated_queue() {
        let (server, index) = setup(16);
        let pipeline = IngestPipeline::spawn(
            Arc::clone(&server),
            index,
            Arc::new(GraphExponential),
            IngestConfig {
                queue_capacity: 1,
                ..Default::default()
            },
        );
        let handle = pipeline.handle();
        let mut accepted = 0usize;
        let mut saw_full = false;
        for i in 0..1_000_000u32 {
            let r = PendingReport {
                user: UserId(i % 50),
                epoch: 0,
                cell: CellId(i % 64),
                resend: false,
            };
            match handle.try_submit(&[r]) {
                Ok(0) => {
                    saw_full = true;
                    break;
                }
                Ok(n) => accepted += n,
                Err(Closed) => unreachable!("pipeline alive"),
            }
        }
        assert!(
            saw_full,
            "a capacity-1 queue never filled under a spinning producer"
        );
        let stats = pipeline.shutdown();
        assert_eq!(stats.landed, accepted, "accepted reports must all land");
        assert_eq!(server.n_received(), accepted);
    }

    /// `Duration::MAX` is a usable "never flush by deadline" sentinel: the
    /// deadline arithmetic must disable itself rather than panic the
    /// collector.
    #[test]
    fn duration_max_delay_disables_the_deadline() {
        let trace = trace(100, 8);
        let (server, stats) = run_trace(
            &trace,
            IngestConfig {
                max_batch: 40,
                max_delay: Duration::MAX,
                ..Default::default()
            },
        );
        assert_eq!(stats.landed, 100);
        assert_eq!(stats.deadline_flushes, 0);
        assert_eq!(stats.size_flushes, 2);
        assert_eq!(server.n_received(), 100);
    }

    /// Shutdown drains: every report queued before shutdown lands, even
    /// with a flush policy that would otherwise still be waiting.
    #[test]
    fn drain_on_shutdown_loses_no_reports() {
        let trace = trace(777, 3);
        let (server, stats) = run_trace(
            &trace,
            IngestConfig {
                // Neither bound would fire on its own before shutdown.
                max_batch: usize::MAX,
                max_delay: Duration::from_secs(3600),
                ..Default::default()
            },
        );
        assert_eq!(stats.submitted, 777);
        assert_eq!(stats.landed, 777);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.batches, 1, "single forced drain flush");
        assert_eq!(stats.forced_flushes, 1);
        assert_eq!(server.n_received(), 777);
    }

    /// Size-flush attribution, timing-robust: with the deadline effectively
    /// off, a dense stream flushes by size alone (plus one forced drain for
    /// the remainder), no matter how the collector gets scheduled.
    #[test]
    fn size_flushes_are_attributed() {
        let (server, index) = setup(16);
        let pipeline = IngestPipeline::spawn(
            Arc::clone(&server),
            index,
            Arc::new(GraphExponential),
            IngestConfig {
                max_batch: 50,
                max_delay: Duration::from_secs(3600),
                ..Default::default()
            },
        );
        let handle = pipeline.handle();
        for i in 0..120u32 {
            handle
                .submit(&[PendingReport {
                    user: UserId(i),
                    epoch: 0,
                    cell: CellId(i % 64),
                    resend: false,
                }])
                .unwrap();
        }
        let stats = pipeline.shutdown();
        assert_eq!(stats.landed, 120);
        assert_eq!(stats.size_flushes, 2, "{stats:?}");
        assert_eq!(stats.deadline_flushes, 0, "{stats:?}");
        assert_eq!(stats.forced_flushes, 1, "20-report drain: {stats:?}");
        assert_eq!(server.n_received(), 120);
    }

    /// Deadline-flush attribution: with the size bound effectively off, a
    /// trickle lands via the deadline (observed by polling the server, so a
    /// slow scheduler only delays the test, never fails it).
    #[test]
    fn deadline_flushes_are_attributed() {
        let (server, index) = setup(16);
        let pipeline = IngestPipeline::spawn(
            Arc::clone(&server),
            index,
            Arc::new(GraphExponential),
            IngestConfig {
                max_batch: usize::MAX,
                max_delay: Duration::from_millis(5),
                ..Default::default()
            },
        );
        let handle = pipeline.handle();
        for i in 0..3u32 {
            handle
                .submit(&[PendingReport {
                    user: UserId(i),
                    epoch: 0,
                    cell: CellId(i),
                    resend: false,
                }])
                .unwrap();
        }
        // Only the deadline can flush these; wait for it to fire.
        let t0 = std::time::Instant::now();
        while server.n_received() < 3 {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "deadline flush never fired"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = pipeline.shutdown();
        assert_eq!(stats.landed, 3);
        assert!(stats.deadline_flushes >= 1, "{stats:?}");
        assert_eq!(stats.size_flushes, 0, "{stats:?}");
    }

    /// In-band policy switches apply to everything after the switch, and
    /// the landed outputs respect the policy in force at submit order.
    #[test]
    fn policy_switch_is_a_clean_boundary() {
        let grid = GridMap::new(8, 8, 100.0);
        let server = Arc::new(Server::new(grid.clone()));
        let coarse = Arc::new(PolicyIndex::new(LocationPolicyGraph::partition(
            grid.clone(),
            4,
            4,
        )));
        let isolated = Arc::new(PolicyIndex::new(LocationPolicyGraph::isolated(grid)));
        let pipeline = IngestPipeline::spawn(
            Arc::clone(&server),
            coarse,
            Arc::new(GraphExponential),
            IngestConfig::default(),
        );
        let handle = pipeline.handle();
        for i in 0..50u32 {
            handle
                .submit(&[PendingReport {
                    user: UserId(i),
                    epoch: 0,
                    cell: CellId(i % 64),
                    resend: false,
                }])
                .unwrap();
        }
        handle.switch_policy(Arc::clone(&isolated)).unwrap();
        for i in 0..50u32 {
            handle
                .submit(&[PendingReport {
                    user: UserId(i),
                    epoch: 1,
                    cell: CellId(i % 64),
                    resend: false,
                }])
                .unwrap();
        }
        let stats = pipeline.shutdown();
        assert_eq!(stats.landed, 100);
        assert_eq!(stats.policy_switches, 1);
        // Under the isolated policy every epoch-1 report is exact.
        for i in 0..50u32 {
            assert_eq!(
                server.reported_cell(UserId(i), 1),
                Some(CellId(i % 64)),
                "isolated policy must release exactly"
            );
        }
    }

    /// One release kernel, one keying scheme: a bulk
    /// `ParallelReleaser::release` of `n` cells equals what a pipeline with
    /// the same seed lands when fed the same `n` cells in order — for every
    /// lane count on both sides.
    #[test]
    fn bulk_release_matches_streaming_ingest() {
        use panda_core::{IdentityMechanism, UniformComponent};
        let (eps, seed) = (0.8, 23);
        let mut rng = StdRng::seed_from_u64(5);
        let cells: Vec<CellId> = (0..1_500).map(|_| CellId(rng.gen_range(0..64))).collect();
        // Distinct (user, epoch) keys, so nothing overwrites.
        let trace: Vec<PendingReport> = cells
            .iter()
            .enumerate()
            .map(|(i, &cell)| PendingReport {
                user: UserId(i as u32 % 100),
                epoch: (i / 100) as Timestamp,
                cell,
                resend: false,
            })
            .collect();
        let mechs: Vec<Arc<dyn Mechanism + Send + Sync>> = vec![
            Arc::new(GraphExponential),
            Arc::new(UniformComponent),
            Arc::new(IdentityMechanism),
        ];
        for mech in mechs {
            for lanes in [1, 2, 4, 16] {
                let (server, index) = setup(16);
                let bulk = ParallelReleaser::with_threads(lanes)
                    .release(&*mech, &index, eps, &cells, seed)
                    .unwrap();
                let pipeline = IngestPipeline::spawn(
                    Arc::clone(&server),
                    index,
                    Arc::clone(&mech),
                    IngestConfig {
                        max_batch: 256,
                        release_threads: lanes,
                        eps,
                        seed,
                        ..Default::default()
                    },
                );
                pipeline.handle().submit(&trace).unwrap();
                assert_eq!(pipeline.shutdown().landed, trace.len());
                for (r, &z) in trace.iter().zip(&bulk) {
                    assert_eq!(
                        server.reported_cell(r.user, r.epoch),
                        Some(z),
                        "{}: {lanes} lanes, bulk and streaming differ",
                        mech.name()
                    );
                }
            }
        }
    }

    /// The sampler-handle contract: the streaming path (handles resolved
    /// once per policy in a `SamplerTable`) must land a database bit-identical to
    /// releasing every report through the mechanism's definition (one
    /// `perturb` call per arrival-seq stream) — for every mechanism, lane
    /// count in 1..16, and flush timing.
    #[test]
    fn sampler_streaming_matches_per_report_reference() {
        use panda_core::{
            EuclideanExponential, GraphCalibratedLaplace, IdentityMechanism, PlanarIsotropic,
            UniformComponent,
        };
        let trace = trace(1_500, 21);
        let eps = 0.8;
        let seed = 17;
        let mechs: Vec<Arc<dyn Mechanism + Send + Sync>> = vec![
            Arc::new(GraphExponential),
            Arc::new(EuclideanExponential),
            Arc::new(GraphCalibratedLaplace),
            Arc::new(PlanarIsotropic::new()),
            Arc::new(IdentityMechanism),
            Arc::new(UniformComponent),
        ];
        for mech in mechs {
            // Per-report reference: each report released alone from its own
            // arrival-seq stream, landed through an identical server.
            let (ref_server, index) = setup(16);
            let mut landed = Vec::new();
            for (seq, r) in trace.iter().enumerate() {
                let mut rng = chunk_rng(seed, seq as u64);
                if let Ok(cell) = mech.perturb(index.policy(), eps, r.cell, &mut rng) {
                    landed.push(LocationReport {
                        user: r.user,
                        epoch: r.epoch,
                        cell,
                        resend: r.resend,
                    });
                }
            }
            ref_server.receive_batch(landed);
            let ref_db = ref_server.reported_db(16);

            for (lanes, max_batch, delay) in [
                (1, 512, Duration::from_millis(5)),
                (4, 64, Duration::from_millis(5)),
                (8, 512, Duration::from_millis(5)),
                (16, usize::MAX, Duration::from_micros(200)),
            ] {
                let (server, _) = setup(16);
                let pipeline = IngestPipeline::spawn(
                    Arc::clone(&server),
                    Arc::clone(&index),
                    Arc::clone(&mech),
                    IngestConfig {
                        max_batch,
                        max_delay: delay,
                        release_threads: lanes,
                        eps,
                        seed,
                        ..Default::default()
                    },
                );
                let handle = pipeline.handle();
                for &r in &trace {
                    handle.submit(&[r]).unwrap();
                }
                let stats = pipeline.shutdown();
                assert_eq!(stats.landed, trace.len());
                assert_eq!(
                    server.reported_db(16).trajectories(),
                    ref_db.trajectories(),
                    "{}: lanes={lanes} max_batch={max_batch} diverged from the \
                     per-report reference",
                    mech.name()
                );
            }
        }
    }

    /// The contention fix, asserted through the [`PolicyIndex`] diagnostics:
    /// a flush touches the shared distribution cache at most once per
    /// distinct cell per lane — not once per report, as the per-report path
    /// did.
    #[test]
    fn flush_touches_cache_once_per_distinct_cell_per_lane() {
        let (server, index) = setup(16);
        let distinct = 4usize;
        let lanes = 4usize;
        let trace: Vec<PendingReport> = (0..2_000u32)
            .map(|i| PendingReport {
                user: UserId(i % 300),
                epoch: (i / 300) as Timestamp,
                cell: CellId(i % distinct as u32), // cell-concentrated load
                resend: false,
            })
            .collect();
        let touches0 = index.distribution_cache_touches();
        let pipeline = IngestPipeline::spawn(
            Arc::clone(&server),
            Arc::clone(&index),
            Arc::new(GraphExponential),
            IngestConfig {
                max_batch: 256,
                max_delay: Duration::from_secs(3600),
                release_threads: lanes,
                ..Default::default()
            },
        );
        let handle = pipeline.handle();
        for &r in &trace {
            handle.submit(&[r]).unwrap();
        }
        let stats = pipeline.shutdown();
        assert_eq!(stats.landed, trace.len());
        let touches = index.distribution_cache_touches() - touches0;
        let bound = (stats.batches * lanes * distinct) as u64;
        assert!(
            touches <= bound,
            "cache touched {touches} times; bound is batches({}) × lanes({lanes}) × \
             distinct({distinct}) = {bound}",
            stats.batches
        );
        assert!(
            touches < trace.len() as u64,
            "sampler handles must beat one touch per report ({touches} vs {})",
            trace.len()
        );
    }

    /// The collector keeps one sampler table per policy: across every
    /// flush and every lane, the shared cache is touched exactly once per
    /// distinct cell, and a switched-in index starts its own table.
    #[test]
    fn flush_touches_cache_once_per_distinct_cell_per_policy() {
        let (server, index) = setup(16);
        let next = Arc::new(PolicyIndex::new(LocationPolicyGraph::partition(
            GridMap::new(8, 8, 100.0),
            4,
            4,
        )));
        let distinct = 24u32;
        let trace: Vec<PendingReport> = (0..6_000u32)
            .map(|i| PendingReport {
                user: UserId(i % 300),
                epoch: (i / 300) as Timestamp,
                cell: CellId(i * 7 % distinct),
                resend: false,
            })
            .collect();
        let pipeline = IngestPipeline::spawn(
            Arc::clone(&server),
            Arc::clone(&index),
            Arc::new(GraphExponential),
            IngestConfig {
                max_batch: 64,
                max_delay: Duration::from_secs(3600),
                release_threads: 4,
                ..Default::default()
            },
        );
        let handle = pipeline.handle();
        let (before, after) = trace.split_at(4_000);
        handle.submit(before).unwrap();
        handle.switch_policy(Arc::clone(&next)).unwrap();
        handle.submit(after).unwrap();
        let stats = pipeline.shutdown();
        assert_eq!(stats.landed, trace.len());
        assert!(stats.batches > 50, "many flushes: {}", stats.batches);
        for (policy, index) in [("first", &index), ("second", &next)] {
            assert_eq!(
                index.distribution_cache_touches(),
                u64::from(distinct),
                "{policy} policy: one touch per distinct cell over all flushes and lanes"
            );
        }
    }

    /// Submitting a slice must be observationally equivalent to submitting
    /// one entry at a time: same arrival sequence numbers, hence a
    /// byte-identical landed DB — batching is purely a locking
    /// optimisation.
    #[test]
    fn submit_batch_equivalent_to_repeated_submit() {
        let trace = trace(2_500, 11);
        let config = IngestConfig {
            max_batch: 128,
            // Smaller than the 700-report chunks below, so the blocking
            // batch send really parks mid-batch and resumes — the
            // determinism claim covers the park/resume path.
            queue_capacity: 256,
            seed: 4,
            ..Default::default()
        };
        let (by_one, one_stats) = run_trace(&trace, config.clone());
        let (server, index) = setup(16);
        let pipeline = IngestPipeline::spawn(
            Arc::clone(&server),
            index,
            Arc::new(GraphExponential),
            config,
        );
        let handle = pipeline.handle();
        // 700-report chunks against a 256-slot queue: every full chunk
        // overfills the queue, so the blocking path parks mid-batch and
        // resumes as the collector drains.
        for chunk in trace.chunks(700) {
            handle.submit(chunk).unwrap();
        }
        let stats = pipeline.shutdown();
        assert_eq!(stats.submitted, one_stats.submitted);
        assert_eq!(stats.landed, one_stats.landed);
        assert_eq!(
            server.reported_db(16).trajectories(),
            by_one.reported_db(16).trajectories(),
            "batched submission changed the landed DB"
        );
    }

    /// `try_submit` enqueues a prefix under backpressure and the retried
    /// remainder preserves order; against a closed pipeline a whole slice
    /// is refused with `Closed`.
    #[test]
    fn try_submit_prefix_and_closed_semantics() {
        let trace = trace(300, 2);
        let (server, index) = setup(16);
        let pipeline = IngestPipeline::spawn(
            Arc::clone(&server),
            index,
            Arc::new(GraphExponential),
            IngestConfig {
                queue_capacity: 8,
                max_batch: 64,
                ..Default::default()
            },
        );
        let handle = pipeline.handle();
        let mut sent = 0usize;
        while sent < trace.len() {
            sent += handle.try_submit(&trace[sent..]).unwrap();
        }
        let stats = pipeline.shutdown();
        assert_eq!(stats.submitted, trace.len());
        assert_eq!(stats.landed, trace.len());
        assert_eq!(server.n_received(), trace.len());

        let (server, index) = setup(1);
        let pipeline = IngestPipeline::spawn(
            server,
            index,
            Arc::new(GraphExponential),
            IngestConfig::default(),
        );
        let handle = pipeline.handle();
        pipeline.shutdown();
        assert_eq!(handle.try_submit(&trace), Err(Closed));
        assert_eq!(handle.submit(&trace), Err(Closed));
    }

    /// A non-blocking policy switch, retried while the queue is full, is
    /// the same in-band boundary as the blocking one.
    #[test]
    fn handle_switch_policy_is_in_band() {
        let grid = GridMap::new(8, 8, 100.0);
        let server = Arc::new(Server::new(grid.clone()));
        let coarse = Arc::new(PolicyIndex::new(LocationPolicyGraph::partition(
            grid.clone(),
            4,
            4,
        )));
        let isolated = Arc::new(PolicyIndex::new(LocationPolicyGraph::isolated(grid)));
        let pipeline = IngestPipeline::spawn(
            Arc::clone(&server),
            coarse,
            Arc::new(GraphExponential),
            IngestConfig::default(),
        );
        let handle = pipeline.handle();
        let epoch0: Vec<PendingReport> = (0..40u32)
            .map(|i| PendingReport {
                user: UserId(i),
                epoch: 0,
                cell: CellId(i % 64),
                resend: false,
            })
            .collect();
        let epoch1: Vec<PendingReport> = epoch0
            .iter()
            .map(|r| PendingReport { epoch: 1, ..*r })
            .collect();
        handle.submit(&epoch0).unwrap();
        while !handle.try_switch_policy(&isolated).unwrap() {
            std::thread::yield_now();
        }
        handle.submit(&epoch1).unwrap();
        let stats = pipeline.shutdown();
        assert_eq!(stats.policy_switches, 1);
        assert_eq!(stats.landed, 80);
        for i in 0..40u32 {
            assert_eq!(
                server.reported_cell(UserId(i), 1),
                Some(CellId(i % 64)),
                "isolated policy must release exactly after the switch"
            );
        }
    }

    /// The ingest error composes with `?` in `std::error::Error` contexts
    /// and renders the failure cause.
    #[test]
    fn submit_errors_are_std_errors() {
        let error: Box<dyn std::error::Error> = Box::new(Closed);
        assert!(error.to_string().contains("shut down"));
    }

    /// Spawns a pipeline over a fresh 16-stripe server, lets `feed`
    /// submit through its handle, and returns the drained server.
    fn land(config: IngestConfig, feed: impl FnOnce(&IngestHandle)) -> Arc<Server> {
        let (server, index) = setup(16);
        let pipeline = IngestPipeline::spawn(
            Arc::clone(&server),
            index,
            Arc::new(GraphExponential),
            config,
        );
        feed(&pipeline.handle());
        pipeline.shutdown();
        server
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// A random interleaving of every entry kind lands the same DB
        /// whether it goes through `try_submit` in random chunks against
        /// a 4-slot queue, through blocking `submit` one entry at a time,
        /// or through a sequential model of the collector's seq rule
        /// (local counter; upstream stamps push it to `seq + 1`).
        #[test]
        fn mixed_entry_streams_land_alike(
            stream in proptest::collection::vec(
                (0u8..4, 0u32..20, 0u32..6, 0u32..64, proptest::any::<bool>(), 0u64..400),
                0..120,
            ),
            chunks in proptest::collection::vec(1usize..9, 1..16),
        ) {
            let entries: Vec<Entry> = stream
                .iter()
                .map(|&(kind, user, epoch, cell, resend, seq)| {
                    let report = PendingReport {
                        user: UserId(user),
                        epoch,
                        cell: CellId(cell),
                        resend,
                    };
                    match kind {
                        0 => Entry::Pending(report),
                        1 | 2 => Entry::Sequenced(SequencedReport {
                            seq,
                            report,
                            released: kind == 2,
                        }),
                        _ => Entry::Released(LocationReport {
                            user: report.user,
                            epoch,
                            cell: report.cell,
                            resend,
                        }),
                    }
                })
                .collect();
            let config = IngestConfig {
                queue_capacity: 4,
                max_batch: 16,
                release_threads: 2,
                seed: 3,
                ..Default::default()
            };

            let by_try = land(config.clone(), |handle| {
                let (mut sent, mut attempt) = (0, 0);
                while sent < entries.len() {
                    let end = (sent + chunks[attempt % chunks.len()]).min(entries.len());
                    attempt += 1;
                    match handle.try_submit(&entries[sent..end]).unwrap() {
                        0 => std::thread::yield_now(),
                        n => sent += n,
                    }
                }
            });
            let by_one = land(config.clone(), |handle| {
                for e in &entries {
                    handle.submit(std::slice::from_ref(e)).unwrap();
                }
            });

            let (model, index) = setup(16);
            let mut next_seq = 0u64;
            for &entry in &entries {
                let (seq, report, released) = match entry {
                    Entry::Sequenced(s) => {
                        next_seq = next_seq.max(s.seq + 1);
                        (s.seq, s.report, s.released)
                    }
                    Entry::Pending(r) => {
                        next_seq += 1;
                        (next_seq - 1, r, false)
                    }
                    Entry::Released(r) => {
                        let report = PendingReport {
                            user: r.user,
                            epoch: r.epoch,
                            cell: r.cell,
                            resend: r.resend,
                        };
                        next_seq += 1;
                        (next_seq - 1, report, true)
                    }
                };
                let cell = if released {
                    report.cell
                } else {
                    GraphExponential
                        .perturb(
                            index.policy(),
                            config.eps,
                            report.cell,
                            &mut chunk_rng(config.seed, seq),
                        )
                        .unwrap()
                };
                model.receive(LocationReport {
                    user: report.user,
                    epoch: report.epoch,
                    cell,
                    resend: report.resend,
                });
            }

            let want = model.reported_db(6);
            for server in [&by_try, &by_one] {
                assert_eq!(server.reported_db(6).trajectories(), want.trajectories());
                assert_eq!(server.n_resends(), model.n_resends());
                assert_eq!(server.n_received(), entries.len());
            }
        }
    }

    /// One queue slot holds any message; nesting [`Entry`] must not grow
    /// the slots of the large queues the benchmarks run with.
    #[test]
    fn queue_slot_is_32_bytes() {
        assert_eq!(std::mem::size_of::<IngestMsg>(), 32);
    }

    /// Identity release whose sampler panics on one cell.
    struct PanicOn(CellId);

    static IDENTITY: panda_core::IdentityMechanism = panda_core::IdentityMechanism;

    impl Mechanism for PanicOn {
        fn name(&self) -> &'static str {
            "panic-on"
        }

        fn perturb(
            &self,
            policy: &LocationPolicyGraph,
            eps: f64,
            true_loc: CellId,
            rng: &mut dyn rand::RngCore,
        ) -> Result<CellId, panda_core::PglpError> {
            IDENTITY.perturb(policy, eps, true_loc, rng)
        }

        fn sampler<'a>(
            &'a self,
            index: &'a PolicyIndex,
            eps: f64,
            cell: CellId,
        ) -> Result<panda_core::CellSampler<'a>, panda_core::PglpError> {
            assert_ne!(cell, self.0, "sampler panic on {cell}");
            IDENTITY.sampler(index, eps, cell)
        }
    }

    /// A kernel panic on a helper's lane ends the collector without a
    /// hang: `shutdown` re-raises it and later submits see `Closed`.
    #[test]
    fn helper_lane_panic_closes_the_pipeline() {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let (server, index) = setup(4);
            let bad = CellId(5);
            let pipeline = IngestPipeline::spawn(
                server,
                index,
                Arc::new(PanicOn(bad)),
                IngestConfig {
                    max_batch: 4,
                    max_delay: Duration::from_secs(3600),
                    release_threads: 2,
                    ..Default::default()
                },
            );
            let handle = pipeline.handle();
            // One flush of four in two lanes of two: the helper takes the
            // first lane, which holds the bad cell.
            let reports: Vec<PendingReport> = [bad, CellId(1), CellId(2), CellId(3)]
                .into_iter()
                .zip(0..)
                .map(|(cell, user)| PendingReport {
                    user: UserId(user),
                    epoch: 0,
                    cell,
                    resend: false,
                })
                .collect();
            handle.submit(&reports).unwrap();
            let shutdown = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pipeline.shutdown();
            }));
            let message = shutdown
                .err()
                .and_then(|payload| payload.downcast_ref::<String>().cloned());
            tx.send((
                message,
                handle.submit(&reports),
                handle.try_submit(&reports),
            ))
            .unwrap();
        });
        let outcome = rx.recv_timeout(Duration::from_secs(60));
        assert!(
            !matches!(outcome, Err(std::sync::mpsc::RecvTimeoutError::Timeout)),
            "a lane panic hung the pipeline"
        );
        worker.join().expect("the panic escaped catch_unwind");
        let (message, submit, try_submit) = outcome.unwrap();
        let message = message.expect("shutdown must panic");
        assert!(
            message.contains("ingest collector panicked"),
            "unexpected panic: {message}"
        );
        assert_eq!(submit, Err(Closed));
        assert_eq!(try_submit, Err(Closed));
    }

    /// Reports that cannot be released (foreign cell) are rejected and
    /// counted, not landed — and don't poison the rest of the batch.
    #[test]
    fn rejected_reports_are_counted_not_landed() {
        let (server, index) = setup(4);
        let pipeline = IngestPipeline::spawn(
            Arc::clone(&server),
            Arc::clone(&index),
            Arc::new(GraphExponential),
            IngestConfig::default(),
        );
        let handle = pipeline.handle();
        let registry = pipeline.metrics();
        for i in 0..10u32 {
            if i == 5 {
                handle.switch_policy(Arc::clone(&index)).unwrap();
            }
            handle
                .submit(&[PendingReport {
                    user: UserId(i),
                    epoch: 0,
                    // Every third report is out of the 8×8 domain.
                    cell: if i % 3 == 0 {
                        CellId(u32::MAX)
                    } else {
                        CellId(i)
                    },
                    resend: false,
                }])
                .unwrap();
        }
        let stats = pipeline.shutdown();
        assert_eq!(stats.rejected, 4);
        assert_eq!(stats.landed, 6);
        assert_eq!(stats.policy_switches, 1);
        assert_eq!(server.n_received(), 6);
        // The shutdown totals and a scrape read one copy of each count,
        // with telemetry compiled out too.
        let snapshot = registry.snapshot();
        let scraped = |name: &str| {
            let value = snapshot.counter(&format!("panda_ingest_{name}_total"));
            value.expect("registered") as usize
        };
        assert_eq!(
            (
                stats.submitted,
                stats.landed,
                stats.rejected,
                stats.batches,
                stats.policy_switches
            ),
            (
                scraped("submitted_reports"),
                scraped("landed_reports"),
                scraped("rejected_reports"),
                scraped("batches"),
                scraped("policy_switches")
            )
        );
    }
}
