//! The measured run: an open loop at the workload's fixed rate with
//! saturating closed-loop rounds spread evenly through it, and the
//! operator's tracing rounds. All timing happens here, outside the program,
//! around calls into its public API.

use crate::stats::{self, FrameTimes, PollSample, Schedule};
use crate::topology::System;
use crate::workload::{Inputs, Workload, FRAME};
use panda_core::{CacheStats, LocationPolicyGraph, PolicyIndex};
use panda_mobility::TrajectoryDb;
use panda_surveillance::ingest::PendingReport;
use panda_surveillance::monitoring::occupancy_by_area;
use panda_surveillance::node::merge_reported_dbs;
use panda_surveillance::{shard_of, ContactTracer, Server};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Length of one timed closed-loop round.
const ROUND_S: f64 = 0.3;
/// Share of the run's seconds given to closed-loop rounds (sending and
/// draining); the open loop gets the rest.
const CLOSED_SHARE: f64 = 0.3;
/// How often the poller reads the landed counters and queue depths.
const POLL: Duration = Duration::from_micros(100);
/// Dashboard cadence while the open loop runs.
const QUERY_EVERY: Duration = Duration::from_millis(200);
/// A drain that takes longer than this means reports were lost.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);
/// What [`host_probe`] takes on the reference host, in ms: the host speed
/// the gated times are scaled to.
pub const PROBE_REF_MS: f64 = 0.25;
/// Slots of the probe's buffer (256 KiB); a power of two.
const PROBE_SLOTS: usize = 1 << 15;

/// The stream the generator produced: positions `0..sent` carry
/// `trace[p % trace.len()]`, and a switch at position `p` applies to every
/// report from `p` on.
#[derive(Debug, Clone, Default)]
pub struct Stream {
    pub sent: u64,
    /// `(position, round)` of every policy switch, in stream order.
    pub switches: Vec<(u64, usize)>,
}

/// One dashboard round, in ms.
#[derive(Debug, Clone, Copy, Default)]
pub struct Query {
    pub total_ms: f64,
    pub reported_db_ms: f64,
    pub occupancy_ms: f64,
    pub contacts_ms: f64,
}

/// Cache counters of one initial index, read once that index served its
/// last report.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexCounts {
    pub dist: CacheStats,
    pub rows: CacheStats,
    pub touches: u64,
    pub cache_bytes: usize,
}

/// Everything the measured run observed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub stream: Stream,
    /// Reports/s of each timed closed-loop round.
    pub round_rates: Vec<f64>,
    pub open_frames: Vec<FrameTimes>,
    pub ack_ms: Vec<f64>,
    pub land_ms: Vec<f64>,
    /// Queue depth (reports, summed over nodes) at every poll.
    pub depths: Vec<f64>,
    pub switch_ms: Vec<f64>,
    pub queries: Vec<Query>,
    /// [`host_probe`] time (ms) just before each dashboard round.
    pub probe_ms: Vec<f64>,
    /// Counters of each node's initial index.
    pub index: Vec<IndexCounts>,
    /// Where the initial indexes stopped serving (first in-stream switch,
    /// or the end of the stream).
    pub index_segment_end: u64,
    pub backpressure_retries: u64,
}

/// Holds each pipeline's initial index until the pipeline lets go of it
/// (a policy switch replaced it), then reads its counters and drops it.
struct IndexWatch {
    held: Vec<Option<Arc<PolicyIndex>>>,
    counts: Vec<IndexCounts>,
}

impl IndexWatch {
    fn poll(&mut self, force: bool) {
        for (slot, counts) in self.held.iter_mut().zip(self.counts.iter_mut()) {
            let released = slot
                .as_ref()
                .is_some_and(|idx| force || Arc::strong_count(idx) == 1);
            if released {
                let idx = slot.take().expect("held");
                *counts = IndexCounts {
                    dist: idx.distribution_cache_stats(),
                    rows: idx.row_cache_stats(),
                    touches: idx.distribution_cache_touches(),
                    cache_bytes: idx.cache_memory_bytes(),
                };
            }
        }
    }
}

/// The data-plane generator: one connection, frames of [`FRAME`] reports.
struct Generator<'a> {
    trace: &'a [PendingReport],
    pos: u64,
}

impl Generator<'_> {
    fn frame(&self) -> &[PendingReport] {
        let start = (self.pos as usize) % self.trace.len();
        &self.trace[start..start + FRAME]
    }
}

/// Runs one dashboard round over the landed DB.
pub fn dashboard(servers: &[Arc<Server>], inputs: &Inputs, round: usize, block: u32) -> Query {
    let round = &inputs.rounds[round % inputs.rounds.len()];
    let t0 = Instant::now();
    let db: TrajectoryDb = if servers.len() == 1 {
        servers[0].reported_db(inputs.horizon)
    } else {
        merge_reported_dbs(inputs.grid.clone(), servers, inputs.horizon)
    };
    let t1 = Instant::now();
    std::hint::black_box(occupancy_by_area(&db, block));
    let t2 = Instant::now();
    std::hint::black_box(ContactTracer::default().find_contacts(
        &db,
        round.patient,
        &round.history,
        0,
        inputs.horizon,
    ));
    let t3 = Instant::now();
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    Query {
        total_ms: ms(t0, t3),
        reported_db_ms: ms(t0, t1),
        occupancy_ms: ms(t1, t2),
        contacts_ms: ms(t2, t3),
    }
}

/// Blocks until the owning servers have landed `target` reports in total.
fn drain(servers: &[Arc<Server>], target: u64) {
    let t0 = Instant::now();
    loop {
        let landed: u64 = servers.iter().map(|s| s.n_received() as u64).sum();
        if landed >= target {
            return;
        }
        assert!(
            t0.elapsed() < DRAIN_LIMIT,
            "drain stalled at {landed} of {target} reports"
        );
        std::thread::sleep(POLL);
    }
}

/// Times a fixed single-thread job that shares no code with the program —
/// xorshift steps, each adding into a random slot of `buf` — in ms. On a
/// shared host the same work takes longer when neighbours load the cores
/// and caches, so the probe tracks the host's speed over the run.
fn host_probe(buf: &mut [u64]) -> f64 {
    debug_assert!(buf.len().is_power_of_two());
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..100_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & (buf.len() - 1);
        buf[i] = buf[i].wrapping_add(x);
    }
    std::hint::black_box(&buf);
    t0.elapsed().as_secs_f64() * 1e3
}

/// One closed-loop round: frames sent as fast as acks return for
/// [`ROUND_S`], then drained until every report is landed. Returns the
/// round's reports/s, first send to fully landed.
fn closed_round(sys: &mut System, gen: &mut Generator) -> f64 {
    let (start, t0) = (gen.pos, Instant::now());
    while t0.elapsed().as_secs_f64() < ROUND_S {
        sys.client
            .submit_batch(gen.frame())
            .expect("closed-loop frame");
        gen.pos += FRAME as u64;
    }
    drain(&sys.servers, gen.pos);
    (gen.pos - start) as f64 / t0.elapsed().as_secs_f64()
}

/// Runs the measured phase against `sys` and returns what was observed.
///
/// The host's speed drifts over tens of seconds, so the closed-loop rounds
/// are spread evenly over the open loop and both samples span the whole
/// run. The open-loop schedule stands still while a round runs (frames in
/// flight land first), and neither the dashboard nor the queue-depth poll
/// runs during a round.
pub fn run(
    workload: &Workload,
    inputs: &Inputs,
    round_policies: &[LocationPolicyGraph],
    sys: &mut System,
    seconds: f64,
) -> Outcome {
    let n_servers = sys.servers.len();
    // Per trace frame: how many of its reports each owning server gets.
    let frame_split: Vec<Vec<u64>> = inputs
        .trace
        .chunks(FRAME)
        .map(|frame| {
            let mut counts = vec![0u64; n_servers];
            for r in frame {
                let s = if workload.is_cluster() {
                    shard_of(r.user, n_servers)
                } else {
                    0
                };
                counts[s] += 1;
            }
            counts
        })
        .collect();
    let split_of = |pos: u64| &frame_split[(pos as usize % inputs.trace.len()) / FRAME];
    let watch = Arc::new(Mutex::new(IndexWatch {
        held: std::mem::take(&mut sys.indexes)
            .into_iter()
            .map(Some)
            .collect(),
        counts: vec![IndexCounts::default(); n_servers],
    }));
    let mut gen = Generator {
        trace: &inputs.trace,
        pos: 0,
    };
    let mut out = Outcome::default();

    // Closed-loop warm-up, drained.
    let warm = Instant::now();
    while warm.elapsed().as_secs_f64() < workload.warmup_s {
        sys.client.submit_batch(gen.frame()).expect("warm-up frame");
        gen.pos += FRAME as u64;
    }
    drain(&sys.servers, gen.pos);

    let schedule = Schedule::new(workload.open_rate, FRAME);
    let n_frames = schedule.frames_within((1.0 - CLOSED_SHARE) * seconds);
    let base = sys.landed_counts();
    let stop = Arc::new(AtomicBool::new(false));
    // Set while a closed-loop round runs; `query_busy` while a dashboard
    // round runs. Both SeqCst, so a round never starts under a query.
    let closed = Arc::new(AtomicBool::new(false));
    let query_busy = Arc::new(AtomicBool::new(false));
    let current_round = Arc::new(AtomicUsize::new(0));
    let t_open = Instant::now();
    let poller = {
        let (servers, queues) = (sys.servers.clone(), sys.queues.clone());
        let (stop, closed, watch) = (Arc::clone(&stop), Arc::clone(&closed), Arc::clone(&watch));
        std::thread::spawn(move || {
            let mut samples: Vec<PollSample> = Vec::new();
            let mut depths = Vec::new();
            // One last sample after `stop`, which follows the drain, so the
            // final frames are matched too.
            loop {
                let stopping = stop.load(Ordering::Relaxed);
                let counts: Vec<u64> = servers.iter().map(|s| s.n_received() as u64).collect();
                let t = t_open.elapsed().as_secs_f64();
                if samples.last().is_none_or(|last| last.counts != counts) {
                    samples.push(PollSample { t, counts });
                }
                if !closed.load(Ordering::Relaxed) {
                    depths.push(queues.iter().map(|q| q.queue_len()).sum::<usize>() as f64);
                }
                watch.lock().expect("index watch").poll(false);
                if stopping {
                    break;
                }
                std::thread::sleep(POLL);
            }
            (samples, depths)
        })
    };
    let rounds = workload.rounds;
    let operator_thread = {
        let servers = sys.servers.clone();
        let (stop, closed, busy) = (
            Arc::clone(&stop),
            Arc::clone(&closed),
            Arc::clone(&query_busy),
        );
        let current_round = Arc::clone(&current_round);
        let inputs = inputs.clone();
        let block = workload.dashboard_block();
        std::thread::spawn(move || {
            let mut queries = Vec::new();
            let mut probes = Vec::new();
            let mut probe_buf = vec![0u64; PROBE_SLOTS];
            let mut next = Instant::now() + QUERY_EVERY;
            while !stop.load(Ordering::Relaxed) {
                let now = Instant::now();
                if closed.load(Ordering::SeqCst) || now < next {
                    let wait = next.saturating_duration_since(now);
                    std::thread::sleep(wait.clamp(POLL, Duration::from_millis(10)));
                    continue;
                }
                busy.store(true, Ordering::SeqCst);
                if !closed.load(Ordering::SeqCst) {
                    next = (next + QUERY_EVERY).max(now);
                    let round = current_round.load(Ordering::Relaxed);
                    probes.push(host_probe(&mut probe_buf));
                    queries.push(dashboard(&servers, &inputs, round, block));
                }
                busy.store(false, Ordering::SeqCst);
            }
            (queries, probes)
        })
    };
    // Tracing rounds evenly spaced up to half a trace cycle before the end,
    // so the last switch lies in the final `trace.len()` positions — the
    // ones the correctness gate compares. Each switch lands between two data
    // frames, so its stream position is exact. Closed-loop rounds are spread
    // over the same span, so none follows the last switch: a round runs
    // whenever the time they took so far falls behind their share of the
    // span covered (a round's drain time varies by workload).
    let trace_frames = inputs.trace.len() / FRAME;
    let last = n_frames
        .saturating_sub(trace_frames / 2 + 1)
        .max(n_frames / 2);
    let switch_at: Vec<usize> = (1..=rounds).map(|k| k * last / rounds).collect();
    let closed_budget = CLOSED_SHARE * seconds;
    let mut closed_used = 0.0;
    // Seconds the open-loop schedule has stood still for closed rounds.
    let mut paused = 0.0;
    let mut cumulative = Vec::with_capacity(n_frames);
    let mut cum = base.clone();
    for i in 0..n_frames {
        if i < last && closed_used <= closed_budget * i as f64 / last as f64 {
            let t0 = Instant::now();
            drain(&sys.servers, gen.pos);
            closed.store(true, Ordering::SeqCst);
            while query_busy.load(Ordering::SeqCst) {
                std::thread::sleep(POLL);
            }
            let start = gen.pos;
            out.round_rates.push(closed_round(sys, &mut gen));
            for pos in (start..gen.pos).step_by(FRAME) {
                for (c, n) in cum.iter_mut().zip(split_of(pos)) {
                    *c += n;
                }
            }
            closed.store(false, Ordering::SeqCst);
            closed_used += t0.elapsed().as_secs_f64();
            paused = f64::max(paused, t_open.elapsed().as_secs_f64() - schedule.due(i));
        }
        let due = schedule.due(i) + paused;
        let now = t_open.elapsed().as_secs_f64();
        if now < due {
            std::thread::sleep(Duration::from_secs_f64(due - now));
        }
        let sent = t_open.elapsed().as_secs_f64();
        let split = split_of(gen.pos);
        sys.client
            .submit_batch(gen.frame())
            .expect("open-loop frame");
        let acked = t_open.elapsed().as_secs_f64();
        gen.pos += FRAME as u64;
        for (c, n) in cum.iter_mut().zip(split) {
            *c += n;
        }
        cumulative.push(cum.clone());
        out.open_frames.push(FrameTimes { due, sent, acked });
        if let Some(k) = switch_at.iter().position(|&f| f == i) {
            let t0 = Instant::now();
            sys.operator
                .switch_policy(&round_policies[k % round_policies.len()])
                .expect("in-stream policy switch");
            out.switch_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            out.stream
                .switches
                .push((gen.pos, k % round_policies.len()));
            current_round.store(k, Ordering::Relaxed);
        }
    }
    drain(&sys.servers, gen.pos);
    stop.store(true, Ordering::Relaxed);
    let (samples, depths) = poller.join().expect("poller");
    (out.queries, out.probe_ms) = operator_thread.join().expect("operator thread");
    out.depths = depths;
    let landed = stats::land_times(&samples, &base, &cumulative);
    let due: Vec<f64> = out.open_frames.iter().map(|f| f.due).collect();
    out.land_ms = stats::land_latencies_ms(&due, &landed);
    out.ack_ms = stats::ack_latencies_ms(&out.open_frames);
    out.index_segment_end = out.stream.switches.first().map_or(gen.pos, |s| s.0);
    {
        let mut w = watch.lock().expect("index watch");
        w.poll(true);
        out.index = w.counts.clone();
    }

    out.stream.sent = gen.pos;
    out.backpressure_retries = sys.client.backpressure_retries();
    out
}
