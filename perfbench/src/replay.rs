//! The traced run's single-thread replay: the workload's own frames pushed
//! through each layer's public function in pipeline order — client encode,
//! wire decode, router stamp + split, shard-side decode, release kernel,
//! `Server::receive_batch` — with a span recorded around every call. Also
//! the probes for layers the replay cannot reach: cold index builds and the
//! router → shard link round trip.

use crate::stats::{self, median};
use crate::topology::{ingest_config, STRIPES};
use crate::workload::{Inputs, EPS, FRAME};
use panda_core::release::chunk_rng;
use panda_core::{GraphExponential, LocationPolicyGraph, Mechanism, PolicyIndex, SamplerMemo};
use panda_geo::CellId;
use panda_net::wire::{decode_frame, encode_submit_batch, encode_submit_sequenced};
use panda_net::{Frame, GatewayClient, GatewayConfig, IngestGateway};
use panda_surveillance::ingest::{PendingReport, SequencedReport};
use panda_surveillance::node::ShardNode;
use panda_surveillance::protocol::LocationReport;
use panda_surveillance::{shard_of, Server};
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Shards the router split is replayed for.
const SPLIT_SHARDS: usize = 2;
/// Plain/traced pass pairs; the overhead compares their medians.
const PASSES: usize = 3;

/// The layers a report crosses, in pipeline order.
pub const LAYERS: [&str; 6] = [
    "client.encode",
    "wire.decode",
    "router.split",
    "wire.decode_shard",
    "release",
    "server.land",
];

/// One recorded call: which frame, which layer, when (ns since the pass
/// started). Every span's parent is its frame.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub frame: u32,
    pub layer: u8,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What the replay measured.
#[derive(Debug, Clone)]
pub struct Replay {
    /// ns/report of each of [`LAYERS`].
    pub layer_ns: [f64; 6],
    pub bytes_per_report: f64,
    /// `traced / plain − 1` over whole passes.
    pub tracing_overhead: f64,
}

/// Replays `frames` frames of the trace, starting after `warm` warm-up
/// frames, and writes the last traced pass's spans to `span_path`.
pub fn replay(
    inputs: &Inputs,
    policy: &LocationPolicyGraph,
    warm: usize,
    frames: usize,
    span_path: &std::path::Path,
) -> Replay {
    let n_frames = inputs.trace.len() / FRAME;
    let index = PolicyIndex::new(policy.clone());
    let frame_at = |f: usize| {
        let start = (f % n_frames) * FRAME;
        &inputs.trace[start..start + FRAME]
    };
    // Warm the index the way the live pipeline's is warm.
    for f in 0..warm {
        release(&index, inputs.release_seed, (f * FRAME) as u64, frame_at(f));
    }
    let timed: Vec<usize> = (warm..warm + frames).collect();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut spans = Vec::with_capacity(frames * LAYERS.len());
    let mut bytes = 0usize;
    for _ in 0..PASSES {
        for record in [false, true] {
            spans.clear();
            let server = Server::with_shards(inputs.grid.clone(), STRIPES);
            let t0 = Instant::now();
            bytes = pass(
                &index,
                inputs.release_seed,
                &server,
                &timed,
                &frame_at,
                t0,
                record.then_some(&mut spans),
            );
            let wall = t0.elapsed().as_secs_f64();
            if record {
                traced.push(wall);
            } else {
                plain.push(wall);
            }
        }
    }
    let reports = frames * FRAME;
    let mut layer_ns = [0.0; 6];
    for s in &spans {
        layer_ns[s.layer as usize] += (s.end_ns - s.start_ns) as f64;
    }
    for ns in &mut layer_ns {
        *ns /= reports as f64;
    }
    write_spans(span_path, &spans);
    Replay {
        layer_ns,
        bytes_per_report: bytes as f64 / reports as f64,
        tracing_overhead: stats::overhead(median(&plain), median(&traced)),
    }
}

/// The release kernel exactly as a pipeline lane runs it: one sampler memo
/// per batch, one `chunk_rng(seed, seq)` stream per report.
fn release(
    index: &PolicyIndex,
    seed: u64,
    first_seq: u64,
    reports: &[PendingReport],
) -> Vec<LocationReport> {
    let mut memo = SamplerMemo::new();
    reports
        .iter()
        .zip(first_seq..)
        .map(|(r, seq)| {
            let sampler = memo
                .resolve(&GraphExponential, index, EPS, r.cell)
                .expect("trace cells are releasable")
                .expect("GEM resolves samplers");
            LocationReport {
                user: r.user,
                epoch: r.epoch,
                cell: sampler.draw(&mut chunk_rng(seed, seq)),
                resend: false,
            }
        })
        .collect()
}

/// One pass over `frames`; with `record`, a span per layer call. Returns
/// the encoded client bytes.
fn pass<'t>(
    index: &PolicyIndex,
    seed: u64,
    server: &Server,
    frames: &[usize],
    frame_at: &dyn Fn(usize) -> &'t [PendingReport],
    t0: Instant,
    mut record: Option<&mut Vec<Span>>,
) -> usize {
    let mut buf = Vec::new();
    let mut shard_bufs: Vec<Vec<u8>> = vec![Vec::new(); SPLIT_SHARDS];
    let mut bytes = 0usize;
    let recording = record.is_some();
    for &f in frames {
        // Untraced passes read no clock per call: `mark` hands back `t0`.
        let mut mark = |layer: usize, since: Instant| match record.as_mut() {
            Some(spans) => {
                let now = Instant::now();
                spans.push(Span {
                    frame: f as u32,
                    layer: layer as u8,
                    start_ns: (since - t0).as_nanos() as u64,
                    end_ns: (now - t0).as_nanos() as u64,
                });
                now
            }
            None => since,
        };
        let seq0 = (f * FRAME) as u64;
        let t = if recording { Instant::now() } else { t0 };
        buf.clear();
        encode_submit_batch(frame_at(f), &mut buf);
        bytes += buf.len();
        let t = mark(0, t);
        let reports = match decode_frame(&buf).expect("replayed frame decodes").0 {
            Frame::SubmitBatch(reports) => reports,
            _ => unreachable!("encoded a SubmitBatch"),
        };
        let t = mark(1, t);
        let mut per_shard: Vec<Vec<SequencedReport>> = vec![Vec::new(); SPLIT_SHARDS];
        for (report, seq) in reports.iter().zip(seq0..) {
            per_shard[shard_of(report.user, SPLIT_SHARDS)].push(SequencedReport {
                seq,
                report: *report,
                released: false,
            });
        }
        for (sub, out) in per_shard.iter().zip(&mut shard_bufs) {
            out.clear();
            if !sub.is_empty() {
                encode_submit_sequenced(sub, out);
            }
        }
        let t = mark(2, t);
        for out in &shard_bufs {
            if !out.is_empty() {
                std::hint::black_box(decode_frame(out).expect("sub-batch decodes"));
            }
        }
        let t = mark(3, t);
        let landed = release(index, seed, seq0, &reports);
        let t = mark(4, t);
        server.receive_batch(landed);
        mark(5, t);
    }
    bytes
}

fn write_spans(path: &std::path::Path, spans: &[Span]) {
    let mut text = String::from("frame\tlayer\tstart_ns\tend_ns\n");
    for s in spans {
        text.push_str(&format!(
            "{}\t{}\t{}\t{}\n",
            s.frame, LAYERS[s.layer as usize], s.start_ns, s.end_ns
        ));
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create span directory");
    }
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(text.as_bytes()))
        .expect("write spans");
}

/// Cold index costs on a fresh index: a distance-row build, then the table
/// built from that (now cached) row. Medians in µs over `cells`.
pub fn cold_index_us(policy: &LocationPolicyGraph, cells: &[CellId]) -> (f64, f64) {
    let index = PolicyIndex::new(policy.clone());
    let mut rows = Vec::new();
    let mut tables = Vec::new();
    for &c in cells {
        let t0 = Instant::now();
        std::hint::black_box(index.distance_row(c));
        let t1 = Instant::now();
        std::hint::black_box(
            GraphExponential
                .sampler(&index, EPS, c)
                .expect("releasable"),
        );
        let t2 = Instant::now();
        rows.push((t1 - t0).as_secs_f64() * 1e6);
        tables.push((t2 - t1).as_secs_f64() * 1e6);
    }
    (median(&rows), median(&tables))
}

/// Median round trip of `GatewayClient::submit_sequenced` to a fresh
/// shard-plane gateway, for the sub-batches a two-way split of the trace's
/// frames sends to shard 0 — the router's link call, timed from outside.
pub fn link_rtt_us(inputs: &Inputs, policy: &LocationPolicyGraph, frames: usize) -> f64 {
    let node = ShardNode::spawn(
        Arc::new(Server::with_shards(inputs.grid.clone(), STRIPES)),
        Arc::new(PolicyIndex::new(policy.clone())),
        Arc::new(GraphExponential),
        ingest_config(inputs.release_seed),
    );
    let gateway =
        IngestGateway::bind_with("127.0.0.1:0", node.handle(), GatewayConfig::shard_plane())
            .expect("bind probe gateway");
    let mut link = GatewayClient::connect(gateway.local_addr()).expect("connect probe link");
    let n_frames = inputs.trace.len() / FRAME;
    let mut rtt = Vec::with_capacity(frames);
    for f in 0..frames {
        let start = (f % n_frames) * FRAME;
        let sub: Vec<SequencedReport> = inputs.trace[start..start + FRAME]
            .iter()
            .zip((f * FRAME) as u64..)
            .filter(|(r, _)| shard_of(r.user, SPLIT_SHARDS) == 0)
            .map(|(r, seq)| SequencedReport {
                seq,
                report: *r,
                released: false,
            })
            .collect();
        let mut sent = 0;
        let t0 = Instant::now();
        while sent < sub.len() {
            sent += link.submit_sequenced(&sub[sent..]).expect("probe link");
        }
        rtt.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    link.shutdown().expect("clean probe shutdown");
    gateway.shutdown();
    node.shutdown();
    median(&rtt)
}
