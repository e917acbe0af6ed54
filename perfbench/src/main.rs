//! The PANDA layer-ledger benchmark.
//!
//! ```text
//! perfbench --workload <grid-gateway|grid-cluster2|city-outbreak>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--out-dir <dir>]
//! ```
//!
//! Spawns the workload's topology over loopback TCP, drives it with an
//! open loop and closed-loop rounds spread through it, checks the landed DB
//! against a one-process reference, and prints one JSON object as its last
//! line:
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics and the
//! layer ledger from a separate single-thread replay (`--trace 1`). See
//! `README.md` beside this package for every metric.

mod live;
mod reference;
mod replay;
mod stats;
mod topology;
mod workload;

use live::Outcome;
use stats::{median, percentile, sorted, Ledger, MIN_BEYOND};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use topology::{System, Teardown};
use workload::{Workload, FRAME};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut out_dir = PathBuf::from(".perfbench_out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::by_name(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e: std::num::ParseIntError| bad(e.to_string()))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e: std::num::ParseFloatError| bad(e.to_string()))?;
            }
            "--trace" => trace = value == "1",
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let workload: Workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out_dir,
    })
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON object built by hand (the workspace carries no JSON crate).
#[derive(Default)]
struct Json(String);

impl Json {
    fn field(&mut self, key: &str, raw: &str) -> &mut Self {
        if !self.0.is_empty() {
            self.0.push_str(", ");
        }
        let _ = write!(self.0, "\"{key}\": {raw}");
        self
    }
    fn num(&mut self, key: &str, v: f64) -> &mut Self {
        assert!(v.is_finite(), "{key} is not finite: {v}");
        self.field(key, &format!("{v}"))
    }
    fn text(&mut self, key: &str, v: &str) -> &mut Self {
        self.field(key, &format!("\"{v}\""))
    }
    fn metric(&mut self, key: &str, v: f64, unit: &str) -> &mut Self {
        assert!(v.is_finite(), "{key} is not finite: {v}");
        self.field(key, &format!("{{\"value\": {v}, \"unit\": \"{unit}\"}}"))
    }
    fn done(&self) -> String {
        format!("{{{}}}", self.0)
    }
}

/// Distinct true cells each owning server received in stream positions
/// `0..end`.
fn distinct_cells_per_server(w: &Workload, inputs: &workload::Inputs, end: u64) -> Vec<usize> {
    let n = w.n_servers();
    let upto = (end as usize).min(inputs.trace.len());
    let mut sets = vec![BTreeSet::new(); n];
    for r in &inputs.trace[..upto] {
        let s = if w.is_cluster() {
            panda_surveillance::shard_of(r.user, n)
        } else {
            0
        };
        sets[s].insert(r.cell);
    }
    sets.iter().map(BTreeSet::len).collect()
}

/// Median and p99 (with the ten-beyond fallback) of a latency sample.
fn ms_tail(values: &[f64]) -> (f64, stats::Tail) {
    let v = sorted(values);
    (percentile(&v, 0.5), stats::tail(&v, 0.99, MIN_BEYOND))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let w = &args.workload;
    let inputs = workload::inputs(w, args.seed);

    // Set-up, several times: policy + index build, topology spawn, connect.
    let mut setup_s = Vec::new();
    let mut oracle_ms = Vec::new();
    let mut kept = None;
    for i in 0..w.setups {
        let t0 = Instant::now();
        let policy = w.build_policy();
        let t1 = Instant::now();
        policy.distance_index().prebuild();
        oracle_ms.push(t1.elapsed().as_secs_f64() * 1e3);
        let sys = System::spawn(w, &policy, inputs.release_seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 == w.setups {
            kept = Some((sys, policy));
        } else {
            sys.shutdown();
        }
    }
    let (mut sys, policy) = kept.expect("at least one set-up");
    let round_policies: Vec<_> = inputs
        .rounds
        .iter()
        .map(|r| policy.with_isolated(&r.isolate))
        .collect();
    let servers = sys.servers.clone();

    let out: Outcome = live::run(w, &inputs, &round_policies, &mut sys, args.seconds);
    let rss_mb = peak_rss_mb();
    let stripe_loads: Vec<usize> = servers.iter().flat_map(|s| s.shard_loads()).collect();
    let down: Teardown = sys.shutdown();

    // Correctness gate, outside the timed window.
    let landed: u64 = down.ingest.iter().map(|s| s.landed as u64).sum();
    let attempted = out.stream.sent;
    let db = if servers.len() == 1 {
        servers[0].reported_db(inputs.horizon)
    } else {
        panda_surveillance::merge_reported_dbs(inputs.grid.clone(), &servers, inputs.horizon)
    };
    let expected = reference::reference_db(&inputs, &policy, &round_policies, &out.stream);
    let db_ok = db.trajectories() == expected.trajectories();
    let failed = if db_ok {
        attempted.saturating_sub(landed)
    } else {
        attempted
    };
    if !db_ok {
        eprintln!("perfbench: landed DB differs from the one-process reference");
    }
    let correct = db_ok && failed == 0;

    let raw_reports_per_s = median(&out.round_rates);
    let (ack_p50, ack_tail) = ms_tail(&out.ack_ms);
    let (land_p50, land_tail) = ms_tail(&out.land_ms);
    let (_, late_tail) = ms_tail(&stats::lateness_ms(&out.open_frames));
    let query_ms: Vec<f64> = out.queries.iter().map(|q| q.total_ms).collect();
    let raw_query_ms = median(&query_ms);
    // The host's speed drifts between runs, so the gated rate and query time
    // are scaled to the reference host speed by the run's median probe time
    // (see `live::host_probe`); the raw figures are per-layer metrics.
    let probe_ms = median(&out.probe_ms);
    let slowdown = if probe_ms > 0.0 {
        probe_ms / live::PROBE_REF_MS
    } else {
        1.0
    };

    let mut env = Json::default();
    env.text("workload", w.name)
        .num("seed", args.seed as f64)
        .num("seconds", args.seconds)
        .num("trace", f64::from(u8::from(args.trace)))
        .num(
            "hardware_threads",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
        )
        .text(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .text(
            "panda_obs_off",
            if cfg!(panda_obs_off) { "true" } else { "false" },
        )
        .num("open_rate_reports_per_s", w.open_rate);
    println!("env {}", env.done());

    let mut detail = Json::default();
    detail
        .num("attempted", attempted as f64)
        .num("landed", landed as f64)
        .text("db_check", if db_ok { "match" } else { "MISMATCH" })
        .num("closed_loop_rounds", out.round_rates.len() as f64)
        .num("open_loop_frames", out.open_frames.len() as f64)
        .num("ack_tail_percentile", ack_tail.percentile)
        .num("ack_samples", ack_tail.samples as f64)
        .num("land_tail_percentile", land_tail.percentile)
        .num("land_samples", land_tail.samples as f64)
        .num("late_tail_percentile", late_tail.percentile)
        .num("late_samples", late_tail.samples as f64)
        .num("switch_samples", out.switch_ms.len() as f64)
        .num("query_samples", query_ms.len() as f64)
        .num("probe_samples", out.probe_ms.len() as f64)
        .num("setup_samples", setup_s.len() as f64);
    println!("detail {}", detail.done());

    let mut metrics = Json::default();
    if !args.trace {
        metrics
            .metric("reports_per_s", raw_reports_per_s * slowdown, "reports/s")
            .metric("land_p50_ms", land_p50, "ms")
            .metric("query_p50_ms", raw_query_ms / slowdown, "ms")
            .metric("peak_rss_mb", rss_mb, "MB")
            .metric("setup_s", median(&setup_s), "s");
    } else {
        per_layer(
            &mut metrics,
            &args,
            &inputs,
            &policy,
            &out,
            &down,
            &stripe_loads,
            [raw_reports_per_s, raw_query_ms, probe_ms],
            [ack_p50, ack_tail.value, land_tail.value, late_tail.value],
            stats::failed_share(attempted, landed, db_ok),
            median(&oracle_ms),
        );
    }
    let mut result = Json::default();
    result
        .field("correct", if correct { "true" } else { "false" })
        .num("attempted", attempted as f64)
        .num("failed", failed as f64)
        .field("metrics", &format!("{{{}}}", metrics.0));
    println!("{}", result.done());
}

/// The traced run's per-layer metrics and ledger.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    m: &mut Json,
    args: &Args,
    inputs: &workload::Inputs,
    policy: &panda_core::LocationPolicyGraph,
    out: &Outcome,
    down: &Teardown,
    stripe_loads: &[usize],
    [reports_per_s, raw_query_ms, probe_ms]: [f64; 3],
    [ack_p50_ms, ack_p99_ms, land_p99_ms, late_p99_ms]: [f64; 4],
    failed_share: f64,
    oracle_build_ms: f64,
) {
    let w = &args.workload;
    let city = w.policy == workload::PolicyKind::City;
    let (warm, frames) = if city { (256, 128) } else { (64, 512) };
    let span_path = args
        .out_dir
        .join(format!("spans-{}-seed{}.tsv", w.name, args.seed));
    let r = replay::replay(inputs, policy, warm, frames, &span_path);
    let mut probe_cells: Vec<_> = Vec::new();
    for rep in &inputs.trace {
        if !probe_cells.contains(&rep.cell) {
            probe_cells.push(rep.cell);
            if probe_cells.len() == 32 {
                break;
            }
        }
    }
    let (cold_row_us, cold_table_us) = replay::cold_index_us(policy, &probe_cells);
    // Router layers read 0 on workloads without a router.
    let (on_path, link_rtt_us): (&[usize], f64) = if w.is_cluster() {
        (
            &[0, 1, 2, 3, 4, 5],
            replay::link_rtt_us(inputs, policy, 200),
        )
    } else {
        (&[0, 1, 4, 5], 0.0)
    };
    let routed = |ns: f64| if w.is_cluster() { ns } else { 0.0 };
    let ledger = Ledger::new(
        on_path
            .iter()
            .map(|&l| (replay::LAYERS[l].to_string(), r.layer_ns[l]))
            .collect(),
        reports_per_s,
    );
    println!(
        "ledger {}",
        ledger
            .rows
            .iter()
            .map(|(n, ns)| format!("{n}={ns:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    let sum = |f: &dyn Fn(&panda_surveillance::IngestStats) -> usize| -> f64 {
        down.ingest.iter().map(f).sum::<usize>() as f64
    };
    let batches = sum(&|s| s.batches).max(1.0);
    let texts = &down.gateway_texts;
    let merged = |name: &str| {
        stats::merge_buckets(
            &texts
                .iter()
                .map(|t| stats::parse_buckets(t, name))
                .collect::<Vec<_>>(),
        )
    };
    let flush = merged("panda_ingest_flush_ns");
    let burst = merged("panda_pool_burst_ns");
    let frames_sent = (out.stream.sent / FRAME as u64).max(1) as f64;
    let fanout = down
        .router
        .map_or(0.0, |rs| rs.fanout_batches as f64 / frames_sent);
    let stalls = stats::parse_counter(&down.router_text, "panda_router_ack_prefix_stalls_total")
        .unwrap_or(0) as f64;
    let depths = sorted(&out.depths);
    let mean_depth = depths.iter().sum::<f64>() / depths.len().max(1) as f64;

    let distinct = distinct_cells_per_server(w, inputs, out.index_segment_end);
    let distinct_total = distinct.iter().sum::<usize>().max(1) as f64;
    let idx = &out.index;
    let total =
        |f: &dyn Fn(&live::IndexCounts) -> u64| -> f64 { idx.iter().map(f).sum::<u64>() as f64 };
    let ratio = |hits: f64, misses: f64| {
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    };
    let dist_hits = total(&|c| c.dist.hits);
    let dist_misses = total(&|c| c.dist.misses);
    let row_hits = total(&|c| c.rows.hits);
    let row_misses = total(&|c| c.rows.misses);
    let q =
        |f: &dyn Fn(&live::Query) -> f64| median(&out.queries.iter().map(f).collect::<Vec<_>>());

    m.metric("client.encode_ns_per_report", r.layer_ns[0], "ns")
        .metric(
            "client.backpressure_retries",
            out.backpressure_retries as f64,
            "count",
        )
        .metric("wire.decode_ns_per_report", r.layer_ns[1], "ns")
        .metric(
            "wire.decode_shard_ns_per_report",
            routed(r.layer_ns[3]),
            "ns",
        )
        .metric("wire.bytes_per_report", r.bytes_per_report, "bytes")
        .metric(
            "gateway.frames",
            down.gateways.iter().map(|g| g.frames).sum::<u64>() as f64,
            "count",
        )
        .metric(
            "gateway.backpressure_nacks",
            down.gateways
                .iter()
                .map(|g| g.backpressure_nacks)
                .sum::<u64>() as f64,
            "count",
        )
        .metric("router.split_ns_per_report", routed(r.layer_ns[2]), "ns")
        .metric("router.link_rtt_p50_us", link_rtt_us, "us")
        .metric("router.fanout_per_frame", fanout, "ratio")
        .metric("router.ack_prefix_stalls", stalls, "count")
        .metric(
            "ingest.queue_depth_p50",
            percentile(&depths, 0.5),
            "reports",
        )
        .metric(
            "ingest.queue_depth_max",
            depths.last().copied().unwrap_or(0.0),
            "reports",
        )
        .metric(
            "ingest.queue_wait_ms",
            stats::littles_law_wait_ms(mean_depth, w.open_rate),
            "ms",
        )
        .metric(
            "ingest.reports_per_flush",
            sum(&|s| s.landed) / batches,
            "reports",
        )
        .metric(
            "ingest.deadline_flush_share",
            sum(&|s| s.deadline_flushes) / batches,
            "ratio",
        )
        .metric(
            "ingest.flush_p50_ms",
            stats::bucket_quantile(&flush, 0.5) as f64 / 1e6,
            "ms",
        )
        .metric(
            "ingest.flush_p99_ms",
            stats::bucket_quantile(&flush, 0.99) as f64 / 1e6,
            "ms",
        )
        .metric("release.ns_per_report", r.layer_ns[4], "ns")
        .metric(
            "release.pool_burst_p50_us",
            stats::bucket_quantile(&burst, 0.5) as f64 / 1e3,
            "us",
        )
        .metric(
            "index.dist_hit_ratio",
            ratio(dist_hits, dist_misses),
            "ratio",
        )
        .metric("index.row_hit_ratio", ratio(row_hits, row_misses), "ratio")
        .metric(
            "index.dist_misses_per_distinct_cell",
            dist_misses / distinct_total,
            "ratio",
        )
        .metric(
            "index.row_misses_per_distinct_cell",
            row_misses / distinct_total,
            "ratio",
        )
        .metric(
            "index.dist_evictions",
            total(&|c| c.dist.evictions),
            "count",
        )
        .metric("index.row_evictions", total(&|c| c.rows.evictions), "count")
        .metric(
            "index.touches_per_report",
            total(&|c| c.touches) / out.index_segment_end.max(1) as f64,
            "ratio",
        )
        .metric("index.cold_row_us", cold_row_us, "us")
        .metric("index.cold_table_us", cold_table_us, "us")
        .metric(
            "index.cache_mb",
            total(&|c| c.cache_bytes as u64) / 1e6,
            "MB",
        )
        .metric("oracle.build_ms", oracle_build_ms, "ms")
        .metric(
            "oracle.index_mb",
            policy.distance_index().memory_bytes() as f64 / 1e6,
            "MB",
        )
        .metric("server.land_ns_per_report", r.layer_ns[5], "ns")
        .metric("server.shard_skew", stats::skew(stripe_loads), "ratio")
        .metric("server.reported_db_ms", q(&|x| x.reported_db_ms), "ms")
        .metric("tracing.find_contacts_ms", q(&|x| x.contacts_ms), "ms")
        .metric("monitoring.occupancy_ms", q(&|x| x.occupancy_ms), "ms")
        .metric(
            "ledger.replay_ns_per_report",
            ledger.replay_ns_per_report,
            "ns",
        )
        .metric(
            "ledger.unexplained_ns_per_report",
            ledger.unexplained_ns_per_report,
            "ns",
        )
        .metric("ledger.tracing_overhead", r.tracing_overhead, "ratio")
        .metric("ack_p50_ms", ack_p50_ms, "ms")
        .metric("ack_p99_ms", ack_p99_ms, "ms")
        .metric("land_p99_ms", land_p99_ms, "ms")
        .metric("switch_ms", median(&out.switch_ms), "ms")
        .metric("loadgen.late_p99_ms", late_p99_ms, "ms")
        .metric("failed_share", failed_share, "ratio")
        .metric("host.probe_ms", probe_ms, "ms")
        .metric("raw.reports_per_s", reports_per_s, "reports/s")
        .metric("raw.query_p50_ms", raw_query_ms, "ms");
}
