//! Machine-readable release-engine benchmark: writes `BENCH_release.json`
//! so the perf trajectory is trackable across PRs.
//!
//! ```text
//! cargo run --release -p panda-bench --bin bench_release \
//!     [-- --quick] [-- --streaming] [-- --net] [-- --large-graph]
//! ```
//!
//! * `--quick` — CI smoke mode: one small batch, few iterations, still
//!   exercising every code path (parallel release, alias sampling, shard
//!   ingest — and, with `--streaming`/`--net`/`--large-graph`, the ingest
//!   pipeline, the TCP gateway and the hub-label oracle).
//! * `--streaming` — also measure the streaming ingest pipeline under
//!   open-loop Poisson arrivals (sustained reports/sec, p50/p99 flush
//!   latency), appended as a `streaming` section.
//! * `--net` — also measure loopback-TCP ingest through the `panda-net`
//!   gateway against the in-process `IngestHandle::submit` baseline (end-to-end
//!   reports/sec to a fully-landed DB, p50/p99 per-batch ack latency,
//!   1 vs 4 concurrent clients), appended as a `net` section.
//! * `--large-graph` — also measure the city-scale distance oracle: index
//!   build time, hub-label memory vs the dense-table equivalent, cold
//!   distance-row derivation, and steady-state GEM release throughput over
//!   one 50k-node connected component (9 216 nodes in quick mode),
//!   appended as a `large_graph` section.
//! * `--cluster` — also measure the sharded ingest tier: end-to-end
//!   reports/sec through a `ShardRouter` fanning over 1, 2 and 4 loopback
//!   shard nodes (each its own gateway + pipeline + server slice) against
//!   the single-process pipeline, with the router's per-frame fan-out
//!   overhead, appended as a `cluster` section.
//! * `--telemetry` — also measure the cost of the live metrics plane: a
//!   saturating in-process ingest run with histogram-derived flush
//!   p50/p99, appended as a `telemetry` section (schema v8) stamped with
//!   whether this binary was compiled with telemetry on (default) or off
//!   (`RUSTFLAGS="--cfg panda_obs_off"`). Run both builds and compare
//!   `reports_per_sec` for the instrumentation overhead (budget < 2%).
//!
//! Measures, per (mechanism × batch size × thread count): reports/sec and
//! p50/p99 per-batch latency of [`ParallelReleaser`] against the
//! single-threaded PR-1 `perturb_batch` baseline; the per-report-lock vs
//! sampler-handle streaming ablation (`sampler` section) with the
//! shared-cache touch counts; plus the alias-table vs binary-search
//! ns/draw ablation per support size. JSON is assembled by hand (no JSON
//! dependency in the offline workspace).

use panda_bench::percentile;
use panda_bench::workload::{geolife, grid};
use panda_core::release::chunk_rng;
use panda_core::{
    GraphExponential, LocationPolicyGraph, Mechanism, ParallelReleaser, PolicyIndex, SamplerMemo,
    SamplingTable,
};
use panda_geo::CellId;
use panda_surveillance::ingest::IngestConfig;
use panda_surveillance::simulation::{run_streaming_simulation, StreamingConfig};
use panda_surveillance::PolicyConfigurator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

struct ReleaseRow {
    mechanism: &'static str,
    batch: usize,
    threads: usize,
    reports_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    speedup_vs_single: f64,
}

struct SamplingRow {
    support: usize,
    alias_ns: f64,
    binary_search_ns: f64,
}

struct SamplerRow {
    mechanism: &'static str,
    distinct_cells: usize,
    reports: usize,
    per_report_rps: f64,
    sampler_rps: f64,
    speedup: f64,
    per_report_touches: u64,
    sampler_touches: u64,
}

struct StreamingRow {
    label: &'static str,
    max_batch: usize,
    max_delay_ms: f64,
    lanes: usize,
    reports: usize,
    reports_per_sec: f64,
    flush_p50_ms: f64,
    flush_p99_ms: f64,
    batches: usize,
    deadline_flushes: usize,
}

struct TelemetryRow {
    /// `"on"` for a default build, `"off"` when compiled with
    /// `RUSTFLAGS="--cfg panda_obs_off"` — the overhead is the throughput
    /// delta between the two builds' rows.
    mode: &'static str,
    run: usize,
    reports: usize,
    reports_per_sec: f64,
    /// Flush-latency quantiles derived from the pipeline registry's
    /// striped log2 histogram (0 in `off` mode: recording is a no-op).
    hist_flush_p50_ms: f64,
    hist_flush_p99_ms: f64,
}

struct NetRow {
    transport: &'static str,
    clients: usize,
    reports: usize,
    reports_per_sec: f64,
    ack_p50_ms: f64,
    ack_p99_ms: f64,
}

struct ClusterRow {
    topology: &'static str,
    nodes: usize,
    reports: usize,
    reports_per_sec: f64,
    ack_p50_ms: f64,
    ack_p99_ms: f64,
    /// Downstream sub-batches per client frame at the router (1.0 would
    /// be free fan-out; the single-process row reports 0).
    fanout_per_frame: f64,
}

struct LargeGraphRow {
    nodes: u32,
    edges: usize,
    backend: &'static str,
    index_build_ms: f64,
    index_bytes: usize,
    dense_equiv_bytes: usize,
    memory_ratio: f64,
    avg_label_entries: f64,
    row_query_ms: f64,
    distinct_cells: usize,
    reports: usize,
    reports_per_sec_1t: f64,
    reports_per_sec_mt: f64,
    mt_threads: usize,
}

/// Times `iters` runs of `f`, returning per-run latencies in ms (sorted).
fn time_batches(iters: usize, mut f: impl FnMut()) -> Vec<f64> {
    // One warm-up run fills the index caches (the steady-state regime the
    // engine is designed for).
    f();
    let mut latencies: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    latencies
}

fn bench_release(quick: bool) -> Vec<ReleaseRow> {
    let g = grid(32);
    let index = PolicyIndex::new(LocationPolicyGraph::partition(g.clone(), 2, 2));
    let batches: &[usize] = if quick { &[16_384] } else { &[65_536, 262_144] };
    let thread_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let iters = if quick { 3 } else { 15 };
    let mut rows = Vec::new();
    for &n in batches {
        let mut rng = StdRng::seed_from_u64(7);
        let locs: Vec<CellId> = (0..n)
            .map(|_| CellId(rng.gen_range(0..g.n_cells())))
            .collect();
        // Single-threaded PR-1 baseline.
        let mut rng = StdRng::seed_from_u64(11);
        let single = time_batches(iters, || {
            black_box(
                GraphExponential
                    .perturb_batch(&index, 1.0, &locs, &mut rng)
                    .unwrap(),
            );
        });
        let single_p50 = percentile(&single, 0.5);
        rows.push(ReleaseRow {
            mechanism: "gem",
            batch: n,
            threads: 1,
            reports_per_sec: n as f64 / (single_p50 / 1e3),
            p50_ms: single_p50,
            p99_ms: percentile(&single, 0.99),
            speedup_vs_single: 1.0,
        });
        for &t in thread_counts.iter().filter(|&&t| t > 1) {
            let releaser = ParallelReleaser::with_threads(t);
            let lat = time_batches(iters, || {
                black_box(
                    releaser
                        .release(&GraphExponential, &index, 1.0, &locs, 11)
                        .unwrap(),
                );
            });
            let p50 = percentile(&lat, 0.5);
            rows.push(ReleaseRow {
                mechanism: "gem",
                batch: n,
                threads: t,
                reports_per_sec: n as f64 / (p50 / 1e3),
                p50_ms: p50,
                p99_ms: percentile(&lat, 0.99),
                speedup_vs_single: single_p50 / p50,
            });
        }
    }
    rows
}

/// Open-loop streaming ingest: Poisson arrivals across a GeoLife-like
/// population, submitted as fast as they are generated, drained through
/// the bounded-queue pipeline onto the sharded server.
fn bench_streaming(quick: bool) -> Vec<StreamingRow> {
    let g = grid(16);
    let configurator = PolicyConfigurator::new(g.clone(), 4, 2);
    let (n_users, days) = if quick { (200, 2) } else { (1_500, 7) };
    let truth = geolife(5, &g, n_users, days);
    let configs: &[(&'static str, usize, u64)] = if quick {
        &[("micro-batch", 256, 1)]
    } else {
        &[
            // Latency-leaning: small batches, tight deadline.
            ("micro-batch", 256, 1),
            // Throughput-leaning: 4096-report batches, lazy deadline.
            ("bulk-batch", 4096, 10),
        ]
    };
    configs
        .iter()
        .map(|&(label, max_batch, delay_ms)| {
            let cfg = StreamingConfig {
                mean_reports_per_epoch: 2.0,
                switch_every: 24,
                ingest: IngestConfig {
                    eps: 1.0,
                    max_batch,
                    max_delay: Duration::from_millis(delay_ms),
                    queue_capacity: 16_384,
                    ..Default::default()
                },
            };
            let mut rng = StdRng::seed_from_u64(13);
            let t0 = Instant::now();
            let log = run_streaming_simulation(&truth, &configurator, &cfg, &mut rng);
            let elapsed = t0.elapsed().as_secs_f64();
            let (flush_p50_ms, flush_p99_ms) = flush_quantiles_ms(&log.metrics);
            StreamingRow {
                label,
                max_batch,
                max_delay_ms: delay_ms as f64,
                lanes: cfg.ingest.release_threads,
                reports: log.stats.landed,
                reports_per_sec: log.stats.landed as f64 / elapsed,
                flush_p50_ms,
                flush_p99_ms,
                batches: log.stats.batches,
                deadline_flushes: log.stats.deadline_flushes,
            }
        })
        .collect()
}

/// p50 and p99 flush latency in ms, read from a pipeline registry's
/// `panda_ingest_flush_ns` histogram (log₂-bucket floors; 0 when telemetry
/// is compiled out).
fn flush_quantiles_ms(registry: &panda_obs::Registry) -> (f64, f64) {
    registry
        .snapshot()
        .histogram("panda_ingest_flush_ns")
        .map(|h| (h.quantile(0.5) as f64 / 1e6, h.quantile(0.99) as f64 / 1e6))
        .unwrap_or((0.0, 0.0))
}

/// Instrumentation-overhead harness: a saturating in-process ingest run
/// (the same shape as the `net` in-process baseline) with per-run
/// end-to-end throughput and the registry's own histogram-derived flush
/// quantiles. The `mode` field stamps whether this binary carries live
/// telemetry (default) or had it compiled out
/// (`RUSTFLAGS="--cfg panda_obs_off"`); run both builds with
/// `--telemetry` and compare `reports_per_sec` to measure the overhead
/// (budget: < 2%).
fn bench_telemetry(quick: bool) -> Vec<TelemetryRow> {
    use panda_surveillance::ingest::IngestPipeline;
    use panda_surveillance::Server;
    use std::sync::Arc;

    let mode = if cfg!(panda_obs_off) { "off" } else { "on" };
    let total: usize = if quick { 131_072 } else { 262_144 };
    let runs = if quick { 3 } else { 4 };
    (0..runs)
        .map(|run| {
            let g = grid(16);
            let server = Arc::new(Server::with_shards(g.clone(), 16));
            let index = Arc::new(PolicyIndex::new(LocationPolicyGraph::partition(
                g.clone(),
                2,
                2,
            )));
            let pipeline = IngestPipeline::spawn(
                Arc::clone(&server),
                index,
                Arc::new(GraphExponential),
                IngestConfig {
                    max_batch: 256,
                    max_delay: Duration::from_millis(1),
                    queue_capacity: 16_384,
                    eps: 1.0,
                    seed: 7,
                    ..Default::default()
                },
            );
            let registry = pipeline.metrics();
            let handle = pipeline.handle();
            let trace = make_trace_for(run, total);
            let t0 = Instant::now();
            for batch in trace.chunks(256) {
                handle.submit(batch).expect("pipeline alive");
            }
            drop(handle);
            let stats = pipeline.shutdown();
            let elapsed = t0.elapsed().as_secs_f64();
            let (p50, p99) = flush_quantiles_ms(&registry);
            TelemetryRow {
                mode,
                run,
                reports: stats.landed,
                reports_per_sec: stats.landed as f64 / elapsed,
                hist_flush_p50_ms: p50,
                hist_flush_p99_ms: p99,
            }
        })
        .collect()
}

/// Loopback network ingest: the same batched submission stream pushed (a)
/// in-process through `IngestHandle::submit` and (b) over TCP
/// through the `panda-net` gateway and client SDK, at 1 and 4 concurrent
/// producers. Wall-clock runs from the first submit to a fully-landed DB
/// (pipeline drained), so `reports_per_sec` is end-to-end; ack latency is
/// the producer-observed per-batch round trip (queue handoff in-process,
/// frame → `Ack` over TCP).
fn bench_net(quick: bool) -> Vec<NetRow> {
    use panda_net::{GatewayClient, IngestGateway};
    use panda_surveillance::ingest::IngestPipeline;
    use panda_surveillance::Server;
    use std::sync::Arc;

    let total: usize = if quick { 16_384 } else { 262_144 };
    let chunk = 256usize;
    let client_counts: &[usize] = if quick { &[1] } else { &[1, 4] };
    let mut rows = Vec::new();
    for &clients in client_counts {
        for transport in ["in-process", "tcp"] {
            let g = grid(16);
            let server = Arc::new(Server::with_shards(g.clone(), 16));
            let index = Arc::new(PolicyIndex::new(LocationPolicyGraph::partition(
                g.clone(),
                2,
                2,
            )));
            let pipeline = IngestPipeline::spawn(
                Arc::clone(&server),
                index,
                Arc::new(GraphExponential),
                IngestConfig {
                    max_batch: 256,
                    max_delay: Duration::from_millis(1),
                    queue_capacity: 16_384,
                    eps: 1.0,
                    seed: 7,
                    ..Default::default()
                },
            );
            let per_client = total / clients;
            let t0 = Instant::now();
            let mut latencies: Vec<f64> = match transport {
                "in-process" => {
                    let workers: Vec<_> = (0..clients)
                        .map(|c| {
                            let handle = pipeline.handle();
                            std::thread::spawn(move || {
                                let trace = make_trace_for(c, per_client);
                                let mut lat = Vec::with_capacity(per_client / chunk + 1);
                                for batch in trace.chunks(chunk) {
                                    let b0 = Instant::now();
                                    handle.submit(batch).expect("pipeline alive");
                                    lat.push(b0.elapsed().as_secs_f64() * 1e3);
                                }
                                lat
                            })
                        })
                        .collect();
                    workers
                        .into_iter()
                        .flat_map(|w| w.join().expect("producer panicked"))
                        .collect()
                }
                _ => {
                    let gateway = IngestGateway::bind("127.0.0.1:0", pipeline.handle())
                        .expect("bind loopback gateway");
                    let addr = gateway.local_addr();
                    let workers: Vec<_> = (0..clients)
                        .map(|c| {
                            std::thread::spawn(move || {
                                let trace = make_trace_for(c, per_client);
                                let mut client =
                                    GatewayClient::connect(addr).expect("connect gateway");
                                let mut lat = Vec::with_capacity(per_client / chunk + 1);
                                for batch in trace.chunks(chunk) {
                                    let b0 = Instant::now();
                                    client.submit_batch(batch).expect("gateway alive");
                                    lat.push(b0.elapsed().as_secs_f64() * 1e3);
                                }
                                client.shutdown().expect("clean shutdown");
                                lat
                            })
                        })
                        .collect();
                    let lat: Vec<f64> = workers
                        .into_iter()
                        .flat_map(|w| w.join().expect("client panicked"))
                        .collect();
                    gateway.shutdown();
                    lat
                }
            };
            let stats = pipeline.shutdown();
            let wall = t0.elapsed().as_secs_f64();
            assert_eq!(stats.landed, total, "{transport}: every report must land");
            latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
            rows.push(NetRow {
                transport,
                clients,
                reports: total,
                reports_per_sec: total as f64 / wall,
                ack_p50_ms: percentile(&latencies, 0.5),
                ack_p99_ms: percentile(&latencies, 0.99),
            });
        }
    }
    rows
}

/// The sharded ingest tier: one producer pushing the same batched stream
/// (a) in-process through the pipeline (the single-process baseline) and
/// (b) through a `ShardRouter` fanning over N loopback shard nodes, each
/// behind its own shard-plane gateway with its own pipeline, release
/// lanes and server slice. Wall-clock runs from the first submit to every
/// node fully drained, so `reports_per_sec` is end-to-end aggregate
/// cluster throughput; ack latency is the producer-observed per-frame
/// round trip through the router (stamp + fan-out + downstream acks).
fn bench_cluster(quick: bool) -> Vec<ClusterRow> {
    use panda_net::{
        GatewayClient, GatewayConfig, IngestGateway, RouterConfig, ShardBackend, ShardRouter,
    };
    use panda_surveillance::ingest::IngestPipeline;
    use panda_surveillance::node::ShardNode;
    use panda_surveillance::Server;
    use std::sync::Arc;

    let total: usize = if quick { 16_384 } else { 131_072 };
    let chunk = 256usize;
    let ingest_config = IngestConfig {
        max_batch: 256,
        max_delay: Duration::from_millis(1),
        queue_capacity: 16_384,
        eps: 1.0,
        seed: 7,
        ..Default::default()
    };
    let g = grid(16);
    let index = || {
        std::sync::Arc::new(PolicyIndex::new(LocationPolicyGraph::partition(
            g.clone(),
            2,
            2,
        )))
    };
    let trace = make_trace_for(0, total);
    let mut rows = Vec::new();

    // Single-process baseline: the same stream straight into one pipeline.
    {
        let server = Arc::new(Server::with_shards(g.clone(), 16));
        let pipeline = IngestPipeline::spawn(
            Arc::clone(&server),
            index(),
            Arc::new(GraphExponential),
            ingest_config.clone(),
        );
        let handle = pipeline.handle();
        let t0 = Instant::now();
        let mut lat = Vec::with_capacity(total / chunk + 1);
        for batch in trace.chunks(chunk) {
            let b0 = Instant::now();
            handle.submit(batch).expect("pipeline alive");
            lat.push(b0.elapsed().as_secs_f64() * 1e3);
        }
        let stats = pipeline.shutdown();
        let wall = t0.elapsed().as_secs_f64();
        assert_eq!(stats.landed, total);
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        rows.push(ClusterRow {
            topology: "single-process",
            nodes: 1,
            reports: total,
            reports_per_sec: total as f64 / wall,
            ack_p50_ms: percentile(&lat, 0.5),
            ack_p99_ms: percentile(&lat, 0.99),
            fanout_per_frame: 0.0,
        });
    }

    for n in [1usize, 2, 4] {
        let nodes: Vec<ShardNode> = (0..n)
            .map(|_| {
                ShardNode::spawn(
                    Arc::new(Server::with_shards(g.clone(), 16)),
                    index(),
                    Arc::new(GraphExponential),
                    ingest_config.clone(),
                )
            })
            .collect();
        let gateways: Vec<IngestGateway> = nodes
            .iter()
            .map(|node| {
                IngestGateway::bind_with("127.0.0.1:0", node.handle(), GatewayConfig::shard_plane())
                    .expect("bind shard gateway")
            })
            .collect();
        let backends = gateways
            .iter()
            .map(|gw| {
                ShardBackend::remote(
                    GatewayClient::connect(gw.local_addr()).expect("connect shard link"),
                )
            })
            .collect();
        let router = ShardRouter::bind("127.0.0.1:0", backends, RouterConfig::default())
            .expect("bind router");
        let mut client = GatewayClient::connect(router.local_addr()).expect("connect router");
        let t0 = Instant::now();
        let mut lat = Vec::with_capacity(total / chunk + 1);
        for batch in trace.chunks(chunk) {
            let b0 = Instant::now();
            client.submit_batch(batch).expect("router alive");
            lat.push(b0.elapsed().as_secs_f64() * 1e3);
        }
        client.shutdown().expect("clean shutdown");
        let router_stats = router.shutdown();
        for gw in gateways {
            gw.shutdown();
        }
        let landed: usize = nodes.into_iter().map(|node| node.shutdown().landed).sum();
        let wall = t0.elapsed().as_secs_f64();
        assert_eq!(landed, total, "{n}-node cluster: every report must land");
        assert_eq!(router_stats.reports_routed as usize, total);
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let frames = total.div_ceil(chunk) as f64;
        rows.push(ClusterRow {
            topology: "cluster",
            nodes: n,
            reports: total,
            reports_per_sec: total as f64 / wall,
            ack_p50_ms: percentile(&lat, 0.5),
            ack_p99_ms: percentile(&lat, 0.99),
            fanout_per_frame: router_stats.fanout_batches as f64 / frames,
        });
    }
    rows
}

/// The deterministic per-client workload of [`bench_net`] (free function
/// so the worker closures stay `move`-only).
fn make_trace_for(c: usize, per_client: usize) -> Vec<panda_surveillance::ingest::PendingReport> {
    (0..per_client)
        .map(|i| panda_surveillance::ingest::PendingReport {
            user: panda_mobility::UserId((c * 100_000 + i % 500) as u32),
            epoch: (i / 500) as u32,
            cell: CellId((i % 64) as u32),
            resend: false,
        })
        .collect()
}

/// The city-scale oracle benchmark: one connected `city_like` component
/// far above the dense-tabulation threshold, indexed by the hub-label
/// oracle. Measures the index build, its memory against the k²-entry
/// dense-table equivalent, a cold distance-row derivation (the label-join
/// the incremental sampling tables are built from), and steady-state GEM
/// release throughput over a hotspot-concentrated arrival trace (256
/// distinct cells — alias tables warm after the first touch, the regime
/// the epidemic-surveillance load runs in).
fn bench_large_graph(quick: bool) -> Vec<LargeGraphRow> {
    use panda_bench::workload::city_policy;
    use panda_graph::distances::{DEFAULT_MAX_TABLE_ENTRIES, DEFAULT_ORACLE_ENTRIES_PER_NODE};
    use panda_graph::IndexBackend;

    // 9 216 nodes in quick mode (still above the 4 096-node dense
    // threshold), 50 176 in full mode — the paper-scale city.
    let (w, h) = if quick { (96, 96) } else { (224, 224) };
    let policy = city_policy(
        17,
        w,
        h,
        DEFAULT_MAX_TABLE_ENTRIES,
        DEFAULT_ORACLE_ENTRIES_PER_NODE,
    );
    let nodes = policy.n_locations();
    let edges = policy.graph().n_edges();

    let dist = policy.distance_index().clone();
    let t0 = Instant::now();
    dist.prebuild();
    let index_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let backend = match dist.backend(0) {
        IndexBackend::Dense => "dense",
        IndexBackend::HubLabels => "hub-labels",
        IndexBackend::Unindexed => "unindexed",
    };
    let index_bytes = dist.memory_bytes();
    let dense_equiv_bytes: usize = (0..dist.n_components())
        .map(|c| {
            let k = dist.members(c).len();
            k * k * 2
        })
        .sum();
    let avg_label_entries = dist
        .hub_labels_of(0)
        .map(|l| l.n_entries() as f64 / l.len() as f64)
        .unwrap_or(0.0);

    // Cold row derivations (fresh label joins, no caching layer).
    let mut row = Vec::new();
    let row_lat = time_batches(if quick { 8 } else { 32 }, || {
        black_box(policy.component_row_u16(CellId(0), &mut row));
    });
    let row_query_ms = percentile(&row_lat, 0.5);

    // Hotspot-concentrated release trace.
    let distinct = 256usize;
    let reports = if quick { 65_536 } else { 262_144 };
    let mut rng = StdRng::seed_from_u64(23);
    let hotspots: Vec<CellId> = (0..distinct)
        .map(|_| CellId(rng.gen_range(0..nodes)))
        .collect();
    let locs: Vec<CellId> = (0..reports)
        .map(|_| hotspots[rng.gen_range(0..distinct)])
        .collect();
    let iters = if quick { 3 } else { 10 };

    let index = PolicyIndex::new(policy);
    let mut rng = StdRng::seed_from_u64(29);
    let single = time_batches(iters, || {
        black_box(
            GraphExponential
                .perturb_batch(&index, 1.0, &locs, &mut rng)
                .unwrap(),
        );
    });
    let reports_per_sec_1t = reports as f64 / (percentile(&single, 0.5) / 1e3);

    let mt_threads = panda_core::release::default_parallelism().max(2);
    let releaser = ParallelReleaser::with_threads(mt_threads);
    let multi = time_batches(iters, || {
        black_box(
            releaser
                .release(&GraphExponential, &index, 1.0, &locs, 29)
                .unwrap(),
        );
    });
    let reports_per_sec_mt = reports as f64 / (percentile(&multi, 0.5) / 1e3);

    vec![LargeGraphRow {
        nodes,
        edges,
        backend,
        index_build_ms,
        index_bytes,
        dense_equiv_bytes,
        memory_ratio: index_bytes as f64 / dense_equiv_bytes as f64,
        avg_label_entries,
        row_query_ms,
        distinct_cells: distinct,
        reports,
        reports_per_sec_1t,
        reports_per_sec_mt,
        mt_threads,
    }]
}

/// The streaming contention ablation: per-report releases (each report
/// resolves against the shared distribution cache — one mutex touch per
/// report, the pre-sampler ingest regime) versus sampler-handle releases
/// (one resolution per distinct cell per lane, then lock-free draws).
/// Both paths draw every report from its own `chunk_rng(seed, seq)` stream
/// and produce identical cells; only the shared-cache traffic differs.
fn bench_sampler(quick: bool) -> Vec<SamplerRow> {
    let g = grid(32);
    let index = PolicyIndex::new(LocationPolicyGraph::partition(g.clone(), 2, 2));
    let n = if quick { 65_536 } else { 262_144 };
    let iters = if quick { 3 } else { 15 };
    let distinct_counts: &[usize] = if quick { &[4] } else { &[1, 4, 64] };
    let mech = GraphExponential;
    distinct_counts
        .iter()
        .map(|&distinct| {
            // Cell-concentrated arrival trace (the contention-defect load).
            let cells: Vec<CellId> = (0..n).map(|i| CellId((i % distinct) as u32)).collect();
            let mut out = vec![CellId(0); n];
            let t0_touch = index.distribution_cache_touches();
            let per_report = time_batches(iters, || {
                for (seq, &cell) in cells.iter().enumerate() {
                    let mut rng = chunk_rng(5, seq as u64);
                    let sampler = mech.sampler(&index, 1.0, cell).unwrap();
                    out[seq] = sampler.draw(&mut rng);
                }
                black_box(&out);
            });
            let per_report_touches =
                (index.distribution_cache_touches() - t0_touch) / (iters as u64 + 1);
            let t1_touch = index.distribution_cache_touches();
            let sampler_path = time_batches(iters, || {
                let mut memo = SamplerMemo::new();
                for (seq, &cell) in cells.iter().enumerate() {
                    let mut rng = chunk_rng(5, seq as u64);
                    let sampler = memo.resolve(&mech, &index, 1.0, cell).unwrap().unwrap();
                    out[seq] = sampler.draw(&mut rng);
                }
                black_box(&out);
            });
            let sampler_touches =
                (index.distribution_cache_touches() - t1_touch) / (iters as u64 + 1);
            let (p50_report, p50_sampler) =
                (percentile(&per_report, 0.5), percentile(&sampler_path, 0.5));
            SamplerRow {
                mechanism: "gem",
                distinct_cells: distinct,
                reports: n,
                per_report_rps: n as f64 / (p50_report / 1e3),
                sampler_rps: n as f64 / (p50_sampler / 1e3),
                speedup: p50_report / p50_sampler,
                per_report_touches,
                sampler_touches,
            }
        })
        .collect()
}

fn bench_sampling(quick: bool) -> Vec<SamplingRow> {
    let draws = if quick { 200_000 } else { 2_000_000 };
    let supports: &[usize] = if quick {
        &[1024]
    } else {
        &[256, 1024, 4096, 16_384]
    };
    supports
        .iter()
        .map(|&k| {
            let dist: Vec<(CellId, f64)> = (0..k as u32)
                .map(|i| (CellId(i), 1.0 + f64::from(i % 31)))
                .collect();
            let alias = SamplingTable::alias(dist.clone());
            let cumulative = SamplingTable::cumulative(dist);
            let time_draws = |table: &SamplingTable| {
                let mut rng = StdRng::seed_from_u64(3);
                let t0 = Instant::now();
                for _ in 0..draws {
                    black_box(table.sample(&mut rng));
                }
                t0.elapsed().as_secs_f64() * 1e9 / draws as f64
            };
            SamplingRow {
                support: k,
                alias_ns: time_draws(&alias),
                binary_search_ns: time_draws(&cumulative),
            }
        })
        .collect()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let telemetry_mode = std::env::args().any(|a| a == "--telemetry");
    let streaming_mode = std::env::args().any(|a| a == "--streaming");
    let net_mode = std::env::args().any(|a| a == "--net");
    let large_graph_mode = std::env::args().any(|a| a == "--large-graph");
    let cluster_mode = std::env::args().any(|a| a == "--cluster");
    let hw = panda_core::release::default_parallelism();
    println!(
        "release-engine bench ({} mode, {hw} hardware threads)\n",
        if quick { "quick" } else { "full" }
    );

    let release = bench_release(quick);
    println!("mechanism  batch    threads  reports/s    p50 ms   p99 ms   speedup");
    for r in &release {
        println!(
            "{:<9}  {:<7}  {:<7}  {:<11.0}  {:<7.2}  {:<7.2}  {:.2}x",
            r.mechanism,
            r.batch,
            r.threads,
            r.reports_per_sec,
            r.p50_ms,
            r.p99_ms,
            r.speedup_vs_single
        );
    }

    let streaming = if streaming_mode {
        let rows = bench_streaming(quick);
        println!(
            "\nstreaming    max_batch  delay ms  lanes  reports  reports/s  flush p50 ms  flush p99 ms  batches  deadline"
        );
        for s in &rows {
            println!(
                "{:<11}  {:<9}  {:<8.1}  {:<5}  {:<7}  {:<9.0}  {:<12.3}  {:<12.3}  {:<7}  {}",
                s.label,
                s.max_batch,
                s.max_delay_ms,
                s.lanes,
                s.reports,
                s.reports_per_sec,
                s.flush_p50_ms,
                s.flush_p99_ms,
                s.batches,
                s.deadline_flushes
            );
        }
        rows
    } else {
        Vec::new()
    };

    let telemetry = if telemetry_mode {
        let rows = bench_telemetry(quick);
        println!(
            "\ntelemetry ({} in this build)  run  reports  reports/s  hist flush p50 ms  hist flush p99 ms",
            rows[0].mode
        );
        for t in &rows {
            println!(
                "{:<27}  {:<3}  {:<7}  {:<9.0}  {:<17.3}  {:<17.3}",
                t.mode,
                t.run,
                t.reports,
                t.reports_per_sec,
                t.hist_flush_p50_ms,
                t.hist_flush_p99_ms
            );
        }
        println!(
            "(re-run this section under RUSTFLAGS=\"--cfg panda_obs_off\" and compare \
             reports/s for the instrumentation overhead; budget < 2%)"
        );
        rows
    } else {
        Vec::new()
    };

    let net = if net_mode {
        let rows = bench_net(quick);
        println!("\nnet         clients  reports  reports/s  ack p50 ms  ack p99 ms");
        for n in &rows {
            println!(
                "{:<10}  {:<7}  {:<7}  {:<9.0}  {:<10.4}  {:<10.4}",
                n.transport, n.clients, n.reports, n.reports_per_sec, n.ack_p50_ms, n.ack_p99_ms
            );
        }
        rows
    } else {
        Vec::new()
    };

    let cluster = if cluster_mode {
        let rows = bench_cluster(quick);
        println!(
            "\ncluster         nodes  reports  reports/s  ack p50 ms  ack p99 ms  fanout/frame"
        );
        for c in &rows {
            println!(
                "{:<14}  {:<5}  {:<7}  {:<9.0}  {:<10.4}  {:<10.4}  {:.3}",
                c.topology,
                c.nodes,
                c.reports,
                c.reports_per_sec,
                c.ack_p50_ms,
                c.ack_p99_ms,
                c.fanout_per_frame
            );
        }
        rows
    } else {
        Vec::new()
    };

    let large_graph = if large_graph_mode {
        let rows = bench_large_graph(quick);
        println!(
            "\nlarge graph  nodes  edges   backend     build ms  index MB  dense-equiv MB  ratio  avg label  row ms  1t reports/s  {}t reports/s",
            rows[0].mt_threads
        );
        for l in &rows {
            println!(
                "{:<11}  {:<5}  {:<6}  {:<10}  {:<8.0}  {:<8.1}  {:<14.1}  {:<5.3}  {:<9.1}  {:<6.2}  {:<12.0}  {:.0}",
                "city",
                l.nodes,
                l.edges,
                l.backend,
                l.index_build_ms,
                l.index_bytes as f64 / 1e6,
                l.dense_equiv_bytes as f64 / 1e6,
                l.memory_ratio,
                l.avg_label_entries,
                l.row_query_ms,
                l.reports_per_sec_1t,
                l.reports_per_sec_mt
            );
        }
        rows
    } else {
        Vec::new()
    };

    let sampler = bench_sampler(quick);
    println!(
        "\nsampler   distinct  reports  per-report r/s  sampler r/s  speedup  touches (report/sampler)"
    );
    for s in &sampler {
        println!(
            "{:<8}  {:<8}  {:<7}  {:<14.0}  {:<11.0}  {:<6.2}x  {}/{}",
            s.mechanism,
            s.distinct_cells,
            s.reports,
            s.per_report_rps,
            s.sampler_rps,
            s.speedup,
            s.per_report_touches,
            s.sampler_touches
        );
    }

    let sampling = bench_sampling(quick);
    println!("\nsupport  alias ns/draw  binary-search ns/draw  alias speedup");
    for s in &sampling {
        println!(
            "{:<7}  {:<13.1}  {:<21.1}  {:.2}x",
            s.support,
            s.alias_ns,
            s.binary_search_ns,
            s.binary_search_ns / s.alias_ns
        );
    }

    // Hand-assembled JSON (the offline workspace carries no JSON crate).
    let mut json = String::from("{\n");
    json.push_str("  \"schema\": \"panda-bench-release/v8\",\n");
    json.push_str(&format!(
        "  \"telemetry_compiled\": \"{}\",\n",
        if cfg!(panda_obs_off) { "off" } else { "on" }
    ));
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    json.push_str(&format!("  \"hardware_threads\": {hw},\n"));
    json.push_str("  \"release\": [\n");
    for (i, r) in release.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mechanism\": \"{}\", \"batch\": {}, \"threads\": {}, \
             \"reports_per_sec\": {:.0}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"speedup_vs_single\": {:.3}}}{}\n",
            r.mechanism,
            r.batch,
            r.threads,
            r.reports_per_sec,
            r.p50_ms,
            r.p99_ms,
            r.speedup_vs_single,
            if i + 1 < release.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    if !streaming.is_empty() {
        json.push_str("  \"streaming\": [\n");
        for (i, s) in streaming.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"label\": \"{}\", \"max_batch\": {}, \"max_delay_ms\": {:.1}, \
                 \"lanes\": {}, \"reports\": {}, \"reports_per_sec\": {:.0}, \
                 \"flush_p50_ms\": {:.3}, \"flush_p99_ms\": {:.3}, \"batches\": {}, \
                 \"deadline_flushes\": {}}}{}\n",
                s.label,
                s.max_batch,
                s.max_delay_ms,
                s.lanes,
                s.reports,
                s.reports_per_sec,
                s.flush_p50_ms,
                s.flush_p99_ms,
                s.batches,
                s.deadline_flushes,
                if i + 1 < streaming.len() { "," } else { "" }
            ));
        }
        json.push_str("  ],\n");
    }
    if !telemetry.is_empty() {
        json.push_str("  \"telemetry\": [\n");
        for (i, t) in telemetry.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"mode\": \"{}\", \"run\": {}, \"reports\": {}, \
                 \"reports_per_sec\": {:.0}, \"hist_flush_p50_ms\": {:.3}, \
                 \"hist_flush_p99_ms\": {:.3}}}{}\n",
                t.mode,
                t.run,
                t.reports,
                t.reports_per_sec,
                t.hist_flush_p50_ms,
                t.hist_flush_p99_ms,
                if i + 1 < telemetry.len() { "," } else { "" }
            ));
        }
        json.push_str("  ],\n");
    }
    if !net.is_empty() {
        json.push_str("  \"net\": [\n");
        for (i, n) in net.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"transport\": \"{}\", \"clients\": {}, \"reports\": {}, \
                 \"reports_per_sec\": {:.0}, \"ack_p50_ms\": {:.4}, \"ack_p99_ms\": {:.4}}}{}\n",
                n.transport,
                n.clients,
                n.reports,
                n.reports_per_sec,
                n.ack_p50_ms,
                n.ack_p99_ms,
                if i + 1 < net.len() { "," } else { "" }
            ));
        }
        json.push_str("  ],\n");
    }
    if !cluster.is_empty() {
        json.push_str("  \"cluster\": [\n");
        for (i, c) in cluster.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"topology\": \"{}\", \"nodes\": {}, \"reports\": {}, \
                 \"reports_per_sec\": {:.0}, \"ack_p50_ms\": {:.4}, \"ack_p99_ms\": {:.4}, \
                 \"fanout_per_frame\": {:.3}}}{}\n",
                c.topology,
                c.nodes,
                c.reports,
                c.reports_per_sec,
                c.ack_p50_ms,
                c.ack_p99_ms,
                c.fanout_per_frame,
                if i + 1 < cluster.len() { "," } else { "" }
            ));
        }
        json.push_str("  ],\n");
    }
    if !large_graph.is_empty() {
        json.push_str("  \"large_graph\": [\n");
        for (i, l) in large_graph.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"nodes\": {}, \"edges\": {}, \"backend\": \"{}\", \
                 \"index_build_ms\": {:.1}, \"index_bytes\": {}, \
                 \"dense_equiv_bytes\": {}, \"memory_ratio\": {:.4}, \
                 \"avg_label_entries\": {:.1}, \"row_query_ms\": {:.3}, \
                 \"distinct_cells\": {}, \"reports\": {}, \
                 \"reports_per_sec_1t\": {:.0}, \"reports_per_sec_mt\": {:.0}, \
                 \"mt_threads\": {}}}{}\n",
                l.nodes,
                l.edges,
                l.backend,
                l.index_build_ms,
                l.index_bytes,
                l.dense_equiv_bytes,
                l.memory_ratio,
                l.avg_label_entries,
                l.row_query_ms,
                l.distinct_cells,
                l.reports,
                l.reports_per_sec_1t,
                l.reports_per_sec_mt,
                l.mt_threads,
                if i + 1 < large_graph.len() { "," } else { "" }
            ));
        }
        json.push_str("  ],\n");
    }
    json.push_str("  \"sampler\": [\n");
    for (i, s) in sampler.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mechanism\": \"{}\", \"distinct_cells\": {}, \"reports\": {}, \
             \"per_report_rps\": {:.0}, \"sampler_rps\": {:.0}, \"speedup\": {:.3}, \
             \"per_report_touches\": {}, \"sampler_touches\": {}}}{}\n",
            s.mechanism,
            s.distinct_cells,
            s.reports,
            s.per_report_rps,
            s.sampler_rps,
            s.speedup,
            s.per_report_touches,
            s.sampler_touches,
            if i + 1 < sampler.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"sampling\": [\n");
    for (i, s) in sampling.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"support\": {}, \"alias_ns_per_draw\": {:.2}, \
             \"binary_search_ns_per_draw\": {:.2}, \"alias_speedup\": {:.3}}}{}\n",
            s.support,
            s.alias_ns,
            s.binary_search_ns,
            s.binary_search_ns / s.alias_ns,
            if i + 1 < sampling.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_release.json", &json).expect("write BENCH_release.json");
    println!("\n[saved BENCH_release.json]");
}
