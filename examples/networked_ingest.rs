//! Networked ingest quickstart: the full client/server split over
//! loopback TCP — gateway in front of the streaming pipeline, clients
//! submitting through the framed wire protocol, an in-band policy switch,
//! and a graceful drain.
//!
//! ```text
//! cargo run --release --example networked_ingest
//! ```

use panda::core::{GraphExponential, LocationPolicyGraph, PolicyIndex};
use panda::geo::{CellId, GridMap};
use panda::mobility::{Timestamp, UserId};
use panda::net::{GatewayClient, GatewayConfig, IngestGateway};
use panda::surveillance::ingest::{IngestConfig, IngestPipeline, PendingReport};
use panda::surveillance::Server;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // --- 1. Server side: sharded server, streaming pipeline, gateway. ---
    let grid = GridMap::new(16, 16, 250.0);
    let server = Arc::new(Server::with_shards(grid.clone(), 16));
    let coarse = LocationPolicyGraph::partition(grid.clone(), 4, 4);
    let pipeline = IngestPipeline::spawn(
        Arc::clone(&server),
        Arc::new(PolicyIndex::new(coarse)),
        Arc::new(GraphExponential),
        IngestConfig {
            max_batch: 256,
            eps: 1.0,
            seed: 7,
            ..Default::default()
        },
    );
    // Port 0 = any free port; production binds a well-known one. The
    // data plane refuses wire policy switches (untrusted reporters); the
    // operator plane is a second listener that allows them — in
    // production it would be loopback-only or authenticated.
    let gateway = IngestGateway::bind("127.0.0.1:0", pipeline.handle()).expect("bind gateway");
    let operator_gateway =
        IngestGateway::bind_with("127.0.0.1:0", pipeline.handle(), GatewayConfig::operator())
            .expect("bind operator gateway");
    let addr = gateway.local_addr();
    println!(
        "gateway listening on {addr} (operator plane on {})",
        operator_gateway.local_addr()
    );

    // --- 2. Client side: concurrent reporters over TCP. ------------------
    let t0 = Instant::now();
    let reporters: Vec<_> = (0..3u32)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = GatewayClient::connect(addr).expect("connect");
                let reports: Vec<PendingReport> = (0..2_000u32)
                    .map(|i| PendingReport {
                        user: UserId(c * 10_000 + i % 400),
                        epoch: (i / 400) as Timestamp,
                        cell: CellId(i % 256),
                        resend: false,
                    })
                    .collect();
                // Batched frames: one ack per 128 reports; the SDK rides
                // out any Nack{Backpressure} internally.
                for chunk in reports.chunks(128) {
                    client.submit_batch(chunk).expect("submit");
                }
                client.shutdown().expect("clean shutdown");
            })
        })
        .collect();
    for r in reporters {
        r.join().unwrap();
    }
    let elapsed = t0.elapsed();

    // --- 3. An in-band policy switch over the operator plane. ------------
    // After a diagnosis the configurator would push Gc; here we switch the
    // whole stream to an isolated (exact-release) policy and submit one
    // more epoch.
    let mut operator =
        GatewayClient::connect(operator_gateway.local_addr()).expect("connect operator");
    operator
        .switch_policy(&LocationPolicyGraph::isolated(grid.clone()))
        .expect("switch policy");
    for i in 0..400u32 {
        operator
            .submit(PendingReport {
                user: UserId(i),
                epoch: 99,
                cell: CellId(i % 256),
                resend: false,
            })
            .expect("submit");
    }
    operator.shutdown().expect("clean shutdown");

    // --- 4. Scrape the stats plane, then drain gracefully. ---------------
    // The same telemetry is live on the wire (operator plane) and
    // in-process; production would point a collector at the former.
    let mut scraper =
        GatewayClient::connect(operator_gateway.local_addr()).expect("connect scraper");
    let exposition = scraper.stats().expect("wire scrape");
    scraper.shutdown().expect("clean shutdown");
    println!(
        "--- final stats snapshot ({} exposition lines; counters shown) ---",
        exposition.lines().count()
    );
    for line in exposition.lines().filter(|l| {
        !l.starts_with('#')
            && !l.contains("_bucket{")
            && (l.starts_with("panda_ingest_") || l.starts_with("panda_pool_"))
    }) {
        println!("  {line}");
    }
    // Each gateway also serves its own exposition in-process; the data
    // plane's frame counters live there (scraping it over the wire is an
    // operator-plane privilege the data plane refuses).
    for line in gateway.metrics_dump().lines().filter(|l| {
        !l.starts_with('#') && !l.contains("_bucket{") && l.starts_with("panda_gateway_")
    }) {
        println!("  {line}");
    }

    // --- 5. Graceful drain: gateways first, then the pipeline. -----------
    let gw_stats = gateway.shutdown();
    let op_stats = operator_gateway.shutdown();
    let metrics = pipeline.metrics();
    let stats = pipeline.shutdown();
    println!(
        "{} data-plane connections, {} frames, {} reports acked in {:.1} ms \
         ({:.0} reports/s submit-side); operator plane acked {} + 1 switch",
        gw_stats.connections,
        gw_stats.frames,
        gw_stats.reports_enqueued,
        elapsed.as_secs_f64() * 1e3,
        6_000.0 / elapsed.as_secs_f64(),
        op_stats.reports_enqueued,
    );
    let snapshot = metrics.snapshot();
    let flush = snapshot.histogram("panda_ingest_flush_ns");
    let flush_ms = |q| flush.map_or(0.0, |h| h.quantile(q) as f64 / 1e6);
    println!(
        "pipeline landed {} in {} flushes (flush p50 {:.2} ms, p99 {:.2} ms); server holds {}",
        stats.landed,
        stats.batches,
        flush_ms(0.5),
        flush_ms(0.99),
        server.n_received(),
    );
    // Epoch 99 ran under the isolated policy: released exactly.
    let exact = (0..400u32)
        .filter(|&i| server.reported_cell(UserId(i), 99) == Some(CellId(i % 256)))
        .count();
    println!("epoch 99 under the isolated policy: {exact}/400 exact releases");
    assert_eq!(exact, 400);
    assert_eq!(stats.landed, 6_400);
}
