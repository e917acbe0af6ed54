//! End-to-end loopback tests for the TCP ingest gateway: the determinism
//! contract (TCP delivery ≡ in-process submission), hostile-input
//! survival, wire-visible backpressure, and the no-acked-report-lost
//! shutdown drain.

use panda_core::{GraphExponential, LocationPolicyGraph, PolicyIndex};
use panda_geo::{CellId, GridMap};
use panda_mobility::{Timestamp, UserId};
use panda_net::wire::{decode_frame, encode_to_vec, HEADER_LEN, MAGIC, VERSION};
use panda_net::{
    ClientError, Frame, GatewayClient, GatewayConfig, IngestGateway, NackReason, RetryPolicy,
    ServerMessage,
};
use panda_surveillance::client::{Client, ClientConfig};
use panda_surveillance::ingest::{IngestConfig, IngestPipeline, PendingReport};
use panda_surveillance::protocol::ResendRequest;
use panda_surveillance::Server;
use rand::rngs::{SmallRng, StdRng};
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn setup(shards: usize) -> (Arc<Server>, Arc<PolicyIndex>) {
    let grid = GridMap::new(8, 8, 100.0);
    let server = Arc::new(Server::with_shards(grid.clone(), shards));
    let index = Arc::new(PolicyIndex::new(LocationPolicyGraph::partition(grid, 2, 2)));
    (server, index)
}

fn spawn_stack(config: IngestConfig) -> (Arc<Server>, IngestPipeline, IngestGateway) {
    let (server, index) = setup(16);
    let pipeline = IngestPipeline::spawn(
        Arc::clone(&server),
        index,
        Arc::new(GraphExponential),
        config,
    );
    let gateway = IngestGateway::bind("127.0.0.1:0", pipeline.handle()).expect("bind loopback");
    (server, pipeline, gateway)
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

/// The acceptance criterion: a single client submitting a trace over
/// loopback TCP lands a database byte-identical to in-process
/// `IngestHandle::submit` with the same arrival order — across flush
/// timings and lane counts, and for both per-report and batched frames.
#[test]
fn tcp_delivery_matches_in_process_submission() {
    let trace = trace(2_000, 41);
    let horizon = 16;
    let flush_configs = [
        IngestConfig {
            max_batch: 512,
            release_threads: 1,
            seed: 9,
            ..Default::default()
        },
        IngestConfig {
            max_batch: 64,
            release_threads: 4,
            seed: 9,
            ..Default::default()
        },
        IngestConfig {
            max_batch: usize::MAX,
            max_delay: Duration::from_micros(200),
            release_threads: 8,
            seed: 9,
            ..Default::default()
        },
    ];
    for config in flush_configs {
        // In-process reference.
        let (ref_server, index) = setup(16);
        let ref_pipeline = IngestPipeline::spawn(
            Arc::clone(&ref_server),
            index,
            Arc::new(GraphExponential),
            config.clone(),
        );
        let handle = ref_pipeline.handle();
        for &r in &trace {
            handle.submit(&[r]).unwrap();
        }
        let ref_stats = ref_pipeline.shutdown();
        assert_eq!(ref_stats.landed, trace.len());
        let ref_db = ref_server.reported_db(horizon);

        // One report per frame.
        let (server, pipeline, gateway) = spawn_stack(config.clone());
        let mut client = GatewayClient::connect(gateway.local_addr()).unwrap();
        for &r in &trace {
            client.submit(r).unwrap();
        }
        client.shutdown().unwrap();
        gateway.shutdown();
        let stats = pipeline.shutdown();
        assert_eq!(stats.landed, trace.len());
        assert_eq!(
            server.reported_db(horizon).trajectories(),
            ref_db.trajectories(),
            "per-report TCP delivery diverged (lanes={}, max_batch={})",
            config.release_threads,
            config.max_batch
        );

        // Batched frames (mixed chunk sizes).
        let (server, pipeline, gateway) = spawn_stack(config.clone());
        let mut client = GatewayClient::connect(gateway.local_addr()).unwrap();
        for chunk in trace.chunks(333) {
            client.submit_batch(chunk).unwrap();
        }
        client.shutdown().unwrap();
        gateway.shutdown();
        let stats = pipeline.shutdown();
        assert_eq!(stats.landed, trace.len());
        assert_eq!(
            server.reported_db(horizon).trajectories(),
            ref_db.trajectories(),
            "batched TCP delivery diverged (lanes={}, max_batch={})",
            config.release_threads,
            config.max_batch
        );
    }
}

/// An in-band `SwitchPolicy` over the wire (on an operator-plane
/// listener) is the same clean boundary as the in-process switch:
/// everything after it releases under the new policy.
#[test]
fn switch_policy_over_the_wire_is_a_clean_boundary() {
    let grid = GridMap::new(8, 8, 100.0);
    let server = Arc::new(Server::new(grid.clone()));
    let coarse = Arc::new(PolicyIndex::new(LocationPolicyGraph::partition(
        grid.clone(),
        4,
        4,
    )));
    let isolated = LocationPolicyGraph::isolated(grid);
    let pipeline = IngestPipeline::spawn(
        Arc::clone(&server),
        coarse,
        Arc::new(GraphExponential),
        IngestConfig::default(),
    );
    let gateway =
        IngestGateway::bind_with("127.0.0.1:0", pipeline.handle(), GatewayConfig::operator())
            .unwrap();
    let mut client = GatewayClient::connect(gateway.local_addr()).unwrap();
    let epoch0: Vec<PendingReport> = (0..50u32)
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
    client.submit_batch(&epoch0).unwrap();
    client.switch_policy(&isolated).unwrap();
    client.submit_batch(&epoch1).unwrap();
    client.shutdown().unwrap();
    let gw_stats = gateway.shutdown();
    assert_eq!(gw_stats.policy_switches, 1);
    let stats = pipeline.shutdown();
    assert_eq!(stats.landed, 100);
    assert_eq!(stats.policy_switches, 1);
    for i in 0..50u32 {
        assert_eq!(
            server.reported_cell(UserId(i), 1),
            Some(CellId(i % 64)),
            "isolated policy must release exactly after the wire switch"
        );
    }
}

/// The re-send protocol round-trips over TCP with budget accounting
/// identical to the in-process path: the operator pushes a
/// `ResendRequest` on its plane, the reporter's `Fetch` poll collects it
/// on the data plane, `Client::handle_resend` charges the same ledger
/// either way, and the re-released reports land the same database bytes.
#[test]
fn resend_over_tcp_matches_in_process_budget_and_db() {
    let grid = GridMap::new(8, 8, 100.0);
    let initial = LocationPolicyGraph::partition(grid.clone(), 2, 2);
    let request = ResendRequest {
        user: UserId(7),
        from: 2,
        to: 8,
        policy: LocationPolicyGraph::partition(grid, 4, 4),
        eps_per_epoch: 0.5,
    };
    let make_client = || {
        let mut c = Client::new(
            UserId(7),
            ClientConfig::default(),
            initial.clone(),
            Box::new(GraphExponential),
            0.5,
        );
        for t in 0..10 {
            c.observe(t, CellId(t % 64));
        }
        c
    };

    // In-process reference: handle the request directly, land the
    // re-released reports through the pipeline.
    let (ref_server, index) = setup(16);
    let ref_pipeline = IngestPipeline::spawn(
        Arc::clone(&ref_server),
        index,
        Arc::new(GraphExponential),
        IngestConfig::default(),
    );
    let mut alice = make_client();
    let mut rng = SmallRng::seed_from_u64(5);
    let reports = alice.handle_resend(&request, &mut rng).unwrap();
    assert!(!reports.is_empty(), "the window must re-send something");
    ref_pipeline.handle().submit(&reports).unwrap();
    ref_pipeline.shutdown();

    // Over the wire: same request, same client state, same rng seed —
    // pushed through the operator plane and fetched from the data plane.
    let (server, index) = setup(16);
    let pipeline = IngestPipeline::spawn(
        Arc::clone(&server),
        index,
        Arc::new(GraphExponential),
        IngestConfig::default(),
    );
    let gateway = IngestGateway::bind("127.0.0.1:0", pipeline.handle()).unwrap();
    let operator_gw = IngestGateway::bind_shared(
        "127.0.0.1:0",
        pipeline.handle(),
        GatewayConfig::operator(),
        gateway.mailbox(),
    )
    .unwrap();
    let mut operator = GatewayClient::connect(operator_gw.local_addr()).unwrap();
    operator.push_resend(&request).unwrap();

    let mut reporter = GatewayClient::connect(gateway.local_addr()).unwrap();
    let fetched = match reporter.fetch(UserId(7)).unwrap() {
        Some(ServerMessage::Resend(r)) => r,
        other => panic!("expected the pushed resend request, got {other:?}"),
    };
    assert!(
        reporter.fetch(UserId(7)).unwrap().is_none(),
        "one push, one fetch"
    );
    let mut bob = make_client();
    let mut rng = SmallRng::seed_from_u64(5);
    let wire_reports = bob.handle_resend(&fetched, &mut rng).unwrap();
    assert_eq!(wire_reports, reports, "transport must not change releases");
    assert_eq!(
        bob.budget_remaining(),
        alice.budget_remaining(),
        "budget accounting must not depend on the transport"
    );
    for &r in &wire_reports {
        reporter.send_report(r).unwrap();
    }
    reporter.shutdown().unwrap();
    operator.shutdown().unwrap();
    let gw_stats = gateway.shutdown();
    assert_eq!(gw_stats.fetches_served, 1);
    operator_gw.shutdown();
    pipeline.shutdown();
    assert_eq!(server.n_resends(), ref_server.n_resends());
    assert_eq!(
        server.reported_db(16).trajectories(),
        ref_server.reported_db(16).trajectories(),
        "re-sent reports over TCP diverged from the in-process landing"
    );
}

/// Backpressure surfaces on the wire: a queue bounded far below the batch
/// size forces `Nack{Backpressure}` with a partial prefix, the client's
/// retry loop rides it out, and every report still lands exactly once in
/// order.
#[test]
fn saturated_queue_yields_backpressure_nacks_and_client_retries() {
    let trace = trace(400, 77);
    let (server, index) = setup(16);
    let pipeline = IngestPipeline::spawn(
        Arc::clone(&server),
        index,
        Arc::new(GraphExponential),
        IngestConfig {
            // A 2-slot queue: every 64-report frame can enqueue at most 2
            // before the gateway must nack — backpressure is guaranteed,
            // not scheduling-dependent.
            queue_capacity: 2,
            max_batch: 64,
            ..Default::default()
        },
    );
    let gateway = IngestGateway::bind("127.0.0.1:0", pipeline.handle()).unwrap();
    let mut client = GatewayClient::connect(gateway.local_addr())
        .unwrap()
        .with_retry(RetryPolicy {
            max_attempts: 10_000,
            backoff: Duration::from_micros(200),
        });
    for chunk in trace.chunks(64) {
        client.submit_batch(chunk).unwrap();
    }
    assert!(
        client.backpressure_retries() > 0,
        "a 2-slot queue must nack 64-report frames"
    );
    client.shutdown().unwrap();
    let gw_stats = gateway.shutdown();
    assert!(gw_stats.backpressure_nacks > 0);
    assert_eq!(gw_stats.reports_enqueued as usize, trace.len());
    let stats = pipeline.shutdown();
    assert_eq!(stats.landed, trace.len(), "every acked report lands");
    assert_eq!(server.n_received(), trace.len());
}

/// Submissions against a shut-down pipeline are refused with
/// `Nack{Closed}`, surfaced by the SDK as [`ClientError::Closed`] — the
/// gateway itself stays responsive.
#[test]
fn closed_pipeline_surfaces_as_closed() {
    let (server, index) = setup(4);
    let pipeline = IngestPipeline::spawn(
        server,
        index,
        Arc::new(GraphExponential),
        IngestConfig::default(),
    );
    let gateway = IngestGateway::bind("127.0.0.1:0", pipeline.handle()).unwrap();
    pipeline.shutdown();
    let mut client = GatewayClient::connect(gateway.local_addr()).unwrap();
    let r = PendingReport {
        user: UserId(0),
        epoch: 0,
        cell: CellId(0),
        resend: false,
    };
    assert!(matches!(client.submit(r), Err(ClientError::Closed)));
    assert!(matches!(
        client.submit_batch(&[r; 3]),
        Err(ClientError::Closed)
    ));
    let stats = gateway.shutdown();
    assert!(stats.closed_nacks >= 2);
}

/// Hostile bytes — garbage, wrong version, oversize length, a truncated
/// frame, a protocol-violating (server → client) frame — get
/// `Nack{Malformed}` and/or a dropped connection, and the pipeline keeps
/// serving well-behaved clients afterwards.
#[test]
fn hostile_input_closes_the_connection_without_poisoning_the_pipeline() {
    let (server, pipeline, gateway) = spawn_stack(IngestConfig::default());
    let addr = gateway.local_addr();

    let read_reply = |stream: &mut TcpStream| -> Option<Frame> {
        let mut bytes = Vec::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut chunk = [0u8; 1024];
        loop {
            if let Ok((frame, _)) = decode_frame(&bytes) {
                return Some(frame);
            }
            match stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => bytes.extend_from_slice(&chunk[..n]),
                Err(_) => return None,
            }
        }
    };
    let expect_malformed_then_close = |payload: &[u8]| {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(payload).unwrap();
        match read_reply(&mut stream) {
            Some(Frame::Nack {
                reason: NackReason::Malformed,
                ..
            }) => {}
            other => panic!("expected Nack::Malformed, got {other:?}"),
        }
        // The gateway closes after the nack: the next read is EOF.
        let mut rest = Vec::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            matches!(stream.read_to_end(&mut rest), Ok(0)),
            "connection must be closed after a malformed frame"
        );
    };

    // Pure garbage.
    expect_malformed_then_close(b"GET / HTTP/1.1\r\n\r\n");
    // Right magic, wrong version.
    let mut wrong_version = encode_to_vec(&Frame::Shutdown);
    wrong_version[4] = VERSION + 1;
    expect_malformed_then_close(&wrong_version);
    // Hostile length field (would be 4 GiB).
    let mut oversize = Vec::new();
    oversize.extend_from_slice(&MAGIC);
    oversize.push(VERSION);
    oversize.push(0x01);
    oversize.extend_from_slice(&[0, 0]);
    oversize.extend_from_slice(&u32::MAX.to_le_bytes());
    expect_malformed_then_close(&oversize);
    // A server → client frame at the server.
    expect_malformed_then_close(&encode_to_vec(&Frame::Ack { accepted: 1 }));
    // A policy switch on the data plane: valid wire bytes, but a
    // privileged operation untrusted reporters must not perform — the
    // privacy policy of every other client is not theirs to rewrite.
    expect_malformed_then_close(&encode_to_vec(&Frame::SwitchPolicy(
        LocationPolicyGraph::isolated(GridMap::new(8, 8, 100.0)),
    )));
    // A batch whose count field lies about the payload.
    let mut lying = encode_to_vec(&Frame::SubmitBatch(vec![
        PendingReport {
            user: UserId(1),
            epoch: 0,
            cell: CellId(1),
            resend: false,
        };
        2
    ]));
    lying[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&9999u32.to_le_bytes());
    expect_malformed_then_close(&lying);

    // A truncated frame followed by a silent close: no reply owed, and no
    // harm done.
    let mut stream = TcpStream::connect(addr).unwrap();
    let full = encode_to_vec(&Frame::Submit(PendingReport {
        user: UserId(3),
        epoch: 0,
        cell: CellId(3),
        resend: false,
    }));
    stream.write_all(&full[..full.len() - 2]).unwrap();
    drop(stream);

    // After all of that, a well-behaved client still gets clean service.
    let survivors = trace(200, 3);
    let mut client = GatewayClient::connect(addr).unwrap();
    client.submit_batch(&survivors).unwrap();
    client.shutdown().unwrap();
    let gw_stats = gateway.shutdown();
    assert!(gw_stats.malformed_nacks >= 5);
    assert_eq!(gw_stats.reports_enqueued as usize, survivors.len());
    let stats = pipeline.shutdown();
    assert_eq!(stats.landed, survivors.len());
    assert_eq!(server.n_received(), survivors.len());
}

/// The graceful-shutdown drain: reports acked before `gateway.shutdown()`
/// are all landed by the subsequent pipeline shutdown, even with the
/// client connection still open and a flush policy that never fires on
/// its own.
#[test]
fn shutdown_drain_loses_no_acked_report() {
    let trace = trace(700, 13);
    let (server, pipeline, gateway) = spawn_stack(IngestConfig {
        // Neither flush bound fires before shutdown: the drain does all
        // the landing.
        max_batch: usize::MAX,
        max_delay: Duration::from_secs(3600),
        ..Default::default()
    });
    let mut client = GatewayClient::connect(gateway.local_addr()).unwrap();
    client.submit_batch(&trace[..500]).unwrap();
    for &r in &trace[500..] {
        client.submit(r).unwrap();
    }
    // No client shutdown, no frame in flight: kill the gateway under the
    // open connection.
    let gw_stats = gateway.shutdown();
    assert_eq!(gw_stats.reports_enqueued as usize, trace.len());
    let stats = pipeline.shutdown();
    assert_eq!(stats.landed, trace.len(), "acked ⇒ landed");
    assert_eq!(server.n_received(), trace.len());
    // The abandoned client observes the close, not a hang.
    let r = trace[0];
    assert!(client.submit(r).is_err());
}

/// The idle deadline: a silent connection is dropped (freeing its
/// `max_connections` slot) while an active one lives on — idle sockets
/// cannot pin the cap and starve real clients.
#[test]
fn idle_connections_are_dropped() {
    let (server, index) = setup(4);
    let pipeline = IngestPipeline::spawn(
        Arc::clone(&server),
        index,
        Arc::new(GraphExponential),
        IngestConfig::default(),
    );
    let gateway = IngestGateway::bind_with(
        "127.0.0.1:0",
        pipeline.handle(),
        GatewayConfig {
            idle_timeout: Duration::from_millis(100),
            poll_interval: Duration::from_millis(10),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = gateway.local_addr();
    // A silent socket: the server must hang up on it.
    let mut silent = TcpStream::connect(addr).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut sink = Vec::new();
    assert!(
        matches!(silent.read_to_end(&mut sink), Ok(0)),
        "an idle connection must be closed by the gateway"
    );
    // An active client with pauses below the deadline keeps its session.
    let mut client = GatewayClient::connect(addr).unwrap();
    let r = PendingReport {
        user: UserId(1),
        epoch: 0,
        cell: CellId(1),
        resend: false,
    };
    for _ in 0..4 {
        client.submit(r).unwrap();
        std::thread::sleep(Duration::from_millis(40));
    }
    client.shutdown().unwrap();
    gateway.shutdown();
    let stats = pipeline.shutdown();
    assert_eq!(stats.landed, 4);
    assert_eq!(server.n_received(), 4);
}

/// The connection cap: beyond `max_connections` live connections, new
/// ones are dropped (no thread, no buffers) until one closes — an open
/// port cannot be made to mint unbounded threads.
#[test]
fn connection_cap_rejects_excess_clients() {
    let (server, index) = setup(4);
    let pipeline = IngestPipeline::spawn(
        Arc::clone(&server),
        index,
        Arc::new(GraphExponential),
        IngestConfig::default(),
    );
    let gateway = IngestGateway::bind_with(
        "127.0.0.1:0",
        pipeline.handle(),
        GatewayConfig {
            max_connections: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = gateway.local_addr();
    let r = PendingReport {
        user: UserId(1),
        epoch: 0,
        cell: CellId(1),
        resend: false,
    };
    let mut a = GatewayClient::connect(addr).unwrap();
    let mut b = GatewayClient::connect(addr).unwrap();
    a.submit(r).unwrap();
    b.submit(r).unwrap();
    // Both slots taken: the third connection is dropped without service.
    let mut c = GatewayClient::connect(addr).unwrap();
    assert!(
        c.submit(r).is_err(),
        "a capped-out connection must not be served"
    );
    let t0 = std::time::Instant::now();
    while gateway.stats().rejected_connections == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "rejected connection never counted"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // Freeing a slot re-opens the door (the reap runs on later accepts).
    a.shutdown().unwrap();
    let t0 = std::time::Instant::now();
    loop {
        let mut d = GatewayClient::connect(addr).unwrap();
        if d.submit(r).is_ok() {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "slot never became available after a client closed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    b.shutdown().unwrap();
    gateway.shutdown();
    let stats = pipeline.shutdown();
    assert_eq!(stats.landed, 3);
}

/// The wire-scrapeable stats plane: a privileged client scrapes the
/// gateway's merged exposition over live loopback TCP and sees the
/// gateway, pipeline, index, and per-stripe server counters move — while
/// the untrusted data plane refuses the same request.
#[test]
#[cfg_attr(
    panda_obs_off,
    ignore = "waits on panda_ingest_landed_reports_total, which is telemetry"
)]
fn stats_scrape_over_the_wire() {
    let (_server, index) = setup(16);
    let pipeline = IngestPipeline::spawn(
        _server,
        index,
        Arc::new(GraphExponential),
        IngestConfig {
            max_batch: 10,
            ..Default::default()
        },
    );
    let gateway = IngestGateway::bind("127.0.0.1:0", pipeline.handle()).unwrap();
    let operator_gw = IngestGateway::bind_shared(
        "127.0.0.1:0",
        pipeline.handle(),
        GatewayConfig::operator(),
        gateway.mailbox(),
    )
    .unwrap();

    let mut reporter = GatewayClient::connect(gateway.local_addr()).unwrap();
    reporter.submit_batch(&trace(100, 11)).unwrap();

    let mut operator = GatewayClient::connect(operator_gw.local_addr()).unwrap();
    let t0 = std::time::Instant::now();
    let text = loop {
        let text = operator.stats().unwrap();
        if text.contains("panda_ingest_landed_reports_total 100") {
            break text;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "scrape never caught up:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(2));
    };
    // One exposition carries every scope: the serving gateway's own
    // counters, the pipeline's, and the handles it adopted from its
    // neighbours (index, server stripes).
    assert!(text.contains("# TYPE panda_gateway_frames_total counter"));
    assert!(text.contains("panda_ingest_submitted_reports_total 100"));
    assert!(text.contains("panda_ingest_flush_ns_count"));
    assert!(text.contains("panda_index_distribution_touches_total"));
    let striped: u64 = text
        .lines()
        .filter(|l| l.starts_with("panda_server_shard_") && l.contains("_received_total "))
        .map(|l| l.split_whitespace().last().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(striped, 100, "per-stripe landings must sum to the batch");
    // The in-process dump serves the same plane without a socket.
    assert!(gateway
        .metrics_dump()
        .contains("# TYPE panda_gateway_frames_total counter"));

    // The data plane refuses the scrape: stats are operator business.
    assert!(
        reporter.stats().is_err(),
        "an untrusted reporter must not scrape the stats plane"
    );

    operator.shutdown().unwrap();
    gateway.shutdown();
    operator_gw.shutdown();
    pipeline.shutdown();
}

/// The telemetry non-interference contract, end to end: an operator
/// scraping the stats plane as fast as it can, concurrent with a seeded
/// ingest stream, must not move a single released byte relative to an
/// unobserved run with the same seed and arrival order.
#[test]
fn concurrent_scraping_never_perturbs_the_landed_db() {
    let trace = trace(2_000, 59);
    let horizon = 16;
    let config = IngestConfig {
        max_batch: 64,
        release_threads: 4,
        seed: 21,
        ..Default::default()
    };

    // Unobserved reference run.
    let (ref_server, index) = setup(16);
    let ref_pipeline = IngestPipeline::spawn(
        Arc::clone(&ref_server),
        index,
        Arc::new(GraphExponential),
        config.clone(),
    );
    for &r in &trace {
        ref_pipeline.handle().submit(&[r]).unwrap();
    }
    ref_pipeline.shutdown();
    let ref_db = ref_server.reported_db(horizon);

    // Same run with a scraper hammering the stats plane throughout.
    let (server, index) = setup(16);
    let pipeline = IngestPipeline::spawn(
        Arc::clone(&server),
        index,
        Arc::new(GraphExponential),
        config,
    );
    let gateway = IngestGateway::bind("127.0.0.1:0", pipeline.handle()).unwrap();
    let operator_gw = IngestGateway::bind_shared(
        "127.0.0.1:0",
        pipeline.handle(),
        GatewayConfig::operator(),
        gateway.mailbox(),
    )
    .unwrap();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        let addr = operator_gw.local_addr();
        std::thread::spawn(move || {
            let mut client = GatewayClient::connect(addr).unwrap();
            let mut scrapes = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                assert!(!client.stats().unwrap().is_empty());
                scrapes += 1;
            }
            client.shutdown().unwrap();
            scrapes
        })
    };
    let mut client = GatewayClient::connect(gateway.local_addr()).unwrap();
    for chunk in trace.chunks(100) {
        client.submit_batch(chunk).unwrap();
    }
    client.shutdown().unwrap();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let scrapes = scraper.join().unwrap();
    assert!(scrapes > 0, "the scraper must have observed the run");
    gateway.shutdown();
    operator_gw.shutdown();
    let stats = pipeline.shutdown();
    assert_eq!(stats.landed, trace.len());
    assert_eq!(
        server.reported_db(horizon).trajectories(),
        ref_db.trajectories(),
        "a concurrent stats scraper must never perturb released bytes"
    );
}

/// Many concurrent clients: all reports land exactly once, the per-client
/// per-frame ack discipline holds, and shutdown drains everyone.
#[test]
fn concurrent_clients_all_land() {
    let (server, pipeline, gateway) = spawn_stack(IngestConfig {
        max_batch: 256,
        ..Default::default()
    });
    let addr = gateway.local_addr();
    let per_client = 1_500usize;
    let clients: Vec<_> = (0..4u32)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = GatewayClient::connect(addr).unwrap();
                let reports: Vec<PendingReport> = (0..per_client as u32)
                    .map(|i| PendingReport {
                        user: UserId(c * 100_000 + i % 300),
                        epoch: (i / 300) as Timestamp,
                        cell: CellId(i % 64),
                        resend: false,
                    })
                    .collect();
                for chunk in reports.chunks(128) {
                    client.submit_batch(chunk).unwrap();
                }
                client.shutdown().unwrap();
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    let gw_stats = gateway.shutdown();
    assert_eq!(gw_stats.connections, 4);
    assert_eq!(gw_stats.reports_enqueued as usize, 4 * per_client);
    let stats = pipeline.shutdown();
    assert_eq!(stats.landed, 4 * per_client);
    assert_eq!(server.n_received(), 4 * per_client);
}
