//! Multi-node loopback cluster tests: a [`ShardRouter`] in front of N
//! shard nodes behind shard-plane gateways must be observationally
//! identical to the single-process pipeline — byte-identical merged
//! databases for the same arrival order, across flush timings, under
//! mid-stream backpressure, with all-or-nothing policy broadcast and the
//! re-send protocol riding the same planes.

use panda_core::{GraphExponential, LocationPolicyGraph, PolicyIndex};
use panda_geo::{CellId, GridMap};
use panda_mobility::{Timestamp, UserId};
use panda_net::{
    ClientError, GatewayClient, GatewayConfig, IngestGateway, RetryPolicy, RouterConfig,
    ServerMessage, ShardBackend, ShardRouter,
};
use panda_surveillance::ingest::{IngestConfig, IngestPipeline, PendingReport};
use panda_surveillance::node::{merge_reported_dbs, ShardNode};
use panda_surveillance::protocol::PolicyAssignment;
use panda_surveillance::{shard_of, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

const HORIZON: Timestamp = 16;

fn grid() -> GridMap {
    GridMap::new(8, 8, 100.0)
}

fn index() -> Arc<PolicyIndex> {
    Arc::new(PolicyIndex::new(LocationPolicyGraph::partition(
        grid(),
        2,
        2,
    )))
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

/// The single-process database for `reports` submitted in order.
fn reference_db(
    reports: &[PendingReport],
    config: IngestConfig,
) -> Vec<panda_mobility::Trajectory> {
    let server = Arc::new(Server::new(grid()));
    let pipeline = IngestPipeline::spawn(
        Arc::clone(&server),
        index(),
        Arc::new(GraphExponential),
        config,
    );
    let handle = pipeline.handle();
    for &r in reports {
        handle.submit(&[r]).unwrap();
    }
    pipeline.shutdown();
    server.reported_db(HORIZON).trajectories().to_vec()
}

/// N shard nodes, each behind its own shard-plane gateway, with a router
/// fanning out over remote links — the full three-tier TCP topology.
struct Cluster {
    nodes: Vec<ShardNode>,
    gateways: Vec<IngestGateway>,
    router: ShardRouter,
}

fn spawn_cluster(n: usize, config: IngestConfig) -> Cluster {
    let nodes: Vec<ShardNode> = (0..n)
        .map(|_| {
            ShardNode::spawn(
                Arc::new(Server::new(grid())),
                index(),
                Arc::new(GraphExponential),
                config.clone(),
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
    let router =
        ShardRouter::bind("127.0.0.1:0", backends, RouterConfig::default()).expect("bind router");
    Cluster {
        nodes,
        gateways,
        router,
    }
}

impl Cluster {
    /// Shuts the tiers down top-to-bottom and returns the merged database.
    fn merged_db(self) -> Vec<panda_mobility::Trajectory> {
        self.router.shutdown();
        for gw in self.gateways {
            gw.shutdown();
        }
        let servers: Vec<Arc<Server>> = self
            .nodes
            .iter()
            .map(|node| Arc::clone(node.server()))
            .collect();
        for node in self.nodes {
            node.shutdown();
        }
        merge_reported_dbs(grid(), &servers, HORIZON)
            .trajectories()
            .to_vec()
    }
}

/// The acceptance criterion: a client submitting a trace through the
/// router to an N-node loopback cluster (N = 1, 2, 4) lands a merged
/// database byte-identical to the single-process pipeline fed the same
/// order — across flush timings, for batched and per-report frames.
#[test]
fn cluster_matches_single_process_pipeline() {
    let reports = trace(3_000, 42);
    let flush_configs = [
        IngestConfig {
            max_batch: 64,
            release_threads: 2,
            seed: 7,
            ..Default::default()
        },
        IngestConfig {
            max_batch: usize::MAX,
            max_delay: Duration::from_micros(200),
            release_threads: 4,
            seed: 7,
            ..Default::default()
        },
    ];
    for config in flush_configs {
        let want = reference_db(&reports, config.clone());
        for n in [1usize, 2, 4] {
            let cluster = spawn_cluster(n, config.clone());
            let mut client = GatewayClient::connect(cluster.router.local_addr()).unwrap();
            for chunk in reports.chunks(333) {
                client.submit_batch(chunk).unwrap();
            }
            client.shutdown().unwrap();
            let stats = cluster.router.stats();
            assert_eq!(stats.reports_routed as usize, reports.len());
            assert_eq!(
                cluster.merged_db(),
                want,
                "{n}-node cluster diverged (max_batch={})",
                config.max_batch
            );
        }
    }
}

/// One shard backpressuring mid-stream must not break byte-identity: the
/// router nacks the honest accepted prefix, the client's retry resumes
/// from it, and retried positions keep their originally-reserved stamps —
/// nothing lost, nothing double-counted, same bytes.
#[test]
fn cluster_backpressure_mid_stream_keeps_byte_identity() {
    let reports = trace(1_200, 99);
    let config = IngestConfig {
        max_batch: 64,
        release_threads: 2,
        seed: 7,
        ..Default::default()
    };
    let want = reference_db(&reports, config.clone());

    // Node 0 gets a 2-slot queue (and a slow drain): most frames hit a
    // full shard and must be retried; node 1 keeps the default capacity,
    // so shards fill unevenly and accepted prefixes get holes.
    let throttled = IngestConfig {
        queue_capacity: 2,
        ..config.clone()
    };
    let nodes = vec![
        ShardNode::spawn(
            Arc::new(Server::new(grid())),
            index(),
            Arc::new(GraphExponential),
            throttled,
        ),
        ShardNode::spawn(
            Arc::new(Server::new(grid())),
            index(),
            Arc::new(GraphExponential),
            config,
        ),
    ];
    let gateways: Vec<IngestGateway> = nodes
        .iter()
        .map(|node| {
            IngestGateway::bind_with("127.0.0.1:0", node.handle(), GatewayConfig::shard_plane())
                .unwrap()
        })
        .collect();
    let backends = gateways
        .iter()
        .map(|gw| ShardBackend::remote(GatewayClient::connect(gw.local_addr()).unwrap()))
        .collect();
    let router = ShardRouter::bind("127.0.0.1:0", backends, RouterConfig::default()).unwrap();

    let mut client = GatewayClient::connect(router.local_addr())
        .unwrap()
        .with_retry(RetryPolicy {
            max_attempts: 100_000,
            backoff: Duration::from_micros(200),
        });
    for chunk in reports.chunks(64) {
        client.submit_batch(chunk).unwrap();
    }
    assert!(
        client.backpressure_retries() > 0,
        "a 2-slot shard must backpressure 64-report frames"
    );
    client.shutdown().unwrap();
    let stats = router.stats();
    assert!(stats.backpressure_nacks > 0);
    assert_eq!(stats.reports_routed as usize, reports.len());
    let cluster = Cluster {
        nodes,
        gateways,
        router,
    };
    assert_eq!(
        cluster.merged_db(),
        want,
        "mid-stream backpressure broke cluster byte-identity"
    );
}

/// An operator-plane `SwitchPolicy` through the router is all-or-nothing:
/// with every shard up it lands on all of them; with one shard down, the
/// ones that switched are rolled back to the previous policy and the
/// operator is nacked — no split-policy cluster.
#[test]
fn policy_broadcast_is_all_or_nothing_with_rollback() {
    let grid = grid();
    let policy_a = LocationPolicyGraph::partition(grid.clone(), 4, 4);
    let policy_b = LocationPolicyGraph::isolated(grid.clone());

    let Cluster {
        nodes,
        gateways,
        mut router,
    } = spawn_cluster(2, IngestConfig::default());
    let operator_addr = router.bind_operator("127.0.0.1:0").unwrap();
    let mut operator = GatewayClient::connect(operator_addr).unwrap();

    // Both shards up: the broadcast lands everywhere.
    operator.switch_policy(&policy_a).unwrap();
    assert_eq!(router.stats().policy_switches, 1);

    // Shard 1 down (its node shut down, so its gateway nacks `Closed`):
    // the broadcast must fail as a unit, and shard 0 — which took
    // policy_b first — must be rolled back to policy_a.
    let mut nodes = nodes.into_iter();
    let survivor = nodes.next().unwrap();
    nodes.next().unwrap().shutdown();
    assert!(matches!(
        operator.switch_policy(&policy_b),
        Err(ClientError::Closed)
    ));
    let stats = router.stats();
    assert_eq!(
        stats.policy_switches, 1,
        "the failed broadcast must not count"
    );
    assert_eq!(stats.policy_rollbacks, 1);
    operator.shutdown().unwrap();
    router.shutdown();
    for gw in gateways {
        gw.shutdown();
    }
    // Shard 0 saw: policy_a, policy_b, then the rollback to policy_a.
    let survivor_stats = survivor.shutdown();
    assert_eq!(survivor_stats.policy_switches, 3);
}

/// The router's stats plane: the operator listener serves the routing
/// tier's exposition (fan-out batch sizes, routed totals), the shard-plane
/// gateways each serve their node's merged exposition, and the router's
/// data plane refuses the scrape.
#[test]
#[cfg_attr(
    panda_obs_off,
    ignore = "reads the fan-out batch-size histogram, which is telemetry"
)]
fn router_and_shard_planes_serve_stats() {
    let cluster = spawn_cluster(2, IngestConfig::default());
    let mut router = cluster.router;
    let operator_addr = router.bind_operator("127.0.0.1:0").unwrap();

    let reports = trace(500, 17);
    let mut client = GatewayClient::connect(router.local_addr()).unwrap();
    for chunk in reports.chunks(100) {
        client.submit_batch(chunk).unwrap();
    }

    let mut operator = GatewayClient::connect(operator_addr).unwrap();
    let text = operator.stats().unwrap();
    assert!(text.contains("panda_router_reports_routed_total 500"));
    assert!(text.contains("# TYPE panda_router_fanout_batch_reports histogram"));
    assert!(text.contains("panda_router_fanout_batch_reports_count 10"));
    // The in-process dump serves the same plane (the scrape frame itself
    // records its own latency after rendering, so only the counters are
    // compared, not the frame histogram).
    let dump = router.metrics_dump();
    assert!(dump.contains("panda_router_reports_routed_total 500"));
    assert!(dump.contains("panda_router_fanout_batches_total 10"));

    // Shard-plane gateways are scrapeable too: each node's landed total is
    // visible at its gateway, and the two sum to the routed total.
    let mut landed = 0u64;
    for gw in &cluster.gateways {
        let mut shard_client = GatewayClient::connect(gw.local_addr()).unwrap();
        let t0 = std::time::Instant::now();
        landed += loop {
            let text = shard_client.stats().unwrap();
            if let Some(n) = text.lines().find_map(|l| {
                l.strip_prefix("panda_ingest_landed_reports_total ")
                    .and_then(|v| v.parse::<u64>().ok())
            }) {
                if n > 0 {
                    break n;
                }
            }
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "shard scrape never showed landings:\n{text}"
            );
            std::thread::sleep(Duration::from_millis(2));
        };
        shard_client.shutdown().unwrap();
    }
    // Both shards keep landing after the scrape polls; once quiesced the
    // stripes must account for every routed report.
    let t0 = std::time::Instant::now();
    loop {
        let total: usize = cluster.nodes.iter().map(|n| n.server().n_received()).sum();
        if total == reports.len() {
            break;
        }
        assert!(t0.elapsed() < Duration::from_secs(10), "landings stalled");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(landed > 0 && landed <= reports.len() as u64);

    // The router's data plane refuses the scrape.
    assert!(
        client.stats().is_err(),
        "the data plane must not serve the stats frame"
    );
    operator.shutdown().unwrap();
    router.shutdown();
    for gw in cluster.gateways {
        gw.shutdown();
    }
    for node in cluster.nodes {
        node.shutdown();
    }
}

/// The re-send protocol rides the router's planes: an operator push on
/// the privileged listener is collected by the user's data-plane fetch,
/// and the re-released `Report` lands verbatim on the user's shard.
#[test]
fn router_carries_the_resend_protocol_to_the_right_shard() {
    let cluster = spawn_cluster(2, IngestConfig::default());
    let mut router = cluster.router;
    let operator_addr = router.bind_operator("127.0.0.1:0").unwrap();
    let user = UserId(7);
    let shard = shard_of(user, 2);

    let mut operator = GatewayClient::connect(operator_addr).unwrap();
    let assignment = PolicyAssignment {
        user,
        policy: LocationPolicyGraph::partition(grid(), 4, 4),
        eps_per_epoch: 0.5,
        effective_from: 3,
    };
    operator.push_assignment(&assignment).unwrap();

    let mut reporter = GatewayClient::connect(router.local_addr()).unwrap();
    match reporter.fetch(user).unwrap() {
        Some(ServerMessage::Assign(a)) => {
            assert_eq!(a.user, user);
            assert_eq!(a.effective_from, 3);
        }
        other => panic!("expected the pushed assignment, got {other:?}"),
    }
    assert!(reporter.fetch(user).unwrap().is_none());
    // A data-plane client must not be able to push server messages.
    assert!(matches!(
        reporter.push_assignment(&assignment),
        Err(ClientError::Rejected)
    ));

    // The re-released report (as the re-send protocol would produce it)
    // lands verbatim on the user's shard.
    let mut reporter = GatewayClient::connect(router.local_addr()).unwrap();
    reporter
        .send_report(panda_surveillance::protocol::LocationReport {
            user,
            epoch: 3,
            cell: CellId(42),
            resend: true,
        })
        .unwrap();
    reporter.shutdown().unwrap();
    operator.shutdown().unwrap();
    assert_eq!(router.stats().fetches_served, 1);
    router.shutdown();
    for gw in cluster.gateways {
        gw.shutdown();
    }
    let servers: Vec<Arc<Server>> = cluster
        .nodes
        .iter()
        .map(|node| Arc::clone(node.server()))
        .collect();
    for node in cluster.nodes {
        node.shutdown();
    }
    assert_eq!(servers[shard].reported_cell(user, 3), Some(CellId(42)));
    assert_eq!(servers[shard].n_resends(), 1);
    assert_eq!(servers[1 - shard].n_received(), 0);
}
