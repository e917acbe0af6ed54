//! Spawning and tearing down the system under test: one `IngestGateway`
//! over an `IngestPipeline`, or a `ShardRouter` over shard nodes behind
//! shard-plane gateways — all over loopback TCP.

use crate::workload::Workload;
use panda_core::{GraphExponential, LocationPolicyGraph, PolicyIndex};
use panda_net::{
    GatewayClient, GatewayConfig, GatewayStats, IngestGateway, RetryPolicy, RouterConfig,
    RouterStats, ShardBackend, ShardRouter,
};
use panda_surveillance::ingest::{IngestConfig, IngestHandle, IngestPipeline, IngestStats};
use panda_surveillance::node::ShardNode;
use panda_surveillance::Server;
use std::sync::Arc;
use std::time::Duration;

/// Lock stripes per `Server`.
pub const STRIPES: usize = 16;

/// The data-plane client's backpressure budget. Closed-loop rounds keep the
/// queue full on purpose, and on the city a cold table build can hold the
/// collector past the default budget (256 × 0.5 ms), so the client waits up
/// to 10 s without progress before giving up.
fn data_client(addr: std::net::SocketAddr) -> GatewayClient {
    GatewayClient::connect(addr)
        .expect("connect data plane")
        .with_retry(RetryPolicy {
            max_attempts: 20_000,
            backoff: Duration::from_micros(500),
        })
}

/// The pipeline settings every node runs with.
pub fn ingest_config(release_seed: u64) -> IngestConfig {
    IngestConfig {
        max_batch: 256,
        max_delay: Duration::from_millis(1),
        queue_capacity: 16_384,
        eps: crate::workload::EPS,
        seed: release_seed,
        ..Default::default()
    }
}

enum Tier {
    Gateway {
        pipeline: IngestPipeline,
        data: IngestGateway,
        operator: IngestGateway,
    },
    Cluster {
        nodes: Vec<ShardNode>,
        gateways: Vec<IngestGateway>,
        router: ShardRouter,
    },
}

/// A running system plus the connected data-plane and operator clients.
pub struct System {
    tier: Tier,
    /// The servers that own landed reports, in shard order.
    pub servers: Vec<Arc<Server>>,
    /// The queue of each owning pipeline, in shard order.
    pub queues: Vec<IngestHandle>,
    /// The index each pipeline started with, held for its cache counters.
    pub indexes: Vec<Arc<PolicyIndex>>,
    pub client: GatewayClient,
    pub operator: GatewayClient,
}

/// What is left to read once the system has shut down.
pub struct Teardown {
    pub ingest: Vec<IngestStats>,
    /// The gateways feeding the owning pipelines.
    pub gateways: Vec<GatewayStats>,
    pub router: Option<RouterStats>,
    /// `metrics_dump()` of each owning gateway (its pipeline merged in).
    pub gateway_texts: Vec<String>,
    pub router_text: String,
}

impl System {
    /// Spawns the workload's topology under `policy` and connects both
    /// clients: everything up to the first frame.
    pub fn spawn(workload: &Workload, policy: &LocationPolicyGraph, release_seed: u64) -> System {
        let config = ingest_config(release_seed);
        let grid = policy.grid().clone();
        let mech = Arc::new(GraphExponential);
        if !workload.is_cluster() {
            let server = Arc::new(Server::with_shards(grid, STRIPES));
            let index = Arc::new(PolicyIndex::new(policy.clone()));
            let pipeline =
                IngestPipeline::spawn(Arc::clone(&server), Arc::clone(&index), mech, config);
            let data = IngestGateway::bind("127.0.0.1:0", pipeline.handle()).expect("bind gateway");
            let operator = IngestGateway::bind_with(
                "127.0.0.1:0",
                pipeline.handle(),
                GatewayConfig::operator(),
            )
            .expect("bind operator gateway");
            let client = data_client(data.local_addr());
            let op = GatewayClient::connect(operator.local_addr()).expect("connect operator");
            return System {
                queues: vec![pipeline.handle()],
                tier: Tier::Gateway {
                    pipeline,
                    data,
                    operator,
                },
                servers: vec![server],
                indexes: vec![index],
                client,
                operator: op,
            };
        }
        let mut servers = Vec::new();
        let mut indexes = Vec::new();
        let nodes: Vec<ShardNode> = (0..workload.shards)
            .map(|_| {
                let server = Arc::new(Server::with_shards(grid.clone(), STRIPES));
                let index = Arc::new(PolicyIndex::new(policy.clone()));
                servers.push(Arc::clone(&server));
                indexes.push(Arc::clone(&index));
                ShardNode::spawn(server, index, mech.clone(), config.clone())
            })
            .collect();
        let gateways: Vec<IngestGateway> = nodes
            .iter()
            .map(|n| {
                IngestGateway::bind_with("127.0.0.1:0", n.handle(), GatewayConfig::shard_plane())
                    .expect("bind shard gateway")
            })
            .collect();
        let backends = gateways
            .iter()
            .map(|g| {
                ShardBackend::remote(GatewayClient::connect(g.local_addr()).expect("connect link"))
            })
            .collect();
        let mut router = ShardRouter::bind("127.0.0.1:0", backends, RouterConfig::default())
            .expect("bind router");
        let op_addr = router
            .bind_operator("127.0.0.1:0")
            .expect("bind router operator");
        let client = data_client(router.local_addr());
        let operator = GatewayClient::connect(op_addr).expect("connect router operator");
        System {
            queues: nodes.iter().map(ShardNode::handle).collect(),
            tier: Tier::Cluster {
                nodes,
                gateways,
                router,
            },
            servers,
            indexes,
            client,
            operator,
        }
    }

    /// Reports landed so far on each owning server.
    pub fn landed_counts(&self) -> Vec<u64> {
        self.servers.iter().map(|s| s.n_received() as u64).collect()
    }

    /// Closes both clients and shuts every tier down in order (listeners
    /// first, so every acked report is queued; then the pipelines drain).
    pub fn shutdown(self) -> Teardown {
        let System {
            tier,
            client,
            operator,
            queues,
            indexes,
            ..
        } = self;
        client.shutdown().expect("clean client shutdown");
        operator.shutdown().expect("clean operator shutdown");
        drop((queues, indexes));
        match tier {
            Tier::Gateway {
                pipeline,
                data,
                operator,
            } => {
                let gateway_texts = vec![data.metrics_dump()];
                let gateways = vec![data.shutdown()];
                operator.shutdown();
                Teardown {
                    ingest: vec![pipeline.shutdown()],
                    gateways,
                    router: None,
                    gateway_texts,
                    router_text: String::new(),
                }
            }
            Tier::Cluster {
                nodes,
                gateways,
                router,
            } => {
                let router_text = router.metrics_dump();
                let router = router.shutdown();
                let gateway_texts = gateways.iter().map(IngestGateway::metrics_dump).collect();
                let gateways = gateways.into_iter().map(IngestGateway::shutdown).collect();
                Teardown {
                    ingest: nodes.into_iter().map(ShardNode::shutdown).collect(),
                    gateways,
                    router: Some(router),
                    gateway_texts,
                    router_text,
                }
            }
        }
    }
}
