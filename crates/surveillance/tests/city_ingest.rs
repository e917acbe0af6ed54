//! Streaming ingest over a city-scale, oracle-backed policy.
//!
//! The ingest pipeline must not care which distance backend sits under the
//! [`PolicyIndex`]: a threshold-sized `city_like` policy (one connected
//! 4 340-node component, hub-label oracle) and the same policy with dense
//! tables land **identical databases** for the same arrival trace and seed.
//! This is the surveillance-layer half of the backend byte-identity gate.

use panda_core::{GraphExponential, LocationPolicyGraph, PolicyIndex};
use panda_geo::{CellId, GridMap};
use panda_graph::{generators, IndexBackend};
use panda_mobility::{Timestamp, UserId};
use panda_surveillance::ingest::{IngestConfig, IngestPipeline, PendingReport};
use panda_surveillance::server::Server;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

const W: u32 = 70;
const H: u32 = 62;

fn city_index(max_table_entries: usize) -> Arc<PolicyIndex> {
    let mut rng = SmallRng::seed_from_u64(0xC17);
    let g = generators::city_like(&mut rng, W, H, 0.3, 60);
    Arc::new(PolicyIndex::new(
        LocationPolicyGraph::from_graph_with_budgets(
            GridMap::new(W, H, 100.0),
            g,
            "city-70x62",
            max_table_entries,
            512,
        ),
    ))
}

fn trace(n: usize, seed: u64) -> Vec<PendingReport> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| PendingReport {
            user: UserId(rng.gen_range(0..300)),
            epoch: (i / 300) as Timestamp,
            cell: CellId(rng.gen_range(0..W * H)),
            resend: false,
        })
        .collect()
}

fn run(index: Arc<PolicyIndex>, reports: &[PendingReport]) -> Arc<Server> {
    let server = Arc::new(Server::with_shards(GridMap::new(W, H, 100.0), 8));
    let pipeline = IngestPipeline::spawn(
        Arc::clone(&server),
        index,
        Arc::new(GraphExponential),
        IngestConfig {
            max_batch: 512,
            max_delay: Duration::from_millis(5),
            release_threads: 4,
            eps: 1.0,
            seed: 42,
            ..Default::default()
        },
    );
    let handle = pipeline.handle();
    for &r in reports {
        handle.submit(&[r]).unwrap();
    }
    let stats = pipeline.shutdown();
    assert_eq!(stats.landed, reports.len());
    server
}

#[test]
fn city_ingest_is_backend_invariant() {
    let oracle = city_index(1);
    assert_eq!(
        oracle.policy().distance_index().backend(0),
        IndexBackend::HubLabels,
        "tiny table budget must select the hub-label oracle"
    );
    let dense = city_index(usize::MAX >> 1);
    assert_eq!(
        dense.policy().distance_index().backend(0),
        IndexBackend::Dense
    );

    let reports = trace(6_000, 9);
    let horizon = (reports.len() / 300) as Timestamp + 1;
    let from_oracle = run(Arc::clone(&oracle), &reports);
    let from_dense = run(dense, &reports);
    assert_eq!(
        from_oracle.reported_db(horizon).trajectories(),
        from_dense.reported_db(horizon).trajectories(),
        "distance backend changed the landed DB"
    );

    // The oracle index drew every report from cached distance rings — one
    // ring build per distinct true cell at most, even with four lanes
    // missing the same cold cell at once.
    let stats = oracle.row_cache_stats();
    let distinct: std::collections::HashSet<CellId> = reports.iter().map(|r| r.cell).collect();
    assert!(stats.misses > 0, "city component must use cached rings");
    assert!(
        (stats.misses as usize) <= distinct.len(),
        "ring builds ({}) must not exceed distinct cells ({})",
        stats.misses,
        distinct.len()
    );
    assert!(oracle.cache_memory_bytes() > 0);
}
