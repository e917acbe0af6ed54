//! [`ShardNode`]: one shard's slice of the ingest stack as a unit.
//!
//! PANDA's deployment shape is population-scale; one process cannot own
//! the whole ingest tier forever. This module slices the monolith —
//! gateway → pipeline → server — along the user-sharding axis that the
//! server already has: a `ShardNode` owns **one** [`Server`] slice, its
//! own [`IngestPipeline`] (with its own release lanes), and its own
//! policy index, and a routing tier (`panda_net::router::ShardRouter`)
//! fans client streams across N of them by [`shard_of`].
//!
//! The single-process pipeline is the N=1 degenerate case: a node is a
//! pipeline over its own release pool, and producers reach either one
//! through the same [`IngestHandle`] (`ShardNode::handle`), so the
//! router's local backend, tests and benches run unchanged against
//! either topology.
//!
//! ## Determinism
//!
//! A node releases pending reports from `chunk_rng(seed, seq)` where
//! `seq` is stamped **upstream** (the router stamps client stream
//! positions). All nodes of a cluster share one seed, users are disjoint
//! across nodes (routing is a pure function of the ID), and released
//! cells are pure functions of `(seed, seq)` — so merging the per-node
//! databases ([`merge_reported_dbs`]) reproduces the single-process
//! pipeline's database byte for byte for the same arrival order.

use crate::ingest::{IngestConfig, IngestHandle, IngestPipeline, IngestStats};
use crate::server::Server;
use panda_core::{Mechanism, PolicyIndex, ReleasePool};
use panda_geo::GridMap;
use panda_mobility::{Timestamp, TrajectoryDb};
use std::sync::Arc;

/// One shard's slice of the ingest stack: a [`Server`] holding only this
/// shard's users, an [`IngestPipeline`] releasing over the node's **own**
/// [`ReleasePool`] lanes, and the node's current policy index.
///
/// Nodes are self-contained on purpose — each can run as its own process
/// behind a `panda_net::IngestGateway`, or in-process as a router's local
/// backend; the loopback cluster tests run both shapes.
pub struct ShardNode {
    server: Arc<Server>,
    pipeline: IngestPipeline,
    // Dropped after the pipeline: flushes in flight borrow its workers.
    _pool: Arc<ReleasePool>,
}

impl ShardNode {
    /// Spawns a node over `server`, releasing through `mech` under
    /// `index`, with `release_threads` dedicated pool workers (the node
    /// owns its lanes — one node's flush storm cannot starve another's).
    pub fn spawn(
        server: Arc<Server>,
        index: Arc<PolicyIndex>,
        mech: Arc<dyn Mechanism + Send + Sync>,
        config: IngestConfig,
    ) -> Self {
        let pool = Arc::new(ReleasePool::new(config.release_threads.max(1)));
        let pipeline =
            IngestPipeline::spawn_on(Arc::clone(&server), index, mech, config, Arc::clone(&pool));
        ShardNode {
            server,
            pipeline,
            _pool: pool,
        }
    }

    /// This node's server slice.
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// A producer handle onto the node's queue (clone freely).
    pub fn handle(&self) -> IngestHandle {
        self.pipeline.handle()
    }

    /// Shuts the pipeline down (drains everything queued before the call)
    /// and returns its stats.
    pub fn shutdown(self) -> IngestStats {
        self.pipeline.shutdown()
    }
}

/// Merges per-node reported databases into the single database the
/// monolithic server would have produced.
///
/// Routing partitions users across nodes (disjoint by construction), so
/// the merge is a concatenation of each node's
/// [`Server::reported_db`] trajectories re-sorted by user — no conflict
/// resolution exists to do, and the merged database is validated once.
/// All nodes must share `grid`.
pub fn merge_reported_dbs(
    grid: GridMap,
    nodes: &[Arc<Server>],
    horizon: Timestamp,
) -> TrajectoryDb {
    let mut trajectories = Vec::new();
    for node in nodes {
        node.append_trajectories(horizon, &mut trajectories);
    }
    trajectories.sort_by_key(|tr| tr.user);
    TrajectoryDb::new(grid, trajectories)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{PendingReport, SequencedReport};
    use crate::protocol::LocationReport;
    use crate::server::shard_of;
    use panda_core::{GraphExponential, LocationPolicyGraph};
    use panda_geo::CellId;
    use panda_mobility::UserId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::time::Duration;

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

    fn config() -> IngestConfig {
        IngestConfig {
            max_batch: 64,
            max_delay: Duration::from_millis(1),
            release_threads: 2,
            seed: 7,
            ..IngestConfig::default()
        }
    }

    /// N shard nodes fed stamped stream positions land byte-identically
    /// to the single-process pipeline fed the same order — in-process,
    /// before any wire gets involved (the loopback cluster tests add the
    /// TCP layers on top).
    #[test]
    fn sharded_nodes_merge_to_the_single_process_db() {
        let reports = trace(3000, 42);

        let reference = Arc::new(Server::new(grid()));
        let pipeline = IngestPipeline::spawn(
            Arc::clone(&reference),
            index(),
            Arc::new(GraphExponential),
            config(),
        );
        let h = pipeline.handle();
        for &r in &reports {
            h.submit(&[r]).unwrap();
        }
        pipeline.shutdown();
        let want = reference.reported_db(16);

        for n in [1usize, 2, 4] {
            let nodes: Vec<ShardNode> = (0..n)
                .map(|_| {
                    ShardNode::spawn(
                        Arc::new(Server::new(grid())),
                        index(),
                        Arc::new(GraphExponential),
                        config(),
                    )
                })
                .collect();
            let handles: Vec<IngestHandle> = nodes.iter().map(ShardNode::handle).collect();
            for (seq, &r) in reports.iter().enumerate() {
                let handle = &handles[shard_of(r.user, n)];
                let entry = SequencedReport {
                    seq: seq as u64,
                    report: r,
                    released: false,
                };
                // Full queues retry; `Closed` would be a test bug.
                loop {
                    match handle.try_submit(&[entry]) {
                        Ok(1) => break,
                        Ok(_) => std::thread::yield_now(),
                        Err(e) => panic!("node closed mid-test: {e}"),
                    }
                }
            }
            let servers: Vec<Arc<Server>> =
                nodes.iter().map(|nd| Arc::clone(nd.server())).collect();
            for node in nodes {
                node.shutdown();
            }
            let got = merge_reported_dbs(grid(), &servers, 16);
            assert_eq!(
                got.trajectories(),
                want.trajectories(),
                "{n}-node merge diverged from the single-process db"
            );
        }
    }

    /// Released (pre-perturbed) reports land verbatim and keep overwrite
    /// order against pending reports in the same stream.
    #[test]
    fn released_reports_land_verbatim_in_stream_order() {
        let server = Arc::new(Server::new(grid()));
        let node = ShardNode::spawn(
            Arc::clone(&server),
            index(),
            Arc::new(GraphExponential),
            config(),
        );
        let released = LocationReport {
            user: UserId(3),
            epoch: 0,
            cell: CellId(63),
            resend: true,
        };
        // A pending report for the same (user, epoch) first; the released
        // re-send must overwrite it, queue order deciding.
        let handle = node.handle();
        handle
            .try_submit(&[SequencedReport {
                seq: 0,
                report: PendingReport {
                    user: UserId(3),
                    epoch: 0,
                    cell: CellId(1),
                    resend: false,
                },
                released: false,
            }])
            .unwrap();
        assert_eq!(handle.try_submit(&[released]), Ok(1));
        node.shutdown();
        assert_eq!(server.reported_cell(UserId(3), 0), Some(CellId(63)));
        assert_eq!(server.n_resends(), 1);
    }

    /// `shard_of` routing and server striping agree: a node's server slice
    /// only ever sees users that route to it.
    #[test]
    fn routing_is_a_pure_function_of_the_user() {
        for n in [1usize, 2, 4, 16] {
            for u in 0..500u32 {
                let a = shard_of(UserId(u), n);
                let b = shard_of(UserId(u), n);
                assert_eq!(a, b);
                assert!(a < n);
            }
        }
    }
}
