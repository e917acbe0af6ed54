//! [`ShardRouter`]: the routing tier in front of per-shard ingest nodes.
//!
//! Clients speak the exact same framed protocol to a router as to a
//! single [`crate::IngestGateway`] — the sharded topology is invisible
//! from outside. The socket machinery, the privilege check, the re-send
//! mailbox, scrapes and clean shutdown are the shared `listener` core:
//! operator-pushed assignments and re-send requests wait in the router's
//! [`crate::Mailbox`] for the user's next data-plane fetch, and the
//! client's re-released reports come back as [`crate::Frame::Report`]
//! frames routed like any other submission. Behind the listener, the
//! router:
//!
//! * **stamps** every stream position with a cluster-wide arrival
//!   sequence number (one `AtomicU64`), reserved on first sight and kept
//!   across retries, so the per-report RNG streams — and therefore the
//!   released cells — are identical to the single-process pipeline's for
//!   the same arrival order;
//! * **splits** each `Submit`/`SubmitBatch`/`Report` by [`shard_of`] —
//!   the same hash the monolithic server stripes its shards with — and
//!   fans the stamped sub-batches to remote shard gateways
//!   ([`ShardBackend`]) over [`GatewayClient::submit_sequenced`];
//! * **accounts honestly**: each backend accepts a prefix of its
//!   sub-batch, and the client is acked exactly the contiguous accepted
//!   prefix of *its stream*. A report whose shard backpressured is nacked
//!   and retried by the client; on retry, positions that already made it
//!   into some shard's queue are skipped (their reserved stamp is kept,
//!   they are never forwarded twice), so nothing is lost or
//!   double-counted even when shards fill unevenly;
//! * **broadcasts** operator-plane [`crate::Frame::SwitchPolicy`] to every
//!   backend: if one refuses, the shards that already switched are rolled
//!   back to the last policy every shard took, and the operator is
//!   nacked, so one full queue does not split the cluster into shards
//!   releasing under different policies. Before any broadcast has
//!   succeeded there is no such policy: a failed *first* broadcast leaves
//!   the shards that switched on the new policy.
//!
//! ## Determinism caveat
//!
//! One client connection is one stream: its positions get contiguous
//! ascending stamps and land byte-identically to in-process submission in
//! the same order (CI-enforced at N = 1, 2 and 4 nodes, including under
//! mid-stream backpressure). Across *concurrent* connections the stamp
//! interleaving is decided by arrival at the router — exactly as
//! concurrent in-process producers interleave on the pipeline queue.

use crate::client::{ClientError, GatewayClient};
use crate::gateway::GatewayConfig;
use crate::listener::{
    bump, read, CoreStats, FrameService, Front, Listener, Outcome, Plane, Submission,
};
use crate::mailbox::Mailbox;
use crate::wire::{clamp_stats_text, NackReason, MAX_REPORTS_PER_FRAME};
use panda_check::ordered::{rank, OrderedMutex};
use panda_core::LocationPolicyGraph;
use panda_obs::{Counter, Histogram, Registry};
use panda_surveillance::ingest::{PendingReport, SequencedReport};
use panda_surveillance::shard_of;
use std::collections::VecDeque;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One shard's downstream link from the router: a remote shard node
/// behind its own gateway, reached over one persistent connection on the
/// shard plane ([`GatewayConfig::shard_plane`]).
pub struct ShardBackend(OrderedMutex<GatewayClient>);

impl ShardBackend {
    /// Wraps a connected shard-plane client as a backend (the link lock
    /// joins the router's lock order below the policy record).
    pub fn remote(client: GatewayClient) -> Self {
        ShardBackend(OrderedMutex::new(rank::ROUTER_BACKEND, client))
    }

    /// Forwards a stamped sub-batch; returns the accepted prefix length.
    /// Any downstream failure — shut-down node, torn connection, protocol
    /// breakage — is `Err`: the router cannot know those reports landed,
    /// so it must not ack them.
    fn submit_sequenced(&self, reports: &[SequencedReport]) -> Result<usize, ()> {
        self.0.lock().submit_sequenced(reports).map_err(|_| ())
    }

    /// Applies a policy switch to this shard; the link's client rides out
    /// a full queue under its own retry policy.
    fn switch_policy(&self, policy: &LocationPolicyGraph) -> Result<(), NackReason> {
        match self.0.lock().switch_policy(policy) {
            Ok(()) => Ok(()),
            Err(ClientError::Saturated) => Err(NackReason::Backpressure),
            Err(_) => Err(NackReason::Closed),
        }
    }
}

/// Tunables of a [`ShardRouter`].
#[derive(Debug, Clone, Default)]
pub struct RouterConfig {
    /// Socket tunables for the router's listeners (buffer sizes,
    /// timeouts, connection cap). The plane is ignored: the data plane is
    /// always [`Plane::Data`] and [`ShardRouter::bind_operator`] always
    /// [`Plane::Operator`].
    pub listener: GatewayConfig,
}

/// Lifetime counters of a router, snapshotted by [`ShardRouter::stats`]
/// (listener counters aggregate the data and operator planes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Connections accepted and served.
    pub connections: u64,
    /// Connections dropped at the connection cap.
    pub rejected_connections: u64,
    /// Connections that ended non-cleanly.
    pub dropped_connections: u64,
    /// Frames decoded across all connections.
    pub frames: u64,
    /// Reports accepted by a shard and acked to clients.
    pub reports_routed: u64,
    /// Stamped sub-batches forwarded to backends (the fan-out factor:
    /// `fanout_batches / frames` worth of downstream round trips per
    /// client frame).
    pub fanout_batches: u64,
    /// `Nack{Backpressure}` replies sent to clients.
    pub backpressure_nacks: u64,
    /// `Nack{Closed}` replies sent to clients.
    pub closed_nacks: u64,
    /// `Nack{Malformed}` replies sent (each closes its connection).
    pub malformed_nacks: u64,
    /// Policy broadcasts applied on every shard.
    pub policy_switches: u64,
    /// Failed broadcasts whose partial application was rolled back.
    pub policy_rollbacks: u64,
    /// Mailbox fetches answered with a pending message.
    pub fetches_served: u64,
}

/// The router's [`FrameService`], shared by its data and operator planes.
struct RouterService {
    backends: Vec<ShardBackend>,
    /// The cluster-wide arrival-sequence reservation counter.
    next_seq: AtomicU64,
    /// The last policy successfully broadcast to every shard — the
    /// rollback target when a later broadcast fails halfway. Held across
    /// a whole broadcast, serializing concurrent switches — which nests
    /// the backend-link locks inside it, hence its lower rank.
    current_policy: OrderedMutex<Option<LocationPolicyGraph>>,
    fanout_batches: Arc<AtomicU64>,
    policy_rollbacks: Arc<AtomicU64>,
    /// Size in reports of each stamped sub-batch forwarded downstream —
    /// the fan-out shape (how well client batches pack per shard).
    fanout_batch_reports: Histogram,
    /// Client frames answered with a short contiguous prefix: some
    /// position was stamped but its shard backpressured, so the ack
    /// stalled behind it. The stall signal for router capacity planning.
    ack_prefix_stalls: Counter,
    /// The router's scrape scope, shared by both planes.
    registry: Registry,
}

/// One stream position the router has seen but not yet retired: its
/// reserved stamp, and whether some shard already queued it.
struct TailSlot {
    seq: u64,
    accepted: bool,
}

/// Per-connection routing state: `acked` stream positions are retired;
/// `tail` covers positions `acked..acked + tail.len()` — stamped, possibly
/// queued on a shard, but not yet part of the contiguous acked prefix.
#[derive(Default)]
struct RouterConn {
    acked: u64,
    tail: VecDeque<TailSlot>,
    /// Per-shard fan-out buffers, cleared and refilled every frame: the
    /// stamped sub-batch and the tail slot of each of its reports.
    per_shard: Vec<Vec<SequencedReport>>,
    slots_per_shard: Vec<Vec<usize>>,
}

/// A running shard router; dropping it shuts it down (backends are
/// dropped with it — remote links close cleanly by EOF).
pub struct ShardRouter {
    data: Listener<RouterService>,
    operator: Option<Listener<RouterService>>,
    listener_config: GatewayConfig,
}

impl ShardRouter {
    /// Binds the client-facing data plane on `addr` (port 0 for
    /// ephemeral) routing across `backends`. `shard_of(user,
    /// backends.len())` decides placement, so the backend order must
    /// match the server slices' shard indices.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(
        addr: impl ToSocketAddrs,
        backends: Vec<ShardBackend>,
        config: RouterConfig,
    ) -> std::io::Result<Self> {
        let core = CoreStats::default();
        let service = RouterService {
            backends,
            next_seq: AtomicU64::new(0),
            current_policy: OrderedMutex::new(rank::ROUTER_POLICY, None),
            fanout_batches: Arc::default(),
            policy_rollbacks: Arc::default(),
            fanout_batch_reports: Histogram::default(),
            ack_prefix_stalls: Counter::default(),
            registry: Registry::new(),
        };
        core.register_into(&service.registry, "router", "reports_routed_total");
        service.register_into();
        let front = Arc::new(Front {
            service,
            core,
            mailbox: Arc::new(Mailbox::new()),
        });
        let listener_config = config.listener;
        let data = Listener::bind(
            addr,
            front,
            GatewayConfig {
                plane: Plane::Data,
                ..listener_config.clone()
            },
            "panda-router",
        )?;
        Ok(ShardRouter {
            data,
            operator: None,
            listener_config,
        })
    }

    /// Binds the privileged operator plane on `addr`: the listener that
    /// honours policy broadcasts, mailbox pushes and scrapes. Keep it off
    /// the open ingest port (loopback, an authenticated sidecar, or a
    /// firewalled admin port).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_operator(&mut self, addr: impl ToSocketAddrs) -> std::io::Result<SocketAddr> {
        let listener = Listener::bind(
            addr,
            Arc::clone(self.data.front()),
            GatewayConfig {
                plane: Plane::Operator,
                ..self.listener_config.clone()
            },
            "panda-router-op",
        )?;
        let addr = listener.local_addr();
        self.operator = Some(listener);
        Ok(addr)
    }

    /// The data plane's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.data.local_addr()
    }

    /// The operator plane's bound address, when one is bound.
    pub fn operator_addr(&self) -> Option<SocketAddr> {
        self.operator.as_ref().map(Listener::local_addr)
    }

    /// The mailbox behind fetches and pushes across both planes.
    pub fn mailbox(&self) -> Arc<Mailbox> {
        Arc::clone(&self.data.front().mailbox)
    }

    /// A snapshot of the lifetime counters (both planes aggregated):
    /// plain reads of the cells the scrape plane exposes, so they count
    /// with telemetry compiled out.
    pub fn stats(&self) -> RouterStats {
        let Front { service, core, .. } = &**self.data.front();
        RouterStats {
            connections: read(&core.connections),
            rejected_connections: read(&core.rejected_connections),
            dropped_connections: read(&core.dropped_connections),
            frames: read(&core.frames),
            reports_routed: read(&core.reports_accepted),
            fanout_batches: read(&service.fanout_batches),
            backpressure_nacks: read(&core.backpressure_nacks),
            closed_nacks: read(&core.closed_nacks),
            malformed_nacks: read(&core.malformed_nacks),
            policy_switches: read(&core.policy_switches),
            policy_rollbacks: read(&service.policy_rollbacks),
            fetches_served: read(&core.fetches_served),
        }
    }

    /// The deterministic text exposition of the router's metrics — the
    /// same text a wire scrape returns on the operator plane.
    pub fn metrics_dump(&self) -> String {
        self.data.front().service.metrics_text()
    }

    /// Graceful shutdown: both planes stop accepting, every live
    /// connection drains (frames already received are answered), all
    /// threads join. Every report acked before this returns is in some
    /// shard's queue — shut the shard nodes down afterwards to land them.
    pub fn shutdown(mut self) -> RouterStats {
        self.data.shutdown_in_place();
        if let Some(op) = self.operator.as_mut() {
            op.shutdown_in_place();
        }
        self.stats()
    }
}

impl FrameService for RouterService {
    type Conn = RouterConn;

    /// Pending reports and client releases are stamped and routed.
    /// Sequenced submission is never served here — stamps are the
    /// router's to reserve; a client choosing its own would choose its
    /// own noise — and no router plane decodes it.
    fn submit(&self, conn: &mut RouterConn, reports: Submission<'_>) -> Outcome {
        match reports {
            Submission::Pending(r) => self.route(conn, r.iter().map(|&p| (p, false))),
            // An already-perturbed client release lands verbatim, but
            // still takes a stamp — the stamp fixes its overwrite order
            // against pending reports in the same stream.
            Submission::Released(r) => self.route(
                conn,
                r.iter().map(|l| {
                    let pending = PendingReport {
                        user: l.user,
                        epoch: l.epoch,
                        cell: l.cell,
                        resend: l.resend,
                    };
                    (pending, true)
                }),
            ),
            Submission::Sequenced(_) => Err((NackReason::Malformed, 0)),
        }
    }

    /// Broadcasts to every shard; a refusal rolls back the shards that
    /// already switched. Serialized by the `current_policy` lock.
    fn switch_policy(&self, policy: LocationPolicyGraph) -> Outcome {
        let mut current = self.current_policy.lock();
        for (i, backend) in self.backends.iter().enumerate() {
            if let Err(reason) = backend.switch_policy(&policy) {
                // Roll the shards that already switched back to the last
                // policy every shard is known to share. Without one (no
                // broadcast has succeeded yet) there is nothing to
                // restore: the first `i` shards keep the new policy.
                if let Some(previous) = current.as_ref() {
                    for rolled in self.backends.iter().take(i) {
                        let _ = rolled.switch_policy(previous);
                    }
                    bump(&self.policy_rollbacks, 1);
                }
                return Err((reason, 0));
            }
        }
        *current = Some(policy);
        Ok(0)
    }

    fn metrics_text(&self) -> String {
        clamp_stats_text(self.registry.render())
    }
}

impl RouterService {
    /// Registers the router's own instruments next to the core ones.
    fn register_into(&self) {
        let registry = &self.registry;
        registry.register_counter(
            "panda_router_fanout_batches_total",
            &Counter::reading(Arc::clone(&self.fanout_batches)),
        );
        registry.register_counter(
            "panda_router_policy_rollbacks_total",
            &Counter::reading(Arc::clone(&self.policy_rollbacks)),
        );
        registry.register_histogram(
            "panda_router_fanout_batch_reports",
            &self.fanout_batch_reports,
        );
        registry.register_counter(
            "panda_router_ack_prefix_stalls_total",
            &self.ack_prefix_stalls,
        );
    }

    /// Routes one client frame's worth of stream positions: reserve (or
    /// reuse) stamps, fan the not-yet-queued positions to their shards,
    /// advance the contiguous accepted prefix, and ack it honestly.
    fn route(
        &self,
        conn: &mut RouterConn,
        entries: impl ExactSizeIterator<Item = (PendingReport, bool)>,
    ) -> Outcome {
        let k = entries.len();
        let n_shards = self.backends.len();
        // Positions `acked..acked+k`. A conforming client's retry resends
        // exactly the unaccepted remainder, so the first tail slots line
        // up with the incoming reports: slots hold the stamps reserved
        // last time (and remember which positions some shard already
        // queued); any positions beyond the tail are new — reserve fresh
        // stamps in stream order.
        while conn.tail.len() < k {
            let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
            conn.tail.push_back(TailSlot {
                seq,
                accepted: false,
            });
        }
        // Group the not-yet-queued positions by shard, preserving stream
        // order, stamped with their reserved sequence numbers.
        let (per_shard, slots_per_shard) = (&mut conn.per_shard, &mut conn.slots_per_shard);
        per_shard.resize_with(n_shards, Vec::new);
        slots_per_shard.resize_with(n_shards, Vec::new);
        per_shard.iter_mut().for_each(Vec::clear);
        slots_per_shard.iter_mut().for_each(Vec::clear);
        for (i, ((report, released), slot)) in entries.zip(&conn.tail).enumerate() {
            if slot.accepted {
                // Queued on its shard in a previous attempt; never
                // forwarded twice, counted once (below, when the prefix
                // reaches it).
                continue;
            }
            let shard = shard_of(report.user, n_shards);
            per_shard[shard].push(SequencedReport {
                seq: slot.seq,
                report,
                released,
            });
            slots_per_shard[shard].push(i);
        }
        let mut closed = false;
        for (shard, batch) in per_shard.iter().enumerate() {
            for (chunk, slots) in batch
                .chunks(MAX_REPORTS_PER_FRAME)
                .zip(slots_per_shard[shard].chunks(MAX_REPORTS_PER_FRAME))
            {
                bump(&self.fanout_batches, 1);
                self.fanout_batch_reports.record(chunk.len() as u64);
                match self.backends[shard].submit_sequenced(chunk) {
                    Ok(n) => {
                        for &i in &slots[..n] {
                            conn.tail[i].accepted = true;
                        }
                        if n < chunk.len() {
                            // This shard is full; the rest of its
                            // sub-batch waits for the client's retry.
                            break;
                        }
                    }
                    Err(()) => {
                        closed = true;
                        break;
                    }
                }
            }
        }
        // Retire the contiguous accepted prefix — that, and only that, is
        // what the client is told. Capped at `k` so the reply can never
        // claim more than this frame carried (surplus accepted slots from
        // a nonconforming client's shrunken retry are credited on its
        // next frame).
        let mut frame_accepted = 0usize;
        while frame_accepted < k {
            match conn.tail.front() {
                Some(front) if front.accepted => {
                    conn.tail.pop_front();
                    conn.acked += 1;
                    frame_accepted += 1;
                }
                _ => break,
            }
        }
        if closed {
            Err((NackReason::Closed, frame_accepted))
        } else if frame_accepted == k {
            Ok(frame_accepted)
        } else {
            // The contiguous prefix stalled behind a backpressured shard:
            // the remainder waits for the client's retry.
            self.ack_prefix_stalls.inc();
            Err((NackReason::Backpressure, frame_accepted))
        }
    }
}
