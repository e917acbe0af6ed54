//! [`ShardRouter`]: the routing tier in front of per-shard ingest nodes.
//!
//! Clients speak the exact same framed protocol to a router as to a
//! single [`crate::IngestGateway`] — the sharded topology is invisible
//! from outside. Behind the listener, the router:
//!
//! * **stamps** every stream position with a cluster-wide arrival
//!   sequence number (one `AtomicU64`), reserved on first sight and kept
//!   across retries, so the per-report RNG streams — and therefore the
//!   released cells — are identical to the single-process pipeline's for
//!   the same arrival order;
//! * **splits** each `Submit`/`SubmitBatch`/`Report` by
//!   [`shard_of`](panda_surveillance::shard_of) — the same hash the
//!   monolithic server stripes its shards with — and fans the stamped
//!   sub-batches to per-shard backends ([`ShardBackend`]): in-process
//!   pipeline handles (`IngestHandle::try_submit`) or remote shard
//!   gateways over [`GatewayClient::submit_sequenced`];
//! * **accounts honestly**: each backend accepts a prefix of its
//!   sub-batch, and the client is acked exactly the contiguous accepted
//!   prefix of *its stream*. A report whose shard backpressured is nacked
//!   and retried by the client; on retry, positions that already made it
//!   into some shard's queue are skipped (their reserved stamp is kept,
//!   they are never forwarded twice), so nothing is lost or
//!   double-counted even when shards fill unevenly;
//! * **broadcasts** operator-plane [`Frame::SwitchPolicy`]
//!   all-or-nothing: every backend must take the new policy, or the ones
//!   that did are rolled back to the previous one and the operator is
//!   nacked — the cluster never splits into shards releasing under
//!   different policies because of one full queue;
//! * **carries the re-send protocol**: operator-pushed
//!   [`Frame::Assign`] / [`Frame::Resend`] land in the router's
//!   [`Mailbox`] for the user's next data-plane [`Frame::Fetch`], and the
//!   client's re-released reports come back as [`Frame::Report`] frames
//!   routed like any other submission.
//!
//! ## Determinism caveat
//!
//! One client connection is one stream: its positions get contiguous
//! ascending stamps and land byte-identically to in-process submission in
//! the same order (CI-enforced at N = 1, 2 and 4 nodes, including under
//! mid-stream backpressure). Across *concurrent* connections the stamp
//! interleaving is decided by arrival at the router — exactly as
//! concurrent in-process producers interleave on the pipeline queue.

use crate::client::GatewayClient;
use crate::gateway::GatewayConfig;
use crate::listener::{CoreStats, Disposition, FrameService, Listener};
use crate::mailbox::{Mailbox, ServerMessage};
use crate::wire::{clamp_stats_text, encode_frame, Frame, NackReason, MAX_REPORTS_PER_FRAME};
use panda_check::ordered::{rank, OrderedMutex};
use panda_core::LocationPolicyGraph;
use panda_core::PolicyIndex;
use panda_obs::{Counter, Histogram, Registry};
use panda_surveillance::ingest::{IngestHandle, PendingReport, SequencedReport};
use panda_surveillance::shard_of;
use std::collections::VecDeque;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One shard's downstream link from the router.
pub enum ShardBackend {
    /// An in-process node's queue (a
    /// [`ShardNode::handle`](panda_surveillance::node::ShardNode::handle)
    /// or a plain pipeline handle) — the zero-copy topology for tests,
    /// benches and single-process deployments.
    Local(IngestHandle),
    /// A remote shard node behind its own gateway, reached over one
    /// persistent connection on the shard plane
    /// ([`GatewayConfig::shard_plane`]). Build with
    /// [`ShardBackend::remote`].
    Remote(OrderedMutex<GatewayClient>),
}

impl ShardBackend {
    /// Wraps a connected shard-plane client as a remote backend (the link
    /// lock joins the router's lock order below the policy record).
    pub fn remote(client: GatewayClient) -> Self {
        ShardBackend::Remote(OrderedMutex::new(rank::ROUTER_BACKEND, client))
    }

    /// Forwards a stamped sub-batch; returns the accepted prefix length.
    /// Any downstream failure — shut-down pipeline, torn connection,
    /// protocol breakage — is `Err`: the router cannot know those reports
    /// landed, so it must not ack them.
    fn submit_sequenced(&self, reports: &[SequencedReport]) -> Result<usize, ()> {
        match self {
            ShardBackend::Local(handle) => handle.try_submit(reports).map_err(|_| ()),
            ShardBackend::Remote(client) => client.lock().submit_sequenced(reports).map_err(|_| ()),
        }
    }

    /// Applies a policy switch to this shard, riding out a full queue for
    /// a bounded number of attempts.
    fn switch_policy(
        &self,
        policy: &LocationPolicyGraph,
        retries: u32,
        backoff: Duration,
    ) -> Result<(), NackReason> {
        match self {
            ShardBackend::Local(handle) => {
                // Built once: a full queue retries the same index.
                let index = Arc::new(PolicyIndex::new(policy.clone()));
                let mut attempts = 0u32;
                loop {
                    match handle.try_switch_policy(&index) {
                        Ok(true) => return Ok(()),
                        Ok(false) => {
                            attempts += 1;
                            if attempts >= retries.max(1) {
                                return Err(NackReason::Backpressure);
                            }
                            std::thread::sleep(backoff);
                        }
                        Err(_) => return Err(NackReason::Closed),
                    }
                }
            }
            ShardBackend::Remote(client) => {
                // `GatewayClient::switch_policy` already retries
                // backpressure under its own policy.
                match client.lock().switch_policy(policy) {
                    Ok(()) => Ok(()),
                    Err(crate::client::ClientError::Saturated) => Err(NackReason::Backpressure),
                    Err(_) => Err(NackReason::Closed),
                }
            }
        }
    }
}

/// Tunables of a [`ShardRouter`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Socket tunables for the router's listeners (buffer sizes,
    /// timeouts, connection cap). The privilege flags are ignored — the
    /// data plane is always unprivileged and
    /// [`ShardRouter::bind_operator`] is always privileged.
    pub listener: GatewayConfig,
    /// Full-queue attempts per backend in a policy broadcast before the
    /// broadcast is abandoned (and rolled back).
    pub switch_retries: u32,
    /// Pause between those attempts.
    pub switch_backoff: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            listener: GatewayConfig::default(),
            switch_retries: 64,
            switch_backoff: Duration::from_micros(500),
        }
    }
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

#[derive(Default)]
struct RouterCounters {
    reports_routed: Counter,
    fanout_batches: Counter,
    backpressure_nacks: Counter,
    closed_nacks: Counter,
    policy_switches: Counter,
    policy_rollbacks: Counter,
    fetches_served: Counter,
    /// Size in reports of each stamped sub-batch forwarded downstream —
    /// the fan-out shape (how well client batches pack per shard).
    fanout_batch_reports: Histogram,
    /// Client frames answered with a short contiguous prefix: some
    /// position was stamped but its shard backpressured, so the ack
    /// stalled behind it. The stall signal for router capacity planning.
    ack_prefix_stalls: Counter,
}

impl RouterCounters {
    fn register_into(&self, registry: &Registry) {
        registry.register_counter("panda_router_reports_routed_total", &self.reports_routed);
        registry.register_counter("panda_router_fanout_batches_total", &self.fanout_batches);
        registry.register_counter(
            "panda_router_backpressure_nacks_total",
            &self.backpressure_nacks,
        );
        registry.register_counter("panda_router_closed_nacks_total", &self.closed_nacks);
        registry.register_counter("panda_router_policy_switches_total", &self.policy_switches);
        registry.register_counter(
            "panda_router_policy_rollbacks_total",
            &self.policy_rollbacks,
        );
        registry.register_counter("panda_router_fetches_served_total", &self.fetches_served);
        registry.register_histogram(
            "panda_router_fanout_batch_reports",
            &self.fanout_batch_reports,
        );
        registry.register_counter(
            "panda_router_ack_prefix_stalls_total",
            &self.ack_prefix_stalls,
        );
    }
}

/// State shared by the router's data and operator planes.
struct RouterShared {
    backends: Vec<ShardBackend>,
    /// The cluster-wide arrival-sequence reservation counter.
    next_seq: AtomicU64,
    mailbox: Arc<Mailbox>,
    /// The last policy successfully broadcast to every shard — the
    /// rollback target when a later broadcast fails halfway. Held across
    /// a whole broadcast, serializing concurrent switches — which nests
    /// the backend-link locks inside it, hence its lower rank.
    current_policy: OrderedMutex<Option<LocationPolicyGraph>>,
    counters: RouterCounters,
    core: Arc<CoreStats>,
    /// The router's scrape scope (both planes share it, like the core
    /// counters); served to [`Frame::StatsRequest`] on the operator plane.
    registry: Arc<Registry>,
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
struct RouterConn {
    acked: u64,
    tail: VecDeque<TailSlot>,
}

/// The router's [`FrameService`]; one instance per plane, sharing
/// [`RouterShared`].
struct RouterService {
    shared: Arc<RouterShared>,
    operator_plane: bool,
    config: RouterConfig,
}

/// A running shard router; dropping it shuts it down (backends are
/// dropped with it — remote links close cleanly by EOF).
pub struct ShardRouter {
    addr: SocketAddr,
    operator_addr: Option<SocketAddr>,
    data: Listener<RouterService>,
    operator: Option<Listener<RouterService>>,
    shared: Arc<RouterShared>,
    config: RouterConfig,
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
        let core = Arc::new(CoreStats::default());
        let counters = RouterCounters::default();
        let registry = Arc::new(Registry::new());
        core.register_into(&registry, "router");
        counters.register_into(&registry);
        let shared = Arc::new(RouterShared {
            backends,
            next_seq: AtomicU64::new(0),
            mailbox: Arc::new(Mailbox::new()),
            current_policy: OrderedMutex::new(rank::ROUTER_POLICY, None),
            counters,
            core: Arc::clone(&core),
            registry,
        });
        let data_config = GatewayConfig {
            allow_wire_policy_switch: false,
            allow_sequenced_submit: false,
            ..config.listener.clone()
        };
        let service = Arc::new(RouterService {
            shared: Arc::clone(&shared),
            operator_plane: false,
            config: config.clone(),
        });
        let data = Listener::bind(addr, service, data_config, core, "panda-router")?;
        let addr = data.local_addr();
        Ok(ShardRouter {
            addr,
            operator_addr: None,
            data,
            operator: None,
            shared,
            config,
        })
    }

    /// Binds the privileged operator plane on `addr`: the listener that
    /// honours `SwitchPolicy` broadcasts and `Assign`/`Resend` mailbox
    /// pushes. Keep it off the open ingest port (loopback, an
    /// authenticated sidecar, or a firewalled admin port).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_operator(&mut self, addr: impl ToSocketAddrs) -> std::io::Result<SocketAddr> {
        let operator_config = GatewayConfig {
            allow_wire_policy_switch: true,
            allow_sequenced_submit: false,
            ..self.config.listener.clone()
        };
        let service = Arc::new(RouterService {
            shared: Arc::clone(&self.shared),
            operator_plane: true,
            config: self.config.clone(),
        });
        let listener = Listener::bind(
            addr,
            service,
            operator_config,
            Arc::clone(&self.shared.core),
            "panda-router-op",
        )?;
        let addr = listener.local_addr();
        self.operator = Some(listener);
        self.operator_addr = Some(addr);
        Ok(addr)
    }

    /// The data plane's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The operator plane's bound address, when one is bound.
    pub fn operator_addr(&self) -> Option<SocketAddr> {
        self.operator_addr
    }

    /// The mailbox backing `Fetch`/`Assign`/`Resend` across both planes.
    pub fn mailbox(&self) -> Arc<Mailbox> {
        Arc::clone(&self.shared.mailbox)
    }

    /// A snapshot of the lifetime counters (both planes aggregated) — a
    /// thin read of the same `panda-obs` cells the scrape plane exposes
    /// (all zero when built with `--cfg panda_obs_off`).
    pub fn stats(&self) -> RouterStats {
        let core = &self.shared.core;
        let c = &self.shared.counters;
        RouterStats {
            connections: core.connections.get(),
            rejected_connections: core.rejected_connections.get(),
            dropped_connections: core.dropped_connections.get(),
            frames: core.frames.get(),
            reports_routed: c.reports_routed.get(),
            fanout_batches: c.fanout_batches.get(),
            backpressure_nacks: c.backpressure_nacks.get(),
            closed_nacks: c.closed_nacks.get(),
            malformed_nacks: core.malformed_nacks.get(),
            policy_switches: c.policy_switches.get(),
            policy_rollbacks: c.policy_rollbacks.get(),
            fetches_served: c.fetches_served.get(),
        }
    }

    /// The deterministic text exposition of the router's metrics — the
    /// same text [`Frame::StatsRequest`] returns on the operator plane.
    pub fn metrics_dump(&self) -> String {
        clamp_stats_text(self.shared.registry.render())
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

    fn open(&self) -> RouterConn {
        RouterConn {
            acked: 0,
            tail: VecDeque::new(),
        }
    }

    /// Data plane: submissions (pending and released), fetch polls, clean
    /// shutdown. Operator plane additionally honours policy broadcasts,
    /// mailbox pushes and stats scrapes. `SubmitSequenced` is **never**
    /// decoded here — stamps are the router's to reserve; a client
    /// choosing its own would choose its own noise.
    fn permits(&self, t: u8) -> bool {
        use crate::wire::tag;
        matches!(
            t,
            tag::SUBMIT | tag::SUBMIT_BATCH | tag::SHUTDOWN | tag::REPORT | tag::FETCH
        ) || (self.operator_plane
            && matches!(
                t,
                tag::SWITCH_POLICY | tag::ASSIGN | tag::RESEND | tag::STATS_REQUEST
            ))
    }

    fn handle(&self, conn: &mut RouterConn, frame: Frame, replies: &mut Vec<u8>) -> Disposition {
        match frame {
            Frame::Submit(report) => self.route_submission(conn, &[(report, false)], replies),
            Frame::SubmitBatch(reports) => {
                let entries: Vec<(PendingReport, bool)> =
                    reports.into_iter().map(|r| (r, false)).collect();
                self.route_submission(conn, &entries, replies)
            }
            Frame::Report(r) => {
                // An already-perturbed client release: lands verbatim,
                // but still takes a stamp — the stamp fixes its overwrite
                // order against pending reports in the same stream.
                let pending = PendingReport {
                    user: r.user,
                    epoch: r.epoch,
                    cell: r.cell,
                    resend: r.resend,
                };
                self.route_submission(conn, &[(pending, true)], replies)
            }
            Frame::Fetch { user } => {
                let reply = match self.shared.mailbox.fetch(user) {
                    Some(msg) => {
                        self.shared.counters.fetches_served.inc();
                        msg.into_frame()
                    }
                    None => Frame::Ack { accepted: 0 },
                };
                encode_frame(&reply, replies);
                Disposition::Continue
            }
            Frame::Assign(assignment) => {
                if !self.operator_plane {
                    return self.violation(replies);
                }
                self.shared
                    .mailbox
                    .push(assignment.user, ServerMessage::Assign(assignment));
                encode_frame(&Frame::Ack { accepted: 0 }, replies);
                Disposition::Continue
            }
            Frame::Resend(request) => {
                if !self.operator_plane {
                    return self.violation(replies);
                }
                self.shared
                    .mailbox
                    .push(request.user, ServerMessage::Resend(request));
                encode_frame(&Frame::Ack { accepted: 0 }, replies);
                Disposition::Continue
            }
            Frame::SwitchPolicy(policy) => {
                if !self.operator_plane {
                    return self.violation(replies);
                }
                let reply = self.broadcast_policy(policy);
                encode_frame(&reply, replies);
                Disposition::Continue
            }
            Frame::StatsRequest => {
                if !self.operator_plane {
                    return self.violation(replies);
                }
                let text = clamp_stats_text(self.shared.registry.render());
                encode_frame(&Frame::StatsReply(text), replies);
                Disposition::Continue
            }
            Frame::Shutdown => {
                encode_frame(&Frame::Ack { accepted: 0 }, replies);
                Disposition::Close
            }
            Frame::Ack { .. }
            | Frame::Nack { .. }
            | Frame::SubmitSequenced(_)
            | Frame::StatsReply(_) => self.violation(replies),
        }
    }

    fn closed(&self, _conn: RouterConn, _dropped: bool) {}
}

impl RouterService {
    /// Routes one client frame's worth of stream positions: reserve (or
    /// reuse) stamps, fan the not-yet-queued positions to their shards,
    /// advance the contiguous accepted prefix, and ack it honestly.
    fn route_submission(
        &self,
        conn: &mut RouterConn,
        entries: &[(PendingReport, bool)],
        replies: &mut Vec<u8>,
    ) -> Disposition {
        let k = entries.len();
        let shared = &self.shared;
        let n_shards = shared.backends.len();
        // Positions `acked..acked+k`. A conforming client's retry resends
        // exactly the unaccepted remainder, so the first tail slots line
        // up with the incoming reports: slots hold the stamps reserved
        // last time (and remember which positions some shard already
        // queued); any positions beyond the tail are new — reserve fresh
        // stamps in stream order.
        while conn.tail.len() < k {
            let seq = shared.next_seq.fetch_add(1, Ordering::Relaxed);
            conn.tail.push_back(TailSlot {
                seq,
                accepted: false,
            });
        }
        // Group the not-yet-queued positions by shard, preserving stream
        // order, stamped with their reserved sequence numbers.
        let mut per_shard: Vec<Vec<SequencedReport>> = vec![Vec::new(); n_shards];
        let mut slots_per_shard: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
        for (i, &(report, released)) in entries.iter().enumerate() {
            let slot = &conn.tail[i];
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
            if batch.is_empty() {
                continue;
            }
            for chunk_start in (0..batch.len()).step_by(MAX_REPORTS_PER_FRAME) {
                let chunk =
                    &batch[chunk_start..(chunk_start + MAX_REPORTS_PER_FRAME).min(batch.len())];
                shared.counters.fanout_batches.inc();
                shared
                    .counters
                    .fanout_batch_reports
                    .record(chunk.len() as u64);
                match shared.backends[shard].submit_sequenced(chunk) {
                    Ok(n) => {
                        for &i in &slots_per_shard[shard][chunk_start..chunk_start + n] {
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
        if frame_accepted > 0 {
            shared.counters.reports_routed.add(frame_accepted as u64);
        }
        let reply = if closed {
            shared.counters.closed_nacks.inc();
            Frame::Nack {
                reason: NackReason::Closed,
                accepted: frame_accepted as u32,
            }
        } else if frame_accepted == k {
            Frame::Ack {
                accepted: frame_accepted as u32,
            }
        } else {
            // The contiguous prefix stalled behind a backpressured shard:
            // the remainder waits for the client's retry.
            shared.counters.ack_prefix_stalls.inc();
            shared.counters.backpressure_nacks.inc();
            Frame::Nack {
                reason: NackReason::Backpressure,
                accepted: frame_accepted as u32,
            }
        };
        encode_frame(&reply, replies);
        Disposition::Continue
    }

    /// All-or-nothing policy broadcast: either every shard takes the new
    /// policy, or the shards that did are rolled back to the previous one
    /// and the operator is nacked. Serialized by the `current_policy`
    /// lock.
    fn broadcast_policy(&self, policy: LocationPolicyGraph) -> Frame {
        let shared = &self.shared;
        let mut current = shared.current_policy.lock();
        for (i, backend) in shared.backends.iter().enumerate() {
            if let Err(reason) = backend.switch_policy(
                &policy,
                self.config.switch_retries,
                self.config.switch_backoff,
            ) {
                // Roll the shards that already switched back to the last
                // policy every shard is known to share. Without a
                // recorded one (no broadcast has succeeded yet) there is
                // no baseline to restore — the shards keep whatever they
                // were spawned with, which the failed broadcast never
                // touched... except the first `i`; best effort only.
                if let Some(previous) = current.as_ref() {
                    for rolled in &shared.backends[..i] {
                        let _ = rolled.switch_policy(
                            previous,
                            self.config.switch_retries,
                            self.config.switch_backoff,
                        );
                    }
                    shared.counters.policy_rollbacks.inc();
                }
                match reason {
                    NackReason::Backpressure => shared.counters.backpressure_nacks.inc(),
                    _ => shared.counters.closed_nacks.inc(),
                };
                return Frame::Nack {
                    reason,
                    accepted: 0,
                };
            }
        }
        *current = Some(policy);
        shared.counters.policy_switches.inc();
        Frame::Ack { accepted: 0 }
    }

    /// A protocol violation on this plane: `Nack{Malformed}` and drop.
    fn violation(&self, replies: &mut Vec<u8>) -> Disposition {
        self.shared.core.malformed_nacks.inc();
        encode_frame(
            &Frame::Nack {
                reason: NackReason::Malformed,
                accepted: 0,
            },
            replies,
        );
        Disposition::Drop
    }
}
