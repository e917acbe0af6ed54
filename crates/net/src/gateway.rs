//! [`IngestGateway`]: the threaded TCP front end over
//! [`IngestHandle`](panda_surveillance::ingest::IngestHandle).
//!
//! One acceptor thread takes connections; each connection gets its own
//! handler thread that decodes frames incrementally and answers every
//! client frame in order (the socket machinery is the shared
//! [`crate::listener`] core, also behind the shard router):
//!
//! * every submission frame — [`Frame::Submit`], [`Frame::SubmitBatch`],
//!   [`Frame::Report`] and [`Frame::SubmitSequenced`] — goes through one
//!   non-blocking `IngestHandle::try_submit` on the pipeline queue, its
//!   decoded reports passed as they are (pending reports, an
//!   already-perturbed client-side release from the re-send protocol that
//!   lands verbatim, or upstream-stamped reports). Success is
//!   [`Frame::Ack`]`{accepted}`; a full queue is
//!   [`Frame::Nack`]`{Backpressure, accepted}` (`accepted` counts the
//!   enqueued prefix) — the handler **never blocks on the queue**, so one
//!   slow pipeline cannot wedge every socket thread;
//! * [`Frame::Fetch`] → answers with the user's oldest pending
//!   [`Frame::Assign`] / [`Frame::Resend`] from the gateway [`Mailbox`],
//!   or `Ack{0}` when none is pending;
//! * [`Frame::SwitchPolicy`] → on an operator-plane listener
//!   ([`GatewayConfig::allow_wire_policy_switch`]), builds a fresh
//!   `PolicyIndex` and routes it in-band through the queue; on the
//!   default data plane it is a protocol violation — untrusted reporters
//!   must not rewrite everyone's privacy policy. [`Frame::Assign`] and
//!   [`Frame::Resend`] are operator-plane too: they enqueue the
//!   server-initiated half of the re-send protocol into the mailbox;
//! * [`Frame::SubmitSequenced`] is honoured only on a shard plane
//!   ([`GatewayConfig::shard_plane`]): upstream-stamped arrival sequence
//!   numbers key the RNG streams, so accepting them from untrusted
//!   clients would let a reporter choose its noise;
//! * [`Frame::Shutdown`] → acknowledged, then the connection closes;
//! * undecodable bytes, or a frame that is not valid on this plane →
//!   [`Frame::Nack`]`{Malformed}` and the connection closes. The
//!   pipeline is untouched — one hostile client never poisons the
//!   stream of the others.
//!
//! [`IngestGateway::shutdown`] stops accepting, lets every handler finish
//! the frames it has already received (replies included), and joins all
//! threads. Reports the gateway has acked are in the pipeline queue by
//! definition, so `gateway.shutdown()` followed by `pipeline.shutdown()`
//! loses no acknowledged report.

use crate::listener::{CoreStats, Disposition, FrameService, Listener};
use crate::mailbox::{Mailbox, ServerMessage};
use crate::wire::{clamp_stats_text, encode_frame, Frame, NackReason};
use panda_check::ordered::{rank, OrderedMutex};
use panda_core::PolicyIndex;
use panda_obs::{Counter, Registry};
use panda_surveillance::ingest::{Entry, IngestHandle};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tunables of a gateway; the defaults suit loopback and LAN deployments.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Socket read buffer handed to each connection handler.
    pub read_buf: usize,
    /// How often an idle handler wakes to check for gateway shutdown (the
    /// socket read timeout).
    pub poll_interval: Duration,
    /// How long a reply write may stall before the connection is dropped
    /// (a client that stops reading its acks cannot wedge shutdown).
    pub write_timeout: Duration,
    /// Drop a connection after this long without receiving any bytes.
    /// Idle sockets hold a [`GatewayConfig::max_connections`] slot and a
    /// handler thread; without a deadline, an attacker could pin the whole
    /// cap with silent connections and starve legitimate clients. Clients
    /// that outlive the deadline simply reconnect.
    pub idle_timeout: Duration,
    /// Ceiling on concurrently-served connections. Each connection costs
    /// an OS thread plus read/decode buffers, so an unbounded accept loop
    /// is a resource-exhaustion DoS against an open ingest port; at the
    /// cap, further connections are accepted and immediately dropped
    /// (counted in [`GatewayStats::rejected_connections`]) until one
    /// closes.
    pub max_connections: usize,
    /// Whether [`Frame::SwitchPolicy`], [`Frame::Assign`] and
    /// [`Frame::Resend`] are honoured from this listener.
    ///
    /// **Off by default**: a policy switch weakens or changes the privacy
    /// guarantee of every later report from *every* client, and
    /// assignments/re-send requests impersonate the server half of the
    /// re-send protocol — privileged control operations all. An open
    /// ingest port serving untrusted reporters must refuse them (the
    /// gateway answers `Nack{Malformed}` and drops the connection, like
    /// any other protocol violation). Enable only on a listener reserved
    /// for the trusted operator plane (loopback, an authenticated
    /// sidecar, or a firewalled admin port).
    pub allow_wire_policy_switch: bool,
    /// Whether [`Frame::SubmitSequenced`] is honoured from this listener.
    ///
    /// **Off by default**: the stamped sequence numbers key the
    /// per-report RNG streams, so a client that chooses them chooses its
    /// own noise. Enable only on a shard node's listener serving a
    /// trusted routing tier ([`GatewayConfig::shard_plane`]).
    pub allow_sequenced_submit: bool,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            read_buf: 64 * 1024,
            poll_interval: Duration::from_millis(20),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(60),
            max_connections: 1024,
            allow_wire_policy_switch: false,
            allow_sequenced_submit: false,
        }
    }
}

impl GatewayConfig {
    /// The default config with [`GatewayConfig::allow_wire_policy_switch`]
    /// enabled — for operator-plane listeners.
    #[must_use]
    pub fn operator() -> Self {
        GatewayConfig {
            allow_wire_policy_switch: true,
            ..Default::default()
        }
    }

    /// The config for a shard node's listener serving a trusted routing
    /// tier: sequenced submission **and** operator frames are honoured
    /// (the router forwards policy broadcasts down the same link).
    #[must_use]
    pub fn shard_plane() -> Self {
        GatewayConfig {
            allow_wire_policy_switch: true,
            allow_sequenced_submit: true,
            ..Default::default()
        }
    }
}

/// Lifetime counters of a gateway, snapshotted by [`IngestGateway::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Connections accepted and served.
    pub connections: u64,
    /// Connections dropped at the [`GatewayConfig::max_connections`] cap.
    pub rejected_connections: u64,
    /// Connections that ended non-cleanly: read/write error, idle
    /// timeout, or a protocol violation (a clean `Shutdown` or EOF does
    /// not count).
    pub dropped_connections: u64,
    /// Frames decoded across all connections.
    pub frames: u64,
    /// Reports enqueued into the pipeline (and therefore acked).
    pub reports_enqueued: u64,
    /// `Nack{Backpressure}` replies sent.
    pub backpressure_nacks: u64,
    /// `Nack{Closed}` replies sent.
    pub closed_nacks: u64,
    /// `Nack{Malformed}` replies sent (each closes its connection).
    pub malformed_nacks: u64,
    /// In-band policy switches applied.
    pub policy_switches: u64,
    /// Mailbox fetches answered with a pending [`ServerMessage`].
    pub fetches_served: u64,
}

/// Service-level counters (socket-level ones live in [`CoreStats`]).
#[derive(Default)]
struct ServiceStats {
    reports_enqueued: Counter,
    backpressure_nacks: Counter,
    closed_nacks: Counter,
    policy_switches: Counter,
    fetches_served: Counter,
}

impl ServiceStats {
    fn register_into(&self, registry: &Registry) {
        registry.register_counter(
            "panda_gateway_reports_enqueued_total",
            &self.reports_enqueued,
        );
        registry.register_counter(
            "panda_gateway_backpressure_nacks_total",
            &self.backpressure_nacks,
        );
        registry.register_counter("panda_gateway_closed_nacks_total", &self.closed_nacks);
        registry.register_counter("panda_gateway_policy_switches_total", &self.policy_switches);
        registry.register_counter("panda_gateway_fetches_served_total", &self.fetches_served);
    }
}

/// One connection's submission counters, snapshotted by
/// [`IngestGateway::connection_stats`] — the router's per-downstream
/// health view.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnectionStats {
    /// Reports this connection has had accepted (acked into the queue).
    pub accepted: u64,
    /// Nack replies this connection has received.
    pub nacked: u64,
    /// Whether the connection is still being served.
    pub live: bool,
}

/// Live per-connection counters, registered at accept. `live` stays a
/// plain `AtomicBool`: it is functional state (registry pruning), not
/// telemetry, so it must survive `--cfg panda_obs_off`.
#[derive(Default)]
struct ConnCounters {
    accepted: Counter,
    nacked: Counter,
    live: AtomicBool,
}

/// The gateway's [`FrameService`]: frames drive the ingest pipeline.
struct PipelineService {
    ingest: IngestHandle,
    config: GatewayConfig,
    core: Arc<CoreStats>,
    stats: Arc<ServiceStats>,
    mailbox: Arc<Mailbox>,
    connections: OrderedMutex<Vec<Arc<ConnCounters>>>,
    /// This gateway's own scrape scope. Each gateway owns its own
    /// registry (two listeners over one pipeline must not collide);
    /// scrapes merge it with the pipeline's registry snapshot.
    registry: Arc<Registry>,
}

/// A running TCP ingest gateway; dropping it shuts it down.
pub struct IngestGateway {
    addr: SocketAddr,
    listener: Listener<PipelineService>,
    service: Arc<PipelineService>,
}

impl IngestGateway {
    /// Binds on `addr` (use port 0 for an ephemeral port) and starts
    /// accepting clients that feed `ingest`, under default
    /// [`GatewayConfig`].
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, ingest: IngestHandle) -> std::io::Result<Self> {
        Self::bind_with(addr, ingest, GatewayConfig::default())
    }

    /// [`IngestGateway::bind`] with explicit tunables.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        ingest: IngestHandle,
        config: GatewayConfig,
    ) -> std::io::Result<Self> {
        Self::bind_shared(addr, ingest, config, Arc::new(Mailbox::new()))
    }

    /// [`IngestGateway::bind_with`] with an explicit [`Mailbox`], so a
    /// data-plane and an operator-plane listener over the same pipeline
    /// can share one: the operator enqueues [`Frame::Assign`] /
    /// [`Frame::Resend`] on its plane, reporters poll [`Frame::Fetch`] on
    /// theirs.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_shared(
        addr: impl ToSocketAddrs,
        ingest: IngestHandle,
        config: GatewayConfig,
        mailbox: Arc<Mailbox>,
    ) -> std::io::Result<Self> {
        let core = Arc::new(CoreStats::default());
        let stats = Arc::new(ServiceStats::default());
        let registry = Arc::new(Registry::new());
        core.register_into(&registry, "gateway");
        stats.register_into(&registry);
        let service = Arc::new(PipelineService {
            ingest,
            config: config.clone(),
            core: Arc::clone(&core),
            stats,
            mailbox,
            connections: OrderedMutex::new(rank::GATEWAY_CONNECTIONS, Vec::new()),
            registry,
        });
        let listener = Listener::bind(addr, Arc::clone(&service), config, core, "panda-gateway")?;
        let addr = listener.local_addr();
        Ok(IngestGateway {
            addr,
            listener,
            service,
        })
    }

    /// The bound address (with the resolved port when bound on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The mailbox backing this gateway's [`Frame::Fetch`] /
    /// [`Frame::Assign`] / [`Frame::Resend`] handling.
    pub fn mailbox(&self) -> Arc<Mailbox> {
        Arc::clone(&self.service.mailbox)
    }

    /// A snapshot of the lifetime counters — a thin read of the same
    /// `panda-obs` cells the scrape plane exposes (all zero when the
    /// workspace is built with `--cfg panda_obs_off`).
    pub fn stats(&self) -> GatewayStats {
        let core = &self.service.core;
        let stats = &self.service.stats;
        GatewayStats {
            connections: core.connections.get(),
            rejected_connections: core.rejected_connections.get(),
            dropped_connections: core.dropped_connections.get(),
            frames: core.frames.get(),
            reports_enqueued: stats.reports_enqueued.get(),
            backpressure_nacks: stats.backpressure_nacks.get(),
            closed_nacks: stats.closed_nacks.get(),
            malformed_nacks: core.malformed_nacks.get(),
            policy_switches: stats.policy_switches.get(),
            fetches_served: stats.fetches_served.get(),
        }
    }

    /// The deterministic text exposition of this gateway's metrics merged
    /// with its pipeline's — the same text [`Frame::StatsRequest`] returns
    /// over the wire on an operator/shard plane.
    pub fn metrics_dump(&self) -> String {
        self.service.metrics_text()
    }

    /// Per-connection submission counters: every connection still being
    /// served, plus those that closed since the last accept pruned the
    /// registry. The router reads this (with
    /// [`IngestHandle::queue_len`](panda_surveillance::ingest::IngestHandle::queue_len))
    /// as its downstream health view.
    pub fn connection_stats(&self) -> Vec<ConnectionStats> {
        self.service
            .connections
            .lock()
            .iter()
            .map(|c| ConnectionStats {
                accepted: c.accepted.get(),
                nacked: c.nacked.get(),
                live: c.live.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Graceful shutdown: stop accepting, drain every live connection
    /// (frames already received are processed and answered), join all
    /// threads, and return the final counters. Every report acked before
    /// this returns sits in the pipeline queue — follow with
    /// `IngestPipeline::shutdown()` to land them all.
    pub fn shutdown(mut self) -> GatewayStats {
        self.listener.shutdown_in_place();
        self.stats()
    }
}

impl FrameService for PipelineService {
    type Conn = Arc<ConnCounters>;

    fn open(&self) -> Arc<ConnCounters> {
        let counters = Arc::new(ConnCounters {
            live: AtomicBool::new(true),
            ..Default::default()
        });
        let mut registry = self.connections.lock();
        // Prune entries whose connection has closed, so a long-lived
        // gateway's registry tracks churn instead of history.
        registry.retain(|c| c.live.load(Ordering::Relaxed));
        registry.push(Arc::clone(&counters));
        counters
    }

    /// Which frame tags this listener is willing to *decode*: submissions
    /// (pending and released), fetch polls and clean shutdown always;
    /// policy switches, assignments, re-send requests and stats scrapes
    /// only on the operator plane; sequenced submission only on a shard
    /// plane. Everything else — server → client tags, unknown tags — is
    /// refused at header cost.
    fn permits(&self, t: u8) -> bool {
        use crate::wire::tag;
        matches!(
            t,
            tag::SUBMIT | tag::SUBMIT_BATCH | tag::SHUTDOWN | tag::REPORT | tag::FETCH
        ) || (self.config.allow_wire_policy_switch
            && matches!(
                t,
                tag::SWITCH_POLICY | tag::ASSIGN | tag::RESEND | tag::STATS_REQUEST
            ))
            || (self.config.allow_sequenced_submit && t == tag::SUBMIT_SEQUENCED)
    }

    fn handle(
        &self,
        conn: &mut Arc<ConnCounters>,
        frame: Frame,
        replies: &mut Vec<u8>,
    ) -> Disposition {
        match frame {
            Frame::Submit(report) => self.submit(conn, &[report], replies),
            Frame::SubmitBatch(reports) => self.submit(conn, &reports, replies),
            Frame::Report(report) => self.submit(conn, &[report], replies),
            Frame::SubmitSequenced(reports) => {
                if !self.config.allow_sequenced_submit {
                    return self.violation(conn, replies);
                }
                self.submit(conn, &reports, replies)
            }
            Frame::Fetch { user } => {
                let reply = match self.mailbox.fetch(user) {
                    Some(msg) => {
                        self.stats.fetches_served.inc();
                        msg.into_frame()
                    }
                    None => Frame::Ack { accepted: 0 },
                };
                encode_frame(&reply, replies);
                Disposition::Continue
            }
            Frame::Assign(assignment) => {
                if !self.config.allow_wire_policy_switch {
                    return self.violation(conn, replies);
                }
                self.mailbox
                    .push(assignment.user, ServerMessage::Assign(assignment));
                encode_frame(&Frame::Ack { accepted: 0 }, replies);
                Disposition::Continue
            }
            Frame::Resend(request) => {
                if !self.config.allow_wire_policy_switch {
                    return self.violation(conn, replies);
                }
                self.mailbox
                    .push(request.user, ServerMessage::Resend(request));
                encode_frame(&Frame::Ack { accepted: 0 }, replies);
                Disposition::Continue
            }
            Frame::SwitchPolicy(policy) => {
                if !self.config.allow_wire_policy_switch {
                    // A policy switch changes the privacy guarantee for
                    // every client; on a data-plane listener it is a
                    // protocol violation, refused like any other hostile
                    // frame.
                    return self.violation(conn, replies);
                }
                // `try_switch_policy`, not the blocking variant: the
                // handler contract is that socket threads never park on
                // the queue. The operator client retries on backpressure
                // like a submit.
                let outcome = match self
                    .ingest
                    .try_switch_policy(&Arc::new(PolicyIndex::new(policy)))
                {
                    Ok(true) => {
                        self.stats.policy_switches.inc();
                        Ok(0)
                    }
                    Ok(false) => Err((NackReason::Backpressure, 0)),
                    Err(_) => Err((NackReason::Closed, 0)),
                };
                self.reply(conn, outcome, replies)
            }
            Frame::StatsRequest => {
                if !self.config.allow_wire_policy_switch {
                    // Stats expose queue depths and per-stage health —
                    // operator-plane intelligence an open ingest port
                    // must not hand to untrusted reporters.
                    return self.violation(conn, replies);
                }
                encode_frame(&Frame::StatsReply(self.metrics_text()), replies);
                Disposition::Continue
            }
            Frame::Shutdown => {
                encode_frame(&Frame::Ack { accepted: 0 }, replies);
                Disposition::Close
            }
            // Server → client frames arriving at the server are a
            // protocol violation: refuse and close, exactly like
            // undecodable bytes.
            Frame::Ack { .. } | Frame::Nack { .. } | Frame::StatsReply(_) => {
                self.violation(conn, replies)
            }
        }
    }

    fn closed(&self, conn: Arc<ConnCounters>, _dropped: bool) {
        conn.live.store(false, Ordering::Relaxed);
    }
}

impl PipelineService {
    /// Offers `entries` to the pipeline without blocking and answers with
    /// the accepted prefix: `Ack` when all of it fits, else `Nack` with
    /// the reason.
    fn submit<E: Copy + Into<Entry>>(
        &self,
        conn: &Arc<ConnCounters>,
        entries: &[E],
        replies: &mut Vec<u8>,
    ) -> Disposition {
        let outcome = match self.ingest.try_submit(entries) {
            Ok(accepted) if accepted == entries.len() => Ok(accepted),
            Ok(accepted) => Err((NackReason::Backpressure, accepted)),
            Err(_) => Err((NackReason::Closed, 0)),
        };
        self.reply(conn, outcome, replies)
    }

    /// Encodes the Ack/Nack for an outcome that accepted `Ok(n)` or
    /// refused with a reason and an accepted prefix, updating gateway and
    /// per-connection counters.
    fn reply(
        &self,
        conn: &Arc<ConnCounters>,
        outcome: Result<usize, (NackReason, usize)>,
        replies: &mut Vec<u8>,
    ) -> Disposition {
        let reply = match outcome {
            Ok(accepted) => {
                self.count_accepted(conn, accepted);
                Frame::Ack {
                    accepted: accepted as u32,
                }
            }
            Err((reason, accepted)) => {
                self.count_accepted(conn, accepted);
                match reason {
                    NackReason::Backpressure => self.stats.backpressure_nacks.inc(),
                    _ => self.stats.closed_nacks.inc(),
                };
                conn.nacked.inc();
                Frame::Nack {
                    reason,
                    accepted: accepted as u32,
                }
            }
        };
        encode_frame(&reply, replies);
        Disposition::Continue
    }

    fn count_accepted(&self, conn: &Arc<ConnCounters>, accepted: usize) {
        if accepted > 0 {
            self.stats.reports_enqueued.add(accepted as u64);
            conn.accepted.add(accepted as u64);
        }
    }

    /// The merged exposition text served to scrapes: the gateway's own
    /// frame/connection metrics joined with the pipeline's ingest-side
    /// registry (disjoint name prefixes, so the merge never clashes).
    fn metrics_text(&self) -> String {
        let mut snap = self.registry.snapshot();
        snap.merge(&self.ingest.metrics().snapshot());
        clamp_stats_text(snap.render())
    }

    /// A protocol violation on this plane: `Nack{Malformed}` and drop.
    fn violation(&self, conn: &Arc<ConnCounters>, replies: &mut Vec<u8>) -> Disposition {
        self.core.malformed_nacks.inc();
        conn.nacked.inc();
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
