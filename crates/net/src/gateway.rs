//! [`IngestGateway`]: the threaded TCP front end over
//! [`IngestHandle`].
//!
//! The socket machinery, the privilege check ([`Plane`]), the mailbox
//! frames, scrapes, clean shutdown and the Ack/Nack encoding are the
//! shared `listener` core, also behind the shard router. What
//! the gateway adds:
//!
//! * every submission frame — [`crate::Frame::Submit`],
//!   [`crate::Frame::SubmitBatch`], [`crate::Frame::Report`] and, on a
//!   shard plane, [`crate::Frame::SubmitSequenced`] — goes through one
//!   non-blocking `IngestHandle::try_submit` on the pipeline queue, its
//!   decoded reports passed as they are (pending reports, an
//!   already-perturbed client-side release from the re-send protocol that
//!   lands verbatim, or upstream-stamped reports). Success is
//!   [`crate::Frame::Ack`]`{accepted}`; a full queue is
//!   [`crate::Frame::Nack`]`{Backpressure, accepted}` (`accepted` counts
//!   the enqueued prefix) — the handler **never blocks on the queue**, so
//!   one slow pipeline cannot wedge every socket thread;
//! * [`crate::Frame::SwitchPolicy`] on an operator or shard plane builds a
//!   fresh `PolicyIndex` and routes it in-band through the queue, so the
//!   boundary in the landed stream is exact;
//! * a scrape returns the gateway's counters merged with its pipeline's.
//!
//! [`IngestGateway::shutdown`] stops accepting, lets every handler finish
//! the frames it has already received (replies included), and joins all
//! threads. Reports the gateway has acked are in the pipeline queue by
//! definition, so `gateway.shutdown()` followed by `pipeline.shutdown()`
//! loses no acknowledged report.

use crate::listener::{CoreStats, FrameService, Front, Listener, Outcome, Plane, Submission};
use crate::mailbox::Mailbox;
use crate::wire::{clamp_stats_text, NackReason};
use panda_core::{LocationPolicyGraph, PolicyIndex};
use panda_obs::Registry;
use panda_surveillance::ingest::{Entry, IngestHandle};
use std::net::{SocketAddr, ToSocketAddrs};
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
    /// Which frames this listener serves. **[`Plane::Data`] by default**:
    /// an open ingest port serving untrusted reporters refuses every
    /// privileged frame.
    pub plane: Plane,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            read_buf: 64 * 1024,
            poll_interval: Duration::from_millis(20),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(60),
            max_connections: 1024,
            plane: Plane::Data,
        }
    }
}

impl GatewayConfig {
    /// The default config on [`Plane::Operator`] — for operator-plane
    /// listeners.
    #[must_use]
    pub fn operator() -> Self {
        GatewayConfig {
            plane: Plane::Operator,
            ..Default::default()
        }
    }

    /// The config for a shard node's listener serving a trusted routing
    /// tier ([`Plane::Shard`]): sequenced submission **and** operator
    /// frames are honoured (the router forwards policy broadcasts down
    /// the same link).
    #[must_use]
    pub fn shard_plane() -> Self {
        GatewayConfig {
            plane: Plane::Shard,
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
    /// Mailbox fetches answered with a pending [`crate::ServerMessage`].
    pub fetches_served: u64,
}

/// The gateway's [`FrameService`]: frames drive the ingest pipeline.
struct PipelineService {
    ingest: IngestHandle,
    /// This gateway's own scrape scope. Each gateway owns its own
    /// registry (two listeners over one pipeline must not collide);
    /// scrapes merge it with the pipeline's registry snapshot.
    registry: Registry,
}

/// A running TCP ingest gateway; dropping it shuts it down.
pub struct IngestGateway {
    listener: Listener<PipelineService>,
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
    /// can share one: the operator pushes assignments and re-send
    /// requests on its plane, reporters fetch them on theirs.
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
        let core = CoreStats::default();
        let registry = Registry::new();
        core.register_into(&registry, "gateway", "reports_enqueued_total");
        let front = Arc::new(Front {
            service: PipelineService { ingest, registry },
            core,
            mailbox,
        });
        let listener = Listener::bind(addr, front, config, "panda-gateway")?;
        Ok(IngestGateway { listener })
    }

    /// The bound address (with the resolved port when bound on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// The mailbox this gateway's fetches read and its operator pushes
    /// fill.
    pub fn mailbox(&self) -> Arc<Mailbox> {
        Arc::clone(&self.listener.front().mailbox)
    }

    /// A snapshot of the lifetime counters: reads of the counters the
    /// scrape plane exposes.
    pub fn stats(&self) -> GatewayStats {
        let core = &self.listener.front().core;
        GatewayStats {
            connections: core.connections.get(),
            rejected_connections: core.rejected_connections.get(),
            dropped_connections: core.dropped_connections.get(),
            frames: core.frames.get(),
            reports_enqueued: core.reports_accepted.get(),
            backpressure_nacks: core.backpressure_nacks.get(),
            closed_nacks: core.closed_nacks.get(),
            malformed_nacks: core.malformed_nacks.get(),
            policy_switches: core.policy_switches.get(),
            fetches_served: core.fetches_served.get(),
        }
    }

    /// The deterministic text exposition of this gateway's metrics merged
    /// with its pipeline's — the same text a wire scrape returns on an
    /// operator/shard plane.
    pub fn metrics_dump(&self) -> String {
        self.listener.front().service.metrics_text()
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
    type Conn = ();

    /// Offers the reports to the pipeline without blocking: `Ok` when all
    /// of them fit, else the reason and the enqueued prefix.
    fn submit(&self, _conn: &mut (), reports: Submission<'_>) -> Outcome {
        match reports {
            Submission::Pending(r) => self.try_submit(r),
            Submission::Released(r) => self.try_submit(r),
            Submission::Sequenced(r) => self.try_submit(r),
        }
    }

    fn switch_policy(&self, policy: LocationPolicyGraph) -> Outcome {
        // `try_switch_policy`, not the blocking variant: socket threads
        // never park on the queue. The operator client retries on
        // backpressure like a submit.
        match self
            .ingest
            .try_switch_policy(&Arc::new(PolicyIndex::new(policy)))
        {
            Ok(true) => Ok(0),
            Ok(false) => Err((NackReason::Backpressure, 0)),
            Err(_) => Err((NackReason::Closed, 0)),
        }
    }

    /// The gateway's own counters joined with the pipeline's ingest-side
    /// registry (disjoint name prefixes, so the merge never clashes).
    fn metrics_text(&self) -> String {
        let mut snap = self.registry.snapshot();
        snap.merge(&self.ingest.metrics().snapshot());
        clamp_stats_text(snap.render())
    }
}

impl PipelineService {
    fn try_submit<E: Copy + Into<Entry>>(&self, entries: &[E]) -> Outcome {
        match self.ingest.try_submit(entries) {
            Ok(accepted) if accepted == entries.len() => Ok(accepted),
            Ok(accepted) => Err((NackReason::Backpressure, accepted)),
            Err(_) => Err((NackReason::Closed, 0)),
        }
    }
}
