//! The shared TCP front end behind [`crate::IngestGateway`] and
//! [`crate::ShardRouter`].
//!
//! Both tiers speak the same framed protocol with the same discipline —
//! one acceptor thread, one handler thread per connection, incremental
//! decode, tag-level privilege gating, batched replies, never blocking on
//! a downstream queue. The listener owns every frame both tiers treat
//! alike:
//!
//! * the privilege check, one [`Plane`] per listener, applied at the frame
//!   tag before any payload byte is parsed. A refused tag, undecodable
//!   bytes and server → client tags all get [`Frame::Nack`]`{Malformed}`
//!   and the connection is dropped;
//! * [`Frame::Fetch`], [`Frame::Assign`] and [`Frame::Resend`] over the
//!   listener's [`Mailbox`]: the operator pushes, the reporter polls, and a
//!   fetch with nothing pending is answered `Ack{0}`;
//! * [`Frame::StatsRequest`] (answered with the service's scrape text) and
//!   [`Frame::Shutdown`] (acked, then the connection closes cleanly);
//! * the Ack/Nack encoding of every outcome and the counters both tiers
//!   keep ([`CoreStats`]).
//!
//! What differs is the [`FrameService`]: what a submission does, how a
//! policy switch applies, and what a scrape returns.

use crate::gateway::GatewayConfig;
use crate::mailbox::{Mailbox, ServerMessage};
use crate::wire::{encode_frame, tag, Frame, FrameDecoder, NackReason};
use panda_check::ordered::{rank, OrderedMutex};
use panda_core::LocationPolicyGraph;
use panda_obs::{clock, Counter, Histogram, Registry};
use panda_surveillance::ingest::{PendingReport, SequencedReport};
use panda_surveillance::protocol::LocationReport;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which frames a listener decodes: its trust level.
///
/// Every plane serves submissions ([`Frame::Submit`],
/// [`Frame::SubmitBatch`], [`Frame::Report`]), [`Frame::Fetch`] polls and
/// [`Frame::Shutdown`]. Anything a plane does not permit is refused at
/// header cost with `Nack{Malformed}`, and the connection is dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Plane {
    /// The open ingest port for untrusted reporters (the default).
    #[default]
    Data,
    /// The trusted operator plane. It also serves [`Frame::SwitchPolicy`],
    /// the [`Frame::Assign`] / [`Frame::Resend`] mailbox pushes and
    /// [`Frame::StatsRequest`]. A policy switch changes the privacy
    /// guarantee of every later report from every client, the pushes
    /// impersonate the server half of the re-send protocol, and stats
    /// expose queue depths and per-stage health; none of that is for
    /// untrusted reporters. Bind it on loopback, behind an authenticated
    /// sidecar, or on a firewalled admin port.
    Operator,
    /// A shard node's plane for its trusted routing tier: everything the
    /// operator plane serves plus [`Frame::SubmitSequenced`]. The
    /// upstream stamps key the per-report RNG streams, so a client that
    /// chose them would choose its own noise.
    Shard,
}

impl Plane {
    /// Whether this plane decodes frames carrying `t`.
    fn permits(self, t: u8) -> bool {
        matches!(
            t,
            tag::SUBMIT | tag::SUBMIT_BATCH | tag::SHUTDOWN | tag::REPORT | tag::FETCH
        ) || (self != Plane::Data
            && matches!(
                t,
                tag::SWITCH_POLICY | tag::ASSIGN | tag::RESEND | tag::STATS_REQUEST
            ))
            || (self == Plane::Shard && t == tag::SUBMIT_SEQUENCED)
    }
}

/// The reports of one submission frame, borrowed from it.
pub(crate) enum Submission<'a> {
    /// Planned reports to perturb ([`Frame::Submit`], [`Frame::SubmitBatch`]).
    Pending(&'a [PendingReport]),
    /// Already-perturbed client releases that land verbatim ([`Frame::Report`]).
    Released(&'a [LocationReport]),
    /// Upstream-stamped reports ([`Frame::SubmitSequenced`]).
    Sequenced(&'a [SequencedReport]),
}

/// What a frame achieved: `Ok(accepted)`, or a refusal with its reason
/// and the accepted prefix. The listener encodes it as `Ack`/`Nack`.
pub(crate) type Outcome = Result<usize, (NackReason, usize)>;

/// The part of frame handling that differs between tiers.
///
/// Both methods run on a connection's own thread and must never block on
/// a downstream queue (use `try_*` submission paths).
pub(crate) trait FrameService: Send + Sync + 'static {
    /// Per-connection state, created at accept.
    type Conn: Default + Send + 'static;

    /// Offers one submission frame's reports downstream.
    fn submit(&self, conn: &mut Self::Conn, reports: Submission<'_>) -> Outcome;

    /// Applies a policy switch from the operator.
    fn switch_policy(&self, policy: LocationPolicyGraph) -> Outcome;

    /// The text exposition served to [`Frame::StatsRequest`].
    fn metrics_text(&self) -> String;
}

/// The counters both tiers keep. The registry holds the same handles, so
/// a tier's stats snapshot and its scrape read one copy of each count.
#[derive(Default)]
pub(crate) struct CoreStats {
    pub connections: Counter,
    pub rejected_connections: Counter,
    pub dropped_connections: Counter,
    pub frames: Counter,
    /// Reports accepted downstream by submission frames (and acked).
    pub reports_accepted: Counter,
    pub backpressure_nacks: Counter,
    pub closed_nacks: Counter,
    pub malformed_nacks: Counter,
    /// Policy switches the service applied.
    pub policy_switches: Counter,
    /// Fetches answered with a pending [`ServerMessage`].
    pub fetches_served: Counter,
    /// End-to-end latency of handling one decoded frame (dispatch through
    /// reply encode), in nanoseconds. Telemetry.
    pub frame_ns: Histogram,
}

impl CoreStats {
    /// Registers every instrument into `registry` as
    /// `panda_<component>_<what>` (`component` is `gateway` or `router`).
    /// `accepted` names [`CoreStats::reports_accepted`] for the tier.
    pub fn register_into(&self, registry: &Registry, component: &str, accepted: &str) {
        let counters = [
            ("connections_total", &self.connections),
            ("rejected_connections_total", &self.rejected_connections),
            ("dropped_connections_total", &self.dropped_connections),
            ("frames_total", &self.frames),
            (accepted, &self.reports_accepted),
            ("backpressure_nacks_total", &self.backpressure_nacks),
            ("closed_nacks_total", &self.closed_nacks),
            ("malformed_nacks_total", &self.malformed_nacks),
            ("policy_switches_total", &self.policy_switches),
            ("fetches_served_total", &self.fetches_served),
        ];
        for (what, counter) in counters {
            registry.register_counter(&format!("panda_{component}_{what}"), counter);
        }
        registry.register_histogram(&format!("panda_{component}_frame_ns"), &self.frame_ns);
    }
}

/// What every connection of a listener shares: the tier's service, the
/// counters and the mailbox. A router's two planes share one.
pub(crate) struct Front<S> {
    pub service: S,
    pub core: CoreStats,
    pub mailbox: Arc<Mailbox>,
}

/// What a frame asks the connection to do next.
enum Disposition {
    /// Keep serving.
    Continue,
    /// Close after flushing replies — a **clean** end (`Frame::Shutdown`).
    Close,
    /// Close after flushing replies — a protocol violation; the
    /// connection counts as dropped.
    Drop,
}

impl<S: FrameService> Front<S> {
    /// Applies one decoded frame and queues its reply onto `replies`.
    fn handle(&self, conn: &mut S::Conn, frame: Frame, replies: &mut Vec<u8>) -> Disposition {
        let outcome = match frame {
            Frame::Submit(report) => self
                .service
                .submit(conn, Submission::Pending(std::slice::from_ref(&report))),
            Frame::SubmitBatch(reports) => self.service.submit(conn, Submission::Pending(&reports)),
            Frame::Report(report) => self
                .service
                .submit(conn, Submission::Released(std::slice::from_ref(&report))),
            Frame::SubmitSequenced(reports) => {
                self.service.submit(conn, Submission::Sequenced(&reports))
            }
            Frame::SwitchPolicy(policy) => {
                let outcome = self.service.switch_policy(policy);
                if outcome.is_ok() {
                    self.core.policy_switches.inc();
                }
                outcome
            }
            Frame::Fetch { user } => {
                let reply = match self.mailbox.fetch(user) {
                    Some(msg) => {
                        self.core.fetches_served.inc();
                        msg.into_frame()
                    }
                    None => Frame::Ack { accepted: 0 },
                };
                encode_frame(&reply, replies);
                return Disposition::Continue;
            }
            Frame::Assign(assignment) => {
                self.mailbox
                    .push(assignment.user, ServerMessage::Assign(assignment));
                Ok(0)
            }
            Frame::Resend(request) => {
                self.mailbox
                    .push(request.user, ServerMessage::Resend(request));
                Ok(0)
            }
            Frame::StatsRequest => {
                encode_frame(&Frame::StatsReply(self.service.metrics_text()), replies);
                return Disposition::Continue;
            }
            Frame::Shutdown => {
                encode_frame(&Frame::Ack { accepted: 0 }, replies);
                return Disposition::Close;
            }
            // No plane decodes server → client tags; refused like
            // undecodable bytes should one ever get this far.
            Frame::Ack { .. } | Frame::Nack { .. } | Frame::StatsReply(_) => {
                Err((NackReason::Malformed, 0))
            }
        };
        self.reply(outcome, replies)
    }

    /// Encodes `outcome` as `Ack`/`Nack` and counts it. A `Malformed`
    /// refusal drops the connection.
    fn reply(&self, outcome: Outcome, replies: &mut Vec<u8>) -> Disposition {
        let core = &self.core;
        let (Ok(accepted) | Err((_, accepted))) = outcome;
        if accepted > 0 {
            core.reports_accepted.add(accepted as u64);
        }
        let accepted = accepted as u32;
        let (reply, disposition) = match outcome {
            Ok(_) => (Frame::Ack { accepted }, Disposition::Continue),
            Err((reason, _)) => {
                let (counter, disposition) = match reason {
                    NackReason::Backpressure => (&core.backpressure_nacks, Disposition::Continue),
                    NackReason::Closed => (&core.closed_nacks, Disposition::Continue),
                    NackReason::Malformed => (&core.malformed_nacks, Disposition::Drop),
                };
                counter.inc();
                (Frame::Nack { reason, accepted }, disposition)
            }
        };
        encode_frame(&reply, replies);
        disposition
    }
}

/// A running framed-protocol listener; dropping it shuts it down.
pub(crate) struct Listener<S: FrameService> {
    addr: SocketAddr,
    front: Arc<Front<S>>,
    stop: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    handlers: Arc<OrderedMutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl<S: FrameService> Listener<S> {
    /// Binds on `addr` and starts accepting connections served by
    /// `front` on `config.plane`. `name` labels the acceptor/handler
    /// threads.
    pub fn bind(
        addr: impl ToSocketAddrs,
        front: Arc<Front<S>>,
        config: GatewayConfig,
        name: &'static str,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Polling a non-blocking listener (instead of parking in `accept`)
        // keeps shutdown independent of network traffic; set up here so a
        // platform that refuses fails the bind, not the acceptor thread.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let handlers = Arc::new(OrderedMutex::new(rank::LISTENER_REGISTRY, Vec::new()));
        let acceptor = {
            let (front, stop, handlers) =
                (Arc::clone(&front), Arc::clone(&stop), Arc::clone(&handlers));
            std::thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || {
                    accept_loop(listener, front, config, stop, handlers, name);
                })?
        };
        Ok(Listener {
            addr,
            front,
            stop,
            acceptor: Some(acceptor),
            handlers,
        })
    }

    /// The bound address (with the resolved port when bound on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service, counters and mailbox this listener serves.
    pub fn front(&self) -> &Arc<Front<S>> {
        &self.front
    }

    /// Graceful shutdown: stop accepting, drain every live connection
    /// (frames already received are processed and answered), join all
    /// threads.
    pub fn shutdown_in_place(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // The acceptor polls a non-blocking listener, so it observes the
        // flag within one poll interval (no wake-up connection needed —
        // connecting could itself fail under fd exhaustion).
        //
        // The joins re-raise a worker thread's panic on the shutdown
        // caller; they are unreachable from hostile bytes (a malformed
        // frame is a typed decode error, never a worker panic).
        // panda-check: allow(panic_path): propagates a worker panic only
        acceptor.join().expect("listener acceptor panicked");
        let handlers = std::mem::take(&mut *self.handlers.lock());
        for h in handlers {
            // panda-check: allow(panic_path): propagates a worker panic only
            h.join().expect("connection handler panicked");
        }
    }
}

impl<S: FrameService> Drop for Listener<S> {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn accept_loop<S: FrameService>(
    listener: TcpListener,
    front: Arc<Front<S>>,
    config: GatewayConfig,
    stop: Arc<AtomicBool>,
    handlers: Arc<OrderedMutex<Vec<std::thread::JoinHandle<()>>>>,
    name: &'static str,
) {
    let core = &front.core;
    // The listener arrives non-blocking (set in `bind`, where a platform
    // refusal still propagates as an `io::Error`): the stop flag is
    // observed within one poll interval even under fd exhaustion, when a
    // wake-up connection could not be made. The idle poll is 1 ms — cheap
    // on an idle acceptor thread, and small enough not to tax connect
    // latency or per-connection benchmarks.
    const ACCEPT_POLL: Duration = Duration::from_millis(1);
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
                continue;
            }
            // Transient accept failures (per-connection resets, fd
            // exhaustion) must not kill the loop — and must not spin it
            // hot either; the longer pause gives the fd table room to
            // recover.
            Err(_) => {
                std::thread::sleep(config.poll_interval);
                continue;
            }
        };
        // Some platforms hand the accepted socket the listener's
        // non-blocking flag; the handler's read-timeout logic expects a
        // blocking stream.
        if stream.set_nonblocking(false).is_err() {
            continue;
        }
        let mut registry = handlers.lock();
        // Reap finished handlers as connections churn, so a long-lived
        // listener holds registry entries (and thread stacks) only for
        // live connections. Finished threads join instantly.
        let mut live = Vec::with_capacity(registry.len() + 1);
        for h in registry.drain(..) {
            if h.is_finished() {
                // panda-check: allow(panic_path): propagates a worker panic only
                h.join().expect("connection handler panicked");
            } else {
                live.push(h);
            }
        }
        // The connection cap: a thread + buffers per connection must not
        // be mintable without bound by whoever can reach the port.
        if live.len() >= config.max_connections.max(1) {
            core.rejected_connections.inc();
            *registry = live;
            drop(registry);
            drop(stream);
            continue;
        }
        let spawned = {
            let (front, stop, config) = (Arc::clone(&front), Arc::clone(&stop), config.clone());
            std::thread::Builder::new()
                .name(format!("{name}-conn"))
                .spawn(move || serve_connection(stream, &front, &config, &stop))
        };
        match spawned {
            Ok(handler) => {
                core.connections.inc();
                live.push(handler);
            }
            // Thread exhaustion is the same resource pressure as the
            // connection cap: refuse this connection (the stream moved
            // into the failed closure and is already gone), keep serving.
            Err(_) => {
                core.rejected_connections.inc();
            }
        }
        *registry = live;
    }
}

fn serve_connection<S: FrameService>(
    mut stream: TcpStream,
    front: &Front<S>,
    config: &GatewayConfig,
    stop: &AtomicBool,
) {
    // Per-frame acks on a stream of small frames need low latency;
    // timeouts keep both directions from wedging shutdown.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(config.poll_interval));
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let mut conn = S::Conn::default();
    let mut decoder = FrameDecoder::new();
    let mut buf = vec![0u8; config.read_buf.max(1)];
    let mut replies = Vec::new();
    let mut eof = false;
    let mut dropped = false;
    let mut last_bytes = clock::now();
    loop {
        if !eof {
            match stream.read(&mut buf) {
                Ok(0) => eof = true,
                Ok(n) => {
                    // panda-check: allow(panic_path): read() contract: n <= buf.len()
                    decoder.feed(&buf[..n]);
                    last_bytes = clock::now();
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if stop.load(Ordering::SeqCst) {
                        // Listener shutdown: drain what already arrived,
                        // reply, then close.
                        eof = true;
                    } else if clock::now().saturating_duration_since(last_bytes)
                        >= config.idle_timeout
                    {
                        // A silent socket must not pin a connection slot
                        // forever; drop it (the client reconnects).
                        dropped = true;
                        break;
                    } else {
                        continue;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    dropped = true;
                    break;
                }
            }
        }
        replies.clear();
        let mut disposition = Disposition::Continue;
        loop {
            // Privilege is enforced at the tag, before payload decode: a
            // data-plane client cannot make the server build a policy
            // graph (or parse any other privileged/server-bound payload)
            // just to have it refused.
            match decoder.next_frame_permitted(|t| config.plane.permits(t)) {
                Ok(Some(frame)) => {
                    front.core.frames.inc();
                    disposition = front
                        .core
                        .frame_ns
                        .time(|| front.handle(&mut conn, frame, &mut replies));
                    if !matches!(disposition, Disposition::Continue) {
                        break;
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    // Framing is lost: refuse and drop the connection. The
                    // downstream tier never saw the bytes, so other
                    // clients are unaffected.
                    disposition = front.reply(Err((NackReason::Malformed, 0)), &mut replies);
                    break;
                }
            }
        }
        if !replies.is_empty() && stream.write_all(&replies).is_err() {
            dropped = true;
            break;
        }
        match disposition {
            Disposition::Close => break,
            Disposition::Drop => {
                dropped = true;
                break;
            }
            Disposition::Continue => {}
        }
        if eof {
            break;
        }
        // A client that keeps the socket busy must not outlive shutdown:
        // the flag is re-checked here, not only on idle read timeouts.
        // One more iteration drains frames already buffered, then exits.
        if stop.load(Ordering::SeqCst) {
            eof = true;
        }
    }
    if dropped {
        front.core.dropped_connections.inc();
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}
