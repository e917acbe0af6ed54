//! [`GatewayClient`]: the blocking client SDK for the ingest gateway.
//!
//! One TCP connection, strict request/reply: every
//! `Submit`/`SubmitBatch`/`SwitchPolicy`/`Shutdown` frame is answered by
//! exactly one `Ack`/`Nack` in order, so the client never parses an
//! ambiguous stream. Backpressure ([`NackReason::Backpressure`]) is
//! handled inside [`GatewayClient::submit`] and
//! [`GatewayClient::submit_batch`] by a bounded retry loop
//! ([`RetryPolicy`]): a nacked batch resumes from the acknowledged prefix,
//! so report order — and therefore the pipeline's arrival-sequence
//! determinism — is preserved across retries.

use crate::mailbox::ServerMessage;
use crate::wire::{
    encode_frame, encode_submit_batch, encode_submit_sequenced, read_frame, Frame, NackReason,
    ReadFrameError, MAX_REPORTS_PER_FRAME,
};
use panda_core::LocationPolicyGraph;
use panda_mobility::UserId;
use panda_surveillance::ingest::{PendingReport, SequencedReport};
use panda_surveillance::protocol::{LocationReport, PolicyAssignment, ResendRequest};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// How a client rides out [`NackReason::Backpressure`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Consecutive no-progress nacks tolerated before giving up with
    /// [`ClientError::Saturated`]. A batch nack that accepted a prefix
    /// counts as progress and resets the budget.
    pub max_attempts: u32,
    /// Pause before each resend.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 256,
            backoff: Duration::from_micros(500),
        }
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server's reply did not decode (version skew or corruption).
    Decode(crate::wire::DecodeError),
    /// The server closed the connection.
    Disconnected,
    /// The pipeline behind the gateway has shut down.
    Closed,
    /// Backpressure outlasted the whole [`RetryPolicy`] budget.
    Saturated,
    /// The server refused the frame as malformed protocol traffic.
    Rejected,
    /// The server answered out of protocol (not an `Ack`/`Nack`).
    UnexpectedReply,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "gateway i/o failed: {e}"),
            ClientError::Decode(e) => write!(f, "gateway reply did not decode: {e}"),
            ClientError::Disconnected => f.write_str("gateway closed the connection"),
            ClientError::Closed => f.write_str("ingest pipeline behind the gateway has shut down"),
            ClientError::Saturated => {
                f.write_str("backpressure persisted through every retry attempt")
            }
            ClientError::Rejected => f.write_str("gateway rejected the frame as malformed"),
            ClientError::UnexpectedReply => f.write_str("gateway replied out of protocol"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ReadFrameError> for ClientError {
    fn from(e: ReadFrameError) -> Self {
        match e {
            ReadFrameError::Io(e) => ClientError::Io(e),
            ReadFrameError::Decode(e) => ClientError::Decode(e),
            ReadFrameError::UnexpectedEof => ClientError::Disconnected,
        }
    }
}

/// A blocking connection to an [`crate::IngestGateway`].
pub struct GatewayClient {
    stream: TcpStream,
    retry: RetryPolicy,
    send_buf: Vec<u8>,
    backpressure_retries: u64,
}

impl GatewayClient {
    /// Connects with the default [`RetryPolicy`].
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(GatewayClient {
            stream,
            retry: RetryPolicy::default(),
            send_buf: Vec::new(),
            backpressure_retries: 0,
        })
    }

    /// Replaces the retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// How many backpressure nacks this client has ridden out (observable
    /// evidence that the retry path ran).
    pub fn backpressure_retries(&self) -> u64 {
        self.backpressure_retries
    }

    /// Scrapes the node's metric exposition over the wire
    /// ([`Frame::StatsRequest`] → [`Frame::StatsReply`]). Served only on
    /// privileged planes (a gateway on [`crate::Plane::Operator`] or
    /// [`crate::Plane::Shard`], or a router's operator plane); a
    /// data-plane listener refuses with [`ClientError::Rejected`].
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] on an unprivileged plane; the
    /// transport/protocol variants otherwise.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        match self.round_trip(&Frame::StatsRequest)? {
            Frame::StatsReply(text) => Ok(text),
            Frame::Nack { reason, .. } => Err(nack_error(reason)),
            _ => Err(ClientError::UnexpectedReply),
        }
    }

    /// Sends one frame and reads its single reply.
    fn round_trip(&mut self, frame: &Frame) -> Result<Frame, ClientError> {
        self.send_buf.clear();
        encode_frame(frame, &mut self.send_buf);
        self.exchange()
    }

    /// Writes the pre-encoded `send_buf` and reads the single reply.
    fn exchange(&mut self) -> Result<Frame, ClientError> {
        use std::io::Write;
        self.stream.write_all(&self.send_buf)?;
        match read_frame(&mut self.stream)? {
            Some(reply) => Ok(reply),
            None => Err(ClientError::Disconnected),
        }
    }

    /// Sends `frame` until it is acked, riding out backpressure nacks
    /// per the retry policy. The frame is encoded once; each retry
    /// resends the same bytes.
    fn send_with_retry(&mut self, frame: &Frame) -> Result<(), ClientError> {
        self.send_buf.clear();
        encode_frame(frame, &mut self.send_buf);
        let mut attempts = 0u32;
        loop {
            match self.exchange()? {
                Frame::Ack { .. } => return Ok(()),
                Frame::Nack {
                    reason: NackReason::Backpressure,
                    ..
                } => {
                    attempts += 1;
                    self.backpressure_retries += 1;
                    if attempts >= self.retry.max_attempts {
                        return Err(ClientError::Saturated);
                    }
                    std::thread::sleep(self.retry.backoff);
                }
                Frame::Nack { reason, .. } => return Err(nack_error(reason)),
                _ => return Err(ClientError::UnexpectedReply),
            }
        }
    }

    /// Submits one report, riding out backpressure per the retry policy.
    ///
    /// # Errors
    ///
    /// [`ClientError::Saturated`] when the retry budget runs out; the
    /// transport/protocol variants otherwise.
    pub fn submit(&mut self, report: PendingReport) -> Result<(), ClientError> {
        self.send_with_retry(&Frame::Submit(report))
    }

    /// Submits a slice in order, chunked at [`MAX_REPORTS_PER_FRAME`] per
    /// frame. On a backpressure nack the resend resumes from the
    /// acknowledged prefix, so the gateway enqueues every report exactly
    /// once, in order.
    ///
    /// # Errors
    ///
    /// [`ClientError::Saturated`] when a chunk makes no progress for the
    /// whole retry budget; the transport/protocol variants otherwise.
    pub fn submit_batch(&mut self, reports: &[PendingReport]) -> Result<(), ClientError> {
        for chunk in reports.chunks(MAX_REPORTS_PER_FRAME) {
            self.submit_chunk(chunk)?;
        }
        Ok(())
    }

    fn submit_chunk(&mut self, chunk: &[PendingReport]) -> Result<(), ClientError> {
        let mut sent = 0usize;
        let mut attempts = 0u32;
        while sent < chunk.len() {
            let remaining = chunk.len() - sent;
            // Encoded straight from the slice: no owned Vec per (re)send.
            self.send_buf.clear();
            encode_submit_batch(&chunk[sent..], &mut self.send_buf);
            match self.exchange()? {
                // The `accepted` counts come from an untrusted wire: a
                // nonconforming server must surface as a protocol error,
                // not an infinite resend loop (Ack{0}) or silently
                // dropped reports (accepted > remaining).
                Frame::Ack { accepted } => {
                    if accepted as usize != remaining {
                        return Err(ClientError::UnexpectedReply);
                    }
                    sent += accepted as usize;
                }
                Frame::Nack {
                    reason: NackReason::Backpressure,
                    accepted,
                } => {
                    if accepted as usize >= remaining {
                        return Err(ClientError::UnexpectedReply);
                    }
                    sent += accepted as usize;
                    self.backpressure_retries += 1;
                    if accepted > 0 {
                        // Progress: the queue is draining; reset the budget.
                        attempts = 0;
                    } else {
                        attempts += 1;
                        if attempts >= self.retry.max_attempts {
                            return Err(ClientError::Saturated);
                        }
                    }
                    std::thread::sleep(self.retry.backoff);
                }
                Frame::Nack { reason, .. } => return Err(nack_error(reason)),
                _ => return Err(ClientError::UnexpectedReply),
            }
        }
        Ok(())
    }

    /// Submits upstream-sequenced reports (shard plane only, see
    /// [`crate::GatewayConfig::shard_plane`]) and returns the accepted
    /// prefix length — **one attempt per frame, no backpressure retry**.
    /// The router calls this on its downstream links: riding out
    /// backpressure here would hide a full shard from the routing tier's
    /// own honest-prefix accounting, so partial progress is returned
    /// instead of retried.
    ///
    /// # Errors
    ///
    /// [`ClientError::Closed`] when the node behind the link has shut
    /// down; the transport/protocol variants otherwise.
    pub fn submit_sequenced(&mut self, reports: &[SequencedReport]) -> Result<usize, ClientError> {
        let mut accepted_total = 0usize;
        for chunk in reports.chunks(MAX_REPORTS_PER_FRAME) {
            self.send_buf.clear();
            encode_submit_sequenced(chunk, &mut self.send_buf);
            match self.exchange()? {
                Frame::Ack { accepted } => {
                    if accepted as usize != chunk.len() {
                        return Err(ClientError::UnexpectedReply);
                    }
                    accepted_total += chunk.len();
                }
                Frame::Nack {
                    reason: NackReason::Backpressure,
                    accepted,
                } => {
                    if accepted as usize >= chunk.len() {
                        return Err(ClientError::UnexpectedReply);
                    }
                    return Ok(accepted_total + accepted as usize);
                }
                Frame::Nack { reason, .. } => return Err(nack_error(reason)),
                _ => return Err(ClientError::UnexpectedReply),
            }
        }
        Ok(accepted_total)
    }

    /// Sends one already-perturbed report (a client-side release — the
    /// re-send protocol's output) to land verbatim, riding out
    /// backpressure per the retry policy.
    ///
    /// # Errors
    ///
    /// [`ClientError::Saturated`] when the retry budget runs out; the
    /// transport/protocol variants otherwise.
    pub fn send_report(&mut self, report: LocationReport) -> Result<(), ClientError> {
        self.send_with_retry(&Frame::Report(report))
    }

    /// Polls the server for `user`'s oldest pending server-initiated
    /// message (a policy assignment or re-send request); `None` when the
    /// mailbox is empty.
    ///
    /// # Errors
    ///
    /// The transport/protocol variants.
    pub fn fetch(&mut self, user: UserId) -> Result<Option<ServerMessage>, ClientError> {
        match self.round_trip(&Frame::Fetch { user })? {
            Frame::Assign(a) => Ok(Some(ServerMessage::Assign(a))),
            Frame::Resend(r) => Ok(Some(ServerMessage::Resend(r))),
            Frame::Ack { .. } => Ok(None),
            Frame::Nack { reason, .. } => Err(nack_error(reason)),
            _ => Err(ClientError::UnexpectedReply),
        }
    }

    /// Enqueues a policy assignment for its user's next fetch (operator
    /// plane only).
    ///
    /// # Errors
    ///
    /// The transport/protocol variants; [`ClientError::Rejected`] on a
    /// data-plane listener.
    pub fn push_assignment(&mut self, assignment: &PolicyAssignment) -> Result<(), ClientError> {
        self.expect_plain_ack(&Frame::Assign(assignment.clone()))
    }

    /// Enqueues a re-send request for its user's next fetch (operator
    /// plane only).
    ///
    /// # Errors
    ///
    /// The transport/protocol variants; [`ClientError::Rejected`] on a
    /// data-plane listener.
    pub fn push_resend(&mut self, request: &ResendRequest) -> Result<(), ClientError> {
        self.expect_plain_ack(&Frame::Resend(request.clone()))
    }

    fn expect_plain_ack(&mut self, frame: &Frame) -> Result<(), ClientError> {
        match self.round_trip(frame)? {
            Frame::Ack { .. } => Ok(()),
            Frame::Nack { reason, .. } => Err(nack_error(reason)),
            _ => Err(ClientError::UnexpectedReply),
        }
    }

    /// Applies `policy` to every report this connection submits afterwards
    /// (in-band, so the boundary in the landed stream is exact). The
    /// gateway never parks on the queue, so a switch into a full queue
    /// nacks; it is ridden out like a submission.
    ///
    /// # Errors
    ///
    /// [`ClientError::Saturated`] when the retry budget runs out; the
    /// transport/protocol variants otherwise; [`ClientError::Closed`] when
    /// the pipeline has shut down.
    pub fn switch_policy(&mut self, policy: &LocationPolicyGraph) -> Result<(), ClientError> {
        self.send_with_retry(&Frame::SwitchPolicy(policy.clone()))
    }

    /// Clean end of session: tells the gateway, waits for the ack, closes.
    ///
    /// # Errors
    ///
    /// The transport/protocol variants (the connection is closed
    /// regardless).
    pub fn shutdown(mut self) -> Result<(), ClientError> {
        let result = match self.round_trip(&Frame::Shutdown) {
            Ok(Frame::Ack { .. }) => Ok(()),
            Ok(Frame::Nack { reason, .. }) => Err(nack_error(reason)),
            Ok(_) => Err(ClientError::UnexpectedReply),
            Err(e) => Err(e),
        };
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        result
    }
}

fn nack_error(reason: NackReason) -> ClientError {
    match reason {
        // `submit`/`submit_batch` intercept backpressure for retry; seeing
        // it here means the retry loop chose to surface saturation.
        NackReason::Backpressure => ClientError::Saturated,
        NackReason::Closed => ClientError::Closed,
        NackReason::Malformed => ClientError::Rejected,
    }
}
