//! `panda-net`: the wire in front of the streaming ingest pipeline.
//!
//! PANDA's deployment shape is an open-loop surveillance server collecting
//! perturbed reports from a large population of untrusted clients over a
//! network. This crate is that client/server split for the reproduction:
//!
//! * [`wire`] — a dependency-free, versioned, length-prefixed binary codec
//!   for the `panda_surveillance::protocol` types and the ingest session
//!   frames ([`Frame`]), with typed [`DecodeError`]s (hostile bytes are a
//!   parse error, never a panic) and an incremental [`FrameDecoder`] for
//!   byte streams;
//! * `listener` — the one front end behind both server tiers: sockets,
//!   the per-listener [`Plane`] privilege check, the mailbox frames,
//!   scrapes, clean shutdown, the Ack/Nack encoding and the counters
//!   both tiers keep;
//! * [`gateway`] — [`IngestGateway`], a threaded TCP front end that
//!   accepts many concurrent clients, decodes frames, feeds
//!   [`panda_surveillance::ingest::IngestHandle`], and answers every
//!   submission with [`Frame::Ack`] or a typed [`Frame::Nack`]. Queue
//!   backpressure surfaces on the wire as [`NackReason::Backpressure`]
//!   instead of blocking the socket thread;
//! * [`client`] — [`GatewayClient`], a blocking SDK (connect, submit,
//!   batch submit with retry-on-backpressure, in-band policy switch,
//!   re-send fetch/reply, clean shutdown) so examples, tests and benches
//!   can drive the server end-to-end over loopback;
//! * [`router`] — [`ShardRouter`], the routing tier of the sharded ingest
//!   topology: it serves the same client-facing protocol, splits
//!   submissions by `panda_surveillance::shard_of`, stamps each report
//!   with a cluster-wide arrival sequence number, and fans sub-batches to
//!   per-shard nodes behind shard-plane gateways;
//! * [`mailbox`] — [`Mailbox`], the per-user FIFO that turns the paper's
//!   server-initiated pushes (policy assignments, re-send requests) into
//!   client-polled fetches over the client-initiated transport.
//!
//! ## Observability
//!
//! Every node is wire-scrapeable: [`Frame::StatsRequest`] on a privileged
//! plane (an operator/shard gateway, a router's operator listener) answers
//! with [`Frame::StatsReply`] carrying the node's `panda-obs` metric
//! exposition — frame counters, per-stage latency histograms, queue
//! depths — merged across the gateway and its pipeline. The counts in
//! [`GatewayStats`] and [`RouterStats`] are reads of the `panda_obs`
//! counters the registry holds; counters keep counting under
//! `--cfg panda_obs_off`, so a scrape's `*_total` lines do too.
//! [`GatewayClient::stats`] is the client side;
//! [`IngestGateway::metrics_dump`] / [`ShardRouter::metrics_dump`] the
//! in-process equivalents. Telemetry reads the clock only through
//! `panda_obs::clock` and records counts/sizes in RNG-keyed stages, so
//! scraping never perturbs the determinism contract above.
//!
//! ## Determinism
//!
//! The pipeline keys each report's RNG stream by its **arrival sequence
//! number**, so the transport cannot change the released cells: a single
//! client submitting a trace over TCP lands a database byte-identical to
//! in-process [`IngestHandle::submit`] calls in the same order, across
//! flush timings and lane counts (CI-enforced). The router preserves
//! this across shards: it reserves one global sequence number per stream
//! position and forwards it with the report, so an N-node cluster's
//! merged database is byte-identical to the single-process pipeline for
//! the same arrival order — including under mid-stream backpressure,
//! where a retried report keeps its originally-reserved number. With
//! several concurrent clients the *interleaving* at the gateway/router
//! decides arrival order, exactly as concurrent in-process producers do.
//!
//! [`IngestHandle::submit`]: panda_surveillance::ingest::IngestHandle::submit

#![forbid(unsafe_code)]

pub mod client;
pub mod gateway;
mod listener;
pub mod mailbox;
pub mod router;
pub mod wire;

pub use client::{ClientError, GatewayClient, RetryPolicy};
pub use gateway::{GatewayConfig, GatewayStats, IngestGateway};
pub use listener::Plane;
pub use mailbox::{Mailbox, ServerMessage};
pub use router::{RouterConfig, RouterStats, ShardBackend, ShardRouter};
pub use wire::{DecodeError, Frame, FrameDecoder, NackReason};
