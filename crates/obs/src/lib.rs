//! # panda-obs — workspace telemetry
//!
//! A dependency-free metrics layer for the PANDA ingest tier: lock-free
//! [`Counter`] / [`Gauge`] handles, fixed-bucket log₂-scaled [`Histogram`]s
//! (striped atomics merged at snapshot time; p50/p90/p99 derivable from the
//! buckets), and a [`Registry`] whose [`Snapshot`] renders a deterministic
//! (BTreeMap-ordered) Prometheus-style text exposition.
//!
//! ## Hot-path cost
//!
//! Recording is one or two atomic RMWs — no locks, no allocation.
//! The registry lock is touched only at registration and snapshot time
//! (both cold). Building with `RUSTFLAGS="--cfg panda_obs_off"` compiles
//! every gauge and histogram operation down to a no-op, which is how the
//! `bench_release --telemetry` section measures instrumentation overhead.
//! Counters always count: a [`Counter`] is the one copy of every count
//! the program reads back, so it cannot be telemetry-only.
//!
//! ## Determinism contract
//!
//! Telemetry must never feed the byte-identity contract: the released
//! database is a pure function of `(seed, arrival order)`, so nothing an
//! instrument records may key an RNG stream. Two rules keep that true:
//!
//! 1. every wall-clock read in the workspace goes through [`clock`] — the
//!    single sanctioned `Instant::now` site, enforced by `panda-check`'s
//!    `banned_api` rule;
//! 2. RNG-keyed modules record **counts and sizes only**; durations are
//!    measured by the stages around them.
//!
//! Exposition text is byte-deterministic for identical recorded values,
//! but recorded *durations* are wall-clock facts — scrapes from two runs
//! differ in latency metrics even when the landed databases are
//! byte-identical.

#![forbid(unsafe_code)]

pub mod clock;
mod metrics;
mod registry;

pub use metrics::{
    bucket_floor, bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, N_BUCKETS,
};
pub use registry::{Registry, Snapshot};
