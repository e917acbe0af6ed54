//! # panda-core
//!
//! The paper's primary contribution: **Policy Graph-based Location Privacy**
//! (PGLP) — customizable, rigorous location privacy through *location policy
//! graphs* (Cao et al., PVLDB 2020, and the companion technical report).
//!
//! ## Concepts (paper §2)
//!
//! * [`policy::LocationPolicyGraph`] — Def. 2.1: an undirected graph whose
//!   nodes are the possible locations (grid cells) and whose edges demand
//!   indistinguishability. Presets for every graph the paper draws: `G1`
//!   (geo-indistinguishability, Thm. 2.1), `G2` (δ-location sets, Thm. 2.2),
//!   `Ga`/`Gb` (partition policies) and `Gc` (contact tracing), plus the
//!   demo's random-policy generator (Fig. 5).
//! * [`privacy`] — Def. 2.4 ({ε,G}-location privacy) as an *executable
//!   check*: exact distribution audits over every policy edge, and the
//!   Lemma 2.1 bound for ∞-neighbours.
//! * [`mech`] — mechanisms satisfying {ε,G}-location privacy: the
//!   graph-exponential mechanism, a graph-calibrated planar Laplace, the
//!   Planar Isotropic Mechanism (K-norm noise over the sensitivity hull) and
//!   baselines.
//! * [`index`] — the [`PolicyIndex`] bulk-release fast path: LRU-cached
//!   per-cell distance rings (the graph-exponential mechanism's ε-free
//!   state) and per-`(mechanism, ε, cell)` sampling tables (alias-compiled
//!   for large supports) over the policy's lazily-built distance tables,
//!   consumed by [`Mechanism::perturb_batch`].
//! * [`release`] — the one per-report release kernel (each report drawn
//!   from its own `(seed, seq)` stream) behind both bulk release and the
//!   ingest pipeline, fanned over one shared [`PolicyIndex`] in contiguous
//!   lanes on helper threads scoped to one sampler table — per call in a
//!   bulk release, per policy in the ingest collector's
//!   [`release::Lanes`] — with the caller running the last lane itself.
//! * [`budget`] — policy-aware privacy-budget allocation and sequential
//!   composition across release epochs.
//! * [`repair`] — policy feasibility under external constraints and minimal
//!   policy repair (the machinery behind dynamic policy updates).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod budget;
mod cache;
pub mod error;
pub mod index;
pub mod mech;
pub mod policy;
pub mod privacy;
pub mod release;
pub mod repair;
pub mod timeline;

pub use cache::CacheStats;
pub use error::PglpError;
pub use index::{DistanceRings, PolicyIndex, SamplingTable};
pub use mech::{
    CellSampler, EuclideanExponential, GraphCalibratedLaplace, GraphExponential, IdentityMechanism,
    Mechanism, PlanarIsotropic, PlanarLaplace, SamplerMemo, SamplerTable, UniformComponent,
};
pub use policy::LocationPolicyGraph;
pub use privacy::{audit_pglp, AuditReport};
pub use release::ParallelReleaser;
