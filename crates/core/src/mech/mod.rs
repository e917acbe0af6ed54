//! Mechanisms satisfying {ε, G}-location privacy.
//!
//! The demo paper (§1, §3.1) relies on the mechanisms of the companion
//! technical report: a Laplace-style mechanism and the Planar Isotropic
//! Mechanism, both *adapted to a policy graph*. This module implements:
//!
//! * [`GraphExponential`] — the reference PGLP mechanism. Releases cell `z`
//!   with probability ∝ `exp(−ε·d_G(s,z)/2)` over the component of the true
//!   location `s`. Its {ε,G} guarantee is exact and auditable cell-by-cell.
//! * [`GraphCalibratedLaplace`] — continuous planar Laplace noise calibrated
//!   to the policy component's edge geometry, snapped back onto the
//!   component (the report's Laplace adaptation).
//! * [`PlanarIsotropic`] — the PIM of Xiao & Xiong (CCS'15) over the
//!   component's sensitivity hull: K-norm noise, optional isotropic
//!   transform, snapped onto the component.
//! * [`PlanarLaplace`] — the Geo-Indistinguishability baseline (ignores the
//!   policy graph entirely; included for the paper's comparisons).
//! * [`IdentityMechanism`] / [`UniformComponent`] — the two utility/privacy
//!   extremes, used as experiment reference points.
//!
//! All mechanisms release *grid cells*; isolated policy nodes are released
//! exactly (Lemma 2.1's unconstrained case).

mod euclidean_exponential;
mod graph_exponential;
mod graph_laplace;
mod noise;
pub(crate) mod pim;
mod planar_laplace;
mod sampler;

pub use euclidean_exponential::EuclideanExponential;
pub use graph_exponential::GraphExponential;
pub use graph_laplace::GraphCalibratedLaplace;
pub use noise::{gamma_int, laplace_1d, planar_laplace_noise};
pub use pim::PlanarIsotropic;
pub use planar_laplace::PlanarLaplace;
pub use sampler::{snap_to_cells, CellSampler, SamplerMemo};

use crate::error::{check_epsilon, PglpError};
use crate::index::{PolicyIndex, SamplingTable};
use crate::policy::LocationPolicyGraph;
use panda_geo::CellId;
use rand::Rng;
use rand::RngCore;
use std::sync::Arc;

/// A randomized location-release mechanism `A : S → S` (Def. 2.4).
///
/// Implementations must guarantee {ε,G}-location privacy for every policy
/// graph `G`: for each policy edge `(s, s′)` and every output `z`,
/// `Pr[A(s) = z] ≤ e^ε · Pr[A(s′) = z]`.
///
/// The trait is object-safe (`&mut dyn RngCore`) so experiment harnesses can
/// sweep mechanisms generically.
pub trait Mechanism {
    /// Short identifier used in experiment tables.
    fn name(&self) -> &'static str;

    /// Releases a perturbed location for true location `true_loc`.
    ///
    /// # Errors
    ///
    /// [`PglpError::InvalidEpsilon`] for non-positive ε;
    /// [`PglpError::LocationOutOfDomain`] when `true_loc` is foreign to the
    /// policy's grid.
    fn perturb(
        &self,
        policy: &LocationPolicyGraph,
        eps: f64,
        true_loc: CellId,
        rng: &mut dyn RngCore,
    ) -> Result<CellId, PglpError>;

    /// Exact output distribution `Pr[A(s) = ·]` as `(cell, probability)`
    /// pairs over the support, when the mechanism can compute it in closed
    /// form. Used by the privacy auditor; `None` means "audit by sampling".
    fn output_distribution(
        &self,
        _policy: &LocationPolicyGraph,
        _eps: f64,
        _true_loc: CellId,
    ) -> Option<Vec<(CellId, f64)>> {
        None
    }

    /// Releases perturbed locations for a batch of true locations (e.g. a
    /// whole trajectory window), amortising all policy-graph work through
    /// the [`PolicyIndex`].
    ///
    /// The default allocates the output and delegates to
    /// [`Mechanism::perturb_batch_into`] — override *that* method, not this
    /// one, so both the allocating and the in-place path share one sampling
    /// sequence.
    ///
    /// Outputs are positionally aligned with `locs`. Distributionally
    /// identical to calling [`Mechanism::perturb`] in a loop.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Mechanism::perturb`]; the first failing
    /// location aborts the batch.
    fn perturb_batch(
        &self,
        index: &PolicyIndex,
        eps: f64,
        locs: &[CellId],
        rng: &mut dyn RngCore,
    ) -> Result<Vec<CellId>, PglpError> {
        let mut out = vec![CellId(0); locs.len()];
        self.perturb_batch_into(index, eps, locs, rng, &mut out)?;
        Ok(out)
    }

    /// Like [`Mechanism::perturb_batch`], but writes the released cells into
    /// a caller-provided slice with no intermediate allocation. The release
    /// kernel calls it on single-report batches for mechanisms that skip
    /// the sampler memo.
    ///
    /// Consumes exactly the same RNG sequence as [`Mechanism::perturb_batch`]
    /// (which is implemented on top of this method), so for a fixed `rng`
    /// state the two paths are byte-identical. On error `out` may be
    /// partially written; positions at and after the failing location are
    /// unspecified.
    ///
    /// The default resolves one [`CellSampler`] per **distinct** cell
    /// (batch-local [`SamplerMemo`] — one shared-cache touch per distinct
    /// `(ε, cell)` pair) and draws per report: O(1)–O(log k) per report
    /// after each cell's first occurrence. Mechanisms customise the batch
    /// path by overriding [`Mechanism::sampler`], not this method.
    /// Mechanisms without sampler support fall back to
    /// [`Mechanism::perturb`] per location, preserving their historical RNG
    /// streams.
    ///
    /// # Panics
    ///
    /// When `out.len() != locs.len()` — a caller bug, not a data error.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Mechanism::perturb`]; the first failing
    /// location aborts the batch.
    fn perturb_batch_into(
        &self,
        index: &PolicyIndex,
        eps: f64,
        locs: &[CellId],
        rng: &mut dyn RngCore,
        out: &mut [CellId],
    ) -> Result<(), PglpError> {
        check_out_len(locs, out);
        check_epsilon(eps)?;
        // Streaming fast path: a single-report batch (the per-report
        // reference path) resolves without the memo allocation.
        if let [s] = *locs {
            match self.sampler(index, eps, s) {
                Ok(sampler) => out[0] = sampler.draw(rng),
                Err(PglpError::SamplerUnsupported(_)) => {
                    out[0] = self.perturb(index.policy(), eps, s, rng)?;
                }
                Err(e) => return Err(e),
            }
            return Ok(());
        }
        if !self.prefers_sampler_memo() {
            // Resolution is declared trivially cheap: skip the memo's
            // per-report map lookup (same draw sequence either way).
            for (slot, &s) in out.iter_mut().zip(locs) {
                *slot = self.perturb(index.policy(), eps, s, rng)?;
            }
            return Ok(());
        }
        let mut memo = SamplerMemo::new();
        for (slot, &s) in out.iter_mut().zip(locs) {
            match memo.resolve(self, index, eps, s)? {
                Some(sampler) => *slot = sampler.draw(rng),
                // No sampler support: the pre-handle per-report path, same
                // RNG stream as the historical default.
                None => *slot = self.perturb(index.policy(), eps, s, rng)?,
            }
        }
        Ok(())
    }

    /// Whether the release engine's lanes should route this mechanism's
    /// reports through a per-lane memoised [`CellSampler`] (the default).
    ///
    /// The memo trades one map lookup per report for skipping all shared
    /// cache traffic — a clear win whenever resolution touches a lock or
    /// builds state. Mechanisms whose resolution is trivially cheap *and*
    /// whose [`Mechanism::perturb_batch_into`] override is tighter than a
    /// per-report map lookup (identity's memcpy, uniform's bare
    /// `gen_range` loop) return `false`; lanes then release each report
    /// through the batch override directly. Purely a cost hint: both
    /// routes consume identical RNG sequences.
    fn prefers_sampler_memo(&self) -> bool {
        true
    }

    /// Resolves a [`CellSampler`] — a cheaply-clonable draw handle carrying
    /// everything a release for `(ε, cell)` needs (compiled sampling table
    /// `Arc`, calibration scale plus component slice, prepared PIM hull) —
    /// so callers touch the shared [`PolicyIndex`] caches **once per
    /// distinct cell** and then draw lock-free per report.
    ///
    /// [`CellSampler::draw`] consumes exactly the RNG sequence of
    /// [`Mechanism::perturb_batch_into`] on a single-report batch: the
    /// streaming engine relies on this to keep per-lane memoised release
    /// byte-identical to per-report release.
    ///
    /// The default compiles the mechanism's closed-form
    /// [`Mechanism::output_distribution`] into an **uncached** table (never
    /// keyed into the shared cache, where a non-unique [`Mechanism::name`]
    /// could collide). Mechanisms with per-policy state override this to
    /// serve handles from the index's caches.
    ///
    /// **Stream note for external implementors:** because the batch and
    /// streaming engines release through this handle, a mechanism that
    /// provides `output_distribution` but overrides neither this method nor
    /// [`Mechanism::perturb_batch_into`] gets table-sampled batch draws —
    /// distributionally identical to, but a *different RNG sequence* than,
    /// calling [`Mechanism::perturb`] in a loop (and the table is rebuilt
    /// per resolution). Override `sampler` to control both the stream and
    /// the cost; mechanisms with no closed form keep their historical
    /// per-`perturb` streams.
    ///
    /// # Errors
    ///
    /// [`PglpError::InvalidEpsilon`] / [`PglpError::LocationOutOfDomain`]
    /// on invalid inputs; [`PglpError::SamplerUnsupported`] when the
    /// mechanism has no closed form and no override (callers should then
    /// release per report via [`Mechanism::perturb`]).
    fn sampler<'a>(
        &'a self,
        index: &'a PolicyIndex,
        eps: f64,
        cell: CellId,
    ) -> Result<CellSampler<'a>, PglpError> {
        validate(index.policy(), eps, cell)?;
        match self.output_distribution(index.policy(), eps, cell) {
            Some(dist) if !dist.is_empty() => Ok(CellSampler::table(Arc::new(
                SamplingTable::from_weights(dist),
            ))),
            _ => Err(PglpError::SamplerUnsupported(self.name())),
        }
    }
}

/// Shared length check for [`Mechanism::perturb_batch_into`] overrides.
pub(crate) fn check_out_len(locs: &[CellId], out: &[CellId]) {
    assert_eq!(
        locs.len(),
        out.len(),
        "perturb_batch_into: output slice length must match input"
    );
}

/// Shared input validation for all mechanisms.
pub(crate) fn validate(
    policy: &LocationPolicyGraph,
    eps: f64,
    true_loc: CellId,
) -> Result<(), PglpError> {
    check_epsilon(eps)?;
    policy.check_cell(true_loc)
}

/// Releases the true location unchanged. **No privacy** — the lower bound
/// for utility experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityMechanism;

impl Mechanism for IdentityMechanism {
    fn name(&self) -> &'static str {
        "identity"
    }

    fn perturb(
        &self,
        policy: &LocationPolicyGraph,
        eps: f64,
        true_loc: CellId,
        _rng: &mut dyn RngCore,
    ) -> Result<CellId, PglpError> {
        validate(policy, eps, true_loc)?;
        Ok(true_loc)
    }

    fn output_distribution(
        &self,
        policy: &LocationPolicyGraph,
        eps: f64,
        true_loc: CellId,
    ) -> Option<Vec<(CellId, f64)>> {
        validate(policy, eps, true_loc).ok()?;
        Some(vec![(true_loc, 1.0)])
    }

    fn sampler<'a>(
        &'a self,
        index: &'a PolicyIndex,
        eps: f64,
        cell: CellId,
    ) -> Result<CellSampler<'a>, PglpError> {
        validate(index.policy(), eps, cell)?;
        // Exact release; like `perturb`, draws consume no randomness.
        Ok(CellSampler::exact(cell))
    }

    /// Resolution is free here (see [`Mechanism::prefers_sampler_memo`]).
    fn prefers_sampler_memo(&self) -> bool {
        false
    }

    /// Resolution is free here, so the memoised default would only add a
    /// per-report map lookup to what is a bounds check plus a memcpy.
    /// Stream-equivalent to the default: no randomness is consumed either
    /// way.
    fn perturb_batch_into(
        &self,
        index: &PolicyIndex,
        eps: f64,
        locs: &[CellId],
        _rng: &mut dyn RngCore,
        out: &mut [CellId],
    ) -> Result<(), PglpError> {
        check_out_len(locs, out);
        check_epsilon(eps)?;
        for &s in locs {
            index.policy().check_cell(s)?;
        }
        out.copy_from_slice(locs);
        Ok(())
    }
}

/// Releases a uniform cell from the component of the true location
/// (isolated cells are released exactly).
///
/// Satisfies {ε,G}-location privacy for **every** ε: 1-neighbours share a
/// component, hence share this uniform distribution exactly. Maximal privacy
/// within the policy's support, worst utility — the other experiment
/// extreme.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformComponent;

impl Mechanism for UniformComponent {
    fn name(&self) -> &'static str {
        "uniform-component"
    }

    fn perturb(
        &self,
        policy: &LocationPolicyGraph,
        eps: f64,
        true_loc: CellId,
        rng: &mut dyn RngCore,
    ) -> Result<CellId, PglpError> {
        validate(policy, eps, true_loc)?;
        let cells = policy.component_slice(true_loc);
        // gen_range uses rejection sampling: uniform with no modulo bias
        // (`next_u64() % len` would overweight low indices).
        Ok(cells[rng.gen_range(0..cells.len())])
    }

    fn output_distribution(
        &self,
        policy: &LocationPolicyGraph,
        eps: f64,
        true_loc: CellId,
    ) -> Option<Vec<(CellId, f64)>> {
        validate(policy, eps, true_loc).ok()?;
        let cells = policy.component_cells(true_loc);
        let p = 1.0 / cells.len() as f64;
        Some(cells.into_iter().map(|c| (c, p)).collect())
    }

    fn sampler<'a>(
        &'a self,
        index: &'a PolicyIndex,
        eps: f64,
        cell: CellId,
    ) -> Result<CellSampler<'a>, PglpError> {
        validate(index.policy(), eps, cell)?;
        // Same rejection-sampled `gen_range` draw as `perturb`, from the
        // interned component slice.
        Ok(CellSampler::uniform(index.component_slice(cell)))
    }

    /// Resolution is a lock-free interned-slice lookup (see
    /// [`Mechanism::prefers_sampler_memo`]).
    fn prefers_sampler_memo(&self) -> bool {
        false
    }

    /// Resolution is a lock-free interned-slice lookup, so the memoised
    /// default would only add a per-report map lookup to a draw that is a
    /// single `gen_range`. Byte-identical to the default: the per-report
    /// draw sequence is the same `gen_range` either way.
    fn perturb_batch_into(
        &self,
        index: &PolicyIndex,
        eps: f64,
        locs: &[CellId],
        rng: &mut dyn RngCore,
        out: &mut [CellId],
    ) -> Result<(), PglpError> {
        check_out_len(locs, out);
        check_epsilon(eps)?;
        let policy = index.policy();
        for (slot, &s) in out.iter_mut().zip(locs) {
            policy.check_cell(s)?;
            let cells = index.component_slice(s);
            *slot = cells[rng.gen_range(0..cells.len())];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_geo::GridMap;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn policy() -> LocationPolicyGraph {
        LocationPolicyGraph::partition(GridMap::new(4, 4, 50.0), 2, 2)
    }

    #[test]
    fn identity_returns_input() {
        let p = policy();
        let mut rng = SmallRng::seed_from_u64(1);
        let out = IdentityMechanism
            .perturb(&p, 1.0, CellId(5), &mut rng)
            .unwrap();
        assert_eq!(out, CellId(5));
        let dist = IdentityMechanism
            .output_distribution(&p, 1.0, CellId(5))
            .unwrap();
        assert_eq!(dist, vec![(CellId(5), 1.0)]);
    }

    #[test]
    fn uniform_component_stays_in_component() {
        let p = policy();
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..100 {
            let out = UniformComponent
                .perturb(&p, 1.0, CellId(0), &mut rng)
                .unwrap();
            assert!(p.same_component(CellId(0), out));
        }
    }

    #[test]
    fn uniform_component_distribution_sums_to_one() {
        let p = policy();
        let dist = UniformComponent
            .output_distribution(&p, 1.0, CellId(0))
            .unwrap();
        assert_eq!(dist.len(), 4);
        let total: f64 = dist.iter().map(|&(_, pr)| pr).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let p = policy();
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(matches!(
            IdentityMechanism.perturb(&p, 0.0, CellId(0), &mut rng),
            Err(PglpError::InvalidEpsilon(_))
        ));
        assert!(matches!(
            UniformComponent.perturb(&p, 1.0, CellId(99), &mut rng),
            Err(PglpError::LocationOutOfDomain(_))
        ));
    }

    #[test]
    fn mechanisms_are_object_safe() {
        let mechs: Vec<Box<dyn Mechanism>> =
            vec![Box::new(IdentityMechanism), Box::new(UniformComponent)];
        let p = policy();
        let mut rng = SmallRng::seed_from_u64(4);
        for m in &mechs {
            assert!(m.perturb(&p, 0.5, CellId(3), &mut rng).is_ok());
            assert!(!m.name().is_empty());
        }
    }
}
