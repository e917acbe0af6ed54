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
//!
//! Every mechanism has two faces: [`Mechanism::perturb`], its unindexed
//! definition, and [`Mechanism::sampler`], the one release primitive — a
//! [`CellSampler`] resolved once per `(ε, cell)` against a [`PolicyIndex`]
//! and drawn per report. Batch, bulk and streaming releases all draw
//! through sampler handles, and a handle draw consumes the RNG sequence of
//! `perturb` on the same inputs, so `perturb` is the reference every
//! release path is tested against.

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
pub use sampler::{snap_to_cells, CellSampler, SamplerMemo, SamplerTable};

use crate::error::{check_epsilon, PglpError};
use crate::index::PolicyIndex;
use crate::policy::LocationPolicyGraph;
use panda_geo::CellId;
use rand::Rng;
use rand::RngCore;

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
    /// Resolves one [`CellSampler`] per **distinct** cell (batch-local
    /// [`SamplerMemo`] — one shared-cache touch per distinct `(ε, cell)`
    /// pair) and draws per report: O(1)–O(log k) per report after each
    /// cell's first occurrence. Outputs are positionally aligned with
    /// `locs`, and the draws consume the RNG sequence of calling
    /// [`Mechanism::perturb`] in a loop (see [`Mechanism::sampler`]).
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
        check_epsilon(eps)?;
        let mut memo = SamplerMemo::new();
        locs.iter()
            .map(|&s| Ok(memo.handle(self, index, eps, s)?.draw(rng)))
            .collect()
    }

    /// Resolves a [`CellSampler`] — a cheaply-clonable draw handle carrying
    /// everything a release for `(ε, cell)` needs (compiled sampling table
    /// or distance rings `Arc`, calibration scale plus component slice,
    /// prepared PIM hull) — so callers touch the shared [`PolicyIndex`]
    /// caches **once per distinct cell** and then draw lock-free per
    /// report. Every release path in the workspace draws through this
    /// handle: [`Mechanism::perturb_batch`], the bulk release kernel and
    /// the ingest pipeline.
    ///
    /// Resolution consumes no randomness, and for every in-tree mechanism
    /// [`CellSampler::draw`] consumes exactly the RNG sequence of
    /// [`Mechanism::perturb`] on the same inputs, so every release path is
    /// byte-identical to releasing each report alone through the
    /// mechanism's definition. The one exception is
    /// [`EuclideanExponential`] over a component of at least
    /// [`ALIAS_THRESHOLD`](crate::SamplingTable::ALIAS_THRESHOLD) cells,
    /// whose table switches to an alias draw: same distribution, different
    /// stream. A mechanism with no cheaper handle can return
    /// [`CellSampler::table`] over its closed-form
    /// [`Mechanism::output_distribution`] on the same terms.
    ///
    /// # Errors
    ///
    /// [`PglpError::InvalidEpsilon`] / [`PglpError::LocationOutOfDomain`]
    /// on invalid inputs.
    fn sampler<'a>(
        &'a self,
        index: &'a PolicyIndex,
        eps: f64,
        cell: CellId,
    ) -> Result<CellSampler<'a>, PglpError>;
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
