//! Optimal remapping: utility-optimal post-processing of a PGLP mechanism.
//!
//! A release `z` can be *remapped* through any fixed function `R(z)` without
//! weakening {ε,G}-location privacy — post-processing cannot increase
//! privacy loss. Choosing `R(z)` as the Bayes-optimal answer under a public
//! prior (the geometric-median of the posterior) is the classical
//! "optimal remap" of the geo-indistinguishability literature: same privacy,
//! strictly better expected utility when the prior is informative.
//!
//! This is an *extension* feature (DESIGN.md §6 ablation): the demo paper
//! does not evaluate remapping, but any production deployment of PGLP
//! would, and the `remap` bench quantifies the utility gain.

use crate::bayes::{estimate, BayesEstimator};
use crate::likelihood::LikelihoodModel;
use crate::prior::Prior;
use panda_core::{CellSampler, LocationPolicyGraph, Mechanism, PglpError, PolicyIndex};
use panda_geo::CellId;
use rand::RngCore;

/// A mechanism wrapper that applies a precomputed optimal remap to every
/// release of the base mechanism.
pub struct RemappedMechanism<'a> {
    base: &'a dyn Mechanism,
    /// `remap[z] = R(z)`, dense over the grid.
    remap: Vec<CellId>,
}

impl<'a> RemappedMechanism<'a> {
    /// Builds the remap table for `(base, policy, eps)` against `prior`.
    ///
    /// `mc_samples` is forwarded to the likelihood builder for mechanisms
    /// without closed-form distributions. The table maps every possible
    /// release to the posterior minimum-expected-distance cell.
    ///
    /// # Errors
    ///
    /// Propagates mechanism errors from likelihood estimation.
    pub fn build(
        base: &'a dyn Mechanism,
        policy: &LocationPolicyGraph,
        eps: f64,
        prior: &Prior,
        mc_samples: usize,
    ) -> Result<Self, PglpError> {
        let like = LikelihoodModel::build(base, policy, eps, mc_samples)?;
        let grid = policy.grid();
        let remap = grid
            .cells()
            .map(|z| {
                estimate(grid, prior, &like, z, BayesEstimator::MinExpectedDistance)
                    // A release no input can produce has a dead posterior;
                    // map it to itself (it will never occur).
                    .unwrap_or(z)
            })
            .collect();
        Ok(RemappedMechanism { base, remap })
    }

    /// The remap target for a release.
    pub fn remap_of(&self, z: CellId) -> CellId {
        self.remap[z.index()]
    }
}

impl Mechanism for RemappedMechanism<'_> {
    fn name(&self) -> &'static str {
        "remapped"
    }

    fn perturb(
        &self,
        policy: &LocationPolicyGraph,
        eps: f64,
        true_loc: CellId,
        rng: &mut dyn RngCore,
    ) -> Result<CellId, PglpError> {
        let z = self.base.perturb(policy, eps, true_loc, rng)?;
        Ok(self.remap[z.index()])
    }

    fn output_distribution(
        &self,
        policy: &LocationPolicyGraph,
        eps: f64,
        true_loc: CellId,
    ) -> Option<Vec<(CellId, f64)>> {
        let base = self.base.output_distribution(policy, eps, true_loc)?;
        let mut acc: std::collections::BTreeMap<CellId, f64> = std::collections::BTreeMap::new();
        for (z, p) in base {
            *acc.entry(self.remap[z.index()]).or_insert(0.0) += p;
        }
        Some(acc.into_iter().collect())
    }

    /// The base mechanism's handle wrapped in the remap table. Crucially
    /// this **never caches under this wrapper's non-unique `name()`**: the
    /// base resolves under its own cache keys, so two wrappers over
    /// different bases can share one [`PolicyIndex`] without colliding in
    /// the distribution cache.
    fn sampler<'a>(
        &'a self,
        index: &'a PolicyIndex,
        eps: f64,
        cell: CellId,
    ) -> Result<CellSampler<'a>, PglpError> {
        Ok(CellSampler::remapped(
            self.base.sampler(index, eps, cell)?,
            &self.remap,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_core::{audit_pglp, GraphExponential, LocationPolicyGraph};
    use panda_geo::GridMap;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn grid() -> GridMap {
        GridMap::new(5, 5, 100.0)
    }

    #[test]
    fn remap_preserves_pglp_exactly() {
        // Post-processing invariance, audited rather than assumed.
        let policy = LocationPolicyGraph::complete(grid());
        let prior = Prior::uniform(policy.grid());
        let eps = 1.0;
        let remapped =
            RemappedMechanism::build(&GraphExponential, &policy, eps, &prior, 0).unwrap();
        let report = audit_pglp(&remapped, &policy, eps).unwrap();
        assert!(report.exact);
        assert!(report.satisfied, "{report:?}");
    }

    #[test]
    fn remap_improves_utility_under_skewed_prior() {
        // Victim is concentrated in one corner; the remap pulls noisy
        // releases toward it, cutting expected error.
        let g = grid();
        let policy = LocationPolicyGraph::complete(g.clone());
        let mut weights = vec![0.05; 25];
        weights[g.cell(0, 0).index()] = 10.0;
        weights[g.cell(1, 0).index()] = 5.0;
        weights[g.cell(0, 1).index()] = 5.0;
        let prior = Prior::from_weights(weights);
        let eps = 0.4;
        let remapped =
            RemappedMechanism::build(&GraphExponential, &policy, eps, &prior, 0).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        const N: usize = 4000;
        let (mut base_err, mut remap_err) = (0.0, 0.0);
        for _ in 0..N {
            let truth = prior.sample(&mut rng);
            let z0 = GraphExponential
                .perturb(&policy, eps, truth, &mut rng)
                .unwrap();
            let z1 = remapped.perturb(&policy, eps, truth, &mut rng).unwrap();
            base_err += g.distance(truth, z0);
            remap_err += g.distance(truth, z1);
        }
        assert!(
            remap_err < base_err,
            "remap must improve utility: {} !< {}",
            remap_err / N as f64,
            base_err / N as f64
        );
    }

    #[test]
    fn remapped_distribution_normalises() {
        let policy = LocationPolicyGraph::partition(grid(), 2, 2);
        let prior = Prior::uniform(policy.grid());
        let remapped =
            RemappedMechanism::build(&GraphExponential, &policy, 1.0, &prior, 0).unwrap();
        let dist = remapped
            .output_distribution(&policy, 1.0, CellId(0))
            .unwrap();
        let total: f64 = dist.iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    /// The batched path must be the base's batched path plus the remap
    /// table — bit for bit, so the wrapper inherits the release engine's
    /// determinism contract.
    #[test]
    fn batched_path_is_base_plus_remap_bitwise() {
        use panda_core::{PolicyIndex, UniformComponent};
        let policy = LocationPolicyGraph::partition(grid(), 2, 2);
        let prior = Prior::uniform(policy.grid());
        let index = PolicyIndex::new(policy.clone());
        let eps = 0.7;
        let bases: [&dyn Mechanism; 2] = [&GraphExponential, &UniformComponent];
        for base in bases {
            let remapped = RemappedMechanism::build(base, &policy, eps, &prior, 0).unwrap();
            let locs: Vec<CellId> = (0..500).map(|i| CellId(i % 25)).collect();
            let mut rng_a = SmallRng::seed_from_u64(7);
            let mut rng_b = SmallRng::seed_from_u64(7);
            let wrapped = remapped
                .perturb_batch(&index, eps, &locs, &mut rng_a)
                .unwrap();
            let raw = base.perturb_batch(&index, eps, &locs, &mut rng_b).unwrap();
            for (w, r) in wrapped.iter().zip(raw) {
                assert_eq!(*w, remapped.remap_of(r), "{}", base.name());
            }
        }
    }

    /// Two wrappers over *different* bases sharing one `PolicyIndex` must
    /// not collide in the distribution cache (the old static `"remapped"`
    /// name would have keyed both bases' tables identically).
    #[test]
    fn wrappers_over_different_bases_share_an_index_safely() {
        use panda_core::{EuclideanExponential, PolicyIndex};
        let policy = LocationPolicyGraph::partition(grid(), 2, 2);
        let prior = Prior::uniform(policy.grid());
        let index = PolicyIndex::new(policy.clone());
        let eps = 1.0;
        let over_gem =
            RemappedMechanism::build(&GraphExponential, &policy, eps, &prior, 0).unwrap();
        let over_euc =
            RemappedMechanism::build(&EuclideanExponential, &policy, eps, &prior, 0).unwrap();
        let locs = vec![CellId(0); 30_000];
        // Interleave so a shared cache key would serve the wrong table.
        let mut rng = SmallRng::seed_from_u64(3);
        let out_gem = over_gem
            .perturb_batch(&index, eps, &locs, &mut rng)
            .unwrap();
        let out_euc = over_euc
            .perturb_batch(&index, eps, &locs, &mut rng)
            .unwrap();
        let out_gem2 = over_gem
            .perturb_batch(&index, eps, &locs, &mut rng)
            .unwrap();
        let census = |out: &[CellId]| {
            let mut m = std::collections::HashMap::new();
            for &z in out {
                *m.entry(z).or_insert(0usize) += 1;
            }
            m
        };
        // Each wrapper must keep matching its own closed-form distribution
        // even after the other wrapper used the shared index.
        for (label, out, mech) in [
            ("gem", &out_gem, &over_gem),
            ("euc", &out_euc, &over_euc),
            ("gem-after-euc", &out_gem2, &over_gem),
        ] {
            let exact = mech.output_distribution(&policy, eps, CellId(0)).unwrap();
            let counts = census(out);
            for (c, p) in exact {
                let emp = *counts.get(&c).unwrap_or(&0) as f64 / locs.len() as f64;
                assert!(
                    (emp - p).abs() < 0.01,
                    "{label} cell {c}: empirical {emp} vs exact {p}"
                );
            }
        }
    }

    #[test]
    fn uniform_prior_remap_is_mild() {
        // With a flat prior over a symmetric component the remap mostly
        // keeps releases in place (no information to exploit).
        let policy = LocationPolicyGraph::complete(grid());
        let prior = Prior::uniform(policy.grid());
        let remapped =
            RemappedMechanism::build(&GraphExponential, &policy, 1.0, &prior, 0).unwrap();
        // Centre cell maps to itself by symmetry.
        let centre = policy.grid().cell(2, 2);
        assert_eq!(remapped.remap_of(centre), centre);
    }
}
