//! The attacker's mechanism model: `P(z | s)` for every cell pair.
//!
//! PGLP's threat model makes the policy graph and mechanism public (§2.1:
//! "by making the policy graph public, the system has a high level of
//! transparency"), so a strong adversary knows `P(z | s)` exactly. For
//! mechanisms with closed-form distributions the likelihood matrix is exact;
//! for sampling-only mechanisms it is estimated by Monte Carlo with
//! add-one smoothing (the attacker's own approximation).

use panda_core::{LocationPolicyGraph, Mechanism, PglpError};
use panda_geo::CellId;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Dense likelihood matrix: `like[s][z] = P(A(s) = z)`.
#[derive(Debug, Clone)]
pub struct LikelihoodModel {
    n: usize,
    like: Vec<Vec<f64>>,
    exact: bool,
}

impl LikelihoodModel {
    /// Builds the model from closed-form distributions; falls back to Monte
    /// Carlo (with `mc_samples` per input, seeded deterministically) for
    /// mechanisms without one.
    pub fn build(
        mech: &dyn Mechanism,
        policy: &LocationPolicyGraph,
        eps: f64,
        mc_samples: usize,
    ) -> Result<Self, PglpError> {
        let n = policy.n_locations() as usize;
        let mut like = vec![vec![0.0f64; n]; n];
        let mut exact = true;
        for (s, like_row) in like.iter_mut().enumerate() {
            let cell = CellId(s as u32);
            if let Some(dist) = mech.output_distribution(policy, eps, cell) {
                for (z, p) in dist {
                    like_row[z.index()] = p;
                }
            } else {
                exact = false;
                let mut rng =
                    StdRng::seed_from_u64(0xA77AC4 ^ (s as u64).wrapping_mul(0x9E37_79B9));
                let mut counts = vec![0usize; n];
                for _ in 0..mc_samples {
                    let z = mech.perturb(policy, eps, cell, &mut rng)?;
                    counts[z.index()] += 1;
                }
                // Add-one smoothing over the component support: the attacker
                // knows outputs stay in the component.
                let support = policy.component_cells(cell);
                let denom = mc_samples as f64 + support.len() as f64;
                for c in support {
                    like_row[c.index()] = (counts[c.index()] as f64 + 1.0) / denom;
                }
            }
        }
        Ok(LikelihoodModel { n, like, exact })
    }

    /// `P(z | s)`.
    #[inline]
    pub fn prob(&self, s: CellId, z: CellId) -> f64 {
        self.like[s.index()][z.index()]
    }

    /// Number of cells.
    pub fn n_cells(&self) -> usize {
        self.n
    }

    /// `true` when every row came from a closed-form distribution.
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// The full row `P(· | s)`.
    pub fn row(&self, s: CellId) -> &[f64] {
        &self.like[s.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_core::{GraphCalibratedLaplace, GraphExponential, LocationPolicyGraph};
    use panda_geo::GridMap;

    fn policy() -> LocationPolicyGraph {
        LocationPolicyGraph::partition(GridMap::new(4, 4, 100.0), 2, 2)
    }

    #[test]
    fn exact_rows_normalise() {
        let p = policy();
        let m = LikelihoodModel::build(&GraphExponential, &p, 1.0, 0).unwrap();
        assert!(m.is_exact());
        for s in 0..16 {
            let total: f64 = m.row(CellId(s)).iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "row {s} sums to {total}");
        }
    }

    #[test]
    fn exact_rows_supported_on_component() {
        let p = policy();
        let m = LikelihoodModel::build(&GraphExponential, &p, 1.0, 0).unwrap();
        for s in p.grid().cells() {
            for z in p.grid().cells() {
                let q = m.prob(s, z);
                if p.same_component(s, z) {
                    assert!(q > 0.0);
                } else {
                    assert_eq!(q, 0.0);
                }
            }
        }
    }

    #[test]
    fn monte_carlo_rows_normalise_and_cover_support() {
        let p = policy();
        let m = LikelihoodModel::build(&GraphCalibratedLaplace, &p, 1.0, 20_000).unwrap();
        assert!(!m.is_exact());
        for s in 0..16u32 {
            let total: f64 = m.row(CellId(s)).iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "row {s} sums to {total}");
            // Smoothing guarantees positive mass on the whole component.
            for z in p.component_cells(CellId(s)) {
                assert!(m.prob(CellId(s), z) > 0.0);
            }
        }
    }

    #[test]
    fn monte_carlo_close_to_exact_for_gem() {
        // Force the MC path by wrapping GEM in a shim with no closed form.
        struct Shim;
        impl Mechanism for Shim {
            fn name(&self) -> &'static str {
                "shim"
            }
            fn perturb(
                &self,
                policy: &LocationPolicyGraph,
                eps: f64,
                s: CellId,
                rng: &mut dyn rand::RngCore,
            ) -> Result<CellId, PglpError> {
                GraphExponential.perturb(policy, eps, s, rng)
            }
            fn sampler<'a>(
                &'a self,
                index: &'a panda_core::PolicyIndex,
                eps: f64,
                s: CellId,
            ) -> Result<panda_core::CellSampler<'a>, PglpError> {
                GraphExponential.sampler(index, eps, s)
            }
        }
        let p = policy();
        let exact = LikelihoodModel::build(&GraphExponential, &p, 1.0, 0).unwrap();
        let mc = LikelihoodModel::build(&Shim, &p, 1.0, 50_000).unwrap();
        for s in p.grid().cells() {
            for z in p.component_cells(s) {
                let (a, b) = (exact.prob(s, z), mc.prob(s, z));
                assert!((a - b).abs() < 0.02, "P({z}|{s}): exact {a} vs mc {b}");
            }
        }
    }
}
