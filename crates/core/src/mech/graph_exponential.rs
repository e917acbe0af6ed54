//! The graph-exponential mechanism — the reference PGLP mechanism.
//!
//! For true location `s` with policy component `C(s)`, release `z ∈ C(s)`
//! with probability
//!
//! ```text
//! Pr[A(s) = z] = exp(−ε·d_G(s, z)/2) / Σ_{w ∈ C(s)} exp(−ε·d_G(s, w)/2)
//! ```
//!
//! **Privacy proof sketch.** Let `(s, s′)` be a policy edge, so
//! `d_G(s, s′) = 1` and `C(s) = C(s′)`. By the triangle inequality of `d_G`,
//! `|d_G(s, z) − d_G(s′, z)| ≤ 1` for every `z`, hence the unnormalised
//! weights differ by a factor ≤ `e^{ε/2}`; the normalisers likewise differ
//! by ≤ `e^{ε/2}`. Multiplying the two bounds gives `Pr[A(s)=z] ≤
//! e^ε·Pr[A(s′)=z]` — exactly Def. 2.4. Lemma 2.1 then lifts the guarantee
//! to `ε·d_G` for arbitrary `∞`-neighbours. Isolated nodes form singleton
//! components and are released exactly, as the paper prescribes.
//!
//! **Sampling by distance rings.** The weight depends on `z` only through
//! the integer `d_G(s, z)`, so the mechanism draws a ring of equidistant
//! cells ([`DistanceRings`]) with probability ∝ `|ring|·exp(−ε·d/2)`, then a
//! cell of that ring uniformly — exactly the distribution above, from
//! ε-free per-cell state and with no `exp` per cell.

use crate::error::PglpError;
use crate::index::{DistanceRings, PolicyIndex};
use crate::mech::{validate, CellSampler, Mechanism};
use crate::policy::LocationPolicyGraph;
use panda_geo::CellId;
use rand::RngCore;
use std::sync::Arc;

/// Graph-exponential PGLP mechanism. Stateless; construct freely.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphExponential;

impl GraphExponential {
    /// Unnormalised log-weights `−ε·d_G(s,z)/2` over the component of `s`,
    /// paired with the cells, sorted by cell id.
    fn log_weights(policy: &LocationPolicyGraph, eps: f64, s: CellId) -> Vec<(CellId, f64)> {
        policy
            .component_distances(s)
            .into_iter()
            .map(|(c, d)| (c, -eps * d as f64 / 2.0))
            .collect()
    }

    /// Exact log-probabilities `ln Pr[A(s) = ·]` over the support.
    /// Numerically stable (log-sum-exp); used by the privacy auditor so
    /// ratios can be checked in log space even when probabilities underflow.
    pub fn log_output_distribution(
        &self,
        policy: &LocationPolicyGraph,
        eps: f64,
        s: CellId,
    ) -> Result<Vec<(CellId, f64)>, PglpError> {
        validate(policy, eps, s)?;
        let lw = Self::log_weights(policy, eps, s);
        let max = lw.iter().map(|&(_, w)| w).fold(f64::NEG_INFINITY, f64::max);
        let log_z = max + lw.iter().map(|&(_, w)| (w - max).exp()).sum::<f64>().ln();
        Ok(lw.into_iter().map(|(c, w)| (c, w - log_z)).collect())
    }
}

impl Mechanism for GraphExponential {
    fn name(&self) -> &'static str {
        "graph-exponential"
    }

    fn perturb(
        &self,
        policy: &LocationPolicyGraph,
        eps: f64,
        true_loc: CellId,
        rng: &mut dyn RngCore,
    ) -> Result<CellId, PglpError> {
        validate(policy, eps, true_loc)?;
        if policy.is_isolated_cell(true_loc) {
            return Ok(true_loc);
        }
        // The resolved handle's draw, over rings built on the spot.
        let rings = Arc::new(DistanceRings::build(policy, true_loc));
        let members = policy.component_slice(true_loc);
        Ok(CellSampler::distance_rings(rings, members, eps).draw(rng))
    }

    fn output_distribution(
        &self,
        policy: &LocationPolicyGraph,
        eps: f64,
        true_loc: CellId,
    ) -> Option<Vec<(CellId, f64)>> {
        let log_dist = self.log_output_distribution(policy, eps, true_loc).ok()?;
        Some(log_dist.into_iter().map(|(c, l)| (c, l.exp())).collect())
    }

    fn sampler<'a>(
        &'a self,
        index: &'a PolicyIndex,
        eps: f64,
        cell: CellId,
    ) -> Result<CellSampler<'a>, PglpError> {
        validate(index.policy(), eps, cell)?;
        if index.policy().is_isolated_cell(cell) {
            // Singleton component: exact release, no randomness consumed.
            return Ok(CellSampler::exact(cell));
        }
        // One ring-cache touch here; every draw is then lock-free.
        let (rings, members) = (index.distance_row(cell), index.component_slice(cell));
        Ok(CellSampler::distance_rings(rings, members, eps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_geo::GridMap;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn grid() -> GridMap {
        GridMap::new(4, 4, 100.0)
    }

    #[test]
    fn distribution_sums_to_one() {
        let p = LocationPolicyGraph::g1_geo_indistinguishability(grid());
        let dist = GraphExponential
            .output_distribution(&p, 1.0, CellId(5))
            .unwrap();
        assert_eq!(dist.len(), 16);
        let total: f64 = dist.iter().map(|&(_, pr)| pr).sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn truth_is_the_mode() {
        let p = LocationPolicyGraph::g1_geo_indistinguishability(grid());
        let s = CellId(5);
        let dist = GraphExponential.output_distribution(&p, 2.0, s).unwrap();
        let (mode, _) = dist
            .iter()
            .copied()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert_eq!(mode, s);
    }

    #[test]
    fn weights_decay_exponentially_with_distance() {
        let p = LocationPolicyGraph::g1_geo_indistinguishability(grid());
        let s = p.grid().cell(0, 0);
        let eps = 1.5;
        let dist = GraphExponential.output_distribution(&p, eps, s).unwrap();
        let pr = |c: CellId| dist.iter().find(|&&(d, _)| d == c).unwrap().1;
        // d_G(s, (1,1)) = 1 and d_G(s, (2,2)) = 2 in G1.
        let ratio = pr(p.grid().cell(1, 1)) / pr(p.grid().cell(2, 2));
        assert!((ratio - (eps / 2.0).exp()).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn isolated_cell_released_exactly() {
        let p = LocationPolicyGraph::isolated(grid());
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..20 {
            assert_eq!(
                GraphExponential
                    .perturb(&p, 0.5, CellId(7), &mut rng)
                    .unwrap(),
                CellId(7)
            );
        }
    }

    #[test]
    fn samples_match_exact_distribution() {
        let p = LocationPolicyGraph::partition(grid(), 2, 2);
        let s = CellId(0);
        let eps = 1.0;
        let exact = GraphExponential.output_distribution(&p, eps, s).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        const N: usize = 100_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..N {
            let z = GraphExponential.perturb(&p, eps, s, &mut rng).unwrap();
            *counts.entry(z).or_insert(0usize) += 1;
        }
        for (c, pr) in exact {
            let emp = *counts.get(&c).unwrap_or(&0) as f64 / N as f64;
            assert!(
                (emp - pr).abs() < 0.01,
                "cell {c}: empirical {emp} vs exact {pr}"
            );
        }
    }

    #[test]
    fn samples_stay_in_component() {
        let p = LocationPolicyGraph::partition(grid(), 2, 2);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..200 {
            let z = GraphExponential
                .perturb(&p, 0.7, CellId(0), &mut rng)
                .unwrap();
            assert!(p.same_component(CellId(0), z));
        }
    }

    #[test]
    fn log_distribution_is_stable_for_tiny_eps_large_graph() {
        // Large component + small eps: probabilities are tiny but finite.
        let p = LocationPolicyGraph::g1_geo_indistinguishability(GridMap::new(20, 20, 10.0));
        let log_dist = GraphExponential
            .log_output_distribution(&p, 0.01, CellId(0))
            .unwrap();
        assert!(log_dist.iter().all(|&(_, l)| l.is_finite() && l < 0.0));
        // Log-probs must normalise.
        let total: f64 = log_dist.iter().map(|&(_, l)| l.exp()).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ring_handle_probabilities_match_closed_form() {
        let mut rng = SmallRng::seed_from_u64(8);
        let cases = [
            (
                LocationPolicyGraph::g1_geo_indistinguishability(GridMap::new(9, 7, 100.0)),
                0.7,
            ),
            (LocationPolicyGraph::partition(grid(), 2, 2), 2.5),
            (LocationPolicyGraph::random(grid(), 10, 0.4, &mut rng), 0.05),
        ];
        for (p, eps) in cases {
            let index = PolicyIndex::new(p.clone());
            for s in (0..p.n_locations()).map(CellId) {
                let exact = GraphExponential.output_distribution(&p, eps, s).unwrap();
                let mut handle = GraphExponential
                    .sampler(&index, eps, s)
                    .unwrap()
                    .probabilities()
                    .expect("discrete handle");
                handle.sort_by_key(|&(c, _)| c);
                assert_eq!(handle.len(), exact.len());
                for ((c, ph), (ce, pe)) in handle.into_iter().zip(exact) {
                    assert_eq!(c, ce);
                    assert!((ph - pe).abs() < 1e-12, "{s}→{c}: ring {ph} vs exact {pe}");
                }
            }
        }
    }

    #[test]
    fn ring_draws_pass_chi_square_on_a_large_component() {
        let p = LocationPolicyGraph::g1_geo_indistinguishability(GridMap::new(32, 32, 100.0));
        let index = PolicyIndex::new(p.clone());
        let (s, eps) = (p.grid().cell(9, 20), 0.1);
        let exact = GraphExponential.output_distribution(&p, eps, s).unwrap();
        assert!(exact.len() >= 1024);
        let sampler = GraphExponential.sampler(&index, eps, s).unwrap();
        const N: usize = 400_000;
        let mut counts = vec![0usize; p.n_locations() as usize];
        let mut rng = SmallRng::seed_from_u64(12);
        for _ in 0..N {
            counts[sampler.draw(&mut rng).index()] += 1;
        }
        let chi2: f64 = exact
            .iter()
            .map(|&(c, pr)| {
                let e = pr * N as f64;
                (counts[c.index()] as f64 - e).powi(2) / e
            })
            .sum();
        // 1023 degrees of freedom: the 99.9% critical value is ≈ 1168.
        assert!(chi2 < 1168.0, "chi-square {chi2} too large");
    }

    #[test]
    fn perturb_draws_what_the_resolved_handle_draws() {
        let p = LocationPolicyGraph::g1_geo_indistinguishability(grid());
        let index = PolicyIndex::new(p.clone());
        let sampler = GraphExponential.sampler(&index, 0.9, CellId(6)).unwrap();
        let (mut a, mut b) = (SmallRng::seed_from_u64(5), SmallRng::seed_from_u64(5));
        for _ in 0..500 {
            let z = GraphExponential
                .perturb(&p, 0.9, CellId(6), &mut a)
                .unwrap();
            assert_eq!(z, sampler.draw(&mut b));
        }
    }

    #[test]
    fn exact_pglp_ratio_on_every_edge() {
        // The defining property, checked directly on a non-trivial policy.
        let mut rng = SmallRng::seed_from_u64(4);
        let p = LocationPolicyGraph::random(grid(), 10, 0.4, &mut rng);
        let eps = 1.2;
        for (a, b) in p.graph().edges().collect::<Vec<_>>() {
            let (sa, sb) = (CellId(a), CellId(b));
            let da = GraphExponential
                .log_output_distribution(&p, eps, sa)
                .unwrap();
            let db = GraphExponential
                .log_output_distribution(&p, eps, sb)
                .unwrap();
            assert_eq!(da.len(), db.len());
            for (&(ca, la), &(cb, lb)) in da.iter().zip(db.iter()) {
                assert_eq!(ca, cb);
                assert!(
                    (la - lb).abs() <= eps + 1e-9,
                    "edge ({a},{b}) output {ca}: log ratio {}",
                    la - lb
                );
            }
        }
    }
}
