//! The [`CellSampler`] contracts, mechanism by mechanism:
//!
//! 1. **Distributional correctness** — handle draws match the mechanism's
//!    closed-form `output_distribution` (chi-square), for every mechanism
//!    that has one.
//! 2. **Stream equivalence** — a handle draw consumes exactly the RNG
//!    sequence of `Mechanism::perturb`, the unindexed definition of each
//!    mechanism, so every release path (batch, bulk, streaming — all drawn
//!    through memoised handles) is byte-identical to calling `perturb` per
//!    report. `EuclideanExponential` is stream-equal only below
//!    `SamplingTable::ALIAS_THRESHOLD` support cells: above it its table is
//!    an alias table, which draws the same distribution from a different
//!    stream. The fixtures here stay below it.
//! 3. **Support** — draws never leave the policy component (property test
//!    over random policies).

use panda_core::mech::{CellSampler, SamplerMemo};
use panda_core::{
    EuclideanExponential, GraphCalibratedLaplace, GraphExponential, IdentityMechanism, Mechanism,
    PlanarIsotropic, PlanarLaplace, PolicyIndex, UniformComponent,
};
use panda_core::{LocationPolicyGraph, PglpError};
use panda_geo::{CellId, GridMap};
use proptest::prelude::*;
use rand::rngs::{SmallRng, StdRng};
use rand::SeedableRng;

fn all_mechanisms() -> Vec<Box<dyn Mechanism>> {
    vec![
        Box::new(GraphExponential),
        Box::new(EuclideanExponential),
        Box::new(GraphCalibratedLaplace),
        Box::new(PlanarIsotropic::new()),
        Box::new(PlanarLaplace),
        Box::new(IdentityMechanism),
        Box::new(UniformComponent),
    ]
}

fn index() -> PolicyIndex {
    PolicyIndex::new(LocationPolicyGraph::partition(
        GridMap::new(6, 6, 100.0),
        3,
        3,
    ))
}

/// Chi-square of observed counts against expected probabilities; `df + 1`
/// categories.
fn chi_square(
    counts: &std::collections::HashMap<CellId, usize>,
    exact: &[(CellId, f64)],
    n: usize,
) -> f64 {
    exact
        .iter()
        .filter(|&&(_, p)| p * n as f64 >= 5.0)
        .map(|&(c, p)| {
            let e = p * n as f64;
            let o = *counts.get(&c).unwrap_or(&0) as f64;
            (o - e).powi(2) / e
        })
        .sum()
}

/// Handle draws match the closed-form output distribution for every
/// closed-form mechanism (chi-square at the 99.9% level, fixed seeds).
#[test]
fn sampler_draws_match_output_distribution_chi_square() {
    let index = index();
    let s = CellId(7);
    const N: usize = 120_000;
    for (i, mech) in all_mechanisms().into_iter().enumerate() {
        let Some(exact) = mech.output_distribution(index.policy(), 1.0, s) else {
            continue; // continuous mechanisms: covered by the stream test
        };
        let sampler = mech.sampler(&index, 1.0, s).unwrap();
        let mut rng = SmallRng::seed_from_u64(40 + i as u64);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..N {
            *counts.entry(sampler.draw(&mut rng)).or_insert(0usize) += 1;
        }
        let chi2 = chi_square(&counts, &exact, N);
        // Components here have ≤ 4 cells (≤ 3 df): 99.9% critical ≈ 16.3;
        // generous slack keeps the fixed-seed test deterministic.
        assert!(
            chi2 < 20.0,
            "{}: chi-square {chi2} too large for {} categories",
            mech.name(),
            exact.len()
        );
        // Every drawn cell must be in the declared support.
        for cell in counts.keys() {
            assert!(
                exact.iter().any(|&(c, _)| c == *cell),
                "{}: drew {cell} outside the support",
                mech.name()
            );
        }
    }
}

/// The determinism keystone: for every mechanism, on a partition and on
/// a G1 policy, a handle draw consumes exactly the RNG sequence of
/// `perturb` — resolved once, drawn many times, against a twin RNG.
#[test]
fn sampler_draws_bit_match_perturb() {
    let g1 = PolicyIndex::new(LocationPolicyGraph::g1_geo_indistinguishability(
        GridMap::new(6, 6, 100.0),
    ));
    for index in [index(), g1] {
        for mech in all_mechanisms() {
            for s in [CellId(0), CellId(14), CellId(35)] {
                for eps in [0.3, 1.0, 4.0] {
                    let sampler = mech.sampler(&index, eps, s).unwrap();
                    let mut rng_handle = StdRng::seed_from_u64(99);
                    let mut rng_perturb = StdRng::seed_from_u64(99);
                    for _ in 0..300 {
                        let via_handle = sampler.draw(&mut rng_handle);
                        let via_perturb = mech
                            .perturb(index.policy(), eps, s, &mut rng_perturb)
                            .unwrap();
                        assert_eq!(
                            via_handle,
                            via_perturb,
                            "{} diverged at cell {s}, eps {eps} under {}",
                            mech.name(),
                            index.policy().name()
                        );
                    }
                }
            }
        }
    }
}

/// Isolated cells resolve to exact handles for every policy-aware
/// mechanism, consuming no randomness.
#[test]
fn isolated_cells_resolve_to_exact_handles() {
    let index = PolicyIndex::new(LocationPolicyGraph::isolated(GridMap::new(4, 4, 50.0)));
    let mut rng = StdRng::seed_from_u64(5);
    let before = rng.clone();
    for mech in [
        Box::new(GraphExponential) as Box<dyn Mechanism>,
        Box::new(EuclideanExponential),
        Box::new(GraphCalibratedLaplace),
        Box::new(PlanarIsotropic::new()),
    ] {
        let sampler = mech.sampler(&index, 1.0, CellId(9)).unwrap();
        assert_eq!(sampler.draw(&mut rng), CellId(9), "{}", mech.name());
    }
    // None of the exact draws advanced the RNG.
    let mut before = before;
    let mut after = rng;
    use rand::RngCore;
    assert_eq!(before.next_u64(), after.next_u64());
}

/// Resolution validates inputs: bad ε and foreign cells fail at `sampler`
/// time, for every mechanism, so `draw` can stay infallible.
#[test]
fn sampler_resolution_validates_inputs() {
    let index = index();
    for mech in all_mechanisms() {
        assert!(
            matches!(
                mech.sampler(&index, 0.0, CellId(0)),
                Err(PglpError::InvalidEpsilon(_))
            ),
            "{}",
            mech.name()
        );
        assert!(
            matches!(
                mech.sampler(&index, 1.0, CellId(u32::MAX)),
                Err(PglpError::LocationOutOfDomain(_))
            ),
            "{}",
            mech.name()
        );
    }
}

/// A memoised multi-cell batch through `SamplerMemo` (the release
/// engine's lane path in miniature) and `perturb_batch` are both
/// byte-identical to `perturb` per report on the same RNG.
#[test]
fn memoised_batch_bit_matches_perturb() {
    let index = index();
    let locs: Vec<CellId> = (0..2_048).map(|i| CellId(i % 9)).collect();
    for mech in all_mechanisms() {
        let mut rng_memo = StdRng::seed_from_u64(31);
        let mut rng_batch = StdRng::seed_from_u64(31);
        let mut rng_perturb = StdRng::seed_from_u64(31);
        let mut memo = SamplerMemo::new();
        let via_memo: Vec<CellId> = locs
            .iter()
            .map(|&s| {
                let sampler = memo.resolve(&*mech, &index, 1.0, s).unwrap().unwrap();
                sampler.draw(&mut rng_memo)
            })
            .collect();
        let via_batch = mech
            .perturb_batch(&index, 1.0, &locs, &mut rng_batch)
            .unwrap();
        let via_perturb: Vec<CellId> = locs
            .iter()
            .map(|&s| {
                mech.perturb(index.policy(), 1.0, s, &mut rng_perturb)
                    .unwrap()
            })
            .collect();
        assert_eq!(via_memo, via_perturb, "{}", mech.name());
        assert_eq!(via_batch, via_perturb, "{}", mech.name());
    }
}

/// Remapped handles compose: `CellSampler::remapped` applies the table to
/// every inner draw.
#[test]
fn remapped_handle_applies_table() {
    let index = index();
    let n = index.policy().grid().n_cells();
    // A rotation remap over the grid.
    let table: Vec<CellId> = (0..n).map(|i| CellId((i + 1) % n)).collect();
    let inner = GraphExponential.sampler(&index, 1.0, CellId(0)).unwrap();
    let remapped = CellSampler::remapped(inner.clone(), &table);
    let mut rng_a = StdRng::seed_from_u64(77);
    let mut rng_b = StdRng::seed_from_u64(77);
    for _ in 0..500 {
        assert_eq!(
            remapped.draw(&mut rng_a),
            table[inner.draw(&mut rng_b).index()]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Handle draws never leave the component of the true cell, on random
    /// policies, for every policy-respecting mechanism.
    #[test]
    fn sampler_respects_component_support(
        dims in (2u32..6, 2u32..6, 2u32..20, 0.0f64..1.0, any::<u64>()),
        eps in 0.05f64..4.0,
        pick in any::<u32>(),
    ) {
        let (w, h, size, density, seed) = dims;
        let grid = GridMap::new(w, h, 100.0);
        let size = size.min(grid.n_cells());
        let mut rng = SmallRng::seed_from_u64(seed);
        let policy = LocationPolicyGraph::random(grid, size, density, &mut rng);
        let index = PolicyIndex::new(policy);
        let s = CellId(pick % index.policy().n_locations());
        let mechs: Vec<Box<dyn Mechanism>> = vec![
            Box::new(GraphExponential),
            Box::new(EuclideanExponential),
            Box::new(GraphCalibratedLaplace),
            Box::new(PlanarIsotropic::new()),
            Box::new(UniformComponent),
        ];
        for mech in &mechs {
            let sampler = mech.sampler(&index, eps, s).unwrap();
            for _ in 0..8 {
                let z = sampler.draw(&mut rng);
                prop_assert!(
                    index.policy().same_component(s, z),
                    "{} escaped the component: {} -> {}", mech.name(), s, z
                );
            }
        }
    }
}
