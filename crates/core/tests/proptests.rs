//! Property-based tests for PGLP: the privacy guarantees must hold for
//! *arbitrary* policy graphs, epsilons and locations, not just the presets.

use panda_core::budget::BudgetLedger;
use panda_core::mech::{
    EuclideanExponential, GraphCalibratedLaplace, GraphExponential, Mechanism, PlanarIsotropic,
    UniformComponent,
};
use panda_core::{audit_pglp, repair, LocationPolicyGraph, PolicyIndex};
use panda_geo::{CellId, GridMap};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Arbitrary random policy over a small grid (the Fig. 5 generator).
fn arb_policy() -> impl Strategy<Value = LocationPolicyGraph> {
    (2u32..6, 2u32..6, 2u32..20, 0.0f64..1.0, any::<u64>()).prop_map(
        |(w, h, size, density, seed)| {
            let grid = GridMap::new(w, h, 100.0);
            let size = size.min(grid.n_cells());
            let mut rng = SmallRng::seed_from_u64(seed);
            LocationPolicyGraph::random(grid, size, density, &mut rng)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The closed-form mechanisms satisfy the exact Def. 2.4 bound on
    /// EVERY edge of EVERY random policy graph.
    #[test]
    fn exact_mechanisms_satisfy_pglp_on_random_policies(policy in arb_policy(), eps in 0.05f64..4.0) {
        for mech in [&GraphExponential as &dyn Mechanism, &EuclideanExponential] {
            let report = audit_pglp(mech, &policy, eps).unwrap();
            prop_assert!(report.exact);
            prop_assert!(report.satisfied, "{} audit failed: {:?}", mech.name(), report);
        }
    }

    /// GEM's exact distribution normalises and is supported exactly on the
    /// component of the input.
    #[test]
    fn gem_distribution_support(policy in arb_policy(), eps in 0.05f64..4.0, pick in any::<u32>()) {
        let s = CellId(pick % policy.n_locations());
        let dist = GraphExponential.output_distribution(&policy, eps, s).unwrap();
        let total: f64 = dist.iter().map(|&(_, p)| p).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        let comp = policy.component_cells(s);
        prop_assert_eq!(dist.len(), comp.len());
        for (c, p) in dist {
            prop_assert!(comp.contains(&c));
            prop_assert!(p > 0.0);
        }
    }

    /// Every mechanism keeps its outputs inside the policy component of the
    /// true location (the support invariant that makes snapping legal).
    #[test]
    fn mechanisms_respect_component_support(
        policy in arb_policy(),
        eps in 0.05f64..4.0,
        pick in any::<u32>(),
        seed in any::<u64>(),
    ) {
        let s = CellId(pick % policy.n_locations());
        let mut rng = SmallRng::seed_from_u64(seed);
        let mechs: Vec<Box<dyn Mechanism>> = vec![
            Box::new(GraphExponential),
            Box::new(EuclideanExponential),
            Box::new(GraphCalibratedLaplace),
            Box::new(PlanarIsotropic::new()),
            Box::new(UniformComponent),
        ];
        for m in &mechs {
            for _ in 0..8 {
                let z = m.perturb(&policy, eps, s, &mut rng).unwrap();
                prop_assert!(
                    policy.same_component(s, z),
                    "{} escaped the component: {} -> {}", m.name(), s, z
                );
            }
        }
    }

    /// Isolated cells are always released exactly, by every mechanism.
    #[test]
    fn isolated_cells_always_exact(
        w in 2u32..6, h in 2u32..6, eps in 0.05f64..4.0, pick in any::<u32>(), seed in any::<u64>()
    ) {
        let policy = LocationPolicyGraph::isolated(GridMap::new(w, h, 50.0));
        let s = CellId(pick % policy.n_locations());
        let mut rng = SmallRng::seed_from_u64(seed);
        let mechs: Vec<Box<dyn Mechanism>> = vec![
            Box::new(GraphExponential),
            Box::new(EuclideanExponential),
            Box::new(GraphCalibratedLaplace),
            Box::new(PlanarIsotropic::new()),
        ];
        for m in &mechs {
            prop_assert_eq!(m.perturb(&policy, eps, s, &mut rng).unwrap(), s);
        }
    }

    /// The budget ledger never lets cumulative spend exceed the total, no
    /// matter the charge sequence.
    #[test]
    fn ledger_never_overspends(total in 0.1f64..10.0, charges in prop::collection::vec(0.01f64..2.0, 0..40)) {
        let mut ledger = BudgetLedger::new(total);
        for (t, eps) in charges.into_iter().enumerate() {
            let _ = ledger.charge(t as u64, "p", eps);
            prop_assert!(ledger.spent() <= total + 1e-9);
            prop_assert!(ledger.remaining() >= -1e-9);
        }
        let history_sum: f64 = ledger.history().iter().map(|c| c.eps).sum();
        prop_assert!((history_sum - ledger.spent()).abs() < 1e-9);
    }

    /// Repair invariants: protectable ⊆ feasible; expansion ⊇ feasible and
    /// makes the original feasible cells protectable; restriction never
    /// keeps a crossing edge.
    #[test]
    fn repair_invariants(policy in arb_policy(), mask in any::<u64>()) {
        let feasible: Vec<CellId> = (0..policy.n_locations())
            .filter(|i| mask >> (i % 64) & 1 == 1)
            .map(CellId)
            .collect();
        let prot = repair::protectable_cells(&policy, &feasible);
        for c in &prot {
            prop_assert!(feasible.contains(c));
        }
        let (expanded, _) = repair::repair_by_expansion(&policy, &feasible);
        for c in &feasible {
            prop_assert!(expanded.contains(c));
        }
        let prot_after = repair::protectable_cells(&policy, &expanded);
        for c in &feasible {
            prop_assert!(prot_after.contains(c), "cell {} not protectable after expansion", c);
        }
        let (restricted, summary) = repair::restrict(&policy, &feasible);
        for (a, b) in restricted.graph().edges() {
            prop_assert!(feasible.contains(&CellId(a)) && feasible.contains(&CellId(b)));
        }
        prop_assert_eq!(
            summary.dropped_edges,
            policy.graph().n_edges() - restricted.graph().n_edges()
        );
    }

    /// The precomputed distance tables agree with fresh BFS on every pair
    /// of every random policy — cached `distance(a, b)` IS `d_G(a, b)`.
    #[test]
    fn policy_index_distances_match_fresh_bfs(policy in arb_policy()) {
        let graph = policy.graph();
        for a in 0..policy.n_locations() {
            let fresh = panda_graph::bfs::bfs_distances(graph, a);
            for b in 0..policy.n_locations() {
                let cached = policy.distance(CellId(a), CellId(b));
                match cached {
                    Some(d) => prop_assert_eq!(d, fresh[b as usize]),
                    None => prop_assert_eq!(fresh[b as usize], panda_graph::bfs::INFINITE),
                }
            }
        }
    }

    /// The PolicyIndex's cached sampling state (GEM's distance rings,
    /// EucExp's tables) yields the mechanism's exact
    /// closed-form output distribution, cell for cell and probability for
    /// probability — across random policies, ε values and inputs.
    #[test]
    fn policy_index_cached_distributions_match_fresh(
        policy in arb_policy(),
        eps in 0.05f64..4.0,
        pick in any::<u32>(),
        seed in any::<u64>(),
    ) {
        let s = CellId(pick % policy.n_locations());
        let index = PolicyIndex::new(policy.clone());
        let mut rng = SmallRng::seed_from_u64(seed);
        let closed_form: Vec<(&str, &dyn Mechanism)> = vec![
            ("gem", &GraphExponential),
            ("euc-exp", &EuclideanExponential),
        ];
        for (_, mech) in &closed_form {
            // Warm the cache through the batch path, then compare the table
            // against a fresh closed-form distribution.
            let batch = mech.perturb_batch(&index, eps, &[s, s, s], &mut rng).unwrap();
            for z in &batch {
                prop_assert!(policy.same_component(s, *z));
            }
            if policy.is_isolated_cell(s) {
                // Exact release: no table is cached, by design.
                prop_assert_eq!(batch, vec![s, s, s]);
                continue;
            }
            let fresh = mech.output_distribution(&policy, eps, s).unwrap();
            // The handle resolves from the warm cache (rings or table).
            let mut cached = mech
                .sampler(&index, eps, s)
                .unwrap()
                .probabilities()
                .expect("closed-form handles are discrete");
            cached.sort_by_key(|&(c, _)| c);
            prop_assert_eq!(cached.len(), fresh.len());
            for ((cell, p_cached), (fresh_cell, p_fresh)) in cached.into_iter().zip(fresh) {
                prop_assert_eq!(cell, fresh_cell);
                prop_assert!(
                    (p_cached - p_fresh).abs() < 1e-9,
                    "cell {}: cached {} vs fresh {}", cell, p_cached, p_fresh
                );
            }
        }
    }

    /// perturb_batch and a perturb loop draw from the same distribution:
    /// empirical frequencies over many draws agree within Monte-Carlo noise.
    #[test]
    fn perturb_batch_matches_per_call_distribution(
        w in 2u32..5, h in 2u32..5, eps in 0.3f64..2.0, seed in any::<u64>()
    ) {
        let grid = GridMap::new(w, h, 100.0);
        let policy = LocationPolicyGraph::partition(grid, 2, 2);
        let index = PolicyIndex::new(policy.clone());
        let s = CellId(0);
        const N: usize = 4000;
        let mut rng = SmallRng::seed_from_u64(seed);
        let batch = GraphExponential
            .perturb_batch(&index, eps, &vec![s; N], &mut rng)
            .unwrap();
        let mut naive = Vec::with_capacity(N);
        for _ in 0..N {
            naive.push(GraphExponential.perturb(&policy, eps, s, &mut rng).unwrap());
        }
        let freq = |samples: &[CellId], c: CellId| {
            samples.iter().filter(|&&z| z == c).count() as f64 / N as f64
        };
        for &c in policy.component_slice(s) {
            let (fb, fn_) = (freq(&batch, c), freq(&naive, c));
            prop_assert!(
                (fb - fn_).abs() < 0.06,
                "cell {}: batch {} vs naive {}", c, fb, fn_
            );
        }
    }

    /// Lemma 2.1 for GEM, derived from the audit distances: for random
    /// same-component pairs, log ratio ≤ ε·d_G.
    #[test]
    fn gem_lemma21_random_pairs(policy in arb_policy(), eps in 0.1f64..3.0, picks in any::<u64>()) {
        let n = policy.n_locations();
        let a = CellId((picks % n as u64) as u32);
        let b = CellId(((picks >> 16) % n as u64) as u32);
        if let Some(d) = policy.distance(a, b) {
            let da = GraphExponential.log_output_distribution(&policy, eps, a).unwrap();
            let db = GraphExponential.log_output_distribution(&policy, eps, b).unwrap();
            for (&(ca, la), &(cb, lb)) in da.iter().zip(db.iter()) {
                prop_assert_eq!(ca, cb);
                prop_assert!((la - lb).abs() <= eps * d as f64 + 1e-9);
            }
        }
    }
}
