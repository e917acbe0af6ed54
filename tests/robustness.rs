//! Failure injection and adversarial robustness tests.
//!
//! The privacy auditor must *catch* broken mechanisms, the protocol must
//! tolerate malformed traffic, and accounting must fail closed.

use panda::core::privacy::{audit_pglp_with, AuditOptions};
use panda::core::{
    CellSampler, GraphExponential, LocationPolicyGraph, Mechanism, PglpError, PolicyIndex,
    SamplingTable,
};
use panda::geo::{CellId, GridMap};
use panda::mobility::UserId;
use panda::surveillance::{Client, ClientConfig, ConsentRule, LocationReport, Server};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Arc;

/// A deliberately broken "mechanism": releases the truth with probability
/// 0.9, otherwise a uniform component cell. Violates Def. 2.4 at small ε.
struct LeakyMechanism;

impl Mechanism for LeakyMechanism {
    fn name(&self) -> &'static str {
        "leaky"
    }

    fn perturb(
        &self,
        policy: &LocationPolicyGraph,
        _eps: f64,
        true_loc: CellId,
        rng: &mut dyn RngCore,
    ) -> Result<CellId, PglpError> {
        let cells = policy.component_cells(true_loc);
        if rng.gen_bool(0.9) {
            Ok(true_loc)
        } else {
            Ok(cells[(rng.next_u64() % cells.len() as u64) as usize])
        }
    }

    /// The same distribution as `perturb` as a table (a different RNG
    /// stream; the audit samples `perturb`).
    fn sampler<'a>(
        &'a self,
        index: &'a PolicyIndex,
        _eps: f64,
        true_loc: CellId,
    ) -> Result<CellSampler<'a>, PglpError> {
        index.policy().check_cell(true_loc)?;
        let cells = index.component_slice(true_loc);
        let spread = 0.1 / cells.len() as f64;
        let dist = cells
            .iter()
            .map(|&c| (c, spread + if c == true_loc { 0.9 } else { 0.0 }))
            .collect();
        Ok(CellSampler::table(Arc::new(SamplingTable::from_weights(
            dist,
        ))))
    }
}

#[test]
fn auditor_catches_leaky_mechanism() {
    let policy = LocationPolicyGraph::partition(GridMap::new(4, 2, 100.0), 2, 2);
    let opts = AuditOptions {
        mc_samples: 40_000,
        mc_slack: 1.3,
        mc_min_count: 200,
        seed: 1,
    };
    // At eps = 0.5, releasing the truth 90% of the time gives edge ratios
    // around 0.9/0.033 ≈ 27 ≫ e^0.5 ≈ 1.65: the audit must fail.
    let report = audit_pglp_with(&LeakyMechanism, &policy, 0.5, &opts).unwrap();
    assert!(
        !report.satisfied,
        "auditor must reject the leaky mechanism: {report:?}"
    );
    assert!(report.max_log_ratio > 1.0);
}

#[test]
fn auditor_accepts_honest_mechanism_same_settings() {
    // Control for the test above: same audit options, honest mechanism.
    let policy = LocationPolicyGraph::partition(GridMap::new(4, 2, 100.0), 2, 2);
    let report = panda::core::audit_pglp(&GraphExponential, &policy, 0.5).unwrap();
    assert!(report.satisfied);
}

#[test]
fn server_tolerates_duplicate_and_out_of_order_reports() {
    let grid = GridMap::new(4, 4, 100.0);
    let server = Server::new(grid);
    let mk = |epoch, cell: u32, resend| LocationReport {
        user: UserId(1),
        epoch,
        cell: CellId(cell),
        resend,
    };
    // Out of order, duplicated, then superseded.
    server.receive(mk(5, 3, false));
    server.receive(mk(2, 7, false));
    server.receive(mk(5, 3, false)); // exact duplicate
    server.receive(mk(5, 9, true)); // re-send supersedes
    assert_eq!(server.reported_cell(UserId(1), 5), Some(CellId(9)));
    assert_eq!(server.reported_cell(UserId(1), 2), Some(CellId(7)));
    assert_eq!(server.n_received(), 4);
    // The dense view holds the superseded value at epoch 5.
    let db = server.reported_db(6);
    assert_eq!(db.cell_of(UserId(1), 5), Some(CellId(9)));
}

#[test]
fn client_rejects_foreign_cells_at_report_time() {
    // The client's policy lives on a 4x4 grid; an observation outside the
    // domain must surface as LocationOutOfDomain, not corrupt state.
    let grid = GridMap::new(4, 4, 100.0);
    let mut client = Client::new(
        UserId(0),
        ClientConfig {
            retention: 10,
            budget: 10.0,
            consent: ConsentRule::AlwaysAccept,
        },
        LocationPolicyGraph::partition(grid, 2, 2),
        Box::new(GraphExponential),
        1.0,
    );
    client.observe(0, CellId(99)); // foreign cell id
    let mut rng = StdRng::seed_from_u64(1);
    let err = client.report(0, &mut rng).unwrap_err();
    assert!(matches!(err, PglpError::LocationOutOfDomain(CellId(99))));
    // Budget untouched by the failed release.
    assert!((client.budget_remaining() - 10.0).abs() < 1e-12);
}

#[test]
#[should_panic(expected = "epoch order")]
fn client_rejects_time_travel_observations() {
    let grid = GridMap::new(4, 4, 100.0);
    let mut client = Client::new(
        UserId(0),
        ClientConfig::default(),
        LocationPolicyGraph::isolated(grid),
        Box::new(GraphExponential),
        1.0,
    );
    client.observe(5, CellId(0));
    client.observe(3, CellId(1)); // must panic
}

#[test]
fn mechanisms_fail_closed_on_invalid_epsilon() {
    let policy = LocationPolicyGraph::partition(GridMap::new(4, 4, 100.0), 2, 2);
    let mut rng = StdRng::seed_from_u64(2);
    for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let result = GraphExponential.perturb(&policy, bad, CellId(0), &mut rng);
        assert!(
            matches!(result, Err(PglpError::InvalidEpsilon(_))),
            "eps {bad} must be rejected"
        );
    }
}

#[test]
fn posterior_survives_model_mismatch() {
    // Attacker models GEM but observes graph-Laplace releases: posteriors
    // must remain valid distributions (smoothing prevents zero evidence).
    use panda::attack::{posterior, LikelihoodModel, Prior};
    use panda::core::GraphCalibratedLaplace;
    let grid = GridMap::new(4, 4, 100.0);
    let policy = LocationPolicyGraph::partition(grid.clone(), 2, 2);
    let like = LikelihoodModel::build(&GraphExponential, &policy, 1.0, 0).unwrap();
    let prior = Prior::uniform(&grid);
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..50 {
        let truth = CellId(rng.gen_range(0..16));
        let z = GraphCalibratedLaplace
            .perturb(&policy, 1.0, truth, &mut rng)
            .unwrap();
        let post = posterior(&prior, &like, z).expect("posterior must exist");
        let total: f64 = post.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(post.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }
}

#[test]
fn consent_refusal_is_not_silent_downgrade() {
    // A refused assignment must leave the previous (stronger) policy in
    // force rather than silently switching.
    use panda::surveillance::PolicyAssignment;
    let grid = GridMap::new(4, 4, 100.0);
    let strong = LocationPolicyGraph::complete(grid.clone());
    let mut client = Client::new(
        UserId(0),
        ClientConfig {
            retention: 10,
            budget: 10.0,
            consent: ConsentRule::MinDensity(0.5),
        },
        strong,
        Box::new(GraphExponential),
        1.0,
    );
    client.observe(0, CellId(5));
    let weak = PolicyAssignment {
        user: UserId(0),
        policy: LocationPolicyGraph::isolated(grid),
        eps_per_epoch: 1.0,
        effective_from: 0,
    };
    assert!(!client.apply_assignment(weak));
    let mut rng = StdRng::seed_from_u64(4);
    let report = client.report(0, &mut rng).unwrap();
    // Under the retained complete policy the release is perturbed, not the
    // exact cell the refused isolated policy would have produced...
    // (statistically: over several trials at eps=1 on 16 cells, at least
    // one release differs from the truth).
    let mut any_different = report.cell != CellId(5);
    for t in 1..6 {
        client.observe(t, CellId(5));
        if client.report(t, &mut rng).unwrap().cell != CellId(5) {
            any_different = true;
        }
    }
    assert!(any_different, "strong policy must still be perturbing");
}
