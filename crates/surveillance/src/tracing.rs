//! Contact tracing (§3.1–3.2, third application) with dynamic policies.
//!
//! The paper's decision rule: "we assume a simple rule of two persons have
//! been \[in\] the same location at the same time at least twice". The §3.2
//! procedure:
//!
//! 1. a diagnosed patient's true history is confirmed (their policy allows
//!    full disclosure);
//! 2. the Policy Graph Configuration module updates the policies of other
//!    users — the patient's cells become isolated nodes (`Gc`);
//! 3. affected users **re-send** their past window under the updated
//!    policy, so visits to infected cells arrive exactly while everything
//!    else stays perturbed;
//! 4. the rule runs on the re-sent data and flags at-risk users.
//!
//! [`dynamic_trace`] drives the full loop over real [`Client`]s and a
//! [`Server`]; [`ContactTracer::find_contacts`] is the bare rule, usable on
//! any trajectory database (true or perturbed) for the precision/recall
//! comparisons of the experiments.

use crate::client::Client;
use crate::policy_config::PolicyConfigurator;
use crate::protocol::ResendRequest;
use crate::server::Server;
use panda_geo::CellId;
use panda_mobility::{Timestamp, TrajectoryDb, UserId};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// The co-location decision rule.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ContactRule {
    /// Minimum number of (same cell, same epoch) coincidences — the paper
    /// uses 2.
    pub min_co_occurrences: u32,
}

impl Default for ContactRule {
    fn default() -> Self {
        ContactRule {
            min_co_occurrences: 2,
        }
    }
}

/// The bare contact-tracing rule.
#[derive(Debug, Clone, Copy, Default)]
pub struct ContactTracer {
    /// Decision rule in force.
    pub rule: ContactRule,
}

impl ContactTracer {
    /// Users co-located with the patient history `(epoch, cell)` at least
    /// `min_co_occurrences` times within the window, according to `db`.
    /// The patient themself is excluded, a history entry listed twice
    /// counts twice, and only users with at least one co-location are ever
    /// flagged. Sorted by user id.
    ///
    /// One pass over the database in trajectory order: each trajectory
    /// counts its matches against the windowed history.
    pub fn find_contacts(
        &self,
        db: &TrajectoryDb,
        patient: UserId,
        patient_history: &[(Timestamp, CellId)],
        from: Timestamp,
        to: Timestamp,
    ) -> Vec<UserId> {
        let window: Vec<(usize, CellId)> = patient_history
            .iter()
            .filter(|&&(t, _)| t >= from && t < to)
            .map(|&(t, c)| (t as usize, c))
            .collect();
        let min = self.rule.min_co_occurrences.max(1) as usize;
        let mut flagged: Vec<UserId> = db
            .trajectories()
            .iter()
            .filter(|tr| {
                tr.user != patient
                    && window
                        .iter()
                        .filter(|&&(t, c)| tr.cells.get(t) == Some(&c))
                        .count()
                        >= min
            })
            .map(|tr| tr.user)
            .collect();
        flagged.sort_unstable();
        flagged
    }
}

/// Result of a tracing round, with ground-truth comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceOutcome {
    /// Users flagged at risk by the rule on server-side data.
    pub flagged: Vec<UserId>,
    /// Users actually at risk (rule evaluated on true trajectories).
    pub ground_truth: Vec<UserId>,
    /// |flagged ∩ truth| / |flagged| (1 when nothing flagged).
    pub precision: f64,
    /// |flagged ∩ truth| / |truth| (1 when truth is empty).
    pub recall: f64,
    /// Number of re-sent reports the round triggered.
    pub resend_count: usize,
}

impl TraceOutcome {
    /// Computes precision/recall for a flag set against ground truth.
    pub fn evaluate(flagged: Vec<UserId>, ground_truth: Vec<UserId>, resend_count: usize) -> Self {
        let tp = flagged.iter().filter(|u| ground_truth.contains(u)).count() as f64;
        let precision = if flagged.is_empty() {
            1.0
        } else {
            tp / flagged.len() as f64
        };
        let recall = if ground_truth.is_empty() {
            1.0
        } else {
            tp / ground_truth.len() as f64
        };
        TraceOutcome {
            flagged,
            ground_truth,
            precision,
            recall,
            resend_count,
        }
    }
}

/// Runs the full §3.2 dynamic-tracing round.
///
/// * `clients` — all user clients (including the patient's).
/// * `truth` — the ground-truth trajectory database (used only to compute
///   the reference contact set; the protocol itself never touches it).
/// * `patient` — the diagnosed user.
/// * `window` — the look-back window `[from, to)` (the paper's two weeks).
/// * `eps_resend` — ε per re-sent epoch.
///
/// Returns the outcome with precision/recall against the rule evaluated on
/// `truth`.
#[allow(clippy::too_many_arguments)]
pub fn dynamic_trace(
    clients: &mut [Client],
    server: &Server,
    configurator: &PolicyConfigurator,
    truth: &TrajectoryDb,
    patient: UserId,
    window: (Timestamp, Timestamp),
    eps_resend: f64,
    rule: ContactRule,
    rng: &mut dyn RngCore,
) -> TraceOutcome {
    let (from, to) = window;
    // Step 1: the patient disclosea their true history. Their updated
    // policy is all-isolated (full disclosure), per the §1 example policy
    // for diagnosed patients.
    let patient_client = clients
        .iter_mut()
        .find(|c| c.user() == patient)
        .expect("patient client missing");
    let disclose_policy = panda_core::LocationPolicyGraph::isolated(configurator.grid().clone());
    let patient_reports = patient_client
        .handle_resend(
            &ResendRequest {
                user: patient,
                from,
                to,
                policy: disclose_policy,
                eps_per_epoch: eps_resend,
            },
            rng,
        )
        .expect("patient disclosure cannot fail");
    let patient_history: Vec<(Timestamp, CellId)> =
        patient_reports.iter().map(|r| (r.epoch, r.cell)).collect();
    server.receive_all(patient_reports.iter().copied());
    server.record_diagnosis(patient, to);
    server.record_infected_visits(&patient_history);

    // Step 2: policy update for everyone else.
    let gc = configurator.update_on_diagnosis(&patient_history);

    // Step 3: re-send round.
    let mut resend_count = 0usize;
    for client in clients.iter_mut().filter(|c| c.user() != patient) {
        let reports = client
            .handle_resend(
                &ResendRequest {
                    user: client.user(),
                    from,
                    to,
                    policy: gc.clone(),
                    eps_per_epoch: eps_resend,
                },
                rng,
            )
            .expect("resend failed");
        resend_count += reports.len();
        server.receive_all(reports);
    }

    // Step 4: run the rule on the server's (re-sent) view.
    let tracer = ContactTracer { rule };
    let reported = server.reported_db(to);
    let flagged = tracer.find_contacts(&reported, patient, &patient_history, from, to);

    // Reference: the rule on ground truth.
    let true_history: Vec<(Timestamp, CellId)> = (from..to)
        .filter_map(|t| truth.cell_of(patient, t).map(|c| (t, c)))
        .collect();
    let ground_truth = tracer.find_contacts(truth, patient, &true_history, from, to);

    TraceOutcome::evaluate(flagged, ground_truth, resend_count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientConfig, ConsentRule};
    use panda_core::{GraphExponential, LocationPolicyGraph};
    use panda_geo::GridMap;
    use panda_mobility::Trajectory;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn grid() -> GridMap {
        GridMap::new(8, 8, 100.0)
    }

    /// The reference [`ContactTracer::find_contacts`]: epoch-major
    /// `users_at` scans counted in a `HashMap`.
    fn find_contacts_by_epoch(
        rule: ContactRule,
        db: &TrajectoryDb,
        patient: UserId,
        patient_history: &[(Timestamp, CellId)],
        from: Timestamp,
        to: Timestamp,
    ) -> Vec<UserId> {
        let mut counts: HashMap<UserId, u32> = HashMap::new();
        for &(t, cell) in patient_history
            .iter()
            .filter(|&&(t, _)| t >= from && t < to)
        {
            for user in db.users_at(cell, t) {
                if user != patient {
                    *counts.entry(user).or_insert(0) += 1;
                }
            }
        }
        let mut flagged: Vec<UserId> = counts
            .into_iter()
            .filter(|&(_, n)| n >= rule.min_co_occurrences)
            .map(|(u, _)| u)
            .collect();
        flagged.sort_unstable();
        flagged
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The single-pass rule equals the epoch-major reference: empty
        /// databases, horizon 0, duplicate and out-of-horizon history
        /// entries, a patient missing from the database, thresholds 0 to 3
        /// and windows that exclude everything.
        #[test]
        fn single_pass_contacts_match_epoch_major(
            n_users in 0usize..14,
            horizon in 0usize..8,
            seed in any::<u64>(),
            history in prop::collection::vec((0u32..10, 0u32..9), 0..14),
            duplicated in 0usize..4,
            patient in 0u32..101,
            min_co_occurrences in 0u32..4,
            from in 0u32..10,
            to in 0u32..10,
        ) {
            let db = crate::test_support::random_db(GridMap::new(3, 3, 100.0), n_users, horizon, seed);
            let mut history: Vec<(Timestamp, CellId)> =
                history.into_iter().map(|(t, c)| (t, CellId(c))).collect();
            let repeats: Vec<(Timestamp, CellId)> = history.iter().copied().take(duplicated).collect();
            history.extend(repeats);
            let rule = ContactRule { min_co_occurrences };
            let tracer = ContactTracer { rule };
            prop_assert_eq!(
                tracer.find_contacts(&db, UserId(patient), &history, from, to),
                find_contacts_by_epoch(rule, &db, UserId(patient), &history, from, to)
            );
        }
    }

    /// The rule's edge cases, pinned: threshold 0 flags only co-located
    /// users, a doubled history entry counts twice, and an empty window
    /// flags nobody.
    #[test]
    fn rule_edge_cases() {
        let db = truth_db();
        let g = db.grid().clone();
        let with = |min_co_occurrences| ContactTracer {
            rule: ContactRule { min_co_occurrences },
        };
        let once = [(2, g.cell(3, 3))];
        assert_eq!(
            with(0).find_contacts(&db, UserId(0), &once, 0, 4),
            vec![UserId(2)]
        );
        assert_eq!(with(0).find_contacts(&db, UserId(0), &[], 0, 4), vec![]);
        let doubled = [(2, g.cell(3, 3)), (2, g.cell(3, 3))];
        assert_eq!(
            with(2).find_contacts(&db, UserId(0), &doubled, 0, 4),
            vec![UserId(2)]
        );
        assert_eq!(
            with(1).find_contacts(&db, UserId(0), &doubled, 4, 4),
            vec![]
        );
        assert_eq!(
            with(1).find_contacts(&db, UserId(9), &doubled, 0, 4),
            vec![UserId(2)]
        );
    }

    /// Patient 0 meets user 1 twice (epochs 1, 2) and user 2 once (epoch 3).
    fn truth_db() -> TrajectoryDb {
        let g = grid();
        TrajectoryDb::new(
            g.clone(),
            vec![
                Trajectory {
                    user: UserId(0),
                    cells: vec![g.cell(0, 0), g.cell(2, 2), g.cell(2, 2), g.cell(5, 5)],
                },
                Trajectory {
                    user: UserId(1),
                    cells: vec![g.cell(7, 7), g.cell(2, 2), g.cell(2, 2), g.cell(0, 7)],
                },
                Trajectory {
                    user: UserId(2),
                    cells: vec![g.cell(7, 0), g.cell(1, 1), g.cell(3, 3), g.cell(5, 5)],
                },
                Trajectory {
                    user: UserId(3),
                    cells: vec![g.cell(6, 6), g.cell(6, 6), g.cell(6, 6), g.cell(6, 6)],
                },
            ],
        )
    }

    #[test]
    fn rule_on_ground_truth() {
        let db = truth_db();
        let tracer = ContactTracer::default();
        let history: Vec<(Timestamp, CellId)> = (0..4)
            .map(|t| (t, db.cell_of(UserId(0), t).unwrap()))
            .collect();
        let contacts = tracer.find_contacts(&db, UserId(0), &history, 0, 4);
        assert_eq!(contacts, vec![UserId(1)], "only user 1 meets twice");
        // Threshold 1 also catches user 2.
        let lax = ContactTracer {
            rule: ContactRule {
                min_co_occurrences: 1,
            },
        };
        assert_eq!(
            lax.find_contacts(&db, UserId(0), &history, 0, 4),
            vec![UserId(1), UserId(2)]
        );
    }

    #[test]
    fn outcome_evaluation_math() {
        let o = TraceOutcome::evaluate(vec![UserId(1), UserId(2)], vec![UserId(1), UserId(3)], 10);
        assert!((o.precision - 0.5).abs() < 1e-12);
        assert!((o.recall - 0.5).abs() < 1e-12);
        let empty = TraceOutcome::evaluate(vec![], vec![], 0);
        assert_eq!(empty.precision, 1.0);
        assert_eq!(empty.recall, 1.0);
    }

    fn make_clients(truth: &TrajectoryDb) -> Vec<Client> {
        let g = truth.grid().clone();
        truth
            .trajectories()
            .iter()
            .map(|tr| {
                let mut c = Client::new(
                    tr.user,
                    ClientConfig {
                        retention: 100,
                        budget: 100.0,
                        consent: ConsentRule::AlwaysAccept,
                    },
                    LocationPolicyGraph::partition(g.clone(), 2, 2),
                    Box::new(GraphExponential),
                    1.0,
                );
                for (t, &cell) in tr.cells.iter().enumerate() {
                    c.observe(t as Timestamp, cell);
                }
                c
            })
            .collect()
    }

    #[test]
    fn dynamic_trace_recovers_true_contacts() {
        let truth = truth_db();
        let mut clients = make_clients(&truth);
        let server = Server::new(grid());
        let configurator = PolicyConfigurator::new(grid(), 4, 2);
        let mut rng = SmallRng::seed_from_u64(1);
        let outcome = dynamic_trace(
            &mut clients,
            &server,
            &configurator,
            &truth,
            UserId(0),
            (0, 4),
            5.0,
            ContactRule::default(),
            &mut rng,
        );
        // The patient's cells are isolated under Gc, so user 1's visits to
        // them are disclosed exactly: recall must be perfect.
        assert_eq!(outcome.ground_truth, vec![UserId(1)]);
        assert!(
            outcome.flagged.contains(&UserId(1)),
            "dynamic update must recover the true contact; flagged {:?}",
            outcome.flagged
        );
        assert_eq!(outcome.recall, 1.0);
        assert!(outcome.resend_count > 0);
        // Server state updated.
        assert_eq!(server.diagnoses().len(), 1);
        assert!(!server.infected_cells().is_empty());
    }

    #[test]
    fn static_policy_misses_contacts_dynamic_finds() {
        // Without the re-send round, tracing runs on the originally
        // perturbed data and generally misses co-locations.
        let truth = truth_db();
        let g = grid();
        let server = Server::new(g.clone());
        let mut clients = make_clients(&truth);
        let mut rng = SmallRng::seed_from_u64(2);
        // Everyone reports under the static partition policy.
        for client in clients.iter_mut() {
            for t in 0..4 {
                server.receive(client.report(t, &mut rng).unwrap());
            }
        }
        let reported = server.reported_db(4);
        let tracer = ContactTracer::default();
        let history: Vec<(Timestamp, CellId)> = (0..4)
            .map(|t| (t, truth.cell_of(UserId(0), t).unwrap()))
            .collect();
        let static_flags = tracer.find_contacts(&reported, UserId(0), &history, 0, 4);
        // The static round is unreliable: under perturbation the flagged set
        // rarely equals the truth. We only assert the *dynamic* round fixes
        // it (see dynamic_trace_recovers_true_contacts); here we document
        // that the static rule runs without panicking.
        let _ = static_flags;
    }

    #[test]
    fn consent_refusal_suppresses_resend() {
        let truth = truth_db();
        let g = grid();
        let server = Server::new(g.clone());
        let configurator = PolicyConfigurator::new(g.clone(), 4, 2);
        // User 1 refuses any policy that isolates anything.
        let mut clients = make_clients(&truth);
        let refusing = Client::new(
            UserId(1),
            ClientConfig {
                retention: 100,
                budget: 100.0,
                consent: ConsentRule::MaxDisclosedFraction(0.0),
            },
            LocationPolicyGraph::partition(g.clone(), 2, 2),
            Box::new(GraphExponential),
            1.0,
        );
        let mut refusing = refusing;
        for (t, &cell) in truth
            .trajectory(UserId(1))
            .unwrap()
            .cells
            .iter()
            .enumerate()
        {
            refusing.observe(t as Timestamp, cell);
        }
        clients[1] = refusing;
        let mut rng = SmallRng::seed_from_u64(3);
        let outcome = dynamic_trace(
            &mut clients,
            &server,
            &configurator,
            &truth,
            UserId(0),
            (0, 4),
            5.0,
            ContactRule::default(),
            &mut rng,
        );
        // User 1 refused: the server cannot flag them from re-sent data.
        assert!(!outcome.flagged.contains(&UserId(1)));
        assert!(outcome.recall < 1.0);
    }
}
