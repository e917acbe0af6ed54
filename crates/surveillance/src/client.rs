//! The user-side client: local location database, consent, perturbation.
//!
//! Per Fig. 1, users "locally maintain location databases (e.g., all
//! locations in the past two weeks) and share perturbed locations
//! satisfying PGLP". The client owns the only copy of the true trajectory;
//! everything that leaves it has passed through a PGLP mechanism under a
//! consented policy, and every release is charged to a budget ledger.

use crate::protocol::{LocationReport, PolicyAssignment, ResendRequest};
use panda_core::budget::BudgetLedger;
use panda_core::{LocationPolicyGraph, Mechanism, PglpError, PolicyIndex};
use panda_geo::CellId;
use panda_mobility::{Timestamp, UserId};
use rand::RngCore;
use std::collections::VecDeque;

/// How the user decides whether to accept a recommended policy (§2.1 gives
/// the user the right to reject).
#[derive(Debug, Clone, Copy)]
pub enum ConsentRule {
    /// Accept everything (the demo default).
    AlwaysAccept,
    /// Reject policies whose graph density falls below a floor — a user who
    /// insists on a minimum amount of indistinguishability. Isolated-cell
    /// disclosure of infected locations is still permitted because density
    /// is measured over the whole graph.
    MinDensity(f64),
    /// Reject policies that would isolate (= disclose exactly) more than
    /// this fraction of the user's recent locations.
    MaxDisclosedFraction(f64),
}

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Epochs of history kept locally (the paper's "past two weeks").
    pub retention: Timestamp,
    /// Lifetime privacy budget.
    pub budget: f64,
    /// Consent rule for incoming policy assignments.
    pub consent: ConsentRule,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            retention: 336, // 14 days × 24 hourly epochs
            budget: 50.0,
            consent: ConsentRule::AlwaysAccept,
        }
    }
}

/// A PANDA client.
pub struct Client {
    user: UserId,
    config: ClientConfig,
    /// `(epoch, true cell)` ring buffer, newest at the back.
    history: VecDeque<(Timestamp, CellId)>,
    /// The consented policy plus its precomputed sampling index; every
    /// release — routine or re-send — runs through the indexed batch path.
    index: PolicyIndex,
    mechanism: Box<dyn Mechanism + Send + Sync>,
    ledger: BudgetLedger,
    eps_per_epoch: f64,
}

impl Client {
    /// Creates a client with an initial (consented) policy and mechanism.
    pub fn new(
        user: UserId,
        config: ClientConfig,
        policy: LocationPolicyGraph,
        mechanism: Box<dyn Mechanism + Send + Sync>,
        eps_per_epoch: f64,
    ) -> Self {
        let ledger = BudgetLedger::new(config.budget);
        Client {
            user,
            config,
            history: VecDeque::new(),
            index: PolicyIndex::new(policy),
            mechanism,
            ledger,
            eps_per_epoch,
        }
    }

    /// The client's user id.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// Remaining privacy budget.
    pub fn budget_remaining(&self) -> f64 {
        self.ledger.remaining()
    }

    /// The policy currently in force.
    pub fn policy(&self) -> &LocationPolicyGraph {
        self.index.policy()
    }

    /// The sampling index of the policy currently in force.
    pub fn policy_index(&self) -> &PolicyIndex {
        &self.index
    }

    /// Number of epochs currently retained.
    pub fn history_len(&self) -> usize {
        self.history.len()
    }

    /// Records the true location for `epoch` in the local database,
    /// evicting entries older than the retention window.
    ///
    /// # Panics
    ///
    /// When `epoch` is not later than the last observed epoch. The history
    /// stays epoch-sorted with one true cell per epoch: retention evicts
    /// from the front, and re-sends look epochs up by value.
    pub fn observe(&mut self, epoch: Timestamp, cell: CellId) {
        assert!(
            self.history.back().is_none_or(|&(t, _)| t < epoch),
            "observations must arrive in epoch order"
        );
        self.history.push_back((epoch, cell));
        let cutoff = epoch.saturating_sub(self.config.retention.saturating_sub(1));
        while let Some(&(t, _)) = self.history.front() {
            if t < cutoff {
                self.history.pop_front();
            } else {
                break;
            }
        }
    }

    /// The locally-stored true cell for `epoch`, if still retained.
    pub fn true_location(&self, epoch: Timestamp) -> Option<CellId> {
        self.history
            .iter()
            .find(|&&(t, _)| t == epoch)
            .map(|&(_, c)| c)
    }

    /// Decides whether to accept a policy assignment per the consent rule.
    pub fn consents_to(&self, assignment: &PolicyAssignment) -> bool {
        match self.config.consent {
            ConsentRule::AlwaysAccept => true,
            ConsentRule::MinDensity(floor) => assignment.policy.density() >= floor,
            ConsentRule::MaxDisclosedFraction(max_frac) => {
                if self.history.is_empty() {
                    return true;
                }
                let disclosed = self
                    .history
                    .iter()
                    .filter(|&&(_, c)| assignment.policy.is_isolated_cell(c))
                    .count();
                (disclosed as f64 / self.history.len() as f64) <= max_frac
            }
        }
    }

    /// Applies a policy assignment. Returns `false` (and keeps the old
    /// policy) when consent is refused — in that case the client stops
    /// reporting rather than reporting under a policy it rejected.
    pub fn apply_assignment(&mut self, assignment: PolicyAssignment) -> bool {
        if !self.consents_to(&assignment) {
            return false;
        }
        self.index = PolicyIndex::new(assignment.policy);
        self.eps_per_epoch = assignment.eps_per_epoch;
        true
    }

    /// Produces the perturbed report for `epoch` (which must be in the local
    /// database), charging the budget.
    ///
    /// # Errors
    ///
    /// Budget exhaustion or invalid ε surface as [`PglpError`]; a missing
    /// epoch yields [`PglpError::LocationOutOfDomain`] with the sentinel
    /// cell `u32::MAX` (the epoch is not in retention).
    pub fn report(
        &mut self,
        epoch: Timestamp,
        rng: &mut dyn RngCore,
    ) -> Result<LocationReport, PglpError> {
        let Some(cell) = self.true_location(epoch) else {
            return Err(PglpError::LocationOutOfDomain(CellId(u32::MAX)));
        };
        let policy = self.index.policy();
        policy.check_cell(cell)?;
        // Isolated cells release exactly and are free (parallel to
        // Lemma 2.1's unconstrained case); everything else costs ε.
        if !policy.is_isolated_cell(cell) {
            if !self.ledger.can_afford(self.eps_per_epoch) {
                return Err(PglpError::BudgetExhausted {
                    requested: self.eps_per_epoch,
                    remaining: self.ledger.remaining(),
                });
            }
            self.ledger
                .charge(epoch as u64, policy.name(), self.eps_per_epoch)?;
        }
        // The indexed path serves repeat visits to the same cell from a
        // cached sampling table instead of rebuilding the distribution.
        let perturbed = self
            .mechanism
            .perturb_batch(
                &self.index,
                self.eps_per_epoch,
                std::slice::from_ref(&cell),
                rng,
            )?
            .pop()
            .expect("batch of one yields one release");
        Ok(LocationReport {
            user: self.user,
            epoch,
            cell: perturbed,
            resend: false,
        })
    }

    /// Plans the routine reporting of every retained epoch in
    /// `[0, horizon)`: charges the budget exactly as per-epoch
    /// [`Client::report`] calls would (isolated cells release exactly and
    /// are free) and returns the affordable `(epoch, true cell)` prefix
    /// plus whether the budget ran dry before the horizon.
    ///
    /// The caller perturbs the returned cells — typically in one
    /// [`panda_core::release::ParallelReleaser`] batch shared across all
    /// clients, each report drawn from the stream of its batch position —
    /// which is distributionally identical to the per-epoch `report` loop.
    pub fn plan_routine(&mut self, horizon: Timestamp) -> (Vec<(Timestamp, CellId)>, bool) {
        let mut plan = Vec::new();
        let policy = self.index.policy();
        for &(t, cell) in self.history.iter().filter(|&&(t, _)| t < horizon) {
            if policy.check_cell(cell).is_err() {
                break;
            }
            if !policy.is_isolated_cell(cell) {
                if !self.ledger.can_afford(self.eps_per_epoch) {
                    return (plan, true);
                }
                if self
                    .ledger
                    .charge(t as u64, policy.name(), self.eps_per_epoch)
                    .is_err()
                {
                    return (plan, true);
                }
            }
            plan.push((t, cell));
        }
        (plan, false)
    }

    /// Plans a re-send: applies the updated policy (subject to consent)
    /// and charges the ledger epoch by epoch, returning the affordable
    /// `(epoch, true cell)` prefix of the window — or `None` when consent
    /// is refused (the old policy is kept and nothing is charged).
    ///
    /// This is the **accounting half** of [`Client::handle_resend`], and
    /// it is transport-agnostic on purpose: the same call backs the
    /// in-process path and the wire path (a `ResendRequest` frame fetched
    /// from a gateway mailbox), so budget state after a re-send cannot
    /// depend on how the request arrived.
    ///
    /// # Errors
    ///
    /// A retained cell outside the updated policy's domain surfaces as
    /// [`PglpError`]; budget exhaustion is not an error (it truncates the
    /// plan).
    pub fn plan_resend(
        &mut self,
        request: &ResendRequest,
    ) -> Result<Option<Vec<(Timestamp, CellId)>>, PglpError> {
        let assignment = PolicyAssignment {
            user: self.user,
            policy: request.policy.clone(),
            eps_per_epoch: request.eps_per_epoch,
            effective_from: request.from,
        };
        if !self.apply_assignment(assignment) {
            return Ok(None); // consent refused: nothing re-sent
        }
        // Charge the ledger epoch by epoch, keeping the prefix the budget
        // covers (isolated cells disclose exactly and are free).
        let epochs: Vec<(Timestamp, CellId)> = self
            .history
            .iter()
            .copied()
            .filter(|&(t, _)| t >= request.from && t < request.to)
            .collect();
        let policy = self.index.policy();
        let mut affordable = Vec::with_capacity(epochs.len());
        for (t, cell) in epochs {
            policy.check_cell(cell)?;
            if !policy.is_isolated_cell(cell) {
                if !self.ledger.can_afford(self.eps_per_epoch) {
                    break; // stop re-sending when the budget runs dry
                }
                self.ledger
                    .charge(t as u64, policy.name(), self.eps_per_epoch)?;
            }
            affordable.push((t, cell));
        }
        Ok(Some(affordable))
    }

    /// Releases a planned re-send: one indexed bulk perturbation of the
    /// planned window — the policy-graph work (distances, distributions)
    /// is shared across all re-sent epochs instead of being redone per
    /// epoch. The budget was already charged by [`Client::plan_resend`];
    /// this half only draws randomness.
    ///
    /// # Errors
    ///
    /// Invalid ε or an out-of-domain cell surfaces as [`PglpError`].
    pub fn release_resend(
        &mut self,
        plan: &[(Timestamp, CellId)],
        rng: &mut dyn RngCore,
    ) -> Result<Vec<LocationReport>, PglpError> {
        let cells: Vec<CellId> = plan.iter().map(|&(_, c)| c).collect();
        let perturbed =
            self.mechanism
                .perturb_batch(&self.index, self.eps_per_epoch, &cells, rng)?;
        Ok(plan
            .iter()
            .zip(perturbed)
            .map(|(&(t, _), cell)| LocationReport {
                user: self.user,
                epoch: t,
                cell,
                resend: true,
            })
            .collect())
    }

    /// Handles a re-send request: applies the updated policy (subject to
    /// consent) and re-perturbs every retained epoch in the window —
    /// [`Client::plan_resend`] (consent + budget accounting) composed
    /// with [`Client::release_resend`] (bulk perturbation).
    ///
    /// Epochs whose true cell is isolated in the updated policy are
    /// disclosed exactly — this is precisely how the contact-tracing `Gc`
    /// lets the server learn who visited infected places (§3.2).
    pub fn handle_resend(
        &mut self,
        request: &ResendRequest,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<LocationReport>, PglpError> {
        match self.plan_resend(request)? {
            Some(plan) => self.release_resend(&plan, rng),
            None => Ok(Vec::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_core::GraphExponential;
    use panda_geo::GridMap;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn grid() -> GridMap {
        GridMap::new(4, 4, 100.0)
    }

    fn client(consent: ConsentRule, budget: f64) -> Client {
        Client::new(
            UserId(1),
            ClientConfig {
                retention: 5,
                budget,
                consent,
            },
            LocationPolicyGraph::partition(grid(), 2, 2),
            Box::new(GraphExponential),
            0.5,
        )
    }

    #[test]
    fn retention_window_evicts() {
        let mut c = client(ConsentRule::AlwaysAccept, 10.0);
        for t in 0..10 {
            c.observe(t, CellId(t % 16));
        }
        assert_eq!(c.history_len(), 5);
        assert_eq!(c.true_location(9), Some(CellId(9)));
        assert_eq!(c.true_location(4), None, "evicted epoch must be gone");
    }

    #[test]
    fn report_is_perturbed_within_component_and_charged() {
        let mut c = client(ConsentRule::AlwaysAccept, 10.0);
        c.observe(0, CellId(0));
        let mut rng = SmallRng::seed_from_u64(1);
        let r = c.report(0, &mut rng).unwrap();
        assert_eq!(r.user, UserId(1));
        assert_eq!(r.epoch, 0);
        assert!(c.policy().same_component(CellId(0), r.cell));
        assert!((c.budget_remaining() - 9.5).abs() < 1e-9);
    }

    #[test]
    fn report_unknown_epoch_fails() {
        let mut c = client(ConsentRule::AlwaysAccept, 10.0);
        c.observe(0, CellId(0));
        let mut rng = SmallRng::seed_from_u64(2);
        assert!(c.report(3, &mut rng).is_err());
    }

    #[test]
    fn budget_exhaustion_stops_reporting() {
        let mut c = client(ConsentRule::AlwaysAccept, 1.0);
        for t in 0..4 {
            c.observe(t, CellId(5));
        }
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(c.report(0, &mut rng).is_ok());
        assert!(c.report(1, &mut rng).is_ok());
        let err = c.report(2, &mut rng).unwrap_err();
        assert!(matches!(err, PglpError::BudgetExhausted { .. }));
    }

    #[test]
    fn isolated_cells_are_free_and_exact() {
        let mut c = Client::new(
            UserId(2),
            ClientConfig {
                retention: 5,
                budget: 1.0,
                consent: ConsentRule::AlwaysAccept,
            },
            LocationPolicyGraph::isolated(grid()),
            Box::new(GraphExponential),
            0.5,
        );
        c.observe(0, CellId(7));
        let mut rng = SmallRng::seed_from_u64(4);
        let before = c.budget_remaining();
        let r = c.report(0, &mut rng).unwrap();
        assert_eq!(r.cell, CellId(7));
        assert_eq!(c.budget_remaining(), before, "exact release is free");
    }

    #[test]
    fn plan_routine_matches_per_epoch_report_budgeting() {
        // Two identical clients: one reports per epoch, one plans. Same
        // affordable epochs, same budget afterwards.
        let build = || {
            let mut c = client(ConsentRule::AlwaysAccept, 2.0); // 4 × 0.5
            for t in 0..5 {
                c.observe(t, CellId(5));
            }
            c
        };
        let mut reporting = build();
        let mut rng = SmallRng::seed_from_u64(9);
        let mut reported = Vec::new();
        for t in 0..5 {
            match reporting.report(t, &mut rng) {
                Ok(r) => reported.push(r.epoch),
                Err(PglpError::BudgetExhausted { .. }) => break,
                Err(e) => panic!("{e:?}"),
            }
        }
        let mut planning = build();
        let (plan, exhausted) = planning.plan_routine(5);
        assert!(exhausted);
        assert_eq!(
            plan.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            reported,
            "plan must cover exactly the epochs report() affords"
        );
        assert_eq!(planning.budget_remaining(), reporting.budget_remaining());
        // Isolated cells stay free in the plan too.
        let mut free = Client::new(
            UserId(3),
            ClientConfig {
                retention: 5,
                budget: 1.0,
                consent: ConsentRule::AlwaysAccept,
            },
            LocationPolicyGraph::isolated(grid()),
            Box::new(GraphExponential),
            0.5,
        );
        for t in 0..5 {
            free.observe(t, CellId(7));
        }
        let (plan, exhausted) = free.plan_routine(5);
        assert_eq!(plan.len(), 5);
        assert!(!exhausted);
        assert_eq!(free.budget_remaining(), 1.0);
    }

    #[test]
    fn consent_min_density() {
        let c = client(ConsentRule::MinDensity(0.5), 10.0);
        let sparse = PolicyAssignment {
            user: UserId(1),
            policy: LocationPolicyGraph::isolated(grid()),
            eps_per_epoch: 0.5,
            effective_from: 0,
        };
        assert!(!c.consents_to(&sparse));
        let dense = PolicyAssignment {
            user: UserId(1),
            policy: LocationPolicyGraph::complete(grid()),
            eps_per_epoch: 0.5,
            effective_from: 0,
        };
        assert!(c.consents_to(&dense));
    }

    #[test]
    fn consent_max_disclosed_fraction() {
        let mut c = client(ConsentRule::MaxDisclosedFraction(0.4), 10.0);
        for t in 0..4 {
            c.observe(t, CellId(t)); // cells 0..4
        }
        // Isolating cells 0 and 1 would disclose half of history: refuse.
        let aggressive = PolicyAssignment {
            user: UserId(1),
            policy: LocationPolicyGraph::complete(grid()).with_isolated(&[
                CellId(0),
                CellId(1),
                CellId(2),
            ]),
            eps_per_epoch: 0.5,
            effective_from: 4,
        };
        assert!(!c.consents_to(&aggressive));
        // Isolating one cell (25%) is fine.
        let mild = PolicyAssignment {
            user: UserId(1),
            policy: LocationPolicyGraph::complete(grid()).with_isolated(&[CellId(0)]),
            eps_per_epoch: 0.5,
            effective_from: 4,
        };
        assert!(c.consents_to(&mild));
        assert!(c.apply_assignment(mild));
        assert!(c.policy().is_isolated_cell(CellId(0)));
    }

    #[test]
    fn refused_assignment_keeps_old_policy() {
        let mut c = client(ConsentRule::MinDensity(0.9), 10.0);
        let old_name = c.policy().name().to_string();
        let refused = PolicyAssignment {
            user: UserId(1),
            policy: LocationPolicyGraph::isolated(grid()),
            eps_per_epoch: 0.1,
            effective_from: 0,
        };
        assert!(!c.apply_assignment(refused));
        assert_eq!(c.policy().name(), old_name);
    }

    #[test]
    fn resend_disclosing_infected_cells() {
        let mut c = client(ConsentRule::AlwaysAccept, 20.0);
        for t in 0..5 {
            c.observe(t, CellId(0)); // always at infected cell 0
        }
        let gc = LocationPolicyGraph::partition(grid(), 2, 2).with_isolated(&[CellId(0)]);
        let req = ResendRequest {
            user: UserId(1),
            from: 0,
            to: 5,
            policy: gc,
            eps_per_epoch: 0.5,
        };
        let mut rng = SmallRng::seed_from_u64(5);
        let reports = c.handle_resend(&req, &mut rng).unwrap();
        assert_eq!(reports.len(), 5);
        for r in &reports {
            assert!(r.resend);
            assert_eq!(r.cell, CellId(0), "infected cell must be disclosed exactly");
        }
        // Exact disclosures are free: full budget remains.
        assert!((c.budget_remaining() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn resend_respects_budget() {
        let mut c = client(ConsentRule::AlwaysAccept, 1.0);
        for t in 0..5 {
            c.observe(t, CellId(5)); // never at an isolated cell
        }
        let req = ResendRequest {
            user: UserId(1),
            from: 0,
            to: 5,
            policy: LocationPolicyGraph::partition(grid(), 2, 2),
            eps_per_epoch: 0.5,
        };
        let mut rng = SmallRng::seed_from_u64(6);
        let reports = c.handle_resend(&req, &mut rng).unwrap();
        assert_eq!(reports.len(), 2, "budget of 1.0 covers two 0.5 releases");
    }
}
