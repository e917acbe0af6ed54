//! Full-system simulation driver: the Fig. 1 deployment loop in one call.
//!
//! Orchestrates what the individual modules provide: clients observe their
//! true trajectories epoch by epoch and report under budgeted PGLP; an
//! agent-based outbreak spreads through true co-location; diagnoses arrive
//! with a reporting delay and each one triggers the §3.2 dynamic-tracing
//! round; health codes are refreshed after every diagnosis. The returned
//! log carries everything the experiments and dashboards read.
//!
//! This is the entry point a downstream user would build on: give it a
//! trajectory database (real or synthetic), a policy configurator and a
//! budget, get back the complete privacy-preserving surveillance history.

use crate::client::{Client, ClientConfig};
use crate::health_code::{assign_codes, HealthCode, HealthCodeRules};
use crate::ingest::{IngestConfig, IngestPipeline, IngestStats, PendingReport};
use crate::policy_config::PolicyConfigurator;
use crate::protocol::LocationReport;
use crate::server::Server;
use crate::tracing::{dynamic_trace, ContactRule, TraceOutcome};
use panda_core::{GraphExponential, Mechanism, ParallelReleaser, PolicyIndex};
use panda_epidemic::{simulate_outbreak, OutbreakConfig, OutbreakResult};
use panda_geo::CellId;
use panda_mobility::{Timestamp, TrajectoryDb, UserId};
use panda_obs::Registry;
use rand::{Rng, RngCore};
use rand_distr::{Distribution, Poisson};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Simulation parameters.
pub struct SimulationConfig {
    /// Per-epoch ε for routine reports.
    pub eps_report: f64,
    /// Per-epoch ε for re-sent windows.
    pub eps_resend: f64,
    /// Client configuration (retention, lifetime budget, consent).
    pub client: ClientConfig,
    /// Outbreak dynamics.
    pub outbreak: OutbreakConfig,
    /// Contact rule for tracing rounds.
    pub rule: ContactRule,
    /// Look-back window length for tracing (epochs; the paper's two weeks).
    pub trace_window: Timestamp,
    /// Health-code rules.
    pub health: HealthCodeRules,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            eps_report: 1.0,
            eps_resend: 2.0,
            client: ClientConfig::default(),
            outbreak: OutbreakConfig::default(),
            rule: ContactRule::default(),
            trace_window: 336,
            health: HealthCodeRules::default(),
        }
    }
}

/// Complete record of a simulated deployment.
pub struct SimulationLog {
    /// The outbreak ground truth (never visible to the server).
    pub outbreak: OutbreakResult,
    /// One tracing outcome per processed diagnosis, in diagnosis order.
    pub traces: Vec<(UserId, Timestamp, TraceOutcome)>,
    /// Final health codes.
    pub codes: BTreeMap<UserId, HealthCode>,
    /// Reports the server received in the routine phase.
    pub routine_reports: usize,
    /// Users that ran out of budget before the horizon.
    pub exhausted_users: Vec<UserId>,
}

impl SimulationLog {
    /// Mean recall over all tracing rounds (1.0 when no rounds ran).
    pub fn mean_recall(&self) -> f64 {
        if self.traces.is_empty() {
            return 1.0;
        }
        self.traces.iter().map(|(_, _, o)| o.recall).sum::<f64>() / self.traces.len() as f64
    }

    /// Mean precision over all tracing rounds.
    pub fn mean_precision(&self) -> f64 {
        if self.traces.is_empty() {
            return 1.0;
        }
        self.traces.iter().map(|(_, _, o)| o.precision).sum::<f64>() / self.traces.len() as f64
    }
}

/// Runs the full deployment over `truth`.
///
/// `max_traced_diagnoses` bounds how many diagnoses trigger tracing rounds
/// (each round re-sends up to a full window per user — budget-hungry).
pub fn run_simulation(
    truth: &TrajectoryDb,
    configurator: &PolicyConfigurator,
    config: &SimulationConfig,
    max_traced_diagnoses: usize,
    rng: &mut dyn RngCore,
) -> SimulationLog {
    let grid = truth.grid().clone();
    let server = Server::new(grid.clone());
    let base_policy = configurator.for_analysis();

    // Clients, pre-loaded with their (local, private) trajectories.
    let mut clients: Vec<Client> = truth
        .trajectories()
        .iter()
        .map(|tr| {
            let mut c = Client::new(
                tr.user,
                config.client.clone(),
                base_policy.clone(),
                Box::new(GraphExponential) as Box<dyn Mechanism + Send + Sync>,
                config.eps_report,
            );
            for (t, &cell) in tr.cells.iter().enumerate() {
                c.observe(t as Timestamp, cell);
            }
            c
        })
        .collect();

    // Ground-truth epidemic (the environment, not the system).
    let outbreak = simulate_outbreak(rng, truth, &config.outbreak);

    // Routine reporting phase, on the parallel release engine: each client
    // plans (and budgets) its affordable epochs sequentially, then one
    // shared PolicyIndex perturbs the whole population's reports across
    // threads, and the server ingests the output shard-batched. An invalid
    // per-epoch ε yields zero routine reports (and charges nothing) —
    // matching the old per-client loop, which stopped at the first failing
    // report instead of panicking.
    let shared_index = PolicyIndex::new(base_policy.clone());
    let releaser = ParallelReleaser::new();
    let mut exhausted: Vec<UserId> = Vec::new();
    let mut meta: Vec<(UserId, Timestamp)> = Vec::new();
    let mut cells: Vec<CellId> = Vec::new();
    if panda_core::error::check_epsilon(config.eps_report).is_ok() {
        for client in clients.iter_mut() {
            let (plan, ran_dry) = client.plan_routine(truth.horizon());
            if ran_dry {
                exhausted.push(client.user());
            }
            let user = client.user();
            for (t, cell) in plan {
                meta.push((user, t));
                cells.push(cell);
            }
        }
    }
    let release_seed = rng.gen::<u64>();
    // With ε pre-validated and every planned cell domain-checked, a
    // failure here is an invariant violation worth surfacing loudly.
    let released = releaser
        .release(
            &GraphExponential,
            &shared_index,
            config.eps_report,
            &cells,
            release_seed,
        )
        .expect("routine release failed on planned, validated reports");
    let routine_reports = released.len();
    server.receive_batch(
        meta.into_iter()
            .zip(released)
            .map(|((user, epoch), cell)| LocationReport {
                user,
                epoch,
                cell,
                resend: false,
            })
            .collect(),
    );

    // Diagnosis-driven tracing rounds.
    let mut traces = Vec::new();
    for &(patient, t_diag) in outbreak.diagnoses.iter().take(max_traced_diagnoses) {
        let from = t_diag.saturating_sub(config.trace_window);
        let outcome = dynamic_trace(
            &mut clients,
            &server,
            configurator,
            truth,
            patient,
            (from, t_diag),
            config.eps_resend,
            config.rule,
            rng,
        );
        traces.push((patient, t_diag, outcome));
    }

    // Final health codes from server-visible facts.
    let now = truth.horizon();
    let flagged: Vec<UserId> = traces
        .iter()
        .flat_map(|(_, _, o)| o.flagged.iter().copied())
        .collect();
    let codes = assign_codes(
        &server.reported_db(now),
        &server.diagnoses(),
        &flagged,
        &server.infected_visits(),
        now,
        &config.health,
    );

    SimulationLog {
        outbreak,
        traces,
        codes,
        routine_reports,
        exhausted_users: exhausted,
    }
}

/// Parameters of the streaming deployment scenario: open-loop Poisson
/// report arrivals through the [`IngestPipeline`], with periodic policy
/// switches.
#[derive(Debug, Clone)]
pub struct StreamingConfig {
    /// Mean reports per client per epoch (Poisson; duplicates within an
    /// epoch overwrite, like real repeated fixes).
    pub mean_reports_per_epoch: f64,
    /// Switch between the analysis (`Gb`) and monitoring (`Ga`) policies
    /// every this many epochs (0 = never switch).
    pub switch_every: Timestamp,
    /// Pipeline parameters (flush policy, queue bound, lanes, ε). The
    /// `seed` field is ignored: the scenario draws it from its `rng` so one
    /// simulation seed fixes the whole run.
    pub ingest: IngestConfig,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            mean_reports_per_epoch: 1.5,
            switch_every: 24,
            ingest: IngestConfig::default(),
        }
    }
}

/// Record of a streaming deployment run.
pub struct StreamingLog {
    /// The server after the stream drained (perturbed reports only).
    pub server: Arc<Server>,
    /// Pipeline counters: landed/rejected reports, flush causes.
    pub stats: IngestStats,
    /// The pipeline's metric registry (flush latency and sizes, queue
    /// depth, cache and pool instruments), read after the drain.
    pub metrics: Arc<Registry>,
    /// Reports submitted into the pipeline.
    pub submitted: usize,
}

/// Runs the continuous-reporting deployment over `truth`: every epoch each
/// client submits a Poisson-distributed number of reports of its current
/// true cell into the [`IngestPipeline`] (open-loop arrivals), and every
/// [`StreamingConfig::switch_every`] epochs the pipeline switches between
/// the configurator's analysis and monitoring policies in-band.
///
/// The arrival trace (and hence, for a fixed `rng` seed, the landed
/// database) is deterministic: one producer submits in epoch/user order and
/// the per-report release streams are keyed by arrival sequence number —
/// flush timing and lane count never change the outcome.
pub fn run_streaming_simulation(
    truth: &TrajectoryDb,
    configurator: &PolicyConfigurator,
    config: &StreamingConfig,
    rng: &mut dyn RngCore,
) -> StreamingLog {
    let server = Arc::new(Server::new(truth.grid().clone()));
    let analysis = Arc::new(PolicyIndex::new(configurator.for_analysis()));
    let monitoring = Arc::new(PolicyIndex::new(configurator.for_monitoring()));
    let pipeline = IngestPipeline::spawn(
        Arc::clone(&server),
        Arc::clone(&analysis),
        Arc::new(GraphExponential),
        IngestConfig {
            seed: rng.gen::<u64>(),
            ..config.ingest.clone()
        },
    );
    let handle = pipeline.handle();
    let arrivals =
        Poisson::new(config.mean_reports_per_epoch).expect("arrival rate must be positive");
    let mut submitted = 0usize;
    let mut on_analysis = true;
    for t in 0..truth.horizon() {
        if config.switch_every > 0 && t > 0 && t % config.switch_every == 0 {
            on_analysis = !on_analysis;
            handle
                .switch_policy(if on_analysis {
                    Arc::clone(&analysis)
                } else {
                    Arc::clone(&monitoring)
                })
                .expect("pipeline alive for the whole run");
        }
        for tr in truth.trajectories() {
            let k = arrivals.sample(rng) as usize;
            for _ in 0..k {
                handle
                    .submit(&[PendingReport {
                        user: tr.user,
                        epoch: t,
                        cell: tr.cells[t as usize],
                        resend: false,
                    }])
                    .expect("pipeline alive for the whole run");
                submitted += 1;
            }
        }
    }
    let metrics = pipeline.metrics();
    let stats = pipeline.shutdown();
    StreamingLog {
        server,
        stats,
        metrics,
        submitted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ConsentRule;
    use panda_mobility::markov::{generate_markov, MarkovConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn population(seed: u64) -> TrajectoryDb {
        let grid = panda_geo::GridMap::new(10, 10, 200.0);
        let mut rng = SmallRng::seed_from_u64(seed);
        generate_markov(
            &mut rng,
            &grid,
            &MarkovConfig {
                n_users: 40,
                horizon: 72,
                p_stay: 0.6,
            },
        )
    }

    fn config() -> SimulationConfig {
        SimulationConfig {
            eps_report: 1.0,
            eps_resend: 3.0,
            client: ClientConfig {
                retention: 100,
                budget: 500.0,
                consent: ConsentRule::AlwaysAccept,
            },
            outbreak: OutbreakConfig {
                n_seeds: 3,
                p_transmit: 0.5,
                diagnosis_delay: 12,
                ..Default::default()
            },
            rule: ContactRule::default(),
            trace_window: 48,
            health: HealthCodeRules::default(),
        }
    }

    #[test]
    fn full_simulation_round_trip() {
        let truth = population(1);
        let configurator = PolicyConfigurator::new(truth.grid().clone(), 5, 2);
        let mut rng = SmallRng::seed_from_u64(2);
        let log = run_simulation(&truth, &configurator, &config(), 2, &mut rng);
        assert_eq!(log.routine_reports, 40 * 72);
        assert!(log.exhausted_users.is_empty());
        assert!(!log.traces.is_empty(), "seeded outbreak must diagnose");
        assert_eq!(log.mean_recall(), 1.0, "dynamic tracing is exact");
        assert_eq!(log.codes.len(), 40);
        // Diagnosed patients are red.
        for (patient, _, _) in &log.traces {
            assert_eq!(log.codes[patient], HealthCode::Red);
        }
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let truth = population(3);
        let configurator = PolicyConfigurator::new(truth.grid().clone(), 5, 2);
        let mut cfg = config();
        cfg.client.budget = 10.0; // only 10 epochs of eps=1.0
        let mut rng = SmallRng::seed_from_u64(4);
        let log = run_simulation(&truth, &configurator, &cfg, 0, &mut rng);
        assert_eq!(log.exhausted_users.len(), 40, "everyone runs dry");
        assert_eq!(log.routine_reports, 40 * 10);
    }

    #[test]
    fn invalid_eps_yields_no_reports_instead_of_panicking() {
        let truth = population(9);
        let configurator = PolicyConfigurator::new(truth.grid().clone(), 5, 2);
        let mut cfg = config();
        cfg.eps_report = 0.0;
        cfg.outbreak.p_transmit = 0.0;
        cfg.outbreak.diagnosis_delay = 200;
        let mut rng = SmallRng::seed_from_u64(10);
        let log = run_simulation(&truth, &configurator, &cfg, 0, &mut rng);
        assert_eq!(log.routine_reports, 0);
        assert!(log.exhausted_users.is_empty(), "nothing was charged");
    }

    #[test]
    fn no_outbreak_no_traces() {
        let truth = population(5);
        let configurator = PolicyConfigurator::new(truth.grid().clone(), 5, 2);
        let mut cfg = config();
        cfg.outbreak.p_transmit = 0.0;
        cfg.outbreak.diagnosis_delay = 200; // past horizon: never diagnosed
        let mut rng = SmallRng::seed_from_u64(6);
        let log = run_simulation(&truth, &configurator, &cfg, 5, &mut rng);
        assert!(log.traces.is_empty());
        assert_eq!(log.mean_recall(), 1.0);
        assert_eq!(log.mean_precision(), 1.0);
        // Everyone green: no diagnoses ever reach the server.
        assert!(log.codes.values().all(|&c| c == HealthCode::Green));
    }

    #[test]
    fn streaming_simulation_lands_every_valid_report() {
        let truth = population(11);
        let configurator = PolicyConfigurator::new(truth.grid().clone(), 5, 2);
        let mut rng = SmallRng::seed_from_u64(12);
        let cfg = StreamingConfig {
            switch_every: 24,
            ingest: IngestConfig {
                max_batch: 128,
                ..Default::default()
            },
            ..Default::default()
        };
        let log = run_streaming_simulation(&truth, &configurator, &cfg, &mut rng);
        assert!(log.submitted > 0);
        assert_eq!(log.stats.submitted, log.submitted);
        assert_eq!(log.stats.landed, log.submitted, "{:?}", log.stats);
        assert_eq!(log.stats.rejected, 0);
        assert_eq!(log.server.n_received(), log.submitted);
        // horizon 72 / switch_every 24 → switches at t = 24 and 48.
        assert_eq!(log.stats.policy_switches, 2);
        // Every landed cell stays in its true cell's component under *one*
        // of the two policies in rotation (epochs without a report hold the
        // last position in `reported_db`, so query actual reports instead).
        let ga = configurator.for_monitoring();
        let gb = configurator.for_analysis();
        for tr in truth.trajectories() {
            for (t, &s) in tr.cells.iter().enumerate() {
                if let Some(z) = log.server.reported_cell(tr.user, t as Timestamp) {
                    assert!(
                        ga.same_component(s, z) || gb.same_component(s, z),
                        "released {z} foreign to both policies' component of {s}"
                    );
                }
            }
        }
    }

    /// Streaming determinism end to end: one seed fixes the arrival trace
    /// *and* the per-report release streams, so the landed database is
    /// identical across runs (and across flush-timing jitter between them).
    #[test]
    fn streaming_simulation_deterministic_under_seed() {
        let truth = population(13);
        let configurator = PolicyConfigurator::new(truth.grid().clone(), 5, 2);
        let run = |seed: u64, lanes: usize, max_batch: usize| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let cfg = StreamingConfig {
                ingest: IngestConfig {
                    release_threads: lanes,
                    max_batch,
                    ..Default::default()
                },
                ..Default::default()
            };
            run_streaming_simulation(&truth, &configurator, &cfg, &mut rng)
        };
        let a = run(5, 1, 64);
        let b = run(5, 8, 1024);
        assert_eq!(a.submitted, b.submitted);
        let horizon = truth.horizon();
        assert_eq!(
            a.server.reported_db(horizon).trajectories(),
            b.server.reported_db(horizon).trajectories(),
            "lane count / flush size must not change the landed DB"
        );
        let c = run(6, 1, 64);
        assert_ne!(
            a.server.reported_db(horizon).trajectories(),
            c.server.reported_db(horizon).trajectories(),
            "different seed must change the stream"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let truth = population(7);
        let configurator = PolicyConfigurator::new(truth.grid().clone(), 5, 2);
        let run = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            run_simulation(&truth, &configurator, &config(), 1, &mut rng)
        };
        let a = run(8);
        let b = run(8);
        assert_eq!(a.routine_reports, b.routine_reports);
        assert_eq!(a.outbreak.seeds, b.outbreak.seeds);
        assert_eq!(
            a.traces
                .iter()
                .map(|(u, t, _)| (*u, *t))
                .collect::<Vec<_>>(),
            b.traces
                .iter()
                .map(|(u, t, _)| (*u, *t))
                .collect::<Vec<_>>()
        );
    }
}
