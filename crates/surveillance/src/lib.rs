//! # panda-surveillance
//!
//! The PANDA system itself (paper Figs. 1 and 3): privacy-preserving
//! epidemic surveillance assembled from the PGLP core and the substrates.
//!
//! * [`client`] — a user's device: local location database holding the past
//!   two weeks (Fig. 1), consent checks, mechanism invocation, privacy
//!   budget ledger.
//! * [`server`] — the semi-honest collector: stores only *perturbed*
//!   reports, runs the three applications, never sees raw data except what
//!   policies deliberately disclose.
//! * [`ingest`] — the streaming front end: a bounded-queue pipeline that
//!   micro-batches open-loop report streams (size/deadline flush policy,
//!   backpressure), releases them on lanes scoped to the current policy
//!   and lands them on the server.
//! * [`policy_config`] — the Location Policy Configuration module (Fig. 3):
//!   recommends `Ga`/`Gb`/`Gc` per application and recomputes per-user
//!   policies when diagnoses arrive.
//! * [`monitoring`] — location monitoring: coarse-area occupancy and
//!   movement matrices ("people moving between different cities").
//! * [`analysis`] — epidemic analysis: contact-rate and `R0` estimation
//!   from (perturbed) location data.
//! * [`tracing`] — contact tracing with the paper's co-location rule and
//!   the dynamic policy-update / re-send protocol of §3.2.
//! * [`health_code`] — the "health code" certification service.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod client;
pub mod dashboard;
pub mod health_code;
pub mod ingest;
pub mod monitoring;
pub mod node;
pub mod policy_config;
pub mod protocol;
pub mod server;
pub mod simulation;
pub mod tracing;

pub use client::{Client, ClientConfig, ConsentRule};
pub use ingest::{
    Closed, Entry, IngestConfig, IngestHandle, IngestPipeline, IngestStats, PendingReport,
    SequencedReport,
};
pub use node::{merge_reported_dbs, ShardNode};
pub use policy_config::PolicyConfigurator;
pub use protocol::{LocationReport, PolicyAssignment, ResendRequest};
pub use server::{shard_of, Server};
pub use tracing::{ContactRule, ContactTracer, TraceOutcome};

#[cfg(test)]
mod test_support {
    use panda_geo::{CellId, GridMap};
    use panda_mobility::{Trajectory, TrajectoryDb, UserId};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// `n_users` users with spread-out, unsorted ids, each at a uniform
    /// random cell of `grid` in every one of `horizon` epochs.
    pub(crate) fn random_db(
        grid: GridMap,
        n_users: usize,
        horizon: usize,
        seed: u64,
    ) -> TrajectoryDb {
        let mut rng = SmallRng::seed_from_u64(seed);
        let trajectories = (0..n_users as u32)
            .map(|i| Trajectory {
                user: UserId((i * 7919) % 101),
                cells: (0..horizon)
                    .map(|_| CellId(rng.gen_range(0..grid.n_cells())))
                    .collect(),
            })
            .collect();
        TrajectoryDb::new(grid, trajectories)
    }
}
