//! The semi-honest server: stores perturbed reports, serves the apps.
//!
//! The server never sees raw locations — only what clients release under
//! consented policies. Report storage is **sharded by user** into
//! lock-striped partitions so millions of concurrent report streams don't
//! serialise on one global lock:
//!
//! * [`Server::receive`] locks exactly one shard;
//! * [`Server::receive_batch`] groups the batch by shard first and then
//!   locks each touched shard **once**, which is how the release kernel's
//!   output lands, from a bulk `panda_core::release::ParallelReleaser`
//!   release and from every ingest flush alike;
//! * ingest counters are per-shard [`Counter`]s (no lock at all),
//!   aggregated on read; a registry scrape reads the same handles. Each is
//!   bumped only after its rows are written, and a counter adds with
//!   `Release` and reads with `Acquire`: a reader that sees a count can
//!   read the rows behind it;
//! * low-volume epidemiological facts (diagnoses, infected visits) stay
//!   under a single `RwLock` — they arrive out of band, not on the ingest
//!   hot path.
//!
//! Read-side queries aggregate across shards; between ingest rounds a
//! sharded server is observationally equivalent to the PR-1 single-lock
//! server (see the `sharding_is_observationally_equivalent` test). A
//! reader racing an in-flight `receive_batch` may observe the batch
//! partially applied (per-shard atomicity, not whole-batch) — the price of
//! lock striping; the surveillance apps read between phases, never
//! mid-ingest.
//!
//! Each user's reports are one contiguous vector of `(epoch, cell)`
//! pairs, sorted by epoch with unique epochs, so a read walks memory in
//! order instead of chasing tree nodes. Every write goes through one
//! upsert (last write wins). Its cost, for a user with `n` stored epochs:
//!
//! * an overwrite of the **dense slot** — index `epoch − first_epoch`,
//!   which holds `epoch` whenever no epoch between the two is missing —
//!   and an **append** of an epoch newer than the user's newest are O(1);
//! * any other overwrite is an O(log n) binary search;
//! * a new epoch older than the user's newest is a binary search plus a
//!   memmove of the entries after it (O(n) worst case, paid only by
//!   out-of-order first arrivals).

use crate::protocol::LocationReport;
use panda_check::ordered::{rank, OrderedRwLock};
use panda_geo::{CellId, GridMap};
use panda_mobility::{Timestamp, Trajectory, TrajectoryDb, UserId};
use panda_obs::{Counter, Registry};
// Per-user stores are keyed by UserId; every read path (users,
// reported_db) sorts before exposing an iteration order.
// panda-check: allow(unordered_iter): read paths sort first
use std::collections::HashMap;

/// One user's reports: `(epoch, cell)` sorted by epoch, epochs unique.
type UserReports = Vec<(Timestamp, CellId)>;

/// Stores `cell` for `epoch`, overwriting an existing entry (see the
/// module doc for the cost of each case).
fn upsert(v: &mut UserReports, epoch: Timestamp, cell: CellId) {
    // Dense slot: with no gap since the first epoch, `epoch` sits at
    // index `epoch − first`.
    if let Some(&(first, _)) = v.first() {
        if let Some(slot) = epoch.checked_sub(first).and_then(|d| v.get_mut(d as usize)) {
            if slot.0 == epoch {
                slot.1 = cell;
                return;
            }
        }
    }
    match v.last() {
        Some(&(last, _)) if epoch <= last => match v.binary_search_by_key(&epoch, |&(t, _)| t) {
            Ok(i) => v[i].1 = cell,
            Err(i) => v.insert(i, (epoch, cell)),
        },
        _ => v.push((epoch, cell)),
    }
}

/// One lock stripe: the report store of every user hashing to this shard,
/// plus its lock-free ingest counters.
#[derive(Debug)]
struct Shard {
    /// Latest report per (user, epoch) — re-sends overwrite.
    // panda-check: allow(unordered_iter): read paths sort (see module doc).
    reports: OrderedRwLock<HashMap<UserId, UserReports>>,
    /// Reports landed here, bumped after their rows are written, so a
    /// count never runs ahead of the rows a reader can see.
    n_received: Counter,
    /// Re-sends among them, bumped the same way.
    n_resends: Counter,
}

impl Shard {
    fn new() -> Self {
        Shard {
            // panda-check: allow(unordered_iter): same store as the field.
            reports: OrderedRwLock::new(rank::SERVER_STRIPE, HashMap::new()),
            n_received: Counter::new(),
            n_resends: Counter::new(),
        }
    }
}

/// Out-of-band epidemiological state (not sharded: low volume).
#[derive(Debug, Default)]
struct HealthState {
    /// Diagnosed patients with diagnosis epoch.
    diagnoses: Vec<(UserId, Timestamp)>,
    /// Confirmed infected `(epoch, cell)` visits (from patient disclosures).
    infected_visits: Vec<(Timestamp, CellId)>,
}

/// The PANDA collection server.
#[derive(Debug)]
pub struct Server {
    grid: GridMap,
    shards: Vec<Shard>,
    health: OrderedRwLock<HealthState>,
}

/// The shard node a user routes to out of `n_shards` (≥ 1) — the pure
/// function behind the multi-node router's fan-out
/// (`panda_net::router::ShardRouter`) and every test or tool that splits a
/// stream the way the router does.
///
/// The raw ID is mixed through a SplitMix64-style finaliser before the
/// modulo: `user.0 % n_shards` would collapse any stride-aligned ID
/// population (IDs stepping by 16 with 16 stripes, a common allocator
/// pattern) onto a single stripe and serialise the whole tier. The
/// finaliser is bijective, so distinct users still spread and the routing
/// stays a pure function of the ID.
#[inline]
pub fn shard_of(user: UserId, n_shards: usize) -> usize {
    salted_shard(user, 0x9E37_79B9_7F4A_7C15, n_shards)
}

/// `user` mixed with `salt` through the SplitMix64 finaliser, modulo `n`.
fn salted_shard(user: UserId, salt: u64, n: usize) -> usize {
    let z = panda_core::release::splitmix64(u64::from(user.0).wrapping_add(salt));
    (z % n.max(1) as u64) as usize
}

impl Server {
    /// Default shard count: enough stripes that a batch from each core
    /// rarely contends, without fragmenting read-side aggregation.
    pub const DEFAULT_SHARDS: usize = 16;

    /// A fresh server for the given location domain with
    /// [`Server::DEFAULT_SHARDS`] lock stripes.
    pub fn new(grid: GridMap) -> Self {
        Self::with_shards(grid, Self::DEFAULT_SHARDS)
    }

    /// A fresh server with an explicit shard count (≥ 1). `with_shards(g, 1)`
    /// is the PR-1 single-lock server.
    pub fn with_shards(grid: GridMap, n_shards: usize) -> Self {
        let n_shards = n_shards.max(1);
        let mut shards = Vec::with_capacity(n_shards);
        shards.resize_with(n_shards, Shard::new);
        Server {
            grid,
            shards,
            health: OrderedRwLock::new(rank::SERVER_HEALTH, HealthState::default()),
        }
    }

    /// The location domain.
    pub fn grid(&self) -> &GridMap {
        &self.grid
    }

    /// Number of lock stripes.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The lock stripe of a user (stable for the server's lifetime). It
    /// mixes with a salt of its own: a server behind an `n`-node router
    /// sees only users of one [`shard_of`]`(·, n)` value, and striping them
    /// by that same hash would leave most stripes empty (8 of 16 at
    /// `n = 2`).
    #[inline]
    fn shard_of(&self, user: UserId) -> usize {
        salted_shard(user, 0xD1B5_4A32_D192_ED03, self.shards.len())
    }

    /// Reports received per lock stripe (ingest-side load view, aggregated
    /// from the per-shard atomic counters). A healthy ID population spreads
    /// across all stripes; a single hot stripe means routing collapse.
    pub fn shard_loads(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.n_received.get() as usize)
            .collect()
    }

    /// Registers the per-stripe landing counters in `registry` under
    /// zero-padded `panda_server_shard_*` names (so the rendered exposition
    /// keeps stripe order under lexicographic sorting).
    pub fn register_metrics(&self, registry: &Registry) {
        for (i, shard) in self.shards.iter().enumerate() {
            registry.register_counter(
                &format!("panda_server_shard_{i:03}_received_total"),
                &shard.n_received,
            );
            registry.register_counter(
                &format!("panda_server_shard_{i:03}_resends_total"),
                &shard.n_resends,
            );
        }
    }

    /// Ingests one report (re-sends overwrite the original epoch). Locks
    /// exactly one shard.
    pub fn receive(&self, report: LocationReport) {
        let shard = &self.shards[self.shard_of(report.user)];
        upsert(
            shard.reports.write().entry(report.user).or_default(),
            report.epoch,
            report.cell,
        );
        shard.n_received.inc();
        if report.resend {
            shard.n_resends.inc();
        }
    }

    /// Ingests a batch: groups reports by shard, then locks each touched
    /// shard once. Within a user the input order is preserved, so
    /// re-send overwrite semantics match sequential [`Server::receive`]
    /// calls.
    pub fn receive_batch(&self, reports: Vec<LocationReport>) {
        let mut by_shard: Vec<Vec<LocationReport>> = Vec::new();
        by_shard.resize_with(self.shards.len(), Vec::new);
        for r in reports {
            by_shard[self.shard_of(r.user)].push(r);
        }
        for (shard, group) in self.shards.iter().zip(by_shard) {
            if group.is_empty() {
                continue;
            }
            let (n, resends) = (group.len(), group.iter().filter(|r| r.resend).count());
            let mut store = shard.reports.write();
            for r in group {
                upsert(store.entry(r.user).or_default(), r.epoch, r.cell);
            }
            drop(store);
            shard.n_received.add(n as u64);
            if resends > 0 {
                shard.n_resends.add(resends as u64);
            }
        }
    }

    /// Ingests from an iterator (collects, then batches by shard).
    pub fn receive_all<I: IntoIterator<Item = LocationReport>>(&self, reports: I) {
        self.receive_batch(reports.into_iter().collect());
    }

    /// Total reports received (including overwritten ones), aggregated
    /// across shards.
    pub fn n_received(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.n_received.get() as usize)
            .sum()
    }

    /// Number of re-sent reports received, aggregated across shards.
    pub fn n_resends(&self) -> usize {
        self.shards.iter().map(|s| s.n_resends.get() as usize).sum()
    }

    /// Users that have reported at least once, sorted.
    pub fn users(&self) -> Vec<UserId> {
        let mut users: Vec<UserId> = self
            .shards
            .iter()
            .flat_map(|s| s.reports.read().keys().copied().collect::<Vec<_>>())
            .collect();
        users.sort_unstable();
        users
    }

    /// The stored (perturbed) cell for `(user, epoch)`.
    pub fn reported_cell(&self, user: UserId, epoch: Timestamp) -> Option<CellId> {
        self.shards[self.shard_of(user)]
            .reports
            .read()
            .get(&user)
            .and_then(|v| {
                v.binary_search_by_key(&epoch, |&(t, _)| t)
                    .ok()
                    .map(|i| v[i].1)
            })
    }

    /// Registers a diagnosis (from the health system, out of band).
    pub fn record_diagnosis(&self, user: UserId, epoch: Timestamp) {
        self.health.write().diagnoses.push((user, epoch));
    }

    /// All diagnoses so far.
    pub fn diagnoses(&self) -> Vec<(UserId, Timestamp)> {
        self.health.read().diagnoses.clone()
    }

    /// Records confirmed infected visits (a diagnosed patient's disclosed
    /// history).
    pub fn record_infected_visits(&self, visits: &[(Timestamp, CellId)]) {
        self.health
            .write()
            .infected_visits
            .extend_from_slice(visits);
    }

    /// All confirmed infected `(epoch, cell)` visits.
    pub fn infected_visits(&self) -> Vec<(Timestamp, CellId)> {
        self.health.read().infected_visits.clone()
    }

    /// The distinct confirmed infected cells.
    pub fn infected_cells(&self) -> Vec<CellId> {
        let mut cells: Vec<CellId> = self
            .health
            .read()
            .infected_visits
            .iter()
            .map(|&(_, c)| c)
            .collect();
        cells.sort_unstable();
        cells.dedup();
        cells
    }

    /// Materialises the server's view as a dense [`TrajectoryDb`] over
    /// `[0, horizon)`, holding the last known position for missing epochs
    /// (users with no reports at all are dropped).
    ///
    /// This is what the monitoring/analysis apps consume: the *perturbed*
    /// counterpart of the population's true trajectory database.
    pub fn reported_db(&self, horizon: Timestamp) -> TrajectoryDb {
        let mut trajectories = Vec::new();
        self.append_trajectories(horizon, &mut trajectories);
        trajectories.sort_unstable_by_key(|tr| tr.user);
        TrajectoryDb::new(self.grid.clone(), trajectories)
    }

    /// Appends the [`Server::reported_db`] trajectory of every user that
    /// has reported, in no particular order. Each user's reports are
    /// walked once in epoch order: epochs before the first report take the
    /// first report's cell, and each later epoch holds the last cell
    /// reported at or before it.
    pub(crate) fn append_trajectories(&self, horizon: Timestamp, out: &mut Vec<Trajectory>) {
        let h = horizon as usize;
        for shard in &self.shards {
            let store = shard.reports.read();
            out.extend(store.iter().filter_map(|(&user, v)| {
                let &(_, mut current) = v.first()?;
                // Sorted unique epochs: when entry h − 1 holds epoch h − 1,
                // the first h entries are exactly epochs 0..h.
                if h > 0 && v.get(h - 1).is_some_and(|&(t, _)| t == horizon - 1) {
                    let cells = v[..h].iter().map(|&(_, c)| c).collect();
                    return Some(Trajectory { user, cells });
                }
                let mut cells = Vec::with_capacity(h);
                for &(t, c) in v.iter().take_while(|&&(t, _)| t < horizon) {
                    cells.resize(t as usize, current);
                    current = c;
                }
                cells.resize(h, current);
                Some(Trajectory { user, cells })
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn report(user: u32, epoch: Timestamp, cell: u32, resend: bool) -> LocationReport {
        LocationReport {
            user: UserId(user),
            epoch,
            cell: CellId(cell),
            resend,
        }
    }

    #[test]
    fn receive_and_query() {
        let s = Server::new(GridMap::new(4, 4, 100.0));
        s.receive(report(0, 0, 3, false));
        s.receive(report(0, 1, 4, false));
        s.receive(report(1, 0, 7, false));
        assert_eq!(s.n_received(), 3);
        assert_eq!(s.users(), vec![UserId(0), UserId(1)]);
        assert_eq!(s.reported_cell(UserId(0), 1), Some(CellId(4)));
        assert_eq!(s.reported_cell(UserId(1), 1), None);
    }

    #[test]
    fn resend_overwrites() {
        let s = Server::new(GridMap::new(4, 4, 100.0));
        s.receive(report(0, 0, 3, false));
        s.receive(report(0, 0, 9, true));
        assert_eq!(s.reported_cell(UserId(0), 0), Some(CellId(9)));
        assert_eq!(s.n_resends(), 1);
        assert_eq!(s.n_received(), 2);
    }

    #[test]
    fn batch_preserves_per_user_order() {
        let s = Server::new(GridMap::new(4, 4, 100.0));
        // Same (user, epoch) twice in one batch: the later entry wins, as
        // with sequential receive calls.
        s.receive_batch(vec![report(3, 0, 1, false), report(3, 0, 2, true)]);
        assert_eq!(s.reported_cell(UserId(3), 0), Some(CellId(2)));
        assert_eq!(s.n_received(), 2);
        assert_eq!(s.n_resends(), 1);
    }

    #[test]
    fn reported_db_holds_last_position() {
        let s = Server::new(GridMap::new(4, 4, 100.0));
        s.receive_all([report(0, 0, 1, false), report(0, 3, 5, false)]);
        let db = s.reported_db(5);
        let tr = db.trajectory(UserId(0)).unwrap();
        assert_eq!(
            tr.cells,
            vec![CellId(1), CellId(1), CellId(1), CellId(5), CellId(5)]
        );
    }

    /// The reference store: the `BTreeMap` per user the contiguous store
    /// replaced, with last-write-wins inserts.
    #[derive(Default)]
    struct Model(BTreeMap<UserId, BTreeMap<Timestamp, CellId>>);

    impl Model {
        fn receive(&mut self, r: LocationReport) {
            self.0.entry(r.user).or_default().insert(r.epoch, r.cell);
        }

        fn reported_cell(&self, user: UserId, epoch: Timestamp) -> Option<CellId> {
            self.0.get(&user).and_then(|m| m.get(&epoch)).copied()
        }

        /// The reference `reported_db` fill: one map lookup per epoch,
        /// holding the last reported cell (the first report's cell before
        /// any).
        fn trajectories(&self, horizon: Timestamp) -> Vec<Trajectory> {
            self.0
                .iter()
                .map(|(&user, m)| {
                    let mut current = *m.values().next().expect("users have reports");
                    let cells = (0..horizon)
                        .map(|t| {
                            if let Some(&c) = m.get(&t) {
                                current = c;
                            }
                            current
                        })
                        .collect();
                    Trajectory { user, cells }
                })
                .collect()
        }
    }

    /// Asserts every read of `one` (and of the user-split `nodes`) matches
    /// the reference model.
    fn assert_matches_model(
        one: &Server,
        nodes: &[std::sync::Arc<Server>],
        model: &Model,
        probe_epochs: &[Timestamp],
        horizon: Timestamp,
    ) {
        let users: Vec<UserId> = model.0.keys().copied().collect();
        assert_eq!(one.users(), users);
        for &u in users.iter().chain([UserId(999)].iter()) {
            for &t in probe_epochs {
                assert_eq!(
                    one.reported_cell(u, t),
                    model.reported_cell(u, t),
                    "{u} @ {t}"
                );
            }
        }
        let expect = model.trajectories(horizon);
        assert_eq!(one.reported_db(horizon).trajectories(), &expect[..]);
        let merged = crate::node::merge_reported_dbs(one.grid.clone(), nodes, horizon);
        assert_eq!(merged.trajectories(), &expect[..]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The in-order walk fills every epoch as the per-epoch lookups
        /// did — sparse epochs, epochs at or past the horizon, reports that
        /// start after epoch 0 — and merging two nodes' views equals one
        /// server's view.
        #[test]
        fn reported_db_walk_matches_per_epoch_lookups(
            reports in prop::collection::vec((0u32..6, 0u32..40, 0u32..16, any::<bool>()), 0..60),
            horizon in 0u32..30,
        ) {
            let grid = GridMap::new(4, 4, 100.0);
            let one = Server::with_shards(grid.clone(), 3);
            let nodes = [
                std::sync::Arc::new(Server::with_shards(grid.clone(), 2)),
                std::sync::Arc::new(Server::with_shards(grid.clone(), 2)),
            ];
            let mut model = Model::default();
            for &(u, t, c, resend) in &reports {
                let r = report(u, t, c, resend);
                one.receive(r);
                nodes[shard_of(r.user, 2)].receive(r);
                model.receive(r);
            }
            assert_matches_model(&one, &nodes, &model, &[0, 1, 39], horizon);
        }

        /// Hostile write orders through `receive` and `receive_batch`:
        /// descending and shuffled epochs, duplicate keys inside one batch,
        /// resends, epochs at or past the horizon and next to `u32::MAX` —
        /// every read equals the `BTreeMap` model's.
        #[test]
        fn hostile_write_orders_match_btreemap_model(
            reports in prop::collection::vec(
                (
                    0u32..5,
                    prop_oneof![0u32..24, 20u32..48, (u32::MAX - 3)..=u32::MAX],
                    0u32..16,
                ),
                0..80,
            ),
            order in 0u32..3,
            resent in 0usize..40,
            batch in 1usize..20,
            horizon in 0u32..40,
        ) {
            let mut reports: Vec<LocationReport> = reports
                .into_iter()
                .map(|(u, t, c)| report(u, t, c, false))
                .collect();
            match order {
                0 => reports.sort_by_key(|r| std::cmp::Reverse(r.epoch)),
                1 => reports.sort_by_key(|r| r.epoch),
                _ => {} // generation order is already shuffled
            }
            // Resend a prefix under new cells: duplicate keys within one
            // batch, and later overwrites of landed epochs.
            let resends: Vec<LocationReport> = reports
                .iter()
                .take(resent)
                .map(|r| report(r.user.0, r.epoch, (r.cell.0 + 1) % 16, true))
                .collect();
            reports.extend(resends);

            let grid = GridMap::new(4, 4, 100.0);
            let one = Server::with_shards(grid.clone(), 3);
            let nodes = [
                std::sync::Arc::new(Server::with_shards(grid.clone(), 2)),
                std::sync::Arc::new(Server::with_shards(grid.clone(), 2)),
            ];
            let mut model = Model::default();
            for (i, chunk) in reports.chunks(batch).enumerate() {
                for &r in chunk {
                    model.receive(r);
                }
                if i % 2 == 0 {
                    one.receive_batch(chunk.to_vec());
                    for &r in chunk {
                        nodes[shard_of(r.user, 2)].receive(r);
                    }
                } else {
                    for &r in chunk {
                        one.receive(r);
                    }
                    for (n, node) in nodes.iter().enumerate() {
                        node.receive_batch(
                            chunk.iter().copied().filter(|r| shard_of(r.user, 2) == n).collect(),
                        );
                    }
                }
            }
            prop_assert_eq!(one.n_received(), reports.len());
            let probes: Vec<Timestamp> =
                (0..48).chain((u32::MAX - 4)..=u32::MAX).collect();
            assert_matches_model(&one, &nodes, &model, &probes, horizon);
        }
    }

    /// The store's worst case: every first arrival lands in front of all
    /// stored epochs (a memmove each), then ascending overwrites walk the
    /// now-dense vector.
    #[test]
    fn descending_then_ascending_overwrites() {
        const N: u32 = 8192;
        let s = Server::with_shards(GridMap::new(4, 4, 100.0), 1);
        for t in (0..N).rev() {
            s.receive(report(7, t, t % 16, false));
        }
        for t in 0..N {
            assert_eq!(s.reported_cell(UserId(7), t), Some(CellId(t % 16)));
        }
        s.receive_batch((0..N).map(|t| report(7, t, (t + 5) % 16, true)).collect());
        assert_eq!(s.n_received(), 2 * N as usize);
        assert_eq!(s.n_resends(), N as usize);
        let db = s.reported_db(N);
        let expect: Vec<CellId> = (0..N).map(|t| CellId((t + 5) % 16)).collect();
        assert_eq!(db.trajectory(UserId(7)).unwrap().cells, expect);
        assert_eq!(s.reported_cell(UserId(7), N), None);
    }

    #[test]
    fn diagnoses_and_infected_cells() {
        let s = Server::new(GridMap::new(4, 4, 100.0));
        s.record_diagnosis(UserId(2), 40);
        s.record_infected_visits(&[(38, CellId(3)), (39, CellId(3)), (40, CellId(8))]);
        assert_eq!(s.diagnoses(), vec![(UserId(2), 40)]);
        assert_eq!(s.infected_cells(), vec![CellId(3), CellId(8)]);
    }

    /// The scripted op-sequence oracle: every observable of a sharded
    /// server must match the single-lock (`with_shards == 1`) server under
    /// an identical interleaving of receives, re-sends and reads.
    #[test]
    fn sharding_is_observationally_equivalent() {
        let grid = GridMap::new(8, 8, 100.0);
        let mut rng = SmallRng::seed_from_u64(99);
        let mut ops: Vec<LocationReport> = Vec::new();
        for _ in 0..2000 {
            ops.push(report(
                rng.gen_range(0..37),
                rng.gen_range(0..24),
                rng.gen_range(0..64),
                rng.gen_bool(0.2),
            ));
        }
        let single = Server::with_shards(grid.clone(), 1);
        let sharded = Server::with_shards(grid.clone(), 7);
        // Interleave single receives, batches and mid-stream reads.
        for (i, chunk) in ops.chunks(17).enumerate() {
            if i % 2 == 0 {
                for &r in chunk {
                    single.receive(r);
                    sharded.receive(r);
                }
            } else {
                single.receive_batch(chunk.to_vec());
                sharded.receive_batch(chunk.to_vec());
            }
            assert_eq!(single.n_received(), sharded.n_received());
            assert_eq!(single.n_resends(), sharded.n_resends());
        }
        assert_eq!(single.users(), sharded.users());
        for u in single.users() {
            for t in 0..24 {
                assert_eq!(single.reported_cell(u, t), sharded.reported_cell(u, t));
            }
        }
        let (a, b) = (single.reported_db(24), sharded.reported_db(24));
        assert_eq!(a.trajectories(), b.trajectories());
    }

    /// Regression: `user.0 % shards` sent every stride-aligned ID
    /// population (IDs stepping by the stripe count) to one stripe. The
    /// mixed routing must spread such a workload across all stripes while
    /// staying a stable pure function of the user ID.
    #[test]
    fn stride_aligned_users_spread_across_all_stripes() {
        let s = Server::new(GridMap::new(4, 4, 100.0));
        assert_eq!(s.n_shards(), 16);
        // 256 users whose IDs step by exactly the stripe count — the
        // worst case for the raw modulo, which maps them all to stripe 0.
        for i in 0..256u32 {
            s.receive(report(i * 16, 0, 3, false));
        }
        let loads = s.shard_loads();
        assert_eq!(loads.iter().sum::<usize>(), 256);
        let occupied = loads.iter().filter(|&&n| n > 0).count();
        assert_eq!(
            occupied,
            s.n_shards(),
            "stride-16 workload collapsed onto {occupied} stripes: {loads:?}"
        );
        // No pathological hot stripe either: each holds well under the
        // whole population (expected 16 ± a few under the mixed routing).
        assert!(loads.iter().all(|&n| n < 64), "hot stripe in {loads:?}");
    }

    /// A server behind a 2- or 4-node split still fills every stripe: the
    /// stripe hash is independent of the node hash.
    #[test]
    fn every_stripe_of_every_node_fills_under_a_node_split() {
        for n_nodes in [2usize, 4] {
            let nodes: Vec<Server> = (0..n_nodes)
                .map(|_| Server::new(GridMap::new(4, 4, 100.0)))
                .collect();
            for u in 0..2_000u32 {
                nodes[shard_of(UserId(u), n_nodes)].receive(report(u, 0, 3, false));
            }
            for (i, node) in nodes.iter().enumerate() {
                let loads = node.shard_loads();
                assert!(
                    loads.iter().all(|&n| n > 0),
                    "node {i} of {n_nodes}: empty stripes in {loads:?}"
                );
            }
        }
    }

    /// Per-user routing is stable: every observable keyed by user works
    /// after the mix, and repeated sends for one user land on one stripe.
    #[test]
    fn mixed_shard_routing_is_stable_per_user() {
        let s = Server::with_shards(GridMap::new(4, 4, 100.0), 7);
        for t in 0..20 {
            s.receive(report(4242, t, t % 16, false));
        }
        // All 20 reports routed to the same stripe…
        let loads = s.shard_loads();
        assert_eq!(loads.iter().sum::<usize>(), 20);
        assert_eq!(loads.iter().filter(|&&n| n > 0).count(), 1);
        // …and the read path finds them all again.
        for t in 0..20 {
            assert_eq!(s.reported_cell(UserId(4242), t), Some(CellId(t % 16)));
        }
    }

    #[test]
    fn concurrent_batch_ingest_totals() {
        use std::sync::Arc;
        let s = Arc::new(Server::with_shards(GridMap::new(4, 4, 100.0), 8));
        let writers: Vec<_> = (0..4u32)
            .map(|w| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let batch: Vec<LocationReport> = (0..500)
                        .map(|i| report(w * 100 + i % 50, i / 50, (w + i) % 16, false))
                        .collect();
                    s.receive_batch(batch);
                })
            })
            .collect();
        let reader = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let mut seen = 0usize;
                for _ in 0..200 {
                    seen = seen.max(s.n_received());
                }
                seen
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        let seen = reader.join().unwrap();
        assert!(seen <= 2000);
        assert_eq!(s.n_received(), 2000);
        assert_eq!(s.users().len(), 200);
    }

    #[test]
    fn concurrent_reads_while_writing() {
        use std::sync::Arc;
        let s = Arc::new(Server::new(GridMap::new(4, 4, 100.0)));
        let writer = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for t in 0..200 {
                    s.receive(report(0, t, t % 16, false));
                }
            })
        };
        let reader = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let mut seen = 0usize;
                for _ in 0..200 {
                    seen = seen.max(s.n_received());
                }
                seen
            })
        };
        writer.join().unwrap();
        let seen = reader.join().unwrap();
        assert!(seen <= 200);
        assert_eq!(s.n_received(), 200);
    }

    /// Four writers race `receive_batch` — shuffled epochs, then resends —
    /// while a reader materialises `reported_db` in a loop. Every read is a
    /// valid `TrajectoryDb` (its constructor validates), and the final DB
    /// equals a single-threaded server fed the same batches.
    #[test]
    fn reported_db_reads_race_batch_writers() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        const HORIZON: Timestamp = 24;
        // Writer w owns users 50w..50w+50: disjoint keys keep the final DB
        // independent of how the writers interleave.
        let batches: Vec<Vec<Vec<LocationReport>>> = (0..4u32)
            .map(|w| {
                let mut rng = SmallRng::seed_from_u64(u64::from(w));
                let mut reports: Vec<LocationReport> = (w * 50..w * 50 + 50)
                    .flat_map(|u| (0..HORIZON + 4).map(move |t| report(u, t, (u + t) % 16, false)))
                    .collect();
                reports.shuffle(&mut rng);
                let resends: Vec<LocationReport> = reports[..300]
                    .iter()
                    .map(|r| report(r.user.0, r.epoch, (r.cell.0 + 7) % 16, true))
                    .collect();
                reports.extend(resends);
                reports.chunks(64).map(<[_]>::to_vec).collect()
            })
            .collect();
        let reference = Server::with_shards(GridMap::new(4, 4, 100.0), 1);
        for batch in batches.iter().flatten() {
            reference.receive_batch(batch.clone());
        }

        let s = Arc::new(Server::with_shards(GridMap::new(4, 4, 100.0), 8));
        let done = Arc::new(AtomicBool::new(false));
        let reader = {
            let (s, done) = (Arc::clone(&s), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut reads = 0usize;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let db = s.reported_db(HORIZON);
                    assert!(db.n_users() <= 200);
                    assert!(db.n_users() == 0 || db.horizon() == HORIZON);
                    reads += 1;
                    if finished {
                        return reads;
                    }
                }
            })
        };
        let writers: Vec<_> = batches
            .into_iter()
            .map(|mine| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for batch in mine {
                        s.receive_batch(batch);
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Release);
        assert!(reader.join().unwrap() >= 1);
        assert_eq!(s.n_received(), reference.n_received());
        assert_eq!(
            s.reported_db(HORIZON).trajectories(),
            reference.reported_db(HORIZON).trajectories()
        );
    }
}
