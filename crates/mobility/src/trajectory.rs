//! Dense trajectory storage and co-location queries.
//!
//! PANDA's clients keep "all locations in the past two weeks" in a local
//! database (Fig. 1); the server-side analyses consume `(user, epoch, cell)`
//! triples. [`TrajectoryDb`] is that store: every user has one cell per
//! epoch over a shared horizon, which makes co-location — the substrate of
//! contact tracing — a per-epoch grouping query.

use panda_geo::{CellId, GridMap};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Discrete release epoch (e.g. one per hour). Epoch 0 is the start of the
/// observation window.
pub type Timestamp = u32;

/// User identifier.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct UserId(pub u32);

impl std::fmt::Display for UserId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// One user's dense cell-per-epoch trajectory.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trajectory {
    /// Owner.
    pub user: UserId,
    /// Cell occupied at each epoch `0..horizon`.
    pub cells: Vec<CellId>,
}

impl Trajectory {
    /// Number of epochs covered.
    pub fn horizon(&self) -> Timestamp {
        self.cells.len() as Timestamp
    }

    /// Cell at epoch `t`, or `None` past the horizon.
    pub fn at(&self, t: Timestamp) -> Option<CellId> {
        self.cells.get(t as usize).copied()
    }

    /// The sub-trajectory covering `[from, to)`, clamped to the horizon.
    pub fn window(&self, from: Timestamp, to: Timestamp) -> &[CellId] {
        let from = (from as usize).min(self.cells.len());
        let to = (to as usize).clamp(from, self.cells.len());
        &self.cells[from..to]
    }

    /// Distinct cells visited, sorted.
    pub fn distinct_cells(&self) -> Vec<CellId> {
        let mut cells = self.cells.clone();
        cells.sort_unstable();
        cells.dedup();
        cells
    }

    /// Number of epochs spent in `cell`.
    pub fn occupancy(&self, cell: CellId) -> usize {
        self.cells.iter().filter(|&&c| c == cell).count()
    }
}

/// A population of dense trajectories over a shared grid and horizon.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrajectoryDb {
    grid: GridMap,
    horizon: Timestamp,
    trajectories: Vec<Trajectory>,
}

impl TrajectoryDb {
    /// Builds a database, validating that every trajectory covers the same
    /// horizon and stays inside the grid.
    ///
    /// # Panics
    ///
    /// Panics on ragged horizons, foreign cells, or duplicate user ids.
    pub fn new(grid: GridMap, trajectories: Vec<Trajectory>) -> Self {
        let horizon = trajectories
            .first()
            .map(|t| t.horizon())
            .unwrap_or_default();
        for t in &trajectories {
            assert_eq!(t.horizon(), horizon, "ragged trajectory horizons");
            // A branch-free max over the cells vectorises; `contains` is
            // `id < n_cells`, so the largest id decides for all of them
            // (and cell 0 is in every grid).
            let max_cell = t.cells.iter().fold(0, |m, c| m.max(c.0));
            assert!(
                grid.contains(CellId(max_cell)),
                "trajectory leaves the grid"
            );
        }
        let mut users: Vec<UserId> = trajectories.iter().map(|t| t.user).collect();
        users.sort_unstable();
        if let Some(w) = users.windows(2).find(|w| w[0] == w[1]) {
            panic!("duplicate user id {}", w[0]);
        }
        TrajectoryDb {
            grid,
            horizon,
            trajectories,
        }
    }

    /// The shared grid domain.
    pub fn grid(&self) -> &GridMap {
        &self.grid
    }

    /// Number of epochs.
    pub fn horizon(&self) -> Timestamp {
        self.horizon
    }

    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.trajectories.len()
    }

    /// All trajectories.
    pub fn trajectories(&self) -> &[Trajectory] {
        &self.trajectories
    }

    /// The trajectory of `user`, if present.
    pub fn trajectory(&self, user: UserId) -> Option<&Trajectory> {
        self.trajectories.iter().find(|t| t.user == user)
    }

    /// Cell of `user` at epoch `t`.
    pub fn cell_of(&self, user: UserId, t: Timestamp) -> Option<CellId> {
        self.trajectory(user).and_then(|tr| tr.at(t))
    }

    /// Users present in `cell` at epoch `t`.
    pub fn users_at(&self, cell: CellId, t: Timestamp) -> Vec<UserId> {
        self.trajectories
            .iter()
            .filter(|tr| tr.at(t) == Some(cell))
            .map(|tr| tr.user)
            .collect()
    }

    /// Occupancy count per cell at epoch `t` (dense, indexed by cell id).
    pub fn occupancy_at(&self, t: Timestamp) -> Vec<u32> {
        let mut counts = vec![0u32; self.grid.n_cells() as usize];
        for tr in &self.trajectories {
            if let Some(c) = tr.at(t) {
                counts[c.index()] += 1;
            }
        }
        counts
    }

    /// Co-location events of `user` within `[from, to)`: for each epoch,
    /// the other users sharing the same cell.
    ///
    /// Returns `(epoch, cell, other_user)` triples — the raw material of
    /// the paper's contact rule ("same location at the same time").
    pub fn co_locations(
        &self,
        user: UserId,
        from: Timestamp,
        to: Timestamp,
    ) -> Vec<(Timestamp, CellId, UserId)> {
        let Some(tr) = self.trajectory(user) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for t in from..to.min(self.horizon) {
            let Some(cell) = tr.at(t) else { continue };
            for other in &self.trajectories {
                if other.user != user && other.at(t) == Some(cell) {
                    out.push((t, cell, other.user));
                }
            }
        }
        out
    }

    /// Counts co-location epochs per user pair across the whole horizon.
    /// Key is `(min_user, max_user)`.
    pub fn co_location_counts(&self) -> HashMap<(UserId, UserId), u32> {
        let mut counts: HashMap<(UserId, UserId), u32> = HashMap::new();
        for t in 0..self.horizon {
            // Group users by cell at epoch t.
            let mut by_cell: HashMap<CellId, Vec<UserId>> = HashMap::new();
            for tr in &self.trajectories {
                if let Some(c) = tr.at(t) {
                    by_cell.entry(c).or_default().push(tr.user);
                }
            }
            for users in by_cell.values() {
                for i in 0..users.len() {
                    for j in (i + 1)..users.len() {
                        let key = if users[i] < users[j] {
                            (users[i], users[j])
                        } else {
                            (users[j], users[i])
                        };
                        *counts.entry(key).or_insert(0) += 1;
                    }
                }
            }
        }
        counts
    }

    /// Empirical visit distribution over cells (all users, all epochs),
    /// normalised to sum to 1. The adversary's background knowledge in the
    /// Shokri-style inference attack.
    pub fn empirical_distribution(&self) -> Vec<f64> {
        let mut counts = vec![0.0f64; self.grid.n_cells() as usize];
        let mut total = 0.0;
        for tr in &self.trajectories {
            for &c in &tr.cells {
                counts[c.index()] += 1.0;
                total += 1.0;
            }
        }
        if total > 0.0 {
            for c in &mut counts {
                *c /= total;
            }
        }
        counts
    }

    /// Maps every trajectory as a whole through `f` (e.g. a privacy
    /// mechanism's bulk-release path), producing the perturbed database the
    /// server sees. `f` must return one cell per input epoch.
    ///
    /// # Panics
    ///
    /// Panics when `f` returns a different number of cells than it was
    /// given.
    pub fn map_trajectories<F>(&self, mut f: F) -> TrajectoryDb
    where
        F: FnMut(UserId, &[CellId]) -> Vec<CellId>,
    {
        let trajectories = self
            .trajectories
            .iter()
            .map(|tr| {
                let cells = f(tr.user, &tr.cells);
                assert_eq!(
                    cells.len(),
                    tr.cells.len(),
                    "trajectory map must preserve the horizon"
                );
                Trajectory {
                    user: tr.user,
                    cells,
                }
            })
            .collect();
        TrajectoryDb::new(self.grid.clone(), trajectories)
    }

    /// Maps every trajectory through a per-epoch transformation (e.g. a
    /// privacy mechanism), producing the perturbed database the server sees.
    pub fn map_cells<F>(&self, mut f: F) -> TrajectoryDb
    where
        F: FnMut(UserId, Timestamp, CellId) -> CellId,
    {
        let trajectories = self
            .trajectories
            .iter()
            .map(|tr| Trajectory {
                user: tr.user,
                cells: tr
                    .cells
                    .iter()
                    .enumerate()
                    .map(|(t, &c)| f(tr.user, t as Timestamp, c))
                    .collect(),
            })
            .collect();
        TrajectoryDb::new(self.grid.clone(), trajectories)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> GridMap {
        GridMap::new(4, 4, 100.0)
    }

    fn db() -> TrajectoryDb {
        let g = grid();
        let t0 = Trajectory {
            user: UserId(0),
            cells: vec![g.cell(0, 0), g.cell(1, 0), g.cell(1, 1), g.cell(1, 1)],
        };
        let t1 = Trajectory {
            user: UserId(1),
            cells: vec![g.cell(3, 3), g.cell(1, 0), g.cell(1, 1), g.cell(2, 1)],
        };
        let t2 = Trajectory {
            user: UserId(2),
            cells: vec![g.cell(0, 0), g.cell(0, 0), g.cell(0, 0), g.cell(0, 0)],
        };
        TrajectoryDb::new(g, vec![t0, t1, t2])
    }

    #[test]
    fn basic_accessors() {
        let db = db();
        assert_eq!(db.n_users(), 3);
        assert_eq!(db.horizon(), 4);
        assert_eq!(db.cell_of(UserId(0), 2), Some(db.grid().cell(1, 1)));
        assert_eq!(db.cell_of(UserId(9), 0), None);
        assert_eq!(db.cell_of(UserId(0), 99), None);
    }

    #[test]
    fn trajectory_window_and_occupancy() {
        let db = db();
        let tr = db.trajectory(UserId(0)).unwrap();
        assert_eq!(tr.window(1, 3).len(), 2);
        assert_eq!(tr.window(3, 99).len(), 1);
        assert_eq!(tr.occupancy(db.grid().cell(1, 1)), 2);
        assert_eq!(tr.distinct_cells().len(), 3);
    }

    #[test]
    fn users_at_and_occupancy() {
        let db = db();
        let g = db.grid().clone();
        let at = db.users_at(g.cell(1, 0), 1);
        assert_eq!(at.len(), 2);
        assert!(at.contains(&UserId(0)) && at.contains(&UserId(1)));
        let occ = db.occupancy_at(0);
        assert_eq!(occ[g.cell(0, 0).index()], 2);
        assert_eq!(occ[g.cell(3, 3).index()], 1);
        assert_eq!(occ.iter().sum::<u32>(), 3);
    }

    #[test]
    fn co_locations_of_user() {
        let db = db();
        let g = db.grid().clone();
        let cos = db.co_locations(UserId(0), 0, 4);
        // epochs 1 and 2 share cells with user 1; epoch 0 with user 2.
        assert_eq!(cos.len(), 3);
        assert!(cos.contains(&(1, g.cell(1, 0), UserId(1))));
        assert!(cos.contains(&(2, g.cell(1, 1), UserId(1))));
        assert!(cos.contains(&(0, g.cell(0, 0), UserId(2))));
    }

    #[test]
    fn co_location_counts_symmetric_key() {
        let db = db();
        let counts = db.co_location_counts();
        assert_eq!(counts.get(&(UserId(0), UserId(1))), Some(&2));
        assert_eq!(counts.get(&(UserId(0), UserId(2))), Some(&1));
        assert_eq!(counts.get(&(UserId(1), UserId(2))), None);
    }

    #[test]
    fn empirical_distribution_normalises() {
        let db = db();
        let dist = db.empirical_distribution();
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let g = db.grid().clone();
        // Cell (0,0) holds 1 (user 0, epoch 0) + 4 (user 2) = 5 of 12 visits.
        assert!((dist[g.cell(0, 0).index()] - 5.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn map_cells_perturbs_all_epochs() {
        let db = db();
        let g = db.grid().clone();
        let shifted = db.map_cells(|_, _, _| g.cell(2, 2));
        assert!(shifted
            .trajectories()
            .iter()
            .all(|tr| tr.cells.iter().all(|&c| c == g.cell(2, 2))));
        // Original untouched.
        assert_eq!(db.cell_of(UserId(0), 0), Some(g.cell(0, 0)));
    }

    #[test]
    #[should_panic(expected = "ragged trajectory horizons")]
    fn ragged_horizons_rejected() {
        let g = grid();
        TrajectoryDb::new(
            g.clone(),
            vec![
                Trajectory {
                    user: UserId(0),
                    cells: vec![g.cell(0, 0)],
                },
                Trajectory {
                    user: UserId(1),
                    cells: vec![g.cell(0, 0), g.cell(1, 1)],
                },
            ],
        );
    }

    #[test]
    #[should_panic(expected = "duplicate user id u0")]
    fn duplicate_users_rejected() {
        let g = grid();
        TrajectoryDb::new(
            g.clone(),
            vec![
                Trajectory {
                    user: UserId(0),
                    cells: vec![g.cell(0, 0)],
                },
                Trajectory {
                    user: UserId(0),
                    cells: vec![g.cell(1, 1)],
                },
            ],
        );
    }

    /// Duplicates need not be neighbours in the input: the sorted-id check
    /// still finds them.
    #[test]
    #[should_panic(expected = "duplicate user id u3")]
    fn non_adjacent_duplicate_users_rejected() {
        let g = grid();
        let tr = |u| Trajectory {
            user: UserId(u),
            cells: vec![g.cell(0, 0)],
        };
        TrajectoryDb::new(g.clone(), vec![tr(3), tr(9), tr(1), tr(3), tr(5)]);
    }

    #[test]
    #[should_panic(expected = "trajectory leaves the grid")]
    fn foreign_cells_rejected() {
        let g = grid();
        TrajectoryDb::new(
            g.clone(),
            vec![
                Trajectory {
                    user: UserId(0),
                    cells: vec![g.cell(0, 0), g.cell(3, 3)],
                },
                Trajectory {
                    user: UserId(1),
                    cells: vec![g.cell(1, 1), CellId(g.n_cells())],
                },
            ],
        );
    }

    #[test]
    fn zero_horizon_trajectories_accepted() {
        let db = TrajectoryDb::new(
            grid(),
            vec![
                Trajectory {
                    user: UserId(4),
                    cells: vec![],
                },
                Trajectory {
                    user: UserId(2),
                    cells: vec![],
                },
            ],
        );
        assert_eq!((db.n_users(), db.horizon()), (2, 0));
    }

    #[test]
    fn empty_db() {
        let db = TrajectoryDb::new(grid(), vec![]);
        assert_eq!(db.n_users(), 0);
        assert_eq!(db.horizon(), 0);
        assert!(db.co_location_counts().is_empty());
    }
}
