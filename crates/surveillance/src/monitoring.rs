//! Location monitoring (§3.1, first application).
//!
//! "Location monitoring focuses on understanding people's movement between
//! different cities or provinces in a coarse-grained level." Under the `Ga`
//! policy, perturbed reports still identify the coarse area exactly
//! (components never cross areas), so area occupancy and inter-area
//! movement matrices stay accurate while within-area locations remain
//! private. The utility metric is the one the demo plots: Euclidean
//! distance between perturbed and real locations (§3.2).

use panda_mobility::{Timestamp, TrajectoryDb};
use serde::{Deserialize, Serialize};

/// Per-epoch occupancy counts of each coarse area (`epochs × areas`).
///
/// One pass over the database in trajectory order: a cell → area table is
/// built once, and each trajectory adds into one flat `epochs × areas`
/// buffer, so every trajectory is read front to back exactly once.
pub fn occupancy_by_area(db: &TrajectoryDb, block: u32) -> Vec<Vec<u32>> {
    let grid = db.grid();
    let n_areas = grid.n_blocks(block, block) as usize;
    let area_of: Vec<u32> = grid
        .cells()
        .map(|c| grid.block_of(c, block, block))
        .collect();
    let mut flat = vec![0u32; db.horizon() as usize * n_areas];
    for tr in db.trajectories() {
        for (row, &c) in flat.chunks_exact_mut(n_areas).zip(&tr.cells) {
            row[area_of[c.index()] as usize] += 1;
        }
    }
    flat.chunks_exact(n_areas).map(<[u32]>::to_vec).collect()
}

/// Aggregate inter-area movement matrix over the whole horizon:
/// `matrix[a][b]` counts epoch transitions from area `a` to area `b`
/// (diagonal = staying).
pub fn movement_matrix(db: &TrajectoryDb, block: u32) -> Vec<Vec<u32>> {
    let grid = db.grid();
    let n_areas = grid.n_blocks(block, block) as usize;
    let mut m = vec![vec![0u32; n_areas]; n_areas];
    for tr in db.trajectories() {
        for w in tr.cells.windows(2) {
            let a = grid.block_of(w[0], block, block) as usize;
            let b = grid.block_of(w[1], block, block) as usize;
            m[a][b] += 1;
        }
    }
    m
}

/// Utility report comparing a perturbed database against ground truth.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MonitoringUtility {
    /// Mean Euclidean distance between reported and true cells, in grid
    /// length units — the §3.2 utility metric.
    pub mean_distance: f64,
    /// Fraction of (user, epoch) pairs whose **coarse area** was reported
    /// correctly.
    pub area_accuracy: f64,
    /// Mean per-epoch L1 distance between true and reported area-occupancy
    /// histograms, normalised by population.
    pub occupancy_l1: f64,
}

/// Computes [`MonitoringUtility`] for matched databases.
///
/// # Panics
///
/// Panics when the databases disagree on users, horizon or grid.
pub fn monitoring_utility(
    truth: &TrajectoryDb,
    reported: &TrajectoryDb,
    block: u32,
) -> MonitoringUtility {
    assert_eq!(truth.horizon(), reported.horizon(), "horizon mismatch");
    assert_eq!(truth.n_users(), reported.n_users(), "population mismatch");
    let grid = truth.grid();
    let mut total_d = 0.0;
    let mut correct_area = 0usize;
    let mut n = 0usize;
    for tr in truth.trajectories() {
        let rep = reported
            .trajectory(tr.user)
            .expect("user missing from reported db");
        for t in 0..truth.horizon() {
            let (a, b) = (tr.at(t).unwrap(), rep.at(t).unwrap());
            total_d += grid.distance(a, b);
            if grid.block_of(a, block, block) == grid.block_of(b, block, block) {
                correct_area += 1;
            }
            n += 1;
        }
    }
    // Occupancy error.
    let occ_t = occupancy_by_area(truth, block);
    let occ_r = occupancy_by_area(reported, block);
    let pop = truth.n_users().max(1) as f64;
    let occupancy_l1 = occ_t
        .iter()
        .zip(occ_r.iter())
        .map(|(a, b)| {
            a.iter()
                .zip(b.iter())
                .map(|(&x, &y)| (x as f64 - y as f64).abs())
                .sum::<f64>()
                / pop
        })
        .sum::<f64>()
        / occ_t.len().max(1) as f64;
    MonitoringUtility {
        mean_distance: total_d / n.max(1) as f64,
        area_accuracy: correct_area as f64 / n.max(1) as f64,
        occupancy_l1,
    }
}

/// Total flow leaving each area (row sums minus diagonal) — the headline
/// numbers of a "movement between cities" dashboard.
pub fn outflow(matrix: &[Vec<u32>]) -> Vec<u32> {
    matrix
        .iter()
        .enumerate()
        .map(|(a, row)| {
            row.iter()
                .enumerate()
                .filter(|&(b, _)| b != a)
                .map(|(_, &v)| v)
                .sum()
        })
        .collect()
}

/// Epoch at which each area's occupancy peaks.
pub fn peak_epochs(occupancy: &[Vec<u32>]) -> Vec<Timestamp> {
    if occupancy.is_empty() {
        return Vec::new();
    }
    let n_areas = occupancy[0].len();
    (0..n_areas)
        .map(|a| {
            occupancy
                .iter()
                .enumerate()
                .max_by_key(|&(_, row)| row[a])
                .map(|(t, _)| t as Timestamp)
                .unwrap_or(0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_geo::GridMap;
    use panda_mobility::{Trajectory, UserId};
    use proptest::prelude::*;

    /// The reference [`occupancy_by_area`]: epoch-major, one `block_of`
    /// per (epoch, user).
    fn occupancy_epoch_major(db: &TrajectoryDb, block: u32) -> Vec<Vec<u32>> {
        let grid = db.grid();
        let n_areas = grid.n_blocks(block, block) as usize;
        let mut out = Vec::with_capacity(db.horizon() as usize);
        for t in 0..db.horizon() {
            let mut counts = vec![0u32; n_areas];
            for tr in db.trajectories() {
                if let Some(c) = tr.at(t) {
                    counts[grid.block_of(c, block, block) as usize] += 1;
                }
            }
            out.push(counts);
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The single-pass kernel equals the epoch-major reference: empty
        /// databases, horizon 0, ragged edge blocks and blocks larger than
        /// the grid included.
        #[test]
        fn single_pass_occupancy_matches_epoch_major(
            w in 1u32..9,
            h in 1u32..9,
            n_users in 0usize..12,
            horizon in 0usize..10,
            block in 1u32..12,
            seed in any::<u64>(),
        ) {
            let db = crate::test_support::random_db(GridMap::new(w, h, 100.0), n_users, horizon, seed);
            prop_assert_eq!(occupancy_by_area(&db, block), occupancy_epoch_major(&db, block));
        }
    }

    fn db() -> TrajectoryDb {
        let g = GridMap::new(4, 4, 100.0);
        TrajectoryDb::new(
            g.clone(),
            vec![
                Trajectory {
                    user: UserId(0),
                    // area 0 → area 0 → area 1 (blocks of 2)
                    cells: vec![g.cell(0, 0), g.cell(1, 1), g.cell(2, 0)],
                },
                Trajectory {
                    user: UserId(1),
                    cells: vec![g.cell(3, 3), g.cell(3, 3), g.cell(3, 3)],
                },
            ],
        )
    }

    #[test]
    fn occupancy_counts() {
        let occ = occupancy_by_area(&db(), 2);
        assert_eq!(occ.len(), 3);
        assert_eq!(occ[0], vec![1, 0, 0, 1]);
        assert_eq!(occ[2], vec![0, 1, 0, 1]);
    }

    #[test]
    fn movement_matrix_counts_transitions() {
        let m = movement_matrix(&db(), 2);
        assert_eq!(m[0][0], 1); // user 0 stays in area 0 once
        assert_eq!(m[0][1], 1); // then moves to area 1
        assert_eq!(m[3][3], 2); // user 1 never moves
        assert_eq!(outflow(&m), vec![1, 0, 0, 0]);
    }

    #[test]
    fn utility_perfect_for_identical_dbs() {
        let d = db();
        let u = monitoring_utility(&d, &d, 2);
        assert_eq!(u.mean_distance, 0.0);
        assert_eq!(u.area_accuracy, 1.0);
        assert_eq!(u.occupancy_l1, 0.0);
    }

    #[test]
    fn utility_detects_within_area_perturbation() {
        let truth = db();
        let g = truth.grid().clone();
        // Perturb user 0's first epoch within its 2x2 area.
        let reported = truth.map_cells(|u, t, c| {
            if u == UserId(0) && t == 0 {
                g.cell(1, 0)
            } else {
                c
            }
        });
        let u = monitoring_utility(&truth, &reported, 2);
        assert!(u.mean_distance > 0.0);
        assert_eq!(u.area_accuracy, 1.0, "within-area moves keep the area");
        assert_eq!(u.occupancy_l1, 0.0);
    }

    #[test]
    fn utility_detects_cross_area_perturbation() {
        let truth = db();
        let g = truth.grid().clone();
        let reported = truth.map_cells(|u, t, c| {
            if u == UserId(1) && t == 2 {
                g.cell(0, 0) // jump from area 3 to area 0
            } else {
                c
            }
        });
        let u = monitoring_utility(&truth, &reported, 2);
        assert!(u.area_accuracy < 1.0);
        assert!(u.occupancy_l1 > 0.0);
    }

    #[test]
    fn peak_epoch_detection() {
        let occ = vec![vec![3, 0], vec![1, 2], vec![0, 5]];
        assert_eq!(peak_epochs(&occ), vec![0, 2]);
        assert!(peak_epochs(&[]).is_empty());
    }
}
