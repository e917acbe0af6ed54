//! Location policy graphs (paper Definitions 2.1–2.3) and the preset
//! policies of Figs. 2 and 4.
//!
//! A policy graph's nodes are **all** cells of a [`GridMap`]; its edges are
//! indistinguishability requirements. Node ids coincide with cell indices,
//! so `CellId(i)` is graph node `i` — no translation layer.

use crate::error::PglpError;
use panda_geo::{CellId, GridMap};
use panda_graph::distances::{ComponentDistances, DistanceLookup};
use panda_graph::{bfs, generators, ops, Graph};
use rand::seq::SliceRandom;
use rand::Rng;
use std::sync::Arc;

/// Views an interned node-id slice as a cell-id slice.
///
/// Sound because [`CellId`] is `#[repr(transparent)]` over `u32`, which is
/// what `panda_graph::NodeId` is.
#[inline]
pub(crate) fn cells_of_nodes(nodes: &[panda_graph::NodeId]) -> &[CellId] {
    // SAFETY: CellId is #[repr(transparent)] over u32 = NodeId, so the two
    // slice types have identical layout.
    unsafe { std::slice::from_raw_parts(nodes.as_ptr().cast::<CellId>(), nodes.len()) }
}

/// A location policy graph `G = (S, E)` over a grid domain (Def. 2.1).
///
/// Immutable after construction; dynamic policy updates (contact tracing's
/// `Gc` transforms) build new values via [`LocationPolicyGraph::with_isolated`]
/// and friends. Connected components — the `∞`-neighbour classes of
/// Lemma 2.1 — are interned at construction; their all-pairs distance
/// tables are built **lazily per component on first `d_G` touch** (see
/// [`panda_graph::distances`]), so transient one-shot policies skip the
/// all-pairs BFS entirely while hot-path `d_G` queries stay table lookups
/// after warm-up. The component/distance state (which also owns the graph)
/// is shared through an [`Arc`], keeping `Clone` cheap.
#[derive(Debug, Clone)]
pub struct LocationPolicyGraph {
    grid: GridMap,
    dist: Arc<ComponentDistances>,
    name: String,
}

impl LocationPolicyGraph {
    /// Wraps an arbitrary graph as a policy over `grid`.
    ///
    /// # Panics
    ///
    /// Panics when the node count differs from the cell count.
    pub fn from_graph(grid: GridMap, graph: Graph, name: impl Into<String>) -> Self {
        Self::from_graph_with_budgets(
            grid,
            graph,
            name,
            panda_graph::distances::DEFAULT_MAX_TABLE_ENTRIES,
            panda_graph::distances::DEFAULT_ORACLE_ENTRIES_PER_NODE,
        )
    }

    /// Wraps an arbitrary graph as a policy with explicit distance-index
    /// budgets: `max_table_entries` caps dense per-component tables (k²
    /// cells), `oracle_entries_per_node` caps the hub-label oracle used
    /// above the dense budget (`0` disables it). For tests and benches that
    /// force a specific backend; production callers should use
    /// [`LocationPolicyGraph::from_graph`].
    ///
    /// # Panics
    ///
    /// Panics when the node count differs from the cell count.
    pub fn from_graph_with_budgets(
        grid: GridMap,
        graph: Graph,
        name: impl Into<String>,
        max_table_entries: usize,
        oracle_entries_per_node: usize,
    ) -> Self {
        assert_eq!(
            graph.n_nodes(),
            grid.n_cells(),
            "policy graph must have one node per grid cell"
        );
        let dist = Arc::new(ComponentDistances::from_graph_with_budgets(
            graph,
            max_table_entries,
            oracle_entries_per_node,
        ));
        LocationPolicyGraph {
            grid,
            dist,
            name: name.into(),
        }
    }

    // ------------------------------------------------------------------
    // Presets from the paper's figures
    // ------------------------------------------------------------------

    /// `G1` (Fig. 2 left): every location adjacent to its eight closest
    /// neighbours. By Theorem 2.1, {ε,G1}-location privacy implies
    /// ε-Geo-Indistinguishability (in cell units).
    pub fn g1_geo_indistinguishability(grid: GridMap) -> Self {
        let g = generators::grid8(grid.width(), grid.height());
        Self::from_graph(grid, g, "G1-geo-ind")
    }

    /// 4-neighbour variant of `G1` (Manhattan adjacency).
    pub fn grid4(grid: GridMap) -> Self {
        let g = generators::grid4(grid.width(), grid.height());
        Self::from_graph(grid, g, "G1-grid4")
    }

    /// `G2` (Fig. 2 right): complete graph over a δ-location set; all other
    /// cells are isolated. By Theorem 2.2, {ε,G2}-location privacy implies
    /// δ-Location Set Privacy.
    ///
    /// # Errors
    ///
    /// [`PglpError::EmptyLocationSet`] when `location_set` is empty,
    /// [`PglpError::LocationOutOfDomain`] for foreign cells.
    pub fn g2_location_set(grid: GridMap, location_set: &[CellId]) -> Result<Self, PglpError> {
        if location_set.is_empty() {
            return Err(PglpError::EmptyLocationSet);
        }
        let mut g = Graph::empty(grid.n_cells());
        for &c in location_set {
            if !grid.contains(c) {
                return Err(PglpError::LocationOutOfDomain(c));
            }
        }
        for (i, &a) in location_set.iter().enumerate() {
            for &b in location_set.iter().skip(i + 1) {
                if a != b {
                    g.add_edge(a.0, b.0);
                }
            }
        }
        Ok(Self::from_graph(grid, g, "G2-location-set"))
    }

    /// `Ga`/`Gb` (Fig. 4): partition the grid into `block_w × block_h` areas
    /// and require indistinguishability exactly *within* each area.
    ///
    /// Coarse blocks (e.g. districts) give `Ga` — suitable for location
    /// monitoring; finer blocks give `Gb` — suitable for epidemic analysis.
    pub fn partition(grid: GridMap, block_w: u32, block_h: u32) -> Self {
        let labels: Vec<u32> = (0..grid.n_cells())
            .map(|i| grid.block_of(CellId(i), block_w, block_h))
            .collect();
        let g = generators::partition_cliques(&labels);
        let name = format!("partition-{block_w}x{block_h}");
        Self::from_graph(grid, g, name)
    }

    /// The all-isolated policy: release everything exactly (no privacy).
    pub fn isolated(grid: GridMap) -> Self {
        let g = Graph::empty(grid.n_cells());
        Self::from_graph(grid, g, "isolated")
    }

    /// Complete policy over the whole domain: maximal indistinguishability.
    pub fn complete(grid: GridMap) -> Self {
        let g = generators::complete(grid.n_cells());
        Self::from_graph(grid, g, "complete")
    }

    /// The demo's "Random Policy Graph" (Fig. 5): choose `size` distinct
    /// cells uniformly, then connect them with an exact-edge-count random
    /// graph of the given `density`. All remaining cells stay isolated.
    ///
    /// # Panics
    ///
    /// Panics when `size` exceeds the cell count or density is outside
    /// `[0, 1]`.
    pub fn random<R: Rng + ?Sized>(grid: GridMap, size: u32, density: f64, rng: &mut R) -> Self {
        assert!(size <= grid.n_cells(), "size exceeds number of cells");
        let mut cells: Vec<u32> = (0..grid.n_cells()).collect();
        cells.shuffle(rng);
        cells.truncate(size as usize);
        let sub = generators::random_with_density(rng, size, density);
        let mut g = Graph::empty(grid.n_cells());
        for (a, b) in sub.edges() {
            g.add_edge(cells[a as usize], cells[b as usize]);
        }
        let name = format!("random-s{size}-d{density:.3}");
        Self::from_graph(grid, g, name)
    }

    /// `Gc` (Fig. 4 right): returns a copy of this policy with the given
    /// cells isolated — "allowing disclosure of the true location if the
    /// user accesses an infected location", keeping all other
    /// indistinguishability requirements intact.
    pub fn with_isolated(&self, cells: &[CellId]) -> Self {
        let nodes: Vec<u32> = cells.iter().map(|c| c.0).collect();
        let g = ops::isolate_nodes(self.graph(), &nodes);
        Self::from_graph(self.grid.clone(), g, format!("{}+isolated", self.name))
    }

    /// Returns a copy with extra indistinguishability edges added.
    pub fn with_edges(&self, extra: &[(CellId, CellId)]) -> Self {
        let pairs: Vec<(u32, u32)> = extra.iter().map(|&(a, b)| (a.0, b.0)).collect();
        let g = ops::with_edges(self.graph(), &pairs);
        Self::from_graph(self.grid.clone(), g, format!("{}+edges", self.name))
    }

    // ------------------------------------------------------------------
    // Policy algebra: combining user and server requirements
    // ------------------------------------------------------------------

    /// The **union** policy: an edge whenever either input requires it —
    /// every promise of both policies is kept.
    ///
    /// This is how a user's personal policy composes with a server
    /// recommendation: the user accepts the recommendation *plus* keeps
    /// their own demands. A mechanism satisfying the union satisfies both
    /// inputs (its edge set is a superset of each).
    ///
    /// # Errors
    ///
    /// [`PglpError::DomainMismatch`] when the grids differ.
    pub fn union(&self, other: &LocationPolicyGraph) -> Result<Self, PglpError> {
        if self.grid != *other.grid() {
            return Err(PglpError::DomainMismatch);
        }
        let g = ops::union(self.graph(), other.graph());
        Ok(Self::from_graph(
            self.grid.clone(),
            g,
            format!("({})∪({})", self.name, other.name),
        ))
    }

    /// The **intersection** policy: an edge only where both inputs agree —
    /// the weakest requirement both parties consider acceptable.
    ///
    /// Used when the server must relax a policy to the portion both parties
    /// consented to; a mechanism satisfying either *input* automatically
    /// satisfies the intersection.
    ///
    /// # Errors
    ///
    /// [`PglpError::DomainMismatch`] when the grids differ.
    pub fn intersection(&self, other: &LocationPolicyGraph) -> Result<Self, PglpError> {
        if self.grid != *other.grid() {
            return Err(PglpError::DomainMismatch);
        }
        let mut g = Graph::empty(self.grid.n_cells());
        for (a, b) in self.graph().edges() {
            if other.graph().has_edge(a, b) {
                g.add_edge(a, b);
            }
        }
        Ok(Self::from_graph(
            self.grid.clone(),
            g,
            format!("({})∩({})", self.name, other.name),
        ))
    }

    /// `true` when this policy is at least as strong as `other`: every edge
    /// `other` requires is also required here (so any mechanism satisfying
    /// `self` satisfies `other`). Grids must match.
    pub fn is_at_least_as_strict_as(&self, other: &LocationPolicyGraph) -> bool {
        self.grid == *other.grid()
            && other
                .graph()
                .edges()
                .all(|(a, b)| self.graph().has_edge(a, b))
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The grid domain `S`.
    #[inline]
    pub fn grid(&self) -> &GridMap {
        &self.grid
    }

    /// The underlying indistinguishability graph (owned by the shared
    /// component/distance index).
    #[inline]
    pub fn graph(&self) -> &Graph {
        self.dist.graph()
    }

    /// Human-readable policy name (used in experiment output).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of locations in the domain.
    pub fn n_locations(&self) -> u32 {
        self.grid.n_cells()
    }

    /// Edge density of the policy graph (the Fig. 5 "Density" readout).
    pub fn density(&self) -> f64 {
        panda_graph::properties::density(self.graph())
    }

    // ------------------------------------------------------------------
    // Paper Definitions 2.2 / 2.3 and Lemma 2.1
    // ------------------------------------------------------------------

    /// `d_G(a, b)` (Def. 2.2): shortest-path distance in the policy graph,
    /// or `None` when `a` and `b` are not `∞`-neighbours.
    ///
    /// O(1) table lookup for components within the precomputed-index budget;
    /// BFS only for oversized components.
    pub fn distance(&self, a: CellId, b: CellId) -> Option<u32> {
        match self.dist.distance(a.0, b.0) {
            DistanceLookup::DifferentComponents => None,
            DistanceLookup::Known(d) => Some(d),
            DistanceLookup::NotIndexed => {
                let d = bfs::shortest_path_len(self.graph(), a.0, b.0);
                debug_assert_ne!(d, bfs::INFINITE);
                Some(d)
            }
        }
    }

    /// `N^k(s)` (Def. 2.3): all cells within `k` hops of `s`, including `s`.
    pub fn k_neighbors(&self, s: CellId, k: u32) -> Vec<CellId> {
        bfs::k_neighbors(self.graph(), s.0, k)
            .into_iter()
            .map(CellId)
            .collect()
    }

    /// `true` when `{a, b}` is a policy edge (1-neighbours, the pairs bound
    /// by Def. 2.4 directly).
    pub fn are_neighbors(&self, a: CellId, b: CellId) -> bool {
        self.graph().has_edge(a.0, b.0)
    }

    /// `true` when `a` and `b` are `∞`-neighbours (same component).
    pub fn same_component(&self, a: CellId, b: CellId) -> bool {
        self.dist.same_component(a.0, b.0)
    }

    /// Component index of a cell.
    pub fn component_of(&self, c: CellId) -> u32 {
        self.dist.component_of(c.0)
    }

    /// All cells in the component of `c` (sorted), as an interned slice —
    /// the support a mechanism may release when the true location is `c`.
    /// No allocation; prefer this over
    /// [`LocationPolicyGraph::component_cells`] on hot paths.
    #[inline]
    pub fn component_slice(&self, c: CellId) -> &[CellId] {
        cells_of_nodes(self.dist.members_of(c.0))
    }

    /// All cells in the component of `c` (sorted), as an owned `Vec`.
    pub fn component_cells(&self, c: CellId) -> Vec<CellId> {
        self.component_slice(c).to_vec()
    }

    /// Number of connected components.
    pub fn n_components(&self) -> u32 {
        self.dist.n_components()
    }

    /// The shared component/distance index built at construction.
    #[inline]
    pub fn distance_index(&self) -> &Arc<ComponentDistances> {
        &self.dist
    }

    /// `true` when the cell is an isolated node — releasable exactly
    /// (Lemma 2.1's extreme case).
    pub fn is_isolated_cell(&self, c: CellId) -> bool {
        self.graph().is_isolated(c.0)
    }

    /// The indistinguishability level Lemma 2.1 requires between `a` and
    /// `b` at privacy level `eps`: `ε · d_G(a,b)`, or `None` when
    /// unconstrained (different components).
    pub fn required_indistinguishability(&self, eps: f64, a: CellId, b: CellId) -> Option<f64> {
        self.distance(a, b).map(|d| eps * d as f64)
    }

    /// Distances from `s` to every cell of its component in member-slice
    /// order, written into `out` (resized to the component size). Served
    /// from the distance index — a dense-row copy or one hub-label join —
    /// with a single-BFS fallback for unindexed components. Returns `false`
    /// (leaving `out` empty) only when the component exceeds 65535 cells
    /// *and* is unindexed, i.e. distances may not fit `u16`.
    ///
    /// This is the row primitive behind `PolicyIndex`'s distance-ring cache:
    /// every ε over the same cell reuses the rings built from one row.
    pub fn component_row_u16(&self, s: CellId, out: &mut Vec<u16>) -> bool {
        if self.dist.row_into(s.0, out) {
            return true;
        }
        let members = self.dist.members_of(s.0);
        if members.len() > usize::from(u16::MAX) {
            out.clear();
            return false;
        }
        let dist = bfs::bfs_distances(self.graph(), s.0);
        out.clear();
        out.extend(members.iter().map(|&v| {
            debug_assert_ne!(dist[v as usize], bfs::INFINITE);
            // Fits: eccentricity < k ≤ u16::MAX (checked above).
            dist[v as usize] as u16
        }));
        true
    }

    /// Distances from `s` to every cell of its component, as `(cell, d_G)`
    /// pairs sorted by cell id. The workhorse of the graph-exponential
    /// mechanism — served from the distance index (dense row copy or
    /// hub-label join, no BFS) except for unindexed components.
    pub fn component_distances(&self, s: CellId) -> Vec<(CellId, u32)> {
        let mut row = Vec::new();
        if self.component_row_u16(s, &mut row) {
            self.component_slice(s)
                .iter()
                .zip(&row)
                .map(|(&c, &d)| (c, u32::from(d)))
                .collect()
        } else {
            // Gigantic unindexed component: distances may exceed u16.
            let dist = bfs::bfs_distances(self.graph(), s.0);
            dist.into_iter()
                .enumerate()
                .filter(|&(_, d)| d != bfs::INFINITE)
                .map(|(i, d)| (CellId(i as u32), d))
                .collect()
        }
    }

    /// Validates that a cell belongs to the domain.
    pub fn check_cell(&self, c: CellId) -> Result<(), PglpError> {
        if self.grid.contains(c) {
            Ok(())
        } else {
            Err(PglpError::LocationOutOfDomain(c))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn grid() -> GridMap {
        GridMap::new(4, 4, 100.0)
    }

    #[test]
    fn g1_matches_grid8_adjacency() {
        let p = LocationPolicyGraph::g1_geo_indistinguishability(grid());
        let g = p.grid().clone();
        let c = g.cell(1, 1);
        for n in g.neighbors8(c) {
            assert!(p.are_neighbors(c, n));
        }
        assert!(!p.are_neighbors(g.cell(0, 0), g.cell(2, 0)));
        assert_eq!(p.n_components(), 1);
        assert_eq!(p.name(), "G1-geo-ind");
    }

    #[test]
    fn g1_distance_is_chebyshev() {
        let p = LocationPolicyGraph::g1_geo_indistinguishability(grid());
        let g = p.grid().clone();
        assert_eq!(p.distance(g.cell(0, 0), g.cell(3, 2)), Some(3));
        assert_eq!(p.distance(g.cell(0, 0), g.cell(0, 0)), Some(0));
    }

    #[test]
    fn g2_complete_over_subset() {
        let g = grid();
        let set = vec![g.cell(0, 0), g.cell(1, 1), g.cell(3, 3)];
        let p = LocationPolicyGraph::g2_location_set(g.clone(), &set).unwrap();
        assert!(p.are_neighbors(set[0], set[1]));
        assert!(p.are_neighbors(set[0], set[2]));
        assert!(p.is_isolated_cell(g.cell(2, 2)));
        // Components: one 3-clique + 13 singletons.
        assert_eq!(p.n_components(), 14);
    }

    #[test]
    fn g2_rejects_bad_input() {
        assert_eq!(
            LocationPolicyGraph::g2_location_set(grid(), &[]).unwrap_err(),
            PglpError::EmptyLocationSet
        );
        assert_eq!(
            LocationPolicyGraph::g2_location_set(grid(), &[CellId(999)]).unwrap_err(),
            PglpError::LocationOutOfDomain(CellId(999))
        );
    }

    #[test]
    fn partition_policy_components_are_blocks() {
        let p = LocationPolicyGraph::partition(grid(), 2, 2);
        assert_eq!(p.n_components(), 4);
        let g = p.grid().clone();
        assert!(p.are_neighbors(g.cell(0, 0), g.cell(1, 1)));
        assert!(!p.same_component(g.cell(0, 0), g.cell(2, 0)));
        // Every pair in a block is 1 hop (clique).
        assert_eq!(p.distance(g.cell(0, 0), g.cell(1, 1)), Some(1));
    }

    #[test]
    fn isolated_and_complete_extremes() {
        let p0 = LocationPolicyGraph::isolated(grid());
        assert_eq!(p0.n_components(), 16);
        assert!(p0.grid().cells().all(|c| p0.is_isolated_cell(c)));
        assert_eq!(p0.density(), 0.0);

        let p1 = LocationPolicyGraph::complete(grid());
        assert_eq!(p1.n_components(), 1);
        assert_eq!(p1.density(), 1.0);
        assert_eq!(p1.distance(CellId(0), CellId(15)), Some(1));
    }

    #[test]
    fn random_policy_size_and_density() {
        let mut rng = SmallRng::seed_from_u64(42);
        let p = LocationPolicyGraph::random(grid(), 8, 0.5, &mut rng);
        let expect_edges = (0.5_f64 * (8.0 * 7.0 / 2.0)).floor() as usize;
        assert_eq!(p.graph().n_edges(), expect_edges);
        // At least 16 - 8 cells stay isolated.
        let isolated = p.grid().cells().filter(|&c| p.is_isolated_cell(c)).count();
        assert!(isolated >= 8);
    }

    #[test]
    fn with_isolated_is_gc_transform() {
        let p = LocationPolicyGraph::g1_geo_indistinguishability(grid());
        let g = p.grid().clone();
        let infected = vec![g.cell(1, 1), g.cell(2, 2)];
        let gc = p.with_isolated(&infected);
        assert!(gc.is_isolated_cell(infected[0]));
        assert!(gc.is_isolated_cell(infected[1]));
        // Untouched edges survive.
        assert!(gc.are_neighbors(g.cell(0, 3), g.cell(1, 3)));
        // Original policy unchanged.
        assert!(!p.is_isolated_cell(infected[0]));
    }

    #[test]
    fn with_edges_adds_requirements() {
        let p = LocationPolicyGraph::isolated(grid());
        let p2 = p.with_edges(&[(CellId(0), CellId(5))]);
        assert!(p2.are_neighbors(CellId(0), CellId(5)));
        assert_eq!(p2.n_components(), 15);
    }

    #[test]
    fn k_neighbors_definition() {
        let p = LocationPolicyGraph::grid4(grid());
        let g = p.grid().clone();
        let n1 = p.k_neighbors(g.cell(1, 1), 1);
        assert_eq!(n1.len(), 5); // self + 4 neighbours
        assert!(n1.contains(&g.cell(1, 1)));
        let all = p.k_neighbors(g.cell(0, 0), u32::MAX);
        assert_eq!(all.len(), 16);
    }

    #[test]
    fn required_indistinguishability_scales_with_distance() {
        let p = LocationPolicyGraph::grid4(grid());
        let g = p.grid().clone();
        let r = p
            .required_indistinguishability(0.5, g.cell(0, 0), g.cell(2, 0))
            .unwrap();
        assert_eq!(r, 1.0); // d_G = 2, eps*d = 0.5*2
        let iso = LocationPolicyGraph::isolated(g.clone());
        assert_eq!(
            iso.required_indistinguishability(0.5, g.cell(0, 0), g.cell(1, 0)),
            None
        );
    }

    #[test]
    fn component_distances_cover_component() {
        let p = LocationPolicyGraph::partition(grid(), 2, 2);
        let g = p.grid().clone();
        let cd = p.component_distances(g.cell(0, 0));
        assert_eq!(cd.len(), 4);
        assert!(cd.iter().all(|&(_, d)| d <= 1));
        assert!(cd.contains(&(g.cell(0, 0), 0)));
    }

    #[test]
    fn check_cell_domain() {
        let p = LocationPolicyGraph::isolated(grid());
        assert!(p.check_cell(CellId(15)).is_ok());
        assert!(p.check_cell(CellId(16)).is_err());
    }

    #[test]
    #[should_panic(expected = "one node per grid cell")]
    fn from_graph_size_mismatch_panics() {
        LocationPolicyGraph::from_graph(grid(), Graph::empty(5), "bad");
    }

    #[test]
    fn union_keeps_all_promises() {
        let ga = LocationPolicyGraph::partition(grid(), 2, 2);
        let g1 = LocationPolicyGraph::grid4(grid());
        let u = ga.union(&g1).unwrap();
        assert!(u.is_at_least_as_strict_as(&ga));
        assert!(u.is_at_least_as_strict_as(&g1));
        assert!(u.graph().n_edges() <= ga.graph().n_edges() + g1.graph().n_edges());
    }

    #[test]
    fn intersection_is_weaker_than_both() {
        let ga = LocationPolicyGraph::partition(grid(), 2, 2);
        let g1 = LocationPolicyGraph::grid4(grid());
        let i = ga.intersection(&g1).unwrap();
        assert!(ga.is_at_least_as_strict_as(&i));
        assert!(g1.is_at_least_as_strict_as(&i));
        // Shared edges survive: horizontally adjacent cells in one block.
        let g = ga.grid().clone();
        assert!(i.are_neighbors(g.cell(0, 0), g.cell(1, 0)));
        // Diagonal block edges are not in grid4: dropped.
        assert!(!i.are_neighbors(g.cell(0, 0), g.cell(1, 1)));
    }

    #[test]
    fn algebra_identities() {
        let p = LocationPolicyGraph::grid4(grid());
        let iso = LocationPolicyGraph::isolated(grid());
        // p ∪ ∅ = p; p ∩ ∅ = ∅.
        assert_eq!(
            p.union(&iso).unwrap().graph().n_edges(),
            p.graph().n_edges()
        );
        assert!(p.intersection(&iso).unwrap().graph().is_edgeless());
        // Self-comparison.
        assert!(p.is_at_least_as_strict_as(&p));
        assert!(p.is_at_least_as_strict_as(&iso));
        assert!(!iso.is_at_least_as_strict_as(&p));
    }

    #[test]
    fn algebra_rejects_domain_mismatch() {
        let p = LocationPolicyGraph::grid4(grid());
        let other = LocationPolicyGraph::grid4(GridMap::new(5, 5, 100.0));
        assert_eq!(p.union(&other).unwrap_err(), PglpError::DomainMismatch);
        assert_eq!(
            p.intersection(&other).unwrap_err(),
            PglpError::DomainMismatch
        );
        assert!(!p.is_at_least_as_strict_as(&other));
    }
}
