//! Lazy per-component distance indexes: dense tables + hub-label oracle.
//!
//! Every PGLP mechanism call needs `d_G(s, z)` for all `z` in the component
//! of `s` (Def. 2.2), and the seed implementation re-ran a BFS on every
//! query. This module computes those distances **once per component, on
//! first touch**: component membership is interned eagerly (one cheap
//! labelling pass at construction), while each component's index is built
//! lazily behind a [`OnceLock`] the first time a query lands in it.
//! Transient policies (per-epoch timeline repair, refused assignments,
//! random-policy sweeps) therefore never pay index construction for
//! components they never query, while long-lived policies converge to the
//! fully-indexed state after a warm-up touch per component (or one
//! [`ComponentDistances::prebuild`] call).
//!
//! Two backends, auto-selected per component by size:
//!
//! * **Dense** (`k² ≤ max_table_entries`, i.e. ≤ 4096 nodes at the default
//!   budget): a `k × k` table of `u16` hop counts; `distance()` is one load
//!   and [`ComponentDistances::row`] is a slice borrow.
//! * **Hub labels** (larger components): the exact 2-hop oracle of
//!   [`crate::oracle`]. `distance()` is a label merge-join and full rows
//!   materialise via [`ComponentDistances::row_into`] — city-scale
//!   components (50k+ nodes) index in seconds and a few hundred megabytes
//!   where a dense table would need gigabytes.
//!
//! Components where *both* backends decline (label budget exhausted on
//! degenerate topologies, or `k > 65535`) stay unindexed; callers fall back
//! to on-demand BFS for those, so pathological policies degrade to the seed
//! behaviour instead of exhausting memory.

use crate::bfs;
use crate::components::{connected_components, ComponentLabels};
use crate::graph::{Graph, NodeId};
use crate::oracle::HubLabels;
use std::sync::OnceLock;

/// Default per-component dense-table budget: 16 Mi entries (32 MiB of
/// `u16`), i.e. components of up to 4096 nodes are fully tabulated.
pub const DEFAULT_MAX_TABLE_ENTRIES: usize = 1 << 24;

/// Default hub-label budget, as *average entries per member*: a component
/// of `k` nodes may spend `k × 512` label entries before construction
/// aborts. Grid-like city graphs come in far below this (≈ 100–200 at 50k
/// nodes); the cap exists to stop degenerate topologies (clique-like
/// components have Θ(n²) 2-hop covers) from silently re-growing the dense
/// footprint under a different name.
pub const DEFAULT_ORACLE_ENTRIES_PER_NODE: usize = 512;

/// Result of a distance lookup in [`ComponentDistances`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistanceLookup {
    /// The nodes are in different components (`d_G = ∞`).
    DifferentComponents,
    /// Indexed distance (dense table or hub labels).
    Known(u32),
    /// Same component, but the component exceeds every index budget; the
    /// caller must BFS.
    NotIndexed,
}

/// Which index backend serves a component (diagnostics / bench reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexBackend {
    /// Dense `k × k` table.
    Dense,
    /// 2-hop hub labels ([`crate::oracle::HubLabels`]).
    HubLabels,
    /// Over every budget; queries fall back to BFS.
    Unindexed,
}

/// Dense distance table of one component: `d[i * k + j]` is the hop count
/// between the `i`-th and `j`-th member (member order = sorted node id).
#[derive(Debug, Clone)]
struct DistanceTable {
    k: usize,
    d: Vec<u16>,
}

/// The per-component index: dense below the table budget, hub labels above.
#[derive(Debug, Clone)]
enum ComponentIndex {
    Dense(DistanceTable),
    Hub(HubLabels),
}

/// Interned component membership plus lazily-built per-component distance
/// indexes.
///
/// Construction costs one component-labelling pass (`O(V + E)`). The first
/// query into a component builds its index — one BFS per member for dense
/// tables, one *pruned* BFS per member for hub labels — after which
/// [`ComponentDistances::distance`] is a table load or label merge and
/// [`ComponentDistances::members_of`] is a slice borrow. The lazy build is
/// thread-safe (`OnceLock` per component): concurrent first touches build
/// once and share the result.
#[derive(Debug, Clone)]
pub struct ComponentDistances {
    /// The graph the indexes are built over (owned so they can be built
    /// lazily after construction).
    graph: Graph,
    labels: ComponentLabels,
    /// `members[offsets[c]..offsets[c + 1]]` are the sorted nodes of
    /// component `c`.
    offsets: Vec<u32>,
    members: Vec<NodeId>,
    /// `rank[v]` is the position of `v` within its component slice.
    rank: Vec<u32>,
    /// Indexed by component id; built on first touch. The inner `Option`
    /// is `None` for components over every budget. On `clone`,
    /// already-built indexes carry over; unbuilt ones stay lazy.
    tables: Vec<OnceLock<Option<ComponentIndex>>>,
    max_table_entries: usize,
    /// Hub-label budget in average entries per member (`0` disables the
    /// oracle backend entirely).
    oracle_entries_per_node: usize,
}

impl ComponentDistances {
    /// Interns components of `g` with the default budgets (the graph is
    /// cloned; prefer [`ComponentDistances::from_graph`] when an owned
    /// graph is at hand).
    pub fn new(g: &Graph) -> Self {
        Self::from_graph(g.clone(), DEFAULT_MAX_TABLE_ENTRIES)
    }

    /// Interns components of `g`, dense-tabulating (lazily) only components
    /// with at most `max_table_entries` (= k²) table cells; larger ones get
    /// hub labels under the default oracle budget.
    pub fn with_budget(g: &Graph, max_table_entries: usize) -> Self {
        Self::from_graph(g.clone(), max_table_entries)
    }

    /// Interns components of `g` with explicit budgets for both backends.
    /// `oracle_entries_per_node = 0` disables hub labels, restoring the
    /// pre-oracle behaviour (over-table-budget components stay unindexed).
    pub fn with_budgets(
        g: &Graph,
        max_table_entries: usize,
        oracle_entries_per_node: usize,
    ) -> Self {
        Self::from_graph_with_budgets(g.clone(), max_table_entries, oracle_entries_per_node)
    }

    /// Takes ownership of `g` and interns its components with explicit
    /// budgets for both backends (see [`ComponentDistances::with_budgets`]).
    pub fn from_graph_with_budgets(
        g: Graph,
        max_table_entries: usize,
        oracle_entries_per_node: usize,
    ) -> Self {
        let mut cd = Self::from_graph(g, max_table_entries);
        cd.oracle_entries_per_node = oracle_entries_per_node;
        cd
    }

    /// Takes ownership of `g` and interns its components. No BFS runs here;
    /// distance indexes are built on first touch.
    pub fn from_graph(g: Graph, max_table_entries: usize) -> Self {
        let labels = connected_components(&g);
        let n = g.n_nodes() as usize;
        let n_comp = labels.n_components as usize;

        // Intern membership: counting sort by component label.
        let mut counts = vec![0u32; n_comp];
        for &l in &labels.label {
            counts[l as usize] += 1;
        }
        let mut offsets = vec![0u32; n_comp + 1];
        for c in 0..n_comp {
            offsets[c + 1] = offsets[c] + counts[c];
        }
        let mut members = vec![0 as NodeId; n];
        let mut rank = vec![0u32; n];
        let mut cursor = offsets.clone();
        // Node ids ascend, so each component slice comes out sorted.
        for v in 0..n as u32 {
            let c = labels.label[v as usize] as usize;
            let pos = cursor[c];
            members[pos as usize] = v;
            rank[v as usize] = pos - offsets[c];
            cursor[c] += 1;
        }

        let mut tables = Vec::with_capacity(n_comp);
        tables.resize_with(n_comp, OnceLock::new);
        ComponentDistances {
            graph: g,
            labels,
            offsets,
            members,
            rank,
            tables,
            max_table_entries,
            oracle_entries_per_node: DEFAULT_ORACLE_ENTRIES_PER_NODE,
        }
    }

    /// The graph the distances are defined over.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The component decomposition the indexes are built over.
    #[inline]
    pub fn labels(&self) -> &ComponentLabels {
        &self.labels
    }

    /// Number of components.
    #[inline]
    pub fn n_components(&self) -> u32 {
        self.labels.n_components
    }

    /// Component id of `v`.
    #[inline]
    pub fn component_of(&self, v: NodeId) -> u32 {
        self.labels.component_of(v)
    }

    /// `true` when `a` and `b` share a component.
    #[inline]
    pub fn same_component(&self, a: NodeId, b: NodeId) -> bool {
        self.labels.same_component(a, b)
    }

    /// The sorted members of component `c`, as an interned slice — no
    /// allocation, unlike [`ComponentLabels::members`].
    #[inline]
    pub fn members(&self, c: u32) -> &[NodeId] {
        &self.members[self.member_range(c)]
    }

    /// Where component `c`'s members sit in the interned member order, so
    /// a caller can keep a per-member array aligned with
    /// [`ComponentDistances::members`].
    #[inline]
    pub fn member_range(&self, c: u32) -> std::ops::Range<usize> {
        self.offsets[c as usize] as usize..self.offsets[c as usize + 1] as usize
    }

    /// The sorted members of the component containing `v`.
    #[inline]
    pub fn members_of(&self, v: NodeId) -> &[NodeId] {
        self.members(self.component_of(v))
    }

    /// Position of `v` within [`ComponentDistances::members_of`]`(v)`.
    #[inline]
    pub fn rank(&self, v: NodeId) -> u32 {
        self.rank[v as usize]
    }

    /// `true` when the component of `v` fits the dense-table budget (its
    /// table is either built already or will be built on first touch).
    /// Oracle-backed components report `false` here — use
    /// [`ComponentDistances::backend`] for the full picture. Does not force
    /// a build.
    #[inline]
    pub fn is_indexed(&self, v: NodeId) -> bool {
        self.fits_budget(self.component_of(v) as usize)
    }

    /// Whether component `c`'s dense table fits the entry budget and the
    /// `u16` storage width — a component of k nodes has eccentricity < k,
    /// so k ≤ 65535 guarantees distances fit.
    #[inline]
    fn fits_budget(&self, c: usize) -> bool {
        let k = (self.offsets[c + 1] - self.offsets[c]) as usize;
        k.saturating_mul(k) <= self.max_table_entries && k <= usize::from(u16::MAX)
    }

    /// The (lazily built) index of component `c`; `None` when over every
    /// budget.
    fn index(&self, c: usize) -> Option<&ComponentIndex> {
        self.tables[c].get_or_init(|| self.build_index(c)).as_ref()
    }

    /// Builds the best index that fits component `c`'s budgets: dense table
    /// first, hub labels above the table budget, `None` when both decline.
    fn build_index(&self, c: usize) -> Option<ComponentIndex> {
        if self.fits_budget(c) {
            return self.build_table(c).map(ComponentIndex::Dense);
        }
        let slice = self.members(c as u32);
        let budget = slice.len().saturating_mul(self.oracle_entries_per_node);
        if budget == 0 {
            return None;
        }
        HubLabels::build(&self.graph, slice, budget).map(ComponentIndex::Hub)
    }

    /// One BFS per member of component `c`, filling the dense table.
    fn build_table(&self, c: usize) -> Option<DistanceTable> {
        if !self.fits_budget(c) {
            return None;
        }
        let slice = self.members(c as u32);
        let k = slice.len();
        if k == 1 {
            // Singleton: d(v, v) = 0, no BFS needed.
            return Some(DistanceTable { k: 1, d: vec![0] });
        }
        let mut scratch = vec![bfs::INFINITE; self.graph.n_nodes() as usize];
        let mut queue = std::collections::VecDeque::new();
        let mut d = vec![0u16; k * k];
        for (i, &src) in slice.iter().enumerate() {
            // BFS from src; only nodes of this component are reachable.
            scratch[src as usize] = 0;
            queue.push_back(src);
            while let Some(v) = queue.pop_front() {
                let dv = scratch[v as usize];
                for &w in self.graph.neighbors(v) {
                    if scratch[w as usize] == bfs::INFINITE {
                        scratch[w as usize] = dv + 1;
                        queue.push_back(w);
                    }
                }
            }
            for (j, &dst) in slice.iter().enumerate() {
                debug_assert_ne!(scratch[dst as usize], bfs::INFINITE);
                // Cannot truncate: eccentricity < k ≤ u16::MAX (budget
                // check), so every in-component distance fits.
                debug_assert!(scratch[dst as usize] <= u32::from(u16::MAX));
                d[i * k + j] = scratch[dst as usize] as u16;
            }
            // Reset only the touched entries.
            for &v in slice {
                scratch[v as usize] = bfs::INFINITE;
            }
        }
        Some(DistanceTable { k, d })
    }

    /// Forces the build of every within-budget index (the eager,
    /// pre-refactor behaviour). Useful before latency-sensitive phases and
    /// in benchmarks separating build cost from query cost.
    pub fn prebuild(&self) {
        for c in 0..self.tables.len() {
            let _ = self.index(c);
        }
    }

    /// Distance lookup; O(1) for dense components, one label merge-join
    /// for oracle-backed ones (first touch of a component builds its
    /// index).
    #[inline]
    pub fn distance(&self, a: NodeId, b: NodeId) -> DistanceLookup {
        let c = self.labels.component_of(a);
        if c != self.labels.component_of(b) {
            return DistanceLookup::DifferentComponents;
        }
        match self.index(c as usize) {
            Some(ComponentIndex::Dense(t)) => {
                let (i, j) = (
                    self.rank[a as usize] as usize,
                    self.rank[b as usize] as usize,
                );
                DistanceLookup::Known(u32::from(t.d[i * t.k + j]))
            }
            Some(ComponentIndex::Hub(h)) => {
                DistanceLookup::Known(h.distance(self.rank[a as usize], self.rank[b as usize]))
            }
            None => DistanceLookup::NotIndexed,
        }
    }

    /// Distances from `v` to every member of its component, in member-slice
    /// order, as a **borrowed** slice — dense components only. Oracle-backed
    /// components return `None` here because their rows are materialised,
    /// not stored; use [`ComponentDistances::row_into`] to cover both
    /// backends.
    #[inline]
    pub fn row(&self, v: NodeId) -> Option<&[u16]> {
        let c = self.labels.component_of(v) as usize;
        match self.index(c) {
            Some(ComponentIndex::Dense(t)) => {
                let i = self.rank[v as usize] as usize;
                Some(&t.d[i * t.k..(i + 1) * t.k])
            }
            _ => None,
        }
    }

    /// Fills `out` with the distances from `v` to every member of its
    /// component, in member-slice order, resizing `out` to the component
    /// size. Serves **both** backends: a `memcpy` of the dense row, or one
    /// inverted-index join over the hub labels. Returns `false` (leaving
    /// `out` empty) when the component is over every budget — the caller
    /// falls back to BFS.
    pub fn row_into(&self, v: NodeId, out: &mut Vec<u16>) -> bool {
        let c = self.labels.component_of(v) as usize;
        match self.index(c) {
            Some(ComponentIndex::Dense(t)) => {
                let i = self.rank[v as usize] as usize;
                out.clear();
                out.extend_from_slice(&t.d[i * t.k..(i + 1) * t.k]);
                true
            }
            Some(ComponentIndex::Hub(h)) => {
                out.resize(h.len(), 0);
                h.row_into(self.rank[v as usize], out);
                true
            }
            None => {
                out.clear();
                false
            }
        }
    }

    /// Which backend indexes the component of `v`. Forces the lazy build
    /// (the answer for oracle-size components is unknowable without
    /// attempting construction — the label budget may abort).
    pub fn backend(&self, v: NodeId) -> IndexBackend {
        match self.index(self.labels.component_of(v) as usize) {
            Some(ComponentIndex::Dense(_)) => IndexBackend::Dense,
            Some(ComponentIndex::Hub(_)) => IndexBackend::HubLabels,
            None => IndexBackend::Unindexed,
        }
    }

    /// The hub labels backing `v`'s component, when that component is
    /// oracle-indexed (forces the lazy build). For bench/diagnostic label
    /// statistics.
    pub fn hub_labels_of(&self, v: NodeId) -> Option<&HubLabels> {
        match self.index(self.labels.component_of(v) as usize) {
            Some(ComponentIndex::Hub(h)) => Some(h),
            _ => None,
        }
    }

    /// Number of component indexes built so far (diagnostics; lazy-build
    /// observability).
    pub fn n_built_tables(&self) -> usize {
        self.tables
            .iter()
            .filter(|t| t.get().is_some_and(|o| o.is_some()))
            .count()
    }

    /// Total indexed entries across all *built* components: dense cells
    /// plus hub-label entries (diagnostics).
    pub fn table_entries(&self) -> usize {
        self.tables
            .iter()
            .filter_map(|t| t.get().and_then(|o| o.as_ref()))
            .map(|t| match t {
                ComponentIndex::Dense(t) => t.d.len(),
                ComponentIndex::Hub(h) => h.n_entries(),
            })
            .sum()
    }

    /// Heap bytes of the index structures: interned membership plus every
    /// *built* per-component index (dense cells at 2 bytes, hub labels via
    /// [`HubLabels::memory_bytes`]). Excludes the owned graph itself.
    pub fn memory_bytes(&self) -> usize {
        let membership = self.offsets.len() * std::mem::size_of::<u32>()
            + self.members.len() * std::mem::size_of::<NodeId>()
            + self.rank.len() * std::mem::size_of::<u32>()
            + self.labels.label.len() * std::mem::size_of::<u32>();
        let indexes: usize = self
            .tables
            .iter()
            .filter_map(|t| t.get().and_then(|o| o.as_ref()))
            .map(|t| match t {
                ComponentIndex::Dense(t) => t.d.len() * std::mem::size_of::<u16>(),
                ComponentIndex::Hub(h) => h.memory_bytes(),
            })
            .sum();
        membership + indexes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::GraphBuilder;

    fn two_components() -> Graph {
        // Path 0-1-2-3 and triangle 4-5-6; node 7 isolated.
        let mut b = GraphBuilder::new(8);
        b.edges([(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6)]);
        b.build()
    }

    #[test]
    fn membership_is_interned_and_sorted() {
        let g = two_components();
        let cd = ComponentDistances::new(&g);
        assert_eq!(cd.n_components(), 3);
        assert_eq!(cd.members_of(2), &[0, 1, 2, 3]);
        assert_eq!(cd.members_of(6), &[4, 5, 6]);
        assert_eq!(cd.members_of(7), &[7]);
        for v in 0..8u32 {
            let slice = cd.members_of(v);
            assert_eq!(slice[cd.rank(v) as usize], v);
        }
    }

    #[test]
    fn distances_match_fresh_bfs() {
        let g = two_components();
        let cd = ComponentDistances::new(&g);
        for a in 0..8u32 {
            let fresh = bfs::bfs_distances(&g, a);
            for b in 0..8u32 {
                match cd.distance(a, b) {
                    DistanceLookup::Known(d) => assert_eq!(d, fresh[b as usize]),
                    DistanceLookup::DifferentComponents => {
                        assert_eq!(fresh[b as usize], bfs::INFINITE)
                    }
                    DistanceLookup::NotIndexed => panic!("small graph must be indexed"),
                }
            }
        }
    }

    #[test]
    fn tables_build_lazily_on_first_touch() {
        let g = two_components();
        let cd = ComponentDistances::new(&g);
        assert_eq!(cd.n_built_tables(), 0, "construction must not BFS");
        assert_eq!(cd.table_entries(), 0);
        // Touching one component builds exactly that component's table.
        assert_eq!(cd.distance(0, 3), DistanceLookup::Known(3));
        assert_eq!(cd.n_built_tables(), 1);
        assert_eq!(cd.table_entries(), 16);
        // Untouched components stay lazy.
        assert_eq!(cd.row(4).unwrap(), &[0, 1, 1]);
        assert_eq!(cd.n_built_tables(), 2);
    }

    #[test]
    fn lazy_equals_prebuilt_eager() {
        let g = generators::grid8(7, 5);
        let lazy = ComponentDistances::new(&g);
        let eager = ComponentDistances::new(&g);
        eager.prebuild();
        assert_eq!(eager.n_built_tables(), 1);
        for a in 0..g.n_nodes() {
            for b in 0..g.n_nodes() {
                assert_eq!(lazy.distance(a, b), eager.distance(a, b));
            }
            assert_eq!(lazy.row(a), eager.row(a));
        }
    }

    #[test]
    fn rows_cover_components() {
        let g = two_components();
        let cd = ComponentDistances::new(&g);
        let row = cd.row(1).unwrap();
        assert_eq!(row, &[1, 0, 1, 2]);
        assert_eq!(cd.row(7).unwrap(), &[0]);
    }

    #[test]
    fn over_budget_components_go_to_hub_labels() {
        // 10² = 100 > 50: too big for a dense table, but the oracle picks
        // it up and distance queries stay exact.
        let g = generators::cycle(10);
        let cd = ComponentDistances::with_budget(&g, 50);
        assert!(!cd.is_indexed(0), "dense budget must be exceeded");
        assert_eq!(cd.distance(0, 5), DistanceLookup::Known(5));
        assert_eq!(cd.backend(0), IndexBackend::HubLabels);
        // Borrowed rows are a dense-only affordance...
        assert!(cd.row(0).is_none());
        // ... but materialised rows work.
        let mut row = Vec::new();
        assert!(cd.row_into(2, &mut row));
        assert_eq!(row.len(), 10);
        assert_eq!(row[2], 0);
        assert_eq!(row[7], 5);
        assert!(cd.hub_labels_of(0).is_some());
    }

    #[test]
    fn oracle_disabled_restores_bfs_fallback() {
        let g = generators::complete(10);
        let cd = ComponentDistances::with_budgets(&g, 50, 0);
        assert!(!cd.is_indexed(0));
        assert_eq!(cd.distance(0, 5), DistanceLookup::NotIndexed);
        assert_eq!(cd.backend(0), IndexBackend::Unindexed);
        assert!(cd.row(0).is_none());
        let mut row = Vec::new();
        assert!(!cd.row_into(0, &mut row));
        assert!(row.is_empty());
        // Membership interning still works.
        assert_eq!(cd.members_of(3).len(), 10);
        assert_eq!(cd.table_entries(), 0);
        // prebuild skips over-budget components.
        cd.prebuild();
        assert_eq!(cd.n_built_tables(), 0);
    }

    #[test]
    fn degenerate_topology_exhausts_label_budget() {
        // Cliques have Θ(n²) 2-hop covers; with an average label budget of
        // 2 entries per node the oracle must abort and leave the component
        // unindexed (seed behaviour).
        let g = generators::complete(12);
        let cd = ComponentDistances::with_budgets(&g, 100, 2);
        assert_eq!(cd.distance(0, 5), DistanceLookup::NotIndexed);
        assert_eq!(cd.backend(0), IndexBackend::Unindexed);
    }

    #[test]
    fn hub_rows_match_dense_rows() {
        // Same graph indexed both ways: member-order rows must be
        // identical (this equality is what keeps oracle-backed sampling
        // tables byte-identical to dense-backed ones).
        let g = generators::grid8(9, 7);
        let dense = ComponentDistances::new(&g);
        let hub = ComponentDistances::with_budget(&g, 1); // force oracle
        assert_eq!(hub.backend(0), IndexBackend::HubLabels);
        let mut dense_row = Vec::new();
        let mut hub_row = Vec::new();
        for v in 0..g.n_nodes() {
            assert!(dense.row_into(v, &mut dense_row));
            assert!(hub.row_into(v, &mut hub_row));
            assert_eq!(dense_row, hub_row);
            assert_eq!(dense.distance(0, v), hub.distance(0, v));
        }
    }

    #[test]
    fn grid8_distance_is_chebyshev() {
        let (w, h) = (6, 5);
        let g = generators::grid8(w, h);
        let cd = ComponentDistances::new(&g);
        let id = |c: u32, r: u32| r * w + c;
        assert_eq!(cd.distance(id(0, 0), id(3, 2)), DistanceLookup::Known(3));
        assert_eq!(cd.distance(id(0, 0), id(5, 4)), DistanceLookup::Known(5));
        assert_eq!(cd.table_entries(), 30 * 30);
    }

    #[test]
    fn clone_carries_built_tables() {
        let g = two_components();
        let cd = ComponentDistances::new(&g);
        assert_eq!(cd.distance(0, 2), DistanceLookup::Known(2));
        let cloned = cd.clone();
        assert_eq!(cloned.n_built_tables(), 1, "built tables survive clone");
        assert_eq!(cloned.distance(0, 2), DistanceLookup::Known(2));
    }

    #[test]
    fn concurrent_first_touch_builds_once() {
        let g = generators::grid8(16, 16);
        let n = g.n_nodes();
        let cd = ComponentDistances::new(&g);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let cd = &cd;
                s.spawn(move || {
                    for v in 0..n {
                        assert!(matches!(cd.distance(t, v), DistanceLookup::Known(_)));
                    }
                });
            }
        });
        assert_eq!(cd.n_built_tables(), 1);
        assert_eq!(cd.table_entries(), 256 * 256);
    }

    #[test]
    fn memory_bytes_tracks_built_state() {
        let g = two_components();
        let cd = ComponentDistances::new(&g);
        let base = cd.memory_bytes();
        assert!(base > 0, "membership interning is always accounted");
        cd.prebuild();
        // 4² + 3² + 1² dense cells at 2 bytes each.
        assert_eq!(cd.memory_bytes(), base + 2 * (16 + 9 + 1));
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let g = Graph::empty(4);
        let cd = ComponentDistances::new(&g);
        assert_eq!(cd.n_components(), 4);
        for v in 0..4u32 {
            assert_eq!(cd.members_of(v), &[v]);
            assert_eq!(cd.distance(v, v), DistanceLookup::Known(0));
        }
        assert_eq!(cd.distance(0, 1), DistanceLookup::DifferentComponents);
    }
}
