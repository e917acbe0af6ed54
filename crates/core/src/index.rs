//! [`PolicyIndex`]: the precomputed fast path for bulk location release.
//!
//! Every PGLP mechanism (§3.1) samples from a distribution shaped by the
//! policy-graph distances `d_G(s, ·)`. The [`crate::policy`] layer
//! tabulates those distances (lazily per component); this module adds the
//! second cache level, in two kinds:
//!
//! * **Distance rings** ([`DistanceRings`]), one per true cell and shared
//!   by every ε: the cell's component grouped by `d_G(s, ·)`. The
//!   graph-exponential mechanism's weight depends on `z` only through that
//!   distance, so it samples a ring from a cumulative array with one entry
//!   per ring and a cell uniformly inside it. Building rings needs no
//!   `exp`; resolving an ε needs one.
//! * **Sampling tables** ([`SamplingTable`]), one per `(mechanism, ε,
//!   cell)`, for the other closed-form mechanisms. Small supports use a
//!   cumulative table (inverse-CDF binary search); supports of at least
//!   [`SamplingTable::ALIAS_THRESHOLD`] cells are compiled into a Vose
//!   **alias table** for O(1) draws.
//!
//! Both caches are weighted LRUs with single-flight builds.
//!
//! A [`PolicyIndex`] wraps one policy and owns *all* per-policy mechanism
//! state: the ring and distribution caches, per-component calibration
//! lengths (Laplace-style mechanisms), and per-component prepared
//! sensitivity hulls (the Planar Isotropic
//! Mechanism). Servers and clients build it once per policy assignment and
//! feed it to [`Mechanism::perturb_batch`](crate::mech::Mechanism::perturb_batch);
//! experiment harnesses build one per swept policy. All caches are
//! thread-safe, so one index can serve concurrent report streams — this is
//! what the concurrent [`crate::release::Lanes`] rely on.

use crate::cache::{CacheStats, SharedLru};
use crate::mech::pim::PreparedHull;
use crate::policy::LocationPolicyGraph;
use panda_check::ordered::{rank, OrderedRwLock};
use panda_geo::CellId;
use panda_obs::{Counter, Registry};
use rand::Rng;
use rand::RngCore;
use std::sync::Arc;

/// Cache key: mechanism identity × ε (by bit pattern) × true location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct DistKey {
    mech: &'static str,
    eps_bits: u64,
    cell: CellId,
}

/// Sampling backend, chosen by support size.
#[derive(Debug, Clone)]
enum Backend {
    /// `cum[i]` = Σ probabilities up to and including cell `i`;
    /// `cum.last() == total`. O(log k) inverse-CDF draws.
    Cumulative { cum: Vec<f64>, total: f64 },
    /// Vose alias table: O(1) draws. `prob[i]` is the probability of
    /// staying in bucket `i` (scaled to [0, 1]); otherwise the draw is
    /// redirected to `alias[i]`.
    Alias { prob: Vec<f64>, alias: Vec<u32> },
}

/// A closed-form output distribution compiled for fast sampling.
#[derive(Debug, Clone)]
pub struct SamplingTable {
    cells: Vec<CellId>,
    backend: Backend,
}

impl SamplingTable {
    /// Support size from which [`SamplingTable::from_weights`] compiles an
    /// alias table instead of a cumulative table. Below it, the O(log k)
    /// binary search wins on cache locality and build cost; at and above
    /// it, O(1) alias draws win (see `benches/release_engine.rs`).
    pub const ALIAS_THRESHOLD: usize = 1024;

    /// Compiles `(cell, weight)` pairs into a sampling table, selecting the
    /// backend automatically by support size. Weights need not be
    /// normalised; they must be non-negative with a positive sum.
    ///
    /// # Panics
    ///
    /// Panics on an empty distribution or a non-positive total weight.
    pub fn from_weights(dist: Vec<(CellId, f64)>) -> Self {
        if dist.len() >= Self::ALIAS_THRESHOLD {
            Self::alias(dist)
        } else {
            Self::cumulative(dist)
        }
    }

    /// Compiles an inverse-CDF cumulative table (O(log k) draws).
    ///
    /// # Panics
    ///
    /// Same contract as [`SamplingTable::from_weights`].
    pub fn cumulative(dist: Vec<(CellId, f64)>) -> Self {
        assert!(!dist.is_empty(), "sampling table needs support");
        let mut cells = Vec::with_capacity(dist.len());
        let mut cum = Vec::with_capacity(dist.len());
        let mut total = 0.0;
        for (c, w) in dist {
            debug_assert!(w >= 0.0 && w.is_finite(), "bad weight {w} for {c}");
            total += w;
            cells.push(c);
            cum.push(total);
        }
        assert!(
            total > 0.0 && total.is_finite(),
            "sampling table total weight must be positive"
        );
        SamplingTable {
            cells,
            backend: Backend::Cumulative { cum, total },
        }
    }

    /// Compiles a Vose alias table (O(1) draws).
    ///
    /// # Panics
    ///
    /// Same contract as [`SamplingTable::from_weights`].
    pub fn alias(dist: Vec<(CellId, f64)>) -> Self {
        assert!(!dist.is_empty(), "sampling table needs support");
        let n = dist.len();
        let mut cells = Vec::with_capacity(n);
        let mut total = 0.0;
        for &(c, w) in &dist {
            debug_assert!(w >= 0.0 && w.is_finite(), "bad weight {w} for {c}");
            total += w;
            cells.push(c);
        }
        assert!(
            total > 0.0 && total.is_finite(),
            "sampling table total weight must be positive"
        );
        // Vose's method: scale weights to mean 1 (bucket capacity), then
        // pair each under-full bucket with an over-full donor.
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = dist.iter().map(|&(_, w)| w * scale).collect();
        let mut alias: Vec<u32> = (0..n as u32).collect();
        let mut small: Vec<usize> = Vec::with_capacity(n);
        let mut large: Vec<usize> = Vec::with_capacity(n);
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s] = l as u32;
            // The donor gives (1 − prob[s]) of its mass to bucket s.
            prob[l] = (prob[l] + prob[s]) - 1.0;
            if prob[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Residuals (FP rounding): remaining buckets keep their own mass.
        for i in small.into_iter().chain(large) {
            prob[i] = 1.0;
        }
        SamplingTable {
            cells,
            backend: Backend::Alias { prob, alias },
        }
    }

    /// Support cells, in table order.
    pub fn cells(&self) -> &[CellId] {
        &self.cells
    }

    /// `true` when this table uses the O(1) alias backend.
    pub fn is_alias(&self) -> bool {
        matches!(self.backend, Backend::Alias { .. })
    }

    /// Normalised probability of each support cell, in table order. Exact
    /// for both backends (the alias construction is mass-preserving, so the
    /// original distribution is recoverable from the buckets).
    pub fn probabilities(&self) -> Vec<f64> {
        match &self.backend {
            Backend::Cumulative { cum, total } => {
                let mut prev = 0.0;
                cum.iter()
                    .map(|&c| {
                        let p = (c - prev) / total;
                        prev = c;
                        p
                    })
                    .collect()
            }
            Backend::Alias { prob, alias } => {
                // p[i] = (own mass + mass donated into other buckets) / n.
                let n = prob.len() as f64;
                let mut p: Vec<f64> = prob.iter().map(|&q| q / n).collect();
                for (i, &a) in alias.iter().enumerate() {
                    if a as usize != i {
                        p[a as usize] += (1.0 - prob[i]) / n;
                    }
                }
                p
            }
        }
    }

    /// Heap bytes of the compiled table (support cells + backend arrays).
    pub fn memory_bytes(&self) -> usize {
        let cells = self.cells.len() * std::mem::size_of::<CellId>();
        cells
            + match &self.backend {
                Backend::Cumulative { cum, .. } => cum.len() * std::mem::size_of::<f64>(),
                Backend::Alias { prob, alias } => {
                    prob.len() * std::mem::size_of::<f64>()
                        + alias.len() * std::mem::size_of::<u32>()
                }
            }
    }

    /// Draws one cell. O(log k) for the cumulative backend, O(1) for the
    /// alias backend; no allocation either way.
    pub fn sample(&self, rng: &mut dyn RngCore) -> CellId {
        match &self.backend {
            Backend::Cumulative { cum, total } => {
                let u = rng.gen_range(0.0..*total);
                let i = cum.partition_point(|&c| c <= u);
                // partition_point can land one past the end on FP edge cases.
                self.cells[i.min(self.cells.len() - 1)]
            }
            Backend::Alias { prob, alias } => {
                let i = rng.gen_range(0..self.cells.len());
                if rng.gen::<f64>() < prob[i] {
                    self.cells[i]
                } else {
                    self.cells[alias[i] as usize]
                }
            }
        }
    }
}

/// The component of one true cell `s`, grouped into rings by `d_G(s, ·)`.
///
/// The rings list the component in (distance, member order) order as
/// offsets into its member slice ([`PolicyIndex::component_slice`]); ring
/// `r` is positions `starts[r]..starts[r + 1]`, every cell of it at distance
/// `dists[r]`. Only non-empty rings are stored, in increasing distance, so
/// ring 0 holds only `s`. Rings are ε-independent: every ε reuses them.
#[derive(Debug, PartialEq, Eq)]
pub struct DistanceRings {
    members: Members,
    starts: Box<[u32]>,
    dists: Box<[u32]>,
}

/// Member offsets: 2 B each for components of up to
/// [`DistanceRings::NARROW_MEMBERS`] cells, 4 B beyond.
#[derive(Debug, PartialEq, Eq)]
enum Members {
    Narrow(Box<[u16]>),
    Wide(Box<[u32]>),
}

impl DistanceRings {
    /// Largest component whose member offsets are stored as `u16`.
    pub const NARROW_MEMBERS: usize = 1 << 16;

    /// The rings of `s`, from one distance row of its component (dense-row
    /// copy, hub-label join, or one BFS) and an O(n) counting sort.
    pub(crate) fn build(policy: &LocationPolicyGraph, s: CellId) -> Self {
        let mut row = Vec::new();
        if policy.component_row_u16(s, &mut row) {
            Self::from_distances(&row)
        } else {
            // Gigantic unindexed component: distances may exceed u16. The
            // pairs come sorted by cell id, i.e. in member order.
            let dists: Vec<u32> = policy
                .component_distances(s)
                .into_iter()
                .map(|(_, d)| d)
                .collect();
            Self::from_distances(&dists)
        }
    }

    /// Groups the members of a component by their distances `dist[i]` (a
    /// stable counting sort, so each ring keeps member order).
    pub fn from_distances<D: Copy + Into<u32>>(dist: &[D]) -> Self {
        let max = dist.iter().map(|&d| d.into()).max().unwrap_or(0) as usize;
        // `offset[d]` = members at distance < d, then the write cursor of d.
        let mut offset = vec![0u32; max + 2];
        for &d in dist {
            offset[d.into() as usize + 1] += 1;
        }
        let mut starts = Vec::new();
        let mut dists = Vec::new();
        for d in 0..=max {
            if offset[d + 1] > 0 {
                starts.push(offset[d]);
                dists.push(d as u32);
            }
            offset[d + 1] += offset[d];
        }
        starts.push(dist.len() as u32);
        let mut sorted = vec![0u32; dist.len()];
        for (i, &d) in dist.iter().enumerate() {
            let cursor = &mut offset[d.into() as usize];
            sorted[*cursor as usize] = i as u32;
            *cursor += 1;
        }
        let members = if dist.len() <= Self::NARROW_MEMBERS {
            Members::Narrow(sorted.iter().map(|&i| i as u16).collect())
        } else {
            Members::Wide(sorted.into())
        };
        DistanceRings {
            members,
            starts: starts.into(),
            dists: dists.into(),
        }
    }

    /// The member-slice offset of the `i`-th cell in (distance, member
    /// order) order.
    #[inline]
    pub fn member(&self, i: usize) -> usize {
        match &self.members {
            Members::Narrow(m) => usize::from(m[i]),
            Members::Wide(m) => m[i] as usize,
        }
    }

    /// Number of non-empty rings.
    pub fn n_rings(&self) -> usize {
        self.dists.len()
    }

    /// The positions of ring `r`: its cells are `member(i)` for `i` in the
    /// range, in member order.
    pub fn ring(&self, r: usize) -> std::ops::Range<usize> {
        self.starts[r] as usize..self.starts[r + 1] as usize
    }

    /// The distance `d_G(s, ·)` shared by every cell of ring `r`.
    pub fn ring_distance(&self, r: usize) -> u32 {
        self.dists[r]
    }

    /// Heap bytes of the rings (member offsets, ring starts, distances).
    pub fn memory_bytes(&self) -> usize {
        let members = match &self.members {
            Members::Narrow(m) => std::mem::size_of_val(&**m),
            Members::Wide(m) => std::mem::size_of_val(&**m),
        };
        members + (self.starts.len() + self.dists.len()) * std::mem::size_of::<u32>()
    }
}

/// Precomputed sampling state for one policy: distance tables (shared with
/// the policy), interned component slices, an LRU cache of per-cell
/// distance rings, an LRU cache of per-`(mechanism, ε, cell)` sampling
/// tables, per-component calibration lengths, and per-component prepared
/// PIM sensitivity hulls.
#[derive(Debug)]
pub struct PolicyIndex {
    policy: LocationPolicyGraph,
    distributions: SharedLru<DistKey, Arc<SamplingTable>>,
    /// Per-cell distance rings, shared by every ε — an ε schedule pays for
    /// each cell's rings once, not once per step. Weighted in bytes.
    rings: SharedLru<CellId, Arc<DistanceRings>>,
    /// The ring cache's byte budget, which also caps what a sampler table
    /// pins.
    pub(crate) ring_budget: usize,
    /// Lifetime count of ring and distribution lookups — i.e. of cache
    /// mutex acquisitions (a cold miss re-acquires the lock briefly to
    /// insert, still counted as the one touch its lookup was). The release
    /// engine's sampler table keeps this at one touch per distinct
    /// `(mechanism, ε, cell)` per table; tests assert it.
    dist_touches: Counter,
    /// `calibrations[component]`: `None` = not yet computed,
    /// `Some(None)` = singleton component (exact release),
    /// `Some(Some(len))` = longest policy edge in the component.
    calibrations: OrderedRwLock<Vec<Option<Option<f64>>>>,
    /// Per-component prepared PIM hulls, one slot per sampling path
    /// (`[direct, isotropic-transform]`), filled on first use. Both slots
    /// share one rank: they are never held together.
    pim_hulls: [OrderedRwLock<Vec<Option<Arc<PreparedHull>>>>; 2],
}

impl PolicyIndex {
    /// Indexes a policy with the default cache budget
    /// ([`PolicyIndex::MAX_CACHED_ENTRIES`]). The distance tables are shared
    /// with `policy`; the distribution/calibration/hull caches fill lazily
    /// as mechanisms run.
    pub fn new(policy: LocationPolicyGraph) -> Self {
        Self::with_cache_capacity(policy, Self::MAX_CACHED_ENTRIES)
    }

    /// Indexes a policy with an explicit cache budget, in table entries
    /// (Σ support sizes across retained tables). The ring cache gets
    /// [`PolicyIndex::RING_BYTES_PER_ENTRY`] bytes per entry of it.
    pub fn with_cache_capacity(policy: LocationPolicyGraph, max_cached_entries: usize) -> Self {
        let n_components = policy.n_components() as usize;
        let ring_budget = max_cached_entries.saturating_mul(Self::RING_BYTES_PER_ENTRY);
        PolicyIndex {
            policy,
            distributions: SharedLru::new(rank::INDEX_DISTRIBUTIONS, max_cached_entries),
            rings: SharedLru::new(rank::INDEX_RINGS, ring_budget),
            ring_budget,
            dist_touches: Counter::new(),
            calibrations: OrderedRwLock::new(rank::INDEX_CALIBRATIONS, vec![None; n_components]),
            pim_hulls: [
                OrderedRwLock::new(rank::INDEX_PIM_HULLS, vec![None; n_components]),
                OrderedRwLock::new(rank::INDEX_PIM_HULLS, vec![None; n_components]),
            ],
        }
    }

    /// The indexed policy.
    #[inline]
    pub fn policy(&self) -> &LocationPolicyGraph {
        &self.policy
    }

    /// `d_G(a, b)`, or `None` across components (delegates to the policy's
    /// precomputed tables).
    #[inline]
    pub fn distance(&self, a: CellId, b: CellId) -> Option<u32> {
        self.policy.distance(a, b)
    }

    /// The interned, sorted component slice of `c` — the release support.
    #[inline]
    pub fn component_slice(&self, c: CellId) -> &[CellId] {
        self.policy.component_slice(c)
    }

    /// Default retention cap for the distribution cache, in table *entries*
    /// (Σ support sizes) — the same quadratic-memory guard the distance
    /// tables have. Past the cap, the least-recently-used tables are
    /// evicted (tables heavier than the whole cap are served without
    /// retention).
    pub const MAX_CACHED_ENTRIES: usize = 1 << 24;

    /// Ring-cache bytes per entry of the cache budget: the 16 B an alias
    /// table spends per support cell. The default ring budget (256 MiB)
    /// thus sits inside the 288 MiB that per-ε alias tables (16 B/entry)
    /// plus `u16` distance rows (2 B/entry) were allowed before rings
    /// replaced both for the graph-exponential mechanism. Rings cost 2 B
    /// per component cell (4 B past [`DistanceRings::NARROW_MEMBERS`]), plus
    /// 8 B per ring. The same budget caps the bytes a
    /// [`SamplerTable`](crate::mech::SamplerTable) pins.
    pub const RING_BYTES_PER_ENTRY: usize = 16;

    /// The cached sampling table for `(mech, eps, cell)`, building it with
    /// `build` on first use (and after eviction). `build` receives the
    /// indexed policy and returns the mechanism's closed-form output
    /// weights over the support. Concurrent misses on one key build once.
    pub fn distribution(
        &self,
        mech: &'static str,
        eps: f64,
        cell: CellId,
        build: impl FnOnce(&LocationPolicyGraph) -> Vec<(CellId, f64)>,
    ) -> Arc<SamplingTable> {
        self.dist_touches.inc();
        let key = DistKey {
            mech,
            eps_bits: eps.to_bits(),
            cell,
        };
        self.distributions.get_or_build(
            key,
            || Arc::new(SamplingTable::from_weights(build(&self.policy))),
            |table| table.cells().len(),
        )
    }

    /// The cached [`DistanceRings`] of `cell`. Built on first use from the
    /// policy's distance index (dense-row copy, hub-label join, or one BFS)
    /// and retained in a byte-weighted LRU, so every ε over the same cell
    /// shares one build. Concurrent misses on one cell build once. Counts
    /// as one touch, like [`PolicyIndex::distribution`].
    pub fn distance_row(&self, cell: CellId) -> Arc<DistanceRings> {
        self.dist_touches.inc();
        self.rings.get_or_build(
            cell,
            || Arc::new(DistanceRings::build(&self.policy, cell)),
            |rings| rings.memory_bytes(),
        )
    }

    /// Cached calibration length of the component of `cell`: the longest
    /// Euclidean policy edge inside the component, or `None` for isolated
    /// cells (exact release). Used by the Laplace-style mechanisms.
    pub fn calibration_length(&self, cell: CellId) -> Option<f64> {
        let comp = self.policy.component_of(cell) as usize;
        if let Some(cached) = self.calibrations.read()[comp] {
            return cached;
        }
        let computed = compute_calibration_length(&self.policy, cell);
        self.calibrations.write()[comp] = Some(computed);
        computed
    }

    /// The cached prepared PIM hull for the component of `cell`, building
    /// it with `build` on first use. `isotropic` selects the sampling path
    /// the hull was prepared for (the two paths cache independently).
    pub(crate) fn pim_hull(
        &self,
        cell: CellId,
        isotropic: bool,
        build: impl FnOnce(&LocationPolicyGraph) -> PreparedHull,
    ) -> Arc<PreparedHull> {
        let comp = self.policy.component_of(cell) as usize;
        let slot = &self.pim_hulls[usize::from(isotropic)];
        if let Some(hull) = &slot.read()[comp] {
            return Arc::clone(hull);
        }
        let built = Arc::new(build(&self.policy));
        let mut w = slot.write();
        match &w[comp] {
            // Another thread won the build race; keep its hull.
            Some(hull) => Arc::clone(hull),
            None => {
                w[comp] = Some(Arc::clone(&built));
                built
            }
        }
    }

    /// Number of ring and distribution lookups (= cache-mutex touches)
    /// since construction (diagnostics). Under cell-concentrated streaming
    /// load this is the contention metric: the release kernel's sampler
    /// table bounds it by the distinct cells per policy, where the
    /// per-report path paid one touch per report.
    pub fn distribution_cache_touches(&self) -> u64 {
        self.dist_touches.get()
    }

    /// Registers the index's live cache counters in `registry` under
    /// `panda_index_*` names (adopt-replace: re-registering after a policy
    /// switch re-points the scrape plane at the new index's handles). The
    /// ring cache keeps the `row_cache` names of the row cache it replaced.
    pub fn register_metrics(&self, registry: &Registry) {
        let adopt = |name: &str, count: &Counter| registry.register_counter(name, count);
        adopt("panda_index_distribution_touches_total", &self.dist_touches);
        self.distributions.read(|lru| {
            let c = lru.counters();
            adopt("panda_index_dist_cache_hits_total", &c.hits);
            adopt("panda_index_dist_cache_misses_total", &c.misses);
            adopt("panda_index_dist_cache_evictions_total", &c.evictions);
        });
        self.rings.read(|lru| {
            let c = lru.counters();
            adopt("panda_index_row_cache_hits_total", &c.hits);
            adopt("panda_index_row_cache_misses_total", &c.misses);
            adopt("panda_index_row_cache_evictions_total", &c.evictions);
        });
    }

    /// Number of distribution tables currently cached (diagnostics).
    pub fn n_cached_distributions(&self) -> usize {
        self.distributions.read(|lru| lru.len())
    }

    /// Total entries across currently cached tables (diagnostics).
    pub fn cached_entry_weight(&self) -> usize {
        self.distributions.read(|lru| lru.weight())
    }

    /// Number of prepared PIM hulls currently cached, across both sampling
    /// paths (diagnostics).
    pub fn n_cached_pim_hulls(&self) -> usize {
        self.pim_hulls
            .iter()
            .map(|s| s.read().iter().flatten().count())
            .sum()
    }

    /// Lifetime hit/miss/eviction counters of the distribution cache.
    pub fn distribution_cache_stats(&self) -> CacheStats {
        self.distributions.read(|lru| lru.stats())
    }

    /// Lifetime hit/miss/eviction counters of the distance-ring cache
    /// ([`PolicyIndex::distance_row`]).
    pub fn row_cache_stats(&self) -> CacheStats {
        self.rings.read(|lru| lru.stats())
    }

    /// Number of cells whose distance rings are cached (diagnostics).
    pub fn n_cached_rows(&self) -> usize {
        self.rings.read(|lru| lru.len())
    }

    /// Exact heap bytes held by the index's caches right now: compiled
    /// sampling tables, distance rings, and the per-component
    /// calibration/hull slot vectors. Excludes the policy's distance index
    /// itself (see [`panda_graph::ComponentDistances::memory_bytes`]) —
    /// together the two numbers are the memory story a capacity planner
    /// needs.
    pub fn cache_memory_bytes(&self) -> usize {
        let tables: usize = self
            .distributions
            .read(|lru| lru.iter_values().map(|t| t.memory_bytes()).sum());
        let rows: usize = self
            .rings
            .read(|lru| lru.iter_values().map(|r| r.memory_bytes()).sum());
        let n_components = self.policy.n_components() as usize;
        let slots = n_components
            * (std::mem::size_of::<Option<Option<f64>>>()
                + 2 * std::mem::size_of::<Option<Arc<PreparedHull>>>());
        tables + rows + slots
    }
}

/// The longest Euclidean policy edge within the component of `s`, or `None`
/// when `s` is isolated. (The calibration scale `L` of the Laplace-style
/// mechanisms; cached per component by [`PolicyIndex`].)
pub(crate) fn compute_calibration_length(policy: &LocationPolicyGraph, s: CellId) -> Option<f64> {
    let cells = policy.component_slice(s);
    if cells.len() <= 1 {
        return None;
    }
    let grid = policy.grid();
    let mut max_len = 0.0_f64;
    for &a in cells {
        for &b in policy.graph().neighbors(a.0) {
            let d = grid.distance(a, CellId(b));
            max_len = max_len.max(d);
        }
    }
    Some(max_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mech::{GraphExponential, Mechanism};
    use panda_geo::GridMap;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn policy() -> LocationPolicyGraph {
        LocationPolicyGraph::partition(GridMap::new(4, 4, 100.0), 2, 2)
    }

    #[test]
    fn sampling_table_matches_probabilities() {
        let table =
            SamplingTable::from_weights(vec![(CellId(0), 1.0), (CellId(1), 3.0), (CellId(2), 6.0)]);
        assert!(!table.is_alias(), "3-cell support stays cumulative");
        let probs = table.probabilities();
        assert!((probs[0] - 0.1).abs() < 1e-12);
        assert!((probs[1] - 0.3).abs() < 1e-12);
        assert!((probs[2] - 0.6).abs() < 1e-12);

        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts = [0usize; 3];
        const N: usize = 120_000;
        for _ in 0..N {
            counts[table.sample(&mut rng).index()] += 1;
        }
        for (i, &expect) in [0.1, 0.3, 0.6].iter().enumerate() {
            let freq = counts[i] as f64 / N as f64;
            assert!((freq - expect).abs() < 0.01, "cell {i}: {freq} vs {expect}");
        }
    }

    #[test]
    fn alias_table_reconstructs_exact_probabilities() {
        // Deterministic skewed weights over a mid-size support.
        let dist: Vec<(CellId, f64)> = (0..300)
            .map(|i| (CellId(i), 1.0 + f64::from(i % 17)))
            .collect();
        let total: f64 = dist.iter().map(|&(_, w)| w).sum();
        let expect: Vec<f64> = dist.iter().map(|&(_, w)| w / total).collect();
        let alias = SamplingTable::alias(dist.clone());
        assert!(alias.is_alias());
        let cumulative = SamplingTable::cumulative(dist);
        for ((pa, pc), pe) in alias
            .probabilities()
            .iter()
            .zip(cumulative.probabilities())
            .zip(expect)
        {
            assert!((pa - pe).abs() < 1e-12, "alias {pa} vs exact {pe}");
            assert!((pc - pe).abs() < 1e-12);
        }
    }

    #[test]
    fn alias_draws_match_cumulative_draws_chi_square() {
        // Same weights through both backends; a chi-square test on the
        // alias sample counts against the exact probabilities.
        let dist: Vec<(CellId, f64)> = (0..64)
            .map(|i| (CellId(i), (f64::from(i) / 9.0).exp()))
            .collect();
        let alias = SamplingTable::alias(dist.clone());
        let cumulative = SamplingTable::cumulative(dist);
        let probs = cumulative.probabilities();
        const N: usize = 200_000;
        let census = |table: &SamplingTable, seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut counts = vec![0usize; 64];
            for _ in 0..N {
                counts[table.sample(&mut rng).index()] += 1;
            }
            counts
        };
        for (label, counts) in [
            ("alias", census(&alias, 7)),
            ("cumulative", census(&cumulative, 8)),
        ] {
            let chi2: f64 = counts
                .iter()
                .zip(&probs)
                .map(|(&n, &p)| {
                    let e = p * N as f64;
                    (n as f64 - e).powi(2) / e
                })
                .sum();
            // 63 degrees of freedom: the 99.9% critical value is ≈ 103.4.
            assert!(chi2 < 103.4, "{label}: chi-square {chi2} too large");
        }
    }

    #[test]
    fn automatic_backend_selection_by_support_size() {
        let big: Vec<(CellId, f64)> = (0..SamplingTable::ALIAS_THRESHOLD as u32)
            .map(|i| (CellId(i), 1.0))
            .collect();
        assert!(SamplingTable::from_weights(big).is_alias());
        let small: Vec<(CellId, f64)> = (0..SamplingTable::ALIAS_THRESHOLD as u32 - 1)
            .map(|i| (CellId(i), 1.0))
            .collect();
        assert!(!SamplingTable::from_weights(small).is_alias());
    }

    #[test]
    fn distribution_cache_hits_by_key() {
        let index = PolicyIndex::new(policy());
        let mut builds = 0;
        for _ in 0..3 {
            index.distribution("gem", 1.0, CellId(0), |p| {
                builds += 1;
                GraphExponential
                    .output_distribution(p, 1.0, CellId(0))
                    .unwrap()
            });
        }
        assert_eq!(builds, 1, "same key must build once");
        index.distribution("gem", 2.0, CellId(0), |p| {
            builds += 1;
            GraphExponential
                .output_distribution(p, 2.0, CellId(0))
                .unwrap()
        });
        assert_eq!(builds, 2, "different eps is a different key");
        assert_eq!(index.n_cached_distributions(), 2);
        assert_eq!(index.cached_entry_weight(), 8);
    }

    #[test]
    fn cached_distribution_matches_closed_form() {
        let index = PolicyIndex::new(policy());
        let exact = GraphExponential
            .output_distribution(index.policy(), 1.0, CellId(5))
            .unwrap();
        let table = index.distribution("gem", 1.0, CellId(5), |p| {
            GraphExponential
                .output_distribution(p, 1.0, CellId(5))
                .unwrap()
        });
        assert_eq!(table.cells().len(), exact.len());
        for ((&cell, p_table), (cell_exact, p_exact)) in
            table.cells().iter().zip(table.probabilities()).zip(exact)
        {
            assert_eq!(cell, cell_exact);
            assert!((p_table - p_exact).abs() < 1e-12);
        }
    }

    #[test]
    fn cache_cap_evicts_lru_but_still_serves() {
        // Budget of 5 entries: each 4-cell table fills it; inserting the
        // next evicts the previous (LRU), and every request is still
        // served.
        let index = PolicyIndex::with_cache_capacity(policy(), 5);
        for (i, eps) in [0.5, 1.0, 2.0, 4.0].iter().enumerate() {
            let table = index.distribution("gem", *eps, CellId(0), |p| {
                GraphExponential
                    .output_distribution(p, *eps, CellId(0))
                    .unwrap()
            });
            assert_eq!(table.cells().len(), 4, "table {i} must still be served");
            assert_eq!(index.n_cached_distributions(), 1);
        }
        // The most recent key is retained (no rebuild)...
        index.distribution("gem", 4.0, CellId(0), |_| {
            panic!("most-recent table must be served from cache")
        });
        // ...and the first key was evicted, so it rebuilds.
        let mut rebuilt = false;
        index.distribution("gem", 0.5, CellId(0), |p| {
            rebuilt = true;
            GraphExponential
                .output_distribution(p, 0.5, CellId(0))
                .unwrap()
        });
        assert!(rebuilt, "LRU must have evicted the oldest key");
    }

    #[test]
    fn lru_keeps_recently_used_tables() {
        // Capacity for two 4-cell tables. Touch the first before inserting
        // a third: the *second* must be the victim.
        let index = PolicyIndex::with_cache_capacity(policy(), 8);
        let build = |eps: f64| {
            move |p: &LocationPolicyGraph| {
                GraphExponential
                    .output_distribution(p, eps, CellId(0))
                    .unwrap()
            }
        };
        index.distribution("gem", 1.0, CellId(0), build(1.0));
        index.distribution("gem", 2.0, CellId(0), build(2.0));
        index.distribution("gem", 1.0, CellId(0), |_| panic!("hit expected"));
        index.distribution("gem", 3.0, CellId(0), build(3.0));
        index.distribution("gem", 1.0, CellId(0), |_| {
            panic!("recently-used table must survive eviction")
        });
        let mut rebuilt = false;
        index.distribution("gem", 2.0, CellId(0), |p| {
            rebuilt = true;
            build(2.0)(p)
        });
        assert!(rebuilt, "LRU victim must be the least-recently-used key");
    }

    #[test]
    fn calibration_length_cached_and_correct() {
        let p = policy();
        let index = PolicyIndex::new(p.clone());
        let fresh = compute_calibration_length(&p, CellId(0));
        assert_eq!(index.calibration_length(CellId(0)), fresh);
        // Second call answers from cache (no way to observe directly, but it
        // must agree and not panic).
        assert_eq!(index.calibration_length(CellId(0)), fresh);
        // Isolated policy: no calibration.
        let iso = PolicyIndex::new(LocationPolicyGraph::isolated(GridMap::new(2, 2, 50.0)));
        assert_eq!(iso.calibration_length(CellId(0)), None);
    }

    /// The cells of ring `r`, mapped through the member slice.
    fn ring_cells(rings: &DistanceRings, members: &[CellId], r: usize) -> Vec<CellId> {
        rings.ring(r).map(|i| members[rings.member(i)]).collect()
    }

    /// Rings partition the component by exact distance, in increasing
    /// distance, each ring in member order, with ring 0 = the cell itself.
    fn assert_rings_exact(policy: &LocationPolicyGraph, s: CellId, rings: &DistanceRings) {
        let members = policy.component_slice(s);
        let mut all: Vec<CellId> = (0..rings.n_rings())
            .flat_map(|r| ring_cells(rings, members, r))
            .collect();
        all.sort_unstable();
        assert_eq!(all, members, "rings cover the component");
        assert_eq!(ring_cells(rings, members, 0), [s]);
        for r in 0..rings.n_rings() {
            let d = rings.ring_distance(r);
            assert!(r == 0 || d > rings.ring_distance(r - 1));
            let ring = ring_cells(rings, members, r);
            assert!(!ring.is_empty());
            assert!(ring.windows(2).all(|w| w[0] < w[1]), "member order");
            assert!(ring.iter().all(|&c| policy.distance(s, c) == Some(d)));
        }
    }

    #[test]
    fn distance_rows_cached_and_correct() {
        let index = PolicyIndex::new(policy());
        let rings = index.distance_row(CellId(0));
        assert_rings_exact(index.policy(), CellId(0), &rings);
        // Second touch hits the cache.
        let again = index.distance_row(CellId(0));
        assert!(Arc::ptr_eq(&rings, &again));
        let stats = index.row_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(index.n_cached_rows(), 1);
        // A different cell of the same component has its own rings.
        let _ = index.distance_row(CellId(1));
        assert_eq!(index.n_cached_rows(), 2);
    }

    #[test]
    fn rings_are_exact_on_a_geo_policy() {
        let p = LocationPolicyGraph::g1_geo_indistinguishability(GridMap::new(7, 5, 100.0));
        for s in [CellId(0), CellId(17), CellId(34)] {
            let rings = DistanceRings::build(&p, s);
            assert_rings_exact(&p, s, &rings);
            assert_eq!(rings.memory_bytes(), 35 * 2 + (2 * rings.n_rings() + 1) * 4);
        }
    }

    #[test]
    fn ring_counting_sort_skips_empty_distances() {
        let members = [CellId(10), CellId(11), CellId(12), CellId(13)];
        let rings = DistanceRings::from_distances(&[2u32, 0, 2, 5]);
        assert_eq!(rings.n_rings(), 3);
        assert_eq!(ring_cells(&rings, &members, 0), [CellId(11)]);
        assert_eq!(ring_cells(&rings, &members, 1), [CellId(10), CellId(12)]);
        assert_eq!(ring_cells(&rings, &members, 2), [CellId(13)]);
        let dists: Vec<u32> = (0..3).map(|r| rings.ring_distance(r)).collect();
        assert_eq!(dists, vec![0, 2, 5]);
    }

    /// Past `NARROW_MEMBERS` cells, offsets no longer fit `u16`: the rings
    /// keep 4 B entries and still address every member.
    #[test]
    fn wide_component_rings_keep_four_byte_offsets() {
        const N: usize = 70_000;
        // Member i sits at distance i % 3, so ring 1 holds 1, 4, 7, ….
        let dist: Vec<u32> = (0..N as u32).map(|i| i % 3).collect();
        let rings = DistanceRings::from_distances(&dist);
        assert_eq!(rings.n_rings(), 3);
        assert_eq!(rings.memory_bytes(), N * 4 + (2 * 3 + 1) * 4);
        for r in 0..3 {
            let ring = rings.ring(r);
            assert_eq!(ring.len(), (N - r).div_ceil(3));
            assert!(ring.clone().all(|i| rings.member(i) % 3 == r));
            assert!(ring.clone().all(|i| dist[rings.member(i)] as usize == r));
        }
        // The last member (offset 69 999 > u16::MAX) is addressable.
        let last = rings.ring(0).last().unwrap();
        assert_eq!(rings.member(last), N - 1);
        // A component of exactly the bound stays narrow: 2 B per cell.
        let narrow = DistanceRings::from_distances(&dist[..DistanceRings::NARROW_MEMBERS]);
        assert_eq!(
            narrow.memory_bytes(),
            DistanceRings::NARROW_MEMBERS * 2 + (2 * 3 + 1) * 4
        );
    }

    #[test]
    fn concurrent_ring_misses_build_once() {
        let index = PolicyIndex::new(LocationPolicyGraph::g1_geo_indistinguishability(
            GridMap::new(32, 32, 10.0),
        ));
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    start.wait();
                    index.distance_row(CellId(99));
                });
            }
        });
        let stats = index.row_cache_stats();
        assert_eq!((stats.misses, stats.hits), (1, 7));
        assert_eq!(index.distribution_cache_touches(), 8);
    }

    #[test]
    fn epsilon_sweep_shares_one_row_per_cell() {
        let index = PolicyIndex::new(policy());
        let mut rng = SmallRng::seed_from_u64(5);
        for eps in [0.25, 0.5, 1.0, 2.0, 4.0] {
            GraphExponential
                .perturb_batch(&index, eps, &[CellId(0)], &mut rng)
                .unwrap();
        }
        let stats = index.row_cache_stats();
        assert_eq!(stats.misses, 1, "five ε steps must build the rings once");
        assert_eq!(stats.hits, 4);
        assert_eq!(
            index.n_cached_distributions(),
            0,
            "GEM draws from rings, never from per-ε tables"
        );
    }

    #[test]
    fn cache_stats_and_memory_accounting() {
        let index = PolicyIndex::new(policy());
        assert_eq!(index.distribution_cache_stats(), CacheStats::default());
        let base = index.cache_memory_bytes();
        let table = index.distribution("gem", 1.0, CellId(0), |p| {
            GraphExponential
                .output_distribution(p, 1.0, CellId(0))
                .unwrap()
        });
        let rings = index.distance_row(CellId(0));
        let expect = base + table.memory_bytes() + rings.memory_bytes();
        assert_eq!(index.cache_memory_bytes(), expect);
        let stats = index.distribution_cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        index.distribution("gem", 1.0, CellId(0), |_| panic!("must be cached"));
        assert_eq!(index.distribution_cache_stats().hits, 1);
    }

    #[test]
    fn sampling_table_memory_bytes_by_backend() {
        let small = SamplingTable::from_weights(vec![(CellId(0), 1.0), (CellId(1), 2.0)]);
        // 2 cells × 4 B + 2 cumulative f64s.
        assert_eq!(small.memory_bytes(), 2 * 4 + 2 * 8);
        let big: Vec<(CellId, f64)> = (0..SamplingTable::ALIAS_THRESHOLD as u32)
            .map(|i| (CellId(i), 1.0))
            .collect();
        let n = big.len();
        let alias = SamplingTable::from_weights(big);
        // n cells × 4 B + n probs × 8 B + n aliases × 4 B.
        assert_eq!(alias.memory_bytes(), n * (4 + 8 + 4));
    }

    #[test]
    fn component_slice_is_sorted_support() {
        let index = PolicyIndex::new(policy());
        let slice = index.component_slice(CellId(0));
        assert_eq!(slice.len(), 4);
        assert!(slice.windows(2).all(|w| w[0] < w[1]));
        assert!(slice.contains(&CellId(0)));
    }
}
