//! [`CellSampler`]: a resolved, cheaply-clonable per-cell draw handle.
//!
//! The streaming release path perturbs one report per call (per-report RNG
//! streams keyed by arrival sequence), so before this module every report
//! paid one [`PolicyIndex`] distribution-cache mutex acquisition — under
//! cell-concentrated load, parallel flush lanes serialised on that single
//! lock. A [`CellSampler`] front-loads *all* shared-state access into one
//! resolution step ([`Mechanism::sampler`]): the handle owns (or borrows)
//! everything a draw needs — an `Arc` of the cell's distance rings or of a
//! compiled alias/cumulative table, the calibration scale with the
//! component slice to snap onto, or the prepared PIM hull — and
//! [`CellSampler::draw`] then touches no lock at all. The release kernel
//! resolves one handle per **distinct** cell for a policy's life (see
//! [`SamplerTable`], shared by every lane) and draws per report;
//! [`Mechanism::perturb_batch`] does the same per batch through a
//! [`SamplerMemo`].
//!
//! ## Determinism contract
//!
//! Handle draw ≡ [`Mechanism::perturb`]: for every in-tree mechanism,
//! [`CellSampler::draw`] consumes **exactly** the RNG sequence of
//! `perturb` on the same inputs (the euclidean exponential only below
//! [`SamplingTable::ALIAS_THRESHOLD`] support cells, where its table stops
//! being a cumulative scan). Resolution consumes no randomness. A fixed
//! `(seed, arrival order)` therefore lands the same database whether
//! reports are released one by one or through shared resolved handles —
//! CI enforces this byte-for-byte.

use crate::error::PglpError;
use crate::index::{DistanceRings, PolicyIndex, SamplingTable};
use crate::mech::noise::planar_laplace_noise;
use crate::mech::pim::{PlanarIsotropic, PreparedHull};
use crate::mech::Mechanism;
use panda_geo::{CellId, GridMap, Point};
use rand::Rng;
use rand::RngCore;
use std::borrow::Cow;
use std::collections::hash_map::Entry;
// panda-check: allow(unordered_iter): memo is keyed lookup only, never iterated
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// One ring of a resolved graph-exponential handle: `cum` is the sum of
/// the weights `|ring|·exp(−ε·d/2)` of this ring and every closer one; the
/// ring's cells sit at positions `start..start + len` of the rings.
#[derive(Debug, Clone, Copy, Default)]
struct RingSlot {
    cum: f64,
    start: u32,
    len: u32,
}

/// Ring slots, inline for up to two rings (every clique), so a memo's
/// handles on partition policies need not allocate.
#[derive(Debug, Clone)]
enum RingSlots {
    Inline([RingSlot; 2], usize),
    Boxed(Box<[RingSlot]>),
}

impl std::ops::Deref for RingSlots {
    type Target = [RingSlot];
    fn deref(&self) -> &[RingSlot] {
        match self {
            RingSlots::Inline(slots, n) => &slots[..*n],
            RingSlots::Boxed(slots) => slots,
        }
    }
}

/// How a resolved handle turns randomness into a released cell.
#[derive(Debug, Clone)]
enum Draw<'a> {
    /// Deterministic release (isolated cells, identity). Consumes no
    /// randomness.
    Exact(CellId),
    /// One draw from a compiled sampling table (euclidean exponential and
    /// any closed-form mechanism).
    Table(Arc<SamplingTable>),
    /// One graph-exponential draw over a cell's distance rings, which
    /// index into its component slice, with one slot per ring.
    Rings(Arc<DistanceRings>, &'a [CellId], RingSlots),
    /// Continuous planar Laplace noise around `center` with rate `scale`,
    /// snapped to the nearest cell of the component slice.
    LaplaceSnap {
        center: Point,
        scale: f64,
        cells: &'a [CellId],
        grid: &'a GridMap,
    },
    /// Continuous planar Laplace noise snapped to the nearest cell of the
    /// *whole grid* (the Geo-Indistinguishability baseline).
    GridSnap {
        center: Point,
        scale: f64,
        grid: &'a GridMap,
    },
    /// K-norm noise through a prepared PIM sensitivity hull, snapped to the
    /// component slice.
    Knorm {
        hull: Arc<PreparedHull>,
        eps: f64,
        center: Point,
        cells: &'a [CellId],
        grid: &'a GridMap,
    },
    /// A uniform pick from the component slice.
    Uniform { cells: &'a [CellId] },
    /// A base handle post-processed through a dense remap table.
    Remap {
        inner: Box<CellSampler<'a>>,
        table: &'a [CellId],
    },
}

/// A resolved draw handle for one `(mechanism, ε, true cell)` triple.
///
/// Obtained from [`Mechanism::sampler`]; validation and every shared-cache
/// lookup happen at resolution time, so [`CellSampler::draw`] is infallible
/// and lock-free. Handles are cheap to clone (an `Arc` bump or a couple of
/// borrowed slices) and borrow the [`PolicyIndex`] they were resolved
/// against.
#[derive(Debug, Clone)]
pub struct CellSampler<'a> {
    draw: Draw<'a>,
}

impl<'a> CellSampler<'a> {
    /// A handle that always releases `cell` exactly, consuming no
    /// randomness (isolated cells, the identity mechanism).
    pub fn exact(cell: CellId) -> Self {
        CellSampler {
            draw: Draw::Exact(cell),
        }
    }

    /// A handle drawing from a compiled sampling table.
    pub fn table(table: Arc<SamplingTable>) -> Self {
        CellSampler {
            draw: Draw::Table(table),
        }
    }

    /// A graph-exponential handle over `rings`, the rings of a cell whose
    /// component slice is `members`: releases `z` with probability
    /// ∝ `exp(−ε·d_G(s, z)/2)`. Costs one `exp` in all (ring `r` weighs
    /// `|ring r|·qᵈ` with `q = exp(−ε/2)`), nothing per cell.
    pub(crate) fn distance_rings(
        rings: Arc<DistanceRings>,
        members: &'a [CellId],
        eps: f64,
    ) -> Self {
        let q = (-eps / 2.0).exp();
        let (mut cum, mut start) = (0.0, 0);
        let slots = (0..rings.n_rings()).map(|r| {
            let len = rings.ring(r).len() as u32;
            // Saturating: q^(2^31) has long underflowed to 0 anyway.
            let d = i32::try_from(rings.ring_distance(r)).unwrap_or(i32::MAX);
            cum += f64::from(len) * q.powi(d);
            let slot = RingSlot { cum, start, len };
            start += len;
            slot
        });
        let n = rings.n_rings();
        let slots = if n > 2 {
            RingSlots::Boxed(slots.collect())
        } else {
            let mut inline = [RingSlot::default(); 2];
            inline
                .iter_mut()
                .zip(slots)
                .for_each(|(dst, slot)| *dst = slot);
            RingSlots::Inline(inline, n)
        };
        CellSampler {
            draw: Draw::Rings(rings, members, slots),
        }
    }

    /// A handle adding planar Laplace noise (rate `scale`, per length unit)
    /// around `center` and snapping to the nearest cell of `cells`.
    pub fn laplace_snap(grid: &'a GridMap, cells: &'a [CellId], center: Point, scale: f64) -> Self {
        CellSampler {
            draw: Draw::LaplaceSnap {
                center,
                scale,
                cells,
                grid,
            },
        }
    }

    /// A handle adding planar Laplace noise around `center` and snapping to
    /// the nearest cell of the whole grid (no policy constraint).
    pub fn grid_snap(grid: &'a GridMap, center: Point, scale: f64) -> Self {
        CellSampler {
            draw: Draw::GridSnap {
                center,
                scale,
                grid,
            },
        }
    }

    /// A handle sampling K-norm noise through a prepared PIM hull and
    /// snapping to the component slice.
    pub(crate) fn knorm(
        hull: Arc<PreparedHull>,
        eps: f64,
        center: Point,
        cells: &'a [CellId],
        grid: &'a GridMap,
    ) -> Self {
        CellSampler {
            draw: Draw::Knorm {
                hull,
                eps,
                center,
                cells,
                grid,
            },
        }
    }

    /// A handle releasing a uniform cell of `cells`.
    pub fn uniform(cells: &'a [CellId]) -> Self {
        CellSampler {
            draw: Draw::Uniform { cells },
        }
    }

    /// A handle post-processing every draw of `inner` through a dense remap
    /// table (`table[z.index()]` = released cell) — post-processing never
    /// weakens {ε,G}-location privacy.
    pub fn remapped(inner: CellSampler<'a>, table: &'a [CellId]) -> Self {
        CellSampler {
            draw: Draw::Remap {
                inner: Box::new(inner),
                table,
            },
        }
    }

    /// Draws one released cell. Infallible and lock-free: all validation
    /// and shared-cache access happened when the handle was resolved.
    pub fn draw(&self, rng: &mut dyn RngCore) -> CellId {
        match &self.draw {
            Draw::Exact(c) => *c,
            Draw::Table(table) => table.sample(rng),
            Draw::Rings(rings, members, slots) => {
                let last = slots.len() - 1;
                let u = rng.gen_range(0.0..slots[last].cum);
                // partition_point can land one past the end on FP edge cases.
                let r = slots.partition_point(|s| s.cum <= u).min(last);
                let lo = if r == 0 { 0.0 } else { slots[r - 1].cum };
                // Given ring r, `u` is uniform on [lo, cum): its residual
                // picks the cell, so a report still costs one RNG draw.
                let RingSlot { cum, start, len } = slots[r];
                let i = ((u - lo) / (cum - lo) * f64::from(len)) as u32;
                members[rings.member((start + i.min(len - 1)) as usize)]
            }
            Draw::LaplaceSnap {
                center,
                scale,
                cells,
                grid,
            } => {
                let y = *center + planar_laplace_noise(rng, *scale);
                snap_to_cells(grid, cells, y)
            }
            Draw::GridSnap {
                center,
                scale,
                grid,
            } => grid.nearest_cell(*center + planar_laplace_noise(rng, *scale)),
            Draw::Knorm {
                hull,
                eps,
                center,
                cells,
                grid,
            } => {
                let y = *center + PlanarIsotropic::sample_noise(hull, *eps, rng);
                snap_to_cells(grid, cells, y)
            }
            Draw::Uniform { cells } => cells[rng.gen_range(0..cells.len())],
            Draw::Remap { inner, table } => table[inner.draw(rng).index()],
        }
    }

    /// The cell an exact handle always releases, or `None` when the handle
    /// draws. An exact handle consumes no randomness, so a caller need not
    /// build a stream for it.
    pub fn fixed(&self) -> Option<CellId> {
        let Draw::Exact(cell) = self.draw else {
            return None;
        };
        Some(cell)
    }

    /// Heap bytes the handle keeps alive that its index may evict: its
    /// rings or table, and a boxed ring-slot array.
    fn pinned_bytes(&self) -> usize {
        match &self.draw {
            Draw::Table(table) => table.memory_bytes(),
            Draw::Rings(rings, _, slots) => rings.memory_bytes() + std::mem::size_of_val(&**slots),
            Draw::Remap { inner, .. } => inner.pinned_bytes() + std::mem::size_of::<Self>(),
            _ => 0,
        }
    }

    /// The exact output distribution of an exact, table or ring handle, as
    /// `(cell, probability)` pairs in the handle's own order; `None` for
    /// every other handle.
    pub fn probabilities(&self) -> Option<Vec<(CellId, f64)>> {
        match &self.draw {
            Draw::Exact(c) => Some(vec![(*c, 1.0)]),
            Draw::Table(table) => Some(
                table
                    .cells()
                    .iter()
                    .copied()
                    .zip(table.probabilities())
                    .collect(),
            ),
            Draw::Rings(rings, members, slots) => {
                let total = slots[slots.len() - 1].cum;
                let mut lo = 0.0;
                let mut out = Vec::with_capacity(members.len());
                for &RingSlot { cum, start, len } in slots.iter() {
                    let p = (cum - lo) / total / f64::from(len);
                    let ring = start as usize..(start + len) as usize;
                    out.extend(ring.map(|i| (members[rings.member(i)], p)));
                    lo = cum;
                }
                Some(out)
            }
            Draw::LaplaceSnap { .. }
            | Draw::GridSnap { .. }
            | Draw::Knorm { .. }
            | Draw::Uniform { .. }
            | Draw::Remap { .. } => None,
        }
    }
}

/// Snaps a continuous point to the nearest cell among `cells`
/// (deterministic; ties broken by lower cell id via strict `<`). Shared by
/// the Laplace-style and PIM handles — and by their per-call paths, so the
/// two can never drift apart.
pub fn snap_to_cells(grid: &GridMap, cells: &[CellId], y: Point) -> CellId {
    let mut best = cells[0];
    let mut best_d = grid.center(best).distance_sq(y);
    for &c in &cells[1..] {
        let d = grid.center(c).distance_sq(y);
        if d < best_d {
            best = c;
            best_d = d;
        }
    }
    best
}

/// A table of resolved [`CellSampler`]s for one `(mechanism, policy index,
/// ε)` triple, one lock-free slot per grid cell, filled on first touch and
/// shared by every release lane.
///
/// Concurrent first touches of one cell resolve once (the others wait for
/// the slot), so the shared [`PolicyIndex`] caches are touched once per
/// distinct cell for the table's life. Errors (a foreign cell, a bad ε) are
/// returned and never cached. Pinned handles count against the index's
/// ring byte budget (`max_cached_entries` × [`PolicyIndex::RING_BYTES_PER_ENTRY`]);
/// a cell whose handle does not fit resolves per use through the LRU.
pub struct SamplerTable<'a> {
    mech: &'a (dyn Mechanism + Sync),
    index: &'a PolicyIndex,
    eps: f64,
    /// A filled `None` slot resolves per use (an error, or past budget).
    slots: Box<[OnceLock<Option<CellSampler<'a>>>]>,
    pinned: AtomicUsize,
}

impl<'a> SamplerTable<'a> {
    /// An empty table over every cell of `index`'s grid.
    pub fn new(mech: &'a (dyn Mechanism + Sync), index: &'a PolicyIndex, eps: f64) -> Self {
        let n_cells = index.policy().grid().n_cells() as usize;
        SamplerTable {
            mech,
            index,
            eps,
            slots: (0..n_cells).map(|_| OnceLock::new()).collect(),
            pinned: AtomicUsize::new(0),
        }
    }

    /// The handle for `cell`, resolved through [`Mechanism::sampler`] on
    /// its first touch.
    ///
    /// # Errors
    ///
    /// Resolution failures ([`PglpError::InvalidEpsilon`],
    /// [`PglpError::LocationOutOfDomain`]), on every touch.
    pub fn handle(&self, cell: CellId) -> Result<Cow<'_, CellSampler<'a>>, PglpError> {
        let resolve = || self.mech.sampler(self.index, self.eps, cell);
        let pinned = self.slots.get(cell.index()).and_then(|slot| {
            slot.get_or_init(|| resolve().ok().filter(|h| self.reserve(h.pinned_bytes())))
                .as_ref()
        });
        match pinned {
            Some(handle) => Ok(Cow::Borrowed(handle)),
            None => resolve().map(Cow::Owned),
        }
    }

    /// Bytes of rings and tables the table's handles pin (≤ the index's
    /// ring budget).
    pub fn pinned_bytes(&self) -> usize {
        self.pinned.load(Ordering::Relaxed)
    }

    /// Charges `bytes` to the budget; `false` (nothing charged) past it.
    fn reserve(&self, bytes: usize) -> bool {
        self.pinned
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |p| {
                p.checked_add(bytes)
                    .filter(|&total| total <= self.index.ring_budget)
            })
            .is_ok()
    }
}

/// A batch-local memo of resolved [`CellSampler`]s, keyed by true cell.
///
/// [`Mechanism::perturb_batch`] owns one per caller batch, so the shared
/// [`PolicyIndex`] caches are touched **at most once per distinct cell**
/// no matter how many reports the batch releases.
///
/// A memo is scoped to **one `(mechanism, ε, policy index)` triple** — the
/// map is keyed by cell alone, so reusing it across mechanisms, epsilons or
/// indices would silently serve stale handles. A batch pins the triple for
/// its lifetime; a `debug_assert` catches mixed use.
#[derive(Debug, Default)]
pub struct SamplerMemo<'a> {
    // panda-check: allow(unordered_iter): keyed lookup only, never iterated
    samplers: HashMap<CellId, CellSampler<'a>>,
    /// `(mechanism name, mechanism address, ε bits)` of the first
    /// resolution, to assert the one-triple-per-memo discipline in debug
    /// builds. The address disambiguates same-named wrappers (two
    /// `RemappedMechanism`s over different bases); zero-sized mechanisms
    /// use the name alone (every instance is the one mechanism, and ZST
    /// addresses are not meaningful identities).
    #[cfg(debug_assertions)]
    scope: Option<(&'static str, usize, u64)>,
}

impl<'a> SamplerMemo<'a> {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct cells resolved so far (diagnostics).
    pub fn len(&self) -> usize {
        self.samplers.len()
    }

    /// `true` when no cell has been resolved yet.
    pub fn is_empty(&self) -> bool {
        self.samplers.is_empty()
    }

    /// The memoised handle for `cell`, resolving it through
    /// [`Mechanism::sampler`] on first sight. Never returns `Ok(None)`:
    /// every mechanism has a sampler. The `Option` stays until the
    /// benchmark package moves off this signature.
    ///
    /// # Panics
    ///
    /// In debug builds, when one memo is fed different mechanisms or
    /// epsilons (handles are memoised by cell alone; see the type docs).
    ///
    /// # Errors
    ///
    /// Propagates resolution failures ([`PglpError::InvalidEpsilon`],
    /// [`PglpError::LocationOutOfDomain`]).
    pub fn resolve<M>(
        &mut self,
        mech: &'a M,
        index: &'a PolicyIndex,
        eps: f64,
        cell: CellId,
    ) -> Result<Option<&CellSampler<'a>>, PglpError>
    where
        M: Mechanism + ?Sized,
    {
        self.handle(mech, index, eps, cell).map(Some)
    }

    /// [`SamplerMemo::resolve`] without the `Option`.
    pub(crate) fn handle<M>(
        &mut self,
        mech: &'a M,
        index: &'a PolicyIndex,
        eps: f64,
        cell: CellId,
    ) -> Result<&CellSampler<'a>, PglpError>
    where
        M: Mechanism + ?Sized,
    {
        #[cfg(debug_assertions)]
        {
            let addr = if std::mem::size_of_val(mech) > 0 {
                std::ptr::addr_of!(*mech) as *const () as usize
            } else {
                0
            };
            let scope = (mech.name(), addr, eps.to_bits());
            debug_assert_eq!(
                *self.scope.get_or_insert(scope),
                scope,
                "a SamplerMemo serves exactly one (mechanism, eps) pair"
            );
        }
        match self.samplers.entry(cell) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(v) => Ok(v.insert(mech.sampler(index, eps, cell)?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mech::{GraphExponential, IdentityMechanism, UniformComponent};
    use crate::policy::LocationPolicyGraph;
    use panda_geo::GridMap;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn index() -> PolicyIndex {
        PolicyIndex::new(LocationPolicyGraph::partition(
            GridMap::new(4, 4, 100.0),
            2,
            2,
        ))
    }

    #[test]
    fn exact_handle_consumes_no_randomness() {
        let mut rng = SmallRng::seed_from_u64(1);
        let before = rng.clone();
        let sampler = CellSampler::exact(CellId(3));
        assert_eq!(sampler.draw(&mut rng), CellId(3));
        // The RNG state is untouched: both clones draw the same next value.
        let mut after = rng;
        let mut before = before;
        assert_eq!(before.next_u64(), after.next_u64());
    }

    #[test]
    fn memo_resolves_each_cell_once() {
        let index = index();
        let mut memo = SamplerMemo::new();
        let touches0 = index.distribution_cache_touches();
        for _ in 0..100 {
            for cell in [CellId(0), CellId(5)] {
                memo.resolve(&GraphExponential, &index, 1.0, cell)
                    .unwrap()
                    .unwrap();
            }
        }
        assert_eq!(memo.len(), 2);
        assert_eq!(
            index.distribution_cache_touches() - touches0,
            2,
            "one cache touch per distinct cell, not per resolve"
        );
    }

    /// A table resolves each cell once, however many lanes race for it;
    /// errors come back on every touch and are never cached.
    #[test]
    fn table_resolves_each_cell_once_and_never_caches_errors() {
        let index = index();
        let table = SamplerTable::new(&GraphExponential, &index, 1.0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for cell in (0..16).cycle().take(400) {
                        table.handle(CellId(cell)).unwrap();
                    }
                });
            }
        });
        assert_eq!(index.distribution_cache_touches(), 16);
        assert!(table.pinned_bytes() > 0);
        for _ in 0..2 {
            assert!(matches!(
                table.handle(CellId(u32::MAX)),
                Err(PglpError::LocationOutOfDomain(_))
            ));
        }
        let bad_eps = SamplerTable::new(&GraphExponential, &index, 0.0);
        for _ in 0..2 {
            assert!(matches!(
                bad_eps.handle(CellId(0)),
                Err(PglpError::InvalidEpsilon(_))
            ));
        }
        assert_eq!(index.distribution_cache_touches(), 16);
        // Identity handles are exact: the kernel builds them no stream.
        let identity = SamplerTable::new(&IdentityMechanism, &index, 1.0);
        assert_eq!(identity.handle(CellId(6)).unwrap().fixed(), Some(CellId(6)));
        assert_eq!(table.handle(CellId(6)).unwrap().fixed(), None);
    }

    #[test]
    fn memo_propagates_real_errors() {
        // One memo per (mechanism, eps) pair — the memo discipline.
        let index = index();
        let mut bad_eps = SamplerMemo::new();
        assert!(matches!(
            bad_eps.resolve(&GraphExponential, &index, 0.0, CellId(0)),
            Err(PglpError::InvalidEpsilon(_))
        ));
        let mut bad_cell = SamplerMemo::new();
        assert!(matches!(
            bad_cell.resolve(&GraphExponential, &index, 1.0, CellId(u32::MAX)),
            Err(PglpError::LocationOutOfDomain(_))
        ));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "one (mechanism, eps) pair")]
    fn memo_rejects_mixed_epsilons_in_debug() {
        let index = index();
        let mut memo = SamplerMemo::new();
        let _ = memo.resolve(&GraphExponential, &index, 1.0, CellId(0));
        let _ = memo.resolve(&GraphExponential, &index, 2.0, CellId(1));
    }

    #[test]
    fn handles_are_clonable_and_deterministic() {
        let index = index();
        let sampler = GraphExponential.sampler(&index, 1.0, CellId(0)).unwrap();
        let clone = sampler.clone();
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        for _ in 0..200 {
            assert_eq!(sampler.draw(&mut a), clone.draw(&mut b));
        }
    }

    #[test]
    fn identity_and_uniform_handles_match_components() {
        let index = index();
        let mut rng = SmallRng::seed_from_u64(4);
        let id = IdentityMechanism.sampler(&index, 1.0, CellId(6)).unwrap();
        assert_eq!(id.draw(&mut rng), CellId(6));
        let uni = UniformComponent.sampler(&index, 1.0, CellId(6)).unwrap();
        for _ in 0..100 {
            let z = uni.draw(&mut rng);
            assert!(index.policy().same_component(CellId(6), z));
        }
    }
}
