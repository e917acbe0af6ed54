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
//! [`CellSampler::draw`] then touches no lock at all. Lanes resolve one
//! handle per **distinct** cell (see [`SamplerMemo`]) and draw per report.
//!
//! ## Determinism contract
//!
//! For every mechanism shipping a [`Mechanism::sampler`] override,
//! [`CellSampler::draw`] consumes **exactly** the RNG sequence of
//! [`Mechanism::perturb_batch_into`] on a single-report batch (which itself
//! matches the pre-handle streaming path). Resolution consumes no
//! randomness. A fixed `(seed, arrival order)` therefore lands the same
//! database whether reports are released one by one or through per-lane
//! memoised handles — CI enforces this byte-for-byte.

use crate::error::PglpError;
use crate::index::{DistanceRings, PolicyIndex, SamplingTable};
use crate::mech::noise::planar_laplace_noise;
use crate::mech::pim::{PlanarIsotropic, PreparedHull};
use crate::mech::Mechanism;
use panda_geo::{CellId, GridMap, Point};
use rand::Rng;
use rand::RngCore;
use std::collections::hash_map::Entry;
// panda-check: allow(unordered_iter): memo is keyed lookup only, never iterated
use std::collections::HashMap;
use std::sync::Arc;

/// One ring of a resolved graph-exponential handle: `cum` is the sum of
/// the weights `|ring|·exp(−ε·d/2)` of this ring and every closer one; the
/// ring's cells are `rings.cells()[start..start + len]`.
#[derive(Debug, Clone, Copy, Default)]
struct RingSlot {
    cum: f64,
    start: u32,
    len: u32,
}

/// Rings a handle keeps inline. Cliques (every partition policy) have two
/// rings, and lanes resolve about one handle per report on them, so their
/// handles must not allocate.
const INLINE_RINGS: usize = 2;

/// The ring slots of a handle: inline up to [`INLINE_RINGS`], else boxed.
#[derive(Debug, Clone)]
enum RingSlots {
    Inline([RingSlot; INLINE_RINGS], usize),
    Boxed(Box<[RingSlot]>),
}

impl RingSlots {
    fn collect(n: usize, slots: impl Iterator<Item = RingSlot>) -> Self {
        if n > INLINE_RINGS {
            return RingSlots::Boxed(slots.collect());
        }
        let mut inline = [RingSlot::default(); INLINE_RINGS];
        for (dst, slot) in inline.iter_mut().zip(slots) {
            *dst = slot;
        }
        RingSlots::Inline(inline, n)
    }

    fn as_slice(&self) -> &[RingSlot] {
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
    /// One graph-exponential draw over a cell's distance rings, one slot
    /// per ring.
    Rings {
        rings: Arc<DistanceRings>,
        slots: RingSlots,
    },
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

    /// A graph-exponential handle over `rings`: releases `z` with
    /// probability ∝ `exp(−ε·d_G(s, z)/2)`. Costs one `exp` in all (ring
    /// `r` weighs `|ring r|·qᵈ` with `q = exp(−ε/2)`), nothing per cell.
    pub(crate) fn distance_rings(rings: Arc<DistanceRings>, eps: f64) -> Self {
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
        let slots = RingSlots::collect(rings.n_rings(), slots);
        CellSampler {
            draw: Draw::Rings { rings, slots },
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
            Draw::Rings { rings, slots } => {
                let slots = slots.as_slice();
                let last = slots.len() - 1;
                let u = rng.gen_range(0.0..slots[last].cum);
                // partition_point can land one past the end on FP edge cases.
                let r = slots.partition_point(|s| s.cum <= u).min(last);
                let lo = if r == 0 { 0.0 } else { slots[r - 1].cum };
                // Given ring r, `u` is uniform on [lo, cum): its residual
                // picks the cell, so a report still costs one RNG draw.
                let RingSlot { cum, start, len } = slots[r];
                let i = ((u - lo) / (cum - lo) * f64::from(len)) as u32;
                rings.cells()[(start + i.min(len - 1)) as usize]
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
            Draw::Rings { rings, slots } => {
                let slots = slots.as_slice();
                let total = slots[slots.len() - 1].cum;
                let mut lo = 0.0;
                let mut out = Vec::with_capacity(rings.cells().len());
                for &RingSlot { cum, start, len } in slots.iter() {
                    let p = (cum - lo) / total / f64::from(len);
                    let ring = &rings.cells()[start as usize..(start + len) as usize];
                    out.extend(ring.iter().map(|&c| (c, p)));
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

/// A lane-local memo of resolved [`CellSampler`]s, keyed by true cell.
///
/// The release engine's unit of contention control: each lane of the
/// release kernel (a contiguous slice of a bulk batch or of an ingest
/// flush) and each caller batch owns one memo, so the shared
/// [`PolicyIndex`] caches are touched **at most once per distinct cell per
/// lane** no matter how many reports the lane releases.
///
/// Mechanisms without sampler support (no override and no closed-form
/// distribution) are detected on the first resolution and remembered:
/// [`SamplerMemo::resolve`] then returns `Ok(None)` and callers take the
/// per-report path instead.
///
/// A memo is scoped to **one `(mechanism, ε, policy index)` triple** — the
/// map is keyed by cell alone, so reusing it across mechanisms, epsilons or
/// indices would silently serve stale handles. Every release-engine lane
/// pins the triple for its lifetime; a `debug_assert` catches mixed use.
#[derive(Debug, Default)]
pub struct SamplerMemo<'a> {
    // panda-check: allow(unordered_iter): keyed lookup only, never iterated
    samplers: HashMap<CellId, CellSampler<'a>>,
    unsupported: bool,
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

    /// Whether the mechanism turned out not to support samplers (sticky
    /// after the first [`PglpError::SamplerUnsupported`] resolution).
    pub fn unsupported(&self) -> bool {
        self.unsupported
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
    /// [`Mechanism::sampler`] on first sight. `Ok(None)` means the
    /// mechanism has no sampler support — release per report instead.
    ///
    /// # Panics
    ///
    /// In debug builds, when one memo is fed different mechanisms or
    /// epsilons (handles are memoised by cell alone; see the type docs).
    ///
    /// # Errors
    ///
    /// Propagates resolution failures ([`PglpError::InvalidEpsilon`],
    /// [`PglpError::LocationOutOfDomain`]) other than
    /// [`PglpError::SamplerUnsupported`].
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
        if self.unsupported {
            return Ok(None);
        }
        match self.samplers.entry(cell) {
            Entry::Occupied(e) => Ok(Some(e.into_mut())),
            Entry::Vacant(v) => match mech.sampler(index, eps, cell) {
                Ok(sampler) => Ok(Some(v.insert(sampler))),
                Err(PglpError::SamplerUnsupported(_)) => {
                    self.unsupported = true;
                    Ok(None)
                }
                Err(e) => Err(e),
            },
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

    #[test]
    fn memo_propagates_real_errors() {
        // One memo per (mechanism, eps) pair — the memo discipline.
        let index = index();
        let mut bad_eps = SamplerMemo::new();
        assert!(matches!(
            bad_eps.resolve(&GraphExponential, &index, 0.0, CellId(0)),
            Err(PglpError::InvalidEpsilon(_))
        ));
        assert!(!bad_eps.unsupported());
        let mut bad_cell = SamplerMemo::new();
        assert!(matches!(
            bad_cell.resolve(&GraphExponential, &index, 1.0, CellId(u32::MAX)),
            Err(PglpError::LocationOutOfDomain(_))
        ));
        assert!(!bad_cell.unsupported());
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
    fn memo_remembers_unsupported_mechanisms() {
        /// No override, no closed form: the default must report
        /// `SamplerUnsupported` and the memo must remember it.
        struct Opaque;
        impl Mechanism for Opaque {
            fn name(&self) -> &'static str {
                "opaque"
            }
            fn perturb(
                &self,
                policy: &LocationPolicyGraph,
                eps: f64,
                true_loc: CellId,
                _rng: &mut dyn RngCore,
            ) -> Result<CellId, PglpError> {
                crate::mech::validate(policy, eps, true_loc)?;
                Ok(true_loc)
            }
        }
        let index = index();
        assert!(matches!(
            Opaque.sampler(&index, 1.0, CellId(0)),
            Err(PglpError::SamplerUnsupported("opaque"))
        ));
        let mut memo = SamplerMemo::new();
        assert!(memo
            .resolve(&Opaque, &index, 1.0, CellId(0))
            .unwrap()
            .is_none());
        assert!(memo.unsupported());
        assert!(memo
            .resolve(&Opaque, &index, 1.0, CellId(1))
            .unwrap()
            .is_none());
        assert!(memo.is_empty(), "unsupported mechanisms memoise nothing");
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
