//! Lock-free metric primitives: [`Counter`], [`Gauge`], [`Histogram`].
//!
//! All three are cheap cloneable handles over shared atomics, so a
//! component can keep its own handle for hot-path recording while a
//! [`crate::Registry`] holds another for snapshotting.
//!
//! A [`Counter`] always counts, also under `--cfg panda_obs_off`: it is
//! the one counter type, so a count the program reads back (a shutdown
//! total, a stats snapshot) and the count a scrape shows are the same
//! cell. It adds with `Release` and reads with `Acquire`, so a count
//! bumped after the rows it counts never runs ahead of them. [`Gauge`]
//! and [`Histogram`] are relaxed monitoring facts and compile out under
//! the cfg.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A monotonically increasing event counter. Counts under
/// `--cfg panda_obs_off` too (see the module doc).
#[derive(Clone, Debug, Default)]
pub struct Counter {
    inner: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`; whatever was written before the add is visible to a
    /// [`Counter::get`] that reads the new value.
    #[inline]
    pub fn add(&self, n: u64) {
        self.inner.fetch_add(n, Ordering::Release);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.inner.load(Ordering::Acquire)
    }
}

/// An instantaneous level (queue depth, busy workers): goes up and down.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    inner: Arc<AtomicI64>,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the level.
    #[inline]
    pub fn set(&self, v: i64) {
        #[cfg(not(panda_obs_off))]
        self.inner.store(v, Ordering::Relaxed);
        #[cfg(panda_obs_off)]
        let _ = v;
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        #[cfg(not(panda_obs_off))]
        self.inner.fetch_add(n, Ordering::Relaxed);
        #[cfg(panda_obs_off)]
        let _ = n;
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// The current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.inner.load(Ordering::Relaxed)
    }
}

/// Atomic stripes per histogram: enough that eight recording threads
/// rarely collide on one cache line, small enough to stay trivially
/// mergeable at snapshot time.
const STRIPES: usize = 8;

/// Linear sub-buckets per power-of-two octave (8 ⇒ bucket width is 1/8 of
/// the octave, so a quantile read from a bucket floor under-estimates the
/// true value by at most 12.5%).
const SUB: usize = 8;

/// Total fixed bucket count: values `0..8` get exact unit buckets, then
/// 61 octaves (`2³ ..= 2⁶³`) of [`SUB`] sub-buckets cover all of `u64`.
pub const N_BUCKETS: usize = SUB + 61 * SUB;

/// The bucket a value lands in. Total over `u64`, monotone in `v`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as usize;
        (exp - 3) * SUB + ((v >> (exp - 3)) & 7) as usize + SUB
    }
}

/// The smallest value landing in bucket `index` (the quantile
/// representative). Inverse of [`bucket_index`] on bucket floors.
#[inline]
pub fn bucket_floor(index: usize) -> u64 {
    if index < SUB {
        index as u64
    } else {
        let exp = index / SUB + 2;
        let sub = (index % SUB) as u64;
        (1u64 << exp) + (sub << (exp - 3))
    }
}

/// One stripe of bucket counters, cache-line aligned so stripes never
/// false-share.
#[repr(align(64))]
#[derive(Debug)]
struct Stripe {
    buckets: [AtomicU64; N_BUCKETS],
    sum: AtomicU64,
}

impl Stripe {
    fn new() -> Self {
        Stripe {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// The stable stripe this thread records into: threads round-robin over
/// stripes at first use, so up to [`STRIPES`] recorders proceed without
/// contending on one atomic.
#[inline]
fn stripe_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

/// A fixed-bucket log₂-scaled histogram of `u64` samples (latencies in
/// nanoseconds, batch sizes in reports — the unit is the caller's, named
/// by metric-name suffix convention: `_ns`, `_reports`, `_bytes`).
///
/// Recording touches one thread-striped bucket counter and the stripe
/// sum; stripes merge into an exact total at [`Histogram::snapshot`]
/// time. Quantiles read from bucket floors under-estimate by at most
/// 12.5% (one sub-bucket width).
#[derive(Clone, Debug)]
pub struct Histogram {
    stripes: Arc<[Stripe; STRIPES]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram {
            stripes: Arc::new(std::array::from_fn(|_| Stripe::new())),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        #[cfg(not(panda_obs_off))]
        {
            let stripe = &self.stripes[stripe_index()];
            stripe.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
            stripe.sum.fetch_add(value, Ordering::Relaxed);
        }
        #[cfg(panda_obs_off)]
        let _ = value;
    }

    /// Runs `f`, recording its wall-clock duration in nanoseconds. With
    /// telemetry compiled out (`--cfg panda_obs_off`) this is exactly
    /// `f()` — no clock reads — so hot paths can time themselves without
    /// any `cfg` noise at the call site.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        #[cfg(not(panda_obs_off))]
        {
            let start = crate::clock::now();
            let out = f();
            self.record(crate::clock::ns_since(start));
            out
        }
        #[cfg(panda_obs_off)]
        f()
    }

    /// Merges all stripes into an exact point-in-time view. Concurrent
    /// recording races individual samples in or out, never corrupts
    /// totals: every recorded sample is in exactly one stripe bucket.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = vec![0u64; N_BUCKETS];
        let mut sum = 0u64;
        for stripe in self.stripes.iter() {
            sum = sum.wrapping_add(stripe.sum.load(Ordering::Relaxed));
            for (total, bucket) in buckets.iter_mut().zip(stripe.buckets.iter()) {
                *total += bucket.load(Ordering::Relaxed);
            }
        }
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            sum,
        }
    }
}

/// An immutable merged view of a [`Histogram`]: per-bucket counts plus
/// exact count/sum, with quantiles derivable from the buckets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl HistogramSnapshot {
    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded samples (wrapping at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) by the ceil-rank rule, read as the
    /// floor of the bucket holding the rank-th smallest sample — so the
    /// estimate never exceeds the true value and under-estimates by at
    /// most 12.5% (one sub-bucket). `0` when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_floor(index);
            }
        }
        bucket_floor(N_BUCKETS - 1)
    }

    /// Per-bucket counts (length [`N_BUCKETS`]), for renderers.
    pub(crate) fn buckets(&self) -> &[u64] {
        &self.buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs under `--cfg panda_obs_off` too: counters never compile out.
    #[test]
    fn counter_counts_and_handles_share_the_cell() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        // Clones share the cell.
        let c2 = c.clone();
        c2.inc();
        assert_eq!(c.get(), 43);
        // So does the handle a registry holds.
        let registry = crate::Registry::new();
        registry.register_counter("c_total", &c);
        c.inc();
        assert_eq!(registry.snapshot().counter("c_total"), Some(44));
        assert_eq!(registry.counter("c_total").get(), 44);
    }

    #[test]
    fn gauge_basics() {
        let g = Gauge::new();
        g.set(7);
        g.inc();
        g.dec();
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn bucket_index_is_total_and_monotone_with_floor_inverse() {
        // Exhaustive over the small linear range plus every octave edge.
        let mut probes: Vec<u64> = (0..64).collect();
        for exp in 3..=63u32 {
            let base = 1u64 << exp;
            for delta in [0u64, 1, 2, 7] {
                probes.push(base.saturating_add(delta));
                probes.push(base.saturating_sub(delta));
            }
        }
        probes.push(u64::MAX);
        probes.sort_unstable();
        let mut last = 0usize;
        for &v in &probes {
            let idx = bucket_index(v);
            assert!(idx < N_BUCKETS, "index {idx} out of range for {v}");
            assert!(idx >= last, "index not monotone at {v}");
            last = idx;
            // v lands inside [floor(idx), floor(idx+1)).
            assert!(bucket_floor(idx) <= v, "floor above value at {v}");
            if idx + 1 < N_BUCKETS {
                assert!(v < bucket_floor(idx + 1), "value past ceiling at {v}");
            }
        }
        // Floors are fixed points of the index map.
        for idx in 0..N_BUCKETS {
            assert_eq!(bucket_index(bucket_floor(idx)), idx);
        }
    }

    #[test]
    fn quantile_error_is_bounded_by_one_sub_bucket() {
        // A deterministic spread across five orders of magnitude.
        let mut values: Vec<u64> = (0..10_000u64)
            .map(|i| (i.wrapping_mul(2654435761) % 1_000_000) + 1)
            .collect();
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let snap = h.snapshot();
        assert_eq!(snap.count(), values.len() as u64);
        assert_eq!(snap.sum(), values.iter().sum::<u64>());
        for q in [0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let est = snap.quantile(q);
            assert!(est <= exact, "q={q}: estimate {est} above exact {exact}");
            // Within one sub-bucket: exact < est * 9/8 (+1 for the unit range).
            assert!(
                exact <= est + est / 8 + 1,
                "q={q}: estimate {est} more than 12.5% below exact {exact}"
            );
        }
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.quantile(0.5), 0);
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn concurrent_recording_merges_exactly() {
        let h = Histogram::new();
        let c = Counter::new();
        let threads = 8usize;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let h = h.clone();
                let c = c.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        h.record(t as u64 * 1000 + i % 997);
                        c.inc();
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(c.get(), threads as u64 * per_thread);
        assert_eq!(snap.count(), threads as u64 * per_thread);
        // The merged histogram equals a single-threaded reference exactly.
        let reference = Histogram::new();
        for t in 0..threads {
            for i in 0..per_thread {
                reference.record(t as u64 * 1000 + i % 997);
            }
        }
        assert_eq!(snap, reference.snapshot());
    }
}
