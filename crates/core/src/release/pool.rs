//! [`ReleasePool`]: the persistent worker pool behind the release engine.
//!
//! PR 2's [`ParallelReleaser`](super::ParallelReleaser) spawned a fresh
//! crossbeam scope per release call — fine for one 256k-report bulk
//! replay, a tax on streaming workloads that release thousands of small
//! micro-batches per second. This pool spawns its workers **once**; between
//! bursts they sit parked in a bounded MPMC channel `recv` (zero CPU) and
//! wake only when work arrives:
//!
//! * submission is a queue push, not a thread spawn — the per-call cost an
//!   ingest flush pays;
//! * the queue is **bounded** ([`ReleasePool::QUEUE_SLOTS_PER_WORKER`]
//!   slots per worker), so a producer that outruns the pool blocks on
//!   submit instead of growing an unbounded backlog — the same
//!   backpressure discipline the ingest pipeline builds on;
//! * [`ReleasePool::run_scoped`] lends *borrowed* jobs to the `'static`
//!   workers and blocks until every one has finished, so release calls can
//!   hand out `&mut` output lanes without copying — the pool-flavoured
//!   equivalent of a crossbeam scope;
//! * dropping the pool disconnects the queue; workers drain what is already
//!   queued, then exit, and `Drop` joins them (no report in flight is
//!   lost).
//!
//! Scheduling never affects output: the release kernel keys every RNG
//! stream off the report's sequence number, so *which* worker runs a lane
//! is irrelevant — see the determinism contract on
//! [`ParallelReleaser`](super::ParallelReleaser).
//!
//! Contention discipline: each lane a pool worker runs owns a
//! [`SamplerMemo`](crate::mech::SamplerMemo), so concurrent lanes touch the
//! shared [`PolicyIndex`](crate::PolicyIndex) distribution cache at most
//! once per distinct cell each — workers spend their time drawing, not
//! queueing on the cache mutex.

use crossbeam::channel::{bounded, Receiver, Sender};
use panda_obs::{clock, Counter, Gauge, Histogram, Registry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A unit of pool work, type-erased and `'static` (see
/// [`ReleasePool::run_scoped`] for how borrowed jobs get here soundly).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The engine-wide "one lane/worker per hardware thread" default, shared
/// by [`ReleasePool::global`], `ParallelReleaser::new`, and the ingest
/// pipeline's lane default so they can never silently diverge.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Counts outstanding jobs of one `run_scoped` call; the caller parks on it
/// until every job has completed (or panicked).
struct Latch {
    remaining: Mutex<usize>,
    all_done: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn new(n: usize) -> Self {
        Latch {
            remaining: Mutex::new(n),
            all_done: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn complete_one(&self) {
        let mut remaining = self.remaining.lock().expect("latch poisoned");
        *remaining -= 1;
        if *remaining == 0 {
            self.all_done.notify_all();
        }
    }

    fn wait(&self) {
        let mut remaining = self.remaining.lock().expect("latch poisoned");
        while *remaining > 0 {
            remaining = self.all_done.wait(remaining).expect("latch poisoned");
        }
    }
}

/// A long-lived pool of release workers fed by a bounded MPMC queue.
///
/// Construct one explicitly for an isolated component (tests, a dedicated
/// ingest pipeline), or share the process-wide [`ReleasePool::global`] —
/// the default every [`ParallelReleaser`](super::ParallelReleaser) release
/// goes through.
pub struct ReleasePool {
    /// `Some` for the pool's lifetime; taken in `Drop` to disconnect the
    /// queue so workers drain and exit.
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    /// Workers currently executing a job (each worker's loop brackets the
    /// job with inc/dec on its own clone of this gauge).
    busy_workers: Gauge,
    /// `run_scoped` calls completed.
    bursts: Counter,
    /// Submit-to-drained latency of each `run_scoped` burst, in ns.
    burst_ns: Histogram,
}

impl std::fmt::Debug for ReleasePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReleasePool")
            .field("n_workers", &self.workers.len())
            .field("queued", &self.tx.as_ref().map(|tx| tx.len()).unwrap_or(0))
            .finish()
    }
}

impl ReleasePool {
    /// Bounded-queue slots per worker: deep enough that workers never
    /// starve between a caller's submissions, shallow enough that a
    /// runaway producer feels backpressure within a few bursts.
    pub const QUEUE_SLOTS_PER_WORKER: usize = 4;

    /// Spawns a pool of `n_workers` (≥ 1) parked worker threads.
    pub fn new(n_workers: usize) -> Self {
        let n_workers = n_workers.max(1);
        let (tx, rx) = bounded::<Job>(n_workers * Self::QUEUE_SLOTS_PER_WORKER);
        let busy_workers = Gauge::new();
        let workers = (0..n_workers)
            .map(|i| {
                let rx: Receiver<Job> = rx.clone();
                let busy = busy_workers.clone();
                std::thread::Builder::new()
                    .name(format!("panda-release-{i}"))
                    .spawn(move || {
                        // Parked in `recv` between bursts; `Err` means the
                        // queue is drained *and* the pool was dropped.
                        while let Ok(job) = rx.recv() {
                            busy.inc();
                            job();
                            busy.dec();
                        }
                    })
                    .expect("spawn release worker")
            })
            .collect();
        ReleasePool {
            tx: Some(tx),
            workers,
            busy_workers,
            bursts: Counter::new(),
            burst_ns: Histogram::new(),
        }
    }

    /// The process-wide shared pool, spawned on first use with one worker
    /// per hardware thread. Lives for the rest of the process (workers are
    /// parked, not spinning, while idle).
    pub fn global() -> &'static ReleasePool {
        static GLOBAL: OnceLock<ReleasePool> = OnceLock::new();
        GLOBAL.get_or_init(|| ReleasePool::new(default_parallelism()))
    }

    /// Number of worker threads.
    pub fn n_workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs currently queued (racy by nature; for monitoring/tests).
    pub fn queued(&self) -> usize {
        self.tx.as_ref().map(|tx| tx.len()).unwrap_or(0)
    }

    /// Adopts the pool's live occupancy/latency handles into `registry`
    /// under `panda_pool_*` names.
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_gauge("panda_pool_busy_workers", &self.busy_workers);
        registry.register_counter("panda_pool_bursts_total", &self.bursts);
        registry.register_histogram("panda_pool_burst_ns", &self.burst_ns);
    }

    /// Runs `jobs` on the pool and blocks until **all** of them have
    /// finished — the pool-flavoured crossbeam scope. Jobs may borrow from
    /// the caller's stack (disjoint `&mut` output lanes included).
    ///
    /// Don't call this from *inside* a pool job: the inner call would wait
    /// for workers that may all be parked in outer calls doing the same.
    /// The release paths never nest.
    ///
    /// # Panics
    ///
    /// Re-raises (as a panic in the caller) when any job panicked; the
    /// latch still waits for the remaining jobs first, so borrowed data is
    /// never left aliased by a live worker.
    pub fn run_scoped<'env>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        if jobs.is_empty() {
            return;
        }
        let t0 = clock::now();
        let latch = Arc::new(Latch::new(jobs.len()));
        let tx = self.tx.as_ref().expect("pool alive");
        let mut send_failed = false;
        let mut jobs = jobs.into_iter();
        for job in jobs.by_ref() {
            // SAFETY: every exit from this function — success, job panic,
            // or submission failure — first waits on the latch below, and
            // the latch only opens once each submitted job has run to
            // completion (the wrapper decrements on the job's panic path
            // too) and each unsubmitted job has been accounted for. So
            // every `'env` borrow a job captures strictly outlives its
            // execution on the worker.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
            let job_latch = Arc::clone(&latch);
            let wrapped: Job = Box::new(move || {
                if catch_unwind(AssertUnwindSafe(job)).is_err() {
                    job_latch.panicked.store(true, Ordering::Release);
                }
                job_latch.complete_one();
            });
            // Blocks when the queue is full: submission backpressure.
            if tx.send(wrapped).is_err() {
                // Workers exited while the pool is alive — a pool-logic
                // bug. Do NOT unwind yet: in-flight jobs still borrow the
                // caller's stack. Account for this job (its wrapper was
                // consumed unsent) and every remaining one so the latch
                // converges, drain it, then surface the bug as a panic.
                latch.complete_one();
                for _ in jobs.by_ref() {
                    latch.complete_one();
                }
                send_failed = true;
                break;
            }
        }
        latch.wait();
        self.burst_ns.record(clock::ns_since(t0));
        self.bursts.inc();
        assert!(!send_failed, "release pool workers exited early");
        if latch.panicked.load(Ordering::Acquire) {
            panic!("release pool job panicked");
        }
    }
}

impl Drop for ReleasePool {
    fn drop(&mut self) {
        // Disconnect the queue; workers drain remaining jobs, then exit.
        drop(self.tx.take());
        for worker in self.workers.drain(..) {
            // A worker only panics if a fire-and-forget job panicked (the
            // scoped path catches job panics); surface it here.
            worker.join().expect("release worker panicked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn run_scoped_executes_every_borrowed_job() {
        let pool = ReleasePool::new(4);
        let mut data = vec![0u64; 64];
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = data
            .chunks_mut(8)
            .enumerate()
            .map(|(i, chunk)| {
                Box::new(move || {
                    for (j, slot) in chunk.iter_mut().enumerate() {
                        *slot = (i * 8 + j) as u64;
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_scoped(jobs);
        assert_eq!(data, (0..64).collect::<Vec<u64>>());
    }

    #[test]
    fn sequential_run_scoped_calls_reuse_the_same_workers() {
        let pool = ReleasePool::new(2);
        let counter = AtomicUsize::new(0);
        for _ in 0..50 {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                .map(|_| {
                    Box::new(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_scoped(jobs);
        }
        assert_eq!(counter.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn more_jobs_than_queue_slots_all_complete() {
        // 1 worker → 4 queue slots; 64 jobs exercise submit backpressure.
        let pool = ReleasePool::new(1);
        let counter = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..64)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_scoped(jobs);
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn concurrent_callers_share_the_pool() {
        let pool = Arc::new(ReleasePool::new(3));
        let counter = Arc::new(AtomicUsize::new(0));
        let callers: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..5)
                            .map(|_| {
                                let counter = Arc::clone(&counter);
                                Box::new(move || {
                                    counter.fetch_add(1, Ordering::Relaxed);
                                }) as Box<dyn FnOnce() + Send + '_>
                            })
                            .collect();
                        pool.run_scoped(jobs);
                    }
                })
            })
            .collect();
        for c in callers {
            c.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn job_panic_surfaces_after_all_jobs_complete() {
        let pool = ReleasePool::new(2);
        let completed = Arc::new(AtomicUsize::new(0));
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let completed = Arc::clone(&completed);
            let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = vec![Box::new(|| {
                panic!("job boom");
            })];
            for _ in 0..8 {
                let completed = Arc::clone(&completed);
                jobs.push(Box::new(move || {
                    completed.fetch_add(1, Ordering::Relaxed);
                }));
            }
            pool.run_scoped(jobs);
        }));
        assert!(result.is_err(), "job panic must re-raise in the caller");
        assert_eq!(completed.load(Ordering::Relaxed), 8, "healthy jobs ran");
        // The pool survives a panicked job.
        let counter = AtomicUsize::new(0);
        pool.run_scoped(vec![Box::new(|| {
            counter.fetch_add(1, Ordering::Relaxed);
        })]);
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ReleasePool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..16)
            .map(|_| {
                let counter = Arc::clone(&counter);
                Box::new(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_scoped(jobs);
        drop(pool);
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn global_pool_is_shared_and_sized_to_hardware() {
        let a = ReleasePool::global();
        let b = ReleasePool::global();
        assert!(std::ptr::eq(a, b));
        assert_eq!(a.n_workers(), default_parallelism());
    }
}
