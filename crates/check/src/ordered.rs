//! Rank-annotated lock wrappers with a runtime lock-order checker.
//!
//! Every contended lock in the workspace is assigned a [`Rank`] from the
//! global table in [`rank`]. Threads must acquire locks in strictly
//! ascending rank order; the checker maintains a per-thread held-lock stack
//! and a global order graph, and panics — naming both acquisition sites —
//! the moment any thread acquires out of order. Because the check runs
//! *before* the inner lock is taken, a would-be deadlock becomes a
//! deterministic panic on first exercise instead of a stuck CI job.
//!
//! The checker is active under `cfg(debug_assertions)` (so plain
//! `cargo test` exercises it) and under `--cfg panda_lockcheck` (the CI
//! contention job sets `RUSTFLAGS="--cfg panda_lockcheck"` to keep it on in
//! release tests). In ordinary release builds the rank field, the held
//! stack, and the guard token all compile away: `OrderedMutex<T>` is
//! layout-identical to `parking_lot::Mutex<T>` (checked by a `const`
//! assertion below).
//!
//! Adding a lock: pick an order value that reflects the outermost-first
//! acquisition position (gaps of 10–100 between neighbours leave room),
//! add a constant to [`rank`], and construct the lock with it. If two locks
//! are ever held together, the outer one must have the *lower* order.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A position in the global lock order. Lower = acquired first (outermost).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rank {
    order: u16,
    name: &'static str,
}

impl Rank {
    /// Define a rank. `order` is the position in the global acquisition
    /// order; `name` appears in diagnostics.
    pub const fn new(order: u16, name: &'static str) -> Self {
        Rank { order, name }
    }

    /// The numeric order of this rank.
    pub const fn order(self) -> u16 {
        self.order
    }

    /// The diagnostic name of this rank.
    pub const fn name(self) -> &'static str {
        self.name
    }
}

/// The workspace lock-rank table. One constant per lock (or per family of
/// never-held-together locks, like the server stripes). Listed outermost
/// first; a thread may only acquire downward through this list.
pub mod rank {
    use super::Rank;

    /// `ShardRouter`'s current-policy record; held across backend broadcast.
    pub const ROUTER_POLICY: Rank = Rank::new(100, "router.current_policy");
    /// A remote shard backend's `GatewayClient` link.
    pub const ROUTER_BACKEND: Rank = Rank::new(200, "router.backend_link");
    /// The gateway listener's connection-handler registry.
    pub const LISTENER_REGISTRY: Rank = Rank::new(300, "listener.handler_registry");
    /// The router-side re-send mailbox.
    pub const MAILBOX: Rank = Rank::new(400, "gateway.mailbox");
    /// One `Server` shard stripe's report store (stripes are never nested).
    pub const SERVER_STRIPE: Rank = Rank::new(500, "server.stripe");
    /// The `Server` health-state record.
    pub const SERVER_HEALTH: Rank = Rank::new(510, "server.health");
    /// `PolicyIndex` distribution (sampling-table) cache.
    pub const INDEX_DISTRIBUTIONS: Rank = Rank::new(600, "index.distributions");
    /// `PolicyIndex` distance-ring cache.
    pub const INDEX_RINGS: Rank = Rank::new(610, "index.rings");
    /// `PolicyIndex` calibration memo.
    pub const INDEX_CALIBRATIONS: Rank = Rank::new(620, "index.calibrations");
    /// `PolicyIndex` prepared-hull memos (slots are never nested).
    pub const INDEX_PIM_HULLS: Rank = Rank::new(630, "index.pim_hulls");
}

/// The lock-order bookkeeping, compiled in only when checking is on.
#[cfg(any(debug_assertions, panda_lockcheck))]
mod lockcheck {
    use super::Rank;
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::panic::Location;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock};

    struct Held {
        order: u16,
        name: &'static str,
        site: &'static Location<'static>,
        id: u64,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    }

    static NEXT_ID: AtomicU64 = AtomicU64::new(1);

    /// One witnessed `from → to` acquisition order, with the sites that
    /// first exhibited it.
    #[derive(Clone, Copy)]
    pub(super) struct Edge {
        pub(super) from_name: &'static str,
        pub(super) to_name: &'static str,
        pub(super) from_site: &'static Location<'static>,
        pub(super) to_site: &'static Location<'static>,
    }

    fn graph() -> &'static Mutex<HashMap<(u16, u16), Edge>> {
        static GRAPH: OnceLock<Mutex<HashMap<(u16, u16), Edge>>> = OnceLock::new();
        GRAPH.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// Would adding `from → to` close a cycle in the witnessed-order graph?
    fn creates_cycle(edges: &HashMap<(u16, u16), Edge>, from: u16, to: u16) -> bool {
        if from == to {
            return true;
        }
        // DFS from `to` looking for `from` along existing edges.
        let mut stack = vec![to];
        let mut seen = vec![to];
        while let Some(node) = stack.pop() {
            for &(a, b) in edges.keys() {
                if a == node && !seen.contains(&b) {
                    if b == from {
                        return true;
                    }
                    seen.push(b);
                    stack.push(b);
                }
            }
        }
        false
    }

    /// Insert an edge, panicking if it closes a cycle. Exposed (hidden) so
    /// tests can drive the cycle detector directly with dedicated ranks.
    pub(super) fn insert_edge(
        from: Rank,
        from_site: &'static Location<'static>,
        to: Rank,
        to_site: &'static Location<'static>,
    ) {
        let mut edges = graph().lock().unwrap_or_else(|e| e.into_inner());
        if edges.contains_key(&(from.order(), to.order())) {
            return;
        }
        if creates_cycle(&edges, from.order(), to.order()) {
            panic!(
                "lock-order cycle: edge `{}` (rank {}) -> `{}` (rank {}) at {} closes a cycle \
                 in the witnessed acquisition graph",
                from.name(),
                from.order(),
                to.name(),
                to.order(),
                to_site,
            );
        }
        edges.insert(
            (from.order(), to.order()),
            Edge {
                from_name: from.name(),
                to_name: to.name(),
                from_site,
                to_site,
            },
        );
    }

    /// Look up a previously witnessed `from → to` edge.
    fn witnessed(from: u16, to: u16) -> Option<Edge> {
        graph()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&(from, to))
            .copied()
    }

    /// Record a blocking acquisition. Panics on rank inversion. Returns the
    /// held-entry id the guard must pass back to [`release`].
    pub(super) fn acquire(rank: Rank, site: &'static Location<'static>) -> u64 {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            for h in held.iter() {
                if h.order >= rank.order() {
                    let hint = witnessed(rank.order(), h.order)
                        .map(|e| {
                            format!(
                                "\n  reverse order `{}` -> `{}` was previously witnessed \
                                 ({} then {})",
                                e.from_name, e.to_name, e.from_site, e.to_site
                            )
                        })
                        .unwrap_or_default();
                    panic!(
                        "lock-order inversion: acquiring `{}` (rank {}) at {} \
                         while holding `{}` (rank {}) acquired at {}{}",
                        rank.name(),
                        rank.order(),
                        site,
                        h.name,
                        h.order,
                        h.site,
                        hint,
                    );
                }
            }
            // Witness the (outermost-held → new) edges before pushing.
            for h in held.iter() {
                insert_edge(Rank::new(h.order, h.name), h.site, rank, site);
            }
            let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
            held.push(Held {
                order: rank.order(),
                name: rank.name(),
                site,
                id,
            });
            id
        })
    }

    /// Record a successful `try_lock`. Non-blocking acquisitions cannot
    /// deadlock, so no inversion check — but the entry still participates
    /// as a held lock for later blocking acquisitions.
    pub(super) fn acquire_try(rank: Rank, site: &'static Location<'static>) -> u64 {
        HELD.with(|held| {
            let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
            held.borrow_mut().push(Held {
                order: rank.order(),
                name: rank.name(),
                site,
                id,
            });
            id
        })
    }

    /// Drop a held entry by id (guards are not necessarily released LIFO).
    pub(super) fn release(id: u64) {
        HELD.with(|held| held.borrow_mut().retain(|h| h.id != id));
    }

    /// Snapshot of the witnessed order graph as `(from, to)` name pairs.
    pub(super) fn witnessed_edges() -> Vec<(&'static str, &'static str)> {
        let edges = graph().lock().unwrap_or_else(|e| e.into_inner());
        let mut v: Vec<_> = edges.values().map(|e| (e.from_name, e.to_name)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// A guard token that pops the held-stack entry when dropped.
#[cfg(any(debug_assertions, panda_lockcheck))]
#[derive(Debug)]
struct HeldToken(u64);

#[cfg(any(debug_assertions, panda_lockcheck))]
impl Drop for HeldToken {
    fn drop(&mut self) {
        lockcheck::release(self.0);
    }
}

/// Snapshot of the witnessed lock-order graph (checking builds only), as
/// sorted `(from, to)` rank-name pairs. Empty when checking is off.
#[doc(hidden)]
pub fn witnessed_edges() -> Vec<(&'static str, &'static str)> {
    #[cfg(any(debug_assertions, panda_lockcheck))]
    {
        lockcheck::witnessed_edges()
    }
    #[cfg(not(any(debug_assertions, panda_lockcheck)))]
    {
        Vec::new()
    }
}

/// Directly insert a `from → to` edge into the order graph, panicking if it
/// closes a cycle. Test hook for the cycle detector; use dedicated ranks so
/// tests do not pollute the production portion of the graph.
#[doc(hidden)]
#[cfg(any(debug_assertions, panda_lockcheck))]
#[track_caller]
pub fn record_edge_for_test(from: Rank, to: Rank) {
    let site = std::panic::Location::caller();
    lockcheck::insert_edge(from, site, to, site);
}

/// A mutex that participates in the global lock order.
pub struct OrderedMutex<T: ?Sized> {
    #[cfg(any(debug_assertions, panda_lockcheck))]
    rank: Rank,
    inner: parking_lot::Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Create a mutex at `rank`.
    pub fn new(rank: Rank, value: T) -> Self {
        #[cfg(not(any(debug_assertions, panda_lockcheck)))]
        let _ = rank;
        OrderedMutex {
            #[cfg(any(debug_assertions, panda_lockcheck))]
            rank,
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> OrderedMutex<T> {
    /// Acquire the lock, blocking. Panics (under checking) if this thread
    /// already holds a lock of equal or higher rank.
    #[track_caller]
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        #[cfg(any(debug_assertions, panda_lockcheck))]
        let token = HeldToken(lockcheck::acquire(
            self.rank,
            std::panic::Location::caller(),
        ));
        OrderedMutexGuard {
            #[cfg(any(debug_assertions, panda_lockcheck))]
            _token: token,
            guard: self.inner.lock(),
        }
    }

    /// Try to acquire the lock without blocking. No inversion check — a
    /// failed try cannot deadlock — but a successful acquisition still
    /// counts as held for later blocking acquisitions on this thread.
    #[track_caller]
    pub fn try_lock(&self) -> Option<OrderedMutexGuard<'_, T>> {
        let guard = self.inner.try_lock()?;
        #[cfg(any(debug_assertions, panda_lockcheck))]
        let token = HeldToken(lockcheck::acquire_try(
            self.rank,
            std::panic::Location::caller(),
        ));
        Some(OrderedMutexGuard {
            #[cfg(any(debug_assertions, panda_lockcheck))]
            _token: token,
            guard,
        })
    }

    /// Access the inner value through exclusive borrow (no locking needed).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex").finish_non_exhaustive()
    }
}

/// Guard for [`OrderedMutex::lock`].
pub struct OrderedMutexGuard<'a, T: ?Sized> {
    // Declared before `guard`: the held-stack entry is popped first, then
    // the inner lock released. Both happen on this thread, so order between
    // them is unobservable to other threads' checks.
    #[cfg(any(debug_assertions, panda_lockcheck))]
    _token: HeldToken,
    guard: parking_lot::MutexGuard<'a, T>,
}

impl<T: ?Sized> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for OrderedMutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A reader-writer lock that participates in the global lock order.
pub struct OrderedRwLock<T: ?Sized> {
    #[cfg(any(debug_assertions, panda_lockcheck))]
    rank: Rank,
    inner: parking_lot::RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Create a lock at `rank`.
    pub fn new(rank: Rank, value: T) -> Self {
        #[cfg(not(any(debug_assertions, panda_lockcheck)))]
        let _ = rank;
        OrderedRwLock {
            #[cfg(any(debug_assertions, panda_lockcheck))]
            rank,
            inner: parking_lot::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> OrderedRwLock<T> {
    /// Acquire a shared read guard. Rank rules are identical to `lock()` —
    /// reads and writes occupy the same position in the order.
    #[track_caller]
    pub fn read(&self) -> OrderedRwLockReadGuard<'_, T> {
        #[cfg(any(debug_assertions, panda_lockcheck))]
        let token = HeldToken(lockcheck::acquire(
            self.rank,
            std::panic::Location::caller(),
        ));
        OrderedRwLockReadGuard {
            #[cfg(any(debug_assertions, panda_lockcheck))]
            _token: token,
            guard: self.inner.read(),
        }
    }

    /// Acquire an exclusive write guard.
    #[track_caller]
    pub fn write(&self) -> OrderedRwLockWriteGuard<'_, T> {
        #[cfg(any(debug_assertions, panda_lockcheck))]
        let token = HeldToken(lockcheck::acquire(
            self.rank,
            std::panic::Location::caller(),
        ));
        OrderedRwLockWriteGuard {
            #[cfg(any(debug_assertions, panda_lockcheck))]
            _token: token,
            guard: self.inner.write(),
        }
    }

    /// Access the inner value through exclusive borrow (no locking needed).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized> fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedRwLock").finish_non_exhaustive()
    }
}

/// Guard for [`OrderedRwLock::read`].
pub struct OrderedRwLockReadGuard<'a, T: ?Sized> {
    #[cfg(any(debug_assertions, panda_lockcheck))]
    _token: HeldToken,
    guard: parking_lot::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for OrderedRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for OrderedRwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Guard for [`OrderedRwLock::write`].
pub struct OrderedRwLockWriteGuard<'a, T: ?Sized> {
    #[cfg(any(debug_assertions, panda_lockcheck))]
    _token: HeldToken,
    guard: parking_lot::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for OrderedRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for OrderedRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for OrderedRwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

// In ordinary release builds every checking field compiles away and the
// wrappers are layout-identical to the raw parking_lot locks. Evaluated by
// tier-1's `cargo build --release`.
#[cfg(not(any(debug_assertions, panda_lockcheck)))]
const _: () = {
    assert!(
        std::mem::size_of::<OrderedMutex<u64>>() == std::mem::size_of::<parking_lot::Mutex<u64>>()
    );
    assert!(
        std::mem::size_of::<OrderedRwLock<u64>>()
            == std::mem::size_of::<parking_lot::RwLock<u64>>()
    );
};
