//! Sharded LRU plan cache with single-flight deduplication.
//!
//! Keys are the 128-bit canonical fingerprints of
//! [`blitz_catalog::CanonicalQuery`]; values are optimized plans stored
//! in *canonical* label space (each requester relabels through its own
//! permutation). A lookup returns one of three things:
//!
//! * [`Lookup::Hit`] — a completed plan is resident; it is promoted to
//!   most-recently-used and returned;
//! * [`Lookup::Wait`] — another request is already optimizing this very
//!   query; the caller waits on its [`Slot`] (blocking, or through a
//!   one-shot subscription) instead of duplicating the work (the
//!   "single-flight" property: N concurrent identical requests run
//!   exactly one optimization);
//! * [`Lookup::Reserved`] — the caller won the race and owns a
//!   [`Reservation`] it must resolve: [`Reservation::fulfill_cached`]
//!   publishes the plan and inserts it into the LRU, and dropping the
//!   reservation unresolved wakes waiters empty-handed so nobody blocks
//!   forever.
//!
//! Each shard is an independent `Mutex` around a hash map plus an
//! intrusive doubly-linked LRU list over a slab, so eviction and
//! promotion are O(1) and contention is spread `shards` ways. Only
//! completed entries occupy LRU capacity; in-flight slots are pinned
//! until resolved.
//!
//! Every in-flight [`Slot`] counts the requests waiting on it — the
//! reserving one plus each [`Lookup::Wait`] — under its shard's lock. A
//! waiter that gives up calls [`PlanCache::leave`]; when the last one
//! leaves, the slot's cancel flag is set for the job computing it (see
//! [`Reservation::cancel_flag`]) and the entry is unpinned, so the next
//! identical request reserves afresh instead of joining a dying job.
//! Resolutions are matched to entries by slot identity, never by key
//! alone, so a cancelled job finishing late cannot clobber the newer
//! in-flight entry that replaced it.

use crate::sync;
use blitz_core::Plan;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A finished optimization result in canonical label space.
#[derive(Clone, Debug)]
pub struct ComputedPlan {
    /// Optimal (or fallback) plan with canonical relation labels.
    pub plan: Plan,
    /// Plan cost under the request's cost model.
    pub cost: f32,
    /// Result cardinality.
    pub card: f64,
    /// Threshold passes the optimization ran (0 for greedy fallbacks).
    pub passes: u32,
    /// `true` for exact DP results, `false` for greedy fallbacks.
    pub exact: bool,
    /// The DP driver that produced an exact result; `None` for greedy
    /// fallbacks. Cached so later hits report the same provenance as
    /// the miss that ran the optimization.
    pub driver: Option<crate::ExactDriver>,
}

/// A one-shot callback [`Slot::subscribe`] registers.
pub(crate) type Notify = Box<dyn FnOnce() + Send + 'static>;

enum SlotState {
    /// Not resolved yet; holds the subscriptions to run when it is.
    Pending(Vec<Notify>),
    Done(Arc<ComputedPlan>),
    /// The owning reservation was dropped without a result.
    Abandoned,
}

/// Rendezvous for requests waiting on an in-flight optimization: a
/// thread blocks in [`Slot::wait`]; the server's event loop registers a
/// callback to run when the slot resolves instead.
pub struct Slot {
    state: Mutex<SlotState>,
    done: Condvar,
    /// Requests registered on this slot that have not left. Atomic only
    /// so `Slot` is `Sync`: every change happens under the owning
    /// shard's lock, which orders it against the lookups that join.
    waiters: AtomicUsize,
    /// Set once the last waiter has left; the job polls it.
    cancelled: AtomicBool,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot {
            state: Mutex::new(SlotState::Pending(Vec::new())),
            done: Condvar::new(),
            waiters: AtomicUsize::new(1),
            cancelled: AtomicBool::new(false),
        })
    }

    /// Resolve a pending slot: wake the blocked waiters, then run the
    /// subscriptions once the state lock is released.
    fn publish(&self, state: SlotState) {
        let subscribers = {
            let mut guard = sync::lock(&self.state);
            let SlotState::Pending(subscribers) = &mut *guard else { return };
            let subscribers = std::mem::take(subscribers);
            *guard = state;
            subscribers
        };
        self.done.notify_all();
        for notify in subscribers {
            notify();
        }
    }

    /// Run `notify` once, on the thread that resolves the slot, after
    /// its state lock is released. Returns `false`, dropping `notify`
    /// unrun, when the slot has already resolved.
    pub(crate) fn subscribe(&self, notify: Notify) -> bool {
        match &mut *sync::lock(&self.state) {
            SlotState::Pending(subscribers) => {
                subscribers.push(notify);
                true
            }
            _ => false,
        }
    }

    /// The slot's state without blocking: `None` while the optimization
    /// runs, `Some(None)` once it was abandoned, `Some(Some(plan))` once
    /// it finished.
    pub(crate) fn peek(&self) -> Option<Option<Arc<ComputedPlan>>> {
        match &*sync::lock(&self.state) {
            SlotState::Pending(_) => None,
            SlotState::Done(plan) => Some(Some(Arc::clone(plan))),
            SlotState::Abandoned => Some(None),
        }
    }

    /// Block until the in-flight optimization resolves, up to `timeout`
    /// (forever when `None`). Returns `None` on timeout or when the
    /// optimization was abandoned.
    pub fn wait(&self, timeout: Option<Duration>) -> Option<Arc<ComputedPlan>> {
        // A timeout past the end of `Instant` waits forever.
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        let mut state = sync::lock(&self.state);
        loop {
            match &*state {
                SlotState::Done(plan) => return Some(Arc::clone(plan)),
                SlotState::Abandoned => return None,
                SlotState::Pending(_) => match deadline {
                    None => state = sync::wait(&self.done, state),
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            return None;
                        }
                        let (guard, _) = sync::wait_timeout(&self.done, state, d - now);
                        state = guard;
                    }
                },
            }
        }
    }
}

const NIL: usize = usize::MAX;

struct Node {
    key: u128,
    value: Arc<ComputedPlan>,
    prev: usize,
    next: usize,
}

enum Entry {
    Ready(usize),
    InFlight(Arc<Slot>),
}

struct Shard {
    map: HashMap<u128, Entry>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    ready: usize,
}

impl Shard {
    fn new() -> Shard {
        Shard { map: HashMap::new(), nodes: Vec::new(), free: Vec::new(), head: NIL, tail: NIL, ready: 0 }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next].prev = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn touch(&mut self, idx: usize) {
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    /// Remove `key`'s entry if it is `slot`'s in-flight pin (compared by
    /// identity, not by key).
    fn remove_in_flight(&mut self, key: u128, slot: &Arc<Slot>) {
        if matches!(self.map.get(&key), Some(Entry::InFlight(s)) if Arc::ptr_eq(s, slot)) {
            self.map.remove(&key);
        }
    }

    fn insert_ready(&mut self, key: u128, value: Arc<ComputedPlan>, capacity: usize) {
        let node = Node { key, value, prev: NIL, next: NIL };
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.map.insert(key, Entry::Ready(idx));
        self.push_front(idx);
        self.ready += 1;
        while self.ready > capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            self.map.remove(&self.nodes[victim].key);
            self.free.push(victim);
            self.ready -= 1;
        }
    }
}

/// Outcome of [`PlanCache::lookup_or_reserve`].
pub enum Lookup {
    /// A completed plan was resident.
    Hit(Arc<ComputedPlan>),
    /// Another thread is optimizing this query; wait on the slot.
    Wait(Arc<Slot>),
    /// This thread owns the optimization; resolve the reservation.
    Reserved(Reservation),
}

/// Exclusive obligation to resolve one in-flight cache entry.
///
/// Resolve it by calling [`fulfill_cached`](Reservation::fulfill_cached)
/// once; if the reservation is instead dropped (worker died, job
/// discarded at shutdown), the entry is removed and all waiters wake
/// empty-handed.
pub struct Reservation {
    cache: Arc<PlanCache>,
    key: u128,
    slot: Arc<Slot>,
    resolved: bool,
}

impl Reservation {
    /// The slot waiters (including the reserving thread itself) block on.
    pub fn slot(&self) -> Arc<Slot> {
        Arc::clone(&self.slot)
    }

    /// Set once every request waiting on this reservation's slot has
    /// left ([`PlanCache::leave`]): nobody wants the result any more, so
    /// the job computing it should stop (and then drop the reservation).
    pub fn cancel_flag(&self) -> &AtomicBool {
        &self.slot.cancelled
    }

    /// Publish `value` to all waiters and insert it into the LRU.
    pub fn fulfill_cached(mut self, value: ComputedPlan) -> Arc<ComputedPlan> {
        self.resolved = true;
        let value = Arc::new(value);
        self.cache.complete(self.key, &self.slot, Arc::clone(&value));
        self.slot.publish(SlotState::Done(Arc::clone(&value)));
        value
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        if !self.resolved {
            self.cache.abandon(self.key, &self.slot);
            self.slot.publish(SlotState::Abandoned);
        }
    }
}

/// Sharded, single-flight LRU plan cache. Construct with
/// [`PlanCache::new`] and share behind an `Arc`.
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
}

impl PlanCache {
    /// Cache holding ~`capacity` completed plans across `shards`
    /// independently locked shards (both are rounded up to at least 1).
    pub fn new(capacity: usize, shards: usize) -> Arc<PlanCache> {
        let shards = shards.max(1);
        let per_shard_capacity = capacity.div_ceil(shards).max(1);
        Arc::new(PlanCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            per_shard_capacity,
        })
    }

    fn shard(&self, key: u128) -> &Mutex<Shard> {
        let h = (key as u64) ^ ((key >> 64) as u64);
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Look up `key`; on miss, atomically install an in-flight slot and
    /// hand the caller the obligation to resolve it.
    pub fn lookup_or_reserve(self: &Arc<Self>, key: u128) -> Lookup {
        let mut shard = sync::lock(self.shard(key));
        match shard.map.get(&key) {
            Some(Entry::Ready(idx)) => {
                let idx = *idx;
                let value = Arc::clone(&shard.nodes[idx].value);
                shard.touch(idx);
                Lookup::Hit(value)
            }
            Some(Entry::InFlight(slot)) => {
                slot.waiters.fetch_add(1, Relaxed);
                Lookup::Wait(Arc::clone(slot))
            }
            None => {
                let slot = Slot::new();
                shard.map.insert(key, Entry::InFlight(Arc::clone(&slot)));
                Lookup::Reserved(Reservation {
                    cache: Arc::clone(self),
                    key,
                    slot,
                    resolved: false,
                })
            }
        }
    }

    /// The resident plan for `key`, promoted to most-recently-used —
    /// without reserving anything on a miss (an in-flight entry counts
    /// as a miss here). For callers that will not run the optimization.
    pub fn get(&self, key: u128) -> Option<Arc<ComputedPlan>> {
        let mut shard = sync::lock(self.shard(key));
        let Some(&Entry::Ready(idx)) = shard.map.get(&key) else {
            return None;
        };
        shard.touch(idx);
        Some(Arc::clone(&shard.nodes[idx].value))
    }

    /// One request registered on `slot` — by the [`Lookup`] for `key`
    /// that returned it — stops waiting. When it was the last, this sets
    /// the slot's cancel flag and unpins the in-flight entry (if it is
    /// still this slot's), and returns `true`. Call at most once per
    /// registration.
    pub fn leave(&self, key: u128, slot: &Arc<Slot>) -> bool {
        let mut shard = sync::lock(self.shard(key));
        if slot.waiters.fetch_sub(1, Relaxed) != 1 {
            return false;
        }
        slot.cancelled.store(true, Relaxed);
        shard.remove_in_flight(key, slot);
        true
    }

    fn complete(&self, key: u128, slot: &Arc<Slot>, value: Arc<ComputedPlan>) {
        let mut shard = sync::lock(self.shard(key));
        // Replace only this reservation's own in-flight entry. It may be
        // gone already (its last waiter left), and the key may since
        // hold a newer in-flight entry or a resident plan: keep those.
        shard.remove_in_flight(key, slot);
        if !shard.map.contains_key(&key) {
            shard.insert_ready(key, value, self.per_shard_capacity);
        }
    }

    fn abandon(&self, key: u128, slot: &Arc<Slot>) {
        sync::lock(self.shard(key)).remove_in_flight(key, slot);
    }

    /// Completed plans currently resident (excludes in-flight slots).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| sync::lock(s).ready).sum()
    }

    /// `true` when no completed plan is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total completed-plan capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(cost: f32) -> ComputedPlan {
        ComputedPlan {
            plan: Plan::join(Plan::scan(0), Plan::scan(1)),
            cost,
            card: 1.0,
            passes: 1,
            exact: true,
            driver: Some(crate::ExactDriver::Split),
        }
    }

    #[test]
    fn miss_then_hit() {
        let cache = PlanCache::new(8, 2);
        let Lookup::Reserved(res) = cache.lookup_or_reserve(42) else {
            panic!("expected reservation");
        };
        res.fulfill_cached(plan(7.0));
        match cache.lookup_or_reserve(42) {
            Lookup::Hit(p) => assert_eq!(p.cost, 7.0),
            _ => panic!("expected hit"),
        }
        assert_eq!(cache.len(), 1);
    }

    /// A subscription that counts its runs into `ran`.
    fn counter(ran: &Arc<AtomicUsize>) -> Notify {
        let ran = Arc::clone(ran);
        Box::new(move || {
            ran.fetch_add(1, Relaxed);
        })
    }

    /// Blocked waiters wake with the plan, and subscriptions run once;
    /// a resolved slot refuses new subscriptions.
    #[test]
    fn inflight_is_shared_and_waiters_wake() {
        let cache = PlanCache::new(8, 1);
        let Lookup::Reserved(res) = cache.lookup_or_reserve(1) else { panic!() };
        let Lookup::Wait(slot) = cache.lookup_or_reserve(1) else {
            panic!("second lookup must wait on the in-flight slot");
        };
        let ran = Arc::new(AtomicUsize::new(0));
        assert!(slot.subscribe(counter(&ran)) && slot.subscribe(counter(&ran)));
        assert!(slot.peek().is_none());
        let waiter = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || slot.wait(Some(Duration::from_secs(5))))
        };
        res.fulfill_cached(plan(3.0));
        let got = waiter.join().unwrap().expect("waiter must receive the plan");
        assert_eq!(got.cost, 3.0);
        assert_eq!(ran.load(Relaxed), 2);
        assert!(!slot.subscribe(counter(&ran)), "a resolved slot refuses subscriptions");
        assert_eq!(slot.peek().map(|p| p.map(|p| p.cost)), Some(Some(3.0)));
    }

    #[test]
    fn abandoned_reservation_wakes_waiters_empty() {
        let cache = PlanCache::new(8, 1);
        let Lookup::Reserved(res) = cache.lookup_or_reserve(9) else { panic!() };
        let slot = res.slot();
        let ran = Arc::new(AtomicUsize::new(0));
        assert!(slot.subscribe(counter(&ran)));
        drop(res);
        assert_eq!(ran.load(Relaxed), 1, "abandonment resolves the slot too");
        assert!(matches!(slot.peek(), Some(None)));
        assert!(slot.wait(Some(Duration::from_secs(1))).is_none());
        // The key is free again: the next lookup reserves.
        assert!(matches!(cache.lookup_or_reserve(9), Lookup::Reserved(_)));
    }

    #[test]
    fn lru_evicts_oldest_and_touch_protects() {
        let cache = PlanCache::new(2, 1);
        for key in [1u128, 2, 3] {
            if key == 3 {
                // Touch key 1 so key 2 becomes the LRU victim.
                assert!(matches!(cache.lookup_or_reserve(1), Lookup::Hit(_)));
            }
            let Lookup::Reserved(res) = cache.lookup_or_reserve(key) else {
                panic!("key {key} should miss");
            };
            res.fulfill_cached(plan(key as f32));
        }
        assert_eq!(cache.len(), 2);
        assert!(matches!(cache.lookup_or_reserve(1), Lookup::Hit(_)));
        assert!(matches!(cache.lookup_or_reserve(3), Lookup::Hit(_)));
        assert!(matches!(cache.lookup_or_reserve(2), Lookup::Reserved(_)));
    }

    #[test]
    fn only_the_last_leaving_waiter_cancels_and_unpins() {
        let cache = PlanCache::new(8, 1);
        let Lookup::Reserved(res) = cache.lookup_or_reserve(3) else { panic!() };
        let owner = res.slot();
        let Lookup::Wait(joined) = cache.lookup_or_reserve(3) else { panic!() };
        assert!(!cache.leave(3, &joined), "one waiter remains");
        assert!(!res.cancel_flag().load(Relaxed));
        assert!(matches!(cache.lookup_or_reserve(3), Lookup::Wait(_)), "still pinned");
        // That Wait registered a third waiter; both remaining ones leave.
        assert!(!cache.leave(3, &owner));
        assert!(cache.leave(3, &owner), "the last leaver cancels");
        assert!(res.cancel_flag().load(Relaxed));
        assert!(matches!(cache.lookup_or_reserve(3), Lookup::Reserved(_)), "unpinned");
    }

    #[test]
    fn get_returns_resident_plans_only() {
        let cache = PlanCache::new(8, 1);
        assert!(cache.get(4).is_none());
        let Lookup::Reserved(res) = cache.lookup_or_reserve(4) else { panic!() };
        assert!(cache.get(4).is_none(), "in flight is not resident");
        res.fulfill_cached(plan(6.0));
        assert_eq!(cache.get(4).map(|p| p.cost), Some(6.0));
    }

    #[test]
    fn slot_wait_times_out() {
        let cache = PlanCache::new(8, 1);
        let Lookup::Reserved(res) = cache.lookup_or_reserve(7) else { panic!() };
        let slot = res.slot();
        assert!(slot.wait(Some(Duration::from_millis(10))).is_none());
        res.fulfill_cached(plan(1.0));
        assert!(slot.wait(Some(Duration::from_millis(10))).is_some());
    }
}
