//! A free list of DP tables, recycled across service requests.
//!
//! The exact path allocates an `O(2^n)`-row table per optimization; at
//! service request rates that is the dominant allocator traffic. Since
//! [`blitz_core::optimize_join_threshold_arena_cancellable`] fills a
//! caller-provided table in place — with results bit-identical to a
//! fresh allocation — the service can keep finished tables on a shelf
//! keyed by `(layout, n_rels)` and hand them to the next request of the
//! same shape.
//!
//! The pool is deliberately simple: one mutex-guarded map of bounded
//! vectors. Only the service's DP workers take and put, and one lock
//! round-trip per take/put is noise next to the `O(3^n)` optimization
//! the table is for. The per-key bound keeps resident memory
//! proportional to the *concurrency* of each query shape rather than
//! its history.

use crate::sync::lock;
use blitz_core::{AosTable, HotColdTable, LayoutChoice, PlanArena, TableLayout};
use std::collections::HashMap;
use std::sync::Mutex;

/// Tables kept per `(layout, n_rels)` shelf. Matching the worker-pool
/// default would retain more memory than recycling usually saves; two
/// covers the common case of back-to-back same-shape requests while an
/// occasional burst just allocates.
const SHELF_CAPACITY: usize = 2;

/// A pooled table of any supported layout. The layout is part of the
/// shelf key, so a [`TablePool::take`] for layout `L` only ever sees
/// the matching variant.
pub enum AnyTable {
    /// An array-of-structs table.
    Aos(AosTable),
    /// A hot/cold split table.
    HotCold(HotColdTable),
}

/// A table layout the pool can shelve: pairs the static
/// [`LayoutChoice`] tag with the [`AnyTable`] wrap/unwrap glue.
pub trait PoolSlot: TableLayout + Send + Sized {
    /// The layout tag used in the shelf key.
    const LAYOUT: LayoutChoice;
    /// Box this table into the pool's uniform variant.
    fn wrap(self) -> AnyTable;
    /// Recover this layout from a pooled variant; `None` on a layout
    /// mismatch (impossible when the shelf key includes the layout, but
    /// the pool stays defensive rather than panicking on a service
    /// request path).
    fn reclaim(table: AnyTable) -> Option<Self>;
}

impl PoolSlot for AosTable {
    const LAYOUT: LayoutChoice = LayoutChoice::Aos;
    fn wrap(self) -> AnyTable {
        AnyTable::Aos(self)
    }
    fn reclaim(table: AnyTable) -> Option<AosTable> {
        match table {
            AnyTable::Aos(t) => Some(t),
            _ => None,
        }
    }
}

impl PoolSlot for HotColdTable {
    const LAYOUT: LayoutChoice = LayoutChoice::HotCold;
    fn wrap(self) -> AnyTable {
        AnyTable::HotCold(self)
    }
    fn reclaim(table: AnyTable) -> Option<HotColdTable> {
        match table {
            AnyTable::HotCold(t) => Some(t),
            _ => None,
        }
    }
}

/// Finished tables keyed by `(layout, n_rels)`.
type Shelves = HashMap<(LayoutChoice, usize), Vec<AnyTable>>;

/// Plan arenas kept on the free list. Arenas are tiny (tens of nodes)
/// compared to tables, so the bound is generous: enough for every
/// worker of a typical pool to hold one plus a shelf of spares.
const ARENA_CAPACITY: usize = 32;

/// The free list itself: shelves of finished tables keyed by
/// `(layout, n_rels)`, each bounded to [`SHELF_CAPACITY`], behind one
/// lock — plus a single shelf of recycled [`PlanArena`]s (arenas are
/// shape-independent: their backing storage grows to the largest plan
/// seen and then serves any size).
#[derive(Default)]
pub struct TablePool {
    shelves: Mutex<Shelves>,
    arenas: Mutex<Vec<PlanArena>>,
}

impl TablePool {
    /// A table for `rels` relations in layout `L`, recycled when the
    /// shelf has one (`true`) or freshly allocated (`false`). Recycled
    /// tables are *not* cleared — the reusing optimizer entry points
    /// re-initialize every row they read.
    pub fn take<L: PoolSlot>(&self, rels: usize) -> (L, bool) {
        let key = (L::LAYOUT, rels);
        {
            let mut shelves = lock(&self.shelves);
            if let Some(shelf) = shelves.get_mut(&key) {
                while let Some(any) = shelf.pop() {
                    if let Some(table) = L::reclaim(any) {
                        return (table, true);
                    }
                }
            }
        }
        (L::with_rels(rels), false)
    }

    /// Shelve a finished table for reuse; silently dropped when its
    /// shelf is full (bounded memory beats a perfect hit rate).
    pub fn put<L: PoolSlot>(&self, table: L) {
        let mut shelves = lock(&self.shelves);
        let shelf = shelves.entry((L::LAYOUT, table.rels())).or_default();
        if shelf.len() < SHELF_CAPACITY {
            shelf.push(table.wrap());
        }
    }

    /// A recycled plan arena, or a fresh empty one. Recycled arenas
    /// come back cleared but with their backing storage warm, so
    /// extraction into them is allocation-free once the service reaches
    /// steady state (the `no_alloc` suite pins the core property).
    pub fn take_arena(&self) -> PlanArena {
        lock(&self.arenas).pop().unwrap_or_default()
    }

    /// Shelve a plan arena for reuse; cleared here so takers always see
    /// an empty arena. Dropped when the shelf is full.
    pub fn put_arena(&self, mut arena: PlanArena) {
        arena.clear();
        let mut arenas = lock(&self.arenas);
        if arenas.len() < ARENA_CAPACITY {
            arenas.push(arena);
        }
    }

    /// Plan arenas currently shelved.
    pub fn arenas_len(&self) -> usize {
        lock(&self.arenas).len()
    }

    /// Total tables currently shelved, across all keys.
    pub fn len(&self) -> usize {
        lock(&self.shelves).values().map(Vec::len).sum()
    }

    /// Whether the pool holds no tables at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn take_put_take_recycles_by_shape() {
        let pool = TablePool::default();
        let (t, hit) = pool.take::<AosTable>(6);
        assert!(!hit, "empty pool must allocate");
        pool.put(t);
        assert_eq!(pool.len(), 1);
        let (t, hit) = pool.take::<AosTable>(6);
        assert!(hit, "same shape must recycle");
        assert_eq!(t.rels(), 6);
        assert!(pool.is_empty());
    }

    #[test]
    fn shapes_do_not_cross() {
        let pool = TablePool::default();
        let (t, _) = pool.take::<AosTable>(6);
        pool.put(t);
        // Different size: miss.
        let (_, hit) = pool.take::<AosTable>(7);
        assert!(!hit);
        // Different layout, same size: miss (shelf key includes layout).
        let (_, hit) = pool.take::<HotColdTable>(6);
        assert!(!hit);
        // The original is still shelved.
        let (_, hit) = pool.take::<AosTable>(6);
        assert!(hit);
    }

    /// Many shapes each keep their own shelf, and concurrent
    /// same-shape traffic still round-trips.
    #[test]
    fn shelves_recycle_independently() {
        const SHAPES: usize = 16;
        let pool = Arc::new(TablePool::default());
        for rels in 3..3 + SHAPES {
            let (t, hit) = pool.take::<AosTable>(rels);
            assert!(!hit);
            pool.put(t);
        }
        assert_eq!(pool.len(), SHAPES);
        for rels in 3..3 + SHAPES {
            let (t, hit) = pool.take::<AosTable>(rels);
            assert!(hit, "shape {rels} lost its shelf");
            assert_eq!(t.rels(), rels);
        }
        assert!(pool.is_empty());
        // Concurrent put/take across threads never panics or loses the
        // bound (the exact hit pattern is timing-dependent).
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let (t, _) = pool.take::<AosTable>(6);
                        pool.put(t);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(pool.len() <= SHELF_CAPACITY);
    }

    #[test]
    fn shelves_are_bounded() {
        let pool = TablePool::default();
        let tables: Vec<AosTable> =
            (0..4).map(|_| pool.take::<AosTable>(5).0).collect();
        for t in tables {
            pool.put(t);
        }
        assert_eq!(pool.len(), SHELF_CAPACITY, "overflow beyond the cap is dropped");
    }

    #[test]
    fn arena_shelf_recycles_cleared_but_warm() {
        let pool = TablePool::default();
        assert_eq!(pool.arenas_len(), 0);
        let mut arena = pool.take_arena();
        assert!(arena.is_empty());
        arena.left_deep_vine(8);
        let warmed = arena.capacity();
        assert!(warmed >= 15);
        pool.put_arena(arena);
        assert_eq!(pool.arenas_len(), 1);
        let arena = pool.take_arena();
        assert!(arena.is_empty(), "recycled arenas come back cleared");
        assert_eq!(arena.capacity(), warmed, "recycled arenas keep their storage");
        assert_eq!(pool.arenas_len(), 0);
    }

    #[test]
    fn arena_shelf_is_bounded() {
        let pool = TablePool::default();
        for _ in 0..ARENA_CAPACITY + 5 {
            pool.put_arena(PlanArena::new());
        }
        assert_eq!(pool.arenas_len(), ARENA_CAPACITY);
    }
}
