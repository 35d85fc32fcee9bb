//! Zero-allocation proof for the arena-backed optimize-and-extract path.
//!
//! The service recycles DP tables (`TablePool`) and plan arenas
//! (`PlanArena`) across requests; once both are warm, a whole
//! thresholded optimization — table fill, threshold escalation, plan
//! extraction — must not touch the heap. This suite pins that with a
//! counting global allocator.
//!
//! It lives in its own integration-test binary on purpose: a
//! `#[global_allocator]` is process-wide, and the count is only
//! meaningful when no sibling test allocates concurrently. Keep this
//! file to the single test below.

use blitz_core::{
    optimize_join, optimize_join_threshold_arena_with, DriveOptions, DriverChoice, HotColdTable,
    JoinSpec, Kappa0, NoStats, PlanArena, TableLayout, ThresholdSchedule,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Counts every allocation and reallocation routed through the global
/// allocator; frees are not interesting here.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System`; the count is the only addition
// and it is atomic, so every `GlobalAlloc` contract obligation is
// delegated unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same ptr/layout contract as our own caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: same ptr/layout/size contract as our own caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn chain(n: usize, card: f64, sel: f64) -> JoinSpec {
    let cards = vec![card; n];
    let edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, sel)).collect();
    JoinSpec::new(&cards, &edges).unwrap()
}

/// Measure the allocations of one optimize-and-extract run over a warm
/// table and arena.
fn allocs_for_run(
    table: &mut HotColdTable,
    arena: &mut PlanArena,
    spec: &JoinSpec,
    options: DriveOptions,
) -> (u64, f32, blitz_core::PlanNodeId) {
    arena.clear();
    let mut stats = NoStats;
    let before = ALLOCS.load(Relaxed);
    let out = optimize_join_threshold_arena_with::<HotColdTable, _, _, true>(
        table,
        arena,
        spec,
        &Kappa0,
        ThresholdSchedule::default(),
        options,
        &mut stats,
    );
    let after = ALLOCS.load(Relaxed);
    (after - before, out.cost, out.root)
}

#[test]
fn warm_optimize_and_extract_is_allocation_free() {
    let n = 10;
    // Two different queries of the same size: the first warms the table
    // and arena, the second proves the steady state allocates nothing.
    let warmup = chain(n, 100.0, 0.01);
    let spec = chain(n, 500.0, 0.005);

    let mut table = HotColdTable::with_rels(n);
    let mut arena = PlanArena::new();

    // One wave worker: helper threads allocate (scoped threads allocate
    // stacks), which is out of scope for the per-request steady state
    // this pins.
    for driver in [DriverChoice::Split, DriverChoice::Conv] {
        let options = DriveOptions::serial().with_driver(driver);
        let (_, warm_cost, _) = allocs_for_run(&mut table, &mut arena, &warmup, options);
        assert!(warm_cost.is_finite());

        let (allocs, cost, root) = allocs_for_run(&mut table, &mut arena, &spec, options);
        assert_eq!(
            allocs, 0,
            "warm {driver:?} optimize-and-extract must not allocate, saw {allocs}"
        );

        // And the allocation-free run is still correct.
        let direct = optimize_join(&spec, &Kappa0).unwrap();
        assert_eq!(cost, direct.cost);
        assert_eq!(arena.to_plan(root).canonical(), direct.plan.canonical());
    }

    // Two workers requested on 5 relations: the widest wave (10 rows) is
    // one 16-row chunk, so the caller fills the table alone and spawns
    // no helper.
    let mut small = HotColdTable::with_rels(5);
    let options = DriveOptions::parallel(2);
    let (_, warm_cost, _) = allocs_for_run(&mut small, &mut arena, &chain(5, 100.0, 0.01), options);
    assert!(warm_cost.is_finite());
    let (allocs, cost, _) =
        allocs_for_run(&mut small, &mut arena, &chain(5, 500.0, 0.005), options);
    assert_eq!(allocs, 0, "a warm 2-worker fill of 5 relations must not allocate, saw {allocs}");
    assert!(cost.is_finite());
}
