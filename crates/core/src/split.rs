//! `find_best_split` — the `O(3^n)` inner engine shared by the Cartesian
//! product optimizer and the join optimizer (paper Figure 1 and
//! Section 4.2) — and the drivers that run it over a whole table.
//!
//! This module realizes the three implementation-critical details of
//! Section 4.2:
//!
//! 1. subsets are walked with the successor trick
//!    `succ(S_lhs) = S & (S_lhs − S)`, never materializing the dilation
//!    operator;
//! 2. the `if` in the loop body is replaced by a series of *nested* `if`s,
//!    so that the split-dependent cost `κ''` is only computed when the
//!    operand costs alone do not already disqualify the split (reducing
//!    its execution count from `3^n` toward `(ln 2 / 2)·n·2^n`);
//! 3. `κ'(S)` is computed *before* the loop, and when it already overflows
//!    the cost cap the loop is skipped entirely (Sections 6.3–6.4).
//!
//! Every exact optimization takes one path: an entry point allocates (or
//! is handed) a table, [`fill`] runs the rank-wave [`drive_waves`] on a
//! hot/cold table at every thread count or the integer-order [`drive`]
//! on the serial reference layouts, each of which initializes the
//! singleton rows, and [`RowEngine::run_row`] fills each row with
//! one of two cascades — the scalar [`find_best_split`] or the batched
//! [`crate::kernel::find_best_split_batched`] — over one of two *walks*
//! (the sequence of candidate left operands a row visits; see [`walk`]).
//!
//! The cascades are generic over table layout, cost model, statistics
//! sink, the `PRUNE` switch (the ablation benches compile both variants)
//! and the walk.

use crate::bitset::RelSet;
use crate::conv::{DriverChoice, RowEngine};
use crate::cost::{ConvSupport, CostModel};
use crate::kernel::KernelChoice;
use crate::stats::Stats;
use crate::table::{
    HotColdTable, LayoutChoice, SyncTable, SyncTableView, TableLayout, MAX_TABLE_RELS,
};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Barrier;

/// A cancel flag nobody ever sets: what drives that cannot be cancelled
/// pass to the cancellable drivers.
pub(crate) static NEVER_CANCELLED: AtomicBool = AtomicBool::new(false);

/// Both drivers poll their cancel flag once per block of this many rows
/// — the integer-order driver whenever the low bits of the row's set
/// wrap to zero, a wave worker whenever the row's rank in its wave does:
/// one predictable branch per row, one relaxed load per 4096 rows.
const CANCEL_CHECK_ROWS: u32 = 1 << 12;

/// Execution options for the DP drivers — how much hardware to throw at
/// one optimization, and how the DP table is laid out in memory.
///
/// The default is the paper's serial reference, [`DriveOptions::serial`]:
/// one worker, the array-of-structs table, the scalar cascade and the
/// split enumeration. Nothing here reads the environment; a caller that
/// wants another configuration — the service's is hot/cold + SIMD + conv
/// — names it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DriveOptions {
    /// Wave workers for a [`HotColdTable`] fill, the calling thread
    /// included: `1` (the default) fills on the calling thread alone, `t`
    /// spawns `t − 1` helpers (at most one per 16-row chunk of the widest
    /// wave), `0` means the machine's available parallelism. The serial
    /// references [`crate::AosTable`] and [`crate::CompactProductTable`]
    /// fill in integer order on the calling thread whatever this says.
    pub parallelism: usize,
    /// Table layout used by the *non-generic* entry points
    /// ([`crate::join::optimize_join_with`] and friends), which dispatch
    /// to the matching monomorphization. The generic `*_into` functions
    /// take the layout as a type parameter and ignore this field.
    pub layout: LayoutChoice,
    /// Split kernel for the `find_best_split` inner loop — the scalar
    /// reference or the runtime-dispatched SIMD kernel. Resolved against
    /// the hardware once per drive; all kernels produce bit-identical
    /// tables, plans and counters (see [`crate::kernel`]).
    pub kernel: KernelChoice,
    /// DP driver filling each row: the reference split enumeration or
    /// the anchored layered-convolution driver. Resolved against the
    /// cost model's [`CostModel::CONV_SUPPORT`] capability once per
    /// drive; on `Native`/`Canonical` models the drivers are
    /// cost-bit-identical (see [`crate::conv`]).
    pub driver: DriverChoice,
}

impl DriveOptions {
    /// One worker, the calling thread, on the reference layout, kernel
    /// and driver.
    pub fn serial() -> DriveOptions {
        DriveOptions::parallel(1)
    }

    /// Execution on `threads` wave workers (`0` = auto).
    pub fn parallel(threads: usize) -> DriveOptions {
        DriveOptions {
            parallelism: threads,
            layout: LayoutChoice::default(),
            kernel: KernelChoice::default(),
            driver: DriverChoice::default(),
        }
    }

    /// This policy with a different table layout.
    pub fn with_layout(self, layout: LayoutChoice) -> DriveOptions {
        DriveOptions { layout, ..self }
    }

    /// This policy with a different split kernel.
    pub fn with_kernel(self, kernel: KernelChoice) -> DriveOptions {
        DriveOptions { kernel, ..self }
    }

    /// This policy with a different DP driver.
    pub fn with_driver(self, driver: DriverChoice) -> DriveOptions {
        DriveOptions { driver, ..self }
    }

    /// The concrete worker count: resolves `0` to the machine's available
    /// parallelism and never returns 0.
    pub fn effective_parallelism(&self) -> usize {
        match self.parallelism {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            t => t,
        }
    }
}

impl Default for DriveOptions {
    /// The serial reference, [`DriveOptions::serial`].
    fn default() -> DriveOptions {
        DriveOptions::serial()
    }
}

/// One DP problem as the drivers see it: the base cardinalities that
/// seed the singleton rows, and the per-row `compute_properties` step
/// of paper Figure 1. Products, joins and hypergraphs differ only here;
/// the enumeration is shared verbatim.
pub(crate) trait Problem: Sync {
    /// Number of relations.
    fn rels(&self) -> usize;

    /// Base cardinality of relation `rel`.
    fn base_card(&self, rel: usize) -> f64;

    /// Fill in the `card` field of row `s` (and `pi_fan`/`aux` where
    /// applicable) from rows of strict subsets of `s`.
    fn properties<T: TableLayout, M: CostModel>(&self, table: &mut T, model: &M, s: RelSet);
}

/// The candidate left operands a row of `s` visits, as
/// `(anchor, space, first)`: every candidate is `lhs = anchor | sub`,
/// with `sub` stepping through the subsets of `space` by the successor
/// trick from `first` until it reaches `space` (which is not visited).
///
/// * The **split** walk (`CONV = false`) is `(∅, S, {min S})`: every
///   ordered split, `2^|S| − 2` candidates (paper Figure 1).
/// * The **conv** walk (`CONV = true`) is `({min S}, S − {min S}, ∅)`:
///   one orientation of every unordered partition, `2^(|S|−1) − 1`
///   candidates — the halving of [`crate::conv`]. The successor of `∅`
///   is the lowest singleton of `space`, so one successor walk covers
///   `sub = ∅, δ(1), δ(2), …` without a special first step.
///
/// Both walks visit `lhs` in strictly increasing bit-vector order
/// (dilated counting is order-preserving), which the tie-break contract
/// of [`find_best_split`] rests on.
#[inline(always)]
pub(crate) fn walk<const CONV: bool>(s: RelSet) -> (RelSet, RelSet, RelSet) {
    let low = s.lowest_singleton();
    if CONV {
        (low, s - low, RelSet::EMPTY)
    } else {
        (RelSet::EMPTY, s, low)
    }
}

/// Evaluate `κ''(S_out; lhs, rhs)` with the operand pair in *canonical*
/// orientation — the operand containing `min(S)` first — for models that
/// declared [`ConvSupport::Canonical`].
///
/// The conv walk's candidates all contain the anchor `{min S}`, so they
/// are canonical by construction and the swap compiles out there
/// (`CONV = true`); normalizing the split walk here makes every walk
/// quote κ'' on the *same* operand order: both orientations of an
/// unordered partition round to the same `f32` bits structurally, not
/// by algebraic accident. The branch on the associated `const` folds at
/// monomorphization — `Native` models (κ'' absent or intrinsically
/// symmetric) and `Fallback` models (no exactness claim; raw walk order
/// is the documented historical behavior) pass their operands straight
/// through.
#[inline(always)]
pub(crate) fn kappa_dep_oriented<L, M, const CONV: bool>(
    table: &L,
    model: &M,
    out_card: f64,
    s: RelSet,
    lhs: RelSet,
    rhs: RelSet,
) -> f32
where
    L: TableLayout,
    M: CostModel,
{
    let (l, r) = if !CONV
        && matches!(M::CONV_SUPPORT, ConvSupport::Canonical)
        && lhs.is_disjoint(s.lowest_singleton())
    {
        (rhs, lhs)
    } else {
        (lhs, rhs)
    };
    model.kappa_dep(out_card, table.card(l), table.card(r), table.aux(l), table.aux(r))
}

/// Fill in the `cost` and `best_lhs` fields of the table row for `s` by
/// examining every candidate of the [`walk`] `CONV` selects — every
/// split of `s` into two nonempty subsets, or one orientation of each.
///
/// `cap` is the plan-cost threshold of Section 6.4; pass `f32::INFINITY`
/// for pure overflow-rejection semantics. Any plan whose cost reaches
/// `cap` is treated as if its cost had overflowed: the row's cost becomes
/// `+∞` and every superset rejects it through the operand-cost test.
///
/// The row's `card` (and `aux`) fields must already be filled in by the
/// caller's `compute_properties`.
///
/// Tie-break determinism: both walks visit `lhs` in strictly increasing
/// bit-vector order, and the strict `<` comparisons below keep the
/// *first* minimum — the minimum-cost candidate with the lowest `lhs`
/// bits. The choice therefore depends only on the rows of strict
/// subsets of `s`, never on enumeration timing, which is what makes the
/// integer-order and rank-wave drivers produce bit-identical tables.
/// (The split walk records whichever orientation of the winning
/// partition has the lower bits; the conv walk always records the
/// orientation containing `min s` — see [`crate::conv`].)
///
/// Never inlined, like the batched cascade: compiled on its own, the
/// loop keeps its table base and set in registers whatever driver
/// calls it, where inlined into a large driver frame (the wave worker)
/// the base can be spilled and reloaded on every candidate. One call
/// per row is noise beside the row's `2^k` candidates.
#[inline(never)]
pub(crate) fn find_best_split<L, M, St, const PRUNE: bool, const CONV: bool>(
    table: &mut L,
    model: &M,
    s: RelSet,
    cap: f32,
    stats: &mut St,
) where
    L: TableLayout,
    M: CostModel,
    St: Stats,
{
    stats.subset();
    let out_card = table.card(s);

    // κ'(S) is split-independent: hoist it out of the loop (fixed 2^n
    // execution count). If it alone breaches the cap, no split can help —
    // κ'' and operand costs are nonnegative — so skip the whole loop.
    stats.kappa_ind();
    let kappa_ind = model.kappa_ind(out_card);
    // Deliberately `!(x < cap)` rather than `x >= cap`: a NaN cost (which
    // a pathological model could produce) must also be rejected.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(kappa_ind < cap) {
        table.set_cost(s, f32::INFINITY);
        table.set_best_lhs(s, RelSet::EMPTY);
        stats.loop_skipped();
        return;
    }

    let mut best = f32::INFINITY;
    let mut best_lhs = RelSet::EMPTY;

    let (anchor, space, mut sub) = walk::<CONV>(s);
    while sub != space {
        stats.loop_iter();
        let lhs = anchor | sub;
        let rhs = s - lhs;

        if PRUNE {
            // Nested-if structure: each test can disqualify the split
            // before the next (more expensive) quantity is touched.
            let lhs_cost = table.cost(lhs);
            if lhs_cost < best {
                let oprnd_cost = lhs_cost + table.cost(rhs);
                if oprnd_cost < best {
                    let dpnd_cost = if M::HAS_DEP {
                        stats.kappa_dep();
                        oprnd_cost
                            + kappa_dep_oriented::<L, M, CONV>(table, model, out_card, s, lhs, rhs)
                    } else {
                        oprnd_cost
                    };
                    if dpnd_cost < best {
                        stats.cond_hit();
                        best = dpnd_cost;
                        best_lhs = lhs;
                    }
                }
            }
        } else {
            // Unpruned variant (ablation): κ'' evaluated on every
            // iteration, exactly as in the Figure 1 pseudo-code.
            let oprnd_cost = table.cost(lhs) + table.cost(rhs);
            stats.kappa_dep();
            let dpnd_cost = oprnd_cost
                + kappa_dep_oriented::<L, M, CONV>(table, model, out_card, s, lhs, rhs);
            if dpnd_cost < best {
                stats.cond_hit();
                best = dpnd_cost;
                best_lhs = lhs;
            }
        }

        sub = space.subset_successor(sub);
    }

    finish_row(table, s, best, best_lhs, kappa_ind, cap);
}

/// Write the row for `s` once its walk is done: the best candidate plus
/// `κ'(S)` if that beats the cap, else the `+∞` rejection. Shared by
/// both cascades.
#[inline(always)]
pub(crate) fn finish_row<L: TableLayout>(
    table: &mut L,
    s: RelSet,
    best: f32,
    best_lhs: RelSet,
    kappa_ind: f32,
    cap: f32,
) {
    let total = best + kappa_ind;
    if total < cap {
        table.set_cost(s, total);
        table.set_best_lhs(s, best_lhs);
    } else {
        // No split beat the threshold (or everything overflowed): reject.
        table.set_cost(s, f32::INFINITY);
        table.set_best_lhs(s, RelSet::EMPTY);
    }
}

/// Initialize the singleton rows of `table` for `problem` (paper
/// Figure 1, `init_singleton`): base relations cost nothing (equation
/// (1)) and their cardinality is given. Both drivers start here.
fn init_singletons<L, M, P>(table: &mut L, problem: &P, model: &M)
where
    L: TableLayout,
    M: CostModel,
    P: Problem,
{
    for rel in 0..problem.rels() {
        let s = RelSet::singleton(rel);
        let card = problem.base_card(rel);
        table.set_card(s, card);
        table.set_cost(s, 0.0);
        table.set_best_lhs(s, RelSet::EMPTY);
        table.set_pi_fan(s, 1.0);
        if M::HAS_AUX {
            table.set_aux(s, model.aux(card));
        }
    }
}

/// The one fill behind every exact entry point: fill `table` for
/// `problem` under the cost cap `cap` — in rank waves on
/// [`DriveOptions::parallelism`] workers when the layout runs waves
/// (only [`HotColdTable`] does, see [`TableLayout::wave_table`] and
/// [`LayoutChoice::runs_waves`]), in integer order on the calling
/// thread otherwise. Both produce bit-identical tables.
///
/// The table is *not* cleared first, and doesn't need to be: both
/// drivers re-initialize the singleton rows, and every non-singleton
/// row is fully written (`compute_properties` + the cascade's finish)
/// before any superset reads it — the same subset-before-superset
/// dependency order that makes the wave driver sound. Row 0 (the empty
/// set) is never read. Stale `f32`/`f64` bit patterns from a previous
/// optimization are ordinary values, so a recycled table produces
/// bit-identical results to a freshly allocated one (pinned by a
/// dirty-table regression test in [`crate::threshold`]). The same
/// argument covers a table a cancelled fill left half-written.
///
/// Returns `false` when `cancel` stopped the fill before every row was
/// written (see [`drive`] and [`drive_waves`] for where they poll it).
///
/// # Panics
/// Panics if `table.rels() != problem.rels()`, or if the layout's
/// [`TableLayout::wave_table`] hands the wave driver a table of another
/// size.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fill<L, M, St, P, const PRUNE: bool>(
    table: &mut L,
    problem: &P,
    model: &M,
    cap: f32,
    options: DriveOptions,
    cancel: &AtomicBool,
    stats: &mut St,
) -> bool
where
    L: TableLayout,
    M: CostModel + Sync,
    St: Stats + Default + Send,
    P: Problem,
{
    let n = problem.rels();
    assert_eq!(table.rels(), n, "table allocated for a different relation count");
    // Resolve the kernel and driver once, before any row runs: feature
    // detection and the model capability probe stay off the row path and
    // every worker dispatches on the same `Copy` token.
    let engine = RowEngine::resolve(options, model);
    match table.wave_table() {
        Some(waves) => {
            let threads = options.effective_parallelism();
            drive_waves::<M, St, P, PRUNE>(
                waves, problem, model, cap, engine, threads, cancel, stats,
            )
        }
        None => drive::<L, M, St, P, PRUNE>(table, problem, model, cap, engine, cancel, stats),
    }
}

/// Allocate a table for `problem` and [`fill`] it once under `cap` —
/// the body of every generic `*_into` entry point.
///
/// # Panics
/// Panics if `problem` has no relations or more than [`MAX_TABLE_RELS`].
pub(crate) fn fill_fresh<L, M, St, P, const PRUNE: bool>(
    problem: &P,
    model: &M,
    cap: f32,
    options: DriveOptions,
    stats: &mut St,
) -> L
where
    L: TableLayout,
    M: CostModel + Sync,
    St: Stats + Default + Send,
    P: Problem,
{
    let n = problem.rels();
    assert!((1..=MAX_TABLE_RELS).contains(&n), "unsupported relation count {n}");
    let mut table = L::with_rels(n);
    fill::<L, M, St, P, PRUNE>(&mut table, problem, model, cap, options, &NEVER_CANCELLED, stats);
    table
}

/// Initialize the singleton rows, then drive `compute_properties` + the
/// row cascade over every non-singleton subset in integer order (paper
/// Section 4.2: processing sets by their integer representations
/// guarantees all subsets of `S` precede `S`).
///
/// `cancel` is polled once per [`CANCEL_CHECK_ROWS`] rows; once it reads
/// `true` the drive stops and returns `false`, leaving the table partly
/// filled (harmless: every run rewrites each row before reading it).
/// Returns `true` when every row was filled.
#[inline]
fn drive<L, M, St, P, const PRUNE: bool>(
    table: &mut L,
    problem: &P,
    model: &M,
    cap: f32,
    engine: RowEngine,
    cancel: &AtomicBool,
    stats: &mut St,
) -> bool
where
    L: TableLayout,
    M: CostModel,
    St: Stats,
    P: Problem,
{
    init_singletons(table, problem, model);
    stats.pass();
    let end = 1u32 << problem.rels();
    let mut bits = 3u32;
    while bits < end {
        if bits.is_multiple_of(CANCEL_CHECK_ROWS) && cancel.load(Relaxed) {
            return false;
        }
        let s = RelSet::from_bits(bits);
        // Skip powers of two: those are singletons, already initialized.
        if !s.is_singleton() {
            problem.properties(table, model, s);
            engine.run_row::<L, M, St, PRUNE>(table, model, s, cap, stats);
        }
        bits += 1;
    }
    true
}

/// Successor of `v` in the enumeration of same-popcount bit patterns
/// (Gosper's hack). `u64` so the final pattern's successor cannot
/// overflow for any supported `n`.
///
/// The textbook form divides by `c = v & −v`; since `c` is always a
/// power of two, the hardware divide (tens of cycles, unpipelined on
/// most cores) is replaced by a shift by `c.trailing_zeros()` — this
/// runs once per row in every wave of the wave driver.
#[inline]
fn same_popcount_successor(v: u64) -> u64 {
    let c = v & v.wrapping_neg();
    let r = v + c;
    ((r ^ v) >> (2 + c.trailing_zeros())) | r
}

/// Binomial coefficient `C(n, k)`, exact in `u64` for every `n` the
/// table supports (`C(28, 14) ≈ 4·10^7`). Runs off the hot path: once
/// per worker per wave for chunk sizing and unranking.
pub(crate) fn binomial(n: usize, k: usize) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        // Exact at every step: the running product of `i+1` consecutive
        // integers is divisible by `(i+1)!`.
        acc = acc * (n - i) as u128 / (i + 1) as u128;
    }
    acc as u64
}

/// Row count of the widest wave the wave driver will run (waves are
/// `k = 2..=n`); its count of aligned chunks bounds the worker count.
fn widest_wave(n: usize) -> u64 {
    (2..=n).map(|k| binomial(n, k)).max().unwrap_or(0)
}

/// The `m`-th (0-based) `k`-subset in increasing bit-vector order —
/// the order Gosper's successor enumerates — via the combinatorial
/// number system (colex unranking): choosing bits from the highest
/// down, each is the largest `c` with `C(c, j) ≤` the remaining rank.
///
/// Lets a worker jump straight to the start of its chunk of a wave
/// instead of stepping the successor from the wave's first row.
fn nth_same_popcount(k: usize, mut m: u64) -> u64 {
    let mut bits = 0u64;
    for j in (1..=k).rev() {
        let mut c = j - 1;
        while binomial(c + 1, j) <= m {
            c += 1;
        }
        m -= binomial(c, j); // C(j−1, j) = 0: the lowest choice is free
        bits |= 1 << c;
    }
    bits
}

/// Colex rank of `bits` within the enumeration of its own popcount class
/// — the exact inverse of [`nth_same_popcount`]: for the `j`-th lowest
/// set bit (1-based) at position `c`, the patterns preceding `bits` in
/// Gosper order include all `C(c, j)` ways of placing the lowest `j` bits
/// strictly below `c`.
///
/// Off the hot path: used by the checked-build wave guard to validate
/// that a written row falls inside the worker's chunk.
#[cfg(any(blitz_check, debug_assertions))]
pub(crate) fn rank_same_popcount(bits: u64) -> u64 {
    let mut rank = 0u64;
    let mut rest = bits;
    let mut j = 0usize;
    while rest != 0 {
        let c = rest.trailing_zeros() as usize;
        j += 1;
        rank += binomial(c, j);
        rest &= rest - 1;
    }
    rank
}

/// Chunk-boundary alignment within a wave, in rows: 16 dense `f32`
/// costs = one 64-byte cache line of [`crate::table::HotColdTable`]'s
/// hot array, so two workers' hot-cost writes can only meet on a line
/// at most once per wave (at a rounding-truncated final chunk).
const CHUNK_ALIGN_ROWS: u64 = 16;

/// Initialize the singleton rows, then drive `compute_properties` + the
/// row cascade over every non-singleton subset in **rank waves**: all
/// subsets of cardinality `k` are processed before any of cardinality
/// `k + 1`. This is [`HotColdTable`]'s one fill order at every worker
/// count; the other layouts are serial references that fill in integer
/// order (see [`TableLayout::wave_table`]).
///
/// Valid because every table access for a set `S` either writes `S`'s
/// own row or reads rows of strict subsets of `S` — smaller popcounts,
/// completed in earlier waves. Within a wave each row belongs to exactly
/// one worker — a contiguous, line-aligned chunk of the wave's Gosper
/// enumeration, reached with [`nth_same_popcount`] — so writes are
/// disjoint; a barrier separates waves. See [`SyncTable`] for the full
/// safety argument.
///
/// The calling thread is worker 0: one worker runs the waves alone — no
/// scope, spawn, barrier or allocation — and `t` workers spawn `t − 1`
/// helpers, clamped to the widest wave's count of
/// [`CHUNK_ALIGN_ROWS`]-row chunks (a surplus worker could never be
/// handed a row), so a table of at most 5 relations never spawns.
///
/// Bit-identical to [`drive`]'s table at every worker count: each row's
/// computation is self-contained and deterministic (see the tie-break
/// note in [`find_best_split`]) and reads only final rows, so which
/// worker runs a row, and when, cannot be observed in the output bits.
///
/// Every worker polls `cancel` at the top of each wave and every
/// [`CANCEL_CHECK_ROWS`] rows of its chunk (when the row's rank in the
/// wave is a multiple of it), the integer-order driver's cadence. A
/// worker that reads `true` skips its rows for the rest of the drive,
/// from mid-chunk if need be, but passes every remaining barrier, so no
/// sibling is stranded. No worker reads a skipped row either: a worker
/// that skips any row of wave `k` read the flag before barrier `k`, so
/// by read-read coherence every sibling reads `true` at the top of wave
/// `k + 1`, the first wave that reads wave `k`'s rows, and within wave
/// `k` a worker reads only its own rows. Returns `true` when no worker
/// skipped a row.
///
/// A row that panics stops the drive the same way: its worker's
/// [`PanicGuard`] raises a flag every worker polls beside `cancel` and
/// passes the worker's remaining barriers, so no sibling waits forever
/// on it.
///
/// # Panics
/// Re-raises a row's panic on the calling thread once every worker has
/// finished (worker 0's if the caller's own row panicked, else the
/// first panicking helper's). Also panics if
/// `table.rels() != problem.rels()`. The views index the
/// table's buffers through raw pointers with every row below
/// `1 << problem.rels()`, so this one check per drive is what keeps a
/// [`TableLayout::wave_table`] override that hands over a table of
/// another size from writing out of bounds.
#[allow(clippy::too_many_arguments)]
fn drive_waves<M, St, P, const PRUNE: bool>(
    table: &mut HotColdTable,
    problem: &P,
    model: &M,
    cap: f32,
    engine: RowEngine,
    threads: usize,
    cancel: &AtomicBool,
    stats: &mut St,
) -> bool
where
    M: CostModel + Sync,
    St: Stats + Default + Send,
    P: Problem,
{
    let n = problem.rels();
    assert_eq!(table.rels(), n, "wave table allocated for a different relation count");
    let chunks = widest_wave(n).div_ceil(CHUNK_ALIGN_ROWS);
    let threads = threads.min(usize::try_from(chunks).unwrap_or(usize::MAX)).max(1);
    init_singletons(table, problem, model);
    stats.pass();
    // Raised when a row panics (see `PanicGuard`); every worker then
    // treats the drive as cancelled.
    let failed = AtomicBool::new(false);
    let halted = || cancel.load(Relaxed) || failed.load(Relaxed);
    let shared = SyncTable::from_mut(table);
    // Worker `t`'s whole drive; `None` for the barrier when it runs alone.
    let worker = |t: usize, mut view: SyncTableView, barrier: Option<&Barrier>, stats: &mut St| {
        let mut guard = PanicGuard { failed: &failed, barrier, waits: n - 1 };
        let mut skipping = false;
        for k in 2..=n {
            skipping = skipping || halted();
            let rows = binomial(n, k);
            // Even deal, rounded up to whole cache lines of hot costs;
            // trailing workers may come up empty on narrow waves.
            let per = rows.div_ceil(threads as u64);
            let chunk = per.div_ceil(CHUNK_ALIGN_ROWS) * CHUNK_ALIGN_ROWS;
            let start = t as u64 * chunk;
            let stop = (start + chunk).min(rows).max(start);
            if !skipping && start < rows {
                view.begin_wave(k, Some((start, stop)));
                let mut bits = nth_same_popcount(k, start);
                for rank in start..stop {
                    if rank.is_multiple_of(CANCEL_CHECK_ROWS.into()) && halted() {
                        skipping = true;
                        break;
                    }
                    let s = RelSet::from_wave_bits(bits);
                    problem.properties(&mut view, model, s);
                    engine.run_row::<SyncTableView, M, St, PRUNE>(&mut view, model, s, cap, stats);
                    bits = same_popcount_successor(bits);
                }
            }
            if let Some(barrier) = barrier {
                barrier.wait();
            }
            guard.waits -= 1;
        }
        !skipping
    };
    if threads == 1 {
        // SAFETY: the only view, on the calling thread.
        return worker(0, unsafe { shared.view() }, None, stats);
    }
    let barrier = Barrier::new(threads);
    let (barrier, worker) = (&barrier, &worker);
    // A panic of worker 0 leaves this closure before the joins below;
    // the scope then waits for the helpers and re-raises it.
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads)
            .map(|t| {
                // SAFETY: within each wave every row is handled by
                // exactly one worker (disjoint chunk ranges), reads are
                // confined to strictly-smaller-popcount rows from earlier
                // waves or the worker's own rows, and a barrier separates
                // waves — the SyncTable discipline.
                let view = unsafe { shared.view() };
                scope.spawn(move || {
                    let mut local = St::default();
                    let completed = worker(t, view, Some(barrier), &mut local);
                    (local, completed)
                })
            })
            .collect();
        // SAFETY: as for the helpers' views; this one is worker 0's.
        let mut completed = worker(0, unsafe { shared.view() }, Some(barrier), stats);
        for helper in helpers {
            match helper.join() {
                Ok((local, done)) => {
                    stats.absorb(local);
                    completed &= done;
                }
                // The scope still waits for the helpers not yet joined.
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        completed
    })
}

/// What keeps a wave worker whose row panics from stranding its
/// siblings: dropped by the unwind, it raises the drive's `failed` flag,
/// which every worker polls beside the cancel flag, and passes the
/// `waits` barriers the worker had left. The worker raised the flag
/// before the barrier that ends the wave that panicked, so every
/// sibling reads it at the next wave's top at the latest and skips
/// every row after it, as on cancel.
struct PanicGuard<'a> {
    failed: &'a AtomicBool,
    barrier: Option<&'a Barrier>,
    waits: usize,
}

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.failed.store(true, Relaxed);
            if let Some(barrier) = self.barrier {
                for _ in 0..self.waits {
                    barrier.wait();
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cost::SortMerge;
    use crate::kernel::ResolvedKernel;
    use crate::spec::JoinSpec;
    use crate::stats::Counters;
    use crate::table::AosTable;

    /// [`fill`] on one worker with an injected row engine and no cap — how
    /// the unit tests pin one kernel and walk on every layout, hot/cold
    /// through the wave driver as in production.
    pub(crate) fn fill_with_engine<L, M, P, const PRUNE: bool>(
        table: &mut L,
        problem: &P,
        model: &M,
        engine: RowEngine,
        stats: &mut Counters,
    ) where
        L: TableLayout,
        M: CostModel + Sync,
        P: Problem,
    {
        let (cap, cancel) = (f32::INFINITY, &NEVER_CANCELLED);
        match table.wave_table() {
            Some(waves) => {
                drive_waves::<M, _, P, PRUNE>(waves, problem, model, cap, engine, 1, cancel, stats)
            }
            None => drive::<L, M, _, P, PRUNE>(table, problem, model, cap, engine, cancel, stats),
        };
    }

    /// One wave worker fills on the calling thread through the same raw
    /// views as a crew of them: every row and counter equals the AoS
    /// integer-order fill's.
    #[test]
    fn one_worker_wave_fill_matches_integer_order() {
        let spec = JoinSpec::new(
            &[120.0, 7.0, 3300.0, 42.0, 9.0, 260.0],
            &[(0, 1, 0.01), (1, 2, 0.5), (2, 3, 0.002), (3, 4, 0.9), (0, 5, 0.03)],
        )
        .unwrap();
        for driver in DriverChoice::ALL {
            let engine = RowEngine { kernel: ResolvedKernel::Scalar, driver };
            let (mut aos, mut hot) = (AosTable::with_rels(6), HotColdTable::with_rels(6));
            let (mut aos_counters, mut hot_counters) = (Counters::default(), Counters::default());
            let model = &SortMerge;
            fill_with_engine::<_, _, _, true>(&mut aos, &spec, model, engine, &mut aos_counters);
            fill_with_engine::<_, _, _, true>(&mut hot, &spec, model, engine, &mut hot_counters);
            assert_eq!(aos_counters, hot_counters, "{driver} counters");
            for bits in 1u32..1 << 6 {
                let s = RelSet::from_bits(bits);
                assert_eq!(aos.cost(s).to_bits(), hot.cost(s).to_bits(), "{driver} cost {s:?}");
                assert_eq!(aos.card(s).to_bits(), hot.card(s).to_bits(), "{driver} card {s:?}");
                assert_eq!(aos.best_lhs(s), hot.best_lhs(s), "{driver} best_lhs {s:?}");
                assert_eq!(aos.pi_fan(s).to_bits(), hot.pi_fan(s).to_bits(), "{driver} fan {s:?}");
                assert_eq!(aos.aux(s).to_bits(), hot.aux(s).to_bits(), "{driver} aux {s:?}");
            }
        }
    }

    /// The shift form of Gosper's successor must agree with the
    /// textbook divide form on every pattern it will ever see.
    #[test]
    fn successor_shift_matches_divide_form() {
        fn divide_form(v: u64) -> u64 {
            let c = v & v.wrapping_neg();
            let r = v + c;
            (((r ^ v) >> 2) / c) | r
        }
        for n in 2..=16usize {
            for k in 1..=n {
                let mut bits = (1u64 << k) - 1;
                while bits < (1u64 << n) {
                    assert_eq!(same_popcount_successor(bits), divide_form(bits), "v={bits:#b}");
                    bits = same_popcount_successor(bits);
                }
            }
        }
    }

    #[test]
    fn binomial_matches_pascal() {
        let mut row = vec![1u64];
        for n in 0..=30usize {
            for (k, &v) in row.iter().enumerate() {
                assert_eq!(binomial(n, k), v, "C({n},{k})");
            }
            assert_eq!(binomial(n, n + 1), 0);
            let mut next = vec![1u64];
            for w in row.windows(2) {
                next.push(w[0] + w[1]);
            }
            next.push(1);
            row = next;
        }
        assert_eq!(binomial(28, 14), 40_116_600);
    }

    /// Unranking must land exactly where stepping the successor from the
    /// wave's first row lands.
    #[test]
    fn unranking_matches_successor_walk() {
        for n in 2..=12usize {
            for k in 1..=n {
                let mut bits = (1u64 << k) - 1;
                let rows = binomial(n, k);
                for m in 0..rows {
                    assert_eq!(
                        nth_same_popcount(k, m),
                        bits,
                        "n={n} k={k} m={m}"
                    );
                    bits = same_popcount_successor(bits);
                }
            }
        }
    }

    /// `rank_same_popcount` must be the exact inverse of
    /// `nth_same_popcount` across every wave of every supported width.
    #[cfg(any(blitz_check, debug_assertions))]
    #[test]
    fn ranking_inverts_unranking() {
        for n in 2..=12usize {
            for k in 1..=n {
                for m in 0..binomial(n, k) {
                    let bits = nth_same_popcount(k, m);
                    assert_eq!(rank_same_popcount(bits), m, "n={n} k={k} m={m}");
                }
            }
        }
    }

    #[test]
    fn widest_wave_is_the_middle_binomial() {
        assert_eq!(widest_wave(2), 1); // only the k=2 wave exists
        assert_eq!(widest_wave(3), 3);
        assert_eq!(widest_wave(4), 6);
        assert_eq!(widest_wave(16), binomial(16, 8));
    }

    /// Chunked dealing must assign every row of every wave to exactly
    /// one worker, whatever the worker count.
    #[test]
    fn chunks_partition_every_wave() {
        for n in 2..=12usize {
            for threads in 2..=17usize {
                for k in 2..=n {
                    let rows = binomial(n, k);
                    let per = rows.div_ceil(threads as u64);
                    let chunk = per.div_ceil(CHUNK_ALIGN_ROWS) * CHUNK_ALIGN_ROWS;
                    let mut covered = 0u64;
                    let mut prev_stop = 0u64;
                    for t in 0..threads as u64 {
                        let start = t * chunk;
                        if start >= rows {
                            continue;
                        }
                        let stop = (start + chunk).min(rows);
                        assert_eq!(start, prev_stop, "gap before worker {t}");
                        covered += stop - start;
                        prev_stop = stop;
                    }
                    assert_eq!(covered, rows, "n={n} k={k} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn drive_options_builders_compose() {
        let o = DriveOptions::parallel(4)
            .with_layout(LayoutChoice::HotCold)
            .with_kernel(KernelChoice::Simd)
            .with_driver(DriverChoice::Conv);
        assert_eq!(o.parallelism, 4);
        assert_eq!(o.layout, LayoutChoice::HotCold);
        assert_eq!(o.kernel, KernelChoice::Simd);
        assert_eq!(o.driver, DriverChoice::Conv);
        assert_eq!(DriveOptions::serial().effective_parallelism(), 1);
        assert_eq!(DriveOptions::serial().kernel, KernelChoice::Scalar);
        assert_eq!(DriveOptions::serial().driver, DriverChoice::Split);
    }
}
