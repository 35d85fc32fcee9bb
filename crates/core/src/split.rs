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
    HotColdTable, LayoutChoice, LiveRow, SyncTable, SyncTableView, TableLayout, MAX_TABLE_RELS,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
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

    finish_row(table, model, s, best, best_lhs, kappa_ind, cap);
}

/// Write the row for `s` once its candidates are judged: the best
/// candidate plus `κ'(S)` if that beats the cap, else the `+∞`
/// rejection. Shared by both cascades and the live-pair waves.
///
/// A row other than the full set must also stay under the cap with its
/// [`CostModel::operand_charge`] added: every plan that uses the row as
/// an operand costs at least that much, so a row that fails the test
/// could serve no plan under the cap, and rejecting it now keeps every
/// superset from judging candidates through it. The full set is never
/// an operand; its row keeps the plain test.
#[inline(always)]
pub(crate) fn finish_row<L: TableLayout, M: CostModel>(
    table: &mut L,
    model: &M,
    s: RelSet,
    best: f32,
    best_lhs: RelSet,
    kappa_ind: f32,
    cap: f32,
) {
    let total = best + kappa_ind;
    let aux = if M::HAS_AUX { table.aux(s) } else { 0.0 };
    let operand = s != RelSet::full(table.rels());
    if total < cap && (!operand || total + model.operand_charge(aux) < cap) {
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
/// # Capped conv fills: two steps a wave, and live-pair waves
///
/// A fill on the anchored walk (conv driver, pruned) under a finite cap
/// — every certified pass the service makes — runs each wave in two
/// steps, with a barrier after each. Step 0 writes the properties of
/// the worker's chunk and counts its *open* rows, those whose `κ'` is
/// under the cap. Step 1 then fills the wave's costs one of two ways,
/// chosen by counts alone ([`pairs_beat_walk`]): every worker runs the
/// anchored walk over its chunk as above, or worker 0 runs a
/// [`pair_wave`] over the whole wave while the helpers pass the
/// barrier. Both write every row with the walk's bits. Pair waves stay
/// on one worker: on a 2-vCPU host two spinning threads took about
/// twice one thread's time, so a split pair wave would buy nothing
/// there. A split or uncapped fill, which never pairs, runs each wave
/// in one step.
///
/// Every worker polls `cancel` at the top of each step and every
/// [`CANCEL_CHECK_ROWS`] rows of its chunk (when the row's rank in the
/// wave is a multiple of it), the integer-order driver's cadence; a
/// pair wave polls every [`CANCEL_CHECK_ROWS`] left operands. A
/// worker that reads `true` skips its rows for the rest of the drive,
/// from mid-chunk if need be, but passes every remaining barrier, so no
/// sibling is stranded. No worker reads a skipped row either: a worker
/// that skips any row of a step read the flag before the barrier that
/// ends it, so by read-read coherence every sibling reads `true` at the
/// top of the next step, and the next step of the same wave is the
/// first that reads another worker's rows of it (a pair wave's), just
/// as wave `k + 1` is the first that reads wave `k`'s. Within a step a
/// worker reads only its own rows of the wave. Returns `true` when no
/// worker skipped a row.
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
    // Pair waves reproduce the anchored walk's first minimum, and only a
    // finite cap leaves few enough rows alive for them to pay.
    let pairable = PRUNE && engine.driver == DriverChoice::Conv && cap.is_finite();
    let steps = if pairable { 2 } else { 1 };
    // Per wave of a pairable fill, summed over the workers before the
    // barrier that ends each step: open rows, then live rows. Every
    // singleton is live (it costs 0).
    let open = [const { AtomicU64::new(0) }; MAX_TABLE_RELS + 1];
    let live = [const { AtomicU64::new(0) }; MAX_TABLE_RELS + 1];
    live[1].store(n as u64, Relaxed);
    let (shared, live_rows) = SyncTable::with_live_rows(table);
    let mut lists = LiveLists::new(live_rows);
    // Worker `t`'s whole drive; `None` for the barrier when it runs alone,
    // and for the live lists on every worker but 0.
    let worker = |t: usize,
                  mut view: SyncTableView,
                  barrier: Option<&Barrier>,
                  stats: &mut St,
                  mut lists: Option<&mut LiveLists<'_>>| {
        let mut guard = PanicGuard { failed: &failed, barrier, waits: steps * (n - 1) };
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
            view.begin_wave(k, Some((start, stop)));
            if !pairable {
                skipping = skipping
                    || !each_row(k, start, stop, &halted, |s| {
                        problem.properties(&mut view, model, s);
                        engine.run_row::<SyncTableView, M, St, PRUNE>(&mut view, model, s, cap, stats);
                    });
                guard.pass();
                continue;
            }
            if !skipping {
                let mut opened = 0;
                skipping = !each_row(k, start, stop, &halted, |s| {
                    problem.properties(&mut view, model, s);
                    opened += u64::from(model.kappa_ind(view.card(s)) < cap);
                });
                open[k].fetch_add(opened, Relaxed);
            }
            guard.pass();
            skipping = skipping || halted();
            let live_in = |i: usize| live[i].load(Relaxed);
            if engine.forces_pairs() || pairs_beat_walk(k, open[k].load(Relaxed), live_in) {
                // Worker 0 claims the whole wave, the helpers none of it.
                match lists.as_deref_mut() {
                    Some(lists) => {
                        view.begin_step(Some((0, rows)));
                        if !skipping {
                            match pair_wave(&mut view, model, k, cap, lists, &halted, stats) {
                                Some(count) => live[k].store(count, Relaxed),
                                None => skipping = true,
                            }
                        }
                    }
                    None => view.begin_step(Some((rows, rows))),
                }
            } else {
                view.begin_step(Some((start, stop)));
                if !skipping {
                    let mut finite = 0;
                    skipping = !each_row(k, start, stop, &halted, |s| {
                        engine.run_row::<SyncTableView, M, St, PRUNE>(&mut view, model, s, cap, stats);
                        finite += u64::from(view.cost(s).is_finite());
                    });
                    live[k].fetch_add(finite, Relaxed);
                }
            }
            guard.pass();
        }
        !skipping
    };
    if threads == 1 {
        // SAFETY: the only view, on the calling thread.
        return worker(0, unsafe { shared.view() }, None, stats, Some(&mut lists));
    }
    let barrier = Barrier::new(threads);
    let (barrier, worker) = (&barrier, &worker);
    // A panic of worker 0 leaves this closure before the joins below;
    // the scope then waits for the helpers and re-raises it.
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads)
            .map(|t| {
                // SAFETY: within each step of a wave every row is handled
                // by exactly one worker (disjoint chunk ranges, or worker
                // 0 alone on a pair wave), reads are confined to
                // strictly-smaller-popcount rows from earlier waves, rows
                // an earlier step of the wave finished, or the worker's
                // own rows, and a barrier separates steps — the SyncTable
                // discipline.
                let view = unsafe { shared.view() };
                scope.spawn(move || {
                    let mut local = St::default();
                    let completed = worker(t, view, Some(barrier), &mut local, None);
                    (local, completed)
                })
            })
            .collect();
        // SAFETY: as for the helpers' views; this one is worker 0's.
        let view = unsafe { shared.view() };
        let mut completed = worker(0, view, Some(barrier), stats, Some(&mut lists));
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

/// Run `row` on the rows of wave `k` whose colex ranks are
/// `start..stop`, in Gosper order, polling `halted` every
/// [`CANCEL_CHECK_ROWS`] ranks (whenever the rank is a multiple of it).
/// Returns `false` when `halted` stopped it.
#[inline(always)]
fn each_row(
    k: usize,
    start: u64,
    stop: u64,
    halted: &impl Fn() -> bool,
    mut row: impl FnMut(RelSet),
) -> bool {
    if start >= stop {
        return true;
    }
    let mut bits = nth_same_popcount(k, start);
    for rank in start..stop {
        if rank.is_multiple_of(CANCEL_CHECK_ROWS.into()) && halted() {
            return false;
        }
        row(RelSet::from_wave_bits(bits));
        bits = same_popcount_successor(bits);
    }
    true
}

/// Whether wave `k` of a capped conv fill fills from live pairs rather
/// than by the anchored walk, by counts alone. The walk visits
/// `open · (2^(k−1) − 1)` candidates over the wave's `open` rows; a pair
/// wave tests `Σ_{i<k−i} live_i · live_{k−i}` pairs, plus
/// `C(live_{k/2}, 2)` when `k` is even, where `live(i)` counts wave
/// `i`'s live rows — overlapping pairs included, since each is tested.
/// Pairs must be strictly fewer, so a tie keeps the walk.
///
/// A fill with every lower row live never pairs: the pairs then include
/// every disjoint one, one per unordered partition the walk visits, so
/// they are at least the walk's candidates, and equal only at `k = 2`,
/// where the tie keeps the walk.
fn pairs_beat_walk(k: usize, open: u64, live: impl Fn(usize) -> u64) -> bool {
    let walk = open * ((1u64 << (k - 1)) - 1);
    let pairs: u64 = (1..=k / 2)
        .map(|i| {
            let (left, right) = (live(i), live(k - i));
            if i == k - i {
                left * left.saturating_sub(1) / 2
            } else {
                left * right
            }
        })
        .sum();
    pairs < walk
}

/// Worker 0's operand lists for live-pair waves: the live rows of every
/// finished wave with their costs, in the table's reused buffer (see
/// [`SyncTable::with_live_rows`]). Wave `i`'s list is
/// `rows[start[i]..start[i + 1]]`, in Gosper order, for every
/// `i ≤ listed`. Waves are listed on the first pair wave that needs
/// them; a finished wave never changes.
struct LiveLists<'a> {
    rows: &'a mut Vec<LiveRow>,
    start: [usize; MAX_TABLE_RELS + 2],
    listed: usize,
}

impl<'a> LiveLists<'a> {
    fn new(rows: &'a mut Vec<LiveRow>) -> LiveLists<'a> {
        rows.clear();
        LiveLists { rows, start: [0; MAX_TABLE_RELS + 2], listed: 0 }
    }

    /// List every wave below `k`, reading the finished rows through
    /// `view`; `false` when `halted` stopped it.
    fn list_below(&mut self, view: &SyncTableView, k: usize, halted: &impl Fn() -> bool) -> bool {
        // Room for every row up front, once per table: the buffer never
        // moves, so growing it copies nothing, and pages no live row
        // reaches stay untouched (not resident).
        self.rows.reserve_exact((1usize << view.rels()).saturating_sub(self.rows.len()));
        while self.listed + 1 < k {
            let i = self.listed + 1;
            let rows = &mut *self.rows;
            let listed = each_row(i, 0, binomial(view.rels(), i), halted, |s| {
                let cost = view.cost(s);
                if cost.is_finite() {
                    rows.push((s, cost));
                }
            });
            if !listed {
                return false;
            }
            self.listed = i;
            self.start[i + 1] = self.rows.len();
        }
        true
    }

    /// Wave `i`'s live rows, once listed.
    fn wave(&self, i: usize) -> &[LiveRow] {
        &self.rows[self.start[i]..self.start[i + 1]]
    }
}

/// Fill wave `k` of a capped conv fill from pairs of live rows, on
/// worker 0 holding the whole wave (see [`drive_waves`]). Returns the
/// wave's count of live rows, or `None` when `halted` stopped it.
///
/// Every row the walk would take a candidate from has two finite
/// operands — a dead operand costs `+∞`, and no `+∞` total beats the
/// walk's best — so testing each pair of live rows from waves `i` and
/// `k − i` finds every candidate that matters. A disjoint pair is
/// judged as the anchored walk judges a candidate: the operand holding
/// `min S` on the left, the operand sum plus `κ''` on that orientation.
/// Each row keeps the lexicographic minimum of `(total, lhs)`, which is
/// the walk's first minimum: the walk visits `lhs` in increasing order
/// and takes a candidate exactly when its total beats the best so far,
/// because `κ'`, `κ''` and costs are nonnegative and `f32` addition is
/// monotone (a cascade test that skips a candidate proves its total is
/// no better). So every row gets the walk's cost and `best_lhs` bits.
///
/// Three passes over the wave. The first opens each row the `κ'` test
/// leaves (cost `+∞`, no split) and counts `subsets`,
/// `kappa_ind_evals` and `loops_skipped` as the walk would; a row `κ'`
/// closes holds NaN, which no pair beats. The second judges the pairs,
/// counting `pair_checks`, and `kappa_dep_evals` and `cond_hits` for
/// the pairs it judges. The third finishes each row as the walk does,
/// the operand charge included.
fn pair_wave<M: CostModel, St: Stats>(
    view: &mut SyncTableView,
    model: &M,
    k: usize,
    cap: f32,
    lists: &mut LiveLists<'_>,
    halted: &impl Fn() -> bool,
    stats: &mut St,
) -> Option<u64> {
    let rows = binomial(view.rels(), k);
    let opened = each_row(k, 0, rows, halted, |s| {
        stats.subset();
        stats.kappa_ind();
        let open = model.kappa_ind(view.card(s)) < cap;
        if !open {
            stats.loop_skipped();
        }
        view.set_cost(s, if open { f32::INFINITY } else { f32::NAN });
        view.set_best_lhs(s, RelSet::EMPTY);
    });
    if !opened || !lists.list_below(view, k, halted) {
        return None;
    }
    let mut left = 0u64;
    for i in 1..=k / 2 {
        let (small, large) = (lists.wave(i), lists.wave(k - i));
        // The longer list on the left: between two polls of `halted` a
        // pair wave tests at most CANCEL_CHECK_ROWS × the shorter list.
        let (outer, inner) = if small.len() >= large.len() { (small, large) } else { (large, small) };
        for (at, &(a, cost_a)) in outer.iter().enumerate() {
            if left.is_multiple_of(CANCEL_CHECK_ROWS.into()) && halted() {
                return None;
            }
            left += 1;
            // Within one wave, each unordered pair once.
            let partners = if i == k - i { &inner[at + 1..] } else { inner };
            stats.pair_checks(partners.len() as u64);
            for &(b, cost_b) in partners {
                if a.is_disjoint(b) {
                    judge_pair(view, model, (a, cost_a), (b, cost_b), stats);
                }
            }
        }
    }
    let mut live = 0u64;
    let finished = each_row(k, 0, rows, halted, |s| {
        let (best, best_lhs) = (view.cost(s), view.best_lhs(s));
        let kappa_ind = model.kappa_ind(view.card(s));
        finish_row(view, model, s, best, best_lhs, kappa_ind, cap);
        live += u64::from(view.cost(s).is_finite());
    });
    finished.then_some(live)
}

/// Judge the candidate a disjoint pair of live rows makes for the row
/// of their union (see [`pair_wave`]).
#[inline(always)]
fn judge_pair<M: CostModel, St: Stats>(
    view: &mut SyncTableView,
    model: &M,
    (a, cost_a): LiveRow,
    (b, cost_b): LiveRow,
    stats: &mut St,
) {
    let s = a | b;
    let best = view.cost(s);
    let oprnd_cost = cost_a + cost_b;
    // A total is never below its operand sum, so a sum above the best
    // cannot win; nor can any pair for a row κ' closed (NaN).
    if oprnd_cost <= best {
        let (lhs, rhs) = if a.is_disjoint(s.lowest_singleton()) { (b, a) } else { (a, b) };
        let dpnd_cost = if M::HAS_DEP {
            stats.kappa_dep();
            let out_card = view.card(s);
            oprnd_cost
                + kappa_dep_oriented::<SyncTableView, M, true>(view, model, out_card, s, lhs, rhs)
        } else {
            oprnd_cost
        };
        if dpnd_cost < best || (dpnd_cost == best && lhs.bits() < view.best_lhs(s).bits()) {
            stats.cond_hit();
            view.set_cost(s, dpnd_cost);
            view.set_best_lhs(s, lhs);
        }
    }
}

/// What keeps a wave worker whose row panics from stranding its
/// siblings: dropped by the unwind, it raises the drive's `failed` flag,
/// which every worker polls beside the cancel flag, and passes the
/// `waits` barriers the worker had left. The worker raised the flag
/// before the barrier that ends the step that panicked, so every
/// sibling reads it at the next step's top at the latest and skips
/// every row after it, as on cancel.
struct PanicGuard<'a> {
    failed: &'a AtomicBool,
    barrier: Option<&'a Barrier>,
    waits: usize,
}

impl PanicGuard<'_> {
    /// Wait at the barrier that ends the current step, when the drive
    /// has siblings, and count it passed.
    fn pass(&mut self) {
        if let Some(barrier) = self.barrier {
            barrier.wait();
        }
        self.waits -= 1;
    }
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
    use crate::cost::{DiskNestedLoops, Kappa0, SmDnl, SortMerge};
    use crate::kernel::ResolvedKernel;
    use crate::spec::JoinSpec;
    use crate::stats::{Counters, NoStats};
    use crate::table::AosTable;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        fill_capped::<L, M, _, P, PRUNE>(table, problem, model, engine, f32::INFINITY, 1, stats);
    }

    /// [`fill`] with an injected row engine under `cap` on `threads` wave
    /// workers (a hot/cold table; the other layouts fill in integer order).
    fn fill_capped<L, M, St, P, const PRUNE: bool>(
        table: &mut L,
        problem: &P,
        model: &M,
        engine: RowEngine,
        cap: f32,
        threads: usize,
        stats: &mut St,
    ) -> bool
    where
        L: TableLayout,
        M: CostModel + Sync,
        St: Stats + Default + Send,
        P: Problem,
    {
        let cancel = &NEVER_CANCELLED;
        match table.wave_table() {
            Some(waves) => drive_waves::<M, St, P, PRUNE>(
                waves, problem, model, cap, engine, threads, cancel, stats,
            ),
            None => drive::<L, M, St, P, PRUNE>(table, problem, model, cap, engine, cancel, stats),
        }
    }

    /// The anchored walk on the scalar cascade, pairing every capped wave.
    fn forced_pairs() -> RowEngine {
        RowEngine { force_pairs: true, ..RowEngine::new(ResolvedKernel::Scalar, DriverChoice::Conv) }
    }

    /// Every row's `(cost, card, best_lhs)` bits.
    fn rows_of<L: TableLayout>(table: &L, n: usize) -> Vec<(u32, u64, u32)> {
        (1u32..1 << n)
            .map(|bits| {
                let s = RelSet::from_bits(bits);
                (table.cost(s).to_bits(), table.card(s).to_bits(), table.best_lhs(s).bits())
            })
            .collect()
    }

    /// The inputs the pair waves must match the walk on: exact ties
    /// (uniform cards and selectivities), card 1, selectivity 1, products
    /// only, a disconnected graph, and random chains, stars, cycles and
    /// cliques.
    fn pair_wave_specs(n: usize) -> Vec<(&'static str, JoinSpec)> {
        let mut rng = StdRng::seed_from_u64(0x7061_6972);
        let mut log_uniform = |lo: f64, hi: f64| 10f64.powf(rng.random_range(lo..=hi));
        let chain: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let star: Vec<(usize, usize)> = (1..n).map(|i| (0, i)).collect();
        let mut cycle = chain.clone();
        cycle.push((0, n - 1));
        let clique: Vec<(usize, usize)> =
            (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j))).collect();
        let half = n / 2;
        let disconnected: Vec<(usize, usize)> =
            chain.iter().copied().filter(|&(i, _)| i + 1 != half).collect();
        let mut specs = Vec::new();
        let mut random = |name, edges: &[(usize, usize)], card: (f64, f64), sel: (f64, f64)| {
            let cards: Vec<f64> = (0..n).map(|_| log_uniform(card.0, card.1)).collect();
            let preds: Vec<_> =
                edges.iter().map(|&(i, j)| (i, j, log_uniform(sel.0, sel.1).min(1.0))).collect();
            specs.push((name, JoinSpec::new(&cards, &preds).unwrap()));
        };
        random("chain", &chain, (0.0, 4.0), (-4.0, 0.0));
        random("star", &star, (0.0, 4.0), (-4.0, 0.0));
        random("cycle", &cycle, (0.0, 4.0), (-4.0, 0.0));
        random("clique", &clique, (0.0, 4.0), (-3.0, 0.0));
        random("card one", &cycle, (0.0, 0.0), (-3.0, 0.0));
        random("sel one", &star, (0.0, 4.0), (0.0, 0.0));
        random("disconnected", &disconnected, (0.0, 4.0), (-4.0, 0.0));
        random("products", &[], (0.0, 3.0), (0.0, 0.0));
        let uniform: Vec<_> = clique.iter().map(|&(i, j)| (i, j, 0.1)).collect();
        specs.push(("ties", JoinSpec::new(&vec![10.0; n], &uniform).unwrap()));
        specs
    }

    /// Pair waves, forced on every wave of a capped conv fill, give every
    /// row the cost, card and `best_lhs` bits of the serial anchored walk
    /// under the same cap and operand charge — on all four models, on 1,
    /// 2 and 4 wave workers, on every input of [`pair_wave_specs`], with
    /// caps at, just above and far above the optimum.
    #[test]
    fn forced_pair_waves_match_the_walk_row_for_row() {
        fn check<M: CostModel + Sync>(model: &M) {
            let n = 8;
            let walk = RowEngine::new(ResolvedKernel::Scalar, DriverChoice::Conv);
            for (name, spec) in pair_wave_specs(n) {
                let mut uncapped = AosTable::with_rels(n);
                fill_with_engine::<_, _, _, true>(&mut uncapped, &spec, model, walk, &mut Counters::default());
                let optimum = uncapped.cost(RelSet::full(n));
                assert!(optimum.is_finite(), "{name}: {optimum}");
                for cap in [optimum, optimum.next_up(), optimum * 1e3] {
                    let mut reference = AosTable::with_rels(n);
                    let mut counters = Counters::default();
                    fill_capped::<_, _, _, _, true>(&mut reference, &spec, model, walk, cap, 1, &mut counters);
                    let want = rows_of(&reference, n);
                    for threads in [1, 2, 4] {
                        let label = format!("{} {name} cap {cap:e} threads {threads}", model.name());
                        let mut paired = HotColdTable::with_rels(n);
                        let mut got = Counters::default();
                        let done = fill_capped::<_, _, _, _, true>(
                            &mut paired, &spec, model, forced_pairs(), cap, threads, &mut got,
                        );
                        assert!(done, "{label}");
                        assert_eq!(rows_of(&paired, n), want, "{label}");
                        assert_eq!(got.loop_iters, 0, "{label}: a forced fill walks no row");
                        assert!(got.pair_checks > 0, "{label}");
                        assert_eq!(got.subsets, counters.subsets, "{label}");
                        assert_eq!(got.kappa_ind_evals, counters.kappa_ind_evals, "{label}");
                        assert_eq!(got.loops_skipped, counters.loops_skipped, "{label}");
                    }
                }
            }
        }
        check(&Kappa0);
        check(&SortMerge);
        check(&DiskNestedLoops::default());
        check(&SmDnl::default());
    }

    /// The charge kills only rows no plan under the cap can use: a capped
    /// κ_sm fill keeps every root and every row a plan reaches, and its
    /// dead rows include rows whose cost alone was under the cap.
    #[test]
    fn the_operand_charge_kills_rows_but_keeps_the_plan() {
        let n = 8;
        let walk = RowEngine::new(ResolvedKernel::Scalar, DriverChoice::Conv);
        let mut killed = 0;
        for (name, spec) in pair_wave_specs(n) {
            let mut uncapped = AosTable::with_rels(n);
            fill_with_engine::<_, _, _, true>(&mut uncapped, &spec, &SortMerge, walk, &mut Counters::default());
            let full = RelSet::full(n);
            let cap = uncapped.cost(full).next_up();
            let mut capped = AosTable::with_rels(n);
            fill_capped::<_, _, _, _, true>(&mut capped, &spec, &SortMerge, walk, cap, 1, &mut NoStats);
            assert_eq!(capped.cost(full).to_bits(), uncapped.cost(full).to_bits(), "{name}");
            // The optimal plan's rows all survive with their bits.
            let mut stack = vec![full];
            while let Some(s) = stack.pop() {
                assert_eq!(capped.best_lhs(s), uncapped.best_lhs(s), "{name} {s:?}");
                if !s.is_singleton() {
                    let lhs = capped.best_lhs(s);
                    stack.extend([lhs, s - lhs]);
                }
            }
            killed += (1u32..1 << n)
                .map(RelSet::from_bits)
                .filter(|&s| s != full && capped.cost(s).is_infinite() && uncapped.cost(s) < cap)
                .count();
        }
        assert!(killed > 0, "the charge killed no row under the cap");
    }

    /// A fill with every lower row live never pairs (the walk's
    /// candidates are among the pairs, which tie at `k = 2` only), while a
    /// wave over few live rows does.
    #[test]
    fn pair_rule_keeps_the_walk_when_every_row_lives() {
        for n in 2..=MAX_TABLE_RELS {
            let all = |i: usize| binomial(n, i);
            for k in 2..=n {
                assert!(!pairs_beat_walk(k, binomial(n, k), all), "n={n} k={k}");
            }
        }
        // A 16-relation chain: n − i + 1 connected rows in wave i.
        let chain = |i: usize| 17 - i as u64;
        assert!(pairs_beat_walk(12, chain(12), chain));
        assert!(!pairs_beat_walk(3, chain(3), chain));
        assert!(!pairs_beat_walk(5, 0, chain), "no open row: nothing to beat");
    }

    static PAIR_TRIP: AtomicBool = AtomicBool::new(false);

    /// Trips [`PAIR_TRIP`] at its `trip_at`-th left operand of a pair wave
    /// and counts the left operands it starts after that.
    #[derive(Default)]
    struct PairTripwire {
        trip_at: u64,
        left: u64,
        late: u64,
    }

    impl Stats for PairTripwire {
        fn pair_checks(&mut self, _checks: u64) {
            if PAIR_TRIP.load(Relaxed) {
                self.late += 1;
            }
            self.left += 1;
            if self.left == self.trip_at {
                PAIR_TRIP.store(true, Relaxed);
            }
        }
        fn loop_iter(&mut self) {}
        fn subset(&mut self) {}
        fn kappa_ind(&mut self) {}
        fn kappa_dep(&mut self) {}
        fn cond_hit(&mut self) {}
        fn loop_skipped(&mut self) {}
        fn pass(&mut self) {}
        fn absorb(&mut self, _child: PairTripwire) {}
    }

    /// A pair wave polls the cancel flag every 4096 left operands: set
    /// 1000 operands into wave 10 of a 14-relation product, where about
    /// 13 400 remain, the drive stops within 4096 more, on one worker and
    /// on two.
    #[test]
    fn cancel_flag_stops_a_pair_wave_midway() {
        let n = 14;
        let spec = JoinSpec::cartesian(&[2.0; 14]).unwrap();
        let left_in = |k: usize| -> u64 {
            (1..=k / 2).map(|i| binomial(n, i).max(binomial(n, k - i))).sum()
        };
        let before: u64 = (2..10).map(left_in).sum();
        assert!(left_in(10) > 1000 + 2 * u64::from(CANCEL_CHECK_ROWS));
        for threads in [1, 2] {
            PAIR_TRIP.store(false, Relaxed);
            let mut sink = PairTripwire { trip_at: before + 1000, ..PairTripwire::default() };
            let mut table = HotColdTable::with_rels(n);
            let done = drive_waves::<_, _, _, true>(
                &mut table, &spec, &Kappa0, 1e30, forced_pairs(), threads, &PAIR_TRIP, &mut sink,
            );
            assert!(!done, "threads {threads}: the flag must stop the drive");
            assert!(sink.left > before, "threads {threads}: tripped before wave 10");
            assert!(sink.late <= u64::from(CANCEL_CHECK_ROWS), "threads {threads}: {} late", sink.late);
        }
    }

    /// κ_sm whose κ'' panics on any operand pair of the full set.
    struct PanicsOnFullJoin;

    impl CostModel for PanicsOnFullJoin {
        const HAS_DEP: bool = true;
        const HAS_AUX: bool = true;
        const CONV_SUPPORT: ConvSupport = ConvSupport::Canonical;

        fn kappa_ind(&self, _out_card: f64) -> f32 {
            0.0
        }

        fn kappa_dep(&self, out: f64, _l: f64, _r: f64, la: f32, ra: f32) -> f32 {
            assert!(out < 1e11, "kappa_dep of the full set");
            la + ra
        }

        fn aux(&self, card: f64) -> f32 {
            crate::cost::sort_term(card) as f32
        }

        fn name(&self) -> &'static str {
            "panics_on_full_join"
        }
    }

    /// A κ'' that panics inside a pair wave fails the drive instead of
    /// hanging it: worker 0 runs the wave while its helpers wait at the
    /// barrier, and its guard passes the barriers they wait at. Each drive
    /// runs on its own thread under a watchdog.
    #[test]
    fn a_panicking_pair_wave_fails_its_drive() {
        let spec = JoinSpec::cartesian(&[10.0; 11]).unwrap();
        for threads in [1, 2, 4] {
            let spec = spec.clone();
            let (done, finished) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let run = std::panic::catch_unwind(|| {
                    let mut table = HotColdTable::with_rels(spec.n());
                    let model = &PanicsOnFullJoin;
                    let cap = 1e30;
                    fill_capped::<_, _, _, _, true>(
                        &mut table, &spec, model, forced_pairs(), cap, threads, &mut NoStats,
                    );
                });
                let message = run.err().map(|p| match p.downcast::<String>() {
                    Ok(s) => *s,
                    Err(p) => p.downcast_ref::<&str>().map(|s| s.to_string()).unwrap_or_default(),
                });
                let _ = done.send(message);
            });
            let got = finished
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("threads {threads}: the drive hung"));
            assert_eq!(got.as_deref(), Some("kappa_dep of the full set"), "threads {threads}");
        }
    }

    /// A warm table's live buffer is reused: a second fill of the same
    /// size keeps its capacity, and an uncapped fill leaves it empty.
    #[test]
    fn live_rows_reuse_the_tables_buffer() {
        let n = 9;
        let spec = JoinSpec::cartesian(&[3.0; 9]).unwrap();
        let mut table = HotColdTable::with_rels(n);
        let cap = 1e30;
        fill_capped::<_, _, _, _, true>(&mut table, &spec, &Kappa0, forced_pairs(), cap, 1, &mut NoStats);
        let (grown, listed) = {
            let (_, live) = SyncTable::with_live_rows(&mut table);
            (live.capacity(), live.len())
        };
        assert!(listed > 0 && grown >= listed);
        fill_capped::<_, _, _, _, true>(&mut table, &spec, &Kappa0, forced_pairs(), cap, 1, &mut NoStats);
        let (_, live) = SyncTable::with_live_rows(&mut table);
        assert_eq!((live.capacity(), live.len()), (grown, listed));
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
            let engine = RowEngine::new(ResolvedKernel::Scalar, driver);
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

/// Seeded wave-discipline violations around a live-pair wave: worker 0
/// claims the whole wave for its pair step, reading the cards its
/// helper wrote in the properties step, and a helper write into that
/// step must panic. (The conv walk's twins live in `conv.rs`.)
#[cfg(all(test, blitz_check))]
mod check_tests {
    use super::*;
    use crate::cost::Kappa0;
    use crate::spec::JoinSpec;
    use crate::stats::NoStats;

    /// Wave 2 of a 6-relation product on two views of one table: step 0
    /// writes each half's properties, step 1 pairs the whole wave on
    /// worker 0 under `zero_claim`/`helper_claim`; then `seeded` runs
    /// with the helper's view.
    fn pair_step(helper_claim: Option<(u64, u64)>, seeded: impl FnOnce(&mut SyncTableView)) {
        let (n, k) = (6, 2);
        let spec = JoinSpec::cartesian(&[3.0; 6]).unwrap();
        let mut table = HotColdTable::with_rels(n);
        init_singletons(&mut table, &spec, &Kappa0);
        let (shared, live_rows) = SyncTable::with_live_rows(&mut table);
        let mut lists = LiveLists::new(live_rows);
        // SAFETY: two views used in turn on one thread: no real race,
        // only the seeded violation.
        let (mut zero, mut helper) = unsafe { (shared.view(), shared.view()) };
        let (rows, half) = (binomial(n, k), 8);
        let never = || false;
        zero.begin_wave(k, Some((0, half)));
        helper.begin_wave(k, Some((half, rows)));
        each_row(k, 0, half, &never, |s| spec.properties(&mut zero, &Kappa0, s));
        each_row(k, half, rows, &never, |s| spec.properties(&mut helper, &Kappa0, s));
        zero.begin_step(Some((0, rows)));
        helper.begin_step(helper_claim);
        let live = pair_wave(&mut zero, &Kappa0, k, 1e30, &mut lists, &never, &mut NoStats);
        assert_eq!(live, Some(rows), "every row of a product under a loose cap lives");
        seeded(&mut helper);
    }

    /// The legitimate pattern passes: worker 0 reads the helper's
    /// step-0 rows in the pair step, and the helper writes nothing.
    #[test]
    fn pair_step_reads_rows_an_earlier_step_finished() {
        pair_step(Some((15, 15)), |_| {});
    }

    /// The helper claims none of the pair wave; a write into it strays
    /// outside its (empty) chunk.
    #[test]
    #[should_panic(expected = "outside this worker's chunk")]
    fn helper_write_into_a_pair_wave_is_detected() {
        pair_step(Some((15, 15)), |helper| helper.set_cost(RelSet::from_bits(0b11), 0.0));
    }

    /// Without any claim to check, the shadow words still catch the
    /// helper writing a row worker 0 wrote in the same step.
    #[test]
    #[should_panic(expected = "same wave")]
    fn unclaimed_helper_write_into_a_paired_row_is_detected() {
        pair_step(None, |helper| helper.set_cost(RelSet::from_bits(0b11_0000), 0.0));
    }

    /// Nor may the helper read a row worker 0 is pairing in this step.
    #[test]
    #[should_panic(expected = "own row")]
    fn helper_read_of_a_paired_row_is_detected() {
        pair_step(Some((15, 15)), |helper| {
            let _ = helper.cost(RelSet::from_bits(0b101));
        });
    }
}
