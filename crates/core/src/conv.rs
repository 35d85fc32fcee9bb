//! The layered-convolution driver — `DriverChoice::Conv`.
//!
//! The split-enumeration DP computes, for every non-singleton set `S`,
//!
//! ```text
//! cost[S] = κ'(S) + min over {L, R} partitioning S of
//!               cost[L] + cost[R] + κ''(S, L, R)
//! ```
//!
//! Viewed one popcount layer at a time (as the rank-wave parallel driver
//! already schedules it), the inner `min` over wave `k` is a (min,+)
//! **subset convolution** of the lower layers of the dense cost column
//! with itself: `(cost ⊛ cost)[S] = min_{L ⊂ S} cost[L] + cost[S − L]`
//! (DPconv's formulation of the join-ordering DP). Exact (min,+)
//! convolution over real-valued costs admits no known subexponential
//! evaluation, but the convolution view licenses an *orientation
//! halving* the split enumeration cannot see: `⊛` is commutative, so
//! when a candidate's cost is a symmetric function of `{L, R}` each
//! unordered partition needs evaluating **once**, not once per
//! orientation. This driver anchors every candidate on the lowest
//! relation of `S` — walking `L = {min S} ∪ sub` for `sub ⊆ S − {min S}`
//! — and thereby visits `2^(|S|−1) − 1` candidates per row instead of
//! the split walk's `2^|S| − 2`: half the `3^n` total, an asymptotic
//! constant no further micro-optimization of the split loop can reach.
//!
//! # Exactness boundary
//!
//! The halving is exact when the candidate cost assigns both
//! orientations of an unordered partition the same f32 bits. Each model
//! declares how it reaches that bar via
//! [`CostModel::CONV_SUPPORT`](crate::cost::ConvSupport):
//!
//! * **Native** (κ0): `κ'' ≡ 0`, so a candidate's cost is the single
//!   commutative addition `cost[L] + cost[R]` — exact with no help.
//! * **Canonical** (κ_sm, κ_dnl, min(κ_sm, κ_dnl)): `κ''` is nonzero,
//!   but every κ'' call site — the split walk, the batched re-judge and
//!   this driver's anchored walk — presents the operands in a
//!   *canonical order*: the operand containing `min S` is always `L`
//!   (the anchored walk satisfies this by construction, since its left
//!   operand always contains the anchor `{min S}`; the split walk swaps
//!   when its `lhs` lacks the lowest relation). Both orientations then
//!   execute the same float expression on identically ordered operands
//!   and round to the same bits, so the halving is exact by
//!   construction. The canonical-split reference — split enumeration
//!   with canonically ordered κ'' operands — is the common ground truth
//!   both drivers are bit-equal to; for the shipped models it is also
//!   bit-equal to the historical un-normalized split output, because
//!   their κ'' happen to be bitwise symmetric (IEEE `+`/`*`/`min`
//!   commute exactly — pinned by a cost-model unit test).
//! * **Fallback** (the default for models that declare nothing):
//!   `Conv`/`Auto` transparently degrade to the split driver via
//!   [`RowEngine::resolve`], and κ'' sees raw walk order.
//!
//! On a supported model the resulting **cost and cardinality columns are
//! bit-identical** to the split driver's: both drivers take the f32
//! minimum (strict `<`, first-wins) over the same multiset of candidate
//! values. The `best_lhs` column may differ in *representation* — the
//! split walk records whichever orientation of the winning partition has
//! the smaller integer bit pattern, the anchored walk always records the
//! orientation containing `min S` — but both denote the same unordered
//! partition, so extracted plans are equal up to commuting join inputs
//! (and compare equal after [`crate::plan::Plan::canonical`]). Only on a
//! genuine *cross-partition* tie (two different partitions at exactly
//! equal f32 cost) can the chosen partition itself differ between
//! drivers; each driver's own choice is deterministic — first minimum in
//! its documented walk order — which is what the driver-equivalence
//! suite pins.
//!
//! # Dispatch
//!
//! [`DriverChoice`] is the user-facing knob on [`crate::DriveOptions`]
//! (env `BLITZ_TEST_DRIVER`, CLI `--driver`, service config/wire
//! `driver=`): `Split` is the reference enumeration, `Conv` uses this
//! driver wherever the model supports it (falling back otherwise), and
//! `Auto` picks Conv only when the model supports it *and* the relation
//! count is at least `CONV_AUTO_MIN_RELS` (6) — below the crossover the
//! split loop's smaller per-row constant wins (see EXPERIMENTS.md).
//! Resolution happens once per drive in [`RowEngine::resolve`]; the row
//! path dispatches on a `Copy` token.
//!
//! [`RowEngine`] also owns the per-wave scalar-vs-vector kernel
//! selection: rows of popcount `k` deposit `2^k − 2` (split) or
//! `2^(k−1) − 1` (conv) candidates, and a wave whose rows cannot fill
//! even one [`LANES`]-wide batch pays the batch-fill bookkeeping without
//! amortizing it, so waves below `SCALAR_WAVE_FLOOR` (4) run the scalar
//! cascade regardless of the requested kernel. Kernels are
//! bit-identical (tables, plans, counters — see [`crate::kernel`]), so
//! the floor is pure scheduling.

use crate::bitset::RelSet;
use crate::cost::{ConvSupport, CostModel};
#[cfg(target_arch = "aarch64")]
use crate::kernel::gather_mask_neon;
#[cfg(target_arch = "x86_64")]
use crate::kernel::{gather_mask_avx2, gather_mask_avx512};
use crate::kernel::{find_best_split_with, gather_mask_portable, ResolvedKernel, LANES, LANES_WIDE};
use crate::split::DriveOptions;
use crate::stats::Stats;
use crate::table::TableLayout;

/// Relation count at or above which `DriverChoice::Auto` prefers the
/// convolution driver on a supporting model. Below the crossover the
/// split loop's smaller per-row setup wins; the halving only pays once
/// the `O(3^n)` loop body dominates. Measured on the hotpath bench
/// host (see EXPERIMENTS.md): conv is at-or-ahead of the best split
/// configuration from `n = 6` on all four workload topologies, and
/// within noise at `n = 5`.
const CONV_AUTO_MIN_RELS: usize = 6;

/// Popcount below which [`RowEngine::run_row`] forces the scalar
/// cascade: rows of popcount `k < 4` deposit at most `2^3 − 2 = 6`
/// split candidates (conv: at most 7) — less than one [`LANES`]-wide
/// batch — so batching is pure fill overhead there.
const SCALAR_WAVE_FLOOR: usize = 4;

/// Runtime name for the DP driver used to fill each table row,
/// selectable per [`crate::DriveOptions`] (env `BLITZ_TEST_DRIVER`, CLI
/// `--driver`, service config). On models where the convolution
/// reduction is exact ([`CostModel::CONV_SUPPORT`] of `Native` or
/// `Canonical`) the drivers are cost-bit-identical; elsewhere
/// `Conv`/`Auto` silently run `Split`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum DriverChoice {
    /// The Vance–Maier split enumeration of [`crate::split`]: every
    /// ordered split of every set. The reference, and the default.
    #[default]
    Split,
    /// The anchored layered-convolution driver of this module: each
    /// unordered partition once. Falls back to `Split` on models whose
    /// `κ''` makes the halving inexact.
    Conv,
    /// `Conv` when the model supports it and `n ≥` the measured
    /// crossover (`CONV_AUTO_MIN_RELS` = 6); `Split` otherwise.
    Auto,
}

impl DriverChoice {
    /// All selectable drivers, for ablation sweeps.
    pub const ALL: [DriverChoice; 3] =
        [DriverChoice::Split, DriverChoice::Conv, DriverChoice::Auto];

    /// Stable lower-case name (`split` / `conv` / `auto`).
    pub fn name(self) -> &'static str {
        match self {
            DriverChoice::Split => "split",
            DriverChoice::Conv => "conv",
            DriverChoice::Auto => "auto",
        }
    }

    /// Inverse of [`name`](DriverChoice::name); `None` for unknown names.
    pub fn parse(s: &str) -> Option<DriverChoice> {
        match s {
            "split" => Some(DriverChoice::Split),
            "conv" => Some(DriverChoice::Conv),
            "auto" => Some(DriverChoice::Auto),
            _ => None,
        }
    }

    /// Resolve the user-facing choice against a model's capability and
    /// the problem size, once per drive. Never returns `Auto`; `Conv` on
    /// a [`ConvSupport::Fallback`] model degrades to `Split` (the
    /// documented transparent fallback), so requesting `Conv` is always
    /// safe.
    pub fn resolve(self, support: ConvSupport, n: usize) -> DriverChoice {
        match self {
            DriverChoice::Split => DriverChoice::Split,
            DriverChoice::Conv => {
                if support.allows_conv() {
                    DriverChoice::Conv
                } else {
                    DriverChoice::Split
                }
            }
            DriverChoice::Auto => {
                if support.allows_conv() && n >= CONV_AUTO_MIN_RELS {
                    DriverChoice::Conv
                } else {
                    DriverChoice::Split
                }
            }
        }
    }
}

impl std::fmt::Display for DriverChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The per-row execution policy, resolved once per drive: which DP
/// driver fills a row and with which kernel (the scalar cascade stands
/// in below [`SCALAR_WAVE_FLOOR`]). A `Copy` token handed to every
/// worker so neither feature detection nor capability probing sits on
/// the row path.
#[derive(Copy, Clone, Debug)]
pub(crate) struct RowEngine {
    /// Resolved split kernel for rows at or above the floor.
    kernel: ResolvedKernel,
    /// Resolved driver — `Split` or `Conv`, never `Auto`.
    driver: DriverChoice,
}

impl RowEngine {
    /// Resolve a full [`DriveOptions`] policy against the model and
    /// problem size.
    pub(crate) fn resolve<M: CostModel>(options: DriveOptions, _model: &M, n: usize) -> RowEngine {
        RowEngine {
            kernel: options.kernel.resolve(),
            driver: options.driver.resolve(M::CONV_SUPPORT, n),
        }
    }

    /// The split driver pinned to an explicit, already-resolved kernel.
    /// The generic serial entry points ([`crate::join::optimize_join_into`]
    /// and friends) route here with the scalar reference kernel.
    pub(crate) fn with_kernel(kernel: ResolvedKernel) -> RowEngine {
        RowEngine { kernel, driver: DriverChoice::Split }
    }

    /// Fill the row for `s` with this policy. Same contract as
    /// [`crate::split::find_best_split`]: `card`/`aux` already filled,
    /// `cost` and `best_lhs` written here.
    #[inline]
    pub(crate) fn run_row<L, M, St, const PRUNE: bool>(
        self,
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
        // Per-wave kernel selection: a row's popcount is its wave, so
        // this one popcount test (s.len() is a single popcnt) applies
        // the wave floor identically under the serial integer-order
        // driver and the rank-wave parallel driver.
        let kernel = if s.len() < SCALAR_WAVE_FLOOR {
            ResolvedKernel::Scalar
        } else {
            self.kernel
        };
        match self.driver {
            DriverChoice::Conv => {
                find_best_split_conv_with::<L, M, St, PRUNE>(table, model, s, cap, stats, kernel);
            }
            _ => {
                find_best_split_with::<L, M, St, PRUNE>(table, model, s, cap, stats, kernel);
            }
        }
    }
}

/// Kernel-dispatching form of [`find_best_split_conv`], mirroring
/// [`find_best_split_with`]: scalar reference for the `Scalar` kernel
/// and the unpruned ablation, the vector kernel otherwise.
#[inline]
pub(crate) fn find_best_split_conv_with<L, M, St, const PRUNE: bool>(
    table: &mut L,
    model: &M,
    s: RelSet,
    cap: f32,
    stats: &mut St,
    kernel: ResolvedKernel,
) where
    L: TableLayout,
    M: CostModel,
    St: Stats,
{
    if matches!(kernel, ResolvedKernel::Scalar) || !PRUNE {
        return find_best_split_conv::<L, M, St, PRUNE>(table, model, s, cap, stats);
    }
    find_best_split_conv_batched::<L, M, St, PRUNE>(table, model, s, cap, stats, kernel);
}

/// Anchored convolution form of [`crate::split::find_best_split`]:
/// identical contract
/// and identical κ' hoist / cascade / finish stages, but the candidate
/// walk covers each unordered partition of `s` exactly once by fixing
/// `anchor = {min s}` in the left operand and walking
/// `sub ⊆ s − anchor` in dilated-counting order (`sub` starts empty —
/// the first candidate is `anchor` itself — and the walk stops before
/// `sub` reaches `s − anchor`, which would leave an empty right side).
///
/// Tie-break determinism: the walk visits `lhs = anchor ∪ sub` in
/// strictly increasing bit-vector order of `sub` (dilated counting is
/// order-preserving), and the strict `<` below keeps the first minimum
/// — the minimum-cost partition whose *anchored orientation* has the
/// lowest bits. Like the split walk's tie-break, the choice depends
/// only on rows of strict subsets of `s`, so serial and rank-wave
/// parallel execution produce bit-identical tables.
#[inline]
pub(crate) fn find_best_split_conv<L, M, St, const PRUNE: bool>(
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

    // κ'(S) hoist + loop skip — verbatim from `find_best_split`.
    stats.kappa_ind();
    let kappa_ind = model.kappa_ind(out_card);
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(kappa_ind < cap) {
        table.set_cost(s, f32::INFINITY);
        table.set_best_lhs(s, RelSet::EMPTY);
        stats.loop_skipped();
        return;
    }

    let mut best = f32::INFINITY;
    let mut best_lhs = RelSet::EMPTY;

    let anchor = s.lowest_singleton();
    let rest = s - anchor;
    // `rest.subset_successor(RelSet::EMPTY)` is `rest & (0 − rest)` =
    // the lowest singleton of `rest`, so one successor walk covers
    // sub = ∅, δ_rest(1), δ_rest(2), … without a special first step.
    let mut sub = RelSet::EMPTY;
    loop {
        stats.loop_iter();
        let lhs = anchor | sub;
        let rhs = rest - sub;

        // One-candidate lookahead prefetch, exactly as in the split
        // walk: advisory only, gated on `L::PREFETCHES` so no-op
        // layouts pay nothing.
        let next_sub = rest.subset_successor(sub);
        if L::PREFETCHES && next_sub != rest {
            table.prefetch_cost(anchor | next_sub);
            table.prefetch_cost(rest - next_sub);
        }

        if PRUNE {
            // Nested-if cascade — verbatim from `find_best_split`.
            let lhs_cost = table.cost(lhs);
            if lhs_cost < best {
                let oprnd_cost = lhs_cost + table.cost(rhs);
                if oprnd_cost < best {
                    let dpnd_cost = if M::HAS_DEP {
                        stats.kappa_dep();
                        // The anchored walk is canonical by construction
                        // (`lhs ⊇ {min s}`), so passing `(lhs, rhs)`
                        // as-is IS the lowest-relation-first order the
                        // `Canonical` exactness argument requires — no
                        // swap test needed here, unlike the split walk's
                        // `kappa_dep_oriented`.
                        oprnd_cost
                            + model.kappa_dep(
                                out_card,
                                table.card(lhs),
                                table.card(rhs),
                                table.aux(lhs),
                                table.aux(rhs),
                            )
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
            let oprnd_cost = table.cost(lhs) + table.cost(rhs);
            stats.kappa_dep();
            // Anchored ⇒ canonical operand order, as in the pruned arm.
            let dpnd_cost = oprnd_cost
                + model.kappa_dep(
                    out_card,
                    table.card(lhs),
                    table.card(rhs),
                    table.aux(lhs),
                    table.aux(rhs),
                );
            if dpnd_cost < best {
                stats.cond_hit();
                best = dpnd_cost;
                best_lhs = lhs;
            }
        }

        if next_sub == rest {
            break;
        }
        sub = next_sub;
    }

    // Finish — verbatim from `find_best_split`.
    let total = best + kappa_ind;
    if total < cap {
        table.set_cost(s, total);
        table.set_best_lhs(s, best_lhs);
    } else {
        table.set_cost(s, f32::INFINITY);
        table.set_best_lhs(s, RelSet::EMPTY);
    }
}

/// Vector-kernel form of [`find_best_split_conv`], mirroring
/// [`crate::kernel::find_best_split_batched`] stage for stage: the
/// anchored walk runs ahead and deposits up to [`LANES`] candidate
/// `lhs` sets, the batch is judged branchlessly against best₀ through
/// the same gather helpers (they compute `rhs = s − lhs`, which for an
/// anchored candidate is exactly `rest − sub`), and surviving lanes are
/// re-judged in walk order against the running best — so the batched
/// conv kernel is bit-identical (rows, `best_lhs`, counters) to the
/// scalar conv cascade by the same argument that makes the vector
/// split kernel bit-identical to its scalar cascade.
fn find_best_split_conv_batched<L, M, St, const PRUNE: bool>(
    table: &mut L,
    model: &M,
    s: RelSet,
    cap: f32,
    stats: &mut St,
    kernel: ResolvedKernel,
) where
    L: TableLayout,
    M: CostModel,
    St: Stats,
{
    stats.subset();
    let out_card = table.card(s);

    stats.kappa_ind();
    let kappa_ind = model.kappa_ind(out_card);
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(kappa_ind < cap) {
        table.set_cost(s, f32::INFINITY);
        table.set_best_lhs(s, RelSet::EMPTY);
        stats.loop_skipped();
        return;
    }

    // SAFETY: the pointer (when present) is dereferenced only by the
    // gather paths below, which index it with `lhs.index()` and
    // `rhs.index()` for nonempty strict subsets of `s` — every batched
    // candidate is `anchor ∪ sub` with `sub ⊊ s − anchor`, so both it
    // and its complement are nonempty strict subsets, all smaller than
    // `1 << rels()`, the extent `cost_base` guarantees — while the
    // `&mut L` borrow held by this function keeps the buffer alive.
    let base = unsafe { table.cost_base() };

    let mut best = f32::INFINITY;
    let mut best_lhs = RelSet::EMPTY;
    let mut lhs_buf = [RelSet::EMPTY; LANES_WIDE];
    let mut lhs_cost = [0.0f32; LANES_WIDE];
    let mut oprnd = [0.0f32; LANES_WIDE];
    let lanes = kernel.lanes();

    let anchor = s.lowest_singleton();
    let rest = s - anchor;
    // Same anchored walk, same order, same termination as the scalar
    // conv cascade; the batch buffer never reorders candidates, so the
    // first-wins tie-break is decided on exactly the scalar visit
    // order.
    let mut sub = RelSet::EMPTY;
    let mut done = false;
    while !done {
        let mut len = 0usize;
        while len < lanes && !done {
            stats.loop_iter();
            lhs_buf[len] = anchor | sub;
            len += 1;
            let next_sub = rest.subset_successor(sub);
            if next_sub == rest {
                done = true;
            } else {
                sub = next_sub;
            }
        }

        let mask = match (kernel, base) {
            #[cfg(target_arch = "x86_64")]
            (ResolvedKernel::Avx512, Some(base)) if len == LANES_WIDE => {
                // SAFETY: `Avx512` is only resolved after
                // `is_x86_feature_detected!("avx512f")`, and `base`
                // covers every gathered index per the `cost_base`
                // contract (all lanes hold nonempty strict subsets of
                // `s`).
                unsafe { gather_mask_avx512(base, s, &lhs_buf, best, &mut lhs_cost, &mut oprnd) }
            }
            #[cfg(target_arch = "x86_64")]
            (ResolvedKernel::Avx2, Some(base)) if len == LANES => {
                let lhs8 = lhs_buf.first_chunk::<LANES>().unwrap();
                let lc8 = lhs_cost.first_chunk_mut::<LANES>().unwrap();
                let op8 = oprnd.first_chunk_mut::<LANES>().unwrap();
                // SAFETY: `Avx2` is only resolved after
                // `is_x86_feature_detected!("avx2")`, and `base` covers
                // every gathered index per the `cost_base` contract
                // (all lanes hold nonempty strict subsets of `s`).
                unsafe { gather_mask_avx2(base, s, lhs8, best, lc8, op8) }
            }
            #[cfg(target_arch = "aarch64")]
            (ResolvedKernel::Neon, Some(base)) if len == LANES => {
                let lhs8 = lhs_buf.first_chunk::<LANES>().unwrap();
                let lc8 = lhs_cost.first_chunk_mut::<LANES>().unwrap();
                let op8 = oprnd.first_chunk_mut::<LANES>().unwrap();
                // SAFETY: NEON is baseline on aarch64, and `base` covers
                // every gathered index per the `cost_base` contract
                // (all lanes hold nonempty strict subsets of `s`).
                unsafe { gather_mask_neon(base, s, lhs8, best, lc8, op8) }
            }
            _ => gather_mask_portable(table, s, &lhs_buf, len, best, &mut lhs_cost, &mut oprnd),
        };

        // Re-judge surviving lanes in walk order against the running
        // best — the scalar cascade verbatim (see `crate::kernel`'s
        // counter-parity argument, which applies unchanged: only the
        // candidate sequence differs, and it is identical between the
        // scalar and batched conv walks).
        let mut m = mask;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            let cand = lhs_buf[i];
            let cand_cost = lhs_cost[i];
            if cand_cost < best {
                let oprnd_cost = oprnd[i];
                if oprnd_cost < best {
                    let dpnd_cost = if M::HAS_DEP {
                        stats.kappa_dep();
                        let rhs = s - cand;
                        // Every batched candidate is `anchor ∪ sub`, so
                        // `(cand, rhs)` is already the canonical
                        // lowest-relation-first order.
                        oprnd_cost
                            + model.kappa_dep(
                                out_card,
                                table.card(cand),
                                table.card(rhs),
                                table.aux(cand),
                                table.aux(rhs),
                            )
                    } else {
                        oprnd_cost
                    };
                    if dpnd_cost < best {
                        stats.cond_hit();
                        best = dpnd_cost;
                        best_lhs = cand;
                    }
                }
            }
        }
    }

    let total = best + kappa_ind;
    if total < cap {
        table.set_cost(s, total);
        table.set_best_lhs(s, best_lhs);
    } else {
        table.set_cost(s, f32::INFINITY);
        table.set_best_lhs(s, RelSet::EMPTY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{DiskNestedLoops, Kappa0, SmDnl, SortMerge};
    use crate::spec::JoinSpec;
    use crate::stats::Counters;
    use crate::table::{AosTable, HotColdTable};

    #[test]
    fn driver_choice_names_roundtrip() {
        for choice in DriverChoice::ALL {
            assert_eq!(DriverChoice::parse(choice.name()), Some(choice));
            assert_eq!(format!("{choice}"), choice.name());
        }
        assert_eq!(DriverChoice::parse("fft"), None);
        assert_eq!(DriverChoice::default(), DriverChoice::Split);
    }

    #[test]
    fn resolution_respects_capability_and_crossover() {
        use crate::cost::ConvSupport::{Canonical, Fallback, Native};
        let d = CONV_AUTO_MIN_RELS;
        // Explicit choices: Split always sticks; Conv sticks iff the
        // model's support tier allows the halving at all.
        for n in [2, d, 20] {
            for support in [Native, Canonical] {
                assert_eq!(DriverChoice::Split.resolve(support, n), DriverChoice::Split);
                assert_eq!(DriverChoice::Conv.resolve(support, n), DriverChoice::Conv);
            }
            assert_eq!(DriverChoice::Split.resolve(Fallback, n), DriverChoice::Split);
            assert_eq!(DriverChoice::Conv.resolve(Fallback, n), DriverChoice::Split);
        }
        // Auto: conv only at/above the crossover, and only when allowed.
        assert_eq!(DriverChoice::Auto.resolve(Native, d - 1), DriverChoice::Split);
        assert_eq!(DriverChoice::Auto.resolve(Native, d), DriverChoice::Conv);
        assert_eq!(DriverChoice::Auto.resolve(Canonical, d), DriverChoice::Conv);
        assert_eq!(DriverChoice::Auto.resolve(Fallback, d + 4), DriverChoice::Split);
    }

    #[test]
    fn capability_probe_matches_kappa_dep_shape() {
        use crate::cost::ConvSupport;
        // All four shipped models now run the halved enumeration — κ0
        // natively, the κ″ carriers through canonical operand ordering.
        assert_eq!(Kappa0.conv_support(), ConvSupport::Native);
        assert_eq!(SortMerge.conv_support(), ConvSupport::Canonical);
        assert_eq!(DiskNestedLoops::default().conv_support(), ConvSupport::Canonical);
        assert_eq!(SmDnl::default().conv_support(), ConvSupport::Canonical);
        assert!(Kappa0.conv_support().allows_conv());
        assert!(SortMerge.conv_support().allows_conv());
    }

    /// The anchored walk must visit exactly `2^(k−1) − 1` candidates
    /// per row — one orientation of every unordered partition.
    #[test]
    fn conv_visits_each_partition_once() {
        let spec = JoinSpec::cartesian(&[10.0; 7]).unwrap();
        let mut counters = Counters::default();
        let _: AosTable = optimize_conv_into::<AosTable, Kappa0, false>(&spec, &Kappa0, &mut counters);
        // Σ_{k=2..n} C(n,k)·(2^(k−1) − 1) = (3^n + 1)/2 − 2^n + (n(n−1)/2 … )
        // computed directly instead:
        let n = 7u32;
        let mut expect = 0u64;
        for k in 2..=n {
            let rows: u64 = {
                // C(n, k)
                let mut acc = 1u64;
                for i in 0..k {
                    acc = acc * u64::from(n - i) / u64::from(i + 1);
                }
                acc
            };
            expect += rows * ((1u64 << (k - 1)) - 1);
        }
        assert_eq!(counters.loop_iters, expect);
        assert_eq!(Counters::conv_candidates(7), expect as f64, "closed form");
    }

    /// Driving every row through the conv cascade (scalar, unpruned or
    /// pruned per `PRUNE`), for the tests in this module.
    fn optimize_conv_into<L: TableLayout, M: CostModel, const PRUNE: bool>(
        spec: &JoinSpec,
        model: &M,
        stats: &mut Counters,
    ) -> L {
        let n = spec.n();
        let mut table = L::with_rels(n);
        for rel in 0..n {
            crate::split::init_singleton(&mut table, model, rel, spec.card(rel));
        }
        stats.pass();
        let end = 1u32 << n;
        let mut bits = 3u32;
        while bits < end {
            let s = RelSet::from_bits(bits);
            if !s.is_singleton() {
                crate::join::join_properties(&mut table, model, spec, s);
                find_best_split_conv::<L, M, Counters, PRUNE>(
                    &mut table,
                    model,
                    s,
                    f32::INFINITY,
                    stats,
                );
            }
            bits += 1;
        }
        table
    }

    /// On κ0 the conv driver's cost and cardinality columns must be
    /// **bit-identical** to the split driver's, across layouts and
    /// kernels, and the recorded `best_lhs` must denote the same
    /// unordered partition wherever the winning partition is unique.
    #[test]
    fn conv_cost_bits_match_split_on_kappa0() {
        let specs = [
            JoinSpec::new(
                &[120.0, 7.0, 3300.0, 42.0, 9.0, 260.0, 18.0],
                &[(0, 1, 0.01), (1, 2, 0.5), (2, 3, 0.002), (3, 4, 0.9), (0, 5, 0.03), (4, 6, 0.25)],
            )
            .unwrap(),
            JoinSpec::cartesian(&[10.0; 8]).unwrap(),
            JoinSpec::new(&[10.0, 20.0, 30.0, 40.0], &[(0, 1, 0.1), (2, 3, 0.2)]).unwrap(),
        ];
        for spec in &specs {
            let mut c_split = Counters::default();
            let split: AosTable = crate::join::optimize_join_into::<_, _, _, true>(
                spec,
                &Kappa0,
                f32::INFINITY,
                &mut c_split,
            );
            let mut c_conv = Counters::default();
            let conv: AosTable = optimize_conv_into::<AosTable, Kappa0, true>(spec, &Kappa0, &mut c_conv);
            let conv_hc: HotColdTable =
                optimize_conv_into::<HotColdTable, Kappa0, true>(spec, &Kappa0, &mut Counters::default());
            for bits in 1u32..(1 << spec.n()) {
                let s = RelSet::from_bits(bits);
                assert_eq!(split.cost(s).to_bits(), conv.cost(s).to_bits(), "cost({s:?})");
                assert_eq!(split.card(s).to_bits(), conv.card(s).to_bits(), "card({s:?})");
                assert_eq!(conv.cost(s).to_bits(), conv_hc.cost(s).to_bits());
                // Same unordered partition: conv's pointer is either
                // split's choice or its complement.
                if !s.is_singleton() && split.cost(s).is_finite() {
                    let sp = split.best_lhs(s);
                    let cv = conv.best_lhs(s);
                    assert!(
                        cv == sp || cv == s - sp,
                        "best_lhs({s:?}): split {sp:?} vs conv {cv:?}"
                    );
                }
            }
            // The halving is visible in the counters: conv walks
            // strictly fewer candidates on any spec with a row of
            // popcount ≥ 3.
            assert!(c_conv.loop_iters < c_split.loop_iters);
        }
    }

    /// Every vector conv kernel the host can run must reproduce the
    /// scalar conv cascade bit-for-bit — rows, `best_lhs`, and counters —
    /// on both layouts, including on a tie-heavy uniform catalog.
    #[test]
    fn conv_kernels_are_bit_identical_to_scalar_conv() {
        let specs = [
            JoinSpec::cartesian(&[10.0; 9]).unwrap(),
            JoinSpec::new(
                &[120.0, 7.0, 3300.0, 42.0, 9.0, 260.0, 18.0],
                &[(0, 1, 0.01), (1, 2, 0.5), (2, 3, 0.002), (3, 4, 0.9), (0, 5, 0.03), (4, 6, 0.25)],
            )
            .unwrap(),
            JoinSpec::cartesian(&[1e30, 1e30, 1e32, 1e28, 1e30]).unwrap(),
        ];
        for spec in &specs {
            let reference = conv_snapshot::<AosTable>(spec, ResolvedKernel::Scalar);
            for kernel in crate::kernel::host_vector_kernels() {
                let aos = conv_snapshot::<AosTable>(spec, kernel);
                let hot = conv_snapshot::<HotColdTable>(spec, kernel);
                for got in [&aos, &hot] {
                    assert_eq!(got.0, reference.0, "rows via {kernel:?}");
                    assert_eq!(got.1, reference.1, "counters via {kernel:?}");
                }
            }
        }
    }

    fn conv_snapshot<L: TableLayout>(
        spec: &JoinSpec,
        kernel: ResolvedKernel,
    ) -> (Vec<(u64, u32, u32)>, Counters) {
        let n = spec.n();
        let mut counters = Counters::default();
        let mut table = L::with_rels(n);
        for rel in 0..n {
            crate::split::init_singleton(&mut table, &Kappa0, rel, spec.card(rel));
        }
        counters.pass();
        let end = 1u32 << n;
        let mut bits = 3u32;
        while bits < end {
            let s = RelSet::from_bits(bits);
            if !s.is_singleton() {
                crate::join::join_properties(&mut table, &Kappa0, spec, s);
                find_best_split_conv_with::<L, Kappa0, Counters, true>(
                    &mut table,
                    &Kappa0,
                    s,
                    f32::INFINITY,
                    &mut counters,
                    kernel,
                );
            }
            bits += 1;
        }
        let rows = (1u32..(1u32 << n))
            .map(|b| {
                let s = RelSet::from_bits(b);
                (table.card(s).to_bits(), table.cost(s).to_bits(), table.best_lhs(s).bits())
            })
            .collect();
        (rows, counters)
    }
}

/// Seeded wave-discipline violations driven through [`RowEngine`]'s conv
/// path: the shadow checker must catch the conv anchor walk's reads and
/// final write exactly as it catches the split walk's (the split-driver
/// twins live in `check.rs`). These prove the conv row fill is inside
/// the instrumentation, not just the accessors it happens to share.
#[cfg(all(test, blitz_check))]
mod check_tests {
    use super::*;
    use crate::bitset::RelSet;
    use crate::cost::Kappa0;
    use crate::kernel::ResolvedKernel;
    use crate::stats::NoStats;
    use crate::table::{AosTable, SyncTable, TableLayout};

    /// Conv engine with the scalar cascade pinned, so the seeded rows
    /// exercise `find_best_split_conv` itself.
    fn conv_engine() -> RowEngine {
        RowEngine { kernel: ResolvedKernel::Scalar, driver: DriverChoice::Conv }
    }

    /// Conv fill of a popcount-3 row while wave 4 is in progress: the
    /// anchor walk's reads are all of strictly earlier waves and pass,
    /// but the finishing `set_cost` is a cross-wave write.
    #[test]
    #[should_panic(expected = "wave-discipline violation")]
    fn conv_cross_wave_write_is_detected() {
        let mut t = AosTable::with_rels(5);
        let shared = SyncTable::from_mut(&mut t);
        // SAFETY: single view on one thread; the seeded violation is the
        // checker's to catch, not a real race.
        let mut view = unsafe { shared.view() };
        view.begin_wave(4, None);
        conv_engine().run_row::<_, _, _, true>(
            &mut view,
            &Kappa0,
            RelSet::from_bits(0b0111), // popcount 3 in wave 4
            f32::INFINITY,
            &mut NoStats,
        );
    }

    /// Conv fill of a popcount-3 row while wave 2 is in progress: the
    /// very first access, `card(s)`, reads a future-wave row.
    #[test]
    #[should_panic(expected = "later waves")]
    fn conv_future_wave_read_is_detected() {
        let mut t = AosTable::with_rels(5);
        let shared = SyncTable::from_mut(&mut t);
        // SAFETY: single view on one thread.
        let mut view = unsafe { shared.view() };
        view.begin_wave(2, None);
        conv_engine().run_row::<_, _, _, true>(
            &mut view,
            &Kappa0,
            RelSet::from_bits(0b0111), // popcount 3 in wave 2
            f32::INFINITY,
            &mut NoStats,
        );
    }

    /// Conv fill of a row outside the worker's claimed chunk. The row's
    /// card is written first under an unbounded wave claim (so the
    /// walk's own-row `card(s)` read is legitimate), then the claim is
    /// narrowed and the conv fill's finishing write strays outside it.
    #[test]
    #[should_panic(expected = "outside this worker's chunk")]
    fn conv_out_of_chunk_write_is_detected() {
        let mut t = AosTable::with_rels(6);
        let shared = SyncTable::from_mut(&mut t);
        // SAFETY: single view on one thread.
        let mut view = unsafe { shared.view() };
        let s = RelSet::from_bits(0b11_1000); // {R3,R4,R5}: last wave-3 row (rank 19)
        view.begin_wave(3, None);
        view.set_card(s, 100.0);
        // Re-enter the same wave with a narrowed chunk claim [0, 4).
        view.begin_wave(3, Some((0, 4)));
        conv_engine().run_row::<_, _, _, true>(&mut view, &Kappa0, s, f32::INFINITY, &mut NoStats);
    }
}
