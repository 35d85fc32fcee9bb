//! The layered-convolution driver — `DriverChoice::Conv`.
//!
//! The split-enumeration DP computes, for every non-singleton set `S`,
//!
//! ```text
//! cost[S] = κ'(S) + min over {L, R} partitioning S of
//!               cost[L] + cost[R] + κ''(S, L, R)
//! ```
//!
//! Viewed one popcount layer at a time (as the rank-wave driver already
//! schedules every hot/cold fill), the inner `min` over wave `k` is a (min,+)
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
//! The halving changes only *which* candidates a row visits, not how
//! they are judged: conv is a second *walk* (`split::walk`) of the same
//! two row cascades — the scalar `find_best_split` and the batched
//! `find_best_split_batched` — selected per row by `RowEngine::run_row`.
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
//!   but every κ'' call site — both cascades, on both walks — presents
//!   the operands in a *canonical order*: the operand containing `min S`
//!   is always `L` (the anchored walk satisfies this by construction,
//!   since its left operand always contains the anchor `{min S}`; the
//!   split walk swaps when its `lhs` lacks the lowest relation). Both orientations then
//!   execute the same float expression on identically ordered operands
//!   and round to the same bits, so the halving is exact by
//!   construction. The canonical-split reference — split enumeration
//!   with canonically ordered κ'' operands — is the common ground truth
//!   both drivers are bit-equal to; for the shipped models it is also
//!   bit-equal to the historical un-normalized split output, because
//!   their κ'' happen to be bitwise symmetric (IEEE `+`/`*`/`min`
//!   commute exactly — pinned by a cost-model unit test).
//! * **Fallback** (the default for models that declare nothing):
//!   `Conv` transparently degrades to the split driver via
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
//! [`DriverChoice`] is the knob on [`crate::DriveOptions`]: `Split` is
//! the reference enumeration (the default) and `Conv` uses this driver
//! wherever the model supports it, falling back to `Split` otherwise.
//! The service runs `Conv` at every size: below `n = 6`, where the
//! split loop's smaller per-row setup could win,
//! neither driver is consistently faster (a few hundred nanoseconds
//! either way per optimization), and from `n = 6` conv is faster (see
//! EXPERIMENTS.md). Resolution happens once per drive in
//! [`RowEngine::resolve`]; the row path dispatches on a `Copy` token.
//!
//! [`RowEngine`] also owns the per-wave scalar-vs-vector kernel
//! selection: rows of popcount `k` deposit `2^k − 2` (split) or
//! `2^(k−1) − 1` (conv) candidates, and a wave whose rows cannot fill
//! even one [`LANES`](crate::kernel::LANES)-wide batch pays the
//! batch-fill bookkeeping without amortizing it, so waves below
//! `SCALAR_WAVE_FLOOR` (4) run the scalar cascade regardless of the
//! requested kernel. Kernels are
//! bit-identical (tables, plans, counters — see [`crate::kernel`]), so
//! the floor is pure scheduling.

use crate::bitset::RelSet;
use crate::cost::{ConvSupport, CostModel};
use crate::kernel::{find_best_split_batched, ResolvedKernel};
use crate::split::{find_best_split, DriveOptions};
use crate::stats::Stats;
use crate::table::TableLayout;

/// Popcount below which [`RowEngine::run_row`] forces the scalar
/// cascade: rows of popcount `k < 4` deposit at most `2^3 − 2 = 6`
/// split candidates (conv: at most 7) — less than one [`LANES`](crate::kernel::LANES)-wide
/// batch — so batching is pure fill overhead there.
const SCALAR_WAVE_FLOOR: usize = 4;

/// Runtime name for the DP driver used to fill each table row,
/// selectable per [`crate::DriveOptions`]. On models where the
/// convolution reduction is exact ([`CostModel::CONV_SUPPORT`] of
/// `Native` or `Canonical`) the drivers are cost-bit-identical;
/// elsewhere `Conv` silently runs `Split`.
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
}

impl DriverChoice {
    /// All selectable drivers, for ablation sweeps.
    pub const ALL: [DriverChoice; 2] = [DriverChoice::Split, DriverChoice::Conv];

    /// Stable lower-case name (`split` / `conv`).
    pub fn name(self) -> &'static str {
        match self {
            DriverChoice::Split => "split",
            DriverChoice::Conv => "conv",
        }
    }

    /// Resolve the choice against a model's capability, once per drive:
    /// `Conv` on a [`ConvSupport::Fallback`] model degrades to `Split`
    /// (the documented transparent fallback), so requesting `Conv` is
    /// always safe.
    pub fn resolve(self, support: ConvSupport) -> DriverChoice {
        if support.allows_conv() {
            self
        } else {
            DriverChoice::Split
        }
    }
}

impl std::fmt::Display for DriverChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The per-row execution policy, resolved once per drive: which walk
/// fills a row and with which kernel (the scalar cascade stands in
/// below [`SCALAR_WAVE_FLOOR`]). A `Copy` token handed to every worker
/// so neither feature detection nor capability probing sits on the row
/// path.
#[derive(Copy, Clone, Debug)]
pub(crate) struct RowEngine {
    /// Resolved split kernel for rows at or above the floor.
    pub(crate) kernel: ResolvedKernel,
    /// Resolved driver: `Conv` only on a model that supports it.
    pub(crate) driver: DriverChoice,
}

impl RowEngine {
    /// Resolve a full [`DriveOptions`] policy against the model.
    pub(crate) fn resolve<M: CostModel>(options: DriveOptions, _model: &M) -> RowEngine {
        RowEngine {
            kernel: options.kernel.resolve(),
            driver: options.driver.resolve(M::CONV_SUPPORT),
        }
    }

    /// Fill the row for `s` with this policy: the conv or split
    /// [`walk`](crate::split::walk), through the scalar or the batched
    /// cascade. Same contract as [`crate::split::find_best_split`]:
    /// `card`/`aux` already filled, `cost` and `best_lhs` written here.
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
        // the wave floor identically in the wave driver and in the
        // integer-order driver of the serial references. The unpruned
        // ablation evaluates κ'' on every candidate — there is no
        // cascade to shortcut, so it always runs the scalar reference.
        let kernel = if !PRUNE || s.len() < SCALAR_WAVE_FLOOR {
            ResolvedKernel::Scalar
        } else {
            self.kernel
        };
        let conv = self.driver == DriverChoice::Conv;
        match kernel {
            ResolvedKernel::Scalar if conv => {
                find_best_split::<L, M, St, PRUNE, true>(table, model, s, cap, stats)
            }
            ResolvedKernel::Scalar => {
                find_best_split::<L, M, St, PRUNE, false>(table, model, s, cap, stats)
            }
            k if conv => {
                find_best_split_batched::<L, M, St, PRUNE, true>(table, model, s, cap, stats, k)
            }
            k => find_best_split_batched::<L, M, St, PRUNE, false>(table, model, s, cap, stats, k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{DiskNestedLoops, Kappa0, SmDnl, SortMerge};
    use crate::spec::JoinSpec;
    use crate::split::tests::fill_with_engine;
    use crate::stats::Counters;
    use crate::table::{AosTable, HotColdTable};

    /// A fresh κ0 table for `spec`, filled on one worker by the scalar
    /// cascade over `driver`'s walk — in waves on hot/cold, in integer
    /// order on AoS.
    fn scalar_fill<L: TableLayout, const PRUNE: bool>(
        spec: &JoinSpec,
        driver: DriverChoice,
        counters: &mut Counters,
    ) -> L {
        let mut table = L::with_rels(spec.n());
        let engine = RowEngine { kernel: ResolvedKernel::Scalar, driver };
        fill_with_engine::<L, _, _, PRUNE>(&mut table, spec, &Kappa0, engine, counters);
        table
    }

    #[test]
    fn driver_choice_names_roundtrip() {
        for choice in DriverChoice::ALL {
            assert_eq!(format!("{choice}"), choice.name());
        }
        assert_eq!(DriverChoice::default(), DriverChoice::Split);
    }

    #[test]
    fn resolution_respects_capability() {
        use crate::cost::ConvSupport::{Canonical, Fallback, Native};
        // Split always sticks; Conv sticks iff the model's support tier
        // allows the halving at all.
        for support in [Native, Canonical] {
            assert_eq!(DriverChoice::Split.resolve(support), DriverChoice::Split);
            assert_eq!(DriverChoice::Conv.resolve(support), DriverChoice::Conv);
        }
        assert_eq!(DriverChoice::Split.resolve(Fallback), DriverChoice::Split);
        assert_eq!(DriverChoice::Conv.resolve(Fallback), DriverChoice::Split);
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
        let _: AosTable = scalar_fill::<_, false>(&spec, DriverChoice::Conv, &mut counters);
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
            let split: AosTable = scalar_fill::<_, true>(spec, DriverChoice::Split, &mut c_split);
            let mut c_conv = Counters::default();
            let conv: AosTable = scalar_fill::<_, true>(spec, DriverChoice::Conv, &mut c_conv);
            let conv_hc: HotColdTable =
                scalar_fill::<_, true>(spec, DriverChoice::Conv, &mut Counters::default());
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
    use crate::table::{HotColdTable, SyncTable, TableLayout};

    /// Conv engine with the scalar cascade pinned, so the seeded rows
    /// exercise the conv walk of `find_best_split` itself.
    fn conv_engine() -> RowEngine {
        RowEngine { kernel: ResolvedKernel::Scalar, driver: DriverChoice::Conv }
    }

    /// Conv fill of a popcount-3 row while wave 4 is in progress: the
    /// anchor walk's reads are all of strictly earlier waves and pass,
    /// but the finishing `set_cost` is a cross-wave write.
    #[test]
    #[should_panic(expected = "wave-discipline violation")]
    fn conv_cross_wave_write_is_detected() {
        let mut t = HotColdTable::with_rels(5);
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
        let mut t = HotColdTable::with_rels(5);
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
        let mut t = HotColdTable::with_rels(6);
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
