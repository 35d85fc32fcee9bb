//! Pruning by plan-cost thresholds (paper Section 6.4).
//!
//! The optimizer rejects any plan whose `f32` cost overflows; Section 6.3
//! observes that this *overflow pruning* lets `find_best_split` skip whole
//! split loops when `κ'(S)` alone already overflows. Section 6.4 turns the
//! accident into a feature:
//!
//! > simulate the effect of overflow at a plan-cost threshold far below
//! > actual overflow. … In those cases where no plan exists with cost
//! > below the threshold, optimization fails, and it is then necessary to
//! > re-optimize with a higher threshold.
//!
//! Queries with cheap plans optimize faster; queries whose best plan is
//! expensive pay for one or more extra passes — "but since these queries
//! are expected to be long-running at execution time, the extra investment
//! … is not onerous."

use crate::bitset::RelSet;
use crate::cartesian::Optimized;
use crate::cost::CostModel;
use crate::plan::{PlanArena, PlanNodeId};
use crate::spec::{JoinSpec, SpecError};
use crate::split::{fill, DriveOptions, Problem, NEVER_CANCELLED};
use crate::stats::{NoStats, Stats};
use crate::table::{AosTable, HotColdTable, LayoutChoice, TableLayout, MAX_TABLE_RELS};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

/// An escalation schedule of plan-cost thresholds.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ThresholdSchedule {
    /// Threshold for the first optimization pass.
    pub initial: f32,
    /// Multiplier applied after each failed pass (> 1).
    pub factor: f32,
    /// Maximum number of *thresholded* passes before falling back to an
    /// uncapped pass. At least 1.
    pub max_passes: u32,
}

impl ThresholdSchedule {
    /// No thresholded pass at all: the first pass is the uncapped one.
    /// What the unthresholded entry points ([`crate::optimize_join`] and
    /// friends) run through the one escalation loop.
    pub(crate) const UNCAPPED: ThresholdSchedule =
        ThresholdSchedule { initial: f32::INFINITY, factor: 2.0, max_passes: 0 };

    /// Schedule starting at `initial`, escalating by `factor` each failure.
    ///
    /// # Panics
    /// Panics if `initial` is not positive and finite, if `factor ≤ 1`, or
    /// if `max_passes == 0`.
    pub fn new(initial: f32, factor: f32, max_passes: u32) -> ThresholdSchedule {
        assert!(initial.is_finite() && initial > 0.0, "initial threshold must be positive");
        assert!(factor > 1.0, "escalation factor must exceed 1");
        assert!(max_passes >= 1, "at least one pass is required");
        ThresholdSchedule { initial, factor, max_passes }
    }

    /// A single fixed-threshold pass followed by an uncapped fallback —
    /// the configuration used for Figure 6(a).
    pub fn single(threshold: f32) -> ThresholdSchedule {
        ThresholdSchedule::new(threshold, 2.0, 1)
    }

    /// The *certified* schedule: one pass capped just above
    /// `known_cost`, the cost of a plan already in hand (the service
    /// takes greedy GOO's), then the uncapped fallback. When
    /// `known_cost` is not finite, or the cap overflows `f32`, it is one
    /// uncapped pass.
    ///
    /// Precondition: every `κ ≥ 0`, which every threshold pass already
    /// relies on (`sort_term`'s clamp keeps all four shipped models
    /// nonnegative). Then a plan's cost is at least each of its
    /// subplans' (f32 addition is monotone), and the optimum costs no
    /// more than the known plan. So every row of the optimum stays under
    /// the cap, and a row the cap prunes — its `κ'(S)` or best split
    /// reached the cap — could have been in no plan cheaper than the
    /// cap. The one pass succeeds and returns the uncapped cost, card
    /// and plan bits.
    ///
    /// The cap is `known_cost × (1 + 10⁻⁵)`, rounded up to the next
    /// f32, rather than `known_cost` itself or the known plan re-costed
    /// through the DP's row arithmetic. [`crate::Plan::cost`] multiplies
    /// `lc·rc·π_span` and adds `lcost + rcost + κ`; the DP takes its
    /// cards from the fan recurrence and sums in another order. So the
    /// two costs of one plan can differ in their low bits, by at most
    /// about `2n` roundings of `2⁻²⁴` (≈ 3.4·10⁻⁶ at `n = 28`), well
    /// inside the margin. Were the margin ever too small, the pass
    /// would fail and the fallback pass would still return the right
    /// bits; only the speed would be lost.
    pub fn certified(known_cost: f32) -> ThresholdSchedule {
        let cap = (known_cost * (1.0 + CERTIFIED_MARGIN)).next_up();
        if cap.is_finite() && cap > 0.0 {
            ThresholdSchedule { initial: cap, factor: 2.0, max_passes: 1 }
        } else {
            ThresholdSchedule::UNCAPPED
        }
    }
}

/// Relative slack [`ThresholdSchedule::certified`] leaves above the
/// known plan's cost.
const CERTIFIED_MARGIN: f32 = 1e-5;

impl Default for ThresholdSchedule {
    /// The paper's Figure 6 uses thresholds like `10^9` (κ0) and
    /// `10^5`/`10^14` (κ_dnl); a default of `10^9` escalating by `10^5`
    /// covers both regimes within a few passes.
    fn default() -> ThresholdSchedule {
        ThresholdSchedule::new(1e9, 1e5, 6)
    }
}

/// Result of a (possibly multi-pass) thresholded optimization.
#[derive(Clone, Debug)]
pub struct ThresholdOutcome {
    /// The optimal plan found by the successful pass.
    pub optimized: Optimized,
    /// Total optimization passes executed (1 ⇒ first threshold sufficed).
    pub passes: u32,
    /// The cost cap in force during the successful pass (`+∞` if the
    /// uncapped fallback ran).
    pub final_cap: f32,
}

/// A thresholded optimization outcome whose plan lives in a caller's
/// [`PlanArena`] — see [`optimize_join_threshold_arena_with`].
#[derive(Copy, Clone, Debug)]
pub struct ArenaThresholdOutcome {
    /// Root of the extracted plan in the arena passed to the call.
    pub root: PlanNodeId,
    /// Cost of the plan (`+∞` when even the uncapped pass overflowed;
    /// the root is then a degenerate input-order left-deep vine).
    pub cost: f32,
    /// Result cardinality of the full join.
    pub card: f64,
    /// Total optimization passes executed.
    pub passes: u32,
    /// The cost cap in force during the successful pass.
    pub final_cap: f32,
}

/// Thresholded join optimization over a **caller-provided** table, with
/// plan extraction into a **caller-provided** [`PlanArena`]: every pass
/// (and any escalation re-pass) fills `table` in place, so a multi-pass
/// optimization allocates nothing, and a caller holding a table pool —
/// e.g. the service — can recycle `O(2^n)` allocations across requests.
/// Together the recycled table and arena make the whole
/// optimize-and-extract path allocation-free once both are warm (pinned
/// by the `no_alloc` integration suite). The arena is not cleared
/// first — recycle it with [`PlanArena::clear`] between requests.
///
/// The table does not need to be cleared between uses: the fill
/// re-initializes every row it reads, so results are bit-identical to a
/// run on a freshly allocated table (pinned by the dirty-table test
/// below). Statistics accumulate across passes (the `passes` counter
/// distinguishes them), and `table` holds the last pass's rows.
///
/// The plan found by a *successful* thresholded pass is the true optimum:
/// a pass only succeeds when the best plan's cost is below the cap, and
/// every plan rejected by the cap costs at least the cap, so no rejected
/// plan could have beaten it.
///
/// The never-cancelled form of [`optimize_join_threshold_arena_cancellable`].
///
/// # Panics
/// Panics if `table.rels() != spec.n()`.
pub fn optimize_join_threshold_arena_with<L, M, St, const PRUNE: bool>(
    table: &mut L,
    arena: &mut PlanArena,
    spec: &JoinSpec,
    model: &M,
    schedule: ThresholdSchedule,
    options: DriveOptions,
    stats: &mut St,
) -> ArenaThresholdOutcome
where
    L: TableLayout,
    M: CostModel + Sync,
    St: Stats + Default + Send,
{
    escalate::<L, M, St, _, PRUNE>(
        table,
        arena,
        spec,
        model,
        schedule,
        options,
        &NEVER_CANCELLED,
        stats,
    )
    .expect("a never-set cancel flag cannot stop the drive")
}

/// [`optimize_join_threshold_arena_with`] that gives up when `cancel`
/// is set — by another thread, at any time. The flag is checked before
/// every threshold pass, and inside each pass by the drivers: at every
/// wave of the rank-wave parallel driver, and every 4096 rows of the
/// serial one. A cancelled run returns `None`; the arena is untouched
/// and the table holds stale rows, which the next run on it overwrites
/// before reading, so the table can go straight back to a pool.
///
/// With a flag that is never set the result, the table and `stats` are
/// bit-identical to [`optimize_join_threshold_arena_with`]'s.
///
/// # Panics
/// Panics if `table.rels() != spec.n()`.
#[allow(clippy::too_many_arguments)]
pub fn optimize_join_threshold_arena_cancellable<L, M, St, const PRUNE: bool>(
    table: &mut L,
    arena: &mut PlanArena,
    spec: &JoinSpec,
    model: &M,
    schedule: ThresholdSchedule,
    options: DriveOptions,
    cancel: &AtomicBool,
    stats: &mut St,
) -> Option<ArenaThresholdOutcome>
where
    L: TableLayout,
    M: CostModel + Sync,
    St: Stats + Default + Send,
{
    escalate::<L, M, St, _, PRUNE>(table, arena, spec, model, schedule, options, cancel, stats)
}

/// The one escalation loop (paper Section 6.4) behind every exact entry
/// point that returns a plan: fill `table` under the schedule's caps,
/// escalating after each failed pass and finishing with an uncapped
/// pass once the thresholded ones are spent, then extract the plan into
/// `arena`. `None` when `cancel` stopped a pass.
///
/// When even the uncapped pass overflows `f32` — every plan costs the
/// same infinity, so no row recorded a split and extraction would panic
/// — the plan is the degenerate input-order left-deep vine at cost `+∞`,
/// so callers can still execute *something*. This is the only place
/// that fallback is made.
#[allow(clippy::too_many_arguments)]
fn escalate<L, M, St, P, const PRUNE: bool>(
    table: &mut L,
    arena: &mut PlanArena,
    problem: &P,
    model: &M,
    schedule: ThresholdSchedule,
    options: DriveOptions,
    cancel: &AtomicBool,
    stats: &mut St,
) -> Option<ArenaThresholdOutcome>
where
    L: TableLayout,
    M: CostModel + Sync,
    St: Stats + Default + Send,
    P: Problem,
{
    let n = problem.rels();
    let full = RelSet::full(n);
    let mut cap = schedule.initial;
    let mut passes = 0u32;
    loop {
        passes += 1;
        let capped = passes <= schedule.max_passes;
        let eff_cap = if capped { cap } else { f32::INFINITY };
        if cancel.load(Relaxed)
            || !fill::<L, M, St, P, PRUNE>(table, problem, model, eff_cap, options, cancel, stats)
        {
            return None;
        }
        let cost = table.cost(full);
        if cost.is_finite() || !capped {
            let (root, cost) = if cost.is_finite() {
                (arena.extract(table, full), cost)
            } else {
                (arena.left_deep_vine(n), f32::INFINITY)
            };
            return Some(ArenaThresholdOutcome {
                root,
                cost,
                card: table.card(full),
                passes,
                final_cap: eff_cap,
            });
        }
        cap *= schedule.factor;
    }
}

/// Optimize `problem` through `schedule` on a freshly allocated table of
/// the layout [`DriveOptions::layout`] names, returning an owned plan —
/// the body of every non-generic entry point.
pub(crate) fn optimize_fresh<P, M>(
    problem: &P,
    model: &M,
    schedule: ThresholdSchedule,
    options: DriveOptions,
) -> ThresholdOutcome
where
    P: Problem,
    M: CostModel + Sync,
{
    fn run<L: TableLayout, P: Problem, M: CostModel + Sync>(
        problem: &P,
        model: &M,
        schedule: ThresholdSchedule,
        options: DriveOptions,
    ) -> ThresholdOutcome {
        let n = problem.rels();
        let mut table = L::with_rels(n);
        let mut arena = PlanArena::with_node_capacity(2 * n - 1);
        let out = escalate::<L, M, NoStats, P, true>(
            &mut table,
            &mut arena,
            problem,
            model,
            schedule,
            options,
            &NEVER_CANCELLED,
            &mut NoStats,
        )
        .expect("a never-set cancel flag cannot stop the drive");
        let optimized = Optimized { plan: arena.to_plan(out.root), cost: out.cost, card: out.card };
        ThresholdOutcome { optimized, passes: out.passes, final_cap: out.final_cap }
    }
    match options.layout {
        LayoutChoice::Aos => run::<AosTable, P, M>(problem, model, schedule, options),
        LayoutChoice::HotCold => run::<HotColdTable, P, M>(problem, model, schedule, options),
    }
}

/// Thresholded join optimization with the standard defaults (pruning on,
/// no statistics, default [`DriveOptions`] execution policy).
///
/// # Errors
/// Returns [`SpecError::TooManyRels`] when the DP table would be too large.
pub fn optimize_join_threshold<M: CostModel + Sync>(
    spec: &JoinSpec,
    model: &M,
    schedule: ThresholdSchedule,
) -> Result<ThresholdOutcome, SpecError> {
    optimize_join_threshold_with(spec, model, schedule, DriveOptions::default())
}

/// [`optimize_join_threshold`] with an explicit execution policy
/// (worker-thread count for the rank-wave parallel driver; `1` = serial)
/// and table layout ([`DriveOptions::layout`] picks the
/// monomorphization). Every pass runs under the same policy; pass
/// outcomes are bit-identical across policies. Callers that need the
/// table or the §3.3 counters use [`optimize_join_threshold_arena_with`]
/// on a table they allocate.
///
/// # Errors
/// Returns [`SpecError::TooManyRels`] when the DP table would be too large.
pub fn optimize_join_threshold_with<M: CostModel + Sync>(
    spec: &JoinSpec,
    model: &M,
    schedule: ThresholdSchedule,
    options: DriveOptions,
) -> Result<ThresholdOutcome, SpecError> {
    if spec.n() > MAX_TABLE_RELS {
        return Err(SpecError::TooManyRels(spec.n()));
    }
    Ok(optimize_fresh(spec, model, schedule, options))
}

/// Convenience: a successful thresholded pass skipped the split loop for
/// this subset iff its cost is `+∞` in the returned table.
pub fn rejected_subsets<L: TableLayout>(table: &L, n: usize) -> usize {
    let mut count = 0;
    for bits in 1u32..(1u32 << n) {
        let s = RelSet::from_bits(bits);
        if !s.is_singleton() && table.cost(s).is_infinite() {
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{DiskNestedLoops, Kappa0};
    use crate::join::{optimize_join, optimize_join_into};
    use crate::stats::Counters;

    /// A thresholded κ0 run on a fresh table of layout `L`, returning
    /// the last pass's table with the outcome and its plan.
    fn run<L: TableLayout>(
        spec: &JoinSpec,
        schedule: ThresholdSchedule,
        stats: &mut Counters,
    ) -> (L, ArenaThresholdOutcome, crate::plan::Plan) {
        let mut table = L::with_rels(spec.n());
        let mut arena = PlanArena::new();
        let out = optimize_join_threshold_arena_with::<L, _, _, true>(
            &mut table,
            &mut arena,
            spec,
            &Kappa0,
            schedule,
            DriveOptions::serial(),
            stats,
        );
        let plan = arena.to_plan(out.root);
        (table, out, plan)
    }

    fn chain_spec(n: usize, card: f64, sel: f64) -> JoinSpec {
        let cards = vec![card; n];
        let edges: Vec<(usize, usize, f64)> =
            (0..n - 1).map(|i| (i, i + 1, sel)).collect();
        JoinSpec::new(&cards, &edges).unwrap()
    }

    #[test]
    fn threshold_pass_finds_true_optimum_when_it_succeeds() {
        let spec = chain_spec(8, 100.0, 0.01);
        let unbounded = optimize_join(&spec, &Kappa0).unwrap();
        // Generous threshold: one pass, same optimum.
        let out =
            optimize_join_threshold(&spec, &Kappa0, ThresholdSchedule::new(1e9, 10.0, 3)).unwrap();
        assert_eq!(out.passes, 1);
        assert_eq!(out.optimized.cost, unbounded.cost);
        assert_eq!(out.optimized.plan.canonical(), unbounded.plan.canonical());
    }

    #[test]
    fn tight_threshold_forces_reoptimization() {
        // Best plan for this clique-ish query costs far more than 1.0, so
        // the first pass must fail and escalate.
        let spec = JoinSpec::new(
            &[100.0, 100.0, 100.0, 100.0],
            &[(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (0, 3, 0.5)],
        )
        .unwrap();
        let unbounded = optimize_join(&spec, &Kappa0).unwrap();
        let out =
            optimize_join_threshold(&spec, &Kappa0, ThresholdSchedule::new(1.0, 100.0, 10)).unwrap();
        assert!(out.passes > 1, "expected multiple passes, got {}", out.passes);
        assert_eq!(out.optimized.cost, unbounded.cost);
    }

    #[test]
    fn exhausted_schedule_falls_back_to_uncapped() {
        let spec = chain_spec(5, 1000.0, 0.5);
        let unbounded = optimize_join(&spec, &Kappa0).unwrap();
        // Impossible thresholds with only 1 allowed pass → pass 2 uncapped.
        let out =
            optimize_join_threshold(&spec, &Kappa0, ThresholdSchedule::new(1e-3, 1.5, 1)).unwrap();
        assert_eq!(out.passes, 2);
        assert!(out.final_cap.is_infinite());
        assert_eq!(out.optimized.cost, unbounded.cost);
    }

    #[test]
    fn thresholds_skip_split_loops_on_chains() {
        // Section 6.4: with chain graphs and a threshold in place, the
        // split loop runs for only a tiny fraction of the 2^n subsets.
        let spec = chain_spec(12, 1000.0, 1e-3);
        let unbounded = optimize_join(&spec, &Kappa0).unwrap();
        assert!(unbounded.cost < 1e9);

        let mut capped = Counters::default();
        let (_, out, _) = run::<AosTable>(&spec, ThresholdSchedule::single(1e9), &mut capped);
        assert_eq!(out.passes, 1);
        assert_eq!(out.cost, unbounded.cost);
        assert!(capped.loops_skipped > 0, "threshold should skip some split loops");

        let mut uncapped = Counters::default();
        let _: AosTable = optimize_join_into::<_, _, _, true>(
            &spec,
            &Kappa0,
            f32::INFINITY,
            DriveOptions::serial(),
            &mut uncapped,
        );
        assert!(
            capped.loop_iters < uncapped.loop_iters,
            "thresholded pass should enumerate fewer splits ({} vs {})",
            capped.loop_iters,
            uncapped.loop_iters
        );
    }

    #[test]
    fn certified_caps_one_pass_just_above_the_known_cost() {
        let s = ThresholdSchedule::certified(1000.0);
        assert_eq!(s.max_passes, 1);
        assert!(s.initial > 1000.0 * (1.0 + CERTIFIED_MARGIN), "{}", s.initial);
        assert!(s.initial < 1000.0 * (1.0 + 2.0 * CERTIFIED_MARGIN), "{}", s.initial);
        // A plan that costs nothing still leaves a positive cap.
        assert!(ThresholdSchedule::certified(0.0).initial > 0.0);
        // No finite cap above the known cost: one uncapped pass.
        for known in [f32::INFINITY, f32::NAN, f32::MAX] {
            assert_eq!(ThresholdSchedule::certified(known), ThresholdSchedule::UNCAPPED);
        }
    }

    #[test]
    fn certified_pass_returns_the_uncapped_bits() {
        let spec = chain_spec(10, 100.0, 0.01);
        let uncapped = optimize_join(&spec, &Kappa0).unwrap();
        let mut arena = PlanArena::new();
        let vine = arena.left_deep_vine(spec.n());
        let vine = arena.to_plan(vine);
        // Certified by the optimum itself (the cap one margin above it),
        // by a worse plan, and by a cost below the optimum, which is no
        // certificate: its pass fails and the uncapped fallback runs.
        let (_, optimum) = uncapped.plan.cost(&spec, &Kappa0);
        let (_, worse) = vine.cost(&spec, &Kappa0);
        for (known, passes) in [(optimum, 1), (worse, 1), (optimum / 2.0, 2)] {
            let out =
                optimize_join_threshold(&spec, &Kappa0, ThresholdSchedule::certified(known))
                    .unwrap();
            assert_eq!(out.passes, passes, "known cost {known}");
            assert_eq!(out.final_cap.is_finite(), passes == 1);
            assert_eq!(out.optimized.cost.to_bits(), uncapped.cost.to_bits());
            assert_eq!(out.optimized.card.to_bits(), uncapped.card.to_bits());
            assert_eq!(out.optimized.plan.canonical(), uncapped.plan.canonical());
        }
    }

    #[test]
    fn schedule_validation() {
        assert!(std::panic::catch_unwind(|| ThresholdSchedule::new(0.0, 2.0, 1)).is_err());
        assert!(std::panic::catch_unwind(|| ThresholdSchedule::new(1.0, 1.0, 1)).is_err());
        assert!(std::panic::catch_unwind(|| ThresholdSchedule::new(1.0, 2.0, 0)).is_err());
    }

    #[test]
    fn rejected_subsets_counts_infinite_rows() {
        let spec = chain_spec(8, 1000.0, 1e-3);
        let (table, _, _) =
            run::<AosTable>(&spec, ThresholdSchedule::single(1e6), &mut Counters::default());
        let rejected = rejected_subsets(&table, spec.n());
        assert!(rejected > 0);
    }

    #[test]
    fn reused_dirty_table_is_bit_identical_to_fresh() {
        let dirty_spec = chain_spec(8, 5000.0, 0.9);
        let spec = chain_spec(8, 100.0, 0.01);
        let schedule = ThresholdSchedule::new(1.0, 100.0, 10);

        // Dirty the table with a different query's DP rows, then reuse it
        // through a schedule that forces escalation re-passes.
        let (mut table, _, _) =
            run::<AosTable>(&dirty_spec, ThresholdSchedule::default(), &mut Counters::default());
        let mut arena = PlanArena::new();
        let reused = optimize_join_threshold_arena_with::<AosTable, _, _, true>(
            &mut table,
            &mut arena,
            &spec,
            &Kappa0,
            schedule,
            DriveOptions::serial(),
            &mut NoStats,
        );

        let (fresh_table, fresh, fresh_plan) =
            run::<AosTable>(&spec, schedule, &mut Counters::default());

        assert!(reused.passes > 1, "schedule should force escalation");
        assert_eq!(reused.passes, fresh.passes);
        assert_eq!(reused.final_cap.to_bits(), fresh.final_cap.to_bits());
        assert_eq!(reused.cost.to_bits(), fresh.cost.to_bits());
        assert_eq!(arena.to_plan(reused.root).canonical(), fresh_plan.canonical());
        for bits in 1u32..(1u32 << spec.n()) {
            let s = RelSet::from_bits(bits);
            assert_eq!(table.card(s).to_bits(), fresh_table.card(s).to_bits(), "card {bits:#b}");
            assert_eq!(table.cost(s).to_bits(), fresh_table.cost(s).to_bits(), "cost {bits:#b}");
            assert_eq!(table.best_lhs(s), fresh_table.best_lhs(s), "best_lhs {bits:#b}");
        }
    }

    #[test]
    fn reusing_rejects_mismatched_table() {
        let spec = chain_spec(5, 100.0, 0.1);
        let mut table = AosTable::with_rels(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            optimize_join_threshold_arena_with::<AosTable, _, _, true>(
                &mut table,
                &mut PlanArena::new(),
                &spec,
                &Kappa0,
                ThresholdSchedule::default(),
                DriveOptions::serial(),
                &mut NoStats,
            )
        }));
        assert!(result.is_err(), "size-mismatched table must be rejected");
    }

    #[test]
    fn works_with_dnl_model() {
        let spec = chain_spec(10, 100.0, 0.01);
        let unbounded = optimize_join(&spec, &DiskNestedLoops::default()).unwrap();
        let out = optimize_join_threshold(
            &spec,
            &DiskNestedLoops::default(),
            ThresholdSchedule::new(1e5, 1e9, 3),
        )
        .unwrap();
        assert_eq!(out.optimized.cost, unbounded.cost);
    }
}
