//! Join-order optimization (paper Section 5).
//!
//! > Join-order optimization is essentially the same as Cartesian product
//! > optimization, except that intermediate-result cardinalities are
//! > computed differently.
//!
//! The enumeration machinery (`find_best_split`, the integer-order driver)
//! is shared verbatim with [`crate::cartesian`]; only `compute_properties`
//! changes, implementing the two recurrences of Sections 5.2–5.3:
//!
//! * **cardinality**: `card(S) = card(U)·card(V)·Π_fan(S)` with
//!   `U = {min S}`, `V = S − U`  (equation (11));
//! * **fan product**: `Π_fan(S) = Π_fan(U ∪ W)·Π_fan(U ∪ Z)` where
//!   `{W, Z}` is any split of `V`; we use `W = {min V}`  (equation (10)).
//!
//! Doubleton sets seed the fan column with the selectivity of the
//! connecting predicate, or 1 when there is none (Section 5.4). The result
//! is that folding arbitrary join-graph selectivities into every one of
//! the `2^n` cardinalities costs exactly three floating multiplies per
//! subset, regardless of graph topology — and `find_best_split` needs no
//! changes at all, so plans with Cartesian products are chosen whenever
//! they are optimal.

use crate::bitset::RelSet;
use crate::cartesian::Optimized;
use crate::conv::RowEngine;
use crate::cost::CostModel;
use crate::kernel::ResolvedKernel;
use crate::plan::Plan;
use crate::spec::{JoinSpec, SpecError};
use crate::split::{drive, drive_parallel, init_singleton, DriveOptions, NEVER_CANCELLED};
use crate::stats::{NoStats, Stats};
use crate::table::{
    AosTable, HotColdTable, LayoutChoice, SyncTableView, TableLayout, WaveTableLayout,
    MAX_TABLE_RELS,
};
use std::sync::atomic::AtomicBool;

/// `compute_properties` for joins: fan recurrence + cardinality recurrence
/// (paper Section 5.4). Exactly three floating-point multiplications.
#[inline]
pub(crate) fn join_properties<L: TableLayout, M: CostModel>(
    table: &mut L,
    model: &M,
    spec: &JoinSpec,
    s: RelSet,
) {
    // U = {min S} = δ_S(1) = S & −S (Section 5.4).
    let u = s.lowest_singleton();
    let v = s - u;
    let pi_fan = if v.is_singleton() {
        // Doubleton: seed from the predicate connecting the two relations
        // (or 1 if there is none).
        spec.selectivity(u.min_rel().unwrap(), v.min_rel().unwrap())
    } else {
        // Π_fan(S) = Π_fan(U∪W) · Π_fan(U∪Z); both arguments are smaller
        // sets whose rows are already filled (integer processing order).
        let w = v.lowest_singleton();
        let z = v - w;
        table.pi_fan(u | w) * table.pi_fan(u | z)
    };
    table.set_pi_fan(s, pi_fan);
    let card = table.card(u) * table.card(v) * pi_fan;
    table.set_card(s, card);
    if M::HAS_AUX {
        table.set_aux(s, model.aux(card));
    }
}

/// Run the join optimizer with full control of table layout, statistics,
/// cost cap and pruning, returning the filled table. Most callers want
/// [`optimize_join`].
///
/// # Panics
/// Panics if `spec.n() > MAX_TABLE_RELS`.
pub fn optimize_join_into<L, M, St, const PRUNE: bool>(
    spec: &JoinSpec,
    model: &M,
    cap: f32,
    stats: &mut St,
) -> L
where
    L: TableLayout,
    M: CostModel,
    St: Stats,
{
    optimize_join_into_kernel::<L, M, St, PRUNE>(spec, model, cap, ResolvedKernel::Scalar, stats)
}

/// Serial join optimization with an explicit, already-resolved split
/// kernel — the body of [`optimize_join_into`] (scalar), and how the
/// kernel unit tests force each vector kernel the host can run.
pub(crate) fn optimize_join_into_kernel<L, M, St, const PRUNE: bool>(
    spec: &JoinSpec,
    model: &M,
    cap: f32,
    kernel: ResolvedKernel,
    stats: &mut St,
) -> L
where
    L: TableLayout,
    M: CostModel,
    St: Stats,
{
    let n = spec.n();
    assert!(n <= MAX_TABLE_RELS, "unsupported relation count {n}");
    let mut table = L::with_rels(n);
    for rel in 0..n {
        init_singleton(&mut table, model, rel, spec.card(rel));
    }
    drive::<L, M, St, _, PRUNE>(
        &mut table,
        model,
        n,
        cap,
        RowEngine::with_kernel(kernel),
        &NEVER_CANCELLED,
        stats,
        |t, m, s| join_properties(t, m, spec, s),
    );
    table
}

/// Fill an **existing** table for `spec` in place — the allocation-free
/// core of both [`optimize_join_into_with`] and the table-reusing
/// service path ([`crate::threshold::optimize_join_threshold_reusing_with`]).
///
/// The table is *not* cleared first, and doesn't need to be: singleton
/// rows are re-initialized here, and every non-singleton row is fully
/// written (`compute_properties` + the split finish) before any superset
/// reads it — the same subset-before-superset dependency order that
/// makes the wave driver sound. Row 0 (the empty set) is never read.
/// Stale `f32`/`f64` bit patterns from a previous optimization are
/// ordinary values, so a recycled table produces bit-identical results
/// to a freshly allocated one (pinned by a dirty-table regression test
/// in [`crate::threshold`]). The same argument covers a table a
/// cancelled fill left half-written.
///
/// Returns `false` when `cancel` stopped the fill before every row was
/// written (see [`crate::split`]'s drivers for where they poll it).
///
/// # Panics
/// Panics if `table.rels() != spec.n()`.
pub(crate) fn fill_join_table_with<L, M, St, const PRUNE: bool>(
    table: &mut L,
    spec: &JoinSpec,
    model: &M,
    cap: f32,
    options: DriveOptions,
    cancel: &AtomicBool,
    stats: &mut St,
) -> bool
where
    L: WaveTableLayout + Send,
    M: CostModel + Sync,
    St: Stats + Default + Send,
{
    let n = spec.n();
    assert_eq!(table.rels(), n, "table allocated for a different relation count");
    for rel in 0..n {
        init_singleton(table, model, rel, spec.card(rel));
    }
    if options.effective_parallelism() < 2 {
        drive::<L, M, St, _, PRUNE>(
            table,
            model,
            n,
            cap,
            RowEngine::resolve(options, model, n),
            cancel,
            stats,
            |t, m, s| join_properties(t, m, spec, s),
        )
    } else {
        drive_parallel::<L, M, St, _, PRUNE>(
            table,
            model,
            n,
            cap,
            options,
            cancel,
            stats,
            |t: &mut SyncTableView<L>, m, s| join_properties(t, m, spec, s),
        )
    }
}

/// [`optimize_join_into`] with an explicit execution policy: when
/// `options` resolves to two or more workers, the rank-wave parallel
/// driver fills the table; otherwise this is exactly the serial path.
/// Both produce bit-identical tables (see [`crate::split`]).
///
/// # Panics
/// Panics if `spec.n() > MAX_TABLE_RELS`.
pub fn optimize_join_into_with<L, M, St, const PRUNE: bool>(
    spec: &JoinSpec,
    model: &M,
    cap: f32,
    options: DriveOptions,
    stats: &mut St,
) -> L
where
    L: WaveTableLayout + Send,
    M: CostModel + Sync,
    St: Stats + Default + Send,
{
    let n = spec.n();
    assert!(n <= MAX_TABLE_RELS, "unsupported relation count {n}");
    let mut table = L::with_rels(n);
    fill_join_table_with::<L, M, St, PRUNE>(
        &mut table,
        spec,
        model,
        cap,
        options,
        &NEVER_CANCELLED,
        stats,
    );
    table
}

/// Optimize the join order for `spec` under `model`, searching the complete
/// space of bushy plans including Cartesian products.
///
/// Uses the paper's defaults: array-of-structs table, nested-`if` pruning
/// on, no plan-cost threshold, and the default [`DriveOptions`] execution
/// policy. For thresholded optimization see [`crate::threshold`].
///
/// # Errors
/// Returns [`SpecError::TooManyRels`] when the DP table would be too large.
pub fn optimize_join<M: CostModel + Sync>(
    spec: &JoinSpec,
    model: &M,
) -> Result<Optimized, SpecError> {
    optimize_join_with(spec, model, DriveOptions::default())
}

/// [`optimize_join`] with an explicit execution policy (worker-thread
/// count for the rank-wave parallel driver; `1` = serial) and table
/// layout ([`DriveOptions::layout`] picks the monomorphization). Every
/// layout/driver combination produces bit-identical results.
///
/// # Errors
/// Returns [`SpecError::TooManyRels`] when the DP table would be too large.
pub fn optimize_join_with<M: CostModel + Sync>(
    spec: &JoinSpec,
    model: &M,
    options: DriveOptions,
) -> Result<Optimized, SpecError> {
    let n = spec.n();
    if n > MAX_TABLE_RELS {
        return Err(SpecError::TooManyRels(n));
    }
    fn run<L, M>(spec: &JoinSpec, model: &M, options: DriveOptions) -> Optimized
    where
        L: WaveTableLayout + Send,
        M: CostModel + Sync,
    {
        let mut stats = NoStats;
        let table: L = optimize_join_into_with::<L, M, NoStats, true>(
            spec,
            model,
            f32::INFINITY,
            options,
            &mut stats,
        );
        let full = spec.all_rels();
        let cost = table.cost(full);
        // A spec whose every join order overflows the f32 cost scale
        // leaves the table without a ranked split: `inf < inf` never
        // updates a row, so `best_lhs` stays empty and extraction would
        // panic. All plans cost the same infinity then, so degrade to
        // the canonical left-deep order instead of crashing the caller.
        let plan = if cost.is_finite() || full.is_singleton() {
            Plan::extract(&table, full)
        } else {
            (1..spec.n()).fold(Plan::scan(0), |acc, r| Plan::join(acc, Plan::scan(r)))
        };
        Optimized { plan, cost, card: table.card(full) }
    }
    Ok(match options.layout {
        LayoutChoice::Aos => run::<AosTable, M>(spec, model, options),
        LayoutChoice::HotCold => run::<HotColdTable, M>(spec, model, options),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{DiskNestedLoops, Kappa0, SmDnl, SortMerge};

    /// Regression: cardinalities big enough that every plan costs
    /// `f32::INFINITY` used to panic in plan extraction (no row ever
    /// beat the `inf` initializer, so no split was recorded). The
    /// optimizer must return a complete (left-deep) plan instead.
    #[test]
    fn all_overflowing_costs_yield_a_plan_instead_of_panicking() {
        let spec =
            JoinSpec::new(&[1e30, 1e30, 1e30, 1e30], &[(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)])
                .unwrap();
        let opt = optimize_join(&spec, &Kappa0).unwrap();
        assert!(opt.cost.is_infinite(), "{}", opt.cost);
        assert_eq!(opt.plan.rel_set(), spec.all_rels(), "plan must still cover every relation");
    }
    use crate::stats::Counters;

    /// Figure 3's join graph: A,B,C,D with predicates AB, AC, BC, AD.
    fn fig3_spec() -> JoinSpec {
        JoinSpec::new(
            &[10.0, 20.0, 30.0, 40.0],
            &[(0, 1, 0.1), (0, 2, 0.2), (1, 2, 0.3), (0, 3, 0.4)],
        )
        .unwrap()
    }

    /// Exhaustive reference: try all splits recursively, computing
    /// cardinalities by the closed form.
    fn brute_force<M: CostModel>(spec: &JoinSpec, model: &M, s: RelSet) -> f32 {
        if s.is_singleton() {
            return 0.0;
        }
        let out = spec.join_cardinality(s);
        let mut best = f32::INFINITY;
        for lhs in s.proper_subsets() {
            let rhs = s - lhs;
            let c = brute_force(spec, model, lhs)
                + brute_force(spec, model, rhs)
                + model.kappa(out, spec.join_cardinality(lhs), spec.join_cardinality(rhs));
            if c < best {
                best = c;
            }
        }
        best
    }

    #[test]
    fn fan_column_matches_reference() {
        let spec = fig3_spec();
        let mut stats = NoStats;
        let t: AosTable =
            optimize_join_into::<_, _, _, true>(&spec, &Kappa0, f32::INFINITY, &mut stats);
        for bits in 1u32..(1 << spec.n()) {
            let s = RelSet::from_bits(bits);
            if s.is_singleton() {
                continue;
            }
            let expect = spec.pi_fan(s);
            let got = t.pi_fan(s);
            assert!((got - expect).abs() < 1e-12, "Π_fan({s:?}) = {got}, want {expect}");
        }
    }

    #[test]
    fn cardinalities_match_induced_subgraph_closed_form() {
        let spec = fig3_spec();
        let mut stats = NoStats;
        let t: AosTable =
            optimize_join_into::<_, _, _, true>(&spec, &Kappa0, f32::INFINITY, &mut stats);
        for bits in 1u32..(1 << spec.n()) {
            let s = RelSet::from_bits(bits);
            let expect = spec.join_cardinality(s);
            let got = t.card(s);
            let tol = expect.abs() * 1e-12 + 1e-12;
            assert!((got - expect).abs() <= tol, "card({s:?}) = {got}, want {expect}");
        }
    }

    #[test]
    fn matches_brute_force_on_various_graphs() {
        let specs = vec![
            fig3_spec(),
            // Chain R0–R1–R2–R3–R4.
            JoinSpec::new(
                &[100.0, 50.0, 200.0, 10.0, 70.0],
                &[(0, 1, 0.01), (1, 2, 0.05), (2, 3, 0.2), (3, 4, 0.1)],
            )
            .unwrap(),
            // Star with hub R0.
            JoinSpec::new(
                &[1000.0, 10.0, 20.0, 30.0, 40.0],
                &[(0, 1, 0.001), (0, 2, 0.002), (0, 3, 0.003), (0, 4, 0.004)],
            )
            .unwrap(),
            // Clique of 5.
            JoinSpec::new(
                &[10.0, 20.0, 30.0, 40.0, 50.0],
                &[
                    (0, 1, 0.5),
                    (0, 2, 0.4),
                    (0, 3, 0.3),
                    (0, 4, 0.2),
                    (1, 2, 0.1),
                    (1, 3, 0.2),
                    (1, 4, 0.3),
                    (2, 3, 0.4),
                    (2, 4, 0.5),
                    (3, 4, 0.6),
                ],
            )
            .unwrap(),
            // Disconnected: two components forcing a Cartesian product.
            JoinSpec::new(&[10.0, 20.0, 30.0, 40.0], &[(0, 1, 0.1), (2, 3, 0.2)]).unwrap(),
        ];
        for spec in &specs {
            check_against_brute_force(spec, &Kappa0);
            check_against_brute_force(spec, &SortMerge);
            check_against_brute_force(spec, &DiskNestedLoops::default());
            check_against_brute_force(spec, &SmDnl::default());
        }
    }

    fn check_against_brute_force<M: CostModel + Sync>(spec: &JoinSpec, model: &M) {
        let opt = optimize_join(spec, model).unwrap();
        let bf = brute_force(spec, model, spec.all_rels());
        let tol = bf.abs() * 1e-4 + 1e-4;
        assert!(
            (opt.cost - bf).abs() <= tol,
            "{}: optimizer {} vs brute force {}",
            model.name(),
            opt.cost,
            bf
        );
        let (_, recost) = opt.plan.cost(spec, model);
        let tol = opt.cost.abs() * 1e-4 + 1e-4;
        assert!((recost - opt.cost).abs() <= tol, "plan recost {recost} vs table {}", opt.cost);
    }

    /// A star query where the optimal plan contains a Cartesian product of
    /// two tiny satellites (the classic [OL90] observation). The optimizer
    /// must find it because it never excludes products a priori.
    #[test]
    fn optimal_plan_may_contain_cartesian_product() {
        // Hub R0 is huge; the satellites are small. Producting the two
        // satellites first costs 100 and shrinks the hub join to 100 rows
        // (total 200), whereas any hub-first plan materializes a 10^4-row
        // intermediate (total > 10^4) under κ0.
        let spec = JoinSpec::new(
            &[1_000_000.0, 10.0, 10.0],
            &[(0, 1, 1e-3), (0, 2, 1e-3)],
        )
        .unwrap();
        let opt = optimize_join(&spec, &Kappa0).unwrap();
        assert!(
            opt.plan.contains_cartesian_product(&spec),
            "expected a Cartesian product in {}",
            opt.plan
        );
        // And it must still be the brute-force optimum.
        let bf = brute_force(&spec, &Kappa0, spec.all_rels());
        assert!((opt.cost - bf).abs() <= bf.abs() * 1e-5 + 1e-5);
    }

    #[test]
    fn cartesian_spec_reduces_to_product_optimizer() {
        let cards = [10.0, 20.0, 30.0, 40.0, 50.0];
        let spec = JoinSpec::cartesian(&cards).unwrap();
        let via_join = optimize_join(&spec, &Kappa0).unwrap();
        let via_prod = crate::cartesian::optimize_products(&cards, &Kappa0).unwrap();
        assert_eq!(via_join.cost, via_prod.cost);
        assert_eq!(via_join.card, via_prod.card);
    }

    #[test]
    fn layouts_agree_on_joins() {
        let spec = fig3_spec();
        let mut s1 = NoStats;
        let mut s2 = NoStats;
        let aos: AosTable =
            optimize_join_into::<_, _, _, true>(&spec, &SortMerge, f32::INFINITY, &mut s1);
        let hot: HotColdTable =
            optimize_join_into::<_, _, _, true>(&spec, &SortMerge, f32::INFINITY, &mut s2);
        for bits in 1u32..(1 << spec.n()) {
            let s = RelSet::from_bits(bits);
            assert_eq!(aos.cost(s), hot.cost(s));
            assert_eq!(aos.card(s), hot.card(s));
            assert_eq!(aos.pi_fan(s), hot.pi_fan(s));
        }
    }

    #[test]
    fn single_relation_join() {
        let spec = JoinSpec::cartesian(&[99.0]).unwrap();
        let opt = optimize_join(&spec, &Kappa0).unwrap();
        assert_eq!(opt.plan, Plan::scan(0));
        assert_eq!(opt.cost, 0.0);
    }

    /// Selectivities affect only `compute_properties`, never the split
    /// enumeration: loop-iteration counts must be identical for any two
    /// graphs of the same size (unpruned).
    #[test]
    fn enumeration_is_topology_independent() {
        let chain =
            JoinSpec::new(&[10.0; 6], &[(0, 1, 0.1), (1, 2, 0.1), (2, 3, 0.1), (3, 4, 0.1), (4, 5, 0.1)])
                .unwrap();
        let cart = JoinSpec::cartesian(&[10.0; 6]).unwrap();
        let mut c1 = Counters::default();
        let mut c2 = Counters::default();
        let _: AosTable = optimize_join_into::<_, _, _, false>(&chain, &Kappa0, f32::INFINITY, &mut c1);
        let _: AosTable = optimize_join_into::<_, _, _, false>(&cart, &Kappa0, f32::INFINITY, &mut c2);
        assert_eq!(c1.loop_iters, c2.loop_iters);
        assert_eq!(c1.subsets, c2.subsets);
        assert_eq!(c1.loop_iters as f64, Counters::split_candidates(6), "closed form");
    }
}
