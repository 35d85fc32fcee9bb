//! Join-order optimization (paper Section 5).
//!
//! > Join-order optimization is essentially the same as Cartesian product
//! > optimization, except that intermediate-result cardinalities are
//! > computed differently.
//!
//! The enumeration machinery (`find_best_split`, the drivers) is shared
//! verbatim with [`crate::cartesian`]; only `compute_properties` changes,
//! implementing the two recurrences of Sections 5.2–5.3:
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
use crate::cost::CostModel;
use crate::spec::{JoinSpec, SpecError};
use crate::split::{fill_fresh, DriveOptions, Problem};
use crate::stats::Stats;
use crate::table::{TableLayout, MAX_TABLE_RELS};
use crate::threshold::{optimize_fresh, ThresholdSchedule};

/// `compute_properties` for joins: fan recurrence + cardinality recurrence
/// (paper Section 5.4). Exactly three floating-point multiplications.
impl Problem for JoinSpec {
    fn rels(&self) -> usize {
        self.n()
    }

    fn base_card(&self, rel: usize) -> f64 {
        self.card(rel)
    }

    #[inline]
    fn properties<T: TableLayout, M: CostModel>(&self, table: &mut T, model: &M, s: RelSet) {
        // U = {min S} = δ_S(1) = S & −S (Section 5.4).
        let u = s.lowest_singleton();
        let v = s - u;
        let pi_fan = if v.is_singleton() {
            // Doubleton: seed from the predicate connecting the two
            // relations (or 1 if there is none).
            self.selectivity(u.min_rel().unwrap(), v.min_rel().unwrap())
        } else {
            // Π_fan(S) = Π_fan(U∪W) · Π_fan(U∪Z); both arguments are
            // smaller sets whose rows are already filled (integer
            // processing order).
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
}

/// Run the join optimizer with full control of table layout, statistics,
/// cost cap, pruning and execution policy, returning the filled table.
/// Most callers want [`optimize_join`].
///
/// When `L` runs waves (only [`crate::HotColdTable`] does), the table
/// fills in popcount waves on `options`' worker count, the calling
/// thread included; otherwise it fills in the paper's integer order on
/// the calling thread. Both produce bit-identical tables (see
/// [`crate::split`]); [`crate::AosTable`] is the paper's reference.
///
/// # Panics
/// Panics if `spec.n() > MAX_TABLE_RELS`.
pub fn optimize_join_into<L, M, St, const PRUNE: bool>(
    spec: &JoinSpec,
    model: &M,
    cap: f32,
    options: DriveOptions,
    stats: &mut St,
) -> L
where
    L: TableLayout,
    M: CostModel + Sync,
    St: Stats + Default + Send,
{
    fill_fresh::<L, M, St, _, PRUNE>(spec, model, cap, options, stats)
}

/// Optimize the join order for `spec` under `model`, searching the complete
/// space of bushy plans including Cartesian products.
///
/// Uses the paper's defaults: nested-`if` pruning on, no plan-cost
/// threshold, and the default [`DriveOptions`] execution policy. For
/// thresholded optimization see [`crate::threshold`].
///
/// # Errors
/// Returns [`SpecError::TooManyRels`] when the DP table would be too large.
pub fn optimize_join<M: CostModel + Sync>(
    spec: &JoinSpec,
    model: &M,
) -> Result<Optimized, SpecError> {
    optimize_join_with(spec, model, DriveOptions::default())
}

/// [`optimize_join`] with an explicit execution policy (wave workers
/// for a hot/cold table; `1` = the calling thread alone) and table
/// layout ([`DriveOptions::layout`] picks the monomorphization). Every
/// layout/driver combination produces bit-identical results.
///
/// A spec whose every join order overflows the `f32` cost scale gets
/// the input-order left-deep plan at cost `+∞` (see
/// [`crate::threshold::ArenaThresholdOutcome`]).
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
    Ok(optimize_fresh(spec, model, ThresholdSchedule::UNCAPPED, options).optimized)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{DiskNestedLoops, Kappa0, SmDnl, SortMerge};
    use crate::plan::Plan;
    use crate::stats::NoStats;
    use crate::table::{AosTable, HotColdTable};

    /// Regression: cardinalities big enough that every plan costs
    /// `f32::INFINITY` used to panic in plan extraction (no row ever
    /// beat the `inf` initializer, so no split was recorded). Every
    /// optimizer that returns a plan — joins, products and hypergraphs —
    /// must return the input-order left-deep plan instead.
    #[test]
    fn all_overflowing_costs_yield_a_plan_instead_of_panicking() {
        let vine = |n: usize| (1..n).fold(Plan::scan(0), |acc, r| Plan::join(acc, Plan::scan(r)));
        let spec =
            JoinSpec::new(&[1e30, 1e30, 1e30, 1e30], &[(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)])
                .unwrap();
        let opt = optimize_join(&spec, &Kappa0).unwrap();
        assert!(opt.cost.is_infinite(), "{}", opt.cost);
        assert_eq!(opt.plan.rel_set(), spec.all_rels(), "plan must still cover every relation");
        assert_eq!(opt.plan, vine(4));

        let cards = [1e30, 1e30, 1e30];
        let products = crate::cartesian::optimize_products(&cards, &Kappa0).unwrap();
        assert!(products.cost.is_infinite(), "{}", products.cost);
        assert_eq!(products.plan, vine(3));

        let hyper = crate::hyper::HyperSpec::new(&cards, &[]).unwrap();
        let hyper = crate::hyper::optimize_hyper(&hyper, &Kappa0).unwrap();
        assert!(hyper.cost.is_infinite(), "{}", hyper.cost);
        assert_eq!(hyper.plan, vine(3));
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
        let t: AosTable = optimize_join_into::<_, _, _, true>(
            &spec,
            &Kappa0,
            f32::INFINITY,
            DriveOptions::serial(),
            &mut stats,
        );
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
        let t: AosTable = optimize_join_into::<_, _, _, true>(
            &spec,
            &Kappa0,
            f32::INFINITY,
            DriveOptions::serial(),
            &mut stats,
        );
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
        let serial = DriveOptions::serial();
        let aos: AosTable =
            optimize_join_into::<_, _, _, true>(&spec, &SortMerge, f32::INFINITY, serial, &mut s1);
        let hot: HotColdTable =
            optimize_join_into::<_, _, _, true>(&spec, &SortMerge, f32::INFINITY, serial, &mut s2);
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
        let serial = DriveOptions::serial();
        let _: AosTable =
            optimize_join_into::<_, _, _, false>(&chain, &Kappa0, f32::INFINITY, serial, &mut c1);
        let _: AosTable =
            optimize_join_into::<_, _, _, false>(&cart, &Kappa0, f32::INFINITY, serial, &mut c2);
        assert_eq!(c1.loop_iters, c2.loop_iters);
        assert_eq!(c1.subsets, c2.subsets);
        assert_eq!(c1.loop_iters as f64, Counters::split_candidates(6), "closed form");
    }
}
