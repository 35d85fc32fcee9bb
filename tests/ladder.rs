//! Integration tests for the anytime optimality ladder: rung-1 output
//! bit-identical to the exact optimizer, rung-2/3 plans never costlier
//! than the greedy baseline on the paper's oracle topologies across
//! cost models, and monotone best-so-far under shrinking budgets.

use blitzsplit::catalog::{Topology, Workload};
use blitzsplit::core::CostModel;
use blitzsplit::ladder::{optimize_ladder, BigSpec, GapBasis, LadderConfig, Rung};
use blitzsplit::{
    optimize_join_with, DiskNestedLoops, DriveOptions, DriverChoice, JoinSpec, Kappa0, SortMerge,
};

const TOPOLOGIES: [Topology; 4] =
    [Topology::Chain, Topology::Star, Topology::Clique, Topology::CyclePlus3];

/// An Appendix workload as a [`BigSpec`] (any `n`, unlike
/// [`Workload::spec`] which is capped by the bit-set width).
fn big_workload(n: usize, topology: Topology) -> BigSpec {
    let g = Workload::new(n, topology, 100.0, 0.5).graph();
    let cards: Vec<f64> = g.relations().iter().map(|r| r.cardinality).collect();
    let preds: Vec<(usize, usize, f64)> =
        g.predicates().iter().map(|p| (p.lhs, p.rhs, p.selectivity)).collect();
    BigSpec::new(&cards, &preds).expect("workload must form a valid BigSpec")
}

fn small_workload(n: usize, topology: Topology) -> JoinSpec {
    Workload::new(n, topology, 100.0, 0.5).spec()
}

/// A test config with budgets sized for debug-build test latency.
fn fast_config() -> LadderConfig {
    LadderConfig { refine_steps: 4_000, ..LadderConfig::default() }
}

fn assert_full_coverage(report: &blitzsplit::ladder::LadderReport, n: usize) {
    let mut leaves = report.plan.leaves();
    leaves.sort_unstable();
    assert_eq!(leaves, (0..n).collect::<Vec<_>>(), "plan must join every relation exactly once");
}

/// Rung 1 must return the exact optimizer's plan *bit-identically* —
/// same tree, same f32 cost bits, same f64 cardinality bits — for every
/// oracle topology and cost model, on the reference split driver and on
/// the conv driver the service configures.
#[test]
fn rung1_is_bit_identical_to_optimize_join_with() {
    fn check<M: CostModel + Sync>(topology: Topology, model: &M, driver: DriverChoice) {
        let n = 10;
        let spec = small_workload(n, topology);
        let big = BigSpec::from_spec(&spec);
        let report = optimize_ladder(&big, model, &LadderConfig { driver, ..Default::default() });
        assert_eq!(report.rung, Rung::Exact, "{topology:?}/{}", model.name());
        assert_eq!(report.gap, 0.0);
        assert_eq!(report.gap_basis, GapBasis::Exact);
        let exact = optimize_join_with(&spec, model, DriveOptions::serial().with_driver(driver))
            .expect("exact optimization must succeed at n=10");
        assert_eq!(report.plan, exact.plan, "{topology:?}/{}/{driver}", model.name());
        assert_eq!(
            report.cost.to_bits(),
            exact.cost.to_bits(),
            "{}/{}/{driver}: {} vs {}",
            topology_name(topology),
            model.name(),
            report.cost,
            exact.cost
        );
        assert_eq!(report.card.to_bits(), exact.card.to_bits());
    }
    for topology in TOPOLOGIES {
        for driver in DriverChoice::ALL {
            check(topology, &Kappa0, driver);
            check(topology, &SortMerge, driver);
            check(topology, &DiskNestedLoops::default(), driver);
        }
    }
}

fn topology_name(t: Topology) -> &'static str {
    match t {
        Topology::Chain => "chain",
        Topology::Star => "star",
        Topology::Clique => "clique",
        Topology::CyclePlus3 => "cycle3",
    }
}

/// Beyond the exact gate, the ladder's plan must never cost more than
/// the greedy seed it would otherwise degrade to — on every oracle
/// topology under three cost models.
#[test]
fn ladder_never_loses_to_greedy_on_oracle_topologies() {
    fn check<M: CostModel + Sync>(topology: Topology, model: &M) {
        let n = 26; // beyond every default exact gate
        let big = big_workload(n, topology);
        let report = optimize_ladder(&big, model, &fast_config());
        let label = format!("{}/{}", topology_name(topology), model.name());
        assert!(report.rung_reached >= Rung::HybridDp, "{label}: reached {:?}", report.rung_reached);
        assert_eq!(report.gap_basis, GapBasis::Greedy, "{label}");
        assert!(
            report.cost <= report.greedy_cost,
            "{label}: ladder {} worse than greedy {}",
            report.cost,
            report.greedy_cost
        );
        assert!(report.gap <= 0.0, "{label}: gap {}", report.gap);
        assert!(report.cost.is_finite() && report.card.is_finite(), "{label}");
        assert_full_coverage(&report, n);
    }
    for topology in TOPOLOGIES {
        check(topology, &Kappa0);
        check(topology, &SortMerge);
        check(topology, &DiskNestedLoops::default());
    }
}

/// The anytime contract: shrinking the rung-3 proposal budget never
/// yields a *cheaper* plan (the shorter run is an exact prefix of the
/// longer one), and likewise for rung-2 rounds.
#[test]
fn shrinking_budgets_never_improve_the_plan() {
    let big = big_workload(40, Topology::Chain);

    // Rung-3 proposal budget.
    let mut last = f32::NEG_INFINITY;
    for &steps in &[8_000u64, 2_000, 500, 0] {
        let cfg = LadderConfig { refine_steps: steps, ..LadderConfig::default() };
        let report = optimize_ladder(&big, &Kappa0, &cfg);
        assert!(
            report.cost >= last,
            "budget {steps}: cost {} beat the larger budget's {last}",
            report.cost
        );
        assert!(report.spent.refine_steps <= steps);
        last = report.cost;
    }

    // Rung-2 rounds (stochastic rung disabled to isolate the effect).
    let mut last = f32::NEG_INFINITY;
    for &rounds in &[3usize, 2, 1, 0] {
        let cfg = LadderConfig { dp_rounds: rounds, refine_steps: 0, ..LadderConfig::default() };
        let report = optimize_ladder(&big, &Kappa0, &cfg);
        assert!(
            report.cost >= last,
            "rounds {rounds}: cost {} beat the larger budget's {last}",
            report.cost
        );
        last = report.cost;
    }
}

/// Same config, same seed → same plan, cost bits, rung, and spent
/// budget: the ladder is deterministic when no wall clock is set.
#[test]
fn ladder_is_deterministic_across_runs() {
    for topology in [Topology::Star, Topology::CyclePlus3] {
        let big = big_workload(33, topology);
        let cfg = fast_config();
        let a = optimize_ladder(&big, &SortMerge, &cfg);
        let b = optimize_ladder(&big, &SortMerge, &cfg);
        assert_eq!(a.plan, b.plan, "{topology:?}");
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        assert_eq!(a.rung, b.rung);
        assert_eq!(a.spent.refine_steps, b.spent.refine_steps);
        assert_eq!(a.spent.dp_blocks, b.spent.dp_blocks);
    }
}

/// The headline scale target: a 100-relation query plans to completion,
/// covers every relation, and lands at-or-below greedy.
#[test]
fn hundred_relation_query_plans_below_greedy() {
    let big = big_workload(100, Topology::Chain);
    let report = optimize_ladder(&big, &Kappa0, &fast_config());
    assert!(report.rung_reached >= Rung::HybridDp);
    assert!(report.cost <= report.greedy_cost);
    assert!(report.cost.is_finite() && report.card.is_finite());
    assert_full_coverage(&report, 100);
}
