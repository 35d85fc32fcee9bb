//! Integration tests for the anytime optimality ladder: rung-1 output
//! bit-identical to the exact optimizer, rung-2/3 plans never costlier
//! than the greedy baseline on the paper's oracle topologies across
//! cost models, and monotone best-so-far under shrinking budgets.

use blitzsplit::catalog::{Topology, Workload};
use blitzsplit::core::CostModel;
use blitzsplit::ladder::{optimize_ladder, BigSpec, GapBasis, LadderConfig, Rung};
use blitzsplit::{
    optimize_join_with, DiskNestedLoops, DriveOptions, DriverChoice, JoinSpec, Kappa0, SmDnl,
    SortMerge,
};
use std::time::Duration;

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

/// `optimize_ladder` on a small grid with the exact gate closed, so the
/// window DP and the stochastic rung both run: topology, n, model,
/// whether a wall clock is set (chunked II, conv-driven DPs), and the
/// expected cost bits, refine steps, DP blocks and plan. Recorded before
/// rung 3 moved to the in-place arena and the ladder's DPs to certified
/// passes; both changes must leave every entry as it was.
type Pin = (Topology, usize, &'static str, bool, u32, u64, u64, &'static str);

#[rustfmt::skip]
const PINNED: &[Pin] = &[
    (Topology::Chain, 7, "kappa0", false, 0x43ea2e68, 3000, 4, "(((R2 x (R6 x R3)) x R5) x (R1 x (R0 x R4)))"),
    (Topology::Chain, 7, "kappa_sm", false, 0x46a81daa, 3000, 4, "((R2 x (R6 x R3)) x (R5 x (R1 x (R0 x R4))))"),
    (Topology::Chain, 7, "kappa_dnl", false, 0x430130be, 3000, 4, "((R2 x (R6 x R3)) x (R5 x (R1 x (R0 x R4))))"),
    (Topology::Chain, 7, "min(kappa_sm,kappa_dnl)", false, 0x430130be, 3000, 4, "((R2 x (R6 x R3)) x (R5 x (R1 x (R0 x R4))))"),
    (Topology::Chain, 7, "kappa0", true, 0x43ea2e68, 3000, 4, "(((R2 x (R6 x R3)) x R5) x (R1 x (R0 x R4)))"),
    (Topology::Chain, 7, "kappa_sm", true, 0x46a81daa, 3000, 4, "((R2 x (R6 x R3)) x (R5 x (R1 x (R0 x R4))))"),
    (Topology::Chain, 7, "kappa_dnl", true, 0x430130be, 3000, 4, "((R2 x (R6 x R3)) x (R5 x (R1 x (R0 x R4))))"),
    (Topology::Chain, 7, "min(kappa_sm,kappa_dnl)", true, 0x430130be, 3000, 4, "((R2 x (R6 x R3)) x (R5 x (R1 x (R0 x R4))))"),
    (Topology::Chain, 20, "kappa0", false, 0x4470770a, 3000, 9, "(((R4 x (R13 x (R3 x (R12 x (R2 x (R11 x (R1 x (R0 x R10)))))))) x (R5 x R14)) x (R15 x (R6 x (R16 x (R7 x (R17 x (R8 x (R18 x (R9 x R19)))))))))"),
    (Topology::Chain, 20, "kappa_sm", false, 0x47471dca, 3000, 9, "(((R4 x (R13 x (R3 x (R12 x (R2 x (R11 x (R1 x (R0 x R10)))))))) x (R5 x R14)) x (R15 x (R6 x (R16 x (R7 x (R17 x (R8 x (R18 x (R9 x R19)))))))))"),
    (Topology::Chain, 20, "kappa_dnl", false, 0x438631ff, 3000, 9, "(((R4 x (R13 x (R3 x (R12 x (R2 x (R11 x (R1 x (R0 x R10)))))))) x (R5 x R14)) x (R15 x (R6 x (R16 x (R7 x (R17 x (R8 x (R18 x (R9 x R19)))))))))"),
    (Topology::Chain, 20, "min(kappa_sm,kappa_dnl)", false, 0x438631ff, 3000, 9, "(((R4 x (R13 x (R3 x (R12 x (R2 x (R11 x (R1 x (R0 x R10)))))))) x (R5 x R14)) x (R15 x (R6 x (R16 x (R7 x (R17 x (R8 x (R18 x (R9 x R19)))))))))"),
    (Topology::Chain, 20, "kappa0", true, 0x4470770a, 3000, 9, "(((R4 x (R13 x (R3 x (R12 x (R2 x (R11 x (R1 x (R0 x R10)))))))) x (R5 x R14)) x (R15 x (R6 x (R16 x (R7 x (R17 x (R8 x (R18 x (R9 x R19)))))))))"),
    (Topology::Chain, 20, "kappa_sm", true, 0x47471dca, 3000, 9, "(((R4 x (R13 x (R3 x (R12 x (R2 x (R11 x (R1 x (R0 x R10)))))))) x (R5 x R14)) x (R15 x (R6 x (R16 x (R7 x (R17 x (R8 x (R18 x (R9 x R19)))))))))"),
    (Topology::Chain, 20, "kappa_dnl", true, 0x438631ff, 3000, 9, "(((R4 x (R13 x (R3 x (R12 x (R2 x (R11 x (R1 x (R0 x R10)))))))) x (R5 x R14)) x (R15 x (R6 x (R16 x (R7 x (R17 x (R8 x (R18 x (R9 x R19)))))))))"),
    (Topology::Chain, 20, "min(kappa_sm,kappa_dnl)", true, 0x438631ff, 3000, 9, "(((R4 x (R13 x (R3 x (R12 x (R2 x (R11 x (R1 x (R0 x R10)))))))) x (R5 x R14)) x (R15 x (R6 x (R16 x (R7 x (R17 x (R8 x (R18 x (R9 x R19)))))))))"),
    (Topology::Star, 7, "kappa0", false, 0x44b641b6, 3000, 4, "(R2 x (R5 x (R3 x (R4 x (R6 x (R0 x R1))))))"),
    (Topology::Star, 7, "kappa_sm", false, 0x46f356be, 3000, 4, "(R2 x (R5 x (R3 x (R4 x (R6 x (R0 x R1))))))"),
    (Topology::Star, 7, "kappa_dnl", false, 0x43ca7593, 3000, 4, "(R5 x (R3 x ((R2 x (R6 x (R0 x R1))) x R4)))"),
    (Topology::Star, 7, "min(kappa_sm,kappa_dnl)", false, 0x43ca7593, 3000, 4, "(R5 x (R3 x ((R2 x (R6 x (R0 x R1))) x R4)))"),
    (Topology::Star, 7, "kappa0", true, 0x44b641b6, 3000, 4, "(R2 x (R5 x (R3 x (R4 x (R6 x (R0 x R1))))))"),
    (Topology::Star, 7, "kappa_sm", true, 0x46f356be, 3000, 4, "(R2 x (R5 x (R3 x (R4 x (R6 x (R0 x R1))))))"),
    (Topology::Star, 7, "kappa_dnl", true, 0x43ca7593, 3000, 4, "(R5 x (R3 x ((R2 x (R6 x (R0 x R1))) x R4)))"),
    (Topology::Star, 7, "min(kappa_sm,kappa_dnl)", true, 0x43ca7593, 3000, 4, "(R5 x (R3 x ((R2 x (R6 x (R0 x R1))) x R4)))"),
    (Topology::Star, 20, "kappa0", false, 0x45b75efb, 3000, 9, "(R16 x (R15 x (R9 x (R4 x (R6 x (R17 x (R12 x (R8 x (R10 x (R13 x (R11 x (R14 x (R7 x (R5 x (R18 x ((R0 x R1) x (R19 x (R2 x R3))))))))))))))))))"),
    (Topology::Star, 20, "kappa_sm", false, 0x47c22da2, 3000, 9, "(R15 x (((((R8 x ((R5 x (R10 x ((((R13 x (R18 x (R14 x ((R1 x R2) x (R19 x (R0 x R3)))))) x R11) x R12) x R7))) x R17)) x R4) x R6) x R16) x R9))"),
    (Topology::Star, 20, "kappa_dnl", false, 0x44c7e88c, 3000, 9, "(((R10 x (R4 x (R17 x ((R9 x ((((R13 x ((R5 x (R14 x ((R1 x (R11 x (R19 x (R0 x R2)))) x R7))) x R8)) x R18) x R12) x R3)) x R6)))) x R15) x R16)"),
    (Topology::Star, 20, "min(kappa_sm,kappa_dnl)", false, 0x44c7e88c, 3000, 9, "(((R10 x (R4 x (R17 x ((R9 x ((((R13 x ((R5 x (R14 x ((R1 x (R11 x (R19 x (R0 x R2)))) x R7))) x R8)) x R18) x R12) x R3)) x R6)))) x R15) x R16)"),
    (Topology::Star, 20, "kappa0", true, 0x45b75efb, 3000, 9, "(R16 x (R15 x (R9 x (R4 x (R6 x (R17 x (R12 x (R8 x (R10 x (R13 x (R11 x (R14 x (R7 x (R5 x (R18 x ((R0 x R1) x (R19 x (R2 x R3))))))))))))))))))"),
    (Topology::Star, 20, "kappa_sm", true, 0x47c22da2, 3000, 9, "(R15 x (((((R8 x ((R5 x (R10 x ((((R13 x (R18 x (R14 x ((R1 x R2) x (R19 x (R0 x R3)))))) x R11) x R12) x R7))) x R17)) x R4) x R6) x R16) x R9))"),
    (Topology::Star, 20, "kappa_dnl", true, 0x44c7e88c, 3000, 9, "(((R10 x (R4 x (R17 x ((R9 x ((((R13 x ((R5 x (R14 x ((R1 x (R11 x (R19 x (R0 x R2)))) x R7))) x R8)) x R18) x R12) x R3)) x R6)))) x R15) x R16)"),
    (Topology::Star, 20, "min(kappa_sm,kappa_dnl)", true, 0x44c7e88c, 3000, 9, "(((R10 x (R4 x (R17 x ((R9 x ((((R13 x ((R5 x (R14 x ((R1 x (R11 x (R19 x (R0 x R2)))) x R7))) x R8)) x R18) x R12) x R3)) x R6)))) x R15) x R16)"),
    (Topology::Clique, 7, "kappa0", false, 0x4630d90c, 3000, 4, "(R6 x (((R3 x R2) x (R4 x (R0 x R1))) x R5))"),
    (Topology::Clique, 7, "kappa_sm", false, 0x481c30d6, 3000, 4, "(R6 x (((R3 x R2) x (R4 x (R0 x R1))) x R5))"),
    (Topology::Clique, 7, "kappa_dnl", false, 0x45422fd6, 3000, 4, "(((R4 x ((R0 x R3) x (R1 x R2))) x R5) x R6)"),
    (Topology::Clique, 7, "min(kappa_sm,kappa_dnl)", false, 0x45422fd8, 3000, 4, "(((R4 x ((R0 x R3) x (R1 x R2))) x R5) x R6)"),
    (Topology::Clique, 7, "kappa0", true, 0x4630d90c, 3000, 4, "(R6 x (((R3 x R2) x (R4 x (R0 x R1))) x R5))"),
    (Topology::Clique, 7, "kappa_sm", true, 0x481c30d6, 3000, 4, "(R6 x (((R3 x R2) x (R4 x (R0 x R1))) x R5))"),
    (Topology::Clique, 7, "kappa_dnl", true, 0x45422fd6, 3000, 4, "(((R4 x ((R0 x R3) x (R1 x R2))) x R5) x R6)"),
    (Topology::Clique, 7, "min(kappa_sm,kappa_dnl)", true, 0x45422fd8, 3000, 4, "(((R4 x ((R0 x R3) x (R1 x R2))) x R5) x R6)"),
    (Topology::Clique, 20, "kappa0", false, 0x4e02ff77, 3000, 9, "((((R13 x (R15 x R14)) x ((R10 x ((R6 x R11) x (R7 x R8))) x (((R12 x ((R1 x R4) x R3)) x R0) x ((R9 x R2) x R5)))) x (R18 x R17)) x (R16 x R19))"),
    (Topology::Clique, 20, "kappa_sm", false, 0x506c8695, 3000, 9, "((((R13 x (R15 x R14)) x ((R10 x ((R6 x R11) x (R7 x R8))) x (((R12 x ((R1 x R4) x R3)) x R0) x ((R9 x R2) x R5)))) x (R18 x R17)) x (R16 x R19))"),
    (Topology::Clique, 20, "kappa_dnl", false, 0x4dc09658, 3000, 9, "(((((((((((((((R0 x R2) x R3) x ((R1 x R4) x R5)) x (R6 x R7)) x (R8 x R9)) x R10) x R11) x R12) x R13) x R14) x R15) x R16) x R17) x R18) x R19)"),
    (Topology::Clique, 20, "min(kappa_sm,kappa_dnl)", false, 0x4dbd7d1c, 3000, 9, "((((((((((((((R0 x R1) x R4) x ((R2 x R3) x R5)) x ((R6 x R8) x (R7 x R9))) x R10) x R11) x R12) x R13) x R14) x R15) x R16) x R17) x R18) x R19)"),
    (Topology::Clique, 20, "kappa0", true, 0x4e02ff77, 3000, 9, "((((R13 x (R15 x R14)) x ((R10 x ((R6 x R11) x (R7 x R8))) x (((R12 x ((R1 x R4) x R3)) x R0) x ((R9 x R2) x R5)))) x (R18 x R17)) x (R16 x R19))"),
    (Topology::Clique, 20, "kappa_sm", true, 0x506c8695, 3000, 9, "((((R13 x (R15 x R14)) x ((R10 x ((R6 x R11) x (R7 x R8))) x (((R12 x ((R1 x R4) x R3)) x R0) x ((R9 x R2) x R5)))) x (R18 x R17)) x (R16 x R19))"),
    (Topology::Clique, 20, "kappa_dnl", true, 0x4dc09658, 3000, 9, "(((((((((((((((R0 x R2) x R3) x ((R1 x R4) x R5)) x (R6 x R7)) x (R8 x R9)) x R10) x R11) x R12) x R13) x R14) x R15) x R16) x R17) x R18) x R19)"),
    (Topology::Clique, 20, "min(kappa_sm,kappa_dnl)", true, 0x4dbd7d1c, 3000, 9, "((((((((((((((R0 x R1) x R4) x ((R2 x R3) x R5)) x ((R6 x R8) x (R7 x R9))) x R10) x R11) x R12) x R13) x R14) x R15) x R16) x R17) x R18) x R19)"),
    (Topology::CyclePlus3, 7, "kappa0", false, 0x44d5c1d5, 3000, 4, "((R5 x (R1 x R2)) x (R4 x (R6 x (R0 x R3))))"),
    (Topology::CyclePlus3, 7, "kappa_sm", false, 0x4707d5bc, 3000, 4, "((R5 x (R1 x R2)) x (R4 x (R6 x (R0 x R3))))"),
    (Topology::CyclePlus3, 7, "kappa_dnl", false, 0x43d5fdf3, 3000, 4, "((R5 x (R1 x R2)) x (R4 x (R6 x (R0 x R3))))"),
    (Topology::CyclePlus3, 7, "min(kappa_sm,kappa_dnl)", false, 0x43d5fdf3, 3000, 4, "((R5 x (R1 x R2)) x (R4 x (R6 x (R0 x R3))))"),
    (Topology::CyclePlus3, 7, "kappa0", true, 0x44d5c1d5, 3000, 4, "((R5 x (R1 x R2)) x (R4 x (R6 x (R0 x R3))))"),
    (Topology::CyclePlus3, 7, "kappa_sm", true, 0x4707d5bc, 3000, 4, "((R5 x (R1 x R2)) x (R4 x (R6 x (R0 x R3))))"),
    (Topology::CyclePlus3, 7, "kappa_dnl", true, 0x43d5fdf3, 3000, 4, "((R5 x (R1 x R2)) x (R4 x (R6 x (R0 x R3))))"),
    (Topology::CyclePlus3, 7, "min(kappa_sm,kappa_dnl)", true, 0x43d5fdf3, 3000, 4, "((R5 x (R1 x R2)) x (R4 x (R6 x (R0 x R3))))"),
    (Topology::CyclePlus3, 20, "kappa0", false, 0x455246df, 3000, 9, "((R11 x (((R17 x (((R5 x R15) x R6) x (R16 x R7))) x R8) x (R14 x ((R4 x R13) x (R3 x (R2 x R12)))))) x (((R1 x R10) x (R9 x (R19 x R0))) x R18))"),
    (Topology::CyclePlus3, 20, "kappa_sm", false, 0x479bc9f0, 3000, 9, "((R18 x (R19 x ((R1 x (R0 x R10)) x R9))) x (R11 x ((R8 x R17) x (((((R3 x (R2 x R12)) x (R4 x R13)) x (R5 x R14)) x (R15 x R6)) x (R16 x R7)))))"),
    (Topology::CyclePlus3, 20, "kappa_dnl", false, 0x446334dc, 3000, 9, "((((R10 x R1) x (R9 x (R0 x R19))) x R18) x (((R16 x ((R7 x R17) x R8)) x ((R12 x R2) x ((R15 x (((R4 x R14) x R5) x (R3 x R13))) x R6))) x R11))"),
    (Topology::CyclePlus3, 20, "min(kappa_sm,kappa_dnl)", false, 0x446334dc, 3000, 9, "((((R10 x R1) x (R9 x (R0 x R19))) x R18) x (((R16 x ((R7 x R17) x R8)) x ((R12 x R2) x ((R15 x (((R4 x R14) x R5) x (R3 x R13))) x R6))) x R11))"),
    (Topology::CyclePlus3, 20, "kappa0", true, 0x455246df, 3000, 9, "((R11 x (((R17 x (((R5 x R15) x R6) x (R16 x R7))) x R8) x (R14 x ((R4 x R13) x (R3 x (R2 x R12)))))) x (((R1 x R10) x (R9 x (R19 x R0))) x R18))"),
    (Topology::CyclePlus3, 20, "kappa_sm", true, 0x479bc9f0, 3000, 9, "((R18 x (R19 x ((R1 x (R0 x R10)) x R9))) x (R11 x ((R8 x R17) x (((((R3 x (R2 x R12)) x (R4 x R13)) x (R5 x R14)) x (R15 x R6)) x (R16 x R7)))))"),
    (Topology::CyclePlus3, 20, "kappa_dnl", true, 0x446334dc, 3000, 9, "((((R10 x R1) x (R9 x (R0 x R19))) x R18) x (((R16 x ((R7 x R17) x R8)) x ((R12 x R2) x ((R15 x (((R4 x R14) x R5) x (R3 x R13))) x R6))) x R11))"),
    (Topology::CyclePlus3, 20, "min(kappa_sm,kappa_dnl)", true, 0x446334dc, 3000, 9, "((((R10 x R1) x (R9 x (R0 x R19))) x R18) x (((R16 x ((R7 x R17) x R8)) x ((R12 x R2) x ((R15 x (((R4 x R14) x R5) x (R3 x R13))) x R6))) x R11))"),
];

#[test]
fn ladder_plans_and_cost_bits_are_pinned() {
    fn check<M: CostModel + Sync>(model: &M) {
        for &(topology, n, name, clocked, bits, steps, blocks, expr) in PINNED {
            if name != model.name() {
                continue;
            }
            let cfg = LadderConfig {
                max_exact_rels: 0,
                dp_window: 5,
                refine_steps: 3000,
                wall_clock: clocked.then(|| Duration::from_secs(3600)),
                driver: if clocked { DriverChoice::Conv } else { DriverChoice::Split },
                ..LadderConfig::default()
            };
            let r = optimize_ladder(&big_workload(n, topology), model, &cfg);
            let what = format!("{topology:?}/{n}/{name}/clocked={clocked}");
            assert_eq!(r.cost.to_bits(), bits, "{what}: cost {}", r.cost);
            assert_eq!(r.spent.refine_steps, steps, "{what}: refine steps");
            assert_eq!(r.spent.dp_blocks, blocks, "{what}: dp blocks");
            assert_eq!(r.plan.to_expr(), expr, "{what}: plan");
        }
    }
    check(&Kappa0);
    check(&SortMerge);
    check(&DiskNestedLoops::default());
    check(&SmDnl::default());
    assert_eq!(PINNED.len(), 64);
}
