//! Cross-validation: every exhaustive optimizer in the workspace must
//! agree on optimal cost over a stream of seeded random problems, and
//! the restricted/heuristic optimizers must never beat the bushy optimum.
//! Every blitzsplit optimum is also the service configuration's, to the
//! bit (see `common`).

use blitzsplit::baselines::{
    best_bushy, best_left_deep, goo, hybrid_dp_local, iterated_improvement,
    min_selectivity_left_deep, optimize_dpsize, optimize_dpsub, optimize_left_deep, quickpick,
    simulated_annealing, Connectivity, CrossProducts, IiParams, ProductPolicy, SaParams,
};
use blitzsplit::catalog::{random_specs, RandomSpecParams};
use blitzsplit::{CostModel, DiskNestedLoops, JoinSpec, Kappa0, SmDnl, SortMerge};

mod common;

fn close(a: f32, b: f32) -> bool {
    (a - b).abs() <= a.abs().max(b.abs()) * 1e-4 + 1e-4
}

fn check_exhaustive_agreement<M: CostModel + Sync>(spec: &JoinSpec, model: &M) {
    let bz = common::optimize_checked(spec, model);
    let dpsub = optimize_dpsub(spec, model, Connectivity::ProductsAllowed);
    let dpsize = optimize_dpsize(spec, model, CrossProducts::Allowed);
    assert!(close(bz.cost, dpsub.cost), "{}: blitzsplit {} vs dpsub {}", model.name(), bz.cost, dpsub.cost);
    assert!(close(bz.cost, dpsize.cost), "{}: blitzsplit {} vs dpsize {}", model.name(), bz.cost, dpsize.cost);
    // Every optimizer's plan must re-cost to its claimed cost.
    let (_, re) = bz.plan.cost(spec, model);
    assert!(close(re, bz.cost), "{}: plan recost {} vs {}", model.name(), re, bz.cost);
}

#[test]
fn exhaustive_optimizers_agree_on_random_connected_graphs() {
    let params = RandomSpecParams { n: 7, edge_probability: 0.3, ..Default::default() };
    for spec in random_specs(params, 1000, 25) {
        check_exhaustive_agreement(&spec, &Kappa0);
        check_exhaustive_agreement(&spec, &SortMerge);
        check_exhaustive_agreement(&spec, &DiskNestedLoops::default());
        check_exhaustive_agreement(&spec, &SmDnl::default());
    }
}

#[test]
fn exhaustive_optimizers_agree_on_disconnected_graphs() {
    let params = RandomSpecParams {
        n: 6,
        edge_probability: 0.25,
        force_connected: false,
        ..Default::default()
    };
    for spec in random_specs(params, 2000, 25) {
        check_exhaustive_agreement(&spec, &Kappa0);
    }
}

#[test]
fn blitzsplit_matches_brute_force_oracle() {
    let params = RandomSpecParams { n: 6, edge_probability: 0.4, ..Default::default() };
    for spec in random_specs(params, 3000, 15) {
        let bz = common::optimize_checked(&spec, &Kappa0);
        let (_, bf) = best_bushy(&spec, &Kappa0, spec.all_rels());
        assert!(close(bz.cost, bf), "blitzsplit {} vs oracle {}", bz.cost, bf);
    }
}

#[test]
fn left_deep_dp_matches_left_deep_oracle_and_never_beats_bushy() {
    let params = RandomSpecParams { n: 6, edge_probability: 0.4, ..Default::default() };
    for spec in random_specs(params, 4000, 15) {
        let ld = optimize_left_deep(&spec, &Kappa0, ProductPolicy::Allowed);
        let (_, oracle) = best_left_deep(&spec, &Kappa0, spec.all_rels());
        assert!(close(ld.cost, oracle), "left-deep DP {} vs oracle {}", ld.cost, oracle);
        let bushy = common::optimize_checked(&spec, &Kappa0).cost;
        assert!(bushy <= ld.cost * (1.0 + 1e-4), "bushy {bushy} > left-deep {}", ld.cost);
        assert!(ld.plan.is_left_deep());
    }
}

#[test]
fn restricted_searches_never_beat_the_full_space() {
    let params = RandomSpecParams { n: 7, edge_probability: 0.35, ..Default::default() };
    for spec in random_specs(params, 5000, 12) {
        let optimum = common::optimize_checked(&spec, &Kappa0).cost;
        let candidates = [
            optimize_dpsub(&spec, &Kappa0, Connectivity::ConnectedOnly).cost,
            optimize_dpsize(&spec, &Kappa0, CrossProducts::Avoided).cost,
            optimize_left_deep(&spec, &Kappa0, ProductPolicy::Deferred).cost,
            optimize_left_deep(&spec, &Kappa0, ProductPolicy::Excluded).cost,
            goo(&spec, &Kappa0).1,
            min_selectivity_left_deep(&spec, &Kappa0).1,
            quickpick(&spec, &Kappa0, 50, 1).1,
            iterated_improvement(
                &spec,
                &Kappa0,
                IiParams { restarts: 2, max_consecutive_failures: 20, seed: 5 },
            )
            .1,
            simulated_annealing(
                &spec,
                &Kappa0,
                SaParams { moves_per_stage: 16, ..Default::default() },
            )
            .1,
            hybrid_dp_local(&spec, &Kappa0, 3, 6).1,
        ];
        for (i, &c) in candidates.iter().enumerate() {
            assert!(
                optimum <= c * (1.0 + 1e-4),
                "candidate #{i} cost {c} beat the optimum {optimum}"
            );
        }
    }
}

#[test]
fn all_exhaustive_optimizers_agree_on_tpch_presets() {
    use blitzsplit::baselines::{optimize_dpccp, optimize_topdown};
    use blitzsplit::catalog::all_presets;
    for (name, graph) in all_presets() {
        let spec = graph.to_spec().unwrap();
        let bz = common::optimize_checked(&spec, &Kappa0);
        let dpsub = optimize_dpsub(&spec, &Kappa0, Connectivity::ProductsAllowed);
        let dpsize = optimize_dpsize(&spec, &Kappa0, CrossProducts::Allowed);
        let td = optimize_topdown(&spec, &Kappa0, f32::INFINITY);
        for (who, cost) in [("dpsub", dpsub.cost), ("dpsize", dpsize.cost), ("topdown", td.cost)]
        {
            assert!(close(bz.cost, cost), "{name}: blitzsplit {} vs {who} {cost}", bz.cost);
        }
        // DPccp searches the product-free space; on these connected FK
        // graphs products don't help, so it should agree too.
        let ccp = optimize_dpccp(&spec, &Kappa0);
        assert!(
            bz.cost <= ccp.cost * (1.0 + 1e-4),
            "{name}: dpccp {} beat the full space {}",
            ccp.cost,
            bz.cost
        );
        if !bz.plan.contains_cartesian_product(&spec) {
            assert!(close(bz.cost, ccp.cost), "{name}: dpccp {} vs blitzsplit {}", ccp.cost, bz.cost);
        }
    }
}

#[test]
fn heuristic_plans_are_well_formed() {
    let params = RandomSpecParams { n: 8, edge_probability: 0.3, ..Default::default() };
    for spec in random_specs(params, 6000, 10) {
        for (plan, _) in [
            goo(&spec, &Kappa0),
            min_selectivity_left_deep(&spec, &Kappa0),
            quickpick(&spec, &Kappa0, 10, 2),
            hybrid_dp_local(&spec, &Kappa0, 4, 3),
        ] {
            assert_eq!(plan.rel_set(), spec.all_rels());
            assert_eq!(plan.num_joins(), spec.n() - 1);
            let mut leaves = plan.leaves();
            leaves.sort_unstable();
            leaves.dedup();
            assert_eq!(leaves.len(), spec.n(), "each relation scanned exactly once");
        }
    }
}
