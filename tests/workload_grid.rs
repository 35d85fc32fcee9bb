//! Integration tests over the paper's Appendix workload grid: every
//! sampled point must produce a valid, optimizable problem with the
//! advertised invariants (geometric-mean cardinality, result size μ,
//! topology shape), at a size small enough to keep CI fast. Every
//! optimum is also the service configuration's, to the bit (see
//! `common`).

use blitzsplit::catalog::{mean_cardinality_axis, variability_axis, Topology, Workload};
use blitzsplit::{DiskNestedLoops, Kappa0, SortMerge};

mod common;

#[test]
fn every_grid_point_optimizes_to_a_finite_plan() {
    let n = 9;
    for topo in Topology::ALL {
        for &mu in &mean_cardinality_axis(6) {
            for &v in &variability_axis(3) {
                let spec = Workload::new(n, topo, mu, v).spec();
                for cost in [
                    common::optimize_checked(&spec, &Kappa0).cost,
                    common::optimize_checked(&spec, &SortMerge).cost,
                    common::optimize_checked(&spec, &DiskNestedLoops::default()).cost,
                ] {
                    assert!(
                        cost.is_finite(),
                        "infinite optimum at {} mu={mu} v={v}",
                        topo.name()
                    );
                    assert!(cost >= 0.0);
                }
            }
        }
    }
}

#[test]
fn result_cardinality_equals_mu_on_the_whole_grid() {
    let n = 9;
    for topo in Topology::ALL {
        for &mu in &[4.64, 100.0, 46_400.0] {
            for &v in &variability_axis(3) {
                let spec = Workload::new(n, topo, mu, v).spec();
                let opt = common::optimize_checked(&spec, &Kappa0);
                assert!(
                    (opt.card - mu).abs() / mu < 1e-6,
                    "{} mu={mu} v={v}: result card {}",
                    topo.name(),
                    opt.card
                );
            }
        }
    }
}

#[test]
fn chain_queries_never_need_products_but_stars_might() {
    // On a chain with near-worst-case selectivities, the optimum under
    // κ0 should be product-free (the graph is connected and chains don't
    // reward products).
    let spec = Workload::new(10, Topology::Chain, 100.0, 0.5).spec();
    let opt = common::optimize_checked(&spec, &Kappa0);
    assert!(!opt.plan.contains_cartesian_product(&spec));
}

#[test]
fn appendix_n15_graphs_have_the_published_shapes() {
    let chain = Workload::new(15, Topology::Chain, 100.0, 0.5);
    let g = chain.graph();
    assert_eq!(g.predicates().len(), 14);
    assert!(g.is_acyclic() && g.is_connected());

    let cyc = Workload::new(15, Topology::CyclePlus3, 100.0, 0.5);
    assert_eq!(cyc.graph().predicates().len(), 18);

    let star = Workload::new(15, Topology::Star, 100.0, 0.5);
    let g = star.graph();
    assert_eq!(g.predicates().len(), 14);
    assert_eq!(g.degree(14), 14, "hub is R14, the largest relation");

    let clique = Workload::new(15, Topology::Clique, 100.0, 0.5);
    assert_eq!(clique.graph().predicates().len(), 105);
}

#[test]
fn variability_zero_makes_all_cardinalities_equal_and_sels_uniform_per_degree() {
    let w = Workload::new(12, Topology::Star, 1000.0, 0.0);
    let spec = w.spec();
    for i in 0..11 {
        assert!((spec.card(i) - 1000.0).abs() < 1e-6);
    }
    // All spoke selectivities equal by symmetry.
    let s0 = spec.selectivity(11, 0);
    for i in 1..11 {
        assert!((spec.selectivity(11, i) - s0).abs() < 1e-12);
    }
}

#[test]
fn optimization_cost_orders_match_the_papers_qualitative_claims() {
    // Clique enumeration does the most κ''-conditional work at low mean
    // cardinality; chains the least — measured via instrumentation rather
    // than (noisy) wall-clock in this test.
    use blitzsplit::core::{optimize_join_into, AosTable, Counters};
    use blitzsplit::DriveOptions;
    let n = 11;
    let count = |topo: Topology, mu: f64| -> u64 {
        let spec = Workload::new(n, topo, mu, 0.0).spec();
        let mut c = Counters::default();
        let _: AosTable = optimize_join_into::<_, _, _, true>(
            &spec,
            &DiskNestedLoops::default(),
            f32::INFINITY,
            DriveOptions::serial(),
            &mut c,
        );
        c.kappa_dep_evals
    };
    // At μ = 1 everything is expensive (tight cost spacing) and pruning
    // barely helps; the counts approach the 3^n ceiling for all shapes.
    // At large μ the chain prunes hardest.
    let chain = count(Topology::Chain, 1e4);
    let clique = count(Topology::Clique, 1e4);
    assert!(
        chain < clique,
        "chain should evaluate kappa'' less than clique ({chain} vs {clique})"
    );
}
