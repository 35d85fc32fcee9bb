//! Plan-cost thresholds (paper Section 6.4): optimize the same query with
//! a generous threshold (one fast pass), a hopeless threshold (escalating
//! re-optimization passes), and no threshold at all — verifying that all
//! routes agree on the optimum and showing how much enumeration the
//! threshold skips.
//!
//! Run with: `cargo run --release --example threshold_reoptimization`

use blitzsplit::catalog::{Topology, Workload};
use blitzsplit::core::{
    optimize_join_threshold_arena_with, AosTable, Counters, Kappa0, PlanArena, TableLayout,
};
use blitzsplit::{optimize_join, DriveOptions, ThresholdSchedule};

fn main() {
    // A 13-relation chain query of the paper's Appendix shape.
    let spec = Workload::new(13, Topology::Chain, 1000.0, 0.5).spec();

    let unbounded = optimize_join(&spec, &Kappa0).unwrap();
    println!("unbounded optimum: cost {:.4e}", unbounded.cost);
    println!("  plan {}\n", unbounded.plan);

    for (label, schedule) in [
        ("generous threshold 1e9", ThresholdSchedule::new(1e9, 1e5, 5)),
        ("tight threshold 1e2 (escalates)", ThresholdSchedule::new(1e2, 1e3, 5)),
    ] {
        let mut counters = Counters::default();
        let outcome = optimize_join_threshold_arena_with::<AosTable, _, _, true>(
            &mut AosTable::with_rels(spec.n()),
            &mut PlanArena::new(),
            &spec,
            &Kappa0,
            schedule,
            DriveOptions::serial(),
            &mut counters,
        );
        println!("{label}:");
        println!("  passes = {}, final cap = {:.1e}", outcome.passes, outcome.final_cap);
        println!(
            "  cost = {:.4e} (matches unbounded: {})",
            outcome.cost,
            (outcome.cost - unbounded.cost).abs() <= unbounded.cost.abs() * 1e-6
        );
        println!(
            "  split loops skipped by the threshold: {} of {} subsets",
            counters.loops_skipped, counters.subsets
        );
        println!("  split-loop iterations across passes: {}\n", counters.loop_iters);
    }

    // Reference: enumeration volume without any threshold.
    let mut counters = Counters::default();
    let _t: AosTable = blitzsplit::core::optimize_join_into::<_, _, _, true>(
        &spec,
        &Kappa0,
        f32::INFINITY,
        DriveOptions::serial(),
        &mut counters,
    );
    println!("no threshold: {} split-loop iterations in 1 pass", counters.loop_iters);
}
