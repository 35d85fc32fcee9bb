//! Reproduces **Figure 6**: optimization times with plan-cost thresholds
//! (Section 6.4), against the unthresholded baselines of Figure 5.
//!
//! * **(a)** κ0 × chain with a fixed threshold of 10⁹: times should drop
//!   well below the unthresholded runs once mean cardinality leaves the
//!   μ ≈ 1 region (the paper reports a flat ~0.1 s on 1996 hardware —
//!   roughly a 6–10× speedup over its Figure 5(a)).
//! * **(b)** κ_dnl × cycle+3 with escalating thresholds starting at 10⁵
//!   (and a second configuration starting at 10¹⁴): times fall as
//!   cardinality rises, then *ripple* where the best plan's cost crosses
//!   a threshold and re-optimization passes kick in — the `passes`
//!   column makes the ripples visible.
//!
//! Each panel also has a "GOO cap" column: the certified schedule the
//! service runs ([`ThresholdSchedule::certified`]), one pass capped just
//! above greedy GOO's plan cost, timed with the GOO run. It needs no
//! guessed threshold, so it takes one pass where the guess ripples.
//!
//! Also verifies the §6.4 footnote-10 claim on chains: with thresholds in
//! place, the per-query κ'' execution count drops toward/below `n³/3`
//! while the `2^n` `T_subset` term persists.
//!
//! Environment knobs: `BLITZ_N` (default 15), `BLITZ_MU_POINTS`
//! (default 10), `BLITZ_BENCH_MIN_MS`.

use blitz_bench::grid::Model;
use blitz_bench::render::{fmt_num, fmt_secs};
use blitz_bench::timing::env_usize;
use blitz_bench::{Table, TimingConfig};
use blitz_catalog::{mean_cardinality_axis, Topology, Workload};
use blitz_core::{
    optimize_join_threshold_arena_with, AosTable, Counters, DiskNestedLoops, DriveOptions,
    PlanArena, TableLayout, ThresholdSchedule,
};

fn panel(
    label: &str,
    model: Model,
    topo: Topology,
    schedule: ThresholdSchedule,
    n: usize,
    cfg: TimingConfig,
) {
    let mus = mean_cardinality_axis(env_usize("BLITZ_MU_POINTS", 10));
    let variability = 0.5;
    println!(
        "Figure 6({label}): {} x {}, initial threshold {:.0e}, escalation x{:.0e} (n = {n}, variability {variability})",
        model.name(),
        topo.name(),
        schedule.initial,
        schedule.factor
    );
    let mut table = Table::new([
        "mean card",
        "unthresholded",
        "thresholded",
        "speedup",
        "passes",
        "GOO cap",
        "cap passes",
        "plan cost",
    ]);
    for &mu in &mus {
        let spec = Workload::new(n, topo, mu, variability).spec();
        let base = model.time(&spec, f32::INFINITY, cfg).as_secs_f64();
        let (t, passes, cost) = model.time_thresholded(&spec, Some(schedule), cfg);
        let (capped, cap_passes, cap_cost) = model.time_thresholded(&spec, None, cfg);
        assert_eq!(cap_cost.to_bits(), cost.to_bits(), "the certified pass changed the optimum");
        let t = t.as_secs_f64();
        table.row([
            format!("{mu:.3e}"),
            fmt_secs(base),
            fmt_secs(t),
            format!("{:.2}x", base / t.max(1e-12)),
            passes.to_string(),
            fmt_secs(capped.as_secs_f64()),
            cap_passes.to_string(),
            fmt_num(cost as f64),
        ]);
    }
    println!("{}", table.render());
}

/// Footnote 10: chain + thresholds drives the κ'' count toward the
/// intrinsic `n³/3` polynomial while the `2^n` subset term remains
/// (measured under κ_dnl, which has a real κ'').
fn chain_poly_counts(n: usize) {
    println!("Section 6.4 check: kappa'' executions on chains with thresholds (n = {n}, kappa_dnl)");
    let mut table = Table::new([
        "mean card",
        "kappa'' evals",
        "n^3/3",
        "loops skipped",
        "subsets (2^n term)",
        "passes",
    ]);
    for &mu in &mean_cardinality_axis(env_usize("BLITZ_MU_POINTS", 10)) {
        let spec = Workload::new(n, Topology::Chain, mu, 0.5).spec();
        let mut c = Counters::default();
        optimize_join_threshold_arena_with::<AosTable, _, _, true>(
            &mut AosTable::with_rels(n),
            &mut PlanArena::new(),
            &spec,
            &DiskNestedLoops::default(),
            ThresholdSchedule::new(1e5, 1e9, 6),
            DriveOptions::serial(),
            &mut c,
        );
        table.row([
            format!("{mu:.3e}"),
            c.kappa_dep_evals.to_string(),
            format!("{:.0}", Counters::bound_chain_poly(n)),
            c.loops_skipped.to_string(),
            c.subsets.to_string(),
            c.passes.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("(counters accumulate across re-optimization passes; the 2^n subset term");
    println!(" is unaffected by plan-cost pruning — footnote 10)");
}

fn main() {
    let n = env_usize("BLITZ_N", 15);
    let cfg = TimingConfig::from_env();
    println!("Figure 6: Optimization times with plan-cost thresholds\n");
    panel("a", Model::K0, Topology::Chain, ThresholdSchedule::new(1e9, 1e5, 6), n, cfg);
    panel("b-lo", Model::Dnl, Topology::CyclePlus3, ThresholdSchedule::new(1e5, 1e9, 6), n, cfg);
    panel("b-hi", Model::Dnl, Topology::CyclePlus3, ThresholdSchedule::new(1e14, 1e9, 6), n, cfg);
    chain_poly_counts(n);
}
