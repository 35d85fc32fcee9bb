//! Kernel equivalence: the split kernel is a pure execution-strategy
//! choice.
//!
//! The optimizer's contract is that the scalar reference kernel and the
//! SIMD kernel (whatever `Simd` resolves to on this host — AVX-512,
//! AVX2, NEON, or the scalar fallback) are interchangeable down to the
//! last bit: every row's cost bits,
//! cardinality bits and `best_lhs`, the §3.3 instrumentation counters,
//! the threshold pass count, and the extracted canonical plan are
//! identical across kernels, drivers (serial and rank-wave parallel),
//! and table layouts. Anything less and a "perf knob" would silently
//! change query plans. AoS is serial-only (only hot/cold runs waves),
//! so the parallel rows run on hot/cold.
//!
//! On `AosTable`, which has no dense cost column, the SIMD kernel judges
//! every batch through the portable per-lane path; on `HotColdTable` it
//! gathers from the hot array. Both rows run in every check.
//!
//! Random catalogs drive the bulk of the coverage; tie-heavy
//! (uniform-cost Cartesian) and overflow-cap specs pin the two edge
//! cases where a careless vectorization would diverge first: min-
//! reduction tie-breaking and NaN/∞ mask semantics.

use blitzsplit::catalog::{Topology, Workload};
use blitzsplit::core::{
    optimize_join_threshold_arena_with, AosTable, Counters, HotColdTable, PlanArena, RelSet,
    TableLayout,
};
use blitzsplit::{DriveOptions, JoinSpec, Kappa0, KernelChoice, ThresholdSchedule};
use proptest::prelude::*;

/// One row's bit-level identity: cost bits, cardinality bits, winning
/// split.
type RowBits = (u32, u64, RelSet);

fn rows<L: TableLayout>(n: usize, table: &L) -> Vec<RowBits> {
    (1u32..(1u32 << n))
        .map(|bits| {
            let s = RelSet::from_bits(bits);
            (table.cost(s).to_bits(), table.card(s).to_bits(), table.best_lhs(s))
        })
        .collect()
}

/// Everything a kernel could plausibly perturb, bit-exact.
fn snapshot<L: TableLayout>(
    spec: &JoinSpec,
    schedule: ThresholdSchedule,
    options: DriveOptions,
) -> (Vec<RowBits>, Counters, u32, u32, String) {
    let mut counters = Counters::default();
    let mut table = L::with_rels(spec.n());
    let mut arena = PlanArena::new();
    let outcome = optimize_join_threshold_arena_with::<L, Kappa0, Counters, true>(
        &mut table,
        &mut arena,
        spec,
        &Kappa0,
        schedule,
        options,
        &mut counters,
    );
    (
        rows(spec.n(), &table),
        counters,
        outcome.passes,
        outcome.final_cap.to_bits(),
        format!("{:?}", arena.to_plan(outcome.root).canonical()),
    )
}

/// Every kernel × driver × layout combination must match the serial
/// scalar AoS reference exactly.
fn check_kernels(spec: &JoinSpec, schedule: ThresholdSchedule) {
    let reference = snapshot::<AosTable>(
        spec,
        schedule,
        DriveOptions::serial().with_kernel(KernelChoice::Scalar),
    );
    for kernel in KernelChoice::ALL {
        let serial = DriveOptions::serial().with_kernel(kernel);
        let parallel = DriveOptions::parallel(4).with_kernel(kernel);
        let variants = [
            ("serial aos", snapshot::<AosTable>(spec, schedule, serial)),
            ("serial hotcold", snapshot::<HotColdTable>(spec, schedule, serial)),
            ("threads=4 hotcold", snapshot::<HotColdTable>(spec, schedule, parallel)),
        ];
        for (name, got) in variants {
            assert_eq!(
                got,
                reference,
                "kernel={kernel} {name} n={}: diverged from serial scalar aos",
                spec.n()
            );
        }
    }
}

/// A random join problem of 2..=7 relations with random topology.
fn arb_spec() -> impl Strategy<Value = JoinSpec> {
    (2usize..=7)
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kernels_agree_on_random_catalogs(spec in arb_spec()) {
        check_kernels(&spec, ThresholdSchedule::default());
    }

    #[test]
    fn kernels_agree_under_tight_thresholds(spec in arb_spec(), exp in -2i32..6) {
        // Tight caps exercise the ∞-cost rows and multi-pass escalation
        // alongside the kernels' pruning cascade.
        check_kernels(&spec, ThresholdSchedule::new(10f32.powi(exp), 100.0, 4));
    }
}

#[test]
fn kernels_agree_on_paper_topologies() {
    for topo in [Topology::Chain, Topology::CyclePlus3, Topology::Star, Topology::Clique] {
        let spec = Workload::new(8, topo, 100.0, 0.5).spec();
        check_kernels(&spec, ThresholdSchedule::new(10.0, 1e3, 6));
    }
}

/// Uniform cardinalities make every split of every subset tie on cost:
/// `best_lhs` is then *only* determined by first-wins visit order, the
/// part a careless SIMD min-reduction breaks first.
#[test]
fn kernels_preserve_first_wins_on_uniform_costs() {
    let spec = JoinSpec::cartesian(&[10.0; 9]).unwrap();
    check_kernels(&spec, ThresholdSchedule::default());
}

/// Cardinalities chosen so intermediate costs overflow the early caps
/// (and some overflow `f32` outright): the kernels' comparison masks
/// must treat ∞ and NaN exactly like the scalar `<`.
#[test]
fn kernels_agree_when_costs_overflow_the_cap() {
    let spec = JoinSpec::cartesian(&[1e30, 1e30, 1e32, 1e28, 1e30]).unwrap();
    check_kernels(&spec, ThresholdSchedule::new(1e3, 1e6, 2));
}
