//! Layout equivalence: the DP-table layout is a pure memory-layout choice.
//!
//! The optimizer's contract is that `AosTable` and `HotColdTable` — and,
//! for Cartesian-product-only problems, `CompactProductTable` — are
//! interchangeable down to the last bit: every row's cost bits,
//! cardinality bits and `best_lhs`, the extracted plan, and even the
//! §3.3 instrumentation counters are identical across layouts and
//! drivers (serial and rank-wave parallel at any worker count). Anything
//! less and a "perf knob" would silently change query plans.
//!
//! Only hot/cold runs waves; AoS and the 16-byte rows are serial
//! references. These tests pin the contract by checking hot/cold —
//! serial and at 2 and 5 threads — against serial AoS, across the four
//! paper topologies × three cost models, and through a multi-pass
//! threshold schedule.

use blitzsplit::catalog::{Topology, Workload};
use blitzsplit::core::{
    optimize_join_into, optimize_join_threshold_arena_with, optimize_products_into, AosTable,
    CompactProductTable, Counters, HotColdTable, PlanArena, RelSet, TableLayout,
};
use blitzsplit::{
    CostModel, DiskNestedLoops, DriveOptions, JoinSpec, Kappa0, SmDnl, SortMerge,
    ThresholdSchedule,
};

const TOPOLOGIES: [Topology; 4] =
    [Topology::Chain, Topology::CyclePlus3, Topology::Star, Topology::Clique];

/// Every execution policy hot/cold must match serial AoS under.
fn drive_variants() -> Vec<(String, DriveOptions)> {
    let mut v = vec![("serial".to_string(), DriveOptions::serial())];
    for threads in [2usize, 5] {
        v.push((format!("threads={threads}"), DriveOptions::parallel(threads)));
    }
    v
}

/// One row's bit-level identity: cost bits, cardinality bits,
/// fan-product bits, winning split.
type RowBits = (u32, u64, u64, RelSet);

/// Bit-level snapshot of every non-empty row.
fn rows<L: TableLayout>(n: usize, table: &L) -> Vec<RowBits> {
    (1u32..(1u32 << n))
        .map(|bits| {
            let s = RelSet::from_bits(bits);
            (
                table.cost(s).to_bits(),
                table.card(s).to_bits(),
                table.pi_fan(s).to_bits(),
                table.best_lhs(s),
            )
        })
        .collect()
}

/// Rows without the fan product — `CompactProductTable` does not carry
/// one (products never need it), so the product comparison drops it.
fn product_rows<L: TableLayout>(n: usize, table: &L) -> Vec<(u32, u64, RelSet)> {
    (1u32..(1u32 << n))
        .map(|bits| {
            let s = RelSet::from_bits(bits);
            (table.cost(s).to_bits(), table.card(s).to_bits(), table.best_lhs(s))
        })
        .collect()
}

fn join_snapshot<L: TableLayout, M: CostModel + Sync>(
    spec: &JoinSpec,
    model: &M,
    options: DriveOptions,
) -> (Vec<RowBits>, Counters) {
    let mut counters = Counters::default();
    let table: L = optimize_join_into::<L, M, Counters, true>(
        spec,
        model,
        f32::INFINITY,
        options,
        &mut counters,
    );
    (rows(spec.n(), &table), counters)
}

fn check_join_layouts<M: CostModel + Sync>(spec: &JoinSpec, model: &M) {
    let (reference, reference_counters) =
        join_snapshot::<AosTable, M>(spec, model, DriveOptions::serial());
    for (label, options) in drive_variants() {
        let (got_rows, got_counters) = join_snapshot::<HotColdTable, M>(spec, model, options);
        assert_eq!(
            got_rows,
            reference,
            "{} n={} {label} hotcold: table rows diverged from serial aos",
            model.name(),
            spec.n()
        );
        assert_eq!(
            got_counters,
            reference_counters,
            "{} n={} {label} hotcold: counters diverged from serial aos",
            model.name(),
            spec.n()
        );
    }
}

#[test]
fn join_layouts_agree_bit_for_bit_across_drivers_and_schedules() {
    for topo in TOPOLOGIES {
        let spec = Workload::new(8, topo, 100.0, 0.5).spec();
        check_join_layouts(&spec, &Kappa0);
        check_join_layouts(&spec, &SortMerge);
        check_join_layouts(&spec, &DiskNestedLoops::default());
    }
}

/// Irregular cardinalities (ties, huge skew) at a thread count that does
/// not divide any wave evenly.
#[test]
fn join_layouts_agree_on_skewed_specs() {
    let spec = JoinSpec::new(
        &[1.0, 1.0, 1e6, 3.0, 3.0, 250.0, 8.0],
        &[(0, 1, 0.5), (1, 2, 1e-5), (2, 3, 0.9), (4, 5, 0.01), (0, 6, 1.0)],
    )
    .unwrap();
    check_join_layouts(&spec, &Kappa0);
    check_join_layouts(&spec, &SmDnl::default());
}

fn product_snapshot<L: TableLayout, M: CostModel + Sync>(
    cards: &[f64],
    model: &M,
    options: DriveOptions,
) -> (Vec<(u32, u64, RelSet)>, Counters) {
    let mut counters = Counters::default();
    let table: L = optimize_products_into::<L, M, Counters, true>(
        cards,
        model,
        f32::INFINITY,
        options,
        &mut counters,
    );
    (product_rows(cards.len(), &table), counters)
}

fn check_product_layouts<M: CostModel + Sync>(cards: &[f64], model: &M) {
    assert!(!M::HAS_AUX, "CompactProductTable is only valid without aux state");
    let (reference, reference_counters) =
        product_snapshot::<AosTable, M>(cards, model, DriveOptions::serial());
    // The paper's 16-byte rows are a serial reference too.
    let compact = product_snapshot::<CompactProductTable, M>(cards, model, DriveOptions::serial());
    assert_eq!(compact.0, reference, "{} products compact: rows diverged from aos", model.name());
    assert_eq!(
        compact.1,
        reference_counters,
        "{} products compact: counters diverged from aos",
        model.name()
    );
    for (label, options) in drive_variants() {
        let (got_rows, got_counters) = product_snapshot::<HotColdTable, M>(cards, model, options);
        assert_eq!(
            got_rows,
            reference,
            "{} products {label} hotcold: rows diverged from serial aos",
            model.name()
        );
        assert_eq!(
            got_counters,
            reference_counters,
            "{} products {label} hotcold: counters diverged from serial aos",
            model.name()
        );
    }
}

#[test]
fn product_layouts_agree_including_compact() {
    let cards = [5.0, 100.0, 3.0, 40.0, 77.0, 12.0, 9.0, 250.0];
    check_product_layouts(&cards, &Kappa0);
    check_product_layouts(&cards, &DiskNestedLoops::default());
}

fn threshold_snapshot<L: TableLayout>(
    spec: &JoinSpec,
    schedule: ThresholdSchedule,
    options: DriveOptions,
) -> (Vec<RowBits>, Counters, u32, u32) {
    let mut counters = Counters::default();
    let mut table = L::with_rels(spec.n());
    let outcome = optimize_join_threshold_arena_with::<L, Kappa0, Counters, true>(
        &mut table,
        &mut PlanArena::new(),
        spec,
        &Kappa0,
        schedule,
        options,
        &mut counters,
    );
    (rows(spec.n(), &table), counters, outcome.passes, outcome.final_cap.to_bits())
}

/// A threshold schedule that escalates across passes must agree across
/// layouts too — each pass refills the table, so a layout whose
/// initial (+∞-cost) state diverged would change the pass count or the
/// rows pruned under the early caps, and surface here.
#[test]
fn threshold_schedule_is_layout_and_schedule_invariant() {
    let spec = Workload::new(10, Topology::Clique, 1000.0, 0.5).spec();
    let schedule = ThresholdSchedule::new(10.0, 1e3, 6);

    let reference = threshold_snapshot::<AosTable>(&spec, schedule, DriveOptions::serial());
    assert!(reference.2 > 1, "want a schedule that actually escalates");

    for (label, options) in drive_variants() {
        let got = threshold_snapshot::<HotColdTable>(&spec, schedule, options);
        assert_eq!(got, reference, "threshold {label} hotcold diverged from serial aos");
    }
}
