//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. nested-`if` pruning on/off (the paper's key constant-factor trick);
//! 2. array-of-structs vs hot/cold split table layout;
//! 3. subset visit order — natural successor vs odd-stride (footnote 3);
//! 4. sort-merge log memoization via the table's aux column vs inline
//!    recomputation in `κ''`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use blitz_catalog::{Topology, Workload};
use blitz_core::bitset::StridedSubsets;
use blitz_core::{
    optimize_join_into, AosTable, CostModel, DiskNestedLoops, DriveOptions, HotColdTable, JoinSpec,
    NoStats, RelSet, SortMerge, TableLayout,
};

/// Sort-merge model *without* the aux-column memoization: the logarithm
/// is recomputed inside every κ'' evaluation, exactly what the paper's
/// "can be memoized in the dynamic programming table" remark avoids.
#[derive(Copy, Clone, Debug, Default)]
struct SortMergeNoMemo;

impl CostModel for SortMergeNoMemo {
    const HAS_DEP: bool = true;
    const HAS_AUX: bool = false;

    #[inline]
    fn kappa_ind(&self, _out: f64) -> f32 {
        0.0
    }

    #[inline]
    fn kappa_dep(&self, _out: f64, lhs: f64, rhs: f64, _la: f32, _ra: f32) -> f32 {
        (blitz_core::cost::sort_term(lhs) + blitz_core::cost::sort_term(rhs)) as f32
    }

    fn name(&self) -> &'static str {
        "kappa_sm (no memo)"
    }
}

/// One serial κ_dnl optimization of `spec` into a fresh `L` table;
/// returns the full set's cost.
fn dnl_cost<L: TableLayout, const PRUNE: bool>(spec: &JoinSpec) -> f32 {
    let t: L = optimize_join_into::<_, _, _, PRUNE>(
        spec,
        &DiskNestedLoops::default(),
        f32::INFINITY,
        DriveOptions::serial(),
        &mut NoStats,
    );
    t.cost(spec.all_rels())
}

fn bench_pruning(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_pruning_n13_dnl");
    g.sample_size(15);
    let spec = Workload::new(13, Topology::CyclePlus3, 100.0, 0.5).spec();
    g.bench_function("nested_if_pruning", |b| {
        b.iter(|| black_box(dnl_cost::<AosTable, true>(&spec)))
    });
    g.bench_function("unconditional_kappa", |b| {
        b.iter(|| black_box(dnl_cost::<AosTable, false>(&spec)))
    });
    g.finish();
}

fn bench_layout(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_layout_n14");
    g.sample_size(15);
    let spec = Workload::new(14, Topology::Clique, 100.0, 0.5).spec();
    g.bench_function("aos", |b| b.iter(|| black_box(dnl_cost::<AosTable, true>(&spec))));
    g.bench_function("hotcold", |b| b.iter(|| black_box(dnl_cost::<HotColdTable, true>(&spec))));
    g.finish();
}

fn bench_visit_order(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_visit_order");
    let s = RelSet::from_bits((1 << 16) - 1);
    g.bench_function("natural_successor", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for sub in s.proper_subsets() {
                acc ^= sub.bits();
            }
            black_box(acc)
        })
    });
    g.bench_function("odd_stride_9", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for sub in StridedSubsets::new(s, 9) {
                acc ^= sub.bits();
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_sm_memoization(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_sm_memo_n13");
    g.sample_size(15);
    let spec = Workload::new(13, Topology::Star, 100.0, 0.5).spec();
    g.bench_function("memoized_aux_column", |b| {
        b.iter(|| {
            let mut stats = NoStats;
            let t: AosTable = optimize_join_into::<_, _, _, true>(
                &spec,
                &SortMerge,
                f32::INFINITY,
                DriveOptions::serial(),
                &mut stats,
            );
            black_box(t.cost(spec.all_rels()))
        })
    });
    g.bench_function("recompute_log_inline", |b| {
        b.iter(|| {
            let mut stats = NoStats;
            let t: AosTable = optimize_join_into::<_, _, _, true>(
                &spec,
                &SortMergeNoMemo,
                f32::INFINITY,
                DriveOptions::serial(),
                &mut stats,
            );
            black_box(t.cost(spec.all_rels()))
        })
    });
    g.finish();
}

fn bench_compact_table(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_compact_table_cartesian_n14");
    g.sample_size(15);
    let cards: Vec<f64> = (0..14).map(|i| 10.0 * 1.5f64.powi(i)).collect();
    g.bench_function("compact_16B_rows", |b| {
        b.iter(|| {
            let mut stats = NoStats;
            let t: blitz_core::CompactProductTable =
                blitz_core::optimize_products_into::<_, _, _, true>(
                    &cards,
                    &blitz_core::Kappa0,
                    f32::INFINITY,
                    DriveOptions::serial(),
                    &mut stats,
                );
            black_box(t.cost(RelSet::full(14)))
        })
    });
    g.bench_function("full_32B_rows", |b| {
        b.iter(|| {
            let mut stats = NoStats;
            let t: AosTable = blitz_core::optimize_products_into::<_, _, _, true>(
                &cards,
                &blitz_core::Kappa0,
                f32::INFINITY,
                DriveOptions::serial(),
                &mut stats,
            );
            black_box(t.cost(RelSet::full(14)))
        })
    });
    g.finish();
}

fn bench_interesting_orders(c: &mut Criterion) {
    use blitz_core::ordered::{optimize_ordered, optimize_ordered_naive, OrderedSpec};
    let mut g = c.benchmark_group("ablation_interesting_orders_n10");
    g.sample_size(15);
    // Star on one shared hub key: orders matter.
    let spec = blitz_core::JoinSpec::new(
        &(0..10).map(|i| 1000.0 + 100.0 * i as f64).collect::<Vec<_>>(),
        &(1..10).map(|i| (0, i, 1e-3)).collect::<Vec<_>>(),
    )
    .unwrap();
    let ospec = OrderedSpec::new(spec, vec![0; 9]);
    g.bench_function("order_aware", |b| {
        b.iter(|| black_box(optimize_ordered(&ospec).cost))
    });
    g.bench_function("order_blind", |b| {
        b.iter(|| black_box(optimize_ordered_naive(&ospec).cost))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_pruning,
    bench_layout,
    bench_visit_order,
    bench_sm_memoization,
    bench_compact_table,
    bench_interesting_orders
);
criterion_main!(benches);
