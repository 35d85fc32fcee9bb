//! Criterion micro-benchmarks for the core machinery: subset enumeration,
//! Cartesian-product optimization by `n`, join optimization by topology
//! and cost model, threshold pruning, and the enumerator shootout.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use blitz_baselines::{optimize_dpsize, optimize_dpsub, optimize_left_deep};
use blitz_baselines::{Connectivity, CrossProducts, ProductPolicy};
use blitz_catalog::{Topology, Workload};
use blitz_core::{
    optimize_join_into, optimize_join_threshold_with, optimize_products_into, AosTable,
    DiskNestedLoops, DriveOptions, Kappa0, NoStats, RelSet, TableLayout, ThresholdSchedule,
};

fn bench_subset_enumeration(c: &mut Criterion) {
    let mut g = c.benchmark_group("subset_enumeration");
    for bits in [10u32, 14, 18] {
        let s = RelSet::from_bits((1 << bits) - 1);
        g.bench_with_input(BenchmarkId::new("proper_subsets", bits), &s, |b, &s| {
            b.iter(|| {
                let mut acc = 0u32;
                for sub in s.proper_subsets() {
                    acc ^= sub.bits();
                }
                black_box(acc)
            })
        });
    }
    g.finish();
}

fn bench_cartesian(c: &mut Criterion) {
    let mut g = c.benchmark_group("cartesian_optimize");
    g.sample_size(20);
    for n in [8usize, 10, 12, 14] {
        let cards: Vec<f64> = (0..n).map(|i| 10.0 * 1.5f64.powi(i as i32)).collect();
        g.bench_with_input(BenchmarkId::new("kappa0", n), &cards, |b, cards| {
            b.iter(|| {
                let mut stats = NoStats;
                let t: AosTable = optimize_products_into::<AosTable, _, _, true>(
                    cards,
                    &Kappa0,
                    f32::INFINITY,
                    DriveOptions::serial(),
                    &mut stats,
                );
                black_box(t.cost(RelSet::full(cards.len())))
            })
        });
    }
    g.finish();
}

fn bench_join_topologies(c: &mut Criterion) {
    let mut g = c.benchmark_group("join_optimize_n12");
    g.sample_size(20);
    for topo in Topology::ALL {
        let spec = Workload::new(12, topo, 100.0, 0.5).spec();
        g.bench_with_input(BenchmarkId::new("kappa0", topo.name()), &spec, |b, spec| {
            b.iter(|| {
                let mut stats = NoStats;
                let t: AosTable = optimize_join_into::<_, _, _, true>(
                    spec,
                    &Kappa0,
                    f32::INFINITY,
                    DriveOptions::serial(),
                    &mut stats,
                );
                black_box(t.cost(spec.all_rels()))
            })
        });
        g.bench_with_input(BenchmarkId::new("kappa_dnl", topo.name()), &spec, |b, spec| {
            b.iter(|| {
                let mut stats = NoStats;
                let t: AosTable = optimize_join_into::<_, _, _, true>(
                    spec,
                    &DiskNestedLoops::default(),
                    f32::INFINITY,
                    DriveOptions::serial(),
                    &mut stats,
                );
                black_box(t.cost(spec.all_rels()))
            })
        });
    }
    g.finish();
}

fn bench_threshold(c: &mut Criterion) {
    let mut g = c.benchmark_group("threshold_chain_n14");
    g.sample_size(20);
    let spec = Workload::new(14, Topology::Chain, 1000.0, 0.5).spec();
    g.bench_function("unthresholded", |b| {
        b.iter(|| {
            let mut stats = NoStats;
            let t: AosTable = optimize_join_into::<_, _, _, true>(
                &spec,
                &Kappa0,
                f32::INFINITY,
                DriveOptions::serial(),
                &mut stats,
            );
            black_box(t.cost(spec.all_rels()))
        })
    });
    g.bench_function("threshold_1e9", |b| {
        b.iter(|| {
            let schedule = ThresholdSchedule::new(1e9, 1e5, 6);
            let out = optimize_join_threshold_with(&spec, &Kappa0, schedule, DriveOptions::serial())
                .unwrap();
            black_box(out.optimized.cost)
        })
    });
    g.finish();
}

fn bench_enumerator_shootout(c: &mut Criterion) {
    let mut g = c.benchmark_group("enumerators_n12");
    g.sample_size(20);
    let spec = Workload::new(12, Topology::CyclePlus3, 100.0, 0.5).spec();
    g.bench_function("blitzsplit", |b| {
        b.iter(|| {
            let mut stats = NoStats;
            let t: AosTable = optimize_join_into::<_, _, _, true>(
                &spec,
                &Kappa0,
                f32::INFINITY,
                DriveOptions::serial(),
                &mut stats,
            );
            black_box(t.cost(spec.all_rels()))
        })
    });
    g.bench_function("dpsub_explicit", |b| {
        b.iter(|| black_box(optimize_dpsub(&spec, &Kappa0, Connectivity::ProductsAllowed).cost))
    });
    g.bench_function("dpsub_connected_only", |b| {
        b.iter(|| black_box(optimize_dpsub(&spec, &Kappa0, Connectivity::ConnectedOnly).cost))
    });
    g.bench_function("dpsize", |b| {
        b.iter(|| black_box(optimize_dpsize(&spec, &Kappa0, CrossProducts::Allowed).cost))
    });
    g.bench_function("left_deep", |b| {
        b.iter(|| black_box(optimize_left_deep(&spec, &Kappa0, ProductPolicy::Allowed).cost))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_subset_enumeration,
    bench_cartesian,
    bench_join_topologies,
    bench_threshold,
    bench_enumerator_shootout
);
criterion_main!(benches);
