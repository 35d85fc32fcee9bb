//! The certified threshold: one DP pass capped just above greedy GOO's
//! plan cost (`certified_schedule`, what the service and the one-shot
//! CLI run) never needs a second pass, and returns the bits of an
//! uncapped run.
//!
//! The optimum costs no more than GOO's plan, and every subplan costs no
//! more than its plan (κ ≥ 0, monotone f32 addition), so the cap prunes
//! only rows no cheaper plan can use. The inputs go for the edges of
//! that argument: costs that tie exactly (GOO is then often optimal and
//! the cap sits one margin above the optimum), card 1 and selectivity 1,
//! products only, and cards whose plans overflow f32 (the certified
//! schedule is then one uncapped pass). Each runs under the four shipped
//! models on three configurations: the paper's serial AoS split scalar
//! reference, and the service's hot/cold conv SIMD, serial and on two
//! wave threads.
//!
//! Every case is drawn from `StdRng::seed_from_u64(SEED + case)`, and a
//! failure names its case, so any failure replays exactly.

use blitzsplit::baselines::goo;
use blitzsplit::catalog::{Topology, Workload};
use blitzsplit::service::certified_schedule;
use blitzsplit::{
    optimize_join_threshold_with, optimize_join_with, CostModel, DiskNestedLoops, DriveOptions,
    DriverChoice, JoinSpec, Kappa0, KernelChoice, LayoutChoice, SmDnl, SortMerge,
    ThresholdSchedule,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0x6365_7274;

const TOPOLOGIES: [Topology; 4] =
    [Topology::Chain, Topology::CyclePlus3, Topology::Star, Topology::Clique];

/// The input families, each a way to draw statistics for a topology.
#[derive(Copy, Clone, Debug)]
enum Family {
    /// Card 1 on every relation, random selectivities.
    CardOne,
    /// Random cards, selectivity 1 on every edge.
    SelOne,
    /// One card and one selectivity everywhere: exact cost ties.
    Uniform,
    /// Random cards and no predicates: products only.
    Products,
    /// Cards whose full product overflows f32, so GOO's cost does too.
    Overflow,
    /// Log-uniform cards and selectivities.
    Random,
}

/// Every family, in the order the service-size sweep takes them.
const FAMILIES: [Family; 6] = [
    Family::Uniform,
    Family::Overflow,
    Family::Random,
    Family::Products,
    Family::CardOne,
    Family::SelOne,
];

fn draw(family: Family, n: usize, topology: Topology, rng: &mut StdRng) -> JoinSpec {
    let edges = Workload::new(n, topology, 1.0, 0.0).edges();
    let log_uniform = |rng: &mut StdRng, lo: f64, hi: f64| 10f64.powf(rng.random_range(lo..hi));
    let (cards, sels): (Vec<f64>, Vec<f64>) = match family {
        Family::CardOne => {
            (vec![1.0; n], edges.iter().map(|_| log_uniform(rng, -3.0, 0.0)).collect())
        }
        Family::SelOne => {
            ((0..n).map(|_| log_uniform(rng, 0.0, 4.0)).collect(), vec![1.0; edges.len()])
        }
        Family::Uniform => {
            let card = [10.0, 100.0, 1000.0][rng.random_range(0..3usize)];
            let sel = [1.0, 0.1, 0.01][rng.random_range(0..3usize)];
            (vec![card; n], vec![sel; edges.len()])
        }
        Family::Products => ((0..n).map(|_| log_uniform(rng, 0.0, 3.0)).collect(), Vec::new()),
        Family::Overflow => {
            // Every card at least 10^(40/n): the full result, which every
            // plan's last join produces, is at least 10^40 > f32::MAX.
            let floor = 40.0 / n as f64;
            let cards = (0..n).map(|_| log_uniform(rng, floor, floor + 1.0)).collect();
            (cards, vec![1.0; edges.len()])
        }
        Family::Random => (
            (0..n).map(|_| log_uniform(rng, 0.0, 5.0)).collect(),
            edges.iter().map(|_| log_uniform(rng, -4.0, 0.0)).collect(),
        ),
    };
    let preds: Vec<(usize, usize, f64)> = match family {
        Family::Products => Vec::new(),
        _ => edges.iter().zip(sels).map(|(&(i, j), s)| (i, j, s)).collect(),
    };
    JoinSpec::new(&cards, &preds).expect("drawn statistics are valid")
}

/// The three configurations: the paper's reference and the service's
/// path, serial and on two wave threads.
fn configurations() -> [(&'static str, DriveOptions); 3] {
    let service = |threads: usize| {
        DriveOptions::parallel(threads)
            .with_layout(LayoutChoice::HotCold)
            .with_kernel(KernelChoice::Simd)
            .with_driver(DriverChoice::Conv)
    };
    let reference = DriveOptions::serial()
        .with_layout(LayoutChoice::Aos)
        .with_kernel(KernelChoice::Scalar)
        .with_driver(DriverChoice::Split);
    [
        ("aos-split-scalar", reference),
        ("hotcold-conv-simd", service(1)),
        ("2t-hotcold-conv-simd", service(2)),
    ]
}

/// Run `spec` under `model` capped by the certificate and uncapped on
/// every configuration, and assert the certificate's contract.
fn check<M: CostModel + Sync>(case: &str, spec: &JoinSpec, model: &M) {
    let (_, goo_cost) = goo(spec, model);
    let schedule = certified_schedule(spec, model);
    assert_eq!(schedule, ThresholdSchedule::certified(goo_cost), "{case}");
    for (config, options) in configurations() {
        let ctx = format!("{case} {} {config} (GOO cost {goo_cost:e})", model.name());
        let capped = optimize_join_threshold_with(spec, model, schedule, options).unwrap();
        let uncapped = optimize_join_with(spec, model, options).unwrap();
        assert_eq!(capped.passes, 1, "{ctx}: a certified pass failed");
        assert_eq!(capped.final_cap.is_finite(), goo_cost.is_finite(), "{ctx}: final cap");
        let (got, want) = (&capped.optimized, &uncapped);
        let (cost, uncapped_cost) = (got.cost, want.cost);
        let cost_ctx = format!("{ctx}: cost {cost} vs {uncapped_cost}");
        assert_eq!(cost.to_bits(), uncapped_cost.to_bits(), "{cost_ctx}");
        assert_eq!(got.card.to_bits(), want.card.to_bits(), "{ctx}: card");
        assert_eq!(got.plan.canonical(), want.plan.canonical(), "{ctx}: plan");
    }
}

fn check_all_models(case: &str, spec: &JoinSpec) {
    check(case, spec, &Kappa0);
    check(case, spec, &SortMerge);
    check(case, spec, &DiskNestedLoops::default());
    check(case, spec, &SmDnl::default());
}

/// Every family on every topology at n = 2 and 3.
#[test]
fn certified_pass_is_exact_on_small_queries() {
    let mut case = 0;
    for n in [2, 3] {
        for topology in TOPOLOGIES {
            for family in FAMILIES {
                let mut rng = StdRng::seed_from_u64(SEED + case);
                let spec = draw(family, n, topology, &mut rng);
                let label = format!("case {case}: {family:?} n={n} {}", topology.name());
                check_all_models(&label, &spec);
                case += 1;
            }
        }
    }
}

/// Every topology at n = 13–16, the families taken in turn so each
/// appears at least twice. Unoptimized builds run these DPs some 30×
/// slower, so they check n = 13 only (the first four families); the
/// optimized run, which CI makes, checks all four sizes.
#[test]
fn certified_pass_is_exact_at_service_sizes() {
    let sizes = if cfg!(debug_assertions) { 13..=13 } else { 13..=16 };
    let mut case = 1000;
    for (i, n) in sizes.enumerate() {
        for (j, topology) in TOPOLOGIES.into_iter().enumerate() {
            let family = FAMILIES[(i * TOPOLOGIES.len() + j) % FAMILIES.len()];
            let mut rng = StdRng::seed_from_u64(SEED + case);
            let spec = draw(family, n, topology, &mut rng);
            let label = format!("case {case}: {family:?} n={n} {}", topology.name());
            check_all_models(&label, &spec);
            case += 1;
        }
    }
}

/// The overflow family really overflows GOO's cost (and the ties family
/// really ties), so the tests above cover both edges.
#[test]
fn families_reach_their_edges() {
    for n in [2, 3, 13, 16] {
        for topology in TOPOLOGIES {
            let mut rng = StdRng::seed_from_u64(SEED);
            let spec = draw(Family::Overflow, n, topology, &mut rng);
            assert!(goo(&spec, &Kappa0).1.is_infinite(), "n={n} {}", topology.name());
            let schedule = certified_schedule(&spec, &Kappa0);
            assert!(schedule.initial.is_infinite() && schedule.max_passes == 0);
        }
    }
    // A uniform clique, one card and one selectivity: GOO finds an
    // optimal plan, so the cap sits one margin above the optimum.
    let spec = draw(Family::Uniform, 13, Topology::Clique, &mut StdRng::seed_from_u64(SEED));
    let (_, options) = configurations()[1];
    let optimum = optimize_join_with(&spec, &Kappa0, options).unwrap().cost;
    let (_, goo_cost) = goo(&spec, &Kappa0);
    assert!(goo_cost <= optimum * (1.0 + 1e-6), "GOO {goo_cost} vs optimum {optimum}");
}
