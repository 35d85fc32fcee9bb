//! The in-place local search must reproduce the clone-and-recost loops
//! it replaced, bit for bit.
//!
//! This file keeps those loops' bodies as a test-only reference: each
//! proposal clones the plan through `apply_move` and re-costs all of it
//! through `BigSpec::plan_cost`. `improve_from`, `anneal_from` and the
//! ladder-shaped chunked climb on `LocalSearch` must return the same
//! plan, cost bits and step count, and leave the RNG at the same point,
//! over sizes 2–100, the four Appendix topologies, the four cost models
//! and the edge cases: ties, cards of 1, products only (every
//! selectivity 1), and f32 overflow, where simulated annealing's delta
//! is NaN and it still draws.
//!
//! Built without optimizations it checks sizes up to 19 and short
//! budgets; `cargo test --release --test local_search` runs the full
//! grid.

use blitzsplit::baselines::{
    anneal_from, apply_move, improve_from, LocalSearch, Move, SaParams, SearchOutcome,
};
use blitzsplit::catalog::{Topology, Workload};
use blitzsplit::core::CostModel;
use blitzsplit::ladder::{goo_big, BigSpec};
use blitzsplit::{DiskNestedLoops, Kappa0, Plan, SmDnl, SortMerge};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const TOPOLOGIES: [Topology; 4] =
    [Topology::Chain, Topology::Star, Topology::Clique, Topology::CyclePlus3];

/// Consecutive failures after which the ladder's II phase stops.
const FAILURES: usize = 512;

/// The ladder's II chunk under a wall clock.
const CHUNK: u64 = 1024;

/// Sizes and proposal budget for this build.
fn grid() -> (&'static [usize], u64) {
    if cfg!(debug_assertions) {
        (&[2, 3, 10, 19], 1500)
    } else {
        (&[2, 3, 10, 19, 40, 100], 6000)
    }
}

/// The reference hill climb: the clone-and-recost body `improve_from`
/// had before the arena.
fn ref_improve_from<F: FnMut(&Plan) -> f32>(
    initial: Plan,
    initial_cost: f32,
    rng: &mut StdRng,
    max_steps: u64,
    max_consecutive_failures: usize,
    eval: &mut F,
) -> SearchOutcome {
    let joins = initial.num_joins();
    if joins == 0 {
        return SearchOutcome { plan: initial, cost: initial_cost, steps: 0 };
    }
    let mut plan = initial;
    let mut cost = initial_cost;
    let mut failures = 0usize;
    let mut steps = 0u64;
    while failures < max_consecutive_failures && steps < max_steps {
        let target = rng.random_range(0..joins);
        let mv = Move::ALL[rng.random_range(0..Move::ALL.len())];
        steps += 1;
        match apply_move(&plan, target, mv) {
            Some(candidate) => {
                let c = eval(&candidate);
                if c < cost {
                    plan = candidate;
                    cost = c;
                    failures = 0;
                } else {
                    failures += 1;
                }
            }
            None => failures += 1,
        }
    }
    SearchOutcome { plan, cost, steps }
}

/// The reference annealer: the clone-and-recost body `anneal_from` had
/// before the arena.
fn ref_anneal_from<F: FnMut(&Plan) -> f32>(
    initial: Plan,
    initial_cost: f32,
    rng: &mut StdRng,
    params: &SaParams,
    max_steps: u64,
    eval: &mut F,
) -> SearchOutcome {
    let joins = initial.num_joins();
    if joins == 0 {
        return SearchOutcome { plan: initial, cost: initial_cost, steps: 0 };
    }
    let mut plan = initial.clone();
    let mut cost = initial_cost;
    let mut best = (initial, initial_cost);
    let t0 = (initial_cost as f64).abs().max(1.0) * params.initial_temperature_factor;
    let mut temp = t0;
    let mut steps = 0u64;
    'cooling: while temp > t0 * params.min_temperature_ratio {
        for _ in 0..params.moves_per_stage {
            if steps >= max_steps {
                break 'cooling;
            }
            let target = rng.random_range(0..joins);
            let mv = Move::ALL[rng.random_range(0..Move::ALL.len())];
            steps += 1;
            let Some(candidate) = apply_move(&plan, target, mv) else { continue };
            let c = eval(&candidate);
            let delta = c as f64 - cost as f64;
            if delta <= 0.0 || rng.random::<f64>() < (-delta / temp).exp() {
                plan = candidate;
                cost = c;
                if cost < best.1 {
                    best = (plan.clone(), cost);
                }
            }
        }
        temp *= params.cooling;
    }
    SearchOutcome { plan: best.0, cost: best.1, steps }
}

fn assert_same(got: &SearchOutcome, want: &SearchOutcome, what: &str) {
    assert_eq!(got.steps, want.steps, "{what}: steps");
    assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "{what}: cost {} vs {}", got.cost, want.cost);
    assert_eq!(got.plan, want.plan, "{what}: plan");
}

fn assert_same_stream(got: &mut StdRng, want: &mut StdRng, what: &str) {
    assert_eq!(got.next_u64(), want.next_u64(), "{what}: the RNG's next draw");
}

/// Every search shape on one spec, start plan and model: unchunked II,
/// the ladder's chunked II followed by SA on the same stream, and SA
/// alone.
fn check<M: CostModel>(spec: &BigSpec, model: &M, start: &Plan, steps: u64, what: &str) {
    let mut eval = |p: &Plan| spec.plan_cost(p, model).1;
    let start_cost = eval(start);
    let what = format!("{what}/{}", model.name());

    // Unchunked II.
    let seed = 0x11 ^ steps;
    let (mut rng, mut ref_rng) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
    let got = improve_from(spec, model, start, &mut rng, steps, FAILURES);
    let want = ref_improve_from(start.clone(), start_cost, &mut ref_rng, steps, FAILURES, &mut eval);
    assert_same(&got, &want, &format!("{what} II"));
    assert_same_stream(&mut rng, &mut ref_rng, &format!("{what} II"));

    // The ladder's rung 3 under a wall clock: II in chunks, each with a
    // fresh failure count, then SA with the budget left.
    let (mut rng, mut ref_rng) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
    let mut search = LocalSearch::new(spec, model, start);
    let mut reference = SearchOutcome { plan: start.clone(), cost: start_cost, steps: 0 };
    let (mut spent, mut remaining) = (0u64, steps);
    while remaining > 0 {
        let chunk = remaining.min(CHUNK);
        let got = search.improve(&mut rng, chunk, FAILURES);
        let want = ref_improve_from(
            reference.plan,
            reference.cost,
            &mut ref_rng,
            chunk,
            FAILURES,
            &mut eval,
        );
        assert_eq!(got, want.steps, "{what} chunked II after {spent} steps");
        reference = want;
        spent += got;
        remaining -= got;
        if got < chunk {
            break;
        }
    }
    assert_eq!(search.cost().to_bits(), reference.cost.to_bits(), "{what} chunked II: cost");
    assert_eq!(search.to_plan(), reference.plan, "{what} chunked II: plan");
    let params = SaParams::default();
    let got = search.anneal(&mut rng, &params, remaining);
    let want =
        ref_anneal_from(reference.plan, reference.cost, &mut ref_rng, &params, remaining, &mut eval);
    let got = SearchOutcome { plan: search.to_plan(), cost: search.cost(), steps: got };
    assert_same(&got, &want, &format!("{what} chunked II + SA"));
    assert_same_stream(&mut rng, &mut ref_rng, &format!("{what} chunked II + SA"));

    // SA alone, hot enough to accept uphill moves.
    let params = SaParams { initial_temperature_factor: 1.0, moves_per_stage: 64, ..params };
    let (mut rng, mut ref_rng) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
    let got = anneal_from(spec, model, start, &mut rng, &params, steps);
    let want = ref_anneal_from(start.clone(), start_cost, &mut ref_rng, &params, steps, &mut eval);
    assert_same(&got, &want, &format!("{what} SA"));
    assert_same_stream(&mut rng, &mut ref_rng, &format!("{what} SA"));
}

fn check_models(spec: &BigSpec, steps: u64, what: &str) {
    // GOO's plan, as the ladder starts from, and a left-deep vine in
    // input order, which is deep and often far from any optimum.
    let vine = (1..spec.n()).fold(Plan::scan(0), |acc, r| Plan::join(acc, Plan::scan(r)));
    for start in [goo_big(spec, &Kappa0).0, vine] {
        check(spec, &Kappa0, &start, steps, what);
        check(spec, &SortMerge, &start, steps, what);
        check(spec, &DiskNestedLoops::default(), &start, steps, what);
        check(spec, &SmDnl::default(), &start, steps, what);
    }
}

fn workload(n: usize, topology: Topology) -> BigSpec {
    let g = Workload::new(n, topology, 100.0, 0.5).graph();
    let cards: Vec<f64> = g.relations().iter().map(|r| r.cardinality).collect();
    let preds: Vec<(usize, usize, f64)> =
        g.predicates().iter().map(|p| (p.lhs, p.rhs, p.selectivity)).collect();
    BigSpec::new(&cards, &preds).expect("workload must form a valid BigSpec")
}

#[test]
fn arena_search_matches_the_clone_and_recost_loops_on_the_appendix_topologies() {
    let (sizes, steps) = grid();
    for &n in sizes {
        for topology in TOPOLOGIES {
            if topology == Topology::Clique && n > 64 {
                continue;
            }
            check_models(&workload(n, topology), steps, &format!("{topology:?}/{n}"));
        }
    }
}

#[test]
fn arena_search_matches_the_clone_and_recost_loops_on_edge_cases() {
    let (sizes, steps) = grid();
    for &n in sizes {
        let chain = |card: f64, sel: f64| {
            let preds: Vec<_> = (1..n).map(|i| (i - 1, i, sel)).collect();
            BigSpec::new(&vec![card; n], &preds).unwrap()
        };
        let clique = |card: f64, sel: f64| {
            let preds: Vec<_> = (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j, sel))).collect();
            BigSpec::new(&vec![card; n], &preds).unwrap()
        };
        // Ties: equal cards and selectivities, so many moves cost the same.
        check_models(&chain(100.0, 0.01), steps, &format!("tied chain/{n}"));
        check_models(&clique(100.0, 0.5), steps, &format!("tied clique/{n}"));
        // Cards of 1: every intermediate result has card ≤ 1.
        check_models(&chain(1.0, 0.5), steps, &format!("card-1 chain/{n}"));
        // Selectivity 1 everywhere: products only, no neighbour masks.
        let cards: Vec<f64> = (0..n).map(|i| 2.0 + i as f64).collect();
        check_models(&BigSpec::new(&cards, &[]).unwrap(), steps, &format!("products/{n}"));
        // f32 overflow: every plan past a few joins costs +inf, so II
        // never accepts and SA's delta is inf − inf = NaN.
        check_models(&chain(1e30, 1.0 - 1e-9), steps, &format!("overflow chain/{n}"));
    }
}
