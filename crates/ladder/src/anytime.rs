//! The anytime optimality ladder: exact → hybrid DP → stochastic.
//!
//! [`optimize_ladder`] escalates through planning *rungs* under a shared
//! budget, maintaining a monotone best-plan-so-far:
//!
//! * **rung 0 (greedy seed)** — GOO over the [`BigSpec`], always runs,
//!   guarantees a complete plan whatever happens later;
//! * **rung 1 (exact)** — the blitzsplit `O(3^n)` DP when
//!   `n ≤ max_exact_rels`; its result is the true optimum, so the ladder
//!   stops here with a zero gap;
//! * **rung 2 (hybrid DP)** — linearize the query (IKKBZ when the graph
//!   is a connected tree that fits a [`JoinSpec`]; a greedy
//!   min-intermediate-cardinality order otherwise), then run the exact
//!   optimizer over sliding windows of the order — block boundaries shift
//!   between rounds so relations can re-associate across them — and
//!   stitch the block plans greedily;
//! * **rung 3 (stochastic)** — iterated improvement then simulated
//!   annealing ([`blitz_baselines::improve_from`] /
//!   [`blitz_baselines::anneal_from`]) restarted from the best plan so
//!   far, under a shared proposal budget and one RNG stream.
//!
//! **Budget accounting.** Work budgets (`max_exact_rels`, `dp_rounds`,
//! `refine_steps`) are deterministic: the same config and seed always
//! yields the same plan, and shrinking any single budget never yields a
//! *cheaper* plan (the anytime prefix property — rung-2 rounds and rung-3
//! proposals with a smaller budget are an exact prefix of the longer
//! run). The optional `wall_clock` ceiling is enforced best-effort at
//! rung boundaries, between rung-2 block solves, and between rung-3
//! proposal chunks; enabling it trades determinism for latency safety.
//!
//! **Gap semantics.** When rung 1 ran, its cost is the true optimum and
//! the reported gap is `(cost − exact) / exact = 0`. Otherwise the gap is
//! an *optimality proxy* relative to the greedy seed:
//! `cost / greedy − 1 ≤ 0`, i.e. how far below the greedy baseline the
//! ladder landed. [`LadderReport::gap_basis`] names the bound used.

use crate::bigspec::BigSpec;
use blitz_baselines::{anneal_from, ikkbz_order, improve_from, SaParams};
use blitz_core::{
    optimize_join, optimize_join_with, CostModel, DriveOptions, DriverChoice, Plan, MAX_TABLE_RELS,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// A rung of the ladder, ordered by escalation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rung {
    /// Rung 0: the GOO greedy seed.
    Greedy,
    /// Rung 1: exact blitzsplit DP (true optimum).
    Exact,
    /// Rung 2: IKKBZ-seeded sliding-window block DP.
    HybridDp,
    /// Rung 3: stochastic refinement (II + SA).
    Stochastic,
}

impl Rung {
    /// Rung number (0–3) as reported on the wire and in metrics.
    pub fn index(self) -> u8 {
        match self {
            Rung::Greedy => 0,
            Rung::Exact => 1,
            Rung::HybridDp => 2,
            Rung::Stochastic => 3,
        }
    }

    /// Stable lowercase name (wire protocol / metrics label).
    pub fn name(self) -> &'static str {
        match self {
            Rung::Greedy => "greedy",
            Rung::Exact => "exact",
            Rung::HybridDp => "hybrid_dp",
            Rung::Stochastic => "stochastic",
        }
    }

    /// Parse [`Rung::name`] output back.
    pub fn parse(s: &str) -> Option<Rung> {
        match s {
            "greedy" => Some(Rung::Greedy),
            "exact" => Some(Rung::Exact),
            "hybrid_dp" => Some(Rung::HybridDp),
            "stochastic" => Some(Rung::Stochastic),
            _ => None,
        }
    }
}

/// Which bound the reported optimality gap is measured against.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum GapBasis {
    /// Rung 1 ran: the gap is relative to the true optimum (and is 0).
    Exact,
    /// The gap is a proxy relative to the greedy seed cost.
    Greedy,
}

impl GapBasis {
    /// Stable lowercase name (wire protocol).
    pub fn name(self) -> &'static str {
        match self {
            GapBasis::Exact => "exact",
            GapBasis::Greedy => "greedy",
        }
    }
}

/// Consecutive rejected proposals after which rung 3's iterated
/// improvement hands the remaining budget to simulated annealing.
const II_MAX_CONSECUTIVE_FAILURES: usize = 512;

/// Budgets and knobs for one [`optimize_ladder`] run.
#[derive(Clone, Debug)]
pub struct LadderConfig {
    /// Rung-1 gate: run the exact DP iff `n ≤ max_exact_rels` (clamped to
    /// the table's own [`MAX_TABLE_RELS`] cap).
    pub max_exact_rels: usize,
    /// Rung-2 window size `k`: each block DP solves an exact `≤ k`-relation
    /// sub-problem (clamped to `2..=MAX_TABLE_RELS`; keep it in the low
    /// teens — each block costs `O(3^k)`).
    pub dp_window: usize,
    /// Rung-2 rounds: boundary-shifted sweeps over the linearized order.
    /// `0` disables the rung.
    pub dp_rounds: usize,
    /// Rung-3 proposal budget shared by iterated improvement and simulated
    /// annealing. `0` disables the rung.
    pub refine_steps: u64,
    /// PRNG seed for rung 3.
    pub seed: u64,
    /// Optional wall-clock ceiling over the whole ladder (best-effort;
    /// see the module docs on determinism).
    pub wall_clock: Option<Duration>,
    /// DP driver for the rung-1 exact step ([`DriverChoice::Split`] or
    /// [`DriverChoice::Conv`]), which otherwise runs the serial
    /// reference, [`DriveOptions::default`]. Defaults to that
    /// reference's `Split`; the service and the CLI pass their
    /// configured `Conv`. Rung-2 block DPs stay on the reference driver.
    pub driver: DriverChoice,
}

impl Default for LadderConfig {
    fn default() -> Self {
        LadderConfig {
            max_exact_rels: 18,
            dp_window: 10,
            dp_rounds: 2,
            refine_steps: 20_000,
            seed: 0x01ad_de12,
            wall_clock: None,
            driver: DriverChoice::Split,
        }
    }
}

/// Budget actually consumed by a ladder run.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct BudgetSpent {
    /// Rung-3 move proposals consumed (II + SA).
    pub refine_steps: u64,
    /// Rung-2 block sub-problems solved exactly.
    pub dp_blocks: u64,
    /// Wall-clock time for the whole ladder.
    pub elapsed: Duration,
}

/// Per-rung progress record.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RungTrace {
    /// Which rung ran.
    pub rung: Rung,
    /// Best cost after the rung finished.
    pub cost: f32,
    /// Whether the rung improved on the best plan it inherited.
    pub improved: bool,
}

/// The ladder's answer: the best plan found, its provenance, and the
/// optimality accounting the service reports on the wire.
#[derive(Clone, Debug)]
pub struct LadderReport {
    /// Best plan found (never worse than the greedy seed).
    pub plan: Plan,
    /// Cost of [`LadderReport::plan`] under the caller's model.
    pub cost: f32,
    /// Estimated result cardinality of the plan.
    pub card: f64,
    /// The rung that produced the returned plan.
    pub rung: Rung,
    /// The highest rung that ran (≥ [`LadderReport::rung`]).
    pub rung_reached: Rung,
    /// Optimality gap: `(cost − exact) / exact` when
    /// [`LadderReport::gap_basis`] is [`GapBasis::Exact`] (always 0 — the
    /// exact plan is returned), else `cost / greedy − 1 ≤ 0`.
    pub gap: f32,
    /// Which bound [`LadderReport::gap`] is measured against.
    pub gap_basis: GapBasis,
    /// Cost of the rung-0 greedy seed (the degradation the ladder
    /// replaces).
    pub greedy_cost: f32,
    /// Budget consumed.
    pub spent: BudgetSpent,
    /// Per-rung progress, in execution order.
    pub trace: Vec<RungTrace>,
}

/// GOO (Greedy Operator Ordering) over a [`BigSpec`]: repeatedly merge
/// the pair of trees whose join yields the smallest intermediate result.
///
/// Same algorithm as [`blitz_baselines::goo`] but with incremental
/// pairwise spanning-selectivity maintenance (`O(n³)` total instead of
/// `O(n⁴)`), so it stays cheap at `n = 100`. Returns the plan and its
/// cost under `model`.
pub fn goo_big<M: CostModel>(spec: &BigSpec, model: &M) -> (Plan, f32) {
    let n = spec.n();
    if n == 1 {
        return (Plan::scan(0), 0.0);
    }
    let mut plans: Vec<Plan> = (0..n).map(Plan::scan).collect();
    let mut cards: Vec<f64> = spec.cards().to_vec();
    // span[i][j]: selectivity product of all predicates spanning trees i, j.
    let mut span: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..n).map(|j| if i == j { 1.0 } else { spec.selectivity(i, j) }).collect())
        .collect();
    while plans.len() > 1 {
        let m = plans.len();
        // Seed with the first pair so the reduction is total; the strict
        // `<` then preserves the exact first-wins tie-break (the seed
        // pair's own re-evaluation compares equal and does not replace).
        let mut best = (0usize, 1usize, cards[0] * cards[1] * span[0][1]);
        for i in 0..m {
            for j in i + 1..m {
                let out = cards[i] * cards[j] * span[i][j];
                if out < best.2 {
                    best = (i, j, out);
                }
            }
        }
        let (i, j, out) = best;
        // Capture the merged pair's span rows, then remove j before i
        // (j > i keeps i's index valid) from every parallel structure.
        let row_i = span[i].clone();
        let row_j = span[j].clone();
        let pj = plans.swap_remove(j);
        let pi = plans.swap_remove(i);
        cards.swap_remove(j);
        cards.swap_remove(i);
        span.swap_remove(j);
        span.swap_remove(i);
        for row in span.iter_mut() {
            row.swap_remove(j);
            row.swap_remove(i);
        }
        // The merged tree's span to a survivor is the product of the two
        // halves' spans. Survivor k's post-removal index descends from the
        // same swap_remove sequence, applied here to the captured rows.
        let mut merged_row: Vec<f64> = {
            let mut ri = row_i;
            let mut rj = row_j;
            ri.swap_remove(j);
            ri.swap_remove(i);
            rj.swap_remove(j);
            rj.swap_remove(i);
            ri.iter().zip(rj.iter()).map(|(a, b)| a * b).collect()
        };
        for (k, row) in span.iter_mut().enumerate() {
            row.push(merged_row[k]);
        }
        merged_row.push(1.0);
        span.push(merged_row);
        plans.push(Plan::join(pi, pj));
        cards.push(out);
    }
    // The merge loop leaves exactly one tree; degrade to a scan rather
    // than unwrap if that invariant ever breaks.
    let plan = plans.pop().unwrap_or_else(|| Plan::scan(0));
    let (_, cost) = spec.plan_cost(&plan, model);
    (plan, cost)
}

/// Linearize the query for rung 2: the IKKBZ-optimal order when the join
/// graph is a connected tree small enough for a [`JoinSpec`]; otherwise a
/// greedy min-next-intermediate-cardinality order (the statistics-driven
/// generalization that works for cyclic and `n > MAX_RELS` graphs).
pub fn linear_order(spec: &BigSpec) -> Vec<usize> {
    let n = spec.n();
    if n <= 1 {
        return (0..n).collect();
    }
    if let Some(js) = spec.to_join_spec() {
        if let Ok((order, _)) = ikkbz_order(&js) {
            return order;
        }
    }
    // Greedy fallback: start from the smallest relation, repeatedly
    // append the relation minimizing the next intermediate cardinality
    // (ties by index). `span[r]` tracks Π_span(joined, {r}) incrementally.
    // `n >= 2` here (the `n <= 1` early return above), so the minimum
    // exists; 0 is the natural fallback either way.
    let first = (0..n)
        .min_by(|&a, &b| {
            spec.card(a).partial_cmp(&spec.card(b)).unwrap_or(std::cmp::Ordering::Equal)
        })
        .unwrap_or(0);
    let mut order = vec![first];
    let mut in_order = vec![false; n];
    in_order[first] = true;
    let mut card = spec.card(first);
    let mut span = vec![1.0f64; n];
    for (r, s) in span.iter_mut().enumerate() {
        if r != first {
            *s = spec.selectivity(first, r);
        }
    }
    while order.len() < n {
        let mut best: Option<(usize, f64)> = None;
        for r in 0..n {
            if in_order[r] {
                continue;
            }
            let out = card * spec.card(r) * span[r];
            if best.is_none_or(|(_, b)| out < b) {
                best = Some((r, out));
            }
        }
        // `order.len() < n` guarantees an unplaced relation; if the
        // invariant ever breaks, stop extending instead of panicking.
        let Some((r, out)) = best else { break };
        order.push(r);
        in_order[r] = true;
        card = out;
        for k in 0..n {
            if !in_order[k] {
                span[k] *= spec.selectivity(r, k);
            }
        }
    }
    order
}

/// Relabel a plan's leaves through `map[new_index] = original_index`.
fn relabel(plan: &Plan, map: &[usize]) -> Plan {
    match plan {
        Plan::Scan { rel } => Plan::scan(map[*rel]),
        Plan::Join { left, right } => Plan::join(relabel(left, map), relabel(right, map)),
    }
}

fn past(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// One rung-2 sweep: partition `order` into `≤ window`-relation blocks
/// starting at `offset`, solve each block exactly, stitch greedily.
/// Returns the stitched plan, or `None` if the deadline cut the sweep
/// short (a partial sweep must not replace the inherited best).
fn block_dp_sweep<M: CostModel + Sync>(
    spec: &BigSpec,
    model: &M,
    order: &[usize],
    window: usize,
    offset: usize,
    deadline: Option<Instant>,
    blocks_solved: &mut u64,
) -> Option<Plan> {
    let n = order.len();
    // Forest of block plans with their u128 sets and cardinalities.
    let mut forest: Vec<(Plan, u128, f64)> = Vec::new();
    let mut start = 0usize;
    while start < n {
        let end = if start == 0 && offset > 0 { offset.min(n) } else { (start + window).min(n) };
        let rels = &order[start..end];
        if past(deadline) {
            return None;
        }
        let plan = if rels.len() == 1 {
            Plan::scan(rels[0])
        } else {
            let sub = spec.subspec(rels);
            let opt = optimize_join(&sub, model).ok()?;
            *blocks_solved += 1;
            relabel(&opt.plan, rels)
        };
        let set = rels.iter().fold(0u128, |s, &r| s | (1u128 << r));
        let card = {
            let (c, _) = spec.plan_cost(&plan, model);
            c
        };
        forest.push((plan, set, card));
        start = end;
    }
    // Greedy combination of block trees, as in GOO.
    while forest.len() > 1 {
        // Seeded with the first pair (the loop guard guarantees two
        // trees); strict `<` keeps the exact first-wins tie-break.
        let mut best =
            (0usize, 1usize, forest[0].2 * forest[1].2 * spec.pi_span_bits(forest[0].1, forest[1].1));
        for i in 0..forest.len() {
            for j in i + 1..forest.len() {
                let out = forest[i].2 * forest[j].2 * spec.pi_span_bits(forest[i].1, forest[j].1);
                if out < best.2 {
                    best = (i, j, out);
                }
            }
        }
        let (i, j, out) = best;
        let (pj, sj, _) = forest.swap_remove(j);
        let (pi, si, _) = forest.swap_remove(i);
        forest.push((Plan::join(pi, pj), si | sj, out));
    }
    forest.pop().map(|(plan, _, _)| plan)
}

/// Run the full ladder on `spec` under `cfg`'s budgets; see the module
/// docs for the rung contract, budget accounting, and gap semantics.
pub fn optimize_ladder<M: CostModel + Sync>(
    spec: &BigSpec,
    model: &M,
    cfg: &LadderConfig,
) -> LadderReport {
    let start = Instant::now();
    let deadline = cfg.wall_clock.map(|d| start + d);
    let n = spec.n();
    let mut spent = BudgetSpent::default();
    let mut trace = Vec::new();

    // Rung 0: greedy seed — always runs, so a complete plan exists no
    // matter how little budget remains.
    let (gplan, gcost) = goo_big(spec, model);
    let greedy_cost = gcost;
    let mut best = gplan;
    let mut best_cost = gcost;
    let mut rung = Rung::Greedy;
    let mut reached = Rung::Greedy;
    trace.push(RungTrace { rung: Rung::Greedy, cost: best_cost, improved: true });

    // Rung 1: exact DP. Its answer is the true optimum, so on success the
    // ladder is done: no later rung can improve on it.
    if n <= cfg.max_exact_rels.min(MAX_TABLE_RELS) && !past(deadline) {
        if let Some(js) = spec.to_join_spec() {
            let options = DriveOptions::default().with_driver(cfg.driver);
            if let Ok(opt) = optimize_join_with(&js, model, options) {
                reached = Rung::Exact;
                let improved = opt.cost < best_cost;
                // Take the exact plan even on a cost tie: rung-1 output
                // must be bit-identical to the plain exact path.
                best = opt.plan;
                best_cost = opt.cost;
                rung = Rung::Exact;
                trace.push(RungTrace { rung: Rung::Exact, cost: best_cost, improved });
                spent.elapsed = start.elapsed();
                return LadderReport {
                    card: opt.card,
                    plan: best,
                    cost: best_cost,
                    rung,
                    rung_reached: reached,
                    gap: 0.0,
                    gap_basis: GapBasis::Exact,
                    greedy_cost,
                    spent,
                    trace,
                };
            }
        }
    }

    // Rung 2: linearize, then exact DP over boundary-shifted windows.
    if cfg.dp_rounds > 0 && n >= 2 && !past(deadline) {
        reached = Rung::HybridDp;
        let entry_cost = best_cost;
        let order = linear_order(spec);
        // The bare linearization is itself a candidate (IKKBZ's left-deep
        // plan is often strong on tree-shaped graphs).
        let ld = order[1..]
            .iter()
            .fold(Plan::scan(order[0]), |acc, &r| Plan::join(acc, Plan::scan(r)));
        let (_, ldc) = spec.plan_cost(&ld, model);
        if ldc < best_cost {
            best = ld;
            best_cost = ldc;
            rung = Rung::HybridDp;
        }
        let window = cfg.dp_window.clamp(2, MAX_TABLE_RELS);
        for round in 0..cfg.dp_rounds {
            if past(deadline) {
                break;
            }
            // Shift block boundaries by half a window per round so
            // relations near a boundary get to re-associate.
            let offset = (round * (window / 2).max(1)) % window;
            let Some(candidate) = block_dp_sweep(
                spec,
                model,
                &order,
                window,
                offset,
                deadline,
                &mut spent.dp_blocks,
            ) else {
                break;
            };
            let (_, cost) = spec.plan_cost(&candidate, model);
            if cost < best_cost {
                best = candidate;
                best_cost = cost;
                rung = Rung::HybridDp;
            }
        }
        trace.push(RungTrace {
            rung: Rung::HybridDp,
            cost: best_cost,
            improved: best_cost < entry_cost,
        });
    }

    // Rung 3: stochastic refinement from the best plan so far. One RNG
    // stream drives II first and SA with whatever budget II leaves, so
    // the whole rung obeys the anytime prefix property in `refine_steps`.
    if cfg.refine_steps > 0 && best.num_joins() > 0 && !past(deadline) {
        reached = Rung::Stochastic;
        let entry_cost = best_cost;
        let refine_start = Instant::now();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut eval = |p: &Plan| spec.plan_cost(p, model).1;
        let mut plan = best.clone();
        let mut cost = best_cost;
        let mut remaining = cfg.refine_steps;
        // II phase, chunked only under a wall clock so the un-clocked
        // path stays a single deterministic call.
        let chunk_size = if deadline.is_some() { 1024 } else { remaining };
        while remaining > 0 && !past(deadline) {
            let chunk = remaining.min(chunk_size.max(1));
            let out = improve_from(
                plan,
                cost,
                &mut rng,
                chunk,
                II_MAX_CONSECUTIVE_FAILURES,
                &mut eval,
            );
            spent.refine_steps += out.steps;
            remaining -= out.steps;
            plan = out.plan;
            cost = out.cost;
            if out.steps < chunk {
                break; // converged (consecutive-failure stop)
            }
        }
        // SA phase with the leftover budget, continuing the same stream.
        if remaining > 0 && !past(deadline) {
            let mut sa_budget = remaining;
            if let Some(d) = deadline {
                // Best-effort wall-clock clamp: extrapolate from the II
                // phase's measured per-proposal time.
                let done = spent.refine_steps;
                if done > 0 {
                    let per = refine_start.elapsed().as_nanos().max(1) / done as u128;
                    let left = d.saturating_duration_since(Instant::now()).as_nanos();
                    sa_budget = sa_budget.min((left / per.max(1)) as u64);
                }
            }
            if sa_budget > 0 {
                // The default cooling schedule; its `seed` is ignored,
                // since `cfg.seed` drives one stream across both phases.
                let params = SaParams::default();
                let out = anneal_from(plan, cost, &mut rng, &params, sa_budget, &mut eval);
                spent.refine_steps += out.steps;
                plan = out.plan;
                cost = out.cost;
            }
        }
        if cost < best_cost {
            best = plan;
            best_cost = cost;
            rung = Rung::Stochastic;
        }
        trace.push(RungTrace {
            rung: Rung::Stochastic,
            cost: best_cost,
            improved: best_cost < entry_cost,
        });
    }

    let (card, _) = spec.plan_cost(&best, model);
    let gap = finite_gap(best_cost, greedy_cost);
    spent.elapsed = start.elapsed();
    LadderReport {
        plan: best,
        cost: best_cost,
        card,
        rung,
        rung_reached: reached,
        gap,
        gap_basis: GapBasis::Greedy,
        greedy_cost,
        spent,
        trace,
    }
}

/// The greedy-basis gap `best / basis − 1`, guaranteed finite.
///
/// Overflowing cost models routinely drive both the ladder's best cost
/// and its greedy basis to `f32::INFINITY`; the raw ratio is then
/// `inf / inf = NaN`, which would leak a non-numeric `gap=` token onto
/// the wire (and poison any client arithmetic on it). The clamp policy:
///
/// * a basis that is not strictly positive (zero, negative, or NaN)
///   reports `0` — there is no meaningful ratio to take;
/// * equal costs report `0`, *including* `inf == inf` — the ladder did
///   not move off the greedy seed, so the gap is zero by definition;
/// * a finite best against an infinite basis reports `-1`, the maximal
///   improvement the ratio scale can express;
/// * an infinite best over a finite basis clamps to `f32::MAX` instead
///   of `+inf`.
fn finite_gap(best_cost: f32, basis: f32) -> f32 {
    if basis.is_nan() || basis <= 0.0 {
        return 0.0;
    }
    if best_cost == basis {
        return 0.0;
    }
    let raw = best_cost / basis - 1.0;
    if raw.is_finite() {
        raw
    } else if best_cost < basis {
        -1.0
    } else {
        f32::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blitz_core::{JoinSpec, Kappa0};

    fn chain_big(n: usize) -> BigSpec {
        let cards: Vec<f64> = (0..n).map(|i| 10.0 * (i + 1) as f64).collect();
        let preds: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 0.05)).collect();
        BigSpec::new(&cards, &preds).unwrap()
    }

    /// Regression: `inf / inf` used to leak NaN into `LadderReport::gap`
    /// when a cost-model overflow drove both the best and greedy costs
    /// to infinity. Every clamp branch must yield a finite number.
    #[test]
    fn finite_gap_never_returns_non_finite() {
        const INF: f32 = f32::INFINITY;
        // The ordinary case passes through untouched.
        assert_eq!(finite_gap(90.0, 100.0), 90.0 / 100.0 - 1.0);
        // Both infinite: the ladder never moved off greedy — gap 0.
        assert_eq!(finite_gap(INF, INF), 0.0);
        // Finite best, infinite basis: maximal expressible improvement.
        assert_eq!(finite_gap(1.0e30, INF), -1.0);
        // Infinite best over a finite basis clamps instead of +inf.
        assert_eq!(finite_gap(INF, 1.0), f32::MAX);
        // Degenerate bases report no gap at all.
        assert_eq!(finite_gap(5.0, 0.0), 0.0);
        assert_eq!(finite_gap(5.0, -1.0), 0.0);
        assert_eq!(finite_gap(5.0, f32::NAN), 0.0);
        // Overflow of the *ratio itself* (huge best over tiny basis)
        // still comes back finite.
        assert!(finite_gap(f32::MAX, f32::MIN_POSITIVE).is_finite());
    }

    #[test]
    fn goo_big_matches_baselines_goo_cost_on_small_specs() {
        let spec = JoinSpec::new(
            &[1000.0, 5.0, 700.0, 3.0, 42.0, 90.0],
            &[(0, 2, 0.001), (1, 3, 0.5), (0, 4, 0.01), (4, 5, 0.2)],
        )
        .unwrap();
        let big = BigSpec::from_spec(&spec);
        let (_, small) = blitz_baselines::goo(&spec, &Kappa0);
        let (plan, bigc) = goo_big(&big, &Kappa0);
        let tol = small.abs() * 1e-5 + 1e-5;
        assert!((small - bigc).abs() <= tol, "goo_big {bigc} vs goo {small}");
        // The plan covers everything and re-costs consistently.
        let (_, recost) = big.plan_cost(&plan, &Kappa0);
        assert_eq!(recost, bigc);
    }

    #[test]
    fn linear_order_is_a_permutation() {
        for n in [1usize, 2, 7, 40] {
            let spec = chain_big(n.max(1));
            let order = linear_order(&spec);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..spec.n()).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn ladder_rung1_on_small_problem_is_exact() {
        let spec = chain_big(7);
        let report = optimize_ladder(&spec, &Kappa0, &LadderConfig::default());
        assert_eq!(report.rung, Rung::Exact);
        assert_eq!(report.gap, 0.0);
        assert_eq!(report.gap_basis, GapBasis::Exact);
        let js = spec.to_join_spec().unwrap();
        let exact = optimize_join(&js, &Kappa0).unwrap();
        assert_eq!(report.plan, exact.plan);
        assert_eq!(report.cost.to_bits(), exact.cost.to_bits());
    }

    #[test]
    fn ladder_beyond_exact_never_loses_to_greedy() {
        let spec = chain_big(40);
        let report = optimize_ladder(&spec, &Kappa0, &LadderConfig::default());
        assert!(report.rung_reached >= Rung::HybridDp);
        assert_eq!(report.gap_basis, GapBasis::Greedy);
        assert!(report.cost <= report.greedy_cost, "{} > {}", report.cost, report.greedy_cost);
        assert!(report.gap <= 0.0);
        // Full coverage: every relation appears exactly once.
        let mut leaves = report.plan.leaves();
        leaves.sort_unstable();
        assert_eq!(leaves, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn shrinking_refine_budget_is_monotone() {
        let spec = chain_big(32);
        let mut prev = f32::NEG_INFINITY;
        // Larger budgets first: cost must be non-decreasing as the budget
        // shrinks (prefix property of the single rung-3 RNG stream).
        for steps in [20_000u64, 5_000, 1_000, 200, 0] {
            let cfg = LadderConfig { refine_steps: steps, ..LadderConfig::default() };
            let r = optimize_ladder(&spec, &Kappa0, &cfg);
            assert!(r.cost >= prev, "budget {steps}: {} < {}", r.cost, prev);
            assert!(r.cost <= r.greedy_cost);
            prev = r.cost;
        }
    }

    #[test]
    fn deterministic_for_fixed_config() {
        let spec = chain_big(36);
        let cfg = LadderConfig::default();
        let a = optimize_ladder(&spec, &Kappa0, &cfg);
        let b = optimize_ladder(&spec, &Kappa0, &cfg);
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        assert_eq!(a.rung, b.rung);
        assert_eq!(a.spent.refine_steps, b.spent.refine_steps);
        assert_eq!(a.spent.dp_blocks, b.spent.dp_blocks);
    }

    #[test]
    fn single_relation_is_trivially_exact() {
        let spec = BigSpec::new(&[42.0], &[]).unwrap();
        let report = optimize_ladder(&spec, &Kappa0, &LadderConfig::default());
        assert_eq!(report.plan, Plan::scan(0));
        assert_eq!(report.cost, 0.0);
        assert_eq!(report.rung, Rung::Exact);
    }

    #[test]
    fn rung_names_roundtrip() {
        for r in [Rung::Greedy, Rung::Exact, Rung::HybridDp, Rung::Stochastic] {
            assert_eq!(Rung::parse(r.name()), Some(r));
        }
        assert_eq!(Rung::parse("nope"), None);
    }
}
