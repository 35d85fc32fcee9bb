//! Stochastic join-order search: random sampling, iterated improvement,
//! simulated annealing, and the paper's future-work hybrid.
//!
//! The paper positions exhaustive search as "the method of choice for `n`
//! into the mid-teens" while acknowledging that stochastic methods scale
//! past it (Sections 2 and 7). This module implements the classic
//! techniques surveyed by Steinbrunn \[Ste96\] plus the random-probe idea of
//! Galindo-Legaria et al. \[GLPK94\]:
//!
//! * [`quickpick`] — sample random bushy plans, keep the best (probing
//!   plan-space points directly instead of walking transformations);
//! * [`iterated_improvement`] — hill-climb with random tree
//!   transformations from random starts;
//! * [`simulated_annealing`] — the same move set with a cooling schedule;
//! * [`hybrid_dp_local`] — the Section 7 future-work sketch: exact DP on
//!   blocks of relations (via blitzsplit), greedy block combination, and
//!   a local-search polish, in the spirit of Chained Local Optimization.
//!
//! All searches are seeded and deterministic for a given seed.
//!
//! The move-based searches run on one in-place engine, [`LocalSearch`]:
//! the plan lives in a flat arena whose join nodes memoize their
//! relation set, neighbour mask, Π_span, card, κ and cost, so a
//! proposal re-costs only the nodes it rewires and their ancestors, and
//! a rejected one is undone from a log of the nodes it overwrote.
//! [`apply_move`] is the clone-based statement of the same moves, kept
//! as their specification.

use blitz_core::{optimize_join, CostModel, JoinSpec, Plan, RelSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The classical tree-transformation move set for bushy plan spaces.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Move {
    /// `A ⨝ B → B ⨝ A`.
    Commute,
    /// `(A ⨝ B) ⨝ C → A ⨝ (B ⨝ C)`.
    AssocLeft,
    /// `A ⨝ (B ⨝ C) → (A ⨝ B) ⨝ C`.
    AssocRight,
    /// `(A ⨝ B) ⨝ (C ⨝ D) → (A ⨝ C) ⨝ (B ⨝ D)`.
    Exchange,
}

impl Move {
    /// All moves.
    pub const ALL: [Move; 4] = [Move::Commute, Move::AssocLeft, Move::AssocRight, Move::Exchange];
}

/// Apply `mv` at the `target`-th join node (preorder). Returns `None` when
/// the move does not apply at that node (e.g. associativity at a node with
/// scan children).
///
/// This clones the plan; it is the specification of the moves that
/// [`LocalSearch`] makes in place, not the search's own path.
pub fn apply_move(plan: &Plan, target: usize, mv: Move) -> Option<Plan> {
    let mut idx = 0usize;
    rewrite(plan, &mut idx, target, mv)
}

fn rewrite(plan: &Plan, idx: &mut usize, target: usize, mv: Move) -> Option<Plan> {
    match plan {
        Plan::Scan { .. } => None,
        Plan::Join { left, right } => {
            let here = *idx;
            *idx += 1;
            if here == target {
                return transform(left, right, mv);
            }
            if let Some(l2) = rewrite(left, idx, target, mv) {
                return Some(Plan::join(l2, (**right).clone()));
            }
            rewrite(right, idx, target, mv).map(|r2| Plan::join((**left).clone(), r2))
        }
    }
}

fn transform(left: &Plan, right: &Plan, mv: Move) -> Option<Plan> {
    match mv {
        Move::Commute => Some(Plan::join(right.clone(), left.clone())),
        Move::AssocLeft => match left {
            Plan::Join { left: a, right: b } => {
                Some(Plan::join((**a).clone(), Plan::join((**b).clone(), right.clone())))
            }
            Plan::Scan { .. } => None,
        },
        Move::AssocRight => match right {
            Plan::Join { left: b, right: c } => {
                Some(Plan::join(Plan::join(left.clone(), (**b).clone()), (**c).clone()))
            }
            Plan::Scan { .. } => None,
        },
        Move::Exchange => match (left, right) {
            (Plan::Join { left: a, right: b }, Plan::Join { left: c, right: d }) => {
                Some(Plan::join(
                    Plan::join((**a).clone(), (**c).clone()),
                    Plan::join((**b).clone(), (**d).clone()),
                ))
            }
            _ => None,
        },
    }
}

/// Draw a uniformly random bushy tree over the relations in `s`: each
/// internal node splits its set by assigning every relation a random side
/// (redrawing degenerate all-one-side assignments).
pub fn random_bushy_plan(s: RelSet, rng: &mut StdRng) -> Plan {
    assert!(!s.is_empty());
    if s.is_singleton() {
        return Plan::scan(s.min_rel().unwrap());
    }
    let members: Vec<usize> = s.iter().collect();
    loop {
        let mut lhs = RelSet::EMPTY;
        for &r in &members {
            if rng.random_bool(0.5) {
                lhs = lhs.with(r);
            }
        }
        if !lhs.is_empty() && lhs != s {
            return Plan::join(random_bushy_plan(lhs, rng), random_bushy_plan(s - lhs, rng));
        }
    }
}

/// Random plan-space probing: sample `samples` random bushy plans and
/// return the cheapest (GLPK94's "why use transformations?" strategy).
pub fn quickpick<M: CostModel>(
    spec: &JoinSpec,
    model: &M,
    samples: usize,
    seed: u64,
) -> (Plan, f32) {
    assert!(samples >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let full = spec.all_rels();
    let mut best: Option<(Plan, f32)> = None;
    for _ in 0..samples {
        let plan = random_bushy_plan(full, &mut rng);
        let (_, cost) = plan.cost(spec, model);
        if best.as_ref().is_none_or(|(_, b)| cost < *b) {
            best = Some((plan, cost));
        }
    }
    best.expect("at least one sample")
}

/// The statistics a local search costs plans from: base cardinalities
/// and pairwise selectivities, as [`JoinSpec`] holds them. Implemented
/// by [`JoinSpec`] here and by the ladder's 128-relation `BigSpec`.
///
/// `selectivity` must be symmetric, and exactly 1.0 must mean "no
/// predicate": the search skips the ×1.0 factors of Π_span, which is
/// exact, and finds the others through each relation's neighbour mask.
pub trait SearchSpec {
    /// Number of base relations (at most 128).
    fn n(&self) -> usize;
    /// Cardinality of base relation `rel`.
    fn card(&self, rel: usize) -> f64;
    /// Selectivity between relations `i` and `j` (1.0 ⇔ no predicate).
    fn selectivity(&self, i: usize, j: usize) -> f64;
}

impl SearchSpec for JoinSpec {
    fn n(&self) -> usize {
        JoinSpec::n(self)
    }

    fn card(&self, rel: usize) -> f64 {
        JoinSpec::card(self, rel)
    }

    fn selectivity(&self, i: usize, j: usize) -> f64 {
        JoinSpec::selectivity(self, i, j)
    }
}

/// Child index marking a leaf in the [`LocalSearch`] arena.
const LEAF: u32 = u32::MAX;

/// One node of the [`LocalSearch`] arena with its memoized properties.
#[derive(Copy, Clone, Debug, PartialEq)]
struct Node {
    /// Left child's arena index, [`LEAF`] for a scan.
    left: u32,
    /// Right child's arena index (unused for a scan).
    right: u32,
    /// Base relations below the node.
    set: u128,
    /// Union of the members' neighbour masks.
    nbrs: u128,
    /// `Π_span(left, right)` (1.0 for a scan).
    span: f64,
    /// Result cardinality.
    card: f64,
    /// `κ(card, left card, right card)` (0 for a scan).
    kappa: f32,
    /// Total cost of the subtree.
    cost: f32,
}

const _: () = assert!(std::mem::size_of::<Node>() == 64);

impl Node {
    fn is_leaf(&self) -> bool {
        self.left == LEAF
    }

    /// Joins in the subtree: one fewer than its relations.
    fn joins(&self) -> usize {
        self.set.count_ones() as usize - 1
    }
}

/// In-place local search over bushy plans: the [`Move`] set applied to a
/// flat arena, for [`improve_from`], [`anneal_from`] and the ladder's
/// rung 3.
///
/// Every join node memoizes its relation set (whose size gives its
/// subtree join count), the union of its members' neighbour masks, its
/// Π_span, card, κ and cost: 64 bytes a node. A proposal descends to
/// its preorder target by join counts, rewires at most three nodes
/// there, and re-costs them and then each ancestor, bottom-up. Π_span
/// walks only the crossing predicates (members of one side in the other
/// side's neighbour mask), in the ascending i-then-j order of
/// [`JoinSpec::pi_span`]; the factors it skips are exactly the ×1.0
/// ones. An ancestor's children keep their
/// sets, so its Π_span is reused, and its card and κ too while no
/// child's card bits moved. Each node's card and cost are thus the same
/// expression over the same operands as [`Plan::cost`]'s, bit for bit,
/// and a search draws, compares and accepts exactly as the
/// clone-and-recost loop it replaced. A rejected proposal is undone from
/// the log of the nodes it overwrote.
///
/// The root keeps its arena index through every move. The arena is
/// sized once for `2n − 1` nodes and reused across restarts; simulated
/// annealing keeps its best plan so far in one second buffer of the
/// same size.
pub struct LocalSearch<'a, S, M> {
    spec: &'a S,
    model: &'a M,
    /// Per relation, the relations it shares a predicate with.
    nbr: Vec<u128>,
    nodes: Vec<Node>,
    root: u32,
    /// Cost the search compares proposals against: the current plan's.
    cost: f32,
    /// Ancestors of the last proposal's target, root first.
    path: Vec<u32>,
    /// Nodes the last proposal overwrote, with their old contents.
    log: Vec<(u32, Node)>,
    /// Simulated annealing's best plan so far.
    best: Vec<Node>,
}

impl<'a, S: SearchSpec, M: CostModel> LocalSearch<'a, S, M> {
    /// Load `plan` into a fresh arena and cost it.
    ///
    /// # Panics
    /// Panics if the spec has more than 128 relations, or a leaf of
    /// `plan` is outside it.
    pub fn new(spec: &'a S, model: &'a M, plan: &Plan) -> Self {
        let n = spec.n();
        assert!(n <= 128, "a local search holds at most 128 relations, not {n}");
        let nbr = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| j != i && spec.selectivity(i, j) != 1.0)
                    .fold(0u128, |m, j| m | (1u128 << j))
            })
            .collect();
        let mut search = LocalSearch {
            spec,
            model,
            nbr,
            nodes: Vec::with_capacity((2 * n).saturating_sub(1)),
            root: 0,
            cost: 0.0,
            path: Vec::with_capacity(n),
            log: Vec::with_capacity(n + 3),
            best: Vec::new(),
        };
        search.load(plan);
        search
    }

    /// Replace the current plan by `plan`, reusing the arena.
    fn load(&mut self, plan: &Plan) {
        self.nodes.clear();
        self.log.clear();
        self.root = self.push(plan);
        self.cost = self.nodes[self.root as usize].cost;
    }

    fn push(&mut self, plan: &Plan) -> u32 {
        let node = match plan {
            Plan::Scan { rel } => {
                assert!(*rel < self.spec.n(), "leaf R{rel} outside the spec");
                Node {
                    left: LEAF,
                    right: LEAF,
                    set: 1u128 << rel,
                    nbrs: self.nbr[*rel],
                    span: 1.0,
                    card: self.spec.card(*rel),
                    kappa: 0.0,
                    cost: 0.0,
                }
            }
            Plan::Join { left, right } => {
                let l = self.push(left);
                let r = self.push(right);
                self.joined(l, r)
            }
        };
        self.nodes.push(node);
        (self.nodes.len() - 1) as u32
    }

    /// The join node over children `l` and `r`, every property computed
    /// afresh — [`Plan::cost`]'s expression over the same operands.
    fn joined(&self, l: u32, r: u32) -> Node {
        let (ln, rn) = (&self.nodes[l as usize], &self.nodes[r as usize]);
        let mut span = 1.0f64;
        let mut is = ln.set & rn.nbrs;
        while is != 0 {
            let i = is.trailing_zeros() as usize;
            is &= is - 1;
            let mut js = self.nbr[i] & rn.set;
            while js != 0 {
                let j = js.trailing_zeros() as usize;
                js &= js - 1;
                span *= self.spec.selectivity(i, j);
            }
        }
        let card = ln.card * rn.card * span;
        let kappa = self.model.kappa(card, ln.card, rn.card);
        Node {
            left: l,
            right: r,
            set: ln.set | rn.set,
            nbrs: ln.nbrs | rn.nbrs,
            span,
            card,
            kappa,
            cost: ln.cost + rn.cost + kappa,
        }
    }

    /// Overwrite node `x` with `node`, logging its old contents.
    fn set(&mut self, x: u32, node: Node) {
        self.log.push((x, self.nodes[x as usize]));
        self.nodes[x as usize] = node;
    }

    /// Rewire join `x` onto children `l` and `r` and re-cost it.
    fn rewire(&mut self, x: u32, l: u32, r: u32) {
        let node = self.joined(l, r);
        self.set(x, node);
    }

    /// Re-cost ancestor `p`, whose children kept their relation sets, so
    /// its Π_span stands. Unless `card_moved` says a child's card bits
    /// changed, its card and κ stand too. Returns whether `p`'s card
    /// bits changed.
    fn refresh(&mut self, p: u32, card_moved: bool) -> bool {
        let old = self.nodes[p as usize];
        let (ln, rn) = (&self.nodes[old.left as usize], &self.nodes[old.right as usize]);
        let (card, kappa) = if card_moved {
            let card = ln.card * rn.card * old.span;
            (card, self.model.kappa(card, ln.card, rn.card))
        } else {
            (old.card, old.kappa)
        };
        let cost = ln.cost + rn.cost + kappa;
        self.set(p, Node { card, kappa, cost, ..old });
        card.to_bits() != old.card.to_bits()
    }

    /// Apply `mv` at preorder join `target` in place and re-cost the
    /// changed path; returns the new plan's cost, or `None` (nothing
    /// changed) when the move does not apply there. The move stands
    /// until [`LocalSearch::undo`]; the next proposal makes it final.
    fn propose(&mut self, target: usize, mv: Move) -> Option<f32> {
        self.log.clear();
        self.path.clear();
        let mut x = self.root;
        let mut t = target;
        if t >= self.nodes[x as usize].joins() {
            return None;
        }
        while t > 0 {
            let node = self.nodes[x as usize];
            self.path.push(x);
            t -= 1;
            let left_joins = self.nodes[node.left as usize].joins();
            if t < left_joins {
                x = node.left;
            } else {
                t -= left_joins;
                x = node.right;
            }
        }
        let Node { left: l, right: r, card: old_card, .. } = self.nodes[x as usize];
        let (ln, rn) = (self.nodes[l as usize], self.nodes[r as usize]);
        match mv {
            // A ⨝ B → B ⨝ A.
            Move::Commute => self.rewire(x, r, l),
            // (A ⨝ B) ⨝ C → A ⨝ (B ⨝ C), the left join reused for B ⨝ C.
            Move::AssocLeft => {
                if ln.is_leaf() {
                    return None;
                }
                self.rewire(l, ln.right, r);
                self.rewire(x, ln.left, l);
            }
            // A ⨝ (B ⨝ C) → (A ⨝ B) ⨝ C, the right join reused for A ⨝ B.
            Move::AssocRight => {
                if rn.is_leaf() {
                    return None;
                }
                self.rewire(r, l, rn.left);
                self.rewire(x, r, rn.right);
            }
            // (A ⨝ B) ⨝ (C ⨝ D) → (A ⨝ C) ⨝ (B ⨝ D).
            Move::Exchange => {
                if ln.is_leaf() || rn.is_leaf() {
                    return None;
                }
                self.rewire(l, ln.left, rn.left);
                self.rewire(r, ln.right, rn.right);
                self.rewire(x, l, r);
            }
        }
        let mut card_moved = self.nodes[x as usize].card.to_bits() != old_card.to_bits();
        while let Some(p) = self.path.pop() {
            card_moved = self.refresh(p, card_moved);
        }
        Some(self.nodes[self.root as usize].cost)
    }

    /// Restore every node the last proposal overwrote.
    fn undo(&mut self) {
        while let Some((x, node)) = self.log.pop() {
            self.nodes[x as usize] = node;
        }
    }

    /// Cost of the current plan, as the search compares it.
    pub fn cost(&self) -> f32 {
        self.cost
    }

    /// The current plan as a [`Plan`] tree.
    pub fn to_plan(&self) -> Plan {
        self.subplan(self.root)
    }

    fn subplan(&self, x: u32) -> Plan {
        let node = &self.nodes[x as usize];
        if node.is_leaf() {
            Plan::scan(node.set.trailing_zeros() as usize)
        } else {
            Plan::join(self.subplan(node.left), self.subplan(node.right))
        }
    }

    /// Draw one proposal from `rng`: a preorder join target, then a move.
    fn draw(&self, rng: &mut StdRng) -> (usize, Move) {
        let target = rng.random_range(0..self.nodes[self.root as usize].joins());
        (target, Move::ALL[rng.random_range(0..Move::ALL.len())])
    }

    /// Hill climb from the current plan: accept a proposal only when it
    /// is strictly cheaper, and stop after `max_consecutive_failures`
    /// rejected or inapplicable proposals in a row, or `max_steps` in
    /// all. Returns the proposals consumed; the failure count starts at
    /// zero on every call. See [`improve_from`].
    pub fn improve(
        &mut self,
        rng: &mut StdRng,
        max_steps: u64,
        max_consecutive_failures: usize,
    ) -> u64 {
        if self.nodes[self.root as usize].is_leaf() {
            return 0;
        }
        let mut failures = 0usize;
        let mut steps = 0u64;
        while failures < max_consecutive_failures && steps < max_steps {
            let (target, mv) = self.draw(rng);
            steps += 1;
            match self.propose(target, mv) {
                Some(c) if c < self.cost => {
                    self.cost = c;
                    failures = 0;
                }
                Some(_) => {
                    self.undo();
                    failures += 1;
                }
                None => failures += 1,
            }
        }
        steps
    }

    /// Simulated annealing from the current plan under `params`'s
    /// cooling schedule (its `seed` is ignored), for at most `max_steps`
    /// proposals; the current plan becomes the best one seen. Returns
    /// the proposals consumed. See [`anneal_from`].
    pub fn anneal(&mut self, rng: &mut StdRng, params: &SaParams, max_steps: u64) -> u64 {
        if self.nodes[self.root as usize].is_leaf() {
            return 0;
        }
        self.best.clone_from(&self.nodes);
        let mut best_cost = self.cost;
        let t0 = (self.cost as f64).abs().max(1.0) * params.initial_temperature_factor;
        let mut temp = t0;
        let mut steps = 0u64;
        'cooling: while temp > t0 * params.min_temperature_ratio {
            for _ in 0..params.moves_per_stage {
                if steps >= max_steps {
                    break 'cooling;
                }
                let (target, mv) = self.draw(rng);
                steps += 1;
                let Some(c) = self.propose(target, mv) else { continue };
                let delta = c as f64 - self.cost as f64;
                if delta <= 0.0 || rng.random::<f64>() < (-delta / temp).exp() {
                    self.cost = c;
                    if c < best_cost {
                        best_cost = c;
                        self.best.copy_from_slice(&self.nodes);
                    }
                } else {
                    self.undo();
                }
            }
            temp *= params.cooling;
        }
        std::mem::swap(&mut self.nodes, &mut self.best);
        self.log.clear();
        self.cost = best_cost;
        steps
    }
}

/// Result of a budget-bounded local-search run ([`improve_from`] /
/// [`anneal_from`]): the best plan seen, its cost, and the number of
/// proposal steps consumed.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// Best plan seen (never worse than the initial plan).
    pub plan: Plan,
    /// Cost of [`SearchOutcome::plan`], bit-identical to [`Plan::cost`]'s.
    pub cost: f32,
    /// Move proposals consumed (one per attempted transformation,
    /// whether or not it applied).
    pub steps: u64,
}

/// Seeded, budget-bounded hill climb from an explicit starting plan.
///
/// Proposes random [`Move`]s (target join node and move kind drawn from
/// `rng`), accepts a candidate only when its cost is strictly lower, and
/// stops after `max_consecutive_failures` rejected proposals in a row or
/// `max_steps` total proposals — whichever comes first. The returned
/// plan is therefore **never worse than the initial plan**, and for a
/// fixed RNG stream the first `k` proposals of a longer run are exactly
/// the `k`-proposal run (the anytime prefix property the ladder and its
/// monotonicity tests rely on). `+∞`/NaN costs are never accepted.
///
/// `spec` is any [`SearchSpec`], so the ladder's 100-relation specs,
/// which no [`JoinSpec`] can hold, search the same way.
pub fn improve_from<S: SearchSpec, M: CostModel>(
    spec: &S,
    model: &M,
    initial: &Plan,
    rng: &mut StdRng,
    max_steps: u64,
    max_consecutive_failures: usize,
) -> SearchOutcome {
    let mut search = LocalSearch::new(spec, model, initial);
    let steps = search.improve(rng, max_steps, max_consecutive_failures);
    SearchOutcome { plan: search.to_plan(), cost: search.cost(), steps }
}

/// Seeded, budget-bounded simulated annealing from an explicit starting
/// plan.
///
/// Runs the cooling schedule of `params` (whose `seed` field is ignored
/// — the caller-supplied `rng` drives the stream) for at most
/// `max_steps` proposals. The *current* plan may move uphill, but the
/// returned plan is the best seen, so the result is never worse than the
/// initial plan and obeys the same anytime prefix property as
/// [`improve_from`].
pub fn anneal_from<S: SearchSpec, M: CostModel>(
    spec: &S,
    model: &M,
    initial: &Plan,
    rng: &mut StdRng,
    params: &SaParams,
    max_steps: u64,
) -> SearchOutcome {
    let mut search = LocalSearch::new(spec, model, initial);
    let steps = search.anneal(rng, params, max_steps);
    SearchOutcome { plan: search.to_plan(), cost: search.cost(), steps }
}

/// Parameters for [`iterated_improvement`].
#[derive(Copy, Clone, Debug)]
pub struct IiParams {
    /// Number of random restarts.
    pub restarts: usize,
    /// Consecutive failed moves after which a climb is declared a local
    /// optimum.
    pub max_consecutive_failures: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for IiParams {
    fn default() -> Self {
        IiParams { restarts: 10, max_consecutive_failures: 256, seed: 0xb1172 }
    }
}

/// Iterated improvement: repeated hill-climbs from random starts using
/// the [`Move`] set; returns the best plan found and its cost.
pub fn iterated_improvement<M: CostModel>(
    spec: &JoinSpec,
    model: &M,
    params: IiParams,
) -> (Plan, f32) {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let full = spec.all_rels();
    if full.is_singleton() {
        return (Plan::scan(0), 0.0);
    }
    let mut best: Option<(Plan, f32)> = None;
    let mut search = LocalSearch::new(spec, model, &random_bushy_plan(full, &mut rng));
    for restart in 0..params.restarts.max(1) {
        if restart > 0 {
            search.load(&random_bushy_plan(full, &mut rng));
        }
        search.improve(&mut rng, u64::MAX, params.max_consecutive_failures);
        if best.as_ref().is_none_or(|(_, b)| search.cost() < *b) {
            best = Some((search.to_plan(), search.cost()));
        }
    }
    best.expect("at least one restart")
}

/// Parameters for [`simulated_annealing`].
#[derive(Copy, Clone, Debug)]
pub struct SaParams {
    /// Starting temperature as a fraction of the initial plan's cost.
    pub initial_temperature_factor: f64,
    /// Multiplicative cooling per stage (in `(0,1)`).
    pub cooling: f64,
    /// Proposed moves per temperature stage.
    pub moves_per_stage: usize,
    /// Stop when the temperature falls below this fraction of the initial
    /// temperature.
    pub min_temperature_ratio: f64,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for SaParams {
    fn default() -> Self {
        SaParams {
            initial_temperature_factor: 0.2,
            cooling: 0.92,
            moves_per_stage: 128,
            min_temperature_ratio: 1e-5,
            seed: 0x5a5a,
        }
    }
}

/// Simulated annealing over the bushy plan space; returns the best plan
/// seen and its cost.
pub fn simulated_annealing<M: CostModel>(
    spec: &JoinSpec,
    model: &M,
    params: SaParams,
) -> (Plan, f32) {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let full = spec.all_rels();
    if full.is_singleton() {
        return (Plan::scan(0), 0.0);
    }
    let plan = random_bushy_plan(full, &mut rng);
    let out = anneal_from(spec, model, &plan, &mut rng, &params, u64::MAX);
    (out.plan, out.cost)
}

/// Extract the sub-problem induced by `rels` (order defines the new
/// indices) and the mapping back to original indices.
fn subspec(spec: &JoinSpec, rels: &[usize]) -> JoinSpec {
    let cards: Vec<f64> = rels.iter().map(|&r| spec.card(r)).collect();
    let mut preds = Vec::new();
    for (i, &a) in rels.iter().enumerate() {
        for (j, &b) in rels.iter().enumerate().skip(i + 1) {
            let s = spec.selectivity(a, b);
            if s != 1.0 {
                preds.push((i, j, s));
            }
        }
    }
    JoinSpec::new(&cards, &preds).expect("sub-problems of valid specs are valid")
}

/// Relabel a plan's leaves through `map[new_index] = original_index`.
fn relabel(plan: &Plan, map: &[usize]) -> Plan {
    match plan {
        Plan::Scan { rel } => Plan::scan(map[*rel]),
        Plan::Join { left, right } => Plan::join(relabel(left, map), relabel(right, map)),
    }
}

/// The paper's Section 7 hybrid sketch: exact DP (blitzsplit) inside
/// blocks of at most `block_size` relations, greedy combination of the
/// block plans (smallest joint cardinality first), then an iterated-
/// improvement polish. Scales past the `2^n`-table limit while retaining
/// exact optimization where it is cheap.
///
/// # Panics
/// Panics if `block_size == 0`.
pub fn hybrid_dp_local<M: CostModel + Sync>(
    spec: &JoinSpec,
    model: &M,
    block_size: usize,
    seed: u64,
) -> (Plan, f32) {
    assert!(block_size >= 1);
    let n = spec.n();
    // Block relations in graph-BFS order so blocks tend to be connected
    // (index-contiguous blocks would cut across the join graph and force
    // pointless products inside blocks).
    let mut bfs: Vec<usize> = Vec::with_capacity(n);
    let mut seen = RelSet::EMPTY;
    for start in 0..n {
        if seen.contains(start) {
            continue;
        }
        seen = seen.with(start);
        bfs.push(start);
        let mut head = bfs.len() - 1;
        while head < bfs.len() {
            let u = bfs[head];
            head += 1;
            for v in 0..n {
                if !seen.contains(v) && spec.has_predicate(u, v) {
                    seen = seen.with(v);
                    bfs.push(v);
                }
            }
        }
    }
    // 1. Exact DP per block.
    let mut forest: Vec<(Plan, RelSet, f64)> = Vec::new();
    let mut start = 0usize;
    while start < n {
        let rels: Vec<usize> = bfs[start..n.min(start + block_size)].to_vec();
        let sub = subspec(spec, &rels);
        let sub_opt = optimize_join(&sub, model).expect("block fits the table");
        let plan = relabel(&sub_opt.plan, &rels);
        let set = plan.rel_set();
        let card = spec.join_cardinality(set);
        forest.push((plan, set, card));
        start += block_size;
    }
    // 2. Greedy combination (as in GOO, over block trees).
    while forest.len() > 1 {
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..forest.len() {
            for j in i + 1..forest.len() {
                let out = forest[i].2 * forest[j].2 * spec.pi_span(forest[i].1, forest[j].1);
                if best.is_none_or(|(_, _, b)| out < b) {
                    best = Some((i, j, out));
                }
            }
        }
        let (i, j, out) = best.expect("at least two trees");
        let (pj, sj, _) = forest.swap_remove(j);
        let (pi, si, _) = forest.swap_remove(i);
        forest.push((Plan::join(pi, pj), si | sj, out));
    }
    let (plan, _, _) = forest.pop().expect("one tree remains");

    // 3. Local-search polish from the constructed plan.
    let mut rng = StdRng::seed_from_u64(seed);
    let out = improve_from(spec, model, &plan, &mut rng, u64::MAX, 128);
    (out.plan, out.cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blitz_core::{DiskNestedLoops, Kappa0, SmDnl, SortMerge};

    fn chain_spec(n: usize) -> JoinSpec {
        let cards: Vec<f64> = (0..n).map(|i| 10.0 * (i + 1) as f64).collect();
        let preds: Vec<(usize, usize, f64)> =
            (0..n - 1).map(|i| (i, i + 1, 0.05)).collect();
        JoinSpec::new(&cards, &preds).unwrap()
    }

    #[test]
    fn moves_preserve_relation_sets() {
        let p = Plan::join(
            Plan::join(Plan::scan(0), Plan::scan(1)),
            Plan::join(Plan::scan(2), Plan::scan(3)),
        );
        for mv in Move::ALL {
            for t in 0..p.num_joins() {
                if let Some(q) = apply_move(&p, t, mv) {
                    assert_eq!(q.rel_set(), p.rel_set(), "{mv:?}@{t}");
                    assert_eq!(q.num_joins(), p.num_joins(), "{mv:?}@{t}");
                }
            }
        }
    }

    #[test]
    fn move_semantics() {
        let ab_c = Plan::join(Plan::join(Plan::scan(0), Plan::scan(1)), Plan::scan(2));
        // Commute at root.
        let c = apply_move(&ab_c, 0, Move::Commute).unwrap();
        assert_eq!(c.to_expr(), "(R2 x (R0 x R1))");
        // AssocLeft at root: ((A B) C) → (A (B C)).
        let a = apply_move(&ab_c, 0, Move::AssocLeft).unwrap();
        assert_eq!(a.to_expr(), "(R0 x (R1 x R2))");
        // AssocRight undoes it.
        let back = apply_move(&a, 0, Move::AssocRight).unwrap();
        assert_eq!(back, ab_c);
        // AssocRight at root of ((A B) C) needs a join on the right: None.
        assert!(apply_move(&ab_c, 0, Move::AssocRight).is_none());
        // Exchange requires joins on both sides.
        assert!(apply_move(&ab_c, 0, Move::Exchange).is_none());
        let big = Plan::join(
            Plan::join(Plan::scan(0), Plan::scan(1)),
            Plan::join(Plan::scan(2), Plan::scan(3)),
        );
        let x = apply_move(&big, 0, Move::Exchange).unwrap();
        assert_eq!(x.to_expr(), "((R0 x R2) x (R1 x R3))");
    }

    /// A random spec of `n` relations mixing the edge cases: cards of 1,
    /// absent predicates (selectivity 1), equal statistics (ties), and
    /// cards large enough to overflow the f32 cost.
    fn random_spec(n: usize, rng: &mut StdRng) -> JoinSpec {
        let flavour = rng.random_range(0..4u32);
        let cards: Vec<f64> = (0..n)
            .map(|_| match flavour {
                0 => 1.0 + rng.random_range(0..1000u32) as f64,
                1 => [1.0, 100.0][rng.random_range(0..2usize)],
                2 => 100.0,
                _ => 1e30,
            })
            .collect();
        let mut preds = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                if rng.random_bool(0.4) {
                    let s = if flavour == 2 { 0.01 } else { 0.001 + rng.random::<f64>() };
                    preds.push((i, j, s.min(1.0)));
                }
            }
        }
        JoinSpec::new(&cards, &preds).unwrap()
    }

    /// A node's bits, so that NaN and signed zeros compare exactly.
    fn node_bits(x: &Node) -> (u32, u32, u128, u128, u64, u64, u32, u32) {
        (
            x.left,
            x.right,
            x.set,
            x.nbrs,
            x.span.to_bits(),
            x.card.to_bits(),
            x.kappa.to_bits(),
            x.cost.to_bits(),
        )
    }

    /// Every node's memoized set, join count, card and cost equal what
    /// [`Plan::cost`] computes for its subplan.
    fn assert_memos<M: CostModel>(search: &LocalSearch<'_, JoinSpec, M>, x: u32, what: &str) {
        let node = search.nodes[x as usize];
        let sub = search.subplan(x);
        let (card, cost) = sub.cost(search.spec, search.model);
        assert_eq!(node.set, u128::from(sub.rel_set().bits()), "{what}: set");
        assert_eq!(node.joins(), sub.num_joins(), "{what}: joins");
        assert_eq!(node.card.to_bits(), card.to_bits(), "{what}: card of {sub}");
        assert_eq!(node.cost.to_bits(), cost.to_bits(), "{what}: cost of {sub}");
        if !node.is_leaf() {
            assert_memos(search, node.left, what);
            assert_memos(search, node.right, what);
        }
    }

    fn check_every_move<M: CostModel>(spec: &JoinSpec, model: &M, plan: &Plan) {
        let mut search = LocalSearch::new(spec, model, plan);
        assert_eq!(search.to_plan(), *plan);
        assert_memos(&search, search.root, "loaded");
        let before: Vec<_> = search.nodes.iter().map(node_bits).collect();
        for target in 0..plan.num_joins() {
            for mv in Move::ALL {
                let what = format!("{} {mv:?}@{target} on {plan}", model.name());
                let want = apply_move(plan, target, mv);
                let got = search.propose(target, mv);
                match (&want, got) {
                    (None, None) => assert!(search.log.is_empty(), "{what}: logged a no-op"),
                    (Some(want), Some(cost)) => {
                        assert_eq!(search.to_plan(), *want, "{what}: plan");
                        let (card, want_cost) = want.cost(spec, model);
                        assert_eq!(cost.to_bits(), want_cost.to_bits(), "{what}: cost");
                        let root = search.nodes[search.root as usize];
                        assert_eq!(root.card.to_bits(), card.to_bits(), "{what}: card");
                        assert_memos(&search, search.root, &what);
                    }
                    _ => panic!("{what}: apply_move {want:?} but the arena said {got:?}"),
                }
                search.undo();
                let after: Vec<_> = search.nodes.iter().map(node_bits).collect();
                assert_eq!(after, before, "{what}: undo must restore every node");
            }
        }
    }

    /// The arena's in-place moves are [`apply_move`]'s, down to the
    /// `Plan::cost` bits of every subplan, and `undo` puts every node
    /// back bit for bit.
    #[test]
    fn in_place_moves_match_apply_move_and_undo_restores_every_node() {
        let mut rng = StdRng::seed_from_u64(0xa7e4a);
        for n in 2..=12 {
            for _ in 0..3 {
                let spec = random_spec(n, &mut rng);
                let plan = random_bushy_plan(spec.all_rels(), &mut rng);
                check_every_move(&spec, &Kappa0, &plan);
                check_every_move(&spec, &SortMerge, &plan);
                check_every_move(&spec, &DiskNestedLoops::default(), &plan);
                check_every_move(&spec, &SmDnl::default(), &plan);
            }
        }
    }

    /// Reloading a search over a plan of another size reuses the arena
    /// and costs the new plan afresh.
    #[test]
    fn load_replaces_the_plan() {
        let spec = chain_spec(6);
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_bushy_plan(spec.all_rels(), &mut rng);
        let b = random_bushy_plan(RelSet::full(4), &mut rng);
        let mut search = LocalSearch::new(&spec, &Kappa0, &a);
        search.load(&b);
        assert_eq!(search.to_plan(), b);
        assert_eq!(search.cost().to_bits(), b.cost(&spec, &Kappa0).1.to_bits());
    }

    #[test]
    fn random_plans_are_valid() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = RelSet::full(7);
        for _ in 0..50 {
            let p = random_bushy_plan(s, &mut rng);
            assert_eq!(p.rel_set(), s);
            assert_eq!(p.num_joins(), 6);
        }
    }

    #[test]
    fn quickpick_improves_with_more_samples() {
        let spec = chain_spec(8);
        let (_, one) = quickpick(&spec, &Kappa0, 1, 7);
        let (_, many) = quickpick(&spec, &Kappa0, 200, 7);
        assert!(many <= one);
    }

    #[test]
    fn stochastic_methods_never_beat_exhaustive() {
        let spec = chain_spec(7);
        let opt = optimize_join(&spec, &Kappa0).unwrap().cost;
        let (_, qp) = quickpick(&spec, &Kappa0, 100, 3);
        let (_, ii) = iterated_improvement(&spec, &Kappa0, IiParams::default());
        let (_, sa) = simulated_annealing(&spec, &Kappa0, SaParams::default());
        let (_, hy) = hybrid_dp_local(&spec, &Kappa0, 3, 9);
        for (name, c) in [("quickpick", qp), ("II", ii), ("SA", sa), ("hybrid", hy)] {
            assert!(opt <= c * (1.0 + 1e-4), "{name} {c} beat optimum {opt}");
        }
    }

    /// II must find the global optimum of a benign 6-relation chain —
    /// asserted over an *ensemble* of explicit seeds, so the test does
    /// not hinge on any particular RNG stream position: a future RNG
    /// change re-rolls every climb, but the probability that dozens of
    /// independent generous-budget restarts all miss a benign optimum
    /// is negligible for any uniform generator.
    #[test]
    fn iterated_improvement_reaches_optimum_on_small_problems() {
        let spec = chain_spec(6);
        let opt = optimize_join(&spec, &Kappa0).unwrap().cost;
        let best = [3u64, 11, 42, 97, 1234, 0xdead]
            .into_iter()
            .map(|seed| {
                let (_, c) = iterated_improvement(
                    &spec,
                    &Kappa0,
                    IiParams { restarts: 50, max_consecutive_failures: 400, seed },
                );
                c
            })
            .fold(f32::INFINITY, f32::min);
        assert!((best - opt).abs() <= opt.abs() * 1e-4 + 1e-4, "II {best} vs opt {opt}");
    }

    /// Stream-robust monotonicity: with one seed, the first `k` restarts
    /// of a longer run are *exactly* the `k`-restart run (a single RNG
    /// drives restarts sequentially), so more restarts can never report
    /// a worse best. Holds for any RNG implementation, unlike asserting
    /// what a specific restart finds.
    #[test]
    fn iterated_improvement_restart_prefix_property() {
        let spec = chain_spec(6);
        for seed in [7u64, 11, 99] {
            let (_, short) = iterated_improvement(
                &spec,
                &Kappa0,
                IiParams { restarts: 10, max_consecutive_failures: 200, seed },
            );
            let (_, long) = iterated_improvement(
                &spec,
                &Kappa0,
                IiParams { restarts: 50, max_consecutive_failures: 200, seed },
            );
            assert!(long <= short, "seed {seed}: best-of-50 {long} > best-of-10 {short}");
        }
    }

    #[test]
    fn hybrid_covers_all_relations() {
        let spec = chain_spec(10);
        let (plan, cost) = hybrid_dp_local(&spec, &Kappa0, 4, 5);
        assert_eq!(plan.rel_set(), spec.all_rels());
        assert!(cost.is_finite());
    }

    #[test]
    fn hybrid_with_full_block_is_exact() {
        let spec = chain_spec(7);
        let opt = optimize_join(&spec, &Kappa0).unwrap().cost;
        let (_, hy) = hybrid_dp_local(&spec, &Kappa0, 7, 1);
        assert!((hy - opt).abs() <= opt.abs() * 1e-4 + 1e-4);
    }

    #[test]
    fn seeded_runs_are_deterministic() {
        let spec = chain_spec(8);
        let a = quickpick(&spec, &Kappa0, 50, 99);
        let b = quickpick(&spec, &Kappa0, 50, 99);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }
}
