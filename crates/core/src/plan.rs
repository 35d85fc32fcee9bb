//! Bushy plan trees: extraction from the DP table, re-costing, shape
//! queries, and physical-algorithm annotation (paper Sections 3.1 and 6.5).
//!
//! A [`Plan`] records only the *shape* of a join tree (which relations
//! join in which order); cardinalities and costs are derived properties of
//! a shape with respect to a [`JoinSpec`] and a [`CostModel`]. Keeping the
//! shape pure makes plans cheap to transform (the stochastic baselines
//! rewrite shapes freely) and impossible to de-synchronize from their
//! statistics. [`Plan::annotate`] produces a fully-costed tree — and, per
//! Section 6.5, attaches the cheapest physical join algorithm to each node
//! in a single traversal after optimization.

use crate::bitset::RelSet;
use crate::cost::{CostModel, JoinAlgorithm, SmDnl};
use crate::spec::JoinSpec;
use crate::table::TableLayout;

/// The shape of a (bushy) join tree.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Plan {
    /// A base-relation scan.
    Scan {
        /// Index of the base relation.
        rel: usize,
    },
    /// A dyadic join (or Cartesian product, when no predicate spans the
    /// children).
    Join {
        /// Left input (`S_lhs` / outer).
        left: Box<Plan>,
        /// Right input (`S_rhs` / inner).
        right: Box<Plan>,
    },
}

impl Plan {
    /// Leaf constructor.
    pub fn scan(rel: usize) -> Plan {
        Plan::Scan { rel }
    }

    /// Join constructor.
    pub fn join(left: Plan, right: Plan) -> Plan {
        Plan::Join { left: Box::new(left), right: Box::new(right) }
    }

    /// The set of base relations covered by this (sub)plan.
    pub fn rel_set(&self) -> RelSet {
        match self {
            Plan::Scan { rel } => RelSet::singleton(*rel),
            Plan::Join { left, right } => left.rel_set() | right.rel_set(),
        }
    }

    /// Number of join (internal) nodes; a plan over `n` relations has
    /// `n − 1`.
    pub fn num_joins(&self) -> usize {
        match self {
            Plan::Scan { .. } => 0,
            Plan::Join { left, right } => 1 + left.num_joins() + right.num_joins(),
        }
    }

    /// Height of the tree (a scan has depth 0).
    pub fn depth(&self) -> usize {
        match self {
            Plan::Scan { .. } => 0,
            Plan::Join { left, right } => 1 + left.depth().max(right.depth()),
        }
    }

    /// `true` iff every join's right input is a base relation — the
    /// "left-deep vine" shape many optimizers restrict themselves to.
    pub fn is_left_deep(&self) -> bool {
        match self {
            Plan::Scan { .. } => true,
            Plan::Join { left, right } => {
                matches!(**right, Plan::Scan { .. }) && left.is_left_deep()
            }
        }
    }

    /// `true` iff some join's inputs are connected by no predicate — i.e.
    /// the plan contains a Cartesian product with respect to `spec`.
    pub fn contains_cartesian_product(&self, spec: &JoinSpec) -> bool {
        match self {
            Plan::Scan { .. } => false,
            Plan::Join { left, right } => {
                !spec.spans(left.rel_set(), right.rel_set())
                    || left.contains_cartesian_product(spec)
                    || right.contains_cartesian_product(spec)
            }
        }
    }

    /// Recompute the plan's cost bottom-up under `spec`/`model`, returning
    /// `(result cardinality, total cost)`.
    ///
    /// This is the recursive definition of equations (1)–(2) — the cost of
    /// a base relation is 0, and `cost(E ⨝ E') = cost(E) + cost(E') +
    /// κ(⟦E⨝E'⟧, ⟦E⟧, ⟦E'⟧)` — evaluated directly, independent of the DP
    /// table. Used to cross-validate the optimizer and to cost plans
    /// produced by heuristic/stochastic baselines.
    pub fn cost<M: CostModel>(&self, spec: &JoinSpec, model: &M) -> (f64, f32) {
        match self {
            Plan::Scan { rel } => (spec.card(*rel), 0.0),
            Plan::Join { left, right } => {
                let (lc, lcost) = left.cost(spec, model);
                let (rc, rcost) = right.cost(spec, model);
                let out = lc * rc * spec.pi_span(left.rel_set(), right.rel_set());
                let cost = lcost + rcost + model.kappa(out, lc, rc);
                (out, cost)
            }
        }
    }

    /// Canonical form: reorder each join's children so that the side
    /// containing the smaller minimum relation comes first. Two plans that
    /// differ only by join commutativity canonicalize identically —
    /// convenient for tests. (Note: commuted plans may genuinely differ in
    /// cost under asymmetric models such as `κ_dnl`; canonicalization is a
    /// *shape* equivalence, not a cost equivalence.)
    pub fn canonical(&self) -> Plan {
        match self {
            Plan::Scan { rel } => Plan::scan(*rel),
            Plan::Join { left, right } => {
                let l = left.canonical();
                let r = right.canonical();
                if l.rel_set().min_rel() <= r.rel_set().min_rel() {
                    Plan::join(l, r)
                } else {
                    Plan::join(r, l)
                }
            }
        }
    }

    /// All leaves, left to right.
    pub fn leaves(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves(&self, out: &mut Vec<usize>) {
        match self {
            Plan::Scan { rel } => out.push(*rel),
            Plan::Join { left, right } => {
                left.collect_leaves(out);
                right.collect_leaves(out);
            }
        }
    }

    /// Extract the optimal plan for subset `s` from a filled DP table by
    /// recursively consulting the `best_lhs` fields (paper Section 3.1:
    /// "we then find optimal subexpressions … by recursively consulting
    /// the table in the same manner").
    ///
    /// # Panics
    /// Panics if `s` is empty or if the table rows for `s` or any
    /// required subset were never filled in (e.g. a threshold pass failed).
    pub fn extract<L: TableLayout>(table: &L, s: RelSet) -> Plan {
        assert!(!s.is_empty(), "cannot extract a plan for the empty set");
        if s.is_singleton() {
            return Plan::scan(s.min_rel().unwrap());
        }
        let lhs = table.best_lhs(s);
        assert!(
            !lhs.is_empty() && lhs.is_subset_of(s) && lhs != s,
            "table row for {s:?} holds no valid split (best_lhs = {lhs:?}); \
             was optimization successful?"
        );
        let rhs = s - lhs;
        Plan::join(Plan::extract(table, lhs), Plan::extract(table, rhs))
    }

    /// Annotate the plan with per-node cardinalities, costs and (when the
    /// model distinguishes algorithms) the cheapest physical join
    /// algorithm — the single post-optimization traversal of Section 6.5.
    pub fn annotate<M: CostModel>(&self, spec: &JoinSpec, model: &M) -> AnnotatedPlan {
        self.annotate_inner(spec, model, None)
    }

    /// Like [`Plan::annotate`], but chooses between sort-merge and
    /// disk-nested-loops per node using the combined [`SmDnl`] model.
    pub fn annotate_algorithms(&self, spec: &JoinSpec, model: &SmDnl) -> AnnotatedPlan {
        self.annotate_inner(spec, model, Some(model))
    }

    fn annotate_inner<M: CostModel>(
        &self,
        spec: &JoinSpec,
        model: &M,
        algo: Option<&SmDnl>,
    ) -> AnnotatedPlan {
        match self {
            Plan::Scan { rel } => AnnotatedPlan {
                set: RelSet::singleton(*rel),
                card: spec.card(*rel),
                cost: 0.0,
                algorithm: None,
                children: Vec::new(),
            },
            Plan::Join { left, right } => {
                let l = left.annotate_inner(spec, model, algo);
                let r = right.annotate_inner(spec, model, algo);
                let out = l.card * r.card * spec.pi_span(l.set, r.set);
                let cost = l.cost + r.cost + model.kappa(out, l.card, r.card);
                let algorithm = algo.map(|m| m.cheaper_algorithm(out, l.card, r.card));
                AnnotatedPlan { set: l.set | r.set, card: out, cost, algorithm, children: vec![l, r] }
            }
        }
    }

    /// Render the plan as a Graphviz `digraph` for visual inspection
    /// (`dot -Tsvg plan.dot`). Join nodes are labeled with their relation
    /// sets; edges point from operators to their inputs.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph plan {\n  node [shape=box, fontname=\"monospace\"];\n");
        let mut next_id = 0usize;
        self.dot_node(&mut out, &mut next_id);
        out.push_str("}\n");
        out
    }

    fn dot_node(&self, out: &mut String, next_id: &mut usize) -> usize {
        use std::fmt::Write;
        let id = *next_id;
        *next_id += 1;
        match self {
            Plan::Scan { rel } => {
                let _ = writeln!(out, "  n{id} [label=\"Scan R{rel}\", shape=ellipse];");
            }
            Plan::Join { left, right } => {
                let _ = writeln!(out, "  n{id} [label=\"Join {:?}\"];", self.rel_set());
                let l = left.dot_node(out, next_id);
                let r = right.dot_node(out, next_id);
                let _ = writeln!(out, "  n{id} -> n{l};");
                let _ = writeln!(out, "  n{id} -> n{r};");
            }
        }
        id
    }

    /// Render the plan as a nested expression, e.g. `((R0 x R3) x (R1 x R2))`.
    pub fn to_expr(&self) -> String {
        match self {
            Plan::Scan { rel } => format!("R{rel}"),
            Plan::Join { left, right } => {
                format!("({} x {})", left.to_expr(), right.to_expr())
            }
        }
    }
}

impl std::fmt::Display for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_expr())
    }
}

/// Handle to a node inside a [`PlanArena`].
///
/// Only meaningful for the arena that produced it; indexing another
/// arena with it yields an unrelated node (or a panic).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PlanNodeId(u32);

const ARENA_NIL: u32 = u32::MAX;

/// One arena node: a scan (`left == ARENA_NIL`) or a join.
#[derive(Copy, Clone, Debug)]
struct ArenaNode {
    /// Base-relation index for scans; unused for joins.
    rel: u32,
    /// Left child, or [`ARENA_NIL`] for a scan.
    left: u32,
    /// Right child, or [`ARENA_NIL`] for a scan.
    right: u32,
}

/// A reusable, flat node store for plan extraction.
///
/// [`Plan::extract`] allocates two `Box`es per join node — `2n − 1`
/// heap allocations for an `n`-relation query, paid on every
/// extraction. A `PlanArena` replaces them with appends into one
/// recycled `Vec`: after the first extraction of a given size warms the
/// backing storage, [`PlanArena::extract`] (and
/// [`PlanArena::clear`]) performs **zero** heap allocations — pinned by
/// the `no_alloc` integration suite. The service keeps a pool of warm
/// arenas and recycles them across requests the same way it recycles DP
/// tables.
///
/// The arena owns only shapes; convert a root to an owned [`Plan`] with
/// [`PlanArena::to_plan`] (which allocates, for callers that need the
/// boxed form, e.g. to share a plan beyond the arena's lifetime) or
/// render it directly with [`PlanArena::write_expr`].
#[derive(Clone, Debug, Default)]
pub struct PlanArena {
    nodes: Vec<ArenaNode>,
}

impl PlanArena {
    /// An empty arena. The first extraction grows it; prefer
    /// [`PlanArena::with_node_capacity`] when the plan size is known.
    pub fn new() -> PlanArena {
        PlanArena::default()
    }

    /// An arena pre-sized for `nodes` plan nodes (a plan over `n`
    /// relations has `2n − 1`).
    pub fn with_node_capacity(nodes: usize) -> PlanArena {
        PlanArena { nodes: Vec::with_capacity(nodes) }
    }

    /// Drop all nodes, keeping the backing storage for reuse. Every
    /// previously issued [`PlanNodeId`] is invalidated.
    pub fn clear(&mut self) {
        self.nodes.clear();
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the arena holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Nodes the arena can hold before reallocating.
    pub fn capacity(&self) -> usize {
        self.nodes.capacity()
    }

    fn push(&mut self, node: ArenaNode) -> PlanNodeId {
        let id = u32::try_from(self.nodes.len()).expect("plan arena node count fits u32");
        self.nodes.push(node);
        PlanNodeId(id)
    }

    /// Append a scan leaf.
    pub fn scan(&mut self, rel: usize) -> PlanNodeId {
        let rel = u32::try_from(rel).expect("relation index fits u32");
        self.push(ArenaNode { rel, left: ARENA_NIL, right: ARENA_NIL })
    }

    /// Append a join over two existing nodes.
    pub fn join(&mut self, left: PlanNodeId, right: PlanNodeId) -> PlanNodeId {
        self.push(ArenaNode { rel: 0, left: left.0, right: right.0 })
    }

    /// [`Plan::extract`] into the arena: append the optimal plan for
    /// subset `s` from a filled DP table and return its root. Does not
    /// clear first, so several plans can share one arena; recycle with
    /// [`PlanArena::clear`].
    ///
    /// # Panics
    /// Panics if `s` is empty or if the table rows for `s` or any
    /// required subset were never filled in (e.g. a threshold pass
    /// failed).
    pub fn extract<L: TableLayout>(&mut self, table: &L, s: RelSet) -> PlanNodeId {
        assert!(!s.is_empty(), "cannot extract a plan for the empty set");
        if s.is_singleton() {
            return self.scan(s.min_rel().unwrap());
        }
        let lhs = table.best_lhs(s);
        assert!(
            !lhs.is_empty() && lhs.is_subset_of(s) && lhs != s,
            "table row for {s:?} holds no valid split (best_lhs = {lhs:?}); \
             was optimization successful?"
        );
        let left = self.extract(table, lhs);
        let right = self.extract(table, s - lhs);
        self.join(left, right)
    }

    /// Append a degenerate left-deep vine over relations `0..n` in input
    /// order — the fallback shape used when every plan's cost overflows.
    pub fn left_deep_vine(&mut self, n: usize) -> PlanNodeId {
        assert!(n >= 1, "a plan needs at least one relation");
        let mut root = self.scan(0);
        for rel in 1..n {
            let leaf = self.scan(rel);
            root = self.join(root, leaf);
        }
        root
    }

    /// The set of base relations covered by the subtree at `id`.
    pub fn rel_set(&self, id: PlanNodeId) -> RelSet {
        let node = self.nodes[id.0 as usize];
        if node.left == ARENA_NIL {
            RelSet::singleton(node.rel as usize)
        } else {
            self.rel_set(PlanNodeId(node.left)) | self.rel_set(PlanNodeId(node.right))
        }
    }

    /// Convert the subtree at `id` into an owned boxed [`Plan`]. This is
    /// the one allocating escape hatch — use it when the plan must
    /// outlive the arena (e.g. for caching), not per request.
    pub fn to_plan(&self, id: PlanNodeId) -> Plan {
        let node = self.nodes[id.0 as usize];
        if node.left == ARENA_NIL {
            Plan::scan(node.rel as usize)
        } else {
            Plan::join(self.to_plan(PlanNodeId(node.left)), self.to_plan(PlanNodeId(node.right)))
        }
    }

    /// Render the subtree at `id` in [`Plan::to_expr`] syntax, appending
    /// to `out` (no intermediate allocations beyond `out`'s growth).
    pub fn write_expr(&self, id: PlanNodeId, out: &mut String) {
        use std::fmt::Write;
        let node = self.nodes[id.0 as usize];
        if node.left == ARENA_NIL {
            let _ = write!(out, "R{}", node.rel);
        } else {
            out.push('(');
            self.write_expr(PlanNodeId(node.left), out);
            out.push_str(" x ");
            self.write_expr(PlanNodeId(node.right), out);
            out.push(')');
        }
    }

    /// [`PlanArena::write_expr`] into a fresh string.
    pub fn expr(&self, id: PlanNodeId) -> String {
        let mut out = String::new();
        self.write_expr(id, &mut out);
        out
    }
}

/// A plan tree annotated with per-node statistics; see [`Plan::annotate`].
#[derive(Clone, Debug)]
pub struct AnnotatedPlan {
    /// Relations covered by the node.
    pub set: RelSet,
    /// Estimated output cardinality.
    pub card: f64,
    /// Cumulative cost of the subtree.
    pub cost: f32,
    /// Chosen physical algorithm (join nodes under an algorithm-aware
    /// model; `None` for scans or single-algorithm models).
    pub algorithm: Option<JoinAlgorithm>,
    /// Child nodes (empty for scans, two for joins).
    pub children: Vec<AnnotatedPlan>,
}

impl AnnotatedPlan {
    /// Multi-line indented rendering for human consumption.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        for _ in 0..depth {
            out.push_str("  ");
        }
        if self.children.is_empty() {
            let rel = self.set.min_rel().unwrap_or(0);
            let _ = writeln!(out, "Scan R{rel}  card={:.6e}", self.card);
        } else {
            let algo = match self.algorithm {
                Some(JoinAlgorithm::SortMerge) => " [sort-merge]",
                Some(JoinAlgorithm::DiskNestedLoops) => " [disk-NL]",
                Some(JoinAlgorithm::Hash) => " [hash]",
                None => "",
            };
            let _ =
                writeln!(out, "Join {:?}{algo}  card={:.6e} cost={:.6e}", self.set, self.card, self.cost);
            for c in &self.children {
                c.render_into(out, depth + 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Kappa0;

    fn table1_spec() -> JoinSpec {
        JoinSpec::cartesian(&[10.0, 20.0, 30.0, 40.0]).unwrap()
    }

    /// `(A × D) × (B × C)` — the optimal expression of Table 1.
    fn table1_plan() -> Plan {
        Plan::join(
            Plan::join(Plan::scan(0), Plan::scan(3)),
            Plan::join(Plan::scan(1), Plan::scan(2)),
        )
    }

    #[test]
    fn shape_queries() {
        let p = table1_plan();
        assert_eq!(p.rel_set(), RelSet::full(4));
        assert_eq!(p.num_joins(), 3);
        assert_eq!(p.depth(), 2);
        assert!(!p.is_left_deep());
        assert_eq!(p.leaves(), vec![0, 3, 1, 2]);
        assert_eq!(p.to_expr(), "((R0 x R3) x (R1 x R2))");

        let ld = Plan::join(Plan::join(Plan::scan(0), Plan::scan(1)), Plan::scan(2));
        assert!(ld.is_left_deep());
        assert_eq!(ld.depth(), 2);
    }

    #[test]
    fn table1_cost_under_kappa0() {
        // Table 1's final row: cost 241 000 for (A×D)×(B×C).
        let spec = table1_spec();
        let (card, cost) = table1_plan().cost(&spec, &Kappa0);
        assert_eq!(card, 240_000.0);
        assert_eq!(cost, 241_000.0);
    }

    #[test]
    fn suboptimal_plan_costs_more() {
        // Left-deep ((A×B)×C)×D: 200 + 6000 + 240000 = 246200.
        let spec = table1_spec();
        let p = Plan::join(
            Plan::join(Plan::join(Plan::scan(0), Plan::scan(1)), Plan::scan(2)),
            Plan::scan(3),
        );
        let (_, cost) = p.cost(&spec, &Kappa0);
        assert_eq!(cost, 246_200.0);
        assert!(cost > 241_000.0);
    }

    #[test]
    fn cost_with_predicates_uses_spanning_selectivities() {
        let spec = JoinSpec::new(&[10.0, 20.0, 30.0], &[(0, 1, 0.1), (1, 2, 0.5)]).unwrap();
        // (R0 ⨝ R1) ⨝ R2 under κ0:
        //   R0⨝R1: out = 10·20·0.1 = 20, cost 20
        //   (R0R1)⨝R2: out = 20·30·0.5 = 300, cost 20 + 300 = 320
        let p = Plan::join(Plan::join(Plan::scan(0), Plan::scan(1)), Plan::scan(2));
        let (card, cost) = p.cost(&spec, &Kappa0);
        assert!((card - 300.0).abs() < 1e-9);
        assert!((cost - 320.0).abs() < 1e-3);
    }

    #[test]
    fn cartesian_product_detection() {
        let spec = JoinSpec::new(&[10.0, 20.0, 30.0], &[(0, 1, 0.1)]).unwrap();
        // R0⨝R1 then ×R2 → contains a product (R2 unconnected).
        let p = Plan::join(Plan::join(Plan::scan(0), Plan::scan(1)), Plan::scan(2));
        assert!(p.contains_cartesian_product(&spec));
        // Fully-connected pair only.
        let q = Plan::join(Plan::scan(0), Plan::scan(1));
        assert!(!q.contains_cartesian_product(&spec));
    }

    #[test]
    fn canonicalization_merges_commuted_shapes() {
        let a = Plan::join(Plan::scan(1), Plan::scan(0));
        let b = Plan::join(Plan::scan(0), Plan::scan(1));
        assert_ne!(a, b);
        assert_eq!(a.canonical(), b.canonical());

        let big1 = Plan::join(
            Plan::join(Plan::scan(2), Plan::scan(1)),
            Plan::join(Plan::scan(3), Plan::scan(0)),
        );
        let big2 = Plan::join(
            Plan::join(Plan::scan(0), Plan::scan(3)),
            Plan::join(Plan::scan(1), Plan::scan(2)),
        );
        assert_eq!(big1.canonical(), big2.canonical());
    }

    #[test]
    fn annotate_matches_cost() {
        let spec = table1_spec();
        let p = table1_plan();
        let a = p.annotate(&spec, &Kappa0);
        let (card, cost) = p.cost(&spec, &Kappa0);
        assert_eq!(a.card, card);
        assert_eq!(a.cost, cost);
        assert_eq!(a.children.len(), 2);
        let rendered = a.render();
        assert!(rendered.contains("Join"));
        assert!(rendered.contains("Scan R0"));
    }

    #[test]
    fn dot_export_contains_all_nodes_and_edges() {
        let p = table1_plan();
        let dot = p.to_dot();
        assert!(dot.starts_with("digraph plan {"));
        assert!(dot.ends_with("}\n"));
        // 4 scans + 3 joins = 7 node declarations; 6 edges.
        assert_eq!(dot.matches("[label=").count(), 7);
        assert_eq!(dot.matches(" -> ").count(), 6);
        assert!(dot.contains("Scan R0"));
        assert!(dot.contains("Join {R0,R1,R2,R3}"));
    }

    #[test]
    fn annotate_algorithms_attaches_choice() {
        let spec = JoinSpec::new(&[1000.0, 2000.0], &[(0, 1, 0.001)]).unwrap();
        let model = SmDnl::default();
        let p = Plan::join(Plan::scan(0), Plan::scan(1));
        let a = p.annotate_algorithms(&spec, &model);
        assert!(a.algorithm.is_some());
    }

    #[test]
    fn arena_extract_matches_boxed_extract() {
        let spec = JoinSpec::new(
            &[10.0, 20.0, 30.0, 40.0, 50.0],
            &[(0, 1, 0.1), (1, 2, 0.2), (2, 3, 0.05), (0, 4, 0.5)],
        )
        .unwrap();
        let table = crate::join::optimize_join_into::<crate::table::AosTable, _, _, true>(
            &spec,
            &Kappa0,
            f32::INFINITY,
            crate::split::DriveOptions::serial(),
            &mut crate::stats::NoStats,
        );
        let full = spec.all_rels();
        let boxed = Plan::extract(&table, full);

        let mut arena = PlanArena::new();
        let root = arena.extract(&table, full);
        assert_eq!(arena.len(), 2 * spec.n() - 1);
        assert_eq!(arena.rel_set(root), full);
        assert_eq!(arena.to_plan(root), boxed);
        assert_eq!(arena.expr(root), boxed.to_expr());

        // Recycling: clear keeps storage, and a re-extraction lands on
        // the identical shape without growing the arena.
        let warmed = arena.capacity();
        arena.clear();
        assert!(arena.is_empty());
        let root = arena.extract(&table, full);
        assert_eq!(arena.capacity(), warmed);
        assert_eq!(arena.to_plan(root), boxed);
    }

    #[test]
    fn arena_vine_matches_boxed_fallback() {
        let mut arena = PlanArena::with_node_capacity(7);
        let root = arena.left_deep_vine(4);
        let mut boxed = Plan::scan(0);
        for rel in 1..4 {
            boxed = Plan::join(boxed, Plan::scan(rel));
        }
        assert_eq!(arena.to_plan(root), boxed);
        assert!(arena.to_plan(root).is_left_deep());
        assert_eq!(arena.expr(root), "(((R0 x R1) x R2) x R3)");
    }

    #[test]
    fn arena_rejects_empty_set() {
        let table = crate::table::AosTable::with_rels(2);
        let mut arena = PlanArena::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            arena.extract(&table, RelSet::EMPTY)
        }));
        assert!(result.is_err());
    }
}
