//! Problem specifications beyond the DP table's reach.
//!
//! `blitz-core`'s [`JoinSpec`] is deliberately capped at [`MAX_RELS`]
//! relations because its relation sets are `u32` bit-vectors feeding a
//! `2^n`-row DP table. The ladder serves queries up to `n = 100`, so it
//! needs a representation with no table behind it: [`BigSpec`] stores the
//! same cardinalities-plus-selectivity-matrix data with `u128` relation
//! sets and **no** exhaustive optimizer — only plan re-costing, greedy
//! construction, and extraction of table-sized [`JoinSpec`] sub-problems
//! for the ladder's rung-2 block DP.
//!
//! [`Plan`] trees are index-agnostic (a leaf is just a `usize`), so the
//! core plan type and the stochastic move set work unchanged on big
//! problems; the one rule is that `Plan::rel_set`/`Plan::cost` — which go
//! through `RelSet` — must never be called on a plan whose leaves exceed
//! [`MAX_RELS`]. Big plans are costed by [`BigSpec::plan_cost`]
//! instead, which mirrors the `Plan::cost` recursion exactly (same
//! operation order, bit-identical results for problems both types can
//! represent), and by rung 3's in-place
//! [`blitz_baselines::LocalSearch`], which reads a [`BigSpec`] through
//! its [`SearchSpec`] impl and keeps the same bits.

use blitz_baselines::SearchSpec;
use blitz_core::{CostModel, JoinSpec, Plan, SpecError, MAX_RELS};

/// Hard cap on [`BigSpec`] relations: one bit per relation in a `u128`.
pub const MAX_BIG_RELS: usize = 128;

/// A join-ordering problem of up to [`MAX_BIG_RELS`] relations: base
/// cardinalities plus a symmetric selectivity matrix (entry 1.0 ⇔ no
/// predicate), exactly as in [`JoinSpec`] but without the table-size cap.
#[derive(Clone, Debug, PartialEq)]
pub struct BigSpec {
    cards: Vec<f64>,
    /// Row-major `n × n` symmetric matrix; diagonal unused (1.0).
    sel: Vec<f64>,
}

impl BigSpec {
    /// Build a specification from cardinalities and a predicate list
    /// `(i, j, selectivity)`; multiple predicates between a pair multiply.
    ///
    /// Validation mirrors [`JoinSpec::new`] with the relation cap raised
    /// to [`MAX_BIG_RELS`].
    pub fn new(cards: &[f64], predicates: &[(usize, usize, f64)]) -> Result<BigSpec, SpecError> {
        let n = cards.len();
        if n == 0 {
            return Err(SpecError::Empty);
        }
        if n > MAX_BIG_RELS {
            return Err(SpecError::TooManyRels(n));
        }
        for (rel, &card) in cards.iter().enumerate() {
            if !(card.is_finite() && card > 0.0) {
                return Err(SpecError::BadCardinality { rel, card });
            }
        }
        let mut sel = vec![1.0f64; n * n];
        for &(i, j, s) in predicates {
            if i >= n || j >= n || i == j || !(s.is_finite() && s > 0.0) {
                return Err(SpecError::BadPredicate { lhs: i, rhs: j, selectivity: s });
            }
            sel[i * n + j] *= s;
            sel[j * n + i] *= s;
        }
        Ok(BigSpec { cards: cards.to_vec(), sel })
    }

    /// Lift a table-sized [`JoinSpec`] into a [`BigSpec`] (lossless: the
    /// cardinalities and selectivity matrix are copied verbatim).
    pub fn from_spec(spec: &JoinSpec) -> BigSpec {
        let n = spec.n();
        let mut sel = vec![1.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    sel[i * n + j] = spec.selectivity(i, j);
                }
            }
        }
        BigSpec { cards: spec.cards().to_vec(), sel }
    }

    /// Number of base relations `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.cards.len()
    }

    /// Cardinality of base relation `rel`.
    #[inline]
    pub fn card(&self, rel: usize) -> f64 {
        self.cards[rel]
    }

    /// All base cardinalities.
    #[inline]
    pub fn cards(&self) -> &[f64] {
        &self.cards
    }

    /// Effective selectivity between relations `i` and `j` (1.0 ⇔ no
    /// predicate).
    #[inline]
    pub fn selectivity(&self, i: usize, j: usize) -> f64 {
        self.sel[i * self.n() + j]
    }

    /// `true` iff a (non-trivial) predicate connects `i` and `j`.
    #[inline]
    pub fn has_predicate(&self, i: usize, j: usize) -> bool {
        self.selectivity(i, j) != 1.0
    }

    /// The join-graph edges `(i, j, σ)` with `i < j` and `σ ≠ 1`.
    pub fn edges(&self) -> Vec<(usize, usize, f64)> {
        let n = self.n();
        let mut out = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                let s = self.selectivity(i, j);
                if s != 1.0 {
                    out.push((i, j, s));
                }
            }
        }
        out
    }

    /// Number of join-graph edges.
    pub fn edge_count(&self) -> usize {
        self.edges().len()
    }

    /// `true` iff the whole join graph is connected.
    pub fn is_connected(&self) -> bool {
        let n = self.n();
        let mut reached = vec![false; n];
        let mut stack = vec![0usize];
        reached[0] = true;
        let mut count = 1usize;
        while let Some(u) = stack.pop() {
            for (v, r) in reached.iter_mut().enumerate() {
                if !*r && self.has_predicate(u, v) {
                    *r = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }

    /// `true` iff the join graph contains no cycle (union-find over the
    /// edges; parallel predicates were already folded by construction).
    pub fn is_acyclic(&self) -> bool {
        let mut parent: Vec<usize> = (0..self.n()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (i, j, _) in self.edges() {
            let a = find(&mut parent, i);
            let b = find(&mut parent, j);
            if a == b {
                return false;
            }
            parent[a] = b;
        }
        true
    }

    /// Lower to a [`JoinSpec`] when the problem fits the core types
    /// (`n ≤ MAX_RELS`); `None` otherwise.
    pub fn to_join_spec(&self) -> Option<JoinSpec> {
        if self.n() > MAX_RELS {
            return None;
        }
        JoinSpec::new(&self.cards, &self.edges()).ok()
    }

    /// Extract the table-sized sub-problem induced by `rels` (order
    /// defines the new indices) — the rung-2 block-DP input. The mapping
    /// back is `rels[new_index] = original_index`.
    ///
    /// # Panics
    /// Panics if `rels` is empty, exceeds [`MAX_RELS`], or repeats a
    /// relation.
    pub fn subspec(&self, rels: &[usize]) -> JoinSpec {
        assert!(
            !rels.is_empty() && rels.len() <= MAX_RELS,
            "sub-problem of {} relations does not fit a JoinSpec",
            rels.len()
        );
        let cards: Vec<f64> = rels.iter().map(|&r| self.cards[r]).collect();
        let mut preds = Vec::new();
        for (i, &a) in rels.iter().enumerate() {
            for (j, &b) in rels.iter().enumerate().skip(i + 1) {
                assert!(a != b, "relation R{a} appears twice in the sub-problem");
                let s = self.selectivity(a, b);
                if s != 1.0 {
                    preds.push((i, j, s));
                }
            }
        }
        // Documented `# Panics` contract above; keep the panic but name
        // the rejected input instead of an anonymous expect.
        JoinSpec::new(&cards, &preds)
            .unwrap_or_else(|e| panic!("sub-problem of a valid BigSpec rejected: {e:?}"))
    }

    /// `Π_span(U, V)`: the selectivity product over predicates spanning
    /// the two (disjoint) `u128` relation sets. Members are visited in
    /// ascending index order on both sides, matching
    /// [`JoinSpec::pi_span`]'s iteration exactly so costs agree bitwise.
    pub fn pi_span_bits(&self, u: u128, v: u128) -> f64 {
        debug_assert_eq!(u & v, 0, "Π_span operands must be disjoint");
        let mut p = 1.0;
        let mut ub = u;
        while ub != 0 {
            let i = ub.trailing_zeros() as usize;
            ub &= ub - 1;
            let mut vb = v;
            while vb != 0 {
                let j = vb.trailing_zeros() as usize;
                vb &= vb - 1;
                p *= self.selectivity(i, j);
            }
        }
        p
    }

    /// Recompute a plan's `(result cardinality, total cost)` bottom-up —
    /// the [`Plan::cost`] recursion re-stated over `u128` relation sets so
    /// it works for leaves `≥ MAX_RELS`. Identical operation order means
    /// identical floating-point results where both apply.
    pub fn plan_cost<M: CostModel>(&self, plan: &Plan, model: &M) -> (f64, f32) {
        let (_, card, cost) = self.cost_rec(plan, model);
        (card, cost)
    }

    fn cost_rec<M: CostModel>(&self, plan: &Plan, model: &M) -> (u128, f64, f32) {
        match plan {
            Plan::Scan { rel } => {
                debug_assert!(*rel < self.n(), "leaf R{rel} outside the spec");
                (1u128 << rel, self.cards[*rel], 0.0)
            }
            Plan::Join { left, right } => {
                let (ls, lc, lcost) = self.cost_rec(left, model);
                let (rs, rc, rcost) = self.cost_rec(right, model);
                let out = lc * rc * self.pi_span_bits(ls, rs);
                let cost = lcost + rcost + model.kappa(out, lc, rc);
                (ls | rs, out, cost)
            }
        }
    }
}

/// Rung 3 searches a [`BigSpec`] in place through
/// [`blitz_baselines::LocalSearch`]; its symmetric selectivity matrix
/// meets the trait's contract.
impl SearchSpec for BigSpec {
    fn n(&self) -> usize {
        BigSpec::n(self)
    }

    fn card(&self, rel: usize) -> f64 {
        BigSpec::card(self, rel)
    }

    fn selectivity(&self, i: usize, j: usize) -> f64 {
        BigSpec::selectivity(self, i, j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blitz_core::Kappa0;

    fn fig3_spec() -> JoinSpec {
        JoinSpec::new(
            &[10.0, 20.0, 30.0, 40.0],
            &[(0, 1, 0.1), (0, 2, 0.2), (1, 2, 0.3), (0, 3, 0.4)],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_through_join_spec_is_lossless() {
        let spec = fig3_spec();
        let big = BigSpec::from_spec(&spec);
        assert_eq!(big.n(), 4);
        assert_eq!(big.selectivity(0, 2), 0.2);
        assert_eq!(big.selectivity(1, 3), 1.0);
        let back = big.to_join_spec().unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn plan_cost_matches_core_recursion_bitwise() {
        let spec = fig3_spec();
        let big = BigSpec::from_spec(&spec);
        let plans = [
            Plan::join(
                Plan::join(Plan::scan(0), Plan::scan(3)),
                Plan::join(Plan::scan(1), Plan::scan(2)),
            ),
            Plan::join(
                Plan::join(Plan::join(Plan::scan(2), Plan::scan(1)), Plan::scan(0)),
                Plan::scan(3),
            ),
        ];
        for plan in &plans {
            let (card, cost) = plan.cost(&spec, &Kappa0);
            let (bcard, bcost) = big.plan_cost(plan, &Kappa0);
            assert_eq!(card.to_bits(), bcard.to_bits(), "cards must agree bitwise");
            assert_eq!(cost.to_bits(), bcost.to_bits(), "costs must agree bitwise");
        }
    }

    #[test]
    fn accepts_more_relations_than_join_spec() {
        let cards = vec![100.0; 100];
        let preds: Vec<(usize, usize, f64)> = (0..99).map(|i| (i, i + 1, 0.01)).collect();
        let big = BigSpec::new(&cards, &preds).unwrap();
        assert_eq!(big.n(), 100);
        assert!(big.is_connected());
        assert!(big.is_acyclic());
        assert!(big.to_join_spec().is_none());
        assert!(JoinSpec::new(&cards, &preds).is_err());
        // Costing a plan with leaves far above MAX_RELS works.
        let plan = (1..100).fold(Plan::scan(0), |acc, r| Plan::join(acc, Plan::scan(r)));
        let (card, cost) = big.plan_cost(&plan, &Kappa0);
        assert!(card.is_finite() && card > 0.0);
        assert!(cost.is_finite());
    }

    #[test]
    fn validation_mirrors_join_spec() {
        assert_eq!(BigSpec::new(&[], &[]).unwrap_err(), SpecError::Empty);
        assert!(matches!(
            BigSpec::new(&[1.0, -1.0], &[]).unwrap_err(),
            SpecError::BadCardinality { rel: 1, .. }
        ));
        assert!(matches!(
            BigSpec::new(&[1.0, 2.0], &[(0, 0, 0.5)]).unwrap_err(),
            SpecError::BadPredicate { .. }
        ));
        let too_many = vec![1.0; MAX_BIG_RELS + 1];
        assert!(matches!(
            BigSpec::new(&too_many, &[]).unwrap_err(),
            SpecError::TooManyRels(_)
        ));
    }

    #[test]
    fn subspec_extracts_induced_subproblem() {
        let spec = fig3_spec();
        let big = BigSpec::from_spec(&spec);
        let sub = big.subspec(&[1, 2, 3]);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.card(0), 20.0);
        assert_eq!(sub.selectivity(0, 1), 0.3); // R1~R2
        assert_eq!(sub.selectivity(0, 2), 1.0); // R1~R3: none
    }

    #[test]
    fn connectivity_and_cycles() {
        let chain = BigSpec::new(&[1.0, 2.0, 3.0], &[(0, 1, 0.5), (1, 2, 0.5)]).unwrap();
        assert!(chain.is_connected());
        assert!(chain.is_acyclic());
        let cyc = BigSpec::new(&[1.0, 2.0, 3.0], &[(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)])
            .unwrap();
        assert!(!cyc.is_acyclic());
        let disc = BigSpec::new(&[1.0, 2.0, 3.0], &[(0, 1, 0.5)]).unwrap();
        assert!(!disc.is_connected());
    }
}
