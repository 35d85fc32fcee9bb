//! Cost models (paper Sections 3.1, 6.1 and the Appendix).
//!
//! The paper permits the cost function `κ` to be broken apart into a
//! *split-independent* component `κ'` and a *split-dependent* component
//! `κ''`, so that
//!
//! ```text
//! κ(R_out, R_lhs, R_rhs) = κ'(R_out) + κ''(R_out, R_lhs, R_rhs)
//! ```
//!
//! `κ'` is evaluated once per relation set (`2^n` times in total) while
//! `κ''` sits inside the `3^n`-iteration split loop; performance is best
//! when `κ''` is cheap and small in magnitude (it must be nonnegative).
//!
//! Three concrete models are provided, following Steinbrunn et al. as cited
//! in the Appendix:
//!
//! * [`Kappa0`] — the naive model `κ0 = |R_out|` (all of it split-independent);
//! * [`SortMerge`] — `κ_sm = |L|·(1+log|L|) + |R|·(1+log|R|)`, with the
//!   logarithm memoized per table row as the paper suggests;
//! * [`DiskNestedLoops`] — `κ_dnl = 2|out|/K + |L||R|/(K²(M−1)) + min(|L|,|R|)/K`;
//! * [`SmDnl`] — `min(κ_sm, κ_dnl)`, the paper's Section 6.5 example of
//!   handling multiple join algorithms inside one optimization.
//!
//! Costs are carried as `f32`, exactly as in the paper (Section 6.3):
//! plans whose cost overflows single precision become `+∞` and are
//! rejected for free by the best-so-far comparison.
//!
//! # Convolution capability
//!
//! The layered-convolution driver ([`crate::DriverChoice::Conv`])
//! evaluates each unordered split `{L, R}` once instead of both ordered
//! orientations; [`ConvSupport`] is the per-model declaration of whether
//! that halving is exact, and at what price. See its variant docs for the
//! exactness argument each tier rests on.

/// How a cost model relates to the convolution driver's orientation
/// halving — the per-model capability consulted once per drive by
/// [`crate::DriverChoice`] resolution.
///
/// The halved enumeration anchors every candidate on the lowest relation
/// of the set, so it only ever evaluates the orientation whose left
/// operand contains `min S`. The declaration here states under which
/// discipline that single evaluation reproduces the split reference's
/// f32 bits for *both* orientations:
///
/// * [`Native`](ConvSupport::Native) — the candidate cost is symmetric
///   in `{L, R}` down to f32 bit level with **no help needed**: `κ'' ≡ 0`
///   (the candidate's cost is the single commutative addition
///   `cost[L] + cost[R]`), so every driver already sees one value per
///   unordered partition.
/// * [`Canonical`](ConvSupport::Canonical) — `κ''` is nonzero but
///   **orientation-invariant once operands are presented in a canonical
///   order**: every κ'' call site (split and conv, scalar and batched)
///   normalizes the operand pair to lowest-relation-first — the operand
///   containing `min S` is passed as `L` — before calling
///   [`CostModel::kappa_dep`]. Both orientations of an unordered
///   partition then execute the *same* float expression on the *same*
///   operand order and round to the same f32 bits, so the halving is
///   exact by construction rather than by algebraic accident. (For the
///   three shipped κ″ models the canonicalization is belt-and-braces:
///   their κ″ are already bitwise symmetric — IEEE-754 `+`, `*`, `min`
///   commute exactly — so the swap is also a no-op on the output bits of
///   the historical un-normalized split reference.)
/// * [`Fallback`](ConvSupport::Fallback) — no bit-exactness argument is
///   made; `Conv` transparently degrades to the split driver and κ''
///   sees operands in raw walk order, exactly as before.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum ConvSupport {
    /// κ'' ≡ 0 (or intrinsically bit-symmetric): conv is exact as-is.
    Native,
    /// κ'' is exact under canonical (lowest-relation-first) operand
    /// ordering, which every κ'' call site enforces for this model.
    Canonical,
    /// No exactness argument: conv requests degrade to split. The
    /// default, so third-party models are never silently halved.
    #[default]
    Fallback,
}

impl ConvSupport {
    /// Stable lower-case name (`native` / `canonical` / `fallback`).
    pub fn name(self) -> &'static str {
        match self {
            ConvSupport::Native => "native",
            ConvSupport::Canonical => "canonical",
            ConvSupport::Fallback => "fallback",
        }
    }

    /// Whether the convolution driver may run at all for this model.
    #[inline]
    pub fn allows_conv(self) -> bool {
        !matches!(self, ConvSupport::Fallback)
    }
}

/// A cost model `κ = κ' + κ''` for dyadic joins / Cartesian products.
///
/// Implementations are monomorphized into the optimizer's hot loop, so all
/// methods should be `#[inline]`-friendly and branch-light. Cardinalities
/// are `f64` (wide dynamic range, per the paper's footnote 2); returned
/// costs are `f32` so that overflow maps to `+∞`.
pub trait CostModel {
    /// Whether `κ''` is identically zero. When `false` the optimizer can
    /// skip the split-dependent computation entirely (the nested-`if`
    /// structure still short-circuits on operand costs either way).
    const HAS_DEP: bool;

    /// Whether [`CostModel::aux`] produces a meaningful memoized value.
    /// When `false`, table layouts may skip storing the aux column.
    const HAS_AUX: bool;

    /// Relationship to the convolution driver's orientation halving —
    /// see [`ConvSupport`]. An associated const so the per-candidate
    /// canonicalization branch at the κ'' call sites folds away at
    /// monomorphization for `Native`/`Fallback` models. Defaults to
    /// `Fallback`: a model must *opt in* with a documented bit-exactness
    /// argument before the halved enumeration may run on it.
    const CONV_SUPPORT: ConvSupport = ConvSupport::Fallback;

    /// Split-independent component `κ'(R_out)`.
    fn kappa_ind(&self, out_card: f64) -> f32;

    /// Split-dependent component `κ''(R_out, R_lhs, R_rhs)`.
    ///
    /// `lhs_aux`/`rhs_aux` are the memoized per-set values produced by
    /// [`CostModel::aux`] for the operand sets (e.g. the `|R|·(1+log|R|)`
    /// terms of the sort-merge model). Must be nonnegative.
    fn kappa_dep(&self, out_card: f64, lhs_card: f64, rhs_card: f64, lhs_aux: f32, rhs_aux: f32)
        -> f32;

    /// Per-set memoized quantity, computed once when a table row's
    /// cardinality is filled in (`compute_properties`), then reused by
    /// every `κ''` evaluation that touches the row.
    #[inline]
    fn aux(&self, _card: f64) -> f32 {
        0.0
    }

    /// The least `κ''` any join with a set as one operand pays, given
    /// that set's [`aux`](CostModel::aux) memo: the *operand charge*.
    /// The default is `0`; [`SortMerge`] charges `aux`, the operand's own
    /// sort term.
    ///
    /// The DP adds it to every finished row but the full set: a row with
    /// `cost + charge ≥ cap` is rejected like an overflowed one, before
    /// any superset reads it, because no plan under the cap can use it.
    /// That holds when, in `f32`, for all operands `L`, `R`:
    ///
    /// * `kappa_dep(…, aux(L), aux(R)) ≥ operand_charge(aux(L))` and
    ///   `≥ operand_charge(aux(R))`;
    /// * hence `(cost(L) + cost(R)) + κ'' ≥ cost(L) + charge(L)`, since
    ///   costs are nonnegative and `f32` addition is monotone.
    ///
    /// Every plan through the row then costs at least `cost + charge`,
    /// so the charge rejects only rows whose every use the cap would
    /// reject anyway: no surviving row, root or plan changes a bit.
    #[inline]
    fn operand_charge(&self, _aux: f32) -> f32 {
        0.0
    }

    /// Instance-side view of [`CostModel::CONV_SUPPORT`], convenient
    /// where only a `&M` is in hand (tests, capability probes).
    #[inline]
    fn conv_support(&self) -> ConvSupport {
        Self::CONV_SUPPORT
    }

    /// Human-readable model name, used by the benchmark harness.
    fn name(&self) -> &'static str;

    /// Full cost `κ = κ' + κ''` of a single join, convenient for plan
    /// re-costing outside the DP loop.
    #[inline]
    fn kappa(&self, out_card: f64, lhs_card: f64, rhs_card: f64) -> f32 {
        self.kappa_ind(out_card)
            + self.kappa_dep(out_card, lhs_card, rhs_card, self.aux(lhs_card), self.aux(rhs_card))
    }
}

/// The naive cost model of Section 3.1: the cost of a join is the
/// cardinality of its result, `κ0(R_out, R_lhs, R_rhs) = |R_out|`.
///
/// Decomposed as `κ0' = |R_out|`, `κ0'' = 0` (Section 3.2).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Kappa0;

impl CostModel for Kappa0 {
    const HAS_DEP: bool = false;
    const HAS_AUX: bool = false;
    // κ0'' ≡ 0: a candidate's cost is the commutative f32 addition
    // `cost(L) + cost(R)`, so the anchored half-enumeration of the
    // convolution driver sees the exact same value multiset with no
    // operand normalization at all.
    const CONV_SUPPORT: ConvSupport = ConvSupport::Native;

    #[inline]
    fn kappa_ind(&self, out_card: f64) -> f32 {
        out_card as f32
    }

    #[inline]
    fn kappa_dep(&self, _out: f64, _lhs: f64, _rhs: f64, _la: f32, _ra: f32) -> f32 {
        0.0
    }

    fn name(&self) -> &'static str {
        "kappa0"
    }
}

/// `|R|·(1 + log |R|)`, the per-operand term of the sort-merge model.
///
/// Cardinalities below 1 (possible for intermediate results under strong
/// selectivities) are clamped to 1 so the term stays nonnegative, as the
/// paper requires of `κ''`. The logarithm is base 2.
#[inline]
pub fn sort_term(card: f64) -> f64 {
    let c = card.max(1.0);
    c * (1.0 + c.log2())
}

/// The sort-merge cost model of the Appendix:
/// `κ_sm = |R_lhs|·(1+log|R_lhs|) + |R_rhs|·(1+log|R_rhs|)`.
///
/// All of the cost is split-dependent (`κ' = 0`). The "expensive logarithm
/// computation … can be memoized in the dynamic programming table": the
/// [`CostModel::aux`] hook stores `sort_term(card)` per row, so `κ''` is a
/// single addition in the hot loop.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SortMerge;

impl CostModel for SortMerge {
    const HAS_DEP: bool = true;
    const HAS_AUX: bool = true;
    // Exactness argument: κ_sm'' = lhs_aux + rhs_aux is one IEEE-754 f32
    // addition, and IEEE addition commutes *exactly* (same sum bits for
    // `a + b` and `b + a`) — so the value is orientation-invariant even
    // before canonicalization. Declaring `Canonical` (not `Native`)
    // routes every κ'' call through the lowest-relation-first operand
    // order anyway, making the invariance structural: it no longer
    // depends on an algebraic property a future edit to `kappa_dep`
    // could silently lose.
    const CONV_SUPPORT: ConvSupport = ConvSupport::Canonical;

    #[inline]
    fn kappa_ind(&self, _out_card: f64) -> f32 {
        0.0
    }

    #[inline]
    fn kappa_dep(&self, _out: f64, _lhs: f64, _rhs: f64, lhs_aux: f32, rhs_aux: f32) -> f32 {
        lhs_aux + rhs_aux
    }

    #[inline]
    fn aux(&self, card: f64) -> f32 {
        sort_term(card) as f32
    }

    /// Every join with this operand sorts it: `κ_sm'' = aux(L) + aux(R)`
    /// is at least each operand's `aux` in `f32` (the other term is
    /// nonnegative and addition is monotone).
    #[inline]
    fn operand_charge(&self, aux: f32) -> f32 {
        aux
    }

    fn name(&self) -> &'static str {
        "kappa_sm"
    }
}

/// The disk-nested-loops model of the Appendix:
///
/// ```text
/// κ_dnl = 2·|R_out|/K + |R_lhs|·|R_rhs| / (K²·(M−1)) + min(|R_lhs|,|R_rhs|)/K
/// ```
///
/// where `K` is the blocking factor (records per disk block) and `M` the
/// number of blocks that fit in main memory. The paper sets `K = 10`,
/// `M = 100`; both are configurable here. The `2|R_out|/K` term is
/// split-independent (`κ'`), the rest split-dependent (`κ''`) — the nonzero
/// `κ'` is what lets overflow/threshold pruning skip whole split loops
/// (Section 6.3, footnote 8).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct DiskNestedLoops {
    /// Blocking factor `K` (records per disk block).
    pub k: f64,
    /// Memory size `M` in disk blocks.
    pub m: f64,
}

impl Default for DiskNestedLoops {
    fn default() -> Self {
        DiskNestedLoops { k: 10.0, m: 100.0 }
    }
}

impl DiskNestedLoops {
    /// Model with explicit blocking factor and memory size.
    ///
    /// # Panics
    /// Panics if `k <= 0` or `m <= 1` (the formula divides by `K²(M−1)`).
    pub fn new(k: f64, m: f64) -> Self {
        assert!(k > 0.0, "blocking factor K must be positive");
        assert!(m > 1.0, "memory size M must exceed one block");
        DiskNestedLoops { k, m }
    }
}

impl CostModel for DiskNestedLoops {
    const HAS_DEP: bool = true;
    const HAS_AUX: bool = false;
    // Exactness argument: κ_dnl'' evaluates entirely in f64 —
    // `lhs*rhs/(K²(M−1)) + min(lhs,rhs)/K` — with one final rounding to
    // f32. IEEE `*` and `min` commute exactly and the `+` operands
    // (`lhs*rhs/…` and `min/K`) are themselves orientation-invariant, so
    // both orientations compute bit-identical f64 values and round to
    // the same f32. As with [`SortMerge`], `Canonical` makes the
    // invariance structural: operands reach this function
    // lowest-relation-first regardless of walk orientation.
    const CONV_SUPPORT: ConvSupport = ConvSupport::Canonical;

    #[inline]
    fn kappa_ind(&self, out_card: f64) -> f32 {
        (2.0 * out_card / self.k) as f32
    }

    #[inline]
    fn kappa_dep(&self, _out: f64, lhs: f64, rhs: f64, _la: f32, _ra: f32) -> f32 {
        (lhs * rhs / (self.k * self.k * (self.m - 1.0)) + lhs.min(rhs) / self.k) as f32
    }

    fn name(&self) -> &'static str {
        "kappa_dnl"
    }
}

/// `min(κ_sm, κ_dnl)` — two join algorithms available per join, as in the
/// paper's Section 6.5:
///
/// > if both a sort-merge join and disk-nested-loops join are available,
/// > then the cost of a join is `κ(…) = min(κ_sm(…), κ_dnl(…))`. There is
/// > no need to keep track of which algorithm yields the minimum.
///
/// `min` does not distribute over the `κ' + κ''` decomposition, so the
/// whole cost is treated as split-dependent (`κ' = 0`); the sort-merge
/// log term is still memoized via the aux column.
#[derive(Copy, Clone, Debug, PartialEq)]
#[derive(Default)]
pub struct SmDnl {
    /// The disk-nested-loops half of the model.
    pub dnl: DiskNestedLoops,
}


impl SmDnl {
    /// Which algorithm wins for a given join — used after optimization to
    /// attach physical operators to the plan in a single traversal.
    pub fn cheaper_algorithm(&self, out: f64, lhs: f64, rhs: f64) -> JoinAlgorithm {
        let sm = sort_term(lhs) + sort_term(rhs);
        let dnl = 2.0 * out / self.dnl.k
            + lhs * rhs / (self.dnl.k * self.dnl.k * (self.dnl.m - 1.0))
            + lhs.min(rhs) / self.dnl.k;
        if sm <= dnl {
            JoinAlgorithm::SortMerge
        } else {
            JoinAlgorithm::DiskNestedLoops
        }
    }
}

impl CostModel for SmDnl {
    const HAS_DEP: bool = true;
    const HAS_AUX: bool = true;
    // Exactness argument: κ'' = min(κ_sm'', κ_dnl''), and both arms are
    // orientation-invariant at the bit level (see [`SortMerge`] and
    // [`DiskNestedLoops`]); `f32::min` of two bit-equal pairs is
    // bit-equal. `Canonical` again makes the argument structural rather
    // than algebraic.
    const CONV_SUPPORT: ConvSupport = ConvSupport::Canonical;

    #[inline]
    fn kappa_ind(&self, _out_card: f64) -> f32 {
        0.0
    }

    #[inline]
    fn kappa_dep(&self, out: f64, lhs: f64, rhs: f64, lhs_aux: f32, rhs_aux: f32) -> f32 {
        let sm = lhs_aux + rhs_aux;
        let dnl = (2.0 * out / self.dnl.k
            + lhs * rhs / (self.dnl.k * self.dnl.k * (self.dnl.m - 1.0))
            + lhs.min(rhs) / self.dnl.k) as f32;
        sm.min(dnl)
    }

    #[inline]
    fn aux(&self, card: f64) -> f32 {
        sort_term(card) as f32
    }

    fn name(&self) -> &'static str {
        "min(kappa_sm,kappa_dnl)"
    }
}

/// Physical join algorithm selected after optimization (Section 6.5).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum JoinAlgorithm {
    /// Sort-merge join.
    SortMerge,
    /// Block nested-loops join reading from disk.
    DiskNestedLoops,
    /// In-memory hash join (provided by the execution engine; not part of
    /// the paper's cost study but useful for end-to-end runs).
    Hash,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kappa0_is_output_cardinality() {
        let m = Kappa0;
        assert_eq!(m.kappa(200.0, 10.0, 20.0), 200.0);
        assert_eq!(m.kappa_ind(6000.0), 6000.0);
        assert_eq!(m.kappa_dep(1.0, 2.0, 3.0, 0.0, 0.0), 0.0);
    }

    #[test]
    fn kappa0_overflows_to_infinity() {
        let m = Kappa0;
        assert!(m.kappa_ind(1e39).is_infinite());
        assert!(m.kappa_ind(1e38).is_finite());
    }

    #[test]
    fn sort_merge_matches_formula() {
        let m = SortMerge;
        let lhs = 8.0f64;
        let rhs = 16.0f64;
        let expect = lhs * (1.0 + lhs.log2()) + rhs * (1.0 + rhs.log2());
        let got = m.kappa(123.0, lhs, rhs) as f64;
        assert!((got - expect).abs() < 1e-3, "{got} vs {expect}");
        // κ' is zero: output cardinality is irrelevant.
        assert_eq!(m.kappa(123.0, lhs, rhs), m.kappa(9999.0, lhs, rhs));
    }

    #[test]
    fn sort_term_clamps_below_one() {
        assert_eq!(sort_term(0.25), 1.0); // clamped card 1 → 1·(1+0) = 1
        assert!(sort_term(0.0) >= 0.0);
        assert!(sort_term(2.0) > sort_term(1.0));
    }

    #[test]
    fn dnl_matches_formula() {
        let m = DiskNestedLoops::new(10.0, 100.0);
        let (out, lhs, rhs) = (5000.0, 100.0, 200.0);
        let expect = 2.0 * out / 10.0 + lhs * rhs / (100.0 * 99.0) + 100.0 / 10.0;
        let got = m.kappa(out, lhs, rhs) as f64;
        assert!((got - expect).abs() < 1e-3, "{got} vs {expect}");
    }

    #[test]
    fn dnl_kappa_ind_is_nonzero() {
        // footnote 8: a realistic model has κ' ≢ 0, enabling loop skipping.
        let m = DiskNestedLoops::default();
        assert!(m.kappa_ind(100.0) > 0.0);
    }

    #[test]
    #[should_panic]
    fn dnl_rejects_bad_memory_size() {
        let _ = DiskNestedLoops::new(10.0, 1.0);
    }

    #[test]
    fn smdnl_is_min_of_components() {
        let m = SmDnl::default();
        let sm = SortMerge;
        let dnl = m.dnl;
        for &(out, lhs, rhs) in
            &[(100.0, 10.0, 10.0), (1e6, 1e3, 1e3), (50.0, 2.0, 2e5), (1e9, 1e4, 1e5)]
        {
            let expect = sm.kappa(out, lhs, rhs).min(dnl.kappa(out, lhs, rhs));
            let got = m.kappa(out, lhs, rhs);
            let tol = expect.abs() * 1e-5 + 1e-5;
            assert!((got - expect).abs() <= tol, "({out},{lhs},{rhs}): {got} vs {expect}");
        }
    }

    #[test]
    fn smdnl_algorithm_choice_consistent_with_min() {
        let m = SmDnl::default();
        let (out, lhs, rhs) = (1e6, 1e3, 1e3);
        let sm_cost = SortMerge.kappa(out, lhs, rhs);
        let dnl_cost = m.dnl.kappa(out, lhs, rhs);
        let algo = m.cheaper_algorithm(out, lhs, rhs);
        if sm_cost < dnl_cost {
            assert_eq!(algo, JoinAlgorithm::SortMerge);
        } else if dnl_cost < sm_cost {
            assert_eq!(algo, JoinAlgorithm::DiskNestedLoops);
        }
    }

    #[test]
    fn conv_support_matches_kappa_dep_shape() {
        assert_eq!(Kappa0::CONV_SUPPORT, ConvSupport::Native);
        assert_eq!(SortMerge::CONV_SUPPORT, ConvSupport::Canonical);
        assert_eq!(DiskNestedLoops::CONV_SUPPORT, ConvSupport::Canonical);
        assert_eq!(SmDnl::CONV_SUPPORT, ConvSupport::Canonical);
        assert_eq!(Kappa0.conv_support(), ConvSupport::Native);
        assert!(ConvSupport::Native.allows_conv());
        assert!(ConvSupport::Canonical.allows_conv());
        assert!(!ConvSupport::Fallback.allows_conv());
        // Opt-in is the default: a model that says nothing falls back.
        struct Mute;
        impl CostModel for Mute {
            const HAS_DEP: bool = true;
            const HAS_AUX: bool = false;
            fn kappa_ind(&self, _o: f64) -> f32 {
                0.0
            }
            fn kappa_dep(&self, _o: f64, l: f64, r: f64, _la: f32, _ra: f32) -> f32 {
                (2.0 * l + r) as f32
            }
            fn name(&self) -> &'static str {
                "mute"
            }
        }
        assert_eq!(Mute::CONV_SUPPORT, ConvSupport::Fallback);
        for s in [ConvSupport::Native, ConvSupport::Canonical, ConvSupport::Fallback] {
            assert!(!s.name().is_empty());
        }
    }

    /// The documented bit-exactness argument for the `Canonical` models:
    /// κ'' must be orientation-invariant *at the f32 bit level* across a
    /// wide sweep of operand magnitudes (subnormal-adjacent through
    /// overflow-adjacent), since the canonical-split reference equals
    /// the historical un-normalized split output only if the swap is a
    /// value no-op.
    #[test]
    fn canonical_models_have_bitwise_symmetric_kappa_dep() {
        let cards = [
            0.25, 1.0, 3.0, 10.0, 1e3, 12_345.678, 1e10, 1e30, 1e38, 3.4e38, 1e60,
        ];
        let sm = SortMerge;
        let dnl = DiskNestedLoops::default();
        let both = SmDnl::default();
        for &o in &cards {
            for &l in &cards {
                for &r in &cards {
                    let (la, ra) = (sm.aux(l), sm.aux(r));
                    assert_eq!(
                        sm.kappa_dep(o, l, r, la, ra).to_bits(),
                        sm.kappa_dep(o, r, l, ra, la).to_bits(),
                        "sm κ'' orientation-variant at ({o},{l},{r})"
                    );
                    assert_eq!(
                        dnl.kappa_dep(o, l, r, 0.0, 0.0).to_bits(),
                        dnl.kappa_dep(o, r, l, 0.0, 0.0).to_bits(),
                        "dnl κ'' orientation-variant at ({o},{l},{r})"
                    );
                    let (ba, bb) = (both.aux(l), both.aux(r));
                    assert_eq!(
                        both.kappa_dep(o, l, r, ba, bb).to_bits(),
                        both.kappa_dep(o, r, l, bb, ba).to_bits(),
                        "smdnl κ'' orientation-variant at ({o},{l},{r})"
                    );
                }
            }
        }
    }

    /// The operand charge's precondition for κ_sm, on random values in
    /// `f32`: κ'' is at least each operand's charge, and so a candidate
    /// through an operand `S` costs at least `cost(S) + charge(S)`.
    /// Cards span card 1 through f32 overflow, costs 0 through 10³⁹.
    #[test]
    fn sort_merge_charge_is_a_lower_bound_on_kappa_dep() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let m = SortMerge;
        assert_eq!(Kappa0.operand_charge(123.0), 0.0, "the default charges nothing");
        let mut rng = StdRng::seed_from_u64(0x6368_6172);
        let mut log_uniform = |hi: f64| 10f64.powf(rng.random_range(0.0..hi));
        for _ in 0..100_000 {
            let (card_l, card_r, out) = (log_uniform(40.0), log_uniform(40.0), log_uniform(60.0));
            let (aux_l, aux_r) = (m.aux(card_l), m.aux(card_r));
            let dep = m.kappa_dep(out, card_l, card_r, aux_l, aux_r);
            assert!(dep >= m.operand_charge(aux_l), "κ'' {dep} < charge of L ({card_l})");
            assert!(dep >= m.operand_charge(aux_r), "κ'' {dep} < charge of R ({card_r})");
            let (cost_s, cost_r) = ((log_uniform(39.0) - 1.0) as f32, (log_uniform(39.0) - 1.0) as f32);
            let through_s = (cost_s + cost_r) + dep;
            assert!(
                through_s >= cost_s + m.operand_charge(aux_l),
                "cost {cost_s} + {cost_r} + κ'' {dep} < cost + charge {aux_l}"
            );
        }
    }

    #[test]
    fn kappa_dep_is_nonnegative() {
        // Required by the paper ("we assume it is nonnegative").
        let cards = [0.5, 1.0, 10.0, 1e4, 1e10];
        for &l in &cards {
            for &r in &cards {
                for &o in &cards {
                    assert!(SortMerge.kappa_dep(o, l, r, sort_term(l) as f32, sort_term(r) as f32) >= 0.0);
                    assert!(DiskNestedLoops::default().kappa_dep(o, l, r, 0.0, 0.0) >= 0.0);
                    let m = SmDnl::default();
                    assert!(m.kappa_dep(o, l, r, m.aux(l), m.aux(r)) >= 0.0);
                }
            }
        }
    }
}
