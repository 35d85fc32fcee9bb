//! Instrumentation counters for the complexity analyses of Sections 3.3,
//! 6.2 and 6.4.
//!
//! The paper's performance model (formula (3)) decomposes running time into
//! three event classes:
//!
//! * `3^n · T_loop` — iterations of the split loop in `find_best_split`;
//! * `(ln 2 / 2)·n·2^n · T_cond` — executions of the conditionally executed
//!   body (best-so-far improvements, under the random-order argument);
//! * `2^n · T_subset` — straight-line per-subset work.
//!
//! [`Counters`] records these events plus `κ'`/`κ''` evaluation counts so
//! that the benchmark harness can verify the analytic bounds (e.g. that the
//! `κ''` count lies between `(ln 2 / 2)·n·2^n` and `3^n`, Section 6.2, and
//! falls below `n³/3` for chains under threshold pruning, Section 6.4).
//! [`NoStats`] compiles every hook to a no-op so the production optimizer
//! pays nothing; both are monomorphized.

/// Event sink for optimizer instrumentation. All hooks must be trivially
/// inlinable.
pub trait Stats {
    /// One iteration of the split loop (the `3^n` term).
    fn loop_iter(&mut self);
    /// One execution of the straight-line per-subset code (the `2^n` term).
    fn subset(&mut self);
    /// One evaluation of the split-independent cost `κ'`.
    fn kappa_ind(&mut self);
    /// One evaluation of the split-dependent cost `κ''`.
    fn kappa_dep(&mut self);
    /// One execution of the conditional body (best-so-far improved).
    fn cond_hit(&mut self);
    /// One subset whose split loop was skipped entirely (overflow /
    /// threshold pruning, Section 6.3–6.4).
    fn loop_skipped(&mut self);
    /// One full optimization pass (threshold re-optimization counts each).
    fn pass(&mut self);
    /// Fold a per-thread sink back into this one. The rank-wave driver
    /// gives every helper thread a `Self::default()`-style private sink
    /// and absorbs them after the waves complete (the calling thread,
    /// worker 0, counts into this sink itself), so the hot loop never
    /// touches shared state.
    fn absorb(&mut self, child: Self)
    where
        Self: Sized;
}

/// Zero-cost sink: every hook is an empty inline function.
#[derive(Copy, Clone, Debug, Default)]
pub struct NoStats;

impl Stats for NoStats {
    #[inline(always)]
    fn loop_iter(&mut self) {}
    #[inline(always)]
    fn subset(&mut self) {}
    #[inline(always)]
    fn kappa_ind(&mut self) {}
    #[inline(always)]
    fn kappa_dep(&mut self) {}
    #[inline(always)]
    fn cond_hit(&mut self) {}
    #[inline(always)]
    fn loop_skipped(&mut self) {}
    #[inline(always)]
    fn pass(&mut self) {}
    #[inline(always)]
    fn absorb(&mut self, _child: NoStats) {}
}

/// Counting sink used by the analysis benches.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Split-loop iterations (`3^n` in aggregate without pruning).
    pub loop_iters: u64,
    /// Straight-line per-subset executions (≈ `2^n`).
    pub subsets: u64,
    /// `κ'` evaluations (fixed at ≈ `2^n` without pruning).
    pub kappa_ind_evals: u64,
    /// `κ''` evaluations (between `(ln2/2)·n·2^n` and `3^n`).
    pub kappa_dep_evals: u64,
    /// Conditional-body executions (best-so-far improvements).
    pub cond_hits: u64,
    /// Subsets whose split loop was skipped by overflow/threshold pruning.
    pub loops_skipped: u64,
    /// Optimization passes (more than 1 ⇒ threshold re-optimization).
    pub passes: u64,
}

impl Stats for Counters {
    #[inline(always)]
    fn loop_iter(&mut self) {
        self.loop_iters += 1;
    }
    #[inline(always)]
    fn subset(&mut self) {
        self.subsets += 1;
    }
    #[inline(always)]
    fn kappa_ind(&mut self) {
        self.kappa_ind_evals += 1;
    }
    #[inline(always)]
    fn kappa_dep(&mut self) {
        self.kappa_dep_evals += 1;
    }
    #[inline(always)]
    fn cond_hit(&mut self) {
        self.cond_hits += 1;
    }
    #[inline(always)]
    fn loop_skipped(&mut self) {
        self.loops_skipped += 1;
    }
    #[inline(always)]
    fn pass(&mut self) {
        self.passes += 1;
    }
    #[inline(always)]
    fn absorb(&mut self, child: Counters) {
        *self += &child;
    }
}

impl std::ops::AddAssign<&Counters> for Counters {
    fn add_assign(&mut self, rhs: &Counters) {
        self.loop_iters += rhs.loop_iters;
        self.subsets += rhs.subsets;
        self.kappa_ind_evals += rhs.kappa_ind_evals;
        self.kappa_dep_evals += rhs.kappa_dep_evals;
        self.cond_hits += rhs.cond_hits;
        self.loops_skipped += rhs.loops_skipped;
        self.passes += rhs.passes;
    }
}

impl Counters {
    /// Checked `usize → i32` exponent for the analytic `powi` bounds.
    /// Relation counts are ≤ 64 in practice; a hypothetical overflow
    /// saturates, and `powi(i32::MAX)` overflows to `f64::INFINITY`,
    /// which is the right bound for an astronomically large `n` anyway.
    fn powi_exp(n: usize) -> i32 {
        i32::try_from(n).unwrap_or(i32::MAX)
    }

    /// The analytic `3^n` bound on split-loop iterations (Section 3.3).
    pub fn bound_loop(n: usize) -> f64 {
        3f64.powi(Self::powi_exp(n))
    }

    /// Split candidates the split driver visits over all rows of an
    /// `n`-relation table without pruning: `Σ_k C(n,k)·(2^k − 2) =
    /// 3^n − 2^(n+1) + 1` (exact in `f64` for every supported `n`).
    pub fn split_candidates(n: usize) -> f64 {
        Self::bound_loop(n) - 2.0 * Self::bound_subset(n) + 1.0
    }

    /// Candidates the convolution driver's anchored half-walk visits:
    /// `Σ_k C(n,k)·(2^(k−1) − 1) = (3^n + 1)/2 − 2^n`.
    pub fn conv_candidates(n: usize) -> f64 {
        (Self::bound_loop(n) + 1.0) / 2.0 - Self::bound_subset(n)
    }

    /// The analytic expected count `(ln 2 / 2)·n·2^n` of conditional-body
    /// executions (Section 3.3).
    pub fn bound_cond(n: usize) -> f64 {
        (std::f64::consts::LN_2 / 2.0) * n as f64 * 2f64.powi(Self::powi_exp(n))
    }

    /// The `2^n` bound on per-subset straight-line work (Section 3.3).
    pub fn bound_subset(n: usize) -> f64 {
        2f64.powi(Self::powi_exp(n))
    }

    /// Left-deep `κ''` count bounds `((ln n)·2^n, (n/2)·2^n)` quoted in
    /// Section 6.2 (derivation omitted in the paper).
    pub fn bound_leftdeep(n: usize) -> (f64, f64) {
        let p = 2f64.powi(Self::powi_exp(n));
        ((n as f64).ln() * p, n as f64 / 2.0 * p)
    }

    /// The `n³/3` chain-query bound referenced in Section 6.4.
    pub fn bound_chain_poly(n: usize) -> f64 {
        (n as f64).powi(3) / 3.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut c = Counters::default();
        c.loop_iter();
        c.loop_iter();
        c.subset();
        c.kappa_ind();
        c.kappa_dep();
        c.cond_hit();
        c.loop_skipped();
        c.pass();
        assert_eq!(c.loop_iters, 2);
        assert_eq!(c.subsets, 1);
        assert_eq!(c.kappa_ind_evals, 1);
        assert_eq!(c.kappa_dep_evals, 1);
        assert_eq!(c.cond_hits, 1);
        assert_eq!(c.loops_skipped, 1);
        assert_eq!(c.passes, 1);
    }

    #[test]
    fn analytic_bounds() {
        assert_eq!(Counters::bound_loop(3), 27.0);
        assert_eq!(Counters::bound_subset(10), 1024.0);
        let c = Counters::bound_cond(15);
        // (ln2/2)·15·2^15 ≈ 0.3466·15·32768 ≈ 170_361
        assert!((c - 170_000.0).abs() < 2_000.0, "{c}");
        let (lo, hi) = Counters::bound_leftdeep(15);
        assert!(lo < hi);
        assert!((Counters::bound_chain_poly(15) - 1125.0).abs() < 1.0);
    }

    #[test]
    fn nostats_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NoStats>(), 0);
    }

    #[test]
    fn absorb_matches_add_assign() {
        let mut parent = Counters { loop_iters: 5, cond_hits: 1, ..Counters::default() };
        let child = Counters { loop_iters: 7, subsets: 4, ..Counters::default() };
        parent.absorb(child);
        assert_eq!(parent.loop_iters, 12);
        assert_eq!(parent.subsets, 4);
        assert_eq!(parent.cond_hits, 1);
        // NoStats absorb is a no-op but must exist for the wave driver.
        let mut n = NoStats;
        n.absorb(NoStats);
    }

    #[test]
    fn counters_add_assign_sums_fieldwise() {
        let mut a = Counters { loop_iters: 1, subsets: 2, ..Counters::default() };
        let b = Counters { loop_iters: 10, passes: 3, ..Counters::default() };
        a += &b;
        assert_eq!(a.loop_iters, 11);
        assert_eq!(a.subsets, 2);
        assert_eq!(a.passes, 3);
    }

    /// The service layer moves specs, plans, models and counters across
    /// worker threads; these bounds are part of the public contract.
    #[test]
    fn optimizer_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::JoinSpec>();
        assert_send_sync::<crate::Plan>();
        assert_send_sync::<crate::Optimized>();
        assert_send_sync::<Counters>();
        assert_send_sync::<crate::ThresholdSchedule>();
        assert_send_sync::<crate::Kappa0>();
        assert_send_sync::<crate::SortMerge>();
        assert_send_sync::<crate::DiskNestedLoops>();
        assert_send_sync::<crate::SmDnl>();
    }
}
