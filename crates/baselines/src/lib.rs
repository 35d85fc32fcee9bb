//! # blitz-baselines — the optimizers blitzsplit is measured against
//!
//! Every comparison algorithm referenced by the paper's related-work and
//! evaluation discussion, implemented from scratch on top of
//! `blitz-core`'s plan/cost/spec types:
//!
//! * [`bruteforce`] — memoization-free exhaustive oracles (bushy and
//!   left-deep) for correctness testing;
//! * [`leftdeep`] — System R's left-deep DP [SAC+79], with Cartesian
//!   products allowed or deferred;
//! * [`dpccp`] — connected-subgraph/complement-pair enumeration
//!   (Moerkotte & Neumann 2006), the modern product-free gold standard;
//! * [`dpsize`] — Starburst-style size-driven bushy enumeration \[OL90\],
//!   exposing its `O(4^n)` pair-inspection overhead;
//! * [`dpsub`] — subset-driven bushy DP with *explicit* connectivity
//!   analysis, the conventional alternative to blitzsplit's implicit
//!   topology discovery;
//! * [`greedy`] — GOO and min-intermediate-cardinality heuristics \[Ste96\];
//! * [`ikkbz`] — the polynomial-time optimal product-free left-deep
//!   algorithm for acyclic graphs [IK84/KBZ];
//! * [`stochastic`] — QuickPick random probing \[GLPK94\], iterated
//!   improvement, simulated annealing \[Ste96\], and the Section 7 hybrid
//!   (exact DP blocks + local search);
//! * [`topdown`] — Volcano-style top-down memoized search with
//!   branch-and-bound cost limits \[GM93\].

#![warn(missing_docs)]

pub mod bruteforce;
pub mod dpccp;
pub mod dpsize;
pub mod dpsub;
pub mod greedy;
pub mod ikkbz;
pub mod leftdeep;
pub mod stochastic;
pub mod topdown;

pub use bruteforce::{best_bushy, best_left_deep, bushy_plan_count, left_deep_plan_count};
pub use dpccp::{chain_ccp_count, clique_ccp_count, optimize_dpccp, DpCcpResult};
pub use dpsize::{optimize_dpsize, CrossProducts, DpSizeResult};
pub use dpsub::{optimize_dpsub, Connectivity, DpSubResult};
pub use greedy::{goo, min_selectivity_left_deep};
pub use ikkbz::{ikkbz_order, optimize_ikkbz, IkkbzError, IkkbzResult};
pub use leftdeep::{optimize_left_deep, LeftDeepResult, ProductPolicy};
pub use topdown::{optimize_topdown, TopDownResult};
pub use stochastic::{
    anneal_from, apply_move, hybrid_dp_local, improve_from, iterated_improvement, quickpick,
    random_bushy_plan, simulated_annealing, IiParams, LocalSearch, Move, SaParams, SearchOutcome,
    SearchSpec,
};
