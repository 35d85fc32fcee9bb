//! # blitz-service — a concurrent optimizer service
//!
//! Wraps the `blitz-core` DP optimizer in the machinery a long-running
//! process needs, using only the standard library:
//!
//! * [`cache`] — a sharded LRU plan cache keyed by canonical query
//!   fingerprints ([`blitz_catalog::CanonicalQuery`]) with single-flight
//!   deduplication: N concurrent identical requests run exactly one
//!   optimization;
//! * [`pool`] — a fixed worker pool over one bounded job queue, the
//!   service's back-pressure mechanism;
//! * [`metrics`] — atomic counters and log₂ latency histograms with a
//!   [`MetricsSnapshot`] API;
//! * [`server`] — a line-protocol TCP frontend (`OPTIMIZE …`,
//!   `METRICS`, `PING`) plus a matching client.
//!
//! The entry point is [`OptimizerService::optimize`]: admission control
//! first (queries over the configured relation limit go to the anytime
//! ladder or degrade to the greedy `goo` baseline — a *flagged*
//! [`PlanSource`], never an error), then a cache lookup, then either a
//! cached plan, a shared in-flight result, or a freshly scheduled
//! optimization on the pool. The server's event loop calls its
//! non-blocking halves instead (`begin` and `finish`, crate-private).
//! A request with a deadline that misses the cache is admitted to the
//! exact path only when the DP's estimated time fits the time left
//! ([`OptimizerService::exact_estimate`]). When the queue is full or a
//! request's deadline expires while waiting, the caller again degrades
//! to the greedy baseline rather than failing, and an exact job whose
//! every requester has left is cancelled. Every path is visible in the
//! metrics.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
// Without a native poller there is no readiness loop, so the helpers
// only it calls go unused.
#![cfg_attr(not(any(poller = "epoll", poller = "kqueue")), allow(dead_code))]

pub mod cache;
pub mod metrics;
#[cfg(any(poller = "epoll", poller = "kqueue"))]
pub mod net;
pub mod pool;
pub mod server;
mod sync;
pub mod tables;

pub use blitz_ladder::{BigSpec, GapBasis, LadderConfig, LadderReport, Rung};
pub use cache::{ComputedPlan, Lookup, PlanCache, Reservation, Slot};
pub use metrics::{HistogramSnapshot, LatencyHistogram, Metrics, MetricsSnapshot};
pub use pool::WorkerPool;
pub use server::{Client, Server, ServerOptions};
pub use tables::{AnyTable, PoolSlot, TablePool};

use blitz_baselines::goo;
use blitz_catalog::CanonicalQuery;
use blitz_core::{
    optimize_join_threshold_arena_cancellable, AosTable, ConvSupport, CostModel, Counters,
    DiskNestedLoops, DriveOptions, DriverChoice, HotColdTable, JoinSpec, Kappa0, KernelChoice,
    LayoutChoice, Plan, SmDnl, SortMerge, ThresholdSchedule, MAX_TABLE_RELS,
};
use blitz_ladder::{goo_big, optimize_ladder};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The cost models the service can dispatch on. [`CostModel`] is not
/// object-safe (associated consts drive monomorphization), so the
/// service names models by id and dispatches statically. Parameterized
/// models use their defaults (`DiskNestedLoops { k: 10, m: 100 }`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ModelId {
    /// The paper's κ₀ (output-cardinality) model.
    Kappa0,
    /// Sort-merge cost model.
    SortMerge,
    /// Disk nested loops with default blocking factor and memory.
    DiskNestedLoops,
    /// `min(κ_sm, κ_dnl)` per join (Section 6.5).
    SmDnl,
}

/// Evaluate `$body` with `$m` bound to the concrete cost model `$model`
/// names. [`CostModel`] is not object-safe, so every model-generic call
/// dispatches through this one match.
macro_rules! with_model {
    ($model:expr, |$m:ident| $body:expr) => {
        match $model {
            ModelId::Kappa0 => {
                let $m = &Kappa0;
                $body
            }
            ModelId::SortMerge => {
                let $m = &SortMerge;
                $body
            }
            ModelId::DiskNestedLoops => {
                let $m = &DiskNestedLoops::default();
                $body
            }
            ModelId::SmDnl => {
                let $m = &SmDnl::default();
                $body
            }
        }
    };
}

impl ModelId {
    /// Stable identifier, also used in query fingerprints and the wire
    /// protocol. Matches the `blitzsplit --model` names.
    pub fn name(&self) -> &'static str {
        match self {
            ModelId::Kappa0 => "k0",
            ModelId::SortMerge => "sm",
            ModelId::DiskNestedLoops => "dnl",
            ModelId::SmDnl => "smdnl",
        }
    }

    /// Inverse of [`ModelId::name`].
    pub fn parse(s: &str) -> Option<ModelId> {
        match s {
            "k0" | "kappa0" => Some(ModelId::Kappa0),
            "sm" => Some(ModelId::SortMerge),
            "dnl" => Some(ModelId::DiskNestedLoops),
            "smdnl" => Some(ModelId::SmDnl),
            _ => None,
        }
    }

    /// The conv capability of the model this id dispatches to — the
    /// same `M::CONV_SUPPORT` the exact path sees after static
    /// dispatch, surfaced here so the service can resolve the driver
    /// disposition *before* monomorphization (cache key time).
    pub fn conv_support(&self) -> ConvSupport {
        with_model!(self, |m| m.conv_support())
    }
}

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a request was answered by the greedy baseline instead of the
/// exact optimizer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FallbackReason {
    /// The query exceeded [`ServiceConfig::max_exact_rels`].
    OverLimit,
    /// The worker queue was full when the optimization was scheduled.
    QueueFull,
    /// The request's deadline expired before the optimization finished.
    /// The exact job keeps running only while another request still
    /// waits for it; when the last one leaves, it is cancelled.
    DeadlineExceeded,
    /// The in-flight optimization this request was waiting on was
    /// discarded (service shutdown or a dropped queue-full job).
    Abandoned,
    /// The exact DP's estimated time — its candidate count times the
    /// measured cost per executed split-loop iteration — exceeded the
    /// time left before the request's deadline, so none was started.
    OverBudget,
}

/// Where a response's plan came from.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PlanSource {
    /// The exact DP optimizer (optimal).
    Exact,
    /// The greedy `goo` baseline, with the reason for degrading.
    Greedy(FallbackReason),
    /// The anytime ladder, tagged with the rung that produced the plan.
    /// Unlike [`PlanSource::Greedy`], this is a *serviced* over-limit
    /// query, not a degradation: [`Response::ladder`] carries the full
    /// optimality accounting.
    Ladder(Rung),
}

impl PlanSource {
    /// Every plan source, in wire-name order of declaration.
    pub const ALL: [PlanSource; 10] = [
        PlanSource::Exact,
        PlanSource::Greedy(FallbackReason::OverLimit),
        PlanSource::Greedy(FallbackReason::QueueFull),
        PlanSource::Greedy(FallbackReason::DeadlineExceeded),
        PlanSource::Greedy(FallbackReason::Abandoned),
        PlanSource::Greedy(FallbackReason::OverBudget),
        PlanSource::Ladder(Rung::Greedy),
        PlanSource::Ladder(Rung::Exact),
        PlanSource::Ladder(Rung::HybridDp),
        PlanSource::Ladder(Rung::Stochastic),
    ];

    /// Inverse of [`PlanSource::name`].
    pub fn parse(name: &str) -> Option<PlanSource> {
        PlanSource::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Wire-protocol string.
    pub fn name(&self) -> &'static str {
        match self {
            PlanSource::Exact => "exact",
            PlanSource::Greedy(FallbackReason::OverLimit) => "greedy_over_limit",
            PlanSource::Greedy(FallbackReason::QueueFull) => "greedy_queue_full",
            PlanSource::Greedy(FallbackReason::DeadlineExceeded) => "greedy_deadline",
            PlanSource::Greedy(FallbackReason::Abandoned) => "greedy_abandoned",
            PlanSource::Greedy(FallbackReason::OverBudget) => "greedy_over_budget",
            PlanSource::Ladder(Rung::Greedy) => "ladder_greedy",
            PlanSource::Ladder(Rung::Exact) => "ladder_exact",
            PlanSource::Ladder(Rung::HybridDp) => "ladder_hybrid_dp",
            PlanSource::Ladder(Rung::Stochastic) => "ladder_stochastic",
        }
    }

    /// The provenance detail alone, without the family prefix: the
    /// fallback reason for greedy plans (`queue_full` vs `deadline` —
    /// previously only distinguishable by scraping metrics), the rung
    /// for ladder plans, `exact` for exact plans. Emitted as the wire
    /// response's `source_detail=` field.
    pub fn detail(&self) -> &'static str {
        match self {
            PlanSource::Exact => "exact",
            PlanSource::Greedy(FallbackReason::OverLimit) => "over_limit",
            PlanSource::Greedy(FallbackReason::QueueFull) => "queue_full",
            PlanSource::Greedy(FallbackReason::DeadlineExceeded) => "deadline",
            PlanSource::Greedy(FallbackReason::Abandoned) => "abandoned",
            PlanSource::Greedy(FallbackReason::OverBudget) => "over_budget",
            PlanSource::Ladder(rung) => rung.name(),
        }
    }
}

/// Which DP driver actually ran an exact optimization, after
/// [`DriverChoice`] resolution against the cost model. Carried on
/// [`Response`] (and cached plans) so clients can tell a
/// convolution-driven answer from a split-driven one without scraping
/// metrics.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ExactDriver {
    /// The O(3^n) subset-split driver.
    Split,
    /// The layered-convolution driver on a model whose κ″ is natively
    /// orientation-free ([`ConvSupport::Native`]).
    Conv,
    /// The layered-convolution driver on a model that opted into the
    /// canonical-orientation reduction ([`ConvSupport::Canonical`]):
    /// same driver, κ″ evaluated on the lowest-relation-first operand
    /// order. Distinct on the wire so a measured regression can be
    /// attributed to the orientation discipline, not the driver.
    ConvCanonical,
}

impl ExactDriver {
    /// The `source_detail=` string for an exact response. Split keeps
    /// the historical `exact`.
    pub fn detail(&self) -> &'static str {
        match self {
            ExactDriver::Split => "exact",
            ExactDriver::Conv => "conv",
            ExactDriver::ConvCanonical => "conv_canonical",
        }
    }

    /// Whether the convolution driver actually ran (either conv
    /// variant). This is the predicate the `driver_conv` metric counts.
    pub fn is_conv(&self) -> bool {
        matches!(self, ExactDriver::Conv | ExactDriver::ConvCanonical)
    }
}

/// The service-boundary resolution of a request's DP driver for one
/// `(model, options, n)` triple. Every driver-dependent artifact — the
/// cache fingerprint tag, the wire provenance and the DP's price in
/// candidates — derives from this one value, so they can never drift
/// apart.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DriverDisposition {
    model: ModelId,
    /// The request's own driver, when it brought one: it gets its own
    /// fingerprint namespace (see [`Request::driver`]).
    overridden: Option<DriverChoice>,
    /// What actually runs, resolved exactly as the core resolves it.
    driver: ExactDriver,
    /// Relations in the query: with `driver`, the DP's size.
    n: usize,
}

impl DriverDisposition {
    /// Resolve against the options the optimization of `n` relations
    /// will run under. `options.driver` must already include any
    /// per-request override; the resolution mirrors the core's
    /// `RowEngine::resolve`, which the exact job asserts in debug builds.
    pub fn new(
        model: ModelId,
        overridden: bool,
        options: &DriveOptions,
        n: usize,
    ) -> DriverDisposition {
        let support = model.conv_support();
        let driver = match (options.driver.resolve(support), support) {
            (DriverChoice::Split, _) => ExactDriver::Split,
            (DriverChoice::Conv, ConvSupport::Canonical) => ExactDriver::ConvCanonical,
            (DriverChoice::Conv, _) => ExactDriver::Conv,
        };
        let overridden = overridden.then_some(options.driver);
        DriverDisposition { model, overridden, driver, n }
    }

    /// The model tag the query fingerprint is keyed by. Overridden
    /// requests get their own `+driver=` namespace so an overridden
    /// answer (with its own provenance) is never served from an entry
    /// the configured driver cached, and vice versa.
    pub fn fingerprint_tag(&self) -> std::borrow::Cow<'static, str> {
        match self.overridden {
            Some(d) => format!("{}+driver={}", self.model.name(), d.name()).into(),
            None => self.model.name().into(),
        }
    }

    /// The provenance an exact response reports (`source_detail=`).
    pub fn exact_driver(&self) -> ExactDriver {
        self.driver
    }

    /// The DP's candidate count: its split-loop iterations on an
    /// unpruned pass, the work deadline admission prices a request at
    /// (see [`Metrics::ns_per_loop_iter`]).
    pub(crate) fn candidates(&self) -> f64 {
        if self.driver.is_conv() {
            Counters::conv_candidates(self.n)
        } else {
            Counters::split_candidates(self.n)
        }
    }
}

/// How the cache participated in a response.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Answered from a resident plan.
    Hit,
    /// This request ran (or attempted to run) the optimization.
    Miss,
    /// Joined another request's in-flight optimization.
    Shared,
    /// The cache was skipped (admission fallback).
    Bypass,
}

impl CacheOutcome {
    /// Wire-protocol string.
    pub fn name(&self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Shared => "shared",
            CacheOutcome::Bypass => "bypass",
        }
    }
}

/// One optimization request.
#[derive(Clone, Debug)]
pub struct Request {
    /// The query statistics.
    pub spec: JoinSpec,
    /// Cost model to optimize under.
    pub model: ModelId,
    /// Threshold schedule the request's cache key is folded with;
    /// `None` uses [`ServiceConfig::default_schedule`]. It no longer
    /// steers the DP: every exact DP runs [`certified_schedule`], and
    /// plans are bit-identical under every schedule. Kept because the
    /// service benchmark's replay reads it.
    pub schedule: Option<ThresholdSchedule>,
    /// Give up waiting after this long and answer greedily; `None`
    /// waits until the optimization finishes.
    pub deadline: Option<Duration>,
    /// Per-request DP-driver override for the exact path; `None` (what
    /// the wire protocol always sends) uses [`ServiceConfig::driver`].
    /// Overridden requests are fingerprinted separately, so an
    /// overridden answer is never served from an entry the configured
    /// driver cached (and vice versa).
    pub driver: Option<DriverChoice>,
}

impl Request {
    /// Request with default model (κ₀), schedule, driver and no deadline.
    pub fn new(spec: JoinSpec) -> Request {
        Request { spec, model: ModelId::Kappa0, schedule: None, deadline: None, driver: None }
    }

    /// Service-boundary validation beyond what [`JoinSpec`] enforces at
    /// construction. `JoinSpec` deliberately admits selectivities above 1
    /// (the paper's Appendix workload generator uses them), but a service
    /// exposed to arbitrary clients must reject them: an expanding
    /// "selectivity" silently inflates every downstream cardinality.
    pub fn validate(&self) -> Result<(), RequestError> {
        validate_selectivities(self.spec.edges())
    }
}

/// Reject the first selectivity outside `(0, 1]` among `edges`.
fn validate_selectivities(
    edges: impl IntoIterator<Item = (usize, usize, f64)>,
) -> Result<(), RequestError> {
    match edges.into_iter().find(|&(_, _, sel)| !(sel > 0.0 && sel <= 1.0)) {
        Some((i, j, sel)) => Err(RequestError::SelectivityOutOfRange { i, j, sel }),
        None => Ok(()),
    }
}

/// A request rejected by [`Request::validate`] /
/// [`OptimizerService::try_optimize`] before reaching the optimizer.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestError {
    /// A join selectivity outside the meaningful range `(0, 1]`.
    SelectivityOutOfRange {
        /// First relation of the offending predicate.
        i: usize,
        /// Second relation of the offending predicate.
        j: usize,
        /// The rejected (effective) selectivity.
        sel: f64,
    },
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::SelectivityOutOfRange { i, j, sel } => {
                write!(f, "selectivity {sel} on edge {i},{j} outside (0, 1]")
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// One optimization response. The plan is always in the *request's*
/// relation numbering, whatever canonical form the cache used.
#[derive(Clone, Debug)]
pub struct Response {
    /// The chosen plan.
    pub plan: Plan,
    /// Its cost under the request's model.
    pub cost: f32,
    /// Result cardinality.
    pub card: f64,
    /// Threshold passes run (0 when the plan is greedy).
    pub passes: u32,
    /// Exact, flagged-greedy, or ladder provenance.
    pub source: PlanSource,
    /// Which DP driver produced an exact plan ([`PlanSource::Exact`]
    /// only; `None` on greedy and ladder paths). Cache hits report the
    /// driver that ran the original optimization.
    pub driver: Option<ExactDriver>,
    /// The cache's role in this response.
    pub cache: CacheOutcome,
    /// Ladder accounting when the plan came from the anytime ladder
    /// ([`PlanSource::Ladder`]); `None` on every other path.
    pub ladder: Option<LadderInfo>,
    /// End-to-end service time for this request.
    pub elapsed: Duration,
}

/// The anytime ladder's optimality accounting, surfaced on the wire so
/// clients learn *how good* an over-limit plan is, not just that the
/// exact path was skipped.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct LadderInfo {
    /// The rung that produced the returned plan.
    pub rung: Rung,
    /// The highest rung that ran (≥ `rung`).
    pub rung_reached: Rung,
    /// Optimality gap: 0 against the exact optimum when rung 1 ran,
    /// else `cost / greedy − 1 ≤ 0` against the greedy seed.
    pub gap: f32,
    /// Which bound `gap` is measured against.
    pub gap_basis: GapBasis,
    /// Cost of the greedy seed the ladder started from (what the bare
    /// over-limit degradation would have returned).
    pub greedy_cost: f32,
    /// Rung-3 move proposals consumed.
    pub refine_steps: u64,
    /// Rung-2 block sub-problems solved exactly.
    pub dp_blocks: u64,
    /// Wall-clock time spent inside the ladder itself.
    pub spent: Duration,
}

/// An optimization request for a query too large for [`JoinSpec`]'s
/// bit-set representation (`n > MAX_RELS`). Big requests always bypass
/// the plan cache and are answered by the anytime ladder when
/// [`ServiceConfig::ladder`] is set, else by the flagged greedy
/// baseline.
#[derive(Clone, Debug)]
pub struct BigRequest {
    /// The query statistics (up to [`blitz_ladder::MAX_BIG_RELS`]).
    pub spec: BigSpec,
    /// Cost model to optimize under.
    pub model: ModelId,
    /// Wall-clock budget for the ladder (intersected with the
    /// configured per-request ladder budget); `None` leaves the
    /// configured budget alone.
    pub deadline: Option<Duration>,
}

impl BigRequest {
    /// Request with the default model (κ₀) and no deadline.
    pub fn new(spec: BigSpec) -> BigRequest {
        BigRequest { spec, model: ModelId::Kappa0, deadline: None }
    }

    /// Service-boundary validation, mirroring [`Request::validate`].
    pub fn validate(&self) -> Result<(), RequestError> {
        validate_selectivities(self.spec.edges())
    }
}

/// Construction-time knobs for [`OptimizerService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Optimizer worker threads (≥ 1).
    pub workers: usize,
    /// Bounded job-queue length; 0 forces every miss to the greedy path.
    pub queue_capacity: usize,
    /// Completed plans the cache retains (LRU).
    pub cache_capacity: usize,
    /// Cache shard count (lock-contention spread).
    pub cache_shards: usize,
    /// Admission limit: queries with more relations than this answer
    /// greedily. Clamped to [`MAX_TABLE_RELS`].
    ///
    /// The exact path is `O(3^n)`, so every relation added here costs
    /// roughly 3× more worst-case CPU per cache miss; keep this modest
    /// (≤ 18) on deployments with one wave worker (`parallelism == 1`),
    /// where no helper threads absorb the growth.
    pub max_exact_rels: usize,
    /// Schedule folded into the cache key of requests that do not bring
    /// their own. It no longer steers the DP: every exact DP runs
    /// [`certified_schedule`]. Kept because the service benchmark's
    /// replay reads it.
    pub default_schedule: ThresholdSchedule,
    /// Wave workers for the DP of large queries, the job's own thread
    /// included (`0` = auto-detect, `1` = the job's thread alone). A
    /// hot/cold table fills in popcount waves either way; this only
    /// sets how many threads share each wave.
    pub parallelism: usize,
    /// Queries with at least this many relations fill their waves on
    /// [`ServiceConfig::parallelism`] workers; smaller tables fill on
    /// the job's thread alone, faster than helpers synchronize.
    pub parallel_min_rels: usize,
    /// DP-table layout for the exact path. Defaults to
    /// [`LayoutChoice::HotCold`] — the cache-conscious hot/cold split —
    /// which is bit-identical to the AoS layout (the layout-
    /// equivalence suite enforces this), so it is purely a perf knob.
    /// Only a layout that [runs waves](LayoutChoice::runs_waves) —
    /// hot/cold — takes helper threads: on AoS every query fills in
    /// integer order on the job's thread whatever
    /// [`ServiceConfig::parallelism`] says.
    pub layout: LayoutChoice,
    /// Split kernel for the exact path. Defaults to
    /// [`KernelChoice::Simd`], which resolves to the best kernel the
    /// host supports (falling back to the scalar cascade, and always
    /// bit-identical to it — the kernel-equivalence suite enforces
    /// this), so it too is purely a perf knob.
    pub kernel: KernelChoice,
    /// DP driver for the exact path. Defaults to [`DriverChoice::Conv`],
    /// the layered-convolution driver, which every [`ModelId`] supports
    /// exactly; below 6 relations neither driver is consistently faster
    /// (see EXPERIMENTS.md). Cost columns are bit-identical either way (the
    /// driver-equivalence suite enforces this), so this is purely a perf
    /// knob. Programmatic callers can override it per query via
    /// [`Request::driver`]; the wire protocol cannot.
    pub driver: DriverChoice,
    /// Anytime-ladder settings for queries over
    /// [`max_exact_rels`](ServiceConfig::max_exact_rels). `None` (the
    /// default, preserving prior behavior) degrades such queries to the
    /// bare greedy baseline; `Some` routes them through the anytime
    /// ladder instead, answering with ladder provenance and an
    /// optimality gap rather than an unqualified greedy plan.
    pub ladder: Option<LadderSettings>,
}

/// Per-request budgets for the service's anytime ladder (see
/// [`ServiceConfig::ladder`]). These map onto [`LadderConfig`]; the
/// rung-1 gate always follows [`ServiceConfig::max_exact_rels`].
#[derive(Clone, Debug)]
pub struct LadderSettings {
    /// Rung-2 block-DP window size (each block is an exact `O(3^k)`
    /// sub-problem; keep it in the low teens).
    pub dp_window: usize,
    /// Rung-2 boundary-shifted sweeps; `0` disables the rung.
    pub dp_rounds: usize,
    /// Rung-3 stochastic proposal budget; `0` disables the rung.
    pub refine_steps: u64,
    /// PRNG seed for rung 3 (fixed per service for reproducibility).
    pub seed: u64,
    /// Wall-clock ceiling per ladder run, intersected with the
    /// request's own deadline; `None` trusts the work budgets alone and
    /// keeps the ladder fully deterministic.
    pub budget: Option<Duration>,
}

impl Default for LadderSettings {
    fn default() -> LadderSettings {
        let d = LadderConfig::default();
        LadderSettings {
            dp_window: d.dp_window,
            dp_rounds: d.dp_rounds,
            refine_steps: d.refine_steps,
            seed: d.seed,
            budget: Some(Duration::from_millis(250)),
        }
    }
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
        ServiceConfig {
            workers: cores,
            queue_capacity: 256,
            cache_capacity: 1024,
            cache_shards: 8,
            // On multi-core hosts the wave helpers (default
            // `parallelism: 0` = auto) absorb the exact path's O(3^n)
            // growth, so it stretches further before degrading to
            // greedy; a single-core host keeps the serial-era limit.
            max_exact_rels: if cores >= 2 { 20 } else { 18 },
            default_schedule: ThresholdSchedule::default(),
            parallelism: 0,
            parallel_min_rels: 15,
            layout: LayoutChoice::HotCold,
            kernel: KernelChoice::Simd,
            driver: DriverChoice::Conv,
            ladder: None,
        }
    }
}

impl ServiceConfig {
    /// The [`DriveOptions`] an exact optimization of `n` relations runs
    /// under: [`ServiceConfig::parallelism`] wave workers for large
    /// tables on a layout that [runs waves](LayoutChoice::runs_waves),
    /// one worker — the job's thread — otherwise, always on this
    /// configuration's layout, kernel and driver. A hot/cold table fills
    /// in popcount waves at either count. The service runs every exact DP under these options (so
    /// its deadline estimate divides by the threads that really run),
    /// and so does the one-shot CLI, whose answer is then the server's.
    ///
    /// Always config-driven, never env-driven: a configuration with one
    /// worker (`parallelism == 1`) — and every query below
    /// `parallel_min_rels` — stays on one worker even when the process-wide
    /// `BLITZ_TEST_THREADS` override (honored by
    /// [`DriveOptions::default`]) is set.
    pub fn drive_options(&self, n: usize) -> DriveOptions {
        let waves = self.layout.runs_waves();
        let options = if waves && n >= self.parallel_min_rels && self.parallelism != 1 {
            DriveOptions::parallel(self.parallelism)
        } else {
            DriveOptions::serial()
        };
        options.with_layout(self.layout).with_kernel(self.kernel).with_driver(self.driver)
    }
}

/// The concurrent optimizer service: cache + pool + metrics behind one
/// synchronous [`optimize`](OptimizerService::optimize) call.
pub struct OptimizerService {
    config: ServiceConfig,
    cache: Arc<PlanCache>,
    pool: WorkerPool,
    tables: Arc<TablePool>,
    metrics: Arc<Metrics>,
}

impl OptimizerService {
    /// Build a service from `config` (see [`ServiceConfig::default`]).
    pub fn new(mut config: ServiceConfig) -> OptimizerService {
        config.max_exact_rels = config.max_exact_rels.min(MAX_TABLE_RELS);
        let cache = PlanCache::new(config.cache_capacity, config.cache_shards);
        let pool = WorkerPool::new(config.workers.max(1), config.queue_capacity);
        OptimizerService {
            config,
            cache,
            pool,
            tables: Arc::new(TablePool::default()),
            metrics: Arc::new(Metrics::default()),
        }
    }

    /// The effective configuration (after clamping).
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Point-in-time metrics, including queue-depth and cache gauges.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot(self.pool.depth(), self.cache.len())
    }

    /// The live metrics registry. The frontend records connection-level
    /// events (accepts, refusals, transient accept errors, batches)
    /// here; tests read it to assert on behavior without scraping the
    /// wire.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// [`optimize`](OptimizerService::optimize) with service-boundary
    /// validation: rejects requests whose spec carries selectivities
    /// outside `(0, 1]` instead of optimizing over poisoned estimates.
    pub fn try_optimize(&self, req: &Request) -> Result<Response, RequestError> {
        req.validate()?;
        Ok(self.optimize(req))
    }

    /// The drive options an exact optimization of `req` runs under
    /// (per-request driver override included) and the driver
    /// disposition derived from them. One disposition drives both the
    /// cache namespace and the provenance the job will report — deriving
    /// them from separate sites is how the two once could drift.
    fn exact_options(&self, req: &Request) -> (DriveOptions, DriverDisposition) {
        let n = req.spec.n();
        let mut options = self.config.drive_options(n);
        if let Some(d) = req.driver {
            options = options.with_driver(d);
        }
        let disposition = DriverDisposition::new(req.model, req.driver.is_some(), &options, n);
        (options, disposition)
    }

    /// How long `req`'s exact DP would take if it started now: the
    /// driver's candidate count for the query's size times the measured
    /// CPU cost per executed split-loop iteration, spread over its wave
    /// threads. This is the estimate deadline admission compares with
    /// the time left. It is an upper bound: a capped pass executes at
    /// most the candidate count, and the rows it prunes still cost time,
    /// which the rate charges to the iterations that ran. `None` until
    /// some exact job has completed (a cold service admits everything)
    /// and for queries over the exact-path limit.
    pub fn exact_estimate(&self, req: &Request) -> Option<Duration> {
        if req.spec.n() > self.config.max_exact_rels {
            return None;
        }
        let (options, disposition) = self.exact_options(req);
        self.estimate(&options, &disposition)
    }

    fn estimate(
        &self,
        options: &DriveOptions,
        disposition: &DriverDisposition,
    ) -> Option<Duration> {
        let ns_per_loop_iter = self.metrics.ns_per_loop_iter()?;
        let ns = disposition.candidates() * ns_per_loop_iter
            / options.effective_parallelism() as f64;
        Some(Duration::try_from_secs_f64(ns / 1e9).unwrap_or(Duration::MAX))
    }

    /// Optimize one request on the calling thread, blocking while an
    /// exact DP runs. Never fails: every degraded path returns a valid
    /// (greedy) plan flagged in [`Response::source`].
    pub fn optimize(&self, req: &Request) -> Response {
        self.wait(self.begin(req))
    }

    /// The non-blocking front half of
    /// [`optimize`](OptimizerService::optimize) on the calling thread:
    /// admission, fingerprint, cache lookup and deadline admission. A
    /// miss submits its exact DP to the worker pool and comes back
    /// [`Begun::Pending`]; a query over the exact-path limit comes back
    /// as [`Begun::Offload`] (the ladder when configured, else greedy).
    pub(crate) fn begin(&self, req: &Request) -> Begun {
        let start = Instant::now();
        self.metrics.requests.fetch_add(1, Relaxed);
        if req.spec.n() > self.config.max_exact_rels {
            self.metrics.cache_bypass.fetch_add(1, Relaxed);
            let query = Query::Small(req.spec.clone());
            return Begun::Offload(Arc::new(self.offload(query, req.model, req.deadline, start)));
        }

        let schedule = req.schedule.unwrap_or(self.config.default_schedule);
        let (options, disposition) = self.exact_options(req);
        let canon =
            CanonicalQuery::new(&req.spec, &disposition.fingerprint_tag(), Some(&schedule));

        // Deadline admission, priced in DP work. A resident plan still
        // wins; otherwise a DP that cannot finish in the time left is
        // never started: no slot is reserved and no job queued.
        if let Some(deadline) = req.deadline {
            let left = deadline.saturating_sub(start.elapsed());
            if self.estimate(&options, &disposition).is_some_and(|e| e > left) {
                if let Some(cp) = self.cache.get(canon.fingerprint()) {
                    self.metrics.cache_hits.fetch_add(1, Relaxed);
                    return Begun::Done(self.respond_from(&canon, &cp, CacheOutcome::Hit, start));
                }
                self.metrics.cache_bypass.fetch_add(1, Relaxed);
                self.metrics.fallback_over_budget.fetch_add(1, Relaxed);
                let reason = FallbackReason::OverBudget;
                return Begun::Done(self.greedy_response(req, reason, CacheOutcome::Bypass, start));
            }
        }

        let (slot, cache) = match self.cache.lookup_or_reserve(canon.fingerprint()) {
            Lookup::Hit(cp) => {
                self.metrics.cache_hits.fetch_add(1, Relaxed);
                return Begun::Done(self.respond_from(&canon, &cp, CacheOutcome::Hit, start));
            }
            Lookup::Wait(slot) => {
                self.metrics.cache_shared.fetch_add(1, Relaxed);
                (slot, CacheOutcome::Shared)
            }
            Lookup::Reserved(reservation) => {
                self.metrics.cache_misses.fetch_add(1, Relaxed);
                let slot = reservation.slot();
                let job = self.make_job(req, &canon, options, &disposition, reservation);
                if self.pool.submit(job).is_err() {
                    // Queue full: drop the job (waking any waiters
                    // empty-handed via the reservation's Drop) and
                    // answer greedily ourselves.
                    self.metrics.fallback_queue_full.fetch_add(1, Relaxed);
                    let reason = FallbackReason::QueueFull;
                    let resp = self.greedy_response(req, reason, CacheOutcome::Miss, start);
                    return Begun::Done(resp);
                }
                (slot, CacheOutcome::Miss)
            }
        };
        let plans = Arc::clone(&self.cache);
        Begun::Pending(Pending { req: req.clone(), canon, slot, cache, start, plans })
    }

    /// Finish what [`begin`](OptimizerService::begin) started, on the
    /// calling thread: block in [`Slot::wait`] until a pending request's
    /// DP resolves or its deadline passes, and run offloaded work inline.
    pub(crate) fn wait(&self, begun: Begun) -> Response {
        match begun {
            Begun::Done(resp) => resp,
            Begun::Pending(pending) => {
                let remaining =
                    pending.deadline().map(|d| d.saturating_duration_since(Instant::now()));
                pending.slot.wait(remaining);
                self.finish(pending)
            }
            Begun::Offload(work) => work.run(),
        }
    }

    /// Answer a pending request once its slot has resolved or its
    /// deadline has passed; never blocks. A resolved plan answers it.
    /// A slot still unresolved means the deadline won: the request
    /// degrades greedily and leaves the slot (as `pending` drops), which
    /// cancels the job if nobody else still waits for it. A slot whose
    /// job was dropped without a result answers `Abandoned`.
    pub(crate) fn finish(&self, pending: Pending) -> Response {
        let (cache, start) = (pending.cache, pending.start);
        let reason = match pending.slot.peek() {
            Some(Some(cp)) => return self.respond_from(&pending.canon, &cp, cache, start),
            Some(None) => {
                self.metrics.fallback_abandoned.fetch_add(1, Relaxed);
                FallbackReason::Abandoned
            }
            None => {
                self.metrics.fallback_deadline.fetch_add(1, Relaxed);
                FallbackReason::DeadlineExceeded
            }
        };
        self.greedy_response(&pending.req, reason, cache, start)
    }

    /// Run `work` as a job on the service's worker pool and hand its
    /// response to `reply` on the worker, unless the request was
    /// answered before the job started (see [`Offload::claim`]). When
    /// the queue is full, the request is answered with the greedy plan
    /// on the calling thread instead (`greedy_queue_full`), and that
    /// response is returned.
    pub(crate) fn spawn(
        &self,
        work: &Arc<Offload>,
        reply: impl FnOnce(Response) + Send + 'static,
    ) -> Option<Response> {
        let (job_work, metrics) = (Arc::clone(work), Arc::clone(&self.metrics));
        let submitted = Instant::now();
        let job: pool::Job = Box::new(move || {
            metrics.queue_wait.record(submitted.elapsed());
            if job_work.claim() {
                reply(job_work.run());
            }
        });
        self.pool.submit(job).err().map(|_| work.refuse())
    }

    /// Optimize a query of any size up to [`blitz_ladder::MAX_BIG_RELS`]
    /// relations. Queries that fit [`JoinSpec`] *and* the admission
    /// limit delegate to the cached exact path
    /// ([`optimize`](OptimizerService::optimize)); larger ones bypass
    /// the cache and run the anytime ladder when configured, else the
    /// flagged greedy baseline. Never fails.
    pub fn optimize_big(&self, req: &BigRequest) -> Response {
        self.wait(self.begin_big(req))
    }

    /// The non-blocking front half of
    /// [`optimize_big`](OptimizerService::optimize_big), as
    /// [`begin`](OptimizerService::begin) is for
    /// [`optimize`](OptimizerService::optimize).
    pub(crate) fn begin_big(&self, req: &BigRequest) -> Begun {
        if let Some(spec) = req.spec.to_join_spec() {
            if spec.n() <= self.config.max_exact_rels {
                let small = Request {
                    spec,
                    model: req.model,
                    schedule: None,
                    deadline: req.deadline,
                    driver: None,
                };
                return self.begin(&small);
            }
        }
        let start = Instant::now();
        self.metrics.requests.fetch_add(1, Relaxed);
        self.metrics.cache_bypass.fetch_add(1, Relaxed);
        let query = Query::Big(req.spec.clone());
        Begun::Offload(Arc::new(self.offload(query, req.model, req.deadline, start)))
    }

    /// Package an over-limit query: a ladder run when one is configured,
    /// else the flagged greedy baseline. The ladder's wall clock is the
    /// configured budget; [`Offload::run`] narrows it to the time left
    /// before the request's deadline when the run starts.
    fn offload(
        &self,
        query: Query,
        model: ModelId,
        deadline: Option<Duration>,
        start: Instant,
    ) -> Offload {
        let ladder = self.config.ladder.as_ref().map(|settings| LadderConfig {
            max_exact_rels: self.config.max_exact_rels,
            dp_window: settings.dp_window,
            dp_rounds: settings.dp_rounds,
            refine_steps: settings.refine_steps,
            seed: settings.seed,
            wall_clock: settings.budget,
            // Config-driven like the exact path: the ladder's rung-1
            // gate must not pick up the BLITZ_TEST_DRIVER env override
            // that LadderConfig::default() honors for tests.
            driver: self.config.driver,
        });
        Offload {
            query,
            model,
            ladder,
            start,
            deadline: deadline.and_then(|d| start.checked_add(d)),
            claimed: AtomicBool::new(false),
            metrics: Arc::clone(&self.metrics),
        }
    }

    /// Package the exact optimization as a pool job owning its cache
    /// reservation. The job stops early — skipped before it takes a
    /// table, or cancelled mid-DP — once every requester has left; the
    /// reservation then drops unresolved.
    fn make_job(
        &self,
        req: &Request,
        canon: &CanonicalQuery,
        options: DriveOptions,
        disposition: &DriverDisposition,
        reservation: Reservation,
    ) -> pool::Job {
        let spec = req.spec.clone();
        let model = req.model;
        let canon = canon.clone();
        let metrics = Arc::clone(&self.metrics);
        let tables = Arc::clone(&self.tables);
        let driver = disposition.exact_driver();
        let submitted = Instant::now();
        Box::new(move || {
            metrics.queue_wait.record(submitted.elapsed());
            let cancel = reservation.cancel_flag();
            let started = Instant::now();
            let done = if cancel.load(Relaxed) {
                None
            } else {
                let job = ExactJob {
                    spec: &spec,
                    options,
                    driver,
                    cancel,
                    tables: &tables,
                    metrics: &metrics,
                };
                job.run(model)
            };
            let Some((plan, cost, card, passes, counters)) = done else {
                metrics.exact_cancelled.fetch_add(1, Relaxed);
                return;
            };
            metrics.record_optimization(
                &counters,
                passes,
                started.elapsed(),
                options.effective_parallelism(),
            );
            reservation.fulfill_cached(ComputedPlan {
                plan: canon.to_canonical(&plan),
                cost,
                card,
                passes,
                exact: true,
                driver: Some(driver),
            });
        })
    }

    /// Map a (canonical-space) cached plan into the requester's space.
    fn respond_from(
        &self,
        canon: &CanonicalQuery,
        cp: &ComputedPlan,
        cache: CacheOutcome,
        start: Instant,
    ) -> Response {
        let source = if cp.exact {
            PlanSource::Exact
        } else {
            PlanSource::Greedy(FallbackReason::QueueFull)
        };
        let elapsed = start.elapsed();
        self.metrics.request_latency.record(elapsed);
        Response {
            plan: canon.to_original(&cp.plan),
            cost: cp.cost,
            card: cp.card,
            passes: cp.passes,
            source,
            driver: cp.driver,
            cache,
            ladder: None,
            elapsed,
        }
    }

    /// Inline greedy fallback (runs on the calling thread; `goo` is
    /// O(n³) and effectively instant at exact-path sizes).
    fn greedy_response(
        &self,
        req: &Request,
        reason: FallbackReason,
        cache: CacheOutcome,
        start: Instant,
    ) -> Response {
        let greedy = Query::greedy_small(&req.spec, req.model);
        greedy_response(&self.metrics, greedy, reason, cache, start)
    }
}

/// How [`OptimizerService::begin`] left a request.
pub(crate) enum Begun {
    /// Answered on the calling thread: a cache hit or a greedy fallback.
    Done(Response),
    /// Waiting on an in-flight exact DP.
    Pending(Pending),
    /// Over-limit work: a ladder run or a greedy plan of up to
    /// [`blitz_ladder::MAX_BIG_RELS`] relations. Run it inline
    /// ([`Offload::run`]) or as a pool job
    /// ([`OptimizerService::spawn`]).
    Offload(Arc<Offload>),
}

/// A request waiting on an in-flight exact DP. Wait for [`Pending::slot`]
/// to resolve — blocking in [`Slot::wait`] or through
/// [`Slot::subscribe`] — or for [`Pending::deadline`] to pass, then
/// hand it to [`OptimizerService::finish`]. Dropping it unfinished (its
/// client went away) leaves the slot, which cancels the DP when no other
/// request waits for it.
pub(crate) struct Pending {
    req: Request,
    canon: CanonicalQuery,
    slot: Arc<Slot>,
    cache: CacheOutcome,
    start: Instant,
    plans: Arc<PlanCache>,
}

impl Pending {
    /// The in-flight optimization this request waits on.
    pub(crate) fn slot(&self) -> &Arc<Slot> {
        &self.slot
    }

    /// When the request's deadline passes; `None` without a deadline.
    pub(crate) fn deadline(&self) -> Option<Instant> {
        self.req.deadline.and_then(|d| self.start.checked_add(d))
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        if self.slot.peek().is_none() {
            self.plans.leave(self.canon.fingerprint(), &self.slot);
        }
    }
}

/// A query the greedy baseline answers: one in the exact path's
/// bit-set form, or one too big for it.
enum Query {
    Small(JoinSpec),
    Big(BigSpec),
}

impl Query {
    /// `goo`'s plan of a [`JoinSpec`], its cost and result cardinality.
    fn greedy_small(spec: &JoinSpec, model: ModelId) -> (Plan, f32, f64) {
        let (plan, cost) = with_model!(model, |m| goo(spec, m));
        (plan, cost, spec.join_cardinality(spec.all_rels()))
    }

    fn greedy(&self, model: ModelId) -> (Plan, f32, f64) {
        match self {
            Query::Small(spec) => Query::greedy_small(spec, model),
            Query::Big(spec) => with_model!(model, |m| {
                let (plan, cost) = goo_big(spec, m);
                let (card, _) = spec.plan_cost(&plan, m);
                (plan, cost, card)
            }),
        }
    }
}

/// Over-limit work [`OptimizerService::begin`] hands back instead of
/// running it: a ladder run, or a greedy plan of up to
/// [`blitz_ladder::MAX_BIG_RELS`] relations. Both bypass the cache.
pub(crate) struct Offload {
    query: Query,
    model: ModelId,
    /// The ladder's configuration, its wall clock the service's budget.
    ladder: Option<LadderConfig>,
    start: Instant,
    deadline: Option<Instant>,
    /// Set by whichever answers the request first (see [`Offload::claim`]).
    claimed: AtomicBool,
    metrics: Arc<Metrics>,
}

impl Offload {
    /// When the request's deadline passes, while nobody has claimed it
    /// yet; `None` without a deadline or once claimed.
    pub(crate) fn deadline(&self) -> Option<Instant> {
        self.deadline.filter(|_| !self.claimed.load(Relaxed))
    }

    /// Take the right to answer the request. A pool job claims it as it
    /// starts; an event loop whose deadline timer fires first (or whose
    /// connection closed) claims it instead and the job does nothing.
    /// Returns `false` once someone else has.
    pub(crate) fn claim(&self) -> bool {
        // Relaxed: the swap alone picks the one winner; nothing else is
        // published through the flag.
        !self.claimed.swap(true, Relaxed)
    }

    /// Do the work on the calling thread: the anytime ladder when the
    /// service has one, else the flagged greedy baseline. The ladder's
    /// wall clock is the smaller of its budget and the time left before
    /// the request's deadline; with no time left it is not run, and the
    /// request gets the greedy plan flagged `greedy_deadline`.
    pub(crate) fn run(&self) -> Response {
        let Some(cfg) = &self.ladder else {
            self.metrics.fallback_over_limit.fetch_add(1, Relaxed);
            return self.greedy(FallbackReason::OverLimit);
        };
        let left = self.deadline.map(|d| d.saturating_duration_since(Instant::now()));
        if left == Some(Duration::ZERO) {
            self.metrics.fallback_deadline.fetch_add(1, Relaxed);
            return self.greedy(FallbackReason::DeadlineExceeded);
        }
        let wall_clock = match (cfg.wall_clock, left) {
            (Some(b), Some(l)) => Some(b.min(l)),
            (b, l) => b.or(l),
        };
        let cfg = LadderConfig { wall_clock, ..cfg.clone() };
        let spec = match &self.query {
            Query::Big(spec) => std::borrow::Cow::Borrowed(spec),
            Query::Small(spec) => std::borrow::Cow::Owned(BigSpec::from_spec(spec)),
        };
        let report = with_model!(self.model, |m| optimize_ladder(&spec, m, &cfg));
        self.metrics.record_ladder(
            report.rung.index(),
            report.spent.refine_steps,
            report.spent.dp_blocks,
            report.spent.elapsed,
        );
        let elapsed = self.start.elapsed();
        self.metrics.request_latency.record(elapsed);
        Response {
            cost: report.cost,
            card: report.card,
            passes: 0,
            source: PlanSource::Ladder(report.rung),
            driver: None,
            cache: CacheOutcome::Bypass,
            ladder: Some(LadderInfo {
                rung: report.rung,
                rung_reached: report.rung_reached,
                gap: report.gap,
                gap_basis: report.gap_basis,
                greedy_cost: report.greedy_cost,
                refine_steps: report.spent.refine_steps,
                dp_blocks: report.spent.dp_blocks,
                spent: report.spent.elapsed,
            }),
            elapsed,
            plan: report.plan,
        }
    }

    /// The answer when the worker queue refused the job: the greedy
    /// plan, flagged `greedy_queue_full`.
    fn refuse(&self) -> Response {
        self.metrics.fallback_queue_full.fetch_add(1, Relaxed);
        self.greedy(FallbackReason::QueueFull)
    }

    fn greedy(&self, reason: FallbackReason) -> Response {
        let greedy = self.query.greedy(self.model);
        greedy_response(&self.metrics, greedy, reason, CacheOutcome::Bypass, self.start)
    }
}

/// Package a greedy plan, cost and cardinality as a flagged response.
fn greedy_response(
    metrics: &Metrics,
    (plan, cost, card): (Plan, f32, f64),
    reason: FallbackReason,
    cache: CacheOutcome,
    start: Instant,
) -> Response {
    let elapsed = start.elapsed();
    metrics.request_latency.record(elapsed);
    Response {
        plan,
        cost,
        card,
        passes: 0,
        source: PlanSource::Greedy(reason),
        driver: None,
        cache,
        ladder: None,
        elapsed,
    }
}

/// The threshold schedule of every exact DP the service runs, and of the
/// one-shot CLI's: greedy `goo`'s plan of `spec` under `model`
/// certifies a cap ([`ThresholdSchedule::certified`]). The optimum
/// costs no more than that plan, so the one capped pass succeeds and
/// returns the uncapped cost, card and plan bits, after pruning every
/// row that reaches the cap. `goo` costs `O(n³)` time, microseconds at
/// exact-path sizes.
pub fn certified_schedule<M: CostModel>(spec: &JoinSpec, model: &M) -> ThresholdSchedule {
    ThresholdSchedule::certified(goo(spec, model).1)
}

/// What a finished exact job hands back: plan, cost, cardinality,
/// threshold passes and the §3.3 counters.
type ExactRun = (Plan, f32, f64, u32, Counters);

/// One exact job's inputs, on the worker that runs it.
struct ExactJob<'a> {
    spec: &'a JoinSpec,
    options: DriveOptions,
    driver: ExactDriver,
    cancel: &'a AtomicBool,
    tables: &'a TablePool,
    metrics: &'a Metrics,
}

impl ExactJob<'_> {
    /// Run the exact DP on a pooled table and arena; `None` when the
    /// cancel flag stopped it (the table still goes back to the pool).
    ///
    /// Static double dispatch: model × layout, all monomorphized. Every
    /// combination is bit-identical in results; the layout only moves
    /// bytes around in memory.
    fn run(&self, model: ModelId) -> Option<ExactRun> {
        with_model!(model, |m| match self.options.layout {
            LayoutChoice::Aos => self.go::<AosTable, _>(m),
            LayoutChoice::HotCold => self.go::<HotColdTable, _>(m),
        })
    }

    fn go<L: PoolSlot, M: CostModel + Sync>(&self, model: &M) -> Option<ExactRun> {
        let (spec, options, metrics) = (self.spec, self.options, self.metrics);
        // The disposition was resolved once at the service boundary
        // ([`DriverDisposition`]); here — with the concrete model in
        // hand — assert it matches what the core itself will resolve
        // from the same inputs before trusting it for metrics.
        debug_assert_eq!(
            options.driver.resolve(model.conv_support()) == DriverChoice::Conv,
            self.driver.is_conv(),
            "service disposition disagrees with core driver resolution"
        );
        // One pass capped by greedy GOO's plan: it prunes every row the
        // cap rules out and returns the uncapped bits.
        let schedule = certified_schedule(spec, model);
        let (mut table, recycled) = self.tables.take::<L>(spec.n());
        let counter =
            if recycled { &metrics.table_pool_hits } else { &metrics.table_pool_misses };
        counter.fetch_add(1, Relaxed);
        let mut arena = self.tables.take_arena();
        let mut counters = Counters::default();
        let out = optimize_join_threshold_arena_cancellable::<L, M, Counters, true>(
            &mut table,
            &mut arena,
            spec,
            model,
            schedule,
            options,
            self.cancel,
            &mut counters,
        );
        // The allocations left on a warm hot path: GOO's plan, which
        // certifies the cap, and the owned plan the cache keeps across
        // requests. Both happen once per cache miss; the
        // optimize-and-extract work itself is allocation-free (the
        // `no_alloc` suite pins that).
        let run =
            out.map(|out| (arena.to_plan(out.root), out.cost, out.card, out.passes, counters));
        self.tables.put(table);
        self.tables.put_arena(arena);
        if run.is_some() {
            let driver_counter =
                if self.driver.is_conv() { &metrics.driver_conv } else { &metrics.driver_split };
            driver_counter.fetch_add(1, Relaxed);
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_id_roundtrips() {
        for id in [ModelId::Kappa0, ModelId::SortMerge, ModelId::DiskNestedLoops, ModelId::SmDnl] {
            assert_eq!(ModelId::parse(id.name()), Some(id));
            assert_eq!(format!("{id}"), id.name());
        }
        assert_eq!(ModelId::parse("nope"), None);
    }

    /// The service's pre-dispatch capability probe must agree with the
    /// concrete models the exact path monomorphizes over — this is the
    /// contract `DriverDisposition` (and the cache key derived from it)
    /// rests on.
    #[test]
    fn model_id_capabilities_match_the_dispatched_models() {
        assert_eq!(ModelId::Kappa0.conv_support(), Kappa0.conv_support());
        assert_eq!(ModelId::SortMerge.conv_support(), SortMerge.conv_support());
        assert_eq!(
            ModelId::DiskNestedLoops.conv_support(),
            DiskNestedLoops::default().conv_support()
        );
        assert_eq!(ModelId::SmDnl.conv_support(), SmDnl::default().conv_support());
    }

    /// One disposition value yields the cache tag, the wire provenance
    /// and the DP's price, for every (model capability × request)
    /// combination.
    #[test]
    fn driver_disposition_derives_tag_provenance_and_price_together() {
        let at = |model: ModelId, driver: Option<DriverChoice>, n: usize| {
            // Mirror the service default and then the per-request
            // override, as `optimize` does.
            let mut options = DriveOptions::serial().with_driver(ServiceConfig::default().driver);
            if let Some(d) = driver {
                options = options.with_driver(d);
            }
            DriverDisposition::new(model, driver.is_some(), &options, n)
        };

        // The default on a Native model: conv at every size, priced in
        // conv candidates.
        for n in [2, 3, 5, 16] {
            let d = at(ModelId::Kappa0, None, n);
            assert_eq!(d.exact_driver(), ExactDriver::Conv, "n={n}");
            assert_eq!(d.fingerprint_tag(), "k0");
            assert_eq!(d.candidates(), Counters::conv_candidates(n));
        }

        // On a Canonical model it reports the canonical variant.
        let sm = at(ModelId::SortMerge, None, 16);
        assert_eq!(sm.exact_driver(), ExactDriver::ConvCanonical);
        assert!(sm.exact_driver().is_conv());
        assert_eq!(sm.exact_driver().detail(), "conv_canonical");
        assert_eq!(sm.fingerprint_tag(), "sm");

        // A forced-conv request is namespaced and keeps its provenance.
        let forced = at(ModelId::SmDnl, Some(DriverChoice::Conv), 3);
        assert_eq!(forced.exact_driver(), ExactDriver::ConvCanonical);
        assert_eq!(forced.fingerprint_tag(), "smdnl+driver=conv");

        // Forced split is namespaced too, reports plain `exact` and is
        // priced in split candidates.
        let split = at(ModelId::SortMerge, Some(DriverChoice::Split), 16);
        assert_eq!(split.exact_driver(), ExactDriver::Split);
        assert_eq!(split.exact_driver().detail(), "exact");
        assert_eq!(split.fingerprint_tag(), "sm+driver=split");
        assert_eq!(split.candidates(), Counters::split_candidates(16));
    }

    /// With the canonical-orientation reduction every shipped model
    /// takes the conv path at size: a κ″ model answers with
    /// `conv_canonical` provenance and the `driver_conv` metric counts
    /// it — no silent split fallback left in the fleet.
    #[test]
    fn canonical_models_take_conv_at_size() {
        let n = 12;
        let cards: Vec<f64> = (0..n).map(|i| 10.0 + i as f64).collect();
        let edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 0.02)).collect();
        let spec = JoinSpec::new(&cards, &edges).unwrap();
        let service = OptimizerService::new(ServiceConfig { workers: 1, ..Default::default() });
        for model in [ModelId::SortMerge, ModelId::DiskNestedLoops, ModelId::SmDnl] {
            let resp = service.optimize(&Request { model, ..Request::new(spec.clone()) });
            assert_eq!(resp.source, PlanSource::Exact);
            assert_eq!(
                resp.driver,
                Some(ExactDriver::ConvCanonical),
                "{model} must ride conv canonically at n={n}"
            );
            // Conv plans are cost-optimal even when tie-breaks differ
            // from split: re-cost against the split reference.
            let direct = blitz_core::optimize_join_threshold_with(
                &spec,
                &SortMerge,
                ThresholdSchedule::default(),
                DriveOptions::serial().with_driver(DriverChoice::Split),
            )
            .unwrap();
            if model == ModelId::SortMerge {
                assert_eq!(resp.cost, direct.optimized.cost);
            }
        }
        let snap = service.snapshot();
        assert_eq!(snap.driver_conv, 3, "all three κ″ models must count as conv runs");
        assert_eq!(snap.driver_split, 0);
    }

    #[test]
    fn service_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<OptimizerService>();
        assert_send_sync::<Request>();
        assert_send_sync::<Response>();
        assert_send_sync::<MetricsSnapshot>();
    }

    #[test]
    fn try_optimize_rejects_out_of_range_selectivity() {
        // JoinSpec itself admits selectivities above 1 (the Appendix
        // workload generator uses them); the service boundary must not.
        let spec = JoinSpec::new(&[10.0, 20.0], &[(0, 1, 2.0)]).unwrap();
        let service = OptimizerService::new(ServiceConfig { workers: 1, ..Default::default() });
        let err = service.try_optimize(&Request::new(spec)).unwrap_err();
        assert!(matches!(err, RequestError::SelectivityOutOfRange { i: 0, j: 1, .. }));
        assert!(err.to_string().contains("outside (0, 1]"), "{err}");

        let ok = JoinSpec::new(&[10.0, 20.0], &[(0, 1, 0.5)]).unwrap();
        assert!(service.try_optimize(&Request::new(ok)).is_ok());
    }

    #[test]
    fn drive_options_keep_small_queries_serial() {
        let config = ServiceConfig { parallelism: 2, ..Default::default() };
        let serial = DriveOptions::serial()
            .with_layout(config.layout)
            .with_kernel(config.kernel)
            .with_driver(config.driver);
        for n in [2, 8, config.parallel_min_rels - 1] {
            assert_eq!(config.drive_options(n), serial, "n = {n}");
        }
        let n = config.parallel_min_rels;
        assert_eq!(config.drive_options(n), DriveOptions { parallelism: 2, ..serial });
        let one = ServiceConfig { parallelism: 1, ..config };
        assert_eq!(one.drive_options(n), serial);
    }

    #[test]
    fn large_requests_take_the_parallel_exact_path() {
        // 16 relations ≥ parallel_min_rels: must still answer exactly
        // (not greedily) and agree with the serial optimizer on cost
        // bit-for-bit. The service runs the convolution driver, whose
        // cost-equal plan may break ties differently from split — so the
        // plan itself is checked by re-costing, not by shape.
        let n = 16;
        let cards: Vec<f64> = (0..n).map(|i| 10.0 + i as f64).collect();
        let edges: Vec<(usize, usize, f64)> =
            (0..n - 1).map(|i| (i, i + 1, 0.01)).collect();
        let spec = JoinSpec::new(&cards, &edges).unwrap();
        let service = OptimizerService::new(ServiceConfig {
            workers: 1,
            parallelism: 2,
            ..Default::default()
        });
        assert!(service.config().drive_options(n).effective_parallelism() >= 2);
        let resp = service.optimize(&Request::new(spec.clone()));
        assert_eq!(resp.source, PlanSource::Exact);
        assert_eq!(resp.driver, Some(ExactDriver::Conv), "the service runs conv on κ₀");
        let direct = blitz_core::optimize_join_threshold_with(
            &spec,
            &Kappa0,
            ThresholdSchedule::default(),
            DriveOptions::serial().with_driver(DriverChoice::Split),
        )
        .unwrap();
        assert_eq!(resp.cost, direct.optimized.cost);
        let (_, recosted) = resp.plan.cost(&spec, &Kappa0);
        assert_eq!(recosted, direct.optimized.cost, "conv plan must be optimal too");

        // Pinning the driver to split restores plan-shape equality with
        // the serial reference.
        let split_req = Request { driver: Some(DriverChoice::Split), ..Request::new(spec) };
        let split_resp = service.optimize(&split_req);
        assert_eq!(split_resp.driver, Some(ExactDriver::Split));
        assert_eq!(split_resp.cache, CacheOutcome::Miss, "driver override is its own cache key");
        assert_eq!(split_resp.plan.canonical(), direct.optimized.plan.canonical());
    }

    #[test]
    fn table_pool_recycles_across_requests() {
        // Two *different* queries of the same shape (layout, n): the
        // first allocates the DP table, the second recycles it — and
        // the recycled run must still match the direct optimizer.
        let spec_a =
            JoinSpec::new(&[10.0, 20.0, 30.0], &[(0, 1, 0.1), (1, 2, 0.2)]).unwrap();
        let spec_b = JoinSpec::new(&[5.0, 6.0, 7.0], &[(0, 1, 0.5), (1, 2, 0.5)]).unwrap();
        let service = OptimizerService::new(ServiceConfig { workers: 1, ..Default::default() });
        let r1 = service.optimize(&Request::new(spec_a));
        let r2 = service.optimize(&Request::new(spec_b.clone()));
        assert_eq!(r1.source, PlanSource::Exact);
        assert_eq!(r2.source, PlanSource::Exact);
        let direct = blitz_core::optimize_join(&spec_b, &Kappa0).unwrap();
        assert_eq!(r2.cost, direct.cost);
        assert_eq!(r2.plan.canonical(), direct.plan.canonical());
        let snap = service.snapshot();
        assert_eq!(snap.table_pool_misses, 1);
        assert_eq!(snap.table_pool_hits, 1);
    }

    /// Over-limit requests with a configured ladder are *served* (with
    /// provenance and a gap) instead of silently degraded to greedy —
    /// and the ladder's plan is never costlier than that greedy seed.
    #[test]
    fn over_limit_requests_ride_the_ladder_when_configured() {
        let n = 24; // over every default max_exact_rels, within MAX_RELS
        let cards: Vec<f64> = (0..n).map(|i| 10.0 + i as f64).collect();
        let edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 0.01)).collect();
        let spec = JoinSpec::new(&cards, &edges).unwrap();
        let service = OptimizerService::new(ServiceConfig {
            workers: 1,
            ladder: Some(LadderSettings {
                refine_steps: 2_000,
                budget: None, // deterministic: work budgets only
                ..LadderSettings::default()
            }),
            ..Default::default()
        });
        let resp = service.optimize(&Request::new(spec.clone()));
        assert!(matches!(resp.source, PlanSource::Ladder(_)), "{:?}", resp.source);
        assert_eq!(resp.cache, CacheOutcome::Bypass);
        let info = resp.ladder.expect("ladder response must carry LadderInfo");
        assert_eq!(info.gap_basis, GapBasis::Greedy);
        assert!(resp.cost <= info.greedy_cost, "{} > {}", resp.cost, info.greedy_cost);
        assert!(info.gap <= 0.0, "greedy-basis gap must be ≤ 0, got {}", info.gap);
        assert!(info.rung_reached >= info.rung);
        let (greedy_plan, greedy_cost, _) = Query::greedy_small(&spec, ModelId::Kappa0);
        assert_eq!(info.greedy_cost, greedy_cost);
        assert!(resp.cost <= greedy_cost, "ladder worse than goo on {greedy_plan:?}");
        let snap = service.snapshot();
        assert_eq!(snap.ladder_runs, 1);
        assert_eq!(snap.fallback_over_limit, 0, "a ladder run is not a greedy fallback");
        assert_eq!(snap.cache_bypass, 1);
    }

    /// `optimize_big` spans the whole size range: small specs delegate
    /// to the cached exact path, big ones (n > MAX_RELS) run the ladder.
    #[test]
    fn optimize_big_serves_every_size() {
        let service = OptimizerService::new(ServiceConfig {
            workers: 1,
            ladder: Some(LadderSettings {
                refine_steps: 1_000,
                budget: None,
                ..LadderSettings::default()
            }),
            ..Default::default()
        });

        // Small: delegates to the exact path, cache and all.
        let small = BigSpec::new(&[10.0, 20.0, 30.0], &[(0, 1, 0.1), (1, 2, 0.2)]).unwrap();
        let resp = service.optimize_big(&BigRequest::new(small));
        assert_eq!(resp.source, PlanSource::Exact);
        assert_eq!(resp.cache, CacheOutcome::Miss);
        assert!(resp.ladder.is_none());

        // Big: 40 relations cannot fit a JoinSpec at all.
        let n = 40;
        let cards: Vec<f64> = (0..n).map(|i| 5.0 + i as f64).collect();
        let edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 0.05)).collect();
        let big = BigSpec::new(&cards, &edges).unwrap();
        let resp = service.optimize_big(&BigRequest::new(big));
        assert!(matches!(resp.source, PlanSource::Ladder(_)), "{:?}", resp.source);
        let info = resp.ladder.expect("big ladder response must carry LadderInfo");
        assert!(resp.cost <= info.greedy_cost);
        assert!(resp.cost.is_finite() && resp.card.is_finite());
    }

    /// Without a ladder, big requests keep the flagged-greedy contract.
    #[test]
    fn optimize_big_degrades_greedily_without_ladder() {
        let n = 40;
        let cards: Vec<f64> = (0..n).map(|i| 5.0 + i as f64).collect();
        let edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 0.05)).collect();
        let big = BigSpec::new(&cards, &edges).unwrap();
        let service = OptimizerService::new(ServiceConfig { workers: 1, ..Default::default() });
        let resp = service.optimize_big(&BigRequest::new(big));
        assert_eq!(resp.source, PlanSource::Greedy(FallbackReason::OverLimit));
        assert_eq!(resp.cache, CacheOutcome::Bypass);
        assert!(resp.ladder.is_none());
        assert_eq!(service.snapshot().fallback_over_limit, 1);
    }

    /// Each fallback reason, triggered once, moves its own counter and
    /// no other — the counters mean what their names say.
    #[test]
    fn each_fallback_reason_moves_only_its_own_counter() {
        fn fallbacks(s: &MetricsSnapshot) -> [u64; 5] {
            [
                s.fallback_over_limit,
                s.fallback_queue_full,
                s.fallback_deadline,
                s.fallback_abandoned,
                s.fallback_over_budget,
            ]
        }
        fn check(service: &OptimizerService, own: usize, trigger: impl FnOnce() -> Response) {
            let before = fallbacks(&service.snapshot());
            let reason = trigger().source;
            let after = fallbacks(&service.snapshot());
            for (i, (b, a)) in before.iter().zip(after).enumerate() {
                assert_eq!(a - b, u64::from(i == own), "{reason:?} moved counter {i}");
            }
        }
        let chain = |n: usize| {
            let cards: Vec<f64> = (0..n).map(|i| 10.0 + i as f64).collect();
            let edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 0.5)).collect();
            JoinSpec::new(&cards, &edges).unwrap()
        };
        let heavy = blitz_catalog::Workload::new(14, blitz_catalog::Topology::Clique, 100.0, 0.5)
            .spec();
        let service = OptimizerService::new(ServiceConfig {
            workers: 1,
            max_exact_rels: 14,
            ..Default::default()
        });

        // Cold (no work rate yet): admitted, then the deadline expires.
        check(&service, 2, || {
            let deadline = Some(Duration::from_millis(1));
            let resp = service.optimize(&Request { deadline, ..Request::new(heavy.clone()) });
            assert_eq!(resp.source, PlanSource::Greedy(FallbackReason::DeadlineExceeded));
            resp
        });
        check(&service, 0, || service.optimize(&Request::new(chain(15))));
        // Abandoned: the job this request waits on is dropped unresolved.
        check(&service, 3, || {
            let req = Request::new(chain(5));
            let canon = CanonicalQuery::new(&req.spec, "k0", None);
            let Lookup::Reserved(reservation) = service.cache.lookup_or_reserve(canon.fingerprint())
            else {
                panic!("fresh key must reserve");
            };
            let slot = reservation.slot();
            drop(reservation);
            let (cache, start, plans) =
                (CacheOutcome::Shared, Instant::now(), Arc::clone(&service.cache));
            service.finish(Pending { req, canon, slot, cache, start, plans })
        });
        // A finished job gives the service its work rate; then a zero
        // deadline is over budget.
        assert_eq!(service.optimize(&Request::new(chain(6))).source, PlanSource::Exact);
        check(&service, 4, || {
            service.optimize(&Request { deadline: Some(Duration::ZERO), ..Request::new(heavy) })
        });
        let full = OptimizerService::new(ServiceConfig {
            workers: 1,
            queue_capacity: 0,
            ..Default::default()
        });
        check(&full, 1, || full.optimize(&Request::new(chain(5))));
        assert_eq!(
            (service.snapshot().exact_cancelled, service.snapshot().fallback_queue_full),
            (1, 0),
            "the deadline request's orphaned job is cancelled, not counted as queue-full"
        );
    }

    #[test]
    fn basic_optimize_matches_direct_call() {
        let spec =
            JoinSpec::new(&[10.0, 20.0, 30.0, 40.0], &[(0, 1, 0.1), (1, 2, 0.2), (2, 3, 0.05)])
                .unwrap();
        let service = OptimizerService::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let resp = service.optimize(&Request::new(spec.clone()));
        assert_eq!(resp.source, PlanSource::Exact);
        assert_eq!(resp.cache, CacheOutcome::Miss);
        let direct = blitz_core::optimize_join(&spec, &Kappa0).unwrap();
        assert_eq!(resp.cost, direct.cost);
        // Second identical request hits.
        let again = service.optimize(&Request::new(spec));
        assert_eq!(again.cache, CacheOutcome::Hit);
        assert_eq!(again.cost, direct.cost);
        let snap = service.snapshot();
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.optimizations, 1);
    }
}
