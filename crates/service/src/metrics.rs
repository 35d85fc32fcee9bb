//! Service metrics: atomic counters plus log₂-bucketed latency
//! histograms, with a coherent-enough [`MetricsSnapshot`] for reporting,
//! and the measured DP work rate deadline admission prices requests by.
//!
//! Counters are plain relaxed `AtomicU64`s — every event is a single
//! `fetch_add`, so counting never takes a lock. The one lock guards the
//! admission work rate's two sums; it is taken once per completed exact
//! job and once per deadline request. A snapshot reads each
//! counter independently; under concurrent load the values may be split
//! across an instant (e.g. a request counted whose cache outcome is not
//! yet), which is the standard trade for lock-freedom and is harmless
//! for monitoring.

use crate::sync;
use blitz_core::Counters;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Duration;

/// Number of log₂ latency buckets: bucket `i` holds samples in
/// `[2^(i−1), 2^i)` microseconds (bucket 0 is `< 1 µs`).
pub const LATENCY_BUCKETS: usize = 40;

/// A log₂-bucketed latency histogram over microseconds.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    total_micros: AtomicU64,
    count: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            total_micros: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Record one sample.
    pub fn record(&self, d: Duration) {
        let micros = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let idx = if micros == 0 {
            0
        } else {
            ((64 - micros.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
        };
        self.buckets[idx].fetch_add(1, Relaxed);
        self.total_micros.fetch_add(micros, Relaxed);
        self.count.fetch_add(1, Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        HistogramSnapshot {
            count: self.count.load(Relaxed),
            total_micros: self.total_micros.load(Relaxed),
            buckets,
        }
    }
}

/// Point-in-time copy of a [`LatencyHistogram`].
#[derive(Clone, Debug, Default)]
pub struct HistogramSnapshot {
    /// Total number of samples.
    pub count: u64,
    /// Sum of all samples in microseconds.
    pub total_micros: u64,
    /// Per-bucket sample counts (log₂ microsecond buckets).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean sample in microseconds (0 when empty).
    pub fn mean_micros(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_micros as f64 / self.count as f64
        }
    }

    /// Upper bound (in µs) of the bucket containing the `q`-quantile
    /// sample, `q ∈ [0, 1]`. A log₂ bucket bound is within 2× of the
    /// true quantile — plenty for dashboards.
    pub fn quantile_upper_micros(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == 0 { 1 } else { 1u64 << i };
            }
        }
        1u64 << (self.buckets.len() - 1)
    }
}

/// The service-wide metrics registry. All methods are `&self` and
/// thread-safe; share it behind an `Arc`.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests accepted by [`crate::OptimizerService::optimize`].
    pub requests: AtomicU64,
    /// Cache lookups answered by a completed entry.
    pub cache_hits: AtomicU64,
    /// Lookups that reserved the entry and ran the optimization.
    pub cache_misses: AtomicU64,
    /// Lookups that joined an in-flight optimization (single-flight).
    pub cache_shared: AtomicU64,
    /// Requests that skipped the cache entirely (admission fallback).
    pub cache_bypass: AtomicU64,
    /// Exact (DP) optimizations actually executed.
    pub optimizations: AtomicU64,
    /// Greedy fallbacks because `n` exceeded the admission limit.
    pub fallback_over_limit: AtomicU64,
    /// Greedy fallbacks because the worker queue was full.
    pub fallback_queue_full: AtomicU64,
    /// Greedy fallbacks because the request deadline expired first.
    pub fallback_deadline: AtomicU64,
    /// Greedy fallbacks because the in-flight optimization a request
    /// waited on was discarded without a result.
    pub fallback_abandoned: AtomicU64,
    /// Greedy fallbacks because the exact DP's estimated time exceeded
    /// the time left before the request's deadline (no DP was started).
    pub fallback_over_budget: AtomicU64,
    /// Exact jobs cancelled because every requester had left: skipped
    /// before taking a table, or stopped mid-DP.
    pub exact_cancelled: AtomicU64,
    /// Threshold passes summed over all exact optimizations (> count ⇒
    /// re-optimization happened).
    pub threshold_passes: AtomicU64,
    /// Split-loop iterations summed over all exact optimizations.
    pub split_loop_iters: AtomicU64,
    /// Pairs of live rows tested by live-pair waves (the enumeration a
    /// capped conv fill runs on a wave with few surviving rows), summed
    /// over all exact optimizations. They stand in for the split-loop
    /// iterations those waves did not run.
    pub pair_checks: AtomicU64,
    /// Subsets whose split loop was skipped by overflow/threshold
    /// pruning, summed over all exact optimizations.
    pub subsets_pruned: AtomicU64,
    /// Exact optimizations served by a recycled DP table from the
    /// [`crate::TablePool`].
    pub table_pool_hits: AtomicU64,
    /// Exact optimizations that had to allocate a fresh DP table.
    pub table_pool_misses: AtomicU64,
    /// Exact optimizations run by the layered-convolution driver.
    pub driver_conv: AtomicU64,
    /// Exact optimizations run by the subset-split driver (including
    /// conv requests that fell back on an unsupported cost model).
    pub driver_split: AtomicU64,
    /// Over-limit requests answered by the anytime ladder (instead of
    /// the bare greedy fallback).
    pub ladder_runs: AtomicU64,
    /// Ladder runs whose winning plan came from rung 0 (greedy seed).
    pub ladder_rung_greedy: AtomicU64,
    /// Ladder runs whose winning plan came from rung 1 (exact DP).
    pub ladder_rung_exact: AtomicU64,
    /// Ladder runs whose winning plan came from rung 2 (block DP).
    pub ladder_rung_hybrid_dp: AtomicU64,
    /// Ladder runs whose winning plan came from rung 3 (stochastic).
    pub ladder_rung_stochastic: AtomicU64,
    /// Rung-3 move proposals summed over all ladder runs.
    pub ladder_refine_steps: AtomicU64,
    /// Rung-2 block sub-problems solved exactly, summed over all
    /// ladder runs.
    pub ladder_dp_blocks: AtomicU64,
    /// Connections the frontend accepted and began serving.
    pub connections_accepted: AtomicU64,
    /// Connections refused at the capacity cap (answered `ERR server at
    /// connection capacity`, best effort, and closed).
    pub connections_refused: AtomicU64,
    /// Transient accept-path errors (EMFILE/ENFILE/ECONNABORTED/…)
    /// absorbed by the frontend instead of killing the listener.
    pub accept_transient_errors: AtomicU64,
    /// Gauge: connections currently being served (accepted minus
    /// closed).
    pub live_connections: AtomicU64,
    /// Request batches the event loop handled: one batch is the lines of
    /// one connection handled in one loop turn.
    pub frontend_batches: AtomicU64,
    /// Protocol lines carried by those batches. `frontend_batch_lines /
    /// frontend_batches` is how many lines a pipelining client gets
    /// handled per loop turn.
    pub frontend_batch_lines: AtomicU64,
    /// Latency of the ladder run itself (budget actually spent).
    pub ladder_latency: LatencyHistogram,
    /// Latency of the exact optimization itself.
    pub optimize_latency: LatencyHistogram,
    /// End-to-end request latency (including queueing and cache waits).
    pub request_latency: LatencyHistogram,
    /// How long pool jobs (exact DPs, ladder runs, over-limit greedy)
    /// waited in the worker queue: submit → job start, recorded by the
    /// job.
    pub queue_wait: LatencyHistogram,
    /// The measured DP work rate behind deadline admission.
    work_rate: Mutex<WorkRate>,
}

/// Exponentially decayed sums of completed exact jobs' CPU time and
/// executed split-loop iterations. Their ratio is a cost per iteration
/// in which large jobs dominate and small jobs' fixed per-job cost
/// washes out.
#[derive(Debug, Default)]
struct WorkRate {
    cpu_ns: f64,
    loop_iters: f64,
}

/// Weight the work-rate sums keep per completed job: a job's influence
/// halves about every 7 jobs, so the rate follows the host's load.
const WORK_RATE_DECAY: f64 = 0.9;

impl Metrics {
    /// Fold one exact optimization's instrumentation into the registry.
    /// `threads` is the wave threads it ran on; with `elapsed` and the
    /// split-loop iterations it executed (`counters.loop_iters`) it
    /// feeds the work rate ([`Metrics::ns_per_loop_iter`]).
    pub fn record_optimization(
        &self,
        counters: &Counters,
        passes: u32,
        elapsed: Duration,
        threads: usize,
    ) {
        self.optimizations.fetch_add(1, Relaxed);
        self.threshold_passes.fetch_add(passes as u64, Relaxed);
        self.split_loop_iters.fetch_add(counters.loop_iters, Relaxed);
        self.pair_checks.fetch_add(counters.pair_checks, Relaxed);
        self.subsets_pruned.fetch_add(counters.loops_skipped, Relaxed);
        self.optimize_latency.record(elapsed);
        let mut rate = sync::lock(&self.work_rate);
        rate.cpu_ns = rate.cpu_ns * WORK_RATE_DECAY + elapsed.as_nanos() as f64 * threads as f64;
        rate.loop_iters = rate.loop_iters * WORK_RATE_DECAY + counters.loop_iters as f64;
    }

    /// Measured CPU nanoseconds per *executed* split-loop iteration over
    /// recent exact jobs (wave threads × wall time, per iteration);
    /// `None` until a job that iterated has completed.
    ///
    /// On an unpruned pass the iterations equal the driver's closed-form
    /// candidate count, which deadline admission prices every request
    /// at. A capped pass runs fewer iterations but still pays for the
    /// rows it prunes, so a pruned job can only raise this rate: the
    /// price stays an upper bound on an unpruned DP. The same holds for
    /// live-pair waves: their pair checks are not iterations, so a job
    /// that paired pays for them in time alone.
    pub fn ns_per_loop_iter(&self) -> Option<f64> {
        let rate = sync::lock(&self.work_rate);
        (rate.loop_iters > 0.0).then(|| rate.cpu_ns / rate.loop_iters)
    }

    /// Fold one anytime-ladder run into the registry. `rung` is the
    /// winning rung's index (0–3, see `blitz_ladder::Rung::index`).
    pub fn record_ladder(&self, rung: u8, refine_steps: u64, dp_blocks: u64, elapsed: Duration) {
        self.ladder_runs.fetch_add(1, Relaxed);
        let winner = match rung {
            0 => &self.ladder_rung_greedy,
            1 => &self.ladder_rung_exact,
            2 => &self.ladder_rung_hybrid_dp,
            _ => &self.ladder_rung_stochastic,
        };
        winner.fetch_add(1, Relaxed);
        self.ladder_refine_steps.fetch_add(refine_steps, Relaxed);
        self.ladder_dp_blocks.fetch_add(dp_blocks, Relaxed);
        self.ladder_latency.record(elapsed);
    }

    /// Point-in-time copy of every counter. `queue_depth` and
    /// `cached_plans` are gauges owned by the pool/cache; the service
    /// fills them in.
    pub fn snapshot(&self, queue_depth: usize, cached_plans: usize) -> MetricsSnapshot {
        MetricsSnapshot {
            requests: self.requests.load(Relaxed),
            cache_hits: self.cache_hits.load(Relaxed),
            cache_misses: self.cache_misses.load(Relaxed),
            cache_shared: self.cache_shared.load(Relaxed),
            cache_bypass: self.cache_bypass.load(Relaxed),
            optimizations: self.optimizations.load(Relaxed),
            fallback_over_limit: self.fallback_over_limit.load(Relaxed),
            fallback_queue_full: self.fallback_queue_full.load(Relaxed),
            fallback_deadline: self.fallback_deadline.load(Relaxed),
            fallback_abandoned: self.fallback_abandoned.load(Relaxed),
            fallback_over_budget: self.fallback_over_budget.load(Relaxed),
            exact_cancelled: self.exact_cancelled.load(Relaxed),
            threshold_passes: self.threshold_passes.load(Relaxed),
            split_loop_iters: self.split_loop_iters.load(Relaxed),
            pair_checks: self.pair_checks.load(Relaxed),
            subsets_pruned: self.subsets_pruned.load(Relaxed),
            table_pool_hits: self.table_pool_hits.load(Relaxed),
            table_pool_misses: self.table_pool_misses.load(Relaxed),
            driver_conv: self.driver_conv.load(Relaxed),
            driver_split: self.driver_split.load(Relaxed),
            ladder_runs: self.ladder_runs.load(Relaxed),
            ladder_rung_greedy: self.ladder_rung_greedy.load(Relaxed),
            ladder_rung_exact: self.ladder_rung_exact.load(Relaxed),
            ladder_rung_hybrid_dp: self.ladder_rung_hybrid_dp.load(Relaxed),
            ladder_rung_stochastic: self.ladder_rung_stochastic.load(Relaxed),
            ladder_refine_steps: self.ladder_refine_steps.load(Relaxed),
            ladder_dp_blocks: self.ladder_dp_blocks.load(Relaxed),
            connections_accepted: self.connections_accepted.load(Relaxed),
            connections_refused: self.connections_refused.load(Relaxed),
            accept_transient_errors: self.accept_transient_errors.load(Relaxed),
            live_connections: self.live_connections.load(Relaxed),
            frontend_batches: self.frontend_batches.load(Relaxed),
            frontend_batch_lines: self.frontend_batch_lines.load(Relaxed),
            pool_steals: 0,
            queue_depth: queue_depth as u64,
            cached_plans: cached_plans as u64,
            ladder_latency: self.ladder_latency.snapshot(),
            optimize_latency: self.optimize_latency.snapshot(),
            request_latency: self.request_latency.snapshot(),
            queue_wait: self.queue_wait.snapshot(),
        }
    }
}

/// Point-in-time copy of the full metrics registry.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// See [`Metrics::requests`].
    pub requests: u64,
    /// See [`Metrics::cache_hits`].
    pub cache_hits: u64,
    /// See [`Metrics::cache_misses`].
    pub cache_misses: u64,
    /// See [`Metrics::cache_shared`].
    pub cache_shared: u64,
    /// See [`Metrics::cache_bypass`].
    pub cache_bypass: u64,
    /// See [`Metrics::optimizations`].
    pub optimizations: u64,
    /// See [`Metrics::fallback_over_limit`].
    pub fallback_over_limit: u64,
    /// See [`Metrics::fallback_queue_full`].
    pub fallback_queue_full: u64,
    /// See [`Metrics::fallback_deadline`].
    pub fallback_deadline: u64,
    /// See [`Metrics::fallback_abandoned`].
    pub fallback_abandoned: u64,
    /// See [`Metrics::fallback_over_budget`].
    pub fallback_over_budget: u64,
    /// See [`Metrics::exact_cancelled`].
    pub exact_cancelled: u64,
    /// See [`Metrics::threshold_passes`].
    pub threshold_passes: u64,
    /// See [`Metrics::split_loop_iters`].
    pub split_loop_iters: u64,
    /// See [`Metrics::pair_checks`].
    pub pair_checks: u64,
    /// See [`Metrics::subsets_pruned`].
    pub subsets_pruned: u64,
    /// See [`Metrics::table_pool_hits`].
    pub table_pool_hits: u64,
    /// See [`Metrics::table_pool_misses`].
    pub table_pool_misses: u64,
    /// See [`Metrics::driver_conv`].
    pub driver_conv: u64,
    /// See [`Metrics::driver_split`].
    pub driver_split: u64,
    /// See [`Metrics::ladder_runs`].
    pub ladder_runs: u64,
    /// See [`Metrics::ladder_rung_greedy`].
    pub ladder_rung_greedy: u64,
    /// See [`Metrics::ladder_rung_exact`].
    pub ladder_rung_exact: u64,
    /// See [`Metrics::ladder_rung_hybrid_dp`].
    pub ladder_rung_hybrid_dp: u64,
    /// See [`Metrics::ladder_rung_stochastic`].
    pub ladder_rung_stochastic: u64,
    /// See [`Metrics::ladder_refine_steps`].
    pub ladder_refine_steps: u64,
    /// See [`Metrics::ladder_dp_blocks`].
    pub ladder_dp_blocks: u64,
    /// See [`Metrics::connections_accepted`].
    pub connections_accepted: u64,
    /// See [`Metrics::connections_refused`].
    pub connections_refused: u64,
    /// See [`Metrics::accept_transient_errors`].
    pub accept_transient_errors: u64,
    /// See [`Metrics::live_connections`] (gauge at snapshot time).
    pub live_connections: u64,
    /// See [`Metrics::frontend_batches`].
    pub frontend_batches: u64,
    /// See [`Metrics::frontend_batch_lines`].
    pub frontend_batch_lines: u64,
    /// Jobs a worker took from another worker's queue. The pool has one
    /// shared queue, so this reads 0; the key stays on the `METRICS`
    /// line for the consumers that read it.
    pub pool_steals: u64,
    /// Jobs waiting in the worker queue at snapshot time.
    pub queue_depth: u64,
    /// Completed plans resident in the cache at snapshot time.
    pub cached_plans: u64,
    /// See [`Metrics::ladder_latency`].
    pub ladder_latency: HistogramSnapshot,
    /// See [`Metrics::optimize_latency`].
    pub optimize_latency: HistogramSnapshot,
    /// See [`Metrics::request_latency`].
    pub request_latency: HistogramSnapshot,
    /// See [`Metrics::queue_wait`].
    pub queue_wait: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// `key=value` pairs on one line, for the TCP `METRICS` verb.
    pub fn to_line(&self) -> String {
        format!(
            "requests={} cache_hits={} cache_misses={} cache_shared={} cache_bypass={} \
             optimizations={} fallback_over_limit={} fallback_queue_full={} \
             fallback_deadline={} fallback_abandoned={} fallback_over_budget={} \
             exact_cancelled={} threshold_passes={} split_loop_iters={} pair_checks={} \
             subsets_pruned={} table_pool_hits={} table_pool_misses={} \
             driver_conv={} driver_split={} \
             ladder_runs={} ladder_rung_greedy={} ladder_rung_exact={} \
             ladder_rung_hybrid_dp={} ladder_rung_stochastic={} \
             ladder_refine_steps={} ladder_dp_blocks={} \
             connections_accepted={} connections_refused={} accept_transient_errors={} \
             live_connections={} frontend_batches={} frontend_batch_lines={} \
             pool_steals={} queue_depth={} cached_plans={} \
             queue_wait_p50_us={} queue_wait_p99_us={} \
             ladder_p99_us={} optimize_p50_us={} optimize_p99_us={} request_mean_us={:.0}",
            self.requests,
            self.cache_hits,
            self.cache_misses,
            self.cache_shared,
            self.cache_bypass,
            self.optimizations,
            self.fallback_over_limit,
            self.fallback_queue_full,
            self.fallback_deadline,
            self.fallback_abandoned,
            self.fallback_over_budget,
            self.exact_cancelled,
            self.threshold_passes,
            self.split_loop_iters,
            self.pair_checks,
            self.subsets_pruned,
            self.table_pool_hits,
            self.table_pool_misses,
            self.driver_conv,
            self.driver_split,
            self.ladder_runs,
            self.ladder_rung_greedy,
            self.ladder_rung_exact,
            self.ladder_rung_hybrid_dp,
            self.ladder_rung_stochastic,
            self.ladder_refine_steps,
            self.ladder_dp_blocks,
            self.connections_accepted,
            self.connections_refused,
            self.accept_transient_errors,
            self.live_connections,
            self.frontend_batches,
            self.frontend_batch_lines,
            self.pool_steals,
            self.queue_depth,
            self.cached_plans,
            self.queue_wait.quantile_upper_micros(0.5),
            self.queue_wait.quantile_upper_micros(0.99),
            self.ladder_latency.quantile_upper_micros(0.99),
            self.optimize_latency.quantile_upper_micros(0.5),
            self.optimize_latency.quantile_upper_micros(0.99),
            self.request_latency.mean_micros(),
        )
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "requests:            {}", self.requests)?;
        writeln!(
            f,
            "cache:               {} hit / {} miss / {} shared / {} bypass ({} resident)",
            self.cache_hits, self.cache_misses, self.cache_shared, self.cache_bypass,
            self.cached_plans
        )?;
        writeln!(
            f,
            "exact optimizations: {} ({} cancelled)",
            self.optimizations, self.exact_cancelled
        )?;
        writeln!(
            f,
            "greedy fallbacks:    {} over-limit / {} over-budget / {} queue-full / {} deadline \
             / {} abandoned",
            self.fallback_over_limit,
            self.fallback_over_budget,
            self.fallback_queue_full,
            self.fallback_deadline,
            self.fallback_abandoned
        )?;
        writeln!(f, "threshold passes:    {}", self.threshold_passes)?;
        writeln!(f, "split-loop iters:    {}", self.split_loop_iters)?;
        writeln!(f, "live-pair checks:    {}", self.pair_checks)?;
        writeln!(f, "subsets pruned:      {}", self.subsets_pruned)?;
        writeln!(
            f,
            "table pool:          {} hit / {} miss",
            self.table_pool_hits, self.table_pool_misses
        )?;
        writeln!(
            f,
            "exact drivers:       {} conv / {} split",
            self.driver_conv, self.driver_split
        )?;
        writeln!(
            f,
            "ladder runs:         {} (won by {} greedy / {} exact / {} hybrid-dp / {} stochastic)",
            self.ladder_runs,
            self.ladder_rung_greedy,
            self.ladder_rung_exact,
            self.ladder_rung_hybrid_dp,
            self.ladder_rung_stochastic
        )?;
        writeln!(
            f,
            "ladder budget:       {} refine steps, {} dp blocks, p99 ≤ {} µs",
            self.ladder_refine_steps,
            self.ladder_dp_blocks,
            self.ladder_latency.quantile_upper_micros(0.99)
        )?;
        writeln!(
            f,
            "connections:         {} accepted / {} refused / {} live ({} transient accept errors)",
            self.connections_accepted,
            self.connections_refused,
            self.live_connections,
            self.accept_transient_errors
        )?;
        writeln!(
            f,
            "frontend batches:    {} ({} lines)",
            self.frontend_batches, self.frontend_batch_lines
        )?;
        writeln!(f, "pool steals:         {}", self.pool_steals)?;
        writeln!(f, "queue depth:         {}", self.queue_depth)?;
        writeln!(
            f,
            "queue wait:          mean {:.0} µs, p50 ≤ {} µs, p99 ≤ {} µs",
            self.queue_wait.mean_micros(),
            self.queue_wait.quantile_upper_micros(0.5),
            self.queue_wait.quantile_upper_micros(0.99)
        )?;
        writeln!(
            f,
            "optimize latency:    mean {:.0} µs, p50 ≤ {} µs, p99 ≤ {} µs",
            self.optimize_latency.mean_micros(),
            self.optimize_latency.quantile_upper_micros(0.5),
            self.optimize_latency.quantile_upper_micros(0.99)
        )?;
        write!(
            f,
            "request latency:     mean {:.0} µs, p50 ≤ {} µs, p99 ≤ {} µs",
            self.request_latency.mean_micros(),
            self.request_latency.quantile_upper_micros(0.5),
            self.request_latency.quantile_upper_micros(0.99)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::default();
        for micros in [0u64, 1, 3, 900, 1_000_000] {
            h.record(Duration::from_micros(micros));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.total_micros, 1_000_904);
        // p100 bucket bound must cover the 1 s sample within 2×.
        let p100 = s.quantile_upper_micros(1.0);
        assert!((1_000_000..=2_097_152).contains(&p100), "{p100}");
        assert!(s.quantile_upper_micros(0.0) >= 1);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let s = LatencyHistogram::default().snapshot();
        assert_eq!(s.mean_micros(), 0.0);
        assert_eq!(s.quantile_upper_micros(0.99), 0);
    }

    #[test]
    fn record_optimization_accumulates() {
        let m = Metrics::default();
        let c = Counters { loop_iters: 100, loops_skipped: 7, ..Counters::default() };
        m.record_optimization(&c, 2, Duration::from_micros(50), 1);
        m.record_optimization(&c, 1, Duration::from_micros(70), 1);
        m.table_pool_hits.fetch_add(1, Relaxed);
        m.table_pool_misses.fetch_add(1, Relaxed);
        m.driver_conv.fetch_add(1, Relaxed);
        m.driver_split.fetch_add(2, Relaxed);
        let s = m.snapshot(3, 9);
        assert_eq!(s.table_pool_hits, 1);
        assert_eq!(s.table_pool_misses, 1);
        assert_eq!(s.driver_conv, 1);
        assert_eq!(s.driver_split, 2);
        assert!(s.to_line().contains("table_pool_hits=1"));
        assert!(s.to_line().contains("driver_conv=1 driver_split=2"));
        assert!(format!("{s}").contains("table pool:          1 hit / 1 miss"));
        assert!(format!("{s}").contains("exact drivers:       1 conv / 2 split"));
        assert_eq!(s.optimizations, 2);
        assert_eq!(s.threshold_passes, 3);
        assert_eq!(s.split_loop_iters, 200);
        assert_eq!(s.subsets_pruned, 14);
        assert_eq!(s.queue_depth, 3);
        assert_eq!(s.cached_plans, 9);
        assert_eq!(s.optimize_latency.count, 2);
        assert!(s.to_line().contains("optimizations=2"));
        assert!(format!("{s}").contains("exact optimizations: 2"));
    }

    /// The work rate is a ratio of decayed sums: a big job's
    /// per-iteration cost outweighs many small jobs' fixed overheads,
    /// and wave threads multiply wall time into CPU time.
    #[test]
    fn work_rate_is_weighted_by_job_size() {
        let m = Metrics::default();
        assert_eq!(m.ns_per_loop_iter(), None, "cold start: no rate yet");
        let iters = |loop_iters| Counters { loop_iters, ..Counters::default() };
        // 1M iterations in 1 ms on 2 threads: 2 ns per iteration.
        m.record_optimization(&iters(1_000_000), 1, Duration::from_millis(1), 2);
        assert_eq!(m.ns_per_loop_iter(), Some(2.0));
        // Ten tiny jobs at 100 ns per iteration barely move it.
        for _ in 0..10 {
            m.record_optimization(&iters(50), 1, Duration::from_micros(5), 1);
        }
        let rate = m.ns_per_loop_iter().unwrap();
        assert!((2.0..2.2).contains(&rate), "{rate}");
    }

    /// A capped pass that prunes most rows runs far fewer iterations
    /// than the closed form but still pays for every row. Charged per
    /// executed iteration, such a job raises the price of an unpruned
    /// request and never lowers it — where a rate per closed-form
    /// candidate would have fallen and admitted DPs that miss their
    /// deadline.
    #[test]
    fn pruned_jobs_never_lower_the_unpruned_price() {
        let n = 14;
        let candidates = Counters::conv_candidates(n);
        let rows = (1u64 << n) as f64;
        // A job's time: 40 ns per row plus 2 ns per iteration it ran.
        let job = |loop_iters: f64| {
            let c = Counters { loop_iters: loop_iters as u64, ..Counters::default() };
            let ns = 40.0 * rows + 2.0 * loop_iters;
            (c, Duration::from_nanos(ns as u64))
        };
        let m = Metrics::default();
        let (unpruned, took) = job(candidates);
        m.record_optimization(&unpruned, 1, took, 1);
        let mut price = candidates * m.ns_per_loop_iter().unwrap();
        for share in [0.5, 0.1, 0.01, 0.001] {
            let (pruned, took) = job(candidates * share);
            m.record_optimization(&pruned, 1, took, 1);
            let next = candidates * m.ns_per_loop_iter().unwrap();
            assert!(next >= price, "a job at {share} of the closed form lowered the price");
            price = next;
        }
        // The pruned jobs raised the unpruned request's price above its
        // true time.
        let (_, took) = job(candidates);
        assert!(price > took.as_nanos() as f64, "{price} ns vs {took:?}");
    }

    /// Pair checks reach the wire line and the summary but stay out of
    /// the work rate's denominator: a job whose waves paired ran fewer
    /// walk candidates for its time, so it raises the rate per executed
    /// candidate and never lowers the closed-form price.
    #[test]
    fn pair_checks_stay_out_of_the_work_rate() {
        let m = Metrics::default();
        let walked = Counters { loop_iters: 1_000_000, ..Counters::default() };
        m.record_optimization(&walked, 1, Duration::from_millis(2), 1);
        let walk_rate = m.ns_per_loop_iter().unwrap();
        // As long, with most candidates replaced by many more pair checks.
        let paired = Counters { loop_iters: 100_000, pair_checks: 4_000_000, ..Counters::default() };
        m.record_optimization(&paired, 1, Duration::from_millis(2), 1);
        let rate = m.ns_per_loop_iter().unwrap();
        assert!(rate > walk_rate, "a paired job lowered the rate: {rate} vs {walk_rate}");
        let s = m.snapshot(0, 0);
        assert_eq!((s.split_loop_iters, s.pair_checks), (1_100_000, 4_000_000));
        let line = s.to_line();
        assert!(line.contains("split_loop_iters=1100000 pair_checks=4000000 subsets_pruned=0"), "{line}");
        assert!(format!("{s}").contains("live-pair checks:    4000000"));
    }

    #[test]
    fn frontend_counters_reach_the_wire_line() {
        let m = Metrics::default();
        m.connections_accepted.fetch_add(5, Relaxed);
        m.connections_refused.fetch_add(2, Relaxed);
        m.accept_transient_errors.fetch_add(3, Relaxed);
        m.live_connections.fetch_add(4, Relaxed);
        m.frontend_batches.fetch_add(6, Relaxed);
        m.frontend_batch_lines.fetch_add(9, Relaxed);
        m.queue_wait.record(Duration::from_micros(300));
        m.queue_wait.record(Duration::from_micros(3000));
        let mut s = m.snapshot(0, 0);
        s.pool_steals = 7;
        let line = s.to_line();
        for field in [
            "connections_accepted=5",
            "connections_refused=2",
            "accept_transient_errors=3",
            "live_connections=4",
            "frontend_batches=6",
            "frontend_batch_lines=9",
            "pool_steals=7",
            "queue_wait_p50_us=512",
            "queue_wait_p99_us=4096",
        ] {
            assert!(line.contains(field), "{field} missing from {line}");
        }
        assert!(line.starts_with("requests=0 "), "{line}");
        let pretty = format!("{s}");
        assert!(pretty.contains("5 accepted / 2 refused / 4 live"), "{pretty}");
        assert!(
            pretty.contains("queue wait:          mean 1650 µs, p50 ≤ 512 µs, p99 ≤ 4096 µs"),
            "{pretty}"
        );
    }
}
