//! Wall-clock timing with a per-point repetition budget.
//!
//! Follows the paper's footnote 4: each reported time is an average over
//! `k` executions, where `k` is chosen so the total measured time reaches
//! a budget. The paper used 30 s per point on 1996 hardware; the default
//! here is 50 ms (override with the `BLITZ_BENCH_MIN_MS` environment
//! variable) so the whole figure suite completes in minutes while still
//! averaging out scheduler noise on points that run in microseconds.

use std::time::{Duration, Instant};

/// Repetition budget for one timing point.
#[derive(Copy, Clone, Debug)]
pub struct TimingConfig {
    /// Minimum total measured time per point.
    pub min_total: Duration,
    /// Hard cap on repetitions (protects extremely fast points).
    pub max_reps: u32,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig { min_total: Duration::from_millis(50), max_reps: 100_000 }
    }
}

impl TimingConfig {
    /// Default budget, honouring `BLITZ_BENCH_MIN_MS` and
    /// `BLITZ_BENCH_MAX_REPS` when set. CI smoke runs set
    /// `BLITZ_BENCH_MIN_MS=0 BLITZ_BENCH_MAX_REPS=1` so every point
    /// executes exactly once.
    pub fn from_env() -> TimingConfig {
        let mut cfg = TimingConfig::default();
        if let Ok(ms) = std::env::var("BLITZ_BENCH_MIN_MS") {
            if let Ok(ms) = ms.parse::<u64>() {
                cfg.min_total = Duration::from_millis(ms);
            }
        }
        if let Ok(reps) = std::env::var("BLITZ_BENCH_MAX_REPS") {
            if let Ok(reps) = reps.parse::<u32>() {
                cfg.max_reps = reps.max(1);
            }
        }
        cfg
    }
}

/// Average wall-clock duration of `f`, repeating until the budget is
/// consumed. `f` runs at least once.
pub fn time_avg<F: FnMut()>(mut f: F, cfg: TimingConfig) -> Duration {
    let start = Instant::now();
    let mut reps = 0u32;
    loop {
        f();
        reps += 1;
        let elapsed = start.elapsed();
        if elapsed >= cfg.min_total || reps >= cfg.max_reps {
            return elapsed / reps;
        }
    }
}

/// Interleaved rounds per timing point for [`min_over_rounds`], from
/// `BLITZ_BENCH_ROUNDS` (default 5, at least 1).
pub fn rounds_from_env() -> usize {
    env_usize("BLITZ_BENCH_ROUNDS", 5).max(1)
}

/// Time `count` workloads in `rounds` interleaved rounds — each round
/// calls `time(i)` once per workload `i`, typically a [`time_avg`] over
/// the per-point budget — and return each workload's minimum round, in
/// seconds.
///
/// A small shared host swings by multiples on timescales of seconds
/// (CPU-credit throttling, noisy neighbours), so timing workload A start
/// to finish and then B confounds the comparison with whatever the host
/// did in each window. Interleaved, every workload samples the same
/// windows, and the minimum converges on the code's own cost.
pub fn min_over_rounds(
    count: usize,
    rounds: usize,
    mut time: impl FnMut(usize) -> Duration,
) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; count];
    for _ in 0..rounds {
        for (i, b) in best.iter_mut().enumerate() {
            *b = b.min(time(i).as_secs_f64());
        }
    }
    best
}

/// Parse an environment variable as `usize` with a default — used by the
/// figure binaries for `BLITZ_N`, grid resolutions, etc.
pub fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_over_repetitions() {
        let cfg = TimingConfig { min_total: Duration::from_millis(5), max_reps: 1_000_000 };
        let mut count = 0u64;
        let avg = time_avg(
            || {
                count += 1;
                std::hint::black_box((0..100).sum::<u64>());
            },
            cfg,
        );
        assert!(count > 1, "fast closures should repeat");
        assert!(avg > Duration::ZERO);
    }

    #[test]
    fn respects_max_reps() {
        let cfg = TimingConfig { min_total: Duration::from_secs(3600), max_reps: 3 };
        let mut count = 0;
        let _ = time_avg(|| count += 1, cfg);
        assert_eq!(count, 3);
    }

    /// Rounds visit every workload in turn, and each keeps its minimum.
    #[test]
    fn rounds_interleave_and_keep_each_minimum() {
        let mut calls = Vec::new();
        let best = min_over_rounds(2, 3, |i| {
            calls.push(i);
            Duration::from_millis([[5, 9], [3, 8], [4, 7]][calls.len().div_ceil(2) - 1][i])
        });
        assert_eq!(calls, [0, 1, 0, 1, 0, 1]);
        assert_eq!(best, [0.003, 0.007]);
    }

    #[test]
    fn env_usize_parses() {
        assert_eq!(env_usize("BLITZ_NONEXISTENT_VAR_12345", 7), 7);
    }
}
