//! Helpers for the Figure 4/5/6 measurement grids: run the join optimizer
//! at one `(cost model, workload)` point, with or without plan-cost
//! thresholds, under a dynamic model selector.

use crate::timing::{time_avg, TimingConfig};
use blitz_core::{
    optimize_join_into, optimize_join_threshold_with, AosTable, CostModel, Counters,
    DiskNestedLoops, DriveOptions, JoinSpec, Kappa0, NoStats, SortMerge, Stats, TableLayout,
    ThresholdOutcome, ThresholdSchedule,
};
use blitz_service::certified_schedule;
use std::time::Duration;

/// Dynamic selector over the paper's three cost models.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Model {
    /// Naive `κ0 = |R_out|`.
    K0,
    /// Sort-merge `κ_sm`.
    Sm,
    /// Disk nested loops `κ_dnl` (K = 10, M = 100).
    Dnl,
}

impl Model {
    /// The three models in the paper's row order.
    pub const ALL: [Model; 3] = [Model::K0, Model::Sm, Model::Dnl];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Model::K0 => "kappa_0",
            Model::Sm => "kappa_sm",
            Model::Dnl => "kappa_dnl",
        }
    }

    /// Run one optimization; returns the optimal cost (possibly `+∞`).
    pub fn optimize(self, spec: &JoinSpec, cap: f32) -> f32 {
        self.run(spec, cap, &mut NoStats)
    }

    /// Run one optimization collecting instrumentation counters.
    pub fn optimize_counted(self, spec: &JoinSpec, cap: f32) -> (f32, Counters) {
        let mut c = Counters::default();
        (self.run(spec, cap, &mut c), c)
    }

    /// One serial AoS optimization under `cap`, counted into `stats`;
    /// returns the full set's cost.
    fn run<St: Stats + Default + Send>(self, spec: &JoinSpec, cap: f32, stats: &mut St) -> f32 {
        fn go<M: CostModel + Sync, St: Stats + Default + Send>(
            spec: &JoinSpec,
            model: &M,
            cap: f32,
            stats: &mut St,
        ) -> f32 {
            let serial = DriveOptions::serial();
            let t: AosTable = optimize_join_into::<_, _, _, true>(spec, model, cap, serial, stats);
            t.cost(spec.all_rels())
        }
        match self {
            Model::K0 => go(spec, &Kappa0, cap, stats),
            Model::Sm => go(spec, &SortMerge, cap, stats),
            Model::Dnl => go(spec, &DiskNestedLoops::default(), cap, stats),
        }
    }

    /// Average optimization time at this point.
    pub fn time(self, spec: &JoinSpec, cap: f32, cfg: TimingConfig) -> Duration {
        time_avg(
            || {
                std::hint::black_box(self.optimize(spec, cap));
            },
            cfg,
        )
    }

    /// Run a thresholded (multi-pass) optimization under `schedule`, or
    /// under the service's certified schedule when `None` (greedy GOO's
    /// plan caps one pass, and the GOO run is timed with it); returns
    /// `(average time, passes, final cost)`.
    pub fn time_thresholded(
        self,
        spec: &JoinSpec,
        schedule: Option<ThresholdSchedule>,
        cfg: TimingConfig,
    ) -> (Duration, u32, f32) {
        fn go<M: CostModel + Sync>(
            spec: &JoinSpec,
            model: &M,
            schedule: Option<ThresholdSchedule>,
        ) -> ThresholdOutcome {
            let schedule = schedule.unwrap_or_else(|| certified_schedule(spec, model));
            optimize_join_threshold_with(spec, model, schedule, DriveOptions::serial())
                .expect("grid specs fit the table")
        }
        let mut passes = 0;
        let mut cost = f32::INFINITY;
        let d = time_avg(
            || {
                let out = match self {
                    Model::K0 => go(spec, &Kappa0, schedule),
                    Model::Sm => go(spec, &SortMerge, schedule),
                    Model::Dnl => go(spec, &DiskNestedLoops::default(), schedule),
                };
                passes = out.passes;
                cost = out.optimized.cost;
            },
            cfg,
        );
        (d, passes, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blitz_catalog::{Topology, Workload};

    #[test]
    fn all_models_optimize_a_workload_point() {
        let spec = Workload::new(8, Topology::Chain, 100.0, 0.5).spec();
        for m in Model::ALL {
            let cost = m.optimize(&spec, f32::INFINITY);
            assert!(cost.is_finite(), "{}", m.name());
            let (cost2, counters) = m.optimize_counted(&spec, f32::INFINITY);
            assert_eq!(cost, cost2);
            assert!(counters.loop_iters > 0);
        }
    }

    #[test]
    fn thresholded_run_reports_passes() {
        let spec = Workload::new(8, Topology::Chain, 100.0, 0.0).spec();
        let cfg = TimingConfig { min_total: std::time::Duration::from_millis(1), max_reps: 5 };
        let (_, passes, cost) =
            Model::K0.time_thresholded(&spec, Some(ThresholdSchedule::new(1e9, 1e5, 4)), cfg);
        assert!(passes >= 1);
        assert!(cost.is_finite());
        for m in Model::ALL {
            let (_, passes, certified) = m.time_thresholded(&spec, None, cfg);
            assert_eq!(passes, 1, "{}", m.name());
            assert_eq!(certified.to_bits(), m.optimize(&spec, f32::INFINITY).to_bits());
        }
    }
}
