//! The in-process replay: a workload's request sequence run through the
//! service's public layer functions, called in the order
//! `OptimizerService::optimize` calls them, with a span around each call.
//!
//! The replay owns its layers — a [`PlanCache`], a [`WorkerPool`] and a
//! [`TablePool`] built from the workload's pinned [`ServiceConfig`] — and
//! rebuilds each request's `DriveOptions` as the service does. It mirrors
//! the paths the workloads take: queries over the exact limit go to the
//! ladder (only `big_ladder` sends them, and it runs one). Nothing in
//! the program is changed; the spans come from this file alone. A second
//! pass without spans gives the tracing overhead, and a pass through
//! `server::handle_line` on a real in-process `OptimizerService` checks
//! that the replay costs what the service does.

use crate::trace::Tracer;
use crate::workload::with_model;
use blitz_baselines::goo;
use blitz_catalog::CanonicalQuery;
use blitz_core::{
    optimize_join_threshold_arena_with, CostModel, Counters, DriveOptions, HotColdTable, JoinSpec,
    LayoutChoice, Plan, ThresholdSchedule,
};
use blitz_ladder::{optimize_ladder, BigSpec, LadderConfig};
use blitz_service::server::{format_response, parse_optimize, WireRequest};
use blitz_service::{
    CacheOutcome, ComputedPlan, DriverDisposition, FallbackReason, LadderInfo, Lookup, ModelId,
    PlanCache, PlanSource, Request, Response, ServiceConfig, Slot, TablePool, WorkerPool,
};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Counts the replay's layers produce beside their spans.
#[derive(Debug, Default)]
pub struct LayerCounts {
    /// DP runs, and how many took the convolution driver.
    pub dp_runs: AtomicU64,
    /// See `dp_runs`.
    pub dp_conv: AtomicU64,
    /// §3.3 counters summed over all DP runs.
    pub counters: Mutex<Counters>,
    /// Table-pool takes that recycled a table, and that allocated one.
    pub table_hits: AtomicU64,
    /// See `table_hits`.
    pub table_misses: AtomicU64,
    /// Deepest worker queue seen right after a submit.
    pub queue_depth_max: AtomicUsize,
    /// Nanoseconds of DP run after the requester had its deadline
    /// fallback.
    pub dead_ns: AtomicU64,
    /// Ladder runs, their proposals and block DPs, and wins per rung
    /// (greedy, exact, hybrid DP, stochastic).
    pub ladder_runs: AtomicU64,
    /// See `ladder_runs`.
    pub ladder_refine_steps: AtomicU64,
    /// See `ladder_runs`.
    pub ladder_dp_blocks: AtomicU64,
    /// See `ladder_runs`.
    pub ladder_rungs: [AtomicU64; 4],
    /// Exact jobs submitted and not yet finished.
    pub outstanding: AtomicUsize,
}

impl LayerCounts {
    /// Zero every count (after a warm-up pass).
    pub fn reset(&self) {
        for count in [
            &self.dp_runs,
            &self.dp_conv,
            &self.table_hits,
            &self.table_misses,
            &self.dead_ns,
            &self.ladder_runs,
            &self.ladder_refine_steps,
            &self.ladder_dp_blocks,
        ]
        .into_iter()
        .chain(&self.ladder_rungs)
        {
            count.store(0, Relaxed);
        }
        self.queue_depth_max.store(0, Relaxed);
        *self.counters.lock().expect("counter lock poisoned") = Counters::default();
    }
}

/// A job's timeline, shared by the job and its requester.
#[derive(Default)]
struct JobClock {
    started: AtomicU64,
    gave_up: AtomicU64,
}

/// The service's layers, rebuilt in-process.
pub struct Layers {
    config: ServiceConfig,
    ladder: Option<LadderConfig>,
    cache: Arc<PlanCache>,
    pool: WorkerPool,
    tables: Arc<TablePool>,
    tracer: Arc<Tracer>,
    /// What the layers counted.
    pub counts: Arc<LayerCounts>,
}

impl Layers {
    /// Fresh layers for `config`, recording spans into `tracer`.
    pub fn new(config: ServiceConfig, tracer: Arc<Tracer>) -> Layers {
        assert_eq!(
            config.layout,
            LayoutChoice::HotCold,
            "the replay mirrors the default layout"
        );
        let ladder = crate::check::ladder_config(&config);
        Layers {
            cache: PlanCache::new(config.cache_capacity, config.cache_shards),
            pool: WorkerPool::new(config.workers.max(1), config.queue_capacity),
            tables: Arc::new(TablePool::default()),
            counts: Arc::new(LayerCounts::default()),
            ladder,
            config,
            tracer,
        }
    }

    /// Block until every submitted exact job has finished.
    pub fn drain(&self) {
        while self.counts.outstanding.load(Relaxed) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Serve one protocol line as `server::handle_line` would, recording
    /// request `request`'s spans.
    pub fn serve(&self, request: u64, line: &str) -> String {
        let t = &self.tracer;
        let (root, root_start) = (t.id(), t.now());
        let args = line.strip_prefix("OPTIMIZE ").unwrap_or(line);
        let parsed = t.span("wire.parse", root, request, || {
            let parsed = parse_optimize(args)?;
            match &parsed {
                WireRequest::Small(r) => r.validate().map_err(|e| e.to_string())?,
                WireRequest::Big(r) => r.validate().map_err(|e| e.to_string())?,
            }
            Ok::<_, String>(parsed)
        });
        let out = match parsed {
            Err(e) => format!("ERR {e}"),
            Ok(parsed) => {
                let response = match parsed {
                    WireRequest::Small(req) => self.optimize(root, request, &req),
                    WireRequest::Big(req) => {
                        let start = Instant::now();
                        self.ladder_response(
                            root,
                            request,
                            &req.spec,
                            req.model,
                            req.deadline,
                            start,
                        )
                    }
                };
                t.span("wire.format", root, request, || format_response(&response))
            }
        };
        t.record("request", root, 0, request, root_start);
        out
    }

    /// `DriveOptions` for an exact job, as the service derives them.
    fn drive_options(&self, n: usize) -> DriveOptions {
        let c = &self.config;
        let options = if n >= c.parallel_min_rels && c.parallelism != 1 {
            DriveOptions::parallel(c.parallelism)
        } else {
            DriveOptions::serial()
        };
        options
            .with_layout(c.layout)
            .with_kernel(c.kernel)
            .with_driver(c.driver)
    }

    fn optimize(&self, root: u64, request: u64, req: &Request) -> Response {
        let t = &self.tracer;
        let start = Instant::now();
        let n = req.spec.n();
        if n > self.config.max_exact_rels {
            let big = BigSpec::from_spec(&req.spec);
            return self.ladder_response(root, request, &big, req.model, req.deadline, start);
        }
        let schedule = req.schedule.unwrap_or(self.config.default_schedule);
        let mut options = self.drive_options(n);
        if let Some(d) = req.driver {
            options = options.with_driver(d);
        }
        let disposition = DriverDisposition::new(req.model, req.driver.is_some(), &options, n);
        let canon = t.span("fingerprint.canon", root, request, || {
            CanonicalQuery::new(&req.spec, &disposition.fingerprint_tag(), Some(&schedule))
        });
        let lookup = t.span("cache.lookup", root, request, || {
            self.cache.lookup_or_reserve(canon.fingerprint())
        });
        let (slot, outcome, clock) = match lookup {
            Lookup::Hit(cp) => {
                return self.respond(root, request, &canon, &cp, CacheOutcome::Hit, start)
            }
            Lookup::Wait(slot) => (slot, CacheOutcome::Shared, None),
            Lookup::Reserved(reservation) => {
                let slot = reservation.slot();
                let clock = Arc::new(JobClock::default());
                let driver = disposition.exact_driver();
                let job = {
                    let (spec, model, canon) = (req.spec.clone(), req.model, canon.clone());
                    let (tables, tracer, counts) = (
                        Arc::clone(&self.tables),
                        Arc::clone(t),
                        Arc::clone(&self.counts),
                    );
                    let clock = Arc::clone(&clock);
                    let submitted = t.now();
                    Box::new(move || {
                        clock.started.store(tracer.now(), Relaxed);
                        tracer.record("pool.queue_wait", tracer.id(), root, request, submitted);
                        let run = Exact {
                            spec: &spec,
                            schedule,
                            options,
                            tables: &tables,
                            tracer: &tracer,
                            counts: &counts,
                            root,
                            request,
                        };
                        let (plan, cost, card, passes) = with_model(
                            model,
                            |m| run.go(m),
                            |m| run.go(m),
                            |m| run.go(m),
                            |m| run.go(m),
                        );
                        counts
                            .dp_conv
                            .fetch_add(u64::from(driver.is_conv()), Relaxed);
                        reservation.fulfill_cached(ComputedPlan {
                            plan: canon.to_canonical(&plan),
                            cost,
                            card,
                            passes,
                            exact: true,
                            driver: Some(driver),
                        });
                        let gave_up = clock.gave_up.load(Relaxed);
                        if gave_up != 0 {
                            let from = gave_up.max(clock.started.load(Relaxed));
                            counts
                                .dead_ns
                                .fetch_add(tracer.now().saturating_sub(from), Relaxed);
                        }
                        counts.outstanding.fetch_sub(1, Relaxed);
                    }) as Box<dyn FnOnce() + Send>
                };
                self.counts.outstanding.fetch_add(1, Relaxed);
                if self.pool.submit(job).is_err() {
                    self.counts.outstanding.fetch_sub(1, Relaxed);
                    return self.greedy(
                        root,
                        request,
                        req,
                        FallbackReason::QueueFull,
                        CacheOutcome::Miss,
                        start,
                    );
                }
                self.counts
                    .queue_depth_max
                    .fetch_max(self.pool.depth(), Relaxed);
                (slot, CacheOutcome::Miss, Some(clock))
            }
        };
        self.await_slot(root, request, req, &canon, &slot, outcome, clock, start)
    }

    #[allow(clippy::too_many_arguments)]
    fn await_slot(
        &self,
        root: u64,
        request: u64,
        req: &Request,
        canon: &CanonicalQuery,
        slot: &Slot,
        outcome: CacheOutcome,
        clock: Option<Arc<JobClock>>,
        start: Instant,
    ) -> Response {
        let remaining = req.deadline.map(|d| d.saturating_sub(start.elapsed()));
        match slot.wait(remaining) {
            Some(cp) => self.respond(root, request, canon, &cp, outcome, start),
            None => {
                let expired = req.deadline.is_some_and(|d| start.elapsed() >= d);
                if let (true, Some(clock)) = (expired, clock) {
                    clock.gave_up.store(self.tracer.now(), Relaxed);
                }
                let reason = if expired {
                    FallbackReason::DeadlineExceeded
                } else {
                    FallbackReason::Abandoned
                };
                self.greedy(root, request, req, reason, outcome, start)
            }
        }
    }

    fn respond(
        &self,
        root: u64,
        request: u64,
        canon: &CanonicalQuery,
        cp: &ComputedPlan,
        cache: CacheOutcome,
        start: Instant,
    ) -> Response {
        let plan = self.tracer.span("fingerprint.relabel", root, request, || {
            canon.to_original(&cp.plan)
        });
        let source = if cp.exact {
            PlanSource::Exact
        } else {
            PlanSource::Greedy(FallbackReason::QueueFull)
        };
        Response {
            plan,
            cost: cp.cost,
            card: cp.card,
            passes: cp.passes,
            source,
            driver: cp.driver,
            cache,
            ladder: None,
            elapsed: start.elapsed(),
        }
    }

    fn greedy(
        &self,
        root: u64,
        request: u64,
        req: &Request,
        reason: FallbackReason,
        cache: CacheOutcome,
        start: Instant,
    ) -> Response {
        let spec = &req.spec;
        let (plan, cost) = self.tracer.span("greedy", root, request, || {
            with_model(
                req.model,
                |m| goo(spec, m),
                |m| goo(spec, m),
                |m| goo(spec, m),
                |m| goo(spec, m),
            )
        });
        Response {
            plan,
            cost,
            card: spec.join_cardinality(spec.all_rels()),
            passes: 0,
            source: PlanSource::Greedy(reason),
            driver: None,
            cache,
            ladder: None,
            elapsed: start.elapsed(),
        }
    }

    fn ladder_response(
        &self,
        root: u64,
        request: u64,
        spec: &BigSpec,
        model: ModelId,
        deadline: Option<Duration>,
        start: Instant,
    ) -> Response {
        let cfg = self
            .ladder
            .as_ref()
            .expect("only big_ladder sends queries over the exact limit, and it runs the ladder");
        let wall_clock = match (cfg.wall_clock, deadline) {
            (Some(b), Some(d)) => Some(b.min(d)),
            (b, d) => b.or(d),
        };
        let cfg = LadderConfig {
            wall_clock,
            ..cfg.clone()
        };
        let report = self.tracer.span("ladder", root, request, || {
            with_model(
                model,
                |m| optimize_ladder(spec, m, &cfg),
                |m| optimize_ladder(spec, m, &cfg),
                |m| optimize_ladder(spec, m, &cfg),
                |m| optimize_ladder(spec, m, &cfg),
            )
        });
        let c = &self.counts;
        c.ladder_runs.fetch_add(1, Relaxed);
        c.ladder_refine_steps
            .fetch_add(report.spent.refine_steps, Relaxed);
        c.ladder_dp_blocks
            .fetch_add(report.spent.dp_blocks, Relaxed);
        c.ladder_rungs[usize::from(report.rung.index()).min(3)].fetch_add(1, Relaxed);
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
            elapsed: start.elapsed(),
            plan: report.plan,
        }
    }
}

/// One exact job's inputs, on the worker that runs it.
struct Exact<'a> {
    spec: &'a JoinSpec,
    schedule: ThresholdSchedule,
    options: DriveOptions,
    tables: &'a TablePool,
    tracer: &'a Tracer,
    counts: &'a LayerCounts,
    root: u64,
    request: u64,
}

impl Exact<'_> {
    /// Take a table and arena, run the thresholded DP, extract the plan
    /// and shelve the table again — the service's exact path.
    fn go<M: CostModel + Sync>(&self, model: &M) -> (Plan, f32, f64, u32) {
        let (t, root, request) = (self.tracer, self.root, self.request);
        let ((mut table, recycled), mut arena) = t.span("tables.take", root, request, || {
            (
                self.tables.take::<HotColdTable>(self.spec.n()),
                self.tables.take_arena(),
            )
        });
        let hit = if recycled {
            &self.counts.table_hits
        } else {
            &self.counts.table_misses
        };
        hit.fetch_add(1, Relaxed);
        let mut counters = Counters::default();
        let out = t.span("dp", root, request, || {
            optimize_join_threshold_arena_with::<HotColdTable, M, Counters, true>(
                &mut table,
                &mut arena,
                self.spec,
                model,
                self.schedule,
                self.options,
                &mut counters,
            )
        });
        let plan = t.span("extract", root, request, || arena.to_plan(out.root));
        self.tables.put(table);
        self.tables.put_arena(arena);
        self.counts.dp_runs.fetch_add(1, Relaxed);
        *self.counts.counters.lock().expect("counter lock poisoned") += &counters;
        (plan, out.cost, out.card, out.passes)
    }
}
