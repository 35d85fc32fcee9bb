//! Integration tests for the concurrent optimizer service: single-flight
//! deduplication, admission-control fallbacks, the anytime-ladder path
//! for over-limit queries, relabeling-invariant cache hits, and the TCP
//! frontend (library and CLI).

use blitzsplit::catalog::{Topology, Workload};
use blitzsplit::service::server::{
    format_optimize_request, handle_line, response_field, AcceptFault,
};
use blitzsplit::service::{
    CacheOutcome, Client, ComputedPlan, FallbackReason, LadderSettings, Lookup, ModelId,
    OptimizerService, PlanCache, PlanSource, Request, Server, ServerOptions, ServiceConfig,
};
use blitzsplit::{optimize_join, optimize_join_threshold, JoinSpec, Kappa0, ThresholdSchedule};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// A query heavy enough (3¹⁴ ≈ 4.8M split-loop iterations) that
/// concurrent requests reliably overlap its optimization.
fn heavy_spec() -> JoinSpec {
    Workload::new(14, Topology::Clique, 100.0, 0.5).spec()
}

fn small_spec() -> JoinSpec {
    JoinSpec::new(&[10.0, 20.0, 30.0, 40.0], &[(0, 1, 0.1), (1, 2, 0.2), (2, 3, 0.05)]).unwrap()
}

#[test]
fn single_flight_deduplicates_concurrent_identical_requests() {
    const CLIENTS: usize = 8;
    let service = Arc::new(OptimizerService::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    }));
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let spec = heavy_spec();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            let spec = spec.clone();
            std::thread::spawn(move || {
                barrier.wait();
                service.optimize(&Request::new(spec))
            })
        })
        .collect();
    let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Every response is the same exact plan cost…
    let direct = optimize_join(&spec, &Kappa0).unwrap();
    for resp in &responses {
        assert_eq!(resp.source, PlanSource::Exact);
        assert_eq!(resp.cost, direct.cost);
    }
    // …but only ONE optimization ever ran: one miss reserved the cache
    // entry, the other seven either joined it in flight or hit it after
    // completion.
    let snap = service.snapshot();
    assert_eq!(snap.optimizations, 1, "single-flight must run exactly one optimization");
    assert_eq!(snap.cache_misses, 1);
    assert_eq!(snap.cache_hits + snap.cache_shared, (CLIENTS - 1) as u64);
    assert_eq!(snap.requests, CLIENTS as u64);
}

#[test]
fn over_limit_requests_degrade_to_flagged_greedy() {
    let service = OptimizerService::new(ServiceConfig {
        workers: 1,
        max_exact_rels: 5,
        ..ServiceConfig::default()
    });
    let spec = Workload::new(6, Topology::Chain, 100.0, 0.5).spec();
    let resp = service.optimize(&Request::new(spec.clone()));
    assert_eq!(resp.source, PlanSource::Greedy(FallbackReason::OverLimit));
    assert_eq!(resp.cache, CacheOutcome::Bypass);
    assert_eq!(resp.passes, 0);
    assert_eq!(resp.plan.rel_set(), spec.all_rels(), "fallback plan must cover all relations");
    assert!(resp.cost.is_finite());
    // The exact optimum can only be better or equal.
    let exact = optimize_join(&spec, &Kappa0).unwrap();
    assert!(exact.cost <= resp.cost * (1.0 + 1e-4));
    let snap = service.snapshot();
    assert_eq!(snap.fallback_over_limit, 1);
    assert_eq!(snap.optimizations, 0);
    assert_eq!(snap.cache_bypass, 1);

    // An in-limit request on the same service still optimizes exactly.
    let ok = service.optimize(&Request::new(small_spec()));
    assert_eq!(ok.source, PlanSource::Exact);
}

#[test]
fn full_queue_degrades_to_flagged_greedy() {
    // queue_capacity 0 means no miss can ever be scheduled: every
    // fresh query deterministically takes the greedy queue-full path.
    let service = OptimizerService::new(ServiceConfig {
        workers: 1,
        queue_capacity: 0,
        ..ServiceConfig::default()
    });
    let resp = service.optimize(&Request::new(small_spec()));
    assert_eq!(resp.source, PlanSource::Greedy(FallbackReason::QueueFull));
    assert_eq!(resp.cache, CacheOutcome::Miss);
    assert!(resp.cost.is_finite());
    let snap = service.snapshot();
    assert_eq!(snap.fallback_queue_full, 1);
    assert_eq!(snap.optimizations, 0);
    assert_eq!(snap.cached_plans, 0, "greedy fallbacks must not be cached");
}

/// Deadline admission: once the service has measured its work rate, a
/// request whose DP cannot finish before its deadline is answered
/// greedily at once — no slot reserved, no DP started, nothing cached.
/// A resident plan still wins over any deadline.
#[test]
fn zero_deadline_heavy_request_is_over_budget_and_caches_nothing() {
    let service = OptimizerService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    // One finished job gives the service its work rate.
    assert_eq!(service.optimize(&Request::new(small_spec())).source, PlanSource::Exact);
    let spec = heavy_spec();
    let mut req = Request::new(spec.clone());
    req.deadline = Some(Duration::ZERO);
    let resp = service.optimize(&req);
    assert_eq!(resp.source, PlanSource::Greedy(FallbackReason::OverBudget));
    assert_eq!(resp.cache, CacheOutcome::Bypass);
    assert!(resp.cost.is_finite());
    let snap = service.snapshot();
    assert_eq!(snap.fallback_over_budget, 1);
    assert_eq!(snap.fallback_deadline, 0);
    assert_eq!(snap.optimizations, 1, "no DP may start for the over-budget request");
    assert_eq!(snap.cache_misses, 1, "no slot may be reserved for it");
    assert_eq!(snap.cached_plans, 1, "only the warm-up plan is resident");

    // Nothing was cached, so a request without a deadline runs the DP…
    let exact = service.optimize(&Request::new(spec));
    assert_eq!((exact.source, exact.cache), (PlanSource::Exact, CacheOutcome::Miss));
    // …and from then on the resident plan answers even a zero deadline.
    let hit = service.optimize(&req);
    assert_eq!((hit.source, hit.cache), (PlanSource::Exact, CacheOutcome::Hit));
    assert_eq!(hit.cost, exact.cost);
}

/// A deadline storm behind a long job: the storm's DP estimates fit
/// their deadlines, so they are admitted, but the deadlines expire while
/// the jobs sit in the queue. Every requester leaves, so the worker
/// skips those jobs, and a request queued behind them is answered right
/// after the long job instead of after the whole storm.
#[test]
fn deadline_storm_jobs_expiring_in_the_queue_are_skipped() {
    const STORM: usize = 4;
    let service = Arc::new(OptimizerService::new(ServiceConfig {
        workers: 1,
        parallelism: 1,
        ..ServiceConfig::default()
    }));
    // A finished mid-sized job gives the service its work rate.
    let warm = Workload::new(12, Topology::Clique, 90.0, 0.5).spec();
    assert_eq!(service.optimize(&Request::new(warm)).source, PlanSource::Exact);

    let storm: Vec<JoinSpec> = (0..STORM)
        .map(|i| Workload::new(12, Topology::Clique, 100.0 + i as f64, 0.5).spec())
        .collect();
    let long = Workload::new(16, Topology::Clique, 100.0, 0.5).spec();
    let storm_estimate = service.exact_estimate(&Request::new(storm[0].clone())).unwrap();
    let long_estimate = service.exact_estimate(&Request::new(long.clone())).unwrap();
    let deadline = storm_estimate * 3;
    assert!(long_estimate > deadline * 8, "{long_estimate:?} vs deadline {deadline:?}");

    // Hold the only worker with a long job nobody will abandon.
    let holder = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let resp = service.optimize(&Request::new(long));
            (resp, std::time::Instant::now())
        })
    };
    while service.snapshot().cache_misses < 2 || service.snapshot().queue_depth > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }

    let waves: Vec<_> = storm
        .into_iter()
        .map(|spec| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                service.optimize(&Request { deadline: Some(deadline), ..Request::new(spec) })
            })
        })
        .collect();
    for wave in waves {
        let resp = wave.join().unwrap();
        assert_eq!(resp.source, PlanSource::Greedy(FallbackReason::DeadlineExceeded));
        assert_eq!(resp.cache, CacheOutcome::Miss, "admitted: it reserved and queued a job");
    }

    // Queued behind the storm's (now orphaned) jobs.
    let follow = service.optimize(&Request::new(small_spec()));
    let follow_done = std::time::Instant::now();
    let (long_resp, long_done) = holder.join().unwrap();
    assert_eq!(long_resp.source, PlanSource::Exact);
    assert_eq!(follow.source, PlanSource::Exact);

    let snap = service.snapshot();
    assert_eq!(snap.exact_cancelled, STORM as u64, "every storm job must be skipped");
    assert_eq!(snap.fallback_deadline, STORM as u64);
    assert_eq!(snap.optimizations, 3, "warm-up, long job and follow-up only");
    let lag = follow_done.saturating_duration_since(long_done);
    assert!(
        lag < storm_estimate * STORM as u32,
        "follow-up answered {lag:?} after the long job: the storm ran (each ≈ {storm_estimate:?})"
    );
}

/// Single-flight under cancellation: a short-deadline co-waiter leaving
/// does not cancel a job another request still waits for.
#[test]
fn no_deadline_waiter_still_gets_exact_after_a_deadline_co_waiter_leaves() {
    let service = Arc::new(OptimizerService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    }));
    let spec = Workload::new(15, Topology::Clique, 100.0, 0.5).spec();
    let patient = {
        let service = Arc::clone(&service);
        let spec = spec.clone();
        std::thread::spawn(move || service.optimize(&Request::new(spec)))
    };
    while service.snapshot().cache_misses < 1 {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Cold service: no work rate yet, so the deadline request is
    // admitted and joins the in-flight job, then gives up on it.
    let deadline = Some(Duration::from_millis(2));
    let hasty = service.optimize(&Request { deadline, ..Request::new(spec) });
    assert_eq!(hasty.source, PlanSource::Greedy(FallbackReason::DeadlineExceeded));
    assert_eq!(hasty.cache, CacheOutcome::Shared);

    let patient = patient.join().unwrap();
    assert_eq!(patient.source, PlanSource::Exact);
    let snap = service.snapshot();
    assert_eq!(snap.exact_cancelled, 0);
    assert_eq!(snap.optimizations, 1);
    assert_eq!(snap.cached_plans, 1);
}

/// A cancelled job can still resolve its reservation late (dropped, or
/// fulfilled after racing to the end). Neither may touch the newer
/// in-flight entry that replaced it under the same fingerprint:
/// entries are matched by slot identity, not by key.
#[test]
fn a_cancelled_jobs_late_resolution_does_not_clobber_the_newer_entry() {
    let plan = |cost: f32| ComputedPlan {
        plan: blitzsplit::Plan::join(blitzsplit::Plan::scan(0), blitzsplit::Plan::scan(1)),
        cost,
        card: 1.0,
        passes: 1,
        exact: true,
        driver: None,
    };
    let cache = PlanCache::new(8, 1);
    let key = 77;
    let mut cancelled = Vec::new();
    for _ in 0..2 {
        let Lookup::Reserved(old) = cache.lookup_or_reserve(key) else {
            panic!("the key must be free");
        };
        assert!(cache.leave(key, &old.slot()), "its only waiter left");
        assert!(old.cancel_flag().load(Ordering::Relaxed));
        cancelled.push(old);
    }
    let Lookup::Reserved(newer) = cache.lookup_or_reserve(key) else {
        panic!("a cancelled entry must be unpinned");
    };
    let newer_slot = newer.slot();
    let still_newer = |cache: &Arc<PlanCache>| match cache.lookup_or_reserve(key) {
        Lookup::Wait(slot) => Arc::ptr_eq(&slot, &newer_slot),
        _ => false,
    };

    let fulfilled_late = cancelled.pop().unwrap();
    drop(cancelled);
    assert!(still_newer(&cache), "a late drop unpinned the newer entry");
    fulfilled_late.fulfill_cached(plan(1.0));
    assert!(still_newer(&cache), "a late fulfil replaced the newer entry");
    assert_eq!(cache.len(), 0);

    newer.fulfill_cached(plan(2.0));
    match cache.lookup_or_reserve(key) {
        Lookup::Hit(cp) => assert_eq!(cp.cost, 2.0),
        _ => panic!("the newer job's plan must be resident"),
    }
}

#[test]
fn cache_hits_are_invariant_under_relation_relabeling() {
    let service = OptimizerService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let fwd = small_spec();
    let rev =
        JoinSpec::new(&[40.0, 30.0, 20.0, 10.0], &[(3, 2, 0.1), (2, 1, 0.2), (1, 0, 0.05)])
            .unwrap();

    let first = service.optimize(&Request::new(fwd));
    assert_eq!(first.cache, CacheOutcome::Miss);
    let second = service.optimize(&Request::new(rev.clone()));
    assert_eq!(second.cache, CacheOutcome::Hit, "relabeled query must hit the cache");
    assert_eq!(second.cost, first.cost);
    // The returned plan is in the *requester's* labeling and re-costs
    // to the same value against the requester's spec.
    assert_eq!(second.plan.rel_set(), rev.all_rels());
    let (_, recost) = second.plan.cost(&rev, &Kappa0);
    assert!((recost - second.cost).abs() <= second.cost.abs() * 1e-5);
}

#[test]
fn per_model_cache_entries_do_not_collide() {
    let service = OptimizerService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let mut req = Request::new(small_spec());
    let k0 = service.optimize(&req);
    req.model = ModelId::SortMerge;
    let sm = service.optimize(&req);
    assert_eq!(k0.cache, CacheOutcome::Miss);
    assert_eq!(sm.cache, CacheOutcome::Miss, "different model must be a distinct cache entry");
    assert_eq!(service.snapshot().optimizations, 2);
}

/// Regression (the `source_detail` satellite): a wire client must be
/// able to tell a queue-full greedy fallback from a deadline one without
/// scraping metrics. Both detail strings ride a dedicated field.
#[test]
fn source_detail_distinguishes_queue_full_from_deadline_on_the_wire() {
    // Queue full: capacity 0 makes every fresh miss degrade.
    let full = OptimizerService::new(ServiceConfig {
        workers: 1,
        queue_capacity: 0,
        ..ServiceConfig::default()
    });
    let resp = handle_line(&full, "OPTIMIZE cards=10,20,30,40 preds=0:1:0.1;1:2:0.2;2:3:0.05");
    assert!(resp.starts_with("OK "), "{resp}");
    assert_eq!(response_field(&resp, "source"), Some("greedy_queue_full"));
    assert_eq!(response_field(&resp, "source_detail"), Some("queue_full"));

    // Deadline: a cold service (no work rate measured yet) admits a
    // heavy query with a 1 ms deadline, which then expires mid-DP.
    let slow = OptimizerService::new(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let spec = heavy_spec();
    let cards = spec.cards().to_vec();
    let preds: Vec<(usize, usize, f64)> = spec.edges().collect();
    let line =
        format_optimize_request(&cards, &preds, ModelId::Kappa0, Some(Duration::from_millis(1)));
    let resp = handle_line(&slow, &line);
    assert!(resp.starts_with("OK "), "{resp}");
    assert_eq!(response_field(&resp, "source"), Some("greedy_deadline"));
    assert_eq!(response_field(&resp, "source_detail"), Some("deadline"));

    // The exact path names itself too, by the driver that ran: the
    // service runs conv at every size.
    let resp = handle_line(&slow, "OPTIMIZE cards=10,20 preds=0:1:0.5");
    assert_eq!(response_field(&resp, "source"), Some("exact"));
    assert_eq!(response_field(&resp, "source_detail"), Some("conv"));

    // Over budget: with a completed job behind it, the service prices a
    // zero deadline out before any DP starts.
    let line = format_optimize_request(&cards, &preds, ModelId::Kappa0, Some(Duration::ZERO));
    let resp = handle_line(&slow, &line);
    assert_eq!(response_field(&resp, "source"), Some("greedy_over_budget"));
    assert_eq!(response_field(&resp, "source_detail"), Some("over_budget"));
    assert_eq!(response_field(&resp, "cache"), Some("bypass"));
}

/// The acceptance criterion: a ladder-configured service answers a
/// 100-relation request within its deadline with a plan that is *not*
/// flagged as a bare greedy fallback, and reports the rung reached, the
/// budget spent, and the achieved optimality gap on the wire.
#[test]
fn ladder_serves_hundred_relation_requests_on_the_wire() {
    let deadline = Duration::from_secs(30);
    let service = OptimizerService::new(ServiceConfig {
        workers: 1,
        ladder: Some(LadderSettings {
            refine_steps: 4_000,
            budget: Some(Duration::from_secs(5)),
            ..LadderSettings::default()
        }),
        ..ServiceConfig::default()
    });
    let n = 100;
    let cards: Vec<f64> = (0..n).map(|i| 10.0 + i as f64).collect();
    let preds: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 0.01)).collect();
    let line = format_optimize_request(&cards, &preds, ModelId::Kappa0, Some(deadline));

    let start = std::time::Instant::now();
    let resp = handle_line(&service, &line);
    let elapsed = start.elapsed();
    assert!(elapsed < deadline, "answer took {elapsed:?}, over the {deadline:?} deadline");

    assert!(resp.starts_with("OK "), "{resp}");
    let source = response_field(&resp, "source").unwrap();
    assert!(source.starts_with("ladder_"), "expected ladder provenance, got {source}");
    assert!(!source.starts_with("greedy_"), "100-relation plan must not be greedy-flagged");
    assert_eq!(response_field(&resp, "cache"), Some("bypass"));

    // Full provenance on the wire: rung reached, gap + basis, budget.
    let rung = response_field(&resp, "rung").unwrap();
    assert!(["greedy", "exact", "hybrid_dp", "stochastic"].contains(&rung), "{rung}");
    let reached = response_field(&resp, "rung_reached").unwrap();
    assert_eq!(reached, "stochastic", "all rungs should run at n=100");
    assert_eq!(response_field(&resp, "gap_basis"), Some("greedy"));
    let gap: f32 = response_field(&resp, "gap").unwrap().parse().unwrap();
    assert!(gap <= 0.0, "greedy-basis gap must be ≤ 0, got {gap}");
    let cost: f32 = response_field(&resp, "cost").unwrap().parse().unwrap();
    let greedy_cost: f32 = response_field(&resp, "greedy_cost").unwrap().parse().unwrap();
    assert!(cost <= greedy_cost, "ladder cost {cost} worse than greedy {greedy_cost}");
    let _: u64 = response_field(&resp, "refine_steps").unwrap().parse().unwrap();
    let _: u64 = response_field(&resp, "dp_blocks").unwrap().parse().unwrap();
    let ladder_us: u64 = response_field(&resp, "ladder_micros").unwrap().parse().unwrap();
    assert!(ladder_us as u128 <= deadline.as_micros());

    // The plan really spans all 100 relations.
    let plan = response_field(&resp, "plan").unwrap();
    assert!(plan.contains("R0 ") || plan.contains("R0)"), "{plan}");
    assert!(plan.contains("R99"), "{plan}");

    // Metrics surfaced the run.
    let snap = service.snapshot();
    assert_eq!(snap.ladder_runs, 1);
    assert_eq!(snap.fallback_over_limit, 0);
}

/// Bind a fresh server and serve it from a background thread,
/// returning the bound address.
fn spawn_server(service: Arc<OptimizerService>, options: ServerOptions) -> SocketAddr {
    let server = Server::bind_with("127.0.0.1:0", service, options).unwrap();
    let (addr, _serving) = server.spawn().unwrap();
    addr
}

/// Poll the wire `METRICS` line until `ok(field value)` holds (or the
/// deadline passes), returning the last observed value. Note the
/// probing connection itself shows up in connection gauges — callers
/// comparing `live_connections` must allow for one extra.
fn await_metric(
    addr: SocketAddr,
    field: &str,
    patience: Duration,
    ok: impl Fn(u64) -> bool,
) -> u64 {
    let deadline = std::time::Instant::now() + patience;
    loop {
        let mut client = Client::connect(addr).unwrap();
        let metrics = client.metrics().unwrap();
        let got: u64 = response_field(&metrics, field)
            .unwrap_or_else(|| panic!("no {field}= in {metrics}"))
            .parse()
            .unwrap();
        if ok(got) || std::time::Instant::now() >= deadline {
            return got;
        }
        drop(client);
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn tcp_server_returns_one_shot_costs() {
    let service = Arc::new(OptimizerService::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    }));
    let addr = spawn_server(service, ServerOptions::default());

    let mut client = Client::connect(addr).unwrap();
    assert!(client.ping().unwrap());

    let spec = small_spec();
    let direct = optimize_join(&spec, &Kappa0).unwrap();
    let resp = client
        .request("OPTIMIZE cards=10,20,30,40 preds=0:1:0.1;1:2:0.2;2:3:0.05 model=k0")
        .unwrap();
    assert!(resp.starts_with("OK "), "{resp}");
    assert_eq!(
        response_field(&resp, "cost"),
        Some(format!("{:.6e}", direct.cost).as_str()),
        "served cost must equal the one-shot optimizer's"
    );
    assert_eq!(response_field(&resp, "source"), Some("exact"));

    // A second connection sees the shared cache.
    let mut other = Client::connect(addr).unwrap();
    let resp2 = other
        .request("OPTIMIZE cards=10,20,30,40 preds=0:1:0.1;1:2:0.2;2:3:0.05 model=k0")
        .unwrap();
    assert_eq!(response_field(&resp2, "cache"), Some("hit"));
    let metrics = other.metrics().unwrap();
    assert!(metrics.contains("cache_hits=1"), "{metrics}");
}

/// Every exact DP runs one pass capped by greedy GOO's plan. A κ₀
/// clique whose optimum costs more than 10⁹ takes two passes under the
/// default schedule (its first cap is 10⁹), which the service ran until
/// the certified cap replaced it; it now answers in one pass, with the
/// same cost.
#[test]
fn an_expensive_optimum_takes_one_certified_pass() {
    let spec = Workload::new(10, Topology::Clique, 1e5, 0.5).spec();
    let direct = optimize_join(&spec, &Kappa0).unwrap();
    assert!(direct.cost > 1e9, "{}", direct.cost);
    let paper = optimize_join_threshold(&spec, &Kappa0, ThresholdSchedule::default()).unwrap();
    assert_eq!(paper.passes, 2, "the default schedule's first cap must fail");
    assert_eq!(paper.optimized.cost, direct.cost);

    let service =
        Arc::new(OptimizerService::new(ServiceConfig { workers: 1, ..ServiceConfig::default() }));
    let addr = spawn_server(Arc::clone(&service), ServerOptions::default());
    let mut wire = Wire::connect(addr);
    wire.send(&[optimize_line(&spec, None)]);
    let resp = wire.recv();
    assert_eq!(outcome(&resp), (Some("exact"), Some("miss")), "{resp}");
    assert_eq!(response_field(&resp, "passes"), Some("1"), "{resp}");
    let cost = format!("{:.6e}", direct.cost);
    assert_eq!(response_field(&resp, "cost"), Some(cost.as_str()), "{resp}");
    let snap = service.snapshot();
    assert_eq!((snap.optimizations, snap.threshold_passes), (1, 1));
}

/// Regression for the fatal accept-path crash: a burst of transient
/// accept errors (fd exhaustion, aborted handshakes — the classic
/// `EMFILE`/`ECONNABORTED` pair) must not kill the frontend. The
/// listener counts them, backs off, and serves the very next client.
#[test]
fn accept_fd_pressure_does_not_kill_either_frontend() {
    const FAULTS: usize = 6;
    let service = Arc::new(OptimizerService::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    }));
    let mut server =
        Server::bind_with("127.0.0.1:0", Arc::clone(&service), ServerOptions::default())
            .unwrap();
    // The first FAULTS accept attempts fail, alternating the two
    // real-world shapes: raw EMFILE (errno 24) and ECONNABORTED.
    let remaining = Arc::new(AtomicUsize::new(FAULTS));
    let fault: AcceptFault = {
        let remaining = Arc::clone(&remaining);
        Arc::new(move || {
            let left = remaining.load(Ordering::Relaxed);
            if left == 0 {
                return None;
            }
            remaining.store(left - 1, Ordering::Relaxed);
            Some(if left.is_multiple_of(2) {
                std::io::Error::from_raw_os_error(24) // EMFILE
            } else {
                std::io::Error::from(std::io::ErrorKind::ConnectionAborted)
            })
        })
    };
    server.set_accept_fault(fault);
    let (addr, _serving) = server.spawn().unwrap();

    // The faults fire on the accept attempts this connect provokes;
    // the frontend must absorb all of them and still serve us.
    let mut client = Client::connect(addr).unwrap();
    assert!(client.ping().unwrap(), "frontend died under fd pressure");
    let resp = client
        .request("OPTIMIZE cards=10,20,30,40 preds=0:1:0.1;1:2:0.2;2:3:0.05")
        .unwrap();
    assert!(resp.starts_with("OK "), "{resp}");
    assert_eq!(remaining.load(Ordering::Relaxed), 0, "faults not consumed");

    // And the errors are visible operationally, not swallowed.
    let metrics = client.metrics().unwrap();
    let counted: u64 =
        response_field(&metrics, "accept_transient_errors").unwrap().parse().unwrap();
    assert_eq!(counted, FAULTS as u64, "{metrics}");
}

/// Connection-slot accounting under churn: after waves of short-lived
/// clients disconnect, the live gauge returns to zero and the accepted
/// counter equals the number of clients served.
#[test]
fn connection_churn_returns_live_gauge_to_zero() {
    const WAVES: usize = 3;
    const PER_WAVE: usize = 20;
    let service = Arc::new(OptimizerService::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    }));
    let addr = spawn_server(service, ServerOptions::default());
    for _ in 0..WAVES {
        let mut batch: Vec<Client> =
            (0..PER_WAVE).map(|_| Client::connect(addr).unwrap()).collect();
        for client in &mut batch {
            assert!(client.ping().unwrap());
        }
        drop(batch);
    }
    // The probe connection itself is the remaining 1.
    let live = await_metric(addr, "live_connections", Duration::from_secs(5), |v| v <= 1);
    assert!(live <= 1, "{live} connections leaked after churn");
    let accepted = await_metric(addr, "connections_accepted", Duration::ZERO, |_| true);
    assert!(
        accepted >= (WAVES * PER_WAVE) as u64,
        "only {accepted} accepts recorded"
    );
}

/// The readiness-loop scaling criterion: one event loop holds 1000
/// concurrently idle connections (no per-connection threads) while
/// still serving active OPTIMIZE traffic, and every idle socket is
/// still usable afterwards.
#[test]
fn poll_frontend_sustains_a_thousand_idle_connections() {
    const IDLE: usize = 1000;
    let service = Arc::new(OptimizerService::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    }));
    let options = ServerOptions {
        // Idle is the point: no timeouts reaping the parked sockets.
        read_timeout: None,
        request_deadline: None,
        max_connections: 2 * IDLE,
        ..ServerOptions::default()
    };
    let addr = spawn_server(service, options);

    let idle: Vec<TcpStream> = (0..IDLE).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let live =
        await_metric(addr, "live_connections", Duration::from_secs(30), |v| v >= IDLE as u64);
    assert!(live >= IDLE as u64, "only {live} of {IDLE} idle connections accepted");

    // Active traffic flows through the same loop while they sit parked.
    let mut client = Client::connect(addr).unwrap();
    for _ in 0..4 {
        let resp = client
            .request("OPTIMIZE cards=10,20,30,40 preds=0:1:0.1;1:2:0.2;2:3:0.05")
            .unwrap();
        assert!(resp.starts_with("OK "), "{resp}");
    }

    // Sampled idle sockets are still live end-to-end.
    for stream in idle.iter().step_by(IDLE / 10) {
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        (&*stream).write_all(b"PING\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        assert_eq!(resp, "OK pong\n", "idle socket went stale: {resp:?}");
    }
    drop(idle);
    drop(client);
    let drained = await_metric(addr, "live_connections", Duration::from_secs(10), |v| v <= 1);
    assert!(drained <= 1, "{drained} connections leaked after the idle swarm left");
}

/// Regression for the non-finite ladder gap: when a cost-model overflow
/// drives both the ladder's best cost and its greedy basis to `inf`,
/// the raw ratio is NaN — the wire `gap=` field must stay a finite
/// number anyway.
#[test]
fn ladder_gap_stays_finite_when_costs_overflow() {
    let service = OptimizerService::new(ServiceConfig {
        workers: 1,
        ladder: Some(LadderSettings {
            refine_steps: 64,
            ..LadderSettings::default()
        }),
        ..ServiceConfig::default()
    });
    // 1e30 cardinalities overflow f32 on the very first join
    // (1e30 · 1e30 · 0.5 ≫ f32::MAX), so every candidate plan costs inf.
    let n = 40;
    let cards: Vec<f64> = vec![1.0e30; n];
    let preds: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 0.5)).collect();
    let line = format_optimize_request(&cards, &preds, ModelId::Kappa0, None);
    let resp = handle_line(&service, &line);
    assert!(resp.starts_with("OK "), "{resp}");
    let source = response_field(&resp, "source").unwrap();
    assert!(source.starts_with("ladder_"), "{source}");
    let gap_text = response_field(&resp, "gap").unwrap();
    let gap: f32 = gap_text.parse().unwrap_or(f32::NAN);
    assert!(gap.is_finite(), "non-finite gap leaked onto the wire: gap={gap_text} in {resp}");
    // inf == inf: the ladder never moved off greedy, so the gap is 0.
    assert_eq!(gap, 0.0, "{resp}");
}

/// A raw line-protocol connection: write lines, read reply lines.
struct Wire {
    reader: BufReader<TcpStream>,
}

impl Wire {
    fn connect(addr: SocketAddr) -> Wire {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        Wire { reader: BufReader::new(stream) }
    }

    fn send(&mut self, lines: &[String]) {
        let mut bytes = String::new();
        for line in lines {
            bytes.push_str(line);
            bytes.push('\n');
        }
        self.reader.get_mut().write_all(bytes.as_bytes()).unwrap();
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).unwrap();
        assert!(n > 0, "server closed the connection");
        line.trim_end().to_string()
    }

    /// Assert nothing more arrives within `quiet`.
    fn assert_silent(&mut self, quiet: Duration) {
        self.reader.get_ref().set_read_timeout(Some(quiet)).unwrap();
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            other => panic!("unexpected extra reply {other:?}: {line:?}"),
        }
        self.reader.get_ref().set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    }
}

/// A reply's `source=` and `cache=` fields.
fn outcome(line: &str) -> (Option<&str>, Option<&str>) {
    (response_field(line, "source"), response_field(line, "cache"))
}

fn optimize_line(spec: &JoinSpec, deadline: Option<Duration>) -> String {
    let preds: Vec<(usize, usize, f64)> = spec.edges().collect();
    format_optimize_request(spec.cards(), &preds, ModelId::Kappa0, deadline)
}

fn chain(n: usize, base: f64) -> JoinSpec {
    let cards: Vec<f64> = (0..n).map(|i| base + i as f64).collect();
    let edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 0.1)).collect();
    JoinSpec::new(&cards, &edges).unwrap()
}

/// Poll the in-process service until `done` holds, for up to a minute.
fn await_service(service: &OptimizerService, done: impl Fn(&OptimizerService) -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while !done(service) {
        assert!(std::time::Instant::now() < deadline, "service never got there");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Every kind of reply on one pipelining connection: answered on the
/// loop (`PING`, a hit, `METRICS`, an over-budget request, a parse
/// error), answered by a DP job (a miss), and answered by the deadline
/// timer (a miss queued behind a long job). Each line gets exactly one
/// reply, in request order.
#[test]
fn pipelined_lines_get_one_reply_each_in_order() {
    let service = Arc::new(OptimizerService::new(ServiceConfig {
        workers: 1,
        parallelism: 1,
        ..ServiceConfig::default()
    }));
    // A resident plan to hit, and the work rate admission prices by
    // (from a job big enough that its fixed per-job cost washes out).
    let warm = Workload::new(12, Topology::Clique, 70.0, 0.5).spec();
    assert_eq!(service.optimize(&Request::new(warm.clone())).source, PlanSource::Exact);
    let addr = spawn_server(Arc::clone(&service), ServerOptions::default());

    // Hold the only worker with a long job from another connection.
    let long = Workload::new(15, Topology::Clique, 100.0, 0.5).spec();
    let expiring = Workload::new(10, Topology::Clique, 90.0, 0.5).spec();
    let estimate = service.exact_estimate(&Request::new(expiring.clone())).unwrap();
    let deadline = Duration::from_millis(estimate.as_millis() as u64 * 3 + 3);
    let long_estimate = service.exact_estimate(&Request::new(long.clone())).unwrap();
    assert!(long_estimate > deadline * 8, "{long_estimate:?} vs deadline {deadline:?}");
    let mut holder = Wire::connect(addr);
    holder.send(&[optimize_line(&long, None)]);
    await_service(&service, |s| s.snapshot().cache_misses == 2 && s.snapshot().queue_depth == 0);

    let over_budget = Workload::new(12, Topology::Clique, 80.0, 0.5).spec();
    let mut wire = Wire::connect(addr);
    wire.send(&[
        "PING".to_string(),
        optimize_line(&warm, None),
        optimize_line(&expiring, Some(deadline)),
        "METRICS".to_string(),
        optimize_line(&over_budget, Some(Duration::ZERO)),
        "OPTIMIZE cards=10,nope".to_string(),
        optimize_line(&chain(6, 20.0), None),
    ]);
    assert_eq!(wire.recv(), "OK pong");
    let hit = wire.recv();
    assert_eq!(outcome(&hit), (Some("exact"), Some("hit")), "{hit}");
    let expired = wire.recv();
    assert_eq!(outcome(&expired), (Some("greedy_deadline"), Some("miss")), "{expired}");
    let metrics = wire.recv();
    assert!(metrics.starts_with("OK requests="), "{metrics}");
    let priced_out = wire.recv();
    assert_eq!(outcome(&priced_out), (Some("greedy_over_budget"), Some("bypass")), "{priced_out}");
    let error = wire.recv();
    assert!(error.starts_with("ERR bad cards"), "{error}");
    let miss = wire.recv();
    assert_eq!(outcome(&miss), (Some("exact"), Some("miss")), "{miss}");
    // The long job finished before that miss ran.
    let long_reply = holder.recv();
    assert_eq!(outcome(&long_reply), (Some("exact"), Some("miss")), "{long_reply}");
    wire.assert_silent(Duration::from_millis(100));
    wire.send(&["PING".to_string()]);
    assert_eq!(wire.recv(), "OK pong");

    let snap = service.snapshot();
    assert_eq!(snap.requests, 6, "warm-up, long job and the four parsed OPTIMIZE lines");
    assert_eq!(snap.fallback_deadline, 1);
    assert_eq!(snap.fallback_over_budget, 1);
    assert_eq!(snap.exact_cancelled, 1, "the expired request's job is skipped in the queue");
}

/// The deadline timer and a late DP completion race for the same
/// request: the deadline answers it, the completion that follows is
/// dropped, and the next line on the connection gets its own reply.
#[test]
fn a_late_completion_after_a_deadline_reply_is_dropped() {
    let service = Arc::new(OptimizerService::new(ServiceConfig {
        workers: 1,
        parallelism: 1,
        ..ServiceConfig::default()
    }));
    let addr = spawn_server(Arc::clone(&service), ServerOptions::default());
    let spec = Workload::new(15, Topology::Clique, 100.0, 0.5).spec();
    // A patient request keeps the DP alive after the hasty one leaves.
    let mut patient = Wire::connect(addr);
    patient.send(&[optimize_line(&spec, None)]);
    await_service(&service, |s| s.snapshot().cache_misses == 1 && s.snapshot().queue_depth == 0);

    // Cold service: no work rate yet, so the deadline request is
    // admitted, joins the running DP and times out on the loop.
    let mut hasty = Wire::connect(addr);
    hasty.send(&[optimize_line(&spec, Some(Duration::from_millis(2))), "PING".to_string()]);
    let expired = hasty.recv();
    assert_eq!(response_field(&expired, "source"), Some("greedy_deadline"), "{expired}");
    assert_eq!(response_field(&expired, "cache"), Some("shared"), "{expired}");
    assert_eq!(hasty.recv(), "OK pong");

    // The DP completes and resolves the slot the hasty request had
    // subscribed to.
    let exact = patient.recv();
    assert_eq!(response_field(&exact, "source"), Some("exact"), "{exact}");
    hasty.assert_silent(Duration::from_millis(100));
    hasty.send(&["PING".to_string()]);
    assert_eq!(hasty.recv(), "OK pong");
    hasty.assert_silent(Duration::from_millis(50));
    let snap = service.snapshot();
    assert_eq!((snap.optimizations, snap.exact_cancelled, snap.fallback_deadline), (1, 0, 1));
}

/// A seeded random-deadline storm against a one-worker service: several
/// connections, pipelining or not, mixing heavy and light queries with
/// deadlines of 0–50 ms. Every line is answered `OK`, the service
/// counts exactly the requests sent, and every connection is released.
#[test]
fn random_deadline_storm_answers_every_line() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    const CONNECTIONS: u64 = 4;
    const LINES: usize = 12;
    let service = Arc::new(OptimizerService::new(ServiceConfig {
        workers: 1,
        parallelism: 1,
        ..ServiceConfig::default()
    }));
    let addr = spawn_server(Arc::clone(&service), ServerOptions::default());
    let clients: Vec<_> = (0..CONNECTIONS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x5EED + c);
                let lines: Vec<String> = (0..LINES)
                    .map(|_| {
                        let spec = if rng.random_bool(0.4) {
                            let n = rng.random_range(11..=13usize);
                            Workload::new(n, Topology::Clique, rng.random_range(50.0..150.0), 0.5)
                                .spec()
                        } else {
                            chain(rng.random_range(3..=6usize), rng.random_range(5.0..50.0))
                        };
                        let deadline = Duration::from_millis(rng.random_range(0..=50u64));
                        optimize_line(&spec, Some(deadline))
                    })
                    .collect();
                let mut wire = Wire::connect(addr);
                let replies: Vec<String> = if c % 2 == 0 {
                    wire.send(&lines);
                    (0..LINES).map(|_| wire.recv()).collect()
                } else {
                    lines
                        .iter()
                        .map(|line| {
                            wire.send(std::slice::from_ref(line));
                            wire.recv()
                        })
                        .collect()
                };
                wire.assert_silent(Duration::from_millis(50));
                replies
            })
        })
        .collect();
    for client in clients {
        for reply in client.join().unwrap() {
            assert!(reply.starts_with("OK "), "{reply}");
        }
    }
    await_service(&service, |s| s.snapshot().live_connections == 0);
    assert_eq!(service.snapshot().requests, CONNECTIONS * LINES as u64);
}

/// A ladder run is a pool job, not work on the event loop: while one
/// runs, another connection's `PING` is answered at once.
#[test]
fn ping_answers_while_a_ladder_job_runs() {
    let service = Arc::new(OptimizerService::new(ServiceConfig {
        workers: 1,
        ladder: Some(LadderSettings {
            refine_steps: 200_000,
            budget: Some(Duration::from_secs(20)),
            ..LadderSettings::default()
        }),
        ..ServiceConfig::default()
    }));
    let addr = spawn_server(Arc::clone(&service), ServerOptions::default());
    let n = 100;
    let cards: Vec<f64> = (0..n).map(|i| 10.0 + i as f64).collect();
    let preds: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 0.01)).collect();
    let mut ladder = Wire::connect(addr);
    ladder.send(&[format_optimize_request(&cards, &preds, ModelId::Kappa0, None)]);
    await_service(&service, |s| s.snapshot().requests == 1 && s.snapshot().queue_depth == 0);

    let mut other = Client::connect(addr).unwrap();
    let start = std::time::Instant::now();
    assert!(other.ping().unwrap());
    let took = start.elapsed();
    assert_eq!(service.snapshot().ladder_runs, 0, "the ladder finished before the PING");
    assert!(took < Duration::from_millis(50), "PING took {took:?} beside a ladder run");
    let reply = ladder.recv();
    assert!(response_field(&reply, "source").is_some_and(|s| s.starts_with("ladder_")), "{reply}");
}

/// A ladder request's deadline counts from its arrival, not from when
/// its job leaves the queue. Queued behind a long DP on the only worker,
/// it is answered greedily at its deadline and its job never runs the
/// ladder; started at once, the ladder stops at the deadline.
#[test]
fn ladder_deadline_holds_behind_a_long_dp() {
    let service = Arc::new(OptimizerService::new(ServiceConfig {
        workers: 1,
        parallelism: 1,
        ladder: Some(LadderSettings {
            refine_steps: 200_000,
            budget: Some(Duration::from_secs(20)),
            ..LadderSettings::default()
        }),
        ..ServiceConfig::default()
    }));
    // The work rate that sizes the long DP against the deadline.
    let warm = Workload::new(12, Topology::Clique, 70.0, 0.5).spec();
    assert_eq!(service.optimize(&Request::new(warm)).source, PlanSource::Exact);
    let deadline = Duration::from_millis(100);
    // The smallest clique from 16 relations up whose estimated DP
    // outlasts the deadline eight times over: optimized builds on fast
    // hosts get through 16 relations in under 800 ms.
    let estimate = |spec: &JoinSpec| service.exact_estimate(&Request::new(spec.clone()));
    let max_rels = service.config().max_exact_rels;
    let long = (16..=max_rels)
        .map(|n| Workload::new(n, Topology::Clique, 100.0, 0.5).spec())
        .find(|spec| estimate(spec).is_some_and(|e| e > deadline * 8))
        .unwrap_or_else(|| Workload::new(max_rels, Topology::Clique, 100.0, 0.5).spec());
    let long_estimate = estimate(&long).unwrap();
    assert!(long_estimate > deadline * 8, "{long_estimate:?} vs deadline {deadline:?}");
    let addr = spawn_server(Arc::clone(&service), ServerOptions::default());
    let mut holder = Wire::connect(addr);
    holder.send(&[optimize_line(&long, None)]);
    await_service(&service, |s| s.snapshot().cache_misses == 2 && s.snapshot().queue_depth == 0);

    let n = 100;
    let cards: Vec<f64> = (0..n).map(|i| 10.0 + i as f64).collect();
    let preds: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 0.01)).collect();
    let line = format_optimize_request(&cards, &preds, ModelId::Kappa0, Some(deadline));
    let mut wire = Wire::connect(addr);
    let start = std::time::Instant::now();
    wire.send(&[line.clone(), "PING".to_string()]);
    let queued = wire.recv();
    let took = start.elapsed();
    assert_eq!(outcome(&queued), (Some("greedy_deadline"), Some("bypass")), "{queued}");
    assert!(took >= deadline, "answered after {took:?}, before its deadline");
    assert!(took < deadline * 3, "answered after {took:?}, {deadline:?} deadline");
    assert_eq!(wire.recv(), "OK pong");
    assert_eq!(service.snapshot().optimizations, 1, "the long DP was still running");

    // The queued job finds its request answered and does nothing.
    let long_reply = holder.recv();
    assert_eq!(outcome(&long_reply), (Some("exact"), Some("miss")), "{long_reply}");
    await_service(&service, |s| s.snapshot().queue_depth == 0);
    wire.assert_silent(Duration::from_millis(100));

    // On an idle worker the ladder starts at once and its wall clock
    // ends at the deadline.
    let start = std::time::Instant::now();
    wire.send(&[line]);
    let ran = wire.recv();
    let took = start.elapsed();
    assert!(response_field(&ran, "source").is_some_and(|s| s.starts_with("ladder_")), "{ran}");
    assert!(took < deadline * 3, "answered after {took:?}, {deadline:?} deadline");
    let snap = service.snapshot();
    assert_eq!((snap.ladder_runs, snap.fallback_deadline), (1, 1));
}

/// A client that pipelines requests and never reads its replies stops
/// being read once its replies back up, and is closed once they make no
/// progress for `write_timeout`: its slot and memory come back.
#[test]
fn a_flooding_non_reader_is_closed_after_the_write_timeout() {
    let service = Arc::new(OptimizerService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    }));
    let timeout = Duration::from_millis(300);
    let options = ServerOptions {
        write_timeout: Some(timeout),
        read_timeout: None,
        request_deadline: None,
        ..ServerOptions::default()
    };
    let addr = spawn_server(Arc::clone(&service), options);
    let stream = TcpStream::connect(addr).unwrap();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let start = std::time::Instant::now();
    std::thread::spawn(move || {
        // METRICS replies are ~1 KB each: the socket buffers fill fast.
        let chunk = "METRICS\n".repeat(512);
        let mut writer = &stream;
        let err = loop {
            if let Err(e) = writer.write_all(chunk.as_bytes()) {
                break e;
            }
        };
        done_tx.send(err).unwrap();
    });
    let err = done_rx.recv_timeout(Duration::from_secs(60)).expect("the server never closed it");
    assert!(
        matches!(err.kind(), ErrorKind::ConnectionReset | ErrorKind::BrokenPipe),
        "{err:?}"
    );
    assert!(start.elapsed() >= timeout);
    await_service(&service, |s| s.snapshot().live_connections == 0);
    // The server still serves.
    let mut client = Client::connect(addr).unwrap();
    assert!(client.ping().unwrap());
}

/// The full `METRICS` key set, in wire order: benchmarks and dashboards
/// parse these keys, so adding, renaming or dropping one must show up
/// here. The frontend counters count what they name (one batch per
/// connection per loop turn), `pool_steals` stays at 0, and queue wait
/// reaches both the wire line and the operator's summary.
#[test]
fn metrics_line_carries_exactly_the_documented_keys() {
    let service = Arc::new(OptimizerService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    }));
    let addr = spawn_server(Arc::clone(&service), ServerOptions::default());
    let mut client = Client::connect(addr).unwrap();
    assert!(client.ping().unwrap());
    assert!(client.request("OPTIMIZE cards=10,20,30 preds=0:1:0.1").unwrap().starts_with("OK "));
    let line = client.metrics().unwrap();
    let keys: Vec<&str> =
        line.split_whitespace().filter_map(|kv| kv.split_once('=').map(|(k, _)| k)).collect();
    let expected = "requests cache_hits cache_misses cache_shared cache_bypass optimizations \
        fallback_over_limit fallback_queue_full fallback_deadline fallback_abandoned \
        fallback_over_budget exact_cancelled threshold_passes split_loop_iters subsets_pruned \
        table_pool_hits table_pool_misses driver_conv driver_split ladder_runs \
        ladder_rung_greedy ladder_rung_exact ladder_rung_hybrid_dp ladder_rung_stochastic \
        ladder_refine_steps ladder_dp_blocks connections_accepted connections_refused \
        accept_transient_errors live_connections frontend_batches frontend_batch_lines \
        pool_steals queue_depth cached_plans queue_wait_p50_us queue_wait_p99_us \
        ladder_p99_us optimize_p50_us optimize_p99_us request_mean_us";
    assert_eq!(keys, expected.split_whitespace().collect::<Vec<_>>());
    for field in [
        "requests=1 ",
        "connections_accepted=1 connections_refused=0 accept_transient_errors=0",
        "live_connections=1 frontend_batches=2 frontend_batch_lines=2 pool_steals=0",
    ] {
        assert!(line.contains(field), "{field} missing from {line}");
    }
    let queue_wait: u64 = response_field(&line, "queue_wait_p99_us").unwrap().parse().unwrap();
    assert!(queue_wait > 0, "the exact job's queue wait was not recorded: {line}");
    let pretty = service.snapshot().to_string();
    assert!(pretty.contains("1 accepted / 0 refused / 1 live"), "{pretty}");
    assert!(pretty.contains("queue wait:          mean "), "{pretty}");
}
