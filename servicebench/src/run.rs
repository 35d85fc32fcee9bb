//! One benchmark run of one workload: set-up, the timed window and the
//! end-to-end metrics, or the traced run and its per-layer metrics.

use crate::check::Expected;
use crate::load::{self, drive, warm_up, Direct, Measured, Opened, Sample, Tally};
use crate::replay::Layers;
use crate::server::{get, ServerProcess};
use crate::stats::{geomean, median, percentile};
use crate::trace::{self, Span, Tracer};
use crate::workload::{Instance, Workload};
use blitz_service::{server::handle_line, OptimizerService};
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Segments per untraced run. Each starts a fresh server, sets it up
/// and measures a quarter of the window; every end-to-end metric is the
/// median over segments, so neither a burst of outside load nor one
/// process's unlucky thread placement decides the result.
pub const SEGMENTS: usize = 4;

/// Spans a traced pass keeps before it stops early.
const SPAN_CAPACITY: usize = 400_000;

/// A named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// The end-to-end metrics, in report order, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("big_latency_p50_ms", "ms"),
    ("plan_cost_ratio", "ratio"),
    ("server_cpu_ms_per_req", "ms"),
    ("server_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// A server the harness can start for a workload.
pub struct Launched {
    /// Where it listens.
    pub addr: SocketAddr,
    /// Its process id (`None`: this process).
    pub pid: Option<u32>,
    _process: Option<ServerProcess>,
}

/// Starts a fresh server for a workload.
pub type Launcher<'a> = dyn Fn(Workload) -> io::Result<Launched> + 'a;

/// A launcher for the `blitzsplit` binary at `binary`.
pub fn process_launcher(binary: &Path) -> impl Fn(Workload) -> io::Result<Launched> + '_ {
    move |w| {
        let process = ServerProcess::spawn(binary, w)?;
        Ok(Launched {
            addr: process.addr,
            pid: Some(process.pid()),
            _process: Some(process),
        })
    }
}

/// A launcher for an in-process [`blitz_service::Server`] (tests).
pub fn in_process_launcher() -> impl Fn(Workload) -> io::Result<Launched> {
    |w| {
        let service = Arc::new(OptimizerService::new(w.service_config()));
        let server = blitz_service::Server::bind("127.0.0.1:0", service)?;
        let (addr, _serving) = server.spawn()?;
        Ok(Launched {
            addr,
            pid: None,
            _process: None,
        })
    }
}

/// Start a server, `PING` it and run the warm-up pass; the set-up time
/// covers all three.
fn set_up(
    launch: &Launcher<'_>,
    inst: &Instance,
    refs: &[Expected],
    opened: &Opened,
    tally: &mut Tally,
) -> io::Result<(Launched, f64)> {
    let w = inst.workload;
    let max_exact = w.service_config().max_exact_rels;
    let started = Instant::now();
    let server = launch(w)?;
    if !opened.connect(server.addr)?.ping()? {
        return Err(io::Error::other("server did not answer PING"));
    }
    tally.merge(warm_up(
        &opened.to(server.addr),
        inst,
        refs,
        max_exact,
        &w.warmup(),
    ));
    Ok((server, started.elapsed().as_secs_f64()))
}

/// The result of an untraced run.
pub struct EndToEnd {
    /// Each segment's timed window.
    pub segments: Vec<Measured>,
    /// Attempts, failures and answers over every set-up and segment.
    pub tally: Tally,
    /// The values each end-to-end metric is the median of.
    pub values: Vec<Vec<f64>>,
    /// The end-to-end metrics.
    pub metrics: Vec<Metric>,
}

/// [`SEGMENTS`] times: start a server, set it up, and measure a
/// `window / SEGMENTS` against it.
pub fn end_to_end(
    launch: &Launcher<'_>,
    inst: &Instance,
    refs: &[Expected],
    window: Duration,
) -> io::Result<EndToEnd> {
    let max_exact = inst.workload.service_config().max_exact_rels;
    let mut tally = Tally::new(inst.pool.len());
    let (mut setups, mut segments) = (Vec::new(), Vec::new());
    for _ in 0..SEGMENTS {
        let opened = Opened::default();
        let (server, secs) = set_up(launch, inst, refs, &opened, &mut tally)?;
        setups.push(secs);
        let length = window / SEGMENTS as u32;
        let mut m = load::measure(
            server.addr,
            server.pid,
            &opened,
            inst,
            refs,
            max_exact,
            length,
        )?;
        tally.merge(std::mem::take(&mut m.tally));
        segments.push(m);
    }
    tally.settle_deferred(inst, refs, max_exact);
    let values = end_to_end_values(refs, &segments, &tally, &setups);
    let metrics = END_TO_END
        .iter()
        .zip(&values)
        .map(|(&(name, unit), v)| metric(name, unit, median(v)))
        .collect();
    Ok(EndToEnd {
        segments,
        tally,
        values,
        metrics,
    })
}

fn latencies_us<'a>(samples: impl Iterator<Item = &'a Sample>) -> Vec<f64> {
    let mut v: Vec<f64> = samples.map(|s| s.latency_us).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Geomean over answered pool entries of returned cost ÷ greedy cost.
pub fn plan_cost_ratio(returned: &[Option<f32>], refs: &[Expected]) -> f64 {
    let ratios: Vec<f64> = returned
        .iter()
        .zip(refs)
        .filter_map(|(r, e)| Some(f64::from((*r)?) / f64::from(e.greedy)))
        .collect();
    geomean(&ratios)
}

/// Each end-to-end metric's values, in [`END_TO_END`] order: one per
/// segment (set-up for `setup_s`), or one pooled over the run for the
/// heavy class's latency (few samples: 2/s on stream B) and the plan-cost
/// ratio. The metric is the median of its values.
fn end_to_end_values(
    refs: &[Expected],
    segments: &[Measured],
    tally: &Tally,
    setups: &[f64],
) -> Vec<Vec<f64>> {
    let each = |f: &dyn Fn(&Measured) -> f64| segments.iter().map(f).collect::<Vec<_>>();
    let primary = |m: &Measured, q: f64| {
        percentile(&latencies_us(m.samples.iter().filter(|s| s.primary)), q) / 1e3
    };
    let big = latencies_us(segments.iter().flat_map(|m| &m.samples).filter(|s| s.big));
    vec![
        each(&|m| m.samples.len() as f64 / m.window.as_secs_f64()),
        each(&|m| primary(m, 50.0)),
        each(&|m| primary(m, 99.0)),
        vec![percentile(&big, 50.0) / 1e3],
        vec![plan_cost_ratio(&tally.returned, refs)],
        each(&|m| m.cpu_ms / m.samples.len().max(1) as f64),
        each(&|m| m.rss_peak_mb),
        setups.to_vec(),
    ]
}

/// The per-layer metrics, with their units and which way is better.
pub const PER_LAYER: [(&str, &str, &str); 54] = [
    ("frontend.rtt_minus_service_us.p50", "us", "lower"),
    ("frontend.rtt_minus_service_us.p99", "us", "lower"),
    ("frontend.lines_per_batch", "count", "higher"),
    ("wire.parse_us.p50", "us", "lower"),
    ("wire.parse_us.p99", "us", "lower"),
    ("wire.format_us.p50", "us", "lower"),
    ("wire.format_us.p99", "us", "lower"),
    ("fingerprint.canon_us.p50", "us", "lower"),
    ("fingerprint.canon_us.p99", "us", "lower"),
    ("fingerprint.relabel_us.p50", "us", "lower"),
    ("fingerprint.relabel_us.p99", "us", "lower"),
    ("cache.lookup_us.p50", "us", "lower"),
    ("cache.lookup_us.p99", "us", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.shared", "ratio", "higher"),
    ("pool.queue_wait_us.p50", "us", "lower"),
    ("pool.queue_wait_us.p99", "us", "lower"),
    ("pool.steals", "count", "lower"),
    ("pool.queue_depth_max", "count", "lower"),
    ("tables.take_us.p50", "us", "lower"),
    ("tables.take_us.p99", "us", "lower"),
    ("tables.hit_ratio", "ratio", "higher"),
    ("dp.ms_per_query", "ms", "lower"),
    ("dp.ns_per_subset", "ns", "lower"),
    ("dp.loop_iters_per_query", "count", "lower"),
    ("dp.kappa_dep_evals_per_query", "count", "lower"),
    ("dp.passes_per_query", "count", "lower"),
    ("dp.conv_share", "ratio", "higher"),
    ("dp.dead_ms_per_s", "ms/s", "lower"),
    ("extract.us.p50", "us", "lower"),
    ("extract.us.p99", "us", "lower"),
    ("ladder.ms_per_query", "ms", "lower"),
    ("ladder.refine_steps_per_query", "count", "lower"),
    ("ladder.dp_blocks_per_query", "count", "lower"),
    ("ladder.rung_share.greedy", "ratio", "lower"),
    ("ladder.rung_share.hybrid_dp", "ratio", "higher"),
    ("ladder.rung_share.stochastic", "ratio", "higher"),
    ("greedy.us_per_query", "us", "lower"),
    ("service.handle_line_us.p50", "us", "lower"),
    ("service.handle_line_us.p99", "us", "lower"),
    ("trace.replay_fidelity", "ratio", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("share.frontend", "ratio", "lower"),
    ("share.wire", "ratio", "lower"),
    ("share.fingerprint", "ratio", "lower"),
    ("share.cache", "ratio", "lower"),
    ("share.pool", "ratio", "lower"),
    ("share.tables", "ratio", "lower"),
    ("share.dp", "ratio", "lower"),
    ("share.extract", "ratio", "lower"),
    ("share.ladder", "ratio", "lower"),
    ("share.greedy", "ratio", "lower"),
    ("share.unattributed", "ratio", "lower"),
    ("trace.requests", "count", "higher"),
];

/// One in-process pass over the request streams.
pub struct Pass {
    /// Timed replies.
    pub samples: Vec<Sample>,
    /// How long the pass measured.
    pub elapsed: Duration,
}

impl Pass {
    /// Replies per second.
    pub fn rate(&self) -> f64 {
        self.samples.len() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Warm `serve` up, then drive the streams through it for `length`.
fn pass(
    inst: &Instance,
    refs: &[Expected],
    length: Duration,
    serve: &(dyn Fn(u64, &str) -> String + Sync),
    after_warm_up: &dyn Fn(),
    stop: &(dyn Fn() -> bool + Sync),
    tally: &mut Tally,
) -> Pass {
    let max_exact = inst.workload.service_config().max_exact_rels;
    let connect = || Ok(Box::new(Direct(serve)) as Box<dyn load::Conn>);
    tally.merge(warm_up(
        &connect,
        inst,
        refs,
        max_exact,
        &inst.workload.warmup(),
    ));
    after_warm_up();
    let start = Instant::now() + Duration::from_millis(20);
    let (samples, t, elapsed) = drive(&connect, inst, refs, max_exact, start, length, stop);
    tally.merge(t);
    Pass { samples, elapsed }
}

/// The result of a traced run.
pub struct Traced {
    /// Attempts and failures over the live window and every pass.
    pub tally: Tally,
    /// The traced pass's spans.
    pub spans: Vec<Span>,
    /// The per-layer metrics.
    pub metrics: Vec<Metric>,
}

/// The traced run: a live window of half of `seconds` for the frontend
/// and the server's counters, then three in-process passes of a sixth
/// each — `handle_line` on an `OptimizerService`, the replay without
/// spans, and the replay with spans.
pub fn traced(
    launch: &Launcher<'_>,
    inst: &Instance,
    refs: &[Expected],
    seconds: f64,
) -> io::Result<Traced> {
    let w = inst.workload;
    let config = w.service_config();
    let max_exact = config.max_exact_rels;
    let mut tally = Tally::new(inst.pool.len());

    let opened = Opened::default();
    let (server, _) = set_up(launch, inst, refs, &opened, &mut tally)?;
    let live = load::measure(
        server.addr,
        server.pid,
        &opened,
        inst,
        refs,
        max_exact,
        Duration::from_secs_f64(seconds / 2.0),
    )?;
    drop(server);
    tally.merge(live.tally.clone());

    let length = Duration::from_secs_f64(seconds / 6.0);
    let service = OptimizerService::new(config.clone());
    let direct = pass(
        inst,
        refs,
        length,
        &|_, l| handle_line(&service, l),
        &|| {},
        &|| false,
        &mut tally,
    );
    drop(service);

    let quiet = Layers::new(config.clone(), Arc::new(Tracer::new(false, 0)));
    let untraced = pass(
        inst,
        refs,
        length,
        &|id, l| quiet.serve(id, l),
        &|| quiet.drain(),
        &|| false,
        &mut tally,
    );
    quiet.drain();
    drop(quiet);

    let tracer = Arc::new(Tracer::new(true, SPAN_CAPACITY));
    let layers = Layers::new(config, Arc::clone(&tracer));
    let reset = || {
        layers.drain();
        layers.counts.reset();
        tracer.take();
    };
    let traced = pass(
        inst,
        refs,
        length,
        &|id, l| layers.serve(id, l),
        &reset,
        &|| tracer.full(),
        &mut tally,
    );
    layers.drain();
    let spans = tracer.take();
    tally.settle_deferred(inst, refs, max_exact);

    let metrics = per_layer_metrics(&live, &direct, &untraced, &traced, &layers, &spans);
    Ok(Traced {
        tally,
        spans,
        metrics,
    })
}

fn per_layer_metrics(
    live: &Measured,
    direct: &Pass,
    untraced: &Pass,
    traced: &Pass,
    layers: &Layers,
    spans: &[Span],
) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut push = |name: &str, value: f64| {
        let unit = PER_LAYER
            .iter()
            .find(|m| m.0 == name)
            .map_or("count", |m| m.1);
        out.push(metric(
            name,
            unit,
            if value.is_finite() { value } else { 0.0 },
        ));
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let tails = |push: &mut dyn FnMut(&str, f64), name: &str, sorted: &[f64]| {
        push(&format!("{name}.p50"), percentile(sorted, 50.0));
        push(&format!("{name}.p99"), percentile(sorted, 99.0));
    };

    // Frontend: the live server's round trip minus its own service time.
    let mut gap: Vec<f64> = live
        .samples
        .iter()
        .map(|s| s.latency_us - s.late_us - s.service_us)
        .collect();
    gap.sort_by(f64::total_cmp);
    tails(&mut push, "frontend.rtt_minus_service_us", &gap);
    let delta = |k: &str| get(&live.after, k) - get(&live.before, k);
    push(
        "frontend.lines_per_batch",
        ratio(delta("frontend_batch_lines"), delta("frontend_batches")),
    );
    let rtt: f64 = live.samples.iter().map(|s| s.latency_us - s.late_us).sum();
    push("share.frontend", ratio(gap.iter().sum(), rtt));

    for (metric_name, span) in [
        ("wire.parse_us", "wire.parse"),
        ("wire.format_us", "wire.format"),
        ("fingerprint.canon_us", "fingerprint.canon"),
        ("fingerprint.relabel_us", "fingerprint.relabel"),
        ("cache.lookup_us", "cache.lookup"),
    ] {
        tails(&mut push, metric_name, &trace::durations_us(spans, span));
    }
    let lookups = delta("cache_hits") + delta("cache_misses") + delta("cache_shared");
    push("cache.hit_ratio", ratio(delta("cache_hits"), lookups));
    push("cache.shared", ratio(delta("cache_shared"), lookups));

    let c = &layers.counts;
    tails(
        &mut push,
        "pool.queue_wait_us",
        &trace::durations_us(spans, "pool.queue_wait"),
    );
    push("pool.steals", delta("pool_steals"));
    push(
        "pool.queue_depth_max",
        c.queue_depth_max.load(Relaxed) as f64,
    );
    tails(
        &mut push,
        "tables.take_us",
        &trace::durations_us(spans, "tables.take"),
    );
    let (hits, misses) = (
        c.table_hits.load(Relaxed) as f64,
        c.table_misses.load(Relaxed) as f64,
    );
    push("tables.hit_ratio", ratio(hits, hits + misses));

    let dp = trace::durations_us(spans, "dp");
    let runs = c.dp_runs.load(Relaxed) as f64;
    let counters = *c.counters.lock().expect("counter lock poisoned");
    let dp_us: f64 = dp.iter().sum();
    push("dp.ms_per_query", ratio(dp_us / 1e3, dp.len() as f64));
    push(
        "dp.ns_per_subset",
        ratio(dp_us * 1e3, counters.subsets as f64),
    );
    push(
        "dp.loop_iters_per_query",
        ratio(counters.loop_iters as f64, runs),
    );
    push(
        "dp.kappa_dep_evals_per_query",
        ratio(counters.kappa_dep_evals as f64, runs),
    );
    push("dp.passes_per_query", ratio(counters.passes as f64, runs));
    push("dp.conv_share", ratio(c.dp_conv.load(Relaxed) as f64, runs));
    let pass_s = traced.elapsed.as_secs_f64();
    push(
        "dp.dead_ms_per_s",
        ratio(c.dead_ns.load(Relaxed) as f64 / 1e6, pass_s),
    );
    tails(
        &mut push,
        "extract.us",
        &trace::durations_us(spans, "extract"),
    );

    let ladder = trace::durations_us(spans, "ladder");
    let ladder_runs = c.ladder_runs.load(Relaxed) as f64;
    push(
        "ladder.ms_per_query",
        ratio(ladder.iter().sum::<f64>() / 1e3, ladder.len() as f64),
    );
    push(
        "ladder.refine_steps_per_query",
        ratio(c.ladder_refine_steps.load(Relaxed) as f64, ladder_runs),
    );
    push(
        "ladder.dp_blocks_per_query",
        ratio(c.ladder_dp_blocks.load(Relaxed) as f64, ladder_runs),
    );
    for (name, rung) in [("greedy", 0), ("hybrid_dp", 2), ("stochastic", 3)] {
        let wins = c.ladder_rungs[rung].load(Relaxed) as f64;
        push(
            &format!("ladder.rung_share.{name}"),
            ratio(wins, ladder_runs),
        );
    }
    let greedy = trace::durations_us(spans, "greedy");
    push(
        "greedy.us_per_query",
        ratio(greedy.iter().sum(), greedy.len() as f64),
    );

    let mut handle: Vec<f64> = direct
        .samples
        .iter()
        .map(|s| s.latency_us - s.late_us)
        .collect();
    handle.sort_by(f64::total_cmp);
    tails(&mut push, "service.handle_line_us", &handle);
    let roots = trace::durations_us(spans, "request");
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    push("trace.replay_fidelity", ratio(mean(&roots), mean(&handle)));
    push(
        "trace.overhead_pct",
        100.0 * (1.0 - ratio(traced.rate(), untraced.rate())),
    );

    let shares = trace::layer_shares(spans);
    for layer in [
        "wire",
        "fingerprint",
        "cache",
        "pool",
        "tables",
        "dp",
        "extract",
        "ladder",
        "greedy",
        "unattributed",
    ] {
        push(
            &format!("share.{layer}"),
            shares.get(layer).copied().unwrap_or(0.0),
        );
    }
    push("trace.requests", roots.len() as f64);
    out.sort_by_key(|m| PER_LAYER.iter().position(|p| p.0 == m.name));
    out
}
