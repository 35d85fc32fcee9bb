//! `service` — the wire-level service benchmark.
//!
//! ```text
//! bash servicebench/run.sh --workload hot_repeat --seed 1 --seconds 20 --trace 0
//! service [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//! service --check            # deterministic fields vs servicebench/expected.json
//! service --write-expected   # regenerate that file
//! ```
//!
//! `run.sh` builds `blitzsplit` and this harness into one target directory
//! (`$CARGO_TARGET_DIR`, default `.bench_build`) and runs the harness,
//! which finds the server binary next to its own executable. Each run
//! spawns `blitzsplit serve --addr 127.0.0.1:0 --workers 2 --threads 2
//! --max-rels 20 --cache N [--ladder --budget-ms 10000]`; the server only
//! ever sees the generated request lines. Load comes from this process:
//! one thread and one connection per stream, two of each.
//!
//! ## Workloads
//!
//! Every pool entry's shape (n, topology, cost model) is fixed by its
//! index; the seed draws the statistics, draw order and relabelings.
//!
//! | name | load | why |
//! |---|---|---|
//! | `hot_repeat` | 2 closed loops, Zipf(1) over 512 queries (n = 4–12, all four models), each request a random relabeling; `--cache 1024`, warmed so every timed request hits | frontend, wire, fingerprint and cache do the work and the DP none: request-path changes show here |
//! | `cold_exact` | 2 closed loops, each cycling its half of 96 queries (n = 13–16 × chain/cycle+3/star/clique × 4 models); `--cache 0` (8 slots), so every request misses | the exact DP does nearly all the work: a DP change shows here and a request-path change should not |
//! | `mixed_deadline` | S: closed loop, uniform over 4096 queries (n = 6–10), `--cache 1024` (≈25% hits, the rest insert and evict); B: open loop at 2 req/s of unique n = 17 κ₀ star/clique queries with `deadline_ms=25`, timed from their due time | cache writes and evictions beside reads, and deadline fallbacks whose exact jobs keep running: S queues behind dead work (cancellation and work-priced admission show here) |
//! | `big_ladder` | 2 closed loops cycling 64 queries (n ∈ {24, 40, 40, 64, 100} × chain/cycle+3/star/sparse random × κ₀/κ_sm); `--ladder --budget-ms 10000`, so work budgets bind and answers are deterministic | the anytime ladder does the work; a faster ladder with worse plans shows in `plan_cost_ratio` |
//!
//! A clique of 100 relations does not fit the 64 KiB request line, so
//! `big_ladder`'s fourth shape is a random graph of average degree 3.
//! Cardinalities are drawn from 10³–10⁴ and selectivities key-join-like
//! (see `workload.rs`): over a wider range the threshold pruning, and so
//! the DP time of the heaviest queries, swings from seed to seed.
//!
//! ## End-to-end metrics (`--trace 0`)
//!
//! An untraced run is four segments. Each starts a fresh server, sets it
//! up (spawn, first `PING`, warm-up pass) and measures a quarter of
//! `--seconds`; each metric is the median over the segments:
//! `throughput_rps` (replies per second), `latency_p50_ms` and
//! `latency_p99_ms` (primary streams: all but B), `server_cpu_ms_per_req`
//! (server utime + stime per reply), `server_rss_mb` (server `VmHWM`) and
//! `setup_s`. Two pool the whole run: `big_latency_p50_ms` (the heaviest
//! class — n ≥ 11, n = 16, stream B, n = 100 — which B sends only twice a
//! second) and `plan_cost_ratio` (geomean over answered pool entries of
//! returned cost ÷ GOO cost, deterministic per seed). The printout adds
//! the sample counts, the highest percentile they support, the error
//! share and the degraded share; errors are the result line's `failed`.
//! Error and degraded shares are 0 on most workloads, so they are
//! reported but not bounded metrics.
//!
//! ## Per-layer metrics (`--trace 1`) and what they should move
//!
//! | per-layer | source | should move |
//! |---|---|---|
//! | `frontend.rtt_minus_service_us`, `frontend.lines_per_batch`, `share.frontend` | live server | `hot_repeat` latency_p50_ms, throughput_rps |
//! | `wire.parse_us`, `wire.format_us` | replay spans | `hot_repeat` latency_p50_ms |
//! | `fingerprint.canon_us`, `fingerprint.relabel_us` | replay spans | `hot_repeat` latency_p50_ms |
//! | `cache.lookup_us`; `cache.hit_ratio`, `cache.shared` | spans; live `METRICS` | `hot_repeat` throughput_rps; `mixed_deadline` latency_p99_ms |
//! | `pool.queue_wait_us`, `pool.queue_depth_max`; `pool.steals` | spans; live `METRICS` | `mixed_deadline` and `cold_exact` latency_p99_ms |
//! | `tables.take_us`, `tables.hit_ratio` | replay | `cold_exact` latency_p50_ms, server_rss_mb |
//! | `dp.ms_per_query`, `dp.ns_per_subset`, `dp.loop_iters_per_query`, `dp.kappa_dep_evals_per_query`, `dp.passes_per_query`, `dp.conv_share` | replay (`Counters`) | `cold_exact` throughput_rps, latency_p50_ms, server_cpu_ms_per_req |
//! | `dp.dead_ms_per_s` | replay | `mixed_deadline` latency_p99_ms, server_cpu_ms_per_req |
//! | `extract.us` | replay spans | `cold_exact` latency_p50_ms |
//! | `ladder.ms_per_query`, `ladder.refine_steps_per_query`, `ladder.dp_blocks_per_query`, `ladder.rung_share.*` | replay | `big_ladder` throughput_rps, plan_cost_ratio |
//! | `greedy.us_per_query` | replay spans | `mixed_deadline` big_latency_p50_ms |
//! | `service.handle_line_us`, `trace.replay_fidelity`, `trace.overhead_pct` | in-process passes | (checks on the replay itself) |
//! | `share.<layer>` | replay self time ÷ request time | the layer's workload above |
//!
//! The traced run spends half of `--seconds` on a live window (frontend
//! and the server's counters) and a sixth each on three in-process
//! passes: `server::handle_line` on an `OptimizerService`, the replay
//! without spans, and the replay with spans. Its spans go to
//! `<target>/servicebench/<workload>.trace.json`. `trace.requests` is the
//! number of requests behind the span statistics.
//!
//! ## Bounds and measured spread
//!
//! Spread is the interquartile range ÷ median of ten 20 s runs with
//! seeds 1–10, measured as two sets (A, B) alternating seed by seed on a
//! 2-vCPU Xeon VM; B/A compares the two sets' medians
//! (`python3 servicebench/spread.py --runs 10 --sets 2`):
//!
//! | metric | hot_repeat | cold_exact | mixed_deadline | big_ladder | worst B/A | bound |
//! |---|---|---|---|---|---|---|
//! | throughput_rps | 0.09 / 0.16 | 0.10 / 0.11 | 0.11 / 0.22 | 0.08 / 0.06 | 0.966 | 0.25 |
//! | latency_p50_ms | 0.08 / 0.13 | 0.11 / 0.12 | 0.11 / 0.20 | 0.10 / 0.09 | 1.048 | 0.25 |
//! | latency_p99_ms | 0.12 / 0.18 | 0.12 / 0.16 | 0.09 / 0.20 | 0.16 / 0.19 | 0.918 | 0.25 |
//! | big_latency_p50_ms | 0.09 / 0.13 | 0.09 / 0.12 | 0.004 / 0.005 | 0.10 / 0.08 | 0.967 | 0.25 |
//! | plan_cost_ratio | 0.012 | 0.028 | 0.002 | 0.014 | 1.000 | 0.15 |
//! | server_cpu_ms_per_req | 0.10 / 0.14 | 0.12 / 0.12 | 0.11 / 0.23 | 0.08 / 0.07 | 0.967 | 0.25 |
//! | server_rss_mb | 0.015 / 0.014 | 0.007 / 0.006 | 0.005 / 0.009 | 0.016 / 0.007 | 0.997 | 0.10 |
//! | setup_s | 0.05 / 0.16 | 0.18 / 0.20 | 0.15 / 0.19 | 0.18 / 0.09 | 0.958 | 0.25 |
//!
//! The timing spread comes from the host, not the harness: a fixed
//! single-thread spin loop on it varies by up to ±15% between half-second
//! slices, and over minutes the whole machine drifts — one ten-run series
//! saw `mixed_deadline` throughput fall steadily from 6914 to 4696 req/s
//! while server CPU per reply rose with it. Server CPU time does not
//! escape this (the guest sees no steal time). Twenty-second windows,
//! medians over four fresh-server segments and key-join statistics over
//! one decade of cardinalities removed what the harness and the seeds
//! contributed (one 10 s window per run gave up to 0.29); the rest is why every
//! timing bound is 0.25, the largest allowed, and `setup_s` shares it.
//! `plan_cost_ratio` is fixed per seed, so its spread is the seeds' alone.
//! No metric is dropped: each workload's spread stays within its bound.

use blitz_bench::Json;
use blitz_servicebench::check::references;
use blitz_servicebench::host::Host;
use blitz_servicebench::report::{self, deterministic, drift, expected_document};
use blitz_servicebench::run::{self, Metric};
use blitz_servicebench::server::server_binary;
use blitz_servicebench::stats::{highest_supported_percentile, percentile};
use blitz_servicebench::trace;
use blitz_servicebench::workload::{Instance, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// The committed deterministic fields `--check` compares against.
const EXPECTED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");
/// The seed `expected.json` pins.
const EXPECTED_SEED: u64 = 1;

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traces: Vec<bool>,
    check: bool,
    write_expected: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 30.0,
        traces: vec![false, true],
        check: false,
        write_expected: false,
    };
    let mut traces_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                o.workloads = match v.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![Workload::parse(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?],
                };
            }
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "--seconds must be a number")?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                traces_given = true;
                o.traces = match value()?.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    _ => return Err("--trace must be 0 or 1".into()),
                };
            }
            "--check" => o.check = true,
            "--write-expected" => o.write_expected = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !traces_given && o.workloads.len() == 1 {
        o.traces = vec![false];
    }
    Ok(o)
}

/// `<target>/servicebench`, beside the target's `release` directory.
fn artifact_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    let target = exe
        .parent()
        .and_then(Path::parent)
        .unwrap_or(Path::new("."));
    target.join("servicebench")
}

fn write(path: &Path, json: &Json) {
    let result = std::fs::create_dir_all(path.parent().unwrap_or(Path::new(".")))
        .and_then(|()| std::fs::write(path, json.render()));
    if let Err(e) = result {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// `--check` / `--write-expected`: recompute the seed-1 pools and
/// references and compare them with (or store them in) `expected.json`.
fn expected_fields(write_it: bool) -> ExitCode {
    let fresh = expected_document(
        EXPECTED_SEED,
        Workload::ALL
            .iter()
            .map(|&w| {
                let inst = Instance::new(w, EXPECTED_SEED);
                let refs = references(&inst, &w.service_config());
                (w, deterministic(&inst, &refs))
            })
            .collect(),
    );
    if write_it {
        write(Path::new(EXPECTED), &fresh);
        println!("wrote {EXPECTED}");
        return ExitCode::SUCCESS;
    }
    let committed = match std::fs::read_to_string(EXPECTED)
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t))
    {
        Ok(j) => j,
        Err(e) => {
            eprintln!("--check: cannot read {EXPECTED}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let problems = drift("expected", &committed, &fresh);
    if problems.is_empty() {
        println!("service --check: deterministic fields match {EXPECTED}");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("--check: {p}");
        }
        eprintln!(
            "service --check: {} drift(s) against {EXPECTED}",
            problems.len()
        );
        ExitCode::FAILURE
    }
}

/// Run one workload traced or untraced; print its report and write its
/// artifact. Returns (attempted, failed, metrics).
fn run_one(
    launch: &run::Launcher<'_>,
    host: &Host,
    w: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> std::io::Result<(u64, u64, Vec<Metric>)> {
    let config = w.service_config();
    let inst = Instance::new(w, seed);
    let refs = references(&inst, &config);
    let threads = config.workers * config.parallelism;
    let mut artifact = vec![
        ("workload", Json::str(w.name())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("traced", Json::Bool(traced)),
        ("host", host.to_json()),
        (
            "server_args",
            Json::Arr(w.server_args().into_iter().map(Json::Str).collect()),
        ),
        ("oversubscribed", Json::Bool(host.oversubscribed(threads))),
        ("deterministic", deterministic(&inst, &refs)),
    ];
    let (tally, metrics) = if traced {
        let t = run::traced(launch, &inst, &refs, seconds)?;
        println!(
            "service/{} traced (seed {seed}, {} spans)",
            w.name(),
            t.spans.len()
        );
        write(
            &artifact_dir().join(format!("{}.trace.json", w.name())),
            &trace::to_json(&t.spans, 2000),
        );
        (t.tally, t.metrics)
    } else {
        let e = run::end_to_end(launch, &inst, &refs, Duration::from_secs_f64(seconds))?;
        let primary: Vec<usize> = e
            .segments
            .iter()
            .map(|m| m.samples.iter().filter(|s| s.primary).count())
            .collect();
        let replies: usize = e.segments.iter().map(|m| m.samples.len()).sum();
        let mut late: Vec<f64> = e
            .segments
            .iter()
            .flat_map(|m| &m.samples)
            .filter(|s| !s.primary)
            .map(|s| s.late_us)
            .collect();
        late.sort_by(f64::total_cmp);
        let least = primary.iter().copied().min().unwrap_or(0);
        println!(
            "service/{} (seed {seed}, {} segments of {:.1} s): {replies} replies, primary per \
             segment {primary:?} (highest percentile each supports: {})",
            w.name(),
            e.segments.len(),
            seconds / e.segments.len() as f64,
            highest_supported_percentile(least).map_or("none".to_string(), |p| format!("p{p}")),
        );
        let t = &e.tally;
        let attempted = t.attempted.max(1) as f64;
        println!(
            "  error_share {:.6} ({} of {}), degraded_share {:.6}",
            t.failed as f64 / attempted,
            t.failed,
            t.attempted,
            t.degraded as f64 / attempted,
        );
        if !late.is_empty() {
            println!(
                "  open-loop sends late by p50 {:.0} us, max {:.0} us",
                percentile(&late, 50.0),
                late.last().copied().unwrap_or(0.0)
            );
        }
        artifact.push(("replies", Json::Num(replies as f64)));
        artifact.push(("degraded", Json::Num(t.degraded as f64)));
        // Each metric is the median of these: one value per segment (per
        // set-up for setup_s), or one pooled over the run.
        let mut values = Vec::new();
        for (m, v) in e.metrics.iter().zip(&e.values) {
            println!("  {:<36} of {v:.6?}", m.name);
            values.push((
                m.name.clone(),
                Json::Arr(v.iter().map(|&x| Json::Num(x)).collect()),
            ));
        }
        artifact.push(("values", Json::Obj(values)));
        (e.tally, e.metrics)
    };
    print!("{}", report::table(&metrics));
    for f in &tally.failures {
        println!("  FAILED: {f}");
    }
    artifact.push(("attempted", Json::Num(tally.attempted as f64)));
    artifact.push(("failed", Json::Num(tally.failed as f64)));
    artifact.push((
        "failures",
        Json::Arr(tally.failures.iter().cloned().map(Json::Str).collect()),
    ));
    artifact.push(("metrics", report::metrics_json(&metrics)));
    let name = if traced {
        format!("{}.layers.json", w.name())
    } else {
        format!("{}.json", w.name())
    };
    write(&artifact_dir().join(name), &Json::obj(artifact));
    Ok((tally.attempted, tally.failed, metrics))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("service: {e}");
            return ExitCode::from(2);
        }
    };
    if o.check || o.write_expected {
        return expected_fields(o.write_expected);
    }
    let binary = match server_binary() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("service: {e}");
            return ExitCode::from(2);
        }
    };
    let host = Host::probe();
    let launch = run::process_launcher(&binary);
    let (mut attempted, mut failed, mut all) = (0, 0, Vec::new());
    let several = o.workloads.len() * o.traces.len() > 1;
    for &traced in &o.traces {
        for &w in &o.workloads {
            match run_one(&launch, &host, w, o.seed, o.seconds, traced) {
                Ok((a, f, metrics)) => {
                    attempted += a;
                    failed += f;
                    all.extend(metrics.into_iter().map(|m| Metric {
                        name: if several {
                            format!("{}.{}", w.name(), m.name)
                        } else {
                            m.name
                        },
                        ..m
                    }));
                }
                Err(e) => {
                    eprintln!("service/{}: {e}", w.name());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    println!("{}", report::result_line(attempted, failed, &all));
    ExitCode::SUCCESS
}
