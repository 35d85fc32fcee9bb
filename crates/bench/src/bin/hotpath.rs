//! Hot-path benchmark: the paper's reference configuration against the
//! service's production path.
//!
//! Times the κ0 join optimizer across the four workload topologies:
//!
//! * **serial AoS × scalar** — the paper's array-of-structs table and
//!   split loop in integer order, the reference every other
//!   configuration is verified against and the baseline every speed-up
//!   is reported against (AoS is serial-only: a parallel request on it
//!   runs this same fill);
//! * **hot/cold × scalar** — the cache-conscious layout alone, filled in
//!   popcount waves by one worker (`serial`, the calling thread) and by
//!   `BLITZ_THREADS` workers (`parallel`, chunked waves);
//! * **hot/cold × SIMD** — plus the CPU-selected vector kernel, in both
//!   modes;
//!
//! plus the **convolution DP driver** on hot/cold × SIMD in both modes —
//! the configuration the service runs.
//!
//! After the κ0 matrix, a **per-model convolution section** times the
//! conv driver against the subset-split driver (serial, hot/cold ×
//! SIMD) for every shipped cost model — κ0 rides conv natively, the
//! three κ″ models through the canonical-orientation path — at the
//! largest `n` of the sweep. Each pair is verified cost- and
//! cardinality-bit-identical before timing; the artifact gains a
//! `model_groups` array carrying the per-model speedups.
//!
//! Before any configuration is timed, its optimizer output is verified
//! cost-bit-, cardinality-bit-, and plan-identical to the serial
//! `AosTable` reference; a divergence aborts the run. Convolution-driver
//! configurations are exempt from the *plan*-identity check only: on
//! cost ties conv may keep a different (cost-equal) split, so their
//! plans are verified by re-costing to the reference's cost bits
//! instead. Results are written as JSON to `BENCH_hotpath.json`
//! (override with `BLITZ_HOTPATH_OUT`) and summarized as an ASCII table
//! on stdout.
//!
//! The artifact stamps the host it was measured on: `cores`, `cpu` (the
//! model name), `simd_kernel` (what `KernelChoice::Simd` resolves to),
//! and per row an `oversubscribed` flag when the row's threads exceed
//! the cores — such rows measure time-slicing, not parallel speed-up.
//!
//! Environment knobs: `BLITZ_MIN_N` (default 12), `BLITZ_MAX_N`
//! (default 16), `BLITZ_THREADS` (worker count for the parallel
//! configurations; default = available cores clamped to [2, 8]),
//! `BLITZ_BENCH_MIN_MS`, `BLITZ_BENCH_MAX_REPS`, and
//! `BLITZ_BENCH_ROUNDS` (default 5): configurations are timed in
//! interleaved rounds and each reports its minimum round, so that every
//! configuration samples the same host-noise windows — on small shared
//! machines, sequential per-config timing confounds the comparison with
//! whatever the host was doing during each config's window.
//!
//! With `--check`, nothing is timed and nothing is written: every
//! configuration is verified against the serial reference as usual, and
//! the reference's *deterministic* outputs (optimal cost bits and §3.3
//! counters) are then compared against the committed artifact for each
//! `(topology, n)` group the run covers. A mismatch, or a group missing
//! from the artifact, fails the run — so CI catches result drift without
//! churning timing numbers on every machine.

use blitz_bench::json::Json;
use blitz_bench::render::fmt_secs;
use blitz_bench::timing::{env_usize, min_over_rounds, rounds_from_env, time_avg, TimingConfig};
use blitz_bench::Table;
use blitz_catalog::{Topology, Workload};
use blitz_core::{
    optimize_join_into, optimize_join_with, AosTable, CostModel, Counters, DiskNestedLoops,
    DriveOptions, DriverChoice, JoinSpec, Kappa0, KernelChoice, LayoutChoice, Optimized, SmDnl,
    SortMerge, TableLayout,
};

/// One timed configuration of the optimizer. `mode` is the execution
/// mode (one worker vs several); `driver` is the DP recurrence
/// driver (subset-split vs layered convolution) — two independent axes.
#[derive(Copy, Clone)]
struct Config {
    mode: &'static str,
    layout: LayoutChoice,
    threads: usize,
    kernel: KernelChoice,
    driver: DriverChoice,
}

impl Config {
    fn options(&self) -> DriveOptions {
        // `parallel(1)` is one worker, the calling thread.
        DriveOptions::parallel(self.threads)
            .with_layout(self.layout)
            .with_kernel(self.kernel)
            .with_driver(self.driver)
    }

    fn label(&self) -> String {
        let mut label = format!("{}/{}/{}", self.mode, self.layout.name(), self.kernel.name());
        if self.driver != DriverChoice::Split {
            label.push('/');
            label.push_str(self.driver.name());
        }
        label
    }
}

/// Serial `AosTable` reference plus §3.3 execution counters for one
/// workload point.
struct Reference {
    optimized: Optimized,
    counters: Counters,
}

fn reference(spec: &JoinSpec) -> Reference {
    let mut counters = Counters::default();
    let table: AosTable = optimize_join_into::<AosTable, Kappa0, Counters, true>(
        spec,
        &Kappa0,
        f32::INFINITY,
        DriveOptions::serial(),
        &mut counters,
    );
    let full = spec.all_rels();
    let optimized = Optimized {
        plan: blitz_core::Plan::extract(&table, full),
        cost: table.cost(full),
        card: table.card(full),
    };
    Reference { optimized, counters }
}

/// Panics unless `got` matches the reference bit-for-bit. Conv-driver
/// configurations (`plan_exact == false`) are held to cost/card bit
/// equality and a re-cost of their (possibly tie-differing) plan
/// instead of plan identity.
fn verify(
    reference: &Reference,
    got: &Optimized,
    spec: &JoinSpec,
    plan_exact: bool,
    label: &str,
    topo: Topology,
    n: usize,
) {
    let r = &reference.optimized;
    assert_eq!(
        got.cost.to_bits(),
        r.cost.to_bits(),
        "{label} cost diverged from serial aos reference at {}/{n}",
        topo.name()
    );
    assert_eq!(
        got.card.to_bits(),
        r.card.to_bits(),
        "{label} cardinality diverged from serial aos reference at {}/{n}",
        topo.name()
    );
    if plan_exact {
        assert_eq!(
            got.plan, r.plan,
            "{label} plan diverged from serial aos reference at {}/{n}",
            topo.name()
        );
    } else {
        let (_, recost) = got.plan.cost(spec, &Kappa0);
        let tol = r.cost.abs() * 1e-4 + 1e-4;
        assert!(
            (recost - r.cost).abs() <= tol,
            "{label} plan re-costs to {recost}, reference {} at {}/{n}",
            r.cost,
            topo.name()
        );
    }
}

fn counters_json(c: &Counters) -> Json {
    Json::obj(vec![
        ("loop_iters", Json::Num(c.loop_iters as f64)),
        ("subsets", Json::Num(c.subsets as f64)),
        ("kappa_ind_evals", Json::Num(c.kappa_ind_evals as f64)),
        ("kappa_dep_evals", Json::Num(c.kappa_dep_evals as f64)),
        ("cond_hits", Json::Num(c.cond_hits as f64)),
        ("loops_skipped", Json::Num(c.loops_skipped as f64)),
        ("passes", Json::Num(c.passes as f64)),
    ])
}

fn threads_from_env(cores: usize) -> usize {
    std::env::var("BLITZ_THREADS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| cores.clamp(2, 8))
}

/// `model name` from `/proc/cpuinfo`, or `unknown` where there is none.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                l.strip_prefix("model name")?.split_once(':').map(|(_, v)| v.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The fields of one committed `(topology, n)` group that a fresh run
/// must reproduce exactly. Timing fields are machine-dependent and
/// deliberately not part of this.
fn check_group(committed: &Json, topo: Topology, n: usize, reference: &Reference) -> Vec<String> {
    let mut problems = Vec::new();
    let Some(group) = committed.get("groups").and_then(Json::as_arr).and_then(|groups| {
        groups.iter().find(|g| {
            g.get("topology").and_then(Json::as_str) == Some(topo.name())
                && g.get("n").and_then(Json::as_f64) == Some(n as f64)
        })
    }) else {
        problems.push(format!("{}/{n}: no group in the committed artifact", topo.name()));
        return problems;
    };
    let want_bits = f64::from(reference.optimized.cost.to_bits());
    if group.get("cost_bits").and_then(Json::as_f64) != Some(want_bits) {
        problems.push(format!(
            "{}/{n}: cost_bits {:?} != freshly computed {want_bits}",
            topo.name(),
            group.get("cost_bits").and_then(Json::as_f64),
        ));
    }
    let counters = counters_json(&reference.counters);
    let Json::Obj(want) = &counters else { unreachable!("counters_json builds an object") };
    for (key, value) in want {
        let got = group.get("counters").and_then(|c| c.get(key)).and_then(Json::as_f64);
        if got != value.as_f64() {
            problems.push(format!(
                "{}/{n}: counter `{key}` {got:?} != freshly computed {:?}",
                topo.name(),
                value.as_f64(),
            ));
        }
    }
    problems
}

/// One row of the per-model convolution section: times the conv driver
/// against the subset-split driver for `model` on one workload point
/// (serial, hot/cold layout, SIMD kernel), after verifying the two
/// produce bit-identical cost and cardinality. Pushes a table row and
/// returns the JSON record.
fn conv_model_row<M: CostModel + Sync>(
    model: &M,
    spec: &JoinSpec,
    topo: Topology,
    n: usize,
    cfg: TimingConfig,
    rounds: usize,
    table: &mut Table,
) -> Json {
    let split_opts = DriveOptions::serial()
        .with_layout(LayoutChoice::HotCold)
        .with_kernel(KernelChoice::Simd)
        .with_driver(DriverChoice::Split);
    let conv_opts = split_opts.with_driver(DriverChoice::Conv);
    assert!(
        model.conv_support().allows_conv(),
        "{}: every shipped model is expected to ride the conv driver",
        model.name()
    );
    let split = optimize_join_with(spec, model, split_opts).unwrap();
    let conv = optimize_join_with(spec, model, conv_opts).unwrap();
    assert_eq!(
        conv.cost.to_bits(),
        split.cost.to_bits(),
        "{} conv cost diverged from split at {}/{n}",
        model.name(),
        topo.name()
    );
    assert_eq!(
        conv.card.to_bits(),
        split.card.to_bits(),
        "{} conv cardinality diverged from split at {}/{n}",
        model.name(),
        topo.name()
    );

    let opts = [split_opts, conv_opts];
    let best = min_over_rounds(2, rounds, |i| {
        time_avg(
            || {
                let _ = optimize_join_with(spec, model, opts[i]).unwrap();
            },
            cfg,
        )
    });
    let (split_secs, conv_secs) = (best[0], best[1]);
    let speedup = split_secs / conv_secs;
    table.row(vec![
        model.name().to_string(),
        model.conv_support().name().to_string(),
        fmt_secs(split_secs),
        fmt_secs(conv_secs),
        format!("{speedup:.2}x"),
    ]);
    Json::obj(vec![
        ("model", Json::str(model.name())),
        ("conv_support", Json::str(model.conv_support().name())),
        ("topology", Json::str(topo.name())),
        ("n", Json::Num(n as f64)),
        ("mode", Json::str("serial")),
        ("layout", Json::str(LayoutChoice::HotCold.name())),
        ("kernel", Json::str(KernelChoice::Simd.name())),
        ("split_ns", Json::Num(split_secs * 1e9)),
        ("conv_ns", Json::Num(conv_secs * 1e9)),
        ("conv_speedup_vs_split", Json::Num(speedup)),
        ("verified", Json::Bool(true)),
    ])
}

fn main() {
    let check_mode = std::env::args().skip(1).any(|a| a == "--check");
    let min_n = env_usize("BLITZ_MIN_N", 12);
    let max_n = env_usize("BLITZ_MAX_N", 16).min(20).max(min_n);
    let cfg = TimingConfig::from_env();
    let rounds = rounds_from_env();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let threads = threads_from_env(cores);
    let out_path =
        std::env::var("BLITZ_HOTPATH_OUT").unwrap_or_else(|_| "BENCH_hotpath.json".to_string());

    let configs: Vec<Config> = {
        let serial = Config {
            mode: "serial",
            layout: LayoutChoice::Aos,
            threads: 1,
            kernel: KernelChoice::Scalar,
            driver: DriverChoice::Split,
        };
        let parallel = Config { mode: "parallel", threads, ..serial };
        // Parallel AoS is absent: only hot/cold runs waves, so it would
        // time the serial reference again.
        let mut v = vec![serial];
        for mode in [serial, parallel] {
            v.push(Config { layout: LayoutChoice::HotCold, ..mode });
            v.push(Config { layout: LayoutChoice::HotCold, kernel: KernelChoice::Simd, ..mode });
        }
        for mode in [serial, parallel] {
            v.push(Config {
                layout: LayoutChoice::HotCold,
                kernel: KernelChoice::Simd,
                driver: DriverChoice::Conv,
                ..mode
            });
        }
        v
    };
    // The paper's configuration, first in the sweep.
    let baseline = configs[0];
    let simd_kernel = KernelChoice::Simd.resolved_name();
    let cpu = cpu_model();

    println!("Hot-path benchmark (kappa_0, mean card 100, var 0.5)");
    println!(
        "machine reports {cores} core(s), cpu {cpu:?}, simd kernel {simd_kernel}; \
         parallel configurations use {threads} worker(s)\n"
    );

    let committed = if check_mode {
        let text = std::fs::read_to_string(&out_path).unwrap_or_else(|e| {
            eprintln!("--check: cannot read committed artifact {out_path}: {e}");
            std::process::exit(2);
        });
        Some(Json::parse(&text).unwrap_or_else(|e| {
            eprintln!("--check: committed artifact {out_path} is not valid JSON: {e}");
            std::process::exit(2);
        }))
    } else {
        None
    };
    let mut problems: Vec<String> = Vec::new();
    let mut checked_groups = 0usize;

    let mut groups = Vec::new();
    for topo in Topology::ALL {
        for n in min_n..=max_n {
            let spec = Workload::new(n, topo, 100.0, 0.5).spec();
            let reference = reference(&spec);
            let subsets = (1u64 << n) as f64;

            // Verify every configuration before timing anything, so a
            // divergence cannot hide behind a completed timing run.
            for c in &configs {
                let got = optimize_join_with(&spec, &Kappa0, c.options()).unwrap();
                let plan_exact = c.driver != DriverChoice::Conv;
                verify(&reference, &got, &spec, plan_exact, &c.label(), topo, n);
            }

            if let Some(committed) = &committed {
                let found = check_group(committed, topo, n, &reference);
                if found.is_empty() {
                    println!("-- {} n={n}: all configs verified, matches artifact", topo.name());
                } else {
                    for p in &found {
                        eprintln!("--check: {p}");
                    }
                }
                problems.extend(found);
                checked_groups += 1;
                continue;
            }

            // Interleaved rounds, each configuration's minimum: all
            // configurations sample the same host-noise windows.
            let best = min_over_rounds(configs.len(), rounds, |i| {
                time_avg(
                    || {
                        let _ = optimize_join_with(&spec, &Kappa0, configs[i].options()).unwrap();
                    },
                    cfg,
                )
            });
            let baseline_secs = best[0];

            let mut table = Table::new(["config", "time", "ns/subset", "vs serial aos"]);
            let mut config_json = Vec::new();
            for (c, &secs) in configs.iter().zip(&best) {
                let ns_total = secs * 1e9;
                let speedup = baseline_secs / secs;
                table.row(vec![
                    c.label(),
                    fmt_secs(secs),
                    format!("{:.1}", ns_total / subsets),
                    format!("{speedup:.2}x"),
                ]);
                config_json.push(Json::obj(vec![
                    ("mode", Json::str(c.mode)),
                    ("layout", Json::str(c.layout.name())),
                    ("threads", Json::Num(c.threads as f64)),
                    ("oversubscribed", Json::Bool(c.threads > cores)),
                    ("kernel", Json::str(c.kernel.name())),
                    ("driver", Json::str(c.driver.name())),
                    ("ns_total", Json::Num(ns_total)),
                    ("ns_per_subset", Json::Num(ns_total / subsets)),
                    ("speedup_vs_baseline", Json::Num(speedup)),
                    ("verified", Json::Bool(true)),
                ]));
            }
            println!("-- {} n={n}", topo.name());
            println!("{}", table.render());

            groups.push(Json::obj(vec![
                ("topology", Json::str(topo.name())),
                ("n", Json::Num(n as f64)),
                ("cost", Json::Num(reference.optimized.cost as f64)),
                ("cost_bits", Json::Num(reference.optimized.cost.to_bits() as f64)),
                ("counters", counters_json(&reference.counters)),
                ("baseline", Json::str(baseline.label())),
                ("configs", Json::Arr(config_json)),
            ]));
        }
    }

    if check_mode {
        if problems.is_empty() {
            println!(
                "hotpath --check: {checked_groups} group(s) verified against {out_path}; \
                 no drift"
            );
            return;
        }
        eprintln!("hotpath --check: {} problem(s) against {out_path}", problems.len());
        std::process::exit(1);
    }

    // Per-model convolution section: every shipped cost model rides the
    // conv driver (κ0 natively, the κ″ models through the canonical-
    // orientation path), timed against the subset-split driver on the
    // same layout/kernel at the largest n of the sweep.
    println!("-- per-model conv vs split (serial/hotcold/simd, n={max_n})");
    let mut model_groups = Vec::new();
    for topo in Topology::ALL {
        let spec = Workload::new(max_n, topo, 100.0, 0.5).spec();
        let mut table = Table::new(["model", "conv support", "split", "conv", "conv vs split"]);
        let rows = vec![
            conv_model_row(&Kappa0, &spec, topo, max_n, cfg, rounds, &mut table),
            conv_model_row(&SortMerge, &spec, topo, max_n, cfg, rounds, &mut table),
            conv_model_row(
                &DiskNestedLoops::default(),
                &spec,
                topo,
                max_n,
                cfg,
                rounds,
                &mut table,
            ),
            conv_model_row(&SmDnl::default(), &spec, topo, max_n, cfg, rounds, &mut table),
        ];
        println!("-- {} n={max_n}", topo.name());
        println!("{}", table.render());
        model_groups.push(Json::obj(vec![
            ("topology", Json::str(topo.name())),
            ("n", Json::Num(max_n as f64)),
            ("models", Json::Arr(rows)),
        ]));
    }

    let doc = Json::obj(vec![
        ("bench", Json::str("hotpath")),
        ("model", Json::str("kappa0")),
        ("cores", Json::Num(cores as f64)),
        ("cpu", Json::str(cpu)),
        ("simd_kernel", Json::str(simd_kernel)),
        ("threads", Json::Num(threads as f64)),
        (
            "timing",
            Json::obj(vec![
                ("min_ms", Json::Num(cfg.min_total.as_millis() as f64)),
                ("max_reps", Json::Num(cfg.max_reps as f64)),
                ("rounds", Json::Num(rounds as f64)),
                ("stat", Json::str("min over interleaved rounds of in-round averages")),
            ]),
        ),
        ("verified", Json::Bool(true)),
        ("groups", Json::Arr(groups)),
        ("model_groups", Json::Arr(model_groups)),
    ]);
    std::fs::write(&out_path, doc.render()).expect("write benchmark JSON");
    println!("wrote {out_path}");
}
