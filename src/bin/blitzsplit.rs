//! `blitzsplit` — command-line join-order optimizer.
//!
//! ```text
//! blitzsplit optimize --cards 10,20,30,40 --pred 0:1:0.1 --pred 0:2:0.2 \
//!                     [--model k0|sm|dnl|smdnl] [--threshold 1e9] [--threads N] [--dot]
//! blitzsplit optimize --ladder --cards ... [--pred i:j:sel]... [--budget-ms N] \
//!                     [--refine-steps N] [--dp-window K] [--dp-rounds R] [--seed S]
//! blitzsplit sql "SELECT * FROM sales s, customer c WHERE s.custkey = c.custkey"
//! blitzsplit workload --topology chain|cycle3|star|clique --n 15 --mu 100 --var 0.5 [--time]
//! blitzsplit serve  [--addr 127.0.0.1:7878] [--max-conns N] \
//!                   [--workers N] [--cache N] [--max-rels N] [--threads N] \
//!                   [--ladder] [--budget-ms N] [--refine-steps N] [--dp-window K] \
//!                   [--dp-rounds R] [--seed S]
//! blitzsplit client --addr HOST:PORT --cards 10,20,30 [--pred i:j:sel]... [--model ...] \
//!                   [--deadline-ms N]
//! blitzsplit client --addr HOST:PORT --metrics
//! ```
//!
//! Every exact optimization runs under `ServiceConfig::drive_options`,
//! as the server's do (the table layout, kernel and driver of
//! `ServiceConfig::default()`, and wave helper threads only on large
//! queries; `--threads` sets the wave worker count), so a one-shot answer is
//! the server's answer. Without `--threshold` it also runs the server's
//! threshold schedule, one pass capped by greedy GOO's plan
//! (`certified_schedule`); `--threshold T` runs the paper's schedule
//! from `T` instead. Every exact run prints its `passes:`. A subcommand
//! answers any flag it does not take with an error.
//!
//! `optimize` takes an explicit problem; with `--ladder` it runs the
//! anytime optimality ladder (exact → block DP → stochastic under a
//! budget, any size up to 128 relations) and reports the rung reached
//! and the optimality gap. `sql` parses against the built-in demo
//! retail catalog; `workload` generates a paper-Appendix benchmark
//! point and optionally times its optimization; `serve` runs the
//! concurrent optimizer service (plan cache, worker pool, admission
//! control, metrics — with `--ladder`, over-limit queries are served by
//! the ladder instead of degrading to greedy) on a TCP line protocol
//! through one readiness loop, and `client` talks to it.

use blitzsplit::catalog::{demo_retail_catalog, parse_query, Topology, Workload};
use blitzsplit::core::{CostModel, MAX_RELS};
use blitzsplit::ladder::{optimize_ladder, BigSpec, LadderConfig};
use blitzsplit::service::server::{format_optimize_request, response_field};
use blitzsplit::service::{
    certified_schedule, Client, LadderSettings, ModelId, OptimizerService, Server,
    ServerOptions, ServiceConfig,
};
use blitzsplit::{
    optimize_join_threshold_with, DiskNestedLoops, JoinSpec, Kappa0, SmDnl, SortMerge,
    ThresholdSchedule,
};
use std::process::ExitCode;
use std::sync::Arc;

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!();
    eprintln!("usage:");
    eprintln!("  blitzsplit optimize --cards C1,C2,... [--pred i:j:sel]... \\");
    eprintln!("             [--model k0|sm|dnl|smdnl] [--threshold T] [--threads N] [--dot]");
    eprintln!("  blitzsplit optimize --ladder --cards C1,C2,... [--pred i:j:sel]... \\");
    eprintln!("             [--model ...] [--budget-ms N] [--refine-steps N] \\");
    eprintln!("             [--dp-window K] [--dp-rounds R] [--seed S] [--max-rels N]");
    eprintln!("  blitzsplit sql \"SELECT ...\" [--model ...] [--threshold T] \\");
    eprintln!("             [--threads N] [--dot]");
    eprintln!("  blitzsplit workload --topology chain|cycle3|star|clique \\");
    eprintln!("             --n N [--mu M] [--var V] [--model ...] [--threshold T] \\");
    eprintln!("             [--threads N] [--time] [--dot]");
    eprintln!("  blitzsplit serve [--addr 127.0.0.1:7878] [--max-conns N] \\");
    eprintln!("             [--workers N] [--cache N] [--max-rels N] [--threads N] \\");
    eprintln!("             [--ladder] [--budget-ms N] \\");
    eprintln!("             [--refine-steps N] [--dp-window K] [--dp-rounds R] [--seed S]");
    eprintln!("  blitzsplit client --addr HOST:PORT (--metrics | --cards C1,C2,... \\");
    eprintln!("             [--pred i:j:sel]... [--model ...] [--deadline-ms N])");
    ExitCode::FAILURE
}

/// The flags each subcommand takes, switches included. Any other flag
/// is an error, so a misspelt or removed flag is never ignored silently.
const FLAGS: &[(&str, &[&str])] = &[
    (
        "optimize",
        &[
            "cards", "pred", "model", "threshold", "threads", "dot", "ladder", "budget-ms",
            "refine-steps", "dp-window", "dp-rounds", "seed", "max-rels",
        ],
    ),
    ("sql", &["model", "threshold", "threads", "dot"]),
    ("workload", &["topology", "n", "mu", "var", "model", "threshold", "threads", "time", "dot"]),
    (
        "serve",
        &[
            "addr", "max-conns", "workers", "cache", "max-rels", "threads", "ladder", "budget-ms",
            "refine-steps", "dp-window", "dp-rounds", "seed",
        ],
    ),
    ("client", &["addr", "cards", "pred", "model", "deadline-ms", "metrics"]),
];

/// Minimal flag parser: `--key value` pairs plus repeatable `--pred`.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Args {
        let mut a = Args { positional: Vec::new(), flags: Vec::new(), switches: Vec::new() };
        let mut i = 0;
        while i < argv.len() {
            let arg = &argv[i];
            if let Some(key) = arg.strip_prefix("--") {
                // Switches take no value.
                if matches!(key, "dot" | "time" | "metrics" | "ladder") {
                    a.switches.push(key.to_string());
                    i += 1;
                } else if i + 1 < argv.len() {
                    a.flags.push((key.to_string(), argv[i + 1].clone()));
                    i += 2;
                } else {
                    a.flags.push((key.to_string(), String::new()));
                    i += 1;
                }
            } else {
                a.positional.push(arg.clone());
                i += 1;
            }
        }
        a
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn get_all(&self, key: &str) -> Vec<&str> {
        self.flags.iter().filter(|(k, _)| k == key).map(|(_, v)| v.as_str()).collect()
    }

    fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// Every flag and switch given, without the leading `--`.
    fn names(&self) -> impl Iterator<Item = &str> {
        self.flags.iter().map(|(k, _)| k.as_str()).chain(self.switches.iter().map(String::as_str))
    }
}

fn parse_cards(s: &str) -> Result<Vec<f64>, String> {
    s.split(',')
        .map(|c| c.trim().parse::<f64>())
        .collect::<Result<Vec<f64>, _>>()
        .map_err(|_| "--cards must be a comma-separated list of numbers".to_string())
}

fn parse_preds(args: &Args) -> Result<Vec<(usize, usize, f64)>, String> {
    let mut preds = Vec::new();
    for p in args.get_all("pred") {
        let parts: Vec<&str> = p.split(':').collect();
        let parsed = (|| -> Option<(usize, usize, f64)> {
            if parts.len() != 3 {
                return None;
            }
            Some((parts[0].parse().ok()?, parts[1].parse().ok()?, parts[2].parse().ok()?))
        })();
        match parsed {
            Some(t) => preds.push(t),
            None => return Err(format!("bad --pred {p:?} (expected i:j:selectivity)")),
        }
    }
    Ok(preds)
}

/// Optimize `spec` exactly and print the answer: under the paper's
/// schedule from `--threshold T`, else under the certified schedule the
/// server runs. With `time`, the run's wall time is printed first (the
/// certificate's greedy plan included); with `dot`, the plan as
/// Graphviz last.
fn report<M: CostModel + Sync>(
    spec: &JoinSpec,
    model: &M,
    threshold: Option<f32>,
    service: &ServiceConfig,
    (dot, time): (bool, bool),
) -> ExitCode {
    let start = std::time::Instant::now();
    let schedule = match threshold {
        Some(t) => ThresholdSchedule::new(t, 1e5, 6),
        None => certified_schedule(spec, model),
    };
    let options = service.drive_options(spec.n());
    let out = match optimize_join_threshold_with(spec, model, schedule, options) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if time {
        println!("optimization time ({}): {:?}", model.name(), start.elapsed());
    }
    let (optimized, passes) = (out.optimized, out.passes);
    println!("model:          {}", model.name());
    println!("relations:      {}", spec.n());
    println!("predicates:     {}", spec.edge_count());
    println!("plan:           {}", optimized.plan);
    println!("cost:           {:.6e}", optimized.cost);
    println!("result rows:    {:.6e}", optimized.card);
    println!("bushy:          {}", !optimized.plan.is_left_deep());
    println!("uses product:   {}", optimized.plan.contains_cartesian_product(spec));
    println!("passes:         {passes}");
    if dot {
        println!("\n{}", optimized.plan.to_dot());
    }
    ExitCode::SUCCESS
}

fn ladder_report<M: CostModel + Sync>(
    spec: &BigSpec,
    model: &M,
    cfg: &LadderConfig,
    dot: bool,
) -> ExitCode {
    let report = optimize_ladder(spec, model, cfg);
    println!("model:          {}", model.name());
    println!("relations:      {}", spec.n());
    println!("predicates:     {}", spec.edge_count());
    println!("plan:           {}", report.plan);
    println!("cost:           {:.6e}", report.cost);
    println!("result rows:    {:.6e}", report.card);
    println!("rung:           {} (reached {})", report.rung.name(), report.rung_reached.name());
    println!("gap:            {:+.4e} vs {}", report.gap, report.gap_basis.name());
    println!("greedy cost:    {:.6e}", report.greedy_cost);
    println!(
        "budget spent:   {} refine steps, {} dp blocks, {:?}",
        report.spent.refine_steps, report.spent.dp_blocks, report.spent.elapsed
    );
    if dot {
        if spec.n() <= MAX_RELS {
            println!("\n{}", report.plan.to_dot());
        } else {
            eprintln!("note: --dot is unavailable beyond {MAX_RELS} relations");
        }
    }
    ExitCode::SUCCESS
}

fn with_ladder_model(
    name: &str,
    spec: &BigSpec,
    cfg: &LadderConfig,
    dot: bool,
) -> Result<ExitCode, String> {
    match name {
        "k0" => Ok(ladder_report(spec, &Kappa0, cfg, dot)),
        "sm" => Ok(ladder_report(spec, &SortMerge, cfg, dot)),
        "dnl" => Ok(ladder_report(spec, &DiskNestedLoops::default(), cfg, dot)),
        "smdnl" => Ok(ladder_report(spec, &SmDnl::default(), cfg, dot)),
        other => Err(format!("unknown cost model {other:?} (expected k0|sm|dnl|smdnl)")),
    }
}

/// Parse the ladder budget flags shared by `optimize --ladder` and
/// `serve --ladder` into one config; `None` on a malformed flag (the
/// caller reports which).
fn parse_ladder_flags(args: &Args) -> Result<LadderConfig, String> {
    let mut cfg = LadderConfig::default();
    if let Some(b) = args.get("budget-ms") {
        match b.parse::<u64>() {
            Ok(ms) => cfg.wall_clock = Some(std::time::Duration::from_millis(ms)),
            Err(_) => return Err("--budget-ms must be an integer".to_string()),
        }
    }
    if let Some(r) = args.get("refine-steps") {
        match r.parse::<u64>() {
            Ok(r) => cfg.refine_steps = r,
            Err(_) => return Err("--refine-steps must be a non-negative integer".to_string()),
        }
    }
    if let Some(w) = args.get("dp-window") {
        match w.parse::<usize>() {
            Ok(w) if w >= 2 => cfg.dp_window = w,
            _ => return Err("--dp-window must be an integer ≥ 2".to_string()),
        }
    }
    if let Some(r) = args.get("dp-rounds") {
        match r.parse::<usize>() {
            Ok(r) => cfg.dp_rounds = r,
            Err(_) => return Err("--dp-rounds must be a non-negative integer".to_string()),
        }
    }
    if let Some(s) = args.get("seed") {
        match s.parse::<u64>() {
            Ok(s) => cfg.seed = s,
            Err(_) => return Err("--seed must be an integer".to_string()),
        }
    }
    if let Some(m) = args.get("max-rels") {
        match m.parse::<usize>() {
            Ok(m) if m >= 1 => cfg.max_exact_rels = m,
            _ => return Err("--max-rels must be a positive integer".to_string()),
        }
    }
    Ok(cfg)
}

fn with_model(
    name: &str,
    spec: &JoinSpec,
    threshold: Option<f32>,
    service: &ServiceConfig,
    flags: (bool, bool),
) -> Result<ExitCode, String> {
    match name {
        "k0" => Ok(report(spec, &Kappa0, threshold, service, flags)),
        "sm" => Ok(report(spec, &SortMerge, threshold, service, flags)),
        "dnl" => Ok(report(spec, &DiskNestedLoops::default(), threshold, service, flags)),
        "smdnl" => Ok(report(spec, &SmDnl::default(), threshold, service, flags)),
        other => Err(format!("unknown cost model {other:?} (expected k0|sm|dnl|smdnl)")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().cloned() else {
        return fail("missing subcommand");
    };
    let args = Args::parse(&argv[1..]);
    if let Some((_, takes)) = FLAGS.iter().find(|(name, _)| *name == cmd) {
        if let Some(flag) = args.names().find(|f| !takes.contains(f)) {
            return fail(&format!("{cmd} does not take --{flag}"));
        }
    }
    let model = args.get("model").unwrap_or("k0").to_string();
    let threshold = match args.get("threshold").map(|t| t.parse::<f32>()) {
        None => None,
        Some(Ok(t)) if t > 0.0 && t.is_finite() => Some(t),
        Some(_) => return fail("--threshold must be a positive number"),
    };
    let dot = args.has("dot");
    // The output switches of an exact run: `--dot` and `--time`.
    let flags = (dot, args.has("time"));
    // The service's configuration: a one-shot optimization runs the
    // DP the server would run, so its answer is the server's answer.
    let mut service = ServiceConfig::default();
    if let Some(t) = args.get("threads") {
        // 0 = auto-detect, 1 = serial, N = that many wave workers.
        match t.parse::<usize>() {
            Ok(t) => service.parallelism = t,
            _ => return fail("--threads must be a non-negative integer"),
        }
    }

    match cmd.as_str() {
        "optimize" => {
            let Some(cards_s) = args.get("cards") else {
                return fail("optimize requires --cards");
            };
            let cards = match parse_cards(cards_s) {
                Ok(c) => c,
                Err(e) => return fail(&e),
            };
            let preds = match parse_preds(&args) {
                Ok(p) => p,
                Err(e) => return fail(&e),
            };
            if args.has("ladder") {
                let spec = match BigSpec::new(&cards, &preds) {
                    Ok(s) => s,
                    Err(e) => return fail(&e.to_string()),
                };
                let cfg = match parse_ladder_flags(&args) {
                    Ok(c) => c,
                    Err(e) => return fail(&e),
                };
                return with_ladder_model(&model, &spec, &cfg, dot).unwrap_or_else(|e| fail(&e));
            }
            let spec = match JoinSpec::new(&cards, &preds) {
                Ok(s) => s,
                Err(e) => return fail(&e.to_string()),
            };
            with_model(&model, &spec, threshold, &service, flags).unwrap_or_else(|e| fail(&e))
        }
        "sql" => {
            let Some(query) = args.positional.first() else {
                return fail("sql requires a query string");
            };
            let catalog = demo_retail_catalog();
            let parsed = match parse_query(&catalog, query) {
                Ok(p) => p,
                Err(e) => return fail(&e.to_string()),
            };
            println!("-- parsed {} relations, {} predicates (after saturation)",
                parsed.graph.n(), parsed.saturated_predicates.len());
            let spec = match parsed.graph.to_spec() {
                Ok(s) => s,
                Err(e) => return fail(&e.to_string()),
            };
            with_model(&model, &spec, threshold, &service, flags).unwrap_or_else(|e| fail(&e))
        }
        "workload" => {
            let topo = match args.get("topology").unwrap_or("chain") {
                "chain" => Topology::Chain,
                "cycle3" => Topology::CyclePlus3,
                "star" => Topology::Star,
                "clique" => Topology::Clique,
                other => return fail(&format!("unknown topology {other:?}")),
            };
            let n: usize = match args.get("n").unwrap_or("15").parse() {
                Ok(n) if (1..=20).contains(&n) => n,
                _ => return fail("--n must be in 1..=20"),
            };
            let mu: f64 = match args.get("mu").unwrap_or("100").parse() {
                Ok(m) if m >= 1.0 => m,
                _ => return fail("--mu must be ≥ 1"),
            };
            let var: f64 = match args.get("var").unwrap_or("0.5").parse() {
                Ok(v) if (0.0..=1.0).contains(&v) => v,
                _ => return fail("--var must be in [0,1]"),
            };
            let spec = Workload::new(n, topo, mu, var).spec();
            with_model(&model, &spec, threshold, &service, flags).unwrap_or_else(|e| fail(&e))
        }
        "serve" => {
            let addr = args.get("addr").unwrap_or("127.0.0.1:7878").to_string();
            let mut config = service;
            if let Some(w) = args.get("workers") {
                match w.parse::<usize>() {
                    Ok(w) if w >= 1 => config.workers = w,
                    _ => return fail("--workers must be a positive integer"),
                }
            }
            if let Some(c) = args.get("cache") {
                match c.parse::<usize>() {
                    Ok(c) => config.cache_capacity = c,
                    _ => return fail("--cache must be a non-negative integer"),
                }
            }
            if let Some(m) = args.get("max-rels") {
                match m.parse::<usize>() {
                    Ok(m) if m >= 1 => config.max_exact_rels = m,
                    _ => return fail("--max-rels must be a positive integer"),
                }
            }
            if args.has("ladder") {
                let lc = match parse_ladder_flags(&args) {
                    Ok(c) => c,
                    Err(e) => return fail(&e),
                };
                config.ladder = Some(LadderSettings {
                    dp_window: lc.dp_window,
                    dp_rounds: lc.dp_rounds,
                    refine_steps: lc.refine_steps,
                    seed: lc.seed,
                    budget: lc.wall_clock.or(LadderSettings::default().budget),
                });
            }
            let mut options = ServerOptions::default();
            if let Some(m) = args.get("max-conns") {
                match m.parse::<usize>() {
                    Ok(m) => options.max_connections = m,
                    _ => return fail("--max-conns must be a non-negative integer (0 = no cap)"),
                }
            }
            let service = Arc::new(OptimizerService::new(config));
            let server = match Server::bind_with(addr.as_str(), service, options) {
                Ok(s) => s,
                Err(e) => return fail(&format!("cannot bind {addr}: {e}")),
            };
            match server.local_addr() {
                Ok(bound) => println!("listening on {bound}"),
                Err(e) => return fail(&e.to_string()),
            }
            match server.run() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => fail(&format!("server error: {e}")),
            }
        }
        "client" => {
            let Some(addr) = args.get("addr") else {
                return fail("client requires --addr HOST:PORT");
            };
            let mut client = match Client::connect(addr) {
                Ok(c) => c,
                Err(e) => return fail(&format!("cannot connect to {addr}: {e}")),
            };
            if args.has("metrics") {
                return match client.metrics() {
                    Ok(m) => {
                        println!("{m}");
                        ExitCode::SUCCESS
                    }
                    Err(e) => fail(&format!("metrics request failed: {e}")),
                };
            }
            let Some(cards_s) = args.get("cards") else {
                return fail("client requires --cards (or --metrics)");
            };
            let cards = match parse_cards(cards_s) {
                Ok(c) => c,
                Err(e) => return fail(&e),
            };
            let preds = match parse_preds(&args) {
                Ok(p) => p,
                Err(e) => return fail(&e),
            };
            let Some(model_id) = ModelId::parse(&model) else {
                return fail(&format!("unknown cost model {model:?} (expected k0|sm|dnl|smdnl)"));
            };
            let deadline = match args.get("deadline-ms").map(|d| d.parse::<u64>()) {
                None => None,
                Some(Ok(ms)) => Some(std::time::Duration::from_millis(ms)),
                Some(Err(_)) => return fail("--deadline-ms must be an integer"),
            };
            let line = format_optimize_request(&cards, &preds, model_id, deadline);
            let resp = match client.request(&line) {
                Ok(r) => r,
                Err(e) => return fail(&format!("request failed: {e}")),
            };
            if let Some(err) = resp.strip_prefix("ERR ") {
                return fail(&format!("server: {err}"));
            }
            println!("model:          {model_id}");
            println!("relations:      {}", cards.len());
            println!("predicates:     {}", preds.len());
            for (label, key) in [
                ("plan:          ", "plan"),
                ("cost:          ", "cost"),
                ("result rows:   ", "card"),
                ("source:        ", "source"),
                ("source detail: ", "source_detail"),
                ("cache:         ", "cache"),
                ("passes:        ", "passes"),
                ("server micros: ", "micros"),
            ] {
                match response_field(&resp, key) {
                    Some(value) => println!("{label} {value}"),
                    None => return fail(&format!("malformed server response: {resp}")),
                }
            }
            // Ladder provenance, when the server ran the anytime ladder.
            for (label, key) in [
                ("rung:          ", "rung"),
                ("rung reached:  ", "rung_reached"),
                ("gap:           ", "gap"),
                ("gap basis:     ", "gap_basis"),
                ("greedy cost:   ", "greedy_cost"),
                ("refine steps:  ", "refine_steps"),
                ("dp blocks:     ", "dp_blocks"),
                ("ladder micros: ", "ladder_micros"),
            ] {
                if let Some(value) = response_field(&resp, key) {
                    println!("{label} {value}");
                }
            }
            ExitCode::SUCCESS
        }
        other => fail(&format!("unknown subcommand {other:?}")),
    }
}
