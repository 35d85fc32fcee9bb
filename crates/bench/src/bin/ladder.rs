//! Anytime-ladder quality benchmark: achieved cost ratio per rung and
//! proposal budget.
//!
//! For every workload point the ladder is run in a fixed set of
//! configurations that pin the climb at each rung:
//!
//! * **greedy** — rung 0 only (`dp_rounds = 0`, `refine_steps = 0`,
//!   exact gate closed): the GOO seed every later rung must beat;
//! * **exact** — default config on points with `n ≤ 18`, where rung 1
//!   answers; verified bit-identical to `optimize_join_with` before
//!   anything is timed;
//! * **hybrid** — exact gate closed, sliding-window block DP only
//!   (`refine_steps = 0`);
//! * **stoch@B** — the full ladder with the exact gate closed and a
//!   rung-3 proposal budget of `B` steps, for each budget in the sweep.
//!
//! Each configuration reports its plan cost as a *ratio against the
//! point's basis* — the exact optimum where one is computable
//! (`n ≤ 18`), the greedy seed beyond that — exactly the gap semantics
//! the serving path reports. Ratios against greedy are also emitted for
//! every point so the small and large regimes can be read on one axis.
//!
//! Sizes default to `n ∈ {10, 14, 18}` against the exact basis and
//! `n ∈ {24, 40, 64, 100}` against the greedy basis, across all four
//! Appendix topologies under κ0. Results go to `BENCH_ladder.json`
//! (override with `BLITZ_LADDER_OUT`) plus an ASCII table per point.
//!
//! With `--check`, nothing is timed and nothing is written: every
//! configuration runs and is verified as usual, and every deterministic
//! field of each `(topology, n)` group the run covers — the basis and
//! greedy costs, and each configuration's cost, ratios, rung,
//! `rung_reached`, `refine_steps_spent` and `dp_blocks` — must equal the
//! committed artifact's exactly. Only `secs` is ignored. A mismatch, or
//! a group or configuration missing from the artifact, fails the run.
//!
//! Environment knobs: `BLITZ_LADDER_SMALL` / `BLITZ_LADDER_LARGE`
//! (comma-separated size lists), `BLITZ_LADDER_BUDGETS` (comma-separated
//! rung-3 step budgets; default `2000,8000,32000`), and the shared
//! timing discipline of the other binaries — `BLITZ_BENCH_MIN_MS`,
//! `BLITZ_BENCH_MAX_REPS`, and `BLITZ_BENCH_ROUNDS` (default 5):
//! configurations are timed in interleaved rounds and each reports its
//! minimum round, so every configuration samples the same host-noise
//! windows.

use blitz_bench::json::Json;
use blitz_bench::render::fmt_secs;
use blitz_bench::timing::{min_over_rounds, rounds_from_env, time_avg, TimingConfig};
use blitz_bench::Table;
use blitz_catalog::{Topology, Workload};
use blitz_core::{optimize_join_with, DriveOptions, Kappa0};
use blitz_ladder::{optimize_ladder, BigSpec, LadderConfig, LadderReport};

/// One pinned ladder configuration in the sweep.
struct Config {
    label: String,
    /// Rung-3 proposal budget for the `stoch@B` rows, `None` otherwise.
    budget: Option<u64>,
    ladder: LadderConfig,
}

/// Gap basis for a workload point.
#[derive(Copy, Clone, PartialEq, Eq)]
enum Basis {
    Exact,
    Greedy,
}

impl Basis {
    fn name(self) -> &'static str {
        match self {
            Basis::Exact => "exact",
            Basis::Greedy => "greedy",
        }
    }
}

/// The configuration sweep for one point: greedy floor, exact reference
/// where reachable, DP-only, then one full ladder per budget.
fn configs(basis: Basis, budgets: &[u64]) -> Vec<Config> {
    // Closing the exact gate pins large-n behaviour onto small points
    // too, so the same hybrid/stochastic machinery is measured against
    // a *known* optimum there.
    let gated = LadderConfig { max_exact_rels: 0, ..LadderConfig::default() };
    let mut v = vec![Config {
        label: "greedy".to_string(),
        budget: None,
        ladder: LadderConfig { dp_rounds: 0, refine_steps: 0, ..gated.clone() },
    }];
    if basis == Basis::Exact {
        v.push(Config {
            label: "exact".to_string(),
            budget: None,
            ladder: LadderConfig::default(),
        });
    }
    v.push(Config {
        label: "hybrid".to_string(),
        budget: None,
        ladder: LadderConfig { refine_steps: 0, ..gated.clone() },
    });
    for &b in budgets {
        v.push(Config {
            label: format!("stoch@{b}"),
            budget: Some(b),
            ladder: LadderConfig { refine_steps: b, ..gated.clone() },
        });
    }
    v
}

fn env_list(key: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(key) {
        Ok(v) => v.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => default.to_vec(),
    }
}

fn env_budgets() -> Vec<u64> {
    match std::env::var("BLITZ_LADDER_BUDGETS") {
        Ok(v) => v.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => vec![2_000, 8_000, 32_000],
    }
}

/// `num / den` when both are finite and the ratio is meaningful; the
/// greedy seed's f32 cost overflows to infinity on the largest clique
/// points, where a NaN ratio would poison the JSON artifact.
fn ratio(num: f32, den: f32) -> Option<f64> {
    (num.is_finite() && den.is_finite() && den > 0.0).then(|| f64::from(num) / f64::from(den))
}

fn ratio_cell(r: Option<f64>) -> String {
    match r {
        Some(r) => format!("{r:.4}"),
        None => "n/a".to_string(),
    }
}

fn ratio_json(r: Option<f64>) -> Json {
    match r {
        Some(r) => Json::Num(r),
        None => Json::Null,
    }
}

/// Every relation appears exactly once in the plan's leaves.
fn assert_full_coverage(report: &LadderReport, n: usize, label: &str) {
    let mut leaves = report.plan.leaves();
    leaves.sort_unstable();
    assert_eq!(
        leaves,
        (0..n).collect::<Vec<_>>(),
        "{label}: plan must join every relation exactly once"
    );
}

/// Compare one freshly computed group with the committed artifact's
/// group of the same `(topology, n)`: every member but `secs`, each
/// configuration matched by its label.
fn check_group(committed: &Json, fresh: &Json, point: &str) -> Vec<String> {
    let key = |g: &Json| (g.get("topology").cloned(), g.get("n").cloned());
    let Some(old) = committed
        .get("groups")
        .and_then(Json::as_arr)
        .and_then(|groups| groups.iter().find(|g| key(g) == key(fresh)))
    else {
        return vec![format!("{point}: no group in the committed artifact")];
    };
    let mut problems = Vec::new();
    let mut compare = |what: &str, old: Option<&Json>, new: &Json| {
        if old != Some(new) {
            problems.push(format!("{point} {what}: committed {old:?} != freshly computed {new:?}"));
        }
    };
    let Json::Obj(members) = fresh else { unreachable!("groups are objects") };
    for (name, value) in members {
        if name != "configs" {
            compare(name, old.get(name), value);
        }
    }
    let old_rows = old.get("configs").and_then(Json::as_arr).unwrap_or(&[]);
    for row in fresh.get("configs").and_then(Json::as_arr).unwrap_or(&[]) {
        let label = row.get("config").and_then(Json::as_str).unwrap_or("?");
        let old_row =
            old_rows.iter().find(|r| r.get("config").and_then(Json::as_str) == Some(label));
        let Json::Obj(fields) = row else { unreachable!("config rows are objects") };
        for (name, value) in fields {
            if name != "secs" {
                compare(&format!("{label}.{name}"), old_row.and_then(|r| r.get(name)), value);
            }
        }
    }
    problems
}

fn main() {
    let check_mode = std::env::args().skip(1).any(|a| a == "--check");
    let small = env_list("BLITZ_LADDER_SMALL", &[10, 14, 18]);
    let large = env_list("BLITZ_LADDER_LARGE", &[24, 40, 64, 100]);
    let budgets = env_budgets();
    let cfg = TimingConfig::from_env();
    let rounds = rounds_from_env();
    let out_path =
        std::env::var("BLITZ_LADDER_OUT").unwrap_or_else(|_| "BENCH_ladder.json".to_string());

    println!("Anytime-ladder quality benchmark (kappa_0, mean card 100, var 0.5)");
    println!(
        "exact basis at n in {small:?}; greedy basis at n in {large:?}; budgets {budgets:?}\n"
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

    let points: Vec<(usize, Basis)> = small
        .iter()
        .map(|&n| (n, Basis::Exact))
        .chain(large.iter().map(|&n| (n, Basis::Greedy)))
        .collect();

    let mut groups = Vec::new();
    for topo in Topology::ALL {
        for &(n, basis) in &points {
            let w = Workload::new(n, topo, 100.0, 0.5);
            let g = w.graph();
            let cards: Vec<f64> = g.relations().iter().map(|r| r.cardinality).collect();
            let preds: Vec<(usize, usize, f64)> =
                g.predicates().iter().map(|p| (p.lhs, p.rhs, p.selectivity)).collect();
            let big = BigSpec::new(&cards, &preds).expect("workload must form a valid BigSpec");
            let sweep = configs(basis, &budgets);

            // Verify before timing: full coverage everywhere, rung-1
            // bit-identity against the exact optimizer on small points,
            // and never-worse-than-greedy for every climbing config.
            let reports: Vec<LadderReport> =
                sweep.iter().map(|c| optimize_ladder(&big, &Kappa0, &c.ladder)).collect();
            let greedy_cost = reports[0].cost;
            let basis_cost = match basis {
                Basis::Exact => {
                    let spec = w.spec();
                    let exact = optimize_join_with(&spec, &Kappa0, DriveOptions::default())
                        .expect("exact optimization must succeed on the small sizes");
                    let rung1 = sweep
                        .iter()
                        .position(|c| c.label == "exact")
                        .expect("exact config present on small points");
                    assert_eq!(
                        reports[rung1].cost.to_bits(),
                        exact.cost.to_bits(),
                        "rung 1 diverged from optimize_join_with at {}/{n}",
                        topo.name()
                    );
                    assert_eq!(reports[rung1].plan, exact.plan);
                    exact.cost
                }
                Basis::Greedy => greedy_cost,
            };
            for (c, r) in sweep.iter().zip(&reports) {
                assert_full_coverage(r, n, &c.label);
                assert!(
                    r.cost <= greedy_cost,
                    "{}/{n} {}: ladder cost {} worse than greedy {greedy_cost}",
                    topo.name(),
                    c.label,
                    r.cost
                );
            }

            // Interleaved rounds, minimum per config: all configs sample
            // the same host-noise windows. A check times nothing.
            let best = if check_mode {
                vec![0.0; sweep.len()]
            } else {
                min_over_rounds(sweep.len(), rounds, |i| {
                    time_avg(
                        || {
                            std::hint::black_box(optimize_ladder(&big, &Kappa0, &sweep[i].ladder));
                        },
                        cfg,
                    )
                })
            };

            let mut table =
                Table::new(["config", "rung reached", "cost ratio", "vs greedy", "time"]);
            let mut rows = Vec::new();
            for ((c, r), &secs) in sweep.iter().zip(&reports).zip(&best) {
                let vs_basis = ratio(r.cost, basis_cost);
                let vs_greedy = ratio(r.cost, greedy_cost);
                table.row(vec![
                    c.label.clone(),
                    r.rung_reached.name().to_string(),
                    ratio_cell(vs_basis),
                    ratio_cell(vs_greedy),
                    fmt_secs(secs),
                ]);
                rows.push(Json::obj(vec![
                    ("config", Json::str(c.label.as_str())),
                    (
                        "budget_steps",
                        match c.budget {
                            None => Json::Null,
                            Some(b) => Json::Num(b as f64),
                        },
                    ),
                    ("rung", Json::str(r.rung.name())),
                    ("rung_reached", Json::str(r.rung_reached.name())),
                    ("cost", ratio_json(r.cost.is_finite().then(|| f64::from(r.cost)))),
                    ("ratio_vs_basis", ratio_json(vs_basis)),
                    ("ratio_vs_greedy", ratio_json(vs_greedy)),
                    ("refine_steps_spent", Json::Num(r.spent.refine_steps as f64)),
                    ("dp_blocks", Json::Num(r.spent.dp_blocks as f64)),
                    ("secs", Json::Num(secs)),
                ]));
            }
            let group = Json::obj(vec![
                ("topology", Json::str(topo.name())),
                ("n", Json::Num(n as f64)),
                ("basis", Json::str(basis.name())),
                ("basis_cost", ratio_json(basis_cost.is_finite().then(|| f64::from(basis_cost)))),
                (
                    "greedy_cost",
                    ratio_json(greedy_cost.is_finite().then(|| f64::from(greedy_cost))),
                ),
                ("configs", Json::Arr(rows)),
            ]);

            if let Some(committed) = &committed {
                let point = format!("{}/{n}", topo.name());
                let found = check_group(committed, &group, &point);
                if found.is_empty() {
                    println!("-- {point}: all configs verified, matches artifact");
                }
                for p in &found {
                    eprintln!("--check: {p}");
                }
                problems.extend(found);
                continue;
            }
            println!("-- {} n={n} (basis: {})", topo.name(), basis.name());
            println!("{}", table.render());
            groups.push(group);
        }
    }

    if check_mode {
        if problems.is_empty() {
            println!(
                "ladder --check: {} group(s) verified against {out_path}; no drift",
                Topology::ALL.len() * points.len()
            );
            return;
        }
        eprintln!("ladder --check: {} problem(s) against {out_path}", problems.len());
        std::process::exit(1);
    }

    let doc = Json::obj(vec![
        ("bench", Json::str("ladder")),
        ("model", Json::str("kappa0")),
        ("budgets", Json::Arr(budgets.iter().map(|&b| Json::Num(b as f64)).collect())),
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
    ]);
    std::fs::write(&out_path, doc.render()).expect("write benchmark JSON");
    println!("wrote {out_path}");
}
