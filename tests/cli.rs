//! Integration tests for the `blitzsplit` command-line binary.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_blitzsplit"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn optimize_reproduces_table1() {
    let (ok, stdout, _) = run(&["optimize", "--cards", "10,20,30,40"]);
    assert!(ok);
    assert!(stdout.contains("cost:           2.410000e5"), "{stdout}");
    assert!(stdout.contains("result rows:    2.400000e5"), "{stdout}");
}

#[test]
fn optimize_with_predicates_and_model() {
    let (ok, stdout, _) = run(&[
        "optimize",
        "--cards",
        "10,20,30,40",
        "--pred",
        "0:1:0.1",
        "--pred",
        "1:2:0.05",
        "--model",
        "dnl",
    ]);
    assert!(ok);
    assert!(stdout.contains("model:          kappa_dnl"), "{stdout}");
    assert!(stdout.contains("plan:"), "{stdout}");
}

#[test]
fn optimize_with_threshold_reports_passes() {
    let (ok, stdout, _) = run(&[
        "optimize",
        "--cards",
        "100,100,100",
        "--pred",
        "0:1:0.5",
        "--pred",
        "1:2:0.5",
        "--threshold",
        "10",
    ]);
    assert!(ok);
    assert!(stdout.contains("passes:"), "{stdout}");
}

/// Without `--threshold` an exact run takes the server's certified
/// pass: one pass, capped by greedy GOO's plan, even where the paper's
/// schedule from 10⁹ needs a second (this clique's optimum costs more
/// than 10⁹). Both print the same cost.
#[test]
fn exact_runs_take_one_certified_pass() {
    let query = ["workload", "--topology", "clique", "--n", "10", "--mu", "1e5", "--time"];
    let (ok, certified, _) = run(&query);
    assert!(ok);
    assert!(certified.contains("passes:         1\n"), "{certified}");
    assert!(certified.starts_with("optimization time (kappa0): "), "{certified}");
    let (ok, paper, _) = run(&[&query[..], &["--threshold", "1e9"]].concat());
    assert!(ok);
    assert!(paper.contains("passes:         2\n"), "{paper}");
    let cost = |out: &str| out.lines().find(|l| l.starts_with("cost:")).map(str::to_owned);
    assert_eq!(cost(&certified), cost(&paper));
    assert!(cost(&certified).is_some());

    let (ok, stdout, _) = run(&["optimize", "--cards", "10,20,30,40"]);
    assert!(ok);
    assert!(stdout.contains("passes:         1\n"), "{stdout}");
}

/// `optimize --ladder` answers a query under its exact limit as
/// `optimize` does: its rung 1 runs the server's DP driver, so it prints
/// the same plan, not another orientation of equal cost.
#[test]
fn ladder_rung1_prints_the_exact_plan() {
    let query = [
        "--cards", "1000,1000,1000,1000", "--pred", "0:3:0.001", "--pred", "1:2:0.001", "--pred",
        "0:1:0.5",
    ];
    let (ok, exact, _) = run(&[&["optimize"], &query[..]].concat());
    assert!(ok, "{exact}");
    let (ok, ladder, _) = run(&[&["optimize", "--ladder"], &query[..]].concat());
    assert!(ok, "{ladder}");
    assert!(ladder.contains("rung:           exact (reached exact)"), "{ladder}");
    let line = |out: &str, prefix: &str| out.lines().find(|l| l.starts_with(prefix)).map(str::to_owned);
    assert_eq!(line(&ladder, "plan:"), Some("plan:           ((R0 x R3) x (R1 x R2))".to_owned()));
    assert_eq!(line(&ladder, "plan:"), line(&exact, "plan:"));
    assert_eq!(line(&ladder, "cost:"), line(&exact, "cost:"));
}

#[test]
fn sql_subcommand_optimizes_demo_catalog_queries() {
    let (ok, stdout, _) = run(&[
        "sql",
        "SELECT * FROM sales s, customer c WHERE s.custkey = c.custkey",
    ]);
    assert!(ok);
    assert!(stdout.contains("parsed 2 relations"), "{stdout}");
    assert!(stdout.contains("plan:"), "{stdout}");
}

#[test]
fn workload_subcommand_runs_appendix_points() {
    let (ok, stdout, _) = run(&[
        "workload", "--topology", "star", "--n", "9", "--mu", "100", "--var", "0.5",
    ]);
    assert!(ok);
    assert!(stdout.contains("relations:      9"), "{stdout}");
    // Appendix selectivities make the result cardinality exactly μ.
    assert!(stdout.contains("result rows:    1.000000e2"), "{stdout}");
}

#[test]
fn dot_switch_emits_graphviz() {
    let (ok, stdout, _) = run(&["optimize", "--cards", "5,6,7", "--dot"]);
    assert!(ok);
    assert!(stdout.contains("digraph plan {"), "{stdout}");
}

#[test]
fn serve_and_client_agree_with_one_shot_optimize() {
    // Start the service on an OS-assigned port and scrape the bound
    // address from its first stdout line.
    let mut server = Command::new(env!("CARGO_BIN_EXE_blitzsplit"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("server starts");
    let mut first_line = String::new();
    BufReader::new(server.stdout.take().expect("piped stdout"))
        .read_line(&mut first_line)
        .expect("server announces its address");
    // The announcement is `listening on ADDR`.
    let addr = first_line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement {first_line:?}"))
        .split_whitespace()
        .next()
        .unwrap()
        .to_string();

    // Kill the server even when an assertion below panics.
    struct KillOnDrop(std::process::Child);
    impl Drop for KillOnDrop {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let _server = KillOnDrop(server);

    let query: &[&str] =
        &["--cards", "10,20,30,40", "--pred", "0:1:0.1", "--pred", "1:2:0.05"];
    let (ok, via_server, stderr) = run(&[&["client", "--addr", &addr], query].concat());
    assert!(ok, "{stderr}");
    let (ok, one_shot, _) = run(&[&["optimize"], query].concat());
    assert!(ok);
    let line = |out: &str, prefix: &str| {
        out.lines()
            .find(|l| l.starts_with(prefix))
            .map(str::to_string)
            .unwrap_or_else(|| panic!("no {prefix:?} line in {out:?}"))
    };
    assert_eq!(line(&via_server, "cost:"), line(&one_shot, "cost:"));
    assert_eq!(line(&via_server, "plan:"), line(&one_shot, "plan:"));
    assert!(line(&via_server, "source:").ends_with("exact"), "{via_server}");

    // The metrics switch reports the request we just made.
    let (ok, metrics, _) = run(&["client", "--addr", &addr, "--metrics"]);
    assert!(ok);
    assert!(metrics.contains("requests=1"), "{metrics}");
}

#[test]
fn errors_are_reported_cleanly() {
    let (ok, _, stderr) = run(&["optimize"]);
    assert!(!ok);
    assert!(stderr.contains("requires --cards"), "{stderr}");

    let (ok, _, stderr) = run(&["optimize", "--cards", "10,x"]);
    assert!(!ok);
    assert!(stderr.contains("comma-separated"), "{stderr}");

    let (ok, _, stderr) = run(&["optimize", "--cards", "10,20", "--pred", "bogus"]);
    assert!(!ok);
    assert!(stderr.contains("bad --pred"), "{stderr}");

    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown subcommand"), "{stderr}");

    let (ok, _, stderr) = run(&["sql", "SELECT * FROM nonexistent"]);
    assert!(!ok);
    assert!(stderr.contains("unknown name"), "{stderr}");

    // A flag the subcommand does not take is an error, not ignored: a
    // typo, a removed flag, and a flag of another subcommand.
    for (args, flag) in [
        (&["optimize", "--cards", "10,20", "--thread", "4"][..], "optimize does not take --thread"),
        (&["serve", "--addr", "127.0.0.1:0", "--layout", "aos"], "serve does not take --layout"),
        (&["optimize", "--cards", "10,20", "--driver", "conv"], "optimize does not take --driver"),
        (&["client", "--addr", "127.0.0.1:1", "--metrics", "--dot"], "client does not take --dot"),
    ] {
        let (ok, stdout, stderr) = run(args);
        assert!(!ok, "{args:?} succeeded: {stdout}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }

    // Nor is a flag the chosen mode would ignore: the exact path's knobs
    // beside `optimize --ladder`, the ladder's budgets without `--ladder`.
    // (`serve` gets an address it cannot bind, so a flag that slipped
    // through ends the run instead of starting a server.)
    let optimize = ["optimize", "--cards", "10,20"];
    let serve = ["serve", "--addr", "256.0.0.1:0"];
    for flag in ["threshold", "threads"] {
        let switch = format!("--{flag}");
        let args = [&optimize[..], &["--ladder", switch.as_str(), "2"]].concat();
        let (ok, stdout, stderr) = run(&args);
        assert!(!ok, "{args:?} succeeded: {stdout}");
        assert!(stderr.contains(&format!("optimize --ladder does not take --{flag}")), "{stderr}");
    }
    for flag in ["budget-ms", "refine-steps", "dp-window", "dp-rounds", "seed", "max-rels"] {
        for (cmd, head) in [("optimize", &optimize[..]), ("serve", &serve[..])] {
            if cmd == "serve" && flag == "max-rels" {
                continue; // `serve --max-rels` gates the exact path
            }
            let switch = format!("--{flag}");
            let args = [head, &[switch.as_str(), "2"]].concat();
            let (ok, stdout, stderr) = run(&args);
            assert!(!ok, "{args:?} succeeded: {stdout}");
            assert!(stderr.contains(&format!("{cmd} does not take --{flag}")), "{stderr}");
        }
    }
}
