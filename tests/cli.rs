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
}
