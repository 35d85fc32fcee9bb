//! `cargo xtask <command>` — workspace automation.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        Some("analyze") => analyze(),
        cmd => {
            eprintln!("usage: cargo xtask <lint|analyze>");
            eprintln!("  lint     run every rule (lexical + semantic); the CI gate");
            eprintln!("  analyze  run only the call-graph semantic rules, with a graph summary");
            if let Some(cmd) = cmd {
                eprintln!("unknown command `{cmd}`");
            }
            ExitCode::from(2)
        }
    }
}

fn find_root(cmd: &str) -> Result<PathBuf, ExitCode> {
    let cwd = std::env::current_dir().map_err(|e| {
        eprintln!("xtask {cmd}: cannot read current dir: {e}");
        ExitCode::from(2)
    })?;
    xtask::workspace_root(&cwd).ok_or_else(|| {
        eprintln!("xtask {cmd}: no workspace root above {}", cwd.display());
        ExitCode::from(2)
    })
}

fn lint() -> ExitCode {
    let root = match find_root("lint") {
        Ok(r) => r,
        Err(code) => return code,
    };
    match xtask::run_lints(&root) {
        Ok(report) => {
            for finding in &report.findings {
                eprintln!("{finding}");
            }
            eprintln!(
                "xtask lint: {} files scanned, {} finding(s), {} allowlisted",
                report.files_scanned,
                report.findings.len(),
                report.suppressed
            );
            if report.findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xtask lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn analyze() -> ExitCode {
    let root = match find_root("analyze") {
        Ok(r) => r,
        Err(code) => return code,
    };
    match xtask::run_analyze(&root) {
        Ok((report, summary)) => {
            for finding in &report.findings {
                eprintln!("{finding}");
            }
            eprintln!(
                "xtask analyze: {} files / {} fns / {} impls / {} structs / {} uses / {} call sites",
                summary.files, summary.fns, summary.impls, summary.structs, summary.uses,
                summary.calls
            );
            eprintln!(
                "  pointer-bearing fns: {}; lock classes: [{}]; wait sites: {}",
                summary.pointer_fns.len(),
                summary.lock_classes.join(", "),
                summary.wait_sites
            );
            for (from, to) in &summary.lock_edges {
                eprintln!("  lock edge: {from} -> {to}");
            }
            eprintln!(
                "xtask analyze: {} finding(s), {} allowlisted",
                report.findings.len(),
                report.suppressed
            );
            if report.findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xtask analyze: {e}");
            ExitCode::from(2)
        }
    }
}
