//! The lint linting itself: the workspace must be clean, the lint must
//! be deterministic, and it must actually reject the committed negative
//! fixture — a permanent proof that the rules have teeth.

use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    xtask::workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

#[test]
fn workspace_is_clean() {
    let report = xtask::run_lints(&workspace_root()).expect("lint run");
    assert!(
        report.findings.is_empty(),
        "workspace has lint findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the walk really covered the workspace.
    assert!(report.files_scanned > 40, "only {} files scanned", report.files_scanned);
}

/// Running the lint twice over the same tree yields byte-identical
/// reports: no hidden state, no ordering dependence on directory
/// enumeration.
#[test]
fn lint_is_idempotent() {
    let root = workspace_root();
    let a = xtask::run_lints(&root).expect("first run");
    let b = xtask::run_lints(&root).expect("second run");
    assert_eq!(a.findings, b.findings);
    assert_eq!(a.files_scanned, b.files_scanned);
    assert_eq!(a.suppressed, b.suppressed);
}

/// The committed SAFETY-less fixture must be rejected — one finding per
/// unsafe construct — while its compliant twin passes untouched.
#[test]
fn negative_fixture_is_rejected_and_positive_accepted() {
    let bad = xtask::lint_source("crates/xtask/tests/fixtures/safety_missing.rs", &fixture("safety_missing.rs"));
    let rules: Vec<_> = bad.iter().map(|f| f.rule).collect();
    assert_eq!(
        rules,
        vec!["safety-comment"; 5],
        "want 5 safety-comment findings (block, unsafe fn, inner block, trait, impl), got:\n{}",
        bad.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );

    let good = xtask::lint_source("crates/xtask/tests/fixtures/safety_ok.rs", &fixture("safety_ok.rs"));
    assert!(
        good.is_empty(),
        "compliant fixture flagged:\n{}",
        good.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
}

/// A SAFETY comment in a *string literal* or ordinary comment must not
/// satisfy the rule for an unrelated unsafe site, and `unsafe` in a
/// comment or string must not create a site.
#[test]
fn sanitizer_blinds_rules_to_comments_and_strings() {
    let no_site = r#"
fn main() {
    let s = "unsafe { }";
    // unsafe { totally_fine() }
    println!("{s}");
}
"#;
    assert!(xtask::lint_source("x.rs", no_site).is_empty());

    let smuggled = "fn main() {\n    let msg = \"SAFETY: not a comment\";\n    let _ = (msg, unsafe { std::hint::unreachable_unchecked() });\n}\n";
    let findings = xtask::lint_source("x.rs", smuggled);
    assert_eq!(findings.len(), 1, "SAFETY inside a string literal must not count");
    assert_eq!(findings[0].rule, "safety-comment");
}

#[test]
fn allowlist_rejects_malformed_lines() {
    assert!(xtask::Allowlist::parse("numeric-truncation|only|three").is_err());
    assert!(xtask::Allowlist::parse("# comment\n\nrule|path|needle|reason").is_ok());
}

/// An allowlist entry that matches no finding becomes a finding itself:
/// suppressions must not outlive the code they excused.
#[test]
fn stale_allowlist_entries_are_findings() {
    let allow = xtask::Allowlist::parse(
        "numeric-truncation|x.rs|y as u32|audited\n\
         numeric-truncation|gone.rs|never matches|stale entry",
    )
    .expect("well-formed allowlist");
    let live = xtask::lint_source(
        "crates/core/src/x.rs",
        "fn f(y: u64) -> u32 { y as u32 }\n",
    );
    assert_eq!(live.len(), 1, "fixture source must trip numeric-truncation");
    let mut report = xtask::Report::default();
    xtask::apply_allowlist(&allow, live, &mut report);
    assert_eq!(report.suppressed, 1);
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].rule, "stale-allowlist");
    assert_eq!(report.findings[0].line, 2, "stale finding points at the allowlist line");
}

/// The token layer closes the lexical rules' multi-line blind spots:
/// a cast or unwrap split across lines is still one token sequence.
#[test]
fn token_rules_see_constructs_split_across_lines() {
    let cast = "fn f(y: u64) -> u32 {\n    y as\n        u32\n}\n";
    let findings = xtask::lint_source("crates/core/src/x.rs", cast);
    assert_eq!(findings.iter().map(|f| f.rule).collect::<Vec<_>>(), ["numeric-truncation"]);

    let unwrap = "fn f(x: Option<u32>) -> u32 {\n    x\n        .\n        unwrap()\n}\n";
    let findings = xtask::lint_source("crates/ladder/src/x.rs", unwrap);
    assert_eq!(findings.iter().map(|f| f.rule).collect::<Vec<_>>(), ["request-path-unwrap"]);
}

// ---------------------------------------------------------------------------
// Semantic rules: seeded-violation fixtures
// ---------------------------------------------------------------------------

/// `whole-table-borrow` covers every wave worker of the real driver: a
/// whole-table touch seeded into the worker closure (which the lone
/// worker runs on the caller), into the helpers' `thread::scope` or into
/// worker 0's live-pair pass (`pair_wave`) is a finding, and so is a
/// lost anchor.
#[test]
fn whole_table_borrow_covers_every_wave_worker() {
    let rel = "crates/core/src/split.rs";
    let src = std::fs::read_to_string(workspace_root().join(rel)).expect("split.rs");
    let rules = |src: &str| -> Vec<&'static str> {
        let findings = xtask::lint_source(rel, src);
        findings.iter().filter(|f| f.rule == "whole-table-borrow").map(|f| f.rule).collect()
    };
    assert!(rules(&src).is_empty());
    for (anchor, seeded) in [
        ("let mut skipping = false;", "let mut skipping = table.rels() == 0;"),
        ("let mut local = St::default();", "let mut local = St::default(); let _ = &table;"),
        (
            "let rows = binomial(view.rels(), k);",
            "let rows = binomial(view.rels(), k); let _ = &table;",
        ),
    ] {
        assert!(src.contains(anchor), "anchor `{anchor}` gone from split.rs");
        let bad = src.replacen(anchor, seeded, 1);
        assert_eq!(rules(&bad), ["whole-table-borrow"], "seeded `{seeded}`");
    }
    for (name, renamed) in [("fn drive_waves", "fn drive_rows"), ("fn pair_wave", "fn pair_rows")] {
        assert_eq!(rules(&src.replace(name, renamed)), ["whole-table-borrow"], "lost anchor {name}");
    }
}

fn analyze_fixture(rel: &str, name: &str) -> Vec<xtask::Finding> {
    let (findings, _) = xtask::analyze_sources(&[(rel.to_string(), fixture(name))]);
    findings
}

/// The seeded lock-cycle fixture must produce a cycle finding (the
/// backward leg only nests through a helper call, so this also proves
/// the call-graph closure works), while the consistently-ordered twin —
/// same mutexes, same helper indirection — passes.
#[test]
fn lock_cycle_fixture_is_rejected_and_ordered_twin_accepted() {
    let bad = analyze_fixture("crates/service/src/fixture_lock.rs", "lock_cycle.rs");
    assert!(
        bad.iter().any(|f| f.rule == "lock-order" && f.message.contains("cycle")),
        "want a lock-order cycle finding, got:\n{}",
        bad.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );

    let good = analyze_fixture("crates/service/src/fixture_lock.rs", "lock_ok.rs");
    assert!(
        good.is_empty(),
        "consistently-ordered fixture flagged:\n{}",
        good.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
}

/// Direct `.lock()` calls bypass the audited `sync::lock` helpers and
/// blind the lock-order analysis — they are findings on their own.
#[test]
fn direct_lock_method_calls_are_rejected() {
    let src = "use std::sync::Mutex;\n\
               pub fn f(m: &Mutex<u32>) -> u32 { *m.lock().unwrap() }\n";
    let (findings, _) =
        xtask::analyze_sources(&[("crates/service/src/fixture_direct.rs".to_string(), src.to_string())]);
    assert!(
        findings.iter().any(|f| f.rule == "lock-order" && f.message.contains("sync::lock")),
        "want a direct-.lock() finding, got:\n{}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
}

/// The provenance fixture seeds three violations: an unaudited
/// raw-pointer signature, an unaudited `unsafe fn`, and an untrailed
/// caller through which the pointer escapes. The annotated twin passes.
#[test]
fn provenance_fixture_is_rejected_and_annotated_twin_accepted() {
    let bad = analyze_fixture("crates/core/src/fixture_prov.rs", "provenance_missing.rs");
    let rules: Vec<_> = bad.iter().map(|f| f.rule).collect();
    assert_eq!(
        rules,
        vec!["unsafe-provenance"; 3],
        "want 3 unsafe-provenance findings (ptr sig, unsafe fn, escaping caller), got:\n{}",
        bad.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );

    let good = analyze_fixture("crates/core/src/fixture_prov.rs", "provenance_ok.rs");
    assert!(
        good.is_empty(),
        "annotated fixture flagged:\n{}",
        good.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
}

/// An unaudited file is not a violation per se — but the same sources
/// under an audited module path must all pass, proving the audited-list
/// gate (not the annotations) is what fires.
#[test]
fn provenance_audited_modules_are_exempt() {
    let findings = analyze_fixture("crates/core/src/kernel.rs", "provenance_missing.rs");
    assert!(
        findings.is_empty(),
        "audited module flagged:\n{}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
}

/// The float fixture seeds three violations: loop-form and chained-form
/// f64 accumulation under HashMap iteration, and a float-accumulating
/// thread-merge outside `Stats::absorb`. The deterministic twin passes.
#[test]
fn float_fixture_is_rejected_and_deterministic_twin_accepted() {
    let bad = analyze_fixture("crates/core/src/fixture_float.rs", "float_hash.rs");
    let rules: Vec<_> = bad.iter().map(|f| f.rule).collect();
    assert_eq!(
        rules,
        vec!["float-determinism"; 3],
        "want 3 float-determinism findings (loop sum, chained sum, merge), got:\n{}",
        bad.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );

    let good = analyze_fixture("crates/core/src/fixture_float.rs", "float_ok.rs");
    assert!(
        good.is_empty(),
        "deterministic fixture flagged:\n{}",
        good.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );

    // Scope check: the same accumulation outside core/ladder is not the
    // bit-identity surface and must not fire.
    let elsewhere = analyze_fixture("crates/service/src/fixture_float.rs", "float_hash.rs");
    assert!(elsewhere.is_empty(), "float rule fired outside its crates/core+ladder scope");
}

/// The semantic pass over the real workspace is clean and its summary
/// is sane: the call graph really got built.
#[test]
fn workspace_semantic_analysis_is_clean_with_populated_graph() {
    let root = workspace_root();
    let (report, summary) = xtask::run_analyze(&root).expect("analyze run");
    assert!(
        report.findings.is_empty(),
        "workspace has semantic findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(summary.fns > 500, "only {} fns extracted", summary.fns);
    assert!(summary.calls > 2000, "only {} call sites", summary.calls);
    // The audited pointer surface must be found by name — core's
    // cost-column hooks (a trait's default method is qualified by its
    // bare name), gather kernels, aligned cost buffer and
    // shared-table view, plus the poller's FFI declarations — so the
    // populated graph is checked without leaning on how many such
    // functions the workspace happens to have.
    for want in [
        "cost_base",
        "SyncTableView::cost_base",
        "gather_mask_avx2",
        "gather_mask_avx512",
        "gather_mask_neon",
        "AlignedCosts::as_mut_ptr",
        "SyncTable::view",
        "epoll_ctl",
        "epoll_wait",
        "kevent",
    ] {
        assert!(
            summary.pointer_fns.iter().any(|q| q == want),
            "pointer-bearing `{want}` missing from {:?}",
            summary.pointer_fns
        );
    }
    assert!(
        summary.lock_classes.iter().any(|c| c.contains("jobs")),
        "pool jobs mutex missing from lock classes: {:?}",
        summary.lock_classes
    );
}

/// Build arbitrary source-ish text from a token alphabet that includes
/// every construct the sanitizer special-cases.
fn token(i: u8) -> &'static str {
    const TOKENS: [&str; 16] = [
        "fn f() ",
        "unsafe ",
        "{",
        "}",
        "// line comment SAFETY: x\n",
        "/* block */",
        "/* nested /* deep */ still */",
        "\"str with \\\" escape\"",
        "'c'",
        "'t",
        "r\"raw\"",
        "r#\"hashed \" raw\"#",
        "\n",
        " as u32 ",
        "b\"bytes\"",
        "ident_7 ",
    ];
    TOKENS[i as usize % TOKENS.len()]
}

proptest! {
    // The sanitizer is a projection: applying it twice changes nothing.
    #[test]
    fn sanitize_is_idempotent(ts in proptest::collection::vec(0u8..16, 0..64)) {
        let src: String = ts.iter().map(|&t| token(t)).collect();
        let once = xtask::sanitize(&src);
        let twice = xtask::sanitize(&once);
        prop_assert_eq!(&once, &twice);
    }

    // Line structure survives sanitization exactly — findings reported
    // on sanitized text must map 1:1 onto the original file.
    #[test]
    fn sanitize_preserves_line_count(ts in proptest::collection::vec(0u8..16, 0..64)) {
        let src: String = ts.iter().map(|&t| token(t)).collect();
        let san = xtask::sanitize(&src);
        prop_assert_eq!(
            src.chars().filter(|&c| c == '\n').count(),
            san.chars().filter(|&c| c == '\n').count()
        );
    }

    // Comment-free, literal-free code passes through untouched.
    #[test]
    fn sanitize_is_identity_on_plain_code(ts in proptest::collection::vec(0u8..8, 0..64)) {
        // Tokens 0..4 minus the comment token: remap 4..8 to plain ones.
        const PLAIN: [&str; 8] =
            ["fn f() ", "unsafe ", "{", "}", "\n", " as u32 ", "ident_7 ", "x + y"];
        let src: String = ts.iter().map(|&t| PLAIN[t as usize % PLAIN.len()]).collect();
        prop_assert_eq!(&xtask::sanitize(&src), &src);
    }
}
