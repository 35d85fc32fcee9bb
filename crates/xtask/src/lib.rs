//! Hand-rolled static-analysis lints for the blitzsplit workspace.
//!
//! `cargo xtask lint` walks every `.rs` file in the workspace and enforces
//! the safety invariants that rustc and clippy cannot express:
//!
//! * **`safety-comment`** — every `unsafe` block, `unsafe impl` and
//!   `unsafe trait`/`unsafe fn` must carry an explicit audit trail: a
//!   `// SAFETY:` comment immediately above (or trailing on the same
//!   line), or a `# Safety` section in the doc comment for traits and
//!   functions. `unsafe fn` items *inside* an `unsafe impl` body inherit
//!   the trait's documented contract and are exempt.
//! * **`whole-table-borrow`** — in `drive_waves` (crates/core/src/split.rs),
//!   from `SyncTable::from_mut(table)` to the end of the function — the
//!   worker closure, the lone worker's run and the helpers'
//!   `thread::scope` — no code may touch the whole `table` binding;
//!   workers go through `SyncTableView` raw-pointer views only, so that
//!   no `&`/`&mut` to the shared table is ever live beside a view.
//! * **`request-path-unwrap`** — non-test code in `crates/service/src`
//!   and `crates/ladder/src` must not call `.unwrap()` or `.expect(`;
//!   the serving path degrades with explicit errors, poison recovery
//!   (`service::sync`-style) or a deliberate `panic!` with context,
//!   never an anonymous unwrap. Token-based, so calls split across
//!   lines are still seen.
//! * **`numeric-truncation`** — `crates/core` must not narrow integers
//!   with bare `as` casts (`as u8/u16/u32/i8/i16/i32`); audited
//!   narrowings go through named helpers such as
//!   `RelSet::from_wave_bits` or the allowlist. Token-based, so casts
//!   split across lines are still seen.
//! * **`deny-unsafe-op`** — every crate that contains `unsafe` code must
//!   carry `#![deny(unsafe_op_in_unsafe_fn)]` in its crate root.
//! * **`stale-allowlist`** — an `allowlist.txt` entry that matches no
//!   finding is itself a finding, so suppressions cannot outlive the
//!   code they excused.
//!
//! On top of the lexical layer sits a semantic pass ([`semantic`],
//! `cargo xtask analyze`): the sanitized text is lexed ([`lex`]) into
//! tokens, structured into delimiter-matched token trees with item
//! extraction ([`tree`]), and closed into a workspace call graph
//! ([`graph`]). Three call-graph-backed rules run there:
//! **`unsafe-provenance`** (raw pointers must not escape the audited
//! modules through helper calls), **`lock-order`** (static
//! lock-acquisition graph from `sync::lock` sites, closed over the call
//! graph; cycles fail) and **`float-determinism`** (no `f32`/`f64`
//! accumulation under nondeterministic iteration order). `cargo xtask
//! lint` runs both layers; see the [`semantic`] module docs for rule
//! semantics and known approximations.
//!
//! Audited exceptions live in `crates/xtask/allowlist.txt`, one per line:
//! `rule|path-suffix|line-substring|reason`.
//!
//! Everything is `std`-only — no syn, no rustc internals — at the price
//! of being tuned to this workspace's idioms, which is exactly the
//! trade a repo-local xtask should make. A comment/string-aware
//! sanitizer ([`sanitize`]) blanks out comment and literal contents
//! (preserving line structure) before either layer runs.

#![forbid(unsafe_code)]

pub mod graph;
pub mod lex;
pub mod semantic;
pub mod tree;

use std::fmt;
use std::path::{Path, PathBuf};

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired (e.g. `safety-comment`).
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
    /// The raw offending source line (used for allowlist matching).
    pub source_line: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.file,
            self.line,
            self.rule,
            self.message,
            self.source_line.trim()
        )
    }
}

/// Result of a full lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations that survived the allowlist.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of violations suppressed by allowlist entries.
    pub suppressed: usize,
}

/// One audited exception.
#[derive(Debug)]
struct AllowEntry {
    rule: String,
    path: String,
    needle: String,
    /// 1-based line in `allowlist.txt`, for stale-entry reporting.
    line: usize,
    /// The raw entry text, for stale-entry reporting.
    raw: String,
}

/// An audited-exception list: `rule|path-suffix|line-substring|reason`.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parse the pipe-delimited allowlist format. Blank lines and `#`
    /// comments are skipped; malformed lines are an error (a typo in an
    /// allowlist must not silently re-enable nothing).
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(4, '|');
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(rule), Some(path), Some(needle), Some(_reason))
                    if !rule.is_empty() && !path.is_empty() && !needle.is_empty() =>
                {
                    entries.push(AllowEntry {
                        rule: rule.to_string(),
                        path: path.to_string(),
                        needle: needle.to_string(),
                        line: i + 1,
                        raw: line.to_string(),
                    });
                }
                _ => {
                    return Err(format!(
                        "allowlist line {}: want `rule|path|needle|reason`, got `{line}`",
                        i + 1
                    ))
                }
            }
        }
        Ok(Allowlist { entries })
    }

    /// Index of the first entry covering this finding, if any.
    fn match_entry(&self, f: &Finding) -> Option<usize> {
        self.entries.iter().position(|e| {
            e.rule == f.rule
                && f.file.ends_with(e.path.as_str())
                && f.source_line.contains(e.needle.as_str())
        })
    }

    /// Does an entry cover this finding?
    pub fn permits(&self, f: &Finding) -> bool {
        self.match_entry(f).is_some()
    }
}

/// Split findings into suppressed and surviving, then append one
/// `stale-allowlist` finding per entry that matched nothing: a
/// suppression must not outlive the code it excused.
pub fn apply_allowlist(allowlist: &Allowlist, findings: Vec<Finding>, report: &mut Report) {
    let mut hit = vec![false; allowlist.entries.len()];
    for finding in findings {
        match allowlist.match_entry(&finding) {
            Some(i) => {
                hit[i] = true;
                report.suppressed += 1;
            }
            None => report.findings.push(finding),
        }
    }
    for (entry, hit) in allowlist.entries.iter().zip(hit) {
        if !hit {
            report.findings.push(Finding {
                rule: "stale-allowlist",
                file: "crates/xtask/allowlist.txt".to_string(),
                line: entry.line,
                message: "allowlist entry matches no current finding — delete it (or fix the \
                          entry if the code it excuses moved)"
                    .to_string(),
                source_line: entry.raw.clone(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Sanitizer
// ---------------------------------------------------------------------------

/// Blank out comment and literal contents, preserving line structure.
///
/// Comments (line and nested block) and string/raw-string/byte-string/
/// char literals disappear entirely — delimiters included, and even a
/// lifetime's `'` becomes `_`, so the output contains no quote
/// characters at all. That
/// totality is what makes the pass idempotent: nothing a literal could
/// smuggle survives to confuse a second lexing. Newlines are always
/// preserved, so line numbers computed on the sanitized text map 1:1
/// onto the original file.
pub fn sanitize(src: &str) -> String {
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(usize),
        Char,
    }
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut st = St::Code;
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        let peek = |k: usize| b.get(i + k).copied();
        match st {
            St::Code => {
                if c == '/' && peek(1) == Some('/') {
                    st = St::LineComment;
                    out.push_str("  ");
                    i += 2;
                } else if c == '/' && peek(1) == Some('*') {
                    st = St::BlockComment(1);
                    out.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    st = St::Str;
                    out.push(' ');
                    i += 1;
                } else if c == 'r' && matches!(peek(1), Some('"') | Some('#')) {
                    // Possible raw string: r"..." or r#"..."# (any hashes).
                    let mut hashes = 0usize;
                    let mut j = i + 1;
                    while b.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if b.get(j) == Some(&'"') {
                        st = St::RawStr(hashes);
                        for _ in i..=j {
                            out.push(' ');
                        }
                        i = j + 1;
                    } else {
                        // `r#ident` raw identifier — plain code.
                        out.push(c);
                        i += 1;
                    }
                } else if c == 'b' && peek(1) == Some('"') {
                    st = St::Str;
                    out.push_str("  ");
                    i += 2;
                } else if c == '\'' {
                    // Lifetime (`'a`) vs char literal (`'a'`): a lifetime's
                    // identifier is not followed by a closing quote.
                    let lifetime = matches!(peek(1), Some(x) if x.is_alphanumeric() || x == '_')
                        && peek(2) != Some('\'');
                    if lifetime {
                        // `_` keeps the token a word without leaving a
                        // quote char for a second lexing to misread.
                        out.push('_');
                        i += 1;
                    } else {
                        st = St::Char;
                        out.push(' ');
                        i += 1;
                    }
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            St::LineComment => {
                if c == '\n' {
                    st = St::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                i += 1;
            }
            St::BlockComment(depth) => {
                if c == '/' && peek(1) == Some('*') {
                    st = St::BlockComment(depth + 1);
                    out.push_str("  ");
                    i += 2;
                } else if c == '*' && peek(1) == Some('/') {
                    st = if depth == 1 { St::Code } else { St::BlockComment(depth - 1) };
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    // Blank the escape pair; keep an escaped newline so
                    // line counts survive `\`-continued strings.
                    out.push(' ');
                    if peek(1) == Some('\n') {
                        out.push('\n');
                    } else if peek(1).is_some() {
                        out.push(' ');
                    }
                    i += 2;
                } else if c == '"' {
                    st = St::Code;
                    out.push(' ');
                    i += 1;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == '"' && (0..hashes).all(|k| b.get(i + 1 + k) == Some(&'#')) {
                    for _ in 0..=hashes {
                        out.push(' ');
                    }
                    i += 1 + hashes;
                    st = St::Code;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            St::Char => {
                if c == '\\' {
                    out.push(' ');
                    if peek(1).is_some() {
                        out.push(' ');
                    }
                    i += 2;
                } else if c == '\'' {
                    st = St::Code;
                    out.push(' ');
                    i += 1;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Lexical helpers
// ---------------------------------------------------------------------------

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Byte offsets of whole-word occurrences of `word` in `hay`.
fn word_offsets(hay: &str, word: &str) -> Vec<usize> {
    let bytes = hay.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = hay[from..].find(word) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident(bytes[at - 1] as char);
        let end = at + word.len();
        let after_ok = end >= bytes.len() || !is_ident(bytes[end] as char);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + word.len().max(1);
    }
    out
}

/// 1-based line number of a byte offset, given precomputed line starts.
fn line_of(line_starts: &[usize], offset: usize) -> usize {
    match line_starts.binary_search(&offset) {
        Ok(i) => i + 1,
        Err(i) => i,
    }
}

fn line_starts(text: &str) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// First token (word or single symbol) at-or-after `from`, skipping
/// whitespace.
fn next_token(hay: &str, from: usize) -> Option<&str> {
    let rest = hay.get(from..)?;
    let trimmed = rest.trim_start();
    let skipped = rest.len() - trimmed.len();
    let start = from + skipped;
    let mut chars = trimmed.chars();
    let first = chars.next()?;
    if is_ident(first) {
        let end = trimmed.find(|c: char| !is_ident(c)).unwrap_or(trimmed.len());
        hay.get(start..start + end)
    } else {
        hay.get(start..start + first.len_utf8())
    }
}

/// Index of the `}` (or `)`) matching the opener at `open` in sanitized
/// text. Returns `None` on imbalance.
fn matching_close(hay: &str, open: usize) -> Option<usize> {
    let bytes = hay.as_bytes();
    let (o, c) = match bytes[open] {
        b'{' => (b'{', b'}'),
        b'(' => (b'(', b')'),
        _ => return None,
    };
    let mut depth = 0i64;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        if b == o {
            depth += 1;
        } else if b == c {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// First line (0-based) at which test-only code begins (`#[cfg(test)]`,
/// `#[cfg(all(test, …))]` or a `mod tests`), or the file length if
/// there is none.
pub(crate) fn test_code_start(raw_lines: &[&str]) -> usize {
    raw_lines
        .iter()
        .position(|l| {
            let t = l.trim_start();
            t.starts_with("#[cfg(test)]")
                || t.starts_with("#[cfg(all(test")
                || t.starts_with("mod tests")
                || t.starts_with("pub mod tests")
        })
        .unwrap_or(raw_lines.len())
}

// ---------------------------------------------------------------------------
// Rule: safety-comment
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SiteKind {
    Block,
    Impl,
    Trait,
    Fn,
    Other,
}

#[derive(Debug)]
struct UnsafeSite {
    kind: SiteKind,
    offset: usize,
    line: usize, // 1-based
}

fn unsafe_sites(san: &str, starts: &[usize]) -> Vec<UnsafeSite> {
    word_offsets(san, "unsafe")
        .into_iter()
        .map(|at| {
            let kind = match next_token(san, at + "unsafe".len()) {
                Some("{") => SiteKind::Block,
                Some("impl") => SiteKind::Impl,
                Some("trait") => SiteKind::Trait,
                Some("fn") => SiteKind::Fn,
                _ => SiteKind::Other,
            };
            UnsafeSite { kind, offset: at, line: line_of(starts, at) }
        })
        .collect()
}

/// Byte ranges of `unsafe impl { ... }` bodies: `unsafe fn` items inside
/// inherit the trait's documented contract.
fn unsafe_impl_bodies(san: &str, sites: &[UnsafeSite]) -> Vec<(usize, usize)> {
    sites
        .iter()
        .filter(|s| s.kind == SiteKind::Impl)
        .filter_map(|s| {
            let open = s.offset + san[s.offset..].find('{')?;
            let close = matching_close(san, open)?;
            Some((open, close))
        })
        .collect()
}

/// Is there a `SAFETY:`-style annotation for the construct on `line0`
/// (0-based)? Checks the line itself (trailing comment) and the
/// contiguous comment/attribute block immediately above.
pub(crate) fn has_annotation(raw_lines: &[&str], line0: usize, needles: &[&str]) -> bool {
    let hit = |l: &str| needles.iter().any(|n| l.contains(n));
    if raw_lines.get(line0).is_some_and(|l| hit(l)) {
        return true;
    }
    let mut j = line0;
    while j > 0 {
        j -= 1;
        let t = raw_lines[j].trim_start();
        if t.starts_with("//") {
            if hit(raw_lines[j]) {
                return true;
            }
        } else if t.starts_with('#') && (t.starts_with("#[") || t.starts_with("#![")) {
            // Attributes between the comment and the item are fine.
        } else {
            break;
        }
    }
    false
}

fn rule_safety_comment(rel: &str, raw_lines: &[&str], san: &str, starts: &[usize]) -> Vec<Finding> {
    let sites = unsafe_sites(san, starts);
    let impl_bodies = unsafe_impl_bodies(san, &sites);
    let mut findings = Vec::new();
    for site in &sites {
        let line0 = site.line - 1;
        let (ok, message) = match site.kind {
            SiteKind::Block | SiteKind::Impl | SiteKind::Other => (
                has_annotation(raw_lines, line0, &["SAFETY:"]),
                "`unsafe` without a `// SAFETY:` comment immediately above or trailing",
            ),
            SiteKind::Trait => (
                has_annotation(raw_lines, line0, &["# Safety", "SAFETY:"]),
                "`unsafe trait` without a `# Safety` section in its doc comment",
            ),
            SiteKind::Fn => {
                if impl_bodies.iter().any(|&(o, c)| site.offset > o && site.offset < c) {
                    // Inherits the unsafe trait's documented contract.
                    continue;
                }
                (
                    has_annotation(raw_lines, line0, &["# Safety", "SAFETY:"]),
                    "`unsafe fn` without a `# Safety` doc section or `// SAFETY:` comment",
                )
            }
        };
        if !ok {
            findings.push(Finding {
                rule: "safety-comment",
                file: rel.to_string(),
                line: site.line,
                message: message.to_string(),
                source_line: raw_lines.get(line0).unwrap_or(&"").to_string(),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// Rule: whole-table-borrow
// ---------------------------------------------------------------------------

fn rule_whole_table_borrow(rel: &str, raw_lines: &[&str], san: &str, starts: &[usize]) -> Vec<Finding> {
    if !rel.ends_with("crates/core/src/split.rs") {
        return Vec::new();
    }
    let fail = |line: usize, message: String| {
        vec![Finding {
            rule: "whole-table-borrow",
            file: rel.to_string(),
            line,
            message,
            source_line: raw_lines.get(line.saturating_sub(1)).unwrap_or(&"").to_string(),
        }]
    };
    let Some(fn_at) = san.find("fn drive_waves") else {
        return fail(1, "could not locate `fn drive_waves` — rule anchor lost".into());
    };
    let Some(body) = san[fn_at..].find('{').map(|p| fn_at + p) else {
        return fail(line_of(starts, fn_at), "could not locate the body of `drive_waves`".into());
    };
    let Some(end) = matching_close(san, body) else {
        return fail(line_of(starts, body), "unbalanced `drive_waves` body".into());
    };
    const SHARE: &str = "SyncTable::from_mut";
    let Some(open) = san[body..end].find(SHARE).map(|p| body + p + SHARE.len()) else {
        return fail(
            line_of(starts, body),
            "could not locate `SyncTable::from_mut` inside `drive_waves`".into(),
        );
    };
    let Some(close) = matching_close(san, open) else {
        return fail(line_of(starts, open), "unbalanced `SyncTable::from_mut` call".into());
    };
    // Everything after the table is shared — the worker closure, the
    // lone worker's run and the helpers' `thread::scope` — must reach
    // the table through its views alone.
    let region = &san[close..end];
    word_offsets(region, "table")
        .into_iter()
        .map(|at| {
            let line = line_of(starts, close + at);
            Finding {
                rule: "whole-table-borrow",
                file: rel.to_string(),
                line,
                message: "reference to the whole `table` after `drive_waves` shared it — \
                          wave workers must go through `SyncTableView` raw views only"
                    .to_string(),
                source_line: raw_lines.get(line - 1).unwrap_or(&"").to_string(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Rule: request-path-unwrap
// ---------------------------------------------------------------------------

/// Token-based so that calls split across lines (`.\n    unwrap()`) are
/// still seen — the lexical predecessor matched per line and missed
/// them.
fn rule_request_path_unwrap(f: &tree::FileTokens) -> Vec<Finding> {
    if !(f.rel.contains("crates/service/src/") || f.rel.contains("crates/ladder/src/")) {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for j in 0..f.toks.len() {
        if !f.toks[j].is(".") {
            continue;
        }
        let Some(name) = f.toks.get(j + 1) else { continue };
        if !(name.is("unwrap") || name.is("expect")) || !f.toks.get(j + 2).is_some_and(|t| t.is("(")) {
            continue;
        }
        if f.is_test_line(name.line) {
            continue;
        }
        findings.push(Finding {
            rule: "request-path-unwrap",
            file: f.rel.clone(),
            line: name.line,
            message: format!(
                "`.{}(` on the serving path — handle the error, recover from poison \
                 (`service::sync`-style) or use an explicit `panic!` with context",
                name.text
            ),
            source_line: f
                .raw_lines
                .get(name.line.saturating_sub(1))
                .cloned()
                .unwrap_or_default(),
        });
    }
    findings
}

// ---------------------------------------------------------------------------
// Rule: numeric-truncation
// ---------------------------------------------------------------------------

const NARROW_TYPES: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// Token-based so that casts split across lines (`x as\n    u32`) are
/// still seen; scope is all of `crates/core`.
fn rule_numeric_truncation(f: &tree::FileTokens) -> Vec<Finding> {
    if !f.rel.contains("crates/core/src/") {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for j in 0..f.toks.len() {
        if !f.toks[j].is("as") {
            continue;
        }
        let Some(ty) = f.toks.get(j + 1) else { continue };
        if !NARROW_TYPES.contains(&ty.text.as_str()) || f.is_test_line(f.toks[j].line) {
            continue;
        }
        findings.push(Finding {
            rule: "numeric-truncation",
            file: f.rel.clone(),
            line: f.toks[j].line,
            message: format!(
                "narrowing `as {}` cast in crates/core — use a named audited helper \
                 (e.g. `RelSet::from_wave_bits`) or the allowlist",
                ty.text
            ),
            source_line: f
                .raw_lines
                .get(f.toks[j].line.saturating_sub(1))
                .cloned()
                .unwrap_or_default(),
        });
    }
    findings
}

// ---------------------------------------------------------------------------
// Rule: deny-unsafe-op (cross-file, per crate)
// ---------------------------------------------------------------------------

fn rule_deny_unsafe_op(files: &[(String, String, String)]) -> Vec<Finding> {
    // Group by crate src root: everything up to and including "src/".
    let mut findings = Vec::new();
    let mut roots: Vec<String> = files
        .iter()
        .filter_map(|(rel, _, _)| rel.find("src/").map(|p| rel[..p + 4].to_string()))
        .collect();
    roots.sort();
    roots.dedup();
    for root in roots {
        let in_crate: Vec<_> = files.iter().filter(|(rel, _, _)| rel.starts_with(&root)).collect();
        let has_unsafe = in_crate
            .iter()
            .any(|(_, _, san)| !word_offsets(san, "unsafe").is_empty());
        if !has_unsafe {
            continue;
        }
        let crate_root = in_crate
            .iter()
            .find(|(rel, _, _)| rel == &format!("{root}lib.rs") || rel == &format!("{root}main.rs"));
        let ok = crate_root
            .is_some_and(|(_, raw, _)| raw.contains("#![deny(unsafe_op_in_unsafe_fn)]"));
        if !ok {
            let file = crate_root
                .map(|(rel, _, _)| rel.clone())
                .unwrap_or_else(|| format!("{root}lib.rs"));
            findings.push(Finding {
                rule: "deny-unsafe-op",
                file,
                line: 1,
                message: "crate contains `unsafe` but its root lacks \
                          `#![deny(unsafe_op_in_unsafe_fn)]`"
                    .to_string(),
                source_line: String::new(),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Lint a single source file (all per-file rules). `rel` is the
/// workspace-relative path with forward slashes.
pub fn lint_source(rel: &str, src: &str) -> Vec<Finding> {
    let san = sanitize(src);
    let raw_lines: Vec<&str> = src.lines().collect();
    let starts = line_starts(&san);
    let f = tree::FileTokens::parse(rel, src);
    let mut findings = rule_safety_comment(rel, &raw_lines, &san, &starts);
    findings.extend(rule_whole_table_borrow(rel, &raw_lines, &san, &starts));
    findings.extend(rule_request_path_unwrap(&f));
    findings.extend(rule_numeric_truncation(&f));
    findings
}

/// Run the semantic (call-graph) rules over in-memory `(rel, src)`
/// sources. This is the entry point the self-tests drive with fixture
/// files; `run_lints`/`run_analyze` feed it the real workspace.
pub fn analyze_sources(files: &[(String, String)]) -> (Vec<Finding>, semantic::Summary) {
    let parsed: Vec<tree::FileTokens> =
        files.iter().map(|(rel, src)| tree::FileTokens::parse(rel, src)).collect();
    semantic::analyze(&parsed)
}

/// Walk up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                // `fixtures/` holds deliberately non-compliant sources
                // for the lint's own tests.
                if matches!(name.as_ref(), "target" | ".git" | "fixtures" | ".cargo") {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn load_workspace(root: &Path) -> Result<Vec<(String, String, String)>, String> {
    let paths = collect_rs_files(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let san = sanitize(&src);
        files.push((rel, src, san));
    }
    Ok(files)
}

fn load_allowlist(root: &Path) -> Result<Allowlist, String> {
    match std::fs::read_to_string(root.join("crates/xtask/allowlist.txt")) {
        Ok(text) => Allowlist::parse(&text),
        Err(_) => Ok(Allowlist::default()),
    }
}

/// Run every lint — lexical and semantic — over the workspace rooted at
/// `root`, applying the allowlist at `crates/xtask/allowlist.txt` if
/// present (with stale-entry detection).
pub fn run_lints(root: &Path) -> Result<Report, String> {
    let allowlist = load_allowlist(root)?;
    let files = load_workspace(root)?;
    let mut report = Report { files_scanned: files.len(), ..Report::default() };
    let mut all = Vec::new();
    for (rel, src, _) in &files {
        all.extend(lint_source(rel, src));
    }
    all.extend(rule_deny_unsafe_op(&files));
    let sources: Vec<(String, String)> =
        files.iter().map(|(rel, src, _)| (rel.clone(), src.clone())).collect();
    let (semantic_findings, _summary) = analyze_sources(&sources);
    all.extend(semantic_findings);
    apply_allowlist(&allowlist, all, &mut report);
    report.findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Run only the semantic rules over the workspace, returning the
/// allowlist-filtered findings plus the call-graph summary. Stale
/// allowlist entries are *not* reported here — lexical-rule entries
/// legitimately match nothing in a semantic-only run; `run_lints` owns
/// that check.
pub fn run_analyze(root: &Path) -> Result<(Report, semantic::Summary), String> {
    let allowlist = load_allowlist(root)?;
    let files = load_workspace(root)?;
    let sources: Vec<(String, String)> =
        files.iter().map(|(rel, src, _)| (rel.clone(), src.clone())).collect();
    let (findings, summary) = analyze_sources(&sources);
    let mut report = Report { files_scanned: files.len(), ..Report::default() };
    for finding in findings {
        if allowlist.permits(&finding) {
            report.suppressed += 1;
        } else {
            report.findings.push(finding);
        }
    }
    report.findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok((report, summary))
}
