//! The ROCK-specific lints and the engine that runs them.
//!
//! Each lint guards a numeric or determinism invariant the compiler cannot
//! see (see DESIGN.md §Static analysis). Lints are scoped by workspace
//! path: the strictest set applies to `rock-core` library code, where a
//! silent panic or lossy cast corrupts clustering results. The
//! determinism/concurrency pack ([`crate::determinism`]) additionally
//! covers test suites and benches — a nondeterministic assertion flakes
//! just as badly as a nondeterministic export.
//!
//! | lint            | scope                          | enforces |
//! |-----------------|--------------------------------|----------|
//! | `core-unwrap`   | `crates/core/src`              | no `.unwrap()` / `.expect()` — return [`RockError`] |
//! | `core-bare-cast`| `crates/core/src`              | no bare `as` numeric casts — use `From`/`try_from`/`cast` helpers |
//! | `float-ord`     | all shipped `src/`             | no `partial_cmp` / raw float `Ord` shims outside the audited `GoodnessOrd` site |
//! | `counter-flush` | `crates/core/src`              | hot-loop local telemetry counters must be flushed before scope exit |
//! | `wall-clock`    | core (sans telemetry), datasets, baselines | no `SystemTime::now` / `Instant::now` — keeps runs reproducible |
//! | `nondet-iter`   | everywhere linted              | no `HashMap`/`HashSet` iteration without sort/`BTree*`/justified allow |
//! | `atomic-ordering` | everywhere linted            | atomic ops use their documented class ordering; no bare `SeqCst` |
//! | `spawn-merge-order` | everywhere linted          | worker results merged in spawn order, never channel-arrival order |
//! | `panic-path`    | `crates/serve/src`             | serve fails closed: no `panic!`/`unwrap`/`expect`/indexing |
//! | `guard-loop`    | core phase + serve registry/admin files | unbounded loops poll their cancellation signal: the `Guard` (`checkpoint`/`merge_tick`) in core, the shutdown flag (`stop`/`stopping`) in serve |
//!
//! Any finding can be suppressed with a justified directive on the same
//! or previous line:
//!
//! ```text
//! // rock-analyze: allow(core-bare-cast) — audited: debug-asserted in range above.
//! ```
//!
//! [`RockError`]: https://docs.rs/rock-core
//!
//! Suppressions *without* a justification are themselves reported (as
//! `bare-allow`), and suppressions that no longer suppress anything are
//! reported as `unused-allow` — every exception in the tree documents its
//! reason, and no stale exception outlives the code it audited.

use std::fmt;

use crate::determinism::{self, FileCtx};
use crate::itemtree::ItemTree;
use crate::lexer::{lex, test_mask, Tok, TokKind};

/// Static description of one lint.
#[derive(Debug, Clone, Copy)]
pub struct LintInfo {
    /// Machine-readable lint name (used in reports and `allow(...)`).
    pub name: &'static str,
    /// One-line summary of what the lint enforces.
    pub summary: &'static str,
}

/// Every lint this analyzer knows, in report order.
pub const LINTS: [LintInfo; 12] = [
    LintInfo {
        name: "core-unwrap",
        summary: "no .unwrap()/.expect() in rock-core library code; return a typed RockError",
    },
    LintInfo {
        name: "core-bare-cast",
        summary: "no bare `as` numeric casts in rock-core; use From/try_from or rock_core::cast",
    },
    LintInfo {
        name: "float-ord",
        summary: "no partial_cmp/raw float Ord shims outside the audited agglomerate::GoodnessOrd",
    },
    LintInfo {
        name: "counter-flush",
        summary: "local telemetry counters must reach add/observe/flush before leaving scope",
    },
    LintInfo {
        name: "wall-clock",
        summary: "no SystemTime::now/Instant::now outside telemetry; runs must be reproducible",
    },
    LintInfo {
        name: "nondet-iter",
        summary: "no HashMap/HashSet iteration without BTree*/explicit sort/justified allow",
    },
    LintInfo {
        name: "atomic-ordering",
        summary: "atomic ops use their documented class ordering (no bare SeqCst/mismatches)",
    },
    LintInfo {
        name: "spawn-merge-order",
        summary: "per-worker results merge by indexed loop in spawn order, never arrival order",
    },
    LintInfo {
        name: "panic-path",
        summary: "no panic!/unwrap/expect/indexing in rock-serve; the server fails closed",
    },
    LintInfo {
        name: "guard-loop",
        summary: "unbounded loops poll their cancellation signal (core: Guard; serve: stop flag)",
    },
    LintInfo {
        name: "bare-allow",
        summary: "every rock-analyze: allow(...) directive must carry a justification",
    },
    LintInfo {
        name: "unused-allow",
        summary: "an allow(...) directive that suppresses nothing is itself an error",
    },
];

/// One lint violation at a specific source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line of the violation.
    pub line: u32,
    /// Name of the violated lint.
    pub lint: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.lint, self.message
        )
    }
}

impl Finding {
    /// Renders the finding as one JSON object (stable key order).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"path\":{},\"line\":{},\"lint\":{},\"message\":{}}}",
            json_str(&self.path),
            self.line,
            json_str(self.lint),
            json_str(&self.message)
        )
    }
}

/// Minimal JSON string escaping (the workspace is dependency-free).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Integer and float primitive type names — the targets L2 refuses to see
/// on the right of a bare `as`.
const NUMERIC_PRIMITIVES: [&str; 14] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// Local-binding names that denote telemetry tallies (L4). Deliberately a
/// narrow list: these are the pipeline-counter field names and their
/// conventional locals, not every integer accumulator in the codebase.
const COUNTER_NAMES: [&str; 9] = [
    "pushes",
    "pops",
    "merges",
    "sampled",
    "labeled",
    "pruned",
    "filtered",
    "comparisons",
    "evaluations",
];

/// Idents that count as "the tally reached the telemetry layer" (L4).
fn is_flush_ident(name: &str) -> bool {
    matches!(name, "add" | "observe" | "fetch_add") || name.starts_with("flush")
}

/// Which lints apply to a file, given its workspace-relative path.
///
/// Shipped library/binary sources get the full set for their crate. Test
/// suites, benches, and examples get the determinism pack plus the
/// directive lints — a nondeterministic assertion flakes just as badly as
/// a nondeterministic export, so `tests/` and `crates/bench` are scanned
/// too. Only the analyzer's own fixture corpus is exempt by location
/// (test *modules* inside shipped files are exempted per-lint by the
/// lexer's test mask).
pub fn applicable_lints(rel_path: &str) -> Vec<&'static str> {
    let p = rel_path.replace('\\', "/");
    if !p.ends_with(".rs") || p.contains("/fixtures/") || p.starts_with("target/") {
        return Vec::new();
    }
    let shipped = p.starts_with("src/") || (p.starts_with("crates/") && p.contains("/src/"));
    let test_code = p.starts_with("tests/")
        || p.contains("/tests/")
        || p.contains("/benches/")
        || p.starts_with("examples/");
    if !shipped && !test_code {
        return Vec::new();
    }
    // The determinism pack and the directive lints apply everywhere.
    let mut lints = vec![
        "nondet-iter",
        "atomic-ordering",
        "spawn-merge-order",
        "bare-allow",
        "unused-allow",
    ];
    if shipped {
        lints.push("float-ord");
        if p.starts_with("crates/core/src/") {
            lints.extend(["core-unwrap", "core-bare-cast", "counter-flush"]);
            if !p.starts_with("crates/core/src/telemetry/") {
                lints.push("wall-clock");
            }
            if determinism::is_guard_scope(&p) {
                lints.push("guard-loop");
            }
        } else if p.starts_with("crates/datasets/src/") || p.starts_with("crates/baselines/src/") {
            lints.push("wall-clock");
        } else if p.starts_with("crates/serve/src/") {
            lints.push("panic-path");
            if determinism::is_guard_scope(&p) {
                lints.push("guard-loop");
            }
        }
    }
    lints
}

/// Runs every applicable lint over one file's source, returning findings
/// sorted by line. `rel_path` must be workspace-relative (it selects the
/// lint set and is echoed verbatim into findings).
pub fn analyze_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let lints = applicable_lints(rel_path);
    if lints.is_empty() {
        return Vec::new();
    }
    let lexed = lex(source);
    let mask = test_mask(&lexed.tokens);
    let toks = &lexed.tokens;
    let tree = ItemTree::build(toks);

    let mut findings: Vec<Finding> = Vec::new();
    let mut emit = |line: u32, lint: &'static str, message: String| {
        findings.push(Finding {
            path: rel_path.to_string(),
            line,
            lint,
            message,
        });
    };

    for (i, tok) in toks.iter().enumerate() {
        if mask[i] || tok.kind != TokKind::Ident {
            continue;
        }
        match tok.text.as_str() {
            "unwrap" | "expect" if lints.contains(&"core-unwrap") => {
                let dotted = i > 0 && toks[i - 1].is_punct('.');
                let called = toks.get(i + 1).is_some_and(|t| t.is_punct('('));
                if dotted && called {
                    emit(
                        tok.line,
                        "core-unwrap",
                        format!(
                            "`.{}()` in rock-core library code; return a typed `RockError` \
                             (or justify with `// rock-analyze: allow(core-unwrap)`)",
                            tok.text
                        ),
                    );
                }
            }
            "as" if lints.contains(&"core-bare-cast") => {
                if let Some(next) = toks.get(i + 1) {
                    if next.kind == TokKind::Ident
                        && NUMERIC_PRIMITIVES.contains(&next.text.as_str())
                    {
                        emit(
                            next.line,
                            "core-bare-cast",
                            format!(
                                "bare `as {}` numeric cast in rock-core; use `From`/`try_from` \
                                 or a `rock_core::cast` helper",
                                next.text
                            ),
                        );
                    }
                }
            }
            "partial_cmp" if lints.contains(&"float-ord") => {
                emit(
                    tok.line,
                    "float-ord",
                    "`partial_cmp` outside the audited `agglomerate::GoodnessOrd` site; \
                     route float orderings through `GoodnessOrd`"
                        .to_string(),
                );
            }
            "SystemTime" | "Instant" if lints.contains(&"wall-clock") => {
                let is_now_call = toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|t| t.is_ident("now"));
                if is_now_call {
                    emit(
                        tok.line,
                        "wall-clock",
                        format!(
                            "`{}::now()` outside the telemetry module makes runs \
                             nondeterministic; route timing through the Observer",
                            tok.text
                        ),
                    );
                }
            }
            "mut" if lints.contains(&"counter-flush") => {
                if let Some(f) = counter_flush_finding(toks, i) {
                    emit(f.0, "counter-flush", f.1);
                }
            }
            _ => {}
        }
    }

    if lints.contains(&"bare-allow") {
        for d in &lexed.directives {
            if !d.has_reason {
                emit(
                    d.line,
                    "bare-allow",
                    format!(
                        "allow({}) directive without a justification; append the reason \
                         after the closing parenthesis",
                        d.lints.join(", ")
                    ),
                );
            }
        }
    }

    // The determinism/concurrency pack runs off the item tree.
    findings.extend(determinism::run(&FileCtx {
        path: rel_path,
        toks,
        mask: &mask,
        tree: &tree,
        lints: &lints,
    }));

    // Apply suppression directives — an allow on line L silences that
    // lint on lines L and L+1 (a standalone comment covers the next
    // line) — while tracking which directives actually suppress
    // something. The directive lints themselves are never suppressible.
    let mut used = vec![false; lexed.directives.len()];
    findings.retain(|f| {
        if f.lint == "bare-allow" || f.lint == "unused-allow" {
            return true;
        }
        let mut keep = true;
        for (d, u) in lexed.directives.iter().zip(used.iter_mut()) {
            if (d.line == f.line || d.line + 1 == f.line) && d.lints.iter().any(|l| l == f.lint) {
                *u = true;
                keep = false;
            }
        }
        keep
    });

    // A directive that suppressed nothing is stale: either the code it
    // audited is gone, or it names a lint that cannot fire here.
    if lints.contains(&"unused-allow") {
        for (d, u) in lexed.directives.iter().zip(&used) {
            if *u {
                continue;
            }
            let unknown: Vec<&str> = d
                .lints
                .iter()
                .map(String::as_str)
                .filter(|l| !LINTS.iter().any(|li| li.name == *l))
                .collect();
            let detail = if unknown.is_empty() {
                "nothing on this or the next line fires it — delete the stale directive".to_string()
            } else {
                format!("no such lint: {}", unknown.join(", "))
            };
            findings.push(Finding {
                path: rel_path.to_string(),
                line: d.line,
                lint: "unused-allow",
                message: format!(
                    "allow({}) directive suppresses nothing ({detail})",
                    d.lints.join(", ")
                ),
            });
        }
    }

    findings.sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
    findings
}

/// L4 helper. `i` points at a `mut` token; fires when it declares a local
/// telemetry counter (a `let mut <counter>` within the preceding few
/// tokens) whose enclosing block ends without any flush-like call.
/// Returns `(line, message)` for a violation.
fn counter_flush_finding(toks: &[Tok], i: usize) -> Option<(u32, String)> {
    let name_tok = toks.get(i + 1)?;
    if name_tok.kind != TokKind::Ident || !COUNTER_NAMES.contains(&name_tok.text.as_str()) {
        return None;
    }
    // Require a `let` shortly before, in the same statement.
    let mut saw_let = false;
    for back in toks[..i].iter().rev().take(8) {
        if back.is_punct(';') || back.is_punct('{') || back.is_punct('}') {
            break;
        }
        if back.is_ident("let") {
            saw_let = true;
            break;
        }
    }
    if !saw_let {
        return None;
    }
    // Scan to the end of the enclosing block, looking for a flush.
    let mut depth = 0usize;
    for t in &toks[i + 2..] {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            if depth == 0 {
                break;
            }
            depth -= 1;
        } else if t.kind == TokKind::Ident && is_flush_ident(&t.text) {
            return None;
        }
    }
    Some((
        name_tok.line,
        format!(
            "local telemetry counter `{}` never reaches the telemetry layer; call \
             `PipelineCounters::add`/`observe`/a `flush*` method before leaving scope",
            name_tok.text
        ),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const CORE: &str = "crates/core/src/sample.rs";

    fn lint_lines(findings: &[Finding], lint: &str) -> Vec<u32> {
        findings
            .iter()
            .filter(|f| f.lint == lint)
            .map(|f| f.line)
            .collect()
    }

    #[test]
    fn scoping_follows_workspace_layout() {
        assert!(applicable_lints("crates/core/src/agglomerate.rs").contains(&"core-unwrap"));
        assert!(!applicable_lints("crates/baselines/src/kmodes.rs").contains(&"core-unwrap"));
        assert!(applicable_lints("crates/baselines/src/kmodes.rs").contains(&"wall-clock"));
        assert!(!applicable_lints("crates/core/src/telemetry/mod.rs").contains(&"wall-clock"));
        assert!(applicable_lints("src/lib.rs").contains(&"float-ord"));
        // Test and example code carries the determinism pack (a flaky
        // harness hides real regressions) but not the shipped-code lints.
        assert!(applicable_lints("tests/pipeline.rs").contains(&"nondet-iter"));
        assert!(!applicable_lints("tests/pipeline.rs").contains(&"core-unwrap"));
        assert!(!applicable_lints("tests/pipeline.rs").contains(&"panic-path"));
        // Serve registry/admin files carry guard-loop (shutdown-flag
        // variant); the parser/CLI files do not.
        assert!(applicable_lints("crates/serve/src/registry.rs").contains(&"guard-loop"));
        assert!(applicable_lints("crates/serve/src/server.rs").contains(&"guard-loop"));
        assert!(!applicable_lints("crates/serve/src/http.rs").contains(&"guard-loop"));
        assert!(applicable_lints("examples/quickstart.rs").contains(&"spawn-merge-order"));
        assert!(applicable_lints("crates/bench/src/main.rs").contains(&"atomic-ordering"));
        assert!(applicable_lints("crates/analysis/tests/fixtures/l1.rs").is_empty());
        assert!(applicable_lints("crates/core/src/notes.md").is_empty());
    }

    #[test]
    fn unwrap_in_test_module_is_exempt() {
        let src = "fn lib() -> u32 { x.unwrap() }\n#[cfg(test)]\nmod tests {\n  fn t() { y.unwrap(); }\n}\n";
        let lines = lint_lines(&analyze_source(CORE, src), "core-unwrap");
        assert_eq!(lines, vec![1]);
    }

    #[test]
    fn suppression_requires_matching_lint_and_line() {
        let src = "\
// rock-analyze: allow(core-unwrap) — infallible: guarded by is_empty above.
let a = x.unwrap();
let b = y.unwrap();
";
        let lines = lint_lines(&analyze_source(CORE, src), "core-unwrap");
        assert_eq!(lines, vec![3]);
    }

    #[test]
    fn bare_allow_is_reported() {
        let src = "// rock-analyze: allow(core-unwrap)\nlet a = x.unwrap();\n";
        let f = analyze_source(CORE, src);
        assert_eq!(lint_lines(&f, "bare-allow"), vec![1]);
        assert!(lint_lines(&f, "core-unwrap").is_empty());
    }

    #[test]
    fn counter_flush_pass_and_fail() {
        let flushed = "fn f(c: &C) { let (mut pushes, mut pops) = t();\n  pushes += 1;\n  PipelineCounters::add(&c.x, pushes); }";
        assert!(lint_lines(&analyze_source(CORE, flushed), "counter-flush").is_empty());
        let dropped = "fn f() -> u64 { let mut merges = 0;\n  merges += 1;\n  merges }";
        assert_eq!(
            lint_lines(&analyze_source(CORE, dropped), "counter-flush"),
            vec![1]
        );
        // An ordinary accumulator name is not a telemetry counter.
        let benign = "fn f() -> u64 { let mut total = 0; total += 1; total }";
        assert!(lint_lines(&analyze_source(CORE, benign), "counter-flush").is_empty());
    }

    #[test]
    fn wall_clock_flags_both_clocks() {
        let src = "fn f() { let a = Instant::now(); let b = std::time::SystemTime::now(); }";
        assert_eq!(
            lint_lines(&analyze_source(CORE, src), "wall-clock").len(),
            2
        );
        // `Instant` mentioned without `::now` (e.g. a type annotation) is fine.
        let benign = "fn f(t: Instant) -> Instant { t }";
        assert!(lint_lines(&analyze_source(CORE, benign), "wall-clock").is_empty());
    }

    #[test]
    fn cast_lint_names_the_target_type() {
        let src = "fn f(n: usize) -> u32 { n as u32 }";
        let f = analyze_source(CORE, src);
        assert_eq!(lint_lines(&f, "core-bare-cast"), vec![1]);
        assert!(f[0].message.contains("as u32"));
        // Casts to non-numeric types are out of scope.
        let benign = "fn f(x: X) -> Y { x as Y }";
        assert!(lint_lines(&analyze_source(CORE, benign), "core-bare-cast").is_empty());
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = r##"
fn f() {
    // a comment mentioning x.unwrap() and partial_cmp and 1 as u32
    let s = "calls .unwrap() and Instant::now() in a string";
    let r = r#"n as u64 partial_cmp"#;
}
"##;
        assert!(analyze_source(CORE, src).is_empty());
    }
}
