//! Fixture-driven integration tests for `rock-analyze`.
//!
//! Each fixture under `tests/fixtures/` is a small Rust source exercising
//! one lint (or the directive machinery). Fixtures are *data*, not code:
//! they are read with `include_str!` and analyzed under a virtual
//! `crates/core/src/` path, because the real `fixtures/` directory is
//! deliberately exempt from linting (and from the tree walk) so the CI
//! gate never trips over its own test corpus.

use rock_analyze::{analyze_source, applicable_lints, collect_rust_files, Finding};

/// Analyzes `source` as if it lived at `crates/core/src/<name>` — the
/// strictest lint scope — and returns `(line, lint)` pairs in report order.
fn run_core(name: &str, source: &str) -> Vec<(u32, &'static str)> {
    analyze_source(&format!("crates/core/src/{name}"), source)
        .into_iter()
        .map(|f| (f.line, f.lint))
        .collect()
}

#[test]
fn l1_unwrap_fixture_exact_lines() {
    let src = include_str!("fixtures/l1_unwrap.rs");
    let findings = analyze_source("crates/core/src/l1_unwrap.rs", src);
    let lines: Vec<(u32, &str)> = findings.iter().map(|f| (f.line, f.lint)).collect();
    // `.unwrap()` at line 4, `.expect()` at line 8; the `.unwrap()` inside
    // the `#[cfg(test)]` module (line 19) is exempt.
    assert_eq!(lines, vec![(4, "core-unwrap"), (8, "core-unwrap")]);
    // Reports are machine-readable `path:line: lint: message`.
    assert!(findings[0]
        .to_string()
        .starts_with("crates/core/src/l1_unwrap.rs:4: core-unwrap:"));
    assert!(findings[1]
        .to_string()
        .starts_with("crates/core/src/l1_unwrap.rs:8: core-unwrap:"));
}

#[test]
fn l2_cast_fixture_exact_lines() {
    let src = include_str!("fixtures/l2_cast.rs");
    // Bare numeric casts at lines 4 and 12; `u64::from` (line 8) and the
    // non-numeric `as Branded` (line 16) are out of scope.
    assert_eq!(
        run_core("l2_cast.rs", src),
        vec![(4, "core-bare-cast"), (12, "core-bare-cast")]
    );
}

#[test]
fn l3_float_ord_fixture_exact_lines() {
    let src = include_str!("fixtures/l3_float_ord.rs");
    assert_eq!(run_core("l3_float_ord.rs", src), vec![(7, "float-ord")]);
}

#[test]
fn l4_counter_fixture_exact_lines() {
    let src = include_str!("fixtures/l4_counter.rs");
    // `pushes` (line 4) never reaches a flush; `pops` is flushed through
    // `.add(..)` and `total` is not a telemetry counter name.
    assert_eq!(run_core("l4_counter.rs", src), vec![(4, "counter-flush")]);
}

#[test]
fn l5_wall_clock_fixture_exact_lines() {
    let src = include_str!("fixtures/l5_wall_clock.rs");
    // `Instant::now()` at line 6, `SystemTime::now()` at line 10; the
    // import (line 3) and the pass-through annotation (line 13) are
    // fine, and the justified allow(wall-clock) directive inside the
    // audited monotonic-clock helper (line 18) suppresses the guarded
    // `Instant::now()` on line 19 without any `bare-allow` finding.
    assert_eq!(
        run_core("l5_wall_clock.rs", src),
        vec![(6, "wall-clock"), (10, "wall-clock")]
    );
}

#[test]
fn l6_nondet_iter_fixture_exact_lines() {
    let src = include_str!("fixtures/l6_nondet_iter.rs");
    // The `for` over a map (line 5), an `.iter()` chain with no sort in
    // reach (line 13), and the indexed element of a `Vec<HashMap>`
    // (line 31) fire; the sorted collect (line 18), the iteration over
    // the containing `Vec` itself (line 27), and the justified
    // commutative reduction (line 39) stay silent.
    assert_eq!(
        run_core("l6_nondet_iter.rs", src),
        vec![(5, "nondet-iter"), (13, "nondet-iter"), (31, "nondet-iter"),]
    );
}

#[test]
fn l7_atomic_ordering_fixture_exact_lines() {
    let src = include_str!("fixtures/l7_atomic_ordering.rs");
    // `store(…, SeqCst)` (line 4) and a tally `fetch_add` with `Acquire`
    // (line 5) violate the class table; the compliant class-table fn, the
    // `Ordering`-free `store.load(path)` call, and the justified SeqCst
    // fence (line 22) stay silent.
    assert_eq!(
        run_core("l7_atomic_ordering.rs", src),
        vec![(4, "atomic-ordering"), (5, "atomic-ordering")]
    );
}

#[test]
fn l8_spawn_merge_fixture_exact_lines() {
    let src = include_str!("fixtures/l8_spawn_merge.rs");
    // In the spawning fn, both the `channel()` (line 4) and the `recv()`
    // merge (line 10) are arrival-order; the indexed join loop and the
    // spawn-free receiver helper stay silent.
    assert_eq!(
        run_core("l8_spawn_merge.rs", src),
        vec![(4, "spawn-merge-order"), (10, "spawn-merge-order")]
    );
}

#[test]
fn l9_panic_path_fixture_exact_lines() {
    let src = include_str!("fixtures/l9_panic_path.rs");
    // Under a `crates/serve` path: `panic!` (line 5), `.unwrap()`
    // (line 7) and indexing (line 8) fire; the fail-closed rewrite, the
    // justified in-bounds slice (line 20), and the `#[cfg(test)]`
    // harness (asserts + indexing + unwrap) stay silent.
    let findings = analyze_source("crates/serve/src/l9_panic_path.rs", src);
    let lines: Vec<(u32, &str)> = findings.iter().map(|f| (f.line, f.lint)).collect();
    assert_eq!(
        lines,
        vec![(5, "panic-path"), (7, "panic-path"), (8, "panic-path")]
    );
}

#[test]
fn l10_guard_loop_fixture_exact_lines() {
    let src = include_str!("fixtures/l10_guard_loop.rs");
    // Analyzed under a core phase path (the lint's exact file scope):
    // the poll-free `while` (line 4) fires; the `checkpoint`-polling
    // loop, the justified bounded loop (line 21), and the `for` loop
    // stay silent.
    let findings = analyze_source("crates/core/src/sampling.rs", src);
    let lines: Vec<(u32, &str)> = findings.iter().map(|f| (f.line, f.lint)).collect();
    assert_eq!(lines, vec![(4, "guard-loop")]);
    // Outside the phase files the lint is out of scope — and its allow
    // directive, now suppressing nothing, is itself reported stale.
    let elsewhere = analyze_source("crates/core/src/hash.rs", src);
    let lines: Vec<(u32, &str)> = elsewhere.iter().map(|f| (f.line, f.lint)).collect();
    assert_eq!(lines, vec![(20, "unused-allow")]);
}

#[test]
fn unused_allow_fixture_exact_lines() {
    let src = include_str!("fixtures/unused_allow.rs");
    // A directive whose target was refactored away (line 4) and one
    // naming a lint that does not exist (line 9) are both stale; the
    // live justified directive (line 14) suppresses its unwrap and is
    // not reported.
    let findings = analyze_source("crates/core/src/unused_allow.rs", src);
    let lines: Vec<(u32, &str)> = findings.iter().map(|f| (f.line, f.lint)).collect();
    assert_eq!(lines, vec![(4, "unused-allow"), (9, "unused-allow")]);
    // The unknown-name case says so explicitly.
    assert!(findings[1].message.contains("no such lint: no-such-lint"));
}

#[test]
fn pack_lints_apply_to_test_code() {
    // Satellite scope: tests/, benches and examples carry the
    // determinism pack (a flaky harness hides real regressions), but not
    // the shipped-code lints.
    let src = include_str!("fixtures/l6_nondet_iter.rs");
    let findings = analyze_source("tests/l6_nondet_iter.rs", src);
    let lines: Vec<(u32, &str)> = findings.iter().map(|f| (f.line, f.lint)).collect();
    assert_eq!(
        lines,
        vec![(5, "nondet-iter"), (13, "nondet-iter"), (31, "nondet-iter"),]
    );
}

#[test]
fn allowlist_fixture_directive_semantics() {
    let src = include_str!("fixtures/allowlist.rs");
    // Justified allows suppress their own and the next line (lines 5 and
    // 10 stay silent). A directive for the *wrong* lint suppresses nothing
    // — the cast at line 15 fires AND the stale directive itself is
    // reported (line 14, `unused-allow`) — and a justification-free
    // directive is reported (line 19) while still suppressing its target.
    assert_eq!(
        run_core("allowlist.rs", src),
        vec![
            (14, "unused-allow"),
            (15, "core-bare-cast"),
            (19, "bare-allow"),
        ]
    );
}

#[test]
fn false_positive_fixture_is_silent() {
    let src = include_str!("fixtures/false_positives.rs");
    let findings: Vec<Finding> = analyze_source("crates/core/src/false_positives.rs", src);
    assert!(
        findings.is_empty(),
        "strings/comments fired lints: {findings:?}"
    );
}

#[test]
fn fixtures_are_exempt_by_location() {
    // By path: nothing applies to the fixture corpus itself.
    assert!(applicable_lints("crates/analysis/tests/fixtures/l1_unwrap.rs").is_empty());
    // By walk: the tree collector never descends into `fixtures/`.
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = collect_rust_files(manifest).expect("walk analysis crate");
    assert!(files.iter().any(|p| p.ends_with("src/lints.rs")));
    assert!(
        !files
            .iter()
            .any(|p| p.components().any(|c| c.as_os_str() == "fixtures")),
        "fixture corpus leaked into the tree walk"
    );
}
