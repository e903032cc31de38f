//! # rock-analyze
//!
//! A dependency-free static-analysis pass for the ROCK workspace.
//!
//! ROCK's correctness hinges on numeric invariants the Rust compiler
//! cannot see: goodness denominators must stay finite and positive, link
//! counts must be symmetric, heap orderings must never hit a NaN, and
//! every run must be bit-for-bit reproducible. This crate walks all
//! workspace `.rs` files with a hand-rolled lexer (no `syn` — the
//! workspace builds offline with zero external dependencies) and enforces
//! project-specific lints over the shipped sources; see [`lints`] for the
//! lint table and [`lexer`] for the tokenizer.
//!
//! The `rock-analyze` binary wires this into CI:
//!
//! ```text
//! rock-analyze --deny            # exit 1 on any finding (the CI gate)
//! rock-analyze --root <dir>      # analyze a different tree
//! rock-analyze --list            # describe every lint
//! ```
//!
//! Findings are machine-readable, one per line:
//!
//! ```text
//! crates/core/src/snapshot.rs:114: core-unwrap: `.expect()` in rock-core library code; …
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod determinism;
pub mod itemtree;
pub mod lexer;
pub mod lints;

pub use lints::{analyze_source, applicable_lints, Finding, LintInfo, LINTS};

use std::path::{Path, PathBuf};

/// Directory names never descended into when walking a tree. (`data`
/// and `results` hold no Rust sources but are cheap to walk; they are
/// not listed so that source directories like `crates/core/src/data`
/// are never shadowed by name.)
const SKIP_DIRS: [&str; 3] = ["target", ".git", "fixtures"];

/// Recursively collects the `.rs` files under `root`, skipping build
/// output, VCS metadata, committed results, and lint fixtures. Paths are
/// returned sorted for deterministic reports.
pub fn collect_rust_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Analyzes every `.rs` file under `root`, returning all findings sorted
/// by `(path, line, lint)`. Files that cannot be read as UTF-8 are
/// skipped (generated or binary artifacts are not lintable source).
pub fn analyze_tree(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for path in collect_rust_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(source) = std::fs::read_to_string(&path) else {
            continue;
        };
        findings.extend(analyze_source(&rel, &source));
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
    Ok(findings)
}
