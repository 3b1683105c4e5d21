//! crayfish-lint: the repo's own static-analysis pass.
//!
//! Per-file rules (`rules.rs`, DESIGN.md §3g):
//!
//! * `clock-authority` — no `Instant::now()` / `SystemTime::now()` outside
//!   `crayfish-sim` (ratcheted via `lint-baseline.txt`).
//! * `hot-path-alloc` — no heap allocation (`Vec::new`, `vec![`,
//!   `.to_vec(`, `.collect(`) inside compute-kernel and reactor `poll_*`
//!   bodies (ratcheted; compat wrappers baselined).
//! * `span-coverage` — every polling worker body in the engine kernel
//!   carries a chaos checkpoint and an obs span/charge.
//! * `forbid-unsafe` — every crate root declares
//!   `#![forbid(unsafe_code)]`.
//!
//! Interprocedural analyses over the project call graph (`items.rs` →
//! `callgraph.rs` → `analysis.rs`):
//!
//! * `lock-rank` / `lock-rank-chain` — ranked locks acquired in ascending
//!   rank order, with held-guard sets propagated through call edges.
//! * `lock-order-cycle` — the empirical lock-order graph built from every
//!   observed acquisition pair must be acyclic.
//! * `hot-path-alloc-transitive` — the zero-allocation promise extends
//!   through transitive callees of kernels and reactor poll functions.
//! * `blocking-in-reactor` — no unbounded blocking call reachable from the
//!   net reactor's poll thread.
//! * `panic-reachability` — no `unwrap`/`expect`/`panic!` reachable from
//!   engine-kernel worker entry points, the scoring body they share
//!   (`crayfish-core`), broker RPC handlers, or the deployment binaries.
//!
//! Findings can be suppressed in-source with
//! `// crayfish-lint: allow(<rule>) -- <reason>`; a suppression without a
//! reason, or one that matches nothing, is itself a failure.
//!
//! Usage: `cargo run -p crayfish-lint` (check), `-- --write-baseline`
//! (ratchet), `-- --self-test` (prove the rules catch seeded violations),
//! `-- --json <path>` (machine-readable report), `-- --github` (findings
//! as `::error` workflow annotations).
//! Exit codes: 0 clean, 1 findings, 2 usage/config error.

#![forbid(unsafe_code)]

mod analysis;
mod baseline;
mod callgraph;
mod items;
mod json;
mod rules;
mod selftest;
mod source;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use baseline::Counts;
use rules::Violation;
use source::SourceFile;

enum Mode {
    Check,
    WriteBaseline,
    SelfTest,
}

fn main() -> ExitCode {
    let mut mode = Mode::Check;
    let mut root: Option<PathBuf> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut github = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--write-baseline" => mode = Mode::WriteBaseline,
            "--self-test" => mode = Mode::SelfTest,
            "--github" => github = true,
            "--json" => match args.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => return usage("--json needs a path"),
            },
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root needs a path"),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    let root = match root.map_or_else(find_root, Ok) {
        Ok(r) => r,
        Err(e) => return usage(&e),
    };
    let result = match mode {
        Mode::SelfTest => self_test(),
        Mode::WriteBaseline => scan(&root, true, json_path.as_deref(), github),
        Mode::Check => scan(&root, false, json_path.as_deref(), github),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(failures) => {
            for f in &failures {
                eprintln!("crayfish-lint: {}", f.text);
                if github {
                    if let Some((rel, line)) = &f.at {
                        println!(
                            "::error file={rel},line={line}::{}",
                            f.text.replace('\n', " ")
                        );
                    }
                }
            }
            eprintln!("crayfish-lint: {} failure(s)", failures.len());
            ExitCode::FAILURE
        }
    }
}

/// A lint failure: the message, plus a source location when one exists
/// (baseline bookkeeping failures have none).
pub struct Failure {
    pub text: String,
    pub at: Option<(String, usize)>,
}

impl Failure {
    fn bare(text: String) -> Failure {
        Failure { text, at: None }
    }

    fn of(v: &Violation) -> Failure {
        Failure {
            text: format!("{}: {}:{}: {}", v.rule, v.rel, v.line, v.msg),
            at: Some((v.rel.clone(), v.line)),
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("crayfish-lint: {msg}");
    eprintln!(
        "usage: crayfish-lint [--root <repo>] [--json <path>] [--github] \
         [--write-baseline | --self-test]"
    );
    ExitCode::from(2)
}

/// The workspace root: the nearest ancestor of the current directory
/// holding both `Cargo.toml` and `crates/`. `cargo run -p crayfish-lint`
/// starts at the workspace root already.
fn find_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("current_dir: {e}"))?;
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").is_dir() {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err("not inside the workspace (no Cargo.toml + crates/ found)".into());
        }
    }
}

fn self_test() -> Result<(), Vec<Failure>> {
    let failures = selftest::run();
    if failures.is_empty() {
        println!("crayfish-lint: self-test passed (all seeded violations caught)");
        Ok(())
    } else {
        Err(failures.into_iter().map(Failure::bare).collect())
    }
}

/// One processed finding: the violation plus its suppression state.
pub struct Finding {
    pub v: Violation,
    /// `Some(reason)` when an in-source allow matched.
    pub suppressed: Option<String>,
}

/// Everything one full lint pass produces. Shared by the real scan and
/// `--self-test`, so the self-test exercises the same engine end to end.
pub struct LintOutput {
    /// Every finding, including suppressed ones (for the JSON report).
    pub findings: Vec<Finding>,
    /// Active (unsuppressed) findings of hard rules.
    pub hard: Vec<Violation>,
    /// Active findings of ratcheted rules, keyed `(rule, fingerprint)`.
    pub counts: Counts,
    /// Suppression misuse: missing reason, or matching no finding.
    pub suppression_errors: Vec<Failure>,
    pub project: analysis::Project,
}

/// Run every per-file rule and every interprocedural analysis over a file
/// set, then apply in-source suppressions.
pub fn lint_files(files: &[SourceFile]) -> LintOutput {
    let mut violations: Vec<Violation> = Vec::new();
    for file in files {
        violations.extend(rules::all_rules(file));
    }
    let (project, interproc) = analysis::analyze(files);
    violations.extend(interproc);
    violations.sort_by(|a, b| {
        (&a.rel, a.line, a.rule, &a.fingerprint).cmp(&(&b.rel, b.line, b.rule, &b.fingerprint))
    });

    // Suppressions: each may satisfy many findings (one `allow` above a
    // line with two unwraps covers both), but must satisfy at least one.
    let mut suppression_errors = Vec::new();
    let mut sups: Vec<(String, source::Suppression, bool)> = Vec::new();
    for file in files {
        // The lint's own sources (self-test seeds, the suppression
        // parser, docs) mention the marker without meaning it.
        if file.rel.starts_with("crates/lint/") {
            continue;
        }
        for s in source::suppressions(&file.raw) {
            if s.reason.is_none() {
                suppression_errors.push(Failure {
                    text: format!(
                        "suppression: {}:{}: allow({}) lacks a reason; write \
                         `// crayfish-lint: allow({}) -- <why this is sound>`",
                        file.rel, s.line, s.rule, s.rule
                    ),
                    at: Some((file.rel.clone(), s.line)),
                });
                continue;
            }
            sups.push((file.rel.clone(), s, false));
        }
    }
    let mut findings = Vec::new();
    for v in violations {
        let mut suppressed = None;
        for (rel, s, used) in sups.iter_mut() {
            if *rel == v.rel && s.rule == v.rule && (v.line == s.line || v.line == s.line + 1) {
                *used = true;
                suppressed = s.reason.clone();
                break;
            }
        }
        findings.push(Finding { v, suppressed });
    }
    for (rel, s, used) in &sups {
        if !used {
            suppression_errors.push(Failure {
                text: format!(
                    "suppression: {rel}:{}: allow({}) matches no finding on this or the \
                     next line — remove it",
                    s.line, s.rule
                ),
                at: Some((rel.clone(), s.line)),
            });
        }
    }

    let mut hard = Vec::new();
    let mut counts = Counts::new();
    for f in &findings {
        if f.suppressed.is_some() {
            continue;
        }
        if rules::BASELINED.contains(&f.v.rule) {
            *counts
                .entry((f.v.rule.to_string(), f.v.fingerprint.clone()))
                .or_insert(0) += 1;
        } else {
            hard.push(f.v.clone());
        }
    }
    LintOutput {
        findings,
        hard,
        counts,
        suppression_errors,
        project,
    }
}

fn scan(
    root: &Path,
    write: bool,
    json_path: Option<&Path>,
    github: bool,
) -> Result<(), Vec<Failure>> {
    // Scan src/ trees only: integration tests, benches, and examples may
    // unwrap and read the wall clock.
    let mut paths = Vec::new();
    let mut src_dirs = vec![root.join("src")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        let mut crates: Vec<_> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
        crates.sort();
        for krate in crates {
            src_dirs.push(krate.join("src"));
        }
    }
    for dir in src_dirs {
        if let Err(e) = source::collect_rs(&dir, &mut paths) {
            return Err(vec![Failure::bare(format!("walk {}: {e}", dir.display()))]);
        }
    }
    let mut files = Vec::new();
    for path in paths {
        match SourceFile::load(root, path) {
            Ok(f) => files.push(f),
            Err(e) => return Err(vec![Failure::bare(format!("load: {e}"))]),
        }
    }
    let scanned = files.len();
    let out = lint_files(&files);

    if let Some(path) = json_path {
        if let Err(e) = json::write_report(path, &out) {
            return Err(vec![Failure::bare(e)]);
        }
    }
    if github {
        // Annotate every active finding inline on the PR diff: hard
        // failures as errors, ratcheted (baselined) debt as notices so a
        // passing run doesn't render error marks.
        for f in out.findings.iter().filter(|f| f.suppressed.is_none()) {
            let level = if rules::BASELINED.contains(&f.v.rule) {
                "notice"
            } else {
                "error"
            };
            println!(
                "::{level} file={},line={}::{}: {}",
                f.v.rel,
                f.v.line,
                f.v.rule,
                f.v.msg.replace('\n', " ")
            );
        }
    }

    let mut failures: Vec<Failure> = out.hard.iter().map(Failure::of).collect();
    failures.extend(out.suppression_errors);
    if write {
        if let Err(e) = baseline::write(root, &out.counts) {
            failures.push(Failure::bare(e));
            return Err(failures);
        }
        let total: usize = out.counts.values().sum();
        println!(
            "crayfish-lint: baseline written ({total} ratcheted finding(s) across {} entr(ies))",
            out.counts.len()
        );
        if failures.is_empty() {
            return Ok(());
        }
        return Err(failures);
    }
    let base = match baseline::load(root) {
        Ok(b) => b,
        Err(e) => return Err(vec![Failure::bare(e)]),
    };
    failures.extend(
        baseline::compare(&out.counts, &base)
            .into_iter()
            .map(Failure::bare),
    );
    if failures.is_empty() {
        let g = &out.project.graph;
        println!(
            "crayfish-lint: {scanned} files clean (baseline holds {} entries; call graph: \
             {} fns, {} resolved / {} ambiguous / {} unresolved call edges; \
             {} lock-order edges, acyclic)",
            base.len(),
            g.fns.len(),
            g.resolved_edges,
            g.ambiguous_edges,
            g.unresolved_edges,
            out.project.lock_edges.len()
        );
        Ok(())
    } else {
        Err(failures)
    }
}
