//! Full-stack tests for pass 4 (`crates/lint/src/dataflow.rs`): seeded
//! mutations that the dataflow rules must catch (a draw reordered into
//! one match arm → L12, a skipped scratch `clear()` → L13, ungated
//! growth → L14), the clean-kernel negatives, the stale-`lint.allow`
//! hard errors, the unresolvable-root hard error, and the SARIF
//! `codeFlows` round-trip through `peercache-json`'s parser.
//!
//! Every test drives `lint_root` over a real on-disk workspace, so the
//! assertions pin the whole pipeline — scan → tokenize → item tree →
//! call graph → CFG → fixpoint → budgeting — not a single layer.

use std::sync::atomic::{AtomicUsize, Ordering};

use peercache_json::{Value, ValueExt};
use peercache_lint::{lint_root, to_sarif, Rule};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

struct TempWorkspace {
    root: std::path::PathBuf,
}

impl TempWorkspace {
    fn new() -> TempWorkspace {
        let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!(
            "peercache-lint-dataflow-{}-{seq}",
            std::process::id()
        ));
        std::fs::create_dir_all(&root).expect("create temp workspace");
        TempWorkspace { root }
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("create parent dirs");
        }
        std::fs::write(path, content).expect("write fixture file");
    }
}

impl Drop for TempWorkspace {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// A `build_stable`-like constructor where a refactor moved a second
/// draw into one match arm — the exact silent-stream-skew mutation the
/// acceptance criteria seed.
const REORDERED_DRAWS: &str = "//! Stable-build fixture: one arm draws twice, the other once.\n\
     use rand::Rng;\n\
     fn build_stable<R: Rng + ?Sized>(mode: u8, rng: &mut R) -> u64 {\n\
         match mode {\n\
             0 => rng.gen::<u64>() + rng.gen::<u64>(),\n\
             _ => rng.gen(),\n\
         }\n\
     }\n";

/// A workspace kernel whose `acc` clear was skipped: the first touch is
/// a read of whatever the previous solve left behind.
const SKIPPED_CLEAR: &str = "//! Workspace-kernel fixture: the `acc` clear was skipped.\n\
     struct Workspace {\n\
         acc: Vec<u64>,\n\
     }\n\
     fn solve_into(ws: &mut Workspace, xs: &[u64]) -> u64 {\n\
         let mut total = 0u64;\n\
         for v in &ws.acc {\n\
             total = total.wrapping_add(*v);\n\
         }\n\
         for x in xs {\n\
             ws.acc.push(*x);\n\
         }\n\
         total\n\
     }\n";

#[test]
fn seeded_mutation_reordering_draws_into_one_arm_is_caught_by_l12() {
    let ws = TempWorkspace::new();
    ws.write("Cargo.toml", "[workspace]\n");
    ws.write("crates/sim/src/build.rs", REORDERED_DRAWS);

    let report = lint_root(&ws.root).expect("lintable tree");
    assert!(!report.ok(), "unbudgeted L12 must fail the lint");
    let finding = report
        .findings
        .iter()
        .find(|f| f.rule == Rule::L12)
        .expect("L12 finding present");
    assert!(finding.over_budget);
    assert_eq!(finding.path, "crates/sim/src/build.rs");
    assert!(
        finding.message.contains("1 vs 2"),
        "arm draw counts surface in the message: {}",
        finding.message
    );
    assert!(
        finding.flow.len() >= 2,
        "L12 carries an intraprocedural flow: {:?}",
        finding.flow
    );
}

#[test]
fn seeded_mutation_skipping_a_clear_is_caught_by_l13() {
    let ws = TempWorkspace::new();
    ws.write("Cargo.toml", "[workspace]\n");
    ws.write("crates/core/src/kern.rs", SKIPPED_CLEAR);
    ws.write("lint.roots", "L13 crates/core/src/kern.rs solve_into\n");

    let report = lint_root(&ws.root).expect("lintable tree");
    assert!(!report.ok(), "skipped clear must fail the lint");
    let finding = report
        .findings
        .iter()
        .find(|f| f.rule == Rule::L13)
        .expect("L13 finding present");
    assert!(finding.over_budget);
    assert_eq!(finding.path, "crates/core/src/kern.rs");
    assert!(
        finding.message.contains("`acc` read before clear"),
        "{}",
        finding.message
    );
    assert!(
        finding.flow.len() >= 2,
        "L13 carries the reuse-cycle flow: {:?}",
        finding.flow
    );
}

#[test]
fn ungated_growth_is_caught_by_l14() {
    let ws = TempWorkspace::new();
    ws.write("Cargo.toml", "[workspace]\n");
    ws.write(
        "crates/core/src/kern.rs",
        "//! Workspace-kernel fixture: growth with no dominating clear.\n\
         struct Workspace {\n\
             acc: Vec<u64>,\n\
         }\n\
         fn solve_into(ws: &mut Workspace, xs: &[u64]) {\n\
             for x in xs {\n\
                 ws.acc.push(*x);\n\
             }\n\
         }\n",
    );
    ws.write("lint.roots", "L14 crates/core/src/kern.rs solve_into\n");

    let report = lint_root(&ws.root).expect("lintable tree");
    assert!(!report.ok(), "ungated growth must fail the lint");
    let finding = report
        .findings
        .iter()
        .find(|f| f.rule == Rule::L14)
        .expect("L14 finding present");
    assert!(
        finding.message.contains("grown without a dominating clear"),
        "{}",
        finding.message
    );
}

#[test]
fn clean_kernel_passes_all_hygiene_roots() {
    let ws = TempWorkspace::new();
    ws.write("Cargo.toml", "[workspace]\n");
    ws.write(
        "crates/core/src/kern.rs",
        "//! Workspace-kernel fixture: clear-first reuse discipline.\n\
         struct Workspace {\n\
             acc: Vec<u64>,\n\
         }\n\
         fn solve_into(ws: &mut Workspace, xs: &[u64]) -> u64 {\n\
             ws.acc.clear();\n\
             for x in xs {\n\
                 ws.acc.push(*x);\n\
             }\n\
             let mut total = 0u64;\n\
             for v in &ws.acc {\n\
                 total = total.wrapping_add(*v);\n\
             }\n\
             total\n\
         }\n",
    );
    ws.write(
        "lint.roots",
        "L13 crates/core/src/kern.rs solve_into\n\
         L14 crates/core/src/kern.rs solve_into\n",
    );

    let report = lint_root(&ws.root).expect("lintable tree");
    assert!(
        report.ok(),
        "clear-first kernel is hygienic: {:?}",
        report.diagnostics
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn unresolvable_hygiene_root_is_a_hard_error() {
    let ws = TempWorkspace::new();
    ws.write("Cargo.toml", "[workspace]\n");
    ws.write(
        "crates/core/src/kern.rs",
        "//! Kernel fixture.\n\
         fn present() {}\n",
    );
    ws.write("lint.roots", "L13 crates/core/src/kern.rs renamed_away\n");

    let err = lint_root(&ws.root).expect_err("missing root must fail");
    assert!(err.contains("renamed_away"), "{err}");
    assert!(err.contains("L13"), "{err}");
}

#[test]
fn stale_allow_entry_for_a_missing_path_is_a_hard_error() {
    let ws = TempWorkspace::new();
    ws.write("Cargo.toml", "[workspace]\n");
    ws.write(
        "crates/sim/src/clean.rs",
        "//! Clean fixture.\n\
         fn noop() {}\n",
    );
    ws.write("lint.allow", "L1 crates/sim/src/gone.rs 2\n");

    let report = lint_root(&ws.root).expect("lintable tree");
    assert!(!report.ok(), "stale path entry must fail the lint");
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.contains("stale entry") && d.contains("no longer exists")),
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn stale_allow_entry_with_no_remaining_violations_is_a_hard_error() {
    let ws = TempWorkspace::new();
    ws.write("Cargo.toml", "[workspace]\n");
    ws.write(
        "crates/sim/src/clean.rs",
        "//! Clean fixture.\n\
         fn noop() {}\n",
    );
    ws.write("lint.allow", "L1 crates/sim/src/clean.rs 1\n");

    let report = lint_root(&ws.root).expect("lintable tree");
    assert!(!report.ok(), "burned-down budget must fail the lint");
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.contains("stale entry") && d.contains("no violations remain")),
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn under_budget_entries_stay_notes_not_errors() {
    let ws = TempWorkspace::new();
    ws.write("Cargo.toml", "[workspace]\n");
    ws.write(
        "crates/sim/src/one.rs",
        "//! One-violation fixture.\n\
         fn one() -> u8 { Some(1u8).unwrap() }\n",
    );
    ws.write("lint.allow", "L1 crates/sim/src/one.rs 2\n");

    let report = lint_root(&ws.root).expect("lintable tree");
    assert!(
        report.ok(),
        "an over-generous but live budget stays green: {:?}",
        report.diagnostics
    );
    assert!(
        report.notes.iter().any(|n| n.contains("tighten")),
        "{:?}",
        report.notes
    );
}

#[test]
fn dataflow_code_flows_round_trip_through_sarif() {
    let ws = TempWorkspace::new();
    ws.write("Cargo.toml", "[workspace]\n");
    ws.write("crates/sim/src/build.rs", REORDERED_DRAWS);
    ws.write("crates/core/src/kern.rs", SKIPPED_CLEAR);
    ws.write("lint.roots", "L13 crates/core/src/kern.rs solve_into\n");

    let report = lint_root(&ws.root).expect("lintable tree");
    let doc = to_sarif(&report.findings);
    let json = peercache_json::parse(&doc).expect("emitter produces valid JSON");
    let results = json
        .get("runs")
        .and_then(|r| r.as_array())
        .and_then(|r| r.first())
        .and_then(|r| r.get("results"))
        .and_then(Value::as_array)
        .expect("results array");

    let locations_of = |rule: &str| -> Vec<Value> {
        results
            .iter()
            .find(|r| r.get("ruleId").and_then(Value::as_str) == Some(rule))
            .expect("rule present in SARIF")
            .get("codeFlows")
            .and_then(Value::as_array)
            .and_then(|f| f.first())
            .and_then(|f| f.get("threadFlows"))
            .and_then(Value::as_array)
            .and_then(|t| t.first())
            .and_then(|t| t.get("locations"))
            .and_then(Value::as_array)
            .expect("codeFlows[0].threadFlows[0].locations")
            .to_vec()
    };
    let step_message = |loc: &Value| -> String {
        loc.get("location")
            .and_then(|l| l.get("message"))
            .and_then(|m| m.get("text"))
            .and_then(Value::as_str)
            .expect("step message")
            .to_owned()
    };

    let l12 = locations_of("L12");
    assert!(l12.len() >= 2, "L12 thread flow has >= 2 steps");
    assert!(
        step_message(&l12[0]).contains("build_stable"),
        "flow opens at the RNG-taking function: {:?}",
        step_message(&l12[0])
    );
    assert!(
        step_message(l12.last().expect("last step")).contains("merge"),
        "flow ends at the diverging merge: {:?}",
        step_message(l12.last().expect("last step"))
    );

    let l13 = locations_of("L13");
    assert!(l13.len() >= 2, "L13 thread flow has >= 2 steps");
    assert!(
        step_message(&l13[0]).contains("reuse cycle rooted at"),
        "{:?}",
        step_message(&l13[0])
    );
    assert!(
        l13.iter().any(|s| step_message(s).contains("read here")),
        "the dirty read appears in the chain: {:?}",
        l13.iter().map(&step_message).collect::<Vec<_>>()
    );
}
