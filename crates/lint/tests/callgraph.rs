//! Tests for the interprocedural pass: call-graph construction and its
//! resolution heuristics (trait-method dispatch ambiguity, raw-ident
//! calls, local-shadowing, `cfg(test)` exclusion, cycles), the
//! reachability rules L9–L11 with their `lint.roots` binding, and the
//! SARIF `codeFlows` chain emitted for a reachability finding — parsed
//! back with `peercache-json`'s parser.

use std::sync::atomic::{AtomicUsize, Ordering};

use peercache_json::{Value, ValueExt};
use peercache_lint::callgraph::CallGraph;
use peercache_lint::items::{parse_items, tokenize, Item, Tok};
use peercache_lint::reach::{check_reachability, parse_roots};
use peercache_lint::scan::scan;
use peercache_lint::{lint_root, to_sarif, Rule};

/// Build one call-graph input triple from fixture source.
fn file(path: &str, src: &str) -> (String, Vec<Item>, Vec<Tok>) {
    let lines = scan(src);
    let toks = tokenize(&lines);
    let items = parse_items(&toks);
    (path.to_owned(), items, toks)
}

/// The resolved target names of `fn_name`'s call site labelled `label`.
fn targets_of(graph: &CallGraph, path: &str, fn_name: &str, label: &str) -> Vec<String> {
    let idx = *graph
        .named_in_file(path, fn_name)
        .first()
        .expect("fixture fn exists");
    graph
        .calls(idx)
        .iter()
        .find(|s| s.label == label)
        .expect("fixture call site exists")
        .targets
        .iter()
        .map(|&t| {
            format!(
                "{}@{}",
                graph.fns()[t].qualified_name(),
                graph.fns()[t].path
            )
        })
        .collect()
}

// ---------------------------------------------------------------------
// Resolution heuristics.
// ---------------------------------------------------------------------

#[test]
fn method_dispatch_narrows_by_self_types_named_in_caller_file() {
    let alpha = file(
        "crates/a/src/lib.rs",
        "pub struct Alpha;\n\
         impl Alpha {\n\
         pub fn ping(&self) -> u8 { 1 }\n\
         }\n",
    );
    let beta = file(
        "crates/b/src/lib.rs",
        "pub struct Beta;\n\
         impl Beta {\n\
         pub fn ping(&self) -> u8 { 2 }\n\
         }\n",
    );
    // Names only Alpha → .ping resolves to Alpha::ping alone.
    let narrow = file(
        "crates/c/src/lib.rs",
        "pub fn go(x: &a::Alpha) -> u8 { x.ping() }\n",
    );
    // Names both → genuinely ambiguous, both stay targets.
    let wide = file(
        "crates/d/src/lib.rs",
        "pub fn go2(x: &a::Alpha, y: &b::Beta) -> u8 { x.ping() + y.ping() }\n",
    );
    // Names neither → opaque, NOT a fan-out to every `ping` in the
    // workspace (the documented false-negative class).
    let blind = file(
        "crates/e/src/lib.rs",
        "pub fn go3(x: u8) -> u8 { x.ping() }\n",
    );

    let graph = CallGraph::build(&[alpha, beta, narrow, wide, blind]);
    assert_eq!(
        targets_of(&graph, "crates/c/src/lib.rs", "go", ".ping"),
        ["Alpha::ping@crates/a/src/lib.rs"]
    );
    assert_eq!(
        targets_of(&graph, "crates/d/src/lib.rs", "go2", ".ping"),
        [
            "Alpha::ping@crates/a/src/lib.rs",
            "Beta::ping@crates/b/src/lib.rs"
        ]
    );
    assert_eq!(
        targets_of(&graph, "crates/e/src/lib.rs", "go3", ".ping"),
        [""; 0]
    );
}

#[test]
fn raw_ident_calls_resolve_to_their_folded_definition() {
    let f = file(
        "crates/raw/src/lib.rs",
        "pub fn r#type() -> u8 { 3 }\n\
         pub fn call_raw() -> u8 { r#type() }\n",
    );
    let graph = CallGraph::build(&[f]);
    // `r#type` tokenizes folded, so both the definition and the call
    // site see the bare name.
    assert_eq!(
        targets_of(&graph, "crates/raw/src/lib.rs", "call_raw", "type"),
        ["type@crates/raw/src/lib.rs"]
    );
}

#[test]
fn shadowed_local_fn_wins_over_same_named_pub_symbol() {
    let local = file(
        "crates/l/src/lib.rs",
        "fn helper() -> u8 { 1 }\n\
         pub fn entry() -> u8 { helper() }\n",
    );
    let remote = file("crates/m/src/lib.rs", "pub fn helper() -> u8 { 2 }\n");
    let graph = CallGraph::build(&[local, remote]);
    assert_eq!(
        targets_of(&graph, "crates/l/src/lib.rs", "entry", "helper"),
        ["helper@crates/l/src/lib.rs"]
    );
    // With no local definition, the workspace-wide free fn is the target.
    let caller = file(
        "crates/n/src/lib.rs",
        "pub fn use_it() -> u8 { helper() }\n",
    );
    let remote2 = file("crates/m/src/lib.rs", "pub fn helper() -> u8 { 2 }\n");
    let graph = CallGraph::build(&[caller, remote2]);
    assert_eq!(
        targets_of(&graph, "crates/n/src/lib.rs", "use_it", "helper"),
        ["helper@crates/m/src/lib.rs"]
    );
}

#[test]
fn cfg_test_callees_are_invisible_to_the_graph() {
    let f = file(
        "crates/t/src/lib.rs",
        "pub fn entry() { gated() }\n\
         #[cfg(test)]\n\
         fn gated() { panic!(\"test only\") }\n",
    );
    let graph = CallGraph::build(&[f]);
    assert!(
        graph
            .named_in_file("crates/t/src/lib.rs", "gated")
            .is_empty(),
        "cfg(test) fns must not enter the graph"
    );
    // The call site stays, opaque.
    assert_eq!(
        targets_of(&graph, "crates/t/src/lib.rs", "entry", "gated"),
        [""; 0]
    );
}

#[test]
fn recursive_fn_forms_a_cycle_and_reachability_terminates() {
    let f = file(
        "crates/r/src/lib.rs",
        "pub fn rec(n: u8) -> u8 {\n\
         if n == 0 { stop() } else { rec(n - 1) }\n\
         }\n\
         fn stop() -> u8 { Some(0u8).unwrap() }\n",
    );
    let graph = CallGraph::build(&[f]);
    assert_eq!(
        targets_of(&graph, "crates/r/src/lib.rs", "rec", "rec"),
        ["rec@crates/r/src/lib.rs"],
        "the self-edge is recorded"
    );
    let roots = parse_roots("L10 crates/r/src/lib.rs rec\n").expect("roots parse");
    let found = check_reachability(&graph, &roots).expect("roots resolve");
    assert_eq!(found.len(), 1, "{found:?}");
    let (path, v) = &found[0];
    assert_eq!((path.as_str(), v.rule), ("crates/r/src/lib.rs", Rule::L10));
    assert!(v.message.contains("`.unwrap`"), "{}", v.message);
    // root decl → rec calls stop → construct.
    assert_eq!(v.flow.len(), 3, "{:?}", v.flow);
}

#[test]
fn index_expressions_fire_l10_but_full_range_slices_do_not() {
    let f = file(
        "crates/ix/src/lib.rs",
        "pub fn walk(xs: &[u8], i: usize) -> u8 {\n\
         let whole = &xs[..];\n\
         whole[i]\n\
         }\n",
    );
    let graph = CallGraph::build(&[f]);
    let roots = parse_roots("L10 crates/ix/src/lib.rs walk\n").expect("roots parse");
    let found = check_reachability(&graph, &roots).expect("roots resolve");
    let lines: Vec<usize> = found.iter().map(|(_, v)| v.line).collect();
    assert_eq!(lines, [3], "only the real index, not `[..]`: {found:?}");
}

#[test]
fn slice_patterns_after_let_are_not_index_sites() {
    let f = file(
        "crates/ix/src/lib.rs",
        "pub fn walk(xs: &[u8], out: &mut [u8], i: usize) -> u8 {\n\
         if let [v] = xs {\n\
         return *v;\n\
         }\n\
         while let [a, b, ..] = out {\n\
         return *a + *b;\n\
         }\n\
         let [first, second] = [xs.len(), i];\n\
         let _ = (first, second);\n\
         xs[i]\n\
         }\n",
    );
    let graph = CallGraph::build(&[f]);
    let roots = parse_roots("L10 crates/ix/src/lib.rs walk\n").expect("roots parse");
    let found = check_reachability(&graph, &roots).expect("roots resolve");
    let lines: Vec<usize> = found.iter().map(|(_, v)| v.line).collect();
    assert_eq!(
        lines,
        [10],
        "only the real index, not the patterns: {found:?}"
    );
}

// ---------------------------------------------------------------------
// lint.roots parsing and binding.
// ---------------------------------------------------------------------

#[test]
fn roots_parsing_rejects_malformed_and_non_reachability_lines() {
    assert!(parse_roots("# comment\n\nL9 a/b.rs solve_into\n").is_ok());
    // The pass-4 reuse-cycle rules are rooted too; L12 is always-on and
    // takes no roots.
    assert!(parse_roots("L13 a/b.rs solve_into\nL14 a/b.rs solve_into\n").is_ok());
    for bad in [
        "L9 a/b.rs",
        "L9 a/b.rs solve extra",
        "L12 a/b.rs f",
        "L1 a/b.rs f",
    ] {
        assert!(parse_roots(bad).is_err(), "accepted: {bad}");
    }
}

#[test]
fn unresolvable_root_is_a_hard_error() {
    let f = file("crates/x/src/lib.rs", "pub fn present() {}\n");
    let graph = CallGraph::build(&[f]);
    let roots = parse_roots("L10 crates/x/src/lib.rs renamed_away\n").expect("roots parse");
    let err = check_reachability(&graph, &roots).expect_err("missing root must fail");
    assert!(err.contains("renamed_away"), "{err}");
}

// ---------------------------------------------------------------------
// End to end: lint_root + SARIF codeFlows, parsed back via peercache-json.
// ---------------------------------------------------------------------

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

struct TempWorkspace {
    root: std::path::PathBuf,
}

impl TempWorkspace {
    fn new() -> TempWorkspace {
        let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!(
            "peercache-lint-callgraph-{}-{seq}",
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

#[test]
fn l10_finding_carries_a_full_code_flow_chain_into_sarif() {
    let ws = TempWorkspace::new();
    ws.write("Cargo.toml", "[workspace]\n");
    ws.write(
        "crates/walk/src/lib.rs",
        "//! Fault-walk fixture.\n\
         pub fn walk() -> u8 { helper() }\n\
         fn helper() -> u8 { victim() }\n\
         fn victim() -> u8 { Some(1u8).unwrap() }\n",
    );
    ws.write("lint.roots", "L10 crates/walk/src/lib.rs walk\n");
    // Budget the L1 the unwrap also fires, so only L10 shapes the test.
    ws.write("lint.allow", "L1 crates/walk/src/lib.rs 1\n");

    let report = lint_root(&ws.root).expect("lintable tree");
    assert!(!report.ok(), "unbudgeted L10 must fail");
    let finding = report
        .findings
        .iter()
        .find(|f| f.rule == Rule::L10)
        .expect("L10 finding present");
    assert!(finding.over_budget);
    assert_eq!(finding.path, "crates/walk/src/lib.rs");
    assert_eq!(finding.line, 4);
    assert_eq!(finding.flow.len(), 4, "{:?}", finding.flow);

    let doc = to_sarif(&report.findings);
    let json = peercache_json::parse(&doc).expect("emitter produces valid JSON");
    let results = json
        .get("runs")
        .and_then(|r| r.as_array())
        .and_then(|r| r.first())
        .and_then(|r| r.get("results"))
        .and_then(Value::as_array)
        .expect("results array");
    let l10 = results
        .iter()
        .find(|r| r.get("ruleId").and_then(Value::as_str) == Some("L10"))
        .expect("L10 result in SARIF");

    let locations = l10
        .get("codeFlows")
        .and_then(Value::as_array)
        .and_then(|f| f.first())
        .and_then(|f| f.get("threadFlows"))
        .and_then(Value::as_array)
        .and_then(|t| t.first())
        .and_then(|t| t.get("locations"))
        .and_then(Value::as_array)
        .expect("codeFlows[0].threadFlows[0].locations");
    assert_eq!(locations.len(), 4);

    let step = |i: usize, key: &str| -> Value {
        locations[i]
            .get("location")
            .and_then(|l| {
                if key == "message" {
                    l.get("message").and_then(|m| m.get("text")).cloned()
                } else {
                    l.get("physicalLocation")
                        .and_then(|p| p.get("region"))
                        .and_then(|r| r.get("startLine"))
                        .cloned()
                }
            })
            .expect("step field")
    };
    let start_lines: Vec<f64> = (0..4)
        .map(|i| step(i, "line").as_f64().expect("startLine"))
        .collect();
    assert_eq!(start_lines, [2.0, 2.0, 3.0, 4.0]);
    let first = step(0, "message");
    let last = step(3, "message");
    assert!(
        first.as_str().expect("msg").contains("walk"),
        "chain starts at the root: {first:?}"
    );
    assert!(
        last.as_str().expect("msg").contains(".unwrap"),
        "chain ends at the construct: {last:?}"
    );

    // An L1-only finding carries no codeFlows.
    let l1 = results
        .iter()
        .find(|r| r.get("ruleId").and_then(Value::as_str) == Some("L1"))
        .expect("L1 result in SARIF");
    assert!(l1.get("codeFlows").is_none());
}

#[test]
fn l9_and_l11_root_sets_enforce_their_construct_lists() {
    let ws = TempWorkspace::new();
    ws.write("Cargo.toml", "[workspace]\n");
    ws.write(
        "crates/kern/src/lib.rs",
        "//! Kernel fixture.\n\
         pub fn solve_into(n: usize) -> usize { scratch(n) }\n\
         fn scratch(n: usize) -> usize { let v: Vec<u8> = Vec::with_capacity(n); v.capacity() }\n",
    );
    ws.write(
        "crates/sim/src/lib.rs",
        "//! Entry fixture.\n\
         pub fn run() -> u8 { peercache_par::helper() }\n",
    );
    ws.write(
        "crates/par/src/lib.rs",
        "//! Sanctioned ambient boundary.\n\
         pub fn helper() -> u8 {\n\
         std::env::var(\"PEERCACHE_THREADS\").map(|_| 1).unwrap_or(0)\n\
         }\n",
    );
    ws.write(
        "lint.roots",
        "L9 crates/kern/src/lib.rs solve_into\n\
         L11 crates/sim/src/lib.rs run\n",
    );

    let report = lint_root(&ws.root).expect("lintable tree");
    let rules: Vec<(Rule, &str, usize)> = report
        .findings
        .iter()
        .map(|f| (f.rule, f.path.as_str(), f.line))
        .collect();
    assert!(
        rules.contains(&(Rule::L9, "crates/kern/src/lib.rs", 3)),
        "Vec::with_capacity reachable from solve_into fires L9: {rules:?}"
    );
    assert!(
        !rules.iter().any(|(r, _, _)| *r == Rule::L11),
        "env reads inside crates/par are the sanctioned boundary: {rules:?}"
    );
}
