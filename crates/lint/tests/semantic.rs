//! Tests for the semantic pass: the item tree and symbol table behind
//! rule L7, the determinism rules L6 and L8, the SARIF emitter (parsed
//! back with `peercache-json`'s parser), and the self-lint gate
//! that keeps `crates/lint` and `crates/par` at a zero allowlist budget.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use peercache_json::{Value, ValueExt};
use peercache_lint::items::{parse_items, tokenize, ItemKind, Visibility};
use peercache_lint::sarif::SARIF_VERSION;
use peercache_lint::scan::scan;
use peercache_lint::symbols::{PubDef, SymbolTable};
use peercache_lint::{check, lint_root, to_sarif, FileCtx, Finding, Rule};

fn fired(path: &str, source: &str) -> Vec<(usize, Rule)> {
    check(&FileCtx::classify(path), source)
        .into_iter()
        .map(|v| (v.line, v.rule))
        .collect()
}

// ---------------------------------------------------------------------
// Item tree.
// ---------------------------------------------------------------------

#[test]
fn item_tree_parses_nesting_raw_idents_and_cfg_test() {
    let src = "pub mod outer {\n\
               /// Docs.\n\
               pub struct r#Type;\n\
               #[cfg(test)]\n\
               pub fn gated() {}\n\
               impl r#Type {\n\
               pub fn method(&self) {}\n\
               }\n\
               }\n";
    let lines = scan(src);
    let toks = tokenize(&lines);
    let items = parse_items(&toks);
    assert_eq!(items.len(), 1);
    let outer = &items[0];
    assert_eq!(
        (outer.kind, outer.name.as_str()),
        (ItemKind::Module, "outer")
    );
    assert_eq!(outer.vis, Visibility::Public);
    assert_eq!((outer.line, outer.end_line), (1, 9));

    let kinds: Vec<(ItemKind, &str, bool)> = outer
        .children
        .iter()
        .map(|it| (it.kind, it.name.as_str(), it.cfg_test))
        .collect();
    assert_eq!(
        kinds,
        vec![
            (ItemKind::Struct, "Type", false), // r#Type folded to Type
            (ItemKind::Fn, "gated", true),     // #[cfg(test)] marks the fn
            (ItemKind::Impl, "Type", false),
        ]
    );
    let imp = &outer.children[2];
    assert_eq!(imp.children.len(), 1);
    assert_eq!(imp.children[0].name, "method");
}

// ---------------------------------------------------------------------
// Symbol table (rule L7's engine).
// ---------------------------------------------------------------------

fn feed(table: &mut SymbolTable, path: &str, src: &str) {
    let ctx = FileCtx::classify(path);
    let lines = scan(src);
    let toks = tokenize(&lines);
    let items = parse_items(&toks);
    table.add_file(path, ctx.kind, &items, &toks);
}

#[test]
fn symbol_table_flags_only_workspace_unreferenced_pub_items() {
    let mut table = SymbolTable::new();
    feed(
        &mut table,
        "crates/alpha/src/api.rs",
        "/// Used by beta.\n\
         pub fn used_helper() -> u8 { 0 }\n\
         \n\
         /// Referenced nowhere.\n\
         pub fn dead_helper() -> u8 { 1 }\n\
         \n\
         pub(crate) fn internal() {}\n\
         \n\
         #[cfg(test)]\n\
         mod tests {\n\
         pub fn test_only() {}\n\
         }\n",
    );
    // Crate roots re-export; their items are exempt from collection.
    feed(&mut table, "crates/alpha/src/lib.rs", "pub mod api;\n");
    // A test file referencing a symbol keeps it live.
    feed(
        &mut table,
        "crates/beta/src/lib.rs",
        "pub fn run() -> u8 { alpha::api::used_helper() }\n",
    );

    assert_eq!(
        table.def_count(),
        2,
        "only api.rs's two plain-pub fns define API"
    );
    let dead: Vec<&PubDef> = table.unreferenced();
    assert_eq!(dead.len(), 1, "used_helper is named in beta: {dead:?}");
    assert_eq!(dead[0].path, "crates/alpha/src/api.rs");
    assert_eq!(dead[0].name, "dead_helper");
    assert_eq!(dead[0].line, 5);
    assert_eq!(dead[0].kind, ItemKind::Fn);
}

// ---------------------------------------------------------------------
// L6 — hash-collection iteration in deterministic crates.
// ---------------------------------------------------------------------

#[test]
fn l6_flags_hash_iteration_methods() {
    let src = "use std::collections::HashMap;\n\
               fn f(index: &HashMap<u64, usize>) -> Vec<u64> {\n\
               index.keys().copied().collect()\n\
               }\n";
    assert_eq!(fired("crates/sim/src/demo.rs", src), vec![(3, Rule::L6)]);
    assert_eq!(fired("crates/core/src/demo.rs", src), vec![(3, Rule::L6)]);
}

#[test]
fn l6_flags_for_loops_over_constructor_bindings() {
    let src = "fn f() -> u64 {\n\
               let mut seen = std::collections::HashSet::new();\n\
               seen.insert(3u64);\n\
               let mut total = 0u64;\n\
               for k in &seen { total ^= *k; }\n\
               total\n\
               }\n";
    assert_eq!(fired("crates/chord/src/demo.rs", src), vec![(5, Rule::L6)]);
}

#[test]
fn l6_exempts_order_restoring_and_order_insensitive_sinks() {
    // Collect-then-sort restores a canonical order.
    let sorted = "use std::collections::HashMap;\n\
                  fn g(index: &HashMap<u64, usize>) -> Vec<u64> {\n\
                  let mut ks: Vec<u64> = index.keys().copied().collect();\n\
                  ks.sort_unstable();\n\
                  ks\n\
                  }\n";
    assert!(fired("crates/sim/src/demo.rs", sorted).is_empty());
    // Counting is order-insensitive.
    let counted = "use std::collections::HashMap;\n\
                   fn g(index: &HashMap<u64, usize>) -> usize { index.values().count() }\n";
    assert!(fired("crates/sim/src/demo.rs", counted).is_empty());
    // BTree collections are the sanctioned fix.
    let btree = "use std::collections::BTreeMap;\n\
                 fn g(index: &BTreeMap<u64, usize>) -> Vec<u64> {\n\
                 index.keys().copied().collect()\n\
                 }\n";
    assert!(fired("crates/sim/src/demo.rs", btree).is_empty());
}

#[test]
fn l6_scope_is_deterministic_crate_library_code() {
    let src = "use std::collections::HashMap;\n\
               fn f(index: &HashMap<u64, usize>) -> Vec<u64> {\n\
               index.keys().copied().collect()\n\
               }\n";
    // The workload/bench/freq crates replay nothing bit-for-bit.
    assert!(fired("crates/workload/src/demo.rs", src).is_empty());
    assert!(fired("crates/bench/src/demo.rs", src).is_empty());
    // Tests may iterate hashes (their assertions are order-free or local).
    assert!(fired("crates/sim/tests/demo.rs", src).is_empty());
    // A test-gated HashSet binding must not taint library code.
    let gated = "fn lib_side(seen: &std::collections::BTreeSet<u64>) -> usize {\n\
                 seen.iter().count()\n\
                 }\n\
                 #[cfg(test)]\n\
                 mod tests {\n\
                 fn t() {\n\
                 let seen: std::collections::HashSet<u64> = Default::default();\n\
                 for k in &seen { let _ = k; }\n\
                 }\n\
                 }\n";
    assert!(fired("crates/sim/src/demo.rs", gated).is_empty());
}

// ---------------------------------------------------------------------
// L8 — f64 cost comparisons in core/sim library code.
// ---------------------------------------------------------------------

#[test]
fn l8_flags_direct_cost_comparisons() {
    let eq = "fn same(cost_a: f64, cost_b: f64) -> bool {\n\
              cost_a == cost_b\n\
              }\n";
    assert_eq!(fired("crates/core/src/demo.rs", eq), vec![(2, Rule::L8)]);
    assert_eq!(fired("crates/sim/src/demo.rs", eq), vec![(2, Rule::L8)]);

    let lt = "fn better(gain: f64, best_gain: f64) -> bool { gain < best_gain }\n";
    assert_eq!(fired("crates/core/src/demo.rs", lt), vec![(1, Rule::L8)]);

    // Equality on any declared-f64 name fires even without cost flavor.
    let plain = "fn f(alpha: f64, beta: f64) -> bool { alpha == beta }\n";
    assert_eq!(fired("crates/core/src/demo.rs", plain), vec![(1, Rule::L8)]);

    let partial = "fn ord(a: f64, b: f64) -> bool { a.partial_cmp(&b).is_some() }\n";
    assert_eq!(
        fired("crates/core/src/demo.rs", partial),
        vec![(1, Rule::L8)]
    );
}

#[test]
fn l8_exempts_epsilon_idioms_total_cmp_and_zero_guards() {
    // An EPS constant in the statement marks the epsilon-window idiom.
    let eps = "const COST_EPS: f64 = 1e-9;\n\
               fn same(cost_a: f64, cost_b: f64) -> bool {\n\
               (cost_a - cost_b).abs() < COST_EPS\n\
               }\n";
    assert!(fired("crates/core/src/demo.rs", eps).is_empty());
    // total_cmp in the statement sanctions the comparison.
    let total = "fn better(gain: f64, best: f64) -> bool { gain.total_cmp(&best).is_gt() }\n";
    assert!(fired("crates/core/src/demo.rs", total).is_empty());
    // Sign checks against literal zero are well-defined on floats.
    let zero = "fn positive(gain: f64) -> bool { gain > 0.0 }\n";
    assert!(fired("crates/core/src/demo.rs", zero).is_empty());
    // Ordering on unflavored f64 names is allowed (tie-break policy is
    // only enforced where eq. 1 costs are recognizable).
    let plain = "fn f(alpha: f64, beta: f64) -> bool { alpha < beta }\n";
    assert!(fired("crates/core/src/demo.rs", plain).is_empty());
}

#[test]
fn l8_ignores_generics_tests_and_other_crates() {
    // `fn name<…>` generic brackets are not comparisons.
    let generic = "fn total_cost<F>(weight: f64, apply: F) -> f64\n\
                   where F: Fn(f64) -> f64 {\n\
                   apply(weight)\n\
                   }\n";
    assert!(fired("crates/core/src/demo.rs", generic).is_empty());
    // Out of scope: other crates, tests, test-gated modules.
    let eq = "fn same(cost_a: f64, cost_b: f64) -> bool { cost_a == cost_b }\n";
    assert!(fired("crates/chord/src/demo.rs", eq).is_empty());
    assert!(fired("crates/core/tests/demo.rs", eq).is_empty());
    let gated = "#[cfg(test)]\n\
                 mod tests {\n\
                 fn same(cost_a: f64, cost_b: f64) -> bool { cost_a == cost_b }\n\
                 }\n";
    assert!(fired("crates/core/src/demo.rs", gated).is_empty());
}

// ---------------------------------------------------------------------
// End-to-end: lint_root with L6/L7 findings and budgets.
// ---------------------------------------------------------------------

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A throw-away workspace directory for `lint_root` integration tests.
struct TempWorkspace {
    root: std::path::PathBuf,
}

impl TempWorkspace {
    fn new() -> TempWorkspace {
        let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!(
            "peercache-lint-semantic-{}-{seq}",
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
fn lint_root_reports_and_budgets_l7_dead_api() {
    let ws = TempWorkspace::new();
    ws.write("Cargo.toml", "[workspace]\n");
    ws.write("crates/alpha/src/lib.rs", "//! Alpha.\npub mod api;\n");
    ws.write(
        "crates/alpha/src/api.rs",
        "/// Dead.\n\
         pub fn dead_helper() -> u8 { 1 }\n\
         /// Live.\n\
         pub fn live_helper() -> u8 { 0 }\n",
    );
    ws.write(
        "crates/beta/src/lib.rs",
        "//! Beta.\npub fn run() -> u8 { alpha::api::live_helper() }\n",
    );

    let report = lint_root(&ws.root).expect("lintable tree");
    assert!(!report.ok(), "unbudgeted dead API must fail");
    assert_eq!(report.violations, 1, "{:?}", report.diagnostics);
    assert!(
        report.diagnostics[0].contains("L7") && report.diagnostics[0].contains("dead_helper"),
        "diagnostic names the dead item: {}",
        report.diagnostics[0]
    );

    ws.write("lint.allow", "L7 crates/alpha/src/api.rs 1\n");
    let report = lint_root(&ws.root).expect("lintable tree");
    assert!(report.ok(), "budgeted dead API passes: {report:?}");
    let findings: Vec<&Finding> = report.findings.iter().collect();
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, Rule::L7);
    assert!(
        !findings[0].over_budget,
        "allowlisted finding is not an error"
    );
}

#[test]
fn lint_root_notes_overgenerous_l6_budgets() {
    let ws = TempWorkspace::new();
    ws.write("Cargo.toml", "[workspace]\n");
    ws.write(
        "crates/sim/src/demo.rs",
        "use std::collections::HashMap;\n\
         fn f(index: &HashMap<u64, usize>) -> Vec<u64> {\n\
         index.keys().copied().collect()\n\
         }\n",
    );
    let report = lint_root(&ws.root).expect("lintable tree");
    assert!(!report.ok());
    assert!(
        report.diagnostics[0].contains("L6"),
        "{:?}",
        report.diagnostics
    );

    // A budget above the finding count passes but draws a tightening
    // note — the mechanism that ratchets budgets down over time.
    ws.write("lint.allow", "L6 crates/sim/src/demo.rs 2\n");
    let report = lint_root(&ws.root).expect("lintable tree");
    assert!(report.ok());
    assert_eq!(report.notes.len(), 1, "{:?}", report.notes);
    assert!(report.notes[0].contains("tighten"), "{}", report.notes[0]);
}

// ---------------------------------------------------------------------
// SARIF emitter, parsed back with peercache-json's parser.
// ---------------------------------------------------------------------

#[test]
fn sarif_document_carries_rule_metadata_and_locations() {
    let findings = vec![
        Finding {
            path: "crates/sim/src/demo.rs".to_owned(),
            line: 3,
            rule: Rule::L6,
            message: "iteration \"order\" is\nrandomized".to_owned(),
            over_budget: true,
            flow: vec![],
        },
        Finding {
            path: "crates/core/src/cost.rs".to_owned(),
            line: 7,
            rule: Rule::L8,
            message: "direct cost comparison".to_owned(),
            over_budget: false,
            flow: vec![],
        },
    ];
    let doc = to_sarif(&findings);
    let json = peercache_json::parse(&doc).expect("emitter produces valid JSON");

    assert_eq!(
        json.get("version").and_then(Value::as_str),
        Some(SARIF_VERSION)
    );
    let runs = json
        .get("runs")
        .and_then(Value::as_array)
        .expect("runs array");
    assert_eq!(runs.len(), 1);

    let driver = runs[0]
        .get("tool")
        .and_then(|t| t.get("driver"))
        .expect("tool.driver");
    assert_eq!(
        driver.get("name").and_then(Value::as_str),
        Some("peercache-lint")
    );
    let rules = driver
        .get("rules")
        .and_then(Value::as_array)
        .expect("driver.rules");
    assert_eq!(rules.len(), 14, "all fourteen rules are described");
    let ids: Vec<&str> = rules
        .iter()
        .filter_map(|r| r.get("id").and_then(Value::as_str))
        .collect();
    assert_eq!(
        ids,
        ["L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9", "L10", "L11", "L12", "L13", "L14"]
    );
    for rule in rules {
        let short = rule
            .get("shortDescription")
            .and_then(|d| d.get("text"))
            .and_then(Value::as_str)
            .expect("shortDescription.text");
        let full = rule
            .get("fullDescription")
            .and_then(|d| d.get("text"))
            .and_then(Value::as_str)
            .expect("fullDescription.text");
        assert!(!short.is_empty() && full.len() > short.len());
    }

    let results = runs[0]
        .get("results")
        .and_then(Value::as_array)
        .expect("results");
    assert_eq!(results.len(), 2);

    let first = &results[0];
    assert_eq!(first.get("ruleId").and_then(Value::as_str), Some("L6"));
    assert_eq!(first.get("ruleIndex").and_then(Value::as_f64), Some(5.0));
    assert_eq!(first.get("level").and_then(Value::as_str), Some("error"));
    assert_eq!(
        first
            .get("message")
            .and_then(|m| m.get("text"))
            .and_then(Value::as_str),
        Some("iteration \"order\" is\nrandomized"),
        "quotes and newlines round-trip through the escaper"
    );
    let location = first
        .get("locations")
        .and_then(Value::as_array)
        .and_then(<[Value]>::first)
        .and_then(|l| l.get("physicalLocation"))
        .expect("locations[0].physicalLocation");
    assert_eq!(
        location
            .get("artifactLocation")
            .and_then(|a| a.get("uri"))
            .and_then(Value::as_str),
        Some("crates/sim/src/demo.rs")
    );
    assert_eq!(
        location
            .get("region")
            .and_then(|r| r.get("startLine"))
            .and_then(Value::as_f64),
        Some(3.0)
    );

    let second = &results[1];
    assert_eq!(second.get("ruleId").and_then(Value::as_str), Some("L8"));
    assert_eq!(second.get("ruleIndex").and_then(Value::as_f64), Some(7.0));
    assert_eq!(
        second.get("level").and_then(Value::as_str),
        Some("note"),
        "allowlisted findings surface as notes, not errors"
    );
}

// ---------------------------------------------------------------------
// Self-lint: the analyzer and the thread pool hold a zero budget.
// ---------------------------------------------------------------------

#[test]
fn workspace_self_lint_keeps_lint_and_par_at_zero_budget() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_root(&root).expect("workspace root lints");
    assert!(
        report.ok(),
        "workspace lint must pass: {:#?}",
        report.diagnostics
    );
    for finding in &report.findings {
        assert!(
            !finding.path.starts_with("crates/lint/") && !finding.path.starts_with("crates/par/"),
            "crates/lint and crates/par carry no allowlist budget, found {} {} at {}:{}",
            finding.rule.name(),
            finding.message,
            finding.path,
            finding.line
        );
    }
}
