//! The committed JSON artefacts pin the workspace's one JSON format:
//! parsing each with `peercache_json::parse` and rendering the tree back
//! must reproduce the file byte-for-byte — floats, exact integers
//! (including a `u128::MAX` peer id) and indentation alike.

use std::path::Path;

fn read(path: &str) -> String {
    let full = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn committed_reports_round_trip_byte_for_byte() {
    for path in ["BENCH_baseline.json", "figures_paper_scale.json"] {
        let text = read(path);
        let doc = peercache_json::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"));
        assert_eq!(peercache_json::to_string_pretty(&doc), text, "{path}");
    }
}

#[test]
fn store_fixture_rows_round_trip_byte_for_byte() {
    let text = read("crates/node/tests/fixtures/valid.jsonl");
    assert!(text.contains(&u128::MAX.to_string()));
    for line in text.lines() {
        let row = peercache_json::parse(line).unwrap_or_else(|e| panic!("parse {line}: {e}"));
        assert_eq!(peercache_json::to_string(&row), line);
    }
}
