//! Fault-matrix sweep (ISSUE 5): loss × staleness × crash rates over the
//! stable-mode driver on every substrate, comparing the frequency-aware,
//! frequency-oblivious, and core-only strategies under the deterministic
//! fault-injection layer. Output is bit-identical at any thread count.

use peercache_bench::{teeln, FigureCli, Tee};
use peercache_pastry::RoutingMode;
use peercache_sim::{
    fault_matrix_multi, FaultMatrixCell, FaultMatrixConfig, OverlayKind, StableConfig,
};
use serde::Serialize;

/// One substrate's full matrix, as dumped to `--json`.
#[derive(Serialize)]
struct SystemMatrix {
    system: String,
    cells: Vec<FaultMatrixCell>,
}

fn main() {
    let cli = FigureCli::parse();
    let mut tee = Tee::create("fault_matrix");
    let systems: [(&str, OverlayKind); 4] = [
        ("chord", OverlayKind::Chord),
        (
            "pastry",
            OverlayKind::Pastry {
                digit_bits: 1,
                mode: RoutingMode::LocalityAware,
            },
        ),
        ("tapestry", OverlayKind::Tapestry { digit_bits: 1 }),
        ("skipgraph", OverlayKind::SkipGraph),
    ];

    let nodes = (256 / cli.scale.node_divisor).max(16);
    // One flat fan-out over every (substrate, cell) pair: per-cell fault
    // decisions are pure seed hashes, so the 48 jobs are independent and
    // the pool never idles at a per-substrate barrier.
    let configs: Vec<FaultMatrixConfig> = systems
        .iter()
        .map(|&(_, kind)| {
            let mut stable = StableConfig::paper_defaults(kind, nodes, cli.seed);
            stable.items = cli.scale.items;
            stable.queries = cli.scale.queries;
            FaultMatrixConfig::paper_defaults(stable)
        })
        .collect();
    let matrices = fault_matrix_multi(&configs);

    let mut out = Vec::new();
    for ((system, _), cells) in systems.iter().zip(matrices) {
        teeln!(tee, "== fault matrix: {system} (n={nodes})");
        teeln!(
            tee,
            "{:>5} {:>5} {:>5} | {:>7} {:>7} {:>7} | {:>6} {:>6} | {:>7} {:>8} | {:>6} {:>6}",
            "loss",
            "stale",
            "crash",
            "ok_aw",
            "ok_ob",
            "ok_co",
            "hop_aw",
            "hop_ob",
            "retr_aw",
            "fall_aw",
            "inf_aw",
            "inf_ob"
        );
        for cell in &cells {
            teeln!(
                tee,
                "{:>5.2} {:>5.2} {:>5.2} | {:>7.4} {:>7.4} {:>7.4} | {:>6.3} {:>6.3} | {:>7.4} {:>8} | {:>6.3} {:>6.3}",
                cell.loss_rate,
                cell.stale_rate,
                cell.crash_rate,
                cell.report.aware.base.success_rate(),
                cell.report.oblivious.base.success_rate(),
                cell.report.core_only.base.success_rate(),
                cell.report.aware.base.avg_hops(),
                cell.report.oblivious.base.avg_hops(),
                cell.report.aware.avg_retries(),
                cell.report.aware.fallbacks,
                cell.hop_inflation_aware,
                cell.hop_inflation_oblivious
            );
        }
        out.push(SystemMatrix {
            system: system.to_string(),
            cells,
        });
    }

    if let Some(path) = &cli.json {
        std::fs::write(path, peercache_json::to_string_pretty(&out)).expect("write JSON output");
        println!("(matrix written to {path})");
    }
}
