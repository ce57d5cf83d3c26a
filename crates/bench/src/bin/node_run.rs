//! Node-runtime replay (ISSUE 10): host every substrate as live nodes in
//! the deterministic event-loop runtime, replay the stable driver's
//! exact query stream as `Lookup` messages, and exercise the persistent
//! peer store end-to-end — aux-selection admission, trace-fed
//! reliability scores, atomic save, total reload, and prioritized
//! parallel reconnection. The report cross-checks both legs against the
//! monolithic sim drivers in-process and prints the verdicts, so the CI
//! determinism job can diff `--threads 1` vs `--threads 4` output *and*
//! see the runtime ≡ sim equivalence hold at paper scale.

use peercache_bench::{teeln, FigureCli, Tee};
use peercache_faults::{FaultConfig, FaultPlan};
use peercache_node::{NodeRuntime, PeerStore, StoreConfig};
use peercache_pastry::RoutingMode;
use peercache_sim::{run_stable, run_stable_faulted, OverlayKind, RuntimeFixture, StableConfig};
use serde::Serialize;

/// One substrate's replay outcome, as dumped to `--json`.
#[derive(Serialize)]
struct SystemReport {
    system: String,
    nodes: usize,
    queries: usize,
    transparent_avg_hops: f64,
    transparent_success_rate: f64,
    transparent_matches_sim: bool,
    faulted_success_rate: f64,
    faulted_avg_retries: f64,
    faulted_matches_sim: bool,
    messages_delivered: u64,
    final_tick: u64,
    store_peers: usize,
    store_reloaded_identically: bool,
    reconnected: usize,
    reconnect_first: Option<u128>,
}

fn main() {
    let cli = FigureCli::parse();
    let mut tee = Tee::create("node_run");
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
    let faults = FaultConfig {
        crash_rate: 0.05,
        unresponsive_rate: 0.05,
        loss_rate: 0.05,
        ..FaultConfig::default()
    };

    let nodes = (256 / cli.scale.node_divisor).max(16);
    let mut reports = Vec::new();
    teeln!(
        tee,
        "== node runtime replay (n={nodes}, q={}, seed={})",
        cli.scale.queries,
        cli.seed
    );
    teeln!(
        tee,
        "{:>10} | {:>8} {:>8} {:>6} | {:>8} {:>8} {:>6} | {:>9} {:>8} | {:>6} {:>6}",
        "system",
        "hops",
        "ok_rate",
        "=sim",
        "f_ok",
        "f_retry",
        "=sim",
        "messages",
        "ticks",
        "peers",
        "reconn"
    );

    for (system, kind) in systems {
        let mut config = StableConfig::paper_defaults(kind, nodes, cli.seed);
        config.items = cli.scale.items;
        config.queries = cli.scale.queries;
        let fixture = RuntimeFixture::build(&config);
        let owner = fixture
            .node_ids()
            .first()
            .copied()
            .expect("configs have nodes");

        // Transparent leg: the runtime must reproduce run_stable's
        // aware pass bit-for-bit.
        let reference = run_stable(&config);
        let mut runtime = NodeRuntime::new(fixture.overlay(), FaultPlan::transparent(config.seed));
        runtime.install_aux(fixture.aware_table());
        for (origin, key) in fixture.queries() {
            runtime.submit(origin, key);
        }
        runtime.run();
        let transparent = runtime.query_metrics();
        let transparent_matches = transparent == reference.aware;

        // Faulted leg, with the peer store attached to one node: same
        // equivalence against run_stable_faulted, then persistence and
        // prioritized parallel reconnection through the real file path.
        let reference_faulted = run_stable_faulted(&config, &faults);
        let mut faulted_runtime =
            NodeRuntime::new(fixture.overlay(), FaultPlan::new(config.seed, &faults));
        faulted_runtime.install_aux(fixture.aware_table());
        faulted_runtime.attach_store(owner, PeerStore::new(StoreConfig::default()));
        for (origin, key) in fixture.queries() {
            faulted_runtime.submit(origin, key);
        }
        faulted_runtime.run();
        let faulted = faulted_runtime.fault_metrics();
        let faulted_matches = faulted == reference_faulted.aware;
        let messages = faulted_runtime.delivered();
        let ticks = faulted_runtime.now();

        let store_path = format!("out/node_store_{system}.jsonl");
        let (_, saved) = faulted_runtime
            .detach_store()
            .expect("store was attached above");
        saved
            .save(std::path::Path::new(&store_path))
            .expect("write peer store");
        let reloaded = PeerStore::load(std::path::Path::new(&store_path), StoreConfig::default());
        let reload_identity = reloaded == saved;
        let store_peers = reloaded.len();

        let mut boot = NodeRuntime::new(fixture.overlay(), FaultPlan::new(config.seed, &faults));
        boot.attach_store(owner, reloaded);
        let reconnected = boot.reconnect();
        let reconnect_first = reconnected.first().map(|id| id.value());

        teeln!(
            tee,
            "{:>10} | {:>8.4} {:>8.4} {:>6} | {:>8.4} {:>8.4} {:>6} | {:>9} {:>8} | {:>6} {:>6}",
            system,
            transparent.avg_hops(),
            transparent.success_rate(),
            transparent_matches,
            faulted.base.success_rate(),
            faulted.avg_retries(),
            faulted_matches,
            messages,
            ticks,
            store_peers,
            reconnected.len()
        );

        reports.push(SystemReport {
            system: system.to_string(),
            nodes,
            queries: config.queries,
            transparent_avg_hops: transparent.avg_hops(),
            transparent_success_rate: transparent.success_rate(),
            transparent_matches_sim: transparent_matches,
            faulted_success_rate: faulted.base.success_rate(),
            faulted_avg_retries: faulted.avg_retries(),
            faulted_matches_sim: faulted_matches,
            messages_delivered: messages,
            final_tick: ticks,
            store_peers,
            store_reloaded_identically: reload_identity,
            reconnected: reconnected.len(),
            reconnect_first,
        });
    }

    let all_match = reports.iter().all(|r| {
        r.transparent_matches_sim && r.faulted_matches_sim && r.store_reloaded_identically
    });
    teeln!(
        tee,
        "runtime == sim on all substrates, store round-trips: {all_match}"
    );
    assert!(
        all_match,
        "event-loop runtime diverged from the sim drivers (see table above)"
    );

    if let Some(path) = &cli.json {
        std::fs::write(path, peercache_json::to_string_pretty(&reports))
            .expect("write JSON output");
        println!("(reports written to {path})");
    }
}
