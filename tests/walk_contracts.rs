//! Tier-1 smoke test of the routing-walk contracts: every substrate has
//! one step function, driven by the sim's read-only walk, its fault
//! walk and the node runtime's event loop, so all three must agree.
//!
//! * A transparent fault plan is no plan: `run_stable_faulted` under
//!   `FaultConfig::none()` reproduces `run_stable` pass for pass.
//! * The runtime is the sim: a `NodeRuntime` replaying the fixture's
//!   query stream under a transparent plan reproduces `run_stable`'s
//!   aware pass.
//!
//! Small (n = 128, three seeds) so it runs with `cargo test -q`; the
//! 32-seed batteries live in the sim and node crates.

use peercache::faults::{FaultConfig, FaultPlan};
use peercache::node::NodeRuntime;
use peercache::pastry::RoutingMode;
use peercache::sim::{run_stable, run_stable_faulted, OverlayKind, RuntimeFixture, StableConfig};

const NODES: usize = 128;
const QUERIES: usize = 400;
const SEEDS: [u64; 3] = [1, 2, 3];

fn kinds() -> [OverlayKind; 4] {
    [
        OverlayKind::Chord,
        OverlayKind::Pastry {
            digit_bits: 1,
            mode: RoutingMode::LocalityAware,
        },
        OverlayKind::Tapestry { digit_bits: 1 },
        OverlayKind::SkipGraph,
    ]
}

fn config(kind: OverlayKind, seed: u64) -> StableConfig {
    let mut config = StableConfig::paper_defaults(kind, NODES, seed);
    config.queries = QUERIES;
    config
}

#[test]
fn transparent_plan_walks_equal_the_plain_walks() {
    for kind in kinds() {
        for seed in SEEDS {
            let config = config(kind, seed);
            let plain = run_stable(&config);
            let faulted = run_stable_faulted(&config, &FaultConfig::none());
            let passes = [
                ("aware", &faulted.aware, &plain.aware),
                ("oblivious", &faulted.oblivious, &plain.oblivious),
                ("core-only", &faulted.core_only, &plain.core_only),
            ];
            for (pass, faulted, plain) in passes {
                assert_eq!(
                    &faulted.base, plain,
                    "{kind:?} seed {seed} {pass}: transparent plan changed the walk"
                );
                assert_eq!(
                    (faulted.retries, faulted.timeouts, faulted.fallbacks),
                    (0, 0, 0),
                    "{kind:?} seed {seed} {pass}: a transparent plan never degrades"
                );
                assert_eq!((faulted.delay_ticks, faulted.origin_down), (0, 0));
            }
            assert_eq!(
                faulted.reduction_pct.to_bits(),
                plain.reduction_pct.to_bits(),
                "{kind:?} seed {seed}: reduction diverged"
            );
        }
    }
}

#[test]
fn runtime_replay_equals_the_sim() {
    for kind in kinds() {
        for seed in SEEDS {
            let config = config(kind, seed);
            let reference = run_stable(&config);
            let fixture = RuntimeFixture::build(&config);
            let mut runtime =
                NodeRuntime::new(fixture.overlay(), FaultPlan::transparent(config.seed));
            runtime.install_aux(fixture.aware_table());
            for (origin, key) in fixture.queries() {
                runtime.submit(origin, key);
            }
            runtime.run();
            assert_eq!(
                runtime.query_metrics(),
                reference.aware,
                "{kind:?} seed {seed}: runtime diverged from the sim's aware pass"
            );
        }
    }
}
