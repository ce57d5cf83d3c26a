//! Tier-1 smoke test of the determinism contracts: the drivers' reports
//! are pure functions of their configuration, whatever the pool width,
//! shard count or recompute mode.
//!
//! * Thread count: `run_stable` on one worker ≡ on four.
//! * Shard count: `run_stable_sharded(c, 3)` ≡ `run_stable(c)`.
//! * Recompute mode: `run_churn` under `RecomputeMode::Full` ≡ under
//!   `RecomputeMode::Incremental`, for the aware and the oblivious
//!   reports.
//!
//! Small (n = 64, one seed per substrate) so it runs in a few seconds
//! with `cargo test -q`; the property batteries live in the sim crate.

use peercache::pastry::RoutingMode;
use peercache::sim::{
    run_churn, run_stable, run_stable_sharded, ChurnConfig, OverlayKind, RecomputeMode,
    StableConfig,
};
use peercache_par::with_threads;

const NODES: usize = 64;

/// Every substrate, each with its own seed.
fn cases() -> [(OverlayKind, u64); 4] {
    [
        (OverlayKind::Chord, 1),
        (
            OverlayKind::Pastry {
                digit_bits: 1,
                mode: RoutingMode::LocalityAware,
            },
            2,
        ),
        (OverlayKind::Tapestry { digit_bits: 2 }, 3),
        (OverlayKind::SkipGraph, 4),
    ]
}

fn stable(kind: OverlayKind, seed: u64) -> StableConfig {
    let mut config = StableConfig::paper_defaults(kind, NODES, seed);
    config.queries = 400;
    config
}

fn churn(kind: OverlayKind, seed: u64) -> ChurnConfig {
    let mut config = ChurnConfig::paper_defaults(NODES / 2, seed);
    config.kind = kind;
    config.items = 32;
    config.duration = 600.0;
    config.warmup = 150.0;
    config.mean_lifetime = 300.0;
    config
}

#[test]
fn stable_reports_do_not_depend_on_the_thread_count() {
    for (kind, seed) in cases() {
        let config = stable(kind, seed);
        let serial = with_threads(1, || run_stable(&config));
        let parallel = with_threads(4, || run_stable(&config));
        assert_eq!(serial, parallel, "{kind:?} seed {seed}");
    }
}

#[test]
fn sharded_stable_reports_equal_the_monolithic_driver() {
    for (kind, seed) in cases() {
        let config = stable(kind, seed);
        assert_eq!(
            run_stable_sharded(&config, 3),
            run_stable(&config),
            "{kind:?} seed {seed}"
        );
    }
}

#[test]
fn churn_reports_do_not_depend_on_the_recompute_mode() {
    for (kind, seed) in cases() {
        let mut config = churn(kind, seed);
        config.recompute = RecomputeMode::Full;
        let full = run_churn(&config);
        config.recompute = RecomputeMode::Incremental;
        let incremental = run_churn(&config);
        assert_eq!(incremental.aware, full.aware, "{kind:?} seed {seed} aware");
        assert_eq!(
            incremental.oblivious, full.oblivious,
            "{kind:?} seed {seed} oblivious"
        );
        assert_eq!(
            incremental.reduction_pct.to_bits(),
            full.reduction_pct.to_bits(),
            "{kind:?} seed {seed} reduction"
        );
    }
}
