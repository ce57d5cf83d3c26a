//! Stable-mode goldens: `run_stable`'s hop totals, hop histograms and
//! reduction for all four substrates, pinned at n = 256.
//!
//! The stable differentials (runtime vs sim, sharded vs monolithic)
//! compare two drivers that share one selection path, so a shifted
//! frequency-oblivious draw would pass them unnoticed. These goldens
//! catch it: the oblivious pass's hops depend on every aux set the
//! serial `rng_select` stream drew.
//!
//! Regenerate (only when the selection is meant to change) with
//! `PEERCACHE_PRINT_GOLDEN=1 cargo test --test stable_golden -- --nocapture`
//! and paste the printed tuples.

use peercache::pastry::RoutingMode;
use peercache::sim::{run_stable, OverlayKind, QueryMetrics, StableConfig};

/// One pass's golden: (issued, succeeded, total_hops, hop_histogram).
type Pass = (u64, u64, u64, &'static [u64]);

/// One substrate's golden: aware, oblivious, core-only, and the bits of
/// `reduction_pct`.
struct Golden {
    aware: Pass,
    oblivious: Pass,
    core_only: Pass,
    reduction_bits: u64,
}

fn config(kind: OverlayKind) -> StableConfig {
    let mut config = StableConfig::paper_defaults(kind, 256, 20_081_013);
    config.queries = 4_000;
    config
}

fn observed(m: &QueryMetrics) -> (u64, u64, u64, Vec<u64>) {
    (m.issued, m.succeeded, m.total_hops, m.hop_histogram.clone())
}

fn check(kind: OverlayKind, golden: &Golden) {
    let report = run_stable(&config(kind));
    if std::env::var_os("PEERCACHE_PRINT_GOLDEN").is_some() {
        println!("{kind:?}");
        println!("  aware: {:?}", observed(&report.aware));
        println!("  oblivious: {:?}", observed(&report.oblivious));
        println!("  core_only: {:?}", observed(&report.core_only));
        println!("  reduction_bits: {:#x}", report.reduction_pct.to_bits());
        return;
    }
    let passes = [
        ("aware", &report.aware, golden.aware),
        ("oblivious", &report.oblivious, golden.oblivious),
        ("core_only", &report.core_only, golden.core_only),
    ];
    for (name, metrics, (issued, succeeded, total_hops, histogram)) in passes {
        assert_eq!(
            observed(metrics),
            (issued, succeeded, total_hops, histogram.to_vec()),
            "{kind:?} {name} pass drifted from the stable golden"
        );
        assert_eq!(metrics.failed, 0, "stable mode never fails");
    }
    assert_eq!(
        report.reduction_pct.to_bits(),
        golden.reduction_bits,
        "{kind:?} reduction drifted: {}",
        report.reduction_pct
    );
}

#[test]
fn chord_stable_matches_golden() {
    check(
        OverlayKind::Chord,
        &Golden {
            aware: (4000, 4000, 5679, &[14, 2944, 513, 423, 90, 16]),
            oblivious: (4000, 4000, 10430, &[14, 312, 1425, 1757, 463, 29]),
            core_only: (4000, 4000, 13829, &[14, 190, 586, 1245, 1197, 670, 92, 6]),
            reduction_bits: 0x4046_c690_d023_581d,
        },
    );
}

#[test]
fn pastry_stable_matches_golden() {
    check(
        OverlayKind::Pastry {
            digit_bits: 1,
            mode: RoutingMode::LocalityAware,
        },
        &Golden {
            aware: (4000, 4000, 6052, &[15, 2791, 621, 316, 218, 35, 4]),
            oblivious: (4000, 4000, 10388, &[15, 307, 1493, 1693, 448, 40, 4]),
            core_only: (4000, 4000, 13159, &[15, 204, 758, 1241, 1257, 465, 57, 3]),
            reduction_bits: 0x4044_dec7_b6a8_f542,
        },
    );
}

#[test]
fn tapestry_stable_matches_golden() {
    check(
        OverlayKind::Tapestry { digit_bits: 4 },
        &Golden {
            aware: (4000, 4000, 7306, &[16, 994, 2658, 332]),
            oblivious: (4000, 4000, 8061, &[16, 298, 3295, 391]),
            core_only: (4000, 4000, 8135, &[16, 270, 3277, 437]),
            reduction_bits: 0x4022_bb6f_4fae_3119,
        },
    );
}

#[test]
fn skipgraph_stable_matches_golden() {
    check(
        OverlayKind::SkipGraph,
        &Golden {
            aware: (4000, 4000, 7013, &[14, 2824, 339, 261, 245, 204, 72, 32, 9]),
            oblivious: (4000, 4000, 12404, &[14, 215, 871, 1534, 1024, 303, 39]),
            core_only: (
                4000,
                4000,
                24655,
                &[
                    14, 83, 180, 314, 480, 609, 581, 546, 468, 312, 216, 122, 46, 18, 9, 1, 1,
                ],
            ),
            reduction_bits: 0x4045_bb1b_d219_977c,
        },
    );
}
