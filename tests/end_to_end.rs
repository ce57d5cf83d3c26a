//! Workspace-level integration tests: the full experiment pipeline at
//! quick scale, exercising every crate through the facade.

use peercache::sim::{fig3, fig4, fig5, fig6, FigureRow, Scale};

fn quick() -> Scale {
    let mut s = Scale::quick();
    s.queries = 3_000;
    s.churn_duration = 400.0;
    s.churn_warmup = 100.0;
    s
}

fn assert_rows_sane(rows: &[FigureRow], figure: &str) {
    assert!(!rows.is_empty(), "{figure} produced no rows");
    for r in rows {
        assert_eq!(r.figure, figure);
        assert!(r.avg_hops_aware > 0.0, "{figure}: aware hops {r:?}");
        assert!(r.avg_hops_oblivious > 0.0);
        assert!(r.success_rate_aware > 0.9, "{figure}: {r:?}");
        if r.mode == "stable" {
            assert_eq!(r.success_rate_aware, 1.0, "stable mode never fails");
            assert!(
                r.avg_hops_core_only
                    .expect("stable rows record core-only hops")
                    >= r.avg_hops_aware,
                "{figure}: core-only must not beat aware: {r:?}"
            );
        }
    }
}

#[test]
fn fig3_rows_have_the_papers_shape() {
    let rows = fig3(&quick(), 11);
    assert_rows_sane(&rows, "fig3");
    assert_eq!(rows.len(), 8, "4 node counts × 2 alphas");
    // Frequency-aware wins every configuration.
    for r in &rows {
        assert!(r.reduction_pct > 0.0, "aware must beat oblivious: {r:?}");
    }
    // Higher α wins at every n (hashing flattens α < 1, §VI-B).
    for pair in rows.chunks(2) {
        let (hot, mild) = (&pair[0], &pair[1]);
        assert_eq!(hot.n, mild.n);
        assert!(hot.alpha > mild.alpha);
        assert!(
            hot.reduction_pct > mild.reduction_pct,
            "α=1.2 should beat α=0.91 at n={}: {:.1} vs {:.1}",
            hot.n,
            hot.reduction_pct,
            mild.reduction_pct
        );
    }
}

#[test]
fn fig4_rows_grow_with_k() {
    let rows = fig4(&quick(), 12);
    assert_rows_sane(&rows, "fig4");
    assert_eq!(rows.len(), 6, "3 k-factors × 2 alphas");
    // The Figure-4 artifact: under locality-aware routing the aware
    // advantage does not collapse as k grows; absolute aware hops keep
    // improving.
    let alpha12: Vec<&FigureRow> = rows
        .iter()
        .filter(|r| (r.alpha - 1.2).abs() < 1e-9)
        .collect();
    assert!(alpha12.windows(2).all(|w| w[0].k < w[1].k));
    assert!(
        alpha12.last().unwrap().avg_hops_aware < alpha12[0].avg_hops_aware,
        "more pointers keep helping the aware scheme"
    );
}

#[test]
fn fig5_rows_cover_both_modes() {
    let rows = fig5(&quick(), 13);
    assert_rows_sane(&rows, "fig5");
    assert_eq!(rows.len(), 8, "4 node counts × 2 modes");
    let stable: Vec<&FigureRow> = rows.iter().filter(|r| r.mode == "stable").collect();
    let churn: Vec<&FigureRow> = rows.iter().filter(|r| r.mode == "churn").collect();
    assert_eq!(stable.len(), 4);
    assert_eq!(churn.len(), 4);
    for r in &stable {
        assert!(r.reduction_pct > 0.0, "stable aware must win: {r:?}");
    }
    // Churn reduces but does not erase the benefit at the larger sizes.
    let last = churn.last().unwrap();
    assert!(
        last.reduction_pct > -5.0,
        "churn-mode aware should not lose badly: {last:?}"
    );
    // Stable beats churn at equal n (the paper's consistent gap).
    for (s, c) in stable.iter().zip(&churn) {
        assert_eq!(s.n, c.n);
        assert!(
            s.reduction_pct > c.reduction_pct,
            "stable should beat churn at n={}: {:.1} vs {:.1}",
            s.n,
            s.reduction_pct,
            c.reduction_pct
        );
    }
}

#[test]
fn fig6_rows_cover_three_k_factors() {
    let rows = fig6(&quick(), 14);
    assert_rows_sane(&rows, "fig6");
    assert_eq!(rows.len(), 6, "3 k-factors × 2 modes");
    for r in rows.iter().filter(|r| r.mode == "stable") {
        assert!(r.reduction_pct > 0.0);
    }
}

#[test]
fn rows_serialise_to_json() {
    let rows = fig6(&quick(), 15);
    let json = peercache_json::to_string(&rows);
    assert!(json.contains("\"figure\":\"fig6\""));
    assert!(json.contains("reduction_pct"));
}

#[test]
fn node_runtime_reproduces_the_sim_through_the_facade() {
    use peercache::faults::FaultPlan;
    use peercache::node::NodeRuntime;
    use peercache::sim::{run_stable, OverlayKind, RuntimeFixture, StableConfig};

    // The event-loop runtime and the monolithic driver must agree
    // bit-for-bit when both are reached the way a downstream user
    // reaches them: through the facade crate.
    for kind in [OverlayKind::Chord, OverlayKind::SkipGraph] {
        let mut config = StableConfig::paper_defaults(kind, 64, 21);
        config.queries = 2_000;
        let reference = run_stable(&config);
        let fixture = RuntimeFixture::build(&config);
        let mut runtime = NodeRuntime::new(fixture.overlay(), FaultPlan::transparent(config.seed));
        runtime.install_aux(fixture.aware_table());
        for (origin, key) in fixture.queries() {
            runtime.submit(origin, key);
        }
        runtime.run();
        assert_eq!(
            runtime.query_metrics(),
            reference.aware,
            "{kind:?}: runtime and sim disagree"
        );
        assert_eq!(runtime.joined().len(), config.nodes);
    }
}
