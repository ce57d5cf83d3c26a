//! The benchmark's self-test at toy sizes (n = 32–64): every workload
//! runs untraced and traced in seconds, and every correctness check is
//! shown to fire when handed a wrong reference.

use peercache_sim::{RuntimeFixture, StableReport};

use crate::workloads::{self, Reference, Sizes, WORKLOADS};
use crate::world::{Aux, World};

fn expect(ok: bool, what: &str, failures: &mut u32) {
    eprintln!("selftest: {} {what}", if ok { "ok  " } else { "FAIL" });
    if !ok {
        *failures += 1;
    }
}

/// A reference the unit must not match: its aware and oblivious sides
/// swapped.
fn wrong(reference: &Reference) -> Reference {
    match reference {
        Reference::Stable(reports) => Reference::Stable(
            reports
                .iter()
                .map(|r| StableReport {
                    aware: r.oblivious.clone(),
                    oblivious: r.aware.clone(),
                    ..r.clone()
                })
                .collect(),
        ),
        Reference::Runtime(reports) => {
            let mut swapped = reports.clone();
            for r in &mut swapped {
                std::mem::swap(&mut r.aware, &mut r.oblivious);
            }
            Reference::Runtime(swapped)
        }
    }
}

pub fn run() -> i32 {
    let sizes = Sizes::toy();
    let seed = 7;
    let mut failures = 0;
    for workload in WORKLOADS {
        let unit = workloads::unit(workload, &sizes, seed);
        let reference = workloads::reference(workload, &sizes, seed);
        expect(
            workloads::check(&unit, &reference).is_ok(),
            &format!("{workload}: outputs match the program's drivers"),
            &mut failures,
        );
        expect(
            unit.lookups > 0 && unit.run_s > 0.0,
            &format!("{workload}: unit routed lookups"),
            &mut failures,
        );

        expect(
            workloads::check(&unit, &wrong(&reference)).is_err(),
            &format!("{workload}: check fires on a wrong reference"),
            &mut failures,
        );
        let mut lost = unit.clone();
        lost.failed = 1;
        expect(
            workloads::check(&lost, &reference).is_err(),
            &format!("{workload}: check fires on a lost lookup"),
            &mut failures,
        );

        let path =
            std::path::Path::new("perfbench/out").join(format!("spans-selftest-{workload}.jsonl"));
        match workloads::traced(workload, &sizes, seed, &path) {
            Ok(m) => {
                let missing: Vec<&str> = crate::PER_LAYER
                    .iter()
                    .map(|&(name, _)| name)
                    .filter(|name| !m.get(*name).is_some_and(|v| v.is_finite()))
                    .collect();
                expect(
                    missing.is_empty(),
                    &format!("{workload}: traced run reports every layer {missing:?}"),
                    &mut failures,
                );
                let layers: f64 = m
                    .iter()
                    .filter(|(k, _)| k.starts_with("self."))
                    .map(|(_, v)| v)
                    .sum();
                let error = (layers + m["unattributed_s"] - m["traced_total_s"]).abs();
                expect(
                    error < 1e-6,
                    &format!("{workload}: self times + unattributed = traced total"),
                    &mut failures,
                );
            }
            Err(e) => expect(
                false,
                &format!("{workload}: traced run ({e})"),
                &mut failures,
            ),
        }
    }

    // The traced rebuild's selection check fires when the fixture's
    // tables are swapped.
    let config = &workloads::stable_configs(&sizes, seed)[1];
    let fx = RuntimeFixture::build(config);
    let world = World::build(config, &mut crate::trace::Tracer::default());
    expect(
        workloads::check_world(&world, &fx.aware_table(), &fx.oblivious_table()).is_ok(),
        "rebuilt selections equal the fixture's",
        &mut failures,
    );
    expect(
        workloads::check_world(&world, &fx.oblivious_table(), &fx.oblivious_table()).is_err(),
        "selection check fires on the oblivious table as aware",
        &mut failures,
    );
    expect(
        workloads::check_world(&world, &fx.aware_table(), &fx.aware_table()).is_err(),
        "selection check fires on the aware table as oblivious",
        &mut failures,
    );
    expect(
        workloads::transparent_walk_check(&world, Aux::Aware).is_ok(),
        "transparent walk agrees with the read-only walk",
        &mut failures,
    );
    expect(
        workloads::transparent_walk_check(&world, Aux::CoreOnly).is_err(),
        "transparent-walk check fires on the core-only hop total",
        &mut failures,
    );

    eprintln!("selftest: {failures} failure(s)");
    i32::from(failures > 0)
}
