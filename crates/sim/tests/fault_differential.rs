//! Differential battery for the single routing walk: each substrate
//! routes through one per-hop step function, driven three ways — the
//! read-only `*_with_aux_faults` walk, the repairing `lookup`/`route`/
//! `search` wrappers, and the node runtime. This suite pins the first
//! two against goldens recorded from the hand-written walks they
//! replaced, over 64 seeds on all four substrates, both on all-live
//! overlays and on overlays with failed (substrate-dead) nodes still
//! referenced from routing tables and auxiliary sets.
//!
//! Per (substrate, regime) the goldens fold every query's hops, failed
//! probes, visited path and outcome into totals and FNV-1a digests:
//!
//! * `all_live` / `failed`: the transparent-plan single walk. The
//!   recorded reference was the old read-only walk, except for Pastry
//!   and Tapestry with failed nodes, where the old read-only walk
//!   stopped hard at a dead next hop and the reference was the mutating
//!   walk on a clone (forget and retry, the rule the single walk keeps).
//! * `repair`: the repairing wrapper on a per-query clone in the failed
//!   regime, plus a digest of the clone's routing tables after the walk
//!   (the evictions it applied).
//!
//! Regenerate (only when routing is meant to change) with
//! `PEERCACHE_PRINT_GOLDEN=1 cargo test -p peercache-sim --test fault_differential -- --nocapture`
//! and paste the printed values.

use std::collections::BTreeMap;

use peercache_chord::{ChordConfig, ChordNetwork, LookupOutcome};
use peercache_faults::{FaultPlan, FaultedRoute, LookupFailure};
use peercache_id::{Id, IdSpace};
use peercache_pastry::{PastryConfig, PastryNetwork, RouteOutcome, RoutingMode};
use peercache_skipgraph::{SearchOutcome, SkipGraphConfig, SkipGraphNetwork};
use peercache_tapestry::{TapestryConfig, TapestryNetwork};
use peercache_workload::random_ids;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NODES: usize = 48;
const FAILURES: usize = 6;
const QUERIES: usize = 8;
const SEEDS: u64 = 64;

fn space() -> IdSpace {
    IdSpace::new(32).expect("valid width")
}

/// Random per-node auxiliary sets drawn over the full membership (so
/// after failures some pointers dangle, exercising the timeout path).
fn aux_tables(ids: &[Id], rng: &mut StdRng) -> BTreeMap<Id, Vec<Id>> {
    ids.iter()
        .map(|&node| {
            let aux: Vec<Id> = (0..4).map(|_| ids[rng.gen_range(0..ids.len())]).collect();
            (node, aux)
        })
        .collect()
}

/// FNV-1a over little-endian words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, v: u128) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn push_id(&mut self, id: Id) {
        self.push(id.value());
    }

    fn push_slot(&mut self, slot: Option<Id>) {
        match slot {
            None => self.push(0),
            Some(id) => {
                self.push(1);
                self.push_id(id);
            }
        }
    }
}

/// One walk in substrate-neutral form. Outcome tags: 0 success (at the
/// node), 1 wrong owner, 2 dead end, 3 hop limit, 4 origin down.
struct Walk {
    hops: u32,
    failed_probes: u32,
    path: Vec<Id>,
    outcome: (u8, Option<Id>),
}

impl Walk {
    fn faulted(route: &FaultedRoute) -> Self {
        let outcome = match route.outcome {
            Ok(end) => (0, Some(end)),
            Err(LookupFailure::WrongOwner(a)) => (1, Some(a)),
            Err(LookupFailure::DeadEnd(a)) => (2, Some(a)),
            Err(LookupFailure::HopLimit) => (3, None),
            Err(LookupFailure::OriginDown(a)) => (4, Some(a)),
        };
        Walk {
            hops: route.trace.hops,
            failed_probes: route.trace.timeouts,
            path: route.trace.path.clone(),
            outcome,
        }
    }

    /// A repairing walk's result; success ends at the last path node.
    fn repaired(hops: u32, failed_probes: u32, path: Vec<Id>, tag: u8, at: Option<Id>) -> Self {
        let at = if tag == 0 { path.last().copied() } else { at };
        Walk {
            hops,
            failed_probes,
            path,
            outcome: (tag, at),
        }
    }
}

/// Totals and digests over every query of one (substrate, regime).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Tally {
    hops: u64,
    failed_probes: u64,
    paths: u64,
    outcomes: u64,
}

struct Acc {
    hops: u64,
    failed_probes: u64,
    paths: Digest,
    outcomes: Digest,
}

impl Acc {
    fn new() -> Self {
        Acc {
            hops: 0,
            failed_probes: 0,
            paths: Digest::new(),
            outcomes: Digest::new(),
        }
    }

    fn add(&mut self, walk: &Walk) {
        self.hops += u64::from(walk.hops);
        self.failed_probes += u64::from(walk.failed_probes);
        self.paths.push(walk.path.len() as u128);
        for &id in &walk.path {
            self.paths.push_id(id);
        }
        self.outcomes.push(u128::from(walk.outcome.0));
        self.outcomes.push_slot(walk.outcome.1);
    }

    fn tally(&self) -> Tally {
        Tally {
            hops: self.hops,
            failed_probes: self.failed_probes,
            paths: self.paths.0,
            outcomes: self.outcomes.0,
        }
    }
}

/// One substrate's goldens (see the module docs).
struct Golden {
    all_live: Tally,
    failed: Tally,
    repair: Tally,
    repair_tables: u64,
}

/// What one substrate's battery observed.
struct Observed {
    all_live: Acc,
    failed: Acc,
    repair: Acc,
    repair_tables: Digest,
}

impl Observed {
    fn new() -> Self {
        Observed {
            all_live: Acc::new(),
            failed: Acc::new(),
            repair: Acc::new(),
            repair_tables: Digest::new(),
        }
    }

    fn check(&self, label: &str, golden: &Golden) {
        let (all_live, failed, repair) = (
            self.all_live.tally(),
            self.failed.tally(),
            self.repair.tally(),
        );
        if std::env::var_os("PEERCACHE_PRINT_GOLDEN").is_some() {
            println!("{label}");
            for (name, t) in [
                ("all_live", all_live),
                ("failed", failed),
                ("repair", repair),
            ] {
                println!(
                    "  {name}: Tally {{ hops: {}, failed_probes: {}, paths: {:#018x}, outcomes: {:#018x} }},",
                    t.hops, t.failed_probes, t.paths, t.outcomes
                );
            }
            println!("  repair_tables: {:#018x},", self.repair_tables.0);
            return;
        }
        assert_eq!(all_live, golden.all_live, "{label}: all-live walk drifted");
        assert_eq!(failed, golden.failed, "{label}: failed-node walk drifted");
        assert_eq!(repair, golden.repair, "{label}: repairing walk drifted");
        assert_eq!(
            self.repair_tables.0, golden.repair_tables,
            "{label}: repairing walk's evictions drifted"
        );
    }
}

/// The invariants every (repairing, single-walk) pair must satisfy
/// under a transparent plan.
fn assert_trace_matches(label: &str, route: &FaultedRoute, repaired: &Walk) {
    let trace = &route.trace;
    let (hops, failed_probes, path) = (repaired.hops, repaired.failed_probes, &repaired.path);
    assert_eq!(trace.hops, hops, "{label}: hop count diverged");
    assert_eq!(&trace.path, path, "{label}: visited path diverged");
    assert_eq!(
        trace.timeouts, failed_probes,
        "{label}: timeouts must equal the repairing walk's failed probes"
    );
    assert_eq!(
        trace.probes as usize,
        trace.probed.len(),
        "{label}: transparent plans send exactly one attempt per probe"
    );
    assert_eq!(trace.retries, 0, "{label}: no retries without loss");
    assert_eq!(trace.fallbacks, 0, "{label}: no fallbacks when transparent");
    assert_eq!(trace.delay_ticks, 0, "{label}: no jitter at zero rates");
    assert_eq!(
        trace.dead_probed.len(),
        failed_probes as usize,
        "{label}: every timeout yields one eviction pair"
    );
    if failed_probes == 0 {
        assert_eq!(
            trace.probed,
            &path[1..],
            "{label}: with no failures the probe order is the forward path"
        );
    }
    assert_eq!(
        Walk::faulted(route).outcome,
        repaired.outcome,
        "{label}: outcome diverged"
    );
}

/// One substrate under test: build, route both ways, digest tables.
trait Substrate: Clone {
    const LABEL: &'static str;
    fn build(ids: &[Id], rng: &mut StdRng) -> Self;
    fn install(&mut self, node: Id, aux: Vec<Id>);
    fn fail(&mut self, id: Id);
    fn live_ids(&self) -> Vec<Id>;
    fn installed_aux(&self, id: Id) -> &[Id];
    /// Whether the single walk reads the installed aux sets (Pastry,
    /// Tapestry) or the side table (Chord, skip graph).
    const INSTALLED: bool;
    fn walk<'a>(&'a self, from: Id, key: Id, aux_of: &dyn Fn(Id) -> &'a [Id]) -> FaultedRoute;
    fn repair(&mut self, from: Id, key: Id) -> Walk;
    fn digest_tables(&self, digest: &mut Digest);
}

impl Substrate for ChordNetwork {
    const LABEL: &'static str = "chord";
    const INSTALLED: bool = false;
    fn build(ids: &[Id], _rng: &mut StdRng) -> Self {
        ChordNetwork::build(ChordConfig::new(space()), ids)
    }
    fn install(&mut self, node: Id, aux: Vec<Id>) {
        self.set_aux(node, aux).expect("node is live");
    }
    fn fail(&mut self, id: Id) {
        ChordNetwork::fail(self, id).ok();
    }
    fn live_ids(&self) -> Vec<Id> {
        ChordNetwork::live_ids(self)
    }
    fn installed_aux(&self, id: Id) -> &[Id] {
        self.node(id).map_or(&[], |n| n.aux.as_slice())
    }
    fn walk<'a>(&'a self, from: Id, key: Id, aux_of: &dyn Fn(Id) -> &'a [Id]) -> FaultedRoute {
        self.lookup_with_aux_faults(from, key, aux_of, &FaultPlan::transparent(0))
            .expect("live origin")
    }
    fn repair(&mut self, from: Id, key: Id) -> Walk {
        let r = self.lookup(from, key).expect("live origin");
        let (tag, at) = match r.outcome {
            LookupOutcome::Success => (0, None),
            LookupOutcome::WrongOwner(a) => (1, Some(a)),
            LookupOutcome::DeadEnd(a) => (2, Some(a)),
            LookupOutcome::HopLimit => (3, None),
        };
        Walk::repaired(r.hops, r.failed_probes, r.path, tag, at)
    }
    fn digest_tables(&self, digest: &mut Digest) {
        for id in ChordNetwork::live_ids(self) {
            let Some(node) = self.node(id) else { continue };
            digest.push_id(id);
            digest.push_slot(node.predecessor);
            for &f in &node.fingers {
                digest.push_slot(f);
            }
            for list in [&node.successors, &node.aux] {
                digest.push(list.len() as u128);
                list.iter().for_each(|&s| digest.push_id(s));
            }
        }
    }
}

impl Substrate for PastryNetwork {
    const LABEL: &'static str = "pastry";
    const INSTALLED: bool = true;
    fn build(ids: &[Id], rng: &mut StdRng) -> Self {
        let config = PastryConfig::new(space(), 1).with_mode(RoutingMode::LocalityAware);
        PastryNetwork::build(config, ids, rng)
    }
    fn install(&mut self, node: Id, aux: Vec<Id>) {
        self.set_aux(node, aux).expect("node is live");
    }
    fn fail(&mut self, id: Id) {
        PastryNetwork::fail(self, id).ok();
    }
    fn live_ids(&self) -> Vec<Id> {
        PastryNetwork::live_ids(self)
    }
    fn installed_aux(&self, id: Id) -> &[Id] {
        self.node(id).map_or(&[], |n| n.aux.as_slice())
    }
    fn walk<'a>(&'a self, from: Id, key: Id, aux_of: &dyn Fn(Id) -> &'a [Id]) -> FaultedRoute {
        self.route_with_aux_faults(from, key, aux_of, &FaultPlan::transparent(0))
            .expect("live origin")
    }
    fn repair(&mut self, from: Id, key: Id) -> Walk {
        let r = self.route(from, key).expect("live origin");
        let (tag, at) = match r.outcome {
            RouteOutcome::Success => (0, None),
            RouteOutcome::WrongOwner(a) => (1, Some(a)),
            RouteOutcome::DeadEnd(a) => (2, Some(a)),
            RouteOutcome::HopLimit => (3, None),
        };
        Walk::repaired(r.hops, r.failed_probes, r.path, tag, at)
    }
    fn digest_tables(&self, digest: &mut Digest) {
        for id in PastryNetwork::live_ids(self) {
            let Some(node) = self.node(id) else { continue };
            digest.push_id(id);
            for &cell in node.rows.iter().flatten() {
                digest.push_slot(cell);
            }
            for list in [&node.leaves, &node.aux] {
                digest.push(list.len() as u128);
                list.iter().for_each(|&s| digest.push_id(s));
            }
        }
    }
}

impl Substrate for TapestryNetwork {
    const LABEL: &'static str = "tapestry";
    const INSTALLED: bool = true;
    fn build(ids: &[Id], _rng: &mut StdRng) -> Self {
        TapestryNetwork::build(TapestryConfig::new(space(), 1), ids)
    }
    fn install(&mut self, node: Id, aux: Vec<Id>) {
        self.set_aux(node, aux).expect("node is live");
    }
    fn fail(&mut self, id: Id) {
        TapestryNetwork::fail(self, id).ok();
    }
    fn live_ids(&self) -> Vec<Id> {
        TapestryNetwork::live_ids(self)
    }
    fn installed_aux(&self, id: Id) -> &[Id] {
        self.node(id).map_or(&[], |n| n.aux.as_slice())
    }
    fn walk<'a>(&'a self, from: Id, key: Id, aux_of: &dyn Fn(Id) -> &'a [Id]) -> FaultedRoute {
        self.route_with_aux_faults(from, key, aux_of, &FaultPlan::transparent(0))
            .expect("live origin")
    }
    fn repair(&mut self, from: Id, key: Id) -> Walk {
        use peercache_tapestry::RouteOutcome;
        let r = self.route(from, key).expect("live origin");
        let (tag, at) = match r.outcome {
            RouteOutcome::Success => (0, None),
            RouteOutcome::WrongOwner(a) => (1, Some(a)),
            RouteOutcome::DeadEnd(a) => (2, Some(a)),
            RouteOutcome::HopLimit => (3, None),
        };
        Walk::repaired(r.hops, r.failed_probes, r.path, tag, at)
    }
    fn digest_tables(&self, digest: &mut Digest) {
        for id in TapestryNetwork::live_ids(self) {
            let Some(node) = self.node(id) else { continue };
            digest.push_id(id);
            for &cell in node.rows.iter().flatten() {
                digest.push_slot(cell);
            }
            digest.push(node.aux.len() as u128);
            node.aux.iter().for_each(|&s| digest.push_id(s));
        }
    }
}

impl Substrate for SkipGraphNetwork {
    const LABEL: &'static str = "skipgraph";
    const INSTALLED: bool = false;
    fn build(ids: &[Id], _rng: &mut StdRng) -> Self {
        SkipGraphNetwork::build(SkipGraphConfig::new(space()), ids)
    }
    fn install(&mut self, node: Id, aux: Vec<Id>) {
        self.set_aux(node, aux).expect("node is live");
    }
    fn fail(&mut self, id: Id) {
        SkipGraphNetwork::fail(self, id).ok();
    }
    fn live_ids(&self) -> Vec<Id> {
        SkipGraphNetwork::live_ids(self)
    }
    fn installed_aux(&self, id: Id) -> &[Id] {
        self.node(id).map_or(&[], |n| n.aux.as_slice())
    }
    fn walk<'a>(&'a self, from: Id, key: Id, aux_of: &dyn Fn(Id) -> &'a [Id]) -> FaultedRoute {
        self.search_with_aux_faults(from, key, aux_of, &FaultPlan::transparent(0))
            .expect("live origin")
    }
    fn repair(&mut self, from: Id, key: Id) -> Walk {
        let r = self.search(from, key).expect("live origin");
        let (tag, at) = match r.outcome {
            SearchOutcome::Success => (0, None),
            SearchOutcome::WrongOwner(a) => (1, Some(a)),
            SearchOutcome::HopLimit => (3, None),
        };
        Walk::repaired(r.hops, r.failed_probes, r.path, tag, at)
    }
    fn digest_tables(&self, digest: &mut Digest) {
        for id in SkipGraphNetwork::live_ids(self) {
            let Some(node) = self.node(id) else { continue };
            digest.push_id(id);
            for &l in &node.levels {
                digest.push_slot(l);
            }
            digest.push(node.aux.len() as u128);
            node.aux.iter().for_each(|&s| digest.push_id(s));
        }
    }
}

/// One seed of one regime. The aux sets are installed before any node
/// fails, so installed sets keep dangling pointers; Chord and the skip
/// graph route the single walk over the identical side table instead.
fn check_seed<N: Substrate>(seed: u64, fail_some: bool, observed: &mut Observed) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ids = random_ids(space(), NODES, &mut rng);
    let mut net = N::build(&ids, &mut rng);
    let aux = aux_tables(&ids, &mut rng);
    for (&node, aux_set) in &aux {
        net.install(node, aux_set.clone());
    }
    if fail_some {
        for i in 0..FAILURES {
            net.fail(ids[i * 7 % NODES]);
        }
    }
    let live = net.live_ids();
    for _ in 0..QUERIES {
        let from = live[rng.gen_range(0..live.len())];
        let key = Id::new(u128::from(rng.gen::<u32>()));
        let side = |id: Id| aux.get(&id).map_or(&[] as &[Id], Vec::as_slice);
        let installed = |id: Id| net.installed_aux(id);
        let route = if N::INSTALLED {
            net.walk(from, key, &installed)
        } else {
            net.walk(from, key, &side)
        };
        let mut repairing = net.clone();
        let repaired = repairing.repair(from, key);
        assert_trace_matches(N::LABEL, &route, &repaired);
        if fail_some {
            observed.failed.add(&Walk::faulted(&route));
            observed.repair.add(&repaired);
            repairing.digest_tables(&mut observed.repair_tables);
        } else {
            observed.all_live.add(&Walk::faulted(&route));
        }
    }
}

fn check<N: Substrate>(golden: &Golden) {
    let mut observed = Observed::new();
    for seed in 0..SEEDS {
        check_seed::<N>(seed, false, &mut observed);
        check_seed::<N>(seed, true, &mut observed);
    }
    observed.check(N::LABEL, golden);
}

#[test]
fn chord_single_walk_and_lookup_reproduce_the_legacy_golden() {
    check::<ChordNetwork>(&Golden {
        all_live: Tally {
            hops: 918,
            failed_probes: 0,
            paths: 0x86f4_6593_7193_3812,
            outcomes: 0xaba0_cb29_29dd_ab19,
        },
        failed: Tally {
            hops: 948,
            failed_probes: 165,
            paths: 0x0373_cba2_be53_d5c3,
            outcomes: 0x82ac_fa80_a0e7_5439,
        },
        repair: Tally {
            hops: 948,
            failed_probes: 165,
            paths: 0x0373_cba2_be53_d5c3,
            outcomes: 0x82ac_fa80_a0e7_5439,
        },
        repair_tables: 0x2e21_73f5_495c_bf06,
    });
}

#[test]
fn pastry_single_walk_and_route_reproduce_the_legacy_golden() {
    check::<PastryNetwork>(&Golden {
        all_live: Tally {
            hops: 999,
            failed_probes: 0,
            paths: 0x699c_f556_e3c7_a886,
            outcomes: 0xe286_ae62_fcad_8868,
        },
        failed: Tally {
            hops: 989,
            failed_probes: 207,
            paths: 0xc3c0_88bb_0b9e_70da,
            outcomes: 0x5216_4513_28ee_097c,
        },
        repair: Tally {
            hops: 989,
            failed_probes: 207,
            paths: 0xc3c0_88bb_0b9e_70da,
            outcomes: 0x5216_4513_28ee_097c,
        },
        repair_tables: 0x7396_3d0e_ec2a_d679,
    });
}

#[test]
fn tapestry_single_walk_and_route_reproduce_the_legacy_golden() {
    check::<TapestryNetwork>(&Golden {
        all_live: Tally {
            hops: 1143,
            failed_probes: 0,
            paths: 0x8678_9093_6d67_e538,
            outcomes: 0x9332_15d4_4f3e_2ca5,
        },
        failed: Tally {
            hops: 1101,
            failed_probes: 273,
            paths: 0x7363_6a4c_ebf6_1b41,
            outcomes: 0x04ee_ac61_fe90_a94e,
        },
        repair: Tally {
            hops: 1101,
            failed_probes: 273,
            paths: 0x7363_6a4c_ebf6_1b41,
            outcomes: 0x04ee_ac61_fe90_a94e,
        },
        repair_tables: 0x5103_d5c0_4a71_be82,
    });
}

#[test]
fn skipgraph_single_walk_and_search_reproduce_the_legacy_golden() {
    check::<SkipGraphNetwork>(&Golden {
        all_live: Tally {
            hops: 1432,
            failed_probes: 0,
            paths: 0xac8f_4bac_ca0f_f6cd,
            outcomes: 0xaba0_cb29_29dd_ab19,
        },
        failed: Tally {
            hops: 1350,
            failed_probes: 235,
            paths: 0x0e00_9655_36fc_82b8,
            outcomes: 0x20f4_eee8_19bb_6e4e,
        },
        repair: Tally {
            hops: 1350,
            failed_probes: 235,
            paths: 0x0e00_9655_36fc_82b8,
            outcomes: 0x20f4_eee8_19bb_6e4e,
        },
        repair_tables: 0xac5b_a350_7a49_2bff,
    });
}
