//! The workloads: the untraced unit each run repeats for end-to-end
//! metrics, their untimed correctness checks, the traced unit that
//! attributes one unit's time to layers, and the per-layer probes.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::time::Instant;

use peercache_faults::{FaultConfig, FaultPlan, LookupFailure};
use peercache_id::{Id, IdSpace};
use peercache_node::{NodeRuntime, PeerStore, StoreConfig};
use peercache_pastry::{ArenaScratch, PastryArena, PastryConfig, RoutingMode};
use peercache_sim::{
    reduction_pct, run_scale_stable, run_stable, run_stable_faulted, ChurnConfig,
    ChurnRecomputeBench, OverlayKind, QueryMetrics, RuntimeFixture, ScaleConfig, SimOverlay,
    StableConfig, StableReport,
};
use peercache_workload::{random_ids, ItemCatalog, NodeWorkload, Ranking, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::{self, Tracer};
use crate::world::{Aux, World};

/// Problem sizes. `paper` is the benchmark; `toy` is the self-test's.
#[derive(Clone, Debug)]
pub struct Sizes {
    pub stable_nodes: usize,
    pub stable_k: usize,
    pub queries: usize,
    pub churn_nodes: usize,
    pub churn_k: usize,
    pub runtime_nodes: usize,
    pub runtime_seeds: u64,
    pub runtime_queries: usize,
    pub runtime_latency_queries: usize,
    /// Nodes and route-sample lookups of the arena probe.
    pub scale_nodes: usize,
    pub scale_latency_queries: usize,
    /// Lookups per world of the runtime-point reference probe.
    pub reference_queries: usize,
    /// Repairing lookups of the churn probe.
    pub repair_lookups: usize,
}

impl Sizes {
    pub fn paper() -> Sizes {
        Sizes {
            stable_nodes: 2048,
            stable_k: 11,
            queries: 50_000,
            churn_nodes: 1024,
            churn_k: 10,
            runtime_nodes: 256,
            runtime_seeds: 8,
            runtime_queries: 6_250,
            runtime_latency_queries: 1_250,
            scale_nodes: 100_000,
            scale_latency_queries: 50_000,
            reference_queries: 1_000,
            repair_lookups: 5_000,
        }
    }

    pub fn toy() -> Sizes {
        Sizes {
            stable_nodes: 64,
            stable_k: 6,
            queries: 2_000,
            churn_nodes: 32,
            churn_k: 5,
            runtime_nodes: 32,
            runtime_seeds: 2,
            runtime_queries: 1_000,
            runtime_latency_queries: 200,
            scale_nodes: 64,
            scale_latency_queries: 500,
            reference_queries: 100,
            repair_lookups: 300,
        }
    }
}

pub const WORKLOADS: [&str; 2] = ["stable-paper", "runtime-faulted"];

/// The four substrates, as the runtime workload hosts them.
pub fn substrates() -> [(&'static str, OverlayKind); 4] {
    [
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
    ]
}

fn kind_name(kind: OverlayKind) -> &'static str {
    match kind {
        OverlayKind::Chord => "chord",
        OverlayKind::Pastry { .. } => "pastry",
        OverlayKind::Tapestry { .. } => "tapestry",
        OverlayKind::SkipGraph => "skipgraph",
    }
}

/// fault_matrix's grid cell with every channel firing: loss 5 %,
/// stale 25 % (age 1024), crash 5 %, retry budget 2, backoff 4,
/// jitter 3.
pub fn fault_cell() -> FaultConfig {
    FaultConfig {
        crash_rate: 0.05,
        unresponsive_rate: 0.0,
        loss_rate: 0.05,
        stale_rate: 0.25,
        staleness_age: 1024,
        delay_jitter: 3,
        max_retries: 2,
        backoff_base: 4,
    }
}

pub fn stable_configs(sizes: &Sizes, seed: u64) -> Vec<StableConfig> {
    let pastry = OverlayKind::Pastry {
        digit_bits: 1,
        mode: RoutingMode::LocalityAware,
    };
    [pastry, OverlayKind::Chord]
        .into_iter()
        .map(|kind| {
            let mut c = StableConfig::paper_defaults(kind, sizes.stable_nodes, seed);
            c.k = sizes.stable_k;
            c.queries = sizes.queries;
            c
        })
        .collect()
}

/// The runtime workload's worlds: every substrate under each of
/// `runtime_seeds` sub-seeds of `seed`, so one run averages over several
/// topologies and fault plans rather than hanging on which few nodes one
/// plan crashes.
pub fn runtime_configs(
    sizes: &Sizes,
    seed: u64,
    queries: usize,
) -> Vec<(&'static str, StableConfig)> {
    let mut out = Vec::new();
    for sub in 0..sizes.runtime_seeds {
        let sub_seed = seed.wrapping_mul(sizes.runtime_seeds).wrapping_add(sub);
        for (name, kind) in substrates() {
            let mut c = StableConfig::paper_defaults(kind, sizes.runtime_nodes, sub_seed);
            c.queries = queries;
            out.push((name, c));
        }
    }
    out
}

/// The fig5/fig6 churn point (Chord, n = 1024, k = 10) the churn probes
/// run at.
fn churn_config(sizes: &Sizes, seed: u64) -> ChurnConfig {
    let mut c = ChurnConfig::paper_defaults(sizes.churn_nodes, seed);
    c.k = sizes.churn_k;
    c
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn nanos(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What one untraced unit of a workload measured.
#[derive(Default, Clone, Debug)]
pub struct Unit {
    pub setup_s: f64,
    pub run_s: f64,
    /// Wall time of the routing phase.
    pub routing_s: f64,
    /// Lookups the routing phase completed.
    pub lookups: u64,
    /// Per-lookup wall times of the closed-loop latency sample, in
    /// groups of like lookups taken close together in time.
    pub latency_ns: Vec<Vec<u64>>,
    /// Histogram of per-lookup virtual ticks (hops plus delay ticks).
    pub ticks: Vec<u64>,
    pub hops_aware: f64,
    pub hops_oblivious: f64,
    pub reduction_pct: f64,
    pub succeeded: u64,
    pub issued: u64,
    /// Lookups that produced no outcome at all.
    pub failed: u64,
    /// The outputs the correctness checks compare, per row.
    pub outputs: Outputs,
}

/// The deterministic outputs of one unit.
#[derive(Default, Clone, Debug, PartialEq)]
pub enum Outputs {
    #[default]
    None,
    Stable(Vec<StableReport>),
    Runtime(Vec<peercache_sim::FaultMetrics>),
}

fn add_hist(hist: &mut Vec<u64>, value: u64) {
    let i = usize::try_from(value).unwrap_or(usize::MAX).min(4096);
    if hist.len() <= i {
        hist.resize(i + 1, 0);
    }
    hist[i] += 1;
}

fn merge_hist(into: &mut Vec<u64>, from: &[u64]) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (a, b) in into.iter_mut().zip(from) {
        *a += b;
    }
}

fn mean(xs: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = xs.len().max(1) as f64;
    xs.sum::<f64>() / n
}

// ---------------------------------------------------------------- stable

/// A fixture's `(node, aux)` table sorted by node, resolved by binary
/// search as the stable driver resolves its side tables.
struct AuxTable(Vec<(Id, Vec<Id>)>);

impl AuxTable {
    fn new(mut table: Vec<(Id, Vec<Id>)>) -> Self {
        table.sort_unstable_by_key(|&(id, _)| id);
        AuxTable(table)
    }

    fn get(&self, id: Id) -> &[Id] {
        self.0
            .binary_search_by_key(&id, |&(n, _)| n)
            .map_or(&[], |pos| self.0[pos].1.as_slice())
    }
}

/// Route the fixture stream under the three strategies in a closed loop,
/// one lookup in flight, timing each aware lookup into `latency_ns`.
fn route_fixture(fx: &RuntimeFixture, unit: &mut Unit, latency_ns: &mut Vec<u64>) -> StableReport {
    let queries: Vec<(Id, Id)> = fx.queries().collect();
    let overlay = fx.overlay();
    let aware = AuxTable::new(fx.aware_table());
    let oblivious = AuxTable::new(fx.oblivious_table());
    let mut passes = Vec::new();
    let start = Instant::now();
    for which in Aux::ALL {
        let mut m = QueryMetrics::default();
        for &(origin, key) in &queries {
            let out = match which {
                Aux::CoreOnly => overlay.query_with_aux(origin, key, |_| &[]),
                Aux::Aware => {
                    let t = Instant::now();
                    let out = overlay.query_with_aux(origin, key, |id| aware.get(id));
                    latency_ns.push(nanos(t));
                    out
                }
                Aux::Oblivious => overlay.query_with_aux(origin, key, |id| oblivious.get(id)),
            };
            m.record(out.success, out.hops, out.failed_probes);
        }
        passes.push(m);
    }
    unit.routing_s += secs(start);
    unit.lookups += 3 * queries.len() as u64;
    let [core_only, aware, oblivious]: [QueryMetrics; 3] = passes.try_into().expect("three passes");
    StableReport {
        reduction_pct: reduction_pct(aware.avg_hops(), oblivious.avg_hops()),
        aware,
        oblivious,
        core_only,
    }
}

fn stable_unit(sizes: &Sizes, seed: u64) -> Unit {
    let start = Instant::now();
    let mut unit = Unit::default();
    let mut reports = Vec::new();
    let mut latency = Vec::new();
    for config in stable_configs(sizes, seed) {
        let t = Instant::now();
        let fx = RuntimeFixture::build(&config);
        unit.setup_s += secs(t);
        reports.push(route_fixture(&fx, &mut unit, &mut latency));
    }
    unit.latency_ns.push(latency);
    for r in &reports {
        for m in [&r.core_only, &r.aware, &r.oblivious] {
            unit.succeeded += m.succeeded;
            unit.issued += m.issued;
        }
        merge_hist(&mut unit.ticks, &r.aware.hop_histogram);
    }
    unit.hops_aware = mean(reports.iter().map(|r| r.aware.avg_hops()));
    unit.hops_oblivious = mean(reports.iter().map(|r| r.oblivious.avg_hops()));
    unit.reduction_pct = mean(reports.iter().map(|r| r.reduction_pct));
    unit.outputs = Outputs::Stable(reports);
    unit.run_s = secs(start);
    unit
}

// --------------------------------------------------------------- runtime

/// Where a runtime leg saves its peer store, inside the benchmark's
/// output directory (created on first use).
fn store_path(name: &str) -> std::path::PathBuf {
    let dir = Path::new("perfbench/out");
    std::fs::create_dir_all(dir).expect("create perfbench/out");
    dir.join(format!("store-{name}.jsonl"))
}

/// What the runtime leg routes: one world's overlay, its aware table,
/// the node the peer store is attached to, and the query stream.
struct RuntimeInputs<'a> {
    overlay: &'a SimOverlay,
    owner: Id,
    aware: Vec<(Id, Vec<Id>)>,
    queries: Vec<(Id, Id)>,
}

impl<'a> RuntimeInputs<'a> {
    fn from_fixture(fx: &'a RuntimeFixture) -> Self {
        RuntimeInputs {
            overlay: fx.overlay(),
            owner: fx.node_ids()[0],
            aware: fx.aware_table(),
            queries: fx.queries().collect(),
        }
    }

    fn from_world(world: &'a World) -> Self {
        RuntimeInputs {
            overlay: &world.overlay,
            owner: world.node_ids[0],
            aware: world.table(Aux::Aware),
            queries: world.queries(),
        }
    }
}

/// One substrate's runtime leg: every lookup submitted at tick 0 and run
/// to completion, then a closed-loop latency sample through the same
/// runtime, then the store saved and reloaded.
struct RuntimeLeg {
    metrics: peercache_sim::FaultMetrics,
    ticks: Vec<u64>,
    delivered: u64,
    lookups: u64,
    missing: u64,
    run_s: f64,
    save_s: f64,
    load_s: f64,
    store_peers: usize,
    store_round_trips: bool,
}

fn runtime_leg(
    name: &str,
    inputs: RuntimeInputs<'_>,
    plan: FaultPlan,
    latency_queries: usize,
    latency_ns: &mut Vec<u64>,
    tr: &mut Tracer,
) -> RuntimeLeg {
    let queries = &inputs.queries;
    let mut rt = NodeRuntime::new(inputs.overlay, plan);
    rt.install_aux(inputs.aware);
    rt.attach_store(inputs.owner, PeerStore::new(StoreConfig::default()));
    let t = Instant::now();
    tr.span("node.run", queries.len() as u64, |_| {
        for &(origin, key) in queries {
            rt.submit(origin, key);
        }
        rt.run();
    });
    let run_s = secs(t);
    let delivered = rt.delivered();
    let metrics = rt.fault_metrics();
    let mut ticks = Vec::new();
    let mut missing = 0;
    for i in 0..queries.len() {
        match rt.route(i) {
            Some(route) if !matches!(route.outcome, Err(LookupFailure::OriginDown(_))) => {
                add_hist(
                    &mut ticks,
                    u64::from(route.trace.hops) + route.trace.delay_ticks,
                );
            }
            Some(_) => {}
            None => missing += 1,
        }
    }
    let sample = latency_queries.min(queries.len()) as u64;
    tr.span("node.latency", sample, |_| {
        for &(origin, key) in queries.iter().take(latency_queries) {
            let t = Instant::now();
            rt.submit(origin, key);
            rt.run();
            latency_ns.push(nanos(t));
        }
    });
    let (_, store) = rt.detach_store().expect("store attached above");
    let path = store_path(name);
    let t = Instant::now();
    tr.span("node.store_save", store.len() as u64, |_| store.save(&path))
        .expect("write peer store");
    let save_s = secs(t);
    let t = Instant::now();
    let loaded = tr.span("node.store_load", store.len() as u64, |_| {
        PeerStore::load(&path, StoreConfig::default())
    });
    let load_s = secs(t);
    RuntimeLeg {
        metrics,
        ticks,
        delivered,
        lookups: queries.len() as u64,
        missing,
        run_s,
        save_s,
        load_s,
        store_peers: loaded.len(),
        store_round_trips: loaded == store,
    }
}

fn runtime_unit(sizes: &Sizes, seed: u64) -> Unit {
    let start = Instant::now();
    let mut unit = Unit::default();
    let mut rows = Vec::new();
    let mut tr = Tracer::default();
    let mut latency = Vec::new();
    for (i, (name, config)) in runtime_configs(sizes, seed, sizes.runtime_queries)
        .into_iter()
        .enumerate()
    {
        let t = Instant::now();
        let fx = RuntimeFixture::build(&config);
        unit.setup_s += secs(t);
        let plan = FaultPlan::new(config.seed, &fault_cell());
        let leg = runtime_leg(
            name,
            RuntimeInputs::from_fixture(&fx),
            plan,
            sizes.runtime_latency_queries,
            &mut latency,
            &mut tr,
        );
        // One latency group per sub-seed: its four substrates.
        if (i + 1) % substrates().len() == 0 {
            unit.latency_ns.push(std::mem::take(&mut latency));
        }
        unit.routing_s += leg.run_s;
        unit.lookups += leg.lookups;
        unit.failed += leg.missing + u64::from(!leg.store_round_trips);
        unit.succeeded += leg.metrics.base.succeeded;
        unit.issued += leg.metrics.base.issued;
        merge_hist(&mut unit.ticks, &leg.ticks);
        rows.push(leg.metrics);
    }
    unit.hops_aware = mean(rows.iter().map(|m| m.base.avg_hops()));
    unit.outputs = Outputs::Runtime(rows);
    unit.run_s = secs(start);
    unit
}

// ----------------------------------------------------------------- scale

/// The scale driver's topology rebuilt from public calls in the virtual
/// arena, with its catalog and workload for drawing its query stream.
struct ScaleWorld {
    arena: PastryArena,
    catalog: ItemCatalog,
    workload: NodeWorkload,
}

fn scale_world(config: &ScaleConfig, tr: &mut Tracer) -> ScaleWorld {
    let space = IdSpace::new(config.bits).expect("valid id width");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let node_ids = random_ids(space, config.nodes, &mut rng);
    let catalog = ItemCatalog::random(space, config.items, &mut rng);
    let arena = tr.span("build.arena", config.nodes as u64, |_| {
        PastryArena::new(
            PastryConfig::new(space, config.digit_bits).with_mode(config.mode),
            node_ids,
        )
    });
    let zipf = Zipf::new(config.items, config.alpha).expect("valid Zipf");
    let workload = NodeWorkload::new(zipf, Ranking::identity(config.items));
    ScaleWorld {
        arena,
        catalog,
        workload,
    }
}

impl ScaleWorld {
    /// The scale driver's query stream, drawn as it draws it.
    fn queries(&self, config: &ScaleConfig, count: usize) -> Vec<(Id, Id)> {
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(2));
        let n = self.arena.len();
        (0..count.min(config.queries))
            .map(|_| {
                let origin = rng.gen_range(0..n);
                let item = self.workload.sample_item(&mut rng);
                (self.arena.ids()[origin], self.catalog.key(item))
            })
            .collect()
    }

    /// Route `count` lookups of the stream core-only in a closed loop,
    /// timing each; returns how many produced no route.
    fn route_sample(&self, config: &ScaleConfig, count: usize, latency_ns: &mut Vec<u64>) -> u64 {
        let mut scratch = ArenaScratch::new();
        let mut missing = 0;
        for (from, key) in self.queries(config, count) {
            let t = Instant::now();
            let route = self.arena.route_with_aux(from, key, |_| &[], &mut scratch);
            latency_ns.push(nanos(t));
            missing += u64::from(route.is_none());
        }
        missing
    }
}

/// The `q`-quantile of per-lookup latency in µs, taken in each latency
/// group of `units` (like lookups close together in time), and the
/// lowest of those: the group least disturbed by other load on the host.
pub fn fastest_group(units: &[Unit], q: f64) -> f64 {
    let mut per_group: Vec<f64> = units
        .iter()
        .flat_map(|u| &u.latency_ns)
        .map(|group| {
            let mut us: Vec<f64> = group.iter().map(|&ns| ns as f64 * 1e-3).collect();
            crate::stats::quantile(&mut us, q)
        })
        .collect();
    crate::stats::quantile(&mut per_group, 0.0)
}

/// Run one untraced unit of `workload`.
pub fn unit(workload: &str, sizes: &Sizes, seed: u64) -> Unit {
    match workload {
        "stable-paper" => stable_unit(sizes, seed),
        "runtime-faulted" => runtime_unit(sizes, seed),
        other => panic!("unknown workload {other}"),
    }
}

/// A set-up alone: the warm-up before the timed units, and the extra
/// set-up samples when the units gave too few.
pub fn setup_only(workload: &str, sizes: &Sizes, seed: u64) -> f64 {
    let t = Instant::now();
    match workload {
        "stable-paper" => {
            for config in stable_configs(sizes, seed) {
                std::hint::black_box(RuntimeFixture::build(&config).node_ids().len());
            }
        }
        "runtime-faulted" => {
            for (_, config) in runtime_configs(sizes, seed, sizes.runtime_queries) {
                std::hint::black_box(RuntimeFixture::build(&config).node_ids().len());
            }
        }
        other => panic!("unknown workload {other}"),
    }
    secs(t)
}

// ---------------------------------------------------------------- checks

/// The outputs a unit must reproduce, from the program's own drivers.
#[derive(Clone, Debug)]
pub enum Reference {
    Stable(Vec<StableReport>),
    Runtime(Vec<peercache_sim::StableFaultReport>),
}

pub fn reference(workload: &str, sizes: &Sizes, seed: u64) -> Reference {
    match workload {
        "stable-paper" => {
            Reference::Stable(stable_configs(sizes, seed).iter().map(run_stable).collect())
        }
        "runtime-faulted" => Reference::Runtime(
            runtime_configs(sizes, seed, sizes.runtime_queries)
                .iter()
                .map(|(_, config)| run_stable_faulted(config, &fault_cell()))
                .collect(),
        ),
        other => panic!("unknown workload {other}"),
    }
}

/// Compare a unit's outputs with the reference; `Err` names what
/// differs.
pub fn check(unit: &Unit, reference: &Reference) -> Result<(), String> {
    match (&unit.outputs, reference) {
        (Outputs::Stable(got), Reference::Stable(want)) => {
            if got != want {
                return Err("stable-paper: routed metrics differ from run_stable".into());
            }
        }
        (Outputs::Runtime(got), Reference::Runtime(want)) => {
            let want: Vec<_> = want.iter().map(|r| r.aware.clone()).collect();
            if *got != want {
                return Err(
                    "runtime-faulted: metrics differ from run_stable_faulted(..).aware".into(),
                );
            }
        }
        _ => return Err("unit and reference are of different workloads".into()),
    }
    if unit.failed > 0 {
        return Err(format!("{} operations produced no outcome", unit.failed));
    }
    Ok(())
}

/// Fill the oblivious side of the runtime workload from its reference,
/// which routes the oblivious table through the same faulted walk.
pub fn complete_from_reference(unit: &mut Unit, reference: &Reference) {
    if let Reference::Runtime(reports) = reference {
        unit.hops_oblivious = mean(reports.iter().map(|r| r.oblivious.base.avg_hops()));
        unit.reduction_pct = mean(
            reports
                .iter()
                .map(|r| reduction_pct(r.aware.base.avg_hops(), r.oblivious.base.avg_hops())),
        );
    }
}

/// The traced run's rebuilt selections must equal the fixture's.
pub fn check_world(
    world: &World,
    aware: &[(Id, Vec<Id>)],
    oblivious: &[(Id, Vec<Id>)],
) -> Result<(), String> {
    if world.table(Aux::Aware) != aware {
        return Err(
            "traced rebuild: aware selection differs from RuntimeFixture::aware_table".into(),
        );
    }
    if world.table(Aux::Oblivious) != oblivious {
        return Err(
            "traced rebuild: oblivious selection differs from RuntimeFixture::oblivious_table"
                .into(),
        );
    }
    Ok(())
}

// ---------------------------------------------------------------- traced

pub type Layers = BTreeMap<String, f64>;

/// One rebuilt world and its three routed passes.
struct Routed {
    world: World,
    name: &'static str,
    passes: [QueryMetrics; 3],
}

/// Rebuild each world from public calls, inside `build.*`, `freq.*` and
/// `select.*` spans.
fn build_worlds(configs: &[StableConfig], tr: &mut Tracer) -> Vec<World> {
    configs
        .iter()
        .map(|config| World::build(config, tr))
        .collect()
}

/// Route each world's stream under the three strategies, inside
/// `walk.*` spans.
fn walk_worlds(worlds: Vec<World>, configs: &[StableConfig], tr: &mut Tracer) -> Vec<Routed> {
    worlds
        .into_iter()
        .zip(configs)
        .map(|(world, config)| {
            let name = kind_name(config.kind);
            let queries = world.queries();
            let passes: Vec<QueryMetrics> = Aux::ALL
                .iter()
                .map(|&which| {
                    let span = format!("walk.{name}.{}", which.name());
                    tr.span(&span, queries.len() as u64, |_| {
                        let mut metrics = QueryMetrics::default();
                        for &(origin, key) in &queries {
                            let o = world
                                .overlay
                                .query_with_aux(origin, key, |id| world.aux(which, id));
                            metrics.record(o.success, o.hops, o.failed_probes);
                        }
                        metrics
                    })
                })
                .collect();
            Routed {
                world,
                name,
                passes: passes.try_into().expect("three passes"),
            }
        })
        .collect()
}

fn build_and_walk(configs: &[StableConfig], tr: &mut Tracer) -> Vec<Routed> {
    let worlds = build_worlds(configs, tr);
    walk_worlds(worlds, configs, tr)
}

/// The substrate names of `rows`, each once, in first-seen order.
fn distinct_names(rows: &[Routed]) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = Vec::new();
    for row in rows {
        if !names.contains(&row.name) {
            names.push(row.name);
        }
    }
    names
}

/// Build, selection and walk metrics from the spans `build_and_walk`
/// recorded, plus the aux-utility ratios.
fn walk_layers(rows: &[Routed], tr: &Tracer, m: &mut Layers) -> Result<(), String> {
    let (build, _, _) = tr.total("build.overlay");
    let (freq, _, _) = tr.total("freq.aggregate");
    let (obl, _, nodes) = tr.total("select.oblivious");
    let (aware, aware_allocs, _) = tr.total("select.aware");
    m.insert("build.overlay_s".into(), build);
    m.insert("freq.aggregate_s".into(), freq);
    m.insert("select.oblivious_s".into(), obl);
    m.insert(
        "select.oblivious_us_per_node".into(),
        ratio(obl * 1e6, nodes as f64),
    );
    m.insert("select.aware_s".into(), aware);
    m.insert(
        "select.aware_us_per_node".into(),
        ratio(aware * 1e6, nodes as f64),
    );
    m.insert(
        "select.allocs_per_node".into(),
        ratio(aware_allocs as f64, nodes as f64),
    );

    let mut hops = 0u64;
    let mut pass_hops = [0u64; 3];
    let mut pass_lookups = [0u64; 3];
    for row in rows {
        for (i, pass) in row.passes.iter().enumerate() {
            hops += pass.total_hops;
            pass_hops[i] += pass.total_hops;
            pass_lookups[i] += pass.succeeded;
        }
    }
    let mut walk_s = 0.0;
    for name in distinct_names(rows) {
        let (mut s, mut allocs, mut lookups) = (0.0, 0, 0);
        for which in Aux::ALL {
            let (ps, pa, pc) = tr.total(&format!("walk.{name}.{}", which.name()));
            s += ps;
            allocs += pa;
            lookups += pc;
        }
        walk_s += s;
        m.insert(
            format!("walk.{name}.ns_per_lookup"),
            ratio(s * 1e9, lookups as f64),
        );
        m.insert(
            format!("walk.allocs_per_lookup.{name}"),
            ratio(allocs as f64, lookups as f64),
        );
    }
    m.insert("walk.ns_per_hop".into(), ratio(walk_s * 1e9, hops as f64));
    for (i, which) in Aux::ALL.iter().enumerate() {
        m.insert(
            format!("walk.hops_per_lookup.{}", which.name()),
            ratio(pass_hops[i] as f64, pass_lookups[i] as f64),
        );
    }

    let (mut aux_hops, mut path_hops, mut used, mut installed) = (0u64, 0u64, 0usize, 0usize);
    for row in rows {
        let (a, p, u) = aux_utility(&row.world, &row.passes[1])?;
        aux_hops += a;
        path_hops += p;
        used += u;
        installed += row.world.aware.iter().map(Vec::len).sum::<usize>();
    }
    m.insert(
        "walk.aux_hop_share".into(),
        ratio(aux_hops as f64, path_hops as f64),
    );
    m.insert(
        "select.aux_used_share".into(),
        ratio(used as f64, installed as f64),
    );
    Ok(())
}

/// Aux utility from the outside: route the aware pass through the
/// transparent-plan faulted walk, whose trace carries the path, and
/// count hops whose next node is in the current node's aware set.
/// Returns (aux hops, hops, distinct aux pointers taken). Fails when the
/// transparent walk disagrees with the read-only walk's hop total.
fn aux_utility(world: &World, aware: &QueryMetrics) -> Result<(u64, u64, usize), String> {
    let plan = FaultPlan::transparent(0);
    let mut used: HashSet<(Id, Id)> = HashSet::new();
    let (mut aux_hops, mut path_hops, mut success_hops) = (0u64, 0u64, 0u64);
    for (origin, key) in world.queries() {
        let route =
            world
                .overlay
                .query_with_aux_faults(origin, key, |id| world.aux(Aux::Aware, id), &plan);
        if route.is_success() {
            success_hops += u64::from(route.trace.hops);
        }
        for step in route.trace.path.windows(2) {
            path_hops += 1;
            if world.aux(Aux::Aware, step[0]).contains(&step[1]) {
                aux_hops += 1;
                used.insert((step[0], step[1]));
            }
        }
    }
    if success_hops != aware.total_hops {
        return Err("transparent faulted walk disagrees with the read-only walk".into());
    }
    Ok((aux_hops, path_hops, used.len()))
}

/// Route `which` read-only over the world's stream and hold the
/// transparent faulted walk of the aware table against its hop total:
/// passes for `Aux::Aware`, and must fail for any other pass.
pub fn transparent_walk_check(world: &World, which: Aux) -> Result<(), String> {
    let mut metrics = QueryMetrics::default();
    for (origin, key) in world.queries() {
        let o = world
            .overlay
            .query_with_aux(origin, key, |id| world.aux(which, id));
        metrics.record(o.success, o.hops, o.failed_probes);
    }
    aux_utility(world, &metrics).map(|_| ())
}

/// The faulted walk of every world under the workload's plan.
fn fault_layers(rows: &[Routed], m: &mut Layers) {
    let mut tr = Tracer::default();
    let (mut lookups, mut probes, mut retries, mut timeouts, mut fallbacks) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for row in rows {
        let plan = FaultPlan::new(row.world.seed, &fault_cell());
        let queries = row.world.queries();
        let span = format!("faults.{}", row.name);
        let traces: Vec<_> = tr.span(&span, queries.len() as u64, |_| {
            queries
                .iter()
                .map(|&(origin, key)| {
                    let world = &row.world;
                    let r = world.overlay.query_with_aux_faults(
                        origin,
                        key,
                        |id| world.aux(Aux::Aware, id),
                        &plan,
                    );
                    (
                        r.trace.probes,
                        r.trace.retries,
                        r.trace.timeouts,
                        r.trace.fallbacks,
                    )
                })
                .collect()
        });
        lookups += queries.len() as u64;
        for (p, r, t, f) in traces {
            probes += u64::from(p);
            retries += u64::from(r);
            timeouts += u64::from(t);
            fallbacks += u64::from(f);
        }
    }
    for name in distinct_names(rows) {
        let (s, allocs, n) = tr.total(&format!("faults.{name}"));
        m.insert(
            format!("faults.{name}.ns_per_lookup"),
            ratio(s * 1e9, n as f64),
        );
        m.insert(
            format!("faults.allocs_per_lookup.{name}"),
            ratio(allocs as f64, n as f64),
        );
    }
    let n = lookups as f64;
    m.insert("faults.probes_per_lookup".into(), ratio(probes as f64, n));
    m.insert("faults.retries_per_lookup".into(), ratio(retries as f64, n));
    m.insert(
        "faults.timeouts_per_lookup".into(),
        ratio(timeouts as f64, n),
    );
    m.insert(
        "faults.fallbacks_per_lookup".into(),
        ratio(fallbacks as f64, n),
    );
}

fn node_layers(legs: &[RuntimeLeg], m: &mut Layers) {
    let run_s: f64 = legs.iter().map(|l| l.run_s).sum();
    let delivered: u64 = legs.iter().map(|l| l.delivered).sum();
    let lookups: u64 = legs.iter().map(|l| l.lookups).sum();
    let stores = legs.len() as f64;
    m.insert("node.run_s".into(), run_s);
    m.insert(
        "node.messages_per_lookup".into(),
        ratio(delivered as f64, lookups as f64),
    );
    m.insert(
        "node.ns_per_message".into(),
        ratio(run_s * 1e9, delivered as f64),
    );
    // The store figures are per attached store (one per world).
    m.insert(
        "node.store_save_ms".into(),
        ratio(legs.iter().map(|l| l.save_s).sum::<f64>() * 1e3, stores),
    );
    m.insert(
        "node.store_load_ms".into(),
        ratio(legs.iter().map(|l| l.load_s).sum::<f64>() * 1e3, stores),
    );
    m.insert(
        "node.store_peers".into(),
        ratio(legs.iter().map(|l| l.store_peers as f64).sum(), stores),
    );
}

/// Public-call probes at the churn point: the refresh tick, membership
/// operations, oblivious re-selection, and repairing lookups.
fn churn_probes(sizes: &Sizes, seed: u64, m: &mut Layers) {
    let config = churn_config(sizes, seed);
    let mut bench = ChurnRecomputeBench::new(&config, 250);
    std::hint::black_box(bench.tick_incremental());
    let mut ticks: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(bench.tick_incremental());
            secs(t) * 1e3
        })
        .collect();
    m.insert("refresh.tick_ms".into(), crate::stats::median(&mut ticks));

    let space = IdSpace::new(config.bits).expect("valid id width");
    let mut rng = StdRng::seed_from_u64(seed);
    let ids = random_ids(space, config.nodes, &mut rng);
    let catalog = ItemCatalog::random(space, config.items, &mut rng);
    let mut overlay = SimOverlay::build(config.kind, space, &ids, &mut rng);
    // Membership: crash a node, let its successors stabilize, rejoin it.
    let rounds = (config.nodes / 4).max(4);
    let mut ops = 0u64;
    let t = Instant::now();
    for r in 0..rounds {
        let x = ids[(r * 7) % ids.len()];
        overlay.fail(x);
        for j in 1..=4 {
            overlay.stabilize(ids[(r * 7 + j) % ids.len()]);
        }
        overlay.join(x, &mut rng);
        overlay.stabilize(x);
        ops += 7;
    }
    m.insert(
        "churn.membership_us".into(),
        ratio(secs(t) * 1e6, ops as f64),
    );
    // Oblivious re-selection on a ring at the churn steady state, half
    // its nodes live: the call the driver makes at each recompute.
    let mut half = overlay.clone();
    for &x in ids.iter().skip(1).step_by(2) {
        half.fail(x);
    }
    let live = half.live_ids();
    let mut rng_select = StdRng::seed_from_u64(seed.wrapping_add(4));
    let sample = live.len().min(128);
    let t = Instant::now();
    for &node in live.iter().take(sample) {
        std::hint::black_box(
            half.select_oblivious_uniform(node, config.k, &mut rng_select)
                .ok(),
        );
    }
    m.insert(
        "churn.reselect_us".into(),
        ratio(secs(t) * 1e6, sample as f64),
    );
    // Repairing lookups over a ring with a tenth of its nodes crashed
    // and not yet stabilized away.
    for &x in ids.iter().step_by(10) {
        overlay.fail(x);
    }
    let live = overlay.live_ids();
    let plan = FaultPlan::transparent(seed);
    let lookups = sizes.repair_lookups;
    let t = Instant::now();
    for q in 0..lookups {
        let from = live[rng.gen_range(0..live.len())];
        let key = catalog.key(q % catalog.len());
        let route = overlay.query_faulted(from, key, &plan);
        for &(node, dead) in &route.trace.dead_probed {
            overlay.forget_entry(node, dead);
        }
    }
    m.insert(
        "churn.repair_lookup_us".into(),
        ratio(secs(t) * 1e6, lookups as f64),
    );
}

/// The arena probe, in every traced run since no workload's unit runs
/// the scale engine: `PastryArena::new` and core-only
/// `PastryArena::route_with_aux` at 10^5 nodes, and `run_scale_stable`'s
/// heap high-water mark per node. Returns how many lookups produced no
/// route.
fn arena_probe(sizes: &Sizes, seed: u64, m: &mut Layers) -> u64 {
    let config = ScaleConfig::paper_defaults(sizes.scale_nodes, seed);
    let mut tr = Tracer::default();
    let world = scale_world(&config, &mut tr);
    let sample = sizes.scale_latency_queries.min(config.queries);
    let t = Instant::now();
    let missing = world.route_sample(&config, sample, &mut Vec::with_capacity(sample));
    m.insert(
        "scale.route_ns_per_lookup".into(),
        ratio(secs(t) * 1e9, sample as f64),
    );
    drop(world);
    let before = trace::bytes_in_use();
    trace::reset_peak();
    std::hint::black_box(run_scale_stable(&config));
    let peak = trace::peak_bytes().saturating_sub(before);
    m.insert("build.arena_s".into(), tr.total("build.arena").0);
    m.insert(
        "scale.heap_bytes_per_node".into(),
        ratio(peak as f64, config.nodes as f64),
    );
    missing
}

/// The runtime point's worlds (every sub-seed × substrate), every layer
/// on: the runtime-faulted traced unit at full size, and the reference
/// probe stable-paper uses for the layers its unit does not run.
fn traced_runtime(
    sizes: &Sizes,
    queries: usize,
    latency: usize,
    seed: u64,
    tr: &mut Tracer,
    m: &mut Layers,
) -> Result<(), String> {
    let configs: Vec<StableConfig> = runtime_configs(sizes, seed, queries)
        .into_iter()
        .map(|(_, c)| c)
        .collect();
    let (worlds, legs) = tr.span("workload", 0, |tr| {
        let worlds = build_worlds(&configs, tr);
        let legs: Vec<RuntimeLeg> = worlds
            .iter()
            .zip(&configs)
            .map(|(world, config)| {
                let plan = FaultPlan::new(config.seed, &fault_cell());
                let name = kind_name(config.kind);
                runtime_leg(
                    name,
                    RuntimeInputs::from_world(world),
                    plan,
                    latency,
                    &mut Vec::new(),
                    tr,
                )
            })
            .collect();
        (worlds, legs)
    });
    // The read-only and faulted walks of the same worlds, outside the
    // unit: the runtime drives the faulted step, not these loops.
    let rows = walk_worlds(worlds, &configs, tr);
    for (row, config) in rows.iter().zip(&configs) {
        let fx = RuntimeFixture::build(config);
        check_world(&row.world, &fx.aware_table(), &fx.oblivious_table())?;
    }
    if legs.iter().any(|l| !l.store_round_trips || l.missing > 0) {
        return Err(
            "runtime-faulted: a store did not round-trip or a lookup did not finish".into(),
        );
    }
    walk_layers(&rows, tr, m)?;
    fault_layers(&rows, m);
    node_layers(&legs, m);
    Ok(())
}

/// Per-layer self times under the root span `workload`; the root's own
/// time is unattributed.
fn self_times(tr: &Tracer, m: &mut Layers) {
    const LAYERS: [&str; 5] = ["build", "freq", "select", "walk", "node"];
    let (layers, root_self, total) = tr.self_times("workload");
    let mut unattributed = root_self;
    for (layer, s) in &layers {
        if !LAYERS.contains(&layer.as_str()) {
            unattributed += s;
        }
    }
    for layer in LAYERS {
        m.insert(
            format!("self.{layer}_s"),
            layers.get(layer).copied().unwrap_or(0.0),
        );
    }
    m.insert("unattributed_s".into(), unattributed);
    m.insert("traced_total_s".into(), total);
}

/// The traced run of `workload`: an untimed set-up to warm the
/// allocator, one untraced unit for the overhead baseline, one traced
/// unit with spans at each layer boundary, then the per-layer probes.
/// Spans are written to `spans_path`.
pub fn traced(
    workload: &str,
    sizes: &Sizes,
    seed: u64,
    spans_path: &Path,
) -> Result<Layers, String> {
    let mut m = Layers::new();
    setup_only(workload, sizes, seed);
    let untraced = unit(workload, sizes, seed);
    let mut tr = Tracer::default();
    match workload {
        "stable-paper" => {
            let configs = stable_configs(sizes, seed);
            let rows = tr.span("workload", 0, |tr| build_and_walk(&configs, tr));
            for (row, config) in rows.iter().zip(&configs) {
                let fx = RuntimeFixture::build(config);
                check_world(&row.world, &fx.aware_table(), &fx.oblivious_table())?;
            }
            walk_layers(&rows, &tr, &mut m)?;
        }
        "runtime-faulted" => {
            traced_runtime(
                sizes,
                sizes.runtime_queries,
                sizes.runtime_latency_queries,
                seed,
                &mut tr,
                &mut m,
            )?;
        }
        other => return Err(format!("unknown workload {other}")),
    }
    let untraced_s = untraced.run_s;
    self_times(&tr, &mut m);
    let traced_total = m["traced_total_s"];
    m.insert("untraced_total_s".into(), untraced_s);
    let unit = std::slice::from_ref(&untraced);
    m.insert(
        "wall.lookups_per_s".into(),
        ratio(untraced.lookups as f64, untraced.routing_s),
    );
    m.insert("wall.lookup_p50_us".into(), fastest_group(unit, 0.5));
    m.insert("wall.lookup_p99_us".into(), fastest_group(unit, 0.99));
    m.insert(
        "tracing_overhead_pct".into(),
        ratio(traced_total - untraced_s, untraced_s) * 100.0,
    );
    m.insert("pool_threads".into(), peercache_par::threads() as f64);
    m.insert("lookups_traced".into(), untraced.lookups as f64);
    tr.write(spans_path)
        .map_err(|e| format!("write spans: {e}"))?;

    // Layers this workload does not exercise are measured at their own
    // reference points, so every workload reports every layer.
    let mut reference = Layers::new();
    if !m.contains_key("node.run_s") {
        let mut rt = Tracer::default();
        traced_runtime(
            sizes,
            sizes.reference_queries,
            0,
            seed,
            &mut rt,
            &mut reference,
        )?;
    }
    // No workload's unit runs the churn driver or the scale engine; their
    // layers are probed in every traced run.
    churn_probes(sizes, seed, &mut reference);
    if arena_probe(sizes, seed, &mut reference) > 0 {
        return Err("arena probe: a lookup produced no route".into());
    }
    for (k, v) in reference {
        m.entry(k).or_insert(v);
    }
    Ok(m)
}
