//! The sharded stable-mode engine: per-shard arenas over one node
//! population (§VI at scale).
//!
//! [`ShardedOverlay`] partitions the population into `S` contiguous
//! shards (the count is a pure function of the config via
//! [`shard_count_for`], never of the thread count). Each shard owns an
//! arena of **flat, fixed-stride auxiliary slabs** plus its nodes'
//! Space-Saving access counters, while cross-shard pointers resolve
//! through the flat global id → slot index every measurement pass
//! already shares. Two properties make the engine bit-identical to the
//! monolithic [`run_stable`](crate::stable::run_stable) driver at any
//! shard *and* thread count:
//!
//! 1. **Construction parity** — the build goes through
//!    `build_stable_retaining`, the exact RNG-stream path of the
//!    monolithic driver; sharding only re-homes the results.
//! 2. **Pure per-node selection** — a node's aware set is a pure
//!    function of `(node, weights, k)`, and the incremental optimizer
//!    updates ([`PastryOptimizer`]) are bit-identical to fresh solves,
//!    so refreshes driven by Space-Saving counter *deltas* cost
//!    `O(dirty · k · b)` per round instead of a full `O(n)` recompute
//!    while producing the same sets.
//!
//! Measurement passes stream per-node outcomes into fixed-size
//! [`HopAccumulator`]s, one per fixed-size query chunk, merged in chunk
//! order — no per-pass vector of outcomes is ever materialised.

use peercache_core::{CandidateScratch, PastryProblem};
use peercache_freq::{FrequencyEstimator, FrequencySnapshot, SpaceSaving};
use peercache_id::{Id, IdSpace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::{reduction_pct, HopAccumulator, QueryMetrics};
use crate::overlay::{OverlayKind, SelectScratch};
use crate::refresh::{PastryParams, RetainedPastry};
use crate::stable::{
    build_stable_retaining, SelectionAggregates, StableConfig, StableReport, StableSetup,
};

/// Queries per measurement task. Like the selection fan-out's
/// `SELECT_CHUNK`, chunking is by fixed size — never by thread count —
/// and every chunk's accumulator merges by order-independent integer
/// sums, so the merged metrics are bit-identical at any thread count.
pub(crate) const QUERY_CHUNK: usize = 4096;

/// The deterministic shard count for a population of `nodes`: one shard
/// per 8192 nodes, clamped to `[1, 64]`. A pure function of the config —
/// the thread count never feeds in — so two runs of the same config
/// shard identically regardless of the host.
pub fn shard_count_for(nodes: usize) -> usize {
    nodes.div_ceil(8192).clamp(1, 64)
}

/// The contiguous shard partition of the global slot space `0..n`
/// (delegating to [`peercache_par::shard_bounds`] so every consumer —
/// selection fan-outs, arenas, bench gauges — slices identically).
#[derive(Clone, Debug)]
pub struct ShardLayout {
    bounds: Vec<(usize, usize)>,
}

impl ShardLayout {
    /// Partition `len` slots into `shards` balanced contiguous ranges.
    pub fn new(len: usize, shards: usize) -> Self {
        ShardLayout {
            bounds: peercache_par::shard_bounds(len, shards),
        }
    }

    /// Number of shards (≥ 1; trailing shards may be empty).
    pub fn shards(&self) -> usize {
        self.bounds.len()
    }

    /// The `[start, end)` slot range of shard `s`.
    pub fn bounds(&self, s: usize) -> (usize, usize) {
        self.bounds[s]
    }

    /// The shard owning global slot `slot` (slots past the end map to
    /// the last shard; callers only pass in-range slots).
    pub fn shard_of(&self, slot: usize) -> usize {
        self.bounds
            .partition_point(|&(_, end)| end <= slot)
            .min(self.bounds.len() - 1)
    }
}

/// A flat fixed-stride auxiliary slab: shard-local slot `i`'s set lives
/// at `ids[i·stride .. i·stride + lens[i]]`. One allocation per shard
/// per strategy, reused across refreshes — refreshing a node's set
/// writes in place instead of reallocating a `Vec<Id>`.
pub(crate) struct AuxSlab {
    stride: usize,
    lens: Vec<usize>,
    ids: Vec<Id>,
}

impl AuxSlab {
    pub(crate) fn new(stride: usize, count: usize) -> Self {
        AuxSlab {
            stride,
            lens: vec![0; count],
            ids: vec![Id::new(0); stride * count],
        }
    }

    pub(crate) fn set(&mut self, local: usize, set: &[Id]) {
        debug_assert!(set.len() <= self.stride, "aux sets are bounded by k");
        let base = local * self.stride;
        self.ids[base..base + set.len()].copy_from_slice(set);
        self.lens[local] = set.len();
    }

    pub(crate) fn get(&self, local: usize) -> &[Id] {
        let base = local * self.stride;
        &self.ids[base..base + self.lens[local]]
    }
}

/// One shard's arena: slabs, counters, and retained incremental
/// optimizers. Each refresh task owns exactly one `ShardState` mutably
/// (via `par_map_mut`), so shards never contend.
struct ShardState {
    /// Global slot of this shard's local slot 0.
    start: usize,
    aware: AuxSlab,
    oblivious: AuxSlab,
    /// Per-node Space-Saving counters of observed accesses (by owner).
    counters: Vec<SpaceSaving>,
    /// Retained incremental solvers (Pastry/Tapestry kinds): optimizer,
    /// mirror pool, and selection scratch per node, built lazily on a
    /// node's first refresh, then updated in `O(k·b)` per delta.
    retained: Vec<RetainedPastry>,
    dirty: Vec<bool>,
    scratch: SelectScratch,
    /// Counter snapshot buffer (`snapshot_into` target).
    snap: FrequencySnapshot,
    /// Base pool weights + counter weights, rebuilt in place per node.
    combined: FrequencySnapshot,
    /// The node's core set (`core_neighbors_into` target).
    core: Vec<Id>,
    /// `combined` minus the node and its core set — the candidate pool
    /// handed to the retained solver.
    candidates: CandidateScratch,
    /// The retained solver's full-path problem.
    problem: PastryProblem,
}

/// Which strategy's slab a measurement pass resolves pointers from.
#[derive(Copy, Clone)]
enum Pass {
    CoreOnly,
    Aware,
    Oblivious,
}

/// The sharded counterpart of the monolithic stable driver: same
/// topology, same selections, same query stream — re-homed into
/// per-shard arenas so refreshes and measurement fan out per shard and
/// per chunk. See the module docs for the bit-identity argument.
pub struct ShardedOverlay {
    config: StableConfig,
    space: IdSpace,
    setup: StableSetup,
    aggregates: SelectionAggregates,
    layout: ShardLayout,
    shards: Vec<ShardState>,
}

impl ShardedOverlay {
    /// Build the sharded engine over `shards` arenas. Construction runs
    /// the monolithic build path verbatim, then scatters both
    /// strategies' selections into the per-shard slabs.
    pub fn build(config: &StableConfig, shards: usize) -> Self {
        let (setup, aggregates) = build_stable_retaining(config);
        // Total: the overlay carries the IdSpace the build validated —
        // no re-validation, no expect (L1 burn-down, was budget 10).
        let space = setup.overlay.space();
        let layout = ShardLayout::new(config.nodes, shards);
        let stride = config.k.max(1);
        let shards = (0..layout.shards())
            .map(|s| {
                let (start, end) = layout.bounds(s);
                let count = end - start;
                let mut aware = AuxSlab::new(stride, count);
                let mut oblivious = AuxSlab::new(stride, count);
                for local in 0..count {
                    aware.set(local, &setup.aware_sets[start + local]);
                    oblivious.set(local, &setup.oblivious_sets[start + local]);
                }
                ShardState {
                    start,
                    aware,
                    oblivious,
                    counters: vec![SpaceSaving::new(config.items.max(1)); count],
                    retained: (0..count).map(|_| RetainedPastry::default()).collect(),
                    dirty: vec![false; count],
                    scratch: SelectScratch::new(),
                    snap: FrequencySnapshot::default(),
                    combined: FrequencySnapshot::default(),
                    core: Vec::new(),
                    candidates: CandidateScratch::default(),
                    problem: PastryProblem::default(),
                }
            })
            .collect();
        ShardedOverlay {
            config: config.clone(),
            space,
            setup,
            aggregates,
            layout,
            shards,
        }
    }

    /// The shard partition in force.
    pub fn layout(&self) -> &ShardLayout {
        &self.layout
    }

    /// The node population in generation order (global slot order).
    pub fn node_ids(&self) -> &[Id] {
        &self.setup.node_ids
    }

    /// Global slot of `id` through the flat global index (the same
    /// sorted `(id, slot)` table the monolithic measurement passes
    /// binary-search), or `None` for an unknown id.
    fn global_slot(&self, id: Id) -> Option<usize> {
        self.setup
            .aux_index
            .binary_search_by_key(&id, |&(n, _)| n)
            .ok()
            .map(|pos| self.setup.aux_index[pos].1)
    }

    /// The current frequency-aware auxiliary set of `id` (empty for an
    /// unknown id).
    pub fn aware_set(&self, id: Id) -> &[Id] {
        self.aux_of(Pass::Aware, id)
    }

    /// Resolve `id`'s auxiliary set for a pass: flat global index →
    /// owning shard → slab slice. Cross-shard pointers cost one binary
    /// search plus one partition point — no per-node allocation, no
    /// shard-local state leaks across the boundary.
    fn aux_of(&self, pass: Pass, id: Id) -> &[Id] {
        const NO_AUX: &[Id] = &[];
        let Some(slot) = self.global_slot(id) else {
            return NO_AUX;
        };
        let shard = &self.shards[self.layout.shard_of(slot)];
        let local = slot - shard.start;
        match pass {
            Pass::CoreOnly => NO_AUX,
            Pass::Aware => shard.aware.get(local),
            Pass::Oblivious => shard.oblivious.get(local),
        }
    }

    /// Record one observed access: `origin` saw a lookup for a key owned
    /// by `owner`. Feeds the origin's Space-Saving counter and marks it
    /// dirty for the next [`refresh_dirty`](Self::refresh_dirty) round.
    /// Unknown origins are ignored (stable mode has no departures, so
    /// this arm never fires from the drivers).
    pub fn observe(&mut self, origin: Id, owner: Id) {
        let Some(slot) = self.global_slot(origin) else {
            return;
        };
        let shard = &mut self.shards[self.layout.shard_of(slot)];
        let local = slot - shard.start;
        shard.counters[local].observe(owner);
        shard.dirty[local] = true;
    }

    /// Refresh every dirty node's aware selection from its counter
    /// deltas, fanning out one task per shard. Returns the number of
    /// nodes refreshed. Each node's new set is the selection a fresh
    /// full solve over (base pool weights + counter snapshot) would
    /// produce — the incremental optimizer updates are bit-identical to
    /// fresh solves — so the result is independent of shard count,
    /// thread count, and refresh batching.
    pub fn refresh_dirty(&mut self) -> usize {
        let setup = &self.setup;
        let aggregates = &self.aggregates;
        let config = &self.config;
        let space = self.space;
        peercache_par::par_map_mut(&mut self.shards, |_, shard| {
            shard.refresh(setup, aggregates, config, space)
        })
        .into_iter()
        .sum()
    }

    /// Route the monolithic driver's exact query stream through the
    /// sharded arenas and report the three-pass comparison. Queries are
    /// pre-generated serially from the dedicated stream (each monolithic
    /// pass re-seeds it identically, so generating once yields the same
    /// sequence), then measured in fixed-size chunks of streaming
    /// accumulators merged in chunk order.
    pub fn report(&self) -> StableReport {
        let queries = self.pregenerate_queries();
        let core_only = self.measure(Pass::CoreOnly, &queries);
        let aware = self.measure(Pass::Aware, &queries);
        let oblivious = self.measure(Pass::Oblivious, &queries);
        let reduction = reduction_pct(aware.avg_hops(), oblivious.avg_hops());
        StableReport {
            aware,
            oblivious,
            core_only,
            reduction_pct: reduction,
        }
    }

    /// Draw the `(origin, item)` query sequence from the dedicated
    /// query stream — byte-for-byte the draws of a monolithic pass.
    fn pregenerate_queries(&self) -> Vec<(usize, usize)> {
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(2));
        (0..self.config.queries)
            .map(|_| {
                let origin = rng.gen_range(0..self.config.nodes);
                let item = self.setup.per_node_workloads[origin].sample_item(&mut rng);
                (origin, item)
            })
            .collect()
    }

    /// One measurement pass over pre-generated queries: fixed-size
    /// chunks, one streaming accumulator per chunk, merged in chunk
    /// order (all sums — order independent, so bit-identical to the
    /// serial loop).
    fn measure(&self, pass: Pass, queries: &[(usize, usize)]) -> QueryMetrics {
        let accs = peercache_par::par_map_chunked(queries, QUERY_CHUNK, |_, chunk| {
            let mut acc = HopAccumulator::new();
            for &(origin, item) in chunk {
                let outcome = self.setup.overlay.query_with_aux(
                    self.setup.node_ids[origin],
                    self.setup.catalog.key(item),
                    |id| self.aux_of(pass, id),
                );
                acc.record(outcome.success, outcome.hops, outcome.failed_probes);
            }
            vec![acc]
        });
        let mut total = HopAccumulator::new();
        for acc in &accs {
            total.merge(acc);
        }
        total.into_metrics()
    }
}

impl ShardState {
    /// Refresh this shard's dirty nodes. For Pastry/Tapestry kinds the
    /// retained [`PastryOptimizer`] absorbs the counter delta as
    /// `update_weight`/`insert`/`remove` calls — `O(k·b)` each — and
    /// re-selects; other kinds (and every node's first refresh) take
    /// the full-solve path, which yields the identical selection.
    fn refresh(
        &mut self,
        setup: &StableSetup,
        aggregates: &SelectionAggregates,
        config: &StableConfig,
        space: IdSpace,
    ) -> usize {
        let kind = setup.overlay.kind();
        let mut refreshed = 0;
        for local in 0..self.dirty.len() {
            if !self.dirty[local] {
                continue;
            }
            self.dirty[local] = false;
            refreshed += 1;
            let slot = self.start + local;
            let node = setup.node_ids[slot];
            // Exact base popularities plus the live counter snapshot;
            // the refill sums duplicate owners (at most two entries per
            // peer: base + counter, so bit-identical to `from_pairs`),
            // and a counted owner's weight rises above its base instead
            // of replacing it. All buffers are shard-local and recycled,
            // so a steady-state refresh tick allocates nothing.
            let base = &aggregates.pool_weights[aggregates.assignment.pool_index(slot)];
            self.counters[local].snapshot_into(&mut self.snap);
            self.combined
                .refill_from_pairs(base.iter().chain(self.snap.iter()));
            match kind {
                OverlayKind::Pastry { digit_bits, .. } | OverlayKind::Tapestry { digit_bits } => {
                    setup.overlay.core_neighbors_into(node, &mut self.core);
                    let candidates = self.candidates.fill(&self.combined, node, &self.core);
                    let params = PastryParams {
                        node,
                        digit_bits,
                        k: config.k,
                        space,
                    };
                    // Stable mode never changes a node's core set: the
                    // core of the last refresh is this one.
                    let core = &self.core;
                    let aux = self.retained[local]
                        .refresh(core, core, candidates, &mut self.problem, &params)
                        .expect("stable problems are well-formed");
                    self.aware.set(local, aux);
                }
                OverlayKind::Chord | OverlayKind::SkipGraph => {
                    let aux = setup
                        .overlay
                        .select_aware_into(node, &self.combined, config.k, &mut self.scratch)
                        .expect("stable problems are well-formed")
                        .aux;
                    self.aware.set(local, &aux);
                }
            }
        }
        refreshed
    }
}

/// [`run_stable`](crate::stable::run_stable) through the sharded engine:
/// identical topology, selections, and query stream, measured through
/// per-shard arenas and streaming accumulators. Byte-identical to the
/// monolithic report at any shard and thread count (the sharded
/// equivalence tests enforce it).
///
/// # Panics
/// Panics on nonsensical configurations, like the monolithic driver.
pub fn run_stable_sharded(config: &StableConfig, shards: usize) -> StableReport {
    ShardedOverlay::build(config, shards).report()
}
