//! A thin bridge unifying the Chord and Pastry substrates for the
//! experiment drivers, including the per-overlay dispatch of the
//! frequency-aware and frequency-oblivious selection algorithms.

use peercache_chord::{ChordConfig, ChordNetwork};
use peercache_core::baseline::SliceBuckets;
use peercache_core::{chord, cost, pastry, Candidate, ChordProblem, PastryProblem};
use peercache_core::{CandidateScratch, SelectError, Selection};
use peercache_faults::{FaultPlan, FaultedRoute, LookupFailure, RouteTrace, StepScratch, WalkStep};
use peercache_freq::FrequencySnapshot;
use peercache_id::{Id, IdError, IdSpace};
use peercache_pastry::{PastryConfig, PastryNetwork, RoutingMode};
use peercache_skipgraph::{SkipGraphConfig, SkipGraphNetwork};
use peercache_tapestry::{TapestryConfig, TapestryNetwork};
use rand::Rng;

/// Which overlay an experiment runs on.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum OverlayKind {
    /// The Chord ring (paper §V / Figures 5–6).
    Chord,
    /// The Pastry overlay (paper §IV / Figures 3–4).
    Pastry {
        /// Digit width in bits.
        digit_bits: u8,
        /// Next-hop tie-breaking (locality-aware reproduces FreePastry).
        mode: RoutingMode,
    },
    /// The Tapestry overlay (§I: the Pastry technique transfers).
    Tapestry {
        /// Digit width in bits.
        digit_bits: u8,
    },
    /// The skip-graph overlay (§I: the Chord technique transfers, via
    /// rank space).
    SkipGraph,
}

/// The outcome of one routed query, overlay-agnostic.
#[derive(Copy, Clone, Debug)]
pub struct QueryOutcome {
    /// Reached the true owner?
    pub success: bool,
    /// Successful forwards taken.
    pub hops: u32,
    /// Dead-neighbor probes (timeouts).
    pub failed_probes: u32,
}

impl QueryOutcome {
    /// The overlay-agnostic summary of a walk; timeouts are the failed
    /// probes.
    fn of(route: &FaultedRoute) -> Self {
        QueryOutcome {
            success: route.is_success(),
            hops: route.trace.hops,
            failed_probes: route.trace.timeouts,
        }
    }
}

/// Reusable per-thread selection scratch: the core buffer, the candidate
/// builder, one retained problem and one solver workspace per family (the fast Chord DP and the
/// greedy Pastry trie), so a sweep over many nodes refills the same
/// buffers, DP tables and trie storage instead of reallocating them per
/// solve. One scratch per worker thread — the workspaces are not shared.
#[derive(Default)]
pub struct SelectScratch {
    core: Vec<Id>,
    candidates: CandidateScratch,
    chord_problem: ChordProblem,
    pastry_problem: PastryProblem,
    chord: chord::ChordWorkspace,
    pastry: pastry::PastryWorkspace,
}

impl SelectScratch {
    /// An empty scratch; buffers grow to fit on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Reusable state for a frequency-oblivious selection sweep: the sorted
/// live ring, read once, plus the core buffer, the retained problems that
/// validate each core, the draw buckets and the neighbor buffer every
/// node's selection reuses. The ring must be the overlay's current live
/// ring — re-read it with [`refresh`](Self::refresh) after any membership
/// change.
#[derive(Default)]
pub(crate) struct ObliviousPool {
    ring: Vec<Id>,
    core: Vec<Id>,
    chord_problem: ChordProblem,
    pastry_problem: PastryProblem,
    buckets: SliceBuckets,
    neighbors: Vec<Id>,
}

impl ObliviousPool {
    /// A pool over `overlay`'s live ring.
    pub(crate) fn new(overlay: &SimOverlay) -> Self {
        ObliviousPool {
            ring: overlay.live_ids(),
            ..Self::default()
        }
    }

    /// Re-read the live ring of `overlay`.
    pub(crate) fn refresh(&mut self, overlay: &SimOverlay) {
        self.ring = overlay.live_ids();
    }
}

/// A live overlay instance of any supported kind.
///
/// Cloning duplicates the entire substrate (routing tables included). The
/// stable driver no longer needs that: its three measurement passes route
/// read-only over **one** shared snapshot via
/// [`query_with_aux`](Self::query_with_aux), resolving auxiliary sets from
/// side tables instead of installing them per copy.
#[derive(Clone)]
pub enum SimOverlay {
    /// A Chord ring.
    Chord(ChordNetwork),
    /// A Pastry overlay.
    Pastry(PastryNetwork),
    /// A Tapestry overlay.
    Tapestry(TapestryNetwork),
    /// A skip graph.
    SkipGraph(SkipGraphNetwork),
}

impl SimOverlay {
    /// Build a stable overlay over `ids`.
    pub fn build<R: Rng + ?Sized>(
        kind: OverlayKind,
        space: IdSpace,
        ids: &[Id],
        rng: &mut R,
    ) -> Self {
        match kind {
            OverlayKind::Chord => {
                SimOverlay::Chord(ChordNetwork::build(ChordConfig::new(space), ids))
            }
            OverlayKind::Pastry { digit_bits, mode } => SimOverlay::Pastry(PastryNetwork::build(
                PastryConfig::new(space, digit_bits).with_mode(mode),
                ids,
                rng,
            )),
            OverlayKind::Tapestry { digit_bits } => SimOverlay::Tapestry(TapestryNetwork::build(
                TapestryConfig::new(space, digit_bits),
                ids,
            )),
            OverlayKind::SkipGraph => {
                SimOverlay::SkipGraph(SkipGraphNetwork::build(SkipGraphConfig::new(space), ids))
            }
        }
    }

    /// The overlay kind.
    pub fn kind(&self) -> OverlayKind {
        match self {
            SimOverlay::Chord(_) => OverlayKind::Chord,
            SimOverlay::Pastry(net) => OverlayKind::Pastry {
                digit_bits: net.config().digit_bits,
                mode: net.config().mode,
            },
            SimOverlay::Tapestry(net) => OverlayKind::Tapestry {
                digit_bits: net.config().digit_bits,
            },
            SimOverlay::SkipGraph(_) => OverlayKind::SkipGraph,
        }
    }

    /// Live node ids in ring order.
    pub fn live_ids(&self) -> Vec<Id> {
        match self {
            SimOverlay::Chord(net) => net.live_ids(),
            SimOverlay::Pastry(net) => net.live_ids(),
            SimOverlay::Tapestry(net) => net.live_ids(),
            SimOverlay::SkipGraph(net) => net.live_ids(),
        }
    }

    /// Whether `id` is live.
    pub fn is_live(&self, id: Id) -> bool {
        match self {
            SimOverlay::Chord(net) => net.is_live(id),
            SimOverlay::Pastry(net) => net.is_live(id),
            SimOverlay::Tapestry(net) => net.is_live(id),
            SimOverlay::SkipGraph(net) => net.is_live(id),
        }
    }

    /// The node owning `key` under the overlay's assignment rule.
    pub fn true_owner(&self, key: Id) -> Option<Id> {
        match self {
            SimOverlay::Chord(net) => net.true_owner(key),
            SimOverlay::Pastry(net) => net.true_owner(key),
            SimOverlay::Tapestry(net) => net.true_owner(key),
            SimOverlay::SkipGraph(net) => net.true_owner(key),
        }
    }

    /// The core neighbor set `N_s` of `node`.
    pub fn core_neighbors(&self, node: Id) -> Vec<Id> {
        let mut out = Vec::new();
        self.core_neighbors_into(node, &mut out);
        out
    }

    /// [`core_neighbors`](Self::core_neighbors) into a caller-owned
    /// buffer — the arena-facing walk API. Sharded sweeps call this once
    /// per node with one scratch buffer per shard, so building selection
    /// inputs for a whole arena allocates nothing per node. An unknown
    /// `node` leaves `out` cleared. Every substrate yields the core
    /// ascending, without repeats and without `node` — the slice
    /// [`CandidateScratch::fill`] cuts the candidates against.
    pub fn core_neighbors_into(&self, node: Id, out: &mut Vec<Id>) {
        out.clear();
        match self {
            SimOverlay::Chord(net) => {
                if let Some(n) = net.node(node) {
                    n.core_neighbors_into(out);
                }
            }
            SimOverlay::Pastry(net) => {
                if let Some(n) = net.node(node) {
                    n.core_neighbors_into(out);
                }
            }
            SimOverlay::Tapestry(net) => {
                if let Some(n) = net.node(node) {
                    n.core_neighbors_into(out);
                }
            }
            SimOverlay::SkipGraph(net) => {
                if let Some(n) = net.node(node) {
                    n.core_neighbors_into(out);
                }
            }
        }
    }

    /// Install the auxiliary set for `node` (no-op error if it died).
    pub fn set_aux(&mut self, node: Id, aux: Vec<Id>) -> bool {
        match self {
            SimOverlay::Chord(net) => net.set_aux(node, aux).is_ok(),
            SimOverlay::Pastry(net) => net.set_aux(node, aux).is_ok(),
            SimOverlay::Tapestry(net) => net.set_aux(node, aux).is_ok(),
            SimOverlay::SkipGraph(net) => net.set_aux(node, aux).is_ok(),
        }
    }

    /// [`set_aux`](Self::set_aux) from a borrowed slice, recycling the
    /// node's installed buffer — the refresh engine re-installs a
    /// retained selection every recompute tick, and at warmed capacity
    /// this installs without allocating. Same live-entry filter, same
    /// result.
    pub fn set_aux_from_slice(&mut self, node: Id, aux: &[Id]) -> bool {
        match self {
            SimOverlay::Chord(net) => net.set_aux_from_slice(node, aux).is_ok(),
            SimOverlay::Pastry(net) => net.set_aux_from_slice(node, aux).is_ok(),
            SimOverlay::Tapestry(net) => net.set_aux_from_slice(node, aux).is_ok(),
            SimOverlay::SkipGraph(net) => net.set_aux_from_slice(node, aux).is_ok(),
        }
    }

    /// Route one query from `from` for `key`.
    pub fn query(&mut self, from: Id, key: Id) -> QueryOutcome {
        self.query_with_path(from, key).0
    }

    /// Route one query, also returning the nodes it visited (used by the
    /// churn driver: every node that *sees* a query — origin or forwarder
    /// — learns the access, §III).
    ///
    /// The repairing walk: [`query_faulted`](Self::query_faulted) under a
    /// transparent plan, then every timed-out entry is evicted from its
    /// prober's tables through [`forget_entry`](Self::forget_entry).
    ///
    /// Total: a dead origin yields a failed outcome with an empty path.
    /// Drivers only issue queries from live origins, so that arm is never
    /// taken in practice.
    pub fn query_with_path(&mut self, from: Id, key: Id) -> (QueryOutcome, Vec<Id>) {
        let route = self.query_faulted(from, key, &FaultPlan::transparent(0));
        for &(prober, dead) in &route.trace.dead_probed {
            self.forget_entry(prober, dead);
        }
        let outcome = QueryOutcome::of(&route);
        match route.outcome {
            Err(LookupFailure::OriginDown(_)) => (outcome, Vec::new()),
            _ => (outcome, route.trace.path),
        }
    }

    /// Route one query **read-only**, resolving each node's auxiliary set
    /// through `aux_of` instead of the installed per-node state. This is
    /// the stable driver's hot path: all measurement passes share one
    /// immutable snapshot (no clone, no `set_aux`), so they can run on
    /// parallel threads over `&self`. It is
    /// [`query_with_aux_faults`](Self::query_with_aux_faults) under a
    /// transparent plan: dead entries probed along the way are counted
    /// and skipped but not repaired, and with every node live the walk is
    /// identical to `set_aux` + [`query`](Self::query).
    ///
    /// Total like [`query_with_path`](Self::query_with_path): a dead
    /// origin yields a failed outcome.
    pub fn query_with_aux<'a, F>(&'a self, from: Id, key: Id, aux_of: F) -> QueryOutcome
    where
        F: Fn(Id) -> &'a [Id],
    {
        QueryOutcome::of(&self.query_with_aux_faults(from, key, aux_of, &FaultPlan::transparent(0)))
    }

    /// Route one query **read-only** through the fault layer: every
    /// contact goes through `plan`'s probe channel and each node's
    /// auxiliary pointers are resolved via `aux_of` and `plan`'s
    /// staleness channel. With a transparent plan this is
    /// [`query_with_aux`](Self::query_with_aux); with faults the walk
    /// degrades per the substrate's retry/fallback semantics and reports
    /// a full [`RouteTrace`](peercache_faults::RouteTrace).
    ///
    /// Total: a substrate-dead or plan-crashed origin yields
    /// [`LookupFailure::OriginDown`](peercache_faults::LookupFailure::OriginDown).
    pub fn query_with_aux_faults<'a, F>(
        &'a self,
        from: Id,
        key: Id,
        aux_of: F,
        plan: &FaultPlan,
    ) -> FaultedRoute
    where
        F: Fn(Id) -> &'a [Id],
    {
        let routed = match self {
            SimOverlay::Chord(net) => net.lookup_with_aux_faults(from, key, aux_of, plan).ok(),
            SimOverlay::Pastry(net) => net.route_with_aux_faults(from, key, aux_of, plan).ok(),
            SimOverlay::Tapestry(net) => net.route_with_aux_faults(from, key, aux_of, plan).ok(),
            SimOverlay::SkipGraph(net) => net.search_with_aux_faults(from, key, aux_of, plan).ok(),
        };
        routed.unwrap_or_else(|| FaultedRoute::origin_down(from))
    }

    /// One arrival of [`query_with_aux_faults`](Self::query_with_aux_faults):
    /// the decision the substrate makes at `current` for `key`, through
    /// the same per-hop step functions every walk drives. The
    /// `peercache-node` event loop delivers one arrival per `Lookup`
    /// message; because every fault decision in `plan` is a pure hash,
    /// the resulting probe sequence — and trace — is bit-identical to
    /// the monolithic walk's.
    ///
    /// The caller owns the origin checks (substrate-dead or plan-crashed
    /// origin → `OriginDown`) and the hop accounting on
    /// [`WalkStep::Forward`] (`trace.hops += 1`, `trace.path.push`).
    /// `true_owner` is [`true_owner`](Self::true_owner) computed once per
    /// walk.
    #[allow(clippy::too_many_arguments)]
    pub fn query_step_faults<'a, F>(
        &'a self,
        current: Id,
        key: Id,
        true_owner: Id,
        aux_of: F,
        plan: &FaultPlan,
        trace: &mut RouteTrace,
        scratch: &mut StepScratch,
    ) -> WalkStep
    where
        F: Fn(Id) -> &'a [Id],
    {
        match self {
            SimOverlay::Chord(net) => {
                net.lookup_step_faults(current, key, true_owner, aux_of, plan, trace, scratch)
            }
            SimOverlay::Pastry(net) => {
                net.route_step_faults(current, key, true_owner, aux_of, plan, trace, scratch)
            }
            SimOverlay::Tapestry(net) => {
                net.route_step_faults(current, key, true_owner, aux_of, plan, trace, scratch)
            }
            SimOverlay::SkipGraph(net) => {
                net.search_step_faults(current, key, true_owner, aux_of, plan, trace, scratch)
            }
        }
    }

    /// [`query_with_aux_faults`](Self::query_with_aux_faults) over the
    /// **installed** per-node auxiliary sets — the churn driver's route
    /// path, where `set_aux` state is live and there is no side table.
    pub fn query_faulted(&self, from: Id, key: Id, plan: &FaultPlan) -> FaultedRoute {
        match self {
            SimOverlay::Chord(net) => self.query_with_aux_faults(
                from,
                key,
                |id| net.node(id).map_or(&[] as &[Id], |n| n.aux.as_slice()),
                plan,
            ),
            SimOverlay::Pastry(net) => self.query_with_aux_faults(
                from,
                key,
                |id| net.node(id).map_or(&[] as &[Id], |n| n.aux.as_slice()),
                plan,
            ),
            SimOverlay::Tapestry(net) => self.query_with_aux_faults(
                from,
                key,
                |id| net.node(id).map_or(&[] as &[Id], |n| n.aux.as_slice()),
                plan,
            ),
            SimOverlay::SkipGraph(net) => self.query_with_aux_faults(
                from,
                key,
                |id| net.node(id).map_or(&[] as &[Id], |n| n.aux.as_slice()),
                plan,
            ),
        }
    }

    /// Evict `dead` from `node`'s routing structures — how a driver
    /// applies a fault walk's `dead_probed` pairs (the read-only stand-in
    /// for the mutating walks' in-route `forget`).
    pub fn forget_entry(&mut self, node: Id, dead: Id) {
        match self {
            SimOverlay::Chord(net) => net.forget_neighbor(node, dead),
            SimOverlay::Pastry(net) => net.forget_neighbor(node, dead),
            SimOverlay::Tapestry(net) => net.forget_neighbor(node, dead),
            SimOverlay::SkipGraph(net) => net.forget_neighbor(node, dead),
        }
    }

    /// The validated identifier space the overlay was built over —
    /// total: every constructed network carries one, so callers holding
    /// an overlay never need to re-validate a bit width.
    pub(crate) fn space(&self) -> IdSpace {
        match self {
            SimOverlay::Chord(net) => net.config().space,
            SimOverlay::Pastry(net) => net.config().space,
            SimOverlay::Tapestry(net) => net.config().space,
            SimOverlay::SkipGraph(net) => net.config().space,
        }
    }

    /// Run the paper's optimal selection for `node` over the observed
    /// `frequencies` (entries for the node itself or its core neighbors
    /// are filtered out automatically).
    ///
    /// One-shot wrapper over [`select_aware_into`](Self::select_aware_into)
    /// with a throwaway scratch.
    ///
    /// # Errors
    /// Propagates [`SelectError`] from the solver (malformed inputs; QoS
    /// is not used by the experiment drivers).
    pub fn select_aware(
        &self,
        node: Id,
        frequencies: &FrequencySnapshot,
        k: usize,
    ) -> Result<Selection, SelectError> {
        let mut scratch = SelectScratch::new();
        self.select_aware_into(node, frequencies, k, &mut scratch)
    }

    /// [`select_aware`](Self::select_aware) through a reusable
    /// [`SelectScratch`]: the node's core and its [`CandidateScratch`] cut
    /// refill a retained problem, and the solver DP tables, trie storage
    /// and scratch buffers are reused across calls, so at warmed capacity
    /// a solve allocates only the problem's validation sets and the
    /// returned `Selection` (the SkipGraph arm also copies the live ring).
    ///
    /// # Errors
    /// Propagates [`SelectError`] from the solver.
    pub fn select_aware_into(
        &self,
        node: Id,
        frequencies: &FrequencySnapshot,
        k: usize,
        scratch: &mut SelectScratch,
    ) -> Result<Selection, SelectError> {
        let SelectScratch {
            core,
            candidates,
            chord_problem,
            pastry_problem,
            chord,
            pastry,
        } = scratch;
        self.core_neighbors_into(node, core);
        let candidates = candidates.fill(frequencies, node, core);
        match self.kind() {
            OverlayKind::Chord => {
                chord_problem.refill(self.space(), node, core, candidates, k)?;
                Ok(chord.solve_into(chord_problem)?.clone())
            }
            OverlayKind::Pastry { digit_bits, .. } | OverlayKind::Tapestry { digit_bits } => {
                pastry_problem.refill(self.space(), digit_bits, node, core, candidates, k)?;
                Ok(pastry.solve_into(pastry_problem)?.clone())
            }
            OverlayKind::SkipGraph => {
                // §I transfer: run the Chord optimiser in rank space, each
                // live peer at its rank offset from `node` on the sorted
                // ring. A peer the ring lacks is not live and drops out.
                let ring = self.live_ids();
                let n = ring.len();
                // At most usize::BITS + 1 = 65, well within u8.
                #[allow(clippy::cast_possible_truncation)]
                let rank_bits = (usize::BITS - n.leading_zeros() + 1) as u8;
                let rank_space = IdSpace::new(rank_bits).map_err(|e| {
                    SelectError::InvalidProblem(format!("rank space of {rank_bits} bits: {e}"))
                })?;
                let my_rank = ring.binary_search(&node).map_err(|_| {
                    SelectError::InvalidProblem(format!("selecting node {node} is not live"))
                })?;
                let rank_of = |w: Id| {
                    let r = ring.binary_search(&w).ok()?;
                    Some(Id::new(((r + n - my_rank) % n) as u128))
                };
                let rank_candidate = |c: &Candidate| rank_of(c.id).map(|id| Candidate { id, ..*c });
                chord_problem.refill(
                    rank_space,
                    Id::new(0),
                    core.iter().filter_map(|&c| rank_of(c)),
                    candidates.iter().filter_map(rank_candidate),
                    k,
                )?;
                let sel = chord.solve_into(chord_problem)?;
                let aux = sel
                    .aux
                    .iter()
                    .map(|r| ring[(my_rank + r.value() as usize) % n])
                    .collect();
                Ok(Selection {
                    aux,
                    cost: sel.cost,
                })
            }
        }
    }

    /// Frequency-oblivious selection over the *whole live ring* (minus
    /// self and core): the paper's baseline picks random nodes per
    /// distance slice from the overlay, with no reference to who was
    /// queried (§VI-A). This is the churn-mode baseline; in stable mode
    /// the observed pool already equals the whole ring.
    ///
    /// One-node wrapper over the pooled sweep path: it reads the live
    /// ring once for this call. Sweeps over many nodes hold one
    /// [`ObliviousPool`] instead.
    ///
    /// # Errors
    /// [`SelectError::InvalidProblem`] when `node`'s core would not form
    /// a valid selection problem (an id outside the space, a duplicate,
    /// the node itself, or an invalid digit width).
    pub fn select_oblivious_uniform<R: Rng + ?Sized>(
        &self,
        node: Id,
        k: usize,
        rng: &mut R,
    ) -> Result<Selection, SelectError> {
        let mut pool = ObliviousPool::new(self);
        self.select_oblivious_pooled(&mut pool, node, k, rng)
    }

    /// [`select_oblivious_uniform`](Self::select_oblivious_uniform) over a
    /// pool whose ring is this overlay's current live ring.
    ///
    /// The candidates are the ring minus `node` and its core, read by
    /// ranges: each distance slice — a clockwise arc `[2^(i−1), 2^i)` for
    /// Chord and skip graphs, a prefix block minus the next for Pastry
    /// and Tapestry — is one or two ring ranges found by binary search
    /// and copied into the [`SliceBuckets`] draw kernel. The cost is
    /// counted by the ring evaluators of [`peercache_core::cost`], per
    /// neighbor arc or prefix block. The buckets hold the candidates in
    /// ascending id order per slice and the counted cost is exact, so aux
    /// sets, RNG consumption and cost bits equal those of
    /// `baseline::{chord,pastry}_oblivious` on the uniform whole-ring
    /// problem.
    pub(crate) fn select_oblivious_pooled<R: Rng + ?Sized>(
        &self,
        pool: &mut ObliviousPool,
        node: Id,
        k: usize,
        rng: &mut R,
    ) -> Result<Selection, SelectError> {
        let space = self.space();
        self.core_neighbors_into(node, &mut pool.core);
        let core = &pool.core;
        // Validate the ascending core exactly as the selection problems
        // do; the candidates, live ring ids minus self and core, are
        // valid by construction.
        let none = std::iter::empty::<Candidate>;
        let digit_bits = match self.kind() {
            OverlayKind::Chord | OverlayKind::SkipGraph => {
                pool.chord_problem.refill(space, node, core, none(), k)?;
                None
            }
            OverlayKind::Pastry { digit_bits, .. } | OverlayKind::Tapestry { digit_bits } => {
                let problem = &mut pool.pastry_problem;
                problem.refill(space, digit_bits, node, core, none(), k)?;
                Some(digit_bits)
            }
        };
        let invalid = |e: IdError| SelectError::InvalidProblem(e.to_string());

        let buckets = &mut pool.buckets;
        match digit_bits {
            None => buckets.fill_chord_slices(space, &pool.ring, node, core),
            Some(d) => buckets
                .fill_prefix_slices(space, d, &pool.ring, node, core)
                .map_err(invalid)?,
        }
        let aux = buckets.draw(k, rng);

        pool.neighbors.clear();
        pool.neighbors.extend_from_slice(core);
        pool.neighbors.extend_from_slice(&aux);
        let cost = match digit_bits {
            None => {
                pool.neighbors
                    .sort_unstable_by_key(|&w| space.clockwise_distance(node, w));
                cost::chord_cost_counted(space, node, &pool.ring, core, &pool.neighbors)
            }
            Some(d) => {
                pool.neighbors.sort_unstable();
                cost::pastry_cost_counted(space, d, node, &pool.ring, core, &pool.neighbors)
                    .map_err(invalid)?
            }
        };
        Ok(Selection { aux, cost })
    }

    // ---- churn operations (Chord experiments) ---------------------------

    /// Node crash. Returns false if it was not live.
    pub fn fail(&mut self, id: Id) -> bool {
        match self {
            SimOverlay::Chord(net) => net.fail(id).is_ok(),
            SimOverlay::Pastry(net) => net.fail(id).is_ok(),
            SimOverlay::Tapestry(net) => net.fail(id).is_ok(),
            SimOverlay::SkipGraph(net) => net.fail(id).is_ok(),
        }
    }

    /// Node (re-)join. Returns false on duplicates.
    ///
    /// L12 proof: only the Pastry arm draws (two join coordinates), but
    /// the matched variant is fixed for the overlay's lifetime — one
    /// `SimOverlay` is one substrate — so every call takes the same arm
    /// and the RNG stream cannot diverge between replays of the same
    /// configuration. Budgeted in lint.allow.
    pub fn join<R: Rng + ?Sized>(&mut self, id: Id, rng: &mut R) -> bool {
        match self {
            SimOverlay::Chord(net) => net.join(id).is_ok(),
            SimOverlay::Pastry(net) => net.join(id, (rng.gen(), rng.gen())).is_ok(),
            SimOverlay::Tapestry(net) => net.join(id).is_ok(),
            SimOverlay::SkipGraph(net) => net.join(id).is_ok(),
        }
    }

    /// One stabilization round for `id`. Returns false if not live.
    pub fn stabilize(&mut self, id: Id) -> bool {
        match self {
            SimOverlay::Chord(net) => net.stabilize(id).is_ok(),
            SimOverlay::Pastry(net) => {
                if net.is_live(id) {
                    net.refresh_from_truth(id);
                    true
                } else {
                    false
                }
            }
            SimOverlay::Tapestry(net) => {
                if net.is_live(id) {
                    net.refresh_from_truth(id);
                    true
                } else {
                    false
                }
            }
            SimOverlay::SkipGraph(net) => net.refresh_node(id).is_ok(),
        }
    }
}
