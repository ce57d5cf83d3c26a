use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use peercache_faults::{
    walk, FaultPlan, FaultedRoute, LookupFailure, RouteTrace, StepScratch, WalkStep,
};
use peercache_id::{Id, IdSpace};

use crate::{RouteOutcome, RouteResult};

/// Configuration of a Tapestry deployment.
#[derive(Copy, Clone, Debug)]
pub struct TapestryConfig {
    /// The identifier space.
    pub space: IdSpace,
    /// Digit width in bits.
    pub digit_bits: u8,
    /// Defensive per-route hop budget.
    pub hop_limit: u32,
}

impl TapestryConfig {
    /// A configuration over `space` with digit width `d` and a
    /// `4·⌈b/d⌉` hop budget.
    pub fn new(space: IdSpace, digit_bits: u8) -> Self {
        let digits = u32::from(
            space
                .digit_count(digit_bits)
                .expect("digit width must fit the id space"),
        );
        TapestryConfig {
            space,
            digit_bits,
            hop_limit: 4 * digits,
        }
    }
}

/// Errors from membership operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetworkError {
    /// The node id is already live.
    AlreadyPresent(Id),
    /// The node id is not live.
    NotPresent(Id),
    /// The id does not fit the configured id space.
    OutOfSpace(Id),
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::AlreadyPresent(id) => write!(f, "node {id} already in the overlay"),
            NetworkError::NotPresent(id) => write!(f, "node {id} not in the overlay"),
            NetworkError::OutOfSpace(id) => write!(f, "node {id} outside the id space"),
        }
    }
}

impl Error for NetworkError {}

/// One Tapestry node: a digit-indexed routing table (no leaf set) plus
/// auxiliary neighbors.
#[derive(Clone, Debug)]
pub struct TapestryNode {
    /// This node's identifier.
    pub id: Id,
    /// `rows[l][c]`: a node sharing exactly `l` leading digits whose
    /// digit `l` is `c`. The own-digit column is structurally empty.
    pub rows: Vec<Vec<Option<Id>>>,
    /// Auxiliary neighbors installed by the selection algorithm.
    pub aux: Vec<Id>,
}

impl TapestryNode {
    fn new(id: Id, digit_count: u8, arity: usize) -> Self {
        TapestryNode {
            id,
            rows: vec![vec![None; arity]; digit_count as usize],
            aux: Vec::new(),
        }
    }

    /// All distinct known nodes (table + auxiliaries, self excluded).
    pub fn known_neighbors(&self) -> Vec<Id> {
        self.known_neighbors_with(&self.aux)
    }

    /// [`known_neighbors`](Self::known_neighbors) with `extra` standing in
    /// for the installed auxiliary set, so read-only routing can resolve
    /// auxiliary pointers from a shared side table over one immutable
    /// snapshot.
    pub fn known_neighbors_with(&self, extra: &[Id]) -> Vec<Id> {
        let mut out: Vec<Id> = self
            .rows
            .iter()
            .flatten()
            .flatten()
            .copied()
            .chain(extra.iter().copied())
            .filter(|&n| n != self.id)
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// The core neighbors (routing table only) — the `N_s` for selection.
    pub fn core_neighbors(&self) -> Vec<Id> {
        let mut out = Vec::new();
        self.core_neighbors_into(&mut out);
        out
    }

    /// [`core_neighbors`](Self::core_neighbors) into a caller-owned
    /// buffer — the arena-facing walk API: a sweep over many nodes reuses
    /// one buffer instead of allocating a fresh vector per node.
    /// Ascending, repeat-free, self excluded: `CandidateScratch` relies on it.
    pub fn core_neighbors_into(&self, out: &mut Vec<Id>) {
        out.clear();
        out.extend(
            self.rows
                .iter()
                .flatten()
                .flatten()
                .copied()
                .filter(|&n| n != self.id),
        );
        out.sort_unstable();
        out.dedup();
    }

    /// Drop a discovered-dead neighbor.
    pub fn forget(&mut self, dead: Id) {
        for row in &mut self.rows {
            for cell in row.iter_mut() {
                if *cell == Some(dead) {
                    *cell = None;
                }
            }
        }
        self.aux.retain(|&a| a != dead);
    }
}

/// The whole simulated Tapestry overlay.
///
/// ```
/// use peercache_id::{Id, IdSpace};
/// use peercache_tapestry::{TapestryConfig, TapestryNetwork};
///
/// let space = IdSpace::new(4).unwrap();
/// let ids: Vec<Id> = [0b0000u128, 0b0110, 0b1011].map(Id::new).to_vec();
/// let mut net = TapestryNetwork::build(TapestryConfig::new(space, 1), &ids);
/// // A key's owner is its surrogate root — the deepest prefix match.
/// assert_eq!(net.true_owner(Id::new(0b1010)), Some(Id::new(0b1011)));
/// let res = net.route(Id::new(0b0000), Id::new(0b1010)).unwrap();
/// assert!(res.is_success());
/// ```
#[derive(Clone)]
pub struct TapestryNetwork {
    config: TapestryConfig,
    digit_count: u8,
    arity: usize,
    nodes: BTreeMap<u128, TapestryNode>,
}

impl TapestryNetwork {
    /// An empty overlay.
    pub fn new(config: TapestryConfig) -> Self {
        let digit_count = config
            .space
            .digit_count(config.digit_bits)
            .expect("validated by TapestryConfig");
        TapestryNetwork {
            config,
            digit_count,
            arity: 1usize << config.digit_bits,
            nodes: BTreeMap::new(),
        }
    }

    /// Bootstrap a stable overlay with perfect routing state.
    ///
    /// # Panics
    /// Panics on duplicate or out-of-space ids.
    pub fn build(config: TapestryConfig, ids: &[Id]) -> Self {
        let mut net = TapestryNetwork::new(config);
        for &id in ids {
            assert!(config.space.contains(id), "node id {id} outside id space");
            let node = TapestryNode::new(id, net.digit_count, net.arity);
            assert!(
                net.nodes.insert(id.value(), node).is_none(),
                "duplicate node id {id}"
            );
        }
        for &id in ids {
            net.refresh_from_truth(id);
        }
        net
    }

    /// The configuration.
    pub fn config(&self) -> &TapestryConfig {
        &self.config
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the overlay has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `id` is live.
    pub fn is_live(&self, id: Id) -> bool {
        self.nodes.contains_key(&id.value())
    }

    /// All live node ids in order.
    pub fn live_ids(&self) -> Vec<Id> {
        self.nodes.keys().map(|&k| Id::new(k)).collect()
    }

    /// Immutable view of a node.
    pub fn node(&self, id: Id) -> Option<&TapestryNode> {
        self.nodes.get(&id.value())
    }

    fn digit(&self, id: Id, row: u8) -> usize {
        self.config
            .space
            .digit(id, row, self.config.digit_bits)
            .expect("row < digit_count") as usize
    }

    fn lcp(&self, a: Id, b: Id) -> u8 {
        self.config
            .space
            .common_prefix_digits(a, b, self.config.digit_bits)
            .expect("validated digit width")
    }

    /// The key's **surrogate root**: resolve digits left to right over the
    /// live membership; where no survivor matches the key's digit, bump
    /// the digit cyclically to the next value some survivor has
    /// (Tapestry's deterministic surrogate rule).
    pub fn true_owner(&self, key: Id) -> Option<Id> {
        if self.nodes.is_empty() {
            return None;
        }
        let mut survivors: Vec<Id> = self.live_ids();
        for row in 0..self.digit_count {
            if survivors.len() == 1 {
                break;
            }
            let want = self.digit(key, row);
            for offset in 0..self.arity {
                let v = (want + offset) % self.arity;
                let next: Vec<Id> = survivors
                    .iter()
                    .copied()
                    .filter(|&s| self.digit(s, row) == v)
                    .collect();
                if !next.is_empty() {
                    survivors = next;
                    break;
                }
            }
        }
        survivors.into_iter().min()
    }

    /// Rebuild a node's routing table from global truth (bootstrap /
    /// periodic repair). Cell `(l, c)` holds the smallest-id qualifying
    /// node — the deterministic rule that keeps surrogate roots unique.
    pub fn refresh_from_truth(&mut self, id: Id) {
        let mut rows = vec![vec![None; self.arity]; self.digit_count as usize];
        for &other_raw in self.nodes.keys() {
            let other = Id::new(other_raw);
            if other == id {
                continue;
            }
            let l = self.lcp(id, other);
            if l >= self.digit_count {
                continue;
            }
            let col = self.digit(other, l);
            let cell: &mut Option<Id> = &mut rows[l as usize][col];
            // BTreeMap iteration is id-ascending, so first fill wins =
            // smallest id.
            if cell.is_none() {
                *cell = Some(other);
            }
        }
        let node = self.nodes.get_mut(&id.value()).expect("live node");
        node.rows = rows;
    }

    /// Repair every node.
    pub fn repair_all(&mut self) {
        for id in self.live_ids() {
            self.refresh_from_truth(id);
        }
    }

    /// A node joins (own state perfect; others stale until repair).
    ///
    /// # Errors
    /// [`NetworkError::AlreadyPresent`] / [`NetworkError::OutOfSpace`].
    pub fn join(&mut self, id: Id) -> Result<(), NetworkError> {
        if !self.config.space.contains(id) {
            return Err(NetworkError::OutOfSpace(id));
        }
        if self.nodes.contains_key(&id.value()) {
            return Err(NetworkError::AlreadyPresent(id));
        }
        self.nodes.insert(
            id.value(),
            TapestryNode::new(id, self.digit_count, self.arity),
        );
        self.refresh_from_truth(id);
        Ok(())
    }

    /// A node crashes without notice.
    ///
    /// # Errors
    /// [`NetworkError::NotPresent`].
    pub fn fail(&mut self, id: Id) -> Result<(), NetworkError> {
        self.nodes
            .remove(&id.value())
            .map(|_| ())
            .ok_or(NetworkError::NotPresent(id))
    }

    /// Install the auxiliary neighbor set (dead entries dropped).
    ///
    /// # Errors
    /// [`NetworkError::NotPresent`].
    pub fn set_aux(&mut self, id: Id, aux: Vec<Id>) -> Result<(), NetworkError> {
        let live: Vec<Id> = aux.into_iter().filter(|&a| self.is_live(a)).collect();
        let node = self
            .nodes
            .get_mut(&id.value())
            .ok_or(NetworkError::NotPresent(id))?;
        node.aux = live;
        Ok(())
    }

    /// [`set_aux`](Self::set_aux) from a borrowed slice, recycling the
    /// node's installed buffer instead of taking ownership of a fresh
    /// `Vec`: the churn driver's refresh engine re-installs a retained
    /// selection every recompute tick, and at warmed capacity this
    /// installs without allocating. The live-entry filter is identical.
    ///
    /// # Errors
    /// [`NetworkError::NotPresent`].
    pub fn set_aux_from_slice(&mut self, id: Id, aux: &[Id]) -> Result<(), NetworkError> {
        let mut live = match self.nodes.get_mut(&id.value()) {
            Some(node) => std::mem::take(&mut node.aux),
            None => return Err(NetworkError::NotPresent(id)),
        };
        live.clear();
        live.extend(aux.iter().copied().filter(|&a| self.is_live(a)));
        if let Some(node) = self.nodes.get_mut(&id.value()) {
            node.aux = live;
        }
        Ok(())
    }

    /// Route a query for `key` from `from`: auxiliary/table shortcut on
    /// maximal prefix progress first (§III-1), then the surrogate loop. A
    /// dead next hop is forgotten (and counted as a failed probe) and the
    /// decision re-runs.
    ///
    /// The repairing driver of the single walk: the transparent-plan
    /// [`route_with_aux_faults`](Self::route_with_aux_faults) over the
    /// installed auxiliary sets, whose `trace.dead_probed` pairs are then
    /// evicted through [`forget_neighbor`](Self::forget_neighbor).
    ///
    /// # Errors
    /// [`NetworkError::NotPresent`] when `from` is not live.
    pub fn route(&mut self, from: Id, key: Id) -> Result<RouteResult, NetworkError> {
        let route = self.route_with_aux_faults(
            from,
            key,
            |id| {
                self.nodes
                    .get(&id.value())
                    .map_or(&[], |n| n.aux.as_slice())
            },
            &FaultPlan::transparent(0),
        )?;
        for &(prober, dead) in &route.trace.dead_probed {
            self.forget_neighbor(prober, dead);
        }
        let outcome = match route.outcome {
            Ok(_) => RouteOutcome::Success,
            Err(LookupFailure::WrongOwner(at)) => RouteOutcome::WrongOwner(at),
            Err(LookupFailure::HopLimit) => RouteOutcome::HopLimit,
            // A live origin under a transparent plan is never down.
            Err(LookupFailure::DeadEnd(at) | LookupFailure::OriginDown(at)) => {
                RouteOutcome::DeadEnd(at)
            }
        };
        Ok(RouteResult {
            outcome,
            hops: route.trace.hops,
            failed_probes: route.trace.timeouts,
            path: route.trace.path,
        })
    }

    /// The forwarding decision at `current`: auxiliary/table shortcut on
    /// maximal prefix progress first (§III-1), then the surrogate loop.
    /// `None` means `current` believes it is the root. `extra` stands in
    /// for its auxiliary set, and every `dead` pair `(prober, target)`
    /// with `prober == current` is treated as already forgotten — how the
    /// read-only walk reproduces forget-and-retry: a repairing walk would
    /// erase a timed-out entry from `current`'s tables and re-decide;
    /// this filters it instead.
    fn next_hop_excluding(
        &self,
        current: Id,
        key: Id,
        extra: &[Id],
        dead: &[(Id, Id)],
    ) -> Option<Id> {
        if current == key {
            return None;
        }
        let excluded = |w: Id| dead.iter().any(|&(p, t)| p == current && t == w);
        // `current` is always a live node here; degrade to "no next hop"
        // rather than panic if the map ever disagrees (rule L10).
        let node = self.nodes.get(&current.value())?;
        let l = self.lcp(current, key);
        // Prefix-progress candidates (table entries + auxiliaries).
        let best = node
            .known_neighbors_with(extra)
            .into_iter()
            .filter(|&w| !excluded(w) && self.lcp(w, key) > l)
            .max_by_key(|&w| (self.lcp(w, key), std::cmp::Reverse(w)));
        if let Some(w) = best {
            return Some(w);
        }
        // Surrogate loop: resolve rows from l; at each row try the key's
        // digit, then bump cyclically; our own digit means we carry the
        // row ourselves and move on.
        for row in l..self.digit_count {
            let want = self.digit(key, row);
            let own = self.digit(current, row);
            for offset in 0..self.arity {
                let v = (want + offset) % self.arity;
                if v == own {
                    break; // current carries this digit; next row
                }
                let slot = node
                    .rows
                    .get(row as usize)
                    .and_then(|r| r.get(v))
                    .copied()
                    .flatten();
                if let Some(w) = slot {
                    if !excluded(w) {
                        return Some(w);
                    }
                }
            }
        }
        None
    }

    /// Route a query read-only through the fault layer: auxiliary
    /// neighbors come from `aux_of` (resolved through `plan`'s staleness
    /// channel) instead of the installed per-node sets, every contact
    /// goes through `plan`'s probe channel (crash/loss/unresponsive with
    /// bounded retry), and the walk records everything in a
    /// [`RouteTrace`](peercache_faults::RouteTrace).
    ///
    /// Degradation semantics are [`route`](Self::route)'s: a timed-out
    /// hop is excluded (the read-only stand-in for `forget`; a repairing
    /// caller evicts `trace.dead_probed` afterwards) and the decision
    /// re-runs. Under a non-transparent plan, the first timed-out
    /// **auxiliary-only** candidate at a node bans the remaining
    /// auxiliary pointers there, falling back to core routing state
    /// (`trace.fallbacks`). Under a transparent plan this is the
    /// read-only walk: many sweeps share one immutable snapshot, and it
    /// is hop-for-hop identical to installing each `aux_of` set via
    /// [`set_aux`](Self::set_aux) and calling `route`.
    ///
    /// # Errors
    /// [`NetworkError::NotPresent`] when `from` is not live.
    pub fn route_with_aux_faults<'a, F>(
        &'a self,
        from: Id,
        key: Id,
        aux_of: F,
        plan: &FaultPlan,
    ) -> Result<FaultedRoute, NetworkError>
    where
        F: Fn(Id) -> &'a [Id],
    {
        if !self.nodes.contains_key(&from.value()) {
            return Err(NetworkError::NotPresent(from));
        }
        // `from` is live, so the overlay is non-empty and the key has an
        // owner; the else-branch is unreachable but typed.
        let Some(true_owner) = self.true_owner(key) else {
            return Err(NetworkError::NotPresent(from));
        };
        Ok(walk(from, plan, |current, trace, scratch| {
            self.route_step_faults(current, key, true_owner, &aux_of, plan, trace, scratch)
        }))
    }

    /// One arrival of [`route_with_aux_faults`](Self::route_with_aux_faults):
    /// the full decision made at `current` — hop-budget check, staleness
    /// resolution of its cached pointers, and the decide/probe loop with
    /// its aux→core fallback — ending in a forward or a terminal outcome.
    /// This is Tapestry's only routing decision: the read-only walk, the
    /// repairing [`route`](Self::route) and the `peercache-node` event
    /// loop all drive it, so their probe sequences are bit-identical.
    ///
    /// The caller owns the hop accounting: on [`WalkStep::Forward`] it
    /// must charge `trace.hops += 1` and extend `trace.path` before the
    /// next step. `true_owner` is the owner of `key` computed once per
    /// walk (see [`true_owner`](Self::true_owner)).
    #[allow(clippy::too_many_arguments)]
    pub fn route_step_faults<'a, F>(
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
        if trace.hops >= self.config.hop_limit {
            return WalkStep::Done(Err(LookupFailure::HopLimit));
        }
        let aux = plan.aux_view(
            self.config.space,
            current,
            aux_of(current),
            &mut scratch.aux,
        );
        let mut aux_banned = false;
        loop {
            let extra: &[Id] = if aux_banned { &[] } else { aux };
            match self.next_hop_excluding(current, key, extra, &trace.dead_probed) {
                None => {
                    let excluded = |w: Id| {
                        trace
                            .dead_probed
                            .iter()
                            .any(|&(p, t)| p == current && t == w)
                    };
                    let outcome = if current == true_owner {
                        Ok(current)
                    } else if self.nodes.get(&current.value()).is_some_and(|node| {
                        node.known_neighbors_with(extra)
                            .iter()
                            .all(|&w| excluded(w))
                    }) && self.len() > 1
                    {
                        Err(LookupFailure::DeadEnd(current))
                    } else {
                        Err(LookupFailure::WrongOwner(current))
                    };
                    return WalkStep::Done(outcome);
                }
                Some(next) => {
                    if plan.probe(current, next, trace.hops, self.is_live(next), trace) {
                        return WalkStep::Forward(next);
                    } else if !plan.is_transparent() && !aux_banned {
                        // Probe failure already excluded `next` via
                        // `trace.dead_probed`; if it was a cached pointer
                        // (absent from the core tables), ban the rest of
                        // the aux set here and fall back to core state.
                        let core = self
                            .nodes
                            .get(&current.value())
                            .map(|node| node.known_neighbors_with(&[]))
                            .unwrap_or_default();
                        if core.binary_search(&next).is_err() {
                            aux_banned = true;
                            trace.fallbacks += 1;
                        }
                    }
                }
            }
        }
    }

    /// Evict `dead` from `id`'s routing structures. The walk is
    /// read-only, so a repairing caller ([`route`](Self::route), the
    /// churn driver) applies its `dead_probed` pairs here afterwards.
    /// No-op when `id` is not live.
    pub fn forget_neighbor(&mut self, id: Id, dead: Id) {
        if let Some(node) = self.nodes.get_mut(&id.value()) {
            node.forget(dead);
        }
    }
}
