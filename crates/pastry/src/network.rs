use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use peercache_faults::{
    walk, FaultPlan, FaultedRoute, LookupFailure, RouteTrace, StepScratch, WalkStep,
};
use peercache_id::{Id, IdSpace};
use rand::Rng;

use crate::node::PastryNode;
use crate::{RouteOutcome, RouteResult, RoutingMode};

/// A point in the synthetic proximity space (FreePastry's simulation-mode
/// topology: the unit square with Euclidean latency).
pub type Coord = (f64, f64);

/// Configuration of a Pastry deployment.
#[derive(Copy, Clone, Debug)]
pub struct PastryConfig {
    /// The identifier space.
    pub space: IdSpace,
    /// Digit width in bits (`d`; the paper exposits `d = 1`).
    pub digit_bits: u8,
    /// Digits per id (`⌈b/d⌉`; derived once in [`PastryConfig::new`] so
    /// every later consumer reads a validated value).
    pub digit_count: u8,
    /// Leaf-set entries per side.
    pub leaf_half: usize,
    /// Next-hop tie-breaking policy.
    pub mode: RoutingMode,
    /// Defensive per-route hop budget.
    pub hop_limit: u32,
}

impl PastryConfig {
    /// Locality-aware configuration over `space` with digit width `d`,
    /// four leaves per side, and a `4·⌈b/d⌉` hop budget.
    ///
    /// A width that does not divide `b` is allowed: the last digit is
    /// narrower (`⌈b/d⌉` digits in all).
    ///
    /// # Panics
    /// Panics when `digit_bits` is 0 or wider than the id width `b` — a
    /// configuration is programmer input.
    pub fn new(space: IdSpace, digit_bits: u8) -> Self {
        let digit_count = space.digit_count(digit_bits).unwrap_or(0);
        assert!(digit_count > 0, "digit width must be in 1..=b");
        PastryConfig {
            space,
            digit_bits,
            digit_count,
            leaf_half: 4,
            mode: RoutingMode::LocalityAware,
            hop_limit: 4 * u32::from(digit_count),
        }
    }

    /// The same configuration with a different routing mode.
    pub fn with_mode(mut self, mode: RoutingMode) -> Self {
        self.mode = mode;
        self
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

/// Deterministic pseudo-random priority deciding which qualifying node a
/// routing-table cell ends up holding (stands in for the accident of
/// which node was encountered first during joins/row exchanges).
// Truncating casts fold the 128-bit ids into a 64-bit hash input.
#[allow(clippy::cast_possible_truncation)]
fn encounter_score(owner: Id, entry: Id) -> u64 {
    let mixed = (owner.value() ^ entry.value().rotate_left(64)) as u64
        ^ (entry.value() >> 64) as u64
        ^ entry.value() as u64;
    // SplitMix64 finalizer.
    let mut z = mixed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The node of `block` a table owned by `owner` ends up holding: the
/// first in ascending id order with the smallest [`encounter_score`].
fn first_encountered(owner: Id, block: &[u128]) -> Option<Id> {
    let mut best = None;
    let mut best_score = 0;
    for &key in block {
        let score = encounter_score(owner, Id::new(key));
        if best.is_none() || score < best_score {
            best = Some(Id::new(key));
            best_score = score;
        }
    }
    best
}

/// The whole simulated Pastry overlay.
///
/// ```
/// use peercache_id::{Id, IdSpace};
/// use peercache_pastry::{PastryConfig, PastryNetwork};
/// use rand::SeedableRng;
///
/// let space = IdSpace::new(8).unwrap();
/// let ids: Vec<Id> = [0b0001_0000u128, 0b0101_0000, 0b1001_0000, 0b1101_0000]
///     .map(Id::new)
///     .to_vec();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut overlay = PastryNetwork::build(PastryConfig::new(space, 1), &ids, &mut rng);
/// // Keys belong to the numerically closest node.
/// assert_eq!(overlay.true_owner(Id::new(0b0100_0000)), Some(Id::new(0b0101_0000)));
/// let route = overlay.route(ids[0], Id::new(0b1100_1111)).unwrap();
/// assert!(route.is_success());
/// assert_eq!(route.path.last(), Some(&Id::new(0b1101_0000)));
/// ```
#[derive(Clone)]
pub struct PastryNetwork {
    config: PastryConfig,
    digit_count: u8,
    arity: usize,
    nodes: BTreeMap<u128, PastryNode>,
    coords: BTreeMap<u128, Coord>,
}

impl PastryNetwork {
    /// An empty overlay.
    pub fn new(config: PastryConfig) -> Self {
        PastryNetwork {
            config,
            digit_count: config.digit_count,
            arity: 1usize << config.digit_bits,
            nodes: BTreeMap::new(),
            coords: BTreeMap::new(),
        }
    }

    /// Bootstrap a stable overlay with perfect routing state and random
    /// proximity coordinates.
    ///
    /// # Panics
    /// Panics on duplicate or out-of-space ids.
    pub fn build<R: Rng + ?Sized>(config: PastryConfig, ids: &[Id], rng: &mut R) -> Self {
        let mut net = PastryNetwork::new(config);
        for &id in ids {
            assert!(config.space.contains(id), "node id {id} outside id space");
            let node = PastryNode::new(id, net.digit_count, net.arity);
            assert!(
                net.nodes.insert(id.value(), node).is_none(),
                "duplicate node id {id}"
            );
            net.coords.insert(id.value(), (rng.gen(), rng.gen()));
        }
        let keys = net.sorted_keys();
        for &id in ids {
            net.refresh_with_keys(id, &keys);
        }
        net
    }

    /// The configuration.
    pub fn config(&self) -> &PastryConfig {
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

    /// All live node ids in ring order.
    pub fn live_ids(&self) -> Vec<Id> {
        self.nodes.keys().map(|&k| Id::new(k)).collect()
    }

    /// Immutable view of a node.
    pub fn node(&self, id: Id) -> Option<&PastryNode> {
        self.nodes.get(&id.value())
    }

    /// Synthetic latency between two hosts. An id with no coordinates —
    /// possible only for a corrupted (stale-displaced) auxiliary pointer,
    /// since failed nodes keep theirs — is infinitely far: it loses every
    /// locality tie-break but stays eligible on prefix progress, and the
    /// probe to it then times out.
    pub fn proximity(&self, a: Id, b: Id) -> f64 {
        let (Some(&(ax, ay)), Some(&(bx, by))) =
            (self.coords.get(&a.value()), self.coords.get(&b.value()))
        else {
            return f64::INFINITY;
        };
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }

    /// Absolute ring distance (numerical closeness metric, §II-A).
    fn ring_abs(&self, a: Id, b: Id) -> u128 {
        let space = self.config.space;
        space
            .clockwise_distance(a, b)
            .min(space.clockwise_distance(b, a))
    }

    /// The **true owner** of `key`: the numerically closest live node
    /// (ties broken toward the smaller id).
    pub fn true_owner(&self, key: Id) -> Option<Id> {
        if self.nodes.is_empty() {
            return None;
        }
        // Only the ring predecessor and successor of the key can be
        // closest.
        let pred = self
            .nodes
            .range(..=key.value())
            .next_back()
            .or_else(|| self.nodes.iter().next_back())
            .map(|(&k, _)| Id::new(k))?;
        let succ = key
            .value()
            .checked_add(1)
            .and_then(|s| self.nodes.range(s..).next())
            .or_else(|| self.nodes.iter().next())
            .map(|(&k, _)| Id::new(k))?;
        let (dp, ds) = (self.ring_abs(pred, key), self.ring_abs(succ, key));
        Some(match dp.cmp(&ds) {
            std::cmp::Ordering::Less => pred,
            std::cmp::Ordering::Greater => succ,
            std::cmp::Ordering::Equal => {
                if pred.value() <= succ.value() {
                    pred
                } else {
                    succ
                }
            }
        })
    }

    fn lcp(&self, a: Id, b: Id) -> u8 {
        // The digit width is validated by `PastryConfig::new`, so the
        // error arm is unreachable; 0 is a safe (no-shared-prefix)
        // fallback that keeps routing well-defined regardless.
        self.config
            .space
            .common_prefix_digits(a, b, self.config.digit_bits)
            .unwrap_or(0)
    }

    /// True leaf set of `id`: `leaf_half` ring neighbors per side
    /// (counter-clockwise first, ring order).
    fn true_leaves(&self, id: Id) -> Vec<Id> {
        let n = self.nodes.len();
        if n <= 1 {
            return Vec::new();
        }
        let take = self.config.leaf_half.min((n - 1) / 2).max(1);
        let mut ccw = Vec::with_capacity(take);
        let mut cw = Vec::with_capacity(take);
        let mut cur = id.value();
        for _ in 0..take.min(n - 1) {
            let Some(prev) = self
                .nodes
                .range(..cur)
                .next_back()
                .or_else(|| self.nodes.iter().next_back())
                .map(|(&k, _)| k)
            else {
                break;
            };
            if prev == id.value() || ccw.contains(&prev) {
                break;
            }
            ccw.push(prev);
            cur = prev;
        }
        cur = id.value();
        for _ in 0..take.min(n - 1) {
            let Some(next) = cur
                .checked_add(1)
                .and_then(|s| self.nodes.range(s..).next())
                .or_else(|| self.nodes.iter().next())
                .map(|(&k, _)| k)
            else {
                break;
            };
            if next == id.value() || cw.contains(&next) || ccw.contains(&next) {
                break;
            }
            cw.push(next);
            cur = next;
        }
        ccw.reverse();
        ccw.into_iter().chain(cw).map(Id::new).collect()
    }

    /// Rebuild a node's core state from global truth (bootstrap / the
    /// periodic repair that models Pastry's maintenance).
    pub fn refresh_from_truth(&mut self, id: Id) {
        let keys = self.sorted_keys();
        self.refresh_with_keys(id, &keys);
    }

    /// The live node ids in ascending order, as raw keys.
    fn sorted_keys(&self) -> Vec<u128> {
        self.nodes.keys().copied().collect()
    }

    /// [`refresh_from_truth`](Self::refresh_from_truth) over `keys`, the
    /// live ids in ascending order (collected once per sweep).
    fn refresh_with_keys(&mut self, id: Id, keys: &[u128]) {
        let leaves = self.true_leaves(id);
        let rows = self.truth_rows(id, keys);
        if let Some(node) = self.nodes.get_mut(&id.value()) {
            node.leaves = leaves;
            node.rows = rows;
        }
    }

    /// The routing rows of live node `id` from global truth. Cell
    /// `(l, col)` holds a node sharing exactly `l` leading digits with
    /// `id` whose digit `l` is `col`; those nodes are the contiguous
    /// block of `keys` with `id`'s first `l` digits followed by `col`,
    /// where the block of the column before it ends (one binary search
    /// per column, inside `id`'s block of the row above).
    ///
    /// Table cells hold whichever qualifying node the owner happened to
    /// learn about (join paths, exchanged rows) — NOT the globally
    /// proximity-optimal one. We model "first encountered" with a
    /// deterministic per-(owner, entry) hash: the cell keeps the first
    /// node in ascending id order with the smallest score. A globally
    /// optimal fill would make the locality tie-break degenerate (no
    /// auxiliary entry could ever win it).
    fn truth_rows(&self, id: Id, keys: &[u128]) -> Vec<Vec<Option<Id>>> {
        let mut rows = vec![vec![None; self.arity]; usize::from(self.digit_count)];
        let bits = self.config.space.bits();
        let digit_bits = self.config.digit_bits;
        // `keys[lo..hi]`: the nodes sharing `id`'s first `l` digits.
        let (mut lo, mut hi) = (0, keys.len());
        for (l, row) in (0u8..).zip(rows.iter_mut()) {
            if hi - lo <= 1 {
                break; // only `id` itself is left: every deeper cell is empty
            }
            let top = bits - l * digit_bits; // exclusive top bit of digit `l`
            let shift = top - digit_bits.min(top);
            let prefix = id
                .value()
                .checked_shr(u32::from(top))
                .map_or(0, |p| p << top);
            let own = (id.value() >> shift) & ((1u128 << (top - shift)) - 1);
            let (mut own_lo, mut own_hi) = (lo, lo);
            let mut start = lo;
            for (col, cell) in (0u128..1 << (top - shift)).zip(row.iter_mut()) {
                let last = prefix | col << shift | ((1u128 << shift) - 1);
                let end = start + keys[start..hi].partition_point(|&k| k <= last);
                if col == own {
                    (own_lo, own_hi) = (start, end);
                } else {
                    *cell = first_encountered(id, &keys[start..end]);
                }
                start = end;
            }
            (lo, hi) = (own_lo, own_hi);
        }
        rows
    }

    /// Repair every node (a full maintenance round).
    pub fn repair_all(&mut self) {
        let keys = self.sorted_keys();
        for &key in &keys {
            self.refresh_with_keys(Id::new(key), &keys);
        }
    }

    // ---- membership ------------------------------------------------------

    /// A node joins at `coord`: it builds its own state and is announced
    /// to its leaf-set members (Pastry's join notifies them); everyone
    /// else's routing tables stay stale until repair.
    ///
    /// # Errors
    /// [`NetworkError::AlreadyPresent`] / [`NetworkError::OutOfSpace`].
    pub fn join(&mut self, id: Id, coord: Coord) -> Result<(), NetworkError> {
        if !self.config.space.contains(id) {
            return Err(NetworkError::OutOfSpace(id));
        }
        if self.nodes.contains_key(&id.value()) {
            return Err(NetworkError::AlreadyPresent(id));
        }
        self.nodes.insert(
            id.value(),
            PastryNode::new(id, self.digit_count, self.arity),
        );
        self.coords.insert(id.value(), coord); // refreshed on re-join
        self.refresh_from_truth(id);
        // Announce to leaf-set members: they refresh their own leaf sets
        // (and learn the newcomer for their tables opportunistically).
        for member in self.nodes[&id.value()].leaves.clone() {
            let leaves = self.true_leaves(member);
            let l = self.lcp(member, id);
            if let Some(m) = self.nodes.get_mut(&member.value()) {
                m.leaves = leaves;
                if l < self.digit_count {
                    // fill the table cell if empty (no proximity probe on
                    // announcement)
                    if let Ok(col) = self.config.space.digit(id, l, self.config.digit_bits) {
                        let cell = &mut m.rows[l as usize][col as usize];
                        if cell.is_none() {
                            *cell = Some(id);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// A node crashes without notice.
    ///
    /// # Errors
    /// [`NetworkError::NotPresent`].
    pub fn fail(&mut self, id: Id) -> Result<(), NetworkError> {
        self.nodes
            .remove(&id.value())
            .ok_or(NetworkError::NotPresent(id))?;
        // Coordinates describe the physical host and are kept: survivors
        // still hold (stale) entries for the corpse and evaluate their
        // proximity before probing them.
        Ok(())
    }

    /// A node leaves gracefully: its leaf-set members patch their leaf
    /// sets immediately; routing-table entries elsewhere stay stale.
    ///
    /// # Errors
    /// [`NetworkError::NotPresent`].
    pub fn leave(&mut self, id: Id) -> Result<(), NetworkError> {
        let node = self
            .nodes
            .remove(&id.value())
            .ok_or(NetworkError::NotPresent(id))?;
        for member in node.leaves {
            if !self.is_live(member) {
                continue;
            }
            let leaves = self.true_leaves(member);
            if let Some(m) = self.nodes.get_mut(&member.value()) {
                m.forget(id);
                m.leaves = leaves;
            }
        }
        Ok(())
    }

    /// Install the auxiliary neighbor set for `id` (dead entries dropped).
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

    // ---- routing -----------------------------------------------------------

    /// Route a query for `key` from `from` under the configured
    /// [`RoutingMode`]. A dead next hop is forgotten (and counted as a
    /// failed probe) and the decision re-runs.
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
    /// This is Pastry's only routing decision: the read-only walk, the
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
                    // A strictly closer node is known but unusable under
                    // the forwarding rule: a dead end rather than a wrong
                    // claim of ownership.
                    let outcome = if current == true_owner {
                        Ok(current)
                    } else if self.nodes.get(&current.value()).is_some_and(|node| {
                        node.known_neighbors_with(extra).iter().any(|&w| {
                            !excluded(w)
                                && (self.ring_abs(w, key), w.value())
                                    < (self.ring_abs(current, key), current.value())
                        })
                    }) {
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

    /// The forwarding decision at `current` for `key` (None = `current`
    /// believes it is the destination), with `extra` standing in for its
    /// auxiliary set and `dead` exclusions applied: every
    /// `(prober, target)` pair with `prober == current` is treated as
    /// already forgotten. This is how the read-only walk reproduces
    /// forget-and-retry — a repairing walk would erase a timed-out entry
    /// from `current`'s tables and re-decide; this filters it instead.
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
        let mut known = node.known_neighbors_with(extra);
        known.retain(|&w| !excluded(w));
        if known.is_empty() {
            return None;
        }
        let cur_key = (self.ring_abs(current, key), current.value());

        // 1. Leaf-set short-circuit: if the key falls within the arc the
        //    (surviving) leaf set covers, jump straight to the
        //    numerically closest.
        let ccw_most = node.leaves.iter().copied().find(|&w| !excluded(w));
        let cw_most = node.leaves.iter().copied().rev().find(|&w| !excluded(w));
        if let (Some(ccw_most), Some(cw_most)) = (ccw_most, cw_most) {
            let space = self.config.space;
            let arc = space.clockwise_distance(ccw_most, cw_most);
            if space.clockwise_distance(ccw_most, key) <= arc {
                let best = node
                    .leaves
                    .iter()
                    .copied()
                    .filter(|&w| !excluded(w))
                    .map(|w| (self.ring_abs(w, key), w.value()))
                    .min();
                return match best {
                    Some(best) if best < cur_key => Some(Id::new(best.1)),
                    _ => None,
                };
            }
        }

        // 2. Prefix progress: candidates sharing a strictly longer prefix
        //    with the key than we do.
        let l = self.lcp(current, key);
        let progress: Vec<Id> = known
            .iter()
            .copied()
            .filter(|&w| self.lcp(w, key) > l)
            .collect();
        // Both modes first narrow to the candidates advancing the prefix
        // the furthest (they are the "candidate nodes for the next hop");
        // the modes differ in the tie-break among them: FreePastry takes
        // the one nearest in proximity space (§VI-D), the greedy mode the
        // one numerically closest to the key.
        if let Some(best_lcp) = progress.iter().map(|&w| self.lcp(w, key)).max() {
            let bucket = progress
                .into_iter()
                .filter(|&w| self.lcp(w, key) == best_lcp);
            let chosen = match self.config.mode {
                RoutingMode::LocalityAware => bucket.min_by(|&a, &b| {
                    self.proximity(current, a)
                        .total_cmp(&self.proximity(current, b))
                        .then(a.cmp(&b))
                }),
                RoutingMode::GreedyPrefix => {
                    bucket.min_by_key(|&w| (self.ring_abs(w, key), w.value()))
                }
            };
            // The bucket mirrors a non-empty `progress`, so a hop always
            // exists; fall through only on the unreachable None.
            if let Some(chosen) = chosen {
                return Some(chosen);
            }
        }

        // 3. Rare case: same prefix length but numerically closer.
        known
            .into_iter()
            .filter(|&w| self.lcp(w, key) >= l)
            .map(|w| (self.ring_abs(w, key), w.value()))
            .filter(|&c| c < cur_key)
            .min()
            .map(|(_, w)| Id::new(w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "digit width must be in 1..=b")]
    fn config_rejects_zero_digit_bits() {
        let _ = PastryConfig::new(IdSpace::new(8).unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "digit width must be in 1..=b")]
    fn config_rejects_digit_bits_wider_than_the_id() {
        let _ = PastryConfig::new(IdSpace::new(8).unwrap(), 9);
    }
}
