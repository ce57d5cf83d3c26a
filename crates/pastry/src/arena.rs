//! A **virtual** Pastry overlay over a sorted id slice — the scale
//! substrate behind the `fig3_scale` runs.
//!
//! [`PastryNetwork`](crate::PastryNetwork) materialises every node's
//! routing table, which costs O(n²) to build (each node scans the whole
//! population) and O(n · b · 2^d) resident entries — fine at the paper's
//! n ≤ 2048, prohibitive at 10⁵–10⁶ nodes. The arena stores **only the
//! sorted id array** and answers the same structural questions on demand:
//!
//! * the **leaf set** of a node is index arithmetic on the sorted ring;
//! * a **routing-table cell** (row `l`, column `c`) is a contiguous
//!   prefix range of the sorted array (binary search) with one member
//!   picked by a deterministic per-`(owner, l, c)` hash — the stand-in
//!   for `PastryNetwork`'s "first encountered" fill. The pick is
//!   *distributionally* equivalent (a deterministic qualifying member),
//!   not bit-identical to the materialised network; the scale driver
//!   documents this divergence and the parity gate runs on the
//!   materialised path instead;
//! * **proximity coordinates** are hashed from the id (the materialised
//!   network draws them from the topology RNG).
//!
//! Everything is a pure function of `(sorted ids, config)`, so routing is
//! `Sync`-shareable across threads and bit-identical at any thread count.

use peercache_id::Id;

use crate::{PastryConfig, RouteOutcome, RoutingMode};

/// SplitMix64 finalizer — the same mixer the materialised network uses
/// for its encounter scores.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fold a 128-bit id into a 64-bit hash input.
// Truncating casts are the point of the fold.
#[allow(clippy::cast_possible_truncation)]
fn fold(id: Id) -> u64 {
    (id.value() as u64) ^ ((id.value() >> 64) as u64).rotate_left(17)
}

/// A hash word as a uniform f64 in `[0, 1)`.
// The 53-bit mantissa cast is exact.
#[allow(clippy::cast_precision_loss)]
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Reusable buffers for [`PastryArena::route_with_aux`], so a query sweep
/// allocates nothing per hop after warm-up.
#[derive(Default)]
pub struct ArenaScratch {
    leaves: Vec<Id>,
    known: Vec<Id>,
}

impl ArenaScratch {
    /// Empty scratch buffers.
    pub fn new() -> Self {
        ArenaScratch::default()
    }
}

/// The result of routing one query through the arena (no path vector —
/// the scale driver streams millions of these into fixed accumulators).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArenaRoute {
    /// How the route ended.
    pub outcome: RouteOutcome,
    /// Number of forwards taken.
    pub hops: u32,
}

impl ArenaRoute {
    /// Whether the route reached the true owner.
    pub fn is_success(&self) -> bool {
        self.outcome == RouteOutcome::Success
    }
}

/// The virtual overlay: a sorted id array plus the configuration.
pub struct PastryArena {
    config: PastryConfig,
    ids: Vec<Id>,
}

impl PastryArena {
    /// Build the arena over `ids` (sorted and deduplicated internally).
    ///
    /// # Panics
    /// Panics when an id falls outside the configured space — membership
    /// is experiment input, not runtime data.
    pub fn new(config: PastryConfig, mut ids: Vec<Id>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        for &id in &ids {
            assert!(config.space.contains(id), "node id {id} outside id space");
        }
        PastryArena { config, ids }
    }

    /// The configuration.
    pub fn config(&self) -> &PastryConfig {
        &self.config
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the arena has no nodes.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The member ids, sorted ascending (ring order).
    pub fn ids(&self) -> &[Id] {
        &self.ids
    }

    /// The rank (sorted position) of `id`, if it is a member.
    pub fn rank_of(&self, id: Id) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// Absolute ring distance (numerical closeness metric).
    fn ring_abs(&self, a: Id, b: Id) -> u128 {
        let space = self.config.space;
        space
            .clockwise_distance(a, b)
            .min(space.clockwise_distance(b, a))
    }

    /// Shared digit-aligned prefix length of `a` and `b`.
    fn lcp(&self, a: Id, b: Id) -> u8 {
        self.config
            .space
            .common_prefix_digits(a, b, self.config.digit_bits)
            .unwrap_or(0)
    }

    /// The **true owner** of `key`: the numerically closest member, ties
    /// toward the smaller id — the same rule as the materialised network.
    pub fn true_owner(&self, key: Id) -> Option<Id> {
        let n = self.ids.len();
        if n == 0 {
            return None;
        }
        let p = self.ids.partition_point(|&x| x.value() <= key.value());
        let pred = self.ids[(p + n - 1) % n];
        let succ = self.ids[p % n];
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

    /// The leaf set of the member at `rank` into a caller-owned buffer:
    /// `leaf_half` ring neighbors per side in ring order (counter-
    /// clockwise half first), exactly the materialised network's layout.
    pub fn leaves_into(&self, rank: usize, out: &mut Vec<Id>) {
        out.clear();
        let n = self.ids.len();
        if n <= 1 || rank >= n {
            return;
        }
        let take = self.config.leaf_half.min((n - 1) / 2).max(1);
        let mut cur = rank;
        for _ in 0..take {
            let prev = (cur + n - 1) % n;
            if prev == rank || out.contains(&self.ids[prev]) {
                break;
            }
            out.push(self.ids[prev]);
            cur = prev;
        }
        out.reverse();
        let mut cur = rank;
        for _ in 0..take {
            let next = (cur + 1) % n;
            if next == rank || out.contains(&self.ids[next]) {
                break;
            }
            out.push(self.ids[next]);
            cur = next;
        }
    }

    /// Routing-table cell (row `l`, column `c`) of the member at `rank`:
    /// a member sharing exactly `l` leading digits whose digit `l` is
    /// `c`, or `None` when no member qualifies (or `c` is the owner's own
    /// digit — that column stays empty, as on [`PastryNode`]).
    ///
    /// The qualifying members form one contiguous range of the sorted
    /// array; the returned one is a deterministic hash pick over that
    /// range, standing in for the network's "first encountered" fill.
    ///
    /// [`PastryNode`]: crate::PastryNode
    // Fitting the hash pick into an index truncates by design.
    #[allow(clippy::cast_possible_truncation)]
    pub fn cell(&self, rank: usize, l: u8, c: u16) -> Option<Id> {
        let owner = *self.ids.get(rank)?;
        let space = self.config.space;
        let b = u32::from(space.bits());
        let d = u32::from(self.config.digit_bits);
        let ld = u32::from(l) * d;
        if ld >= b {
            return None;
        }
        let w = d.min(b - ld);
        if u32::from(c) >= (1u32 << w) {
            return None;
        }
        let own = space.digit(owner, l, self.config.digit_bits).ok()?;
        if c == own {
            return None;
        }
        let rem = b - ld - w;
        let prefix = if ld == 0 {
            0
        } else {
            owner.value() >> (b - ld)
        };
        let low = ((prefix << w) | u128::from(c)) << rem;
        let ones = if rem == 0 { 0 } else { (1u128 << rem) - 1 };
        let high_incl = low | ones;
        let lo_i = self.ids.partition_point(|&x| x.value() < low);
        let hi_i = self.ids.partition_point(|&x| x.value() <= high_incl);
        if lo_i == hi_i {
            return None;
        }
        let span = hi_i - lo_i;
        let h = mix64(fold(owner) ^ ((u64::from(l) << 16) | u64::from(c)));
        Some(self.ids[lo_i + (h as usize) % span])
    }

    /// Synthetic proximity coordinates of `id` on the unit square, hashed
    /// from the id (the materialised network draws them from the topology
    /// RNG; the arena cannot afford n stored pairs to be faithful to the
    /// draw order, so it substitutes an id-determined point).
    pub fn coord(&self, id: Id) -> (f64, f64) {
        let hx = mix64(fold(id) ^ 0x517C_C1B7_2722_0A95);
        let hy = mix64(hx ^ 0x2545_F491_4F6C_DD1D);
        (unit_f64(hx), unit_f64(hy))
    }

    /// Synthetic latency between two hosts (Euclidean over [`coord`]).
    ///
    /// [`coord`]: Self::coord
    pub fn proximity(&self, a: Id, b: Id) -> f64 {
        let ((ax, ay), (bx, by)) = (self.coord(a), self.coord(b));
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }

    /// The core neighbor set `N_s` of the member at `rank` into a
    /// caller-owned buffer: leaf set plus every routing-table cell,
    /// sorted and deduplicated — the arena-facing walk API matching
    /// [`PastryNode::core_neighbors_into`] and keeping its contract:
    /// ascending, without repeats, and without the member itself.
    ///
    /// [`PastryNode::core_neighbors_into`]: crate::PastryNode::core_neighbors_into
    pub fn core_neighbors_into(&self, rank: usize, out: &mut Vec<Id>) {
        out.clear();
        let Some(&owner) = self.ids.get(rank) else {
            return;
        };
        self.push_leaves(rank, out);
        let arity = 1u16 << self.config.digit_bits;
        for l in 0..self.config.digit_count {
            for c in 0..arity {
                if let Some(w) = self.cell(rank, l, c) {
                    out.push(w);
                }
            }
        }
        out.retain(|&w| w != owner);
        out.sort_unstable();
        out.dedup();
    }

    /// Append the leaf set of `rank` to `out` without clearing it.
    fn push_leaves(&self, rank: usize, out: &mut Vec<Id>) {
        let start = out.len();
        let n = self.ids.len();
        if n <= 1 {
            return;
        }
        let take = self.config.leaf_half.min((n - 1) / 2).max(1);
        let mut cur = rank;
        for _ in 0..take {
            let prev = (cur + n - 1) % n;
            if prev == rank || out[start..].contains(&self.ids[prev]) {
                break;
            }
            out.push(self.ids[prev]);
            cur = prev;
        }
        out[start..].reverse();
        let mut cur = rank;
        for _ in 0..take {
            let next = (cur + 1) % n;
            if next == rank || out[start..].contains(&self.ids[next]) {
                break;
            }
            out.push(self.ids[next]);
            cur = next;
        }
    }

    /// Whether the member at `rank` knows any node strictly closer to
    /// `key` than itself — the materialised network's dead-end test over
    /// the full known set (core structures plus `extra`).
    fn knows_closer(&self, rank: usize, key: Id, extra: &[Id], scratch: &mut ArenaScratch) -> bool {
        let current = self.ids[rank];
        let cur_key = (self.ring_abs(current, key), current.value());
        let known = &mut scratch.known;
        known.clear();
        self.push_leaves(rank, known);
        let arity = 1u16 << self.config.digit_bits;
        for l in 0..self.config.digit_count {
            for c in 0..arity {
                if let Some(w) = self.cell(rank, l, c) {
                    known.push(w);
                }
            }
        }
        known.extend_from_slice(extra);
        known
            .iter()
            .any(|&w| w != current && (self.ring_abs(w, key), w.value()) < cur_key)
    }

    /// The forwarding decision at `rank` for `key` (`None` = the member
    /// believes it is the destination), mirroring the materialised
    /// network's three rules over the virtual state:
    ///
    /// 1. leaf-set short-circuit when the key falls inside the leaf arc;
    /// 2. prefix progress with the configured tie-break — of the table
    ///    cells only (row `lcp`, column = key's next digit) can advance
    ///    the prefix, so the candidate set is that cell plus qualifying
    ///    leaf/auxiliary entries;
    /// 3. numerically closer at the same prefix length.
    fn decide_hop(
        &self,
        rank: usize,
        key: Id,
        extra: &[Id],
        scratch: &mut ArenaScratch,
    ) -> Option<Id> {
        let current = self.ids[rank];
        if current == key {
            return None;
        }
        let space = self.config.space;
        let cur_key = (self.ring_abs(current, key), current.value());
        let ArenaScratch { leaves, known } = scratch;
        self.leaves_into(rank, leaves);

        // 1. Leaf-set short-circuit.
        if let (Some(&ccw_most), Some(&cw_most)) = (leaves.first(), leaves.last()) {
            let arc = space.clockwise_distance(ccw_most, cw_most);
            if space.clockwise_distance(ccw_most, key) <= arc {
                let best = leaves
                    .iter()
                    .map(|&w| (self.ring_abs(w, key), w.value()))
                    .min();
                return match best {
                    Some(best) if best < cur_key => Some(Id::new(best.1)),
                    _ => None,
                };
            }
        }

        // 2. Prefix progress.
        let l = self.lcp(current, key);
        let cell_cand = space
            .digit(key, l, self.config.digit_bits)
            .ok()
            .and_then(|kd| self.cell(rank, l, kd));
        known.clear();
        known.extend(
            leaves
                .iter()
                .chain(extra.iter())
                .copied()
                .filter(|&w| w != current && self.lcp(w, key) > l)
                .chain(cell_cand),
        );
        known.sort_unstable();
        known.dedup();
        if let Some(best_lcp) = known.iter().map(|&w| self.lcp(w, key)).max() {
            let bucket = known
                .iter()
                .copied()
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
            if let Some(chosen) = chosen {
                return Some(chosen);
            }
        }

        // 3. Same prefix length but numerically closer. Table rows below
        //    `l` share fewer digits with the key and cannot qualify.
        known.clear();
        known.extend_from_slice(leaves);
        known.extend_from_slice(extra);
        let arity = 1u16 << self.config.digit_bits;
        for r in l..self.config.digit_count {
            for c in 0..arity {
                if let Some(w) = self.cell(rank, r, c) {
                    known.push(w);
                }
            }
        }
        known
            .iter()
            .copied()
            .filter(|&w| w != current && self.lcp(w, key) >= l)
            .map(|w| (self.ring_abs(w, key), w.value()))
            .filter(|&cand| cand < cur_key)
            .min()
            .map(|(_, w)| Id::new(w))
    }

    /// Route a query for `key` from `from`, resolving auxiliary sets
    /// through `aux_of` (all members are live in an arena, so there are
    /// no failed probes). Returns `None` when `from` is not a member or
    /// a hop leaves the arena — unreachable for engine-produced inputs,
    /// kept total rather than panicking.
    ///
    /// This walk stays separate from the network's single step function
    /// ([`PastryNetwork::route_step_faults`](crate::PastryNetwork::route_step_faults)):
    /// it reads routing state derived on demand from the sorted id array
    /// (hash-picked cells, prefix-range slices) rather than per-node
    /// tables, and an immutable all-live membership needs no probes,
    /// traces or fault plan. Sharing the step would mean materialising
    /// the tables the arena exists to avoid.
    pub fn route_with_aux<'a, F>(
        &'a self,
        from: Id,
        key: Id,
        aux_of: F,
        scratch: &mut ArenaScratch,
    ) -> Option<ArenaRoute>
    where
        F: Fn(Id) -> &'a [Id],
    {
        let mut rank = self.rank_of(from)?;
        let owner = self.true_owner(key)?;
        let mut hops = 0u32;
        loop {
            if hops >= self.config.hop_limit {
                return Some(ArenaRoute {
                    outcome: RouteOutcome::HopLimit,
                    hops,
                });
            }
            let current = self.ids[rank];
            match self.decide_hop(rank, key, aux_of(current), scratch) {
                None => {
                    let outcome = if current == owner {
                        RouteOutcome::Success
                    } else if self.knows_closer(rank, key, aux_of(current), scratch) {
                        RouteOutcome::DeadEnd(current)
                    } else {
                        RouteOutcome::WrongOwner(current)
                    };
                    return Some(ArenaRoute { outcome, hops });
                }
                Some(next) => {
                    hops += 1;
                    rank = self.rank_of(next)?;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PastryNetwork;
    use peercache_id::IdSpace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_ids(space: IdSpace, n: usize, seed: u64) -> Vec<Id> {
        // Deterministic spread-out ids, distinct by construction.
        let size = space.size().unwrap();
        (0..n)
            .map(|i| Id::new((i as u128 * size / n as u128 + u128::from(seed % 7)) & (size - 1)))
            .collect()
    }

    fn arena(n: usize) -> (PastryArena, PastryNetwork) {
        let space = IdSpace::new(10).unwrap();
        let config = PastryConfig::new(space, 1);
        let ids = sample_ids(space, n, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let net = PastryNetwork::build(config, &ids, &mut rng);
        (PastryArena::new(config, ids), net)
    }

    #[test]
    fn true_owner_matches_materialised_network() {
        let (arena, net) = arena(48);
        for key in 0..1024u128 {
            assert_eq!(
                arena.true_owner(Id::new(key)),
                net.true_owner(Id::new(key)),
                "owner of {key}"
            );
        }
    }

    #[test]
    fn leaf_sets_match_materialised_network() {
        let (arena, net) = arena(48);
        let mut buf = Vec::new();
        for (rank, &id) in arena.ids().iter().enumerate() {
            arena.leaves_into(rank, &mut buf);
            assert_eq!(buf, net.node(id).unwrap().leaves, "leaves of {id}");
        }
    }

    #[test]
    fn leaf_sets_handle_tiny_rings() {
        let space = IdSpace::new(10).unwrap();
        let config = PastryConfig::new(space, 1);
        for n in 1..=5 {
            let ids = sample_ids(space, n, 0);
            let mut rng = StdRng::seed_from_u64(1);
            let net = PastryNetwork::build(config, &ids, &mut rng);
            let a = PastryArena::new(config, ids);
            let mut buf = Vec::new();
            for (rank, &id) in a.ids().iter().enumerate() {
                a.leaves_into(rank, &mut buf);
                assert_eq!(buf, net.node(id).unwrap().leaves, "n={n} leaves of {id}");
            }
        }
    }

    #[test]
    fn cells_hold_structurally_valid_entries() {
        let (arena, _) = arena(64);
        let space = arena.config().space;
        for rank in 0..arena.len() {
            let owner = arena.ids()[rank];
            for l in 0..arena.config().digit_count {
                for c in 0..2u16 {
                    if let Some(entry) = arena.cell(rank, l, c) {
                        assert_ne!(entry, owner);
                        assert_eq!(
                            space.common_prefix_digits(owner, entry, 1).unwrap(),
                            l,
                            "cell ({l},{c}) of {owner} shares exactly l digits"
                        );
                        assert_eq!(space.digit(entry, l, 1).unwrap(), c);
                    }
                }
            }
        }
    }

    #[test]
    fn own_digit_column_stays_empty() {
        let (arena, _) = arena(64);
        let space = arena.config().space;
        for rank in 0..arena.len() {
            let owner = arena.ids()[rank];
            for l in 0..arena.config().digit_count {
                let own = space.digit(owner, l, 1).unwrap();
                assert_eq!(arena.cell(rank, l, own), None);
            }
        }
    }

    #[test]
    fn routing_reaches_the_true_owner_from_everywhere() {
        let (arena, _) = arena(48);
        let mut scratch = ArenaScratch::new();
        for &from in arena.ids() {
            for key in (0..1024u128).step_by(37) {
                let key = Id::new(key);
                let route = arena
                    .route_with_aux(from, key, |_| &[], &mut scratch)
                    .expect("member origin");
                assert!(
                    route.is_success(),
                    "route {from} → {key} ended {:?}",
                    route.outcome
                );
                assert!(route.hops <= arena.config().hop_limit);
            }
        }
    }

    #[test]
    fn routing_is_deterministic() {
        let (arena, _) = arena(48);
        let mut s1 = ArenaScratch::new();
        let mut s2 = ArenaScratch::new();
        let aux = [arena.ids()[7], arena.ids()[31]];
        for key in (0..1024u128).step_by(101) {
            let a = arena.route_with_aux(arena.ids()[0], Id::new(key), |_| &aux[..], &mut s1);
            let b = arena.route_with_aux(arena.ids()[0], Id::new(key), |_| &aux[..], &mut s2);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn core_neighbors_are_sorted_distinct_members() {
        let (arena, _) = arena(48);
        let mut buf = Vec::new();
        for rank in 0..arena.len() {
            arena.core_neighbors_into(rank, &mut buf);
            assert!(buf.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
            assert!(!buf.contains(&arena.ids()[rank]));
            for &w in &buf {
                assert!(arena.rank_of(w).is_some(), "all entries are members");
            }
        }
    }
}
