//! Direct evaluation of the paper's objective (eq. 1).
//!
//! These evaluators compute `Cost(A) = Σ_v f_v (1 + d(v, N ∪ A))` straight
//! from the definition, with no dynamic programming. They are the ground
//! truth every optimiser in this crate is validated against, and the
//! reporting path for experiments.

use peercache_id::{Id, IdError, IdSpace};

use crate::baseline::prefix_block;
use crate::cast::count_to_f64;
use crate::clockwise::Clockwise;
use crate::problem::{Candidate, ChordProblem, PastryProblem};

/// Pastry distance estimate `d(v, S)`: the minimum over `w ∈ S` of the
/// digits-to-fix estimate (paper §IV). With `S = ∅` the estimate is the
/// full digit count (nothing is known about `v`, routing may fix every
/// digit).
pub fn pastry_set_distance(space: IdSpace, digit_bits: u8, v: Id, set: &[Id]) -> u32 {
    let max = u32::from(
        space
            .digit_count(digit_bits)
            .expect("validated digit width"),
    );
    set.iter()
        .map(|&w| {
            space
                .pastry_hops(v, w, digit_bits)
                .expect("validated digit width")
        })
        .min()
        .unwrap_or(max)
}

/// Chord distance estimate `d(S, v)` as seen from `source`: the minimum
/// over usable `w ∈ S` of the leftmost-one estimate from `w` to `v`
/// (paper eq. 6).
///
/// Only neighbors on the clockwise arc from `source` to `v` are usable —
/// Chord forwards exclusively to a neighbor *between* the current node
/// and the target, so a neighbor past `v` never serves a lookup for `v`
/// (this is also what the paper's recurrences credit). With no usable
/// neighbor the estimate is `b` (worst case).
pub fn chord_set_distance(space: IdSpace, source: Id, v: Id, set: &[Id]) -> u32 {
    let dv = space.clockwise_distance(source, v);
    set.iter()
        .filter(|&&w| space.clockwise_distance(source, w) <= dv)
        .map(|&w| space.chord_hops(w, v))
        .min()
        .unwrap_or(space.max_chord_hops())
}

pub(crate) fn total_cost<I, F>(candidates: I, mut dist: F) -> f64
where
    I: IntoIterator<Item = (Id, f64)>,
    F: FnMut(Id) -> u32,
{
    candidates
        .into_iter()
        .map(|(v, weight)| weight * (1.0 + f64::from(dist(v))))
        .sum()
}

fn weighted(candidates: &[Candidate]) -> impl Iterator<Item = (Id, f64)> + '_ {
    candidates.iter().map(|c| (c.id, c.weight))
}

/// Evaluate eq. (1) for a Pastry problem with auxiliary set `aux`.
pub fn pastry_cost(problem: &PastryProblem, aux: &[Id]) -> f64 {
    let mut neighbors: Vec<Id> = problem.core.clone();
    neighbors.extend_from_slice(aux);
    total_cost(weighted(&problem.candidates), |v| {
        pastry_set_distance(problem.space, problem.digit_bits, v, &neighbors)
    })
}

/// Evaluate eq. (1) for a Chord problem with auxiliary set `aux`.
pub fn chord_cost(problem: &ChordProblem, aux: &[Id]) -> f64 {
    let mut neighbors: Vec<Id> = problem.core.clone();
    neighbors.extend_from_slice(aux);
    total_cost(weighted(&problem.candidates), |v| {
        chord_set_distance(problem.space, problem.source, v, &neighbors)
    })
}

/// [`chord_cost`] of the uniform whole-ring problem, by counting: eq. (1)
/// at unit weight over the members of the sorted, repeat-free `ring` other than
/// `source` and the ids of `core`, with `N ∪ A` given as `neighbors`
/// (a superset of `core`) **sorted by clockwise distance from `source`**.
///
/// Each neighbor `w` serves the ring members from it up to the next
/// neighbor clockwise, at the leftmost-one estimate from `w`; the members
/// before the first neighbor cost `b`, and the core members, being
/// neighbors, cost nothing. Each neighbor's arc is cut into its non-empty
/// leftmost-one bands by binary search, so the work is `O(m · b · log n)`
/// for `m = |N ∪ A|`, not a pass over the ring.
/// Every term is an integer, so the sum is exact and order-free: the
/// result equals [`chord_cost`]'s f64 sum bit for bit while the total
/// stays below `2^53`, including the float sum of no terms for an empty
/// candidate set.
pub fn chord_cost_counted(
    space: IdSpace,
    source: Id,
    ring: &[Id],
    core: &[Id],
    neighbors: &[Id],
) -> f64 {
    let arcs = Clockwise::new(space, ring, source);
    let unserved = u64::from(space.max_chord_hops());
    // Each neighbor's arc starts at the position of its own distance and
    // runs to the next neighbor's start.
    let starts = neighbors
        .iter()
        .map(|&w| (Some(w), arcs.closer(space.clockwise_distance(source, w))))
        .chain([(None, arcs.len())]);
    let (mut server, mut from, mut hops) = (None, 0, 0);
    for (next, to) in starts {
        hops += match server {
            None => unserved * len64(to.saturating_sub(from)),
            Some(w) => (arcs.runs(from, to).iter())
                .map(|run| band_hops(space, w, run))
                .sum(),
        };
        (server, from) = (next, to);
    }
    let cost = unit_cost(arcs.len(), ring, source, core, hops);
    #[cfg(feature = "check-invariants")]
    crate::invariants::assert_counted_cost_matches_direct(ring, source, core, cost, |v| {
        chord_set_distance(space, source, v, neighbors)
    });
    cost
}

/// `Σ chord_hops(w, v)` over a run whose clockwise distance from `w`
/// grows along it: each non-empty leftmost-one band `[2^(i−1), 2^i)` is
/// a sub-run found by binary search, so the work is `O(bands · log len)`.
fn band_hops(space: IdSpace, w: Id, run: &[Id]) -> u64 {
    let mut hops = 0;
    let mut rest = run;
    while let Some(&v) = rest.first() {
        let band = space.chord_hops(w, v);
        let width = match 1u128.checked_shl(band) {
            Some(end) => rest.partition_point(|&u| space.clockwise_distance(w, u) < end),
            None => rest.len(),
        };
        let (inside, tail) = rest.split_at(width);
        hops += u64::from(band) * len64(inside.len());
        rest = tail;
    }
    hops
}

/// [`pastry_cost`] of the uniform whole-ring problem, by counting: eq. (1)
/// at unit weight over the members of the sorted, repeat-free `ring` other than
/// `source` and the ids of `core`, with `N ∪ A` given as `neighbors` (a
/// superset of `core`) **sorted by id**.
///
/// A peer's estimate is the digit count minus the most digits it shares
/// with a neighbor, so the ring's total of shared digits is, summed over
/// the levels `L`, the ring members inside the union of the neighbors'
/// level-`L` prefix blocks. A descent over the sorted neighbors counts
/// each block by binary search and stops at blocks holding one member,
/// so the work is `O(m · L* · log n)` for `m = |N ∪ A|` and `L*` the
/// level at which blocks thin out to one member (about `log n / d`
/// levels of `d`-bit digits), not a pass over the ring. The result
/// equals [`pastry_cost`]'s f64 sum bit for bit for the reasons given at
/// [`chord_cost_counted`].
///
/// # Errors
/// [`IdError::InvalidDigitBits`] when `digit_bits` is not a valid digit
/// width for `space`.
pub fn pastry_cost_counted(
    space: IdSpace,
    digit_bits: u8,
    source: Id,
    ring: &[Id],
    core: &[Id],
    neighbors: &[Id],
) -> Result<f64, IdError> {
    let count = space.digit_count(digit_bits)?;
    let blocks = Blocks {
        space,
        digit_bits,
        count,
    };
    let source_in_ring = ring.binary_search(&source).is_ok();
    let members = ring.len() - usize::from(source_in_ring);
    // Σ over the members of the most digits shared with a neighbor: the
    // whole ring's, less the source's own.
    let own = if source_in_ring {
        u64::from(blocks.most_shared(source, neighbors))
    } else {
        0
    };
    let shared = blocks.shared_digits(0, neighbors, ring).saturating_sub(own);
    let hops = (u64::from(count) * len64(members)).saturating_sub(shared);
    let cost = unit_cost(members, ring, source, core, hops);
    #[cfg(feature = "check-invariants")]
    crate::invariants::assert_counted_cost_matches_direct(ring, source, core, cost, |v| {
        pastry_set_distance(space, digit_bits, v, neighbors)
    });
    Ok(cost)
}

/// The prefix blocks of one Pastry digit width.
struct Blocks {
    space: IdSpace,
    digit_bits: u8,
    count: u8,
}

impl Blocks {
    /// The most whole digits `v` shares with a member of the sorted
    /// `set`: the longest common prefix with a sorted set is attained at
    /// `v`'s predecessor or successor in it.
    fn most_shared(&self, v: Id, set: &[Id]) -> u8 {
        let at = set.partition_point(|&w| w < v);
        let before = at.checked_sub(1).and_then(|i| set.get(i));
        [before, set.get(at)]
            .into_iter()
            .flatten()
            .filter_map(|&w| {
                (self.space)
                    .common_prefix_digits(v, w, self.digit_bits)
                    .ok()
            })
            .max()
            .unwrap_or(0)
    }

    /// `Σ_v (most_shared(v, group) − level)` over the sorted `members`,
    /// where `group` (sorted; empty shares nothing) and `members` lie in one
    /// level-`level` block: each level past `level` at which `v` sits in
    /// the prefix block of a `group` id counts once.
    fn shared_digits(&self, level: u8, group: &[Id], members: &[Id]) -> u64 {
        if level >= self.count {
            return 0;
        }
        match members {
            [] => return 0,
            [v] => return u64::from(self.most_shared(*v, group).saturating_sub(level)),
            _ => {}
        }
        let bits = (level + 1).saturating_mul(self.digit_bits);
        let mut shared = 0;
        let mut rest = group;
        while let Some(&w) = rest.first() {
            let (lo, hi) = prefix_block(self.space, w, bits);
            let (sub, tail) = rest.split_at(rest.partition_point(|&u| u <= hi));
            let start = members.partition_point(|&v| v < lo);
            let end = members.partition_point(|&v| v <= hi);
            let inside = members.get(start..end).unwrap_or_default();
            shared += len64(inside.len()) + self.shared_digits(level + 1, sub, inside);
            rest = tail;
        }
        shared
    }
}

/// Eq. (1) at unit weight from the ring-wide hop total: the candidates
/// are the `members` (the ring without `source`) minus the distinct core
/// ids in the ring other than `source`, each costing `1 + d`; a core
/// member's `d` is 0, so `hops` over the members is also the total over
/// the candidates.
fn unit_cost(members: usize, ring: &[Id], source: Id, core: &[Id], hops: u64) -> f64 {
    let live_core = (core.iter().enumerate())
        .filter(|&(i, c)| {
            *c != source && !core.iter().take(i).any(|d| d == c) && ring.binary_search(c).is_ok()
        })
        .count();
    let candidates = members.saturating_sub(live_core);
    if candidates == 0 {
        // The direct evaluators' float sum of no terms.
        return std::iter::empty::<f64>().sum();
    }
    count_to_f64(len64(candidates) + hops)
}

fn len64(len: usize) -> u64 {
    u64::try_from(len).unwrap_or(u64::MAX)
}

/// Whether every QoS delay bound in `candidates` is met by `N ∪ A` under
/// the Pastry distance estimate: `1 + d(v, N ∪ A) ≤ max_hops`.
#[allow(clippy::int_plus_one)] // mirrors the paper's `1 + d(v, N ∪ A) ≤ x` form
pub fn pastry_qos_satisfied(problem: &PastryProblem, aux: &[Id]) -> bool {
    let mut neighbors: Vec<Id> = problem.core.clone();
    neighbors.extend_from_slice(aux);
    problem.candidates.iter().all(|c| match c.max_hops {
        None => true,
        Some(bound) => {
            1 + pastry_set_distance(problem.space, problem.digit_bits, c.id, &neighbors) <= bound
        }
    })
}

/// Whether every QoS delay bound in `candidates` is met by `N ∪ A` under
/// the Chord distance estimate.
#[allow(clippy::int_plus_one)] // mirrors the paper's `1 + d(v, N ∪ A) ≤ x` form
pub fn chord_qos_satisfied(problem: &ChordProblem, aux: &[Id]) -> bool {
    let mut neighbors: Vec<Id> = problem.core.clone();
    neighbors.extend_from_slice(aux);
    problem.candidates.iter().all(|c| match c.max_hops {
        None => true,
        Some(bound) => {
            1 + chord_set_distance(problem.space, problem.source, c.id, &neighbors) <= bound
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Candidate;

    fn id(v: u128) -> Id {
        Id::new(v)
    }

    fn space() -> IdSpace {
        IdSpace::new(4).unwrap()
    }

    #[test]
    fn pastry_set_distance_takes_minimum() {
        let s = space();
        // v = 0b1011; 0b1111 shares 1 bit (dist 3), 0b1010 shares 3 (dist 1).
        let d = pastry_set_distance(s, 1, id(0b1011), &[id(0b1111), id(0b1010)]);
        assert_eq!(d, 1);
    }

    #[test]
    fn pastry_set_distance_empty_is_digit_count() {
        assert_eq!(pastry_set_distance(space(), 1, id(3), &[]), 4);
        assert_eq!(pastry_set_distance(space(), 2, id(3), &[]), 2);
    }

    #[test]
    fn pastry_member_distance_is_zero() {
        assert_eq!(pastry_set_distance(space(), 1, id(3), &[id(3)]), 0);
    }

    #[test]
    fn chord_set_distance_respects_direction() {
        let s = space();
        // From source 0 to v = 4: neighbor 3 precedes v (cw dist 3 ≤ 4)
        // and is 1 away; neighbor 5 is past v and unusable.
        assert_eq!(chord_set_distance(s, id(0), id(4), &[id(3)]), 1);
        assert_eq!(chord_set_distance(s, id(0), id(4), &[id(5)]), 4);
        assert_eq!(chord_set_distance(s, id(0), id(4), &[id(3), id(5)]), 1);
    }

    #[test]
    fn chord_set_distance_ignores_neighbors_past_target() {
        let s = space();
        // Neighbor 15 is 2 ids behind v = 1 on the raw ring (bitlen 2),
        // but from source 0 it lies PAST v, so Chord cannot use it.
        assert_eq!(chord_set_distance(s, id(0), id(1), &[id(15)]), 4);
        // From source 14 the same neighbor precedes v and is usable.
        assert_eq!(chord_set_distance(s, id(14), id(1), &[id(15)]), 2);
    }

    #[test]
    fn chord_set_distance_empty_is_bits() {
        assert_eq!(chord_set_distance(space(), id(0), id(4), &[]), 4);
    }

    #[test]
    fn pastry_cost_matches_hand_computation() {
        let s = space();
        let problem = PastryProblem::new(
            s,
            1,
            id(0b0000),
            vec![id(0b1000)], // core: shares 0 bits with 0b0111 → d 4... etc.
            vec![
                Candidate::new(id(0b1001), 2.0), // lcp with core 1000 = 3 → d 1
                Candidate::new(id(0b0111), 5.0), // lcp with core = 0 → d 4
            ],
            1,
        )
        .unwrap();
        // No aux: cost = 2(1+1) + 5(1+4) = 29.
        assert_eq!(pastry_cost(&problem, &[]), 29.0);
        // Aux at 0b0111: its distance drops to 0 → 2(1+1) + 5(1+0) = 9.
        assert_eq!(pastry_cost(&problem, &[id(0b0111)]), 9.0);
    }

    #[test]
    fn chord_cost_matches_hand_computation() {
        let s = space();
        let problem = ChordProblem::new(
            s,
            id(0),
            vec![id(1)],
            vec![
                Candidate::new(id(2), 1.0), // from core 1: cw 1 → d 1
                Candidate::new(id(9), 3.0), // from core 1: cw 8 → d 4
            ],
            1,
        )
        .unwrap();
        assert_eq!(chord_cost(&problem, &[]), 1.0 * 2.0 + 3.0 * 5.0);
        // Aux at 9 zeroes its own distance.
        assert_eq!(chord_cost(&problem, &[id(9)]), 1.0 * 2.0 + 3.0 * 1.0);
    }

    #[test]
    fn qos_checks_use_the_one_plus_distance_form() {
        let s = space();
        let problem = ChordProblem::new(
            s,
            id(0),
            vec![],
            vec![Candidate::with_max_hops(id(8), 1.0, 1)],
            1,
        )
        .unwrap();
        // Bound 1 hop ⇒ d must be 0 ⇒ only the node itself as neighbor works.
        assert!(!chord_qos_satisfied(&problem, &[]));
        assert!(chord_qos_satisfied(&problem, &[id(8)]));
    }
}
