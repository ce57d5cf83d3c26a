//! Direct evaluation of the paper's objective (eq. 1).
//!
//! These evaluators compute `Cost(A) = Σ_v f_v (1 + d(v, N ∪ A))` straight
//! from the definition, with no dynamic programming. They are the ground
//! truth every optimiser in this crate is validated against, and the
//! reporting path for experiments.

use peercache_id::{Id, IdError, IdSpace};

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

fn total_cost<I, F>(candidates: I, mut dist: F) -> f64
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

/// [`chord_cost`] in `O(n log m)`: eq. (1) over `(id, weight)`
/// candidates, with `N ∪ A` given as `neighbors` **sorted by clockwise
/// distance from `source`**.
///
/// The usable neighbors of `v` are a prefix of that order, and the
/// leftmost-one estimate only shrinks as a neighbor closes in on `v`, so
/// `d(v)` is read off the last usable one, found by binary search. The
/// sum runs in candidate order, so the result is bit-identical to
/// [`chord_cost`] over the same candidates in the same order.
pub fn chord_cost_sorted<I>(space: IdSpace, source: Id, neighbors: &[Id], candidates: I) -> f64
where
    I: IntoIterator<Item = (Id, f64)>,
{
    total_cost(candidates, |v| {
        let dv = space.clockwise_distance(source, v);
        let usable = neighbors.partition_point(|&w| space.clockwise_distance(source, w) <= dv);
        usable
            .checked_sub(1)
            .and_then(|last| neighbors.get(last))
            .map_or(space.max_chord_hops(), |&w| space.chord_hops(w, v))
    })
}

/// [`pastry_cost`] in `O(n log m)`: eq. (1) over `(id, weight)`
/// candidates, with `N ∪ A` given as `neighbors` **sorted by id**.
///
/// The longest common prefix of `v` with any member of a sorted set is
/// attained at `v`'s predecessor or successor in it, so `d(v)` needs only
/// those two. The sum runs in candidate order, so the result is
/// bit-identical to [`pastry_cost`] over the same candidates in the same
/// order.
///
/// # Errors
/// [`IdError::InvalidDigitBits`] when `digit_bits` is not a valid digit
/// width for `space`.
pub fn pastry_cost_sorted<I>(
    space: IdSpace,
    digit_bits: u8,
    neighbors: &[Id],
    candidates: I,
) -> Result<f64, IdError>
where
    I: IntoIterator<Item = (Id, f64)>,
{
    let count = u32::from(space.digit_count(digit_bits)?);
    Ok(total_cost(candidates, |v| {
        let at = neighbors.partition_point(|&w| w < v);
        let before = at.checked_sub(1).and_then(|i| neighbors.get(i));
        [before, neighbors.get(at)]
            .into_iter()
            .flatten()
            .filter_map(|&w| space.pastry_hops(v, w, digit_bits).ok())
            .min()
            .unwrap_or(count)
    }))
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
