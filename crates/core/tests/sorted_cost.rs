//! The `O(n log m)` eq. (1) evaluators against the direct oracles:
//! `chord_cost_sorted` / `pastry_cost_sorted` must reproduce
//! `chord_cost` / `pastry_cost` to the bit on every instance — including
//! 128-bit spaces, ragged last digits (d ∤ b), an empty `N ∪ A`, aux
//! sets that contain the queried peer, neighbors past the peer on the
//! ring, and ids that wrap past 0.

use peercache_core::cost::{chord_cost, chord_cost_sorted, pastry_cost, pastry_cost_sorted};
use peercache_core::{Candidate, ChordProblem, PastryProblem};
use peercache_id::{Id, IdSpace};
use proptest::prelude::*;

/// A raw instance: ids are derived from `base` by flipping the bits below
/// a random shift, so they share prefixes of every length with each
/// other (plain random 128-bit ids would share almost none).
#[derive(Debug, Clone)]
struct Raw {
    bits: u8,
    digit_bits: u8,
    base: u128,
    offsets: Vec<(u128, u32)>,
    weights: Vec<f64>,
    n_core: usize,
    aux_mask: u64,
}

fn raw() -> impl Strategy<Value = Raw> {
    (
        0usize..5,
        1u8..=16,
        any::<u128>(),
        proptest::collection::vec((any::<u128>(), 0u32..128), 1..48),
        proptest::collection::vec(0.0f64..1000.0, 48),
        0usize..6,
        prop_oneof![Just(0u64), any::<u64>()],
    )
        .prop_map(|(b, d, base, offsets, weights, n_core, aux_mask)| {
            let bits = [5, 11, 32, 127, 128][b];
            Raw {
                bits,
                digit_bits: 1 + (d - 1) % bits.min(16),
                base,
                offsets,
                weights,
                n_core,
                aux_mask,
            }
        })
}

/// A split instance: source, core, candidates (with weights) and an aux
/// set drawn from the candidates.
struct Instance {
    space: IdSpace,
    source: Id,
    core: Vec<Id>,
    candidates: Vec<Candidate>,
    aux: Vec<Id>,
}

fn mask(bits: u8) -> u128 {
    if bits == 128 {
        u128::MAX
    } else {
        (1u128 << bits) - 1
    }
}

fn split(raw: &Raw) -> Instance {
    let space = IdSpace::new(raw.bits).expect("valid width");
    let mut ids: Vec<u128> = raw
        .offsets
        .iter()
        .map(|&(r, shift)| (raw.base ^ r.checked_shr(shift).unwrap_or(0)) & mask(raw.bits))
        .collect();
    // Keep generation order (it shuffles source/core/candidates) but drop
    // repeats.
    let mut seen = std::collections::BTreeSet::new();
    ids.retain(|&id| seen.insert(id));
    let source = Id::new(ids[0]);
    let rest = &ids[1..];
    let n_core = raw.n_core.min(rest.len());
    let core: Vec<Id> = rest[..n_core].iter().map(|&v| Id::new(v)).collect();
    let mut cand_ids: Vec<Id> = rest[n_core..].iter().map(|&v| Id::new(v)).collect();
    // Candidates in ascending id order, as the overlay's ring pool is.
    cand_ids.sort();
    let candidates: Vec<Candidate> = cand_ids
        .iter()
        .zip(&raw.weights)
        .map(|(&id, &w)| Candidate::new(id, w))
        .collect();
    let aux: Vec<Id> = cand_ids
        .iter()
        .enumerate()
        .filter(|&(i, _)| i < 64 && raw.aux_mask >> i & 1 == 1)
        .map(|(_, &id)| id)
        .collect();
    Instance {
        space,
        source,
        core,
        candidates,
        aux,
    }
}

fn weighted(candidates: &[Candidate]) -> impl Iterator<Item = (Id, f64)> + '_ {
    candidates.iter().map(|c| (c.id, c.weight))
}

fn chord_fast(inst: &Instance) -> f64 {
    let mut neighbors: Vec<Id> = inst.core.iter().chain(&inst.aux).copied().collect();
    neighbors.sort_by_key(|&w| inst.space.clockwise_distance(inst.source, w));
    chord_cost_sorted(
        inst.space,
        inst.source,
        &neighbors,
        weighted(&inst.candidates),
    )
}

fn chord_oracle(inst: &Instance) -> f64 {
    let problem = ChordProblem::new(
        inst.space,
        inst.source,
        inst.core.clone(),
        inst.candidates.clone(),
        inst.aux.len(),
    )
    .expect("well-formed instance");
    chord_cost(&problem, &inst.aux)
}

fn pastry_fast(inst: &Instance, digit_bits: u8) -> f64 {
    let mut neighbors: Vec<Id> = inst.core.iter().chain(&inst.aux).copied().collect();
    neighbors.sort();
    pastry_cost_sorted(
        inst.space,
        digit_bits,
        &neighbors,
        weighted(&inst.candidates),
    )
    .expect("valid digit width")
}

fn pastry_oracle(inst: &Instance, digit_bits: u8) -> f64 {
    let problem = PastryProblem::new(
        inst.space,
        digit_bits,
        inst.source,
        inst.core.clone(),
        inst.candidates.clone(),
        inst.aux.len(),
    )
    .expect("well-formed instance");
    pastry_cost(&problem, &inst.aux)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn chord_sorted_cost_matches_oracle_bits(raw in raw()) {
        let inst = split(&raw);
        prop_assert_eq!(chord_fast(&inst).to_bits(), chord_oracle(&inst).to_bits());
    }

    #[test]
    fn pastry_sorted_cost_matches_oracle_bits(raw in raw()) {
        let inst = split(&raw);
        prop_assert_eq!(
            pastry_fast(&inst, raw.digit_bits).to_bits(),
            pastry_oracle(&inst, raw.digit_bits).to_bits(),
            "b = {}, d = {}", raw.bits, raw.digit_bits
        );
    }
}

/// (bits, digit_bits, source, core, candidates, aux).
type Case = (u8, u8, u128, Vec<u128>, Vec<u128>, Vec<u128>);

fn id(v: u128) -> Id {
    Id::new(v)
}

/// The named edge cases, pinned so they never depend on what the random
/// strategy happens to draw.
#[test]
fn edge_cases_match_oracle_bits() {
    let top = u128::MAX;
    let cases: Vec<Case> = vec![
        // Empty N ∪ A: every peer costs the worst case.
        (128, 4, 7, vec![], vec![1, 9, top], vec![]),
        // Aux containing the queried peer; a neighbor past it on the ring.
        (
            128,
            16,
            0,
            vec![top - 3],
            vec![5, 1 << 100, top - 1],
            vec![1 << 100],
        ),
        // Ids wrapping past 0 from a source near the top of the ring.
        (
            128,
            3,
            top - 10,
            vec![2],
            vec![top - 4, 0, 1, 3, 1 << 127],
            vec![0],
        ),
        // Ragged last digit: 11 bits in digits of 4.
        (
            11,
            4,
            1000,
            vec![3, 2047],
            vec![0, 1001, 1500, 2046],
            vec![1500],
        ),
        // The whole 5-bit ring around a source at 31.
        (
            5,
            2,
            31,
            vec![0, 15],
            (1..31).filter(|&v| v != 15).collect(),
            vec![16, 30],
        ),
    ];
    for (bits, digit_bits, source, core, candidates, aux) in cases {
        let inst = Instance {
            space: IdSpace::new(bits).unwrap(),
            source: id(source),
            core: core.into_iter().map(id).collect(),
            candidates: candidates
                .into_iter()
                .enumerate()
                .map(|(i, v)| Candidate::new(id(v), 0.1 + i as f64 * 1.7))
                .collect(),
            aux: aux.into_iter().map(id).collect(),
        };
        assert_eq!(
            chord_fast(&inst).to_bits(),
            chord_oracle(&inst).to_bits(),
            "chord, b = {bits}, source {source}"
        );
        assert_eq!(
            pastry_fast(&inst, digit_bits).to_bits(),
            pastry_oracle(&inst, digit_bits).to_bits(),
            "pastry, b = {bits}, d = {digit_bits}"
        );
    }
}

#[test]
fn pastry_sorted_cost_rejects_an_invalid_digit_width() {
    let space = IdSpace::new(8).unwrap();
    assert!(pastry_cost_sorted(space, 0, &[], [(id(1), 1.0)]).is_err());
    assert!(pastry_cost_sorted(space, 9, &[], [(id(1), 1.0)]).is_err());
}
