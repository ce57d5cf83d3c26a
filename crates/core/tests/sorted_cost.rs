//! The ring kernels of the frequency-oblivious baseline against their
//! direct references:
//!
//! * `chord_cost_counted` / `pastry_cost_counted` must reproduce the
//!   direct `chord_cost` / `pastry_cost` oracles on the uniform
//!   whole-ring problem to the bit — including 128-bit spaces, ragged
//!   last digits (d ∤ b), an empty `N ∪ A`, aux sets, neighbors past a
//!   peer on the ring, ids that wrap past 0, dead core ids absent from
//!   the ring, a source absent from the ring and an empty candidate set;
//! * `SliceBuckets::fill_chord_slices` / `fill_prefix_slices` must equal
//!   a per-id `push` of every candidate in ascending id order: the same
//!   slices, in the same order.

use peercache_core::baseline::{prefix_slice, SliceBuckets};
use peercache_core::cost::{chord_cost, chord_cost_counted, pastry_cost, pastry_cost_counted};
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
    n_core: usize,
    dead_mask: u8,
    source_in_ring: bool,
    aux_mask: u64,
}

fn raw() -> impl Strategy<Value = Raw> {
    (
        0usize..5,
        1u8..=16,
        any::<u128>(),
        proptest::collection::vec((any::<u128>(), 0u32..128), 1..64),
        0usize..8,
        any::<u8>(),
        any::<bool>(),
        prop_oneof![Just(0u64), any::<u64>()],
    )
        .prop_map(
            |(b, d, base, offsets, n_core, dead_mask, source_in_ring, aux_mask)| {
                let bits = [5, 11, 32, 127, 128][b];
                Raw {
                    bits,
                    digit_bits: 1 + (d - 1) % bits.min(16),
                    base,
                    offsets,
                    n_core,
                    dead_mask,
                    source_in_ring,
                    aux_mask,
                }
            },
        )
}

/// A split instance: the sorted live ring, the source (in it or not),
/// its core (live members of the ring or dead ids absent from it), and
/// an aux set drawn from the candidates `ring \ ({source} ∪ core)`.
#[derive(Debug)]
struct Instance {
    space: IdSpace,
    source: Id,
    ring: Vec<Id>,
    core: Vec<Id>,
    aux: Vec<Id>,
}

impl Instance {
    fn new(space: IdSpace, source: u128, ring: &[u128], core: &[u128], aux: &[u128]) -> Self {
        let mut ring: Vec<Id> = ring.iter().copied().map(Id::new).collect();
        ring.sort();
        Instance {
            space,
            source: Id::new(source),
            ring,
            core: core.iter().copied().map(Id::new).collect(),
            aux: aux.iter().copied().map(Id::new).collect(),
        }
    }

    fn candidates(&self) -> Vec<Id> {
        (self.ring.iter().copied())
            .filter(|&v| v != self.source && !self.core.contains(&v))
            .collect()
    }

    fn sorted_core(&self) -> Vec<Id> {
        let mut core = self.core.clone();
        core.sort();
        core
    }
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
    let source = ids[0];
    let rest = &ids[1..];
    let n_core = raw.n_core.min(rest.len());
    let (core, candidates) = rest.split_at(n_core);
    let mut ring: Vec<u128> = candidates.to_vec();
    ring.extend(
        (core.iter().enumerate())
            .filter(|&(i, _)| raw.dead_mask >> i & 1 == 0)
            .map(|(_, &c)| c),
    );
    if raw.source_in_ring {
        ring.push(source);
    }
    let mut sorted = candidates.to_vec();
    sorted.sort();
    let aux: Vec<u128> = (sorted.iter().enumerate())
        .filter(|&(i, _)| i < 64 && raw.aux_mask >> i & 1 == 1)
        .map(|(_, &id)| id)
        .collect();
    Instance::new(space, source, &ring, core, &aux)
}

fn neighbors(inst: &Instance) -> Vec<Id> {
    inst.core.iter().chain(&inst.aux).copied().collect()
}

fn uniform(inst: &Instance) -> Vec<Candidate> {
    (inst.candidates().into_iter())
        .map(|v| Candidate::new(v, 1.0))
        .collect()
}

fn chord_counted(inst: &Instance) -> f64 {
    let mut neighbors = neighbors(inst);
    neighbors.sort_by_key(|&w| inst.space.clockwise_distance(inst.source, w));
    chord_cost_counted(inst.space, inst.source, &inst.ring, &inst.core, &neighbors)
}

fn chord_oracle(inst: &Instance) -> f64 {
    let problem = ChordProblem::new(
        inst.space,
        inst.source,
        inst.core.clone(),
        uniform(inst),
        inst.aux.len(),
    )
    .expect("well-formed instance");
    chord_cost(&problem, &inst.aux)
}

fn pastry_counted(inst: &Instance, digit_bits: u8) -> f64 {
    let mut neighbors = neighbors(inst);
    neighbors.sort();
    pastry_cost_counted(
        inst.space,
        digit_bits,
        inst.source,
        &inst.ring,
        &inst.core,
        &neighbors,
    )
    .expect("valid digit width")
}

fn pastry_oracle(inst: &Instance, digit_bits: u8) -> f64 {
    let problem = PastryProblem::new(
        inst.space,
        digit_bits,
        inst.source,
        inst.core.clone(),
        uniform(inst),
        inst.aux.len(),
    )
    .expect("well-formed instance");
    pastry_cost(&problem, &inst.aux)
}

/// The per-id reference: every candidate pushed in ascending id order
/// under its slice key.
fn pushed(inst: &Instance, key: impl Fn(Id) -> u32) -> SliceBuckets {
    let mut buckets = SliceBuckets::new();
    for v in inst.candidates() {
        buckets.push(key(v), v);
    }
    buckets
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn chord_counted_cost_matches_oracle_bits(raw in raw()) {
        let inst = split(&raw);
        prop_assert_eq!(chord_counted(&inst).to_bits(), chord_oracle(&inst).to_bits());
    }

    #[test]
    fn pastry_counted_cost_matches_oracle_bits(raw in raw()) {
        let inst = split(&raw);
        prop_assert_eq!(
            pastry_counted(&inst, raw.digit_bits).to_bits(),
            pastry_oracle(&inst, raw.digit_bits).to_bits(),
            "b = {}, d = {}", raw.bits, raw.digit_bits
        );
    }

    #[test]
    fn range_buckets_equal_the_per_id_push_scan(raw in raw()) {
        let inst = split(&raw);
        let (space, source, core) = (inst.space, inst.source, inst.sorted_core());
        let mut ranged = SliceBuckets::new();
        ranged.fill_chord_slices(space, &inst.ring, source, &core);
        prop_assert_eq!(&ranged, &pushed(&inst, |v| space.chord_hops(source, v)));
        let d = raw.digit_bits;
        ranged
            .fill_prefix_slices(space, d, &inst.ring, source, &core)
            .expect("valid digit width");
        prop_assert_eq!(
            &ranged,
            &pushed(&inst, |v| prefix_slice(space, d, source, v)),
            "b = {}, d = {}", raw.bits, d
        );
    }
}

/// A pinned instance: (bits, digit_bits, source, ring, core, aux). The
/// ring lists every live id, the source included when it is live; core
/// ids missing from it are dead.
type Case = (u8, u8, u128, Vec<u128>, Vec<u128>, Vec<u128>);

/// The named edge cases, pinned so they never depend on what the random
/// strategy happens to draw.
fn edge_cases() -> Vec<(&'static str, Case)> {
    let top = u128::MAX;
    vec![
        (
            "empty N ∪ A: every peer costs the worst case",
            (128, 4, 7, vec![1, 7, 9, top], vec![], vec![]),
        ),
        (
            "aux holding a peer; a neighbor past another on the ring",
            (
                128,
                16,
                0,
                vec![0, 5, 1 << 100, top - 3, top - 1],
                vec![top - 3],
                vec![1 << 100],
            ),
        ),
        (
            "ids wrapping past 0 from a source near the top",
            (
                128,
                3,
                top - 10,
                vec![top - 10, top - 4, 0, 1, 2, 3, 1 << 127],
                vec![2],
                vec![0],
            ),
        ),
        (
            "ragged last digit: 11 bits in digits of 4",
            (
                11,
                4,
                1000,
                vec![0, 3, 1000, 1001, 1500, 2046, 2047],
                vec![3, 2047],
                vec![1500],
            ),
        ),
        (
            "the whole 5-bit ring around a source at 31",
            (5, 2, 31, (0..32).collect(), vec![0, 15], vec![16, 30]),
        ),
        (
            "dead core ids absent from the ring",
            (
                32,
                1,
                1 << 31,
                vec![1, 1 << 31, (1 << 31) + 5, (1 << 31) + 9, 1 << 20],
                vec![(1 << 31) + 4, 1 << 30, (1 << 31) + 9],
                vec![1 << 20],
            ),
        ),
        (
            "no candidates: the ring is the source and its core",
            (32, 4, 77, vec![77, 80, 1 << 31], vec![80, 1 << 31], vec![]),
        ),
        (
            "no candidates: an empty ring",
            (32, 4, 77, vec![], vec![80], vec![]),
        ),
        (
            "a source absent from the ring",
            (
                32,
                2,
                1 << 16,
                vec![3, (1 << 16) + 1, 1 << 17, 1 << 30, (1 << 32) - 1],
                vec![1 << 17],
                vec![3],
            ),
        ),
        (
            "a source absent from the ring, no neighbors",
            (5, 1, 9, vec![8, 10, 11, 31], vec![], vec![]),
        ),
    ]
}

#[test]
fn edge_cases_match_oracle_bits() {
    for (what, (bits, digit_bits, source, ring, core, aux)) in edge_cases() {
        let inst = Instance::new(IdSpace::new(bits).unwrap(), source, &ring, &core, &aux);
        assert_eq!(
            chord_counted(&inst).to_bits(),
            chord_oracle(&inst).to_bits(),
            "chord, {what}"
        );
        assert_eq!(
            pastry_counted(&inst, digit_bits).to_bits(),
            pastry_oracle(&inst, digit_bits).to_bits(),
            "pastry, {what}"
        );
        let (space, core) = (inst.space, inst.sorted_core());
        let mut ranged = SliceBuckets::new();
        ranged.fill_chord_slices(space, &inst.ring, inst.source, &core);
        let want = pushed(&inst, |v| space.chord_hops(inst.source, v));
        assert_eq!(ranged, want, "chord slices, {what}");
        (ranged.fill_prefix_slices(space, digit_bits, &inst.ring, inst.source, &core))
            .expect("valid digit width");
        let want = pushed(&inst, |v| prefix_slice(space, digit_bits, inst.source, v));
        assert_eq!(ranged, want, "prefix slices, {what}");
    }
}

#[test]
fn an_empty_candidate_set_costs_the_float_sum_of_no_terms() {
    let inst = Instance::new(IdSpace::new(32).unwrap(), 77, &[77, 80], &[80], &[]);
    let empty: f64 = std::iter::empty::<f64>().sum();
    assert_eq!(chord_counted(&inst).to_bits(), empty.to_bits());
    assert_eq!(pastry_counted(&inst, 4).to_bits(), empty.to_bits());
    assert_eq!(chord_counted(&inst), 0.0);
}

#[test]
fn a_core_listing_the_source_or_a_repeat_counts_each_live_core_id_once() {
    let clean = Instance::new(
        IdSpace::new(16).unwrap(),
        100,
        &[3, 100, 101, 900, 5000, 40000],
        &[101, 5000],
        &[900],
    );
    let want = (chord_oracle(&clean), pastry_oracle(&clean, 4));
    let messy = Instance {
        core: [101, 5000, 101, 100].map(Id::new).to_vec(),
        ..clean
    };
    assert_eq!(chord_counted(&messy).to_bits(), want.0.to_bits());
    assert_eq!(pastry_counted(&messy, 4).to_bits(), want.1.to_bits());
}

#[test]
fn invalid_digit_widths_are_rejected() {
    let space = IdSpace::new(8).unwrap();
    let ring = [Id::new(1), Id::new(2)];
    for digit_bits in [0, 9] {
        assert!(pastry_cost_counted(space, digit_bits, Id::new(1), &ring, &[], &[]).is_err());
        let mut buckets = SliceBuckets::new();
        assert!(buckets
            .fill_prefix_slices(space, digit_bits, &ring, Id::new(1), &[])
            .is_err());
    }
}
