//! The frequency-oblivious baseline of the paper's evaluation (§VI-A).
//!
//! The comparison scheme picks the `k` auxiliary neighbors *without*
//! looking at access frequencies, but still spread structurally:
//!
//! * **Chord**: with `k = r·log n`, pick `r` random candidates per
//!   distance slice `(2^i, 2^{i+1}]` (equivalently: per value of the hop
//!   estimate) for every non-empty slice;
//! * **Pastry**: pick `r` random candidates per length of the prefix
//!   shared with the selecting node.
//!
//! Slices with too few candidates donate their leftover budget to a
//! uniform draw over the remaining pool, so exactly `min(k, n)` pointers
//! are always returned.

use peercache_id::{Id, IdError, IdSpace};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::clockwise::Clockwise;
use crate::cost::{chord_cost, pastry_cost};
use crate::problem::{ChordProblem, PastryProblem, Selection};

/// Slice keys are hop estimates or shared-digit counts, both bounded by
/// the id width (at most 128 bits).
const MAX_KEY: usize = 128;

/// The draw kernel of the baseline: candidates bucketed by slice key,
/// drawn slice-balanced. The buckets (and the leftover pool) keep their
/// capacity across [`clear`](Self::clear), so a sweep over every node of
/// an overlay reuses one set of buffers.
///
/// Buckets are visited in ascending key order and keep push order
/// inside, so pushing candidates in ascending id order reproduces the
/// per-slice order of a `BTreeMap<key, Vec<Id>>` — and, because every
/// shuffle draws once per element, the exact RNG sequence of one.
#[derive(Clone, Debug, Default)]
pub struct SliceBuckets {
    slices: Vec<Vec<Id>>,
    leftovers: Vec<Id>,
}

/// Buckets are equal when every slice key holds the same ids in the same
/// order — when they draw alike. Empty slices and the leftover scratch
/// do not count.
impl PartialEq for SliceBuckets {
    fn eq(&self, other: &Self) -> bool {
        self.filled().eq(other.filled())
    }
}

impl Eq for SliceBuckets {}

impl SliceBuckets {
    /// Empty buckets; they grow to fit on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The non-empty slices with their keys.
    fn filled(&self) -> impl Iterator<Item = (usize, &Vec<Id>)> {
        let slices = self.slices.iter().enumerate();
        slices.filter(|(_, ids)| !ids.is_empty())
    }

    /// Empty every bucket, keeping its capacity.
    pub fn clear(&mut self) {
        self.slices.iter_mut().for_each(Vec::clear);
    }

    /// Append `id` to the bucket of slice `key`.
    pub fn push(&mut self, key: u32, id: Id) {
        self.push_run(key, &[id]);
    }

    /// Append the run `ids`, in order, to the bucket of slice `key`.
    fn push_run(&mut self, key: u32, ids: &[Id]) {
        let key = usize::try_from(key).map_or(MAX_KEY, |key| key.min(MAX_KEY));
        if self.slices.len() <= key {
            self.slices.resize_with(key + 1, Vec::new);
        }
        if let Some(slice) = self.slices.get_mut(key) {
            slice.extend_from_slice(ids);
        }
    }

    /// Append the members of the sorted run `ids` that are not in the
    /// sorted `core` to slice `key`, as the runs between core ids.
    fn push_run_without(&mut self, key: u32, mut ids: &[Id], core: &[Id]) {
        let Some(&first) = ids.first() else {
            return;
        };
        let from = core.partition_point(|&c| c < first);
        for &c in core.get(from..).unwrap_or_default() {
            let at = ids.partition_point(|&v| v < c);
            if at == ids.len() {
                break;
            }
            let (head, tail) = ids.split_at(at);
            self.push_run(key, head);
            ids = match tail.split_first() {
                Some((&v, rest)) if v == c => rest,
                _ => tail,
            };
        }
        self.push_run(key, ids);
    }

    /// Refill the buckets with the Chord slices of `node` over the sorted
    /// live `ring`, minus `node` and the sorted `core`: slice `i` is the
    /// clockwise arc `[node + 2^(i−1), node + 2^i)`, i.e. the ids whose
    /// hop estimate [`IdSpace::chord_hops`] from `node` is `i`.
    ///
    /// Each arc is one or two ring ranges found by binary search, copied
    /// in ascending id order (an arc that wraps past 0 appends its ids
    /// below `node` first), so the buckets equal a [`push`](Self::push)
    /// of every candidate in ascending id order. Arcs are visited from
    /// the widest down and the walk stops at the first arc with nothing
    /// closer to `node`.
    pub fn fill_chord_slices(&mut self, space: IdSpace, ring: &[Id], node: Id, core: &[Id]) {
        self.clear();
        let ring = Clockwise::new(space, ring, node);
        let mut hi = ring.len();
        for key in (1..=u32::from(space.bits())).rev() {
            let lo = ring.closer(1u128 << (key - 1));
            for run in ring.runs(lo, hi) {
                self.push_run_without(key, run, core);
            }
            if lo == 0 {
                break;
            }
            hi = lo;
        }
    }

    /// Refill the buckets with the Pastry slices of `node` over the sorted
    /// live `ring`, minus `node` and the sorted `core`: slice `L` is
    /// `node`'s level-`L` prefix block minus its level-`L+1` block, i.e.
    /// the ids sharing exactly `L` whole digits with it
    /// ([`prefix_slice`]).
    ///
    /// Each block is a ring range found by binary search, so a slice is
    /// the two ranges either side of the next block, in ascending id
    /// order, and the buckets equal a [`push`](Self::push) of every
    /// candidate in ascending id order. The walk stops once a block
    /// holds nothing but `node`.
    ///
    /// # Errors
    /// [`IdError::InvalidDigitBits`] when `digit_bits` is not a valid
    /// digit width for `space`.
    pub fn fill_prefix_slices(
        &mut self,
        space: IdSpace,
        digit_bits: u8,
        ring: &[Id],
        node: Id,
        core: &[Id],
    ) -> Result<(), IdError> {
        let count = space.digit_count(digit_bits)?;
        self.clear();
        let mut block = ring;
        for level in 0..count {
            let (lo, hi) = prefix_block(space, node, (level + 1).saturating_mul(digit_bits));
            let start = block.partition_point(|&v| v < lo);
            let end = block.partition_point(|&v| v <= hi);
            let key = u32::from(level);
            self.push_run_without(key, block.get(..start).unwrap_or_default(), core);
            self.push_run_without(key, block.get(end..).unwrap_or_default(), core);
            block = block.get(start..end).unwrap_or_default();
            if block.iter().all(|&v| v == node) {
                break;
            }
        }
        Ok(())
    }

    /// Draw `k` ids slice-balanced: `⌊k / #slices⌋` (+1 for the first
    /// `k mod #slices` non-empty slices) from each slice at random, then
    /// top up from the leftover pool. Returns `min(k, #ids)` ids, sorted.
    pub fn draw<R: Rng + ?Sized>(&mut self, k: usize, rng: &mut R) -> Vec<Id> {
        let total: usize = self.slices.iter().map(Vec::len).sum();
        let k = k.min(total);
        if k == 0 {
            return Vec::new();
        }
        let nslices = self.filled().count();
        let per = k / nslices;
        let extra = k % nslices;
        let quota = |i: usize| per + usize::from(i < extra);
        // The quotas sum to `k`, so the leftover pool is drawn from only
        // when some slice is short of its quota.
        let short = (self.filled().enumerate()).any(|(i, (_, ids))| ids.len() < quota(i));
        let mut chosen = Vec::with_capacity(k);
        self.leftovers.clear();
        let nonempty = self.slices.iter_mut().filter(|s| !s.is_empty());
        for (i, ids) in nonempty.enumerate() {
            ids.shuffle(rng);
            let take = quota(i).min(ids.len());
            chosen.extend(ids.iter().take(take));
            if short {
                self.leftovers.extend(ids.iter().skip(take));
            }
        }
        if chosen.len() < k {
            self.leftovers.shuffle(rng);
            let need = k - chosen.len();
            chosen.extend(self.leftovers.iter().take(need));
        }
        chosen.sort();
        chosen
    }
}

/// The id range `[lo, hi]` sharing the first `prefix_bits` bits of `id`
/// (all of them when `prefix_bits` exceeds the width).
pub(crate) fn prefix_block(space: IdSpace, id: Id, prefix_bits: u8) -> (Id, Id) {
    let free = u32::from(space.bits().saturating_sub(prefix_bits));
    let low = 1u128.checked_shl(free).map_or(u128::MAX, |size| size - 1);
    (Id::new(id.value() & !low), Id::new(id.value() | low))
}

/// The Pastry slice of `v` as seen from `source`: the whole digits of
/// `digit_bits` bits they share. An invalid digit width (which problem
/// validation rules out) puts every id in slice 0.
pub fn prefix_slice(space: IdSpace, digit_bits: u8, source: Id, v: Id) -> u32 {
    space
        .common_prefix_digits(v, source, digit_bits)
        .map_or(0, u32::from)
}

/// Frequency-oblivious auxiliary selection for Chord: random picks per
/// distance slice (hop-estimate value), ignoring weights.
pub fn chord_oblivious<R: Rng + ?Sized>(problem: &ChordProblem, rng: &mut R) -> Selection {
    let mut buckets = SliceBuckets::new();
    for cand in &problem.candidates {
        buckets.push(problem.space.chord_hops(problem.source, cand.id), cand.id);
    }
    let aux = buckets.draw(problem.effective_k(), rng);
    let cost = chord_cost(problem, &aux);
    Selection { aux, cost }
}

/// Frequency-oblivious auxiliary selection for Pastry: random picks per
/// shared-prefix length with the source, ignoring weights.
pub fn pastry_oblivious<R: Rng + ?Sized>(problem: &PastryProblem, rng: &mut R) -> Selection {
    let mut buckets = SliceBuckets::new();
    for cand in &problem.candidates {
        let slice = prefix_slice(problem.space, problem.digit_bits, problem.source, cand.id);
        buckets.push(slice, cand.id);
    }
    let aux = buckets.draw(problem.effective_k(), rng);
    let cost = pastry_cost(problem, &aux);
    Selection { aux, cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Candidate;
    use peercache_id::IdSpace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn id(v: u128) -> Id {
        Id::new(v)
    }

    fn chord_problem(k: usize) -> ChordProblem {
        ChordProblem::new(
            IdSpace::new(6).unwrap(),
            id(0),
            vec![id(1)],
            (2..40u128)
                .map(|i| Candidate::new(id(i), (i % 7) as f64 + 1.0))
                .collect(),
            k,
        )
        .unwrap()
    }

    #[test]
    fn returns_exactly_k_distinct_pointers() {
        let p = chord_problem(6);
        let mut rng = StdRng::seed_from_u64(7);
        let sel = chord_oblivious(&p, &mut rng);
        assert_eq!(sel.aux.len(), 6);
        let mut dedup = sel.aux.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 6, "no duplicates");
        assert_eq!(sel.cost, chord_cost(&p, &sel.aux));
    }

    #[test]
    fn k_larger_than_pool_takes_everything() {
        let p = chord_problem(1000);
        let mut rng = StdRng::seed_from_u64(7);
        let sel = chord_oblivious(&p, &mut rng);
        assert_eq!(sel.aux.len(), 38);
    }

    #[test]
    fn k_zero_selects_nothing() {
        let p = chord_problem(0);
        let mut rng = StdRng::seed_from_u64(7);
        let sel = chord_oblivious(&p, &mut rng);
        assert!(sel.aux.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let p = chord_problem(5);
        let a = chord_oblivious(&p, &mut StdRng::seed_from_u64(42));
        let b = chord_oblivious(&p, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    #[test]
    fn spreads_across_distance_slices() {
        // Candidates in three distinct slices; k = 3 must hit all three.
        let p = ChordProblem::new(
            IdSpace::new(6).unwrap(),
            id(0),
            vec![],
            vec![
                Candidate::new(id(2), 1.0),  // slice 2
                Candidate::new(id(3), 1.0),  // slice 2
                Candidate::new(id(9), 1.0),  // slice 4
                Candidate::new(id(12), 1.0), // slice 4
                Candidate::new(id(40), 1.0), // slice 6
                Candidate::new(id(60), 1.0), // slice 6
            ],
            3,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let sel = chord_oblivious(&p, &mut rng);
        let slices: std::collections::HashSet<u32> = sel
            .aux
            .iter()
            .map(|&a| p.space.chord_hops(p.source, a))
            .collect();
        assert_eq!(slices.len(), 3, "one per slice: {:?}", sel.aux);
    }

    #[test]
    fn pastry_variant_spreads_across_prefix_slices() {
        let p = PastryProblem::new(
            IdSpace::new(4).unwrap(),
            1,
            id(0b0000),
            vec![],
            vec![
                Candidate::new(id(0b1000), 1.0), // shares 0 bits
                Candidate::new(id(0b1111), 1.0), // shares 0 bits
                Candidate::new(id(0b0100), 1.0), // shares 1 bit
                Candidate::new(id(0b0111), 1.0), // shares 1 bit
                Candidate::new(id(0b0010), 1.0), // shares 2 bits
                Candidate::new(id(0b0011), 1.0), // shares 2 bits
            ],
            3,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let sel = pastry_oblivious(&p, &mut rng);
        assert_eq!(sel.aux.len(), 3);
        let slices: std::collections::HashSet<u8> = sel
            .aux
            .iter()
            .map(|&a| p.space.common_prefix_digits(a, p.source, 1).unwrap())
            .collect();
        assert_eq!(slices.len(), 3, "one per prefix slice: {:?}", sel.aux);
        assert_eq!(sel.cost, pastry_cost(&p, &sel.aux));
    }

    #[test]
    fn shortfall_slices_donate_budget() {
        // Slice "2" has one candidate, slice "4" has five; k = 4 must
        // still return 4 pointers.
        let p = ChordProblem::new(
            IdSpace::new(6).unwrap(),
            id(0),
            vec![],
            vec![
                Candidate::new(id(2), 1.0),
                Candidate::new(id(8), 1.0),
                Candidate::new(id(9), 1.0),
                Candidate::new(id(10), 1.0),
                Candidate::new(id(11), 1.0),
                Candidate::new(id(12), 1.0),
            ],
            4,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let sel = chord_oblivious(&p, &mut rng);
        assert_eq!(sel.aux.len(), 4);
    }
}
