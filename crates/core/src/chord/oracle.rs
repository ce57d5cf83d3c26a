//! The `s(j, m)` oracle of paper §V-B.
//!
//! For each potential anchor (candidate rank or core neighbor) we
//! precompute, in `O(n·b·log n)`:
//!
//! * `pcount[r]` — how many candidates lie within estimated distance `r`
//!   of the anchor (the paper's `p_j(r)` as a rank count), and
//! * `wsum[r]` — the cumulative weighted cost `Σ_{r'≤r} r'·ΔF` of those
//!   candidates (a prefix-aggregated form of eq. 9, making each segment
//!   evaluation `O(1)` instead of `O(b)`).
//!
//! A full `s(j, m)` query then decomposes at the core neighbors between
//! `j` and `m` (eq. 10): one partial segment from the pointer, a
//! prefix-summed run of whole core segments, and one partial segment from
//! the last core. The rank↔core partition points those pieces need are
//! *also* precomputed (one merge walk over the two sorted distance lists
//! at build time), so a query performs no binary search at all — it is a
//! handful of flat table reads.
//!
//! The oracle owns every table in a flat `Vec` and exposes
//! [`rebuild`](SegmentOracle::rebuild), so a warmed-up workspace can
//! re-prime it for a new ring without allocating.

use crate::cast;
use crate::chord::ring::{bitlen, RingView};

/// Range-maximum sparse table over the QoS thresholds, so "is `s(j, m)`
/// feasible" is one `O(1)` query. All levels share one flat backing
/// vector (`offsets[level]` indexes the start of each level's row).
struct SparseMax {
    offsets: Vec<usize>,
    data: Vec<u128>,
}

impl SparseMax {
    fn empty() -> Self {
        SparseMax {
            offsets: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Rebuild in place from `values` (level 0 is the values themselves;
    /// level `L` holds maxima over windows of width `2^L`).
    fn rebuild(&mut self, values: impl Iterator<Item = u128>) {
        self.offsets.clear();
        self.data.clear();
        self.offsets.push(0);
        self.data.extend(values);
        let n = self.data.len();
        let mut width = 1usize;
        let mut prev = 0usize;
        while width * 2 <= n {
            let off = self.data.len();
            for i in 0..=n - width * 2 {
                let v = self.data[prev + i].max(self.data[prev + i + width]);
                self.data.push(v);
            }
            self.offsets.push(off);
            prev = off;
            width *= 2;
        }
    }

    /// Max over `values[lo..hi)`; 0 when the range is empty.
    fn max(&self, lo: usize, hi: usize) -> u128 {
        if lo >= hi {
            return 0;
        }
        let level = cast::usize_from_u32(usize::BITS - 1 - (hi - lo).leading_zeros());
        let width = 1usize << level;
        let off = self.offsets[level];
        self.data[off + lo].max(self.data[off + hi - width])
    }
}

/// Anchor tables, flattened: entry `a * (bits + 1) + r`.
struct AnchorTables {
    pcount: Vec<u32>,
    wsum: Vec<f64>,
}

impl AnchorTables {
    fn empty() -> Self {
        AnchorTables {
            pcount: Vec::new(),
            wsum: Vec::new(),
        }
    }

    /// Fill the tables for `anchors` (ascending, as `dist` and
    /// `core_dist` are). Level `r` counts the candidates within reach
    /// `a + 2^r − 1`; a candidate at distance `d > a` enters at level
    /// `bitlen(d − a)`. So the walk jumps from one *gaining* level to the
    /// next: it reads the level at which the first candidate still out of
    /// reach enters, finds that level's count by galloping forward
    /// ([`count_through`]), and repeats the previous entry for the levels
    /// in between. The counts are the partition points a binary search
    /// per level finds, and each gaining level adds the same
    /// `r·(prefix_w[count] − prefix_w[prev])` term to `acc`; on the
    /// skipped levels that term was `r·(+0.0)`, which leaves `acc`
    /// (never `−0.0`) unchanged. `check-invariants` recomputes both
    /// tables level by level.
    fn rebuild(&mut self, ring: &RingView, anchors: &[u128]) {
        self.pcount.clear();
        self.wsum.clear();
        let dist = &ring.dist;
        let mut first = 0;
        for &a in anchors {
            first = count_through(dist, first, a);
            let mut count = first;
            let mut acc = 0.0;
            let mut level = 0;
            self.pcount.push(cast::index_to_u32(count));
            self.wsum.push(acc);
            while let Some(&next_out) = dist.get(count) {
                let r = bitlen(next_out - a);
                self.repeat(count, acc, r - level - 1);
                let span = if r >= 128 {
                    u128::MAX
                } else {
                    (1u128 << r) - 1
                };
                let next = count_through(dist, count + 1, a.saturating_add(span));
                acc += f64::from(r) * (ring.prefix_w[next] - ring.prefix_w[count]);
                count = next;
                level = r;
                self.pcount.push(cast::index_to_u32(count));
                self.wsum.push(acc);
            }
            self.repeat(count, acc, ring.bits - level);
        }
    }

    /// Append `levels` more entries equal to `(count, acc)`.
    fn repeat(&mut self, count: usize, acc: f64, levels: u32) {
        let len = self.pcount.len() + cast::usize_from_u32(levels);
        self.pcount.resize(len, cast::index_to_u32(count));
        self.wsum.resize(len, acc);
    }
}

/// `dist.partition_point(|&d| d <= reach)` for ascending `dist`, given
/// that the answer is at least `from`: gallop forward from `from`, then
/// binary-search the last stride — `O(log gap)` instead of `O(log n)`.
fn count_through(dist: &[u128], from: usize, reach: u128) -> usize {
    // Invariant: every entry of `dist[..lo]` is within reach.
    let mut lo = from;
    let mut step = 1;
    loop {
        let hi = (lo + step).min(dist.len());
        if hi == lo {
            return lo;
        }
        if dist[hi - 1] <= reach {
            lo = hi;
            step *= 2;
        } else {
            return lo + dist[lo..hi - 1].partition_point(|&d| d <= reach);
        }
    }
}

/// The oracle: precomputed structures answering `s(j, m)` queries.
///
/// Owns its tables (no borrow of the ring); every query method takes the
/// ring it was [`rebuild`](Self::rebuild)-primed with.
pub(crate) struct SegmentOracle {
    stride: usize,
    cand: AnchorTables,
    core: AnchorTables,
    /// `core_seg_prefix[q]` = Σ over core indices `q' < q` of the whole
    /// segment cost from core `q'` to just before core `q' + 1`.
    core_seg_prefix: Vec<f64>,
    /// Per candidate rank `r`: number of cores at distance ≤ `dist[r]`
    /// (the partition point `q1`/`q2` of eq. 10, precomputed).
    cores_through: Vec<u32>,
    /// Per core index `q`: first candidate rank at distance
    /// ≥ `core_dist[q]` (the partition point `r1` of eq. 10).
    first_rank_at: Vec<u32>,
    qos: SparseMax,
    has_qos: bool,
}

impl SegmentOracle {
    /// An unprimed oracle; call [`rebuild`](Self::rebuild) before querying.
    pub fn empty() -> Self {
        SegmentOracle {
            stride: 0,
            cand: AnchorTables::empty(),
            core: AnchorTables::empty(),
            core_seg_prefix: Vec::new(),
            cores_through: Vec::new(),
            first_rank_at: Vec::new(),
            qos: SparseMax::empty(),
            has_qos: false,
        }
    }

    /// Precompute the anchor tables for `ring` (`O(n·b)` space, built in
    /// `O(n·b·log n)` time); afterwards every [`s`](Self::s) query is
    /// `O(1)`.
    pub fn new(ring: &RingView) -> Self {
        let mut oracle = SegmentOracle::empty();
        oracle.rebuild(ring);
        oracle
    }

    /// Re-prime the oracle for `ring`, reusing every table's allocation.
    pub fn rebuild(&mut self, ring: &RingView) {
        self.stride = cast::usize_from_u32(ring.bits) + 1;
        self.cand.rebuild(ring, &ring.dist);
        self.core.rebuild(ring, &ring.core_dist);
        let n = ring.len();
        let c = ring.core_dist.len();

        // Rank↔core partition points by one merge walk each (both lists
        // are sorted by distance).
        self.cores_through.clear();
        let mut q = 0usize;
        for &d in &ring.dist {
            while q < c && ring.core_dist[q] <= d {
                q += 1;
            }
            self.cores_through.push(cast::index_to_u32(q));
        }
        self.first_rank_at.clear();
        let mut r = 0usize;
        for &cd in &ring.core_dist {
            while r < n && ring.dist[r] < cd {
                r += 1;
            }
            self.first_rank_at.push(cast::index_to_u32(r));
        }
        #[cfg(feature = "check-invariants")]
        self.assert_partition_tables_match_search(ring);

        self.core_seg_prefix.clear();
        self.core_seg_prefix.push(0.0);
        for q in 0..c {
            // Whole segment: ranks after core q, before core q + 1 (or the
            // end of the ring for the last core).
            let seg_end = if q + 1 < c {
                ring.dist.partition_point(|&d| d < ring.core_dist[q + 1])
            } else {
                n
            };
            let seg_start = ring.dist.partition_point(|&d| d <= ring.core_dist[q]);
            let cost = if seg_start >= seg_end {
                0.0 // no candidates between this core and the next
            } else {
                self.pure_from_core(ring, q, seg_end - 1)
            };
            let prev = self.core_seg_prefix[q];
            self.core_seg_prefix.push(prev + cost);
        }

        self.has_qos = ring.qos_lo.iter().any(std::option::Option::is_some);
        if self.has_qos {
            self.qos.rebuild(ring.qos_lo.iter().map(|q| q.unwrap_or(0)));
        }
    }

    /// Cross-check the merge-walk partition tables and the galloped
    /// anchor counts against the binary searches they replace.
    #[cfg(feature = "check-invariants")]
    fn assert_partition_tables_match_search(&self, ring: &RingView) {
        for (tables, anchors) in [(&self.cand, &ring.dist), (&self.core, &ring.core_dist)] {
            for (i, &a) in anchors.iter().enumerate() {
                let mut prev = 0;
                let mut acc = 0.0;
                for r in 0..=ring.bits {
                    let reach = match r {
                        0 => a,
                        128.. => a.saturating_add(u128::MAX),
                        _ => a.saturating_add((1u128 << r) - 1),
                    };
                    let reference = ring.dist.partition_point(|&d| d <= reach);
                    if r > 0 {
                        acc += f64::from(r) * (ring.prefix_w[reference] - ring.prefix_w[prev]);
                    }
                    prev = reference;
                    let at = i * self.stride + cast::usize_from_u32(r);
                    let got = tables.pcount[at];
                    debug_assert!(
                        cast::index_from_u32(got) == reference,
                        "anchor {i} level {r}: count {got} disagrees with partition_point {reference}",
                    );
                    debug_assert_eq!(
                        tables.wsum[at].to_bits(),
                        acc.to_bits(),
                        "anchor {i} level {r}: wsum {} disagrees with the per-level sum {acc}",
                        tables.wsum[at],
                    );
                }
            }
        }
        for (r, &d) in ring.dist.iter().enumerate() {
            let reference = ring.core_dist.partition_point(|&cd| cd <= d);
            debug_assert!(
                cast::index_from_u32(self.cores_through[r]) == reference,
                "cores_through[{r}] = {} disagrees with partition_point {reference}",
                self.cores_through[r],
            );
        }
        for (q, &cd) in ring.core_dist.iter().enumerate() {
            let reference = ring.dist.partition_point(|&d| d < cd);
            debug_assert!(
                cast::index_from_u32(self.first_rank_at[q]) == reference,
                "first_rank_at[{q}] = {} disagrees with partition_point {reference}",
                self.first_rank_at[q],
            );
        }
    }

    /// Cost of ranks `l` with `anchor_dist < dist[l] ≤ dist[m0]`, priced
    /// from the anchor (eq. 9 in prefix-aggregated form).
    fn pure(
        &self,
        ring: &RingView,
        tables: &AnchorTables,
        idx: usize,
        anchor_dist: u128,
        m0: usize,
    ) -> f64 {
        debug_assert!(
            anchor_dist <= ring.dist[m0],
            "anchor must not lie past the segment end"
        );
        let d_bits = bitlen(ring.dist[m0] - anchor_dist);
        if d_bits == 0 {
            return 0.0;
        }
        let d = cast::usize_from_u32(d_bits);
        let base = idx * self.stride;
        let inner = tables.wsum[base + d - 1];
        let covered = cast::index_from_u32(tables.pcount[base + d - 1]);
        inner + f64::from(d_bits) * (ring.prefix_w[m0 + 1] - ring.prefix_w[covered])
    }

    fn pure_from_cand(&self, ring: &RingView, j0: usize, m0: usize) -> f64 {
        self.pure(ring, &self.cand, j0, ring.dist[j0], m0)
    }

    fn pure_from_core(&self, ring: &RingView, q: usize, m0: usize) -> f64 {
        self.pure(ring, &self.core, q, ring.core_dist[q], m0)
    }

    /// `s(j, m)` over 0-indexed ranks: the cost of ranks `(j0 .. m0]` when
    /// the nearest auxiliary pointer is at rank `j0` (∞ when a QoS bound
    /// inside the range is out of the pointer's reach).
    pub fn s(&self, ring: &RingView, j0: usize, m0: usize) -> f64 {
        debug_assert!(j0 <= m0);
        if j0 == m0 {
            return 0.0;
        }
        if self.has_qos && self.qos.max(j0 + 1, m0 + 1) > ring.dist[j0] {
            return f64::INFINITY;
        }
        // Core neighbors strictly between the pointer and the target.
        let q1 = cast::index_from_u32(self.cores_through[j0]);
        let q2 = cast::index_from_u32(self.cores_through[m0]);
        if q1 == q2 {
            return self.pure_from_cand(ring, j0, m0);
        }
        // eq. 10: pointer segment + whole core segments + partial last.
        let mut total = 0.0;
        let r1 = cast::index_from_u32(self.first_rank_at[q1]);
        debug_assert!(r1 > j0);
        if r1 - 1 > j0 {
            total += self.pure_from_cand(ring, j0, r1 - 1);
        }
        total += self.core_seg_prefix[q2 - 1] - self.core_seg_prefix[q1];
        total += self.pure_from_core(ring, q2 - 1, m0);
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Candidate, ChordProblem};
    use peercache_id::{Id, IdSpace};

    /// Direct (quadratic) evaluation of s(j, m) for cross-checking.
    fn s_direct(ring: &RingView, j0: usize, m0: usize) -> f64 {
        let mut total = 0.0;
        for l in j0 + 1..=m0 {
            if let Some(lo) = ring.qos_lo[l] {
                if ring.dist[j0] < lo {
                    return f64::INFINITY;
                }
            }
            total += ring.weight[l] * f64::from(ring.dist_via(j0, l));
        }
        total
    }

    fn ring_of(bits: u8, core: Vec<u128>, cands: Vec<(u128, f64)>) -> RingView {
        let problem = ChordProblem::new(
            IdSpace::new(bits).unwrap(),
            Id::ZERO,
            core.into_iter().map(Id::new).collect(),
            cands
                .into_iter()
                .map(|(i, w)| Candidate::new(Id::new(i), w))
                .collect(),
            1,
        )
        .unwrap();
        RingView::new(&problem).unwrap()
    }

    #[test]
    fn sparse_max_matches_scan() {
        let values = [3u128, 1, 4, 1, 5, 9, 2, 6];
        let mut sm = SparseMax::empty();
        sm.rebuild(values.iter().copied());
        for lo in 0..values.len() {
            for hi in lo..=values.len() {
                let expected = values[lo..hi].iter().copied().max().unwrap_or(0);
                assert_eq!(sm.max(lo, hi), expected, "range {lo}..{hi}");
            }
        }
    }

    #[test]
    fn sparse_max_rebuild_reuses_cleanly() {
        let mut sm = SparseMax::empty();
        sm.rebuild([7u128, 7, 7, 7, 7, 7, 7, 7, 7].into_iter());
        let values = [3u128, 1, 4, 1, 5];
        sm.rebuild(values.iter().copied());
        for lo in 0..values.len() {
            for hi in lo..=values.len() {
                let expected = values[lo..hi].iter().copied().max().unwrap_or(0);
                assert_eq!(sm.max(lo, hi), expected, "range {lo}..{hi}");
            }
        }
    }

    #[test]
    fn oracle_matches_direct_no_cores() {
        let ring = ring_of(
            6,
            vec![],
            vec![
                (3, 2.0),
                (7, 1.0),
                (12, 4.0),
                (30, 3.0),
                (45, 0.5),
                (61, 2.5),
            ],
        );
        let oracle = SegmentOracle::new(&ring);
        for j in 0..ring.len() {
            for m in j..ring.len() {
                let (fast, direct) = (oracle.s(&ring, j, m), s_direct(&ring, j, m));
                assert!(
                    (fast - direct).abs() < 1e-9,
                    "s({j},{m}) = {fast} vs {direct}"
                );
            }
        }
    }

    #[test]
    fn oracle_matches_direct_with_cores() {
        let ring = ring_of(
            6,
            vec![5, 16, 33, 50],
            vec![
                (3, 2.0),
                (7, 1.0),
                (12, 4.0),
                (30, 3.0),
                (45, 0.5),
                (61, 2.5),
                (18, 1.5),
            ],
        );
        let oracle = SegmentOracle::new(&ring);
        for j in 0..ring.len() {
            for m in j..ring.len() {
                let (fast, direct) = (oracle.s(&ring, j, m), s_direct(&ring, j, m));
                assert!(
                    (fast - direct).abs() < 1e-9,
                    "s({j},{m}) = {fast} vs {direct}"
                );
            }
        }
    }

    #[test]
    fn oracle_handles_empty_core_segments() {
        // Regression: consecutive core neighbors with NO candidate between
        // them used to anchor a segment past its end and underflow.
        let ring = ring_of(
            6,
            vec![10, 12, 14, 40],
            vec![(5, 2.0), (50, 3.0), (62, 1.0)],
        );
        let oracle = SegmentOracle::new(&ring);
        for j in 0..ring.len() {
            for m in j..ring.len() {
                let (fast, direct) = (oracle.s(&ring, j, m), s_direct(&ring, j, m));
                assert!(
                    (fast - direct).abs() < 1e-9,
                    "s({j},{m}) = {fast} vs {direct}"
                );
            }
        }
    }

    #[test]
    fn oracle_handles_cores_past_all_candidates() {
        let ring = ring_of(6, vec![60, 62], vec![(5, 2.0), (20, 3.0)]);
        let oracle = SegmentOracle::new(&ring);
        for j in 0..ring.len() {
            for m in j..ring.len() {
                assert!((oracle.s(&ring, j, m) - s_direct(&ring, j, m)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn oracle_rebuild_matches_fresh_build() {
        let warm = ring_of(6, vec![5, 16], vec![(3, 2.0), (30, 3.0), (61, 2.5)]);
        let ring = ring_of(
            6,
            vec![10, 12, 14, 40],
            vec![(5, 2.0), (18, 1.5), (50, 3.0), (62, 1.0)],
        );
        let mut reused = SegmentOracle::new(&warm);
        reused.rebuild(&ring);
        let fresh = SegmentOracle::new(&ring);
        for j in 0..ring.len() {
            for m in j..ring.len() {
                assert_eq!(
                    reused.s(&ring, j, m).to_bits(),
                    fresh.s(&ring, j, m).to_bits(),
                    "s({j},{m}) differs after rebuild"
                );
            }
        }
    }

    #[test]
    fn oracle_matches_direct_with_qos() {
        let problem = ChordProblem::new(
            IdSpace::new(6).unwrap(),
            Id::ZERO,
            vec![Id::new(5)],
            vec![
                Candidate::new(Id::new(3), 2.0),
                Candidate::with_max_hops(Id::new(30), 3.0, 3),
                Candidate::new(Id::new(45), 0.5),
                Candidate::with_max_hops(Id::new(61), 2.5, 2),
            ],
            1,
        )
        .unwrap();
        let ring = RingView::new(&problem).unwrap();
        let oracle = SegmentOracle::new(&ring);
        for j in 0..ring.len() {
            for m in j..ring.len() {
                let (fast, direct) = (oracle.s(&ring, j, m), s_direct(&ring, j, m));
                assert!(
                    fast == direct || (fast - direct).abs() < 1e-9,
                    "s({j},{m}) = {fast} vs {direct}"
                );
            }
        }
    }
}
