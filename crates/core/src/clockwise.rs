//! A sorted ring read clockwise from one node, by ranges.
//!
//! The frequency-oblivious baseline slices a node's view of the live
//! ring by clockwise distance (Chord's `(2^i, 2^{i+1}]` arcs) and prices
//! it per neighbor arc. On a ring sorted by id every such arc is one
//! contiguous run of the clockwise order — the ids above the node, then
//! the ids below it — so it is found by binary search and read as at
//! most two id-sorted slices.

use peercache_id::{Id, IdSpace};

/// The members of a sorted ring other than `node`, in clockwise order
/// from `node`: `above` (the ids greater than `node`) then `below` (the
/// ids less than it). Positions index that order, so clockwise distance
/// from `node` increases with position.
pub(crate) struct Clockwise<'a> {
    space: IdSpace,
    node: Id,
    below: &'a [Id],
    above: &'a [Id],
}

impl<'a> Clockwise<'a> {
    /// The clockwise view of the sorted `ring` from `node`, which need
    /// not be a member.
    pub(crate) fn new(space: IdSpace, ring: &'a [Id], node: Id) -> Self {
        let (below, rest) = ring.split_at(ring.partition_point(|&v| v < node));
        let above = match rest.split_first() {
            Some((&v, above)) if v == node => above,
            _ => rest,
        };
        Clockwise {
            space,
            node,
            below,
            above,
        }
    }

    /// The number of members (the ring without `node`).
    pub(crate) fn len(&self) -> usize {
        self.below.len() + self.above.len()
    }

    /// The number of members closer than `reach` clockwise from `node`:
    /// the position where distance `reach` starts.
    pub(crate) fn closer(&self, reach: u128) -> usize {
        let (space, node) = (self.space, self.node);
        let above = self
            .above
            .partition_point(|&v| space.clockwise_distance(node, v) < reach);
        if above < self.above.len() {
            return above;
        }
        above
            + self
                .below
                .partition_point(|&v| space.clockwise_distance(node, v) < reach)
    }

    /// The members at positions `[lo, hi)`, as the id-sorted runs below
    /// and above `node`: in that order their concatenation is ascending
    /// by id (an arc that wraps past 0 lists its ids from 0 first).
    pub(crate) fn runs(&self, lo: usize, hi: usize) -> [&'a [Id]; 2] {
        let split = self.above.len();
        let above = self.above.get(lo.min(split)..hi.min(split));
        let below = (self.below).get(lo.saturating_sub(split)..hi.saturating_sub(split));
        [below.unwrap_or_default(), above.unwrap_or_default()]
    }
}
