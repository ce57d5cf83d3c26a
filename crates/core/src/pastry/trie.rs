//! The trie of observed ids underlying the Pastry selection algorithms.
//!
//! Each observed peer (and each core neighbor) is a leaf at depth `⌈b/d⌉`;
//! interior vertices correspond to id prefixes. Proposition 4.1: the hop
//! estimate between two nodes equals the height of their lowest common
//! ancestor, so the objective decomposes over trie edges (eq. 2): an edge
//! from vertex `a` down to child subtree `T_c` contributes `F(T_c)` to the
//! cost exactly when `T_c` contains no neighbor (core or auxiliary).
//!
//! The trie also carries the QoS machinery of §IV-D: a delay bound of `x`
//! hops on leaf `v` marks `v`'s ancestor at height `x − 1`; a marked
//! subtree without a core neighbor must receive at least one auxiliary
//! pointer (`req`).
//!
//! ## Path compression
//!
//! The trie is path-compressed: a vertex exists only at the root, at a
//! leaf, at a branching point (two or more children) or at a depth a QoS
//! bound marks. Every other prefix of the digit-level trie is a *unary*
//! level folded into the edge above the vertex below it; an edge spans
//! `depth − parent.depth` digit levels. A unary level changes no
//! aggregate and no requirement, and passes its pointer count straight
//! down; it only re-prices the cost curve (see
//! [`PastryOptimizer`](super::PastryOptimizer)), which the solvers replay
//! level by level. With `m` leaves and `q` marked unary depths the trie
//! holds at most `2m + q` vertices instead of up to `m·⌈b/d⌉`.
//!
//! ## Memory layout
//!
//! Hot state lives in flat vectors rather than per-vertex heap objects:
//! vertices occupy one slab (`vertices`), child links a second one
//! (`child_arena`, `arity` slots per vertex, indexed by the first digit
//! below the vertex), and the id → leaf index is a sorted `Vec` probed by
//! binary search (deterministic by construction, so L6-clean — see
//! DESIGN.md). Each vertex records its depth and a `key` id whose first
//! `depth` digits are the vertex's prefix, so an insertion compares one
//! id per compressed edge. Splitting an edge (insertion, a new QoS mark)
//! takes a slot from the free list; merging one (removal, a mark
//! dropped) returns it. The slab plus free list let
//! [`reset`](Trie::reset) rebuild the trie for a new problem without
//! allocating once capacities, including each vertex's `costs`/`alloc`
//! tables, have warmed up.

use peercache_id::{Id, IdSpace};

use crate::cast;
use crate::problem::SelectError;

/// Sentinel for "no vertex".
pub(crate) const NONE: u32 = u32::MAX;

/// Leaf payload: one observed peer or core neighbor.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Leaf {
    pub id: Id,
    /// Access frequency `f_v`; zero for pure core-neighbor leaves.
    pub weight: f64,
    pub is_core: bool,
    /// QoS delay bound in total hops (≥ 1), as in [`crate::Candidate`].
    pub max_hops: Option<u32>,
}

/// One trie vertex. Aggregates (`weight`, `cand_count`, `core_count`) cover
/// the whole subtree; `mark_count` counts QoS marks anchored *at* this
/// vertex. Solver fields (`req`, `base`, `lo`, `costs`, `alloc`) are
/// maintained by the greedy optimiser. Child links live in the trie's
/// `child_arena`, not here.
#[derive(Clone, Debug)]
pub(crate) struct Vertex {
    pub parent: u32,
    /// Which child slot of `parent` this vertex occupies.
    pub slot: u16,
    /// Depth in digits (root = 0, leaves = `⌈b/d⌉`).
    pub depth: u8,
    /// An id whose first `depth` digits are this vertex's prefix.
    pub key: Id,
    pub leaf: Option<Leaf>,
    /// `F(T_a)`: total candidate weight in the subtree.
    pub weight: f64,
    /// Number of candidate (selectable) leaves in the subtree.
    pub cand_count: u32,
    /// Number of core-neighbor leaves in the subtree.
    pub core_count: u32,
    /// QoS marks anchored at this vertex (subtree must hold a neighbor).
    pub mark_count: u32,
    /// Minimum auxiliary pointers any feasible solution places in `T_a`.
    pub req: u32,
    /// `Σ_children req` — the pointer count `alloc` starts from.
    pub base: u32,
    /// The pointer count of `costs[0]`: `base` when the edge above spans
    /// one level, `req` once a unary level has re-priced the curve.
    pub lo: u32,
    /// True when some subtree requirement exceeds its candidate supply.
    pub impossible: bool,
    /// `C(T, j)` for `j ∈ lo ..= cap`, priced at the *top* of the edge
    /// above this vertex (what the parent reads); empty when
    /// unsatisfiable at this `k`.
    pub costs: Vec<f64>,
    /// `alloc[i]`: child slot receiving the `(base + 1 + i)`-th pointer.
    pub alloc: Vec<u16>,
}

impl Vertex {
    fn new(parent: u32, slot: u16, depth: u8, key: Id) -> Self {
        Vertex {
            parent,
            slot,
            depth,
            key,
            leaf: None,
            weight: 0.0,
            cand_count: 0,
            core_count: 0,
            mark_count: 0,
            req: 0,
            base: 0,
            lo: 0,
            impossible: false,
            costs: Vec::new(),
            alloc: Vec::new(),
        }
    }

    /// Re-initialise in place, keeping the `costs`/`alloc` capacities.
    fn reset(&mut self, parent: u32, slot: u16, depth: u8, key: Id) {
        self.parent = parent;
        self.slot = slot;
        self.depth = depth;
        self.key = key;
        self.leaf = None;
        self.weight = 0.0;
        self.cand_count = 0;
        self.core_count = 0;
        self.mark_count = 0;
        self.req = 0;
        self.base = 0;
        self.lo = 0;
        self.impossible = false;
        self.costs.clear();
        self.alloc.clear();
    }

    /// Largest pointer count this vertex has a cost for, if any.
    pub(crate) fn cap(&self) -> Option<u32> {
        if self.costs.is_empty() {
            None
        } else {
            Some(self.lo + cast::index_to_u32(self.costs.len()) - 1)
        }
    }

    /// `C(T_a, t)` — only valid for `t` within `[lo, cap]`.
    pub(crate) fn cost_at(&self, t: u32) -> f64 {
        self.costs[cast::usize_from_u32(t - self.lo)]
    }
}

/// The path-compressed trie of observed ids, with slab storage and a free
/// list so that churn (insert/remove) does not leak vertices and
/// [`reset`](Trie::reset) can rebuild without allocating.
pub(crate) struct Trie {
    pub space: IdSpace,
    pub digit_bits: u8,
    pub digit_count: u8,
    pub arity: usize,
    vertices: Vec<Vertex>,
    free: Vec<u32>,
    /// Child links, `arity` consecutive slots per vertex (`NONE` = absent).
    child_arena: Vec<u32>,
    /// id → leaf vertex, sorted by id (binary-search index).
    leaves: Vec<(Id, u32)>,
}

impl Trie {
    /// An empty trie over `space` with `2^digit_bits`-ary branching;
    /// fails when the digit width does not divide the id width.
    pub fn new(space: IdSpace, digit_bits: u8) -> Result<Self, SelectError> {
        let digit_count = space
            .digit_count(digit_bits)
            .map_err(|e| SelectError::InvalidProblem(e.to_string()))?;
        let arity = 1usize << digit_bits;
        Ok(Trie {
            space,
            digit_bits,
            digit_count,
            arity,
            vertices: vec![Vertex::new(NONE, 0, 0, Id::ZERO)],
            free: Vec::new(),
            child_arena: vec![NONE; arity],
            leaves: Vec::new(),
        })
    }

    /// Index of the root vertex (always allocated, never freed).
    pub const ROOT: u32 = 0;

    /// Clear the trie for a new problem over `space`, keeping the vertex
    /// slab (including warmed `costs`/`alloc` capacities), the child
    /// arena and the leaf index. Freed slots are queued so that
    /// allocation order matches a fresh build — a rebuild with the same
    /// insertion sequence assigns every vertex the same index and role.
    ///
    /// # Errors
    /// `InvalidProblem` when the digit width does not divide the id width.
    pub fn reset(&mut self, space: IdSpace, digit_bits: u8) -> Result<(), SelectError> {
        let digit_count = space
            .digit_count(digit_bits)
            .map_err(|e| SelectError::InvalidProblem(e.to_string()))?;
        let arity = 1usize << digit_bits;
        self.space = space;
        self.digit_bits = digit_bits;
        self.digit_count = digit_count;
        if arity != self.arity {
            self.arity = arity;
            self.child_arena.clear();
            self.child_arena.resize(self.vertices.len() * arity, NONE);
        }
        self.leaves.clear();
        self.free.clear();
        // Push descending so pops ascend: slot 1 is handed out first,
        // exactly like a fresh build's first push.
        for idx in (1..self.vertices.len()).rev() {
            self.free.push(cast::index_to_u32(idx));
        }
        self.reset_slot(Self::ROOT, NONE, 0, 0, Id::ZERO);
        Ok(())
    }

    /// The vertex at index `v`; panics on a dangling index.
    pub fn vertex(&self, v: u32) -> &Vertex {
        &self.vertices[cast::index_from_u32(v)]
    }

    /// Mutable access to the vertex at index `v`.
    pub fn vertex_mut(&mut self, v: u32) -> &mut Vertex {
        &mut self.vertices[cast::index_from_u32(v)]
    }

    /// The child of `v` in `slot` (`NONE` = absent).
    fn child(&self, v: u32, slot: usize) -> u32 {
        self.child_arena[cast::index_from_u32(v) * self.arity + slot]
    }

    fn set_child(&mut self, v: u32, slot: usize, c: u32) {
        self.child_arena[cast::index_from_u32(v) * self.arity + slot] = c;
    }

    /// The leaf vertex currently holding candidate `id`, if present.
    pub fn leaf_vertex(&self, id: Id) -> Option<u32> {
        self.leaves
            .binary_search_by_key(&id, |&(i, _)| i)
            .ok()
            .map(|pos| self.leaves[pos].1)
    }

    /// Number of live vertices (diagnostics / tests).
    pub fn vertex_count(&self) -> usize {
        self.vertices.len() - self.free.len()
    }

    /// Number of unary digit levels folded into the edge above `v`
    /// (zero for the root and for an edge of one level).
    pub fn folded_levels(&self, v: u32) -> u8 {
        let vert = self.vertex(v);
        if vert.parent == NONE {
            0
        } else {
            vert.depth - self.vertex(vert.parent).depth - 1
        }
    }

    /// The `depth`-th digit of `id` (`depth < digit_count`).
    fn digit(&self, id: Id, depth: u8) -> u16 {
        self.space
            .digit(id, depth, self.digit_bits)
            .expect("depth < digit_count and digit width ≤ 16")
    }

    /// Number of leading digits `a` and `b` share (`digit_count` when
    /// equal), as `IdSpace::common_prefix_digits` counts them.
    fn shared_digits(&self, a: Id, b: Id) -> u8 {
        let bits = self.space.common_prefix_len(a, b);
        if bits == self.space.bits() {
            self.digit_count
        } else {
            bits / self.digit_bits
        }
    }

    /// Re-initialise slot `idx` (vertex fields and child links) in place.
    fn reset_slot(&mut self, idx: u32, parent: u32, slot: u16, depth: u8, key: Id) {
        let base = cast::index_from_u32(idx) * self.arity;
        for c in &mut self.child_arena[base..base + self.arity] {
            *c = NONE;
        }
        self.vertices[cast::index_from_u32(idx)].reset(parent, slot, depth, key);
    }

    fn alloc_vertex(&mut self, parent: u32, slot: u16, depth: u8, key: Id) -> u32 {
        let idx = match self.free.pop() {
            Some(idx) => {
                self.reset_slot(idx, parent, slot, depth, key);
                idx
            }
            None => {
                let idx = cast::index_to_u32(self.vertices.len());
                self.vertices.push(Vertex::new(parent, slot, depth, key));
                self.child_arena
                    .resize(self.child_arena.len() + self.arity, NONE);
                idx
            }
        };
        self.set_child(parent, usize::from(slot), idx);
        idx
    }

    /// Split the edge above `c` at `depth` (strictly between its ends):
    /// a new vertex takes `c`'s place under its parent and `c` becomes
    /// its only child. Returns the new vertex.
    fn split_edge(&mut self, c: u32, depth: u8) -> u32 {
        let Vertex {
            parent, slot, key, ..
        } = *self.vertex(c);
        debug_assert!(self.vertex(parent).depth < depth && depth < self.vertex(c).depth);
        let m = self.alloc_vertex(parent, slot, depth, key);
        let c_slot = self.digit(key, depth);
        self.set_child(m, usize::from(c_slot), c);
        let vert = self.vertex_mut(c);
        vert.parent = m;
        vert.slot = c_slot;
        m
    }

    /// Insert a leaf for `id`, splitting the compressed edge where its
    /// path leaves the trie and the one holding its QoS mark depth.
    /// Returns the leaf and, when the branch point split an edge, the
    /// vertex below that split: its edge got shorter although it is not
    /// on the leaf's root path, so its solver state must be refreshed
    /// too.
    ///
    /// # Errors
    /// `InvalidProblem` if a leaf for `id` already exists.
    pub fn insert_leaf(
        &mut self,
        id: Id,
        weight: f64,
        is_core: bool,
        max_hops: Option<u32>,
    ) -> Result<(u32, Option<u32>), SelectError> {
        let pos = match self.leaves.binary_search_by_key(&id, |&(i, _)| i) {
            Ok(_) => {
                return Err(SelectError::InvalidProblem(format!(
                    "leaf {id} already present in trie"
                )));
            }
            Err(pos) => pos,
        };
        let leaf_depth = self.digit_count;
        let mut v = Self::ROOT;
        let (leaf, sibling) = loop {
            let digit = self.digit(id, self.vertex(v).depth);
            let c = self.child(v, usize::from(digit));
            if c == NONE {
                break (self.alloc_vertex(v, digit, leaf_depth, id), None);
            }
            let shared = self.shared_digits(id, self.vertex(c).key);
            if shared >= self.vertex(c).depth {
                v = c;
                continue;
            }
            // The paths part inside the edge above `c`: branch there.
            let m = self.split_edge(c, shared);
            let slot = self.digit(id, shared);
            break (self.alloc_vertex(m, slot, leaf_depth, id), Some(c));
        };
        self.vertices[cast::index_from_u32(leaf)].leaf = Some(Leaf {
            id,
            weight,
            is_core,
            max_hops,
        });
        self.leaves.insert(pos, (id, leaf));
        if let Some(depth) = max_hops.and_then(|bound| self.mark_depth(bound)) {
            let mut m = self.path_vertex_at_or_below(leaf, depth);
            if self.vertex(m).depth != depth {
                m = self.split_edge(m, depth);
            }
            self.vertices[cast::index_from_u32(m)].mark_count += 1;
        }
        #[cfg(feature = "check-invariants")]
        crate::invariants::assert_leaf_index_sorted(&self.leaves);
        Ok((leaf, sibling))
    }

    /// The depth a delay bound of `max_hops` total hops marks: the
    /// ancestor of the leaf at height `max_hops − 1`. `None` when the
    /// bound is loose enough to be vacuous (`max_hops − 1 ≥ digit_count`).
    fn mark_depth(&self, max_hops: u32) -> Option<u8> {
        debug_assert!(max_hops >= 1);
        let allowed = max_hops - 1;
        if allowed >= u32::from(self.digit_count) {
            return None;
        }
        // allowed < digit_count ≤ u8::MAX, so the difference fits.
        u8::try_from(u32::from(self.digit_count) - allowed).ok()
    }

    /// The shallowest vertex on `leaf`'s root path whose depth is at
    /// least `depth` (`depth ≥ 1`): either the vertex at `depth` or the
    /// one whose edge spans it.
    fn path_vertex_at_or_below(&self, leaf: u32, depth: u8) -> u32 {
        let mut v = leaf;
        loop {
            let parent = self.vertex(v).parent;
            if self.vertex(parent).depth < depth {
                return v;
            }
            v = parent;
        }
    }

    /// Whether `v` must stay a vertex: the root, a leaf, a branching
    /// point or a marked depth.
    fn is_needed(&self, v: u32) -> bool {
        let vert = self.vertex(v);
        v == Self::ROOT
            || vert.leaf.is_some()
            || vert.mark_count > 0
            || self.children_of(v).nth(1).is_some()
    }

    /// Remove the leaf for `id`, pruning now-empty ancestors and merging
    /// the edges of ancestors left with one child and no mark. Returns the
    /// deepest vertex whose solver state must be refreshed (the surviving
    /// parent, or the vertex whose edge a merge lengthened); every other
    /// changed vertex lies on its root path.
    ///
    /// # Errors
    /// `InvalidProblem` if no leaf for `id` exists.
    pub fn remove_leaf(&mut self, id: Id) -> Result<u32, SelectError> {
        let pos = self
            .leaves
            .binary_search_by_key(&id, |&(i, _)| i)
            .map_err(|_| SelectError::InvalidProblem(format!("leaf {id} not present in trie")))?;
        let (_, v) = self.leaves.remove(pos);
        let leaf = self.vertices[cast::index_from_u32(v)]
            .leaf
            .take()
            .expect("leaf map points at leaf vertices");
        if let Some(depth) = leaf.max_hops.and_then(|bound| self.mark_depth(bound)) {
            let m = self.path_vertex_at_or_below(v, depth);
            let vert = &mut self.vertices[cast::index_from_u32(m)];
            debug_assert!(vert.depth == depth && vert.mark_count > 0);
            vert.mark_count -= 1;
        }
        #[cfg(feature = "check-invariants")]
        crate::invariants::assert_leaf_index_sorted(&self.leaves);
        // Every vertex that can have become redundant lies on the leaf's
        // root path: its parent (one child fewer) and the mark holder.
        let mut from = NONE;
        let mut cur = v;
        while cur != Self::ROOT {
            let Vertex { parent, slot, .. } = *self.vertex(cur);
            let only_child = self.children_of(cur).next().map(|(_, c)| c);
            if self.is_needed(cur) {
                if from == NONE {
                    from = cur;
                }
            } else if let Some(c) = only_child {
                // One child left: fold `cur`'s level into `c`'s edge.
                self.set_child(parent, usize::from(slot), c);
                let vert = self.vertex_mut(c);
                vert.parent = parent;
                vert.slot = slot;
                self.free.push(cur);
                if from == NONE {
                    from = c;
                }
            } else {
                self.set_child(parent, usize::from(slot), NONE);
                self.free.push(cur);
            }
            cur = parent;
        }
        Ok(if from == NONE { Self::ROOT } else { from })
    }

    /// Iterate the live children of `v` in ascending slot order.
    pub fn children_of(&self, v: u32) -> impl Iterator<Item = (u16, u32)> + '_ {
        let base = cast::index_from_u32(v) * self.arity;
        self.child_arena[base..base + self.arity]
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != NONE)
            .map(|(slot, &c)| (cast::slot_to_u16(slot), c))
    }

    /// All vertices in post-order (children before parents), written into
    /// caller-owned buffers (`stack` is DFS scratch).
    pub fn post_order_into(&self, order: &mut Vec<u32>, stack: &mut Vec<(u32, bool)>) {
        order.clear();
        stack.clear();
        stack.push((Self::ROOT, false));
        while let Some((v, expanded)) = stack.pop() {
            if expanded {
                order.push(v);
            } else {
                stack.push((v, true));
                for (_, c) in self.children_of(v) {
                    stack.push((c, false));
                }
            }
        }
    }

    /// All vertices in post-order (children before parents).
    pub fn post_order(&self) -> Vec<u32> {
        let mut order = Vec::with_capacity(self.vertex_count());
        let mut stack = Vec::new();
        self.post_order_into(&mut order, &mut stack);
        order
    }

    /// Total candidate weight in the trie (root aggregate).
    pub fn total_weight(&self) -> f64 {
        self.vertices[cast::index_from_u32(Self::ROOT)].weight
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn trie(bits: u8, d: u8) -> Trie {
        Trie::new(IdSpace::new(bits).unwrap(), d).unwrap()
    }

    fn id(v: u128) -> Id {
        Id::new(v)
    }

    fn insert(t: &mut Trie, v: u128, max_hops: Option<u32>) -> u32 {
        t.insert_leaf(id(v), 1.0, false, max_hops).unwrap().0
    }

    #[test]
    fn insert_creates_one_edge_to_the_leaf() {
        let mut t = trie(4, 1);
        let (v, sibling) = t.insert_leaf(id(0b1010), 1.0, false, None).unwrap();
        assert_eq!(t.vertex(v).depth, 4);
        assert_eq!(sibling, None);
        assert_eq!(t.vertex_count(), 2, "root + leaf");
        assert_eq!(t.folded_levels(v), 3, "depths 1–3 fold into the edge");
        assert_eq!(t.leaf_vertex(id(0b1010)), Some(v));
    }

    #[test]
    fn shared_prefixes_branch_once() {
        let mut t = trie(4, 1);
        let first = insert(&mut t, 0b1010, None);
        let (second, sibling) = t.insert_leaf(id(0b1011), 1.0, false, None).unwrap();
        // Root, the branch point at depth 3, two leaves.
        assert_eq!(t.vertex_count(), 4);
        assert_eq!(sibling, Some(first), "the split shortened the first edge");
        let branch = t.vertex(second).parent;
        assert_eq!(t.vertex(first).parent, branch);
        assert_eq!(t.vertex(branch).depth, 3);
        assert_eq!(t.folded_levels(branch), 2);
        assert_eq!(t.folded_levels(first), 0);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut t = trie(4, 1);
        insert(&mut t, 3, None);
        assert!(t.insert_leaf(id(3), 2.0, false, None).is_err());
    }

    #[test]
    fn remove_prunes_exclusive_path() {
        let mut t = trie(4, 1);
        insert(&mut t, 0b1010, None);
        insert(&mut t, 0b0101, None);
        let survivor = t.remove_leaf(id(0b1010)).unwrap();
        assert_eq!(survivor, Trie::ROOT);
        assert_eq!(t.vertex_count(), 2, "root + remaining leaf");
        assert_eq!(t.leaf_vertex(id(0b1010)), None);
        assert!(t.remove_leaf(id(0b1010)).is_err(), "double remove");
    }

    #[test]
    fn remove_merges_the_branch_point() {
        let mut t = trie(4, 1);
        let kept = insert(&mut t, 0b1010, None);
        insert(&mut t, 0b1011, None);
        let survivor = t.remove_leaf(id(0b1011)).unwrap();
        assert_eq!(survivor, kept, "the lengthened edge is refreshed first");
        assert_eq!(t.vertex_count(), 2);
        assert_eq!(t.vertex(kept).parent, Trie::ROOT);
        assert_eq!(t.folded_levels(kept), 3);
    }

    #[test]
    fn free_list_recycles_vertices() {
        let mut t = trie(8, 1);
        insert(&mut t, 0xAA, None);
        let before = t.vertex_count();
        t.remove_leaf(id(0xAA)).unwrap();
        insert(&mut t, 0x55, None);
        assert_eq!(t.vertex_count(), before, "recycled, not grown");
    }

    #[test]
    fn reset_rebuild_reassigns_identical_indices() {
        let mut t = trie(8, 1);
        let ids = [0xAAu128, 0x55, 0x5A, 0xA5];
        let fresh: Vec<u32> = ids.iter().map(|&i| insert(&mut t, i, None)).collect();
        let slab_size = t.vertex_count();
        t.reset(IdSpace::new(8).unwrap(), 1).unwrap();
        assert_eq!(t.vertex_count(), 1, "reset leaves only the root live");
        let rebuilt: Vec<u32> = ids.iter().map(|&i| insert(&mut t, i, None)).collect();
        assert_eq!(fresh, rebuilt, "same insertion order, same slots");
        assert_eq!(t.vertex_count(), slab_size, "slab reused, not grown");
    }

    #[test]
    fn qos_mark_lands_at_height_bound_minus_one() {
        let mut t = trie(4, 1);
        let leaf = insert(&mut t, 0b1010, Some(3));
        // max_hops 3 → allowed distance 2 → ancestor at height 2 (depth
        // 2), a vertex of its own in the middle of the leaf's edge.
        let m = t.vertex(leaf).parent;
        assert_eq!(t.vertex(m).depth, 2);
        assert_eq!(t.vertex(m).mark_count, 1);
        assert_eq!(t.vertex(m).parent, Trie::ROOT);
        assert_eq!(t.vertex_count(), 3);
    }

    #[test]
    fn vacuous_qos_bound_adds_no_mark() {
        let mut t = trie(4, 1);
        insert(&mut t, 0b1010, Some(5));
        let marks: u32 = t.post_order().iter().map(|&v| t.vertex(v).mark_count).sum();
        assert_eq!(marks, 0);
        assert_eq!(t.vertex_count(), 2);
    }

    #[test]
    fn tight_qos_bound_marks_the_leaf() {
        let mut t = trie(4, 1);
        let leaf = insert(&mut t, 0b1010, Some(1));
        assert_eq!(t.vertex(leaf).mark_count, 1);
        assert_eq!(t.vertex_count(), 2);
    }

    #[test]
    fn remove_clears_qos_mark() {
        let mut t = trie(4, 1);
        insert(&mut t, 0b1010, Some(2));
        t.remove_leaf(id(0b1010)).unwrap();
        assert_eq!(t.vertex_count(), 1, "everything pruned back to root");
    }

    #[test]
    fn a_dropped_mark_merges_its_depth_back_into_the_edge() {
        let mut t = trie(4, 1);
        insert(&mut t, 0b1010, Some(3)); // marks depth 2
        let kept = insert(&mut t, 0b1011, None); // branches at depth 3
        assert_eq!(t.vertex_count(), 5, "root, mark, branch, two leaves");
        let survivor = t.remove_leaf(id(0b1010)).unwrap();
        assert_eq!(survivor, kept);
        assert_eq!(t.vertex_count(), 2, "mark and branch both merged");
        assert_eq!(t.folded_levels(kept), 3);
    }

    #[test]
    fn post_order_visits_children_first() {
        let mut t = trie(3, 1);
        insert(&mut t, 0b101, None);
        insert(&mut t, 0b100, None);
        let order = t.post_order();
        assert_eq!(*order.last().unwrap(), Trie::ROOT);
        let pos = |v: u32| order.iter().position(|&x| x == v).unwrap();
        for &v in &order {
            for (_, c) in t.children_of(v) {
                assert!(pos(c) < pos(v), "child before parent");
            }
        }
    }

    #[test]
    fn base16_digits_build_shallow_tries() {
        let mut t = trie(8, 4);
        let v = insert(&mut t, 0xAB, None);
        assert_eq!(t.vertex(v).depth, 2, "two hex digits");
        assert_eq!(t.arity, 16);
    }

    #[test]
    fn reset_to_wider_digits_regrows_arena() {
        let mut t = trie(8, 1);
        insert(&mut t, 0xAB, None);
        t.reset(IdSpace::new(8).unwrap(), 4).unwrap();
        assert_eq!(t.arity, 16);
        let v = insert(&mut t, 0xAB, None);
        assert_eq!(t.vertex(v).depth, 2);
        assert_eq!(t.leaf_vertex(id(0xAB)), Some(v));
    }

    /// Check the compressed shape and return `(leaves, marked unary
    /// vertices)`: every non-root vertex is a leaf, a branching point or
    /// a marked depth; edges descend; keys agree with their ancestors.
    fn check_shape(t: &Trie) -> (usize, usize) {
        let (mut leaves, mut marked) = (0, 0);
        for v in t.post_order() {
            let vert = t.vertex(v);
            let children = t.children_of(v).count();
            if vert.leaf.is_some() {
                leaves += 1;
                assert_eq!(vert.depth, t.digit_count);
                assert_eq!(children, 0);
            } else if v != Trie::ROOT && children < 2 {
                assert!(vert.mark_count > 0, "unary vertex {v} without a mark");
                assert_eq!(children, 1);
                marked += 1;
            }
            for (slot, c) in t.children_of(v) {
                let cv = t.vertex(c);
                assert_eq!(cv.parent, v);
                assert_eq!(cv.slot, slot);
                assert!(cv.depth > vert.depth);
                assert!(t.shared_digits(cv.key, vert.key) >= vert.depth);
                assert_eq!(t.digit(cv.key, vert.depth), slot);
            }
        }
        (leaves, marked)
    }

    /// Work count: a compressed trie holds at most `2·leaves − 1`
    /// leaf and branching vertices, plus the marked unary depths and the
    /// root when it has a single child — after random builds, after churn
    /// whose removals leave chains to merge, and after a reset rebuild.
    #[test]
    fn vertex_count_stays_within_the_compressed_bound() {
        let bound = |t: &Trie| {
            let (leaves, marked) = check_shape(t);
            let unary_root = usize::from(t.children_of(Trie::ROOT).count() == 1);
            let limit = (2 * leaves).saturating_sub(1) + marked + unary_root;
            assert!(
                t.vertex_count() <= limit.max(1),
                "{} vertices for {leaves} leaves and {marked} marks",
                t.vertex_count()
            );
        };
        for (bits, d, seed) in [(32, 1, 1), (32, 4, 2), (30, 4, 3), (12, 2, 4), (128, 1, 5)] {
            let space = IdSpace::new(bits).unwrap();
            let digits = u32::from(space.digit_count(d).unwrap());
            let top = space.size().unwrap_or(u128::MAX);
            let mut rng = StdRng::seed_from_u64(seed);
            let centre = rng.gen_range(0..top);
            let mut t = Trie::new(space, d).unwrap();
            let mut live: Vec<(Id, Option<u32>)> = Vec::new();
            for round in 0..6 {
                // Clustered inserts build long shared chains ...
                for _ in 0..40 {
                    let raw = if rng.gen_bool(0.6) {
                        (centre ^ rng.gen_range(0..1u128 << 8)) % top
                    } else {
                        rng.gen_range(0..top)
                    };
                    let bound_hops = rng.gen_bool(0.2).then(|| rng.gen_range(1..=digits + 1));
                    if t.insert_leaf(id(raw), 1.0, false, bound_hops).is_ok() {
                        live.push((id(raw), bound_hops));
                    }
                    bound(&t);
                }
                // ... whose removal leaves single-child vertices to merge.
                for _ in 0..(25 + round * 2).min(live.len()) {
                    let (gone, _) = live.swap_remove(rng.gen_range(0..live.len()));
                    t.remove_leaf(gone).unwrap();
                    bound(&t);
                }
            }
            let churned = t.vertex_count();
            let mut fresh = Trie::new(space, d).unwrap();
            t.reset(space, d).unwrap();
            for &(leaf, bound_hops) in &live {
                fresh.insert_leaf(leaf, 1.0, false, bound_hops).unwrap();
                t.insert_leaf(leaf, 1.0, false, bound_hops).unwrap();
            }
            bound(&t);
            assert_eq!(t.vertex_count(), fresh.vertex_count(), "reset + rebuild");
            assert_eq!(
                churned,
                fresh.vertex_count(),
                "the compressed shape is canonical"
            );
        }
    }
}
