use std::borrow::Borrow;
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use peercache_freq::FrequencySnapshot;
use peercache_id::{Id, IdSpace};

/// A peer the selecting node has seen queries for: a member of the paper's
/// set `V` with access frequency `f_v` (§III), plus an optional QoS bound.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Candidate {
    /// The peer's identifier.
    pub id: Id,
    /// The access frequency `f_v` (any non-negative finite weight).
    pub weight: f64,
    /// QoS delay bound: queries for this peer must complete within this
    /// many hops, i.e. `1 + d(v, N ∪ A) ≤ max_hops` (§IV-D, §V-C).
    /// `None` means unconstrained.
    pub max_hops: Option<u32>,
}

impl Candidate {
    /// An unconstrained candidate.
    pub fn new(id: Id, weight: f64) -> Self {
        Candidate {
            id,
            weight,
            max_hops: None,
        }
    }

    /// A candidate whose queries carry a QoS delay bound (in hops,
    /// including the first hop out of the selecting node).
    pub fn with_max_hops(id: Id, weight: f64, max_hops: u32) -> Self {
        Candidate {
            id,
            weight,
            max_hops: Some(max_hops),
        }
    }
}

/// Errors from problem validation or selection.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectError {
    /// The problem instance is malformed (duplicate/out-of-space ids,
    /// candidate equal to the source or a core neighbor, bad weights…).
    InvalidProblem(String),
    /// The QoS delay bounds cannot all be met with `k` auxiliary pointers.
    QosInfeasible {
        /// Minimum number of auxiliary pointers any feasible solution needs
        /// (`u32::MAX` when no number of pointers can satisfy a bound).
        required: u32,
        /// The number of pointers available.
        k: u32,
    },
}

impl fmt::Display for SelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectError::InvalidProblem(msg) => write!(f, "invalid problem: {msg}"),
            SelectError::QosInfeasible { required, k } => write!(
                f,
                "QoS bounds need at least {required} auxiliary pointers, only {k} available"
            ),
        }
    }
}

impl Error for SelectError {}

/// The result of an auxiliary-neighbor selection.
#[derive(Clone, Debug, PartialEq)]
pub struct Selection {
    /// The chosen auxiliary neighbors `A_s`, sorted by id.
    pub aux: Vec<Id>,
    /// The objective value `Cost(A_s) = Σ_v f_v (1 + d(v, N_s ∪ A_s))`
    /// (paper eq. 1) over the problem's candidates.
    pub cost: f64,
}

/// The selection-input builder: the candidate set `V` (§III, eq. 1) of
/// one node at a time, cut into a retained buffer, so at warmed capacity a
/// fill allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct CandidateScratch {
    candidates: Vec<Candidate>,
}

impl CandidateScratch {
    /// Refill with the entries of `frequencies` other than `source` and
    /// its `core`, cut by one merge and kept in the snapshot's id order,
    /// so every float sum over them keeps its bits. `core` is taken as
    /// every substrate's `core_neighbors_into` yields it: ascending,
    /// without repeats and without `source`.
    pub fn fill(
        &mut self,
        frequencies: &FrequencySnapshot,
        source: Id,
        core: &[Id],
    ) -> &[Candidate] {
        debug_assert!(
            core.windows(2).all(|w| w[0] < w[1]),
            "the core must be ascending without repeats"
        );
        self.candidates.clear();
        let mut core = core.iter().peekable();
        for entry in frequencies.entries() {
            while core.next_if(|&&c| c < entry.peer).is_some() {}
            if entry.peer != source && core.peek() != Some(&&entry.peer) {
                self.candidates
                    .push(Candidate::new(entry.peer, entry.weight));
            }
        }
        &self.candidates
    }
}

fn validate_common(
    space: IdSpace,
    source: Id,
    core: &[Id],
    candidates: &[Candidate],
) -> Result<(), SelectError> {
    space
        .check(source)
        .map_err(|e| SelectError::InvalidProblem(format!("source: {e}")))?;
    let mut core_set = HashSet::with_capacity(core.len());
    for &c in core {
        space
            .check(c)
            .map_err(|e| SelectError::InvalidProblem(format!("core neighbor: {e}")))?;
        if c == source {
            return Err(SelectError::InvalidProblem(format!(
                "core neighbor {c} equals the source node"
            )));
        }
        if !core_set.insert(c) {
            return Err(SelectError::InvalidProblem(format!(
                "duplicate core neighbor {c}"
            )));
        }
    }
    let mut seen = HashSet::with_capacity(candidates.len());
    for cand in candidates {
        space
            .check(cand.id)
            .map_err(|e| SelectError::InvalidProblem(format!("candidate: {e}")))?;
        if !cand.weight.is_finite() || cand.weight < 0.0 {
            return Err(SelectError::InvalidProblem(format!(
                "candidate {} has invalid weight {}",
                cand.id, cand.weight
            )));
        }
        if cand.id == source {
            return Err(SelectError::InvalidProblem(format!(
                "candidate {} equals the source node",
                cand.id
            )));
        }
        if core_set.contains(&cand.id) {
            return Err(SelectError::InvalidProblem(format!(
                "candidate {} is already a core neighbor; cut the \
                 candidates with `CandidateScratch::fill` first",
                cand.id
            )));
        }
        if !seen.insert(cand.id) {
            return Err(SelectError::InvalidProblem(format!(
                "duplicate candidate {}",
                cand.id
            )));
        }
        if cand.max_hops == Some(0) {
            return Err(SelectError::InvalidProblem(format!(
                "candidate {}: max_hops must be ≥ 1 (the first hop is always taken)",
                cand.id
            )));
        }
    }
    Ok(())
}

/// An auxiliary-neighbor selection problem for a Pastry node (§IV).
///
/// The selecting node `source` holds core neighbors `core` (its routing
/// table) and has observed queries for `candidates`; it wants the `k`
/// candidates that minimise eq. (1) under the prefix-routing distance
/// estimate `d_uv = ⌈b/d⌉ − ⌊lcp(u,v)/d⌋` digits. `Default` is an empty
/// problem, storage for [`refill`](Self::refill).
#[derive(Clone, Debug, Default)]
pub struct PastryProblem {
    /// The identifier space.
    pub space: IdSpace,
    /// Digit width `d` in bits (the paper exposits `d = 1`; footnote 2
    /// notes the extension to arbitrary bases, which we support).
    pub digit_bits: u8,
    /// The selecting node `s`.
    pub source: Id,
    /// The core neighbors `N_s` (Pastry routing-table entries).
    pub core: Vec<Id>,
    /// The observed peers `V` with access frequencies.
    pub candidates: Vec<Candidate>,
    /// Number of auxiliary pointers to choose (clamped to `|V|`).
    pub k: usize,
}

impl PastryProblem {
    /// Validate and construct a problem instance; the one-shot form of
    /// [`refill`](Self::refill).
    ///
    /// # Errors
    /// [`SelectError::InvalidProblem`] on malformed input (see the variant
    /// docs).
    pub fn new(
        space: IdSpace,
        digit_bits: u8,
        source: Id,
        core: Vec<Id>,
        candidates: Vec<Candidate>,
        k: usize,
    ) -> Result<Self, SelectError> {
        let mut problem = PastryProblem::default();
        problem.refill(space, digit_bits, source, core, candidates, k)?;
        Ok(problem)
    }

    /// Refill this problem **in place**, reusing its buffers, and
    /// validate it exactly as [`new`](Self::new) does. After an error the
    /// contents are unspecified until the next successful refill.
    ///
    /// # Errors
    /// [`SelectError::InvalidProblem`] on malformed input.
    pub fn refill(
        &mut self,
        space: IdSpace,
        digit_bits: u8,
        source: Id,
        core: impl IntoIterator<Item = impl Borrow<Id>>,
        candidates: impl IntoIterator<Item = impl Borrow<Candidate>>,
        k: usize,
    ) -> Result<(), SelectError> {
        self.space = space;
        self.digit_bits = digit_bits;
        self.source = source;
        self.k = k;
        self.core.clear();
        self.core.extend(core.into_iter().map(|c| *c.borrow()));
        self.candidates.clear();
        self.candidates
            .extend(candidates.into_iter().map(|c| *c.borrow()));
        space
            .digit_count(digit_bits)
            .map_err(|e| SelectError::InvalidProblem(e.to_string()))?;
        if digit_bits > 16 {
            // Digits are represented as u16 and each trie vertex holds 2^d
            // child slots; wider digits are never useful and would overflow
            // both representations.
            return Err(SelectError::InvalidProblem(format!(
                "digit width {digit_bits} exceeds the supported maximum of 16 bits"
            )));
        }
        validate_common(space, source, &self.core, &self.candidates)
    }

    /// The effective number of pointers: `min(k, |V|)`.
    pub fn effective_k(&self) -> usize {
        self.k.min(self.candidates.len())
    }
}

/// An auxiliary-neighbor selection problem for a Chord node (§V).
///
/// Distances use the Chord estimate `d_uv = position of the leftmost 1 in
/// (v − u) mod 2^b` (paper eq. 6). The algorithms re-base all ids so the
/// selecting node sits at the ring origin (the paper's "zero-node").
/// `Default` is an empty problem, storage for [`refill`](Self::refill).
#[derive(Clone, Debug, Default)]
pub struct ChordProblem {
    /// The identifier space.
    pub space: IdSpace,
    /// The selecting node `s`.
    pub source: Id,
    /// The core neighbors `N_s` (Chord fingers and successors).
    pub core: Vec<Id>,
    /// The observed peers `V` with access frequencies.
    pub candidates: Vec<Candidate>,
    /// Number of auxiliary pointers to choose (clamped to `|V|`).
    pub k: usize,
}

impl ChordProblem {
    /// Validate and construct a problem instance; the one-shot form of
    /// [`refill`](Self::refill).
    ///
    /// # Errors
    /// [`SelectError::InvalidProblem`] on malformed input.
    pub fn new(
        space: IdSpace,
        source: Id,
        core: Vec<Id>,
        candidates: Vec<Candidate>,
        k: usize,
    ) -> Result<Self, SelectError> {
        let mut problem = ChordProblem::default();
        problem.refill(space, source, core, candidates, k)?;
        Ok(problem)
    }

    /// Refill this problem **in place**, reusing its buffers, and
    /// validate it exactly as [`new`](Self::new) does. After an error the
    /// contents are unspecified until the next successful refill.
    ///
    /// # Errors
    /// [`SelectError::InvalidProblem`] on malformed input.
    pub fn refill(
        &mut self,
        space: IdSpace,
        source: Id,
        core: impl IntoIterator<Item = impl Borrow<Id>>,
        candidates: impl IntoIterator<Item = impl Borrow<Candidate>>,
        k: usize,
    ) -> Result<(), SelectError> {
        self.space = space;
        self.source = source;
        self.k = k;
        self.core.clear();
        self.core.extend(core.into_iter().map(|c| *c.borrow()));
        self.candidates.clear();
        self.candidates
            .extend(candidates.into_iter().map(|c| *c.borrow()));
        validate_common(space, source, &self.core, &self.candidates)
    }

    /// The effective number of pointers: `min(k, |V|)`.
    pub fn effective_k(&self) -> usize {
        self.k.min(self.candidates.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chord::select_fast;
    use crate::pastry::select_greedy;

    fn id(v: u128) -> Id {
        Id::new(v)
    }

    fn space() -> IdSpace {
        IdSpace::new(8).unwrap()
    }

    /// A well-formed instance: source 0, one core neighbor, three
    /// candidates.
    fn valid_inputs() -> (Vec<Id>, Vec<Candidate>) {
        (
            vec![id(128)],
            vec![
                Candidate::new(id(3), 2.0),
                Candidate::new(id(64), 0.5),
                Candidate::new(id(200), 3.25),
            ],
        )
    }

    fn assert_same_solve(a: Result<Selection, SelectError>, b: Result<Selection, SelectError>) {
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_eq!(a.aux, b.aux);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
    }

    /// One validation case through `new` and, as one more input, through
    /// `refill` on a reused problem: the refill must return `new`'s
    /// verdict, and a valid refill after it must solve bit-equal to a
    /// fresh `new`.
    fn chord(
        space: IdSpace,
        source: Id,
        core: Vec<Id>,
        candidates: Vec<Candidate>,
        k: usize,
    ) -> Result<ChordProblem, SelectError> {
        let fresh = ChordProblem::new(space, source, core.clone(), candidates.clone(), k);
        let (vcore, vcands) = valid_inputs();
        let valid = |p: &mut ChordProblem| p.refill(self::space(), id(0), &vcore, &vcands, 2);
        let mut reused = ChordProblem::default();
        valid(&mut reused).unwrap();
        let refilled = reused.refill(space, source, core, candidates, k);
        assert_eq!(refilled.as_ref().err(), fresh.as_ref().err());
        if let Ok(fresh) = &fresh {
            assert_same_solve(select_fast(&reused), select_fast(fresh));
        }
        valid(&mut reused).unwrap();
        let again = ChordProblem::new(self::space(), id(0), vcore.clone(), vcands.clone(), 2);
        assert_same_solve(select_fast(&reused), select_fast(&again.unwrap()));
        fresh
    }

    /// [`chord`]'s two-way check for `PastryProblem`.
    fn pastry(
        space: IdSpace,
        digit_bits: u8,
        source: Id,
        core: Vec<Id>,
        candidates: Vec<Candidate>,
        k: usize,
    ) -> Result<PastryProblem, SelectError> {
        let fresh = PastryProblem::new(
            space,
            digit_bits,
            source,
            core.clone(),
            candidates.clone(),
            k,
        );
        let (vcore, vcands) = valid_inputs();
        let valid = |p: &mut PastryProblem| p.refill(self::space(), 2, id(0), &vcore, &vcands, 2);
        let mut reused = PastryProblem::default();
        valid(&mut reused).unwrap();
        let refilled = reused.refill(space, digit_bits, source, core, candidates, k);
        assert_eq!(refilled.as_ref().err(), fresh.as_ref().err());
        if let Ok(fresh) = &fresh {
            assert_same_solve(select_greedy(&reused), select_greedy(fresh));
        }
        valid(&mut reused).unwrap();
        let again = PastryProblem::new(self::space(), 2, id(0), vcore.clone(), vcands.clone(), 2);
        assert_same_solve(select_greedy(&reused), select_greedy(&again.unwrap()));
        fresh
    }

    #[test]
    fn accepts_well_formed_problem() {
        let p = pastry(
            space(),
            1,
            id(0),
            vec![id(128)],
            vec![Candidate::new(id(1), 2.0), Candidate::new(id(2), 3.0)],
            1,
        );
        assert!(p.is_ok());
        assert_eq!(p.unwrap().effective_k(), 1);
    }

    #[test]
    fn effective_k_clamps_to_candidates() {
        let p = chord(space(), id(0), vec![], vec![Candidate::new(id(1), 2.0)], 10).unwrap();
        assert_eq!(p.effective_k(), 1);
    }

    #[test]
    fn rejects_candidate_equal_to_source() {
        let e = chord(space(), id(5), vec![], vec![Candidate::new(id(5), 1.0)], 1).unwrap_err();
        assert!(matches!(e, SelectError::InvalidProblem(_)));
    }

    #[test]
    fn rejects_candidate_in_core() {
        let e = chord(
            space(),
            id(0),
            vec![id(7)],
            vec![Candidate::new(id(7), 1.0)],
            1,
        )
        .unwrap_err();
        assert!(matches!(e, SelectError::InvalidProblem(_)));
    }

    #[test]
    fn rejects_duplicate_candidates() {
        let e = chord(
            space(),
            id(0),
            vec![],
            vec![Candidate::new(id(7), 1.0), Candidate::new(id(7), 2.0)],
            1,
        )
        .unwrap_err();
        assert!(matches!(e, SelectError::InvalidProblem(_)));
    }

    #[test]
    fn rejects_duplicate_core_neighbors() {
        let e = chord(space(), id(0), vec![id(7), id(7)], vec![], 1).unwrap_err();
        assert!(matches!(e, SelectError::InvalidProblem(_)));
    }

    #[test]
    fn rejects_out_of_space_ids() {
        let e = chord(
            space(),
            id(0),
            vec![],
            vec![Candidate::new(id(256), 1.0)],
            1,
        )
        .unwrap_err();
        assert!(matches!(e, SelectError::InvalidProblem(_)));
    }

    #[test]
    fn rejects_bad_weights() {
        for w in [f64::NAN, f64::INFINITY, -1.0] {
            let e = chord(space(), id(0), vec![], vec![Candidate::new(id(1), w)], 1).unwrap_err();
            assert!(matches!(e, SelectError::InvalidProblem(_)), "weight {w}");
        }
    }

    #[test]
    fn rejects_zero_hop_bound() {
        let e = chord(
            space(),
            id(0),
            vec![],
            vec![Candidate::with_max_hops(id(1), 1.0, 0)],
            1,
        )
        .unwrap_err();
        assert!(matches!(e, SelectError::InvalidProblem(_)));
    }

    #[test]
    fn rejects_invalid_digit_bits() {
        let e = pastry(space(), 0, id(0), vec![], vec![], 1).unwrap_err();
        assert!(matches!(e, SelectError::InvalidProblem(_)));
    }

    #[test]
    fn rejects_digit_bits_beyond_u16() {
        let wide = IdSpace::new(64).unwrap();
        let e = pastry(wide, 17, id(0), vec![], vec![], 1).unwrap_err();
        assert!(matches!(e, SelectError::InvalidProblem(_)));
        assert!(pastry(wide, 16, id(0), vec![], vec![], 1).is_ok());
    }

    #[test]
    fn candidate_fill_cuts_the_source_and_its_core() {
        let snapshot =
            FrequencySnapshot::from_counts(vec![(id(1), 5), (id(2), 9), (id(3), 2), (id(7), 4)]);
        let mut scratch = CandidateScratch::default();
        // Stale contents from a previous fill are replaced.
        scratch.fill(&snapshot, id(4), &[id(1)]);
        let cut = scratch.fill(&snapshot, id(3), &[id(2), id(5), id(9)]);
        assert_eq!(
            cut,
            [Candidate::new(id(1), 5.0), Candidate::new(id(7), 4.0)]
        );
    }

    #[test]
    fn error_display_is_informative() {
        let e = SelectError::QosInfeasible { required: 5, k: 2 };
        assert!(e.to_string().contains('5'));
        assert!(e.to_string().contains('2'));
    }
}
