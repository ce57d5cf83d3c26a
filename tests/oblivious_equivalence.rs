//! Differential: `SimOverlay::select_oblivious_uniform` against the
//! frequency-oblivious baseline rebuilt from public API only — a uniform
//! `FrequencySnapshot` of the live ring, filtered `without` the node and
//! its core, validated into a `ChordProblem`/`PastryProblem`, and drawn
//! by `baseline::{chord,pastry}_oblivious` (whose cost is the direct
//! eq. 1 evaluator). Skip graphs take the Chord arm over the live ring.
//!
//! Both sides draw from identically seeded RNG streams across a whole
//! sweep of nodes, so equal aux sets, equal `cost.to_bits()` and equal
//! leftover stream state prove the overlay path consumes the exact draw
//! sequence of the reference.

use peercache::pastry::RoutingMode;
use peercache::select::baseline::{chord_oblivious, pastry_oblivious};
use peercache::sim::{OverlayKind, SimOverlay};
use peercache::workload::random_ids;
use peercache::{Candidate, ChordProblem, FrequencySnapshot, Id, IdSpace, PastryProblem};
use peercache::{SelectError, Selection};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

const NODES: usize = 96;

fn kinds() -> Vec<OverlayKind> {
    vec![
        OverlayKind::Chord,
        OverlayKind::Pastry {
            digit_bits: 1,
            mode: RoutingMode::LocalityAware,
        },
        OverlayKind::Pastry {
            digit_bits: 4,
            mode: RoutingMode::GreedyPrefix,
        },
        OverlayKind::Tapestry { digit_bits: 1 },
        OverlayKind::SkipGraph,
    ]
}

/// The historical whole-ring reference: snapshot → `without` → problem →
/// baseline draw.
fn reference(
    overlay: &SimOverlay,
    space: IdSpace,
    node: Id,
    k: usize,
    rng: &mut StdRng,
) -> Result<Selection, SelectError> {
    let uniform = FrequencySnapshot::from_pairs(overlay.live_ids().into_iter().map(|id| (id, 1.0)));
    let core = overlay.core_neighbors(node);
    let candidates: Vec<Candidate> = uniform
        .without(core.iter().copied().chain(std::iter::once(node)))
        .iter()
        .map(|(id, weight)| Candidate::new(id, weight))
        .collect();
    match overlay.kind() {
        OverlayKind::Chord | OverlayKind::SkipGraph => {
            let candidates = candidates
                .into_iter()
                .filter(|c| overlay.is_live(c.id))
                .collect();
            let problem = ChordProblem::new(space, node, core, candidates, k)?;
            Ok(chord_oblivious(&problem, rng))
        }
        OverlayKind::Pastry { digit_bits, .. } | OverlayKind::Tapestry { digit_bits } => {
            let problem = PastryProblem::new(space, digit_bits, node, core, candidates, k)?;
            Ok(pastry_oblivious(&problem, rng))
        }
    }
}

/// Every live node, in ring order, selects under both paths from
/// identically seeded streams.
fn assert_equivalent(overlay: &SimOverlay, space: IdSpace, k: usize, seed: u64) {
    let kind = overlay.kind();
    let mut rng_fast = StdRng::seed_from_u64(seed);
    let mut rng_ref = StdRng::seed_from_u64(seed);
    for node in overlay.live_ids() {
        let fast = overlay.select_oblivious_uniform(node, k, &mut rng_fast);
        let want = reference(overlay, space, node, k, &mut rng_ref);
        match (fast, want) {
            (Ok(fast), Ok(want)) => {
                assert_eq!(fast.aux, want.aux, "{kind:?} k={k} node {node}: aux");
                assert_eq!(
                    fast.cost.to_bits(),
                    want.cost.to_bits(),
                    "{kind:?} k={k} node {node}: cost {} vs {}",
                    fast.cost,
                    want.cost
                );
            }
            (fast, want) => assert_eq!(fast, want, "{kind:?} k={k} node {node}"),
        }
    }
    assert_eq!(
        rng_fast.next_u64(),
        rng_ref.next_u64(),
        "{kind:?} k={k}: the two paths consumed different draw counts"
    );
}

fn ks(live: usize) -> [usize; 4] {
    // 0, 1, log₂ n, and more than any node's pool.
    let log2 = usize::try_from(live.ilog2()).unwrap_or(0);
    [0, 1, log2, live + 1]
}

fn build(kind: OverlayKind, seed: u64) -> (SimOverlay, IdSpace, Vec<Id>) {
    build_n(kind, NODES, seed)
}

fn build_n(kind: OverlayKind, nodes: usize, seed: u64) -> (SimOverlay, IdSpace, Vec<Id>) {
    let space = IdSpace::paper();
    let mut rng = StdRng::seed_from_u64(seed);
    let ids = random_ids(space, nodes, &mut rng);
    (SimOverlay::build(kind, space, &ids, &mut rng), space, ids)
}

#[test]
fn all_live_rings_draw_identically() {
    for (i, kind) in kinds().into_iter().enumerate() {
        let (overlay, space, _) = build(kind, 40 + i as u64);
        for k in ks(NODES) {
            assert_equivalent(&overlay, space, k, 7 + k as u64);
        }
    }
}

#[test]
fn half_failed_rings_with_dead_core_entries_draw_identically() {
    for (i, kind) in kinds().into_iter().enumerate() {
        let (mut overlay, space, ids) = build(kind, 80 + i as u64);
        // Crash every other node and do NOT stabilize: survivors keep dead
        // ids in their core, which the reference counts in the cost and
        // the candidate filter must still skip.
        for &id in ids.iter().skip(1).step_by(2) {
            assert!(overlay.fail(id));
        }
        let live = overlay.live_ids();
        assert_eq!(live.len(), NODES / 2);
        let dead_in_core = live
            .iter()
            .flat_map(|&n| overlay.core_neighbors(n))
            .any(|c| !overlay.is_live(c));
        assert!(dead_in_core, "{kind:?}: the regime needs dead core entries");
        for k in ks(live.len()) {
            assert_equivalent(&overlay, space, k, 11 + k as u64);
        }
    }
}

#[test]
fn rings_of_one_two_and_three_nodes_draw_identically() {
    for (i, kind) in kinds().into_iter().enumerate() {
        for nodes in 1..=3 {
            let (overlay, space, _) = build_n(kind, nodes, 120 + 3 * i as u64 + nodes as u64);
            assert_eq!(overlay.live_ids().len(), nodes);
            for k in ks(nodes) {
                assert_equivalent(&overlay, space, k, 13 + k as u64);
            }
        }
    }
}
