//! The core contract the selection-input builder relies on: every
//! substrate's `core_neighbors_into` (and `PastryArena`'s) yields the
//! node's core neighbors in ascending order, without repeats and without
//! the node itself. `CandidateScratch::fill` cuts the candidate set by one
//! merge against that slice, so a core out of order would silently keep
//! core neighbors as candidates.
//!
//! Checked in three states: right after `build`, after failing every
//! fifth node with `forget_neighbor` + `stabilize` on the survivors, and
//! after joins.

use peercache::pastry::{PastryArena, PastryConfig, RoutingMode};
use peercache::sim::{OverlayKind, SimOverlay};
use peercache::workload::random_ids;
use peercache::{Id, IdSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;

const NODES: usize = 96;
const JOINS: usize = 12;

fn assert_contract(core: &[Id], node: Id, what: &str) {
    assert!(
        core.windows(2).all(|w| w[0] < w[1]),
        "{what}: core of {node} is not ascending without repeats: {core:?}"
    );
    assert!(
        !core.contains(&node),
        "{what}: core of {node} holds the node"
    );
}

fn check_overlay(overlay: &SimOverlay, state: &str) {
    let mut core = Vec::new();
    for node in overlay.live_ids() {
        overlay.core_neighbors_into(node, &mut core);
        assert_contract(&core, node, &format!("{:?} {state}", overlay.kind()));
    }
}

fn check_arena(config: PastryConfig, ids: &[Id], state: &str) {
    let arena = PastryArena::new(config, ids.to_vec());
    let mut core = Vec::new();
    for (rank, &node) in arena.ids().iter().enumerate() {
        arena.core_neighbors_into(rank, &mut core);
        assert_contract(
            &core,
            node,
            &format!("arena d={} {state}", config.digit_bits),
        );
    }
}

#[test]
fn core_neighbors_are_ascending_unique_and_exclude_the_node() {
    let kinds = [
        (16, OverlayKind::Chord),
        (
            16,
            OverlayKind::Pastry {
                digit_bits: 1,
                mode: RoutingMode::LocalityAware,
            },
        ),
        (
            30,
            OverlayKind::Pastry {
                digit_bits: 4,
                mode: RoutingMode::GreedyPrefix,
            },
        ),
        (16, OverlayKind::Tapestry { digit_bits: 2 }),
        (16, OverlayKind::SkipGraph),
    ];
    for (seed, (bits, kind)) in kinds.into_iter().enumerate() {
        let space = IdSpace::new(bits).unwrap();
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let ids = random_ids(space, NODES + JOINS, &mut rng);
        let (members, newcomers) = ids.split_at(NODES);

        let mut overlay = SimOverlay::build(kind, space, members, &mut rng);
        check_overlay(&overlay, "after build");

        let dead: Vec<Id> = members.iter().copied().step_by(5).collect();
        for &id in &dead {
            assert!(overlay.fail(id));
        }
        for node in overlay.live_ids() {
            for &gone in &dead {
                overlay.forget_entry(node, gone);
            }
            assert!(overlay.stabilize(node));
        }
        check_overlay(&overlay, "after failures");

        for &id in newcomers {
            assert!(overlay.join(id, &mut rng));
        }
        check_overlay(&overlay, "after joins");

        if let OverlayKind::Pastry { digit_bits, .. } = kind {
            let config = PastryConfig::new(space, digit_bits);
            check_arena(config, members, "after build");
            let survivors: Vec<Id> = overlay
                .live_ids()
                .into_iter()
                .filter(|id| !newcomers.contains(id))
                .collect();
            check_arena(config, &survivors, "after failures");
            check_arena(config, &overlay.live_ids(), "after joins");
        }
    }
}
