//! Ablation for §III-2: storage-limited frequency tracking.
//!
//! "If the number of accessed nodes is very large, then a node can simply
//! store the top-n frequent nodes … the resulting solution may be
//! sub-optimal because some nodes are ignored."
//!
//! We measure that sub-optimality: the eq.-1 cost of selections computed
//! from (a) exact full counts, (b) exact counts truncated to the top-n,
//! and (c) a Space-Saving sketch with n monitored slots, as n shrinks.

use peercache_core::chord::select_fast;
use peercache_core::cost::chord_cost;
use peercache_core::{CandidateScratch, ChordProblem};
use peercache_freq::{ExactCounter, FrequencyEstimator, FrequencySnapshot, SpaceSaving};
use peercache_id::{Id, IdSpace};
use peercache_workload::{random_ids, Zipf};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn problem_from(
    space: IdSpace,
    me: Id,
    core: &[Id],
    snapshot: &FrequencySnapshot,
    k: usize,
) -> ChordProblem {
    let cands = CandidateScratch::default()
        .fill(snapshot, me, core)
        .to_vec();
    ChordProblem::new(space, me, core.to_vec(), cands, k).unwrap()
}

fn main() {
    let mut cli = peercache_bench::BinArgs::parse("ablation_topn");
    let space = IdSpace::paper();
    let mut rng = StdRng::seed_from_u64(23);
    let peers = random_ids(space, 512, &mut rng);
    let me = peers[0];
    // Ascending, as a substrate yields a core and the candidate cut takes it.
    let mut core: Vec<Id> = peers[1..10].to_vec();
    core.sort_unstable();
    let owners = &peers[10..];

    // A long observation stream over Zipf(1.2) owners.
    let zipf = Zipf::new(owners.len(), 1.2).unwrap();
    let mut exact = ExactCounter::new();
    let mut sketches: Vec<(usize, SpaceSaving)> = [8usize, 16, 32, 64, 128]
        .iter()
        .map(|&n| (n, SpaceSaving::new(n)))
        .collect();
    for _ in 0..200_000 {
        let owner = owners[zipf.sample(&mut rng)];
        exact.observe(owner);
        for (_, s) in &mut sketches {
            s.observe(owner);
        }
    }

    let k = 10;
    // Ground truth: selection from the full exact counts, PRICED against
    // the full exact distribution.
    let full = problem_from(space, me, &core, &exact.snapshot(), k);
    let best = select_fast(&full).unwrap();
    peercache_bench::teeln!(
        cli.tee,
        "full tracking: eq.1 cost {:.0} ({} candidates)\n",
        best.cost,
        full.candidates.len()
    );
    peercache_bench::teeln!(
        cli.tee,
        "{:>6} {:>16} {:>16}",
        "top-n",
        "exact-top-n",
        "space-saving"
    );
    for (n, sketch) in &sketches {
        let truncated = problem_from(space, me, &core, &exact.snapshot().top_n(*n), k);
        let t_sel = select_fast(&truncated).unwrap();
        let t_cost = chord_cost(&full, &t_sel.aux); // price on the TRUE distribution
        let sk = problem_from(space, me, &core, &sketch.snapshot(), k);
        let s_sel = select_fast(&sk).unwrap();
        let s_cost = chord_cost(&full, &s_sel.aux);
        peercache_bench::teeln!(
            cli.tee,
            "{n:>6} {:>15.2}% {:>15.2}%",
            (t_cost - best.cost) / best.cost * 100.0,
            (s_cost - best.cost) / best.cost * 100.0,
        );
    }
    peercache_bench::teeln!(
        cli.tee,
        "\n(values are eq.1 cost increase over full tracking; 0% = no loss)"
    );
}
