//! Extension demonstrating §I's transfer claim: "the techniques presented
//! for Pastry can be directly applied to Tapestry".
//!
//! We run the paper's stable-mode comparison on a Tapestry overlay
//! (prefix routing with surrogate roots, no leaf set), reusing the Pastry
//! selection algorithms verbatim — the trie cost model only needs the
//! digits-to-fix geometry, which Tapestry shares.

use peercache_core::pastry::select_greedy;
use peercache_core::{CandidateScratch, PastryProblem};
use peercache_freq::FrequencySnapshot;
use peercache_id::{Id, IdSpace};
use peercache_tapestry::{TapestryConfig, TapestryNetwork};
use peercache_workload::{random_ids, ItemCatalog, NodeWorkload, Ranking, Zipf};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn main() {
    let mut cli = peercache_bench::BinArgs::parse("ext_tapestry");
    let quick = cli.quick;
    let (n, queries) = if quick { (128, 10_000) } else { (1024, 40_000) };
    let items = 64;
    let digit_bits = 1u8;
    let k = (n as f64).log2().round() as usize;
    let space = IdSpace::paper();
    let mut rng = StdRng::seed_from_u64(29);

    let node_ids = random_ids(space, n, &mut rng);
    let mut net = TapestryNetwork::build(TapestryConfig::new(space, digit_bits), &node_ids);
    let catalog = ItemCatalog::random(space, items, &mut rng);
    let workload = NodeWorkload::new(Zipf::new(items, 1.2).unwrap(), Ranking::identity(items));
    let owners: Vec<Id> = (0..items)
        .map(|i| net.true_owner(catalog.key(i)).unwrap())
        .collect();
    let weights = FrequencySnapshot::from_pairs(workload.node_weights(items, |i| owners[i]));

    // Selections per node: the PASTRY optimiser, unchanged.
    let mut aware = Vec::with_capacity(n);
    let mut oblivious = Vec::with_capacity(n);
    let mut rng_sel = StdRng::seed_from_u64(30);
    let mut cut = CandidateScratch::default();
    for &node in &node_ids {
        let core = net.node(node).unwrap().core_neighbors();
        let cands = cut.fill(&weights, node, &core).to_vec();
        let problem = PastryProblem::new(space, digit_bits, node, core, cands, k).unwrap();
        let sel = select_greedy(&problem).unwrap();
        // Oblivious: random nodes from the overlay, same budget.
        let mut pool: Vec<Id> = node_ids.iter().copied().filter(|&x| x != node).collect();
        pool.shuffle(&mut rng_sel);
        pool.truncate(sel.aux.len());
        aware.push(sel.aux);
        oblivious.push(pool);
    }

    let measure = |net: &mut TapestryNetwork, sets: Option<&[Vec<Id>]>| -> f64 {
        for (idx, &node) in node_ids.iter().enumerate() {
            net.set_aux(node, sets.map(|s| s[idx].clone()).unwrap_or_default())
                .unwrap();
        }
        let mut rng = StdRng::seed_from_u64(31);
        let mut hops = 0u64;
        for _ in 0..queries {
            let origin = node_ids[rng.gen_range(0..n)];
            let key = catalog.key(workload.sample_item(&mut rng));
            let res = net.route(origin, key).unwrap();
            assert!(res.is_success());
            hops += u64::from(res.hops);
        }
        hops as f64 / f64::from(queries)
    };

    let core_only = measure(&mut net, None);
    let hops_aware = measure(&mut net, Some(&aware));
    let hops_oblivious = measure(&mut net, Some(&oblivious));
    peercache_bench::teeln!(
        cli.tee,
        "Tapestry transfer (extension; §I claim), n = {n}, k = {k}, alpha = 1.2\n"
    );
    peercache_bench::teeln!(
        cli.tee,
        "core routing table only:       {core_only:.3} hops"
    );
    peercache_bench::teeln!(
        cli.tee,
        "frequency-aware (Pastry alg.): {hops_aware:.3} hops"
    );
    peercache_bench::teeln!(
        cli.tee,
        "frequency-oblivious random:    {hops_oblivious:.3} hops"
    );
    peercache_bench::teeln!(
        cli.tee,
        "\nreduction vs oblivious: {:.1}% — the Pastry selection transfers to \
         Tapestry unchanged.",
        (hops_oblivious - hops_aware) / hops_oblivious * 100.0
    );
    assert!(hops_aware < hops_oblivious);
}
