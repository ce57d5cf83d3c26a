//! Extension demonstrating §I's second transfer claim: "the techniques
//! for Chord are applicable to SkipGraphs".
//!
//! Skip-graph level links live in *rank* space (level `i` spans ~`2^i`
//! positions), so we run the paper's Chord optimiser after mapping every
//! node to its rank offset from the selecting node, then map the chosen
//! ranks back to node ids and install them as auxiliary links.

use peercache_freq::FrequencySnapshot;
use peercache_id::{Id, IdSpace};
use peercache_sim::SimOverlay;
use peercache_skipgraph::{SkipGraphConfig, SkipGraphNetwork};
use peercache_workload::{random_ids, ItemCatalog, NodeWorkload, Ranking, Zipf};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn main() {
    let mut cli = peercache_bench::BinArgs::parse("ext_skipgraph");
    let quick = cli.quick;
    let (n, queries) = if quick { (128, 10_000) } else { (1024, 40_000) };
    let items = 64;
    let k = (n as f64).log2().round() as usize;
    let space = IdSpace::paper();
    let mut rng = StdRng::seed_from_u64(37);

    let mut node_ids = random_ids(space, n, &mut rng);
    node_ids.sort();
    let mut net = SkipGraphNetwork::build(SkipGraphConfig::new(space), &node_ids);
    let catalog = ItemCatalog::random(space, items, &mut rng);
    let workload = NodeWorkload::new(Zipf::new(items, 1.2).unwrap(), Ranking::identity(items));
    let owners: Vec<Id> = (0..items)
        .map(|i| net.true_owner(catalog.key(i)).unwrap())
        .collect();
    let weights = FrequencySnapshot::from_pairs(workload.node_weights(items, |i| owners[i]));

    // The rank-space transfer is the overlay bridge's SkipGraph arm.
    let overlay = SimOverlay::SkipGraph(net.clone());
    let mut aware = Vec::with_capacity(n);
    let mut oblivious = Vec::with_capacity(n);
    let mut rng_sel = StdRng::seed_from_u64(38);
    for &node in &node_ids {
        let aux = overlay.select_aware(node, &weights, k).unwrap().aux;
        let mut pool: Vec<Id> = node_ids.iter().copied().filter(|&x| x != node).collect();
        pool.shuffle(&mut rng_sel);
        pool.truncate(aux.len());
        aware.push(aux);
        oblivious.push(pool);
    }

    let measure = |net: &mut SkipGraphNetwork, sets: Option<&[Vec<Id>]>| -> f64 {
        for (idx, &node) in node_ids.iter().enumerate() {
            net.set_aux(node, sets.map(|s| s[idx].clone()).unwrap_or_default())
                .unwrap();
        }
        let mut rng = StdRng::seed_from_u64(39);
        let mut hops = 0u64;
        for _ in 0..queries {
            let origin = node_ids[rng.gen_range(0..n)];
            let key = catalog.key(workload.sample_item(&mut rng));
            let res = net.search(origin, key).unwrap();
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
        "skip-graph transfer (extension; §I claim), n = {n}, k = {k}, alpha = 1.2\n"
    );
    peercache_bench::teeln!(
        cli.tee,
        "level links only:               {core_only:.3} hops"
    );
    peercache_bench::teeln!(
        cli.tee,
        "frequency-aware (Chord alg.):   {hops_aware:.3} hops"
    );
    peercache_bench::teeln!(
        cli.tee,
        "frequency-oblivious random:     {hops_oblivious:.3} hops"
    );
    peercache_bench::teeln!(
        cli.tee,
        "\nreduction vs oblivious: {:.1}% — the Chord selection transfers to \
         skip graphs through rank space.",
        (hops_oblivious - hops_aware) / hops_oblivious * 100.0
    );
    assert!(hops_aware < hops_oblivious);
}
