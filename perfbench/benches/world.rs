//! The stable world rebuilt from public calls only, with a span around
//! each layer: topology (`build.overlay`), frequency aggregation
//! (`freq.aggregate`) and both selections (`select.oblivious`,
//! `select.aware`). The draw order follows the stable driver's, so the
//! selections must equal `RuntimeFixture`'s; the traced run checks that.

use peercache_freq::FrequencySnapshot;
use peercache_id::{Id, IdSpace};
use peercache_sim::overlay::SelectScratch;
use peercache_sim::{RankingMode, SelectionBench, SimOverlay, StableConfig};
use peercache_workload::{random_ids, ItemCatalog, NodeWorkload, RankingAssignment, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::Tracer;

pub struct World {
    pub node_ids: Vec<Id>,
    pub catalog: ItemCatalog,
    pub overlay: SimOverlay,
    pub aware: Vec<Vec<Id>>,
    pub oblivious: Vec<Vec<Id>>,
    workloads: Vec<NodeWorkload>,
    index: Vec<(Id, usize)>,
    pub seed: u64,
    queries: usize,
}

/// Which auxiliary table a pass routes with.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Aux {
    CoreOnly,
    Aware,
    Oblivious,
}

impl Aux {
    pub const ALL: [Aux; 3] = [Aux::CoreOnly, Aux::Aware, Aux::Oblivious];

    pub fn name(self) -> &'static str {
        match self {
            Aux::CoreOnly => "core_only",
            Aux::Aware => "aware",
            Aux::Oblivious => "oblivious",
        }
    }
}

impl World {
    pub fn build(config: &StableConfig, tr: &mut Tracer) -> World {
        let n = config.nodes as u64;
        let space = IdSpace::new(config.bits).expect("valid id width");
        let mut rng_topology = StdRng::seed_from_u64(config.seed);
        let mut rng_workload = StdRng::seed_from_u64(config.seed.wrapping_add(1));
        let node_ids = random_ids(space, config.nodes, &mut rng_topology);
        let catalog = ItemCatalog::random(space, config.items, &mut rng_topology);
        let zipf = Zipf::new(config.items, config.alpha).expect("valid Zipf");
        let assignment = match config.ranking {
            RankingMode::Identical => RankingAssignment::identical(config.items, config.nodes),
            RankingMode::Pool(p) => {
                RankingAssignment::random_pool(config.items, config.nodes, p, &mut rng_workload)
            }
        };
        let overlay = tr.span("build.overlay", n, |_| {
            SimOverlay::build(config.kind, space, &node_ids, &mut rng_topology)
        });
        let pool_weights: Vec<FrequencySnapshot> = tr.span("freq.aggregate", n, |_| {
            let owners: Vec<Id> = (0..config.items)
                .map(|i| overlay.true_owner(catalog.key(i)).expect("non-empty"))
                .collect();
            assignment
                .rankings()
                .iter()
                .map(|ranking| {
                    let wl = NodeWorkload::new(zipf.clone(), ranking.clone());
                    FrequencySnapshot::from_pairs(wl.node_weights(config.items, |i| owners[i]))
                })
                .collect()
        });
        let oblivious = tr.span("select.oblivious", n, |_| {
            let mut rng_select = StdRng::seed_from_u64(config.seed.wrapping_add(3));
            node_ids
                .iter()
                .map(|&node| {
                    overlay
                        .select_oblivious_uniform(node, config.k, &mut rng_select)
                        .expect("stable problems are well-formed")
                        .aux
                })
                .collect()
        });
        let aware = tr.span("select.aware", n, |_| {
            peercache_par::par_map_chunked(
                &node_ids,
                SelectionBench::committed_chunk(),
                |start, nodes| {
                    let mut scratch = SelectScratch::new();
                    nodes
                        .iter()
                        .enumerate()
                        .map(|(offset, &node)| {
                            let freqs = &pool_weights[assignment.pool_index(start + offset)];
                            overlay
                                .select_aware_into(node, freqs, config.k, &mut scratch)
                                .expect("stable problems are well-formed")
                                .aux
                        })
                        .collect()
                },
            )
        });
        let workloads = (0..config.nodes)
            .map(|idx| NodeWorkload::new(zipf.clone(), assignment.for_node(idx).clone()))
            .collect();
        let mut index: Vec<(Id, usize)> = node_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        index.sort_unstable();
        World {
            node_ids,
            catalog,
            overlay,
            aware,
            oblivious,
            workloads,
            index,
            seed: config.seed,
            queries: config.queries,
        }
    }

    /// The stable driver's query stream, drawn as its passes draw it.
    pub fn queries(&self) -> Vec<(Id, Id)> {
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(2));
        (0..self.queries)
            .map(|_| {
                let origin = rng.gen_range(0..self.node_ids.len());
                let item = self.workloads[origin].sample_item(&mut rng);
                (self.node_ids[origin], self.catalog.key(item))
            })
            .collect()
    }

    pub fn aux(&self, which: Aux, id: Id) -> &[Id] {
        let sets = match which {
            Aux::CoreOnly => return &[],
            Aux::Aware => &self.aware,
            Aux::Oblivious => &self.oblivious,
        };
        self.index
            .binary_search_by_key(&id, |&(n, _)| n)
            .map_or(&[], |pos| sets[self.index[pos].1].as_slice())
    }

    /// A selection as the `(node, aux)` table `RuntimeFixture` hands out.
    pub fn table(&self, which: Aux) -> Vec<(Id, Vec<Id>)> {
        let sets = if which == Aux::Aware {
            &self.aware
        } else {
            &self.oblivious
        };
        self.node_ids
            .iter()
            .copied()
            .zip(sets.iter().cloned())
            .collect()
    }
}
