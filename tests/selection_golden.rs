//! Selection-kernel goldens, pinned bit for bit:
//!
//! * the aux ids and `cost.to_bits()` of `PastryWorkspace::solve_into`
//!   over seeded `PastryProblem`s (digit widths 1, 2 and 4, a ragged
//!   30-bit space with 4-bit digits, core leaves, QoS bounds, and
//!   budgets 0, 1, 5 and more than the candidate count), all solved
//!   through one reused workspace;
//! * the same for `ChordWorkspace::solve_into`, with and without core
//!   neighbors and QoS bounds;
//! * a `PastryOptimizer` churn script (insert, remove, update_weight,
//!   add_core, remove_core) reading `selection(j)` for every `j ≤ k`
//!   after each step;
//! * a digest of every node's routing rows and leaf set after
//!   `PastryNetwork::build`, and again after failures, a full repair and
//!   joins.
//!
//! The stable goldens pin hop counts, which a drifted cost bit or a
//! re-ordered tie can leave unchanged; these pin the kernels' outputs
//! themselves.
//!
//! Regenerate (only when a selection is meant to change) with
//! `PEERCACHE_PRINT_GOLDEN=1 cargo test --test selection_golden -- --nocapture`
//! and paste the printed values.

use peercache::pastry::{PastryConfig, PastryNetwork};
use peercache::select::chord::ChordWorkspace;
use peercache::select::pastry::{PastryOptimizer, PastryWorkspace};
use peercache::{Candidate, ChordProblem, Id, IdSpace, PastryProblem, SelectError, Selection};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over little-endian words.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, v: u128) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn printing() -> bool {
    std::env::var_os("PEERCACHE_PRINT_GOLDEN").is_some()
}

/// A solve's golden: (digest of the aux ids, `cost.to_bits()`), or
/// `(u64::MAX, required << 32 | k)` for a QoS-infeasible budget.
fn outcome(result: Result<&Selection, SelectError>) -> (u64, u64) {
    match result {
        Ok(sel) => {
            let mut d = Digest::new();
            d.push(sel.aux.len() as u128);
            for id in &sel.aux {
                d.push(id.value());
            }
            (d.0, sel.cost.to_bits())
        }
        Err(SelectError::QosInfeasible { required, k }) => {
            (u64::MAX, u64::from(required) << 32 | u64::from(k))
        }
        Err(e) => panic!("golden problems are well formed: {e}"),
    }
}

/// `count` distinct ids of `space`, none in `taken`; about half are drawn
/// near a few cluster centres so that the trie has deep shared prefixes.
fn draw_ids(rng: &mut StdRng, space: IdSpace, count: usize, taken: &mut Vec<Id>) -> Vec<Id> {
    let top = space.size().expect("golden spaces are below 128 bits");
    let centres: Vec<u128> = (0..3).map(|_| rng.gen_range(0..top)).collect();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let raw = if rng.gen_bool(0.5) {
            let centre = centres[rng.gen_range(0..centres.len())];
            (centre ^ rng.gen_range(0..1u128 << 10)) % top
        } else {
            rng.gen_range(0..top)
        };
        let id = Id::new(raw);
        if !taken.contains(&id) {
            taken.push(id);
            out.push(id);
        }
    }
    out
}

/// Fractional weights, small integers (ties) and the odd zero.
fn weight(rng: &mut StdRng, i: usize) -> f64 {
    match i % 4 {
        0 => rng.gen_range(0.0..100.0),
        1 => f64::from(rng.gen_range(1..4u32)),
        2 => rng.gen_range(0.0..1.0) * 1e-3,
        _ => {
            if rng.gen_bool(0.2) {
                0.0
            } else {
                rng.gen_range(0.0..1e4)
            }
        }
    }
}

fn candidates(
    rng: &mut StdRng,
    ids: &[Id],
    qos: Option<std::ops::RangeInclusive<u32>>,
) -> Vec<Candidate> {
    ids.iter()
        .enumerate()
        .map(|(i, &id)| {
            let w = weight(rng, i);
            match &qos {
                Some(bounds) if rng.gen_bool(0.12) => {
                    Candidate::with_max_hops(id, w, rng.gen_range(bounds.clone()))
                }
                _ => Candidate::new(id, w),
            }
        })
        .collect()
}

const BUDGETS: [usize; 4] = [0, 1, 5, usize::MAX];

/// (label, id bits, digit bits, candidates, core, QoS bounds drawn).
type PastryCase = (&'static str, u8, u8, usize, usize, bool);

const PASTRY_CASES: [PastryCase; 8] = [
    ("d1", 32, 1, 60, 16, false),
    ("d2", 32, 2, 60, 16, false),
    ("d4", 32, 4, 60, 16, false),
    ("d4-ragged30", 30, 4, 60, 16, false),
    ("d1-qos", 32, 1, 60, 16, true),
    ("d4-qos", 32, 4, 60, 16, true),
    ("d4-ragged30-qos", 30, 4, 60, 16, true),
    ("d1-dense16-qos-nocore", 16, 1, 40, 0, true),
];

fn pastry_problem(case: PastryCase, seed: u64, k: usize) -> PastryProblem {
    let (_, bits, d, n, c, qos) = case;
    let space = IdSpace::new(bits).expect("golden inputs are valid");
    let digits = u32::from(space.digit_count(d).expect("golden inputs are valid"));
    let mut rng = StdRng::seed_from_u64(seed);
    let source = Id::new(rng.gen_range(0..space.size().expect("golden inputs are valid")));
    let mut taken = vec![source];
    let cand_ids = draw_ids(&mut rng, space, n, &mut taken);
    let core = draw_ids(&mut rng, space, c, &mut taken);
    let cands = candidates(&mut rng, &cand_ids, qos.then_some(1..=digits + 1));
    let k = if k == usize::MAX { n + 3 } else { k };
    PastryProblem::new(space, d, source, core, cands, k).expect("golden inputs are valid")
}

/// (label, seed, one outcome per budget of [`BUDGETS`]).
type SolveGolden = (&'static str, u64, [(u64, u64); 4]);

#[rustfmt::skip]
const PASTRY_GOLDEN: &[SolveGolden] = &[
    ("d1", 1, [(0x88201fb960ff6465, 0x4135922ea977213f), (0x6e79d27f49c87779, 0x4130bae064868abe), (0x5c358cd543726530, 0x41130e167a1c36f8), (0x2f752e577117e60b, 0x40e8dc580b42d58f)]),
    ("d1", 2, [(0x88201fb960ff6465, 0x413db1352e4f18a4), (0x4ed6ab89ee8e2487, 0x4136d80966df7ed4), (0x5645a05d8b959120, 0x4126fccb95d74b1c), (0xafff29d665c904c9, 0x40f0488a8e31b6a1)]),
    ("d1", 3, [(0x88201fb960ff6465, 0x41426ddb07d21612), (0x7a922e1b706d7313, 0x413a5a296aae6b4b), (0x3ecce8ed866a7769, 0x4121f25635f00370), (0x35ac20789b219fb6, 0x40f448a80a450066)]),
    ("d2", 1, [(0x88201fb960ff6465, 0x4126a471214b12ca), (0x6e79d27f49c87779, 0x4121e7e0a398996c), (0x5c358cd543726530, 0x41069681432fee26), (0x2f752e577117e60b, 0x40e8dc580b42d574)]),
    ("d2", 2, [(0x88201fb960ff6465, 0x412f37877ecfa4a9), (0x4ed6ab89ee8e2487, 0x412875f85ac1a9ba), (0x5645a05d8b959120, 0x4119a2780af73533), (0xafff29d665c904c9, 0x40f0488a8e31b6a2)]),
    ("d2", 3, [(0x88201fb960ff6465, 0x413323102c7f07a7), (0x7a922e1b706d7313, 0x412be857649f24cc), (0x3ecce8ed866a7769, 0x411525165fd5bc8a), (0x35ac20789b219fb6, 0x40f448a80a450045)]),
    ("d4", 1, [(0x88201fb960ff6465, 0x41187f1aa251e0aa), (0x6e79d27f49c87779, 0x4113f81e606779b5), (0x5c358cd543726530, 0x40ff03d8b22ec6a8), (0x2f752e577117e60b, 0x40e8dc580b42d577)]),
    ("d4", 2, [(0x88201fb960ff6465, 0x4121473dd0c3860b), (0x4ed6ab89ee8e2487, 0x411b74a4254992e0), (0x5645a05d8b959120, 0x410f17116a35a162), (0xafff29d665c904c9, 0x40f0488a8e31b6a2)]),
    ("d4", 3, [(0x88201fb960ff6465, 0x41248e121f430839), (0x7a922e1b706d7313, 0x411f7b043e66a180), (0x3ecce8ed866a7769, 0x410bf74b57a217dd), (0x35ac20789b219fb6, 0x40f448a80a450052)]),
    ("d4-ragged30", 1, [(0x88201fb960ff6465, 0x41199b2a2f8e7ac3), (0x6ad07112645da839, 0x41141e0497956efc), (0xf7990b7e3a2c3e3c, 0x40fe52f4e98aa35c), (0xd258a8baf4a665a7, 0x40e8dc580b42d56c)]),
    ("d4-ragged30", 2, [(0x88201fb960ff6465, 0x41210ac443930f1e), (0x52800cf6d3f8f3c7, 0x411c4a3c752b0ac9), (0x2e12976ccd61c64c, 0x410ec72d27462276), (0xb2bb1bb4a426f401, 0x40f0488a8e31b6a1)]),
    ("d4-ragged30", 3, [(0x88201fb960ff6465, 0x41247eeb42a084a8), (0x76e8ccae8b02a3d3, 0x411f5ed7d5b04c20), (0xedf79d39745fbac5, 0x410cfbd190650ef2), (0x3ec114465167133e, 0x40f448a80a45005e)]),
    ("d1-qos", 1, [(0xffffffffffffffff, 0x300000000), (0xffffffffffffffff, 0x300000001), (0x44e6a2a0d1961116, 0x4129053398a3f118), (0x2f752e577117e60b, 0x40f070d102c672df)]),
    ("d1-qos", 2, [(0xffffffffffffffff, 0x400000000), (0xffffffffffffffff, 0x400000001), (0xf2c59efc5fe91ea0, 0x413178a188faceb0), (0xafff29d665c904c9, 0x40ef1f14f769b1e2)]),
    ("d1-qos", 3, [(0xffffffffffffffff, 0x800000000), (0xffffffffffffffff, 0x800000001), (0xffffffffffffffff, 0x800000005), (0x35ac20789b219fb6, 0x40ef8505191dfed8)]),
    ("d4-qos", 1, [(0xffffffffffffffff, 0x400000000), (0xffffffffffffffff, 0x400000001), (0xee40a00813357ea6, 0x4113a6399a029a56), (0x2f752e577117e60b, 0x40f070d102c672dd)]),
    ("d4-qos", 2, [(0xffffffffffffffff, 0x300000000), (0xffffffffffffffff, 0x300000001), (0x98f6ec19a5a440d3, 0x411128faa281f56e), (0xafff29d665c904c9, 0x40ef1f14f769b1f3)]),
    ("d4-qos", 3, [(0xffffffffffffffff, 0x500000000), (0xffffffffffffffff, 0x500000001), (0xdf567ee7f0f89171, 0x41199bfe08ade4db), (0x35ac20789b219fb6, 0x40ef8505191dfeb5)]),
    ("d4-ragged30-qos", 1, [(0xffffffffffffffff, 0x400000000), (0xffffffffffffffff, 0x400000001), (0x5c3548dd4198d51a, 0x411316bec17a00ba), (0xd258a8baf4a665a7, 0x40f070d102c672df)]),
    ("d4-ragged30-qos", 2, [(0xffffffffffffffff, 0x300000000), (0xffffffffffffffff, 0x300000001), (0xcbb7ed3c449b598f, 0x41122632f50170b9), (0xb2bb1bb4a426f401, 0x40ef1f14f769b1fa)]),
    ("d4-ragged30-qos", 3, [(0xffffffffffffffff, 0x600000000), (0xffffffffffffffff, 0x600000001), (0xffffffffffffffff, 0x600000005), (0x3ec114465167133e, 0x40ef8505191dfeb6)]),
    ("d1-dense16-qos-nocore", 1, [(0xffffffffffffffff, 0x200000000), (0xffffffffffffffff, 0x200000001), (0x99422fddc05e0ada, 0x40f9bbffd63473bc), (0x7b0322bae2063bc7, 0x40e276caf826b2bc)]),
    ("d1-dense16-qos-nocore", 2, [(0xffffffffffffffff, 0x300000000), (0xffffffffffffffff, 0x300000001), (0x1f16ba963d7a2494, 0x410fc1e56d94c2e4), (0x290bb9010c9dc608, 0x40e809384ae1fa29)]),
    ("d1-dense16-qos-nocore", 3, [(0xffffffffffffffff, 0x200000000), (0xffffffffffffffff, 0x200000001), (0xe972c16d5e79b2e7, 0x41176ab1446abf9c), (0xa4380fdb76223391, 0x40ea403f6f79333f)]),
];

#[test]
fn pastry_workspace_solves_match_golden() {
    let mut ws = PastryWorkspace::new();
    let mut observed = Vec::new();
    for case in PASTRY_CASES {
        for seed in 1..=3 {
            let mut row = [(0, 0); 4];
            for (slot, &k) in row.iter_mut().zip(&BUDGETS) {
                *slot = outcome(ws.solve_into(&pastry_problem(case, seed, k)));
            }
            observed.push((case.0, seed, row));
        }
    }
    check_solves("PASTRY_GOLDEN", &observed, PASTRY_GOLDEN);
}

/// (label, id bits, candidates, core, QoS bounds drawn).
type ChordCase = (&'static str, u8, usize, usize, bool);

const CHORD_CASES: [ChordCase; 4] = [
    ("core", 32, 60, 16, false),
    ("nocore", 32, 60, 0, false),
    ("core-qos", 32, 60, 16, true),
    ("nocore-dense16-qos", 16, 40, 0, true),
];

fn chord_problem(case: ChordCase, seed: u64, k: usize) -> ChordProblem {
    let (_, bits, n, c, qos) = case;
    let space = IdSpace::new(bits).expect("golden inputs are valid");
    let b = u32::from(bits);
    let mut rng = StdRng::seed_from_u64(seed);
    let source = Id::new(rng.gen_range(0..space.size().expect("golden inputs are valid")));
    let mut taken = vec![source];
    let cand_ids = draw_ids(&mut rng, space, n, &mut taken);
    let core = draw_ids(&mut rng, space, c, &mut taken);
    let cands = candidates(&mut rng, &cand_ids, qos.then_some(b - 6..=b + 1));
    let k = if k == usize::MAX { n + 3 } else { k };
    ChordProblem::new(space, source, core, cands, k).expect("golden inputs are valid")
}

#[rustfmt::skip]
const CHORD_GOLDEN: &[SolveGolden] = &[
    ("core", 1, [(0x88201fb960ff6465, 0x4137b9ad2d2de75e), (0x6e79d27f49c87779, 0x4130f46116e5a4e2), (0xb2fe28f03dc47833, 0x411494b840ba8f30), (0x2f752e577117e60b, 0x40e8dc580b42d574)]),
    ("core", 2, [(0x88201fb960ff6465, 0x413d9e83bf1636bb), (0x4ed6ab89ee8e2487, 0x41367c91a9c33694), (0x496e7ac2e8791784, 0x4126d2370d7703e5), (0xafff29d665c904c9, 0x40f0488a8e31b6a5)]),
    ("core", 3, [(0x88201fb960ff6465, 0x414314a46439e2b9), (0xedbdfc30e5ce3386, 0x413b6d690503dfeb), (0xc185b429d06185d3, 0x4122af702af2c148), (0x35ac20789b219fb6, 0x40f448a80a450052)]),
    ("nocore", 1, [(0x88201fb960ff6465, 0x4138df7aaf297c30), (0x966e901db84aa822, 0x41329671b3297830), (0x355e128e9d3bbdeb, 0x41109f8f25e5023a), (0x2f752e577117e60b, 0x40e81e867b4f0410)]),
    ("nocore", 2, [(0x88201fb960ff6465, 0x413b43520d3d4f8f), (0x4ed6ab89ee8e2487, 0x4132608679213162), (0x6eca2c724b7265d3, 0x4119e334472c0749), (0xafff29d665c904c9, 0x40ea6fd371afd107)]),
    ("nocore", 3, [(0x88201fb960ff6465, 0x413eebe503ad031a), (0xf31fe77e23536014, 0x4136d6fb8ab2fcbe), (0xbf65b28d7bfcdef0, 0x41160efdfe0048d6), (0x35ac20789b219fb6, 0x40edfc04dcc6ccb4)]),
    ("core-qos", 1, [(0xffffffffffffffff, 0x200000000), (0xffffffffffffffff, 0x200000001), (0x135c77ae4253201b, 0x4128cca30744f22c), (0x2f752e577117e60b, 0x40f070d102c672dc)]),
    ("core-qos", 2, [(0xffffffffffffffff, 0x200000000), (0xffffffffffffffff, 0x200000001), (0xab81b1deb4277505, 0x4124230c4db8fdca), (0xafff29d665c904c9, 0x40ef1f14f769b1f3)]),
    ("core-qos", 3, [(0xffffffffffffffff, 0x400000000), (0xffffffffffffffff, 0x400000001), (0x680305e2a26810f9, 0x412e5226bbfb652d), (0x35ac20789b219fb6, 0x40ef8505191dfebf)]),
    ("nocore-dense16-qos", 1, [(0xffffffffffffffff, 0x200000000), (0xffffffffffffffff, 0x200000001), (0xc3baedcfd78a79a4, 0x40eb86616042f5be), (0x7b0322bae2063bc7, 0x40e276caf826b2bc)]),
    ("nocore-dense16-qos", 2, [(0xffffffffffffffff, 0x300000000), (0xffffffffffffffff, 0x300000001), (0xd987ae1dcae4ef54, 0x4114af0b07693189), (0x290bb9010c9dc608, 0x40e809384ae1fa29)]),
    ("nocore-dense16-qos", 3, [(0xffffffffffffffff, 0x300000000), (0xffffffffffffffff, 0x300000001), (0xc1512c3188caeaa9, 0x4113eb6f36606a87), (0xa4380fdb76223391, 0x40ea403f6f793336)]),
];

#[test]
fn chord_workspace_solves_match_golden() {
    let mut ws = ChordWorkspace::new();
    let mut observed = Vec::new();
    for case in CHORD_CASES {
        for seed in 1..=3 {
            let mut row = [(0, 0); 4];
            for (slot, &k) in row.iter_mut().zip(&BUDGETS) {
                *slot = outcome(ws.solve_into(&chord_problem(case, seed, k)));
            }
            observed.push((case.0, seed, row));
        }
    }
    check_solves("CHORD_GOLDEN", &observed, CHORD_GOLDEN);
}

fn check_solves(name: &str, observed: &[SolveGolden], golden: &[SolveGolden]) {
    if printing() {
        println!("const {name}: &[SolveGolden] = &[");
        for (label, seed, row) in observed {
            let cells: Vec<String> = row
                .iter()
                .map(|(ids, cost)| format!("({ids:#x}, {cost:#x})"))
                .collect();
            println!("    (\"{label}\", {seed}, [{}]),", cells.join(", "));
        }
        println!("];");
        return;
    }
    assert_eq!(observed.len(), golden.len(), "{name} case count");
    for (obs, gold) in observed.iter().zip(golden) {
        assert_eq!(obs, gold, "{name}: (label, seed, outcome per budget)");
    }
}

/// Digest of `selection(j)` for every `j ≤ k`.
fn selections_digest(opt: &PastryOptimizer, d: &mut Digest) {
    for j in 0..=opt.k() {
        let (ids, cost) = outcome(opt.selection(j).as_ref().map_err(Clone::clone));
        d.push(u128::from(ids) << 64 | u128::from(cost));
    }
}

/// Run a seeded churn script against an incremental optimiser and digest
/// every step's selections. Removals of clustered ids leave single-child
/// chains behind, which the trie must merge.
fn churn_script(bits: u8, d: u8, seed: u64) -> u64 {
    let space = IdSpace::new(bits).expect("golden inputs are valid");
    let digits = u32::from(space.digit_count(d).expect("golden inputs are valid"));
    let mut rng = StdRng::seed_from_u64(seed);
    let source = Id::new(rng.gen_range(0..space.size().expect("golden inputs are valid")));
    let mut taken = vec![source];
    let cand_ids = draw_ids(&mut rng, space, 40, &mut taken);
    let mut core = draw_ids(&mut rng, space, 8, &mut taken);
    let cands = candidates(&mut rng, &cand_ids, Some(1..=digits + 1));
    let problem = PastryProblem::new(space, d, source, core.clone(), cands.clone(), 6)
        .expect("golden inputs are valid");
    let mut live: Vec<Id> = cand_ids;
    let mut opt = PastryOptimizer::new(&problem).expect("golden inputs are valid");
    let mut digest = Digest::new();
    selections_digest(&opt, &mut digest);
    for step in 0..120usize {
        let op = rng.gen_range(0..10u32);
        match op {
            0..=2 => {
                let id = draw_ids(&mut rng, space, 1, &mut taken)[0];
                let w = weight(&mut rng, step);
                let cand = if rng.gen_bool(0.2) {
                    Candidate::with_max_hops(id, w, rng.gen_range(1..=digits + 1))
                } else {
                    Candidate::new(id, w)
                };
                opt.insert(cand).expect("golden inputs are valid");
                live.push(id);
            }
            3..=5 if live.len() > 1 => {
                let id = live.swap_remove(rng.gen_range(0..live.len()));
                opt.remove(id).expect("golden inputs are valid");
            }
            6 | 7 if !live.is_empty() => {
                let id = live[rng.gen_range(0..live.len())];
                opt.update_weight(id, weight(&mut rng, step))
                    .expect("golden inputs are valid");
            }
            8 => {
                let id = draw_ids(&mut rng, space, 1, &mut taken)[0];
                opt.add_core(id).expect("golden inputs are valid");
                core.push(id);
            }
            _ if !core.is_empty() => {
                let id = core.swap_remove(rng.gen_range(0..core.len()));
                opt.remove_core(id).expect("golden inputs are valid");
            }
            _ => {}
        }
        digest.push(step as u128);
        selections_digest(&opt, &mut digest);
    }
    digest.0
}

/// (id bits, digit bits, seed, digest of every step's selections).
#[rustfmt::skip]
const CHURN_GOLDEN: &[(u8, u8, u64, u64)] = &[
    (32, 1, 1, 0x13ab3875c0f99c17),
    (32, 1, 2, 0x7e2ebc98b61862cc),
    (32, 4, 1, 0xb2790934a319631e),
    (32, 4, 2, 0xf4ac4aad77b4078c),
    (30, 4, 1, 0xac5d60fbad7cc45a),
    (30, 4, 2, 0x71641d3e4f291a33),
    (12, 2, 1, 0xb7f03f7c1f1eb1b2),
    (12, 2, 2, 0x8aa4a38693fc27c7),
];

#[test]
fn pastry_optimizer_churn_script_matches_golden() {
    let observed: Vec<(u8, u8, u64, u64)> = [(32, 1), (32, 4), (30, 4), (12, 2)]
        .into_iter()
        .flat_map(|(bits, d)| (1..=2).map(move |seed| (bits, d, seed, churn_script(bits, d, seed))))
        .collect();
    if printing() {
        println!("const CHURN_GOLDEN: &[(u8, u8, u64, u64)] = &[");
        for (bits, d, seed, digest) in &observed {
            println!("    ({bits}, {d}, {seed}, {digest:#x}),");
        }
        println!("];");
        return;
    }
    assert_eq!(observed, CHURN_GOLDEN, "(bits, d, seed, selections digest)");
}

/// Digest of every live node's routing rows and leaf set, in id order.
fn tables_digest(net: &PastryNetwork) -> u64 {
    let mut d = Digest::new();
    for id in net.live_ids() {
        let node = net.node(id).expect("live id");
        d.push(id.value());
        for row in &node.rows {
            for cell in row {
                d.push(cell.map_or(u128::MAX, Id::value));
            }
        }
        d.push(node.leaves.len() as u128);
        for leaf in &node.leaves {
            d.push(leaf.value());
        }
    }
    d.0
}

/// Digests after `build`, after failing every fifth node and a full
/// repair, and after three joins.
fn network_digests(n: usize, bits: u8, d: u8) -> [u64; 3] {
    let space = IdSpace::new(bits).expect("golden inputs are valid");
    let mut rng = StdRng::seed_from_u64(u64::from(bits) << 16 | (n as u64) << 4 | u64::from(d));
    let mut taken = Vec::new();
    let ids = draw_ids(&mut rng, space, n, &mut taken);
    let mut net = PastryNetwork::build(PastryConfig::new(space, d), &ids, &mut rng);
    let built = tables_digest(&net);
    for &id in ids.iter().step_by(5) {
        net.fail(id).expect("golden inputs are valid");
    }
    net.repair_all();
    let repaired = tables_digest(&net);
    for id in draw_ids(&mut rng, space, 3, &mut taken) {
        net.join(id, (rng.gen(), rng.gen()))
            .expect("golden inputs are valid");
    }
    [built, repaired, tables_digest(&net)]
}

/// (nodes, id bits, digit bits, digests after build / repair / joins).
#[rustfmt::skip]
const NETWORK_GOLDEN: &[(usize, u8, u8, [u64; 3])] = &[
    (64, 32, 1, [0x5ae64f7d7aa682d5, 0xe56be19d702e2bd2, 0xddaed18d870c57fb]),
    (64, 32, 4, [0x1ac8a7015933594d, 0x4ea337cda67a8e36, 0xf3d21c50d7b0dbd7]),
    (257, 32, 1, [0x4c08263e04e888dc, 0x1e0b6d970032df13, 0xc1e461aab9236578]),
    (257, 32, 4, [0x6e28a8ab6952f4c0, 0xfb8e369a77d8c5e8, 0xcb32d6e7468d23a1]),
    (257, 30, 4, [0xafc7671a3232855, 0x52e7103089a46ec6, 0x31c42e792c78c33e]),
];

#[test]
fn pastry_network_tables_match_golden() {
    let observed: Vec<(usize, u8, u8, [u64; 3])> = [
        (64, 32, 1),
        (64, 32, 4),
        (257, 32, 1),
        (257, 32, 4),
        (257, 30, 4),
    ]
    .into_iter()
    .map(|(n, bits, d)| (n, bits, d, network_digests(n, bits, d)))
    .collect();
    if printing() {
        println!("const NETWORK_GOLDEN: &[(usize, u8, u8, [u64; 3])] = &[");
        for (n, bits, d, [a, b, c]) in &observed {
            println!("    ({n}, {bits}, {d}, [{a:#x}, {b:#x}, {c:#x}]),");
        }
        println!("];");
        return;
    }
    assert_eq!(observed, NETWORK_GOLDEN, "(n, bits, d, table digests)");
}
