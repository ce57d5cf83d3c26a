//! The simple `O(n·k²·b)` dynamic program of paper §IV-A.
//!
//! Each vertex keeps, for every pointer count `j ≤ k`, the minimum cost
//! `C(T_a, j)` *and* the achieving leaf set (eq. 3) — the quadratic-in-`k`
//! storage the greedy algorithm of §IV-B eliminates. Kept as the reference
//! implementation: the greedy optimiser is cross-validated against it, and
//! the ablation benchmark measures the gap the paper's property (P) buys.

use peercache_id::Id;

use crate::cast;
use crate::pastry::trie::Trie;
use crate::problem::{PastryProblem, SelectError, Selection};

struct Table {
    /// `costs[j]` = min cost with exactly `j` pointers in the subtree
    /// (`∞` when infeasible or `j` exceeds the candidate supply).
    costs: Vec<f64>,
    /// Achieving-set bounds, parallel to `costs`: set `j` occupies
    /// `arena[bounds[j].0 .. bounds[j].1]`.
    bounds: Vec<(u32, u32)>,
    /// All achieving sets, flattened into one id arena. Superseded
    /// entries are left as dead ranges (this is the reference path; the
    /// greedy solver avoids the quadratic storage altogether).
    arena: Vec<Id>,
}

impl Table {
    fn with_budget(k: usize) -> Self {
        Table {
            costs: vec![f64::INFINITY; k + 1],
            bounds: vec![(0, 0); k + 1],
            arena: Vec::new(),
        }
    }

    fn set(&self, j: usize) -> &[Id] {
        let (lo, hi) = self.bounds[j];
        &self.arena[cast::usize_from_u32(lo)..cast::usize_from_u32(hi)]
    }

    /// Record the achieving set for budget `j` as the concatenation of
    /// two prior sets.
    fn record_set(&mut self, j: usize, left: &[Id], right: &[Id]) {
        let lo = cast::index_to_u32(self.arena.len());
        self.arena.extend_from_slice(left);
        self.arena.extend_from_slice(right);
        let hi = cast::index_to_u32(self.arena.len());
        self.bounds[j] = (lo, hi);
    }
}

fn solve(trie: &Trie, v: u32, k: usize) -> Table {
    let vert = trie.vertex(v);
    if let Some(leaf) = &vert.leaf {
        let mut table = Table::with_budget(k);
        table.costs[0] = 0.0;
        if !leaf.is_core {
            if k >= 1 {
                table.costs[1] = 0.0;
                table.record_set(1, &[leaf.id], &[]);
            }
            // A marked candidate leaf must be selected itself.
            if vert.mark_count > 0 {
                table.costs[0] = f64::INFINITY;
            }
        }
        return table;
    }

    let mut acc = Table::with_budget(k);
    acc.costs[0] = 0.0;
    for (_, c) in trie.children_of(v) {
        let mut child = solve(trie, c, k);
        let cv = trie.vertex(c);
        // Effective child cost with the eq.-2 edge-indicator term.
        let edge = |t: usize| -> f64 {
            if t == 0 && cv.core_count == 0 {
                cv.weight
            } else {
                0.0
            }
        };
        // Each unary level folded into the edge above `c` is a one-child
        // merge: `0.0 + D(j)` for every finite `j`, same achieving sets.
        for _ in 0..trie.folded_levels(c) {
            for (j, cost) in child.costs.iter_mut().enumerate() {
                if cost.is_finite() {
                    *cost = 0.0 + (*cost + edge(j));
                }
            }
        }
        let d_child = |t: usize| -> f64 { child.costs[t] + edge(t) };
        let mut next = Table::with_budget(k);
        for j in 0..=k {
            for i in 0..=j {
                let (a, b) = (acc.costs[i], d_child(j - i));
                if a.is_infinite() || b.is_infinite() {
                    continue;
                }
                if (a + b).total_cmp(&next.costs[j]).is_lt() {
                    next.costs[j] = a + b;
                    next.record_set(j, acc.set(i), child.set(j - i));
                }
            }
        }
        acc = next;
    }
    // §IV-D: a marked subtree without a core neighbor needs ≥ 1 pointer.
    if vert.mark_count > 0 && vert.core_count == 0 {
        acc.costs[0] = f64::INFINITY;
        acc.bounds[0] = (0, 0);
    }
    acc
}

/// Refresh per-vertex aggregates (`weight`, counts) bottom-up; the DP needs
/// `F(T_a)` and the core-presence flags.
fn refresh_aggregates(trie: &mut Trie) {
    for v in trie.post_order() {
        let (weight, cand, core) = match &trie.vertex(v).leaf {
            Some(leaf) => (
                leaf.weight,
                u32::from(!leaf.is_core),
                u32::from(leaf.is_core),
            ),
            None => {
                let mut acc = (0.0, 0, 0);
                for (_, c) in trie.children_of(v) {
                    let cv = trie.vertex(c);
                    acc.0 += cv.weight;
                    acc.1 += cv.cand_count;
                    acc.2 += cv.core_count;
                }
                acc
            }
        };
        let vert = trie.vertex_mut(v);
        vert.weight = weight;
        vert.cand_count = cand;
        vert.core_count = core;
    }
}

/// One-shot selection via the reference `O(n·k²·b)` dynamic program
/// (paper §IV-A).
///
/// # Errors
/// [`SelectError::InvalidProblem`] on malformed input;
/// [`SelectError::QosInfeasible`] when the delay bounds cannot be met
/// with `k` pointers.
pub fn select_dp(problem: &PastryProblem) -> Result<Selection, SelectError> {
    let mut trie = Trie::new(problem.space, problem.digit_bits)?;
    for cand in &problem.candidates {
        trie.insert_leaf(cand.id, cand.weight, false, cand.max_hops)?;
    }
    for &core in &problem.core {
        trie.insert_leaf(core, 0.0, true, None)?;
    }
    refresh_aggregates(&mut trie);
    let k = problem.effective_k();
    let table = solve(&trie, Trie::ROOT, k);
    if table.costs[k].is_infinite() {
        let required = table
            .costs
            .iter()
            .position(|c| c.is_finite())
            .map_or(u32::MAX, cast::index_to_u32);
        return Err(SelectError::QosInfeasible {
            required,
            k: cast::index_to_u32(k),
        });
    }
    let mut aux = table.set(k).to_vec();
    aux.sort();
    Ok(Selection {
        aux,
        cost: trie.total_weight() + table.costs[k],
    })
}
