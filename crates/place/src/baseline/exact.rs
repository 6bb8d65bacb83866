//! Exact solution of the §3.3 assignment formulation, for tiny
//! instances.
//!
//! §3.3 formalises placement as assigning modules to locations,
//! minimising total two-point wire length, and notes the problem "is
//! already likely to be NP-complete — in practice, only an approximate
//! solution can be found". This module solves the formulation exactly
//! by branch-and-bound over slot permutations, practical up to ~9
//! modules, so the heuristics' optimality gap can be *measured* instead
//! of assumed.
//!
//! The model matches the paper's: locations are the cells of a given
//! grid, each holding at most one module, and the objective is the sum
//! over two-point connections of the Manhattan distance between the
//! assigned cell centres, weighted by the number of connecting nets.

use netart_geom::{Point, Rotation};
use netart_netlist::{ModuleId, Network};

use netart_diagram::Placement;

/// An exact assignment: which slot (index into the slot list) each
/// module got, plus the optimal cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactAssignment {
    /// `slot_of[i]` is the slot index of the i-th module (in
    /// [`Network::modules`] order).
    pub slot_of: Vec<usize>,
    /// The minimal total weighted Manhattan wire length.
    pub cost: u64,
}

/// Hard limit: beyond this the search space explodes (the paper's
/// point).
pub const MAX_MODULES: usize = 10;

/// Pairwise connection weights (number of nets joining each module
/// pair).
fn weights(network: &Network) -> Vec<Vec<u64>> {
    let n = network.module_count();
    let mut w = vec![vec![0u64; n]; n];
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        for j in (i + 1)..n {
            let c = network.connection_count(
                ModuleId::from_index(i),
                ModuleId::from_index(j),
            ) as u64;
            w[i][j] = c;
            w[j][i] = c;
        }
    }
    w
}

/// Finds the optimal assignment of all modules to `slots` (cell centre
/// points), minimising the §3.3 objective.
///
/// Returns `None` when there are more modules than slots.
///
/// # Panics
///
/// Panics when the network has more than [`MAX_MODULES`] modules — the
/// search is factorial and anything larger is the heuristics' job.
pub fn solve(network: &Network, slots: &[Point]) -> Option<ExactAssignment> {
    let n = network.module_count();
    assert!(
        n <= MAX_MODULES,
        "exact placement is factorial; {n} modules exceed the {MAX_MODULES}-module limit"
    );
    if n > slots.len() {
        return None;
    }
    if n == 0 {
        return Some(ExactAssignment { slot_of: Vec::new(), cost: 0 });
    }
    let w = weights(network);
    let dist = |a: usize, b: usize| slots[a].manhattan(slots[b]);

    let mut best_cost = u64::MAX;
    let mut best: Vec<usize> = Vec::new();
    let mut assignment: Vec<usize> = Vec::with_capacity(n);
    let mut used = vec![false; slots.len()];

    // Branch and bound over modules in order; partial cost only ever
    // grows, so prune when it already exceeds the incumbent.
    #[allow(clippy::too_many_arguments)]
    fn recurse(
        module: usize,
        n: usize,
        w: &[Vec<u64>],
        dist: &impl Fn(usize, usize) -> u64,
        slots_len: usize,
        assignment: &mut Vec<usize>,
        used: &mut [bool],
        partial: u64,
        best_cost: &mut u64,
        best: &mut Vec<usize>,
    ) {
        if module == n {
            if partial < *best_cost {
                *best_cost = partial;
                *best = assignment.clone();
            }
            return;
        }
        for slot in 0..slots_len {
            if used[slot] {
                continue;
            }
            let mut added = 0u64;
            for (placed, &s) in assignment.iter().enumerate() {
                let weight = w[module][placed];
                if weight > 0 {
                    added += weight * dist(slot, s);
                }
            }
            let cost = partial + added;
            if cost >= *best_cost {
                continue;
            }
            used[slot] = true;
            assignment.push(slot);
            recurse(module + 1, n, w, dist, slots_len, assignment, used, cost, best_cost, best);
            assignment.pop();
            used[slot] = false;
        }
    }
    recurse(
        0,
        n,
        &w,
        &dist,
        slots.len(),
        &mut assignment,
        &mut used,
        0,
        &mut best_cost,
        &mut best,
    );

    Some(ExactAssignment { slot_of: best, cost: best_cost })
}

/// The §3.3 objective of an arbitrary placement against the same slot
/// model: weighted Manhattan distance between module centres.
pub fn placement_cost(network: &Network, placement: &Placement) -> u64 {
    let n = network.module_count();
    let w = weights(network);
    let centers: Vec<Point> = network
        .modules()
        .map(|m| placement.module_rect(network, m).center())
        .collect();
    let mut total = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            if w[i][j] > 0 {
                total += w[i][j] * centers[i].manhattan(centers[j]);
            }
        }
    }
    total
}

/// Materialises an exact assignment as a placement, one module per
/// slot, anchored at the slot centre.
pub fn realize(network: &Network, slots: &[Point], assignment: &ExactAssignment) -> Placement {
    let mut p = Placement::new(network);
    for (i, m) in network.modules().enumerate() {
        let c = slots[assignment.slot_of[i]];
        let (w, h) = network.template_of(m).size();
        p.place_module(m, c - Point::new(w / 2, h / 2), Rotation::R0);
    }
    p
}

/// A rectangular grid of slot centres with the given pitch, big enough
/// for `count` slots.
pub fn grid_slots(count: usize, pitch: i32) -> Vec<Point> {
    let cols = (count as f64).sqrt().ceil() as usize;
    (0..count)
        .map(|i| {
            Point::new(
                (i % cols) as i32 * pitch + pitch / 2,
                (i / cols) as i32 * pitch + pitch / 2,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netart_netlist::{Library, NetworkBuilder, Template, TermType};

    fn chain(n: usize) -> Network {
        let mut lib = Library::new();
        let t = lib
            .add_template(
                Template::new("buf", (2, 2))
                    .unwrap()
                    .with_terminal("a", (0, 1), TermType::In)
                    .unwrap()
                    .with_terminal("y", (2, 1), TermType::Out)
                    .unwrap(),
            )
            .unwrap();
        let mut b = NetworkBuilder::new(lib);
        let ms: Vec<ModuleId> = (0..n)
            .map(|i| b.add_instance(format!("u{i}"), t).unwrap())
            .collect();
        for w in ms.windows(2) {
            let name = format!("n{}", w[0].index());
            b.connect_pin(&name, w[0], "y").unwrap();
            b.connect_pin(&name, w[1], "a").unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn chain_on_a_row_is_optimal_in_order() {
        let net = chain(5);
        // Five slots on a row: optimal keeps chain order (any direction).
        let slots: Vec<Point> = (0..5).map(|i| Point::new(10 * i, 0)).collect();
        let sol = solve(&net, &slots).unwrap();
        // Cost: 4 links x 10.
        assert_eq!(sol.cost, 40);
        let positions: Vec<usize> = sol.slot_of.clone();
        let mut diffs: Vec<i32> = positions
            .windows(2)
            .map(|w| slots[w[1]].x - slots[w[0]].x)
            .collect();
        diffs.dedup();
        assert_eq!(diffs.len(), 1, "monotone order: {positions:?}");
    }

    #[test]
    fn exact_beats_or_matches_any_shuffle() {
        let net = chain(4);
        let slots = grid_slots(4, 8);
        let sol = solve(&net, &slots).unwrap();
        // Compare against every permutation by brute force.
        let idx = [0usize, 1, 2, 3];
        let mut best = u64::MAX;
        permute(&idx, &mut Vec::new(), &mut |perm| {
            let mut cost = 0;
            for w in 0..3usize {
                cost += slots[perm[w]].manhattan(slots[perm[w + 1]]);
            }
            best = best.min(cost);
        });
        assert_eq!(sol.cost, best);
    }

    fn permute(rest: &[usize], acc: &mut Vec<usize>, f: &mut impl FnMut(&[usize])) {
        if rest.is_empty() {
            f(acc);
            return;
        }
        for (i, &x) in rest.iter().enumerate() {
            let mut r = rest.to_vec();
            r.remove(i);
            acc.push(x);
            permute(&r, acc, f);
            acc.pop();
        }
    }

    #[test]
    fn too_few_slots_is_none() {
        let net = chain(4);
        assert!(solve(&net, &grid_slots(3, 8)).is_none());
    }

    #[test]
    #[should_panic(expected = "factorial")]
    fn too_many_modules_panics() {
        let net = chain(11);
        let _ = solve(&net, &grid_slots(11, 8));
    }

    #[test]
    fn realize_produces_legal_placement() {
        let net = chain(4);
        let slots = grid_slots(4, 10);
        let sol = solve(&net, &slots).unwrap();
        let p = realize(&net, &slots, &sol);
        assert!(p.overlap_violations(&net).is_empty());
        // The realised placement evaluates to the reported cost.
        assert_eq!(placement_cost(&net, &p), sol.cost);
    }

    #[test]
    fn optimum_lower_bounds_every_assignment() {
        // The paper's point quantified: on the same slot model, no
        // assignment beats the exact optimum — and naive ones are
        // measurably worse.
        let net = chain(6);
        let slots = grid_slots(6, 10);
        let sol = solve(&net, &slots).unwrap();
        // Identity, reversed and an interleaved shuffle.
        for order in [
            vec![0usize, 1, 2, 3, 4, 5],
            vec![5, 4, 3, 2, 1, 0],
            vec![0, 3, 1, 4, 2, 5],
        ] {
            let candidate = ExactAssignment { slot_of: order, cost: 0 };
            let p = realize(&net, &slots, &candidate);
            assert!(placement_cost(&net, &p) >= sol.cost);
        }
        // The interleaved shuffle is strictly worse.
        let shuffled = ExactAssignment { slot_of: vec![0, 3, 1, 4, 2, 5], cost: 0 };
        let p = realize(&net, &slots, &shuffled);
        assert!(placement_cost(&net, &p) > sol.cost);
    }
}
