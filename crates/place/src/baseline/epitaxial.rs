//! Epitaxial growth placement (§4.2.2).
//!
//! The classic constructive scheme: seed the placement with the most
//! connected module, then repeatedly take the unplaced module with the
//! most connections to the placed structure and put it on the free grid
//! cell minimising the total length of its connections.

use std::collections::HashMap;

use netart_geom::{Point, Rotation};
use netart_netlist::{ModuleId, Network};

use netart_diagram::Placement;

use crate::terminal_place::place_system_terminals;

/// Runs epitaxial growth placement over all modules.
///
/// `spacing` adds empty tracks between grid cells (routing room). The
/// resulting placement is complete and overlap-free.
pub fn place(network: &Network, spacing: i32) -> Placement {
    let mut placement = Placement::new(network);
    let modules: Vec<ModuleId> = network.modules().collect();
    if modules.is_empty() {
        place_system_terminals(network, &mut placement);
        return placement;
    }

    // Uniform cell size: the largest module footprint plus spacing.
    let (mut cw, mut ch) = (1, 1);
    for &m in &modules {
        let (w, h) = network.template_of(m).size();
        cw = cw.max(w + 2 + spacing);
        ch = ch.max(h + 2 + spacing);
    }

    let mut cells: HashMap<(i32, i32), ModuleId> = HashMap::new();
    let mut placed: Vec<ModuleId> = Vec::new();

    // Seed: the module most connected to the rest of the design.
    let seed = *modules
        .iter()
        .max_by_key(|&&m| {
            (
                network.connection_count_to_set(m, |_| true),
                std::cmp::Reverse(m),
            )
        })
        .expect("non-empty");
    occupy(network, &mut placement, &mut cells, seed, (0, 0), (cw, ch));
    placed.push(seed);

    let mut unplaced: Vec<ModuleId> = modules.iter().copied().filter(|&m| m != seed).collect();
    while !unplaced.is_empty() {
        // Most connected to the placed structure.
        let (idx, m) = unplaced
            .iter()
            .enumerate()
            .max_by_key(|&(_, &m)| {
                (
                    network.connection_count_to_set(m, |o| placed.contains(&o)),
                    std::cmp::Reverse(m),
                )
            })
            .map(|(i, &m)| (i, m))
            .expect("non-empty");
        unplaced.swap_remove(idx);

        // Candidate cells: every free cell in the occupied hull plus a
        // one-cell ring around it.
        let (min, max) = hull(&cells);
        let mut best: Option<(i64, (i32, i32))> = None;
        for cy in (min.1 - 1)..=(max.1 + 1) {
            for cx in (min.0 - 1)..=(max.0 + 1) {
                if cells.contains_key(&(cx, cy)) {
                    continue;
                }
                let cost = wire_cost(network, &placement, &placed, m, (cx, cy), (cw, ch));
                let key = (cost, (cx, cy));
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        let (_, cell) = best.expect("ring always has free cells");
        occupy(network, &mut placement, &mut cells, m, cell, (cw, ch));
        placed.push(m);
    }

    place_system_terminals(network, &mut placement);
    placement
}

fn hull(cells: &HashMap<(i32, i32), ModuleId>) -> ((i32, i32), (i32, i32)) {
    let mut min = (i32::MAX, i32::MAX);
    let mut max = (i32::MIN, i32::MIN);
    for &(x, y) in cells.keys() {
        min = (min.0.min(x), min.1.min(y));
        max = (max.0.max(x), max.1.max(y));
    }
    (min, max)
}

fn cell_center(cell: (i32, i32), cell_size: (i32, i32)) -> Point {
    Point::new(
        cell.0 * cell_size.0 + cell_size.0 / 2,
        cell.1 * cell_size.1 + cell_size.1 / 2,
    )
}

fn occupy(
    network: &Network,
    placement: &mut Placement,
    cells: &mut HashMap<(i32, i32), ModuleId>,
    m: ModuleId,
    cell: (i32, i32),
    cell_size: (i32, i32),
) {
    cells.insert(cell, m);
    let (w, h) = network.template_of(m).size();
    let c = cell_center(cell, cell_size);
    placement.place_module(m, c - Point::new(w / 2, h / 2), Rotation::R0);
}

/// Connection-weighted Manhattan distance from a candidate cell to the
/// placed modules (the paper's "required length of all connections").
fn wire_cost(
    network: &Network,
    placement: &Placement,
    placed: &[ModuleId],
    m: ModuleId,
    cell: (i32, i32),
    cell_size: (i32, i32),
) -> i64 {
    let c = cell_center(cell, cell_size);
    placed
        .iter()
        .map(|&p| {
            let count = network.connection_count(m, p) as i64;
            if count == 0 {
                return 0;
            }
            let pc = placement.module_rect(network, p).center();
            count * i64::try_from(c.manhattan(pc)).expect("Manhattan distances stay below 2^33")
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netart_netlist::{Library, NetworkBuilder, Template, TermType};

    fn star(n: usize) -> Network {
        let mut lib = Library::new();
        let hub_t = lib
            .add_template({
                let mut t = Template::new("hub", (4, 2 * n as i32 + 2)).unwrap();
                for i in 0..n {
                    t.add_terminal(format!("p{i}"), (4, 2 * i as i32 + 1), TermType::Out)
                        .unwrap();
                }
                t
            })
            .unwrap();
        let leaf_t = lib
            .add_template(
                Template::new("leaf", (4, 2))
                    .unwrap()
                    .with_terminal("a", (0, 1), TermType::In)
                    .unwrap(),
            )
            .unwrap();
        let mut b = NetworkBuilder::new(lib);
        let hub = b.add_instance("hub", hub_t).unwrap();
        for i in 0..n {
            let leaf = b.add_instance(format!("leaf{i}"), leaf_t).unwrap();
            let net = format!("n{i}");
            b.connect_pin(&net, hub, &format!("p{i}")).unwrap();
            b.connect_pin(&net, leaf, "a").unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn star_places_hub_first_and_leaves_around_it() {
        let net = star(6);
        let placement = place(&net, 1);
        assert!(placement.is_complete());
        assert!(placement.overlap_violations(&net).is_empty());
        let hub = net.module_by_name("hub").unwrap();
        let hub_c = placement.module_rect(&net, hub).center();
        // Every leaf within two cells of the hub.
        for m in net.modules() {
            if m == hub {
                continue;
            }
            let c = placement.module_rect(&net, m).center();
            assert!(hub_c.manhattan(c) < 80, "leaf at {c} too far from hub {hub_c}");
        }
    }

    #[test]
    fn empty_network() {
        let lib = Library::new();
        let net = NetworkBuilder::new(lib).finish().unwrap();
        let placement = place(&net, 0);
        assert!(placement.is_complete());
    }

    #[test]
    fn more_spacing_spreads_placement() {
        let net = star(4);
        let tight = place(&net, 0);
        let roomy = place(&net, 6);
        let a = tight.bounding_box(&net).unwrap();
        let b = roomy.bounding_box(&net).unwrap();
        assert!(b.width() > a.width() || b.height() > a.height());
    }

    #[test]
    fn deterministic() {
        let net = star(5);
        let a = place(&net, 1);
        let b = place(&net, 1);
        for m in net.modules() {
            assert_eq!(a.module(m), b.module(m));
        }
    }
}
