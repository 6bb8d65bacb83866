//! The PABLO placement facade (§4.6, Appendix E).

use netart_geom::{Point, Rect, Rotation};
use netart_netlist::{ModuleId, Network, NetId, Pin};
use tracing::{debug, span, Level};

use netart_diagram::{Placement, PlacementStructure};

use crate::cluster::{place_clusters, Cluster};
use crate::module_place::layout_box;
use crate::partition::partition_counted;
use crate::terminal_place::place_system_terminals;
use crate::{form_boxes, Partitioning, PlaceConfig};

/// One partition after box placement: module geometry in
/// partition-local coordinates plus the data needed to place the
/// partition itself.
struct PartitionLayout {
    modules: Vec<(ModuleId, Point, Rotation)>,
    size: (i32, i32),
    terms: Vec<(NetId, Point)>,
    boxes: Vec<Vec<ModuleId>>,
}

/// The two steps whose keys are kept incrementally, swappable so that
/// tests can run the whole pipeline over their reference versions.
#[derive(Clone, Copy)]
pub(crate) struct Steps {
    pub(crate) partition: fn(&Network, &[ModuleId], &PlaceConfig) -> (Partitioning, u64),
    pub(crate) place_clusters: PlaceClusters,
}

/// Clusters, spacing, an optional anchored cluster and its origin, and
/// the work counter, to the clusters' origins.
type PlaceClusters = fn(&[Cluster], i32, Option<(usize, Point)>, &mut u64) -> Vec<Point>;

impl Steps {
    pub(crate) const INCREMENTAL: Steps = Steps {
        partition: partition_counted,
        place_clusters,
    };
}

/// The placement phase of the generator: the `pablo` program of
/// Appendix E.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, Default)]
pub struct Pablo {
    config: PlaceConfig,
}

impl Pablo {
    /// A placer with the given options.
    pub fn new(config: PlaceConfig) -> Self {
        Pablo { config }
    }

    /// The options in use.
    pub fn config(&self) -> &PlaceConfig {
        &self.config
    }

    /// Places all modules and system terminals of a network.
    pub fn place(&self, network: &Network) -> Placement {
        self.place_with_preplaced(network, Placement::new(network))
    }

    /// Places the modules and terminals *not yet placed* in `preplaced`
    /// around the preplaced part, which is kept untouched and forms a
    /// partition of its own (the `-g` option of Appendix E).
    pub fn place_with_preplaced(&self, network: &Network, preplaced: Placement) -> Placement {
        self.place_counted(network, preplaced, Steps::INCREMENTAL).0
    }

    /// [`Pablo::place_with_preplaced`], plus the work it counted:
    /// partitioning's key updates and the gravity fields' candidates
    /// and overlap tests.
    pub(crate) fn place_counted(
        &self,
        network: &Network,
        preplaced: Placement,
        steps: Steps,
    ) -> (Placement, u64) {
        let cfg = &self.config;
        let fixed: Vec<ModuleId> = network
            .modules()
            .filter(|&m| preplaced.module(m).is_some())
            .collect();
        let free: Vec<ModuleId> = network
            .modules()
            .filter(|&m| preplaced.module(m).is_none())
            .collect();

        // 1. Partition the free modules; 2. form boxes; 3.+4. lay out
        // modules in boxes and boxes in partitions.
        let (parts, mut work) = {
            let s = span!(Level::DEBUG, "pablo.partition", free = free.len() as u64);
            let _g = s.enter();
            netart_fault::fire_hard(netart_fault::sites::PLACE_PARTITION);
            (steps.partition)(network, &free, cfg)
        };
        debug!(
            "partitioned",
            free = free.len() as u64,
            fixed = fixed.len() as u64,
            partitions = parts.partitions.len() as u64,
        );
        let mut layouts: Vec<PartitionLayout> = {
            let s = span!(
                Level::DEBUG,
                "pablo.module_place",
                partitions = parts.partitions.len() as u64,
            );
            let _g = s.enter();
            netart_fault::fire_hard(netart_fault::sites::PLACE_MODULE);
            parts
                .partitions
                .iter()
                .map(|p| self.layout_partition(network, p, steps, &mut work))
                .collect()
        };

        // The preplaced part, if any, becomes an anchored partition.
        let mut structure_boxes: Vec<Vec<Vec<ModuleId>>> = Vec::new();
        let mut anchored = None;
        if !fixed.is_empty() {
            let hull = fixed
                .iter()
                .map(|&m| preplaced.module_rect(network, m))
                .reduce(|a, b| a.hull(&b))
                .expect("non-empty fixed set");
            let origin = hull.lower_left();
            let modules: Vec<_> = fixed
                .iter()
                .map(|&m| {
                    let placed = preplaced.module(m).expect("fixed is placed");
                    (m, placed.position - origin, placed.rotation)
                })
                .collect();
            let layout = PartitionLayout {
                terms: partition_terms(network, &modules),
                modules,
                size: (hull.width(), hull.height()),
                boxes: vec![fixed.clone()],
            };
            anchored = Some((layouts.len(), origin));
            layouts.push(layout);
        }

        let mut placement = preplaced;
        if !layouts.is_empty() {
            // 5. Place the partitions.
            let s = span!(Level::DEBUG, "pablo.cluster", clusters = layouts.len() as u64);
            let _g = s.enter();
            netart_fault::fire_hard(netart_fault::sites::PLACE_CLUSTER);
            let clusters: Vec<Cluster> = layouts
                .iter()
                .map(|l| Cluster {
                    size: l.size,
                    terms: l.terms.clone(),
                    weight: l.modules.len(),
                })
                .collect();
            let positions =
                (steps.place_clusters)(&clusters, cfg.part_spacing, anchored, &mut work);

            for (layout, pos) in layouts.iter().zip(&positions) {
                for &(m, local, rot) in &layout.modules {
                    placement.place_module(m, *pos + local, rot);
                }
                structure_boxes.push(layout.boxes.clone());
            }
        }
        placement.set_structure(PlacementStructure {
            partitions: structure_boxes,
        });

        // 6. System terminals around the bounding box.
        {
            let s = span!(Level::DEBUG, "pablo.terminal_place");
            let _g = s.enter();
            netart_fault::fire_hard(netart_fault::sites::PLACE_TERMINAL);
            place_system_terminals(network, &mut placement);
        }
        (placement, work)
    }

    /// Boxes of one partition laid out and placed relative to each
    /// other; the result is normalised to a (0, 0) lower-left corner.
    fn layout_partition(
        &self,
        network: &Network,
        part: &[ModuleId],
        steps: Steps,
        work: &mut u64,
    ) -> PartitionLayout {
        let cfg = &self.config;
        let boxes = form_boxes(network, part, cfg);
        let box_layouts: Vec<_> = boxes
            .iter()
            .map(|b| layout_box(network, b, cfg))
            .collect();

        let clusters: Vec<Cluster> = box_layouts
            .iter()
            .map(|l| Cluster {
                size: l.size(),
                weight: l.entries().len(),
                terms: l
                    .entries()
                    .iter()
                    .flat_map(|&(m, _, _)| {
                        let tpl = network.template_of(m);
                        (0..tpl.terminal_count()).filter_map(move |t| {
                            network
                                .pin_net(Pin::Sub { module: m, term: t })
                                .map(|n| (n, l.terminal_pos(network, m, t)))
                        })
                    })
                    .collect(),
            })
            .collect();
        let positions = (steps.place_clusters)(&clusters, cfg.box_spacing, None, work);

        // Normalise to a (0,0) lower-left corner.
        let hull = positions
            .iter()
            .zip(&box_layouts)
            .map(|(&p, l)| Rect::new(p, l.size().0, l.size().1))
            .reduce(|a, b| a.hull(&b))
            .expect("partition has at least one box");
        let delta = Point::ORIGIN - hull.lower_left();

        let mut modules = Vec::new();
        for (layout, &box_pos) in box_layouts.iter().zip(&positions) {
            for &(m, local, rot) in layout.entries() {
                modules.push((m, box_pos + delta + local, rot));
            }
        }
        let terms = partition_terms(network, &modules);
        PartitionLayout {
            modules,
            size: (hull.width(), hull.height()),
            terms,
            boxes,
        }
    }
}

/// Connected terminal points of a module set, given the modules' local
/// geometry.
fn partition_terms(
    network: &Network,
    modules: &[(ModuleId, Point, Rotation)],
) -> Vec<(NetId, Point)> {
    let mut terms = Vec::new();
    for &(m, pos, rot) in modules {
        let tpl = network.template_of(m);
        for t in 0..tpl.terminal_count() {
            if let Some(n) = network.pin_net(Pin::Sub { module: m, term: t }) {
                let local = rot.apply_point(tpl.terminals()[t].offset(), tpl.size());
                terms.push((n, pos + local));
            }
        }
    }
    terms
}

#[cfg(test)]
mod tests {
    use super::*;
    use netart_netlist::{Library, NetworkBuilder, Template, TermType};

    fn chain_network(n: usize) -> Network {
        let mut lib = Library::new();
        let t = lib
            .add_template(
                Template::new("buf", (4, 2))
                    .unwrap()
                    .with_terminal("a", (0, 1), TermType::In)
                    .unwrap()
                    .with_terminal("y", (4, 1), TermType::Out)
                    .unwrap(),
            )
            .unwrap();
        let mut b = NetworkBuilder::new(lib);
        let ms: Vec<ModuleId> = (0..n)
            .map(|i| b.add_instance(format!("u{i}"), t).unwrap())
            .collect();
        let input = b.add_system_terminal("in", TermType::In).unwrap();
        let output = b.add_system_terminal("out", TermType::Out).unwrap();
        b.connect("nin", input).unwrap();
        b.connect_pin("nin", ms[0], "a").unwrap();
        for w in ms.windows(2) {
            let name = format!("n_{}", w[0]);
            b.connect_pin(&name, w[0], "y").unwrap();
            b.connect_pin(&name, w[1], "a").unwrap();
        }
        b.connect("nout", output).unwrap();
        b.connect_pin("nout", ms[n - 1], "y").unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn complete_and_overlap_free_for_all_presets() {
        let net = chain_network(6);
        for cfg in [
            PlaceConfig::default(),
            PlaceConfig::clusters(),
            PlaceConfig::strings(),
            PlaceConfig::strings().with_module_spacing(2).with_box_spacing(1),
        ] {
            let placement = Pablo::new(cfg.clone()).place(&net);
            assert!(placement.is_complete(), "{cfg:?}");
            assert_eq!(placement.overlap_violations(&net), Vec::<String>::new(), "{cfg:?}");
        }
    }

    #[test]
    fn strings_preset_forms_one_box_chain() {
        let net = chain_network(5);
        let cfg = PlaceConfig::default()
            .with_max_part_size(7)
            .with_max_box_size(5);
        let placement = Pablo::new(cfg).place(&net);
        let s = placement.structure().unwrap();
        assert_eq!(s.partition_count(), 1);
        assert_eq!(s.box_count(), 1);
        assert_eq!(s.longest_string(), 5);
        // Signal flow left to right along the string.
        let string = &s.partitions[0][0];
        for w in string.windows(2) {
            let a = placement.module(w[0]).unwrap().position;
            let b = placement.module(w[1]).unwrap().position;
            assert!(a.x < b.x, "left-to-right violated: {a} !< {b}");
        }
    }

    #[test]
    fn default_preset_gives_singleton_partitions() {
        let net = chain_network(5);
        let placement = Pablo::new(PlaceConfig::default()).place(&net);
        let s = placement.structure().unwrap();
        assert_eq!(s.partition_count(), 5);
        assert_eq!(s.longest_string(), 1);
    }

    #[test]
    fn system_terminals_follow_signal_flow() {
        let net = chain_network(5);
        let placement = Pablo::new(PlaceConfig::strings()).place(&net);
        let input = placement
            .system_term(net.system_term_by_name("in").unwrap())
            .unwrap();
        let output = placement
            .system_term(net.system_term_by_name("out").unwrap())
            .unwrap();
        assert!(input.x < output.x, "in {input} vs out {output}");
    }

    #[test]
    fn preplaced_part_is_untouched() {
        let net = chain_network(4);
        let ms: Vec<ModuleId> = net.modules().collect();
        let mut pre = Placement::new(&net);
        pre.place_module(ms[0], Point::new(50, 50), Rotation::R0);
        pre.place_module(ms[1], Point::new(60, 50), Rotation::R90);
        let placement = Pablo::new(PlaceConfig::strings()).place_with_preplaced(&net, pre);
        assert!(placement.is_complete());
        assert_eq!(placement.module(ms[0]).unwrap().position, Point::new(50, 50));
        assert_eq!(placement.module(ms[1]).unwrap().position, Point::new(60, 50));
        assert_eq!(placement.module(ms[1]).unwrap().rotation, Rotation::R90);
        assert!(placement.overlap_violations(&net).is_empty());
        // The free modules land near the preplaced cluster.
        for &m in &ms[2..] {
            let p = placement.module(m).unwrap().position;
            assert!(p.manhattan(Point::new(55, 50)) < 120, "{p} too far");
        }
    }

    #[test]
    fn all_modules_preplaced_only_places_terminals() {
        let net = chain_network(3);
        let ms: Vec<ModuleId> = net.modules().collect();
        let mut pre = Placement::new(&net);
        for (i, &m) in ms.iter().enumerate() {
            pre.place_module(m, Point::new(10 * i as i32, 0), Rotation::R0);
        }
        let placement = Pablo::new(PlaceConfig::default()).place_with_preplaced(&net, pre);
        assert!(placement.is_complete());
        for (i, &m) in ms.iter().enumerate() {
            assert_eq!(placement.module(m).unwrap().position, Point::new(10 * i as i32, 0));
        }
    }

    #[test]
    fn empty_network_places_nothing() {
        let lib = Library::new();
        let b = NetworkBuilder::new(lib);
        let net = b.finish().unwrap();
        let placement = Pablo::new(PlaceConfig::default()).place(&net);
        assert!(placement.is_complete());
        assert!(placement.bounding_box(&net).is_none());
    }

    /// A `rows`×`cols` systolic cell array: every cell drives its east
    /// and its south neighbour.
    fn cell_array(rows: usize, cols: usize) -> Network {
        let mut lib = Library::new();
        let t = lib
            .add_template(
                Template::new("cell", (40, 40))
                    .unwrap()
                    .with_terminal("a", (0, 10), TermType::In)
                    .unwrap()
                    .with_terminal("b", (0, 30), TermType::In)
                    .unwrap()
                    .with_terminal("x", (40, 10), TermType::Out)
                    .unwrap()
                    .with_terminal("y", (40, 30), TermType::Out)
                    .unwrap(),
            )
            .unwrap();
        let mut b = NetworkBuilder::new(lib);
        let cells: Vec<Vec<ModuleId>> = (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| b.add_instance(format!("c{r}_{c}"), t).unwrap())
                    .collect()
            })
            .collect();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    b.connect_pin(&format!("e{r}_{c}"), cells[r][c], "x").unwrap();
                    b.connect_pin(&format!("e{r}_{c}"), cells[r][c + 1], "a").unwrap();
                }
                if r + 1 < rows {
                    b.connect_pin(&format!("s{r}_{c}"), cells[r][c], "y").unwrap();
                    b.connect_pin(&format!("s{r}_{c}"), cells[r + 1][c], "b").unwrap();
                }
            }
        }
        b.finish().unwrap()
    }

    /// PABLO's counted work (partitioning's key updates plus the
    /// gravity fields' candidates and overlap tests) grows about
    /// linearly: four times the modules may cost at most six times the
    /// work (≈N^1.3), where re-counting every key and testing every
    /// candidate against every placed rectangle grew ≈N^2.7.
    #[test]
    fn placement_work_grows_near_linearly() {
        for cfg in [PlaceConfig::default(), PlaceConfig::strings()] {
            let work = |side: usize| {
                let net = cell_array(side, side);
                Pablo::new(cfg.clone())
                    .place_counted(&net, Placement::new(&net), Steps::INCREMENTAL)
                    .1
            };
            let (small, large) = (work(16), work(32));
            assert!(small > 0, "{cfg:?}");
            assert!(large <= 6 * small, "{cfg:?}: 256 modules {small}, 1024 modules {large}");
        }
    }
}
