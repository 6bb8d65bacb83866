//! PABLO's partitioning, cluster placement and gravity field as they
//! were before they kept their keys incrementally: every seed and
//! every absorption re-counts connections through linear membership
//! scans, every cluster step re-selects over all clusters and re-walks
//! every placed terminal, and every gravity candidate is tested against
//! every placed rectangle. Kept verbatim as the reference the
//! near-linear code is compared against; see the `tests` below.

use netart_geom::{Point, Rect};
use netart_netlist::{ModuleId, NetId, Network};

use crate::cluster::Cluster;
use crate::gravity::centroid;
use crate::pablo::Steps;
use crate::{Partitioning, PlaceConfig};

/// The PABLO pipeline over the reference steps.
pub(crate) const STEPS: Steps = Steps {
    partition: |network, modules, config| (partition(network, modules.iter().copied(), config), 0),
    place_clusters: |clusters, spacing, anchored, _| place_clusters(clusters, spacing, anchored),
};

fn take_a_seed(network: &Network, free: &[ModuleId]) -> ModuleId {
    let is_free = |m: ModuleId| free.contains(&m);
    *free
        .iter()
        .min_by_key(|&&m| {
            let to_free = network.connection_count_to_set(m, is_free);
            let to_placed = network.connection_count_to_set(m, |o| !is_free(o));
            // max to_free, then min to_placed, then min id.
            (usize::MAX - to_free, to_placed, m)
        })
        .expect("take_a_seed requires at least one free module")
}

fn external_connections(network: &Network, partition: &[ModuleId]) -> usize {
    let mut nets: Vec<_> = partition
        .iter()
        .flat_map(|&m| network.module_nets(m).iter().copied())
        .collect();
    nets.sort_unstable();
    nets.dedup();
    nets.into_iter()
        .filter(|&n| {
            network
                .net_modules(n)
                .iter()
                .any(|m| !partition.contains(m))
        })
        .count()
}

fn form_partition(
    network: &Network,
    free: &mut Vec<ModuleId>,
    seed: ModuleId,
    config: &PlaceConfig,
) -> Vec<ModuleId> {
    let mut partition = vec![seed];
    loop {
        if free.is_empty() || partition.len() >= config.max_part_size {
            break;
        }
        if external_connections(network, &partition) >= config.max_connections {
            break;
        }
        // Most connections into the partition; tie-break fewest to the
        // outside; then lowest id.
        let (idx, best) = free
            .iter()
            .enumerate()
            .min_by_key(|&(_, &m)| {
                let inward = network.connection_count_to_set(m, |o| partition.contains(&o));
                let outward = network.connection_count_to_set(m, |o| !partition.contains(&o));
                (usize::MAX - inward, outward, m)
            })
            .map(|(i, &m)| (i, m))
            .expect("free checked non-empty");
        if config.stop_on_zero_affinity
            && network.connection_count_to_set(best, |o| partition.contains(&o)) == 0
        {
            break;
        }
        free.swap_remove(idx);
        partition.push(best);
    }
    partition
}

/// The quadratic-scan [`crate::partition`].
pub(crate) fn partition(
    network: &Network,
    modules: impl IntoIterator<Item = ModuleId>,
    config: &PlaceConfig,
) -> Partitioning {
    let mut free: Vec<ModuleId> = modules.into_iter().collect();
    free.sort_unstable();
    free.dedup();
    let mut partitions = Vec::new();
    while !free.is_empty() {
        let seed = take_a_seed(network, &free);
        free.retain(|&m| m != seed);
        partitions.push(form_partition(network, &mut free, seed, config));
    }
    Partitioning { partitions }
}

/// The [`crate::gravity::GravityField`] that tests every candidate
/// against every placed rectangle.
#[derive(Debug, Clone)]
pub(crate) struct GravityField {
    placed: Vec<Rect>,
    spacing: i32,
}

impl GravityField {
    pub(crate) fn new(spacing: i32) -> Self {
        GravityField {
            placed: Vec::new(),
            spacing: spacing.max(0),
        }
    }

    pub(crate) fn occupy(&mut self, rect: Rect) {
        self.placed.push(rect.inflate(self.spacing));
    }

    fn collides(&self, rect: &Rect) -> bool {
        self.placed.iter().any(|p| p.overlaps_strictly(rect))
    }

    fn effective(&self, origin: Point, size: (i32, i32)) -> Rect {
        Rect::new(
            origin - Point::new(self.spacing, self.spacing),
            size.0 + 2 * self.spacing,
            size.1 + 2 * self.spacing,
        )
    }

    pub(crate) fn place(&mut self, size: (i32, i32), desired: Point) -> Point {
        let origin = self.best_position(size, desired);
        self.occupy(Rect::new(origin, size.0, size.1));
        origin
    }

    fn best_position(&self, size: (i32, i32), desired: Point) -> Point {
        if !self.collides(&self.effective(desired, size)) {
            return desired;
        }
        let (w, h) = (size.0 + 2 * self.spacing, size.1 + 2 * self.spacing);
        let mut best: Option<(i64, Point)> = None;
        let mut consider = |origin: Point| {
            let rect = self.effective(origin, size);
            if self.collides(&rect) {
                return;
            }
            let score = (origin.dist2(desired), origin);
            match &mut best {
                Some((s, b)) if (*s, *b) <= (score.0, origin) => {}
                _ => best = Some(score),
            }
        };
        for obstacle in &self.placed {
            let ll = obstacle.lower_left();
            let ur = obstacle.upper_right();
            for x in [ll.x - w, ur.x] {
                let x = x + self.spacing;
                for y in [
                    desired
                        .y
                        .clamp(ll.y - h + self.spacing, ur.y + self.spacing),
                    ll.y - h + self.spacing,
                    ur.y + self.spacing,
                ] {
                    consider(Point::new(x, y));
                }
            }
            for y in [ll.y - h, ur.y] {
                let y = y + self.spacing;
                for x in [
                    desired
                        .x
                        .clamp(ll.x - w + self.spacing, ur.x + self.spacing),
                    ll.x - w + self.spacing,
                    ur.x + self.spacing,
                ] {
                    consider(Point::new(x, y));
                }
            }
        }
        if let Some((_, origin)) = best {
            return origin;
        }
        let hull = self
            .placed
            .iter()
            .skip(1)
            .fold(self.placed[0], |acc, r| acc.hull(r));
        Point::new(hull.upper_right().x + self.spacing, desired.y)
    }

    pub(crate) fn bounding(&self) -> Option<Rect> {
        let mut it = self.placed.iter();
        let first = *it.next()?;
        Some(it.fold(first, |acc, r| acc.hull(r)))
    }
}

fn nets(cluster: &Cluster) -> impl Iterator<Item = NetId> + '_ {
    cluster.terms.iter().map(|&(n, _)| n)
}

fn shared_net_count(cluster: &Cluster, placed_nets: &[NetId]) -> usize {
    let mut nets: Vec<NetId> = nets(cluster)
        .filter(|n| placed_nets.binary_search(n).is_ok())
        .collect();
    nets.sort_unstable();
    nets.dedup();
    nets.len()
}

/// The re-selecting [`crate::cluster::place_clusters`] over the
/// quadratic [`GravityField`].
pub(crate) fn place_clusters(
    clusters: &[Cluster],
    spacing: i32,
    anchored: Option<(usize, Point)>,
) -> Vec<Point> {
    assert!(!clusters.is_empty(), "nothing to place");
    let mut positions: Vec<Option<Point>> = vec![None; clusters.len()];
    let mut field = GravityField::new(spacing);

    let (first, first_pos) = anchored.unwrap_or_else(|| {
        let first = (0..clusters.len())
            .max_by_key(|&i| (clusters[i].weight, usize::MAX - i))
            .expect("non-empty");
        (first, Point::ORIGIN)
    });
    positions[first] = Some(first_pos);
    field.occupy(Rect::new(
        first_pos,
        clusters[first].size.0,
        clusters[first].size.1,
    ));

    let mut placed_nets: Vec<NetId> = nets(&clusters[first]).collect();
    placed_nets.sort_unstable();
    placed_nets.dedup();

    for _ in 1..clusters.len() {
        let next = (0..clusters.len())
            .filter(|&i| positions[i].is_none())
            .max_by_key(|&i| {
                (
                    shared_net_count(&clusters[i], &placed_nets),
                    clusters[i].weight,
                    usize::MAX - i,
                )
            })
            .expect("unplaced cluster remains");

        let shared: Vec<NetId> = nets(&clusters[next])
            .filter(|n| placed_nets.binary_search(n).is_ok())
            .collect();
        let is_shared = |n: NetId| shared.contains(&n);

        let g0 = centroid(
            &clusters[next]
                .terms
                .iter()
                .filter(|&&(n, _)| is_shared(n))
                .map(|&(_, p)| p)
                .collect::<Vec<_>>(),
        );
        let g1_points: Vec<Point> = positions
            .iter()
            .enumerate()
            .filter_map(|(i, pos)| pos.map(|p| (i, p)))
            .flat_map(|(i, pos)| {
                clusters[i]
                    .terms
                    .iter()
                    .filter(|&&(n, _)| is_shared(n))
                    .map(move |&(_, p)| pos + p)
            })
            .collect();
        let g1 = centroid(&g1_points);

        let desired = match (g0, g1) {
            (Some(g0), Some(g1)) => g1 - g0,
            _ => {
                let b = field.bounding().expect("anchor placed");
                b.center() - Point::new(clusters[next].size.0 / 2, clusters[next].size.1 / 2)
            }
        };
        let pos = field.place(clusters[next].size, desired);
        positions[next] = Some(pos);
        placed_nets.extend(nets(&clusters[next]));
        placed_nets.sort_unstable();
        placed_nets.dedup();
    }

    positions
        .into_iter()
        .map(|p| p.expect("all placed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use netart_diagram::Placement;
    use netart_geom::Rotation;
    use netart_workloads::{random_network, RandomSpec};
    use proptest::prelude::*;

    use super::*;
    use crate::Pablo;

    fn spec() -> impl Strategy<Value = RandomSpec> {
        (2usize..40, 1usize..60, 2usize..6, 0usize..4, any::<u64>()).prop_map(
            |(modules, nets, max_fanout, system_terminals, seed)| RandomSpec {
                modules,
                nets,
                max_fanout,
                system_terminals,
                seed,
            },
        )
    }

    fn config() -> impl Strategy<Value = PlaceConfig> {
        (
            (1usize..10, 1usize..7),
            (1usize..10).prop_map(|c| if c > 7 { usize::MAX } else { c }),
            (0i32..4, 0i32..4, 0i32..4),
            any::<bool>(),
        )
            .prop_map(|((p, b), c, (e, i, s), stop)| PlaceConfig {
                stop_on_zero_affinity: stop,
                ..PlaceConfig::new()
                    .with_max_part_size(p)
                    .with_max_box_size(b)
                    .with_max_connections(c)
                    .with_part_spacing(e)
                    .with_box_spacing(i)
                    .with_module_spacing(s)
            })
    }

    fn cluster() -> impl Strategy<Value = Cluster> {
        (
            (0i32..12, 0i32..12),
            1usize..5,
            prop::collection::vec((0usize..10, 0i32..12, 0i32..12), 0..6),
        )
            .prop_map(|(size, weight, terms)| Cluster {
                size,
                weight,
                terms: terms
                    .into_iter()
                    .map(|(n, x, y)| {
                        (
                            NetId::from_index(n),
                            Point::new(x.min(size.0), y.min(size.1)),
                        )
                    })
                    .collect(),
            })
    }

    #[derive(Debug, Clone)]
    enum Op {
        Occupy(Rect),
        Place((i32, i32), Point),
    }

    /// Occupations and placements with origins in `-span..span`:
    /// sparse, and reaching into negative coordinates, for a wide
    /// span; dense, with every rectangle overlapping many others, for
    /// a narrow one.
    fn ops(span: i32) -> impl Strategy<Value = Vec<Op>> {
        let op = (any::<bool>(), -span..span, -span..span, 0i32..15, 0i32..15).prop_map(
            |(occupy, x, y, w, h)| {
                if occupy {
                    Op::Occupy(Rect::new(Point::new(x, y), w, h))
                } else {
                    Op::Place((w, h), Point::new(x, y))
                }
            },
        );
        prop::collection::vec(op, 1..60)
    }

    fn assert_same_field(ops: &[Op], spacing: i32) -> Result<(), TestCaseError> {
        let mut fast = crate::gravity::GravityField::new(spacing);
        let mut slow = GravityField::new(spacing);
        for op in ops {
            match *op {
                Op::Occupy(rect) => {
                    fast.occupy(rect);
                    slow.occupy(rect);
                }
                Op::Place(size, desired) => {
                    prop_assert_eq!(
                        fast.place(size, desired),
                        slow.place(size, desired),
                        "{:?}",
                        op
                    );
                }
            }
            prop_assert_eq!(fast.bounding(), slow.bounding());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Incremental seed and absorption keys choose exactly what the
        /// re-counting scans choose, also when some modules are outside
        /// the pool.
        #[test]
        fn partition_matches_the_oracle(
            spec in spec(),
            cfg in config(),
            outside in any::<u64>(),
        ) {
            let net = random_network(&spec);
            let pool: Vec<ModuleId> = net
                .modules()
                .filter(|m| outside >> (m.index() % 64) & 1 == 0 || outside % 3 == 0)
                .collect();
            prop_assert_eq!(
                crate::partition(&net, pool.iter().copied(), &cfg),
                partition(&net, pool.iter().copied(), &cfg)
            );
        }

        /// The whole pipeline places every module and terminal as it
        /// does over the reference steps, with and without a preplaced
        /// part.
        #[test]
        fn pablo_matches_the_oracle(
            spec in spec(),
            cfg in config(),
            preplaced in 0usize..4,
        ) {
            let net = random_network(&spec);
            let mut pre = Placement::new(&net);
            for m in net.modules().take(preplaced) {
                pre.place_module(m, Point::new(-30 + 25 * m.index() as i32, 40), Rotation::R0);
            }
            let pablo = Pablo::new(cfg);
            let (fast, _) = pablo.place_counted(&net, pre.clone(), Steps::INCREMENTAL);
            let (slow, _) = pablo.place_counted(&net, pre, STEPS);
            for m in net.modules() {
                prop_assert_eq!(fast.module(m), slow.module(m), "{:?}", m);
            }
            for st in net.system_terms() {
                prop_assert_eq!(fast.system_term(st), slow.system_term(st));
            }
            prop_assert_eq!(fast.structure(), slow.structure());
        }

        /// Next-cluster choice from the ordered queue and gravity from
        /// per-net sums give the re-selecting placement's origins.
        #[test]
        fn place_clusters_matches_the_oracle(
            clusters in prop::collection::vec(cluster(), 1..30),
            spacing in 0i32..4,
            anchor in (any::<bool>(), any::<usize>(), -50i32..50, -50i32..50),
        ) {
            let (anchored, i, x, y) = anchor;
            let anchored = anchored.then(|| (i % clusters.len(), Point::new(x, y)));
            prop_assert_eq!(
                crate::cluster::place_clusters(&clusters, spacing, anchored, &mut 0),
                place_clusters(&clusters, spacing, anchored)
            );
        }

    }

    proptest! {
        // Equal-distance ties between candidates of different
        // obstacles are rare, and only many cases meet them.
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The bucketed, ring-ordered field finds the origin the
        /// exhaustive one finds, on sparse fields with negative
        /// coordinates.
        #[test]
        fn gravity_field_matches_the_oracle(ops in ops(200), spacing in 0i32..4) {
            assert_same_field(&ops, spacing)?;
        }

        /// ... and on dense fields of overlapping rectangles, where most
        /// touching positions are blocked.
        #[test]
        fn dense_gravity_field_matches_the_oracle(ops in ops(8), spacing in 0i32..4) {
            assert_same_field(&ops, spacing)?;
        }
    }
}
