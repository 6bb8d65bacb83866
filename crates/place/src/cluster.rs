//! Generic centre-of-gravity cluster placement.
//!
//! Box placement inside a partition (§4.6.5) and partition placement
//! (§4.6.6) run the very same procedure at two levels: pick the
//! heaviest cluster as the anchor, then repeatedly place the cluster
//! most connected to the placed ones at the free position minimising
//! the distance between the two gravity centres.

use std::collections::BTreeSet;

use netart_geom::{Point, Rect};
use netart_netlist::NetId;

use crate::gravity::{GravityField, PointSum};

/// One rectangle to place, with the net-connected terminal points it
/// contains (in cluster-local coordinates).
#[derive(Debug, Clone)]
pub(crate) struct Cluster {
    /// Bounding size.
    pub size: (i32, i32),
    /// `(net, local position)` for every connected terminal inside.
    pub terms: Vec<(NetId, Point)>,
    /// Number of modules inside — the paper picks the largest cluster
    /// as the anchor.
    pub weight: usize,
}

/// Places all clusters; returns their origins, index-aligned with the
/// input, and adds the gravity field's work to `work`.
///
/// `anchored` optionally pins one cluster at a fixed origin (used for a
/// preplaced part, Appendix E `-g`); otherwise the heaviest cluster
/// anchors at the origin.
///
/// The next cluster is the unplaced one sharing the most nets with the
/// placed ones, then the heaviest, then the lowest index. Its gravity
/// pair averages, over the shared nets, its own terminals and every
/// placed terminal; the latter come from per-net sums kept as clusters
/// are placed, so a step costs its own cluster's terminals plus the
/// clusters whose shared-net count it bumps.
pub(crate) fn place_clusters(
    clusters: &[Cluster],
    spacing: i32,
    anchored: Option<(usize, Point)>,
    work: &mut u64,
) -> Vec<Point> {
    assert!(!clusters.is_empty(), "nothing to place");
    let gravity_span = tracing::span!(
        tracing::Level::DEBUG,
        "pablo.gravity",
        clusters = clusters.len() as u64,
    );
    let _gravity_guard = gravity_span.enter();
    netart_fault::fire_hard(netart_fault::sites::PLACE_GRAVITY);
    let mut state = Progress::new(clusters);
    let mut field = GravityField::new(spacing);

    let (first, first_pos) = anchored.unwrap_or_else(|| {
        // Heaviest cluster first; ties by lowest index.
        let first = (0..clusters.len())
            .max_by_key(|&i| (clusters[i].weight, usize::MAX - i))
            .expect("non-empty");
        (first, Point::ORIGIN)
    });
    let (w, h) = clusters[first].size;
    field.occupy(Rect::new(first_pos, w, h));
    state.commit(first, first_pos);

    while let Some((_, _, next)) = state.queue.pop_first() {
        let cluster = &clusters[next];
        let desired = match state.gravity_pair(next) {
            (Some(g0), Some(g1)) => g1 - g0,
            // No shared nets: aim at the centre of what is placed.
            _ => {
                let b = field.bounding().expect("anchor placed");
                b.center() - Point::new(cluster.size.0 / 2, cluster.size.1 / 2)
            }
        };
        let pos = field.place(cluster.size, desired);
        state.commit(next, pos);
    }
    *work += field.work();

    state
        .positions
        .into_iter()
        .map(|p| p.expect("all placed"))
        .collect()
}

/// The placement so far, with the side tables that make choosing and
/// aiming the next cluster cheap. Nets are renumbered densely over the
/// clusters' own nets, so the tables cost what the clusters hold, not
/// what the network holds.
struct Progress<'a> {
    clusters: &'a [Cluster],
    positions: Vec<Option<Point>>,
    /// Per cluster: its terminals, by renumbered net.
    terms: Vec<Vec<(usize, Point)>>,
    /// Per cluster: its distinct renumbered nets.
    nets: Vec<Vec<usize>>,
    /// Per net: the clusters with a terminal on it.
    on_net: Vec<Vec<usize>>,
    /// Per net: the sum of its placed terminal positions, once a
    /// placed cluster has one.
    placed_terms: Vec<Option<PointSum>>,
    /// Per cluster: how many of its nets are placed.
    shared: Vec<usize>,
    /// Unplaced clusters by `(most shared nets, heaviest, lowest
    /// index)`.
    queue: BTreeSet<(usize, usize, usize)>,
}

impl<'a> Progress<'a> {
    fn new(clusters: &'a [Cluster]) -> Self {
        let mut ids: Vec<NetId> = clusters
            .iter()
            .flat_map(|c| c.terms.iter().map(|&(n, _)| n))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let terms: Vec<Vec<(usize, Point)>> = clusters
            .iter()
            .map(|c| {
                let local = |n| ids.binary_search(&n).expect("every net collected");
                c.terms.iter().map(|&(n, p)| (local(n), p)).collect()
            })
            .collect();
        let nets: Vec<Vec<usize>> = terms
            .iter()
            .map(|terms| {
                let mut nets: Vec<usize> = terms.iter().map(|&(n, _)| n).collect();
                nets.sort_unstable();
                nets.dedup();
                nets
            })
            .collect();
        let mut on_net = vec![Vec::new(); ids.len()];
        for (i, ns) in nets.iter().enumerate() {
            for &n in ns {
                on_net[n].push(i);
            }
        }
        let mut progress = Progress {
            clusters,
            positions: vec![None; clusters.len()],
            terms,
            nets,
            on_net,
            placed_terms: vec![None; ids.len()],
            shared: vec![0; clusters.len()],
            queue: BTreeSet::new(),
        };
        progress.queue = (0..clusters.len()).map(|i| progress.key(i)).collect();
        progress
    }

    fn key(&self, i: usize) -> (usize, usize, usize) {
        (
            usize::MAX - self.shared[i],
            usize::MAX - self.clusters[i].weight,
            i,
        )
    }

    /// The gravity centres of cluster `i`'s terminals on placed nets
    /// (local) and of every placed terminal on those nets; `None`
    /// without shared nets.
    fn gravity_pair(&self, i: usize) -> (Option<Point>, Option<Point>) {
        let mut own = PointSum::default();
        for &(n, p) in &self.terms[i] {
            if self.placed_terms[n].is_some() {
                own.add(p);
            }
        }
        let mut placed = PointSum::default();
        for &n in &self.nets[i] {
            if let Some(sum) = self.placed_terms[n] {
                placed.merge(sum);
            }
        }
        (own.centroid(), placed.centroid())
    }

    /// Records cluster `i` at `pos`: adds its terminals to the per-net
    /// sums and bumps every unplaced cluster on a net placed for the
    /// first time.
    fn commit(&mut self, i: usize, pos: Point) {
        self.queue.remove(&self.key(i));
        self.positions[i] = Some(pos);
        for t in 0..self.terms[i].len() {
            let (n, p) = self.terms[i][t];
            if self.placed_terms[n].is_none() {
                for &j in &self.on_net[n] {
                    if self.positions[j].is_none() {
                        self.queue.remove(&self.key(j));
                        self.shared[j] += 1;
                        self.queue.insert(self.key(j));
                    }
                }
            }
            self.placed_terms[n]
                .get_or_insert_with(PointSum::default)
                .add(pos + p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(size: (i32, i32), weight: usize, terms: &[(usize, (i32, i32))]) -> Cluster {
        Cluster {
            size,
            weight,
            terms: terms
                .iter()
                .map(|&(n, (x, y))| (NetId::from_index(n), Point::new(x, y)))
                .collect(),
        }
    }

    #[test]
    fn heaviest_anchors_at_origin() {
        let clusters = vec![
            c((4, 4), 1, &[(0, (4, 2))]),
            c((6, 6), 3, &[(0, (0, 3))]),
        ];
        let pos = place_clusters(&clusters, 0, None, &mut 0);
        assert_eq!(pos[1], Point::ORIGIN);
    }

    #[test]
    fn connected_clusters_placed_adjacent() {
        let clusters = vec![
            c((4, 4), 2, &[(0, (4, 2))]),          // net 0 exits on the right
            c((4, 4), 1, &[(0, (0, 2))]),          // net 0 enters on the left
            c((4, 4), 1, &[(1, (0, 0)), (0, (0, 3))]),
        ];
        let pos = place_clusters(&clusters, 0, None, &mut 0);
        // No overlaps.
        let rects: Vec<Rect> = pos
            .iter()
            .zip(&clusters)
            .map(|(&p, c)| Rect::new(p, c.size.0, c.size.1))
            .collect();
        for (i, a) in rects.iter().enumerate() {
            for b in &rects[i + 1..] {
                assert!(!a.overlaps_strictly(b), "{a} vs {b}");
            }
        }
        // Cluster 1's left terminal ends up near cluster 0's right one.
        let t0 = pos[0] + Point::new(4, 2);
        let t1 = pos[1] + Point::new(0, 2);
        assert!(t0.manhattan(t1) <= 6, "terminals {t0} and {t1} too far");
    }

    #[test]
    fn anchored_cluster_stays_fixed() {
        let clusters = vec![
            c((4, 4), 1, &[(0, (4, 2))]),
            c((4, 4), 5, &[(0, (0, 2))]),
        ];
        let pin = Point::new(100, 50);
        let pos = place_clusters(&clusters, 0, Some((0, pin)), &mut 0);
        assert_eq!(pos[0], pin);
        // The other cluster lands near the anchor despite being heavier.
        assert!(pos[1].manhattan(pin) < 30);
    }

    #[test]
    fn unconnected_cluster_still_lands_nearby() {
        let clusters = vec![
            c((8, 8), 4, &[(0, (4, 4))]),
            c((2, 2), 1, &[]), // no nets at all
        ];
        let pos = place_clusters(&clusters, 1, None, &mut 0);
        assert!(pos[1].manhattan(pos[0]) < 20, "{:?}", pos);
    }

    #[test]
    fn spacing_respected_between_clusters() {
        let clusters = vec![
            c((4, 4), 2, &[(0, (4, 2))]),
            c((4, 4), 1, &[(0, (0, 2))]),
        ];
        let pos = place_clusters(&clusters, 3, None, &mut 0);
        let a = Rect::new(pos[0], 4, 4);
        let b = Rect::new(pos[1], 4, 4);
        assert!(!a.inflate(3).overlaps_strictly(&b.inflate(3)), "{a} {b}");
    }

    #[test]
    fn many_clusters_all_disjoint() {
        let clusters: Vec<Cluster> = (0..10)
            .map(|i| c((3, 3), 1, &[(i % 3, (1, 1))]))
            .collect();
        let pos = place_clusters(&clusters, 1, None, &mut 0);
        for i in 0..pos.len() {
            for j in i + 1..pos.len() {
                let a = Rect::new(pos[i], 3, 3);
                let b = Rect::new(pos[j], 3, 3);
                assert!(!a.overlaps_strictly(&b));
            }
        }
    }
}
