//! Partitioning the design into functional parts (§4.6.3).
//!
//! The process repeatedly selects a *seed* — the free module most
//! heavily connected to the remaining free modules — and grows a cluster
//! around it by absorbing the free module with the strongest affinity to
//! the cluster, until the partition size limit or the outgoing-net limit
//! is exceeded.

use std::collections::BTreeSet;

use netart_netlist::{ModuleId, NetId, Network};

use crate::PlaceConfig;

/// The result of partitioning: disjoint module sets covering all
/// requested modules, in formation order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    /// The partitions, each a list of modules in absorption order
    /// (seed first).
    pub partitions: Vec<Vec<ModuleId>>,
}

impl Partitioning {
    /// Number of partitions formed.
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// `true` when no partitions were formed.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// The partition index a module belongs to.
    pub fn partition_of(&self, m: ModuleId) -> Option<usize> {
        self.partitions.iter().position(|p| p.contains(&m))
    }
}

/// Seed and absorption keys of the free pool, kept up to date as
/// modules leave it instead of being re-counted for every choice.
///
/// A module's seed key is the tuple `TAKE_A_SEED` minimises: most
/// connections to other free modules, then fewest to modules outside
/// the pool, then lowest id. Its absorption key is the tuple
/// `FORM_PARTITION` minimises: most connections into the growing
/// partition, then fewest to modules outside it, then lowest id. Both
/// count nets, so they change only when a net's count of free modules
/// or of partition members crosses the threshold at which it starts or
/// stops counting; that touches each net's modules a bounded number of
/// times per partition.
struct Pool<'a> {
    network: &'a Network,
    /// `free[m]`: `m` has not joined a partition yet.
    free: Vec<bool>,
    /// Per net: how many of its modules are free.
    free_on: Vec<usize>,
    /// Per free module: nets to another free module, and nets to a
    /// module outside the pool.
    to_free: Vec<usize>,
    to_placed: Vec<usize>,
    /// Free modules by seed key.
    seeds: BTreeSet<(usize, usize, ModuleId)>,
    /// Free modules by `(nets to any other module, id)`: the
    /// absorption order when nothing is connected to the partition.
    by_degree: BTreeSet<(usize, ModuleId)>,
    /// The growing partition: members per net, the nets it touches
    /// and how many of them also reach outside it.
    in_part: Vec<usize>,
    touched: Vec<NetId>,
    external: usize,
    /// Per free module connected to the partition: nets into it and
    /// nets out of it, keyed in `candidates`.
    inward: Vec<usize>,
    outward: Vec<usize>,
    adjacent: Vec<ModuleId>,
    candidates: BTreeSet<(usize, usize, ModuleId)>,
    /// Key insertions and removals made, a deterministic measure of
    /// the work done.
    key_updates: u64,
}

/// Nets of `m` that reach another module.
fn degree(network: &Network, m: ModuleId) -> usize {
    network
        .module_nets(m)
        .iter()
        .filter(|&&n| network.net_modules(n).len() >= 2)
        .count()
}

impl<'a> Pool<'a> {
    fn new(network: &'a Network, modules: &[ModuleId]) -> Self {
        let mut free = vec![false; network.module_count()];
        for m in modules {
            free[m.index()] = true;
        }
        let free_on: Vec<usize> = network
            .nets()
            .map(|n| {
                network
                    .net_modules(n)
                    .iter()
                    .filter(|m| free[m.index()])
                    .count()
            })
            .collect();
        let mut pool = Pool {
            network,
            free_on,
            to_free: vec![0; free.len()],
            to_placed: vec![0; free.len()],
            seeds: BTreeSet::new(),
            by_degree: BTreeSet::new(),
            in_part: vec![0; network.net_count()],
            touched: Vec::new(),
            external: 0,
            inward: vec![0; free.len()],
            outward: vec![0; free.len()],
            adjacent: Vec::new(),
            candidates: BTreeSet::new(),
            key_updates: 0,
            free,
        };
        for m in network.modules().filter(|m| pool.free[m.index()]) {
            for &n in network.module_nets(m) {
                let (len, free_on) = (network.net_modules(n).len(), pool.free_on[n.index()]);
                pool.to_free[m.index()] += usize::from(free_on >= 2);
                pool.to_placed[m.index()] += usize::from(len > free_on);
            }
            pool.seeds.insert(pool.seed_key(m));
            pool.by_degree.insert((degree(network, m), m));
        }
        pool
    }

    fn seed_key(&self, m: ModuleId) -> (usize, usize, ModuleId) {
        (
            usize::MAX - self.to_free[m.index()],
            self.to_placed[m.index()],
            m,
        )
    }

    fn candidate_key(&self, m: ModuleId) -> (usize, usize, ModuleId) {
        (
            usize::MAX - self.inward[m.index()],
            self.outward[m.index()],
            m,
        )
    }

    /// Changes the seed counts of free module `m` by the given deltas.
    fn reseed(&mut self, m: ModuleId, to_free: isize, to_placed: isize) {
        self.seeds.remove(&self.seed_key(m));
        let i = m.index();
        self.to_free[i] = self.to_free[i].wrapping_add_signed(to_free);
        self.to_placed[i] = self.to_placed[i].wrapping_add_signed(to_placed);
        self.seeds.insert(self.seed_key(m));
        self.key_updates += 2;
    }

    /// Changes the absorption counts of free module `m` by the given
    /// deltas. A module gets a key when it first connects inward; until
    /// then no net of it touched the partition, so every net of it that
    /// reaches another module led out.
    fn rekey(&mut self, m: ModuleId, inward: isize, outward: isize) {
        let i = m.index();
        if self.inward[i] == 0 {
            self.adjacent.push(m);
            self.outward[i] = degree(self.network, m);
        } else {
            self.candidates.remove(&self.candidate_key(m));
        }
        self.inward[i] = self.inward[i].wrapping_add_signed(inward);
        self.outward[i] = self.outward[i].wrapping_add_signed(outward);
        self.candidates.insert(self.candidate_key(m));
        self.key_updates += 2;
    }

    /// `TAKE_A_SEED`, or `None` once every module has joined a
    /// partition.
    fn seed(&self) -> Option<ModuleId> {
        self.seeds.first().map(|&(_, _, m)| m)
    }

    /// The free module `FORM_PARTITION` absorbs next, with whether it
    /// has any connection into the partition.
    fn best_candidate(&self) -> Option<(ModuleId, bool)> {
        match self.candidates.first() {
            Some(&(_, _, m)) => Some((m, true)),
            None => self.by_degree.first().map(|&(_, m)| (m, false)),
        }
    }

    /// The modules of net `n` still in the pool.
    fn free_on_net(&self, n: NetId) -> Vec<ModuleId> {
        let modules = self.network.net_modules(n).iter().copied();
        modules.filter(|m| self.free[m.index()]).collect()
    }

    /// Takes `x` out of the pool.
    fn take(&mut self, x: ModuleId) {
        let network = self.network;
        self.seeds.remove(&self.seed_key(x));
        self.by_degree.remove(&(degree(network, x), x));
        if self.inward[x.index()] > 0 {
            self.candidates.remove(&self.candidate_key(x));
        }
        self.key_updates += 2;
        self.free[x.index()] = false;
        for &n in network.module_nets(x) {
            let before = self.free_on[n.index()];
            self.free_on[n.index()] = before - 1;
            // The net stops linking two free modules when one is left,
            // and starts reaching outside the pool when the first
            // module leaves.
            let to_free = -isize::from(before == 2);
            let to_placed = isize::from(before == network.net_modules(n).len());
            if to_free != 0 || to_placed != 0 {
                for o in self.free_on_net(n) {
                    self.reseed(o, to_free, to_placed);
                }
            }
        }
    }

    /// Adds `x`, already taken from the pool, to the growing
    /// partition. The pool's modules are exactly the candidates, since
    /// members have left it.
    fn join(&mut self, x: ModuleId) {
        let network = self.network;
        for &n in network.module_nets(x) {
            let len = network.net_modules(n).len();
            let before = self.in_part[n.index()];
            let after = before + 1;
            self.in_part[n.index()] = after;
            let reaches_out = |members: usize| members > 0 && members < len;
            self.external = self.external + usize::from(reaches_out(after))
                - usize::from(reaches_out(before));
            if before == 0 {
                self.touched.push(n);
            }
            // The net starts leading into the partition with its first
            // member, and stops leading out of it from the one module
            // it leaves outside.
            let inward = isize::from(before == 0);
            let outward = -isize::from(after + 1 == len);
            if inward != 0 || outward != 0 {
                for o in self.free_on_net(n) {
                    self.rekey(o, inward, outward);
                }
            }
        }
    }

    /// Forgets the partition just closed.
    fn close(&mut self) {
        for n in self.touched.drain(..) {
            self.in_part[n.index()] = 0;
        }
        for m in self.adjacent.drain(..) {
            self.inward[m.index()] = 0;
            self.outward[m.index()] = 0;
        }
        self.candidates.clear();
        self.external = 0;
    }

    /// `FORM_PARTITION`: grows a cluster around `seed`, already taken
    /// from the pool.
    fn form_partition(&mut self, seed: ModuleId, config: &PlaceConfig) -> Vec<ModuleId> {
        let mut partition = vec![seed];
        loop {
            if self.seeds.is_empty() || partition.len() >= config.max_part_size {
                break;
            }
            // Members join lazily, so a partition closed by its size
            // never pays for its last member's nets.
            self.join(*partition.last().expect("seeded"));
            if self.external >= config.max_connections {
                break;
            }
            let (best, connected) = self.best_candidate().expect("pool checked non-empty");
            if config.stop_on_zero_affinity && !connected {
                break;
            }
            self.take(best);
            partition.push(best);
        }
        self.close();
        partition
    }
}

/// Partitions the given modules of a network into functional parts.
///
/// Every module of `modules` ends up in exactly one partition. The
/// order of `modules` does not influence the result beyond tie-breaking
/// by module id.
pub fn partition(
    network: &Network,
    modules: impl IntoIterator<Item = ModuleId>,
    config: &PlaceConfig,
) -> Partitioning {
    let modules: Vec<ModuleId> = modules.into_iter().collect();
    partition_counted(network, &modules, config).0
}

/// [`partition`], plus the number of key updates it made.
pub(crate) fn partition_counted(
    network: &Network,
    modules: &[ModuleId],
    config: &PlaceConfig,
) -> (Partitioning, u64) {
    let mut pool = Pool::new(network, modules);
    let mut partitions = Vec::new();
    while let Some(seed) = pool.seed() {
        pool.take(seed);
        partitions.push(pool.form_partition(seed, config));
    }
    (Partitioning { partitions }, pool.key_updates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netart_netlist::{Library, NetworkBuilder, Template, TermType};

    /// Two 3-module cliques joined by a single bridge net.
    fn two_cliques() -> Network {
        let mut lib = Library::new();
        let t = lib
            .add_template(
                Template::new("m", (2, 6))
                    .unwrap()
                    .with_terminal("a", (0, 1), TermType::In)
                    .unwrap()
                    .with_terminal("b", (0, 3), TermType::In)
                    .unwrap()
                    .with_terminal("c", (0, 5), TermType::In)
                    .unwrap()
                    .with_terminal("x", (2, 1), TermType::Out)
                    .unwrap()
                    .with_terminal("y", (2, 3), TermType::Out)
                    .unwrap()
                    .with_terminal("z", (2, 5), TermType::Out)
                    .unwrap(),
            )
            .unwrap();
        let mut b = NetworkBuilder::new(lib);
        let ms: Vec<ModuleId> = (0..6)
            .map(|i| b.add_instance(format!("u{i}"), t).unwrap())
            .collect();
        // clique 0: u0,u1,u2 fully pairwise connected
        let pairs = [(0, 1, "x", "a"), (1, 2, "y", "b"), (2, 0, "z", "c")];
        for (i, (s, d, o, t)) in pairs.iter().enumerate() {
            let name = format!("c0_{i}");
            b.connect_pin(&name, ms[*s], o).unwrap();
            b.connect_pin(&name, ms[*d], t).unwrap();
        }
        for (i, (s, d, o, t)) in pairs.iter().enumerate() {
            let name = format!("c1_{i}");
            b.connect_pin(&name, ms[s + 3], o).unwrap();
            b.connect_pin(&name, ms[d + 3], t).unwrap();
        }
        // bridge u2 -> u3
        b.connect_pin("bridge", ms[2], "x").unwrap();
        b.connect_pin("bridge", ms[3], "a").unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn partition_size_one_yields_singletons() {
        let net = two_cliques();
        let p = partition(&net, net.modules(), &PlaceConfig::default());
        assert_eq!(p.len(), 6);
        assert!(p.partitions.iter().all(|p| p.len() == 1));
    }

    #[test]
    fn cliques_stay_together() {
        let net = two_cliques();
        let cfg = PlaceConfig::default().with_max_part_size(3);
        let p = partition(&net, net.modules(), &cfg);
        assert_eq!(p.len(), 2, "{p:?}");
        for part in &p.partitions {
            assert_eq!(part.len(), 3);
            // All members of a partition belong to the same clique.
            let first_clique = part[0].index() / 3;
            assert!(part.iter().all(|m| m.index() / 3 == first_clique), "{p:?}");
        }
    }

    #[test]
    fn every_module_in_exactly_one_partition() {
        let net = two_cliques();
        for size in [1, 2, 3, 4, 10] {
            let cfg = PlaceConfig::default().with_max_part_size(size);
            let p = partition(&net, net.modules(), &cfg);
            let mut all: Vec<ModuleId> = p.partitions.iter().flatten().copied().collect();
            all.sort_unstable();
            let expected: Vec<ModuleId> = net.modules().collect();
            assert_eq!(all, expected, "size {size}");
        }
    }

    #[test]
    fn connection_limit_closes_partitions() {
        let net = two_cliques();
        // With the limit at 1 outgoing net, partitions close as soon as
        // they have any external connection, keeping them small.
        let cfg = PlaceConfig::default()
            .with_max_part_size(6)
            .with_max_connections(1);
        let p = partition(&net, net.modules(), &cfg);
        assert!(p.len() >= 2, "{p:?}");
    }

    #[test]
    fn partition_of_lookup() {
        let net = two_cliques();
        let cfg = PlaceConfig::default().with_max_part_size(3);
        let p = partition(&net, net.modules(), &cfg);
        for m in net.modules() {
            assert!(p.partition_of(m).is_some());
        }
        assert!(!p.is_empty());
    }

    #[test]
    fn subset_partitioning_ignores_other_modules() {
        let net = two_cliques();
        let subset: Vec<ModuleId> = net.modules().take(3).collect();
        let cfg = PlaceConfig::default().with_max_part_size(3);
        let p = partition(&net, subset.iter().copied(), &cfg);
        let placed: Vec<ModuleId> = p.partitions.iter().flatten().copied().collect();
        assert_eq!(placed.len(), 3);
        assert!(placed.iter().all(|m| subset.contains(m)));
    }

    #[test]
    fn zero_affinity_split_vs_paper_mode() {
        let net = two_cliques();
        // Big enough limit to hold everything.
        let strict = PlaceConfig::default().with_max_part_size(6);
        let p = partition(&net, net.modules(), &strict);
        // The bridge net gives the cliques affinity, so one partition.
        assert_eq!(p.len(), 1);

        let mut paper_mode = strict.clone();
        paper_mode.stop_on_zero_affinity = false;
        let p2 = partition(&net, net.modules(), &paper_mode);
        assert_eq!(p2.len(), 1);
    }
}
