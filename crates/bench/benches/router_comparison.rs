//! The §5.2/§5.4 router class comparison: line expansion versus the
//! Lee maze runner and the Hightower line router on a fixed set of
//! random mazes.
//!
//! Prints completion/bends/length aggregates (the qualitative claims:
//! Lee complete and length-optimal, line expansion complete and
//! bend-frugal, Hightower fast but incomplete), then times each router
//! over the full maze set.

use criterion::{criterion_group, criterion_main, Criterion};

use netart::geom::Dir;
use netart::netlist::NetId;
use netart::route::{hightower, lee, line_expansion};
use netart_bench::{random_maze, Maze, COMPARISON_MAZES};

fn mazes() -> Vec<Maze> {
    (0..200).filter_map(|seed| random_maze(&COMPARISON_MAZES, seed)).collect()
}

fn bench_routers(c: &mut Criterion) {
    let set = mazes();
    let nid = NetId::from_index(0);

    // Print the qualitative comparison first.
    let mut agg = [(0usize, 0u64, 0u64); 3];
    for m in &set {
        let results = [
            line_expansion::route_two_points(&m.map, (m.from, &Dir::ALL), (m.to, &Dir::ALL), nid),
            lee::route_two_points(&m.map, m.bounds.inflate(-1), m.from, m.to, nid),
            hightower::route_two_points(&m.map, m.bounds.inflate(-1), m.from, m.to),
        ];
        for (i, r) in results.iter().enumerate() {
            if let Some(p) = r {
                agg[i].0 += 1;
                agg[i].1 += u64::from(p.bends());
                agg[i].2 += u64::from(p.length());
            }
        }
    }
    for (name, (solved, bends, length)) in
        ["line_expansion", "lee", "hightower"].iter().zip(agg)
    {
        eprintln!(
            "{name}: solved {solved}/{} bends {bends} length {length}",
            set.len()
        );
    }

    let mut g = c.benchmark_group("router_comparison");
    g.sample_size(10);
    g.bench_function("line_expansion", |b| {
        b.iter(|| {
            set.iter()
                .filter_map(|m| {
                    line_expansion::route_two_points(
                        &m.map,
                        (m.from, &Dir::ALL),
                        (m.to, &Dir::ALL),
                        nid,
                    )
                })
                .count()
        })
    });
    g.bench_function("lee", |b| {
        b.iter(|| {
            set.iter()
                .filter_map(|m| {
                    lee::route_two_points(&m.map, m.bounds.inflate(-1), m.from, m.to, nid)
                })
                .count()
        })
    });
    g.bench_function("hightower", |b| {
        b.iter(|| {
            set.iter()
                .filter_map(|m| {
                    hightower::route_two_points(&m.map, m.bounds.inflate(-1), m.from, m.to)
                })
                .count()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_routers);
criterion_main!(benches);
