//! Regenerates every table and figure of the paper's evaluation (§6)
//! plus the ablations, printing paper-versus-measured numbers. The
//! output of this binary is the source of `EXPERIMENTS.md`.
//!
//! ```sh
//! cargo run -p netart-bench --bin repro_report --release
//! ```

use std::time::Instant;

use netart::geom::{Dir, Point, Rect};
use netart::netlist::NetId;
use netart::route::{hightower, lee, line_expansion, NetOrder, ObstacleKind, ObstacleMap, RouteConfig};
use netart::Generator;
use netart_bench::{
    fig6_1, fig6_2, fig6_3, fig6_4, fig6_5, fig6_6, fig6_7, random_maze, render_table,
    COMPARISON_MAZES,
};
use netart_workloads::{life, random_network, RandomSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    println!("netart reproduction report — Koster & Stok 1989, section 6");
    println!("===========================================================\n");

    table_6_1();
    figure_structures();
    claimpoint_ablation();
    net_order_ablation();
    router_comparison();
    channel_comparison();
    scaling();
}

fn table_6_1() {
    println!("Table 6.1 — timing figures");
    println!("--------------------------");
    println!("paper (HP9000s500, 1989):");
    println!("  fig 6.1:  6 modules,   6 nets, place 0:03, route 0:03");
    println!("  fig 6.2: 16 modules,  24 nets, place 0:06, route 0:10");
    println!("  fig 6.3: 16 modules,  24 nets, place 0:06, route 0:11");
    println!("  fig 6.4: 16 modules,  24 nets, place 0:04, route 0:09");
    println!("  fig 6.5: 16 modules,  24 nets, place    -, route 0:12");
    println!("  fig 6.6: 27 modules, 222 nets, place    -, route 1:32  (220/222 routed)");
    println!("  fig 6.7: 27 modules, 222 nets, place 0:27, route 11:36 (221/222 routed)");
    println!("\nmeasured:");
    let rows = netart_bench::table_6_1();
    println!("{}", render_table(&rows));
    match netart_bench::write_bench_json("table_6_1", &netart_bench::rows_json(&rows)) {
        Ok(path) => println!("per-phase timing breakdown written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write BENCH_table_6_1.json: {e}"),
    }
    let hand = rows.iter().find(|r| r.label == "fig 6.6").expect("row");
    let auto = rows.iter().find(|r| r.label == "fig 6.7").expect("row");
    println!(
        "shape: routing the automatic LIFE placement is {:.1}x slower than the hand placement \
         (paper: 7.6x); placement itself stays negligible on both.\n",
        auto.route_time.as_secs_f64() / hand.route_time.as_secs_f64()
    );
}

fn figure_structures() {
    println!("Figures 6.1-6.7 — diagram structure");
    println!("-----------------------------------");
    for (label, (_, d)) in [
        ("fig 6.1", fig6_1()),
        ("fig 6.2", fig6_2()),
        ("fig 6.3", fig6_3()),
        ("fig 6.4", fig6_4()),
    ] {
        let s = d.placement().structure().expect("pablo structure");
        println!(
            "{label}: {} partitions, {} boxes, longest string {}, {} | check: {}",
            s.partition_count(),
            s.box_count(),
            s.longest_string(),
            d.metrics(),
            if d.check().is_ok() { "ok" } else { "VIOLATIONS" },
        );
    }
    for (label, (_, d)) in [("fig 6.5", fig6_5()), ("fig 6.6", fig6_6()), ("fig 6.7", fig6_7())] {
        println!(
            "{label}: {} | check: {}",
            d.metrics(),
            if d.check().is_ok() { "ok" } else { "VIOLATIONS" },
        );
    }
    println!();
}

fn claimpoint_ablation() {
    println!("§5.7 — claimpoint ablation (paper: ~75% fewer unroutable nets)");
    println!("---------------------------------------------------------------");
    let mut with_fail = 0usize;
    let mut without_fail = 0usize;
    let mut total = 0usize;
    // Dense random networks where terminal blocking actually bites.
    for seed in 0..12 {
        let spec = RandomSpec::new(14, 24).with_seed(seed).with_max_fanout(4);
        for (claims, acc) in [(true, &mut with_fail), (false, &mut without_fail)] {
            let mut route = RouteConfig::new().with_margin(3).without_retry();
            route.claimpoints = claims;
            let g = Generator::new()
                .with_placing(netart::place::PlaceConfig::strings())
                .with_routing(route);
            let out = g.generate(random_network(&spec));
            *acc += out.report.failed.len();
        }
        total += random_network(&spec).net_count();
    }
    // The LIFE hand placement, the paper's own §5.7 context.
    for (claims, acc) in [(true, &mut with_fail), (false, &mut without_fail)] {
        let network = life::network();
        total += network.net_count();
        let mut route = RouteConfig::new().without_retry();
        route.claimpoints = claims;
        let out = Generator::new()
            .with_routing(route)
            .route_only(network.clone(), life::hand_placement(&network))
            .expect("hand placement is complete");
        *acc += out.report.failed.len();
    }
    let reduction = if without_fail > 0 {
        100.0 * (without_fail as f64 - with_fail as f64) / without_fail as f64
    } else {
        0.0
    };
    println!(
        "over {total} nets: {without_fail} unroutable without claims, {with_fail} with claims \
         -> {reduction:.0}% reduction (retry pass disabled to isolate the mechanism)\n"
    );
}

fn net_order_ablation() {
    println!("§7 — net ordering ablation (future-work criterion)");
    println!("--------------------------------------------------");
    for order in [NetOrder::Definition, NetOrder::MostPinsFirst, NetOrder::FewestPinsFirst] {
        let network = life::network();
        let hand = life::hand_placement(&network);
        let t = Instant::now();
        let out = Generator::new()
            .with_routing(RouteConfig::new().with_order(order))
            .route_only(network, hand)
            .expect("hand placement is complete");
        println!(
            "  {order:?}: routed {}/222 in {:.3}s",
            out.report.routed.len(),
            t.elapsed().as_secs_f64()
        );
    }
    println!();
}

fn router_comparison() {
    println!("§5.2/§5.4 — router class comparison on 500 random mazes");
    println!("-------------------------------------------------------");
    let nid = NetId::from_index(0);
    let mut stats = [(0usize, 0u64, 0u64, 0f64); 3]; // solved, bends, length, time
    let mut attempted = 0;
    for seed in 0..500 {
        let Some(maze) = random_maze(&COMPARISON_MAZES, seed) else { continue };
        attempted += 1;
        let runs: [Box<dyn Fn() -> Option<netart::NetPath>>; 3] = [
            Box::new(|| {
                line_expansion::route_two_points(
                    &maze.map,
                    (maze.from, &Dir::ALL),
                    (maze.to, &Dir::ALL),
                    nid,
                )
            }),
            Box::new(|| {
                lee::route_two_points(&maze.map, maze.bounds.inflate(-1), maze.from, maze.to, nid)
            }),
            Box::new(|| {
                hightower::route_two_points(&maze.map, maze.bounds.inflate(-1), maze.from, maze.to)
            }),
        ];
        for (i, run) in runs.iter().enumerate() {
            let t = Instant::now();
            let path = run();
            stats[i].3 += t.elapsed().as_secs_f64();
            if let Some(p) = path {
                stats[i].0 += 1;
                stats[i].1 += u64::from(p.bends());
                stats[i].2 += u64::from(p.length());
            }
        }
    }
    for (name, (solved, bends, length, time)) in
        ["line-expansion", "lee", "hightower"].iter().zip(stats)
    {
        println!(
            "  {name:<15} solved {solved:>3}/{attempted}  total bends {bends:>5}  total length {length:>6}  time {time:>7.3}s",
        );
    }
    println!(
        "shape: line expansion and Lee solve identical sets (guaranteed solution); \
         line expansion has the fewest bends, Lee the shortest wire, Hightower misses mazes.\n"
    );
}

fn channel_comparison() {
    println!("§5.2.4 — channel router on its home turf");
    println!("----------------------------------------");
    use netart::route::channel::{route_channel, ChannelPin};
    let mut rng = StdRng::seed_from_u64(11);
    let height = 14;
    let width = 120;
    let trials = 50;
    let mut le_time = 0.0f64;
    let mut ch_time = 0.0f64;
    let mut le_failed = 0usize;
    let mut total = 0usize;
    let mut tracks_used = 0usize;
    for _ in 0..trials {
        // A channel problem: 12 two-pin nets, one pin on each edge.
        let mut cols: Vec<i32> = (1..width).collect();
        let mut pins = Vec::new();
        for net in 0..12 {
            for top in [false, true] {
                let i = rng.gen_range(0..cols.len());
                pins.push(ChannelPin { column: cols.remove(i), net, top });
            }
        }
        total += 12;

        let t = Instant::now();
        let (_, tracks) = route_channel(&pins, height);
        ch_time += t.elapsed().as_secs_f64();
        tracks_used += tracks;

        // The general router solves the same problem net by net.
        let t = Instant::now();
        let mut map = ObstacleMap::new();
        map.add_rect(
            &Rect::new(Point::new(0, -1), width, height + 2),
            ObstacleKind::Module,
        );
        for net in 0..12 {
            let mine: Vec<&ChannelPin> = pins.iter().filter(|p| p.net == net).collect();
            let from = Point::new(mine[0].column, if mine[0].top { height } else { 0 });
            let to = Point::new(mine[1].column, if mine[1].top { height } else { 0 });
            let nid = NetId::from_index(net);
            match line_expansion::route_two_points(
                &map,
                (from, &[if mine[0].top { Dir::Down } else { Dir::Up }]),
                (to, &[if mine[1].top { Dir::Down } else { Dir::Up }]),
                nid,
            ) {
                Some(path) => {
                    for seg in path.segments() {
                        map.add(*seg, ObstacleKind::Net(nid));
                    }
                }
                None => le_failed += 1,
            }
        }
        le_time += t.elapsed().as_secs_f64();
    }
    println!(
        "  left-edge:      {total}/{total} routed in {ch_time:.4}s, mean {:.1} tracks (density-optimal)",
        tracks_used as f64 / trials as f64
    );
    println!(
        "  line-expansion: {}/{total} routed in {le_time:.4}s",
        total - le_failed
    );
    println!(
        "shape: on a predefined channel the special-purpose router is ~{:.0}x faster — and
         useless anywhere else, which is why §5.4 rejects it for the free-form diagram plane.
",
        le_time / ch_time.max(1e-9)
    );
}

fn scaling() {
    println!("§5.8 — routing cost growth with design size (complexity note)");
    println!("-------------------------------------------------------------");
    for (modules, nets) in [(8, 12), (16, 24), (24, 40), (32, 56), (48, 80)] {
        let spec = RandomSpec::new(modules, nets).with_seed(7).with_max_fanout(3);
        let network = random_network(&spec);
        let realised = network.net_count();
        let g = netart_bench::life_auto_generator();
        let out = g.generate(network);
        println!(
            "  {modules:>3} modules {realised:>3} nets: place {:>9.6}s route {:>9.6}s routed {}/{}",
            out.place_time.as_secs_f64(),
            out.route_time.as_secs_f64(),
            out.report.routed.len(),
            realised,
        );
    }
    println!();
}
