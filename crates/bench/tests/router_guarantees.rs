//! Differential tests of the line-expansion router's headline
//! guarantee (§5.5.4): *a connection is found whenever one exists*.
//!
//! The oracle is the Lee maze router — complete by construction — run
//! over the same obstacle configurations. Across hundreds of randomized
//! planes:
//!
//! * line expansion and Lee agree on routability,
//! * line expansion never needs more bends than Lee's minimum-length
//!   path uses (it minimises bends),
//! * Hightower never routes something unreachable, but does give up on
//!   reachable mazes (its documented incompleteness),
//! * every produced path is a connected tree through both terminals.

use netart::geom::Dir;
use netart::netlist::NetId;
use netart::route::{hightower, lee, line_expansion};
use netart_bench::{Maze, MazeSpec};

/// The mazes the guarantees are checked on.
const MAZES: MazeSpec =
    MazeSpec { width: 20..36, height: 16..30, modules: 2..7, module_side: 2..8, nets: 0..3 };

fn random_maze(seed: u64) -> Option<Maze> {
    netart_bench::random_maze(&MAZES, seed)
}

fn net() -> NetId {
    NetId::from_index(0)
}

#[test]
fn line_expansion_matches_lee_on_routability() {
    let mut solvable = 0;
    let mut checked = 0;
    for seed in 0..300 {
        let Some(maze) = random_maze(seed) else { continue };
        checked += 1;
        let oracle = lee::route_two_points(
            &maze.map,
            maze.bounds.inflate(-1),
            maze.from,
            maze.to,
            net(),
        );
        let ours = line_expansion::route_two_points(
            &maze.map,
            (maze.from, &Dir::ALL),
            (maze.to, &Dir::ALL),
            net(),
        );
        assert_eq!(
            oracle.is_some(),
            ours.is_some(),
            "seed {seed}: lee={:?} line-expansion={:?} from {} to {}",
            oracle.as_ref().map(|p| p.length()),
            ours.as_ref().map(|p| p.length()),
            maze.from,
            maze.to
        );
        if oracle.is_some() {
            solvable += 1;
        }
    }
    assert!(checked > 200, "maze generation degenerated: {checked}");
    assert!(solvable > 100, "mazes should mostly be solvable: {solvable}");
}

#[test]
fn line_expansion_minimises_bends_lee_minimises_length() {
    // §5.8: line expansion finds minimum-bend paths "in most cases" —
    // zero-length trace hops can merge segments, so a rare maze gets
    // one extra bend. The contract verified here: never shorter than
    // Lee (Lee is length-optimal), hardly ever more bends than Lee's
    // path (and then by at most one), and clearly fewer bends overall.
    let mut solved = 0;
    let mut bend_wins = 0;
    let mut bend_losses = 0;
    let mut total_le_bends = 0u64;
    let mut total_lee_bends = 0u64;
    for seed in 0..300 {
        let Some(maze) = random_maze(seed) else { continue };
        let (Some(lee_path), Some(le_path)) = (
            lee::route_two_points(&maze.map, maze.bounds.inflate(-1), maze.from, maze.to, net()),
            line_expansion::route_two_points(
                &maze.map,
                (maze.from, &Dir::ALL),
                (maze.to, &Dir::ALL),
                net(),
            ),
        ) else {
            continue;
        };
        solved += 1;
        // Lee is length-optimal: nobody beats it on length.
        assert!(
            le_path.length() >= lee_path.length(),
            "seed {seed}: {} < {}",
            le_path.length(),
            lee_path.length()
        );
        total_le_bends += u64::from(le_path.bends());
        total_lee_bends += u64::from(lee_path.bends());
        if le_path.bends() < lee_path.bends() {
            bend_wins += 1;
        } else if le_path.bends() > lee_path.bends() {
            bend_losses += 1;
            assert!(
                le_path.bends() <= lee_path.bends() + 1,
                "seed {seed}: {} vs {}",
                le_path.bends(),
                lee_path.bends()
            );
        }
    }
    assert!(solved > 100, "solved {solved}");
    assert!(
        bend_wins > 3 * bend_losses,
        "wins {bend_wins} losses {bend_losses} solved {solved}"
    );
    assert!(
        bend_losses * 10 <= solved,
        "losses {bend_losses} of {solved}"
    );
    assert!(
        total_le_bends < total_lee_bends,
        "aggregate bends {total_le_bends} !< {total_lee_bends}"
    );
}

#[test]
fn produced_paths_are_sound_trees() {
    for seed in 0..150 {
        let Some(maze) = random_maze(seed) else { continue };
        if let Some(p) = line_expansion::route_two_points(
            &maze.map,
            (maze.from, &Dir::ALL),
            (maze.to, &Dir::ALL),
            net(),
        ) {
            assert!(p.connects(&[maze.from, maze.to]), "seed {seed}");
            assert!(p.is_tree(), "seed {seed}: {:?}", p.segments());
        }
        if let Some(p) = lee::route_two_points(
            &maze.map,
            maze.bounds.inflate(-1),
            maze.from,
            maze.to,
            net(),
        ) {
            assert!(p.connects(&[maze.from, maze.to]), "seed {seed}");
            assert!(p.is_tree(), "seed {seed}");
        }
    }
}

#[test]
fn hightower_is_incomplete_but_sound() {
    let mut reachable = 0;
    let mut ht_solved = 0;
    for seed in 0..200 {
        let Some(maze) = random_maze(seed) else { continue };
        let oracle = lee::route_two_points(
            &maze.map,
            maze.bounds.inflate(-1),
            maze.from,
            maze.to,
            net(),
        )
        .is_some();
        if oracle {
            reachable += 1;
        }
        if let Some(p) =
            hightower::route_two_points(&maze.map, maze.bounds.inflate(-1), maze.from, maze.to)
        {
            ht_solved += 1;
            assert!(p.connects(&[maze.from, maze.to]), "seed {seed}");
            assert!(oracle, "hightower routed an unreachable pair, seed {seed}");
        }
    }
    assert!(ht_solved <= reachable, "{ht_solved} vs {reachable}");
    assert!(ht_solved * 2 > reachable, "hightower should solve easy mazes");
}
