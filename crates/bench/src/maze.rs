//! Seeded random two-point routing mazes for the router comparisons of
//! §5.2/§5.4 and the router guarantee tests.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use netart_geom::{Point, Rect, Segment};
use netart_netlist::NetId;
use netart_route::{ObstacleKind, ObstacleMap};

/// The ranges a maze's sizes are drawn from, each uniformly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MazeSpec {
    /// The plane's width.
    pub width: Range<i32>,
    /// The plane's height.
    pub height: Range<i32>,
    /// How many module boxes are drawn; boxes may overlap.
    pub modules: Range<i32>,
    /// Each side of a module box.
    pub module_side: Range<i32>,
    /// How many foreign nets are drawn; a net drawn onto a track that
    /// already holds one is dropped.
    pub nets: Range<usize>,
}

/// One maze: a bordered plane with module boxes and foreign nets, and
/// two distinct terminal points clear of every obstacle.
#[derive(Debug, Clone)]
pub struct Maze {
    /// The obstacles: the plane border, the boxes and the nets.
    pub map: ObstacleMap,
    /// The plane.
    pub bounds: Rect,
    /// The first terminal.
    pub from: Point,
    /// The second terminal.
    pub to: Point,
}

/// The maze of `seed` under `spec`, or `None` when no two distinct clear
/// terminal points were found. The same spec and seed always give the
/// same maze.
///
/// # Examples
///
/// ```
/// use netart_bench::{random_maze, MazeSpec};
///
/// let spec = MazeSpec {
///     width: 20..36,
///     height: 16..30,
///     modules: 2..7,
///     module_side: 2..8,
///     nets: 0..3,
/// };
/// let maze = random_maze(&spec, 1).expect("seed 1 has clear terminals");
/// assert!(maze.bounds.contains_strictly(maze.from) && maze.from != maze.to);
/// ```
pub fn random_maze(spec: &MazeSpec, seed: u64) -> Option<Maze> {
    let mut rng = StdRng::seed_from_u64(seed);
    let w = rng.gen_range(spec.width.clone());
    let h = rng.gen_range(spec.height.clone());
    let bounds = Rect::new(Point::new(0, 0), w, h);
    let mut map = ObstacleMap::new();
    map.add_rect(&bounds, ObstacleKind::Module);
    let mut rects = Vec::new();
    for _ in 0..rng.gen_range(spec.modules.clone()) {
        let rw = rng.gen_range(spec.module_side.clone());
        let rh = rng.gen_range(spec.module_side.clone());
        let x = rng.gen_range(1..(w - rw).max(2));
        let y = rng.gen_range(1..(h - rh).max(2));
        let r = Rect::new(Point::new(x, y), rw, rh);
        map.add_rect(&r, ObstacleKind::Module);
        rects.push(r);
    }
    // Foreign nets to cross: their interiors are legal crossings, their
    // endpoints block. Distinct tracks: two nets may never overlap
    // collinearly in a legal diagram.
    let mut used_tracks = Vec::new();
    for n in 0..rng.gen_range(spec.nets.clone()) {
        let track = rng.gen_range(2..h - 2);
        if used_tracks.contains(&track) {
            continue;
        }
        used_tracks.push(track);
        let lo = rng.gen_range(1..w / 2);
        let hi = rng.gen_range(w / 2..w - 1);
        map.add(
            Segment::horizontal(track, lo, hi),
            ObstacleKind::Net(NetId::from_index(100 + n)),
        );
    }
    // Terminals must be clear of every obstacle, so that every router
    // starts from identical conditions.
    let clear = |p: Point, map: &ObstacleMap| {
        bounds.contains_strictly(p)
            && !rects.iter().any(|r| r.contains(p))
            && !map.point_matches(p, |_| true)
    };
    let mut pick = |map: &ObstacleMap| {
        for _ in 0..200 {
            let p = Point::new(rng.gen_range(1..w), rng.gen_range(1..h));
            if clear(p, map) {
                return Some(p);
            }
        }
        None
    };
    let from = pick(&map)?;
    let to = pick(&map)?;
    (from != to).then_some(Maze { map, bounds, from, to })
}
