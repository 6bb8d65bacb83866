//! Workload inputs, generated at set-up. Every input is handed to the
//! program as text, the way a user's files arrive.

use netart::diagram::{escher, Diagram};
use netart::geom::{Point, Rotation};
use netart::netlist::format::{self, quinto};
use netart::netlist::Network;
use netart::place::PlaceConfig;
use netart::Generator;
use netart_bench::life_auto_generator;
use netart_workloads::text::{self, TextWorkload};
use netart_workloads::{controller_cluster, life, string_chain};

use crate::pipeline::Job;

/// `network` written out as Appendix A text, with `placed` as an
/// ESCHER placement for the route-only flow.
fn job_from_network(
    name: &str,
    network: &Network,
    placed: Option<Diagram>,
    generator: Generator,
) -> Job {
    let modules = network
        .library()
        .iter()
        .map(|(_, t)| (t.name().to_owned(), quinto::write_module(t)))
        .collect();
    Job {
        text: TextWorkload {
            name: name.to_owned(),
            modules,
            net: format::write_net_list_file(network),
            cal: format::write_call_file(network),
            io: format::write_io_file(network),
        },
        placed: placed.map(|d| escher::write_diagram(name, &d)),
        generator,
    }
}

/// Figure 6.5's input: the figure 6.2 placement with the module
/// nearest the centre moved to the top left, before routing.
fn fig6_5_placement() -> Result<Diagram, String> {
    let base = Generator::new().generate(controller_cluster());
    let (network, mut moved, _) = base.diagram.into_parts();
    let bb = moved
        .bounding_box(&network)
        .ok_or("fig 6.2 left modules unplaced")?;
    let centre = bb.center();
    let victim = network
        .modules()
        .min_by_key(|&m| moved.module_rect(&network, m).center().dist2(centre))
        .ok_or("fig 6.2 network has no modules")?;
    moved.place_module(
        victim,
        Point::new(bb.lower_left().x - 16, bb.upper_right().y + 6),
        Rotation::R0,
    );
    Ok(Diagram::new(network, moved))
}

/// The seven table 6.1 diagrams, in figure order. Figures 6.5 and 6.6
/// arrive as placed ESCHER diagrams and take the route-only flow.
pub fn paper() -> Result<Vec<Job>, String> {
    let cluster = controller_cluster();
    let life_net = life::network();
    let moved = fig6_5_placement()?;
    let moved_net = moved.network().clone();
    let hand = Diagram::new(life_net.clone(), life::hand_placement(&life_net));
    Ok(vec![
        job_from_network(
            "fig6_1",
            &string_chain(6),
            None,
            Generator::new().with_placing(PlaceConfig::strings().with_max_box_size(6)),
        ),
        job_from_network("fig6_2", &cluster, None, Generator::new()),
        job_from_network(
            "fig6_3",
            &cluster,
            None,
            Generator::new().with_placing(PlaceConfig::clusters()),
        ),
        job_from_network(
            "fig6_4",
            &cluster,
            None,
            Generator::new().with_placing(PlaceConfig::strings()),
        ),
        job_from_network("fig6_5", &moved_net, Some(moved), Generator::new()),
        job_from_network("fig6_6", &life_net, Some(hand), Generator::new()),
        job_from_network("fig6_7", &life_net, None, life_auto_generator()),
    ])
}

/// The cell-array ladder: rungs of `rows × cols` cells, in the
/// generator's net order. Any other order triggers salvage cascades
/// that change the routing work by up to 1.7× from order to order, so
/// the ladder does not vary with the seed.
const CELL_RUNGS: [(usize, usize); 3] = [(8, 16), (16, 16), (16, 32)];

pub fn cells() -> Result<Vec<Job>, String> {
    Ok(CELL_RUNGS
        .iter()
        .map(|&(r, c)| Job {
            text: text::cell_array(r, c),
            placed: None,
            generator: Generator::new(),
        })
        .collect())
}
