//! Workload generators reconstructing the evaluation networks of
//! Koster & Stok (1989), §6.
//!
//! The paper's own input files were never published, so these builders
//! recreate networks with the documented structure and exact sizes:
//!
//! * [`string_chain`] — the module string of figure 6.1 (6 modules,
//!   6 nets),
//! * [`controller_cluster`] — the 16-module / 24-net network behind
//!   figures 6.2–6.5: a central controller with functional groups,
//! * [`life::network`] — the game-of-LIFE circuit of figures 6.6/6.7
//!   (27 modules, 222 nets) together with its natural hand placement,
//! * [`random_network`] — seeded random netlists for property tests
//!   and scaling sweeps.
//!
//! All builders are deterministic: the same parameters (and seed)
//! always produce identical networks.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod life;
mod random;
pub mod text;

pub use random::{random_network, RandomSpec};

use netart_netlist::{Library, ModuleId, Network, NetworkBuilder, Template, TermType};

/// The library used by the small workloads: a buffer, a processing
/// element with two inputs/two outputs, and a wide controller.
fn base_library() -> Library {
    let mut lib = Library::new();
    lib.add_template(
        Template::new("buf", (4, 2))
            .expect("static template")
            .with_terminal("a", (0, 1), TermType::In)
            .expect("static template")
            .with_terminal("y", (4, 1), TermType::Out)
            .expect("static template"),
    )
    .expect("fresh library");
    lib.add_template(
        Template::new("pe", (5, 4))
            .expect("static template")
            .with_terminal("a", (0, 1), TermType::In)
            .expect("static template")
            .with_terminal("b", (0, 3), TermType::In)
            .expect("static template")
            .with_terminal("x", (5, 1), TermType::Out)
            .expect("static template")
            .with_terminal("y", (5, 3), TermType::Out)
            .expect("static template"),
    )
    .expect("fresh library");
    let mut ctrl = Template::new("ctrl", (6, 16)).expect("static template");
    for i in 0..8 {
        ctrl.add_terminal(format!("o{i}"), (6, 2 * i + 1), TermType::Out)
            .expect("static template");
        ctrl.add_terminal(format!("i{i}"), (0, 2 * i + 1), TermType::In)
            .expect("static template");
    }
    lib.add_template(ctrl).expect("fresh library");
    lib
}

/// The figure 6.1 workload: a chain of `n` buffers ending in a system
/// output. With `n = 6` the network has the paper's 6 modules and
/// 6 nets (`n - 1` chain nets plus the output net); the head buffer's
/// input is the string's source and stays unconnected.
///
/// # Examples
///
/// ```
/// let net = netart_workloads::string_chain(6);
/// assert_eq!(net.module_count(), 6);
/// assert_eq!(net.net_count(), 6);
/// ```
pub fn string_chain(n: usize) -> Network {
    assert!(n >= 1, "a chain needs at least one module");
    let lib = base_library();
    let buf = lib.template_by_name("buf").expect("base library");
    let mut b = NetworkBuilder::new(lib);
    let ms: Vec<ModuleId> = (0..n)
        .map(|i| b.add_instance(format!("u{i}"), buf).expect("unique names"))
        .collect();
    let output = b
        .add_system_terminal("out", TermType::Out)
        .expect("unique names");
    for w in ms.windows(2) {
        let name = format!("n{}", w[0].index());
        b.connect_pin(&name, w[0], "y").expect("buf has y");
        b.connect_pin(&name, w[1], "a").expect("buf has a");
    }
    b.connect("n_out", output).expect("fresh net");
    b.connect_pin("n_out", ms[n - 1], "y").expect("buf has y");
    b.finish().expect("chain is well-formed")
}

/// The figures 6.2–6.5 workload: 16 modules and 24 nets. A controller
/// in the centre drives three functional groups of five processing
/// elements each; each group is internally chained, giving the paper's
/// "distinct partitions containing a typical clustering structure"
/// around the controller.
///
/// # Examples
///
/// ```
/// let net = netart_workloads::controller_cluster();
/// assert_eq!(net.module_count(), 16);
/// assert_eq!(net.net_count(), 24);
/// ```
pub fn controller_cluster() -> Network {
    let lib = base_library();
    let pe = lib.template_by_name("pe").expect("base library");
    let ctrl_t = lib.template_by_name("ctrl").expect("base library");
    let mut b = NetworkBuilder::new(lib);

    let ctrl = b.add_instance("ctrl", ctrl_t).expect("unique names");
    let mut groups: Vec<Vec<ModuleId>> = Vec::new();
    for g in 0..3 {
        let ms: Vec<ModuleId> = (0..5)
            .map(|i| {
                b.add_instance(format!("g{g}_pe{i}"), pe)
                    .expect("unique names")
            })
            .collect();
        groups.push(ms);
    }

    // Intra-group chains: 4 nets per group (12 total) through the
    // x -> a ports, plus a dense extra link y -> b between the first
    // pair (3 more), expressing strong internal cohesion: 15 nets.
    for (g, ms) in groups.iter().enumerate() {
        for (i, w) in ms.windows(2).enumerate() {
            let name = format!("g{g}_c{i}");
            b.connect_pin(&name, w[0], "x").expect("pe has x");
            b.connect_pin(&name, w[1], "a").expect("pe has a");
        }
        let name = format!("g{g}_d0");
        b.connect_pin(&name, ms[0], "y").expect("pe has y");
        b.connect_pin(&name, ms[1], "b").expect("pe has b");
    }

    // Controller fan-out: 2 command nets into each group (6) and one
    // status net back from each group (3): 9 nets. 15 + 9 = 24.
    for (g, ms) in groups.iter().enumerate() {
        let cmd0 = format!("cmd{g}a");
        b.connect_pin(&cmd0, ctrl, &format!("o{}", 2 * g)).expect("ctrl port");
        b.connect_pin(&cmd0, ms[2], "b").expect("pe has b");
        let cmd1 = format!("cmd{g}b");
        b.connect_pin(&cmd1, ctrl, &format!("o{}", 2 * g + 1)).expect("ctrl port");
        b.connect_pin(&cmd1, ms[3], "b").expect("pe has b");
        let status = format!("st{g}");
        b.connect_pin(&status, ms[4], "y").expect("pe has y");
        b.connect_pin(&status, ctrl, &format!("i{g}")).expect("ctrl port");
    }

    b.finish().expect("cluster is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_chain_sizes() {
        let net = string_chain(6);
        assert_eq!(net.module_count(), 6);
        assert_eq!(net.net_count(), 6);
        assert_eq!(net.system_term_count(), 1);
    }

    #[test]
    fn string_chain_is_a_driver_chain() {
        let net = string_chain(5);
        let ms: Vec<ModuleId> = net.modules().collect();
        for w in ms.windows(2) {
            assert!(net.drives(w[0], w[1]).is_some());
            assert!(net.drives(w[1], w[0]).is_none());
        }
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_chain_rejected() {
        let _ = string_chain(0);
    }

    #[test]
    fn controller_cluster_sizes_match_paper() {
        let net = controller_cluster();
        assert_eq!(net.module_count(), 16, "figure 6.2: 16 modules");
        assert_eq!(net.net_count(), 24, "table 6.1: 24 nets");
    }

    #[test]
    fn controller_touches_every_group() {
        let net = controller_cluster();
        let ctrl = net.module_by_name("ctrl").unwrap();
        for g in 0..3 {
            let any_link = (0..5).any(|i| {
                let m = net.module_by_name(&format!("g{g}_pe{i}")).unwrap();
                net.connection_count(ctrl, m) > 0
            });
            assert!(any_link, "group {g} unreachable from controller");
        }
    }

    #[test]
    fn groups_are_denser_inside_than_to_controller() {
        let net = controller_cluster();
        for g in 0..3 {
            let ms: Vec<ModuleId> = (0..5)
                .map(|i| net.module_by_name(&format!("g{g}_pe{i}")).unwrap())
                .collect();
            let internal: usize = (0..5)
                .flat_map(|i| ((i + 1)..5).map(move |j| (i, j)))
                .map(|(i, j)| net.connection_count(ms[i], ms[j]))
                .sum();
            let ctrl = net.module_by_name("ctrl").unwrap();
            let external: usize = ms.iter().map(|&m| net.connection_count(m, ctrl)).sum();
            assert!(internal > external, "group {g}: {internal} vs {external}");
        }
    }

    #[test]
    fn deterministic() {
        let a = controller_cluster();
        let b = controller_cluster();
        assert_eq!(a.net_count(), b.net_count());
        for n in a.nets() {
            assert_eq!(a.net(n).name(), b.net(n).name());
            assert_eq!(a.net(n).pins(), b.net(n).pins());
        }
    }
}
