//! Property-based tests: random well-formed networks survive the
//! Appendix A and Appendix B file formats unchanged.

use proptest::prelude::*;

use netart_netlist::{format, Library, Network, NetworkBuilder, Template, TermType};

/// Strategy for a random template: a legal size and boundary-placed
/// terminals with grid-of-10-compatible coordinates (so quinto
/// round-trips apply too).
fn template_strategy(name: String) -> impl Strategy<Value = Template> {
    (2i32..8, 2i32..8, 1usize..6).prop_map(move |(w, h, terms)| {
        let mut t = Template::new(name.clone(), (w, h)).expect("positive size");
        for i in 0..terms {
            // Walk the boundary deterministically to avoid collisions.
            let perimeter = 2 * (w + h);
            let pos = (i as i32 * perimeter / terms as i32) % perimeter;
            let p = if pos < w {
                (pos, 0)
            } else if pos < w + h {
                (w, pos - w)
            } else if pos < 2 * w + h {
                (2 * w + h - pos, h)
            } else {
                (0, perimeter - pos)
            };
            let ty = match i % 3 {
                0 => TermType::In,
                1 => TermType::Out,
                _ => TermType::InOut,
            };
            // Boundary walks may revisit corners for tiny templates.
            let _ = t.add_terminal(format!("t{i}"), p, ty);
        }
        t
    })
}

#[derive(Debug, Clone)]
struct NetworkPlan {
    template: Template,
    instances: usize,
    nets: Vec<Vec<(usize, usize)>>, // per net: (instance, terminal) pins
    system_terms: usize,
}

fn plan_strategy() -> impl Strategy<Value = NetworkPlan> {
    template_strategy("blk".to_owned())
        .prop_flat_map(|template| {
            let nterms = template.terminal_count().max(1);
            (
                Just(template),
                2usize..8,
                prop::collection::vec(
                    prop::collection::vec((0usize..8, 0usize..nterms), 2..5),
                    0..10,
                ),
                0usize..4,
            )
        })
        .prop_map(|(template, instances, nets, system_terms)| NetworkPlan {
            template,
            instances,
            nets,
            system_terms,
        })
}

fn build(plan: &NetworkPlan) -> Network {
    let mut lib = Library::new();
    let id = lib.add_template(plan.template.clone()).expect("fresh");
    let mut b = NetworkBuilder::new(lib);
    for i in 0..plan.instances {
        b.add_instance(format!("u{i}"), id).expect("unique");
    }
    for s in 0..plan.system_terms {
        b.add_system_terminal(format!("io{s}"), TermType::In).expect("unique");
    }
    let mut made = 0;
    for pins in &plan.nets {
        let name = format!("n{made}");
        // Normalise and deduplicate: connecting the same pin to the same
        // net twice is an idempotent `Ok` and must not be counted twice.
        let mut resolved: Vec<(usize, usize)> = pins
            .iter()
            .map(|&(inst, term)| {
                (
                    inst % plan.instances,
                    term % plan.template.terminal_count().max(1),
                )
            })
            .collect();
        resolved.sort_unstable();
        resolved.dedup();
        let mut attached = 0;
        for (inst, term) in resolved {
            let m = netart_netlist::ModuleId::from_index(inst);
            // Pins may already be taken by earlier nets: only fresh
            // ones attach.
            if b.connect_pin_idx(&name, m, term).is_ok() {
                attached += 1;
            }
        }
        if attached >= 2 {
            made += 1;
        } else if attached == 1 {
            // Complete an underfilled net through a system terminal or
            // by bailing out: simplest is a fresh system terminal.
            let st = b
                .add_system_terminal(format!("fill{made}"), TermType::InOut)
                .expect("unique");
            b.connect(&name, st).expect("fresh terminal");
            made += 1;
        }
    }
    if made == 0 {
        // Guarantee at least one valid net so `finish` succeeds.
        let m = netart_netlist::ModuleId::from_index(0);
        let t0 = 0;
        if b.connect_pin_idx("seed", m, t0).is_ok() {
            let st = b.add_system_terminal("seed_io", TermType::InOut).expect("unique");
            b.connect("seed", st).expect("fresh");
        }
    }
    b.finish().expect("plan is made well-formed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Appendix A write→parse is the identity on network structure.
    #[test]
    fn appendix_a_round_trip(plan in plan_strategy()) {
        let net = build(&plan);
        let calls = format::write_call_file(&net);
        let io = format::write_io_file(&net);
        let nets = format::write_net_list_file(&net);
        let mut lib = Library::new();
        lib.add_template(plan.template.clone()).expect("fresh");
        let back = format::parse_network(lib, &nets, &calls, Some(&io)).expect("round trip");
        prop_assert_eq!(back.module_count(), net.module_count());
        prop_assert_eq!(back.net_count(), net.net_count());
        prop_assert_eq!(back.system_term_count(), net.system_term_count());
        for n in net.nets() {
            let name = net.net(n).name();
            let bn = back.net_by_name(name).expect("net survives");
            prop_assert_eq!(back.net(bn).pins().len(), net.net(n).pins().len());
            // Connectivity counting agrees.
            let a: Vec<_> = net.net_modules(n).iter().map(|m| m.index()).collect();
            let b: Vec<_> = back.net_modules(bn).iter().map(|m| m.index()).collect();
            prop_assert_eq!(a, b);
        }
        // By-name lookups invert the id → name maps on both networks,
        // and names that were never added resolve to nothing.
        for n in [&net, &back] {
            for m in n.modules() {
                prop_assert_eq!(n.module_by_name(n.instance(m).name()), Some(m));
            }
            for id in n.nets() {
                prop_assert_eq!(n.net_by_name(n.net(id).name()), Some(id));
            }
            for st in n.system_terms() {
                prop_assert_eq!(n.system_term_by_name(n.system_term(st).name()), Some(st));
            }
            prop_assert_eq!(n.module_by_name("no such name"), None);
            prop_assert_eq!(n.net_by_name("no such name"), None);
            prop_assert_eq!(n.system_term_by_name("no such name"), None);
        }
    }

    /// quinto write→parse is the identity on templates.
    #[test]
    fn quinto_round_trip(t in template_strategy("any".to_owned())) {
        let text = format::quinto::write_module(&t);
        let back = format::quinto::parse_module(&text).expect("parses own output");
        prop_assert_eq!(back, t);
    }

    /// Connection counting is symmetric and bounded by the number of
    /// nets.
    #[test]
    fn connection_count_properties(plan in plan_strategy()) {
        let net = build(&plan);
        let modules: Vec<_> = net.modules().collect();
        for &a in modules.iter().take(4) {
            for &b in modules.iter().take(4) {
                if a == b {
                    continue;
                }
                let ab = net.connection_count(a, b);
                prop_assert_eq!(ab, net.connection_count(b, a));
                prop_assert!(ab <= net.net_count());
            }
        }
    }
}
