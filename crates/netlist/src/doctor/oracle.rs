//! The doctor as it resolved names before [`NetworkBuilder`] became
//! its only name table: passes 4 and 5 keep their own tables keyed by
//! name ([`NamedPin`]), and a replay loop then feeds the result to the
//! builder. Kept verbatim as the reference the builder-backed path is
//! compared against; see `tests::builder_resolution_matches_the_name_tables`.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use netart_govern::MemBudget;

use super::{
    exact_fields, find_driver_cycle, resolve_policy, resource_exhausted, term_type, Diagnostic,
    DoctorCode, DoctorError, DoctorFile, DoctorReport, InputPolicy, NetRecord,
};
use crate::ingest::Record;
use crate::{BuildError, Library, Network, NetworkBuilder, Template, TermType};

/// A resolved connection point, keyed by name so conflicts can be
/// detected before ids exist.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum NamedPin {
    Sub(String, String),
    System(String),
}

/// Every pass of [`super::doctor_network_records`], with names
/// resolved against the doctor's own tables and then replayed into the
/// builder.
pub(super) fn doctor_by_name(
    library: Library,
    net_records: Vec<Record>,
    call_records: Vec<Record>,
    io_records: Option<Vec<Record>>,
    policy: InputPolicy,
    network_budget: &Arc<MemBudget>,
) -> Result<(Network, DoctorReport), DoctorError> {
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut library = library;

    // Pass 1: call file. Keep the first of duplicate instances; note
    // which templates are missing so stubs can be synthesized.
    let mut instances: Vec<(String, String)> = Vec::new(); // (instance, template)
    let mut instance_tpl: HashMap<&str, String> = HashMap::new();
    let mut unknown_templates: Vec<(String, usize)> = Vec::new(); // (template, first line)
    for r in &call_records {
        let line = r.line;
        let Some([instance, template]) = exact_fields(r, DoctorFile::Calls, "call-file", &mut diags)
        else {
            continue;
        };
        if instance == "root" {
            diags.push(
                Diagnostic::error(
                    DoctorCode::MalformedRecord,
                    DoctorFile::Calls,
                    line,
                    "instance name `root` is reserved for system terminals",
                )
                .with_repair("dropped the record"),
            );
            continue;
        }
        if let Some(existing) = instance_tpl.get(instance) {
            diags.push(
                Diagnostic::error(
                    DoctorCode::DuplicateInstance,
                    DoctorFile::Calls,
                    line,
                    format!(
                        "duplicate instance `{instance}` (already declared as `{existing}`, \
                         now also as `{template}`)"
                    ),
                )
                .with_repair("kept the first declaration"),
            );
            continue;
        }
        if library.template_by_name(template).is_none()
            && !unknown_templates.iter().any(|(t, _)| t == template)
        {
            unknown_templates.push((template.to_owned(), line));
        }
        instance_tpl.insert(instance, template.to_owned());
        instances.push((instance.to_owned(), template.to_owned()));
    }

    // Pass 2: io file. Keep the first of duplicate system terminals.
    let mut system_terms: Vec<(String, TermType)> = Vec::new();
    let mut system_names: HashSet<String> = HashSet::new();
    if let Some(io) = &io_records {
        for r in io {
            let line = r.line;
            let Some([terminal, ty]) = exact_fields(r, DoctorFile::Io, "io-file", &mut diags) else {
                continue;
            };
            let Some(ty) = term_type(ty, DoctorFile::Io, line, &mut diags) else {
                continue;
            };
            if !system_names.insert(terminal.to_owned()) {
                diags.push(
                    Diagnostic::error(
                        DoctorCode::DuplicateSystemTerminal,
                        DoctorFile::Io,
                        line,
                        format!("duplicate system terminal `{terminal}`"),
                    )
                    .with_repair("kept the first declaration"),
                );
                continue;
            }
            system_terms.push((terminal.to_owned(), ty));
        }
    }

    // Pass 3: net-list records, field-count check only for now.
    let net_rows: Vec<NetRecord> = net_records
        .iter()
        .filter_map(|r| {
            let [net, instance, terminal] =
                exact_fields(r, DoctorFile::NetList, "net-list", &mut diags)?;
            Some(NetRecord {
                line: r.line,
                net,
                instance,
                terminal,
            })
        })
        .collect();

    // Synthesize a stub for each missing template, giving it exactly
    // the terminals the net-list references (all inout, stacked on the
    // left edge) so every connection to it can resolve.
    for (template, first_line) in &unknown_templates {
        let mut referenced: Vec<&str> = net_rows
            .iter()
            .filter(|r| {
                r.instance != "root"
                    && instance_tpl.get(r.instance).map(String::as_str) == Some(template.as_str())
            })
            .map(|r| r.terminal)
            .collect();
        referenced.sort_unstable();
        referenced.dedup();
        diags.push(
            Diagnostic::error(
                DoctorCode::UnknownTemplate,
                DoctorFile::Calls,
                *first_line,
                format!("unknown template `{template}`"),
            )
            .with_repair(format!(
                "synthesized a stub with {} inout terminal(s)",
                referenced.len()
            )),
        );
        let height = (2 * referenced.len() as i32).max(2);
        let stub = Template::new(template.clone(), (4, height)).and_then(|mut stub| {
            for (i, name) in referenced.iter().enumerate() {
                stub.add_terminal(*name, (0, 2 * i as i32 + 1), TermType::InOut)?;
            }
            Ok(stub)
        });
        let added = match stub {
            Ok(stub) => library.add_template(stub).map(drop).map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        };
        // Unreachable: the size is positive, the terminals are distinct
        // names on distinct left-edge points, and the library lacks the
        // name. Keep the defect visible rather than panicking.
        if let Err(e) = added {
            diags.push(Diagnostic::error(
                DoctorCode::MalformedRecord,
                DoctorFile::Calls,
                *first_line,
                format!("stub synthesis failed: {e}"),
            ));
        }
    }

    // Pass 4: resolve every net-list record against the (now complete)
    // instance/terminal universe. First writer wins on pin conflicts.
    let instance_names: HashSet<&str> = instances.iter().map(|(n, _)| n.as_str()).collect();
    let mut pin_owner: HashMap<NamedPin, String> = HashMap::new();
    let mut net_pins: Vec<(String, Vec<(NamedPin, usize)>)> = Vec::new(); // (net, [(pin, line)])
    let mut net_index: HashMap<String, usize> = HashMap::new();
    for r in &net_rows {
        let pin = if r.instance == "root" {
            if !system_names.contains(r.terminal) {
                diags.push(
                    Diagnostic::error(
                        DoctorCode::UnknownTerminal,
                        DoctorFile::NetList,
                        r.line,
                        format!("unknown system terminal `{}`", r.terminal),
                    )
                    .with_repair("dropped the record"),
                );
                continue;
            }
            NamedPin::System(r.terminal.to_owned())
        } else {
            if !instance_names.contains(r.instance) {
                diags.push(
                    Diagnostic::error(
                        DoctorCode::UnknownInstance,
                        DoctorFile::NetList,
                        r.line,
                        format!("unknown instance `{}`", r.instance),
                    )
                    .with_repair("dropped the record"),
                );
                continue;
            }
            let template = &instance_tpl[r.instance];
            let known = library
                .template_by_name(template)
                .map(|id| library.template(id))
                .is_some_and(|t| t.terminal_index(r.terminal).is_some());
            if !known {
                diags.push(
                    Diagnostic::error(
                        DoctorCode::UnknownTerminal,
                        DoctorFile::NetList,
                        r.line,
                        format!(
                            "instance `{}` ({}) has no terminal `{}`",
                            r.instance, template, r.terminal
                        ),
                    )
                    .with_repair("dropped the record"),
                );
                continue;
            }
            NamedPin::Sub(r.instance.to_owned(), r.terminal.to_owned())
        };
        match pin_owner.get(&pin) {
            Some(owner) if owner == r.net => continue, // idempotent re-connection
            Some(owner) => {
                let pin_name = match &pin {
                    NamedPin::Sub(i, t) => format!("{i}.{t}"),
                    NamedPin::System(s) => s.clone(),
                };
                diags.push(
                    Diagnostic::error(
                        DoctorCode::PinConflict,
                        DoctorFile::NetList,
                        r.line,
                        format!(
                            "pin {pin_name} already on net `{owner}`, also claimed by `{}`",
                            r.net
                        ),
                    )
                    .with_repair("kept the first connection"),
                );
                continue;
            }
            None => {}
        }
        pin_owner.insert(pin.clone(), r.net.to_owned());
        let idx = *net_index.entry(r.net.to_owned()).or_insert_with(|| {
            net_pins.push((r.net.to_owned(), Vec::new()));
            net_pins.len() - 1
        });
        net_pins[idx].1.push((pin, r.line));
    }

    // Pass 5: drop nets that ended up with fewer than two pins.
    net_pins.retain(|(net, pins)| {
        if pins.len() >= 2 {
            return true;
        }
        let line = pins.first().map_or(0, |(_, l)| *l);
        diags.push(
            Diagnostic::error(
                DoctorCode::DanglingNet,
                DoctorFile::NetList,
                line,
                format!("net `{net}` connects only {} point(s)", pins.len()),
            )
            .with_repair("dropped the net"),
        );
        false
    });

    let diags = resolve_policy(policy, diags)?;

    // Build the validated network. Every defect was diagnosed and
    // resolved above, so the only legitimate builder rejection left is
    // the memory governor refusing a growth — that one surfaces as
    // `ND015` under every policy.
    let mut b = NetworkBuilder::new(library).with_budget(Arc::clone(network_budget));
    let fatal = |e: String| DoctorError {
        diagnostics: vec![Diagnostic::error(
            DoctorCode::MalformedRecord,
            DoctorFile::NetList,
            0,
            format!("internal doctor error: {e}"),
        )],
    };
    let build_err = |e: BuildError| match e {
        BuildError::ResourceExhausted(x) => resource_exhausted(DoctorFile::NetList, &x),
        other => fatal(other.to_string()),
    };
    for (name, template) in &instances {
        let id = b
            .library()
            .template_by_name(template)
            .ok_or_else(|| fatal(format!("template `{template}` vanished")))?;
        b.add_instance(name, id).map_err(build_err)?;
    }
    for (name, ty) in &system_terms {
        b.add_system_terminal(name, *ty).map_err(build_err)?;
    }
    for (net, pins) in &net_pins {
        for (pin, _) in pins {
            match pin {
                NamedPin::Sub(instance, terminal) => {
                    let m = b
                        .instance_by_name(instance)
                        .ok_or_else(|| fatal(format!("instance `{instance}` vanished")))?;
                    b.connect_pin(net, m, terminal).map_err(build_err)?;
                }
                NamedPin::System(name) => {
                    let st = b
                        .system_term_by_name(name)
                        .ok_or_else(|| fatal(format!("system terminal `{name}` vanished")))?;
                    b.connect(net, st).map_err(build_err)?;
                }
            }
        }
    }
    let network = b.finish().map_err(build_err)?;

    let mut diags = diags;
    if let Some(cycle) = find_driver_cycle(&network) {
        diags.push(Diagnostic::warning(
            DoctorCode::CyclicDrivers,
            DoctorFile::NetList,
            0,
            format!("module outputs form a driver cycle: {cycle}"),
        ));
    }

    Ok((network, DoctorReport::resolve(diags)))
}

mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::ingest::records_from_str;
    use crate::{Pin, Template};

    fn lib() -> Library {
        let mut lib = Library::new();
        lib.add_template(
            Template::new("inv", (4, 2))
                .unwrap()
                .with_terminal("a", (0, 1), TermType::In)
                .unwrap()
                .with_terminal("y", (4, 1), TermType::Out)
                .unwrap(),
        )
        .unwrap();
        lib.add_template(
            Template::new("buf", (4, 4))
                .unwrap()
                .with_terminal("a", (0, 1), TermType::In)
                .unwrap()
                .with_terminal("b", (0, 3), TermType::InOut)
                .unwrap()
                .with_terminal("y", (4, 2), TermType::Out)
                .unwrap(),
        )
        .unwrap();
        lib
    }

    /// One record of `fields` names, with every fifth record given a
    /// field too many or too few (`ND013`).
    fn record(fields: Vec<&'static str>, shape: u8) -> String {
        match shape {
            0 => fields[..fields.len() - 1].join(" "),
            1 => format!("{} extra", fields.join(" ")),
            _ => fields.join(" "),
        }
    }

    /// Random Appendix A text over small name pools, so that duplicate
    /// instances and terminals, `root` records, unknown instances,
    /// templates and terminals, pin conflicts, idempotent repeats and
    /// dangling nets all occur often.
    fn appendix_a() -> impl Strategy<Value = (String, String, Option<String>)> {
        let pick = |names: &[&'static str]| prop::sample::select(names.to_vec());
        let call = (
            pick(&["u0", "u1", "u2", "u3", "g0", "g1", "root"]),
            pick(&["inv", "buf", "ghost", "phantom"]),
            0u8..10,
        )
            .prop_map(|(i, t, shape)| record(vec![i, t], shape));
        let io = (
            pick(&["a", "b", "c"]),
            pick(&["in", "out", "inout", "sideways"]),
            0u8..10,
        )
            .prop_map(|(s, ty, shape)| record(vec![s, ty], shape));
        let net = (
            pick(&["n0", "n1", "n2", "n3", "n4"]),
            pick(&["u0", "u1", "u2", "u3", "g0", "g1", "root", "zz"]),
            pick(&["a", "b", "c", "y", "p", "q", "zz"]),
            0u8..10,
        )
            .prop_map(|(n, i, t, shape)| record(vec![n, i, t], shape));
        let lines = |s: BoxedStrategy<String>, max: usize| {
            prop::collection::vec(s, 0..max).prop_map(|v| v.join("\n"))
        };
        (
            lines(net.boxed(), 24),
            lines(call.boxed(), 8),
            lines(io.boxed(), 5),
            any::<bool>(),
        )
            .prop_map(|(nets, calls, io, has_io)| (nets, calls, has_io.then_some(io)))
    }

    type Shape = (
        Vec<Template>,
        Vec<(String, crate::TemplateId, Option<crate::ModuleId>)>,
        Vec<(String, TermType, Option<crate::SystemTermId>)>,
        Vec<(String, Vec<Pin>, Option<crate::NetId>)>,
    );

    /// Everything a network holds, by id: templates (stubs included),
    /// instances, system terminals, and nets with their pins in order,
    /// each with what a lookup of its name returns.
    fn shape(n: &Network) -> Shape {
        (
            n.library().iter().map(|(_, t)| t.clone()).collect(),
            n.modules()
                .map(|m| {
                    let name = n.instance(m).name();
                    (name.to_owned(), n.instance(m).template(), n.module_by_name(name))
                })
                .collect(),
            n.system_terms()
                .map(|st| {
                    let name = n.system_term(st).name();
                    (name.to_owned(), n.system_term(st).ty(), n.system_term_by_name(name))
                })
                .collect(),
            n.nets()
                .map(|id| {
                    let name = n.net(id).name();
                    (name.to_owned(), n.net(id).pins().to_vec(), n.net_by_name(name))
                })
                .collect(),
        )
    }

    type Doctor = fn(
        Library,
        Vec<Record>,
        Vec<Record>,
        Option<Vec<Record>>,
        InputPolicy,
        &Arc<MemBudget>,
    ) -> Result<(Network, DoctorReport), DoctorError>;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The builder-backed doctor and the name-table doctor agree on
        /// every input and policy: the verdict, every diagnostic in
        /// order, the network down to ids and pin order, and the bytes
        /// left charged on the network budget.
        #[test]
        fn builder_resolution_matches_the_name_tables(input in appendix_a()) {
            let (nets, calls, io) = input;
            for policy in [InputPolicy::Strict, InputPolicy::Repair, InputPolicy::BestEffort] {
                let run = |doctor: Doctor| {
                    let budget = Arc::new(MemBudget::unlimited());
                    let out = doctor(
                        lib(),
                        records_from_str(&nets),
                        records_from_str(&calls),
                        io.as_deref().map(records_from_str),
                        policy,
                        &budget,
                    );
                    (out, budget.used())
                };
                let (new, new_used) = run(super::super::doctor_network_records);
                let (old, old_used) = run(doctor_by_name);
                match (new, old) {
                    (Ok((new_net, new_report)), Ok((old_net, old_report))) => {
                        prop_assert_eq!(&new_report.diagnostics, &old_report.diagnostics, "{}", policy);
                        prop_assert_eq!(new_report.repairs_applied, old_report.repairs_applied);
                        prop_assert_eq!(shape(&new_net), shape(&old_net), "{}", policy);
                        prop_assert_eq!(new_used, old_used, "{}: bytes left charged", policy);
                    }
                    (Err(new_err), Err(old_err)) => {
                        prop_assert_eq!(&new_err.diagnostics, &old_err.diagnostics, "{}", policy);
                    }
                    (new, old) => prop_assert!(
                        false,
                        "{}: verdicts differ: new {:?}, old {:?}",
                        policy,
                        new.map(|(_, r)| r.diagnostics),
                        old.map(|(_, r)| r.diagnostics)
                    ),
                }
            }
        }
    }

    /// The cases the property above runs cover every defect class it
    /// is meant to compare, and both verdicts.
    #[test]
    fn generated_inputs_cover_every_defect_class() {
        let mut rng = TestRng::from_name(concat!(
            module_path!(),
            "::builder_resolution_matches_the_name_tables"
        ));
        let strategy = appendix_a();
        let (mut codes, mut repeats, mut accepted, mut rejected) = (HashSet::new(), 0, 0, 0);
        for _ in 0..512 {
            let (nets, calls, io) = strategy.generate(&mut rng);
            let lines: Vec<&str> = nets.lines().collect();
            repeats += usize::from((1..lines.len()).any(|i| lines[..i].contains(&lines[i])));
            let budget = Arc::new(MemBudget::unlimited());
            let records = |s: &str| records_from_str(s);
            match super::super::doctor_network_records(
                lib(),
                records(&nets),
                records(&calls),
                io.as_deref().map(records),
                InputPolicy::Repair,
                &budget,
            ) {
                Ok((_, report)) => {
                    accepted += 1;
                    codes.extend(report.diagnostics.iter().map(|d| d.code.as_str()));
                }
                Err(e) => {
                    rejected += 1;
                    codes.extend(e.diagnostics.iter().map(|d| d.code.as_str()));
                }
            }
        }
        for code in [
            "ND001", "ND002", "ND003", "ND004", "ND005", "ND006", "ND007", "ND013",
        ] {
            assert!(codes.contains(code), "{code} never generated: {codes:?}");
        }
        assert!(repeats > 50, "{repeats} inputs repeat a net-list record");
        assert!(
            accepted > 50 && rejected > 50,
            "{accepted} accepted, {rejected} rejected"
        );
    }
}
