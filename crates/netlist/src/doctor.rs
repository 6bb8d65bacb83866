//! The netlist doctor: semantic validation and auto-repair between
//! parse and placement.
//!
//! Real-world netlist inputs are noisy — dangling nets, duplicate
//! records, references to templates that never made it into the
//! library, terminals drawn off the module outline. The doctor is the
//! one reader of the Appendix A/B files ([`crate::format`] only writes
//! them): it scans the *whole* input, collects every defect as a
//! [`Diagnostic`] with a stable code (`ND001`…), and then resolves
//! them under an [`InputPolicy`]:
//!
//! * [`InputPolicy::Strict`] — any error-severity diagnostic rejects
//!   the input, reporting **all** diagnostics at once (not just the
//!   first).
//! * [`InputPolicy::Repair`] — documented fixes are applied (drop
//!   degenerate nets, keep the first of duplicate records, synthesize
//!   stub templates, snap coordinates to grid/boundary); a defect with
//!   no documented fix still rejects the input.
//! * [`InputPolicy::BestEffort`] — as `Repair`, but unrepairable
//!   records are skipped and the run keeps going.
//!
//! Every applied repair is reported in the [`DoctorReport`] so callers
//! can surface them as degradations in the machine-readable run
//! report.
//!
//! [`NetworkBuilder`] is the one name table for instances, system
//! terminals, nets and pins: once stub templates exist, the doctor adds
//! every instance and system terminal to the builder, and each net-list
//! record resolves and attaches through it. Because the network grows
//! while names resolve, a memory budget too small for the network
//! rejects the input with `ND015` before the policy is applied, so
//! `ND015` takes precedence over every other diagnostic.
//!
//! # Examples
//!
//! ```
//! use netart_netlist::doctor::{doctor_network, DoctorCode, InputPolicy};
//! use netart_netlist::{Library, Template, TermType};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut lib = Library::new();
//! lib.add_template(Template::new("inv", (4, 2))?
//!     .with_terminal("a", (0, 1), TermType::In)?
//!     .with_terminal("y", (4, 1), TermType::Out)?)?;
//! // `lonely` connects a single pin: strict rejects, repair drops it.
//! let nets = "n0 u0 y\nn0 u1 a\nlonely u0 a\n";
//! let calls = "u0 inv\nu1 inv\n";
//! assert!(doctor_network(lib.clone(), nets, calls, None, InputPolicy::Strict).is_err());
//! let (network, report) =
//!     doctor_network(lib, nets, calls, None, InputPolicy::Repair)?;
//! assert_eq!(network.net_count(), 1);
//! assert_eq!(report.diagnostics[0].code, DoctorCode::DanglingNet);
//! # Ok(())
//! # }
//! ```

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use netart_govern::{Exhausted, MemBudget};

use crate::ingest::{records_from_str, Record};
use crate::{BuildError, Library, Network, NetworkBuilder, Template, TermType};

/// How the pipeline treats defective input, end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InputPolicy {
    /// Reject defective input, reporting every diagnostic at once.
    #[default]
    Strict,
    /// Apply documented repairs; reject only defects with no repair.
    Repair,
    /// Apply repairs and skip past unrepairable records.
    BestEffort,
}

impl InputPolicy {
    /// The command-line spelling of the policy.
    pub fn as_str(self) -> &'static str {
        match self {
            InputPolicy::Strict => "strict",
            InputPolicy::Repair => "repair",
            InputPolicy::BestEffort => "best-effort",
        }
    }
}

impl fmt::Display for InputPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for InputPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "strict" => Ok(InputPolicy::Strict),
            "repair" => Ok(InputPolicy::Repair),
            "best-effort" => Ok(InputPolicy::BestEffort),
            other => Err(format!(
                "unknown input policy `{other}` (expected strict, repair or best-effort)"
            )),
        }
    }
}

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Suspicious but valid; never rejects the input.
    Warning,
    /// A defect; rejects the input under [`InputPolicy::Strict`].
    Error,
}

/// The stable diagnostic catalogue. Codes are part of the CLI
/// contract: scripts match on them, so variants are append-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DoctorCode {
    /// `ND000` — a failure induced by the fault-injection harness.
    /// Only ever produced in builds with the `fault-injection` feature.
    InjectedFault,
    /// `ND001` — a net connecting fewer than two pins.
    DanglingNet,
    /// `ND002` — two call-file records declare the same instance name.
    DuplicateInstance,
    /// `ND003` — two io-file records declare the same terminal name.
    DuplicateSystemTerminal,
    /// `ND004` — a call-file record names a template the library does
    /// not have.
    UnknownTemplate,
    /// `ND005` — a net-list record names an undeclared instance.
    UnknownInstance,
    /// `ND006` — a net-list record names a terminal its instance (or
    /// the system interface) does not have.
    UnknownTerminal,
    /// `ND007` — the same pin is claimed by two different nets.
    PinConflict,
    /// `ND008` — a quinto coordinate is not divisible by 10.
    OffGridCoordinate,
    /// `ND009` — a quinto terminal does not lie on the module outline.
    TerminalOffBoundary,
    /// `ND010` — a quinto terminal duplicates a name or position.
    DuplicateTerminal,
    /// `ND011` — module outputs drive each other in a cycle
    /// (combinational loop); legal but worth flagging.
    CyclicDrivers,
    /// `ND012` — two seed placements overlap.
    OverlappingSeeds,
    /// `ND013` — a record that cannot be understood at all, or a
    /// call-file record declaring an instance named `root`, the name
    /// the net-list reserves for system terminals.
    MalformedRecord,
    /// `ND014` — two library modules share a name.
    DuplicateTemplate,
    /// `ND015` — the memory governor refused a growth during
    /// ingestion; the message names the exhausted stage and byte
    /// counts. Never downgraded: an exhausted budget cannot be
    /// repaired or skipped, so the input is rejected under **every**
    /// policy (the CLI surfaces it as a degraded run, not a crash).
    ResourceExhausted,
}

impl DoctorCode {
    /// The stable code string (`ND001`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            DoctorCode::InjectedFault => "ND000",
            DoctorCode::DanglingNet => "ND001",
            DoctorCode::DuplicateInstance => "ND002",
            DoctorCode::DuplicateSystemTerminal => "ND003",
            DoctorCode::UnknownTemplate => "ND004",
            DoctorCode::UnknownInstance => "ND005",
            DoctorCode::UnknownTerminal => "ND006",
            DoctorCode::PinConflict => "ND007",
            DoctorCode::OffGridCoordinate => "ND008",
            DoctorCode::TerminalOffBoundary => "ND009",
            DoctorCode::DuplicateTerminal => "ND010",
            DoctorCode::CyclicDrivers => "ND011",
            DoctorCode::OverlappingSeeds => "ND012",
            DoctorCode::MalformedRecord => "ND013",
            DoctorCode::DuplicateTemplate => "ND014",
            DoctorCode::ResourceExhausted => "ND015",
        }
    }
}

impl fmt::Display for DoctorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which input a diagnostic points into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DoctorFile {
    /// The Appendix A net-list file.
    NetList,
    /// The Appendix A call file.
    Calls,
    /// The Appendix A io file.
    Io,
    /// A quinto module description.
    Module,
    /// A seed placement diagram.
    Seed,
}

impl DoctorFile {
    fn tag(self) -> &'static str {
        match self {
            DoctorFile::NetList => "net",
            DoctorFile::Calls => "call",
            DoctorFile::Io => "io",
            DoctorFile::Module => "module",
            DoctorFile::Seed => "seed",
        }
    }
}

/// One defect (or suspicion) found by the doctor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Catalogue code.
    pub code: DoctorCode,
    /// Whether the defect rejects strict input.
    pub severity: Severity,
    /// The input the defect was found in.
    pub file: DoctorFile,
    /// 1-based line number (0 when not tied to a line).
    pub line: usize,
    /// What is wrong.
    pub message: String,
    /// The documented fix, when the doctor has one. Present means the
    /// fix *was applied* whenever the doctor returns `Ok` under
    /// [`InputPolicy::Repair`] or [`InputPolicy::BestEffort`].
    pub repair: Option<String>,
}

impl Diagnostic {
    /// An error-severity diagnostic with no repair.
    pub fn error(
        code: DoctorCode,
        file: DoctorFile,
        line: usize,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            file,
            line,
            message: message.into(),
            repair: None,
        }
    }

    /// A warning-severity diagnostic.
    pub fn warning(
        code: DoctorCode,
        file: DoctorFile,
        line: usize,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, file, line, message)
        }
    }

    /// Attaches the documented fix, consuming and returning `self`.
    pub fn with_repair(mut self, repair: impl Into<String>) -> Self {
        self.repair = Some(repair.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "{} [{}:{}] {}", self.code, self.file.tag(), self.line, self.message)?;
        } else {
            write!(f, "{} [{}] {}", self.code, self.file.tag(), self.message)?;
        }
        if let Some(repair) = &self.repair {
            write!(f, " (repair: {repair})")?;
        }
        Ok(())
    }
}

/// What the doctor found and did on an input it accepted.
#[derive(Debug, Clone, Default)]
pub struct DoctorReport {
    /// Everything found, in scan order.
    pub diagnostics: Vec<Diagnostic>,
    /// How many of the diagnostics had their repair applied.
    pub repairs_applied: usize,
}

impl DoctorReport {
    fn resolve(diagnostics: Vec<Diagnostic>) -> Self {
        // One warning event per applied repair, so repairs show up in
        // diagnostic streams and trace files alongside the phases they
        // precede.
        for d in diagnostics.iter().filter(|d| d.repair.is_some()) {
            tracing::warn!(
                "doctor repair applied",
                code = d.code.as_str(),
                file = d.file.tag(),
                line = d.line as u64,
            );
        }
        let repairs_applied = diagnostics.iter().filter(|d| d.repair.is_some()).count();
        DoctorReport {
            diagnostics,
            repairs_applied,
        }
    }
}

/// Rejection of an input, carrying **every** diagnostic found — not
/// just the one that sealed the verdict.
#[derive(Debug, Clone)]
pub struct DoctorError {
    /// Everything found, in scan order.
    pub diagnostics: Vec<Diagnostic>,
}

impl fmt::Display for DoctorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let errors = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        writeln!(f, "input rejected with {errors} error(s):")?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

impl Error for DoctorError {}

/// Decides `Ok`/`Err` once all diagnostics are in.
fn resolve_policy(
    policy: InputPolicy,
    diagnostics: Vec<Diagnostic>,
) -> Result<Vec<Diagnostic>, DoctorError> {
    let reject = match policy {
        InputPolicy::Strict => diagnostics.iter().any(|d| d.severity == Severity::Error),
        InputPolicy::Repair => diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error && d.repair.is_none()),
        InputPolicy::BestEffort => false,
    };
    if reject {
        Err(DoctorError { diagnostics })
    } else {
        Ok(diagnostics)
    }
}

/// Wraps a governor refusal as the `ND015` rejection: one
/// error-severity diagnostic carrying the exhausted stage and exact
/// byte counts. Public so the CLI can report read-stage exhaustion
/// (which happens before the doctor runs) in the same shape.
pub fn resource_exhausted(file: DoctorFile, e: &Exhausted) -> DoctorError {
    DoctorError {
        diagnostics: vec![Diagnostic::error(
            DoctorCode::ResourceExhausted,
            file,
            0,
            e.to_string(),
        )],
    }
}

fn injected_fault(file: DoctorFile, kind: &str) -> DoctorError {
    DoctorError {
        diagnostics: vec![Diagnostic::error(
            DoctorCode::InjectedFault,
            file,
            0,
            format!("injected `{kind}` fault"),
        )],
    }
}

/// A net-list record that survived the field-count check.
struct NetRecord<'a> {
    line: usize,
    net: &'a str,
    instance: &'a str,
    terminal: &'a str,
}

/// Runs the doctor over the three Appendix A files.
///
/// It scans everything, diagnoses every defect, and — depending on
/// `policy` — repairs or rejects. `io_file` may be omitted when the
/// network has no system terminals, exactly as in the paper's `pablo`
/// command line. On success the returned network is always
/// structurally valid (placement and routing can take it as-is) and
/// the report lists what was found and fixed.
///
/// # Errors
///
/// Returns a [`DoctorError`] carrying all diagnostics when the policy
/// rejects the input (see [`InputPolicy`]).
pub fn doctor_network(
    library: Library,
    net_list_file: &str,
    call_file: &str,
    io_file: Option<&str>,
    policy: InputPolicy,
) -> Result<(Network, DoctorReport), DoctorError> {
    doctor_network_records(
        library,
        records_from_str(net_list_file),
        records_from_str(call_file),
        io_file.map(records_from_str),
        policy,
        &Arc::new(MemBudget::unlimited()),
    )
}

/// The record-level core of [`doctor_network`], fed by the streaming
/// reader ([`crate::ingest::read_records`]) so no whole-file string
/// ever exists. Network construction is governed by `network_budget`:
/// a refused growth rejects the input with an `ND015` diagnostic
/// carrying the exhausted stage and byte counts, under **every**
/// policy and in place of all other diagnostics. The bytes left
/// charged on an accepted input are those of the returned network.
///
/// # Errors
///
/// As [`doctor_network`], plus the `ND015` rejection on budget
/// exhaustion.
pub fn doctor_network_records(
    library: Library,
    net_records: Vec<Record>,
    call_records: Vec<Record>,
    io_records: Option<Vec<Record>>,
    policy: InputPolicy,
    network_budget: &Arc<MemBudget>,
) -> Result<(Network, DoctorReport), DoctorError> {
    let doctor_span = tracing::span!(tracing::Level::DEBUG, "doctor.network");
    let _doctor_guard = doctor_span.enter();
    if let Some(kind) = netart_fault::fire(netart_fault::sites::PARSE_NETWORK) {
        return Err(injected_fault(DoctorFile::NetList, kind.as_str()));
    }

    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut library = library;

    // Pass 1: call file. Keep the first of duplicate instances; note
    // which templates are missing so stubs can be synthesized.
    let mut instances: Vec<(&str, &str)> = Vec::new(); // (instance, template)
    let mut instance_tpl: HashMap<&str, &str> = HashMap::new();
    // Each missing template's first line, and the terminals the
    // net-list references on it.
    let mut stubs: HashMap<&str, (usize, Vec<&str>)> = HashMap::new();
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
        if library.template_by_name(template).is_none() {
            stubs.entry(template).or_insert((line, Vec::new()));
        }
        instance_tpl.insert(instance, template);
        instances.push((instance, template));
    }

    // Pass 2: io file. Keep the first of duplicate system terminals.
    let mut system_terms: Vec<(&str, TermType)> = Vec::new();
    let mut system_names: HashSet<&str> = HashSet::new();
    if let Some(io) = &io_records {
        for r in io {
            let line = r.line;
            let Some([terminal, ty]) = exact_fields(r, DoctorFile::Io, "io-file", &mut diags) else {
                continue;
            };
            let Some(ty) = term_type(ty, DoctorFile::Io, line, &mut diags) else {
                continue;
            };
            if !system_names.insert(terminal) {
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
            system_terms.push((terminal, ty));
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
    for r in &net_rows {
        if let Some((_, terms)) = instance_tpl.get(r.instance).and_then(|t| stubs.get_mut(t)) {
            terms.push(r.terminal);
        }
    }
    let mut stubs: Vec<_> = stubs.into_iter().collect();
    stubs.sort_unstable_by_key(|&(_, (first_line, _))| first_line);
    for (template, (first_line, mut referenced)) in stubs {
        referenced.sort_unstable();
        referenced.dedup();
        diags.push(
            Diagnostic::error(
                DoctorCode::UnknownTemplate,
                DoctorFile::Calls,
                first_line,
                format!("unknown template `{template}`"),
            )
            .with_repair(format!(
                "synthesized a stub with {} inout terminal(s)",
                referenced.len()
            )),
        );
        let height = (2 * referenced.len() as i32).max(2);
        let stub = Template::new(template, (4, height)).and_then(|mut stub| {
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
                first_line,
                format!("stub synthesis failed: {e}"),
            ));
        }
    }

    // From here on the builder is the one name table: every instance
    // and system terminal goes in, and every net-list record resolves
    // and attaches through it. Each growth is governed, so a refusal
    // rejects the input with `ND015` at once, under every policy.
    let mut b = NetworkBuilder::new(library).with_budget(Arc::clone(network_budget));
    for (name, template) in instances {
        // A stub that failed to synthesize is diagnosed above; its
        // instances stay undeclared.
        let Some(id) = b.library().template_by_name(template) else {
            continue;
        };
        b.add_instance(name, id).map_err(build_error)?;
    }
    for (name, ty) in system_terms {
        b.add_system_terminal(name, ty).map_err(build_error)?;
    }

    // Pass 4: resolve and attach every net-list record. First writer
    // wins on pin conflicts; re-connecting a pin to its own net is
    // silently idempotent.
    let mut first_line: Vec<usize> = Vec::new(); // of each net's first pin
    for r in &net_rows {
        let attached = if r.instance == "root" {
            let Some(st) = b.system_term_by_name(r.terminal) else {
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
            };
            b.connect(r.net, st)
        } else {
            let Some(m) = b.instance_by_name(r.instance) else {
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
            };
            b.connect_pin(r.net, m, r.terminal)
        };
        match attached {
            Ok(()) if first_line.len() < b.net_count() => first_line.push(r.line),
            Ok(()) => {}
            Err(e) => {
                let (code, repair) = match e {
                    BuildError::UnknownTerminal { .. } => {
                        (DoctorCode::UnknownTerminal, "dropped the record")
                    }
                    BuildError::PinReconnected { .. } => {
                        (DoctorCode::PinConflict, "kept the first connection")
                    }
                    _ => return Err(build_error(e)),
                };
                diags.push(
                    Diagnostic::error(code, DoctorFile::NetList, r.line, e.to_string())
                        .with_repair(repair),
                );
            }
        }
    }

    // Pass 5: drop nets that ended up with fewer than two pins.
    for (id, net) in b.drop_underfilled_nets() {
        diags.push(
            Diagnostic::error(
                DoctorCode::DanglingNet,
                DoctorFile::NetList,
                first_line[id.index()],
                format!("net `{}` connects only {} point(s)", net.name(), net.pins().len()),
            )
            .with_repair("dropped the net"),
        );
    }

    let mut diags = resolve_policy(policy, diags)?;
    let network = b.finish().map_err(build_error)?;
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

/// A builder refusal. The doctor's own checks leave the memory
/// governor as the only legitimate one, which is `ND015`; anything
/// else is an internal defect, reported rather than panicking.
fn build_error(e: BuildError) -> DoctorError {
    match e {
        BuildError::ResourceExhausted(x) => resource_exhausted(DoctorFile::NetList, &x),
        other => DoctorError {
            diagnostics: vec![Diagnostic::error(
                DoctorCode::MalformedRecord,
                DoctorFile::NetList,
                0,
                format!("internal doctor error: {other}"),
            )],
        },
    }
}

/// The fields of a record with exactly `N` of them; any other count
/// is an `ND013` diagnostic naming the kind of record.
fn exact_fields<'r, const N: usize>(
    r: &'r Record,
    file: DoctorFile,
    kind: &str,
    diags: &mut Vec<Diagnostic>,
) -> Option<[&'r str; N]> {
    let Ok(fields) = <&[String; N]>::try_from(r.fields.as_slice()) else {
        diags.push(Diagnostic::error(
            DoctorCode::MalformedRecord,
            file,
            r.line,
            format!("{kind} record needs {N} fields, got {}", r.fields.len()),
        ));
        return None;
    };
    Some(fields.each_ref().map(String::as_str))
}

/// A terminal type field; an unknown type is an `ND013` diagnostic.
fn term_type(
    field: &str,
    file: DoctorFile,
    line: usize,
    diags: &mut Vec<Diagnostic>,
) -> Option<TermType> {
    let ty = field.parse().ok();
    if ty.is_none() {
        diags.push(Diagnostic::error(
            DoctorCode::MalformedRecord,
            file,
            line,
            format!("unknown terminal type `{field}`"),
        ));
    }
    ty
}

/// Looks for a cycle along pure `out` → `in`/`inout` driver edges.
/// Inout-to-inout connections are ignored: with them, every
/// bidirectional bus would count as a cycle.
fn find_driver_cycle(network: &Network) -> Option<String> {
    let n = network.module_count();
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for net in network.nets() {
        let pins = network.net(net).pins();
        for a in pins {
            let crate::Pin::Sub { module: from, term } = *a else {
                continue;
            };
            if network.template_of(from).terminals()[term].ty() != TermType::Out {
                continue;
            }
            for b in pins {
                let crate::Pin::Sub { module: to, term } = *b else {
                    continue;
                };
                if to != from
                    && network.template_of(to).terminals()[term].ty().accepts_input()
                    && !succ[from.index()].contains(&to.index())
                {
                    succ[from.index()].push(to.index());
                }
            }
        }
    }

    // Iterative colored DFS; on a back edge, walk the stack to print
    // the cycle.
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; n];
    for root in 0..n {
        if color[root] != WHITE {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        color[root] = GRAY;
        while let Some(&mut (m, ref mut next)) = stack.last_mut() {
            if *next < succ[m].len() {
                let s = succ[m][*next];
                *next += 1;
                match color[s] {
                    WHITE => {
                        color[s] = GRAY;
                        stack.push((s, 0));
                    }
                    GRAY => {
                        let start = stack.iter().position(|&(v, _)| v == s).unwrap_or(0);
                        let mut names: Vec<&str> = stack[start..]
                            .iter()
                            .map(|&(v, _)| {
                                network.instance(crate::ModuleId::from_index(v)).name()
                            })
                            .collect();
                        names.push(names[0]);
                        return Some(names.join(" -> "));
                    }
                    _ => {}
                }
            } else {
                color[m] = BLACK;
                stack.pop();
            }
        }
    }
    None
}

/// Runs the doctor over one quinto module description, scaling every
/// size and coordinate down to the track grid (÷10).
///
/// Off-grid coordinates are snapped to the nearest multiple of 10,
/// off-boundary terminals are snapped to the nearest outline point,
/// and duplicate terminal names/positions keep the first record —
/// each under the usual policy rules.
///
/// # Errors
///
/// Returns a [`DoctorError`] carrying all diagnostics when the policy
/// rejects the description.
pub fn doctor_module(
    src: &str,
    policy: InputPolicy,
) -> Result<(Template, DoctorReport), DoctorError> {
    doctor_module_records(records_from_str(src), policy)
}

/// The record-level core of [`doctor_module`], fed by the streaming
/// reader ([`crate::ingest::read_records`]) so no whole-file string
/// ever exists.
///
/// # Errors
///
/// As [`doctor_module`].
pub fn doctor_module_records(
    module_records: Vec<Record>,
    policy: InputPolicy,
) -> Result<(Template, DoctorReport), DoctorError> {
    let doctor_span = tracing::span!(tracing::Level::DEBUG, "doctor.module");
    let _doctor_guard = doctor_span.enter();
    if let Some(kind) = netart_fault::fire(netart_fault::sites::PARSE_MODULE) {
        return Err(injected_fault(DoctorFile::Module, kind.as_str()));
    }

    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut lines = module_records.into_iter();

    // The heading is load-bearing: without a usable name and size,
    // nothing else can be interpreted, so defects here are
    // unrepairable.
    let unusable = |diags: Vec<Diagnostic>| DoctorError { diagnostics: diags };
    let Some(heading) = lines.next() else {
        diags.push(Diagnostic::error(
            DoctorCode::MalformedRecord,
            DoctorFile::Module,
            0,
            "empty module description",
        ));
        return Err(unusable(diags));
    };
    let hline = heading.line;
    let fields: Vec<&str> = heading.fields.iter().map(String::as_str).collect();
    let ["module", name, w, h] = fields[..] else {
        diags.push(Diagnostic::error(
            DoctorCode::MalformedRecord,
            DoctorFile::Module,
            hline,
            "heading must be `module <NAME> <WIDTH> <HEIGHT>`",
        ));
        return Err(unusable(diags));
    };
    let grid = |field: &str, what: &str, line: usize, diags: &mut Vec<Diagnostic>| {
        let v: i32 = match field.parse() {
            Ok(v) => v,
            Err(_) => {
                diags.push(Diagnostic::error(
                    DoctorCode::MalformedRecord,
                    DoctorFile::Module,
                    line,
                    format!("{what} `{field}` is not an integer"),
                ));
                return None;
            }
        };
        if v % 10 == 0 {
            return Some(v / 10);
        }
        // Round half away from zero, in grid units so nothing
        // overflows; the clamp keeps `10 * snapped` an i32.
        let snapped = (v / 10 + (v % 10) / 5).clamp(i32::MIN / 10, i32::MAX / 10);
        let snapped = if what.ends_with("coordinate") {
            snapped
        } else {
            snapped.max(1) // a size snapped to 0 would be degenerate
        };
        diags.push(
            Diagnostic::error(
                DoctorCode::OffGridCoordinate,
                DoctorFile::Module,
                line,
                format!("{what} {v} is not divisible by 10"),
            )
            .with_repair(format!("snapped to {}", snapped * 10)),
        );
        Some(snapped)
    };

    let (Some(width), Some(height)) = (
        grid(w, "width", hline, &mut diags),
        grid(h, "height", hline, &mut diags),
    ) else {
        return Err(unusable(diags));
    };
    let mut template = match Template::new(name, (width, height)) {
        Ok(t) => t,
        Err(e) => {
            diags.push(Diagnostic::error(
                DoctorCode::MalformedRecord,
                DoctorFile::Module,
                hline,
                e.to_string(),
            ));
            return Err(unusable(diags));
        }
    };

    for rec in lines {
        let line = rec.line;
        let Some([ty, term, x, y]) = exact_fields(&rec, DoctorFile::Module, "terminal", &mut diags)
        else {
            continue;
        };
        let Some(ty) = term_type(ty, DoctorFile::Module, line, &mut diags) else {
            continue;
        };
        let (Some(mut x), Some(mut y)) = (
            grid(x, "x-coordinate", line, &mut diags),
            grid(y, "y-coordinate", line, &mut diags),
        ) else {
            continue;
        };
        if !on_outline(width, height, x, y) {
            let (sx, sy) = snap_to_outline(width, height, x, y);
            diags.push(
                Diagnostic::error(
                    DoctorCode::TerminalOffBoundary,
                    DoctorFile::Module,
                    line,
                    format!(
                        "terminal `{term}` at ({}, {}) is not on the module outline",
                        x * 10,
                        y * 10
                    ),
                )
                .with_repair(format!("moved to ({}, {})", sx * 10, sy * 10)),
            );
            (x, y) = (sx, sy);
        }
        let dup_name = template.terminal_index(term).is_some();
        let dup_pos = template
            .terminals()
            .iter()
            .any(|t| (t.offset().x, t.offset().y) == (x, y));
        if dup_name || dup_pos {
            let what = if dup_name { "name" } else { "position" };
            diags.push(
                Diagnostic::error(
                    DoctorCode::DuplicateTerminal,
                    DoctorFile::Module,
                    line,
                    format!(
                        "terminal `{term}` at ({}, {}) duplicates an earlier terminal's {what}",
                        x * 10,
                        y * 10
                    ),
                )
                .with_repair("dropped the record"),
            );
            continue;
        }
        if let Err(e) = template.add_terminal(term, (x, y), ty) {
            diags.push(Diagnostic::error(
                DoctorCode::MalformedRecord,
                DoctorFile::Module,
                line,
                e.to_string(),
            ));
        }
    }

    let diags = resolve_policy(policy, diags)?;
    Ok((template, DoctorReport::resolve(diags)))
}

fn on_outline(w: i32, h: i32, x: i32, y: i32) -> bool {
    (0..=w).contains(&x) && (0..=h).contains(&y) && (x == 0 || x == w || y == 0 || y == h)
}

/// The nearest outline point by Manhattan distance: project onto each
/// of the four edges (clamping the free coordinate) and take the best.
fn snap_to_outline(w: i32, h: i32, x: i32, y: i32) -> (i32, i32) {
    let xc = x.clamp(0, w);
    let yc = y.clamp(0, h);
    let candidates = [(0, yc), (w, yc), (xc, 0), (xc, h)];
    let mut best = candidates[0];
    let mut best_d = i32::MAX;
    for (cx, cy) in candidates {
        let d = (cx - x).abs() + (cy - y).abs();
        if d < best_d {
            best_d = d;
            best = (cx, cy);
        }
    }
    best
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Template;

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
        lib
    }

    const GOOD_NETS: &str = "n0 u0 y\nn0 u1 a\nnin root in\nnin u0 a\n";
    const GOOD_CALLS: &str = "u0 inv\nu1 inv\n";
    const GOOD_IO: &str = "in in\n";

    fn codes(diags: &[Diagnostic]) -> Vec<DoctorCode> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_input_passes_all_policies() {
        for policy in [InputPolicy::Strict, InputPolicy::Repair, InputPolicy::BestEffort] {
            let (net, report) =
                doctor_network(lib(), GOOD_NETS, GOOD_CALLS, Some(GOOD_IO), policy).unwrap();
            assert_eq!(net.module_count(), 2);
            assert!(report.diagnostics.is_empty(), "{policy}: {:?}", report.diagnostics);
            assert_eq!(report.repairs_applied, 0);
        }
    }

    #[test]
    fn strict_reports_every_defect_at_once() {
        // Duplicate instance AND a dangling net in one input.
        let e = doctor_network(
            lib(),
            "n0 u0 y\nn0 u1 a\nlonely u1 y\n",
            "u0 inv\nu1 inv\nu0 inv\n",
            None,
            InputPolicy::Strict,
        )
        .unwrap_err();
        let cs = codes(&e.diagnostics);
        assert!(cs.contains(&DoctorCode::DuplicateInstance), "{cs:?}");
        assert!(cs.contains(&DoctorCode::DanglingNet), "{cs:?}");
        assert!(e.to_string().contains("ND001"), "{e}");
        assert!(e.to_string().contains("ND002"), "{e}");

        // `root` names the system interface in the net-list, so an
        // instance of that name could never be connected.
        let e = doctor_network(
            lib(),
            "n0 u0 y\nn0 u1 a\n",
            "u0 inv\nu1 inv\nroot inv\n",
            None,
            InputPolicy::Strict,
        )
        .unwrap_err();
        let d = &e.diagnostics[0];
        assert_eq!((d.code, d.file, d.line), (DoctorCode::MalformedRecord, DoctorFile::Calls, 3));
        assert!(d.message.contains("root"), "{e}");
    }

    #[test]
    fn repair_drops_dangling_nets() {
        let (net, report) = doctor_network(
            lib(),
            "n0 u0 y\nn0 u1 a\nlonely u1 y\n",
            GOOD_CALLS,
            None,
            InputPolicy::Repair,
        )
        .unwrap();
        assert_eq!(net.net_count(), 1);
        assert_eq!(codes(&report.diagnostics), [DoctorCode::DanglingNet]);
        assert_eq!(report.repairs_applied, 1);
    }

    #[test]
    fn repair_keeps_first_duplicate_instance() {
        // An instance named `root` is dropped the same way.
        for (calls, code) in [
            ("u0 inv\nu1 inv\nu1 inv\n", DoctorCode::DuplicateInstance),
            ("u0 inv\nroot inv\nu1 inv\n", DoctorCode::MalformedRecord),
        ] {
            let (net, report) =
                doctor_network(lib(), GOOD_NETS, calls, Some(GOOD_IO), InputPolicy::Repair)
                    .unwrap();
            assert_eq!(net.module_count(), 2);
            assert!(net.module_by_name("root").is_none());
            assert_eq!(codes(&report.diagnostics), [code]);
            assert_eq!(report.repairs_applied, 1);
        }
    }

    #[test]
    fn repair_keeps_first_duplicate_system_terminal() {
        let (net, report) = doctor_network(
            lib(),
            GOOD_NETS,
            GOOD_CALLS,
            Some("in in\nin out\n"),
            InputPolicy::Repair,
        )
        .unwrap();
        assert_eq!(net.system_term_count(), 1);
        assert_eq!(net.system_term(crate::SystemTermId::from_index(0)).ty(), TermType::In);
        assert_eq!(codes(&report.diagnostics), [DoctorCode::DuplicateSystemTerminal]);
    }

    #[test]
    fn repair_synthesizes_stub_templates() {
        let (net, report) = doctor_network(
            lib(),
            "n0 u0 y\nn0 g0 p\nn1 g0 q\nn1 u1 a\n",
            "u0 inv\nu1 inv\ng0 ghost\n",
            None,
            InputPolicy::Repair,
        )
        .unwrap();
        assert_eq!(net.module_count(), 3);
        let g0 = net.module_by_name("g0").unwrap();
        let stub = net.template_of(g0);
        assert_eq!(stub.name(), "ghost");
        assert_eq!(stub.terminal_count(), 2);
        assert!(stub.terminal_index("p").is_some());
        assert!(stub.terminal_index("q").is_some());
        assert_eq!(stub.terminals()[0].ty(), TermType::InOut);
        assert_eq!(codes(&report.diagnostics), [DoctorCode::UnknownTemplate]);
    }

    #[test]
    fn repair_drops_unknown_references() {
        let (net, report) = doctor_network(
            lib(),
            "n0 u0 y\nn0 u1 a\nn0 nobody a\nn0 u1 zz\nn0 root ghost\n",
            GOOD_CALLS,
            None,
            InputPolicy::Repair,
        )
        .unwrap();
        assert_eq!(net.net_count(), 1);
        assert_eq!(net.net(crate::NetId::from_index(0)).pins().len(), 2);
        let cs = codes(&report.diagnostics);
        assert!(cs.contains(&DoctorCode::UnknownInstance), "{cs:?}");
        assert!(cs.contains(&DoctorCode::UnknownTerminal), "{cs:?}");
        assert_eq!(cs.iter().filter(|c| **c == DoctorCode::UnknownTerminal).count(), 2);
    }

    #[test]
    fn repair_keeps_first_pin_connection() {
        let (net, report) = doctor_network(
            lib(),
            "n0 u0 y\nn0 u1 a\nn1 u1 a\nn1 u1 y\nn1 u2 a\n",
            "u0 inv\nu1 inv\nu2 inv\n",
            None,
            InputPolicy::Repair,
        )
        .unwrap();
        assert_eq!(codes(&report.diagnostics), [DoctorCode::PinConflict]);
        // u1.a stays on n0; n1 keeps its two remaining pins.
        assert_eq!(net.net_count(), 2);
        let n1 = net.net_by_name("n1").unwrap();
        assert_eq!(net.net(n1).pins().len(), 2);
    }

    #[test]
    fn malformed_records_fail_repair_but_not_best_effort() {
        let nets = "n0 u0 y\nn0 u1 a\nbroken-two-fields u0\n";
        let e = doctor_network(lib(), nets, GOOD_CALLS, None, InputPolicy::Repair).unwrap_err();
        assert_eq!(codes(&e.diagnostics), [DoctorCode::MalformedRecord]);
        let (net, report) =
            doctor_network(lib(), nets, GOOD_CALLS, None, InputPolicy::BestEffort).unwrap();
        assert_eq!(net.net_count(), 1);
        assert_eq!(codes(&report.diagnostics), [DoctorCode::MalformedRecord]);

        for src in ["module m 40 20\nin a 0\n", "module m 40 20\nsideways a 0 10\n"] {
            let e = doctor_module(src, InputPolicy::Repair).unwrap_err();
            assert_eq!(codes(&e.diagnostics), [DoctorCode::MalformedRecord]);
            assert_eq!(e.diagnostics[0].line, 2);
            let (t, _) = doctor_module(src, InputPolicy::BestEffort).unwrap();
            assert_eq!(t.terminal_count(), 0);
        }
    }

    #[test]
    fn driver_cycle_is_a_warning_only() {
        let mut lib = Library::new();
        lib.add_template(
            Template::new("buf", (4, 2))
                .unwrap()
                .with_terminal("a", (0, 1), TermType::In)
                .unwrap()
                .with_terminal("y", (4, 1), TermType::Out)
                .unwrap(),
        )
        .unwrap();
        let (_, report) = doctor_network(
            lib,
            "n0 u0 y\nn0 u1 a\nn1 u1 y\nn1 u0 a\n",
            "u0 buf\nu1 buf\n",
            None,
            InputPolicy::Strict, // warnings never reject
        )
        .unwrap();
        assert_eq!(codes(&report.diagnostics), [DoctorCode::CyclicDrivers]);
        assert_eq!(report.diagnostics[0].severity, Severity::Warning);
        assert!(report.diagnostics[0].message.contains("u0"), "{}", report.diagnostics[0]);
    }

    #[test]
    fn inout_buses_are_not_cycles() {
        // Stub-style all-inout connections must not warn.
        let (_, report) = doctor_network(
            Library::new(),
            "n0 g0 p\nn0 g1 p\nn1 g1 q\nn1 g0 q\n",
            "g0 ghost\ng1 ghost\n",
            None,
            InputPolicy::Repair,
        )
        .unwrap();
        assert_eq!(codes(&report.diagnostics), [DoctorCode::UnknownTemplate]);
    }

    #[test]
    fn doctor_module_passes_clean_input() {
        let (t, report) =
            doctor_module("module inv 40 20\nin a 0 10\nout y 40 10\n", InputPolicy::Strict)
                .unwrap();
        assert_eq!(t.size(), (4, 2));
        assert_eq!(t.terminal_count(), 2);
        assert!(report.diagnostics.is_empty());
    }

    #[test]
    fn doctor_module_snaps_off_grid() {
        let src = "module m 45 20\nin a 0 14\n";
        assert!(doctor_module(src, InputPolicy::Strict).is_err());
        let (t, report) = doctor_module(src, InputPolicy::Repair).unwrap();
        assert_eq!(t.size(), (5, 2)); // 45 -> 50
        assert_eq!(t.terminals()[0].offset().y, 1); // 14 -> 10
        assert_eq!(
            codes(&report.diagnostics),
            [DoctorCode::OffGridCoordinate, DoctorCode::OffGridCoordinate]
        );
        assert_eq!(report.repairs_applied, 2);

        // Values at the ends of the integer range snap without
        // overflowing, to the nearest multiple of 10 that fits.
        let src = "module m 2147483647 20\nin a 0 -2147483648\n";
        let e = doctor_module(src, InputPolicy::Strict).unwrap_err();
        assert!(e.to_string().contains("snapped to 2147483640"), "{e}");
        assert!(e.to_string().contains("snapped to -2147483640"), "{e}");
    }

    #[test]
    fn doctor_module_snaps_off_boundary() {
        let src = "module m 40 20\nin a 10 10\n"; // interior
        assert!(doctor_module(src, InputPolicy::Strict).is_err());
        let (t, report) = doctor_module(src, InputPolicy::Repair).unwrap();
        // (1, 1) on a 4x2 outline: nearest edge is x=0 or y=0 (tie
        // broken toward the left edge by candidate order).
        assert_eq!(t.terminals()[0].offset().x, 0);
        assert_eq!(codes(&report.diagnostics), [DoctorCode::TerminalOffBoundary]);

        let src = "module m 40 20\nin a 50 0\n"; // outside
        assert!(doctor_module(src, InputPolicy::Strict).is_err());
        let (t, _) = doctor_module(src, InputPolicy::Repair).unwrap();
        assert_eq!((t.terminals()[0].offset().x, t.terminals()[0].offset().y), (4, 0));
    }

    #[test]
    fn doctor_module_drops_duplicate_terminals() {
        let src = "module m 40 20\nin a 0 10\nout a 40 10\nin b 0 10\n";
        let (t, report) = doctor_module(src, InputPolicy::Repair).unwrap();
        assert_eq!(t.terminal_count(), 1);
        assert_eq!(
            codes(&report.diagnostics),
            [DoctorCode::DuplicateTerminal, DoctorCode::DuplicateTerminal]
        );
    }

    #[test]
    fn doctor_module_heading_defects_are_unrepairable() {
        for policy in [InputPolicy::Strict, InputPolicy::Repair, InputPolicy::BestEffort] {
            assert!(doctor_module("", policy).is_err());
            assert!(doctor_module("modul m 40 20\n", policy).is_err());
            assert!(doctor_module("module m forty 20\n", policy).is_err());
        }
    }

    #[test]
    fn snap_to_outline_prefers_nearest_edge() {
        assert_eq!(snap_to_outline(4, 4, 1, 2), (0, 2));
        assert_eq!(snap_to_outline(4, 4, 3, 2), (4, 2));
        assert_eq!(snap_to_outline(4, 4, 2, 3), (2, 4));
        assert_eq!(snap_to_outline(4, 4, 9, 2), (4, 2)); // outside: clamp + project
        assert_eq!(snap_to_outline(4, 4, 2, -3), (2, 0));
    }

    #[test]
    fn policy_parsing() {
        assert_eq!("strict".parse::<InputPolicy>().unwrap(), InputPolicy::Strict);
        assert_eq!("repair".parse::<InputPolicy>().unwrap(), InputPolicy::Repair);
        assert_eq!(
            "best-effort".parse::<InputPolicy>().unwrap(),
            InputPolicy::BestEffort
        );
        assert!("lenient".parse::<InputPolicy>().is_err());
        assert_eq!(InputPolicy::BestEffort.to_string(), "best-effort");
    }

    #[test]
    fn tiny_network_budget_rejects_with_nd015_under_every_policy() {
        for policy in [InputPolicy::Strict, InputPolicy::Repair, InputPolicy::BestEffort] {
            let budget = Arc::new(MemBudget::bytes(16));
            let err = doctor_network_records(
                lib(),
                records_from_str("n0 u0 y\nn0 u1 a\n"),
                records_from_str("u0 inv\nu1 inv\n"),
                None,
                policy,
                &budget,
            )
            .unwrap_err();
            assert_eq!(err.diagnostics.len(), 1, "{policy:?}");
            assert_eq!(err.diagnostics[0].code, DoctorCode::ResourceExhausted);
            let msg = err.to_string();
            assert!(msg.contains("ND015"), "{msg}");
            assert!(msg.contains("16"), "must carry byte counts: {msg}");
        }
    }

    #[test]
    fn exhausted_budget_takes_precedence_over_strict_defects() {
        // Names resolve while the network grows, so a budget too small
        // for the network refuses before the policy sees the duplicate
        // instance: the rejection is the lone ND015.
        let doctor = |budget: u64| {
            doctor_network_records(
                lib(),
                records_from_str("n0 u0 y\nn0 u1 a\n"),
                records_from_str("u0 inv\nu1 inv\nu0 inv\n"),
                None,
                InputPolicy::Strict,
                &Arc::new(MemBudget::bytes(budget)),
            )
            .unwrap_err()
        };
        assert_eq!(codes(&doctor(16).diagnostics), [DoctorCode::ResourceExhausted]);
        assert_eq!(codes(&doctor(1 << 20).diagnostics), [DoctorCode::DuplicateInstance]);
    }

    #[test]
    fn stubs_for_many_unknown_templates_take_linear_time() {
        // Two instances per template, each referencing one terminal, so
        // every stub gathers its terminals from two net-list rows.
        const TEMPLATES: usize = 10_000;
        let (mut nets, mut calls) = (String::new(), String::new());
        for i in 0..TEMPLATES {
            calls.push_str(&format!("ga{i} t{i}\ngb{i} t{i}\n"));
            nets.push_str(&format!("n{i} ga{i} p\nn{i} gb{i} q\n"));
        }
        let start = std::time::Instant::now();
        let e = doctor_network(Library::new(), &nets, &calls, None, InputPolicy::Strict)
            .unwrap_err();
        let elapsed = start.elapsed();
        assert_eq!(e.diagnostics.len(), TEMPLATES);
        for (i, d) in e.diagnostics.iter().enumerate() {
            assert_eq!(
                d.to_string(),
                format!(
                    "ND004 [call:{}] unknown template `t{i}` \
                     (repair: synthesized a stub with 2 inout terminal(s))",
                    2 * i + 1
                )
            );
        }
        // Quadratic synthesis takes minutes here, even in a release build.
        assert!(elapsed.as_secs() < 10, "doctored in {elapsed:?}");
    }

    #[test]
    fn adequate_network_budget_charges_and_passes() {
        let budget = Arc::new(MemBudget::bytes(1 << 20));
        let (net, _) = doctor_network_records(
            lib(),
            records_from_str("n0 u0 y\nn0 u1 a\n"),
            records_from_str("u0 inv\nu1 inv\n"),
            None,
            InputPolicy::Strict,
            &budget,
        )
        .unwrap();
        assert_eq!(net.module_count(), 2);
        assert!(budget.used() > 0, "network construction must be accounted");
    }

    #[test]
    fn diagnostics_render_code_location_and_repair() {
        let d = Diagnostic::error(
            DoctorCode::DuplicateInstance,
            DoctorFile::Calls,
            2,
            "duplicate instance `u0`",
        )
        .with_repair("kept the first declaration");
        assert_eq!(
            d.to_string(),
            "ND002 [call:2] duplicate instance `u0` (repair: kept the first declaration)"
        );
    }
}
