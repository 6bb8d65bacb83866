//! The `pablo`, `eureka`, `quinto`, `netart` and `netart report diff`
//! command implementations, and the loading and emitting helpers the
//! other subcommands share.

use std::error::Error;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use netart::diagram::{escher, svg, Diagram, DiagramMetrics};
use netart::netlist::doctor::{self, DoctorCode, DoctorFile, DoctorReport, InputPolicy, Severity};
use netart::netlist::format::quinto;
use netart::netlist::ingest::{self, IngestBudgets, IngestError, Record};
use netart::netlist::{Library, Network, Template};
use netart_govern::MemBudget;
use netart::obs::{
    AllocSnapshot, DegradationReport, DiffConfig, Json, ProfileReport, ReportDiff, RunReport,
};
use netart_fault::FaultKind;
use netart::place::{Pablo, PlaceConfig};
use netart::route::{Budget, NetOrder, RouteConfig};
use netart::{Generator, Outcome};

use crate::session::{push_warnings, RunOutput, Session, Spec, ALL_SHARED, UNREPORTED};
use crate::{ArgError, ParsedArgs};

/// Nanoseconds of a duration, saturating at `u64::MAX`.
pub(crate) fn ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// A CLI-level degradation record (doctor repairs, recovered parse
/// faults, emit retries) for the run report.
pub(crate) fn cli_degradation(kind: &str, stage: Option<String>, detail: String) -> DegradationReport {
    DegradationReport {
        kind: kind.to_owned(),
        net: None,
        stage,
        routed: None,
        over_budget: None,
        nodes_expanded: None,
        detail: Some(detail),
    }
}

/// Folds a doctor report into degradation records: one per applied
/// repair, and one per defect the best-effort policy skipped.
pub(crate) fn doctor_degradations(
    source: &Path,
    report: &doctor::DoctorReport,
    degs: &mut Vec<DegradationReport>,
) {
    for d in &report.diagnostics {
        if d.repair.is_some() || d.severity == Severity::Error {
            degs.push(cli_degradation(
                "doctor_repair",
                Some(d.code.as_str().to_owned()),
                format!("{}: {d}", source.display()),
            ));
        }
    }
}

/// Runs the parse phase with panic isolation. A failure (panic or
/// error) that coincides with a newly fired fault site is retried once
/// — the one-shot site has burned out — and recorded as a
/// `parse_recovered` degradation. Genuine failures propagate
/// unchanged, so this is inert without `--features fault-injection`.
fn parse_with_recovery<T>(
    mut op: impl FnMut() -> Result<(T, Vec<DegradationReport>), CliError>,
) -> Result<(T, Vec<DegradationReport>), CliError> {
    let fired_before = netart_fault::fired_count();
    let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&mut op));
    let fault_fired = netart_fault::fired_count() > fired_before;
    let detail = match first {
        Ok(Ok(result)) => return Ok(result),
        Ok(Err(e)) if !fault_fired => return Err(e),
        Ok(Err(e)) => e.to_string(),
        Err(payload) if !fault_fired => std::panic::resume_unwind(payload),
        Err(payload) => netart::obs::panic_message(payload.as_ref()),
    };
    let (value, mut degs) = op()?;
    degs.push(cli_degradation("parse_recovered", None, detail));
    Ok((value, degs))
}

/// The `--order def|most|few` net ordering (default `def`).
pub(crate) fn order_from_args(args: &ParsedArgs) -> Result<NetOrder, ArgError> {
    let value = args.value("order").unwrap_or("def");
    value.parse().map_err(|_| ArgError::BadValue {
        flag: "order".into(),
        value: value.into(),
    })
}

/// The per-net routing [`Budget`] from `--route-timeout <ms>` and
/// `--max-nodes <n>`.
pub(crate) fn budget_from_args(args: &ParsedArgs) -> Result<Budget, ArgError> {
    let mut budget = Budget::new();
    if args.has("route-timeout") {
        let ms = args.parsed("route-timeout", 0u64)?;
        budget = budget.with_time_limit(Duration::from_millis(ms));
    }
    if args.has("max-nodes") {
        budget = budget.with_node_limit(args.parsed("max-nodes", 0u64)?);
    }
    Ok(budget)
}

/// The placement options of `pablo` and `netart`: `-p`/`-b` part and
/// box sizes, `-e`/`-i`/`-s` spacings and the `-c` connection cap.
pub(crate) fn place_config_from_args(args: &ParsedArgs) -> Result<PlaceConfig, ArgError> {
    let mut config = PlaceConfig::new()
        .with_max_part_size(args.parsed("p", 1usize)?)
        .with_max_box_size(args.parsed("b", 1usize)?)
        .with_part_spacing(args.parsed("e", 0i32)?)
        .with_box_spacing(args.parsed("i", 0i32)?)
        .with_module_spacing(args.parsed("s", 0i32)?);
    if args.has("c") {
        config = config.with_max_connections(args.parsed("c", 0usize)?);
    }
    Ok(config)
}

/// The routing options the routing commands share: `-m` margin, the
/// `--route-timeout`/`--max-nodes` budget, `--order`, `--no-claims`
/// and `--no-salvage`. A flag the command does not accept reads as
/// absent.
pub(crate) fn route_config_from_args(args: &ParsedArgs) -> Result<RouteConfig, ArgError> {
    let mut config = RouteConfig::new()
        .with_margin(args.parsed("m", 4i32)?)
        .with_budget(budget_from_args(args)?)
        .with_order(order_from_args(args)?);
    if args.has("no-claims") {
        config = config.without_claimpoints();
    }
    if args.has("no-salvage") {
        config = config.without_salvage();
    }
    Ok(config)
}

/// Any failure of a CLI run.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Args(ArgError),
    /// Filesystem trouble.
    Io {
        /// Path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A file failed to parse.
    Parse {
        /// Path involved.
        path: PathBuf,
        /// Parser message.
        message: String,
    },
    /// The memory governor refused the input (`ND015`). The front end
    /// turns this variant into a *degraded* exit (2) instead of a
    /// failure: refusing an oversized input is the configured contract,
    /// not a malfunction.
    ResourceExhausted {
        /// Path of the input being ingested when the budget ran out.
        path: PathBuf,
        /// The full `ND015` diagnostic (stage and byte counts).
        message: String,
    },
    /// Anything else, explained.
    Other(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            CliError::Parse { path, message }
            | CliError::ResourceExhausted { path, message } => {
                write!(f, "{}: {message}", path.display())
            }
            CliError::Other(m) => f.write_str(m),
        }
    }
}

impl Error for CliError {}

impl CliError {
    /// A `map_err` adapter attributing an I/O error to `path`.
    pub(crate) fn io(path: impl Into<PathBuf>) -> impl FnOnce(std::io::Error) -> CliError {
        let path = path.into();
        move |source| CliError::Io { path, source }
    }

    /// A `map_err` adapter attributing a parse failure to `path`.
    pub(crate) fn parse<E: fmt::Display>(path: impl Into<PathBuf>) -> impl FnOnce(E) -> CliError {
        let path = path.into();
        move |e| CliError::Parse {
            path,
            message: e.to_string(),
        }
    }
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

pub(crate) fn read(path: &Path) -> Result<String, CliError> {
    fs::read_to_string(path).map_err(CliError::io(path))
}

/// Parses a byte count with an optional `k`/`m`/`g` suffix (powers of
/// 1024, case-insensitive): `65536`, `64k`, `8m`, `1g`.
pub(crate) fn parse_bytes(flag: &str, s: &str) -> Result<u64, CliError> {
    let bad = || {
        CliError::Args(ArgError::BadValue {
            flag: flag.into(),
            value: s.into(),
        })
    };
    let (digits, shift) = match s.trim().to_ascii_lowercase() {
        t if t.ends_with('k') => (t[..t.len() - 1].to_owned(), 10),
        t if t.ends_with('m') => (t[..t.len() - 1].to_owned(), 20),
        t if t.ends_with('g') => (t[..t.len() - 1].to_owned(), 30),
        t => (t, 0),
    };
    let n: u64 = digits.parse().map_err(|_| bad())?;
    n.checked_shl(shift).filter(|v| v >> shift == n).ok_or_else(bad)
}

/// The `ND015` diagnostic text for an ingestion-time exhaustion,
/// attributed to `file`.
fn nd015_message(file: DoctorFile, e: &netart_govern::Exhausted) -> String {
    doctor::resource_exhausted(file, e).to_string()
}

/// Streams one record file under `budget`. The kept records' bytes
/// stay charged until the caller releases them; an exhaustion maps to
/// [`CliError::ResourceExhausted`] carrying the `ND015` text.
pub(crate) fn read_records_gov(
    path: &Path,
    budget: &MemBudget,
    stage: &'static str,
    file: DoctorFile,
) -> Result<Vec<Record>, CliError> {
    let f = fs::File::open(path).map_err(CliError::io(path))?;
    ingest::read_records(std::io::BufReader::new(f), budget, stage).map_err(|e| match e {
        IngestError::Io(source) => CliError::Io {
            path: path.to_owned(),
            source,
        },
        IngestError::Exhausted(x) => CliError::ResourceExhausted {
            path: path.to_owned(),
            message: nd015_message(file, &x),
        },
    })
}

/// Reads a whole non-record file (an ESCHER diagram) under `budget`:
/// its on-disk size is charged before the bytes are loaded, so an
/// oversized file is refused up front with exact counts. Returns the
/// text and the charged byte count, which the caller releases once
/// parsing is done.
pub(crate) fn read_text_gov(
    path: &Path,
    budget: &MemBudget,
    stage: &'static str,
) -> Result<(String, u64), CliError> {
    let len = fs::metadata(path)
        .map_err(CliError::io(path))?
        .len();
    budget
        .try_charge(stage, len)
        .map_err(|x| CliError::ResourceExhausted {
            path: path.to_owned(),
            message: format!("{} {x}", DoctorCode::ResourceExhausted.as_str()),
        })?;
    match read(path) {
        Ok(text) => Ok((text, len)),
        Err(e) => {
            budget.release(len);
            Err(e)
        }
    }
}

pub(crate) fn write(path: &Path, contents: &str) -> Result<(), CliError> {
    fs::write(path, contents).map_err(CliError::io(path))
}

/// Loads every `*.qto` quinto module description in the library
/// directory (`-L`, falling back to `$USER_LIB` like the paper's
/// tools), running each through the module doctor under `policy`.
pub(crate) fn load_library(
    session: &Session,
    degs: &mut Vec<DegradationReport>,
) -> Result<Library, CliError> {
    let dir = match session.args.value("L") {
        Some(d) => PathBuf::from(d),
        None => std::env::var_os("USER_LIB")
            .map(PathBuf::from)
            .ok_or_else(|| {
                CliError::Other("no module library: pass -L <dir> or set USER_LIB".into())
            })?,
    };
    load_library_dir(&dir, session.policy, &session.budgets, degs)
}

/// The directory-parameterised core of [`load_library`], reused by
/// `netart stress` on its generated library.
pub(crate) fn load_library_dir(
    dir: &Path,
    policy: InputPolicy,
    budgets: &IngestBudgets,
    degs: &mut Vec<DegradationReport>,
) -> Result<Library, CliError> {
    let mut lib = Library::new();
    let entries = fs::read_dir(dir).map_err(CliError::io(dir))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "qto"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(CliError::Other(format!(
            "no .qto module descriptions in {}",
            dir.display()
        )));
    }
    for p in paths {
        let (template, report) = read_module(&p, policy, budgets)?;
        doctor_degradations(&p, &report, degs);
        let name = template.name().to_owned();
        if lib.add_template(template).is_err() {
            // Two .qto files declare the same module name.
            let code = DoctorCode::DuplicateTemplate;
            let message = format!(
                "{} [{}] duplicate module template `{name}` (repair: kept the first file)",
                code.as_str(),
                p.display(),
            );
            if policy == InputPolicy::Strict {
                return Err(CliError::Parse { path: p, message });
            }
            degs.push(cli_degradation(
                "doctor_repair",
                Some(code.as_str().to_owned()),
                message,
            ));
        }
    }
    Ok(lib)
}

/// Reads one quinto module file through the doctor under `policy`. The
/// records stay charged to the input budget only while the doctor
/// reads them.
fn read_module(
    path: &Path,
    policy: InputPolicy,
    budgets: &IngestBudgets,
) -> Result<(Template, DoctorReport), CliError> {
    let recs = read_records_gov(path, &budgets.input, "module file", DoctorFile::Module)?;
    let kept: u64 = recs.iter().map(Record::cost).sum();
    let doctored = doctor::doctor_module_records(recs, policy);
    budgets.input.release(kept);
    doctored.map_err(CliError::parse(path))
}

/// Parses the Appendix A positional files `net-list call-file
/// [io-file]` through the netlist doctor under the session's input
/// policy, collecting applied repairs as degradation records.
pub(crate) fn load_network(
    session: &Session,
) -> Result<(Network, Vec<DegradationReport>), CliError> {
    let mut degs = Vec::new();
    let lib = load_library(session, &mut degs)?;
    let files = session.args.positionals();
    let (network, mut net_degs) = load_network_files(
        lib,
        Path::new(&files[0]),
        Path::new(&files[1]),
        files.get(2).map(Path::new),
        session.policy,
        &session.budgets,
    )?;
    degs.append(&mut net_degs);
    Ok((network, degs))
}

/// Parses one netlist group (`net-list call-file [io-file]`) through
/// the doctor under `policy` — the path-parameterised core of
/// [`load_network`], reused per job by `netart batch`.
pub(crate) fn load_network_files(
    lib: Library,
    net_list_path: &Path,
    calls_path: &Path,
    io_path: Option<&Path>,
    policy: InputPolicy,
    budgets: &IngestBudgets,
) -> Result<(Network, Vec<DegradationReport>), CliError> {
    let mut degs = Vec::new();
    let kept = std::cell::Cell::new(0u64);
    let load = |path: &Path, stage: &'static str, file: DoctorFile| {
        let recs = read_records_gov(path, &budgets.input, stage, file)?;
        kept.set(kept.get() + recs.iter().map(Record::cost).sum::<u64>());
        Ok::<_, CliError>(recs)
    };
    let loaded = (|| {
        Ok((
            load(net_list_path, "net-list file", DoctorFile::NetList)?,
            load(calls_path, "call file", DoctorFile::Calls)?,
            match io_path {
                Some(f) => Some(load(f, "io file", DoctorFile::Io)?),
                None => None,
            },
        ))
    })();
    let (net_records, call_records, io_records) = match loaded {
        Ok(v) => v,
        Err(e) => {
            // A failed sibling read drops the already-kept records.
            budgets.input.release(kept.get());
            return Err(e);
        }
    };
    let kept = kept.get();
    let doctored = doctor::doctor_network_records(
        lib,
        net_records,
        call_records,
        io_records,
        policy,
        &budgets.network,
    );
    // The records were consumed by the doctor; what survives is the
    // network, accounted on the network budget.
    budgets.input.release(kept);
    let (network, report) = doctored.map_err(|e| {
        // Attribute the rejection to the first defective file.
        let which = e
            .diagnostics
            .iter()
            .find(|d| d.severity == Severity::Error)
            .map_or(DoctorFile::NetList, |d| d.file);
        let path = match which {
            DoctorFile::Calls => calls_path,
            DoctorFile::Io => io_path.unwrap_or(net_list_path),
            _ => net_list_path,
        };
        if e.diagnostics
            .iter()
            .any(|d| d.code == DoctorCode::ResourceExhausted)
        {
            CliError::ResourceExhausted {
                path: path.to_owned(),
                message: e.to_string(),
            }
        } else {
            CliError::Parse {
                path: path.to_owned(),
                message: e.to_string(),
            }
        }
    })?;
    doctor_degradations(net_list_path, &report, &mut degs);
    Ok((network, degs))
}

/// Serialises the diagram to ESCHER text with an always-on self-check:
/// the text must parse back into a diagram, otherwise the emission is
/// redone once (recording an `emit_retried` degradation when a fault
/// site caused it) and the re-check must pass.
pub(crate) fn checked_escher(
    name: &str,
    diagram: &Diagram,
    degs: &mut Vec<DegradationReport>,
) -> Result<String, CliError> {
    let attempt = || -> Result<String, String> {
        let mut text = escher::write_diagram(name, diagram);
        match netart_fault::fire(netart_fault::sites::EMIT_ESCHER) {
            Some(FaultKind::GarbageOutput) => text.push_str("scrambled trailing record\n"),
            Some(kind) => return Err(format!("injected {kind} fault at `emit.escher`")),
            None => {}
        }
        escher::parse_diagram(diagram.network().clone(), &text)
            .map_err(|e| format!("emitted diagram does not re-parse: {e}"))?;
        Ok(text)
    };
    let fired_before = netart_fault::fired_count();
    let detail = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(&attempt)) {
        Ok(Ok(text)) => return Ok(text),
        Ok(Err(message)) => message,
        Err(payload) => {
            if netart_fault::fired_count() == fired_before {
                std::panic::resume_unwind(payload);
            }
            netart::obs::panic_message(payload.as_ref())
        }
    };
    if netart_fault::fired_count() == fired_before {
        // A genuine emitter defect, not an injected one: refuse to
        // write a diagram that cannot be read back.
        return Err(CliError::Other(detail));
    }
    degs.push(cli_degradation("emit_retried", None, detail));
    attempt().map_err(CliError::Other)
}

/// The emitted artifacts of one pipeline run and the report that
/// describes the run.
pub(crate) struct Artifacts {
    /// The ESCHER text, self-checked by [`checked_escher`].
    pub escher: String,
    /// The SVG rendering.
    pub svg: String,
    /// The run report, complete but for caller-specific degradations.
    pub report: RunReport,
    /// The diagram's quality metrics, as the report states them.
    pub metrics: DiagramMetrics,
}

/// The emit-and-report step every pipeline driver ends with. Inside an
/// `emit` phase it renders the self-checked ESCHER text (named `name`)
/// and the SVG with the placement structure overlaid (a diagram read
/// back from ESCHER carries none, so it renders plain). It then builds the run report: `front` (the `parse` or
/// `doctor` phase and its wall time) first, `emit` last, heap traffic
/// since `alloc_base` attributed, and every degradation in `degs`
/// recorded. Callers write the artifacts wherever they belong.
pub(crate) fn emit_artifacts(
    outcome: &Outcome,
    tool: &str,
    name: &str,
    front: (&str, u64),
    alloc_base: &AllocSnapshot,
    degs: &mut Vec<DegradationReport>,
) -> Result<Artifacts, CliError> {
    let t_emit = Instant::now();
    let emit_tag = netart::obs::enter_phase("emit");
    let escher = checked_escher(name, &outcome.diagram, degs)?;
    let svg = svg::render_with_structure(&outcome.diagram);
    drop(emit_tag);
    let metrics = outcome.diagram.metrics();
    let mut report = outcome.run_report_with(tool, &metrics);
    report.push_phase_front(front.0, front.1);
    report.push_phase("emit", ns(t_emit.elapsed()));
    netart::obs::attach_alloc_profile(&mut report, alloc_base);
    for d in degs.iter() {
        report.push_degradation(d.clone());
    }
    Ok(Artifacts {
        escher,
        svg,
        report,
        metrics,
    })
}

/// Writes `<out>.esc` and `<out>.svg`; returns the `wrote …` line.
fn write_diagram_files(out: &str, escher: &str, svg: &str) -> Result<String, CliError> {
    let esc = PathBuf::from(format!("{out}.esc"));
    write(&esc, escher)?;
    let svg_path = PathBuf::from(format!("{out}.svg"));
    write(&svg_path, svg)?;
    Ok(format!(
        "wrote {} and {}",
        esc.display(),
        svg_path.display()
    ))
}

/// `pablo [-p n] [-b n] [-c n] [-e n] [-i n] [-s n] [-g preplaced.esc]
/// [--input-policy strict|repair|best-effort] [--inject spec]
/// [--trace-out trace.json] [--trace-level lvl] [--log-json]
/// [-L libdir] [-o name] net-list call-file [io-file]`
///
/// Places the network (Appendix E). With `-g` the given ESCHER diagram
/// is kept as the preplaced part. Writes `<name>.esc` / `<name>.svg`
/// with modules and terminals only — nets are EUREKA's job — and
/// returns a human-readable summary (with one warning line per input
/// repair the doctor applied). `--trace-out` records the placement
/// passes as a Chrome trace-event file.
///
/// # Errors
///
/// Any [`CliError`] condition.
pub fn run_pablo(argv: &[String]) -> Result<RunOutput, CliError> {
    Session::run(&PABLO, argv, pablo)
}

static PABLO: Spec = Spec {
    shared: UNREPORTED,
    options: &["p", "b", "c", "e", "i", "s", "g", "L", "o"],
    switches: &[],
    operands: (2, 3),
    newline: true,
};

fn pablo(session: &Session) -> Result<RunOutput, CliError> {
    let args = &session.args;
    let (network, mut degs) = parse_with_recovery(|| load_network(session))?;
    let config = place_config_from_args(args)?;

    let preplaced = match args.value("g") {
        Some(file) => {
            let path = Path::new(file);
            let input = &session.budgets.input;
            let (text, len) = read_text_gov(path, input, "seed diagram file")?;
            let parsed = escher::parse_diagram(network.clone(), &text);
            drop(text);
            input.release(len);
            let diagram = parsed.map_err(CliError::parse(path))?;
            let (_, placement, _) = diagram.into_parts();
            doctor_seeds(&network, placement, path, session.policy, &mut degs)?
        }
        None => netart::diagram::Placement::new(&network),
    };

    let placement = Pablo::new(config).place_with_preplaced(&network, preplaced);
    let structure = placement
        .structure()
        .map(|s| {
            format!(
                "{} partitions, {} boxes, longest string {}",
                s.partition_count(),
                s.box_count(),
                s.longest_string()
            )
        })
        .unwrap_or_default();
    let diagram = Diagram::new(network, placement);
    let out = args.value("o").unwrap_or("pablo_out");
    let escher = checked_escher(out, &diagram, &mut degs)?;
    let files = write_diagram_files(out, &escher, &svg::render(&diagram))?;
    let mut message = format!(
        "placed {} modules and {} terminals ({structure}); {files}",
        diagram.network().module_count(),
        diagram.network().system_term_count(),
    );
    push_warnings(&mut message, &degs);
    Ok(RunOutput::new(message, false))
}

/// Validates a preplaced seed diagram (`pablo -g`): strictly
/// overlapping seed modules are ND012 defects — rejected under
/// `strict`, dropped (latest first) and re-placed by PABLO under
/// `repair`/`best-effort`.
fn doctor_seeds(
    network: &Network,
    placement: netart::diagram::Placement,
    source: &Path,
    policy: InputPolicy,
    degs: &mut Vec<DegradationReport>,
) -> Result<netart::diagram::Placement, CliError> {
    let placed: Vec<_> = network
        .modules()
        .filter(|&m| placement.module(m).is_some())
        .collect();
    let mut keep = vec![true; placed.len()];
    let mut dropped = Vec::new();
    for i in 0..placed.len() {
        if !keep[i] {
            continue;
        }
        let a = placement.module_rect(network, placed[i]);
        for j in (i + 1)..placed.len() {
            if !keep[j] {
                continue;
            }
            let b = placement.module_rect(network, placed[j]);
            if a.overlaps_strictly(&b) {
                keep[j] = false;
                let message = format!(
                    "{} [{}] seed placement of `{}` overlaps `{}` (repair: dropped the \
                     later seed; PABLO re-places it)",
                    DoctorCode::OverlappingSeeds.as_str(),
                    source.display(),
                    network.instance(placed[j]).name(),
                    network.instance(placed[i]).name(),
                );
                dropped.push((placed[j], message));
            }
        }
    }
    if dropped.is_empty() {
        return Ok(placement);
    }
    if policy == InputPolicy::Strict {
        return Err(CliError::Parse {
            path: source.to_owned(),
            message: dropped
                .iter()
                .map(|(_, m)| m.as_str())
                .collect::<Vec<_>>()
                .join("\n"),
        });
    }
    for (_, message) in &dropped {
        degs.push(cli_degradation(
            "doctor_repair",
            Some(DoctorCode::OverlappingSeeds.as_str().to_owned()),
            message.clone(),
        ));
    }
    // Placements are append-only, so rebuild without the dropped seeds.
    let mut repaired = netart::diagram::Placement::new(network);
    for (idx, &m) in placed.iter().enumerate() {
        if keep[idx] {
            if let Some(p) = placement.module(m) {
                repaired.place_module(m, p.position, p.rotation);
            }
        }
    }
    for st in network.system_terms() {
        if let Some(p) = placement.system_term(st) {
            repaired.place_system_term(st, p);
        }
    }
    Ok(repaired)
}

/// `eureka [-u] [-d] [-r] [-l] [-s] [-m margin] [--order def|most|few]
/// [--no-claims] [--route-timeout ms] [--max-nodes n] [--strict]
/// [--report-json report.json] [--log-json] [--trace-level lvl]
/// [-L libdir] [-o name] --diagram placed.esc net-list call-file
/// [io-file]`
///
/// Routes the nets of a placed diagram (Appendix F). The placement
/// comes from `--diagram` (a pablo or hand-edited ESCHER file, possibly
/// with prerouted nets); the netlist files supply the connection rules.
/// `--route-timeout`/`--max-nodes` bound the per-net search effort (the
/// salvage cascade handles nets that bust the budget); see
/// [`RunOutput`] for how degraded runs exit. `--report-json` writes the
/// machine-readable run report, `--trace-level`/`--log-json` stream
/// diagnostics to stderr.
///
/// # Errors
///
/// Any [`CliError`] condition.
pub fn run_eureka(argv: &[String]) -> Result<RunOutput, CliError> {
    Session::run(&EUREKA, argv, eureka)
}

static EUREKA: Spec = Spec {
    shared: ALL_SHARED,
    options: &["m", "order", "L", "o", "diagram", "route-timeout", "max-nodes"],
    switches: &["u", "d", "r", "l", "s", "no-claims", "no-salvage"],
    operands: (2, 3),
    newline: true,
};

fn eureka(session: &Session) -> Result<RunOutput, CliError> {
    let args = &session.args;
    let alloc_base = netart::obs::AllocSnapshot::capture();
    let t_parse = Instant::now();
    let parse_tag = netart::obs::enter_phase("parse");
    let (network, mut cli_degs) = parse_with_recovery(|| load_network(session))?;

    let diagram_file = args
        .value("diagram")
        .ok_or_else(|| CliError::Other("eureka needs --diagram <placed.esc>".into()))?;
    let path = Path::new(diagram_file);
    let input = &session.budgets.input;
    let (esc_text, esc_len) = read_text_gov(path, input, "diagram file")?;
    let diagram =
        escher::parse_diagram(network, &esc_text).map_err(CliError::parse(path))?;
    drop(esc_text);
    input.release(esc_len);
    drop(parse_tag);
    let parse_ns = ns(t_parse.elapsed());

    let mut config = route_config_from_args(args)?;
    if args.has("u") {
        config = config.with_fixed_up();
    }
    if args.has("d") {
        config = config.with_fixed_down();
    }
    if args.has("r") {
        config = config.with_fixed_right();
    }
    if args.has("l") {
        config = config.with_fixed_left();
    }
    if args.has("s") {
        config = config.with_swapped_tiebreak();
    }

    let outcome = Generator::new()
        .with_routing(config)
        .route_diagram(diagram)
        .map_err(|e| CliError::Other(e.to_string()))?;
    let report = &outcome.report;
    let mut summary = format!(
        "routed {}/{} nets",
        report.routed.len(),
        report.routed.len() + report.failed.len()
    );
    summary.push_str(&salvage_summary(&outcome.diagram, report));
    let out = args.value("o").unwrap_or("eureka_out");
    let artifacts = emit_artifacts(
        &outcome,
        "eureka",
        out,
        ("parse", parse_ns),
        &alloc_base,
        &mut cli_degs,
    )?;
    let files = write_diagram_files(out, &artifacts.escher, &artifacts.svg)?;
    push_warnings(&mut summary, &cli_degs);
    session.write_stream("report-json", || artifacts.report.to_json_string())?;
    Ok(RunOutput::new(
        format!("{summary}\n{}\n{files}", artifacts.metrics),
        !outcome.is_clean() || !cli_degs.is_empty(),
    ))
}

/// Warning lines for nets that needed the salvage cascade or stayed
/// unroutable.
fn salvage_summary(diagram: &Diagram, report: &netart::route::RouteReport) -> String {
    use netart::route::SalvageStep;
    let mut out = String::new();
    for record in &report.salvaged {
        let name = diagram.network().net(record.net).name();
        let how = match record.step {
            SalvageStep::RipUpRetry => "salvaged by rip-up and retry",
            SalvageStep::LeeFallback => "salvaged by the Lee fallback router",
            SalvageStep::GhostWire => "unroutable; drawn as a ghost wire",
        };
        out.push_str(&format!("\nwarning: net `{name}` {how}"));
    }
    for &n in &report.failed {
        if report.salvaged.iter().any(|r| r.net == n) {
            continue;
        }
        out.push_str(&format!(
            "\nwarning: net `{}` is unroutable",
            diagram.network().net(n).name()
        ));
    }
    out
}

/// `netart [-p n] [-b n] [-c n] [-e n] [-i n] [-s n] [-m margin]
/// [--order def|most|few] [--no-claims] [--route-timeout ms]
/// [--max-nodes n] [--strict] [--art] [--report-json report.json]
/// [--log-json] [--trace-level lvl] [-L libdir] [-o name] net-list
/// call-file [io-file]`
///
/// The full pipeline — PABLO placement followed by EUREKA routing — in
/// one invocation. `--art` appends an ASCII rendering of the finished
/// diagram to the output. Writes `<name>.esc` / `<name>.svg` (with the
/// partition/box structure overlaid in the SVG).
/// `--route-timeout`/`--max-nodes` bound the per-net search effort; see
/// [`RunOutput`] for how degraded runs exit. `--report-json` writes the
/// machine-readable run report, `--trace-level`/`--log-json` stream
/// diagnostics to stderr.
///
/// # Errors
///
/// Any [`CliError`] condition.
pub fn run_netart(argv: &[String]) -> Result<RunOutput, CliError> {
    Session::run(&NETART, argv, netart)
}

static NETART: Spec = Spec {
    shared: ALL_SHARED,
    options: &[
        "p", "b", "c", "e", "i", "s", "m", "order", "L", "o", "route-timeout", "max-nodes",
    ],
    switches: &["no-claims", "no-salvage", "art"],
    operands: (2, 3),
    newline: true,
};

fn netart(session: &Session) -> Result<RunOutput, CliError> {
    let args = &session.args;
    // Heap-attribution window for the whole run (a no-op stub unless
    // built with `--features alloc-profile`). Parse and emit are
    // phases without spans, so they tag themselves with guards.
    let alloc_base = netart::obs::AllocSnapshot::capture();
    let t_parse = Instant::now();
    let parse_tag = netart::obs::enter_phase("parse");
    let (network, mut cli_degs) = parse_with_recovery(|| load_network(session))?;
    drop(parse_tag);
    let parse_ns = ns(t_parse.elapsed());

    let outcome = netart::Generator::new()
        .with_placing(place_config_from_args(args)?)
        .with_routing(route_config_from_args(args)?)
        .generate(network);
    let diagram = &outcome.diagram;
    let out = args.value("o").unwrap_or("netart_out");
    let artifacts = emit_artifacts(
        &outcome,
        "netart",
        out,
        ("parse", parse_ns),
        &alloc_base,
        &mut cli_degs,
    )?;
    let files = write_diagram_files(out, &artifacts.escher, &artifacts.svg)?;
    session.write_stream("report-json", || artifacts.report.to_json_string())?;

    let mut summary = format!(
        "placed {} modules in {:?}; routed {}/{} nets in {:?}\n{}\n{files}",
        diagram.network().module_count(),
        outcome.place_time,
        outcome.report.routed.len(),
        outcome.report.routed.len() + outcome.report.failed.len(),
        outcome.route_time,
        artifacts.metrics,
    );
    summary.push_str(&salvage_summary(diagram, &outcome.report));
    for d in &outcome.degradations {
        match d {
            netart::Degradation::PlacementRecovered(msg) => {
                summary.push_str(&format!(
                    "\nwarning: placer crashed ({msg}); used a fallback grid placement"
                ));
            }
            netart::Degradation::RoutingAborted(msg) => {
                summary.push_str(&format!(
                    "\nwarning: router crashed ({msg}); diagram has no wires"
                ));
            }
            // Per-net degradations already covered by salvage_summary.
            netart::Degradation::NetSalvaged { .. } | netart::Degradation::NetUnrouted(_) => {}
        }
    }
    push_warnings(&mut summary, &cli_degs);
    if args.has("art") {
        summary.push('\n');
        summary.push_str(&netart::diagram::ascii::render(diagram));
    }
    Ok(RunOutput::new(
        summary,
        !outcome.is_clean() || !cli_degs.is_empty(),
    ))
}

/// `quinto [-L libdir] [--input-policy strict|repair|best-effort]
/// [--inject spec] [--trace-out trace.json] [--trace-level lvl]
/// [--log-json] description.qto […]`
///
/// Validates module descriptions (Appendix B) through the module
/// doctor and installs them into the library directory. Under
/// `repair`/`best-effort` the *repaired* description is what gets
/// installed, with one warning line per applied repair. `--trace-out`
/// records the doctor's work as a Chrome trace-event file.
///
/// # Errors
///
/// Any [`CliError`] condition.
pub fn run_quinto(argv: &[String]) -> Result<RunOutput, CliError> {
    Session::run(&QUINTO, argv, quinto)
}

static QUINTO: Spec = Spec {
    shared: UNREPORTED,
    options: &["L"],
    switches: &[],
    operands: (1, usize::MAX),
    newline: true,
};

fn quinto(session: &Session) -> Result<RunOutput, CliError> {
    let dir = match session.args.value("L") {
        Some(d) => PathBuf::from(d),
        None => std::env::var_os("USER_LIB")
            .map(PathBuf::from)
            .ok_or_else(|| CliError::Other("pass -L <dir> or set USER_LIB".into()))?,
    };
    fs::create_dir_all(&dir).map_err(CliError::io(&dir))?;
    let mut added = Vec::new();
    let mut warnings = String::new();
    for file in session.args.positionals() {
        let path = Path::new(file);
        let (template, report) = read_module(path, session.policy, &session.budgets)?;
        for d in &report.diagnostics {
            warnings.push_str(&format!("\nwarning: {}: {d}", path.display()));
        }
        let target = dir.join(format!("{}.qto", template.name()));
        write(&target, &quinto::write_module(&template))?;
        added.push(template.name().to_owned());
    }
    Ok(RunOutput::new(
        format!(
            "added {} module(s): {}{warnings}",
            added.len(),
            added.join(", ")
        ),
        false,
    ))
}

/// `netart report diff [--band n] [--diff-json out.json] baseline.json
/// current.json`
///
/// Compares two run-report files with the baseline differ: counters,
/// per-net effort, degradations and quality exactly, phase wall times
/// band-tolerantly (`--band` log-2 buckets of slack, default 1).
/// `--diff-json` additionally writes the machine-readable diff (`-`
/// for stdout; the text summary then moves to stderr). The run exits
/// 3 when [`RunOutput::regressed`] is set.
///
/// # Errors
///
/// Any [`CliError`] condition, including unreadable or malformed
/// report files.
pub fn run_report_diff(argv: &[String]) -> Result<RunOutput, CliError> {
    Session::run(&REPORT_DIFF, argv, report_diff)
}

static REPORT_DIFF: Spec = Spec {
    shared: &[],
    options: &["band", "diff-json"],
    switches: &[],
    operands: (2, 2),
    newline: true,
};

fn report_diff(session: &Session) -> Result<RunOutput, CliError> {
    let band = session.args.parsed("band", 1usize)?;
    let load = |path: &str| -> Result<RunReport, CliError> {
        let text = read(Path::new(path))?;
        let json = Json::parse(&text).map_err(CliError::parse(path))?;
        // Heat-map profiles diff through the same machinery: both
        // sides are lowered to a synthetic counter-only RunReport, so
        // a self-diff is empty and cell drift shows up as a counter
        // regression.
        if ProfileReport::is_profile_json(&json) {
            return ProfileReport::from_json(&json)
                .map(|profile| profile.to_run_report())
                .map_err(CliError::parse(path));
        }
        RunReport::from_json(&json).map_err(CliError::parse(path))
    };
    let files = session.args.positionals();
    let baseline = load(&files[0])?;
    let current = load(&files[1])?;
    let diff = ReportDiff::diff_with(&baseline, &current, DiffConfig { band_buckets: band });
    session.write_stream("diff-json", || diff.to_json().render_pretty())?;
    let regressed = diff.is_regression();
    let verdict = if regressed {
        let names: Vec<&str> = diff.regressions().map(|e| e.metric.as_str()).collect();
        format!("REGRESSION: {}", names.join(", "))
    } else {
        "ok: no regressions".to_owned()
    };
    let mut message = diff.render_text();
    message.push('\n');
    message.push_str(&verdict);
    let mut out = RunOutput::new(message, false);
    out.regressed = regressed;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::ExitCode;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    /// A scratch directory unique to the test.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("netart-cli-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn write_inputs(dir: &Path) -> (String, String, String, String) {
        let lib = dir.join("lib");
        fs::create_dir_all(&lib).unwrap();
        fs::write(lib.join("inv.qto"), "module inv 40 20\nin a 0 10\nout y 40 10\n").unwrap();
        let nets = dir.join("design.net");
        fs::write(&nets, "n0 u0 y\nn0 u1 a\nnin root in\nnin u0 a\n").unwrap();
        let calls = dir.join("design.call");
        fs::write(&calls, "u0 inv\nu1 inv\n").unwrap();
        let io = dir.join("design.io");
        fs::write(&io, "in in\n").unwrap();
        (
            lib.to_string_lossy().into_owned(),
            nets.to_string_lossy().into_owned(),
            calls.to_string_lossy().into_owned(),
            io.to_string_lossy().into_owned(),
        )
    }

    #[test]
    fn pablo_then_eureka_full_flow() {
        let dir = scratch("flow");
        let (lib, nets, calls, io) = write_inputs(&dir);
        let out = dir.join("placed").to_string_lossy().into_owned();

        let msg = run_pablo(&argv(&[
            "-p", "7", "-b", "5", "-L", &lib, "-o", &out, &nets, &calls, &io,
        ]))
        .expect("pablo runs")
        .message;
        assert!(msg.contains("placed 2 modules"), "{msg}");
        assert!(dir.join("placed.esc").exists());
        assert!(dir.join("placed.svg").exists());

        let routed_out = dir.join("routed").to_string_lossy().into_owned();
        let esc = dir.join("placed.esc").to_string_lossy().into_owned();
        let out = run_eureka(&argv(&[
            "-L", &lib, "--diagram", &esc, "-o", &routed_out, &nets, &calls, &io,
        ]))
        .expect("eureka runs");
        assert!(out.message.contains("routed 2/2"), "{}", out.message);
        assert!(!out.degraded, "clean run: {}", out.message);
        assert_eq!(out.exit_code(), std::process::ExitCode::SUCCESS);
        assert!(dir.join("routed.esc").exists());
        assert!(dir.join("routed.svg").exists());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn quinto_installs_modules() {
        let dir = scratch("quinto");
        let lib = dir.join("lib").to_string_lossy().into_owned();
        let desc = dir.join("buf.qto");
        fs::write(&desc, "module buf 20 20\nin a 0 10\nout y 20 10\n").unwrap();
        let msg = run_quinto(&argv(&["-L", &lib, &desc.to_string_lossy()]))
            .expect("quinto runs")
            .message;
        assert!(msg.contains("buf"), "{msg}");
        assert!(Path::new(&lib).join("buf.qto").exists());
        // Bad description is rejected with the file named.
        let bad = dir.join("bad.qto");
        fs::write(&bad, "module bad 41 20\n").unwrap();
        let err = run_quinto(&argv(&["-L", &lib, &bad.to_string_lossy()])).unwrap_err();
        assert!(err.to_string().contains("bad.qto"), "{err}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn netart_runs_the_full_pipeline() {
        let dir = scratch("umbrella");
        let (lib, nets, calls, io) = write_inputs(&dir);
        let out = dir.join("full").to_string_lossy().into_owned();
        let run = run_netart(&argv(&[
            "-p", "7", "-b", "5", "--art", "-L", &lib, "-o", &out, &nets, &calls, &io,
        ]))
        .expect("netart runs");
        let msg = &run.message;
        assert!(msg.contains("routed 2/2"), "{msg}");
        assert!(msg.contains("u0"), "ASCII art appended: {msg}");
        assert!(!run.degraded, "{msg}");
        assert!(dir.join("full.esc").exists());
        assert!(dir.join("full.svg").exists());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn netart_writes_run_report() {
        let dir = scratch("report");
        let (lib, nets, calls, io) = write_inputs(&dir);
        let out = dir.join("rep").to_string_lossy().into_owned();
        let report = dir.join("report.json").to_string_lossy().into_owned();
        let run = run_netart(&argv(&[
            "-L",
            &lib,
            "-o",
            &out,
            "--report-json",
            &report,
            &nets,
            &calls,
            &io,
        ]))
        .expect("netart runs");
        let doc = fs::read_to_string(dir.join("report.json")).expect("report written");
        assert!(doc.contains("\"schema_version\": 3"), "{doc}");
        assert!(!run.degraded);
        let parsed = RunReport::from_json(&Json::parse(&doc).expect("report is JSON"))
            .expect("report fits the schema");
        assert_eq!(parsed.tool, "netart");
        let names: Vec<&str> = parsed.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["parse", "place", "route", "emit"]);
        for phase in &parsed.phases {
            assert!(phase.wall_ns > 0, "{phase:?}");
            if matches!(phase.name.as_str(), "place" | "route") {
                assert!(phase.p50_ns.is_some(), "{} lacks histogram quantiles", phase.name);
            }
            if !cfg!(feature = "alloc-profile") {
                let alloc = (phase.alloc_count, phase.alloc_bytes, phase.peak_bytes);
                assert_eq!(alloc, (None, None, None), "{phase:?}");
            }
        }
        assert_eq!(parsed.is_clean, !run.degraded);
        assert_eq!(parsed.is_clean, parsed.degradations.is_empty());
        let accounted = parsed.quality.routed_nets + parsed.quality.unrouted_nets;
        assert_eq!(accounted, parsed.network.nets);

        // The eureka flow writes a report of its own.
        let esc = dir.join("rep.esc").to_string_lossy().into_owned();
        let routed = dir.join("routed").to_string_lossy().into_owned();
        let ereport = dir.join("eureka.json").to_string_lossy().into_owned();
        run_eureka(&argv(&[
            "-L",
            &lib,
            "--diagram",
            &esc,
            "-o",
            &routed,
            "--report-json",
            &ereport,
            &nets,
            &calls,
            &io,
        ]))
        .expect("eureka runs");
        let doc = fs::read_to_string(dir.join("eureka.json")).expect("report written");
        assert!(doc.contains("\"tool\": \"eureka\""), "{doc}");
        assert!(doc.contains("\"nodes_expanded\""), "{doc}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn bad_trace_level_is_rejected() {
        let dir = scratch("tracelvl");
        let (lib, nets, calls, io) = write_inputs(&dir);
        let err = run_netart(&argv(&[
            "-L",
            &lib,
            "--trace-level",
            "loud",
            &nets,
            &calls,
            &io,
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("loud"), "{err}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn eureka_rejects_missing_diagram() {
        let dir = scratch("nodiag");
        let (lib, nets, calls, io) = write_inputs(&dir);
        let err = run_eureka(&argv(&["-L", &lib, &nets, &calls, &io])).unwrap_err();
        assert!(err.to_string().contains("--diagram"), "{err}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn pablo_propagates_parse_errors_with_path() {
        let dir = scratch("parse");
        let (lib, nets, calls, io) = write_inputs(&dir);
        fs::write(&nets, "only two\n").unwrap();
        let err = run_pablo(&argv(&["-L", &lib, &nets, &calls, &io])).unwrap_err();
        assert!(err.to_string().contains("design.net"), "{err}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn missing_library_is_reported() {
        let dir = scratch("nolib");
        let (_, nets, calls, io) = write_inputs(&dir);
        let empty = dir.join("empty");
        fs::create_dir_all(&empty).unwrap();
        let err = run_pablo(&argv(&[
            "-L",
            &empty.to_string_lossy(),
            &nets,
            &calls,
            &io,
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("no .qto"), "{err}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn strict_rejects_dangling_net_with_code() {
        let dir = scratch("strictnd");
        let (lib, nets, calls, io) = write_inputs(&dir);
        fs::write(&nets, "n0 u0 y\nn0 u1 a\nnin root in\nnin u0 a\nnx u1 y\n").unwrap();
        let err = run_netart(&argv(&["-L", &lib, &nets, &calls, &io])).unwrap_err();
        assert!(err.to_string().contains("ND001"), "{err}");
        assert!(err.to_string().contains("design.net"), "{err}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn repair_policy_fixes_and_reports() {
        let dir = scratch("repairnd");
        let (lib, nets, calls, io) = write_inputs(&dir);
        fs::write(&nets, "n0 u0 y\nn0 u1 a\nnin root in\nnin u0 a\nnx u1 y\n").unwrap();
        let out = dir.join("rep").to_string_lossy().into_owned();
        let report = dir.join("report.json").to_string_lossy().into_owned();
        let run = run_netart(&argv(&[
            "--input-policy",
            "repair",
            "-L",
            &lib,
            "-o",
            &out,
            "--report-json",
            &report,
            &nets,
            &calls,
            &io,
        ]))
        .expect("repair policy proceeds");
        assert!(run.degraded, "{}", run.message);
        assert_eq!(run.exit_code(), ExitCode::from(2));
        assert!(run.message.contains("ND001"), "{}", run.message);
        let doc = fs::read_to_string(dir.join("report.json")).expect("report written");
        assert!(doc.contains("doctor_repair"), "{doc}");
        assert!(doc.contains("\"is_clean\": false"), "{doc}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn unknown_template_stub_under_repair() {
        let dir = scratch("stub");
        let (lib, nets, calls, io) = write_inputs(&dir);
        fs::write(
            &nets,
            "n0 u0 y\nn0 u1 a\nn1 u1 y\nn1 u2 a\nnin root in\nnin u0 a\n",
        )
        .unwrap();
        fs::write(&calls, "u0 inv\nu1 inv\nu2 mystery\n").unwrap();
        let err = run_netart(&argv(&["-L", &lib, &nets, &calls, &io])).unwrap_err();
        assert!(err.to_string().contains("ND004"), "{err}");
        let out = dir.join("stub").to_string_lossy().into_owned();
        let run = run_netart(&argv(&[
            "--input-policy",
            "repair",
            "-L",
            &lib,
            "-o",
            &out,
            &nets,
            &calls,
            &io,
        ]))
        .expect("stub synthesized");
        assert!(run.message.contains("ND004"), "{}", run.message);
        assert!(run.message.contains("placed 3 modules"), "{}", run.message);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn best_effort_skips_unrepairable_records() {
        let dir = scratch("besteffort");
        let (lib, nets, calls, io) = write_inputs(&dir);
        fs::write(&nets, "only two\nn0 u0 y\nn0 u1 a\nnin root in\nnin u0 a\n").unwrap();
        // A malformed record has no repair: strict AND repair reject it.
        for policy in ["strict", "repair"] {
            let err = run_netart(&argv(&[
                "--input-policy",
                policy,
                "-L",
                &lib,
                &nets,
                &calls,
                &io,
            ]))
            .unwrap_err();
            assert!(err.to_string().contains("ND013"), "{policy}: {err}");
        }
        let out = dir.join("be").to_string_lossy().into_owned();
        let run = run_netart(&argv(&[
            "--input-policy",
            "best-effort",
            "-L",
            &lib,
            "-o",
            &out,
            &nets,
            &calls,
            &io,
        ]))
        .expect("best-effort proceeds");
        assert!(run.degraded, "{}", run.message);
        assert!(run.message.contains("ND013"), "{}", run.message);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn bad_input_policy_is_rejected() {
        let dir = scratch("badpolicy");
        let (lib, nets, calls, io) = write_inputs(&dir);
        let err = run_netart(&argv(&[
            "--input-policy",
            "relaxed",
            "-L",
            &lib,
            &nets,
            &calls,
            &io,
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("relaxed"), "{err}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn quinto_repairs_off_grid_terminals() {
        let dir = scratch("quintofix");
        let lib = dir.join("lib").to_string_lossy().into_owned();
        let desc = dir.join("skew.qto");
        fs::write(&desc, "module skew 20 20\nin a 0 11\nout y 20 10\n").unwrap();
        let err = run_quinto(&argv(&["-L", &lib, &desc.to_string_lossy()])).unwrap_err();
        assert!(err.to_string().contains("ND008"), "{err}");
        let msg = run_quinto(&argv(&[
            "--input-policy",
            "repair",
            "-L",
            &lib,
            &desc.to_string_lossy(),
        ]))
        .expect("repair installs the snapped module")
        .message;
        assert!(msg.contains("ND008"), "{msg}");
        assert!(Path::new(&lib).join("skew.qto").exists());
        let _ = fs::remove_dir_all(dir);
    }

    #[cfg(not(feature = "fault-injection"))]
    #[test]
    fn inject_rejected_without_feature() {
        let dir = scratch("noinject");
        let (lib, nets, calls, io) = write_inputs(&dir);
        let err = run_netart(&argv(&[
            "--inject",
            "route.net:1:error",
            "-L",
            &lib,
            &nets,
            &calls,
            &io,
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("fault-injection"), "{err}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn pablo_rejects_overlapping_seeds_strict() {
        let dir = scratch("seeds");
        let (lib, nets, calls, io) = write_inputs(&dir);
        // Both instances seeded at the same origin: ND012.
        let seed = dir.join("seed.esc");
        fs::write(
            &seed,
            format!(
                "{}\nsubsys: u0 inv 0 0 0\nsubsys: u1 inv 1 0 0\n",
                escher::HEADER
            ),
        )
        .unwrap();
        let err = run_pablo(&argv(&[
            "-g",
            &seed.to_string_lossy(),
            "-L",
            &lib,
            &nets,
            &calls,
            &io,
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("ND012"), "{err}");
        let out = dir.join("seeded").to_string_lossy().into_owned();
        let msg = run_pablo(&argv(&[
            "--input-policy",
            "repair",
            "-g",
            &seed.to_string_lossy(),
            "-L",
            &lib,
            "-o",
            &out,
            &nets,
            &calls,
            &io,
        ]))
        .expect("repair drops the later seed")
        .message;
        assert!(msg.contains("ND012"), "{msg}");
        assert!(dir.join("seeded.esc").exists());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn eureka_with_options_and_order() {
        let dir = scratch("opts");
        let (lib, nets, calls, io) = write_inputs(&dir);
        let out = dir.join("p").to_string_lossy().into_owned();
        run_pablo(&argv(&["-L", &lib, "-o", &out, &nets, &calls, &io])).unwrap();
        let esc = dir.join("p.esc").to_string_lossy().into_owned();
        let routed = dir.join("r").to_string_lossy().into_owned();
        let out = run_eureka(&argv(&[
            "-L", &lib, "--diagram", &esc, "-o", &routed, "-u", "-s", "-m", "6", "--order",
            "few", "--no-claims", "--no-salvage", "--route-timeout", "5000", "--max-nodes",
            "100000", &nets, &calls, &io,
        ]))
        .expect("eureka with options");
        assert!(out.message.contains("routed"), "{}", out.message);
        let err = run_eureka(&argv(&[
            "-L", &lib, "--diagram", &esc, "--order", "sideways", &nets, &calls, &io,
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("sideways"), "{err}");
        let _ = fs::remove_dir_all(dir);
    }
}
