//! The front end every entry point shares.
//!
//! A [`Spec`] names a command's own flags and the part of the shared
//! flag family it accepts. A [`Session`] parses `argv` against it,
//! settles which stream (if any) claims stdout, installs the tracing
//! subscriber, arms faults and reads the input policy and ingest
//! budgets. [`Session::close`] turns the command's result into its
//! [`RunOutput`] — a governed refusal (`ND015`) included — and
//! [`finish`] prints that output and picks the process exit code.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use netart::netlist::doctor::InputPolicy;
use netart::netlist::ingest::IngestBudgets;
use netart::obs::{
    DegradationReport, FanoutSubscriber, JsonLinesSubscriber, TextSubscriber, TraceBuffer,
    TraceEventSubscriber,
};
use netart_govern::MemBudget;

use crate::commands::{parse_bytes, write, CliError};
use crate::{ArgError, ParsedArgs};

/// The shared flag family, read by the front end itself. All but the
/// switches `--log-json` and `--strict` take a value. The routing
/// commands that judge their own degradation (`netart`, `eureka`)
/// accept every one.
pub(crate) const ALL_SHARED: &[&str] = &[
    "trace-level", "log-json", "trace-out", "report-json", "input-policy", "inject",
    "max-input-bytes", "max-network-bytes", "strict",
];

/// The shared flags of the commands without a run report or a
/// `--strict` exit: `pablo`, `quinto`, `profile`, `stress`, `serve`.
pub(crate) const UNREPORTED: &[&str] = &[
    "trace-level", "log-json", "trace-out", "input-policy", "inject", "max-input-bytes",
    "max-network-bytes",
];

/// The flags whose value `-` writes a machine-readable stream to
/// stdout. At most one may claim it; the human summary then goes to
/// stderr.
const STREAMS: &[&str] = &["report-json", "trace-out", "heat-json", "diff-json"];

/// One entry point's command line.
pub(crate) struct Spec {
    /// The shared flags it accepts, a subset of [`ALL_SHARED`].
    pub shared: &'static [&'static str],
    /// Its own value-taking options.
    pub options: &'static [&'static str],
    /// Its own boolean switches.
    pub switches: &'static [&'static str],
    /// Inclusive bounds on the file operands.
    pub operands: (usize, usize),
    /// `false` when the message is printed as is because it ends its
    /// own lines (the heat map, the blackbox timeline).
    pub newline: bool,
}

impl Spec {
    fn accepts(&self, flag: &str) -> bool {
        self.shared.contains(&flag)
    }
}

/// What a command produced, and how the process should exit.
///
/// The routing commands distinguish three outcomes: a *clean* run
/// (exit 0), a *degraded* run that still produced a diagram but needed
/// fallbacks — salvaged or ghost-wired nets, or a governed input
/// refusal (exit 2, or exit 1 under `--strict`) — and a *failed* run
/// that produced nothing (a [`CliError`], exit 1). `netart report
/// diff` exits 3 on a regression.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The human-readable summary to print.
    pub message: String,
    /// `true` when the run needed fallbacks (salvage, ghost wires, or
    /// outright unroutable nets) or its input was refused.
    pub degraded: bool,
    /// `true` when `--strict` was given: degradation becomes failure.
    pub strict: bool,
    /// `true` when a machine-readable stream claimed stdout: the
    /// summary must go to stderr instead.
    pub message_to_stderr: bool,
    /// `true` when `netart report diff` found a regression: exit 3.
    pub regressed: bool,
    /// `false` when the message is printed without a newline appended.
    pub newline: bool,
}

impl RunOutput {
    /// A summary, clean or degraded; [`Session::close`] fills in the
    /// rest from the command line.
    pub(crate) fn new(message: String, degraded: bool) -> RunOutput {
        RunOutput {
            message,
            degraded,
            strict: false,
            message_to_stderr: false,
            regressed: false,
            newline: true,
        }
    }

    /// The process exit code for this outcome: 0 clean, 2 degraded,
    /// 1 degraded under `--strict`, 3 regressed.
    pub fn exit_code(&self) -> ExitCode {
        match (self.regressed, self.degraded, self.strict) {
            (true, _, _) => ExitCode::from(3),
            (false, false, _) => ExitCode::SUCCESS,
            (false, true, false) => ExitCode::from(2),
            (false, true, true) => ExitCode::FAILURE,
        }
    }
}

/// Prints a command's outcome and returns the process exit code: the
/// message on stdout (stderr when a stream claimed stdout), or the
/// error prefixed with `tool` on stderr and exit 1.
pub fn finish(tool: &str, result: Result<RunOutput, CliError>) -> ExitCode {
    match result {
        Ok(out) => {
            let end = if out.newline { "\n" } else { "" };
            if out.message_to_stderr {
                eprint!("{}{end}", out.message);
            } else {
                print!("{}{end}", out.message);
            }
            out.exit_code()
        }
        Err(e) => {
            eprintln!("{tool}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Appends one `warning:` line per degradation record.
pub(crate) fn push_warnings(message: &mut String, degs: &[DegradationReport]) {
    for d in degs {
        message.push_str("\nwarning: ");
        message.push_str(d.detail.as_deref().unwrap_or(&d.kind));
    }
}

/// A parsed command line and the front-end state read from it.
pub(crate) struct Session {
    spec: &'static Spec,
    /// The parsed command line.
    pub args: ParsedArgs,
    /// `--input-policy` (default `strict`).
    pub policy: InputPolicy,
    /// The `--max-input-bytes` / `--max-network-bytes` budgets.
    pub budgets: IngestBudgets,
    trace: Option<TraceBuffer>,
    stdout_claimed: bool,
}

impl Session {
    /// Runs a one-shot command: [`Session::parse`], [`Session::start`],
    /// the command's `body`, [`Session::close`].
    pub(crate) fn run(
        spec: &'static Spec,
        argv: &[String],
        body: impl FnOnce(&Session) -> Result<RunOutput, CliError>,
    ) -> Result<RunOutput, CliError> {
        let session = Session::parse(spec, argv)?.start(Vec::new())?;
        session.close(body(&session))
    }

    /// Parses `argv` against `spec` plus the shared flags it accepts,
    /// and settles the stdout claim.
    pub(crate) fn parse(spec: &'static Spec, argv: &[String]) -> Result<Session, CliError> {
        let mut options = spec.options.to_vec();
        let mut switches = spec.switches.to_vec();
        for &flag in spec.shared {
            if matches!(flag, "log-json" | "strict") {
                switches.push(flag);
            } else {
                options.push(flag);
            }
        }
        let args = ParsedArgs::parse(argv, &options, &switches, spec.operands)?;
        let claims: Vec<&str> = STREAMS
            .iter()
            .copied()
            .filter(|s| args.value(s) == Some("-"))
            .collect();
        if let [first, second, ..] = claims[..] {
            return Err(CliError::Other(format!(
                "--{first} - and --{second} - both claim stdout; write at most one stream there"
            )));
        }
        Ok(Session {
            spec,
            stdout_claimed: !claims.is_empty(),
            args,
            policy: InputPolicy::Strict,
            budgets: IngestBudgets::unlimited(),
            trace: None,
        })
    }

    /// Installs the tracing subscriber (`extra` children first), arms
    /// the fault registry and reads the input policy and budgets — each
    /// only where the command accepts the flags.
    pub(crate) fn start(
        mut self,
        extra: Vec<Box<dyn tracing::Subscriber>>,
    ) -> Result<Self, CliError> {
        if self.spec.accepts("trace-level") {
            self.trace = install_subscriber(&self.args, extra)?;
        }
        if self.spec.accepts("inject") {
            arm_faults(&self.args)?;
        }
        self.policy = match self.args.value("input-policy") {
            None => InputPolicy::Strict,
            Some(s) => s.parse().map_err(|_| ArgError::BadValue {
                flag: "input-policy".into(),
                value: s.into(),
            })?,
        };
        let budget = |flag: &str| -> Result<Arc<MemBudget>, CliError> {
            Ok(Arc::new(match self.args.value(flag) {
                Some(s) => MemBudget::bytes(parse_bytes(flag, s)?),
                None => MemBudget::unlimited(),
            }))
        };
        self.budgets = IngestBudgets {
            input: budget("max-input-bytes")?,
            network: budget("max-network-bytes")?,
        };
        Ok(self)
    }

    /// `true` when `--strict` was given.
    pub(crate) fn strict(&self) -> bool {
        self.args.has("strict")
    }

    /// Writes the stream of `flag` when it was given (`-` for stdout).
    pub(crate) fn write_stream(
        &self,
        flag: &str,
        text: impl FnOnce() -> String,
    ) -> Result<(), CliError> {
        match self.args.value(flag) {
            Some("-") => {
                print!("{}", text());
                Ok(())
            }
            Some(path) => write(Path::new(path), &text()),
            None => Ok(()),
        }
    }

    /// Writes the recorded Chrome trace-event document when
    /// `--trace-out` was given. Load the file in `ui.perfetto.dev` or
    /// `chrome://tracing`.
    pub(crate) fn write_trace(&self) -> Result<(), CliError> {
        match &self.trace {
            Some(buffer) => self.write_stream("trace-out", || buffer.to_json_string()),
            None => Ok(()),
        }
    }

    /// Ends the run. A finished command writes its trace; a governed
    /// input refusal becomes the degraded (exit 2, exit 1 under
    /// `--strict`) `input refused: … ND015` outcome with nothing
    /// written; any other error passes through.
    pub(crate) fn close(&self, result: Result<RunOutput, CliError>) -> Result<RunOutput, CliError> {
        let mut out = match result {
            Ok(out) => {
                self.write_trace()?;
                out
            }
            Err(e @ CliError::ResourceExhausted { .. }) => {
                RunOutput::new(format!("input refused: {e}"), true)
            }
            Err(e) => return Err(e),
        };
        out.strict = self.strict();
        out.message_to_stderr = self.stdout_claimed;
        out.newline = self.spec.newline;
        Ok(out)
    }
}

/// Installs the subscriber the observability flags ask for, after
/// the caller's `extra` children. `--trace-level
/// <error|warn|info|debug|trace>` turns on the human-readable text
/// stream on stderr; `--log-json` switches the stream to one JSON
/// object per line (at `--trace-level`, defaulting to `info`);
/// `--trace-out <path>` additionally records every span and event into
/// a Chrome trace-event buffer, returned so the run can write it at
/// the end. Under the `alloc-profile` feature a phase-tag subscriber is
/// always appended, so heap attribution works on an otherwise silent
/// run. With no children at all nothing is installed and the library
/// instrumentation stays disabled.
fn install_subscriber(
    args: &ParsedArgs,
    extra: Vec<Box<dyn tracing::Subscriber>>,
) -> Result<Option<TraceBuffer>, CliError> {
    let level = match args.value("trace-level") {
        Some(s) => Some(s.parse::<tracing::Level>().map_err(|_| ArgError::BadValue {
            flag: "trace-level".into(),
            value: s.into(),
        })?),
        None => None,
    };
    let mut children = extra;
    if args.has("log-json") {
        children.push(Box::new(JsonLinesSubscriber::new(
            level.unwrap_or(tracing::Level::INFO),
        )));
    } else if let Some(max) = level {
        children.push(Box::new(TextSubscriber::new(max)));
    }
    let mut buffer = None;
    if args.value("trace-out").is_some() {
        // The trace file is for offline inspection, so record
        // everything the instrumentation offers regardless of the
        // stderr stream's level.
        let (subscriber, buf) = TraceEventSubscriber::new(tracing::Level::TRACE);
        children.push(Box::new(subscriber));
        buffer = Some(buf);
    }
    #[cfg(feature = "alloc-profile")]
    children.push(Box::new(netart::obs::PhaseTagSubscriber));
    if !children.is_empty() {
        // Lenient: in-process callers (tests) may install twice; the
        // first subscriber wins, which is fine for a diagnostics
        // stream (a second run's trace buffer then stays empty).
        let _ = tracing::set_global_default(FanoutSubscriber::new(children));
    }
    Ok(buffer)
}

/// Arms the deterministic fault registry from `--inject
/// site[:nth][:kind]` (comma-separated) and `NETART_INJECT`. Unless
/// the binary was built with `--features fault-injection`, arming
/// anything is an error — the sites compile to nothing.
pub(crate) fn arm_faults(args: &ParsedArgs) -> Result<(), CliError> {
    netart_fault::disarm_all();
    if let Some(specs) = args.value("inject") {
        for spec in specs.split(',').filter(|s| !s.trim().is_empty()) {
            netart_fault::arm(spec.trim()).map_err(CliError::Other)?;
        }
    }
    netart_fault::arm_from_env().map_err(CliError::Other)?;
    Ok(())
}
