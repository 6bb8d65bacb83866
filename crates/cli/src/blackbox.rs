//! The `netart blackbox` subcommand: render a flight-recorder dump.
//!
//! `netart serve` (and a quarantining `netart batch`) leave a
//! schema-versioned `blackbox.json` behind when something goes wrong —
//! a panic, a deadline breach, a SIGUSR1, or a tripped circuit
//! breaker. This subcommand reads one of those dumps back and prints
//! it as a human-readable timeline: the trigger, the spans that were
//! still open, the recent degradations, and the last ring of
//! span-close/event records leading up to the incident.

use std::path::Path;

use netart::obs::{BlackboxDump, Json};

use crate::commands::{read, CliError};
use crate::session::{RunOutput, Session, Spec};

/// Writes a blackbox dump under the `obs.flight` fault site. Any
/// fired kind (panic included) or I/O failure degrades to `false`: a
/// failed dump must never disturb the request or job that triggered
/// it. Callers turn `false` into a `flight_dump_failed` degradation.
pub(crate) fn write_dump(path: &Path, dump: &BlackboxDump) -> bool {
    netart_fault::survive(netart_fault::sites::OBS_FLIGHT, || {
        std::fs::write(path, dump.to_json_string()).is_ok()
    })
    .unwrap_or(false)
}

/// `netart blackbox <dump.json>`
///
/// Parses a blackbox dump written by `netart serve` (on panic,
/// deadline breach, or SIGUSR1) or `netart batch` (on quarantine) and
/// prints the recorded timeline. Exit 0 on a rendered dump, 1 on an
/// unreadable or unsupported file.
///
/// # Errors
///
/// [`CliError::Io`] when the file cannot be read, [`CliError::Parse`]
/// when it is not JSON or not a supported blackbox schema version.
pub fn run_blackbox(argv: &[String]) -> Result<RunOutput, CliError> {
    Session::run(&BLACKBOX, argv, |session| {
        let path = Path::new(&session.args.positionals()[0]);
        let text = read(path)?;
        let json = Json::parse(&text).map_err(CliError::parse(path))?;
        let dump = BlackboxDump::from_json(&json).map_err(CliError::parse(path))?;
        Ok(RunOutput::new(dump.render_timeline(), false))
    })
}

/// The timeline ends its own lines: printed as is.
static BLACKBOX: Spec = Spec {
    shared: &[],
    options: &[],
    switches: &[],
    operands: (1, 1),
    newline: false,
};

#[cfg(test)]
mod tests {
    use super::*;
    use netart::obs::FlightRecorder;
    use tracing::Level;

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "netart-blackbox-{tag}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn renders_a_written_dump() {
        let dir = scratch_dir("render");
        let (_recorder, handle) = FlightRecorder::new(8, Level::INFO);
        handle.note_degradation("route_salvaged");
        let dump = handle.snapshot("signal", Some("r000042"));
        let path = dir.join("blackbox.json");
        std::fs::write(&path, dump.to_json_string()).unwrap();

        let out = run_blackbox(&[path.display().to_string()]).expect("renders");
        assert!(out.message.contains("reason=signal"), "{}", out.message);
        assert!(out.message.contains("r000042"), "{}", out.message);
        assert!(out.message.contains("route_salvaged"), "{}", out.message);
        assert!(!out.degraded);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_non_dump_json() {
        let dir = scratch_dir("reject");
        let path = dir.join("not-a-dump.json");
        std::fs::write(&path, "{\"schema_version\": 99}").unwrap();
        let err = run_blackbox(&[path.display().to_string()]).unwrap_err();
        assert!(
            err.to_string().contains("unsupported schema_version 99"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn requires_exactly_one_path() {
        assert!(run_blackbox(&[]).is_err());
    }
}
