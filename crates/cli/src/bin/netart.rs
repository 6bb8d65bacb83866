//! The `netart` umbrella program: the full pipeline in one invocation;
//! see [`netart_cli::run_netart`]. The `report diff` subcommand
//! compares two run-report or heat-map profile files; see
//! [`netart_cli::run_report_diff`]. The `batch` subcommand runs many
//! inputs on a resilient worker pool; see [`netart_cli::run_batch`].
//! The `serve` subcommand keeps the pipeline resident behind an HTTP
//! endpoint; see [`netart_cli::run_serve`]. The `profile` subcommand
//! renders the routing heat map of one design; see
//! [`netart_cli::run_profile`]. The `stress` subcommand generates
//! big-N and adversarial workloads and pushes them through the
//! memory-governed ingestion path; see [`netart_cli::run_stress`].
//! The `blackbox` subcommand renders a flight-recorder dump written by
//! `serve` or `batch` as a timeline; see [`netart_cli::run_blackbox`].
//!
//! Exit codes: 0 clean, 2 degraded (salvaged or ghost-wired nets, or a
//! recovered phase crash; 1 under `--strict`), 1 failed outright.
//! `report diff` exits 0 when clean, 3 on regression, 1 on error.
//! `batch` exits 0 when every job is ok, 2 when any job degraded,
//! failed, was quarantined or skipped, 1 when the batch could not run.
//! `serve` exits 0 on a clean signal-driven drain, 1 when it could not
//! boot.

use std::process::ExitCode;

use netart_cli::{CliError, RunOutput};

type Command = fn(&[String]) -> Result<RunOutput, CliError>;

/// The subcommands, matched by their leading words in order; anything
/// else is the umbrella pipeline itself.
const SUBCOMMANDS: &[(&[&str], Command)] = &[
    (&["batch"], |argv| {
        netart_cli::install_drain_handlers();
        netart_cli::run_batch(argv)
    }),
    (&["serve"], |argv| {
        netart_cli::install_drain_handlers();
        netart_cli::install_flight_handler();
        netart_cli::run_serve(argv)
    }),
    (&["stress"], netart_cli::run_stress),
    (&["profile"], netart_cli::run_profile),
    (&["blackbox"], netart_cli::run_blackbox),
    (&["report", "diff"], netart_cli::run_report_diff),
    (&["report"], |_| {
        Err(CliError::Other("unknown subcommand (expected `diff`)".into()))
    }),
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for (words, run) in SUBCOMMANDS {
        if argv.len() >= words.len() && argv.iter().zip(*words).all(|(a, w)| a == w) {
            let tool = format!("netart {}", words.join(" "));
            return netart_cli::finish(&tool, run(&argv[words.len()..]));
        }
    }
    netart_cli::finish("netart", netart_cli::run_netart(&argv))
}
