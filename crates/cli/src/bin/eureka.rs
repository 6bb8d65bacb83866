//! The `eureka` program; see [`netart_cli::run_eureka`].
//!
//! Exit codes: 0 clean, 2 degraded (salvaged or ghost-wired nets;
//! 1 under `--strict`), 1 failed outright.

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    netart_cli::finish("eureka", netart_cli::run_eureka(&argv))
}
