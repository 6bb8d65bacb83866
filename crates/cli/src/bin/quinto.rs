//! The `quinto` program; see [`netart_cli::run_quinto`].

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    netart_cli::finish("quinto", netart_cli::run_quinto(&argv))
}
