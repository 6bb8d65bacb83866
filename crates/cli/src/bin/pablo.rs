//! The `pablo` program; see [`netart_cli::run_pablo`].

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    netart_cli::finish("pablo", netart_cli::run_pablo(&argv))
}
