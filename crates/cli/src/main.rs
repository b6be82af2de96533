//! `iawj` — command-line driver for the intra-window-join study.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    iawj_cli::emit(
        iawj_cli::run_cli(&args),
        std::io::stdout().lock(),
        std::io::stderr().lock(),
    )
}
