#![forbid(unsafe_code)]
//! `mlconf` binary entry point: parse, dispatch, print.

use std::process::ExitCode;

use mlconf_cli::commands::{dispatch, CliError};

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!("run `mlconf help` for usage");
            ExitCode::from(2)
        }
        Err(CliError::Failed(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
