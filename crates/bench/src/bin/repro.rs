//! `repro [section…]` — prints the paper's reproduction (every section,
//! or the named ones) and exits non-zero if any claim in it failed. See
//! the `ugc_bench` crate docs.

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    match ugc_bench::run(&names) {
        Ok(report) => {
            print!("{}", report.text());
            ExitCode::from(report.exit_status())
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
