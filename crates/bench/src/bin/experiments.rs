//! Regenerates the reconstructed tables and figures (see DESIGN.md §4).
//!
//! `experiments <id>|all [cap]`: runs one registered experiment, or all of
//! them in order, at a parameter cap that trades fidelity for time
//! (default: the standard slice cap). Bad arguments print the usage with
//! every registered id and exit with status 2.

use optimstore_bench::experiments::{parse_args, usage};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(invocation) => invocation.run(),
        Err(e) => {
            eprintln!("experiments: {e}\n{}", usage());
            std::process::exit(2);
        }
    }
}
