//! Regenerates every reconstructed table and figure in one run.
//! Pass a parameter cap as the first argument to trade fidelity for time.

fn main() {
    optimstore_bench::experiments::run_all(optimstore_bench::runners::cap_arg());
}
