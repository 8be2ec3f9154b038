//! Regenerates the reconstructed experiment `fig24_fault_sweep` (see
//! DESIGN.md §4). Pass a parameter cap as the first argument to trade
//! fidelity for time.

fn main() {
    optimstore_bench::experiments::fig24_fault_sweep(optimstore_bench::runners::cap_arg());
}
