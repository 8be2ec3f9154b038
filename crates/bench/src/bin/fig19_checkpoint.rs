//! Regenerates the reconstructed experiment `fig19_checkpoint` (see DESIGN.md §4).
//! Pass a parameter cap as the first argument to trade fidelity for time.

fn main() {
    optimstore_bench::experiments::fig19_checkpoint(optimstore_bench::runners::cap_arg());
}
