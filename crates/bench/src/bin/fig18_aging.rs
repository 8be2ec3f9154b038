//! Regenerates the reconstructed experiment `fig18_aging` (see DESIGN.md §4).
//! Pass a parameter cap as the first argument to trade fidelity for time.

fn main() {
    optimstore_bench::experiments::fig18_aging(optimstore_bench::runners::cap_arg());
}
