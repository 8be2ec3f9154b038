//! Regenerates the reconstructed experiment `fig6_end_to_end` (see DESIGN.md §4).
//! Pass a parameter cap as the first argument to trade fidelity for time
//! (default: the standard slice cap).

fn main() {
    optimstore_bench::experiments::fig6_end_to_end(optimstore_bench::runners::cap_arg());
}
