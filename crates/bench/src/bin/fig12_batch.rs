//! Regenerates the reconstructed experiment `fig12_batch` (see DESIGN.md §4).
//! Pass a parameter cap as the first argument to trade fidelity for time
//! (default: the standard slice cap).

fn main() {
    optimstore_bench::experiments::fig12_batch(optimstore_bench::runners::cap_arg());
}
