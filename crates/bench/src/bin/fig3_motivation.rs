//! Regenerates the reconstructed experiment `fig3_motivation` (see DESIGN.md §4).
//! Pass a parameter cap as the first argument to trade fidelity for time
//! (default: the standard slice cap).

fn main() {
    optimstore_bench::experiments::fig3_motivation(optimstore_bench::runners::cap_arg());
}
