//! Regenerates the reconstructed experiment `fig9_energy` (see DESIGN.md §4).
//! Pass a parameter cap as the first argument to trade fidelity for time
//! (default: the standard slice cap).

fn main() {
    optimstore_bench::experiments::fig9_energy(optimstore_bench::runners::cap_arg());
}
