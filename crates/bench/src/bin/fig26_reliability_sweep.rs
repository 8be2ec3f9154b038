//! Regenerates the reconstructed experiment `fig26_reliability_sweep`
//! (see DESIGN.md §4). The sweep is functional; the parameter cap bounds
//! the model size per cell (clamped to the sweep's working range), so CI
//! can run a smoke-sized grid.

fn main() {
    optimstore_bench::experiments::fig26_reliability_sweep(optimstore_bench::runners::cap_arg());
}
