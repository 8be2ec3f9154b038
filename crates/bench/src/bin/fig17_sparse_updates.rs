//! Regenerates the reconstructed experiment `fig17_sparse_updates` (see DESIGN.md §4).
//! Pass a parameter cap as the first argument to trade fidelity for time.

fn main() {
    optimstore_bench::experiments::fig17_sparse_updates(optimstore_bench::runners::cap_arg());
}
