//! Regenerates the reconstructed experiment `fig23_scheduler_granularity`
//! (see DESIGN.md §4). Pass a parameter cap as the first argument.

fn main() {
    optimstore_bench::experiments::fig23_scheduler_granularity(optimstore_bench::runners::cap_arg());
}
