//! Regenerates the reconstructed experiment `table21_time_to_train` (see
//! DESIGN.md §4). Pass a parameter cap as the first argument.

fn main() {
    optimstore_bench::experiments::table21_time_to_train(optimstore_bench::runners::cap_arg());
}
