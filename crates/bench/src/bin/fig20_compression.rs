//! Regenerates the reconstructed experiment `fig20_compression` (see
//! DESIGN.md §4). Pass a parameter cap as the first argument.

fn main() {
    optimstore_bench::experiments::fig20_compression(optimstore_bench::runners::cap_arg());
}
