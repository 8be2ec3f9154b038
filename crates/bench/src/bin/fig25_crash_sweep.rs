//! Regenerates the reconstructed experiment `fig25_crash_sweep` (see
//! DESIGN.md §4). The sweep is functional and fixed-size, so the
//! parameter cap is accepted for interface symmetry but unused.

fn main() {
    optimstore_bench::experiments::fig25_crash_sweep(optimstore_bench::runners::cap_arg());
}
