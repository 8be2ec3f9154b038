//! Serial-vs-parallel wall-clock for the deterministic data plane
//! (`simkit::par`): runs the functional integration workload (every
//! optimizer, die- and channel-level NDP) and the fig26 sweep grid
//! twice — pool forced to one thread, then to the host's full width —
//! verifies the two runs of each are bit-identical, and writes the
//! timings to `BENCH_parallel.json` (path overridable as the first
//! argument).
//!
//! Exits non-zero if the parallel functional run is slower than the serial
//! one on a multi-core host (on a single-core host the comparison is
//! recorded but not enforced — there is nothing to win).

use std::time::Instant;

use optim_math::OptimizerKind;
use optimstore_bench::experiments::fig26_reliability_sweep;
use optimstore_bench::runners::{Context, SeededRun};
use optimstore_core::OptimStoreConfig;
use simkit::par;
use ssdsim::SsdConfig;

const RUN: SeededRun = SeededRun {
    params: 200_000,
    seed: 0xBE2C,
};
const STEPS: u64 = 4;
const FIG26_CAP: u64 = 40_000;

/// The functional integration workload: every optimizer on both NDP tiers,
/// each cell a fresh device trained `STEPS` seeded steps and read back
/// (the bits of its final master weights are the witness). Cells fan out
/// on the pool (so the harness level is exercised) and each `run_step`
/// inside exercises the executor's data-plane phases.
fn functional_suite() -> Vec<Vec<u32>> {
    let cells: Vec<_> = OptimizerKind::all()
        .into_iter()
        .flat_map(|kind| {
            [OptimStoreConfig::die_ndp(), OptimStoreConfig::channel_ndp()].map(|cfg| (kind, cfg))
        })
        .collect();
    par::map_indexed(&cells, |_, &(kind, cfg)| {
        let (mut dev, at) = RUN.load(SsdConfig::tiny(), cfg, kind);
        let at = RUN.train(&mut dev, 1..=STEPS, at);
        let weights = dev.read_master_weights(at).expect("readback");
        weights.iter().map(|w| w.to_bits()).collect::<Vec<_>>()
    })
}

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

struct Entry {
    name: &'static str,
    serial_secs: f64,
    parallel_secs: f64,
}

impl Entry {
    fn speedup(&self) -> f64 {
        if self.parallel_secs > 0.0 {
            self.serial_secs / self.parallel_secs
        } else {
            1.0
        }
    }
}

/// Times `f` with the pool forced serial, then at `width`. Each timed run
/// follows an untimed one at its own width, so neither pays first-touch
/// costs (page faults, lazy allocation, workers waking after an idle
/// stretch) the other doesn't — without the serial warm-up the second run
/// shows a phantom "speedup" even on a single-core host. Panics unless
/// both runs return the same output.
fn measure<R: PartialEq>(name: &'static str, width: usize, f: impl Fn() -> R) -> Entry {
    simkit::par::set_threads(1);
    drop(timed(&f));
    let (serial_secs, serial_out) = timed(&f);
    simkit::par::set_threads(width);
    drop(timed(&f));
    let (parallel_secs, parallel_out) = timed(&f);
    simkit::par::set_threads(0);
    // The whole point of the split: any pool width produces the same bytes.
    assert!(
        serial_out == parallel_out,
        "{name}: parallel run diverged from serial"
    );
    Entry {
        name,
        serial_secs,
        parallel_secs,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_parallel.json".into());
    let width = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let suite = measure("functional-suite", width, functional_suite);
    println!(
        "functional suite: serial {:.2}s, parallel {:.2}s ({} threads, {:.2}x), bit-exact",
        suite.serial_secs,
        suite.parallel_secs,
        width,
        suite.speedup()
    );

    let fig26 = measure("fig26-reliability-sweep", width, || {
        fig26_reliability_sweep(&Context::new(FIG26_CAP))
    });

    let entries = [&suite, &fig26];
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"pool_width\": {width},\n"));
    json.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"serial_secs\": {:.3}, \"parallel_secs\": {:.3}, \"speedup\": {:.3}}}{}\n",
            e.name,
            e.serial_secs,
            e.parallel_secs,
            e.speedup(),
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_parallel.json");
    println!("wrote {out_path}");
    for e in entries {
        println!(
            "  {:<24} serial {:>7.2}s  parallel {:>7.2}s  {:>5.2}x",
            e.name,
            e.serial_secs,
            e.parallel_secs,
            e.speedup()
        );
    }

    if width >= 2 && suite.parallel_secs > suite.serial_secs {
        eprintln!(
            "FAIL: parallel functional suite ({:.2}s) slower than serial ({:.2}s) on {} threads",
            suite.parallel_secs, suite.serial_secs, width
        );
        std::process::exit(1);
    }
}
