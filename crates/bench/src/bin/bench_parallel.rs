//! Serial-vs-parallel wall-clock for the deterministic data plane
//! (`simkit::par`): runs the functional integration workload (every
//! optimizer, die- and channel-level NDP) and the fig26 sweep grid with
//! the pool forced to one thread and at the host's full width, timing the
//! two widths in alternation, verifies every run of each is bit-identical,
//! and writes each width's median time to `BENCH_parallel.json` (path
//! overridable as the first argument).
//!
//! Exits non-zero if the parallel functional median is slower than the
//! serial one on a multi-core host (on a single-core host the comparison
//! is recorded but not enforced — there is nothing to win).

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

/// Timed passes per width: an odd count, so the median is one pass.
const ROUNDS: usize = 3;

/// Times `f` with the pool forced serial and at `width`, and returns each
/// side's median over [`ROUNDS`] passes. One untimed run at each width
/// comes first, so neither side pays first-touch costs (page faults, lazy
/// allocation, workers waking after an idle stretch) the other doesn't.
/// The timed passes then alternate serial and parallel, so a host that
/// speeds up or slows down while the binary runs (CPU frequency, vCPU
/// scheduling after an idle stretch) moves both sides alike instead of
/// favouring whichever ran last. Panics unless every run returns the
/// same output.
fn measure<R: PartialEq>(name: &'static str, width: usize, f: impl Fn() -> R) -> Entry {
    simkit::par::set_threads(1);
    let (_, reference) = timed(&f);
    let run_at = |threads: usize| {
        simkit::par::set_threads(threads);
        let (secs, out) = timed(&f);
        // The whole point of the split: any pool width produces the same bytes.
        assert!(
            out == reference,
            "{name}: a {threads}-thread run diverged from serial"
        );
        secs
    };
    run_at(width);
    let (mut serial, mut parallel) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        serial.push(run_at(1));
        parallel.push(run_at(width));
    }
    simkit::par::set_threads(0);
    Entry {
        name,
        serial_secs: median(serial),
        parallel_secs: median(parallel),
    }
}

fn median(mut secs: Vec<f64>) -> f64 {
    secs.sort_by(f64::total_cmp);
    secs[secs.len() / 2]
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
        "functional suite, median of {ROUNDS}: serial {:.2}s, parallel {:.2}s ({} threads, {:.2}x), bit-exact",
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
    json.push_str(&format!("  \"rounds\": {ROUNDS},\n"));
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
