//! Step-level golden: garbage collection with live relocations.
//!
//! A small phantom device at high fill steps a half-hot state (only the
//! first half of the update groups carry gradients, the rest are lazily
//! skipped) with static wear levelling armed, so relocations move valid
//! cold pages and the test asserts that some do. Every step's `StepReport` and the device's `DeviceStats` are
//! pinned, `Debug` string for string, to `tests/golden/step_reports.txt`
//! for three cells: die-NDP on the co-located layout, die-NDP on the
//! tensor-striped layout (remote operands and write-backs) and the host
//! NVMe tier. A change that must not move simulated results keeps this
//! file byte-identical.

use optimstore::optim_math::OptimizerKind;
use optimstore::optimstore_core::{
    ExecutionTier, LayoutPolicy, OptimStoreConfig, OptimStoreDevice,
};
use optimstore::simkit::SimTime;
use optimstore::ssdsim::SsdConfig;
use optimstore_bench::runners::{host_tier, optimizer_and_spec};
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/step_reports.txt");
/// Share of logical pages the optimizer state occupies.
const FILL: f64 = 0.9;
/// Share of update groups with non-zero gradients.
const HOT: f64 = 0.5;
const STEPS: usize = 6;

fn cells() -> [(&'static str, OptimStoreConfig); 3] {
    let skip = |cfg: OptimStoreConfig| OptimStoreConfig {
        skip_zero_gradients: true,
        ..cfg
    };
    [
        ("die-ndp co-located", skip(OptimStoreConfig::die_ndp())),
        (
            "die-ndp tensor-striped",
            skip(OptimStoreConfig {
                layout: LayoutPolicy::TensorStriped,
                ..OptimStoreConfig::die_ndp()
            }),
        ),
        ("host-nvme", skip(host_tier())),
    ]
}

/// The tiny device with static wear levelling armed: the cold half's
/// blocks never wear, so the levelling migrates them into the hot half's
/// blocks and later GC victims hold live cold pages.
fn ssd() -> SsdConfig {
    let mut ssd = SsdConfig::tiny();
    ssd.gc.static_wl_threshold = Some(2);
    ssd
}

fn build(cfg: OptimStoreConfig, params: u64) -> OptimStoreDevice {
    let (optimizer, spec) = optimizer_and_spec(OptimizerKind::Adam);
    OptimStoreDevice::new(ssd(), cfg, params, optimizer, spec).expect("the state is sized to fit")
}

/// Parameters whose layout fills [`FILL`] of the device's logical pages.
fn params(cfg: OptimStoreConfig) -> u64 {
    let probe = build(cfg, 1);
    let layout = probe.layout();
    let groups = (probe.ssd().logical_pages() as f64 * FILL) as u64
        / layout.lpns_per_group() as u64
        / layout.dies() as u64
        * layout.dies() as u64;
    groups * layout.params_per_group()
}

/// Runs one cell and renders its step reports and final device stats;
/// also returns the GC copies the steps made.
fn render(label: &str, cfg: OptimStoreConfig) -> (String, u64) {
    let params = params(cfg);
    let mut dev = build(cfg, params);
    dev.set_phantom_hot_fraction(HOT);
    let mut at = dev.load_phantom(SimTime::ZERO).expect("phantom load");
    let copies_before = dev.ssd().stats().gc_copies.get();
    let mut out = format!("=== {label}: params {params}\n");
    for step in 1..=STEPS {
        if dev.config().tier == ExecutionTier::HostNvme {
            at = dev.spill_gradients(None, at).expect("gradient spill");
        }
        let r = dev.run_step(None, at).expect("step");
        at = r.end;
        writeln!(out, "step {step} {r:?}").expect("write to String");
    }
    writeln!(out, "stats {:?}", dev.ssd().stats()).expect("write to String");
    (out, dev.ssd().stats().gc_copies.get() - copies_before)
}

#[test]
fn step_reports_match_golden() {
    let mut got = String::new();
    for (label, cfg) in cells() {
        let (text, copies) = render(label, cfg);
        assert!(copies > 0, "{label}: GC relocated no valid page");
        got.push_str(&text);
    }
    if got != GOLDEN {
        eprintln!("--- actual step reports ---\n{got}--- end ---");
        let line = got
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "step reports differ from tests/golden/step_reports.txt at line {}",
            line + 1
        );
    }
}
