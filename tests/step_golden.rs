//! Step-level golden: garbage collection with live relocations.
//!
//! A small phantom device at high fill steps a half-hot state (only the
//! first half of the update groups carry gradients, the rest are lazily
//! skipped) with static wear levelling armed, so relocations move valid
//! cold pages and the test asserts that some do. Every step's `StepReport` and the device's `DeviceStats` are
//! pinned, `Debug` string for string, to `tests/golden/step_reports.txt`
//! for three cells: die-NDP on the co-located layout, die-NDP on the
//! tensor-striped layout (remote operands and write-backs) and the host
//! NVMe tier. A fourth cell arms the opt-in subsystems — mapping journal,
//! RAIN parity and patrol scrub — on a die-NDP device and destroys one
//! page between two steps, so the journal, parity rebuild, degraded read
//! and scrub paths all run and are pinned too. A change that must not
//! move simulated results keeps this file byte-identical.

use optimstore::optim_math::OptimizerKind;
use optimstore::optimstore_core::{LayoutPolicy, OptimStoreConfig, OptimStoreDevice};
use optimstore::simkit::SimTime;
use optimstore::ssdsim::{JournalConfig, Lpn, RainConfig, ScrubConfig, SsdConfig};
use optimstore_bench::runners::{host_tier, optimizer_and_spec};
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/step_reports.txt");
/// Share of logical pages the optimizer state occupies in the GC cells.
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

fn build(ssd: SsdConfig, cfg: OptimStoreConfig, params: u64) -> OptimStoreDevice {
    let (optimizer, spec) = optimizer_and_spec(OptimizerKind::Adam);
    OptimStoreDevice::new(ssd, cfg, params, optimizer, spec).expect("the state is sized to fit")
}

/// Parameters whose layout fills `fill` of the device's logical pages.
fn params(ssd: SsdConfig, cfg: OptimStoreConfig, fill: f64) -> u64 {
    let probe = build(ssd, cfg, 1);
    let layout = probe.layout();
    let groups = (probe.ssd().logical_pages() as f64 * fill) as u64
        / layout.lpns_per_group() as u64
        / layout.dies() as u64
        * layout.dies() as u64;
    groups * layout.params_per_group()
}

/// Runs one cell and renders its step reports and final device stats;
/// also returns the GC copies the steps made.
fn render(label: &str, cfg: OptimStoreConfig) -> (String, u64) {
    let params = params(ssd(), cfg, FILL);
    let mut dev = build(ssd(), cfg, params);
    dev.set_phantom_hot_fraction(HOT);
    let mut at = dev.load_phantom(SimTime::ZERO).expect("phantom load");
    let copies_before = dev.ssd().stats().gc_copies.get();
    let mut out = format!("=== {label}: params {params}\n");
    for step in 1..=STEPS {
        let r = dev.run_step(None, at).expect("step");
        at = r.end;
        writeln!(out, "step {step} {r:?}").expect("write to String");
    }
    writeln!(out, "stats {:?}", dev.ssd().stats()).expect("write to String");
    (out, dev.ssd().stats().gc_copies.get() - copies_before)
}

/// Share of logical pages the opt-in cell's state occupies: parity pages
/// and the shadow-paged committed versions need the rest.
const OPT_IN_FILL: f64 = 0.25;
/// The opt-in cell destroys a page after this step, once its stripe's
/// parity has been rebuilt by the step's commit.
const LOSS_AFTER_STEP: usize = 3;

/// The opt-in cell: journal, RAIN and scrub armed on the tiny device; one
/// page lost between two steps is served from its stripe peers.
fn render_opt_in() -> String {
    let label = "die-ndp journal+rain+scrub";
    let ssd = SsdConfig::tiny()
        .with_journal(JournalConfig::every(16))
        .with_rain(RainConfig::rotating())
        .with_scrub(ScrubConfig::per_step(64));
    let cfg = OptimStoreConfig::die_ndp();
    let params = params(ssd, cfg, OPT_IN_FILL);
    let mut dev = build(ssd, cfg, params);
    let mut at = dev.load_phantom(SimTime::ZERO).expect("phantom load");
    let mut out = format!("=== {label}: params {params}\n");
    for step in 1..=STEPS {
        let r = dev.run_step(None, at).expect("step");
        at = r.end;
        writeln!(out, "step {step} {r:?}").expect("write to String");
        if step == LOSS_AFTER_STEP {
            assert!(dev.ssd().parity_clean(), "the commit rebuilt every stripe");
            dev.ssd_mut()
                .inject_page_loss(Lpn(0))
                .expect("lpn 0 is mapped");
        }
    }
    let stats = dev.ssd().stats();
    for (name, count) in [
        ("journal_pages", stats.journal_pages.get()),
        ("parity_writes", stats.parity_writes.get()),
        ("parity_reconstructions", stats.parity_reconstructions.get()),
        ("scrub_reads", stats.scrub_reads.get()),
    ] {
        assert!(count > 0, "{label}: no {name}");
    }
    writeln!(out, "stats {stats:?}").expect("write to String");
    out
}

#[test]
fn step_reports_match_golden() {
    let mut got = String::new();
    for (label, cfg) in cells() {
        let (text, copies) = render(label, cfg);
        assert!(copies > 0, "{label}: GC relocated no valid page");
        got.push_str(&text);
    }
    got.push_str(&render_opt_in());
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
