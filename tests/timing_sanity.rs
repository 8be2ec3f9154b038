//! Timing sanity across crates: the relationships the paper's argument
//! rests on must hold in the event simulation, not just the analytic
//! audit. Every run keeps the full 2²²-parameter simulated slice (the
//! timing relationships need its steady-state depth) on the real part
//! geometry.

use optimstore::optim_math::OptimizerKind;
use optimstore::optimstore_core::{OptimStoreConfig, OptimStoreDevice, StepReport, TrafficBytes};
use optimstore::simkit::SimTime;
use optimstore::ssdsim::{PciGen, SsdConfig};
use optimstore_bench::runners::{host_tier, measure, optimizer_and_spec};

const MODEL: u64 = 1_000_000_000; // 1 B params

/// Simulated-slice cap.
const CAP: u64 = 1 << 22;

#[test]
fn tier_ordering_holds_in_simulation() {
    let ssd = SsdConfig::base();
    let host = measure(&ssd, &host_tier(), OptimizerKind::Adam, MODEL, CAP);
    let ch = measure(
        &ssd,
        &OptimStoreConfig::channel_ndp(),
        OptimizerKind::Adam,
        MODEL,
        CAP,
    );
    let die = measure(
        &ssd,
        &OptimStoreConfig::die_ndp(),
        OptimizerKind::Adam,
        MODEL,
        CAP,
    );
    assert!(
        die.step_time < ch.step_time && ch.step_time < host.step_time,
        "expected die < channel < host, got {} / {} / {}",
        die.step_time,
        ch.step_time,
        host.step_time
    );
    // The paper's headline factor: several-fold over host offload.
    let speedup = host.step_time.as_secs_f64() / die.step_time.as_secs_f64();
    assert!((2.0..10.0).contains(&speedup), "die-ndp speedup {speedup}");
}

#[test]
fn more_dies_make_die_ndp_faster_not_host() {
    let small = SsdConfig::small();
    let base = SsdConfig::base();
    let die_small = measure(
        &small,
        &OptimStoreConfig::die_ndp(),
        OptimizerKind::Adam,
        MODEL,
        CAP,
    );
    let die_base = measure(
        &base,
        &OptimStoreConfig::die_ndp(),
        OptimizerKind::Adam,
        MODEL,
        CAP,
    );
    // 16 → 64 dies: near-linear internal scaling.
    let scale = die_small.step_time.as_secs_f64() / die_base.step_time.as_secs_f64();
    assert!(
        scale > 3.0,
        "die-ndp scaling with 4x dies was only {scale:.2}x"
    );

    let host_small = measure(&small, &host_tier(), OptimizerKind::Adam, MODEL, CAP);
    let host_base = measure(&base, &host_tier(), OptimizerKind::Adam, MODEL, CAP);
    let host_scale = host_small.step_time.as_secs_f64() / host_base.step_time.as_secs_f64();
    assert!(
        host_scale < scale,
        "host offload must scale worse than die-ndp ({host_scale:.2} vs {scale:.2})"
    );
}

#[test]
fn host_improves_with_pcie_but_die_ndp_does_not_care() {
    let mut gen3 = SsdConfig::base();
    gen3.pcie = PciGen::Custom(2_000_000_000);
    let mut gen5 = SsdConfig::base();
    gen5.pcie = PciGen::Custom(16_000_000_000);

    let host3 = measure(&gen3, &host_tier(), OptimizerKind::Adam, MODEL, CAP);
    let host5 = measure(&gen5, &host_tier(), OptimizerKind::Adam, MODEL, CAP);
    assert!(
        host5.step_time.as_secs_f64() < host3.step_time.as_secs_f64() * 0.8,
        "host must benefit substantially from faster PCIe: {} vs {}",
        host3.step_time,
        host5.step_time
    );

    let die3 = measure(
        &gen3,
        &OptimStoreConfig::die_ndp(),
        OptimizerKind::Adam,
        MODEL,
        CAP,
    );
    let die5 = measure(
        &gen5,
        &OptimStoreConfig::die_ndp(),
        OptimizerKind::Adam,
        MODEL,
        CAP,
    );
    let change = (die3.step_time.as_secs_f64() - die5.step_time.as_secs_f64()).abs()
        / die5.step_time.as_secs_f64();
    assert!(
        change < 0.10,
        "die-ndp should be nearly PCIe-insensitive, changed {:.1}%",
        change * 100.0
    );
}

#[test]
fn traffic_accounting_matches_state_arithmetic() {
    let ssd = SsdConfig::base();
    let die = measure(
        &ssd,
        &OptimStoreConfig::die_ndp(),
        OptimizerKind::Adam,
        MODEL,
        CAP,
    );
    // Adam: 12 B/param read, 14 B/param written, 2 B/param of gradient in.
    // Page padding inflates by < 1% at this scale.
    let tol = 0.02;
    let per_param = |bytes: u64| bytes as f64 / MODEL as f64;
    assert!((per_param(die.traffic.array_read) - 12.0).abs() / 12.0 < tol);
    assert!((per_param(die.traffic.array_program) - 14.0).abs() / 14.0 < tol);
    assert!((per_param(die.traffic.pcie_in) - 2.0).abs() / 2.0 < tol);
    assert_eq!(die.traffic.pcie_out, 0);

    let host = measure(&ssd, &host_tier(), OptimizerKind::Adam, MODEL, CAP);
    assert!((per_param(host.traffic.pcie_out) - 14.0).abs() / 14.0 < tol);
    assert!((per_param(host.traffic.pcie_in) - 14.0).abs() / 14.0 < tol);
}

#[test]
fn energy_hierarchy_holds() {
    let ssd = SsdConfig::base();
    let die = measure(
        &ssd,
        &OptimStoreConfig::die_ndp(),
        OptimizerKind::Adam,
        MODEL,
        CAP,
    );
    let ch = measure(
        &ssd,
        &OptimStoreConfig::channel_ndp(),
        OptimizerKind::Adam,
        MODEL,
        CAP,
    );
    let host = measure(&ssd, &host_tier(), OptimizerKind::Adam, MODEL, CAP);
    assert!(die.energy.total() < ch.energy.total());
    assert!(ch.energy.total() < host.energy.total());
    // Most of the host's energy is in moving bytes off-device.
    assert!(host.energy.pcie + host.energy.host + host.energy.dram > host.energy.total() * 0.5);
}

#[test]
fn simulation_is_deterministic() {
    let ssd = SsdConfig::base();
    let a = measure(
        &ssd,
        &OptimStoreConfig::die_ndp(),
        OptimizerKind::Adam,
        MODEL,
        CAP,
    );
    let b = measure(
        &ssd,
        &OptimStoreConfig::die_ndp(),
        OptimizerKind::Adam,
        MODEL,
        CAP,
    );
    assert_eq!(a.step_time, b.step_time);
    assert_eq!(a.traffic, b.traffic);
}

/// One step's simulated outcome, as pinned below: `(start ns, end ns,
/// traffic, erases, gc_copies)`.
type Pinned = (u64, u64, TrafficBytes, u64, u64);

fn pinned(r: &StepReport) -> Pinned {
    (
        r.start.as_ns(),
        r.end.as_ns(),
        r.traffic,
        r.erases,
        r.gc_copies,
    )
}

/// Parameters for the pinned runs: enough state on the tiny device that
/// both steps reclaim blocks.
const PINNED_PARAMS: u64 = 2_500_000;

/// Phantom load plus two steps of one tier on the tiny device (the host
/// tier spills each step's gradients before it starts).
fn two_steps(cfg: OptimStoreConfig) -> [Pinned; 2] {
    let (optimizer, spec) = optimizer_and_spec(OptimizerKind::Adam);
    let mut dev =
        OptimStoreDevice::new(SsdConfig::tiny(), cfg, PINNED_PARAMS, optimizer, spec).unwrap();
    let t0 = dev.load_phantom(SimTime::ZERO).unwrap();
    let r1 = dev.run_step(None, t0).unwrap();
    let r2 = dev.run_step(None, r1.end).unwrap();
    [pinned(&r1), pinned(&r2)]
}

const fn traffic(
    pcie_in: u64,
    pcie_out: u64,
    bus: u64,
    array_read: u64,
    array_program: u64,
    dram: u64,
) -> TrafficBytes {
    TrafficBytes {
        pcie_in,
        pcie_out,
        bus,
        array_read,
        array_program,
        dram,
    }
}

/// Every tier's simulated step timing, traffic and reclamation are pinned
/// to recorded values, so a refactor of the step engine that moves any
/// schedule by a nanosecond fails here.
#[test]
fn step_timing_is_pinned_for_every_tier() {
    let ndp_traffic = |bus| traffic(5_001_216, 0, bus, 30_007_296, 35_008_512, 10_002_432);
    assert_eq!(
        two_steps(OptimStoreConfig::die_ndp()),
        [
            (374_858_854, 917_400_866, ndp_traffic(5_587_296), 40, 0),
            (917_400_866, 1_780_915_976, ndp_traffic(5_587_296), 280, 0),
        ],
        "die-ndp"
    );
    assert_eq!(
        two_steps(OptimStoreConfig::channel_ndp()),
        [
            (374_858_854, 958_096_560, ndp_traffic(72_634_848), 40, 0),
            (958_096_560, 2_012_451_216, ndp_traffic(72_634_848), 280, 0),
        ],
        "channel-ndp"
    );
    let host_traffic = traffic(
        35_008_512,
        35_008_512,
        78_222_144,
        35_008_512,
        35_008_512,
        140_034_048,
    );
    assert_eq!(
        two_steps(host_tier()),
        [
            (481_971_522, 1_295_927_152, host_traffic, 120, 0),
            (1_433_032_192, 2_360_790_850, host_traffic, 265, 0),
        ],
        "host-nvme"
    );
}
