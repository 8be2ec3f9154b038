//! Garbage collection under sustained optimizer steps: the FTL must keep
//! reclaiming space forever, data must survive physical relocation, and
//! the endurance accounting must stay consistent.

use optimstore::optim_math::kernels::{encode_grads, StateBuffers};
use optimstore::optim_math::state::{GradDtype, StateLayoutSpec};
use optimstore::optim_math::{Adam, OptimizerKind};
use optimstore::optimstore_core::endurance::EnduranceReport;
use optimstore::optimstore_core::{OptimStoreConfig, OptimStoreDevice};
use optimstore::simkit::{SimDuration, SimTime};
use optimstore::ssdsim::SsdConfig;
use optimstore::workloads::{GradientGen, WeightInit};

/// Enough parameters that repeated whole-state rewrites exhaust the tiny
/// device's free blocks several times over.
const PARAMS: usize = 200_000;
const STEPS: u64 = 50;

#[test]
fn sustained_steps_survive_gc_bit_exactly() {
    let spec = StateLayoutSpec::new(OptimizerKind::Adam, GradDtype::F16);
    let mut dev = OptimStoreDevice::new_functional(
        SsdConfig::tiny(),
        OptimStoreConfig::die_ndp(),
        PARAMS as u64,
        Box::new(Adam::default()),
        spec,
    )
    .unwrap();
    let weights = WeightInit::default().generate(PARAMS);
    let mut at = dev.load_weights(&weights, SimTime::ZERO).unwrap();

    let gen = GradientGen::new(1234);
    let adam = Adam::default();
    let mut reference = StateBuffers::init(&adam, &weights, GradDtype::F16);

    for step in 1..=STEPS {
        let grads = gen.generate(step, PARAMS);
        at = dev.run_step(Some(&grads), at).unwrap().end;
        reference
            .step(
                &adam,
                &encode_grads(&grads, GradDtype::F16),
                GradDtype::F16,
                step,
            )
            .unwrap();
    }

    // GC must actually have run for the test to mean anything.
    let erases = dev.ssd().stats().erases.get();
    assert!(erases > 50, "expected heavy GC, saw only {erases} erases");

    // Bit-exact state after dozens of physical relocations.
    let got = dev.read_master_weights(at).unwrap();
    let expect = reference.weights_f32();
    for (i, (a, b)) in got.iter().zip(&expect).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "param {i} diverged after GC");
    }
}

#[test]
fn endurance_report_is_consistent_with_device_state() {
    let spec = StateLayoutSpec::new(OptimizerKind::Adam, GradDtype::F16);
    let mut dev = OptimStoreDevice::new(
        SsdConfig::tiny(),
        OptimStoreConfig::die_ndp(),
        PARAMS as u64,
        Box::new(Adam::default()),
        spec,
    )
    .unwrap();
    let mut at = dev.load_phantom(SimTime::ZERO).unwrap();
    for _ in 0..STEPS {
        at = dev.run_step(None, at).unwrap().end;
    }
    let report = EnduranceReport::measure(dev.ssd(), STEPS);
    assert!(report.erases_per_step > 0.0);
    assert!(report.wear_imbalance >= 1.0);
    assert!(report.projection.steps_to_exhaustion.is_finite());
    assert!(
        report.projection.steps_to_exhaustion_imbalanced <= report.projection.steps_to_exhaustion
    );
    // Total erases recomputed from the rate must match the device.
    let total = (report.erases_per_step * STEPS as f64).round() as u64;
    assert_eq!(total, dev.ssd().total_erases());
}

#[test]
fn wear_leveling_reduces_imbalance_under_hot_cold_traffic() {
    use optimstore::ssdsim::{Device, GcPolicy, Lpn};

    let run = |wear_leveling: bool| {
        let mut cfg = SsdConfig::tiny();
        cfg.gc = GcPolicy {
            wear_leveling,
            ..GcPolicy::default()
        };
        let mut dev = Device::new(cfg);
        let pages = dev.logical_pages();
        for i in 0..pages {
            dev.host_write_page(Lpn(i), None, SimTime::ZERO).unwrap();
        }
        // Hammer a small hot set.
        for _ in 0..60 {
            for i in 0..pages / 8 {
                dev.host_write_page(Lpn(i), None, SimTime::ZERO).unwrap();
            }
        }
        optimstore::ssdsim::wear_imbalance(dev.erase_counts())
    };
    let leveled = run(true);
    let unleveled = run(false);
    // Dynamic wear levelling cannot fix cold-block imbalance entirely, but
    // it must not be *worse* than naive reuse.
    assert!(
        leveled <= unleveled * 1.05,
        "wear levelling made things worse: {leveled:.2} vs {unleveled:.2}"
    );
}

#[test]
fn phantom_and_functional_agree_on_timing() {
    // Timing must not depend on whether bytes are stored: same schedule,
    // same durations.
    let spec = StateLayoutSpec::new(OptimizerKind::Adam, GradDtype::F16);
    let params = 40_000u64;

    let mut phantom = OptimStoreDevice::new(
        SsdConfig::tiny(),
        OptimStoreConfig::die_ndp(),
        params,
        Box::new(Adam::default()),
        spec,
    )
    .unwrap();
    let t0 = phantom.load_phantom(SimTime::ZERO).unwrap();
    let p1 = phantom.run_step(None, t0).unwrap();

    let mut functional = OptimStoreDevice::new_functional(
        SsdConfig::tiny(),
        OptimStoreConfig::die_ndp(),
        params,
        Box::new(Adam::default()),
        spec,
    )
    .unwrap();
    let weights = vec![0.1f32; params as usize];
    let f0 = functional.load_weights(&weights, SimTime::ZERO).unwrap();
    assert_eq!(t0, f0, "load completion must match");
    let f1 = functional
        .run_step(Some(&vec![0.0; params as usize]), f0)
        .unwrap();
    assert_eq!(p1.duration, f1.duration, "step timing must match");
    assert_eq!(p1.traffic, f1.traffic, "traffic must match");
}

/// Each resource's `busy_total` over the step's end names the bottleneck
/// of a die-level NDP step: a die, not a link.
#[test]
fn die_ndp_step_is_bound_by_the_dies() {
    use optimstore::optim_math::state::{GradDtype, StateLayoutSpec};
    use optimstore::optim_math::{Adam, OptimizerKind};

    let spec = StateLayoutSpec::new(OptimizerKind::Adam, GradDtype::F16);
    let mut dev = OptimStoreDevice::new(
        SsdConfig::tiny(),
        OptimStoreConfig::die_ndp(),
        100_000,
        Box::new(Adam::default()),
        spec,
    )
    .unwrap();
    let t0 = dev.load_phantom(SimTime::ZERO).unwrap();
    let r = dev.run_step(None, t0).unwrap();
    let ssd = dev.ssd();
    // Busy share of `[0, r.end)` of `units` parallel units, capped at 1.
    let share = |busy: SimDuration, units: u32| {
        (busy.as_ns() as f64 / (units as f64 * r.end.as_ns() as f64)).min(1.0)
    };
    let planes = ssd.config().nand.geometry.planes;
    let dies: Vec<f64> = ssd
        .channels()
        .iter()
        .flat_map(|c| c.dies())
        .map(|d| share((0..planes).map(|p| d.plane_busy_total(p)).sum(), planes))
        .collect();
    let mean_die = dies.iter().sum::<f64>() / dies.len() as f64;
    let pcie_in = share(ssd.pcie_in().busy_total(), 1);
    let links = [ssd.pcie_in(), ssd.pcie_out(), ssd.dram()]
        .into_iter()
        .chain(ssd.channels().iter().map(|c| c.bus()));
    let hottest_link = links.map(|l| share(l.busy_total(), 1)).fold(0.0, f64::max);
    let hottest_die = dies.iter().copied().fold(0.0, f64::max);
    // Die-level NDP saturates the arrays, not the external links.
    assert!(
        mean_die > pcie_in * 2.0,
        "dies {mean_die:.2}, pcie-in {pcie_in:.2}"
    );
    assert!(mean_die > 0.3, "dies {mean_die:.2}");
    assert!(
        hottest_die > hottest_link,
        "hottest die {hottest_die:.2}, hottest link {hottest_link:.2}"
    );
}
