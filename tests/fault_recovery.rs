//! Fault recovery, end to end: functional training on devices that suffer
//! seeded program/erase failures must produce **bit-identical** optimizer
//! state to the fault-free run on every execution tier — recovery (block
//! retirement, rescue relocation, page re-homing) is allowed to cost time
//! and wear, never correctness. The wear it does cost must show up in the
//! device statistics: retired blocks, rescue copies, higher WAF.

use optimstore::optim_math::state::{GradDtype, StateLayoutSpec};
use optimstore::optim_math::{make_optimizer, AdamParams, MomentumParams, OptimizerKind};
use optimstore::optimstore_core::{OptimStoreConfig, OptimStoreDevice};
use optimstore::simkit::SimTime;
use optimstore::ssdsim::{FaultConfig, SsdConfig};
use optimstore::workloads::{GradientGen, QuadraticTask, WeightInit};
use optimstore_bench::runners::{assert_bit_exact, host_tier};

const PARAMS: usize = 12_000;
const STEPS: u64 = 3;

/// Program and erase faults only: those are recovered *inside* the device
/// (retire + rescue + re-home), so every tier — including host-NVMe, which
/// has no replay layer — must come out bit-exact.
fn fault(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        program_fail: 0.05,
        erase_fail: 0.02,
        read_uncorrectable: 0.0,
        wear_coupling: false,
    }
}

fn spec() -> StateLayoutSpec {
    StateLayoutSpec::new(OptimizerKind::Adam, GradDtype::F16)
}

fn adam() -> Box<dyn optimstore::optim_math::Optimizer> {
    make_optimizer(
        OptimizerKind::Adam,
        AdamParams::default(),
        MomentumParams::default(),
    )
}

/// Runs training on `ssd` under `cfg` and returns the final master
/// weights plus the device (for stats inspection).
fn run_ndp(
    cfg: OptimStoreConfig,
    ssd: SsdConfig,
    weights: &[f32],
    gen: &GradientGen,
) -> (Vec<f32>, OptimStoreDevice) {
    let mut dev =
        OptimStoreDevice::new_functional(ssd, cfg, weights.len() as u64, adam(), spec()).unwrap();
    let mut at = dev.load_weights(weights, SimTime::ZERO).unwrap();
    for step in 1..=STEPS {
        let grads = gen.generate(step, weights.len());
        at = dev.run_step(Some(&grads), at).unwrap().end;
    }
    let w = dev.read_master_weights(at).unwrap();
    (w, dev)
}

#[test]
fn all_tiers_survive_program_faults_bit_exactly() {
    let weights = WeightInit::default().generate(PARAMS);
    let gen = GradientGen::new(90210);
    let faulty_ssd = SsdConfig::tiny().with_fault(fault(0xFA17));

    // Die-level NDP.
    let (clean, _) = run_ndp(
        OptimStoreConfig::die_ndp(),
        SsdConfig::tiny(),
        &weights,
        &gen,
    );
    let (hit, dev) = run_ndp(OptimStoreConfig::die_ndp(), faulty_ssd, &weights, &gen);
    assert_bit_exact(&hit, &clean, "die-ndp");
    let stats = dev.ssd().stats();
    assert!(
        stats.program_failures.get() > 0,
        "the fault rate is chosen so program failures certainly fire"
    );
    assert!(
        stats.retired_blocks.get() > 0,
        "every program failure retires a block"
    );

    // Channel-level NDP.
    let (clean_ch, _) = run_ndp(
        OptimStoreConfig::channel_ndp(),
        SsdConfig::tiny(),
        &weights,
        &gen,
    );
    let (hit_ch, dev_ch) = run_ndp(OptimStoreConfig::channel_ndp(), faulty_ssd, &weights, &gen);
    assert_bit_exact(&hit_ch, &clean_ch, "channel-ndp");
    assert_bit_exact(&hit_ch, &clean, "channel-ndp vs die-ndp");
    assert!(dev_ch.ssd().stats().program_failures.get() > 0);

    // Host-NVMe offload (no NDP, no replay layer: recovery is entirely
    // the device's).
    let faults_and_retired = |dev: &OptimStoreDevice| {
        let s = dev.ssd().stats();
        let faults = s.program_failures.get() + s.erase_failures.get();
        (faults, s.retired_blocks.get())
    };
    let (clean_host, dev) = run_ndp(host_tier(), SsdConfig::tiny(), &weights, &gen);
    assert_eq!(faults_and_retired(&dev), (0, 0));
    let (hit_host, dev) = run_ndp(host_tier(), faulty_ssd, &weights, &gen);
    assert_bit_exact(&hit_host, &clean_host, "host-nvme");
    assert_bit_exact(&hit_host, &clean, "host-nvme vs die-ndp");
    let (faults, retired) = faults_and_retired(&dev);
    assert!(faults > 0 && retired > 0);
}

#[test]
fn faulty_training_converges_identically_and_stats_reflect_retirement() {
    let n = 4_000usize;
    let task = QuadraticTask::new(11, n);
    let w0 = vec![0.0f32; n];
    let initial_loss = task.loss(&w0);

    let train = |ssd: SsdConfig| {
        let opt = make_optimizer(
            OptimizerKind::Adam,
            AdamParams {
                lr: 3e-2,
                ..AdamParams::default()
            },
            MomentumParams::default(),
        );
        let mut dev = OptimStoreDevice::new_functional(
            ssd,
            OptimStoreConfig::die_ndp(),
            n as u64,
            opt,
            spec(),
        )
        .unwrap();
        let mut at = dev.load_weights(&w0, SimTime::ZERO).unwrap();
        for _ in 0..100u64 {
            // Gradients from the working (fp16) weights, as a
            // mixed-precision forward pass would compute them.
            let w16 = dev.read_weights16(at).unwrap();
            let grads = task.gradient(&w16);
            at = dev.run_step(Some(&grads), at).unwrap().end;
        }
        let w = dev.read_master_weights(at).unwrap();
        (w, at, dev)
    };

    let (clean_w, clean_end, clean_dev) = train(SsdConfig::tiny());
    let (hit_w, hit_end, hit_dev) = train(SsdConfig::tiny().with_fault(fault(0xBAD5EED)));

    // Same trajectory, same optimum: faults never leak into arithmetic.
    assert_bit_exact(&hit_w, &clean_w, "faulty vs clean training");
    let final_loss = task.loss(&hit_w);
    assert!(
        final_loss < initial_loss * 0.02,
        "loss {final_loss:.4} did not converge from {initial_loss:.4}"
    );

    // ... but recovery costs time and wear, visibly.
    let clean_stats = clean_dev.ssd().stats();
    let hit_stats = hit_dev.ssd().stats();
    assert!(hit_stats.program_failures.get() > 0);
    // (Erase faults need GC to run; this working set is too small to
    // trigger it — erase-failure retirement is covered by ssdsim's tests.)
    assert!(hit_stats.retired_blocks.get() > 0);
    assert!(
        hit_stats.rescue_copies.get() > 0,
        "retired blocks had valid pages to rescue"
    );
    assert_eq!(clean_stats.retired_blocks.get(), 0);
    let media_faults = clean_stats.program_failures.get()
        + clean_stats.erase_failures.get()
        + clean_stats.uncorrectable_reads.get();
    assert_eq!(media_faults, 0);
    // Rescue relocation is write amplification.
    assert!(
        hit_stats.waf() > clean_stats.waf(),
        "faulty WAF {} must exceed clean WAF {}",
        hit_stats.waf(),
        clean_stats.waf()
    );
    // Die-level retirement agrees with the recovery policy's count (no
    // wear-out retirements in this short run).
    assert_eq!(
        hit_dev.ssd().retired_blocks(),
        hit_stats.retired_blocks.get()
    );
    // Recovery work (rescue programs, extra erases) costs simulated time.
    assert!(hit_end >= clean_end);
}
