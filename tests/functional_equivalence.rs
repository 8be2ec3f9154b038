//! Cross-system functional equivalence: every execution path — die-level
//! NDP, channel-level NDP, die-level NDP on the naive tensor-striped
//! layout, the host-NVMe tier, the host-DRAM baseline — must produce **bit-identical**
//! optimizer state, because they all run the same kernels; only time,
//! traffic and energy may differ. Any divergence is a layout, protocol or
//! scheduling bug.

use optimstore::baselines::{HostDramBaseline, HostDramConfig};
use optimstore::optim_math::kernels::{encode_grads, StateBuffers};
use optimstore::optim_math::state::{GradDtype, StateLayoutSpec};
use optimstore::optim_math::{make_optimizer, AdamParams, Bf16, MomentumParams, OptimizerKind};
use optimstore::optimstore_core::{
    GradStaging, LayoutPolicy, OptimStoreConfig, OptimStoreDevice, StateComponent,
};
use optimstore::simkit::SimTime;
use optimstore::ssdsim::{RainConfig, SsdConfig};
use optimstore::workloads::{GradientGen, WeightInit};
use optimstore_bench::runners::{assert_bit_exact, host_tier};

const PARAMS: usize = 30_000;
const STEPS: u64 = 4;

fn spec(kind: OptimizerKind) -> StateLayoutSpec {
    StateLayoutSpec::new(kind, GradDtype::F16)
}

fn reference_weights(kind: OptimizerKind, weights: &[f32], gen: &GradientGen) -> Vec<f32> {
    let opt = make_optimizer(kind, AdamParams::default(), MomentumParams::default());
    let mut buf = StateBuffers::init(opt.as_ref(), weights, GradDtype::F16);
    for step in 1..=STEPS {
        let grads = gen.generate(step, weights.len());
        buf.step(
            opt.as_ref(),
            &encode_grads(&grads, GradDtype::F16),
            GradDtype::F16,
            step,
        )
        .unwrap();
    }
    buf.weights_f32()
}

fn run_ndp_config(
    kind: OptimizerKind,
    cfg: OptimStoreConfig,
    weights: &[f32],
    gen: &GradientGen,
) -> Vec<f32> {
    let opt = make_optimizer(kind, AdamParams::default(), MomentumParams::default());
    let mut dev = OptimStoreDevice::new_functional(
        SsdConfig::tiny(),
        cfg,
        weights.len() as u64,
        opt,
        spec(kind),
    )
    .unwrap();
    let mut at = dev.load_weights(weights, SimTime::ZERO).unwrap();
    for step in 1..=STEPS {
        let grads = gen.generate(step, weights.len());
        at = dev.run_step(Some(&grads), at).unwrap().end;
    }
    dev.read_master_weights(at).unwrap()
}

#[test]
fn all_tiers_agree_for_every_optimizer() {
    let weights = WeightInit::default().generate(PARAMS);
    let gen = GradientGen::new(31337);

    for kind in OptimizerKind::all() {
        let expect = reference_weights(kind, &weights, &gen);

        // Die-level NDP (the paper's system).
        let die = run_ndp_config(kind, OptimStoreConfig::die_ndp(), &weights, &gen);
        assert_bit_exact(&die, &expect, &format!("{kind:?}/die-ndp"));

        // Channel-level NDP.
        let ch = run_ndp_config(kind, OptimStoreConfig::channel_ndp(), &weights, &gen);
        assert_bit_exact(&ch, &expect, &format!("{kind:?}/channel-ndp"));

        // Host-NVMe offload baseline.
        let host = run_ndp_config(kind, host_tier(), &weights, &gen);
        assert_bit_exact(&host, &expect, &format!("{kind:?}/host-nvme"));

        // Host-DRAM baseline.
        let opt = make_optimizer(kind, AdamParams::default(), MomentumParams::default());
        let mut dram = HostDramBaseline::new(
            HostDramConfig::default(),
            PARAMS as u64,
            opt,
            spec(kind),
            true,
        )
        .unwrap();
        dram.load_weights(&weights).unwrap();
        let mut at = SimTime::ZERO;
        for step in 1..=STEPS {
            let grads = gen.generate(step, PARAMS);
            at = dram.run_step(Some(&grads), at).unwrap().end;
        }
        assert_bit_exact(
            &dram.weights().unwrap(),
            &expect,
            &format!("{kind:?}/host-dram"),
        );
    }
}

#[test]
fn striped_layout_is_slower_but_equally_correct() {
    let kind = OptimizerKind::Adam;
    let weights = WeightInit::default().generate(PARAMS);
    let gen = GradientGen::new(4242);
    let expect = reference_weights(kind, &weights, &gen);

    let striped = OptimStoreConfig {
        layout: LayoutPolicy::TensorStriped,
        ..OptimStoreConfig::die_ndp()
    };
    let got = run_ndp_config(kind, striped, &weights, &gen);
    assert_bit_exact(&got, &expect, "striped/die-ndp");
}

#[test]
fn bf16_gradients_agree_across_paths() {
    let kind = OptimizerKind::Adam;
    let bf_spec = StateLayoutSpec::new(kind, GradDtype::Bf16);
    let weights = WeightInit::default().generate(10_000);
    let gen = GradientGen::new(5);

    // Reference. The working weights are bf16 too, from the load on.
    let bf16_weights = |buf: &StateBuffers| -> Vec<f32> {
        buf.w16
            .chunks_exact(2)
            .map(|b| Bf16::from_le_bytes([b[0], b[1]]).to_f32())
            .collect()
    };
    let opt = make_optimizer(kind, AdamParams::default(), MomentumParams::default());
    let mut reference = StateBuffers::init(opt.as_ref(), &weights, GradDtype::Bf16);
    let loaded_w16 = bf16_weights(&reference);
    let grads = gen.generate(1, weights.len());
    reference
        .step(
            opt.as_ref(),
            &encode_grads(&grads, GradDtype::Bf16),
            GradDtype::Bf16,
            1,
        )
        .unwrap();

    // In-storage.
    let opt = make_optimizer(kind, AdamParams::default(), MomentumParams::default());
    let mut dev = OptimStoreDevice::new_functional(
        SsdConfig::tiny(),
        OptimStoreConfig::die_ndp(),
        weights.len() as u64,
        opt,
        bf_spec,
    )
    .unwrap();
    let at = dev.load_weights(&weights, SimTime::ZERO).unwrap();
    assert_bit_exact(
        &dev.read_weights16(at).unwrap(),
        &loaded_w16,
        "bf16/die-ndp w16 after load",
    );
    let at = dev.run_step(Some(&grads), at).unwrap().end;
    assert_bit_exact(
        &dev.read_master_weights(at).unwrap(),
        &reference.weights_f32(),
        "bf16/die-ndp",
    );
    assert_bit_exact(
        &dev.read_weights16(at).unwrap(),
        &bf16_weights(&reference),
        "bf16/die-ndp w16 after step",
    );
}

#[test]
fn working_weights_track_masters_everywhere() {
    let kind = OptimizerKind::AdamW;
    let weights = WeightInit::default().generate(12_000);
    let gen = GradientGen::new(9);

    let opt = make_optimizer(kind, AdamParams::default(), MomentumParams::default());
    let mut dev = OptimStoreDevice::new_functional(
        SsdConfig::tiny(),
        OptimStoreConfig::die_ndp(),
        weights.len() as u64,
        opt,
        spec(kind),
    )
    .unwrap();
    let mut at = dev.load_weights(&weights, SimTime::ZERO).unwrap();
    for step in 1..=2 {
        let grads = gen.generate(step, weights.len());
        at = dev.run_step(Some(&grads), at).unwrap().end;
    }
    let masters = dev.read_master_weights(at).unwrap();
    let w16 = dev.read_weights16(at).unwrap();
    for (i, (m, w)) in masters.iter().zip(&w16).enumerate() {
        let narrowed = optimstore::optim_math::F16::from_f32(*m).to_f32();
        assert_eq!(w.to_bits(), narrowed.to_bits(), "param {i}");
    }
}

// ---------------------------------------------------------------------------
// Fault tolerance: media faults below the unrecoverable threshold must be
// *functionally invisible*. Recovery (block retirement, rescue relocation,
// device read-retries, update-group replay) may cost time and wear, but the
// optimizer state it produces has to stay bit-identical to the fault-free
// reference — for arbitrary fault seeds.
// ---------------------------------------------------------------------------

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn adam_step_survives_arbitrary_fault_seeds_bit_exactly(seed in any::<u64>()) {
        use optimstore::optimstore_core::CoreError;
        use optimstore::ssdsim::{FaultConfig, SsdError};

        let kind = OptimizerKind::Adam;
        let weights = WeightInit::default().generate(8_000);
        let gen = GradientGen::new(seed ^ 0x5EED_F00D);
        let expect = reference_weights(kind, &weights, &gen);

        // Rates below the unrecoverable threshold: program and erase
        // failures are always recovered (retire + rescue + re-home), and a
        // read only stays uncorrectable through the device's 5 sense
        // attempts with probability 0.3^5 ≈ 0.24 % — well inside the
        // group-replay budget.
        let fault = FaultConfig {
            seed,
            program_fail: 0.02,
            erase_fail: 0.01,
            read_uncorrectable: 0.3,
            wear_coupling: false,
        };
        let cfg = OptimStoreConfig {
            max_group_replays: 8,
            ..OptimStoreConfig::die_ndp()
        };
        let opt = make_optimizer(kind, AdamParams::default(), MomentumParams::default());
        let mut dev = OptimStoreDevice::new_functional(
            SsdConfig::tiny().with_fault(fault),
            cfg,
            weights.len() as u64,
            opt,
            spec(kind),
        )
        .unwrap();
        let mut at = dev.load_weights(&weights, SimTime::ZERO).unwrap();
        for step in 1..=STEPS {
            let grads = gen.generate(step, weights.len());
            at = dev.run_step(Some(&grads), at).unwrap().end;
        }
        // Readback is a replay-less debug path; retry it the way any
        // caller with redundancy would.
        let got = (0..100)
            .find_map(|_| match dev.read_master_weights(at) {
                Ok(w) => Some(w),
                Err(CoreError::Ssd(SsdError::UncorrectableRead { .. })) => None,
                Err(e) => panic!("unexpected error: {e}"),
            })
            .expect("readback recovers within 100 attempts");

        prop_assert_eq!(got.len(), expect.len());
        for (i, (a, b)) in got.iter().zip(&expect).enumerate() {
            prop_assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "param {} differs under fault seed {}: {} vs {}",
                i,
                seed,
                a,
                b
            );
        }
    }
}

// ——— Operands that move between their read and their kernel ———

/// A die-NDP device of 16 blocks per plane whose gradients are staged to
/// flash, on the tensor-striped layout, skipping all-zero gradient pages.
/// A group's operands sit on every die, so the staged-gradient program of
/// a later group of the same batch runs garbage collection on dies holding
/// operands that were read but not yet updated; when it picks their block,
/// it relocates them and erases the block.
fn staged_on_small_flash(ssd: SsdConfig, params: usize) -> OptimStoreDevice {
    let ssd = SsdConfig {
        nand: optimstore::nandsim::NandConfig {
            geometry: optimstore::nandsim::NandGeometry {
                blocks_per_plane: 16,
                ..ssd.nand.geometry
            },
            ..ssd.nand
        },
        ..ssd
    };
    let cfg = OptimStoreConfig {
        grad_staging: GradStaging::StoreToFlash,
        layout: LayoutPolicy::TensorStriped,
        skip_zero_gradients: true,
        ..OptimStoreConfig::die_ndp()
    };
    let kind = OptimizerKind::Adam;
    let opt = make_optimizer(kind, AdamParams::default(), MomentumParams::default());
    OptimStoreDevice::new_functional(ssd, cfg, params as u64, opt, spec(kind))
        .expect("the model fits the small device")
}

/// Trains `dev`, loaded with `weights`, for `steps` seeded steps in which
/// update group `g` stays frozen (zero gradients, so its pages are not
/// rewritten) until step `1 + g % 5`: the staggered rewrites leave blocks
/// of mixed ages, whose collection must relocate live pages. Calls
/// `before_step` ahead of each step, checks the master weights bit for bit
/// against the host reference and returns the steps' erases and GC copies.
fn train_against_reference(
    dev: &mut OptimStoreDevice,
    weights: &[f32],
    steps: u64,
    mut before_step: impl FnMut(&mut OptimStoreDevice),
) -> (u64, u64) {
    let group = dev.layout().params_per_group() as usize;
    let gen = GradientGen::new(11);
    let opt = make_optimizer(
        OptimizerKind::Adam,
        AdamParams::default(),
        MomentumParams::default(),
    );
    let mut reference = StateBuffers::init(opt.as_ref(), weights, GradDtype::F16);
    let mut at = dev.load_weights(weights, SimTime::ZERO).unwrap();
    let (mut erases, mut gc_copies) = (0, 0);
    for step in 1..=steps {
        before_step(dev);
        let mut grads = gen.generate(step, weights.len());
        for (g, chunk) in grads.chunks_mut(group).enumerate() {
            if step < 1 + g as u64 % 5 {
                chunk.fill(0.0);
            }
        }
        let r = dev.run_step(Some(&grads), at).unwrap();
        at = r.end;
        erases += r.erases;
        gc_copies += r.gc_copies;
        let grads = encode_grads(&grads, GradDtype::F16);
        reference
            .step(opt.as_ref(), &grads, GradDtype::F16, step)
            .unwrap();
    }
    assert_bit_exact(
        &dev.read_master_weights(at).unwrap(),
        &reference.weights_f32(),
        "master weights after operands moved mid-batch",
    );
    (erases, gc_copies)
}

#[test]
fn operands_relocated_between_read_and_kernel_update_exactly() {
    let params = 700_000;
    let weights = WeightInit {
        seed: 5,
        std_dev: 0.02,
    }
    .generate(params);
    let mut dev = staged_on_small_flash(SsdConfig::tiny(), params);
    let (erases, gc_copies) = train_against_reference(&mut dev, &weights, 8, |_| {});
    assert!(erases > 0, "garbage collection never erased");
    assert!(
        gc_copies > 0,
        "garbage collection never relocated a live page"
    );
}

#[test]
fn an_operand_rebuilt_from_parity_mid_batch_updates_exactly() {
    let params = 600_000;
    let weights = WeightInit {
        seed: 6,
        std_dev: 0.02,
    }
    .generate(params);
    let ssd = SsdConfig::tiny().with_rain(RainConfig::rotating());
    let mut dev = staged_on_small_flash(ssd, params);
    let repaired = dev.ssd().stats().parity_reconstructions.get();
    // Destroy the second master page of group 0, which every step trains,
    // before every step: its read rebuilds it from parity and re-homes it
    // on a fresh page while the first batch is in flight.
    let (erases, _) = train_against_reference(&mut dev, &weights, 8, |dev| {
        let lpn = dev.layout().lpn(0, StateComponent::Master, 1);
        dev.ssd_mut().inject_page_loss(lpn).unwrap();
    });
    assert_eq!(
        dev.ssd().stats().parity_reconstructions.get() - repaired,
        8,
        "every destroyed operand was rebuilt"
    );
    assert!(erases > 0, "garbage collection never erased");
}
