//! Multi-device (ZeRO-sharded) training: splitting a model across several
//! OptimStore devices must produce bit-identical state to training it on
//! one device — the shards are independent by construction, and this test
//! proves the partition arithmetic and per-shard layouts compose correctly.

use optimstore::dnn_model::ZeroPartition;
use optimstore::optim_math::norms::global_norm;
use optimstore::optim_math::state::{GradDtype, StateLayoutSpec};
use optimstore::optim_math::{Adam, OptimizerKind};
use optimstore::optimstore_core::{OptimStoreConfig, OptimStoreDevice};
use optimstore::simkit::SimTime;
use optimstore::ssdsim::SsdConfig;
use optimstore::workloads::{GradientGen, WeightInit};

const PARAMS: usize = 30_000;
const STEPS: u64 = 3;
const DEVICES: u32 = 3;

fn make_device(params: u64) -> OptimStoreDevice {
    let spec = StateLayoutSpec::new(OptimizerKind::Adam, GradDtype::F16);
    OptimStoreDevice::new_functional(
        SsdConfig::tiny(),
        OptimStoreConfig::die_ndp(),
        params,
        Box::new(Adam::default()),
        spec,
    )
    .unwrap()
}

#[test]
fn sharded_fleet_matches_single_device_bit_exactly() {
    let weights = WeightInit::default().generate(PARAMS);
    let gen = GradientGen::new(777);

    // Reference: the whole model on one device.
    let mut whole = make_device(PARAMS as u64);
    let mut at = whole.load_weights(&weights, SimTime::ZERO).unwrap();
    for step in 1..=STEPS {
        let grads = gen.generate(step, PARAMS);
        at = whole.run_step(Some(&grads), at).unwrap().end;
    }
    let expect = whole.read_master_weights(at).unwrap();

    // Fleet: ZeRO shards on independent devices.
    let part = ZeroPartition::new(PARAMS as u64, DEVICES);
    let mut got = vec![0.0f32; PARAMS];
    for d in 0..DEVICES {
        let range = part.range_of(d);
        let (lo, hi) = (range.start as usize, range.end as usize);
        let mut shard = make_device((hi - lo) as u64);
        let mut at = shard.load_weights(&weights[lo..hi], SimTime::ZERO).unwrap();
        for step in 1..=STEPS {
            let grads = gen.generate(step, PARAMS);
            at = shard.run_step(Some(&grads[lo..hi]), at).unwrap().end;
        }
        got[lo..hi].copy_from_slice(&shard.read_master_weights(at).unwrap());
    }

    for (i, (a, b)) in got.iter().zip(&expect).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "param {i} (shard {})",
            part.owner_of(i as u64)
        );
    }
}

#[test]
fn global_norm_reduces_across_shards() {
    // The host clips on the *global* norm even when gradients are sharded;
    // the partial-sum reduction must equal the whole-tensor norm.
    let grads = GradientGen::new(5).generate(1, PARAMS);
    let part = ZeroPartition::new(PARAMS as u64, DEVICES);
    let shards: Vec<&[f32]> = (0..DEVICES)
        .map(|d| part.range_of(d))
        .map(|r| &grads[r.start as usize..r.end as usize])
        .collect();
    let sharded = global_norm(shards.iter().copied());
    let whole = global_norm([&grads[..]]);
    assert!((sharded - whole).abs() < 1e-9, "{sharded} vs {whole}");
}
