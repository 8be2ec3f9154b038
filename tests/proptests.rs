//! Property-based tests over the core invariants: FTL mapping laws,
//! numeric round-trips, in-storage/reference agreement, partition
//! coverage, and pool ordering — with inputs chosen by proptest.

use optimstore::dnn_model::ZeroPartition;
use optimstore::optim_math::kernels::{encode_grads, StateBuffers};
use optimstore::optim_math::state::GradDtype;
use optimstore::optim_math::{Adam, Bf16, F16};
use optimstore::optimstore_core::{OptimStoreConfig, OptimStoreDevice};
use optimstore::simkit::SimTime;
use optimstore::ssdsim::{Device, Lpn, SsdConfig};
use optimstore::workloads::SlicedRun;
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The FTL never maps two live logical pages to the same physical page,
    /// and reads always return the latest version, under arbitrary
    /// write/overwrite sequences.
    #[test]
    fn ftl_mapping_is_injective_and_fresh(lpns in prop::collection::vec(0u64..64, 1..300)) {
        let mut dev = Device::new_functional(SsdConfig::tiny());
        let page = dev.page_bytes();
        let mut shadow: HashMap<u64, u8> = HashMap::new();
        let mut version = 0u8;
        for lpn in lpns {
            version = version.wrapping_add(1);
            let data = vec![version; page];
            dev.host_write_page(Lpn(lpn), Some(&data), SimTime::ZERO).unwrap();
            shadow.insert(lpn, version);
        }
        // Injectivity over live mappings.
        let mut seen = std::collections::HashSet::new();
        for &lpn in shadow.keys() {
            let ppa = dev.ftl().lookup(Lpn(lpn)).expect("live page must be mapped");
            prop_assert!(seen.insert(ppa), "two LPNs map to {ppa}");
        }
        // Freshness.
        for (&lpn, &v) in &shadow {
            let (_, data) = dev.host_read_page(Lpn(lpn), SimTime::ZERO).unwrap();
            prop_assert_eq!(data.unwrap()[0], v, "stale read of lpn {}", lpn);
        }
    }

    /// f16 narrowing of any f32 lands on one of the two nearest
    /// representable values.
    #[test]
    fn f16_narrowing_is_nearest(x in prop::num::f32::NORMAL) {
        let h = F16::from_f32(x);
        if h.is_finite() {
            let y = h.to_f32();
            let up = F16(h.0 + 1).to_f32();
            let down = if h.0 & 0x3FF > 0 { F16(h.0 - 1).to_f32() } else { y };
            let err = (y - x).abs();
            prop_assert!(err <= (up - x).abs() + f32::EPSILON.max(0.0));
            prop_assert!(err <= (down - x).abs() + f32::EPSILON.max(0.0));
        }
    }

    /// bf16 round-trips through f32 exactly.
    #[test]
    fn bf16_widen_narrow_identity(bits in 0u16..=u16::MAX) {
        let h = Bf16(bits);
        if !h.is_nan() {
            prop_assert_eq!(Bf16::from_f32(h.to_f32()), h);
        }
    }

    /// The in-storage update equals the reference for arbitrary sizes,
    /// weights and gradients.
    #[test]
    fn in_storage_adam_matches_reference(
        n in 1usize..6000,
        seed in 0u64..1000,
    ) {
        let mut rng_state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state as f64 / u64::MAX as f64) as f32 - 0.5
        };
        let weights: Vec<f32> = (0..n).map(|_| next()).collect();
        let grads: Vec<f32> = (0..n).map(|_| next() * 0.1).collect();

        let adam = Adam::default();
        let mut dev = OptimStoreDevice::new_functional(
            SsdConfig::tiny(),
            OptimStoreConfig::die_ndp(),
            n as u64,
            Box::new(adam),
            optimstore::optim_math::state::StateLayoutSpec::new(
                optimstore::optim_math::OptimizerKind::Adam,
                GradDtype::F16,
            ),
        ).unwrap();
        let at = dev.load_weights(&weights, SimTime::ZERO).unwrap();
        let at = dev.run_step(Some(&grads), at).unwrap().end;
        let got = dev.read_master_weights(at).unwrap();

        let mut reference = StateBuffers::init(&adam, &weights, GradDtype::F16);
        reference.step(&adam, &encode_grads(&grads, GradDtype::F16), GradDtype::F16, 1).unwrap();
        let expect = reference.weights_f32();
        for i in 0..n {
            prop_assert_eq!(got[i].to_bits(), expect[i].to_bits(), "param {}", i);
        }
    }

    /// ZeRO partitions cover every parameter exactly once for any shape.
    #[test]
    fn zero_partition_total_coverage(params in 1u64..1_000_000, devices in 1u32..64) {
        let p = ZeroPartition::new(params, devices);
        let mut covered = 0u64;
        let mut prev_end = 0u64;
        for r in (0..p.devices).map(|d| p.range_of(d)) {
            prop_assert_eq!(r.start, prev_end);
            covered += r.end - r.start;
            prev_end = r.end;
        }
        prop_assert_eq!(covered, params);
        // Spot-check owner_of agreement.
        for probe in [0, params / 2, params - 1] {
            let owner = p.owner_of(probe);
            let r = p.range_of(owner);
            prop_assert!(r.contains(&probe));
        }
    }

    /// Slices always cover the model exactly when scaled.
    #[test]
    fn sliced_run_is_consistent(
        params in 1u64..10_000_000_000,
        cap in 1u64..100_000_000,
        granule in 1u64..1_000_000,
    ) {
        let s = SlicedRun::plan(params, cap, granule);
        prop_assert!(s.sim_params >= 1);
        prop_assert!(s.scale >= 1.0);
        let implied = s.sim_params as f64 * s.scale;
        let rel = (implied - params as f64).abs() / params as f64;
        prop_assert!(rel < 1e-9);
        if params <= cap {
            prop_assert!(s.is_full());
        } else {
            prop_assert_eq!(s.sim_params % granule, 0);
        }
    }

    /// The command decoder never panics and only accepts well-formed
    /// buffers (fuzz).
    #[test]
    fn protocol_decoder_is_total(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        use optimstore::optimstore_core::protocol::UpdateCommand;
        let _ = UpdateCommand::decode(&bytes); // must not panic
        if bytes.len() == 64 {
            if let Ok(cmd) = UpdateCommand::decode(&bytes) {
                // Anything accepted must re-encode to the same bytes
                // (canonical wire format).
                assert_eq!(cmd.encode().to_vec(), bytes);
            }
        }
    }

    /// The update command is the device's host-facing wire format: decoding
    /// any buffer of up to 96 bytes returns `Ok` or `Err` without
    /// panicking (and accepts only canonical encodings), and every valid
    /// command survives encode → decode bit for bit.
    #[test]
    fn update_command_wire_format_round_trips(
        bytes in prop::collection::vec(any::<u8>(), 0..97),
        (opt, bf16, step, group_start, group_count) in
            (0usize..5, any::<bool>(), any::<u64>(), any::<u64>(), any::<u64>()),
        hyper in prop::collection::vec(any::<u32>(), 5..6),
    ) {
        use optimstore::optim_math::OptimizerKind;
        use optimstore::optimstore_core::protocol::UpdateCommand;
        if let Ok(cmd) = UpdateCommand::decode(&bytes) {
            prop_assert_eq!(cmd.encode().to_vec(), bytes);
        }
        let cmd = UpdateCommand {
            optimizer: OptimizerKind::all()[opt],
            grad_dtype: if bf16 { GradDtype::Bf16 } else { GradDtype::F16 },
            step,
            group_start,
            group_count,
            hyper: std::array::from_fn(|i| f32::from_bits(hyper[i])),
        };
        let back = UpdateCommand::decode(&cmd.encode()).unwrap();
        prop_assert_eq!(
            (back.optimizer, back.grad_dtype, back.step, back.group_start, back.group_count),
            (cmd.optimizer, cmd.grad_dtype, cmd.step, cmd.group_start, cmd.group_count)
        );
        // Compared as bits: arbitrary hyperparameters include NaNs.
        prop_assert_eq!(back.hyper.map(f32::to_bits), cmd.hyper.map(f32::to_bits));
    }

    /// Top-k compression round-trips: dense → sparse → dense keeps exactly
    /// the selected entries and zeroes the rest; wire accounting matches.
    #[test]
    fn topk_compression_invariants(
        dense in prop::collection::vec(-100.0f32..100.0, 1..500),
        permille in 1u16..=1000,
    ) {
        use optimstore::optim_math::compress::SparseGrad;
        let fraction = permille as f64 / 1000.0;
        let s = SparseGrad::top_k(&dense, fraction);
        let k = ((dense.len() as f64 * fraction).ceil() as usize).min(dense.len());
        prop_assert_eq!(s.nnz(), k);
        let rebuilt = s.to_dense();
        prop_assert_eq!(rebuilt.len(), dense.len());
        // Every kept entry matches the original; the smallest kept
        // magnitude is >= the largest dropped magnitude.
        let mut min_kept = f32::INFINITY;
        for &i in s.indices() {
            prop_assert_eq!(rebuilt[i as usize], dense[i as usize]);
            min_kept = min_kept.min(dense[i as usize].abs());
        }
        let kept: std::collections::HashSet<u32> = s.indices().iter().copied().collect();
        for (i, &v) in dense.iter().enumerate() {
            if !kept.contains(&(i as u32)) {
                prop_assert_eq!(rebuilt[i], 0.0);
                prop_assert!(v.abs() <= min_kept + 1e-6);
            }
        }
        prop_assert_eq!(s.wire_bytes(), 16 + 6 * k as u64);
    }

    /// The NAND die enforces its discipline against a shadow model under
    /// random operation sequences (fuzz): program order, readability, and
    /// every page's `Free/Valid/Invalid` state through invalidation,
    /// forced validity and erase.
    #[test]
    fn nand_discipline_fuzz(ops in prop::collection::vec((0u8..6, 0u32..2, 0u32..4, 0u32..8), 1..200)) {
        use optimstore::nandsim::store::PageState;
        use optimstore::nandsim::{Die, NandConfig, PhysPage, BlockAddr};
        const PAGES: u32 = 8;
        let cfg = NandConfig {
            geometry: optimstore::nandsim::NandGeometry {
                planes: 2,
                blocks_per_plane: 4,
                pages_per_block: PAGES,
                page_bytes: 64,
            },
            ..NandConfig::tiny_test_die()
        };
        let mut die = Die::new(7, cfg);
        // Shadow: per block, the state of every page.
        let mut shadow = HashMap::<(u32, u32), Vec<PageState>>::new();
        for (op, plane, block, page) in ops {
            let pages = shadow
                .entry((plane, block))
                .or_insert_with(|| vec![PageState::Free; PAGES as usize]);
            let cursor = pages.iter().position(|&s| s == PageState::Free).unwrap_or(PAGES as usize) as u32;
            let b = BlockAddr { plane, block };
            let p = PhysPage { plane, block, page };
            match op {
                0 => {
                    let r = die.program_page(p, SimTime::ZERO, &mut None);
                    if page == cursor {
                        prop_assert!(r.is_ok(), "legal program rejected: {r:?}");
                        pages[page as usize] = PageState::Valid;
                    } else {
                        prop_assert!(r.is_err(), "illegal program accepted at {p:?}");
                    }
                }
                1 => {
                    let r = die.read_page(p, SimTime::ZERO);
                    if page < cursor {
                        prop_assert!(r.is_ok(), "legal read rejected");
                    } else {
                        prop_assert!(r.is_err(), "read of unwritten page accepted");
                    }
                }
                2 => {
                    prop_assert!(die.erase_block(b, SimTime::ZERO).is_ok());
                    pages.fill(PageState::Free);
                }
                3 => {
                    let was_valid = pages[page as usize] == PageState::Valid;
                    prop_assert_eq!(die.invalidate(p).unwrap(), was_valid);
                    if was_valid {
                        pages[page as usize] = PageState::Invalid;
                    }
                }
                _ => {
                    let valid = op == 4;
                    let programmed = pages[page as usize] != PageState::Free;
                    prop_assert_eq!(die.set_validity(p, valid).unwrap(), programmed);
                    if programmed {
                        pages[page as usize] = if valid { PageState::Valid } else { PageState::Invalid };
                    }
                }
            }
            for (i, &want) in pages.iter().enumerate() {
                prop_assert_eq!(die.page_state(b.page(i as u32)).unwrap(), want, "page {} of {:?}", i, b);
            }
            let state = die.block(b).unwrap();
            let valid = pages.iter().filter(|&&s| s == PageState::Valid).count() as u32;
            let free = pages.iter().filter(|&&s| s == PageState::Free).count() as u32;
            prop_assert_eq!(state.valid_pages(), valid);
            prop_assert_eq!(state.free_pages(), free);
            prop_assert_eq!(state.next_programmable(), (free > 0).then_some(PAGES - free));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The event simulation and the closed-form audit agree within 40 % for
    /// random device shapes — the validation behind the slice-and-scale
    /// methodology, exercised across the configuration space rather than
    /// just the presets.
    #[test]
    fn audit_matches_simulation_for_random_devices(
        channels_pow in 1u32..=4,   // 2..16 channels
        dies_pow in 1u32..=3,       // 2..8 dies per channel
        pcie_gbps in 2u64..=16,
    ) {
        use optimstore::optimstore_core::OptimStoreConfig;
        use optimstore::ssdsim::{PciGen, SsdConfig};
        use optimstore::optim_math::OptimizerKind;
        use optimstore_bench::runners::measure;

        let ssd = SsdConfig {
            channels: 1 << channels_pow,
            dies_per_channel: 1 << dies_pow,
            pcie: PciGen::Custom(pcie_gbps * 1_000_000_000),
            ..SsdConfig::base()
        };
        let m = measure(
            &ssd,
            &OptimStoreConfig::die_ndp(),
            OptimizerKind::Adam,
            500_000_000,
            1 << 21,
        );
        prop_assert!(
            m.audit_error() < 0.40,
            "config {}ch x {}d pcie {}GB/s: sim {} vs audit {} ({:.0}% off, bottleneck {})",
            ssd.channels,
            ssd.dies_per_channel,
            pcie_gbps,
            m.step_time,
            m.audit.step_time(m.params),
            m.audit_error() * 100.0,
            m.audit.bottleneck
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fault injection is a pure function of its seed: two devices built
    /// from the same config and driven through the same workload finish
    /// with identical timing, counters and retired-block sets, for
    /// arbitrary seeds. (The recovery machinery — block retirement, rescue
    /// relocation, read retries — must introduce no hidden nondeterminism.)
    #[test]
    fn fault_injection_is_reproducible_per_seed(seed in any::<u64>()) {
        use optimstore::ssdsim::FaultConfig;

        let run = |seed: u64| {
            let fault = FaultConfig {
                seed,
                program_fail: 0.02,
                erase_fail: 0.002,
                read_uncorrectable: 0.2,
                wear_coupling: false,
            };
            let mut dev = Device::new_functional(SsdConfig::tiny().with_fault(fault));
            let page = dev.page_bytes();
            let mut t = SimTime::ZERO;
            for i in 0..300u64 {
                let data = vec![(i % 251) as u8; page];
                t = dev.host_write_page(Lpn(i % 48), Some(&data), t).unwrap().end;
            }
            // Reads exercise the retry path; a surfaced uncorrectable
            // read is part of the outcome both runs must share.
            let mut read_errors = 0u32;
            for i in 0..48u64 {
                if dev.host_read_page(Lpn(i), t).is_err() {
                    read_errors += 1;
                }
            }
            let mut retired: Vec<(usize, usize, u64)> = Vec::new();
            for (ci, ch) in dev.channels().iter().enumerate() {
                for (di, die) in ch.dies().iter().enumerate() {
                    for (idx, b) in die.iter_blocks() {
                        if b.is_retired() {
                            retired.push((ci, di, idx));
                        }
                    }
                }
            }
            (
                dev.quiesce_time(),
                retired,
                read_errors,
                dev.stats().program_failures.get(),
                dev.stats().erase_failures.get(),
                dev.stats().read_retries.get(),
                dev.stats().rescue_copies.get(),
                dev.retired_blocks(),
                dev.fault_stats().total(),
            )
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Sudden power loss at an **arbitrary seeded instant** of a training
    /// run, followed by `mount()` + step replay, reaches master weights
    /// bit-identical to a run that never crashed — for any crash seed and
    /// any window placement within the run.
    #[test]
    fn crash_at_arbitrary_instant_recovers_bit_identically(
        seed in any::<u64>(),
        frac in 0.002f64..0.995,
    ) {
        let (t0_ref, end_ref, master_ref) = crash_reference();
        // Seeded draw inside [t0 + frac·span, end): both the placement and
        // the in-window SplitMix64 draw vary per case.
        let span = (end_ref - t0_ref).as_ns() as f64;
        let lo = SimTime::from_ns(t0_ref.as_ns() + 1 + (span * frac) as u64);
        let cfg = crash_in(seed, lo, end_ref);

        let (mut dev, t0) = crash_load();
        prop_assert_eq!(t0, t0_ref);
        let crash = CRASH_RUN.crash(&mut dev, t0, CRASH_STEPS, cfg, false);
        let k = crash.step;
        prop_assert_eq!(crash.recovery.resumed_step, k - 1);
        let at = CRASH_RUN.train(&mut dev, k + 1..=CRASH_STEPS, crash.recovery.end);
        let master = dev.read_master_weights(at).unwrap();
        for (i, (a, b)) in master.iter().zip(&master_ref).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "param {} differs after recovery", i);
        }
    }

    /// At the device level: whatever epoch-2 writes were in flight when
    /// the power failed, `mount()` restores **exactly** the epoch-1
    /// committed state — every committed page reads back its committed
    /// bytes, every uncommitted page is unmapped again, and the rebuilt
    /// mapping stays injective. The recovered device then behaves like a
    /// fresh one (the same invariant `ftl_mapping_is_injective_and_fresh`
    /// checks) for further writes.
    #[test]
    fn mount_restores_exactly_the_committed_epoch(
        seed in any::<u64>(),
        lpns in prop::collection::vec(0u64..40, 6..50),
    ) {
        use optimstore::ssdsim::JournalConfig;

        let mut dev = Device::new_functional(
            SsdConfig::tiny().with_journal(JournalConfig::every(4)),
        );
        let page = dev.page_bytes();
        let byte = |lpn: u64, epoch: u8| (lpn as u8).wrapping_mul(31).wrapping_add(epoch);

        // Epoch 1: committed ground truth (last write per LPN wins).
        dev.begin_epoch(1);
        let mut at = SimTime::ZERO;
        let mut committed: HashMap<u64, u8> = HashMap::new();
        for &l in &lpns {
            let data = vec![byte(l, 1); page];
            at = dev.host_write_page(Lpn(l), Some(&data), at).unwrap().end;
            committed.insert(l, byte(l, 1));
        }
        at = dev.commit_epoch(at).unwrap();

        // Epoch 2: overwrites (and some fresh LPNs) that must roll back.
        // A seeded power loss is armed inside the epoch-2 write burst;
        // wherever it lands — or even if it misses entirely — the mount
        // must discard all of epoch 2.
        dev.begin_epoch(2);
        let window_end = at + SimDuration::from_us(200);
        dev.arm_power_loss(crash_in(seed, at, window_end));
        let mut epoch2: Vec<u64> = lpns.iter().map(|l| l + 40).collect();
        epoch2.extend(lpns.iter().copied());
        for l in epoch2 {
            let data = vec![byte(l, 2); page];
            match dev.host_write_page(Lpn(l), Some(&data), at) {
                Ok(w) => at = w.end,
                Err(SsdError::PowerLoss { .. }) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
        }

        let report = dev.mount(window_end + SimDuration::from_ms(1)).unwrap();
        prop_assert_eq!(report.committed_epoch, 1);
        prop_assert_eq!(report.pages_recovered, committed.len() as u64);

        // Exactly the committed state, nothing else.
        let t = report.window.end;
        for (&l, &v) in &committed {
            let (_, data) = dev.host_read_page(Lpn(l), t).unwrap();
            prop_assert_eq!(data.unwrap()[0], v, "lpn {} lost its committed bytes", l);
        }
        for l in lpns.iter().map(|l| l + 40) {
            prop_assert!(
                dev.ftl().lookup(Lpn(l)).is_none(),
                "uncommitted lpn {} survived the mount", l
            );
        }
        let mut seen = std::collections::HashSet::new();
        for &l in committed.keys() {
            let ppa = dev.ftl().lookup(Lpn(l)).expect("committed page must be mapped");
            prop_assert!(seen.insert(ppa), "two LPNs map to {ppa} after mount");
        }
    }
}

// ——— helpers for the crash-recovery properties ———

use optimstore::optim_math::{make_optimizer, AdamParams, MomentumParams, OptimizerKind};
use optimstore::simkit::SimDuration;
use optimstore::ssdsim::{JournalConfig, PowerLossConfig, SsdError};
use optimstore::workloads::{GradientGen, WeightInit};
use optimstore_bench::runners::SeededRun;
use std::sync::OnceLock;

/// Power fails at a seed-determined instant in `[start, end)`, or at
/// `start` when the window is empty: one SplitMix64 draw on a stream of
/// its own, so a seed shared with the media fault injector stays
/// independent of it.
fn crash_in(seed: u64, start: SimTime, end: SimTime) -> PowerLossConfig {
    fn splitmix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let span = (end - start).as_ns();
    if span == 0 {
        return PowerLossConfig::at(start);
    }
    let state =
        splitmix(seed ^ splitmix(0x5D0F_0000_0000_0000)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    let unit = (splitmix(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    PowerLossConfig::at(start + SimDuration::from_ns((span as f64 * unit) as u64))
}

const CRASH_RUN: SeededRun = SeededRun {
    params: 4_000,
    seed: 0xF25F_25F2,
};
const CRASH_STEPS: u64 = 2;

/// A fresh journaled device with the run's weights loaded, and the load's
/// end.
fn crash_load() -> (OptimStoreDevice, SimTime) {
    CRASH_RUN.load_adam(SsdConfig::tiny().with_journal(JournalConfig::every(8)))
}

/// The uncrashed reference, computed once: `(load end, final persist end,
/// final master weights)`. Every proptest case compares against it.
fn crash_reference() -> (SimTime, SimTime, Vec<f32>) {
    static REF: OnceLock<(SimTime, SimTime, Vec<f32>)> = OnceLock::new();
    REF.get_or_init(|| {
        let (mut dev, t0) = crash_load();
        let at = CRASH_RUN.train(&mut dev, 1..=CRASH_STEPS, t0);
        let master = dev.read_master_weights(at).unwrap();
        (t0, at, master)
    })
    .clone()
}

// ——— RAIN parity properties ———

use optimstore::ssdsim::RainConfig;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// XOR reconstruction is bit-exact: on a parity-protected device,
    /// losing **any** single committed page at **any** seeded instant
    /// after the commit leaves every committed page readable with its
    /// exact bytes — the lost one served from stripe peers and re-homed,
    /// never surfaced as uncorrectable.
    #[test]
    fn single_page_loss_reconstructs_bit_exactly(
        lpns in prop::collection::vec(0u64..48, 4..40),
        victim_idx in any::<u64>(),
        delay_us in 0u64..10_000,
    ) {
        let mut dev = Device::new_functional(
            SsdConfig::tiny().with_rain(RainConfig::rotating()),
        );
        let page = dev.page_bytes();
        let byte = |l: u64| (l as u8).wrapping_mul(37).wrapping_add(11);

        dev.begin_epoch(1);
        let mut at = SimTime::ZERO;
        let mut committed: HashMap<u64, u8> = HashMap::new();
        for &l in &lpns {
            let data = vec![byte(l); page];
            at = dev.host_write_page(Lpn(l), Some(&data), at).unwrap().end;
            committed.insert(l, byte(l));
        }
        let at = dev.commit_epoch(at).unwrap() + SimDuration::from_us(delay_us);

        let lost = lpns[(victim_idx % lpns.len() as u64) as usize];
        dev.inject_page_loss(Lpn(lost)).unwrap();

        for (&l, &v) in &committed {
            let (_, data) = dev.host_read_page(Lpn(l), at).unwrap();
            prop_assert!(
                data.unwrap().iter().all(|&b| b == v),
                "lpn {} read wrong bytes after losing lpn {}", l, lost
            );
        }
        prop_assert!(dev.stats().parity_reconstructions.get() >= 1);
        prop_assert_eq!(dev.stats().uncorrectable_reads.get(), 0);
    }

    /// A crash **during the commit's parity rebuild** never yields a
    /// stripe that reconstructs wrong data: wherever the seeded instant
    /// lands inside the commit window — mid-journal-flush or halfway
    /// through a parity-page program — the mount rolls data *and* parity
    /// back to the same epoch, so a fresh single loss afterwards still
    /// reconstructs that epoch's committed bytes, never a blend.
    #[test]
    fn crash_during_parity_write_never_reconstructs_wrong_data(
        seed in any::<u64>(),
        lpns in prop::collection::vec(0u64..40, 4..32),
        victim_idx in any::<u64>(),
    ) {
        let cfg = || SsdConfig::tiny()
            .with_rain(RainConfig::rotating())
            .with_journal(JournalConfig::every(4));
        let byte = |l: u64, epoch: u8| (l as u8).wrapping_mul(31).wrapping_add(epoch);

        // Probe run: measure epoch 2's commit window. Identical
        // configuration and writes give identical timing, so the window
        // observed here brackets the parity rebuild on the armed run.
        let mut probe = Device::new_functional(cfg());
        let page = probe.page_bytes();
        let write_all = |dev: &mut Device, epoch: u8, mut at: SimTime| -> SimTime {
            for &l in &lpns {
                let data = vec![byte(l, epoch); page];
                at = dev.host_write_page(Lpn(l), Some(&data), at).unwrap().end;
            }
            at
        };
        probe.begin_epoch(1);
        let at = write_all(&mut probe, 1, SimTime::ZERO);
        let at = probe.commit_epoch(at).unwrap();
        probe.begin_epoch(2);
        let commit_start = write_all(&mut probe, 2, at);
        let commit_end = probe.commit_epoch(commit_start).unwrap();

        // Armed run: the power dies at a seeded instant inside that window.
        let mut dev = Device::new_functional(cfg());
        dev.begin_epoch(1);
        let at = write_all(&mut dev, 1, SimTime::ZERO);
        let at = dev.commit_epoch(at).unwrap();
        dev.begin_epoch(2);
        let at = write_all(&mut dev, 2, at);
        dev.arm_power_loss(crash_in(seed, commit_start, commit_end));
        let committed_epoch: u8 = match dev.commit_epoch(at) {
            Ok(_) => 2, // the instant landed past the commit's last program
            Err(SsdError::PowerLoss { .. }) => 1,
            Err(e) => panic!("unexpected error {e}"),
        };

        let report = dev.mount(commit_end + SimDuration::from_ms(1)).unwrap();
        prop_assert_eq!(report.committed_epoch, committed_epoch as u64);
        let t = report.window.end;

        // A fresh single loss after recovery must reconstruct the bytes
        // of the epoch the device actually committed.
        let lost = lpns[(victim_idx % lpns.len() as u64) as usize];
        dev.inject_page_loss(Lpn(lost)).unwrap();
        for &l in lpns.iter().collect::<std::collections::BTreeSet<_>>() {
            let (_, data) = dev.host_read_page(Lpn(l), t).unwrap();
            let v = byte(l, committed_epoch);
            prop_assert!(
                data.unwrap().iter().all(|&b| b == v),
                "lpn {} served non-epoch-{} bytes after a crash at commit", l, committed_epoch
            );
        }
        prop_assert_eq!(dev.stats().uncorrectable_reads.get(), 0);
    }
}

// ——— Parallel data-plane determinism ———

use optimstore::simkit::par;
use optimstore_bench::runners::optimizer_and_spec;

const PAR_PARAMS: u64 = 3_000;
const PAR_STEPS: u64 = 2;

/// One functional training run at the *current* pool width: the final
/// master weights plus the `Debug` rendering of every `StepReport` (which
/// covers every timing, traffic, energy, and maintenance counter the
/// executor emits — any divergence shows up as a string mismatch).
fn par_run(seed: u64, kind: OptimizerKind) -> (Vec<f32>, Vec<String>) {
    let (optimizer, spec) = optimizer_and_spec(kind);
    let mut dev = OptimStoreDevice::new_functional(
        SsdConfig::tiny(),
        OptimStoreConfig::die_ndp(),
        PAR_PARAMS,
        optimizer,
        spec,
    )
    .unwrap();
    let weights = WeightInit {
        seed,
        ..WeightInit::default()
    }
    .generate(PAR_PARAMS as usize);
    let mut at = dev.load_weights(&weights, SimTime::ZERO).unwrap();
    let grads = GradientGen::new(seed ^ 0xD1CE_0000);
    let mut reports = Vec::new();
    for step in 1..=PAR_STEPS {
        let report = dev
            .run_step(Some(&grads.generate(step, PAR_PARAMS as usize)), at)
            .unwrap();
        at = report.end;
        reports.push(format!("{report:?}"));
    }
    (dev.read_master_weights(at).unwrap(), reports)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The worker pool is invisible in the results: for arbitrary seeds
    /// and any optimizer, a functional run with the pool forced serial
    /// and one at width 4 produce bit-identical master weights and
    /// field-identical `StepReport`s. This is the determinism contract
    /// the data-plane/timing-plane split rests on.
    #[test]
    fn parallel_functional_run_is_bit_identical_to_serial(
        seed in any::<u64>(),
        kind_idx in 0usize..8,
    ) {
        let kinds = OptimizerKind::all();
        let kind = kinds[kind_idx % kinds.len()];

        par::set_threads(1);
        let (serial_w, serial_reports) = par_run(seed, kind);
        par::set_threads(4);
        let (parallel_w, parallel_reports) = par_run(seed, kind);
        par::set_threads(0);

        prop_assert_eq!(serial_reports, parallel_reports,
            "StepReport diverged under {:?} with seed {:#x}", kind, seed);
        prop_assert_eq!(serial_w.len(), parallel_w.len());
        for (i, (a, b)) in serial_w.iter().zip(&parallel_w).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(),
                "master weight {} diverged under {:?} with seed {:#x}", i, kind, seed);
        }
    }

    /// `par::map_indexed` returns results in *input* order no matter how
    /// completion order is scrambled: each item sleeps so that earlier
    /// items finish later (plus a seeded jitter), across pool widths.
    #[test]
    fn map_indexed_preserves_order_under_adversarial_delays(
        n in 0usize..48,
        seed in any::<u64>(),
        width in 1usize..6,
    ) {
        let items: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(seed | 1)).collect();
        par::set_threads(width);
        let got = par::map_indexed(&items, |i, &x| {
            // Inverted schedule: item 0 sleeps longest, the last item not
            // at all, so naive completion-order collection would reverse.
            let jitter = seed.rotate_left(i as u32) % 200;
            std::thread::sleep(std::time::Duration::from_micros(
                (n - i) as u64 * 100 + jitter,
            ));
            x.wrapping_mul(31).wrapping_add(i as u64)
        });
        par::set_threads(0);
        let want: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| x.wrapping_mul(31).wrapping_add(i as u64))
            .collect();
        prop_assert_eq!(got, want);
    }
}

// ——— Batched-kernel bit-exactness and buffer-pool hygiene ———

use optimstore::optim_math::kernels::{
    update_chunk, update_chunk_into, update_chunk_scalar, BATCH_BLOCK, MAX_SLOTS,
};
use optimstore::optim_math::Optimizer;
use optimstore::simkit::pool::PageBuf;

/// An update rule keeping `.0` auxiliary slots, each with its own rule, so
/// that every slot count the batched kernels dispatch on (0 to
/// `MAX_SLOTS`) runs — the built-in optimizers keep only one or two.
#[derive(Debug)]
struct KSlots(usize);

impl Optimizer for KSlots {
    fn kind(&self) -> OptimizerKind {
        OptimizerKind::Adam
    }

    fn state_slots(&self) -> usize {
        self.0
    }

    fn hyper_wire(&self) -> [f32; 5] {
        [0.0; 5]
    }

    fn set_lr(&mut self, _lr: f32) {}

    fn update_scalar(&self, w: f32, slots: &mut [f32], grad: f32, step: u64) -> f32 {
        let mut w = w - 1e-3 * grad / step as f32;
        for (k, s) in slots.iter_mut().enumerate() {
            *s = 0.9 * *s + (k as f32 + 1.0) * grad;
            w -= 0.01 * *s;
        }
        w
    }
}

/// `n` seeded values in `[-scale, scale)`, non-negative when `positive`.
fn seeded_values(seed: u64, n: usize, scale: f32, positive: bool) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let x = ((state >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0) * scale;
            if positive {
                x.abs()
            } else {
                x
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The out-of-place kernel (`update_chunk_into`) and the in-place one
    /// (`update_chunk`) write byte for byte what the scalar oracle writes,
    /// for every built-in rule and every slot count, both gradient dtypes,
    /// and lengths that do and do not fill whole blocks; the out-of-place
    /// kernel leaves its sources untouched.
    #[test]
    fn kernel_into_matches_scalar(
        rule in 0usize..(5 + MAX_SLOTS + 1),
        bf16 in any::<bool>(),
        n in 0usize..(3 * BATCH_BLOCK + 1),
        step in 1u64..1000,
        seed in any::<u64>(),
    ) {
        let kinds = OptimizerKind::all();
        let opt: Box<dyn Optimizer> = match kinds.get(rule) {
            Some(&kind) => make_optimizer(kind, AdamParams::default(), MomentumParams::default()),
            None => Box::new(KSlots(rule - kinds.len())),
        };
        let dtype = if bf16 { GradDtype::Bf16 } else { GradDtype::F16 };
        let k = opt.state_slots();
        let to_bytes = |v: Vec<f32>| -> Vec<u8> { v.iter().flat_map(|x| x.to_le_bytes()).collect() };
        let w32 = to_bytes(seeded_values(seed, n, 2.0, false));
        // Slot state stays non-negative: second moments and accumulators
        // are, and no rule then takes the root of a negative.
        let slots: Vec<Vec<u8>> = (0..k)
            .map(|s| to_bytes(seeded_values(seed ^ (s as u64 + 1) << 32, n, 0.5, true)))
            .collect();
        let grads = encode_grads(&seeded_values(!seed, n, 1.0, false), dtype);

        let mut want = (w32.clone(), slots.clone(), vec![0u8; 2 * n]);
        {
            let mut refs: Vec<&mut [u8]> = want.1.iter_mut().map(|s| s.as_mut_slice()).collect();
            update_chunk_scalar(opt.as_ref(), &mut want.0, &mut refs, &grads, &mut want.2, dtype, step).unwrap();
        }

        let mut in_place = (w32.clone(), slots.clone(), vec![0x5Au8; 2 * n]);
        {
            let mut refs: Vec<&mut [u8]> = in_place.1.iter_mut().map(|s| s.as_mut_slice()).collect();
            let done = update_chunk(opt.as_ref(), &mut in_place.0, &mut refs, &grads, &mut in_place.2, dtype, step);
            prop_assert_eq!(done, Ok(n));
        }
        prop_assert_eq!(&in_place, &want);

        let mut into = (vec![0xA5u8; 4 * n], vec![vec![0xA5u8; 4 * n]; k], vec![0xA5u8; 2 * n]);
        {
            let src: Vec<&[u8]> = slots.iter().map(|s| s.as_slice()).collect();
            let mut dst: Vec<&mut [u8]> = into.1.iter_mut().map(|s| s.as_mut_slice()).collect();
            let done = update_chunk_into(
                opt.as_ref(), &w32, &src, &grads, &mut into.0, &mut dst, &mut into.2, dtype, step,
            );
            prop_assert_eq!(done, Ok(n));
        }
        prop_assert_eq!(&into, &want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The monomorphized batch kernel is bit-identical to the scalar
    /// reference for every optimizer, both gradient dtypes, arbitrary
    /// seeds and non-block-aligned element counts, across multiple steps —
    /// including NaN gradients (whose propagation through the update rule
    /// must match bit-for-bit too).
    #[test]
    fn batched_kernel_matches_scalar_reference(
        n in 0usize..1200,
        seed in any::<u64>(),
        kind_idx in 0usize..8,
        dtype_f16 in any::<bool>(),
        nan_every in 0usize..20,
    ) {
        let kinds = OptimizerKind::all();
        let kind = kinds[kind_idx % kinds.len()];
        let opt = make_optimizer(kind, AdamParams::default(), MomentumParams::default());
        let dtype = if dtype_f16 { GradDtype::F16 } else { GradDtype::Bf16 };

        let mut rng_state = seed | 1;
        let mut next = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state as f64 / u64::MAX as f64) as f32 - 0.5
        };
        let weights: Vec<f32> = (0..n).map(|_| next() * 4.0).collect();
        let grads_f: Vec<f32> = (0..n)
            .enumerate()
            .map(|(i, _)| {
                if nan_every > 0 && i % nan_every == 0 {
                    f32::NAN
                } else {
                    next()
                }
            })
            .collect();
        let grads = encode_grads(&grads_f, dtype);

        let mut fast = StateBuffers::init(opt.as_ref(), &weights, dtype);
        let mut slow = fast.clone();
        for step in 1..=3u64 {
            // Fast path: the dispatching entry point (batched).
            let mut fast_refs: Vec<&mut [u8]> =
                fast.slots.iter_mut().map(|s| s.as_mut_slice()).collect();
            update_chunk(
                opt.as_ref(), &mut fast.w32, &mut fast_refs, &grads, &mut fast.w16, dtype, step,
            ).unwrap();
            // Oracle: the scalar reference loop.
            let mut slow_refs: Vec<&mut [u8]> =
                slow.slots.iter_mut().map(|s| s.as_mut_slice()).collect();
            update_chunk_scalar(
                opt.as_ref(), &mut slow.w32, &mut slow_refs, &grads, &mut slow.w16, dtype, step,
            ).unwrap();
        }
        prop_assert_eq!(&fast.w32, &slow.w32, "{:?} w32 diverged", kind);
        prop_assert_eq!(&fast.slots, &slow.slots, "{:?} slots diverged", kind);
        prop_assert_eq!(&fast.w16, &slow.w16, "{:?} w16 diverged", kind);
    }

    /// Pool-recycled page buffers never alias: any interleaving of
    /// checkouts and drops yields live buffers with fully independent
    /// storage, and `zeroed` contents are always zero even when the
    /// recycled allocation held dirty bytes.
    #[test]
    fn page_pool_buffers_never_alias(
        ops in prop::collection::vec((any::<bool>(), 1usize..2048), 1..120),
    ) {
        let mut live: Vec<(u8, PageBuf)> = Vec::new();
        let mut tag = 0u8;
        for (drop_one, len) in ops {
            if drop_one && !live.is_empty() {
                live.swap_remove(live.len() / 2);
            } else {
                let mut b = PageBuf::zeroed(len);
                prop_assert!(b.iter().all(|&x| x == 0), "recycled buffer not re-zeroed");
                tag = tag.wrapping_add(1);
                b.iter_mut().for_each(|x| *x = tag);
                live.push((tag, b));
            }
        }
        for (tag, b) in &live {
            prop_assert!(
                b.iter().all(|x| x == tag),
                "live buffer with tag {} was clobbered by another checkout", tag
            );
        }
    }
}
