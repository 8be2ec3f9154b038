//! Crash consistency, end to end: sudden power loss at *any* instant of a
//! functional training run — early in a step, during the write-back tail,
//! mid-GC-erase, even during the recovery mount itself — must leave the
//! device recoverable to the last committed optimizer step. After
//! `mount()` + replaying the interrupted step, master weights and fp16
//! working weights are **bit-identical** to a run that never lost power.
//!
//! The runs are F25's: [`CrashCell`] owns the journaled small-block
//! device, the uncrashed reference, the rule that resolves a
//! [`workloads::crash_schedules`] entry against the reference's step and
//! erase windows, and the crash → mount → replay sequence. These tests
//! assert on what the cell hands back.

use std::collections::BTreeSet;

use optimstore::optimstore_core::CoreError;
use optimstore::simkit::{par, SimDuration};
use optimstore::ssdsim::{PowerLossConfig, SsdError};
use optimstore::workloads::{crash_schedules, CrashPhase};
use optimstore_bench::runners::{assert_bit_exact, CrashCell, SeededRun};

/// 200 k parameters of Adam state on [`CrashCell::ssd`]: three steps of
/// out-of-place write-back exceed physical capacity, so garbage collection
/// *must* run and the `during-gc` schedules get a real erase window.
const RUN: SeededRun = SeededRun {
    params: 200_000,
    seed: 0xF25,
};

/// The fig25 midpoint journal flush interval, for the tests that need
/// only one.
const INTERVAL: u32 = 64;

/// The acceptance gate for F25: every crash schedule — twelve distinct
/// instants covering early-step, mid-step, write-back, mid-GC-erase and
/// double-crash phases — recovers to bit-identical state, with the mount
/// report accounting for what was replayed, scanned and discarded. Runs
/// at each of F25's flush intervals, fanned out like F25 on the
/// data-plane pool; 16 is the tightest interval whose never-reclaimed
/// journal blocks still fit on die 0 of the shrunken device.
#[test]
fn every_crash_schedule_recovers_bit_identically() {
    par::map_indexed(&[16u32, 64, 256], |_, &interval| {
        every_crash_schedule_recovers_at(interval)
    });
}

fn every_crash_schedule_recovers_at(interval: u32) {
    let cell = CrashCell::new(RUN, interval);
    let schedules = crash_schedules(0xF25);
    assert!(schedules.len() >= 10);

    // The instants must be genuinely distinct (and at least ten of them).
    let instants: BTreeSet<u64> = schedules.iter().map(|s| cell.instant(s).as_ns()).collect();
    assert!(
        instants.len() >= 10,
        "need >= 10 distinct crash instants, got {}",
        instants.len()
    );

    for s in &schedules {
        s.validate().unwrap();
        let label = format!("interval {interval}, {}", s.name);
        // Names the schedule for a panic raised inside the cell, whose
        // messages do not carry it.
        eprintln!("{label}");
        let tc = cell.instant(s);
        assert!(tc > cell.loaded, "{label}: crash instant precedes training");
        let (mut dev, crash) = cell.crash(s);
        let k = crash.step;
        let rec = crash.recovery;
        assert_eq!(crash.at, tc, "{label}: crash instant");

        // Accounting: the mount resumed from the last committed epoch,
        // recovered every committed page, and the replay brought the step
        // counter back to where the crash hit.
        assert_eq!(rec.resumed_step, k - 1, "{label}: resumed step");
        assert_eq!(rec.mount.committed_epoch, k - 1, "{label}: epoch");
        assert!(rec.mount.pages_recovered > 0, "{label}: pages recovered");
        assert!(
            rec.mount.journal_pages_replayed > 0,
            "{label}: journal replay"
        );
        let replayed = rec.replayed.expect("replay requested");
        assert_eq!(replayed.params, RUN.params, "{label}: replay params");
        assert_eq!(dev.step_count(), k, "{label}: step after replay");
        // Only *completed* mounts count; an interrupted mount leaves no
        // trace beyond the new crash instant.
        assert_eq!(dev.ssd().stats().mounts.get(), 1, "{label}: mount count");
        // A double crash kills the first mount 50 µs in; the cell checks
        // that it fails with a power loss and mounts again from scratch.
        let double_crash = matches!(s.phase, CrashPhase::DuringMount { .. });
        assert_eq!(crash.mount_crash.is_some(), double_crash, "{label}");
        if let Some(second_at) = crash.mount_crash {
            assert!(
                second_at > crash.at,
                "{label}: second crash must postdate the first"
            );
            assert!(rec.mount.window.end > rec.mount.window.start);
        }

        let at = RUN.train(&mut dev, k + 1..=CrashCell::STEPS, rec.end);
        assert_eq!(dev.step_count(), CrashCell::STEPS, "{label}: step counter");
        let master = dev.read_master_weights(at).unwrap();
        assert_bit_exact(&master, &cell.master, &format!("{label}: master"));
        let w16 = dev.read_weights16(at).unwrap();
        assert_bit_exact(&w16, &cell.weights16, &format!("{label}: weights16"));
    }
}

/// A crash *between* steps (after the commit flush finished) loses
/// nothing: recovery without gradients just resynchronizes the step
/// counter and training continues.
#[test]
fn crash_between_steps_needs_no_replay() {
    let cell = CrashCell::new(RUN, INTERVAL);
    let (mut dev, t0) = RUN.load_adam(CrashCell::ssd(INTERVAL));
    let r1 = dev.run_step(Some(&RUN.grads(1)), t0).unwrap();

    // Quiesced after step 1's commit: kill the power on the idle device.
    let tc = r1.end + SimDuration::from_us(5);
    dev.ssd_mut().arm_power_loss(PowerLossConfig::at(tc));
    let err = dev.run_step(Some(&RUN.grads(2)), tc + SimDuration::from_us(5));
    assert!(
        matches!(err, Err(CoreError::Ssd(SsdError::PowerLoss { .. }))),
        "step issued after the crash instant must observe the power loss"
    );

    let rec = dev.recover(None, tc + SimDuration::from_ms(1)).unwrap();
    assert_eq!(rec.resumed_step, 1, "step 1 was committed");
    assert!(rec.replayed.is_none());
    assert_eq!(rec.mount.uncommitted_discarded, 0, "nothing was in flight");

    let at = RUN.train(&mut dev, 2..=CrashCell::STEPS, rec.end);
    let master = dev.read_master_weights(at).unwrap();
    assert_bit_exact(&master, &cell.master, "between-steps: master");
}

/// Tighter journaling buys cheaper mounts: with a small flush interval the
/// mount's OOB scan covers fewer pages than with a loose one, at the cost
/// of more journal pages written. (The device-level counterpart lives in
/// `ssdsim`; this checks the trade-off end to end through the optimizer.)
#[test]
fn journal_interval_shifts_mount_cost_end_to_end() {
    let mut scans = Vec::new();
    let mut journal_pages = Vec::new();
    for interval in [8u32, 256] {
        let ssd = CrashCell::ssd(interval);
        let (mut dev, t0) = RUN.load_adam(ssd);
        let r1 = dev.run_step(Some(&RUN.grads(1)), t0).unwrap();
        let tc = r1.start + (r1.end - r1.start) / 2;
        // Re-run the same prefix on a fresh device with the crash armed.
        let (mut dev, t0) = RUN.load_adam(ssd);
        let crash = RUN.crash(&mut dev, t0, 1, PowerLossConfig::at(tc), false);
        assert_eq!((crash.step, crash.at), (1, tc));
        scans.push(crash.recovery.mount.pages_scanned);
        journal_pages.push(dev.ssd().stats().journal_pages.get());
    }
    assert!(
        scans[0] < scans[1],
        "tight journaling must shrink the mount scan ({} vs {})",
        scans[0],
        scans[1]
    );
    assert!(
        journal_pages[0] > journal_pages[1],
        "tight journaling must cost more journal pages ({} vs {})",
        journal_pages[0],
        journal_pages[1]
    );
}
