//! Reliability, end to end: with die-level RAIN parity and background
//! scrub armed, a training run whose media loses **ten-plus pages** —
//! seeded, deterministic injections on top of an active aging model —
//! completes with master and fp16 weights **bit-identical** to a
//! fault-free run on a pristine device. The same seed with parity off
//! aborts with [`SsdError::UncorrectableRead`]. Parity also composes
//! with the journal: a power loss in the middle of a degraded step
//! mounts, replays, and still finishes bit-exact.
//!
//! The runs are F26's: [`DegradedCell`] owns the device of each (aging
//! schedule, parity, scrub) point, the fault-free reference, the
//! one-loss-per-stripe victim picker and the hot-read → loss → pause →
//! step loop. These tests assert on what the cell hands back.

use std::sync::OnceLock;

use optimstore::optimstore_core::CoreError;
use optimstore::ssdsim::{JournalConfig, PowerLossConfig, ScrubConfig, SsdError};
use optimstore::workloads::{aging_schedules, AgingSchedule};
use optimstore_bench::runners::{assert_bit_exact, DegradedCell, SeededRun};

const SEED: u64 = 0xF26;

/// 200 k parameters; the cell's four steps, each after a gap of three
/// losses, give 12 victims, comfortably above the ≥ 10 the acceptance
/// gate demands. Built once for every test.
fn cell() -> &'static DegradedCell {
    static CELL: OnceLock<DegradedCell> = OnceLock::new();
    CELL.get_or_init(|| {
        let run = SeededRun {
            params: 200_000,
            seed: SEED,
        };
        DegradedCell::new(run)
    })
}

/// The acceptance gate's surviving half: for every aging schedule, a
/// parity + scrub device that loses 12 committed pages mid-run finishes
/// all four steps, reconstructed every loss from stripe peers (nothing
/// surfaced as uncorrectable), and lands bit-identical to the fault-free
/// reference.
#[test]
fn parity_and_scrub_survive_ten_plus_losses_bit_exactly() {
    let cell = cell();
    for sched in aging_schedules(SEED) {
        sched.validate().unwrap();
        let label = sched.name;
        let ssd = DegradedCell::ssd(&sched, true, Some(ScrubConfig::per_step(512)));
        let (mut dev, at) = cell.run.load_adam(ssd);
        let d = cell.degrade(&mut dev, &sched, 1..=DegradedCell::STEPS, at);
        let at = d
            .outcome
            .unwrap_or_else(|(step, e)| panic!("{label}: degraded step {step} failed: {e}"));
        let injected = d.injected;
        assert!(injected >= 10, "{label}: only {injected} losses injected");

        let st = dev.ssd().stats();
        assert!(
            st.parity_reconstructions.get() >= injected,
            "{label}: {} reconstructions for {injected} losses",
            st.parity_reconstructions.get()
        );
        assert_eq!(
            st.uncorrectable_reads.get(),
            0,
            "{label}: losses leaked past parity"
        );

        let master = dev.read_master_weights(at).unwrap();
        assert_bit_exact(&master, &cell.master, &format!("{label}: master"));
        let w16 = dev.read_weights16(at).unwrap();
        assert_bit_exact(&w16, &cell.weights16, &format!("{label}: weights16"));
    }
}

/// The abort half: the *same seed* without parity cannot survive — some
/// injected loss exhausts its read retries and the run ends in a typed
/// `UncorrectableRead`, never silent corruption.
#[test]
fn parity_off_same_seed_aborts_with_uncorrectable_read() {
    let cell = cell();
    for sched in aging_schedules(SEED) {
        let label = sched.name;
        let (mut dev, at) = cell.run.load_adam(DegradedCell::ssd(&sched, false, None));
        let d = cell.degrade(&mut dev, &sched, 1..=DegradedCell::STEPS, at);
        assert!(
            d.injected >= 1,
            "{label}: no losses injected before failure"
        );
        match d.outcome {
            Err((_, CoreError::Ssd(SsdError::UncorrectableRead { .. }))) => {}
            other => panic!("{label}: expected UncorrectableRead, got {other:?}"),
        }
        assert!(
            dev.ssd().stats().uncorrectable_reads.get() > 0,
            "{label}: abort must be accounted as uncorrectable"
        );
    }
}

/// Parity composes with the journal: power dies in the middle of a step
/// on a device that already reconstructed injected losses, the mount
/// restores the last committed epoch (whose parity is consistent — the
/// rebuild happens inside the commit), the replayed step reconstructs
/// the still-lost pages again, and the finished run is bit-exact.
#[test]
fn rain_scrub_journal_crash_recovery_composes() {
    let cell = cell();
    // No aging and no hot reads: only the seeded losses and the pauses.
    let sched = AgingSchedule::benign(SEED);
    let ssd = DegradedCell::ssd(&sched, true, Some(ScrubConfig::per_step(512)))
        .with_journal(JournalConfig::every(64));

    // Measure the step windows on an identical, uncrashed run: identical
    // configuration and inputs give identical timing, so step 2's window
    // there pinpoints step 2 here.
    let (mut probe, at) = cell.run.load_adam(ssd);
    let windows = cell
        .degrade(&mut probe, &sched, 1..=DegradedCell::STEPS, at)
        .steps;
    assert_eq!(windows.len(), DegradedCell::STEPS as usize);
    assert!(probe.ssd().stats().parity_reconstructions.get() >= 10);

    // The real run: crash halfway into step 2, after that gap's losses.
    let tc = windows[1].start + (windows[1].end - windows[1].start) / 2;
    let (mut dev, at) = cell.run.load_adam(ssd);
    dev.ssd_mut().arm_power_loss(PowerLossConfig::at(tc));
    let d = cell.degrade(&mut dev, &sched, 1..=DegradedCell::STEPS, at);
    assert!(
        matches!(
            d.outcome,
            Err((2, CoreError::Ssd(SsdError::PowerLoss { .. })))
        ),
        "crash must land inside step 2: {:?}",
        d.outcome
    );

    let rec = cell.run.recover(&mut dev, 2, false).recovery;
    assert_eq!(rec.resumed_step, 1, "mount restores the committed epoch");
    assert_eq!(dev.step_count(), 2, "replay re-ran the crashed step");

    let at = cell
        .degrade(&mut dev, &sched, 3..=DegradedCell::STEPS, rec.end)
        .outcome
        .unwrap_or_else(|(step, e)| panic!("step {step} after the mount failed: {e}"));
    assert_eq!(dev.ssd().stats().uncorrectable_reads.get(), 0);
    let master = dev.read_master_weights(at).unwrap();
    assert_bit_exact(&master, &cell.master, "crash-compose: master");
    let w16 = dev.read_weights16(at).unwrap();
    assert_bit_exact(&w16, &cell.weights16, "crash-compose: weights16");
}
