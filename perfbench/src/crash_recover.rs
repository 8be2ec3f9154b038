//! `crash-recover`: a functional tiny SSD with a journal, rotating RAIN
//! parity and a per-step patrol scrub, with few enough blocks per plane
//! that garbage collection runs. Each cycle builds a device, trains a few
//! steps, cuts power at a seeded instant in one of the `crash_schedules`
//! phases, recovers, finishes the remaining steps, and must end with the
//! master weights of an uncrashed reference run, bit for bit.

use crate::probe::{Counters, Stopwatch};
use crate::replay;
use crate::run::{Ctx, Run};
use crate::stats;
use crate::trace::Tracer;
use optim_math::OptimizerKind;
use optimstore_bench::runners::optimizer_and_spec;
use optimstore_core::{CoreError, OptimStoreConfig, OptimStoreDevice};
use simkit::{SimDuration, SimTime};
use ssdsim::trace::OpKind;
use ssdsim::{JournalConfig, PowerLossConfig, RainConfig, ScrubConfig, SsdConfig, SsdError};
use std::time::Instant;
use workloads::{crash_schedules, CrashPhase, CrashSchedule, GradientGen};

/// Parameters trained.
const PARAMS: usize = 200_000;
/// Optimizer steps per cycle.
const STEPS: u64 = 3;
/// Blocks per plane: small enough that three steps need GC.
const BLOCKS_PER_PLANE: u32 = 16;
/// Crash instants stay below this share of their phase window.
const MAX_FRACTION: f64 = 0.9;

fn config() -> SsdConfig {
    let mut ssd = SsdConfig::tiny()
        .with_journal(JournalConfig::every(64))
        .with_rain(RainConfig::rotating())
        .with_scrub(ScrubConfig::per_step(256));
    ssd.nand.geometry.blocks_per_plane = BLOCKS_PER_PLANE;
    ssd
}

fn build() -> OptimStoreDevice {
    let (optimizer, spec) = optimizer_and_spec(OptimizerKind::Adam);
    OptimStoreDevice::new_functional(
        config(),
        OptimStoreConfig::die_ndp(),
        PARAMS as u64,
        optimizer,
        spec,
    )
    .expect("the crash-recover state fits its device")
}

/// SplitMix64: the cycle's crash draws.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The uncrashed run every cycle must reproduce.
struct Reference {
    windows: Vec<(SimTime, SimTime)>,
    erases: Vec<(SimTime, SimTime)>,
    master: Vec<f32>,
}

/// A device trained up to its power loss.
struct Crashed {
    dev: OptimStoreDevice,
    /// The step that failed.
    failed: u64,
    /// Where the mount that must succeed starts.
    mount_at: SimTime,
}

fn crash_instant(s: &CrashSchedule, r: &Reference) -> SimTime {
    match s.phase {
        CrashPhase::Step { step } | CrashPhase::DuringMount { step } => {
            let (start, end) = r.windows[(step - 1) as usize];
            s.instant(start, end)
        }
        CrashPhase::WriteBack { step } => {
            let (start, end) = r.windows[(step - 1) as usize];
            s.instant(start + (end - start).saturating_mul(3) / 4, end)
        }
        CrashPhase::DuringGc => {
            let i = ((s.fraction * r.erases.len() as f64) as usize).min(r.erases.len() - 1);
            let (start, end) = r.erases[i];
            s.instant(start, end)
        }
    }
}

pub fn run(ctx: &mut Ctx) -> Run {
    let mut run = Run::default();
    let weights = crate::functional_train::weights(ctx.seed, PARAMS);
    let gen = GradientGen::new(ctx.seed);
    let grads: Vec<Vec<f32>> = (1..=STEPS)
        .map(|step| {
            let s = ctx.tracer.begin("workloads.grad_gen", step);
            let g = gen.generate(step, PARAMS);
            ctx.tracer.end(s);
            g
        })
        .collect();

    // The reference: step windows and erase windows for resolving crash
    // phases, and the final master weights.
    let mut refdev = build();
    refdev.enable_trace(1 << 17);
    let mut at = refdev.load_weights(&weights, SimTime::ZERO).expect("load");
    let mut windows = Vec::new();
    for (i, g) in grads.iter().enumerate() {
        let r = refdev.run_step(Some(g), at).expect("reference step");
        run.digest.push(format!("reference step {} {r:?}", i + 1));
        windows.push((r.start, r.end));
        at = r.end;
    }
    let reference = Reference {
        windows,
        erases: refdev
            .trace_events()
            .expect("trace enabled")
            .iter()
            .filter(|e| e.kind == OpKind::Erase)
            .map(|e| (e.start, e.end))
            .collect(),
        master: refdev.read_master_weights(at).expect("read back"),
    };
    run.digest.push(format!(
        "reference stats {}",
        refdev
            .ssd()
            .stats()
            .to_snapshot()
            .trim_end()
            .replace('\n', " ")
    ));
    drop(refdev);
    assert!(
        !reference.erases.is_empty(),
        "the reference run must collect garbage"
    );

    let schedules = crash_schedules(ctx.seed);
    let mut rng = ctx.seed;
    let mut recover_ms = Vec::new();
    let mut mount_ms = Vec::new();
    let mut replay_ms = Vec::new();
    let mut scanned = Vec::new();
    let mut per_cycle = Counters::default();
    let mut groups_replayed = 0u64;
    let mut last = None;
    let mut cycle = 0u64;
    let mut started = Instant::now();
    // Cycle 1 warms up untimed (but checked); at least two timed cycles follow.
    while cycle < 3 || started.elapsed() < ctx.budget {
        cycle += 1;
        let pick = schedules[(splitmix(&mut rng) % schedules.len() as u64) as usize];
        let fraction = (splitmix(&mut rng) >> 11) as f64 / (1u64 << 53) as f64 * MAX_FRACTION;
        let sched = CrashSchedule { fraction, ..pick };
        let tc = crash_instant(&sched, &reference);

        let mut warmup = Run::default();
        let timing = if cycle == 1 { &mut warmup } else { &mut run };
        let t = Stopwatch::start();
        let s = ctx.tracer.begin("bench.item", cycle);
        let crashed = crash(&mut ctx.tracer, timing, &weights, &grads, &sched, tc, cycle);
        let mut dev = crashed.dev;
        let s2 = ctx.tracer.begin("core.recover", cycle);
        let tr = Instant::now();
        let rec = dev
            .recover(
                Some(&grads[(crashed.failed - 1) as usize]),
                crashed.mount_at,
            )
            .expect("recovery");
        let rec_ms = tr.elapsed().as_secs_f64() * 1e3;
        ctx.tracer.end(s2);
        let mut at = rec.end;
        for step in crashed.failed + 1..=STEPS {
            at = timed_step(&mut ctx.tracer, timing, &mut dev, &grads, step, at, cycle);
        }
        ctx.tracer.end(s);
        let item = t.lap();

        let master = dev.read_master_weights(at).expect("read back");
        let exact = master.len() == reference.master.len()
            && master
                .iter()
                .zip(&reference.master)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        run.check(exact);
        if cycle == 1 {
            run.digest.push(format!(
                "cycle 1 {} fraction {fraction} crash {tc} failed step {} mount {:?} resumed {}",
                sched.name, crashed.failed, rec.mount, rec.resumed_step
            ));
            started = Instant::now();
            continue;
        }
        run.item.push(item);
        run.yardstick();
        recover_ms.push(rec_ms);
        scanned.push(rec.mount.pages_scanned as f64);
        groups_replayed += rec.replayed.map_or(0, |r| r.groups_replayed);
        per_cycle.add(&Counters::of(dev.ssd()));

        if ctx.traced() {
            // The same crash on a twin, mounted directly.
            let twin = crash(
                &mut Tracer::off(),
                &mut Run::default(),
                &weights,
                &grads,
                &sched,
                tc,
                cycle,
            );
            let mut tdev = twin.dev;
            let tm = Instant::now();
            tdev.ssd_mut().mount(twin.mount_at).expect("twin mount");
            let m = tm.elapsed().as_secs_f64() * 1e3;
            mount_ms.push(m);
            replay_ms.push(rec_ms - m);
        }
        last = Some((dev, at));
    }
    let cycles = recover_ms.len() as f64;

    if ctx.traced() {
        run.layer("core.recover_ms_p50", stats::median(&recover_ms));
        run.layer("core.recover_ms_tail", stats::tail(&recover_ms).value);
        run.layer("core.recover_replay_ms", stats::median(&replay_ms));
        run.layer("core.groups_replayed", groups_replayed as f64);
        run.layer("ssdsim.mount_ms", stats::median(&mount_ms));
        run.layer("ssdsim.mount_scanned_pages", stats::median(&scanned));
        run.layer(
            "ssdsim.parity_reconstructions",
            per_cycle.parity_reconstructions as f64 / cycles,
        );
        run.layer(
            "ssdsim.uncorrectable_reads",
            per_cycle.uncorrectable_reads as f64 / cycles,
        );
        let (mut dev, _) = last.expect("at least one cycle");
        crate::functional_train::data_plane_layers(&mut run, &dev, &weights, &gen);
        replay_on(&mut run, &mut dev);
        let cfg = config();
        run.layer("nandsim.die_new_ms", replay::die_new_ms(cfg.nand, true));
        run.layer("ssdsim.device_new_s", replay::device_new_s(cfg, true, 5));
        run.layer("ssdsim.ftl_new_ms", replay::ftl_new_ms(&cfg));
    }
    run
}

/// Builds and loads a device, arms the crash, and trains until the power
/// fails (running the first, doomed mount of a double crash as well).
fn crash(
    tracer: &mut Tracer,
    run: &mut Run,
    weights: &[f32],
    grads: &[Vec<f32>],
    sched: &CrashSchedule,
    tc: SimTime,
    cycle: u64,
) -> Crashed {
    let t = Stopwatch::start();
    let s = tracer.begin("core.new", cycle);
    let mut dev = build();
    tracer.end(s);
    let s = tracer.begin("core.load", cycle);
    let mut at = dev.load_weights(weights, SimTime::ZERO).expect("load");
    tracer.end(s);
    run.setup.push(t.lap());

    dev.ssd_mut().arm_power_loss(PowerLossConfig::at(tc));
    let mut failed = 0;
    for step in 1..=STEPS {
        let before = Counters::of(dev.ssd());
        let t = Stopwatch::start();
        let s = tracer.begin("core.run_step", cycle);
        let r = dev.run_step(Some(&grads[(step - 1) as usize]), at);
        tracer.end(s);
        match r {
            Ok(r) => {
                run.step.push(t.lap());
                run.kernel_groups += r.groups_total - r.groups_skipped;
                run.ops.add(&Counters::of(dev.ssd()).since(&before));
                at = r.end;
            }
            Err(CoreError::Ssd(SsdError::PowerLoss { .. })) => {
                failed = step;
                break;
            }
            Err(e) => panic!("{}: unexpected error before the crash: {e}", sched.name),
        }
    }
    assert!(failed > 0, "{}: the armed crash never fired", sched.name);
    let crash_at = dev.ssd().power_failed_at().expect("power failed");
    if matches!(sched.phase, CrashPhase::DuringMount { .. }) {
        let m0 = crash_at + SimDuration::from_us(10);
        dev.ssd_mut()
            .arm_power_loss(PowerLossConfig::at(m0 + SimDuration::from_us(50)));
        assert!(
            dev.recover(Some(&grads[(failed - 1) as usize]), m0)
                .is_err(),
            "the second crash must kill the first mount"
        );
    }
    let mount_at = dev.ssd().power_failed_at().expect("power failed") + SimDuration::from_us(10);
    Crashed {
        dev,
        failed,
        mount_at,
    }
}

fn timed_step(
    tracer: &mut Tracer,
    run: &mut Run,
    dev: &mut OptimStoreDevice,
    grads: &[Vec<f32>],
    step: u64,
    at: SimTime,
    cycle: u64,
) -> SimTime {
    let before = Counters::of(dev.ssd());
    let t = Stopwatch::start();
    let s = tracer.begin("core.run_step", cycle);
    let r = dev
        .run_step(Some(&grads[(step - 1) as usize]), at)
        .expect("step after recovery");
    tracer.end(s);
    run.step.push(t.lap());
    run.ops.add(&Counters::of(dev.ssd()).since(&before));
    run.kernel_groups += r.groups_total - r.groups_skipped;
    r.end
}

/// Replays on the last cycle's device: one step's worth of write-backs
/// with reads, then the epoch commit that rebuilds their parity and
/// flushes the journal; and patrol-scrub ticks.
fn replay_on(run: &mut Run, dev: &mut OptimStoreDevice) {
    let lpns = replay::write_set_lpns(dev.layout(), usize::MAX);
    let page = vec![0u8; dev.ssd().page_bytes()];
    let mut commit_ms = Vec::new();
    let mut program_us = Vec::new();
    let mut read_us = Vec::new();
    for _ in 0..3 {
        let ssd = dev.ssd_mut();
        let epoch = ssd.committed_epoch() + 1;
        ssd.begin_epoch(epoch);
        let (p, r) = replay::program_read_us(ssd, &lpns, Some(&page));
        program_us.push(p);
        read_us.push(r);
        let at = ssd.quiesce_time();
        let t = Instant::now();
        ssd.commit_epoch(at).expect("replayed commit");
        commit_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    run.layer("ssdsim.program_us", stats::median(&program_us));
    run.layer("ssdsim.read_us", stats::median(&read_us));
    run.layer("ssdsim.commit_epoch_ms", stats::median(&commit_ms));
    run.layer("ssdsim.scrub_tick_ms", replay::scrub_tick_ms(dev.ssd_mut()));
}
