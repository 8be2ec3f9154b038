//! Hot-path regression gate: batched vs scalar optimizer kernels, pooled
//! page buffers, and end-to-end step latency.
//!
//! Two tiers of measurement, each doubling as a bit-exactness check:
//!
//! 1. **Kernel micro-bench** — elements/second for every optimizer ×
//!    gradient dtype, scalar loop vs monomorphized batch kernel, on the
//!    same seeded buffers; the batched kernel must produce byte-identical
//!    state to the scalar reference.
//! 2. **End-to-end functional cells** — a plain functional Adam cell and
//!    miniature F24 (fault-armed), F25 (journal + GC) and F26 (parity,
//!    aging, scrub) cells. Each runs once untimed on a cold page pool and
//!    once timed on a warm one: the two runs' `StepReport`s must be
//!    field-identical, and the timed run's master weights must match the
//!    host-DRAM reference bit for bit. Also reports the pool's
//!    fresh-allocation counts for the first step vs the steady state.
//!
//! Writes `BENCH_hotpath.json` (path overridable as the first non-flag
//! argument; pass `--smoke` for a fast CI-matrix variant) and exits
//! non-zero if the batched kernel fails to beat the scalar reference, if
//! any optimizer's batched f16 kernel runs below [`F16_VS_BF16_MIN`] of its
//! bf16 rate, or if any cross-check is not bit-exact.

use std::time::Instant;

use optim_math::kernels::{encode_grads, update_chunk, update_chunk_scalar, StateBuffers};
use optim_math::state::GradDtype;
use optim_math::OptimizerKind;
use optimstore_bench::runners::{
    assert_bit_exact, optimizer_and_spec, CrashCell, DegradedCell, SeededRun,
};
use simkit::pool;
use ssdsim::{ScrubConfig, SsdConfig};

const E2E_PARAMS: u64 = 200_000;
const E2E_STEPS: u64 = 4;

/// Floor on batched f16 elems/s over the same optimizer's batched bf16
/// elems/s. Both dtypes run the same update rule, so the ratio isolates
/// the 16-bit conversions and does not depend on host speed. A branchy
/// f16 conversion that keeps the block loops scalar scored 0.15–0.30; the
/// branchless portable one, which a CPU without F16C still runs, reads
/// 0.45–0.75 and once in 30 runs 0.38. With F16C, Adam and AdamW read
/// 0.64–1.8 and the other rules 0.99–2.2 over 30 full runs, all on a
/// shared 2-vCPU x86-64 host.
const F16_VS_BF16_MIN: f64 = 0.4;

struct KernelEntry {
    optimizer: OptimizerKind,
    dtype: GradDtype,
    n: usize,
    scalar_eps: f64,
    batched_eps: f64,
}

impl KernelEntry {
    fn speedup(&self) -> f64 {
        if self.scalar_eps > 0.0 {
            self.batched_eps / self.scalar_eps
        } else {
            1.0
        }
    }
}

/// Seeded deterministic f32 stream (no external RNG dependency).
fn xorshift_stream(seed: u64, n: usize, scale: f32) -> Vec<f32> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s as f64 / u64::MAX as f64) as f32 - 0.5) * scale
        })
        .collect()
}

/// Times `steps` whole-buffer updates through `f`, returning seconds and
/// the final state (the bit-exactness witness).
fn run_kernel(
    kind: OptimizerKind,
    dtype: GradDtype,
    steps: u64,
    grads: &[u8],
    weights: &[f32],
    scalar: bool,
) -> (f64, StateBuffers) {
    let (opt, _) = optimizer_and_spec(kind);
    let mut buf = StateBuffers::init(opt.as_ref(), weights, dtype);
    let update = if scalar {
        update_chunk_scalar
    } else {
        update_chunk
    };
    let t = Instant::now();
    for step in 1..=steps {
        let mut refs: Vec<&mut [u8]> = buf.slots.iter_mut().map(|s| s.as_mut_slice()).collect();
        update(
            opt.as_ref(),
            &mut buf.w32,
            &mut refs,
            grads,
            &mut buf.w16,
            dtype,
            step,
        )
        .unwrap();
    }
    (t.elapsed().as_secs_f64(), buf)
}

fn kernel_bench(n: usize, steps: u64, reps: usize) -> Vec<KernelEntry> {
    let mut out = Vec::new();
    for kind in OptimizerKind::all() {
        for dtype in [GradDtype::F16, GradDtype::Bf16] {
            let weights = xorshift_stream(0xB0A7 ^ kind as u64, n, 4.0);
            let grads = encode_grads(&xorshift_stream(0x6AD5 ^ kind as u64, n, 1.0), dtype);
            // Warm-up (first-touch, page faults) before either timed run.
            drop(run_kernel(kind, dtype, 1, &grads, &weights, true));
            drop(run_kernel(kind, dtype, 1, &grads, &weights, false));
            // Best-of-reps keeps short smoke windows robust to scheduler
            // jitter; the compared states are identical across reps by
            // construction (same inputs, deterministic kernels).
            let mut scalar_secs = f64::INFINITY;
            let mut batched_secs = f64::INFINITY;
            let mut states = None;
            for _ in 0..reps {
                let (s_secs, scalar_state) = run_kernel(kind, dtype, steps, &grads, &weights, true);
                let (b_secs, batched_state) =
                    run_kernel(kind, dtype, steps, &grads, &weights, false);
                scalar_secs = scalar_secs.min(s_secs);
                batched_secs = batched_secs.min(b_secs);
                states.get_or_insert((scalar_state, batched_state));
            }
            let (scalar_state, batched_state) = states.expect("reps >= 1");
            assert_eq!(
                scalar_state, batched_state,
                "{kind:?}/{dtype:?}: batched kernel diverged from scalar reference"
            );
            let elems = (n as u64 * steps) as f64;
            out.push(KernelEntry {
                optimizer: kind,
                dtype,
                n,
                scalar_eps: elems / scalar_secs,
                batched_eps: elems / batched_secs,
            });
        }
    }
    out
}

/// One functional training run: final master weights, Debug-rendered
/// `StepReport`s, wall seconds, and the pool's fresh-allocation count per
/// step (first step vs steady state).
struct E2eRun {
    weights: Vec<f32>,
    reports: Vec<String>,
    secs: f64,
    fresh_per_step: Vec<u64>,
}

/// Loads `run`'s functional Adam die-NDP device on `ssd`, ages it by `pe`
/// P/E cycles when `pe` is non-zero, and trains `steps` seeded steps.
fn e2e_run(run: &SeededRun, ssd: SsdConfig, pe: u64, steps: u64) -> E2eRun {
    let (mut dev, mut at) = run.load_adam(ssd);
    if pe > 0 {
        dev.simulate_wear(pe);
    }
    let mut reports = Vec::new();
    let mut fresh_per_step = Vec::new();
    let t = Instant::now();
    for step in 1..=steps {
        let grads = run.grads(step);
        let before = pool::stats();
        let r = dev.run_step(Some(&grads), at).expect("step");
        fresh_per_step.push(pool::stats().fresh_allocs - before.fresh_allocs);
        at = r.end;
        reports.push(format!("{r:?}"));
    }
    let secs = t.elapsed().as_secs_f64();
    E2eRun {
        weights: dev.read_master_weights(at).expect("readback"),
        reports,
        secs,
        fresh_per_step,
    }
}

struct E2eEntry {
    name: String,
    secs: f64,
    steps: u64,
    fresh_first: u64,
    fresh_steady: u64,
}

/// Runs a functional cell twice — untimed on a cold pool, then timed on a
/// warm one — and asserts the two runs' reports are field-identical and
/// the timed run's master weights match the host reference bit for bit.
fn e2e_cell(name: &str, (ssd, pe): (SsdConfig, u64), steps: u64, grad_seed: u64) -> E2eEntry {
    let run = SeededRun {
        params: E2E_PARAMS,
        seed: grad_seed,
    };
    // The warm-up also faults in pages, so the timed run pays no
    // first-touch costs.
    let cold = e2e_run(&run, ssd, pe, steps);
    let warm = e2e_run(&run, ssd, pe, steps);

    assert_eq!(
        cold.reports, warm.reports,
        "{name}: StepReports diverged between a cold and a warm page pool"
    );
    assert_bit_exact(
        &warm.weights,
        &run.reference(OptimizerKind::Adam, steps),
        &format!("{name}: master weights vs host reference"),
    );
    let fresh_first = *warm.fresh_per_step.first().unwrap_or(&0);
    let fresh_steady = warm
        .fresh_per_step
        .iter()
        .skip(1)
        .copied()
        .max()
        .unwrap_or(0);
    E2eEntry {
        name: name.to_string(),
        secs: warm.secs,
        steps,
        fresh_first,
        fresh_steady,
    }
}

/// The device and P/E cycles of the F24 smoke cell.
fn f24_smoke() -> (SsdConfig, u64) {
    // Fault-armed functional cell in the spirit of the F24 grid: seeded
    // media faults on an aged tiny device, exercising retries/replays on
    // the real data path.
    let sched = workloads::fault_sweep_grid(24)
        .into_iter()
        .find(|s| s.fault.is_active())
        .expect("F24 grid has fault-armed cells");
    let ssd = SsdConfig::tiny().with_fault(sched.fault);
    (ssd, sched.pe_cycles(ssd.nand.rated_pe_cycles()))
}

fn dtype_name(d: GradDtype) -> &'static str {
    match d {
        GradDtype::F16 => "f16",
        GradDtype::Bf16 => "bf16",
    }
}

fn main() {
    let mut out_path = "BENCH_hotpath.json".to_string();
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg;
        }
    }
    // Smoke mode: small enough for the CI thread-matrix, still covering
    // every kind × dtype and all three smoke grids.
    let (kernel_n, kernel_steps, kernel_reps) = if smoke {
        (1 << 14, 2, 7)
    } else {
        (1 << 18, 4, 3)
    };

    println!(
        "kernel micro-bench: {kernel_n} elems x {kernel_steps} steps, best of {kernel_reps}, per optimizer x dtype{}",
        if smoke { " (smoke)" } else { "" }
    );
    let kernel = kernel_bench(kernel_n, kernel_steps, kernel_reps);
    for e in &kernel {
        println!(
            "  {:<12} {:<5} scalar {:>7.1} Melem/s  batched {:>7.1} Melem/s  {:>5.2}x",
            format!("{:?}", e.optimizer),
            dtype_name(e.dtype),
            e.scalar_eps / 1e6,
            e.batched_eps / 1e6,
            e.speedup()
        );
    }

    println!("end-to-end functional cells (cold vs warm pool, bit-exact vs host reference):");
    let f26_smoke = DegradedCell::ssd(
        &workloads::aging_schedules(26)[0],
        true,
        Some(ScrubConfig::per_step(64)),
    );
    let e2e = [
        e2e_cell(
            "functional-adam-die-ndp",
            (SsdConfig::tiny(), 0),
            E2E_STEPS,
            0xB07A,
        ),
        e2e_cell("f24-fault-smoke", f24_smoke(), 2, 0xF24),
        // F25's journaled small-block device: three steps of state
        // write-back force GC under an every-64-programs journal.
        e2e_cell(
            "f25-journal-gc-smoke",
            (CrashCell::ssd(64), 0),
            CrashCell::STEPS,
            0xF25,
        ),
        // An F26 point: parity, the first aging schedule, 64 scrub reads
        // per step.
        e2e_cell("f26-reliability-smoke", (f26_smoke, 0), 2, 0xF26),
    ];
    for e in &e2e {
        println!(
            "  {:<24} {:>6.1} ms/step  pool fresh {} -> {} (first -> steady)",
            e.name,
            e.secs * 1e3 / e.steps as f64,
            e.fresh_first,
            e.fresh_steady
        );
    }
    let ps = pool::stats();
    println!(
        "pool lifetime: {} checkouts, {} fresh allocs, {} recycled ({:.1}% hit rate)",
        ps.checkouts,
        ps.fresh_allocs,
        ps.recycled,
        100.0 * ps.recycled as f64 / ps.checkouts.max(1) as f64
    );

    // ---- JSON ------------------------------------------------------------
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    json.push_str(&format!("  \"pool_width\": {},\n", simkit::par::threads()));
    json.push_str("  \"kernel\": [\n");
    for (i, e) in kernel.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"optimizer\": \"{:?}\", \"dtype\": \"{}\", \"n\": {}, \"steps\": {}, \"scalar_elems_per_sec\": {:.0}, \"batched_elems_per_sec\": {:.0}, \"speedup\": {:.3}}}{}\n",
            e.optimizer,
            dtype_name(e.dtype),
            e.n,
            kernel_steps,
            e.scalar_eps,
            e.batched_eps,
            e.speedup(),
            if i + 1 < kernel.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, e) in e2e.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"steps\": {}, \"ms_per_step\": {:.3}, \"bit_exact\": true, \"pool_fresh_allocs_first_step\": {}, \"pool_fresh_allocs_steady_max\": {}}}{}\n",
            e.name,
            e.steps,
            e.secs * 1e3 / e.steps as f64,
            e.fresh_first,
            e.fresh_steady,
            if i + 1 < e2e.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"pool\": {{\"checkouts\": {}, \"fresh_allocs\": {}, \"recycled\": {}}}\n}}\n",
        ps.checkouts, ps.fresh_allocs, ps.recycled
    ));
    std::fs::write(&out_path, &json).expect("write BENCH_hotpath.json");
    println!("wrote {out_path}");

    // ---- the gate --------------------------------------------------------
    let mut fail = false;
    for e in &kernel {
        if e.speedup() <= 1.0 {
            eprintln!(
                "FAIL: batched {:?}/{} kernel ({:.1} Melem/s) does not beat scalar ({:.1} Melem/s)",
                e.optimizer,
                dtype_name(e.dtype),
                e.batched_eps / 1e6,
                e.scalar_eps / 1e6
            );
            fail = true;
        }
    }
    let adam_f16 = kernel
        .iter()
        .find(|e| e.optimizer == OptimizerKind::Adam && e.dtype == GradDtype::F16)
        .expect("Adam/f16 cell present");
    if adam_f16.speedup() < 2.0 {
        eprintln!(
            "FAIL: batched Adam/f16 kernel speedup {:.2}x is below the 2x acceptance bar",
            adam_f16.speedup()
        );
        fail = true;
    }
    for f16 in kernel.iter().filter(|e| e.dtype == GradDtype::F16) {
        let bf16 = kernel
            .iter()
            .find(|e| e.optimizer == f16.optimizer && e.dtype == GradDtype::Bf16)
            .expect("every optimizer runs both dtypes");
        let ratio = f16.batched_eps / bf16.batched_eps;
        if ratio < F16_VS_BF16_MIN {
            eprintln!(
                "FAIL: batched {:?}/f16 kernel runs at {ratio:.2}x its bf16 rate ({:.1} vs {:.1} Melem/s), below {F16_VS_BF16_MIN}",
                f16.optimizer,
                f16.batched_eps / 1e6,
                bf16.batched_eps / 1e6
            );
            fail = true;
        }
    }
    for e in &e2e {
        if e.fresh_steady > e.fresh_first {
            eprintln!(
                "FAIL: {} steady-state pool fresh allocations ({}) exceed the first step's ({})",
                e.name, e.fresh_steady, e.fresh_first
            );
            fail = true;
        }
    }
    if fail {
        std::process::exit(1);
    }
}
