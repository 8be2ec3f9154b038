//! The OptimStore benchmark: one closed-loop workload per run, its outputs
//! checked, its end-to-end metrics (or, with `--trace 1`, its per-layer
//! metrics) printed as the last line of stdout in JSON.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload steady-state --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Gated timings are host process CPU time at reference speed (scaled by a
//! yardstick run next to each measured interval, see
//! [`probe::yardstick_s`]), with their raw CPU and wall-clock counterparts
//! printed beside them; simulated results go to the ungated digest printed
//! before the result line. The timing model has no hardware
//! reference in this repository, so no accuracy figure is reported: the
//! model is unvalidated. `LAYERS.md` describes the workloads and metrics.

mod crash_recover;
mod figure_cells;
mod functional_train;
mod probe;
mod replay;
mod run;
mod stats;
mod steady_state;
mod trace;

use run::{Ctx, Run};
use std::collections::BTreeMap;
use std::time::Duration;
use trace::Tracer;

/// Data-plane pool width every run pins. Two busy virtual CPUs on the
/// reference machine (a 2-vCPU VM) make the host steal 15–30 % of its CPU
/// time instead of 2–3 %, which swings a functional step's wall time from
/// 37 ms to 200 ms between runs; one worker keeps runs comparable. The
/// traced run still replays one pool call at the machine's width.
const POOL_WIDTH: usize = 1;

/// One workload's pass.
type Workload = fn(&mut Ctx) -> Run;

/// The workloads, by name.
const WORKLOADS: [(&str, Workload); 4] = [
    ("figure-cells", figure_cells::run),
    ("steady-state", steady_state::run),
    ("functional-train", functional_train::run),
    ("crash-recover", crash_recover::run),
];

/// End-to-end metrics (untraced run): name, unit, better. Times are
/// process CPU time at reference speed ([`probe::Lap::at_ref`]), which
/// leaves out time the host steals from the machine's virtual CPUs and
/// how hard the host's other tenants load its cores; their raw CPU and
/// wall-clock counterparts are printed beside them, and the traced run
/// reports the wall-clock ones.
const END_TO_END: [(&str, &str, &str); 6] = [
    ("setup_s", "s", "lower"),
    ("items_per_ref_s", "1/s", "higher"),
    ("step_ref_ms_p50", "ms", "lower"),
    ("step_ref_ms_tail", "ms", "lower"),
    ("flash_ops_per_ref_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics (traced run): name, unit, better. A layer the
/// workload bypasses reads 0.
const PER_LAYER: [(&str, &str, &str); 57] = [
    ("nandsim.die_new_ms", "ms", "lower"),
    ("nandsim.array_reads_per_step", "count", "lower"),
    ("nandsim.programs_per_step", "count", "lower"),
    ("nandsim.erases_per_step", "count", "lower"),
    ("nandsim.read_retries_per_step", "count", "lower"),
    ("ssdsim.device_new_s", "s", "lower"),
    ("ssdsim.ftl_new_ms", "ms", "lower"),
    ("ssdsim.program_us", "us", "lower"),
    ("ssdsim.read_us", "us", "lower"),
    ("ssdsim.waf", "ratio", "lower"),
    ("ssdsim.gc_copies_per_step", "count", "lower"),
    ("ssdsim.commit_epoch_ms", "ms", "lower"),
    ("ssdsim.journal_pages_per_step", "count", "lower"),
    ("ssdsim.parity_writes_per_step", "count", "lower"),
    ("ssdsim.scrub_tick_ms", "ms", "lower"),
    ("ssdsim.scrub_reads_per_step", "count", "lower"),
    ("ssdsim.mount_ms", "ms", "lower"),
    ("ssdsim.mount_scanned_pages", "count", "lower"),
    ("ssdsim.parity_reconstructions", "count", "lower"),
    ("ssdsim.uncorrectable_reads", "count", "lower"),
    ("ssdsim.sim_busy.pcie_in", "ratio", "lower"),
    ("ssdsim.sim_busy.pcie_out", "ratio", "lower"),
    ("ssdsim.sim_busy.dram", "ratio", "lower"),
    ("ssdsim.sim_busy.bus_mean", "ratio", "lower"),
    ("ssdsim.sim_busy.die_mean", "ratio", "higher"),
    ("simkit.par_call_us", "us", "lower"),
    ("simkit.par_inline_us", "us", "lower"),
    ("simkit.par_calls_per_step", "count", "lower"),
    ("simkit.pool_hit_rate", "ratio", "higher"),
    ("simkit.pool_fresh_allocs_per_step", "count", "lower"),
    ("simkit.reservations_per_step", "count", "lower"),
    ("simkit.acquire_ns", "ns", "lower"),
    ("optim-math.update_chunk_us_per_group", "us", "lower"),
    ("optim-math.encode_grads_us_per_group", "us", "lower"),
    ("optim-math.groups_updated_per_step", "count", "lower"),
    ("core.run_step_ms", "ms", "lower"),
    ("core.self_ms_per_step", "ms", "lower"),
    ("core.new_s", "s", "lower"),
    ("core.load_s", "s", "lower"),
    ("core.groups_replayed", "count", "lower"),
    ("core.recover_ms_p50", "ms", "lower"),
    ("core.recover_ms_tail", "ms", "lower"),
    ("core.recover_replay_ms", "ms", "lower"),
    ("baselines.host_nvme.new_s", "s", "lower"),
    ("baselines.host_nvme.step_ms", "ms", "lower"),
    ("baselines.host_dram.check_ms", "ms", "lower"),
    ("workloads.grad_gen_ms_per_step", "ms", "lower"),
    ("bench.wall.setup_s", "s", "lower"),
    ("bench.wall.items_per_s", "1/s", "higher"),
    ("bench.wall.step_ms_p50", "ms", "lower"),
    ("bench.wall.step_ms_tail", "ms", "lower"),
    ("bench.wall.flash_ops_per_s", "1/s", "higher"),
    ("bench.yardstick_ms", "ms", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.harness_self_ms_per_item", "ms", "lower"),
    ("bench.untraced_item_ms", "ms", "lower"),
    ("bench.traced_item_ms", "ms", "lower"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| e.to_string())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// One JSON object: the result line.
fn result_json(
    run: &Run,
    metrics: &BTreeMap<&'static str, f64>,
    units: &[(&str, &str, &str)],
) -> String {
    let body: Vec<String> = units
        .iter()
        .map(|(name, unit, _)| {
            let v = metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0 && run.attempted > 0,
        run.attempted,
        run.failed,
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(&(_, workload)) = WORKLOADS.iter().find(|(n, _)| *n == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        eprintln!("perfbench: --workload must be one of {}", names.join(", "));
        std::process::exit(2);
    };

    // One step in flight at a time from this process; the data-plane pool
    // is pinned.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    simkit::par::set_threads(POOL_WIDTH);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "env workload={} seed={} seconds={} trace={} pool_width={} nproc={nproc} profile={profile} model=unvalidated",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        simkit::par::threads(),
    );

    let budget = Duration::from_secs(args.seconds);
    let (run, metrics, units): (Run, _, &[(&str, &str, &str)]) = if !args.trace {
        let mut ctx = Ctx {
            seed: args.seed,
            budget,
            tracer: Tracer::off(),
        };
        let run = workload(&mut ctx);
        assert!(run.paired(), "every measured interval has its yardstick");
        print_digest(&run);
        let at_ref = run.timing(probe::Lap::at_ref);
        for (clock, t) in [
            ("cpu", run.timing(|l| l.cpu)),
            ("wall-clock", run.timing(|l| l.wall)),
        ] {
            println!(
                "{clock}: setup_s {} items_per_s {} step_ms_p50 {} step_ms_tail {} flash_ops_per_s {}",
                t.setup_s, t.items_per_s, t.step_ms_p50, t.step_ms_tail.value, t.flash_ops_per_s,
            );
        }
        println!(
            "yardstick: median {} ms, nominal {} ms",
            run.yard_s() * 1e3,
            probe::YARDSTICK_NOMINAL_S * 1e3
        );
        println!(
            "step tails are p{:.2} of {} timed steps",
            at_ref.step_ms_tail.percentile, at_ref.step_ms_tail.samples
        );
        let m = BTreeMap::from([
            ("setup_s", at_ref.setup_s),
            ("items_per_ref_s", at_ref.items_per_s),
            ("step_ref_ms_p50", at_ref.step_ms_p50),
            ("step_ref_ms_tail", at_ref.step_ms_tail.value),
            ("flash_ops_per_ref_s", at_ref.flash_ops_per_s),
            ("peak_rss_mb", probe::peak_rss_mb()),
        ]);
        (run, m, &END_TO_END)
    } else {
        // Half the time untraced, half traced: the difference in time per
        // item is the recorder's overhead.
        let mut plain = Ctx {
            seed: args.seed,
            budget: budget / 2,
            tracer: Tracer::off(),
        };
        let untraced = workload(&mut plain);
        print_digest(&untraced);
        let mut ctx = Ctx {
            seed: args.seed,
            budget: budget / 2,
            tracer: Tracer::on(),
        };
        let mut traced = workload(&mut ctx);
        traced.layer("simkit.acquire_ns", replay::acquire_ns());
        let mut m = traced.per_layer(&ctx.tracer);
        let wall = traced.timing(|l| l.wall);
        m.insert("bench.wall.setup_s", wall.setup_s);
        m.insert("bench.wall.items_per_s", wall.items_per_s);
        m.insert("bench.wall.step_ms_p50", wall.step_ms_p50);
        m.insert("bench.wall.step_ms_tail", wall.step_ms_tail.value);
        m.insert("bench.wall.flash_ops_per_s", wall.flash_ops_per_s);
        m.insert("bench.yardstick_ms", traced.yard_s() * 1e3);
        let (u, t) = (untraced.item_s(|l| l.wall), traced.item_s(|l| l.wall));
        m.insert("bench.trace_overhead_pct", stats::overhead_pct(t, u));
        m.insert("bench.untraced_item_ms", u * 1e3);
        m.insert("bench.traced_item_ms", t * 1e3);
        println!(
            "step tails are p{:.2} of {} timed steps",
            wall.step_ms_tail.percentile, wall.step_ms_tail.samples
        );
        traced.attempted += untraced.attempted;
        traced.failed += untraced.failed;
        (traced, m, &PER_LAYER)
    };
    for (name, unit, _) in units {
        println!(
            "metric {name} = {} {unit}",
            metrics.get(name).copied().unwrap_or(0.0)
        );
    }
    println!("{}", result_json(&run, &metrics, units));
}

/// The ungated digest of simulated statistics, and its hash.
fn print_digest(run: &Run) {
    for line in &run.digest {
        println!("digest {line}");
    }
    println!("digest-hash {:016x}", probe::fnv64(&run.digest));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(name, unit, better)` entries of one metric list in
    /// `BENCHMARK.json`, in order.
    fn listed(json: &str, list: &str) -> Vec<(String, String, String)> {
        let start = json.find(&format!("\"{list}\"")).expect("list present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        let field = |entry: &str, key: &str| -> String {
            let at = entry
                .find(&format!("\"{key}\": \""))
                .expect("field present")
                + key.len()
                + 5;
            entry[at..]
                .split('"')
                .next()
                .expect("closing quote")
                .to_string()
        };
        body.split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let owned = |t: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            t.iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(listed(&json, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&json, "per_layer"), owned(&PER_LAYER));
        for (name, _) in WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} listed"
            );
        }
    }

    #[test]
    fn result_line_has_every_metric_and_the_counts() {
        let mut run = Run::default();
        run.check(true);
        run.check(false);
        let metrics = BTreeMap::from([("setup_s", 0.5)]);
        let line = result_json(&run, &metrics, &END_TO_END);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1, "));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        for (name, unit, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")));
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
    }
}
