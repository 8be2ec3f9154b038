//! What one pass of a workload measured, and the metrics derived from it.

use crate::probe::{self, BusyShare, Counters, Lap};
use crate::stats;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Duration;

/// How a pass runs.
#[derive(Debug)]
pub struct Ctx {
    /// Seed for weights, gradients and crash instants.
    pub seed: u64,
    /// Wall time to keep issuing work for (the loop ends on a whole item).
    pub budget: Duration,
    /// Span recorder (off for the untraced pass).
    pub tracer: Tracer,
}

impl Ctx {
    /// Whether this is the traced pass, which also replays layer entry
    /// points for per-operation costs.
    pub fn traced(&self) -> bool {
        self.tracer.is_on()
    }
}

/// The closed-loop timings of a pass on one clock.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Median device construction plus initial load.
    pub setup_s: f64,
    /// Work items per second.
    pub items_per_s: f64,
    /// Median timed step (with rounds: the median round's mean step, as
    /// the median of a mix of kinds jumps between them).
    pub step_ms_p50: f64,
    /// Tail timed step, with its percentile and sample count.
    pub step_ms_tail: stats::Tail,
    /// NAND page reads, page programs and block erases per second of
    /// timed steps.
    pub flash_ops_per_s: f64,
}

/// The measurements of one pass.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations whose output was wrong.
    pub failed: u64,
    /// Each closed-loop work item (cell, step or cycle), checks and input
    /// generation excluded.
    pub item: Vec<Lap>,
    /// Items per round when items differ by kind and repeat in a fixed
    /// order, each with one timed step (0 or 1: every item is a round).
    pub round: usize,
    /// Each device construction plus initial load.
    pub setup: Vec<Lap>,
    /// Each timed optimizer step.
    pub step: Vec<Lap>,
    /// Layer counters accumulated over the timed steps.
    pub ops: Counters,
    /// Update groups whose kernel ran in the timed steps (functional
    /// devices only).
    pub kernel_groups: u64,
    /// Simulated statistics, printed ungated.
    pub digest: Vec<String>,
    /// Per-layer metrics the workload measured itself (traced pass).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Run {
    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Records the simulated busy shares of a step window.
    pub fn busy(&mut self, share: BusyShare) {
        self.layer("ssdsim.sim_busy.pcie_in", share.pcie_in);
        self.layer("ssdsim.sim_busy.pcie_out", share.pcie_out);
        self.layer("ssdsim.sim_busy.dram", share.dram);
        self.layer("ssdsim.sim_busy.bus_mean", share.bus_mean);
        self.layer("ssdsim.sim_busy.die_mean", share.die_mean);
    }

    /// Runs the yardstick once and pairs its CPU time with every lap
    /// recorded since the last pairing. Workloads call it after each work
    /// item and each set-up, outside every timed interval.
    pub fn yardstick(&mut self) {
        let yard = probe::yardstick_s();
        for laps in [&mut self.item, &mut self.setup, &mut self.step] {
            for lap in laps.iter_mut().rev().take_while(|l| l.yard == 0.0) {
                lap.yard = yard;
            }
        }
    }

    /// Whether every lap has its yardstick.
    pub fn paired(&self) -> bool {
        [&self.item, &self.setup, &self.step]
            .iter()
            .all(|laps| laps.iter().all(|l| l.yard > 0.0))
    }

    /// Median CPU seconds of the yardstick over the work items.
    pub fn yard_s(&self) -> f64 {
        let yards: Vec<f64> = self.item.iter().map(|l| l.yard).collect();
        stats::median(&yards)
    }

    /// Counts a checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Seconds per item on one clock: the median round's time over its
    /// items.
    pub fn item_s(&self, clock: fn(&Lap) -> f64) -> f64 {
        let item: Vec<f64> = self.item.iter().map(clock).collect();
        stats::median_round_mean(&item, self.round)
    }

    /// The closed-loop timings on one clock.
    pub fn timing(&self, clock: fn(&Lap) -> f64) -> Timing {
        let step_ms: Vec<f64> = self.step.iter().map(|l| clock(l) * 1e3).collect();
        let setup: Vec<f64> = self.setup.iter().map(clock).collect();
        let step_s: f64 = step_ms.iter().sum::<f64>() / 1e3;
        Timing {
            setup_s: stats::median(&setup),
            items_per_s: 1.0 / self.item_s(clock),
            step_ms_p50: stats::median_round_mean(&step_ms, self.round),
            step_ms_tail: stats::tail(&step_ms),
            flash_ops_per_s: self.ops.flash_ops() as f64 / step_s,
        }
    }

    /// The per-layer metrics of a traced pass: the counters and spans every
    /// workload shares, then whatever the workload recorded itself.
    pub fn per_layer(&self, tracer: &Tracer) -> BTreeMap<&'static str, f64> {
        let n = self.step.len().max(1) as f64;
        let c = &self.ops;
        let per_step = |x: u64| x as f64 / n;
        let med = |name: &str| stats::median(&tracer.ms_of(name));
        let mut m = BTreeMap::new();
        m.insert("nandsim.array_reads_per_step", per_step(c.array_reads));
        m.insert("nandsim.programs_per_step", per_step(c.programs));
        m.insert("nandsim.erases_per_step", per_step(c.erases));
        m.insert("nandsim.read_retries_per_step", per_step(c.read_retries));
        m.insert(
            "optim-math.groups_updated_per_step",
            per_step(self.kernel_groups),
        );
        m.insert("ssdsim.waf", c.waf());
        m.insert("ssdsim.gc_copies_per_step", per_step(c.gc_copies));
        m.insert("ssdsim.journal_pages_per_step", per_step(c.journal_pages));
        m.insert("ssdsim.parity_writes_per_step", per_step(c.parity_writes));
        m.insert("ssdsim.scrub_reads_per_step", per_step(c.scrub_reads));
        m.insert(
            "simkit.pool_hit_rate",
            if c.pool_checkouts == 0 {
                0.0
            } else {
                c.pool_recycled as f64 / c.pool_checkouts as f64
            },
        );
        m.insert("simkit.pool_fresh_allocs_per_step", per_step(c.pool_fresh));
        m.insert(
            "simkit.reservations_per_step",
            per_step(c.link_transfers + c.flash_ops()),
        );
        m.insert("core.run_step_ms", med("core.run_step"));
        m.insert("core.new_s", med("core.new") / 1e3);
        m.insert("core.load_s", med("core.load") / 1e3);
        m.insert(
            "baselines.host_nvme.new_s",
            med("baselines.host_nvme.new") / 1e3,
        );
        m.insert(
            "baselines.host_nvme.step_ms",
            med("baselines.host_nvme.step"),
        );
        m.insert(
            "baselines.host_dram.check_ms",
            med("baselines.host_dram.check"),
        );
        m.insert("workloads.grad_gen_ms_per_step", med("workloads.grad_gen"));
        m.insert(
            "bench.harness_self_ms_per_item",
            tracer.median_self_ms("bench.item"),
        );
        for (k, v) in &self.layers {
            m.insert(k, *v);
        }
        if !m.contains_key("core.self_ms_per_step") {
            let self_ms = self_ms_estimate(
                m["core.run_step_ms"],
                m["nandsim.array_reads_per_step"],
                m["nandsim.programs_per_step"],
                &m,
            );
            m.insert("core.self_ms_per_step", self_ms);
        }
        m
    }
}

/// Estimated self time of `run_step` in ms: the span's median minus what
/// the replayed per-operation costs say its page reads, page programs and
/// kernels (spread over the pool's width) took.
pub fn self_ms_estimate(
    run_step_ms: f64,
    reads_per_step: f64,
    programs_per_step: f64,
    layers: &BTreeMap<&'static str, f64>,
) -> f64 {
    let get = |k: &str| layers.get(k).copied().unwrap_or(0.0);
    let io_ms = (reads_per_step * get("ssdsim.read_us")
        + programs_per_step * get("ssdsim.program_us"))
        / 1e3;
    let kernel_ms = get("optim-math.groups_updated_per_step")
        * (get("optim-math.update_chunk_us_per_group")
            + get("optim-math.encode_grads_us_per_group"))
        / simkit::par::threads() as f64
        / 1e3;
    run_step_ms - io_ms - kernel_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lap(s: f64) -> Lap {
        Lap {
            wall: s,
            cpu: s / 2.0,
            yard: 0.0,
        }
    }

    #[test]
    fn yardstick_pairs_every_unpaired_lap_once() {
        let mut run = Run::default();
        run.setup.push(lap(0.5));
        run.yardstick();
        let first = run.setup[0].yard;
        assert!(first > 0.0);
        assert!(run.paired());
        run.step.push(lap(0.1));
        run.step.push(lap(0.1));
        run.item.push(lap(0.3));
        assert!(!run.paired());
        run.yardstick();
        assert!(run.paired());
        // The earlier pairing stands; the new laps share one yardstick.
        assert_eq!(run.setup[0].yard, first);
        assert_eq!(run.step[0].yard, run.step[1].yard);
        assert_eq!(run.step[0].yard, run.item[0].yard);
        assert_eq!(run.yard_s(), run.item[0].yard);
        let l = run.step[0];
        let want = l.cpu * probe::YARDSTICK_NOMINAL_S / l.yard;
        assert!((l.at_ref() - want).abs() < 1e-15);
    }

    #[test]
    fn items_per_second_use_the_median_round() {
        let mut run = Run {
            round: 3,
            ..Run::default()
        };
        // Rounds of 0.6 s, 0.3 s and 3 s (an outlier): the median round
        // (0.6 s over three items) sets the rate; a partial round is ignored.
        for s in [0.1, 0.2, 0.3, 0.1, 0.1, 0.1, 1.0, 1.0, 1.0, 9.0] {
            run.item.push(lap(s));
        }
        assert!((run.item_s(|l| l.wall) - 0.2).abs() < 1e-12);
        assert!((run.item_s(|l| l.cpu) - 0.1).abs() < 1e-12);
        let t = run.timing(|l| l.wall);
        assert!((t.items_per_s - 5.0).abs() < 1e-9);
    }

    #[test]
    fn step_timing_reports_median_tail_and_flash_rate() {
        let mut run = Run::default();
        for i in 1..=20 {
            run.step.push(lap(i as f64 / 1e3));
        }
        run.ops.array_reads = 2100;
        let t = run.timing(|l| l.wall);
        assert_eq!(t.step_ms_p50, 10.5);
        assert_eq!((t.step_ms_tail.value, t.step_ms_tail.samples), (10.0, 20));
        assert_eq!(t.step_ms_tail.percentile, 50.0);
        // 2100 ops over 210 ms of steps.
        assert!((t.flash_ops_per_s - 10_000.0).abs() < 1e-6);
    }
}
