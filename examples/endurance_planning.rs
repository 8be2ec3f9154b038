//! Endurance planning: flash-resident optimizer state rewrites the full
//! state every step, so device wear — not bandwidth — can decide how many
//! SSDs a training run needs. This example sizes a deployment for each
//! model in the zoo: does the state fit, how long until the rated P/E
//! budget is consumed, and how many devices make the run survivable.
//!
//! Run with: `cargo run --release --example endurance_planning`

use optimstore::dnn_model::{zoo, TrainingFootprint, ZeroPartition};
use optimstore::optim_math::state::{GradDtype, StateLayoutSpec};
use optimstore::optim_math::OptimizerKind;
use optimstore::optimstore_core::audit::audit;
use optimstore::optimstore_core::endurance::analytic_erases_per_step;
use optimstore::optimstore_core::OptimStoreConfig;
use optimstore::ssdsim::SsdConfig;

/// Typical large-model pretraining length.
const TRAINING_STEPS: f64 = 150_000.0;
/// Assumed write amplification (near 1: the workload is sequential whole-
/// state rewrites, which GC loves).
const WAF: f64 = 1.05;

fn devices_needed(params: u64, ssd: &SsdConfig, spec: &StateLayoutSpec) -> u32 {
    // Capacity requirement.
    let state = spec.model_footprint(params);
    let for_capacity = state.div_ceil(ssd.logical_bytes()).max(1) as u32;
    // Endurance requirement: the fleet's total P/E budget must cover the run.
    let blocks_per_dev = ssd.total_dies() as u64 * ssd.nand.geometry.blocks_per_die();
    let budget_per_dev = (blocks_per_dev * ssd.nand.rated_pe_cycles()) as f64;
    let erases_total = analytic_erases_per_step(params, spec, ssd, WAF) * TRAINING_STEPS;
    let for_endurance = (erases_total / budget_per_dev).ceil().max(1.0) as u32;
    for_capacity.max(for_endurance)
}

fn main() {
    let ssd = SsdConfig::base();
    let spec = StateLayoutSpec::new(OptimizerKind::Adam, GradDtype::F16);
    let die = audit(&ssd, &OptimStoreConfig::die_ndp(), &spec);

    println!(
        "deployment planning on the base SSD (8 TB TLC, {} rated P/E), \
         {TRAINING_STEPS:.0}-step run, WAF {WAF}\n",
        ssd.nand.rated_pe_cycles()
    );
    println!(
        "{:<16} {:>9} {:>12} {:>14} {:>12} {:>10}",
        "model", "state", "erases/step", "1-dev life", "devices", "step time"
    );
    println!("{}", "-".repeat(78));

    for m in zoo::evaluation_models() {
        let f = TrainingFootprint::of(&m, &spec);
        let erases = analytic_erases_per_step(m.params(), &spec, &ssd, WAF);
        let blocks = ssd.total_dies() as u64 * ssd.nand.geometry.blocks_per_die();
        let budget = (blocks * ssd.nand.rated_pe_cycles()) as f64;
        let one_dev_steps = budget / erases;
        let devs = devices_needed(m.params(), &ssd, &spec);
        // With the fleet, each device holds a shard; erase rate divides.
        let part = ZeroPartition::new(m.params(), devs);
        let shard_step = die.step_time(part.max_shard());
        println!(
            "{:<16} {:>6.2} GB {:>12.0} {:>11.0}stp {:>12} {:>9.2}s",
            m.name,
            f.flash_resident_bytes() as f64 / 1e9,
            erases,
            one_dev_steps,
            devs,
            shard_step.as_secs_f64(),
        );
    }

    println!(
        "\nreading the table: capacity alone rarely decides the fleet size — \
         the rated-endurance budget does. Spreading the state over more \
         devices both extends life (fewer erases per device) and shortens \
         the step (more dies in parallel)."
    );
}
