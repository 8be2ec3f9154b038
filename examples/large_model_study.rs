//! Large-model study: where does the optimizer-step time go when training
//! GPT-3-13B with flash-resident optimizer state, and what does moving the
//! update into the SSD buy end to end?
//!
//! Run with: `cargo run --release --example large_model_study`

use optimstore::baselines::HostNvmeConfig;
use optimstore::dnn_model::{zoo, GpuSpec, IterationBreakdown, TrainingFootprint};
use optimstore::optim_math::state::{GradDtype, StateLayoutSpec};
use optimstore::optim_math::OptimizerKind;
use optimstore::optimstore_core::audit::audit;
use optimstore::optimstore_core::OptimStoreConfig;
use optimstore::ssdsim::SsdConfig;

fn main() {
    let model = zoo::gpt3_13b();
    let ssd = SsdConfig::base();
    let spec = StateLayoutSpec::new(OptimizerKind::Adam, GradDtype::F16);
    let footprint = TrainingFootprint::of(&model, &spec);

    println!("model: {} ({:.2} B params)", model.name, model.params_b());
    println!(
        "flash-resident optimizer state: {:.1} GiB on a {:.1} TiB SSD\n",
        footprint.flash_resident_bytes() as f64 / (1u64 << 30) as f64,
        ssd.raw_bytes() as f64 / (1u64 << 40) as f64,
    );

    // Steady-state analysis of each execution tier (the analytic audit;
    // the bench harness cross-checks it with event simulation).
    let host_rate = HostNvmeConfig::default().update_bytes_per_sec;
    let host = audit(&ssd, &OptimStoreConfig::host_nvme(host_rate), &spec);
    let channel = audit(&ssd, &OptimStoreConfig::channel_ndp(), &spec);
    let die = audit(&ssd, &OptimStoreConfig::die_ndp(), &spec);

    println!("tier          step time   bottleneck      params/s");
    println!("----------------------------------------------------");
    for a in [&host, &channel, &die] {
        println!(
            "{:<12}  {:>9.2} s  {:<14}  {:.0} M/s",
            a.tier,
            a.step_time(model.params()).as_secs_f64(),
            a.bottleneck,
            a.params_per_sec / 1e6,
        );
    }

    // End-to-end iteration with an A100 doing forward/backward.
    let gpu = GpuSpec::a100();
    println!("\nend-to-end iteration (A100, varying batch):");
    println!("batch   fwd+bwd     host-offload iter   die-ndp iter   speedup");
    for batch in [1u32, 8, 32] {
        let compute = gpu.iteration_time(&model, batch);
        let it_host = IterationBreakdown::synchronous(compute, host.step_time(model.params()));
        let it_die = IterationBreakdown::synchronous(compute, die.step_time(model.params()));
        println!(
            "{batch:<6}  {:>8.2} s   {:>15.2} s   {:>10.2} s   {:.2}x",
            compute.as_secs_f64(),
            it_host.total().as_secs_f64(),
            it_die.total().as_secs_f64(),
            it_host.total().as_secs_f64() / it_die.total().as_secs_f64(),
        );
    }

    println!(
        "\nthe die-level engines turn the optimizer step from a PCIe problem \
         into a NAND-array problem — the bandwidth that actually scales with \
         capacity."
    );
}
