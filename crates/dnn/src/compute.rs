//! Accelerator roofline model for forward+backward time.
//!
//! The experiments need fwd+bwd time only as the *denominator* of the
//! optimizer-share figures, so a utilization-discounted peak-FLOPs model is
//! the right fidelity: it is how the systems community estimates training
//! step time when the accelerator is not the subject of study.

use crate::zoo::TransformerConfig;
use serde::{Deserialize, Serialize};
use simkit::SimDuration;

/// An accelerator's compute capability.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Display name.
    pub name: &'static str,
    /// Peak 16-bit FLOP/s.
    pub peak_fp16_flops: f64,
    /// Achieved fraction of peak on transformer training (MFU).
    pub mfu: f64,
    /// Device memory in bytes (capacity check only).
    pub memory_bytes: u64,
}

impl GpuSpec {
    /// An NVIDIA A100-80GB-class accelerator at a typical 45% MFU.
    pub fn a100() -> Self {
        GpuSpec {
            name: "a100-80g",
            peak_fp16_flops: 312e12,
            mfu: 0.45,
            memory_bytes: 80 * (1 << 30),
        }
    }

    /// Forward+backward time for one iteration of `model` over
    /// `batch` sequences of the model's full sequence length.
    pub fn iteration_time(&self, model: &TransformerConfig, batch: u32) -> SimDuration {
        let tokens = batch as u64 * model.seq_len as u64;
        let flops = model.train_flops(tokens) as f64;
        SimDuration::from_secs_f64(flops / (self.peak_fp16_flops * self.mfu))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    impl GpuSpec {
        /// Effective sustained FLOP/s.
        pub fn effective_flops(&self) -> f64 {
            self.peak_fp16_flops * self.mfu
        }
    }

    #[test]
    fn iteration_time_scales_with_batch() {
        let gpu = GpuSpec::a100();
        let m = zoo::gpt3_13b();
        let t1 = gpu.iteration_time(&m, 1);
        let t4 = gpu.iteration_time(&m, 4);
        let ratio = t4.as_secs_f64() / t1.as_secs_f64();
        assert!((ratio - 4.0).abs() < 0.01);
    }

    #[test]
    fn gpt3_13b_iteration_is_seconds_scale() {
        // 6 × 13e9 × 2048 ≈ 1.6e14 FLOPs at 140 TF/s ≈ 1.1 s.
        let t = GpuSpec::a100().iteration_time(&zoo::gpt3_13b(), 1);
        let s = t.as_secs_f64();
        assert!((0.5..3.0).contains(&s), "{s} s");
    }

    #[test]
    fn effective_flops_discounts_peak() {
        let g = GpuSpec::a100();
        assert!(g.effective_flops() < g.peak_fp16_flops);
        assert!((g.effective_flops() - 312e12 * 0.45).abs() < 1.0);
    }
}
