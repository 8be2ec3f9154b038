//! Mixed-precision training memory accounting.

use crate::zoo::TransformerConfig;
use optim_math::state::StateLayoutSpec;
use serde::{Deserialize, Serialize};

/// Byte-level footprint of training one model with a given optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrainingFootprint {
    /// Trainable parameters.
    pub params: u64,
    /// 16-bit working weights (live on the accelerator or streamed).
    pub weights16_bytes: u64,
    /// 16-bit gradients produced per step.
    pub grads16_bytes: u64,
    /// fp32 master weights.
    pub master_bytes: u64,
    /// Optimizer auxiliary slots (moments, accumulators).
    pub slot_bytes: u64,
}

impl TrainingFootprint {
    /// Computes the footprint of `model` under `layout`.
    pub fn of(model: &TransformerConfig, layout: &StateLayoutSpec) -> Self {
        let p = model.params();
        TrainingFootprint {
            params: p,
            weights16_bytes: p * layout.weight16_bytes(),
            grads16_bytes: p * layout.grad_bytes(),
            master_bytes: p * layout.master_bytes(),
            slot_bytes: p * layout.slot_bytes(),
        }
    }

    /// Bytes that must persist on flash between steps
    /// (master + slots + working weights).
    pub fn flash_resident_bytes(&self) -> u64 {
        self.master_bytes + self.slot_bytes + self.weights16_bytes
    }

    /// Total bytes touched by one optimizer step (reads + writes + grads).
    pub fn step_traffic_bytes(&self) -> u64 {
        // Read master+slots, write master+slots+weights16, consume grads.
        2 * (self.master_bytes + self.slot_bytes) + self.weights16_bytes + self.grads16_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use optim_math::state::GradDtype;
    use optim_math::OptimizerKind;

    fn adam() -> StateLayoutSpec {
        StateLayoutSpec::new(OptimizerKind::Adam, GradDtype::F16)
    }

    #[test]
    fn gpt3_175b_needs_terabytes() {
        let f = TrainingFootprint::of(&zoo::gpt3_175b(), &adam());
        let tb = f.flash_resident_bytes() as f64 / 1e12;
        assert!((2.0..3.0).contains(&tb), "{tb} TB");
    }

    #[test]
    fn component_sums_are_consistent() {
        let f = TrainingFootprint::of(&zoo::gpt3_13b(), &adam());
        assert_eq!(f.master_bytes, f.params * 4);
        assert_eq!(f.slot_bytes, f.params * 8);
        assert_eq!(f.weights16_bytes, f.params * 2);
        assert_eq!(f.grads16_bytes, f.params * 2);
        assert_eq!(
            f.flash_resident_bytes(),
            f.master_bytes + f.slot_bytes + f.weights16_bytes
        );
    }

    #[test]
    fn step_traffic_is_28_bytes_per_param_for_adam() {
        let f = TrainingFootprint::of(&TransformerConfig::tiny_1m(), &adam());
        assert_eq!(f.step_traffic_bytes(), f.params * 28);
    }

    #[test]
    fn sgd_state_is_smaller() {
        let sgd = StateLayoutSpec::new(OptimizerKind::SgdMomentum, GradDtype::F16);
        let fa = TrainingFootprint::of(&zoo::gpt3_13b(), &adam());
        let fs = TrainingFootprint::of(&zoo::gpt3_13b(), &sgd);
        assert!(fs.flash_resident_bytes() < fa.flash_resident_bytes());
    }
}
