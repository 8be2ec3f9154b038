//! Per-parameter state layout arithmetic.
//!
//! Every bandwidth and capacity number in the OptimStore experiments comes
//! down to "how many bytes per parameter move across which link". This
//! module is the single source of truth for those byte counts, so the
//! analytic model, the event-driven simulator and the capacity planner can
//! never disagree.

use crate::optimizer::OptimizerKind;
use serde::{Deserialize, Serialize};

/// Element type of gradients and working weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GradDtype {
    /// IEEE binary16.
    F16,
    /// bfloat16.
    Bf16,
}

impl GradDtype {
    /// Bytes per element.
    pub fn bytes(self) -> u64 {
        2
    }
}

/// Byte-level layout of one parameter's training state.
///
/// Mixed-precision training keeps, per parameter:
/// * an fp32 **master weight** (4 B), persisted on flash;
/// * the optimizer's auxiliary **slots** (4 B each), persisted on flash;
/// * a 16-bit **working weight** consumed by forward/backward, persisted on
///   flash and regenerated by every optimizer step;
/// * a 16-bit **gradient** produced by backward, an *input* to the step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateLayoutSpec {
    /// Optimizer family.
    pub kind: OptimizerKind,
    /// Gradient / working-weight element type.
    pub grad_dtype: GradDtype,
    /// Bytes per auxiliary slot. `None` = fp32 (4 B). `Some(n)` models a
    /// quantized slot encoding (e.g. 8-bit moments with blockwise scales,
    /// as the test-only `quant` kernels encode them) for capacity and
    /// bandwidth studies; the functional flash path currently stores slots
    /// in fp32 regardless.
    pub slot_bytes_each: Option<u64>,
}

impl StateLayoutSpec {
    /// Creates a layout spec with fp32 slots.
    pub fn new(kind: OptimizerKind, grad_dtype: GradDtype) -> Self {
        StateLayoutSpec {
            kind,
            grad_dtype,
            slot_bytes_each: None,
        }
    }

    /// Creates a layout spec with quantized slots of `bytes` each (e.g. 2
    /// for 8-bit codes + blockwise scales rounded up, as in `quant`).
    pub fn with_quantized_slots(kind: OptimizerKind, grad_dtype: GradDtype, bytes: u64) -> Self {
        StateLayoutSpec {
            kind,
            grad_dtype,
            slot_bytes_each: Some(bytes),
        }
    }

    /// Bytes of fp32 master weight per parameter.
    pub fn master_bytes(&self) -> u64 {
        4
    }

    /// Bytes of auxiliary slots per parameter
    /// (slot width × slot count; fp32 slots by default).
    pub fn slot_bytes(&self) -> u64 {
        self.slot_bytes_each.unwrap_or(4) * self.kind.state_slots() as u64
    }

    /// Bytes of gradient per parameter.
    pub fn grad_bytes(&self) -> u64 {
        self.grad_dtype.bytes()
    }

    /// Bytes of 16-bit working weight per parameter.
    pub fn weight16_bytes(&self) -> u64 {
        self.grad_dtype.bytes()
    }

    /// Persistent flash footprint per parameter
    /// (master + slots + working weight).
    pub fn persistent_bytes(&self) -> u64 {
        self.master_bytes() + self.slot_bytes() + self.weight16_bytes()
    }

    /// Bytes the optimizer step must **read** per parameter, excluding the
    /// gradient (master + slots).
    pub fn state_read_bytes(&self) -> u64 {
        self.master_bytes() + self.slot_bytes()
    }

    /// Bytes the optimizer step must **write** per parameter
    /// (master + slots + new working weight).
    pub fn state_write_bytes(&self) -> u64 {
        self.master_bytes() + self.slot_bytes() + self.weight16_bytes()
    }

    /// Total footprint of a model's persistent state in bytes.
    pub fn model_footprint(&self, params: u64) -> u64 {
        self.persistent_bytes().saturating_mul(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl StateLayoutSpec {
        /// Host-offload PCIe traffic per parameter per step:
        /// `(up, down)` = (to host, from host). The gradient originates on the
        /// accelerator, so it does not cross toward the host; updated state and
        /// the fresh working weight cross back down.
        pub fn pcie_bytes_host_offload(&self) -> (u64, u64) {
            let up = self.state_read_bytes() + self.grad_bytes(); // states + grad staged on flash
            let down = self.state_write_bytes();
            (up, down)
        }

        /// In-storage (NDP) PCIe traffic per parameter per step: only the
        /// gradient crosses, inbound.
        pub fn pcie_bytes_ndp(&self) -> (u64, u64) {
            (0, self.grad_bytes())
        }
    }

    fn adam_f16() -> StateLayoutSpec {
        StateLayoutSpec::new(OptimizerKind::Adam, GradDtype::F16)
    }

    #[test]
    fn adam_byte_counts() {
        let s = adam_f16();
        assert_eq!(s.master_bytes(), 4);
        assert_eq!(s.slot_bytes(), 8);
        assert_eq!(s.grad_bytes(), 2);
        assert_eq!(s.weight16_bytes(), 2);
        assert_eq!(s.persistent_bytes(), 14);
        assert_eq!(s.state_read_bytes(), 12);
        assert_eq!(s.state_write_bytes(), 14);
    }

    #[test]
    fn sgd_is_leaner_than_adam() {
        let sgd = StateLayoutSpec::new(OptimizerKind::SgdMomentum, GradDtype::F16);
        let adam = adam_f16();
        assert!(sgd.persistent_bytes() < adam.persistent_bytes());
        assert_eq!(sgd.persistent_bytes(), 10); // 4 + 4 + 2
    }

    #[test]
    fn footprint_of_gpt3_is_terabytes() {
        let s = adam_f16();
        let params = 175_000_000_000u64;
        let tb = s.model_footprint(params) as f64 / 1e12;
        assert!((2.0..3.0).contains(&tb), "GPT-3 state = {tb} TB");
    }

    #[test]
    fn ndp_moves_far_fewer_pcie_bytes() {
        let s = adam_f16();
        let (h_up, h_down) = s.pcie_bytes_host_offload();
        let (n_up, n_down) = s.pcie_bytes_ndp();
        assert_eq!((h_up, h_down), (14, 14));
        assert_eq!((n_up, n_down), (0, 2));
        assert!(h_up + h_down >= 14 * (n_up + n_down));
    }

    #[test]
    fn quantized_slots_shrink_the_footprint() {
        let q = StateLayoutSpec::with_quantized_slots(OptimizerKind::Adam, GradDtype::F16, 2);
        assert_eq!(q.slot_bytes(), 4); // 2 slots × 2 B
        assert_eq!(q.persistent_bytes(), 10); // 4 + 4 + 2
        assert!(q.state_write_bytes() < adam_f16().state_write_bytes());
    }

    #[test]
    fn bf16_same_widths_as_f16() {
        let a = StateLayoutSpec::new(OptimizerKind::Adam, GradDtype::Bf16);
        assert_eq!(a.persistent_bytes(), adam_f16().persistent_bytes());
    }
}
