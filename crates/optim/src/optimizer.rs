//! Scalar optimizer update rules with explicit auxiliary-state slots.
//!
//! Each optimizer declares how many f32 "slots" of auxiliary state it keeps
//! per parameter (Adam keeps two: the moments), and updates one parameter at
//! a time. The buffer kernels in [`crate::kernels`] vectorize over these
//! scalar rules, and the in-storage engine executes exactly the same rules,
//! so any disagreement between host and in-storage results is a layout or
//! protocol bug — never an arithmetic one.

use crate::hyper::{AdamParams, MomentumParams};
use crate::kernels::{self, KernelError};
use crate::state::GradDtype;
use serde::{Deserialize, Serialize};

/// Identifies an optimizer family (used in configs, reports and the
/// in-storage command protocol).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// Adam with bias correction.
    Adam,
    /// Adam with decoupled weight decay.
    AdamW,
    /// SGD with classical momentum.
    SgdMomentum,
    /// Adagrad.
    Adagrad,
    /// Lion (evolved sign momentum): half the auxiliary state of Adam.
    Lion,
}

impl OptimizerKind {
    /// Auxiliary f32 state slots per parameter (excluding the fp32 master
    /// weight, which every mixed-precision optimizer keeps).
    pub fn state_slots(self) -> usize {
        match self {
            OptimizerKind::Adam | OptimizerKind::AdamW => 2,
            OptimizerKind::SgdMomentum | OptimizerKind::Adagrad | OptimizerKind::Lion => 1,
        }
    }

    /// Stable wire identifier for the in-storage command protocol.
    pub fn wire_id(self) -> u8 {
        match self {
            OptimizerKind::Adam => 0,
            OptimizerKind::AdamW => 1,
            OptimizerKind::SgdMomentum => 2,
            OptimizerKind::Adagrad => 3,
            OptimizerKind::Lion => 4,
        }
    }

    /// Inverse of [`wire_id`](Self::wire_id).
    pub fn from_wire_id(id: u8) -> Option<Self> {
        match id {
            0 => Some(OptimizerKind::Adam),
            1 => Some(OptimizerKind::AdamW),
            2 => Some(OptimizerKind::SgdMomentum),
            3 => Some(OptimizerKind::Adagrad),
            4 => Some(OptimizerKind::Lion),
            _ => None,
        }
    }

    /// All supported kinds (for sweeps).
    pub fn all() -> [OptimizerKind; 5] {
        [
            OptimizerKind::Adam,
            OptimizerKind::AdamW,
            OptimizerKind::SgdMomentum,
            OptimizerKind::Adagrad,
            OptimizerKind::Lion,
        ]
    }
}

/// An element-wise optimizer update rule.
///
/// Implementations must be pure functions of their inputs: same
/// `(weight, slots, grad, step)` ⇒ same outputs, bit for bit. The
/// correctness experiments depend on this.
pub trait Optimizer: std::fmt::Debug + Send + Sync {
    /// Which family this is.
    fn kind(&self) -> OptimizerKind;

    /// Auxiliary f32 slots per parameter.
    fn state_slots(&self) -> usize {
        self.kind().state_slots()
    }

    /// Updates one parameter.
    ///
    /// * `w` — fp32 master weight before the update.
    /// * `slots` — auxiliary state (length = [`state_slots`](Self::state_slots)),
    ///   updated in place.
    /// * `grad` — gradient, already widened to f32.
    /// * `step` — 1-based global step number (for bias correction).
    ///
    /// Returns the new master weight.
    fn update_scalar(&self, w: f32, slots: &mut [f32], grad: f32, step: u64) -> f32;

    /// Hyperparameters in wire order `[lr, beta1|momentum, beta2, eps,
    /// weight_decay]` (unused trailing entries zero) — what the IST-UPDATE
    /// command carries.
    fn hyper_wire(&self) -> [f32; 5];

    /// Replaces the learning rate (driven by [`schedules`] on the host —
    /// the new value travels in the next command).
    ///
    /// [`schedules`]: https://docs.rs/dnn-model
    fn set_lr(&mut self, lr: f32);

    /// Applies this rule from source state buffers into destination ones
    /// with the batched kernel; [`kernels::update_chunk_into`] documents
    /// the buffers and calls this, and the in-place
    /// [`kernels::update_chunk`] calls it once per block.
    ///
    /// Provided, and not meant to be overridden: the body monomorphizes
    /// the kernel over `Self`, so a `&dyn Optimizer` runs its own
    /// [`update_scalar`](Self::update_scalar) at batched speed.
    #[allow(clippy::too_many_arguments)]
    fn update_chunk_into(
        &self,
        w32: &[u8],
        slots: &[&[u8]],
        grads: &[u8],
        w32_out: &mut [u8],
        slots_out: &mut [&mut [u8]],
        w16_out: &mut [u8],
        grad_dtype: GradDtype,
        step: u64,
    ) -> Result<usize, KernelError> {
        kernels::update_chunk_into_batched(
            self, w32, slots, grads, w32_out, slots_out, w16_out, grad_dtype, step,
        )
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone, Copy, Default)]
pub struct Adam {
    /// Hyperparameters.
    pub params: AdamParams,
}

impl Adam {
    /// Creates an Adam rule with the given hyperparameters.
    pub fn new(params: AdamParams) -> Self {
        Adam { params }
    }
}

impl Optimizer for Adam {
    fn kind(&self) -> OptimizerKind {
        OptimizerKind::Adam
    }

    fn hyper_wire(&self) -> [f32; 5] {
        let p = &self.params;
        [p.lr, p.beta1, p.beta2, p.eps, p.weight_decay]
    }

    fn set_lr(&mut self, lr: f32) {
        self.params.lr = lr;
    }

    #[inline]
    fn update_scalar(&self, w: f32, slots: &mut [f32], grad: f32, step: u64) -> f32 {
        let p = &self.params;
        let m = p.beta1 * slots[0] + (1.0 - p.beta1) * grad;
        let v = p.beta2 * slots[1] + (1.0 - p.beta2) * grad * grad;
        slots[0] = m;
        slots[1] = v;
        let bc1 = 1.0 - p.beta1.powi(step as i32);
        let bc2 = 1.0 - p.beta2.powi(step as i32);
        let m_hat = m / bc1;
        let v_hat = v / bc2;
        w - p.lr * m_hat / (v_hat.sqrt() + p.eps)
    }
}

/// AdamW: Adam with decoupled weight decay applied to the master weight.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdamW {
    /// Hyperparameters (including `weight_decay`).
    pub params: AdamParams,
}

impl AdamW {
    /// Creates an AdamW rule with the given hyperparameters.
    pub fn new(params: AdamParams) -> Self {
        AdamW { params }
    }
}

impl Optimizer for AdamW {
    fn kind(&self) -> OptimizerKind {
        OptimizerKind::AdamW
    }

    fn hyper_wire(&self) -> [f32; 5] {
        let p = &self.params;
        [p.lr, p.beta1, p.beta2, p.eps, p.weight_decay]
    }

    fn set_lr(&mut self, lr: f32) {
        self.params.lr = lr;
    }

    #[inline]
    fn update_scalar(&self, w: f32, slots: &mut [f32], grad: f32, step: u64) -> f32 {
        let p = &self.params;
        let m = p.beta1 * slots[0] + (1.0 - p.beta1) * grad;
        let v = p.beta2 * slots[1] + (1.0 - p.beta2) * grad * grad;
        slots[0] = m;
        slots[1] = v;
        let bc1 = 1.0 - p.beta1.powi(step as i32);
        let bc2 = 1.0 - p.beta2.powi(step as i32);
        let m_hat = m / bc1;
        let v_hat = v / bc2;
        let w = w - p.lr * p.weight_decay * w; // decoupled decay
        w - p.lr * m_hat / (v_hat.sqrt() + p.eps)
    }
}

/// SGD with classical momentum: `m ← μm + g; w ← w − lr·m`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SgdMomentum {
    /// Hyperparameters.
    pub params: MomentumParams,
}

impl SgdMomentum {
    /// Creates an SGD-momentum rule with the given hyperparameters.
    pub fn new(params: MomentumParams) -> Self {
        SgdMomentum { params }
    }
}

impl Optimizer for SgdMomentum {
    fn kind(&self) -> OptimizerKind {
        OptimizerKind::SgdMomentum
    }

    fn hyper_wire(&self) -> [f32; 5] {
        let p = &self.params;
        [p.lr, p.momentum, 0.0, p.eps, 0.0]
    }

    fn set_lr(&mut self, lr: f32) {
        self.params.lr = lr;
    }

    #[inline]
    fn update_scalar(&self, w: f32, slots: &mut [f32], grad: f32, _step: u64) -> f32 {
        let p = &self.params;
        let m = p.momentum * slots[0] + grad;
        slots[0] = m;
        w - p.lr * m
    }
}

/// Adagrad: `acc ← acc + g²; w ← w − lr·g/(√acc + ε)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Adagrad {
    /// Hyperparameters (`momentum` is ignored).
    pub params: MomentumParams,
}

impl Adagrad {
    /// Creates an Adagrad rule with the given hyperparameters.
    pub fn new(params: MomentumParams) -> Self {
        Adagrad { params }
    }
}

impl Optimizer for Adagrad {
    fn kind(&self) -> OptimizerKind {
        OptimizerKind::Adagrad
    }

    fn hyper_wire(&self) -> [f32; 5] {
        let p = &self.params;
        [p.lr, p.momentum, 0.0, p.eps, 0.0]
    }

    fn set_lr(&mut self, lr: f32) {
        self.params.lr = lr;
    }

    #[inline]
    fn update_scalar(&self, w: f32, slots: &mut [f32], grad: f32, _step: u64) -> f32 {
        let p = &self.params;
        let acc = slots[0] + grad * grad;
        slots[0] = acc;
        w - p.lr * grad / (acc.sqrt() + p.eps)
    }
}

/// Lion (Chen et al.): sign of an interpolated momentum, with decoupled
/// weight decay. Keeps a single moment — half of Adam's auxiliary state —
/// which for flash-resident optimizers is 4 B/param of traffic and wear
/// saved.
///
/// Update: `u = sign(β₁·m + (1−β₁)·g)`, `w ← w(1 − lr·λ) − lr·u`,
/// `m ← β₂·m + (1−β₂)·g`.
#[derive(Debug, Clone, Copy)]
pub struct Lion {
    /// Hyperparameters: `lr`, `beta1` (interpolation), `beta2` (momentum
    /// decay), `weight_decay`. `eps` is unused.
    pub params: AdamParams,
}

impl Default for Lion {
    fn default() -> Self {
        // Lion wants a ~3–10x smaller lr than AdamW and stronger decay.
        Lion {
            params: AdamParams {
                lr: 1e-5,
                beta1: 0.9,
                beta2: 0.99,
                eps: 1e-8,
                weight_decay: 0.1,
            },
        }
    }
}

impl Lion {
    /// Creates a Lion rule with the given hyperparameters.
    pub fn new(params: AdamParams) -> Self {
        Lion { params }
    }
}

impl Optimizer for Lion {
    fn kind(&self) -> OptimizerKind {
        OptimizerKind::Lion
    }

    fn hyper_wire(&self) -> [f32; 5] {
        let p = &self.params;
        [p.lr, p.beta1, p.beta2, p.eps, p.weight_decay]
    }

    fn set_lr(&mut self, lr: f32) {
        self.params.lr = lr;
    }

    #[inline]
    fn update_scalar(&self, w: f32, slots: &mut [f32], grad: f32, _step: u64) -> f32 {
        let p = &self.params;
        let m = slots[0];
        let interp = p.beta1 * m + (1.0 - p.beta1) * grad;
        let update = if interp > 0.0 {
            1.0
        } else if interp < 0.0 {
            -1.0
        } else {
            0.0
        };
        slots[0] = p.beta2 * m + (1.0 - p.beta2) * grad;
        let w = w - p.lr * p.weight_decay * w;
        w - p.lr * update
    }
}

/// Constructs a boxed optimizer of the given kind with default-ish
/// hyperparameters (used by configs and the command protocol decoder).
pub fn make_optimizer(
    kind: OptimizerKind,
    adam: AdamParams,
    mom: MomentumParams,
) -> Box<dyn Optimizer> {
    match kind {
        OptimizerKind::Adam => Box::new(Adam::new(adam)),
        OptimizerKind::AdamW => Box::new(AdamW::new(adam)),
        OptimizerKind::SgdMomentum => Box::new(SgdMomentum::new(mom)),
        OptimizerKind::Adagrad => Box::new(Adagrad::new(mom)),
        OptimizerKind::Lion => Box::new(Lion::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_per_kind() {
        assert_eq!(OptimizerKind::Adam.state_slots(), 2);
        assert_eq!(OptimizerKind::AdamW.state_slots(), 2);
        assert_eq!(OptimizerKind::SgdMomentum.state_slots(), 1);
        assert_eq!(OptimizerKind::Adagrad.state_slots(), 1);
    }

    #[test]
    fn wire_ids_round_trip() {
        for k in OptimizerKind::all() {
            assert_eq!(OptimizerKind::from_wire_id(k.wire_id()), Some(k));
        }
        assert_eq!(OptimizerKind::from_wire_id(200), None);
    }

    #[test]
    fn adam_first_step_matches_closed_form() {
        // At step 1 with zero-initialized moments, Adam's update is exactly
        // -lr * sign(g) (up to eps), independent of |g|.
        let adam = Adam::default();
        let mut slots = [0.0f32; 2];
        let w1 = adam.update_scalar(0.0, &mut slots, 0.5, 1);
        let lr = adam.params.lr;
        assert!((w1 + lr).abs() < lr * 1e-3, "w1 = {w1}, expected ≈ {}", -lr);
        let mut slots = [0.0f32; 2];
        let w2 = adam.update_scalar(0.0, &mut slots, -3.0, 1);
        assert!((w2 - lr).abs() < lr * 1e-3);
    }

    #[test]
    fn adam_moments_accumulate() {
        let adam = Adam::default();
        let mut slots = [0.0f32; 2];
        let mut w = 1.0f32;
        for step in 1..=10 {
            w = adam.update_scalar(w, &mut slots, 1.0, step);
        }
        // Constant positive gradient: m → 1, v → 1, w decreases ~ lr/step.
        assert!(slots[0] > 0.6 && slots[0] <= 1.0);
        assert!(slots[1] > 0.0 && slots[1] <= 1.0);
        assert!(w < 1.0 - 9.0 * adam.params.lr * 0.9);
    }

    #[test]
    fn adamw_decays_weights_without_gradient() {
        let aw = AdamW::default();
        let mut slots = [0.0f32; 2];
        let w = aw.update_scalar(10.0, &mut slots, 0.0, 1);
        // Pure decay: w' = w (1 − lr·wd).
        let expect = 10.0 * (1.0 - aw.params.lr * aw.params.weight_decay);
        assert!((w - expect).abs() < 1e-6);
    }

    #[test]
    fn plain_adam_has_no_decay() {
        let a = Adam::default();
        let mut slots = [0.0f32; 2];
        let w = a.update_scalar(10.0, &mut slots, 0.0, 1);
        assert_eq!(w, 10.0);
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let s = SgdMomentum::default();
        let mut slots = [0.0f32];
        let w0 = 0.0f32;
        let w1 = s.update_scalar(w0, &mut slots, 1.0, 1);
        let d1 = w0 - w1;
        let w2 = s.update_scalar(w1, &mut slots, 1.0, 2);
        let d2 = w1 - w2;
        assert!(d2 > d1, "momentum must grow the step: {d1} vs {d2}");
        assert!((slots[0] - 1.9).abs() < 1e-6);
    }

    #[test]
    fn adagrad_steps_shrink() {
        let a = Adagrad::default();
        let mut slots = [0.0f32];
        let w0 = 0.0f32;
        let w1 = a.update_scalar(w0, &mut slots, 1.0, 1);
        let w2 = a.update_scalar(w1, &mut slots, 1.0, 2);
        assert!((w0 - w1) > (w1 - w2), "adagrad steps must shrink");
        assert_eq!(slots[0], 2.0);
    }

    #[test]
    fn updates_are_deterministic() {
        let adam = Adam::default();
        for _ in 0..3 {
            let mut s1 = [0.1f32, 0.2];
            let mut s2 = [0.1f32, 0.2];
            let a = adam.update_scalar(0.7, &mut s1, -0.3, 5);
            let b = adam.update_scalar(0.7, &mut s2, -0.3, 5);
            assert_eq!(a.to_bits(), b.to_bits());
            assert_eq!(s1[0].to_bits(), s2[0].to_bits());
            assert_eq!(s1[1].to_bits(), s2[1].to_bits());
        }
    }

    #[test]
    fn lion_moves_by_lr_per_step() {
        let lion = Lion::default();
        let mut slots = [0.0f32];
        // Positive gradient: step is exactly -lr (plus decay on w=0: none).
        let w1 = lion.update_scalar(0.0, &mut slots, 0.5, 1);
        assert!((w1 + lion.params.lr).abs() < 1e-12);
        // Magnitude-independent: a huge gradient takes the same step.
        let mut slots = [0.0f32];
        let w2 = lion.update_scalar(0.0, &mut slots, 1e4, 1);
        assert_eq!(w1.to_bits(), w2.to_bits());
    }

    #[test]
    fn lion_momentum_accumulates_and_decays_weights() {
        let lion = Lion::default();
        let mut slots = [0.0f32];
        lion.update_scalar(0.0, &mut slots, 1.0, 1);
        assert!((slots[0] - 0.01).abs() < 1e-7, "m = {}", slots[0]);
        // Pure decay with zero grad and zero momentum.
        let mut slots = [0.0f32];
        let w = lion.update_scalar(100.0, &mut slots, 0.0, 1);
        let expect = 100.0 * (1.0 - lion.params.lr * lion.params.weight_decay);
        assert!((w - expect).abs() < 1e-4);
    }

    #[test]
    fn make_optimizer_constructs_each_kind() {
        for k in OptimizerKind::all() {
            let o = make_optimizer(k, AdamParams::default(), MomentumParams::default());
            assert_eq!(o.kind(), k);
            assert_eq!(o.state_slots(), k.state_slots());
        }
    }
}
