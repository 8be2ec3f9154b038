//! Byte-buffer optimizer kernels.
//!
//! These are the element-wise passes that OptimStore executes inside the
//! SSD and that the baselines execute on the host. All buffers are raw
//! little-endian bytes — exactly what sits in a NAND page — so the same
//! kernel runs against flash page contents and against host staging
//! buffers, guaranteeing bit-identical results.
//!
//! Two implementations exist, bit-identical by construction and by test:
//!
//! * [`update_chunk_scalar`] — the reference loop: one `&dyn Optimizer`
//!   virtual call per element, per-element byte decode/encode.
//! * the batched kernel — the hot path: monomorphized over a concrete
//!   optimizer, it decodes a cache-sized block of elements into scratch
//!   `f32` arrays, runs the (inlined) update rule over the block, and
//!   re-encodes. Per element the arithmetic is the *same operations in the
//!   same order* as the scalar loop — elements are independent, so blocking
//!   only changes how bytes move, never the float sequence — which is what
//!   keeps the two paths bit-exact.
//!
//! [`update_chunk`] is the entry point every caller uses: it makes one
//! virtual call, [`Optimizer::update_chunk`], whose provided body runs the
//! batched kernel monomorphized over the implementing type. Whatever
//! `update_scalar` an optimizer states is the rule the kernel runs.

use crate::bf16::Bf16;
use crate::f16::{self, F16};
use crate::optimizer::Optimizer;
use crate::state::GradDtype;
use std::error::Error;
use std::fmt;

/// A malformed kernel invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// A buffer length is not what the element count requires.
    LengthMismatch {
        /// Which buffer.
        buffer: &'static str,
        /// Bytes supplied.
        got: usize,
        /// Bytes required.
        want: usize,
    },
    /// One auxiliary slot buffer's length is not what the element count
    /// requires.
    SlotLengthMismatch {
        /// Index of the malformed slot buffer (optimizer slot order).
        slot: usize,
        /// Bytes supplied.
        got: usize,
        /// Bytes required.
        want: usize,
    },
    /// The slot buffer count does not match the optimizer's slot count.
    SlotCountMismatch {
        /// Buffers supplied.
        got: usize,
        /// Slots the optimizer requires.
        want: usize,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::LengthMismatch { buffer, got, want } => {
                write!(f, "buffer `{buffer}` is {got} bytes, expected {want}")
            }
            KernelError::SlotLengthMismatch { slot, got, want } => {
                write!(f, "slot buffer {slot} is {got} bytes, expected {want}")
            }
            KernelError::SlotCountMismatch { got, want } => {
                write!(f, "{got} slot buffers supplied, optimizer needs {want}")
            }
        }
    }
}

impl Error for KernelError {}

/// Shared argument validation; returns the element count.
fn validate(
    want_slots: usize,
    w32: &[u8],
    slots: &[&mut [u8]],
    grads: &[u8],
    w16_out: &[u8],
) -> Result<usize, KernelError> {
    if !w32.len().is_multiple_of(4) {
        return Err(KernelError::LengthMismatch {
            buffer: "w32",
            got: w32.len(),
            want: w32.len() / 4 * 4,
        });
    }
    let n = w32.len() / 4;
    if slots.len() != want_slots {
        return Err(KernelError::SlotCountMismatch {
            got: slots.len(),
            want: want_slots,
        });
    }
    for (i, s) in slots.iter().enumerate() {
        if s.len() != 4 * n {
            return Err(KernelError::SlotLengthMismatch {
                slot: i,
                got: s.len(),
                want: 4 * n,
            });
        }
    }
    if grads.len() != 2 * n {
        return Err(KernelError::LengthMismatch {
            buffer: "grads",
            got: grads.len(),
            want: 2 * n,
        });
    }
    if w16_out.len() != 2 * n {
        return Err(KernelError::LengthMismatch {
            buffer: "w16_out",
            got: w16_out.len(),
            want: 2 * n,
        });
    }
    Ok(n)
}

/// Widens one 16-bit gradient element to f32.
#[inline]
fn widen(dtype: GradDtype, bytes: [u8; 2]) -> f32 {
    match dtype {
        GradDtype::F16 => F16::from_le_bytes(bytes).to_f32(),
        GradDtype::Bf16 => Bf16::from_le_bytes(bytes).to_f32(),
    }
}

/// Narrows one f32 to the 16-bit working-weight encoding.
#[inline]
fn narrow(dtype: GradDtype, x: f32) -> [u8; 2] {
    match dtype {
        GradDtype::F16 => F16::from_f32(x).to_le_bytes(),
        GradDtype::Bf16 => Bf16::from_f32(x).to_le_bytes(),
    }
}

/// Widens the 16-bit values in `src` (2 B each) into `dst`, up to the
/// shorter of the two. One `match` per slice, not per element: f16 goes
/// through the CPU's F16C conversion where it has one, bf16 through a
/// straight-line loop the compiler can vectorize.
pub fn widen_into(dtype: GradDtype, src: &[u8], dst: &mut [f32]) {
    match dtype {
        GradDtype::F16 => f16::widen_slice(src, dst),
        GradDtype::Bf16 => dst
            .iter_mut()
            .zip(src.chunks_exact(2))
            .for_each(|(d, s)| *d = Bf16::from_le_bytes(s.try_into().unwrap()).to_f32()),
    }
}

/// Narrows `src` into 16-bit values in `dst` (2 B each), up to the shorter
/// of the two; the inverse of [`widen_into`].
pub fn narrow_into(dtype: GradDtype, src: &[f32], dst: &mut [u8]) {
    match dtype {
        GradDtype::F16 => f16::narrow_slice(src, dst),
        GradDtype::Bf16 => src
            .iter()
            .zip(dst.chunks_exact_mut(2))
            .for_each(|(s, d)| d.copy_from_slice(&Bf16::from_f32(*s).to_le_bytes())),
    }
}

/// Applies `opt` element-wise over raw state buffers.
///
/// * `w32` — fp32 master weights, 4 B/element, updated in place.
/// * `slots` — one buffer per auxiliary slot, each 4 B/element, updated in
///   place. Order is the optimizer's slot order (e.g. Adam: `m`, then `v`).
/// * `grads` — 16-bit gradients, 2 B/element.
/// * `w16_out` — 16-bit working weights, 2 B/element, overwritten.
/// * `step` — 1-based global step (bias correction).
///
/// Returns the number of elements updated.
///
/// # Example
///
/// ```
/// use optim_math::{kernels, Adam, F16};
/// use optim_math::state::GradDtype;
///
/// let adam = Adam::default();
/// let n = 3;
/// let mut w32: Vec<u8> = (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect();
/// let mut m = vec![0u8; 4 * n];
/// let mut v = vec![0u8; 4 * n];
/// let grads: Vec<u8> = (0..n)
///     .flat_map(|_| F16::from_f32(1.0).to_le_bytes())
///     .collect();
/// let mut w16 = vec![0u8; 2 * n];
/// let updated = kernels::update_chunk(
///     &adam,
///     &mut w32,
///     &mut [&mut m, &mut v],
///     &grads,
///     &mut w16,
///     GradDtype::F16,
///     1,
/// ).unwrap();
/// assert_eq!(updated, 3);
/// ```
pub fn update_chunk(
    opt: &dyn Optimizer,
    w32: &mut [u8],
    slots: &mut [&mut [u8]],
    grads: &[u8],
    w16_out: &mut [u8],
    grad_dtype: GradDtype,
    step: u64,
) -> Result<usize, KernelError> {
    opt.update_chunk(w32, slots, grads, w16_out, grad_dtype, step)
}

/// The scalar reference implementation of [`update_chunk`]: one virtual
/// call and one byte decode/encode per element. Kept as the oracle the
/// batched kernel is benchmarked and property-tested against.
pub fn update_chunk_scalar(
    opt: &dyn Optimizer,
    w32: &mut [u8],
    slots: &mut [&mut [u8]],
    grads: &[u8],
    w16_out: &mut [u8],
    grad_dtype: GradDtype,
    step: u64,
) -> Result<usize, KernelError> {
    let want_slots = opt.state_slots();
    let n = validate(want_slots, w32, slots, grads, w16_out)?;

    let mut slot_vals = [0.0f32; MAX_SLOTS]; // more than any optimizer uses
    for i in 0..n {
        let wi = 4 * i;
        let gi = 2 * i;
        let w = f32::from_le_bytes(w32[wi..wi + 4].try_into().unwrap());
        for (k, s) in slots.iter().enumerate() {
            slot_vals[k] = f32::from_le_bytes(s[wi..wi + 4].try_into().unwrap());
        }
        let g = widen(grad_dtype, grads[gi..gi + 2].try_into().unwrap());
        let new_w = opt.update_scalar(w, &mut slot_vals[..want_slots], g, step);
        w32[wi..wi + 4].copy_from_slice(&new_w.to_le_bytes());
        for (k, s) in slots.iter_mut().enumerate() {
            s[wi..wi + 4].copy_from_slice(&slot_vals[k].to_le_bytes());
        }
        w16_out[gi..gi + 2].copy_from_slice(&narrow(grad_dtype, new_w));
    }
    Ok(n)
}

/// Elements per batched block. 256 elements keep the whole scratch set
/// (weights + gradients + up to `MAX_SLOTS` = 4 slot lanes) around 6 KiB —
/// comfortably L1-resident.
pub const BATCH_BLOCK: usize = 256;

/// Upper bound on auxiliary slots any supported optimizer keeps.
const MAX_SLOTS: usize = 4;

/// The monomorphized batch kernel behind [`update_chunk`], run by
/// [`Optimizer::update_chunk`].
///
/// Decodes up to [`BATCH_BLOCK`] elements of `w32`/`slots`/`grads` into
/// stack scratch arrays, applies `opt`'s (statically dispatched, inlined)
/// update rule across the block, and re-encodes. Accepts the same buffers
/// as [`update_chunk_scalar`] and produces bit-identical results: the
/// per-element float operations and their order are unchanged; only the
/// byte movement is blocked.
pub(crate) fn update_chunk_batched<O: Optimizer + ?Sized>(
    opt: &O,
    w32: &mut [u8],
    slots: &mut [&mut [u8]],
    grads: &[u8],
    w16_out: &mut [u8],
    grad_dtype: GradDtype,
    step: u64,
) -> Result<usize, KernelError> {
    let k = opt.state_slots();
    let n = validate(k, w32, slots, grads, w16_out)?;

    let mut wf = [0.0f32; BATCH_BLOCK];
    let mut gf = [0.0f32; BATCH_BLOCK];
    let mut sf = [[0.0f32; BATCH_BLOCK]; MAX_SLOTS];
    let mut base = 0usize;
    while base < n {
        let len = (n - base).min(BATCH_BLOCK);
        // Decode the block: masters, slot lanes, widened gradients.
        for (dst, src) in wf[..len]
            .iter_mut()
            .zip(w32[4 * base..4 * (base + len)].chunks_exact(4))
        {
            *dst = f32::from_le_bytes(src.try_into().unwrap());
        }
        for (lane, sbuf) in sf.iter_mut().zip(slots.iter()) {
            for (dst, src) in lane[..len]
                .iter_mut()
                .zip(sbuf[4 * base..4 * (base + len)].chunks_exact(4))
            {
                *dst = f32::from_le_bytes(src.try_into().unwrap());
            }
        }
        widen_into(
            grad_dtype,
            &grads[2 * base..2 * (base + len)],
            &mut gf[..len],
        );
        // The update sweep: statically dispatched, so the rule inlines and
        // the per-element loop is a straight-line float kernel.
        let mut sv = [0.0f32; MAX_SLOTS];
        for i in 0..len {
            for (v, lane) in sv[..k].iter_mut().zip(sf.iter()) {
                *v = lane[i];
            }
            wf[i] = opt.update_scalar(wf[i], &mut sv[..k], gf[i], step);
            for (v, lane) in sv[..k].iter().zip(sf.iter_mut()) {
                lane[i] = *v;
            }
        }
        // Re-encode the block.
        for (src, dst) in wf[..len]
            .iter()
            .zip(w32[4 * base..4 * (base + len)].chunks_exact_mut(4))
        {
            dst.copy_from_slice(&src.to_le_bytes());
        }
        for (lane, sbuf) in sf.iter().zip(slots.iter_mut()) {
            for (src, dst) in lane[..len]
                .iter()
                .zip(sbuf[4 * base..4 * (base + len)].chunks_exact_mut(4))
            {
                dst.copy_from_slice(&src.to_le_bytes());
            }
        }
        narrow_into(
            grad_dtype,
            &wf[..len],
            &mut w16_out[2 * base..2 * (base + len)],
        );
        base += len;
    }
    Ok(n)
}

/// Convenience owned-buffer state for reference computations and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct StateBuffers {
    /// fp32 master weights (4 B/element).
    pub w32: Vec<u8>,
    /// Auxiliary slots (each 4 B/element).
    pub slots: Vec<Vec<u8>>,
    /// 16-bit working weights (2 B/element).
    pub w16: Vec<u8>,
}

impl StateBuffers {
    /// Fresh state for `n` parameters with the given initial master weights.
    pub fn init(opt: &dyn Optimizer, weights: &[f32], grad_dtype: GradDtype) -> Self {
        let w32 = weights.iter().flat_map(|w| w.to_le_bytes()).collect();
        let slots = (0..opt.state_slots())
            .map(|_| vec![0u8; 4 * weights.len()])
            .collect();
        let mut w16 = vec![0u8; 2 * weights.len()];
        narrow_into(grad_dtype, weights, &mut w16);
        StateBuffers { w32, slots, w16 }
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.w32.len() / 4
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.w32.is_empty()
    }

    /// Applies one optimizer step over the whole state.
    pub fn step(
        &mut self,
        opt: &dyn Optimizer,
        grads: &[u8],
        grad_dtype: GradDtype,
        step: u64,
    ) -> Result<usize, KernelError> {
        let mut slot_refs: Vec<&mut [u8]> =
            self.slots.iter_mut().map(|s| s.as_mut_slice()).collect();
        update_chunk(
            opt,
            &mut self.w32,
            &mut slot_refs,
            grads,
            &mut self.w16,
            grad_dtype,
            step,
        )
    }

    /// Master weights decoded to f32 (for assertions).
    pub fn weights_f32(&self) -> Vec<f32> {
        self.w32
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }
}

/// Encodes a slice of f32 gradients into raw 16-bit bytes.
pub fn encode_grads(grads: &[f32], dtype: GradDtype) -> Vec<u8> {
    let mut out = vec![0u8; 2 * grads.len()];
    encode_grads_into(grads, dtype, &mut out);
    out
}

/// Encodes f32 gradients into a caller-supplied byte buffer (2 B/element).
///
/// The allocation-free sibling of [`encode_grads`] for pooled page buffers;
/// `out` must be at least `2 * grads.len()` bytes — excess bytes are left
/// untouched.
pub fn encode_grads_into(grads: &[f32], dtype: GradDtype, out: &mut [u8]) {
    assert!(
        out.len() >= 2 * grads.len(),
        "grad output buffer too small: {} bytes for {} elements",
        out.len(),
        grads.len()
    );
    narrow_into(dtype, grads, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{Adagrad, Adam, AdamW, OptimizerKind, SgdMomentum};

    fn grads_bytes(n: usize, val: f32) -> Vec<u8> {
        encode_grads(&vec![val; n], GradDtype::F16)
    }

    #[test]
    fn chunk_matches_scalar_loop() {
        let adam = Adam::default();
        let n = 64;
        let weights: Vec<f32> = (0..n).map(|i| (i as f32) * 0.01 - 0.3).collect();
        let mut buf = StateBuffers::init(&adam, &weights, GradDtype::F16);
        let grads = grads_bytes(n, 0.25);
        buf.step(&adam, &grads, GradDtype::F16, 1).unwrap();

        // Scalar reference.
        let g = F16::from_f32(0.25).to_f32();
        for (i, &w0) in weights.iter().enumerate() {
            let mut slots = [0.0f32; 2];
            let expect = adam.update_scalar(w0, &mut slots, g, 1);
            let got = buf.weights_f32()[i];
            assert_eq!(got.to_bits(), expect.to_bits(), "element {i}");
        }
    }

    #[test]
    fn w16_output_is_narrowed_master() {
        let adam = Adam::default();
        let weights = [0.5f32, -0.25, 3.0];
        let mut buf = StateBuffers::init(&adam, &weights, GradDtype::F16);
        let grads = grads_bytes(3, -1.0);
        buf.step(&adam, &grads, GradDtype::F16, 1).unwrap();
        for (i, &w) in buf.weights_f32().iter().enumerate() {
            let w16 = F16::from_le_bytes(buf.w16[2 * i..2 * i + 2].try_into().unwrap());
            assert_eq!(w16, F16::from_f32(w), "element {i}");
        }
    }

    #[test]
    fn all_optimizers_run_through_the_kernel() {
        let opts: Vec<Box<dyn Optimizer>> = vec![
            Box::new(Adam::default()),
            Box::new(AdamW::default()),
            Box::new(SgdMomentum::default()),
            Box::new(Adagrad::default()),
        ];
        for opt in &opts {
            let weights = vec![1.0f32; 16];
            let mut buf = StateBuffers::init(opt.as_ref(), &weights, GradDtype::F16);
            let grads = grads_bytes(16, 0.5);
            let n = buf.step(opt.as_ref(), &grads, GradDtype::F16, 1).unwrap();
            assert_eq!(n, 16);
            for w in buf.weights_f32() {
                assert!(w < 1.0, "{:?} failed to decrease weights", opt.kind());
            }
        }
    }

    #[test]
    fn bf16_gradients_work() {
        let adam = Adam::default();
        let weights = vec![0.0f32; 8];
        let mut buf = StateBuffers::init(&adam, &weights, GradDtype::Bf16);
        let grads = encode_grads(&[2.0f32; 8], GradDtype::Bf16);
        buf.step(&adam, &grads, GradDtype::Bf16, 1).unwrap();
        for w in buf.weights_f32() {
            assert!(w < 0.0);
        }
    }

    #[test]
    fn slot_count_mismatch_detected() {
        let adam = Adam::default();
        let mut w32 = vec![0u8; 16];
        let mut m = vec![0u8; 16];
        let grads = vec![0u8; 8];
        let mut w16 = vec![0u8; 8];
        let err = update_chunk(
            &adam,
            &mut w32,
            &mut [&mut m], // Adam needs two
            &grads,
            &mut w16,
            GradDtype::F16,
            1,
        )
        .unwrap_err();
        assert_eq!(err, KernelError::SlotCountMismatch { got: 1, want: 2 });
    }

    #[test]
    fn length_mismatches_detected() {
        let sgd = SgdMomentum::default();
        let mut w32 = vec![0u8; 16]; // 4 params
        let mut m = vec![0u8; 12]; // wrong
        let grads = vec![0u8; 8];
        let mut w16 = vec![0u8; 8];
        let err = update_chunk(
            &sgd,
            &mut w32,
            &mut [&mut m],
            &grads,
            &mut w16,
            GradDtype::F16,
            1,
        )
        .unwrap_err();
        assert_eq!(
            err,
            KernelError::SlotLengthMismatch {
                slot: 0,
                got: 12,
                want: 16
            }
        );

        let mut m = vec![0u8; 16];
        let bad_grads = vec![0u8; 6];
        let err = update_chunk(
            &sgd,
            &mut w32,
            &mut [&mut m],
            &bad_grads,
            &mut w16,
            GradDtype::F16,
            1,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            KernelError::LengthMismatch {
                buffer: "grads",
                ..
            }
        ));
    }

    #[test]
    fn empty_buffers_are_fine() {
        let adam = Adam::default();
        let mut buf = StateBuffers::init(&adam, &[], GradDtype::F16);
        assert!(buf.is_empty());
        let n = buf.step(&adam, &[], GradDtype::F16, 1).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn kernel_is_deterministic_across_invocations() {
        let adam = AdamW::default();
        let weights: Vec<f32> = (0..32).map(|i| (i as f32).cos()).collect();
        let grads = encode_grads(
            &(0..32).map(|i| (i as f32).sin() * 0.1).collect::<Vec<_>>(),
            GradDtype::F16,
        );
        let run = || {
            let mut buf = StateBuffers::init(&adam, &weights, GradDtype::F16);
            for step in 1..=5 {
                buf.step(&adam, &grads, GradDtype::F16, step).unwrap();
            }
            buf
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn slot_length_error_reports_the_right_slot() {
        let adam = Adam::default();
        let mut w32 = vec![0u8; 16]; // 4 params
        let mut m = vec![0u8; 16]; // fine
        let mut v = vec![0u8; 20]; // wrong, slot index 1
        let grads = vec![0u8; 8];
        let mut w16 = vec![0u8; 8];
        let err = update_chunk(
            &adam,
            &mut w32,
            &mut [&mut m, &mut v],
            &grads,
            &mut w16,
            GradDtype::F16,
            1,
        )
        .unwrap_err();
        assert_eq!(
            err,
            KernelError::SlotLengthMismatch {
                slot: 1,
                got: 20,
                want: 16
            }
        );
        assert_eq!(err.to_string(), "slot buffer 1 is 20 bytes, expected 16");
    }

    /// Runs `steps` optimizer steps over `n` elements twice — batched
    /// dispatch and scalar reference — and asserts every output buffer is
    /// byte-identical.
    fn assert_batched_matches_scalar(opt: &dyn Optimizer, n: usize, dtype: GradDtype, steps: u64) {
        let weights: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.37).sin() * 2.0).collect();
        let grad_f32: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.11).cos() * 0.3).collect();
        let grads = encode_grads(&grad_f32, dtype);

        let mut fast = StateBuffers::init(opt, &weights, dtype);
        let mut slow = StateBuffers::init(opt, &weights, dtype);
        for step in 1..=steps {
            fast.step(opt, &grads, dtype, step).unwrap();
            let mut slot_refs: Vec<&mut [u8]> =
                slow.slots.iter_mut().map(|s| s.as_mut_slice()).collect();
            update_chunk_scalar(
                opt,
                &mut slow.w32,
                &mut slot_refs,
                &grads,
                &mut slow.w16,
                dtype,
                step,
            )
            .unwrap();
        }
        assert_eq!(fast.w32, slow.w32, "{:?} w32 diverged", opt.kind());
        assert_eq!(fast.slots, slow.slots, "{:?} slots diverged", opt.kind());
        assert_eq!(fast.w16, slow.w16, "{:?} w16 diverged", opt.kind());
    }

    #[test]
    fn batched_matches_scalar_all_kinds_and_dtypes() {
        let opts: Vec<Box<dyn Optimizer>> = vec![
            Box::new(Adam::default()),
            Box::new(AdamW::default()),
            Box::new(SgdMomentum::default()),
            Box::new(Adagrad::default()),
            Box::new(crate::optimizer::Lion::default()),
        ];
        for opt in &opts {
            for dtype in [GradDtype::F16, GradDtype::Bf16] {
                // Non-block-aligned count: exercises the tail block.
                assert_batched_matches_scalar(opt.as_ref(), 3 * BATCH_BLOCK + 37, dtype, 3);
            }
        }
    }

    /// Reports Adam's kind and hyperparameters but updates by a rule of its
    /// own, which the kernel must run rather than Adam's.
    #[derive(Debug)]
    struct NotQuiteAdam(Adam);

    impl Optimizer for NotQuiteAdam {
        fn kind(&self) -> OptimizerKind {
            OptimizerKind::Adam
        }

        fn hyper_wire(&self) -> [f32; 5] {
            self.0.hyper_wire()
        }

        fn set_lr(&mut self, lr: f32) {
            self.0.set_lr(lr);
        }

        fn update_scalar(&self, w: f32, slots: &mut [f32], grad: f32, step: u64) -> f32 {
            slots[1] += grad;
            0.5 * self.0.update_scalar(w, slots, grad, step) + slots[1]
        }
    }

    #[test]
    fn external_optimizer_runs_its_own_rule() {
        let opt = NotQuiteAdam(Adam::default());
        assert_batched_matches_scalar(&opt, BATCH_BLOCK + 5, GradDtype::F16, 3);
        let mut adam = StateBuffers::init(&opt, &[1.0; 8], GradDtype::F16);
        let mut other = adam.clone();
        let grads = grads_bytes(8, 0.5);
        adam.step(&opt.0, &grads, GradDtype::F16, 1).unwrap();
        other.step(&opt, &grads, GradDtype::F16, 1).unwrap();
        assert_ne!(adam.w32, other.w32, "the kernel ran Adam's rule");
    }

    #[test]
    fn batched_matches_scalar_on_tiny_and_exact_blocks() {
        let adam = Adam::default();
        for n in [0, 1, BATCH_BLOCK - 1, BATCH_BLOCK, BATCH_BLOCK + 1] {
            assert_batched_matches_scalar(&adam, n, GradDtype::F16, 2);
        }
    }

    #[test]
    fn batched_matches_scalar_with_nan_gradients() {
        let adam = Adam::default();
        let n = BATCH_BLOCK + 9;
        let weights: Vec<f32> = (0..n).map(|i| (i as f32) * 0.01).collect();
        let mut grad_f32: Vec<f32> = vec![0.5; n];
        grad_f32[3] = f32::NAN;
        grad_f32[BATCH_BLOCK + 1] = f32::NAN;
        let grads = encode_grads(&grad_f32, GradDtype::F16);

        let mut fast = StateBuffers::init(&adam, &weights, GradDtype::F16);
        let mut slow = fast.clone();
        fast.step(&adam, &grads, GradDtype::F16, 1).unwrap();
        let mut slot_refs: Vec<&mut [u8]> =
            slow.slots.iter_mut().map(|s| s.as_mut_slice()).collect();
        update_chunk_scalar(
            &adam,
            &mut slow.w32,
            &mut slot_refs,
            &grads,
            &mut slow.w16,
            GradDtype::F16,
            1,
        )
        .unwrap();
        assert_eq!(fast.w32, slow.w32);
        assert_eq!(fast.slots, slow.slots);
        assert_eq!(fast.w16, slow.w16);
    }

    #[test]
    fn encode_grads_into_matches_encode_grads() {
        let grads: Vec<f32> = (0..19).map(|i| (i as f32) * 0.21 - 1.5).collect();
        for dtype in [GradDtype::F16, GradDtype::Bf16] {
            let owned = encode_grads(&grads, dtype);
            let mut out = vec![0xAAu8; 2 * grads.len() + 6];
            encode_grads_into(&grads, dtype, &mut out);
            assert_eq!(&out[..2 * grads.len()], &owned[..]);
            assert!(out[2 * grads.len()..].iter().all(|&b| b == 0xAA));
        }
    }

    #[test]
    fn slots_kinds_have_expected_counts() {
        assert_eq!(OptimizerKind::Adam.state_slots(), 2);
        assert_eq!(OptimizerKind::Adagrad.state_slots(), 1);
    }
}
