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
//!   optimizer and its slot count, it walks the elements in blocks of
//!   [`BATCH_BLOCK`]. Per block it widens the gradients, then runs one
//!   element loop that reads the master weight and the slots from their
//!   source bytes, applies the (inlined) update rule and writes the
//!   destination bytes, and finally narrows the new weights into the
//!   16-bit output. Per element the arithmetic is the *same operations in
//!   the same order* as the scalar loop — elements are independent, so
//!   blocking only changes how bytes move, never the float sequence —
//!   which is what keeps the two paths bit-exact.
//!
//! The batched kernel has one body, monomorphized over the implementing
//! type by the one provided [`Optimizer::update_chunk_into`] method, and
//! two entry points:
//!
//! * [`update_chunk_into`] reads the state from source buffers and writes
//!   the new state to separate destination buffers — the executor's path,
//!   which reads every operand page where it rests in the die's page store
//!   and writes fresh pages for the program to adopt;
//! * [`update_chunk`] updates the state in place — host baselines and
//!   owned buffers — as a plain adapter: it copies each block's sources to
//!   the stack and runs [`update_chunk_into`]'s method from the copies back
//!   into the buffers.
//!
//! Whatever `update_scalar` an optimizer states is the rule both run.

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
    /// The optimizer keeps more auxiliary slots than the kernels run.
    TooManySlots {
        /// Slots the optimizer states.
        got: usize,
        /// The most the kernels run ([`MAX_SLOTS`]).
        max: usize,
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
            KernelError::TooManySlots { got, max } => {
                write!(
                    f,
                    "optimizer keeps {got} slots, the kernels run at most {max}"
                )
            }
        }
    }
}

impl Error for KernelError {}

/// `Err(LengthMismatch)` unless `got == want`.
fn check_len(buffer: &'static str, got: usize, want: usize) -> Result<(), KernelError> {
    if got == want {
        Ok(())
    } else {
        Err(KernelError::LengthMismatch { buffer, got, want })
    }
}

/// `Err(SlotLengthMismatch)` for the first of `lens` that is not `want`.
fn check_slot_lens(lens: impl Iterator<Item = usize>, want: usize) -> Result<(), KernelError> {
    match lens.enumerate().find(|&(_, got)| got != want) {
        Some((slot, got)) => Err(KernelError::SlotLengthMismatch { slot, got, want }),
        None => Ok(()),
    }
}

/// Shared argument validation of the state an update reads; returns the
/// element count.
fn validate(
    want_slots: usize,
    w32: &[u8],
    slots: &[impl AsRef<[u8]>],
    grads: &[u8],
    w16_out: &[u8],
) -> Result<usize, KernelError> {
    if want_slots > MAX_SLOTS {
        return Err(KernelError::TooManySlots {
            got: want_slots,
            max: MAX_SLOTS,
        });
    }
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
    check_slot_lens(slots.iter().map(|s| s.as_ref().len()), 4 * n)?;
    check_len("grads", grads.len(), 2 * n)?;
    check_len("w16_out", w16_out.len(), 2 * n)?;
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

/// Applies `opt` element-wise over raw state buffers, in place.
///
/// Each block of [`BATCH_BLOCK`] elements has its master and slot bytes
/// copied to the stack, and [`Optimizer::update_chunk_into`] runs from the
/// copies back into the buffers.
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
    let (n, k) = (
        validate(opt.state_slots(), w32, slots, grads, w16_out)?,
        slots.len(),
    );
    let mut w_src = [0u8; 4 * BATCH_BLOCK];
    let mut s_src = [[0u8; 4 * BATCH_BLOCK]; MAX_SLOTS];
    for base in (0..n).step_by(BATCH_BLOCK) {
        let len = (n - base).min(BATCH_BLOCK);
        let (state, half) = (4 * base..4 * (base + len), 2 * base..2 * (base + len));
        w_src[..4 * len].copy_from_slice(&w32[state.clone()]);
        let mut s_out: [&mut [u8]; MAX_SLOTS] = Default::default();
        for ((copy, out), slot) in s_src.iter_mut().zip(&mut s_out).zip(slots.iter_mut()) {
            copy[..4 * len].copy_from_slice(&slot[state.clone()]);
            *out = &mut slot[state.clone()];
        }
        opt.update_chunk_into(
            &w_src[..4 * len],
            &s_src.each_ref().map(|s| &s[..4 * len])[..k],
            &grads[half.clone()],
            &mut w32[state],
            &mut s_out[..k],
            &mut w16_out[half],
            grad_dtype,
            step,
        )?;
    }
    Ok(n)
}

/// Applies `opt` element-wise from source state buffers into destination
/// ones: [`update_chunk`] without updating in place.
///
/// `w32` and `slots` hold the state before the update and are only read;
/// `w32_out` and `slots_out` receive the state after it and must have the
/// same lengths. `grads`, `w16_out` and `step` are as in
/// [`update_chunk`], and the bytes written are exactly the ones
/// [`update_chunk`] would leave in place. Returns the number of elements
/// updated.
#[allow(clippy::too_many_arguments)]
pub fn update_chunk_into(
    opt: &dyn Optimizer,
    w32: &[u8],
    slots: &[&[u8]],
    grads: &[u8],
    w32_out: &mut [u8],
    slots_out: &mut [&mut [u8]],
    w16_out: &mut [u8],
    grad_dtype: GradDtype,
    step: u64,
) -> Result<usize, KernelError> {
    opt.update_chunk_into(
        w32, slots, grads, w32_out, slots_out, w16_out, grad_dtype, step,
    )
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

    let mut slot_vals = [0.0f32; MAX_SLOTS];
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

/// Elements per batched block. 256 elements keep a block's gradient and
/// new-weight scratch at 2 KiB, and [`update_chunk`]'s stack copies of
/// the master and up to [`MAX_SLOTS`] slot blocks at 5 KiB more —
/// comfortably L1-resident.
pub const BATCH_BLOCK: usize = 256;

/// The most auxiliary slots the kernels run; an optimizer that states
/// more is rejected with [`KernelError::TooManySlots`].
pub const MAX_SLOTS: usize = 4;

/// Runs `$run::<O, K>($args)` for the slot count `K` equal to `$k`,
/// which must be at most [`MAX_SLOTS`] (one arm per count).
macro_rules! dispatch_slots {
    ($k:expr, $run:ident::<$o:ty>($($arg:expr),* $(,)?)) => {
        match $k {
            0 => $run::<$o, 0>($($arg),*),
            1 => $run::<$o, 1>($($arg),*),
            2 => $run::<$o, 2>($($arg),*),
            3 => $run::<$o, 3>($($arg),*),
            4 => $run::<$o, MAX_SLOTS>($($arg),*),
            got => Err(KernelError::TooManySlots { got, max: MAX_SLOTS }),
        }
    };
}

/// The batched kernel behind [`update_chunk_into`] and [`update_chunk`],
/// run by [`Optimizer::update_chunk_into`]: dispatches on the slot count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn update_chunk_into_batched<O: Optimizer + ?Sized>(
    opt: &O,
    w32: &[u8],
    slots: &[&[u8]],
    grads: &[u8],
    w32_out: &mut [u8],
    slots_out: &mut [&mut [u8]],
    w16_out: &mut [u8],
    grad_dtype: GradDtype,
    step: u64,
) -> Result<usize, KernelError> {
    dispatch_slots!(
        opt.state_slots(),
        out_of_place::<O>(opt, w32, slots, grads, w32_out, slots_out, w16_out, grad_dtype, step,)
    )
}

/// [`update_chunk_into_batched`] for an optimizer with `K` slots. Per
/// block it widens the gradients, runs [`update_elements`] from the
/// sources into the destinations and narrows the new weights into the
/// 16-bit output.
#[allow(clippy::too_many_arguments)]
fn out_of_place<O: Optimizer + ?Sized, const K: usize>(
    opt: &O,
    w32: &[u8],
    slots: &[&[u8]],
    grads: &[u8],
    w32_out: &mut [u8],
    slots_out: &mut [&mut [u8]],
    w16_out: &mut [u8],
    grad_dtype: GradDtype,
    step: u64,
) -> Result<usize, KernelError> {
    let n = validate(K, w32, slots, grads, w16_out)?;
    check_len("w32_out", w32_out.len(), 4 * n)?;
    let got = slots_out.len();
    let slots_out: &mut [_; K] = slots_out
        .try_into()
        .map_err(|_| KernelError::SlotCountMismatch { got, want: K })?;
    check_slot_lens(slots_out.iter().map(|s| s.len()), 4 * n)?;
    let slots: [&[u8]; K] = slots
        .try_into()
        .map_err(|_| KernelError::SlotCountMismatch {
            got: slots.len(),
            want: K,
        })?;
    // The block's widened gradients and new weights.
    let mut gf = [0.0f32; BATCH_BLOCK];
    let mut new_w = [0.0f32; BATCH_BLOCK];
    for base in (0..n).step_by(BATCH_BLOCK) {
        let len = (n - base).min(BATCH_BLOCK);
        let (state, half) = (4 * base..4 * (base + len), 2 * base..2 * (base + len));
        widen_into(grad_dtype, &grads[half.clone()], &mut gf[..len]);
        update_elements(
            opt,
            &w32[state.clone()],
            slots.map(|s| &s[state.clone()]),
            &gf[..len],
            &mut w32_out[state.clone()],
            slots_out.each_mut().map(|s| &mut s[state.clone()]),
            &mut new_w[..len],
            step,
        );
        narrow_into(grad_dtype, &new_w[..len], &mut w16_out[half]);
    }
    Ok(n)
}

/// The one arithmetic body: for each element `i` of `grads` (at most
/// [`BATCH_BLOCK`]), reads the master weight and the `K` slots from their
/// source bytes, applies `opt`'s (statically dispatched, inlined) update
/// rule, writes the new state to the destination bytes and keeps the new
/// weight in `new_w[i]`. Per element these are the scalar oracle's float
/// operations in its order.
///
/// Every source and destination is re-sliced to the block's exact length
/// before the element loop, so the compiler knows each index in it is in
/// bounds: the loop keeps no bounds checks and vectorizes. It stays a
/// function of its own for the same reason: inlined into its caller, the
/// loop compiled scalar and ran the functional step's kernels about 2.5×
/// slower (x86-64, 16 codegen units).
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn update_elements<O: Optimizer + ?Sized, const K: usize>(
    opt: &O,
    w32: &[u8],
    slots: [&[u8]; K],
    grads: &[f32],
    w32_out: &mut [u8],
    slots_out: [&mut [u8]; K],
    new_w: &mut [f32],
    step: u64,
) {
    let len = grads.len().min(BATCH_BLOCK);
    let (w32, w32_out) = (&w32[..4 * len], &mut w32_out[..4 * len]);
    let slots = slots.map(|s| &s[..4 * len]);
    let mut slots_out = slots_out.map(|s| &mut s[..4 * len]);
    let (grads, new_w) = (&grads[..len], &mut new_w[..len]);
    for i in 0..len {
        let at = 4 * i..4 * i + 4;
        let mut sv = [0.0f32; K];
        for (v, lane) in sv.iter_mut().zip(&slots) {
            *v = f32::from_le_bytes(lane[at.clone()].try_into().unwrap());
        }
        let w = f32::from_le_bytes(w32[at.clone()].try_into().unwrap());
        let nw = opt.update_scalar(w, &mut sv, grads[i], step);
        w32_out[at.clone()].copy_from_slice(&nw.to_le_bytes());
        for (v, lane) in sv.iter().zip(&mut slots_out) {
            lane[at.clone()].copy_from_slice(&v.to_le_bytes());
        }
        new_w[i] = nw;
    }
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

    /// States one slot more than the kernels run.
    #[derive(Debug)]
    struct TooManySlots;

    impl Optimizer for TooManySlots {
        fn kind(&self) -> OptimizerKind {
            OptimizerKind::Adam
        }

        fn state_slots(&self) -> usize {
            MAX_SLOTS + 1
        }

        fn hyper_wire(&self) -> [f32; 5] {
            [0.0; 5]
        }

        fn set_lr(&mut self, _lr: f32) {}

        fn update_scalar(&self, w: f32, _slots: &mut [f32], _grad: f32, _step: u64) -> f32 {
            w
        }
    }

    #[test]
    fn too_many_slots_is_a_typed_error_in_every_kernel() {
        let k = MAX_SLOTS + 1;
        let err = KernelError::TooManySlots {
            got: k,
            max: MAX_SLOTS,
        };
        let want = Err(err.clone());
        let (mut w32, mut slots, grads, mut w16) = (
            vec![0u8; 8],
            vec![vec![0u8; 8]; k],
            vec![0u8; 4],
            vec![0u8; 4],
        );
        let mut refs: Vec<&mut [u8]> = slots.iter_mut().map(|s| s.as_mut_slice()).collect();
        let dtype = GradDtype::F16;
        let scalar = update_chunk_scalar(
            &TooManySlots,
            &mut w32,
            &mut refs,
            &grads,
            &mut w16,
            dtype,
            1,
        );
        assert_eq!(scalar, want);
        let batched = update_chunk(
            &TooManySlots,
            &mut w32,
            &mut refs,
            &grads,
            &mut w16,
            dtype,
            1,
        );
        assert_eq!(batched, want);
        let src = vec![&[0u8; 8][..]; k];
        let mut out = vec![0u8; 8];
        let into = update_chunk_into(
            &TooManySlots,
            &[0; 8],
            &src,
            &grads,
            &mut out,
            &mut refs,
            &mut w16,
            dtype,
            1,
        );
        assert_eq!(into, want);
        assert_eq!(
            err.to_string(),
            format!("optimizer keeps {k} slots, the kernels run at most {MAX_SLOTS}")
        );
    }

    #[test]
    fn into_mismatched_destinations_are_detected() {
        let sgd = SgdMomentum::default();
        let (w32, m, grads) = (vec![0u8; 16], vec![0u8; 16], vec![0u8; 8]);
        let (mut w_out, mut m_out, mut w16) = (vec![0u8; 12], vec![0u8; 16], vec![0u8; 8]);
        let run = |w_out: &mut [u8], slots_out: &mut [&mut [u8]], w16: &mut [u8]| {
            update_chunk_into(
                &sgd,
                &w32,
                &[&m],
                &grads,
                w_out,
                slots_out,
                w16,
                GradDtype::F16,
                1,
            )
        };
        assert_eq!(
            run(&mut w_out, &mut [&mut m_out], &mut w16),
            Err(KernelError::LengthMismatch {
                buffer: "w32_out",
                got: 12,
                want: 16
            })
        );
        let mut w_out = vec![0u8; 16];
        let mut short = vec![0u8; 8];
        assert_eq!(
            run(&mut w_out, &mut [&mut short], &mut w16),
            Err(KernelError::SlotLengthMismatch {
                slot: 0,
                got: 8,
                want: 16
            })
        );
        assert_eq!(
            run(&mut w_out, &mut [], &mut w16),
            Err(KernelError::SlotCountMismatch { got: 0, want: 1 })
        );
        assert_eq!(run(&mut w_out, &mut [&mut m_out], &mut w16), Ok(4));
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
