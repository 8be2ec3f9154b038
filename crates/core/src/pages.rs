//! The optimizer state image and its operand pages.
//!
//! Every tier of the one step executor ([`crate::OptimStoreDevice`]) loads,
//! updates and accounts for the same bytes the same way — the tier
//! comparison differs only in the update *path*. This module holds the
//! image:
//!
//! * [`fit_layout`] checks an optimizer against its spec and the layout
//!   against the device;
//! * [`load_state_image`] writes every group's pages in one order,
//!   functional or phantom;
//! * [`encode_grad_page`] packs one group's gradient page;
//! * [`Operands`] is the per-group kernel step: it borrows each operand
//!   page where it rests in the page store and runs
//!   [`optim_math::kernels::update_chunk_into`] once per fp32 page into
//!   fresh [`simkit::pool::PageBuf`]s, which the write-back programs
//!   adopt. No operand or result page is copied between the store and
//!   the kernel, and the steady-state step checks its pages out of the
//!   pool instead of allocating.
//!
//! The step accounting — one [`crate::report::CounterSnapshot`] per step
//! edge and [`crate::StepReport::from_counters`] — lives beside the report.

use crate::config::LayoutPolicy;
use crate::exec::CoreError;
use crate::layout::{StateComponent, StateLayout};
use optim_math::kernels::{
    encode_grads_into, narrow_into, update_chunk_into, KernelError, MAX_SLOTS,
};
use optim_math::state::{GradDtype, StateLayoutSpec};
use optim_math::Optimizer;
use simkit::pool::PageBuf;
use simkit::SimTime;
use ssdsim::Device;

/// Checks that `optimizer` runs the rule `spec` lays out, and that the
/// layout of `params` parameters under `policy` fits `device`. Returns the
/// layout.
pub fn fit_layout(
    device: &Device,
    policy: LayoutPolicy,
    params: u64,
    optimizer: &dyn Optimizer,
    spec: &StateLayoutSpec,
    grad_staged: bool,
) -> Result<StateLayout, CoreError> {
    if optimizer.kind() != spec.kind {
        return Err(CoreError::Config(format!(
            "optimizer {:?} does not match layout spec {:?}",
            optimizer.kind(),
            spec.kind
        )));
    }
    let slots = optimizer.state_slots();
    if slots > MAX_SLOTS {
        return Err(CoreError::Kernel(KernelError::TooManySlots {
            got: slots,
            max: MAX_SLOTS,
        }));
    }
    let layout = StateLayout::new(
        policy,
        params,
        optimizer.state_slots() as u8,
        device.config().nand.geometry.page_bytes,
        device.config().total_dies(),
        grad_staged,
    );
    if layout.required_pages() > device.logical_pages() {
        return Err(CoreError::CapacityExceeded {
            need: layout.required_pages(),
            have: device.logical_pages(),
        });
    }
    Ok(layout)
}

/// Writes the initial state image through the host interface, every page
/// issued at `at`: per group, its [`StateLayout::write_set`] and then, when
/// staged, its gradient page. With `weights` the masters hold them as fp32,
/// the working weights hold them narrowed to `dtype`, and slot and gradient
/// pages are zero; without, every page is dataless (phantom). Each page is
/// filled in a pooled buffer that its program adopts. Returns the time the
/// last page persists. Epoch commit is the caller's.
pub fn load_state_image(
    device: &mut Device,
    layout: &StateLayout,
    weights: Option<&[f32]>,
    dtype: GradDtype,
    at: SimTime,
) -> Result<SimTime, CoreError> {
    if let Some(w) = weights {
        if w.len() as u64 != layout.params() {
            return Err(CoreError::WeightLength {
                got: w.len(),
                want: layout.params(),
            });
        }
    }
    let pb = layout.page_bytes();
    let mut image = layout.write_set();
    if layout.grad_staged() {
        image.push((StateComponent::Grad, 0));
    }
    let mut end = at;
    for g in 0..layout.num_groups() {
        let r = layout.group(g).param_range();
        let group = weights.map(|w| &w[r.start as usize..r.end as usize]);
        for &(comp, idx) in &image {
            let page = group.map(|w| image_page(comp, idx, w, dtype, pb));
            let lpn = layout.lpn(g, comp, idx);
            end = end.max(device.host_write_buf(lpn, page, at)?.end);
        }
    }
    Ok(end)
}

/// Page `(comp, idx)` of the initial image of a group whose weights are
/// `weights`: fp32 masters (`pb / 4` per page), the working weights
/// narrowed to `dtype`, or zero; zero past the group's last parameter.
fn image_page(
    comp: StateComponent,
    idx: u32,
    weights: &[f32],
    dtype: GradDtype,
    pb: usize,
) -> PageBuf {
    // Without zero-fill: every byte is written below, once.
    let mut page = PageBuf::scratch(pb);
    let filled = match comp {
        StateComponent::Master => {
            let first = (idx as usize * pb / 4).min(weights.len());
            let weights = &weights[first..(first + pb / 4).min(weights.len())];
            for (dst, w) in page.chunks_exact_mut(4).zip(weights) {
                dst.copy_from_slice(&w.to_le_bytes());
            }
            4 * weights.len()
        }
        StateComponent::Weight16 => {
            narrow_into(dtype, weights, &mut page);
            2 * weights.len()
        }
        StateComponent::Slot(_) | StateComponent::Grad => 0,
    };
    page[filled..].fill(0);
    page
}

/// Checks a step's gradients: a functional device needs one per parameter;
/// a phantom device ignores them.
pub fn check_grads(
    device: &Device,
    layout: &StateLayout,
    grads: Option<&[f32]>,
) -> Result<(), CoreError> {
    if !device.is_functional() {
        return Ok(());
    }
    match grads {
        Some(g) if g.len() as u64 == layout.params() => Ok(()),
        Some(g) => Err(CoreError::GradLength {
            got: g.len(),
            want: layout.params(),
        }),
        None => Err(CoreError::ModeMismatch("functional device needs gradients")),
    }
}

/// Packs group `g`'s slice of `grads` into one `dtype` gradient page.
pub fn encode_grad_page(layout: &StateLayout, g: u64, grads: &[f32], dtype: GradDtype) -> PageBuf {
    let r = layout.group(g).param_range();
    let mut page = PageBuf::zeroed(layout.page_bytes());
    encode_grads_into(&grads[r.start as usize..r.end as usize], dtype, &mut page);
    page
}

/// One update group's kernel operands, borrowed where they rest: the
/// state pages in their dies' page stores ([`ssdsim::Device::sensed_page`])
/// and the gradient page in the store or in the engine's buffer.
#[derive(Debug, Default)]
pub struct Operands<'a> {
    /// The two fp32 master pages.
    w32: [&'a [u8]; 2],
    /// The two pages of each auxiliary slot.
    slots: [[&'a [u8]; 2]; MAX_SLOTS],
    /// The 16-bit gradient page.
    grad: &'a [u8],
}

impl<'a> Operands<'a> {
    /// Records the bytes of operand page `(comp, idx)`.
    ///
    /// # Panics
    /// If `comp` is [`StateComponent::Weight16`], which is an output only,
    /// or names a page outside the layout.
    pub fn set(&mut self, comp: StateComponent, idx: u32, bytes: &'a [u8]) {
        let idx = idx as usize;
        match comp {
            StateComponent::Master => self.w32[idx] = bytes,
            StateComponent::Slot(s) => self.slots[s as usize][idx] = bytes,
            StateComponent::Grad => self.grad = bytes,
            StateComponent::Weight16 => panic!("{comp:?} pages are not kernel operands"),
        }
    }

    /// Runs one optimizer step of `opt` over the operands into fresh
    /// pooled pages of `pb` bytes, one for each page of
    /// `write_set` and returned in its order, for the programs to adopt.
    ///
    /// The kernel runs once per fp32 page: page `i` of the masters and
    /// slots pairs with half `i` of the gradient page and of the 16-bit
    /// weight page. A missing operand reaches the kernel empty and is
    /// rejected as a length mismatch.
    pub fn update(
        &self,
        opt: &dyn Optimizer,
        write_set: impl Iterator<Item = (StateComponent, u32)> + Clone,
        pb: usize,
        dtype: GradDtype,
        step: u64,
    ) -> Result<Vec<PageBuf>, KernelError> {
        // Without zero-fill: the kernel writes every byte.
        let mut out: Vec<PageBuf> = write_set.clone().map(|_| PageBuf::scratch(pb)).collect();
        let mut w32: [&mut [u8]; 2] = Default::default();
        let mut slots: [[&mut [u8]; 2]; MAX_SLOTS] = Default::default();
        let mut w16: &mut [u8] = &mut [];
        for ((comp, idx), page) in write_set.zip(out.iter_mut()) {
            let idx = idx as usize;
            match comp {
                StateComponent::Master => w32[idx] = page,
                StateComponent::Slot(s) => slots[s as usize][idx] = page,
                StateComponent::Weight16 => w16 = page,
                StateComponent::Grad => panic!("gradient pages are inputs, not write-backs"),
            }
        }
        let nslots = opt.state_slots().min(MAX_SLOTS);
        for (i, w_out) in w32.iter_mut().enumerate() {
            let half = i * pb / 2..(i + 1) * pb / 2;
            let src: [&[u8]; MAX_SLOTS] = self.slots.map(|pair| pair[i]);
            let mut dst: [&mut [u8]; MAX_SLOTS] = slots.each_mut().map(|pair| &mut *pair[i]);
            update_chunk_into(
                opt,
                self.w32[i],
                &src[..nslots],
                self.grad.get(half.clone()).unwrap_or_default(),
                w_out,
                &mut dst[..nslots],
                w16.get_mut(half).unwrap_or_default(),
                dtype,
                step,
            )?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optim_math::kernels::{encode_grads, StateBuffers};
    use optim_math::Adam;

    #[test]
    fn update_writes_fresh_pages_matching_state_buffers() {
        let pb = 64; // 16 params per fp32 page, 32 per group
        let n = pb / 2;
        let adam = Adam::default();
        let weights: Vec<f32> = (0..n).map(|i| (i as f32) * 0.1 - 0.7).collect();
        let grads_f: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.3).sin()).collect();
        let grads = encode_grads(&grads_f, GradDtype::F16);

        // Reference: the owned-buffer kernel state, updated in place.
        let init = StateBuffers::init(&adam, &weights, GradDtype::F16);
        let mut reference = init.clone();
        reference.step(&adam, &grads, GradDtype::F16, 1).unwrap();

        // The same state borrowed page by page, updated into pooled pages
        // that still hold another group's bytes.
        drop(
            (0..8)
                .map(|_| PageBuf::copy_of(&[0xA5; 64]))
                .collect::<Vec<_>>(),
        );
        let mut ops = Operands::default();
        for idx in 0..2u32 {
            let half = idx as usize * pb..(idx as usize + 1) * pb;
            ops.set(StateComponent::Master, idx, &init.w32[half.clone()]);
            for s in 0..2u8 {
                ops.set(
                    StateComponent::Slot(s),
                    idx,
                    &init.slots[s as usize][half.clone()],
                );
            }
        }
        ops.set(StateComponent::Grad, 0, &grads);
        let write_set = [
            (StateComponent::Weight16, 0),
            (StateComponent::Slot(1), 1),
            (StateComponent::Master, 0),
            (StateComponent::Slot(0), 0),
            (StateComponent::Master, 1),
            (StateComponent::Slot(1), 0),
            (StateComponent::Slot(0), 1),
        ];
        let out = ops
            .update(&adam, write_set.iter().copied(), pb, GradDtype::F16, 1)
            .unwrap();

        let want = |comp: StateComponent, idx: u32| -> &[u8] {
            let half = idx as usize * pb..(idx as usize + 1) * pb;
            match comp {
                StateComponent::Master => &reference.w32[half],
                StateComponent::Slot(s) => &reference.slots[s as usize][half],
                _ => &reference.w16,
            }
        };
        for (&(comp, idx), page) in write_set.iter().zip(&out) {
            assert_eq!(&page[..], want(comp, idx), "{comp:?} page {idx}");
        }
    }

    #[test]
    fn a_missing_gradient_is_a_length_mismatch() {
        let ops = Operands {
            w32: [&[0; 64]; 2],
            slots: [[&[0; 64]; 2]; MAX_SLOTS],
            grad: &[],
        };
        let write_set = [
            (StateComponent::Master, 0),
            (StateComponent::Master, 1),
            (StateComponent::Slot(0), 0),
            (StateComponent::Slot(0), 1),
            (StateComponent::Slot(1), 0),
            (StateComponent::Slot(1), 1),
            (StateComponent::Weight16, 0),
        ];
        let err = ops
            .update(
                &Adam::default(),
                write_set.into_iter(),
                64,
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
    #[should_panic(expected = "not kernel operands")]
    fn weight16_pages_are_not_operands() {
        Operands::default().set(StateComponent::Weight16, 0, &[]);
    }
}
