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
//! * [`UpdatePages`] is the per-group kernel working set: the group's
//!   master/slot page pairs joined into contiguous buffers for
//!   [`optim_math::kernels::update_chunk`]. Each operand page is read
//!   straight into its half, and each half is written back to its own
//!   page. It is built on [`simkit::pool::PageBuf`], so the steady-state
//!   step path checks buffers out of the pool instead of allocating, and
//!   neither the reads nor the write-back copy through a staging buffer.
//!
//! The step accounting — one [`crate::report::CounterSnapshot`] per step
//! edge and [`crate::StepReport::from_counters`] — lives beside the report.

use crate::config::LayoutPolicy;
use crate::exec::CoreError;
use crate::layout::{StateComponent, StateLayout};
use optim_math::kernels::{encode_grads_into, narrow_into, update_chunk, KernelError};
use optim_math::state::{GradDtype, StateLayoutSpec};
use optim_math::Optimizer;
use simkit::pool::PageBuf;
use simkit::SimTime;
use ssdsim::Device;
use std::ops::Range;

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
/// pages are zero; without, every page is dataless (phantom). Returns the
/// time the last page persists. Epoch commit is the caller's.
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
    let mut w32 = vec![0u8; 2 * pb];
    let mut w16 = vec![0u8; pb];
    let zero = vec![0u8; pb];
    let mut end = at;
    for g in 0..layout.num_groups() {
        if let Some(weights) = weights {
            let r = layout.group(g).param_range();
            w32.fill(0);
            w16.fill(0);
            let weights = &weights[r.start as usize..r.end as usize];
            for (dst, w) in w32.chunks_exact_mut(4).zip(weights) {
                dst.copy_from_slice(&w.to_le_bytes());
            }
            narrow_into(dtype, weights, &mut w16);
        }
        for &(comp, idx) in &image {
            let data: Option<&[u8]> = weights.map(|_| match comp {
                StateComponent::Master => &w32[idx as usize * pb..(idx as usize + 1) * pb],
                StateComponent::Weight16 => &w16[..],
                StateComponent::Slot(_) | StateComponent::Grad => &zero[..],
            });
            let lpn = layout.lpn(g, comp, idx);
            end = end.max(device.host_write_page(lpn, data, at)?.end);
        }
    }
    Ok(end)
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

/// The kernel working set for one update group: joined fp32 master pages,
/// joined per-slot pages, and the 16-bit working-weight output page — all
/// pool-recycled.
#[derive(Debug)]
pub struct UpdatePages {
    /// Joined master-weight pages (`2 * page_bytes`, fp32).
    w32: PageBuf,
    /// One joined buffer per auxiliary slot (`2 * page_bytes` each).
    slots: Vec<PageBuf>,
    /// 16-bit working-weight output page (`page_bytes`).
    w16: PageBuf,
    /// Device page size the buffers are sliced by.
    pb: usize,
}

impl UpdatePages {
    /// Checks one group's kernel buffers out of the pool, without zero-fill:
    /// the operand reads ([`Self::operand_mut`]) overwrite every input byte
    /// and the kernel every output byte.
    pub fn checkout(pb: usize, nslots: u8) -> Self {
        UpdatePages {
            w32: PageBuf::scratch(2 * pb),
            slots: (0..nslots).map(|_| PageBuf::scratch(2 * pb)).collect(),
            w16: PageBuf::scratch(pb),
            pb,
        }
    }

    /// Where fp32 page `idx` sits in its component's joined buffer.
    fn span(&self, idx: u32) -> Range<usize> {
        assert!(idx < 2, "fp32 components have two pages, got index {idx}");
        let at = idx as usize * self.pb;
        at..at + self.pb
    }

    /// The buffer half that operand page `(comp, idx)` is read into.
    pub fn operand_mut(&mut self, comp: StateComponent, idx: u32) -> &mut [u8] {
        let span = self.span(idx);
        match comp {
            StateComponent::Master => &mut self.w32[span],
            StateComponent::Slot(s) => &mut self.slots[s as usize][span],
            StateComponent::Weight16 | StateComponent::Grad => {
                panic!("{comp:?} pages are not kernel state operands")
            }
        }
    }

    /// Runs one optimizer step over the operand buffers in place.
    pub fn apply(
        &mut self,
        opt: &dyn Optimizer,
        grads: &[u8],
        dtype: GradDtype,
        step: u64,
    ) -> Result<usize, KernelError> {
        let mut slot_refs: Vec<&mut [u8]> = self.slots.iter_mut().map(|b| &mut b[..]).collect();
        update_chunk(
            opt,
            &mut self.w32,
            &mut slot_refs,
            grads,
            &mut self.w16,
            dtype,
            step,
        )
    }

    /// The updated bytes for one write-back page, sliced from the joined
    /// buffers (no copy). `idx` selects the fp32 page half; `Weight16` has
    /// a single page.
    pub fn page(&self, comp: StateComponent, idx: u32) -> &[u8] {
        match comp {
            StateComponent::Master => &self.w32[self.span(idx)],
            StateComponent::Slot(s) => &self.slots[s as usize][self.span(idx)],
            StateComponent::Weight16 => &self.w16,
            StateComponent::Grad => panic!("gradient pages are inputs, not write-backs"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optim_math::kernels::{encode_grads, StateBuffers};
    use optim_math::Adam;

    #[test]
    fn checkout_apply_page_round_trip_matches_state_buffers() {
        let pb = 64; // 16 params per page half, 32 per group
        let n = pb / 2;
        let adam = Adam::default();
        let weights: Vec<f32> = (0..n).map(|i| (i as f32) * 0.1 - 0.7).collect();
        let grads_f: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.3).sin()).collect();
        let grads = encode_grads(&grads_f, GradDtype::F16);

        // Reference: the owned-buffer kernel state.
        let mut reference = StateBuffers::init(&adam, &weights, GradDtype::F16);
        reference.step(&adam, &grads, GradDtype::F16, 1).unwrap();

        // Pooled path: the same state read page by page into the halves of
        // a checkout whose buffers still hold another group's bytes.
        let mut stale = UpdatePages::checkout(pb, 2);
        stale.operand_mut(StateComponent::Master, 0).fill(0xA5);
        stale.w16.fill(0xA5);
        drop(stale);
        let init = StateBuffers::init(&adam, &weights, GradDtype::F16);
        let mut up = UpdatePages::checkout(pb, 2);
        for idx in 0..2u32 {
            let half = idx as usize * pb..(idx as usize + 1) * pb;
            up.operand_mut(StateComponent::Master, idx)
                .copy_from_slice(&init.w32[half.clone()]);
            for s in 0..2u8 {
                up.operand_mut(StateComponent::Slot(s), idx)
                    .copy_from_slice(&init.slots[s as usize][half.clone()]);
            }
        }
        up.apply(&adam, &grads, GradDtype::F16, 1).unwrap();

        assert_eq!(up.page(StateComponent::Master, 0), &reference.w32[..pb]);
        assert_eq!(up.page(StateComponent::Master, 1), &reference.w32[pb..]);
        assert_eq!(
            up.page(StateComponent::Slot(0), 0),
            &reference.slots[0][..pb]
        );
        assert_eq!(
            up.page(StateComponent::Slot(1), 1),
            &reference.slots[1][pb..]
        );
        assert_eq!(up.page(StateComponent::Weight16, 0), &reference.w16[..]);
    }

    #[test]
    #[should_panic(expected = "not kernel state operands")]
    fn gradient_pages_are_not_state_operands() {
        UpdatePages::checkout(64, 1).operand_mut(StateComponent::Grad, 0);
    }
}
