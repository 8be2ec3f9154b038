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
//! * [`encode_grad_page`] packs one group's gradient page, and
//!   [`staged_grad`] finds a staged one among the operands read;
//! * [`UpdatePages`] is the per-group kernel working set: the group's
//!   master/slot page pairs joined into contiguous buffers for
//!   [`optim_math::kernels::update_chunk`], each half written back to its
//!   own page. It is built on [`simkit::pool::PageBuf`], so the
//!   steady-state step path checks buffers out of the pool instead of
//!   allocating, and write-back slices the joined buffers in place.
//!
//! The step accounting — one [`crate::report::CounterSnapshot`] per step
//! edge and [`crate::StepReport::from_counters`] — lives beside the report.

use crate::config::LayoutPolicy;
use crate::exec::CoreError;
use crate::layout::{StateComponent, StateLayout};
use bytes::Bytes;
use optim_math::kernels::{encode_grads_into, update_chunk, KernelError};
use optim_math::state::{GradDtype, StateLayoutSpec};
use optim_math::{Optimizer, F16};
use simkit::pool::PageBuf;
use simkit::SimTime;
use ssdsim::Device;

/// One operand page as the read phase returns it: component, page index
/// and the bytes read (`None` on phantom devices).
pub type OperandPage = (StateComponent, u32, Option<Bytes>);

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
/// the working weights hold them narrowed to fp16, and slot and gradient
/// pages are zero; without, every page is dataless (phantom). Returns the
/// time the last page persists. Epoch commit is the caller's.
pub fn load_state_image(
    device: &mut Device,
    layout: &StateLayout,
    weights: Option<&[f32]>,
    at: SimTime,
) -> Result<SimTime, CoreError> {
    if let Some(w) = weights {
        if w.len() as u64 != layout.params() {
            return Err(CoreError::GradLength {
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
            for (i, &w) in weights[r.start as usize..r.end as usize].iter().enumerate() {
                w32[4 * i..4 * i + 4].copy_from_slice(&w.to_le_bytes());
                w16[2 * i..2 * i + 2].copy_from_slice(&F16::from_f32(w).to_le_bytes());
            }
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

/// The bytes of operand page `(component, idx)` among group `group`'s read
/// pages, or [`CoreError::MissingData`] if the page was not read or carries
/// no data.
fn operand(
    read_pages: &[OperandPage],
    group: u64,
    component: StateComponent,
    idx: u32,
) -> Result<&[u8], CoreError> {
    read_pages
        .iter()
        .find(|(c, i, _)| *c == component && *i == idx)
        .and_then(|(_, _, d)| d.as_deref())
        .ok_or(CoreError::MissingData {
            group,
            component,
            idx,
        })
}

/// The staged gradient page among group `group`'s operands; the kernel
/// reads it straight from the read buffer, with no staging copy.
pub fn staged_grad(read_pages: &[OperandPage], group: u64) -> Result<&[u8], CoreError> {
    operand(read_pages, group, StateComponent::Grad, 0)
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
    /// Gathers group `group`'s operand pages (as returned by the read
    /// phase) into pooled kernel buffers. `read_pages` must contain data
    /// for `(Master, 0..2)` and `(Slot(s), 0..2)` for every `s < nslots`;
    /// a missing one is [`CoreError::MissingData`].
    pub fn gather(
        pb: usize,
        nslots: u8,
        group: u64,
        read_pages: &[OperandPage],
    ) -> Result<Self, CoreError> {
        let find = |comp: StateComponent, idx: u32| operand(read_pages, group, comp, idx);
        let mut w32 = PageBuf::zeroed(2 * pb);
        w32[..pb].copy_from_slice(find(StateComponent::Master, 0)?);
        w32[pb..].copy_from_slice(find(StateComponent::Master, 1)?);
        let slots = (0..nslots)
            .map(|s| {
                let mut buf = PageBuf::zeroed(2 * pb);
                buf[..pb].copy_from_slice(find(StateComponent::Slot(s), 0)?);
                buf[pb..].copy_from_slice(find(StateComponent::Slot(s), 1)?);
                Ok(buf)
            })
            .collect::<Result<_, CoreError>>()?;
        Ok(UpdatePages {
            w32,
            slots,
            w16: PageBuf::zeroed(pb),
            pb,
        })
    }

    /// Runs one optimizer step over the gathered buffers in place.
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
        let pb = self.pb;
        fn half(buf: &[u8], pb: usize, idx: u32) -> &[u8] {
            match idx {
                0 => &buf[..pb],
                1 => &buf[pb..],
                _ => panic!("fp32 components have two pages, got index {idx}"),
            }
        }
        match comp {
            StateComponent::Master => half(&self.w32, pb, idx),
            StateComponent::Slot(s) => half(&self.slots[s as usize], pb, idx),
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

    fn bytes_of(v: Vec<u8>) -> Bytes {
        Bytes::from(v)
    }

    #[test]
    fn gather_without_data_is_a_typed_error() {
        // Phantom read pages carry no bytes: the kernel path reports which
        // page it was missing instead of panicking.
        let read_pages = vec![
            (StateComponent::Master, 0, Some(bytes_of(vec![0; 64]))),
            (StateComponent::Master, 1, None),
        ];
        let err = UpdatePages::gather(64, 0, 7, &read_pages).unwrap_err();
        assert!(matches!(
            err,
            CoreError::MissingData {
                group: 7,
                component: StateComponent::Master,
                idx: 1
            }
        ));
        assert!(err.to_string().contains("group 7 Master[1]"));
        assert!(matches!(
            staged_grad(&read_pages, 3),
            Err(CoreError::MissingData {
                group: 3,
                component: StateComponent::Grad,
                idx: 0
            })
        ));
    }

    #[test]
    fn gather_apply_page_round_trip_matches_state_buffers() {
        let pb = 64; // 16 params per page half, 32 per group
        let n = pb / 2;
        let adam = Adam::default();
        let weights: Vec<f32> = (0..n).map(|i| (i as f32) * 0.1 - 0.7).collect();
        let grads_f: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.3).sin()).collect();
        let grads = encode_grads(&grads_f, GradDtype::F16);

        // Reference: the owned-buffer kernel state.
        let mut reference = StateBuffers::init(&adam, &weights, GradDtype::F16);
        reference.step(&adam, &grads, GradDtype::F16, 1).unwrap();

        // Pooled path: the same state presented as read pages.
        let init = StateBuffers::init(&adam, &weights, GradDtype::F16);
        let read_pages = vec![
            (
                StateComponent::Master,
                0,
                Some(bytes_of(init.w32[..pb].to_vec())),
            ),
            (
                StateComponent::Master,
                1,
                Some(bytes_of(init.w32[pb..].to_vec())),
            ),
            (
                StateComponent::Slot(0),
                0,
                Some(bytes_of(init.slots[0][..pb].to_vec())),
            ),
            (
                StateComponent::Slot(0),
                1,
                Some(bytes_of(init.slots[0][pb..].to_vec())),
            ),
            (
                StateComponent::Slot(1),
                0,
                Some(bytes_of(init.slots[1][..pb].to_vec())),
            ),
            (
                StateComponent::Slot(1),
                1,
                Some(bytes_of(init.slots[1][pb..].to_vec())),
            ),
        ];
        let mut up = UpdatePages::gather(pb, 2, 0, &read_pages).unwrap();
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
}
