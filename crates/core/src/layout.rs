//! State placement on flash: the layout that makes die-local updates
//! possible.
//!
//! The unit of in-storage work is an **update group**: the parameters whose
//! 16-bit pages fill exactly one NAND page (`page_bytes / 2` parameters).
//! One group therefore owns
//!
//! * two fp32 master-weight pages,
//! * two fp32 pages per optimizer slot,
//! * one 16-bit working-weight page, and
//! * one 16-bit gradient page (staged to flash only when configured).
//!
//! Under [`LayoutPolicy::CoLocated`] a group's pages all live on one die —
//! the engine next to that die updates the group without any cross-die
//! traffic. Under [`LayoutPolicy::TensorStriped`] each state tensor is
//! striped independently, so a group's pages scatter across dies and a
//! die-level engine must fetch remote operands through the controller; the
//! layout ablation (reconstructed Figure 10) measures that penalty.
//!
//! LPN assignment exploits the device's round-robin striping
//! (`die(lpn) = lpn mod D`): choosing LPNs congruent to the target die
//! pins pages without any FTL extension.

use crate::config::LayoutPolicy;
use serde::{Deserialize, Serialize};
use ssdsim::Lpn;
use std::ops::Range;

/// One of a parameter's state tensors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StateComponent {
    /// fp32 master weight.
    Master,
    /// Optimizer auxiliary slot `k` (Adam: 0 = m, 1 = v).
    Slot(u8),
    /// 16-bit working weight.
    Weight16,
    /// 16-bit gradient (present in LPN space only when staged to flash).
    Grad,
}

/// One update group: the scheduling and compute unit of the in-storage
/// optimizer step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdateGroup {
    /// Group index (0-based, global).
    pub index: u64,
    /// Die (flat index) hosting — for co-located layouts, *all* of — the
    /// group's pages; for striped layouts, the die of the engine assigned
    /// to the group.
    pub die_flat: u32,
    /// First parameter covered.
    pub param_start: u64,
    /// Parameters covered (full groups cover `params_per_group`; the tail
    /// group may be shorter).
    pub param_count: u64,
}

impl UpdateGroup {
    /// The half-open parameter range covered.
    pub fn param_range(&self) -> Range<u64> {
        self.param_start..self.param_start + self.param_count
    }
}

/// Where a co-located group's record starts in LPN space. Page `offset`
/// of the record ([`StateLayout::page_offset`]) is LPN
/// `base + offset · D` for `D` dies, so a caller that visits many pages
/// of one group pays the row division once ([`StateLayout::group_base`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupBase {
    base: u64,
    dies: u64,
}

impl GroupBase {
    /// The LPN of the record's page at `offset`.
    #[inline]
    pub fn lpn(self, offset: u32) -> Lpn {
        Lpn(self.base + offset as u64 * self.dies)
    }
}

/// The state layout of one model on one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateLayout {
    policy: LayoutPolicy,
    params: u64,
    slots: u8,
    page_bytes: u32,
    dies: u32,
    grad_staged: bool,
    /// `params.div_ceil(params_per_group())`, fixed at construction: every
    /// LPN lookup bounds-checks its group against it.
    num_groups: u64,
}

impl StateLayout {
    /// Creates a layout.
    ///
    /// * `params` — model parameters.
    /// * `slots` — optimizer auxiliary slots (Adam: 2).
    /// * `page_bytes` — NAND page size.
    /// * `dies` — total dies on the device.
    /// * `grad_staged` — whether gradients get flash pages.
    ///
    /// # Panics
    /// Panics if `page_bytes` is not a multiple of 4 or `dies` is zero.
    pub fn new(
        policy: LayoutPolicy,
        params: u64,
        slots: u8,
        page_bytes: u32,
        dies: u32,
        grad_staged: bool,
    ) -> Self {
        assert!(
            page_bytes.is_multiple_of(4) && page_bytes > 0,
            "bad page size"
        );
        assert!(dies > 0, "need at least one die");
        StateLayout {
            policy,
            params,
            slots,
            page_bytes,
            dies,
            grad_staged,
            num_groups: params.div_ceil(page_bytes as u64 / 2),
        }
    }

    /// Parameters per (full) update group: 16-bit elements per page.
    pub fn params_per_group(&self) -> u64 {
        self.page_bytes as u64 / 2
    }

    /// Total update groups (last one may be partial).
    pub fn num_groups(&self) -> u64 {
        self.num_groups
    }

    /// Flash pages (LPNs) one group occupies.
    pub fn lpns_per_group(&self) -> u32 {
        // 2×w32 + 2×slots + 1×w16 (+1×grad).
        2 + 2 * self.slots as u32 + 1 + if self.grad_staged { 1 } else { 0 }
    }

    /// Total LPNs the layout needs on the device.
    pub fn required_pages(&self) -> u64 {
        match self.policy {
            LayoutPolicy::CoLocated => {
                // Per-die strided allocation rounds up to whole group rows.
                self.num_groups().div_ceil(self.dies as u64)
                    * self.lpns_per_group() as u64
                    * self.dies as u64
            }
            LayoutPolicy::TensorStriped => self.num_groups() * self.lpns_per_group() as u64,
        }
    }

    /// NAND page size in bytes.
    pub fn page_bytes(&self) -> usize {
        self.page_bytes as usize
    }

    /// Number of optimizer slots.
    pub fn slots(&self) -> u8 {
        self.slots
    }

    /// Whether gradients occupy flash pages.
    pub fn grad_staged(&self) -> bool {
        self.grad_staged
    }

    /// Total dies.
    pub fn dies(&self) -> u32 {
        self.dies
    }

    /// Layout policy.
    pub fn policy(&self) -> LayoutPolicy {
        self.policy
    }

    /// Total parameters.
    pub fn params(&self) -> u64 {
        self.params
    }

    /// Describes group `g`.
    ///
    /// # Panics
    /// Panics if `g >= num_groups()`.
    pub fn group(&self, g: u64) -> UpdateGroup {
        assert!(g < self.num_groups(), "group {g} out of range");
        let ppg = self.params_per_group();
        let start = g * ppg;
        UpdateGroup {
            index: g,
            die_flat: (g % self.dies as u64) as u32,
            param_start: start,
            param_count: ppg.min(self.params - start),
        }
    }

    /// The LPN holding page `idx` of `component` for group `g`.
    ///
    /// `idx` must be `< 2` for fp32 components and `0` for 16-bit ones.
    ///
    /// # Panics
    /// Panics on out-of-range `g`, `idx`, slot number, or a `Grad` request
    /// when gradients are not staged.
    pub fn lpn(&self, g: u64, component: StateComponent, idx: u32) -> Lpn {
        let base = self.group_base(g);
        let offset = self.page_offset(component, idx);
        match base {
            Some(base) => base.lpn(offset),
            None => {
                // Tensors are laid out sequentially: all w32 pages, then
                // each slot tensor, then w16, then grad.
                let groups = self.num_groups;
                let (base, within) = match component {
                    StateComponent::Master => (0, 2 * g + idx as u64),
                    StateComponent::Slot(s) => {
                        (2 * groups + 2 * groups * s as u64, 2 * g + idx as u64)
                    }
                    StateComponent::Weight16 => (2 * groups * (1 + self.slots as u64), g),
                    StateComponent::Grad => (2 * groups * (1 + self.slots as u64) + groups, g),
                };
                Lpn(base + within)
            }
        }
    }

    /// Where group `g`'s record starts under [`LayoutPolicy::CoLocated`]:
    /// its rows of `D` LPNs begin at `(g / D) · lpns_per_group · D`, and the
    /// group takes column `g mod D`. `None` under
    /// [`LayoutPolicy::TensorStriped`], whose pages follow per-tensor
    /// arithmetic ([`Self::lpn`]).
    ///
    /// # Panics
    /// Panics if `g >= num_groups()`.
    pub fn group_base(&self, g: u64) -> Option<GroupBase> {
        assert!(g < self.num_groups, "group {g} out of range");
        let d = self.dies as u64;
        (self.policy == LayoutPolicy::CoLocated).then(|| GroupBase {
            base: (g / d) * self.lpns_per_group() as u64 * d + g % d,
            dies: d,
        })
    }

    /// The die an LPN resides on under the device's round-robin striping.
    pub fn die_of_lpn(&self, lpn: Lpn) -> u32 {
        (lpn.0 % self.dies as u64) as u32
    }

    /// True if `component` page `idx` of group `g` is local to the group's
    /// engine die. Always true under [`LayoutPolicy::CoLocated`], whose
    /// LPNs are `row · D + g mod D`.
    pub fn is_local(&self, g: u64, component: StateComponent, idx: u32) -> bool {
        match self.policy {
            LayoutPolicy::CoLocated => true,
            LayoutPolicy::TensorStriped => {
                let group_die = (g % self.dies as u64) as u32;
                self.die_of_lpn(self.lpn(g, component, idx)) == group_die
            }
        }
    }

    /// Offset of page `idx` of `component` within a co-located group
    /// record: the group's page `offset` is LPN `base + offset · D` for
    /// `D` dies.
    ///
    /// # Panics
    /// Panics on an out-of-range `idx` or slot number, or a `Grad` request
    /// when gradients are not staged.
    pub fn page_offset(&self, component: StateComponent, idx: u32) -> u32 {
        match component {
            StateComponent::Master => {
                assert!(idx < 2, "fp32 component has 2 pages");
                idx
            }
            StateComponent::Slot(s) => {
                assert!(s < self.slots, "slot {s} out of range");
                assert!(idx < 2, "fp32 component has 2 pages");
                2 + 2 * s as u32 + idx
            }
            StateComponent::Weight16 => {
                assert!(idx == 0, "16-bit component has 1 page");
                2 + 2 * self.slots as u32
            }
            StateComponent::Grad => {
                assert!(self.grad_staged, "gradients are not staged to flash");
                assert!(idx == 0, "16-bit component has 1 page");
                3 + 2 * self.slots as u32
            }
        }
    }

    /// Every `(component, page-idx)` a group reads during an update.
    pub fn read_set(&self) -> Vec<(StateComponent, u32)> {
        let mut v = Vec::new();
        for i in 0..2 {
            v.push((StateComponent::Master, i));
        }
        for s in 0..self.slots {
            for i in 0..2 {
                v.push((StateComponent::Slot(s), i));
            }
        }
        if self.grad_staged {
            v.push((StateComponent::Grad, 0));
        }
        v
    }

    /// Every `(component, page-idx)` a group writes during an update.
    pub fn write_set(&self) -> Vec<(StateComponent, u32)> {
        let mut v = self.read_set();
        if self.grad_staged {
            v.pop(); // the gradient is consumed, not rewritten
        }
        v.push((StateComponent::Weight16, 0));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl StateLayout {
        /// The group covering parameter `p`.
        fn group_of_param(&self, p: u64) -> u64 {
            assert!(p < self.params, "param {p} out of range");
            p / self.params_per_group()
        }

        /// Groups hosted on die `die_flat`.
        fn groups_on_die(&self, die_flat: u32) -> u64 {
            let g = self.num_groups();
            let d = self.dies as u64;
            let f = die_flat as u64;
            if f >= d {
                return 0;
            }
            g / d + if g % d > f { 1 } else { 0 }
        }
    }

    fn co(params: u64, dies: u32) -> StateLayout {
        StateLayout::new(LayoutPolicy::CoLocated, params, 2, 4096, dies, false)
    }

    fn striped(params: u64, dies: u32) -> StateLayout {
        StateLayout::new(LayoutPolicy::TensorStriped, params, 2, 4096, dies, false)
    }

    #[test]
    fn group_arithmetic() {
        let l = co(10_000, 4);
        assert_eq!(l.params_per_group(), 2048);
        assert_eq!(l.num_groups(), 5);
        assert_eq!(l.lpns_per_group(), 7); // 2 + 4 + 1
        let last = l.group(4);
        assert_eq!(last.param_start, 8192);
        assert_eq!(last.param_count, 10_000 - 8192);
        assert_eq!(l.group(0).param_count, 2048);
        assert_eq!(l.group_of_param(0), 0);
        assert_eq!(l.group_of_param(9_999), 4);
    }

    #[test]
    fn groups_round_robin_across_dies() {
        let l = co(100_000, 4);
        for g in (0..l.num_groups()).map(|g| l.group(g)) {
            assert_eq!(g.die_flat as u64, g.index % 4);
        }
        let per_die: Vec<u64> = (0..4).map(|d| l.groups_on_die(d)).collect();
        assert_eq!(per_die.iter().sum::<u64>(), l.num_groups());
        assert!(per_die.iter().max().unwrap() - per_die.iter().min().unwrap() <= 1);
        assert_eq!(l.groups_on_die(99), 0);
    }

    #[test]
    fn colocated_groups_are_fully_local() {
        let staged = StateLayout::new(LayoutPolicy::CoLocated, 1_000_000, 2, 4096, 8, true);
        for l in [co(1_000_000, 8), staged] {
            for g in [0u64, 1, 7, 8, 63] {
                for (comp, idx) in l.read_set().into_iter().chain(l.write_set()) {
                    // `is_local` answers without the LPN; the LPN agrees.
                    assert!(l.is_local(g, comp, idx), "group {g} {comp:?}[{idx}]");
                    assert_eq!(l.die_of_lpn(l.lpn(g, comp, idx)), l.group(g).die_flat);
                }
            }
        }
    }

    #[test]
    fn group_base_plus_offset_is_the_row_formula() {
        let staged = StateLayout::new(LayoutPolicy::CoLocated, 300_000, 2, 4096, 6, true);
        for l in [co(300_000, 6), co(50_000, 1), staged] {
            let d = l.dies() as u64;
            let per_group = l.lpns_per_group() as u64;
            for g in 0..l.num_groups() {
                let base = l.group_base(g).expect("co-located");
                for (comp, idx) in l.read_set().into_iter().chain(l.write_set()) {
                    let offset = l.page_offset(comp, idx);
                    // LPN = (row · lpns_per_group + offset) · D + g mod D.
                    let row = (g / d) * per_group + offset as u64;
                    let want = Lpn(row * d + g % d);
                    assert_eq!(base.lpn(offset), want, "group {g} {comp:?}[{idx}]");
                    assert_eq!(l.lpn(g, comp, idx), want);
                }
            }
        }
        assert_eq!(striped(50_000, 4).group_base(0), None);
    }

    #[test]
    fn striped_groups_scatter() {
        let l = striped(1_000_000, 8);
        // At least one operand page of some group must be remote —
        // otherwise the ablation would be vacuous.
        let mut any_remote = false;
        for g in 0..l.num_groups().min(64) {
            for (comp, idx) in l.read_set() {
                if !l.is_local(g, comp, idx) {
                    any_remote = true;
                }
            }
        }
        assert!(any_remote);
    }

    #[test]
    fn lpns_never_collide() {
        for l in [co(50_000, 4), striped(50_000, 4)] {
            let mut seen = std::collections::HashSet::new();
            for g in 0..l.num_groups() {
                for (comp, idx) in l.write_set() {
                    let lpn = l.lpn(g, comp, idx);
                    assert!(seen.insert(lpn), "{l:?} duplicate {lpn} at group {g}");
                }
            }
        }
    }

    #[test]
    fn colocated_lpns_land_on_their_die() {
        let l = co(200_000, 6);
        for g in 0..l.num_groups() {
            let die = (g % 6) as u32;
            for (comp, idx) in l.write_set() {
                assert_eq!(l.die_of_lpn(l.lpn(g, comp, idx)), die);
            }
        }
    }

    #[test]
    fn required_pages_bounds_all_lpns() {
        for l in [co(30_000, 4), striped(30_000, 4)] {
            let max_lpn = (0..l.num_groups())
                .flat_map(|g| l.write_set().into_iter().map(move |(c, i)| (g, c, i)))
                .map(|(g, c, i)| l.lpn(g, c, i).0)
                .max()
                .unwrap();
            assert!(max_lpn < l.required_pages(), "{l:?}");
        }
    }

    #[test]
    fn grad_staging_adds_a_page() {
        let with = StateLayout::new(LayoutPolicy::CoLocated, 10_000, 2, 4096, 4, true);
        let without = co(10_000, 4);
        assert_eq!(with.lpns_per_group(), without.lpns_per_group() + 1);
        assert_eq!(with.read_set().len(), without.read_set().len() + 1);
        // Write sets are identical: the gradient is consumed.
        assert_eq!(with.write_set().len(), without.write_set().len());
        let _ = with.lpn(0, StateComponent::Grad, 0);
    }

    #[test]
    #[should_panic(expected = "not staged")]
    fn grad_lpn_without_staging_panics() {
        let _ = co(10_000, 4).lpn(0, StateComponent::Grad, 0);
    }

    #[test]
    fn read_write_sets_for_adam() {
        let l = co(10_000, 4);
        assert_eq!(l.read_set().len(), 6); // 2 w32 + 2 m + 2 v
        assert_eq!(l.write_set().len(), 7); // + w16
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_group_panics() {
        let _ = co(100, 2).group(999);
    }
}
