//! RAIN: die-level XOR parity striping, the epoch-commit parity rebuild and
//! the degraded read that reconstructs a lost page from its stripe peers.
//!
//! Everything here exists only on a device built with
//! [`crate::SsdConfig::rain`]; without it a read that exhausts its retries
//! surfaces `UncorrectableRead` directly.

use super::{Device, ProgramKind, ReadRoute};
use crate::address::{DieId, Lpn, Ppa};
use crate::error::SsdError;
use simkit::pool::PageBuf;
use simkit::{SimTime, Window};
use std::collections::BTreeSet;
use std::ops::Range;

/// Parity state of a RAIN device.
#[derive(Debug)]
pub(super) struct Rain {
    /// Data pages per stripe: `total_dies - 1`, so a stripe and its parity
    /// page span every die once.
    pub(super) width: u64,
    /// Stripes whose parity page is out of date with respect to data
    /// programmed this epoch, rebuilt (and drained) by
    /// [`Device::commit_epoch`]. RAM state: a crash drops it and mount
    /// rolls every stripe back to its committed, parity-consistent state.
    /// `BTreeSet` so the rebuild order is deterministic.
    pub(super) dirty: BTreeSet<u64>,
}

impl Rain {
    /// The stripe a data *or parity* LPN belongs to.
    fn stripe_of(&self, lpn: Lpn, logical: u64) -> u64 {
        if lpn.0 < logical {
            lpn.0 / self.width
        } else {
            lpn.0 - logical
        }
    }

    /// The data-member LPNs of `stripe`.
    fn members(&self, stripe: u64, logical: u64) -> Range<u64> {
        let lo = stripe * self.width;
        lo..(lo + self.width).min(logical)
    }
}

impl Device {
    /// True when every stripe's parity matches its data (nothing written
    /// since the last [`Self::commit_epoch`]).
    pub fn parity_clean(&self) -> bool {
        self.rain.as_ref().is_none_or(|r| r.dirty.is_empty())
    }

    /// Deterministically destroys the physical page currently holding
    /// `lpn` (data or parity — anything under [`crate::SsdConfig::addressable_pages`]):
    /// every subsequent sense is ECC-uncorrectable until the block is
    /// erased. Test/experiment hook for provoking the degraded-read path
    /// at a chosen instant.
    pub fn inject_page_loss(&mut self, lpn: Lpn) -> Result<(), SsdError> {
        let capacity = self.config.addressable_pages();
        if lpn.0 >= capacity {
            return Err(SsdError::LpnOutOfRange { lpn, capacity });
        }
        let ppa = self.ftl.lookup(lpn).ok_or(SsdError::Unmapped(lpn))?;
        self.channels[ppa.die.channel as usize]
            .die_mut(ppa.die.index)
            .corrupt_page(ppa.page)?;
        Ok(())
    }

    /// Marks `lpn`'s stripe parity stale. Only *logical content changes*
    /// dirty a stripe (fresh programs); relocations move bytes
    /// without changing them, so parity stays valid across GC and rescue.
    /// Without RAIN this is one inlined branch.
    #[inline]
    pub(super) fn mark_stripe_dirty(&mut self, lpn: Lpn) {
        if self.rain.is_some() {
            self.mark_stripe_dirty_armed(lpn);
        }
    }

    #[inline(never)]
    fn mark_stripe_dirty_armed(&mut self, lpn: Lpn) {
        if let Some(rain) = &mut self.rain {
            if lpn.0 < self.logical_pages {
                rain.dirty.insert(lpn.0 / rain.width);
            }
        }
    }

    /// Internal LPN of stripe `stripe`'s parity page (beyond host space).
    fn parity_lpn(&self, stripe: u64) -> Lpn {
        Lpn(self.logical_pages + stripe)
    }

    /// Rebuilds the parity page of every stripe dirtied since the last
    /// commit, in stripe order. Runs inside [`Self::commit_epoch`].
    pub(super) fn rebuild_dirty_stripes(&mut self, at: SimTime) -> Result<SimTime, SsdError> {
        let Some(rain) = &mut self.rain else {
            return Ok(at);
        };
        let width = rain.width;
        let stripes = std::mem::take(&mut rain.dirty);
        let mut t = at;
        for stripe in stripes {
            t = self.rebuild_stripe(width, stripe, t)?;
        }
        Ok(t)
    }

    /// Reads stripe `stripe`'s mapped data members (in parallel — each die
    /// senses independently), XORs them in the controller, and programs the
    /// parity page out-of-place. A parity page not yet written lands on the
    /// die residue the stripe's data members do not occupy (members land on
    /// `lpn % total_dies`), rotating across stripes like classic RAIN.
    fn rebuild_stripe(
        &mut self,
        width: u64,
        stripe: u64,
        at: SimTime,
    ) -> Result<SimTime, SsdError> {
        let lo = stripe * width;
        let parity = self.parity_lpn(stripe);
        let mut acc = self.functional.then(|| PageBuf::zeroed(self.page_bytes()));
        let mut t = at;
        for m in lo..(lo + width).min(self.logical_pages) {
            let lpn = Lpn(m);
            let Some(ppa) = self.ftl.lookup(lpn) else {
                continue; // unmapped member: XOR identity
            };
            let (win, served) = self.read_with_retry(lpn, ppa, at, ReadRoute::Peer)?;
            t = t.max(win.end);
            self.xor_into(&mut acc, served)?;
        }
        let die = self.ftl.lookup(parity).map(|p| p.die).unwrap_or_else(|| {
            let flat = ((lo + width) % self.config.total_dies() as u64) as u32;
            DieId::from_flat(flat, self.config.dies_per_channel)
        });
        self.ensure_space(die, t)?;
        let (win, _) = self.program_no_gc(parity, die, acc, t, true, None, ProgramKind::Parity)?;
        Ok(win.end)
    }

    /// XORs the bytes of `ppa`, a page a peer read just served, into the
    /// functional accumulator straight from its die's page store (a
    /// phantom device has neither).
    fn xor_into(&self, acc: &mut Option<PageBuf>, ppa: Ppa) -> Result<(), SsdError> {
        if let Some(acc) = acc {
            let data = self.die(ppa.die).page_data(ppa.page)?;
            for (a, b) in acc.iter_mut().zip(data) {
                *a ^= b;
            }
        }
        Ok(())
    }

    /// Degraded read: serves `lpn` from its stripe peers after the retry
    /// policy gave up on the mapped page, then re-homes the reconstructed
    /// content on a fresh physical page, which keeps the reconstruction
    /// buffer itself, and remaps the FTL. Returns the read's window and
    /// the fresh page.
    ///
    /// Returns `Ok(None)` — the loss stays uncorrectable — when RAIN is
    /// off, the stripe's parity is stale (dirtied this epoch), the parity
    /// page was never built, or a *second* stripe member is unreadable
    /// (double loss). Parity pages themselves reconstruct from the data
    /// members by the same XOR.
    pub(super) fn try_reconstruct(
        &mut self,
        lpn: Lpn,
        failed: Ppa,
        at: SimTime,
    ) -> Result<Option<(Window, Ppa)>, SsdError> {
        let Some(rain) = &self.rain else {
            return Ok(None);
        };
        let stripe = rain.stripe_of(lpn, self.logical_pages);
        if rain.dirty.contains(&stripe) {
            return Ok(None); // parity out of date mid-epoch: cannot trust it
        }
        let members = rain.members(stripe, self.logical_pages);
        let parity = self.parity_lpn(stripe);
        let mut acc = self.functional.then(|| PageBuf::zeroed(self.page_bytes()));
        let mut t = at;
        for peer in members.chain(std::iter::once(parity.0)).map(Lpn) {
            if peer == lpn {
                continue;
            }
            let Some(peer_ppa) = self.ftl.lookup(peer) else {
                if peer == parity {
                    return Ok(None); // stripe never earned a parity page
                }
                continue; // unmapped member: XOR identity
            };
            match self.read_with_retry(peer, peer_ppa, at, ReadRoute::Peer) {
                Ok((win, served)) => {
                    t = t.max(win.end);
                    self.xor_into(&mut acc, served)?;
                }
                Err(SsdError::UncorrectableRead { .. }) => return Ok(None),
                Err(e) => return Err(e),
            }
        }
        self.ensure_space(failed.die, t)?;
        let (win, fresh) = self.program_no_gc(
            lpn,
            failed.die,
            acc,
            t,
            true,
            None,
            ProgramKind::Reconstruct(failed),
        )?;
        self.stats.parity_reconstructions.incr();
        Ok(Some((
            Window {
                start: at,
                end: win.end,
            },
            fresh,
        )))
    }
}
