//! Background patrol scrub: a budgeted sweep that repairs latent losses
//! from RAIN parity and refreshes pages aging toward the ECC ceiling.
//!
//! Everything here exists only on a device built with
//! [`crate::SsdConfig::scrub`] (which requires RAIN).

use super::{Device, ProgramKind, ReadRoute};
use crate::address::Lpn;
use crate::error::SsdError;
use crate::trace::OpKind;
use simkit::SimTime;

/// Share of the ECC ceiling at which the patrol rewrites a still-readable
/// page: its aged RBER is close enough to the ceiling that a little more
/// read disturb or retention would make it a loss.
const REFRESH_FRACTION: f64 = 0.5;

/// Patrol state.
#[derive(Debug)]
pub(super) struct Scrub {
    /// Mapped pages patrol-read per tick.
    pub(super) pages_per_tick: u32,
    /// Next addressable LPN the sweep examines. RAM state: mount resets it.
    pub(super) cursor: u64,
}

/// What one [`Device::scrub_tick`] patrol pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Mapped pages patrol-read this tick.
    pub pages_read: u64,
    /// Pages found uncorrectable and repaired from stripe parity.
    pub repairs: u64,
    /// Pages proactively rewritten because aging pushed their RBER near the
    /// ECC ceiling.
    pub refreshes: u64,
    /// Pages whose loss could not be repaired (double losses); the device
    /// keeps sweeping but the data is gone.
    pub unrecovered: u64,
}

impl Device {
    /// One background-scrub patrol pass: sweeps up to
    /// [`crate::ScrubConfig::pages_per_tick`] *mapped* addressable pages
    /// (data and parity) from the persistent cursor, verifying each with
    /// the full retry-plus-reconstruction read path — so a latent single
    /// loss is repaired before a second one makes it uncorrectable — and
    /// proactively rewriting pages whose aged RBER has climbed to half the
    /// ECC ceiling (the rewrite lands on a fresh block, resetting both
    /// aging clocks). No-op unless [`crate::SsdConfig::scrub`] is set.
    /// Returns the sweep's end instant and what it did.
    pub fn scrub_tick(&mut self, at: SimTime) -> Result<(SimTime, ScrubReport), SsdError> {
        let Some(mut scrub) = self.scrub.take() else {
            return Ok((at, ScrubReport::default()));
        };
        let tick = self.patrol(&mut scrub, at);
        self.scrub = Some(scrub);
        tick
    }

    /// [`Self::scrub_tick`] with the patrol state lent out of the device:
    /// nothing the sweep calls reads it.
    fn patrol(
        &mut self,
        scrub: &mut Scrub,
        at: SimTime,
    ) -> Result<(SimTime, ScrubReport), SsdError> {
        self.check_alive()?;
        let total = self.config.addressable_pages();
        let budget = scrub.pages_per_tick as u64;
        let mut report = ScrubReport::default();

        let mut t = at;
        let mut examined = 0u64;
        while report.pages_read < budget && examined < total {
            let lpn = Lpn(scrub.cursor);
            scrub.cursor = (scrub.cursor + 1) % total;
            examined += 1;
            let Some(ppa) = self.ftl.lookup(lpn) else {
                continue;
            };
            report.pages_read += 1;
            self.stats.scrub_reads.incr();
            let repaired_before = self.stats.parity_reconstructions.get();
            let read = self.read_with_retry(lpn, ppa, t, ReadRoute::Array);
            let (win, served) = match read {
                Err(SsdError::UncorrectableRead { .. }) => {
                    // Double loss: the patrol keeps sweeping — later
                    // stripes may still be repairable.
                    report.unrecovered += 1;
                    continue;
                }
                other => self.observe(other)?,
            };
            self.trace_op(OpKind::ScrubRead, Some(lpn), ppa.die, win);
            t = win.end;
            let repaired = self.stats.parity_reconstructions.get() - repaired_before;
            if repaired > 0 {
                report.repairs += repaired;
                self.stats.scrub_repairs.add(repaired);
                continue;
            }
            // Healthy read: check whether aging has pushed this block close
            // enough to the ECC ceiling to warrant a proactive rewrite.
            let die = self.die(ppa.die);
            let rber = die.effective_rber(ppa.page.block_addr(), t)?;
            if rber >= REFRESH_FRACTION * die.rber_model().ecc_ceiling {
                // Copied before GC can move or erase the page just read.
                let page = self.copy_page(served)?;
                self.ensure_space(ppa.die, t)?;
                let (refresh, _) = {
                    let r = self.program_no_gc(
                        lpn,
                        ppa.die,
                        page,
                        t,
                        false,
                        None,
                        ProgramKind::Relocate(ppa),
                    );
                    self.observe(r)?
                };
                t = refresh.end;
                report.refreshes += 1;
                self.stats.scrub_refreshes.incr();
            }
        }
        Ok((t, report))
    }
}
