//! Crash consistency: the mapping journal, OOB stamping, shadow paging and
//! the optimizer-step epoch commit.
//!
//! Everything here exists only on a device built with
//! [`crate::SsdConfig::journal`]; a journal-free device takes the exact code
//! paths (and timing) it took before the subsystem existed.

use super::{invalidate, supersede, Device, ProgramKind};
use crate::address::{DieId, Lpn, Ppa};
use crate::channel::Channel;
use crate::error::SsdError;
use crate::ftl::Ftl;
use crate::trace::OpKind;
use nandsim::{BlockAddr, NandError, PageOob, PhysPage};
use simkit::pool::PageBuf;
use simkit::SimTime;

/// Flat index of the die holding the mapping-journal blocks. Real
/// controllers keep a root/journal area at a fixed, well-known location so
/// mount can find it without any RAM state; die 0 plays that role here.
pub(super) const JOURNAL_DIE_FLAT: u32 = 0;

/// Bytes one serialized journal entry occupies inside a journal page
/// (lpn + ppa + epoch + seqno with headroom). Sets how many mapping
/// updates fit per flushed page, i.e. the journal's write amplification.
const JOURNAL_ENTRY_BYTES: usize = 32;

/// One record in the mapping journal.
///
/// `Map` mirrors the OOB stamp a data-page program wrote; `Commit` marks an
/// optimizer-step epoch durable. The journal is an *optimization plus
/// commit ledger*: lost `Map` entries only enlarge the next mount's OOB
/// scan (physical OOB remains the ground truth), but a `Commit` entry is
/// authoritative — an epoch is committed exactly when its record reaches a
/// fully programmed journal page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum JournalEntry {
    /// A data-page program: `ppa` now holds `oob`.
    Map {
        /// Physical location programmed.
        ppa: Ppa,
        /// The OOB stamp written with it.
        oob: PageOob,
    },
    /// Every write of epochs ≤ `epoch` before this record is durable.
    Commit {
        /// The epoch made durable.
        epoch: u64,
    },
}

/// One durably flushed journal page: its location on the journal die and
/// the entries it carries. Lives in controller state as a stand-in for the
/// page's on-flash bytes (journal pages are programmed with real timing but
/// their payload is not byte-simulated).
#[derive(Debug, Clone)]
pub(super) struct JournalPage {
    /// Page location on the journal die.
    pub(super) location: PhysPage,
    /// Entries the page carries, in write order.
    pub(super) entries: Vec<JournalEntry>,
}

/// The journal's controller state. `flushed`, `blocks` and `active` model
/// on-flash content and survive a crash; the rest is RAM.
#[derive(Debug, Default)]
pub(super) struct Journal {
    /// Flush after this many front-door data programs.
    pub(super) flush_interval: u32,
    /// Optimizer-step epoch current writes are stamped with.
    pub(super) epoch: u64,
    /// Last epoch whose commit record reached flash.
    pub(super) committed_epoch: u64,
    /// Device-wide program sequence number (monotonic, RAM-held; rebuilt
    /// from OOB stamps at mount).
    pub(super) seq: u64,
    /// Deferred invalidations: superseded committed versions that must stay
    /// valid until the current epoch commits (shadow paging). Lost at a
    /// crash by design — mount re-derives everything from flash.
    pub(super) pending_stale: Vec<Ppa>,
    /// RAM journal buffer (lost at a crash).
    pub(super) ram: Vec<JournalEntry>,
    /// Durably flushed journal pages, in flush order.
    pub(super) flushed: Vec<JournalPage>,
    /// Blocks on the journal die carved out for the journal (the modelled
    /// root area records these; excluded from data allocation and GC).
    pub(super) blocks: Vec<BlockAddr>,
    /// Journal block currently being appended to.
    pub(super) active: Option<BlockAddr>,
    /// Front-door data programs since the last flush (auto-flush gate).
    pub(super) programs_since_flush: u32,
}

impl Journal {
    /// Drops the RAM state a sudden power loss destroys.
    pub(super) fn lose_ram(&mut self) {
        self.ram.clear();
        self.pending_stale.clear();
    }

    /// Crash-safe mapping commit for a completed data program: stamps the
    /// page's OOB, buffers the journal entry, and updates the mapping with
    /// shadow-paging semantics — the previous *committed* version of a
    /// logical page stays valid on flash until the current epoch commits,
    /// so a crash at any instant can roll back to it.
    pub(super) fn record_program(
        &mut self,
        ftl: &mut Ftl,
        channels: &mut [Channel],
        lpn: Lpn,
        ppa: Ppa,
        kind: ProgramKind,
    ) {
        let oob_of = |channels: &[Channel], s: Ppa| {
            channels[s.die.channel as usize]
                .die(s.die.index)
                .oob(s.page)
        };
        let oob = match kind {
            // Fresh write (and a parity rebuild, which must roll back with
            // the data it protects): new stamp at the current epoch.
            ProgramKind::Fresh | ProgramKind::Parity => {
                self.seq += 1;
                PageOob {
                    lpn: lpn.0,
                    epoch: self.epoch,
                    seqno: self.seq,
                }
            }
            // Relocation (GC / rescue): the copy inherits the source stamp
            // verbatim, so mount sees it as the same logical version.
            ProgramKind::Relocate(s) => oob_of(channels, s).unwrap_or(PageOob {
                lpn: lpn.0,
                epoch: 0,
                seqno: 0,
            }),
            // Parity reconstruction re-home: same logical *version* as the
            // lost source (its epoch, when the OOB is still readable; the
            // committed epoch otherwise) but a fresh seqno, so the
            // unreadable original deterministically loses mount's
            // newest-wins selection to the healthy copy.
            ProgramKind::Reconstruct(s) => {
                let epoch = oob_of(channels, s)
                    .map(|o| o.epoch)
                    .unwrap_or(self.committed_epoch);
                self.seq += 1;
                PageOob {
                    lpn: lpn.0,
                    epoch,
                    seqno: self.seq,
                }
            }
        };
        channels[ppa.die.channel as usize]
            .die_mut(ppa.die.index)
            .put_oob(ppa.page, oob);
        self.ram.push(JournalEntry::Map { ppa, oob });
        match kind {
            ProgramKind::Fresh | ProgramKind::Parity => {
                if let Some(stale) = ftl.commit_program(lpn, ppa) {
                    // Defer: the superseded page may be the last committed
                    // version and must survive until commit_epoch.
                    self.pending_stale.push(stale);
                }
            }
            ProgramKind::Relocate(s) | ProgramKind::Reconstruct(s) => {
                if ftl.lookup(lpn) == Some(s) {
                    // Live copy: move the mapping; the source holds the
                    // same version and can be freed now.
                    if let Some(stale) = ftl.commit_program(lpn, ppa) {
                        invalidate(channels, stale);
                    }
                } else {
                    // Shadow copy: the L2P points at a newer uncommitted
                    // version. Re-home the reverse mapping and any pending
                    // invalidation onto the copy; free the source.
                    ftl.record_shadow(lpn, ppa);
                    invalidate(channels, s);
                    for p in &mut self.pending_stale {
                        if *p == s {
                            *p = ppa;
                        }
                    }
                }
            }
        }
    }

    /// Counts one front-door data program; true when the auto-flush is due.
    pub(super) fn flush_due(&mut self) -> bool {
        self.programs_since_flush += 1;
        self.programs_since_flush >= self.flush_interval
    }
}

impl Device {
    /// Last epoch whose commit record is durable on flash.
    pub fn committed_epoch(&self) -> u64 {
        self.journal.as_ref().map_or(0, |j| j.committed_epoch)
    }

    /// Opens write epoch `epoch`: subsequent data programs are stamped with
    /// it and roll back at mount unless [`Self::commit_epoch`] makes it
    /// durable. No-op on a journal-free device.
    pub fn begin_epoch(&mut self, epoch: u64) {
        if let Some(journal) = &mut self.journal {
            journal.epoch = epoch;
        }
    }

    /// Commits the current epoch. With RAIN armed, first rebuilds the
    /// parity page of every stripe dirtied this epoch — *before* the commit
    /// record, so the journal's `Map` entries for parity land under the
    /// committing epoch and a crash rolls parity and data back together.
    /// Then (journal-enabled devices) appends a commit record, flushes the
    /// journal, and — only once the record is durable — applies the
    /// deferred invalidations of superseded committed pages. Returns the
    /// instant the commit became durable. No-op on a journal-free,
    /// RAIN-free device.
    pub fn commit_epoch(&mut self, at: SimTime) -> Result<SimTime, SsdError> {
        let mut t = at;
        if !self.parity_clean() {
            self.check_alive()?;
            t = {
                let r = self.rebuild_dirty_stripes(t);
                self.observe(r)?
            };
        }
        let Some(epoch) = self.journal.as_ref().map(|j| j.epoch) else {
            return Ok(t);
        };
        self.check_alive()?;
        let r = self.flush_journal(t, Some(epoch));
        self.observe(r)
    }

    /// The die holding the journal blocks.
    pub(super) fn journal_die(&self) -> DieId {
        DieId::from_flat(JOURNAL_DIE_FLAT, self.config.dies_per_channel)
    }

    /// True if the block with die-flat index `block_index` on flat die
    /// `die_flat` is a journal block (excluded from data allocation, GC
    /// victims, and static wear levelling).
    pub(super) fn is_journal_block(&self, die_flat: u32, block_index: u64) -> bool {
        let geo = &self.config.nand.geometry;
        die_flat == JOURNAL_DIE_FLAT
            && self
                .journal
                .as_ref()
                .is_some_and(|j| j.blocks.iter().any(|&b| geo.block_index(b) == block_index))
    }

    /// Flushes the RAM journal buffer: packs entries into journal pages
    /// ([`JOURNAL_ENTRY_BYTES`] each) and programs them on the journal die
    /// with real channel/plane timing. A program that reports bad status
    /// abandons the active journal block and retries on a fresh one —
    /// already-flushed pages in the abandoned block stay readable. With
    /// `commit`, the buffer first gains that epoch's commit record, and
    /// once it is durable the epoch counts as committed and the deferred
    /// invalidations apply. Returns the instant the last page became
    /// durable. No-op on a journal-free device.
    pub(super) fn flush_journal(
        &mut self,
        at: SimTime,
        commit: Option<u64>,
    ) -> Result<SimTime, SsdError> {
        let Some(journal) = &mut self.journal else {
            return Ok(at);
        };
        journal.programs_since_flush = 0;
        journal
            .ram
            .extend(commit.map(|epoch| JournalEntry::Commit { epoch }));
        let entries = std::mem::take(&mut journal.ram);
        let mut t = at;
        if !entries.is_empty() {
            let per_page = (self.page_bytes() / JOURNAL_ENTRY_BYTES).max(1);
            for chunk in entries.chunks(per_page) {
                let data = self.functional.then(|| PageBuf::zeroed(self.page_bytes()));
                t = self.program_journal_page(chunk, data, t)?;
            }
            self.stats.journal_flushes.incr();
        }
        if let (Some(epoch), Some(journal)) = (commit, &mut self.journal) {
            journal.committed_epoch = epoch;
            for ppa in journal.pending_stale.drain(..) {
                supersede(&mut self.channels, ppa);
            }
        }
        Ok(t)
    }

    /// Programs one journal page carrying `entries`, moving to a fresh
    /// journal block after a program failure. Returns when it is durable.
    fn program_journal_page(
        &mut self,
        entries: &[JournalEntry],
        mut data: Option<PageBuf>,
        at: SimTime,
    ) -> Result<SimTime, SsdError> {
        let die_id = self.journal_die();
        let mut t = at;
        loop {
            let page = self.next_journal_page(t)?;
            let channel = &mut self.channels[die_id.channel as usize];
            match channel.program_from_controller(die_id.index, page, &mut data, t) {
                Ok(win) => {
                    if let Some(journal) = &mut self.journal {
                        journal.flushed.push(JournalPage {
                            location: page,
                            entries: entries.to_vec(),
                        });
                    }
                    self.stats.journal_pages.incr();
                    self.trace_op(OpKind::JournalWrite, None, die_id, win);
                    return Ok(win.end);
                }
                Err(NandError::ProgramFailed { busy_until, .. }) => {
                    self.stats.program_failures.incr();
                    if let Some(journal) = &mut self.journal {
                        journal.active = None;
                    }
                    t = t.max(busy_until);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Next free page in the active journal block, carving a fresh block
    /// out of the journal die's free pool when the active one is full (or
    /// was abandoned after a program failure).
    fn next_journal_page(&mut self, at: SimTime) -> Result<PhysPage, SsdError> {
        let die_id = self.journal_die();
        if let Some(block) = self.journal.as_ref().and_then(|j| j.active) {
            if let Some(idx) = self.die(die_id).block(block)?.next_programmable() {
                return Ok(block.page(idx));
            }
        }
        if self.ftl.free_blocks(JOURNAL_DIE_FLAT) == 0 {
            self.ensure_space(die_id, at)?;
        }
        let block = {
            let channel = &self.channels[die_id.channel as usize];
            self.ftl
                .take_free_block(JOURNAL_DIE_FLAT, channel.die(die_id.index))
        }
        .ok_or(SsdError::OutOfSpace(die_id))?;
        if let Some(journal) = &mut self.journal {
            journal.blocks.push(block);
            journal.active = Some(block);
        }
        Ok(block.page(0))
    }
}
