//! The SSD device: host interface, controller resources, FTL orchestration,
//! garbage collection, and the internal operations used by in-storage
//! processing.

use crate::address::{DieId, Lpn, Ppa};
use crate::channel::Channel;
use crate::config::SsdConfig;
use crate::error::SsdError;
use crate::ftl::{DieAlloc, Ftl};
use crate::stats::DeviceStats;
use crate::trace::{OpKind, TraceEvent, TraceLog};
use bytes::Bytes;
use nandsim::{BlockAddr, Die, FaultStats, NandError, OnfiBus, PageOob, PhysPage, PowerLossConfig};
use simkit::{BandwidthLink, SimTime, Window};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Flat index of the die holding the mapping-journal blocks. Real
/// controllers keep a root/journal area at a fixed, well-known location so
/// mount can find it without any RAM state; die 0 plays that role here.
const JOURNAL_DIE_FLAT: u32 = 0;

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
enum JournalEntry {
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
struct JournalPage {
    /// Page location on the journal die.
    location: PhysPage,
    /// Entries the page carries, in write order.
    entries: Vec<JournalEntry>,
}

/// What a [`Device::mount`] found and rebuilt after a power cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MountReport {
    /// Last epoch with a durable commit record (0 when none was found:
    /// the initial load is implicitly committed).
    pub committed_epoch: u64,
    /// Journal pages read back during replay.
    pub journal_pages_replayed: u64,
    /// Pages whose OOB had to be sensed because the journal did not cover
    /// them — the scan cost the flush interval trades against.
    pub pages_scanned: u64,
    /// Logical pages whose mapping was recovered (the winners).
    pub pages_recovered: u64,
    /// Physical pages discarded as older versions of a recovered page.
    pub stale_discarded: u64,
    /// Physical pages discarded because their epoch was never committed
    /// (rolled back to the last committed state).
    pub uncommitted_discarded: u64,
    /// Torn pages (in-flight programs at the crash instant) discarded.
    pub torn_discarded: u64,
    /// Simulated wall-clock window the mount occupied.
    pub window: Window,
}

/// A complete simulated SSD.
///
/// All host-visible operations are page-granular: the host reads and writes
/// [`Lpn`]s of `config.nand.geometry.page_bytes` bytes. Timing follows the
/// physical path (PCIe ⇄ controller DRAM ⇄ ONFI channel ⇄ die array) with
/// every shared resource modelled as a busy-until server, so issuing many
/// operations at the same instant yields exactly the pipelining a real
/// controller achieves.
#[derive(Debug)]
pub struct Device {
    config: SsdConfig,
    channels: Vec<Channel>,
    ftl: Ftl,
    pcie_in: BandwidthLink,
    pcie_out: BandwidthLink,
    dram: BandwidthLink,
    stats: DeviceStats,
    functional: bool,
    /// Host-visible capacity in pages, `config.logical_pages()` cached: every
    /// operation's range check reads it.
    logical_pages: u64,
    /// Optional operation trace (off by default; see [`crate::trace`]).
    trace: Option<TraceLog>,
    /// Per-die erase counters (cheap cadence gate for static WL).
    per_die_erases: Vec<u64>,
    /// Per-die erase count at the last static-WL scan.
    wl_marks: Vec<u64>,
    /// Crash-consistency state. All of it is inert unless
    /// [`SsdConfig::journal`] is set — a journal-free device takes the
    /// exact code paths (and timing) it took before the subsystem existed.
    /// Optimizer-step epoch current writes are stamped with.
    epoch: u64,
    /// Last epoch whose commit record reached flash.
    committed_epoch: u64,
    /// Device-wide program sequence number (monotonic, RAM-held; rebuilt
    /// from OOB stamps at mount).
    seq: u64,
    /// Deferred invalidations: superseded committed versions that must stay
    /// valid until the current epoch commits (shadow paging). Lost at a
    /// crash by design — mount re-derives everything from flash.
    pending_stale: Vec<Ppa>,
    /// RAM journal buffer (lost at a crash).
    journal_ram: Vec<JournalEntry>,
    /// Durably flushed journal pages, in flush order (models on-flash
    /// journal content; survives a crash).
    journal_flushed: Vec<JournalPage>,
    /// Blocks on the journal die carved out for the journal (the modelled
    /// root area records these; excluded from data allocation and GC).
    journal_blocks: Vec<BlockAddr>,
    /// Journal block currently being appended to.
    journal_active: Option<BlockAddr>,
    /// Data-page programs since the last journal flush (auto-flush gate).
    data_programs_since_flush: u32,
    /// Set when a power loss surfaced: the device refuses all work until
    /// the next `mount`.
    dead: Option<SimTime>,
    /// RAIN stripes whose parity page is out of date with respect to data
    /// programmed this epoch. Rebuilt (and drained) by [`Device::commit_epoch`];
    /// inert (always empty) unless [`SsdConfig::rain`] is set. `BTreeSet` so
    /// the rebuild order is deterministic.
    dirty_stripes: BTreeSet<u64>,
    /// Patrol-scrub sweep position: next addressable LPN the scrubber will
    /// examine. Reset at mount (RAM state).
    scrub_cursor: u64,
}

/// How a physical program relates to logical state — decides the OOB stamp,
/// journal record, trace glyph, and stale-page handling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProgramKind {
    /// New logical content from the host/core: fresh epoch + seqno stamp,
    /// shadow-paged invalidation of the committed predecessor.
    Fresh,
    /// A RAIN parity page rebuild: commit semantics of `Fresh` (parity must
    /// roll back with the data it protects) but traced/counted as parity.
    Parity,
    /// Relocation of unchanged content (GC, rescue, refresh): inherits the
    /// source page's OOB stamp verbatim so mount still resolves versions.
    Relocate(Ppa),
    /// Re-home of a page reconstructed from stripe peers: content equals the
    /// lost source's, but stamped with a *fresh* seqno (and the source's
    /// epoch when readable) so the unreadable original deterministically
    /// loses mount's winner selection.
    Reconstruct(Ppa),
}

/// Which physical path a retried read takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadRoute {
    /// Die-internal array sense only (data stays on-die).
    Array,
    /// Array sense plus ONFI transfer to the controller.
    Channel,
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
    /// Pages the parallel integrity pre-scan flagged *before* the timed
    /// patrol ran: deterministically unreadable (torn/corrupted) or already
    /// past the refresh threshold at sweep start. Reporting only — the
    /// timed patrol is byte- and timing-identical with or without it.
    pub suspect: u64,
}

impl Device {
    /// Creates a phantom-mode device (timing and state only, no page data).
    pub fn new(config: SsdConfig) -> Self {
        Self::build(config, false)
    }

    /// Creates a functional device that stores every page's bytes.
    pub fn new_functional(config: SsdConfig) -> Self {
        Self::build(config, true)
    }

    fn build(config: SsdConfig, functional: bool) -> Self {
        config.validate().expect("invalid SsdConfig");
        let channels: Vec<Channel> = (0..config.channels)
            .map(|ch| {
                let dies: Vec<Die> = (0..config.dies_per_channel)
                    .map(|i| {
                        let id = ch * config.dies_per_channel + i;
                        let mut die = if functional {
                            Die::new_functional(id, config.nand)
                        } else {
                            Die::new(id, config.nand)
                        };
                        if let Some(fault) = config.fault {
                            die.set_fault_config(fault);
                        }
                        if let Some(aging) = config.aging {
                            die.set_aging(aging);
                        }
                        die
                    })
                    .collect();
                let bus = OnfiBus::new(format!("ch{ch}"), &config.nand.timing);
                Channel::new(ch, bus, dies)
            })
            .collect();
        let ftl = Ftl::new(&config, channels.iter().flat_map(Channel::dies));
        let pcie = config.pcie.bytes_per_sec();
        Device {
            channels,
            ftl,
            pcie_in: BandwidthLink::new("pcie-in", pcie),
            pcie_out: BandwidthLink::new("pcie-out", pcie),
            dram: BandwidthLink::new("ctrl-dram", config.dram_bytes_per_sec),
            stats: DeviceStats::default(),
            functional,
            logical_pages: config.logical_pages(),
            trace: None,
            per_die_erases: vec![0; config.total_dies() as usize],
            wl_marks: vec![0; config.total_dies() as usize],
            epoch: 0,
            committed_epoch: 0,
            seq: 0,
            pending_stale: Vec::new(),
            journal_ram: Vec::new(),
            journal_flushed: Vec::new(),
            journal_blocks: Vec::new(),
            journal_active: None,
            data_programs_since_flush: 0,
            dead: None,
            dirty_stripes: BTreeSet::new(),
            scrub_cursor: 0,
            config,
        }
    }

    /// Static configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Aggregated injected-fault counters across every die (all zero when
    /// fault injection is disarmed).
    pub fn fault_stats(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for ch in &self.channels {
            for d in ch.dies() {
                if let Some(s) = d.fault_stats() {
                    total.program_failures += s.program_failures;
                    total.erase_failures += s.erase_failures;
                    total.read_uncorrectable += s.read_uncorrectable;
                }
            }
        }
        total
    }

    /// Blocks out of service across every die: recovery-policy retirements
    /// after media faults plus wear-out retirements at rated P/E cycles.
    pub fn retired_blocks(&self) -> u64 {
        self.channels
            .iter()
            .flat_map(|c| c.dies())
            .map(Die::retired_blocks)
            .sum()
    }

    /// True if page contents are stored.
    pub fn is_functional(&self) -> bool {
        self.functional
    }

    /// Arms a sudden power-off: every die refuses (or tears) operations
    /// from the configured instant onwards. The first operation that runs
    /// into it surfaces [`SsdError::PowerLoss`] and kills the device until
    /// [`Self::mount`]. Arming again replaces the previous instant (a
    /// double-crash test re-arms before mounting).
    pub fn arm_power_loss(&mut self, cfg: PowerLossConfig) {
        let t = cfg.crash_time();
        for ch in &mut self.channels {
            for i in 0..self.config.dies_per_channel {
                ch.die_mut(i).set_power_loss(Some(t));
            }
        }
    }

    /// The armed crash instant, if any (shared by every die).
    pub fn armed_power_loss(&self) -> Option<SimTime> {
        self.channels[0].die(0).power_loss()
    }

    /// The instant the power failed, once a loss has surfaced. A dead
    /// device fails every operation until [`Self::mount`].
    pub fn power_failed_at(&self) -> Option<SimTime> {
        self.dead
    }

    /// Optimizer-step epoch current writes are stamped with.
    pub fn current_epoch(&self) -> u64 {
        self.epoch
    }

    /// Last epoch whose commit record is durable on flash.
    pub fn committed_epoch(&self) -> u64 {
        self.committed_epoch
    }

    /// Opens write epoch `epoch`: subsequent data programs are stamped with
    /// it and roll back at mount unless [`Self::commit_epoch`] makes it
    /// durable. No-op on a journal-free device.
    pub fn begin_epoch(&mut self, epoch: u64) {
        if self.config.journal.is_some() {
            self.epoch = epoch;
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
        if self.config.rain.is_some() && !self.dirty_stripes.is_empty() {
            self.check_alive()?;
            t = {
                let r = self.rebuild_dirty_stripes(t);
                self.observe(r)?
            };
        }
        if self.config.journal.is_none() {
            return Ok(t);
        }
        self.check_alive()?;
        self.journal_ram
            .push(JournalEntry::Commit { epoch: self.epoch });
        let end = {
            let r = self.flush_journal(t);
            self.observe(r)?
        };
        self.committed_epoch = self.epoch;
        let pending = std::mem::take(&mut self.pending_stale);
        for ppa in pending {
            invalidate(&mut self.channels, ppa);
        }
        Ok(end)
    }

    /// Fails fast once a power loss has surfaced.
    fn check_alive(&self) -> Result<(), SsdError> {
        match self.dead {
            Some(at) => Err(SsdError::PowerLoss { at }),
            None => Ok(()),
        }
    }

    /// Funnels every fallible path's result through one place so a
    /// surfacing power loss marks the device dead and drops the RAM state
    /// that would not survive a real crash.
    fn observe<T>(&mut self, r: Result<T, SsdError>) -> Result<T, SsdError> {
        if let Err(SsdError::PowerLoss { at }) = r {
            self.dead = Some(at);
            self.journal_ram.clear();
            self.pending_stale.clear();
            // RAM-held too: after the power cycle mount rolls every stripe
            // back to its committed (parity-consistent) state.
            self.dirty_stripes.clear();
        }
        r
    }

    /// Flushes the RAM journal buffer: packs entries into journal pages
    /// ([`JOURNAL_ENTRY_BYTES`] each) and programs them on the journal die
    /// with real channel/plane timing. A program that reports bad status
    /// abandons the active journal block and retries on a fresh one —
    /// already-flushed pages in the abandoned block stay readable. Returns
    /// the instant the last page became durable.
    fn flush_journal(&mut self, at: SimTime) -> Result<SimTime, SsdError> {
        self.data_programs_since_flush = 0;
        if self.journal_ram.is_empty() {
            return Ok(at);
        }
        let entries = std::mem::take(&mut self.journal_ram);
        let per_page = (self.page_bytes() / JOURNAL_ENTRY_BYTES).max(1);
        let die_id = DieId::from_flat(JOURNAL_DIE_FLAT, self.config.dies_per_channel);
        let data_buf = self.functional.then(|| vec![0u8; self.page_bytes()]);
        let mut t = at;
        for chunk in entries.chunks(per_page) {
            loop {
                let page = self.next_journal_page(t)?;
                let channel = &mut self.channels[die_id.channel as usize];
                match channel.program_from_controller(die_id.index, page, data_buf.as_deref(), t) {
                    Ok(win) => {
                        self.journal_flushed.push(JournalPage {
                            location: page,
                            entries: chunk.to_vec(),
                        });
                        self.stats.journal_pages.incr();
                        self.trace_op(OpKind::JournalWrite, None, die_id, win);
                        t = win.end;
                        break;
                    }
                    Err(NandError::ProgramFailed { busy_until, .. }) => {
                        self.stats.program_failures.incr();
                        self.journal_active = None;
                        t = t.max(busy_until);
                    }
                    Err(e) => return Err(e.into()),
                }
            }
        }
        self.stats.journal_flushes.incr();
        Ok(t)
    }

    /// Next free page in the active journal block, carving a fresh block
    /// out of the journal die's free pool when the active one is full (or
    /// was abandoned after a program failure).
    fn next_journal_page(&mut self, at: SimTime) -> Result<PhysPage, SsdError> {
        let die_id = DieId::from_flat(JOURNAL_DIE_FLAT, self.config.dies_per_channel);
        if let Some(block) = self.journal_active {
            if let Some(idx) = self.die(die_id).block(block)?.next_programmable() {
                return Ok(block.page(idx));
            }
            self.journal_active = None;
        }
        if self.ftl.free_blocks(JOURNAL_DIE_FLAT) == 0 {
            self.ensure_space(die_id, at)?;
        }
        let wear = self.config.gc.wear_leveling;
        let block = {
            let channel = &self.channels[die_id.channel as usize];
            self.ftl
                .take_free_block(JOURNAL_DIE_FLAT, channel.die(die_id.index), wear)
        }
        .ok_or(SsdError::OutOfSpace(die_id))?;
        self.journal_blocks.push(block);
        self.journal_active = Some(block);
        Ok(block.page(0))
    }

    /// True if the block with die-flat index `block_index` on flat die
    /// `die_flat` is a journal block (excluded from data allocation, GC
    /// victims, and static wear levelling).
    fn is_journal_block(&self, die_flat: u32, block_index: u64) -> bool {
        let geo = &self.config.nand.geometry;
        die_flat == JOURNAL_DIE_FLAT
            && self
                .journal_blocks
                .iter()
                .any(|&b| geo.block_index(b) == block_index)
    }

    /// Crash-safe mapping commit for a completed data program: stamps the
    /// page's OOB, buffers the journal entry, and updates the mapping with
    /// shadow-paging semantics — the previous *committed* version of a
    /// logical page stays valid on flash until the current epoch commits,
    /// so a crash at any instant can roll back to it.
    fn commit_program_journaled(&mut self, lpn: Lpn, ppa: Ppa, kind: ProgramKind) {
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
            ProgramKind::Relocate(s) => self.die(s.die).oob(s.page).unwrap_or(PageOob {
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
                let epoch = self
                    .die(s.die)
                    .oob(s.page)
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
        self.channels[ppa.die.channel as usize]
            .die_mut(ppa.die.index)
            .put_oob(ppa.page, oob);
        self.journal_ram.push(JournalEntry::Map { ppa, oob });
        match kind {
            ProgramKind::Fresh | ProgramKind::Parity => {
                if let Some(stale) = self.ftl.commit_program(lpn, ppa) {
                    // Defer: the superseded page may be the last committed
                    // version and must survive until commit_epoch.
                    self.pending_stale.push(stale);
                }
            }
            ProgramKind::Relocate(s) | ProgramKind::Reconstruct(s) => {
                if self.ftl.lookup(lpn) == Some(s) {
                    // Live copy: move the mapping; the source holds the
                    // same version and can be freed now.
                    if let Some(stale) = self.ftl.commit_program(lpn, ppa) {
                        invalidate(&mut self.channels, stale);
                    }
                } else {
                    // Shadow copy: the L2P points at a newer uncommitted
                    // version. Re-home the reverse mapping and any pending
                    // invalidation onto the copy; free the source.
                    self.ftl.record_shadow(lpn, ppa);
                    invalidate(&mut self.channels, s);
                    for p in &mut self.pending_stale {
                        if *p == s {
                            *p = ppa;
                        }
                    }
                }
            }
        }
    }

    /// Mounts the device after a power cycle: replays the on-flash mapping
    /// journal, OOB-scans every programmed page the journal does not cover,
    /// discards torn and uncommitted pages, rebuilds the mapping tables,
    /// page validity, and allocators from physical state alone, and leaves
    /// the device in exactly the state of the last committed epoch.
    ///
    /// Idempotent by construction: everything is computed into locals and
    /// installed at the very end, so a second power loss *during* mount
    /// (double crash) leaves flash untouched and a later mount succeeds.
    pub fn mount(&mut self, at: SimTime) -> Result<MountReport, SsdError> {
        assert!(
            self.config.journal.is_some(),
            "mount requires a journal-enabled device"
        );
        // A still-armed crash instant in the future kills this mount too
        // (double-crash injection); one at or before `at` already fired
        // and is consumed by the power cycle.
        let pending_crash = self.armed_power_loss().filter(|&t| t > at);
        for ch in &mut self.channels {
            for i in 0..self.config.dies_per_channel {
                ch.die_mut(i).set_power_loss(pending_crash);
            }
        }
        self.dead = None;
        self.journal_ram.clear();
        self.pending_stale.clear();
        // Uncommitted writes roll back below, so every surviving stripe is
        // parity-consistent; the patrol sweep restarts from the top.
        self.dirty_stripes.clear();
        self.scrub_cursor = 0;

        let geo = self.config.nand.geometry;
        let t_scan = self.config.nand.timing.t_read_lower;
        let journal_die = DieId::from_flat(JOURNAL_DIE_FLAT, self.config.dies_per_channel);

        // Phase 1 — replay: serial reads of every flushed journal page on
        // the journal die. `Map` entries pre-cover physical pages (their
        // OOB need not be sensed); the highest durable `Commit` fixes the
        // epoch the device rolls back to.
        let mut journal_map: HashMap<(u32, u64), PageOob> = HashMap::new();
        let mut committed = 0u64;
        let mut t = at;
        let mut died: Option<SimTime> = None;
        for jp in &self.journal_flushed {
            t += t_scan;
            if let Some(tc) = pending_crash {
                if t > tc {
                    died = Some(tc);
                    break;
                }
            }
            // A journal page torn by the crash never became durable; its
            // entries must not replay (cannot happen with the current flush
            // path — pages are recorded only after the program completes —
            // but the replay trusts flash, not controller bookkeeping).
            if self.die(journal_die).is_torn(jp.location) {
                continue;
            }
            for e in &jp.entries {
                match *e {
                    JournalEntry::Map { ppa, oob } => {
                        let die_flat = ppa.die.flat(self.config.dies_per_channel);
                        journal_map.insert((die_flat, geo.page_index(ppa.page)), oob);
                    }
                    JournalEntry::Commit { epoch } => committed = committed.max(epoch),
                }
            }
        }
        if let Some(tc) = died {
            self.dead = Some(tc);
            return Err(SsdError::PowerLoss { at: tc });
        }
        let replayed = self.journal_flushed.len() as u64;
        let replay_end = t;
        if replayed > 0 {
            self.trace_op(
                OpKind::MountReplay,
                None,
                journal_die,
                Window {
                    start: at,
                    end: replay_end,
                },
            );
        }

        // Phase 2 — OOB scan: every programmed page of every non-journal
        // block (including retired blocks — a crash mid-rescue leaves
        // committed pages there, and reads still work). Dies scan in
        // parallel from the end of replay; a page costs a sense only when
        // the journal does not already cover it exactly.
        // Per-die inspection is pure reads of settled flash state, so the
        // dies fan out on the data-plane pool (`simkit::par`) and merge back
        // in die order; the timing plane below — crash checks, trace — then
        // consumes the merged results serially, so mount timing and crash
        // behaviour are bit-exact with a serial scan.
        struct DieScan {
            candidates: Vec<(u32, u64, PageOob, Ppa)>,
            charged: u64,
            torn: u64,
            no_oob: u64,
        }
        let die_scans: Vec<DieScan> = {
            let this = &*self;
            let journal_map = &journal_map;
            let dies: Vec<u32> = (0..this.config.total_dies()).collect();
            simkit::par::map_indexed(&dies, |_, &die_flat| {
                let die_id = DieId::from_flat(die_flat, this.config.dies_per_channel);
                let die = this.die(die_id);
                let mut scan = DieScan {
                    candidates: Vec::new(),
                    charged: 0,
                    torn: 0,
                    no_oob: 0,
                };
                for (bflat, b) in die.iter_blocks() {
                    if this.is_journal_block(die_flat, bflat) {
                        continue;
                    }
                    let addr = geo.block_at(bflat);
                    // Programs are sequential: only pages below the write
                    // cursor were ever programmed (torn ones included).
                    for pidx in 0..geo.pages_per_block - b.free_pages() {
                        let page = addr.page(pidx);
                        if die.is_torn(page) {
                            scan.torn += 1;
                            scan.charged += 1;
                            continue;
                        }
                        let Some(oob) = die.oob(page) else {
                            scan.no_oob += 1;
                            scan.charged += 1;
                            continue;
                        };
                        let idx = geo.page_index(page);
                        if journal_map.get(&(die_flat, idx)) != Some(&oob) {
                            scan.charged += 1;
                        }
                        scan.candidates
                            .push((die_flat, idx, oob, Ppa { die: die_id, page }));
                    }
                }
                scan
            })
        };
        let mut candidates: Vec<(u32, u64, PageOob, Ppa)> = Vec::new();
        let mut torn = 0u64;
        let mut no_oob = 0u64;
        let mut scanned = 0u64;
        let mut scan_end = replay_end;
        for (die_flat, scan) in die_scans.into_iter().enumerate() {
            let die_id = DieId::from_flat(die_flat as u32, self.config.dies_per_channel);
            torn += scan.torn;
            no_oob += scan.no_oob;
            scanned += scan.charged;
            candidates.extend(scan.candidates);
            let cursor = replay_end + t_scan.saturating_mul(scan.charged);
            if let Some(tc) = pending_crash {
                if cursor > tc {
                    self.dead = Some(tc);
                    return Err(SsdError::PowerLoss { at: tc });
                }
            }
            if scan.charged > 0 {
                self.trace_op(
                    OpKind::MountScan,
                    None,
                    die_id,
                    Window {
                        start: replay_end,
                        end: cursor,
                    },
                );
            }
            scan_end = scan_end.max(cursor);
        }

        // Phase 3 — winner selection: per logical page, the newest version
        // whose epoch was committed. Ties (GC copies share their source's
        // stamp and bytes) break deterministically by physical location.
        let mut winners: HashMap<u64, (PageOob, u32, u64, Ppa)> = HashMap::new();
        let mut stale_discarded = 0u64;
        let mut uncommitted = 0u64;
        let mut max_seq = 0u64;
        for oob in journal_map.values() {
            max_seq = max_seq.max(oob.seqno);
        }
        for (die_flat, idx, oob, ppa) in candidates {
            max_seq = max_seq.max(oob.seqno);
            if oob.epoch > committed {
                uncommitted += 1;
                continue;
            }
            match winners.entry(oob.lpn) {
                Entry::Vacant(v) => {
                    v.insert((oob, die_flat, idx, ppa));
                }
                Entry::Occupied(mut o) => {
                    let cur = *o.get();
                    if (oob.seqno, die_flat, idx) > (cur.0.seqno, cur.1, cur.2) {
                        o.insert((oob, die_flat, idx, ppa));
                    }
                    stale_discarded += 1;
                }
            }
        }

        // Phase 4 — commit point: rebuild mapping, validity, and allocators
        // into fresh structures, then install everything at once.
        let mut ftl = Ftl::new(&self.config, self.channels.iter().flat_map(Channel::dies));
        let mut sorted: Vec<(PageOob, u32, u64, Ppa)> = winners.values().copied().collect();
        sorted.sort_by_key(|w| w.0.lpn);
        let mut winning: HashSet<(u32, u64)> = HashSet::new();
        for (oob, die_flat, idx, ppa) in &sorted {
            winning.insert((*die_flat, *idx));
            ftl.commit_program(Lpn(oob.lpn), *ppa);
        }
        for die_flat in 0..self.config.total_dies() {
            let die_id = DieId::from_flat(die_flat, self.config.dies_per_channel);
            let mut updates: Vec<(BlockAddr, u32, bool)> = Vec::new();
            {
                let die = self.die(die_id);
                for (bflat, b) in die.iter_blocks() {
                    if self.is_journal_block(die_flat, bflat) {
                        continue;
                    }
                    let addr = geo.block_at(bflat);
                    for pidx in 0..geo.pages_per_block - b.free_pages() {
                        let idx = geo.page_index(addr.page(pidx));
                        updates.push((addr, pidx, winning.contains(&(die_flat, idx))));
                    }
                }
            }
            let exclude: Vec<BlockAddr> = if die_flat == JOURNAL_DIE_FLAT {
                self.journal_blocks.clone()
            } else {
                Vec::new()
            };
            let die = self.channels[die_id.channel as usize].die_mut(die_id.index);
            for (addr, pidx, valid) in updates {
                if let Ok(block) = die.block_mut(addr) {
                    block.set_validity(pidx, valid);
                }
            }
            let alloc = DieAlloc::from_scan(self.die(die_id), &exclude);
            ftl.set_allocator(die_flat, alloc);
        }
        self.ftl = ftl;
        self.seq = max_seq;
        self.epoch = committed;
        self.committed_epoch = committed;
        self.data_programs_since_flush = 0;
        self.stats.mounts.incr();
        self.stats.mount_scanned_pages.add(scanned);
        self.stats.torn_pages_discarded.add(torn);
        Ok(MountReport {
            committed_epoch: committed,
            journal_pages_replayed: replayed,
            pages_scanned: scanned,
            pages_recovered: sorted.len() as u64,
            stale_discarded,
            uncommitted_discarded: uncommitted + no_oob,
            torn_discarded: torn,
            window: Window {
                start: at,
                end: scan_end,
            },
        })
    }

    /// The channels (read-only).
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Mutable access to one channel (NDP engines schedule bus traffic).
    pub fn channel_mut(&mut self, ch: u32) -> &mut Channel {
        &mut self.channels[ch as usize]
    }

    /// A die by id.
    pub fn die(&self, id: DieId) -> &Die {
        self.channels[id.channel as usize].die(id.index)
    }

    /// The inbound (host→device) PCIe link (read-only).
    pub fn pcie_in(&self) -> &BandwidthLink {
        &self.pcie_in
    }

    /// The outbound (device→host) PCIe link (read-only).
    pub fn pcie_out(&self) -> &BandwidthLink {
        &self.pcie_out
    }

    /// The controller DRAM port (read-only).
    pub fn dram(&self) -> &BandwidthLink {
        &self.dram
    }

    /// The inbound (host→device) PCIe link.
    pub fn pcie_in_mut(&mut self) -> &mut BandwidthLink {
        &mut self.pcie_in
    }

    /// The controller DRAM port.
    pub fn dram_mut(&mut self) -> &mut BandwidthLink {
        &mut self.dram
    }

    /// The FTL (read-only view for inspection).
    pub fn ftl(&self) -> &Ftl {
        &self.ftl
    }

    /// Host-visible capacity in pages.
    pub fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> usize {
        self.config.nand.geometry.page_bytes as usize
    }

    /// Default placement: logical pages stripe round-robin across dies
    /// (channel-major), maximizing parallelism for sequential access.
    pub fn die_for_lpn(&self, lpn: Lpn) -> DieId {
        let flat = (lpn.0 % self.config.total_dies() as u64) as u32;
        DieId::from_flat(flat, self.config.dies_per_channel)
    }

    fn check_lpn(&self, lpn: Lpn) -> Result<(), SsdError> {
        if lpn.0 >= self.logical_pages {
            return Err(SsdError::LpnOutOfRange {
                lpn,
                capacity: self.logical_pages,
            });
        }
        Ok(())
    }

    fn check_data(&self, data: Option<&[u8]>) -> Result<(), SsdError> {
        match data {
            Some(d) if d.len() != self.page_bytes() => Err(SsdError::WrongLength {
                got: d.len(),
                want: self.page_bytes(),
            }),
            None if self.functional => Err(SsdError::WrongLength {
                got: 0,
                want: self.page_bytes(),
            }),
            _ => Ok(()),
        }
    }

    /// Writes one host page: PCIe in → DRAM → channel bus → array program.
    /// Returns the full persistence window.
    pub fn host_write_page(
        &mut self,
        lpn: Lpn,
        data: Option<&[u8]>,
        at: SimTime,
    ) -> Result<Window, SsdError> {
        self.check_alive()?;
        self.check_lpn(lpn)?;
        self.check_data(data)?;
        let bytes = self.page_bytes() as u64;
        let pcie = self.pcie_in.transfer(at, bytes);
        self.stats.pcie_in_busy += pcie.duration();
        // Store-and-forward through controller DRAM: one write, one read.
        let dram_in = self.dram.transfer(pcie.end, bytes);
        let dram = self.dram.transfer(dram_in.end, bytes);
        let die = self
            .ftl
            .lookup(lpn)
            .map(|p| p.die)
            .unwrap_or_else(|| self.die_for_lpn(lpn));
        let win = {
            let r = self.program_internal(lpn, die, data, dram.end, true);
            self.observe(r)?
        };
        self.stats.host_writes.incr();
        self.stats.user_programs.incr();
        Ok(Window {
            start: pcie.start,
            end: win.end,
        })
    }

    /// Reads one host page: array read → channel bus → DRAM → PCIe out.
    pub fn host_read_page(
        &mut self,
        lpn: Lpn,
        at: SimTime,
    ) -> Result<(Window, Option<Bytes>), SsdError> {
        self.check_alive()?;
        self.check_lpn(lpn)?;
        let ppa = self.ftl.lookup(lpn).ok_or(SsdError::Unmapped(lpn))?;
        let bytes = self.page_bytes() as u64;
        let (chan_win, data) = {
            let r = self.read_channel_with_retry(lpn, ppa, at);
            self.observe(r)?
        };
        self.trace_op(OpKind::Read, Some(lpn), ppa.die, chan_win);
        // Store-and-forward through controller DRAM: one write, one read.
        let dram_in = self.dram.transfer(chan_win.end, bytes);
        let dram = self.dram.transfer(dram_in.end, bytes);
        let pcie = self.pcie_out.transfer(dram.end, bytes);
        self.stats.pcie_out_busy += pcie.duration();
        self.stats.host_reads.incr();
        Ok((
            Window {
                start: chan_win.start,
                end: pcie.end,
            },
            data,
        ))
    }

    /// Unmaps a logical page (TRIM), invalidating its physical page.
    pub fn trim(&mut self, lpn: Lpn) -> Result<(), SsdError> {
        self.check_alive()?;
        self.check_lpn(lpn)?;
        if let Some(stale) = self.ftl.trim(lpn) {
            invalidate(&mut self.channels, stale);
            // The stripe's logical content changed (this member is now the
            // XOR identity): its parity must be rebuilt at the next commit.
            self.mark_stripe_dirty(lpn);
        }
        Ok(())
    }

    /// **In-storage read, die-local.** Array read only — the page lands in
    /// the die's page register where an on-die engine consumes it. No bus,
    /// DRAM, or PCIe traffic.
    pub fn internal_read_array(
        &mut self,
        lpn: Lpn,
        at: SimTime,
    ) -> Result<(Window, Option<Bytes>), SsdError> {
        self.check_alive()?;
        self.check_lpn(lpn)?;
        let ppa = self.ftl.lookup(lpn).ok_or(SsdError::Unmapped(lpn))?;
        let (win, data) = {
            let r = self.read_array_with_retry(lpn, ppa, at);
            self.observe(r)?
        };
        self.trace_op(OpKind::Read, Some(lpn), ppa.die, win);
        self.stats.ndp_reads.incr();
        Ok((win, data))
    }

    /// **In-storage read, to the controller.** Array read plus the channel
    /// bus transfer — what a channel-level engine pays per operand page.
    pub fn internal_read_channel(
        &mut self,
        lpn: Lpn,
        at: SimTime,
    ) -> Result<(Window, Option<Bytes>), SsdError> {
        self.check_alive()?;
        self.check_lpn(lpn)?;
        let ppa = self.ftl.lookup(lpn).ok_or(SsdError::Unmapped(lpn))?;
        let (win, data) = {
            let r = self.read_channel_with_retry(lpn, ppa, at);
            self.observe(r)?
        };
        self.trace_op(OpKind::Read, Some(lpn), ppa.die, win);
        self.stats.ndp_reads.incr();
        Ok((win, data))
    }

    /// Die-local array read under the device's bounded retry policy
    /// ([`crate::config::RetryPolicy`]): each ECC-uncorrectable attempt is
    /// traced, then re-issued after an escalating backoff. The retries
    /// charge real plane time (the die senses the page again), so faults
    /// degrade latency honestly. Exhausted retries fall back to RAIN
    /// stripe reconstruction when parity is armed.
    fn read_array_with_retry(
        &mut self,
        lpn: Lpn,
        ppa: Ppa,
        at: SimTime,
    ) -> Result<(Window, Option<Bytes>), SsdError> {
        self.read_retry_inner(lpn, ppa, at, ReadRoute::Array, true)
    }

    /// [`Self::read_array_with_retry`], but through the channel bus (host
    /// and channel-NDP read paths). A failed attempt never crosses the bus
    /// — no data left the die.
    fn read_channel_with_retry(
        &mut self,
        lpn: Lpn,
        ppa: Ppa,
        at: SimTime,
    ) -> Result<(Window, Option<Bytes>), SsdError> {
        self.read_retry_inner(lpn, ppa, at, ReadRoute::Channel, true)
    }

    /// Bounded-retry read used *inside* stripe reconstruction and parity
    /// rebuild: no recursive recovery (a second unreadable page in the
    /// stripe is exactly the double loss parity cannot cover) and no
    /// terminal `uncorrectable_reads` charge — the outer read accounts the
    /// loss once. Always routed over the channel: peers are XORed in the
    /// controller.
    fn read_peer_with_retry(
        &mut self,
        lpn: Lpn,
        ppa: Ppa,
        at: SimTime,
    ) -> Result<(Window, Option<Bytes>), SsdError> {
        self.read_retry_inner(lpn, ppa, at, ReadRoute::Channel, false)
    }

    /// The one retry loop behind every read path. `recover` gates the
    /// RAIN fallback and the terminal `uncorrectable_reads` accounting.
    fn read_retry_inner(
        &mut self,
        lpn: Lpn,
        ppa: Ppa,
        at: SimTime,
        route: ReadRoute,
        recover: bool,
    ) -> Result<(Window, Option<Bytes>), SsdError> {
        let policy = self.config.retry;
        let mut t = at;
        for attempt in 0..=policy.max_retries {
            let channel = &mut self.channels[ppa.die.channel as usize];
            let attempt_result = match route {
                ReadRoute::Array => channel.die_mut(ppa.die.index).read_page(ppa.page, t),
                ReadRoute::Channel => channel.read_to_controller(ppa.die.index, ppa.page, t),
            };
            match attempt_result {
                Ok(ok) => return Ok(ok),
                Err(NandError::ReadUncorrectable { busy_until, .. }) => {
                    self.trace_op(
                        OpKind::ReadFail,
                        Some(lpn),
                        ppa.die,
                        Window {
                            start: t,
                            end: busy_until,
                        },
                    );
                    if attempt < policy.max_retries {
                        self.stats.read_retries.incr();
                        let backoff = self
                            .config
                            .nand
                            .timing
                            .t_read_lower
                            .saturating_mul(policy.backoff_units)
                            .saturating_mul(attempt as u64 + 1);
                        t = busy_until + backoff;
                    } else {
                        // Reconstruction (if any) starts where the last
                        // failed sense left the plane idle.
                        t = busy_until;
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
        if recover {
            if let Some(ok) = self.try_reconstruct(lpn, ppa, t)? {
                return Ok(ok);
            }
            // Terminal: not even parity could serve the page.
            self.stats.uncorrectable_reads.incr();
        }
        Err(SsdError::UncorrectableRead {
            lpn,
            attempts: policy.max_retries + 1,
        })
    }

    // ── RAIN: die-level parity striping ─────────────────────────────────

    /// Marks `lpn`'s stripe parity stale. Only *logical content changes*
    /// dirty a stripe (fresh programs, trim); relocations move bytes
    /// without changing them, so parity stays valid across GC and rescue.
    fn mark_stripe_dirty(&mut self, lpn: Lpn) {
        if let Some(w) = self.config.stripe_data_width() {
            if lpn.0 < self.logical_pages {
                self.dirty_stripes.insert(lpn.0 / w);
            }
        }
    }

    /// The stripe a data *or parity* LPN belongs to.
    fn stripe_of(&self, lpn: Lpn) -> u64 {
        let w = self.config.stripe_data_width().expect("rain armed");
        let logical = self.logical_pages;
        if lpn.0 < logical {
            lpn.0 / w
        } else {
            lpn.0 - logical
        }
    }

    /// Internal LPN of stripe `stripe`'s parity page (beyond host space).
    fn parity_lpn(&self, stripe: u64) -> Lpn {
        Lpn(self.logical_pages + stripe)
    }

    /// Placement for a not-yet-written parity page: the die residue the
    /// stripe's data members do not occupy (members land on
    /// `lpn % total_dies`), rotating across stripes like classic RAIN.
    fn parity_die(&self, stripe: u64) -> DieId {
        let w = self.config.stripe_data_width().expect("rain armed");
        let dies = self.config.total_dies() as u64;
        let flat = ((stripe * w + w) % dies) as u32;
        DieId::from_flat(flat, self.config.dies_per_channel)
    }

    /// True when every stripe's parity matches its data (nothing written
    /// since the last [`Self::commit_epoch`]).
    pub fn parity_clean(&self) -> bool {
        self.dirty_stripes.is_empty()
    }

    /// Rebuilds the parity page of every stripe dirtied since the last
    /// commit, in stripe order. Runs inside [`Self::commit_epoch`].
    fn rebuild_dirty_stripes(&mut self, at: SimTime) -> Result<SimTime, SsdError> {
        let stripes: Vec<u64> = std::mem::take(&mut self.dirty_stripes)
            .into_iter()
            .collect();
        let mut t = at;
        for stripe in stripes {
            t = self.rebuild_stripe(stripe, t)?;
        }
        Ok(t)
    }

    /// Reads stripe `stripe`'s mapped data members (in parallel — each die
    /// senses independently), XORs them in the controller, and programs the
    /// parity page out-of-place. A fully trimmed stripe drops its parity
    /// page instead.
    fn rebuild_stripe(&mut self, stripe: u64, at: SimTime) -> Result<SimTime, SsdError> {
        let w = self.config.stripe_data_width().expect("rain armed");
        let logical = self.logical_pages;
        let lo = stripe * w;
        let hi = (lo + w).min(logical);
        let parity = self.parity_lpn(stripe);
        let mut acc: Option<Vec<u8>> = self.functional.then(|| vec![0u8; self.page_bytes()]);
        let mut t = at;
        let mut any_member = false;
        for m in lo..hi {
            let lpn = Lpn(m);
            let Some(ppa) = self.ftl.lookup(lpn) else {
                continue; // unmapped member: XOR identity
            };
            any_member = true;
            let (win, data) = self.read_peer_with_retry(lpn, ppa, at)?;
            t = t.max(win.end);
            if let (Some(acc), Some(d)) = (acc.as_mut(), data.as_ref()) {
                for (a, b) in acc.iter_mut().zip(d.iter()) {
                    *a ^= b;
                }
            }
        }
        if !any_member {
            if let Some(stale) = self.ftl.trim(parity) {
                invalidate(&mut self.channels, stale);
            }
            return Ok(t);
        }
        let die = self
            .ftl
            .lookup(parity)
            .map(|p| p.die)
            .unwrap_or_else(|| self.parity_die(stripe));
        self.ensure_space(die, t)?;
        let win = self.program_no_gc(
            parity,
            die,
            acc.as_deref(),
            t,
            true,
            None,
            ProgramKind::Parity,
        )?;
        Ok(win.end)
    }

    /// Degraded read: serves `lpn` from its stripe peers after the retry
    /// policy gave up on the mapped page, then re-homes the reconstructed
    /// content on a fresh physical page and remaps the FTL.
    ///
    /// Returns `Ok(None)` — the loss stays uncorrectable — when RAIN is
    /// off, the stripe's parity is stale (dirtied this epoch), the parity
    /// page was never built, or a *second* stripe member is unreadable
    /// (double loss). Parity pages themselves reconstruct from the data
    /// members by the same XOR.
    fn try_reconstruct(
        &mut self,
        lpn: Lpn,
        failed: Ppa,
        at: SimTime,
    ) -> Result<Option<(Window, Option<Bytes>)>, SsdError> {
        if self.config.rain.is_none() {
            return Ok(None);
        }
        let stripe = self.stripe_of(lpn);
        if self.dirty_stripes.contains(&stripe) {
            return Ok(None); // parity out of date mid-epoch: cannot trust it
        }
        let w = self.config.stripe_data_width().expect("rain armed");
        let logical = self.logical_pages;
        let lo = stripe * w;
        let hi = (lo + w).min(logical);
        let parity = self.parity_lpn(stripe);
        let mut acc: Option<Vec<u8>> = self.functional.then(|| vec![0u8; self.page_bytes()]);
        let mut t = at;
        for peer in (lo..hi).chain(std::iter::once(parity.0)).map(Lpn) {
            if peer == lpn {
                continue;
            }
            let Some(peer_ppa) = self.ftl.lookup(peer) else {
                if peer == parity {
                    return Ok(None); // stripe never earned a parity page
                }
                continue; // unmapped member: XOR identity
            };
            match self.read_peer_with_retry(peer, peer_ppa, at) {
                Ok((win, data)) => {
                    t = t.max(win.end);
                    if let (Some(acc), Some(d)) = (acc.as_mut(), data.as_ref()) {
                        for (a, b) in acc.iter_mut().zip(d.iter()) {
                            *a ^= b;
                        }
                    }
                }
                Err(SsdError::UncorrectableRead { .. }) => return Ok(None),
                Err(e) => return Err(e),
            }
        }
        self.ensure_space(failed.die, t)?;
        let win = self.program_no_gc(
            lpn,
            failed.die,
            acc.as_deref(),
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
            acc.map(Bytes::from),
        )))
    }

    /// One background-scrub patrol pass: sweeps up to
    /// [`crate::config::ScrubConfig::pages_per_tick`] *mapped* addressable
    /// pages (data and parity) from the persistent cursor, verifying each
    /// with the full retry-plus-reconstruction read path — so a latent
    /// single loss is repaired before a second one makes it uncorrectable —
    /// and proactively rewriting pages whose aged RBER has climbed to
    /// [`crate::config::ScrubConfig::refresh_fraction`] of the ECC ceiling
    /// (the rewrite lands on a fresh block, resetting both aging clocks).
    /// No-op unless [`SsdConfig::scrub`] is set. Returns the sweep's end
    /// instant and what it did.
    pub fn scrub_tick(&mut self, at: SimTime) -> Result<(SimTime, ScrubReport), SsdError> {
        let Some(scrub) = self.config.scrub else {
            return Ok((at, ScrubReport::default()));
        };
        self.check_alive()?;
        let total = self.config.addressable_pages();
        let mut report = ScrubReport::default();

        // The tick's candidate set — the exact pages the timed sweep below
        // will visit (mapped-ness is stable mid-sweep: repairs and refreshes
        // re-home a page's physical copy but never unmap its LPN) — walked
        // here without advancing the persistent cursor.
        let mut candidates: Vec<Ppa> = Vec::new();
        {
            let mut cursor = self.scrub_cursor;
            let mut walked = 0u64;
            while candidates.len() < scrub.pages_per_tick as usize && walked < total {
                let lpn = Lpn(cursor);
                cursor = (cursor + 1) % total;
                walked += 1;
                if let Some(ppa) = self.ftl.lookup(lpn) {
                    candidates.push(ppa);
                }
            }
        }
        // Parallel page-verification pre-scan (data plane, `simkit::par`):
        // flag candidates that are deterministically unreadable (torn or
        // corrupted media) or whose aged RBER already sits past the refresh
        // threshold at sweep start. Pure `&self` inspection — no sense, no
        // RNG draw, no timeline — so the timed patrol below stays bit-exact
        // with a serial run; the flags surface as reporting.
        {
            let this = &*self;
            let flagged = simkit::par::map_indexed(&candidates, |_, ppa| {
                let die = this.die(ppa.die);
                if die.is_torn(ppa.page) {
                    return true;
                }
                let rber = die.effective_rber(ppa.page.block_addr(), at).unwrap_or(0.0);
                rber >= scrub.refresh_fraction * die.rber_model().ecc_ceiling
            });
            report.suspect = flagged.into_iter().filter(|&s| s).count() as u64;
        }

        let mut t = at;
        let mut examined = 0u64;
        while report.pages_read < scrub.pages_per_tick as u64 && examined < total {
            let lpn = Lpn(self.scrub_cursor);
            self.scrub_cursor = (self.scrub_cursor + 1) % total;
            examined += 1;
            let Some(ppa) = self.ftl.lookup(lpn) else {
                continue;
            };
            report.pages_read += 1;
            self.stats.scrub_reads.incr();
            let repaired_before = self.stats.parity_reconstructions.get();
            let read = {
                let r = self.read_retry_inner(lpn, ppa, t, ReadRoute::Array, true);
                match r {
                    Err(SsdError::UncorrectableRead { .. }) => {
                        // Double loss: the patrol keeps sweeping — later
                        // stripes may still be repairable.
                        report.unrecovered += 1;
                        continue;
                    }
                    other => self.observe(other)?,
                }
            };
            let (win, data) = read;
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
            let ceiling = die.rber_model().ecc_ceiling;
            if rber >= scrub.refresh_fraction * ceiling {
                self.ensure_space(ppa.die, t)?;
                let refresh = {
                    let r = self.program_no_gc(
                        lpn,
                        ppa.die,
                        data.as_deref(),
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

    /// Deterministically destroys the physical page currently holding
    /// `lpn` (data or parity — anything under [`SsdConfig::addressable_pages`]):
    /// every subsequent sense is ECC-uncorrectable until the block is
    /// erased. Test/experiment hook for provoking the degraded-read path
    /// at a chosen instant.
    pub fn inject_page_loss(&mut self, lpn: Lpn) -> Result<(), SsdError> {
        if lpn.0 >= self.config.addressable_pages() {
            return Err(SsdError::LpnOutOfRange {
                lpn,
                capacity: self.config.addressable_pages(),
            });
        }
        let ppa = self.ftl.lookup(lpn).ok_or(SsdError::Unmapped(lpn))?;
        self.channels[ppa.die.channel as usize]
            .die_mut(ppa.die.index)
            .corrupt_page(ppa.page)?;
        Ok(())
    }

    /// **In-storage program.** Writes a new version of `lpn` out-of-place.
    ///
    /// * `die` — placement for a not-yet-mapped page; a mapped page always
    ///   stays on its current die (die-local update).
    /// * `cross_bus` — `true` if the data comes from the controller side
    ///   (channel-level engine or host), `false` if it originates in the
    ///   die's own latches (die-level engine: no bus traffic).
    pub fn internal_program(
        &mut self,
        lpn: Lpn,
        die: Option<DieId>,
        data: Option<&[u8]>,
        at: SimTime,
        cross_bus: bool,
    ) -> Result<Window, SsdError> {
        self.check_alive()?;
        self.check_lpn(lpn)?;
        self.check_data(data)?;
        let target = self
            .ftl
            .lookup(lpn)
            .map(|p| p.die)
            .or(die)
            .unwrap_or_else(|| self.die_for_lpn(lpn));
        let win = {
            let r = self.program_internal(lpn, target, data, at, cross_bus);
            self.observe(r)?
        };
        self.stats.ndp_programs.incr();
        Ok(win)
    }

    /// Shared out-of-place program path (host and NDP): ensure space, pick
    /// a page, program (with media-fault recovery), commit the mapping,
    /// invalidate the stale page.
    fn program_internal(
        &mut self,
        lpn: Lpn,
        die_id: DieId,
        data: Option<&[u8]>,
        at: SimTime,
        cross_bus: bool,
    ) -> Result<Window, SsdError> {
        self.ensure_space(die_id, at)?;
        self.maybe_static_wl(die_id, at)?;
        let win = self.program_no_gc(lpn, die_id, data, at, cross_bus, None, ProgramKind::Fresh)?;
        // Auto-flush gate: only front-door data programs count. GC and
        // rescue copies flow through program_no_gc directly, so a flush can
        // never re-enter itself via the space it frees.
        if let Some(j) = self.config.journal {
            self.data_programs_since_flush += 1;
            if self.data_programs_since_flush >= j.flush_interval {
                self.flush_journal(win.end)?;
            }
        }
        Ok(win)
    }

    /// Out-of-place program with media-fault recovery but *no* GC trigger.
    /// GC relocation and rescue relocation come through here directly:
    /// kicking off nested GC from inside either could erase the very block
    /// being relocated.
    ///
    /// A program that reports bad status retires its block (bad blocks do
    /// not heal), rescues the block's valid pages, and re-homes the page on
    /// a fresh block — on the same plane when one is available, so the
    /// remap costs no extra plane switch. The loop terminates because every
    /// failure permanently removes a block from allocation: a die that
    /// keeps failing runs out of blocks and surfaces `OutOfSpace`.
    #[allow(clippy::too_many_arguments)]
    fn program_no_gc(
        &mut self,
        lpn: Lpn,
        die_id: DieId,
        data: Option<&[u8]>,
        at: SimTime,
        cross_bus: bool,
        prefer_plane: Option<u32>,
        kind: ProgramKind,
    ) -> Result<Window, SsdError> {
        let die_flat = die_id.flat(self.config.dies_per_channel);
        let wear = self.config.gc.wear_leveling;
        let mut at = at;
        let mut prefer = prefer_plane;
        loop {
            let channel = &mut self.channels[die_id.channel as usize];
            let page = match prefer {
                Some(p) => {
                    self.ftl
                        .allocate_page_preferring(die_flat, channel.die(die_id.index), p, wear)
                }
                None => self
                    .ftl
                    .allocate_page(die_flat, channel.die(die_id.index), wear),
            }
            .ok_or(SsdError::OutOfSpace(die_id))?;
            let attempt = if cross_bus {
                channel.program_from_controller(die_id.index, page, data, at)
            } else {
                channel.die_mut(die_id.index).program_page(page, at, data)
            };
            match attempt {
                Ok(win) => {
                    let ppa = Ppa { die: die_id, page };
                    if self.config.journal.is_some() {
                        self.commit_program_journaled(lpn, ppa, kind);
                    } else if let Some(stale) = self.ftl.commit_program(lpn, ppa) {
                        invalidate(&mut self.channels, stale);
                    }
                    match kind {
                        ProgramKind::Fresh => {
                            self.mark_stripe_dirty(lpn);
                            self.trace_op(OpKind::Program, Some(lpn), die_id, win);
                        }
                        ProgramKind::Relocate(_) => {
                            self.trace_op(OpKind::Program, Some(lpn), die_id, win);
                        }
                        ProgramKind::Parity => {
                            self.stats.parity_writes.incr();
                            self.trace_op(OpKind::ParityWrite, Some(lpn), die_id, win);
                        }
                        ProgramKind::Reconstruct(_) => {
                            self.trace_op(OpKind::ParityRepair, Some(lpn), die_id, win);
                        }
                    }
                    return Ok(win);
                }
                Err(NandError::ProgramFailed {
                    page: failed,
                    busy_until,
                }) => {
                    self.stats.program_failures.incr();
                    let t_prog = self.config.nand.timing.t_program;
                    self.trace_op(
                        OpKind::ProgramFail,
                        Some(lpn),
                        die_id,
                        Window {
                            start: busy_until - t_prog,
                            end: busy_until,
                        },
                    );
                    let resume = self.retire_and_rescue(die_id, failed.block_addr(), busy_until)?;
                    at = at.max(resume);
                    prefer = Some(failed.plane);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Retires `block` after a media fault: marks it bad on the die,
    /// removes it from allocation forever, and relocates its valid pages
    /// die-locally. Rescue reads run the bounded retry policy; rescue
    /// programs run the full recovery loop, so a failure *during* rescue
    /// retires further blocks before resuming. Returns the instant the
    /// rescue finished draining.
    fn retire_and_rescue(
        &mut self,
        die_id: DieId,
        block: nandsim::BlockAddr,
        at: SimTime,
    ) -> Result<SimTime, SsdError> {
        let die_flat = die_id.flat(self.config.dies_per_channel);
        self.channels[die_id.channel as usize]
            .die_mut(die_id.index)
            .block_mut(block)?
            .retire();
        self.ftl.discard_block(die_flat, block);
        self.stats.retired_blocks.incr();

        let geo = self.config.nand.geometry;
        let victims: Vec<(Lpn, PhysPage)> = (0..geo.pages_per_block)
            .filter_map(|idx| {
                let die = self.die(die_id);
                let valid =
                    die.block(block).ok()?.page_state(idx) == nandsim::store::PageState::Valid;
                if !valid {
                    return None;
                }
                let page = block.page(idx);
                let ppa = Ppa { die: die_id, page };
                self.ftl.owner_of(ppa, die).map(|lpn| (lpn, page))
            })
            .collect();
        let mut t = at;
        for (owner, src) in victims {
            let src_ppa = Ppa {
                die: die_id,
                page: src,
            };
            let (read_win, data) = self.read_array_with_retry(owner, src_ppa, t)?;
            let win = self.program_no_gc(
                owner,
                die_id,
                data.as_deref(),
                read_win.end,
                false,
                Some(src.plane),
                ProgramKind::Relocate(src_ppa),
            )?;
            self.stats.rescue_copies.incr();
            t = win.end;
        }
        Ok(t)
    }

    /// Runs garbage collection on a die until its free-block pool is back
    /// above the low watermark.
    fn ensure_space(&mut self, die_id: DieId, at: SimTime) -> Result<(), SsdError> {
        let die_flat = die_id.flat(self.config.dies_per_channel);
        if self.ftl.free_blocks(die_flat) >= self.config.gc.low_watermark as usize {
            return Ok(());
        }
        while self.ftl.free_blocks(die_flat) < self.config.gc.high_watermark as usize {
            if !self.gc_once(die_id, at)? {
                // No reclaimable block. Fatal only if allocation is truly
                // impossible: no free blocks and no programmable page in
                // any active block.
                let any_programmable = self.ftl.active_blocks(die_flat).iter().any(|b| {
                    self.die(die_id)
                        .block(*b)
                        .ok()
                        .and_then(|s| s.next_programmable())
                        .is_some()
                });
                if self.ftl.free_blocks(die_flat) == 0 && !any_programmable {
                    return Err(SsdError::OutOfSpace(die_id));
                }
                break;
            }
        }
        Ok(())
    }

    /// One GC pass on a die: pick the fullest-of-invalid victim, relocate
    /// its valid pages die-locally (copyback — no bus traffic), erase it.
    /// Returns `false` if no block was worth collecting.
    ///
    /// The victim is the full, unretired block with the fewest valid pages
    /// and at least one invalid page, ties to the lowest flat index, that
    /// is neither being filled nor a journal block. The scan runs the
    /// per-block filters first and asks about active and journal blocks
    /// only for a block that would beat the best so far; only the winner's
    /// flat index is turned into an address.
    fn gc_once(&mut self, die_id: DieId, at: SimTime) -> Result<bool, SsdError> {
        let die_flat = die_id.flat(self.config.dies_per_channel);
        let geo = self.config.nand.geometry;
        let mut best: Option<(u32, u64)> = None;
        for (flat, b) in self.die(die_id).iter_blocks() {
            let valid = b.valid_pages();
            if b.next_programmable().is_some() || valid == geo.pages_per_block || b.is_retired() {
                continue; // not full yet, nothing reclaimable, or out of service
            }
            if best.is_some_and(|best| (valid, flat) >= best) {
                continue;
            }
            if self.ftl.is_active(die_flat, flat) || self.is_journal_block(die_flat, flat) {
                continue;
            }
            best = Some((valid, flat));
        }
        let Some((_, flat)) = best else {
            return Ok(false);
        };
        self.relocate_and_erase(die_id, geo.block_at(flat), at)?;
        Ok(true)
    }

    /// Relocates every valid page of `victim` die-locally (copyback) and
    /// erases it, returning the block to the free pool. An erase that
    /// reports bad status retires the victim instead — its pages were all
    /// relocated or stale, so nothing else is lost.
    fn relocate_and_erase(
        &mut self,
        die_id: DieId,
        victim_addr: nandsim::BlockAddr,
        at: SimTime,
    ) -> Result<(), SsdError> {
        let die_flat = die_id.flat(self.config.dies_per_channel);
        let geo = self.config.nand.geometry;
        // A victim whose pages are all stale (the steady state of full-state
        // rewrites) has nothing to relocate.
        let pages = match self.die(die_id).block(victim_addr)?.valid_pages() {
            0 => 0,
            _ => geo.pages_per_block,
        };
        for page_idx in 0..pages {
            let src = victim_addr.page(page_idx);
            let is_valid = {
                let die = self.die(die_id);
                die.block(victim_addr)?.page_state(page_idx) == nandsim::store::PageState::Valid
            };
            if !is_valid {
                continue;
            }
            let src_ppa = Ppa {
                die: die_id,
                page: src,
            };
            let owner = self
                .ftl
                .owner_of(src_ppa, self.die(die_id))
                .ok_or(SsdError::OrphanPage(src_ppa))?;
            let (read_win, data) = self.read_array_with_retry(owner, src_ppa, at)?;
            self.program_no_gc(
                owner,
                die_id,
                data.as_deref(),
                read_win.end,
                false,
                None,
                ProgramKind::Relocate(src_ppa),
            )?;
            self.stats.gc_copies.incr();
        }

        let channel = &mut self.channels[die_id.channel as usize];
        match channel.die_mut(die_id.index).erase_block(victim_addr, at) {
            Ok(erase_win) => {
                self.trace_op(OpKind::Erase, None, die_id, erase_win);
                self.ftl.reclaim_block(
                    die_flat,
                    victim_addr,
                    self.channels[die_id.channel as usize].die(die_id.index),
                );
                // The erase may have pushed the block past its rated P/E
                // cycles: a wear-retired block must not re-enter the pool.
                if self.die(die_id).block(victim_addr)?.is_retired() {
                    self.ftl.discard_block(die_flat, victim_addr);
                }
                self.stats.erases.incr();
                self.per_die_erases[die_flat as usize] += 1;
            }
            Err(NandError::EraseFailed { busy_until, .. }) => {
                self.stats.erase_failures.incr();
                let t_erase = self.config.nand.timing.t_erase;
                self.trace_op(
                    OpKind::EraseFail,
                    None,
                    die_id,
                    Window {
                        start: busy_until - t_erase,
                        end: busy_until,
                    },
                );
                // Bad erase status: the block cannot be reclaimed. Retire
                // it and take it out of allocation for good.
                self.channels[die_id.channel as usize]
                    .die_mut(die_id.index)
                    .block_mut(victim_addr)?
                    .retire();
                self.ftl.discard_block(die_flat, victim_addr);
                self.stats.retired_blocks.incr();
            }
            Err(e) => return Err(e.into()),
        }
        Ok(())
    }

    /// Static wear levelling: if the erase-count spread within a die
    /// exceeds the configured threshold, migrate the coldest *data* block
    /// (lowest erase count among full blocks holding valid pages) so its
    /// low-wear cells rejoin the free pool. Dynamic allocation alone can
    /// never recycle a block whose data is simply never rewritten.
    fn maybe_static_wl(&mut self, die_id: DieId, at: SimTime) -> Result<(), SsdError> {
        let Some(threshold) = self.config.gc.static_wl_threshold else {
            return Ok(());
        };
        let die_flat = die_id.flat(self.config.dies_per_channel) as usize;
        // Cheap cadence gate: scan at most once every few erases.
        if self.per_die_erases[die_flat] < self.wl_marks[die_flat] + 4 {
            return Ok(());
        }
        self.wl_marks[die_flat] = self.per_die_erases[die_flat];

        let geo = self.config.nand.geometry;
        let (mut max_erase, mut cold): (u64, Option<(u64, u64)>) = (0, None);
        {
            let die = self.die(die_id);
            for (flat, b) in die.iter_blocks() {
                max_erase = max_erase.max(b.erase_count());
                if b.is_retired()
                    || b.next_programmable().is_some()
                    || b.valid_pages() == 0
                    || self.ftl.is_active(die_flat as u32, flat)
                    || self.is_journal_block(die_flat as u32, flat)
                {
                    continue;
                }
                if cold.map(|(e, _)| b.erase_count() < e).unwrap_or(true) {
                    cold = Some((b.erase_count(), flat));
                }
            }
        }
        if let Some((erases, flat)) = cold {
            if max_erase.saturating_sub(erases) > threshold {
                self.relocate_and_erase(die_id, geo.block_at(flat), at)?;
            }
        }
        Ok(())
    }

    /// Ages every block on every die by `pe` artificial P/E cycles
    /// (end-of-life experiments: worn cells make reads slower via
    /// read-retries). Does not retire blocks or touch data.
    pub fn simulate_wear(&mut self, pe: u64) {
        for ch in &mut self.channels {
            for i in 0..ch.dies().len() as u32 {
                ch.die_mut(i).simulate_wear(pe);
            }
        }
    }

    /// Enables operation tracing with the given ring-buffer capacity
    /// (replacing any existing trace).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(TraceLog::new(capacity));
    }

    /// The retained trace events, if tracing is enabled.
    pub fn trace_events(&self) -> Option<Vec<TraceEvent>> {
        self.trace.as_ref().map(TraceLog::events)
    }

    fn trace_op(&mut self, kind: OpKind, lpn: Option<Lpn>, die: DieId, win: Window) {
        if let Some(t) = &mut self.trace {
            t.record(TraceEvent {
                kind,
                lpn,
                die_flat: die.flat(self.config.dies_per_channel),
                start: win.start,
                end: win.end,
            });
        }
    }

    /// Utilization of every shared resource over `[0, horizon)`.
    pub fn utilization(&self, horizon: SimTime) -> crate::stats::UtilizationReport {
        let dies = self
            .channels
            .iter()
            .flat_map(|c| c.dies().iter())
            .map(|d| {
                let planes = d.config().geometry.planes;
                // Mean plane busy fraction: total busy over planes*horizon.
                let busy: f64 = (0..planes)
                    .map(|p| d.plane_busy_total(p).as_secs_f64())
                    .sum();
                if horizon == SimTime::ZERO {
                    0.0
                } else {
                    (busy / (planes as f64 * horizon.as_secs_f64())).min(1.0)
                }
            })
            .collect();
        crate::stats::UtilizationReport {
            horizon,
            pcie_in: self.pcie_in.utilization(horizon),
            pcie_out: self.pcie_out.utilization(horizon),
            dram: self.dram.utilization(horizon),
            buses: self
                .channels
                .iter()
                .map(|c| c.bus().utilization(horizon))
                .collect(),
            dies,
        }
    }

    /// Iterates erase counts of every block in the device (wear analysis).
    pub fn erase_counts(&self) -> impl Iterator<Item = u64> + '_ {
        self.channels
            .iter()
            .flat_map(|c| c.dies().iter())
            .flat_map(|d| d.iter_blocks().map(|(_, b)| b.erase_count()))
    }

    /// Sum of all block erase counts.
    pub fn total_erases(&self) -> u64 {
        self.erase_counts().sum()
    }

    /// The latest instant at which any resource in the device is busy —
    /// i.e. when the device fully drains if no more work arrives.
    pub fn quiesce_time(&self) -> SimTime {
        let mut t = self
            .pcie_in
            .free_at()
            .max(self.pcie_out.free_at())
            .max(self.dram.free_at());
        for ch in &self.channels {
            t = t.max(ch.bus().free_at());
            for d in ch.dies() {
                for plane in 0..d.config().geometry.planes {
                    t = t.max(d.plane_free_at(plane));
                }
            }
        }
        t
    }
}

/// Marks a stale physical page invalid on its die.
fn invalidate(channels: &mut [Channel], stale: Ppa) {
    let die = channels[stale.die.channel as usize].die_mut(stale.die.index);
    if let Ok(block) = die.block_mut(stale.page.block_addr()) {
        block.invalidate(stale.page.page);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(dev: &Device, fill: u8) -> Vec<u8> {
        vec![fill; dev.page_bytes()]
    }

    #[test]
    fn write_read_round_trip() {
        let mut dev = Device::new_functional(SsdConfig::tiny());
        let data = page(&dev, 0x42);
        let w = dev
            .host_write_page(Lpn(5), Some(&data), SimTime::ZERO)
            .unwrap();
        let (r, out) = dev.host_read_page(Lpn(5), w.end).unwrap();
        assert_eq!(out.unwrap().as_ref(), &data[..]);
        assert!(r.end > w.end);
        assert_eq!(dev.stats().host_writes.get(), 1);
        assert_eq!(dev.stats().host_reads.get(), 1);
    }

    #[test]
    fn overwrite_supersedes_old_version() {
        let mut dev = Device::new_functional(SsdConfig::tiny());
        let a = page(&dev, 1);
        let b = page(&dev, 2);
        dev.host_write_page(Lpn(0), Some(&a), SimTime::ZERO)
            .unwrap();
        let first_ppa = dev.ftl().lookup(Lpn(0)).unwrap();
        dev.host_write_page(Lpn(0), Some(&b), SimTime::ZERO)
            .unwrap();
        let second_ppa = dev.ftl().lookup(Lpn(0)).unwrap();
        assert_ne!(first_ppa, second_ppa, "out-of-place write");
        assert_eq!(second_ppa.die, first_ppa.die, "update stays die-local");
        let (_, out) = dev.host_read_page(Lpn(0), SimTime::from_secs(1)).unwrap();
        assert_eq!(out.unwrap().as_ref(), &b[..]);
    }

    #[test]
    fn unmapped_read_fails() {
        let mut dev = Device::new_functional(SsdConfig::tiny());
        assert!(matches!(
            dev.host_read_page(Lpn(3), SimTime::ZERO),
            Err(SsdError::Unmapped(_))
        ));
    }

    #[test]
    fn lpn_out_of_range_rejected() {
        let mut dev = Device::new(SsdConfig::tiny());
        let cap = dev.logical_pages();
        assert!(matches!(
            dev.host_write_page(Lpn(cap), None, SimTime::ZERO),
            Err(SsdError::LpnOutOfRange { .. })
        ));
    }

    #[test]
    fn wrong_page_size_rejected() {
        let mut dev = Device::new_functional(SsdConfig::tiny());
        let short = vec![0u8; 7];
        assert!(matches!(
            dev.host_write_page(Lpn(0), Some(&short), SimTime::ZERO),
            Err(SsdError::WrongLength { got: 7, .. })
        ));
        // Functional devices require data.
        assert!(dev.host_write_page(Lpn(0), None, SimTime::ZERO).is_err());
    }

    #[test]
    fn lpns_stripe_across_dies() {
        let dev = Device::new(SsdConfig::tiny());
        let total = dev.config().total_dies() as u64;
        let mut seen = std::collections::HashSet::new();
        for i in 0..total {
            seen.insert(dev.die_for_lpn(Lpn(i)));
        }
        assert_eq!(seen.len() as u64, total);
        assert_eq!(dev.die_for_lpn(Lpn(0)), dev.die_for_lpn(Lpn(total)));
    }

    #[test]
    fn internal_ops_bypass_pcie() {
        let mut dev = Device::new_functional(SsdConfig::tiny());
        let data = page(&dev, 9);
        dev.host_write_page(Lpn(1), Some(&data), SimTime::ZERO)
            .unwrap();
        let pcie_busy_before = dev.stats().pcie_in_busy + dev.stats().pcie_out_busy;

        let (_, out) = dev
            .internal_read_array(Lpn(1), SimTime::from_secs(1))
            .unwrap();
        assert_eq!(out.unwrap().as_ref(), &data[..]);
        let new = page(&dev, 10);
        dev.internal_program(Lpn(1), None, Some(&new), SimTime::from_secs(2), false)
            .unwrap();
        let pcie_busy_after = dev.stats().pcie_in_busy + dev.stats().pcie_out_busy;
        assert_eq!(
            pcie_busy_before, pcie_busy_after,
            "NDP path must not touch PCIe"
        );
        assert_eq!(dev.stats().ndp_reads.get(), 1);
        assert_eq!(dev.stats().ndp_programs.get(), 1);

        let (_, out) = dev.host_read_page(Lpn(1), SimTime::from_secs(3)).unwrap();
        assert_eq!(out.unwrap().as_ref(), &new[..]);
    }

    #[test]
    fn die_local_program_skips_the_bus() {
        let mut dev = Device::new_functional(SsdConfig::tiny());
        let data = page(&dev, 1);
        dev.host_write_page(Lpn(2), Some(&data), SimTime::ZERO)
            .unwrap();
        let die = dev.ftl().lookup(Lpn(2)).unwrap().die;
        let bus_bytes_before = dev.channels()[die.channel as usize].bus().bytes_moved();
        dev.internal_program(Lpn(2), None, Some(&data), SimTime::from_secs(1), false)
            .unwrap();
        let bus_bytes_after = dev.channels()[die.channel as usize].bus().bytes_moved();
        assert_eq!(bus_bytes_before, bus_bytes_after);
        // Channel-side program does cross the bus.
        dev.internal_program(Lpn(2), None, Some(&data), SimTime::from_secs(2), true)
            .unwrap();
        assert!(dev.channels()[die.channel as usize].bus().bytes_moved() > bus_bytes_after);
    }

    #[test]
    fn sustained_overwrites_trigger_gc_and_waf_above_one() {
        let mut dev = Device::new_functional(SsdConfig::tiny());
        // Keep rewriting a working set that exceeds what fits without
        // reclaiming: the tiny device has 25% OP, so rewriting ~60% of
        // logical space several times forces GC.
        let lpns = (dev.logical_pages() * 3) / 5;
        let data = page(&dev, 0xCC);
        let mut t = SimTime::ZERO;
        for round in 0..6 {
            for i in 0..lpns {
                let _ = round;
                dev.host_write_page(Lpn(i), Some(&data), t).unwrap();
                t += simkit::SimDuration::from_us(1);
            }
        }
        assert!(dev.stats().erases.get() > 0, "GC must have run");
        assert!(dev.stats().waf() >= 1.0);
        assert!(dev.total_erases() > 0);
        // Data integrity after GC.
        let (_, out) = dev.host_read_page(Lpn(0), t).unwrap();
        assert_eq!(out.unwrap().as_ref(), &data[..]);
    }

    #[test]
    fn trim_invalidates_and_unmaps() {
        let mut dev = Device::new_functional(SsdConfig::tiny());
        let data = page(&dev, 3);
        dev.host_write_page(Lpn(9), Some(&data), SimTime::ZERO)
            .unwrap();
        dev.trim(Lpn(9)).unwrap();
        assert!(dev.ftl().lookup(Lpn(9)).is_none());
        assert!(matches!(
            dev.host_read_page(Lpn(9), SimTime::ZERO),
            Err(SsdError::Unmapped(_))
        ));
    }

    #[test]
    fn phantom_device_times_without_data() {
        let mut dev = Device::new(SsdConfig::tiny());
        let w = dev.host_write_page(Lpn(0), None, SimTime::ZERO).unwrap();
        let (r, data) = dev.host_read_page(Lpn(0), w.end).unwrap();
        assert_eq!(data, None);
        assert!(r.end > w.end);
    }

    #[test]
    fn timing_is_deterministic() {
        let run = || {
            let mut dev = Device::new(SsdConfig::tiny());
            let mut t = SimTime::ZERO;
            for i in 0..200u64 {
                let w = dev.host_write_page(Lpn(i % 50), None, t).unwrap();
                t = w.end;
            }
            t
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn quiesce_time_tracks_latest_resource() {
        let mut dev = Device::new(SsdConfig::tiny());
        assert_eq!(dev.quiesce_time(), SimTime::ZERO);
        let w = dev.host_write_page(Lpn(0), None, SimTime::ZERO).unwrap();
        assert!(dev.quiesce_time() >= w.end);
    }

    #[test]
    fn parallel_writes_to_different_dies_overlap() {
        let mut dev = Device::new(SsdConfig::tiny());
        // LPNs 0..4 stripe across the 4 dies: issuing all at t=0 should
        // finish in barely more than one program time (PCIe+bus pipeline),
        // not four serial programs.
        let mut last = SimTime::ZERO;
        for i in 0..4u64 {
            let w = dev.host_write_page(Lpn(i), None, SimTime::ZERO).unwrap();
            last = last.max(w.end);
        }
        let t_prog = dev.config().nand.timing.t_program;
        assert!(
            last < SimTime::ZERO + t_prog * 2,
            "four die-parallel writes took {last}"
        );
    }

    #[test]
    fn tracing_records_the_operation_mix() {
        use crate::trace::{gantt, peak_concurrency, OpKind};
        let mut dev = Device::new(SsdConfig::tiny());
        dev.enable_trace(1024);
        for i in 0..8u64 {
            dev.host_write_page(Lpn(i), None, SimTime::ZERO).unwrap();
        }
        dev.host_read_page(Lpn(0), SimTime::from_secs(1)).unwrap();
        let events = dev.trace_events().unwrap();
        let programs = events.iter().filter(|e| e.kind == OpKind::Program).count();
        let reads = events.iter().filter(|e| e.kind == OpKind::Read).count();
        assert_eq!(programs, 8);
        assert_eq!(reads, 1);
        assert!(events.iter().all(|e| e.end > e.start));
        // Two writes landed on each of the 4 dies; with 2 planes each they
        // overlap.
        assert!(peak_concurrency(&events, 0) >= 1);
        let g = gantt(&events, simkit::SimDuration::from_us(50), 60);
        assert!(g.lines().count() == 4, "{g}");
        // Untraced devices return None.
        let dev2 = Device::new(SsdConfig::tiny());
        assert!(dev2.trace_events().is_none());
    }

    #[test]
    fn program_failures_recover_transparently() {
        use nandsim::FaultConfig;
        let fault = FaultConfig {
            seed: 0xF00D,
            program_fail: 0.05,
            erase_fail: 0.0,
            read_uncorrectable: 0.0,
            wear_coupling: false,
        };
        let mut dev = Device::new_functional(SsdConfig::tiny().with_fault(fault));
        let mut t = SimTime::ZERO;
        let n = 400u64;
        for i in 0..n {
            let data = vec![(i % 251) as u8; dev.page_bytes()];
            let w = dev.host_write_page(Lpn(i % 64), Some(&data), t).unwrap();
            t = w.end;
        }
        assert!(
            dev.stats().program_failures.get() > 0,
            "faults must have fired"
        );
        assert_eq!(
            dev.stats().retired_blocks.get(),
            dev.retired_blocks(),
            "every policy retirement shows up on the dies"
        );
        assert!(dev.stats().retired_blocks.get() > 0);
        assert_eq!(
            dev.fault_stats().program_failures,
            dev.stats().program_failures.get(),
            "die counters and device counters agree"
        );
        // Recovery is transparent: every logical page reads back intact.
        for i in 0..64u64 {
            let last_write = (0..n).rev().find(|j| j % 64 == i).unwrap();
            let expect = (last_write % 251) as u8;
            let (_, out) = dev.host_read_page(Lpn(i), t).unwrap();
            assert_eq!(out.unwrap()[0], expect, "lpn {i}");
        }
        // Rescue copies fold into write amplification.
        if dev.stats().rescue_copies.get() > 0 {
            assert!(dev.stats().waf() > 1.0);
        }
    }

    #[test]
    fn read_faults_retry_then_surface_typed_error() {
        use nandsim::FaultConfig;
        // Moderate rate: retries mask most faults.
        let fault = FaultConfig {
            seed: 3,
            program_fail: 0.0,
            erase_fail: 0.0,
            read_uncorrectable: 0.3,
            wear_coupling: false,
        };
        let mut dev = Device::new_functional(SsdConfig::tiny().with_fault(fault));
        let data = page(&dev, 0x5A);
        let w = dev
            .host_write_page(Lpn(0), Some(&data), SimTime::ZERO)
            .unwrap();
        let mut t = w.end;
        let mut served = 0u32;
        for _ in 0..64 {
            match dev.host_read_page(Lpn(0), t) {
                Ok((r, out)) => {
                    assert_eq!(out.unwrap().as_ref(), &data[..]);
                    served += 1;
                    t = r.end;
                }
                Err(SsdError::UncorrectableRead { lpn, attempts }) => {
                    assert_eq!(lpn, Lpn(0));
                    assert_eq!(attempts, dev.config().retry.max_retries + 1);
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(served > 0, "retries must mask some faults");
        assert!(dev.stats().read_retries.get() > 0);

        // Rate 1.0: every attempt fails, the typed error always surfaces
        // and each failure burned the full retry budget.
        let certain = FaultConfig {
            read_uncorrectable: 1.0,
            ..fault
        };
        let mut dev = Device::new_functional(SsdConfig::tiny().with_fault(certain));
        let w = dev
            .host_write_page(Lpn(1), Some(&data), SimTime::ZERO)
            .unwrap();
        let err = dev.host_read_page(Lpn(1), w.end).unwrap_err();
        assert!(matches!(err, SsdError::UncorrectableRead { .. }));
        assert_eq!(dev.stats().uncorrectable_reads.get(), 1);
        assert_eq!(
            dev.stats().read_retries.get(),
            dev.config().retry.max_retries as u64
        );
    }

    #[test]
    fn erase_failures_retire_gc_victims() {
        use nandsim::FaultConfig;
        // Every retirement is permanent, so the rate must stay below what
        // the tiny device's over-provisioning can absorb over the run.
        let fault = FaultConfig {
            seed: 77,
            program_fail: 0.0,
            erase_fail: 0.02,
            read_uncorrectable: 0.0,
            wear_coupling: false,
        };
        let mut dev = Device::new_functional(SsdConfig::tiny().with_fault(fault));
        // GC-heavy workload: rewrite a majority working set repeatedly.
        let lpns = (dev.logical_pages() * 3) / 5;
        let data = page(&dev, 0xEE);
        let mut t = SimTime::ZERO;
        for _ in 0..4 {
            for i in 0..lpns {
                dev.host_write_page(Lpn(i), Some(&data), t).unwrap();
                t += simkit::SimDuration::from_us(1);
            }
        }
        assert!(
            dev.stats().erase_failures.get() > 0,
            "erase faults must fire"
        );
        assert!(
            dev.stats().retired_blocks.get() > 0,
            "failed erases retire blocks"
        );
        assert!(
            dev.stats().erases.get() > 0,
            "successful GC continues regardless"
        );
        // Data stays intact through retirement.
        let (_, out) = dev.host_read_page(Lpn(0), t).unwrap();
        assert_eq!(out.unwrap().as_ref(), &data[..]);
    }

    #[test]
    fn same_fault_seed_reproduces_identical_device_state() {
        use nandsim::FaultConfig;
        let run = |seed: u64| {
            let fault = FaultConfig {
                seed,
                program_fail: 0.03,
                erase_fail: 0.02,
                read_uncorrectable: 0.01,
                wear_coupling: false,
            };
            let mut dev = Device::new_functional(SsdConfig::tiny().with_fault(fault));
            let mut t = SimTime::ZERO;
            for i in 0..500u64 {
                let data = vec![(i & 0xFF) as u8; dev.page_bytes()];
                let w = dev.host_write_page(Lpn(i % 40), Some(&data), t).unwrap();
                t = w.end;
                if i % 7 == 0 {
                    // Reads may legitimately stay uncorrectable; either
                    // outcome must reproduce.
                    let _ = dev.host_read_page(Lpn(i % 40), t);
                }
            }
            let retired: Vec<u64> = dev
                .channels()
                .iter()
                .flat_map(|c| c.dies())
                .map(Die::retired_blocks)
                .collect();
            (
                t,
                dev.quiesce_time(),
                retired,
                dev.stats().program_failures.get(),
                dev.stats().erase_failures.get(),
                dev.stats().read_retries.get(),
                dev.total_erases(),
            )
        };
        assert_eq!(run(42), run(42), "same seed ⇒ identical final state");
        assert_ne!(
            run(42).3,
            run(43).3,
            "different seeds ⇒ different fault sequences"
        );
    }

    #[test]
    fn inactive_fault_config_is_timing_identical_to_none() {
        use nandsim::FaultConfig;
        let run = |cfg: SsdConfig| {
            let mut dev = Device::new(cfg);
            let mut t = SimTime::ZERO;
            for i in 0..300u64 {
                let w = dev.host_write_page(Lpn(i % 50), None, t).unwrap();
                t = w.end;
            }
            (t, dev.quiesce_time(), dev.total_erases())
        };
        let plain = run(SsdConfig::tiny());
        let zero_rate = run(SsdConfig::tiny().with_fault(FaultConfig::uniform(99, 0.0)));
        assert_eq!(plain, zero_rate, "zero-rate faults must not perturb timing");
    }

    #[test]
    fn fault_events_appear_in_trace_and_gantt() {
        use crate::trace::gantt;
        use nandsim::FaultConfig;
        let fault = FaultConfig {
            seed: 5,
            program_fail: 0.3,
            erase_fail: 0.0,
            read_uncorrectable: 0.0,
            wear_coupling: false,
        };
        let mut dev = Device::new(SsdConfig::tiny().with_fault(fault));
        dev.enable_trace(4096);
        let mut t = SimTime::ZERO;
        for i in 0..64u64 {
            let w = dev.host_write_page(Lpn(i), None, t).unwrap();
            t = w.end;
        }
        let events = dev.trace_events().unwrap();
        let fails = events
            .iter()
            .filter(|e| e.kind == OpKind::ProgramFail)
            .count();
        assert!(fails > 0, "program failures must be traced");
        assert_eq!(fails as u64, dev.stats().program_failures.get());
        let g = gantt(&events, simkit::SimDuration::from_us(200), 120);
        assert!(g.contains('x'), "fault glyph missing from gantt:\n{g}");
    }

    fn journaled(interval: u32) -> Device {
        Device::new_functional(
            SsdConfig::tiny().with_journal(crate::config::JournalConfig::every(interval)),
        )
    }

    fn journaled_phantom(interval: u32) -> Device {
        Device::new(SsdConfig::tiny().with_journal(crate::config::JournalConfig::every(interval)))
    }

    #[test]
    fn journaled_device_round_trips_and_flushes() {
        let mut dev = journaled(4);
        let mut t = SimTime::ZERO;
        dev.begin_epoch(1);
        for i in 0..12u64 {
            let data = vec![i as u8; dev.page_bytes()];
            let w = dev.host_write_page(Lpn(i), Some(&data), t).unwrap();
            t = w.end;
        }
        t = dev.commit_epoch(t).unwrap();
        assert!(dev.stats().journal_pages.get() > 0);
        assert!(dev.stats().journal_flushes.get() >= 3, "12 writes / 4");
        assert_eq!(dev.committed_epoch(), 1);
        for i in 0..12u64 {
            let (_, out) = dev.host_read_page(Lpn(i), t).unwrap();
            assert_eq!(out.unwrap()[0], i as u8);
        }
    }

    #[test]
    fn power_loss_kills_device_until_mount() {
        let mut dev = journaled_phantom(8);
        dev.arm_power_loss(PowerLossConfig::at(SimTime::from_us(40)));
        let mut t = SimTime::ZERO;
        dev.begin_epoch(1);
        let mut crashed = false;
        for i in 0..200u64 {
            match dev.host_write_page(Lpn(i % 16), None, t) {
                Ok(w) => t = w.end,
                Err(SsdError::PowerLoss { at }) => {
                    assert_eq!(at, SimTime::from_us(40));
                    crashed = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(crashed, "the armed instant must fire inside the workload");
        assert!(dev.power_failed_at().is_some());
        // Everything fails until mount.
        assert!(matches!(
            dev.host_read_page(Lpn(0), t),
            Err(SsdError::PowerLoss { .. })
        ));
        assert!(matches!(
            dev.host_write_page(Lpn(0), None, t),
            Err(SsdError::PowerLoss { .. })
        ));
        let report = dev.mount(SimTime::from_us(50)).unwrap();
        assert!(dev.power_failed_at().is_none());
        assert_eq!(report.committed_epoch, 0, "epoch 1 never committed");
        assert_eq!(dev.stats().mounts.get(), 1);
        // The device is serviceable again.
        dev.begin_epoch(1);
        let w = dev
            .host_write_page(Lpn(0), None, report.window.end)
            .unwrap();
        dev.commit_epoch(w.end).unwrap();
    }

    #[test]
    fn mount_rolls_back_uncommitted_epoch() {
        let mut dev = journaled(64);
        let a = page(&dev, 0xAA);
        let b = page(&dev, 0xBB);
        dev.begin_epoch(1);
        let w = dev
            .host_write_page(Lpn(3), Some(&a), SimTime::ZERO)
            .unwrap();
        let t = dev.commit_epoch(w.end).unwrap();
        dev.begin_epoch(2);
        let w = dev.host_write_page(Lpn(3), Some(&b), t).unwrap();
        // No commit for epoch 2: mount must roll lpn 3 back to A.
        let report = dev.mount(w.end).unwrap();
        assert_eq!(report.committed_epoch, 1);
        assert!(report.uncommitted_discarded >= 1);
        assert_eq!(dev.committed_epoch(), 1);
        let (_, out) = dev.host_read_page(Lpn(3), report.window.end).unwrap();
        assert_eq!(out.unwrap().as_ref(), &a[..]);
    }

    #[test]
    fn mount_preserves_committed_state_bit_exactly() {
        let mut dev = journaled(16);
        let mut t = SimTime::ZERO;
        for epoch in 1..=3u64 {
            dev.begin_epoch(epoch);
            for i in 0..24u64 {
                let data = vec![(epoch * 40 + i) as u8; dev.page_bytes()];
                let w = dev.host_write_page(Lpn(i), Some(&data), t).unwrap();
                t = w.end;
            }
            t = dev.commit_epoch(t).unwrap();
        }
        let mapped_before = dev.ftl().mapped_pages();
        let report = dev.mount(t).unwrap();
        assert_eq!(report.committed_epoch, 3);
        assert_eq!(report.pages_recovered, 24);
        assert_eq!(dev.ftl().mapped_pages(), mapped_before);
        for i in 0..24u64 {
            let (_, out) = dev.host_read_page(Lpn(i), report.window.end).unwrap();
            assert_eq!(out.unwrap()[0], (3 * 40 + i) as u8, "lpn {i}");
        }
    }

    #[test]
    fn journal_interval_trades_scan_cost_for_journal_writes() {
        // Crash mid-epoch (no commit): pages whose Map entries were flushed
        // are journal-covered; the unflushed tail must be OOB-scanned.
        let run = |interval: u32| {
            let mut dev = journaled_phantom(interval);
            let mut t = SimTime::ZERO;
            dev.begin_epoch(1);
            for i in 0..30u64 {
                let w = dev.host_write_page(Lpn(i), None, t).unwrap();
                t = w.end;
            }
            let report = dev.mount(t).unwrap();
            (report.pages_scanned, dev.stats().journal_pages.get())
        };
        let (scan_tight, pages_tight) = run(4);
        let (scan_loose, pages_loose) = run(64);
        assert!(
            scan_tight < scan_loose,
            "frequent flushes must shrink the scan: {scan_tight} vs {scan_loose}"
        );
        assert!(
            pages_tight > pages_loose,
            "frequent flushes must cost journal pages: {pages_tight} vs {pages_loose}"
        );
    }

    #[test]
    fn torn_page_is_discarded_on_mount() {
        // Learn the program window from a clean run, then crash a fresh
        // device in the middle of that exact window.
        let probe_window = {
            let mut dev = journaled(64);
            dev.begin_epoch(1);
            dev.internal_program(Lpn(0), None, Some(&page(&dev, 1)), SimTime::ZERO, false)
                .unwrap()
        };
        let mid = probe_window.start + (probe_window.end - probe_window.start) / 2;
        assert!(mid > probe_window.start && mid < probe_window.end);

        let mut dev = journaled(64);
        dev.begin_epoch(1);
        dev.arm_power_loss(PowerLossConfig::at(mid));
        let err = dev
            .internal_program(Lpn(0), None, Some(&page(&dev, 1)), SimTime::ZERO, false)
            .unwrap_err();
        assert!(matches!(err, SsdError::PowerLoss { .. }));
        let report = dev.mount(probe_window.end).unwrap();
        assert_eq!(report.torn_discarded, 1);
        assert_eq!(report.pages_recovered, 0);
        assert_eq!(dev.stats().torn_pages_discarded.get(), 1);
        assert!(matches!(
            dev.host_read_page(Lpn(0), report.window.end),
            Err(SsdError::Unmapped(_))
        ));
    }

    #[test]
    fn double_crash_during_mount_then_second_mount_succeeds() {
        let mut dev = journaled(4);
        let data = page(&dev, 0x77);
        let mut t = SimTime::ZERO;
        dev.begin_epoch(1);
        for i in 0..8u64 {
            let w = dev.host_write_page(Lpn(i), Some(&data), t).unwrap();
            t = w.end;
        }
        t = dev.commit_epoch(t).unwrap();
        // Second crash lands one nanosecond into the mount: the replay of
        // the first journal page crosses it.
        let crash = t + simkit::SimDuration::from_ns(1);
        dev.arm_power_loss(PowerLossConfig::at(crash));
        let err = dev.mount(t).unwrap_err();
        assert!(matches!(err, SsdError::PowerLoss { .. }));
        assert!(dev.power_failed_at().is_some());
        // Mounting again after the (consumed) crash instant succeeds and
        // recovers the committed state.
        let report = dev.mount(crash + simkit::SimDuration::from_us(1)).unwrap();
        assert_eq!(report.committed_epoch, 1);
        assert_eq!(report.pages_recovered, 8);
        for i in 0..8u64 {
            let (_, out) = dev.host_read_page(Lpn(i), report.window.end).unwrap();
            assert_eq!(out.unwrap().as_ref(), &data[..]);
        }
    }

    #[test]
    fn journal_free_device_rejects_mount_state_and_keeps_old_paths() {
        let dev = Device::new(SsdConfig::tiny());
        assert_eq!(dev.committed_epoch(), 0);
        let mut dev = Device::new(SsdConfig::tiny());
        dev.begin_epoch(5);
        assert_eq!(dev.current_epoch(), 0, "begin_epoch is inert w/o journal");
        let end = dev.commit_epoch(SimTime::from_us(3)).unwrap();
        assert_eq!(end, SimTime::from_us(3), "commit_epoch is a no-op");
        assert_eq!(dev.stats().journal_flushes.get(), 0);
    }

    #[test]
    fn static_wear_leveling_recycles_cold_blocks() {
        let run = |threshold: Option<u64>| {
            let mut cfg = SsdConfig::tiny();
            cfg.gc.static_wl_threshold = threshold;
            let mut dev = Device::new(cfg);
            let pages = dev.logical_pages();
            // Cold data fills most of the device once; a small hot set is
            // rewritten continuously.
            for i in 0..pages {
                dev.host_write_page(Lpn(i), None, SimTime::ZERO).unwrap();
            }
            for _ in 0..80 {
                for i in 0..pages / 10 {
                    dev.host_write_page(Lpn(i), None, SimTime::ZERO).unwrap();
                }
            }
            crate::stats::wear_imbalance(dev.erase_counts())
        };
        let without = run(None);
        let with = run(Some(3));
        assert!(
            with < without * 0.8,
            "static WL must level wear: {with:.2} vs {without:.2}"
        );
    }

    fn rained() -> Device {
        Device::new_functional(SsdConfig::tiny().with_rain(crate::config::RainConfig::rotating()))
    }

    /// Writes `n` pages with per-LPN fill bytes and commits, returning the
    /// end time.
    fn write_and_commit(dev: &mut Device, n: u64, salt: u8, at: SimTime) -> SimTime {
        let mut t = at;
        for i in 0..n {
            let data = page(dev, (i as u8).wrapping_add(salt));
            let w = dev.host_write_page(Lpn(i), Some(&data), t).unwrap();
            t = w.end;
        }
        dev.commit_epoch(t).unwrap()
    }

    #[test]
    fn rain_reconstructs_single_loss_bit_exactly() {
        let mut dev = rained();
        dev.enable_trace(4096);
        let t = write_and_commit(&mut dev, 32, 0, SimTime::ZERO);
        assert!(dev.parity_clean());
        assert!(dev.stats().parity_writes.get() > 0, "parity must be built");

        dev.inject_page_loss(Lpn(7)).unwrap();
        let (r, out) = dev.host_read_page(Lpn(7), t).unwrap();
        assert_eq!(out.unwrap().as_ref(), &page(&dev, 7)[..]);
        assert_eq!(dev.stats().parity_reconstructions.get(), 1);
        assert_eq!(
            dev.stats().uncorrectable_reads.get(),
            0,
            "a reconstructed read is not a data loss"
        );
        // The page was re-homed: the next read is clean, no second repair.
        let (_, out2) = dev.host_read_page(Lpn(7), r.end).unwrap();
        assert_eq!(out2.unwrap().as_ref(), &page(&dev, 7)[..]);
        assert_eq!(dev.stats().parity_reconstructions.get(), 1);

        let events = dev.trace_events().unwrap();
        assert!(events.iter().any(|e| e.kind == OpKind::ParityWrite));
        assert!(events.iter().any(|e| e.kind == OpKind::ParityRepair));
    }

    #[test]
    fn double_loss_in_one_stripe_surfaces_uncorrectable() {
        let mut dev = rained();
        let t = write_and_commit(&mut dev, 32, 0, SimTime::ZERO);
        // tiny() has 4 dies → stripe width 3: LPNs 0..3 share stripe 0.
        dev.inject_page_loss(Lpn(0)).unwrap();
        dev.inject_page_loss(Lpn(1)).unwrap();
        let err = dev.host_read_page(Lpn(0), t).unwrap_err();
        assert!(matches!(err, SsdError::UncorrectableRead { .. }));
        assert_eq!(dev.stats().uncorrectable_reads.get(), 1);
        assert_eq!(dev.stats().parity_reconstructions.get(), 0);
        // A loss in an unrelated stripe is still repairable.
        dev.inject_page_loss(Lpn(9)).unwrap();
        let (_, out) = dev.host_read_page(Lpn(9), t).unwrap();
        assert_eq!(out.unwrap().as_ref(), &page(&dev, 9)[..]);
        assert_eq!(dev.stats().parity_reconstructions.get(), 1);
    }

    #[test]
    fn loss_in_dirty_stripe_is_not_reconstructable() {
        let mut dev = rained();
        let t = write_and_commit(&mut dev, 8, 0, SimTime::ZERO);
        // Dirty stripe 0 by rewriting one member, then lose another member
        // before the parity rebuild: the stale parity must not be trusted.
        let w = dev
            .host_write_page(Lpn(0), Some(&page(&dev, 0xEE)), t)
            .unwrap();
        assert!(!dev.parity_clean());
        dev.inject_page_loss(Lpn(1)).unwrap();
        let err = dev.host_read_page(Lpn(1), w.end).unwrap_err();
        assert!(matches!(err, SsdError::UncorrectableRead { .. }));
        assert_eq!(dev.stats().uncorrectable_reads.get(), 1);
    }

    #[test]
    fn parity_pages_reconstruct_from_data_members() {
        let cfg = SsdConfig::tiny()
            .with_rain(crate::config::RainConfig::rotating())
            .with_scrub(crate::config::ScrubConfig::per_step(4096));
        let mut dev = Device::new_functional(cfg);
        let t = write_and_commit(&mut dev, 8, 3, SimTime::ZERO);
        // Destroy a parity page; the scrub patrol (the only reader of
        // parity LPNs) rebuilds it from the data members.
        let parity_lpn = Lpn(dev.logical_pages());
        assert!(dev.ftl().lookup(parity_lpn).is_some(), "parity mapped");
        dev.inject_page_loss(parity_lpn).unwrap();
        let (_, report) = dev.scrub_tick(t).unwrap();
        assert_eq!(report.repairs, 1, "{report:?}");
        assert_eq!(report.unrecovered, 0);
        assert_eq!(dev.stats().scrub_repairs.get(), 1);
        // Repaired: a data loss in that stripe is survivable again.
        dev.inject_page_loss(Lpn(0)).unwrap();
        let (_, out) = dev.host_read_page(Lpn(0), t).unwrap();
        assert_eq!(out.unwrap().as_ref(), &page(&dev, 3)[..]);
    }

    #[test]
    fn scrub_repairs_latent_loss_before_it_doubles() {
        let cfg = SsdConfig::tiny()
            .with_rain(crate::config::RainConfig::rotating())
            .with_scrub(crate::config::ScrubConfig::per_step(4096));
        let mut dev = Device::new_functional(cfg);
        let t = write_and_commit(&mut dev, 16, 1, SimTime::ZERO);
        dev.inject_page_loss(Lpn(5)).unwrap();
        let (end, report) = dev.scrub_tick(t).unwrap();
        assert!(end > t);
        assert_eq!(report.repairs, 1, "{report:?}");
        assert!(report.pages_read >= 16);
        assert_eq!(dev.stats().scrub_reads.get(), report.pages_read);
        // Losing a *second* member of the same stripe now is survivable —
        // the scrub already re-homed the first loss.
        dev.inject_page_loss(Lpn(4)).unwrap();
        let (_, out) = dev.host_read_page(Lpn(4), end).unwrap();
        assert_eq!(out.unwrap().as_ref(), &page(&dev, 5)[..]);
        // A clean follow-up sweep finds nothing to do.
        let (_, quiet) = dev.scrub_tick(end).unwrap();
        assert_eq!(quiet.repairs, 0);
        assert_eq!(quiet.unrecovered, 0);
    }

    #[test]
    fn scrub_refreshes_pages_aged_toward_the_ecc_ceiling() {
        let ceiling = {
            let probe = Device::new(SsdConfig::tiny());
            probe
                .die(DieId {
                    channel: 0,
                    index: 0,
                })
                .rber_model()
                .ecc_ceiling
        };
        // Retention alone crosses half the ceiling within ~25 simulated
        // seconds; read disturb off to keep the test single-cause.
        let aging = nandsim::AgingConfig {
            read_disturb_per_read: 0.0,
            retention_per_sec: ceiling / 50.0,
        };
        let cfg = SsdConfig::tiny()
            .with_aging(aging)
            .with_rain(crate::config::RainConfig::rotating())
            .with_scrub(crate::config::ScrubConfig::per_step(4096));
        let mut dev = Device::new(cfg);
        let mut t = SimTime::ZERO;
        for i in 0..16u64 {
            t = dev.host_write_page(Lpn(i), None, t).unwrap().end;
        }
        t = dev.commit_epoch(t).unwrap();
        // Young data: nothing to refresh.
        let (t_young, young) = dev.scrub_tick(t).unwrap();
        assert_eq!(young.refreshes, 0, "{young:?}");
        // A long retention pause ages every block past the threshold.
        let late = t_young + simkit::SimDuration::from_secs(100);
        let (_, old) = dev.scrub_tick(late).unwrap();
        assert!(old.refreshes > 0, "{old:?}");
        assert_eq!(dev.stats().scrub_refreshes.get(), old.refreshes);
        // The rewrite reset the retention clock: an immediate re-sweep
        // finds the refreshed pages young again.
        let (_, again) = dev.scrub_tick(late).unwrap();
        assert!(again.refreshes < old.refreshes, "{again:?} vs {old:?}");
    }

    #[test]
    fn parity_survives_gc_churn() {
        let mut dev = rained();
        // Parity pages consume over-provisioning headroom, so fill only
        // half the logical space and churn within it.
        let pages = dev.logical_pages() / 2;
        let mut t = SimTime::ZERO;
        for i in 0..pages {
            t = dev
                .host_write_page(Lpn(i), Some(&page(&dev, i as u8)), t)
                .unwrap()
                .end;
        }
        t = dev.commit_epoch(t).unwrap();
        // Hot rewrites force GC; every epoch rebuilds the touched parity.
        for round in 0..20u8 {
            for i in 0..pages / 8 {
                let fill = (i as u8).wrapping_add(round);
                t = dev
                    .host_write_page(Lpn(i), Some(&page(&dev, fill)), t)
                    .unwrap()
                    .end;
            }
            t = dev.commit_epoch(t).unwrap();
        }
        assert!(dev.stats().erases.get() > 0, "GC must have run");
        assert!(dev.parity_clean());
        // Relocations did not invalidate parity: a fresh loss anywhere is
        // still reconstructable, bit-exactly.
        dev.inject_page_loss(Lpn(1)).unwrap();
        let (_, out) = dev.host_read_page(Lpn(1), t).unwrap();
        assert_eq!(out.unwrap().as_ref(), &page(&dev, 1u8.wrapping_add(19))[..]);
        assert_eq!(dev.stats().parity_reconstructions.get(), 1);
        assert_eq!(dev.stats().uncorrectable_reads.get(), 0);
    }

    #[test]
    fn rain_composes_with_journal_and_mount() {
        let cfg = SsdConfig::tiny()
            .with_journal(crate::config::JournalConfig::every(4))
            .with_rain(crate::config::RainConfig::rotating());
        let mut dev = Device::new_functional(cfg);
        dev.begin_epoch(1);
        let t = write_and_commit(&mut dev, 12, 9, SimTime::ZERO);
        // Mount rebuilds the FTL (including the internal parity LPNs) from
        // journal + OOB alone.
        let report = dev.mount(t).unwrap();
        assert_eq!(report.committed_epoch, 1);
        let t = report.window.end;
        assert!(
            dev.ftl().lookup(Lpn(dev.logical_pages())).is_some(),
            "parity mapping must survive mount"
        );
        dev.inject_page_loss(Lpn(2)).unwrap();
        let (_, out) = dev.host_read_page(Lpn(2), t).unwrap();
        assert_eq!(out.unwrap().as_ref(), &page(&dev, 11)[..]);
        assert_eq!(dev.stats().parity_reconstructions.get(), 1);
        // And the device keeps journaling afterwards.
        dev.begin_epoch(2);
        let t2 = {
            let w = dev
                .host_write_page(Lpn(0), Some(&page(&dev, 0xAB)), t)
                .unwrap();
            dev.commit_epoch(w.end).unwrap()
        };
        assert_eq!(dev.committed_epoch(), 2);
        let (_, out) = dev.host_read_page(Lpn(0), t2).unwrap();
        assert_eq!(out.unwrap().as_ref(), &page(&dev, 0xAB)[..]);
    }

    #[test]
    fn inject_page_loss_validates_its_target() {
        let mut dev = rained();
        let cap = dev.config().addressable_pages();
        assert!(matches!(
            dev.inject_page_loss(Lpn(cap)),
            Err(SsdError::LpnOutOfRange { .. })
        ));
        assert!(matches!(
            dev.inject_page_loss(Lpn(0)),
            Err(SsdError::Unmapped(_))
        ));
        // Scrub on a rain-less, scrub-less device is a free no-op.
        let mut plain = Device::new(SsdConfig::tiny());
        let (end, report) = plain.scrub_tick(SimTime::from_us(5)).unwrap();
        assert_eq!(end, SimTime::from_us(5));
        assert_eq!(report, ScrubReport::default());
    }
}
