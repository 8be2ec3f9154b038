//! The SSD device: host interface, controller resources, FTL orchestration
//! and the internal operations used by in-storage processing. The opt-in
//! subsystems live in submodules that own their state (see DESIGN.md's
//! `ssd::device` module map): `gc`, `journal`, `mount`, `rain`, `scrub`.

mod gc;
mod journal;
mod mount;
mod rain;
mod scrub;

pub use mount::MountReport;
pub use scrub::ScrubReport;

use crate::address::{DieId, Lpn, Ppa};
use crate::channel::Channel;
use crate::config::SsdConfig;
use crate::error::SsdError;
use crate::ftl::Ftl;
use crate::stats::DeviceStats;
use crate::trace::{OpKind, TraceEvent, TraceLog};
use gc::StaticWl;
pub(crate) use gc::GC_HIGH_WATERMARK;
use journal::Journal;
use nandsim::{Die, FaultStats, NandError, PowerLossConfig};
use rain::Rain;
use scrub::Scrub;
use simkit::pool::PageBuf;
use simkit::{BandwidthLink, SimTime, Window};
use std::collections::BTreeSet;

/// Re-issues of a sense that came back ECC-uncorrectable (total attempts
/// are one more). Before re-issue *n* (1-based) the controller backs off
/// `n` lower-page read times after the failed sense releases the plane.
const READ_RETRIES: u32 = 4;

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
    /// Set when a power loss surfaced: the device refuses all work until
    /// the next `mount`.
    dead: Option<SimTime>,
    /// Static wear levelling ([`crate::GcPolicy::static_wl_threshold`]).
    wl: Option<StaticWl>,
    /// Crash-consistency journal ([`SsdConfig::journal`]).
    journal: Option<Journal>,
    /// Die-level parity ([`SsdConfig::rain`]).
    rain: Option<Rain>,
    /// Patrol scrub ([`SsdConfig::scrub`]).
    scrub: Option<Scrub>,
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

/// Where a front-door read ([`Device::read`]) delivers its page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPath {
    /// Into the die's page register, where an on-die engine consumes it:
    /// an array read only, with no bus, DRAM or PCIe traffic.
    Array,
    /// To the controller, as a channel-level engine reads an operand: the
    /// array read plus the channel bus transfer.
    Channel,
    /// To the host: the channel path, then controller DRAM and PCIe out.
    Host,
}

/// Which physical path a retried read takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadRoute {
    /// Die-internal array sense only (data stays on-die).
    Array,
    /// Array sense plus ONFI transfer to the controller.
    Channel,
    /// A stripe peer read inside reconstruction or parity rebuild: the
    /// channel route (peers are XORed in the controller), but no recursive
    /// recovery — a second unreadable page in the stripe is exactly the
    /// double loss parity cannot cover — and no terminal
    /// `uncorrectable_reads` charge: the outer read accounts the loss once.
    Peer,
}

impl Device {
    /// Creates a phantom-mode device (timing and state only, no page data).
    ///
    /// # Panics
    /// If `config` fails [`SsdConfig::validate`]. Callers that take a
    /// configuration from outside check it first:
    /// `optimstore_core::OptimStoreDevice::new` returns a failed check as
    /// `CoreError::Config`.
    pub fn new(config: SsdConfig) -> Self {
        Self::build(config, false)
    }

    /// Creates a functional device that stores every page's bytes.
    ///
    /// # Panics
    /// If `config` fails [`SsdConfig::validate`], as [`Device::new`].
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
                let t = &config.nand.timing;
                let bus = BandwidthLink::with_overhead(t.bus_bytes_per_sec(), t.t_cmd_overhead);
                Channel::new(ch, bus, dies)
            })
            .collect();
        let ftl = Ftl::new(&config, channels.iter().flat_map(Channel::dies));
        let pcie = config.pcie.bytes_per_sec();
        Device {
            channels,
            ftl,
            pcie_in: BandwidthLink::new(pcie),
            pcie_out: BandwidthLink::new(pcie),
            dram: BandwidthLink::new(config.dram_bytes_per_sec),
            stats: DeviceStats::default(),
            functional,
            logical_pages: config.logical_pages(),
            trace: None,
            dead: None,
            wl: config.gc.static_wl_threshold.map(|threshold| StaticWl {
                threshold,
                erases_since_scan: vec![0; config.total_dies() as usize],
            }),
            journal: config.journal.map(|j| Journal {
                flush_interval: j.flush_interval,
                ..Journal::default()
            }),
            rain: config.stripe_data_width().map(|width| Rain {
                width,
                dirty: BTreeSet::new(),
            }),
            scrub: config.scrub.map(|s| Scrub {
                pages_per_tick: s.pages_per_tick,
                cursor: 0,
            }),
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

    /// Every die, in flat (channel-major) order.
    fn dies(&self) -> impl Iterator<Item = &Die> {
        self.channels.iter().flat_map(Channel::dies)
    }

    /// Every die, mutably, in flat order.
    fn dies_mut(&mut self) -> impl Iterator<Item = &mut Die> {
        self.channels.iter_mut().flat_map(Channel::dies_mut)
    }

    /// Aggregated injected-fault counters across every die (all zero when
    /// fault injection is disarmed).
    pub fn fault_stats(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for s in self.dies().filter_map(Die::fault_stats) {
            total.program_failures += s.program_failures;
            total.erase_failures += s.erase_failures;
            total.read_uncorrectable += s.read_uncorrectable;
        }
        total
    }

    /// Blocks out of service across every die: recovery-policy retirements
    /// after media faults plus wear-out retirements at rated P/E cycles.
    pub fn retired_blocks(&self) -> u64 {
        self.dies().map(Die::retired_blocks).sum()
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
        for die in self.dies_mut() {
            die.set_power_loss(Some(t));
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
            if let Some(journal) = &mut self.journal {
                journal.lose_ram();
            }
            // RAM-held too: after the power cycle mount rolls every stripe
            // back to its committed (parity-consistent) state.
            if let Some(rain) = &mut self.rain {
                rain.dirty.clear();
            }
        }
        r
    }

    /// The channels (read-only).
    pub fn channels(&self) -> &[Channel] {
        &self.channels
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

    /// Moves `bytes` from the host over PCIe into controller DRAM and out
    /// again (store-and-forward: one DRAM write, one DRAM read), from
    /// `at`. Returns the PCIe window and when the bytes leave DRAM.
    pub fn forward_from_host(&mut self, bytes: u64, at: SimTime) -> (Window, SimTime) {
        let pcie = self.pcie_in.transfer(at, bytes);
        let dram_in = self.dram.transfer(pcie.end, bytes);
        let dram = self.dram.transfer(dram_in.end, bytes);
        (pcie, dram.end)
    }

    /// Moves `bytes` over the channel bus of `die`, from `at` (an NDP
    /// engine's operand or gradient hop).
    pub fn bus_transfer(&mut self, die: DieId, bytes: u64, at: SimTime) -> Window {
        self.channels[die.channel as usize].bus.transfer(at, bytes)
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

    /// Shared prologue of the write front doors: the device is alive, the
    /// page is host-addressable, and the payload is one page (required on a
    /// functional device).
    fn check_write(&self, lpn: Lpn, data: Option<&[u8]>) -> Result<(), SsdError> {
        self.check_alive()?;
        self.check_lpn(lpn)?;
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
    /// Returns the full persistence window. The bytes are copied into a
    /// pooled page; [`Self::host_write_buf`] hands one over instead.
    pub fn host_write_page(
        &mut self,
        lpn: Lpn,
        data: Option<&[u8]>,
        at: SimTime,
    ) -> Result<Window, SsdError> {
        self.host_write_buf(lpn, data.map(PageBuf::copy_of), at)
    }

    /// [`Self::host_write_page`] of a pooled page, which the die stores
    /// as it is: no copy.
    pub fn host_write_buf(
        &mut self,
        lpn: Lpn,
        data: Option<PageBuf>,
        at: SimTime,
    ) -> Result<Window, SsdError> {
        self.check_write(lpn, data.as_deref())?;
        let (pcie, dram_out) = self.forward_from_host(self.page_bytes() as u64, at);
        self.stats.pcie_in_busy += pcie.duration();
        let die = self
            .ftl
            .lookup(lpn)
            .map(|p| p.die)
            .unwrap_or_else(|| self.die_for_lpn(lpn));
        let win = {
            let r = self.program_internal(lpn, die, data, dram_out, true);
            self.observe(r)?
        };
        self.stats.host_writes.incr();
        self.stats.user_programs.incr();
        Ok(Window {
            start: pcie.start,
            end: win.end,
        })
    }

    /// Reads one host page: array read → channel bus → DRAM → PCIe out
    /// ([`ReadPath::Host`]). On a functional device the host interface
    /// hands the page over in a pooled copy.
    pub fn host_read_page(
        &mut self,
        lpn: Lpn,
        at: SimTime,
    ) -> Result<(Window, Option<PageBuf>), SsdError> {
        let win = self.read(lpn, ReadPath::Host, at)?;
        let served = self.ftl.lookup(lpn).ok_or(SsdError::Unmapped(lpn))?;
        Ok((win, self.copy_page(served)?))
    }

    /// **In-storage read, die-local** ([`ReadPath::Array`]): the page lands
    /// in the die's page register where an on-die engine consumes it. No
    /// bus, DRAM, or PCIe traffic.
    pub fn internal_read_array(&mut self, lpn: Lpn, at: SimTime) -> Result<Window, SsdError> {
        self.read(lpn, ReadPath::Array, at)
    }

    /// A pooled copy of the bytes of `ppa`, a page a read just served, for
    /// a relocating program to adopt or the host to take; none on a
    /// phantom device.
    pub(super) fn copy_page(&self, ppa: Ppa) -> Result<Option<PageBuf>, SsdError> {
        Ok(match self.functional {
            true => Some(PageBuf::copy_of(self.die(ppa.die).page_data(ppa.page)?)),
            false => None,
        })
    }

    /// Borrows the bytes of mapped page `lpn` where they rest in its die's
    /// page store: what an engine consumes from the page register or the
    /// controller after the page was read.
    ///
    /// Untimed and unaccounted: valid only for a page that a timed read
    /// ([`Self::read`]) already served. The page is resolved through the
    /// mapping now, so a page that GC relocated, or that a degraded read
    /// re-homed, since that read is still found. Fails with [`SsdError::Unmapped`] for an unmapped
    /// page and with `NandError::NoData` for one that holds no bytes — a
    /// phantom device's, or a released one's.
    pub fn sensed_page(&self, lpn: Lpn) -> Result<&[u8], SsdError> {
        self.check_lpn(lpn)?;
        let ppa = self.ftl.lookup(lpn).ok_or(SsdError::Unmapped(lpn))?;
        Ok(self.die(ppa.die).page_data(ppa.page)?)
    }

    /// Reads mapped page `lpn` along `path`, starting no earlier than `at`,
    /// and returns the read's window. The one front door every read goes
    /// through: the device is alive and `lpn` is host-addressable and
    /// mapped; then the retried read (with RAIN reconstruction), traced,
    /// and for [`ReadPath::Host`] the DRAM and PCIe legs.
    ///
    /// The read is timed and accounted but delivers no bytes: a consumer
    /// borrows them afterwards with [`Self::sensed_page`].
    pub fn read(&mut self, lpn: Lpn, path: ReadPath, at: SimTime) -> Result<Window, SsdError> {
        self.check_alive()?;
        self.check_lpn(lpn)?;
        let ppa = self.ftl.lookup(lpn).ok_or(SsdError::Unmapped(lpn))?;
        let route = match path {
            ReadPath::Array => ReadRoute::Array,
            ReadPath::Channel | ReadPath::Host => ReadRoute::Channel,
        };
        let (win, _) = {
            let r = self.read_with_retry(lpn, ppa, at, route);
            self.observe(r)?
        };
        self.trace_op(OpKind::Read, Some(lpn), ppa.die, win);
        if path != ReadPath::Host {
            self.stats.ndp_reads.incr();
            return Ok(win);
        }
        let bytes = self.page_bytes() as u64;
        // Store-and-forward through controller DRAM: one write, one read.
        let dram_in = self.dram.transfer(win.end, bytes);
        let dram = self.dram.transfer(dram_in.end, bytes);
        let pcie = self.pcie_out.transfer(dram.end, bytes);
        self.stats.pcie_out_busy += pcie.duration();
        self.stats.host_reads.incr();
        Ok(Window {
            start: win.start,
            end: pcie.end,
        })
    }

    /// The one read path under the bounded retry policy
    /// ([`READ_RETRIES`]): each ECC-uncorrectable attempt is traced, then
    /// re-issued after an escalating backoff. The retries charge real plane
    /// time (the die senses the page again), so faults degrade latency
    /// honestly; a failed attempt never crosses the bus — no data left the
    /// die. Exhausted retries fall back to RAIN stripe reconstruction,
    /// except on [`ReadRoute::Peer`].
    ///
    /// Returns the window and the page that holds the bytes served: `ppa`
    /// itself, or the fresh page a reconstruction re-homed them on.
    fn read_with_retry(
        &mut self,
        lpn: Lpn,
        ppa: Ppa,
        at: SimTime,
        route: ReadRoute,
    ) -> Result<(Window, Ppa), SsdError> {
        let t_read = self.config.nand.timing.t_read_lower;
        let mut t = at;
        for attempt in 0..=READ_RETRIES {
            let channel = &mut self.channels[ppa.die.channel as usize];
            let attempt_result = match route {
                ReadRoute::Array => channel.die_mut(ppa.die.index).read_page(ppa.page, t),
                ReadRoute::Channel | ReadRoute::Peer => {
                    channel.read_to_controller(ppa.die.index, ppa.page, t)
                }
            };
            match attempt_result {
                Ok(win) => return Ok((win, ppa)),
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
                    if attempt < READ_RETRIES {
                        self.stats.read_retries.incr();
                        t = busy_until + t_read.saturating_mul(attempt as u64 + 1);
                    } else {
                        // Reconstruction (if any) starts where the last
                        // failed sense left the plane idle.
                        t = busy_until;
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
        if route != ReadRoute::Peer {
            if let Some(ok) = self.try_reconstruct(lpn, ppa, t)? {
                return Ok(ok);
            }
            // Terminal: not even parity could serve the page.
            self.stats.uncorrectable_reads.incr();
        }
        Err(SsdError::UncorrectableRead {
            lpn,
            attempts: READ_RETRIES + 1,
        })
    }

    /// **In-storage program.** Writes a new version of `lpn` out-of-place.
    ///
    /// * `die` — placement for a not-yet-mapped page; a mapped page always
    ///   stays on its current die (die-local update).
    /// * `cross_bus` — `true` if the data comes from the controller side
    ///   (channel-level engine or host), `false` if it originates in the
    ///   die's own latches (die-level engine: no bus traffic).
    ///
    /// The bytes are copied into a pooled page; [`Self::internal_program_buf`]
    /// hands one over instead.
    pub fn internal_program(
        &mut self,
        lpn: Lpn,
        die: Option<DieId>,
        data: Option<&[u8]>,
        at: SimTime,
        cross_bus: bool,
    ) -> Result<Window, SsdError> {
        self.internal_program_buf(lpn, die, data.map(PageBuf::copy_of), at, cross_bus)
    }

    /// [`Self::internal_program`] of a pooled page, which the die stores
    /// as it is: an update engine's output page is programmed without a
    /// copy.
    pub fn internal_program_buf(
        &mut self,
        lpn: Lpn,
        die: Option<DieId>,
        data: Option<PageBuf>,
        at: SimTime,
        cross_bus: bool,
    ) -> Result<Window, SsdError> {
        self.check_write(lpn, data.as_deref())?;
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
        data: Option<PageBuf>,
        at: SimTime,
        cross_bus: bool,
    ) -> Result<Window, SsdError> {
        self.ensure_space(die_id, at)?;
        self.maybe_static_wl(die_id, at)?;
        let (win, _) =
            self.program_no_gc(lpn, die_id, data, at, cross_bus, None, ProgramKind::Fresh)?;
        // Auto-flush gate: only front-door data programs count. GC and
        // rescue copies flow through program_no_gc directly, so a flush can
        // never re-enter itself via the space it frees.
        if self.journal.as_mut().is_some_and(Journal::flush_due) {
            self.flush_journal(win.end, None)?;
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
    ///
    /// A functional page's buffer `data` is stored as it is; a failed
    /// attempt leaves it here for the next. Returns the program's window
    /// and the page it landed on.
    #[allow(clippy::too_many_arguments)]
    fn program_no_gc(
        &mut self,
        lpn: Lpn,
        die_id: DieId,
        mut data: Option<PageBuf>,
        at: SimTime,
        cross_bus: bool,
        prefer_plane: Option<u32>,
        kind: ProgramKind,
    ) -> Result<(Window, Ppa), SsdError> {
        let die_flat = die_id.flat(self.config.dies_per_channel);
        let mut at = at;
        let mut prefer = prefer_plane;
        loop {
            let channel = &mut self.channels[die_id.channel as usize];
            let die = channel.die(die_id.index);
            let page = match prefer {
                Some(p) => self.ftl.allocate_page_preferring(die_flat, die, p),
                None => self.ftl.allocate_page(die_flat, die),
            }
            .ok_or(SsdError::OutOfSpace(die_id))?;
            let attempt = if cross_bus {
                channel.program_from_controller(die_id.index, page, &mut data, at)
            } else {
                channel
                    .die_mut(die_id.index)
                    .program_page(page, at, &mut data)
            };
            match attempt {
                Ok(win) => {
                    let ppa = Ppa { die: die_id, page };
                    match &mut self.journal {
                        Some(journal) => journal.record_program(
                            &mut self.ftl,
                            &mut self.channels,
                            lpn,
                            ppa,
                            kind,
                        ),
                        None => {
                            if let Some(stale) = self.ftl.commit_program(lpn, ppa) {
                                supersede(&mut self.channels, stale);
                            }
                        }
                    }
                    let op = match kind {
                        ProgramKind::Fresh => {
                            self.mark_stripe_dirty(lpn);
                            OpKind::Program
                        }
                        ProgramKind::Relocate(_) => OpKind::Program,
                        ProgramKind::Parity => {
                            self.stats.parity_writes.incr();
                            OpKind::ParityWrite
                        }
                        ProgramKind::Reconstruct(_) => OpKind::ParityRepair,
                    };
                    self.trace_op(op, Some(lpn), die_id, win);
                    return Ok((win, ppa));
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

    /// Ages every block on every die by `pe` artificial P/E cycles
    /// (end-of-life experiments: worn cells make reads slower via
    /// read-retries). Does not retire blocks or touch data.
    pub fn simulate_wear(&mut self, pe: u64) {
        for die in self.dies_mut() {
            die.simulate_wear(pe);
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

    /// Records an operation when tracing is on; otherwise one inlined
    /// branch.
    #[inline]
    fn trace_op(&mut self, kind: OpKind, lpn: Option<Lpn>, die: DieId, win: Window) {
        if self.trace.is_some() {
            self.record_op(kind, lpn, die, win);
        }
    }

    #[inline(never)]
    fn record_op(&mut self, kind: OpKind, lpn: Option<Lpn>, die: DieId, win: Window) {
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

    /// Iterates erase counts of every block in the device (wear analysis).
    pub fn erase_counts(&self) -> impl Iterator<Item = u64> + '_ {
        self.dies()
            .flat_map(|d| d.iter_blocks().map(|(_, b)| b.erase_count()))
    }

    /// Sum of all block erase counts.
    pub fn total_erases(&self) -> u64 {
        self.erase_counts().sum()
    }

    /// The latest instant at which any resource in the device is busy —
    /// i.e. when the device fully drains if no more work arrives.
    pub fn quiesce_time(&self) -> SimTime {
        let links = self
            .pcie_in
            .free_at()
            .max(self.pcie_out.free_at())
            .max(self.dram.free_at());
        let buses = self.channels.iter().map(|c| c.bus().free_at());
        let planes = self
            .dies()
            .flat_map(|d| (0..d.config().geometry.planes).map(move |p| d.plane_free_at(p)));
        buses.chain(planes).fold(links, SimTime::max)
    }
}

/// Marks a stale physical page invalid on its die. On a functional device
/// its bytes stay until the block is erased, because a mount, which
/// rebuilds the mapping from OOB stamps alone, may still pick it: a
/// relocation source carries the same stamp as its copy, and mount breaks
/// that tie by location, so either twin can win.
fn invalidate(channels: &mut [Channel], stale: Ppa) {
    let die = channels[stale.die.channel as usize].die_mut(stale.die.index);
    // A mapped page is on its die, so the address is always in range.
    let _ = die.invalidate(stale.page);
}

/// Marks a superseded physical page invalid on its die and, on a
/// functional device, frees its bytes at once. This decides which
/// invalidations release: every one on a journal-free device, which never
/// mounts, and on a journaled device the deferred ones a durable commit
/// applies, each of which a committed version with a higher seqno
/// outranks. Every other invalidation goes through [`invalidate`].
#[inline]
fn supersede(channels: &mut [Channel], stale: Ppa) {
    let die = channels[stale.die.channel as usize].die_mut(stale.die.index);
    let _ = die.invalidate_and_release(stale.page);
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Device {
        /// Optimizer-step epoch current writes are stamped with.
        pub fn current_epoch(&self) -> u64 {
            self.journal.as_ref().map_or(0, |j| j.epoch)
        }
    }

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

        dev.internal_read_array(Lpn(1), SimTime::from_secs(1))
            .unwrap();
        assert_eq!(dev.sensed_page(Lpn(1)), Ok(&data[..]));
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
    fn phantom_device_times_without_data() {
        let mut dev = Device::new(SsdConfig::tiny());
        let w = dev.host_write_page(Lpn(0), None, SimTime::ZERO).unwrap();
        let (r, data) = dev.host_read_page(Lpn(0), w.end).unwrap();
        assert!(data.is_none());
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
                    assert_eq!(attempts, READ_RETRIES + 1);
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
        assert_eq!(dev.stats().read_retries.get(), READ_RETRIES as u64);
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

    /// Reads physical page `ppa` straight off its die.
    fn read_physical(dev: &mut Device, ppa: Ppa, at: SimTime) -> Result<Vec<u8>, NandError> {
        let die = dev.channels[ppa.die.channel as usize].die_mut(ppa.die.index);
        die.read_page(ppa.page, at)?;
        Ok(die.page_data(ppa.page)?.to_vec())
    }

    #[test]
    fn journal_free_device_frees_a_superseded_page_at_once() {
        let mut dev = Device::new_functional(SsdConfig::tiny());
        let (a, b) = (page(&dev, 1), page(&dev, 2));
        let t = dev
            .host_write_page(Lpn(0), Some(&a), SimTime::ZERO)
            .unwrap()
            .end;
        let old = dev.ftl().lookup(Lpn(0)).unwrap();
        let t = dev.host_write_page(Lpn(0), Some(&b), t).unwrap().end;
        assert_eq!(
            read_physical(&mut dev, old, t),
            Err(NandError::NoData(old.page))
        );
    }

    #[test]
    fn a_commit_frees_the_versions_it_supersedes() {
        let mut dev = journaled(4);
        let (a, b) = (page(&dev, 1), page(&dev, 2));
        dev.begin_epoch(1);
        let t = dev
            .host_write_page(Lpn(0), Some(&a), SimTime::ZERO)
            .unwrap()
            .end;
        let t = dev.commit_epoch(t).unwrap();
        let old = dev.ftl().lookup(Lpn(0)).unwrap();
        dev.begin_epoch(2);
        let t = dev.host_write_page(Lpn(0), Some(&b), t).unwrap().end;
        assert_eq!(
            read_physical(&mut dev, old, t).unwrap(),
            a,
            "the committed version outlives the epoch that supersedes it"
        );
        let t = dev.commit_epoch(t).unwrap();
        assert_eq!(
            read_physical(&mut dev, old, t),
            Err(NandError::NoData(old.page))
        );
    }

    /// A relocation copy inherits its source's OOB stamp, and mount breaks
    /// the tie between equal stamps by `(seqno, die, page index)`, so after
    /// a crash it may pick the source over the copy: the source must stay
    /// readable until its block is erased. Releasing relocation sources too
    /// made crash-during-GC recoveries fail with "page ... was programmed
    /// without data (phantom)".
    #[test]
    fn a_relocation_source_keeps_its_bytes_until_its_erase() {
        let mut dev = journaled(4);
        let a = page(&dev, 7);
        dev.begin_epoch(1);
        let t = dev
            .host_write_page(Lpn(0), Some(&a), SimTime::ZERO)
            .unwrap()
            .end;
        let t = dev.commit_epoch(t).unwrap();
        let src = dev.ftl().lookup(Lpn(0)).unwrap();
        // Garbage collection's copy of a live page.
        let t = dev
            .program_no_gc(
                Lpn(0),
                src.die,
                Some(PageBuf::copy_of(&a)),
                t,
                false,
                None,
                ProgramKind::Relocate(src),
            )
            .unwrap()
            .0
            .end;
        assert_ne!(dev.ftl().lookup(Lpn(0)), Some(src));
        assert_eq!(
            dev.die(src.die).page_state(src.page),
            Ok(nandsim::store::PageState::Invalid)
        );
        let t = dev.commit_epoch(t).unwrap();
        assert_eq!(read_physical(&mut dev, src, t).unwrap(), a);
        dev.channels[src.die.channel as usize]
            .die_mut(src.die.index)
            .erase_block(src.page.block_addr(), t)
            .unwrap();
        assert_eq!(
            read_physical(&mut dev, src, SimTime::from_secs(1)),
            Err(NandError::ReadUnwritten(src.page))
        );
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
    fn mount_without_a_journal_is_a_typed_error() {
        let mut dev = Device::new(SsdConfig::tiny());
        let w = dev.host_write_page(Lpn(0), None, SimTime::ZERO).unwrap();
        assert_eq!(dev.mount(w.end), Err(SsdError::NoJournal));
        assert_eq!(dev.stats().mounts.get(), 0);
        // Nothing changed: the device keeps serving.
        dev.host_read_page(Lpn(0), w.end).unwrap();
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
        let cfg = SsdConfig {
            aging: Some(aging),
            ..SsdConfig::tiny()
        }
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
