//! Mount after a power cycle: journal replay, OOB scan, winner selection
//! and the rebuild of mapping, validity and allocators from flash alone.

use super::journal::{JournalEntry, JOURNAL_DIE_FLAT};
use super::Device;
use crate::address::{DieId, Lpn, Ppa};
use crate::error::SsdError;
use crate::ftl::{DieAlloc, Ftl};
use crate::trace::OpKind;
use nandsim::{PageOob, PhysPage};
use simkit::{SimTime, Window};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

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

impl Device {
    /// Mounts the device after a power cycle: replays the on-flash mapping
    /// journal, OOB-scans every programmed page the journal does not cover,
    /// discards torn and uncommitted pages, rebuilds the mapping tables,
    /// page validity, and allocators from physical state alone, and leaves
    /// the device in exactly the state of the last committed epoch.
    ///
    /// Idempotent by construction: everything is computed into locals and
    /// installed at the very end, so a second power loss *during* mount
    /// (double crash) leaves flash untouched and a later mount succeeds.
    /// A journal-free device has nothing to mount from:
    /// [`SsdError::NoJournal`], with the device unchanged.
    pub fn mount(&mut self, at: SimTime) -> Result<MountReport, SsdError> {
        let Some(journal) = &mut self.journal else {
            return Err(SsdError::NoJournal);
        };
        journal.lose_ram();
        // A still-armed crash instant in the future kills this mount too
        // (double-crash injection); one at or before `at` already fired
        // and is consumed by the power cycle.
        let pending_crash = self.armed_power_loss().filter(|&t| t > at);
        for die in self.dies_mut() {
            die.set_power_loss(pending_crash);
        }
        self.dead = None;
        // Uncommitted writes roll back below, so every surviving stripe is
        // parity-consistent; the patrol sweep restarts from the top.
        if let Some(rain) = &mut self.rain {
            rain.dirty.clear();
        }
        if let Some(scrub) = &mut self.scrub {
            scrub.cursor = 0;
        }

        let geo = self.config.nand.geometry;
        let dies_per_channel = self.config.dies_per_channel;
        let t_scan = self.config.nand.timing.t_read_lower;
        let journal_die = self.journal_die();
        let flushed = self.journal.as_ref().map_or(&[][..], |j| &j.flushed);

        // Phase 1 — replay: serial reads of every flushed journal page on
        // the journal die. `Map` entries pre-cover physical pages (their
        // OOB need not be sensed); the highest durable `Commit` fixes the
        // epoch the device rolls back to.
        let mut journal_map: HashMap<(u32, u64), PageOob> = HashMap::new();
        let mut committed = 0u64;
        let mut t = at;
        for jp in flushed {
            t += t_scan;
            if let Some(tc) = pending_crash.filter(|&tc| t > tc) {
                self.dead = Some(tc);
                return Err(SsdError::PowerLoss { at: tc });
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
                        let die_flat = ppa.die.flat(dies_per_channel);
                        journal_map.insert((die_flat, geo.page_index(ppa.page)), oob);
                    }
                    JournalEntry::Commit { epoch } => committed = committed.max(epoch),
                }
            }
        }
        let replayed = flushed.len() as u64;
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
        // block. Dies scan in parallel from the end of replay; a page costs
        // a sense only when the journal does not already cover it exactly.
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
                let die_id = DieId::from_flat(die_flat, dies_per_channel);
                let die = this.die(die_id);
                let mut scan = DieScan {
                    candidates: Vec::new(),
                    charged: 0,
                    torn: 0,
                    no_oob: 0,
                };
                for page in this.programmed_data_pages(die_flat) {
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
                scan
            })
        };
        let mut candidates: Vec<(u32, u64, PageOob, Ppa)> = Vec::new();
        let mut torn = 0u64;
        let mut no_oob = 0u64;
        let mut scanned = 0u64;
        let mut scan_end = replay_end;
        for (die_flat, scan) in die_scans.into_iter().enumerate() {
            let die_id = DieId::from_flat(die_flat as u32, dies_per_channel);
            torn += scan.torn;
            no_oob += scan.no_oob;
            scanned += scan.charged;
            candidates.extend(scan.candidates);
            let cursor = replay_end + t_scan.saturating_mul(scan.charged);
            if let Some(tc) = pending_crash.filter(|&tc| cursor > tc) {
                self.dead = Some(tc);
                return Err(SsdError::PowerLoss { at: tc });
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
        let mut max_seq = journal_map.values().map(|oob| oob.seqno).max().unwrap_or(0);
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

        // Phase 4 — commit point: rebuild validity, allocators and mapping
        // into fresh structures, then install everything at once.
        let mut sorted: Vec<(PageOob, u32, u64, Ppa)> = winners.values().copied().collect();
        sorted.sort_by_key(|w| w.0.lpn);
        let winning: HashSet<(u32, u64)> = sorted.iter().map(|w| (w.1, w.2)).collect();
        let mut alloc = Vec::with_capacity(self.config.total_dies() as usize);
        for die_flat in 0..self.config.total_dies() {
            let die_id = DieId::from_flat(die_flat, dies_per_channel);
            let updates: Vec<(PhysPage, bool)> = self
                .programmed_data_pages(die_flat)
                .map(|page| (page, winning.contains(&(die_flat, geo.page_index(page)))))
                .collect();
            let die = self.channels[die_id.channel as usize].die_mut(die_id.index);
            for (page, valid) in updates {
                // Scanned pages are on the die: the address is in range.
                let _ = die.set_validity(page, valid);
            }
            let exclude = match &self.journal {
                Some(j) if die_flat == JOURNAL_DIE_FLAT => &j.blocks[..],
                _ => &[],
            };
            alloc.push(DieAlloc::from_scan(
                self.die(die_id),
                exclude,
                self.config.gc.wear_leveling,
            ));
        }
        let mut ftl = Ftl::with_allocators(&self.config, alloc);
        for (oob, _, _, ppa) in &sorted {
            ftl.commit_program(Lpn(oob.lpn), *ppa);
        }
        self.ftl = ftl;
        if let Some(journal) = &mut self.journal {
            journal.seq = max_seq;
            journal.epoch = committed;
            journal.committed_epoch = committed;
            journal.programs_since_flush = 0;
        }
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

    /// Every programmed page of the non-journal blocks of flat die
    /// `die_flat`, retired blocks included (a crash mid-rescue leaves
    /// committed pages there, and reads still work). Programs are
    /// sequential, so only pages below a block's write cursor were ever
    /// programmed — torn ones included.
    fn programmed_data_pages(&self, die_flat: u32) -> impl Iterator<Item = PhysPage> + '_ {
        let geo = self.config.nand.geometry;
        let die = self.die(DieId::from_flat(die_flat, self.config.dies_per_channel));
        die.iter_blocks()
            .filter(move |&(bflat, _)| !self.is_journal_block(die_flat, bflat))
            .flat_map(move |(bflat, b)| {
                let addr = geo.block_at(bflat);
                (0..geo.pages_per_block - b.free_pages()).map(move |pidx| addr.page(pidx))
            })
    }
}
