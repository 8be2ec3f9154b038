//! Operation tracing: a bounded log of every flash operation the device
//! executes, for debugging schedules and visualizing concurrency.
//!
//! Tracing is off by default (the hot experiments simulate millions of
//! operations); when enabled, the device records each array operation into
//! a ring buffer that analysis helpers can turn into per-die concurrency
//! profiles or a text gantt chart.

use crate::address::Lpn;
use serde::{Deserialize, Serialize};
use simkit::{SimDuration, SimTime};

/// What kind of flash operation an event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpKind {
    /// Array page read.
    Read,
    /// Array page program.
    Program,
    /// Block erase.
    Erase,
    /// Program attempt that reported bad status (injected media fault);
    /// recovery retired the block and re-homed the page.
    ProgramFail,
    /// Erase attempt that reported bad status (injected media fault);
    /// recovery retired the victim block.
    EraseFail,
    /// Read attempt that came back ECC-uncorrectable (injected media
    /// fault); the device re-issues the sense up to its retry bound.
    ReadFail,
    /// Mapping-journal page program (crash-consistency metadata flush).
    JournalWrite,
    /// Journal-page read during mount recovery (replay phase).
    MountReplay,
    /// OOB scan during mount recovery of pages the journal did not cover.
    MountScan,
    /// RAIN stripe-parity page program (rebuild at epoch commit).
    ParityWrite,
    /// Re-home program of a page reconstructed from its stripe peers after
    /// the retry policy exhausted (degraded read that succeeded).
    ParityRepair,
    /// Background-scrub patrol read verifying a mapped page.
    ScrubRead,
}

impl OpKind {
    /// One-character glyph for gantt rendering.
    pub fn glyph(self) -> char {
        match self {
            OpKind::Read => 'r',
            OpKind::Program => 'P',
            OpKind::Erase => 'E',
            OpKind::ProgramFail => 'x',
            OpKind::EraseFail => 'X',
            OpKind::ReadFail => '!',
            OpKind::JournalWrite => 'J',
            OpKind::MountReplay => 'm',
            OpKind::MountScan => 'M',
            OpKind::ParityWrite => 'p',
            OpKind::ParityRepair => 'R',
            OpKind::ScrubRead => 's',
        }
    }
}

/// One traced operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Operation kind.
    pub kind: OpKind,
    /// Logical page involved (`None` for GC-internal moves and erases).
    pub lpn: Option<Lpn>,
    /// Flat die index.
    pub die_flat: u32,
    /// Array occupancy start.
    pub start: SimTime,
    /// Array occupancy end.
    pub end: SimTime,
}

/// A bounded ring buffer of trace events.
#[derive(Debug, Clone)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
    capacity: usize,
    next: usize,
}

impl TraceLog {
    /// Creates a log keeping at most `capacity` events (oldest evicted).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        TraceLog {
            events: Vec::with_capacity(capacity.min(4096)),
            capacity,
            next: 0,
        }
    }

    /// Records an event.
    pub fn record(&mut self, event: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.events[self.next] = event;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    /// The retained events in chronological (recording) order.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.next..]);
        out.extend_from_slice(&self.events[..self.next]);
        out
    }
}

/// Maximum number of operations in flight at once per die, computed from a
/// trace slice.
pub fn peak_concurrency(events: &[TraceEvent], die_flat: u32) -> usize {
    let mut edges: Vec<(SimTime, i32)> = Vec::new();
    for e in events.iter().filter(|e| e.die_flat == die_flat) {
        edges.push((e.start, 1));
        edges.push((e.end, -1));
    }
    edges.sort_by_key(|&(t, d)| (t, d)); // ends (-1) before starts at ties
    let mut cur = 0i32;
    let mut peak = 0i32;
    for (_, d) in edges {
        cur += d;
        peak = peak.max(cur);
    }
    peak.max(0) as usize
}

/// Rendering priority when several events share a gantt cell. Faults and
/// parity repairs must stay visible over everything; erases over programs,
/// journal and parity writes; those over reads, mount activity and scrub
/// patrols; anything over idle. A glyph only replaces a strictly
/// lower-priority one, so the first event at a given priority keeps the
/// cell.
fn cell_priority(c: char) -> u8 {
    match c {
        'x' | 'X' | '!' | 'R' => 4,
        'E' => 3,
        'P' | 'J' | 'p' => 2,
        'r' | 'm' | 'M' | 's' => 1,
        _ => 0,
    }
}

/// Renders a text gantt chart of a trace slice: one row per die, one cell
/// per `resolution` of simulated time, glyph = the highest-priority op
/// occupying the cell (faults and reconstructions over erases, over
/// programs and journal writes, over reads, mount and scrub).
pub fn gantt(events: &[TraceEvent], resolution: SimDuration, max_cols: usize) -> String {
    if events.is_empty() {
        return "(no events)\n".into();
    }
    let t0 = events.iter().map(|e| e.start).min().unwrap();
    let dies: Vec<u32> = {
        let mut d: Vec<u32> = events.iter().map(|e| e.die_flat).collect();
        d.sort_unstable();
        d.dedup();
        d
    };
    let res_ns = resolution.as_ns().max(1);
    let mut out = String::new();
    for die in dies {
        let mut row = vec![' '; max_cols];
        for e in events.iter().filter(|e| e.die_flat == die) {
            let c0 = ((e.start - t0).as_ns() / res_ns) as usize;
            let c1 = ((e.end - t0).as_ns().saturating_sub(1) / res_ns) as usize;
            for cell in row
                .iter_mut()
                .take(c1.min(max_cols - 1) + 1)
                .skip(c0.min(max_cols - 1))
            {
                let g = e.kind.glyph();
                if cell_priority(g) > cell_priority(*cell) {
                    *cell = g;
                }
            }
        }
        out.push_str(&format!(
            "die{die:<3} |{}|\n",
            row.iter().collect::<String>()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: OpKind, die: u32, start: u64, end: u64) -> TraceEvent {
        TraceEvent {
            kind,
            lpn: None,
            die_flat: die,
            start: SimTime::from_us(start),
            end: SimTime::from_us(end),
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut log = TraceLog::new(3);
        for i in 0..5u64 {
            log.record(ev(OpKind::Read, 0, i, i + 1));
        }
        let events = log.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].start, SimTime::from_us(2));
        assert_eq!(events[2].start, SimTime::from_us(4));
    }

    #[test]
    fn peak_concurrency_counts_overlap() {
        let events = [
            ev(OpKind::Read, 0, 0, 10),
            ev(OpKind::Read, 0, 5, 15),     // overlaps the first
            ev(OpKind::Program, 0, 20, 30), // disjoint
            ev(OpKind::Read, 1, 0, 100),    // different die
        ];
        assert_eq!(peak_concurrency(&events, 0), 2);
        assert_eq!(peak_concurrency(&events, 1), 1);
        assert_eq!(peak_concurrency(&events, 9), 0);
    }

    #[test]
    fn back_to_back_ops_do_not_count_as_overlap() {
        let events = [ev(OpKind::Read, 0, 0, 10), ev(OpKind::Read, 0, 10, 20)];
        assert_eq!(peak_concurrency(&events, 0), 1);
    }

    #[test]
    fn gantt_renders_rows_per_die() {
        let events = [
            ev(OpKind::Read, 0, 0, 40),
            ev(OpKind::Program, 0, 40, 400),
            ev(OpKind::Read, 2, 0, 40),
        ];
        let g = gantt(&events, SimDuration::from_us(40), 12);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("die0"));
        assert!(lines[0].contains('r') && lines[0].contains('P'));
        assert!(lines[1].starts_with("die2"));
        assert!(!lines[1].contains('P'));
    }

    #[test]
    fn fault_glyphs_stay_visible_in_gantt() {
        let events = [
            ev(OpKind::ProgramFail, 0, 0, 40),
            ev(OpKind::Program, 0, 0, 40), // same cells, must not cover the fault
            ev(OpKind::ReadFail, 0, 40, 80),
        ];
        let g = gantt(&events, SimDuration::from_us(40), 4);
        assert!(g.contains('x'), "{g}");
        assert!(g.contains('!'), "{g}");
        assert!(
            !g.contains('P'),
            "program must not overwrite the fault: {g}"
        );
        assert_eq!(OpKind::EraseFail.glyph(), 'X');
    }

    #[test]
    fn mount_and_journal_glyphs_layer_correctly() {
        // Journal writes render like programs; mount activity renders like
        // reads; both lose to faults and erases, and mount glyphs lose to
        // journal writes sharing a cell.
        let events = [
            ev(OpKind::MountReplay, 0, 0, 40),
            ev(OpKind::JournalWrite, 0, 0, 40), // covers the replay
            ev(OpKind::MountScan, 0, 40, 80),
            ev(OpKind::Erase, 1, 0, 40),
            ev(OpKind::JournalWrite, 1, 0, 40), // must not cover the erase
        ];
        let g = gantt(&events, SimDuration::from_us(40), 4);
        assert!(g.contains('J'), "{g}");
        assert!(g.contains('M'), "{g}");
        assert!(
            !g.contains('m'),
            "journal write must cover mount replay: {g}"
        );
        let die1 = g.lines().nth(1).unwrap();
        assert!(die1.contains('E') && !die1.contains('J'), "{g}");
    }

    #[test]
    fn parity_and_scrub_glyphs_layer_correctly() {
        // A parity repair stays visible like a fault; parity writes render
        // like programs; scrub patrols render like reads and lose to both.
        let events = [
            ev(OpKind::ScrubRead, 0, 0, 40),
            ev(OpKind::ParityRepair, 0, 0, 40), // covers the patrol read
            ev(OpKind::ScrubRead, 1, 0, 40),
            ev(OpKind::ParityWrite, 1, 0, 40), // covers the patrol read
            ev(OpKind::ScrubRead, 2, 0, 40),   // alone: visible
        ];
        let g = gantt(&events, SimDuration::from_us(40), 4);
        assert!(g.contains('R'), "{g}");
        assert!(g.contains('p'), "{g}");
        let die2 = g.lines().nth(2).unwrap();
        assert!(die2.contains('s'), "{g}");
    }

    #[test]
    fn empty_gantt() {
        assert_eq!(gantt(&[], SimDuration::from_us(1), 10), "(no events)\n");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = TraceLog::new(0);
    }
}
