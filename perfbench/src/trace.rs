//! An in-memory span and counter recorder for the traced run.
//!
//! Spans sit around the benchmark's own calls into each layer's public
//! functions: name, start, end, parent span, and the id of the step,
//! cell or cycle the call belongs to. (The layers' statistics are read at
//! the same points by [`crate::probe`].) A recorder that is off stores
//! nothing and reads no clock.

use crate::stats;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, such as `core.run_step`.
    pub name: &'static str,
    /// Step, cell or cycle the call belongs to.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the recorder was made.
    pub start_ns: u64,
    /// End, ns since the recorder was made (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Length in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Handle of an open span (or of nothing, when the recorder is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that records.
    pub fn on() -> Self {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Self::on()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; the innermost open span becomes its parent.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::begin`] (and any span opened
    /// inside it that was left open).
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// Every closed span.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(|s| s.end_ns > 0)
    }

    /// Durations in ms of every closed span called `name`.
    pub fn ms_of(&self, name: &str) -> Vec<f64> {
        self.spans()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Median self time in ms of the spans called `name`: each span's
    /// length minus what its child spans cover.
    pub fn median_self_ms(&self, name: &str) -> f64 {
        let selfs: Vec<f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name && s.end_ns > 0)
            .map(|(i, s)| {
                let children: Vec<(u64, u64)> = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(|c| (c.start_ns, c.end_ns))
                    .collect();
                stats::self_time((s.start_ns, s.end_ns), &children) as f64 / 1e6
            })
            .collect();
        stats::median(&selfs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        let s = t.begin("a", 1);
        t.end(s);
        assert_eq!(t.spans().count(), 0);
    }

    #[test]
    fn nesting_sets_parents_and_self_time() {
        let mut t = Tracer::on();
        let outer = t.begin("outer", 7);
        let inner = t.begin("inner", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let spans: Vec<&Span> = t.spans().collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].id, 7);
        // The child covers most of the parent.
        assert!(t.median_self_ms("outer") < spans[0].ms());
        assert!(t.ms_of("inner")[0] >= 2.0);
    }

    #[test]
    fn ending_an_outer_span_closes_open_inner_ones() {
        let mut t = Tracer::on();
        let outer = t.begin("outer", 0);
        let _inner = t.begin("inner", 0);
        t.end(outer);
        assert_eq!(t.spans().count(), 2);
        let after = t.begin("next", 1);
        t.end(after);
        assert_eq!(t.spans().last().map(|s| s.parent), Some(None));
    }
}
