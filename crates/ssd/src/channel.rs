//! One flash channel: an ONFI bus shared by several dies.

use nandsim::{Die, NandError, PhysPage};
use simkit::pool::PageBuf;
use simkit::{BandwidthLink, SimTime, Window};

/// A channel: the bus plus the dies behind it.
///
/// The bus is a [`BandwidthLink`] at the ONFI rate whose per-transfer
/// overhead is the command/address cycles (`NandTiming::t_cmd_overhead`).
/// Data moves between the controller and a die's page register over it;
/// array operations do not occupy it.
///
/// The channel is where the two NDP placements differ physically:
/// *channel-level* engines sit on the controller side of this bus (operands
/// cross it), *die-level* engines sit behind it (operands do not).
#[derive(Debug)]
pub struct Channel {
    id: u32,
    pub(crate) bus: BandwidthLink,
    dies: Vec<Die>,
}

impl Channel {
    /// Creates channel `id` with the given dies.
    pub fn new(id: u32, bus: BandwidthLink, dies: Vec<Die>) -> Self {
        Channel { id, bus, dies }
    }

    /// Channel index.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Dies on this channel.
    pub fn dies(&self) -> &[Die] {
        &self.dies
    }

    /// Dies on this channel, mutably.
    pub(crate) fn dies_mut(&mut self) -> &mut [Die] {
        &mut self.dies
    }

    /// Mutable access to a die.
    pub fn die_mut(&mut self, index: u32) -> &mut Die {
        &mut self.dies[index as usize]
    }

    /// A die by index.
    pub fn die(&self, index: u32) -> &Die {
        &self.dies[index as usize]
    }

    /// The shared bus.
    pub fn bus(&self) -> &BandwidthLink {
        &self.bus
    }

    /// Reads a page from a die **to the controller**: array read (see
    /// [`Die::read_page`]), then a bus transfer of the page. Returns the
    /// combined window (start of the array read to end of the bus
    /// transfer); the bytes stay where [`Die::page_data`] borrows them.
    pub fn read_to_controller(
        &mut self,
        die_index: u32,
        page: PhysPage,
        at: SimTime,
    ) -> Result<Window, NandError> {
        let page_bytes = self.dies[die_index as usize].config().geometry.page_bytes as u64;
        let array = self.dies[die_index as usize].read_page(page, at)?;
        let bus = self.bus.transfer(array.end, page_bytes);
        Ok(Window {
            start: array.start,
            end: bus.end,
        })
    }

    /// Programs a page **from the controller**: a bus transfer of the page
    /// followed by the array program, which takes the page buffer out of
    /// `data` when it succeeds (see [`Die::program_page`]).
    pub fn program_from_controller(
        &mut self,
        die_index: u32,
        page: PhysPage,
        data: &mut Option<PageBuf>,
        at: SimTime,
    ) -> Result<Window, NandError> {
        let page_bytes = self.dies[die_index as usize].config().geometry.page_bytes as u64;
        let bus = self.bus.transfer(at, page_bytes);
        let prog = self.dies[die_index as usize].program_page(page, bus.end, data)?;
        Ok(Window {
            start: bus.start,
            end: prog.end,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nandsim::{NandConfig, NandTiming};

    fn bus(t: &NandTiming) -> BandwidthLink {
        BandwidthLink::with_overhead(t.bus_bytes_per_sec(), t.t_cmd_overhead)
    }

    fn channel() -> Channel {
        let cfg = NandConfig::tiny_test_die();
        let dies = (0..2).map(|i| Die::new_functional(i, cfg)).collect();
        Channel::new(0, bus(&cfg.timing), dies)
    }

    #[test]
    fn controller_read_crosses_the_bus() {
        let mut ch = channel();
        let p = PhysPage {
            plane: 0,
            block: 0,
            page: 0,
        };
        let data = vec![3u8; ch.die(0).config().geometry.page_bytes as usize];
        let w = ch
            .program_from_controller(0, p, &mut Some(PageBuf::copy_of(&data)), SimTime::ZERO)
            .unwrap();
        let r = ch.read_to_controller(0, p, w.end).unwrap();
        assert_eq!(ch.die(0).page_data(p), Ok(&data[..]));
        // Window covers array read + bus transfer: longer than tR alone.
        let t_read = ch.die(0).config().timing.t_read_lower;
        assert!(r.duration() > t_read);
    }

    #[test]
    fn bus_serializes_across_dies_but_arrays_overlap() {
        let mut ch = channel();
        let p = PhysPage {
            plane: 0,
            block: 0,
            page: 0,
        };
        let bytes = ch.die(0).config().geometry.page_bytes as usize;
        let data = vec![1u8; bytes];
        // Program the same page address on both dies.
        let w0 = ch
            .program_from_controller(0, p, &mut Some(PageBuf::copy_of(&data)), SimTime::ZERO)
            .unwrap();
        let w1 = ch
            .program_from_controller(1, p, &mut Some(PageBuf::copy_of(&data)), SimTime::ZERO)
            .unwrap();
        // The second program's bus transfer waited for the first.
        assert!(w1.start >= SimTime::ZERO);
        assert!(w1.end > w0.end - ch.die(0).config().timing.t_program);
        // But both arrays were programming concurrently for most of tPROG:
        // die1's program ends well before 2× the serial time.
        let serial = ch.die(0).config().timing.t_program * 2;
        assert!(w1.end < SimTime::ZERO + serial);
    }
}
