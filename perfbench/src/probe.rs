//! Reads the layers' public statistics at the benchmark's call points:
//! die operation counts (nandsim), device counters, link transfers and
//! simulated busy time (ssdsim, simkit), and the page-buffer pool.

use ssdsim::Device;
use std::time::Instant;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time this process has used, in seconds: every thread, exited pool
/// workers included. Unlike wall-clock time it leaves out time the host
/// steals from the machine's virtual CPUs, and time threads wait.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the whole
    // call, and the clock id is a constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall-clock and process CPU seconds of one timed interval, and the CPU
/// seconds of the yardstick run next to it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Lap {
    /// Wall-clock seconds.
    pub wall: f64,
    /// Process CPU seconds.
    pub cpu: f64,
    /// CPU seconds of the [`yardstick_s`] pass paired with this interval
    /// (0 until [`crate::run::Run::yardstick`] pairs it).
    pub yard: f64,
}

impl Lap {
    /// The interval at reference speed: its CPU time scaled by how much
    /// slower than nominal the machine ran the yardstick next to it.
    pub fn at_ref(&self) -> f64 {
        self.cpu * YARDSTICK_NOMINAL_S / self.yard
    }
}

/// Times an interval on both clocks.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: cpu_s(),
        }
    }

    /// Time since [`Stopwatch::start`].
    pub fn lap(&self) -> Lap {
        Lap {
            cpu: cpu_s() - self.cpu,
            wall: self.wall.elapsed().as_secs_f64(),
            yard: 0.0,
        }
    }
}

/// CPU seconds one [`yardstick_s`] pass takes on the reference machine (a
/// 2-vCPU Xeon VM): its median over the runs that calibrated it. It only
/// sets the scale of the reference-speed timings; changing it rescales
/// them all by one factor.
pub const YARDSTICK_NOMINAL_S: f64 = 3.0e-3;

/// CPU seconds of one pass of the yardstick: a fixed piece of work that
/// does not depend on the simulator: a sort, ordered-map inserts and
/// removes, and an eight-lane multiply chain, all on the same inputs every
/// pass and within the core's private caches.
///
/// The reference machine's cores slow down by up to 1.8× over seconds to
/// minutes as the host's other tenants load them, while their clock rate
/// stays put (a dependent multiply chain keeps its time), and process CPU
/// time already leaves stolen time out: most likely contention for the
/// core's execution units and caches. Random-access loops over 4–128 MB
/// and a dependent multiply chain barely notice it (3 % run-to-run), so
/// they cannot stand in for the simulator. Branchy, cache-resident work
/// like this slows down along with the simulator's steps: over 2057
/// `steady-state` steps of one 150 s run, step and yardstick CPU times
/// correlate at 0.68. Dividing each step's CPU time by the yardstick's,
/// measured right after it on the same thread, cut the quartile spread of
/// the median step across the run's 120-step windows from 11 % to 7 %,
/// and from 19–26 % to 4–8 % with a larger variant of it in a noisier
/// period.
pub fn yardstick_s() -> f64 {
    let t = cpu_s();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut keys: Vec<u32> = (0..24_576).map(|_| next() as u32).collect();
    keys.sort_unstable();
    std::hint::black_box(&keys);
    let mut map = std::collections::BTreeMap::new();
    for k in 0..6_000u64 {
        map.insert(next() % 16_384, k);
    }
    for _ in 0..6_000 {
        map.remove(&(next() % 16_384));
    }
    std::hint::black_box(map.len());
    let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for k in 0..120_000u64 {
        for (j, lane) in lanes.iter_mut().enumerate() {
            *lane = lane
                .wrapping_mul(0x5851_f42d_4c95_7f2d)
                .wrapping_add(k ^ j as u64);
        }
    }
    std::hint::black_box(lanes);
    cpu_s() - t
}

macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident),* $(,)?) => {
        /// A snapshot (or a difference of two snapshots) of the counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counters {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Counters {
            /// What happened between `earlier` and `self`.
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters { $($field: self.$field.saturating_sub(earlier.$field),)* }
            }

            /// Accumulates a difference.
            pub fn add(&mut self, d: &Counters) {
                $(self.$field += d.$field;)*
            }
        }
    };
}

counters! {
    /// Page reads the dies executed (retries included).
    array_reads,
    /// Page programs the dies executed.
    programs,
    /// Block erases the dies executed.
    erases,
    /// Device-level read retries.
    read_retries,
    /// Pages programmed for the host or the NDP engines (logical writes).
    logical_programs,
    /// Pages copied by garbage collection.
    gc_copies,
    /// Pages relocated off retired blocks.
    rescue_copies,
    /// Journal pages programmed.
    journal_pages,
    /// RAIN parity pages programmed.
    parity_writes,
    /// Pages the patrol scrub read.
    scrub_reads,
    /// Reads served by parity reconstruction.
    parity_reconstructions,
    /// Reads that stayed uncorrectable.
    uncorrectable_reads,
    /// Pages OOB-scanned at mount.
    mount_scanned_pages,
    /// Reservations on the PCIe and controller-DRAM links.
    link_transfers,
    /// Simulated busy time of the inbound PCIe link, ns.
    busy_pcie_in,
    /// Simulated busy time of the outbound PCIe link, ns.
    busy_pcie_out,
    /// Simulated busy time of the controller-DRAM port, ns.
    busy_dram,
    /// Simulated busy time summed over channel buses, ns.
    busy_bus,
    /// Simulated busy time summed over every plane of every die, ns.
    busy_planes,
    /// Page-buffer pool checkouts (process-wide).
    pool_checkouts,
    /// Checkouts the system allocator served.
    pool_fresh,
    /// Checkouts served from a free list.
    pool_recycled,
}

impl Counters {
    /// Reads every counter of `dev` and the page-buffer pool.
    pub fn of(dev: &Device) -> Counters {
        let s = dev.stats();
        let planes = dev.config().nand.geometry.planes;
        let pool = simkit::pool::stats();
        let mut c = Counters {
            read_retries: s.read_retries.get(),
            logical_programs: s.user_programs.get() + s.ndp_programs.get(),
            gc_copies: s.gc_copies.get(),
            rescue_copies: s.rescue_copies.get(),
            journal_pages: s.journal_pages.get(),
            parity_writes: s.parity_writes.get(),
            scrub_reads: s.scrub_reads.get(),
            parity_reconstructions: s.parity_reconstructions.get(),
            uncorrectable_reads: s.uncorrectable_reads.get(),
            mount_scanned_pages: s.mount_scanned_pages.get(),
            link_transfers: dev.pcie_in().transfers()
                + dev.pcie_out().transfers()
                + dev.dram().transfers(),
            busy_pcie_in: dev.pcie_in().busy_total().as_ns(),
            busy_pcie_out: dev.pcie_out().busy_total().as_ns(),
            busy_dram: dev.dram().busy_total().as_ns(),
            pool_checkouts: pool.checkouts,
            pool_fresh: pool.fresh_allocs,
            pool_recycled: pool.recycled,
            ..Counters::default()
        };
        for ch in dev.channels() {
            c.busy_bus += ch.bus().busy_total().as_ns();
            for die in ch.dies() {
                let st = die.stats();
                c.array_reads += st.reads.get();
                c.programs += st.programs.get();
                c.erases += st.erases.get();
                for p in 0..planes {
                    c.busy_planes += die.plane_busy_total(p).as_ns();
                }
            }
        }
        c
    }

    /// NAND page reads, page programs and block erases.
    pub fn flash_ops(&self) -> u64 {
        self.array_reads + self.programs + self.erases
    }

    /// Write amplification of the interval: every page programmed for
    /// data (logical, GC and rescue copies) per logical page (1 when idle).
    pub fn waf(&self) -> f64 {
        if self.logical_programs == 0 {
            return 1.0;
        }
        (self.logical_programs + self.gc_copies + self.rescue_copies) as f64
            / self.logical_programs as f64
    }
}

/// Simulated busy share of each resource class over a window of `window_ns`
/// simulated ns: busy-time deltas divided by the window (per-channel and
/// per-plane means for buses and dies).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BusyShare {
    /// Inbound PCIe.
    pub pcie_in: f64,
    /// Outbound PCIe.
    pub pcie_out: f64,
    /// Controller DRAM.
    pub dram: f64,
    /// Mean over channel buses.
    pub bus_mean: f64,
    /// Mean over die planes.
    pub die_mean: f64,
}

impl BusyShare {
    /// Shares from a counter difference on `dev`'s geometry.
    pub fn of(d: &Counters, dev: &Device, window_ns: u64) -> BusyShare {
        if window_ns == 0 {
            return BusyShare::default();
        }
        let w = window_ns as f64;
        let cfg = dev.config();
        let planes = (cfg.total_dies() * cfg.nand.geometry.planes) as f64;
        BusyShare {
            pcie_in: d.busy_pcie_in as f64 / w,
            pcie_out: d.busy_pcie_out as f64 / w,
            dram: d.busy_dram as f64 / w,
            bus_mean: d.busy_bus as f64 / cfg.channels as f64 / w,
            die_mean: d.busy_planes as f64 / planes / w,
        }
    }
}

/// Peak resident memory of this process in MB (`VmHWM` of
/// `/proc/self/status`; 0 if unreadable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over the digest lines: one number that two runs can compare.
pub fn fnv64(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimTime;
    use ssdsim::{Lpn, SsdConfig};

    #[test]
    fn counters_see_a_host_write_and_busy_time() {
        let mut dev = Device::new(SsdConfig::tiny());
        let before = Counters::of(&dev);
        dev.host_write_page(Lpn(3), None, SimTime::ZERO).unwrap();
        let d = Counters::of(&dev).since(&before);
        assert_eq!(d.programs, 1);
        assert_eq!(d.logical_programs, 1);
        assert_eq!(d.flash_ops(), 1);
        assert!(d.busy_pcie_in > 0 && d.busy_planes > 0);
        assert_eq!(d.waf(), 1.0);
        let share = BusyShare::of(&d, &dev, d.busy_pcie_in);
        assert_eq!(share.pcie_in, 1.0);
    }

    #[test]
    fn cpu_clock_counts_busy_work() {
        // Other tests may run on other threads meanwhile; they only add.
        let t = Stopwatch::start();
        let mut x = 1u64;
        while t.lap().wall < 0.03 {
            x = std::hint::black_box(x.wrapping_mul(3).wrapping_add(1));
        }
        let lap = t.lap();
        assert!(
            lap.cpu > 0.02,
            "30 ms of spinning read {} s of CPU",
            lap.cpu
        );
    }

    #[test]
    fn peak_rss_rises_past_a_new_high_water_mark() {
        let before = peak_rss_mb();
        assert!(before > 0.0);
        // Touch more than the whole current high-water mark.
        let block = vec![1u8; (before as usize + 64) << 20];
        std::hint::black_box(&block);
        assert!(peak_rss_mb() >= before + 60.0);
    }

    #[test]
    fn digest_hash_depends_on_every_line() {
        let a = vec!["x=1".to_string(), "y=2".to_string()];
        let b = vec!["x=1".to_string(), "y=3".to_string()];
        assert_ne!(fnv64(&a), fnv64(&b));
        assert_eq!(fnv64(&a), fnv64(&a.clone()));
    }
}
