//! ZeRO-style sharding of optimizer state across devices.
//!
//! ZeRO stage 3 partitions optimizer state equally across data-parallel
//! workers; OptimStore inherits the same scheme with one SSD per shard.
//! The multi-device scaling experiment (reconstructed Figure 13) sweeps the
//! shard count.

use serde::{Deserialize, Serialize};
use std::ops::Range;

/// An equal partition of `params` parameters across `devices` shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ZeroPartition {
    /// Total trainable parameters.
    pub params: u64,
    /// Number of shards (devices).
    pub devices: u32,
}

impl ZeroPartition {
    /// Creates a partition.
    ///
    /// # Panics
    /// Panics if `devices` is zero.
    pub fn new(params: u64, devices: u32) -> Self {
        assert!(devices > 0, "at least one device required");
        ZeroPartition { params, devices }
    }

    /// The half-open parameter range owned by `device`.
    ///
    /// Ranges are contiguous, cover every parameter exactly once, and
    /// differ in size by at most one (the first `params % devices` shards
    /// get the extra parameter).
    pub fn range_of(&self, device: u32) -> Range<u64> {
        assert!(device < self.devices, "device {device} out of range");
        let d = self.devices as u64;
        let base = self.params / d;
        let extra = self.params % d;
        let dev = device as u64;
        let start = dev * base + dev.min(extra);
        let len = base + if dev < extra { 1 } else { 0 };
        start..start + len
    }

    /// The shard that owns parameter `index`.
    pub fn owner_of(&self, index: u64) -> u32 {
        assert!(index < self.params, "param {index} out of range");
        let d = self.devices as u64;
        let base = self.params / d;
        let extra = self.params % d;
        let boundary = extra * (base + 1);
        if index < boundary {
            (index / (base + 1)) as u32
        } else {
            (extra + (index - boundary) / base) as u32
        }
    }

    /// The largest shard size (drives per-device capacity planning).
    pub fn max_shard(&self) -> u64 {
        let r = self.range_of(0);
        r.end - r.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_exactly_once() {
        for (params, devices) in [(100u64, 7u32), (8, 8), (5, 8), (1_000_003, 13)] {
            let p = ZeroPartition::new(params, devices);
            let mut covered = 0u64;
            let mut expected_start = 0u64;
            for r in (0..devices).map(|d| p.range_of(d)) {
                assert_eq!(r.start, expected_start, "contiguous");
                covered += r.end - r.start;
                expected_start = r.end;
            }
            assert_eq!(covered, params);
        }
    }

    #[test]
    fn shard_sizes_differ_by_at_most_one() {
        let p = ZeroPartition::new(100, 7);
        let sizes: Vec<u64> = (0..7)
            .map(|d| p.range_of(d))
            .map(|r| r.end - r.start)
            .collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1);
        assert_eq!(p.max_shard(), max);
    }

    #[test]
    fn owner_agrees_with_ranges() {
        let p = ZeroPartition::new(1003, 7);
        for d in 0..7 {
            for i in p.range_of(d) {
                assert_eq!(p.owner_of(i), d, "param {i}");
            }
        }
    }

    #[test]
    fn single_device_owns_everything() {
        let p = ZeroPartition::new(42, 1);
        assert_eq!(p.range_of(0), 0..42);
        assert_eq!(p.owner_of(41), 0);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_panics() {
        let _ = ZeroPartition::new(10, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_device_panics() {
        let p = ZeroPartition::new(10, 2);
        let _ = p.range_of(2);
    }
}
