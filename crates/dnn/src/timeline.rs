//! End-to-end iteration assembly: compute + optimizer step.

use serde::{Deserialize, Serialize};
use simkit::SimDuration;

/// Timing of one training iteration, split into its two phases.
///
/// `overlap` models how much of the optimizer step hides under the *next*
/// iteration's forward/backward (gradient- and update-streaming systems
/// overlap partially; a strict synchronous step overlaps nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IterationBreakdown {
    /// Forward+backward time.
    pub compute: SimDuration,
    /// Optimizer-step time (state read/update/write).
    pub optimizer: SimDuration,
    /// Per-mille of the optimizer step that overlaps compute (0–1000).
    pub overlap_permille: u16,
}

impl IterationBreakdown {
    /// A strictly synchronous iteration (no overlap).
    pub fn synchronous(compute: SimDuration, optimizer: SimDuration) -> Self {
        IterationBreakdown {
            compute,
            optimizer,
            overlap_permille: 0,
        }
    }

    /// Exposed (critical-path) optimizer time after overlap.
    pub fn exposed_optimizer(&self) -> SimDuration {
        let hidden = self
            .optimizer
            .saturating_mul(self.overlap_permille as u64)
            .div_by(1000);
        let hidden = hidden.min(self.compute); // cannot hide more than compute
        self.optimizer - hidden
    }

    /// Total iteration time.
    pub fn total(&self) -> SimDuration {
        self.compute + self.exposed_optimizer()
    }

    /// Fraction of the iteration spent in the (exposed) optimizer step.
    pub fn optimizer_share(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            return 0.0;
        }
        self.exposed_optimizer().as_secs_f64() / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl IterationBreakdown {
        /// An iteration where a fraction of the optimizer step overlaps
        /// compute.
        ///
        /// # Panics
        /// Panics if `overlap_permille > 1000`.
        fn overlapped(compute: SimDuration, optimizer: SimDuration, overlap_permille: u16) -> Self {
            assert!(overlap_permille <= 1000, "overlap is a per-mille fraction");
            IterationBreakdown {
                compute,
                optimizer,
                overlap_permille,
            }
        }

        /// Iteration speedup when replacing this breakdown's optimizer phase
        /// with `faster` (same compute, same overlap policy).
        fn speedup_with(&self, faster: SimDuration) -> f64 {
            let new = IterationBreakdown {
                optimizer: faster,
                ..*self
            };
            self.total().as_secs_f64() / new.total().as_secs_f64()
        }
    }

    #[test]
    fn synchronous_total_is_sum() {
        let b =
            IterationBreakdown::synchronous(SimDuration::from_ms(100), SimDuration::from_ms(300));
        assert_eq!(b.total(), SimDuration::from_ms(400));
        assert!((b.optimizer_share() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn full_overlap_hides_up_to_compute() {
        let b = IterationBreakdown::overlapped(
            SimDuration::from_ms(100),
            SimDuration::from_ms(300),
            1000,
        );
        // 300 ms optimizer, at most 100 ms hidden under compute.
        assert_eq!(b.exposed_optimizer(), SimDuration::from_ms(200));
        assert_eq!(b.total(), SimDuration::from_ms(300));
    }

    #[test]
    fn partial_overlap() {
        let b = IterationBreakdown::overlapped(
            SimDuration::from_ms(500),
            SimDuration::from_ms(200),
            500,
        );
        assert_eq!(b.exposed_optimizer(), SimDuration::from_ms(100));
        assert_eq!(b.total(), SimDuration::from_ms(600));
    }

    #[test]
    fn speedup_with_faster_optimizer() {
        let b =
            IterationBreakdown::synchronous(SimDuration::from_ms(100), SimDuration::from_ms(300));
        let s = b.speedup_with(SimDuration::from_ms(50));
        assert!((s - 400.0 / 150.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "per-mille")]
    fn overlap_over_1000_panics() {
        let _ =
            IterationBreakdown::overlapped(SimDuration::from_ms(1), SimDuration::from_ms(1), 1001);
    }

    #[test]
    fn zero_total_share_is_zero() {
        let b = IterationBreakdown::synchronous(SimDuration::ZERO, SimDuration::ZERO);
        assert_eq!(b.optimizer_share(), 0.0);
    }
}
