//! Top-k gradient compression with error feedback.
//!
//! The one thing an in-storage optimizer still needs from the host every
//! step is the gradient (2 B/param over PCIe). Top-k sparsification sends
//! only the `k` largest-magnitude entries as `(index, value)` pairs, and
//! **error feedback** accumulates everything dropped into a residual that
//! is added back before the next selection — the standard memory-
//! compensated compression scheme that keeps SGD-style convergence.
//!
//! The compressed stream is what crosses PCIe; the device-side engine
//! scatters it back to dense pages before the update, so the flash-side
//! arithmetic is unchanged.

use serde::{Deserialize, Serialize};

/// A sparse gradient: the selected entries of a dense tensor.
///
/// Indices are strictly increasing; `to_dense` reconstructs the tensor with
/// zeros elsewhere.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseGrad {
    n: usize,
    indices: Vec<u32>,
    values: Vec<f32>,
}

/// Wire overhead of a sparse gradient message (element count + tensor len).
pub const SPARSE_HEADER_BYTES: u64 = 16;
/// Wire bytes per selected entry: 4-byte index + 2-byte value.
pub const SPARSE_ENTRY_BYTES: u64 = 6;

impl SparseGrad {
    /// Selects the `⌈fraction·n⌉` largest-magnitude entries of `dense`.
    ///
    /// # Panics
    /// Panics if `fraction` is not in `(0, 1]` or `dense` exceeds `u32`
    /// indexing.
    pub fn top_k(dense: &[f32], fraction: f64) -> SparseGrad {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0,1], got {fraction}"
        );
        assert!(
            dense.len() <= u32::MAX as usize,
            "tensor too large for u32 indices"
        );
        let k = ((dense.len() as f64 * fraction).ceil() as usize).min(dense.len());
        // Partial selection: indices of the k largest |g|, under a *total*
        // order — `select_nth_unstable_by` requires one, and the obvious
        // `partial_cmp(..).unwrap_or(Equal)` is inconsistent when a
        // gradient is NaN (NaN ties with everything while other pairs
        // order strictly), yielding an arbitrary partition. NaN sorts
        // after every number (so it never displaces a real gradient; a
        // plain `total_cmp` on `|g|` would rank NaN *first* descending),
        // magnitude ties break by index, and whatever NaN still lands in
        // the selection — only possible when there are fewer than `k`
        // finite entries — is dropped: a NaN "gradient" carries no
        // magnitude information and must not enter the sparse set.
        let mut order: Vec<u32> = (0..dense.len() as u32).collect();
        if k < dense.len() {
            order.select_nth_unstable_by(k, |&a, &b| {
                let (va, vb) = (dense[a as usize], dense[b as usize]);
                match (va.is_nan(), vb.is_nan()) {
                    (true, true) => a.cmp(&b),
                    (true, false) => std::cmp::Ordering::Greater,
                    (false, true) => std::cmp::Ordering::Less,
                    (false, false) => vb.abs().total_cmp(&va.abs()).then_with(|| a.cmp(&b)),
                }
            });
            order.truncate(k);
        }
        order.retain(|&i| !dense[i as usize].is_nan());
        order.sort_unstable();
        let values = order.iter().map(|&i| dense[i as usize]).collect();
        SparseGrad {
            n: dense.len(),
            indices: order,
            values,
        }
    }

    /// Number of transmitted entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Selected indices (strictly increasing).
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Reconstructs the dense tensor (zeros where not selected).
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.n];
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            out[i as usize] = v;
        }
        out
    }

    /// Wire size of the compressed message.
    pub fn wire_bytes(&self) -> u64 {
        SPARSE_HEADER_BYTES + SPARSE_ENTRY_BYTES * self.nnz() as u64
    }

    /// Compression ratio versus a dense 2 B/element stream.
    pub fn ratio(&self) -> f64 {
        let dense = 2 * self.n as u64;
        self.wire_bytes() as f64 / dense as f64
    }
}

/// Error-feedback compressor: dropped gradient mass accumulates in a
/// residual and is re-injected before the next selection, so nothing is
/// permanently lost — only delayed.
#[derive(Debug, Clone)]
pub struct ErrorFeedback {
    residual: Vec<f32>,
    fraction: f64,
}

impl ErrorFeedback {
    /// Creates a compressor for tensors of `n` elements keeping
    /// `fraction` of entries per step.
    pub fn new(n: usize, fraction: f64) -> Self {
        assert!(fraction > 0.0 && fraction <= 1.0);
        ErrorFeedback {
            residual: vec![0.0; n],
            fraction,
        }
    }

    /// Compresses `grads`, folding in the residual and retaining what was
    /// dropped.
    pub fn compress(&mut self, grads: &[f32]) -> SparseGrad {
        assert_eq!(grads.len(), self.residual.len(), "tensor length changed");
        let combined: Vec<f32> = grads
            .iter()
            .zip(&self.residual)
            .map(|(&g, &r)| g + r)
            .collect();
        let sparse = SparseGrad::top_k(&combined, self.fraction);
        // Residual = combined − transmitted.
        self.residual.copy_from_slice(&combined);
        for &i in sparse.indices() {
            self.residual[i as usize] = 0.0;
        }
        sparse
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SparseGrad {
        /// Number of selected entries whose index falls in `[start, end)` —
        /// the per-update-group accounting the device scheduler needs.
        pub fn nnz_in_range(&self, start: u64, end: u64) -> usize {
            let lo = self.indices.partition_point(|&i| (i as u64) < start);
            let hi = self.indices.partition_point(|&i| (i as u64) < end);
            hi - lo
        }
    }

    #[test]
    fn top_k_keeps_the_largest_magnitudes() {
        let dense = [0.1f32, -5.0, 0.01, 3.0, -0.2, 0.0];
        let s = SparseGrad::top_k(&dense, 2.0 / 6.0);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.indices(), &[1, 3]);
        let d = s.to_dense();
        assert_eq!(d, vec![0.0, -5.0, 0.0, 3.0, 0.0, 0.0]);
    }

    #[test]
    fn full_fraction_is_lossless() {
        let dense: Vec<f32> = (0..100).map(|i| (i as f32).sin()).collect();
        let s = SparseGrad::top_k(&dense, 1.0);
        assert_eq!(s.to_dense(), dense);
    }

    #[test]
    fn wire_accounting() {
        let dense = vec![1.0f32; 1000];
        let s = SparseGrad::top_k(&dense, 0.01);
        assert_eq!(s.nnz(), 10);
        assert_eq!(s.wire_bytes(), 16 + 60);
        // 76 B vs 2000 B dense.
        assert!(s.ratio() < 0.05);
    }

    #[test]
    fn nnz_in_range_matches_filter() {
        let mut dense = vec![0.0f32; 100];
        for i in [3usize, 17, 18, 55, 99] {
            dense[i] = 1.0;
        }
        let s = SparseGrad::top_k(&dense, 0.05);
        assert_eq!(s.nnz(), 5);
        assert_eq!(s.nnz_in_range(0, 20), 3);
        assert_eq!(s.nnz_in_range(20, 60), 1);
        assert_eq!(s.nnz_in_range(60, 99), 0);
        assert_eq!(s.nnz_in_range(0, 100), 5);
    }

    #[test]
    fn error_feedback_conserves_gradient_mass() {
        let n = 64;
        let mut ef = ErrorFeedback::new(n, 0.25);
        let grads: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).cos()).collect();
        let mut delivered = vec![0.0f64; n];
        // Feed the same gradient for several steps; delivered + residual
        // must always equal the total injected mass, elementwise.
        for step in 1..=6 {
            let s = ef.compress(&grads);
            for (&i, &v) in s.indices.iter().zip(&s.values) {
                delivered[i as usize] += v as f64;
            }
            let _ = step;
        }
        for i in 0..n {
            let injected = grads[i] as f64 * 6.0;
            let pending = ef.residual[i] as f64;
            assert!(
                (delivered[i] + pending - injected).abs() < 1e-4,
                "mass leak at {i}: delivered {} + pending {} vs {}",
                delivered[i],
                pending,
                injected
            );
        }
    }

    #[test]
    fn error_feedback_eventually_delivers_everything() {
        // A small constant gradient that never wins top-k alone must still
        // get through via accumulation.
        let n = 10;
        let mut ef = ErrorFeedback::new(n, 0.1); // 1 entry per step
        let mut grads = vec![0.001f32; n];
        grads[0] = 0.02; // dominant entry (wins until residuals accumulate)
        let mut small_delivered = false;
        for _ in 0..50 {
            let s = ef.compress(&grads);
            if s.indices().iter().any(|&i| i != 0) {
                small_delivered = true;
            }
        }
        assert!(small_delivered, "starved entries must eventually transmit");
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn zero_fraction_panics() {
        let _ = SparseGrad::top_k(&[1.0], 0.0);
    }

    #[test]
    fn top_k_is_deterministic_and_nan_excluded() {
        // NaN, signed zeros, and tied magnitudes together: the selection
        // must be a deterministic, NaN-free set no matter how the
        // partition could have tie-broken.
        let dense = [
            f32::NAN,
            2.0,
            -2.0, // ties |2.0|; index 1 must win the last slot over index 2
            0.5,
            -0.0,
            0.0,
            f32::NAN,
            1.0,
        ];
        let s = SparseGrad::top_k(&dense, 3.0 / 8.0);
        assert_eq!(s.indices(), &[1, 2, 7], "largest magnitudes, NaN excluded");
        for _ in 0..8 {
            assert_eq!(SparseGrad::top_k(&dense, 3.0 / 8.0), s, "deterministic");
        }

        // Tied magnitudes at the selection boundary resolve by index.
        let tied = [1.0f32, -1.0, 1.0, -1.0, 1.0];
        let s = SparseGrad::top_k(&tied, 2.0 / 5.0);
        assert_eq!(s.indices(), &[0, 1]);

        // All-NaN input: nothing survives selection.
        let poisoned = [f32::NAN; 4];
        let s = SparseGrad::top_k(&poisoned, 0.5);
        assert_eq!(s.nnz(), 0);
        assert_eq!(s.to_dense(), vec![0.0; 4]);

        // Signed zeros are a magnitude tie, not an ordering hazard: with
        // more slots than non-zero entries, the zeros picked are the
        // lowest-indexed ones.
        let zeros = [0.0f32, -0.0, 3.0, -0.0, 0.0];
        let s = SparseGrad::top_k(&zeros, 3.0 / 5.0);
        assert_eq!(s.indices(), &[0, 1, 2]);
    }
}
