//! IEEE 754 binary16 ("half precision"), implemented from scratch.
//!
//! Gradients and working weights in mixed-precision training are fp16, so
//! the in-storage engine converts at every element. Conversion here follows
//! the hardware semantics exactly: round-to-nearest-even on narrowing,
//! gradual underflow to subnormals, saturation to infinity past the
//! representable range, and NaN preservation.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An IEEE 754 binary16 value, stored as its bit pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct F16(pub u16);

const EXP_MASK: u16 = 0x7C00;
const FRAC_MASK: u16 = 0x03FF;

/// f32 bits of ∞.
const F32_INF: u32 = 0x7F80_0000;
/// f32 bits of 2⁻¹⁴, the smallest f16 normal.
const F32_F16_MIN_NORMAL: u32 = 113 << 23;
/// f32 bits of 2¹⁶, where f16 overflows to ∞ whatever the rounding.
const F32_F16_OVERFLOW: u32 = 143 << 23;
/// The exponent bias difference (127 − 15) at the f32 exponent position.
const REBIAS: u32 = (127 - 15) << 23;

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7E00);
    /// Largest finite value (65504).
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest positive normal value (2⁻¹⁴).
    pub const MIN_POSITIVE: F16 = F16(0x0400);

    /// Converts from `f32` with round-to-nearest-even.
    ///
    /// Branchless: every case is computed and one is selected, so a loop
    /// over this call has no data-dependent branch and can vectorize.
    pub fn from_f32(x: f32) -> F16 {
        let bits = x.to_bits();
        let sign = (bits >> 16) & 0x8000;
        let a = bits & 0x7FFF_FFFF;
        // f16 normals: re-bias the exponent and round the 13 dropped bits to
        // nearest even with one add. A carry into the exponent, up to ∞, is
        // the correctly rounded result.
        let normal = a.wrapping_sub(REBIAS).wrapping_add(0xFFF + ((a >> 13) & 1)) >> 13;
        // f16 subnormals and zero: adding 0.5 puts the f16 unit 2⁻²⁴ at the
        // f32 ulp, so the FPU's own round-to-nearest-even does the rounding.
        let sub = (f32::from_bits(a) + 0.5)
            .to_bits()
            .wrapping_sub(0.5f32.to_bits());
        // 2¹⁶ and up saturates to ∞; NaN stays NaN with the quiet bit set.
        let inf_nan = if a > F32_INF {
            0x7E00 | ((a >> 13) & FRAC_MASK as u32)
        } else {
            EXP_MASK as u32
        };
        let out = if a >= F32_F16_OVERFLOW {
            inf_nan
        } else if a < F32_F16_MIN_NORMAL {
            sub
        } else {
            normal
        };
        F16((sign | out) as u16)
    }

    /// Converts to `f32` exactly (widening is lossless). Branchless, like
    /// [`F16::from_f32`].
    pub fn to_f32(self) -> f32 {
        let h = self.0 as u32;
        let sign = (h & 0x8000) << 16;
        // Exponent and fraction, shifted to their f32 positions.
        let em = (h & 0x7FFF) << 13;
        let normal = em + REBIAS;
        // Subnormals and zero: frac × 2⁻²⁴ is (2⁻¹⁴ + frac × 2⁻²⁴) − 2⁻¹⁴,
        // and the subtraction is exact.
        let min_normal = f32::from_bits(F32_F16_MIN_NORMAL);
        let sub = (f32::from_bits(em + F32_F16_MIN_NORMAL) - min_normal).to_bits();
        // ±∞ and NaN; a NaN gets the quiet bit.
        let f16_inf = (EXP_MASK as u32) << 13;
        let inf_nan = F32_INF | em | if em > f16_inf { 0x0040_0000 } else { 0 };
        let bits = if em >= f16_inf {
            inf_nan
        } else if em < 1 << 23 {
            sub
        } else {
            normal
        };
        f32::from_bits(sign | bits)
    }

    /// Raw little-endian bytes.
    pub fn to_le_bytes(self) -> [u8; 2] {
        self.0.to_le_bytes()
    }

    /// From raw little-endian bytes.
    pub fn from_le_bytes(b: [u8; 2]) -> F16 {
        F16(u16::from_le_bytes(b))
    }

    /// True for either NaN encoding.
    pub fn is_nan(self) -> bool {
        (self.0 & EXP_MASK) == EXP_MASK && (self.0 & FRAC_MASK) != 0
    }

    /// True for zero, subnormal or normal values.
    pub fn is_finite(self) -> bool {
        (self.0 & EXP_MASK) != EXP_MASK
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl From<F16> for f32 {
    fn from(h: F16) -> f32 {
        h.to_f32()
    }
}

/// Widens the little-endian f16 values in `src` (2 B each) into `dst`, up
/// to the shorter of the two. On an x86-64 CPU with AVX and F16C this runs
/// the hardware conversion, eight lanes per instruction; elsewhere the
/// portable loop over [`F16::to_f32`]. Both give the same bits.
pub(crate) fn widen_slice(src: &[u8], dst: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if f16c::widen(src, dst) {
        return;
    }
    widen_portable(src, dst);
}

/// Narrows `src` into little-endian f16 values in `dst` (2 B each), up to
/// the shorter of the two, rounding to nearest even; dispatched like
/// [`widen_slice`].
pub(crate) fn narrow_slice(src: &[f32], dst: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    if f16c::narrow(src, dst) {
        return;
    }
    narrow_portable(src, dst);
}

/// The fallback of [`widen_slice`], and the oracle its hardware path is
/// tested against.
fn widen_portable(src: &[u8], dst: &mut [f32]) {
    for (d, s) in dst.iter_mut().zip(src.chunks_exact(2)) {
        *d = F16::from_le_bytes([s[0], s[1]]).to_f32();
    }
}

/// The fallback of [`narrow_slice`], and the oracle its hardware path is
/// tested against.
fn narrow_portable(src: &[f32], dst: &mut [u8]) {
    for (s, d) in src.iter().zip(dst.chunks_exact_mut(2)) {
        d.copy_from_slice(&F16::from_f32(*s).to_le_bytes());
    }
}

/// The x86-64 F16C conversions: `vcvtph2ps` and `vcvtps2ph` with the
/// round-to-nearest-even immediate, whose results are exactly those of
/// [`F16::to_f32`] and [`F16::from_f32`] (NaNs quieted, payloads kept).
/// All of the crate's `unsafe` is in this module.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[deny(clippy::undocumented_unsafe_blocks)]
mod f16c {
    use std::arch::x86_64::{
        __m128i, _mm256_cvtph_ps, _mm256_cvtps_ph, _mm256_loadu_ps, _mm256_storeu_ps,
        _mm_loadu_si128, _mm_storeu_si128, _MM_FROUND_TO_NEAREST_INT,
    };

    fn detected() -> bool {
        is_x86_feature_detected!("avx") && is_x86_feature_detected!("f16c")
    }

    /// Does [`super::widen_slice`]'s work and returns true, or returns
    /// false with `dst` untouched when the CPU lacks AVX or F16C.
    pub(super) fn widen(src: &[u8], dst: &mut [f32]) -> bool {
        if !detected() {
            return false;
        }
        // SAFETY: `detected` has just confirmed the AVX and F16C features
        // that `widen_avx` is compiled for.
        unsafe { widen_avx(src, dst) };
        true
    }

    /// Does [`super::narrow_slice`]'s work and returns true, or returns
    /// false with `dst` untouched when the CPU lacks AVX or F16C.
    pub(super) fn narrow(src: &[f32], dst: &mut [u8]) -> bool {
        if !detected() {
            return false;
        }
        // SAFETY: as in `widen`.
        unsafe { narrow_avx(src, dst) };
        true
    }

    #[target_feature(enable = "avx,f16c")]
    fn widen_avx(src: &[u8], dst: &mut [f32]) {
        // Trim both to the same element count, so their 8-lane chunks pair
        // up and the remainders are the same tail.
        let n = dst.len().min(src.len() / 2);
        let mut src = src[..2 * n].chunks_exact(16);
        let mut dst = dst[..n].chunks_exact_mut(8);
        for (s, d) in (&mut src).zip(&mut dst) {
            // SAFETY: `s` is 16 readable bytes and `d` 8 writable f32s, the
            // chunk sizes; both intrinsics take unaligned pointers.
            unsafe {
                let f = _mm256_cvtph_ps(_mm_loadu_si128(s.as_ptr().cast::<__m128i>()));
                _mm256_storeu_ps(d.as_mut_ptr(), f);
            }
        }
        super::widen_portable(src.remainder(), dst.into_remainder());
    }

    #[target_feature(enable = "avx,f16c")]
    fn narrow_avx(src: &[f32], dst: &mut [u8]) {
        let n = src.len().min(dst.len() / 2);
        let mut src = src[..n].chunks_exact(8);
        let mut dst = dst[..2 * n].chunks_exact_mut(16);
        for (s, d) in (&mut src).zip(&mut dst) {
            // SAFETY: `s` is 8 readable f32s and `d` 16 writable bytes, the
            // chunk sizes; both intrinsics take unaligned pointers.
            unsafe {
                let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(_mm256_loadu_ps(s.as_ptr()));
                _mm_storeu_si128(d.as_mut_ptr().cast::<__m128i>(), h);
            }
        }
        super::narrow_portable(src.remainder(), dst.into_remainder());
    }
}

/// The original branchy conversions, kept as the oracle the branchless
/// ones are tested against.
#[cfg(test)]
mod reference {
    use super::{EXP_MASK, F16, FRAC_MASK};

    pub fn from_f32(x: f32) -> F16 {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let frac = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf or NaN. Preserve NaN-ness with a quiet NaN payload bit.
            return if frac == 0 {
                F16(sign | EXP_MASK)
            } else {
                F16(sign | EXP_MASK | 0x0200 | ((frac >> 13) as u16 & FRAC_MASK))
            };
        }

        // Unbiased exponent.
        let e = exp - 127;
        if e >= 16 {
            // Too large: saturate to infinity (2^16 > 65504 max).
            return F16(sign | EXP_MASK);
        }
        if e >= -14 {
            // Normal range for f16.
            // 24-bit significand (implicit 1) must round to 11 bits.
            let sig = 0x0080_0000 | frac; // implicit one
            let shift = 13; // 23 -> 10 fraction bits
            let halfway = 1u32 << (shift - 1);
            let rest = sig & ((1 << shift) - 1);
            let mut out = ((e + 15) as u32) << 10 | (sig >> shift) & FRAC_MASK as u32;
            // Round to nearest, ties to even.
            if rest > halfway || (rest == halfway && (out & 1) == 1) {
                out += 1; // may carry into exponent; that is correct
            }
            if out >= 0x7C00 {
                return F16(sign | EXP_MASK); // rounded up to infinity
            }
            return F16(sign | out as u16);
        }
        if e >= -25 {
            // Subnormal f16 (including values that round up from below the
            // subnormal range). The 24-bit significand represents
            // sig × 2^(e−23); the f16 subnormal unit is 2^−24, so the result
            // is sig × 2^(e+1), i.e. sig shifted right by −e−1 bits.
            let sig = 0x0080_0000 | frac;
            let shift = (-e - 1) as u32;
            let halfway = 1u32 << (shift - 1);
            let rest = sig & ((1 << shift) - 1);
            let mut out = sig >> shift;
            if rest > halfway || (rest == halfway && (out & 1) == 1) {
                out += 1;
            }
            return F16(sign | out as u16);
        }
        // Underflows to zero.
        F16(sign)
    }

    pub fn to_f32(h: F16) -> f32 {
        let sign = ((h.0 & 0x8000) as u32) << 16;
        let exp = (h.0 & EXP_MASK) >> 10;
        let frac = (h.0 & FRAC_MASK) as u32;
        let bits = match exp {
            0 => {
                if frac == 0 {
                    sign // signed zero
                } else {
                    // Subnormal: value = frac × 2⁻²⁴. Normalize by the top
                    // set bit p: value = 1.m × 2^(p−24), biased exp = 103+p.
                    let p = 31 - frac.leading_zeros(); // 0..=9
                    let exp32 = 103 + p;
                    let frac32 = ((frac << (10 - p)) & FRAC_MASK as u32) << 13;
                    sign | (exp32 << 23) | frac32
                }
            }
            0x1F => {
                if frac == 0 {
                    sign | 0x7F80_0000
                } else {
                    sign | 0x7F80_0000 | (frac << 13) | 0x0040_0000
                }
            }
            _ => {
                let e = (exp as i32 - 15 + 127) as u32;
                sign | (e << 23) | (frac << 13)
            }
        };
        f32::from_bits(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl F16 {
        /// True for ±∞.
        pub fn is_infinite(self) -> bool {
            (self.0 & EXP_MASK) == EXP_MASK && (self.0 & FRAC_MASK) == 0
        }
    }

    #[test]
    fn exact_small_integers_round_trip() {
        for i in -2048..=2048i32 {
            let x = i as f32;
            let h = F16::from_f32(x);
            assert_eq!(h.to_f32(), x, "integer {i} must be exact in f16");
        }
    }

    #[test]
    fn constants() {
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 6.103_515_6e-5);
        assert_eq!(F16::INFINITY.to_f32(), f32::INFINITY);
        assert_eq!(F16::NEG_INFINITY.to_f32(), f32::NEG_INFINITY);
        assert!(F16::NAN.to_f32().is_nan());
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert_eq!(F16::from_f32(65536.0), F16::INFINITY);
        assert_eq!(F16::from_f32(1e30), F16::INFINITY);
        assert_eq!(F16::from_f32(-1e30), F16::NEG_INFINITY);
        // 65520 is the rounding boundary: rounds to infinity.
        assert_eq!(F16::from_f32(65520.0), F16::INFINITY);
        // 65519.996… rounds down to MAX.
        assert_eq!(F16::from_f32(65519.0), F16::MAX);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10 → ties to even (1.0).
        let halfway = 1.0f32 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(halfway), F16::ONE);
        // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9 → ties to even (1+2^-9).
        let halfway2 = 1.0f32 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(halfway2).to_f32(), 1.0 + 2.0f32.powi(-9));
        // Just above halfway rounds up.
        assert_eq!(
            F16::from_f32(halfway + 1e-7).to_f32(),
            1.0 + 2.0f32.powi(-10)
        );
    }

    #[test]
    fn subnormals() {
        // Smallest positive subnormal is 2^-24.
        let tiny = 2.0f32.powi(-24);
        let h = F16::from_f32(tiny);
        assert_eq!(h.0, 1);
        assert_eq!(h.to_f32(), tiny);
        // Below half the smallest subnormal flushes to zero.
        assert_eq!(F16::from_f32(2.0f32.powi(-26)), F16::ZERO);
        // Halfway (2^-25) ties to even → zero.
        assert_eq!(F16::from_f32(2.0f32.powi(-25)), F16::ZERO);
        // A generic subnormal round-trips.
        let x = 3.0 * 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(x).to_f32(), x);
    }

    #[test]
    fn signed_zero_preserved() {
        let nz = F16::from_f32(-0.0);
        assert_eq!(nz.0, 0x8000);
        assert_eq!(nz.to_f32().to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn nan_is_preserved() {
        let h = F16::from_f32(f32::NAN);
        assert!(h.is_nan());
        assert!(h.to_f32().is_nan());
        assert!(!F16::INFINITY.is_nan());
        assert!(F16::INFINITY.is_infinite());
        assert!(!F16::ONE.is_infinite());
        assert!(F16::ONE.is_finite());
        assert!(!F16::NAN.is_finite());
    }

    #[test]
    fn bytes_round_trip() {
        let h = F16::from_f32(0.333);
        assert_eq!(F16::from_le_bytes(h.to_le_bytes()), h);
    }

    #[test]
    fn widening_then_narrowing_is_identity_for_all_f16() {
        // Exhaustive: every finite f16 bit pattern must survive
        // f16 → f32 → f16 unchanged.
        for bits in 0..=u16::MAX {
            let h = F16(bits);
            if h.is_nan() {
                assert!(F16::from_f32(h.to_f32()).is_nan());
            } else {
                assert_eq!(F16::from_f32(h.to_f32()), h, "bits {bits:#06x}");
            }
        }
    }

    #[test]
    fn decode_matches_reference_for_all_f16() {
        for bits in 0..=u16::MAX {
            let (got, want) = (F16(bits).to_f32(), reference::to_f32(F16(bits)));
            assert_eq!(got.to_bits(), want.to_bits(), "bits {bits:#06x}");
        }
    }

    #[test]
    fn dispatched_decode_matches_for_all_f16() {
        let src: Vec<u8> = (0..=u16::MAX).flat_map(u16::to_le_bytes).collect();
        let mut got = vec![0.0f32; 1 << 16];
        widen_slice(&src, &mut got);
        for (bits, got) in (0..=u16::MAX).zip(got) {
            let want = F16(bits).to_f32();
            assert_eq!(got.to_bits(), want.to_bits(), "bits {bits:#06x}");
        }
    }

    /// Asserts that the dispatched slice encode of `xs` is the reference
    /// encode of each element.
    fn assert_dispatched_encode_matches(xs: &[f32]) {
        let mut got = vec![0u8; 2 * xs.len()];
        narrow_slice(xs, &mut got);
        for (x, got) in xs.iter().zip(got.chunks_exact(2)) {
            let got = F16::from_le_bytes([got[0], got[1]]);
            assert_eq!(got, reference::from_f32(*x), "f32 {:#010x}", x.to_bits());
        }
    }

    /// Every finite f16, the exact f32 midpoint to its upper neighbour, and
    /// that midpoint ±1 ulp: every round-to-nearest-even tie and carry,
    /// into the exponent and to ∞ included. Checked one element at a time
    /// and through the dispatched slice encode.
    #[test]
    fn encode_matches_reference_at_every_rounding_boundary() {
        let mut all = Vec::new();
        for bits in (0..=u16::MAX).filter(|&b| F16(b).is_finite()) {
            let v = F16(bits).to_f32();
            // Half an f16 ulp is 2^(e − 26) for biased exponent e (1 for
            // subnormals), and v ± it is exact in f32.
            let e = ((bits & EXP_MASK) >> 10).max(1) as u32;
            let half_ulp = f32::from_bits((e + 127 - 26) << 23);
            let mid = v + half_ulp.copysign(v);
            for x in [
                v,
                mid,
                f32::from_bits(mid.to_bits() - 1),
                f32::from_bits(mid.to_bits() + 1),
            ] {
                assert_eq!(
                    F16::from_f32(x),
                    reference::from_f32(x),
                    "f16 {bits:#06x}, f32 {:#010x}",
                    x.to_bits()
                );
                all.push(x);
            }
        }
        assert_dispatched_encode_matches(&all);
    }

    /// Lengths 0–17 cover no full 8-lane chunk, one, two, and every tail;
    /// odd offsets make every access unaligned. A destination longer than
    /// the source keeps its excess untouched.
    #[test]
    fn dispatched_slices_match_portable_at_every_short_length_and_offset() {
        let xs: Vec<f32> = (0..40).map(|i| (i as f32 - 13.3) * 0.37e-3).collect();
        let mut bytes = vec![0u8; 2 * xs.len()];
        narrow_portable(&xs, &mut bytes);
        for len in 0..=17 {
            for off in [1, 3, 7] {
                let (mut got, mut want) = ([0xA5u8; 48], [0xA5u8; 48]);
                narrow_slice(&xs[off..off + len], &mut got[off..off + 2 * len + 4]);
                narrow_portable(&xs[off..off + len], &mut want[off..off + 2 * len + 4]);
                assert_eq!(got, want, "narrow len {len} offset {off}");

                let (mut got, mut want) = ([-1.0f32; 32], [-1.0f32; 32]);
                let src = &bytes[off..off + 2 * len];
                widen_slice(src, &mut got[off..off + len + 2]);
                widen_portable(src, &mut want[off..off + len + 2]);
                assert_eq!(got.map(f32::to_bits), want.map(f32::to_bits));
                assert!(got[off + len..].iter().all(|&w| w == -1.0));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn encode_matches_reference(raw in any::<u32>(), class in 0u8..5, exp in 100u32..146) {
            let sign_frac = raw & 0x807F_FFFF;
            let bits = match class {
                0 => raw,
                // f32 zeros and subnormals.
                1 => sign_frac,
                // ±∞ and NaN payloads.
                2 => sign_frac | 0xFF << 23,
                // Around the f16 range, where the rounding happens.
                3 => sign_frac | exp << 23,
                // The same with the low 12 bits clear: half are exact ties.
                _ => (sign_frac & !0xFFF) | exp << 23,
            };
            let x = f32::from_bits(bits);
            prop_assert_eq!(F16::from_f32(x), reference::from_f32(x), "f32 {:#010x}", bits);
            // Eight lanes through the hardware path where there is one, and
            // a one-element tail.
            assert_dispatched_encode_matches(&[x; 9]);
        }
    }

    /// All 2³² f32 bit patterns, one element at a time and through the
    /// dispatched slice encode; 20–35 s single-threaded in release.
    /// Run with `cargo test --release -p optim-math -- --ignored f16_encode_exhaustive`.
    #[test]
    #[ignore]
    fn f16_encode_exhaustive() {
        let mut xs = vec![0.0f32; 1 << 16];
        let mut got = vec![0u8; 2 << 16];
        for hi in 0..=u16::MAX as u32 {
            for (lo, x) in xs.iter_mut().enumerate() {
                *x = f32::from_bits(hi << 16 | lo as u32);
            }
            narrow_slice(&xs, &mut got);
            for (x, got) in xs.iter().zip(got.chunks_exact(2)) {
                let want = reference::from_f32(*x);
                assert_eq!(F16::from_f32(*x), want, "f32 {:#010x}", x.to_bits());
                assert_eq!(
                    F16::from_le_bytes([got[0], got[1]]),
                    want,
                    "slice, f32 {:#010x}",
                    x.to_bits()
                );
            }
        }
    }
}
