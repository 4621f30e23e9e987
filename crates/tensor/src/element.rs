//! Element types a [`crate::TensorBase`] can be parameterized over.
//!
//! The workspace stores activations and weights in three precisions: `f32`
//! (the golden dtype), [`F16`] (IEEE-754 binary16, vendored — no external
//! half crate), and `i8` (the deployment dtype, always paired with a
//! per-tensor scale in [`crate::QTensor`]). [`TensorElement`] is the trait
//! parameter that lets one container type carry all three.

use crate::Dtype;

/// An element type storable in a [`crate::TensorBase`].
///
/// The trait deliberately stays tiny: the container needs an additive
/// identity and a multiplicative identity for construction, a [`Dtype`]
/// tag for byte accounting, and exact-or-rounding conversions through
/// `f32` (the precision every kernel accumulates in).
pub trait TensorElement:
    Copy + Clone + std::fmt::Debug + PartialEq + Default + Send + Sync + 'static
{
    /// The additive identity (what zero-initialized buffers hold).
    const ZERO: Self;
    /// The multiplicative identity (what identity matrices hold).
    const ONE: Self;
    /// Storage dtype tag for byte-footprint accounting.
    const DTYPE: Dtype;
    /// Widens to `f32`. Exact for `f32`, `F16`, and `i8` (every value of
    /// each is representable in `f32`).
    fn to_f32(self) -> f32;
    /// Narrows from `f32`: identity for `f32`, round-to-nearest-even for
    /// [`F16`], round-and-saturate to `[-127, 127]` for `i8` (the
    /// symmetric range the quantizer uses).
    fn from_f32(v: f32) -> Self;
}

impl TensorElement for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const DTYPE: Dtype = Dtype::Float32;
    #[inline(always)]
    fn to_f32(self) -> f32 {
        self
    }
    #[inline(always)]
    fn from_f32(v: f32) -> Self {
        v
    }
}

impl TensorElement for i8 {
    const ZERO: Self = 0;
    const ONE: Self = 1;
    const DTYPE: Dtype = Dtype::Int8;
    #[inline(always)]
    fn to_f32(self) -> f32 {
        f32::from(self)
    }
    #[inline(always)]
    fn from_f32(v: f32) -> Self {
        v.round().clamp(-127.0, 127.0) as i8
    }
}

/// An IEEE-754 binary16 ("half") value, stored as its bit pattern.
///
/// Vendored rather than pulled from a half-precision crate: the workspace
/// needs only exact widening to `f32`, round-to-nearest-even narrowing
/// from `f32`, and bit-level equality — a page of code, property-tested
/// exhaustively over all 65536 bit patterns.
///
/// Arithmetic is *not* implemented on `F16`: kernels widen to `f32`,
/// accumulate there (exactly like MCU half-precision pipelines with f32
/// accumulators), and narrow on store if needed. Widening is exact, so
/// SIMD and scalar f16 kernels stay bit-identical to each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(transparent)]
pub struct F16(u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// One.
    pub const ONE: F16 = F16(0x3c00);
    /// The raw bit pattern.
    #[must_use]
    pub const fn to_bits(self) -> u16 {
        self.0
    }
    /// Constructs from a raw bit pattern.
    #[must_use]
    pub const fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// Exact widening conversion to `f32` (every binary16 value, including
    /// subnormals, infinities, and NaN payload bits, is representable).
    #[must_use]
    pub fn to_f32(self) -> f32 {
        let h = self.0;
        let sign = u32::from(h & 0x8000) << 16;
        let exp = u32::from(h >> 10) & 0x1f;
        let man = u32::from(h & 0x3ff);
        let bits = if exp == 0 {
            if man == 0 {
                sign // signed zero
            } else {
                // Subnormal: normalize the mantissa into f32's hidden bit.
                let mut e = 127 - 15 + 1;
                let mut m = man;
                while m & 0x400 == 0 {
                    m <<= 1;
                    e -= 1;
                }
                sign | ((e as u32) << 23) | ((m & 0x3ff) << 13)
            }
        } else if exp == 0x1f {
            sign | 0x7f80_0000 | (man << 13) // infinity / NaN
        } else {
            sign | ((exp + 127 - 15) << 23) | (man << 13)
        };
        f32::from_bits(bits)
    }

    /// Narrowing conversion from `f32` with round-to-nearest-even —
    /// the IEEE default rounding an FPU's `vcvtps2ph` performs, so the
    /// software path and the F16C hardware path agree bit for bit.
    #[must_use]
    pub fn from_f32(v: f32) -> Self {
        let x = v.to_bits();
        let sign = ((x >> 16) & 0x8000) as u16;
        let exp = ((x >> 23) & 0xff) as i32;
        let man = x & 0x7f_ffff;
        if exp == 0xff {
            // Infinity or NaN (keep a quiet-bit payload for NaN).
            let payload = if man != 0 { 0x200 } else { 0 };
            return F16(sign | 0x7c00 | payload);
        }
        let e = exp - 127;
        if e > 15 {
            return F16(sign | 0x7c00); // overflow -> infinity
        }
        if e >= -14 {
            // Normal result: round 23-bit mantissa to 10 bits (RTE).
            let mut m = man >> 13;
            let rem = man & 0x1fff;
            if rem > 0x1000 || (rem == 0x1000 && (m & 1) == 1) {
                m += 1;
            }
            let mut eh = (e + 15) as u32;
            if m == 0x400 {
                m = 0;
                eh += 1;
                if eh >= 0x1f {
                    return F16(sign | 0x7c00);
                }
            }
            F16(sign | ((eh as u16) << 10) | m as u16)
        } else if e >= -25 {
            // Subnormal: value = significand * 2^(e-23); quantize to
            // multiples of 2^-24 with RTE. A carry out of the 10-bit
            // mantissa lands exactly on the smallest normal encoding.
            let m_full = u64::from(man | 0x80_0000);
            let shift = (-e - 1) as u32; // 14..=24
            let q = m_full >> shift;
            let rem = m_full & ((1u64 << shift) - 1);
            let half = 1u64 << (shift - 1);
            let q = if rem > half || (rem == half && (q & 1) == 1) { q + 1 } else { q };
            F16(sign | q as u16)
        } else {
            F16(sign) // underflow to signed zero
        }
    }
}

impl std::fmt::Display for F16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl From<f32> for F16 {
    fn from(v: f32) -> Self {
        F16::from_f32(v)
    }
}

impl From<F16> for f32 {
    fn from(v: F16) -> Self {
        v.to_f32()
    }
}

impl TensorElement for F16 {
    const ZERO: Self = F16::ZERO;
    const ONE: Self = F16::ONE;
    const DTYPE: Dtype = Dtype::Float16;
    #[inline(always)]
    fn to_f32(self) -> f32 {
        F16::to_f32(self)
    }
    #[inline(always)]
    fn from_f32(v: f32) -> Self {
        F16::from_f32(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_half_values() {
        for (bits, val) in [
            (0x0000u16, 0.0f32),
            (0x3c00, 1.0),
            (0xbc00, -1.0),
            (0x4000, 2.0),
            (0x3800, 0.5),
            (0x7bff, 65504.0),        // largest finite half
            (0x0400, 6.103_515_6e-5), // smallest normal
            (0x0001, 5.960_464_5e-8), // smallest subnormal
        ] {
            assert_eq!(F16::from_bits(bits).to_f32(), val, "bits {bits:#06x}");
            assert_eq!(F16::from_f32(val).to_bits(), bits, "value {val}");
        }
        assert!(F16::from_bits(0x7c00).to_f32().is_infinite());
        assert!(F16::from_bits(0x7e00).to_f32().is_nan());
        assert_eq!(F16::from_f32(f32::INFINITY).to_bits(), 0x7c00);
        assert_eq!(F16::from_f32(1e9).to_bits(), 0x7c00, "overflow saturates to inf");
        assert_eq!(F16::from_f32(1e-9).to_bits(), 0x0000, "underflow flushes to zero");
    }

    #[test]
    fn widen_narrow_roundtrip_is_identity_for_every_bit_pattern() {
        // Exhaustive: every half value survives the trip through f32
        // (widening is exact; narrowing an exact half is lossless). NaNs
        // compare by bit class, not equality.
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            let f = h.to_f32();
            let back = F16::from_f32(f);
            if f.is_nan() {
                assert!(back.to_f32().is_nan(), "bits {bits:#06x}");
            } else {
                assert_eq!(
                    back.to_bits(),
                    bits,
                    "bits {bits:#06x} -> {f} -> {:#06x}",
                    back.to_bits()
                );
            }
        }
    }

    #[test]
    fn narrowing_rounds_to_nearest_even() {
        // 1 + 2^-11 sits exactly between 1.0 and the next half (1 + 2^-10):
        // ties go to the even mantissa (1.0).
        assert_eq!(F16::from_f32(1.0 + f32::powi(2.0, -11)).to_bits(), 0x3c00);
        // 1 + 3*2^-11 ties between 1+2^-10 and 1+2^-9: rounds to even (1+2^-9).
        assert_eq!(F16::from_f32(1.0 + 3.0 * f32::powi(2.0, -11)).to_bits(), 0x3c02);
        // Just above a tie rounds up.
        assert_eq!(F16::from_f32(1.0 + 1.01 * f32::powi(2.0, -11)).to_bits(), 0x3c01);
    }

    #[test]
    fn narrowing_error_is_within_half_ulp() {
        // Deterministic sweep over magnitudes: |x - roundtrip(x)| <= 2^-11 * |x|
        // for normal halves (half ulp), and <= 2^-25 absolute in the
        // subnormal range.
        for i in 0..5000 {
            let x = (i as f32 * 0.137 - 320.0) * 1.618;
            let err = (x - F16::from_f32(x).to_f32()).abs();
            let bound = (x.abs() * f32::powi(2.0, -11)).max(f32::powi(2.0, -25));
            assert!(err <= bound, "x={x} err={err} bound={bound}");
        }
    }

    #[test]
    fn element_trait_conversions() {
        assert_eq!(<f32 as TensorElement>::from_f32(1.5), 1.5);
        assert_eq!(<i8 as TensorElement>::from_f32(200.0), 127);
        assert_eq!(<i8 as TensorElement>::from_f32(-200.0), -127);
        assert_eq!(<i8 as TensorElement>::from_f32(0.4), 0);
        assert_eq!(<i8 as TensorElement>::to_f32(-5), -5.0);
        assert_eq!(<F16 as TensorElement>::from_f32(2.0).to_bits(), 0x4000);
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(f32::from(F16::from(0.25f32)), 0.25);
        assert_eq!(F16::ZERO.to_string(), "0");
        assert_eq!(<F16 as TensorElement>::DTYPE.size_bytes(), 2);
    }
}
