//! Software-emulated low-precision storage (MS3 substrate).
//!
//! MS3 stores tape tensors in bf16 or f16 while all arithmetic stays in
//! f32. On real hardware the narrow encodings halve the stored bytes;
//! here the physical buffers remain `f32` and narrowing is *emulated* by
//! rounding every stored element through the narrow format
//! (f32 → bf16/f16 → f32, round-to-nearest-even). The numerical effect —
//! what the accuracy and gradcheck contracts care about — is exactly that
//! of narrow storage; the byte saving is accounted analytically by
//! [`Precision::bytes_per_element`] in the instrumentation and memsim
//! layers.
//!
//! The conversion kernels are correctly rounded (RNE, IEEE 754
//! `roundTiesToEven`), including subnormals, overflow to infinity and
//! underflow to signed zero. `tests/precision_equivalence.rs` proves this
//! exhaustively over all 65 536 f16 bit patterns and by proptest against
//! the brute-force nearest-value reference in this module.

use serde::{Deserialize, Serialize};

/// Storage precision policy for MS3 tape tensors.
///
/// `F32` is the identity — quantization through it is a guaranteed no-op
/// bit-for-bit, which anchors the MS3 ≡ baseline equivalence contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Precision {
    /// Full single precision: storage is bit-identical to compute.
    #[default]
    F32,
    /// bfloat16: 8 exponent bits, 7 mantissa bits. Same dynamic range as
    /// f32, so overflow is essentially impossible; precision drops to
    /// ~2-3 significant decimal digits.
    Bf16,
    /// IEEE binary16: 5 exponent bits, 10 mantissa bits. More mantissa
    /// than bf16 but a narrow range (max finite 65 504), so loss scaling
    /// matters.
    F16,
}

impl Precision {
    /// Bytes one stored element occupies under this policy.
    pub fn bytes_per_element(self) -> u64 {
        match self {
            Precision::F32 => 4,
            Precision::Bf16 | Precision::F16 => 2,
        }
    }

    /// Whether quantization through this policy is the identity.
    pub fn is_f32(self) -> bool {
        matches!(self, Precision::F32)
    }

    /// Stable lowercase label used in reports and telemetry.
    pub fn label(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Bf16 => "bf16",
            Precision::F16 => "f16",
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Counters for range events observed while narrowing values.
///
/// An *overflow* is a finite input that became infinite in the narrow
/// format; an *underflow* is a nonzero input that became zero. Both feed
/// MS3 telemetry and the dynamic loss-scaling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ConvStats {
    /// Finite inputs that narrowed to ±∞.
    pub overflows: u64,
    /// Nonzero inputs that narrowed to ±0.
    pub underflows: u64,
}

impl ConvStats {
    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: &ConvStats) {
        self.overflows += other.overflows;
        self.underflows += other.underflows;
    }

    /// Whether any range event was observed.
    pub fn any(&self) -> bool {
        self.overflows > 0 || self.underflows > 0
    }
}

/// Narrows an `f32` to bf16 storage bits, round-to-nearest-even.
///
/// bf16 is the top 16 bits of the f32 encoding, so RNE reduces to one
/// add on the raw bits; subnormals and infinities fall out of the same
/// arithmetic. NaN is special-cased (the rounding add could carry a NaN
/// payload over into the infinity encoding) and quieted.
pub fn f32_to_bf16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        // Preserve sign, force a quiet NaN payload.
        return ((bits >> 16) as u16) | 0x0040;
    }
    let round_bias = 0x7fff + ((bits >> 16) & 1);
    ((bits + round_bias) >> 16) as u16
}

/// Widens bf16 storage bits back to `f32` (exact).
pub fn bf16_bits_to_f32(b: u16) -> f32 {
    f32::from_bits((b as u32) << 16)
}

/// Narrows an `f32` to IEEE binary16 storage bits, round-to-nearest-even.
///
/// Handles normals, subnormals (with correctly rounded denormalization),
/// overflow to infinity (values at or above 65 520 — max finite plus half
/// an ulp), underflow to signed zero, and NaN quieting.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp32 = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;

    if exp32 == 0xff {
        if man != 0 {
            // NaN: keep the top payload bits, force quiet.
            return sign | 0x7e00 | ((man >> 13) as u16);
        }
        return sign | 0x7c00;
    }

    // Re-bias: f32 bias 127 → f16 bias 15.
    let exp = exp32 - 112;

    if exp >= 0x1f {
        // Magnitude ≥ 2^16: past the rounding boundary, straight to ∞.
        return sign | 0x7c00;
    }

    if exp <= 0 {
        // f16 subnormal (or zero). Below 2^-25 everything rounds to ±0;
        // at exactly 2^-25 the tie goes to the even candidate, zero.
        if exp < -10 {
            return sign;
        }
        let full = man | 0x0080_0000; // restore the implicit bit
        let shift = (14 - exp) as u32;
        let half = 1u32 << (shift - 1);
        let rem = full & ((1u32 << shift) - 1);
        let mut out = full >> shift;
        if rem > half || (rem == half && (out & 1) == 1) {
            out += 1; // may carry into exponent 1 — the correct encoding
        }
        return sign | out as u16;
    }

    // Normal range: round the 23-bit mantissa to 10 bits.
    let rem = man & 0x1fff;
    let mut out = ((exp as u32) << 10) | (man >> 13);
    if rem > 0x1000 || (rem == 0x1000 && (out & 1) == 1) {
        out += 1; // mantissa carry increments the exponent correctly
    }
    if out >= 0x7c00 {
        return sign | 0x7c00; // rounded up past max finite
    }
    sign | out as u16
}

/// Widens IEEE binary16 storage bits back to `f32` (exact).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let man = (h & 0x03ff) as u32;
    if exp == 0x1f {
        return f32::from_bits(sign | 0x7f80_0000 | (man << 13));
    }
    if exp == 0 {
        // Subnormal (or zero): value is man · 2⁻²⁴, exact in f32.
        let mag = man as f32 * (1.0 / 16_777_216.0);
        return if sign != 0 { -mag } else { mag };
    }
    f32::from_bits(sign | ((exp + 112) << 23) | (man << 13))
}

/// Rounds one value through the storage format and back (the MS3
/// "store then reload" emulation). `F32` is the bitwise identity.
pub fn quantize(p: Precision, x: f32) -> f32 {
    match p {
        Precision::F32 => x,
        Precision::Bf16 => bf16_bits_to_f32(f32_to_bf16_bits(x)),
        Precision::F16 => f16_bits_to_f32(f32_to_f16_bits(x)),
    }
}

/// Quantizes a slice in place, counting range events into `stats`.
///
/// Under `F32` this touches nothing — not even the counters — so the
/// baseline path stays bit- and stats-identical.
pub(crate) fn quantize_slice(p: Precision, data: &mut [f32], stats: &mut ConvStats) {
    match p {
        Precision::F32 => {}
        Precision::Bf16 => {
            for v in data.iter_mut() {
                let q = bf16_bits_to_f32(f32_to_bf16_bits(*v));
                note_range_event(*v, q, stats);
                *v = q;
            }
        }
        Precision::F16 => {
            for v in data.iter_mut() {
                let q = f16_bits_to_f32(f32_to_f16_bits(*v));
                note_range_event(*v, q, stats);
                *v = q;
            }
        }
    }
}

/// Quantizes a matrix's storage in place. See `quantize_slice`.
pub fn quantize_matrix(p: Precision, m: &mut crate::Matrix, stats: &mut ConvStats) {
    quantize_slice(p, m.as_mut_slice(), stats);
}

#[inline]
fn note_range_event(before: f32, after: f32, stats: &mut ConvStats) {
    if before.is_finite() && after.is_infinite() {
        stats.overflows += 1;
    } else if before != 0.0 && after == 0.0 {
        stats.underflows += 1;
    }
}

/// Brute-force correctly-rounded reference: the f16 value nearest to `x`
/// (ties to even), found by scanning every finite f16 and the infinities.
///
/// Exists only to pin the fast kernel in the equivalence suite — O(65k)
/// per call, never on a hot path.
pub fn f16_nearest_reference(x: f32) -> u16 {
    if x.is_nan() {
        return f32_to_f16_bits(x);
    }
    // Saturate the input before measuring distances: once |x| exceeds
    // every candidate (∞ counts as 2^17 here), the nearest-candidate
    // ordering no longer depends on x, while an unsaturated 1e20-scale
    // x would make all the distance differences vanish below one f64
    // ulp and turn them into spurious ties.
    let xd = (x as f64).clamp(-131072.0, 131072.0);
    let mut best_bits = 0u16;
    let mut best_err = f64::INFINITY;
    for cand in 0u16..=0xffff {
        let v = f16_bits_to_f32(cand);
        if v.is_nan() {
            continue;
        }
        // Infinity is a legal rounding result exactly at/above the
        // overflow boundary; compare against the boundary midpoint by
        // treating ∞ as 2^16 (the value the carried-out encoding would
        // denote) for distance purposes.
        let vv = if v.is_infinite() {
            (v.signum() as f64) * 65536.0
        } else {
            v as f64
        };
        let err = (xd - vv).abs();
        let better = err < best_err || (err == best_err && tie_break_even(cand, best_bits));
        if better {
            best_err = err;
            best_bits = cand;
        }
        // Prefer matching sign for zero/ties at equal error.
    }
    // Signed zero: the scan cannot distinguish +0 from -0 by distance.
    if best_bits & 0x7fff == 0 {
        return if x.is_sign_negative() { 0x8000 } else { 0x0000 };
    }
    best_bits
}

fn tie_break_even(cand: u16, incumbent: u16) -> bool {
    // RNE: on a tie, the representation with an even significand wins.
    (cand & 1 == 0) && (incumbent & 1 == 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_precision_is_identity() {
        for x in [
            0.0f32,
            -0.0,
            1.5,
            f32::INFINITY,
            f32::MIN_POSITIVE,
            -7.25e-30,
        ] {
            assert_eq!(quantize(Precision::F32, x).to_bits(), x.to_bits());
        }
        let mut stats = ConvStats::default();
        let mut data = vec![1.0e30f32, -2.0e-30];
        quantize_slice(Precision::F32, &mut data, &mut stats);
        assert_eq!(data, vec![1.0e30, -2.0e-30]);
        assert!(!stats.any());
    }

    #[test]
    fn bf16_known_values() {
        // 1.0, powers of two and exact bf16 values round-trip unchanged.
        for x in [0.0f32, 1.0, -2.0, 0.5, 256.0, -0.09375] {
            assert_eq!(quantize(Precision::Bf16, x), x);
        }
        // 1 + 2^-8 is exactly halfway between 1.0 and the next bf16
        // (1 + 2^-7); RNE picks the even mantissa: 1.0.
        assert_eq!(quantize(Precision::Bf16, 1.0 + 1.0 / 256.0), 1.0);
        // 1 + 3·2^-8 is halfway between 1+2^-7 and 1+2^-6; even is 1+2^-6.
        assert_eq!(
            quantize(Precision::Bf16, 1.0 + 3.0 / 256.0),
            1.0 + 1.0 / 64.0
        );
    }

    #[test]
    fn f16_known_values() {
        for x in [0.0f32, 1.0, -1.0, 0.5, 65504.0, 6.1035156e-5] {
            assert_eq!(quantize(Precision::F16, x), x);
        }
        // Halfway between 1.0 and 1 + 2^-10: tie to even → 1.0.
        assert_eq!(quantize(Precision::F16, 1.0 + 1.0 / 2048.0), 1.0);
        // Overflow boundary: 65 519.99 rounds down to max finite,
        // 65 520 ties up to infinity.
        assert_eq!(quantize(Precision::F16, 65519.96), 65504.0);
        assert_eq!(quantize(Precision::F16, 65520.0), f32::INFINITY);
        assert_eq!(quantize(Precision::F16, -65520.0), f32::NEG_INFINITY);
        // Smallest subnormal is 2^-24; half of it ties down to zero.
        let tiny = f16_bits_to_f32(0x0001);
        assert_eq!(tiny, 2.0f32.powi(-24));
        assert_eq!(quantize(Precision::F16, tiny / 2.0), 0.0);
        assert_eq!(quantize(Precision::F16, tiny * 0.75), tiny);
    }

    #[test]
    fn nan_stays_nan_in_both_formats() {
        assert!(quantize(Precision::Bf16, f32::NAN).is_nan());
        assert!(quantize(Precision::F16, f32::NAN).is_nan());
        assert!(bf16_bits_to_f32(f32_to_bf16_bits(-f32::NAN)).is_nan());
        assert!(f16_bits_to_f32(f32_to_f16_bits(-f32::NAN)).is_nan());
    }

    #[test]
    fn range_events_are_counted() {
        let mut stats = ConvStats::default();
        let mut data = vec![1.0e6f32, 1.0e-9, -70000.0, 0.25];
        quantize_slice(Precision::F16, &mut data, &mut stats);
        assert_eq!(stats.overflows, 2); // 1e6 and -70000 exceed f16 range
        assert_eq!(stats.underflows, 1); // 1e-9 flushes to zero
        assert_eq!(data[3], 0.25);
        assert_eq!(data[0], f32::INFINITY);
        assert_eq!(data[2], f32::NEG_INFINITY);
        assert_eq!(data[1], 0.0);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = ConvStats {
            overflows: 2,
            underflows: 1,
        };
        let b = ConvStats {
            overflows: 3,
            underflows: 4,
        };
        a.merge(&b);
        assert_eq!(a.overflows, 5);
        assert_eq!(a.underflows, 5);
        assert!(a.any());
        assert!(!ConvStats::default().any());
    }

    #[test]
    fn precision_metadata() {
        assert_eq!(Precision::F32.bytes_per_element(), 4);
        assert_eq!(Precision::Bf16.bytes_per_element(), 2);
        assert_eq!(Precision::F16.bytes_per_element(), 2);
        assert!(Precision::F32.is_f32());
        assert!(!Precision::Bf16.is_f32());
        assert_eq!(Precision::default(), Precision::F32);
        assert_eq!(Precision::Bf16.to_string(), "bf16");
    }

    #[test]
    fn reference_agrees_on_spot_values() {
        for x in [
            0.0f32,
            -0.0,
            1.0,
            1.0 + 1.0 / 2048.0,
            65519.0,
            65520.0,
            core::f32::consts::PI,
            -2.71828e-6,
            1.0e-8,
            123456.0,
        ] {
            assert_eq!(
                f32_to_f16_bits(x),
                f16_nearest_reference(x),
                "kernel vs reference disagree at {x}"
            );
        }
    }
}
