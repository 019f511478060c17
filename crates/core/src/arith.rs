//! TensorFlow Lite Micro's fixed-point requantization arithmetic.
//!
//! Quantized inference multiplies int8 data into int32 accumulators, then
//! scales the accumulator back to int8 with a *quantized multiplier*: a
//! Q31 fixed-point significand plus a power-of-two shift. TFLM (via
//! gemmlowp) defines this arithmetic bit-exactly, and both the reference
//! kernels **and** the CFU post-processing hardware must implement the
//! same bits — the paper's `Post Proc` ladder steps move exactly this
//! computation (saturating multiplication, rounding division, output
//! clamping) into the CFU. Keeping the one true implementation here lets
//! the hardware models, their software emulations, and the reference
//! kernels all share it.

/// Saturating, rounding, doubling high multiplication (gemmlowp
/// `SaturatingRoundingDoublingHighMul`).
///
/// Computes `(a * b * 2 + (1 << 30)) >> 31` with the single overflow case
/// `a == b == i32::MIN` saturating to `i32::MAX`.
///
/// # Example
///
/// ```
/// use cfu_core::arith::saturating_rounding_doubling_high_mul as srdhm;
/// assert_eq!(srdhm(i32::MIN, i32::MIN), i32::MAX); // the saturation case
/// assert_eq!(srdhm(1 << 30, 1 << 30), 1 << 29);
/// ```
pub fn saturating_rounding_doubling_high_mul(a: i32, b: i32) -> i32 {
    if a == i32::MIN && b == i32::MIN {
        return i32::MAX;
    }
    let ab = i64::from(a) * i64::from(b);
    let nudge: i64 = if ab >= 0 { 1 << 30 } else { 1 - (1 << 30) };
    // gemmlowp divides (truncation toward zero), which differs from an
    // arithmetic shift for negative products — keep it bit-exact.
    ((ab + nudge) / (1i64 << 31)) as i32
}

/// Rounding arithmetic right shift (gemmlowp `RoundingDivideByPOT`):
/// divides by `2^exponent`, rounding half away from zero.
///
/// # Panics
///
/// Panics if `exponent` is not in `0..=31`.
///
/// # Example
///
/// ```
/// use cfu_core::arith::rounding_divide_by_pot;
/// assert_eq!(rounding_divide_by_pot(5, 1), 3);   // 2.5 rounds up
/// assert_eq!(rounding_divide_by_pot(-5, 1), -3); // -2.5 rounds away
/// assert_eq!(rounding_divide_by_pot(4, 1), 2);
/// ```
pub fn rounding_divide_by_pot(x: i32, exponent: i32) -> i32 {
    assert!((0..=31).contains(&exponent), "exponent {exponent} out of range");
    let mask = (1i64 << exponent) - 1;
    let remainder = i64::from(x) & mask;
    let threshold = (mask >> 1) + i64::from(x < 0);
    let mut result = x >> exponent;
    if remainder > threshold {
        result = result.wrapping_add(1);
    }
    result
}

/// The full TFLM requantization step
/// (`MultiplyByQuantizedMultiplier`): scales an int32 accumulator by
/// `multiplier * 2^shift` where `multiplier` is Q31 in `[2^30, 2^31)` and
/// `shift` may be positive (left) or negative (right).
///
/// # Example
///
/// ```
/// use cfu_core::arith::multiply_by_quantized_multiplier;
/// // Scale by exactly 0.5: multiplier = 2^30 (0.5 in Q31 doubled), shift = 0.
/// assert_eq!(multiply_by_quantized_multiplier(100, 1 << 30, 0), 50);
/// ```
pub fn multiply_by_quantized_multiplier(x: i32, quantized_multiplier: i32, shift: i32) -> i32 {
    // Hardware shift registers are a handful of bits wide; out-of-range
    // shifts are clamped the way the RTL's field width would truncate them.
    let shift = shift.clamp(-31, 30);
    let left_shift = shift.max(0);
    let right_shift = (-shift).max(0);
    let shifted = x.wrapping_shl(left_shift as u32);
    rounding_divide_by_pot(
        saturating_rounding_doubling_high_mul(shifted, quantized_multiplier),
        right_shift,
    )
}

/// Converts a real-valued scale factor into TFLM's `(multiplier, shift)`
/// pair such that `value ≈ multiplier / 2^31 * 2^shift`.
///
/// Mirrors TFLM's `QuantizeMultiplier`: the returned multiplier is in
/// `[2^30, 2^31)` (or 0 when `scale == 0`).
///
/// # Panics
///
/// Panics on negative, NaN or infinite scales, which are invalid
/// quantization parameters.
///
/// # Example
///
/// ```
/// use cfu_core::arith::{quantize_multiplier, multiply_by_quantized_multiplier};
/// let (m, s) = quantize_multiplier(0.0125);
/// let scaled = multiply_by_quantized_multiplier(10_000, m, s);
/// assert_eq!(scaled, 125);
/// ```
pub fn quantize_multiplier(scale: f64) -> (i32, i32) {
    assert!(scale.is_finite() && scale >= 0.0, "invalid quantization scale {scale}");
    if scale == 0.0 {
        return (0, 0);
    }
    let (mut significand, mut shift) = frexp(scale);
    // significand in [0.5, 1); convert to Q31.
    let mut q = (significand * f64::from(1u32 << 31)).round() as i64;
    debug_assert!(q <= 1i64 << 31);
    if q == 1i64 << 31 {
        q /= 2;
        shift += 1;
    }
    if shift < -31 {
        // Scale so small everything rounds to zero.
        return (0, 0);
    }
    let _ = &mut significand;
    (q as i32, shift)
}

/// `frexp` for positive finite doubles: returns `(frac, exp)` with
/// `frac ∈ [0.5, 1)` and `value = frac * 2^exp`.
fn frexp(value: f64) -> (f64, i32) {
    debug_assert!(value > 0.0 && value.is_finite());
    let bits = value.to_bits();
    let raw_exp = ((bits >> 52) & 0x7FF) as i32;
    if raw_exp == 0 {
        // Subnormal: normalize by scaling up 2^64.
        let (f, e) = frexp(value * f64::from(2.0f32).powi(64));
        return (f, e - 64);
    }
    let exp = raw_exp - 1022;
    let frac = f64::from_bits((bits & !(0x7FFu64 << 52)) | (1022u64 << 52));
    (frac, exp)
}

/// Clamps `x` into `[min, max]` — the activation clamp at the end of the
/// post-processing pipeline.
///
/// Implemented as the two comparators the RTL would use, so a software-
/// programmed inverted range (`min > max`) degenerates gracefully instead
/// of panicking: the `min` comparator wins, exactly like the hardware.
pub fn clamp_activation(x: i32, min: i32, max: i32) -> i32 {
    if x < min {
        min
    } else if x > max {
        max
    } else {
        x
    }
}

/// Packs four i8 lanes into a little-endian u32 word, the layout both
/// CFUs use for their SIMD operands.
pub fn pack_i8x4(lanes: [i8; 4]) -> u32 {
    u32::from_le_bytes(lanes.map(|v| v as u8))
}

/// Unpacks a u32 word into four i8 lanes (inverse of [`pack_i8x4`]).
pub fn unpack_i8x4(word: u32) -> [i8; 4] {
    word.to_le_bytes().map(|b| b as i8)
}

/// Signed 4-lane dot product: `Σ lane_a[i] * lane_b[i]`, i.e. the MAC4
/// datapath of both CFU1 and CFU2 with no input offset.
pub fn dot4(a: u32, b: u32) -> i32 {
    unpack_i8x4(a).into_iter().zip(unpack_i8x4(b)).map(|(x, y)| i32::from(x) * i32::from(y)).sum()
}

/// 4-lane dot product with an input offset added to each activation lane
/// (TFLM convolutions add `input_offset` before multiplying):
/// `Σ (a[i] + input_offset) * f[i]`.
pub fn dot4_offset(activations: u32, filters: u32, input_offset: i32) -> i32 {
    // Wrapping like the 32-bit adder tree would: `input_offset` is a
    // software-visible register and can legally hold any value.
    unpack_i8x4(activations).into_iter().zip(unpack_i8x4(filters)).fold(0i32, |acc, (x, w)| {
        acc.wrapping_add(i32::from(x).wrapping_add(input_offset).wrapping_mul(i32::from(w)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn srdhm_matches_reference_cases() {
        // Reference values computed with gemmlowp semantics.
        assert_eq!(saturating_rounding_doubling_high_mul(0, 12345), 0);
        assert_eq!(saturating_rounding_doubling_high_mul(1 << 30, 1 << 30), 1 << 29);
        assert_eq!(saturating_rounding_doubling_high_mul(i32::MAX, i32::MAX), 2147483646);
        assert_eq!(saturating_rounding_doubling_high_mul(i32::MIN, i32::MIN), i32::MAX);
        assert_eq!(saturating_rounding_doubling_high_mul(i32::MIN, i32::MAX), -2147483647);
    }

    #[test]
    fn rdbpot_rounds_half_away_from_zero() {
        assert_eq!(rounding_divide_by_pot(3, 1), 2); // 1.5 → 2
        assert_eq!(rounding_divide_by_pot(-3, 1), -2); // -1.5 → -2 (away)
        assert_eq!(rounding_divide_by_pot(7, 2), 2); // 1.75 → 2
        assert_eq!(rounding_divide_by_pot(-7, 2), -2);
        assert_eq!(rounding_divide_by_pot(100, 0), 100);
    }

    #[test]
    fn quantize_multiplier_roundtrips_scales() {
        for scale in [0.5, 0.25, 0.0001, 0.99999, 1.0, 1.7, 123.456] {
            let (m, s) = quantize_multiplier(scale);
            assert!(m == 0 || (1 << 30..=i32::MAX).contains(&m), "m={m} for scale={scale}");
            let recovered = f64::from(m) / f64::from(2u32.pow(31)) * 2f64.powi(s);
            let rel = (recovered - scale).abs() / scale;
            assert!(rel < 1e-6, "scale {scale}: recovered {recovered}");
        }
    }

    #[test]
    fn quantize_multiplier_zero_and_tiny() {
        assert_eq!(quantize_multiplier(0.0), (0, 0));
        let (m, _) = quantize_multiplier(1e-40);
        assert_eq!(m, 0);
    }

    #[test]
    fn multiply_matches_f64_for_easy_scales() {
        let (m, s) = quantize_multiplier(0.125);
        for x in [-1000, -1, 0, 1, 7, 1000, 123_456] {
            assert_eq!(
                multiply_by_quantized_multiplier(x, m, s),
                ((x as f64) * 0.125).round() as i32
            );
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let lanes = [-128i8, -1, 0, 127];
        assert_eq!(unpack_i8x4(pack_i8x4(lanes)), lanes);
    }

    #[test]
    fn dot4_reference() {
        let a = pack_i8x4([1, 2, 3, 4]);
        let b = pack_i8x4([5, -6, 7, -8]);
        assert_eq!(dot4(a, b), 5 - 12 + 21 - 32);
        // Extremes don't overflow i32 (4 * 128 * 128 is small).
        let lo = pack_i8x4([-128; 4]);
        assert_eq!(dot4(lo, lo), 4 * 128 * 128);
    }

    #[test]
    fn dot4_offset_matches_manual() {
        let a = pack_i8x4([-128, 0, 1, 127]);
        let f = pack_i8x4([3, -3, 5, -5]);
        let off = 128;
        let expected: i32 =
            [(-128, 3), (0, -3), (1, 5), (127, -5)].iter().map(|(x, w)| (x + off) * w).sum();
        assert_eq!(dot4_offset(a, f, off), expected);
    }

    #[test]
    fn frexp_agrees_with_libm_identity() {
        for v in [0.5, 1.0, 1.5, 3.0, 0.00007, 9e18] {
            let (f, e) = frexp(v);
            assert!((0.5..1.0).contains(&f), "frac {f} for {v}");
            assert!((f * 2f64.powi(e) - v).abs() < v * 1e-15);
        }
    }
}
