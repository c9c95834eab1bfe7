//! Shortest round-trip `f64` digits by Ryū (Ulf Adams, "Ryū: fast
//! float-to-string conversion", PLDI 2018), laid out the way `f64`
//! `Display` lays them out.
//!
//! Ryū finds the shortest decimal `digits × 10^exponent` inside the
//! interval of reals that round to the given double, and of those the one
//! closest to it. Two choices make the digits the ones `Display` prints,
//! both as in the standard library's `flt2dec`: the interval is inclusive
//! when the binary mantissa is even (round-half-to-even parsing maps both
//! bounds back to the double), and an exact tie between two candidates
//! rounds up, away from zero, where the paper rounds it to even
//! (`1023697023567767.25` prints as `…767.3`). The work is three
//! 64 × 128-bit multiplications by a power of five (or its reciprocal)
//! from a table, then removing digits while the interval still holds a
//! shorter number.
//!
//! `Display` never uses an exponent, so neither does [`write_shortest`]: the
//! at most 17 digits go through a stack buffer and the padding zeros
//! straight into the output. `f64::MAX` prints 309 digits and `5e-324`
//! 326 characters.
//!
//! The two tables are computed at compile time by exact integer arithmetic
//! on a small fixed-width bignum, so there is nothing to regenerate.

use crate::write::write_digits;

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;

/// The binary exponent of the scaled mantissa `4·m₂` (two extra bits hold
/// the interval bounds) for the largest and the smallest double.
const MAX_E2: i32 = 0x7fe - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2;
const MIN_E2: i32 = 1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2;

/// Bits kept of each table entry.
const POW5_BITS: i32 = 125;

/// `5^i` cut (or padded) to its top [`POW5_BITS`] bits, for the exponents
/// below zero: `i` runs up to `-MIN_E2 - q` with `q` from [`log10_pow5`].
static POW5: [u128; POW5_LEN] = pow5_table();
const POW5_LEN: usize = (-MIN_E2 - (log10_pow5(-MIN_E2) as i32 - 1)) as usize + 1;

/// `⌊2^(b − 1 + 125) / 5^q⌋ + 1`, where `b` is the bit length of `5^q`,
/// for the exponents from zero up: `q` runs up to `log10(2^MAX_E2) − 1`.
static POW5_INV: [u128; POW5_INV_LEN] = pow5_inv_table();
const POW5_INV_LEN: usize = log10_pow2(MAX_E2) as usize;

/// `⌊log₁₀ 2^e⌋` for `0 ≤ e ≤ 1650`.
const fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log₁₀ 5^e⌋` for `0 ≤ e ≤ 2620`.
const fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// The bit length of `5^e` (`⌈log₂ 5^e⌉`, and 1 for `e = 0`) for
/// `0 ≤ e ≤ 3528`.
const fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// Appends the shortest round-trip digits of a finite, non-zero `x`,
/// positionally: `-` for a negative sign, then `0.000ddd`, `ddd.ddd` or
/// `ddd000` with no exponent.
pub(crate) fn write_shortest(out: &mut Vec<u8>, x: f64) {
    debug_assert!(x.is_finite() && x != 0.0);
    let (mantissa, exponent) = shortest(x.to_bits());
    let mut digits = [0u8; 17];
    let len = write_digits(&mut digits, mantissa);
    let digits = &digits[..len];
    if x.is_sign_negative() {
        out.push(b'-');
    }
    // Where the decimal point falls, counted from the first digit.
    let point = len as i32 + exponent;
    if point <= 0 {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + point.unsigned_abs() as usize, b'0');
        out.extend_from_slice(digits);
    } else if (point as usize) < len {
        let (whole, fraction) = digits.split_at(point as usize);
        out.extend_from_slice(whole);
        out.push(b'.');
        out.extend_from_slice(fraction);
    } else {
        out.extend_from_slice(digits);
        out.resize(out.len() + point as usize - len, b'0');
    }
}

/// The shortest `(digits, exponent)` with `digits × 10^exponent` inside the
/// rounding interval of the finite, non-zero double `bits`, and of those
/// the closest to it (ties away from zero).
fn shortest(bits: u64) -> (u64, i32) {
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as i32;
    let (e2, m2) = if ieee_exponent == 0 {
        (MIN_E2, ieee_mantissa)
    } else {
        (
            ieee_exponent - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            ieee_mantissa | (1 << MANTISSA_BITS),
        )
    };
    let accept_bounds = m2 % 2 == 0;

    // The double and its interval bounds, scaled by 4: `mv ± 2`, except
    // that the lower gap halves at a power of two (the previous double is
    // half an ulp closer).
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let (mp, mm) = (mv + 2, mv - 1 - mm_shift);

    // Scale all three by 10^-e10 so they keep about 17 digits. A lower
    // bound that was scaled exactly is itself in the interval (when bounds
    // are), and an exact upper bound that is not is stepped down.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_exact = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let shift = -e2 + q as i32 + POW5_BITS + pow5_bits(q as i32) - 1;
        let factor = POW5_INV[q as usize];
        vr = mul_shift(mv, factor, shift);
        vp = mul_shift(mp, factor, shift);
        vm = mul_shift(mm, factor, shift);
        // Exact when 5^q divides the bound; only below 10^22 can it.
        if q <= 21 {
            if accept_bounds {
                vm_exact = multiple_of_pow5(mm, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let shift = q as i32 - (pow5_bits(i) - POW5_BITS);
        let factor = POW5[i as usize];
        vr = mul_shift(mv, factor, shift);
        vp = mul_shift(mp, factor, shift);
        vm = mul_shift(mm, factor, shift);
        // Exact when 2^q divides the bound: `mp` is even, `mm` is when the
        // lower gap is the full one.
        if q <= 1 {
            if accept_bounds {
                vm_exact = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter number. The
    // last dropped digit rounds `vr`, with an exact tie rounding up as
    // `flt2dec` does; `vr` is bumped too when it sits on an excluded lower
    // bound.
    let mut removed = 0;
    let mut round_up = false;
    if !vm_exact && vp / 100 > vm / 100 {
        round_up = vr % 100 >= 50;
        vr /= 100;
        vp /= 100;
        vm /= 100;
        removed = 2;
    }
    while vp / 10 > vm / 10 {
        vm_exact &= vm % 10 == 0;
        round_up = vr % 10 >= 5;
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed += 1;
    }
    if vm_exact {
        // The lower bound itself is shorter still.
        while vm % 10 == 0 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vm /= 10;
            removed += 1;
        }
    }
    let below = vr == vm && !vm_exact;
    (vr + u64::from(below || round_up), e10 + removed)
}

/// `⌊m · factor / 2^shift⌋` for `m < 2⁵⁵`, `factor < 2¹²⁶` and `shift ≥ 64`.
fn mul_shift(m: u64, factor: u128, shift: i32) -> u64 {
    let low = u128::from(m) * (factor as u64 as u128);
    let high = u128::from(m) * (factor >> 64);
    (((low >> 64) + high) >> (shift - 64)) as u64
}

fn multiple_of_pow5(mut n: u64, p: u32) -> bool {
    let mut count = 0;
    while n.is_multiple_of(5) {
        n /= 5;
        count += 1;
    }
    count >= p
}

/// 13 little-endian 64-bit limbs: 832 bits, enough for `5^325` (755 bits)
/// and for the largest reciprocal numerator, `2^(b − 1 + 125)` with `b` the
/// bit length of `5^290` (798 bits).
const LIMBS: usize = 13;
type Big = [u64; LIMBS];

const fn bit_length(x: &Big) -> i32 {
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        if x[i] != 0 {
            return (64 * i + 64 - x[i].leading_zeros() as usize) as i32;
        }
    }
    0
}

/// Bits `shift .. shift + 128` of `x`.
const fn bits_from(x: &Big, shift: usize) -> u128 {
    let (limb, offset) = (shift / 64, shift % 64);
    let mut result = 0u128;
    let mut j = 0;
    while j < 3 && limb + j < LIMBS {
        let part = x[limb + j] as u128;
        let at = 64 * j as i32 - offset as i32;
        if at < 0 {
            result |= part >> -at;
        } else if at < 128 {
            result |= part << at;
        }
        j += 1;
    }
    result
}

const fn mul_small(x: &mut Big, factor: u64) {
    let mut carry = 0u128;
    let mut i = 0;
    while i < LIMBS {
        let product = x[i] as u128 * factor as u128 + carry;
        x[i] = product as u64;
        carry = product >> 64;
        i += 1;
    }
    assert!(carry == 0, "bignum overflow");
}

const fn div_small(x: &mut Big, divisor: u64) {
    let mut rest = 0u128;
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        let current = (rest << 64) | x[i] as u128;
        x[i] = (current / divisor as u128) as u64;
        rest = current % divisor as u128;
    }
}

/// `5^27`, the largest power of five below 2⁶⁴.
const POW5_27: u64 = 7_450_580_596_923_828_125;

const fn pow5_table() -> [u128; POW5_LEN] {
    let mut table = [0u128; POW5_LEN];
    let mut power: Big = [0; LIMBS];
    power[0] = 1;
    let mut i = 0;
    while i < POW5_LEN {
        let bits = bit_length(&power);
        table[i] = if bits <= POW5_BITS {
            bits_from(&power, 0) << (POW5_BITS - bits)
        } else {
            bits_from(&power, (bits - POW5_BITS) as usize)
        };
        mul_small(&mut power, 5);
        i += 1;
    }
    table
}

const fn pow5_inv_table() -> [u128; POW5_INV_LEN] {
    let mut table = [0u128; POW5_INV_LEN];
    let mut power: Big = [0; LIMBS];
    power[0] = 1;
    let mut q = 0;
    while q < POW5_INV_LEN {
        // ⌊2^j / 5^q⌋ as q successive floor divisions by powers of five.
        let j = (bit_length(&power) - 1 + POW5_BITS) as usize;
        let mut quotient: Big = [0; LIMBS];
        quotient[j / 64] = 1 << (j % 64);
        let mut left = q;
        while left > 0 {
            let step = if left < 27 { left } else { 27 };
            div_small(
                &mut quotient,
                if step == 27 {
                    POW5_27
                } else {
                    5u64.pow(step as u32)
                },
            );
            left -= step;
        }
        table[q] = bits_from(&quotient, 0) + 1;
        mul_small(&mut power, 5);
        q += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_length_formula_matches_the_bignum() {
        let mut power: Big = [0; LIMBS];
        power[0] = 1;
        for e in 0..POW5_LEN.max(POW5_INV_LEN) {
            assert_eq!(pow5_bits(e as i32), bit_length(&power), "5^{e}");
            mul_small(&mut power, 5);
        }
    }

    #[test]
    fn table_entries_agree_with_u128_arithmetic_where_it_reaches() {
        // 5^53 is the last power of five below 2^125: padded, not cut.
        let mut power = 1u128;
        for (i, &entry) in POW5.iter().enumerate().take(54) {
            assert_eq!(
                entry,
                power << (125 - (128 - power.leading_zeros())),
                "5^{i}"
            );
            power *= 5;
        }
        assert_eq!(POW5[54], 5u128.pow(54) >> 1);
        assert_eq!(POW5[55], 5u128.pow(55) >> 3);
        // Every entry but 2^125 + 1 is exactly 125 bits wide.
        for &entry in POW5.iter().chain(&POW5_INV[1..]) {
            assert_eq!(128 - entry.leading_zeros(), 125);
        }
        // 2^125 / 1 + 1 and 2^127 / 5 + 1, the two numerators that fit.
        assert_eq!(POW5_INV[0], (1 << 125) + 1);
        assert_eq!(POW5_INV[1], (1u128 << 127) / 5 + 1);
        // Each reciprocal brackets 2^j / 5^q, (inv − 1)·5^q < 2^j < inv·5^q,
        // checked in 256-bit products while 5^q fits in 128 bits.
        for (q, &inv) in POW5_INV.iter().enumerate().take(56).skip(2) {
            let power = 5u128.pow(q as u32);
            let two_j = (1u128 << (pow5_bits(q as i32) - 1 + 125 - 128), 0);
            assert!(wide_mul(inv - 1, power) < two_j, "q = {q}");
            assert!(two_j < wide_mul(inv, power), "q = {q}");
        }
    }

    /// The 256-bit product `a · b` as `(high, low)` halves.
    fn wide_mul(a: u128, b: u128) -> (u128, u128) {
        let (a0, a1) = (a as u64 as u128, a >> 64);
        let (b0, b1) = (b as u64 as u128, b >> 64);
        let (middle, carry) = (a0 * b1).overflowing_add(a1 * b0);
        let (low, low_carry) = (a0 * b0).overflowing_add(middle << 64);
        let high = a1 * b1 + (middle >> 64) + (u128::from(carry) << 64) + u128::from(low_carry);
        (high, low)
    }

    #[test]
    fn digits_and_exponents_of_known_values() {
        assert_eq!(shortest(1.5f64.to_bits()), (15, -1));
        assert_eq!(shortest(0.1f64.to_bits()), (1, -1));
        assert_eq!(shortest(1e21f64.to_bits()), (1, 21));
        assert_eq!(shortest(5e-324f64.to_bits()), (5, -324));
        assert_eq!(shortest(f64::MAX.to_bits()), (17_976_931_348_623_157, 292));
        assert_eq!(
            shortest(9_007_199_254_740_992f64.to_bits()),
            (9_007_199_254_740_992, 0)
        );
    }
}
