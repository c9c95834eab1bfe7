//! The reference unit: a fixed computation owned by the benchmark, used to
//! take the host's speed out of the program's CPU time.
//!
//! CPU time already leaves out what a shared host takes away outright:
//! time other processes held the CPU, and (with paravirtualized steal
//! accounting, as on KVM guests) time the host ran other guests on this
//! vCPU. What it keeps is how fast the host runs code while the program
//! does run, and on a shared 2-vCPU guest that drifts by tens of percent
//! over minutes with the neighbours' load on caches and cores. A unit
//! timed next to the program's work drifts with it, so the ratio of the
//! two is steady; [`normalized_us`] scales the ratio back to microseconds.
//! No program code runs inside a unit, so no change to the program can
//! move it.

use crate::sys;

/// Elements of the float table (32 KiB: L1-resident).
const FLOATS: usize = 4096;
/// Bytes of the scan buffer (64 KiB: L2-resident).
const BYTES: usize = 64 << 10;

/// CPU time of one unit, in µs, on the 2-vCPU Xeon (Sapphire Rapids) KVM
/// guest the benchmark was tuned on (it read 300–440 µs there). Only a
/// scale: it turns "CPU time in units" back into microseconds.
pub const NOMINAL_UNIT_US: f64 = 400.0;

/// Units per reading: a reading is the median of this many (about 10 ms).
pub const UNITS_PER_READING: usize = 25;

/// CPU time `cpu_s` expressed in µs at the nominal host speed, given that
/// a unit timed next to it took `unit_s`.
pub fn normalized_us(cpu_s: f64, unit_s: f64) -> f64 {
    cpu_s / unit_s * NOMINAL_UNIT_US
}

/// The unit's working state: a float table and a byte buffer it keeps
/// transforming, so no pass can be optimised away or cached.
pub struct Reference {
    floats: Vec<f64>,
    bytes: Vec<u8>,
    hash: u64,
}

impl Reference {
    pub fn new() -> Reference {
        let mut rng = gf_support::SplitMix64::new(0x5EED_0000_0000_00CA);
        Reference {
            floats: (0..FLOATS).map(|_| rng.gen_range_f64(1.0, 2.0)).collect(),
            bytes: (0..BYTES).map(|_| rng.next_u64() as u8).collect(),
            hash: 0xCBF2_9CE4_8422_2325,
        }
    }

    /// Runs one unit — a float pass over the table (the kernels' kind of
    /// work) and a branchy hash over the buffer (the codecs' kind) — and
    /// returns the calling thread's CPU time for it, in seconds.
    pub fn unit_s(&mut self) -> f64 {
        let started = sys::thread_cpu_s();
        for x in self.floats.iter_mut() {
            *x = (*x * 1.000_000_1 + 0.25).sqrt() + 0.5 / (*x + 1.0);
        }
        let mut hash = self.hash;
        for &b in &self.bytes {
            hash = if b < 128 {
                (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
            } else {
                hash.rotate_left(5) ^ u64::from(b)
            };
        }
        self.hash = std::hint::black_box(hash);
        std::hint::black_box(&self.floats);
        sys::thread_cpu_s() - started
    }

    /// One reading: the median CPU time of [`UNITS_PER_READING`] units, in
    /// seconds.
    pub fn reading_s(&mut self) -> f64 {
        let units: Vec<f64> = (0..UNITS_PER_READING).map(|_| self.unit_s()).collect();
        crate::stats::median(&units)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_take_time_and_normalize_proportionally() {
        let mut reference = Reference::new();
        let unit = reference.reading_s();
        assert!(unit > 0.0);
        assert_eq!(normalized_us(unit, unit), NOMINAL_UNIT_US);
        assert!((normalized_us(3.0 * unit, unit) - 3.0 * NOMINAL_UNIT_US).abs() < 1e-9);
    }
}
