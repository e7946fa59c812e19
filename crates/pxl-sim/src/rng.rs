//! Deterministic pseudo-random sources used by the simulator.
//!
//! Two generators are provided:
//!
//! * [`Lfsr16`] — a 16-bit Fibonacci linear feedback shift register, the
//!   structure the paper's task-management unit (TMU) uses for random victim
//!   selection during work stealing ("It uses a linear feedback shift
//!   register (LFSR) to pick a random PE as the victim", Section III-A).
//! * [`XorShift64`] — a fast 64-bit xorshift generator used for workload
//!   generation and anywhere statistical quality matters more than hardware
//!   fidelity.
//!
//! Both are fully deterministic given their seed, which is what makes
//! simulations reproducible cycle-for-cycle.

use crate::persist::{Codec, Persist};
use crate::snapshot::SnapshotError;

/// A 16-bit Fibonacci LFSR with taps at bits 16, 15, 13 and 4
/// (polynomial x^16 + x^15 + x^13 + x^4 + 1), a maximal-length
/// configuration producing a period of 2^16 - 1.
///
/// This mirrors the hardware victim-selection logic in the FlexArch TMU: a
/// thief PE clocks the LFSR and reduces the output modulo the number of
/// stealable targets.
///
/// # Examples
///
/// ```
/// use pxl_sim::Lfsr16;
///
/// let mut lfsr = Lfsr16::new(0xACE1);
/// let v = lfsr.next_in_range(8);
/// assert!(v < 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lfsr16 {
    state: u16,
}

impl Lfsr16 {
    /// Creates an LFSR with the given seed.
    ///
    /// A zero seed would lock the register in the all-zero state, so it is
    /// mapped to the conventional non-zero value `0xACE1`.
    pub fn new(seed: u16) -> Self {
        Lfsr16 {
            state: if seed == 0 { 0xACE1 } else { seed },
        }
    }

    /// Advances the register one step and returns the new state.
    #[inline]
    pub fn step(&mut self) -> u16 {
        let s = self.state;
        let bit = (s ^ (s >> 1) ^ (s >> 3) ^ (s >> 12)) & 1;
        self.state = (s >> 1) | (bit << 15);
        self.state
    }

    /// Advances the register and reduces the state into `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[inline]
    pub fn next_in_range(&mut self, n: usize) -> usize {
        assert!(n > 0, "range must be nonempty");
        self.step() as usize % n
    }
}

/// A 64-bit xorshift* generator (Marsaglia's xorshift with a multiplicative
/// finalizer).
///
/// Used for synthetic workload generation: input arrays, sparse matrix
/// structure, UTS tree shapes. Deterministic and seedable so every experiment
/// in the harness is reproducible.
///
/// # Examples
///
/// ```
/// use pxl_sim::XorShift64;
///
/// let mut a = XorShift64::new(42);
/// let mut b = XorShift64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator from a seed. A zero seed is remapped to a fixed
    /// non-zero constant since xorshift has an all-zero fixed point.
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Returns the next 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Returns the next value reduced into `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[inline]
    pub fn next_in_range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "range must be nonempty");
        self.next_u64() % n
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Derives an independent child generator, for splitting one seed across
    /// many components (e.g. one RNG per PE).
    pub fn split(&mut self) -> XorShift64 {
        XorShift64::new(self.next_u64() | 1)
    }
}

impl Persist for Lfsr16 {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        self.state.persist(c)
    }
}

impl Persist for XorShift64 {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        self.state.persist(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lfsr_zero_seed_is_remapped() {
        let a = Lfsr16::new(0);
        assert_ne!(a.state, 0);
    }

    #[test]
    fn lfsr_never_reaches_zero_and_has_full_period() {
        let mut lfsr = Lfsr16::new(1);
        let start = lfsr.state;
        let mut period = 0u32;
        loop {
            let v = lfsr.step();
            assert_ne!(v, 0, "LFSR must never produce the all-zero state");
            period += 1;
            if lfsr.state == start {
                break;
            }
            assert!(period <= 65_535, "period exceeded 2^16-1");
        }
        assert_eq!(period, 65_535, "taps must be maximal-length");
    }

    #[test]
    fn lfsr_range_is_respected() {
        let mut lfsr = Lfsr16::new(0xBEEF);
        for _ in 0..1000 {
            assert!(lfsr.next_in_range(7) < 7);
        }
    }

    #[test]
    fn xorshift_is_deterministic() {
        let mut a = XorShift64::new(7);
        let mut b = XorShift64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xorshift_f64_in_unit_interval() {
        let mut r = XorShift64::new(99);
        for _ in 0..1000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn xorshift_split_diverges_from_parent() {
        let mut parent = XorShift64::new(5);
        let mut child = parent.split();
        // The streams should not be identical.
        let p: Vec<u64> = (0..8).map(|_| parent.next_u64()).collect();
        let c: Vec<u64> = (0..8).map(|_| child.next_u64()).collect();
        assert_ne!(p, c);
    }

    #[test]
    fn xorshift_rough_uniformity() {
        let mut r = XorShift64::new(123);
        let mut buckets = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            buckets[r.next_in_range(10) as usize] += 1;
        }
        for &b in &buckets {
            let expected = n / 10;
            assert!(
                (b as i64 - expected as i64).unsigned_abs() < expected as u64 / 10,
                "bucket {b} too far from {expected}"
            );
        }
    }
}
