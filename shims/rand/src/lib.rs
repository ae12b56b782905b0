//! Offline stand-in for `rand` 0.9, providing the subset this workspace
//! uses: `StdRng::seed_from_u64`, the `Rng` extension methods
//! `random`/`random_range`/`random_bool`, and `rand::random`. The
//! generator is xoshiro256++ seeded through SplitMix64 — deterministic
//! for a fixed seed, which is all the graph generators require (they
//! promise reproducibility, not any particular stream).

use std::ops::{Range, RangeInclusive};

/// Minimal core RNG interface: everything derives from `next_u64`.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(state: u64) -> Self;
}

/// Values samplable from the "standard" distribution (`rng.random()`).
pub trait StandardDist: Sized {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_uint {
    ($($t:ty),*) => {$(
        impl StandardDist for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl StandardDist for u128 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() as u128) << 64 | rng.next_u64() as u128
    }
}

impl StandardDist for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl StandardDist for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardDist for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Types uniformly samplable over a half-open or inclusive range.
pub trait SampleUniform: Sized {
    fn sample_between<R: RngCore + ?Sized>(
        rng: &mut R,
        lo: Self,
        hi: Self,
        inclusive: bool,
    ) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty => $wide:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                inclusive: bool,
            ) -> Self {
                // `offset = next_u64() mod span` (modulo bias is
                // irrelevant at test scale). `diff` is `hi - lo` as an
                // unsigned 64-bit difference, so the span fits in u64
                // except for a full inclusive 64-bit range (span 2^64),
                // where the reduction is the identity.
                let diff = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                let offset = if inclusive && diff == u64::MAX {
                    rng.next_u64()
                } else {
                    let span = diff + inclusive as u64;
                    assert!(span > 0, "cannot sample from an empty range");
                    rng.next_u64() % span
                };
                ((lo as $wide).wrapping_add(offset as $wide)) as $t
            }
        }
    )*};
}
uniform_int!(
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64
);

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                _inclusive: bool,
            ) -> Self {
                let u: $t = StandardDist::sample_standard(rng);
                lo + u * (hi - lo)
            }
        }
    )*};
}
uniform_float!(f32, f64);

pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
    fn is_empty_range(&self) -> bool;
}

impl<T: SampleUniform + PartialOrd + Copy> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(rng, self.start, self.end, false)
    }
    // NaN endpoints make the range empty, which `!(a < b)` captures and
    // `a >= b` would not.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn is_empty_range(&self) -> bool {
        !(self.start < self.end)
    }
}

impl<T: SampleUniform + PartialOrd + Copy> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(rng, *self.start(), *self.end(), true)
    }
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn is_empty_range(&self) -> bool {
        !(self.start() <= self.end())
    }
}

/// Extension methods, blanket-implemented for every `RngCore` (matching
/// rand's `impl<R: RngCore + ?Sized> Rng for R`). Generic methods carry
/// `Self: Sized`; `R: Rng + ?Sized` callers go through the `&mut R`
/// `RngCore` impl exactly as with the real crate.
pub trait Rng: RngCore {
    fn random<T: StandardDist>(&mut self) -> T {
        T::sample_standard(self)
    }

    fn random_range<T, Rg>(&mut self, range: Rg) -> T
    where
        Rg: SampleRange<T>,
    {
        assert!(!range.is_empty_range(), "cannot sample from empty range");
        range.sample_single(self)
    }

    fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ — small, fast, and deterministic. Not the real
    /// StdRng algorithm (ChaCha12), which is fine: the workspace only
    /// relies on determinism per seed, not on stream compatibility.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        fn from_splitmix(mut state: u64) -> Self {
            let mut next = || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            StdRng::from_splitmix(state)
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

/// `rand::random()` — thread-local generator, seeded once per thread.
pub fn random<T: StandardDist>() -> T {
    use std::cell::RefCell;
    thread_local! {
        static TLS_RNG: RefCell<rngs::StdRng> = RefCell::new(
            SeedableRng::seed_from_u64(0x8C5F_A5C1_D34E_77A1 ^ {
                // Distinguish threads without needing OS entropy.
                let addr = &() as *const () as u64;
                addr.rotate_left(17)
            })
        );
    }
    TLS_RNG.with(|rng| T::sample_standard(&mut *rng.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = rng.random_range(3usize..10);
            assert!((3..10).contains(&v));
            let w = rng.random_range(0u32..=4);
            assert!(w <= 4);
            let f = rng.random_range(-2.0f64..2.0);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    /// The u128 reduction `lo + next_u64() mod (hi - lo + 1)` over an
    /// inclusive `[lo, hi]`, in exact 128-bit arithmetic.
    fn reference(x: u64, lo: i128, hi: i128) -> i128 {
        let span = (hi - lo + 1) as u128;
        lo + (x as u128 % span) as i128
    }

    #[test]
    fn u64_reduction_matches_the_u128_formula() {
        const P32: u64 = 1 << 32;
        const P63: u64 = 1 << 63;
        // (lo, hi) inclusive, as spans 1, 2, 2^32, 2^63, 2^64 - 1, 2^64
        let u64_ranges: [(u64, u64); 7] = [
            (9, 9),
            (0, 1),
            (5, 5 + P32 - 1),
            (0, P63 - 1),
            (7, 7 + P63 - 1),
            (0, u64::MAX - 1),
            (0, u64::MAX),
        ];
        let i64_ranges: [(i64, i64); 8] = [
            (-3, -3),
            (-1, 0),
            (-(P32 as i64), -1),
            (i64::MIN, -1),
            (i64::MIN + 1, 0),
            (i64::MIN, i64::MAX - 1),
            (i64::MIN + 1, i64::MAX),
            (i64::MIN, i64::MAX),
        ];
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for _ in 0..500 {
            for &(lo, hi) in &u64_ranges {
                let x = rng.clone().next_u64();
                let want = reference(x, lo as i128, hi as i128);
                if hi < u64::MAX {
                    let half_open = rng.clone().random_range(lo..hi + 1);
                    assert_eq!(half_open as i128, want, "{lo}..{}", hi + 1);
                }
                assert_eq!(rng.random_range(lo..=hi) as i128, want, "{lo}..={hi}");
            }
            for &(lo, hi) in &i64_ranges {
                let x = rng.clone().next_u64();
                let want = reference(x, lo as i128, hi as i128);
                if hi < i64::MAX {
                    let half_open = rng.clone().random_range(lo..hi + 1);
                    assert_eq!(half_open as i128, want, "{lo}..{}", hi + 1);
                }
                assert_eq!(rng.random_range(lo..=hi) as i128, want, "{lo}..={hi}");
            }
        }
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let u: f64 = rng.random();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn sample_through_unsized_bound() {
        fn takes_dyn<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.random::<f64>() + rng.random_range(0.0f64..1.0)
        }
        let mut rng = StdRng::seed_from_u64(3);
        let v = takes_dyn(&mut rng);
        assert!((0.0..2.0).contains(&v));
    }
}
