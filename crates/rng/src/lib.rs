//! # jact-rng
//!
//! The workspace's only source of randomness: a seedable, dependency-free
//! PRNG with a fixed, documented algorithm so every experiment in the
//! reproduction is bit-reproducible across machines and toolchains.
//!
//! * Seeding: [`SplitMix64`] expands a single `u64` seed into the 256-bit
//!   state of the main generator (the initialization recommended by the
//!   xoshiro authors).
//! * Generation: [`Xoshiro256PlusPlus`] — fast, well-tested, and tiny.
//! * API: mirrors the subset of `rand 0.8` this workspace historically
//!   used, so call sites read identically: [`rngs::StdRng`],
//!   [`SeedableRng::seed_from_u64`], [`Rng::gen`], [`Rng::gen_range`],
//!   and a Box–Muller [`Rng::sample_normal_f32`] path for weight
//!   initialization.
//!
//! The streams produced here are pinned by golden-value tests; changing
//! the algorithm is a breaking change to every seeded experiment
//! (Sec. IV's harvested activations, the SFPR/DQT sweeps) and must be
//! done deliberately.

#![forbid(unsafe_code)]

/// SplitMix64: a tiny splittable generator used to expand seeds.
///
/// Reference: Steele, Lea, Flood — "Fast splittable pseudorandom number
/// generators" (OOPSLA 2014); the constants below are the canonical ones.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a SplitMix64 stream starting from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ 1.0 (Blackman & Vigna, 2019): the workspace's standard
/// generator. 256 bits of state, period `2^256 - 1`, passes BigCrush.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// The next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
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

/// The workspace's default RNG, by the name call sites use.
pub mod rngs {
    /// Alias kept so `rngs::StdRng` reads the same as it did under `rand`.
    pub type StdRng = super::Xoshiro256PlusPlus;
}

/// Construction of a generator from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Builds a deterministic generator from `seed`; equal seeds produce
    /// equal streams forever.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for Xoshiro256PlusPlus {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        // SplitMix64 output is equidistributed, so the all-zero state is
        // unreachable for any seed.
        Xoshiro256PlusPlus {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }
}

/// Types samplable uniformly over their "standard" domain: the full range
/// for integers, `[0, 1)` for floats, `{false, true}` for bool.
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: Rng>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            #[inline]
            fn sample<R: Rng>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    #[inline]
    fn sample<R: Rng>(rng: &mut R) -> Self {
        // Use the high bit: xoshiro's low bits are its weakest.
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with the full 24 bits of mantissa precision.
    #[inline]
    fn sample<R: Rng>(rng: &mut R) -> Self {
        ((rng.next_u64() >> 40) as f32) * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with the full 53 bits of mantissa precision.
    #[inline]
    fn sample<R: Rng>(rng: &mut R) -> Self {
        ((rng.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges samplable uniformly; implemented for `lo..hi` over the primitive
/// numeric types the workspace draws from.
pub trait SampleRange<T> {
    /// Draws one value from the range using `rng`.
    fn sample_from<R: Rng>(self, rng: &mut R) -> T;
}

macro_rules! impl_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range called with empty range");
                let span = (self.end - self.start) as u64;
                // Lemire's multiply-shift reduction: maps a u64 draw onto
                // [0, span) with bias < 2^-64 per draw — negligible and,
                // above all, deterministic.
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                self.start + hi as $t
            }
        }
    )*};
}
impl_range_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_range_int {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range called with empty range");
                let span = (self.end as $u).wrapping_sub(self.start as $u) as u64;
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                (self.start as $u).wrapping_add(hi as $u) as $t
            }
        }
    )*};
}
impl_range_int!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

impl SampleRange<f32> for core::ops::Range<f32> {
    #[inline]
    fn sample_from<R: Rng>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "gen_range called with empty range");
        let u: f32 = Standard::sample(rng);
        // `u < 1.0` guarantees the result stays below `end` except through
        // rounding at extreme spans; clamp keeps the contract exact.
        let v = self.start + (self.end - self.start) * u;
        if v >= self.end {
            self.end - (self.end - self.start) * f32::EPSILON
        } else {
            v
        }
    }
}

impl SampleRange<f64> for core::ops::Range<f64> {
    #[inline]
    fn sample_from<R: Rng>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range called with empty range");
        let u: f64 = Standard::sample(rng);
        let v = self.start + (self.end - self.start) * u;
        if v >= self.end {
            self.end - (self.end - self.start) * f64::EPSILON
        } else {
            v
        }
    }
}

/// The sampling interface; blanket-implemented for every generator that
/// can produce raw 64-bit words (today: [`Xoshiro256PlusPlus`]).
pub trait Rng {
    /// The next raw 64-bit word from the generator.
    fn next_u64(&mut self) -> u64;

    /// The next raw 32-bit word (the high half of one 64-bit draw).
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// One value uniform over `T`'s standard domain (see [`Standard`]).
    #[inline]
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// One value uniform over the half-open range `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.gen::<f64>() < p
    }

    /// One standard normal (`N(0, 1)`) sample via Box–Muller.
    ///
    /// Two uniform draws per sample; no state is cached, so the stream
    /// alignment is easy to reason about when reproducing runs.
    fn sample_normal_f32(&mut self) -> f32
    where
        Self: Sized,
    {
        loop {
            let u1: f32 = self.gen::<f32>();
            if u1 <= f32::MIN_POSITIVE {
                continue;
            }
            let u2: f32 = self.gen::<f32>();
            return (-2.0 * u1.ln()).sqrt() * (2.0 * core::f32::consts::PI * u2).cos();
        }
    }

    /// Fisher–Yates shuffle of a slice.
    fn shuffle<T>(&mut self, xs: &mut [T])
    where
        Self: Sized,
    {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range(0..i + 1);
            xs.swap(i, j);
        }
    }
}

impl Rng for Xoshiro256PlusPlus {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        Xoshiro256PlusPlus::next_u64(self)
    }
}

impl Rng for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        SplitMix64::next_u64(self)
    }
}
