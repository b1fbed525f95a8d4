//! Deterministic per-thread buffer recycling for the steady-state hot
//! paths.
//!
//! JPEG-ACT's throughput argument assumes compression streams into
//! preallocated DMA buffers (Sec. III-G; cDMA and EBPC make the same
//! assumption) — allocator round trips per tensor are pure overhead once
//! a training or serving loop reaches steady state.  This crate is the
//! workspace's answer: size-classed free lists of `Vec<u8>` / `Vec<i8>` /
//! `Vec<f32>` buffers, kept **per thread** so no locks or atomics are
//! needed and `jact-par` determinism is untouched (recycling changes
//! where a buffer's memory came from, never its contents — every
//! [`take`] returns a logically empty vector).
//!
//! ## API conventions
//!
//! * [`take`]`(min_cap)` hands out an empty `Vec` with at least `min_cap`
//!   capacity, recycled when a same-class buffer is parked, freshly
//!   allocated otherwise.  [`take_zeroed`]`(len)` additionally
//!   zero-fills to `len` (the drop-in replacement for `vec![0; len]`).
//! * [`give`]`(v)` parks a spent buffer on the current thread's shelf
//!   for the next [`take`].  Giving is always optional: a buffer that
//!   escapes (into a `Tensor`, a long-lived cache entry, a caller that
//!   never cooperates) is simply dropped by Rust as before.
//! * [`lease`]`(min_cap)` is the RAII form for function-local scratch:
//!   the buffer returns to the shelf when the [`Lease`] drops.
//!
//! Buffers cross API boundaries as plain `Vec`s — there is no handle
//! type to thread through signatures, so `compress_into`-style APIs stay
//! ordinary Rust.  Under `jact-par`, the single-worker fast path runs
//! chunk bodies inline on the calling thread, so its shelf stays warm
//! across a whole benchmark or serving loop; multi-worker regions run on
//! scoped threads whose shelves die with the region, which costs misses,
//! never correctness.
//!
//! Per-thread counters ([`stats`]) record acquire/recycle/miss/give
//! traffic and the high-water mark of shelf-retained bytes; the same
//! numbers are emitted as wall-mode-only `pool.*` obs counters (they
//! depend on thread count and warm-up history, so — like `par.workers` —
//! they are confined to wall mode and never appear in golden traces).

#![forbid(unsafe_code)]

use jact_obs as obs;
use std::cell::{Cell, RefCell};

/// Smallest pooled capacity class, as a power-of-two exponent (64
/// elements): tinier buffers cost less to allocate than to track.
const MIN_CLASS_LOG2: u32 = 6;

/// Largest pooled capacity class, as a power-of-two exponent (2^30
/// elements): anything bigger is a one-off, not steady-state traffic.
const MAX_CLASS_LOG2: u32 = 30;

/// Number of size classes on a shelf.
const NUM_CLASSES: usize = (MAX_CLASS_LOG2 - MIN_CLASS_LOG2 + 1) as usize;

/// Buffers retained per size class; excess gives are dropped so one
/// burst can never pin unbounded memory on a shelf.
///
/// Sized for bursty give/take phase patterns, not just the steady-state
/// average: the serve daemon's save phase parks two buffers per request
/// (the overwritten stored frame and the invalidated cache entry)
/// before the load phase draws three per request, so a batch of N
/// requests transiently parks ~2N buffers of one class.  A shelf
/// shallower than that peak drops a give mid-burst and the later take
/// becomes a fresh allocation every round — a depth of 16 absorbs the
/// default 8-op serve round with headroom while still bounding retained
/// memory per class.
const SHELF_DEPTH: usize = 16;

/// Per-thread recycling counters; see [`stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out by [`take`] / [`take_zeroed`] / [`lease`].
    pub acquires: u64,
    /// Acquires served from a shelf (no allocation).
    pub recycles: u64,
    /// Acquires that fell through to a fresh allocation.
    pub misses: u64,
    /// Buffers parked by [`give`] (drops of over-deep or over-size
    /// buffers are not counted).
    pub gives: u64,
    /// Bytes currently parked on this thread's shelves.
    pub retained_bytes: u64,
    /// High-water mark of [`retained_bytes`](Self::retained_bytes).
    pub high_water_bytes: u64,
}

thread_local! {
    static STATS: Cell<PoolStats> = const { Cell::new(PoolStats {
        acquires: 0,
        recycles: 0,
        misses: 0,
        gives: 0,
        retained_bytes: 0,
        high_water_bytes: 0,
    }) };
}

/// Snapshot of the current thread's recycling counters.
pub fn stats() -> PoolStats {
    STATS.try_with(|s| s.get()).unwrap_or_default()
}

/// Resets the current thread's counters (shelf contents are untouched).
pub fn reset_stats() {
    let _ = STATS.try_with(|s| {
        let retained = s.get().retained_bytes;
        s.set(PoolStats {
            retained_bytes: retained,
            high_water_bytes: retained,
            ..PoolStats::default()
        });
    });
}

fn stat_update(f: impl FnOnce(&mut PoolStats)) {
    let _ = STATS.try_with(|s| {
        let mut v = s.get();
        f(&mut v);
        s.set(v);
    });
}

/// One thread's free lists for a single element type: `classes[k]` holds
/// buffers whose capacity is at least `2^(MIN_CLASS_LOG2 + k)` elements.
#[doc(hidden)]
pub struct Shelves<T> {
    classes: [Vec<Vec<T>>; NUM_CLASSES],
}

impl<T> Default for Shelves<T> {
    fn default() -> Self {
        Shelves {
            classes: std::array::from_fn(|_| Vec::new()),
        }
    }
}

/// Size class an acquisition of `min_cap` elements draws from: the
/// smallest class every buffer of which satisfies the request.
/// `None` when the request is too large to pool.
fn take_class(min_cap: usize) -> Option<usize> {
    let cap = min_cap.max(1 << MIN_CLASS_LOG2);
    let exp = usize::BITS - (cap - 1).leading_zeros(); // ceil(log2(cap))
    if exp > MAX_CLASS_LOG2 {
        None
    } else {
        Some((exp - MIN_CLASS_LOG2) as usize)
    }
}

/// Size class a returned buffer of capacity `cap` parks on: the largest
/// class whose floor the capacity clears, so every parked buffer
/// satisfies any take from its class.  `None` when too small or too
/// large to pool.
fn give_class(cap: usize) -> Option<usize> {
    if cap < (1 << MIN_CLASS_LOG2) {
        return None;
    }
    let exp = (usize::BITS - 1 - cap.leading_zeros()).min(MAX_CLASS_LOG2); // floor(log2(cap))
    Some((exp - MIN_CLASS_LOG2) as usize)
}

/// A fresh buffer rounded up to its class capacity, so one buffer serves
/// every future request of its class without reallocating.
fn with_class_capacity<T>(min_cap: usize) -> Vec<T> {
    match take_class(min_cap) {
        Some(idx) => Vec::with_capacity(1 << (MIN_CLASS_LOG2 + idx as u32)),
        None => Vec::with_capacity(min_cap),
    }
}

/// Element types the pool recycles.  The trait exists only to route each
/// type to its own thread-local shelf (`thread_local!` storage cannot be
/// generic); `u8`, `i8`, `f32` and `u32` — the workspace's byte,
/// coefficient, activation and index elements — are the implementors.
pub trait Poolable: Copy + Default + 'static {
    /// Runs `f` against the current thread's shelves for this type;
    /// `None` when thread-local storage is unavailable (thread teardown)
    /// or the shelves are already borrowed (re-entrant use) — callers
    /// fall back to plain allocation, so the pool is panic-free by
    /// construction.
    #[doc(hidden)]
    fn with_shelves<R>(f: impl FnOnce(&mut Shelves<Self>) -> R) -> Option<R>;
}

macro_rules! poolable {
    ($ty:ty, $tls:ident) => {
        thread_local! {
            static $tls: RefCell<Shelves<$ty>> = RefCell::new(Shelves::default());
        }
        impl Poolable for $ty {
            fn with_shelves<R>(f: impl FnOnce(&mut Shelves<Self>) -> R) -> Option<R> {
                $tls.try_with(|cell| cell.try_borrow_mut().ok().map(|mut s| f(&mut s)))
                    .ok()
                    .flatten()
            }
        }
    };
}

poolable!(u8, SHELVES_U8);
poolable!(i8, SHELVES_I8);
poolable!(f32, SHELVES_F32);
poolable!(u32, SHELVES_U32);

/// Emits the wall-mode-only acquisition counters (see module docs).
fn note_take(recycled: bool) {
    if obs::wall_active() {
        obs::count("pool.acquire", 1);
        if recycled {
            obs::count("pool.recycle", 1);
        } else {
            obs::count("pool.miss", 1);
        }
    }
}

/// Hands out an **empty** buffer with capacity at least `min_cap`,
/// recycled from the current thread's shelf when one is parked there.
/// The buffer's previous contents are never observable: length is always
/// zero on return.
pub fn take<T: Poolable>(min_cap: usize) -> Vec<T> {
    let recycled = take_class(min_cap).and_then(|idx| {
        T::with_shelves(|s| s.classes[idx].pop()).flatten()
    });
    let hit = recycled.is_some();
    stat_update(|st| {
        st.acquires += 1;
        if hit {
            st.recycles += 1;
        } else {
            st.misses += 1;
        }
    });
    note_take(hit);
    match recycled {
        Some(mut v) => {
            stat_update(|st| {
                st.retained_bytes = st
                    .retained_bytes
                    .saturating_sub((v.capacity() * std::mem::size_of::<T>()) as u64);
            });
            v.clear();
            v
        }
        None => with_class_capacity(min_cap),
    }
}

/// [`take`] followed by a zero-fill to `len`: the drop-in replacement
/// for `vec![T::default(); len]` on a recycled buffer.
pub fn take_zeroed<T: Poolable>(len: usize) -> Vec<T> {
    let mut v = take(len);
    v.resize(len, T::default());
    v
}

/// Parks a spent buffer on the current thread's shelf for the next
/// [`take`].  Buffers below the minimum class, beyond the maximum class,
/// or arriving at a full shelf are simply dropped; giving is never
/// required for correctness.
pub fn give<T: Poolable>(v: Vec<T>) {
    let Some(idx) = give_class(v.capacity()) else {
        return;
    };
    let bytes = (v.capacity() * std::mem::size_of::<T>()) as u64;
    let parked = T::with_shelves(|s| {
        if s.classes[idx].len() < SHELF_DEPTH {
            s.classes[idx].push(v);
            true
        } else {
            false
        }
    })
    .unwrap_or(false);
    if parked {
        stat_update(|st| {
            st.gives += 1;
            st.retained_bytes += bytes;
            if st.retained_bytes > st.high_water_bytes {
                st.high_water_bytes = st.retained_bytes;
                if obs::wall_active() {
                    obs::gauge("pool.high_water_bytes", st.high_water_bytes);
                }
            }
        });
    }
}

/// Drops every buffer parked on the current thread's shelves (all four
/// element types) and zeroes the retained-byte counters.  Tests use this
/// to start from a cold pool.
pub fn clear_thread() {
    let _ = u8::with_shelves(|s| *s = Shelves::default());
    let _ = i8::with_shelves(|s| *s = Shelves::default());
    let _ = f32::with_shelves(|s| *s = Shelves::default());
    let _ = u32::with_shelves(|s| *s = Shelves::default());
    stat_update(|st| st.retained_bytes = 0);
}

/// RAII scratch lease: a pooled buffer that returns to the shelf when
/// dropped.  Dereferences to the underlying `Vec` so `resize`, `push`,
/// and slice access all work in place.
#[derive(Debug, Default)]
pub struct Lease<T: Poolable>(Vec<T>);

impl<T: Poolable> Lease<T> {
    /// The buffer, by mutable reference (also available via `DerefMut`).
    pub fn buf(&mut self) -> &mut Vec<T> {
        &mut self.0
    }
}

impl<T: Poolable> std::ops::Deref for Lease<T> {
    type Target = Vec<T>;
    fn deref(&self) -> &Vec<T> {
        &self.0
    }
}

impl<T: Poolable> std::ops::DerefMut for Lease<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.0
    }
}

impl<T: Poolable> Drop for Lease<T> {
    fn drop(&mut self) {
        give(std::mem::take(&mut self.0));
    }
}

/// Takes a pooled buffer as an RAII [`Lease`]: function-local scratch
/// that recycles itself on every early return.
pub fn lease<T: Poolable>(min_cap: usize) -> Lease<T> {
    Lease(take(min_cap))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() {
        clear_thread();
        reset_stats();
    }

    #[test]
    fn take_is_empty_and_sized() {
        fresh();
        let v: Vec<u8> = take(100);
        assert!(v.is_empty());
        assert!(v.capacity() >= 100);
        let z: Vec<f32> = take_zeroed(33);
        assert_eq!(z.len(), 33);
        assert!(z.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn give_then_take_recycles_the_same_allocation() {
        fresh();
        let mut v: Vec<u8> = take(200);
        v.extend_from_slice(&[0xAA; 200]);
        let ptr = v.as_ptr();
        let cap = v.capacity();
        give(v);
        let w: Vec<u8> = take(150);
        assert_eq!(w.as_ptr(), ptr, "same-class take must reuse the buffer");
        assert_eq!(w.capacity(), cap);
        assert!(w.is_empty(), "recycled buffers hand out no stale contents");
        let s = stats();
        assert_eq!(s.acquires, 2);
        assert_eq!(s.recycles, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.gives, 1);
    }

    #[test]
    fn poisoned_contents_never_leak() {
        fresh();
        give(vec![0xAAu8; 4096]);
        let mut v: Vec<u8> = take(4096);
        v.resize(4096, 0);
        assert!(v.iter().all(|&b| b == 0), "take_zeroed path sees only zeros");
    }

    #[test]
    fn classes_are_separated_by_capacity() {
        fresh();
        give(vec![1u8; 64]); // class 64
        let big: Vec<u8> = take(1 << 12); // class 4096 — must not reuse
        assert!(big.capacity() >= 1 << 12);
        assert_eq!(stats().recycles, 0);
    }

    #[test]
    fn shelf_depth_is_bounded() {
        fresh();
        for _ in 0..SHELF_DEPTH + 3 {
            give(vec![0u8; 256]);
        }
        assert_eq!(stats().gives, SHELF_DEPTH as u64);
    }

    #[test]
    fn tiny_and_huge_buffers_are_not_pooled() {
        fresh();
        give(vec![0u8; 8]); // below the minimum class
        assert_eq!(stats().gives, 0);
        assert_eq!(take_class(usize::MAX), None);
    }

    #[test]
    fn class_math_invariants() {
        // Every (give-class, take-class) pair with give >= take satisfies
        // the capacity contract: parked cap >= requested min_cap.
        for min_cap in [1usize, 63, 64, 65, 100, 4096, 5000, 1 << 20] {
            let tc = take_class(min_cap).unwrap();
            let class_floor = 1usize << (MIN_CLASS_LOG2 + tc as u32);
            assert!(class_floor >= min_cap, "min_cap={min_cap}");
            // A buffer allocated for this request parks back on a class
            // that future takes of the same size draw from.
            let gc = give_class(class_floor).unwrap();
            assert_eq!(gc, tc, "min_cap={min_cap}");
        }
    }

    #[test]
    fn high_water_tracks_retained_bytes() {
        fresh();
        give(vec![0u8; 1024]);
        give(vec![0.0f32; 1024]);
        let s = stats();
        assert!(s.retained_bytes >= 1024 + 4096);
        assert_eq!(s.high_water_bytes, s.retained_bytes);
        let _v: Vec<u8> = take(1024);
        let s2 = stats();
        assert!(s2.retained_bytes < s.retained_bytes);
        assert_eq!(s2.high_water_bytes, s.high_water_bytes);
    }

    #[test]
    fn lease_returns_to_shelf_on_drop() {
        fresh();
        {
            let mut l: Lease<f32> = lease(256);
            l.resize(256, 0.0);
            l[0] = 1.0;
            assert_eq!(l.len(), 256);
        }
        assert_eq!(stats().gives, 1);
        let v: Vec<f32> = take(256);
        assert!(v.is_empty());
        assert_eq!(stats().recycles, 1);
    }

    #[test]
    fn reset_stats_keeps_retained_accounting() {
        fresh();
        give(vec![0u8; 512]);
        let before = stats().retained_bytes;
        reset_stats();
        let s = stats();
        assert_eq!(s.acquires, 0);
        assert_eq!(s.retained_bytes, before);
        assert_eq!(s.high_water_bytes, before);
    }
}
