//! Window indices, cyclic arithmetic, window masks and the Window Invalid
//! Mask (WIM).

use std::fmt;

/// Smallest legal number of windows (SPARC requires at least two: one for
/// the running procedure and one kept invalid to catch wrap-around).
pub const MIN_WINDOWS: usize = 2;

/// Largest supported number of windows. The SPARC architecture caps the
/// implementation at 32 windows and the paper's emulator sweeps 4–32,
/// but this simulator accepts up to 64 — one [`Wim`] bit per bit of the
/// `u64` mask — so sweeps can explore beyond the architectural limit.
pub const MAX_WINDOWS: usize = 64;

/// Index of a physical register window in the cyclic window buffer.
///
/// Follows the paper's orientation: window *i − 1* is **above** window *i*
/// (`save` decrements the CWP, moving up), window *i + 1* is **below** it
/// (`restore` increments the CWP, moving down). All arithmetic is modulo
/// the number of windows.
///
/// ```rust
/// use regwin_machine::WindowIndex;
///
/// let w = WindowIndex::new(0);
/// assert_eq!(w.above(8), WindowIndex::new(7)); // cyclic wrap
/// assert_eq!(w.below(8), WindowIndex::new(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WindowIndex(usize);

impl WindowIndex {
    /// Creates a window index. The value is taken as-is; range checking
    /// against a machine's window count happens at the point of use.
    pub const fn new(index: usize) -> Self {
        WindowIndex(index)
    }

    /// The raw index value.
    pub const fn index(self) -> usize {
        self.0
    }

    /// The window above this one (callee direction, `save` target),
    /// cyclically: *i − 1 mod n*.
    #[must_use]
    pub const fn above(self, nwindows: usize) -> Self {
        WindowIndex((self.0 + nwindows - 1) % nwindows)
    }

    /// The window below this one (caller direction, `restore` target),
    /// cyclically: *i + 1 mod n*.
    #[must_use]
    pub const fn below(self, nwindows: usize) -> Self {
        WindowIndex((self.0 + 1) % nwindows)
    }

    /// The window `k` steps below this one, cyclically.
    ///
    /// `k` is reduced modulo `nwindows` first, so arbitrarily large step
    /// counts are exact — the sum can never overflow `usize`.
    #[must_use]
    pub const fn below_by(self, k: usize, nwindows: usize) -> Self {
        WindowIndex((self.0 % nwindows + k % nwindows) % nwindows)
    }

    /// The window `k` steps above this one, cyclically.
    ///
    /// `k` is reduced modulo `nwindows` first. The previous formulation
    /// `self.0 + k * (nwindows - 1)` overflowed (silently wrapping in
    /// release builds) for large `k` and returned a wrong window; the
    /// modular form is exact for every `k`.
    #[must_use]
    pub const fn above_by(self, k: usize, nwindows: usize) -> Self {
        WindowIndex((self.0 % nwindows + nwindows - k % nwindows) % nwindows)
    }

    /// Cyclic distance from `self` going **below** (downward) until
    /// reaching `other`: the number of `below` steps needed.
    #[must_use]
    pub const fn distance_below_to(self, other: Self, nwindows: usize) -> usize {
        (other.0 + nwindows - self.0) % nwindows
    }

    /// This window's bit in a window mask.
    pub(crate) const fn bit(self) -> u64 {
        1 << self.0
    }
}

impl fmt::Display for WindowIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "W{}", self.0)
    }
}

impl From<WindowIndex> for usize {
    fn from(w: WindowIndex) -> usize {
        w.0
    }
}

/// The mask of a run of `len` windows that starts at `start` and goes
/// **below** (increasing index), cyclically in `nwindows` windows. A run
/// of the whole file is every bit; `len` must not exceed `nwindows`.
pub(crate) fn run_mask(start: WindowIndex, len: usize, nwindows: usize) -> u64 {
    debug_assert!(len <= nwindows && start.0 < nwindows);
    let run = low_bits(len);
    let s = start.0;
    // The part that wraps past the last window lands at the bottom.
    let wrapped = run.checked_shr((nwindows - s) as u32).unwrap_or(0);
    ((run << s) | wrapped) & low_bits(nwindows)
}

/// The mask of the `n` lowest bits (`n` up to 64).
pub(crate) fn low_bits(n: usize) -> u64 {
    1u64.checked_shl(n as u32).unwrap_or(0).wrapping_sub(1)
}

/// The windows whose bits are set in `mask`, lowest index first.
pub(crate) fn windows_in(mut mask: u64) -> impl Iterator<Item = WindowIndex> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let w = WindowIndex(mask.trailing_zeros() as usize);
            mask &= mask - 1;
            w
        })
    })
}

/// The Window Invalid Mask: one bit per physical window; a set bit means a
/// `save` or `restore` entering that window raises a trap.
///
/// In the conventional single-thread algorithm exactly one bit is set (the
/// reserved window). Under window sharing, every window not owned by the
/// current thread is also marked invalid (paper §3). A `Wim` is a value
/// read from [`crate::Machine::wim`], which derives it from who holds each
/// window.
///
/// ```rust
/// use regwin_machine::Machine;
///
/// let machine = Machine::new(8).unwrap();
/// let wim = machine.wim();
/// // No thread is current, so every window is invalid.
/// assert_eq!(wim.bits().count_ones(), 8);
/// assert_eq!(wim.to_string(), "11111111");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Wim {
    bits: u64,
    nwindows: usize,
}

impl Wim {
    /// The mask with bit pattern `bits` over `nwindows` windows.
    pub(crate) fn new(bits: u64, nwindows: usize) -> Self {
        debug_assert!(bits & !low_bits(nwindows) == 0, "WIM bit beyond the file");
        Wim { bits, nwindows }
    }

    /// Number of windows this mask covers.
    pub fn nwindows(&self) -> usize {
        self.nwindows
    }

    /// Whether `w` is marked invalid.
    pub fn is_set(&self, w: WindowIndex) -> bool {
        debug_assert!(w.index() < self.nwindows);
        self.bits & w.bit() != 0
    }

    /// The raw bit pattern (bit *i* = window *i*).
    pub fn bits(&self) -> u64 {
        self.bits
    }
}

impl fmt::Display for Wim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.nwindows).rev() {
            write!(f, "{}", if self.bits & (1 << i) != 0 { '1' } else { '0' })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn above_and_below_are_inverse() {
        for n in [2usize, 4, 7, 8, 32] {
            for i in 0..n {
                let w = WindowIndex::new(i);
                assert_eq!(w.above(n).below(n), w);
                assert_eq!(w.below(n).above(n), w);
            }
        }
    }

    #[test]
    fn above_wraps_cyclically() {
        assert_eq!(WindowIndex::new(0).above(8), WindowIndex::new(7));
        assert_eq!(WindowIndex::new(7).below(8), WindowIndex::new(0));
    }

    #[test]
    fn below_by_composes_single_steps() {
        let n = 7;
        let w = WindowIndex::new(3);
        let mut s = w;
        for _ in 0..5 {
            s = s.below(n);
        }
        assert_eq!(w.below_by(5, n), s);
    }

    #[test]
    fn above_by_composes_single_steps() {
        let n = 7;
        let w = WindowIndex::new(2);
        let mut s = w;
        for _ in 0..5 {
            s = s.above(n);
        }
        assert_eq!(w.above_by(5, n), s);
    }

    #[test]
    fn distance_below_to_counts_steps() {
        let n = 8;
        let a = WindowIndex::new(6);
        let b = WindowIndex::new(2);
        assert_eq!(a.distance_below_to(b, n), 4);
        assert_eq!(b.distance_below_to(a, n), 4);
        assert_eq!(a.distance_below_to(a, n), 0);
    }

    #[test]
    fn window_index_display() {
        assert_eq!(WindowIndex::new(4).to_string(), "W4");
    }

    #[test]
    fn cyclic_arithmetic_at_minimum_sweep_size() {
        // N = 4 is the smallest window count the paper sweeps; every
        // index is one step from wrap-around in some direction.
        let n = 4;
        for i in 0..n {
            let w = WindowIndex::new(i);
            assert_eq!(w.above(n).index(), (i + 3) % 4);
            assert_eq!(w.below(n).index(), (i + 1) % 4);
            // A full cycle in either direction is the identity.
            assert_eq!(w.below_by(n, n), w);
            assert_eq!(w.above_by(n, n), w);
            // below_by past one full cycle reduces modulo n.
            assert_eq!(w.below_by(n + 1, n), w.below(n));
            assert_eq!(w.above_by(n + 1, n), w.above(n));
        }
        // Distances cover the whole ring and complement each other.
        let a = WindowIndex::new(1);
        let b = WindowIndex::new(3);
        assert_eq!(a.distance_below_to(b, n), 2);
        assert_eq!(b.distance_below_to(a, n), n - 2);
    }

    #[test]
    fn cyclic_arithmetic_at_maximum_sweep_size() {
        // N = 32 is the top of the paper's sweep (and SPARC's limit).
        let n = 32;
        assert_eq!(WindowIndex::new(0).above(n), WindowIndex::new(31));
        assert_eq!(WindowIndex::new(31).below(n), WindowIndex::new(0));
        for i in 0..n {
            let w = WindowIndex::new(i);
            assert_eq!(w.below_by(n, n), w);
            assert_eq!(w.above_by(n, n), w);
            assert_eq!(w.above_by(7, n).below_by(7, n), w);
            assert_eq!(w.distance_below_to(w.below_by(17, n), n), 17);
        }
    }

    #[test]
    fn above_by_is_exact_for_large_step_counts() {
        // Regression: the old `self.0 + k * (nwindows - 1)` overflowed
        // for large `k` (silently wrapping in release builds) and
        // returned a wrong window. The modular form must agree with
        // explicit reduction of `k` for steps far beyond any realistic
        // call depth, right up to `usize::MAX`.
        for n in [2usize, 4, 7, 32, 64] {
            for i in 0..n {
                let w = WindowIndex::new(i);
                for k in [
                    usize::MAX,
                    usize::MAX - 1,
                    usize::MAX / 2,
                    u32::MAX as usize,
                    1 << 40,
                    12_345_678_901,
                ] {
                    assert_eq!(w.above_by(k, n), w.above_by(k % n, n), "above_by k={k} n={n}");
                    assert_eq!(w.below_by(k, n), w.below_by(k % n, n), "below_by k={k} n={n}");
                    // Opposite directions with the same step count cancel.
                    assert_eq!(w.above_by(k, n).below_by(k, n), w);
                }
                // Sanity anchor: a huge exact multiple of n is the identity.
                let whole = (usize::MAX / n) * n;
                assert_eq!(w.above_by(whole, n), w);
                assert_eq!(w.below_by(whole, n), w);
            }
        }
    }

    #[test]
    fn cyclic_arithmetic_at_n2_minimum() {
        // MIN_WINDOWS = 2: every step is a wrap; above and below
        // coincide.
        let n = MIN_WINDOWS;
        let w0 = WindowIndex::new(0);
        let w1 = WindowIndex::new(1);
        assert_eq!(w0.above(n), w1);
        assert_eq!(w0.below(n), w1);
        assert_eq!(w1.above(n), w0);
        assert_eq!(w1.below(n), w0);
        for k in 0..8 {
            let expect = if k % 2 == 0 { w0 } else { w1 };
            assert_eq!(w0.above_by(k, n), expect);
            assert_eq!(w0.below_by(k, n), expect);
        }
        assert_eq!(w0.distance_below_to(w1, n), 1);
        assert_eq!(w1.distance_below_to(w0, n), 1);
    }

    /// Deterministic pseudo-random step counts for the property tests
    /// (no external RNG crate in the build environment).
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn property_above_below_inverse_all_n() {
        // above/below are inverses at every index for every legal N.
        for n in MIN_WINDOWS..=MAX_WINDOWS {
            for i in 0..n {
                let w = WindowIndex::new(i);
                assert_eq!(w.above(n).below(n), w, "n={n} i={i}");
                assert_eq!(w.below(n).above(n), w, "n={n} i={i}");
                // One step in either direction is distance 1 (or 1 == n-1
                // when n == 2, which the modulus handles uniformly).
                assert_eq!(w.distance_below_to(w.below(n), n), 1);
                assert_eq!(w.below(n).distance_below_to(w, n), n - 1);
            }
        }
    }

    #[test]
    fn property_by_steps_compose_with_distance_all_n() {
        // For random k: below_by(k) lands exactly k%n steps below, and
        // above_by(k) cancels it; distance_below_to recovers the step.
        let mut rng = 0x1234_5678_9abc_def0u64;
        for n in MIN_WINDOWS..=MAX_WINDOWS {
            for _ in 0..16 {
                let i = (splitmix64(&mut rng) as usize) % n;
                let k = splitmix64(&mut rng) as usize; // full-range step
                let w = WindowIndex::new(i);
                let down = w.below_by(k, n);
                assert_eq!(w.distance_below_to(down, n), k % n, "n={n} i={i} k={k}");
                assert_eq!(down.above_by(k, n), w, "n={n} i={i} k={k}");
                assert_eq!(w.above_by(k, n).below_by(k, n), w, "n={n} i={i} k={k}");
                // k steps one at a time agrees with below_by(k%n).
                let mut s = w;
                for _ in 0..(k % n) {
                    s = s.below(n);
                }
                assert_eq!(down, s, "n={n} i={i} k={k}");
            }
        }
    }

    #[test]
    fn wim_display_is_msb_first() {
        let wim = Wim::new(0b1001, 4);
        assert_eq!(wim.to_string(), "1001");
        assert!(wim.is_set(WindowIndex::new(0)) && wim.is_set(WindowIndex::new(3)));
        assert!(!wim.is_set(WindowIndex::new(1)));
    }

    #[test]
    fn wim_reads_every_bit_at_edge_sizes() {
        // N = 2 is the minimum, 4 and 32 bound the paper's sweep, and 64
        // exercises bit 63, where an off-by-one shift would overflow.
        for n in [MIN_WINDOWS, 4, 32, MAX_WINDOWS] {
            let full = Wim::new(low_bits(n), n);
            assert_eq!(full.bits().count_ones() as usize, n);
            assert_eq!(full.to_string(), "1".repeat(n));
            let top = WindowIndex::new(n - 1);
            let ends = Wim::new(top.bit() | 1, n);
            assert!(ends.is_set(top) && ends.is_set(top.below(n)));
            assert_eq!(ends.bits().count_ones(), 2);
            assert!(ends.to_string().starts_with('1') && ends.to_string().ends_with('1'));
        }
    }

    #[test]
    fn low_bits_covers_zero_through_sixty_four() {
        assert_eq!(low_bits(0), 0);
        assert_eq!(low_bits(1), 1);
        assert_eq!(low_bits(63), u64::MAX >> 1);
        assert_eq!(low_bits(64), u64::MAX);
    }

    #[test]
    fn windows_in_visits_set_bits_lowest_first() {
        let got: Vec<usize> = windows_in((1 << 63) | 0b1010).map(WindowIndex::index).collect();
        assert_eq!(got, [1, 3, 63]);
        assert_eq!(windows_in(0).count(), 0);
    }

    #[test]
    fn property_run_mask_matches_stepping_below_all_n() {
        // A run of `len` windows from `start` is the windows reached by
        // stepping below `len - 1` times, for every N up to 64 and every
        // length up to the whole file (the `len == 64` shift included).
        let mut rng = 0x0fed_cba9_8765_4321u64;
        for n in MIN_WINDOWS..=MAX_WINDOWS {
            for len in [0, 1, n - 1, n, (splitmix64(&mut rng) as usize) % (n + 1)] {
                let start = WindowIndex::new((splitmix64(&mut rng) as usize) % n);
                let mut expect = 0u64;
                let mut w = start;
                for _ in 0..len {
                    expect |= w.bit();
                    w = w.below(n);
                }
                assert_eq!(run_mask(start, len, n), expect, "n={n} start={start} len={len}");
            }
        }
    }
}
