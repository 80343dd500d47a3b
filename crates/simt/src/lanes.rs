//! Warp-register helpers.
//!
//! A warp executes 32 lanes in lockstep. We model a per-lane register as a
//! fixed array [`Lanes<T>`] and provide the small combinator set the
//! multisplit kernels need. Operating on whole arrays (instead of spawning
//! 32 threads) keeps the simulator deterministic and fast while remaining
//! faithful to SIMD semantics: every "instruction" acts on all lanes, and
//! divergence is expressed through explicit activity masks.

/// Number of threads per warp (NVIDIA GPUs: 32).
pub const WARP_SIZE: usize = 32;

/// A full warp activity mask: all 32 lanes active.
pub const FULL_MASK: u32 = u32::MAX;

/// One register across all lanes of a warp.
pub type Lanes<T> = [T; WARP_SIZE];

/// Build a lane register from a function of the lane id.
#[inline]
pub fn lanes_from_fn<T, F: FnMut(usize) -> T>(f: F) -> Lanes<T> {
    std::array::from_fn(f)
}

/// Broadcast one value to all lanes.
#[inline]
pub fn splat<T: Copy>(v: T) -> Lanes<T> {
    [v; WARP_SIZE]
}

/// The lane-id register: `[0, 1, ..., 31]`.
#[inline]
pub fn lane_ids() -> Lanes<u32> {
    lanes_from_fn(|i| i as u32)
}

/// Apply `f` lane-wise.
#[inline]
pub fn map<T: Copy, U, F: FnMut(T) -> U>(a: Lanes<T>, mut f: F) -> Lanes<U> {
    lanes_from_fn(|i| f(a[i]))
}

/// Apply `f` lane-wise over two registers.
#[inline]
pub fn zip<T: Copy, U: Copy, V, F: FnMut(T, U) -> V>(
    a: Lanes<T>,
    b: Lanes<U>,
    mut f: F,
) -> Lanes<V> {
    lanes_from_fn(|i| f(a[i], b[i]))
}

/// True iff the `lane`-th bit of `mask` is set.
#[inline]
pub fn lane_active(mask: u32, lane: usize) -> bool {
    mask >> lane & 1 == 1
}

/// The set lanes of `mask`, in ascending order: a sparse mask costs only
/// its set lanes.
#[inline]
pub fn active_lanes(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// Mask with bits strictly below `lane` set (CUDA `%lanemask_lt`).
#[inline]
pub fn lane_mask_lt(lane: usize) -> u32 {
    (1u32 << lane).wrapping_sub(1)
}

/// Mask with bits at or below `lane` set (CUDA `%lanemask_le`).
#[inline]
pub fn lane_mask_le(lane: usize) -> u32 {
    lane_mask_lt(lane) | (1 << lane)
}

/// Population count, as the CUDA `__popc` intrinsic.
#[inline]
pub fn popc(x: u32) -> u32 {
    x.count_ones()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_ids_are_sequential() {
        let ids = lane_ids();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(id, i as u32);
        }
    }

    #[test]
    fn splat_broadcasts() {
        let r = splat(7u32);
        assert!(r.iter().all(|&x| x == 7));
    }

    #[test]
    fn map_and_zip_are_lanewise() {
        let a = lane_ids();
        let b = map(a, |x| x * 2);
        let c = zip(a, b, |x, y| y - x);
        assert_eq!(c, a);
    }

    #[test]
    fn masks_match_cuda_semantics() {
        assert_eq!(lane_mask_lt(0), 0);
        assert_eq!(lane_mask_lt(1), 1);
        assert_eq!(lane_mask_lt(31), 0x7FFF_FFFF);
        assert_eq!(lane_mask_le(0), 1);
        assert_eq!(lane_mask_le(31), u32::MAX);
        for lane in 0..WARP_SIZE {
            assert_eq!(lane_mask_le(lane), lane_mask_lt(lane) | 1 << lane);
        }
    }

    #[test]
    fn lane_active_reads_bits() {
        let mask = 0b1010;
        assert!(!lane_active(mask, 0));
        assert!(lane_active(mask, 1));
        assert!(!lane_active(mask, 2));
        assert!(lane_active(mask, 3));
    }

    #[test]
    fn popc_counts_bits() {
        assert_eq!(popc(0), 0);
        assert_eq!(popc(u32::MAX), 32);
        assert_eq!(popc(0b1011), 3);
    }
}
