//! Warp-level scan and reduction, built purely from shuffle intrinsics.
//!
//! These are the `log N_T`-round shuffle constructions the paper uses for
//! local offsets (§5.2.1): Hillis–Steele inclusive scan via `shfl_up`, and
//! a butterfly reduction via `shfl_down`. No shared memory is touched —
//! one of the paper's three closing lessons.

use simt::{lanes_from_fn, Lanes, WarpCtx, WARP_SIZE};

/// Warp-wide inclusive prefix sum: `out[i] = v[0] + ... + v[i]`.
pub fn inclusive_scan_add(w: &WarpCtx, v: Lanes<u32>) -> Lanes<u32> {
    let mut acc = v;
    let mut d = 1;
    while d < WARP_SIZE {
        let up = w.shfl_up(acc, d);
        acc = lanes_from_fn(|lane| {
            if lane >= d {
                acc[lane] + up[lane]
            } else {
                acc[lane]
            }
        });
        w.charge(WARP_SIZE as u64); // the add
        d <<= 1;
    }
    acc
}

/// Warp-wide exclusive prefix sum: `out[i] = v[0] + ... + v[i-1]`, `out[0] = 0`.
pub fn exclusive_scan_add(w: &WarpCtx, v: Lanes<u32>) -> Lanes<u32> {
    let inc = inclusive_scan_add(w, v);
    lanes_from_fn(|lane| inc[lane] - v[lane])
}

/// Inclusive prefix sum over the low `k` lanes only (`ceil(log2 k)`
/// shuffle rounds — what reductions across `N_W <= 32` warp slots need).
/// Lanes `>= k` are ignored and returned as zero.
pub fn inclusive_scan_add_low(w: &WarpCtx, v: Lanes<u32>, k: usize) -> Lanes<u32> {
    debug_assert!((1..=WARP_SIZE).contains(&k));
    let mut acc = lanes_from_fn(|lane| if lane < k { v[lane] } else { 0 });
    let mut d = 1;
    while d < k {
        let up = w.shfl_up(acc, d);
        acc = lanes_from_fn(|lane| {
            if lane >= d && lane < k {
                acc[lane] + up[lane]
            } else {
                acc[lane]
            }
        });
        w.charge(k as u64);
        d <<= 1;
    }
    acc
}

/// Sum the low `k` lanes (`ceil(log2 k)` shuffle rounds); every lane
/// receives the total.
pub fn reduce_add_low(w: &WarpCtx, v: Lanes<u32>, k: usize) -> u32 {
    debug_assert!((1..=WARP_SIZE).contains(&k));
    let mut acc = lanes_from_fn(|lane| if lane < k { v[lane] } else { 0 });
    let mut d = k.next_power_of_two() / 2;
    while d > 0 {
        let down = w.shfl_down(acc, d);
        acc = lanes_from_fn(|lane| {
            if lane + d < WARP_SIZE {
                acc[lane] + down[lane]
            } else {
                acc[lane]
            }
        });
        w.charge(k as u64);
        d >>= 1;
    }
    acc[0]
}

/// Warp-wide sum reduction; every lane receives the total.
pub fn reduce_add(w: &WarpCtx, v: Lanes<u32>) -> u32 {
    let mut acc = v;
    let mut d = WARP_SIZE / 2;
    while d > 0 {
        let down = w.shfl_down(acc, d);
        acc = lanes_from_fn(|lane| {
            if lane + d < WARP_SIZE {
                acc[lane] + down[lane]
            } else {
                acc[lane]
            }
        });
        w.charge(WARP_SIZE as u64);
        d >>= 1;
    }
    acc[0]
}

#[cfg(test)]
mod tests {
    #![allow(clippy::needless_range_loop)] // lane-indexed loops are the warp idiom
    use super::*;
    use simt::{lane_ids, splat, StatCells, WarpCtx};

    fn with_warp<R>(f: impl FnOnce(&WarpCtx) -> R) -> R {
        let st = StatCells::default();
        let w = WarpCtx::new(0, 0, &st);
        f(&w)
    }

    #[test]
    fn inclusive_scan_of_ones_is_lane_plus_one() {
        with_warp(|w| {
            let s = inclusive_scan_add(w, splat(1));
            for lane in 0..WARP_SIZE {
                assert_eq!(s[lane], lane as u32 + 1);
            }
        });
    }

    #[test]
    fn exclusive_scan_of_ones_is_lane_id() {
        with_warp(|w| {
            let s = exclusive_scan_add(w, splat(1));
            assert_eq!(s, lane_ids());
        });
    }

    #[test]
    fn scans_match_reference_on_arbitrary_input() {
        with_warp(|w| {
            let v = lanes_from_fn(|i| (i as u32).wrapping_mul(2654435761) % 97);
            let inc = inclusive_scan_add(w, v);
            let exc = exclusive_scan_add(w, v);
            let mut run = 0u32;
            for lane in 0..WARP_SIZE {
                assert_eq!(exc[lane], run, "exclusive lane {lane}");
                run += v[lane];
                assert_eq!(inc[lane], run, "inclusive lane {lane}");
            }
        });
    }

    #[test]
    fn reduce_add_sums_everything() {
        with_warp(|w| {
            assert_eq!(reduce_add(w, lane_ids()), (0..32).sum::<u32>());
            assert_eq!(reduce_add(w, splat(0)), 0);
        });
    }

    #[test]
    fn low_variants_match_full_width_semantics() {
        with_warp(|w| {
            let v = lanes_from_fn(|i| (i as u32) % 7 + 1);
            for k in [1usize, 2, 3, 7, 8, 16, 32] {
                let expect_total: u32 = v[..k].iter().sum();
                assert_eq!(reduce_add_low(w, v, k), expect_total, "k={k}");
                let inc = inclusive_scan_add_low(w, v, k);
                let mut run = 0;
                for lane in 0..k {
                    run += v[lane];
                    assert_eq!(inc[lane], run, "k={k} lane={lane}");
                }
            }
        });
    }

    #[test]
    fn low_variants_use_fewer_shuffles() {
        let st = StatCells::default();
        let w = WarpCtx::new(0, 0, &st);
        let _ = reduce_add_low(&w, splat(1), 8);
        assert_eq!(st.intrinsics.get(), 3, "8 lanes need log2(8) rounds");
    }

    #[test]
    fn scan_uses_log_rounds_of_shuffles() {
        let st = StatCells::default();
        let w = WarpCtx::new(0, 0, &st);
        let _ = inclusive_scan_add(&w, splat(1));
        assert_eq!(st.intrinsics.get(), 5, "log2(32) shuffle rounds");
    }
}
