//! The paper's Algorithms 2 and 3: ballot-based warp histograms and local
//! offsets.
//!
//! Instead of materializing the binary bucket-membership matrix `H̄`, each
//! lane keeps one row as a 32-bit bitmap in a register and refines it with
//! `⌈log2 m⌉` rounds of warp-wide ballots over the bucket-id bits:
//!
//! * **histogram** (Alg. 2): lane `i` tracks the row of its *assigned*
//!   bucket `i`; after the rounds, `popc(bitmap)` is the count of warp
//!   elements in bucket `i`.
//! * **local offset** (Alg. 3): lane `i` tracks the row of its *own
//!   element's* bucket; `popc(bitmap & lanemask_lt)` counts the preceding
//!   warp elements sharing its bucket — the stability-preserving rank.
//!
//! No shared memory is used, no branches diverge — the paper's
//! warp-synchronous programming lesson.

use simt::{lane_mask_lt, lanes_from_fn, popc, Lanes, WarpCtx, WARP_SIZE};

/// Rounds of ballots needed for `m` buckets.
#[inline]
pub fn ballot_rounds(m: u32) -> u32 {
    debug_assert!(m >= 1);
    32 - (m - 1).leading_zeros().min(32)
}

/// Paper Algorithm 2: warp-level histogram for `m <= 32` buckets.
///
/// Lane `i` of the result holds the number of *active* elements whose
/// bucket id is `i` (lanes `i >= m` hold 0). `mask` selects the valid
/// lanes (tail warps); masked-out lanes are not counted in any bucket.
///
/// ```
/// use simt::{lanes_from_fn, StatCells, WarpCtx, FULL_MASK};
/// use multisplit::warp_ops::warp_histogram;
/// let stats = StatCells::default();
/// let w = WarpCtx::new(0, 0, &stats);
/// // Alternating bucket ids 0,1,0,1,...
/// let buckets = lanes_from_fn(|lane| (lane % 2) as u32);
/// let histo = warp_histogram(&w, buckets, 2, FULL_MASK);
/// assert_eq!(histo[0], 16);
/// assert_eq!(histo[1], 16);
/// assert_eq!(stats.intrinsics.get(), 1, "m=2 needs a single ballot");
/// ```
pub fn warp_histogram(w: &WarpCtx, bucket_id: Lanes<u32>, m: u32, mask: u32) -> Lanes<u32> {
    debug_assert!(m <= 32);
    // Initializing to `mask` (not all-ones) excludes invalid lanes, which
    // would otherwise be counted in bucket 0.
    let mut histo_bmp = [mask; WARP_SIZE];
    let mut b = bucket_id;
    for k in 0..ballot_rounds(m) {
        let ballot = w.ballot(lanes_from_fn(|l| b[l] & 1 == 1), mask);
        for (lane, bmp) in histo_bmp.iter_mut().enumerate() {
            if (lane as u32 >> k) & 1 == 1 {
                *bmp &= ballot;
            } else {
                *bmp &= !ballot;
            }
        }
        b = lanes_from_fn(|l| b[l] >> 1);
        w.charge(2 * WARP_SIZE as u64); // bitmap update + shift
    }
    // With fewer ballot rounds than 5, lanes whose assigned bucket id >= m
    // alias a lower bucket's bitmap; mask them to zero so callers can scan
    // the full register safely.
    lanes_from_fn(|lane| {
        if (lane as u32) < m {
            popc(histo_bmp[lane])
        } else {
            0
        }
    })
}

/// Paper Algorithm 3: warp-level local offsets for any `m`.
///
/// Lane `i` of the result holds the number of preceding active lanes whose
/// element shares lane `i`'s bucket — 0 for the first element of each
/// bucket within the warp, preserving input order (stability).
pub fn warp_offsets(w: &WarpCtx, bucket_id: Lanes<u32>, m: u32, mask: u32) -> Lanes<u32> {
    warp_offsets_and_peer_counts(w, bucket_id, m, mask).0
}

/// [`warp_offsets`] plus each active lane's peer count. After the ballot
/// rounds a lane's bitmap is its peer set: the active lanes whose element
/// shares its bucket, itself included. Its popcount below the lane is the
/// offset, its full popcount the bucket's count in the warp; a lane whose
/// offset is its peer count minus one is its bucket's last peer.
pub(crate) fn warp_offsets_and_peer_counts(
    w: &WarpCtx,
    bucket_id: Lanes<u32>,
    m: u32,
    mask: u32,
) -> (Lanes<u32>, Lanes<u32>) {
    let mut peer_bmp = [mask; WARP_SIZE];
    let mut b = bucket_id;
    for _ in 0..ballot_rounds(m) {
        let ballot = w.ballot(lanes_from_fn(|l| b[l] & 1 == 1), mask);
        for (lane, bmp) in peer_bmp.iter_mut().enumerate() {
            if b[lane] & 1 == 1 {
                *bmp &= ballot;
            } else {
                *bmp &= !ballot;
            }
        }
        b = lanes_from_fn(|l| b[l] >> 1);
        w.charge(2 * WARP_SIZE as u64);
    }
    (
        lanes_from_fn(|lane| popc(peer_bmp[lane] & lane_mask_lt(lane))),
        lanes_from_fn(|lane| popc(peer_bmp[lane])),
    )
}

/// Fused Algorithms 2 + 3 for `m <= 32`: one ballot per round feeds both
/// bitmaps (the merge the paper suggests for the post-scan stage, which
/// needs histogram *and* offsets).
pub fn warp_histogram_and_offsets(
    w: &WarpCtx,
    bucket_id: Lanes<u32>,
    m: u32,
    mask: u32,
) -> (Lanes<u32>, Lanes<u32>) {
    debug_assert!(m <= 32);
    let mut histo_bmp = [mask; WARP_SIZE];
    let mut offset_bmp = [mask; WARP_SIZE];
    let mut b = bucket_id;
    for k in 0..ballot_rounds(m) {
        let ballot = w.ballot(lanes_from_fn(|l| b[l] & 1 == 1), mask);
        for lane in 0..WARP_SIZE {
            if (lane as u32 >> k) & 1 == 1 {
                histo_bmp[lane] &= ballot;
            } else {
                histo_bmp[lane] &= !ballot;
            }
            if b[lane] & 1 == 1 {
                offset_bmp[lane] &= ballot;
            } else {
                offset_bmp[lane] &= !ballot;
            }
        }
        b = lanes_from_fn(|l| b[l] >> 1);
        w.charge(4 * WARP_SIZE as u64);
    }
    (
        lanes_from_fn(|lane| {
            if (lane as u32) < m {
                popc(histo_bmp[lane])
            } else {
                0
            }
        }),
        lanes_from_fn(|lane| popc(offset_bmp[lane] & lane_mask_lt(lane))),
    )
}

/// Algorithm 2 generalized to `m > 32` (paper §5.3): lane `i` is
/// responsible for buckets `i, i+32, i+64, ...`. Chunk `c` of the result
/// holds the histogram of buckets `c*32 .. c*32+32` across lanes. Ballots
/// are shared across chunks (one per round), only the register bitmaps are
/// replicated — the `⌈m/32⌉` linearization the paper describes.
pub fn warp_histogram_multi(
    w: &WarpCtx,
    bucket_id: Lanes<u32>,
    m: u32,
    mask: u32,
) -> Vec<Lanes<u32>> {
    let chunks = m.div_ceil(32) as usize;
    let mut bmps = vec![[mask; WARP_SIZE]; chunks];
    let mut b = bucket_id;
    for k in 0..ballot_rounds(m) {
        let ballot = w.ballot(lanes_from_fn(|l| b[l] & 1 == 1), mask);
        for (c, bmp) in bmps.iter_mut().enumerate() {
            for (lane, v) in bmp.iter_mut().enumerate() {
                let assigned = (c * WARP_SIZE + lane) as u32;
                if (assigned >> k) & 1 == 1 {
                    *v &= ballot;
                } else {
                    *v &= !ballot;
                }
            }
            w.charge(2 * WARP_SIZE as u64);
        }
        b = lanes_from_fn(|l| b[l] >> 1);
    }
    bmps.into_iter()
        .enumerate()
        .map(|(c, bmp)| {
            lanes_from_fn(|lane| {
                if ((c * WARP_SIZE + lane) as u32) < m {
                    popc(bmp[lane])
                } else {
                    0
                }
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::needless_range_loop)] // lane-indexed loops are the warp idiom
    use super::*;
    use simt::{splat, StatCells, FULL_MASK};

    fn with_warp<R>(f: impl FnOnce(&WarpCtx) -> R) -> (R, simt::BlockStats) {
        let st = StatCells::default();
        let w = WarpCtx::new(0, 0, &st);
        let r = f(&w);
        (r, st.snapshot())
    }

    fn ref_histogram(buckets: &[u32], m: u32, mask: u32) -> Vec<u32> {
        let mut h = vec![0u32; 32];
        for (lane, &b) in buckets.iter().enumerate() {
            if mask >> lane & 1 == 1 {
                assert!(b < m);
                h[b as usize] += 1;
            }
        }
        h
    }

    fn ref_offsets(buckets: &[u32], mask: u32) -> Vec<u32> {
        let mut o = vec![0u32; 32];
        for lane in 0..32 {
            if mask >> lane & 1 == 1 {
                o[lane] = (0..lane)
                    .filter(|&p| mask >> p & 1 == 1 && buckets[p] == buckets[lane])
                    .count() as u32;
            }
        }
        o
    }

    fn pseudo_buckets(seed: u32, m: u32) -> Lanes<u32> {
        lanes_from_fn(|l| (l as u32).wrapping_mul(2654435761).wrapping_add(seed * 97) % m)
    }

    #[test]
    fn rounds() {
        assert_eq!(ballot_rounds(1), 0);
        assert_eq!(ballot_rounds(2), 1);
        assert_eq!(ballot_rounds(3), 2);
        assert_eq!(ballot_rounds(4), 2);
        assert_eq!(ballot_rounds(5), 3);
        assert_eq!(ballot_rounds(32), 5);
        assert_eq!(ballot_rounds(33), 6);
        assert_eq!(ballot_rounds(65536), 16);
    }

    #[test]
    fn histogram_matches_reference_for_all_m() {
        for m in 1..=32u32 {
            for seed in 0..8 {
                let b = pseudo_buckets(seed, m);
                let (h, _) = with_warp(|w| warp_histogram(w, b, m, FULL_MASK));
                assert_eq!(
                    &h[..],
                    &ref_histogram(&b, m, FULL_MASK)[..],
                    "m={m} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn histogram_respects_partial_masks() {
        for m in [1u32, 2, 3, 7, 16, 32] {
            for mask in [0u32, 1, 0xFF, 0xFFFF, 0x0F0F_0F0F, FULL_MASK >> 1] {
                let b = pseudo_buckets(3, m);
                let (h, _) = with_warp(|w| warp_histogram(w, b, m, mask));
                assert_eq!(
                    &h[..],
                    &ref_histogram(&b, m, mask)[..],
                    "m={m} mask={mask:08x}"
                );
            }
        }
    }

    #[test]
    fn histogram_uses_log_m_ballots() {
        let b = pseudo_buckets(0, 8);
        let (_, stats) = with_warp(|w| warp_histogram(w, b, 8, FULL_MASK));
        assert_eq!(stats.intrinsics, 3, "m=8 needs exactly 3 ballots");
    }

    #[test]
    fn offsets_match_reference_for_all_m() {
        for m in 1..=32u32 {
            for seed in 0..8 {
                let b = pseudo_buckets(seed, m);
                let (o, _) = with_warp(|w| warp_offsets(w, b, m, FULL_MASK));
                assert_eq!(&o[..], &ref_offsets(&b, FULL_MASK)[..], "m={m} seed={seed}");
            }
        }
    }

    #[test]
    fn offsets_first_of_each_bucket_is_zero() {
        let b = pseudo_buckets(5, 4);
        let (o, _) = with_warp(|w| warp_offsets(w, b, 4, FULL_MASK));
        let mut seen = [false; 4];
        for lane in 0..32 {
            if !seen[b[lane] as usize] {
                assert_eq!(o[lane], 0, "first of bucket {} at lane {lane}", b[lane]);
                seen[b[lane] as usize] = true;
            }
        }
    }

    #[test]
    fn offsets_with_partial_mask() {
        let b = pseudo_buckets(1, 8);
        for mask in [0x0000_FFFFu32, 0xAAAA_AAAA, 0x8000_0001] {
            let (o, _) = with_warp(|w| warp_offsets(w, b, 8, mask));
            let expect = ref_offsets(&b, mask);
            for lane in 0..32 {
                if mask >> lane & 1 == 1 {
                    assert_eq!(o[lane], expect[lane], "lane={lane} mask={mask:08x}");
                }
            }
        }
    }

    #[test]
    fn fused_equals_separate() {
        for m in [2u32, 3, 8, 17, 32] {
            let b = pseudo_buckets(9, m);
            let ((h2, o2), _) = with_warp(|w| warp_histogram_and_offsets(w, b, m, FULL_MASK));
            let (h1, _) = with_warp(|w| warp_histogram(w, b, m, FULL_MASK));
            let (o1, _) = with_warp(|w| warp_offsets(w, b, m, FULL_MASK));
            assert_eq!(h1, h2, "m={m}");
            assert_eq!(o1, o2, "m={m}");
        }
    }

    #[test]
    fn fused_halves_the_ballots() {
        let b = pseudo_buckets(0, 16);
        let (_, fused) = with_warp(|w| {
            warp_histogram_and_offsets(w, b, 16, FULL_MASK);
        });
        let (_, separate) = with_warp(|w| {
            warp_histogram(w, b, 16, FULL_MASK);
            warp_offsets(w, b, 16, FULL_MASK);
        });
        assert_eq!(fused.intrinsics * 2, separate.intrinsics);
    }

    #[test]
    fn multi_histogram_matches_reference_beyond_32() {
        for m in [33u32, 64, 100, 256] {
            let b = pseudo_buckets(2, m);
            let (chunks, _) = with_warp(|w| warp_histogram_multi(w, b, m, FULL_MASK));
            assert_eq!(chunks.len(), m.div_ceil(32) as usize);
            let mut ref_h = vec![0u32; m.div_ceil(32) as usize * 32];
            for &bk in b.iter() {
                ref_h[bk as usize] += 1;
            }
            for (c, chunk) in chunks.iter().enumerate() {
                for lane in 0..32 {
                    assert_eq!(
                        chunk[lane],
                        ref_h[c * 32 + lane],
                        "m={m} bucket {}",
                        c * 32 + lane
                    );
                }
            }
        }
    }

    #[test]
    fn multi_histogram_agrees_with_small_m_version() {
        for m in [2u32, 8, 32] {
            let b = pseudo_buckets(7, m);
            let (small, _) = with_warp(|w| warp_histogram(w, b, m, FULL_MASK));
            let (multi, _) = with_warp(|w| warp_histogram_multi(w, b, m, FULL_MASK));
            assert_eq!(multi.len(), 1);
            assert_eq!(multi[0], small, "m={m}");
        }
    }

    #[test]
    fn offsets_work_for_large_m() {
        let m = 1000u32;
        let b = lanes_from_fn(|l| (l as u32 * 131) % m);
        let (o, _) = with_warp(|w| warp_offsets(w, b, m, FULL_MASK));
        assert_eq!(&o[..], &ref_offsets(&b, FULL_MASK)[..]);
    }

    #[test]
    fn peer_counts_match_a_host_histogram() {
        for m in [1u32, 2, 33, 64, 256, 1000] {
            for mask in [FULL_MASK, 0x0000_FFFF, 0xAAAA_AAAA, 0x8000_0001, 1] {
                let b = pseudo_buckets(4, m);
                let ((o, peers), stats) =
                    with_warp(|w| warp_offsets_and_peer_counts(w, b, m, mask));
                let (o1, alone) = with_warp(|w| warp_offsets(w, b, m, mask));
                assert_eq!(stats, alone, "m={m}: the ballots of Algorithm 3 alone");
                let mut h = vec![0u32; m as usize];
                for lane in 0..32 {
                    if mask >> lane & 1 == 1 {
                        h[b[lane] as usize] += 1;
                    }
                }
                for lane in 0..32 {
                    if mask >> lane & 1 == 1 {
                        let case = format!("m={m} mask={mask:08x} lane={lane}");
                        assert_eq!(peers[lane], h[b[lane] as usize], "{case}");
                        assert_eq!(o[lane], o1[lane], "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn single_bucket_is_lane_rank() {
        let (o, stats) = with_warp(|w| warp_offsets(w, splat(0), 1, FULL_MASK));
        for lane in 0..32 {
            assert_eq!(o[lane], lane as u32);
        }
        assert_eq!(stats.intrinsics, 0, "m=1 needs zero ballots");
        let (h, _) = with_warp(|w| warp_histogram(w, splat(0), 1, FULL_MASK));
        assert_eq!(h[0], 32);
    }
}
