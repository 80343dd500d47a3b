//! Block-wide scans and the per-row ("multi-") operations of paper §5.1.
//!
//! Block-level multisplit keeps a histogram matrix `H2` in shared memory,
//! laid out **column-major**: warp `w`'s histogram occupies
//! `h2[w*m .. w*m+m]`, so a warp-wide access along a column is
//! conflict-free (the layout choice the paper calls out). The "multi"
//! operations reduce or exclusively scan each bucket row *across warps*.
//!
//! All functions here must be called from block scope (outside any
//! `blk.warps()` loop): they internally run warp phases separated by
//! `blk.sync()`.

use simt::{lanes_from_fn, BlockCtx, SharedBuf, FULL_MASK, WARP_SIZE};

use crate::warp_scan;

/// Build a lane mask with the low `k` lanes active.
#[inline]
pub fn low_lanes_mask(k: usize) -> u32 {
    if k >= WARP_SIZE {
        FULL_MASK
    } else {
        (1u32 << k) - 1
    }
}

/// Lane mask for the tail of a buffer: lane `l` active iff `base + l < n`.
#[inline]
pub fn tail_mask(base: usize, n: usize) -> u32 {
    if base >= n {
        0
    } else {
        low_lanes_mask(n - base)
    }
}

/// Sum each bucket row of the column-major `h2` (m x warps, column pitch
/// `pitch >= m`) into `out[row]`. Rows are distributed over the block's
/// warps; each row is gathered across columns (stride `pitch`) and reduced
/// with shuffles. Callers pad the pitch to an odd value (`m | 1`) so the
/// strided gathers are bank-conflict free — the "coalesced shared memory
/// accesses" of paper §5.1.
pub fn multi_reduce_across_warps(
    blk: &BlockCtx,
    h2: &SharedBuf<u32>,
    m: usize,
    pitch: usize,
    out: &SharedBuf<u32>,
) {
    let nw = blk.warps_per_block;
    debug_assert!(pitch >= m && h2.len() >= nw * pitch && out.len() >= m);
    for w in blk.warps() {
        let mut row = w.warp_id;
        while row < m {
            let mask = low_lanes_mask(nw);
            let vals = h2.ld(
                lanes_from_fn(|lane| if lane < nw { lane * pitch + row } else { 0 }),
                mask,
            );
            let total = warp_scan::reduce_add_low(&w, vals, nw);
            out.set(row, total);
            row += nw;
        }
    }
    blk.sync();
}

/// Exclusively scan each bucket row of the column-major `h2` across warps,
/// in place: afterwards `h2[w*pitch + r]` holds the count of bucket `r` in
/// warps `0..w` of this block (term 2 of the paper's equation (2), at
/// block scope). The row totals — the block histogram — fall out of the
/// same shuffles for free and are stored to `totals` (paper §5.1: the warp
/// holding the reduction result reuses it), saving a separate
/// multi-reduction pass.
pub fn multi_exclusive_scan_across_warps(
    blk: &BlockCtx,
    h2: &SharedBuf<u32>,
    m: usize,
    pitch: usize,
    totals: Option<&SharedBuf<u32>>,
) {
    let nw = blk.warps_per_block;
    debug_assert!(pitch >= m && h2.len() >= nw * pitch);
    let mask = low_lanes_mask(nw);
    for w in blk.warps() {
        let mut row = w.warp_id;
        while row < m {
            let idx = lanes_from_fn(|lane| if lane < nw { lane * pitch + row } else { row });
            let vals = h2.ld(idx, mask);
            let inc = warp_scan::inclusive_scan_add_low(&w, vals, nw);
            let exc = lanes_from_fn(|lane| if lane < nw { inc[lane] - vals[lane] } else { 0 });
            h2.st(idx, exc, mask);
            if let Some(t) = totals {
                t.set(row, inc[nw - 1]);
            }
            row += nw;
        }
    }
    blk.sync();
}

/// Block-wide exclusive prefix sum over `data[0..len]` in shared memory,
/// as a raking scan. Returns the total.
///
/// Used by the `m > 32` multisplit paths, which scan a row-vectorized
/// `m × N_W` histogram that no single warp can hold (paper §6.4, using a
/// block-wide scan "as CUB does"). Warp `w` owns a contiguous slice of
/// whole 32-word chunks and:
///
/// 1. scans its slice chunk by chunk in place, carrying a running sum, and
///    posts the slice total;
/// 2. warp 0 scans the slice totals;
/// 3. every warp but warp 0 adds its slice offset.
///
/// That is 3 barriers whatever `len`, the last one making the result
/// visible to every warp on return.
pub fn block_exclusive_scan_shared(blk: &BlockCtx, data: &SharedBuf<u32>, len: usize) -> u32 {
    let nw = blk.warps_per_block;
    let slice_words = len.div_ceil(WARP_SIZE).div_ceil(nw) * WARP_SIZE;
    let chunks = |warp: usize| {
        ((warp * slice_words).min(len)..((warp + 1) * slice_words).min(len)).step_by(WARP_SIZE)
    };
    let chunk_lanes = |base: usize| lanes_from_fn(|l| if base + l < len { base + l } else { base });
    let warp_sums = blk.alloc_shared::<u32>(nw + 1);
    // Phase A: each warp scans its slice with a running carry.
    for w in blk.warps() {
        let mut carry = 0u32;
        for base in chunks(w.warp_id) {
            let mask = tail_mask(base, len);
            let idx = chunk_lanes(base);
            let v = data.ld(idx, mask);
            let inc = warp_scan::inclusive_scan_add(&w, v);
            data.st(idx, lanes_from_fn(|l| carry + inc[l] - v[l]), mask);
            // Inactive lanes loaded zero, so the last lane holds the sum.
            carry += inc[WARP_SIZE - 1];
        }
        warp_sums.set(w.warp_id, carry);
    }
    blk.sync();
    // Phase B: warp 0 scans the slice totals.
    {
        let w = blk.warp(0);
        let mask = low_lanes_mask(nw);
        let idx = lanes_from_fn(|l| if l < nw { l } else { 0 });
        let v = warp_sums.ld(idx, mask);
        let inc = warp_scan::inclusive_scan_add_low(&w, v, nw);
        let exc = lanes_from_fn(|l| if l < nw { inc[l] - v[l] } else { 0 });
        warp_sums.st(idx, exc, mask);
        warp_sums.set(nw, inc[nw - 1]);
    }
    blk.sync();
    // Phase C: every later slice adds its offset.
    for w in blk.warps().filter(|w| w.warp_id != 0) {
        let off = warp_sums.get(w.warp_id);
        for base in chunks(w.warp_id) {
            let mask = tail_mask(base, len);
            let idx = chunk_lanes(base);
            let v = data.ld(idx, mask);
            data.st(idx, lanes_from_fn(|l| v[l] + off), mask);
            w.charge(mask.count_ones() as u64);
        }
    }
    blk.sync();
    warp_sums.get(nw)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::needless_range_loop)] // lane-indexed loops are the warp idiom
    use super::*;
    use simt::{Device, K40C};

    #[test]
    fn masks() {
        assert_eq!(low_lanes_mask(0), 0);
        assert_eq!(low_lanes_mask(8), 0xFF);
        assert_eq!(low_lanes_mask(32), FULL_MASK);
        assert_eq!(low_lanes_mask(40), FULL_MASK);
        assert_eq!(tail_mask(0, 5), 0b11111);
        assert_eq!(tail_mask(32, 33), 1);
        assert_eq!(tail_mask(64, 33), 0);
        assert_eq!(tail_mask(0, 100), FULL_MASK);
    }

    fn run_in_block<R: Send + Sync + Clone>(nw: usize, f: impl Fn(&BlockCtx) -> R + Sync) -> R {
        let dev = Device::sequential(K40C);
        let out = std::sync::Mutex::new(None);
        dev.launch("test", 1, nw, |blk| {
            *out.lock().unwrap() = Some(f(blk));
        });
        let r = out.lock().unwrap().clone();
        r.unwrap()
    }

    #[test]
    fn multi_reduce_sums_each_row() {
        let (m, nw) = (8, 4);
        let sums = run_in_block(nw, |blk| {
            let pitch = m | 1;
            let h2 = blk.alloc_shared::<u32>(nw * pitch);
            for w in 0..nw {
                for r in 0..m {
                    h2.set(w * pitch + r, (w * 100 + r) as u32);
                }
            }
            let out = blk.alloc_shared::<u32>(m);
            multi_reduce_across_warps(blk, &h2, m, pitch, &out);
            out.snapshot()
        });
        for r in 0..m {
            let expect: u32 = (0..nw).map(|w| (w * 100 + r) as u32).sum();
            assert_eq!(sums[r], expect, "row {r}");
        }
    }

    #[test]
    fn multi_scan_is_exclusive_per_row() {
        let (m, nw) = (5, 8);
        let scanned = run_in_block(nw, |blk| {
            let pitch = m | 1;
            let h2 = blk.alloc_shared::<u32>(nw * pitch);
            for w in 0..nw {
                for r in 0..m {
                    h2.set(w * pitch + r, (r + 1) as u32); // each row constant r+1
                }
            }
            multi_exclusive_scan_across_warps(blk, &h2, m, pitch, None);
            h2.snapshot()
        });
        let pitch = m | 1;
        for w in 0..nw {
            for r in 0..m {
                assert_eq!(
                    scanned[w * pitch + r],
                    (w * (r + 1)) as u32,
                    "warp {w} row {r}"
                );
            }
        }
    }

    #[test]
    fn block_scan_matches_reference_across_lengths() {
        for nw in [1, 3, 8] {
            for len in [1, 33, 255, 2304, 8448, 8449] {
                let vals: Vec<u32> = (0..len).map(|i| (i as u32).wrapping_mul(37) % 11).collect();
                let vals2 = vals.clone();
                let (scanned, total, barriers) = run_in_block(nw, move |blk| {
                    let data = blk.alloc_shared::<u32>(len);
                    for (i, v) in vals2.iter().enumerate() {
                        data.set(i, *v);
                    }
                    let before = blk.stats().barriers.get();
                    let total = block_exclusive_scan_shared(blk, &data, len);
                    (data.snapshot(), total, blk.stats().barriers.get() - before)
                });
                assert_eq!(barriers, 3, "nw={nw} len={len}: three barriers per call");
                let mut run = 0u32;
                for i in 0..len {
                    assert_eq!(scanned[i], run, "nw={nw} len={len} idx={i}");
                    run += vals[i];
                }
                assert_eq!(total, run, "nw={nw} len={len} total");
            }
        }
    }
}
