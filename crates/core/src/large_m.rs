//! Block-level multisplit for more than 32 buckets (paper §5.3 / §6.4).
//!
//! Lanes become responsible for `⌈m/32⌉` buckets each; histogram state and
//! every histogram-related data movement linearize by the same factor. The
//! per-warp multi-reduce/multi-scan of the `m <= 32` path no longer fits
//! in registers, so — exactly as §6.4 describes — the block stores a
//! **row-vectorized** `m x N_W` histogram in shared memory and runs a
//! single block-wide exclusive scan of size `m·N_W` over it. After that
//! scan, entry `[bucket*N_W + warp]` simultaneously holds both block-local
//! terms of equation (2): elements of earlier buckets in the block plus
//! same-bucket elements of earlier warps.
//!
//! Shared memory bounds the bucket count: `m · N_W` words plus staging
//! must fit in 48 kB, the sparsity bottleneck the paper calls out for
//! large `m` (its Fig. 4 sweep shows these methods losing to reduced-bit
//! sort long before the capacity limit bites).

use simt::{lanes_from_fn, Device, GlobalBuffer, Scalar, WARP_SIZE};

use primitives::{block_exclusive_scan_shared, exclusive_scan_u32, low_lanes_mask, tail_mask};

use crate::bucket::BucketFn;
use crate::common::{
    empty_result, eval_buckets, offsets_from_scanned, staging_words_per_element, DeviceMultisplit,
};
use crate::warp_ops::{warp_histogram_multi, warp_offsets};

/// Largest supported bucket count for a given block size: the `m x N_W`
/// histogram plus per-element staging must fit in shared memory.
///
/// The post-scan kernel allocates, in words: the row-vectorized histogram
/// `m * (wpb | 1)` (odd pitch for bank-conflict-free strided access),
/// staging of [`staging_words_per_element`] words per block element, and
/// the `wpb + 1` warp-sums scratch of the block-wide scan. Everything is
/// derived from those allocations — no magic constants — so the budget is
/// exact: `m == max_buckets` fits, `m == max_buckets + 1` would overflow.
pub fn max_buckets(wpb: usize, key_value: bool) -> u32 {
    let sw = staging_words_per_element(if key_value { 1 } else { 0 });
    let words = simt::SMEM_CAPACITY_BYTES / 4;
    let fixed = wpb * WARP_SIZE * sw + (wpb + 1);
    ((words - fixed) / (wpb | 1)) as u32
}

/// Block-level multisplit for any `32 < m <= max_buckets(wpb, _)`.
pub fn multisplit_large_m<B: BucketFn + ?Sized, V: Scalar>(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    values: Option<&GlobalBuffer<V>>,
    n: usize,
    bucket: &B,
    wpb: usize,
) -> DeviceMultisplit<V> {
    let m = bucket.num_buckets();
    assert!(
        m > 32,
        "use the dedicated m <= 32 paths below the warp width"
    );
    assert!(
        m <= max_buckets(wpb, values.is_some()),
        "m = {m} exceeds shared-memory capacity for {wpb} warps/block (max {})",
        max_buckets(wpb, values.is_some())
    );
    assert!(keys.len() >= n, "key buffer shorter than n");
    if n == 0 {
        return empty_result(m as usize, values.is_some());
    }
    let mu = m as usize;
    let l = n.div_ceil(WARP_SIZE * wpb);

    // ====== Pre-scan: block histograms via per-lane multi-bitmaps.
    let h = GlobalBuffer::<u32>::zeroed(mu * l);
    dev.launch("large/pre-scan", l, wpb, |blk| {
        let nw = blk.warps_per_block;
        // Row-vectorized m x N_W histogram: [bucket * nwp + warp], padded
        // to an odd pitch so strided accesses are bank-conflict free.
        let nwp = nw | 1;
        let hrow = blk.alloc_shared::<u32>(mu * nwp);
        let tile = blk.block_id * nw * WARP_SIZE;
        for w in blk.warps() {
            let base = tile + w.warp_id * WARP_SIZE;
            let mask = tail_mask(base, n);
            let chunks = if mask == 0 {
                vec![[0u32; WARP_SIZE]; mu.div_ceil(32)]
            } else {
                let idx = lanes_from_fn(|j| if base + j < n { base + j } else { base });
                let k = w.gather(keys, idx, mask);
                let b = eval_buckets(&w, bucket, k, mask);
                warp_histogram_multi(&w, b, m, mask)
            };
            for (c, histo) in chunks.iter().enumerate() {
                let cnt = (mu - c * 32).min(32);
                let sm = low_lanes_mask(cnt);
                hrow.st(
                    lanes_from_fn(|lane| ((c * 32 + lane.min(cnt - 1)) * nwp) + w.warp_id),
                    *histo,
                    sm,
                );
            }
        }
        blk.sync();
        // Reduce rows (buckets) across warps and store the block column of H.
        for w in blk.warps() {
            let mut row = w.warp_id * WARP_SIZE;
            while row < mu {
                let cnt = (mu - row).min(WARP_SIZE);
                let sm = low_lanes_mask(cnt);
                let mut acc = [0u32; WARP_SIZE];
                for wid in 0..nw {
                    let v = hrow.ld(
                        lanes_from_fn(|lane| (row + lane.min(cnt - 1)) * nwp + wid),
                        sm,
                    );
                    acc = lanes_from_fn(|lane| acc[lane] + v[lane]);
                }
                w.charge(nw as u64 * cnt as u64);
                w.scatter_merged(
                    &h,
                    lanes_from_fn(|lane| (row + lane.min(cnt - 1)) * l + blk.block_id),
                    acc,
                    sm,
                );
                row += nw * WARP_SIZE;
            }
        }
    });

    // ====== Scan.
    let g = GlobalBuffer::<u32>::zeroed(mu * l);
    exclusive_scan_u32(dev, "large/scan", &h, &g, mu * l, wpb);

    // ====== Post-scan: block-wide scan of the row-vectorized histogram,
    // block reorder, coalesced store.
    let out_keys = GlobalBuffer::<u32>::zeroed(n);
    let out_values = values.map(|_| GlobalBuffer::<V>::zeroed(n));
    dev.launch("large/post-scan", l, wpb, |blk| {
        let nw = blk.warps_per_block;
        let nwp = nw | 1;
        let tile = blk.block_id * nw * WARP_SIZE;
        let hrow = blk.alloc_shared::<u32>(mu * nwp);
        let keys2_s = blk.alloc_shared::<u32>(nw * WARP_SIZE);
        let buckets2_s = blk.alloc_shared::<u32>(nw * WARP_SIZE);
        let values2_s = values.map(|_| blk.alloc_shared::<V>(nw * WARP_SIZE));
        // Per-warp registers persisting across barriers.
        let mut key_reg = vec![[0u32; WARP_SIZE]; nw];
        let mut bucket_reg = vec![[0u32; WARP_SIZE]; nw];
        let mut offs_reg = vec![[0u32; WARP_SIZE]; nw];
        let mut val_reg = values.map(|_| vec![[V::default(); WARP_SIZE]; nw]);

        // Phase 1: histograms + offsets; elements stay in registers.
        for w in blk.warps() {
            let base = tile + w.warp_id * WARP_SIZE;
            let mask = tail_mask(base, n);
            let chunks = if mask == 0 {
                vec![[0u32; WARP_SIZE]; mu.div_ceil(32)]
            } else {
                let idx = lanes_from_fn(|j| if base + j < n { base + j } else { base });
                let k = w.gather(keys, idx, mask);
                let b = eval_buckets(&w, bucket, k, mask);
                let offs = warp_offsets(&w, b, m, mask);
                key_reg[w.warp_id] = k;
                bucket_reg[w.warp_id] = b;
                offs_reg[w.warp_id] = offs;
                if let (Some(vin), Some(vr)) = (values, &mut val_reg) {
                    vr[w.warp_id] = w.gather(vin, idx, mask);
                }
                warp_histogram_multi(&w, b, m, mask)
            };
            for (c, histo) in chunks.iter().enumerate() {
                let cnt = (mu - c * 32).min(32);
                let sm = low_lanes_mask(cnt);
                hrow.st(
                    lanes_from_fn(|lane| ((c * 32 + lane.min(cnt - 1)) * nwp) + w.warp_id),
                    *histo,
                    sm,
                );
            }
        }
        blk.sync();

        // Phase 2: one block-wide exclusive scan of all m*N_W counters
        // (the zero pad cells are scan-neutral).
        block_exclusive_scan_shared(blk, &hrow, mu * nwp);
        blk.sync();

        // Phase 3: block-wide reorder. hrow[b*nw + w] is the block-local
        // base for bucket b elements of warp w.
        for w in blk.warps() {
            let base = tile + w.warp_id * WARP_SIZE;
            let mask = tail_mask(base, n);
            if mask == 0 {
                continue;
            }
            let k = key_reg[w.warp_id];
            let b = bucket_reg[w.warp_id];
            let offs = offs_reg[w.warp_id];
            let bases = hrow.ld(
                lanes_from_fn(|lane| b[lane] as usize * nwp + w.warp_id),
                mask,
            );
            let new_idx = lanes_from_fn(|lane| (bases[lane] + offs[lane]) as usize);
            keys2_s.st(new_idx, k, mask);
            buckets2_s.st(new_idx, b, mask);
            if let (Some(vr), Some(vs2)) = (&val_reg, &values2_s) {
                vs2.st(new_idx, vr[w.warp_id], mask);
            }
        }
        blk.sync();

        // Phase 4: coalesced store. Bucket b's block-local start is
        // hrow[b*nw] (warp-0 term of the scanned layout).
        for w in blk.warps() {
            let base = tile + w.warp_id * WARP_SIZE;
            let mask = tail_mask(base, n);
            if mask == 0 {
                continue;
            }
            let tid = lanes_from_fn(|lane| w.warp_id * WARP_SIZE + lane);
            let k2 = keys2_s.ld(tid, mask);
            let b2 = buckets2_s.ld(tid, mask);
            let bb = hrow.ld(lanes_from_fn(|lane| b2[lane] as usize * nwp), mask);
            let gbase = w.gather_cached(
                &g,
                lanes_from_fn(|lane| b2[lane] as usize * l + blk.block_id),
                mask,
            );
            let dest = lanes_from_fn(|lane| (gbase[lane] + tid[lane] as u32 - bb[lane]) as usize);
            w.scatter(&out_keys, dest, k2, mask);
            if let (Some(vs2), Some(vout)) = (&values2_s, &out_values) {
                let v2 = vs2.ld(tid, mask);
                w.scatter(vout, dest, v2, mask);
            }
        }
    });

    let offsets = offsets_from_scanned(&g, mu, l, n);
    DeviceMultisplit {
        keys: out_keys,
        values: out_values,
        offsets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::{FnBuckets, RangeBuckets};
    use crate::common::no_values;
    use crate::common::test_util::keys_for;
    use crate::cpu_ref::{multisplit_kv_ref, multisplit_ref};
    use simt::{Device, K40C};

    #[test]
    fn matches_reference_for_many_buckets() {
        let dev = Device::new(K40C);
        for m in [33u32, 64, 96, 100, 256, 777, 1024] {
            let n = 20_000;
            let bucket = RangeBuckets::new(m);
            let data = keys_for(n, m);
            let keys = GlobalBuffer::from_slice(&data);
            let r = multisplit_large_m(&dev, &keys, no_values(), n, &bucket, 8);
            let (expect, expect_offs) = multisplit_ref(&data, &bucket);
            assert_eq!(r.keys.to_vec(), expect, "m={m}");
            assert_eq!(r.offsets, expect_offs, "m={m}");
        }
    }

    #[test]
    fn key_value_matches_reference() {
        let dev = Device::new(K40C);
        let n = 9000;
        let m = 128;
        let bucket = RangeBuckets::new(m);
        let data = keys_for(n, 2);
        let vals: Vec<u32> = (0..n as u32).collect();
        let keys = GlobalBuffer::from_slice(&data);
        let values = GlobalBuffer::from_slice(&vals);
        let r = multisplit_large_m(&dev, &keys, Some(&values), n, &bucket, 8);
        let (ek, ev, _) = multisplit_kv_ref(&data, Some(&vals), &bucket);
        assert_eq!(r.keys.to_vec(), ek);
        assert_eq!(r.values.unwrap().to_vec(), ev);
    }

    #[test]
    fn small_tail_blocks_are_handled() {
        let dev = Device::new(K40C);
        let m = 50;
        let bucket = RangeBuckets::new(m);
        for n in [1usize, 33, 257, 300] {
            let data = keys_for(n, 9);
            let keys = GlobalBuffer::from_slice(&data);
            let r = multisplit_large_m(&dev, &keys, no_values(), n, &bucket, 8);
            let (expect, _) = multisplit_ref(&data, &bucket);
            assert_eq!(r.keys.to_vec(), expect, "n={n}");
        }
    }

    #[test]
    fn max_buckets_respects_shared_memory() {
        assert!(max_buckets(8, false) >= 1024);
        assert!(max_buckets(2, false) > max_buckets(8, false));
        // Key-value staging shrinks the budget.
        assert!(max_buckets(8, true) < max_buckets(8, false));
    }

    #[test]
    fn budget_is_exact_at_the_capacity_boundary() {
        // A run at m == max_buckets must actually fit: the old
        // magic-constant formula claimed 1376 buckets at 8 warps key-only,
        // which would have blown `alloc_shared` in the post-scan kernel
        // (1376 * 9 words of histogram alone exceed 48 kB).
        let dev = Device::new(K40C);
        let wpb = 8;
        for kv in [false, true] {
            let m = max_buckets(wpb, kv);
            let bucket = RangeBuckets::new(m);
            let n = 600;
            let data = keys_for(n, 1);
            let keys = GlobalBuffer::from_slice(&data);
            if kv {
                let vals: Vec<u32> = (0..n as u32).collect();
                let values = GlobalBuffer::from_slice(&vals);
                let r = multisplit_large_m(&dev, &keys, Some(&values), n, &bucket, wpb);
                let (ek, ev, _) = multisplit_kv_ref(&data, Some(&vals), &bucket);
                assert_eq!(r.keys.to_vec(), ek, "kv m={m}");
                assert_eq!(r.values.unwrap().to_vec(), ev);
            } else {
                let r = multisplit_large_m(&dev, &keys, no_values(), n, &bucket, wpb);
                let (expect, _) = multisplit_ref(&data, &bucket);
                assert_eq!(r.keys.to_vec(), expect, "m={m}");
            }
            // Word-exact accounting: m fits, m + 1 would not.
            let sw = staging_words_per_element(if kv { 1 } else { 0 });
            let fixed = wpb * 32 * sw + (wpb + 1);
            let words = simt::SMEM_CAPACITY_BYTES / 4;
            let used = m as usize * (wpb | 1) + fixed;
            assert!(used <= words, "kv={kv}: m={m} must fit");
            assert!(
                used + (wpb | 1) > words,
                "kv={kv}: max_buckets must be tight, not merely safe"
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds shared-memory capacity")]
    fn oversized_m_panics() {
        let dev = Device::new(K40C);
        let m = max_buckets(8, false) + 1;
        let bucket = FnBuckets::new(m, move |k| k % m);
        let keys = GlobalBuffer::from_slice(&[1u32, 2, 3]);
        let _ = multisplit_large_m(&dev, &keys, no_values(), 3, &bucket, 8);
    }

    #[test]
    fn skewed_large_m_distribution() {
        // 90% of keys in bucket 40, the rest spread.
        let dev = Device::new(K40C);
        let n = 4000;
        let m = 64;
        let bucket = FnBuckets::new(m, move |k| if k % 10 != 0 { 40 } else { k % m });
        let data = keys_for(n, 4);
        let keys = GlobalBuffer::from_slice(&data);
        let r = multisplit_large_m(&dev, &keys, no_values(), n, &bucket, 8);
        let (expect, _) = multisplit_ref(&data, &bucket);
        assert_eq!(r.keys.to_vec(), expect);
    }
}
