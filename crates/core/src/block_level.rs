//! Block-level Multisplit (paper §5.2.2).
//!
//! Subproblems grow to whole thread blocks (`L = ⌈n/(32·N_W)⌉`), shrinking
//! the global scan by another factor of `N_W` and extracting much more
//! scatter locality: a 256-element block has long same-bucket runs even at
//! `m = 32`. The price is hierarchical local work — per-warp ballot
//! histograms combined across warps with the shared-memory
//! `multi-reduction` (pre-scan) and `multi-scan` (post-scan) of §5.1, an
//! extra bucket-wise scan for the block layout, and a block-wide shared
//! reorder before the final coalesced store.

use simt::{lanes_from_fn, Device, GlobalBuffer, Scalar, WARP_SIZE};

use primitives::{
    exclusive_scan_u32, low_lanes_mask, multi_exclusive_scan_across_warps,
    multi_reduce_across_warps, tail_mask, warp_scan,
};

use crate::bucket::BucketFn;
use crate::common::{empty_result, eval_buckets, offsets_from_scanned, DeviceMultisplit};
use crate::warp_ops::{warp_histogram, warp_histogram_and_offsets};

/// Block-level pre-scan: per-warp histograms, multi-reduced across warps
/// into one block histogram column of `H` (m x L, L = number of blocks).
#[allow(clippy::too_many_arguments)]
fn block_prescan<B: BucketFn + ?Sized>(
    dev: &Device,
    label: &str,
    keys: &GlobalBuffer<u32>,
    n: usize,
    bucket: &B,
    wpb: usize,
    h: &GlobalBuffer<u32>,
    l: usize,
) {
    let m = bucket.num_buckets();
    dev.launch(label, l, wpb, |blk| {
        let nw = blk.warps_per_block;
        let pitch = m as usize | 1; // odd pitch: conflict-free strided rows
        let h2 = blk.alloc_shared::<u32>(nw * pitch);
        let block_hist = blk.alloc_shared::<u32>(m as usize);
        let tile = blk.block_id * nw * WARP_SIZE;
        for w in blk.warps() {
            let base = tile + w.warp_id * WARP_SIZE;
            let mask = tail_mask(base, n);
            let histo = if mask == 0 {
                [0u32; WARP_SIZE]
            } else {
                let idx = lanes_from_fn(|j| if base + j < n { base + j } else { base });
                let k = w.gather(keys, idx, mask);
                let b = eval_buckets(&w, bucket, k, mask);
                warp_histogram(&w, b, m, mask)
            };
            // Column-major store: warp w's histogram is contiguous.
            let col = w.warp_id * pitch;
            h2.st(
                lanes_from_fn(|lane| col + lane.min(m as usize - 1)),
                histo,
                low_lanes_mask(m as usize),
            );
        }
        blk.sync();
        multi_reduce_across_warps(blk, &h2, m as usize, pitch, &block_hist);
        // One warp stores the block's histogram column of H.
        {
            let w = blk.warp(0);
            let mask = low_lanes_mask(m as usize);
            let v = block_hist.ld(lanes_from_fn(|lane| lane.min(m as usize - 1)), mask);
            w.scatter_merged(h, lanes_from_fn(|lane| lane * l + blk.block_id), v, mask);
        }
    });
}

/// Block-level multisplit over `m <= 32` buckets.
pub fn multisplit_block_level<B: BucketFn + ?Sized, V: Scalar>(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    values: Option<&GlobalBuffer<V>>,
    n: usize,
    bucket: &B,
    wpb: usize,
) -> DeviceMultisplit<V> {
    let m = bucket.num_buckets();
    assert!(
        m <= 32,
        "block-level multisplit requires m <= 32 (use the large-m path)"
    );
    assert!(keys.len() >= n, "key buffer shorter than n");
    if n == 0 {
        return empty_result(m as usize, values.is_some());
    }
    let l = n.div_ceil(WARP_SIZE * wpb); // one subproblem per block

    // ====== Pre-scan.
    let h = GlobalBuffer::<u32>::zeroed(m as usize * l);
    block_prescan(dev, "block/pre-scan", keys, n, bucket, wpb, &h, l);

    // ====== Scan (mL is N_W times smaller than the warp-level variants').
    let g = GlobalBuffer::<u32>::zeroed(m as usize * l);
    exclusive_scan_u32(dev, "block/scan", &h, &g, m as usize * l, wpb);

    // ====== Post-scan with block-level reordering.
    let out_keys = GlobalBuffer::<u32>::zeroed(n);
    let out_values = values.map(|_| GlobalBuffer::<V>::zeroed(n));
    dev.launch("block/post-scan", l, wpb, |blk| {
        let nw = blk.warps_per_block;
        let mu = m as usize;
        let pitch = mu | 1;
        let tile = blk.block_id * nw * WARP_SIZE;
        let h2 = blk.alloc_shared::<u32>(nw * pitch);
        let block_hist = blk.alloc_shared::<u32>(mu);
        let bucket_base = blk.alloc_shared::<u32>(mu);
        let keys2_s = blk.alloc_shared::<u32>(nw * WARP_SIZE);
        let buckets2_s = blk.alloc_shared::<u32>(nw * WARP_SIZE);
        let values2_s = values.map(|_| blk.alloc_shared::<V>(nw * WARP_SIZE));
        // Per-warp registers persisting across the barrier, as in a real
        // kernel (no shared staging needed for thread-private data).
        let mut key_reg = vec![[0u32; WARP_SIZE]; nw];
        let mut bucket_reg = vec![[0u32; WARP_SIZE]; nw];
        let mut offs_reg = vec![[0u32; WARP_SIZE]; nw];
        let mut val_reg = values.map(|_| vec![[V::default(); WARP_SIZE]; nw]);

        // Phase 1: warp histograms + offsets; elements stay in registers.
        for w in blk.warps() {
            let base = tile + w.warp_id * WARP_SIZE;
            let mask = tail_mask(base, n);
            let col = w.warp_id * pitch;
            if mask == 0 {
                h2.st(
                    lanes_from_fn(|lane| col + lane.min(mu - 1)),
                    [0; WARP_SIZE],
                    low_lanes_mask(mu),
                );
                continue;
            }
            let idx = lanes_from_fn(|j| if base + j < n { base + j } else { base });
            let k = w.gather(keys, idx, mask);
            let b = eval_buckets(&w, bucket, k, mask);
            let (histo, offs) = warp_histogram_and_offsets(&w, b, m, mask);
            h2.st(
                lanes_from_fn(|lane| col + lane.min(mu - 1)),
                histo,
                low_lanes_mask(mu),
            );
            key_reg[w.warp_id] = k;
            bucket_reg[w.warp_id] = b;
            offs_reg[w.warp_id] = offs;
            if let (Some(vin), Some(vr)) = (values, &mut val_reg) {
                vr[w.warp_id] = w.gather(vin, idx, mask);
            }
        }
        blk.sync();

        // Phase 2: per-row exclusive multi-scan across warps (term 2 of
        // equation (2) at block scope) — the block histogram falls out of
        // the same shuffles — then a bucket-wise exclusive scan for the
        // block-local layout.
        multi_exclusive_scan_across_warps(blk, &h2, mu, pitch, Some(&block_hist));
        {
            let w = blk.warp(0);
            let mask = low_lanes_mask(mu);
            let v = block_hist.ld(lanes_from_fn(|lane| lane.min(mu - 1)), mask);
            let padded = lanes_from_fn(|lane| if lane < mu { v[lane] } else { 0 });
            let exc = warp_scan::exclusive_scan_add(&w, padded);
            bucket_base.st(lanes_from_fn(|lane| lane.min(mu - 1)), exc, mask);
        }
        blk.sync();

        // Phase 3: block-wide reorder in shared memory.
        for w in blk.warps() {
            let base = tile + w.warp_id * WARP_SIZE;
            let mask = tail_mask(base, n);
            if mask == 0 {
                continue;
            }
            let k = key_reg[w.warp_id];
            let b = bucket_reg[w.warp_id];
            let offs = offs_reg[w.warp_id];
            let col = w.warp_id * pitch;
            let prev_warps = h2.ld(lanes_from_fn(|lane| col + b[lane] as usize), mask);
            let bb = bucket_base.ld(lanes_from_fn(|lane| b[lane] as usize), mask);
            let new_idx = lanes_from_fn(|lane| (bb[lane] + prev_warps[lane] + offs[lane]) as usize);
            keys2_s.st(new_idx, k, mask);
            buckets2_s.st(new_idx, b, mask);
            if let (Some(vr), Some(vs2)) = (&val_reg, &values2_s) {
                vs2.st(new_idx, vr[w.warp_id], mask);
            }
        }
        blk.sync();

        // Phase 4: coalesced store; rank within bucket = tid - bucket_base.
        for w in blk.warps() {
            let base = tile + w.warp_id * WARP_SIZE;
            let mask = tail_mask(base, n);
            if mask == 0 {
                continue;
            }
            let tid = lanes_from_fn(|lane| w.warp_id * WARP_SIZE + lane);
            let k2 = keys2_s.ld(tid, mask);
            let b2 = buckets2_s.ld(tid, mask);
            let bb = bucket_base.ld(lanes_from_fn(|lane| b2[lane] as usize), mask);
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

    let offsets = offsets_from_scanned(&g, m as usize, l, n);
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
    use crate::common::test_util::{keys_for, stats_of};
    use crate::cpu_ref::{multisplit_kv_ref, multisplit_ref};
    use crate::warp_level::multisplit_warp_level;
    use simt::{Device, K40C};

    #[test]
    fn matches_reference_across_m_and_n() {
        let dev = Device::new(K40C);
        for m in [1u32, 2, 4, 9, 17, 32] {
            for n in [1usize, 32, 255, 256, 257, 2048, 10_000] {
                let bucket = RangeBuckets::new(m);
                let data = keys_for(n, m);
                let keys = GlobalBuffer::from_slice(&data);
                let r = multisplit_block_level(&dev, &keys, no_values(), n, &bucket, 8);
                let (expect, expect_offs) = multisplit_ref(&data, &bucket);
                assert_eq!(r.keys.to_vec(), expect, "m={m} n={n}");
                assert_eq!(r.offsets, expect_offs, "m={m} n={n}");
            }
        }
    }

    #[test]
    fn key_value_matches_reference() {
        let dev = Device::new(K40C);
        let n = 10_000;
        let bucket = RangeBuckets::new(13);
        let data = keys_for(n, 7);
        let vals: Vec<u32> = (0..n as u32).map(|i| !i).collect();
        let keys = GlobalBuffer::from_slice(&data);
        let values = GlobalBuffer::from_slice(&vals);
        let r = multisplit_block_level(&dev, &keys, Some(&values), n, &bucket, 8);
        let (ek, ev, eo) = multisplit_kv_ref(&data, Some(&vals), &bucket);
        assert_eq!(r.keys.to_vec(), ek);
        assert_eq!(r.values.unwrap().to_vec(), ev);
        assert_eq!(r.offsets, eo);
    }

    #[test]
    fn agrees_with_warp_level() {
        let dev = Device::new(K40C);
        let n = 8192;
        let bucket = RangeBuckets::new(20);
        let data = keys_for(n, 77);
        let keys = GlobalBuffer::from_slice(&data);
        let a = multisplit_warp_level(&dev, &keys, no_values(), n, &bucket, 8);
        let b = multisplit_block_level(&dev, &keys, no_values(), n, &bucket, 8);
        assert_eq!(a.keys.to_vec(), b.keys.to_vec());
        assert_eq!(a.offsets, b.offsets);
    }

    #[test]
    fn block_reorder_beats_warp_reorder_at_many_buckets() {
        // Paper Fig. 2 / §5.2.2: with 32 buckets a warp sees ~1 element per
        // bucket (no runs), while a 256-element block still forms runs.
        let n = 1 << 16;
        let bucket = RangeBuckets::new(32);
        let data = keys_for(n, 5);
        let keys = GlobalBuffer::from_slice(&data);
        let dev_w = Device::new(K40C);
        multisplit_warp_level(&dev_w, &keys, no_values(), n, &bucket, 8);
        let dev_b = Device::new(K40C);
        multisplit_block_level(&dev_b, &keys, no_values(), n, &bucket, 8);
        let ws = stats_of(&dev_w, "warp/post-scan").sectors;
        let bs = stats_of(&dev_b, "block/post-scan").sectors;
        assert!(
            bs < ws,
            "block post-scan sectors {bs} should beat warp {ws} at m=32"
        );
    }

    #[test]
    fn scan_stage_is_much_smaller_than_warp_level() {
        let n = 1 << 16;
        let bucket = RangeBuckets::new(16);
        let data = keys_for(n, 6);
        let keys = GlobalBuffer::from_slice(&data);
        let dev_w = Device::new(K40C);
        multisplit_warp_level(&dev_w, &keys, no_values(), n, &bucket, 8);
        let dev_b = Device::new(K40C);
        multisplit_block_level(&dev_b, &keys, no_values(), n, &bucket, 8);
        // Compare the scan stage's data volume: the block-level histogram
        // matrix is N_W times smaller, so the global stage moves ~8x fewer
        // bytes (launch overheads dominate wall-clock at this small n).
        let bytes = |dev: &Device, prefix: &str| {
            dev.records()
                .iter()
                .filter(|r| r.label.starts_with(prefix))
                .map(|r| r.stats.useful_bytes)
                .sum::<u64>()
        };
        let w_scan = bytes(&dev_w, "warp/scan");
        let b_scan = bytes(&dev_b, "block/scan");
        assert!(
            b_scan * 4 < w_scan,
            "block scan bytes {b_scan} vs warp scan bytes {w_scan}"
        );
    }

    #[test]
    fn single_bucket_identity() {
        let dev = Device::new(K40C);
        let n = 500;
        let bucket = FnBuckets::new(1, |_| 0);
        let data = keys_for(n, 1);
        let keys = GlobalBuffer::from_slice(&data);
        let r = multisplit_block_level(&dev, &keys, no_values(), n, &bucket, 8);
        assert_eq!(r.keys.to_vec(), data);
    }

    #[test]
    fn works_with_various_warps_per_block() {
        let dev = Device::new(K40C);
        let n = 5000;
        let bucket = RangeBuckets::new(8);
        let data = keys_for(n, 3);
        let keys = GlobalBuffer::from_slice(&data);
        let (expect, _) = multisplit_ref(&data, &bucket);
        for wpb in [1, 2, 4, 8, 16] {
            let r = multisplit_block_level(&dev, &keys, no_values(), n, &bucket, wpb);
            assert_eq!(r.keys.to_vec(), expect, "wpb={wpb}");
        }
    }
}
