//! Shared-memory-atomic multisplit — Patidar's approach (paper §2).
//!
//! Where the paper's methods rank elements with ballot bitmaps, Patidar's
//! scalable data-mapping primitives use **shared-memory atomics** for both
//! the block histogram and the intra-bucket orders: each thread bumps its
//! bucket's counter, and the returned previous value *is* its rank. The
//! approach shines when `m` is large (few same-bucket conflicts per warp)
//! and suffers warp serialization when `m` is small — the opposite regime
//! from the ballot methods, which is exactly the comparison the `paper
//! ablate`/criterion benches draw.
//!
//! Structurally this is the same `{pre-scan, scan, post-scan}` pipeline as
//! the block-level method (and our radix passes, which specialize it to
//! digit buckets), so it doubles as an ablation of the *ranking mechanism*
//! alone.

use simt::{lanes_from_fn, splat, Device, GlobalBuffer, Scalar, SharedBuf, WarpCtx, WARP_SIZE};

use multisplit::common::{empty_result, eval_buckets, offsets_from_scanned, DeviceMultisplit};
use multisplit::BucketFn;
use primitives::{
    block_exclusive_scan_shared, exclusive_scan_u32, low_lanes_mask,
    multi_exclusive_scan_across_warps, tail_mask,
};

/// Largest bucket count the shared counters support for `wpb` warps.
pub fn max_buckets_atomic(wpb: usize) -> u32 {
    ((simt::SMEM_CAPACITY_BYTES / 4 - 3 * wpb * WARP_SIZE) / (wpb + 2)) as u32
}

/// Warp `w`, before its first atomic: zero its own row of `m` counters at
/// pitch `mp`. Shared memory is not zeroed on a GPU, and the cross-warp
/// scan reads every warp's row, including those of warps with no keys.
/// Each warp touches only its own row until the block's next barrier, so
/// the zeroing needs no barrier of its own.
fn zero_counter_row(w: &WarpCtx, counters: &SharedBuf<u32>, m: usize, mp: usize) {
    for g0 in (0..m).step_by(WARP_SIZE) {
        let cnt = (m - g0).min(WARP_SIZE);
        counters.st(
            lanes_from_fn(|j| w.warp_id * mp + g0 + j.min(cnt - 1)),
            splat(0),
            low_lanes_mask(cnt),
        );
    }
}

/// Stable multisplit using shared-atomic ranking (Patidar style), any
/// `m <= max_buckets_atomic(wpb)`.
pub fn multisplit_block_atomic<B: BucketFn + ?Sized, V: Scalar>(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    values: Option<&GlobalBuffer<V>>,
    n: usize,
    bucket: &B,
    wpb: usize,
) -> DeviceMultisplit<V> {
    let m = bucket.num_buckets();
    assert!(
        m <= max_buckets_atomic(wpb),
        "m = {m} exceeds shared-counter capacity"
    );
    assert!(keys.len() >= n, "key buffer shorter than n");
    if n == 0 {
        return empty_result(m as usize, values.is_some());
    }
    let mu = m as usize;
    let mp = mu | 1;
    let l = n.div_ceil(WARP_SIZE * wpb);

    // ====== Pre-scan: shared-atomic block histograms.
    let h = GlobalBuffer::<u32>::zeroed(mu * l);
    dev.launch("atomic/pre-scan", l, wpb, |blk| {
        let nw = blk.warps_per_block;
        let counters = blk.alloc_shared::<u32>(nw * mp);
        let block_hist = blk.alloc_shared::<u32>(mu);
        let tile = blk.block_id * nw * WARP_SIZE;
        for w in blk.warps() {
            zero_counter_row(&w, &counters, mu, mp);
            let base = tile + w.warp_id * WARP_SIZE;
            let mask = tail_mask(base, n);
            if mask == 0 {
                continue;
            }
            let idx = lanes_from_fn(|j| if base + j < n { base + j } else { base });
            let k = w.gather(keys, idx, mask);
            let b = eval_buckets(&w, bucket, k, mask);
            counters.atomic_add(
                lanes_from_fn(|j| w.warp_id * mp + b[j] as usize),
                splat(1u32),
                mask,
            );
        }
        blk.sync();
        multi_exclusive_scan_across_warps(blk, &counters, mu, mp, Some(&block_hist));
        for w in blk.warps() {
            let mut row = w.warp_id * WARP_SIZE;
            while row < mu {
                let cnt = (mu - row).min(WARP_SIZE);
                let sm = low_lanes_mask(cnt);
                let v = block_hist.ld(lanes_from_fn(|j| row + j.min(cnt - 1)), sm);
                w.scatter_merged(
                    &h,
                    lanes_from_fn(|j| (row + j.min(cnt - 1)) * l + blk.block_id),
                    v,
                    sm,
                );
                row += blk.warps_per_block * WARP_SIZE;
            }
        }
    });

    // ====== Scan.
    let g = GlobalBuffer::<u32>::zeroed(mu * l);
    exclusive_scan_u32(dev, "atomic/scan", &h, &g, mu * l, wpb);

    // ====== Post-scan: atomic ranks, block reorder, coalesced scatter.
    let out_keys = GlobalBuffer::<u32>::zeroed(n);
    let out_values = values.map(|_| GlobalBuffer::<V>::zeroed(n));
    dev.launch("atomic/post-scan", l, wpb, |blk| {
        let nw = blk.warps_per_block;
        let counters = blk.alloc_shared::<u32>(nw * mp);
        let bucket_base = blk.alloc_shared::<u32>(mu);
        let keys2 = blk.alloc_shared::<u32>(nw * WARP_SIZE);
        let buckets2 = blk.alloc_shared::<u32>(nw * WARP_SIZE);
        let values2 = values.map(|_| blk.alloc_shared::<V>(nw * WARP_SIZE));
        let tile = blk.block_id * nw * WARP_SIZE;
        let mut key_reg = vec![[0u32; WARP_SIZE]; nw];
        let mut bucket_reg = vec![[0u32; WARP_SIZE]; nw];
        let mut rank_reg = vec![[0u32; WARP_SIZE]; nw];
        let mut val_reg = values.map(|_| vec![[V::default(); WARP_SIZE]; nw]);

        // Phase 1: atomic ranking (the Patidar mechanism: the previous
        // counter value is the element's intra-warp, intra-bucket rank).
        for w in blk.warps() {
            zero_counter_row(&w, &counters, mu, mp);
            let base = tile + w.warp_id * WARP_SIZE;
            let mask = tail_mask(base, n);
            if mask == 0 {
                continue;
            }
            let idx = lanes_from_fn(|j| if base + j < n { base + j } else { base });
            let k = w.gather(keys, idx, mask);
            let b = eval_buckets(&w, bucket, k, mask);
            let rank = counters.atomic_add(
                lanes_from_fn(|j| w.warp_id * mp + b[j] as usize),
                splat(1u32),
                mask,
            );
            key_reg[w.warp_id] = k;
            bucket_reg[w.warp_id] = b;
            rank_reg[w.warp_id] = rank;
            if let (Some(vin), Some(vr)) = (values, &mut val_reg) {
                vr[w.warp_id] = w.gather(vin, idx, mask);
            }
        }
        blk.sync();

        // Phase 2: cross-warp offsets + block bucket bases.
        multi_exclusive_scan_across_warps(blk, &counters, mu, mp, Some(&bucket_base));
        block_exclusive_scan_shared(blk, &bucket_base, mu);

        // Phase 3: block-wide reorder.
        for w in blk.warps() {
            let base = tile + w.warp_id * WARP_SIZE;
            let mask = tail_mask(base, n);
            if mask == 0 {
                continue;
            }
            let k = key_reg[w.warp_id];
            let b = bucket_reg[w.warp_id];
            let bb = bucket_base.ld(lanes_from_fn(|j| b[j] as usize), mask);
            let cw = counters.ld(lanes_from_fn(|j| w.warp_id * mp + b[j] as usize), mask);
            let new_idx = lanes_from_fn(|j| (bb[j] + cw[j] + rank_reg[w.warp_id][j]) as usize);
            keys2.st(new_idx, k, mask);
            buckets2.st(new_idx, b, mask);
            if let (Some(vr), Some(v2)) = (&val_reg, &values2) {
                v2.st(new_idx, vr[w.warp_id], mask);
            }
        }
        blk.sync();

        // Phase 4: coalesced scatter.
        let block_n = (nw * WARP_SIZE).min(n - tile);
        for w in blk.warps() {
            let local = w.warp_id * WARP_SIZE;
            let mask = tail_mask(local, block_n);
            if mask == 0 {
                continue;
            }
            let tidx = lanes_from_fn(|j| {
                if local + j < block_n {
                    local + j
                } else {
                    local
                }
            });
            let k2 = keys2.ld(tidx, mask);
            let b2 = buckets2.ld(tidx, mask);
            let bb = bucket_base.ld(lanes_from_fn(|j| b2[j] as usize), mask);
            let gbase = w.gather_cached(
                &g,
                lanes_from_fn(|j| b2[j] as usize * l + blk.block_id),
                mask,
            );
            let dest = lanes_from_fn(|j| (gbase[j] + (local + j) as u32 - bb[j]) as usize);
            w.scatter(&out_keys, dest, k2, mask);
            if let (Some(v2), Some(vout)) = (&values2, &out_values) {
                let vv = v2.ld(tidx, mask);
                w.scatter(vout, dest, vv, mask);
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
    use multisplit::{
        multisplit_block_level, multisplit_kv_ref, multisplit_ref, no_values, RangeBuckets,
    };
    use simt::{Device, K40C};

    fn keys_for(n: usize, seed: u32) -> Vec<u32> {
        (0..n as u32)
            .map(|i| i.wrapping_mul(2654435761).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn matches_reference_across_m() {
        let dev = Device::new(K40C);
        for m in [1u32, 2, 8, 32, 100, 256] {
            for n in [1usize, 255, 256, 3000] {
                let bucket = RangeBuckets::new(m);
                let data = keys_for(n, m);
                let keys = GlobalBuffer::from_slice(&data);
                let r = multisplit_block_atomic(&dev, &keys, no_values(), n, &bucket, 8);
                let (expect, expect_offs) = multisplit_ref(&data, &bucket);
                assert_eq!(r.keys.to_vec(), expect, "m={m} n={n} (stable)");
                assert_eq!(r.offsets, expect_offs, "m={m} n={n}");
            }
        }
    }

    #[test]
    fn key_value_matches_reference() {
        let dev = Device::new(K40C);
        let n = 4000;
        let bucket = RangeBuckets::new(48);
        let data = keys_for(n, 3);
        let vals: Vec<u32> = (0..n as u32).collect();
        let keys = GlobalBuffer::from_slice(&data);
        let values = GlobalBuffer::from_slice(&vals);
        let r = multisplit_block_atomic(&dev, &keys, Some(&values), n, &bucket, 8);
        let (ek, ev, _) = multisplit_kv_ref(&data, Some(&vals), &bucket);
        assert_eq!(r.keys.to_vec(), ek);
        assert_eq!(r.values.unwrap().to_vec(), ev);
    }

    #[test]
    fn atomic_contention_hurts_small_m_ballots_win() {
        // The §2 tradeoff: at m=2 every warp serializes ~16 deep on two
        // counters, while ballot ranking is contention-free.
        let n = 1 << 16;
        let bucket = RangeBuckets::new(2);
        let data = keys_for(n, 7);
        let keys = GlobalBuffer::from_slice(&data);
        let dev_a = Device::new(K40C);
        multisplit_block_atomic(&dev_a, &keys, no_values(), n, &bucket, 8);
        let dev_b = Device::new(K40C);
        multisplit_block_level(&dev_b, &keys, no_values(), n, &bucket, 8);
        assert!(
            dev_a.total_seconds() > dev_b.total_seconds(),
            "atomic {} should lose to ballot {} at m=2",
            dev_a.total_seconds(),
            dev_b.total_seconds()
        );
    }

    #[test]
    fn capacity_grows_as_warps_shrink() {
        assert!(max_buckets_atomic(2) > max_buckets_atomic(8));
        assert!(max_buckets_atomic(8) >= 1000);
    }
}
