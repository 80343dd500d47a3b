//! Warp-level Multisplit (paper §5.2.1).
//!
//! Identical to Direct MS until the post-scan stage, where each warp
//! *reorders* its 32 elements in shared memory so that elements of the
//! same bucket become adjacent before the final write — trading a little
//! warp-local work (one shuffle-scan over the histogram plus a shared
//! round-trip) for coalesced global stores. The paper evaluated reordering
//! in pre-scan vs post-scan and chose post-scan: reordering early would
//! cost two extra *global* coalesced accesses per element, while
//! recomputing the ballot histogram is nearly free (§5.2.1); the ablation
//! bench `reorder_placement` reproduces that comparison.

use simt::{lanes_from_fn, Device, GlobalBuffer, Scalar, WARP_SIZE};

use primitives::{exclusive_scan_u32, tail_mask, warp_scan};

use crate::bucket::BucketFn;
use crate::common::{empty_result, eval_buckets, offsets_from_scanned, DeviceMultisplit};
use crate::direct::warp_granularity_prescan;
use crate::warp_ops::warp_histogram_and_offsets;

/// Warp-level multisplit over `m <= 32` buckets.
pub fn multisplit_warp_level<B: BucketFn + ?Sized, V: Scalar>(
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
        "warp-level multisplit requires m <= 32 (use the large-m path)"
    );
    assert!(keys.len() >= n, "key buffer shorter than n");
    if n == 0 {
        return empty_result(m as usize, values.is_some());
    }
    let l = n.div_ceil(WARP_SIZE);

    // ====== Pre-scan: identical to Direct MS.
    let h = GlobalBuffer::<u32>::zeroed(m as usize * l);
    warp_granularity_prescan(dev, "warp/pre-scan", keys, n, bucket, wpb, &h, l);

    // ====== Scan.
    let g = GlobalBuffer::<u32>::zeroed(m as usize * l);
    exclusive_scan_u32(dev, "warp/scan", &h, &g, m as usize * l, wpb);

    // ====== Post-scan with warp-level reordering.
    let out_keys = GlobalBuffer::<u32>::zeroed(n);
    let out_values = values.map(|_| GlobalBuffer::<V>::zeroed(n));
    let blocks = l.div_ceil(wpb);
    dev.launch("warp/post-scan", blocks, wpb, |blk| {
        let nw = blk.warps_per_block;
        let keys_s = blk.alloc_shared::<u32>(nw * WARP_SIZE);
        let buckets_s = blk.alloc_shared::<u32>(nw * WARP_SIZE);
        let values_s = values.map(|_| blk.alloc_shared::<V>(nw * WARP_SIZE));
        for w in blk.warps() {
            if w.global_warp_id >= l {
                continue;
            }
            let base = w.global_warp_id * WARP_SIZE;
            let mask = tail_mask(base, n);
            if mask == 0 {
                continue;
            }
            let idx = lanes_from_fn(|j| if base + j < n { base + j } else { base });
            let k = w.gather(keys, idx, mask);
            let b = eval_buckets(&w, bucket, k, mask);
            // Recompute histogram + local offsets (cheaper than reloading
            // the pre-scan results from global memory, paper footnote 6).
            let (histo, offs) = warp_histogram_and_offsets(&w, b, m, mask);
            // Exclusive scan over the warp histogram: lane i = start of
            // bucket i within this warp's reordered 32 elements.
            let scan_h = warp_scan::exclusive_scan_add(&w, histo);
            // New intra-warp index for each element, then reorder through
            // shared memory (same-bucket elements become adjacent).
            let my_base = w.shfl(scan_h, b, mask);
            let new_idx = lanes_from_fn(|lane| (my_base[lane] + offs[lane]) as usize);
            let warp_s = w.warp_id * WARP_SIZE;
            let dst_s = lanes_from_fn(|lane| warp_s + new_idx[lane]);
            keys_s.st(dst_s, k, mask);
            buckets_s.st(dst_s, b, mask);
            if let (Some(vin), Some(vs)) = (values, &values_s) {
                let v = w.gather(vin, idx, mask);
                vs.st(dst_s, v, mask);
            }
            // Read back in lane order: lane i now holds the i-th reordered
            // element; its rank inside its bucket is i - scan_h[bucket].
            let src_s = lanes_from_fn(|lane| warp_s + lane);
            let k2 = keys_s.ld(src_s, mask);
            let b2 = buckets_s.ld(src_s, mask);
            let my_base2 = w.shfl(scan_h, b2, mask);
            let col = w.global_warp_id;
            let gbase =
                w.gather_cached(&g, lanes_from_fn(|lane| b2[lane] as usize * l + col), mask);
            let dest = lanes_from_fn(|lane| (gbase[lane] + lane as u32 - my_base2[lane]) as usize);
            w.scatter(&out_keys, dest, k2, mask);
            if let (Some(vs), Some(vout)) = (&values_s, &out_values) {
                let v2 = vs.ld(src_s, mask);
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
    use crate::direct::multisplit_direct;
    use simt::{Device, K40C};

    #[test]
    fn matches_reference_across_m_and_n() {
        let dev = Device::new(K40C);
        for m in [1u32, 2, 4, 6, 13, 32] {
            for n in [1usize, 32, 33, 100, 4096, 9999] {
                let bucket = RangeBuckets::new(m);
                let data = keys_for(n, m);
                let keys = GlobalBuffer::from_slice(&data);
                let r = multisplit_warp_level(&dev, &keys, no_values(), n, &bucket, 8);
                let (expect, expect_offs) = multisplit_ref(&data, &bucket);
                assert_eq!(r.keys.to_vec(), expect, "m={m} n={n}");
                assert_eq!(r.offsets, expect_offs, "m={m} n={n}");
            }
        }
    }

    #[test]
    fn key_value_matches_reference() {
        let dev = Device::new(K40C);
        let n = 7777;
        let bucket = RangeBuckets::new(5);
        let data = keys_for(n, 9);
        let vals: Vec<u32> = (0..n as u32).collect();
        let keys = GlobalBuffer::from_slice(&data);
        let values = GlobalBuffer::from_slice(&vals);
        let r = multisplit_warp_level(&dev, &keys, Some(&values), n, &bucket, 8);
        let (ek, ev, _) = multisplit_kv_ref(&data, Some(&vals), &bucket);
        assert_eq!(r.keys.to_vec(), ek);
        assert_eq!(r.values.unwrap().to_vec(), ev);
    }

    #[test]
    fn produces_same_result_as_direct() {
        let dev = Device::new(K40C);
        let n = 6000;
        let bucket = RangeBuckets::new(11);
        let data = keys_for(n, 13);
        let keys = GlobalBuffer::from_slice(&data);
        let a = multisplit_direct(&dev, &keys, no_values(), n, &bucket, 8);
        let b = multisplit_warp_level(&dev, &keys, no_values(), n, &bucket, 8);
        assert_eq!(
            a.keys.to_vec(),
            b.keys.to_vec(),
            "both are stable: identical output"
        );
        assert_eq!(a.offsets, b.offsets);
    }

    #[test]
    fn reordering_eliminates_store_replays_for_few_buckets() {
        // Direct MS and Warp-level MS scatter to the *same address set* per
        // warp; the reordering win is lane-contiguity — the store unit
        // issues one pass per lane-consecutive run, so Direct's interleaved
        // lanes replay many times while the reordered warp doesn't.
        let n = 1 << 16;
        let bucket = RangeBuckets::new(2);
        let data = keys_for(n, 21);
        let keys = GlobalBuffer::from_slice(&data);
        let dev_d = Device::new(K40C);
        multisplit_direct(&dev_d, &keys, no_values(), n, &bucket, 8);
        let dev_w = Device::new(K40C);
        multisplit_warp_level(&dev_w, &keys, no_values(), n, &bucket, 8);
        let d = stats_of(&dev_d, "direct/post-scan").replays;
        let w = stats_of(&dev_w, "warp/post-scan").replays;
        assert!(
            w * 4 < d,
            "warp-level post-scan replays {w} should be far below direct's {d}"
        );
        // And the address sets really are the same: equal sector counts.
        assert_eq!(
            stats_of(&dev_d, "direct/post-scan").sectors,
            stats_of(&dev_w, "warp/post-scan").sectors
        );
    }

    #[test]
    fn all_elements_one_bucket_keeps_order() {
        let dev = Device::new(K40C);
        let n = 1234;
        let bucket = FnBuckets::new(4, |_| 2);
        let data = keys_for(n, 31);
        let keys = GlobalBuffer::from_slice(&data);
        let r = multisplit_warp_level(&dev, &keys, no_values(), n, &bucket, 8);
        assert_eq!(r.keys.to_vec(), data);
    }
}
