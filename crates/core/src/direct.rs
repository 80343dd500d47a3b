//! Direct Multisplit (paper §5, Algorithm 1).
//!
//! Warp-sized subproblems (`L = ⌈n/32⌉`), ballot-based warp histograms and
//! local offsets, **no reordering**: each element is scattered straight to
//! `G[bucket][warp] + local_offset`. The global scan shrinks by `32x`
//! relative to thread-granularity approaches; the final scatter pays the
//! full coalescing penalty, which grows with the bucket count — exactly
//! the trade the reordering variants attack.

use simt::{lanes_from_fn, Device, GlobalBuffer, Scalar, FULL_MASK, WARP_SIZE};

use primitives::{exclusive_scan_u32, low_lanes_mask, tail_mask};

use crate::bucket::BucketFn;
use crate::common::{empty_result, eval_buckets, offsets_from_scanned, DeviceMultisplit};
use crate::warp_ops::{warp_histogram, warp_offsets};

/// Pre-scan stage shared by Direct MS and Warp-level MS: every warp
/// computes its ballot histogram and stores one column of `H` (row-
/// vectorized `m x L`). Strided histogram stores go through the
/// write-merging path (adjacent warps complete each sector).
#[allow(clippy::too_many_arguments)]
pub(crate) fn warp_granularity_prescan<B: BucketFn + ?Sized>(
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
    let blocks = l.div_ceil(wpb);
    dev.launch(label, blocks, wpb, |blk| {
        for w in blk.warps() {
            if w.global_warp_id >= l {
                break;
            }
            let base = w.global_warp_id * WARP_SIZE;
            let mask = tail_mask(base, n);
            if mask == 0 {
                continue;
            }
            let idx = lanes_from_fn(|j| if base + j < n { base + j } else { base });
            let k = w.gather(keys, idx, mask);
            let b = eval_buckets(&w, bucket, k, mask);
            let histo = warp_histogram(&w, b, m, mask);
            let col = w.global_warp_id;
            let store_mask = low_lanes_mask(m as usize);
            w.scatter_merged(h, lanes_from_fn(|lane| lane * l + col), histo, store_mask);
        }
    });
}

/// Direct multisplit over `m <= 32` buckets.
///
/// `values`, if given, is permuted identically to `keys`. `wpb` is the
/// number of warps per block (`N_W`, default 8 in the paper).
pub fn multisplit_direct<B: BucketFn + ?Sized, V: Scalar>(
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
        "direct multisplit requires m <= 32 (use the large-m path)"
    );
    assert!(keys.len() >= n, "key buffer shorter than n");
    if n == 0 {
        return empty_result(m as usize, values.is_some());
    }
    let l = n.div_ceil(WARP_SIZE);

    // ====== Pre-scan: per-warp histograms into H (m x L).
    let h = GlobalBuffer::<u32>::zeroed(m as usize * l);
    warp_granularity_prescan(dev, "direct/pre-scan", keys, n, bucket, wpb, &h, l);

    // ====== Scan: exclusive prefix sum over row-vectorized H.
    let g = GlobalBuffer::<u32>::zeroed(m as usize * l);
    exclusive_scan_u32(dev, "direct/scan", &h, &g, m as usize * l, wpb);

    // ====== Post-scan: recompute offsets, scatter straight to final slots.
    let out_keys = GlobalBuffer::<u32>::zeroed(n);
    let out_values = values.map(|_| GlobalBuffer::<V>::zeroed(n));
    let blocks = l.div_ceil(wpb);
    dev.launch("direct/post-scan", blocks, wpb, |blk| {
        for w in blk.warps() {
            if w.global_warp_id >= l {
                break;
            }
            let base = w.global_warp_id * WARP_SIZE;
            let mask = tail_mask(base, n);
            if mask == 0 {
                continue;
            }
            let idx = lanes_from_fn(|j| if base + j < n { base + j } else { base });
            let k = w.gather(keys, idx, mask);
            let b = eval_buckets(&w, bucket, k, mask);
            let offs = warp_offsets(&w, b, m, mask);
            let col = w.global_warp_id;
            let gbase = w.gather_cached(&g, lanes_from_fn(|lane| b[lane] as usize * l + col), mask);
            let dest = lanes_from_fn(|lane| (gbase[lane] + offs[lane]) as usize);
            w.scatter(&out_keys, dest, k, mask);
            if let (Some(vin), Some(vout)) = (values, &out_values) {
                let v = w.gather(vin, idx, mask);
                w.scatter(vout, dest, v, mask);
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

/// The warp-level mask convention guarantees full warps everywhere except
/// possibly the last, so expose it for reuse in tests.
#[allow(dead_code)]
pub(crate) fn full_warp_mask() -> u32 {
    FULL_MASK
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::{FnBuckets, RangeBuckets};
    use crate::common::no_values;
    use crate::common::test_util::keys_for;
    use crate::cpu_ref::{check_multisplit, multisplit_kv_ref, multisplit_ref};
    use simt::{Device, K40C};

    #[test]
    fn matches_reference_across_m_and_n() {
        let dev = Device::new(K40C);
        for m in [1u32, 2, 3, 5, 8, 16, 31, 32] {
            for n in [1usize, 31, 32, 33, 257, 4096, 10_000] {
                let bucket = RangeBuckets::new(m);
                let data = keys_for(n, m);
                let keys = GlobalBuffer::from_slice(&data);
                let r = multisplit_direct(&dev, &keys, no_values(), n, &bucket, 8);
                let (expect, expect_offs) = multisplit_ref(&data, &bucket);
                assert_eq!(r.keys.to_vec(), expect, "m={m} n={n} (stability included)");
                assert_eq!(r.offsets, expect_offs, "m={m} n={n}");
            }
        }
    }

    #[test]
    fn key_value_pairs_travel_together() {
        let dev = Device::new(K40C);
        let n = 5000;
        let m = 7;
        let bucket = RangeBuckets::new(m);
        let data = keys_for(n, 1);
        let vals: Vec<u32> = (0..n as u32).collect();
        let keys = GlobalBuffer::from_slice(&data);
        let values = GlobalBuffer::from_slice(&vals);
        let r = multisplit_direct(&dev, &keys, Some(&values), n, &bucket, 8);
        let (ek, ev, eo) = multisplit_kv_ref(&data, Some(&vals), &bucket);
        assert_eq!(r.keys.to_vec(), ek);
        assert_eq!(r.values.unwrap().to_vec(), ev);
        assert_eq!(r.offsets, eo);
    }

    #[test]
    fn scatter_is_disjoint_under_race_detector() {
        let dev = Device::new(K40C);
        let n = 4096;
        let bucket = RangeBuckets::new(8);
        let data = keys_for(n, 2);
        let keys = GlobalBuffer::from_slice(&data);
        // Tracked output would panic if two lanes ever wrote the same slot.
        let r = multisplit_direct(&dev, &keys, no_values(), n, &bucket, 8);
        check_multisplit(&data, &r.keys.to_vec(), &r.offsets, &bucket).unwrap();
    }

    #[test]
    fn empty_input_is_a_noop() {
        let dev = Device::new(K40C);
        let keys = GlobalBuffer::<u32>::zeroed(0);
        let r = multisplit_direct(&dev, &keys, no_values(), 0, &RangeBuckets::new(4), 8);
        assert_eq!(r.offsets, vec![0; 5]);
        assert!(dev.records().is_empty());
    }

    #[test]
    fn skewed_distribution_all_in_one_bucket() {
        let dev = Device::new(K40C);
        let n = 1000;
        let bucket = FnBuckets::new(8, |_| 3);
        let data = keys_for(n, 3);
        let keys = GlobalBuffer::from_slice(&data);
        let r = multisplit_direct(&dev, &keys, no_values(), n, &bucket, 8);
        assert_eq!(
            r.keys.to_vec(),
            data,
            "single-bucket multisplit is identity"
        );
        assert_eq!(r.offsets, vec![0, 0, 0, 0, 1000, 1000, 1000, 1000, 1000]);
    }

    #[test]
    fn works_with_two_warps_per_block() {
        let dev = Device::new(K40C);
        let n = 3000;
        let bucket = RangeBuckets::new(6);
        let data = keys_for(n, 4);
        let keys = GlobalBuffer::from_slice(&data);
        let r = multisplit_direct(&dev, &keys, no_values(), n, &bucket, 2);
        let (expect, _) = multisplit_ref(&data, &bucket);
        assert_eq!(r.keys.to_vec(), expect);
    }

    #[test]
    fn stage_labels_are_recorded() {
        let dev = Device::new(K40C);
        let n = 2048;
        let keys = GlobalBuffer::from_slice(&keys_for(n, 5));
        multisplit_direct(&dev, &keys, no_values(), n, &RangeBuckets::new(4), 8);
        assert!(dev.seconds_with_prefix("direct/pre-scan") > 0.0);
        assert!(dev.seconds_with_prefix("direct/scan") > 0.0);
        assert!(dev.seconds_with_prefix("direct/post-scan") > 0.0);
    }
}
