//! Reduced-bit sort (paper §3.4): the best sort-based multisplit.
//!
//! Rather than sorting full 32-bit keys, generate each key's bucket label
//! and sort only the `⌈log2 m⌉` label bits, permuting the original data
//! as the sort's payload:
//!
//! * **key-only** — sort (label, key) pairs by label; the payload keys
//!   come out multisplit-ordered.
//! * **key–value** — pack each (key, value) into one 64-bit word, sort
//!   (label, packed) pairs, unpack. The paper found this packed variant
//!   beats the (label, index)+manual-gather alternative, whose random
//!   gathers get worse with `m`; the ablation bench compares both.
//!
//! Every caller names the label sort ([`ReducedBitStrategy`]) as an
//! argument. [`ReducedBitStrategy::Legacy`] is the paper's baseline: the
//! hand-rolled `radix_sort_by_bits` pipeline (5-bit three-kernel passes).
//! [`ReducedBitStrategy::MsSort`] is this repo's extension: it routes
//! through `ms_sort`'s fused single-pass multisplit digits, so
//! `⌈log2 m⌉ ≤ 8` label bits cost **one** pass with no histogram-matrix
//! round-trip. The index variant ([`reduced_bit_multisplit_kv_by_index`])
//! rides [`ms_sort::argsort_by_bits`]: labels and original indices packed
//! into a *single* `u32`, payloads permuted once through the sorted
//! indices.
//!
//! The extra label/pack/unpack passes are the method's overhead — visible
//! as the "Labeling" and "(un)Packing" rows of Table 4.

use simt::{blocks_for, lanes_from_fn, Device, GlobalBuffer, Scalar, WARP_SIZE};

use multisplit::common::eval_buckets;
use multisplit::BucketFn;
use primitives::tail_mask;

use crate::radix_sort::radix_sort_by_bits;

/// Which pipeline sorts the labels in `reduced_bit_multisplit{,_kv}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReducedBitStrategy {
    /// Labels sorted by `ms_sort` fused multisplit digits (one fused pass
    /// for `m <= 256`, no histogram-matrix round-trip).
    MsSort,
    /// The paper's pipeline over [`radix_sort_by_bits`] (5-bit
    /// three-kernel passes).
    Legacy,
}

/// Bits needed to sort `m` labels.
pub fn label_bits(m: u32) -> u32 {
    if m <= 1 {
        0
    } else {
        32 - (m - 1).leading_zeros()
    }
}

/// Kernel: labels[i] = bucket(keys[i]).
fn write_labels<B: BucketFn + ?Sized>(
    dev: &Device,
    label: &str,
    keys: &GlobalBuffer<u32>,
    labels: &GlobalBuffer<u32>,
    n: usize,
    bucket: &B,
    wpb: usize,
) {
    dev.launch(label, blocks_for(n, wpb), wpb, |blk| {
        for w in blk.warps() {
            let base = w.global_warp_id * WARP_SIZE;
            let mask = tail_mask(base, n);
            if mask == 0 {
                continue;
            }
            let idx = lanes_from_fn(|j| if base + j < n { base + j } else { base });
            let k = w.gather(keys, idx, mask);
            w.scatter(labels, idx, eval_buckets(&w, bucket, k, mask), mask);
        }
    });
}

/// Offsets recovered from the sorted label vector (host-side; the device
/// part of the algorithm produces them as a byproduct of its last pass).
fn offsets_from_labels(labels: &[u32], m: usize) -> Vec<u32> {
    let mut offsets = vec![0u32; m + 1];
    for &l in labels {
        offsets[l as usize + 1] += 1;
    }
    for b in 0..m {
        offsets[b + 1] += offsets[b];
    }
    offsets
}

/// Kernel: packed[i] = (keys[i] << 32) | values[i].
fn pack_kv(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    values: &GlobalBuffer<u32>,
    n: usize,
    wpb: usize,
) -> GlobalBuffer<u64> {
    let packed = GlobalBuffer::<u64>::zeroed(n);
    dev.launch("reduced/pack", blocks_for(n, wpb), wpb, |blk| {
        for w in blk.warps() {
            let base = w.global_warp_id * WARP_SIZE;
            let mask = tail_mask(base, n);
            if mask == 0 {
                continue;
            }
            let idx = lanes_from_fn(|j| if base + j < n { base + j } else { base });
            let k = w.gather(keys, idx, mask);
            let v = w.gather(values, idx, mask);
            w.charge(mask.count_ones() as u64);
            w.scatter(
                &packed,
                idx,
                lanes_from_fn(|l| (k[l] as u64) << 32 | v[l] as u64),
                mask,
            );
        }
    });
    packed
}

/// Kernel: split packed u64 words back into (keys, values).
fn unpack_kv(
    dev: &Device,
    packed: &GlobalBuffer<u64>,
    n: usize,
    wpb: usize,
) -> (GlobalBuffer<u32>, GlobalBuffer<u32>) {
    let out_keys = GlobalBuffer::<u32>::zeroed(n);
    let out_values = GlobalBuffer::<u32>::zeroed(n);
    dev.launch("reduced/unpack", blocks_for(n, wpb), wpb, |blk| {
        for w in blk.warps() {
            let base = w.global_warp_id * WARP_SIZE;
            let mask = tail_mask(base, n);
            if mask == 0 {
                continue;
            }
            let idx = lanes_from_fn(|j| if base + j < n { base + j } else { base });
            let p = w.gather(packed, idx, mask);
            w.charge(mask.count_ones() as u64);
            w.scatter(&out_keys, idx, lanes_from_fn(|l| (p[l] >> 32) as u32), mask);
            w.scatter(&out_values, idx, lanes_from_fn(|l| p[l] as u32), mask);
        }
    });
    (out_keys, out_values)
}

/// Label every key, then sort `payload` by its key's label on `strategy`.
/// Returns the sorted payload and the `m + 1` bucket offsets.
fn sort_by_labels<B: BucketFn + ?Sized, V: Scalar>(
    dev: &Device,
    strategy: ReducedBitStrategy,
    keys: &GlobalBuffer<u32>,
    payload: &GlobalBuffer<V>,
    n: usize,
    bucket: &B,
    wpb: usize,
) -> (GlobalBuffer<V>, Vec<u32>) {
    let m = bucket.num_buckets();
    let bits = label_bits(m);
    let labels = GlobalBuffer::<u32>::zeroed(n);
    write_labels(dev, "reduced/label", keys, &labels, n, bucket, wpb);
    // Bucket counts are order-independent, so the offsets come from the
    // unsorted labels — no extra device pass.
    let offsets = offsets_from_labels(&labels.to_vec(), m as usize);
    let sorted = match strategy {
        ReducedBitStrategy::MsSort => {
            ms_sort::sort_pairs_by_bits(dev, &labels, payload, n, bits, wpb).1
        }
        ReducedBitStrategy::Legacy => {
            radix_sort_by_bits(dev, "reduced/sort", &labels, Some(payload), n, bits, wpb)
                .1
                .expect("payload present")
        }
    };
    (sorted, offsets)
}

/// Key-only reduced-bit multisplit. Stable. The label sort runs on
/// `strategy`.
pub fn reduced_bit_multisplit<B: BucketFn + ?Sized>(
    dev: &Device,
    strategy: ReducedBitStrategy,
    keys: &GlobalBuffer<u32>,
    n: usize,
    bucket: &B,
    wpb: usize,
) -> (GlobalBuffer<u32>, Vec<u32>) {
    sort_by_labels(dev, strategy, keys, keys, n, bucket, wpb)
}

/// Key–value reduced-bit multisplit via 64-bit packing. Stable. The label
/// sort runs on `strategy`.
pub fn reduced_bit_multisplit_kv<B: BucketFn + ?Sized>(
    dev: &Device,
    strategy: ReducedBitStrategy,
    keys: &GlobalBuffer<u32>,
    values: &GlobalBuffer<u32>,
    n: usize,
    bucket: &B,
    wpb: usize,
) -> (GlobalBuffer<u32>, GlobalBuffer<u32>, Vec<u32>) {
    let packed = pack_kv(dev, keys, values, n, wpb);
    let (sorted_packed, offsets) = sort_by_labels(dev, strategy, keys, &packed, n, bucket, wpb);
    let (out_keys, out_values) = unpack_kv(dev, &sorted_packed, n, wpb);
    (out_keys, out_values, offsets)
}

/// The paper's alternative key–value strategy (§3.4): sort (label, index)
/// pairs, then gather key–value pairs through the permuted indices. Kept
/// for the ablation bench — its random gathers lose to packing as `m`
/// grows, which is why the packed variant above is the default. Now rides
/// [`ms_sort::argsort_by_bits`]: label and original index packed into a
/// *single* u32 so the sort itself moves one word per element, with one
/// permute pass per payload after.
pub fn reduced_bit_multisplit_kv_by_index<B: BucketFn + ?Sized>(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    values: &GlobalBuffer<u32>,
    n: usize,
    bucket: &B,
    wpb: usize,
) -> (GlobalBuffer<u32>, GlobalBuffer<u32>, Vec<u32>) {
    let m = bucket.num_buckets();
    let labels = GlobalBuffer::<u32>::zeroed(n);
    write_labels(dev, "reduced-idx/label", keys, &labels, n, bucket, wpb);
    if let Some(args) = ms_sort::argsort_by_bits(dev, &labels, n, label_bits(m), wpb) {
        let out_keys = args.permute(dev, keys, wpb);
        let out_values = args.permute(dev, values, wpb);
        let offsets = offsets_from_labels(&labels.to_vec(), m as usize);
        return (out_keys, out_values, offsets);
    }
    // label_bits + index_bits > 32: fall back to carrying the index as a
    // separate payload word through the legacy pipeline.
    let indices = GlobalBuffer::from_slice(&(0..n as u32).collect::<Vec<_>>());
    let (sorted_labels, perm) = radix_sort_by_bits(
        dev,
        "reduced-idx/sort",
        &labels,
        Some(&indices),
        n,
        label_bits(m),
        wpb,
    );
    let perm = perm.expect("payload present");
    let out_keys = GlobalBuffer::<u32>::zeroed(n);
    let out_values = GlobalBuffer::<u32>::zeroed(n);
    dev.launch("reduced-idx/permute", blocks_for(n, wpb), wpb, |blk| {
        for w in blk.warps() {
            let base = w.global_warp_id * WARP_SIZE;
            let mask = tail_mask(base, n);
            if mask == 0 {
                continue;
            }
            let idx = lanes_from_fn(|j| if base + j < n { base + j } else { base });
            let p = w.gather(&perm, idx, mask);
            // The non-coalesced gathers that make this variant lose.
            let src = lanes_from_fn(|l| p[l] as usize);
            let k = w.gather(keys, src, mask);
            let v = w.gather(values, src, mask);
            w.scatter(&out_keys, idx, k, mask);
            w.scatter(&out_values, idx, v, mask);
        }
    });
    let offsets = offsets_from_labels(&sorted_labels.to_vec(), m as usize);
    (out_keys, out_values, offsets)
}

#[cfg(test)]
mod tests {
    use super::ReducedBitStrategy::{Legacy, MsSort};
    use super::*;
    use multisplit::{multisplit_kv_ref, multisplit_ref, RangeBuckets};
    use simt::{Device, K40C};

    fn keys_for(n: usize, seed: u32) -> Vec<u32> {
        (0..n as u32)
            .map(|i| i.wrapping_mul(2654435761).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn label_bits_is_ceil_log2() {
        assert_eq!(label_bits(1), 0);
        assert_eq!(label_bits(2), 1);
        assert_eq!(label_bits(3), 2);
        assert_eq!(label_bits(32), 5);
        assert_eq!(label_bits(33), 6);
        assert_eq!(label_bits(65536), 16);
    }

    #[test]
    fn key_only_matches_reference() {
        let dev = Device::new(K40C);
        for m in [2u32, 8, 32, 64, 300] {
            let n = 6000;
            let bucket = RangeBuckets::new(m);
            let data = keys_for(n, m);
            let keys = GlobalBuffer::from_slice(&data);
            let (out, offs) = reduced_bit_multisplit(&dev, MsSort, &keys, n, &bucket, 8);
            let (expect, expect_offs) = multisplit_ref(&data, &bucket);
            assert_eq!(out.to_vec(), expect, "m={m} (stable)");
            assert_eq!(offs, expect_offs, "m={m}");
        }
    }

    #[test]
    fn key_value_packed_matches_reference() {
        let dev = Device::new(K40C);
        let n = 5000;
        let bucket = RangeBuckets::new(10);
        let data = keys_for(n, 4);
        let vals: Vec<u32> = (0..n as u32).collect();
        let keys = GlobalBuffer::from_slice(&data);
        let values = GlobalBuffer::from_slice(&vals);
        let (ok, ov, offs) = reduced_bit_multisplit_kv(&dev, MsSort, &keys, &values, n, &bucket, 8);
        let (ek, ev, eo) = multisplit_kv_ref(&data, Some(&vals), &bucket);
        assert_eq!(ok.to_vec(), ek);
        assert_eq!(ov.to_vec(), ev);
        assert_eq!(offs, eo);
    }

    #[test]
    fn index_variant_matches_reference_too() {
        let dev = Device::new(K40C);
        let n = 3000;
        let bucket = RangeBuckets::new(16);
        let data = keys_for(n, 8);
        let vals: Vec<u32> = (0..n as u32).map(|i| !i).collect();
        let keys = GlobalBuffer::from_slice(&data);
        let values = GlobalBuffer::from_slice(&vals);
        let (ok, ov, _) = reduced_bit_multisplit_kv_by_index(&dev, &keys, &values, n, &bucket, 8);
        let (ek, ev, _) = multisplit_kv_ref(&data, Some(&vals), &bucket);
        assert_eq!(ok.to_vec(), ek);
        assert_eq!(ov.to_vec(), ev);
    }

    #[test]
    fn packed_avoids_the_index_variants_gather_waste() {
        // §3.4: the index variant's final permute gathers key–value pairs
        // through a random permutation (non-coalesced), while the packed
        // variant's unpack stage streams sequentially. Compare the wasted
        // DRAM bytes of those two finishing stages.
        let n = 1 << 14;
        let bucket = RangeBuckets::new(32);
        let data = keys_for(n, 2);
        let vals = vec![7u32; n];
        let keys = GlobalBuffer::from_slice(&data);
        let values = GlobalBuffer::from_slice(&vals);
        let stage_waste = |dev: &Device, prefix: &str| {
            dev.records()
                .iter()
                .filter(|r| r.label.starts_with(prefix))
                .map(|r| r.stats.wasted_bytes())
                .sum::<u64>()
        };
        let dev_p = Device::new(K40C);
        reduced_bit_multisplit_kv(&dev_p, MsSort, &keys, &values, n, &bucket, 8);
        let dev_i = Device::new(K40C);
        reduced_bit_multisplit_kv_by_index(&dev_i, &keys, &values, n, &bucket, 8);
        let unpack = stage_waste(&dev_p, "reduced/unpack");
        // The index variant's permute now runs via ms_sort::Argsort.
        let permute = stage_waste(&dev_i, "ms_sort/permute");
        assert!(
            permute > 10 * unpack.max(1),
            "random permute waste {permute} should dwarf streaming unpack waste {unpack}"
        );
    }

    #[test]
    fn legacy_strategy_still_matches_reference() {
        // The paper's label sort stays callable (and correct) next to the
        // ms-sort extension.
        let dev = Device::new(K40C);
        let n = 4000;
        let bucket = RangeBuckets::new(24);
        let data = keys_for(n, 3);
        let vals: Vec<u32> = (0..n as u32).collect();
        let keys = GlobalBuffer::from_slice(&data);
        let values = GlobalBuffer::from_slice(&vals);
        let (out, offs) = reduced_bit_multisplit(&dev, Legacy, &keys, n, &bucket, 8);
        let (expect, expect_offs) = multisplit_ref(&data, &bucket);
        assert_eq!(out.to_vec(), expect);
        assert_eq!(offs, expect_offs);
        // The legacy path actually ran: its three-kernel label sort
        // leaves "reduced/sort" launch records behind.
        assert!(dev
            .records()
            .iter()
            .any(|r| r.label.starts_with("reduced/sort")));

        let (ok, ov, offs) = reduced_bit_multisplit_kv(&dev, Legacy, &keys, &values, n, &bucket, 8);
        let (ek, ev, eo) = multisplit_kv_ref(&data, Some(&vals), &bucket);
        assert_eq!(ok.to_vec(), ek);
        assert_eq!(ov.to_vec(), ev);
        assert_eq!(offs, eo);
    }

    #[test]
    fn mssort_skips_the_legacy_sort_kernels() {
        let dev = Device::new(K40C);
        let n = 4096;
        let bucket = RangeBuckets::new(32);
        let data = keys_for(n, 6);
        let keys = GlobalBuffer::from_slice(&data);
        reduced_bit_multisplit(&dev, MsSort, &keys, n, &bucket, 8);
        let labels: Vec<_> = dev.records().iter().map(|r| r.label.clone()).collect();
        assert!(
            !labels.iter().any(|l| l.starts_with("reduced/sort")),
            "the ms-sort route must not touch the legacy pipeline: {labels:?}"
        );
        assert!(
            labels.iter().any(|l| l.contains("fused")),
            "label sort should run on the fused multisplit path: {labels:?}"
        );
    }

    #[test]
    fn single_bucket_short_circuits() {
        let dev = Device::new(K40C);
        let n = 300;
        let bucket = RangeBuckets::new(1);
        let data = keys_for(n, 1);
        let keys = GlobalBuffer::from_slice(&data);
        let (out, offs) = reduced_bit_multisplit(&dev, MsSort, &keys, n, &bucket, 8);
        assert_eq!(out.to_vec(), data);
        assert_eq!(offs, vec![0, n as u32]);
    }
}
