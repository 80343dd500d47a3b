//! Fused single-pass multisplit for **more than 32 buckets** — the
//! `fused.rs` look-back structure generalized to the `m > 32` regime of
//! paper §5.3/§6.4, with multi-row decoupled look-back and
//! bank-conflict-free staging.
//!
//! The three-kernel large-m pipeline (`large_m.rs`) reads every key from
//! DRAM twice and round-trips the `m × L` histogram matrix through global
//! memory; the matrix grows with `m`, so the fusion win *grows* with `m`.
//! This module collapses it to the two launches of `fused.rs` (one when
//! `n` fits one sweep tile).
//! `fused_large_m/pre-scan` is the one pre-scan kernel of
//! [`crate::prescan`], counting 8,192-key tiles (at 8 warps) with one
//! shared-memory atomic per key into block-private counters.
//! `fused_large_m/sweep` is the shared tile sweep of [`crate::sweep`], the
//! same kernel as for `m ≤ 32`: the paper's row-vectorized `m × N_W`
//! shared histogram, one running-count column per warp fed by Algorithm
//! 3's peer counts, scanned block-wide by one raking scan (§6.4, "as CUB
//! does"), and multi-row look-back (records wider than a warp span
//! `⌈m/32⌉` warp-sized row groups). The histogram does not grow with the
//! tile, so the coarsening is bound by staging, not by `m`, until `m`
//! nears capacity.
//!
//! ### Bank-conflict-free staging
//!
//! The block reorder scatters each element to its tile-local dense rank.
//! Structured bucket functions produce structured ranks — e.g. one
//! element per bucket per chunk yields a stride-`items_per_thread` store,
//! which serializes on the 32 shared-memory banks. Staging is therefore
//! addressed through [`simt::padded_index`] (CUB-style: one pad word per
//! 32 elements), which maps any power-of-two stride to distinct banks;
//! `BlockStats::smem_bank_conflicts` counts what this buys (see the
//! `padded_staging_*` test). The histogram itself keeps the odd-pitch
//! trick (`N_W | 1`) the three-kernel path already uses.
//!
//! Shared memory bounds the bucket count, with every term derived from
//! the sweep's one footprint function
//! ([`footprint_words`]): [`max_buckets`] is tight at the
//! minimum coarsening, and the coarsening grows tiles as far as the
//! remaining budget allows.
//!
//! Output buffers are allocated with the write-race detector enabled
//! ([`simt::GlobalBuffer::tracked`]), as in `fused.rs`.

use simt::{Device, GlobalBuffer, Scalar};

use crate::bucket::BucketFn;
use crate::common::{empty_result, with_fresh_outputs, DeviceMultisplit, SMEM_BUDGET_WORDS};
use crate::fused::fused_into;
use crate::sweep::footprint_words;

/// Largest supported bucket count: the sweep at minimum coarsening
/// (`items_per_thread = 1`) must fit shared memory. Tight: `m ==
/// max_buckets` fits, `m + 1` would overflow `alloc_shared`. Below
/// [`crate::large_m::max_buckets`] at every block size, which `auto_for`
/// relies on.
pub fn max_buckets(wpb: usize, key_value: bool) -> u32 {
    max_buckets_bytes(wpb, if key_value { 4 } else { 0 })
}

/// [`max_buckets`] for an explicit payload width. The bool form assumes a
/// one-word payload, but staging grows with `V::BYTES` — ms-sort's
/// reduced-bit fallback runs packed `u64` payloads through this sweep, and
/// at wide blocks the capacity difference is real (e.g. `wpb = 32`:
/// 298 buckets for `u32` payloads, 267 for `u64`).
pub fn max_buckets_bytes(wpb: usize, value_bytes: u64) -> u32 {
    // The footprint is affine in m: a fixed part plus one histogram row
    // (pitch wpb | 1) and one scatter-base word per bucket.
    let vw = value_bytes as usize / 4;
    let fixed = footprint_words(wpb, 0, 1, vw);
    let per_bucket = footprint_words(wpb, 1, 1, vw) - fixed;
    ((SMEM_BUDGET_WORDS - fixed) / per_bucket) as u32
}

/// Fused two-launch (one-launch for one tile) multisplit for any
/// `32 < m <= max_buckets(wpb, _)`.
///
/// Same contract as [`crate::large_m::multisplit_large_m`] (stable, keys
/// permuted into `m` contiguous buckets, `m + 1` offsets returned) with
/// roughly a third fewer DRAM sectors; dispatched from
/// [`crate::api::Method::FusedLargeM`].
pub fn multisplit_fused_large_m<B: BucketFn + ?Sized, V: Scalar>(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    values: Option<&GlobalBuffer<V>>,
    n: usize,
    bucket: &B,
    wpb: usize,
) -> DeviceMultisplit<V> {
    let m = bucket.num_buckets();
    if n == 0 {
        return empty_result(m as usize, values.is_some());
    }
    with_fresh_outputs(n, values.is_some(), |ok, ov| {
        multisplit_fused_large_m_into(dev, keys, values, n, bucket, wpb, ok, ov)
    })
}

/// [`multisplit_fused_large_m`] writing into **caller-provided** output
/// buffers (see [`crate::fused::multisplit_fused_into`]). Returns the
/// `m + 1` bucket offsets.
#[allow(clippy::too_many_arguments)]
pub fn multisplit_fused_large_m_into<B: BucketFn + ?Sized, V: Scalar>(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    values: Option<&GlobalBuffer<V>>,
    n: usize,
    bucket: &B,
    wpb: usize,
    out_keys: &GlobalBuffer<u32>,
    out_values: Option<&GlobalBuffer<V>>,
) -> Vec<u32> {
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
    fused_into(dev, keys, values, n, bucket, wpb, out_keys, out_values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::{FnBuckets, RangeBuckets};
    use crate::common::no_values;
    use crate::common::test_util::{keys_for, stats_of};
    use crate::cpu_ref::{multisplit_kv_ref, multisplit_ref};
    use crate::large_m::multisplit_large_m;
    use simt::{lanes_from_fn, Device, K40C, WARP_SIZE};

    // Reference agreement, coarsening and schedule independence of every
    // standalone path are tested once, in `crate::sweep`.

    #[test]
    fn budget_is_exact_at_the_capacity_boundary() {
        // A run at m == max_buckets must fit (alloc_shared panics if the
        // formula lied), and the bound must be tight, not merely safe.
        let dev = Device::new(K40C);
        let wpb = 8;
        for kv in [false, true] {
            let m = max_buckets(wpb, kv);
            assert!(m >= 1024, "kv={kv}: m={m}");
            let bucket = RangeBuckets::new(m);
            let n = 600;
            let data = keys_for(n, 1);
            let keys = GlobalBuffer::from_slice(&data);
            if kv {
                let vals: Vec<u32> = (0..n as u32).collect();
                let values = GlobalBuffer::from_slice(&vals);
                let r = multisplit_fused_large_m(&dev, &keys, Some(&values), n, &bucket, wpb);
                let (ek, ev, _) = multisplit_kv_ref(&data, Some(&vals), &bucket);
                assert_eq!(r.keys.to_vec(), ek, "kv m={m}");
                assert_eq!(r.values.unwrap().to_vec(), ev);
            } else {
                let r = multisplit_fused_large_m(&dev, &keys, no_values(), n, &bucket, wpb);
                let (expect, _) = multisplit_ref(&data, &bucket);
                assert_eq!(r.keys.to_vec(), expect, "m={m}");
            }
            let vw = if kv { 1 } else { 0 };
            assert!(footprint_words(wpb, m as usize, 1, vw) <= SMEM_BUDGET_WORDS);
            assert!(
                footprint_words(wpb, m as usize + 1, 1, vw) > SMEM_BUDGET_WORDS,
                "kv={kv}: max_buckets must be tight"
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
        let _ = multisplit_fused_large_m(&dev, &keys, no_values(), 3, &bucket, 8);
    }

    #[test]
    fn fused_moves_at_least_20_percent_fewer_sectors() {
        // At n = 2^20, m = 64: fused vs three-kernel large-m.
        let n = 1 << 20;
        let bucket = RangeBuckets::new(64);
        let data = keys_for(n, 2);
        let dev_f = Device::sequential(K40C);
        let keys = GlobalBuffer::from_slice(&data);
        let rf = multisplit_fused_large_m(&dev_f, &keys, no_values(), n, &bucket, 8);
        let fused = stats_of(&dev_f, "").sectors;
        let dev_t = Device::sequential(K40C);
        let rt = multisplit_large_m(&dev_t, &keys, no_values(), n, &bucket, 8);
        let three = stats_of(&dev_t, "").sectors;
        assert_eq!(
            rf.keys.to_vec(),
            rt.keys.to_vec(),
            "bit-identical pipelines"
        );
        assert_eq!(rf.offsets, rt.offsets);
        assert!(
            (fused as f64) <= 0.80 * three as f64,
            "fused {fused} vs three-kernel {three} sectors: need >= 20% reduction"
        );
    }

    #[test]
    fn padded_staging_eliminates_reorder_conflicts() {
        // bucket = key % m on consecutive keys with m = tile / 32 gives
        // every bucket exactly 32 elements per tile, so the reorder
        // scatter is a pure stride-32 store — 32-way serialized on an
        // unpadded layout, the worst case padding exists for. With padding
        // (and the odd histogram pitch), every shared access in both
        // kernels is structured: zero bank conflicts end to end.
        let wpb = 8;
        let m = 128u32;
        let ipt = crate::sweep::items_per_thread(wpb, m as usize, 0, 0).unwrap();
        assert_eq!(ipt, 16);
        let tile = wpb * WARP_SIZE * ipt;
        assert_eq!(tile / WARP_SIZE, m as usize);
        let n = 2 * tile;
        let data: Vec<u32> = (0..n as u32).collect();
        let bucket = FnBuckets::new(m, move |k| k % m);
        let dev = Device::sequential(K40C);
        let keys = GlobalBuffer::from_slice(&data);
        let r = multisplit_fused_large_m(&dev, &keys, no_values(), n, &bucket, wpb);
        let (expect, _) = multisplit_ref(&data, &bucket);
        assert_eq!(r.keys.to_vec(), expect);
        for rec in dev.records() {
            assert_eq!(
                rec.stats.smem_bank_conflicts, 0,
                "{}: padded staging must leave no bank conflicts",
                rec.label
            );
        }
        // Counterfactual: the identical stride-32 rank store into
        // *unpadded* staging hits one bank from all 32 lanes.
        let dev2 = Device::sequential(K40C);
        dev2.launch("unpadded-staging", 1, 1, |blk| {
            let buf = blk.alloc_shared::<u32>(tile);
            for w in blk.warps() {
                let _ = w; // one warp; the store below is the whole point
                buf.st(
                    lanes_from_fn(|l| l * WARP_SIZE),
                    lanes_from_fn(|l| l as u32),
                    simt::FULL_MASK,
                );
            }
        });
        let unpadded = dev2.records()[0].stats.smem_bank_conflicts;
        assert_eq!(
            unpadded,
            31 * 32,
            "the unpadded layout must show the full serialization padding removes"
        );
    }
}
