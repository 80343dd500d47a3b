//! Fused single-pass multisplit (m ≤ 32) via per-bucket decoupled
//! look-back — the Onesweep structure applied to multisplit.
//!
//! The three-kernel skeleton (`pre-scan → scan → post-scan`) reads every
//! key from DRAM **twice** (once to histogram, once to scatter) and
//! round-trips the `m × L` histogram matrix through global memory. This
//! module collapses the per-tile portion of all three stages into one
//! *sweep* kernel: each block takes a tile ticket from a device atomic,
//! reads its tile of keys once into registers, computes warp→block
//! histograms (Algorithm 2 + the §5.1 multi-scan, unchanged), resolves
//! its **m-vector** exclusive tile prefix with the decoupled look-back of
//! [`primitives::lookback`] (one `(aggregate | inclusive-prefix)` flag
//! word per bucket per tile, L2-modeled), block-reorders in shared
//! memory, and scatters directly to final positions.
//!
//! One thing cannot be fused away: the final position of a bucket-`b`
//! element also needs `base[b]` — the count of *all* keys in buckets
//! `< b`, a function of the entire input. A tile that waited on
//! later-ticketed tiles to learn it would deadlock (every worker would be
//! occupied by an earlier tile doing the same), which is exactly why
//! Onesweep radix sort keeps a separate lightweight histogram kernel. So
//! the fused path is **two** launches instead of five-plus
//! (pre-scan + the chained scan + post-scan):
//!
//! 1. `fused/pre-scan` — per-warp register-accumulated histograms over a
//!    coarsened tile, multi-reduced across warps, then one warp-wide
//!    `atomicAdd` into `m` global counters. Traffic: n key reads +
//!    O(m · blocks) atomics; the m × L matrix never exists.
//! 2. `fused/sweep` — everything else, with the per-bucket tile prefixes
//!    resolved through flag words instead of a scanned matrix. Traffic:
//!    n key reads + n coalesced writes + 3 record-sized flag accesses per
//!    tile.
//!
//! Net: keys cross DRAM twice-read + once-written becomes ~1.5×n total
//! sectors saved — measured ≈ one-third fewer counted sectors than the
//! three-kernel block-level MS (see `paper fused` / EXPERIMENTS.md).
//!
//! Tiles are coarsened (up to [`MAX_ITEMS_PER_THREAD`] chunks of 32 per
//! warp, as much as shared memory allows) so flag-word traffic amortizes
//! and same-bucket runs in the block reorder approach sector length even
//! at m = 32.
//!
//! Both kernels are the shared tile sweep of [`crate::sweep`] with the
//! ballot histogram strategy, run as its one-segment case (descriptor
//! passed by value). `fused_large_m.rs` is the same pipeline with
//! register-row histograms.
//!
//! Output buffers are always allocated with the simulator's write-race
//! detector enabled ([`simt::GlobalBuffer::tracked`]): a double-write to
//! one output slot — the classic symptom of a wrong scatter base — panics
//! instead of silently producing a permutation-shaped wrong answer.

use simt::{Device, GlobalBuffer, Scalar};

use crate::bucket::BucketFn;
use crate::common::{empty_result, with_fresh_outputs, DeviceMultisplit};
use crate::sweep::{HistStrategy, Scatter, SweepKind, SweepPlan, SweepSeg};

pub use crate::sweep::MAX_ITEMS_PER_THREAD;

/// The standalone fused pipeline for any `m` the direct sweep fits at
/// this block size: the one-segment case of the sweep, its descriptor
/// passed by value. Launch labels name the histogram strategy (`fused/…`
/// for ballot, `fused_large_m/…` for register rows).
#[allow(clippy::too_many_arguments)]
pub(crate) fn fused_into<B: BucketFn + ?Sized, V: Scalar>(
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
    assert!(keys.len() >= n, "key buffer shorter than n");
    assert!(out_keys.len() >= n, "output key buffer shorter than n");
    assert_eq!(
        values.is_some(),
        out_values.is_some(),
        "value output must be provided exactly when values are"
    );
    if let Some(ov) = out_values {
        assert!(ov.len() >= n, "output value buffer shorter than n");
    }
    if n == 0 {
        return vec![0; m as usize + 1];
    }
    let kind = SweepKind::for_buckets(m, Scatter::Direct);
    let value_bytes = if values.is_some() { V::BYTES } else { 0 };
    let ipt = kind
        .items_per_thread(wpb, m as usize, value_bytes, 0)
        .unwrap_or_else(|| panic!("m = {m} overflows shared memory at {wpb} warps/block"));
    let labels = match kind.hist {
        HistStrategy::Ballot => ["fused/pre-scan", "fused/sweep"],
        HistStrategy::Rows => ["fused_large_m/pre-scan", "fused_large_m/sweep"],
    };
    let seg = SweepSeg {
        offset: 0,
        n,
        bucket,
        ipt,
    };
    let plan = SweepPlan::one(seg, wpb);
    plan.split(dev, labels, keys, values, out_keys, out_values)
        .pop()
        .expect("one segment")
}

/// Fused single-kernel-sweep multisplit over `m <= 32` buckets.
///
/// Same contract as the other `multisplit_*` entry points (stable, keys
/// permuted into `m` contiguous buckets, `m + 1` offsets returned);
/// dispatched from [`crate::api::Method::Fused`].
pub fn multisplit_fused<B: BucketFn + ?Sized, V: Scalar>(
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
        multisplit_fused_into(dev, keys, values, n, bucket, wpb, ok, ov)
    })
}

/// [`multisplit_fused`] writing into **caller-provided** output buffers —
/// the pass-chaining entry point for ms-sort's ping-pong buffering: pass
/// `k` scatters directly into pass `k+1`'s input with no copy kernel in
/// between. Returns the `m + 1` bucket offsets.
///
/// The output buffers may be `tracked()`; each launch opens a fresh
/// race-detector epoch, so reusing them across passes is safe. Contents
/// beyond `n` are left untouched.
#[allow(clippy::too_many_arguments)]
pub fn multisplit_fused_into<B: BucketFn + ?Sized, V: Scalar>(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    values: Option<&GlobalBuffer<V>>,
    n: usize,
    bucket: &B,
    wpb: usize,
    out_keys: &GlobalBuffer<u32>,
    out_values: Option<&GlobalBuffer<V>>,
) -> Vec<u32> {
    assert!(
        bucket.num_buckets() <= 32,
        "fused multisplit requires m <= 32 (use the large-m path)"
    );
    fused_into(dev, keys, values, n, bucket, wpb, out_keys, out_values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_level::multisplit_block_level;
    use crate::bucket::RangeBuckets;
    use crate::common::no_values;
    use crate::common::test_util::{keys_for, stats_of};
    use simt::{Device, K40C};

    #[test]
    fn fused_moves_at_least_20_percent_fewer_sectors() {
        // At n = 2^20, m = 32 the fused pipeline must report >= 20% fewer
        // total counted DRAM sectors than the three-kernel block-level MS.
        // (Reference agreement and schedule independence of every
        // standalone path are tested once, in `crate::sweep`.)
        let n = 1 << 20;
        let bucket = RangeBuckets::new(32);
        let data = keys_for(n, 2);
        let dev_f = Device::sequential(K40C);
        let keys = GlobalBuffer::from_slice(&data);
        let rf = multisplit_fused(&dev_f, &keys, no_values(), n, &bucket, 8);
        let fused = stats_of(&dev_f, "").sectors;
        let dev_b = Device::sequential(K40C);
        let rb = multisplit_block_level(&dev_b, &keys, no_values(), n, &bucket, 8);
        let three = stats_of(&dev_b, "").sectors;
        assert_eq!(rf.keys.to_vec(), rb.keys.to_vec(), "bit-identical paths");
        assert_eq!(rf.offsets, rb.offsets);
        assert!(
            (fused as f64) <= 0.80 * three as f64,
            "fused {fused} vs three-kernel {three} sectors: need >= 20% reduction"
        );
    }
}
