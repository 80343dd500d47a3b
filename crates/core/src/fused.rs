//! Fused single-pass multisplit (m ≤ 32) via per-bucket decoupled
//! look-back — the Onesweep structure applied to multisplit.
//!
//! The three-kernel skeleton (`pre-scan → scan → post-scan`) reads every
//! key from DRAM **twice** (once to histogram, once to scatter) and
//! round-trips the `m × L` histogram matrix through global memory. This
//! module collapses the per-tile portion of all three stages into one
//! *sweep* kernel: each block takes a tile ticket from a device atomic,
//! reads its tile of keys once into registers, builds the block's
//! per-warp `m × N_W` histogram (§5.2's Block-level layout, running
//! counts fed by Algorithm 3) and scans it block-wide, resolves
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
//! 1. `fused/pre-scan` — the one pre-scan kernel of [`crate::prescan`]:
//!    each block counts an 8,192-key tile (at 8 warps) into block-private
//!    shared counters with ballot histograms, then adds its non-zero
//!    counters into `m` global counters. Traffic: n key reads + at most
//!    `m` atomics per 8,192 keys; the m × L matrix never exists.
//! 2. `fused/sweep` — everything else, with the per-bucket tile prefixes
//!    resolved through flag words instead of a scanned matrix. Traffic:
//!    n key reads + n coalesced writes + 3 record-sized flag accesses per
//!    tile.
//!
//! Net: keys cross DRAM twice-read + once-written becomes ~1.5×n total
//! sectors saved — measured ≈ one-third fewer counted sectors than the
//! three-kernel block-level MS (see `paper fused` / EXPERIMENTS.md).
//!
//! Tiles are coarsened as far as shared memory allows (the per-warp
//! histogram does not grow with the tile, so staging takes the rest of
//! the budget; key-only tiles at 8 warps reach [`MAX_ITEMS_PER_THREAD`])
//! so flag-word traffic and the histogram scan amortize and same-bucket
//! runs in the block reorder approach sector length even at m = 32.
//!
//! The sweep is the shared tile sweep of [`crate::sweep`], the same
//! kernel for every `m`, run as its one-segment case (descriptor passed
//! by value). `fused_large_m.rs` is the same pipeline beyond 32 buckets,
//! where the pre-scan counts with shared atomics instead of ballots.
//!
//! Output buffers are always allocated with the simulator's write-race
//! detector enabled ([`simt::GlobalBuffer::tracked`]): a double-write to
//! one output slot — the classic symptom of a wrong scatter base — panics
//! instead of silently producing a permutation-shaped wrong answer.

use simt::{Device, GlobalBuffer, Scalar};

use crate::bucket::BucketFn;
use crate::common::{empty_result, with_fresh_outputs, DeviceMultisplit};
use crate::prescan::{bucket_totals, HistStrategy};
use crate::sweep::{Out, SweepKind, SweepPlan, SweepSeg};

pub use crate::sweep::MAX_ITEMS_PER_THREAD;

/// Check a caller-provided-output call's buffer lengths and pairing.
fn check_into_buffers<V: Scalar>(
    keys: &GlobalBuffer<u32>,
    values: Option<&GlobalBuffer<V>>,
    n: usize,
    out_keys: &GlobalBuffer<u32>,
    out_values: Option<&GlobalBuffer<V>>,
) {
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
}

/// The standalone `[pre-scan, sweep]` launch labels, which name the
/// pre-scan's counting (`fused/…` for ballots, `fused_large_m/…` for
/// shared atomics).
fn labels(m: u32) -> [&'static str; 2] {
    match HistStrategy::for_buckets(m) {
        HistStrategy::Ballot => ["fused/pre-scan", "fused/sweep"],
        HistStrategy::Atomic => ["fused_large_m/pre-scan", "fused_large_m/sweep"],
    }
}

/// The standalone fused pipeline for any `m` the direct sweep fits at
/// this block size: a pre-scan for the bucket totals, then
/// [`multisplit_sweep_into`].
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
    check_into_buffers(keys, values, n, out_keys, out_values);
    if n == 0 {
        return vec![0; bucket.num_buckets() as usize + 1];
    }
    let label = labels(bucket.num_buckets())[0];
    let totals = bucket_totals(dev, label, keys, n, &[bucket], wpb).remove(0);
    multisplit_sweep_into(
        dev, keys, values, n, bucket, wpb, &totals, out_keys, out_values,
    )
}

/// The direct sweep alone, for callers that already know every bucket's
/// total: one launch that scatters the keys (and values) of `[0, n)` to
/// their final bucket positions in the caller-provided outputs. This is
/// the one sweep entry point of the standalone fused paths (which run a
/// pre-scan first) and of ms-sort's digit passes (whose totals all come
/// from one up-front histogram launch). The launch is labelled
/// `fused/sweep` for `m <= 32` and `fused_large_m/sweep` beyond.
///
/// `totals[b]` must be the number of the `n` keys in bucket `b`. Returns
/// the `m + 1` bucket offsets. The outputs may be `tracked()`, and reused
/// across calls: each launch opens a fresh race-detector epoch.
#[allow(clippy::too_many_arguments)]
pub fn multisplit_sweep_into<B: BucketFn + ?Sized, V: Scalar>(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    values: Option<&GlobalBuffer<V>>,
    n: usize,
    bucket: &B,
    wpb: usize,
    totals: &[u32],
    out_keys: &GlobalBuffer<u32>,
    out_values: Option<&GlobalBuffer<V>>,
) -> Vec<u32> {
    let m = bucket.num_buckets() as usize;
    check_into_buffers(keys, values, n, out_keys, out_values);
    assert_eq!(totals.len(), m, "one bucket total per bucket");
    assert_eq!(
        totals.iter().map(|&t| t as u64).sum::<u64>(),
        n as u64,
        "bucket totals must sum to n"
    );
    if n == 0 {
        return vec![0; m + 1];
    }
    let value_bytes = if values.is_some() { V::BYTES } else { 0 };
    let ipt = SweepKind::DIRECT
        .items_per_thread(wpb, m, value_bytes, 0)
        .unwrap_or_else(|| panic!("m = {m} overflows shared memory at {wpb} warps/block"));
    let seg = SweepSeg {
        offset: 0,
        n,
        bucket,
        ipt,
    };
    let plan = SweepPlan::one(seg, wpb);
    let (bases, mut offsets) = plan.bases(totals);
    let out = Out::Final {
        bases: &bases,
        keys: out_keys,
        values: out_values,
    };
    plan.sweep(dev, labels(m as u32)[1], keys, values, &out);
    offsets.pop().expect("one segment")
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

/// [`multisplit_fused`] writing into **caller-provided** output buffers.
/// Returns the `m + 1` bucket offsets.
///
/// The output buffers may be `tracked()`; each launch opens a fresh
/// race-detector epoch, so reusing them across calls is safe. Contents
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
    #[should_panic(expected = "bucket totals must sum to n")]
    fn sweep_rejects_totals_that_miss_keys() {
        let dev = Device::new(K40C);
        let keys = GlobalBuffer::from_slice(&[1u32, 2, 3]);
        let out = GlobalBuffer::<u32>::zeroed(3);
        let bucket = RangeBuckets::new(2);
        let _ = multisplit_sweep_into(
            &dev,
            &keys,
            no_values(),
            3,
            &bucket,
            8,
            &[1, 1],
            &out,
            no_values(),
        );
    }

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
