//! Fused single-pass multisplit via per-bucket decoupled look-back — the
//! structure of the OneSweep radix sort applied to multisplit — for every
//! bucket count the sweep fits in shared memory, `1 ≤ m ≤`
//! [`max_buckets`] (≈1.2k at 8 warps).
//!
//! The three-kernel skeleton (`pre-scan → scan → post-scan`) reads every
//! key from DRAM **twice** (once to histogram, once to scatter) and
//! round-trips the `m × L` histogram matrix through global memory. This
//! module collapses the per-tile portion of all three stages into one
//! *sweep* kernel: each block takes a tile ticket from a device atomic,
//! reads its tile of keys once into registers, builds the block's
//! per-warp `m × N_W` histogram (§5.2's Block-level layout, running
//! counts fed by Algorithm 3; the same row-vectorized layout serves
//! `m > 32`, §5.3/§6.4) and scans it block-wide, resolves its
//! **m-vector** exclusive tile prefix with the decoupled look-back of
//! [`primitives::lookback`] (one `(aggregate | inclusive-prefix)` flag
//! word per bucket per tile, L2-modeled; records wider than a warp span
//! `⌈m/32⌉` warp-sized row groups), block-reorders in shared memory, and
//! scatters directly to final positions.
//!
//! One thing cannot be fused away: the final position of a bucket-`b`
//! element also needs `base[b]` — the count of *all* keys in buckets
//! `< b`, a function of the entire input. A tile that waited on
//! later-ticketed tiles to learn it would deadlock (every worker would be
//! occupied by an earlier tile doing the same), which is exactly why
//! the OneSweep radix sort keeps a separate lightweight histogram kernel. So
//! the fused path is **two** launches instead of five-plus
//! (pre-scan + the chained scan + post-scan), and **one** when `n` fits
//! one sweep tile (`wpb × 32 × items_per_thread` keys, 8,192 at 8 warps
//! up to 256 buckets, key-only or with 4-byte payloads): the tile's own
//! histogram scan then gives every final
//! position, so the sweep writes its reordered tile in place and reads
//! the offsets from its look-back record, with no pre-scan:
//!
//! 1. `fused/pre-scan` — the one pre-scan kernel of [`crate::prescan`]:
//!    one resident wave of blocks, at the pre-scan's own block size,
//!    walks the tiles, each block counting into block-private shared
//!    counters and then adding its non-zero counters into `m` global
//!    counters once.
//!    Traffic: n key reads + at most `m` atomics per block; the m × L
//!    matrix never exists.
//! 2. `fused/sweep` — everything else, with the per-bucket tile prefixes
//!    resolved through flag words instead of a scanned matrix. Traffic:
//!    n key reads + n coalesced writes + 3 record-sized flag accesses per
//!    tile per 32-row group.
//!
//! Past 32 buckets the same two launches are labelled
//! `fused_large_m/…`: the labels name how the pre-scan counts
//! (thread-private packed byte counters up to the warp width, one shared
//! atomic per key beyond; [`HistStrategy`]), not a different algorithm.
//!
//! Net: keys cross DRAM twice-read + once-written becomes ~1.5×n total
//! sectors saved — measured ≈ one-third fewer counted sectors than the
//! three-kernel block-level MS, and a saving that widens with `m` against
//! the three-kernel large-m pipeline, whose histogram matrix grows with
//! `m` (see `paper fused` / `paper largem` / EXPERIMENTS.md).
//!
//! Tiles are coarsened as far as shared memory and the register bound
//! [`MAX_ITEMS_PER_THREAD`] allow (the per-warp histogram does not grow
//! with the tile, so staging takes the rest of the budget, and keys and
//! payloads take turns in one staging buffer; at 8 warps every tile up
//! to 256 buckets, key-only or with 4-byte payloads, reaches the bound)
//! so flag-word traffic and the histogram scan amortize and same-bucket
//! runs in the block reorder approach sector length even at m = 256.
//!
//! The sweep is the shared tile sweep of [`crate::sweep`], the same
//! kernel for every `m`, and the whole pipeline is the one-segment case
//! of a segmented batch (`SweepPlan::one`, descriptors passed by value).
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
//! the sweep's one footprint function ([`footprint_words`]):
//! [`max_buckets`] is tight at the minimum coarsening, and the coarsening
//! grows tiles as far as the remaining budget allows.
//!
//! Output buffers are always allocated with the simulator's write-race
//! detector enabled ([`simt::GlobalBuffer::tracked`]): a double-write to
//! one output slot — the classic symptom of a wrong scatter base — panics
//! instead of silently producing a permutation-shaped wrong answer.

use simt::{Device, GlobalBuffer, Scalar};

use crate::bucket::BucketFn;
use crate::common::{empty_result, with_fresh_outputs, DeviceMultisplit, SMEM_BUDGET_WORDS};
use crate::prescan::HistStrategy;
use crate::sweep::{footprint_words, items_per_thread, offsets_of, Out, SweepPlan, SweepSeg};

pub use crate::sweep::MAX_ITEMS_PER_THREAD;

/// Largest supported bucket count: the sweep at minimum coarsening
/// (`items_per_thread = 1`) must fit shared memory. Tight: `m ==
/// max_buckets` fits, `m + 1` would overflow `alloc_shared`. Below
/// [`crate::large_m::max_buckets`] at every block size, which `auto_for`
/// relies on.
pub fn max_buckets(wpb: usize, key_value: bool) -> u32 {
    max_buckets_bytes(wpb, if key_value { 4 } else { 0 })
}

/// [`max_buckets`] for an explicit payload width. The bool form assumes a
/// one-word payload, which fits its key's staging slot, but a wider
/// payload widens the slot — ms-sort's reduced-bit fallback runs packed
/// `u64` payloads through this sweep, and at wide blocks the capacity
/// difference is real (e.g. `wpb = 32`: 329 buckets for `u32` payloads,
/// 298 for `u64`).
pub fn max_buckets_bytes(wpb: usize, value_bytes: u64) -> u32 {
    // The footprint is affine in m: a fixed part plus one histogram row
    // (pitch wpb | 1) and one scatter-base word per bucket.
    let vw = value_bytes as usize / 4;
    let fixed = footprint_words(wpb, 0, 1, vw);
    let per_bucket = footprint_words(wpb, 1, 1, vw) - fixed;
    ((SMEM_BUDGET_WORDS - fixed) / per_bucket) as u32
}

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
/// pre-scan's counting (`fused/…` for private counters,
/// `fused_large_m/…` for shared atomics).
fn labels(m: u32) -> [&'static str; 2] {
    match HistStrategy::for_buckets(m) {
        HistStrategy::Private => ["fused/pre-scan", "fused/sweep"],
        HistStrategy::Atomic => ["fused_large_m/pre-scan", "fused_large_m/sweep"],
    }
}

/// The one capacity check of the standalone paths: the largest sweep
/// coarsening for `m` buckets at this block size, panicking when even one
/// item per thread overflows shared memory (`m` past
/// [`max_buckets_bytes`]).
fn sweep_ipt(m: u32, value_bytes: u64, wpb: usize) -> usize {
    items_per_thread(wpb, m as usize, value_bytes, 0).unwrap_or_else(|| {
        panic!(
            "m = {m} exceeds shared-memory capacity for {wpb} warps/block (max {})",
            max_buckets_bytes(wpb, value_bytes)
        )
    })
}

/// The sweep alone, for callers that already know every bucket's
/// total: one launch that scatters the keys (and values) of `[0, n)` to
/// their final bucket positions in the caller-provided outputs. This is
/// the one sweep entry point of ms-sort's digit passes (whose totals all
/// come from one up-front histogram launch). The launch is labelled
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
    let m = bucket.num_buckets();
    check_into_buffers(keys, values, n, out_keys, out_values);
    assert_eq!(totals.len(), m as usize, "one bucket total per bucket");
    assert_eq!(
        totals.iter().map(|&t| t as u64).sum::<u64>(),
        n as u64,
        "bucket totals must sum to n"
    );
    if n == 0 {
        return vec![0; m as usize + 1];
    }
    let value_bytes = if values.is_some() { V::BYTES } else { 0 };
    let seg = SweepSeg {
        offset: 0,
        n,
        bucket,
        ipt: sweep_ipt(m, value_bytes, wpb),
    };
    let offsets = offsets_of(totals);
    let bases = GlobalBuffer::from_slice(&offsets[..m as usize]);
    let out = Out {
        bases: &bases,
        keys: out_keys,
        values: out_values,
    };
    SweepPlan::one(seg, wpb).sweep(dev, labels(m)[1], keys, values, &out);
    offsets
}

/// Fused two-launch (one-launch for one tile) multisplit over any
/// `1 <= m <= max_buckets(wpb, _)` buckets.
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

/// [`multisplit_fused`] writing into **caller-provided** output buffers:
/// the one-segment case of `SweepPlan::split`, a pre-scan for the
/// bucket totals and then the sweep, or the sweep alone when `n` fits one
/// tile. Returns the `m + 1` bucket offsets.
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
    let m = bucket.num_buckets();
    check_into_buffers(keys, values, n, out_keys, out_values);
    if n == 0 {
        return vec![0; m as usize + 1];
    }
    let value_bytes = if values.is_some() { V::BYTES } else { 0 };
    let seg = SweepSeg {
        offset: 0,
        n,
        bucket,
        ipt: sweep_ipt(m, value_bytes, wpb),
    };
    let plan = SweepPlan::one(seg, wpb);
    let mut offsets = plan.split(dev, labels(m), keys, values, out_keys, out_values);
    offsets.pop().expect("one segment")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_level::multisplit_block_level;
    use crate::bucket::{FnBuckets, RangeBuckets};
    use crate::common::no_values;
    use crate::common::test_util::{keys_for, stats_of};
    use crate::cpu_ref::{multisplit_kv_ref, multisplit_ref};
    use crate::large_m::multisplit_large_m;
    use simt::{lanes_from_fn, Device, K40C, WARP_SIZE};

    // Reference agreement, coarsening and schedule independence of every
    // standalone path are tested once, in `crate::sweep`.

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

    /// Bucket counts from past the warp width up to capacity run, at
    /// narrow, default and wide blocks, key-only and key-value; capacity
    /// + 1 panics with the capacity message.
    #[test]
    fn accepts_every_m_up_to_capacity_and_rejects_one_more() {
        let n = 300;
        let data = keys_for(n, 7);
        let vals: Vec<u32> = (0..n as u32).collect();
        let keys = GlobalBuffer::from_slice(&data);
        let values = GlobalBuffer::from_slice(&vals);
        let dev = Device::new(K40C);
        for wpb in [1usize, 8, 32] {
            for kv in [false, true] {
                let values = kv.then_some(&values);
                let cap = max_buckets(wpb, kv);
                for m in [33, (33 + cap) / 2, cap] {
                    let bucket = RangeBuckets::new(m);
                    let r = multisplit_fused(&dev, &keys, values, n, &bucket, wpb);
                    let (ek, ev, eo) = multisplit_kv_ref(&data, kv.then_some(&vals[..]), &bucket);
                    let case = format!("wpb={wpb} kv={kv} m={m}");
                    assert_eq!(r.keys.to_vec(), ek, "{case}");
                    assert_eq!(r.values.map(|v| v.to_vec()), kv.then_some(ev), "{case}");
                    assert_eq!(r.offsets, eo, "{case}");
                }
                let bucket = RangeBuckets::new(cap + 1);
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    multisplit_fused(&dev, &keys, values, n, &bucket, wpb);
                }))
                .expect_err("capacity + 1 must panic");
                let msg = err.downcast_ref::<String>().expect("a formatted message");
                assert!(
                    msg.contains("exceeds shared-memory capacity")
                        && msg.contains(&format!("(max {cap})")),
                    "wpb={wpb} kv={kv}: {msg}"
                );
            }
        }
    }

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
                let r = multisplit_fused(&dev, &keys, Some(&values), n, &bucket, wpb);
                let (ek, ev, _) = multisplit_kv_ref(&data, Some(&vals), &bucket);
                assert_eq!(r.keys.to_vec(), ek, "kv m={m}");
                assert_eq!(r.values.unwrap().to_vec(), ev);
            } else {
                let r = multisplit_fused(&dev, &keys, no_values(), n, &bucket, wpb);
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
        let _ = multisplit_fused(&dev, &keys, no_values(), 3, &bucket, 8);
    }

    /// At n = 2^20 the fused pipeline must report >= 20% fewer total
    /// counted DRAM sectors than the three-kernel pipeline it replaces,
    /// with bit-identical outputs: block-level MS at m = 32 and the
    /// large-m pipeline at m = 64.
    #[test]
    fn fused_moves_at_least_20_percent_fewer_sectors() {
        let n = 1 << 20;
        let data = keys_for(n, 2);
        let keys = GlobalBuffer::from_slice(&data);
        type ThreeKernel = fn(
            &Device,
            &GlobalBuffer<u32>,
            Option<&GlobalBuffer<u32>>,
            usize,
            &RangeBuckets,
            usize,
        ) -> DeviceMultisplit<u32>;
        let rows: [(ThreeKernel, u32); 2] =
            [(multisplit_block_level, 32), (multisplit_large_m, 64)];
        for (three_kernel, m) in rows {
            let bucket = RangeBuckets::new(m);
            let dev_f = Device::sequential(K40C);
            let rf = multisplit_fused(&dev_f, &keys, no_values(), n, &bucket, 8);
            let fused = stats_of(&dev_f, "").sectors;
            let dev_t = Device::sequential(K40C);
            let rt = three_kernel(&dev_t, &keys, no_values(), n, &bucket, 8);
            let three = stats_of(&dev_t, "").sectors;
            assert_eq!(rf.keys.to_vec(), rt.keys.to_vec(), "m={m}: bit-identical");
            assert_eq!(rf.offsets, rt.offsets, "m={m}");
            assert!(
                (fused as f64) <= 0.80 * three as f64,
                "m={m}: fused {fused} vs three-kernel {three} sectors: need >= 20% reduction"
            );
        }
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
        let m = 256u32;
        let ipt = items_per_thread(wpb, m as usize, 0, 0).unwrap();
        assert_eq!(ipt, 32);
        let tile = wpb * WARP_SIZE * ipt;
        assert_eq!(tile / WARP_SIZE, m as usize);
        let n = 2 * tile;
        let data: Vec<u32> = (0..n as u32).collect();
        let bucket = FnBuckets::new(m, move |k| k % m);
        let dev = Device::sequential(K40C);
        let keys = GlobalBuffer::from_slice(&data);
        let r = multisplit_fused(&dev, &keys, no_values(), n, &bucket, wpb);
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
