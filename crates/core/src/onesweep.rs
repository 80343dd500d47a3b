//! Onesweep multisplit (m ≤ 32): chain tile *histograms* through the
//! multi-row look-back so every key is read from DRAM exactly once.
//!
//! The fused path (`fused.rs`) still reads keys twice: a lightweight
//! `fused/pre-scan` histograms the whole input into `m` global counters
//! because a tile cannot learn `base[b]` — the count of all keys in
//! buckets `< b`, a function of the *entire* input — without waiting on
//! later-ticketed tiles, which would deadlock. This module removes the
//! pre-scan by making the chained look-back records themselves carry the
//! global histogram: each tile publishes its m-vector tile histogram as
//! its AGGREGATE, so the **last tile's inclusive record is the global
//! per-bucket total** — the old global-totals buffer, for free. The price
//! is that final positions are only known once the chain has fully
//! resolved, so the scatter is *deferred*:
//!
//! 1. `onesweep/sweep` (ticketed) — the shared tile sweep of
//!    [`crate::sweep`] with the [`Scatter::Deferred`] flag: read the
//!    tile's keys **once**, histogram, publish + resolve the m-row
//!    look-back record, block-reorder into bank-padded shared staging,
//!    and write the bucket-dense tile to a global `staged` scratch at
//!    `[t*tile ..]` (coalesced).
//! 2. Host: exclusive-scan the last tile's inclusive row totals
//!    ([`SegmentedTileStates::row_totals`]) into the `m` global bucket
//!    bases — the launch boundary is the device-wide barrier that makes
//!    every record INCLUSIVE.
//! 3. `onesweep/scatter` (block = tile, no ticket, no spinning) — read
//!    the staged tile back coalesced, recompute buckets (ALU only),
//!    rebuild the tile's exclusive prefix and histogram from its own and
//!    its predecessor's resolved records
//!    ([`SegmentedTileStates::read_record`], the same counted per-group
//!    charge the walk bills), and scatter to final positions.
//!
//! Traffic honesty: the *key buffer* is read once (n sectors' worth vs
//! the fused path's 2n), but the staged round-trip makes **total**
//! traffic ~4n words against fused's ~3n. That is the known floor: "read
//! keys once" + "bucket-contiguous output" forces either a second key
//! pass (fused) or a staging pass (here); see DESIGN.md §11.
//! [`crate::api::Method::auto`] therefore still prefers `Fused`; Onesweep
//! exists for workloads where key-buffer reads are the scarce resource
//! (e.g. keys streamed from a slower tier) and as the paper-faithful
//! "single pass over the input" formulation.
//!
//! Outputs and the staged scratch are allocated with the write-race
//! detector on ([`simt::GlobalBuffer::tracked`]); launches are distinct
//! detector epochs, so the cross-launch staging flow is checked, not
//! exempted.
//!
//! [`SegmentedTileStates::row_totals`]: primitives::SegmentedTileStates::row_totals
//! [`SegmentedTileStates::read_record`]: primitives::SegmentedTileStates::read_record

use simt::{lanes_from_fn, Device, EventKind, GlobalBuffer, Scalar, WARP_SIZE};

use primitives::{low_lanes_mask, tail_mask, warp_scan};

use crate::bucket::BucketFn;
use crate::common::{empty_result, eval_buckets, DeviceMultisplit};
use crate::sweep::{Out, Scatter, SweepKind, SweepPlan, SweepSeg};

/// Single-key-pass multisplit over `m <= 32` buckets via chained tile
/// histograms and a deferred scatter.
///
/// Same contract as the other `multisplit_*` entry points (stable, keys
/// permuted into `m` contiguous buckets, `m + 1` offsets returned);
/// dispatched from [`crate::api::Method::Onesweep`].
pub fn multisplit_onesweep<B: BucketFn + ?Sized, V: Scalar>(
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
        "onesweep multisplit requires m <= 32 (use the large-m paths)"
    );
    assert!(keys.len() >= n, "key buffer shorter than n");
    if n == 0 {
        return empty_result(m as usize, values.is_some());
    }
    let mu = m as usize;
    let value_bytes = if values.is_some() { V::BYTES } else { 0 };
    let ipt = SweepKind::for_buckets(m, Scatter::Deferred)
        .items_per_thread(wpb, mu, value_bytes, 0)
        .unwrap_or_else(|| panic!("onesweep overflows shared memory at {wpb} warps/block"));
    let tile = wpb * WARP_SIZE * ipt;
    let l = n.div_ceil(tile); // tiles

    // Bucket-dense staging scratch: tile t's region [t*tile, t*tile+valid)
    // holds its reordered keys (and payloads), written once in the sweep
    // and read once in the scatter.
    let staged = GlobalBuffer::<u32>::zeroed(n).tracked();
    let staged_vals = values.map(|_| GlobalBuffer::<V>::zeroed(n).tracked());

    // ====== Launch 1: the single pass over the keys.
    let seg = SweepSeg {
        offset: 0,
        n,
        bucket,
        ipt,
    };
    let plan = SweepPlan::one(seg, wpb);
    let out = Out::Staged {
        keys: &staged,
        values: staged_vals.as_ref(),
    };
    let states = plan.sweep(dev, "onesweep/sweep", keys, values, &out);

    // ====== Host: the last tile's inclusive record *is* the global
    // histogram — exclusive-scan it into the m bucket bases (uncounted
    // host reads, like the fused path's pre-scan totals).
    let (bases, mut offsets) = plan.bases(&states.row_totals(0));
    let offsets = offsets.pop().expect("one segment");

    // ====== Launch 2: deferred scatter. Block = tile (no ticket needed:
    // nothing waits on anything), every record already INCLUSIVE, so this
    // kernel never spins and its stats are trivially schedule-independent.
    let out_keys = GlobalBuffer::<u32>::zeroed(n).tracked();
    let out_values = values.map(|_| GlobalBuffer::<V>::zeroed(n).tracked());
    dev.launch("onesweep/scatter", l, wpb, |blk| {
        let t = blk.block_id;
        let tile_start = t * tile;
        let scatter_base = blk.alloc_shared::<u32>(mu);

        // Warp 0: rebuild this tile's exclusive prefix and histogram from
        // the resolved records — own inclusive minus predecessor
        // inclusive — then fold the three scatter terms into one table:
        // dest = bases[b] + prefix[b] + (tid - bucket_base[b])
        //      = scatter_base[b] + tid.
        {
            let w = blk.warp(0);
            let mask = low_lanes_mask(mu);
            let own = states.read_record(&w, 0, t);
            let prev = if t > 0 {
                states.read_record(&w, 0, t - 1)
            } else {
                vec![0u32; mu]
            };
            let hist = lanes_from_fn(|lane| {
                if lane < mu {
                    own[lane].wrapping_sub(prev[lane])
                } else {
                    0
                }
            });
            let bb = warp_scan::exclusive_scan_add(&w, hist);
            let gb = w.gather_cached(&bases, lanes_from_fn(|lane| lane.min(mu - 1)), mask);
            scatter_base.st(
                lanes_from_fn(|lane| lane.min(mu - 1)),
                lanes_from_fn(|lane| {
                    gb[lane]
                        .wrapping_add(prev[lane.min(mu - 1)])
                        .wrapping_sub(bb[lane])
                }),
                mask,
            );
        }
        blk.sync();

        // Coalesced read of the staged tile; buckets recomputed from the
        // staged keys (ALU only — cheaper than staging a second word per
        // element); near-coalesced scatter (bucket-dense runs).
        for w in blk.warps() {
            for c in 0..ipt {
                let chunk = w.warp_id * ipt + c;
                let base = tile_start + chunk * WARP_SIZE;
                let mask = tail_mask(base, n);
                if mask == 0 {
                    continue;
                }
                let tid = lanes_from_fn(|lane| chunk * WARP_SIZE + lane);
                let idx = lanes_from_fn(|j| if base + j < n { base + j } else { base });
                let k2 = w.gather(&staged, idx, mask);
                let b2 = eval_buckets(&w, bucket, k2, mask);
                let sb = scatter_base.ld(lanes_from_fn(|lane| b2[lane] as usize), mask);
                let dest = lanes_from_fn(|lane| sb[lane].wrapping_add(tid[lane] as u32) as usize);
                w.scatter(&out_keys, dest, k2, mask);
                if let (Some(vstg), Some(vout)) = (&staged_vals, &out_values) {
                    let v2 = w.gather(vstg, idx, mask);
                    w.scatter(vout, dest, v2, mask);
                }
            }
        }
        blk.stats()
            .obs
            .flight_emit(EventKind::ScatterComplete, t as u32, 0, 0);
    });

    DeviceMultisplit {
        keys: out_keys,
        values: out_values,
        offsets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::RangeBuckets;
    use crate::common::no_values;
    use crate::common::test_util::keys_for;
    use crate::fused::multisplit_fused;
    use simt::{Device, K40C};

    #[test]
    fn reads_keys_at_least_25_percent_less_than_fused() {
        // At n = 2^20, m = 32 the onesweep path must read >= 25% fewer
        // key-buffer DRAM sectors than Method::Fused (one key pass vs two;
        // the expected figure is ~50%). Reference agreement and schedule
        // independence are tested once for every path, in `crate::sweep`.
        let n = 1 << 20;
        let bucket = RangeBuckets::new(32);
        let data = keys_for(n, 2);
        let dev_o = Device::sequential(K40C);
        let keys_o = GlobalBuffer::from_slice(&data);
        let ro = multisplit_onesweep(&dev_o, &keys_o, no_values(), n, &bucket, 8);
        let one = keys_o.read_sectors();
        let dev_f = Device::sequential(K40C);
        let keys_f = GlobalBuffer::from_slice(&data);
        let rf = multisplit_fused(&dev_f, &keys_f, no_values(), n, &bucket, 8);
        let two = keys_f.read_sectors();
        assert_eq!(ro.keys.to_vec(), rf.keys.to_vec(), "bit-identical paths");
        assert_eq!(ro.offsets, rf.offsets);
        assert!(
            (one as f64) <= 0.75 * two as f64,
            "onesweep read {one} key sectors vs fused {two}: need >= 25% fewer"
        );
    }
}
