//! Segmented multisplit: one launch for thousands of small problems.
//!
//! The paper benchmarks one large `(n, m)` problem, but serving-shaped
//! traffic is thousands of *independent small* segments — exactly where
//! the fixed per-launch overhead (9 µs on the K40C profile) drowns the
//! kernels: a standalone fused multisplit of n = 2¹⁰ pays a launch
//! (≈9 µs) to move ~4 KB of keys (≈0.1 µs of DRAM time). This module
//! amortizes that cost across a whole batch: **one grid** processes many
//! segments, each with its own `n`, `m`, and bucket function, in the
//! launches a single problem would take — one sweep, plus one pre-scan
//! when some segment spans more than one sweep tile.
//!
//! ### Structure
//!
//! Every segment is classified by [`segment_fits_sweep`]: a segment whose
//! sweep fits shared memory next to its tile descriptor joins the
//! coalesced launch, every such `m` with the same per-warp `m × N_W`
//! histogram (the pre-scan counts `m ≤ 32` segments into thread-private
//! byte counters and wider ones with shared atomics); anything else
//! (near or past fused capacity) falls back to its own standalone
//! [`Method::auto_for`] launches under a `segmented/fallback` scope. The coalesced work is
//! the shared tile sweep of [`crate::sweep`] over many segments:
//!
//! 1. `segmented/pre-scan[fused=K,largem=J]` — the one pre-scan kernel
//!    of [`crate::prescan`], one block per pre-scan tile (32 keys per
//!    thread, at the block size the largest segment's counters choose;
//!    a standalone pre-scan's grid is one resident wave instead, but a
//!    batch's blocks each need their own descriptor) of every
//!    segment that spans more than one sweep tile (its
//!    label counts only those; with none, there is no pre-scan launch).
//!    Each block reads its 8-word tile
//!    descriptor (segment id, offset, n, m, coarsening, local tile,
//!    histogram base, padding) from a device table built at the
//!    pre-scan's tile geometry — one extra 32-byte sector per tile, the
//!    entire coalescing overhead — and adds its segment's non-zero
//!    block-private counts into a **flattened** `Σmᵢ` totals array.
//! 2. Host: per-segment exclusive scans of the flat totals into
//!    per-segment bucket bases. A one-tile segment gets none: its tile
//!    is the whole segment, so its reordered tile is already its output.
//! 3. `segmented/sweep[fused=K,largem=J]` — blocks self-schedule across
//!    the **flattened segment×tile ticket space** (one global
//!    `device_fetch_add` counter). A ticket decodes through the sweep's
//!    own descriptor table to `(segment, local tile)`; the block then runs
//!    the same sweep body a standalone run does, every global index
//!    offset by the segment's base, and the decoupled look-back goes
//!    through [`primitives::SegmentedTileStates`]: per-segment state
//!    windows in one buffer, so tile `t` of a segment only ever waits on
//!    tile `t-1` **of the same segment**. No cross-segment dependency
//!    exists — and none is needed for deadlock freedom, because each
//!    segment's tiles occupy consecutive global tickets, so a tile's
//!    predecessor always holds a smaller ticket and is already running or
//!    done. A one-tile segment's tile writes in place at its own range
//!    and its offsets come from its own look-back record.
//!
//! A standalone fused run is this pipeline's one-segment case with the
//! descriptor passed by value, so per-segment outputs are bit-identical
//! to standalone [`Method::auto`](crate::api::Method::auto) runs of each
//! segment, and total counted DRAM sectors stay within a few percent of
//! the sum of standalone runs (the descriptor reads); what collapses is
//! the *launch count* — at most 2 instead of up to `2 × segments`, and a
//! batch of one-tile segments is 1 launch instead of `segments` — which
//! is the whole serving story (`paper serve`, DESIGN.md §14).
//!
//! Outputs land in a flat buffer at each segment's own offset, so a
//! batch executor can bind one pooled arena for the whole batch
//! ([`simt::BufferPool`]) instead of allocating per request.

use simt::{Device, GlobalBuffer, Scalar};

use crate::api::{multisplit_device, Method};
use crate::bucket::BucketFn;
use crate::prescan::HistStrategy;
use crate::sweep::{items_per_thread, SweepPlan, SweepSeg, DESC_WORDS};

/// One independent multisplit problem inside a segmented batch: a
/// sub-range `[offset, offset + n)` of the flat key (and value) buffer,
/// split by its own bucket function. Segments must not overlap; outputs
/// are written to the same range of the output buffers.
pub struct SegmentSpec<'a> {
    pub offset: usize,
    pub n: usize,
    pub bucket: &'a dyn BucketFn,
}

/// Result of a segmented multisplit: the flat permuted key (and value)
/// buffers — segment `i`'s output occupies its input range, positions
/// outside every segment are untouched — plus each segment's own
/// `mᵢ + 1` bucket offsets (segment-local, i.e. relative to its
/// `offset`).
pub struct SegmentedMultisplit<V: Scalar = u32> {
    pub keys: GlobalBuffer<u32>,
    pub values: Option<GlobalBuffer<V>>,
    pub offsets: Vec<Vec<u32>>,
}

/// Coarsening of an `m`-bucket segment inside the segmented sweep: the
/// largest that fits shared memory next to the tile descriptor, or `None`
/// when even one item per thread overflows.
fn coalesced_ipt(m: u32, value_bytes: u64, wpb: usize) -> Option<usize> {
    items_per_thread(wpb, m as usize, value_bytes, DESC_WORDS)
}

/// Whether an `m`-bucket segment can run inside the segmented sweep at
/// this block size (shared memory fits the sweep body plus the tile
/// descriptor). Assumes the one-word payload convention of
/// [`Method::auto_for`]. Every `m ≤ 32` fits at up to 32 warps per
/// block, and every fitting `m` is within the standalone fused capacity.
pub fn segment_fits_sweep(m: u32, key_value: bool, wpb: usize) -> bool {
    coalesced_ipt(m, if key_value { 4 } else { 0 }, wpb).is_some()
}

/// [`multisplit_segmented_into`] with freshly allocated (race-tracked)
/// flat output buffers, covering the input buffers' full length.
pub fn multisplit_segmented<V: Scalar>(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    values: Option<&GlobalBuffer<V>>,
    segs: &[SegmentSpec<'_>],
    wpb: usize,
) -> SegmentedMultisplit<V> {
    let out_keys = GlobalBuffer::<u32>::zeroed(keys.len()).tracked();
    let out_values = values.map(|v| GlobalBuffer::<V>::zeroed(v.len()).tracked());
    let offsets =
        multisplit_segmented_into(dev, keys, values, segs, wpb, &out_keys, out_values.as_ref());
    SegmentedMultisplit {
        keys: out_keys,
        values: out_values,
        offsets,
    }
}

/// Segmented multisplit into **caller-provided** flat output buffers
/// (the batch-executor entry point: bind pooled arena buffers once per
/// batch). Returns each segment's `mᵢ + 1` segment-local bucket
/// offsets; empty segments get all-zero offsets and an empty batch
/// launches nothing.
#[allow(clippy::too_many_arguments)]
pub fn multisplit_segmented_into<V: Scalar>(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    values: Option<&GlobalBuffer<V>>,
    segs: &[SegmentSpec<'_>],
    wpb: usize,
    out_keys: &GlobalBuffer<u32>,
    out_values: Option<&GlobalBuffer<V>>,
) -> Vec<Vec<u32>> {
    assert!(wpb >= 1, "need at least one warp per block");
    assert_eq!(
        values.is_some(),
        out_values.is_some(),
        "value output must be provided exactly when values are"
    );
    for (i, s) in segs.iter().enumerate() {
        let end = s.offset.checked_add(s.n).expect("segment range overflows");
        assert!(end <= keys.len(), "segment {i} exceeds the key buffer");
        assert!(
            end <= out_keys.len(),
            "segment {i} exceeds the output buffer"
        );
        if let Some(v) = values {
            assert!(end <= v.len(), "segment {i} exceeds the value buffer");
        }
        if let Some(ov) = out_values {
            assert!(end <= ov.len(), "segment {i} exceeds the value output");
        }
    }
    // Overlapping segments would double-write output slots (the race
    // detector on tracked outputs would catch it mid-kernel; fail fast
    // on the host instead, with the segment ids).
    let mut spans: Vec<(usize, usize, usize)> = segs
        .iter()
        .enumerate()
        .filter(|(_, s)| s.n > 0)
        .map(|(i, s)| (s.offset, s.n, i))
        .collect();
    spans.sort_unstable();
    for w in spans.windows(2) {
        assert!(
            w[0].0 + w[0].1 <= w[1].0,
            "segments {} and {} overlap",
            w[0].2,
            w[1].2
        );
    }

    let kv_bytes = if values.is_some() { V::BYTES } else { 0 };
    let mut offsets: Vec<Vec<u32>> = segs
        .iter()
        .map(|s| vec![0u32; s.bucket.num_buckets() as usize + 1])
        .collect();

    // ====== Classify: coalesced (the sweep fits next to the descriptor)
    // vs fallback.
    let mut coalesced = Vec::new();
    let mut owners = Vec::new();
    let mut fallback: Vec<usize> = Vec::new();
    for (i, s) in segs.iter().enumerate() {
        if s.n == 0 {
            continue; // all-zero offsets, no tiles
        }
        match coalesced_ipt(s.bucket.num_buckets(), kv_bytes, wpb) {
            Some(ipt) => {
                coalesced.push(SweepSeg {
                    offset: s.offset,
                    n: s.n,
                    bucket: s.bucket,
                    ipt,
                });
                owners.push(i);
            }
            None => fallback.push(i),
        }
    }

    // ====== The coalesced pipeline over all classified segments at once:
    // a pre-scan of the multi-tile segments (none: no launch), then one
    // sweep of them all. Each label counts the segments its launch covers.
    if !coalesced.is_empty() {
        let label = |stage: &str, multi_tile_only: bool| {
            let covered: Vec<_> = coalesced
                .iter()
                .filter(|s| !multi_tile_only || s.tiles(wpb) > 1)
                .collect();
            let nf = covered
                .iter()
                .filter(|s| {
                    HistStrategy::for_buckets(s.bucket.num_buckets()) == HistStrategy::Private
                })
                .count();
            let nl = covered.len() - nf;
            format!("segmented/{stage}[fused={nf},largem={nl}]")
        };
        let pre_label = label("pre-scan", true);
        let sweep_label = label("sweep", false);
        let plan = SweepPlan::batch(coalesced, wpb);
        let seg_offsets = plan.split(
            dev,
            [&pre_label, &sweep_label],
            keys,
            values,
            out_keys,
            out_values,
        );
        for (i, o) in owners.into_iter().zip(seg_offsets) {
            offsets[i] = o;
        }
    }

    // ====== Fallback segments: standalone launches, scoped so the log
    // shows they were not coalesced.
    for &i in &fallback {
        let s = &segs[i];
        let m = s.bucket.num_buckets();
        offsets[i] = dev.with_scope("segmented/fallback", || {
            let seg_keys_host: Vec<u32> = (s.offset..s.offset + s.n).map(|j| keys.get(j)).collect();
            let seg_keys = GlobalBuffer::from_slice(&seg_keys_host);
            let seg_vals = values.map(|v| {
                let vh: Vec<V> = (s.offset..s.offset + s.n).map(|j| v.get(j)).collect();
                GlobalBuffer::from_slice(&vh)
            });
            let method = Method::auto_for(m, values.is_some(), wpb);
            let r = multisplit_device(
                dev,
                method,
                &seg_keys,
                seg_vals.as_ref(),
                s.n,
                s.bucket,
                wpb,
            );
            for j in 0..s.n {
                out_keys.set(s.offset + j, r.keys.get(j));
            }
            if let (Some(rv), Some(ov)) = (&r.values, out_values) {
                for j in 0..s.n {
                    ov.set(s.offset + j, rv.get(j));
                }
            }
            r.offsets
        });
    }

    offsets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::RangeBuckets;
    use crate::common::no_values;
    use crate::common::test_util::{keys_for, stats_of};
    use crate::cpu_ref::{multisplit_kv_ref, multisplit_ref};
    use simt::{AdvSchedule, BlockStats, Device, K40C, WARP_SIZE};

    /// Build a flat buffer + specs from (n, m) pairs, with a one-sector
    /// (8-word) gap between segments to check untouched regions stay
    /// untouched. Sector-sized gaps keep every segment's offset aligned,
    /// like a batch executor packing requests into an arena — a
    /// misaligned segment pays an extra straddled sector per warp-wide
    /// access, which is a property of the layout, not of coalescing.
    fn flat_case(parts: &[(usize, u32)]) -> (Vec<u32>, Vec<(usize, usize)>) {
        let mut flat = Vec::new();
        let mut ranges = Vec::new();
        for (i, &(n, _)) in parts.iter().enumerate() {
            flat.extend([0xdead_beef; 8]); // gap sector
            let off = flat.len();
            flat.extend(keys_for(n, i as u32 + 1));
            ranges.push((off, n));
            let pad = (8 - flat.len() % 8) % 8;
            flat.resize(flat.len() + pad, 0xdead_beef);
        }
        flat.extend([0xdead_beef; 8]);
        (flat, ranges)
    }

    fn specs<'a>(ranges: &[(usize, usize)], buckets: &'a [RangeBuckets]) -> Vec<SegmentSpec<'a>> {
        ranges
            .iter()
            .zip(buckets)
            .map(|(&(offset, n), b)| SegmentSpec {
                offset,
                n,
                bucket: b,
            })
            .collect()
    }

    /// Run `parts` as one batch on `dev` and check every segment (keys,
    /// payloads, offsets) against its own reference and every gap against
    /// stray writes. Returns the flat output and per-launch counted stats.
    fn check_against_reference(
        dev: &Device,
        parts: &[(usize, u32)],
        kv: bool,
    ) -> (Vec<u32>, Vec<BlockStats>) {
        let (flat, ranges) = flat_case(parts);
        let vals: Vec<u32> = (0..flat.len() as u32).map(|i| !i).collect();
        let buckets: Vec<RangeBuckets> = parts.iter().map(|&(_, m)| RangeBuckets::new(m)).collect();
        let keys = GlobalBuffer::from_slice(&flat);
        let values = GlobalBuffer::from_slice(&vals);
        let r = multisplit_segmented(
            dev,
            &keys,
            kv.then_some(&values),
            &specs(&ranges, &buckets),
            8,
        );
        let out = r.keys.to_vec();
        let out_vals = r.values.map(|v| v.to_vec());
        for (i, (&(off, n), b)) in ranges.iter().zip(&buckets).enumerate() {
            let (ek, ev, eo) = multisplit_kv_ref(&flat[off..off + n], Some(&vals[off..off + n]), b);
            assert_eq!(&out[off..off + n], &ek[..], "segment {i} keys");
            if let Some(ov) = &out_vals {
                assert_eq!(&ov[off..off + n], &ev[..], "segment {i} values");
            }
            assert_eq!(r.offsets[i], eo, "segment {i} offsets");
            assert_eq!(
                out[off - 1],
                0,
                "gap before segment {i} must stay untouched"
            );
        }
        (out, dev.records().iter().map(|rec| rec.stats).collect())
    }

    #[test]
    fn matches_per_segment_reference_on_every_executor() {
        // Small/large m, tiny/partial/multi-tile n, in one batch; outputs
        // and counted stats identical under every executor.
        let parts = [
            (1usize, 1u32),
            (33, 32),
            (2048, 8),
            (2049, 17),
            (2 * tile(64) + 5, 64),
            (257, 100),
            (4096, 2),
        ];
        for kv in [false, true] {
            let dev = Device::sequential(K40C);
            let seq = check_against_reference(&dev, &parts, kv);
            assert_eq!(
                labels(&dev),
                [
                    "segmented/pre-scan[fused=0,largem=1]",
                    "segmented/sweep[fused=5,largem=2]",
                ],
                "kv={kv}: only the m = 64 segment spans several tiles"
            );
            for dev in [
                Device::new(K40C),
                Device::adversarial(K40C, AdvSchedule::from_seed(9)),
            ] {
                let run = check_against_reference(&dev, &parts, kv);
                assert_eq!(run, seq, "kv={kv}: schedule-independent");
            }
        }
    }

    /// Keys per sweep tile of a key-only `m`-bucket segment at 8 warps.
    fn tile(m: u32) -> usize {
        8 * WARP_SIZE * coalesced_ipt(m, 0, 8).unwrap()
    }

    fn labels(dev: &Device) -> Vec<String> {
        dev.records().iter().map(|rec| rec.label.clone()).collect()
    }

    #[test]
    fn label_encodes_per_segment_dispatch_at_the_boundary() {
        // m = 32 and m = 33 in ONE segmented launch dispatch to the private
        // and atomic pre-scan counting, visible in the label.
        assert!(segment_fits_sweep(32, false, 8) && segment_fits_sweep(33, false, 8));
        let dev = Device::sequential(K40C);
        let parts = [(2 * tile(32) + 1, 32), (2 * tile(33) + 1, 33)];
        check_against_reference(&dev, &parts, false);
        assert_eq!(
            labels(&dev),
            [
                "segmented/pre-scan[fused=1,largem=1]",
                "segmented/sweep[fused=1,largem=1]",
            ],
            "exactly two coalesced launches, both classes inside"
        );
        // The same classes in one tile each: the sweep alone.
        let dev = Device::sequential(K40C);
        check_against_reference(&dev, &[(tile(32), 32), (tile(33), 33)], false);
        assert_eq!(labels(&dev), ["segmented/sweep[fused=1,largem=1]"]);
    }

    #[test]
    fn prescan_covers_only_the_multi_tile_segments() {
        use crate::prescan::PRESCAN_ITEMS_PER_THREAD;
        let prescan_tile = 8 * WARP_SIZE * PRESCAN_ITEMS_PER_THREAD;
        let parts = [
            (tile(8), 8u32),
            (tile(8) + 1, 8),
            (100, 40),
            (3 * prescan_tile + 5, 33),
            (1, 2),
            (2 * tile(32) + 1, 32),
        ];
        let dev = Device::sequential(K40C);
        check_against_reference(&dev, &parts, false);
        let records = dev.records();
        assert_eq!(
            labels(&dev),
            [
                "segmented/pre-scan[fused=2,largem=1]",
                "segmented/sweep[fused=4,largem=2]",
            ]
        );
        let multi = parts.iter().filter(|&&(n, m)| n > tile(m));
        let prescan_blocks: usize = multi.map(|&(n, _)| n.div_ceil(prescan_tile)).sum();
        assert_eq!(records[0].blocks, prescan_blocks);
        let sweep_blocks: usize = parts.iter().map(|&(n, m)| n.div_ceil(tile(m))).sum();
        assert_eq!(records[1].blocks, sweep_blocks);
    }

    #[test]
    fn zero_segments_launch_nothing() {
        let dev = Device::new(K40C);
        let keys = GlobalBuffer::from_slice(&[1u32, 2, 3]);
        let r = multisplit_segmented(&dev, &keys, no_values(), &[], 8);
        assert!(r.offsets.is_empty());
        assert!(dev.records().is_empty(), "an empty batch must not launch");
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_segments_panic() {
        let dev = Device::new(K40C);
        let keys = GlobalBuffer::from_slice(&keys_for(100, 0));
        let b = RangeBuckets::new(4);
        let specs = [
            SegmentSpec {
                offset: 0,
                n: 60,
                bucket: &b,
            },
            SegmentSpec {
                offset: 50,
                n: 50,
                bucket: &b,
            },
        ];
        let _ = multisplit_segmented(&dev, &keys, no_values(), &specs, 8);
    }

    #[test]
    fn sectors_within_5_percent_of_standalone_runs() {
        // Coalescing must not cost more than 5% extra counted DRAM traffic
        // over the sum of standalone per-segment runs (the delta is the
        // descriptor reads), while launches collapse from 1 per segment
        // to 1 (every segment fits one sweep tile).
        let (nseg, n, m) = (64usize, 1024usize, 16u32);
        let parts: Vec<(usize, u32)> = (0..nseg).map(|_| (n, m)).collect();
        let total_sectors = |dev: &Device| stats_of(dev, "").sectors;
        let dev_s = Device::sequential(K40C);
        check_against_reference(&dev_s, &parts, false);
        let seg_sectors = total_sectors(&dev_s);
        assert_eq!(dev_s.records().len(), 1, "one coalesced sweep");

        let (flat, ranges) = flat_case(&parts);
        let bucket = RangeBuckets::new(m);
        let dev_p = Device::sequential(K40C);
        for &(off, n) in &ranges {
            let seg_keys = GlobalBuffer::from_slice(&flat[off..off + n]);
            let rr = crate::fused::multisplit_fused(&dev_p, &seg_keys, no_values(), n, &bucket, 8);
            let (expect, _) = multisplit_ref(&flat[off..off + n], &bucket);
            assert_eq!(rr.keys.to_vec(), expect);
        }
        let standalone_sectors = total_sectors(&dev_p);
        assert!(
            (seg_sectors as f64) <= 1.05 * standalone_sectors as f64,
            "segmented {seg_sectors} vs standalone sum {standalone_sectors} sectors"
        );
        assert_eq!(dev_p.records().len(), nseg);
    }

    #[test]
    fn a_one_segment_batch_bills_the_standalone_run_plus_its_descriptors() {
        // The standalone path is the sweep's one-segment case with the
        // descriptor passed by value; the table form differs by exactly
        // the descriptor traffic (one sector read per tile per launch),
        // its shared round trip (each word stored once and read back
        // once) and one barrier per block. Every other counter is
        // identical.
        let n = 5000;
        for m in [16u32, 100] {
            let dev_s = Device::sequential(K40C);
            check_against_reference(&dev_s, &[(n, m)], false);
            let (flat, ranges) = flat_case(&[(n, m)]);
            let (off, _) = ranges[0];
            let dev_f = Device::sequential(K40C);
            let keys = GlobalBuffer::from_slice(&flat[off..off + n]);
            let bucket = RangeBuckets::new(m);
            let method = Method::auto_for(m, false, 8);
            crate::api::multisplit_device(&dev_f, method, &keys, no_values(), n, &bucket, 8);
            for (seg, alone) in dev_s.records().iter().zip(dev_f.records()) {
                let blocks = seg.blocks as u64;
                let mut expect = alone.stats;
                expect.sectors += blocks;
                expect.useful_bytes += blocks * DESC_WORDS as u64 * 4;
                expect.global_requests += blocks;
                expect.lane_ops += blocks * DESC_WORDS as u64;
                expect.smem_ops += blocks * 2 * DESC_WORDS as u64;
                expect.barriers += blocks;
                assert_eq!(seg.stats, expect, "m={m} {}", seg.label);
            }
        }
    }
}
