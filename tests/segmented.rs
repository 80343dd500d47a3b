//! Segmented-multisplit edge cases (PR 9 satellite): zero segments, an
//! empty segment mid-batch, n = 1 segments, heterogeneous m across
//! segments, and a segment past the fused shared-memory capacity that
//! must fall back to standalone launches — every batch checked against
//! per-segment reference runs, bit-identically, on the parallel,
//! sequential, and adversarial schedulers.

use multisplit::{
    fused_max_buckets, multisplit_kv_ref, multisplit_ref, no_values, segment_fits_sweep, BucketFn,
    FnBuckets, RangeBuckets, SegmentSpec,
};
use simt::{AdvSchedule, Device, GlobalBuffer, K40C};

fn keys_for(n: usize, seed: u32) -> Vec<u32> {
    (0..n as u32)
        .map(|i| i.wrapping_mul(2654435761).wrapping_add(seed))
        .collect()
}

/// Pack (n, m) segments into one flat buffer at sector-aligned offsets.
fn pack(parts: &[(usize, u32)]) -> (Vec<u32>, Vec<(usize, usize)>) {
    let mut flat = Vec::new();
    let mut ranges = Vec::new();
    for (i, &(n, _)) in parts.iter().enumerate() {
        let off = flat.len();
        flat.extend(keys_for(n, i as u32));
        ranges.push((off, n));
        let pad = (8 - flat.len() % 8) % 8;
        flat.resize(flat.len() + pad, 0);
    }
    (flat, ranges)
}

fn devices() -> Vec<Device> {
    vec![
        Device::new(K40C),
        Device::sequential(K40C),
        Device::adversarial(K40C, AdvSchedule::from_seed(17)),
    ]
}

/// Run the batch on every scheduler and check each segment against its
/// own CPU reference; all schedulers must produce bit-identical output.
/// Returns the launch labels of the first run.
fn check_all_schedulers(parts: &[(usize, u32)]) -> Vec<String> {
    let (flat, ranges) = pack(parts);
    let buckets: Vec<RangeBuckets> = parts.iter().map(|&(_, m)| RangeBuckets::new(m)).collect();
    let specs: Vec<SegmentSpec> = ranges
        .iter()
        .zip(&buckets)
        .map(|(&(offset, n), b)| SegmentSpec {
            offset,
            n,
            bucket: b,
        })
        .collect();
    let mut outs: Vec<(Vec<u32>, Vec<Vec<u32>>)> = Vec::new();
    let mut labels = Vec::new();
    for dev in devices() {
        let keys = GlobalBuffer::from_slice(&flat);
        let r = multisplit::multisplit_segmented(&dev, &keys, no_values(), &specs, 8);
        outs.push((r.keys.to_vec(), r.offsets));
        if labels.is_empty() {
            labels = dev.records().into_iter().map(|rec| rec.label).collect();
        }
    }
    let (out, offsets) = &outs[0];
    for (i, (&(off, n), b)) in ranges.iter().zip(&buckets).enumerate() {
        let (expect, expect_offs) = multisplit_ref(&flat[off..off + n], b);
        assert_eq!(&out[off..off + n], &expect[..], "segment {i}");
        assert_eq!(offsets[i], expect_offs, "segment {i} offsets");
    }
    assert_eq!(outs[0], outs[1], "parallel vs sequential");
    assert_eq!(outs[0], outs[2], "parallel vs adversarial");
    labels
}

#[test]
fn zero_segments_on_every_scheduler() {
    for dev in devices() {
        let keys = GlobalBuffer::from_slice(&[7u32; 16]);
        let r = multisplit::multisplit_segmented(&dev, &keys, no_values(), &[], 8);
        assert!(r.offsets.is_empty());
        assert!(dev.records().is_empty(), "no launches for an empty batch");
    }
}

#[test]
fn empty_segment_mid_batch() {
    // The middle segment has n = 0: all-zero offsets, no tiles, and it
    // must not perturb its neighbours' look-back windows.
    let parts = [(2048usize, 13u32), (0, 8), (3000, 32)];
    check_all_schedulers(&parts);
    // Its offsets really are m + 1 zeros.
    let (flat, ranges) = pack(&parts);
    let buckets: Vec<RangeBuckets> = parts.iter().map(|&(_, m)| RangeBuckets::new(m)).collect();
    let specs: Vec<SegmentSpec> = ranges
        .iter()
        .zip(&buckets)
        .map(|(&(offset, n), b)| SegmentSpec {
            offset,
            n,
            bucket: b,
        })
        .collect();
    let dev = Device::new(K40C);
    let keys = GlobalBuffer::from_slice(&flat);
    let r = multisplit::multisplit_segmented(&dev, &keys, no_values(), &specs, 8);
    assert_eq!(r.offsets[1], vec![0u32; 9]);
}

#[test]
fn single_element_segments() {
    // n = 1 segments interleaved with real ones: one-lane tiles, tail
    // masks of width 1, and a look-back chain of length 1 per segment.
    let parts = [
        (1usize, 4u32),
        (1, 32),
        (2500, 16),
        (1, 1),
        (1, 64),
        (900, 33),
    ];
    check_all_schedulers(&parts);
}

#[test]
fn heterogeneous_m_across_segments() {
    // Every class boundary in one batch: m = 1, the warp boundary 32/33,
    // and a large-m segment, with different tile counts per segment: at
    // most 8,192 keys fill a tile, so m = 1 spans three tiles, m = 33 two
    // and the rest one.
    let parts = [
        (20_000usize, 1u32),
        (4096, 32),
        (9000, 33),
        (4096, 17),
        (4096, 256),
        (4096, 5),
    ];
    let labels = check_all_schedulers(&parts);
    assert_eq!(
        labels[0], "segmented/pre-scan[fused=1,largem=1]",
        "one multi-tile segment of each class"
    );
}

/// The one classification predicate: every `m` up to the warp width
/// coalesces at every block size, and whatever coalesces also fits a
/// standalone fused run, so a coalesced segment never needs any other
/// method.
#[test]
fn segment_fits_sweep_covers_the_warp_width_within_fused_capacity() {
    for wpb in [1usize, 2, 8, 16, 32] {
        for kv in [false, true] {
            let cap = fused_max_buckets(wpb, kv);
            for m in 1..=cap + 1 {
                let fits = segment_fits_sweep(m, kv, wpb);
                assert!(fits || m > 32, "wpb={wpb} kv={kv}: m={m} must coalesce");
                assert!(!fits || m <= cap, "wpb={wpb} kv={kv}: m={m} past cap {cap}");
            }
        }
    }
}

#[test]
fn oversized_m_segment_falls_back_to_standalone_launches() {
    // A segment past the fused shared-memory capacity cannot run
    // inside the coalesced sweep; it must fall back to its own launches
    // (scoped `segmented/fallback/...`) while the rest of the batch still
    // coalesces — and the combined result must still match per-segment
    // references.
    let wpb = 8;
    let big_m = fused_max_buckets(wpb, false) + 1;
    assert!(!segment_fits_sweep(big_m, false, wpb));
    let parts = [(2048usize, 8u32), (3000, big_m), (2048, 40)];
    let (flat, ranges) = pack(&parts);
    let buckets: Vec<RangeBuckets> = parts.iter().map(|&(_, m)| RangeBuckets::new(m)).collect();
    let specs: Vec<SegmentSpec> = ranges
        .iter()
        .zip(&buckets)
        .map(|(&(offset, n), b)| SegmentSpec {
            offset,
            n,
            bucket: b,
        })
        .collect();
    let dev = Device::sequential(K40C);
    let keys = GlobalBuffer::from_slice(&flat);
    let r = multisplit::multisplit_segmented(&dev, &keys, no_values(), &specs, wpb);
    let out = r.keys.to_vec();
    for (i, (&(off, n), b)) in ranges.iter().zip(&buckets).enumerate() {
        let (expect, expect_offs) = multisplit_ref(&flat[off..off + n], b);
        assert_eq!(&out[off..off + n], &expect[..], "segment {i}");
        assert_eq!(r.offsets[i], expect_offs, "segment {i} offsets");
    }
    let labels: Vec<String> = dev.records().iter().map(|rec| rec.label.clone()).collect();
    assert!(
        labels
            .iter()
            .any(|l| l == "segmented/sweep[fused=1,largem=1]"),
        "the in-capacity segments still coalesce: {labels:?}"
    );
    assert!(
        !labels.iter().any(|l| l.starts_with("segmented/pre-scan")),
        "the in-capacity segments fit one sweep tile each, so nothing is pre-scanned: {labels:?}"
    );
    assert!(
        labels.iter().any(|l| l.starts_with("segmented/fallback/")),
        "the oversized segment runs standalone under the fallback scope: {labels:?}"
    );
}

#[test]
fn structured_bucket_functions_per_segment() {
    // Each segment brings its own bucket *function*, not just its own m:
    // a skewed all-one-bucket segment next to a uniform one, bit-checked
    // on every scheduler.
    let skew = FnBuckets::new(8, |_| 5);
    let uniform = RangeBuckets::new(8);
    let n = 3000usize;
    let mut flat = keys_for(n, 1);
    flat.resize(2 * n, 0);
    flat[n..2 * n].copy_from_slice(&keys_for(n, 2));
    let specs = [
        SegmentSpec {
            offset: 0,
            n,
            bucket: &skew,
        },
        SegmentSpec {
            offset: n,
            n,
            bucket: &uniform,
        },
    ];
    let mut outs = Vec::new();
    for dev in devices() {
        let keys = GlobalBuffer::from_slice(&flat);
        let r = multisplit::multisplit_segmented(&dev, &keys, no_values(), &specs, 8);
        outs.push((r.keys.to_vec(), r.offsets));
    }
    let (skew_ref, skew_offs) = multisplit_ref(&flat[..n], &skew);
    let (uni_ref, uni_offs) = multisplit_ref(&flat[n..], &uniform);
    assert_eq!(&outs[0].0[..n], &skew_ref[..], "stability through the skew");
    assert_eq!(&outs[0].0[n..], &uni_ref[..]);
    assert_eq!(outs[0].1, vec![skew_offs, uni_offs]);
    assert_eq!(outs[0], outs[1]);
    assert_eq!(outs[0], outs[2]);
}

#[test]
fn scatter_recomputes_buckets_with_each_segments_own_function() {
    // The direct scatter recomputes each staged key's bucket rather than
    // reading a staged id, so every tile must evaluate its own segment's
    // function. Key-value segments of several tiles each share m = 16 but
    // alternate a range function and its reversal: a tile that borrowed
    // its neighbour's function would scatter every key to the mirrored
    // bucket's base.
    let range = RangeBuckets::new(16);
    let reversed = FnBuckets::new(16, move |k| 15 - range.bucket_of(k));
    let buckets: [&dyn BucketFn; 3] = [&range, &reversed, &range];
    let n = 10_000usize;
    let flat: Vec<u32> = (0..buckets.len() as u32)
        .flat_map(|i| keys_for(n, i))
        .collect();
    let vals: Vec<u32> = (0..flat.len() as u32).map(|v| !v).collect();
    let specs: Vec<SegmentSpec> = buckets
        .iter()
        .enumerate()
        .map(|(i, &bucket)| SegmentSpec {
            offset: i * n,
            n,
            bucket,
        })
        .collect();
    let mut outs = Vec::new();
    for dev in devices() {
        let keys = GlobalBuffer::from_slice(&flat);
        let values = GlobalBuffer::from_slice(&vals);
        let r = multisplit::multisplit_segmented(&dev, &keys, Some(&values), &specs, 8);
        assert!(
            dev.records()
                .iter()
                .any(|rec| rec.label.starts_with("segmented/pre-scan")),
            "every segment spans several sweep tiles, so the batch is pre-scanned"
        );
        outs.push((r.keys.to_vec(), r.values.unwrap().to_vec(), r.offsets));
    }
    for (i, &bucket) in buckets.iter().enumerate() {
        let range = i * n..(i + 1) * n;
        let (ek, ev, eo) =
            multisplit_kv_ref(&flat[range.clone()], Some(&vals[range.clone()]), bucket);
        assert_eq!(&outs[0].0[range.clone()], &ek[..], "segment {i} keys");
        assert_eq!(&outs[0].1[range], &ev[..], "segment {i} values");
        assert_eq!(outs[0].2[i], eo, "segment {i} offsets");
    }
    assert_eq!(outs[0], outs[1], "parallel vs sequential");
    assert_eq!(outs[0], outs[2], "parallel vs adversarial");
}
