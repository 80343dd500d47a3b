//! The sector-aligned sweep layout: every tile of a multi-tile segment
//! writes each of its output runs with one warp request per 32-byte
//! sector, so a sweep's write sectors are the distinct sectors of its
//! (tile, bucket) runs, less those two adjacent runs share inside one
//! request. Checked for standalone splits and a segmented batch,
//! key-only and with 4-byte payloads, on uniform, skewed and binomial
//! keys; the dense layout that 256 buckets keep is pinned at its
//! current count.

use msbench::{gen_keys, Distribution};
use multisplit::sweep::{items_per_thread, DESC_WORDS};
use multisplit::{
    multisplit_device, multisplit_kv_ref, multisplit_segmented, BucketFn, Method, RangeBuckets,
    SegmentSpec,
};
use simt::{Device, GlobalBuffer, K40C, WARP_SIZE};

const WPB: usize = 8;
const DISTS: [Distribution; 3] = [
    Distribution::Uniform,
    Distribution::Skew75,
    Distribution::Binomial,
];

/// Keys per sweep tile of an `m`-bucket segment (`reserved` is the
/// batch's descriptor words).
fn tile(m: u32, kv: bool, reserved: usize) -> usize {
    WPB * WARP_SIZE * items_per_thread(WPB, m as usize, 4 * kv as u64, reserved).unwrap()
}

/// Host count of a segment at `offset`, split into tiles of `tile` keys:
/// `(runs, requests)`. `runs` sums the distinct 32-byte output sectors of
/// every (tile, bucket) run. `requests` sums, over each tile's 32-slot
/// windows of four sector groups laid out run by run, the distinct
/// sectors of each window: one less than `runs` wherever a bucket's last
/// run and the next bucket's first run meet inside one sector and their
/// groups share a window.
fn run_sectors(keys: &[u32], offset: usize, bucket: &dyn BucketFn, tile: usize) -> (u64, u64) {
    let m = bucket.num_buckets() as usize;
    let mut next = vec![0usize; m];
    for &k in keys {
        next[bucket.bucket_of(k) as usize] += 1;
    }
    // Each bucket's next free position, starting at its global base.
    let mut run = 0;
    for n in next.iter_mut() {
        (*n, run) = (run, run + *n);
    }
    let (mut runs, mut requests) = (0u64, 0u64);
    for part in keys.chunks(tile) {
        let mut count = vec![0usize; m];
        for &k in part {
            count[bucket.bucket_of(k) as usize] += 1;
        }
        // The output sector of each group, run by run.
        let mut groups = Vec::new();
        for (b, &c) in count.iter().enumerate().filter(|(_, &c)| c > 0) {
            let first = offset + next[b];
            groups.extend(first / 8..=(first + c - 1) / 8);
            next[b] += c;
        }
        runs += groups.len() as u64;
        for window in groups.chunks(4) {
            let mut distinct = window.to_vec();
            distinct.dedup();
            requests += distinct.len() as u64;
        }
    }
    (runs, requests)
}

#[test]
fn multi_tile_sweeps_write_each_sector_once() {
    let dev = Device::new(K40C);
    for m in [1u32, 2, 32, 64] {
        for kv in [false, true] {
            for (d, dist) in DISTS.into_iter().enumerate() {
                let t = tile(m, kv, 0);
                let n = 3 * t + 1234;
                let keys = gen_keys(n, m, dist, 7 + d as u64);
                let vals: Vec<u32> = (0..n as u32).collect();
                let bucket = RangeBuckets::new(m);
                let kb = GlobalBuffer::from_slice(&keys);
                let vb = GlobalBuffer::from_slice(&vals);
                let r =
                    multisplit_device(&dev, Method::Fused, &kb, kv.then_some(&vb), n, &bucket, WPB);
                let case = format!("m={m} kv={kv} {}", dist.name());
                let (ek, ev, eo) = multisplit_kv_ref(&keys, Some(&vals), &bucket);
                assert_eq!(r.keys.to_vec(), ek, "{case}");
                assert_eq!(r.offsets, eo, "{case}");
                let (runs, want) = run_sectors(&keys, 0, &bucket, t);
                assert!(want <= runs, "{case}");
                assert_eq!(r.keys.write_sectors(), want, "{case}: key sectors");
                if let Some(v) = r.values {
                    assert_eq!(v.to_vec(), ev, "{case}");
                    assert_eq!(v.write_sectors(), want, "{case}: payload sectors");
                }
            }
        }
    }
}

/// A batch of multi-tile segments at offsets off the sector grid. (At
/// 8 warps a batch segment is aligned up to m = 63: its tile descriptor
/// takes the words the m = 64 worst case needs.)
#[test]
fn multi_tile_segments_write_each_sector_once() {
    let dev = Device::new(K40C);
    let ms = [1u32, 2, 32];
    let buckets: Vec<RangeBuckets> = ms.iter().map(|&m| RangeBuckets::new(m)).collect();
    for kv in [false, true] {
        for (d, dist) in DISTS.into_iter().enumerate() {
            let mut flat = Vec::new();
            let mut spans = Vec::new();
            for (i, &m) in ms.iter().enumerate() {
                let n = 2 * tile(m, kv, DESC_WORDS) + 333 + i;
                let offset = flat.len() + 3;
                flat.resize(offset, 0);
                flat.extend(gen_keys(n, m, dist, 40 + (3 * d + i) as u64));
                spans.push((offset, n));
            }
            let vals: Vec<u32> = (0..flat.len() as u32).collect();
            let segs: Vec<SegmentSpec> = spans
                .iter()
                .zip(&buckets)
                .map(|(&(offset, n), bucket)| SegmentSpec { offset, n, bucket })
                .collect();
            let kb = GlobalBuffer::from_slice(&flat);
            let vb = GlobalBuffer::from_slice(&vals);
            let r = multisplit_segmented(&dev, &kb, kv.then_some(&vb), &segs, WPB);
            let case = format!("kv={kv} {}", dist.name());
            let (out, out_v) = (r.keys.to_vec(), r.values.as_ref().map(|v| v.to_vec()));
            let mut want = 0;
            for ((&(offset, n), bucket), &m) in spans.iter().zip(&buckets).zip(&ms) {
                let keys = &flat[offset..offset + n];
                let (ek, ev, eo) = multisplit_kv_ref(keys, Some(&vals[offset..offset + n]), bucket);
                assert_eq!(&out[offset..offset + n], &ek[..], "{case} m={m}");
                if let Some(ov) = &out_v {
                    assert_eq!(&ov[offset..offset + n], &ev[..], "{case} m={m}");
                }
                assert!(r.offsets.contains(&eo), "{case} m={m}");
                want += run_sectors(keys, offset, bucket, tile(m, kv, DESC_WORDS)).1;
            }
            assert_eq!(r.keys.write_sectors(), want, "{case}: key sectors");
            if let Some(v) = &r.values {
                assert_eq!(v.write_sectors(), want, "{case}: payload sectors");
            }
        }
    }
}

/// 256 buckets keep the dense layout: their scatter windows straddle
/// sectors, so they bill more than the distinct run sectors. Pinned.
#[test]
fn dense_sweeps_keep_their_sector_count() {
    let (m, n) = (256u32, 3 * 8192 + 1234);
    let keys = gen_keys(n, m, Distribution::Uniform, 11);
    let vals: Vec<u32> = (0..n as u32).collect();
    let bucket = RangeBuckets::new(m);
    let dev = Device::new(K40C);
    let kb = GlobalBuffer::from_slice(&keys);
    let vb = GlobalBuffer::from_slice(&vals);
    let r = multisplit_device(&dev, Method::Fused, &kb, Some(&vb), n, &bucket, WPB);
    let (runs, _) = run_sectors(&keys, 0, &bucket, tile(m, true, 0));
    let written = r.keys.write_sectors();
    assert_eq!(runs, 4126);
    assert_eq!(written, 4806, "pinned dense count");
    assert_eq!(r.values.unwrap().write_sectors(), written);
}
