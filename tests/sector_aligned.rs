//! The run-walk scatter: every tile of a multi-tile segment writes each
//! of its (tile, bucket) runs in windows that start at the run's first
//! 32-byte sector, so each output sector of a run is written by one warp
//! request, and a sweep's write sectors are exactly the distinct sectors
//! of its runs. Checked for standalone splits and segmented batches at
//! m ∈ {1, 2, 32, 64, 256}, 4 to 32 warps per block, key-only and with
//! `u32` and `u64` payloads, on uniform, skewed and binomial keys.

use msbench::{gen_keys, Distribution};
use multisplit::sweep::{items_per_thread, DESC_WORDS};
use multisplit::{
    multisplit_device, multisplit_kv_ref, multisplit_segmented, BucketFn, Method, RangeBuckets,
    SegmentSpec,
};
use simt::{Device, GlobalBuffer, Scalar, K40C, WARP_SIZE};

const MS: [u32; 5] = [1, 2, 32, 64, 256];
const WPBS: [usize; 4] = [4, 8, 16, 32];
const DISTS: [Distribution; 3] = [
    Distribution::Uniform,
    Distribution::Skew75,
    Distribution::Binomial,
];

/// Keys per sweep tile of an `m`-bucket segment at `wpb` warps with
/// `value_bytes` of payload per key (`reserved` is a batch's descriptor
/// words).
fn tile(wpb: usize, m: u32, value_bytes: u64, reserved: usize) -> usize {
    let ipt = items_per_thread(wpb, m as usize, value_bytes, reserved).unwrap();
    wpb * WARP_SIZE * ipt
}

/// Host count of the distinct output sectors of every (tile, bucket) run
/// of a segment at `offset`, split into tiles of `tile` keys, for
/// elements of `bytes` bytes.
fn run_sectors(keys: &[u32], offset: usize, bucket: &dyn BucketFn, tile: usize, bytes: u64) -> u64 {
    let m = bucket.num_buckets() as usize;
    let per_sector = 32 / bytes as usize;
    let mut next = vec![0usize; m];
    for &k in keys {
        next[bucket.bucket_of(k) as usize] += 1;
    }
    // Each bucket's next free position, starting at its global base.
    let mut run = 0;
    for n in next.iter_mut() {
        (*n, run) = (run, run + *n);
    }
    let mut sectors = 0;
    for part in keys.chunks(tile) {
        let mut count = vec![0usize; m];
        for &k in part {
            count[bucket.bucket_of(k) as usize] += 1;
        }
        for (b, &c) in count.iter().enumerate().filter(|(_, &c)| c > 0) {
            let first = offset + next[b];
            sectors += ((first + c - 1) / per_sector - first / per_sector + 1) as u64;
            next[b] += c;
        }
    }
    sectors
}

/// A payload per key that names its index.
trait Payload: Scalar + PartialEq + std::fmt::Debug {
    fn of(i: u32) -> Self;
}

impl Payload for u32 {
    fn of(i: u32) -> Self {
        !i
    }
}

impl Payload for u64 {
    fn of(i: u32) -> Self {
        u64::from(i) << 32 | u64::from(!i)
    }
}

/// The standalone fused split of `keys` at `wpb`, key-only or with
/// payloads `V`: checked against the CPU reference, and its key and
/// payload write sectors against the host run count.
fn standalone<V: Payload>(dev: &Device, keys: &[u32], m: u32, wpb: usize, kv: bool, case: &str) {
    let n = keys.len();
    let index: Vec<u32> = (0..n as u32).collect();
    let vals: Vec<V> = index.iter().map(|&i| V::of(i)).collect();
    let bucket = RangeBuckets::new(m);
    let kb = GlobalBuffer::from_slice(keys);
    let vb = GlobalBuffer::from_slice(&vals);
    let r = multisplit_device(dev, Method::Fused, &kb, kv.then_some(&vb), n, &bucket, wpb);
    let (ek, ei, eo) = multisplit_kv_ref(keys, Some(&index), &bucket);
    assert_eq!(r.keys.to_vec(), ek, "{case}");
    assert_eq!(r.offsets, eo, "{case}");
    let t = tile(wpb, m, if kv { V::BYTES } else { 0 }, 0);
    assert!(n > t, "{case}: one tile");
    assert_eq!(
        r.keys.write_sectors(),
        run_sectors(keys, 0, &bucket, t, 4),
        "{case}: key sectors"
    );
    if let Some(v) = r.values {
        let ev: Vec<V> = ei.into_iter().map(V::of).collect();
        assert_eq!(v.to_vec(), ev, "{case}");
        let want = run_sectors(keys, 0, &bucket, t, V::BYTES);
        assert_eq!(v.write_sectors(), want, "{case}: payload sectors");
    }
}

#[test]
fn multi_tile_sweeps_write_each_sector_once() {
    let dev = Device::new(K40C);
    let mut case_ix = 0u64;
    for m in MS {
        for wpb in WPBS {
            for payload in [0u64, 4, 8] {
                let dist = DISTS[case_ix as usize % DISTS.len()];
                let n = 2 * tile(wpb, m, payload, 0) + 1234;
                let keys = gen_keys(n, m, dist, 7 + case_ix);
                let case = format!("m={m} wpb={wpb} payload={payload} {}", dist.name());
                match payload {
                    8 => standalone::<u64>(&dev, &keys, m, wpb, true, &case),
                    p => standalone::<u32>(&dev, &keys, m, wpb, p == 4, &case),
                }
                case_ix += 1;
            }
        }
    }
}

/// One batch of multi-tile segments, one per bucket count, at offsets
/// off the sector grid: checked against the CPU reference per segment,
/// and the batch's write sectors against the host run count.
fn batch<V: Payload>(dev: &Device, wpb: usize, kv: bool, seed: u64) {
    let buckets: Vec<RangeBuckets> = MS.iter().map(|&m| RangeBuckets::new(m)).collect();
    let value_bytes = if kv { V::BYTES } else { 0 };
    let mut flat = Vec::new();
    let mut spans = Vec::new();
    for (i, &m) in MS.iter().enumerate() {
        let n = tile(wpb, m, value_bytes, DESC_WORDS) + 333 + i;
        let offset = flat.len() + 3;
        flat.resize(offset, 0);
        let dist = DISTS[(seed as usize + i) % DISTS.len()];
        flat.extend(gen_keys(n, m, dist, seed + i as u64));
        spans.push((offset, n));
    }
    let index: Vec<u32> = (0..flat.len() as u32).collect();
    let vals: Vec<V> = index.iter().map(|&i| V::of(i)).collect();
    let segs: Vec<SegmentSpec> = spans
        .iter()
        .zip(&buckets)
        .map(|(&(offset, n), bucket)| SegmentSpec { offset, n, bucket })
        .collect();
    let kb = GlobalBuffer::from_slice(&flat);
    let vb = GlobalBuffer::from_slice(&vals);
    let r = multisplit_segmented(dev, &kb, kv.then_some(&vb), &segs, wpb);
    let case = format!("wpb={wpb} payload={value_bytes}");
    let (out, out_v) = (r.keys.to_vec(), r.values.as_ref().map(|v| v.to_vec()));
    let (mut keys_want, mut vals_want) = (0, 0);
    for ((&(offset, n), bucket), &m) in spans.iter().zip(&buckets).zip(&MS) {
        let keys = &flat[offset..offset + n];
        let (ek, ei, eo) = multisplit_kv_ref(keys, Some(&index[offset..offset + n]), bucket);
        assert_eq!(&out[offset..offset + n], &ek[..], "{case} m={m}");
        if let Some(ov) = &out_v {
            let ev: Vec<V> = ei.into_iter().map(V::of).collect();
            assert_eq!(&ov[offset..offset + n], &ev[..], "{case} m={m}");
        }
        assert!(r.offsets.contains(&eo), "{case} m={m}");
        let t = tile(wpb, m, value_bytes, DESC_WORDS);
        assert!(n > t, "{case} m={m}: one tile");
        keys_want += run_sectors(keys, offset, bucket, t, 4);
        vals_want += run_sectors(keys, offset, bucket, t, V::BYTES);
    }
    assert_eq!(r.keys.write_sectors(), keys_want, "{case}: key sectors");
    if let Some(v) = &r.values {
        assert_eq!(v.write_sectors(), vals_want, "{case}: payload sectors");
    }
}

#[test]
fn multi_tile_segments_write_each_sector_once() {
    let dev = Device::new(K40C);
    for (i, wpb) in WPBS.into_iter().enumerate() {
        let seed = 40 + 10 * i as u64;
        batch::<u32>(&dev, wpb, false, seed);
        batch::<u32>(&dev, wpb, true, seed + 1);
        batch::<u64>(&dev, wpb, true, seed + 2);
    }
}
