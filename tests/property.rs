//! Randomized property tests on the core invariants:
//!
//! * every multisplit method produces the stable reference permutation for
//!   arbitrary keys, bucket counts, sizes and payload presence;
//! * the ballot-based warp algorithms match their scalar definitions for
//!   arbitrary bucket assignments and activity masks;
//! * the device scan/split/radix primitives match `std` folds/sorts.
//!
//! Originally written against `proptest`; this offline build drives the
//! same properties with seeded `msrng` loops instead (fixed seeds, so
//! failures reproduce deterministically).

use baselines::ReducedBitStrategy::MsSort;
use msrng::SmallRng;
use multisplit::{multisplit_device, multisplit_kv_ref, no_values, warp_ops, Method, RangeBuckets};
use simt::{lanes_from_fn, Device, GlobalBuffer, StatCells, WarpCtx, K40C};

const CASES: usize = 32;

fn rand_keys(rng: &mut SmallRng, max_len: usize) -> Vec<u32> {
    let len = rng.gen_range(1..max_len);
    (0..len).map(|_| rng.next_u32()).collect()
}

/// Random keys filling one key-only fused sweep tile of `m` buckets at 8
/// warps and part of a second, ragged one (a tile with a payload is no
/// longer, so a key-value run spans at least two tiles too).
fn two_tile_keys(rng: &mut SmallRng, m: u32) -> Vec<u32> {
    let ipt = multisplit::sweep::items_per_thread(8, m as usize, 0, 0).unwrap();
    let tile = 8 * 32 * ipt;
    let len = rng.gen_range(tile + 1..2 * tile);
    (0..len).map(|_| rng.next_u32()).collect()
}

/// Panic unless every sweep launch on `dev` ran more than one tile.
fn assert_multi_tile_sweeps(dev: &Device, ctx: &str) {
    let records = dev.records();
    let sweeps: Vec<_> = records
        .iter()
        .filter(|r| r.label.ends_with("/sweep"))
        .collect();
    assert!(!sweeps.is_empty(), "{ctx}: no sweep launch");
    for r in sweeps {
        assert!(r.blocks > 1, "{ctx}: {} ran one tile", r.label);
    }
}

/// Self-contained reproducer line for a failing seeded case. Each suite
/// draws from a fixed seed, so `case` pins the exact inputs: re-run the
/// test with the loop skipped to `case` (or rebuild the inputs from the
/// printed parameters) to replay the failure without bisecting the RNG
/// stream.
fn repro(suite_seed: u64, case: usize, params: String) -> String {
    format!("repro: suite_seed={suite_seed:#x} case_index={case} {params}")
}

#[test]
fn multisplit_methods_match_reference() {
    const SEED: u64 = 0x51ca_0001;
    let mut rng = SmallRng::seed_from_u64(SEED);
    for case in 0..CASES {
        let keys = rand_keys(&mut rng, 3000);
        let m = rng.gen_range(1u32..=32);
        let method = [
            Method::Direct,
            Method::WarpLevel,
            Method::BlockLevel,
            Method::Fused,
        ][rng.gen_range(0usize..4)];
        let wpb = [2usize, 4, 8][rng.gen_range(0usize..3)];
        let ctx = repro(
            SEED,
            case,
            format!("n={} m={m} method={method:?} wpb={wpb}", keys.len()),
        );
        let bucket = RangeBuckets::new(m);
        let dev = Device::new(K40C);
        let buf = GlobalBuffer::from_slice(&keys);
        let r = multisplit_device(&dev, method, &buf, no_values(), keys.len(), &bucket, wpb);
        let (ek, _, eo) = multisplit_kv_ref(&keys, None, &bucket);
        assert_eq!(r.keys.to_vec(), ek, "{ctx}");
        assert_eq!(r.offsets, eo, "{ctx}");
    }
}

#[test]
fn multisplit_kv_matches_reference() {
    const SEED: u64 = 0x51ca_0002;
    let mut rng = SmallRng::seed_from_u64(SEED);
    for case in 0..CASES {
        let keys = rand_keys(&mut rng, 2000);
        let m = rng.gen_range(1u32..=32);
        let method = [
            Method::Direct,
            Method::WarpLevel,
            Method::BlockLevel,
            Method::Fused,
        ][rng.gen_range(0usize..4)];
        let ctx = repro(
            SEED,
            case,
            format!("n={} m={m} method={method:?} wpb=8 kv", keys.len()),
        );
        let values: Vec<u32> = (0..keys.len() as u32).collect();
        let bucket = RangeBuckets::new(m);
        let dev = Device::new(K40C);
        let kbuf = GlobalBuffer::from_slice(&keys);
        let vbuf = GlobalBuffer::from_slice(&values);
        let r = multisplit_device(&dev, method, &kbuf, Some(&vbuf), keys.len(), &bucket, 8);
        let (ek, ev, _) = multisplit_kv_ref(&keys, Some(&values), &bucket);
        assert_eq!(r.keys.to_vec(), ek, "{ctx}");
        assert_eq!(r.values.unwrap().to_vec(), ev, "{ctx}");
    }
}

#[test]
fn fused_matches_reference_and_three_kernel_for_every_m() {
    // The fused path's correctness sweep (ISSUE 2): bit-identical to the
    // CPU reference AND the three-kernel pipeline for every m in 1..=32,
    // key-only and key-value, on inputs that end on a ragged second
    // fused tile. The fused output buffers carry the simulator's
    // write-race detector (`tracked()`): any double-write panics here.
    let mut rng = SmallRng::seed_from_u64(0x51ca_000b);
    for m in 1u32..=32 {
        let keys = two_tile_keys(&mut rng, m);
        let values: Vec<u32> = (0..keys.len() as u32).collect();
        let bucket = RangeBuckets::new(m);
        let dev = Device::new(K40C);
        let kbuf = GlobalBuffer::from_slice(&keys);
        let vbuf = GlobalBuffer::from_slice(&values);
        let n = keys.len();
        let f = multisplit_device(&dev, Method::Fused, &kbuf, no_values(), n, &bucket, 8);
        let b = multisplit_device(&dev, Method::BlockLevel, &kbuf, no_values(), n, &bucket, 8);
        let (ek, ev, eo) = multisplit_kv_ref(&keys, Some(&values), &bucket);
        assert_eq!(f.keys.to_vec(), ek, "m={m} n={n} vs reference");
        assert_eq!(f.offsets, eo, "m={m} n={n}");
        assert_eq!(f.keys.to_vec(), b.keys.to_vec(), "m={m} vs three-kernel");
        assert_eq!(f.offsets, b.offsets, "m={m} vs three-kernel");
        let fkv = multisplit_device(&dev, Method::Fused, &kbuf, Some(&vbuf), n, &bucket, 8);
        assert_eq!(fkv.keys.to_vec(), ek, "kv m={m}");
        assert_eq!(fkv.values.unwrap().to_vec(), ev, "kv m={m}");
        assert_multi_tile_sweeps(&dev, &format!("m={m} n={n}"));
    }
}

#[test]
fn fused_edge_cases() {
    let dev = Device::new(K40C);
    let bucket = RangeBuckets::new(8);
    // Zero-length input: no launches, all-zero offsets.
    let empty = GlobalBuffer::<u32>::zeroed(0);
    let r = multisplit_device(&dev, Method::Fused, &empty, no_values(), 0, &bucket, 8);
    assert_eq!(r.offsets, vec![0; 9]);
    assert!(dev.records().is_empty());
    // Single-bucket input is the identity permutation (stability).
    let keys: Vec<u32> = (0..3000u32)
        .map(|i| i.wrapping_mul(2654435761) % 512)
        .collect();
    let one = multisplit::FnBuckets::new(4, |_| 2);
    let buf = GlobalBuffer::from_slice(&keys);
    let r = multisplit_device(&dev, Method::Fused, &buf, no_values(), keys.len(), &one, 8);
    assert_eq!(r.keys.to_vec(), keys);
    assert_eq!(r.offsets, vec![0, 0, 0, 3000, 3000]);
}

#[test]
fn large_m_matches_reference() {
    const SEED: u64 = 0x51ca_0003;
    let mut rng = SmallRng::seed_from_u64(SEED);
    for case in 0..CASES {
        let keys = rand_keys(&mut rng, 2000);
        let m = rng.gen_range(33u32..=512);
        let ctx = repro(
            SEED,
            case,
            format!("n={} m={m} method=LargeM wpb=8", keys.len()),
        );
        let bucket = RangeBuckets::new(m);
        let dev = Device::new(K40C);
        let buf = GlobalBuffer::from_slice(&keys);
        let r = multisplit_device(
            &dev,
            Method::LargeM,
            &buf,
            no_values(),
            keys.len(),
            &bucket,
            8,
        );
        let (ek, _, eo) = multisplit_kv_ref(&keys, None, &bucket);
        assert_eq!(r.keys.to_vec(), ek, "{ctx}");
        assert_eq!(r.offsets, eo, "{ctx}");
    }
}

#[test]
fn fused_large_m_matches_reference_and_three_kernel() {
    // The fused path's correctness sweep past the warp width:
    // bit-identical to the CPU reference AND the three-kernel large-m
    // pipeline, key-only and key-value, for bucket counts spanning the
    // supported range up to the exact shared-memory capacity boundary
    // (`fused_max_buckets`). Random lengths end on a ragged second tile at
    // every coarsening factor. The fused output buffers carry the simulator's
    // write-race detector (`tracked()`): any double-write panics here.
    let mut rng = SmallRng::seed_from_u64(0x51ca_000c);
    for kv in [false, true] {
        let cap = multisplit::fused_max_buckets(8, kv);
        for m in [33u32, 64, 100, 256, cap] {
            let keys = two_tile_keys(&mut rng, m);
            let n = keys.len();
            let values: Vec<u32> = (0..n as u32).collect();
            let bucket = RangeBuckets::new(m);
            let dev = Device::new(K40C);
            let kbuf = GlobalBuffer::from_slice(&keys);
            let vbuf = GlobalBuffer::from_slice(&values);
            let vals = kv.then_some(&vbuf);
            let f = multisplit_device(&dev, Method::Fused, &kbuf, vals, n, &bucket, 8);
            let t = multisplit_device(&dev, Method::LargeM, &kbuf, vals, n, &bucket, 8);
            let (ek, ev, eo) = multisplit_kv_ref(&keys, kv.then_some(&values), &bucket);
            assert_eq!(f.keys.to_vec(), ek, "kv={kv} m={m} n={n} vs reference");
            assert_eq!(f.offsets, eo, "kv={kv} m={m} n={n}");
            assert_eq!(
                f.keys.to_vec(),
                t.keys.to_vec(),
                "kv={kv} m={m} vs three-kernel"
            );
            assert_eq!(f.offsets, t.offsets, "kv={kv} m={m} vs three-kernel");
            assert_multi_tile_sweeps(&dev, &format!("kv={kv} m={m} n={n}"));
            if kv {
                let fv = f.values.unwrap().to_vec();
                assert_eq!(fv, ev, "m={m} n={n} values vs reference");
                assert_eq!(
                    fv,
                    t.values.unwrap().to_vec(),
                    "m={m} values vs three-kernel"
                );
            }
        }
    }
}

#[test]
fn fused_large_m_edge_cases() {
    let dev = Device::new(K40C);
    let bucket = RangeBuckets::new(80);
    // Zero-length input: no launches, all-zero offsets.
    let empty = GlobalBuffer::<u32>::zeroed(0);
    let r = multisplit_device(&dev, Method::Fused, &empty, no_values(), 0, &bucket, 8);
    assert_eq!(r.offsets, vec![0; 81]);
    assert!(dev.records().is_empty());
    // Tiny and one-past-a-tile lengths against the reference.
    for n in [1usize, 2049] {
        let keys: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let buf = GlobalBuffer::from_slice(&keys);
        let r = multisplit_device(&dev, Method::Fused, &buf, no_values(), n, &bucket, 8);
        let (ek, _, eo) = multisplit_kv_ref(&keys, None, &bucket);
        assert_eq!(r.keys.to_vec(), ek, "n={n}");
        assert_eq!(r.offsets, eo, "n={n}");
    }
    // All-one-bucket skew: the output is the identity permutation
    // (stability) and every element lands in bucket 40.
    let keys: Vec<u32> = (0..5000u32).map(|i| i.wrapping_mul(2654435761)).collect();
    let one = multisplit::FnBuckets::new(64, |_| 40);
    let buf = GlobalBuffer::from_slice(&keys);
    let r = multisplit_device(&dev, Method::Fused, &buf, no_values(), keys.len(), &one, 8);
    assert_eq!(r.keys.to_vec(), keys);
    let expect: Vec<u32> = (0..=64).map(|b| if b <= 40 { 0 } else { 5000 }).collect();
    assert_eq!(r.offsets, expect);
}

#[test]
fn warp_histogram_and_offsets_match_scalar_definitions() {
    let mut rng = SmallRng::seed_from_u64(0x51ca_0004);
    for _ in 0..CASES * 4 {
        let m = rng.gen_range(1u32..=32);
        let mask = rng.next_u32();
        let bucket_vals: Vec<u32> = (0..32).map(|_| rng.next_u32()).collect();
        let b = lanes_from_fn(|l| bucket_vals[l] % m);
        let st = StatCells::default();
        let w = WarpCtx::new(0, 0, &st);
        let h = warp_ops::warp_histogram(&w, b, m, mask);
        let o = warp_ops::warp_offsets(&w, b, m, mask);
        let (fh, fo) = warp_ops::warp_histogram_and_offsets(&w, b, m, mask);
        assert_eq!(h, fh);
        assert_eq!(o, fo);
        for lane in 0..32usize {
            if lane < m as usize {
                let expect = (0..32)
                    .filter(|&p| mask >> p & 1 == 1 && b[p] == lane as u32)
                    .count() as u32;
                assert_eq!(h[lane], expect, "histogram lane {lane}");
            } else {
                assert_eq!(h[lane], 0u32, "aliased lane {lane} must read zero");
            }
            if mask >> lane & 1 == 1 {
                let expect = (0..lane)
                    .filter(|&p| mask >> p & 1 == 1 && b[p] == b[lane])
                    .count() as u32;
                assert_eq!(o[lane], expect, "offset lane {lane}");
            }
        }
    }
}

#[test]
fn alternative_implementations_match_reference() {
    let mut rng = SmallRng::seed_from_u64(0x51ca_0005);
    for case in 0..CASES {
        // The related-work contenders must also be exactly stable.
        let keys = rand_keys(&mut rng, 1500);
        let m = rng.gen_range(1u32..=32);
        let bucket = RangeBuckets::new(m);
        let dev = Device::new(K40C);
        let buf = GlobalBuffer::from_slice(&keys);
        let (ek, _, eo) = multisplit_kv_ref(&keys, None, &bucket);
        let r = if case % 2 == 0 {
            baselines::multisplit_thread_level(&dev, &buf, no_values(), keys.len(), &bucket, 8)
        } else {
            baselines::multisplit_block_atomic(&dev, &buf, no_values(), keys.len(), &bucket, 8)
        };
        assert_eq!(
            r.keys.to_vec(),
            ek,
            "which={} m={m} n={}",
            case % 2,
            keys.len()
        );
        assert_eq!(r.offsets, eo);
    }
}

#[test]
fn reduced_bit_matches_reference() {
    const SEED: u64 = 0x51ca_0006;
    let mut rng = SmallRng::seed_from_u64(SEED);
    for case in 0..CASES {
        let keys = rand_keys(&mut rng, 1500);
        let m = rng.gen_range(1u32..=256);
        let ctx = repro(
            SEED,
            case,
            format!("n={} m={m} method=reduced-bit wpb=8", keys.len()),
        );
        let bucket = RangeBuckets::new(m);
        let dev = Device::new(K40C);
        let buf = GlobalBuffer::from_slice(&keys);
        let (out, offs) =
            baselines::reduced_bit_multisplit(&dev, MsSort, &buf, keys.len(), &bucket, 8);
        let (ek, _, eo) = multisplit_kv_ref(&keys, None, &bucket);
        assert_eq!(out.to_vec(), ek, "{ctx}");
        assert_eq!(offs, eo, "{ctx}");
    }
}

#[test]
fn device_scan_matches_fold() {
    let mut rng = SmallRng::seed_from_u64(0x51ca_0007);
    for case in 0..CASES {
        let len = rng.gen_range(0usize..5000);
        let vals: Vec<u32> = (0..len).map(|_| rng.gen_range(0u32..1000)).collect();
        let wpb = [2usize, 8][case % 2];
        let dev = Device::new(K40C);
        let input = GlobalBuffer::from_slice(&vals);
        let output = GlobalBuffer::<u32>::zeroed(vals.len());
        let total = primitives::exclusive_scan_u32(&dev, "p", &input, &output, vals.len(), wpb);
        let mut run = 0u32;
        let expect: Vec<u32> = vals
            .iter()
            .map(|&v| {
                let r = run;
                run += v;
                r
            })
            .collect();
        assert_eq!(output.to_vec(), expect, "wpb={wpb} n={len}");
        assert_eq!(total, run);
    }
}

#[test]
fn radix_sort_matches_std_sort() {
    let mut rng = SmallRng::seed_from_u64(0x51ca_0008);
    for _ in 0..CASES {
        let keys = rand_keys(&mut rng, 3000);
        let dev = Device::new(K40C);
        let buf = GlobalBuffer::from_slice(&keys);
        let (sorted, _) = baselines::radix_sort(&dev, "p", &buf, no_values(), keys.len(), 8);
        let mut expect = keys;
        expect.sort_unstable();
        assert_eq!(sorted.to_vec(), expect);
    }
}

#[test]
fn split_partitions_stably() {
    let mut rng = SmallRng::seed_from_u64(0x51ca_0009);
    for _ in 0..CASES {
        let keys = rand_keys(&mut rng, 3000);
        let pivot = rng.next_u32();
        let dev = Device::new(K40C);
        let buf = GlobalBuffer::from_slice(&keys);
        let r =
            primitives::split_by_pred(&dev, "p", &buf, None, keys.len(), 8, move |k| k >= pivot);
        let out = r.keys.to_vec();
        let lo: Vec<u32> = keys.iter().copied().filter(|&k| k < pivot).collect();
        let hi: Vec<u32> = keys.iter().copied().filter(|&k| k >= pivot).collect();
        assert_eq!(r.false_count as usize, lo.len());
        assert_eq!(&out[..lo.len()], &lo[..]);
        assert_eq!(&out[lo.len()..], &hi[..]);
    }
}

#[test]
fn randomized_multisplit_is_always_valid() {
    let mut rng = SmallRng::seed_from_u64(0x51ca_000a);
    for _ in 0..CASES {
        let keys = rand_keys(&mut rng, 1500);
        let m = rng.gen_range(1u32..=64);
        let x_tenths = rng.gen_range(12u32..40);
        let bucket = RangeBuckets::new(m);
        let dev = Device::new(K40C);
        let buf = GlobalBuffer::from_slice(&keys);
        let cfg = baselines::RandomizedConfig {
            relaxation: x_tenths as f64 / 10.0,
            ..Default::default()
        };
        let (out, offs) = baselines::randomized_multisplit(&dev, &buf, keys.len(), &bucket, cfg);
        assert!(multisplit::check_multisplit(&keys, &out.to_vec(), &offs, &bucket).is_ok());
    }
}
