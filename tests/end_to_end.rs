//! Cross-crate integration: every multisplit implementation (ours and the
//! baselines) against the sequential reference, on shared workloads.

use baselines::ReducedBitStrategy::MsSort;
use multisplit::{
    multisplit_device, multisplit_kv_ref, multisplit_ref, no_values, DeltaBuckets, FnBuckets,
    LsbBuckets, Method, RangeBuckets,
};
use simt::{Device, GlobalBuffer, GTX750TI, K40C};

fn keys_for(n: usize, seed: u32) -> Vec<u32> {
    (0..n as u32)
        .map(|i| i.wrapping_mul(2654435761).wrapping_add(seed * 97))
        .collect()
}

#[test]
fn all_methods_agree_with_reference_on_shared_workload() {
    let dev = Device::new(K40C);
    let n = 12_345;
    let data = keys_for(n, 1);
    let keys = GlobalBuffer::from_slice(&data);
    for m in [2u32, 7, 16, 32] {
        let bucket = RangeBuckets::new(m);
        let (expect, expect_offs) = multisplit_ref(&data, &bucket);
        for method in [Method::Direct, Method::WarpLevel, Method::BlockLevel] {
            let r = multisplit_device(&dev, method, &keys, no_values(), n, &bucket, 8);
            assert_eq!(r.keys.to_vec(), expect, "{method:?} m={m}");
            assert_eq!(r.offsets, expect_offs, "{method:?} m={m}");
        }
    }
    for m in [40u32, 256] {
        let bucket = RangeBuckets::new(m);
        let (expect, _) = multisplit_ref(&data, &bucket);
        let r = multisplit_device(&dev, Method::LargeM, &keys, no_values(), n, &bucket, 8);
        assert_eq!(r.keys.to_vec(), expect, "large-m m={m}");
    }
}

#[test]
fn baselines_agree_with_reference() {
    let dev = Device::new(K40C);
    let n = 9_000;
    let data = keys_for(n, 2);
    let keys = GlobalBuffer::from_slice(&data);
    let bucket = RangeBuckets::new(12);
    let (expect, expect_offs) = multisplit_ref(&data, &bucket);

    let (rb, rb_offs) = baselines::reduced_bit_multisplit(&dev, MsSort, &keys, n, &bucket, 8);
    assert_eq!(rb.to_vec(), expect, "reduced-bit");
    assert_eq!(rb_offs, expect_offs);

    let (rs, _, rs_offs) =
        baselines::recursive_scan_multisplit(&dev, &keys, no_values(), n, &bucket, 8);
    assert_eq!(rs.to_vec(), expect, "recursive split");
    assert_eq!(rs_offs, expect_offs);

    // Randomized is valid but unordered within buckets.
    let (rand_out, rand_offs) = baselines::randomized_multisplit(
        &dev,
        &keys,
        n,
        &bucket,
        baselines::RandomizedConfig::default(),
    );
    multisplit::check_multisplit(&data, &rand_out.to_vec(), &rand_offs, &bucket).unwrap();
}

#[test]
fn key_value_pipelines_agree() {
    let dev = Device::new(K40C);
    let n = 6_000;
    let data = keys_for(n, 3);
    let vals: Vec<u32> = (0..n as u32).collect();
    let keys = GlobalBuffer::from_slice(&data);
    let values = GlobalBuffer::from_slice(&vals);
    let bucket = RangeBuckets::new(9);
    let (ek, ev, eo) = multisplit_kv_ref(&data, Some(&vals), &bucket);

    for method in [Method::Direct, Method::WarpLevel, Method::BlockLevel] {
        let r = multisplit_device(&dev, method, &keys, Some(&values), n, &bucket, 8);
        assert_eq!(r.keys.to_vec(), ek, "{method:?}");
        assert_eq!(r.values.unwrap().to_vec(), ev, "{method:?}");
        assert_eq!(r.offsets, eo, "{method:?}");
    }
    let (pk, pv, po) =
        baselines::reduced_bit_multisplit_kv(&dev, MsSort, &keys, &values, n, &bucket, 8);
    assert_eq!(
        (pk.to_vec(), pv.to_vec(), po),
        (ek.clone(), ev.clone(), eo.clone()),
        "packed reduced-bit"
    );
    let (ik, iv, io) =
        baselines::reduced_bit_multisplit_kv_by_index(&dev, &keys, &values, n, &bucket, 8);
    assert_eq!(
        (ik.to_vec(), iv.to_vec(), io),
        (ek, ev, eo),
        "index reduced-bit"
    );
}

#[test]
fn large_m_handles_partial_final_warp() {
    // The large-m path builds per-warp histograms; exercise sizes where the
    // last warp (and last scan tile) is only partially filled, with and
    // without values, on both schedulers.
    for (n, m) in [(33usize, 40u32), (991, 64), (4_097, 300), (12_289, 1_024)] {
        let data = keys_for(n, 5);
        let vals: Vec<u32> = (0..n as u32).collect();
        let bucket = RangeBuckets::new(m);
        let (ek, ev, eo) = multisplit_kv_ref(&data, Some(&vals), &bucket);
        for dev in [Device::new(K40C), Device::sequential(K40C)] {
            let keys = GlobalBuffer::from_slice(&data);
            let values = GlobalBuffer::from_slice(&vals);
            let r = multisplit_device(&dev, Method::LargeM, &keys, Some(&values), n, &bucket, 8);
            assert_eq!(r.keys.to_vec(), ek, "keys n={n} m={m}");
            assert_eq!(r.values.unwrap().to_vec(), ev, "values n={n} m={m}");
            assert_eq!(r.offsets, eo, "offsets n={n} m={m}");
        }
    }
}

#[test]
fn custom_bucket_functions_work_end_to_end() {
    let dev = Device::new(K40C);
    let n = 4_000;
    let data = keys_for(n, 4);
    let keys = GlobalBuffer::from_slice(&data);

    // Delta buckets (SSSP style).
    let delta = DeltaBuckets::new(1000, 500_000_000, 6);
    let (expect, _) = multisplit_ref(&data, &delta);
    let r = multisplit_device(&dev, Method::BlockLevel, &keys, no_values(), n, &delta, 8);
    assert_eq!(r.keys.to_vec(), expect);

    // LSB buckets.
    let lsb = LsbBuckets { bits: 4 };
    let (expect, _) = multisplit_ref(&data, &lsb);
    let r = multisplit_device(&dev, Method::WarpLevel, &keys, no_values(), n, &lsb, 8);
    assert_eq!(r.keys.to_vec(), expect);

    // An adversarial closure: all keys to the last bucket.
    let last = FnBuckets::new(5, |_| 4);
    let r = multisplit_device(&dev, Method::Direct, &keys, no_values(), n, &last, 8);
    assert_eq!(r.keys.to_vec(), data, "stability => identity permutation");
    assert_eq!(r.offsets, vec![0, 0, 0, 0, 0, n as u32]);
}

#[test]
fn both_device_profiles_give_identical_results() {
    // The profile changes time estimates, never data.
    let n = 5_000;
    let data = keys_for(n, 5);
    let bucket = RangeBuckets::new(10);
    let mut outs = Vec::new();
    for profile in [K40C, GTX750TI] {
        let dev = Device::new(profile);
        let keys = GlobalBuffer::from_slice(&data);
        let r = multisplit_device(&dev, Method::BlockLevel, &keys, no_values(), n, &bucket, 8);
        outs.push((r.keys.to_vec(), r.offsets, dev.total_seconds()));
    }
    assert_eq!(outs[0].0, outs[1].0);
    assert_eq!(outs[0].1, outs[1].1);
    assert!(
        outs[1].2 > outs[0].2,
        "the 750 Ti should be slower than the K40c"
    );
}

#[test]
fn outputs_are_deterministic_across_parallel_schedules() {
    let n = 20_000;
    let data = keys_for(n, 6);
    let bucket = RangeBuckets::new(24);
    let run = |parallel: bool| {
        let dev = if parallel {
            Device::new(K40C)
        } else {
            Device::sequential(K40C)
        };
        let keys = GlobalBuffer::from_slice(&data);
        let r = multisplit_device(&dev, Method::BlockLevel, &keys, no_values(), n, &bucket, 8);
        let stats = dev
            .records()
            .iter()
            .fold(simt::BlockStats::default(), |mut a, rec| {
                a += rec.stats;
                a
            });
        (r.keys.to_vec(), stats)
    };
    let (out_p, stats_p) = run(true);
    let (out_s, stats_s) = run(false);
    assert_eq!(out_p, out_s, "data must not depend on host scheduling");
    assert_eq!(
        stats_p, stats_s,
        "counted events must not depend on host scheduling"
    );
}

#[test]
fn race_detector_passes_on_all_final_scatters() {
    // Rebuild each method's output into a tracked buffer by re-running the
    // permutation host-side; the scatter itself is validated by the
    // checked-offsets equality, so here we assert the multisplit *writes
    // each output slot exactly once* via output completeness.
    let dev = Device::new(K40C);
    let n = 3_000;
    let data = keys_for(n, 7);
    let keys = GlobalBuffer::from_slice(&data);
    let bucket = RangeBuckets::new(8);
    for method in [Method::Direct, Method::WarpLevel, Method::BlockLevel] {
        let r = multisplit_device(&dev, method, &keys, no_values(), n, &bucket, 8);
        let out = r.keys.to_vec();
        let mut a = out.clone();
        let mut b = data.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(
            a, b,
            "{method:?}: output is a permutation (no slot written twice or missed)"
        );
    }
}

/// A zero-warp block is rejected at the API boundary with a clear message
/// rather than dividing by zero inside the sweep's tile arithmetic.
#[test]
#[should_panic(expected = "need at least one warp per block")]
fn zero_warps_per_block_is_rejected() {
    let dev = Device::new(K40C);
    let keys = GlobalBuffer::from_slice(&keys_for(64, 3));
    let bucket = RangeBuckets::new(8);
    multisplit_device(&dev, Method::Fused, &keys, no_values(), 64, &bucket, 0);
}
