//! `Method::auto` boundary tests (ISSUE 5 satellite): for each bucket
//! count around a selection crossover, the host-convenience entry points
//! must dispatch the expected pipeline — asserted through the launch-record
//! labels the pipelines emit, not just the enum — AND produce the
//! reference permutation.

use multisplit::{
    fused_max_buckets, multisplit, multisplit_kv, multisplit_kv_ref, Method, RangeBuckets,
};
use simt::{Device, K40C};

fn keys_for(_m: u32) -> Vec<u32> {
    // A full-range multiplicative hash: every bucket is populated for every
    // m under test, and 10,000 elements end on a ragged third tile at
    // wpb = 8 (4,096-key sweep tiles), so every pipeline runs all of its
    // launches (an input of one tile is one sweep launch).
    (0..10_000u32).map(|i| i.wrapping_mul(2654435761)).collect()
}

/// Run the auto-dispatched host multisplit and return the launch labels.
fn labels_of(kv: bool, m: u32) -> Vec<String> {
    let keys = keys_for(m);
    let bucket = RangeBuckets::new(m);
    let dev = Device::new(K40C);
    if kv {
        let values: Vec<u32> = (0..keys.len() as u32).collect();
        let (ok, ov, offs) = multisplit_kv(&dev, &keys, &values, &bucket);
        let (ek, ev, eo) = multisplit_kv_ref(&keys, Some(&values), &bucket);
        assert_eq!((ok, ov, offs), (ek, ev, eo), "kv m={m}");
    } else {
        let (out, offs) = multisplit(&dev, &keys, &bucket);
        let (ek, _, eo) = multisplit_kv_ref(&keys, None, &bucket);
        assert_eq!((out, offs), (ek, eo), "m={m}");
    }
    dev.records().iter().map(|r| r.label.clone()).collect()
}

fn assert_prefix(labels: &[String], prefix: &str, ctx: &str) {
    assert!(
        !labels.is_empty() && labels.iter().all(|l| l.starts_with(prefix)),
        "{ctx}: expected every launch label to start with `{prefix}`, got {labels:?}"
    );
}

#[test]
fn auto_picks_fused_up_to_32_and_fused_large_m_above() {
    for kv in [false, true] {
        // m = 32 is the last single-row bucket count → fused pipeline.
        let labels = labels_of(kv, 32);
        assert_prefix(&labels, "fused/", &format!("kv={kv} m=32"));
        assert!(
            labels.iter().any(|l| l == "fused/sweep"),
            "kv={kv}: fused pipeline must end in its sweep kernel, got {labels:?}"
        );
        // m = 33 crosses the warp width → the same fused method, its
        // pre-scan counting with atomics (multi-row look-back).
        let labels = labels_of(kv, 33);
        assert_prefix(&labels, "fused_large_m/", &format!("kv={kv} m=33"));
    }
    assert_eq!(Method::auto(32, false), Method::Fused);
    assert_eq!(Method::auto(33, false), Method::Fused);
}

#[test]
fn auto_falls_back_to_three_kernel_large_m_past_the_fused_capacity() {
    for kv in [false, true] {
        let cap = fused_max_buckets(multisplit::DEFAULT_WARPS_PER_BLOCK, kv);
        assert!(cap > 33, "fused capacity should exceed the warp width");
        assert_eq!(Method::auto(cap, kv), Method::Fused, "kv={kv} at cap");
        assert_eq!(
            Method::auto(cap + 1, kv),
            Method::LargeM,
            "kv={kv} past cap"
        );
        // At the exact capacity the fused sweep still fits in shared memory.
        let labels = labels_of(kv, cap);
        assert_prefix(&labels, "fused_large_m/", &format!("kv={kv} m=cap={cap}"));
        // One past it must dispatch the three-kernel large-m pipeline,
        // recognizable by its separate scan and post-scan launches.
        let labels = labels_of(kv, cap + 1);
        assert_prefix(&labels, "large/", &format!("kv={kv} m=cap+1"));
        assert!(
            labels.iter().any(|l| l == "large/post-scan"),
            "kv={kv}: three-kernel large-m must run a post-scan, got {labels:?}"
        );
    }
}

/// `Method::auto_for` sends every `m` past the fused capacity to
/// the three-kernel path, so that path must fit strictly more buckets at
/// every block size and payload.
#[test]
fn three_kernel_capacity_exceeds_fused_capacity_at_every_block_size() {
    for wpb in 1..=32 {
        for kv in [false, true] {
            let fused = fused_max_buckets(wpb, kv);
            let three = multisplit::max_buckets(wpb, kv);
            assert!(
                fused < three,
                "wpb={wpb} kv={kv}: fused {fused} vs three-kernel {three}"
            );
        }
    }
}
