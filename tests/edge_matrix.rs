//! Degenerate-input matrix (ISSUE 5 satellite): zero-length,
//! single-element, and all-one-bucket inputs across every public entry
//! point — host-slice multisplit and multisplit_kv, multisplit_device for
//! all five methods (the fused one on both sides of the warp width), the
//! compaction primitives, and both device-wide scans —
//! on parallel, sequential, and adversarial devices alike.

use multisplit::{
    multisplit, multisplit_device, multisplit_kv, multisplit_kv_ref, no_values, FnBuckets, Method,
    RangeBuckets,
};
use simt::{AdvSchedule, Device, GlobalBuffer, K40C};

/// Every method with a bucket count it takes: the three-kernel large-m
/// pipeline needs `m > 32`, the fused one runs on both sides of 32, the
/// rest take any `m <= 32`.
const CASES: [(Method, u32); 6] = [
    (Method::Direct, 7),
    (Method::WarpLevel, 7),
    (Method::BlockLevel, 7),
    (Method::LargeM, 48),
    (Method::Fused, 7),
    (Method::Fused, 48),
];

type Scan = fn(&Device, &str, &GlobalBuffer<u32>, &GlobalBuffer<u32>, usize, usize) -> u32;

/// Both device-wide scans, each by name.
const SCANS: [(&str, Scan); 2] = [
    ("chained", primitives::exclusive_scan_u32),
    ("recursive", primitives::recursive_scan_u32),
];

/// One device of each schedule kind; every check below runs on all three.
fn devices() -> [Device; 3] {
    [
        Device::new(K40C),
        Device::sequential(K40C),
        Device::adversarial(K40C, AdvSchedule::from_seed(0xED6E)),
    ]
}

#[test]
fn zero_length_input_is_a_clean_no_op_everywhere() {
    for dev in devices() {
        for (method, m) in CASES {
            let bucket = RangeBuckets::new(m);
            let empty = GlobalBuffer::<u32>::zeroed(0);
            let r = multisplit_device(&dev, method, &empty, no_values(), 0, &bucket, 8);
            assert_eq!(r.keys.len(), 0, "{method:?} m={m}");
            assert_eq!(r.offsets, vec![0; m as usize + 1], "{method:?} m={m}");
        }
        let (out, offs) = multisplit(&dev, &[], &RangeBuckets::new(5));
        assert!(out.is_empty());
        assert_eq!(offs, vec![0; 6]);
        let (ok, ov, offs) = multisplit_kv(&dev, &[], &[], &RangeBuckets::new(5));
        assert!(ok.is_empty() && ov.is_empty());
        assert_eq!(offs, vec![0; 6]);
        let empty = GlobalBuffer::<u32>::zeroed(0);
        let r = primitives::split_by_pred(&dev, "e", &empty, None, 0, 8, |k| k > 0);
        assert_eq!(r.false_count, 0);
        assert_eq!(r.keys.len(), 0);
        let (c, kept) = primitives::compact_by_pred(&dev, "e", &empty, 0, 8, |k| k > 0);
        assert_eq!((c.len(), kept), (0, 0));
        for (name, scan) in SCANS {
            let out = GlobalBuffer::<u32>::zeroed(0);
            let total = scan(&dev, "e", &empty, &out, 0, 8);
            assert_eq!(total, 0, "{name}");
        }
    }
}

#[test]
fn single_element_input_lands_in_its_bucket_everywhere() {
    for dev in devices() {
        for (method, m) in CASES {
            let bucket = RangeBuckets::new(m);
            let keys = [0xDEAD_BEEFu32];
            let buf = GlobalBuffer::from_slice(&keys);
            let r = multisplit_device(&dev, method, &buf, no_values(), 1, &bucket, 8);
            let (ek, _, eo) = multisplit_kv_ref(&keys, None, &bucket);
            assert_eq!(r.keys.to_vec(), ek, "{method:?} m={m}");
            assert_eq!(r.offsets, eo, "{method:?} m={m}");
        }
        let (ok, ov, offs) = multisplit_kv(&dev, &[7], &[99], &RangeBuckets::new(4));
        assert_eq!((ok, ov), (vec![7], vec![99]));
        assert_eq!(offs, vec![0, 1, 1, 1, 1]);
        let one = GlobalBuffer::from_slice(&[3u32]);
        let r = primitives::split_by_pred(&dev, "s", &one, None, 1, 8, |k| k >= 2);
        assert_eq!((r.false_count, r.keys.to_vec()), (0, vec![3]));
        let (c, kept) = primitives::compact_by_pred(&dev, "s", &one, 1, 8, |k| k >= 2);
        assert_eq!((c.to_vec(), kept), (vec![3], 1));
        for (name, scan) in SCANS {
            let input = GlobalBuffer::from_slice(&[41u32]);
            let out = GlobalBuffer::<u32>::zeroed(1);
            let total = scan(&dev, "s", &input, &out, 1, 8);
            assert_eq!((out.to_vec(), total), (vec![0], 41), "{name}");
        }
    }
}

#[test]
fn all_one_bucket_input_is_the_identity_permutation_everywhere() {
    // Every key maps to bucket 2 of 5 (or 40 of 48 for large-m): the output
    // must be the untouched input (stability) with a step-function offset
    // table. 2600 elements spans a ragged final tile at wpb = 8.
    let keys: Vec<u32> = (0..2600u32).map(|i| i.wrapping_mul(2654435761)).collect();
    for dev in devices() {
        for (method, m) in CASES {
            let (m, hot) = if m > 32 { (48u32, 40u32) } else { (5, 2) };
            let one = FnBuckets::new(m, move |_| hot);
            let buf = GlobalBuffer::from_slice(&keys);
            let r = multisplit_device(&dev, method, &buf, no_values(), keys.len(), &one, 8);
            assert_eq!(r.keys.to_vec(), keys, "{method:?} m={m}");
            let expect: Vec<u32> = (0..=m)
                .map(|b| if b <= hot { 0 } else { keys.len() as u32 })
                .collect();
            assert_eq!(r.offsets, expect, "{method:?} m={m}");
        }
        // Predicate false for everything / true for everything.
        let buf = GlobalBuffer::from_slice(&keys);
        let r = primitives::split_by_pred(&dev, "a", &buf, None, keys.len(), 8, |_| false);
        assert_eq!(r.false_count as usize, keys.len());
        assert_eq!(r.keys.to_vec(), keys);
        let (c, kept) = primitives::compact_by_pred(&dev, "a", &buf, keys.len(), 8, |_| true);
        assert_eq!((c.to_vec(), kept as usize), (keys.clone(), keys.len()));
    }
}
