//! Property and edge-case tests for ms-sort, exercised through the
//! public API only: degenerate sizes, pathological orders, the zero-bit
//! range, the private → atomic pre-scan counting crossover at digit 6, and
//! stability.

use ms_sort::{
    argsort_by_bits, effective_key_bits, sort_by_bit_range_with, sort_keys, sort_keys_host,
    sort_pairs, sort_pairs_by_bits, sort_pairs_host, sort_pairs_reduced_bit,
};
use simt::{Device, GlobalBuffer, K40C};

const WPB: usize = 8;

fn dev() -> Device {
    Device::new(K40C)
}

fn scrambled(n: usize, seed: u32) -> Vec<u32> {
    (0..n as u32)
        .map(|i| i.wrapping_mul(2654435761).wrapping_add(seed))
        .collect()
}

#[test]
fn empty_input_sorts_to_empty() {
    let d = dev();
    assert_eq!(sort_keys_host(&d, &[]), Vec::<u32>::new());
    let (k, v) = sort_pairs_host(&d, &[], &[]);
    assert!(k.is_empty() && v.is_empty());
}

#[test]
fn single_element_is_fixed_point() {
    let d = dev();
    assert_eq!(sort_keys_host(&d, &[0xDEAD_BEEF]), vec![0xDEAD_BEEF]);
    let (k, v) = sort_pairs_host(&d, &[7], &[42]);
    assert_eq!((k, v), (vec![7], vec![42]));
}

#[test]
fn already_sorted_input_stays_put() {
    let d = dev();
    let mut keys = scrambled(3000, 1);
    keys.sort_unstable();
    assert_eq!(sort_keys_host(&d, &keys), keys);
}

#[test]
fn reverse_sorted_input_gets_reversed() {
    let d = dev();
    let mut expect = scrambled(3000, 2);
    expect.sort_unstable();
    let mut keys = expect.clone();
    keys.reverse();
    assert_eq!(sort_keys_host(&d, &keys), expect);
}

#[test]
fn all_equal_keys_keep_payload_order() {
    // Every key identical: a stable sort must return the payloads in
    // their original order, and the effective-bit fast path means the
    // sort itself does no digit passes (only the bits reduction sees
    // the data... plus the final copy).
    let d = dev();
    let n = 2000;
    let keys = vec![0xABCD_0123u32; n];
    let vals: Vec<u32> = (0..n as u32).collect();
    let (sk, sv) = sort_pairs_host(&d, &keys, &vals);
    assert_eq!(sk, keys);
    assert_eq!(sv, vals);
}

#[test]
fn zero_bit_range_is_the_identity() {
    let d = dev();
    let n = 777;
    let keys = GlobalBuffer::from_slice(&scrambled(n, 3));
    let vals = GlobalBuffer::from_slice(&(0..n as u32).collect::<Vec<_>>());
    let (sk, sv) = sort_by_bit_range_with(&d, &keys, Some(&vals), n, 0, 0, 4, WPB);
    assert_eq!(sk.to_vec(), keys.to_vec(), "bits=0 must copy keys");
    assert_eq!(
        sv.unwrap().to_vec(),
        vals.to_vec(),
        "bits=0 must copy values"
    );
}

#[test]
fn crossover_digit_widths_agree_and_dispatch_differently() {
    // b=5 is the last width whose pre-scan counts with private counters
    // (m = 32); b=6 is the first counted with shared atomics (m = 64).
    // Same sorted output, different launches. 24-bit keys: b=6 divides
    // evenly (4 atomic-counted passes, no narrow tail pass that would
    // drop back to private counting), b=5 runs 5,5,5,5,4, all counted
    // privately (36 rows of 256 threads fit next to the windows).
    let n = 4000;
    let input: Vec<u32> = scrambled(n, 4).iter().map(|k| k & 0xFF_FFFF).collect();
    let mut expect = input.clone();
    expect.sort_unstable();

    let mut outputs = Vec::new();
    for digit_bits in [5u32, 6] {
        let d = dev();
        let keys = GlobalBuffer::from_slice(&input);
        let (sk, _) = sort_by_bit_range_with::<u32>(&d, &keys, None, n, 0, 24, digit_bits, WPB);
        let labels: Vec<String> = d.records().iter().map(|r| r.label.clone()).collect();
        let fused = labels.iter().any(|l| l.contains("fused/"));
        let large = labels.iter().any(|l| l.contains("fused_large_m/"));
        if digit_bits <= 5 {
            assert!(
                fused && !large,
                "b={digit_bits} must stay on private counting: {labels:?}"
            );
        } else {
            assert!(
                large && !fused,
                "b={digit_bits} must cross to atomic counting: {labels:?}"
            );
        }
        outputs.push(sk.to_vec());
    }
    assert_eq!(outputs[0], expect);
    assert_eq!(
        outputs[0], outputs[1],
        "crossover widths must agree bit-for-bit"
    );
}

#[test]
fn sort_pairs_is_stable_under_heavy_duplication() {
    // 16 distinct keys across 5000 elements: each key's payload run must
    // come out in ascending original order.
    let d = dev();
    let n = 5000;
    let keys: Vec<u32> = (0..n as u32).map(|i| (i.wrapping_mul(7)) % 16).collect();
    let vals: Vec<u32> = (0..n as u32).collect();
    let (sk, sv) = sort_pairs_host(&d, &keys, &vals);
    let mut expect: Vec<(u32, u32)> = keys.into_iter().zip(vals).collect();
    expect.sort_by_key(|&(k, _)| k); // std stable sort
    assert_eq!(sk, expect.iter().map(|&(k, _)| k).collect::<Vec<_>>());
    assert_eq!(sv, expect.iter().map(|&(_, v)| v).collect::<Vec<_>>());
}

#[test]
fn effective_bits_prune_matches_full_sort() {
    // Keys confined to 11 bits: sort_keys (auto-pruned) and an explicit
    // full 32-bit sort must agree, and neither runs a pass over the dead
    // high bits.
    let n = 3000;
    let input: Vec<u32> = scrambled(n, 5).iter().map(|k| k & 0x7FF).collect();

    let d_auto = dev();
    let keys = GlobalBuffer::from_slice(&input);
    assert_eq!(effective_key_bits(&d_auto, &keys, n, WPB), 11);
    let pruned = sort_keys(&d_auto, &keys, n, WPB).to_vec();

    let d_full = dev();
    let keys_full = GlobalBuffer::from_slice(&input);
    let (full, _) = sort_by_bit_range_with::<u32>(&d_full, &keys_full, None, n, 0, 32, 8, WPB);
    assert_eq!(pruned, full.to_vec());
    // The probe narrows the field to 11 bits: two passes at the default
    // digit width. The full
    // 32-bit sort at 8-bit digits finds digits 2 and 3 all zero in its
    // pre-scan and skips them. Either way two passes run, not four.
    let sweeps = |d: &Device| {
        d.records()
            .iter()
            .filter(|r| r.label.ends_with("/sweep"))
            .count()
    };
    assert_eq!(sweeps(&d_auto), 2, "pruned sort");
    assert_eq!(sweeps(&d_full), 2, "full-range sort skips its dead digits");
}

#[test]
fn reduced_bit_pairs_handle_the_packing_boundary() {
    // index_bits(4096) = 12, so 20 key bits fit exactly in the packed
    // u32 (argsort route) and 21 do not (fallback route). Both must sort
    // correctly and stably.
    let d = dev();
    let n = 4096;
    let vals: Vec<u32> = (0..n as u32).collect();
    for key_bits in [20u32, 21] {
        let mask = (1u32 << key_bits) - 1;
        let keys_host: Vec<u32> = scrambled(n, key_bits).iter().map(|k| k & mask).collect();
        let keys = GlobalBuffer::from_slice(&keys_host);
        let values = GlobalBuffer::from_slice(&vals);
        let (sk, sv) = sort_pairs_reduced_bit(&d, &keys, &values, n, key_bits, WPB);
        let mut expect: Vec<(u32, u32)> = keys_host.into_iter().zip(vals.iter().copied()).collect();
        expect.sort_by_key(|&(k, _)| k);
        assert_eq!(
            sk.to_vec(),
            expect.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            "key_bits={key_bits}"
        );
        assert_eq!(
            sv.to_vec(),
            expect.iter().map(|&(_, v)| v).collect::<Vec<_>>(),
            "key_bits={key_bits} (stability)"
        );
    }
    // And the boundary itself: argsort accepts 20 bits at n=4096, not 21.
    let keys = GlobalBuffer::from_slice(&vec![0u32; n]);
    assert!(argsort_by_bits(&d, &keys, n, 20, WPB).is_some());
    assert!(argsort_by_bits(&d, &keys, n, 21, WPB).is_none());
}

#[test]
fn sort_pairs_device_entry_points_agree() {
    // The device-buffer API and the by-bits variant agree when bits
    // covers the whole effective range.
    let d = dev();
    let n = 2500;
    let keys_host: Vec<u32> = scrambled(n, 9).iter().map(|k| k & 0xFFFF).collect();
    let vals: Vec<u32> = (0..n as u32).map(|i| !i).collect();
    let keys = GlobalBuffer::from_slice(&keys_host);
    let values = GlobalBuffer::from_slice(&vals);
    let (a_k, a_v) = sort_pairs(&d, &keys, &values, n, WPB);
    let (b_k, b_v) = sort_pairs_by_bits(&d, &keys, &values, n, 16, WPB);
    assert_eq!(a_k.to_vec(), b_k.to_vec());
    assert_eq!(a_v.to_vec(), b_v.to_vec());
}
