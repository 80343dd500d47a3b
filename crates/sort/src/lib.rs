//! # ms-sort — multisplit-iterated LSB radix sort (paper §3.3–3.4)
//!
//! The paper's headline application: radix sort **is** iterated
//! multisplit. The engine is a OneSweep LSB radix sort over `b`-bit
//! digits ([`DigitBuckets`]): one up-front pre-scan launch histograms
//! every digit, and each digit pass is then a single direct sweep
//! ([`multisplit::multisplit_sweep_into`], the per-warp `m × N_W`
//! histogram at every digit width) whose bucket bases come from that one
//! histogram. Stability of each pass makes the whole sort correct.
//!
//! Four design points carry the cost:
//!
//! * **One pre-scan per sort** — a digit's histogram does not depend on
//!   the key order the earlier passes leave behind, so the `{local,
//!   global, local}` factoring of a multisplit hoists its global step out
//!   of the pass loop. The `ms_sort/pre-scan` launch
//!   ([`multisplit::bucket_totals`], one counter window per digit) is the
//!   one read of the keys before the digit passes: it counts all digits
//!   into block-private shared counters (`Σ 2^width` words, at most 8,448
//!   at the widest legal digits): thread-private packed byte counters for
//!   digits up to 5 bits while their rows fit next to the windows, shared
//!   atomics otherwise, one per warp when the warp's digits agree. The
//!   launch is one resident wave of blocks at the pre-scan's own block
//!   size, each merging once.
//! * **Passes laid out from the histograms** — a digit whose histogram
//!   has one non-empty bucket is the identity pass and is skipped. Any
//!   other digit narrows to the bit width of its highest non-empty bucket
//!   and keeps that many buckets of its totals. [`sort_keys`] /
//!   [`sort_pairs`] sort all 32 bits, so keys drawn from an 8- or 16-bit
//!   range cost 1–2 passes instead of 4 (the mechanism behind the
//!   paper's reduced-range wins) with no read of the keys beyond the
//!   pre-scan, and a middle digit with few live values runs a narrower
//!   pass.
//! * **Ping-pong buffers** — the engine allocates two output buffers once
//!   and alternates, so every pass scatters *directly into the next
//!   pass's input*. No copy kernels, no re-tracking: each launch opens a
//!   fresh race-detector epoch, so reusing a tracked buffer across passes
//!   is safe by construction.
//! * **Tunable digit width** — `m = 2^b` buckets per pass.
//!   [`DEFAULT_DIGIT_BITS`] holds the counted-sector sweet spot measured
//!   by `paper sorttune` (wider digits mean fewer passes until the
//!   look-back records of the large-`m` sweep eat the gain); [`max_digit_bits`] bounds `b` by the fused sweep's
//!   shared-memory capacity for the payload width actually in flight.
//!
//! On top of the engine sits the **reduced-bit key–value sort** (§3.4):
//! when keys are small labels, [`argsort_by_bits`] packs
//! `(label << index_bits) | original_index` into a *single* `u32`, sorts
//! only the label field (the index rides along untouched, so stability is
//! free and the sort moves one word per element regardless of payload
//! width), and then each payload is permuted **once** through the sorted
//! indices. [`sort_pairs_reduced_bit`] composes this, falling back to
//! payload-carrying passes when `label_bits + index_bits > 32`.
//!
//! ```
//! use simt::{Device, K40C};
//! let dev = Device::new(K40C);
//! let keys: Vec<u32> = (0..1000u32).map(|i| i.wrapping_mul(2654435761)).collect();
//! let sorted = ms_sort::sort_keys_host(&dev, &keys);
//! let mut expect = keys.clone();
//! expect.sort_unstable();
//! assert_eq!(sorted, expect);
//! ```

use multisplit::{bucket_totals, multisplit_sweep_into, DigitBuckets};
use primitives::tail_mask;
use simt::{blocks_for, lanes_from_fn, Device, GlobalBuffer, Scalar, WARP_SIZE};

/// Digit width `b` (buckets per pass `m = 2^b`) used when the caller does
/// not choose one: the counted-sector sweet spot of the `paper sorttune`
/// sweep at `n = 2^20`. Eight bits means four passes over full 32-bit
/// keys, each a large-m sweep over 256 buckets. The sweep's per-warp
/// histogram does not grow with the tile, so a 256-bucket pass still
/// runs tiles of 8,192 keys at 8 warps, with 4-byte payloads or without
/// (a payload is staged in its key's slot after the key), and dropping
/// the fifth pass of b = 7 saves more than the wider look-back records
/// cost: ~10.5% fewer counted sectors than b = 7.
pub const DEFAULT_DIGIT_BITS: u32 = 8;

/// Thread-coarsening of the ms-sort copy kernel: chunks of 32 elements
/// per warp per tile.
const UTIL_ITEMS_PER_THREAD: usize = 8;

/// Largest digit width whose `2^b`-bucket pass still fits the fused
/// sweep ([`multisplit::Method::Fused`]) at this block size and payload
/// width (`value_bytes = 0` for key-only passes, `V::BYTES` otherwise).
/// Widths up to 5 always fit; beyond that the sweep's shared memory
/// bounds `m`, and the bound shrinks for payloads wider than a key. Digit 6
/// is where the pre-scan crosses from private to atomic counting.
pub fn max_digit_bits(wpb: usize, value_bytes: u64) -> u32 {
    let cap = multisplit::fused_max_buckets_bytes(wpb, value_bytes);
    let large = 31 - cap.leading_zeros(); // floor(log2 cap)
    large.max(5)
}

/// Bits needed to address `n` rows: `ceil(log2 n)` (0 for `n <= 1`).
pub fn index_bits(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        32 - ((n - 1) as u32).leading_zeros()
    }
}

/// Counted streaming copy into a fresh tracked buffer — the zero-pass
/// result path (`bits == 0`), so callers always get buffers they own.
fn copy_out<T: Scalar>(
    dev: &Device,
    src: &GlobalBuffer<T>,
    n: usize,
    wpb: usize,
) -> GlobalBuffer<T> {
    let out = GlobalBuffer::<T>::zeroed(n).tracked();
    if n == 0 {
        return out;
    }
    let ipt = UTIL_ITEMS_PER_THREAD;
    let tile = wpb * WARP_SIZE * ipt;
    dev.launch("ms_sort/copy", n.div_ceil(tile), wpb, |blk| {
        let tile_start = blk.block_id * tile;
        for w in blk.warps() {
            for c in 0..ipt {
                let base = tile_start + (w.warp_id * ipt + c) * WARP_SIZE;
                let mask = tail_mask(base, n);
                if mask == 0 {
                    break;
                }
                let idx = lanes_from_fn(|j| if base + j < n { base + j } else { base });
                let v = w.gather(src, idx, mask);
                w.scatter(&out, idx, v, mask);
            }
        }
    });
    out
}

/// The ms-sort engine: a OneSweep stable LSB radix sort of the key bit
/// field `[lo_bit, lo_bit + bits)` over `ceil(bits / digit_bits)` digits.
/// One pre-scan launch histograms every digit; each digit pass is then a
/// single direct sweep ([`multisplit_sweep_into`]) whose bucket bases come
/// from that histogram, ping-ponging between two internally-allocated
/// output buffers so each pass scatters directly into the next pass's
/// input. A digit whose keys all share one value is the identity pass and
/// is skipped; when every digit is, the result is a copy. Any other digit
/// narrows to the width of its highest non-empty bucket. Bits outside
/// the field ride along untouched (the reduced-bit paths sort
/// `[index_bits, index_bits + label_bits)` and keep the packed index
/// intact). Returns the sorted keys and, when given, the payload values
/// permuted alongside.
#[allow(clippy::too_many_arguments)]
pub fn sort_by_bit_range_with<V: Scalar>(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    values: Option<&GlobalBuffer<V>>,
    n: usize,
    lo_bit: u32,
    bits: u32,
    digit_bits: u32,
    wpb: usize,
) -> (GlobalBuffer<u32>, Option<GlobalBuffer<V>>) {
    assert!(
        lo_bit + bits <= 32,
        "bit field [{lo_bit}, {lo_bit}+{bits}) exceeds the key width"
    );
    let vb = if values.is_some() { V::BYTES } else { 0 };
    assert!(
        (1..=max_digit_bits(wpb, vb)).contains(&digit_bits),
        "digit width {digit_bits} outside 1..={} for wpb={wpb}, value_bytes={vb}",
        max_digit_bits(wpb, vb)
    );
    assert!(keys.len() >= n, "key buffer shorter than n");
    if n == 0 {
        return (
            GlobalBuffer::zeroed(0),
            values.map(|_| GlobalBuffer::zeroed(0)),
        );
    }
    let copy = || {
        (
            copy_out(dev, keys, n, wpb),
            values.map(|v| copy_out(dev, v, n, wpb)),
        )
    };
    if bits == 0 {
        return copy();
    }
    let digits: Vec<DigitBuckets> = (lo_bit..lo_bit + bits)
        .step_by(digit_bits as usize)
        .map(|shift| DigitBuckets::new(shift, digit_bits.min(lo_bit + bits - shift)))
        .collect();
    // The all-digit pre-scan: a digit's histogram does not depend on the
    // key order, so these totals hold for every pass.
    let targets: Vec<&DigitBuckets> = digits.iter().collect();
    let totals = bucket_totals(dev, "ms_sort/pre-scan", keys, n, &targets, wpb);
    // The passes: each digit with more than one non-empty bucket, narrowed
    // to the width of its highest one (its pass index, digit and totals).
    let live: Vec<(usize, DigitBuckets, &[u32])> = digits
        .iter()
        .zip(&totals)
        .enumerate()
        .filter(|(_, (_, t))| t.iter().filter(|&&c| c > 0).count() > 1)
        .map(|(d, (digit, t))| {
            let top = t.iter().rposition(|&c| c > 0).expect("a non-empty bucket") as u32;
            let width = 32 - top.leading_zeros();
            (d, DigitBuckets::new(digit.shift, width), &t[..1 << width])
        })
        .collect();
    if live.is_empty() {
        return copy();
    }
    // Two ping-pong buffers (one suffices for a single pass).
    let nbuf = live.len().min(2);
    let mut kbufs: Vec<GlobalBuffer<u32>> = (0..nbuf)
        .map(|_| GlobalBuffer::zeroed(n).tracked())
        .collect();
    let mut vbufs: Option<Vec<GlobalBuffer<V>>> = values.map(|_| {
        (0..nbuf)
            .map(|_| GlobalBuffer::zeroed(n).tracked())
            .collect()
    });
    for (i, (d, digit, totals)) in live.iter().enumerate() {
        let dst = i % nbuf;
        let src = (i + 1) % nbuf;
        let (kin, vin): (&GlobalBuffer<u32>, Option<&GlobalBuffer<V>>) = if i == 0 {
            (keys, values)
        } else {
            (&kbufs[src], vbufs.as_ref().map(|v| &v[src]))
        };
        // Scope each pass by its digit so launch logs (and the bench's
        // per-pass sector breakdown) read "ms_sort/pass2/fused_large_m/sweep".
        dev.with_scope(&format!("ms_sort/pass{d}"), || {
            multisplit_sweep_into(
                dev,
                kin,
                vin,
                n,
                digit,
                wpb,
                totals,
                &kbufs[dst],
                vbufs.as_ref().map(|v| &v[dst]),
            )
        });
    }
    let last = (live.len() - 1) % nbuf;
    (
        kbufs.swap_remove(last),
        vbufs.as_mut().map(|v| v.swap_remove(last)),
    )
}

/// Stable sort of the low `bits` key bits at the default digit width.
fn sort_keys_by_bits(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    n: usize,
    bits: u32,
    wpb: usize,
) -> GlobalBuffer<u32> {
    let db = DEFAULT_DIGIT_BITS
        .min(max_digit_bits(wpb, 0))
        .min(bits.max(1));
    sort_by_bit_range_with::<u32>(dev, keys, None, n, 0, bits, db, wpb).0
}

/// Stable key–value sort of the low `bits` key bits at the default digit
/// width; values travel with their keys.
pub fn sort_pairs_by_bits<V: Scalar>(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    values: &GlobalBuffer<V>,
    n: usize,
    bits: u32,
    wpb: usize,
) -> (GlobalBuffer<u32>, GlobalBuffer<V>) {
    let db = DEFAULT_DIGIT_BITS
        .min(max_digit_bits(wpb, V::BYTES))
        .min(bits.max(1));
    let (k, v) = sort_by_bit_range_with(dev, keys, Some(values), n, 0, bits, db, wpb);
    (k, v.expect("payload present"))
}

/// Full 32-bit stable key sort. The pre-scan's histograms skip the
/// constant digits and narrow the rest, so keys of a narrow range cost
/// only the passes their live bits need.
pub fn sort_keys(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    n: usize,
    wpb: usize,
) -> GlobalBuffer<u32> {
    sort_keys_by_bits(dev, keys, n, 32, wpb)
}

/// Full 32-bit stable key–value sort, with passes laid out as in
/// [`sort_keys`]. Stability: pairs with equal keys keep their input
/// order.
pub fn sort_pairs<V: Scalar>(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    values: &GlobalBuffer<V>,
    n: usize,
    wpb: usize,
) -> (GlobalBuffer<u32>, GlobalBuffer<V>) {
    sort_pairs_by_bits(dev, keys, values, n, 32, wpb)
}

/// Host-convenience full key sort: upload, sort, download.
pub fn sort_keys_host(dev: &Device, keys: &[u32]) -> Vec<u32> {
    let buf = GlobalBuffer::from_slice(keys);
    sort_keys(dev, &buf, keys.len(), multisplit::DEFAULT_WARPS_PER_BLOCK).to_vec()
}

/// Host-convenience full key–value sort (stable).
pub fn sort_pairs_host(dev: &Device, keys: &[u32], values: &[u32]) -> (Vec<u32>, Vec<u32>) {
    assert_eq!(keys.len(), values.len(), "key/value length mismatch");
    let kb = GlobalBuffer::from_slice(keys);
    let vb = GlobalBuffer::from_slice(values);
    let (k, v) = sort_pairs(
        dev,
        &kb,
        &vb,
        keys.len(),
        multisplit::DEFAULT_WARPS_PER_BLOCK,
    );
    (k.to_vec(), v.to_vec())
}

/// A stable argsort of small labels, produced by [`argsort_by_bits`]: the
/// packed `(label << index_bits) | original_index` words in sorted order.
/// The expensive part of applying it — one random-gather pass per payload
/// — is explicit as [`Argsort::permute`]; the sorted labels themselves
/// fall out of the high bits at streaming cost (`Argsort::sorted_keys`).
pub struct Argsort {
    packed: GlobalBuffer<u32>,
    idx_bits: u32,
    n: usize,
}

impl Argsort {
    /// `out[i] = src[perm[i]]`: apply the permutation to one payload in a
    /// single pass (coalesced read of the packed words + one gather).
    pub fn permute<T: Scalar>(
        &self,
        dev: &Device,
        src: &GlobalBuffer<T>,
        wpb: usize,
    ) -> GlobalBuffer<T> {
        let n = self.n;
        assert!(src.len() >= n, "payload buffer shorter than n");
        let out = GlobalBuffer::<T>::zeroed(n).tracked();
        if n == 0 {
            return out;
        }
        let idx_mask = ((1u64 << self.idx_bits) - 1) as u32;
        dev.launch("ms_sort/permute", blocks_for(n, wpb), wpb, |blk| {
            for w in blk.warps() {
                let base = w.global_warp_id * WARP_SIZE;
                let mask = tail_mask(base, n);
                if mask == 0 {
                    continue;
                }
                let idx = lanes_from_fn(|j| if base + j < n { base + j } else { base });
                let p = w.gather(&self.packed, idx, mask);
                // The one non-coalesced pass of the reduced-bit sort.
                let src_idx = lanes_from_fn(|l| (p[l] & idx_mask) as usize);
                let v = w.gather(src, src_idx, mask);
                w.scatter(&out, idx, v, mask);
            }
        });
        out
    }

    /// The sorted labels (high bits of the packed words), at streaming
    /// cost — no gather.
    fn sorted_keys(&self, dev: &Device, wpb: usize) -> GlobalBuffer<u32> {
        let n = self.n;
        let out = GlobalBuffer::<u32>::zeroed(n).tracked();
        if n == 0 {
            return out;
        }
        let shift = self.idx_bits;
        dev.launch("ms_sort/unpack", blocks_for(n, wpb), wpb, |blk| {
            for w in blk.warps() {
                let base = w.global_warp_id * WARP_SIZE;
                let mask = tail_mask(base, n);
                if mask == 0 {
                    continue;
                }
                let idx = lanes_from_fn(|j| if base + j < n { base + j } else { base });
                let p = w.gather(&self.packed, idx, mask);
                w.charge(mask.count_ones() as u64);
                w.scatter(&out, idx, lanes_from_fn(|l| p[l] >> shift), mask);
            }
        });
        out
    }
}

/// Stable argsort of keys known to fit `key_bits` low bits (labels): pack
/// `(label << index_bits) | row` into one `u32`, sort only the label
/// field. Returns `None` when `key_bits + index_bits(n) > 32` — the
/// packing doesn't fit and callers must carry payloads through the passes
/// instead ([`sort_pairs_reduced_bit`] does exactly that).
pub fn argsort_by_bits(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    n: usize,
    key_bits: u32,
    wpb: usize,
) -> Option<Argsort> {
    let ib = index_bits(n);
    if key_bits + ib > 32 {
        return None;
    }
    assert!(keys.len() >= n, "key buffer shorter than n");
    let packed = GlobalBuffer::<u32>::zeroed(n).tracked();
    if n > 0 {
        dev.launch("ms_sort/pack", blocks_for(n, wpb), wpb, |blk| {
            for w in blk.warps() {
                let base = w.global_warp_id * WARP_SIZE;
                let mask = tail_mask(base, n);
                if mask == 0 {
                    continue;
                }
                let idx = lanes_from_fn(|j| if base + j < n { base + j } else { base });
                let k = w.gather(keys, idx, mask);
                w.charge(mask.count_ones() as u64);
                w.scatter(
                    &packed,
                    idx,
                    lanes_from_fn(|l| {
                        debug_assert!(
                            key_bits == 32 || k[l] < (1u32 << key_bits),
                            "key {} exceeds the declared {key_bits}-bit label range",
                            k[l]
                        );
                        (k[l] << ib) | idx[l] as u32
                    }),
                    mask,
                );
            }
        });
    }
    let db = DEFAULT_DIGIT_BITS
        .min(max_digit_bits(wpb, 0))
        .min(key_bits.max(1));
    let (sorted, _) = sort_by_bit_range_with::<u32>(dev, &packed, None, n, ib, key_bits, db, wpb);
    Some(Argsort {
        packed: sorted,
        idx_bits: ib,
        n,
    })
}

/// The reduced-bit key–value sort (paper §3.4): keys are labels known to
/// fit `key_bits` bits. When `(label, index)` packs into a `u32`, the sort
/// moves one word per element per pass and each payload is permuted once;
/// otherwise the payload rides through the passes directly. Stable either
/// way.
pub fn sort_pairs_reduced_bit<V: Scalar>(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    values: &GlobalBuffer<V>,
    n: usize,
    key_bits: u32,
    wpb: usize,
) -> (GlobalBuffer<u32>, GlobalBuffer<V>) {
    match argsort_by_bits(dev, keys, n, key_bits, wpb) {
        Some(args) => {
            let out_keys = args.sorted_keys(dev, wpb);
            let out_values = args.permute(dev, values, wpb);
            (out_keys, out_values)
        }
        None => sort_pairs_by_bits(dev, keys, values, n, key_bits, wpb),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multisplit::BucketFn;
    use simt::{BlockStats, K40C};

    fn digit_totals(
        dev: &Device,
        keys: &GlobalBuffer<u32>,
        n: usize,
        digits: &[DigitBuckets],
        wpb: usize,
    ) -> Vec<Vec<u32>> {
        let targets: Vec<&DigitBuckets> = digits.iter().collect();
        bucket_totals(dev, "ms_sort/pre-scan", keys, n, &targets, wpb)
    }

    fn keys_for(n: usize, seed: u32) -> Vec<u32> {
        (0..n as u32)
            .map(|i| i.wrapping_mul(2654435761).wrapping_add(seed))
            .collect()
    }

    fn host_sorted(keys: &[u32]) -> Vec<u32> {
        let mut v = keys.to_vec();
        v.sort_unstable();
        v
    }

    #[test]
    fn sorts_full_range_across_n() {
        let dev = Device::new(K40C);
        for n in [1usize, 2, 31, 32, 33, 2048, 2049, 10_000] {
            let data = keys_for(n, n as u32);
            let keys = GlobalBuffer::from_slice(&data);
            let out = sort_keys(&dev, &keys, n, 8);
            assert_eq!(out.to_vec(), host_sorted(&data), "n={n}");
        }
    }

    #[test]
    fn sorts_reduced_ranges_with_fewer_passes() {
        let dev = Device::new(K40C);
        let n = 20_000;
        for range_bits in [1u32, 8, 16, 26] {
            let mask = ((1u64 << range_bits) - 1) as u32;
            let data: Vec<u32> = keys_for(n, range_bits).iter().map(|k| k & mask).collect();
            let keys = GlobalBuffer::from_slice(&data);
            let launches_before = dev.records().len();
            let out = sort_keys(&dev, &keys, n, 8);
            let launches = dev.records().len() - launches_before;
            assert_eq!(out.to_vec(), host_sorted(&data), "range={range_bits}");
            // The all-digit pre-scan, one sweep per pass.
            let expect_passes = range_bits.div_ceil(DEFAULT_DIGIT_BITS) as usize;
            assert_eq!(launches, 1 + expect_passes, "range={range_bits}");
        }
    }

    #[test]
    fn digit_totals_match_a_host_histogram() {
        let dev = Device::new(K40C);
        // Several tiles and a partial one, at two block sizes.
        let n = 40_000;
        let data = keys_for(n, 29);
        let keys = GlobalBuffer::from_slice(&data);
        let digits = [
            DigitBuckets::new(0, 7),
            DigitBuckets::new(7, 12),
            DigitBuckets::new(19, 12),
            DigitBuckets::new(0, 3),
            DigitBuckets::new(31, 1),
        ];
        for wpb in [1usize, 8] {
            let totals = digit_totals(&dev, &keys, n, &digits, wpb);
            for (d, got) in digits.iter().zip(&totals) {
                let mut expect = vec![0u32; d.num_buckets() as usize];
                for &k in &data {
                    expect[d.bucket_of(k) as usize] += 1;
                }
                assert_eq!(*got, expect, "wpb={wpb} digit at bit {}", d.shift);
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceed the 12288-word shared-memory budget")]
    fn prescan_counters_past_the_shared_budget_are_rejected() {
        let dev = Device::new(K40C);
        let keys = GlobalBuffer::from_slice(&[1u32, 2, 3]);
        // Three 12-bit digits need 3 x 4096 counters, one word too many
        // once a fourth 1-bit digit joins them.
        let digits = [
            DigitBuckets::new(0, 12),
            DigitBuckets::new(12, 12),
            DigitBuckets::new(24, 12),
            DigitBuckets::new(31, 1),
        ];
        let _ = digit_totals(&dev, &keys, 3, &digits, 8);
    }

    #[test]
    fn every_sort_runs_one_prescan_launch() {
        let dev = Device::new(K40C);
        let n = 9000;
        let data = keys_for(n, 31);
        let keys = GlobalBuffer::from_slice(&data);
        let widest = max_digit_bits(8, 0);
        for (bits, b) in [(32u32, 7u32), (32, 1), (32, widest), (16, 4), (5, 5)] {
            let before = dev.records().len();
            let (out, _) = sort_by_bit_range_with::<u32>(&dev, &keys, None, n, 0, bits, b, 8);
            let records = dev.records();
            let labels: Vec<&str> = records[before..].iter().map(|r| &r.label[..]).collect();
            // The bench's `stage_of` puts every label naming "pre-scan"
            // in the pre-scan stage.
            let prescans = labels.iter().filter(|l| l.contains("pre-scan")).count();
            let sweeps = labels.iter().filter(|l| l.ends_with("/sweep")).count();
            assert_eq!(prescans, 1, "bits={bits} b={b}: {labels:?}");
            assert_eq!(sweeps, bits.div_ceil(b) as usize, "bits={bits} b={b}");
            let mask = ((1u64 << bits) - 1) as u32;
            let mut expect = data.clone();
            expect.sort_by_key(|&k| k & mask);
            assert_eq!(out.to_vec(), expect, "bits={bits} b={b}");
        }
    }

    #[test]
    fn constant_digits_skip_their_pass() {
        // Multiples of 2^b: the first b-bit digit is 0 for every key, so
        // its pass would be the identity.
        let dev = Device::new(K40C);
        let n = 20_000;
        let data: Vec<u32> = keys_for(n, 37)
            .iter()
            .map(|k| k << DEFAULT_DIGIT_BITS)
            .collect();
        let vals: Vec<u32> = (0..n as u32).collect();
        let keys = GlobalBuffer::from_slice(&data);
        let values = GlobalBuffer::from_slice(&vals);
        let (sk, sv) = sort_pairs(&dev, &keys, &values, n, 8);
        let mut expect: Vec<(u32, u32)> = data.iter().copied().zip(vals).collect();
        expect.sort_by_key(|&(k, _)| k);
        assert_eq!(sk.to_vec(), expect.iter().map(|p| p.0).collect::<Vec<_>>());
        assert_eq!(sv.to_vec(), expect.iter().map(|p| p.1).collect::<Vec<_>>());
        let labels: Vec<String> = dev.records().iter().map(|r| r.label.clone()).collect();
        let sweeps: Vec<&String> = labels.iter().filter(|l| l.ends_with("/sweep")).collect();
        let top = data.iter().fold(0, |a, &k| a | k);
        let passes = (32 - top.leading_zeros()).div_ceil(DEFAULT_DIGIT_BITS);
        assert_eq!(sweeps.len(), passes as usize - 1, "{labels:?}");
        assert!(
            sweeps.iter().all(|l| !l.starts_with("ms_sort/pass0/")),
            "{labels:?}"
        );
        // One constant key: every digit is, and the sort is a copy.
        let dev = Device::new(K40C);
        let same = GlobalBuffer::from_slice(&vec![0x5A5A_5A5Au32; n]);
        let (sk, _) = sort_by_bit_range_with::<u32>(&dev, &same, None, n, 0, 32, 7, 8);
        assert_eq!(sk.to_vec(), vec![0x5A5A_5A5Au32; n]);
        let labels: Vec<String> = dev.records().iter().map(|r| r.label.clone()).collect();
        assert_eq!(labels, ["ms_sort/pre-scan", "ms_sort/copy"]);
    }

    #[test]
    fn widest_digits_and_widest_blocks_sort_exactly() {
        // The shapes with the most pre-scan counters: 12-bit digits at one
        // warp per block (12 + 12 + 8 bits, 8,448 counters), and 8-bit
        // digits at 32 warps per block.
        let dev = Device::new(K40C);
        let n = 30_000;
        let data = keys_for(n, 41);
        let vals: Vec<u32> = (0..n as u32).map(|i| !i).collect();
        let keys = GlobalBuffer::from_slice(&data);
        let values = GlobalBuffer::from_slice(&vals);
        let mut expect: Vec<(u32, u32)> = data.iter().copied().zip(vals).collect();
        expect.sort_by_key(|&(k, _)| k);
        let (ek, ev): (Vec<u32>, Vec<u32>) = expect.into_iter().unzip();
        let widest = max_digit_bits(1, 0);
        assert_eq!(widest, 12);
        let (sk, _) = sort_by_bit_range_with::<u32>(&dev, &keys, None, n, 0, 32, widest, 1);
        assert_eq!(sk.to_vec(), ek, "b={widest} wpb=1");
        for kv in [false, true] {
            let vin = kv.then_some(&values);
            let (sk, sv) = sort_by_bit_range_with(&dev, &keys, vin, n, 0, 32, 8, 32);
            assert_eq!(sk.to_vec(), ek, "b=8 wpb=32 kv={kv}");
            if let Some(sv) = sv {
                assert_eq!(sv.to_vec(), ev, "b=8 wpb=32 payloads");
            }
        }
    }

    /// A middle digit whose live values fit 4 bits runs its pass at
    /// m = 16: its sweep bills exactly what a standalone 16-bucket sweep
    /// of that digit bills on the same input, and the sort stays exact.
    #[test]
    fn a_narrow_middle_digit_runs_a_narrow_pass() {
        let n = 20_000;
        let data: Vec<u32> = keys_for(n, 43).iter().map(|k| k & 0xFFFF_0FFF).collect();
        let vals: Vec<u32> = (0..n as u32).map(|i| !i).collect();
        let mut expect: Vec<(u32, u32)> = data.iter().copied().zip(vals.clone()).collect();
        expect.sort_by_key(|&(k, _)| k);
        let dev = Device::sequential(K40C);
        let keys = GlobalBuffer::from_slice(&data);
        let values = GlobalBuffer::from_slice(&vals);
        let (sk, sv) = sort_pairs(&dev, &keys, &values, n, 8);
        assert_eq!(sk.to_vec(), expect.iter().map(|p| p.0).collect::<Vec<_>>());
        assert_eq!(sv.to_vec(), expect.iter().map(|p| p.1).collect::<Vec<_>>());
        // Pass 1 reads the pairs stably sorted by digit 0.
        let mut by0: Vec<(u32, u32)> = data.iter().copied().zip(vals).collect();
        by0.sort_by_key(|&(k, _)| k & 0xFF);
        let (k1, v1): (Vec<u32>, Vec<u32>) = by0.into_iter().unzip();
        let digit = DigitBuckets::new(8, 4);
        let mut totals = vec![0u32; 16];
        for &k in &k1 {
            totals[digit.bucket_of(k) as usize] += 1;
        }
        let alone = Device::sequential(K40C);
        multisplit_sweep_into(
            &alone,
            &GlobalBuffer::from_slice(&k1),
            Some(&GlobalBuffer::from_slice(&v1)),
            n,
            &digit,
            8,
            &totals,
            &GlobalBuffer::zeroed(n).tracked(),
            Some(&GlobalBuffer::<u32>::zeroed(n).tracked()),
        );
        let records = dev.records();
        let pass1: Vec<_> = records
            .iter()
            .filter(|r| r.label.starts_with("ms_sort/pass1/"))
            .collect();
        assert_eq!(pass1.len(), 1);
        assert_eq!(pass1[0].label, "ms_sort/pass1/fused/sweep");
        assert_eq!(pass1[0].stats, alone.records()[0].stats);
    }

    #[test]
    fn all_equal_keys_need_no_data_passes() {
        let dev = Device::new(K40C);
        let data = vec![0u32; 5000];
        let keys = GlobalBuffer::from_slice(&data);
        let out = sort_keys(&dev, &keys, 5000, 8);
        assert_eq!(out.to_vec(), data);
    }

    #[test]
    fn digit_width_sweep_agrees_at_every_width() {
        let dev = Device::new(K40C);
        let n = 6000;
        let data = keys_for(n, 17);
        let keys = GlobalBuffer::from_slice(&data);
        let expect = host_sorted(&data);
        for b in 1..=max_digit_bits(8, 0) {
            let (out, _) = sort_by_bit_range_with::<u32>(&dev, &keys, None, n, 0, 32, b, 8);
            assert_eq!(out.to_vec(), expect, "digit width {b}");
        }
    }

    #[test]
    fn pairs_sort_stably() {
        let dev = Device::new(K40C);
        let n = 4000;
        // Few distinct keys => many ties to exercise stability.
        let data: Vec<u32> = keys_for(n, 5).iter().map(|k| k % 7).collect();
        let vals: Vec<u32> = (0..n as u32).collect();
        let keys = GlobalBuffer::from_slice(&data);
        let values = GlobalBuffer::from_slice(&vals);
        let (sk, sv) = sort_pairs(&dev, &keys, &values, n, 8);
        let mut expect: Vec<(u32, u32)> = data.iter().copied().zip(vals).collect();
        expect.sort_by_key(|&(k, _)| k); // std stable sort
        assert_eq!(sk.to_vec(), expect.iter().map(|p| p.0).collect::<Vec<_>>());
        assert_eq!(sv.to_vec(), expect.iter().map(|p| p.1).collect::<Vec<_>>());
    }

    #[test]
    fn reduced_bit_pairs_match_carrying_payloads() {
        let dev = Device::new(K40C);
        let n = 3000;
        for key_bits in [1u32, 4, 9] {
            let mask = (1u32 << key_bits) - 1;
            let data: Vec<u32> = keys_for(n, key_bits).iter().map(|k| k & mask).collect();
            let vals: Vec<u32> = (0..n as u32).map(|i| !i).collect();
            let keys = GlobalBuffer::from_slice(&data);
            let values = GlobalBuffer::from_slice(&vals);
            let (sk, sv) = sort_pairs_reduced_bit(&dev, &keys, &values, n, key_bits, 8);
            let mut expect: Vec<(u32, u32)> = data.iter().copied().zip(vals).collect();
            expect.sort_by_key(|&(k, _)| k);
            assert_eq!(
                sk.to_vec(),
                expect.iter().map(|p| p.0).collect::<Vec<_>>(),
                "key_bits={key_bits}"
            );
            assert_eq!(
                sv.to_vec(),
                expect.iter().map(|p| p.1).collect::<Vec<_>>(),
                "key_bits={key_bits}"
            );
        }
    }

    #[test]
    fn reduced_bit_falls_back_when_packing_does_not_fit() {
        let dev = Device::new(K40C);
        let n = 300;
        // index_bits(300) = 9, so 24 label bits + 9 > 32 forces the
        // payload-carrying fallback.
        assert!(argsort_by_bits(&dev, &GlobalBuffer::zeroed(n), n, 24, 8).is_none());
        let mask = (1u32 << 24) - 1;
        let data: Vec<u32> = keys_for(n, 2).iter().map(|k| k & mask).collect();
        let vals: Vec<u32> = (0..n as u32).collect();
        let keys = GlobalBuffer::from_slice(&data);
        let values = GlobalBuffer::from_slice(&vals);
        let (sk, sv) = sort_pairs_reduced_bit(&dev, &keys, &values, n, 24, 8);
        let mut expect: Vec<(u32, u32)> = data.iter().copied().zip(vals).collect();
        expect.sort_by_key(|&(k, _)| k);
        assert_eq!(sk.to_vec(), expect.iter().map(|p| p.0).collect::<Vec<_>>());
        assert_eq!(sv.to_vec(), expect.iter().map(|p| p.1).collect::<Vec<_>>());
    }

    #[test]
    fn u64_payloads_ride_along() {
        let dev = Device::new(K40C);
        let n = 2500;
        let data = keys_for(n, 9);
        let vals: Vec<u64> = (0..n as u64).map(|i| i << 33 | i).collect();
        let keys = GlobalBuffer::from_slice(&data);
        let values = GlobalBuffer::from_slice(&vals);
        let (sk, sv) = sort_pairs(&dev, &keys, &values, n, 8);
        let mut expect: Vec<(u32, u64)> = data.iter().copied().zip(vals).collect();
        expect.sort_by_key(|&(k, _)| k);
        assert_eq!(sk.to_vec(), expect.iter().map(|p| p.0).collect::<Vec<_>>());
        assert_eq!(sv.to_vec(), expect.iter().map(|p| p.1).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_zero_bits_copy() {
        let dev = Device::new(K40C);
        let out = sort_keys(&dev, &GlobalBuffer::zeroed(0), 0, 8);
        assert_eq!(out.len(), 0);
        let data = [3u32, 1, 2];
        let keys = GlobalBuffer::from_slice(&data);
        let out = sort_keys_by_bits(&dev, &keys, 3, 0, 8);
        assert_eq!(out.to_vec(), data, "0 sorted bits is a copy");
    }

    #[test]
    fn schedulers_agree_bit_for_bit_and_on_sectors() {
        let n = 50_000;
        let data = keys_for(n, 23);
        let mut outs = Vec::new();
        let mut sectors = Vec::new();
        for dev in [Device::new(K40C), Device::sequential(K40C)] {
            let keys = GlobalBuffer::from_slice(&data);
            let vals = GlobalBuffer::from_slice(&data);
            let (sk, sv) = sort_pairs(&dev, &keys, &vals, n, 8);
            outs.push((sk.to_vec(), sv.to_vec()));
            sectors.push(
                dev.records()
                    .iter()
                    .fold(BlockStats::default(), |mut a, r| {
                        a += r.stats;
                        a
                    })
                    .sectors,
            );
        }
        assert_eq!(outs[0], outs[1], "bit-identical across schedulers");
        assert_eq!(
            sectors[0], sectors[1],
            "sector counts are schedule-independent"
        );
    }

    #[test]
    fn digit_cap_respects_payload_width() {
        // u64 staging shrinks the fused capacity, so the cap for
        // 8-byte payloads can never exceed the key-only cap.
        for wpb in [1usize, 2, 8, 16, 32] {
            assert!(max_digit_bits(wpb, 8) <= max_digit_bits(wpb, 4));
            assert!(max_digit_bits(wpb, 4) <= max_digit_bits(wpb, 0));
            assert!(max_digit_bits(wpb, 8) >= 5, "Fused always handles b <= 5");
        }
    }

    #[test]
    fn index_bits_is_ceil_log2() {
        assert_eq!(index_bits(0), 0);
        assert_eq!(index_bits(1), 0);
        assert_eq!(index_bits(2), 1);
        assert_eq!(index_bits(3), 2);
        assert_eq!(index_bits(1024), 10);
        assert_eq!(index_bits(1025), 11);
    }
}
