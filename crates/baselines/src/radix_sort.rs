//! LSB radix sort on the simulator (the paper's CUB stand-in, §3.3).
//!
//! Classic least-significant-digit radix: each pass is a stable counting
//! split over `2^RADIX_BITS_PER_PASS` digit bins, structured exactly like
//! CUB's Kepler-era kernels — thread-coarsened tiles staged in registers,
//! data-independent ballot-based digit ranking (shared-atomic fallback for
//! digits wider than the warp), a device-wide scan of the per-block digit
//! histogram, and a block-wide shared-memory reorder before the coalesced
//! scatter.
//! CUB on Kepler used 5-bit digits (7 passes for 32-bit keys); sorting
//! fewer bits takes fewer passes, the property reduced-bit sort exploits
//! (§3.4).
//!
//! With uniformly distributed keys, LSB and MSB radix perform alike
//! (paper §3.3); LSB keeps every pass identical, which the cost model
//! prices uniformly.

use simt::{lanes_from_fn, Device, GlobalBuffer, Scalar, WARP_SIZE};

use primitives::{
    block_exclusive_scan_shared, exclusive_scan_u32, low_lanes_mask,
    multi_exclusive_scan_across_warps, multi_reduce_across_warps, tail_mask,
};

/// Digit width per radix pass (CUB on Kepler: 5 bits, 7 passes/32-bit key).
pub const RADIX_BITS_PER_PASS: u32 = 5;

/// Elements per thread in the radix kernels (CUB-style coarsening).
pub const RADIX_ITEMS_PER_THREAD: usize = 8;

fn radix_tile(wpb: usize) -> usize {
    wpb * WARP_SIZE * RADIX_ITEMS_PER_THREAD
}

/// One stable counting pass over the digit `(key >> shift) & (2^bits - 1)`.
fn radix_pass<V: Scalar>(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    values: Option<&GlobalBuffer<V>>,
    n: usize,
    shift: u32,
    bits: u32,
    wpb: usize,
) -> (GlobalBuffer<u32>, Option<GlobalBuffer<V>>) {
    debug_assert!((1..=8).contains(&bits), "digit width must be 1..=8 bits");
    let m = 1usize << bits;
    let mp = m | 1; // odd pitch: conflict-free strided shared accesses
    let digit_mask = (m - 1) as u32;
    let tile = radix_tile(wpb);
    let l = n.div_ceil(tile);
    let ipt = RADIX_ITEMS_PER_THREAD;

    // ====== Pre-scan: per-block digit histograms.
    let h = GlobalBuffer::<u32>::zeroed(m * l);
    dev.launch("pre-scan", l, wpb, |blk| {
        let nw = blk.warps_per_block;
        let counters = blk.alloc_shared::<u32>(nw * mp);
        let block_hist = blk.alloc_shared::<u32>(m);
        let tile_start = blk.block_id * tile;
        for w in blk.warps() {
            let mut running = [0u32; WARP_SIZE];
            for c in 0..ipt {
                let base = tile_start + (w.warp_id * ipt + c) * WARP_SIZE;
                let mask = tail_mask(base, n);
                if mask == 0 {
                    break;
                }
                let idx = lanes_from_fn(|j| if base + j < n { base + j } else { base });
                let k = w.gather(keys, idx, mask);
                w.charge(mask.count_ones() as u64);
                let d = lanes_from_fn(|j| ((k[j] >> shift) & digit_mask) as u32);
                if m <= WARP_SIZE {
                    // Ballot histogram (data-independent, conflict-free).
                    let histo = multisplit::warp_ops::warp_histogram(&w, d, m as u32, mask);
                    running = lanes_from_fn(|j| running[j] + histo[j]);
                    w.charge(WARP_SIZE as u64);
                } else {
                    counters.atomic_add(
                        lanes_from_fn(|j| w.warp_id * mp + d[j] as usize),
                        simt::splat(1u32),
                        mask,
                    );
                }
            }
            if m <= WARP_SIZE {
                counters.st(
                    lanes_from_fn(|j| w.warp_id * mp + j.min(m - 1)),
                    running,
                    primitives::low_lanes_mask(m),
                );
            }
        }
        blk.sync();
        multi_reduce_across_warps(blk, &counters, m, mp, &block_hist);
        // Store the block's histogram column of H (row-vectorized m x L).
        for w in blk.warps() {
            let mut row = w.warp_id * WARP_SIZE;
            while row < m {
                let cnt = (m - row).min(WARP_SIZE);
                let sm = low_lanes_mask(cnt);
                let v = block_hist.ld(lanes_from_fn(|j| row + j.min(cnt - 1)), sm);
                w.scatter_merged(
                    &h,
                    lanes_from_fn(|j| (row + j.min(cnt - 1)) * l + blk.block_id),
                    v,
                    sm,
                );
                row += blk.warps_per_block * WARP_SIZE;
            }
        }
    });

    // ====== Scan over the row-vectorized histogram.
    let g = GlobalBuffer::<u32>::zeroed(m * l);
    exclusive_scan_u32(dev, "scan", &h, &g, m * l, wpb);

    // ====== Post-scan: rank, block reorder, coalesced scatter.
    let out_keys = GlobalBuffer::<u32>::zeroed(n);
    let out_values = values.map(|_| GlobalBuffer::<V>::zeroed(n));
    dev.launch("post-scan", l, wpb, |blk| {
        let nw = blk.warps_per_block;
        let counters = blk.alloc_shared::<u32>(nw * mp);
        let digit_base = blk.alloc_shared::<u32>(m);
        let keys2 = blk.alloc_shared::<u32>(tile);
        let values2 = values.map(|_| blk.alloc_shared::<V>(tile));
        let tile_start = blk.block_id * tile;
        // Registers staged across the barrier, as a real kernel would.
        let mut key_reg = vec![[0u32; WARP_SIZE]; nw * ipt];
        let mut val_reg = values.map(|_| vec![[V::default(); WARP_SIZE]; nw * ipt]);
        let mut rank_reg = vec![[0u32; WARP_SIZE]; nw * ipt];

        // Phase 1: load + intra-warp ranking. For narrow digits (m <= 32,
        // the 5-bit default) ranks come from the data-independent ballot
        // bitmaps of the multisplit paper's Algorithms 2-3 with a running
        // per-digit register count across chunks — matching CUB's
        // scan-based BlockRadixRank, which does not degrade under skewed
        // digit distributions. Wider digits fall back to shared-atomic
        // ranking (prev counter value = rank; chunk order preserves
        // stability).
        for w in blk.warps() {
            let mut running = [0u32; WARP_SIZE]; // lane d: digit-d count so far
            for c in 0..ipt {
                let base = tile_start + (w.warp_id * ipt + c) * WARP_SIZE;
                let mask = tail_mask(base, n);
                if mask == 0 {
                    break;
                }
                let idx = lanes_from_fn(|j| if base + j < n { base + j } else { base });
                let k = w.gather(keys, idx, mask);
                w.charge(mask.count_ones() as u64);
                let d = lanes_from_fn(|j| ((k[j] >> shift) & digit_mask) as u32);
                let rank = if m <= WARP_SIZE {
                    let (histo, offs) =
                        multisplit::warp_ops::warp_histogram_and_offsets(&w, d, m as u32, mask);
                    let prior = w.shfl(running, d, mask);
                    running = lanes_from_fn(|j| running[j] + histo[j]);
                    w.charge(WARP_SIZE as u64);
                    lanes_from_fn(|j| prior[j] + offs[j])
                } else {
                    counters.atomic_add(
                        lanes_from_fn(|j| w.warp_id * mp + d[j] as usize),
                        simt::splat(1u32),
                        mask,
                    )
                };
                key_reg[w.warp_id * ipt + c] = k;
                rank_reg[w.warp_id * ipt + c] = rank;
                if let (Some(vin), Some(vr)) = (values, &mut val_reg) {
                    vr[w.warp_id * ipt + c] = w.gather(vin, idx, mask);
                }
            }
            if m <= WARP_SIZE {
                // Publish the warp's digit histogram for the cross-warp scan.
                counters.st(
                    lanes_from_fn(|j| w.warp_id * mp + j.min(m - 1)),
                    running,
                    primitives::low_lanes_mask(m),
                );
            }
        }
        blk.sync();

        // Phase 2: cross-warp digit offsets + block digit bases.
        multi_exclusive_scan_across_warps(blk, &counters, m, mp, Some(&digit_base));
        block_exclusive_scan_shared(blk, &digit_base, m);

        // Phase 3: block-wide reorder through shared memory.
        for w in blk.warps() {
            for c in 0..ipt {
                let base = tile_start + (w.warp_id * ipt + c) * WARP_SIZE;
                let mask = tail_mask(base, n);
                if mask == 0 {
                    break;
                }
                let k = key_reg[w.warp_id * ipt + c];
                let rank = rank_reg[w.warp_id * ipt + c];
                let di = lanes_from_fn(|j| ((k[j] >> shift) & digit_mask) as usize);
                let db = digit_base.ld(di, mask);
                let cw = counters.ld(lanes_from_fn(|j| w.warp_id * mp + di[j]), mask);
                let new_idx = lanes_from_fn(|j| (db[j] + cw[j] + rank[j]) as usize);
                keys2.st(new_idx, k, mask);
                if let (Some(vr), Some(v2)) = (&val_reg, &values2) {
                    v2.st(new_idx, vr[w.warp_id * ipt + c], mask);
                }
            }
        }
        blk.sync();

        // Phase 4: coalesced scatter; digit recomputed from the reordered
        // key (cheaper than staging it).
        let block_n = tile.min(n - tile_start);
        for w in blk.warps() {
            for c in 0..ipt {
                let local = (w.warp_id * ipt + c) * WARP_SIZE;
                let mask = tail_mask(local, block_n);
                if mask == 0 {
                    break;
                }
                let tidx = lanes_from_fn(|j| {
                    if local + j < block_n {
                        local + j
                    } else {
                        local
                    }
                });
                let k2 = keys2.ld(tidx, mask);
                let d2 = lanes_from_fn(|j| ((k2[j] >> shift) & digit_mask) as usize);
                let db = digit_base.ld(d2, mask);
                let gbase = w.gather_cached(&g, lanes_from_fn(|j| d2[j] * l + blk.block_id), mask);
                let dest = lanes_from_fn(|j| (gbase[j] + (local + j) as u32 - db[j]) as usize);
                w.scatter(&out_keys, dest, k2, mask);
                if let (Some(v2), Some(vout)) = (&values2, &out_values) {
                    let vv = v2.ld(tidx, mask);
                    w.scatter(vout, dest, vv, mask);
                }
            }
        }
    });
    (out_keys, out_values)
}

/// Stable sort of `keys` by their low `bits` bits, carrying optional
/// values. Returns the sorted copies (inputs untouched).
pub fn radix_sort_by_bits<V: Scalar>(
    dev: &Device,
    label: &str,
    keys: &GlobalBuffer<u32>,
    values: Option<&GlobalBuffer<V>>,
    n: usize,
    bits: u32,
    wpb: usize,
) -> (GlobalBuffer<u32>, Option<GlobalBuffer<V>>) {
    assert!(bits <= 32);
    if bits == 0 || n == 0 {
        // Nothing to order: the identity permutation is the stable sort.
        return (
            GlobalBuffer::from_slice(&keys.to_vec()[..n]),
            values.map(|v| GlobalBuffer::from_slice(&v.to_vec()[..n])),
        );
    }
    let mut cur_keys: Option<GlobalBuffer<u32>> = None;
    let mut cur_values: Option<GlobalBuffer<V>> = None;
    let mut shift = 0u32;
    let mut pass = 0usize;
    while shift < bits {
        let pass_bits = (bits - shift).min(RADIX_BITS_PER_PASS);
        let kref = cur_keys.as_ref().unwrap_or(keys);
        let vref = cur_values.as_ref().or(values);
        let (k, v) = dev.with_scope(&format!("{label}/pass{pass}"), || {
            radix_pass(dev, kref, vref, n, shift, pass_bits, wpb)
        });
        cur_keys = Some(k);
        cur_values = v;
        shift += pass_bits;
        pass += 1;
    }
    (cur_keys.unwrap(), cur_values)
}

/// Full 32-bit stable radix sort (the paper's "radix sort" baseline).
///
/// ```
/// use simt::{Device, GlobalBuffer, K40C};
/// use multisplit::no_values;
/// let dev = Device::new(K40C);
/// let keys = GlobalBuffer::from_slice(&[170u32, 45, 75, 90, 2, 802, 24, 66]);
/// let (sorted, _) = baselines::radix_sort(&dev, "demo", &keys, no_values(), 8, 8);
/// assert_eq!(sorted.to_vec(), vec![2, 24, 45, 66, 75, 90, 170, 802]);
/// ```
pub fn radix_sort<V: Scalar>(
    dev: &Device,
    label: &str,
    keys: &GlobalBuffer<u32>,
    values: Option<&GlobalBuffer<V>>,
    n: usize,
    wpb: usize,
) -> (GlobalBuffer<u32>, Option<GlobalBuffer<V>>) {
    radix_sort_by_bits(dev, label, keys, values, n, 32, wpb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use multisplit::no_values;
    use simt::{Device, K40C};

    fn keys_for(n: usize, seed: u32) -> Vec<u32> {
        (0..n as u32)
            .map(|i| i.wrapping_mul(2654435761).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn sorts_full_32_bit_keys() {
        let dev = Device::new(K40C);
        for n in [1usize, 100, 2048, 2049, 10_000] {
            let data = keys_for(n, 1);
            let keys = GlobalBuffer::from_slice(&data);
            let (sorted, _) = radix_sort(&dev, "radix", &keys, no_values(), n, 8);
            let mut expect = data;
            expect.sort_unstable();
            assert_eq!(sorted.to_vec(), expect, "n={n}");
        }
        // 7 passes of 5 bits (last pass 2 bits).
        assert!(dev.seconds_with_prefix("radix/pass6/") > 0.0);
        assert_eq!(dev.seconds_with_prefix("radix/pass7/"), 0.0);
    }

    #[test]
    fn carries_values_stably() {
        let dev = Device::new(K40C);
        let n = 4096;
        // Few distinct keys so stability is observable via values.
        let data: Vec<u32> = (0..n as u32).map(|i| i % 7).collect();
        let vals: Vec<u32> = (0..n as u32).collect();
        let keys = GlobalBuffer::from_slice(&data);
        let values = GlobalBuffer::from_slice(&vals);
        let (sk, sv) = radix_sort_by_bits(&dev, "r", &keys, Some(&values), n, 3, 8);
        let sk = sk.to_vec();
        let sv = sv.unwrap().to_vec();
        let mut expect: Vec<(u32, u32)> = data.iter().copied().zip(vals).collect();
        expect.sort_by_key(|&(k, _)| k); // std stable sort
        for i in 0..n {
            assert_eq!((sk[i], sv[i]), expect[i], "index {i}");
        }
    }

    #[test]
    fn multi_pass_stability_over_5_bit_digits() {
        // 10-bit keys = exactly 2 passes; stability across passes is what
        // makes LSB radix correct.
        let dev = Device::new(K40C);
        let n = 8192;
        let data: Vec<u32> = keys_for(n, 3).iter().map(|k| k % 1024).collect();
        let vals: Vec<u32> = (0..n as u32).collect();
        let keys = GlobalBuffer::from_slice(&data);
        let values = GlobalBuffer::from_slice(&vals);
        let (sk, sv) = radix_sort_by_bits(&dev, "r", &keys, Some(&values), n, 10, 8);
        let sk = sk.to_vec();
        let sv = sv.unwrap().to_vec();
        let mut expect: Vec<(u32, u32)> = data.iter().copied().zip(vals).collect();
        expect.sort_by_key(|&(k, _)| k);
        assert_eq!(
            sk.iter()
                .zip(&sv)
                .map(|(a, b)| (*a, *b))
                .collect::<Vec<_>>(),
            expect
        );
    }

    #[test]
    fn fewer_bits_means_fewer_passes_and_less_time() {
        let n = 1 << 14;
        let data = keys_for(n, 3);
        let keys = GlobalBuffer::from_slice(&data);
        let dev_full = Device::new(K40C);
        radix_sort(&dev_full, "r", &keys, no_values(), n, 8);
        let dev_small = Device::new(K40C);
        radix_sort_by_bits(&dev_small, "r", &keys, no_values(), n, 4, 8);
        assert!(
            dev_small.total_seconds() < dev_full.total_seconds() / 2.0,
            "4-bit sort should be far cheaper than 32-bit"
        );
    }

    #[test]
    fn sorts_u64_payloads() {
        // The packed (key,value) pairs of reduced-bit sort.
        let dev = Device::new(K40C);
        let n = 2000;
        let data: Vec<u32> = keys_for(n, 9).iter().map(|k| k % 16).collect();
        let packed: Vec<u64> = (0..n as u64).map(|i| i << 32 | 0xABCD).collect();
        let keys = GlobalBuffer::from_slice(&data);
        let values = GlobalBuffer::from_slice(&packed);
        let (sk, sv) = radix_sort_by_bits(&dev, "r", &keys, Some(&values), n, 4, 8);
        let sk = sk.to_vec();
        let sv = sv.unwrap().to_vec();
        let mut expect: Vec<(u32, u64)> = data.iter().copied().zip(packed).collect();
        expect.sort_by_key(|&(k, _)| k);
        for i in 0..n {
            assert_eq!((sk[i], sv[i]), expect[i]);
        }
    }

    #[test]
    fn zero_bits_is_identity() {
        let dev = Device::new(K40C);
        let data = keys_for(100, 5);
        let keys = GlobalBuffer::from_slice(&data);
        let (out, _) = radix_sort_by_bits(&dev, "r", &keys, no_values(), 100, 0, 8);
        assert_eq!(out.to_vec(), data);
        assert!(dev.records().is_empty());
    }

    #[test]
    fn already_sorted_input_stays_sorted() {
        let dev = Device::new(K40C);
        let data: Vec<u32> = (0..5000u32).collect();
        let keys = GlobalBuffer::from_slice(&data);
        let (out, _) = radix_sort(&dev, "r", &keys, no_values(), 5000, 8);
        assert_eq!(out.to_vec(), data);
    }

    #[test]
    fn pass_time_is_roughly_constant_across_digit_position() {
        let n = 1 << 14;
        let data = keys_for(n, 7);
        let keys = GlobalBuffer::from_slice(&data);
        let dev = Device::new(K40C);
        radix_sort(&dev, "r", &keys, no_values(), n, 8);
        let t0 = dev.seconds_with_prefix("r/pass0/");
        let t5 = dev.seconds_with_prefix("r/pass5/");
        assert!(
            (t0 / t5) < 1.5 && (t5 / t0) < 1.5,
            "uniform keys: passes alike ({t0} vs {t5})"
        );
    }
}
