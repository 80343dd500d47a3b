//! Device-wide histograms, both ways the related work does them (§2).
//!
//! * [`histogram_shared_atomic`] — block-privatized counting in shared
//!   memory followed by a global atomic merge (Shams & Kennedy style):
//!   suited to larger bucket counts.
//! * [`histogram_global_atomic`] — every lane atomically bumps the global
//!   bin directly: simple, but same-bin warp conflicts serialize, which is
//!   exactly the contention bottleneck the paper cites for small `m`.
//!
//! The multisplit kernels themselves never use these (they build
//! ballot-based warp histograms); these exist as substrates for the
//! randomized-insertion baseline and for the contention ablation bench.

use simt::{blocks_for, lanes_from_fn, splat, Device, GlobalBuffer, WARP_SIZE};

use crate::block_scan::{low_lanes_mask, tail_mask};

/// Block-privatized histogram. `bucket_of` maps a key to `0..m`.
pub fn histogram_shared_atomic<F>(
    dev: &Device,
    label: &str,
    keys: &GlobalBuffer<u32>,
    n: usize,
    m: usize,
    wpb: usize,
    bucket_of: F,
) -> GlobalBuffer<u32>
where
    F: Fn(u32) -> u32 + Sync,
{
    assert!(
        m * 4 <= simt::SMEM_CAPACITY_BYTES,
        "bucket count {m} exceeds shared memory"
    );
    let hist = GlobalBuffer::<u32>::zeroed(m);
    let blocks = blocks_for(n, wpb);
    dev.launch(label, blocks, wpb, |blk| {
        let local = blk.alloc_shared::<u32>(m);
        // Shared memory is not zeroed on a GPU: clear the private
        // histogram before any warp counts into it.
        for w in blk.warps() {
            for base in (w.warp_id * WARP_SIZE..m).step_by(blk.warps_per_block * WARP_SIZE) {
                let cnt = (m - base).min(WARP_SIZE);
                local.st(
                    lanes_from_fn(|l| base + l.min(cnt - 1)),
                    splat(0),
                    low_lanes_mask(cnt),
                );
            }
        }
        blk.sync();
        for w in blk.warps() {
            let base = w.global_warp_id * WARP_SIZE;
            let mask = tail_mask(base, n);
            if mask == 0 {
                continue;
            }
            let idx = lanes_from_fn(|l| if base + l < n { base + l } else { base });
            let k = w.gather(keys, idx, mask);
            w.charge(mask.count_ones() as u64); // bucket evaluation
            let b = lanes_from_fn(|l| bucket_of(k[l]) as usize);
            local.atomic_add(b, splat(1u32), mask);
        }
        blk.sync();
        // Merge the private histogram into the global one.
        for w in blk.warps() {
            let mut base = w.warp_id * WARP_SIZE;
            while base < m {
                let cnt = (m - base).min(WARP_SIZE);
                let mask = low_lanes_mask(cnt);
                let idx = lanes_from_fn(|l| if l < cnt { base + l } else { base });
                let v = local.ld(idx, mask);
                w.atomic_add(&hist, idx, v, mask);
                base += blk.warps_per_block * WARP_SIZE;
            }
        }
    });
    hist
}

/// Per-thread-private histogram (Nugteren et al. style, §2's second
/// family): every thread accumulates its own `m` bins in registers while
/// striding over the input, then the partials are combined with ballot-
/// free reductions — no atomics anywhere, at the price of `m` registers
/// per thread and a device-wide reduction over `m x warps` partials.
/// Suited to small `m`, where atomic variants serialize.
pub fn histogram_per_thread<F>(
    dev: &Device,
    label: &str,
    keys: &GlobalBuffer<u32>,
    n: usize,
    m: usize,
    wpb: usize,
    bucket_of: F,
) -> GlobalBuffer<u32>
where
    F: Fn(u32) -> u32 + Sync,
{
    assert!(
        m <= 32,
        "per-thread private bins live in registers: m <= 32"
    );
    let hist = GlobalBuffer::<u32>::zeroed(m);
    let blocks = blocks_for(n, wpb);
    let grid_threads = blocks * wpb * WARP_SIZE;
    // Per-warp partial histograms, reduced on-device afterwards.
    let partials = GlobalBuffer::<u32>::zeroed((grid_threads / WARP_SIZE).max(1) * m);
    dev.launch(&format!("{label}/count"), blocks, wpb, |blk| {
        for w in blk.warps() {
            // Grid-stride loop: each lane owns private register bins.
            let mut bins = [[0u32; 32]; WARP_SIZE];
            let mut base = w.global_warp_id * WARP_SIZE;
            while base < n {
                let mask = tail_mask(base, n);
                let idx = lanes_from_fn(|l| if base + l < n { base + l } else { base });
                let k = w.gather(keys, idx, mask);
                w.charge((2 + 1) * mask.count_ones() as u64);
                for lane in 0..WARP_SIZE {
                    if mask >> lane & 1 == 1 {
                        bins[lane][bucket_of(k[lane]) as usize % m] += 1;
                    }
                }
                base += grid_threads;
            }
            // Combine the warp's 32 private histograms with shuffles:
            // lane b ends up holding the warp's bucket-b total.
            let mut warp_bins = [0u32; WARP_SIZE];
            for b in 0..m {
                let v = lanes_from_fn(|l| bins[l][b]);
                warp_bins[b] = crate::warp_scan::reduce_add(&w, v);
            }
            let sm = crate::block_scan::low_lanes_mask(m);
            w.scatter_merged(
                &partials,
                lanes_from_fn(|l| w.global_warp_id * m + l.min(m - 1)),
                lanes_from_fn(|l| warp_bins[l.min(m - 1)]),
                sm,
            );
        }
    });
    // Reduce the partials per bucket: a strided device pass.
    let num_warps = (grid_threads / WARP_SIZE).max(1);
    dev.launch(&format!("{label}/reduce"), 1, wpb, |blk| {
        for w in blk.warps() {
            let mut b = w.warp_id;
            while b < m {
                let mut acc = 0u32;
                let mut base = 0usize;
                while base < num_warps {
                    let cnt = (num_warps - base).min(WARP_SIZE);
                    let sm = crate::block_scan::low_lanes_mask(cnt);
                    let v = w.gather(
                        &partials,
                        lanes_from_fn(|l| (base + l.min(cnt - 1)) * m + b),
                        sm,
                    );
                    acc += crate::warp_scan::reduce_add(
                        &w,
                        lanes_from_fn(|l| if l < cnt { v[l] } else { 0 }),
                    );
                    base += WARP_SIZE;
                }
                hist.set(b, acc);
                b += blk.warps_per_block;
            }
        }
    });
    hist
}

/// Direct global-atomic histogram (the contention-prone variant).
pub fn histogram_global_atomic<F>(
    dev: &Device,
    label: &str,
    keys: &GlobalBuffer<u32>,
    n: usize,
    m: usize,
    wpb: usize,
    bucket_of: F,
) -> GlobalBuffer<u32>
where
    F: Fn(u32) -> u32 + Sync,
{
    let hist = GlobalBuffer::<u32>::zeroed(m);
    let blocks = blocks_for(n, wpb);
    dev.launch(label, blocks, wpb, |blk| {
        for w in blk.warps() {
            let base = w.global_warp_id * WARP_SIZE;
            let mask = tail_mask(base, n);
            if mask == 0 {
                continue;
            }
            let idx = lanes_from_fn(|l| if base + l < n { base + l } else { base });
            let k = w.gather(keys, idx, mask);
            w.charge(mask.count_ones() as u64);
            let b = lanes_from_fn(|l| bucket_of(k[l]) as usize);
            w.atomic_add(&hist, b, splat(1u32), mask);
        }
    });
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt::{Device, K40C};

    fn ref_hist(keys: &[u32], m: usize, f: impl Fn(u32) -> u32) -> Vec<u32> {
        let mut h = vec![0u32; m];
        for &k in keys {
            h[f(k) as usize] += 1;
        }
        h
    }

    #[test]
    fn all_variants_match_reference() {
        let dev = Device::new(K40C);
        let n = 10_007;
        let m = 17;
        let keys: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let f = move |k: u32| k % m as u32;
        let buf = GlobalBuffer::from_slice(&keys);
        let expect = ref_hist(&keys, m, f);
        let a = histogram_shared_atomic(&dev, "sh", &buf, n, m, 8, f);
        let b = histogram_global_atomic(&dev, "gl", &buf, n, m, 8, f);
        let c = histogram_per_thread(&dev, "pt", &buf, n, m, 8, f);
        assert_eq!(a.to_vec(), expect);
        assert_eq!(b.to_vec(), expect);
        assert_eq!(c.to_vec(), expect);
    }

    #[test]
    fn per_thread_variant_uses_no_atomics() {
        // The §2 trade: private bins avoid contention entirely.
        let dev = Device::new(K40C);
        let n = 1 << 14;
        let keys: Vec<u32> = (0..n as u32).collect();
        let buf = GlobalBuffer::from_slice(&keys);
        let h = histogram_per_thread(&dev, "pt", &buf, n, 2, 8, |k| k % 2);
        assert_eq!(h.to_vec().iter().sum::<u32>(), n as u32);
        let atomics: u64 = dev.records().iter().map(|r| r.stats.atomic_ops).sum();
        assert_eq!(atomics, 0, "per-thread histogram must be atomic-free");
    }

    #[test]
    fn per_thread_variant_handles_odd_sizes() {
        let dev = Device::new(K40C);
        for n in [1usize, 31, 33, 4097] {
            let keys: Vec<u32> = (0..n as u32).collect();
            let buf = GlobalBuffer::from_slice(&keys);
            let h = histogram_per_thread(&dev, "pt", &buf, n, 5, 2, |k| k % 5);
            assert_eq!(h.to_vec(), ref_hist(&keys, 5, |k| k % 5), "n={n}");
        }
    }

    #[test]
    fn totals_equal_n() {
        let dev = Device::new(K40C);
        let n = 4096;
        let keys: Vec<u32> = (0..n as u32).collect();
        let buf = GlobalBuffer::from_slice(&keys);
        let h = histogram_shared_atomic(&dev, "sh", &buf, n, 8, 4, |k| k % 8);
        assert_eq!(h.to_vec().iter().sum::<u32>(), n as u32);
    }

    #[test]
    fn global_atomics_pay_more_conflicts_for_few_buckets() {
        // The §2 tradeoff: with m=2 every warp has ~16-way same-bin
        // conflicts in the global-atomic variant, while the shared variant
        // absorbs them locally.
        let dev = Device::new(K40C);
        let n = 1 << 14;
        let keys: Vec<u32> = (0..n as u32).collect();
        let buf = GlobalBuffer::from_slice(&keys);
        let _ = histogram_global_atomic(&dev, "gl", &buf, n, 2, 8, |k| k % 2);
        let gl = dev
            .take_records()
            .iter()
            .map(|r| r.stats.atomic_conflicts)
            .sum::<u64>();
        let _ = histogram_shared_atomic(&dev, "sh", &buf, n, 2, 8, |k| k % 2);
        let sh = dev
            .take_records()
            .iter()
            .map(|r| r.stats.atomic_conflicts)
            .sum::<u64>();
        assert!(gl > 8 * sh.max(1), "global {gl} vs shared {sh}");
    }

    #[test]
    fn large_bucket_counts_work() {
        let dev = Device::new(K40C);
        let n = 5000;
        let m = 300; // more buckets than threads: merge loop must stride
        let keys: Vec<u32> = (0..n as u32).collect();
        let buf = GlobalBuffer::from_slice(&keys);
        let h = histogram_shared_atomic(&dev, "sh", &buf, n, m, 2, move |k| k % m as u32);
        assert_eq!(h.to_vec(), ref_hist(&keys, m, |k| k % m as u32));
    }

    #[test]
    fn empty_input_gives_zero_histogram() {
        let dev = Device::new(K40C);
        let buf = GlobalBuffer::<u32>::zeroed(0);
        let h = histogram_shared_atomic(&dev, "sh", &buf, 0, 4, 8, |k| k % 4);
        assert_eq!(h.to_vec(), vec![0; 4]);
    }
}
