//! A device-wide histogram: block-privatized counting in shared memory
//! followed by a global atomic merge (Shams & Kennedy style, §2).
//!
//! The multisplit kernels themselves never use it (they build their own
//! warp and tile histograms); it is the substrate of the
//! randomized-insertion baseline and of the primitives bench.

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
        assert_eq!(a.to_vec(), expect);
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
