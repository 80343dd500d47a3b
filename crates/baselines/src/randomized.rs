//! Randomized dart-throwing multisplit (paper §3.5).
//!
//! The fine-grained adaptation of Meyer's PRAM bucket algorithm: a global
//! histogram sizes an `x`-times relaxed buffer per bucket; blocks then
//! throw each element at a random slot of its bucket's shared-memory
//! buffer, linear-probing on collision (the probe loop stalls the whole
//! warp — the divergence penalty the paper blames); sufficiently-full
//! buffers are cooperatively flushed — *including empty slots* — to the
//! bucket's global region; a final scan-based compaction squeezes the
//! empties out.
//!
//! The paper found the method ~2x slower than radix sort at its best
//! setting (`x = 2`) and uses it to argue contention-based methods don't
//! fit warp-synchronous hardware; `paper randomized` reproduces the `x`
//! sweep. The output is a valid but **non-stable** multisplit.

use simt::{blocks_for, lanes_from_fn, splat, Device, GlobalBuffer, WARP_SIZE};

use multisplit::common::eval_buckets;
use multisplit::BucketFn;
use primitives::{exclusive_scan_u32, histogram_shared_atomic, tail_mask};

/// Tuning knobs for the dart-throwing method.
#[derive(Debug, Clone, Copy)]
pub struct RandomizedConfig {
    /// Relaxation factor `x`: shared/global buffers are `x` times the
    /// exact bucket sizes. Larger `x` = fewer collisions, more traffic.
    pub relaxation: f64,
    /// Warps per block.
    pub wpb: usize,
    /// RNG seed (the algorithm is randomized but reproducible).
    pub seed: u32,
}

impl Default for RandomizedConfig {
    fn default() -> Self {
        Self {
            relaxation: 2.0,
            wpb: 8,
            seed: 0x9E37_79B9,
        }
    }
}

#[inline]
fn splitmix(mut x: u32) -> u32 {
    x = x.wrapping_add(0x9E37_79B9);
    x = (x ^ (x >> 16)).wrapping_mul(0x21F0_AAAD);
    x = (x ^ (x >> 15)).wrapping_mul(0x735A_2D97);
    x ^ (x >> 15)
}

/// Key-only randomized multisplit. Returns (output, offsets). The result
/// is a valid multisplit but intra-bucket order is arbitrary.
pub fn randomized_multisplit<B: BucketFn + ?Sized>(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    n: usize,
    bucket: &B,
    cfg: RandomizedConfig,
) -> (GlobalBuffer<u32>, Vec<u32>) {
    let m = bucket.num_buckets() as usize;
    assert!(
        (1..=1024).contains(&m),
        "randomized insertion supports 1..=1024 buckets"
    );
    assert!(cfg.relaxation >= 1.0, "relaxation factor must be >= 1");
    if n == 0 {
        return (GlobalBuffer::zeroed(0), vec![0; m + 1]);
    }
    let x = cfg.relaxation;
    let wpb = cfg.wpb;

    // 1. Pre-processing global histogram (paper: sizes the relaxed buffers).
    let hist = histogram_shared_atomic(dev, "randomized/histogram", keys, n, m, wpb, |k| {
        bucket.bucket_of(k)
    });
    let h = hist.to_vec();
    debug_assert_eq!(h.iter().map(|&c| c as usize).sum::<usize>(), n);

    // Shared buffer geometry: per-bucket capacity, flush threshold at ~1/x
    // occupancy so a full-capacity flush moves <= x slots per element.
    let threads = wpb * WARP_SIZE;
    let smem_slot_budget = 10 * 1024; // words reserved for slots (40 kB)
    let sbuf = ((x * threads as f64 / m as f64).ceil() as usize).clamp(4, smem_slot_budget / m);
    let threshold = ((sbuf as f64 / x).ceil() as usize).max(1);

    // 2. Relaxed global regions: x*h_b (+ sbuf slack for flush rounding).
    let mut region_start = vec![0u32; m + 1];
    for b in 0..m {
        let r = (x * h[b] as f64).ceil() as u32 + sbuf as u32;
        region_start[b + 1] = region_start[b] + r;
    }
    let total = region_start[m] as usize;
    let staging = GlobalBuffer::<u32>::zeroed(total);
    let flags = GlobalBuffer::<u32>::zeroed(total);
    let cursors = GlobalBuffer::from_slice(&region_start[..m]);

    // 3. Insertion kernel.
    dev.launch("randomized/insert", blocks_for(n, wpb), wpb, |blk| {
        let slots = blk.alloc_shared::<u32>(m * sbuf);
        let occ = blk.alloc_shared::<u32>(m * sbuf);
        let counts = blk.alloc_shared::<u32>(m);
        // Shared memory is not zeroed on a GPU: clear the slots (a full
        // flush writes empty ones out too), their occupancy flags and the
        // counters before any warp throws.
        for w in blk.warps() {
            for buf in [&slots, &occ, &counts] {
                let len = buf.len();
                for base in (w.warp_id * WARP_SIZE..len).step_by(wpb * WARP_SIZE) {
                    let c = (len - base).min(WARP_SIZE);
                    buf.st(
                        lanes_from_fn(|l| base + l.min(c - 1)),
                        splat(0),
                        primitives::low_lanes_mask(c),
                    );
                }
            }
        }
        blk.sync();
        // Flush bucket `b`: reserve from the global cursor and write the
        // buffer out through warp `w`. `full` flushes write the entire
        // buffer including empty slots (the paper's behaviour); the final
        // partial flush writes compactly so regions cannot overflow.
        let flush = |w: &simt::WarpCtx, b: usize, full: bool| {
            let cnt = counts.get(b) as usize;
            if cnt == 0 {
                return;
            }
            let reserve = if full { sbuf } else { cnt };
            let cur = w.atomic_add(
                &cursors,
                lanes_from_fn(|_| b),
                lanes_from_fn(|_| reserve as u32),
                1,
            )[0] as usize;
            debug_assert!(
                cur + reserve <= region_start[b + 1] as usize,
                "region overflow"
            );
            if full {
                let mut base = 0usize;
                while base < sbuf {
                    let c = (sbuf - base).min(WARP_SIZE);
                    let mask = primitives::low_lanes_mask(c);
                    let sidx = lanes_from_fn(|l| b * sbuf + base + l.min(c - 1));
                    let v = slots.ld(sidx, mask);
                    let o = occ.ld(sidx, mask);
                    let gidx = lanes_from_fn(|l| cur + base + l.min(c - 1));
                    w.scatter(&staging, gidx, v, mask);
                    w.scatter(&flags, gidx, o, mask);
                    base += WARP_SIZE;
                }
            } else {
                // Compact the occupied slots, then write them contiguously.
                let mut vals = Vec::with_capacity(cnt);
                for s in 0..sbuf {
                    if occ.get(b * sbuf + s) == 1 {
                        vals.push(slots.get(b * sbuf + s));
                    }
                }
                debug_assert_eq!(vals.len(), cnt);
                let mut base = 0usize;
                while base < cnt {
                    let c = (cnt - base).min(WARP_SIZE);
                    let mask = primitives::low_lanes_mask(c);
                    let gidx = lanes_from_fn(|l| cur + base + l.min(c - 1));
                    let v = lanes_from_fn(|l| if l < c { vals[base + l] } else { 0 });
                    w.scatter(&staging, gidx, v, mask);
                    w.scatter(&flags, gidx, lanes_from_fn(|_| 1u32), mask);
                    base += WARP_SIZE;
                }
            }
            // Reset the buffer.
            for s in 0..sbuf {
                occ.set(b * sbuf + s, 0);
            }
            counts.set(b, 0);
        };

        for w in blk.warps() {
            let base = w.global_warp_id * WARP_SIZE;
            let mask = tail_mask(base, n);
            if mask == 0 {
                continue;
            }
            let idx = lanes_from_fn(|j| if base + j < n { base + j } else { base });
            let k = w.gather(keys, idx, mask);
            let b = eval_buckets(&w, bucket, k, mask).map(|b| b as usize);
            // Throw darts: every active lane probes until it claims a slot.
            // The warp stalls for as many rounds as its unluckiest lane.
            let mut max_probes = 0u64;
            for lane in 0..WARP_SIZE {
                if mask >> lane & 1 == 0 {
                    continue;
                }
                let bkt = b[lane];
                if counts.get(bkt) as usize >= threshold {
                    flush(&w, bkt, true);
                }
                let gid = (base + lane) as u32;
                let mut slot = splitmix(cfg.seed ^ gid.wrapping_mul(0x85EB_CA6B)) as usize % sbuf;
                let mut probes = 1u64;
                while occ.get(bkt * sbuf + slot) == 1 {
                    slot = (slot + 1) % sbuf; // adjacent-slot search
                    probes += 1;
                }
                slots.set(bkt * sbuf + slot, k[lane]);
                occ.set(bkt * sbuf + slot, 1);
                counts.set(bkt, counts.get(bkt) + 1);
                max_probes = max_probes.max(probes);
            }
            w.charge_divergent(max_probes.saturating_sub(1) * WARP_SIZE as u64);
        }
        // Final compact flush of every bucket.
        {
            let w = blk.warp(0);
            for b in 0..m {
                flush(&w, b, false);
            }
        }
    });

    // 4. Compact the relaxed regions (scan over flags + scatter).
    let positions = GlobalBuffer::<u32>::zeroed(total);
    let kept = exclusive_scan_u32(
        dev,
        "randomized/compact-scan",
        &flags,
        &positions,
        total,
        wpb,
    );
    assert_eq!(kept as usize, n, "every key must be placed exactly once");
    let out = GlobalBuffer::<u32>::zeroed(n);
    dev.launch(
        "randomized/compact-scatter",
        blocks_for(total, wpb),
        wpb,
        |blk| {
            for w in blk.warps() {
                let base = w.global_warp_id * WARP_SIZE;
                let mask = tail_mask(base, total);
                if mask == 0 {
                    continue;
                }
                let idx = lanes_from_fn(|j| if base + j < total { base + j } else { base });
                let f = w.gather(&flags, idx, mask);
                let v = w.gather(&staging, idx, mask);
                let s = w.gather(&positions, idx, mask);
                let keep = w.ballot(lanes_from_fn(|l| f[l] == 1), mask);
                w.scatter(&out, lanes_from_fn(|l| s[l] as usize), v, keep);
            }
        },
    );

    // Offsets come straight from the exact histogram.
    let mut offsets = vec![0u32; m + 1];
    for b in 0..m {
        offsets[b + 1] = offsets[b] + h[b];
    }
    (out, offsets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use multisplit::{check_multisplit, RangeBuckets};
    use simt::{Device, K40C};

    fn keys_for(n: usize, seed: u32) -> Vec<u32> {
        (0..n as u32)
            .map(|i| i.wrapping_mul(2654435761).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn produces_a_valid_multisplit() {
        let dev = Device::new(K40C);
        for m in [2u32, 8, 32, 100] {
            let n = 5000;
            let bucket = RangeBuckets::new(m);
            let data = keys_for(n, m);
            let keys = GlobalBuffer::from_slice(&data);
            let (out, offs) =
                randomized_multisplit(&dev, &keys, n, &bucket, RandomizedConfig::default());
            check_multisplit(&data, &out.to_vec(), &offs, &bucket)
                .unwrap_or_else(|e| panic!("m={m}: {e}"));
        }
    }

    #[test]
    fn works_across_relaxation_factors() {
        let dev = Device::new(K40C);
        let n = 3000;
        let bucket = RangeBuckets::new(16);
        let data = keys_for(n, 7);
        let keys = GlobalBuffer::from_slice(&data);
        for x in [1.25, 1.5, 2.0, 4.0] {
            let cfg = RandomizedConfig {
                relaxation: x,
                ..Default::default()
            };
            let (out, offs) = randomized_multisplit(&dev, &keys, n, &bucket, cfg);
            check_multisplit(&data, &out.to_vec(), &offs, &bucket)
                .unwrap_or_else(|e| panic!("x={x}: {e}"));
        }
    }

    #[test]
    fn lower_relaxation_means_more_divergence() {
        // The §3.5 tradeoff: smaller x -> more collisions -> warp stalls;
        // larger x -> fewer collisions but more memory traffic.
        let n = 1 << 14;
        let bucket = RangeBuckets::new(8);
        let data = keys_for(n, 9);
        let keys = GlobalBuffer::from_slice(&data);
        let run = |x: f64| {
            let dev = Device::new(K40C);
            let cfg = RandomizedConfig {
                relaxation: x,
                ..Default::default()
            };
            randomized_multisplit(&dev, &keys, n, &bucket, cfg);
            let stats = dev
                .records()
                .iter()
                .fold(simt::BlockStats::default(), |mut a, r| {
                    a += r.stats;
                    a
                });
            (stats.divergent_iters, stats.useful_bytes)
        };
        let (div_tight, bytes_tight) = run(1.25);
        let (div_loose, bytes_loose) = run(4.0);
        assert!(
            div_tight > div_loose,
            "x=1.25 stalls {div_tight} should exceed x=4 stalls {div_loose}"
        );
        assert!(
            bytes_loose > bytes_tight,
            "x=4 traffic {bytes_loose} should exceed x=1.25 {bytes_tight}"
        );
    }

    #[test]
    fn empty_input() {
        let dev = Device::new(K40C);
        let keys = GlobalBuffer::<u32>::zeroed(0);
        let bucket = RangeBuckets::new(4);
        let (out, offs) =
            randomized_multisplit(&dev, &keys, 0, &bucket, RandomizedConfig::default());
        assert_eq!(out.len(), 0);
        assert_eq!(offs, vec![0; 5]);
    }

    #[test]
    fn deterministic_given_seed() {
        let n = 2000;
        let bucket = RangeBuckets::new(8);
        let data = keys_for(n, 3);
        let keys = GlobalBuffer::from_slice(&data);
        let run = |seed: u32| {
            let dev = Device::sequential(K40C);
            let cfg = RandomizedConfig {
                seed,
                ..Default::default()
            };
            randomized_multisplit(&dev, &keys, n, &bucket, cfg)
                .0
                .to_vec()
        };
        assert_eq!(run(42), run(42), "same seed, same placement");
    }
}
