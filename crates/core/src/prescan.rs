//! The one pre-scan kernel, behind `fused/pre-scan`,
//! `fused_large_m/pre-scan`, `segmented/pre-scan[…]` and
//! `ms_sort/pre-scan` (one counter window per digit).
//!
//! Each block zeroes block-private shared counters (one `m`-word window
//! per target bucket function), counts its tile into them, and after a
//! barrier adds only its non-zero counters into the global totals.
//! [`HistStrategy`] picks how a target counts: with `m ≤ 32` buckets it
//! accumulates Algorithm 2 ballot histograms in registers and adds them
//! into its window once per warp, at the same cost on any key
//! distribution; a wider one does one shared-memory atomic per key, which
//! serializes on skewed keys. Tiles are [`PRESCAN_ITEMS_PER_THREAD`] chunks of 32 keys
//! per warp (8,192 keys at 8 warps), whatever the sweep's coarsening.
//! The atomics commute, so totals and billing are schedule-independent.

use simt::{lanes_from_fn, splat, BlockCtx, Device, GlobalBuffer, WarpCtx, WARP_SIZE};

use primitives::{low_lanes_mask, tail_mask};

use crate::bucket::BucketFn;
use crate::common::{eval_buckets, SMEM_BUDGET_WORDS};
use crate::sweep::{chunk_lanes, desc_table, read_desc, TileDesc};
use crate::warp_ops::warp_histogram;

/// Chunks of 32 keys per warp in a pre-scan tile.
pub const PRESCAN_ITEMS_PER_THREAD: usize = 32;

/// How the pre-scan counts one target's buckets into its shared window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistStrategy {
    /// `m ≤ 32`: ballot-bitmap warp histograms (Algorithm 2), accumulated
    /// in registers and added into the shared counters once per warp, at
    /// a cost independent of the key distribution.
    Ballot,
    /// `m > 32`: one shared-memory atomic per key.
    Atomic,
}

impl HistStrategy {
    /// Ballot bitmaps up to the warp width, shared atomics beyond it.
    pub fn for_buckets(m: u32) -> Self {
        if m as usize <= WARP_SIZE {
            Self::Ballot
        } else {
            Self::Atomic
        }
    }
}

/// Keys `[offset, offset + n)` and the bucket functions that count them,
/// one counter window each.
pub(crate) struct CountSeg<'a, B: ?Sized> {
    pub offset: usize,
    pub n: usize,
    pub targets: Vec<&'a B>,
}

impl<B: BucketFn + ?Sized> CountSeg<'_, B> {
    fn words(&self) -> usize {
        self.targets.iter().map(|t| t.num_buckets() as usize).sum()
    }
}

/// One pre-scan launch over `segs`, one block per tile. Returns every
/// segment's target windows, flattened in order. With `table`, blocks
/// read their tile descriptors from a device table (a segmented batch);
/// without, the one segment's descriptor is passed by value.
pub(crate) fn prescan<B: BucketFn + ?Sized>(
    dev: &Device,
    label: &str,
    keys: &GlobalBuffer<u32>,
    segs: &[CountSeg<'_, B>],
    wpb: usize,
    table: bool,
) -> Vec<u32> {
    let widest = segs.iter().map(|s| s.words()).max().unwrap_or(0);
    assert!(
        widest <= SMEM_BUDGET_WORDS,
        "the pre-scan's {widest} counters exceed the {SMEM_BUDGET_WORDS}-word shared-memory budget"
    );
    let mut words = 0;
    let table = table.then(|| {
        let descs = segs.iter().map(|s| {
            words += s.words();
            let ipt = PRESCAN_ITEMS_PER_THREAD;
            (s.offset, s.n, s.words() as u32, ipt, words - s.words())
        });
        desc_table(descs, wpb)
    });
    let totals = GlobalBuffer::<u32>::zeroed(segs.iter().map(|s| s.words()).sum());
    let tile = wpb * WARP_SIZE * PRESCAN_ITEMS_PER_THREAD;
    let blocks = segs.iter().map(|s| s.n.div_ceil(tile)).sum();
    dev.launch(label, blocks, wpb, |blk| {
        let d = match &table {
            Some(table) => read_desc(blk, table, blk.block_id),
            None => TileDesc {
                seg: 0,
                offset: segs[0].offset,
                n: segs[0].n,
                ipt: PRESCAN_ITEMS_PER_THREAD,
                local_tile: blk.block_id,
                m: widest as u32,
                hist_base: 0,
            },
        };
        count_tile(blk, keys, &segs[d.seg].targets, &d, &totals);
    });
    totals.to_vec()
}

/// Bucket totals of keys `[0, n)` under each target from one pre-scan
/// launch: `result[i][b]` counts the keys `targets[i]` sends to bucket
/// `b`. The targets share one read of the keys; their windows together
/// must fit the shared-memory budget.
pub fn bucket_totals<B: BucketFn + ?Sized>(
    dev: &Device,
    label: &str,
    keys: &GlobalBuffer<u32>,
    n: usize,
    targets: &[&B],
    wpb: usize,
) -> Vec<Vec<u32>> {
    assert!(keys.len() >= n, "key buffer shorter than n");
    let seg = CountSeg {
        offset: 0,
        n,
        targets: targets.to_vec(),
    };
    let mut flat = prescan(dev, label, keys, &[seg], wpb, false).into_iter();
    let window = |t: &&B| flat.by_ref().take(t.num_buckets() as usize).collect();
    targets.iter().map(window).collect()
}

/// Pre-scan body for one tile (see the module docs).
fn count_tile<B: BucketFn + ?Sized>(
    blk: &BlockCtx,
    keys: &GlobalBuffer<u32>,
    targets: &[&B],
    d: &TileDesc,
    totals: &GlobalBuffer<u32>,
) {
    let (words, nw) = (d.m as usize, blk.warps_per_block);
    let counts = blk.alloc_shared::<u32>(words);
    // The warps stride over the counters in warp-sized groups, as lane
    // indices and a mask.
    let groups = |w: &WarpCtx| {
        (w.warp_id * WARP_SIZE..words)
            .step_by(nw * WARP_SIZE)
            .map(|g| {
                let cnt = (words - g).min(WARP_SIZE);
                (lanes_from_fn(|l| g + l.min(cnt - 1)), low_lanes_mask(cnt))
            })
    };
    for w in blk.warps() {
        for (idx, mask) in groups(&w) {
            counts.st(idx, splat(0), mask);
        }
    }
    blk.sync();
    let mut win = 0;
    let windows: Vec<(usize, u32)> = targets
        .iter()
        .map(|t| {
            win += t.num_buckets() as usize;
            (win - t.num_buckets() as usize, t.num_buckets())
        })
        .collect();
    let tile_start = d.local_tile * nw * WARP_SIZE * d.ipt;
    // Ballot targets accumulate in registers (lane b counts bucket b).
    let mut acc = vec![[0u32; WARP_SIZE]; targets.len()];
    for w in blk.warps() {
        acc.fill([0; WARP_SIZE]);
        for c in 0..d.ipt {
            let lb = tile_start + (w.warp_id * d.ipt + c) * WARP_SIZE;
            let mask = tail_mask(lb, d.n);
            if mask == 0 {
                break;
            }
            let k = w.gather(keys, chunk_lanes(d.offset, lb, d.n), mask);
            for ((t, &(win, m)), a) in targets.iter().zip(&windows).zip(&mut acc) {
                let b = eval_buckets(&w, *t, k, mask);
                if HistStrategy::for_buckets(m) == HistStrategy::Ballot {
                    let h = warp_histogram(&w, b, m, mask);
                    *a = lanes_from_fn(|l| a[l] + h[l]);
                    w.charge(m as u64); // the accumulate adds
                } else {
                    counts.atomic_add(lanes_from_fn(|l| win + b[l] as usize), splat(1), mask);
                }
            }
        }
        for (&(win, m), a) in windows.iter().zip(&acc) {
            if HistStrategy::for_buckets(m) == HistStrategy::Ballot {
                let m = m as usize;
                counts.atomic_add(lanes_from_fn(|l| win + l.min(m - 1)), *a, low_lanes_mask(m));
            }
        }
    }
    blk.sync();
    for w in blk.warps() {
        for (idx, mask) in groups(&w) {
            let v = counts.ld(idx, mask);
            let live = (0..WARP_SIZE)
                .filter(|&l| mask >> l & 1 == 1 && v[l] != 0)
                .fold(0u32, |m, l| m | 1 << l);
            w.charge(mask.count_ones() as u64); // the zero tests
            if live != 0 {
                w.atomic_add(totals, lanes_from_fn(|l| d.hist_base + idx[l]), v, live);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::RangeBuckets;
    use crate::fused_large_m::max_buckets;
    use simt::{BlockStats, K40C};

    const TILE: usize = 8 * WARP_SIZE * PRESCAN_ITEMS_PER_THREAD;

    #[derive(Debug, Clone, Copy)]
    enum Dist {
        Uniform,
        /// 75% of the keys in bucket 0, the rest uniform.
        Skew75,
        OneBucket,
    }

    fn keys(n: usize, m: u32, dist: Dist, seed: u64) -> Vec<u32> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 16) as u32
        };
        let bucket0 = ((1u64 << 32) / m as u64) as u32;
        (0..n)
            .map(|_| match dist {
                Dist::Uniform => next(),
                Dist::Skew75 if next() % 4 != 0 => next() % bucket0.max(1),
                Dist::Skew75 => next(),
                Dist::OneBucket => 0xC0FF_EE00,
            })
            .collect()
    }

    fn host_totals(data: &[u32], b: &dyn BucketFn) -> Vec<u32> {
        let mut t = vec![0u32; b.num_buckets() as usize];
        for &k in data {
            t[b.bucket_of(k) as usize] += 1;
        }
        t
    }

    #[test]
    fn totals_match_a_host_histogram() {
        let dev = Device::new(K40C);
        let ms = [1u32, 2, 8, 32, 33, 64, 256, max_buckets(8, false)];
        for (i, m) in ms.into_iter().enumerate() {
            let bucket = RangeBuckets::new(m);
            for dist in [Dist::Uniform, Dist::Skew75, Dist::OneBucket] {
                for n in [1, TILE - 1, TILE, TILE + 1, 3 * TILE + 5] {
                    let data = keys(n, m, dist, i as u64 + n as u64);
                    let buf = GlobalBuffer::from_slice(&data);
                    let got = bucket_totals(&dev, "pre-scan", &buf, n, &[&bucket], 8);
                    let case = format!("m={m} {dist:?} n={n}");
                    assert_eq!(got, [host_totals(&data, &bucket)], "{case}");
                    let rec = dev.records().pop().unwrap();
                    assert_eq!(rec.blocks, n.div_ceil(TILE), "{case}: one block per tile");
                }
            }
        }
    }

    #[test]
    fn a_batch_of_one_and_many_tile_segments_counts_each_segment() {
        let dev = Device::new(K40C);
        let parts = [(1usize, 4u32), (3 * TILE + 5, 32), (TILE, 100), (700, 33)];
        let data = keys(parts.iter().map(|p| p.0 + 8).sum(), 7, Dist::Uniform, 3);
        let buckets: Vec<RangeBuckets> = parts.iter().map(|&(_, m)| RangeBuckets::new(m)).collect();
        let mut offset = 0;
        let mut segs = Vec::new();
        let mut expect = Vec::new();
        for (&(n, _), b) in parts.iter().zip(&buckets) {
            expect.extend(host_totals(&data[offset..offset + n], b));
            segs.push(CountSeg {
                offset,
                n,
                targets: vec![b],
            });
            offset += n + 8;
        }
        let keys = GlobalBuffer::from_slice(&data);
        let got = prescan(&dev, "batch", &keys, &segs, 8, true);
        assert_eq!(got, expect);
        let blocks: usize = parts.iter().map(|p| p.0.div_ceil(TILE)).sum();
        assert_eq!(dev.records()[0].blocks, blocks);
    }

    /// Ballot counting bills the same on any key distribution; shared
    /// atomics serialize on the hot counter. This is why `m ≤ 32` counts
    /// with ballots. (Full tiles: every counter is live in the merge.)
    #[test]
    fn ballot_counting_bills_skewed_keys_like_uniform_ones() {
        let n = 3 * TILE;
        let bill = |m: u32, dist: Dist| -> BlockStats {
            let dev = Device::sequential(K40C);
            let bucket = RangeBuckets::new(m);
            let buf = GlobalBuffer::from_slice(&keys(n, m, dist, 11));
            bucket_totals(&dev, "pre-scan", &buf, n, &[&bucket], 8);
            dev.records()[0].stats
        };
        assert_eq!(bill(32, Dist::Skew75), bill(32, Dist::Uniform));
        let (skew, uniform) = (bill(64, Dist::Skew75), bill(64, Dist::Uniform));
        assert!(
            skew.smem_ops > 2 * uniform.smem_ops,
            "atomics: {} vs {}",
            skew.smem_ops,
            uniform.smem_ops
        );
    }

    #[test]
    fn n_zero_launches_nothing() {
        let dev = Device::new(K40C);
        let bucket = RangeBuckets::new(40);
        let got = bucket_totals(&dev, "pre-scan", &GlobalBuffer::zeroed(0), 0, &[&bucket], 8);
        assert_eq!(got, [vec![0; 40]]);
        assert!(dev.records().is_empty());
    }
}
