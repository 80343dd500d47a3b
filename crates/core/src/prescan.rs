//! The one pre-scan kernel, behind the fused method's `fused/pre-scan`
//! (`fused_large_m/pre-scan` past 32 buckets), `segmented/pre-scan[…]` and
//! `ms_sort/pre-scan` (one counter window per digit).
//!
//! A block zeroes block-private shared counters (one `m`-word window per
//! target bucket function), counts its tiles into them, and after a
//! barrier adds only its non-zero counters into the global totals. Tiles
//! are [`PRESCAN_ITEMS_PER_THREAD`] chunks of 32 keys per warp, whatever
//! the sweep's coarsening.
//!
//! The pre-scan picks its own block size (`prescan_warps`): from the
//! caller's warps per block, doubling up to 32, the size with the most
//! resident threads per SM, the larger block on a tie. Counters that fit
//! many blocks per SM therefore run as few wide blocks, which merge into
//! the totals fewer times.
//!
//! [`HistStrategy`] picks how a target counts. With `m ≤ 32` buckets
//! each thread counts its keys into its own column of `⌈m/4⌉` packed
//! byte counters (CUB's radix upsweep): bank = lane, so no conflicts and
//! no atomics, at the same cost on any key distribution. A one-row
//! column (`m ≤ 4`) lives in a register instead, with no shared traffic
//! per key. A thread counts at most 32 keys per tile, so the block
//! flushes the columns into the windows every [`FLUSH_TILES`] tiles,
//! before a byte can wrap, and once at the end: warps sum the rows with
//! shuffles. A wider target does one shared-memory atomic per key, which
//! serializes on skewed keys, unless the warp's keys share one bucket:
//! then one lane adds the warp's count. So do all of a segment's targets
//! when their private rows do not fit next to the windows.
//!
//! A one-segment launch sizes its grid to one resident wave
//! (`sm_count × resident_blocks`, at most one block per tile). Block `b`
//! walks tiles `b, b + grid, …`, so the global merge happens once per
//! block, not once per tile. A segmented launch keeps one block per
//! tile: its blocks read their descriptors from a table. The tile walk is
//! static and the atomics commute, so totals and billing are
//! schedule-independent.

use simt::{
    lanes_from_fn, splat, BlockCtx, Device, DeviceProfile, GlobalBuffer, Lanes, SharedBuf, WarpCtx,
    FULL_MASK, WARP_SIZE,
};

use primitives::warp_scan::reduce_add;
use primitives::{low_lanes_mask, tail_mask};

use crate::bucket::BucketFn;
use crate::common::{eval_buckets, SMEM_BUDGET_WORDS};
use crate::sweep::{chunk_lanes, desc_table, read_desc, TileDesc};

/// Chunks of 32 keys per warp in a pre-scan tile.
pub const PRESCAN_ITEMS_PER_THREAD: usize = 32;

/// Tiles a block counts between flushes of its private byte counters: a
/// thread counts at most [`PRESCAN_ITEMS_PER_THREAD`] keys per tile, and
/// a byte holds 255.
pub const FLUSH_TILES: usize = 255 / PRESCAN_ITEMS_PER_THREAD;

/// The widest pre-scan block: 1,024 threads.
const MAX_PRESCAN_WARPS: usize = 32;

/// Lane ops of one private increment
/// `pc[(b >> 2) · threads + tid] += 1 << 8·(b & 3)`: the row address
/// (mask off the byte bits, shift-add onto the thread's column base), the
/// increment (`b << 3`, a funnel shift of 1 that wraps at 32) and the add.
const PRIVATE_INC_OPS: u64 = 5;

/// Lane ops of one register-row increment `r += 1 << 8·b`: the shift
/// `b << 3`, the funnel shift and the add.
const REGISTER_INC_OPS: u64 = 3;

/// How the pre-scan counts one target's buckets into its shared window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistStrategy {
    /// `m ≤ 32`: thread-private packed byte counters (one register row
    /// at `m ≤ 4`), summed into the window by warp shuffles at each
    /// flush, at a cost independent of the key distribution.
    Private,
    /// `m > 32`, or private rows that do not fit: one shared-memory
    /// atomic per key, or one per warp when its keys share a bucket.
    Atomic,
}

impl HistStrategy {
    /// Private byte counters up to the warp width, shared atomics beyond
    /// it. This names a target's counting (and the fused labels); a
    /// segment whose private rows do not fit next to its windows still
    /// counts every target with atomics.
    pub fn for_buckets(m: u32) -> Self {
        if m as usize <= WARP_SIZE {
            Self::Private
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

/// Where one target counts before its window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Count {
    /// Straight into the window, with shared atomics.
    Atomic,
    /// Into private shared rows, from this first row.
    Rows(usize),
    /// Into this per-thread register row.
    Register(usize),
}

/// One target's counter window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Window {
    /// The window's first word.
    pub base: usize,
    count: Count,
}

#[cfg(test)]
impl Window {
    fn strategy(&self) -> HistStrategy {
        match self.count {
            Count::Atomic => HistStrategy::Atomic,
            Count::Rows(_) | Count::Register(_) => HistStrategy::Private,
        }
    }
}

/// One segment's shared counters at a block size: an `m`-word window
/// per target, then the `⌈m/4⌉` private rows of each private target
/// wider than 4 buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Counters {
    pub windows: Vec<Window>,
    pub window_words: usize,
    /// Per private shared row: the window word of its first bucket and
    /// its bucket count (at most 4).
    rows: Vec<(usize, usize)>,
    /// The same per register row.
    regs: Vec<(usize, usize)>,
    threads: usize,
}

impl Counters {
    /// The targets with `ms` buckets count privately when all their
    /// shared private rows fit next to the windows,
    /// `Σ⌈m/4⌉·threads + Σm ≤ SMEM_BUDGET_WORDS` over `4 < m ≤ 32`;
    /// otherwise every window counts with atomics.
    pub fn new(ms: &[u32], threads: usize) -> Self {
        let window_words: usize = ms.iter().map(|&m| m as usize).sum();
        let private = |m: u32| HistStrategy::for_buckets(m) == HistStrategy::Private;
        let row_words: usize = ms
            .iter()
            .filter(|&&m| private(m) && m > 4)
            .map(|&m| m.div_ceil(4) as usize * threads)
            .sum();
        let fits = window_words + row_words <= SMEM_BUDGET_WORDS;
        let (mut base, mut windows, mut rows, mut regs) = (0, vec![], vec![], vec![]);
        for &m in ms {
            let m = m as usize;
            let count = if !(fits && private(m as u32)) {
                Count::Atomic
            } else if m <= 4 {
                regs.push((base, m));
                Count::Register(regs.len() - 1)
            } else {
                let first = rows.len();
                rows.extend((0..m).step_by(4).map(|b| (base + b, (m - b).min(4))));
                Count::Rows(first)
            };
            windows.push(Window { base, count });
            base += m;
        }
        Counters {
            windows,
            window_words,
            rows,
            regs,
            threads,
        }
    }

    /// Shared-memory bytes of a block's counters.
    pub fn bytes(&self) -> usize {
        4 * (self.window_words + self.rows.len() * self.threads)
    }
}

/// The pre-scan's warps per block for segments counting `ms` buckets
/// each, from the caller's `wpb`: of `wpb, 2·wpb, …` up to 32 warps, the
/// size with the most resident threads per SM,
/// `resident_blocks(threads, bytes) × threads`, where `bytes` is the
/// largest segment's counters. A tie goes to the larger block.
pub(crate) fn prescan_warps(p: &DeviceProfile, ms: &[Vec<u32>], wpb: usize) -> usize {
    let mut best = (0, wpb);
    let mut w = wpb;
    while w <= MAX_PRESCAN_WARPS {
        let threads = w * WARP_SIZE;
        let bytes = ms.iter().map(|m| Counters::new(m, threads).bytes()).max();
        let resident = p.resident_blocks(threads, bytes.unwrap_or(0)) * threads;
        if resident >= best.0 {
            best = (resident, w);
        }
        w *= 2;
    }
    best.1
}

/// One pre-scan launch over `segs`. Returns every segment's target
/// windows, flattened in order. With `table`, blocks read their tile
/// descriptors from a device table (a segmented batch), one block per
/// tile; without, the one segment's grid is one resident wave whose
/// blocks walk its tiles. Either way the block size is
/// [`prescan_warps`]'s, not `wpb`.
pub(crate) fn prescan<B: BucketFn + ?Sized>(
    dev: &Device,
    label: &str,
    keys: &GlobalBuffer<u32>,
    segs: &[CountSeg<'_, B>],
    wpb: usize,
    table: bool,
) -> Vec<u32> {
    let ms: Vec<Vec<u32>> = segs
        .iter()
        .map(|s| s.targets.iter().map(|t| t.num_buckets()).collect())
        .collect();
    let wpb = prescan_warps(dev.profile(), &ms, wpb);
    let threads = wpb * WARP_SIZE;
    let counters: Vec<Counters> = ms.iter().map(|m| Counters::new(m, threads)).collect();
    let widest = counters.iter().map(|c| c.window_words).max().unwrap_or(0);
    assert!(
        widest <= SMEM_BUDGET_WORDS,
        "the pre-scan's {widest} counters exceed the {SMEM_BUDGET_WORDS}-word shared-memory budget"
    );
    let tile = threads * PRESCAN_ITEMS_PER_THREAD;
    let tiles: Vec<usize> = segs.iter().map(|s| s.n.div_ceil(tile)).collect();
    let mut words = 0;
    let table = table.then(|| {
        let descs = segs.iter().zip(&counters).map(|(s, c)| {
            words += c.window_words;
            let ipt = PRESCAN_ITEMS_PER_THREAD;
            (
                s.offset,
                s.n,
                c.window_words as u32,
                ipt,
                words - c.window_words,
            )
        });
        desc_table(descs, wpb)
    });
    let totals = GlobalBuffer::<u32>::zeroed(counters.iter().map(|c| c.window_words).sum());
    let blocks = match &table {
        Some(_) => tiles.iter().sum(),
        None => {
            let wave = dev.profile().sm_count
                * dev.profile().resident_blocks(threads, counters[0].bytes());
            tiles[0].min(wave)
        }
    };
    dev.launch(label, blocks, wpb, |blk| {
        let descs: Vec<TileDesc> = match &table {
            Some(table) => vec![read_desc(blk, table, blk.block_id)],
            None => (blk.block_id..tiles[0])
                .step_by(blk.num_blocks)
                .map(|t| TileDesc {
                    seg: 0,
                    offset: segs[0].offset,
                    n: segs[0].n,
                    ipt: PRESCAN_ITEMS_PER_THREAD,
                    local_tile: t,
                    m: widest as u32,
                    hist_base: 0,
                })
                .collect(),
        };
        let seg = descs[0].seg;
        count_tiles(
            blk,
            keys,
            &segs[seg].targets,
            &counters[seg],
            &descs,
            &totals,
        );
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

/// Pre-scan body for one block and its tiles of one segment (see the
/// module docs).
fn count_tiles<B: BucketFn + ?Sized>(
    blk: &BlockCtx,
    keys: &GlobalBuffer<u32>,
    targets: &[&B],
    c: &Counters,
    tiles: &[TileDesc],
    totals: &GlobalBuffer<u32>,
) {
    let (words, nw) = (c.window_words, blk.warps_per_block);
    let counts = blk.alloc_shared::<u32>(words);
    let private = blk.alloc_shared::<u32>(c.rows.len() * c.threads);
    // `regs[r][w]`: warp w's lanes' register row r.
    let mut regs = vec![vec![[0u32; WARP_SIZE]; nw]; c.regs.len()];
    // The warps stride over the window words in warp-sized groups, as
    // lane indices and a mask.
    let groups = |w: &WarpCtx| {
        (w.warp_id * WARP_SIZE..words)
            .step_by(nw * WARP_SIZE)
            .map(|g| {
                let cnt = (words - g).min(WARP_SIZE);
                (lanes_from_fn(|l| g + l.min(cnt - 1)), low_lanes_mask(cnt))
            })
    };
    // The warps zero the windows, and each thread its own private column.
    for w in blk.warps() {
        for (idx, mask) in groups(&w) {
            counts.st(idx, splat(0), mask);
        }
        for r in 0..c.rows.len() {
            private.st(column(c, &w, r), splat(0), FULL_MASK);
        }
    }
    blk.sync();
    let flushes = !c.rows.is_empty() || !c.regs.is_empty();
    for (i, d) in tiles.iter().enumerate() {
        if i > 0 && i % FLUSH_TILES == 0 && flushes {
            flush(blk, c, &private, &mut regs, &counts, true);
        }
        count_tile(blk, keys, targets, c, d, &private, &mut regs, &counts);
    }
    flush(blk, c, &private, &mut regs, &counts, false);
    if c.rows.is_empty() {
        blk.sync();
    }
    let hist_base = tiles[0].hist_base;
    for w in blk.warps() {
        for (idx, mask) in groups(&w) {
            let v = counts.ld(idx, mask);
            let live = (0..WARP_SIZE)
                .filter(|&l| mask >> l & 1 == 1 && v[l] != 0)
                .fold(0u32, |m, l| m | 1 << l);
            w.charge(mask.count_ones() as u64); // the zero tests
            if live != 0 {
                w.atomic_add(totals, lanes_from_fn(|l| hist_base + idx[l]), v, live);
            }
        }
    }
}

/// Warp `w`'s lanes' columns of private row `r`: bank = lane.
fn column(c: &Counters, w: &WarpCtx, r: usize) -> Lanes<usize> {
    lanes_from_fn(|l| r * c.threads + w.warp_id * WARP_SIZE + l)
}

/// Count one tile into the block's counters.
#[allow(clippy::too_many_arguments)]
fn count_tile<B: BucketFn + ?Sized>(
    blk: &BlockCtx,
    keys: &GlobalBuffer<u32>,
    targets: &[&B],
    c: &Counters,
    d: &TileDesc,
    private: &SharedBuf<'_, u32>,
    regs: &mut [Vec<Lanes<u32>>],
    counts: &SharedBuf<'_, u32>,
) {
    let tile_start = d.local_tile * blk.warps_per_block * WARP_SIZE * d.ipt;
    for w in blk.warps() {
        for ch in 0..d.ipt {
            let lb = tile_start + (w.warp_id * d.ipt + ch) * WARP_SIZE;
            let mask = tail_mask(lb, d.n);
            if mask == 0 {
                break;
            }
            let k = w.gather(keys, chunk_lanes(d.offset, lb, d.n), mask);
            for (t, win) in targets.iter().zip(&c.windows) {
                let b = eval_buckets(&w, *t, k, mask);
                // Lane l adds 1 to byte b % 4 of its row b / 4.
                let inc = |l: usize| 1 << (8 * (b[l] % 4));
                match win.count {
                    Count::Rows(row) => {
                        let col = column(c, &w, row);
                        let idx = lanes_from_fn(|l| col[l] + b[l] as usize / 4 * c.threads);
                        let v = private.ld(idx, mask);
                        private.st(idx, lanes_from_fn(|l| v[l] + inc(l)), mask);
                        w.charge(PRIVATE_INC_OPS * mask.count_ones() as u64);
                    }
                    Count::Register(r) => {
                        let reg = &mut regs[r][w.warp_id];
                        for l in (0..WARP_SIZE).filter(|&l| mask >> l & 1 == 1) {
                            reg[l] += inc(l);
                        }
                        w.charge(REGISTER_INC_OPS * mask.count_ones() as u64);
                    }
                    Count::Atomic => {
                        // The first active lane's bucket, and the lanes
                        // that share it: a warp-uniform bucket takes one
                        // add of the warp's count.
                        let first = mask.trailing_zeros() as usize;
                        let lead = w.broadcast(b, first);
                        let same = w.ballot(lanes_from_fn(|l| b[l] == lead[l]), mask);
                        w.charge(mask.count_ones() as u64); // the compares
                        if same == mask {
                            let idx = splat(win.base + lead[0] as usize);
                            counts.atomic_add(idx, splat(mask.count_ones()), 1 << first);
                        } else {
                            let idx = lanes_from_fn(|l| win.base + b[l] as usize);
                            counts.atomic_add(idx, splat(1), mask);
                        }
                    }
                }
            }
        }
    }
}

/// Add the private rows into the windows. Between two barriers, warp
/// `w` takes shared rows `w, w + N_W, …` and loads each row's columns;
/// every warp takes its own lanes of each register row. Either way the
/// warp unpacks the four byte counters and reduces them across the warp.
/// With `rezero` the warp zeroes the counters it read, for the next
/// tiles.
fn flush(
    blk: &BlockCtx,
    c: &Counters,
    private: &SharedBuf<'_, u32>,
    regs: &mut [Vec<Lanes<u32>>],
    counts: &SharedBuf<'_, u32>,
    rezero: bool,
) {
    let nw = blk.warps_per_block;
    let shared = !c.rows.is_empty();
    if shared {
        blk.sync();
    }
    for w in blk.warps() {
        for r in (w.warp_id..c.rows.len()).step_by(nw) {
            let cols = (0..nw).map(|col| {
                let idx = lanes_from_fn(|l| r * c.threads + col * WARP_SIZE + l);
                let v = private.ld(idx, FULL_MASK);
                if rezero {
                    private.st(idx, splat(0), FULL_MASK);
                }
                v
            });
            add_bytes(&w, cols, c.rows[r], counts);
        }
        for (reg, &row) in regs.iter_mut().zip(&c.regs) {
            add_bytes(&w, [reg[w.warp_id]].into_iter(), row, counts);
            if rezero {
                reg[w.warp_id] = [0; WARP_SIZE];
            }
        }
    }
    if shared {
        blk.sync();
    }
}

/// Unpack the four byte counters of each of `cols`, sum them across warp
/// `w` and add the sums to the `cnt` window words from `first`.
fn add_bytes(
    w: &WarpCtx,
    cols: impl Iterator<Item = Lanes<u32>>,
    (first, cnt): (usize, usize),
    counts: &SharedBuf<'_, u32>,
) {
    let mut bytes = [[0u32; WARP_SIZE]; 4];
    for v in cols {
        for (k, acc) in bytes.iter_mut().enumerate() {
            *acc = lanes_from_fn(|l| acc[l] + (v[l] >> (8 * k) & 0xFF));
        }
        w.charge(2 * 4 * WARP_SIZE as u64); // extract and add per byte
    }
    let sums = bytes.map(|acc| reduce_add(w, acc));
    counts.atomic_add(
        lanes_from_fn(|l| first + l.min(cnt - 1)),
        lanes_from_fn(|l| sums[l.min(3)]),
        low_lanes_mask(cnt),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::RangeBuckets;
    use crate::fused::max_buckets;
    use simt::{AdvFlavor, AdvSchedule, BlockStats, GTX750TI, K40C};

    /// Warps per block and blocks of a one-segment launch: the grid is
    /// one resident wave at the pre-scan's own block size, at most one
    /// block per tile.
    fn geometry(p: &DeviceProfile, n: usize, ms: &[u32], wpb: usize) -> (usize, usize) {
        let warps = prescan_warps(p, &[ms.to_vec()], wpb);
        let threads = warps * WARP_SIZE;
        let resident = p.resident_blocks(threads, Counters::new(ms, threads).bytes());
        let tiles = n.div_ceil(threads * PRESCAN_ITEMS_PER_THREAD);
        (warps, tiles.min(p.sm_count * resident))
    }

    /// One SM that holds three 2-warp blocks (or six 1-warp ones), and no
    /// wider block: a small grid whose blocks each walk many tiles.
    const ONE_SM: DeviceProfile = DeviceProfile {
        sm_count: 1,
        max_threads_per_sm: 192,
        ..K40C
    };

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
            let (warps, _) = geometry(&K40C, 0, &[m], 8);
            let tile = warps * WARP_SIZE * PRESCAN_ITEMS_PER_THREAD;
            for dist in [Dist::Uniform, Dist::Skew75, Dist::OneBucket] {
                for n in [1, tile - 1, tile, tile + 1, 3 * tile + 5] {
                    let data = keys(n, m, dist, i as u64 + n as u64);
                    let buf = GlobalBuffer::from_slice(&data);
                    let got = bucket_totals(&dev, "pre-scan", &buf, n, &[&bucket], 8);
                    let case = format!("m={m} {dist:?} n={n}");
                    assert_eq!(got, [host_totals(&data, &bucket)], "{case}");
                    let rec = dev.records().pop().unwrap();
                    let shape = (rec.warps_per_block, rec.blocks);
                    assert_eq!(shape, geometry(&K40C, n, &[m], 8), "{case}");
                }
            }
        }
    }

    #[test]
    fn a_batch_of_one_and_many_tile_segments_counts_each_segment() {
        let dev = Device::new(K40C);
        let parts = [(1usize, 4u32), (3 * 8192 + 5, 32), (8192, 100), (700, 33)];
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
        // The largest counters (32 private rows) keep the batch at 8
        // warps: one block per 8,192-key tile.
        let rec = &dev.records()[0];
        assert_eq!(rec.warps_per_block, 8);
        let blocks: usize = parts.iter().map(|p| p.0.div_ceil(8192)).sum();
        assert_eq!(rec.blocks, blocks);
    }

    /// Private counting bills the same on any key distribution; shared
    /// atomics serialize on the hot counter. This is why `m ≤ 32` counts
    /// privately. (Full tiles: every counter is live in the merge.)
    #[test]
    fn private_counting_bills_skewed_keys_like_uniform_ones() {
        let n = 3 * 8192;
        let bill = |m: u32, dist: Dist| -> BlockStats {
            let dev = Device::sequential(K40C);
            let bucket = RangeBuckets::new(m);
            let buf = GlobalBuffer::from_slice(&keys(n, m, dist, 11));
            bucket_totals(&dev, "pre-scan", &buf, n, &[&bucket], 8);
            dev.records()[0].stats
        };
        assert_eq!(bill(32, Dist::Skew75), bill(32, Dist::Uniform));
        assert_eq!(bill(4, Dist::Skew75), bill(4, Dist::Uniform));
        let (skew, uniform) = (bill(64, Dist::Skew75), bill(64, Dist::Uniform));
        assert!(
            skew.smem_ops > 2 * uniform.smem_ops,
            "atomics: {} vs {}",
            skew.smem_ops,
            uniform.smem_ops
        );
    }

    /// A register row (`m ≤ 4`) makes no shared load or store per key:
    /// the block's shared ops are the windows' zeroing, the flushes' adds
    /// and the merge's loads, however many keys it counts.
    #[test]
    fn a_register_row_makes_no_shared_access_per_key() {
        let smem = |n: usize| {
            let dev = Device::sequential(K40C);
            let bucket = RangeBuckets::new(4);
            let buf = GlobalBuffer::from_slice(&keys(n, 4, Dist::Uniform, 13));
            bucket_totals(&dev, "pre-scan", &buf, n, &[&bucket], 8);
            let rec = dev.records().pop().unwrap();
            assert_eq!((rec.warps_per_block, rec.blocks), (32, 1));
            rec.stats.smem_ops
        };
        // One block and one flush either way: 4 zeroing stores, 32 warps'
        // 4-word adds and 4 merge loads.
        assert_eq!(smem(32), 4 + 32 * 4 + 4);
        assert_eq!(smem(1024 * PRESCAN_ITEMS_PER_THREAD), 4 + 32 * 4 + 4);
    }

    /// One bucket takes every key, so each thread's byte counter would
    /// wrap past 255 keys; the flushes every `FLUSH_TILES` tiles keep the
    /// totals exact. A one-SM profile makes each block walk more tiles
    /// than that.
    #[test]
    fn one_bucket_totals_stay_exact_past_255_keys_per_thread() {
        for m in [1u32, 4, 32] {
            let bucket = RangeBuckets::new(m);
            let (warps, blocks) = geometry(&ONE_SM, usize::MAX / 2, &[m], 1);
            let tile = warps * WARP_SIZE * PRESCAN_ITEMS_PER_THREAD;
            let n = blocks * (2 * FLUSH_TILES + 1) * tile + 5;
            let data = keys(n, m, Dist::OneBucket, 1);
            let dev = Device::new(ONE_SM);
            let got = bucket_totals(
                &dev,
                "pre-scan",
                &GlobalBuffer::from_slice(&data),
                n,
                &[&bucket],
                1,
            );
            assert_eq!(got, [host_totals(&data, &bucket)], "m={m}");
            let rec = dev.records().pop().unwrap();
            assert_eq!((rec.warps_per_block, rec.blocks), (warps, blocks), "m={m}");
            assert!(
                n.div_ceil(tile) / rec.blocks > 2 * FLUSH_TILES,
                "m={m}: a block walks past two flushes"
            );
        }
    }

    #[test]
    fn the_grid_is_one_resident_wave_of_at_most_one_block_per_tile() {
        let (n, wpb) = (300 * 4 * WARP_SIZE * PRESCAN_ITEMS_PER_THREAD, 4);
        let data = GlobalBuffer::from_slice(&keys(n, 256, Dist::Uniform, 2));
        for p in [K40C, GTX750TI] {
            for (n, ms) in [
                (n, vec![256u32]),
                (n, vec![32]),
                (n, vec![2, 16]),
                (5000, vec![8]),
            ] {
                let targets: Vec<RangeBuckets> = ms.iter().map(|&m| RangeBuckets::new(m)).collect();
                let targets: Vec<&RangeBuckets> = targets.iter().collect();
                let dev = Device::new(p);
                bucket_totals(&dev, "pre-scan", &data, n, &targets, wpb);
                let rec = &dev.records()[0];
                assert_eq!(
                    (rec.warps_per_block, rec.blocks),
                    geometry(&p, n, &ms, wpb),
                    "{} n={n} ms={ms:?}",
                    p.name
                );
            }
        }
        let big = 1 << 22;
        // K40c from 8 warps: 256 atomic counters fit 8 blocks of 8 warps
        // or 2 of 32 per SM, 2,048 threads either way, and the tie goes
        // to the larger block.
        let threads = |w: usize| K40C.resident_blocks(w * WARP_SIZE, 1024) * w * WARP_SIZE;
        assert_eq!(threads(8), threads(32));
        assert_eq!(geometry(&K40C, big, &[256], 8), (32, 30));
        // 32 private rows: 5 blocks of 256 threads (8 kB each) beat one
        // of 1,024 (32 kB).
        assert_eq!(geometry(&K40C, big, &[32], 8), (8, 75));
        // 2 buckets: a register row, no shared rows, so 32 warps.
        assert_eq!(geometry(&K40C, big, &[2], 8), (32, 30));
        // GTX 750 Ti's 64 kB hold 7 blocks of 8 warps with 32 private
        // rows (1,792 threads), 3 of 16 (1,536) or 1 of 32.
        assert_eq!(geometry(&GTX750TI, big, &[32], 8), (8, 35));
    }

    /// A warp whose keys share one bucket adds its count once: at
    /// m = 256 a one-bucket input bills one shared atomic op per chunk
    /// beyond the zeroing and the merge, on every schedule.
    #[test]
    fn a_warp_uniform_bucket_takes_one_shared_atomic() {
        let n: usize = 5 * 8192 + 77;
        let chunks = n.div_ceil(WARP_SIZE) as u64;
        let bucket = RangeBuckets::new(256);
        let data = keys(n, 256, Dist::OneBucket, 1);
        let mut devs = vec![Device::sequential(K40C), Device::new(K40C)];
        devs.extend(
            AdvFlavor::ALL.map(|f| Device::adversarial(K40C, AdvSchedule::with_flavor(0x51, f))),
        );
        let runs: Vec<BlockStats> = devs
            .iter()
            .map(|dev| {
                let buf = GlobalBuffer::from_slice(&data);
                let got = bucket_totals(dev, "pre-scan", &buf, n, &[&bucket], 8);
                assert_eq!(got, [host_totals(&data, &bucket)]);
                let rec = dev.records().pop().unwrap();
                // Each block zeroes and merge-loads its 256 counters.
                let stats = rec.stats;
                assert_eq!(stats.smem_ops, 2 * 256 * rec.blocks as u64 + chunks);
                stats
            })
            .collect();
        for run in &runs[1..] {
            assert_eq!(run, &runs[0], "schedule-independent");
        }
        // Two buckets in every warp: each lane does its own atomic.
        let mixed: Vec<u32> = (0..n as u32).map(|i| (i % 2) << 31).collect();
        let dev = Device::sequential(K40C);
        let buf = GlobalBuffer::from_slice(&mixed);
        let got = bucket_totals(&dev, "pre-scan", &buf, n, &[&bucket], 8);
        assert_eq!(got, [host_totals(&mixed, &bucket)]);
        let rec = dev.records().pop().unwrap();
        // Two counters, 16 lanes each: 16 serialized passes per chunk.
        assert!(rec.stats.smem_ops >= 16 * (n as u64 - 77));
    }

    #[test]
    fn windows_count_privately_when_their_rows_fit() {
        use HistStrategy::{Atomic, Private};
        let strategies = |ms: &[u32], threads: usize| -> Vec<HistStrategy> {
            Counters::new(ms, threads)
                .windows
                .iter()
                .map(|w| w.strategy())
                .collect()
        };
        assert_eq!(strategies(&[1, 2, 32], 256), [Private; 3]);
        assert_eq!(strategies(&[33, 256], 256), [Atomic; 2]);
        assert_eq!(strategies(&[2, 64, 17], 256), [Private, Atomic, Private]);
        // One window of up to 32 buckets always fits at 32 warps:
        // 8 rows x 1,024 threads + 32 words.
        assert_eq!(strategies(&[32], 1024), [Private]);
        // Two do not: every window falls back to atomics.
        assert_eq!(strategies(&[32, 32], 1024), [Atomic; 2]);
        // ms-sort's 5-bit digits of a 32-bit key at 8 warps: 6 x 8 shared
        // rows of 256 threads and 196 window words exceed 12,288 words.
        let digits5 = [32, 32, 32, 32, 32, 32, 4];
        assert_eq!(strategies(&digits5, 256), [Atomic; 7]);
        assert_eq!(strategies(&digits5[..4], 256), [Private; 4]);
        // The footprint: windows plus shared rows. The 2-bucket row is a
        // register.
        let c = Counters::new(&[2, 64, 17], 256);
        assert_eq!(c.bytes(), 4 * (83 + 5 * 256));
        assert_eq!(Counters::new(&[4, 1], 1024).bytes(), 4 * 5);
        assert_eq!(Counters::new(&digits5, 256).bytes(), 4 * 196);
    }

    /// Blocks that walk many tiles (and flush in between) bill the same
    /// under all six schedules: sequential, parallel and the four
    /// adversarial flavors.
    #[test]
    fn walked_tiles_bill_the_same_under_every_schedule() {
        for ms in [vec![32u32], vec![7, 100], vec![3, 300]] {
            let (warps, blocks) = geometry(&ONE_SM, usize::MAX / 2, &ms, 2);
            assert_eq!((warps, blocks), (2, 3), "ms={ms:?}");
            let n = (FLUSH_TILES + 2) * blocks * 2 * WARP_SIZE * PRESCAN_ITEMS_PER_THREAD + 77;
            let data = keys(n, ms[0], Dist::Skew75, 5);
            let targets: Vec<RangeBuckets> = ms.iter().map(|&m| RangeBuckets::new(m)).collect();
            let targets: Vec<&RangeBuckets> = targets.iter().collect();
            let mut devs = vec![Device::sequential(ONE_SM), Device::new(ONE_SM)];
            devs.extend(
                AdvFlavor::ALL
                    .map(|f| Device::adversarial(ONE_SM, AdvSchedule::with_flavor(0x0717, f))),
            );
            let runs: Vec<_> = devs
                .iter()
                .map(|dev| {
                    let buf = GlobalBuffer::from_slice(&data);
                    let got = bucket_totals(dev, "pre-scan", &buf, n, &targets, 2);
                    let rec = dev.records().pop().unwrap();
                    (got, rec.blocks, rec.stats)
                })
                .collect();
            let host: Vec<Vec<u32>> = targets.iter().map(|t| host_totals(&data, *t)).collect();
            assert_eq!(runs[0].0, host, "ms={ms:?}");
            for run in &runs[1..] {
                assert_eq!(run, &runs[0], "ms={ms:?}: schedule-independent");
            }
        }
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
