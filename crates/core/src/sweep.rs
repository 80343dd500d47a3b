//! The one tile sweep behind every single-pass multisplit.
//!
//! [`Method::Fused`](crate::api::Method::Fused) (`m ≤ 32`),
//! [`Method::FusedLargeM`](crate::api::Method::FusedLargeM) (`m > 32`),
//! a segmented batch ([`crate::segmented`]) and the Onesweep key pass
//! ([`crate::onesweep`]) all run the sweep kernel written once here.
//! Blocks claim tiles in ticket order, read the tile's keys once into
//! registers, build the tile histogram, resolve the tile's m-vector
//! prefix by decoupled look-back inside the segment's window of a
//! [`SegmentedTileStates`], reorder the tile in shared memory, and then
//! either scatter straight to final positions ([`Scatter::Direct`], with
//! the bucket bases from the pre-scan of [`crate::prescan`]) or stage the
//! bucket-dense tile for a later scatter launch ([`Scatter::Deferred`],
//! the Onesweep flag; its look-back records carry the histogram, so it
//! runs no pre-scan).
//!
//! What changes with `m` is only the **histogram strategy**
//! ([`HistStrategy`]): ballot bitmaps with one `m`-lane column per
//! 32-element chunk up to the warp width, `⌈m/32⌉` register rows and a
//! row-major `m × chunks` histogram scanned block-wide beyond it. The
//! sweep asks a histogram five questions — count a chunk, scan the
//! chunks, the tile aggregate, an element's rank base, a bucket's tile
//! start — and `TileHist` answers them per strategy.
//!
//! A standalone run is the one-segment case (`SweepPlan::one`). Its
//! descriptor reaches every block by value, so it costs no table sector
//! and no barrier, and its counted stats are exactly those of a dedicated
//! single-problem kernel. A segmented batch (`SweepPlan::batch`) reads
//! one [`DESC_WORDS`]-word descriptor per tile from a device table
//! (`read_desc`; the pre-scan reads its own table the same way).
//!
//! [`SweepKind::footprint_words`] is the single shared-memory budget: the
//! coarsening search, the large-m capacity bound and the kernel's
//! allocations all derive from the same `Layout`.

use simt::{
    lanes_from_fn, padded_index, padded_len, BlockCtx, Device, EventKind, GlobalBuffer, Lanes,
    Scalar, SharedBuf, WarpCtx, WARP_SIZE,
};

use primitives::{
    block_exclusive_scan_shared, low_lanes_mask, multi_exclusive_scan_across_cols, tail_mask,
    warp_scan, SegmentedTileStates,
};

use crate::bucket::BucketFn;
use crate::common::{eval_buckets, staging_words_per_element, SMEM_BUDGET_WORDS};
use crate::prescan::{prescan, CountSeg};
use crate::warp_ops::{warp_histogram_and_offsets, warp_histogram_multi, warp_offsets};

/// Most chunks of 32 elements a warp processes per tile.
pub const MAX_ITEMS_PER_THREAD: usize = 8;

/// Words per tile descriptor in a segmented launch's table: `[segment,
/// offset, n, m, items_per_thread, local_tile, hist_base, 0]` (the
/// pre-scan's `m` is its counter words). The last word is padding:
/// exactly one 32-byte sector, so the per-tile decode costs one aligned
/// read.
pub const DESC_WORDS: usize = 8;

/// How a tile's bucket histogram is built and scanned, and how the
/// pre-scan counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistStrategy {
    /// `m ≤ 32`: ballot-bitmap warp histograms (Algorithm 2), one `m`-lane
    /// column per chunk at odd pitch, multi-scanned across the columns
    /// (§5.1); the tile histogram falls out of the same shuffles. The
    /// pre-scan accumulates ballot histograms in registers and adds them
    /// into its shared counters once per warp, at a cost independent of
    /// the key distribution.
    Ballot,
    /// `m > 32`: `⌈m/32⌉` register rows per warp histogram, a row-major
    /// `m × chunks` shared histogram (odd pitch), and one block-wide
    /// exclusive scan of all of it (§6.4). The pre-scan bumps one shared
    /// counter per key with a shared-memory atomic.
    Rows,
}

impl HistStrategy {
    /// Ballot bitmaps up to the warp width, register rows beyond it.
    pub fn for_buckets(m: u32) -> Self {
        if m as usize <= WARP_SIZE {
            Self::Ballot
        } else {
            Self::Rows
        }
    }
}

/// What the sweep does with a reordered tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scatter {
    /// Scatter straight to final positions: the segment's global bucket
    /// bases (from the pre-scan) plus the resolved tile prefix.
    Direct,
    /// Onesweep: the published look-back aggregate is the tile histogram,
    /// so the last tile's inclusive record is the global histogram. The
    /// bucket-dense tile is staged at its own input range, and a later
    /// launch scatters it once the bases are known.
    Deferred,
}

/// One sweep kernel variant: its histogram strategy and scatter mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepKind {
    pub hist: HistStrategy,
    pub scatter: Scatter,
}

/// The shared-memory words of one sweep block, buffer by buffer, plus
/// the one-word tile ticket. The kernel allocates from this struct, so the
/// budget searches and the allocations cannot drift apart.
#[derive(Debug, Clone, Copy)]
struct Layout {
    /// The chunk histogram: `chunks × (m | 1)` (Ballot) or
    /// `m × (chunks | 1)` (Rows).
    hist: usize,
    /// The `m`-word tables: Ballot's tile histogram and bucket starts,
    /// plus the scatter bases of a direct scatter.
    tables: usize,
    /// Staging slots for the reordered tile.
    slots: usize,
    /// Whether staging goes through [`padded_index`]. Only Ballot with a
    /// direct scatter stages unpadded.
    padded: bool,
    /// Words staged per element: the key, the payload, and (direct
    /// scatter only) the bucket id.
    slot_words: usize,
    /// The block-wide scan's warp-sums scratch (Rows).
    scan_scratch: usize,
}

impl Layout {
    fn words(&self) -> usize {
        self.hist + self.tables + self.slots * self.slot_words + 1 + self.scan_scratch
    }

    /// Physical staging slot of tile-local rank `i`.
    fn slot(&self, i: usize) -> usize {
        if self.padded {
            padded_index(i)
        } else {
            i
        }
    }
}

impl SweepKind {
    pub fn for_buckets(m: u32, scatter: Scatter) -> Self {
        Self {
            hist: HistStrategy::for_buckets(m),
            scatter,
        }
    }

    fn layout(self, wpb: usize, m: usize, ipt: usize, value_words: usize) -> Layout {
        let chunks = wpb * ipt;
        let tile = chunks * WARP_SIZE;
        let direct = self.scatter == Scatter::Direct;
        let (hist, ballot_tables, scan_scratch) = match self.hist {
            HistStrategy::Ballot => (chunks * (m | 1), 2, 0),
            HistStrategy::Rows => (m * (chunks | 1), 0, wpb + 1),
        };
        let padded = self.hist == HistStrategy::Rows || !direct;
        Layout {
            hist,
            tables: (ballot_tables + direct as usize) * m,
            slots: if padded { padded_len(tile) } else { tile },
            padded,
            slot_words: if direct {
                staging_words_per_element(value_words)
            } else {
                1 + value_words
            },
            scan_scratch,
        }
    }

    /// Shared words one sweep block allocates at coarsening `ipt` — the
    /// one footprint function of every single-pass path.
    pub fn footprint_words(self, wpb: usize, m: usize, ipt: usize, value_words: usize) -> usize {
        self.layout(wpb, m, ipt, value_words).words()
    }

    /// The largest coarsening `ipt ≤ MAX_ITEMS_PER_THREAD` whose footprint
    /// plus `reserved_words` fits [`SMEM_BUDGET_WORDS`], or `None` when
    /// even one item per thread overflows. Bigger tiles amortize the
    /// per-tile look-back records and lengthen same-bucket runs in the
    /// scatter. A segmented launch reserves [`DESC_WORDS`] for the tile
    /// descriptor.
    pub fn items_per_thread(
        self,
        wpb: usize,
        m: usize,
        value_bytes: u64,
        reserved_words: usize,
    ) -> Option<usize> {
        let vw = value_bytes as usize / 4;
        (1..=MAX_ITEMS_PER_THREAD).rev().find(|&ipt| {
            self.footprint_words(wpb, m, ipt, vw) + reserved_words <= SMEM_BUDGET_WORDS
        })
    }
}

/// One segment of a sweep launch: keys `[offset, offset + n)` split by
/// `bucket` at coarsening `ipt`.
pub(crate) struct SweepSeg<'a, B: ?Sized> {
    pub offset: usize,
    pub n: usize,
    pub bucket: &'a B,
    pub ipt: usize,
}

/// A tile's view of its segment: tile `local_tile` of segment `seg`, at
/// `offset` holding `n` keys, at coarsening `ipt`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TileDesc {
    pub seg: usize,
    pub offset: usize,
    pub n: usize,
    pub ipt: usize,
    pub local_tile: usize,
    /// The segment's bucket count (sweep) or counter words (pre-scan).
    pub m: u32,
    /// The segment's base into the flattened totals and bases arrays.
    pub hist_base: usize,
}

/// A batch's device table: one [`DESC_WORDS`]-word descriptor per tile
/// of each segment `(offset, n, m, ipt, hist_base)`, in segment order, at
/// tiles of `wpb × 32 × ipt` keys.
pub(crate) fn desc_table(
    segs: impl Iterator<Item = (usize, usize, u32, usize, usize)>,
    wpb: usize,
) -> GlobalBuffer<u32> {
    let mut words = Vec::new();
    for (i, (offset, n, m, ipt, hist_base)) in segs.enumerate() {
        for t in 0..n.div_ceil(wpb * WARP_SIZE * ipt) {
            words.extend([i, offset, n, m as usize, ipt, t, hist_base, 0].map(|w| w as u32));
        }
    }
    GlobalBuffer::from_slice(&words)
}

/// Tile `t`'s descriptor from a batch table. Warp 0 reads it (the counted
/// coalescing overhead: one aligned sector per tile) and every warp reads
/// it back from shared memory after the barrier.
pub(crate) fn read_desc(blk: &BlockCtx, table: &GlobalBuffer<u32>, t: usize) -> TileDesc {
    let desc_s = blk.alloc_shared::<u32>(DESC_WORDS);
    {
        let w = blk.warp(0);
        let mask = low_lanes_mask(DESC_WORDS);
        let words = w.gather_cached(
            table,
            lanes_from_fn(|l| t * DESC_WORDS + l.min(DESC_WORDS - 1)),
            mask,
        );
        desc_s.st(lanes_from_fn(|l| l.min(DESC_WORDS - 1)), words, mask);
    }
    blk.sync();
    // Read back the whole sector, padding word included: one counted
    // shared read per descriptor word.
    let word: [usize; DESC_WORDS] = std::array::from_fn(|i| desc_s.get(i) as usize);
    TileDesc {
        seg: word[0],
        offset: word[1],
        n: word[2],
        m: word[3] as u32,
        ipt: word[4],
        local_tile: word[5],
        hist_base: word[6],
    }
}

/// Where the sweep writes a reordered tile.
pub(crate) enum Out<'a, V: Scalar> {
    /// [`Scatter::Direct`]: final positions. `bases` holds every segment's
    /// global bucket bases at its `hist_base`.
    Final {
        bases: &'a GlobalBuffer<u32>,
        keys: &'a GlobalBuffer<u32>,
        values: Option<&'a GlobalBuffer<V>>,
    },
    /// [`Scatter::Deferred`]: the bucket-dense tile at its own input range.
    Staged {
        keys: &'a GlobalBuffer<u32>,
        values: Option<&'a GlobalBuffer<V>>,
    },
}

impl<V: Scalar> Out<'_, V> {
    fn scatter(&self) -> Scatter {
        match self {
            Out::Final { .. } => Scatter::Direct,
            Out::Staged { .. } => Scatter::Deferred,
        }
    }
}

/// The segments of one sweep launch and their tile geometry.
pub(crate) struct SweepPlan<'a, B: ?Sized> {
    segs: Vec<SweepSeg<'a, B>>,
    wpb: usize,
    tiles: Vec<usize>,
    hist_base: Vec<usize>,
    hist_words: usize,
    /// The per-tile descriptor table of a batch; `None` for one segment,
    /// whose descriptor every block takes by value.
    table: Option<GlobalBuffer<u32>>,
}

impl<'a, B: BucketFn + ?Sized> SweepPlan<'a, B> {
    /// The standalone case: one segment, its descriptor passed to every
    /// block by value — no table, no extra sector, no extra barrier.
    pub fn one(seg: SweepSeg<'a, B>, wpb: usize) -> Self {
        let tiles = vec![seg.n.div_ceil(wpb * WARP_SIZE * seg.ipt)];
        let hist_words = seg.bucket.num_buckets() as usize;
        Self {
            segs: vec![seg],
            wpb,
            tiles,
            hist_base: vec![0],
            hist_words,
            table: None,
        }
    }

    /// A segmented batch: warp 0 of every block reads its tile's
    /// [`DESC_WORDS`]-word descriptor from a device table and shares it
    /// through shared memory.
    pub fn batch(segs: Vec<SweepSeg<'a, B>>, wpb: usize) -> Self {
        let tiles: Vec<usize> = segs
            .iter()
            .map(|s| s.n.div_ceil(wpb * WARP_SIZE * s.ipt))
            .collect();
        let mut hist_base = Vec::with_capacity(segs.len());
        let mut hist_words = 0usize;
        for s in &segs {
            hist_base.push(hist_words);
            hist_words += s.bucket.num_buckets() as usize;
        }
        let table = desc_table(
            segs.iter()
                .zip(&hist_base)
                .map(|(s, &hb)| (s.offset, s.n, s.bucket.num_buckets(), s.ipt, hb)),
            wpb,
        );
        Self {
            segs,
            wpb,
            tiles,
            hist_base,
            hist_words,
            table: Some(table),
        }
    }

    fn total_tiles(&self) -> usize {
        self.tiles.iter().sum()
    }

    /// Tile `t`'s descriptor: by value for one segment, else from the
    /// table.
    fn desc(&self, blk: &BlockCtx, t: usize) -> TileDesc {
        let Some(table) = &self.table else {
            let s = &self.segs[0];
            return TileDesc {
                seg: 0,
                offset: s.offset,
                n: s.n,
                ipt: s.ipt,
                local_tile: t,
                m: s.bucket.num_buckets(),
                hist_base: 0,
            };
        };
        read_desc(blk, table, t)
    }

    /// Host: exclusive-scan each segment's flattened totals into its
    /// global bucket bases. Returns the device copy of the flattened bases
    /// and each segment's `m + 1` offsets.
    pub fn bases(&self, totals: &[u32]) -> (GlobalBuffer<u32>, Vec<Vec<u32>>) {
        assert_eq!(totals.len(), self.hist_words, "one total per bucket");
        let mut bases = vec![0u32; self.hist_words];
        let mut offsets = Vec::with_capacity(self.segs.len());
        for (s, &hb) in self.segs.iter().zip(&self.hist_base) {
            let mu = s.bucket.num_buckets() as usize;
            let mut run = 0u32;
            for (base, &total) in bases[hb..hb + mu].iter_mut().zip(&totals[hb..hb + mu]) {
                *base = run;
                run = run.wrapping_add(total);
            }
            debug_assert_eq!(run as usize, s.n, "bucket totals must sum to n");
            let mut o = bases[hb..hb + mu].to_vec();
            o.push(s.n as u32);
            offsets.push(o);
        }
        (GlobalBuffer::from_slice(&bases), offsets)
    }

    /// The sweep launch over the flattened segment × tile ticket space,
    /// look-back partitioned per segment. Returns the resolved tile
    /// states (every record INCLUSIVE).
    pub fn sweep<V: Scalar>(
        &self,
        dev: &Device,
        label: &str,
        keys: &GlobalBuffer<u32>,
        values: Option<&GlobalBuffer<V>>,
        out: &Out<'_, V>,
    ) -> SegmentedTileStates {
        let parts: Vec<(usize, usize)> = self
            .segs
            .iter()
            .zip(&self.tiles)
            .map(|(s, &t)| (t, s.bucket.num_buckets() as usize))
            .collect();
        let states = SegmentedTileStates::new(&parts);
        let ticket = GlobalBuffer::<u32>::zeroed(1);
        dev.launch(label, self.total_tiles(), self.wpb, |blk| {
            // Claim the next tile in task-start order — the look-back
            // deadlock-freedom invariant (a tile only waits on started
            // tiles; each segment's tiles hold consecutive tickets).
            let tile_id = blk.alloc_shared::<u32>(1);
            {
                let w = blk.warp(0);
                tile_id.set(0, w.device_fetch_add(&ticket, 0, 1));
                w.obs()
                    .flight_emit(EventKind::TicketClaim, tile_id.get(0), 0, 0);
            }
            blk.sync();
            let t = tile_id.get(0) as usize;
            let d = self.desc(blk, t);
            sweep_tile(blk, keys, values, self.segs[d.seg].bucket, &d, &states, out);
            blk.stats()
                .obs
                .flight_emit(EventKind::ScatterComplete, t as u32, 0, 0);
        });
        states
    }

    /// The whole split of a batch (a pre-scan batch over the same
    /// segments at the pre-scan's own tile geometry, host bases, direct
    /// sweep) into `out_keys` / `out_values`. Returns each segment's
    /// `m + 1` segment-local offsets.
    pub fn split<V: Scalar>(
        &self,
        dev: &Device,
        labels: [&str; 2],
        keys: &GlobalBuffer<u32>,
        values: Option<&GlobalBuffer<V>>,
        out_keys: &GlobalBuffer<u32>,
        out_values: Option<&GlobalBuffer<V>>,
    ) -> Vec<Vec<u32>> {
        let counted: Vec<_> = self
            .segs
            .iter()
            .map(|s| CountSeg {
                offset: s.offset,
                n: s.n,
                targets: vec![s.bucket],
            })
            .collect();
        let totals = prescan(dev, labels[0], keys, &counted, self.wpb, true);
        let (bases, offsets) = self.bases(&totals);
        let out = Out::Final {
            bases: &bases,
            keys: out_keys,
            values: out_values,
        };
        self.sweep(dev, labels[1], keys, values, &out);
        offsets
    }
}

/// Lane addresses of the 32-element chunk at segment-local index `lb` of
/// a segment at `offset` holding `n` keys. Lanes past the end alias the
/// chunk start; callers mask them off.
pub(crate) fn chunk_lanes(offset: usize, lb: usize, n: usize) -> Lanes<usize> {
    lanes_from_fn(|j| offset + if lb + j < n { lb + j } else { lb })
}

/// Store `m` per-bucket counts, `row(g)` holding warp-sized row group `g`,
/// into column `col` of a row-major histogram of the given pitch.
fn store_rows(
    buf: &SharedBuf<u32>,
    m: usize,
    pitch: usize,
    col: usize,
    row: impl Fn(usize) -> Lanes<u32>,
) {
    for g in 0..m.div_ceil(WARP_SIZE) {
        let cnt = (m - g * WARP_SIZE).min(WARP_SIZE);
        buf.st(
            lanes_from_fn(|l| (g * WARP_SIZE + l.min(cnt - 1)) * pitch + col),
            row(g),
            low_lanes_mask(cnt),
        );
    }
}

/// A sweep tile's shared histogram under one [`HistStrategy`].
enum TileHist<'b> {
    Ballot {
        /// `h2[chunk * pitch + b]`: bucket `b`'s count in `chunk`, then its
        /// exclusive prefix over the tile's earlier chunks.
        h2: SharedBuf<'b, u32>,
        pitch: usize,
        /// The tile's per-bucket counts (the look-back aggregate).
        tile_hist: SharedBuf<'b, u32>,
        /// Tile-local start of each bucket.
        bucket_base: SharedBuf<'b, u32>,
    },
    Rows {
        /// `hrow[b * ncolp + chunk]`: bucket `b`'s count in `chunk`, then
        /// (after the block-wide scan) its tile-local rank base; the row
        /// head `hrow[b * ncolp]` is the bucket's tile-local start.
        hrow: SharedBuf<'b, u32>,
        ncolp: usize,
    },
}

impl<'b> TileHist<'b> {
    fn alloc(blk: &'b BlockCtx, hist: HistStrategy, m: usize, chunks: usize) -> Self {
        match hist {
            HistStrategy::Ballot => {
                let pitch = m | 1;
                TileHist::Ballot {
                    h2: blk.alloc_shared(chunks * pitch),
                    pitch,
                    tile_hist: blk.alloc_shared(m),
                    bucket_base: blk.alloc_shared(m),
                }
            }
            HistStrategy::Rows => {
                let ncolp = chunks | 1;
                TileHist::Rows {
                    hrow: blk.alloc_shared(m * ncolp),
                    ncolp,
                }
            }
        }
    }

    /// Store per-bucket counts (`row(g)` = warp-sized row group `g`) as
    /// `chunk`'s column.
    fn store(&self, chunk: usize, m: usize, row: impl Fn(usize) -> Lanes<u32>) {
        match self {
            TileHist::Ballot { h2, pitch, .. } => store_rows(h2, m, 1, chunk * pitch, row),
            TileHist::Rows { hrow, ncolp } => store_rows(hrow, m, *ncolp, chunk, row),
        }
    }

    /// Histogram one chunk's bucket ids into its column; returns each
    /// lane's rank among the chunk's same-bucket lanes.
    fn count(&self, w: &WarpCtx, chunk: usize, b: Lanes<u32>, m: u32, mask: u32) -> Lanes<u32> {
        match self {
            TileHist::Ballot { .. } => {
                let (counts, ranks) = warp_histogram_and_offsets(w, b, m, mask);
                self.store(chunk, m as usize, |_| counts);
                ranks
            }
            TileHist::Rows { .. } => {
                let ranks = warp_offsets(w, b, m, mask);
                let rows = warp_histogram_multi(w, b, m, mask);
                self.store(chunk, m as usize, |g| rows[g]);
                ranks
            }
        }
    }

    /// Whole block: turn the chunk counts into exclusive prefixes. Returns
    /// the tile's element count for Rows (Ballot's per-bucket totals land
    /// in `tile_hist` instead).
    fn scan(&self, blk: &BlockCtx, m: usize, chunks: usize) -> u32 {
        match self {
            TileHist::Ballot {
                h2,
                pitch,
                tile_hist,
                ..
            } => {
                multi_exclusive_scan_across_cols(blk, h2, m, *pitch, chunks, Some(tile_hist));
                0
            }
            TileHist::Rows { hrow, ncolp } => {
                let total = block_exclusive_scan_shared(blk, hrow, m * ncolp);
                blk.sync();
                total
            }
        }
    }

    /// Warp 0, after [`scan`](Self::scan): the tile's per-bucket counts.
    /// Rows recovers them from the scanned row heads (`head[b+1] -
    /// head[b]`, the last bucket closing against the scan total).
    fn aggregate(&self, w: &WarpCtx, m: usize, tile_total: u32) -> Vec<u32> {
        match self {
            TileHist::Ballot { tile_hist, .. } => {
                let counts = tile_hist.ld(lanes_from_fn(|l| l.min(m - 1)), low_lanes_mask(m));
                counts[..m].to_vec()
            }
            TileHist::Rows { hrow, ncolp } => {
                let mut agg = vec![0u32; m];
                for g0 in (0..m).step_by(WARP_SIZE) {
                    let cnt = (m - g0).min(WARP_SIZE);
                    let sm = low_lanes_mask(cnt);
                    let heads = hrow.ld(lanes_from_fn(|l| (g0 + l.min(cnt - 1)) * ncolp), sm);
                    // The final bucket has no successor row; it closes
                    // against the scan total, so mask it out of the load.
                    let has_next = if g0 + cnt == m {
                        low_lanes_mask(cnt - 1)
                    } else {
                        sm
                    };
                    let nexts = hrow.ld(
                        lanes_from_fn(|l| {
                            let b = g0 + l.min(cnt - 1);
                            if b + 1 < m {
                                (b + 1) * ncolp
                            } else {
                                0
                            }
                        }),
                        has_next,
                    );
                    for l in 0..cnt {
                        let b = g0 + l;
                        let next = if b + 1 < m { nexts[l] } else { tile_total };
                        agg[b] = next.wrapping_sub(heads[l]);
                    }
                    w.charge(cnt as u64); // the subtracts
                }
                agg
            }
        }
    }

    /// Warp 0: record each bucket's tile-local start. Ballot scans the
    /// aggregate; Rows's scanned row heads already hold the starts.
    fn store_bucket_starts(&self, w: &WarpCtx, agg: &[u32]) {
        if let TileHist::Ballot { bucket_base, .. } = self {
            let m = agg.len();
            let padded = lanes_from_fn(|l| if l < m { agg[l] } else { 0 });
            let starts = warp_scan::exclusive_scan_add(w, padded);
            bucket_base.st(lanes_from_fn(|l| l.min(m - 1)), starts, low_lanes_mask(m));
        }
    }

    /// Tile-local rank base of each lane's bucket in `chunk`: the bucket's
    /// tile start plus its count in the tile's earlier chunks.
    fn rank_base(&self, chunk: usize, b: Lanes<u32>, mask: u32) -> Lanes<u32> {
        match self {
            TileHist::Ballot {
                h2,
                pitch,
                bucket_base,
                ..
            } => {
                let earlier = h2.ld(lanes_from_fn(|l| chunk * pitch + b[l] as usize), mask);
                let start = bucket_base.ld(lanes_from_fn(|l| b[l] as usize), mask);
                lanes_from_fn(|l| start[l] + earlier[l])
            }
            TileHist::Rows { hrow, ncolp } => {
                hrow.ld(lanes_from_fn(|l| b[l] as usize * ncolp + chunk), mask)
            }
        }
    }

    /// Tile-local start of each lane's bucket.
    fn bucket_start(&self, b: Lanes<u32>, mask: u32) -> Lanes<u32> {
        match self {
            TileHist::Ballot { bucket_base, .. } => {
                bucket_base.ld(lanes_from_fn(|l| b[l] as usize), mask)
            }
            TileHist::Rows { hrow, ncolp } => {
                hrow.ld(lanes_from_fn(|l| b[l] as usize * ncolp), mask)
            }
        }
    }
}

/// Sweep body for one tile (see the module docs for the phases).
fn sweep_tile<B: BucketFn + ?Sized, V: Scalar>(
    blk: &BlockCtx,
    keys: &GlobalBuffer<u32>,
    values: Option<&GlobalBuffer<V>>,
    bucket: &B,
    d: &TileDesc,
    states: &SegmentedTileStates,
    out: &Out<'_, V>,
) {
    let m = d.m;
    let mu = m as usize;
    let nw = blk.warps_per_block;
    let chunks = nw * d.ipt;
    let tile_start = d.local_tile * chunks * WARP_SIZE;
    let kind = SweepKind::for_buckets(m, out.scatter());
    let direct = kind.scatter == Scatter::Direct;
    let value_words = values.map_or(0, |_| V::BYTES as usize / 4);
    let lay = kind.layout(nw, mu, d.ipt, value_words);
    let hist = TileHist::alloc(blk, kind.hist, mu, chunks);
    let scatter_base = direct.then(|| blk.alloc_shared::<u32>(mu));
    let keys_s = blk.alloc_shared::<u32>(lay.slots);
    let buckets_s = direct.then(|| blk.alloc_shared::<u32>(lay.slots));
    let values_s = values.map(|_| blk.alloc_shared::<V>(lay.slots));
    // Per-chunk registers persisting across barriers, as in a real kernel:
    // the tile's keys are read from DRAM exactly once.
    let mut key_reg = vec![[0u32; WARP_SIZE]; chunks];
    let mut bucket_reg = vec![[0u32; WARP_SIZE]; chunks];
    let mut rank_reg = vec![[0u32; WARP_SIZE]; chunks];
    let mut val_reg = values.map(|_| vec![[V::default(); WARP_SIZE]; chunks]);
    let chunk_mask = |chunk: usize| tail_mask(tile_start + chunk * WARP_SIZE, d.n);

    // Phase 1: chunk histograms and in-chunk ranks; elements stay in
    // registers.
    for w in blk.warps() {
        for c in 0..d.ipt {
            let chunk = w.warp_id * d.ipt + c;
            let lb = tile_start + chunk * WARP_SIZE;
            let mask = chunk_mask(chunk);
            if mask == 0 {
                hist.store(chunk, mu, |_| [0; WARP_SIZE]);
                continue;
            }
            let idx = chunk_lanes(d.offset, lb, d.n);
            let k = w.gather(keys, idx, mask);
            let b = eval_buckets(&w, bucket, k, mask);
            rank_reg[chunk] = hist.count(&w, chunk, b, m, mask);
            key_reg[chunk] = k;
            bucket_reg[chunk] = b;
            if let (Some(vin), Some(vr)) = (values, &mut val_reg) {
                vr[chunk] = w.gather(vin, idx, mask);
            }
        }
    }
    blk.sync();

    // Phase 2: exclusive prefixes of the chunk counts.
    let tile_total = hist.scan(blk, mu, chunks);

    // Phase 3 (warp 0): publish the tile aggregate and resolve the
    // m-vector tile prefix by decoupled look-back in the segment's window;
    // a direct scatter folds it with the global bases into scatter_base.
    {
        let w = blk.warp(0);
        let agg = hist.aggregate(&w, mu, tile_total);
        let prefix = states.resolve_rows(&w, d.seg, d.local_tile, &agg);
        hist.store_bucket_starts(&w, &agg);
        if let (Out::Final { bases, .. }, Some(sb)) = (out, &scatter_base) {
            for g0 in (0..mu).step_by(WARP_SIZE) {
                let cnt = (mu - g0).min(WARP_SIZE);
                let sm = low_lanes_mask(cnt);
                let gb = w.gather_cached(
                    bases,
                    lanes_from_fn(|l| d.hist_base + g0 + l.min(cnt - 1)),
                    sm,
                );
                sb.st(
                    lanes_from_fn(|l| g0 + l.min(cnt - 1)),
                    lanes_from_fn(|l| gb[l].wrapping_add(prefix[g0 + l.min(cnt - 1)])),
                    sm,
                );
            }
        }
    }
    blk.sync();

    // Phase 4: block-wide reorder into shared staging.
    for w in blk.warps() {
        for c in 0..d.ipt {
            let chunk = w.warp_id * d.ipt + c;
            let mask = chunk_mask(chunk);
            if mask == 0 {
                continue;
            }
            let b = bucket_reg[chunk];
            let base = hist.rank_base(chunk, b, mask);
            let slot = lanes_from_fn(|l| lay.slot((base[l] + rank_reg[chunk][l]) as usize));
            keys_s.st(slot, key_reg[chunk], mask);
            if let Some(bs) = &buckets_s {
                bs.st(slot, b, mask);
            }
            if let (Some(vr), Some(vs)) = (&val_reg, &values_s) {
                vs.st(slot, vr[chunk], mask);
            }
        }
    }
    blk.sync();

    // Phase 5: coalesced read of the staged tile, written either to final
    // positions (rank within bucket = tile position - bucket tile start)
    // or, bucket-dense, to the staging scratch.
    for w in blk.warps() {
        for c in 0..d.ipt {
            let chunk = w.warp_id * d.ipt + c;
            let mask = chunk_mask(chunk);
            if mask == 0 {
                continue;
            }
            let tid = lanes_from_fn(|l| chunk * WARP_SIZE + l);
            let slot = lanes_from_fn(|l| lay.slot(tid[l]));
            let k2 = keys_s.ld(slot, mask);
            let (dest, out_keys, out_values) = match (out, &buckets_s, &scatter_base) {
                (Out::Final { keys, values, .. }, Some(bs), Some(sb)) => {
                    let b2 = bs.ld(slot, mask);
                    let start = hist.bucket_start(b2, mask);
                    let base = sb.ld(lanes_from_fn(|l| b2[l] as usize), mask);
                    let dest = lanes_from_fn(|l| {
                        d.offset
                            + (base[l].wrapping_add(tid[l] as u32).wrapping_sub(start[l])) as usize
                    });
                    (dest, *keys, *values)
                }
                (Out::Staged { keys, values }, ..) => {
                    let dest = lanes_from_fn(|l| d.offset + tile_start + tid[l]);
                    (dest, *keys, *values)
                }
                _ => unreachable!("a direct scatter allocates its bucket and base tables"),
            };
            w.scatter(out_keys, dest, k2, mask);
            if let (Some(vs), Some(vout)) = (&values_s, out_values) {
                let v2 = vs.ld(slot, mask);
                w.scatter(vout, dest, v2, mask);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{multisplit_device, Method};
    use crate::bucket::{FnBuckets, RangeBuckets};
    use crate::common::no_values;
    use crate::common::test_util::keys_for;
    use crate::cpu_ref::multisplit_kv_ref;
    use simt::K40C;

    const KINDS: [SweepKind; 3] = [
        SweepKind {
            hist: HistStrategy::Ballot,
            scatter: Scatter::Direct,
        },
        SweepKind {
            hist: HistStrategy::Rows,
            scatter: Scatter::Direct,
        },
        SweepKind {
            hist: HistStrategy::Ballot,
            scatter: Scatter::Deferred,
        },
    ];

    #[test]
    fn footprints_have_their_closed_forms() {
        let (wpb, ipt, vw) = (8usize, 5usize, 1usize);
        let chunks = wpb * ipt;
        let tile = chunks * WARP_SIZE;
        let m = 32;
        assert_eq!(
            KINDS[0].footprint_words(wpb, m, ipt, vw),
            chunks * (m | 1) + 3 * m + tile * (2 + vw) + 1
        );
        let m = 300;
        assert_eq!(
            KINDS[1].footprint_words(wpb, m, ipt, vw),
            m * (chunks | 1) + m + padded_len(tile) * (2 + vw) + 1 + (wpb + 1)
        );
        let m = 17;
        assert_eq!(
            KINDS[2].footprint_words(wpb, m, ipt, vw),
            chunks * (m | 1) + 2 * m + padded_len(tile) * (1 + vw) + 1
        );
    }

    #[test]
    fn coarsening_is_the_tight_fit_for_every_kind() {
        for kind in KINDS {
            for (wpb, m, vb, reserved) in [
                (8usize, 32usize, 0u64, 0usize),
                (16, 32, 4, 0),
                (16, 32, 16, DESC_WORDS),
                (8, 1, 0, 0),
                (8, 256, 4, DESC_WORDS),
                (32, 200, 8, 0),
            ] {
                let vw = vb as usize / 4;
                let Some(ipt) = kind.items_per_thread(wpb, m, vb, reserved) else {
                    assert!(kind.footprint_words(wpb, m, 1, vw) + reserved > SMEM_BUDGET_WORDS);
                    continue;
                };
                assert!(kind.footprint_words(wpb, m, ipt, vw) + reserved <= SMEM_BUDGET_WORDS);
                if ipt < MAX_ITEMS_PER_THREAD {
                    assert!(
                        kind.footprint_words(wpb, m, ipt + 1, vw) + reserved > SMEM_BUDGET_WORDS,
                        "{kind:?} wpb={wpb} m={m} vb={vb}: ipt={ipt} is not tight"
                    );
                }
            }
        }
    }

    #[test]
    fn coarsening_shrinks_to_fit() {
        let ipt = |kind: SweepKind, wpb, m, vb| kind.items_per_thread(wpb, m, vb, 0);
        let (ballot, rows) = (KINDS[0], KINDS[1]);
        assert_eq!(ipt(ballot, 8, 32, 0), Some(8));
        assert!((1..8).contains(&ipt(ballot, 16, 32, 4).unwrap()));
        assert_eq!(ipt(rows, 8, 64, 0), Some(8));
        assert!((1..8).contains(&ipt(rows, 8, 256, 0).unwrap()));
        let cap = crate::fused_large_m::max_buckets(8, false) as usize;
        assert_eq!(ipt(rows, 8, cap, 0), Some(1));
        assert_eq!(ipt(rows, 8, cap + 1, 0), None, "past capacity nothing fits");
    }

    /// The standalone paths over the sweep, with the bucket counts each
    /// covers.
    const PATHS: [(Method, &[u32]); 3] = [
        (Method::Fused, &[1, 2, 4, 8, 9, 13, 17, 32]),
        (
            Method::FusedLargeM,
            &[33, 50, 64, 96, 100, 128, 256, 777, 1024],
        ),
        (Method::Onesweep, &[1, 2, 4, 8, 9, 13, 17, 32]),
    ];

    /// Empty, single-element, sub-warp, partial, exact-tile, tile-plus-one
    /// and multi-tile inputs.
    const SIZES: [usize; 10] = [0, 1, 32, 33, 255, 257, 2048, 2049, 5000, 10_000];

    /// Run one case on `dev` and check it against the CPU reference:
    /// keys, payloads, offsets, and no launches at all for `n = 0`.
    fn check_case(
        dev: &Device,
        method: Method,
        bucket: &dyn BucketFn,
        n: usize,
        kv: bool,
        wpb: usize,
    ) {
        let m = bucket.num_buckets();
        let data = keys_for(n, m);
        let vals: Vec<u32> = (0..n as u32).map(|v| !v).collect();
        let keys = GlobalBuffer::from_slice(&data);
        let values = GlobalBuffer::from_slice(&vals);
        let values = kv.then_some(&values);
        let launches = dev.records().len();
        let r = multisplit_device(dev, method, &keys, values, n, bucket, wpb);
        let (ek, ev, eo) = multisplit_kv_ref(&data, kv.then_some(&vals[..]), bucket);
        let case = format!("{method:?} m={m} n={n} kv={kv} wpb={wpb}");
        assert_eq!(r.keys.to_vec(), ek, "{case}");
        if let Some(v) = r.values {
            assert_eq!(v.to_vec(), ev, "{case}");
        }
        assert_eq!(r.offsets, eo, "{case}");
        if n == 0 {
            assert_eq!(r.offsets, vec![0; m as usize + 1], "{case}");
            assert_eq!(dev.records().len(), launches, "{case}: launched");
        }
    }

    /// Every standalone path against the CPU reference: every size in
    /// [`SIZES`], key-only and key-value, across block sizes (including a
    /// single-warp block whose tiles hold one chunk column), plus a fully
    /// skewed input whose keys all land in one bucket (stability makes the
    /// split the identity).
    #[test]
    fn every_standalone_path_matches_reference() {
        let dev = Device::new(K40C);
        for (method, ms) in PATHS {
            for (i, &m) in ms.iter().enumerate() {
                for (j, n) in SIZES.into_iter().enumerate() {
                    let kv = (i + j) % 2 == 1;
                    let wpb = match [8, 1, 2, 4, 16][(i + j) % 5] {
                        w if m > crate::fused_large_m::max_buckets(w, kv) => 8,
                        w => w,
                    };
                    check_case(&dev, method, &RangeBuckets::new(m), n, kv, wpb);
                }
            }
            let (m, only) = if method == Method::FusedLargeM {
                (64, 40)
            } else {
                (8, 3)
            };
            let one = FnBuckets::new(m, move |_| only);
            for (n, kv) in [(1000, false), (5000, true)] {
                check_case(&dev, method, &one, n, kv, 8);
                let data = keys_for(n, m);
                let keys = GlobalBuffer::from_slice(&data);
                let r = multisplit_device(&dev, method, &keys, no_values(), n, &one, 8);
                assert_eq!(
                    r.keys.to_vec(),
                    data,
                    "{method:?}: one bucket is the identity"
                );
                let expect: Vec<u32> = (0..=m)
                    .map(|b| if b <= only { 0 } else { n as u32 })
                    .collect();
                assert_eq!(r.offsets, expect, "{method:?}");
            }
        }
    }

    /// Look-back walks differ across executors; outputs and counted
    /// traffic must not.
    #[test]
    fn parallel_and_sequential_agree_bit_and_stats() {
        let n = 60_000;
        let data = keys_for(n, 11);
        for (method, m) in [
            (Method::Fused, 32),
            (Method::FusedLargeM, 100),
            (Method::Onesweep, 32),
        ] {
            let bucket = RangeBuckets::new(m);
            let mut runs = Vec::new();
            for dev in [Device::new(K40C), Device::sequential(K40C)] {
                let keys = GlobalBuffer::from_slice(&data);
                let r = multisplit_device(&dev, method, &keys, no_values(), n, &bucket, 8);
                let stats: Vec<_> = dev.records().iter().map(|rec| rec.stats).collect();
                runs.push((r.keys.to_vec(), r.offsets, stats));
            }
            assert_eq!(runs[0], runs[1], "{method:?}: schedule-independent");
        }
    }
}
