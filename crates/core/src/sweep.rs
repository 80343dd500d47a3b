//! The one tile sweep behind every single-pass multisplit.
//!
//! [`Method::Fused`](crate::api::Method::Fused) (every `m` up to its
//! shared-memory capacity), ms-sort's digit passes and a segmented batch
//! ([`crate::segmented`]) all run the sweep kernel written once here.
//! Blocks claim tiles in ticket order, read the tile's
//! keys once into registers, build the tile histogram, resolve the tile's
//! m-vector prefix by decoupled look-back inside the segment's window of
//! a [`SegmentedTileStates`], reorder the tile in shared memory, and
//! scatter straight to final positions with the bucket bases from the
//! pre-scan of [`crate::prescan`]. A tile that is its whole segment needs
//! no bases: it writes its reordered tile in place.
//!
//! The reorder stages keys and payloads only, bucket-dense: each
//! bucket's run of the tile starts at the bucket's tile start.
//! Keys and payloads share one staging buffer, as in CUB's Onesweep: the
//! keys are staged, read back and scattered, each thread keeping its
//! destinations; after a barrier the payloads are staged into the same
//! slots and scattered to those destinations. A 4-byte payload therefore
//! costs no tile length, and at 8 warps the tile holds 8,192 keys up to
//! 256 buckets, key-only or key-value.
//!
//! Every `m` builds the same histogram: the paper's per-warp `m × N_W`
//! layout (§5.2 for `m ≤ 32`, §5.3/§6.4 beyond), one running-count
//! column per warp at odd pitch `N_W | 1`. Per chunk a warp runs
//! Algorithm 3 once, loads its column at its lanes' buckets, ranks each
//! lane as that count plus its offset among its peers, and the last peer
//! of each bucket stores the count plus the bucket's peer count back. One
//! block-wide raking scan of the whole histogram then yields every rank
//! base ("as CUB does"). The histogram does not grow with the tile, so
//! staging takes the rest of shared memory, up to the register bound
//! [`MAX_ITEMS_PER_THREAD`]. What varies is only how the pre-scan counts
//! ([`crate::prescan::HistStrategy`]).
//!
//! A tile of a multi-tile segment scatters by the *run walk*. A run is
//! one bucket's keys of the tile. Its window `j` covers the 32 output
//! positions that start `32 j` past the 32-byte sector holding the run's
//! first destination, so a run of `count` keys whose destination lies
//! `lead` keys into its sector spans `⌈(lead + count) / 32⌉` windows.
//! In phase 3, warp 0 counts each run's windows, scans the counts (one
//! warp scan per 32 buckets) and packs each run's window end above its
//! tile start in the bucket's scanned row head; it stores each run's
//! destination in `run_dst`. In the scatter, each warp takes a
//! contiguous range of the tile's windows. It caches 32 runs' row heads,
//! counts and destinations lane-parallel, one shared load each, finds
//! the run that holds its next window by ballot, and takes that run's
//! parameters by shuffle. Each live lane of a window then reads one
//! staged slot of the run, contiguous across the lanes, and writes one
//! key. Every output sector of a run is thus written by one warp
//! request, and the scatter evaluates no bucket function: a multi-tile
//! split evaluates it twice per key, in the pre-scan and in the count.
//! The walk adds no shared word to the dense layout, so it reaches every
//! `m`, block size and payload width the coarsening admits.
//!
//! A standalone run is the one-segment case (`SweepPlan::one`). Its
//! descriptor reaches every block by value, so it costs no table sector
//! and no barrier, and its counted stats are exactly those of a dedicated
//! single-problem kernel. A segmented batch (`SweepPlan::batch`) reads
//! one [`DESC_WORDS`]-word descriptor per tile from a device table
//! (`read_desc`; the pre-scan reads its own table the same way).
//!
//! [`footprint_words`] is the single shared-memory budget: the
//! coarsening search, the fused capacity bound and the kernel's
//! allocations all derive from the same `Layout`.

use simt::{
    lanes_from_fn, padded_index, padded_len, BlockCtx, Device, EventKind, GlobalBuffer, Lanes,
    Scalar, SharedBuf, WarpCtx, WARP_SIZE,
};

use primitives::warp_scan::inclusive_scan_add;
use primitives::{block_exclusive_scan_shared, low_lanes_mask, tail_mask, SegmentedTileStates};

use crate::bucket::BucketFn;
use crate::common::{eval_buckets, staging_words_per_element, SMEM_BUDGET_WORDS};
use crate::prescan::{prescan, CountSeg};
use crate::warp_ops::warp_offsets_and_peer_counts;

/// Most chunks of 32 elements a warp processes per tile: a register
/// bound. A thread keeps `3 + value_words` live words per item across the
/// tile's barriers (its key, bucket id, rank, then position and
/// destination, and payload), so 32 items hold at most 160 words, under
/// the 255-register ceiling of GK110 and GM107, and wherever shared
/// memory admits a tile its block stays within the 65,536-word register
/// file. Shared memory binds first past about 256 buckets at 8 warps.
pub const MAX_ITEMS_PER_THREAD: usize = 32;

/// Words per tile descriptor in a segmented launch's table: `[segment,
/// offset, n, m, items_per_thread, local_tile, hist_base, 0]` (the
/// pre-scan's `m` is its counter words). The last word is padding:
/// exactly one 32-byte sector, so the per-tile decode costs one aligned
/// read.
pub const DESC_WORDS: usize = 8;

/// Keys per 32-byte output sector: the alignment of a run's windows.
const SECTOR_KEYS: u32 = simt::SECTOR_BYTES as u32 / 4;

/// Bits of a row head's tile start. In a multi-tile tile, phase 3 packs
/// the run's window end above them. Both are below `2^16`: a start is a
/// staging slot, and a run of `c ≥ 1` keys spans at most `c` windows.
const START_BITS: u32 = 16;
const START_MASK: u32 = (1 << START_BITS) - 1;
const _: () = assert!(SMEM_BUDGET_WORDS <= 1 << START_BITS);

/// The shared-memory words of one sweep block, buffer by buffer, plus
/// the one-word tile ticket. The kernel allocates from this struct, so the
/// budget searches and the allocations cannot drift apart.
#[derive(Debug, Clone, Copy)]
struct Layout {
    /// The per-warp histogram, `m × (wpb | 1)`.
    hist: usize,
    /// Each run's segment-local destination (`m` words).
    tables: usize,
    /// Staging slots for the reordered tile, addressed through
    /// [`padded_index`].
    slots: usize,
    /// Words per slot: the key, then (after a barrier) the payload, in
    /// the same slot.
    slot_words: usize,
    /// The block-wide scan's warp-sums scratch.
    scan_scratch: usize,
}

impl Layout {
    fn new(wpb: usize, m: usize, ipt: usize, value_words: usize) -> Self {
        Layout {
            hist: m * (wpb | 1),
            tables: m,
            slots: wpb * ipt * WARP_SIZE,
            slot_words: staging_words_per_element(value_words),
            scan_scratch: wpb + 1,
        }
    }

    fn words(&self) -> usize {
        self.hist + self.tables + padded_len(self.slots) * self.slot_words + 1 + self.scan_scratch
    }
}

/// Shared words one sweep block allocates at coarsening `ipt` — the one
/// footprint function of every single-pass path.
pub fn footprint_words(wpb: usize, m: usize, ipt: usize, value_words: usize) -> usize {
    Layout::new(wpb, m, ipt, value_words).words()
}

/// The largest coarsening `ipt ≤ MAX_ITEMS_PER_THREAD` whose footprint
/// plus `reserved_words` fits [`SMEM_BUDGET_WORDS`], or `None` when even
/// one item per thread overflows. Bigger tiles amortize the per-tile
/// histogram scan and look-back records and lengthen same-bucket runs in
/// the scatter. A segmented launch reserves [`DESC_WORDS`] for the tile
/// descriptor.
pub fn items_per_thread(
    wpb: usize,
    m: usize,
    value_bytes: u64,
    reserved_words: usize,
) -> Option<usize> {
    let vw = value_bytes as usize / 4;
    (1..=MAX_ITEMS_PER_THREAD)
        .rev()
        .find(|&ipt| footprint_words(wpb, m, ipt, vw) + reserved_words <= SMEM_BUDGET_WORDS)
}

/// One segment of a sweep launch: keys `[offset, offset + n)` split by
/// `bucket` at coarsening `ipt`.
pub(crate) struct SweepSeg<'a, B: ?Sized> {
    pub offset: usize,
    pub n: usize,
    pub bucket: &'a B,
    pub ipt: usize,
}

impl<B: ?Sized> SweepSeg<'_, B> {
    /// Sweep tiles of `wpb × 32 × ipt` keys the segment spans.
    pub fn tiles(&self, wpb: usize) -> usize {
        self.n.div_ceil(wpb * WARP_SIZE * self.ipt)
    }
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

/// Where the sweep writes a reordered tile: its final positions. `bases`
/// holds every segment's global bucket bases at its `hist_base`.
pub(crate) struct Out<'a, V: Scalar> {
    pub bases: &'a GlobalBuffer<u32>,
    pub keys: &'a GlobalBuffer<u32>,
    pub values: Option<&'a GlobalBuffer<V>>,
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
        let tiles = vec![seg.tiles(wpb)];
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
        let tiles: Vec<usize> = segs.iter().map(|s| s.tiles(wpb)).collect();
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
            let bucket = self.segs[d.seg].bucket;
            sweep_tile(blk, keys, values, bucket, &d, &states, out);
            blk.stats()
                .obs
                .flight_emit(EventKind::ScatterComplete, t as u32, 0, 0);
        });
        states
    }

    /// The whole split of a batch into `out_keys` / `out_values`: a
    /// pre-scan (at its own tile geometry) of the segments that span more
    /// than one sweep tile, host bases, and the direct sweep. A one-tile
    /// segment needs no bases: its tile is the whole segment, written in
    /// place, and its totals are its own look-back record. A plan of
    /// one-tile segments is therefore one launch. Returns each segment's
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
        // The multi-tile segments' offsets, from the pre-scan's totals.
        let mut offsets: Vec<Option<Vec<u32>>> = vec![None; self.segs.len()];
        let multi: Vec<usize> = (0..self.segs.len())
            .filter(|&i| self.tiles[i] > 1)
            .collect();
        if !multi.is_empty() {
            let counted: Vec<_> = multi
                .iter()
                .map(|&i| CountSeg {
                    offset: self.segs[i].offset,
                    n: self.segs[i].n,
                    targets: vec![self.segs[i].bucket],
                })
                .collect();
            let table = self.table.is_some();
            let mut flat = prescan(dev, labels[0], keys, &counted, self.wpb, table).into_iter();
            for &i in &multi {
                let m = self.segs[i].bucket.num_buckets() as usize;
                offsets[i] = Some(offsets_of(&flat.by_ref().take(m).collect::<Vec<_>>()));
            }
        }
        // One-tile segments keep all-zero bases; their tiles never read them.
        let mut bases = vec![0u32; self.hist_words];
        for (o, &hb) in offsets.iter().zip(&self.hist_base) {
            if let Some((_, starts)) = o.as_ref().and_then(|o| o.split_last()) {
                bases[hb..hb + starts.len()].copy_from_slice(starts);
            }
        }
        let bases = GlobalBuffer::from_slice(&bases);
        let out = Out {
            bases: &bases,
            keys: out_keys,
            values: out_values,
        };
        let states = self.sweep(dev, labels[1], keys, values, &out);
        offsets
            .into_iter()
            .enumerate()
            .map(|(i, o)| {
                let o = o.unwrap_or_else(|| offsets_of(&states.row_totals(i)));
                debug_assert_eq!(o.last().copied(), Some(self.segs[i].n as u32));
                o
            })
            .collect()
    }
}

/// Host: the `m + 1` offsets of per-bucket `totals` (their exclusive scan
/// closed by the sum).
pub(crate) fn offsets_of(totals: &[u32]) -> Vec<u32> {
    let mut run = 0u32;
    let mut offsets: Vec<u32> = totals
        .iter()
        .map(|&t| {
            let base = run;
            run = run.wrapping_add(t);
            base
        })
        .collect();
    offsets.push(run);
    offsets
}

/// Lane addresses of the 32-element chunk at segment-local index `lb` of
/// a segment at `offset` holding `n` keys. Lanes past the end alias the
/// chunk start; callers mask them off.
pub(crate) fn chunk_lanes(offset: usize, lb: usize, n: usize) -> Lanes<usize> {
    lanes_from_fn(|j| offset + if lb + j < n { lb + j } else { lb })
}

/// A sweep tile's shared per-warp histogram.
struct TileHist<'b> {
    /// `hrow[b * pitch + warp]`: the warp's running count of bucket `b`,
    /// then (after the block-wide scan) the tile-local rank base of the
    /// warp's bucket-`b` elements; the row head `hrow[b * pitch]` is the
    /// bucket's tile-local start, with its run's window end above
    /// [`START_BITS`] once phase 3 of a multi-tile tile packs it.
    hrow: SharedBuf<'b, u32>,
    /// The bucket count (rows).
    m: usize,
    pitch: usize,
    /// The odd-pitch pad column of an even block.
    pad: Option<usize>,
}

impl<'b> TileHist<'b> {
    fn alloc(blk: &'b BlockCtx, m: usize) -> Self {
        let nw = blk.warps_per_block;
        let pitch = nw | 1;
        TileHist {
            hrow: blk.alloc_shared(m * pitch),
            m,
            pitch,
            pad: (pitch > nw).then_some(nw),
        }
    }

    /// Warp `w`, before its first chunk: zero the warp's column, and warp
    /// 0 also the odd-pitch pad column, so the scan reads only written
    /// words (shared memory is not zeroed on a GPU).
    fn open_warp(&self, w: &WarpCtx) {
        let (m, pitch) = (self.m, self.pitch);
        for col in std::iter::once(w.warp_id).chain(self.pad.filter(|_| w.warp_id == 0)) {
            for g0 in (0..m).step_by(WARP_SIZE) {
                let cnt = (m - g0).min(WARP_SIZE);
                self.hrow.st(
                    lanes_from_fn(|l| (g0 + l.min(cnt - 1)) * pitch + col),
                    [0; WARP_SIZE],
                    low_lanes_mask(cnt),
                );
            }
        }
    }

    /// Count one chunk's bucket ids into warp `w`'s running counts.
    /// Returns each lane's rank among the same-bucket lanes of the warp's
    /// chunks so far.
    fn count(&self, w: &WarpCtx, b: Lanes<u32>, mask: u32) -> Lanes<u32> {
        let (ranks, peers) = warp_offsets_and_peer_counts(w, b, self.m as u32, mask);
        let idx = lanes_from_fn(|l| b[l] as usize * self.pitch + w.warp_id);
        let prior = self.hrow.ld(idx, mask);
        let last = (0..WARP_SIZE)
            .filter(|&l| ranks[l] + 1 == peers[l])
            .fold(0u32, |acc, l| acc | 1 << l)
            & mask;
        self.hrow
            .st(idx, lanes_from_fn(|l| prior[l] + peers[l]), last);
        w.charge(2 * mask.count_ones() as u64); // the two adds
        lanes_from_fn(|l| prior[l] + ranks[l])
    }

    /// Whole block: turn the counts into exclusive prefixes. Returns the
    /// tile's element count.
    fn scan(&self, blk: &BlockCtx) -> u32 {
        block_exclusive_scan_shared(blk, &self.hrow, self.m * self.pitch)
    }

    /// Lane `l` addresses bucket `g0 + l`'s row head, over the up to 32
    /// buckets from `g0`; returns the addresses and the live lanes.
    fn head_lanes(&self, g0: usize) -> (Lanes<usize>, u32) {
        let cnt = (self.m - g0).min(WARP_SIZE);
        (
            lanes_from_fn(|l| (g0 + l.min(cnt - 1)) * self.pitch),
            low_lanes_mask(cnt),
        )
    }

    /// One load of the row heads of buckets `g0..g0 + 32` (after
    /// [`scan`](Self::scan)), with the live lanes.
    fn heads(&self, g0: usize) -> (Lanes<u32>, u32) {
        let (idx, sm) = self.head_lanes(g0);
        (self.hrow.ld(idx, sm), sm)
    }

    /// Warp `w`: the key counts of the runs whose row `heads` it holds,
    /// each the next row's start minus its own, the last bucket closing
    /// against the scan total.
    fn counts(&self, w: &WarpCtx, g0: usize, heads: &Lanes<u32>, tile_total: u32) -> Lanes<u32> {
        let (m, pitch) = (self.m, self.pitch);
        let cnt = (m - g0).min(WARP_SIZE);
        // The final bucket has no successor row, so mask it out of the load.
        let has_next = low_lanes_mask(if g0 + cnt == m { cnt - 1 } else { cnt });
        let nexts = self
            .hrow
            .ld(lanes_from_fn(|l| (g0 + l + 1).min(m - 1) * pitch), has_next);
        w.charge(cnt as u64); // the subtracts
        lanes_from_fn(|l| {
            let next = if has_next >> l & 1 == 1 {
                nexts[l] & START_MASK
            } else {
                tile_total
            };
            next.wrapping_sub(heads[l] & START_MASK)
        })
    }

    /// Warp 0, after [`scan`](Self::scan): the tile's per-bucket counts
    /// and starts, from the scanned row heads.
    fn aggregate(&self, w: &WarpCtx, tile_total: u32) -> (Vec<u32>, Vec<u32>) {
        let mut agg = Vec::with_capacity(self.m);
        let mut start = Vec::with_capacity(self.m);
        for g0 in (0..self.m).step_by(WARP_SIZE) {
            let (heads, sm) = self.heads(g0);
            let counts = self.counts(w, g0, &heads, tile_total);
            let cnt = sm.count_ones() as usize;
            agg.extend_from_slice(&counts[..cnt]);
            start.extend_from_slice(&heads[..cnt]);
        }
        (agg, start)
    }

    /// Tile-local rank base of each lane's bucket in warp `w`: the
    /// bucket's tile start plus its count in earlier warps (the lanes'
    /// ranks already count the warp's earlier chunks).
    fn rank_base(&self, w: &WarpCtx, b: Lanes<u32>, mask: u32) -> Lanes<u32> {
        let base = self.hrow.ld(
            lanes_from_fn(|l| b[l] as usize * self.pitch + w.warp_id),
            mask,
        );
        lanes_from_fn(|l| base[l] & START_MASK)
    }
}

/// One scatter request of `hi - lo` consecutive keys: lane `l` of
/// `lo..hi` reads staged slot `slot + (l - lo)` and writes output
/// position `dst + (l - lo)`.
#[derive(Debug, Clone, Copy)]
struct Window {
    slot: usize,
    dst: usize,
    lo: usize,
    hi: usize,
}

impl Window {
    fn live(&self) -> u32 {
        low_lanes_mask(self.hi) & !low_lanes_mask(self.lo)
    }

    fn slots(&self) -> Lanes<usize> {
        lanes_from_fn(|l| padded_index(self.slot + l.saturating_sub(self.lo)))
    }

    fn dsts(&self) -> Lanes<usize> {
        lanes_from_fn(|l| self.dst + l.saturating_sub(self.lo))
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
    let mu = d.m as usize;
    let nw = blk.warps_per_block;
    let chunks = nw * d.ipt;
    let tile_start = d.local_tile * chunks * WARP_SIZE;
    // A tile that is its whole segment is already in final order once
    // reordered: it writes in place and reads no bucket bases.
    let multi_tile = d.n > chunks * WARP_SIZE;
    // Chunks past the segment's end hold no key and get no registers.
    let live = chunks.min((d.n - tile_start).div_ceil(WARP_SIZE));
    let chunks_of = |w: &WarpCtx| w.warp_id * d.ipt..((w.warp_id + 1) * d.ipt).min(live);
    let chunk_mask = |chunk: usize| tail_mask(tile_start + chunk * WARP_SIZE, d.n);
    let value_words = values.map_or(0, |_| V::BYTES as usize / 4);
    let lay = Layout::new(nw, mu, d.ipt, value_words);
    let hist = TileHist::alloc(blk, mu);
    let run_dst = multi_tile.then(|| blk.alloc_shared::<u32>(lay.tables));
    // One staging buffer: the keys' slots, later the payloads'.
    let keys_s = blk.alloc_shared::<u32>(padded_len(lay.slots) * lay.slot_words);
    // Per-chunk registers persisting across barriers, as in a real kernel:
    // the tile's keys are read from DRAM exactly once. `pos_reg` holds each
    // lane's rank, then its staging slot.
    let mut key_reg = vec![[0u32; WARP_SIZE]; live];
    let mut bucket_reg = vec![[0u32; WARP_SIZE]; live];
    let mut pos_reg = vec![[0u32; WARP_SIZE]; live];
    let mut val_reg = values.map(|_| vec![[V::default(); WARP_SIZE]; live]);

    // Phase 1: count every chunk and rank its lanes; elements stay in
    // registers.
    for w in blk.warps() {
        hist.open_warp(&w);
        for chunk in chunks_of(&w) {
            let mask = chunk_mask(chunk);
            let idx = chunk_lanes(d.offset, tile_start + chunk * WARP_SIZE, d.n);
            let k = w.gather(keys, idx, mask);
            let b = eval_buckets(&w, bucket, k, mask);
            pos_reg[chunk] = hist.count(&w, b, mask);
            key_reg[chunk] = k;
            bucket_reg[chunk] = b;
            if let (Some(vin), Some(vr)) = (values, &mut val_reg) {
                vr[chunk] = w.gather(vin, idx, mask);
            }
        }
    }
    blk.sync();

    // Phase 2: exclusive prefixes of the per-warp counts.
    let tile_total = hist.scan(blk);

    // Phase 3 (warp 0): publish the tile aggregate and resolve the
    // m-vector tile prefix by decoupled look-back in the segment's window.
    // A multi-tile segment stores each run's destination (global base
    // plus prefix) and packs the run walk's window ends into the row
    // heads.
    {
        let w = blk.warp(0);
        let (agg, start) = hist.aggregate(&w, tile_total);
        let prefix = states.resolve_rows(&w, d.seg, d.local_tile, &agg);
        if let Some(rd) = &run_dst {
            // The windows of the bucket groups before this one.
            let mut windows = 0u32;
            for g0 in (0..mu).step_by(WARP_SIZE) {
                let (idx, sm) = hist.head_lanes(g0);
                let cnt = sm.count_ones() as usize;
                let bucket_of = |l: usize| g0 + l.min(cnt - 1);
                let gb =
                    w.gather_cached(out.bases, lanes_from_fn(|l| d.hist_base + bucket_of(l)), sm);
                let dst = lanes_from_fn(|l| gb[l].wrapping_add(prefix[bucket_of(l)]));
                let span = lanes_from_fn(|l| match agg.get(g0 + l).filter(|_| l < cnt) {
                    Some(&c) if c > 0 => {
                        let lead = (d.offset as u32).wrapping_add(dst[l]) % SECTOR_KEYS;
                        (lead + c).div_ceil(WARP_SIZE as u32)
                    }
                    _ => 0,
                });
                let ends = inclusive_scan_add(&w, span);
                w.charge(3 * cnt as u64); // the lead, the window count and the packing
                hist.hrow.st(
                    idx,
                    lanes_from_fn(|l| start[bucket_of(l)] | (windows + ends[l]) << START_BITS),
                    sm,
                );
                rd.st(lanes_from_fn(bucket_of), dst, sm);
                windows += ends[WARP_SIZE - 1];
            }
        }
    }
    blk.sync();

    // Phase 4: block-wide reorder of the keys into shared staging.
    for w in blk.warps() {
        for chunk in chunks_of(&w) {
            let mask = chunk_mask(chunk);
            let base = hist.rank_base(&w, bucket_reg[chunk], mask);
            let slot = lanes_from_fn(|l| base[l] + pos_reg[chunk][l]);
            pos_reg[chunk] = slot;
            keys_s.st(
                lanes_from_fn(|l| padded_index(slot[l] as usize)),
                key_reg[chunk],
                mask,
            );
        }
    }
    blk.sync();

    // Phase 5: read the staged keys back and write them to their final
    // positions: a multi-tile tile by the run walk, a one-tile segment
    // chunk by chunk at its own range. Each warp keeps its windows for
    // the payloads.
    #[cfg(debug_assertions)]
    let mut audit = Audit::new(tile_total as usize);
    let mut kept = vec![Vec::new(); if values.is_some() { nw } else { 0 }];
    for w in blk.warps() {
        let windows = match &run_dst {
            Some(rd) => walk_runs(&w, &hist, rd, tile_total, d.offset, nw),
            None => chunks_of(&w)
                .map(|chunk| Window {
                    slot: chunk * WARP_SIZE,
                    dst: d.offset + tile_start + chunk * WARP_SIZE,
                    lo: 0,
                    hi: chunk_mask(chunk).count_ones() as usize,
                })
                .collect(),
        };
        for win in &windows {
            #[cfg(debug_assertions)]
            audit.read(win);
            let k = keys_s.ld(win.slots(), win.live());
            w.scatter(out.keys, win.dsts(), k, win.live());
        }
        if values.is_some() {
            kept[w.warp_id] = windows;
        }
    }
    #[cfg(debug_assertions)]
    audit.finish();

    // Phases 6–7: the payloads take the keys' slots and follow them to
    // the kept windows. The first barrier orders every key read-back
    // before the payload stores into the same words (the simulator runs
    // warps in order, so it cannot catch a missing one).
    let (Some(vr), Some(vout)) = (val_reg, out.values) else {
        return;
    };
    blk.sync();
    let values_s = keys_s.recast::<V>();
    for w in blk.warps() {
        for chunk in chunks_of(&w) {
            let slot = lanes_from_fn(|l| padded_index(pos_reg[chunk][l] as usize));
            values_s.st(slot, vr[chunk], chunk_mask(chunk));
        }
    }
    blk.sync();
    for w in blk.warps() {
        for win in &kept[w.warp_id] {
            w.scatter(
                vout,
                win.dsts(),
                values_s.ld(win.slots(), win.live()),
                win.live(),
            );
        }
    }
}

/// Warp `w`'s share of a multi-tile tile's run walk (module docs): a
/// contiguous `1 / nw` of the tile's windows, whose total is the last
/// row head's window end. The warp holds one group of 32 runs at a time
/// lane-parallel: their row heads, and once it walks one of them, their
/// key counts and destinations. A ballot finds the run holding the next
/// window, and shuffles hand its start and count, its destination and,
/// for the warp's first run only, its window end to every lane.
fn walk_runs(
    w: &WarpCtx,
    hist: &TileHist,
    run_dst: &SharedBuf<u32>,
    tile_total: u32,
    offset: usize,
    nw: usize,
) -> Vec<Window> {
    let total = (hist.hrow.get((hist.m - 1) * hist.pitch) >> START_BITS) as usize;
    let per = total.div_ceil(nw);
    let end = ((w.warp_id + 1) * per).min(total);
    let mut win = (w.warp_id * per).min(end);
    let mut out = Vec::with_capacity(end - win);
    if win == end {
        return out;
    }
    let mut g0 = 0;
    let (mut h, mut sm) = hist.heads(g0);
    // The start | count << START_BITS and the destination of the held
    // group's runs.
    let mut runs: Option<(Lanes<u32>, Lanes<u32>)> = None;
    let mut first_run = true;
    while win < end {
        let ahead = w.ballot(lanes_from_fn(|l| (h[l] >> START_BITS) as usize > win), sm);
        if ahead == 0 {
            g0 += WARP_SIZE;
            (h, sm) = hist.heads(g0);
            runs = None;
            continue;
        }
        let f = ahead.trailing_zeros() as usize;
        let (sc, dst) = *runs.get_or_insert_with(|| {
            let counts = hist.counts(w, g0, &h, tile_total);
            let dst = run_dst.ld(lanes_from_fn(|l| (g0 + l).min(hist.m - 1)), sm);
            w.charge(u64::from(sm.count_ones())); // the packing
            let sc = lanes_from_fn(|l| h[l] & START_MASK | counts[l] << START_BITS);
            (sc, dst)
        });
        let sc = w.broadcast(sc, f)[0];
        let (start, count) = ((sc & START_MASK) as usize, (sc >> START_BITS) as usize);
        let dst = offset + w.broadcast(dst, f)[0] as usize;
        let lead = dst % SECTOR_KEYS as usize;
        let span = (lead + count).div_ceil(WARP_SIZE);
        // The run's first window: the warp may start inside its first run.
        let first = if first_run {
            (w.broadcast(h, f)[0] >> START_BITS) as usize - span
        } else {
            win
        };
        first_run = false;
        for j in win - first..span.min(end - first) {
            let lo = if j == 0 { lead } else { 0 };
            let at = j * WARP_SIZE + lo - lead;
            out.push(Window {
                slot: start + at,
                dst: dst + at,
                lo,
                hi: (lead + count - j * WARP_SIZE).min(WARP_SIZE),
            });
        }
        win = (first + span).min(end);
    }
    out
}

/// Host-side audit of the scatter, kept in debug builds: it reads every
/// staged slot of the tile exactly once, and no slot outside the tile.
#[cfg(debug_assertions)]
struct Audit {
    reads: Vec<u8>,
}

#[cfg(debug_assertions)]
impl Audit {
    fn new(tile_keys: usize) -> Self {
        Audit {
            reads: vec![0; tile_keys],
        }
    }

    fn read(&mut self, win: &Window) {
        for slot in win.slot..win.slot + (win.hi - win.lo) {
            let keys = self.reads.len();
            assert!(
                slot < keys,
                "slot {slot} read outside the tile's {keys} keys"
            );
            self.reads[slot] += 1;
        }
    }

    fn finish(&self) {
        for (slot, &n) in self.reads.iter().enumerate() {
            assert_eq!(n, 1, "staged slot {slot} read {n} times");
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

    #[test]
    fn footprints_have_their_closed_forms() {
        let (wpb, ipt) = (8usize, 5usize);
        let tile = wpb * ipt * WARP_SIZE;
        for m in [1usize, 17, 32, 300] {
            for vw in [0usize, 1, 2] {
                assert_eq!(
                    footprint_words(wpb, m, ipt, vw),
                    m * (wpb | 1) + m + padded_len(tile) * vw.max(1) + 1 + (wpb + 1),
                    "m={m} vw={vw}"
                );
            }
        }
    }

    #[test]
    fn coarsening_is_the_tight_fit() {
        for (wpb, m, vb, reserved) in [
            (8usize, 32usize, 0u64, 0usize),
            (8, 32, 4, 0),
            (16, 32, 4, 0),
            (16, 32, 16, DESC_WORDS),
            (8, 1, 0, 0),
            (8, 2, 0, 0),
            (8, 256, 4, DESC_WORDS),
            (32, 200, 8, 0),
        ] {
            let vw = vb as usize / 4;
            let Some(ipt) = items_per_thread(wpb, m, vb, reserved) else {
                assert!(footprint_words(wpb, m, 1, vw) + reserved > SMEM_BUDGET_WORDS);
                continue;
            };
            assert!(footprint_words(wpb, m, ipt, vw) + reserved <= SMEM_BUDGET_WORDS);
            if ipt < MAX_ITEMS_PER_THREAD {
                assert!(
                    footprint_words(wpb, m, ipt + 1, vw) + reserved > SMEM_BUDGET_WORDS,
                    "wpb={wpb} m={m} vb={vb}: ipt={ipt} is not tight"
                );
            }
        }
    }

    #[test]
    fn coarsening_shrinks_to_fit() {
        let direct = |wpb, m, vb| items_per_thread(wpb, m, vb, 0);
        // Key-only tiles at 8 warps reach the cap up to 256 buckets.
        assert_eq!(MAX_ITEMS_PER_THREAD, 32);
        for m in [1, 2, 32, 64, 256] {
            assert_eq!(direct(8, m, 0), Some(32), "m={m}");
        }
        // A payload word per key shares the key's slot: still the cap.
        assert_eq!(direct(8, 32, 4), Some(32));
        assert_eq!(direct(8, 256, 4), Some(32));
        assert_eq!(direct(8, 512, 4), Some(27));
        assert_eq!(direct(16, 32, 4), Some(22));
        // A two-word payload doubles the slot.
        assert_eq!(direct(8, 1, 8), Some(23));
        assert!((1..8).contains(&direct(8, 1024, 4).unwrap()));
        let cap = crate::fused::max_buckets(8, false) as usize;
        assert_eq!(direct(8, cap, 0), Some(1));
        assert_eq!(direct(8, cap + 1, 0), None, "past capacity nothing fits");
    }

    /// The capacity is the direct sweep's footprint at `ipt = 1`: per
    /// bucket a histogram row of `wpb | 1` words and one scatter base, plus
    /// one chunk per warp of staging that keys and payloads share (no
    /// bucket ids). A `u32` payload fits the key's slot; a `u64` one
    /// doubles it.
    #[test]
    fn max_buckets_keeps_its_values() {
        use crate::fused::{max_buckets, max_buckets_bytes};
        for (wpb, key, wide) in [
            (1, 6126, 6110),
            (2, 3054, 3038),
            (4, 2025, 2003),
            (8, 1201, 1175),
            (16, 652, 623),
            (32, 329, 298),
        ] {
            assert_eq!(max_buckets(wpb, false), key, "wpb={wpb} key");
            assert_eq!(max_buckets(wpb, true), key, "wpb={wpb} kv");
            assert_eq!(max_buckets_bytes(wpb, 8), wide, "wpb={wpb} u64");
        }
    }

    /// A 4-byte payload is staged in its key's slot after the key, so a
    /// key-value tile is as long as a key-only one at every bucket count
    /// and block size, standalone or segmented.
    #[test]
    fn four_byte_payloads_cost_no_tile_length() {
        for wpb in [1usize, 2, 4, 8, 16, 32] {
            for m in 1..=crate::fused::max_buckets(wpb, false) as usize {
                for reserved in [0, DESC_WORDS] {
                    assert_eq!(
                        items_per_thread(wpb, m, 4, reserved),
                        items_per_thread(wpb, m, 0, reserved),
                        "wpb={wpb} m={m} reserved={reserved}"
                    );
                }
            }
        }
    }

    /// The register bound behind [`MAX_ITEMS_PER_THREAD`]: at every
    /// accepted `(wpb, m, payload)` a thread's `3 + value_words` live words
    /// per item fit the 255 registers a GK110 or GM107 thread may hold, and
    /// the block's threads fit the SM's 65,536-word register file.
    #[test]
    fn every_accepted_tile_fits_the_register_file() {
        const REGS_PER_THREAD: usize = 255;
        const REGS_PER_SM: usize = 65_536;
        for wpb in 1..=32usize {
            for vb in [0u64, 4, 8] {
                let cap = crate::fused::max_buckets_bytes(wpb, vb) as usize;
                for m in 1..=cap {
                    let ipt = items_per_thread(wpb, m, vb, 0).expect("m within capacity");
                    let live = (3 + vb as usize / 4) * ipt;
                    let case = format!("wpb={wpb} m={m} vb={vb} ipt={ipt}");
                    assert!(live <= REGS_PER_THREAD, "{case}: {live} words a thread");
                    assert!(live * wpb * WARP_SIZE <= REGS_PER_SM, "{case}: block");
                }
            }
        }
    }

    /// Every word the scan reads is written first: a histogram allocated
    /// over poisoned shared words still scans to the host ranks, for one
    /// bucket up to the warp width and beyond, for even and odd blocks
    /// (pad column or none), for warps with no live chunk, and for one
    /// bucket whose running count crosses every chunk of a warp.
    #[test]
    fn rows_histogram_writes_every_word_it_scans() {
        const POISON: u32 = 0xDEAD_BEEF;
        for m in [1usize, 2, 32, 40] {
            for (nw, ipt, n, one_bucket) in [
                (8usize, 3usize, 8 * 3 * 32, false),
                (8, 3, 100, false),
                (3, 4, 200, true),
                (4, 2, 4 * 2 * 32, true),
            ] {
                let bucket_of = |i: usize| {
                    if one_bucket {
                        (7 % m) as u32
                    } else {
                        (i * 13 % 97 % m) as u32
                    }
                };
                let dev = Device::sequential(K40C);
                let got = std::sync::Mutex::new(None);
                dev.launch("rows", 1, nw, |blk| {
                    let hist = TileHist::alloc(blk, m);
                    for i in 0..hist.hrow.len() {
                        hist.hrow.set(i, POISON);
                    }
                    let mut ranks = vec![0u32; nw * ipt * WARP_SIZE];
                    for w in blk.warps() {
                        hist.open_warp(&w);
                        for c in 0..ipt {
                            let chunk = w.warp_id * ipt + c;
                            let mask = tail_mask(chunk * WARP_SIZE, n);
                            if mask == 0 {
                                continue;
                            }
                            let b = lanes_from_fn(|l| bucket_of(chunk * WARP_SIZE + l));
                            let r = hist.count(&w, b, mask);
                            ranks[chunk * WARP_SIZE..][..WARP_SIZE].copy_from_slice(&r);
                        }
                    }
                    blk.sync();
                    let total = hist.scan(blk);
                    let (agg, starts) = hist.aggregate(&blk.warp(0), total);
                    let mut pos = vec![0u32; n];
                    for w in blk.warps() {
                        for c in 0..ipt {
                            let chunk = w.warp_id * ipt + c;
                            let mask = tail_mask(chunk * WARP_SIZE, n);
                            if mask == 0 {
                                continue;
                            }
                            let b = lanes_from_fn(|l| bucket_of(chunk * WARP_SIZE + l));
                            let base = hist.rank_base(&w, b, mask);
                            for l in 0..(n - chunk * WARP_SIZE).min(WARP_SIZE) {
                                pos[chunk * WARP_SIZE + l] = base[l] + ranks[chunk * WARP_SIZE + l];
                            }
                        }
                    }
                    *got.lock().unwrap() = Some((total, agg, starts, pos));
                });
                let (total, agg, starts, pos) = got.into_inner().unwrap().unwrap();
                let case = format!("m={m} nw={nw} ipt={ipt} n={n} one_bucket={one_bucket}");
                let mut hist = vec![0u32; m];
                (0..n).for_each(|i| hist[bucket_of(i) as usize] += 1);
                assert_eq!(total as usize, n, "{case}");
                assert_eq!(agg, hist, "{case}");
                // The stable counting-sort position of every element.
                let mut start: Vec<u32> = hist
                    .iter()
                    .scan(0, |run, &h| {
                        *run += h;
                        Some(*run - h)
                    })
                    .collect();
                assert_eq!(starts, start, "{case}: bucket starts");
                for (i, &p) in pos.iter().enumerate() {
                    let b = bucket_of(i) as usize;
                    assert_eq!(p, start[b], "{case}: element {i}");
                    start[b] += 1;
                }
            }
        }
    }

    /// The bucket counts the standalone fused path is checked at: both
    /// pre-scan countings, from one bucket to near capacity.
    const MS: [u32; 17] = [
        1, 2, 4, 8, 9, 13, 17, 32, 33, 50, 64, 96, 100, 128, 256, 777, 1024,
    ];

    /// Empty, single-element, sub-warp, partial, exact-tile, tile-plus-one
    /// and multi-tile inputs, for a run whose tiles hold `tile` keys.
    fn sizes(tile: usize) -> [usize; 10] {
        [0, 1, 32, 33, 255, 257, tile, tile + 1, 5000, 10_000]
    }

    /// Run one case on `dev` and check it against the CPU reference:
    /// keys, payloads, offsets, and no launches at all for `n = 0`.
    fn check_case(dev: &Device, bucket: &dyn BucketFn, n: usize, kv: bool, wpb: usize) {
        let m = bucket.num_buckets();
        let data = keys_for(n, m);
        let vals: Vec<u32> = (0..n as u32).map(|v| !v).collect();
        let keys = GlobalBuffer::from_slice(&data);
        let values = GlobalBuffer::from_slice(&vals);
        let values = kv.then_some(&values);
        let launches = dev.records().len();
        let r = multisplit_device(dev, Method::Fused, &keys, values, n, bucket, wpb);
        let (ek, ev, eo) = multisplit_kv_ref(&data, kv.then_some(&vals[..]), bucket);
        let case = format!("m={m} n={n} kv={kv} wpb={wpb}");
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

    /// The standalone fused path against the CPU reference at every
    /// bucket count in [`MS`]: every size in [`sizes`] at the case's own
    /// tile, key-only and key-value, across block sizes (including a
    /// single-warp block whose tiles hold one chunk column), plus fully
    /// skewed inputs whose keys all land in one bucket, on both sides of
    /// 32 (stability makes the split the identity).
    #[test]
    fn every_standalone_path_matches_reference() {
        let dev = Device::new(K40C);
        for (i, &m) in MS.iter().enumerate() {
            for j in 0..sizes(0).len() {
                let kv = (i + j) % 2 == 1;
                let wpb = match [8, 1, 2, 4, 16][(i + j) % 5] {
                    w if m > crate::fused::max_buckets(w, kv) => 8,
                    w => w,
                };
                let ipt = items_per_thread(wpb, m as usize, 4 * kv as u64, 0);
                let n = sizes(wpb * WARP_SIZE * ipt.unwrap())[j];
                check_case(&dev, &RangeBuckets::new(m), n, kv, wpb);
            }
        }
        for (m, only) in [(8, 3), (64, 40)] {
            let one = FnBuckets::new(m, move |_| only);
            for (n, kv) in [(1000, false), (5000, true)] {
                check_case(&dev, &one, n, kv, 8);
                let data = keys_for(n, m);
                let keys = GlobalBuffer::from_slice(&data);
                let r = multisplit_device(&dev, Method::Fused, &keys, no_values(), n, &one, 8);
                assert_eq!(r.keys.to_vec(), data, "m={m}: one bucket is the identity");
                let expect: Vec<u32> = (0..=m)
                    .map(|b| if b <= only { 0 } else { n as u32 })
                    .collect();
                assert_eq!(r.offsets, expect, "m={m}");
            }
        }
    }

    /// Launch labels of a standalone run of `n` keys on a fresh device,
    /// checked against the CPU reference.
    fn labels_of(m: u32, n: usize, kv: bool) -> Vec<String> {
        let dev = Device::new(K40C);
        check_case(&dev, &RangeBuckets::new(m), n, kv, 8);
        dev.records().into_iter().map(|r| r.label).collect()
    }

    /// An input that fits one sweep tile is one launch, the sweep: no
    /// pre-scan. One key more is two launches. The labels name the
    /// pre-scan's counting: private counters up to 32 buckets, atomics
    /// beyond.
    #[test]
    fn one_tile_is_one_launch_and_one_key_more_is_two() {
        for (m, pair) in [
            (13u32, ["fused/pre-scan", "fused/sweep"]),
            (100, ["fused_large_m/pre-scan", "fused_large_m/sweep"]),
        ] {
            for kv in [false, true] {
                let ipt = items_per_thread(8, m as usize, 4 * kv as u64, 0);
                let tile = 8 * WARP_SIZE * ipt.unwrap();
                assert_eq!(labels_of(m, tile, kv), [pair[1]], "m={m} kv={kv}");
                assert_eq!(labels_of(m, tile + 1, kv), pair, "m={m} kv={kv}");
            }
        }
    }

    /// A sweep run bills the same counted stats, and writes the same
    /// outputs, under all six schedules: sequential, parallel and the four
    /// adversarial flavors. One-tile runs (one launch, written in place)
    /// and multi-tile runs (the run walk), key-only and key-value.
    #[test]
    fn sweep_runs_are_schedule_independent() {
        use simt::{AdvFlavor, AdvSchedule};
        for (n, launches, ms) in [(3000, 1, [13u32, 100]), (2 * 8192 + 700, 2, [2, 32])] {
            let data = keys_for(n, 100);
            let vals: Vec<u32> = (0..n as u32).collect();
            for m in ms {
                for kv in [false, true] {
                    let bucket = RangeBuckets::new(m);
                    let mut devs = vec![Device::sequential(K40C), Device::new(K40C)];
                    devs.extend(
                        AdvFlavor::ALL.map(|f| {
                            Device::adversarial(K40C, AdvSchedule::with_flavor(0x0717, f))
                        }),
                    );
                    let runs: Vec<_> = devs
                        .iter()
                        .map(|dev| {
                            let keys = GlobalBuffer::from_slice(&data);
                            let values = GlobalBuffer::from_slice(&vals);
                            let values = kv.then_some(&values);
                            let r =
                                multisplit_device(dev, Method::Fused, &keys, values, n, &bucket, 8);
                            let stats: Vec<_> = dev.records().iter().map(|rec| rec.stats).collect();
                            assert_eq!(stats.len(), launches, "n={n} m={m} kv={kv}");
                            (
                                r.keys.to_vec(),
                                r.values.map(|v| v.to_vec()),
                                r.offsets,
                                stats,
                            )
                        })
                        .collect();
                    let (ek, ev, eo) = multisplit_kv_ref(&data, kv.then_some(&vals[..]), &bucket);
                    let case = format!("n={n} m={m} kv={kv}");
                    assert_eq!((&runs[0].0, &runs[0].2), (&ek, &eo), "{case}");
                    assert_eq!(runs[0].1, kv.then_some(ev), "{case}");
                    for run in &runs[1..] {
                        assert_eq!(run, &runs[0], "{case}: schedule-independent");
                    }
                }
            }
        }
    }

    /// The run walk takes each staged key's destination from its run, so
    /// a multi-tile fused split evaluates each key's bucket twice
    /// (pre-scan and count), at every bucket count.
    #[test]
    fn aligned_sweeps_evaluate_each_key_twice() {
        use std::sync::atomic::{AtomicU64, Ordering};
        for m in [2u32, 32, 64, 256] {
            let calls = AtomicU64::new(0);
            let bucket = FnBuckets::new(m, |k| {
                calls.fetch_add(1, Ordering::Relaxed);
                k % m
            });
            // Whole tiles: every lane of every chunk holds a key.
            let n = 4 * 8192;
            let data = keys_for(n, m);
            let keys = GlobalBuffer::from_slice(&data);
            let dev = Device::sequential(K40C);
            let r = multisplit_device(&dev, Method::Fused, &keys, no_values(), n, &bucket, 8);
            let evaluated = calls.swap(0, Ordering::Relaxed);
            assert_eq!(r.keys.to_vec(), multisplit_kv_ref(&data, None, &bucket).0);
            assert_eq!(evaluated, 2 * n as u64, "m={m}");
        }
    }

    /// Look-back walks differ across executors; outputs and counted
    /// traffic must not.
    #[test]
    fn parallel_and_sequential_agree_bit_and_stats() {
        let n = 60_000;
        let uniform = keys_for(n, 11);
        // Three keys in four in bucket 0 of 32, the rest spread.
        let skewed: Vec<u32> = uniform
            .iter()
            .map(|&k| if k % 4 != 0 { k >> 5 } else { k })
            .collect();
        let vals: Vec<u32> = (0..n as u32).collect();
        for (m, kv, data) in [
            (32, false, &uniform),
            (32, true, &skewed),
            (100, false, &uniform),
            (256, true, &uniform),
        ] {
            let bucket = RangeBuckets::new(m);
            let mut runs = Vec::new();
            for dev in [Device::new(K40C), Device::sequential(K40C)] {
                let keys = GlobalBuffer::from_slice(data);
                let values = GlobalBuffer::from_slice(&vals);
                let values = kv.then_some(&values);
                let r = multisplit_device(&dev, Method::Fused, &keys, values, n, &bucket, 8);
                let stats: Vec<_> = dev.records().iter().map(|rec| rec.stats).collect();
                runs.push((
                    r.keys.to_vec(),
                    r.values.map(|v| v.to_vec()),
                    r.offsets,
                    stats,
                ));
            }
            assert_eq!(runs[0], runs[1], "m={m} kv={kv}: schedule-independent");
        }
    }

    /// A key-value tile costs a key-only one exactly one payload store and
    /// one payload load per element, and two barriers, on an input whose
    /// reorder is conflict-free (every bucket holds 32 keys of each tile),
    /// for one tile written in place and for a two-tile run.
    #[test]
    fn payloads_cost_one_store_one_load_and_two_barriers() {
        let (wpb, m) = (8usize, 256u32);
        let ipt = items_per_thread(wpb, m as usize, 4, 0).unwrap();
        let tile = wpb * WARP_SIZE * ipt;
        assert_eq!(tile / WARP_SIZE, m as usize);
        let bucket = FnBuckets::new(m, move |k| k % m);
        for n in [tile, 2 * tile] {
            let data: Vec<u32> = (0..n as u32).collect();
            let vals: Vec<u32> = data.iter().map(|&k| !k).collect();
            let sweep = |kv: bool| {
                let dev = Device::sequential(K40C);
                let keys = GlobalBuffer::from_slice(&data);
                let values = GlobalBuffer::from_slice(&vals);
                let r = multisplit_device(
                    &dev,
                    Method::Fused,
                    &keys,
                    kv.then_some(&values),
                    n,
                    &bucket,
                    wpb,
                );
                let (ek, ev, _) = multisplit_kv_ref(&data, Some(&vals), &bucket);
                assert_eq!(r.keys.to_vec(), ek, "n={n} kv={kv}");
                if let Some(v) = r.values {
                    assert_eq!(v.to_vec(), ev, "n={n}");
                }
                let rec = dev.records().into_iter().last().unwrap();
                assert!(rec.label.ends_with("sweep"), "{}", rec.label);
                rec
            };
            let (ko, kv) = (sweep(false), sweep(true));
            assert_eq!(kv.stats.smem_bank_conflicts, 0, "n={n}");
            assert_eq!(kv.stats.smem_ops - ko.stats.smem_ops, 2 * n as u64, "n={n}");
            assert_eq!(
                kv.stats.barriers - ko.stats.barriers,
                2 * ko.blocks as u64,
                "n={n}"
            );
        }
    }

    /// Packed `u64` payloads (ms-sort's reduced-bit fallback) double the
    /// slot and land exactly at the widest tile they allow: one bucket,
    /// a few buckets and the warp width, over several tiles and a tail.
    #[test]
    fn u64_payloads_sort_exactly_at_the_widest_tile() {
        let wpb = 8;
        let widest = (1..=32)
            .map(|m| items_per_thread(wpb, m, 8, 0).unwrap())
            .max()
            .unwrap();
        assert_eq!(widest, 23);
        for m in [1u32, 2, 32] {
            let ipt = items_per_thread(wpb, m as usize, 8, 0).unwrap();
            let n = 3 * wpb * WARP_SIZE * ipt + 5;
            let data = keys_for(n, m);
            let index: Vec<u32> = (0..n as u32).collect();
            let wide = |i: u32| (u64::from(i) << 32) | u64::from(!i);
            let vals: Vec<u64> = index.iter().map(|&i| wide(i)).collect();
            let dev = Device::new(K40C);
            let keys = GlobalBuffer::from_slice(&data);
            let values = GlobalBuffer::from_slice(&vals);
            let bucket = RangeBuckets::new(m);
            let r = multisplit_device(&dev, Method::Fused, &keys, Some(&values), n, &bucket, wpb);
            let (ek, ei, eo) = multisplit_kv_ref(&data, Some(&index), &bucket);
            let ev: Vec<u64> = ei.into_iter().map(wide).collect();
            assert_eq!(r.keys.to_vec(), ek, "m={m} ipt={ipt}");
            assert_eq!(r.values.unwrap().to_vec(), ev, "m={m} ipt={ipt}");
            assert_eq!(r.offsets, eo, "m={m}");
        }
    }

    /// The key-value sweep at 8 warps: 9 barriers per block (ticket,
    /// histogram, the scan's three, look-back, key reorder, then the
    /// payloads' two: after the key read-back and after the payload
    /// reorder), whatever the bucket count, from one bucket to past the
    /// warp width.
    #[test]
    fn rows_sweep_has_constant_barriers() {
        let n = 3 * 4096 + 5;
        let data = keys_for(n, 256);
        let vals: Vec<u32> = (0..n as u32).collect();
        for m in [1u32, 2, 32, 64, 256, 1000] {
            let dev = Device::sequential(K40C);
            let keys = GlobalBuffer::from_slice(&data);
            let values = GlobalBuffer::from_slice(&vals);
            let bucket = RangeBuckets::new(m);
            multisplit_device(&dev, Method::Fused, &keys, Some(&values), n, &bucket, 8);
            let sweep = dev
                .records()
                .into_iter()
                .find(|r| r.label.ends_with("sweep"));
            let sweep = sweep.expect("a sweep launch");
            let ipt = items_per_thread(8, m as usize, 4, 0).unwrap();
            assert_eq!(sweep.blocks, n.div_ceil(8 * WARP_SIZE * ipt), "m={m}");
            assert_eq!(sweep.stats.barriers, 9 * sweep.blocks as u64, "m={m}");
        }
    }
}
