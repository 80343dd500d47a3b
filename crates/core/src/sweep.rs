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
//! The reorder stages keys and payloads only: the dense scatter
//! recomputes each key's bucket (paper §5.1) and reads one folded base
//! per bucket; the sector-aligned scatter (below) reads a group
//! descriptor instead.
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
//! A tile of a multi-tile segment whose spare shared memory holds the
//! worst case scatters through sector-aligned windows (`Layout::for_tile`;
//! at 8 warps, m ≤ 64 standalone and m ≤ 63 in a batch, key-only or with
//! 4-byte payloads; fewer warps leave room for more buckets, 16 and 32
//! warps for none). Each bucket's run is staged at *virtual slots*
//! starting at a group boundary plus its destination's offset within its
//! 32-byte sector, and each group of 8 slots holds one run, so a
//! group maps onto one output sector. Warp 0 computes the layout after
//! the look-back and folds it into the histogram rows and the scatter
//! bases; in the reorder the first live lane of each group writes the
//! group's descriptor (its sector-aligned destination and live slot
//! range), and the scatter reads that descriptor instead of recomputing
//! the key's bucket. Every output sector of a run is then written by one
//! warp request, and the bucket function runs twice per key, not three
//! times. Gap slots are never written or read. Wider `m` keeps the dense
//! layout: there the up to 14 gap slots per bucket and the descriptors do
//! not fit beside the histogram, and those sweeps are compute-bound.
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

/// Keys per 32-byte output sector: the group width of the sector-aligned
/// layout.
const GROUP: usize = simt::SECTOR_BYTES as usize / 4;

/// Gap slots the sector-aligned layout may need for `m` buckets: at most
/// `GROUP - 1` before each run (its destination's offset within its
/// sector) and `GROUP - 1` after it (the rest of its last group), but
/// none after the last run.
fn max_gap_slots(m: usize) -> usize {
    (2 * (GROUP - 1) * m).saturating_sub(GROUP - 1)
}

/// The shared-memory words of one sweep block, buffer by buffer, plus
/// the one-word tile ticket. The kernel allocates from this struct, so the
/// budget searches and the allocations cannot drift apart.
#[derive(Debug, Clone, Copy)]
struct Layout {
    /// The per-warp histogram, `m × (wpb | 1)`.
    hist: usize,
    /// The folded scatter bases (`m` words).
    tables: usize,
    /// Logical staging slots for the reordered tile, addressed through
    /// [`padded_index`]: the tile's keys, plus the worst-case gaps in the
    /// sector-aligned layout.
    slots: usize,
    /// Words per slot: the key, then (after a barrier) the payload, in
    /// the same slot.
    slot_words: usize,
    /// The sector-aligned layout's group descriptors, one `u64` per
    /// [`GROUP`] slots; 0 in the dense layout.
    groups: usize,
    /// The block-wide scan's warp-sums scratch.
    scan_scratch: usize,
}

impl Layout {
    /// The dense layout, the one the coarsening search sizes.
    fn new(wpb: usize, m: usize, ipt: usize, value_words: usize) -> Self {
        Layout {
            hist: m * (wpb | 1),
            tables: m,
            slots: wpb * ipt * WARP_SIZE,
            slot_words: staging_words_per_element(value_words),
            groups: 0,
            scan_scratch: wpb + 1,
        }
    }

    /// The layout a tile runs: sector-aligned when it is one of several
    /// tiles of its segment and the worst case of the aligned layout (the
    /// gap slots and one descriptor per group) fits the shared memory
    /// the dense layout and `reserved_words` leave; dense otherwise. The
    /// tile's coarsening is the dense layout's in both cases.
    fn for_tile(
        wpb: usize,
        m: usize,
        ipt: usize,
        value_words: usize,
        reserved_words: usize,
        multi_tile: bool,
    ) -> Self {
        let dense = Self::new(wpb, m, ipt, value_words);
        let slots = dense.slots + max_gap_slots(m);
        let aligned = Layout {
            slots,
            groups: slots.div_ceil(GROUP),
            ..dense
        };
        if multi_tile && aligned.words() + reserved_words <= SMEM_BUDGET_WORDS {
            aligned
        } else {
            dense
        }
    }

    fn aligned(&self) -> bool {
        self.groups > 0
    }

    fn words(&self) -> usize {
        self.hist
            + self.tables
            + padded_len(self.slots) * self.slot_words
            + 2 * self.groups
            + 1
            + self.scan_scratch
    }
}

/// Bits of each position field of an aligned-layout histogram entry. Every
/// staging slot index is below the shared-memory budget, so it fits.
const POS_BITS: u32 = 14;
const POS_MASK: u32 = (1 << POS_BITS) - 1;
const _: () = assert!(SMEM_BUDGET_WORDS <= 1 << POS_BITS);
/// Entry flag: no earlier warp holds a key of the entry's bucket, so the
/// warp's first one is the run's first.
const RUN_HEAD: u32 = 1 << (2 * POS_BITS);

/// An aligned-layout histogram entry: the warp's first virtual slot of
/// the bucket, the end of the bucket's run, and the [`RUN_HEAD`] flag.
fn pack_entry(slot: u32, run_end: u32, head: bool) -> u32 {
    slot | run_end << POS_BITS | if head { RUN_HEAD } else { 0 }
}

/// A group descriptor: the sector-aligned, segment-local destination of
/// the group's first slot and its live slot range `lo..hi`.
fn pack_desc(base: u32, lo: u32, hi: u32) -> u64 {
    u64::from(base) | u64::from(lo) << 32 | u64::from(hi) << 40
}

fn unpack_desc(d: u64) -> (u32, u32, u32) {
    (d as u32, (d >> 32) as u32 & 0xFF, (d >> 40) as u32 & 0xFF)
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
            let reserved = if self.table.is_some() { DESC_WORDS } else { 0 };
            let bucket = self.segs[d.seg].bucket;
            sweep_tile(blk, keys, values, bucket, &d, &states, out, reserved);
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
    /// bucket's tile-local start.
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

    /// Warp 0, after [`scan`](Self::scan): the tile's per-bucket counts
    /// and starts. The starts are the scanned row heads; each count is
    /// `head[b+1] - head[b]`, the last bucket closing against the scan
    /// total.
    fn aggregate(&self, w: &WarpCtx, tile_total: u32) -> (Vec<u32>, Vec<u32>) {
        let (m, pitch) = (self.m, self.pitch);
        let mut agg = vec![0u32; m];
        let mut start = vec![0u32; m];
        for g0 in (0..m).step_by(WARP_SIZE) {
            let cnt = (m - g0).min(WARP_SIZE);
            let sm = low_lanes_mask(cnt);
            let heads = self
                .hrow
                .ld(lanes_from_fn(|l| (g0 + l.min(cnt - 1)) * pitch), sm);
            // The final bucket has no successor row; it closes against the
            // scan total, so mask it out of the load.
            let has_next = if g0 + cnt == m {
                low_lanes_mask(cnt - 1)
            } else {
                sm
            };
            let nexts = self.hrow.ld(
                lanes_from_fn(|l| {
                    let b = g0 + l.min(cnt - 1);
                    if b + 1 < m {
                        (b + 1) * pitch
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
                start[b] = heads[l];
            }
            w.charge(cnt as u64); // the subtracts
        }
        (agg, start)
    }

    /// Tile-local rank base of each lane's bucket in warp `w`: the
    /// bucket's tile start plus its count in earlier warps (the lanes'
    /// ranks already count the warp's earlier chunks). In the aligned
    /// layout the base is a virtual slot, packed with its run's end and
    /// head flag ([`fold_runs`](Self::fold_runs)).
    fn rank_base(&self, w: &WarpCtx, b: Lanes<u32>, mask: u32) -> Lanes<u32> {
        self.hrow.ld(
            lanes_from_fn(|l| b[l] as usize * self.pitch + w.warp_id),
            mask,
        )
    }

    /// Warp 0, aligned layout, after [`aggregate`](Self::aggregate): move
    /// the runs of buckets `g0..g0 + cnt` to their first virtual slots
    /// `slot`, holding `count` keys each. Every warp's entry of a run's
    /// row becomes [`pack_entry`] of its first slot, the run's end, and
    /// whether no earlier warp holds a key of the run.
    fn fold_runs(&self, w: &WarpCtx, g0: usize, cnt: usize, slot: Lanes<u32>, count: &[u32]) {
        let sm = low_lanes_mask(cnt);
        let at = |col: usize| lanes_from_fn(|l| (g0 + l.min(cnt - 1)) * self.pitch + col);
        let start = self.hrow.ld(at(0), sm);
        for col in 0..self.pad.unwrap_or(self.pitch) {
            let e = if col == 0 {
                start
            } else {
                self.hrow.ld(at(col), sm)
            };
            self.hrow.st(
                at(col),
                lanes_from_fn(|l| {
                    let before = e[l].wrapping_sub(start[l]);
                    let run_end = slot[l] + count.get(l).copied().unwrap_or(0);
                    pack_entry(slot[l].wrapping_add(before), run_end, before == 0)
                }),
                sm,
            );
            w.charge(3 * cnt as u64); // the shift, the end and the packing
        }
    }

    /// Aligned layout, after the fold: the end of the last run, read from
    /// the last row's head.
    fn runs_end(&self) -> usize {
        (self.hrow.get((self.m - 1) * self.pitch) >> POS_BITS & POS_MASK) as usize
    }
}

/// Sweep body for one tile (see the module docs for the phases).
/// `reserved_words` is the shared memory the launch holds besides the
/// tile's layout (a batch's descriptor).
#[allow(clippy::too_many_arguments)]
fn sweep_tile<B: BucketFn + ?Sized, V: Scalar>(
    blk: &BlockCtx,
    keys: &GlobalBuffer<u32>,
    values: Option<&GlobalBuffer<V>>,
    bucket: &B,
    d: &TileDesc,
    states: &SegmentedTileStates,
    out: &Out<'_, V>,
    reserved_words: usize,
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
    let lay = Layout::for_tile(nw, mu, d.ipt, value_words, reserved_words, multi_tile);
    let hist = TileHist::alloc(blk, mu);
    let scatter_base = multi_tile.then(|| blk.alloc_shared::<u32>(mu));
    // One staging buffer: the keys' slots, later the payloads'.
    let keys_s = blk.alloc_shared::<u32>(padded_len(lay.slots) * lay.slot_words);
    let desc_s = lay.aligned().then(|| blk.alloc_shared::<u64>(lay.groups));
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
    // m-vector tile prefix by decoupled look-back in the segment's window;
    // a multi-tile segment folds it, the global bases and the tile-local
    // bucket starts into scatter_base (plus staging slot: the
    // destination). The aligned layout also moves each run to its virtual
    // slots and folds that shift into the histogram rows.
    {
        let w = blk.warp(0);
        let (agg, start) = hist.aggregate(&w, tile_total);
        let prefix = states.resolve_rows(&w, d.seg, d.local_tile, &agg);
        if let Some(sb) = &scatter_base {
            // The first virtual slot of the next bucket group's runs.
            let mut cursor = 0u32;
            for g0 in (0..mu).step_by(WARP_SIZE) {
                let cnt = (mu - g0).min(WARP_SIZE);
                let sm = low_lanes_mask(cnt);
                let gb = w.gather_cached(
                    out.bases,
                    lanes_from_fn(|l| d.hist_base + g0 + l.min(cnt - 1)),
                    sm,
                );
                let bucket_of = |l: usize| g0 + l.min(cnt - 1);
                // The segment-local destination of each run's first key.
                let dst = lanes_from_fn(|l| gb[l].wrapping_add(prefix[bucket_of(l)]));
                let slot = if lay.aligned() {
                    let (slot, end) = align_runs(&w, &agg[g0..g0 + cnt], dst, d.offset, cursor);
                    cursor = end;
                    hist.fold_runs(&w, g0, cnt, slot, &agg[g0..g0 + cnt]);
                    slot
                } else {
                    lanes_from_fn(|l| start[bucket_of(l)])
                };
                sb.st(
                    lanes_from_fn(bucket_of),
                    lanes_from_fn(|l| dst[l].wrapping_sub(slot[l])),
                    sm,
                );
            }
        }
    }
    blk.sync();

    // Phase 4: block-wide reorder of the keys into shared staging. In the
    // aligned layout the first live lane of each group also writes the
    // group's descriptor.
    #[cfg(debug_assertions)]
    let mut audit = desc_s.as_ref().map(|_| Audit::new(lay.slots, lay.groups));
    for w in blk.warps() {
        for chunk in chunks_of(&w) {
            let mask = chunk_mask(chunk);
            let b = bucket_reg[chunk];
            let rank = pos_reg[chunk];
            let entry = hist.rank_base(&w, b, mask);
            let slot = match (&desc_s, &scatter_base) {
                (Some(desc), Some(sb)) => {
                    let slot = lanes_from_fn(|l| (entry[l] & POS_MASK) + rank[l]);
                    let writers = (0..WARP_SIZE)
                        .filter(|&l| {
                            slot[l].is_multiple_of(GROUP as u32)
                                || (entry[l] & RUN_HEAD != 0 && rank[l] == 0)
                        })
                        .fold(0u32, |acc, l| acc | 1 << l)
                        & mask;
                    let base = sb.ld(lanes_from_fn(|l| b[l] as usize), writers);
                    let lo = lanes_from_fn(|l| slot[l] % GROUP as u32);
                    let group = lanes_from_fn(|l| (slot[l] / GROUP as u32) as usize);
                    desc.st(
                        group,
                        lanes_from_fn(|l| {
                            let run_end = entry[l] >> POS_BITS & POS_MASK;
                            let first = slot[l] - lo[l];
                            let hi = run_end.wrapping_sub(first).min(GROUP as u32);
                            pack_desc(base[l].wrapping_add(first), lo[l], hi)
                        }),
                        writers,
                    );
                    // Each writer's base and range: predicates and address
                    // arithmetic go uncharged, as elsewhere in the sweep.
                    w.charge(2 * u64::from(writers.count_ones()));
                    #[cfg(debug_assertions)]
                    if let Some(a) = &mut audit {
                        a.stage(&slot, &group, mask, writers);
                    }
                    slot
                }
                _ => lanes_from_fn(|l| entry[l] + rank[l]),
            };
            pos_reg[chunk] = slot;
            keys_s.st(
                lanes_from_fn(|l| padded_index(slot[l] as usize)),
                key_reg[chunk],
                mask,
            );
        }
    }
    blk.sync();

    // Phase 5: coalesced read of the staged keys, written to final
    // positions, one 32-slot window at a time. The aligned layout reads
    // each slot's group descriptor; the dense one recomputes the key's
    // bucket to pick its scatter base, or (one-tile segment) writes its
    // bucket-dense tile at its own range. Each warp keeps its windows'
    // live lanes and destinations for the payloads.
    let mut kept: Vec<Vec<(usize, u32, Lanes<usize>)>> = match values {
        Some(_) => vec![Vec::new(); nw],
        None => Vec::new(),
    };
    for w in blk.warps() {
        // The warp's windows, and the end of the slots they cover.
        let (windows, span) = match &desc_s {
            Some(_) => {
                let span = hist.runs_end().next_multiple_of(GROUP);
                #[cfg(debug_assertions)]
                if let (Some(a), 0) = (&audit, w.warp_id) {
                    a.check_writers(span);
                }
                let count = span.div_ceil(WARP_SIZE);
                let per = count.div_ceil(nw);
                (w.warp_id * per..((w.warp_id + 1) * per).min(count), span)
            }
            None => (chunks_of(&w), d.n - tile_start),
        };
        for win in windows {
            let mask = tail_mask(win * WARP_SIZE, span);
            let tid = lanes_from_fn(|l| win * WARP_SIZE + l);
            let (live, k2, dest) = match (&desc_s, &scatter_base) {
                (Some(desc), _) => {
                    let dsc = desc.ld(lanes_from_fn(|l| tid[l] / GROUP), mask);
                    let mut live = 0u32;
                    let dest = lanes_from_fn(|l| {
                        let (base, lo, hi) = unpack_desc(dsc[l]);
                        let off = (tid[l] % GROUP) as u32;
                        live |= u32::from(lo <= off && off < hi) << l;
                        d.offset + base.wrapping_add(off) as usize
                    });
                    live &= mask;
                    #[cfg(debug_assertions)]
                    if let Some(a) = &audit {
                        a.check_read(&tid, live);
                    }
                    let k2 = keys_s.ld(lanes_from_fn(|l| padded_index(tid[l])), live);
                    (live, k2, dest)
                }
                (None, Some(sb)) => {
                    let k2 = keys_s.ld(lanes_from_fn(|l| padded_index(tid[l])), mask);
                    let b2 = eval_buckets(&w, bucket, k2, mask);
                    let base = sb.ld(lanes_from_fn(|l| b2[l] as usize), mask);
                    let dest =
                        lanes_from_fn(|l| d.offset + base[l].wrapping_add(tid[l] as u32) as usize);
                    (mask, k2, dest)
                }
                (None, None) => {
                    let k2 = keys_s.ld(lanes_from_fn(|l| padded_index(tid[l])), mask);
                    (mask, k2, lanes_from_fn(|l| d.offset + tile_start + tid[l]))
                }
            };
            w.scatter(out.keys, dest, k2, live);
            if values.is_some() {
                kept[w.warp_id].push((win, live, dest));
            }
        }
    }

    // Phases 6–7: the payloads take the keys' slots and follow them to
    // the kept destinations. The first barrier orders every key read-back
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
        for &(win, live, dest) in &kept[w.warp_id] {
            let slot = lanes_from_fn(|l| padded_index(win * WARP_SIZE + l));
            w.scatter(vout, dest, values_s.ld(slot, live), live);
        }
    }
}

/// Warp 0, aligned layout: the virtual slots of one group of up to 32
/// buckets' runs. Each non-empty run starts at a group boundary plus its
/// destination's offset within its 32-byte sector, and fills its groups
/// with no other run, so the virtual slots of each group map onto one
/// output sector. `count` holds the runs' key counts, `dst` their
/// segment-local destinations, and `cursor` the first free group
/// boundary. Returns each run's first slot and the next free boundary.
fn align_runs(
    w: &WarpCtx,
    count: &[u32],
    dst: Lanes<u32>,
    offset: usize,
    cursor: u32,
) -> (Lanes<u32>, u32) {
    let cnt = count.len();
    let g = GROUP as u32;
    let lead = lanes_from_fn(|l| {
        let c = count.get(l).copied().unwrap_or(0);
        if c == 0 {
            0
        } else {
            (offset as u32).wrapping_add(dst[l]) % g
        }
    });
    let span = lanes_from_fn(|l| {
        let c = count.get(l).copied().unwrap_or(0);
        (lead[l] + c).next_multiple_of(g)
    });
    let ends = primitives::warp_scan::inclusive_scan_add(w, span);
    w.charge(4 * cnt as u64); // the lead, the span and the slot
    (
        lanes_from_fn(|l| cursor + ends[l] - span[l] + lead[l]),
        cursor + ends[cnt - 1],
    )
}

/// Host-side audit of the aligned layout, kept in debug builds: each
/// descriptor has exactly one writer, and the scatter reads only slots
/// the reorder staged, never a gap slot.
#[cfg(debug_assertions)]
struct Audit {
    staged: Vec<bool>,
    writers: Vec<u8>,
}

#[cfg(debug_assertions)]
impl Audit {
    fn new(slots: usize, groups: usize) -> Self {
        Audit {
            staged: vec![false; slots],
            writers: vec![0; groups],
        }
    }

    fn stage(&mut self, slot: &Lanes<u32>, group: &Lanes<usize>, mask: u32, writers: u32) {
        for l in (0..WARP_SIZE).filter(|&l| mask >> l & 1 == 1) {
            assert!(
                !self.staged[slot[l] as usize],
                "slot {} staged twice",
                slot[l]
            );
            self.staged[slot[l] as usize] = true;
            if writers >> l & 1 == 1 {
                self.writers[group[l]] += 1;
            }
        }
    }

    fn check_writers(&self, span: usize) {
        let groups = span / GROUP;
        for (g, &n) in self.writers.iter().enumerate() {
            let want = u8::from(g < groups);
            assert_eq!(n, want, "group {g} of {groups} has {n} descriptor writers");
        }
    }

    fn check_read(&self, slot: &Lanes<usize>, live: u32) {
        for l in (0..WARP_SIZE).filter(|&l| live >> l & 1 == 1) {
            assert!(self.staged[slot[l]], "gap slot {} read", slot[l]);
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
    /// and multi-tile runs in the sector-aligned layout, key-only and
    /// key-value.
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

    /// The aligned scatter reads each slot's destination from its group
    /// descriptor, so a multi-tile fused split evaluates each key's bucket
    /// twice (pre-scan and count); the dense layout of 256 buckets
    /// recomputes it in the scatter, three times.
    #[test]
    fn aligned_sweeps_evaluate_each_key_twice() {
        use std::sync::atomic::{AtomicU64, Ordering};
        for (m, evals) in [(2u32, 2u64), (32, 2), (64, 2), (256, 3)] {
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
            assert_eq!(evaluated, evals * n as u64, "m={m}");
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
