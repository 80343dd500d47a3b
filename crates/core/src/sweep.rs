//! The one tile sweep behind every single-pass multisplit.
//!
//! [`Method::Fused`](crate::api::Method::Fused) (every `m` up to its
//! shared-memory capacity), ms-sort's digit passes and a segmented batch
//! ([`crate::segmented`]) all run the sweep kernel written once here. Blocks claim tiles in ticket order, read the tile's
//! keys once into registers, build the tile histogram, resolve the tile's
//! m-vector prefix by decoupled look-back inside the segment's window of
//! a [`SegmentedTileStates`], reorder the tile in shared memory, and
//! scatter straight to final positions with the bucket bases from the
//! pre-scan of [`crate::prescan`]. A tile that is its whole segment needs
//! no bases: it writes its reordered tile in place.
//!
//! The reorder stages keys and payloads only: the scatter recomputes
//! each key's bucket (paper §5.1) and reads one folded base per bucket.
//!
//! Every `m` builds the same histogram: the paper's per-warp `m × N_W`
//! layout (§5.2 for `m ≤ 32`, §5.3/§6.4 beyond), one running-count
//! column per warp at odd pitch `N_W | 1`. Per chunk a warp runs
//! Algorithm 3 once, loads its column at its lanes' buckets, ranks each
//! lane as that count plus its offset among its peers, and the last peer
//! of each bucket stores the count plus the bucket's peer count back. One
//! block-wide raking scan of the whole histogram then yields every rank
//! base ("as CUB does"). The histogram does not grow with the tile, so
//! staging takes the rest of shared memory. What varies is only how the
//! pre-scan counts ([`crate::prescan::HistStrategy`]).
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

/// Most chunks of 32 elements a warp processes per tile. Shared memory
/// binds first for every bucket count and payload at 8 warps per block.
pub const MAX_ITEMS_PER_THREAD: usize = 16;

/// Words per tile descriptor in a segmented launch's table: `[segment,
/// offset, n, m, items_per_thread, local_tile, hist_base, 0]` (the
/// pre-scan's `m` is its counter words). The last word is padding:
/// exactly one 32-byte sector, so the per-tile decode costs one aligned
/// read.
pub const DESC_WORDS: usize = 8;

/// The shared-memory words of one sweep block, buffer by buffer, plus
/// the one-word tile ticket. The kernel allocates from this struct, so the
/// budget searches and the allocations cannot drift apart.
#[derive(Debug, Clone, Copy)]
struct Layout {
    /// The per-warp histogram, `m × (wpb | 1)`.
    hist: usize,
    /// The folded scatter bases (`m` words).
    tables: usize,
    /// Staging slots for the reordered tile, addressed through
    /// [`padded_index`].
    slots: usize,
    /// Words staged per element: the key and the payload. The scatter
    /// recomputes the bucket id from the staged key.
    slot_words: usize,
    /// The block-wide scan's warp-sums scratch.
    scan_scratch: usize,
}

impl Layout {
    fn new(wpb: usize, m: usize, ipt: usize, value_words: usize) -> Self {
        Layout {
            hist: m * (wpb | 1),
            tables: m,
            slots: padded_len(wpb * ipt * WARP_SIZE),
            slot_words: staging_words_per_element(value_words),
            scan_scratch: wpb + 1,
        }
    }

    fn words(&self) -> usize {
        self.hist + self.tables + self.slots * self.slot_words + 1 + self.scan_scratch
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
            sweep_tile(blk, keys, values, self.segs[d.seg].bucket, &d, &states, out);
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
    /// ranks already count the warp's earlier chunks).
    fn rank_base(&self, w: &WarpCtx, b: Lanes<u32>, mask: u32) -> Lanes<u32> {
        self.hrow.ld(
            lanes_from_fn(|l| b[l] as usize * self.pitch + w.warp_id),
            mask,
        )
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
    let value_words = values.map_or(0, |_| V::BYTES as usize / 4);
    let lay = Layout::new(nw, mu, d.ipt, value_words);
    let hist = TileHist::alloc(blk, mu);
    let scatter_base = multi_tile.then(|| blk.alloc_shared::<u32>(mu));
    let keys_s = blk.alloc_shared::<u32>(lay.slots);
    let values_s = values.map(|_| blk.alloc_shared::<V>(lay.slots));
    // Per-chunk registers persisting across barriers, as in a real kernel:
    // the tile's keys are read from DRAM exactly once.
    let mut key_reg = vec![[0u32; WARP_SIZE]; chunks];
    let mut bucket_reg = vec![[0u32; WARP_SIZE]; chunks];
    let mut rank_reg = vec![[0u32; WARP_SIZE]; chunks];
    let mut val_reg = values.map(|_| vec![[V::default(); WARP_SIZE]; chunks]);
    let chunk_mask = |chunk: usize| tail_mask(tile_start + chunk * WARP_SIZE, d.n);

    // Phase 1: count every chunk and rank its lanes; elements stay in
    // registers.
    for w in blk.warps() {
        hist.open_warp(&w);
        for c in 0..d.ipt {
            let chunk = w.warp_id * d.ipt + c;
            let lb = tile_start + chunk * WARP_SIZE;
            let mask = chunk_mask(chunk);
            if mask == 0 {
                continue;
            }
            let idx = chunk_lanes(d.offset, lb, d.n);
            let k = w.gather(keys, idx, mask);
            let b = eval_buckets(&w, bucket, k, mask);
            rank_reg[chunk] = hist.count(&w, b, mask);
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
    // bucket starts into scatter_base (plus tile position: the destination).
    {
        let w = blk.warp(0);
        let (agg, start) = hist.aggregate(&w, tile_total);
        let prefix = states.resolve_rows(&w, d.seg, d.local_tile, &agg);
        if let Some(sb) = &scatter_base {
            for g0 in (0..mu).step_by(WARP_SIZE) {
                let cnt = (mu - g0).min(WARP_SIZE);
                let sm = low_lanes_mask(cnt);
                let gb = w.gather_cached(
                    out.bases,
                    lanes_from_fn(|l| d.hist_base + g0 + l.min(cnt - 1)),
                    sm,
                );
                sb.st(
                    lanes_from_fn(|l| g0 + l.min(cnt - 1)),
                    lanes_from_fn(|l| {
                        let b = g0 + l.min(cnt - 1);
                        gb[l].wrapping_add(prefix[b]).wrapping_sub(start[b])
                    }),
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
            let base = hist.rank_base(&w, b, mask);
            let slot = lanes_from_fn(|l| padded_index((base[l] + rank_reg[chunk][l]) as usize));
            keys_s.st(slot, key_reg[chunk], mask);
            if let (Some(vr), Some(vs)) = (&val_reg, &values_s) {
                vs.st(slot, vr[chunk], mask);
            }
        }
    }
    blk.sync();

    // Phase 5: coalesced read of the staged tile, written to final
    // positions: the key's bucket, recomputed, picks its scatter base, or
    // a one-tile segment writes its bucket-dense tile at its own range.
    for w in blk.warps() {
        for c in 0..d.ipt {
            let chunk = w.warp_id * d.ipt + c;
            let mask = chunk_mask(chunk);
            if mask == 0 {
                continue;
            }
            let tid = lanes_from_fn(|l| chunk * WARP_SIZE + l);
            let slot = lanes_from_fn(|l| padded_index(tid[l]));
            let k2 = keys_s.ld(slot, mask);
            let dest = match &scatter_base {
                Some(sb) => {
                    let b2 = eval_buckets(&w, bucket, k2, mask);
                    let base = sb.ld(lanes_from_fn(|l| b2[l] as usize), mask);
                    lanes_from_fn(|l| d.offset + base[l].wrapping_add(tid[l] as u32) as usize)
                }
                None => lanes_from_fn(|l| d.offset + tile_start + tid[l]),
            };
            w.scatter(out.keys, dest, k2, mask);
            if let (Some(vs), Some(vout)) = (&values_s, out.values) {
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

    #[test]
    fn footprints_have_their_closed_forms() {
        let (wpb, ipt, vw) = (8usize, 5usize, 1usize);
        let tile = wpb * ipt * WARP_SIZE;
        for m in [1usize, 17, 32, 300] {
            assert_eq!(
                footprint_words(wpb, m, ipt, vw),
                m * (wpb | 1) + m + padded_len(tile) * (1 + vw) + 1 + (wpb + 1),
                "m={m}"
            );
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
        // Key-only tiles at 8 warps reach the cap at any small m.
        assert_eq!(MAX_ITEMS_PER_THREAD, 16);
        for m in [1, 2, 32, 64] {
            assert_eq!(direct(8, m, 0), Some(16), "m={m}");
        }
        // A payload word per key still reaches the cap at 8 warps.
        assert_eq!(direct(8, 32, 4), Some(16));
        assert_eq!(direct(8, 256, 4), Some(16));
        assert_eq!(direct(16, 32, 4), Some(11));
        assert!((1..8).contains(&direct(8, 1024, 4).unwrap()));
        let cap = crate::fused::max_buckets(8, false) as usize;
        assert_eq!(direct(8, cap, 0), Some(1));
        assert_eq!(direct(8, cap + 1, 0), None, "past capacity nothing fits");
    }

    /// The capacity is the direct sweep's footprint at `ipt = 1`: per
    /// bucket a histogram row of `wpb | 1` words and one scatter base, plus
    /// one chunk per warp of staged keys and payloads (no bucket ids).
    #[test]
    fn max_buckets_keeps_its_values() {
        use crate::fused::max_buckets;
        for (wpb, key, kv) in [
            (1, 6126, 6110),
            (2, 3054, 3038),
            (4, 2025, 2003),
            (8, 1201, 1175),
            (16, 652, 623),
            (32, 329, 298),
        ] {
            assert_eq!(max_buckets(wpb, false), key, "wpb={wpb} key");
            assert_eq!(max_buckets(wpb, true), kv, "wpb={wpb} kv");
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

    /// A one-tile run bills the same counted stats, and writes the same
    /// outputs, under all six schedules: sequential, parallel and the four
    /// adversarial flavors.
    #[test]
    fn one_tile_runs_are_schedule_independent() {
        use simt::{AdvFlavor, AdvSchedule};
        let n = 3000;
        let data = keys_for(n, 100);
        let vals: Vec<u32> = (0..n as u32).collect();
        for m in [13u32, 100] {
            for kv in [false, true] {
                let bucket = RangeBuckets::new(m);
                let mut devs = vec![Device::sequential(K40C), Device::new(K40C)];
                devs.extend(
                    AdvFlavor::ALL
                        .map(|f| Device::adversarial(K40C, AdvSchedule::with_flavor(0x0717, f))),
                );
                let runs: Vec<_> = devs
                    .iter()
                    .map(|dev| {
                        let keys = GlobalBuffer::from_slice(&data);
                        let values = GlobalBuffer::from_slice(&vals);
                        let values = kv.then_some(&values);
                        let r = multisplit_device(dev, Method::Fused, &keys, values, n, &bucket, 8);
                        let stats: Vec<_> = dev.records().iter().map(|rec| rec.stats).collect();
                        assert_eq!(stats.len(), 1, "m={m} kv={kv}: one launch");
                        (
                            r.keys.to_vec(),
                            r.values.map(|v| v.to_vec()),
                            r.offsets,
                            stats,
                        )
                    })
                    .collect();
                let (ek, ev, eo) = multisplit_kv_ref(&data, kv.then_some(&vals[..]), &bucket);
                assert_eq!((&runs[0].0, &runs[0].2), (&ek, &eo), "m={m} kv={kv}");
                if kv {
                    assert_eq!(runs[0].1.as_ref(), Some(&ev), "m={m}");
                }
                for run in &runs[1..] {
                    assert_eq!(run, &runs[0], "m={m} kv={kv}: schedule-independent");
                }
            }
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

    /// The key-value sweep at 8 warps: 7 barriers per block (ticket,
    /// histogram, the scan's three, look-back, reorder), whatever the
    /// bucket count, from one bucket to past the warp width.
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
            assert_eq!(sweep.stats.barriers, 7 * sweep.blocks as u64, "m={m}");
        }
    }
}
