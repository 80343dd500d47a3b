//! Global (device DRAM) memory with a coalescing-aware transaction model.
//!
//! Storage is a slice of relaxed atomic words, each as wide as its
//! element on the device ([`Scalar::Word`]: an [`AtomicU32`] per `u32`, an
//! [`AtomicU64`] per 8-byte element). This keeps the simulator data-race
//! free in the Rust sense even when blocks execute on different host
//! threads — exactly mirroring the GPU, where global memory is shared and
//! unordered within a kernel, and any cross-block communication
//! discipline is the kernel's problem, not the hardware's.
//!
//! Kernels access a buffer through [`WarpCtx`](crate::WarpCtx), which
//! owns every counted access; this module holds the storage, the race
//! marks and the access bodies, each billed on a path (DRAM or L2) under
//! a scope (warp or device). On the DRAM path a warp-wide access counts
//! the **distinct 32-byte sectors** its active lanes touch. Modern NVIDIA
//! DRAM moves data in 32 B sectors (four per 128 B cache line), so a fully
//! coalesced warp-wide read of 32 consecutive `u32`s costs 4 sectors,
//! while a fully scattered one costs up to 32 — an 8x difference that is
//! precisely the scatter penalty the paper attacks with its reordering
//! stages.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::lanes::{active_lanes, lane_active, Lanes, WARP_SIZE};
use crate::stats::StatCells;
use crate::stream::{self, CrossEpoch};

/// DRAM sector size in bytes.
pub const SECTOR_BYTES: u64 = 32;

/// Writer identity recorded by the race detector when the access did not
/// come from inside a kernel block (host uploads, unit tests).
const HOST_ACTOR: u32 = u32::MAX;

thread_local! {
    /// Block id the current host thread is executing (set by the grid
    /// executor around each block), used to attribute tracked accesses.
    static CURRENT_BLOCK: Cell<u32> = const { Cell::new(HOST_ACTOR) };
}

/// The block id the current thread is attributed to (`HOST_ACTOR`
/// outside a block), for this module's and [`crate::stream`]'s hazard
/// reports.
pub(crate) fn current_actor() -> u32 {
    CURRENT_BLOCK.with(|c| c.get())
}

fn actor_name(a: u32) -> String {
    if a == HOST_ACTOR {
        "the host".to_string()
    } else {
        format!("block {a}")
    }
}

/// RAII attribution of the current thread to block `b`; restores the
/// previous attribution (normally "host") on drop, including on unwind.
pub(crate) struct BlockAttribution(u32);

impl Drop for BlockAttribution {
    fn drop(&mut self) {
        CURRENT_BLOCK.with(|c| c.set(self.0));
    }
}

pub(crate) fn enter_block(b: usize) -> BlockAttribution {
    BlockAttribution(CURRENT_BLOCK.with(|c| c.replace(b as u32)))
}

/// Epochs are allocated from one process-wide counter — no two kernel
/// launches ever share one — but the checks read them through a
/// thread-local, so a launch running concurrently on another host thread
/// (e.g. another test) cannot shift the epoch out from under a kernel
/// mid-flight.
static EPOCH_SOURCE: AtomicU32 = AtomicU32::new(1);

thread_local! {
    /// Race-detection epoch for accesses on this host thread. The grid
    /// executor pins every worker to the launch's epoch for the duration
    /// of each block; outside a kernel it identifies the host "epoch".
    static CURRENT_EPOCH: Cell<u32> = const { Cell::new(1) };
}

pub(crate) fn current_epoch() -> u32 {
    CURRENT_EPOCH.with(|c| c.get())
}

/// Allocate a never-before-seen epoch id (one per kernel launch).
pub(crate) fn fresh_epoch() -> u32 {
    EPOCH_SOURCE.fetch_add(1, Ordering::Relaxed) + 1
}

/// RAII epoch pin for the current thread; restores the previous epoch on
/// drop, including on unwind.
pub(crate) struct EpochPin(u32);

impl Drop for EpochPin {
    fn drop(&mut self) {
        CURRENT_EPOCH.with(|c| c.set(self.0));
    }
}

pub(crate) fn enter_epoch(epoch: u32) -> EpochPin {
    EpochPin(CURRENT_EPOCH.with(|c| c.replace(epoch)))
}

/// An element type that can live in simulated global memory.
///
/// Each element lives in one host atomic [`Word`](Scalar::Word) as wide as
/// the element on the device; `BYTES` is that width, used for
/// address/sector arithmetic, so a `u32` buffer has the coalescing
/// behaviour (and the host footprint) it has on real hardware.
pub trait Scalar: Copy + Default + Send + Sync + 'static {
    /// Element size on the device, in bytes.
    const BYTES: u64;
    /// The host atomic one element is stored in.
    type Word: Send + Sync;
    fn word(self) -> Self::Word;
    fn load(word: &Self::Word, order: Ordering) -> Self;
    fn store(self, word: &Self::Word, order: Ordering);
}

impl Scalar for u32 {
    const BYTES: u64 = 4;
    type Word = AtomicU32;
    #[inline]
    fn word(self) -> AtomicU32 {
        AtomicU32::new(self)
    }
    #[inline]
    fn load(word: &AtomicU32, order: Ordering) -> Self {
        word.load(order)
    }
    #[inline]
    fn store(self, word: &AtomicU32, order: Ordering) {
        word.store(self, order)
    }
}

impl Scalar for u64 {
    const BYTES: u64 = 8;
    type Word = AtomicU64;
    #[inline]
    fn word(self) -> AtomicU64 {
        AtomicU64::new(self)
    }
    #[inline]
    fn load(word: &AtomicU64, order: Ordering) -> Self {
        word.load(order)
    }
    #[inline]
    fn store(self, word: &AtomicU64, order: Ordering) {
        word.store(self, order)
    }
}

/// A key–value pair moved as one 8-byte element (used by the packed
/// reduced-bit sort path, paper §3.4): the key in the high half.
impl Scalar for (u32, u32) {
    const BYTES: u64 = 8;
    type Word = AtomicU64;
    #[inline]
    fn word(self) -> AtomicU64 {
        AtomicU64::new((self.0 as u64) << 32 | self.1 as u64)
    }
    #[inline]
    fn load(word: &AtomicU64, order: Ordering) -> Self {
        let bits = word.load(order);
        ((bits >> 32) as u32, bits as u32)
    }
    #[inline]
    fn store(self, word: &AtomicU64, order: Ordering) {
        word.store((self.0 as u64) << 32 | self.1 as u64, order)
    }
}

/// A buffer in simulated device global memory.
pub struct GlobalBuffer<T: Scalar> {
    words: Box<[T::Word]>,
    /// The race detector's state, on a [tracked](Self::tracked) buffer.
    marks: Option<Marks>,
    /// Counted sectors attributed to *this* buffer across its lifetime
    /// (warp-scope accesses only). `BlockStats` aggregates sectors per
    /// launch with no per-buffer attribution; claims like "the key buffer
    /// is read once" need the traffic split by buffer instead. Only counted
    /// accesses bump it, so it is schedule-independent.
    sectors: SectorTally,
}

/// The race detector's per-element marks, each `(epoch << 32) | actor`.
struct Marks {
    /// Who last wrote each element, and in which kernel epoch.
    writes: Box<[AtomicU64]>,
    /// The last counted reader of each element inside a
    /// [`crate::Device::concurrent`] session — the versioned-clock side: a
    /// cross-stream write over an unsynchronized read is a hazard too.
    /// Reads outside a session are not recorded, since no later write can
    /// race with them (see [`crate::stream`]), so the marks are allocated
    /// at a buffer's first read inside a session.
    reads: OnceLock<Box<[AtomicU64]>>,
}

fn zeroed_marks(len: usize) -> Box<[AtomicU64]> {
    (0..len).map(|_| AtomicU64::new(0)).collect()
}

impl Marks {
    /// Race-check the active lanes of a warp-scope read request.
    fn check_reads(&self, idx: &Lanes<usize>, mask: u32) {
        stream::with_current(|stream| {
            let mut access = Access::new(stream);
            let reads = access
                .cross
                .is_some()
                .then(|| &self.reads.get_or_init(|| zeroed_marks(self.writes.len()))[..]);
            for lane in active_lanes(mask) {
                access.read(self, reads, idx[lane]);
            }
        })
    }

    /// Race-check the active lanes of a warp-scope write request.
    fn check_writes(&self, idx: &Lanes<usize>, mask: u32) {
        stream::with_current(|stream| {
            let mut access = Access::new(stream);
            for lane in active_lanes(mask) {
                access.write(self, idx[lane]);
            }
        })
    }
}

/// Shards of [`SectorTally`]: host threads bump their own shard, so the
/// workers of one launch do not contend on one counter.
const TALLY_SHARDS: usize = 8;

static NEXT_TALLY_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The [`SectorTally`] shard this host thread bumps.
    static TALLY_SHARD: usize = NEXT_TALLY_SHARD.fetch_add(1, Ordering::Relaxed) % TALLY_SHARDS;
}

/// A buffer's counted read and write sectors, summed over shards on read.
#[derive(Default)]
struct SectorTally([TallyShard; TALLY_SHARDS]);

/// One cache line per shard: `[read sectors, write sectors]`.
#[derive(Default)]
#[repr(align(64))]
struct TallyShard([AtomicU64; 2]);

impl SectorTally {
    fn add(&self, write: bool, sectors: u64) {
        let shard = TALLY_SHARD.with(|s| *s);
        self.0[shard].0[write as usize].fetch_add(sectors, Ordering::Relaxed);
    }

    fn total(&self, write: bool) -> u64 {
        let counters = self.0.iter().map(|s| &s.0[write as usize]);
        counters.map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

/// The race-check context of one tracked warp request: who is accessing,
/// read once per request.
struct Access<'s> {
    epoch: u32,
    /// This access's mark, `(epoch << 32) | actor`.
    mark: u64,
    /// The versioned-clock check, inside a [`crate::Device::concurrent`]
    /// session only: outside one every cross-epoch access is ordered.
    cross: Option<CrossEpoch<'s>>,
}

impl<'s> Access<'s> {
    fn new(stream: Option<&'s stream::StreamState>) -> Self {
        let epoch = current_epoch();
        Self {
            epoch,
            mark: (epoch as u64) << 32 | current_actor() as u64,
            cross: stream.map(CrossEpoch::new),
        }
    }

    /// Write-side check of element `idx`: within one epoch each element
    /// may be written at most once, and inside a session a write must not
    /// overlap another stream's write or read.
    fn write(&mut self, marks: &Marks, idx: usize) {
        let prev = marks.writes[idx].swap(self.mark, Ordering::Relaxed);
        let prev_epoch = (prev >> 32) as u32;
        assert_ne!(
            prev_epoch, self.epoch,
            "race detector: element {idx} written twice within one kernel epoch"
        );
        let Some(cross) = &mut self.cross else {
            return;
        };
        // Versioned-clock side: a write in a *different* epoch is ordered
        // unless that epoch is another stream's in the same running
        // session.
        if prev_epoch != 0 {
            cross.check(prev, idx, "write", "write");
        }
        if let Some(reads) = marks.reads.get() {
            let rm = reads[idx].load(Ordering::Relaxed);
            let rm_epoch = (rm >> 32) as u32;
            if rm_epoch != 0 && rm_epoch != self.epoch {
                cross.check(rm, idx, "read", "write");
            }
        }
    }

    /// Read-side check of element `idx` for *counted* gathers: an element
    /// written this epoch by a different block has no happens-before edge
    /// to this read (plain loads/stores are unordered across blocks within
    /// a kernel), so observing it is a hazard even if the simulator
    /// happened to deliver the value. Reads of the writer's own data are
    /// fine (program order), and `device_*` ops skip this by design — they
    /// *are* the cross-block ordering discipline. Inside a session the
    /// read is recorded in `reads` (that buffer's read marks).
    fn read(&mut self, marks: &Marks, reads: Option<&[AtomicU64]>, idx: usize) {
        let mark = marks.writes[idx].load(Ordering::Relaxed);
        let mark_epoch = (mark >> 32) as u32;
        if mark_epoch == self.epoch {
            let writer = mark as u32;
            let reader = self.mark as u32;
            assert_eq!(
                writer,
                reader,
                "race detector: read-write hazard on element {idx}: read by {} but \
                 written by {} within the same kernel epoch (cross-block data must \
                 flow through device-scope ops or a new epoch)",
                actor_name(reader),
                actor_name(writer)
            );
        } else if mark_epoch != 0 {
            // Versioned-clock side: reading the write of another stream of
            // the same session is a hazard.
            if let Some(cross) = &mut self.cross {
                cross.check(mark, idx, "write", "read");
            }
        }
        if let Some(reads) = reads {
            reads[idx].store(self.mark, Ordering::Relaxed);
        }
    }
}

impl<T: Scalar> GlobalBuffer<T> {
    /// Allocate and upload `data`.
    pub fn from_slice(data: &[T]) -> Self {
        Self::from_words(data.iter().map(|v| v.word()).collect())
    }

    /// Allocate `len` default-initialized elements.
    pub fn zeroed(len: usize) -> Self {
        Self::from_words((0..len).map(|_| T::default().word()).collect())
    }

    fn from_words(words: Box<[T::Word]>) -> Self {
        Self {
            words,
            marks: None,
            sectors: SectorTally::default(),
        }
    }

    /// Enable the race detector: within one *epoch* (kernel launch) each
    /// element may be written at most once, and a counted read of an
    /// element written in the same epoch by a *different block* is a
    /// read-write hazard (cross-block ordering only exists through the
    /// `device_*` ops, which this detector deliberately skips). Violations
    /// panic with the offending index and the blocks involved. Used by
    /// tests to prove scatter disjointness and single-epoch data flow.
    pub fn tracked(mut self) -> Self {
        self.marks = Some(Marks {
            writes: zeroed_marks(self.words.len()),
            reads: OnceLock::new(),
        });
        self
    }

    pub fn len(&self) -> usize {
        self.words.len()
    }

    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Download the buffer to the host.
    pub fn to_vec(&self) -> Vec<T> {
        self.words
            .iter()
            .map(|w| T::load(w, Ordering::Relaxed))
            .collect()
    }

    /// Total 32 B sectors billed to counted warp-scope *reads* of this
    /// buffer (`gather` + `gather_cached`) since allocation. Device-scope
    /// ops, atomics and host access are excluded: they are the
    /// communication / inspection channels, not the bulk data stream this
    /// attributes.
    pub fn read_sectors(&self) -> u64 {
        self.sectors.total(false)
    }

    /// Total 32 B sectors billed to counted warp-scope *writes* into this
    /// buffer (`scatter` + `scatter_merged`) since allocation, with the
    /// exclusions of [`read_sectors`](Self::read_sectors).
    pub fn write_sectors(&self) -> u64 {
        self.sectors.total(true)
    }

    /// Host-side single element read (no transaction accounting).
    pub fn get(&self, idx: usize) -> T {
        T::load(&self.words[idx], Ordering::Relaxed)
    }

    /// Host-side single element write (no transaction accounting).
    pub fn set(&self, idx: usize, v: T) {
        v.store(&self.words[idx], Ordering::Relaxed);
    }

    /// Overwrite the whole buffer from the host.
    pub fn upload(&self, data: &[T]) {
        assert_eq!(data.len(), self.len(), "upload length mismatch");
        for (w, v) in self.words.iter().zip(data) {
            v.store(w, Ordering::Relaxed);
        }
    }

    /// The body of every counted load: active lanes read `idx[lane]`.
    pub(crate) fn read(
        &self,
        stats: &StatCells,
        path: Path,
        scope: Scope,
        idx: Lanes<usize>,
        mask: u32,
    ) -> Lanes<T> {
        let order = scope.enter();
        if let (Some(marks), Scope::Warp) = (&self.marks, scope) {
            marks.check_reads(&idx, mask);
        }
        let mut out = [T::default(); WARP_SIZE];
        for lane in active_lanes(mask) {
            out[lane] = T::load(&self.words[idx[lane]], order);
        }
        let sectors = path.bill::<T>(stats, &idx, mask);
        if scope == Scope::Warp {
            self.sectors.add(false, sectors);
        }
        out
    }

    /// The body of every counted store: active lanes write `val[lane]` to
    /// `idx[lane]`.
    pub(crate) fn write(
        &self,
        stats: &StatCells,
        path: Path,
        scope: Scope,
        idx: Lanes<usize>,
        val: Lanes<T>,
        mask: u32,
    ) {
        let order = scope.enter();
        if let (Some(marks), Scope::Warp) = (&self.marks, scope) {
            marks.check_writes(&idx, mask);
        }
        for lane in active_lanes(mask) {
            val[lane].store(&self.words[idx[lane]], order);
        }
        let sectors = path.bill::<T>(stats, &idx, mask);
        if scope == Scope::Warp {
            self.sectors.add(true, sectors);
        }
    }

    /// Single-lane device-scope read with **no accounting** — the spin-poll
    /// path. A poll that misses re-reads a line the SM already owns, so it
    /// is modeled as L2-resident and free; that also keeps stats
    /// schedule-independent, since retry counts depend on thread
    /// interleaving. Charge the one *successful* read with a one-lane
    /// `device_gather` after the poll succeeds. Also not an adversarial
    /// yield point on its own: spin loops mark themselves as *waiting* via
    /// [`crate::sched::spin_yield`] instead, which is what lets the
    /// straggler policy see "every other block is stuck polling".
    pub fn device_peek(&self, idx: usize) -> T {
        T::load(&self.words[idx], Ordering::SeqCst)
    }
}

impl GlobalBuffer<u32> {
    /// The body of every counted atomic: active lanes apply `rmw` with
    /// `val[lane]` to `idx[lane]` and get the previous values, in 32-bit
    /// arithmetic as on the device (an add wraps at 2^32). Counts one
    /// atomic op per active lane and one conflict per lane whose address an
    /// earlier lane hit (they serialize on real hardware). Atomics commute,
    /// so neither scope race-checks them.
    #[allow(clippy::too_many_arguments)] // path and scope ride with every access
    pub(crate) fn atomic(
        &self,
        stats: &StatCells,
        path: Path,
        scope: Scope,
        idx: Lanes<usize>,
        val: Lanes<u32>,
        mask: u32,
        rmw: impl Fn(&AtomicU32, u32, Ordering) -> u32,
    ) -> Lanes<u32> {
        let order = scope.enter();
        let mut out = [0u32; WARP_SIZE];
        let mut conflicts = 0u64;
        let mut seen = [0usize; WARP_SIZE];
        let mut n = 0usize;
        for lane in active_lanes(mask) {
            out[lane] = rmw(&self.words[idx[lane]], val[lane], order);
            if seen[..n].contains(&idx[lane]) {
                conflicts += 1;
            } else {
                seen[n] = idx[lane];
                n += 1;
            }
        }
        path.bill::<u32>(stats, &idx, mask);
        StatCells::bump(&stats.atomic_ops, mask.count_ones() as u64);
        StatCells::bump(&stats.atomic_conflicts, conflicts);
        out
    }
}

/// How a counted request is billed. Warp-scope reads and writes also
/// bill the buffer's own `read_sectors`/`write_sectors`.
#[derive(Clone, Copy)]
pub(crate) enum Path {
    /// The bulk data stream: distinct 32 B sectors plus LSU replays.
    Dram,
    /// Useful bytes rounded up to whole sectors per request: small reused
    /// tables that stay L2-resident, strided histogram stores the
    /// write-back L2 merges, and the hot device-scope state words. Billing
    /// full sectors per access would charge their one DRAM trip many times
    /// over. Never for the final data scatter, whose whole cost *is* the
    /// unmerged waste.
    L2,
}

impl Path {
    /// Bill one request (sectors, useful bytes, the request, a lane op per
    /// active lane) and return its sectors; an empty mask is free.
    fn bill<T: Scalar>(self, stats: &StatCells, idx: &Lanes<usize>, mask: u32) -> u64 {
        if mask == 0 {
            return 0;
        }
        let active = mask.count_ones() as u64;
        let sectors = match self {
            Path::Dram => {
                let (sectors, passes) = dram_cost::<T>(idx, mask);
                StatCells::bump(&stats.replays, passes - 1);
                sectors
            }
            Path::L2 => (active * T::BYTES).div_ceil(SECTOR_BYTES),
        };
        StatCells::bump(&stats.sectors, sectors);
        StatCells::bump(&stats.useful_bytes, active * T::BYTES);
        StatCells::bump(&stats.global_requests, 1);
        StatCells::bump(&stats.lane_ops, active);
        sectors
    }
}

/// The sector holding element `i`. An element may straddle two sectors
/// only if misaligned; our 4/8-byte elements never do.
#[inline]
fn sector_of<T: Scalar>(i: usize) -> u64 {
    i as u64 * T::BYTES / SECTOR_BYTES
}

/// `(distinct sectors, LSU passes)` of a non-empty DRAM request.
///
/// The load/store unit issues one pass per maximal run of consecutive
/// lanes accessing consecutive addresses, so a request whose lanes are
/// shuffled across buckets replays many times even when its address *set*
/// is compact — the cost the paper's shared-memory reordering eliminates.
/// A contiguous request — one run of active lanes at consecutive
/// addresses — is one pass, and its sectors follow by arithmetic.
fn dram_cost<T: Scalar>(idx: &Lanes<usize>, mask: u32) -> (u64, u64) {
    let first = mask.trailing_zeros() as usize;
    let run = mask.count_ones() as usize;
    let last = first + run - 1;
    let contiguous = u64::from(mask >> first) == u64::MAX >> (64 - run)
        && (first..=last).all(|lane| idx[lane] == idx[first].wrapping_add(lane - first));
    if contiguous {
        let sectors = sector_of::<T>(idx[last]) - sector_of::<T>(idx[first]) + 1;
        return (sectors, 1);
    }
    dram_cost_by_lanes::<T>(idx, mask)
}

/// [`dram_cost`] of any request, lane by lane: each sector is compared
/// with the distinct ones seen so far.
#[allow(clippy::needless_range_loop)] // lane-indexed loops are the warp idiom
fn dram_cost_by_lanes<T: Scalar>(idx: &Lanes<usize>, mask: u32) -> (u64, u64) {
    let mut seen = [0u64; WARP_SIZE];
    let mut n = 0usize;
    let mut passes = 0u64;
    let mut prev: Option<usize> = None;
    for lane in 0..WARP_SIZE {
        if lane_active(mask, lane) {
            let s = sector_of::<T>(idx[lane]);
            if !seen[..n].contains(&s) {
                seen[n] = s;
                n += 1;
            }
            if prev != Some(idx[lane].wrapping_sub(1)) {
                passes += 1;
            }
            prev = Some(idx[lane]);
        } else {
            prev = None;
        }
    }
    (n as u64, passes)
}

/// Ordering and race checking of a counted access.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scope {
    /// Plain warp access: `Relaxed`, race-checked on a
    /// [tracked](GlobalBuffer::tracked) buffer.
    Warp,
    /// Cross-block communication within a kernel (`ld.global.acq` /
    /// `st.global.rel` on hardware): an adversarial yield point, then
    /// `SeqCst`. Not race-checked: it *is* the ordering discipline, and
    /// state words are written twice per epoch by design.
    Device,
}

impl Scope {
    /// Yield if this is a device-scope access, and return its ordering.
    fn enter(self) -> Ordering {
        match self {
            Scope::Warp => Ordering::Relaxed,
            Scope::Device => {
                crate::sched::yield_op();
                Ordering::SeqCst
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::needless_range_loop)] // lane-indexed loops are the warp idiom
    use super::*;
    use crate::lanes::{lanes_from_fn, splat, FULL_MASK};
    use crate::profile::K40C;
    use crate::warp::WarpCtx;

    /// Start a new race-detection epoch on this thread, as a kernel
    /// launch boundary would.
    fn next_epoch() {
        CURRENT_EPOCH.with(|c| c.set(fresh_epoch()));
    }

    fn cells() -> StatCells {
        StatCells::default()
    }

    fn warp(st: &StatCells) -> WarpCtx<'_> {
        WarpCtx::new(0, 0, st)
    }

    fn roundtrip<T: Scalar>(v: T) -> T {
        let word = v.word();
        T::default().store(&word, Ordering::Relaxed);
        v.store(&word, Ordering::Relaxed);
        T::load(&word, Ordering::Relaxed)
    }

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(roundtrip(12345u32), 12345);
        assert_eq!(roundtrip(u64::MAX), u64::MAX);
        assert_eq!(roundtrip((0xDEAD, 0xBEEF)), (0xDEAD, 0xBEEF));
        assert_eq!(std::mem::size_of::<<u32 as Scalar>::Word>(), 4);
    }

    #[test]
    fn coalesced_u32_read_costs_four_sectors() {
        let buf = GlobalBuffer::from_slice(&(0..64u32).collect::<Vec<_>>());
        let st = cells();
        let got = warp(&st).gather(&buf, lanes_from_fn(|i| i), FULL_MASK);
        assert_eq!(got[31], 31);
        let s = st.snapshot();
        // 32 consecutive u32 = 128 bytes = 4 sectors of 32 B.
        assert_eq!(s.sectors, 4);
        assert_eq!(s.useful_bytes, 128);
        assert_eq!(s.global_requests, 1);
    }

    #[test]
    fn strided_read_touches_every_sector() {
        let buf = GlobalBuffer::<u32>::zeroed(32 * 8);
        let st = cells();
        warp(&st).gather(&buf, lanes_from_fn(|i| i * 8), FULL_MASK);
        // stride 8 u32 = 32 bytes: each lane in its own sector.
        assert_eq!(st.snapshot().sectors, 32);
    }

    #[test]
    fn u64_coalesced_read_costs_eight_sectors() {
        let buf = GlobalBuffer::<u64>::zeroed(32);
        let st = cells();
        warp(&st).gather(&buf, lanes_from_fn(|i| i), FULL_MASK);
        assert_eq!(st.snapshot().sectors, 8);
        assert_eq!(st.snapshot().useful_bytes, 256);
    }

    #[test]
    fn partial_mask_counts_only_active_lanes() {
        let buf = GlobalBuffer::<u32>::zeroed(32);
        let st = cells();
        warp(&st).gather(&buf, lanes_from_fn(|i| i), 0x0000_00FF);
        let s = st.snapshot();
        assert_eq!(s.useful_bytes, 8 * 4);
        assert_eq!(s.sectors, 1);
    }

    #[test]
    fn empty_mask_is_free() {
        let buf = GlobalBuffer::<u32>::zeroed(32);
        let st = cells();
        warp(&st).gather(&buf, splat(0), 0);
        assert_eq!(st.snapshot(), Default::default());
    }

    #[test]
    fn scatter_roundtrip() {
        let buf = GlobalBuffer::<u32>::zeroed(32);
        let st = cells();
        warp(&st).scatter(
            &buf,
            lanes_from_fn(|i| 31 - i),
            lanes_from_fn(|i| i as u32),
            FULL_MASK,
        );
        let v = buf.to_vec();
        for i in 0..32 {
            assert_eq!(v[i], 31 - i as u32);
        }
        assert_eq!(buf.write_sectors(), 4, "the buffer's own write sectors");
        assert_eq!(buf.read_sectors(), 0);
    }

    #[test]
    fn race_detector_accepts_disjoint_writes() {
        let buf = GlobalBuffer::<u32>::zeroed(64).tracked();
        let st = cells();
        let w = warp(&st);
        w.scatter(&buf, lanes_from_fn(|i| i), splat(1), FULL_MASK);
        w.scatter(&buf, lanes_from_fn(|i| 32 + i), splat(2), FULL_MASK);
        next_epoch();
        // Same cells again are fine in a new epoch.
        w.scatter(&buf, lanes_from_fn(|i| i), splat(3), FULL_MASK);
    }

    #[test]
    #[should_panic(expected = "race detector")]
    fn race_detector_catches_double_write() {
        let buf = GlobalBuffer::<u32>::zeroed(64).tracked();
        let st = cells();
        let w = warp(&st);
        w.scatter(&buf, lanes_from_fn(|i| i), splat(1), FULL_MASK);
        w.scatter(&buf, lanes_from_fn(|i| i), splat(2), FULL_MASK);
    }

    #[test]
    #[should_panic(expected = "read-write hazard")]
    fn race_detector_catches_cross_block_read_after_write() {
        let buf = GlobalBuffer::<u32>::zeroed(64).tracked();
        let st = cells();
        let w = warp(&st);
        {
            let _w = enter_block(0);
            w.scatter(&buf, lanes_from_fn(|i| i), splat(1), FULL_MASK);
        }
        // A different block reading block 0's same-epoch writes has no
        // happens-before edge to them: hazard.
        let _r = enter_block(1);
        w.gather(&buf, lanes_from_fn(|i| i), FULL_MASK);
    }

    #[test]
    #[should_panic(expected = "read-write hazard")]
    fn race_detector_catches_cross_block_cached_read_after_write() {
        let buf = GlobalBuffer::<u32>::zeroed(64).tracked();
        let st = cells();
        let w = warp(&st);
        {
            let _w = enter_block(3);
            w.scatter_merged(&buf, lanes_from_fn(|i| i), splat(1), FULL_MASK);
        }
        let _r = enter_block(4);
        w.gather_cached(&buf, lanes_from_fn(|i| i), FULL_MASK);
    }

    #[test]
    fn race_detector_allows_same_block_and_new_epoch_reads() {
        let buf = GlobalBuffer::<u32>::zeroed(64).tracked();
        let st = cells();
        let w = warp(&st);
        {
            // A block re-reading its own writes is program-ordered: fine.
            let _b = enter_block(0);
            w.scatter(&buf, lanes_from_fn(|i| i), splat(7), FULL_MASK);
            let got = w.gather(&buf, lanes_from_fn(|i| i), FULL_MASK);
            assert_eq!(got[5], 7);
        }
        // After an epoch bump (kernel boundary) any block may read.
        next_epoch();
        let _r = enter_block(9);
        let got = w.gather(&buf, lanes_from_fn(|i| i), FULL_MASK);
        assert_eq!(got[31], 7);
    }

    #[test]
    fn race_detector_ignores_untracked_and_inactive_lanes() {
        // Untracked buffers never check; tracked gathers only check active
        // lanes, and host-context reads of host writes are self-reads.
        let plain = GlobalBuffer::<u32>::zeroed(32);
        let st = cells();
        let w = warp(&st);
        w.scatter(&plain, lanes_from_fn(|i| i), splat(1), FULL_MASK);
        w.gather(&plain, lanes_from_fn(|i| i), FULL_MASK);
        let tracked = GlobalBuffer::<u32>::zeroed(32).tracked();
        {
            let _w = enter_block(0);
            w.scatter(&tracked, lanes_from_fn(|i| i), splat(2), 0x0000_FFFF);
        }
        let _r = enter_block(1);
        // Only the upper 16 lanes read — none written this epoch.
        w.gather(&tracked, lanes_from_fn(|i| i), 0xFFFF_0000);
    }

    #[test]
    fn atomic_add_counts_conflicts() {
        // Even lanes hit element 0 and odd lanes element 32, two sectors
        // apart: 15 conflicts each. Lanes apply in lane order.
        let idx = lanes_from_fn(|l| l % 2 * 32);
        let rows = [
            // (op, initial value, previous values, stored at 0 and 32)
            ("add", 0, lanes_from_fn(|l| l as u32 / 2), [16, 16]),
            (
                "min",
                100,
                lanes_from_fn(|l| if l < 2 { 100 } else { 52 - l as u32 }),
                [20, 19],
            ),
        ];
        for (op, init, want_prev, want_stored) in rows {
            let buf = GlobalBuffer::from_slice(&[init; 64]);
            let st = cells();
            let w = warp(&st);
            let prev = match op {
                "add" => w.atomic_add(&buf, idx, splat(1), FULL_MASK),
                _ => w.atomic_min(&buf, idx, lanes_from_fn(|l| 50 - l as u32), FULL_MASK),
            };
            assert_eq!(prev, want_prev, "{op}: previous values");
            assert_eq!([buf.get(0), buf.get(32)], want_stored, "{op}: stored");
            let s = st.snapshot();
            assert_eq!(s.sectors, 2, "{op}: sectors");
            assert_eq!(s.atomic_ops, 32, "{op}: atomic ops");
            assert_eq!(s.atomic_conflicts, 30, "{op}: conflicts");
        }
    }

    /// `u32` atomics are 32-bit operations, as on the device: an add past
    /// `u32::MAX` wraps, a later min compares the wrapped `u32`, and
    /// device tickets count on through the wrap.
    #[test]
    fn u32_atomics_work_at_device_width() {
        let buf = GlobalBuffer::from_slice(&[u32::MAX - 1, 0]);
        let st = cells();
        let w = warp(&st);
        let prev = w.atomic_add(&buf, splat(0), splat(1), 0b111);
        assert_eq!(prev[..3], [u32::MAX - 1, u32::MAX, 0]);
        assert_eq!(buf.get(0), 1, "the add wraps");
        // A 64-bit word would hold 2^32 + 1 here, and min would store 5.
        let prev = w.atomic_min(&buf, splat(0), splat(5), 1);
        assert_eq!((prev[0], buf.get(0)), (1, 1), "min compares as u32");
        let tickets: Vec<u32> = (0..3).map(|_| w.device_fetch_add(&buf, 1, 1)).collect();
        assert_eq!(tickets, [0, 1, 2]);
        buf.set(1, u32::MAX);
        let tickets: Vec<u32> = (0..2).map(|_| w.device_fetch_add(&buf, 1, 1)).collect();
        assert_eq!(tickets, [u32::MAX, 0]);
    }

    /// The contiguous-request path prices every request exactly as the
    /// lane-by-lane walk does.
    #[test]
    fn contiguous_dram_cost_matches_the_lane_walk() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for case in 0..6000 {
            let base = (next() % 200) as usize;
            let mut idx = lanes_from_fn(|l| base + l);
            // Mostly contiguous runs; some with one lane displaced.
            if case % 4 == 3 {
                idx[(next() % 32) as usize] = (next() % 300) as usize;
            }
            let mask = match case % 3 {
                0 => FULL_MASK,
                1 => {
                    let (lo, len) = ((next() % 32) as u32, 1 + next() % 32);
                    ((u64::MAX >> (64 - len)) << lo) as u32
                }
                _ => next() as u32,
            };
            if mask == 0 {
                continue;
            }
            assert_eq!(
                dram_cost::<u32>(&idx, mask),
                dram_cost_by_lanes::<u32>(&idx, mask),
                "u32 {idx:?} mask {mask:#x}"
            );
            assert_eq!(
                dram_cost::<u64>(&idx, mask),
                dram_cost_by_lanes::<u64>(&idx, mask),
                "u64 {idx:?} mask {mask:#x}"
            );
        }
    }

    /// The per-buffer sector tallies are exact whichever host threads
    /// bill them: a coalesced copy of n `u32`s reads and writes n / 8
    /// sectors.
    #[test]
    fn buffer_sector_tallies_are_exact_on_every_executor() {
        let n = 1 << 14;
        for dev in [crate::Device::new(K40C), crate::Device::sequential(K40C)] {
            let src = GlobalBuffer::from_slice(&(0..n as u32).collect::<Vec<_>>());
            let dst = GlobalBuffer::<u32>::zeroed(n).tracked();
            dev.launch("copy", n / 64, 2, |blk| {
                for w in blk.warps() {
                    let idx = lanes_from_fn(|l| w.global_warp_id * 32 + l);
                    let v = w.gather(&src, idx, FULL_MASK);
                    w.scatter(&dst, idx, v, FULL_MASK);
                }
            });
            assert_eq!(dst.to_vec(), src.to_vec());
            assert_eq!(src.read_sectors(), n as u64 / 8);
            assert_eq!(dst.write_sectors(), n as u64 / 8);
            assert_eq!((src.write_sectors(), dst.read_sectors()), (0, 0));
        }
    }

    #[test]
    fn device_ops_account_one_sector_each() {
        let buf = GlobalBuffer::<u64>::zeroed(4);
        let st = cells();
        let w = warp(&st);
        w.device_scatter(&buf, splat(2), splat(77), 1);
        assert_eq!(w.device_gather(&buf, splat(2), 1)[0], 77);
        assert_eq!(buf.device_peek(2), 77, "peek sees the value");
        let s = st.snapshot();
        assert_eq!(s.sectors, 2, "set + get; peek is free");
        assert_eq!(s.useful_bytes, 16);
        assert_eq!(s.global_requests, 2);
    }

    #[test]
    fn device_vector_ops_bill_rounded_bytes() {
        // A 32-row u64 state record is 256 bytes = 8 sectors each way, and
        // the scatter must not trip the race detector even when the same
        // words are re-published within one epoch (aggregate → inclusive).
        let buf = GlobalBuffer::<u64>::zeroed(32).tracked();
        let st = cells();
        let w = warp(&st);
        let idx = lanes_from_fn(|i| i);
        w.device_scatter(&buf, idx, lanes_from_fn(|i| i as u64), FULL_MASK);
        w.device_scatter(&buf, idx, lanes_from_fn(|i| 100 + i as u64), FULL_MASK);
        let got = w.device_gather(&buf, idx, FULL_MASK);
        assert_eq!(got[31], 131);
        let s = st.snapshot();
        assert_eq!(s.sectors, 24, "3 requests x 8 sectors");
        assert_eq!(s.useful_bytes, 3 * 256);
        assert_eq!(s.global_requests, 3);
        // A single-lane record costs one sector.
        let st = cells();
        let w = warp(&st);
        w.device_scatter(&buf, idx, splat(7), 1);
        w.device_gather(&buf, idx, 1);
        assert_eq!(st.snapshot().sectors, 2);
        // An empty mask is free.
        w.device_gather(&buf, idx, 0);
        assert_eq!(st.snapshot().global_requests, 2);
    }

    #[test]
    fn device_fetch_add_is_a_ticket_counter() {
        let buf = GlobalBuffer::<u32>::zeroed(1);
        let st = cells();
        let w = warp(&st);
        let t0 = w.device_fetch_add(&buf, 0, 1);
        let t1 = w.device_fetch_add(&buf, 0, 1);
        assert_eq!((t0, t1), (0, 1));
        assert_eq!(buf.get(0), 2);
        let s = st.snapshot();
        assert_eq!(s.atomic_ops, 2);
        assert_eq!(s.sectors, 2);
    }

    #[test]
    fn upload_and_to_vec() {
        let buf = GlobalBuffer::<u32>::zeroed(4);
        buf.upload(&[9, 8, 7, 6]);
        assert_eq!(buf.to_vec(), vec![9, 8, 7, 6]);
        buf.set(2, 42);
        assert_eq!(buf.get(2), 42);
    }
}
