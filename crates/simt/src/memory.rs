//! Global (device DRAM) memory with a coalescing-aware transaction model.
//!
//! Storage is a slice of relaxed [`AtomicU64`] words, one per logical
//! element. This keeps the simulator data-race free in the Rust sense even
//! when blocks execute on different host threads — exactly mirroring the
//! GPU, where global memory is shared and unordered within a kernel, and
//! any cross-block communication discipline is the kernel's problem, not
//! the hardware's.
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
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::lanes::{active_lanes, lane_active, Lanes, WARP_SIZE};
use crate::stats::StatCells;

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
/// Each element occupies one 64-bit storage word; `BYTES` is the *logical*
/// size used for address/sector arithmetic, so a `u32` buffer has the same
/// coalescing behaviour as on real hardware even though the host shadow
/// storage is wider.
pub trait Scalar: Copy + Default + Send + Sync + 'static {
    /// Logical element size on the device, in bytes.
    const BYTES: u64;
    fn to_bits(self) -> u64;
    fn from_bits(bits: u64) -> Self;
}

impl Scalar for u32 {
    const BYTES: u64 = 4;
    #[inline]
    fn to_bits(self) -> u64 {
        self as u64
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        bits as u32
    }
}

impl Scalar for u64 {
    const BYTES: u64 = 8;
    #[inline]
    fn to_bits(self) -> u64 {
        self
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        bits
    }
}

/// A key–value pair moved as one 8-byte element (used by the packed
/// reduced-bit sort path, paper §3.4).
impl Scalar for (u32, u32) {
    const BYTES: u64 = 8;
    #[inline]
    fn to_bits(self) -> u64 {
        (self.0 as u64) << 32 | self.1 as u64
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        ((bits >> 32) as u32, bits as u32)
    }
}

/// A buffer in simulated device global memory.
pub struct GlobalBuffer<T: Scalar> {
    words: Box<[AtomicU64]>,
    /// Per-element race-detector write marks: `(epoch << 32) | writer_block`,
    /// recording who last wrote each element and in which kernel epoch.
    marks: Option<Box<[AtomicU64]>>,
    /// Per-element race-detector read marks (same layout), recording the
    /// last *counted* reader — the TL2-style versioned-clock side: a
    /// cross-stream write over an unsynchronized read is a hazard too.
    read_marks: Option<Box<[AtomicU64]>>,
    /// Counted read sectors attributed to *this* buffer across its lifetime
    /// (warp-scope reads only). `BlockStats` aggregates sectors per launch
    /// with no per-buffer attribution; claims like "the key buffer is read
    /// once" need the traffic split by buffer instead. Only counted reads
    /// bump it, so it is schedule-independent.
    read_sectors: AtomicU64,
    /// Counted write sectors of warp-scope writes into this buffer: the
    /// write side of `read_sectors`.
    write_sectors: AtomicU64,
    _elem: std::marker::PhantomData<T>,
}

impl<T: Scalar> GlobalBuffer<T> {
    /// Allocate and upload `data`.
    pub fn from_slice(data: &[T]) -> Self {
        Self {
            words: data.iter().map(|v| AtomicU64::new(v.to_bits())).collect(),
            marks: None,
            read_marks: None,
            read_sectors: AtomicU64::new(0),
            write_sectors: AtomicU64::new(0),
            _elem: std::marker::PhantomData,
        }
    }

    /// Allocate `len` default-initialized elements.
    pub fn zeroed(len: usize) -> Self {
        Self::from_slice(&vec![T::default(); len])
    }

    /// Enable the race detector: within one *epoch* (kernel launch) each
    /// element may be written at most once, and a counted read of an
    /// element written in the same epoch by a *different block* is a
    /// read-write hazard (cross-block ordering only exists through the
    /// `device_*` ops, which this detector deliberately skips). Violations
    /// panic with the offending index and the blocks involved. Used by
    /// tests to prove scatter disjointness and single-epoch data flow.
    pub fn tracked(mut self) -> Self {
        self.marks = Some((0..self.words.len()).map(|_| AtomicU64::new(0)).collect());
        self.read_marks = Some((0..self.words.len()).map(|_| AtomicU64::new(0)).collect());
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
            .map(|w| T::from_bits(w.load(Ordering::Relaxed)))
            .collect()
    }

    /// Total 32 B sectors billed to counted warp-scope *reads* of this
    /// buffer (`gather` + `gather_cached`) since allocation. Device-scope
    /// ops, atomics and host access are excluded: they are the
    /// communication / inspection channels, not the bulk data stream this
    /// attributes.
    pub fn read_sectors(&self) -> u64 {
        self.read_sectors.load(Ordering::Relaxed)
    }

    /// Total 32 B sectors billed to counted warp-scope *writes* into this
    /// buffer (`scatter` + `scatter_merged`) since allocation, with the
    /// exclusions of [`read_sectors`](Self::read_sectors).
    pub fn write_sectors(&self) -> u64 {
        self.write_sectors.load(Ordering::Relaxed)
    }

    /// Host-side single element read (no transaction accounting).
    pub fn get(&self, idx: usize) -> T {
        T::from_bits(self.words[idx].load(Ordering::Relaxed))
    }

    /// Host-side single element write (no transaction accounting).
    pub fn set(&self, idx: usize, v: T) {
        self.words[idx].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Overwrite the whole buffer from the host.
    pub fn upload(&self, data: &[T]) {
        assert_eq!(data.len(), self.len(), "upload length mismatch");
        for (w, v) in self.words.iter().zip(data) {
            w.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    fn check_write_mark(&self, idx: usize) {
        if let Some(marks) = &self.marks {
            let epoch = current_epoch();
            let mark = (epoch as u64) << 32 | current_actor() as u64;
            let prev = marks[idx].swap(mark, Ordering::Relaxed);
            let prev_epoch = (prev >> 32) as u32;
            assert_ne!(
                prev_epoch, epoch,
                "race detector: element {idx} written twice within one kernel epoch"
            );
            // Versioned-clock side: a write in a *different* epoch is
            // ordered unless that epoch is another stream's in the same
            // running session (see crate::stream).
            if prev_epoch != 0 {
                crate::stream::check_cross_epoch(prev_epoch, prev as u32, idx, "write", "write");
            }
            if let Some(reads) = &self.read_marks {
                let rm = reads[idx].load(Ordering::Relaxed);
                let rm_epoch = (rm >> 32) as u32;
                if rm_epoch != 0 && rm_epoch != epoch {
                    crate::stream::check_cross_epoch(rm_epoch, rm as u32, idx, "read", "write");
                }
            }
        }
    }

    /// Read-side race check for *counted* gathers: an element written this
    /// epoch by a different block has no happens-before edge to this read
    /// (plain loads/stores are unordered across blocks within a kernel), so
    /// observing it is a hazard even if the simulator happened to deliver
    /// the value. Reads of the writer's own data are fine (program order),
    /// and `device_*` ops skip this by design — they *are* the cross-block
    /// ordering discipline.
    fn check_read_mark(&self, idx: usize) {
        if let Some(marks) = &self.marks {
            let epoch = current_epoch();
            let mark = marks[idx].load(Ordering::Relaxed);
            let mark_epoch = (mark >> 32) as u32;
            if mark_epoch == epoch {
                let writer = mark as u32;
                let reader = current_actor();
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
                // Versioned-clock side: reading the write of another
                // stream of the same session is a hazard.
                crate::stream::check_cross_epoch(mark_epoch, mark as u32, idx, "write", "read");
            }
            if let Some(reads) = &self.read_marks {
                reads[idx].store(
                    (epoch as u64) << 32 | current_actor() as u64,
                    Ordering::Relaxed,
                );
            }
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
        let mut out = [T::default(); WARP_SIZE];
        for lane in active_lanes(mask) {
            if scope == Scope::Warp {
                self.check_read_mark(idx[lane]);
            }
            out[lane] = T::from_bits(self.words[idx[lane]].load(order));
        }
        let sectors = path.bill::<T>(stats, &idx, mask);
        if scope == Scope::Warp {
            self.read_sectors.fetch_add(sectors, Ordering::Relaxed);
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
        for lane in active_lanes(mask) {
            if scope == Scope::Warp {
                self.check_write_mark(idx[lane]);
            }
            self.words[idx[lane]].store(val[lane].to_bits(), order);
        }
        let sectors = path.bill::<T>(stats, &idx, mask);
        if scope == Scope::Warp {
            self.write_sectors.fetch_add(sectors, Ordering::Relaxed);
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
        T::from_bits(self.words[idx].load(Ordering::SeqCst))
    }
}

impl GlobalBuffer<u32> {
    /// The body of every counted atomic: active lanes apply `rmw` with
    /// `val[lane]` to `idx[lane]` and get the previous values. Counts one
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
        rmw: impl Fn(&AtomicU64, u64, Ordering) -> u64,
    ) -> Lanes<u32> {
        let order = scope.enter();
        let mut out = [0u32; WARP_SIZE];
        let mut conflicts = 0u64;
        let mut seen = [0usize; WARP_SIZE];
        let mut n = 0usize;
        for lane in active_lanes(mask) {
            out[lane] = rmw(&self.words[idx[lane]], val[lane] as u64, order) as u32;
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
    ///
    /// On [`Path::Dram`], *replays* model the load/store unit: it issues
    /// one pass per maximal run of consecutive lanes accessing consecutive
    /// addresses, so a request whose lanes are shuffled across buckets
    /// replays many times even when its address *set* is compact — the cost
    /// the paper's shared-memory reordering eliminates.
    #[allow(clippy::needless_range_loop)] // lane-indexed loops are the warp idiom
    fn bill<T: Scalar>(self, stats: &StatCells, idx: &Lanes<usize>, mask: u32) -> u64 {
        if mask == 0 {
            return 0;
        }
        let active = mask.count_ones() as u64;
        let sectors = match self {
            Path::Dram => {
                let mut seen = [0u64; WARP_SIZE];
                let mut n = 0usize;
                let mut replays = 0u64;
                let mut prev: Option<usize> = None;
                for lane in 0..WARP_SIZE {
                    if lane_active(mask, lane) {
                        // An element may straddle two sectors only if
                        // misaligned; our 4/8-byte elements never do.
                        let s = idx[lane] as u64 * T::BYTES / SECTOR_BYTES;
                        if !seen[..n].contains(&s) {
                            seen[n] = s;
                            n += 1;
                        }
                        if prev != Some(idx[lane].wrapping_sub(1)) {
                            replays += 1;
                        }
                        prev = Some(idx[lane]);
                    } else {
                        prev = None;
                    }
                }
                StatCells::bump(&stats.replays, replays - 1);
                n as u64
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

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(u32::from_bits(12345u32.to_bits()), 12345);
        assert_eq!(u64::from_bits(u64::MAX.to_bits()), u64::MAX);
        assert_eq!(
            <(u32, u32)>::from_bits((0xDEAD, 0xBEEF).to_bits()),
            (0xDEAD, 0xBEEF)
        );
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
