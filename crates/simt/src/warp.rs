//! Warp execution context: CUDA's warp-wide intrinsics.
//!
//! A [`WarpCtx`] executes one 32-lane warp in lockstep. Intrinsics mirror
//! the CUDA operations the paper relies on — `__ballot`, `__shfl`,
//! `__shfl_up`, `__shfl_xor` — and each invocation is counted so the cost
//! model can price the "local work" the paper trades against global
//! operations.
//!
//! It is also the only API for counted global-memory access. Each access
//! picks a billing path — DRAM (distinct sectors plus replays) or L2
//! (sector-rounded useful bytes) — and a scope — warp (`Relaxed`,
//! race-checked) or device (an adversarial yield point, `SeqCst`, not
//! race-checked); see [`crate::memory`].

use std::sync::atomic::AtomicU32;

use crate::lanes::{lane_active, lanes_from_fn, splat, Lanes, WARP_SIZE};
use crate::memory::{GlobalBuffer, Path, Scalar, Scope};
use crate::stats::StatCells;

/// Execution context of one warp within a block.
pub struct WarpCtx<'a> {
    /// Warp index within its block.
    pub warp_id: usize,
    /// Warp index within the whole grid.
    pub global_warp_id: usize,
    pub(crate) stats: &'a StatCells,
}

impl<'a> WarpCtx<'a> {
    /// Construct a standalone warp context. Kernels receive warps from
    /// [`crate::BlockCtx::warps`]; this constructor exists so warp-level
    /// algorithms (e.g. the paper's Algorithms 2–3) can be unit- and
    /// property-tested in isolation against scalar references.
    pub fn new(warp_id: usize, global_warp_id: usize, stats: &'a StatCells) -> Self {
        Self {
            warp_id,
            global_warp_id,
            stats,
        }
    }

    /// The uncounted introspection side-channel (see [`crate::obs`]):
    /// counters recorded here are exported with the launch record but are
    /// never priced by the cost model or folded into [`crate::BlockStats`].
    pub fn obs(&self) -> &crate::obs::ObsCells {
        &self.stats.obs
    }

    #[inline]
    fn count_intrinsic(&self) {
        StatCells::bump(&self.stats.intrinsics, 1);
    }

    /// CUDA `__ballot(pred)`: a bitmap with bit `i` set iff lane `i`'s
    /// predicate is non-zero (inactive lanes contribute 0).
    #[allow(clippy::needless_range_loop)] // lane-indexed loops are the warp idiom
    pub fn ballot(&self, pred: Lanes<bool>, mask: u32) -> u32 {
        self.count_intrinsic();
        let mut out = 0u32;
        for lane in 0..WARP_SIZE {
            if lane_active(mask, lane) && pred[lane] {
                out |= 1 << lane;
            }
        }
        out
    }

    /// CUDA `__shfl(v, src)`: every lane reads `v` from lane `src[lane]`.
    ///
    /// The source lane's register is read regardless of the activity mask —
    /// in the warp-synchronous style the paper relies on, every lane of
    /// the simulator computes its registers in lockstep, so data-exchange
    /// from "inactive" lanes is well-defined here (CUDA kernels achieve
    /// the same by keeping all lanes converged around shuffles). `_mask`
    /// documents intent at call sites.
    pub fn shfl<T: Copy>(&self, v: Lanes<T>, src: Lanes<u32>, _mask: u32) -> Lanes<T> {
        self.count_intrinsic();
        lanes_from_fn(|lane| v[src[lane] as usize % WARP_SIZE])
    }

    /// CUDA `__shfl_up(v, delta)`: lane `i` reads from lane `i - delta`;
    /// lanes `< delta` keep their own value.
    pub fn shfl_up<T: Copy>(&self, v: Lanes<T>, delta: usize) -> Lanes<T> {
        self.count_intrinsic();
        lanes_from_fn(|lane| {
            if lane >= delta {
                v[lane - delta]
            } else {
                v[lane]
            }
        })
    }

    /// CUDA `__shfl_down(v, delta)`: lane `i` reads from lane `i + delta`;
    /// lanes `>= 32 - delta` keep their own value.
    pub fn shfl_down<T: Copy>(&self, v: Lanes<T>, delta: usize) -> Lanes<T> {
        self.count_intrinsic();
        lanes_from_fn(|lane| {
            if lane + delta < WARP_SIZE {
                v[lane + delta]
            } else {
                v[lane]
            }
        })
    }

    /// CUDA `__shfl_xor(v, lanemask)`: lane `i` reads from lane `i ^ lanemask`.
    pub fn shfl_xor<T: Copy>(&self, v: Lanes<T>, lane_mask: usize) -> Lanes<T> {
        self.count_intrinsic();
        lanes_from_fn(|lane| v[(lane ^ lane_mask) % WARP_SIZE])
    }

    /// Broadcast lane `src`'s value to the whole warp (a single-source shfl).
    pub fn broadcast<T: Copy>(&self, v: Lanes<T>, src: usize) -> Lanes<T> {
        self.count_intrinsic();
        [v[src % WARP_SIZE]; WARP_SIZE]
    }

    /// Warp-wide gather: active lanes read `idx[lane]` (DRAM path).
    pub fn gather<T: Scalar>(
        &self,
        buf: &GlobalBuffer<T>,
        idx: Lanes<usize>,
        mask: u32,
    ) -> Lanes<T> {
        buf.read(self.stats, Path::Dram, Scope::Warp, idx, mask)
    }

    /// Warp-wide gather on the L2 path, for small reused tables (the
    /// scanned offsets `G`, bucket descriptors); bulk key/value streams
    /// must use [`WarpCtx::gather`].
    pub fn gather_cached<T: Scalar>(
        &self,
        buf: &GlobalBuffer<T>,
        idx: Lanes<usize>,
        mask: u32,
    ) -> Lanes<T> {
        buf.read(self.stats, Path::L2, Scope::Warp, idx, mask)
    }

    /// Warp-wide scatter: active lanes write `val[lane]` to `idx[lane]`
    /// (DRAM path).
    pub fn scatter<T: Scalar>(
        &self,
        buf: &GlobalBuffer<T>,
        idx: Lanes<usize>,
        val: Lanes<T>,
        mask: u32,
    ) {
        buf.write(self.stats, Path::Dram, Scope::Warp, idx, val, mask)
    }

    /// Warp-wide scatter on the L2 path, for strided histogram stores
    /// whose sectors neighbouring warps fill in at nearly the same time.
    pub fn scatter_merged<T: Scalar>(
        &self,
        buf: &GlobalBuffer<T>,
        idx: Lanes<usize>,
        val: Lanes<T>,
        mask: u32,
    ) {
        buf.write(self.stats, Path::L2, Scope::Warp, idx, val, mask)
    }

    /// Warp-wide global atomic minimum; returns the previous values.
    /// Compares as `u32`, as on the device.
    pub fn atomic_min(
        &self,
        buf: &GlobalBuffer<u32>,
        idx: Lanes<usize>,
        val: Lanes<u32>,
        mask: u32,
    ) -> Lanes<u32> {
        let min = AtomicU32::fetch_min;
        buf.atomic(self.stats, Path::Dram, Scope::Warp, idx, val, mask, min)
    }

    /// Warp-wide global atomic add; returns the previous values. Wraps
    /// at 2^32, as on the device.
    pub fn atomic_add(
        &self,
        buf: &GlobalBuffer<u32>,
        idx: Lanes<usize>,
        val: Lanes<u32>,
        mask: u32,
    ) -> Lanes<u32> {
        let add = AtomicU32::fetch_add;
        buf.atomic(self.stats, Path::Dram, Scope::Warp, idx, val, mask, add)
    }

    /// Single-lane device-scope ticket `fetch_add`; returns the previous
    /// value. Blocks claim tile ids in task-start order, which makes the
    /// decoupled lookback deadlock-free (a block only ever waits on
    /// already-started blocks).
    pub fn device_fetch_add(&self, buf: &GlobalBuffer<u32>, idx: usize, val: u32) -> u32 {
        // The scope yields *before* the add, so the adversarial scheduler
        // controls the claim order; noting the ticket *after* lets the
        // ticket-aware policies key on it before the block publishes.
        let (idx, val) = (splat(idx), splat(val));
        let add = AtomicU32::fetch_add;
        let prev = buf.atomic(self.stats, Path::L2, Scope::Device, idx, val, 1, add)[0];
        crate::sched::note_ticket(prev);
        prev
    }

    /// Warp-wide device-scope gather (L2 path): an m-row tile-state record
    /// in one request, or a single word with one lane.
    pub fn device_gather<T: Scalar>(
        &self,
        buf: &GlobalBuffer<T>,
        idx: Lanes<usize>,
        mask: u32,
    ) -> Lanes<T> {
        buf.read(self.stats, Path::L2, Scope::Device, idx, mask)
    }

    /// Warp-wide device-scope scatter (L2 path): publishes an m-row
    /// tile-state record in one request, or a single word with one lane.
    pub fn device_scatter<T: Scalar>(
        &self,
        buf: &GlobalBuffer<T>,
        idx: Lanes<usize>,
        val: Lanes<T>,
        mask: u32,
    ) {
        buf.write(self.stats, Path::L2, Scope::Device, idx, val, mask)
    }

    /// Charge `n` generic per-lane ALU operations (address arithmetic,
    /// bucket evaluation, comparisons...). Kernels call this at the few
    /// spots where meaningful local work happens so the compute side of the
    /// cost model has something to price.
    #[inline]
    pub fn charge(&self, n: u64) {
        StatCells::bump(&self.stats.lane_ops, n);
    }

    /// Charge `n` warp-serialized retry iterations (branch divergence; used
    /// by the randomized-insertion baseline where collisions stall the
    /// whole warp, paper §3.5).
    #[inline]
    pub fn charge_divergent(&self, n: u64) {
        StatCells::bump(&self.stats.divergent_iters, n);
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::needless_range_loop)] // lane-indexed loops are the warp idiom
    use super::*;
    use crate::lanes::{lane_ids, FULL_MASK};

    fn warp(stats: &StatCells) -> WarpCtx<'_> {
        WarpCtx::new(0, 0, stats)
    }

    #[test]
    fn ballot_collects_predicates() {
        let st = StatCells::default();
        let w = warp(&st);
        let pred = lanes_from_fn(|i| i % 2 == 1);
        assert_eq!(w.ballot(pred, FULL_MASK), 0xAAAA_AAAA);
        assert_eq!(w.ballot(pred, 0x0000_FFFF), 0x0000_AAAA);
        assert_eq!(st.intrinsics.get(), 2);
    }

    #[test]
    fn shfl_reads_source_lane() {
        let st = StatCells::default();
        let w = warp(&st);
        let v = lane_ids();
        // Every lane reads lane 5.
        let got = w.shfl(v, splat(5u32), FULL_MASK);
        assert_eq!(got, splat(5u32));
        // Reverse permutation.
        let got = w.shfl(v, lanes_from_fn(|i| 31 - i as u32), FULL_MASK);
        assert_eq!(got, lanes_from_fn(|i| 31 - i as u32));
    }

    #[test]
    fn shfl_up_shifts_and_keeps_low_lanes() {
        let st = StatCells::default();
        let w = warp(&st);
        let v = lane_ids();
        let got = w.shfl_up(v, 3);
        for lane in 0..WARP_SIZE {
            if lane >= 3 {
                assert_eq!(got[lane], (lane - 3) as u32);
            } else {
                assert_eq!(got[lane], lane as u32);
            }
        }
    }

    #[test]
    fn shfl_down_shifts_and_keeps_high_lanes() {
        let st = StatCells::default();
        let w = warp(&st);
        let got = w.shfl_down(lane_ids(), 4);
        for lane in 0..WARP_SIZE {
            if lane + 4 < WARP_SIZE {
                assert_eq!(got[lane], (lane + 4) as u32);
            } else {
                assert_eq!(got[lane], lane as u32);
            }
        }
    }

    #[test]
    fn shfl_xor_is_an_involution() {
        let st = StatCells::default();
        let w = warp(&st);
        let v = lane_ids();
        let once = w.shfl_xor(v, 1);
        let twice = w.shfl_xor(once, 1);
        assert_eq!(twice, v);
        assert_eq!(once[0], 1);
        assert_eq!(once[1], 0);
    }

    #[test]
    fn broadcast_copies_one_lane() {
        let st = StatCells::default();
        let w = warp(&st);
        assert_eq!(w.broadcast(lane_ids(), 17), splat(17u32));
    }

    #[test]
    fn warp_reduce_sum_via_shfl_down() {
        // The canonical butterfly reduction kernels use.
        let st = StatCells::default();
        let w = warp(&st);
        let mut v = lane_ids();
        let mut d = WARP_SIZE / 2;
        while d > 0 {
            let other = w.shfl_down(v, d);
            for lane in 0..WARP_SIZE {
                v[lane] += other[lane];
            }
            d /= 2;
        }
        assert_eq!(v[0], (0..32).sum::<u32>());
        assert_eq!(st.intrinsics.get(), 5);
    }

    #[test]
    fn charges_accumulate() {
        let st = StatCells::default();
        let w = warp(&st);
        w.charge(10);
        w.charge(5);
        w.charge_divergent(3);
        assert_eq!(st.lane_ops.get(), 15);
        assert_eq!(st.divergent_iters.get(), 3);
    }
}
