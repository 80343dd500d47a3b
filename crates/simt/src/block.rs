//! Thread-block execution context.
//!
//! A block owns up to 48 kB of shared memory and `warps_per_block` warps.
//! Warps of one block execute sequentially inside the simulator (the block
//! is single-threaded on the host); `sync()` marks the barrier points that
//! separate warp-level phases, exactly where `__syncthreads()` would sit in
//! the CUDA source. Because warps run to completion between barriers, any
//! kernel that is correct under this schedule is correct under CUDA's
//! arbitrary warp interleaving *provided* cross-warp shared-memory
//! communication only happens across a `sync()` — the same discipline a
//! warp-synchronous CUDA kernel must follow.

use std::cell::Cell;

use crate::memory::Scalar;
use crate::shared::SharedBuf;
use crate::stats::{BlockStats, StatCells};
use crate::warp::WarpCtx;

/// Shared memory capacity per block (K40c / GTX 750 Ti: 48 kB).
pub const SMEM_CAPACITY_BYTES: usize = 48 * 1024;

/// Execution context of one thread block.
pub struct BlockCtx {
    /// Block index within the grid (CUDA `blockIdx.x`).
    pub block_id: usize,
    /// Grid size in blocks (CUDA `gridDim.x`).
    pub num_blocks: usize,
    /// Warps per block (`N_W` in the paper; threads = 32 * warps).
    pub warps_per_block: usize,
    stats: StatCells,
    smem_used: Cell<usize>,
}

impl BlockCtx {
    pub(crate) fn new(block_id: usize, num_blocks: usize, warps_per_block: usize) -> Self {
        assert!(warps_per_block >= 1, "a block needs at least one warp");
        Self {
            block_id,
            num_blocks,
            warps_per_block,
            stats: StatCells::default(),
            smem_used: Cell::new(0),
        }
    }

    /// Threads per block.
    pub fn threads(&self) -> usize {
        self.warps_per_block * crate::lanes::WARP_SIZE
    }

    /// Iterate this block's warps (one warp-level phase).
    pub fn warps(&self) -> impl Iterator<Item = WarpCtx<'_>> + '_ {
        let base = self.block_id * self.warps_per_block;
        (0..self.warps_per_block).map(move |w| WarpCtx::new(w, base + w, &self.stats))
    }

    /// A single warp of this block.
    pub fn warp(&self, w: usize) -> WarpCtx<'_> {
        assert!(w < self.warps_per_block);
        WarpCtx::new(w, self.block_id * self.warps_per_block + w, &self.stats)
    }

    /// Block-wide barrier (`__syncthreads()`); counted for the cost model.
    pub fn sync(&self) {
        StatCells::bump(&self.stats.barriers, 1);
    }

    /// Allocate a shared-memory array; panics if the block exceeds 48 kB,
    /// like a CUDA launch failure would.
    pub fn alloc_shared<T: Scalar>(&self, len: usize) -> SharedBuf<'_, T> {
        let bytes = len * T::BYTES as usize;
        let used = self.smem_used.get() + bytes;
        assert!(
            used <= SMEM_CAPACITY_BYTES,
            "shared memory overflow: {used} bytes requested, capacity {SMEM_CAPACITY_BYTES}"
        );
        self.smem_used.set(used);
        SharedBuf::new(len, &self.stats)
    }

    /// The block's counter bundle (for primitives layered on the simulator).
    pub fn stats(&self) -> &StatCells {
        &self.stats
    }

    /// Retire the block: counted stats plus the uncounted introspection
    /// snapshot (kept separate so obs can never leak into the cost model).
    pub(crate) fn into_parts(
        self,
    ) -> (
        BlockStats,
        crate::obs::ObsStats,
        (Vec<crate::flight::FlightEvent>, u64),
    ) {
        let flight = self.stats.obs.take_flight();
        (self.stats.snapshot(), self.stats.obs.snapshot(), flight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::WARP_SIZE;

    #[test]
    fn warp_ids_are_global() {
        let blk = BlockCtx::new(3, 8, 4);
        let ids: Vec<_> = blk.warps().map(|w| (w.warp_id, w.global_warp_id)).collect();
        assert_eq!(ids, vec![(0, 12), (1, 13), (2, 14), (3, 15)]);
        assert_eq!(blk.threads(), 4 * WARP_SIZE);
    }

    #[test]
    fn sync_counts_barriers() {
        let blk = BlockCtx::new(0, 1, 1);
        blk.sync();
        blk.sync();
        assert_eq!(blk.into_parts().0.barriers, 2);
    }

    #[test]
    fn shared_allocation_tracks_bytes() {
        let blk = BlockCtx::new(0, 1, 8);
        let _a = blk.alloc_shared::<u32>(1024);
        assert_eq!(blk.smem_used.get(), 4096);
        let _b = blk.alloc_shared::<u64>(512);
        assert_eq!(blk.smem_used.get(), 8192);
    }

    #[test]
    #[should_panic(expected = "shared memory overflow")]
    fn shared_overflow_panics() {
        let blk = BlockCtx::new(0, 1, 8);
        let _a = blk.alloc_shared::<u32>(12 * 1024); // exactly 48 kB: ok
        let _b = blk.alloc_shared::<u32>(1); // one more word: overflow
    }

    #[test]
    #[should_panic(expected = "at least one warp")]
    fn zero_warp_block_rejected() {
        let _ = BlockCtx::new(0, 1, 0);
    }
}
