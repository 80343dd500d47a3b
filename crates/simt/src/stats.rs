//! Event counters driving the performance model.
//!
//! Kernels do not measure wall-clock time; they *count* the events that
//! determine GPU performance — DRAM sectors touched (the coalescing model),
//! useful bytes moved, shared-memory operations, warp-wide intrinsics,
//! per-lane ALU work, barriers and divergent retry iterations. A
//! [`crate::DeviceProfile`] later converts a [`BlockStats`] aggregate into an
//! estimated running time.

use std::cell::Cell;
use std::ops::AddAssign;

use crate::obs::{ObsCells, ObsStats};

/// Aggregated event counts for one block (or, summed, for one launch).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BlockStats {
    /// Distinct 32-byte DRAM sectors touched by warp-wide global accesses.
    pub sectors: u64,
    /// Bytes of payload actually requested by active lanes.
    pub useful_bytes: u64,
    /// Warp-wide global memory requests issued (gathers + scatters).
    pub global_requests: u64,
    /// Extra load/store-unit passes beyond the first, one per additional
    /// maximal lane-consecutive address run in a request (order-sensitive
    /// coalescing; what local reordering eliminates).
    pub replays: u64,
    /// Global atomic operations (one per active lane).
    pub atomic_ops: u64,
    /// Extra serialization caused by same-address atomics within one warp.
    pub atomic_conflicts: u64,
    /// Shared-memory accesses, counted per active lane.
    pub smem_ops: u64,
    /// The avoidable share of `smem_ops`: bank passes beyond the first,
    /// per active lane. Zero for a conflict-free layout; what padded
    /// staging (see `simt::padded_index`) eliminates.
    pub smem_bank_conflicts: u64,
    /// Warp-wide intrinsics executed (ballot / shfl / shfl_up / shfl_xor).
    pub intrinsics: u64,
    /// Generic per-lane ALU operations (explicit charges from kernels).
    pub lane_ops: u64,
    /// Block-wide barriers (`__syncthreads`).
    pub barriers: u64,
    /// Warp-serialized retry iterations (divergence; randomized insertion).
    pub divergent_iters: u64,
}

impl AddAssign for BlockStats {
    fn add_assign(&mut self, o: Self) {
        self.sectors += o.sectors;
        self.useful_bytes += o.useful_bytes;
        self.global_requests += o.global_requests;
        self.replays += o.replays;
        self.atomic_ops += o.atomic_ops;
        self.atomic_conflicts += o.atomic_conflicts;
        self.smem_ops += o.smem_ops;
        self.smem_bank_conflicts += o.smem_bank_conflicts;
        self.intrinsics += o.intrinsics;
        self.lane_ops += o.lane_ops;
        self.barriers += o.barriers;
        self.divergent_iters += o.divergent_iters;
    }
}

impl BlockStats {
    /// Every counter as `(name, value)`, in field order: the one list the
    /// profile JSON and the Chrome trace serialize.
    pub(crate) fn counters(&self) -> [(&'static str, u64); 12] {
        [
            ("sectors", self.sectors),
            ("useful_bytes", self.useful_bytes),
            ("global_requests", self.global_requests),
            ("replays", self.replays),
            ("atomic_ops", self.atomic_ops),
            ("atomic_conflicts", self.atomic_conflicts),
            ("smem_ops", self.smem_ops),
            ("smem_bank_conflicts", self.smem_bank_conflicts),
            ("intrinsics", self.intrinsics),
            ("lane_ops", self.lane_ops),
            ("barriers", self.barriers),
            ("divergent_iters", self.divergent_iters),
        ]
    }

    /// Total bytes moved over DRAM under the 32 B sector model.
    pub fn dram_bytes(&self) -> u64 {
        self.sectors * crate::memory::SECTOR_BYTES
    }

    /// Bytes fetched but not requested by any lane (coalescing waste).
    pub fn wasted_bytes(&self) -> u64 {
        self.dram_bytes().saturating_sub(self.useful_bytes)
    }
}

/// Interior-mutable counter bundle owned by a [`crate::BlockCtx`].
///
/// `Cell`s let warp ops, shared buffers and global accesses all count
/// through a shared `&StatCells` without borrow-checker contortions; the
/// cells are folded into a plain [`BlockStats`] when the block retires.
#[derive(Debug, Default)]
pub struct StatCells {
    /// Uncounted introspection side-channel (see [`crate::obs`]): rides in
    /// the same bundle so warp-level primitives reach it without any new
    /// plumbing, but is **never** folded into [`BlockStats`] or priced by
    /// the cost model.
    pub obs: ObsCells,
    pub sectors: Cell<u64>,
    pub useful_bytes: Cell<u64>,
    pub global_requests: Cell<u64>,
    pub replays: Cell<u64>,
    pub atomic_ops: Cell<u64>,
    pub atomic_conflicts: Cell<u64>,
    pub smem_ops: Cell<u64>,
    pub smem_bank_conflicts: Cell<u64>,
    pub intrinsics: Cell<u64>,
    pub lane_ops: Cell<u64>,
    pub barriers: Cell<u64>,
    pub divergent_iters: Cell<u64>,
}

impl StatCells {
    #[inline]
    pub fn bump(cell: &Cell<u64>, by: u64) {
        cell.set(cell.get() + by);
    }

    pub fn snapshot(&self) -> BlockStats {
        BlockStats {
            sectors: self.sectors.get(),
            useful_bytes: self.useful_bytes.get(),
            global_requests: self.global_requests.get(),
            replays: self.replays.get(),
            atomic_ops: self.atomic_ops.get(),
            atomic_conflicts: self.atomic_conflicts.get(),
            smem_ops: self.smem_ops.get(),
            smem_bank_conflicts: self.smem_bank_conflicts.get(),
            intrinsics: self.intrinsics.get(),
            lane_ops: self.lane_ops.get(),
            barriers: self.barriers.get(),
            divergent_iters: self.divergent_iters.get(),
        }
    }
}

/// Result of one kernel launch: summed block stats plus the time estimate
/// the device profile assigned to it.
#[derive(Debug, Clone)]
pub struct LaunchRecord {
    /// Caller-supplied label, e.g. `"direct/post-scan"`. The harness groups
    /// records by label prefix to form the per-stage breakdown of Table 4.
    pub label: String,
    /// Number of blocks launched.
    pub blocks: usize,
    /// Warps per block.
    pub warps_per_block: usize,
    /// Event counts summed over all blocks.
    pub stats: BlockStats,
    /// Introspection counters summed over all blocks (uncounted channel;
    /// see [`crate::obs::ObsStats`] for which fields are deterministic).
    pub obs: ObsStats,
    /// Every block's own event counts, indexed by block id (empty for a
    /// zero-block launch).
    pub per_block: Vec<BlockStats>,
    /// Merged flight-recorder event stream, sorted by `(block, seq)` —
    /// `Some` whenever the recorder was armed
    /// ([`crate::flight::flight_capacity`] > 0), `None` when disabled.
    /// Rides the uncounted channel: never affects `stats` or `seconds`.
    pub flight: Option<crate::flight::FlightLog>,
    /// Estimated execution time in seconds (model, not wall clock).
    pub seconds: f64,
    /// Device-local index of the stream this launch ran on, or
    /// [`crate::stream::HOST_STREAM`] for launches outside any stream
    /// session. Push order into `Device::records` is nondeterministic
    /// across concurrent streams; `(stream, stream_seq)` restores a
    /// deterministic per-stream order for comparisons.
    pub stream: u32,
    /// Launch sequence number within its stream (0-based); launches on the
    /// host lane count up globally in submission order.
    pub stream_seq: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_sums_fields() {
        let mut a = BlockStats {
            sectors: 1,
            useful_bytes: 2,
            lane_ops: 5,
            ..Default::default()
        };
        let b = BlockStats {
            sectors: 10,
            useful_bytes: 20,
            barriers: 1,
            ..Default::default()
        };
        a += b;
        assert_eq!(a.sectors, 11);
        assert_eq!(a.useful_bytes, 22);
        assert_eq!(a.lane_ops, 5);
        assert_eq!(a.barriers, 1);
    }

    #[test]
    fn dram_and_wasted_bytes() {
        let s = BlockStats {
            sectors: 4,
            useful_bytes: 100,
            ..Default::default()
        };
        assert_eq!(s.dram_bytes(), 128);
        assert_eq!(s.wasted_bytes(), 28);
        let t = BlockStats {
            sectors: 1,
            useful_bytes: 128,
            ..Default::default()
        };
        assert_eq!(t.wasted_bytes(), 0, "waste saturates at zero");
    }

    #[test]
    fn snapshot_reflects_cells() {
        let c = StatCells::default();
        StatCells::bump(&c.sectors, 3);
        StatCells::bump(&c.intrinsics, 7);
        let s = c.snapshot();
        assert_eq!(s.sectors, 3);
        assert_eq!(s.intrinsics, 7);
        assert_eq!(s.smem_ops, 0);
    }
}
