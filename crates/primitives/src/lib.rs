//! # gpu-primitives — device-wide parallel primitives on the SIMT simulator
//!
//! The standard primitive layer the multisplit paper builds on (its CUDA
//! implementation used CUB for device-wide scan and radix sort; everything
//! here is implemented from scratch on [`simt`]):
//!
//! * [`warp_scan`] — shuffle-only warp scans/reductions (log `N_T` rounds).
//! * [`block_scan`] — block-wide shared-memory scan, plus the per-row
//!   `multi_reduce` / `multi_scan` operations of paper §5.1.
//! * [`scan`] — device-wide exclusive prefix sum and sum reduction: the
//!   **global** stage of every multisplit variant. [`exclusive_scan_u32`]
//!   is the single-pass chained scan with decoupled look-back;
//!   [`recursive_scan_u32`] is the recursive reduce / scan-partials /
//!   downsweep baseline.
//! * [`lookback`] — the decoupled look-back tile-state machinery itself,
//!   parameterized over the aggregate shape (scalar rows for [`scan`],
//!   m-vector histogram rows for `ms-core`'s fused multisplit).
//! * [`histogram`] — a block-privatized atomic histogram (related-work §2).
//! * [`compact`] — scan-based two-bucket split and compaction (§3.2).

pub mod block_scan;
pub mod compact;
pub mod histogram;
pub mod lookback;
pub mod scan;
pub mod warp_scan;

pub use block_scan::{
    block_exclusive_scan_shared, low_lanes_mask, multi_exclusive_scan_across_warps,
    multi_reduce_across_warps, tail_mask,
};
pub use compact::{compact_by_pred, split_by_pred, SplitResult};
pub use histogram::histogram_shared_atomic;
pub use lookback::SegmentedTileStates;
pub use scan::{exclusive_scan_u32, recursive_scan_u32, scan_tile, ITEMS_PER_THREAD};
