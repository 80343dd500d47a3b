//! # gpu-simt — a warp-synchronous GPU execution simulator
//!
//! This crate is the hardware substrate for the Rust reproduction of
//! *GPU Multisplit* (Ashkiani, Davidson, Meyer, Owens — PPoPP 2016). The
//! paper's algorithms are defined in terms of the CUDA execution hierarchy:
//! 32-lane warps with `ballot`/`shfl` intrinsics, blocks with shared memory
//! and barriers, and a grid of blocks that communicate only through global
//! memory between kernels. Since no CUDA device is available to this build,
//! the crate implements that machine model directly:
//!
//! * [`WarpCtx`] — lockstep 32-lane warps: `ballot`, `shfl`, `shfl_up`,
//!   `shfl_down`, `shfl_xor`, and counted global gathers/scatters.
//! * [`BlockCtx`] — shared memory (48 kB, bank-conflict aware) and
//!   barrier-separated warp phases.
//! * [`Device`] — kernel launches over grids of blocks, executed in
//!   parallel on host threads that claim block ids from a shared counter
//!   (blocks are independent within a kernel, exactly as on the GPU, and
//!   the claim order gives single-pass chained scans their
//!   forward-progress guarantee).
//! * [`GlobalBuffer`] — device global memory that counts the distinct
//!   32-byte DRAM sectors each warp-wide access touches: the coalescing
//!   model that drives every performance result in the paper.
//! * [`DeviceProfile`] — converts event counts into estimated time;
//!   calibrated [`K40C`] and [`GTX750TI`] profiles match the paper's two
//!   evaluation machines.
//!
//! Kernels written against this crate are line-by-line transcriptions of
//! the paper's Algorithms 1–3; correctness properties (stability,
//! permutation, contiguity) are exercised by the real algorithm and the
//! performance *shape* (who wins at which bucket count, how stages scale)
//! emerges from counted memory traffic rather than hard-coded formulas.
//!
//! ## Example: a warp votes and counts
//!
//! ```
//! use simt::{Device, GlobalBuffer, lanes_from_fn, FULL_MASK, K40C};
//!
//! let dev = Device::new(K40C);
//! let input = GlobalBuffer::from_slice(&(0..32u32).collect::<Vec<_>>());
//! let odd_count = GlobalBuffer::<u32>::zeroed(1);
//! dev.launch("count-odds", 1, 1, |blk| {
//!     for w in blk.warps() {
//!         let v = w.gather(&input, lanes_from_fn(|l| l), FULL_MASK);
//!         let ballot = w.ballot(lanes_from_fn(|l| v[l] % 2 == 1), FULL_MASK);
//!         if w.warp_id == 0 {
//!             odd_count.set(0, ballot.count_ones());
//!         }
//!     }
//! });
//! assert_eq!(odd_count.get(0), 16);
//! ```

pub mod block;
pub mod flight;
pub mod grid;
pub mod json;
pub mod lanes;
pub mod memory;
pub mod obs;
pub mod pool;
pub mod profile;
pub mod sched;
pub mod shared;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod warp;

pub use block::{BlockCtx, SMEM_CAPACITY_BYTES};
pub use flight::{
    analyze as flight_analyze, flight_capacity, with_flight_capacity, EventKind, FlightAnalysis,
    FlightEvent, FlightLog, DEFAULT_FLIGHT_CAPACITY,
};
pub use grid::{blocks_for, Device, StreamTask};
pub use json::Json;
pub use lanes::{
    lane_active, lane_ids, lane_mask_le, lane_mask_lt, lanes_from_fn, map, popc, splat, zip, Lanes,
    FULL_MASK, WARP_SIZE,
};
pub use memory::{GlobalBuffer, Scalar, SECTOR_BYTES};
pub use obs::{
    launch_report, scope_tree, telemetry, with_telemetry, LaunchReport, MetricsSink, ObsCells,
    ObsStats, ScopeNode, Telemetry,
};
pub use pool::{BufferPool, PooledBuffer};
pub use profile::{DeviceProfile, GTX750TI, K40C};
pub use sched::{AdvFlavor, AdvSchedule, Schedule, ADV_WORKERS, DEFAULT_SPIN_BUDGET};
pub use shared::{padded_index, padded_len, SharedBuf, SMEM_BANKS};
pub use stats::{BlockStats, LaunchRecord, StatCells};
pub use stream::{Event, Stream, HOST_STREAM};
pub use trace::{chrome_trace_json, chrome_trace_json_with_tiles, write_chrome_trace};
pub use warp::WarpCtx;

/// Lock a mutex, recovering the data if a previous holder panicked. Every
/// mutex in this crate guards plain data (scope strings, launch logs,
/// scheduler and stream state) that a panicking holder never leaves
/// invalid, and the panic itself is what the caller should see.
pub(crate) fn lock_unpoisoned<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}
