//! # ms-baselines — every comparison method from the GPU Multisplit paper
//!
//! The paper's §3 surveys four ways to get a multisplit without the
//! dedicated primitive; all four are implemented here on the same SIMT
//! substrate so the benchmark harness can regenerate the paper's
//! comparisons:
//!
//! * [`radix_sort()`] — full 32-bit LSB radix sort (the CUB baseline, §3.3),
//!   built from 8-bit-digit block-level multisplit passes.
//! * [`scan_based_split`] / [`recursive_scan_multisplit`] — the classic
//!   scan-based split and its `⌈log m⌉`-round extension (§3.2).
//! * [`reduced_bit_multisplit`] / [`reduced_bit_multisplit_kv`] — sort
//!   only the `⌈log m⌉` label bits, permuting the original data as
//!   payload (§3.4); plus the (label, index) variant kept for ablation.
//! * [`randomized_multisplit`] — Meyer-style randomized dart-throwing with
//!   relaxed buffers (§3.5).
//! * [`multisplit_block_atomic`] — Patidar's shared-atomic ranking (§2):
//!   the contention-based alternative to ballot bitmaps.
//! * [`multisplit_thread_level`] — He et al.'s thread-granularity
//!   multisplit (§2 / Table 1): one subproblem per thread, demonstrating
//!   the oversized global scan the paper's warp/block granularities fix.

pub mod block_atomic;
pub mod radix_sort;
pub mod randomized;
pub mod reduced_bit;
pub mod scan_split;
pub mod thread_level;

pub use block_atomic::{max_buckets_atomic, multisplit_block_atomic};
pub use radix_sort::{radix_sort, radix_sort_by_bits, RADIX_BITS_PER_PASS};
pub use randomized::{randomized_multisplit, RandomizedConfig};
pub use reduced_bit::{
    label_bits, reduced_bit_multisplit, reduced_bit_multisplit_kv,
    reduced_bit_multisplit_kv_by_index, ReducedBitStrategy,
};
pub use scan_split::{recursive_scan_multisplit, scan_based_split};
pub use thread_level::{multisplit_thread_level, THREAD_COARSENING};
