//! # multisplit — GPU Multisplit (PPoPP 2016) in Rust
//!
//! A complete implementation of *GPU Multisplit* (Ashkiani, Davidson,
//! Meyer, Owens; PPoPP 2016, DOI 10.1145/2851141.2851169) on the [`simt`]
//! warp-synchronous simulator. Multisplit permutes keys (or key–value
//! pairs) into `m` contiguous buckets given a programmer-supplied
//! [`BucketFn`], preserving input order within each bucket (stable).
//!
//! All three methods from the paper are provided, plus the `m > 32`
//! extension:
//!
//! | Method | Subproblem | Reordering | Best at |
//! |---|---|---|---|
//! | [`multisplit_direct`] | warp (32) | none | — (baseline of the family) |
//! | [`multisplit_warp_level`] | warp (32) | intra-warp | small `m` |
//! | [`multisplit_block_level`] | block (256) | intra-block | large `m` (≤ 32) |
//! | [`multisplit_large_m`] | block (256) | intra-block | `32 < m ≲ 1.3k` |
//! | [`multisplit_fused`] | coarsened tile | intra-block | any `m ≤ fused_max_buckets` (default) |
//!
//! The three paper methods follow the `{pre-scan, scan, post-scan}`
//! skeleton: ballot-based local histograms
//! ([Algorithm 2](warp_ops::warp_histogram)), one device-wide exclusive
//! scan over the `m x L` histogram matrix, then local offsets
//! ([Algorithm 3](warp_ops::warp_offsets)) and a locality-optimized
//! scatter. [`multisplit_fused`] collapses that skeleton into a
//! lightweight global-histogram pass plus **one** sweep kernel that
//! resolves per-bucket tile prefixes with the decoupled look-back of
//! `primitives::lookback` (the structure of the OneSweep radix sort) — it
//! is what [`Method::auto`] picks for every `m` up to its shared-memory
//! capacity ([`fused_max_buckets`], ≈1.2k at 8 warps), past which `auto`
//! falls back to [`multisplit_large_m`]. The three-kernel methods run
//! when a caller names them in [`multisplit_device`].
//!
//! ## Quickstart
//!
//! ```
//! use multisplit::{multisplit, RangeBuckets};
//! use simt::{Device, K40C};
//!
//! let dev = Device::new(K40C);
//! let keys: Vec<u32> = (0..10_000u32).map(|i| i.wrapping_mul(2654435761)).collect();
//! let bucket = RangeBuckets::new(8); // 8 equal ranges of the u32 domain
//! let (split, offsets) = multisplit(&dev, &keys, &bucket);
//! // Bucket b occupies split[offsets[b] as usize .. offsets[b+1] as usize].
//! assert_eq!(offsets.len(), 9);
//! assert_eq!(*offsets.last().unwrap() as usize, keys.len());
//! ```

pub mod api;
pub mod block_level;
pub mod bucket;
pub mod common;
pub mod cpu_ref;
pub mod direct;
pub mod fused;
pub mod large_m;
pub mod prescan;
pub mod segmented;
pub mod sweep;
pub mod warp_level;
pub mod warp_ops;

pub use api::{multisplit, multisplit_device, multisplit_kv, Method, DEFAULT_WARPS_PER_BLOCK};
pub use block_level::multisplit_block_level;
pub use bucket::{
    is_prime, BucketFn, DeltaBuckets, DigitBuckets, FnBuckets, IdentityBuckets, LsbBuckets,
    PrimeComposite, RangeBuckets,
};
pub use common::{no_values, DeviceMultisplit};
pub use cpu_ref::{check_multisplit, multisplit_kv_ref, multisplit_ref};
pub use direct::multisplit_direct;
pub use fused::{
    max_buckets as fused_max_buckets, max_buckets_bytes as fused_max_buckets_bytes,
    multisplit_fused, multisplit_fused_into, multisplit_sweep_into,
};
pub use large_m::{max_buckets, multisplit_large_m};
pub use prescan::{bucket_totals, PRESCAN_ITEMS_PER_THREAD};
pub use segmented::{
    multisplit_segmented, multisplit_segmented_into, segment_fits_sweep, SegmentSpec,
    SegmentedMultisplit,
};
pub use warp_level::multisplit_warp_level;
