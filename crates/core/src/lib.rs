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
//! | [`multisplit_fused`] | coarsened tile | intra-block | any `m ≤ 32` (default) |
//! | [`multisplit_fused_large_m`] | coarsened tile | intra-block | any `32 < m ≲ 1.2k` (default) |
//!
//! The three paper methods follow the `{pre-scan, scan, post-scan}`
//! skeleton: ballot-based local histograms
//! ([Algorithm 2](warp_ops::warp_histogram)), one device-wide exclusive
//! scan over the `m x L` histogram matrix, then local offsets
//! ([Algorithm 3](warp_ops::warp_offsets)) and a locality-optimized
//! scatter. [`multisplit_fused`] collapses that skeleton into a
//! lightweight global-histogram pass plus **one** sweep kernel that
//! resolves per-bucket tile prefixes with the decoupled look-back of
//! `primitives::lookback` (the Onesweep structure) — it is what
//! [`Method::auto`] picks for `m <= 32` unless the three-kernel pipeline
//! is pinned via [`with_pipeline`].
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
pub mod fused_large_m;
pub mod large_m;
pub mod onesweep;
pub mod segmented;
pub mod sweep;
pub mod warp_level;
pub mod warp_ops;

pub use api::{
    multisplit, multisplit_device, multisplit_device_into, multisplit_kv, pipeline, with_pipeline,
    Method, Pipeline, DEFAULT_WARPS_PER_BLOCK,
};
pub use block_level::multisplit_block_level;
pub use bucket::{
    is_prime, BucketFn, DeltaBuckets, DigitBuckets, FnBuckets, IdentityBuckets, LsbBuckets,
    PrimeComposite, RangeBuckets,
};
pub use common::{no_values, DeviceMultisplit};
pub use cpu_ref::{check_multisplit, multisplit_kv_ref, multisplit_ref};
pub use direct::multisplit_direct;
pub use fused::{multisplit_fused, multisplit_fused_into};
pub use fused_large_m::{
    max_buckets as fused_max_buckets, max_buckets_bytes as fused_max_buckets_bytes,
    multisplit_fused_large_m, multisplit_fused_large_m_into,
};
pub use large_m::{max_buckets, multisplit_large_m};
pub use onesweep::multisplit_onesweep;
pub use segmented::{
    multisplit_segmented, multisplit_segmented_into, segment_fits_sweep, SegmentSpec,
    SegmentedMultisplit,
};
pub use warp_level::multisplit_warp_level;
// Observability knob: callers profile multisplit runs by wrapping them in
// `with_telemetry(Telemetry::PerBlock, ..)`, like `with_pipeline` above.
pub use simt::{telemetry, with_telemetry, Telemetry};
