//! Top-level multisplit API: method selection and host-convenience entry
//! points.
//!
//! The paper's guidance (§6.2): Warp-level MS wins for small bucket counts
//! (`m <= 6` key-only, `m <= 5` key-value), Block-level MS wins for large
//! ones (`m >= 22` / `m >= 16`), anything in between is a wash. Above the
//! warp width only the block-granularity large-`m` paths apply. `paper
//! fig3` measures those crossovers on the three-kernel methods, each named
//! explicitly at its call to [`multisplit_device`].
//!
//! [`Method::auto`] picks the single-pass path (per-bucket decoupled
//! look-back), which supersedes the crossovers at every `m`:
//! [`Method::Fused`], one method for every `m` up to its shared-memory
//! capacity [`crate::fused::max_buckets`] (≈1.2k at the default block
//! size; slightly below the three-kernel path's limit because the fused
//! sweep also stages a scatter-base row and padded staging). Past that
//! capacity `auto` falls back to the three-kernel [`Method::LargeM`]. The
//! fused path moves strictly fewer DRAM sectors than the three-kernel
//! pipelines at every measured `m` (`paper fused` / `paper largem`).

use simt::{Device, GlobalBuffer, Scalar};

use crate::block_level::multisplit_block_level;
use crate::bucket::BucketFn;
use crate::common::DeviceMultisplit;
use crate::direct::multisplit_direct;
use crate::fused::multisplit_fused;
use crate::large_m::multisplit_large_m;
use crate::warp_level::multisplit_warp_level;

/// Warps per block used throughout the paper's evaluation (`N_W = 8`,
/// i.e. 256 threads per block).
pub const DEFAULT_WARPS_PER_BLOCK: usize = 8;

/// Which multisplit implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Warp-sized subproblems, no reordering (§5, Algorithm 1).
    Direct,
    /// Warp-sized subproblems with intra-warp reordering (§5.2.1).
    WarpLevel,
    /// Block-sized subproblems with block-wide reordering (§5.2.2).
    BlockLevel,
    /// Block-granularity path for more than 32 buckets (§5.3).
    LargeM,
    /// Single-pass fused pipeline via per-bucket decoupled look-back
    /// (`fused.rs`; the OneSweep radix sort's structure) for any
    /// `m <= fused::max_buckets`.
    Fused,
}

impl Method {
    /// The method with the fewest counted DRAM sectors for `m` buckets:
    /// [`Method::Fused`] up to its capacity, [`Method::LargeM`] beyond.
    ///
    /// Capacity awareness: the fused sweep fits fewer buckets in shared
    /// memory than the three-kernel path (it also stages the scatter-base
    /// row and conflict-avoidance padding), so for
    /// `m > fused::max_buckets` at the default block size `auto` selects
    /// [`Method::LargeM`].
    pub fn auto(m: u32, key_value: bool) -> Method {
        Method::auto_for(m, key_value, DEFAULT_WARPS_PER_BLOCK)
    }

    /// [`Method::auto`] for a caller-chosen block size. The fused
    /// capacity *shrinks* as `wpb` grows (more warps share the fixed
    /// 48 kB), so the capacity check must use the `wpb` the kernels will
    /// actually run with — checking `DEFAULT_WARPS_PER_BLOCK` here and
    /// launching with a larger block dispatched [`Method::Fused`] into
    /// its own capacity check instead of falling back to
    /// [`Method::LargeM`].
    pub fn auto_for(m: u32, key_value: bool, wpb: usize) -> Method {
        if m <= crate::fused::max_buckets(wpb, key_value) {
            Method::Fused
        } else {
            Method::LargeM
        }
    }

    /// Human-readable name matching the paper's terminology.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Direct => "Direct MS",
            Method::WarpLevel => "Warp-level MS",
            Method::BlockLevel => "Block-level MS",
            Method::LargeM => "Block-level MS (m > 32)",
            Method::Fused => "Fused MS",
        }
    }
}

/// Device-level multisplit with an explicit method.
pub fn multisplit_device<B: BucketFn + ?Sized, V: Scalar>(
    dev: &Device,
    method: Method,
    keys: &GlobalBuffer<u32>,
    values: Option<&GlobalBuffer<V>>,
    n: usize,
    bucket: &B,
    wpb: usize,
) -> DeviceMultisplit<V> {
    assert!(wpb >= 1, "need at least one warp per block");
    match method {
        Method::Direct => multisplit_direct(dev, keys, values, n, bucket, wpb),
        Method::WarpLevel => multisplit_warp_level(dev, keys, values, n, bucket, wpb),
        Method::BlockLevel => multisplit_block_level(dev, keys, values, n, bucket, wpb),
        Method::LargeM => multisplit_large_m(dev, keys, values, n, bucket, wpb),
        Method::Fused => multisplit_fused(dev, keys, values, n, bucket, wpb),
    }
}

/// Host-convenience key-only multisplit: uploads, runs the auto-selected
/// method, downloads. Returns the permuted keys and the `m + 1` bucket
/// offsets.
pub fn multisplit<B: BucketFn + ?Sized>(
    dev: &Device,
    keys: &[u32],
    bucket: &B,
) -> (Vec<u32>, Vec<u32>) {
    let buf = GlobalBuffer::from_slice(keys);
    let method = Method::auto(bucket.num_buckets(), false);
    let r = multisplit_device(
        dev,
        method,
        &buf,
        crate::common::no_values(),
        keys.len(),
        bucket,
        DEFAULT_WARPS_PER_BLOCK,
    );
    (r.keys.to_vec(), r.offsets)
}

/// Host-convenience key–value multisplit.
///
/// ```
/// use multisplit::{multisplit_kv, IdentityBuckets};
/// use simt::{Device, K40C};
/// let dev = Device::new(K40C);
/// let keys = [2u32, 0, 1, 2, 0];
/// let values = [20u32, 0, 10, 21, 1];
/// let (k, v, offsets) = multisplit_kv(&dev, &keys, &values, &IdentityBuckets { m: 3 });
/// assert_eq!(k, vec![0, 0, 1, 2, 2]);
/// assert_eq!(v, vec![0, 1, 10, 20, 21], "values travel with their keys, stably");
/// assert_eq!(offsets, vec![0, 2, 3, 5]);
/// ```
pub fn multisplit_kv<B: BucketFn + ?Sized>(
    dev: &Device,
    keys: &[u32],
    values: &[u32],
    bucket: &B,
) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    assert_eq!(keys.len(), values.len(), "key/value length mismatch");
    let kbuf = GlobalBuffer::from_slice(keys);
    let vbuf = GlobalBuffer::from_slice(values);
    let method = Method::auto(bucket.num_buckets(), true);
    let r = multisplit_device(
        dev,
        method,
        &kbuf,
        Some(&vbuf),
        keys.len(),
        bucket,
        DEFAULT_WARPS_PER_BLOCK,
    );
    (
        r.keys.to_vec(),
        r.values.expect("kv path always returns values").to_vec(),
        r.offsets,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::RangeBuckets;
    use crate::cpu_ref::{multisplit_kv_ref, multisplit_ref};
    use simt::K40C;

    #[test]
    fn auto_prefers_fused_at_every_m_with_capacity_fallback() {
        for m in [1, 2, 6, 16, 32, 33, 64, 256, 1024] {
            assert_eq!(Method::auto(m, false), Method::Fused);
            assert_eq!(Method::auto(m, true), Method::Fused);
        }
        // Past the fused sweep's shared-memory capacity, auto falls back
        // to the three-kernel pipeline (which fits slightly more buckets).
        for kv in [false, true] {
            let cap = crate::fused::max_buckets(DEFAULT_WARPS_PER_BLOCK, kv);
            assert_eq!(Method::auto(cap, kv), Method::Fused);
            assert_eq!(Method::auto(cap + 1, kv), Method::LargeM);
        }
    }

    /// Satellite-1 regression: `auto` (and `auto_for`) must never dispatch
    /// a method that asserts on capacity. Sweep wpb × m across the
    /// fused capacity boundary and *run* every selection — before the
    /// fix, `auto` at a non-default wpb straddling the boundary picked the
    /// fused path and died on its capacity check instead of falling back
    /// to `LargeM`.
    #[test]
    fn auto_for_never_dispatches_past_capacity() {
        let dev = Device::new(K40C);
        let keys: Vec<u32> = (0..2048u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let buf = GlobalBuffer::from_slice(&keys);
        for wpb in [1usize, 2, 8, 16, 32] {
            for kv in [false, true] {
                let cap = crate::fused::max_buckets(wpb, kv);
                for m in [32u32, 33, cap - 1, cap, cap + 1, cap + 7] {
                    let method = Method::auto_for(m, kv, wpb);
                    let bucket = RangeBuckets::new(m);
                    let (expect, _) = multisplit_ref(&keys, &bucket);
                    let vals = GlobalBuffer::from_slice(&keys);
                    let r = multisplit_device(
                        &dev,
                        method,
                        &buf,
                        kv.then_some(&vals),
                        keys.len(),
                        &bucket,
                        wpb,
                    );
                    assert_eq!(
                        r.keys.to_vec(),
                        expect,
                        "wpb={wpb} kv={kv} m={m} {method:?}"
                    );
                }
            }
        }
    }

    /// The concrete pre-fix failure shape: at wpb = 32 the fused
    /// capacity is far below the default-block capacity, so an `m` that
    /// fits the default block must fall back to `LargeM`, not assert.
    #[test]
    fn auto_for_straddles_the_boundary_at_nondefault_wpb() {
        let wpb = 32usize;
        let cap_default = crate::fused::max_buckets(DEFAULT_WARPS_PER_BLOCK, false);
        let cap_wide = crate::fused::max_buckets(wpb, false);
        assert!(
            cap_wide < cap_default,
            "wider blocks must have less per-warp capacity for this test to bite"
        );
        let m = cap_wide + 1; // fits the default block, not wpb = 32
        assert_eq!(
            Method::auto_for(m, false, DEFAULT_WARPS_PER_BLOCK),
            Method::Fused
        );
        assert_eq!(Method::auto_for(m, false, wpb), Method::LargeM);
        // And the dispatched method actually runs at that block size.
        let dev = Device::new(K40C);
        let keys: Vec<u32> = (0..4096u32).map(|i| i.wrapping_mul(747796405)).collect();
        let bucket = RangeBuckets::new(m);
        let buf = GlobalBuffer::from_slice(&keys);
        let r = multisplit_device(
            &dev,
            Method::auto_for(m, false, wpb),
            &buf,
            crate::common::no_values(),
            keys.len(),
            &bucket,
            wpb,
        );
        let (expect, _) = multisplit_ref(&keys, &bucket);
        assert_eq!(r.keys.to_vec(), expect);
    }

    #[test]
    fn names_are_paper_terms() {
        assert_eq!(Method::Direct.name(), "Direct MS");
        assert_eq!(Method::WarpLevel.name(), "Warp-level MS");
        assert_eq!(Method::BlockLevel.name(), "Block-level MS");
        assert_eq!(Method::Fused.name(), "Fused MS");
    }

    #[test]
    fn host_api_round_trips() {
        let dev = Device::new(K40C);
        let keys: Vec<u32> = (0..5000u32).map(|i| i.wrapping_mul(2654435761)).collect();
        for m in [2u32, 10, 32, 64] {
            let bucket = RangeBuckets::new(m);
            let (out, offs) = multisplit(&dev, &keys, &bucket);
            let (expect, expect_offs) = multisplit_ref(&keys, &bucket);
            assert_eq!(out, expect, "m={m}");
            assert_eq!(offs, expect_offs, "m={m}");
        }
    }

    #[test]
    fn host_kv_api_round_trips() {
        let dev = Device::new(K40C);
        let keys: Vec<u32> = (0..3000u32).map(|i| i.wrapping_mul(40503)).collect();
        let values: Vec<u32> = (0..3000u32).collect();
        let bucket = RangeBuckets::new(12);
        let (ok, ov, offs) = multisplit_kv(&dev, &keys, &values, &bucket);
        let (ek, ev, eo) = multisplit_kv_ref(&keys, Some(&values), &bucket);
        assert_eq!(ok, ek);
        assert_eq!(ov, ev);
        assert_eq!(offs, eo);
    }

    #[test]
    fn every_explicit_method_agrees() {
        let dev = Device::new(K40C);
        let n = 4096;
        let keys: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(747796405)).collect();
        let bucket = RangeBuckets::new(24);
        let buf = GlobalBuffer::from_slice(&keys);
        let (expect, _) = multisplit_ref(&keys, &bucket);
        for method in [
            Method::Direct,
            Method::WarpLevel,
            Method::BlockLevel,
            Method::Fused,
        ] {
            let r = multisplit_device(
                &dev,
                method,
                &buf,
                crate::common::no_values(),
                n,
                &bucket,
                8,
            );
            assert_eq!(r.keys.to_vec(), expect, "{method:?}");
        }
    }
}
