//! Shared plumbing for the multisplit implementations: output type, bucket
//! evaluation, and the histogram-matrix conventions.
//!
//! All variants share the paper's `{pre-scan, scan, post-scan}` skeleton
//! over a histogram matrix `H` of shape `m x L` stored **row-vectorized**
//! (`H[bucket * L + subproblem]`), so that a single device-wide exclusive
//! scan of `H` produces `G`, whose entry `G[b*L + s]` is the final base
//! position for bucket `b` of subproblem `s` (equation (2)'s two global
//! terms at once).

use simt::{GlobalBuffer, Lanes, Scalar, WarpCtx};

use crate::bucket::BucketFn;

/// Result of a device multisplit: permuted keys (and values), plus the
/// `m + 1` bucket offsets (`offsets[b]..offsets[b+1]` is bucket `b`).
///
/// `V` is the payload type: `u32` for ordinary values, `u64` for the
/// packed (key, value) pairs of the reduced-bit sort path (paper §3.4).
pub struct DeviceMultisplit<V: Scalar = u32> {
    pub keys: GlobalBuffer<u32>,
    pub values: Option<GlobalBuffer<V>>,
    pub offsets: Vec<u32>,
}

/// Type-annotated `None` for the key-only paths, avoiding turbofish at
/// every call site: `multisplit_direct(&dev, &keys, no_values(), ...)`.
pub fn no_values() -> Option<&'static GlobalBuffer<u32>> {
    None
}

/// Evaluate the bucket function on a warp's keys, charging its ALU cost.
#[inline]
pub fn eval_buckets<B: BucketFn + ?Sized>(
    w: &WarpCtx,
    bucket: &B,
    keys: Lanes<u32>,
    mask: u32,
) -> Lanes<u32> {
    w.charge(bucket.eval_cost() * mask.count_ones() as u64);
    simt::lanes_from_fn(|l| bucket.bucket_of(keys[l]))
}

/// Read the `m + 1` bucket offsets off the scanned matrix `G`: bucket `b`
/// starts at `G[b * l]` (the count of all elements in earlier buckets).
pub fn offsets_from_scanned(g: &GlobalBuffer<u32>, m: usize, l: usize, n: usize) -> Vec<u32> {
    let mut offsets = Vec::with_capacity(m + 1);
    for b in 0..m {
        offsets.push(g.get(b * l));
    }
    offsets.push(n as u32);
    offsets
}

/// Shared-memory budget of a sweep-style kernel, in 32-bit words: the full
/// 48 kB block capacity, spent exactly. Single source of truth for the
/// coarsening / capacity searches of the shared tile sweep
/// ([`crate::sweep::items_per_thread`]) — a path that reserved
/// private slack (as `fused` once did with a 512-byte margin) would
/// disagree with the others about whether a footprint "fits", and the
/// disagreement only surfaces at capacity boundaries the tests happen to
/// straddle.
pub const SMEM_BUDGET_WORDS: usize = simt::SMEM_CAPACITY_BYTES / 4;

/// Shared-memory staging words per staged element in a block-wide reorder:
/// one word for the permuted key plus `value_words` for the payload (0
/// key-only, 1 for `u32` values, 2 for packed `u64` pairs). No bucket id is
/// staged: the scatter recomputes it from the key (paper §5.1). Single
/// source of truth for the shared-memory budgets of both the three-kernel
/// `large_m` path and the sweep — they must never disagree on how big
/// staging is.
pub const fn staging_words_per_element(value_words: usize) -> usize {
    1 + value_words
}

/// Run a caller-provided-output entry point (`multisplit_*_into`) on fresh
/// `n`-element outputs with the write-race detector on, and wrap the
/// result.
pub fn with_fresh_outputs<V: Scalar>(
    n: usize,
    with_values: bool,
    into: impl FnOnce(&GlobalBuffer<u32>, Option<&GlobalBuffer<V>>) -> Vec<u32>,
) -> DeviceMultisplit<V> {
    let keys = GlobalBuffer::<u32>::zeroed(n).tracked();
    let values = with_values.then(|| GlobalBuffer::<V>::zeroed(n).tracked());
    let offsets = into(&keys, values.as_ref());
    DeviceMultisplit {
        keys,
        values,
        offsets,
    }
}

/// Empty result (n = 0): all-zero offsets, no launches.
pub fn empty_result<V: Scalar>(m: usize, with_values: bool) -> DeviceMultisplit<V> {
    DeviceMultisplit {
        keys: GlobalBuffer::zeroed(0),
        values: with_values.then(|| GlobalBuffer::zeroed(0)),
        offsets: vec![0; m + 1],
    }
}

/// Inputs and counters shared by the per-path unit tests.
#[cfg(test)]
pub(crate) mod test_util {
    use simt::{BlockStats, Device};

    /// `n` well-spread keys: a multiplicative hash of the index plus `seed`.
    pub fn keys_for(n: usize, seed: u32) -> Vec<u32> {
        (0..n as u32)
            .map(|i| i.wrapping_mul(2654435761).wrapping_add(seed))
            .collect()
    }

    /// Counted stats summed over `dev`'s launches whose label starts with
    /// `prefix` (`""` for all of them).
    pub fn stats_of(dev: &Device, prefix: &str) -> BlockStats {
        dev.records()
            .iter()
            .filter(|r| r.label.starts_with(prefix))
            .fold(BlockStats::default(), |mut a, r| {
                a += r.stats;
                a
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::RangeBuckets;
    use simt::{lanes_from_fn, StatCells, FULL_MASK};

    #[test]
    fn eval_buckets_maps_and_charges() {
        let st = StatCells::default();
        let w = WarpCtx::new(0, 0, &st);
        let b = RangeBuckets::new(4);
        let keys = lanes_from_fn(|l| (l as u32) << 27);
        let ids = eval_buckets(&w, &b, keys, FULL_MASK);
        for l in 0..32 {
            assert_eq!(ids[l], b.bucket_of(keys[l]));
        }
        assert_eq!(st.lane_ops.get(), 4 * 32);
    }

    #[test]
    fn offsets_read_row_heads() {
        let g = GlobalBuffer::from_slice(&[0, 5, 10, 12, 20, 25, 30, 31]);
        // m = 2, L = 4: bucket 0 starts at G[0] = 0, bucket 1 at G[4] = 20.
        let offs = offsets_from_scanned(&g, 2, 4, 33);
        assert_eq!(offs, vec![0, 20, 33]);
    }

    #[test]
    fn empty_result_shape() {
        let r = empty_result::<u32>(5, true);
        assert_eq!(r.offsets, vec![0; 6]);
        assert!(r.values.is_some());
        assert_eq!(r.keys.len(), 0);
    }
}
