//! Bucket identification: the programmer-supplied function at the heart of
//! multisplit (paper §3.1).
//!
//! A [`BucketFn`] maps a 32-bit key to a bucket id in `0..m`. The paper's
//! benchmarks use buckets that equally divide the key domain
//! ([`RangeBuckets`]); applications supply their own — delta-stepping SSSP
//! bins by `weight / Δ` ([`DeltaBuckets`]), Figure 1 demonstrates a
//! prime/composite classifier ([`PrimeComposite`]), and the degenerate
//! [`IdentityBuckets`] case (where keys *are* bucket ids) is the one
//! scenario the paper shows radix sort winning (§3.1, Table 4 footnote).

/// Maps keys to buckets. Implementations must be cheap and pure: the
/// kernels recompute bucket ids rather than carry them (paper §5.1) — a
/// multi-tile direct sweep evaluates each key in pre-scan, count and scatter.
pub trait BucketFn: Sync {
    /// Number of buckets `m`. Every key must map into `0..m`.
    fn num_buckets(&self) -> u32;

    /// The bucket of `key`; must be `< num_buckets()`.
    fn bucket_of(&self, key: u32) -> u32;

    /// Approximate ALU cost of one evaluation, for the performance model.
    fn eval_cost(&self) -> u64 {
        4
    }
}

/// `m` buckets that equally divide the full `u32` domain — the paper's
/// benchmark setup ("buckets are defined to equally divide the 32-bit
/// domain", §6).
#[derive(Debug, Clone, Copy)]
pub struct RangeBuckets {
    m: u32,
    width: u64,
}

impl RangeBuckets {
    pub fn new(m: u32) -> Self {
        assert!(m >= 1, "need at least one bucket");
        // Ceiling division so m * width covers the whole domain.
        let width = (1u64 << 32).div_ceil(m as u64);
        Self { m, width }
    }
}

impl BucketFn for RangeBuckets {
    fn num_buckets(&self) -> u32 {
        self.m
    }
    #[inline]
    fn bucket_of(&self, key: u32) -> u32 {
        ((key as u64 / self.width) as u32).min(self.m - 1)
    }
}

/// Buckets of fixed width `delta` starting at `origin`, clamped to `m-1`:
/// the delta-stepping SSSP bucketing function (`bucket = (dist - base)/Δ`).
#[derive(Debug, Clone, Copy)]
pub struct DeltaBuckets {
    pub origin: u32,
    pub delta: u32,
    pub m: u32,
}

impl DeltaBuckets {
    pub fn new(origin: u32, delta: u32, m: u32) -> Self {
        assert!(delta >= 1 && m >= 1);
        Self { origin, delta, m }
    }
}

impl BucketFn for DeltaBuckets {
    fn num_buckets(&self) -> u32 {
        self.m
    }
    #[inline]
    fn bucket_of(&self, key: u32) -> u32 {
        let rel = key.saturating_sub(self.origin);
        (rel / self.delta).min(self.m - 1)
    }
}

/// Keys are already bucket ids (`B_i = {i}`): the trivial case of §3.1
/// where plain radix sort is the right tool. Included for the Table 4
/// "sort on identity buckets" comparison row.
#[derive(Debug, Clone, Copy)]
pub struct IdentityBuckets {
    pub m: u32,
}

impl BucketFn for IdentityBuckets {
    fn num_buckets(&self) -> u32 {
        self.m
    }
    #[inline]
    fn bucket_of(&self, key: u32) -> u32 {
        debug_assert!(key < self.m, "identity bucket key {key} out of range");
        key % self.m
    }
    fn eval_cost(&self) -> u64 {
        1
    }
}

/// Bucket = low `bits` bits of the key (radix-digit style buckets).
#[derive(Debug, Clone, Copy)]
pub struct LsbBuckets {
    pub bits: u32,
}

impl BucketFn for LsbBuckets {
    fn num_buckets(&self) -> u32 {
        1 << self.bits
    }
    #[inline]
    fn bucket_of(&self, key: u32) -> u32 {
        key & ((1 << self.bits) - 1)
    }
    fn eval_cost(&self) -> u64 {
        1
    }
}

/// Bucket = `bits`-wide field of the key starting at bit `shift` — the
/// digit extractor of the multisplit-iterated radix sort (paper §3.3):
/// pass `k` of ms-sort runs a multisplit with
/// `DigitBuckets { shift: k * b, bits: b }`. Generalizes [`LsbBuckets`]
/// (which is `shift = 0`).
#[derive(Debug, Clone, Copy)]
pub struct DigitBuckets {
    pub shift: u32,
    pub bits: u32,
}

impl DigitBuckets {
    pub fn new(shift: u32, bits: u32) -> Self {
        assert!((1..=32).contains(&bits), "digit width out of range");
        assert!(shift < 32, "shift past the key width");
        Self { shift, bits }
    }
}

impl BucketFn for DigitBuckets {
    fn num_buckets(&self) -> u32 {
        1 << self.bits
    }
    #[inline]
    fn bucket_of(&self, key: u32) -> u32 {
        (key >> self.shift) & (((1u64 << self.bits) - 1) as u32)
    }
    fn eval_cost(&self) -> u64 {
        1
    }
}

/// Figure 1's classifier: bucket 0 = prime, bucket 1 = composite (0 and 1
/// count as composite for this demo, matching the figure's example set).
#[derive(Debug, Clone, Copy, Default)]
pub struct PrimeComposite;

/// Deterministic primality for `u32` by trial division — fine for the
/// example workloads this classifier serves.
pub fn is_prime(n: u32) -> bool {
    if n < 2 {
        return false;
    }
    if n.is_multiple_of(2) {
        return n == 2;
    }
    if n.is_multiple_of(3) {
        return n == 3;
    }
    let mut d = 5u64;
    while d * d <= n as u64 {
        if (n as u64).is_multiple_of(d) || (n as u64).is_multiple_of(d + 2) {
            return false;
        }
        d += 6;
    }
    true
}

impl BucketFn for PrimeComposite {
    fn num_buckets(&self) -> u32 {
        2
    }
    #[inline]
    fn bucket_of(&self, key: u32) -> u32 {
        (!is_prime(key)) as u32
    }
    fn eval_cost(&self) -> u64 {
        64
    }
}

/// Wrap an arbitrary closure as a bucket function.
pub struct FnBuckets<F> {
    m: u32,
    f: F,
}

impl<F: Fn(u32) -> u32 + Sync> FnBuckets<F> {
    pub fn new(m: u32, f: F) -> Self {
        assert!(m >= 1);
        Self { m, f }
    }
}

impl<F: Fn(u32) -> u32 + Sync> BucketFn for FnBuckets<F> {
    fn num_buckets(&self) -> u32 {
        self.m
    }
    #[inline]
    fn bucket_of(&self, key: u32) -> u32 {
        let b = (self.f)(key);
        debug_assert!(b < self.m, "bucket function returned {b} >= m={}", self.m);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_buckets_cover_domain_in_order() {
        for m in [1u32, 2, 3, 5, 8, 17, 32, 64, 100] {
            let b = RangeBuckets::new(m);
            assert_eq!(b.bucket_of(0), 0, "m={m}");
            assert_eq!(b.bucket_of(u32::MAX), m - 1, "m={m}");
            // Monotone in the key.
            let mut prev = 0;
            for i in 0..=100u64 {
                let k = (i * (u32::MAX as u64) / 100) as u32;
                let cur = b.bucket_of(k);
                assert!(cur >= prev && cur < m, "m={m} key={k}");
                prev = cur;
            }
        }
    }

    #[test]
    fn range_buckets_are_roughly_equal_width() {
        let m = 7;
        let b = RangeBuckets::new(m);
        let mut counts = vec![0u64; m as usize];
        for i in 0..10_000u64 {
            let k = (i * 4_294_967_295 / 10_000) as u32;
            counts[b.bucket_of(k) as usize] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(max - min < 100, "counts {counts:?}");
    }

    #[test]
    fn delta_buckets_bin_by_width() {
        let d = DeltaBuckets::new(100, 10, 5);
        assert_eq!(d.bucket_of(0), 0, "below origin clamps to 0");
        assert_eq!(d.bucket_of(100), 0);
        assert_eq!(d.bucket_of(109), 0);
        assert_eq!(d.bucket_of(110), 1);
        assert_eq!(d.bucket_of(149), 4);
        assert_eq!(d.bucket_of(10_000), 4, "clamps to last bucket");
    }

    #[test]
    fn identity_and_lsb() {
        let id = IdentityBuckets { m: 8 };
        for k in 0..8 {
            assert_eq!(id.bucket_of(k), k);
        }
        let lsb = LsbBuckets { bits: 3 };
        assert_eq!(lsb.num_buckets(), 8);
        assert_eq!(lsb.bucket_of(0b10110101), 0b101);
    }

    #[test]
    fn digit_buckets_extract_shifted_fields() {
        let d = DigitBuckets::new(0, 3);
        assert_eq!(d.num_buckets(), 8);
        assert_eq!(d.bucket_of(0b10110101), 0b101, "shift 0 matches LsbBuckets");
        let d = DigitBuckets::new(4, 4);
        assert_eq!(d.bucket_of(0xdead_beef), 0xe);
        let d = DigitBuckets::new(28, 4);
        assert_eq!(d.bucket_of(0xdead_beef), 0xd, "top digit");
        // A digit that spills past bit 31 still masks correctly.
        let d = DigitBuckets::new(30, 5);
        assert_eq!(d.num_buckets(), 32);
        assert_eq!(d.bucket_of(u32::MAX), 0b11);
    }

    #[test]
    fn primality() {
        let primes = [
            2u32, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 97, 7919, 104729, 2147483647,
        ];
        for p in primes {
            assert!(is_prime(p), "{p} is prime");
        }
        let composites = [0u32, 1, 4, 6, 9, 15, 21, 25, 100, 7917, 104730, 2147483646];
        for c in composites {
            assert!(!is_prime(c), "{c} is composite");
        }
        let pc = PrimeComposite;
        assert_eq!(pc.bucket_of(59), 0);
        assert_eq!(pc.bucket_of(46), 1);
    }

    #[test]
    fn figure_1_example() {
        // Paper Fig. 1: keys {59,46,31,6,25,82,3,17}; primes {59,31,3,17}
        // land in B0 in input order, composites {46,6,25,82} in B1.
        let pc = PrimeComposite;
        let keys = [59u32, 46, 31, 6, 25, 82, 3, 17];
        let b0: Vec<u32> = keys
            .iter()
            .copied()
            .filter(|&k| pc.bucket_of(k) == 0)
            .collect();
        let b1: Vec<u32> = keys
            .iter()
            .copied()
            .filter(|&k| pc.bucket_of(k) == 1)
            .collect();
        assert_eq!(b0, vec![59, 31, 3, 17]);
        assert_eq!(b1, vec![46, 6, 25, 82]);
    }

    #[test]
    fn fn_buckets_wraps_closures() {
        let f = FnBuckets::new(3, |k| k % 3);
        assert_eq!(f.num_buckets(), 3);
        assert_eq!(f.bucket_of(10), 1);
    }
}
