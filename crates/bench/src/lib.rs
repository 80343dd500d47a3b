//! # ms-bench — harness regenerating the paper's tables and figures
//!
//! Shared machinery for the `paper` binary and perfbench:
//! workload generators matching §6's setups (uniform / binomial /
//! 25%-uniform key distributions over range buckets), contender runners
//! that execute a method on a fresh device and verify its output against
//! the CPU reference, and per-stage time grouping for the Table 4
//! breakdown.

pub mod metrics;
pub mod report;
pub mod serve;

pub use report::{Report, Table};

use msrng::SmallRng;

use multisplit::{
    check_multisplit, multisplit_device, multisplit_kv_ref, BucketFn, Method, RangeBuckets,
};
use simt::{Device, DeviceProfile, GlobalBuffer, Schedule};

thread_local! {
    static RUN_SCHEDULE: std::cell::Cell<Schedule> =
        const { std::cell::Cell::new(Schedule::Parallel) };
}

/// The block schedule contender runners use for their devices (default
/// [`Schedule::Parallel`], matching `Device::new`).
pub fn run_schedule() -> Schedule {
    RUN_SCHEDULE.with(std::cell::Cell::get)
}

/// Run `f` with every contender launched under `schedule` on this host
/// thread (RAII restore, like `simt::with_flight_capacity`). `paper trace`
/// uses this to rerun pipelines sequentially, where the flight
/// recorder's exact critical path must equal the modeled one.
pub fn with_run_schedule<R>(schedule: Schedule, f: impl FnOnce() -> R) -> R {
    struct Restore(Schedule);
    impl Drop for Restore {
        fn drop(&mut self) {
            RUN_SCHEDULE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(RUN_SCHEDULE.with(|c| c.replace(schedule)));
    f()
}

/// Initial key distribution over buckets (paper §6.5 / Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Uniform over all buckets — the paper's default and worst case.
    Uniform,
    /// Binomial B(m-1, 0.5): keys concentrate in middle buckets.
    Binomial,
    /// 25% of keys uniform over buckets, 75% in a single bucket.
    Skew75,
}

impl Distribution {
    pub fn name(&self) -> &'static str {
        match self {
            Distribution::Uniform => "uniform",
            Distribution::Binomial => "binomial",
            Distribution::Skew75 => "0.25-uniform",
        }
    }
}

/// Generate `n` keys whose [`RangeBuckets`]`(m)` bucket ids follow `dist`.
pub fn gen_keys(n: usize, m: u32, dist: Distribution, seed: u64) -> Vec<u32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let bucket = RangeBuckets::new(m);
    let width = (1u64 << 32).div_ceil(m as u64);
    let key_in_bucket = |b: u32, rng: &mut SmallRng| -> u32 {
        let lo = b as u64 * width;
        let hi = ((b as u64 + 1) * width).min(1 << 32);
        rng.gen_range(lo..hi) as u32
    };
    let mut keys = Vec::with_capacity(n);
    for _ in 0..n {
        let b = match dist {
            Distribution::Uniform => rng.gen_range(0..m),
            Distribution::Binomial => {
                // Sum of m-1 fair Bernoulli trials.
                let mut s = 0u32;
                for _ in 0..m.saturating_sub(1) {
                    s += rng.gen_bool(0.5) as u32;
                }
                s
            }
            Distribution::Skew75 => {
                if rng.gen_bool(0.25) {
                    rng.gen_range(0..m)
                } else {
                    m / 2
                }
            }
        };
        keys.push(key_in_bucket(b, &mut rng));
    }
    debug_assert!(keys.iter().all(|&k| bucket.bucket_of(k) < m));
    keys
}

/// Values are element indices, so verification can track permutations.
pub fn gen_values(n: usize) -> Vec<u32> {
    (0..n as u32).collect()
}

/// The paper's stage taxonomy for a launch label.
pub fn stage_of(label: &str) -> &'static str {
    // The final path segment names the kernel; scopes name the algorithm.
    let kernel = label.rsplit('/').next().unwrap_or(label);
    if label.contains("pre-scan") {
        "pre-scan"
    } else if label.contains("post-scan") {
        "post-scan"
    } else if kernel.starts_with("sweep") {
        // The fused pipelines' main kernel: local scan + look-back +
        // reorder + scatter in one (fused's histogram pass is a
        // pre-scan).
        "sweep"
    } else if kernel.starts_with("scatter") {
        // `compact_by_pred`'s final kernel (`{label}/scatter`): the kept
        // elements written to their scanned positions.
        "scatter"
    } else if kernel.starts_with("scan") {
        "scan"
    } else if kernel.contains("label") {
        "labeling"
    } else if kernel.contains("pack") {
        "packing"
    } else if kernel == "bits" {
        // A bit-range probe. ms-sort no longer runs one (its pre-scan's
        // histograms lay out the passes), but the stage stays named so
        // reports that break stages out keep their columns.
        "probe"
    } else if kernel == "permute" {
        // Payload gather by a sorted index permutation.
        "permute"
    } else if label.contains("/sort") || label.contains("/pass") || label.contains("radix") {
        "sorting"
    } else if label.contains("split") {
        "splitting"
    } else {
        "other"
    }
}

/// Aggregate a device's launch log into (stage -> seconds).
pub fn stage_seconds(dev: &Device) -> Vec<(&'static str, f64)> {
    let mut acc: Vec<(&'static str, f64)> = Vec::new();
    for r in dev.records() {
        let s = stage_of(&r.label);
        match acc.iter_mut().find(|(k, _)| *k == s) {
            Some((_, t)) => *t += r.seconds,
            None => acc.push((s, r.seconds)),
        }
    }
    acc
}

/// Aggregate a device's launch log into (stage -> global-memory sectors) —
/// the per-stage traffic view behind the chained-vs-recursive scan claim.
pub fn stage_sector_counts(dev: &Device) -> Vec<(&'static str, u64)> {
    let mut acc: Vec<(&'static str, u64)> = Vec::new();
    for r in dev.records() {
        let s = stage_of(&r.label);
        match acc.iter_mut().find(|(k, _)| *k == s) {
            Some((_, c)) => *c += r.stats.sectors,
            None => acc.push((s, r.stats.sectors)),
        }
    }
    acc
}

/// Sectors and modeled seconds of a device's `scan`-stage launches.
pub fn scan_stage_cost(dev: &Device) -> (u64, f64) {
    dev.records()
        .iter()
        .filter(|r| stage_of(&r.label) == "scan")
        .fold((0, 0.0), |(s, t), r| (s + r.stats.sectors, t + r.seconds))
}

/// The m x L histogram a three-kernel method scans: bucket-major rows, one
/// column per `sub`-key subproblem (32 keys for Direct and Warp-level, a
/// block's `32 * wpb` for Block-level).
pub fn subproblem_histogram<B: BucketFn + ?Sized>(
    keys: &[u32],
    bucket: &B,
    sub: usize,
) -> Vec<u32> {
    let l = keys.len().div_ceil(sub);
    let mut hist = vec![0u32; bucket.num_buckets() as usize * l];
    for (j, chunk) in keys.chunks(sub).enumerate() {
        for &k in chunk {
            hist[bucket.bucket_of(k) as usize * l + j] += 1;
        }
    }
    hist
}

/// Every method the evaluation compares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Contender {
    Direct,
    WarpLevel,
    BlockLevel,
    /// Single-pass fused pipeline (per-bucket decoupled look-back), for
    /// any m up to its shared-memory capacity.
    Fused,
    /// Block-level for m > 32.
    LargeM,
    /// Reduced-bit sort (§3.4) with its labels sorted by ms-sort.
    ReducedBit,
    RecursiveSplit,
    /// One scan-based split (Table 3's second baseline); runs at m = 2.
    ScanSplit,
    /// Full 32-bit radix sort (valid as multisplit for range buckets).
    RadixSort,
    /// ms-sort: multisplit-iterated radix sort on the fused pipelines,
    /// with the effective-bit-range fast path (crates/sort).
    MsSort,
    /// Radix sort on identity buckets (keys are bucket ids; Table 4's
    /// footnoted comparison row).
    IdentitySort,
    Randomized(f64),
}

impl Contender {
    pub fn name(&self) -> String {
        match self {
            Contender::Direct => "Direct MS".into(),
            Contender::WarpLevel => "Warp-level MS".into(),
            Contender::BlockLevel => "Block-level MS".into(),
            Contender::Fused => "Fused MS".into(),
            Contender::LargeM => "Block-level MS".into(),
            Contender::ReducedBit => "Reduced-bit sort".into(),
            Contender::RecursiveSplit => "Recursive scan split".into(),
            Contender::ScanSplit => "Scan-based split".into(),
            Contender::RadixSort => "Radix sort (CUB-like)".into(),
            Contender::MsSort => "ms-sort (fused MS radix)".into(),
            Contender::IdentitySort => "Sort on identity buckets".into(),
            Contender::Randomized(x) => format!("Randomized insertion (x={x})"),
        }
    }
}

/// One measured run: total estimated seconds, the per-stage split (time
/// and DRAM sectors), and the full launch log it was derived from (for
/// scope-tree roll-ups, per-block reports and the `--json` sink).
pub struct Outcome {
    pub total: f64,
    pub stages: Vec<(&'static str, f64)>,
    pub sectors: Vec<(&'static str, u64)>,
    /// Per-input-buffer DRAM read sectors (`GlobalBuffer::read_sectors`):
    /// how often the run actually touched its key/value inputs — the
    /// counter behind the paper's "reads the keys once vs twice" claims.
    pub buffer_reads: Vec<(&'static str, u64)>,
    pub records: Vec<simt::LaunchRecord>,
}

impl Outcome {
    /// Everything launched on `dev` so far (its launch log is taken),
    /// with no buffer reads.
    pub fn of(dev: &Device) -> Self {
        Outcome {
            total: dev.total_seconds(),
            stages: stage_seconds(dev),
            sectors: stage_sector_counts(dev),
            buffer_reads: Vec::new(),
            records: dev.take_records(),
        }
    }

    /// `stat` summed over the launches.
    pub fn sum(&self, stat: impl Fn(&simt::LaunchRecord) -> u64) -> u64 {
        self.records.iter().map(stat).sum()
    }

    pub fn stage(&self, name: &str) -> f64 {
        self.stages
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, t)| *t)
            .unwrap_or(0.0)
    }

    /// Global-memory sectors moved by one stage.
    pub fn stage_sectors(&self, name: &str) -> u64 {
        self.sectors
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }

    /// Global-memory sectors moved by the whole run.
    pub fn total_sectors(&self) -> u64 {
        self.sectors.iter().map(|(_, s)| s).sum()
    }

    /// Processing rate in G keys/s for `n` keys.
    pub fn gkeys(&self, n: usize) -> f64 {
        n as f64 / self.total / 1e9
    }
}

/// One contender run: the method, its input and the device it runs on.
/// Call sites start from [`Run::new`] and set the fields that differ
/// (`Run { key_value: true, ..Run::new(c, n, m) }`).
#[derive(Debug, Clone, Copy)]
pub struct Run {
    pub contender: Contender,
    pub key_value: bool,
    pub n: usize,
    /// Range buckets the keys fall into.
    pub m: u32,
    pub dist: Distribution,
    pub profile: DeviceProfile,
    /// Warps per block.
    pub wpb: usize,
    pub seed: u64,
    /// Check the output against the CPU reference.
    pub verify: bool,
}

impl Run {
    /// Key-only uniform keys at seed 0 on the K40c, 8 warps per block,
    /// verified.
    pub fn new(contender: Contender, n: usize, m: u32) -> Self {
        Run {
            contender,
            key_value: false,
            n,
            m,
            dist: Distribution::Uniform,
            profile: simt::K40C,
            wpb: 8,
            seed: 0,
            verify: true,
        }
    }
}

/// What a contender hands back for verification.
enum Output {
    /// A stable multisplit: keys, values, bucket offsets.
    Split(Vec<u32>, Option<Vec<u32>>, Vec<u32>),
    /// A stable sort: keys, values.
    Sorted(Vec<u32>, Option<Vec<u32>>),
    /// An unstable multisplit: keys, bucket offsets.
    Unstable(Vec<u32>, Vec<u32>),
}

/// Run one contender on a fresh device, verify its output when
/// `run.verify` is set, and report its timing breakdown (also into the
/// armed `--json` sink).
pub fn run_contender(run: &Run) -> Outcome {
    let &Run {
        contender,
        key_value,
        n,
        m,
        dist,
        profile,
        wpb,
        seed,
        verify,
    } = run;
    assert!(
        m == 2 || contender != Contender::ScanSplit,
        "the scan-based split runs at m = 2, got m = {m}"
    );
    let keys_host = if matches!(contender, Contender::IdentitySort) {
        // Identity buckets: keys *are* bucket ids.
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..m)).collect::<Vec<u32>>()
    } else {
        gen_keys(n, m, dist, seed)
    };
    let values_host = key_value.then(|| gen_values(n));
    let bucket = RangeBuckets::new(m);
    let dev = Device::with_schedule(profile, run_schedule());
    let keys = GlobalBuffer::from_slice(&keys_host);
    let values = values_host.as_ref().map(|v| GlobalBuffer::from_slice(v));
    let host = |v: Option<GlobalBuffer<u32>>| v.map(|v| v.to_vec());

    let output = match contender {
        Contender::Direct
        | Contender::WarpLevel
        | Contender::BlockLevel
        | Contender::Fused
        | Contender::LargeM => {
            let method = match contender {
                Contender::Direct => Method::Direct,
                Contender::WarpLevel => Method::WarpLevel,
                Contender::BlockLevel => Method::BlockLevel,
                Contender::Fused => Method::Fused,
                _ => Method::LargeM,
            };
            let r = multisplit_device(&dev, method, &keys, values.as_ref(), n, &bucket, wpb);
            Output::Split(r.keys.to_vec(), host(r.values), r.offsets)
        }
        Contender::ReducedBit => {
            // The label sort runs on this repo's ms-sort extension, not the
            // paper's `Legacy` pipeline (ROADMAP.md, paper-faithful baselines).
            let strategy = baselines::ReducedBitStrategy::MsSort;
            if let Some(v) = &values {
                let (k, v, o) =
                    baselines::reduced_bit_multisplit_kv(&dev, strategy, &keys, v, n, &bucket, wpb);
                Output::Split(k.to_vec(), Some(v.to_vec()), o)
            } else {
                let (k, o) =
                    baselines::reduced_bit_multisplit(&dev, strategy, &keys, n, &bucket, wpb);
                Output::Split(k.to_vec(), None, o)
            }
        }
        Contender::RecursiveSplit => {
            let (k, v, o) =
                baselines::recursive_scan_multisplit(&dev, &keys, values.as_ref(), n, &bucket, wpb);
            Output::Split(k.to_vec(), host(v), o)
        }
        Contender::ScanSplit => {
            let (k, v, o) =
                baselines::scan_based_split(&dev, &keys, values.as_ref(), n, wpb, move |k| {
                    bucket.bucket_of(k) == 1
                });
            Output::Split(k.to_vec(), host(v), o)
        }
        Contender::RadixSort | Contender::IdentitySort => {
            // Identity buckets: keys are bucket ids, so (as CUB's
            // begin_bit/end_bit API allows) only ceil(log2 m) bits need
            // sorting — the paper's footnoted comparison row.
            let bits = if matches!(contender, Contender::IdentitySort) {
                baselines::label_bits(m)
            } else {
                32
            };
            let (k, v) =
                baselines::radix_sort_by_bits(&dev, "radix", &keys, values.as_ref(), n, bits, wpb);
            Output::Sorted(k.to_vec(), host(v))
        }
        Contender::MsSort => {
            let (k, v) = if let Some(v) = &values {
                let (k, v) = ms_sort::sort_pairs(&dev, &keys, v, n, wpb);
                (k, Some(v))
            } else {
                (ms_sort::sort_keys(&dev, &keys, n, wpb), None)
            };
            Output::Sorted(k.to_vec(), host(v))
        }
        Contender::Randomized(x) => {
            assert!(
                !key_value,
                "the randomized baseline is key-only (paper §3.5)"
            );
            let cfg = baselines::RandomizedConfig {
                relaxation: x,
                wpb,
                ..Default::default()
            };
            let (k, o) = baselines::randomized_multisplit(&dev, &keys, n, &bucket, cfg);
            Output::Unstable(k.to_vec(), o)
        }
    };

    if verify {
        let name = contender.name();
        match output {
            Output::Split(k, v, o) => {
                let (ek, ev, eo) = multisplit_kv_ref(&keys_host, values_host.as_deref(), &bucket);
                assert_eq!(k, ek, "{name} keys mismatch");
                assert_eq!(o, eo, "{name} offsets mismatch");
                if let Some(v) = v {
                    assert_eq!(v, ev, "{name} values mismatch");
                }
            }
            Output::Sorted(k, v) => {
                // The sorts promise agreement with a host stable sort; the
                // values are element indices, so stability shows in them.
                let mut expect: Vec<(u32, u32)> =
                    keys_host.iter().copied().zip(gen_values(n)).collect();
                expect.sort_by_key(|&(k, _)| k);
                let ek: Vec<u32> = expect.iter().map(|&(k, _)| k).collect();
                assert_eq!(k, ek, "{name} keys mismatch");
                if let Some(v) = v {
                    let ev: Vec<u32> = expect.iter().map(|&(_, v)| v).collect();
                    assert_eq!(v, ev, "{name} values mismatch");
                }
            }
            Output::Unstable(k, o) => {
                check_multisplit(&keys_host, &k, &o, &bucket).expect("randomized output invalid")
            }
        }
    }

    let mut buffer_reads = vec![("keys", keys.read_sectors())];
    if let Some(v) = &values {
        buffer_reads.push(("values", v.read_sectors()));
    }
    let outcome = Outcome {
        buffer_reads,
        ..Outcome::of(&dev)
    };
    if metrics::sink_active() {
        metrics::sink_push("run", metrics::run_entry(run, &outcome));
    }
    outcome
}

/// Format milliseconds with two decimals.
pub fn ms(seconds: f64) -> String {
    format!("{:.2}", seconds * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_keys_fill_buckets_evenly() {
        let m = 8;
        let keys = gen_keys(8000, m, Distribution::Uniform, 1);
        let bucket = RangeBuckets::new(m);
        let mut h = vec![0u32; m as usize];
        for k in keys {
            h[bucket.bucket_of(k) as usize] += 1;
        }
        for c in h {
            assert!((c as i64 - 1000).abs() < 200, "count {c}");
        }
    }

    #[test]
    fn binomial_keys_peak_in_the_middle() {
        let m = 16;
        let keys = gen_keys(16000, m, Distribution::Binomial, 2);
        let bucket = RangeBuckets::new(m);
        let mut h = vec![0u32; m as usize];
        for k in keys {
            h[bucket.bucket_of(k) as usize] += 1;
        }
        let mid: u32 = h[6..10].iter().sum();
        let edges: u32 = h[0..2].iter().sum::<u32>() + h[14..16].iter().sum::<u32>();
        assert!(
            mid > 10 * edges.max(1),
            "binomial mass must concentrate centrally: {h:?}"
        );
    }

    #[test]
    fn skew_keys_pile_into_one_bucket() {
        let m = 8;
        let keys = gen_keys(8000, m, Distribution::Skew75, 3);
        let bucket = RangeBuckets::new(m);
        let mut h = vec![0u32; m as usize];
        for k in keys {
            h[bucket.bucket_of(k) as usize] += 1;
        }
        assert!(h[4] > 8000 * 3 / 4, "75% bucket got {}", h[4]);
    }

    #[test]
    fn stage_classification() {
        assert_eq!(stage_of("direct/pre-scan"), "pre-scan");
        assert_eq!(stage_of("direct/scan/scan-chained"), "scan");
        assert_eq!(stage_of("direct/scan/scan-reduce"), "scan");
        assert_eq!(stage_of("reduced/sort/pass0/scan/scan-reduce"), "scan");
        assert_eq!(stage_of("recursive-split/round0/scan/scan-single"), "scan");
        assert_eq!(stage_of("direct/post-scan"), "post-scan");
        assert_eq!(stage_of("fused/pre-scan"), "pre-scan");
        assert_eq!(stage_of("fused/sweep"), "sweep");
        assert_eq!(stage_of("c/scatter"), "scatter");
        assert_eq!(stage_of("reduced/label"), "labeling");
        assert_eq!(stage_of("reduced/sort/pass0/block/pre-scan"), "pre-scan");
        assert_eq!(stage_of("reduced/pack"), "packing");
        assert_eq!(stage_of("recursive-split/round0/split"), "splitting");
        // ms-sort runs one all-digit pre-scan and scopes each digit
        // pass; the kernel segment wins, so sweeps classify as sweeps
        // even under a "/passK" scope.
        assert_eq!(stage_of("ms_sort/pre-scan"), "pre-scan");
        assert_eq!(stage_of("ms_sort/pass2/fused_large_m/sweep"), "sweep");
        assert_eq!(stage_of("ms_sort/bits"), "probe");
        assert_eq!(stage_of("ms_sort/permute"), "permute");
    }

    #[test]
    fn ms_sort_contender_runs_and_verifies() {
        for kv in [false, true] {
            let o = run_contender(&Run {
                key_value: kv,
                seed: 7,
                ..Run::new(Contender::MsSort, 4096, 8)
            });
            assert!(o.stage("sweep") > 0.0, "kv={kv}");
            assert!(o.stage("pre-scan") > 0.0, "kv={kv}");
            assert_eq!(o.stage_sectors("probe"), 0, "kv={kv}: no bits probe");
        }
    }

    #[test]
    fn contender_runs_and_verifies() {
        for c in [
            Contender::Direct,
            Contender::WarpLevel,
            Contender::BlockLevel,
            Contender::Fused,
            Contender::ReducedBit,
            Contender::RadixSort,
            Contender::IdentitySort,
        ] {
            for kv in [false, true] {
                let o = run_contender(&Run {
                    key_value: kv,
                    seed: 1,
                    ..Run::new(c, 4096, 8)
                });
                assert!(o.total > 0.0, "{} kv={kv}", c.name());
            }
        }
        // The m > 32 pair needs a larger bucket count.
        for c in [Contender::LargeM, Contender::Fused] {
            let o = run_contender(&Run {
                seed: 1,
                ..Run::new(c, 4096, 64)
            });
            assert!(o.total > 0.0, "{}", c.name());
        }
    }

    #[test]
    fn kv_contender_runs_and_verifies() {
        let o = run_contender(&Run {
            key_value: true,
            dist: Distribution::Binomial,
            seed: 2,
            ..Run::new(Contender::BlockLevel, 4096, 16)
        });
        assert!(o.stage("post-scan") > 0.0);
        assert!(o.gkeys(4096) > 0.0);
    }

    #[test]
    fn scan_split_runs() {
        for kv in [false, true] {
            let o = run_contender(&Run {
                key_value: kv,
                seed: 5,
                ..Run::new(Contender::ScanSplit, 4096, 2)
            });
            assert!(o.stage("splitting") > 0.0 || o.stage("scan") > 0.0);
        }
    }
}
