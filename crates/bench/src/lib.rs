//! # ms-bench — harness regenerating the paper's tables and figures
//!
//! Shared machinery for the `paper` binary and the criterion benches:
//! workload generators matching §6's setups (uniform / binomial /
//! 25%-uniform key distributions over range buckets), contender runners
//! that execute a method on a fresh device and verify its output against
//! the CPU reference, and per-stage time grouping for the Table 4
//! breakdown.

pub mod metrics;
pub mod microbench;
pub mod serve;

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
/// thread (RAII restore, like `simt::with_telemetry`). `paper trace`
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

    /// Processing rate in G keys/s for `n` keys.
    pub fn gkeys(&self, n: usize) -> f64 {
        n as f64 / self.total / 1e9
    }
}

/// Run one contender on `n` keys over `m` range buckets, verifying the
/// result, and report its timing breakdown.
#[allow(clippy::too_many_arguments)]
pub fn run_contender(
    contender: Contender,
    key_value: bool,
    n: usize,
    m: u32,
    dist: Distribution,
    profile: DeviceProfile,
    wpb: usize,
    seed: u64,
    verify: bool,
) -> Outcome {
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

    // Run, collecting the output for verification where the method
    // produces a multisplit (plain sorts are checked for sortedness).
    type HostOutput = Option<(Vec<u32>, Option<Vec<u32>>, Vec<u32>)>;
    let output: HostOutput = match contender {
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
            Some((r.keys.to_vec(), r.values.map(|v| v.to_vec()), r.offsets))
        }
        Contender::ReducedBit => {
            // The label sort runs on this repo's ms-sort extension, not the
            // paper's `Legacy` pipeline (ROADMAP.md, paper-faithful baselines).
            let strategy = baselines::ReducedBitStrategy::MsSort;
            if let Some(v) = &values {
                let (k, v, o) =
                    baselines::reduced_bit_multisplit_kv(&dev, strategy, &keys, v, n, &bucket, wpb);
                Some((k.to_vec(), Some(v.to_vec()), o))
            } else {
                let (k, o) =
                    baselines::reduced_bit_multisplit(&dev, strategy, &keys, n, &bucket, wpb);
                Some((k.to_vec(), None, o))
            }
        }
        Contender::RecursiveSplit => {
            let (k, v, o) =
                baselines::recursive_scan_multisplit(&dev, &keys, values.as_ref(), n, &bucket, wpb);
            Some((k.to_vec(), v.map(|v| v.to_vec()), o))
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
            if verify {
                let kv = k.to_vec();
                assert!(
                    kv.windows(2).all(|w| w[0] <= w[1]),
                    "radix output must be sorted"
                );
                let _ = v;
            }
            None
        }
        Contender::MsSort => {
            let (sk, sv) = if let Some(v) = &values {
                let (k, v) = ms_sort::sort_pairs(&dev, &keys, v, n, wpb);
                (k, Some(v))
            } else {
                (ms_sort::sort_keys(&dev, &keys, n, wpb), None)
            };
            if verify {
                // ms-sort promises bit-identical agreement with a host
                // stable sort — stronger than the sortedness check the
                // radix baseline gets.
                let mut expect: Vec<(u32, u32)> =
                    keys_host.iter().copied().zip(gen_values(n)).collect();
                expect.sort_by_key(|&(k, _)| k);
                let ek: Vec<u32> = expect.iter().map(|&(k, _)| k).collect();
                assert_eq!(sk.to_vec(), ek, "ms-sort keys mismatch");
                if let Some(sv) = &sv {
                    let ev: Vec<u32> = expect.iter().map(|&(_, v)| v).collect();
                    assert_eq!(sv.to_vec(), ev, "ms-sort stability mismatch");
                }
            }
            None
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
            if verify {
                check_multisplit(&keys_host, &k.to_vec(), &o, &bucket)
                    .expect("randomized output invalid");
            }
            None
        }
    };

    if verify {
        if let Some((out_k, out_v, offs)) = &output {
            let (ek, ev, eo) = multisplit_kv_ref(&keys_host, values_host.as_deref(), &bucket);
            assert_eq!(out_k, &ek, "{} keys mismatch", contender.name());
            assert_eq!(offs, &eo, "{} offsets mismatch", contender.name());
            if let Some(ov) = out_v {
                assert_eq!(ov, &ev, "{} values mismatch", contender.name());
            }
        }
    }

    let mut buffer_reads = vec![("keys", keys.read_sectors())];
    if let Some(v) = &values {
        buffer_reads.push(("values", v.read_sectors()));
    }
    let outcome = Outcome {
        total: dev.total_seconds(),
        stages: stage_seconds(&dev),
        sectors: stage_sector_counts(&dev),
        buffer_reads,
        records: dev.take_records(),
    };
    if metrics::sink_active() {
        metrics::sink_push(
            "run",
            metrics::run_entry(
                &contender.name(),
                key_value,
                n,
                m,
                dist,
                profile.name,
                wpb,
                seed,
                &outcome,
            ),
        );
    }
    outcome
}

/// Two-bucket scan-based split runner (Table 3's second baseline).
pub fn run_scan_split(
    key_value: bool,
    n: usize,
    profile: DeviceProfile,
    wpb: usize,
    seed: u64,
) -> Outcome {
    let keys_host = gen_keys(n, 2, Distribution::Uniform, seed);
    let bucket = RangeBuckets::new(2);
    let dev = Device::with_schedule(profile, run_schedule());
    let keys = GlobalBuffer::from_slice(&keys_host);
    let values_host = key_value.then(|| gen_values(n));
    let values = values_host.as_ref().map(|v| GlobalBuffer::from_slice(v));
    let (out, _, offs) =
        baselines::scan_based_split(&dev, &keys, values.as_ref(), n, wpb, move |k| {
            bucket.bucket_of(k) == 1
        });
    check_multisplit(&keys_host, &out.to_vec(), &offs, &bucket).expect("scan split invalid");
    let mut buffer_reads = vec![("keys", keys.read_sectors())];
    if let Some(v) = &values {
        buffer_reads.push(("values", v.read_sectors()));
    }
    let outcome = Outcome {
        total: dev.total_seconds(),
        stages: stage_seconds(&dev),
        sectors: stage_sector_counts(&dev),
        buffer_reads,
        records: dev.take_records(),
    };
    if metrics::sink_active() {
        metrics::sink_push(
            "run",
            metrics::run_entry(
                "Scan-based split",
                key_value,
                n,
                2,
                Distribution::Uniform,
                profile.name,
                wpb,
                seed,
                &outcome,
            ),
        );
    }
    outcome
}

/// Format milliseconds with two decimals.
pub fn ms(seconds: f64) -> String {
    format!("{:.2}", seconds * 1e3)
}

/// Write a report file under `bench_results/` (and echo the path).
pub fn save_report(name: &str, contents: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("bench_results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.txt"));
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// Simple fixed-width table printer.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&line(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }
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
            let o = run_contender(
                Contender::MsSort,
                kv,
                4096,
                8,
                Distribution::Uniform,
                simt::K40C,
                8,
                7,
                true,
            );
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
        ] {
            let o = run_contender(
                c,
                false,
                4096,
                8,
                Distribution::Uniform,
                simt::K40C,
                8,
                1,
                true,
            );
            assert!(o.total > 0.0, "{}", c.name());
        }
        // The m > 32 pair needs a larger bucket count.
        for c in [Contender::LargeM, Contender::Fused] {
            let o = run_contender(
                c,
                false,
                4096,
                64,
                Distribution::Uniform,
                simt::K40C,
                8,
                1,
                true,
            );
            assert!(o.total > 0.0, "{}", c.name());
        }
    }

    #[test]
    fn kv_contender_runs_and_verifies() {
        let o = run_contender(
            Contender::BlockLevel,
            true,
            4096,
            16,
            Distribution::Binomial,
            simt::K40C,
            8,
            2,
            true,
        );
        assert!(o.stage("post-scan") > 0.0);
        assert!(o.gkeys(4096) > 0.0);
    }

    #[test]
    fn scan_split_runs() {
        let o = run_scan_split(false, 4096, simt::K40C, 8, 5);
        assert!(o.stage("splitting") > 0.0 || o.stage("scan") > 0.0);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4".into()]);
        let s = t.render();
        assert!(s.contains("333"));
        assert_eq!(s.lines().count(), 4);
    }
}
