//! Differential fuzz harness for the multisplit stack.
//!
//! Four case families share one generator rotation ([`gen_any_case`]):
//!
//! * [`FuzzCase`] — a seeded `(n, m, method, key distribution, schedule)`
//!   multisplit tuple, checked against the stable CPU reference.
//! * [`SortCase`] — a seeded `(n, digit width, bit count, kv, schedule)`
//!   ms-sort tuple, checked against the host's stable
//!   `sort_by_key(k & mask)`.
//! * [`SegCase`] — a seeded batch of independent segments (random count,
//!   sizes, and per-segment bucket counts spanning both sweep classes and
//!   the fallback path) run through one `multisplit_segmented` call and
//!   checked segment-by-segment against the CPU reference; its shrinker
//!   additionally drops whole segments, so reproducers name the minimal
//!   failing segment *set*. Replay tokens carry a `seg,` marker.
//! * [`StreamCase`] — a seeded batch of 2–4 *concurrent* multisplit
//!   launches of mixed methods and sizes, run as stream tasks of one
//!   `Device::concurrent` session under the case's schedule (including
//!   every adversarial flavor), checked task-by-task against the CPU
//!   reference and bit-for-bit against the serialized (sequential
//!   session) order, with per-stream launch logs compared by
//!   `(stream, stream_seq)`. Its shrinker additionally drops whole
//!   stream tasks, so reproducers name the minimal failing stream
//!   *set*. Replay tokens carry a `stream,` marker.
//!
//! Each case executes three ways — the host reference, the simulated
//! device under the case's schedule, and the same device sequentially —
//! and checks:
//!
//! * **Output correctness**: permuted keys (and values, and bucket
//!   offsets) match the stable CPU reference bit-for-bit.
//! * **Schedule independence**: the launch-label sequence, per-label
//!   summed [`simt::BlockStats`], and the look-back resolve counts are
//!   identical to the sequential run (spin-poll counts and depth
//!   *distributions* are legitimately schedule-dependent and excluded —
//!   see DESIGN.md §10 for the formal statement).
//! * **Race freedom**: input buffers run with the epoch race detector on
//!   (`GlobalBuffer::tracked`), so a kernel reading data another block
//!   wrote in the same epoch panics, which the harness reports as a
//!   divergence.
//!
//! On failure [`fuzz`] shrinks the case to a *minimal* reproducer (halve
//! then decrement `n` and `m`, simplify the distribution and schedule)
//! and formats it as a one-line `paper fuzz --replay ...` command. A
//! deliberately injected [`Fault`] (test-only) proves the shrinker finds
//! exact minima.

use msrng::SmallRng;
use multisplit::{
    fused_max_buckets, max_buckets as large_m_max_buckets, multisplit_device, multisplit_kv_ref,
    multisplit_ref, multisplit_segmented, no_values,
    sweep::{SweepKind, DESC_WORDS},
    Method, RangeBuckets, SegmentSpec,
};
use simt::{
    AdvFlavor, AdvSchedule, Device, GlobalBuffer, LaunchRecord, Schedule, Stream, StreamTask, K40C,
};

/// Upper bound on a uniformly drawn `n`, small enough that a 200-case run
/// finishes in seconds. Tile-edge draws ([`draw_n`]) go past it: they come
/// from the case's real tile (a sweep tile holds 4,096 keys at 8 warps),
/// up to [`MAX_TILES`] of them.
pub const MAX_N: usize = 4096;

/// Most tiles a `k × tile` size draw spans.
pub const MAX_TILES: usize = 4;

/// Upper bound on generated `m` for the large-m methods (their
/// shared-memory capacity allows ~1.2k, but histogram setup cost scales
/// with `m` and the interesting boundaries are far below).
pub const MAX_LARGE_M: u32 = 256;

/// All seven methods with their replay-token names.
pub const METHODS: [(Method, &str); 7] = [
    (Method::Direct, "direct"),
    (Method::WarpLevel, "warp"),
    (Method::BlockLevel, "block"),
    (Method::LargeM, "largem"),
    (Method::Fused, "fused"),
    (Method::FusedLargeM, "fusedlargem"),
    (Method::Onesweep, "onesweep"),
];

/// Input key distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyDist {
    /// Uniform over the full `u32` domain.
    Uniform,
    /// 75% of keys land in bucket 0 (load imbalance / contended bucket).
    Skew75,
    /// Every key identical: the whole input is one bucket.
    OneBucket,
    /// Uniform keys, pre-sorted (already-split input).
    Sorted,
}

impl KeyDist {
    pub const ALL: [KeyDist; 4] = [
        KeyDist::Uniform,
        KeyDist::Skew75,
        KeyDist::OneBucket,
        KeyDist::Sorted,
    ];

    fn token(&self) -> &'static str {
        match self {
            KeyDist::Uniform => "uniform",
            KeyDist::Skew75 => "skew75",
            KeyDist::OneBucket => "onebucket",
            KeyDist::Sorted => "sorted",
        }
    }
}

/// Which schedule the device under test runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedSpec {
    Sequential,
    Parallel,
    Adversarial { seed: u64, flavor: AdvFlavor },
}

/// Spin budget armed on every adversarial fuzz case. Fuzz inputs stay
/// small (n ≤ 2^15), where a healthy look-back never spins more than a
/// few thousand polls on one target — a streak of 200k means livelock,
/// and the watchdog turns what used to be a CI hang into a panic
/// divergence with a wait-for-graph dump in the reproducer.
pub const FUZZ_SPIN_BUDGET: u64 = 200_000;

impl SchedSpec {
    pub fn to_schedule(self) -> Schedule {
        match self {
            SchedSpec::Sequential => Schedule::Sequential,
            SchedSpec::Parallel => Schedule::Parallel,
            SchedSpec::Adversarial { seed, flavor } => Schedule::Adversarial(
                AdvSchedule::with_flavor(seed, flavor).with_spin_budget(FUZZ_SPIN_BUDGET),
            ),
        }
    }

    fn token(&self) -> String {
        match self {
            SchedSpec::Sequential => "seq".to_string(),
            SchedSpec::Parallel => "par".to_string(),
            SchedSpec::Adversarial { seed, flavor } => format!("adv:{seed}:{}", flavor.name()),
        }
    }
}

/// One generated differential test case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzCase {
    pub n: usize,
    pub m: u32,
    pub method: Method,
    pub kv: bool,
    pub dist: KeyDist,
    pub key_seed: u64,
    pub wpb: usize,
    pub sched: SchedSpec,
}

fn method_token(m: Method) -> &'static str {
    METHODS.iter().find(|(mm, _)| *mm == m).unwrap().1
}

impl FuzzCase {
    /// Smallest legal `m` for this case's method (the large-m paths only
    /// accept `m > 32`).
    pub fn min_m(&self) -> u32 {
        match self.method {
            Method::LargeM | Method::FusedLargeM => 33,
            _ => 1,
        }
    }

    /// Largest legal `m` for this case's method at its block size.
    pub fn max_m(&self) -> u32 {
        match self.method {
            Method::LargeM => large_m_max_buckets(self.wpb, self.kv).min(MAX_LARGE_M),
            Method::FusedLargeM => fused_max_buckets(self.wpb, self.kv).min(MAX_LARGE_M),
            _ => 32,
        }
    }

    /// The self-contained replay token (inverse of [`parse_replay`]).
    pub fn replay_token(&self) -> String {
        format!(
            "n={},m={},method={},kv={},dist={},keyseed={},wpb={},sched={}",
            self.n,
            self.m,
            method_token(self.method),
            self.kv as u32,
            self.dist.token(),
            self.key_seed,
            self.wpb,
            self.sched.token()
        )
    }

    /// The one-line command a human (or CI) pastes to replay this case.
    pub fn replay_command(&self) -> String {
        format!(
            "cargo run --release -p ms-bench --bin paper -- fuzz --replay {}",
            self.replay_token()
        )
    }
}

/// Parse a `k=v,...` replay token produced by [`FuzzCase::replay_token`].
pub fn parse_split_replay(s: &str) -> Result<FuzzCase, String> {
    let mut n = None;
    let mut m = None;
    let mut method = None;
    let mut kv = None;
    let mut dist = None;
    let mut key_seed = None;
    let mut wpb = None;
    let mut sched = None;
    for part in s.split(',') {
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| format!("bad replay field {part:?} (want k=v)"))?;
        match k {
            "n" => n = Some(v.parse::<usize>().map_err(|e| format!("n: {e}"))?),
            "m" => m = Some(v.parse::<u32>().map_err(|e| format!("m: {e}"))?),
            "method" => {
                method = Some(
                    METHODS
                        .iter()
                        .find(|(_, t)| *t == v)
                        .map(|(mm, _)| *mm)
                        .ok_or_else(|| format!("unknown method {v:?}"))?,
                )
            }
            "kv" => kv = Some(v == "1"),
            "dist" => {
                dist = Some(
                    KeyDist::ALL
                        .into_iter()
                        .find(|d| d.token() == v)
                        .ok_or_else(|| format!("unknown dist {v:?}"))?,
                )
            }
            "keyseed" => key_seed = Some(v.parse::<u64>().map_err(|e| format!("keyseed: {e}"))?),
            "wpb" => wpb = Some(v.parse::<usize>().map_err(|e| format!("wpb: {e}"))?),
            "sched" => {
                sched = Some(match v {
                    "seq" => SchedSpec::Sequential,
                    "par" => SchedSpec::Parallel,
                    adv => {
                        let mut it = adv.split(':');
                        let (Some("adv"), Some(seed), Some(flavor)) =
                            (it.next(), it.next(), it.next())
                        else {
                            return Err(format!("unknown sched {v:?}"));
                        };
                        let seed = seed
                            .parse::<u64>()
                            .map_err(|e| format!("sched seed: {e}"))?;
                        let flavor = AdvFlavor::ALL
                            .into_iter()
                            .find(|f| f.name() == flavor)
                            .ok_or_else(|| format!("unknown flavor {flavor:?}"))?;
                        SchedSpec::Adversarial { seed, flavor }
                    }
                })
            }
            other => return Err(format!("unknown replay field {other:?}")),
        }
    }
    Ok(FuzzCase {
        n: n.ok_or("missing n")?,
        m: m.ok_or("missing m")?,
        method: method.ok_or("missing method")?,
        kv: kv.ok_or("missing kv")?,
        dist: dist.ok_or("missing dist")?,
        key_seed: key_seed.ok_or("missing keyseed")?,
        wpb: wpb.ok_or("missing wpb")?,
        sched: sched.ok_or("missing sched")?,
    })
}

/// Generate `n` keys of the given distribution (deterministic in
/// `key_seed`). `m_for_skew` sets the width of the hot low range that
/// `Skew75` concentrates 75% of keys into.
fn gen_keys_raw(n: usize, m_for_skew: u32, dist: KeyDist, key_seed: u64) -> Vec<u32> {
    let mut rng = SmallRng::seed_from_u64(key_seed);
    let bucket0_width = (1u64 << 32).div_ceil(m_for_skew as u64).max(1);
    let mut keys: Vec<u32> = match dist {
        KeyDist::Uniform | KeyDist::Sorted => (0..n).map(|_| rng.next_u32()).collect(),
        KeyDist::Skew75 => (0..n)
            .map(|_| {
                if rng.gen_bool(0.75) {
                    (rng.next_u64() % bucket0_width) as u32
                } else {
                    rng.next_u32()
                }
            })
            .collect(),
        KeyDist::OneBucket => {
            let k = rng.next_u32();
            vec![k; n]
        }
    };
    if dist == KeyDist::Sorted {
        keys.sort_unstable();
    }
    keys
}

/// Generate the case's input keys (deterministic from `key_seed`).
pub fn gen_keys(case: &FuzzCase) -> Vec<u32> {
    gen_keys_raw(case.n, case.m, case.dist, case.key_seed)
}

/// A deliberately injected output corruption, for exercising the shrinker
/// without a real bug: any case with `n >= min_n && m >= min_m` has its
/// first output key flipped before comparison. Test-only — the CLI never
/// constructs one.
#[derive(Debug, Clone, Copy)]
pub struct Fault {
    pub min_n: usize,
    pub min_m: u32,
}

impl Fault {
    fn applies(&self, case: &FuzzCase) -> bool {
        case.n >= self.min_n && case.m >= self.min_m
    }
}

/// Why a case failed.
#[derive(Debug, Clone)]
pub enum Divergence {
    /// Device output differs from the CPU reference (or between schedules).
    Output(String),
    /// Counted stats or launch structure differ between schedules.
    Stats(String),
    /// A look-back observability invariant broke.
    Obs(String),
    /// A kernel panicked (race detector, look-back stall, executor bug).
    Panic(String),
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Divergence::Output(s) => write!(f, "output divergence: {s}"),
            Divergence::Stats(s) => write!(f, "stats divergence: {s}"),
            Divergence::Obs(s) => write!(f, "obs divergence: {s}"),
            Divergence::Panic(s) => write!(f, "panic: {s}"),
        }
    }
}

struct DeviceRun {
    keys: Vec<u32>,
    values: Option<Vec<u32>>,
    offsets: Vec<u32>,
    records: Vec<LaunchRecord>,
}

/// One full device execution of the case under `sched`, with tracked
/// (race-detected) input buffers.
fn device_run(case: &FuzzCase, keys: &[u32], sched: SchedSpec) -> Result<DeviceRun, Divergence> {
    let result = std::panic::catch_unwind(|| {
        let dev = Device::with_schedule(K40C, sched.to_schedule());
        let bucket = RangeBuckets::new(case.m);
        let kbuf = GlobalBuffer::from_slice(keys).tracked();
        let out = if case.kv {
            let values: Vec<u32> = (0..case.n as u32).collect();
            let vbuf = GlobalBuffer::from_slice(&values).tracked();
            multisplit_device(
                &dev,
                case.method,
                &kbuf,
                Some(&vbuf),
                case.n,
                &bucket,
                case.wpb,
            )
        } else {
            multisplit_device(
                &dev,
                case.method,
                &kbuf,
                no_values(),
                case.n,
                &bucket,
                case.wpb,
            )
        };
        DeviceRun {
            keys: out.keys.to_vec(),
            values: out.values.as_ref().map(|v| v.to_vec()),
            offsets: out.offsets,
            records: dev.records(),
        }
    });
    result.map_err(panic_divergence)
}

fn panic_divergence(payload: Box<dyn std::any::Any + Send>) -> Divergence {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    Divergence::Panic(msg)
}

/// Schedule-independence check shared by both case families: identical
/// outputs, launch-label sequence, per-launch summed stats, and look-back
/// resolve totals against the sequential anchor run.
fn check_against_sequential(
    sched_token: &str,
    run: &DeviceRun,
    base: &DeviceRun,
) -> Result<(), Divergence> {
    if run.keys != base.keys || run.offsets != base.offsets || run.values != base.values {
        return Err(Divergence::Output(format!(
            "outputs differ between {sched_token} and sequential schedules"
        )));
    }
    let labels =
        |r: &[LaunchRecord]| -> Vec<String> { r.iter().map(|rec| rec.label.clone()).collect() };
    if labels(&run.records) != labels(&base.records) {
        return Err(Divergence::Stats(format!(
            "launch sequence differs: {:?} vs {:?}",
            labels(&run.records),
            labels(&base.records)
        )));
    }
    for (a, b) in run.records.iter().zip(&base.records) {
        if a.stats != b.stats {
            return Err(Divergence::Stats(format!(
                "summed BlockStats differ for launch {:?}: {:?} vs {:?}",
                a.label, a.stats, b.stats
            )));
        }
        if a.obs.lookback_resolves != b.obs.lookback_resolves {
            return Err(Divergence::Obs(format!(
                "lookback_resolves differ for launch {:?}: {} vs {}",
                a.label, a.obs.lookback_resolves, b.obs.lookback_resolves
            )));
        }
    }
    Ok(())
}

/// Look-back introspection invariant: every resolve lands in the depth
/// histogram, on every schedule.
fn check_depth_hist(records: &[LaunchRecord]) -> Result<(), Divergence> {
    for rec in records {
        if rec.obs.depth_hist_total() != rec.obs.lookback_resolves {
            return Err(Divergence::Obs(format!(
                "launch {:?}: depth histogram total {} != resolves {}",
                rec.label,
                rec.obs.depth_hist_total(),
                rec.obs.lookback_resolves
            )));
        }
    }
    Ok(())
}

fn first_diff<T: PartialEq>(a: &[T], b: &[T]) -> Option<usize> {
    if a.len() != b.len() {
        return Some(a.len().min(b.len()));
    }
    (0..a.len()).find(|&i| a[i] != b[i])
}

/// Execute one case differentially. `fault` (test-only) corrupts the
/// scheduled run's output to exercise the failure path.
pub fn run_case_with_fault(case: &FuzzCase, fault: Option<Fault>) -> Result<(), Divergence> {
    let keys = gen_keys(case);
    let bucket = RangeBuckets::new(case.m);
    // CPU reference (stable by construction).
    let values: Vec<u32> = (0..case.n as u32).collect();
    let (ref_keys, ref_values, ref_offsets) = if case.kv {
        multisplit_kv_ref(&keys, Some(&values), &bucket)
    } else {
        let (k, o) = multisplit_ref(&keys, &bucket);
        (k, Vec::new(), o)
    };

    let mut run = device_run(case, &keys, case.sched)?;
    if let Some(f) = fault {
        if f.applies(case) && !run.keys.is_empty() {
            run.keys[0] ^= 1;
        }
    }

    // 1. Output vs the CPU reference.
    if let Some(i) = first_diff(&run.keys, &ref_keys) {
        return Err(Divergence::Output(format!(
            "keys[{i}]: device {:?} vs reference {:?} (lens {} vs {})",
            run.keys.get(i),
            ref_keys.get(i),
            run.keys.len(),
            ref_keys.len()
        )));
    }
    if run.offsets != ref_offsets {
        return Err(Divergence::Output(format!(
            "bucket offsets: device {:?} vs reference {:?}",
            run.offsets, ref_offsets
        )));
    }
    if case.kv {
        let dev_values = run.values.as_deref().unwrap_or(&[]);
        if let Some(i) = first_diff(dev_values, &ref_values) {
            return Err(Divergence::Output(format!(
                "values[{i}]: device {:?} vs reference {:?}",
                dev_values.get(i),
                ref_values.get(i)
            )));
        }
    }

    // 2. Schedule independence vs a sequential run of the same case:
    // identical outputs, launch structure, per-label summed stats, and
    // look-back resolve totals. (The sequential run doubles as the
    // "against each other" comparison — all schedules compare to the same
    // anchor, so any two agree transitively.)
    if case.sched != SchedSpec::Sequential {
        let base = device_run(case, &keys, SchedSpec::Sequential)?;
        check_against_sequential(&case.sched.token(), &run, &base)?;
    }

    // 3. Look-back introspection invariant.
    check_depth_hist(&run.records)
}

/// Execute one multisplit case differentially.
pub fn run_split_case(case: &FuzzCase) -> Result<(), Divergence> {
    run_case_with_fault(case, None)
}

/// One generated ms-sort differential case: sort the low `bits` of `n`
/// keys with `digit_bits`-wide multisplit digits, optionally carrying a
/// payload, under the given schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortCase {
    pub n: usize,
    pub kv: bool,
    /// Digit width in bits (1..= [`ms_sort::max_digit_bits`]); crosses the
    /// Fused → FusedLargeM boundary at 6.
    pub digit_bits: u32,
    /// How many low key bits participate in the sort (0..=32). Keys are
    /// compared by `k & ((1 << bits) - 1)`; ties keep input order.
    pub bits: u32,
    pub dist: KeyDist,
    pub key_seed: u64,
    pub wpb: usize,
    pub sched: SchedSpec,
}

impl SortCase {
    /// The self-contained replay token (inverse of [`parse_replay`]).
    /// Distinguished from multisplit tokens by the leading `sort` marker.
    pub fn replay_token(&self) -> String {
        format!(
            "sort,n={},kv={},digit={},bits={},dist={},keyseed={},wpb={},sched={}",
            self.n,
            self.kv as u32,
            self.digit_bits,
            self.bits,
            self.dist.token(),
            self.key_seed,
            self.wpb,
            self.sched.token()
        )
    }

    /// The one-line command a human (or CI) pastes to replay this case.
    pub fn replay_command(&self) -> String {
        format!(
            "cargo run --release -p ms-bench --bin paper -- fuzz --replay {}",
            self.replay_token()
        )
    }
}

/// Parse the field list of a `sort,...` replay token.
fn parse_sort_replay(s: &str) -> Result<SortCase, String> {
    let mut n = None;
    let mut kv = None;
    let mut digit = None;
    let mut bits = None;
    let mut dist = None;
    let mut key_seed = None;
    let mut wpb = None;
    let mut sched = None;
    for part in s.split(',') {
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| format!("bad replay field {part:?} (want k=v)"))?;
        match k {
            "n" => n = Some(v.parse::<usize>().map_err(|e| format!("n: {e}"))?),
            "kv" => kv = Some(v == "1"),
            "digit" => digit = Some(v.parse::<u32>().map_err(|e| format!("digit: {e}"))?),
            "bits" => bits = Some(v.parse::<u32>().map_err(|e| format!("bits: {e}"))?),
            "dist" => {
                dist = Some(
                    KeyDist::ALL
                        .into_iter()
                        .find(|d| d.token() == v)
                        .ok_or_else(|| format!("unknown dist {v:?}"))?,
                )
            }
            "keyseed" => key_seed = Some(v.parse::<u64>().map_err(|e| format!("keyseed: {e}"))?),
            "wpb" => wpb = Some(v.parse::<usize>().map_err(|e| format!("wpb: {e}"))?),
            "sched" => {
                sched = Some(match v {
                    "seq" => SchedSpec::Sequential,
                    "par" => SchedSpec::Parallel,
                    adv => {
                        let mut it = adv.split(':');
                        let (Some("adv"), Some(seed), Some(flavor)) =
                            (it.next(), it.next(), it.next())
                        else {
                            return Err(format!("unknown sched {v:?}"));
                        };
                        let seed = seed
                            .parse::<u64>()
                            .map_err(|e| format!("sched seed: {e}"))?;
                        let flavor = AdvFlavor::ALL
                            .into_iter()
                            .find(|f| f.name() == flavor)
                            .ok_or_else(|| format!("unknown flavor {flavor:?}"))?;
                        SchedSpec::Adversarial { seed, flavor }
                    }
                })
            }
            other => return Err(format!("unknown sort replay field {other:?}")),
        }
    }
    Ok(SortCase {
        n: n.ok_or("missing n")?,
        kv: kv.ok_or("missing kv")?,
        digit_bits: digit.ok_or("missing digit")?,
        bits: bits.ok_or("missing bits")?,
        dist: dist.ok_or("missing dist")?,
        key_seed: key_seed.ok_or("missing keyseed")?,
        wpb: wpb.ok_or("missing wpb")?,
        sched: sched.ok_or("missing sched")?,
    })
}

/// Generate the sort case's input keys (deterministic from `key_seed`).
/// `Skew75` concentrates keys in the lowest digit of the sorted range.
pub fn gen_sort_keys(case: &SortCase) -> Vec<u32> {
    gen_keys_raw(
        case.n,
        1u32 << case.digit_bits.min(8),
        case.dist,
        case.key_seed,
    )
}

/// One full device sort of the case under `sched`, with tracked inputs.
fn sort_device_run(
    case: &SortCase,
    keys: &[u32],
    sched: SchedSpec,
) -> Result<DeviceRun, Divergence> {
    let result = std::panic::catch_unwind(|| {
        let dev = Device::with_schedule(K40C, sched.to_schedule());
        let kbuf = GlobalBuffer::from_slice(keys).tracked();
        let (out_keys, out_values) = if case.kv {
            let values: Vec<u32> = (0..case.n as u32).collect();
            let vbuf = GlobalBuffer::from_slice(&values).tracked();
            ms_sort::sort_by_bit_range_with(
                &dev,
                &kbuf,
                Some(&vbuf),
                case.n,
                0,
                case.bits,
                case.digit_bits,
                case.wpb,
            )
        } else {
            ms_sort::sort_by_bit_range_with::<u32>(
                &dev,
                &kbuf,
                None,
                case.n,
                0,
                case.bits,
                case.digit_bits,
                case.wpb,
            )
        };
        DeviceRun {
            keys: out_keys.to_vec(),
            values: out_values.map(|v| v.to_vec()),
            offsets: Vec::new(),
            records: dev.records(),
        }
    });
    result.map_err(panic_divergence)
}

/// Execute one sort case differentially against the host's stable
/// `sort_by_key` and the sequential-schedule anchor.
pub fn run_sort_case(case: &SortCase) -> Result<(), Divergence> {
    let keys = gen_sort_keys(case);
    let mask = if case.bits >= 32 {
        u32::MAX
    } else {
        (1u32 << case.bits) - 1
    };
    // Host reference: Rust's sort_by_key is stable, so ties (equal masked
    // keys) keep input order — exactly the device contract.
    let (ref_keys, ref_values) = if case.kv {
        let mut pairs: Vec<(u32, u32)> = keys.iter().copied().zip(0..case.n as u32).collect();
        pairs.sort_by_key(|&(k, _)| k & mask);
        (
            pairs.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            Some(pairs.iter().map(|&(_, v)| v).collect::<Vec<_>>()),
        )
    } else {
        let mut sorted = keys.clone();
        sorted.sort_by_key(|&k| k & mask);
        (sorted, None)
    };

    let run = sort_device_run(case, &keys, case.sched)?;
    if let Some(i) = first_diff(&run.keys, &ref_keys) {
        return Err(Divergence::Output(format!(
            "sorted keys[{i}]: device {:?} vs host {:?} (lens {} vs {})",
            run.keys.get(i),
            ref_keys.get(i),
            run.keys.len(),
            ref_keys.len()
        )));
    }
    if run.values != ref_values {
        let dv = run.values.as_deref().unwrap_or(&[]);
        let rv = ref_values.as_deref().unwrap_or(&[]);
        let i = first_diff(dv, rv).unwrap_or(0);
        return Err(Divergence::Output(format!(
            "sorted values[{i}]: device {:?} vs host {:?}",
            dv.get(i),
            rv.get(i)
        )));
    }
    if case.sched != SchedSpec::Sequential {
        let base = sort_device_run(case, &keys, SchedSpec::Sequential)?;
        check_against_sequential(&case.sched.token(), &run, &base)?;
    }
    check_depth_hist(&run.records)
}

/// Greedily shrink a failing sort case to a local minimum, mirroring
/// [`shrink`]: smaller `n`, narrower digits, fewer bits, simpler
/// distribution and schedule.
pub fn shrink_sort(case: &SortCase, still_fails: impl Fn(&SortCase) -> bool) -> SortCase {
    let mut cur = *case;
    loop {
        let mut candidates: Vec<SortCase> = Vec::new();
        for n in [cur.n / 2, cur.n.saturating_sub(1)] {
            if n < cur.n {
                candidates.push(SortCase { n, ..cur });
            }
        }
        if cur.digit_bits > 1 {
            candidates.push(SortCase {
                digit_bits: cur.digit_bits - 1,
                ..cur
            });
        }
        for bits in [cur.bits / 2, cur.bits.saturating_sub(1)] {
            if bits < cur.bits {
                candidates.push(SortCase { bits, ..cur });
            }
        }
        if cur.kv {
            candidates.push(SortCase { kv: false, ..cur });
        }
        if cur.dist != KeyDist::Uniform {
            candidates.push(SortCase {
                dist: KeyDist::Uniform,
                ..cur
            });
        }
        match cur.sched {
            SchedSpec::Adversarial { .. } => {
                candidates.push(SortCase {
                    sched: SchedSpec::Parallel,
                    ..cur
                });
                candidates.push(SortCase {
                    sched: SchedSpec::Sequential,
                    ..cur
                });
            }
            SchedSpec::Parallel => candidates.push(SortCase {
                sched: SchedSpec::Sequential,
                ..cur
            }),
            SchedSpec::Sequential => {}
        }
        match candidates.into_iter().find(|c| still_fails(c)) {
            Some(smaller) => cur = smaller,
            None => return cur,
        }
    }
}

/// Deterministically generate sort case `ix` of a run seeded with `seed`.
/// kv and schedules rotate (12 consecutive indices cover the
/// {key, kv} x 6-schedule matrix) while digit widths are drawn with a
/// bias toward the Fused/FusedLargeM capacity boundaries and sizes toward
/// tile multiples.
pub fn gen_sort_case(seed: u64, ix: usize) -> SortCase {
    let mut rng = SmallRng::seed_from_u64(seed ^ (ix as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
    let kv = ix % 2 == 1;
    let sched = sched_for(ix / 2, &mut rng);
    let wpb = [2usize, 4, 8][(rng.next_u32() % 3) as usize];
    let max_db = ms_sort::max_digit_bits(wpb, if kv { 4 } else { 0 });
    let digit_bits = match rng.next_u32() % 4 {
        0 => 1,
        1 => 5,             // last width on the Fused path
        2 => 6.min(max_db), // first width on FusedLargeM
        _ => 1 + rng.next_u32() % max_db,
    };
    // A digit pass is a direct sweep over 2^digit_bits buckets.
    let tile = tile_of(Method::Fused, 1 << digit_bits, kv, wpb, 0);
    let n = draw_n(&mut rng, tile, MAX_N);
    let dist = KeyDist::ALL[(rng.next_u32() % 4) as usize];
    let bits = match rng.next_u32() % 4 {
        0 => 0,
        1 => 32,
        2 => digit_bits, // exactly one data pass
        _ => rng.next_u32() % 33,
    };
    SortCase {
        n,
        kv,
        digit_bits,
        bits,
        dist,
        key_seed: rng.next_u64(),
        wpb,
        sched,
    }
}

/// Max segments a generated [`SegCase`] carries (fixed-size arrays keep
/// the case `Copy` for the shrinker; real batches are far larger, but six
/// segments already cover every class mix and both look-back window
/// boundaries).
pub const MAX_SEGS: usize = 6;

/// One generated segmented-multisplit differential case: `nsegs`
/// independent segments with their own sizes and bucket counts, packed at
/// sector-aligned offsets into one flat buffer and run through a single
/// [`multisplit_segmented`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegCase {
    pub nsegs: usize,
    /// Per-segment key counts (entries past `nsegs` are zero).
    pub ns: [usize; MAX_SEGS],
    /// Per-segment bucket counts (entries past `nsegs` are zero).
    pub ms: [u32; MAX_SEGS],
    pub kv: bool,
    pub dist: KeyDist,
    pub key_seed: u64,
    pub wpb: usize,
    pub sched: SchedSpec,
}

impl SegCase {
    /// The self-contained replay token (inverse of [`parse_replay`]).
    /// Distinguished by the leading `seg` marker; the segment lists are
    /// `+`-separated (`ns=128+0+4096`), empty for a zero-segment batch.
    pub fn replay_token(&self) -> String {
        let ns: Vec<String> = self.ns[..self.nsegs]
            .iter()
            .map(|n| n.to_string())
            .collect();
        let ms: Vec<String> = self.ms[..self.nsegs]
            .iter()
            .map(|m| m.to_string())
            .collect();
        format!(
            "seg,ns={},ms={},kv={},dist={},keyseed={},wpb={},sched={}",
            ns.join("+"),
            ms.join("+"),
            self.kv as u32,
            self.dist.token(),
            self.key_seed,
            self.wpb,
            self.sched.token()
        )
    }

    /// The one-line command a human (or CI) pastes to replay this case.
    pub fn replay_command(&self) -> String {
        format!(
            "cargo run --release -p ms-bench --bin paper -- fuzz --replay {}",
            self.replay_token()
        )
    }
}

/// Parse the field list of a `seg,...` replay token.
fn parse_seg_replay(s: &str) -> Result<SegCase, String> {
    fn list<T: std::str::FromStr>(v: &str, what: &str) -> Result<Vec<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        if v.is_empty() {
            return Ok(Vec::new());
        }
        v.split('+')
            .map(|p| p.parse::<T>().map_err(|e| format!("{what}: {e}")))
            .collect()
    }
    let mut ns: Option<Vec<usize>> = None;
    let mut ms: Option<Vec<u32>> = None;
    let mut kv = None;
    let mut dist = None;
    let mut key_seed = None;
    let mut wpb = None;
    let mut sched = None;
    for part in s.split(',') {
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| format!("bad replay field {part:?} (want k=v)"))?;
        match k {
            "ns" => ns = Some(list(v, "ns")?),
            "ms" => ms = Some(list(v, "ms")?),
            "kv" => kv = Some(v == "1"),
            "dist" => {
                dist = Some(
                    KeyDist::ALL
                        .into_iter()
                        .find(|d| d.token() == v)
                        .ok_or_else(|| format!("unknown dist {v:?}"))?,
                )
            }
            "keyseed" => key_seed = Some(v.parse::<u64>().map_err(|e| format!("keyseed: {e}"))?),
            "wpb" => wpb = Some(v.parse::<usize>().map_err(|e| format!("wpb: {e}"))?),
            "sched" => {
                sched = Some(match v {
                    "seq" => SchedSpec::Sequential,
                    "par" => SchedSpec::Parallel,
                    adv => {
                        let mut it = adv.split(':');
                        let (Some("adv"), Some(seed), Some(flavor)) =
                            (it.next(), it.next(), it.next())
                        else {
                            return Err(format!("unknown sched {v:?}"));
                        };
                        let seed = seed
                            .parse::<u64>()
                            .map_err(|e| format!("sched seed: {e}"))?;
                        let flavor = AdvFlavor::ALL
                            .into_iter()
                            .find(|f| f.name() == flavor)
                            .ok_or_else(|| format!("unknown flavor {flavor:?}"))?;
                        SchedSpec::Adversarial { seed, flavor }
                    }
                })
            }
            other => return Err(format!("unknown seg replay field {other:?}")),
        }
    }
    let ns_list = ns.ok_or("missing ns")?;
    let ms_list = ms.ok_or("missing ms")?;
    if ns_list.len() != ms_list.len() {
        return Err(format!(
            "ns has {} entries but ms has {}",
            ns_list.len(),
            ms_list.len()
        ));
    }
    if ns_list.len() > MAX_SEGS {
        return Err(format!(
            "at most {MAX_SEGS} segments, got {}",
            ns_list.len()
        ));
    }
    let mut case = SegCase {
        nsegs: ns_list.len(),
        ns: [0; MAX_SEGS],
        ms: [0; MAX_SEGS],
        kv: kv.ok_or("missing kv")?,
        dist: dist.ok_or("missing dist")?,
        key_seed: key_seed.ok_or("missing keyseed")?,
        wpb: wpb.ok_or("missing wpb")?,
        sched: sched.ok_or("missing sched")?,
    };
    case.ns[..case.nsegs].copy_from_slice(&ns_list);
    case.ms[..case.nsegs].copy_from_slice(&ms_list);
    Ok(case)
}

/// Sector-aligned (8-word) segment offsets plus the flat buffer length.
fn seg_layout(case: &SegCase) -> (Vec<usize>, usize) {
    let mut offs = Vec::with_capacity(case.nsegs);
    let mut len = 0usize;
    for i in 0..case.nsegs {
        offs.push(len);
        len += case.ns[i];
        len = (len + 7) & !7;
    }
    (offs, len.max(1))
}

/// Generate the case's flat key buffer (deterministic from `key_seed`;
/// gap words between segments stay zero).
pub fn gen_seg_keys(case: &SegCase) -> Vec<u32> {
    let (offs, len) = seg_layout(case);
    let mut flat = vec![0u32; len];
    for i in 0..case.nsegs {
        let keys = gen_keys_raw(
            case.ns[i],
            case.ms[i],
            case.dist,
            case.key_seed.wrapping_add(i as u64),
        );
        flat[offs[i]..offs[i] + case.ns[i]].copy_from_slice(&keys);
    }
    flat
}

/// One full segmented device run of the case under `sched`, with tracked
/// inputs. Per-segment offset lists are flattened for comparison.
fn seg_device_run(case: &SegCase, flat: &[u32], sched: SchedSpec) -> Result<DeviceRun, Divergence> {
    let result = std::panic::catch_unwind(|| {
        let dev = Device::with_schedule(K40C, sched.to_schedule());
        let (offs, len) = seg_layout(case);
        let buckets: Vec<RangeBuckets> = (0..case.nsegs)
            .map(|i| RangeBuckets::new(case.ms[i]))
            .collect();
        let specs: Vec<SegmentSpec> = (0..case.nsegs)
            .map(|i| SegmentSpec {
                offset: offs[i],
                n: case.ns[i],
                bucket: &buckets[i],
            })
            .collect();
        let kbuf = GlobalBuffer::from_slice(flat).tracked();
        let out = if case.kv {
            let values: Vec<u32> = (0..len as u32).collect();
            let vbuf = GlobalBuffer::from_slice(&values).tracked();
            multisplit_segmented(&dev, &kbuf, Some(&vbuf), &specs, case.wpb)
        } else {
            multisplit_segmented(&dev, &kbuf, no_values(), &specs, case.wpb)
        };
        DeviceRun {
            keys: out.keys.to_vec(),
            values: out.values.as_ref().map(|v| v.to_vec()),
            offsets: out.offsets.concat(),
            records: dev.records(),
        }
    });
    result.map_err(panic_divergence)
}

/// Execute one segmented case differentially: every segment against its
/// own CPU reference (gap words must stay untouched), then the whole run
/// against the sequential-schedule anchor.
pub fn run_seg_case(case: &SegCase) -> Result<(), Divergence> {
    let flat = gen_seg_keys(case);
    let (offs, len) = seg_layout(case);
    // Per-segment CPU references assembled into flat expectations. The
    // device's output buffers start zeroed, so gap words must stay 0.
    let mut expect_keys = vec![0u32; len];
    let mut expect_values = vec![0u32; len];
    let mut expect_offsets: Vec<u32> = Vec::new();
    for (i, &off) in offs.iter().enumerate().take(case.nsegs) {
        let n = case.ns[i];
        let bucket = RangeBuckets::new(case.ms[i]);
        let seg_values: Vec<u32> = (off as u32..(off + n) as u32).collect();
        let (k, v, o) = multisplit_kv_ref(&flat[off..off + n], Some(&seg_values), &bucket);
        expect_keys[off..off + n].copy_from_slice(&k);
        expect_values[off..off + n].copy_from_slice(&v);
        expect_offsets.extend(o);
    }

    let run = seg_device_run(case, &flat, case.sched)?;
    if let Some(i) = first_diff(&run.keys, &expect_keys) {
        return Err(Divergence::Output(format!(
            "segmented keys[{i}]: device {:?} vs reference {:?}",
            run.keys.get(i),
            expect_keys.get(i)
        )));
    }
    if run.offsets != expect_offsets {
        return Err(Divergence::Output(format!(
            "segment bucket offsets: device {:?} vs reference {:?}",
            run.offsets, expect_offsets
        )));
    }
    if case.kv {
        let dev_values = run.values.as_deref().unwrap_or(&[]);
        if let Some(i) = first_diff(dev_values, &expect_values) {
            return Err(Divergence::Output(format!(
                "segmented values[{i}]: device {:?} vs reference {:?}",
                dev_values.get(i),
                expect_values.get(i)
            )));
        }
    }
    if case.sched != SchedSpec::Sequential {
        let base = seg_device_run(case, &flat, SchedSpec::Sequential)?;
        check_against_sequential(&case.sched.token(), &run, &base)?;
    }
    check_depth_hist(&run.records)
}

/// Greedily shrink a failing segmented case. Beyond the per-field
/// reductions the other families use, it *drops whole segments* one at a
/// time, so the fixpoint is a minimal failing segment set.
pub fn shrink_seg(case: &SegCase, still_fails: impl Fn(&SegCase) -> bool) -> SegCase {
    fn drop_seg(mut c: SegCase, i: usize) -> SegCase {
        for j in i..c.nsegs - 1 {
            c.ns[j] = c.ns[j + 1];
            c.ms[j] = c.ms[j + 1];
        }
        c.nsegs -= 1;
        c.ns[c.nsegs] = 0;
        c.ms[c.nsegs] = 0;
        c
    }
    let mut cur = *case;
    loop {
        let mut candidates: Vec<SegCase> = Vec::new();
        for i in 0..cur.nsegs {
            candidates.push(drop_seg(cur, i));
        }
        for i in 0..cur.nsegs {
            for n in [cur.ns[i] / 2, cur.ns[i].saturating_sub(1)] {
                if n < cur.ns[i] {
                    let mut c = cur;
                    c.ns[i] = n;
                    candidates.push(c);
                }
            }
            for m in [cur.ms[i] / 2, cur.ms[i].saturating_sub(1)] {
                if m < cur.ms[i] && m >= 1 {
                    let mut c = cur;
                    c.ms[i] = m;
                    candidates.push(c);
                }
            }
        }
        if cur.kv {
            candidates.push(SegCase { kv: false, ..cur });
        }
        if cur.dist != KeyDist::Uniform {
            candidates.push(SegCase {
                dist: KeyDist::Uniform,
                ..cur
            });
        }
        match cur.sched {
            SchedSpec::Adversarial { .. } => {
                candidates.push(SegCase {
                    sched: SchedSpec::Parallel,
                    ..cur
                });
                candidates.push(SegCase {
                    sched: SchedSpec::Sequential,
                    ..cur
                });
            }
            SchedSpec::Parallel => candidates.push(SegCase {
                sched: SchedSpec::Sequential,
                ..cur
            }),
            SchedSpec::Sequential => {}
        }
        match candidates.into_iter().find(|c| still_fails(c)) {
            Some(smaller) => cur = smaller,
            None => return cur,
        }
    }
}

/// Deterministically generate segmented case `ix` of a run seeded with
/// `seed`. kv and schedules rotate (12 consecutive indices cover the
/// {key, kv} x 6-schedule matrix); segment counts, sizes, and bucket
/// counts are drawn with a bias toward the class boundaries (m = 32/33,
/// over-capacity fallback) and tile-edge sizes.
pub fn gen_seg_case(seed: u64, ix: usize) -> SegCase {
    let mut rng = SmallRng::seed_from_u64(seed ^ (ix as u64).wrapping_mul(0xA076_1D64_78BD_642F));
    let kv = ix % 2 == 1;
    let sched = sched_for(ix / 2, &mut rng);
    let wpb = [2usize, 4, 8][(rng.next_u32() % 3) as usize];
    let nsegs = (rng.next_u32() as usize) % (MAX_SEGS + 1);
    let mut ns = [0usize; MAX_SEGS];
    let mut ms = [0u32; MAX_SEGS];
    for i in 0..nsegs {
        ms[i] = match rng.next_u32() % 5 {
            0 => 1,
            1 => 32,                       // last m on the fused class
            2 => 33,                       // first m on the large-m class
            3 => 33 + rng.next_u32() % 96, // deeper multi-row look-back
            _ => 1 + rng.next_u32() % 32,
        };
        // The segmented sweep's tile (next to the tile descriptor), so a
        // batch mixes one-tile segments with pre-scanned multi-tile ones.
        let method = Method::auto_for(ms[i], kv, wpb);
        let tile = tile_of(method, ms[i], kv, wpb, DESC_WORDS);
        ns[i] = draw_n(&mut rng, tile, MAX_N / 4);
    }
    SegCase {
        nsegs,
        ns,
        ms,
        kv,
        dist: KeyDist::ALL[(rng.next_u32() % 4) as usize],
        key_seed: rng.next_u64(),
        wpb,
        sched,
    }
}

// =========================== stream case family ===========================

/// Max concurrent stream tasks a generated [`StreamCase`] carries (the
/// fixed-size arrays keep the case `Copy` for the shrinker). The ISSUE
/// matrix wants 2–4 concurrent launches; 4 tasks already exercise every
/// session-executor arbitration path.
pub const MAX_STREAM_TASKS: usize = 4;

/// Keys per tile of one `method` run at `m` buckets: the sweep tile for
/// the single-pass paths (as many items per thread as shared memory holds
/// next to `reserved_words`), one 32-key chunk per warp for the
/// three-kernel ones and past the sweep's capacity.
fn tile_of(method: Method, m: u32, kv: bool, wpb: usize, reserved_words: usize) -> usize {
    let kind = match method {
        Method::Fused | Method::FusedLargeM => SweepKind::DIRECT,
        Method::Onesweep => SweepKind::DEFERRED,
        _ => return wpb * 32,
    };
    let ipt = kind.items_per_thread(wpb, m as usize, if kv { 4 } else { 0 }, reserved_words);
    wpb * 32 * ipt.unwrap_or(1)
}

/// A size drawn with a bias toward the edges of `tile`: empty, one key,
/// one tile exactly, one key past it (the first two-tile input), a few
/// whole tiles, sub-warp sizes, and uniform up to `max_uniform`.
fn draw_n(rng: &mut SmallRng, tile: usize, max_uniform: usize) -> usize {
    match rng.next_u32() % 8 {
        0 => 0,
        1 => 1,
        2 => tile,
        3 => tile + 1,
        4 => (rng.next_u32() as usize % 63) + 2,
        5 => tile * ((rng.next_u32() as usize % MAX_TILES) + 1),
        _ => (rng.next_u32() as usize % max_uniform) + 1,
    }
}

/// Smallest legal `m` for a method (the large-m paths need `m > 32`).
fn stream_min_m(method: Method) -> u32 {
    match method {
        Method::LargeM | Method::FusedLargeM => 33,
        _ => 1,
    }
}

/// Largest legal `m` for a method at the given block size.
fn stream_max_m(method: Method, wpb: usize, kv: bool) -> u32 {
    match method {
        Method::LargeM => large_m_max_buckets(wpb, kv).min(MAX_LARGE_M),
        Method::FusedLargeM => fused_max_buckets(wpb, kv).min(MAX_LARGE_M),
        _ => 32,
    }
}

/// One generated concurrent-streams differential case: `ntasks` (up to
/// [`MAX_STREAM_TASKS`]) independent multisplit pipelines of *mixed
/// methods and sizes* run as concurrent stream tasks of a single
/// [`Device::concurrent`] session, under the case's schedule. The tasks
/// touch disjoint tracked buffers, so the versioned-clock race detector
/// is armed on every case and must stay silent — any cross-stream
/// false positive surfaces as a panic divergence with a replay token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamCase {
    pub ntasks: usize,
    /// Per-task key counts (entries past `ntasks` are zero).
    pub ns: [usize; MAX_STREAM_TASKS],
    /// Per-task bucket counts (entries past `ntasks` are zero).
    pub ms: [u32; MAX_STREAM_TASKS],
    /// Per-task multisplit method (entries past `ntasks` are `Fused`).
    pub methods: [Method; MAX_STREAM_TASKS],
    pub kv: bool,
    pub dist: KeyDist,
    pub key_seed: u64,
    pub wpb: usize,
    pub sched: SchedSpec,
}

impl StreamCase {
    /// The self-contained replay token (inverse of [`parse_replay`]).
    /// Distinguished by the leading `stream` marker; per-task lists are
    /// `+`-separated, mirroring the `seg,` family.
    pub fn replay_token(&self) -> String {
        let ns: Vec<String> = self.ns[..self.ntasks]
            .iter()
            .map(|n| n.to_string())
            .collect();
        let ms: Vec<String> = self.ms[..self.ntasks]
            .iter()
            .map(|m| m.to_string())
            .collect();
        let methods: Vec<String> = self.methods[..self.ntasks]
            .iter()
            .map(|m| method_token(*m).to_string())
            .collect();
        format!(
            "stream,ns={},ms={},methods={},kv={},dist={},keyseed={},wpb={},sched={}",
            ns.join("+"),
            ms.join("+"),
            methods.join("+"),
            self.kv as u32,
            self.dist.token(),
            self.key_seed,
            self.wpb,
            self.sched.token()
        )
    }

    /// The one-line command a human (or CI) pastes to replay this case.
    pub fn replay_command(&self) -> String {
        format!(
            "cargo run --release -p ms-bench --bin paper -- fuzz --replay {}",
            self.replay_token()
        )
    }
}

/// Parse the field list of a `stream,...` replay token.
fn parse_stream_replay(s: &str) -> Result<StreamCase, String> {
    fn list<T: std::str::FromStr>(v: &str, what: &str) -> Result<Vec<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        if v.is_empty() {
            return Ok(Vec::new());
        }
        v.split('+')
            .map(|p| p.parse::<T>().map_err(|e| format!("{what}: {e}")))
            .collect()
    }
    let mut ns: Option<Vec<usize>> = None;
    let mut ms: Option<Vec<u32>> = None;
    let mut methods: Option<Vec<Method>> = None;
    let mut kv = None;
    let mut dist = None;
    let mut key_seed = None;
    let mut wpb = None;
    let mut sched = None;
    for part in s.split(',') {
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| format!("bad replay field {part:?} (want k=v)"))?;
        match k {
            "ns" => ns = Some(list(v, "ns")?),
            "ms" => ms = Some(list(v, "ms")?),
            "methods" => {
                let parsed: Result<Vec<Method>, String> = if v.is_empty() {
                    Ok(Vec::new())
                } else {
                    v.split('+')
                        .map(|t| {
                            METHODS
                                .iter()
                                .find(|(_, tok)| *tok == t)
                                .map(|(m, _)| *m)
                                .ok_or_else(|| format!("unknown method {t:?}"))
                        })
                        .collect()
                };
                methods = Some(parsed?);
            }
            "kv" => kv = Some(v == "1"),
            "dist" => {
                dist = Some(
                    KeyDist::ALL
                        .into_iter()
                        .find(|d| d.token() == v)
                        .ok_or_else(|| format!("unknown dist {v:?}"))?,
                )
            }
            "keyseed" => key_seed = Some(v.parse::<u64>().map_err(|e| format!("keyseed: {e}"))?),
            "wpb" => wpb = Some(v.parse::<usize>().map_err(|e| format!("wpb: {e}"))?),
            "sched" => {
                sched = Some(match v {
                    "seq" => SchedSpec::Sequential,
                    "par" => SchedSpec::Parallel,
                    adv => {
                        let mut it = adv.split(':');
                        let (Some("adv"), Some(seed), Some(flavor)) =
                            (it.next(), it.next(), it.next())
                        else {
                            return Err(format!("unknown sched {v:?}"));
                        };
                        let seed = seed
                            .parse::<u64>()
                            .map_err(|e| format!("sched seed: {e}"))?;
                        let flavor = AdvFlavor::ALL
                            .into_iter()
                            .find(|f| f.name() == flavor)
                            .ok_or_else(|| format!("unknown flavor {flavor:?}"))?;
                        SchedSpec::Adversarial { seed, flavor }
                    }
                })
            }
            other => return Err(format!("unknown stream replay field {other:?}")),
        }
    }
    let ns_list = ns.ok_or("missing ns")?;
    let ms_list = ms.ok_or("missing ms")?;
    let method_list = methods.ok_or("missing methods")?;
    if ns_list.len() != ms_list.len() || ns_list.len() != method_list.len() {
        return Err(format!(
            "ns/ms/methods lengths differ: {}/{}/{}",
            ns_list.len(),
            ms_list.len(),
            method_list.len()
        ));
    }
    if ns_list.is_empty() || ns_list.len() > MAX_STREAM_TASKS {
        return Err(format!(
            "between 1 and {MAX_STREAM_TASKS} stream tasks, got {}",
            ns_list.len()
        ));
    }
    let mut case = StreamCase {
        ntasks: ns_list.len(),
        ns: [0; MAX_STREAM_TASKS],
        ms: [0; MAX_STREAM_TASKS],
        methods: [Method::Fused; MAX_STREAM_TASKS],
        kv: kv.ok_or("missing kv")?,
        dist: dist.ok_or("missing dist")?,
        key_seed: key_seed.ok_or("missing keyseed")?,
        wpb: wpb.ok_or("missing wpb")?,
        sched: sched.ok_or("missing sched")?,
    };
    case.ns[..case.ntasks].copy_from_slice(&ns_list);
    case.ms[..case.ntasks].copy_from_slice(&ms_list);
    case.methods[..case.ntasks].copy_from_slice(&method_list);
    Ok(case)
}

/// Generate task `i`'s input keys (deterministic from `key_seed`).
pub fn gen_stream_keys(case: &StreamCase, i: usize) -> Vec<u32> {
    gen_keys_raw(
        case.ns[i],
        case.ms[i],
        case.dist,
        case.key_seed.wrapping_add(i as u64),
    )
}

/// One stream task's outputs plus its per-stream launch log view.
type StreamTaskOut = (Vec<u32>, Option<Vec<u32>>, Vec<u32>);

struct StreamRun {
    tasks: Vec<StreamTaskOut>,
    /// Launch records sorted by `(stream, stream_seq)` — the
    /// deterministic per-stream order (push order across concurrent
    /// streams is not stable).
    records: Vec<LaunchRecord>,
}

/// One full concurrent-session execution of the case under `sched`, with
/// tracked (race-detected) input buffers on every task.
fn stream_device_run(case: &StreamCase, sched: SchedSpec) -> Result<StreamRun, Divergence> {
    let result = std::panic::catch_unwind(|| {
        let dev = Device::with_schedule(K40C, sched.to_schedule());
        let keybufs: Vec<GlobalBuffer<u32>> = (0..case.ntasks)
            .map(|i| GlobalBuffer::from_slice(&gen_stream_keys(case, i)).tracked())
            .collect();
        let valbufs: Vec<Option<GlobalBuffer<u32>>> = (0..case.ntasks)
            .map(|i| {
                case.kv.then(|| {
                    let values: Vec<u32> = (0..case.ns[i] as u32).collect();
                    GlobalBuffer::from_slice(&values).tracked()
                })
            })
            .collect();
        let tasks: Vec<StreamTask<StreamTaskOut>> = (0..case.ntasks)
            .map(|i| {
                let dev = &dev;
                let kbuf = &keybufs[i];
                let vbuf = valbufs[i].as_ref();
                Box::new(move |s: &Stream| {
                    s.run(|| {
                        let bucket = RangeBuckets::new(case.ms[i]);
                        let out = multisplit_device(
                            dev,
                            case.methods[i],
                            kbuf,
                            vbuf,
                            case.ns[i],
                            &bucket,
                            case.wpb,
                        );
                        (
                            out.keys.to_vec(),
                            out.values.as_ref().map(|v| v.to_vec()),
                            out.offsets,
                        )
                    })
                }) as StreamTask<StreamTaskOut>
            })
            .collect();
        let outs = dev.concurrent(tasks);
        let mut records = dev.records();
        records.sort_by_key(|r| (r.stream, r.stream_seq));
        StreamRun {
            tasks: outs,
            records,
        }
    });
    result.map_err(panic_divergence)
}

/// Execute one concurrent-streams case differentially: every task's
/// output against its own CPU reference, then the whole session against
/// the *serialized* anchor (the sequential session runs stream 0's task
/// to completion before stream 1's — the reference order) comparing
/// outputs and the per-stream launch logs keyed by `(stream,
/// stream_seq)`.
pub fn run_stream_case(case: &StreamCase) -> Result<(), Divergence> {
    // 1. Per-task outputs vs the stable CPU reference.
    let run = stream_device_run(case, case.sched)?;
    for i in 0..case.ntasks {
        let keys = gen_stream_keys(case, i);
        let bucket = RangeBuckets::new(case.ms[i]);
        let values: Vec<u32> = (0..case.ns[i] as u32).collect();
        let (ref_keys, ref_values, ref_offsets) = if case.kv {
            multisplit_kv_ref(&keys, Some(&values), &bucket)
        } else {
            let (k, o) = multisplit_ref(&keys, &bucket);
            (k, Vec::new(), o)
        };
        let (got_keys, got_values, got_offsets) = &run.tasks[i];
        if let Some(j) = first_diff(got_keys, &ref_keys) {
            return Err(Divergence::Output(format!(
                "stream {i} keys[{j}]: device {:?} vs reference {:?}",
                got_keys.get(j),
                ref_keys.get(j)
            )));
        }
        if got_offsets != &ref_offsets {
            return Err(Divergence::Output(format!(
                "stream {i} bucket offsets: device {:?} vs reference {:?}",
                got_offsets, ref_offsets
            )));
        }
        if case.kv {
            let dv = got_values.as_deref().unwrap_or(&[]);
            if let Some(j) = first_diff(dv, &ref_values) {
                return Err(Divergence::Output(format!(
                    "stream {i} values[{j}]: device {:?} vs reference {:?}",
                    dv.get(j),
                    ref_values.get(j)
                )));
            }
        }
    }

    // 2. Bit-identical to the serialized order: outputs plus the
    // per-stream launch logs against the sequential-session anchor.
    if case.sched != SchedSpec::Sequential {
        let base = stream_device_run(case, SchedSpec::Sequential)?;
        if run.tasks != base.tasks {
            return Err(Divergence::Output(format!(
                "stream outputs differ between {} and the serialized order",
                case.sched.token()
            )));
        }
        let view = |r: &LaunchRecord| (r.stream, r.stream_seq, r.label.clone());
        let run_view: Vec<_> = run.records.iter().map(view).collect();
        let base_view: Vec<_> = base.records.iter().map(view).collect();
        if run_view != base_view {
            return Err(Divergence::Stats(format!(
                "per-stream launch sequences differ: {run_view:?} vs {base_view:?}"
            )));
        }
        for (a, b) in run.records.iter().zip(&base.records) {
            if a.stats != b.stats {
                return Err(Divergence::Stats(format!(
                    "summed BlockStats differ for stream {} launch {} ({:?}): {:?} vs {:?}",
                    a.stream, a.stream_seq, a.label, a.stats, b.stats
                )));
            }
            if a.obs.lookback_resolves != b.obs.lookback_resolves {
                return Err(Divergence::Obs(format!(
                    "lookback_resolves differ for stream {} launch {} ({:?}): {} vs {}",
                    a.stream,
                    a.stream_seq,
                    a.label,
                    a.obs.lookback_resolves,
                    b.obs.lookback_resolves
                )));
            }
        }
    }

    // 3. Look-back introspection invariant on the scheduled run.
    check_depth_hist(&run.records)
}

/// Greedily shrink a failing stream case. Beyond the per-field
/// reductions, it *drops whole stream tasks* one at a time, so the
/// fixpoint names the minimal failing stream set.
pub fn shrink_stream(case: &StreamCase, still_fails: impl Fn(&StreamCase) -> bool) -> StreamCase {
    fn drop_task(mut c: StreamCase, i: usize) -> StreamCase {
        for j in i..c.ntasks - 1 {
            c.ns[j] = c.ns[j + 1];
            c.ms[j] = c.ms[j + 1];
            c.methods[j] = c.methods[j + 1];
        }
        c.ntasks -= 1;
        c.ns[c.ntasks] = 0;
        c.ms[c.ntasks] = 0;
        c.methods[c.ntasks] = Method::Fused;
        c
    }
    let mut cur = *case;
    loop {
        let mut candidates: Vec<StreamCase> = Vec::new();
        if cur.ntasks > 1 {
            for i in 0..cur.ntasks {
                candidates.push(drop_task(cur, i));
            }
        }
        for i in 0..cur.ntasks {
            for n in [cur.ns[i] / 2, cur.ns[i].saturating_sub(1)] {
                if n < cur.ns[i] {
                    let mut c = cur;
                    c.ns[i] = n;
                    candidates.push(c);
                }
            }
            let min_m = stream_min_m(cur.methods[i]);
            for m in [cur.ms[i] / 2, cur.ms[i].saturating_sub(1)] {
                if m < cur.ms[i] && m >= min_m {
                    let mut c = cur;
                    c.ms[i] = m;
                    candidates.push(c);
                }
            }
        }
        if cur.kv {
            candidates.push(StreamCase { kv: false, ..cur });
        }
        if cur.dist != KeyDist::Uniform {
            candidates.push(StreamCase {
                dist: KeyDist::Uniform,
                ..cur
            });
        }
        match cur.sched {
            SchedSpec::Adversarial { .. } => {
                candidates.push(StreamCase {
                    sched: SchedSpec::Parallel,
                    ..cur
                });
                candidates.push(StreamCase {
                    sched: SchedSpec::Sequential,
                    ..cur
                });
            }
            SchedSpec::Parallel => candidates.push(StreamCase {
                sched: SchedSpec::Sequential,
                ..cur
            }),
            SchedSpec::Sequential => {}
        }
        match candidates.into_iter().find(|c| still_fails(c)) {
            Some(smaller) => cur = smaller,
            None => return cur,
        }
    }
}

/// Deterministically generate stream case `ix` of a run seeded with
/// `seed`: 2–4 tasks of mixed methods and sizes; kv and schedules rotate
/// (12 consecutive indices cover the {key, kv} x 6-schedule matrix).
pub fn gen_stream_case(seed: u64, ix: usize) -> StreamCase {
    let mut rng = SmallRng::seed_from_u64(seed ^ (ix as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let kv = ix % 2 == 1;
    let sched = sched_for(ix / 2, &mut rng);
    let wpb = [2usize, 4, 8][(rng.next_u32() % 3) as usize];
    let ntasks = 2 + (rng.next_u32() as usize) % (MAX_STREAM_TASKS - 1);
    let mut ns = [0usize; MAX_STREAM_TASKS];
    let mut ms = [0u32; MAX_STREAM_TASKS];
    let mut methods = [Method::Fused; MAX_STREAM_TASKS];
    for i in 0..ntasks {
        let (method, _) = METHODS[(rng.next_u32() as usize) % METHODS.len()];
        methods[i] = method;
        let (lo, hi) = (stream_min_m(method), stream_max_m(method, wpb, kv));
        ms[i] = match rng.next_u32() % 4 {
            0 => lo,
            1 => hi,
            _ => lo + rng.next_u32() % (hi - lo + 1),
        };
        ns[i] = draw_n(&mut rng, tile_of(method, ms[i], kv, wpb, 0), MAX_N / 4);
    }
    StreamCase {
        ntasks,
        ns,
        ms,
        methods,
        kv,
        dist: KeyDist::ALL[(rng.next_u32() % 4) as usize],
        key_seed: rng.next_u64(),
        wpb,
        sched,
    }
}

/// A case from any family, as produced by [`gen_any_case`] and
/// [`parse_replay`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnyCase {
    Split(FuzzCase),
    Sort(SortCase),
    Seg(SegCase),
    Stream(StreamCase),
}

impl AnyCase {
    /// The self-contained replay token (inverse of [`parse_replay`]).
    pub fn replay_token(&self) -> String {
        match self {
            AnyCase::Split(c) => c.replay_token(),
            AnyCase::Sort(c) => c.replay_token(),
            AnyCase::Seg(c) => c.replay_token(),
            AnyCase::Stream(c) => c.replay_token(),
        }
    }

    /// The one-line command a human (or CI) pastes to replay this case.
    pub fn replay_command(&self) -> String {
        match self {
            AnyCase::Split(c) => c.replay_command(),
            AnyCase::Sort(c) => c.replay_command(),
            AnyCase::Seg(c) => c.replay_command(),
            AnyCase::Stream(c) => c.replay_command(),
        }
    }
}

/// Parse a replay token from any family: `sort,...` tokens come from
/// [`SortCase::replay_token`], `seg,...` from [`SegCase::replay_token`],
/// `stream,...` from [`StreamCase::replay_token`], everything else from
/// [`FuzzCase::replay_token`].
pub fn parse_replay(s: &str) -> Result<AnyCase, String> {
    if let Some(rest) = s.strip_prefix("sort,") {
        return parse_sort_replay(rest).map(AnyCase::Sort);
    }
    if let Some(rest) = s.strip_prefix("seg,") {
        return parse_seg_replay(rest).map(AnyCase::Seg);
    }
    if let Some(rest) = s.strip_prefix("stream,") {
        return parse_stream_replay(rest).map(AnyCase::Stream);
    }
    parse_split_replay(s).map(AnyCase::Split)
}

/// Every 7th generated case is a sort case (offset 4), every 7th a
/// segmented case (offset 2), and every 7th a concurrent-streams case
/// (offset 6); the other four walk the multisplit matrix. Sub-indices
/// stay dense in each family, so 140 consecutive indices cover most of
/// the 84-case multisplit rotation *and* the sort, segmented, and stream
/// rotations (20 cases each — past the 12-index schedule matrices).
pub fn gen_any_case(seed: u64, ix: usize) -> AnyCase {
    if ix % 7 == 4 {
        AnyCase::Sort(gen_sort_case(seed, ix / 7))
    } else if ix % 7 == 2 {
        AnyCase::Seg(gen_seg_case(seed, ix / 7))
    } else if ix % 7 == 6 {
        AnyCase::Stream(gen_stream_case(seed, ix / 7))
    } else {
        AnyCase::Split(gen_case(seed, ix - (ix + 4) / 7 - (ix + 2) / 7 - ix / 7))
    }
}

fn run_any_with_fault(case: &AnyCase, fault: Option<Fault>) -> Result<(), Divergence> {
    match case {
        AnyCase::Split(c) => run_case_with_fault(c, fault),
        AnyCase::Sort(c) => run_sort_case(c),
        AnyCase::Seg(c) => run_seg_case(c),
        AnyCase::Stream(c) => run_stream_case(c),
    }
}

/// Execute one case of any family differentially (the production
/// entry point, e.g. for `paper fuzz --replay`).
pub fn run_case(case: &AnyCase) -> Result<(), Divergence> {
    run_any_with_fault(case, None)
}

/// Shrink a failing case within its own family.
pub fn shrink_any(case: &AnyCase, still_fails: impl Fn(&AnyCase) -> bool) -> AnyCase {
    match case {
        AnyCase::Split(c) => AnyCase::Split(shrink(c, |s| still_fails(&AnyCase::Split(*s)))),
        AnyCase::Sort(c) => AnyCase::Sort(shrink_sort(c, |s| still_fails(&AnyCase::Sort(*s)))),
        AnyCase::Seg(c) => AnyCase::Seg(shrink_seg(c, |s| still_fails(&AnyCase::Seg(*s)))),
        AnyCase::Stream(c) => {
            AnyCase::Stream(shrink_stream(c, |s| still_fails(&AnyCase::Stream(*s))))
        }
    }
}

/// Greedily shrink a failing case to a local minimum: every single-step
/// reduction (halve/decrement `n`, halve/decrement `m`, simplify the
/// distribution, simplify the schedule) makes it pass. The decrement
/// candidates make the fixpoint *exactly* minimal in `n` and `m`, not
/// just within a factor of two.
pub fn shrink(case: &FuzzCase, still_fails: impl Fn(&FuzzCase) -> bool) -> FuzzCase {
    let mut cur = *case;
    loop {
        let mut candidates: Vec<FuzzCase> = Vec::new();
        for n in [cur.n / 2, cur.n.saturating_sub(1)] {
            if n < cur.n {
                candidates.push(FuzzCase { n, ..cur });
            }
        }
        let min_m = cur.min_m();
        for m in [cur.m / 2, cur.m.saturating_sub(1)] {
            if m < cur.m && m >= min_m {
                candidates.push(FuzzCase { m, ..cur });
            }
        }
        if cur.dist != KeyDist::Uniform {
            candidates.push(FuzzCase {
                dist: KeyDist::Uniform,
                ..cur
            });
        }
        match cur.sched {
            SchedSpec::Adversarial { .. } => {
                candidates.push(FuzzCase {
                    sched: SchedSpec::Parallel,
                    ..cur
                });
                candidates.push(FuzzCase {
                    sched: SchedSpec::Sequential,
                    ..cur
                });
            }
            SchedSpec::Parallel => candidates.push(FuzzCase {
                sched: SchedSpec::Sequential,
                ..cur
            }),
            SchedSpec::Sequential => {}
        }
        match candidates.into_iter().find(|c| still_fails(c)) {
            Some(smaller) => cur = smaller,
            None => return cur,
        }
    }
}

/// A failing case together with its shrunk minimal reproducer.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    pub case: AnyCase,
    pub shrunk: AnyCase,
    pub divergence: Divergence,
    pub iteration: usize,
}

impl FuzzFailure {
    /// The one-line replay command for the *minimal* reproducer.
    pub fn replay_command(&self) -> String {
        self.shrunk.replay_command()
    }
}

/// Result of a fuzz run: how many cases passed, and the first failure
/// (shrunk) if any.
#[derive(Debug)]
pub struct FuzzReport {
    pub iters_run: usize,
    pub failure: Option<FuzzFailure>,
}

/// The schedule rotation the generator cycles through: sequential,
/// parallel, and all four adversarial flavors (6 schedules — the
/// acceptance matrix needs at least 3).
fn sched_for(ix: usize, rng: &mut SmallRng) -> SchedSpec {
    match ix % 6 {
        0 => SchedSpec::Sequential,
        1 => SchedSpec::Parallel,
        k => SchedSpec::Adversarial {
            seed: rng.next_u64(),
            flavor: AdvFlavor::ALL[k - 2],
        },
    }
}

/// Deterministically generate case `ix` of a run seeded with `seed`.
///
/// Methods, kv, and schedules rotate (so 200 iterations exhaust the
/// 7 methods x {key, kv} x 6 schedules matrix twice over) while
/// sizes, bucket counts, seeds, and distributions are drawn from the
/// run's RNG with a deliberate bias toward boundary values (0, 1, warp
/// and tile multiples, capacity edges).
pub fn gen_case(seed: u64, ix: usize) -> FuzzCase {
    let mut rng = SmallRng::seed_from_u64(seed ^ (ix as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let (method, _) = METHODS[ix % METHODS.len()];
    let kv = (ix / METHODS.len()) % 2 == 1;
    let sched = sched_for(ix / (METHODS.len() * 2), &mut rng);
    let wpb = [2usize, 4, 8][(rng.next_u32() % 3) as usize];
    let mut case = FuzzCase {
        n: 0,
        m: 1,
        method,
        kv,
        dist: KeyDist::Uniform,
        key_seed: 0,
        wpb,
        sched,
    };
    let (lo, hi) = (case.min_m(), case.max_m());
    case.m = match rng.next_u32() % 4 {
        0 => lo,
        1 => hi,
        _ => lo + rng.next_u32() % (hi - lo + 1),
    };
    case.n = draw_n(&mut rng, tile_of(method, case.m, kv, wpb, 0), MAX_N);
    case.dist = KeyDist::ALL[(rng.next_u32() % 4) as usize];
    case.key_seed = rng.next_u64();
    case
}

/// Run `iters` generated cases; on the first failure, shrink it and stop.
/// `on_progress` is called after every case with (index, case).
pub fn fuzz_with_fault(
    iters: usize,
    seed: u64,
    fault: Option<Fault>,
    mut on_progress: impl FnMut(usize, &AnyCase),
) -> FuzzReport {
    for ix in 0..iters {
        let case = gen_any_case(seed, ix);
        if let Err(divergence) = run_any_with_fault(&case, fault) {
            let shrunk = shrink_any(&case, |c| run_any_with_fault(c, fault).is_err());
            let divergence = run_any_with_fault(&shrunk, fault)
                .err()
                .unwrap_or(divergence);
            return FuzzReport {
                iters_run: ix + 1,
                failure: Some(FuzzFailure {
                    case,
                    shrunk,
                    divergence,
                    iteration: ix,
                }),
            };
        }
        on_progress(ix, &case);
    }
    FuzzReport {
        iters_run: iters,
        failure: None,
    }
}

/// Run `iters` generated cases with no injected fault.
pub fn fuzz(iters: usize, seed: u64, on_progress: impl FnMut(usize, &AnyCase)) -> FuzzReport {
    fuzz_with_fault(iters, seed, None, on_progress)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_token_round_trips() {
        for ix in 0..48 {
            let case = gen_case(99, ix);
            let token = case.replay_token();
            let parsed = parse_replay(&token).expect(&token);
            assert_eq!(parsed, AnyCase::Split(case), "token {token}");
        }
        for ix in 0..24 {
            let case = gen_sort_case(99, ix);
            let token = case.replay_token();
            assert!(token.starts_with("sort,"), "sort marker in {token}");
            let parsed = parse_replay(&token).expect(&token);
            assert_eq!(parsed, AnyCase::Sort(case), "token {token}");
        }
    }

    #[test]
    fn replay_rejects_malformed_tokens() {
        assert!(parse_replay("").is_err());
        assert!(parse_replay("n=1").is_err(), "missing fields");
        assert!(
            parse_replay("n=1,m=2,method=nope,kv=0,dist=uniform,keyseed=0,wpb=8,sched=seq")
                .is_err()
        );
        assert!(parse_replay(
            "n=1,m=2,method=fused,kv=0,dist=uniform,keyseed=0,wpb=8,sched=adv:x:y"
        )
        .is_err());
        assert!(
            parse_replay("n=x,m=2,method=fused,kv=0,dist=uniform,keyseed=0,wpb=8,sched=seq")
                .is_err()
        );
        assert!(parse_replay("sort,n=1").is_err(), "missing sort fields");
        assert!(
            parse_replay("sort,n=1,kv=0,digit=3,bits=8,dist=nope,keyseed=0,wpb=8,sched=seq")
                .is_err()
        );
        assert!(
            parse_replay("sort,n=1,kv=0,digit=3,bits=8,dist=uniform,keyseed=0,wpb=8,m=4").is_err(),
            "m is not a sort field"
        );
    }

    #[test]
    fn generator_covers_the_matrix() {
        // 84 consecutive cases (7 methods x 2 kv x 6 schedules) hit every
        // method x kv x schedule family exactly once.
        let mut methods = std::collections::HashSet::new();
        let mut kvs = std::collections::HashSet::new();
        let mut scheds = std::collections::HashSet::new();
        for ix in 0..84 {
            let c = gen_case(5, ix);
            methods.insert(method_token(c.method));
            kvs.insert(c.kv);
            scheds.insert(match c.sched {
                SchedSpec::Sequential => "seq".to_string(),
                SchedSpec::Parallel => "par".to_string(),
                SchedSpec::Adversarial { flavor, .. } => flavor.name().to_string(),
            });
            assert!(c.m >= c.min_m() && c.m <= c.max_m(), "m in range for {c:?}");
            assert!(c.n <= MAX_N.max(MAX_TILES * tile_of(c.method, c.m, c.kv, c.wpb, 0)));
        }
        assert_eq!(methods.len(), 7, "{methods:?}");
        assert_eq!(kvs.len(), 2);
        assert_eq!(scheds.len(), 6, "{scheds:?}");
    }

    #[test]
    fn sort_generator_covers_its_matrix() {
        // 12 consecutive sort cases hit every kv x schedule family.
        let mut kvs = std::collections::HashSet::new();
        let mut scheds = std::collections::HashSet::new();
        let mut digits = std::collections::HashSet::new();
        for ix in 0..48 {
            let c = gen_sort_case(5, ix);
            kvs.insert(c.kv);
            scheds.insert(match c.sched {
                SchedSpec::Sequential => "seq".to_string(),
                SchedSpec::Parallel => "par".to_string(),
                SchedSpec::Adversarial { flavor, .. } => flavor.name().to_string(),
            });
            digits.insert(c.digit_bits);
            let max_db = ms_sort::max_digit_bits(c.wpb, if c.kv { 4 } else { 0 });
            assert!(c.digit_bits >= 1 && c.digit_bits <= max_db, "{c:?}");
            let tile = tile_of(Method::Fused, 1 << c.digit_bits, c.kv, c.wpb, 0);
            assert!(c.bits <= 32 && c.n <= MAX_N.max(MAX_TILES * tile));
        }
        assert_eq!(kvs.len(), 2);
        assert_eq!(scheds.len(), 6, "{scheds:?}");
        assert!(
            digits.contains(&5) && digits.contains(&6),
            "the Fused→FusedLargeM crossover widths must both appear: {digits:?}"
        );
    }

    #[test]
    fn any_generator_interleaves_all_families_densely() {
        let mut split = 0usize;
        let mut sort = 0usize;
        let mut seg = 0usize;
        let mut stream = 0usize;
        for ix in 0..140 {
            match gen_any_case(7, ix) {
                AnyCase::Split(c) => {
                    // Dense sub-indices in every family.
                    assert_eq!(c, gen_case(7, split));
                    split += 1;
                }
                AnyCase::Sort(c) => {
                    assert_eq!(c, gen_sort_case(7, sort));
                    sort += 1;
                }
                AnyCase::Seg(c) => {
                    assert_eq!(c, gen_seg_case(7, seg));
                    seg += 1;
                }
                AnyCase::Stream(c) => {
                    assert_eq!(c, gen_stream_case(7, stream));
                    stream += 1;
                }
            }
        }
        assert_eq!((split, sort, seg, stream), (80, 20, 20, 20));
    }

    #[test]
    fn key_distributions_have_their_shapes() {
        let base = FuzzCase {
            n: 512,
            m: 8,
            method: Method::Fused,
            kv: false,
            dist: KeyDist::OneBucket,
            key_seed: 7,
            wpb: 8,
            sched: SchedSpec::Sequential,
        };
        let one = gen_keys(&base);
        assert!(
            one.windows(2).all(|w| w[0] == w[1]),
            "one-bucket is constant"
        );
        let sorted = gen_keys(&FuzzCase {
            dist: KeyDist::Sorted,
            ..base
        });
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        let skew = gen_keys(&FuzzCase {
            dist: KeyDist::Skew75,
            ..base
        });
        let bucket = RangeBuckets::new(8);
        use multisplit::BucketFn;
        let in0 = skew.iter().filter(|&&k| bucket.bucket_of(k) == 0).count();
        assert!(in0 > 512 / 2, "skew75 concentrates bucket 0 ({in0}/512)");
        // Deterministic in the seed.
        assert_eq!(gen_keys(&base), gen_keys(&base));
    }

    #[test]
    fn small_smoke_run_is_clean() {
        // 140 iterations walk one full multisplit rotation (84 cases: every
        // method x kv x schedule, including all four adversarial flavors)
        // plus 28 interleaved sort cases and 28 segmented batches (beyond
        // the 12-case kv x schedule rotation of each).
        let report = fuzz(140, 1234, |_, _| {});
        assert_eq!(report.iters_run, 140);
        assert!(
            report.failure.is_none(),
            "smoke fuzz must be clean: {:?}",
            report
                .failure
                .map(|f| (f.divergence.to_string(), f.replay_command()))
        );
    }

    #[test]
    fn injected_fault_shrinks_to_the_exact_minimum() {
        let fault = Some(Fault {
            min_n: 97,
            min_m: 5,
        });
        // Any multisplit case with n >= 97 && m >= 5 fails (sort cases are
        // unaffected); everything else passes.
        let report = fuzz_with_fault(200, 42, fault, |_, _| {});
        let failure = report.failure.expect("the injected fault must be found");
        let AnyCase::Split(s) = failure.shrunk else {
            panic!("the fault only corrupts multisplit cases: {failure:?}")
        };
        assert_eq!(
            (s.n, s.m),
            (97, 5),
            "shrinker must reach the exact minimum, got {s:?}"
        );
        assert_eq!(s.dist, KeyDist::Uniform, "distribution simplified");
        assert_eq!(s.sched, SchedSpec::Sequential, "schedule simplified");
        // The reproducer replays to the same failure.
        let replayed = parse_replay(&s.replay_token()).unwrap();
        assert!(run_any_with_fault(&replayed, fault).is_err());
        assert!(run_case(&replayed).is_ok(), "no fault, no failure");
        assert!(failure.replay_command().contains("paper -- fuzz --replay"));
    }

    #[test]
    fn sort_shrinker_reaches_its_own_minimum() {
        // Synthetic failure predicate: any sort case with n >= 33 and
        // digit_bits >= 3 and bits >= 7 "fails". The shrinker must land on
        // exactly that corner and simplify everything orthogonal.
        let fails = |c: &SortCase| c.n >= 33 && c.digit_bits >= 3 && c.bits >= 7;
        let start = SortCase {
            n: 2048,
            kv: true,
            digit_bits: 7,
            bits: 29,
            dist: KeyDist::Skew75,
            key_seed: 11,
            wpb: 8,
            sched: SchedSpec::Adversarial {
                seed: 3,
                flavor: AdvFlavor::ALL[0],
            },
        };
        assert!(fails(&start));
        let s = shrink_sort(&start, fails);
        assert_eq!((s.n, s.digit_bits, s.bits), (33, 3, 7), "{s:?}");
        assert!(!s.kv, "payload simplified away");
        assert_eq!(s.dist, KeyDist::Uniform);
        assert_eq!(s.sched, SchedSpec::Sequential);
    }

    #[test]
    fn sort_cases_catch_real_output_corruption() {
        // A direct failing sort comparison (not via fault injection):
        // run a case whose device output we tamper with by replaying a
        // *different* key seed through the host reference. Cheap sanity
        // check that run_sort_case actually compares something.
        let good = SortCase {
            n: 513,
            kv: true,
            digit_bits: 6,
            bits: 17,
            dist: KeyDist::Uniform,
            key_seed: 99,
            wpb: 4,
            sched: SchedSpec::Parallel,
        };
        assert!(run_sort_case(&good).is_ok());
        // Zero bits sorts nothing: output must equal input, under every
        // schedule, for both families of payload.
        for kv in [false, true] {
            let copy_case = SortCase {
                bits: 0,
                kv,
                ..good
            };
            assert!(run_sort_case(&copy_case).is_ok());
        }
    }

    #[test]
    fn seg_replay_token_round_trips() {
        for ix in 0..24 {
            let case = gen_seg_case(99, ix);
            let token = case.replay_token();
            assert!(token.starts_with("seg,"), "seg marker in {token}");
            let parsed = parse_replay(&token).expect(&token);
            assert_eq!(parsed, AnyCase::Seg(case), "token {token}");
        }
        // Zero segments serialize as empty lists and round-trip.
        let empty = SegCase {
            nsegs: 0,
            ns: [0; MAX_SEGS],
            ms: [0; MAX_SEGS],
            kv: false,
            dist: KeyDist::Uniform,
            key_seed: 5,
            wpb: 8,
            sched: SchedSpec::Sequential,
        };
        let token = empty.replay_token();
        assert_eq!(
            parse_replay(&token).unwrap(),
            AnyCase::Seg(empty),
            "{token}"
        );
    }

    #[test]
    fn seg_replay_rejects_malformed_tokens() {
        assert!(parse_replay("seg,ns=1").is_err(), "missing fields");
        assert!(
            parse_replay("seg,ns=1+2,ms=4,kv=0,dist=uniform,keyseed=0,wpb=8,sched=seq").is_err(),
            "list length mismatch"
        );
        assert!(
            parse_replay(
                "seg,ns=1+1+1+1+1+1+1,ms=1+1+1+1+1+1+1,kv=0,dist=uniform,keyseed=0,wpb=8,sched=seq"
            )
            .is_err(),
            "too many segments"
        );
        assert!(parse_replay("seg,ns=x,ms=1,kv=0,dist=uniform,keyseed=0,wpb=8,sched=seq").is_err());
    }

    /// The size draws reach both sides of every sweep path's one-tile
    /// edge (one launch at `n = tile`, the multi-tile pipeline at
    /// `tile + 1`), and some segmented batch mixes a one-tile coalesced
    /// segment with a multi-tile one.
    #[test]
    fn size_draws_cross_the_sweep_tile_edge() {
        for method in [Method::Fused, Method::FusedLargeM, Method::Onesweep] {
            let (mut at, mut past) = (false, false);
            for c in (0..3000).map(|ix| gen_case(5, ix)) {
                if c.method == method {
                    let tile = tile_of(method, c.m, c.kv, c.wpb, 0);
                    at |= c.n == tile;
                    past |= c.n == tile + 1;
                }
            }
            assert!(at && past, "{method:?}: n = tile {at}, n = tile + 1 {past}");
        }
        let mixed = (0..500).map(|ix| gen_seg_case(5, ix)).any(|c| {
            let tiles: Vec<usize> = (0..c.nsegs)
                .filter(|&i| Method::auto_for_segmented(c.ms[i], c.kv, c.wpb).is_some())
                .map(|i| {
                    let method = Method::auto_for(c.ms[i], c.kv, c.wpb);
                    c.ns[i].div_ceil(tile_of(method, c.ms[i], c.kv, c.wpb, DESC_WORDS))
                })
                .collect();
            tiles.contains(&1) && tiles.iter().any(|&t| t > 1)
        });
        assert!(mixed, "no batch mixes one-tile and multi-tile segments");
    }

    #[test]
    fn seg_generator_covers_its_matrix() {
        let mut kvs = std::collections::HashSet::new();
        let mut scheds = std::collections::HashSet::new();
        let mut fused = false;
        let mut largem = false;
        let mut empty_batch = false;
        for ix in 0..48 {
            let c = gen_seg_case(5, ix);
            kvs.insert(c.kv);
            scheds.insert(match c.sched {
                SchedSpec::Sequential => "seq".to_string(),
                SchedSpec::Parallel => "par".to_string(),
                SchedSpec::Adversarial { flavor, .. } => flavor.name().to_string(),
            });
            assert!(c.nsegs <= MAX_SEGS);
            empty_batch |= c.nsegs == 0;
            for i in 0..c.nsegs {
                let method = Method::auto_for(c.ms[i], c.kv, c.wpb);
                let tile = tile_of(method, c.ms[i], c.kv, c.wpb, DESC_WORDS);
                assert!(c.ns[i] <= (MAX_N / 4).max(MAX_TILES * tile));
                assert!(c.ms[i] >= 1);
                fused |= c.ms[i] <= 32;
                largem |= c.ms[i] > 32;
            }
            for i in c.nsegs..MAX_SEGS {
                assert_eq!((c.ns[i], c.ms[i]), (0, 0), "unused slots stay zero");
            }
        }
        assert_eq!(kvs.len(), 2);
        assert_eq!(scheds.len(), 6, "{scheds:?}");
        assert!(fused && largem, "both sweep classes must appear");
        assert!(empty_batch, "the zero-segment batch must appear");
    }

    #[test]
    fn seg_shrinker_finds_the_minimal_failing_segment_set() {
        // Synthetic predicate: the case fails iff some segment has
        // n >= 65 with m >= 7. The shrinker must drop every other
        // segment, land exactly on (65, 7), and simplify the rest.
        let fails = |c: &SegCase| (0..c.nsegs).any(|i| c.ns[i] >= 65 && c.ms[i] >= 7);
        let mut start = SegCase {
            nsegs: 4,
            ns: [0; MAX_SEGS],
            ms: [0; MAX_SEGS],
            kv: true,
            dist: KeyDist::Skew75,
            key_seed: 11,
            wpb: 8,
            sched: SchedSpec::Adversarial {
                seed: 3,
                flavor: AdvFlavor::ALL[0],
            },
        };
        start.ns[..4].copy_from_slice(&[512, 30, 900, 4]);
        start.ms[..4].copy_from_slice(&[16, 33, 8, 2]);
        assert!(fails(&start));
        let s = shrink_seg(&start, fails);
        assert_eq!(s.nsegs, 1, "minimal failing segment set is one segment");
        assert_eq!((s.ns[0], s.ms[0]), (65, 7), "{s:?}");
        assert!(!s.kv);
        assert_eq!(s.dist, KeyDist::Uniform);
        assert_eq!(s.sched, SchedSpec::Sequential);
        // Dropped slots were normalized, so the token stays canonical.
        assert_eq!(s.ns[1..], [0; MAX_SEGS - 1]);
        let replayed = parse_replay(&s.replay_token()).unwrap();
        assert_eq!(replayed, AnyCase::Seg(s));
    }

    #[test]
    fn seg_cases_run_clean_across_classes_and_schedules() {
        // A hand-built batch crossing both sweep classes, the fallback
        // path (m past the sweep capacity at wpb = 2), an empty segment,
        // and an n = 1 segment — clean on an adversarial schedule.
        let mut case = SegCase {
            nsegs: 5,
            ns: [0; MAX_SEGS],
            ms: [0; MAX_SEGS],
            kv: true,
            dist: KeyDist::Skew75,
            key_seed: 77,
            wpb: 2,
            sched: SchedSpec::Adversarial {
                seed: 13,
                flavor: AdvFlavor::ALL[1],
            },
        };
        case.ns[..5].copy_from_slice(&[700, 0, 1, 260, 513]);
        case.ms[..5].copy_from_slice(&[32, 8, 33, 128, 5]);
        assert!(run_seg_case(&case).is_ok(), "{:?}", run_seg_case(&case));
    }

    #[test]
    fn stream_replay_token_round_trips() {
        for ix in 0..24 {
            let case = gen_stream_case(99, ix);
            let token = case.replay_token();
            assert!(token.starts_with("stream,"), "stream marker in {token}");
            let parsed = parse_replay(&token).expect(&token);
            assert_eq!(parsed, AnyCase::Stream(case), "token {token}");
        }
    }

    #[test]
    fn stream_replay_rejects_malformed_tokens() {
        assert!(parse_replay("stream,ns=1").is_err(), "missing fields");
        assert!(
            parse_replay(
                "stream,ns=1+2,ms=4,methods=fused+fused,kv=0,dist=uniform,keyseed=0,wpb=8,sched=seq"
            )
            .is_err(),
            "list length mismatch"
        );
        assert!(
            parse_replay(
                "stream,ns=1+1+1+1+1,ms=1+1+1+1+1,methods=fused+fused+fused+fused+fused,kv=0,dist=uniform,keyseed=0,wpb=8,sched=seq"
            )
            .is_err(),
            "too many stream tasks"
        );
        assert!(
            parse_replay("stream,ns=,ms=,methods=,kv=0,dist=uniform,keyseed=0,wpb=8,sched=seq")
                .is_err(),
            "a session needs at least one stream task"
        );
        assert!(
            parse_replay(
                "stream,ns=1,ms=1,methods=bogus,kv=0,dist=uniform,keyseed=0,wpb=8,sched=seq"
            )
            .is_err(),
            "unknown method"
        );
    }

    #[test]
    fn stream_generator_covers_its_matrix() {
        let mut kvs = std::collections::HashSet::new();
        let mut scheds = std::collections::HashSet::new();
        let mut ntasks_seen = std::collections::HashSet::new();
        let mut methods_seen = std::collections::HashSet::new();
        for ix in 0..48 {
            let c = gen_stream_case(5, ix);
            kvs.insert(c.kv);
            scheds.insert(match c.sched {
                SchedSpec::Sequential => "seq".to_string(),
                SchedSpec::Parallel => "par".to_string(),
                SchedSpec::Adversarial { flavor, .. } => flavor.name().to_string(),
            });
            assert!((2..=MAX_STREAM_TASKS).contains(&c.ntasks), "{c:?}");
            ntasks_seen.insert(c.ntasks);
            for i in 0..c.ntasks {
                let tile = tile_of(c.methods[i], c.ms[i], c.kv, c.wpb, 0);
                assert!(c.ns[i] <= (MAX_N / 4).max(MAX_TILES * tile));
                let (lo, hi) = (
                    stream_min_m(c.methods[i]),
                    stream_max_m(c.methods[i], c.wpb, c.kv),
                );
                assert!((lo..=hi).contains(&c.ms[i]), "{c:?}");
                methods_seen.insert(method_token(c.methods[i]));
            }
            for i in c.ntasks..MAX_STREAM_TASKS {
                assert_eq!((c.ns[i], c.ms[i]), (0, 0), "unused slots stay zero");
                assert_eq!(c.methods[i], Method::Fused, "unused slots stay canonical");
            }
        }
        assert_eq!(kvs.len(), 2);
        assert_eq!(scheds.len(), 6, "{scheds:?}");
        assert_eq!(
            ntasks_seen,
            (2..=MAX_STREAM_TASKS).collect(),
            "2, 3, and 4 concurrent launches must all appear"
        );
        assert!(
            methods_seen.len() >= 5,
            "mixed methods across tasks: {methods_seen:?}"
        );
    }

    #[test]
    fn stream_shrinker_finds_the_minimal_failing_stream_set() {
        // Synthetic predicate: the case fails iff some task has
        // n >= 65 with m >= 7. The shrinker must drop every other
        // stream task, land exactly on (65, 7), and simplify the rest.
        let fails = |c: &StreamCase| (0..c.ntasks).any(|i| c.ns[i] >= 65 && c.ms[i] >= 7);
        let mut start = StreamCase {
            ntasks: 4,
            ns: [0; MAX_STREAM_TASKS],
            ms: [0; MAX_STREAM_TASKS],
            methods: [Method::Fused; MAX_STREAM_TASKS],
            kv: true,
            dist: KeyDist::Skew75,
            key_seed: 11,
            wpb: 8,
            sched: SchedSpec::Adversarial {
                seed: 3,
                flavor: AdvFlavor::ALL[0],
            },
        };
        start.ns[..4].copy_from_slice(&[512, 30, 900, 4]);
        start.ms[..4].copy_from_slice(&[16, 12, 8, 2]);
        start.methods[..4].copy_from_slice(&[
            Method::Onesweep,
            Method::WarpLevel,
            Method::BlockLevel,
            Method::Direct,
        ]);
        assert!(fails(&start));
        let s = shrink_stream(&start, fails);
        assert_eq!(s.ntasks, 1, "minimal failing stream set is one task");
        assert_eq!((s.ns[0], s.ms[0]), (65, 7), "{s:?}");
        assert!(!s.kv);
        assert_eq!(s.dist, KeyDist::Uniform);
        assert_eq!(s.sched, SchedSpec::Sequential);
        // Dropped slots were normalized, so the token stays canonical.
        assert_eq!(s.ns[1..], [0; MAX_STREAM_TASKS - 1]);
        assert_eq!(s.methods[1..], [Method::Fused; MAX_STREAM_TASKS - 1]);
        let replayed = parse_replay(&s.replay_token()).unwrap();
        assert_eq!(replayed, AnyCase::Stream(s));
    }

    #[test]
    fn stream_cases_run_clean_under_every_adversarial_flavor() {
        // A hand-built session mixing both sweep classes and an
        // n = 1 task, clean under all four adversarial flavors (the
        // ISSUE's concurrency matrix: overlapping launches on disjoint
        // tracked buffers, bit-identical to the serialized order).
        for flavor in AdvFlavor::ALL {
            let mut case = StreamCase {
                ntasks: 3,
                ns: [0; MAX_STREAM_TASKS],
                ms: [0; MAX_STREAM_TASKS],
                methods: [Method::Fused; MAX_STREAM_TASKS],
                kv: true,
                dist: KeyDist::Skew75,
                key_seed: 77,
                wpb: 2,
                sched: SchedSpec::Adversarial { seed: 13, flavor },
            };
            case.ns[..3].copy_from_slice(&[700, 1, 260]);
            case.ms[..3].copy_from_slice(&[32, 5, 40]);
            case.methods[..3].copy_from_slice(&[Method::Onesweep, Method::Fused, Method::LargeM]);
            assert!(
                run_stream_case(&case).is_ok(),
                "{}: {:?}",
                flavor.name(),
                run_stream_case(&case)
            );
        }
    }

    #[test]
    fn divergences_render_distinctly() {
        assert!(Divergence::Output("x".into())
            .to_string()
            .contains("output"));
        assert!(Divergence::Stats("x".into()).to_string().contains("stats"));
        assert!(Divergence::Obs("x".into()).to_string().contains("obs"));
        assert!(Divergence::Panic("x".into()).to_string().contains("panic"));
    }

    /// Every adversarial fuzz case runs with the stall watchdog armed: a
    /// livelocked look-back becomes a bounded panic divergence (with a
    /// wait-for-graph dump) instead of a CI hang.
    #[test]
    fn adversarial_cases_arm_the_watchdog() {
        let spec = SchedSpec::Adversarial {
            seed: 7,
            flavor: AdvFlavor::Straggler,
        };
        match spec.to_schedule() {
            Schedule::Adversarial(adv) => {
                assert_eq!(adv.spin_budget, FUZZ_SPIN_BUDGET);
                assert_ne!(adv.spin_budget, 0, "budget 0 would disarm the watchdog");
            }
            other => panic!("expected adversarial schedule, got {other:?}"),
        }
    }
}
