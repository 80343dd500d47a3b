//! Differential fuzz harness for the multisplit stack.
//!
//! Four case families share one generator rotation ([`gen_any_case`]):
//!
//! * [`FuzzCase`] — a seeded `(n, m, method, key distribution, schedule)`
//!   multisplit tuple, checked against the stable CPU reference.
//! * [`SortCase`] — a seeded `(n, digit width, bit count, kv, schedule)`
//!   ms-sort tuple, checked against the host's stable
//!   `sort_by_key(k & mask)`. Replay tokens carry a `sort,` marker.
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
//!   session) order. Its shrinker additionally drops whole stream tasks,
//!   so reproducers name the minimal failing stream *set*. Replay tokens
//!   carry a `stream,` marker.
//!
//! Each family is a [`Family`]: it owns its fields, its generator draws,
//! its device call and its reference, next to the [`Common`] header every
//! family shares (payload, key distribution, key seed, block size,
//! schedule). The rest is written once: the replay-token codec
//! ([`Field`], [`Fields`]), the greedy shrinker ([`shrink`]) and the
//! differential check ([`check`]).
//!
//! Each case executes three ways — the host reference, the simulated
//! device under the case's schedule, and the same device sequentially —
//! and checks:
//!
//! * **Output correctness**: permuted keys (and values, and bucket
//!   offsets) match the stable CPU reference bit-for-bit.
//! * **Schedule independence**: the launch sequence, keyed by
//!   `(stream, stream_seq, label)`, per-launch summed
//!   [`simt::BlockStats`], and the look-back resolve counts are identical
//!   to the sequential run (spin-poll counts and depth *distributions*
//!   are legitimately schedule-dependent and excluded — see DESIGN.md §10
//!   for the formal statement).
//! * **Race freedom**: input buffers run with the epoch race detector on
//!   (`GlobalBuffer::tracked`), so a kernel reading data another block
//!   wrote in the same epoch panics, which the harness reports as a
//!   divergence.
//!
//! On failure [`fuzz`] shrinks the case to a *minimal* reproducer (halve
//! then decrement sizes and bucket counts, drop segments or stream tasks,
//! simplify the payload, distribution and schedule) and formats it as a
//! one-line `paper fuzz --replay ...` command. A deliberately injected
//! fault ([`fuzz_with_fault`], test-only) proves the shrinker finds exact
//! minima.

use std::collections::BTreeMap;

use msrng::SmallRng;
use multisplit::{
    fused_max_buckets, max_buckets as large_m_max_buckets, multisplit_device, multisplit_kv_ref,
    multisplit_segmented,
    sweep::{items_per_thread, DESC_WORDS},
    Method, RangeBuckets, SegmentSpec,
};
use simt::{
    AdvFlavor, AdvSchedule, Device, GlobalBuffer, LaunchRecord, Schedule, Stream, StreamTask, K40C,
};

/// Upper bound on a uniformly drawn `n`, small enough that a 200-case run
/// finishes in seconds. Tile-edge draws (`draw_n`) go past it: they come
/// from the case's real tile (a sweep tile holds 4,096 keys at 8 warps),
/// up to [`MAX_TILES`] of them.
pub const MAX_N: usize = 4096;

/// Most tiles a `k × tile` size draw spans.
pub const MAX_TILES: usize = 4;

/// Upper bound on generated `m` for the methods that go past the warp
/// width (their shared-memory capacity allows ~1.2k, but histogram setup
/// cost scales with `m` and the interesting boundaries are far below).
pub const MAX_LARGE_M: u32 = 256;

/// Most warps a replayed block may have: CUDA caps a block at 1,024
/// threads (far wider blocks would underflow the shared-memory capacity
/// helpers the replay checks call).
pub const MAX_WPB: usize = 32;

/// All five methods with their replay-token names.
pub const METHODS: [(Method, &str); 5] = [
    (Method::Direct, "direct"),
    (Method::WarpLevel, "warp"),
    (Method::BlockLevel, "block"),
    (Method::LargeM, "largem"),
    (Method::Fused, "fused"),
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
    /// All four distributions with their replay-token names.
    pub const NAMES: [(KeyDist, &'static str); 4] = [
        (KeyDist::Uniform, "uniform"),
        (KeyDist::Skew75, "skew75"),
        (KeyDist::OneBucket, "onebucket"),
        (KeyDist::Sorted, "sorted"),
    ];

    fn draw(rng: &mut SmallRng) -> KeyDist {
        KeyDist::NAMES[(rng.next_u32() % 4) as usize].0
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
}

// ================================ token codec ================================

/// A value that reads and writes itself as one replay-token field.
pub trait Field: Sized {
    fn parse(v: &str) -> Result<Self, String>;
    fn write(&self) -> String;
}

macro_rules! number_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn parse(v: &str) -> Result<Self, String> {
                v.parse().map_err(|e: std::num::ParseIntError| e.to_string())
            }
            fn write(&self) -> String {
                self.to_string()
            }
        }
    )*};
}
number_field!(usize, u32, u64);

/// Fields named by a token table.
macro_rules! table_field {
    ($($t:ty => $table:expr),*) => {$(
        impl Field for $t {
            fn parse(v: &str) -> Result<Self, String> {
                let found = $table.iter().find(|(_, name)| *name == v);
                found.map(|(t, _)| *t).ok_or_else(|| format!("unknown value {v:?}"))
            }
            fn write(&self) -> String {
                $table.iter().find(|(t, _)| t == self).unwrap().1.to_string()
            }
        }
    )*};
}
table_field!(bool => [(false, "0"), (true, "1")], KeyDist => KeyDist::NAMES, Method => METHODS);

/// `seq`, `par`, or `adv:<seed>:<flavor>`.
impl Field for SchedSpec {
    fn parse(v: &str) -> Result<Self, String> {
        match v {
            "seq" => Ok(SchedSpec::Sequential),
            "par" => Ok(SchedSpec::Parallel),
            _ => {
                let (seed, flavor) = (v.strip_prefix("adv:"))
                    .and_then(|rest| rest.split_once(':'))
                    .ok_or_else(|| format!("unknown schedule {v:?}"))?;
                let flavor = AdvFlavor::ALL.into_iter().find(|f| f.name() == flavor);
                Ok(SchedSpec::Adversarial {
                    seed: u64::parse(seed).map_err(|e| format!("seed: {e}"))?,
                    flavor: flavor.ok_or_else(|| format!("unknown flavor in {v:?}"))?,
                })
            }
        }
    }
    fn write(&self) -> String {
        match self {
            SchedSpec::Sequential => "seq".to_string(),
            SchedSpec::Parallel => "par".to_string(),
            SchedSpec::Adversarial { seed, flavor } => format!("adv:{seed}:{}", flavor.name()),
        }
    }
}

/// A `+`-separated list (`ns=128+0+4096`), empty for no entries.
impl<T: Field> Field for Vec<T> {
    fn parse(v: &str) -> Result<Self, String> {
        if v.is_empty() {
            return Ok(Vec::new());
        }
        v.split('+').map(T::parse).collect()
    }
    fn write(&self) -> String {
        let parts: Vec<String> = self.iter().map(Field::write).collect();
        parts.join("+")
    }
}

/// A replay token's `k=v` fields, split once: the header and the family
/// take their typed fields out by name, and whatever is left over is an
/// unknown field.
pub struct Fields<'a>(BTreeMap<&'a str, &'a str>);

impl<'a> Fields<'a> {
    fn split(s: &'a str) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        for part in s.split(',') {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("bad replay field {part:?} (want k=v)"))?;
            if map.insert(k, v).is_some() {
                return Err(format!("duplicate replay field {k:?}"));
            }
        }
        Ok(Fields(map))
    }

    /// Remove field `k` and parse it.
    pub fn take<T: Field>(&mut self, k: &str) -> Result<T, String> {
        let v = self.0.remove(k).ok_or_else(|| format!("missing {k}"))?;
        T::parse(v).map_err(|e| format!("{k}: {e}"))
    }
}

// =============================== shared header ===============================

/// The header every family shares: payload, key distribution, key seed,
/// block size and schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Common {
    pub kv: bool,
    pub dist: KeyDist,
    pub key_seed: u64,
    pub wpb: usize,
    pub sched: SchedSpec,
}

/// A tracked (race-detected) key buffer and, for kv cases, its tracked
/// `0..len` payload.
type Inputs = (GlobalBuffer<u32>, Option<GlobalBuffer<u32>>);

impl Common {
    /// The header's leading generator draws: the schedule for rotation
    /// slot `sched_ix`, then the block size. Each family draws `dist` and
    /// `key_seed` itself, at their place among its own draws.
    fn draw(rng: &mut SmallRng, kv: bool, sched_ix: usize) -> Common {
        let sched = sched_for(sched_ix, rng);
        let wpb = [2usize, 4, 8][(rng.next_u32() % 3) as usize];
        Common {
            kv,
            dist: KeyDist::Uniform,
            key_seed: 0,
            wpb,
            sched,
        }
    }

    /// Payload bytes per key, as the capacity helpers take them.
    fn value_bytes(&self) -> u64 {
        4 * self.kv as u64
    }

    /// `n` input keys of the case's `i`-th segment or task (deterministic
    /// from `key_seed`). `m_for_skew` sets the width of the hot low range
    /// that `Skew75` concentrates 75% of keys into.
    fn keys(&self, n: usize, m_for_skew: u32, i: usize) -> Vec<u32> {
        let mut rng = SmallRng::seed_from_u64(self.key_seed.wrapping_add(i as u64));
        let bucket0_width = (1u64 << 32).div_ceil(m_for_skew as u64).max(1);
        let mut keys: Vec<u32> = match self.dist {
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
        if self.dist == KeyDist::Sorted {
            keys.sort_unstable();
        }
        keys
    }

    fn inputs(&self, keys: &[u32]) -> Inputs {
        let values = self
            .kv
            .then(|| GlobalBuffer::from_slice(&iota(keys.len())).tracked());
        (GlobalBuffer::from_slice(keys).tracked(), values)
    }

    fn parse(f: &mut Fields) -> Result<Common, String> {
        let common = Common {
            kv: f.take("kv")?,
            dist: f.take("dist")?,
            key_seed: f.take("keyseed")?,
            wpb: f.take("wpb")?,
            sched: f.take("sched")?,
        };
        if !(1..=MAX_WPB).contains(&common.wpb) {
            return Err(format!("wpb = {} is outside [1, {MAX_WPB}]", common.wpb));
        }
        Ok(common)
    }

    /// The header's shrink candidates: drop the payload, make the keys
    /// uniform, then simplify the schedule (adversarial → parallel →
    /// sequential).
    fn candidates(&self) -> Vec<Common> {
        let scheds: &[SchedSpec] = match self.sched {
            SchedSpec::Adversarial { .. } => &[SchedSpec::Parallel, SchedSpec::Sequential],
            SchedSpec::Parallel => &[SchedSpec::Sequential],
            SchedSpec::Sequential => &[],
        };
        let kv = self.kv.then_some(Common { kv: false, ..*self });
        let dist = KeyDist::Uniform;
        let uniform = (self.dist != dist).then_some(Common { dist, ..*self });
        let scheds = scheds.iter().map(|&sched| Common { sched, ..*self });
        kv.into_iter().chain(uniform).chain(scheds).collect()
    }
}

fn iota(n: usize) -> Vec<u32> {
    (0..n as u32).collect()
}

/// A device call's outputs, copied to the host as one [`Task`].
fn download(
    keys: &GlobalBuffer<u32>,
    values: Option<GlobalBuffer<u32>>,
    offsets: Vec<u32>,
) -> Task {
    (keys.to_vec(), values.map(|v| v.to_vec()), offsets)
}

/// The two single-step reductions of a size or count: halve it, and
/// decrement it (which makes the shrinker's fixpoint *exactly* minimal,
/// not just within a factor of two).
fn smaller<T>(v: T) -> Vec<T>
where
    T: Copy + PartialOrd + From<u8> + std::ops::Div<Output = T> + std::ops::Sub<Output = T>,
{
    if v > T::from(0) {
        vec![v / T::from(2), v - T::from(1)]
    } else {
        Vec::new()
    }
}

// =============================== family trait ================================

/// One task's outputs: keys, values (kv cases only), bucket offsets.
pub type Task = (Vec<u32>, Option<Vec<u32>>, Vec<u32>);

/// A fuzz case family's own fields and behaviour: its token fields, its
/// contract, its shrink steps, its device call and its reference. The
/// [`Common`] header, the codec, the shrinker and the differential check
/// are shared.
pub trait Family: Clone + PartialEq + std::fmt::Debug + std::panic::RefUnwindSafe {
    /// The token's leading marker (`sort` in `sort,n=…`); split tokens
    /// carry none.
    const MARKER: &'static str;
    /// Where the header's `kv` field sits among the family's own token
    /// fields. Sort tokens carry it right after `n`; every other family
    /// writes the whole header after its own fields.
    const KV_SLOT: usize = usize::MAX;

    /// The family's own token fields, in token order.
    fn fields(&self) -> Vec<(&'static str, String)>;
    fn parse(f: &mut Fields) -> Result<Self, String>;
    /// Reject a case the device contract does not admit. Replay tokens
    /// and shrink candidates both pass through it.
    fn validate(&self, c: &Common) -> Result<(), String>;
    /// The family's own single-step shrink candidates, tried before the
    /// header's.
    fn candidates(&self) -> Vec<Self>;
    /// The family's device call, on tracked inputs.
    fn device(&self, c: &Common, dev: &Device) -> Vec<Task>;
    /// What [`Family::device`] must return.
    fn reference(&self, c: &Common) -> Vec<Task>;
}

/// A case of family `F`: the family's own fields next to the shared
/// header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case<F> {
    /// The family's own fields.
    pub own: F,
    pub common: Common,
}

/// A multisplit case: one launch.
pub type FuzzCase = Case<Launch>;
/// An ms-sort case.
pub type SortCase = Case<Sort>;
/// A segmented-multisplit case: its segments.
pub type SegCase = Case<Vec<Seg>>;
/// A concurrent-streams case: one launch per stream task.
pub type StreamCase = Case<Vec<Launch>>;

impl<F: Family> Case<F> {
    pub fn new(own: F, common: Common) -> Self {
        Case { own, common }
    }

    /// The self-contained replay token (inverse of [`parse_replay`]).
    pub fn replay_token(&self) -> String {
        let c = &self.common;
        let mut fields = self.own.fields();
        fields.insert(F::KV_SLOT.min(fields.len()), ("kv", c.kv.write()));
        fields.extend([
            ("dist", c.dist.write()),
            ("keyseed", c.key_seed.write()),
            ("wpb", c.wpb.write()),
            ("sched", c.sched.write()),
        ]);
        let body: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let body = body.join(",");
        if F::MARKER.is_empty() {
            body
        } else {
            format!("{},{body}", F::MARKER)
        }
    }

    /// Parse a token's fields (marker stripped) and validate the case.
    fn parse(s: &str) -> Result<Self, String> {
        let mut f = Fields::split(s)?;
        let common = Common::parse(&mut f)?;
        let own = F::parse(&mut f)?;
        if let Some(k) = f.0.keys().next() {
            return Err(format!("unknown replay field {k:?}"));
        }
        own.validate(&common)?;
        Ok(Case { own, common })
    }

    /// Every single-step reduction that still validates: the family's own
    /// first, then the header's.
    fn candidates(&self) -> Vec<Self> {
        let common = self.common;
        let own = self.own.candidates().into_iter();
        let header = common.candidates().into_iter();
        (own.map(|own| Case { own, common }))
            .chain(header.map(|common| Case::new(self.own.clone(), common)))
            .filter(|c| c.own.validate(&c.common).is_ok())
            .collect()
    }
}

/// Drop each whole part (so the shrinker's fixpoint is a minimal failing
/// set of segments or stream tasks), then every single-step reduction of
/// each part.
fn list_candidates<T: Clone>(parts: &[T], reduce: impl Fn(&T) -> Vec<T>) -> Vec<Vec<T>> {
    let dropped = (0..parts.len()).map(|i| [&parts[..i], &parts[i + 1..]].concat());
    let reduced = parts.iter().enumerate().flat_map(|(i, p)| {
        reduce(p).into_iter().map(move |q| {
            let mut v = parts.to_vec();
            v[i] = q;
            v
        })
    });
    dropped.chain(reduced).collect()
}

// =============================== split family ================================

/// `[min, max]` bucket counts `method` is drawn from and replayed at,
/// capped at [`MAX_LARGE_M`]: the fused path takes every `m` up to its
/// shared-memory capacity, the three-kernel large-m path needs `m > 32`
/// and stops at its own, and every other method takes `1..=32`.
pub fn m_range(method: Method, wpb: usize, kv: bool) -> (u32, u32) {
    match method {
        Method::Fused => (1, fused_max_buckets(wpb, kv).min(MAX_LARGE_M)),
        Method::LargeM => (33, large_m_max_buckets(wpb, kv).min(MAX_LARGE_M)),
        _ => (1, 32),
    }
}

/// One multisplit launch: a split case, or one task of a stream case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Launch {
    pub n: usize,
    pub m: u32,
    pub method: Method,
}

impl Launch {
    /// Draw `m` (biased to the method's range ends, and for the fused
    /// path to both sides of its private → atomic pre-scan counting at
    /// 32 | 33), then `n` (biased to the edges of its tile, uniform up to
    /// `max_uniform`).
    fn draw(rng: &mut SmallRng, method: Method, c: &Common, max_uniform: usize) -> Launch {
        let (lo, hi) = m_range(method, c.wpb, c.kv);
        let m = match rng.next_u32() % 4 {
            0 => lo,
            1 => hi,
            2 if method == Method::Fused => 32 + rng.next_u32() % 2,
            _ => lo + rng.next_u32() % (hi - lo + 1),
        };
        let n = draw_n(rng, tile_of(method, m, c.kv, c.wpb, 0), max_uniform);
        Launch { n, m, method }
    }

    fn run(&self, c: &Common, dev: &Device, (k, v): &Inputs) -> Task {
        let bucket = RangeBuckets::new(self.m);
        let out = multisplit_device(dev, self.method, k, v.as_ref(), self.n, &bucket, c.wpb);
        download(&out.keys, out.values, out.offsets)
    }

    /// The stable CPU reference of the case's `i`-th launch.
    fn expected(&self, c: &Common, i: usize) -> Task {
        let values = iota(self.n);
        let (k, v, o) = multisplit_kv_ref(
            &c.keys(self.n, self.m, i),
            c.kv.then_some(&values[..]),
            &RangeBuckets::new(self.m),
        );
        (k, c.kv.then_some(v), o)
    }
}

impl Family for Launch {
    const MARKER: &'static str = "";

    fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("n", self.n.write()),
            ("m", self.m.write()),
            ("method", self.method.write()),
        ]
    }

    fn parse(f: &mut Fields) -> Result<Self, String> {
        Ok(Launch {
            n: f.take("n")?,
            m: f.take("m")?,
            method: f.take("method")?,
        })
    }

    fn validate(&self, c: &Common) -> Result<(), String> {
        let (lo, hi) = m_range(self.method, c.wpb, c.kv);
        if (lo..=hi).contains(&self.m) {
            return Ok(());
        }
        Err(format!(
            "m = {} is outside {}'s [{lo}, {hi}] at wpb = {}, kv = {}",
            self.m,
            self.method.write(),
            c.wpb,
            c.kv.write()
        ))
    }

    /// Halve or decrement `n`, then `m`.
    fn candidates(&self) -> Vec<Self> {
        let ns = smaller(self.n).into_iter().map(|n| Launch { n, ..*self });
        let ms = smaller(self.m).into_iter().map(|m| Launch { m, ..*self });
        ns.chain(ms).collect()
    }

    fn device(&self, c: &Common, dev: &Device) -> Vec<Task> {
        vec![self.run(c, dev, &c.inputs(&c.keys(self.n, self.m, 0)))]
    }

    fn reference(&self, c: &Common) -> Vec<Task> {
        vec![self.expected(c, 0)]
    }
}

/// Deterministically generate case `ix` of a run seeded with `seed`.
///
/// Methods, kv, and schedules rotate (so 200 iterations exhaust the
/// 5 methods x {key, kv} x 6 schedules matrix three times over) while
/// sizes, bucket counts, seeds, and distributions are drawn from the
/// run's RNG with a deliberate bias toward boundary values (0, 1, warp
/// and tile multiples, capacity edges).
pub fn gen_case(seed: u64, ix: usize) -> FuzzCase {
    let mut rng = SmallRng::seed_from_u64(seed ^ (ix as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let (method, _) = METHODS[ix % METHODS.len()];
    let kv = (ix / METHODS.len()) % 2 == 1;
    let mut common = Common::draw(&mut rng, kv, ix / (METHODS.len() * 2));
    let own = Launch::draw(&mut rng, method, &common, MAX_N);
    common.dist = KeyDist::draw(&mut rng);
    common.key_seed = rng.next_u64();
    Case { own, common }
}

// ================================ sort family ================================

/// An ms-sort case's own fields: sort the low `bits` of `n` keys with
/// `digit`-wide multisplit digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sort {
    pub n: usize,
    /// Digit width in bits (1..= [`ms_sort::max_digit_bits`]); crosses
    /// from private → atomic pre-scan counting at digit 6 (digits of 5
    /// bits or fewer fall back to atomics when their private rows do not
    /// fit shared memory).
    pub digit: u32,
    /// How many low key bits participate in the sort (0..=32). Keys are
    /// compared by `k & ((1 << bits) - 1)`; ties keep input order.
    pub bits: u32,
}

impl Sort {
    /// The input keys. `Skew75` concentrates keys in the lowest digit of
    /// the sorted range.
    fn keys(&self, c: &Common) -> Vec<u32> {
        c.keys(self.n, 1u32 << self.digit.min(8), 0)
    }
}

impl Family for Sort {
    const MARKER: &'static str = "sort";
    const KV_SLOT: usize = 1;

    fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("n", self.n.write()),
            ("digit", self.digit.write()),
            ("bits", self.bits.write()),
        ]
    }

    fn parse(f: &mut Fields) -> Result<Self, String> {
        Ok(Sort {
            n: f.take("n")?,
            digit: f.take("digit")?,
            bits: f.take("bits")?,
        })
    }

    fn validate(&self, c: &Common) -> Result<(), String> {
        let max_db = ms_sort::max_digit_bits(c.wpb, c.value_bytes());
        if !(1..=max_db).contains(&self.digit) {
            return Err(format!("digit = {} is outside [1, {max_db}]", self.digit));
        }
        if self.bits > 32 {
            return Err(format!("bits = {} exceeds the 32-bit key", self.bits));
        }
        Ok(())
    }

    /// Smaller `n`, a narrower digit, fewer bits.
    fn candidates(&self) -> Vec<Self> {
        let ns = smaller(self.n).into_iter().map(|n| Sort { n, ..*self });
        let digit = [self.digit.saturating_sub(1)].map(|digit| Sort { digit, ..*self });
        let bits = (smaller(self.bits).into_iter()).map(|bits| Sort { bits, ..*self });
        ns.chain(digit).chain(bits).collect()
    }

    fn device(&self, c: &Common, dev: &Device) -> Vec<Task> {
        let (keys, values) = c.inputs(&self.keys(c));
        let (k, v) = ms_sort::sort_by_bit_range_with(
            dev,
            &keys,
            values.as_ref(),
            self.n,
            0,
            self.bits,
            self.digit,
            c.wpb,
        );
        vec![download(&k, v, Vec::new())]
    }

    /// Rust's `sort_by_key` is stable, so ties (equal masked keys) keep
    /// input order — exactly the device contract.
    fn reference(&self, c: &Common) -> Vec<Task> {
        // The low `bits` bits (none at 0, all at 32).
        let mask = u32::MAX.checked_shr(32 - self.bits).unwrap_or(0);
        let mut pairs: Vec<(u32, u32)> = self.keys(c).into_iter().zip(0..).collect();
        pairs.sort_by_key(|&(k, _)| k & mask);
        let (keys, values): (Vec<u32>, Vec<u32>) = pairs.into_iter().unzip();
        vec![(keys, c.kv.then_some(values), Vec::new())]
    }
}

/// Deterministically generate sort case `ix` of a run seeded with `seed`.
/// kv and schedules rotate (12 consecutive indices cover the
/// {key, kv} x 6-schedule matrix) while digit widths are drawn with a
/// bias toward the private → atomic pre-scan counting at digit 6 and
/// sizes toward tile multiples.
pub fn gen_sort_case(seed: u64, ix: usize) -> SortCase {
    let mut rng = SmallRng::seed_from_u64(seed ^ (ix as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
    let mut common = Common::draw(&mut rng, ix % 2 == 1, ix / 2);
    let max_db = ms_sort::max_digit_bits(common.wpb, common.value_bytes());
    let digit = match rng.next_u32() % 4 {
        0 => 1,
        1 => 5,             // last width counted privately
        2 => 6.min(max_db), // first width counted with atomics
        _ => 1 + rng.next_u32() % max_db,
    };
    // A digit pass is a direct sweep over 2^digit buckets.
    let tile = tile_of(Method::Fused, 1 << digit, common.kv, common.wpb, 0);
    let n = draw_n(&mut rng, tile, MAX_N);
    common.dist = KeyDist::draw(&mut rng);
    let bits = match rng.next_u32() % 4 {
        0 => 0,
        1 => 32,
        2 => digit, // exactly one data pass
        _ => rng.next_u32() % 33,
    };
    common.key_seed = rng.next_u64();
    let own = Sort { n, digit, bits };
    Case { own, common }
}

// ============================= segmented family ==============================

/// Max segments a generated or replayed [`SegCase`] carries (real batches
/// are far larger, but six segments already cover every class mix and
/// both look-back window boundaries).
pub const MAX_SEGS: usize = 6;

/// One segment of a [`SegCase`], run with its own bucket count inside one
/// [`multisplit_segmented`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seg {
    pub n: usize,
    pub m: u32,
}

/// Sector-aligned (8-word) segment offsets plus the flat buffer length.
fn seg_layout(segs: &[Seg]) -> (Vec<usize>, usize) {
    let mut offs = Vec::with_capacity(segs.len());
    let mut len = 0usize;
    for s in segs {
        offs.push(len);
        len += s.n;
        len = (len + 7) & !7;
    }
    (offs, len.max(1))
}

/// The flat key buffer (gap words between segments stay zero).
fn seg_keys(segs: &[Seg], c: &Common) -> Vec<u32> {
    let (offs, len) = seg_layout(segs);
    let mut flat = vec![0u32; len];
    for (i, (s, &off)) in segs.iter().zip(&offs).enumerate() {
        flat[off..off + s.n].copy_from_slice(&c.keys(s.n, s.m, i));
    }
    flat
}

impl Family for Vec<Seg> {
    const MARKER: &'static str = "seg";

    fn fields(&self) -> Vec<(&'static str, String)> {
        let ns: Vec<usize> = self.iter().map(|s| s.n).collect();
        let ms: Vec<u32> = self.iter().map(|s| s.m).collect();
        vec![("ns", ns.write()), ("ms", ms.write())]
    }

    fn parse(f: &mut Fields) -> Result<Self, String> {
        let ns: Vec<usize> = f.take("ns")?;
        let ms: Vec<u32> = f.take("ms")?;
        if ns.len() != ms.len() {
            let (a, b) = (ns.len(), ms.len());
            return Err(format!("ns has {a} entries but ms has {b}"));
        }
        Ok(ns.into_iter().zip(ms).map(|(n, m)| Seg { n, m }).collect())
    }

    fn validate(&self, _: &Common) -> Result<(), String> {
        if self.len() > MAX_SEGS {
            return Err(format!("at most {MAX_SEGS} segments, got {}", self.len()));
        }
        match self.iter().position(|s| s.m == 0) {
            Some(i) => Err(format!("segment {i}: m = 0, but a segment needs a bucket")),
            None => Ok(()),
        }
    }

    /// Drop whole segments, then halve or decrement a segment's `n` or `m`.
    fn candidates(&self) -> Vec<Self> {
        list_candidates(self, |s| {
            let ns = smaller(s.n).into_iter().map(|n| Seg { n, ..*s });
            let ms = smaller(s.m).into_iter().map(|m| Seg { m, ..*s });
            ns.chain(ms).collect()
        })
    }

    fn device(&self, c: &Common, dev: &Device) -> Vec<Task> {
        let (offs, _) = seg_layout(self);
        let buckets: Vec<RangeBuckets> = self.iter().map(|s| RangeBuckets::new(s.m)).collect();
        let specs: Vec<SegmentSpec> = (self.iter().zip(&offs).zip(&buckets))
            .map(|((s, &offset), bucket)| SegmentSpec {
                offset,
                n: s.n,
                bucket,
            })
            .collect();
        let (keys, values) = c.inputs(&seg_keys(self, c));
        let out = multisplit_segmented(dev, &keys, values.as_ref(), &specs, c.wpb);
        vec![download(&out.keys, out.values, out.offsets.concat())]
    }

    /// Per-segment CPU references assembled into flat expectations. The
    /// device's output buffers start zeroed, so gap words must stay 0.
    fn reference(&self, c: &Common) -> Vec<Task> {
        let flat = seg_keys(self, c);
        let (offs, len) = seg_layout(self);
        let mut keys = vec![0u32; len];
        let mut values = vec![0u32; len];
        let mut offsets = Vec::new();
        for (s, &off) in self.iter().zip(&offs) {
            let seg_values: Vec<u32> = (off as u32..(off + s.n) as u32).collect();
            let (k, v, o) = multisplit_kv_ref(
                &flat[off..off + s.n],
                Some(&seg_values),
                &RangeBuckets::new(s.m),
            );
            keys[off..off + s.n].copy_from_slice(&k);
            values[off..off + s.n].copy_from_slice(&v);
            offsets.extend(o);
        }
        vec![(keys, c.kv.then_some(values), offsets)]
    }
}

/// Deterministically generate segmented case `ix` of a run seeded with
/// `seed`. kv and schedules rotate (12 consecutive indices cover the
/// {key, kv} x 6-schedule matrix); segment counts, sizes, and bucket
/// counts are drawn with a bias toward the class boundaries (m = 32/33,
/// over-capacity fallback) and tile-edge sizes.
pub fn gen_seg_case(seed: u64, ix: usize) -> SegCase {
    let mut rng = SmallRng::seed_from_u64(seed ^ (ix as u64).wrapping_mul(0xA076_1D64_78BD_642F));
    let mut common = Common::draw(&mut rng, ix % 2 == 1, ix / 2);
    let nsegs = (rng.next_u32() as usize) % (MAX_SEGS + 1);
    let own = (0..nsegs)
        .map(|_| {
            let m = match rng.next_u32() % 5 {
                0 => 1,
                1 => 32,                       // last m on the fused class
                2 => 33,                       // first m on the large-m class
                3 => 33 + rng.next_u32() % 96, // deeper multi-row look-back
                _ => 1 + rng.next_u32() % 32,
            };
            // The segmented sweep's tile (next to the tile descriptor), so a
            // batch mixes one-tile segments with pre-scanned multi-tile ones.
            let method = Method::auto_for(m, common.kv, common.wpb);
            let tile = tile_of(method, m, common.kv, common.wpb, DESC_WORDS);
            let n = draw_n(&mut rng, tile, MAX_N / 4);
            Seg { n, m }
        })
        .collect();
    common.dist = KeyDist::draw(&mut rng);
    common.key_seed = rng.next_u64();
    Case { own, common }
}

// =============================== stream family ===============================

/// Max concurrent stream tasks a generated or replayed [`StreamCase`]
/// carries: generated sessions have 2–4, and 4 tasks already exercise
/// every session-executor arbitration path.
pub const MAX_STREAM_TASKS: usize = 4;

/// A stream case runs its launches — *mixed methods and sizes* — as
/// concurrent stream tasks of a single [`Device::concurrent`] session,
/// under the case's schedule. The tasks touch disjoint tracked buffers,
/// so the versioned-clock race detector is armed on every case and must
/// stay silent — any cross-stream false positive surfaces as a panic
/// divergence with a replay token.
impl Family for Vec<Launch> {
    const MARKER: &'static str = "stream";

    fn fields(&self) -> Vec<(&'static str, String)> {
        let ns: Vec<usize> = self.iter().map(|t| t.n).collect();
        let ms: Vec<u32> = self.iter().map(|t| t.m).collect();
        let methods: Vec<Method> = self.iter().map(|t| t.method).collect();
        vec![
            ("ns", ns.write()),
            ("ms", ms.write()),
            ("methods", methods.write()),
        ]
    }

    fn parse(f: &mut Fields) -> Result<Self, String> {
        let ns: Vec<usize> = f.take("ns")?;
        let ms: Vec<u32> = f.take("ms")?;
        let methods: Vec<Method> = f.take("methods")?;
        let lens = [ns.len(), ms.len(), methods.len()];
        if lens[0] != lens[1] || lens[0] != lens[2] {
            return Err(format!("ns/ms/methods lengths differ: {lens:?}"));
        }
        let tasks = ns.into_iter().zip(ms).zip(methods);
        Ok(tasks
            .map(|((n, m), method)| Launch { n, m, method })
            .collect())
    }

    fn validate(&self, c: &Common) -> Result<(), String> {
        if !(1..=MAX_STREAM_TASKS).contains(&self.len()) {
            return Err(format!(
                "between 1 and {MAX_STREAM_TASKS} stream tasks, got {}",
                self.len()
            ));
        }
        for (i, t) in self.iter().enumerate() {
            t.validate(c).map_err(|e| format!("task {i}: {e}"))?;
        }
        Ok(())
    }

    /// Drop whole stream tasks, then halve or decrement a task's `n` or
    /// `m`.
    fn candidates(&self) -> Vec<Self> {
        list_candidates(self, Launch::candidates)
    }

    fn device(&self, c: &Common, dev: &Device) -> Vec<Task> {
        let inputs: Vec<Inputs> = (self.iter().enumerate())
            .map(|(i, t)| c.inputs(&c.keys(t.n, t.m, i)))
            .collect();
        let tasks: Vec<StreamTask<Task>> = (self.iter().zip(&inputs))
            .map(|(t, input)| {
                Box::new(move |s: &Stream| s.run(|| t.run(c, dev, input))) as StreamTask<Task>
            })
            .collect();
        dev.concurrent(tasks)
    }

    fn reference(&self, c: &Common) -> Vec<Task> {
        (self.iter().enumerate())
            .map(|(i, t)| t.expected(c, i))
            .collect()
    }
}

/// Deterministically generate stream case `ix` of a run seeded with
/// `seed`: 2–4 tasks of mixed methods and sizes; kv and schedules rotate
/// (12 consecutive indices cover the {key, kv} x 6-schedule matrix).
pub fn gen_stream_case(seed: u64, ix: usize) -> StreamCase {
    let mut rng = SmallRng::seed_from_u64(seed ^ (ix as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let mut common = Common::draw(&mut rng, ix % 2 == 1, ix / 2);
    let ntasks = 2 + (rng.next_u32() as usize) % (MAX_STREAM_TASKS - 1);
    let own = (0..ntasks)
        .map(|_| {
            let (method, _) = METHODS[(rng.next_u32() as usize) % METHODS.len()];
            Launch::draw(&mut rng, method, &common, MAX_N / 4)
        })
        .collect();
    common.dist = KeyDist::draw(&mut rng);
    common.key_seed = rng.next_u64();
    Case { own, common }
}

// ============================ generator helpers ==============================

/// Keys per tile of one `method` run at `m` buckets: the sweep tile for
/// the single-pass paths (as many items per thread as shared memory holds
/// next to `reserved_words`), one 32-key chunk per warp for the
/// three-kernel ones and past the sweep's capacity.
fn tile_of(method: Method, m: u32, kv: bool, wpb: usize, reserved_words: usize) -> usize {
    if method != Method::Fused {
        return wpb * 32;
    }
    let ipt = items_per_thread(wpb, m as usize, if kv { 4 } else { 0 }, reserved_words);
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

// ============================ differential check =============================

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

/// One device execution of a case.
struct Run {
    tasks: Vec<Task>,
    /// Launch records sorted by `(stream, stream_seq)` — the
    /// deterministic per-stream order (push order across concurrent
    /// streams is not stable; host-lane launches already count up in
    /// submission order).
    records: Vec<LaunchRecord>,
}

/// One full device execution of the case under `sched`; a panic (race
/// detector, stall watchdog, executor bug) becomes a divergence.
fn device_run<F: Family>(case: &Case<F>, sched: SchedSpec) -> Result<Run, Divergence> {
    std::panic::catch_unwind(|| {
        let dev = Device::with_schedule(K40C, sched.to_schedule());
        let tasks = case.own.device(&case.common, &dev);
        let mut records = dev.records();
        records.sort_by_key(|r| (r.stream, r.stream_seq));
        Run { tasks, records }
    })
    .map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Divergence::Panic(msg)
    })
}

fn first_diff<T: PartialEq>(a: &[T], b: &[T]) -> Option<usize> {
    if a.len() != b.len() {
        return Some(a.len().min(b.len()));
    }
    (0..a.len()).find(|&i| a[i] != b[i])
}

/// Task `i`'s output against its reference.
fn compare_task(i: usize, got: &Task, want: &Task) -> Result<(), Divergence> {
    fn values(t: &Task) -> &[u32] {
        t.1.as_deref().unwrap_or(&[])
    }
    let parts = [
        ("keys", &got.0[..], &want.0[..]),
        ("bucket offsets", &got.2[..], &want.2[..]),
        ("values", values(got), values(want)),
    ];
    for (what, got, want) in parts {
        if let Some(j) = first_diff(got, want) {
            return Err(Divergence::Output(format!(
                "task {i} {what}[{j}]: device {:?} vs reference {:?} (lens {} vs {})",
                got.get(j),
                want.get(j),
                got.len(),
                want.len()
            )));
        }
    }
    if got.1.is_some() != want.1.is_some() {
        let (g, w) = (got.1.is_some(), want.1.is_some());
        return Err(Divergence::Output(format!(
            "task {i}: device returned values {g}, reference {w}"
        )));
    }
    Ok(())
}

/// Schedule independence against the sequential anchor run: identical
/// outputs, `(stream, stream_seq, label)` launch sequence, per-launch
/// summed stats, and look-back resolve totals.
fn check_against_sequential(sched: SchedSpec, run: &Run, base: &Run) -> Result<(), Divergence> {
    if run.tasks != base.tasks {
        return Err(Divergence::Output(format!(
            "outputs differ between {} and the sequential schedule",
            sched.write()
        )));
    }
    let view = |r: &Run| -> Vec<_> {
        (r.records.iter())
            .map(|rec| (rec.stream, rec.stream_seq, rec.label.clone()))
            .collect()
    };
    if view(run) != view(base) {
        return Err(Divergence::Stats(format!(
            "launch sequences differ: {:?} vs {:?}",
            view(run),
            view(base)
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
                a.stream, a.stream_seq, a.label, a.obs.lookback_resolves, b.obs.lookback_resolves
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

/// Execute one case differentially: every task against the family's
/// reference, then the whole run against the sequential anchor, then the
/// look-back invariant. `corrupt` (test-only fault injection) flips the
/// scheduled run's first output key.
pub fn check<F: Family>(case: &Case<F>, corrupt: bool) -> Result<(), Divergence> {
    let sched = case.common.sched;
    let mut run = device_run(case, sched)?;
    if corrupt {
        if let Some(k) = run.tasks.first_mut().and_then(|t| t.0.first_mut()) {
            *k ^= 1;
        }
    }

    // 1. Every task against the family's reference.
    let reference = case.own.reference(&case.common);
    if run.tasks.len() != reference.len() {
        return Err(Divergence::Output(format!(
            "{} device tasks vs {} reference tasks",
            run.tasks.len(),
            reference.len()
        )));
    }
    for (i, (got, want)) in run.tasks.iter().zip(&reference).enumerate() {
        compare_task(i, got, want)?;
    }

    // 2. Schedule independence vs a sequential run of the same case. (The
    // sequential run doubles as the "against each other" comparison — all
    // schedules compare to the same anchor, so any two agree
    // transitively. For a stream case it is the serialized order: stream
    // 0's task runs to completion before stream 1's.)
    if sched != SchedSpec::Sequential {
        let base = device_run(case, SchedSpec::Sequential)?;
        check_against_sequential(sched, &run, &base)?;
    }

    // 3. Look-back introspection invariant.
    check_depth_hist(&run.records)
}

/// Greedily shrink a failing case to a local minimum: every single-step
/// reduction that still validates — the family's own
/// ([`Family::candidates`]), then the header's (drop the payload, uniform
/// keys, simpler schedule) — makes it pass.
pub fn shrink<F: Family>(case: &Case<F>, still_fails: impl Fn(&Case<F>) -> bool) -> Case<F> {
    let mut cur = case.clone();
    while let Some(smaller) = cur.candidates().into_iter().find(|c| still_fails(c)) {
        cur = smaller;
    }
    cur
}

// ================================ any family =================================

/// A case from any family, as produced by [`gen_any_case`] and
/// [`parse_replay`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnyCase {
    Split(FuzzCase),
    Sort(SortCase),
    Seg(SegCase),
    Stream(StreamCase),
}

/// Evaluate `$body` with `$c` bound to the family case inside `$case`
/// and `$wrap` to the variant that wraps it back into an [`AnyCase`].
macro_rules! each_family {
    ($case:expr, $wrap:pat, $c:ident => $body:expr) => {
        each_family!(@arms $case, $wrap, $c, $body, Split, Sort, Seg, Stream)
    };
    (@arms $case:expr, $wrap:pat, $c:ident, $body:expr, $($v:ident),*) => {
        match $case {
            $(AnyCase::$v($c) => {
                let $wrap = AnyCase::$v;
                $body
            })*
        }
    };
}

impl AnyCase {
    /// The self-contained replay token (inverse of [`parse_replay`]).
    pub fn replay_token(&self) -> String {
        each_family!(self, _, c => c.replay_token())
    }

    /// The one-line command a human (or CI) pastes to replay this case.
    pub fn replay_command(&self) -> String {
        format!(
            "cargo run --release -p ms-bench --bin paper -- fuzz --replay {}",
            self.replay_token()
        )
    }
}

/// Parse a replay token from any family: a `sort,`, `seg,` or `stream,`
/// marker names its family, and a token without one is a multisplit case.
/// A field that is unknown, missing, repeated or malformed is an error
/// here, and so is a case outside the device contract (`m` outside its
/// method's [`m_range`], `wpb` outside `1..=`[`MAX_WPB`], a sort digit
/// wider than ms-sort takes), rather than a false divergence later.
pub fn parse_replay(s: &str) -> Result<AnyCase, String> {
    match s.split_once(',') {
        Some(("sort", rest)) => Case::parse(rest).map(AnyCase::Sort),
        Some(("seg", rest)) => Case::parse(rest).map(AnyCase::Seg),
        Some(("stream", rest)) => Case::parse(rest).map(AnyCase::Stream),
        _ => Case::parse(s).map(AnyCase::Split),
    }
}

/// Every 7th generated case is a sort case (offset 4), every 7th a
/// segmented case (offset 2), and every 7th a concurrent-streams case
/// (offset 6); the other four walk the multisplit matrix. Sub-indices
/// stay dense in each family, so 140 consecutive indices cover most of
/// the 72-case multisplit rotation *and* the sort, segmented, and stream
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

/// Execute one case of any family differentially (the production
/// entry point, e.g. for `paper fuzz --replay`).
pub fn run_case(case: &AnyCase) -> Result<(), Divergence> {
    each_family!(case, _, c => check(c, false))
}

/// Shrink a failing case within its own family.
pub fn shrink_any(case: &AnyCase, still_fails: impl Fn(&AnyCase) -> bool) -> AnyCase {
    each_family!(case, wrap, c => wrap(shrink(c, |s| still_fails(&wrap(s.clone())))))
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

/// Run `iters` generated cases; on the first failure, shrink it and stop.
/// `corrupt` (test-only fault injection) names the cases whose first
/// output key is flipped before comparison, which exercises the shrinker
/// without a real bug. `on_progress` is called after every case with
/// (index, case).
pub fn fuzz_with_fault(
    iters: usize,
    seed: u64,
    corrupt: impl Fn(&AnyCase) -> bool,
    mut on_progress: impl FnMut(usize, &AnyCase),
) -> FuzzReport {
    let run = |case: &AnyCase| each_family!(case, _, c => check(c, corrupt(case)));
    for ix in 0..iters {
        let case = gen_any_case(seed, ix);
        if let Err(divergence) = run(&case) {
            let shrunk = shrink_any(&case, |c| run(c).is_err());
            let divergence = run(&shrunk).err().unwrap_or(divergence);
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
    fuzz_with_fault(iters, seed, |_| false, on_progress)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn sched_name(s: SchedSpec) -> &'static str {
        match s {
            SchedSpec::Sequential => "seq",
            SchedSpec::Parallel => "par",
            SchedSpec::Adversarial { flavor, .. } => flavor.name(),
        }
    }

    fn header(kv: bool, dist: KeyDist, key_seed: u64, wpb: usize, sched: SchedSpec) -> Common {
        Common {
            kv,
            dist,
            key_seed,
            wpb,
            sched,
        }
    }

    fn sort(n: usize, digit: u32, bits: u32) -> Sort {
        Sort { n, digit, bits }
    }

    fn segs(parts: &[(usize, u32)]) -> Vec<Seg> {
        parts.iter().map(|&(n, m)| Seg { n, m }).collect()
    }

    fn launches(parts: &[(usize, u32, Method)]) -> Vec<Launch> {
        (parts.iter())
            .map(|&(n, m, method)| Launch { n, m, method })
            .collect()
    }

    fn adv(seed: u64, flavor: AdvFlavor) -> SchedSpec {
        SchedSpec::Adversarial { seed, flavor }
    }

    /// The header the shrinker tests start from: every field away from
    /// its simplest value.
    fn noisy() -> Common {
        header(true, KeyDist::Skew75, 11, 8, adv(3, AdvFlavor::ALL[0]))
    }

    /// Generated cases keep the replay contract and reach both payloads
    /// and all six schedules.
    fn assert_matrix<F: Family>(cases: &[Case<F>]) {
        let (mut kvs, mut scheds) = (HashSet::new(), HashSet::new());
        for c in cases {
            assert!(c.own.validate(&c.common).is_ok(), "{c:?}");
            kvs.insert(c.common.kv);
            scheds.insert(sched_name(c.common.sched));
        }
        assert_eq!(kvs.len(), 2);
        assert_eq!(scheds.len(), 6, "{scheds:?}");
    }

    /// A shrunk case has the simplest header, and its token replays it.
    fn assert_minimal<F: Family>(s: &Case<F>) {
        assert!(!s.common.kv, "payload simplified away");
        assert_eq!(s.common.dist, KeyDist::Uniform, "distribution simplified");
        assert_eq!(s.common.sched, SchedSpec::Sequential, "schedule simplified");
        let token = s.replay_token();
        assert_eq!(parse_replay(&token).unwrap().replay_token(), token);
    }

    #[test]
    fn replay_tokens_round_trip() {
        // One row per family: how its tokens open (split tokens carry no
        // marker), and a generated case.
        for ix in 0..48 {
            let rows = [
                ("n=", AnyCase::Split(gen_case(99, ix))),
                ("sort,", AnyCase::Sort(gen_sort_case(99, ix))),
                ("seg,", AnyCase::Seg(gen_seg_case(99, ix))),
                ("stream,", AnyCase::Stream(gen_stream_case(99, ix))),
            ];
            for (marker, case) in rows {
                let token = case.replay_token();
                assert!(token.starts_with(marker), "{marker} marker in {token}");
                assert_eq!(parse_replay(&token).expect(&token), case, "token {token}");
            }
        }
        // Zero segments serialize as empty lists and round-trip.
        let empty = AnyCase::Seg(Case::new(Vec::new(), noisy()));
        let token = empty.replay_token();
        assert!(token.starts_with("seg,ns=,ms=,"), "{token}");
        assert_eq!(parse_replay(&token).unwrap(), empty, "{token}");
    }

    #[test]
    fn replay_rejects_malformed_tokens() {
        let hdr = "kv=0,dist=uniform,keyseed=0,wpb=8,sched=seq";
        let t = |own: &str| format!("{own},{hdr}");
        let split = |from: &str, to: &str| t("n=1,m=2,method=fused").replace(from, to);
        // (token, what the error must name)
        let rows: Vec<(String, &str)> = vec![
            // Structure, in any family.
            (String::new(), "want k=v"),
            ("n=1".into(), "missing"),
            (t("n=1,n=5,m=2,method=fused"), "duplicate"),
            (t("n=1,m=2,method=fused,x=1"), "unknown replay field"),
            // Malformed values.
            (t("n=1,m=2,method=nope"), "method: "),
            // A retired method fails loudly rather than replaying another.
            (t("n=1,m=2,method=onesweep"), "method: "),
            (t("n=1,m=2,method=fusedlargem"), "method: "),
            (t("n=x,m=2,method=fused"), "n: "),
            (split("seq", "adv:x:y"), "sched: "),
            (split("kv=0", "kv=2"), "kv: "),
            // The header's contract.
            (split("wpb=8", "wpb=0"), "wpb = 0"),
            (split("wpb=8", "wpb=64"), "wpb = 64"),
            // Split's contract: m inside the method's range.
            (t("n=1,m=0,method=fused"), "m = 0"),
            (t("n=1,m=257,method=fused"), "m = 257"),
            (t("n=1,m=32,method=largem"), "m = 32"),
            // Sort: `m` is not a sort field.
            ("sort,n=1".into(), "missing"),
            (t("sort,n=1,digit=3,bits=8,dist=nope"), "duplicate"),
            (
                t("sort,n=1,digit=3,bits=8").replace("uniform", "x"),
                "dist: ",
            ),
            (t("sort,n=1,digit=3,bits=8,m=4"), "unknown replay field"),
            (t("sort,n=1,digit=0,bits=8"), "digit = 0"),
            (t("sort,n=1,digit=40,bits=8"), "digit = 40"),
            (t("sort,n=1,digit=3,bits=40"), "bits = 40"),
            // Seg.
            ("seg,ns=1".into(), "missing"),
            (t("seg,ns=1+2,ms=4"), "ms has 1"),
            (t("seg,ns=1+1+1+1+1+1+1,ms=1+1+1+1+1+1+1"), "at most 6"),
            (t("seg,ns=x,ms=1"), "ns: "),
            (t("seg,ns=1+4,ms=2+0"), "segment 1: m = 0"),
            // Stream: a session needs at least one task.
            ("stream,ns=1".into(), "missing"),
            (t("stream,ns=1+2,ms=4,methods=fused+fused"), "differ"),
            (
                t("stream,ns=1+1+1+1+1,ms=1+1+1+1+1,methods=fused+fused+fused+fused+fused"),
                "got 5",
            ),
            (t("stream,ns=,ms=,methods="), "got 0"),
            (t("stream,ns=1,ms=1,methods=bogus"), "methods: "),
            (
                t("stream,ns=1+1,ms=1+0,methods=fused+fused"),
                "task 1: m = 0",
            ),
            (t("stream,ns=1,ms=5,methods=largem"), "task 0: m = 5"),
        ];
        for (token, want) in &rows {
            match parse_replay(token) {
                Ok(case) => panic!("{token:?} parsed to {case:?}"),
                Err(e) => assert!(e.contains(want), "{token:?}: {e:?} should name {want:?}"),
            }
        }
        // Past the warp width is inside the fused method's range.
        let wide = t("n=300,m=64,method=fused");
        let case = parse_replay(&wide).expect(&wide);
        assert!(run_case(&case).is_ok(), "{wide}");
    }

    /// Every generated case, as its replay token, hashed (FNV-1a) over
    /// seeds 1 and 5000 and the first 5,000 indices: a moved RNG draw or a
    /// changed token format changes the digest.
    #[test]
    fn generator_stream_is_pinned() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for seed in [1, 5000] {
            for ix in 0..5000 {
                for b in gen_any_case(seed, ix).replay_token().bytes().chain([b'\n']) {
                    h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        assert_eq!(h, 0x708d_0529_497d_2c2c, "digest {h:#018x}");
    }

    #[test]
    fn generator_covers_the_matrix() {
        // 60 consecutive cases (5 methods x 2 kv x 6 schedules) hit every
        // method x kv x schedule family exactly once.
        let cases: Vec<FuzzCase> = (0..60).map(|ix| gen_case(5, ix)).collect();
        assert_matrix(&cases);
        let methods: HashSet<_> = cases.iter().map(|c| c.own.method.write()).collect();
        assert_eq!(methods.len(), 5, "{methods:?}");
        for Case { own: l, common: c } in &cases {
            let tile = tile_of(l.method, l.m, c.kv, c.wpb, 0);
            assert!(l.n <= MAX_N.max(MAX_TILES * tile));
        }
        // The fused cases reach both pre-scan countings.
        let fused: Vec<u32> = (cases.iter())
            .filter(|c| c.own.method == Method::Fused)
            .map(|c| c.own.m)
            .collect();
        assert!(
            fused.iter().any(|&m| m <= 32) && fused.iter().any(|&m| m > 32),
            "{fused:?}"
        );
    }

    #[test]
    fn sort_generator_covers_its_matrix() {
        // 12 consecutive sort cases hit every kv x schedule family.
        let cases: Vec<SortCase> = (0..48).map(|ix| gen_sort_case(5, ix)).collect();
        assert_matrix(&cases);
        for Case { own: s, common: c } in &cases {
            let tile = tile_of(Method::Fused, 1 << s.digit, c.kv, c.wpb, 0);
            assert!(s.n <= MAX_N.max(MAX_TILES * tile));
        }
        let digits: HashSet<u32> = cases.iter().map(|c| c.own.digit).collect();
        assert!(
            digits.contains(&5) && digits.contains(&6),
            "both sides of the private → atomic counting at digit 6 must appear: {digits:?}"
        );
    }

    #[test]
    fn any_generator_interleaves_all_families_densely() {
        let mut seen = [0usize; 4];
        for ix in 0..140 {
            // Dense sub-indices in every family.
            let (family, dense) = match gen_any_case(7, ix) {
                AnyCase::Split(c) => (0, c == gen_case(7, seen[0])),
                AnyCase::Sort(c) => (1, c == gen_sort_case(7, seen[1])),
                AnyCase::Seg(c) => (2, c == gen_seg_case(7, seen[2])),
                AnyCase::Stream(c) => (3, c == gen_stream_case(7, seen[3])),
            };
            assert!(dense, "index {ix}: family {family}, case {}", seen[family]);
            seen[family] += 1;
        }
        assert_eq!(seen, [80, 20, 20, 20]);
    }

    #[test]
    fn key_distributions_have_their_shapes() {
        let keys = |dist| header(false, dist, 7, 8, SchedSpec::Sequential).keys(512, 8, 0);
        let one = keys(KeyDist::OneBucket);
        assert!(
            one.windows(2).all(|w| w[0] == w[1]),
            "one-bucket is constant"
        );
        let sorted = keys(KeyDist::Sorted);
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        let skew = keys(KeyDist::Skew75);
        let bucket = RangeBuckets::new(8);
        use multisplit::BucketFn;
        let in0 = skew.iter().filter(|&&k| bucket.bucket_of(k) == 0).count();
        assert!(in0 > 512 / 2, "skew75 concentrates bucket 0 ({in0}/512)");
        // Deterministic in the seed.
        assert_eq!(keys(KeyDist::OneBucket), one);
    }

    #[test]
    fn small_smoke_run_is_clean() {
        // 140 iterations run 80 multisplit cases (every method, kv and
        // schedule of the 72-case rotation, all four adversarial flavors
        // included) plus 20 each of the sort, segmented and stream
        // families (past each one's 12-case kv x schedule rotation).
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
        // Any multisplit case with n >= 97 && m >= 5 fails (the other
        // families are unaffected); everything else passes.
        let fault = |c: &AnyCase| matches!(c, AnyCase::Split(s) if s.own.n >= 97 && s.own.m >= 5);
        let report = fuzz_with_fault(200, 42, fault, |_, _| {});
        let failure = report.failure.expect("the injected fault must be found");
        let AnyCase::Split(s) = &failure.shrunk else {
            panic!("the fault only corrupts multisplit cases: {failure:?}")
        };
        let Launch { n, m, .. } = s.own;
        assert_eq!((n, m), (97, 5), "the exact minimum: {s:?}");
        assert_minimal(s);
        // The reproducer replays to the same failure.
        let replayed = parse_replay(&s.replay_token()).unwrap();
        let AnyCase::Split(r) = &replayed else {
            unreachable!()
        };
        assert!(check(r, fault(&replayed)).is_err());
        assert!(run_case(&replayed).is_ok(), "no fault, no failure");
        assert!(failure.replay_command().contains("paper -- fuzz --replay"));
    }

    #[test]
    fn sort_shrinker_reaches_its_own_minimum() {
        // Synthetic failure predicate: any sort case with n >= 33 and
        // digit >= 3 and bits >= 7 "fails". The shrinker must land on
        // exactly that corner and simplify everything orthogonal.
        let fails = |c: &SortCase| c.own.n >= 33 && c.own.digit >= 3 && c.own.bits >= 7;
        let start = Case::new(sort(2048, 7, 29), noisy());
        assert!(fails(&start));
        let s = shrink(&start, fails);
        assert_eq!(s.own, sort(33, 3, 7), "{s:?}");
        assert_minimal(&s);
    }

    #[test]
    fn hand_built_cases_run_clean() {
        // A sort at the first atomic-counted digit width, and zero-bit sorts
        // (output must equal input) for both payloads.
        let sort_case = |bits, kv| {
            let common = header(kv, KeyDist::Uniform, 99, 4, SchedSpec::Parallel);
            AnyCase::Sort(Case::new(sort(513, 6, bits), common))
        };
        let mut cases = vec![sort_case(17, true), sort_case(0, false), sort_case(0, true)];
        // A segmented batch crossing both sweep classes, the fallback path
        // (m past the sweep capacity at wpb = 2), an empty segment, and an
        // n = 1 segment, on an adversarial schedule.
        let batch = segs(&[(700, 32), (0, 8), (1, 33), (260, 128), (513, 5)]);
        let common = header(true, KeyDist::Skew75, 77, 2, adv(13, AdvFlavor::ALL[1]));
        cases.push(AnyCase::Seg(Case::new(batch, common)));
        // A stream session mixing both sweep classes and an n = 1 task,
        // under all four adversarial flavors (overlapping launches on
        // disjoint tracked buffers, bit-identical to the serialized order).
        let tasks = launches(&[
            (700, 32, Method::Fused),
            (1, 5, Method::Fused),
            (260, 40, Method::LargeM),
        ]);
        cases.extend(AdvFlavor::ALL.map(|flavor| {
            let common = header(true, KeyDist::Skew75, 77, 2, adv(13, flavor));
            AnyCase::Stream(Case::new(tasks.clone(), common))
        }));
        for case in &cases {
            let result = run_case(case);
            assert!(result.is_ok(), "{}: {result:?}", case.replay_token());
        }
        // The check compares something: a flipped output key fails it.
        let AnyCase::Sort(sort) = &cases[0] else {
            unreachable!()
        };
        assert!(matches!(check(sort, true), Err(Divergence::Output(_))));
    }

    /// The size draws reach both sides of the fused path's one-tile edge
    /// (one launch at `n = tile`, the multi-tile pipeline at `tile + 1`)
    /// under both pre-scan countings, and some segmented batch mixes a
    /// one-tile coalesced segment with a multi-tile one.
    #[test]
    fn size_draws_cross_the_sweep_tile_edge() {
        for wide in [false, true] {
            let (mut at, mut past) = (false, false);
            for Case { own: l, common: c } in (0..3000).map(|ix| gen_case(5, ix)) {
                if l.method == Method::Fused && (l.m > 32) == wide {
                    let tile = tile_of(l.method, l.m, c.kv, c.wpb, 0);
                    at |= l.n == tile;
                    past |= l.n == tile + 1;
                }
            }
            assert!(
                at && past,
                "m > 32: {wide}: n = tile {at}, n = tile + 1 {past}"
            );
        }
        let mixed = (0..500).map(|ix| gen_seg_case(5, ix)).any(|c| {
            let Common { kv, wpb, .. } = c.common;
            let tiles: Vec<usize> = (c.own.iter())
                .filter(|s| multisplit::segment_fits_sweep(s.m, kv, wpb))
                .map(|s| {
                    s.n.div_ceil(tile_of(Method::Fused, s.m, kv, wpb, DESC_WORDS))
                })
                .collect();
            tiles.contains(&1) && tiles.iter().any(|&t| t > 1)
        });
        assert!(mixed, "no batch mixes one-tile and multi-tile segments");
    }

    #[test]
    fn seg_generator_covers_its_matrix() {
        let cases: Vec<SegCase> = (0..48).map(|ix| gen_seg_case(5, ix)).collect();
        assert_matrix(&cases);
        for Case { own, common: c } in &cases {
            for s in own {
                let method = Method::auto_for(s.m, c.kv, c.wpb);
                let tile = tile_of(method, s.m, c.kv, c.wpb, DESC_WORDS);
                assert!(s.n <= (MAX_N / 4).max(MAX_TILES * tile));
            }
        }
        let ms: Vec<u32> = cases
            .iter()
            .flat_map(|c| c.own.iter().map(|s| s.m))
            .collect();
        assert!(
            ms.iter().any(|&m| m <= 32) && ms.iter().any(|&m| m > 32),
            "both sweep classes must appear"
        );
        assert!(
            cases.iter().any(|c| c.own.is_empty()),
            "the zero-segment batch must appear"
        );
    }

    #[test]
    fn seg_shrinker_finds_the_minimal_failing_segment_set() {
        // Synthetic predicate: the case fails iff some segment has
        // n >= 65 with m >= 7. The shrinker must drop every other
        // segment, land exactly on (65, 7), and simplify the rest.
        let fails = |c: &SegCase| c.own.iter().any(|s| s.n >= 65 && s.m >= 7);
        let start = Case::new(segs(&[(512, 16), (30, 33), (900, 8), (4, 2)]), noisy());
        assert!(fails(&start));
        let s = shrink(&start, fails);
        assert_eq!(s.own, [Seg { n: 65, m: 7 }], "one minimal segment: {s:?}");
        assert_minimal(&s);
    }

    #[test]
    fn stream_generator_covers_its_matrix() {
        let cases: Vec<StreamCase> = (0..48).map(|ix| gen_stream_case(5, ix)).collect();
        assert_matrix(&cases);
        let mut methods = HashSet::new();
        for Case { own, common: c } in &cases {
            assert!((2..=MAX_STREAM_TASKS).contains(&own.len()), "{own:?}");
            for t in own {
                let tile = tile_of(t.method, t.m, c.kv, c.wpb, 0);
                assert!(t.n <= (MAX_N / 4).max(MAX_TILES * tile));
                methods.insert(t.method.write());
            }
        }
        let ntasks: HashSet<usize> = cases.iter().map(|c| c.own.len()).collect();
        assert_eq!(
            ntasks,
            (2..=MAX_STREAM_TASKS).collect(),
            "2, 3, and 4 concurrent launches must all appear"
        );
        assert!(
            methods.len() >= 5,
            "mixed methods across tasks: {methods:?}"
        );
    }

    #[test]
    fn stream_shrinker_finds_the_minimal_failing_stream_set() {
        // Synthetic predicate: the case fails iff some task has
        // n >= 65 with m >= 7. The shrinker must drop every other
        // stream task, land exactly on (65, 7), and simplify the rest.
        let fails = |c: &StreamCase| c.own.iter().any(|t| t.n >= 65 && t.m >= 7);
        let tasks = launches(&[
            (512, 16, Method::Fused),
            (30, 12, Method::WarpLevel),
            (900, 8, Method::BlockLevel),
            (4, 2, Method::Direct),
        ]);
        let start = Case::new(tasks, noisy());
        assert!(fails(&start));
        let s = shrink(&start, fails);
        assert_eq!(s.own.len(), 1, "minimal failing stream set is one task");
        assert_eq!((s.own[0].n, s.own[0].m), (65, 7), "{s:?}");
        assert_minimal(&s);
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
        match adv(7, AdvFlavor::Straggler).to_schedule() {
            Schedule::Adversarial(adv) => {
                assert_eq!(adv.spin_budget, FUZZ_SPIN_BUDGET);
                assert_ne!(adv.spin_budget, 0, "budget 0 would disarm the watchdog");
            }
            other => panic!("expected adversarial schedule, got {other:?}"),
        }
    }
}
