//! The three workloads: their generated inputs, one op each, and the
//! check of every output against a host reference.
//!
//! * `split` — a fixed rotation of `multisplit_device` calls at paper
//!   sizes (one op = one rotation).
//! * `sort` — `ms_sort::sort_pairs` on 32-bit keys with index payloads,
//!   then `ms_sort::sort_keys` on 16-bit keys (one op = that pair).
//! * `serve` — one `msbench::serve::run_serve` burst (one op = one call).

use msbench::serve::{gen_requests, run_serve, Request, ServeConfig, ServeReport};
use msbench::{gen_keys, gen_values, with_run_schedule, Distribution};
use msrng::SmallRng;
use multisplit::{
    multisplit_device, multisplit_kv_ref, multisplit_segmented_into, no_values, Method,
    RangeBuckets, SegmentSpec,
};
use simt::{BufferPool, Device, DeviceProfile, GlobalBuffer, LaunchRecord, Schedule, K40C};

use crate::host::percentile;
use crate::spans::Recorder;

pub const PROFILE: DeviceProfile = K40C;
pub const WPB: usize = multisplit::DEFAULT_WARPS_PER_BLOCK;

/// log2 of how much smaller the warm-up inputs are than the measured ones.
const WARM_SHRINK: u32 = 6;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Split,
    Sort,
    Serve,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Split, Kind::Sort, Kind::Serve];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Split => "split",
            Kind::Sort => "sort",
            Kind::Serve => "serve",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// One entry of the `split` rotation.
pub struct SplitConfig {
    pub name: &'static str,
    pub log_n: u32,
    pub m: u32,
    pub kv: bool,
    pub dist: Distribution,
}

pub const SPLIT_ROTATION: [SplitConfig; 4] = [
    SplitConfig {
        name: "m2_key",
        log_n: 22,
        m: 2,
        kv: false,
        dist: Distribution::Uniform,
    },
    SplitConfig {
        name: "m32_key",
        log_n: 22,
        m: 32,
        kv: false,
        dist: Distribution::Uniform,
    },
    SplitConfig {
        name: "m32_kv_skew",
        log_n: 22,
        m: 32,
        kv: true,
        dist: Distribution::Skew75,
    },
    SplitConfig {
        name: "m256_kv",
        log_n: 21,
        m: 256,
        kv: true,
        dist: Distribution::Uniform,
    },
];

/// The `sort` inputs: name, log2 n, key bits, with index payload.
pub const SORT_INPUTS: [(&str, u32, u32, bool); 2] =
    [("pairs32", 20, 32, true), ("keys16", 20, 16, false)];

/// The `serve` burst for a seed: 4096 requests of n = 2^10, m drawn from
/// 1..=32, on 4 devices with batch 7 and 2 streams per device.
pub fn serve_config(seed: u64, shrink: u32) -> ServeConfig {
    ServeConfig {
        requests: 4096 >> shrink,
        n: 1 << 10,
        m_max: 32,
        devices: 4,
        batch: 7,
        streams: 2,
        seed,
        profile: PROFILE,
        wpb: WPB,
        verify: true,
    }
}

/// Input keys (and payloads) on the host and uploaded to the device,
/// with the reference output once it has been computed.
struct Input {
    name: &'static str,
    keys_host: Vec<u32>,
    values_host: Option<Vec<u32>>,
    keys: GlobalBuffer<u32>,
    values: Option<GlobalBuffer<u32>>,
    /// Bucket count for `split`; unused by `sort`.
    m: u32,
    expect: Option<Expected>,
}

struct Expected {
    keys: Vec<u32>,
    values: Option<Vec<u32>>,
    offsets: Option<Vec<u32>>,
}

enum Inputs {
    Split(Vec<Input>),
    Sort(Vec<Input>),
    Serve(ServeConfig),
}

/// One public layer call made by an op, with the launches it recorded.
pub struct Call {
    pub name: &'static str,
    pub host_s: f64,
    pub keys: u64,
    pub records: Vec<LaunchRecord>,
    /// Sectors read from the call's input key buffer.
    pub key_read_sectors: u64,
}

/// One op: its layer calls, checked, with their summed host time.
pub struct Op {
    pub host_s: f64,
    pub calls: Vec<Call>,
    pub serve: Option<ServeReport>,
}

/// The modeled (device-time) end-to-end figures of one op.
pub struct Modeled {
    pub gkeys_per_s: f64,
    pub req_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

impl Op {
    pub fn modeled(&self) -> Modeled {
        if let Some(r) = &self.serve {
            let keys: u64 = self.calls.iter().map(|c| c.keys).sum();
            let o = &r.overlapped;
            return Modeled {
                gkeys_per_s: keys as f64 / o.wall_s / 1e9,
                req_per_s: o.requests_per_s,
                p50_us: o.p50_us,
                p99_us: o.p99_us,
            };
        }
        let lat: Vec<f64> = self
            .calls
            .iter()
            .map(|c| c.records.iter().map(|r| r.seconds).sum())
            .collect();
        let device_s: f64 = lat.iter().sum();
        let keys: u64 = self.calls.iter().map(|c| c.keys).sum();
        let lat_us: Vec<f64> = lat.iter().map(|s| s * 1e6).collect();
        Modeled {
            gkeys_per_s: keys as f64 / device_s / 1e9,
            req_per_s: self.calls.len() as f64 / device_s,
            p50_us: percentile(&lat_us, 50.0),
            p99_us: percentile(&lat_us, 99.0),
        }
    }

    /// Every counted statistic and modeled time of the op, exactly: two
    /// ops of the same inputs must agree on it whatever the schedule.
    pub fn fingerprint(&self) -> Vec<String> {
        let mut fp = Vec::new();
        for c in &self.calls {
            fp.push(format!("{} key_reads={}", c.name, c.key_read_sectors));
            for r in &c.records {
                fp.push(format!(
                    "{}|{}|{}|{:?}|{:016x}|{}",
                    c.name,
                    r.label,
                    r.blocks,
                    r.stats,
                    r.seconds.to_bits(),
                    r.obs.lookback_resolves
                ));
            }
        }
        if let Some(r) = &self.serve {
            for (name, e) in [
                ("naive", &r.naive),
                ("coalesced", &r.coalesced),
                ("overlapped", &r.overlapped),
            ] {
                fp.push(format!(
                    "{name}|{}|{}|{:016x}|{:016x}|{:016x}|{:?}",
                    e.launches,
                    e.total_sectors,
                    e.wall_s.to_bits(),
                    e.p50_us.to_bits(),
                    e.p99_us.to_bits(),
                    e.stage_sectors
                ));
            }
            // `run_serve` sums these over launch records in the order
            // concurrent streams pushed them, so their last bits vary from
            // run to run; compare them to 12 significant digits.
            fp.push(format!(
                "serialized={:.12e} util={:.12e} pool={}/{} verified={}",
                r.serialized_wall_s, r.utilization, r.pool_allocs, r.pool_reuses, r.verified
            ));
        }
        fp
    }
}

/// A workload with its inputs generated and uploaded and its device built.
pub struct Bench {
    pub kind: Kind,
    seed: u64,
    dev: Device,
    inputs: Inputs,
}

/// Per-input seeds derived from the run's seed.
fn seeds(seed: u64, count: usize) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count).map(|_| rng.next_u64()).collect()
}

fn upload(
    rec: &mut Recorder,
    name: &'static str,
    keys_host: Vec<u32>,
    values_host: Option<Vec<u32>>,
    m: u32,
) -> Input {
    let s = rec.begin("upload", name);
    let keys = GlobalBuffer::from_slice(&keys_host);
    let values = values_host.as_deref().map(GlobalBuffer::from_slice);
    rec.end(s);
    Input {
        name,
        keys_host,
        values_host,
        keys,
        values,
        m,
        expect: None,
    }
}

fn generate(kind: Kind, seed: u64, shrink: u32, rec: &mut Recorder) -> Inputs {
    match kind {
        Kind::Split => {
            let seeds = seeds(seed, SPLIT_ROTATION.len());
            let inputs = SPLIT_ROTATION
                .iter()
                .zip(seeds)
                .map(|(c, s)| {
                    let n = 1usize << (c.log_n - shrink);
                    let g = rec.begin("generate", c.name);
                    let keys = gen_keys(n, c.m, c.dist, s);
                    let values = c.kv.then(|| gen_values(n));
                    rec.end(g);
                    upload(rec, c.name, keys, values, c.m)
                })
                .collect();
            Inputs::Split(inputs)
        }
        Kind::Sort => {
            let seeds = seeds(seed, SORT_INPUTS.len());
            let inputs = SORT_INPUTS
                .iter()
                .zip(seeds)
                .map(|(&(name, log_n, bits, kv), s)| {
                    let n = 1usize << (log_n - shrink);
                    let g = rec.begin("generate", name);
                    let mut rng = SmallRng::seed_from_u64(s);
                    let keys: Vec<u32> = (0..n)
                        .map(|_| (rng.next_u64() >> (64 - bits)) as u32)
                        .collect();
                    let values = kv.then(|| gen_values(n));
                    rec.end(g);
                    upload(rec, name, keys, values, 0)
                })
                .collect();
            Inputs::Sort(inputs)
        }
        Kind::Serve => Inputs::Serve(serve_config(seed, shrink)),
    }
}

impl Bench {
    /// The measured set-up: generate the inputs, upload them, build the
    /// device, and warm it up with one checked op on inputs 2^6 times
    /// smaller.
    pub fn setup(kind: Kind, seed: u64) -> Result<Bench, String> {
        let mut quiet = Recorder::new(false);
        let dev = Device::new(PROFILE);
        let mut warm = Bench {
            kind,
            seed,
            dev,
            inputs: generate(kind, seed, WARM_SHRINK, &mut quiet),
        };
        warm.prepare_references();
        warm.run_op(Schedule::Parallel, &mut quiet)?;
        Ok(Bench {
            inputs: generate(kind, seed, 0, &mut quiet),
            ..warm
        })
    }

    /// Compute the host reference of every input (outside any timing).
    pub fn prepare_references(&mut self) {
        match &mut self.inputs {
            Inputs::Split(inputs) => {
                for inp in inputs {
                    let bucket = RangeBuckets::new(inp.m);
                    let (keys, values, offsets) =
                        multisplit_kv_ref(&inp.keys_host, inp.values_host.as_deref(), &bucket);
                    inp.expect = Some(Expected {
                        keys,
                        values: inp.values_host.is_some().then_some(values),
                        offsets: Some(offsets),
                    });
                }
            }
            Inputs::Sort(inputs) => {
                for inp in inputs {
                    // A host stable sort: equal keys keep their input order,
                    // and the index payload records that order.
                    let mut pairs: Vec<(u32, u32)> =
                        inp.keys_host.iter().copied().zip(0u32..).collect();
                    pairs.sort_by_key(|&(k, _)| k);
                    let values = inp
                        .values_host
                        .as_ref()
                        .map(|v| pairs.iter().map(|&(_, i)| v[i as usize]).collect());
                    inp.expect = Some(Expected {
                        keys: pairs.into_iter().map(|(k, _)| k).collect(),
                        values,
                        offsets: None,
                    });
                }
            }
            Inputs::Serve(_) => {}
        }
    }

    /// Generate and upload the inputs again under recorded spans, as a
    /// traced op does. The seed is unchanged, so the references still hold.
    pub fn regenerate(&mut self, rec: &mut Recorder) {
        let fresh = generate(self.kind, self.seed, 0, rec);
        match (&mut self.inputs, fresh) {
            (Inputs::Split(old), Inputs::Split(new)) | (Inputs::Sort(old), Inputs::Sort(new)) => {
                for (o, mut n) in old.iter_mut().zip(new) {
                    n.expect = o.expect.take();
                    *o = n;
                }
            }
            (inputs, fresh) => *inputs = fresh,
        }
    }

    /// Run one op under `schedule` and check its outputs. Host time
    /// covers the layer calls only; download and verify are untimed.
    pub fn run_op(&self, schedule: Schedule, rec: &mut Recorder) -> Result<Op, String> {
        let owned;
        let dev = if schedule == Schedule::Parallel {
            &self.dev
        } else {
            owned = Device::with_schedule(PROFILE, schedule);
            &owned
        };
        dev.reset();
        let mut op = Op {
            host_s: 0.0,
            calls: Vec::new(),
            serve: None,
        };
        match &self.inputs {
            Inputs::Split(inputs) => {
                for inp in inputs {
                    let bucket = RangeBuckets::new(inp.m);
                    let method = Method::auto_for(inp.m, inp.values.is_some(), WPB);
                    let n = inp.keys.len();
                    op.calls.push(layer_call(dev, inp, rec, "core", || {
                        let values = inp.values.as_ref();
                        let out =
                            multisplit_device(dev, method, &inp.keys, values, n, &bucket, WPB);
                        (out.keys, out.values, Some(out.offsets))
                    })?);
                }
            }
            Inputs::Sort(inputs) => {
                for inp in inputs {
                    let n = inp.keys.len();
                    op.calls
                        .push(layer_call(dev, inp, rec, "sort", || match &inp.values {
                            Some(v) => {
                                let (k, v) = ms_sort::sort_pairs(dev, &inp.keys, v, n, WPB);
                                (k, Some(v), None)
                            }
                            None => (ms_sort::sort_keys(dev, &inp.keys, n, WPB), None, None),
                        })?);
                }
            }
            Inputs::Serve(cfg) => {
                let s = rec.begin("serve", "run_serve");
                let report = with_run_schedule(schedule, || run_serve(cfg));
                let host_s = rec.end(s);
                let v = rec.begin("verify", "run_serve");
                let verified = report.verified;
                rec.end(v);
                if verified != cfg.requests {
                    return Err(format!(
                        "serve: {verified} of {} answers verified",
                        cfg.requests
                    ));
                }
                op.calls.push(Call {
                    name: "run_serve",
                    host_s,
                    keys: (cfg.requests * cfg.n) as u64,
                    records: Vec::new(),
                    key_read_sectors: 0,
                });
                op.serve = Some(report);
            }
        }
        op.host_s = op.calls.iter().map(|c| c.host_s).sum();
        Ok(op)
    }

    /// The serve config of a `serve` bench.
    pub fn serve_cfg(&self) -> Option<&ServeConfig> {
        match &self.inputs {
            Inputs::Serve(cfg) => Some(cfg),
            _ => None,
        }
    }
}

/// Compare a downloaded output with its reference.
fn check(inp: &Input, keys: &[u32], values: Option<&[u32]>, offsets: Option<&[u32]>) -> bool {
    let e = inp
        .expect
        .as_ref()
        .expect("references prepared before any op");
    keys == e.keys
        && values == e.values.as_deref()
        && (e.offsets.is_none() || offsets == e.offsets.as_deref())
}

/// One layer call on `inp`: time `run` under a `layer` span, then
/// download its keys, values and offsets and check them.
fn layer_call(
    dev: &Device,
    inp: &Input,
    rec: &mut Recorder,
    layer: &'static str,
    run: impl FnOnce() -> (
        GlobalBuffer<u32>,
        Option<GlobalBuffer<u32>>,
        Option<Vec<u32>>,
    ),
) -> Result<Call, String> {
    let reads = inp.keys.read_sectors();
    let s = rec.begin(layer, inp.name);
    let (keys_out, values_out, offsets) = run();
    let host_s = rec.end(s);
    let key_read_sectors = inp.keys.read_sectors() - reads;
    let records = dev.take_records();
    let d = rec.begin("download", inp.name);
    let keys = keys_out.to_vec();
    let values = values_out.as_ref().map(GlobalBuffer::to_vec);
    rec.end(d);
    drop((keys_out, values_out));
    let v = rec.begin("verify", inp.name);
    let ok = check(inp, &keys, values.as_deref(), offsets.as_deref());
    rec.end(v);
    if !ok {
        return Err(format!(
            "{layer} {}: output differs from its host reference",
            inp.name
        ));
    }
    Ok(Call {
        name: inp.name,
        host_s,
        keys: keys.len() as u64,
        records,
        key_read_sectors,
    })
}

/// The launches behind one op, each placed on its device's modeled
/// timeline.
pub struct LaunchLog {
    pub records: Vec<LaunchRecord>,
    /// Per record: its trace lane and modeled completion time.
    pub placed: Vec<(u64, f64)>,
    /// The busiest device's modeled makespan.
    pub makespan: f64,
    /// Sectors read from the input key buffers.
    pub key_read_sectors: u64,
}

impl Op {
    /// The op's own launches, back to back on the host lane.
    pub fn launch_log(&self) -> LaunchLog {
        let records: Vec<LaunchRecord> =
            self.calls.iter().flat_map(|c| c.records.clone()).collect();
        let mut t = 0.0;
        let placed = records
            .iter()
            .map(|r| {
                t += r.seconds;
                (0, t)
            })
            .collect();
        LaunchLog {
            records,
            placed,
            makespan: t,
            key_read_sectors: self.calls.iter().map(|c| c.key_read_sectors).sum(),
        }
    }
}

impl LaunchLog {
    /// The launches of `run_serve`'s overlapped executor, re-driven from
    /// outside through the same public calls (`gen_requests`,
    /// `multisplit_segmented_into`, `BufferPool`, `Device::concurrent`),
    /// since `run_serve` keeps its devices to itself. Lane
    /// `device * streams + stream + 1` holds one device stream.
    pub fn serve_replica(cfg: &ServeConfig) -> LaunchLog {
        let reqs = gen_requests(cfg);
        let streams = cfg.streams.max(1);
        let mut out = LaunchLog {
            records: Vec::new(),
            placed: Vec::new(),
            makespan: 0.0,
            key_read_sectors: 0,
        };
        for d in 0..cfg.devices {
            let dev = Device::new(cfg.profile);
            let shard: Vec<usize> = (d..reqs.len()).step_by(cfg.devices).collect();
            let mut lanes: Vec<Vec<&[usize]>> = vec![Vec::new(); streams];
            for (k, batch) in shard.chunks(cfg.batch.max(1)).enumerate() {
                lanes[k % streams].push(batch);
            }
            let tasks: Vec<simt::StreamTask<u64>> = lanes
                .into_iter()
                .map(|lane| {
                    let (reqs, dev) = (&reqs, &dev);
                    Box::new(move |_: &simt::Stream| {
                        let pool = BufferPool::new();
                        lane.iter()
                            .map(|batch| replica_batch(cfg, reqs, dev, &pool, batch))
                            .sum()
                    }) as simt::StreamTask<u64>
                })
                .collect();
            out.key_read_sectors += dev.concurrent(tasks).into_iter().sum::<u64>();
            let ends = dev.completion_times();
            out.makespan = out.makespan.max(dev.makespan());
            // Streams push records in whatever order they finish; sort
            // them so the float sums over them repeat exactly.
            let mut records = dev.take_records();
            records.sort_by_key(|r| (r.stream, r.stream_seq));
            for r in records {
                let end = ends
                    .iter()
                    .find(|&&(s, q, _)| (s, q) == (r.stream, r.stream_seq))
                    .map_or(0.0, |e| e.2);
                let lane = (d * streams) as u64 + r.stream as u64 + 1;
                out.placed.push((lane, end));
                out.records.push(r);
            }
        }
        out
    }
}

/// One batch exactly as `run_serve` packs it: segments at sector-aligned
/// offsets of a pooled arena sized for a full batch. Returns the arena's
/// read sectors.
fn replica_batch(
    cfg: &ServeConfig,
    reqs: &[Request],
    dev: &Device,
    pool: &BufferPool,
    batch: &[usize],
) -> u64 {
    let mut seg_off = Vec::with_capacity(batch.len());
    let mut flat_len = 0usize;
    for &i in batch {
        seg_off.push(flat_len);
        flat_len = (flat_len + reqs[i].keys.len() + 7) & !7;
    }
    let arena_len = (cfg.batch * ((cfg.n + 7) & !7)).max(flat_len).max(1);
    let arena_in = pool.acquire(arena_len);
    let arena_out = pool.acquire(arena_len);
    for (&i, &off) in batch.iter().zip(&seg_off) {
        for (j, &k) in reqs[i].keys.iter().enumerate() {
            arena_in.set(off + j, k);
        }
    }
    let buckets: Vec<RangeBuckets> = batch
        .iter()
        .map(|&i| RangeBuckets::new(reqs[i].m))
        .collect();
    let specs: Vec<SegmentSpec> = batch
        .iter()
        .zip(&seg_off)
        .zip(&buckets)
        .map(|((&i, &offset), bucket)| SegmentSpec {
            offset,
            n: reqs[i].keys.len(),
            bucket,
        })
        .collect();
    let before = arena_in.read_sectors();
    multisplit_segmented_into(
        dev,
        &arena_in,
        no_values(),
        &specs,
        cfg.wpb,
        &arena_out,
        None,
    );
    arena_in.read_sectors() - before
}
