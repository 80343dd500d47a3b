//! Serving front-end for batched multisplit (PR 9 tentpole).
//!
//! Models a service that receives thousands of small, independent
//! multisplit requests (each with its own `n` and `m`) and answers them
//! on a pool of simulated devices. Two executors are compared:
//!
//! * **naive** — every request becomes its own standalone
//!   [`Method::auto`]-selected run (one `GlobalBuffer` allocation and its
//!   own launches: a sweep, after a pre-scan when the request spans more
//!   than one sweep tile), sharded round-robin across the devices;
//! * **coalesced** — requests are sharded the same way, then each
//!   device's queue is chopped into batches that run as **one**
//!   [`multisplit_segmented_into`] call (one sweep launch, after one
//!   pre-scan when some request spans several tiles) over a pooled arena
//!   ([`simt::BufferPool`] — no per-request allocation; segments are
//!   packed at sector-aligned offsets so coalescing costs no extra
//!   DRAM traffic);
//! * **overlapped** — the coalesced batches additionally spread across
//!   `cfg.streams` concurrent [`simt::Stream`]s per device (one
//!   [`Device::concurrent`] session, one arena pool per stream), so
//!   batches whose grids underfill the device overlap. Wall time
//!   is the device's modeled **makespan** (occupancy-packed, per-stream
//!   FIFO — see `simt::Device::makespan`), strictly below the
//!   serialized launch-sum whenever any launch leaves SMs idle.
//!
//! All requests arrive at t = 0; a request's modeled latency is its
//! device's cumulative [`Device::total_seconds`] when the launch (or
//! batch) containing it retires. Throughput is `requests / max` over the
//! devices' completion times. Everything is counted, not timed: the
//! numbers are deterministic for a given config.

use crate::{gen_keys, run_schedule, stage_sector_counts, Distribution, Report, Table};
use msrng::SmallRng;
use multisplit::{
    multisplit_device, multisplit_ref, multisplit_segmented_into, no_values, Method, RangeBuckets,
    SegmentSpec,
};
use simt::{BufferPool, Device, DeviceProfile, GlobalBuffer, Json, K40C};

/// One serve benchmark configuration.
#[derive(Clone, Copy)]
pub struct ServeConfig {
    /// Number of client requests (all arriving at t = 0).
    pub requests: usize,
    /// Keys per request.
    pub n: usize,
    /// Per-request bucket counts are drawn uniformly from `1..=m_max`.
    pub m_max: u32,
    /// Simulated devices the service shards across.
    pub devices: usize,
    /// Max requests coalesced into one segmented launch.
    pub batch: usize,
    /// Concurrent streams per device for the overlapped executor.
    pub streams: usize,
    /// Seed for request generation (keys and per-request `m`).
    pub seed: u64,
    pub profile: DeviceProfile,
    pub wpb: usize,
    /// Check every answer of every executor bit-for-bit against the host
    /// reference and against the other executors.
    pub verify: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            requests: 4096,
            n: 1 << 10,
            m_max: 32,
            devices: 4,
            batch: 256,
            streams: 2,
            seed: 9000,
            profile: K40C,
            wpb: 8,
            verify: true,
        }
    }
}

/// A generated client request.
pub struct Request {
    pub keys: Vec<u32>,
    pub m: u32,
}

/// One request's answer (either executor).
#[derive(PartialEq)]
struct Answer {
    keys: Vec<u32>,
    offsets: Vec<u32>,
}

/// Aggregate outcome of one executor over the whole request set.
pub struct ExecStats {
    /// Completion time of the busiest device (all requests arrive at 0).
    pub wall_s: f64,
    pub requests_per_s: f64,
    /// Modeled per-request latency percentiles, microseconds.
    pub p50_us: f64,
    pub p99_us: f64,
    /// Total launches across all devices.
    pub launches: usize,
    /// Counted DRAM sectors across all devices.
    pub total_sectors: u64,
    /// Per-stage sector split (merged across devices).
    pub stage_sectors: Vec<(&'static str, u64)>,
}

/// The serve benchmark's result: both executors plus the comparison the
/// acceptance gate reads.
pub struct ServeReport {
    pub naive: ExecStats,
    pub coalesced: ExecStats,
    /// The coalesced batches re-run across `cfg.streams` concurrent
    /// streams per device (wall is the modeled makespan).
    pub overlapped: ExecStats,
    /// `naive.wall_s / coalesced.wall_s` (the ≥ 5x acceptance number).
    pub speedup: f64,
    /// `coalesced.total_sectors / naive.total_sectors` (must stay ≤ 1.05).
    pub sector_ratio: f64,
    /// Serialized launch-sum wall of the overlapped run (what the same
    /// launches would cost back-to-back on one stream; the busiest
    /// device, like every wall here).
    pub serialized_wall_s: f64,
    /// `serialized_wall_s / overlapped.wall_s` — > 1 whenever streams
    /// genuinely overlap (the acceptance gate wants strictly > 1).
    pub overlap_speedup: f64,
    /// Modeled SM utilization of the overlapped timeline, averaged over
    /// devices weighted by busy time.
    pub utilization: f64,
    /// Arena allocations vs shelf reuses across every device's pool.
    pub pool_allocs: u64,
    pub pool_reuses: u64,
    /// Requests whose three answers were bit-checked against the host
    /// reference.
    pub verified: usize,
}

/// Deterministically generate the request set for a config.
pub fn gen_requests(cfg: &ServeConfig) -> Vec<Request> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    (0..cfg.requests)
        .map(|i| {
            let m = rng.gen_range(1..=cfg.m_max);
            Request {
                keys: gen_keys(cfg.n, m, Distribution::Uniform, cfg.seed ^ (i as u64 + 1)),
                m,
            }
        })
        .collect()
}

fn fresh_devices(cfg: &ServeConfig) -> Vec<Device> {
    (0..cfg.devices)
        .map(|_| Device::with_schedule(cfg.profile, run_schedule()))
        .collect()
}

/// Latency percentile (nearest-rank) in microseconds.
fn percentile_us(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] * 1e6
}

fn exec_stats(devs: &[Device], mut latencies: Vec<f64>) -> ExecStats {
    let wall = devs.iter().map(Device::total_seconds).fold(0.0, f64::max);
    let launches = devs.iter().map(|d| d.records().len()).sum();
    let total_sectors = devs
        .iter()
        .flat_map(|d| d.records())
        .map(|r| r.stats.sectors)
        .sum();
    let mut stages: Vec<(&'static str, u64)> = Vec::new();
    for dev in devs {
        for (k, v) in stage_sector_counts(dev) {
            match stages.iter_mut().find(|(s, _)| *s == k) {
                Some((_, c)) => *c += v,
                None => stages.push((k, v)),
            }
        }
    }
    let n = latencies.len();
    latencies.sort_by(f64::total_cmp);
    ExecStats {
        wall_s: wall,
        requests_per_s: if wall > 0.0 { n as f64 / wall } else { 0.0 },
        p50_us: percentile_us(&latencies, 50.0),
        p99_us: percentile_us(&latencies, 99.0),
        launches,
        total_sectors,
        stage_sectors: stages,
    }
}

/// Per-device round-robin shards: request `i` goes to device `i % D`,
/// keeping arrival order within each shard.
fn shards(requests: usize, devices: usize) -> Vec<Vec<usize>> {
    let mut shards = vec![Vec::new(); devices.max(1)];
    for i in 0..requests {
        shards[i % devices.max(1)].push(i);
    }
    shards
}

/// The naive executor: one standalone `Method::auto` run per request.
fn run_naive(cfg: &ServeConfig, reqs: &[Request]) -> (ExecStats, Vec<Answer>) {
    let devs = fresh_devices(cfg);
    let mut latencies = vec![0.0; reqs.len()];
    let mut answers: Vec<Option<Answer>> = reqs.iter().map(|_| None).collect();
    for (d, shard) in shards(reqs.len(), cfg.devices).iter().enumerate() {
        let dev = &devs[d];
        for &i in shard {
            let r = &reqs[i];
            let keys = GlobalBuffer::from_slice(&r.keys);
            let bucket = RangeBuckets::new(r.m);
            let method = Method::auto_for(r.m, false, cfg.wpb);
            let out = multisplit_device(
                dev,
                method,
                &keys,
                no_values(),
                r.keys.len(),
                &bucket,
                cfg.wpb,
            );
            latencies[i] = dev.total_seconds();
            answers[i] = Some(Answer {
                keys: out.keys.to_vec(),
                offsets: out.offsets,
            });
        }
    }
    let answers = answers.into_iter().map(Option::unwrap).collect();
    (exec_stats(&devs, latencies), answers)
}

/// Pack one batch's segments into a pooled arena and run them as one
/// segmented multisplit, returning each request's answer in
/// batch order. Shared by the coalesced and overlapped executors.
///
/// Segments are packed at sector-aligned (8-word) offsets: a misaligned
/// segment would make every warp-wide access straddle two sectors and
/// show up as ~20% extra traffic against the standalone baseline.
fn run_batch(
    cfg: &ServeConfig,
    reqs: &[Request],
    dev: &Device,
    pool: &BufferPool,
    batch: &[usize],
) -> Vec<Answer> {
    let mut seg_off = Vec::with_capacity(batch.len());
    let mut flat_len = 0usize;
    for &i in batch {
        seg_off.push(flat_len);
        flat_len += reqs[i].keys.len();
        flat_len = (flat_len + 7) & !7;
    }
    // Provision for a full batch even when the tail batch is short, so
    // every checkout hits the same pool size class and the arena is
    // reused instead of re-allocated.
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
    let offsets = multisplit_segmented_into(
        dev,
        &arena_in,
        no_values(),
        &specs,
        cfg.wpb,
        &arena_out,
        None,
    );
    let flat = arena_out.to_vec();
    batch
        .iter()
        .zip(&seg_off)
        .zip(offsets)
        .map(|((&i, &off), o)| Answer {
            keys: flat[off..off + reqs[i].keys.len()].to_vec(),
            offsets: o,
        })
        .collect()
}

/// The coalescing executor: each device's shard runs in batches of
/// `cfg.batch`, one segmented multisplit per batch, over a pooled arena.
fn run_coalesced(cfg: &ServeConfig, reqs: &[Request]) -> (ExecStats, Vec<Answer>, (u64, u64)) {
    let devs = fresh_devices(cfg);
    let pools: Vec<BufferPool> = (0..cfg.devices).map(|_| BufferPool::new()).collect();
    let mut latencies = vec![0.0; reqs.len()];
    let mut answers: Vec<Option<Answer>> = reqs.iter().map(|_| None).collect();
    for (d, shard) in shards(reqs.len(), cfg.devices).iter().enumerate() {
        let dev = &devs[d];
        let pool = &pools[d];
        for batch in shard.chunks(cfg.batch.max(1)) {
            let batch_answers = run_batch(cfg, reqs, dev, pool, batch);
            let done = dev.total_seconds();
            for (&i, a) in batch.iter().zip(batch_answers) {
                latencies[i] = done;
                answers[i] = Some(a);
            }
        }
    }
    let allocs = pools.iter().map(BufferPool::allocs).sum();
    let reuses = pools.iter().map(BufferPool::reuses).sum();
    let answers = answers.into_iter().map(Option::unwrap).collect();
    (exec_stats(&devs, latencies), answers, (allocs, reuses))
}

/// Aggregate overlap numbers of the overlapped executor.
struct OverlapAgg {
    /// Busiest device's serialized launch-sum (the overlapped run's own
    /// launches played back-to-back on one stream).
    serialized_wall_s: f64,
    /// Busy-time-weighted mean SM utilization across devices.
    utilization: f64,
    pool_allocs: u64,
    pool_reuses: u64,
}

/// The overlapped executor: the coalesced batches additionally spread
/// round-robin across `cfg.streams` concurrent streams per device (one
/// [`Device::concurrent`] session per device, one arena pool per
/// stream). Wall time and per-request latency come from the modeled
/// makespan timeline (per-stream FIFO + occupancy packing), so launch
/// pairs that underfill the device genuinely overlap.
fn run_overlapped(cfg: &ServeConfig, reqs: &[Request]) -> (ExecStats, Vec<Answer>, OverlapAgg) {
    let streams = cfg.streams.max(1);
    let devs = fresh_devices(cfg);
    let mut latencies = vec![0.0; reqs.len()];
    let mut answers: Vec<Option<Answer>> = reqs.iter().map(|_| None).collect();
    let mut agg = OverlapAgg {
        serialized_wall_s: 0.0,
        utilization: 0.0,
        pool_allocs: 0,
        pool_reuses: 0,
    };
    let mut busy_total = 0.0f64;
    let mut makespan_total = 0.0f64;
    for (d, shard) in shards(reqs.len(), cfg.devices).iter().enumerate() {
        let dev = &devs[d];
        // Round-robin batches across the device's streams, keeping
        // arrival order within each stream (streams are FIFO).
        let mut lanes: Vec<Vec<&[usize]>> = vec![Vec::new(); streams];
        for (k, batch) in shard.chunks(cfg.batch.max(1)).enumerate() {
            lanes[k % streams].push(batch);
        }
        type LaneOut = (u64, u64, Vec<(u32, Vec<Answer>)>);
        let tasks: Vec<simt::StreamTask<LaneOut>> = lanes
            .iter()
            .map(|lane| {
                let lane = lane.clone();
                Box::new(move |s: &simt::Stream| {
                    let pool = BufferPool::new();
                    let mut done = Vec::with_capacity(lane.len());
                    for batch in lane {
                        let batch_answers = run_batch(cfg, reqs, dev, &pool, batch);
                        // The batch completes when its last launch
                        // (stream-FIFO) retires.
                        done.push((s.launches().saturating_sub(1), batch_answers));
                    }
                    (pool.allocs(), pool.reuses(), done)
                }) as simt::StreamTask<LaneOut>
            })
            .collect();
        let outs = dev.concurrent(tasks);
        // (stream, seq) -> modeled finish time on the overlapped
        // timeline (the same simulation `makespan()` summarizes).
        let ends: std::collections::HashMap<(u32, u32), f64> = dev
            .completion_times()
            .into_iter()
            .map(|(s, q, t)| ((s, q), t))
            .collect();
        for (six, (lane, (allocs, reuses, done))) in lanes.iter().zip(outs).enumerate() {
            agg.pool_allocs += allocs;
            agg.pool_reuses += reuses;
            for (batch, (last_seq, batch_answers)) in lane.iter().zip(done) {
                let t = ends.get(&(six as u32, last_seq)).copied().unwrap_or(0.0);
                for (&i, a) in batch.iter().zip(batch_answers) {
                    latencies[i] = t;
                    answers[i] = Some(a);
                }
            }
        }
        agg.serialized_wall_s = agg.serialized_wall_s.max(dev.total_seconds());
        let makespan = dev.makespan();
        busy_total += dev.utilization() * makespan;
        makespan_total += makespan;
    }
    agg.utilization = if makespan_total > 0.0 {
        busy_total / makespan_total
    } else {
        0.0
    };
    let answers: Vec<Answer> = answers.into_iter().map(Option::unwrap).collect();
    let mut stats = exec_stats(&devs, latencies);
    // Wall is the modeled makespan of the busiest device, not the
    // serialized launch-sum exec_stats derives from total_seconds.
    stats.wall_s = devs.iter().map(Device::makespan).fold(0.0, f64::max);
    stats.requests_per_s = if stats.wall_s > 0.0 {
        reqs.len() as f64 / stats.wall_s
    } else {
        0.0
    };
    (stats, answers, agg)
}

/// Run the three executors over the same deterministic request set and
/// compare them. With `cfg.verify`, every answer of every executor is
/// checked bit-for-bit against the host reference (`multisplit_ref`),
/// and the coalesced and overlapped answers against the standalone
/// `Method::auto` run.
pub fn run_serve(cfg: &ServeConfig) -> ServeReport {
    let reqs = gen_requests(cfg);
    let (naive, naive_answers) = run_naive(cfg, &reqs);
    let (coalesced, coalesced_answers, (pool_allocs, pool_reuses)) = run_coalesced(cfg, &reqs);
    let (overlapped, overlapped_answers, agg) = run_overlapped(cfg, &reqs);
    let mut verified = 0;
    if cfg.verify {
        for (i, ((a, b), c)) in naive_answers
            .iter()
            .zip(&coalesced_answers)
            .zip(&overlapped_answers)
            .enumerate()
        {
            let (keys, offsets) = multisplit_ref(&reqs[i].keys, &RangeBuckets::new(reqs[i].m));
            assert!(
                a.keys == keys && a.offsets == offsets,
                "request {i}: the standalone Method::auto run diverges from the host reference"
            );
            assert_eq!(
                a.keys, b.keys,
                "request {i}: coalesced keys diverge from the standalone Method::auto run"
            );
            assert_eq!(a.offsets, b.offsets, "request {i}: offsets diverge");
            assert_eq!(
                a.keys, c.keys,
                "request {i}: overlapped keys diverge from the serialized order"
            );
            assert_eq!(
                a.offsets, c.offsets,
                "request {i}: overlapped offsets diverge"
            );
            verified += 1;
        }
    }
    ServeReport {
        speedup: if coalesced.wall_s > 0.0 {
            naive.wall_s / coalesced.wall_s
        } else {
            0.0
        },
        sector_ratio: if naive.total_sectors > 0 {
            coalesced.total_sectors as f64 / naive.total_sectors as f64
        } else {
            0.0
        },
        serialized_wall_s: agg.serialized_wall_s,
        overlap_speedup: if overlapped.wall_s > 0.0 {
            agg.serialized_wall_s / overlapped.wall_s
        } else {
            0.0
        },
        utilization: agg.utilization,
        naive,
        coalesced,
        overlapped,
        pool_allocs: pool_allocs + agg.pool_allocs,
        pool_reuses: pool_reuses + agg.pool_reuses,
        verified,
    }
}

/// The `paper serve` report: its executor table and summary lines.
pub fn report(cfg: &ServeConfig, r: &ServeReport) -> Report {
    let mut report = Report {
        profiles: vec![cfg.profile.name],
        ..Report::new(
            "serve",
            format!(
                "serve: {} requests of n keys (m <= {}), {} devices, batch = {}, {} streams/device",
                cfg.requests,
                cfg.m_max,
                cfg.devices,
                cfg.batch,
                cfg.streams.max(1),
            ),
            &[cfg.n],
            &[cfg.seed],
        )
    };
    let mut t = Table::new(&[
        "Executor",
        "Launches",
        "Wall (ms)",
        "Req/s",
        "p50 (us)",
        "p99 (us)",
        "DRAM sectors",
    ]);
    for (name, e) in [
        ("per-request", &r.naive),
        ("coalesced", &r.coalesced),
        ("overlapped", &r.overlapped),
    ] {
        t.row(vec![
            name.into(),
            e.launches.to_string(),
            format!("{:.3}", e.wall_s * 1e3),
            format!("{:.0}", e.requests_per_s),
            format!("{:.2}", e.p50_us),
            format!("{:.2}", e.p99_us),
            e.total_sectors.to_string(),
        ]);
    }
    report.table(t);
    report.note(format!(
        "\nthroughput speedup {:.1}x; coalesced sectors / naive sectors = {:.4}\n\
         arena: {} allocations, {} pooled reuses\n\
         overlap: makespan {:.3} ms vs serialized {:.3} ms -> {:.2}x, modeled utilization {:.0}%",
        r.speedup,
        r.sector_ratio,
        r.pool_allocs,
        r.pool_reuses,
        r.overlapped.wall_s * 1e3,
        r.serialized_wall_s * 1e3,
        r.overlap_speedup,
        r.utilization * 100.0
    ));
    if cfg.verify {
        report.note(format!(
            "{} / {} answers verified bit-identical to the host reference on every executor",
            r.verified, cfg.requests
        ));
    }
    report
}

fn exec_json(e: &ExecStats) -> Json {
    Json::Obj(vec![
        ("wall_s".into(), Json::Num(e.wall_s)),
        ("requests_per_s".into(), Json::Num(e.requests_per_s)),
        ("p50_us".into(), Json::Num(e.p50_us)),
        ("p99_us".into(), Json::Num(e.p99_us)),
        ("launches".into(), Json::int(e.launches as u64)),
        ("total_sectors".into(), Json::int(e.total_sectors)),
        (
            "stages".into(),
            crate::metrics::stage_sectors_json(&e.stage_sectors),
        ),
    ])
}

/// JSON document for `--json`.
pub fn report_json(cfg: &ServeConfig, r: &ServeReport) -> Json {
    Json::Obj(vec![
        ("requests".into(), Json::int(cfg.requests as u64)),
        ("n".into(), Json::int(cfg.n as u64)),
        ("m_max".into(), Json::int(cfg.m_max as u64)),
        ("devices".into(), Json::int(cfg.devices as u64)),
        ("batch".into(), Json::int(cfg.batch as u64)),
        ("streams".into(), Json::int(cfg.streams.max(1) as u64)),
        ("seed".into(), Json::int(cfg.seed)),
        ("device".into(), Json::Str(cfg.profile.name.into())),
        ("naive".into(), exec_json(&r.naive)),
        ("coalesced".into(), exec_json(&r.coalesced)),
        ("overlapped".into(), exec_json(&r.overlapped)),
        ("speedup".into(), Json::Num(r.speedup)),
        ("sector_ratio".into(), Json::Num(r.sector_ratio)),
        ("serialized_wall_s".into(), Json::Num(r.serialized_wall_s)),
        ("overlap_speedup".into(), Json::Num(r.overlap_speedup)),
        ("utilization".into(), Json::Num(r.utilization)),
        ("pool_allocs".into(), Json::int(r.pool_allocs)),
        ("pool_reuses".into(), Json::int(r.pool_reuses)),
        ("verified".into(), Json::int(r.verified as u64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ServeConfig {
        ServeConfig {
            requests: 24,
            n: 128,
            m_max: 8,
            devices: 2,
            batch: 8,
            streams: 2,
            seed: 42,
            profile: K40C,
            wpb: 8,
            verify: true,
        }
    }

    #[test]
    fn coalescing_beats_per_request_launches_and_stays_bit_identical() {
        let cfg = small();
        let r = run_serve(&cfg);
        assert_eq!(r.verified, cfg.requests, "every answer bit-checked");
        // Every request fits one sweep tile, so each request and each
        // batch is one sweep launch: 12 requests per device become
        // batches of 8 + 4, so 2 devices x 2 batches x 1 launch.
        assert_eq!(r.naive.launches, cfg.requests);
        assert_eq!(r.coalesced.launches, 4);
        assert!(
            r.speedup >= 5.0,
            "launch-overhead amortization must reach 5x at n = 128 (got {:.2})",
            r.speedup
        );
        assert!(
            r.sector_ratio <= 1.05,
            "coalescing must cost <= 5% extra DRAM traffic (got {:.4})",
            r.sector_ratio
        );
        // The arena really pools: each device allocates its in/out pair
        // once per pool (the coalesced pool plus one per overlapped
        // stream, same size class) and reuses it for later batches.
        assert!(r.pool_reuses > 0, "later batches must reuse the arena");
        assert!(r.pool_allocs <= 2 * (cfg.devices * (1 + cfg.streams)) as u64 + 2);
    }

    #[test]
    fn overlapped_streams_beat_the_serialized_order_and_stay_bit_identical() {
        let cfg = small();
        let r = run_serve(&cfg);
        // Same launches as the coalesced executor, just spread over
        // streams — and every answer already bit-checked in run_serve.
        assert_eq!(r.overlapped.launches, r.coalesced.launches);
        assert_eq!(r.verified, cfg.requests);
        // The acceptance gate: modeled makespan strictly below the
        // serialized launch-sum of the very same launches.
        assert!(
            r.overlapped.wall_s < r.serialized_wall_s,
            "overlap must shorten the wall: makespan {} vs serialized {}",
            r.overlapped.wall_s,
            r.serialized_wall_s
        );
        assert!(
            r.overlap_speedup > 1.0,
            "overlap speedup must be strictly > 1 (got {:.3})",
            r.overlap_speedup
        );
        assert!(
            r.utilization > 0.0 && r.utilization <= 1.0 + 1e-9,
            "utilization is a fraction (got {})",
            r.utilization
        );
        // One arena pair per (device, stream), reused across batches.
        assert!(r.pool_allocs <= 2 * (cfg.devices * (1 + cfg.streams)) as u64 + 2);
    }

    #[test]
    fn a_single_stream_session_cannot_overlap() {
        let cfg = ServeConfig {
            streams: 1,
            ..small()
        };
        let r = run_serve(&cfg);
        assert!(
            (r.overlapped.wall_s - r.serialized_wall_s).abs() <= 1e-12 * r.serialized_wall_s,
            "one stream is FIFO-serialized: {} vs {}",
            r.overlapped.wall_s,
            r.serialized_wall_s
        );
        assert!((r.overlap_speedup - 1.0).abs() < 1e-9);
    }

    #[test]
    fn report_is_deterministic_for_a_config() {
        let cfg = ServeConfig {
            requests: 8,
            n: 96,
            m_max: 5,
            devices: 2,
            batch: 4,
            seed: 7,
            ..small()
        };
        let a = run_serve(&cfg);
        let b = run_serve(&cfg);
        assert_eq!(a.naive.total_sectors, b.naive.total_sectors);
        assert_eq!(a.coalesced.total_sectors, b.coalesced.total_sectors);
        assert_eq!(a.naive.launches, b.naive.launches);
        assert_eq!(
            report_json(&cfg, &a).pretty(),
            report_json(&cfg, &b).pretty()
        );
    }
}
