//! perfbench — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload split|sort|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Three workloads drive the layers through their public functions only
//! (see `workload.rs` and BENCHMARK.json for why each was chosen). A run
//! sets up several times, then repeats one op until `--seconds` have
//! passed, checks every output against a host reference, and prints each
//! metric by name and unit, then one JSON line with the result.
//!
//! * `--trace 0` reports the end-to-end metrics: modeled device time
//!   (`modeled_*`, from `LaunchRecord::seconds`; they repeat exactly for a
//!   seed) and simulator host time (`host_s`, `setup_s`, `peak_rss_mb`).
//! * `--trace 1` reports the per-layer metrics. It alternates untraced
//!   ops, ops with host spans around every public call, and (for `split`
//!   and `sort`) ops with the flight recorder off; reruns one op on a
//!   sequential device; and writes the spans together with the modeled
//!   launch spans as a Chrome trace.
//!
//! Results and traces are written under `perfbench/results/`.

mod host;
mod layers;
mod spans;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use simt::{Json, Schedule};

use host::{median, quartiles, ThreadPeaks, ThreadSampler};
use spans::Recorder;
use workload::{Bench, Kind, LaunchLog, Op, PROFILE, SORT_INPUTS, SPLIT_ROTATION};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Metrics in print order: name, value, unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.push(name, value as f64, "count");
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    let v = Json::Obj(vec![
                        ("value".into(), Json::Num(*value)),
                        ("unit".into(), Json::Str((*unit).into())),
                    ]);
                    (name.clone(), v)
                })
                .collect(),
        )
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload split|sort|serve --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        kind: Kind::Split,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                args.kind = Kind::parse(&value).ok_or(format!("unknown workload {value:?}"))?
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
        return Err(format!("--seconds {} outside (0, 3600]", args.seconds));
    }
    Ok(args)
}

/// Ops attempted and failed; a panic inside the program counts as a
/// failed op, as does an output or statistic that differs from its
/// reference.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    /// Run `f` as one op, catching panics.
    fn attempt<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let outcome = catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            Err(format!("panic: {msg}"))
        });
        outcome.map_err(|e| self.fail(e)).ok()
    }

    fn fail(&mut self, error: String) {
        self.failed += 1;
        eprintln!("perfbench: failed op: {error}");
        self.errors.push(error);
    }

    /// Require `op` to repeat the reference op's counted stats and
    /// modeled times exactly.
    fn same_counts(&mut self, what: &str, reference: &Op, op: &Op) {
        let (want, got) = (reference.fingerprint(), op.fingerprint());
        if want != got {
            let diff = want.iter().zip(&got).find(|(w, g)| w != g);
            self.fail(format!(
                "{what}: counted stats or modeled seconds differ: {diff:?}"
            ));
        }
    }
}

/// Set up `SETUP_REPEATS` times; return the last bench and the median time.
fn timed_setup(args: &Args, tally: &mut Tally) -> (Option<Bench>, f64) {
    let mut times = Vec::new();
    let mut bench = None;
    for _ in 0..SETUP_REPEATS {
        drop(bench.take());
        let t = Instant::now();
        bench = tally.attempt(|| Bench::setup(args.kind, args.seed));
        times.push(t.elapsed().as_secs_f64());
    }
    if let Some(b) = bench.as_mut() {
        b.prepare_references();
    }
    (bench, median(&times))
}

/// Result of a run before it is printed.
struct Outcome {
    metrics: Metrics,
    tally: Tally,
    /// Host seconds of each untraced op.
    samples: Vec<f64>,
    /// The Chrome trace of a traced run, written once the run's context
    /// is complete.
    trace: Option<Json>,
}

impl Outcome {
    fn empty(tally: Tally) -> Outcome {
        Outcome {
            metrics: Metrics::default(),
            tally,
            samples: Vec::new(),
            trace: None,
        }
    }
}

fn run_untraced(args: &Args) -> Outcome {
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let (bench, setup_s) = timed_setup(args, &mut tally);
    let mut host = Vec::new();
    let mut first: Option<Op> = None;
    if let Some(bench) = &bench {
        let start = Instant::now();
        while host.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
            let mut rec = Recorder::new(false);
            let Some(op) = tally.attempt(|| bench.run_op(Schedule::Parallel, &mut rec)) else {
                if host.is_empty() && start.elapsed().as_secs_f64() >= args.seconds {
                    break;
                }
                continue;
            };
            host.push(op.host_s);
            match &first {
                Some(f) => tally.same_counts("repeat op", f, &op),
                None => first = Some(op),
            }
        }
    }
    let m = first.as_ref().map(Op::modeled);
    let get = |f: fn(&workload::Modeled) -> f64| m.as_ref().map_or(0.0, f);
    metrics.push("modeled_gkeys_per_s", get(|m| m.gkeys_per_s), "Gkeys/s");
    metrics.push("modeled_req_per_s", get(|m| m.req_per_s), "1/s");
    metrics.push("modeled_p50_us", get(|m| m.p50_us), "us");
    metrics.push("modeled_p99_us", get(|m| m.p99_us), "us");
    metrics.push("host_s", median(&host), "s");
    metrics.push("setup_s", setup_s, "s");
    metrics.push("peak_rss_mb", host::peak_rss_mb(), "MiB");
    Outcome {
        metrics,
        tally,
        samples: host,
        trace: None,
    }
}

/// Median of paired ratios `a_i / b_i - 1`, their quartile spread, and
/// whether the quartile range excludes zero (else the effect is within
/// the noise and unresolved).
fn paired_overhead(a: &[f64], b: &[f64]) -> (f64, f64, bool) {
    let r: Vec<f64> = a.iter().zip(b).map(|(x, y)| x / y - 1.0).collect();
    let (q1, q3) = quartiles(&r);
    (median(&r), q3 - q1, q1 > 0.0 || q3 < 0.0)
}

fn run_traced(args: &Args) -> Outcome {
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let (bench, _) = timed_setup(args, &mut tally);
    let Some(mut bench) = bench else {
        return Outcome::empty(tally);
    };
    let ablate_flight = bench.kind != Kind::Serve;
    let mut rec = Recorder::new(true);
    let (mut plain, mut traced, mut flight_off) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference: Option<Op> = None;
    let start = Instant::now();
    while plain.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        // Untraced, then traced, then flight recorder off: one cycle.
        let Some(a) = tally.attempt(|| bench.run_op(Schedule::Parallel, &mut Recorder::new(false)))
        else {
            break;
        };
        rec.next_op();
        let b = tally.attempt(|| {
            let op_span = rec.begin("bench", "op");
            bench.regenerate(&mut rec);
            let op = bench.run_op(Schedule::Parallel, &mut rec);
            rec.end(op_span);
            op
        });
        let c = ablate_flight
            .then(|| {
                tally.attempt(|| {
                    simt::with_flight_capacity(0, || {
                        bench.run_op(Schedule::Parallel, &mut Recorder::new(false))
                    })
                })
            })
            .flatten();
        let (Some(b), true) = (b, !ablate_flight || c.is_some()) else {
            break;
        };
        tally.same_counts("traced op", &a, &b);
        if let Some(c) = &c {
            tally.same_counts("flight recorder off", &a, c);
            flight_off.push(c.host_s);
        }
        plain.push(a.host_s);
        traced.push(b.host_s);
        if reference.is_none() {
            reference = Some(a);
        }
    }
    let Some(reference) = reference else {
        return Outcome::empty(tally);
    };
    // The sequential check: one op on a single host thread.
    if let Some(seq) =
        tally.attempt(|| bench.run_op(Schedule::Sequential, &mut Recorder::new(false)))
    {
        tally.same_counts("sequential device", &reference, &seq);
    }

    // Launch records: the op's own, or for serve the replica's.
    let replica = bench
        .serve_cfg()
        .and_then(|cfg| tally.attempt(|| Ok(LaunchLog::serve_replica(cfg))));
    let log = match (replica, &reference.serve) {
        (Some(log), Some(report)) => {
            let sectors: u64 = log.records.iter().map(|r| r.stats.sectors).sum();
            let o = &report.overlapped;
            if log.records.len() != o.launches
                || sectors != o.total_sectors
                || log.makespan.to_bits() != o.wall_s.to_bits()
            {
                tally.fail("serve replica launches differ from run_serve".into());
            }
            log
        }
        _ => reference.launch_log(),
    };
    let records = &log.records;
    let cost = layers::push_launch_metrics(&mut metrics, records, log.key_read_sectors, &PROFILE);
    if cost.max_rel_err > layers::COST_TOLERANCE {
        tally.fail(format!(
            "cost terms miss a launch's modeled seconds by {:e} relative",
            cost.max_rel_err
        ));
    }

    // Host time per layer call, as a share of the untraced op.
    let op_host = median(&plain);
    let call_share = |name: &str| {
        reference
            .calls
            .iter()
            .find(|c| c.name == name)
            .map_or(0.0, |c| c.host_s / reference.host_s)
    };
    for c in &SPLIT_ROTATION {
        metrics.push(
            &format!("core.host_frac.{}", c.name),
            call_share(c.name),
            "frac",
        );
    }
    for (name, ..) in SORT_INPUTS {
        metrics.push(&format!("sort.host_frac.{name}"), call_share(name), "frac");
    }

    let serve = reference.serve.as_ref();
    let sf = |f: fn(&msbench::serve::ServeReport) -> f64| serve.map_or(0.0, f);
    metrics.count("serve.launches", sf(|r| r.coalesced.launches as f64) as u64);
    metrics.count(
        "serve.naive_launches",
        sf(|r| r.naive.launches as f64) as u64,
    );
    metrics.push("serve.sector_ratio", sf(|r| r.sector_ratio), "ratio");
    metrics.push("serve.coalesce_speedup", sf(|r| r.speedup), "ratio");
    // Outside serve every launch is on the host lane: no overlap, and
    // the serialized wall is the op's modeled time.
    let serial_s: f64 = records.iter().map(|r| r.seconds).sum();
    let busy: f64 = records
        .iter()
        .map(|r| r.seconds * (r.blocks as f64 / PROFILE.sm_count as f64).min(1.0))
        .sum();
    metrics.push(
        "stream.overlap_speedup",
        serve.map_or(1.0, |r| r.overlap_speedup),
        "ratio",
    );
    metrics.push(
        "stream.utilization",
        serve.map_or(busy / serial_s.max(f64::MIN_POSITIVE), |r| r.utilization),
        "frac",
    );
    metrics.push(
        "stream.serialized_wall_s",
        serve.map_or(serial_s, |r| r.serialized_wall_s),
        "model_s",
    );
    metrics.count("pool.allocs", serve.map_or(0, |r| r.pool_allocs));
    metrics.count("pool.reuses", serve.map_or(0, |r| r.pool_reuses));

    let (flight_frac, flight_iqr, flight_resolved) = if ablate_flight {
        paired_overhead(&plain, &flight_off)
    } else {
        (0.0, 0.0, false)
    };
    metrics.push("flight.host_overhead_frac", flight_frac, "frac");
    metrics.push("flight.host_overhead_iqr", flight_iqr, "frac");
    metrics.count("flight.resolved", flight_resolved as u64);
    metrics.count(
        "flight.dropped",
        records
            .iter()
            .filter_map(|r| r.flight.as_ref())
            .map(|f| f.dropped)
            .sum(),
    );
    let (trace_frac, ..) = paired_overhead(&traced, &plain);
    metrics.push("trace.overhead_frac", trace_frac, "frac");

    // Self time per span name, as a share of the traced ops' wall time.
    let self_times = spans::self_times(rec.spans());
    let traced_wall: f64 = rec
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur)
        .sum();
    for name in [
        "generate", "upload", "core", "sort", "serve", "download", "verify", "bench",
    ] {
        let share = self_times.get(name).copied().unwrap_or(0.0) / traced_wall.max(1e-12);
        metrics.push(&format!("span.{name}.self_frac"), share, "frac");
    }
    metrics.push("span.op_s", traced_wall / traced.len().max(1) as f64, "s");
    metrics.push("host.op_s", op_host, "s");
    metrics.count("host.samples", plain.len() as u64);

    let events = spans::trace_events(rec.spans(), records, &log.placed);
    Outcome {
        metrics,
        tally,
        samples: plain,
        trace: Some(events),
    }
}

/// Write a file under `results/` of the benchmark's own directory,
/// reporting (not failing on) an I/O error.
fn write_result(file: &str, contents: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let path = dir.join(file);
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, contents)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn context_json(args: &Args, peaks: &ThreadPeaks) -> Json {
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::Obj(vec![
        ("workload".into(), Json::Str(args.kind.name().into())),
        ("seed".into(), Json::int(args.seed)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("profile".into(), Json::Str(PROFILE.name.into())),
        (
            "available_parallelism".into(),
            Json::int(parallelism as u64),
        ),
        ("peak_threads".into(), Json::int(peaks.threads)),
        ("peak_running_threads".into(), Json::int(peaks.running)),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let sampler = ThreadSampler::start();
    let out = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    let peaks = sampler.finish();
    let Outcome {
        metrics,
        tally,
        samples,
        trace,
    } = out;

    let context = context_json(&args, &peaks);
    println!("perfbench {}", context.render());
    for (name, value, unit) in &metrics.0 {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    println!(
        "  {:<34} {:>16.6} frac ({} of {} ops failed; host_s over {} samples)",
        "failed_frac",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted,
        samples.len()
    );
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(tally.failed == 0)),
        ("attempted".into(), Json::int(tally.attempted.max(1))),
        ("failed".into(), Json::int(tally.failed)),
        ("metrics".into(), metrics.to_json()),
    ]);
    let record = Json::Obj(vec![
        ("context".into(), context.clone()),
        (
            "host_samples_s".into(),
            Json::Arr(samples.iter().map(|&s| Json::Num(s)).collect()),
        ),
        (
            "errors".into(),
            Json::Arr(tally.errors.iter().map(|e| Json::Str(e.clone())).collect()),
        ),
        ("result".into(), result.clone()),
    ]);
    let name = format!("{}-seed{}", args.kind.name(), args.seed);
    write_result(
        &format!("{name}-trace{}.json", args.trace as u8),
        &record.pretty(),
    );
    if let Some(events) = trace {
        let doc = Json::Obj(vec![
            ("traceEvents".into(), events),
            ("displayTimeUnit".into(), Json::Str("ms".into())),
            ("otherData".into(), context),
        ]);
        write_result(&format!("{name}-chrome-trace.json"), &doc.render());
    }
    println!("{}", result.render());
    ExitCode::SUCCESS
}
