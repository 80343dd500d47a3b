//! `paper` — regenerate every table and figure of *GPU Multisplit*
//! (PPoPP 2016) on the SIMT simulator.
//!
//! ```text
//! cargo run -p ms-bench --release --bin paper -- <command> [options]
//!
//! commands:
//!   table1      subproblem-granularity comparison (thread/warp/block)
//!   table3      radix sort & scan-based split baselines (2 buckets)
//!   table4      per-stage breakdown, m in {2,8,32}, key & key-value
//!   table5      processing rates (G keys/s), m in {2,4,8,16,32}
//!   table6      speedup vs radix sort on K40c and GTX 750 Ti
//!   fig2        locality / write-pattern windows (2 and 8 buckets)
//!   fig3        running time vs m (1..=32), key & key-value
//!   fig4        m in 32..1024: block-level MS vs reduced-bit vs radix
//!   fig5        non-uniform key distributions
//!   light       speed-of-light bound and achieved fraction (§6.2.2)
//!   sssp        delta-stepping bucketing strategies (footnote 1)
//!   randomized  dart-throwing relaxation sweep (§3.5)
//!   ablate      design-choice ablations (N_W sweep, packed-vs-index, reorder)
//!   scan        chained (decoupled lookback) vs recursive scan traffic
//!   fused       single-pass fused MS vs three-kernel warp/block MS
//!   largem      fused MS past the warp width (multi-row look-back) vs the
//!               three-kernel large-m pipeline, m in {64, 128, 256}
//!   sort        ms-sort (multisplit-iterated radix sort, crates/sort) vs
//!               the CUB-like radix baseline: 8/16/32-bit key ranges, key
//!               & key-value, per-pass sector breakdown, all-scheduler
//!               bit-identity, reduced-bit strategy delta
//!   sorttune    digit-width sweep behind ms-sort's DEFAULT_DIGIT_BITS:
//!               passes and counted sectors for b in 1..=max
//!   profile     hierarchical scope-tree roll-up with per-block telemetry
//!               and look-back introspection; writes bench_results/profile.json
//!   trace       flight-recorder causal analysis: tile dependency DAG and
//!               exact critical path per look-back launch (vs the modeled
//!               launch_report estimate), per-launch slack; writes a
//!               chrome trace with per-tile slices and publisher→resolver
//!               flow arrows to bench_results/trace_chrome.json
//!   check       compare per-stage sector counts (n=2^16, m=32, plus a
//!               large-m section at m=64, a sort section
//!               radix-vs-ms-sort and a serve section
//!               naive-vs-coalesced) against
//!               bench_results/baseline_sectors.json; exits 1 on regression.
//!               own option: --update (rewrite the committed baseline from
//!               current counts)
//!   fuzz        differential fuzz harness: seeded (n, m, method, distribution,
//!               schedule) cases across every method, interleaved with ms-sort
//!               cases (`sort,` tokens) and segmented batches (`seg,` tokens —
//!               random segment counts/sizes/bucket mixes through one
//!               multisplit_segmented call, shrunk to the minimal failing
//!               segment set), checked against the CPU reference with
//!               schedule-independence invariants; shrinks the
//!               first failure to a minimal reproducer and exits 1.
//!               own options: --iters K (default 200), --seed S (default 5000),
//!               --replay TOKEN (re-run one shrunk case verbatim)
//!   serve       batched serving front-end: thousands of small independent
//!               requests coalesced into segmented launches over a pooled
//!               arena, sharded across simulated devices, vs standalone
//!               launches per request — modeled requests/s, p50/p99
//!               latency, counted sectors, bit-identity verification.
//!               own options: --requests K (default 4096), --n N (keys per
//!               request, default 1024), --m M (max buckets, default 32),
//!               --devices D (default 4), --batch B (default 256),
//!               --seed S (default 9000), --no-verify, --json PATH
//!   all         everything above except profile, trace, check, fuzz and serve
//!
//! options (report runs are always verified against the CPU reference):
//!   --n <log2>     input size exponent, below 32 (default 22; the paper uses 25)
//!   --full         shorthand for the paper's sizes (n=2^25, fig4 n=2^24)
//!   --json <path>  additionally write every run + report to <path> as JSON
//!
//! Every report lands in `bench_results/<command>.txt` under a header
//! naming the parameters it ran at and the command that regenerates it;
//! a report that cannot be written exits 1. An unknown command or
//! option, or a bad value, prints the usage and exits 2 before anything
//! runs.
//! ```

use msbench::report::{size, write_file};
use msbench::*;
use simt::{BlockStats, Device, DeviceProfile, Json, Schedule, GTX750TI, K40C};

/// The options every report command shares.
struct Opts {
    n: usize,
    fig4_n: usize,
    json: Option<String>,
    /// The size options in canonical form (`--n 22`, `--full`), for a
    /// report's regenerate line.
    args: String,
}

/// The value after `flag`, parsed; a missing or malformed value is a
/// usage error.
fn value<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, String> {
    let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("bad {flag} value `{v}`"))
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut n_log = 22u32;
    let mut full = false;
    let mut json = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--n" => {
                n_log = value(&mut it, "--n")?;
                if n_log >= 32 {
                    return Err(format!(
                        "--n {n_log} is out of range: offsets are u32, so LOG2 must be below 32"
                    ));
                }
            }
            "--full" => {
                n_log = 25;
                full = true;
            }
            "--json" => json = Some(value(&mut it, "--json")?),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Opts {
        n: 1 << n_log,
        fig4_n: 1 << if full { 24 } else { 20 },
        json,
        args: match (full, n_log) {
            (true, 25) => "--full".into(),
            (true, _) => format!("--full --n {n_log}"),
            (false, _) => format!("--n {n_log}"),
        },
    })
}

/// `c` at the report size with seed 1000, verified.
fn run(opts: &Opts, c: Contender, kv: bool, m: u32, profile: DeviceProfile) -> Outcome {
    run_contender(&Run {
        key_value: kv,
        profile,
        seed: 1000,
        ..Run::new(c, opts.n, m)
    })
}

/// Run `f` on a fresh K40c and take its outcome.
fn on_k40c(f: impl FnOnce(&Device)) -> Outcome {
    let dev = Device::new(K40C);
    f(&dev);
    Outcome::of(&dev)
}

/// Write the armed `--json` sink to `path`; a failed write exits 1.
fn write_sink(path: &str) {
    if let Some(sink) = metrics::sink_take() {
        if let Err(e) = write_file(path, &(sink.to_json().pretty() + "\n")) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        println!("[json written to {path}]");
    }
}

/// Publish `report` (regenerated by `args`); a report that cannot be
/// written exits 1.
fn publish(report: &Report, args: &str) {
    if let Err(e) = report.publish(args) {
        eprintln!("{e}");
        std::process::exit(1);
    }
}

/// The parallel and the sequential schedule.
const PAR_SEQ: [Schedule; 2] = [Schedule::Parallel, Schedule::Sequential];

/// Key-only, then key-value, with their section headings.
const SCENARIOS: [(bool, &str); 2] = [(false, "key-only"), (true, "key-value")];

/// The paper's four multisplits for m <= 32, in its row order.
const METHODS: [Contender; 4] = [
    Contender::Direct,
    Contender::WarpLevel,
    Contender::BlockLevel,
    Contender::ReducedBit,
];

/// Run `f` on a fresh K40c under each of `schedules` and assert that
/// every run gives the first one's output and summed counted stats.
/// Returns the schedules' names.
fn assert_schedule_independent<T: PartialEq + std::fmt::Debug>(
    what: &str,
    schedules: &[Schedule],
    f: impl Fn(&Device) -> T,
) -> Vec<String> {
    let name = |s: &Schedule| match s {
        Schedule::Parallel => "parallel".to_string(),
        Schedule::Sequential => "sequential".to_string(),
        Schedule::Adversarial(a) => format!("adversarial/{}", a.flavor.name()),
    };
    let run = |s: &Schedule| {
        let dev = Device::with_schedule(K40C, *s);
        let out = f(&dev);
        let stats = dev
            .records()
            .iter()
            .fold(BlockStats::default(), |mut a, rec| {
                a += rec.stats;
                a
            });
        (out, stats)
    };
    let first = run(&schedules[0]);
    for s in &schedules[1..] {
        assert_eq!(
            run(s),
            first,
            "{what}: {} and {} schedulers diverge",
            name(&schedules[0]),
            name(s)
        );
    }
    schedules.iter().map(name).collect()
}

/// Assert that the fused pipeline on `n` uniform keys over `m` buckets
/// (seed 9) gives the same output and counted stats on the parallel and
/// the sequential schedule: its look-backs may walk different paths.
fn fused_schedules_agree(what: &str, n: usize, m: u32) {
    use multisplit::{multisplit_device, no_values, Method, RangeBuckets};
    let keys_host = gen_keys(n, m, Distribution::Uniform, 9);
    let bucket = RangeBuckets::new(m);
    assert_schedule_independent(what, &PAR_SEQ, |dev| {
        let keys = simt::GlobalBuffer::from_slice(&keys_host);
        let r = multisplit_device(dev, Method::Fused, &keys, no_values(), n, &bucket, 8);
        (r.keys.to_vec(), r.offsets)
    });
}

/// `o`'s counted sectors per stage (pre-scan, scan, post-scan, sweep) and
/// in total, as table cells.
fn sector_cells(o: &Outcome) -> [String; 5] {
    let stages = ["pre-scan", "scan", "post-scan", "sweep"].map(|s| o.stage_sectors(s));
    let [pre, scan, post, sweep] = stages.map(|s| s.to_string());
    [pre, scan, post, sweep, o.total_sectors().to_string()]
}

/// How much less `sectors` is than `base`, as a percentage cell.
fn saved(sectors: u64, base: u64) -> String {
    format!("{:.1}%", 100.0 * (1.0 - sectors as f64 / base as f64))
}

// ====================== Table 3 ======================

fn table3(opts: &Opts) -> Report {
    let n = opts.n;
    let mut t = Table::new(&[
        "Method",
        "Avg time (ms)",
        "Rate (Gkeys/s)",
        "Paper (ms)",
        "Paper rate",
    ]);
    let radix_k = run(opts, Contender::RadixSort, false, 2, K40C);
    let radix_kv = run(opts, Contender::RadixSort, true, 2, K40C);
    let split = |kv| {
        run_contender(&Run {
            key_value: kv,
            seed: 2000,
            ..Run::new(Contender::ScanSplit, n, 2)
        })
    };
    let (split_k, split_kv) = (split(false), split(true));
    for (name, o, pms, pr) in [
        ("Radix sort (key-only)", &radix_k, "22.36", "1.50"),
        ("Radix sort (key-value)", &radix_kv, "37.36", "0.90"),
        ("Scan-based split (key-only)", &split_k, "5.55", "6.05"),
        ("Scan-based split (key-value)", &split_kv, "6.96", "4.82"),
    ] {
        t.row(vec![
            name.into(),
            ms(o.total),
            format!("{:.2}", o.gkeys(n)),
            pms.into(),
            pr.into(),
        ]);
    }
    let mut r = Report::new(
        "table3",
        "Table 3: common approaches (paper: n = 2^25), uniform over 2 buckets",
        &[n],
        &[1000, 2000],
    );
    r.table(t);
    r
}

// ====================== Table 4 ======================

fn table4(opts: &Opts) -> Report {
    let mut r = Report::new(
        "table4",
        "Table 4: per-stage average running time (ms)",
        &[opts.n],
        &[1000],
    );
    for (kv, scenario) in SCENARIOS {
        let mut t = Table::new(&["Algorithm", "Stage", "m=2", "m=8", "m=32"]);
        let ms_stages = [
            ("pre-scan", "pre-scan"),
            ("scan", "scan"),
            ("post-scan", "post-scan"),
        ];
        let row_blocks: [(Contender, &str, Stages); 6] = [
            (Contender::Direct, "Direct MS", &ms_stages),
            (Contender::WarpLevel, "Warp-level MS", &ms_stages),
            (Contender::BlockLevel, "Block-level MS", &ms_stages),
            (
                Contender::ReducedBit,
                "Reduced-bit sort",
                &[
                    ("labeling", "Labeling"),
                    ("pre-scan", "Sort: pre-scan"),
                    ("scan", "Sort: scan"),
                    ("post-scan", "Sort: post-scan"),
                    ("packing", "(un)Packing"),
                ],
            ),
            // The real recursive split; the paper only quotes an ideal
            // lower bound.
            (
                Contender::RecursiveSplit,
                "Recursive split",
                &[
                    ("labeling", "Labeling"),
                    ("scan", "Scan"),
                    ("splitting", "Splitting"),
                ],
            ),
            (Contender::IdentitySort, "Sort on identity buckets", &[]),
        ];
        for (c, name, stages) in row_blocks {
            let runs = [2u32, 8, 32].map(|m| run(opts, c, kv, m, K40C));
            stage_rows(&mut t, name, &runs, stages, c == Contender::ReducedBit);
        }
        r.heading(scenario);
        r.table(t);
    }
    r
}

/// Table 4 stages as `(stage, row label)`.
type Stages<'a> = &'a [(&'a str, &'a str)];

/// One algorithm's Table 4 rows: a row per `(stage, label)`, then its
/// total. `skip_zero` drops a stage row that reads 0.00 everywhere (the
/// reduced-bit stages a pipeline does not run).
fn stage_rows(t: &mut Table, name: &str, runs: &[Outcome], stages: Stages, skip_zero: bool) {
    for (stage, label) in stages {
        let cells: Vec<String> = runs.iter().map(|r| ms(r.stage(stage))).collect();
        if !skip_zero || cells.iter().any(|c| c != "0.00") {
            t.row([vec![name.into(), label.to_string()], cells].concat());
        }
    }
    let totals = runs.iter().map(|r| ms(r.total)).collect();
    t.row([vec![name.into(), "Total".into()], totals].concat());
}

// ====================== Table 5 ======================

fn table5(opts: &Opts) -> Report {
    let n = opts.n;
    let mut r = Report::new(
        "table5",
        "Table 5: processing rate (G keys/s), uniform distribution\n\
         (speed of light on K40c: 24.0 key-only / 14.4 key-value, §6.2.2)",
        &[n],
        &[1000],
    );
    for (kv, scenario) in SCENARIOS {
        r.heading(scenario);
        r.table(m_table(opts, kv, K40C, |_, o| format!("{:.2}", o.gkeys(n))));
    }
    r
}

// ====================== Table 6 ======================

fn table6(opts: &Opts) -> Report {
    let mut r = Report {
        profiles: vec![K40C.name, GTX750TI.name],
        ..Report::new(
            "table6",
            "Table 6: speedup vs radix sort",
            &[opts.n],
            &[1000],
        )
    };
    for (profile, pname) in [
        (K40C, "Tesla K40c (Kepler)"),
        (GTX750TI, "GTX 750 Ti (Maxwell)"),
    ] {
        for (kv, scenario) in SCENARIOS {
            let radix = TABLE_MS.map(|m| run(opts, Contender::RadixSort, kv, m, profile).total);
            r.heading(format!("{pname}, {scenario}"));
            r.table(m_table(opts, kv, profile, |i, o| {
                format!("{:.2}x", radix[i] / o.total)
            }));
        }
    }
    r
}

/// The bucket counts of Tables 5 and 6.
const TABLE_MS: [u32; 5] = [2, 4, 8, 16, 32];

/// A Table 5/6 body: a row per method of [`METHODS`], a column per m of
/// [`TABLE_MS`], and in each cell `cell(column, run)`.
fn m_table(
    opts: &Opts,
    kv: bool,
    profile: DeviceProfile,
    cell: impl Fn(usize, &Outcome) -> String,
) -> Table {
    let mut t = Table::new(&["Algorithm", "m=2", "m=4", "m=8", "m=16", "m=32"]);
    for c in METHODS {
        let runs = TABLE_MS.iter().map(|&m| run(opts, c, kv, m, profile));
        t.row(
            [c.name()]
                .into_iter()
                .chain(runs.enumerate().map(|(i, o)| cell(i, &o)))
                .collect(),
        );
    }
    t
}

// ====================== Table 1 (granularity) ======================

fn table1(opts: &Opts) -> Report {
    use multisplit::{no_values, RangeBuckets};
    let (n, m, seed) = (opts.n, 16u32, 31);
    let t_elems = baselines::THREAD_COARSENING;
    let mut r = Report::new(
        "table1",
        format!(
            "Table 1: local granularity vs global-operation size, m = {m}\n\
             (thread-level follows He et al. [14] with T = {t_elems} elements/thread)"
        ),
        &[n],
        &[seed],
    );
    let keys = simt::GlobalBuffer::from_slice(&gen_keys(n, m, Distribution::Uniform, seed));
    let thread = on_k40c(|dev| {
        baselines::multisplit_thread_level(dev, &keys, no_values(), n, &RangeBuckets::new(m), 8);
    });
    let split = |c| {
        run_contender(&Run {
            seed,
            ..Run::new(c, n, m)
        })
    };
    let mut t = Table::new(&["granularity", "H entries", "scan (ms)", "total (ms)"]);
    for (name, sub, o) in [
        ("thread (m x n/T)", t_elems, thread),
        ("warp (m x n/32)", 32, split(Contender::Direct)),
        ("block (m x n/256)", 256, split(Contender::BlockLevel)),
    ] {
        t.row(vec![
            name.into(),
            (m as usize * n.div_ceil(sub)).to_string(),
            format!("{:.3}", o.stage("scan") * 1e3),
            ms(o.total),
        ]);
    }
    r.table(t);
    r.note(
        "\nLarger subproblems shrink the global stage (Table 1's point); the\n\
         per-element local work grows instead — the paper's central trade.",
    );
    r
}

// ====================== Figure 2 ======================

fn fig2(_opts: &Opts) -> Report {
    use multisplit::{BucketFn, RangeBuckets};
    let n = 1 << 16;
    let mut r = Report::new(
        "fig2",
        "Figure 2: write-order bucket streams for one 256-element window\n\
         (each char = the bucket id of the next element written; runs of\n\
          equal digits are coalesced writes)",
        &[256, n],
        &[7],
    );
    for m in [2u32, 8] {
        let keys = gen_keys(256, m, Distribution::Uniform, 7);
        let bucket = RangeBuckets::new(m);
        let ids: Vec<u32> = keys.iter().map(|&k| bucket.bucket_of(k)).collect();
        let render = |seq: &[u32]| -> String {
            seq.iter()
                .map(|&b| char::from_digit(b, 36).unwrap())
                .collect()
        };
        // Direct MS writes in input order.
        let direct = ids.clone();
        // Warp-level MS reorders each 32-element warp (stable).
        let mut warp = Vec::new();
        for chunk in ids.chunks(32) {
            let mut c = chunk.to_vec();
            c.sort_by_key(|&b| b); // stable
            warp.extend(c);
        }
        // Block-level MS reorders the whole 256-element block.
        let mut block = ids.clone();
        block.sort_by_key(|&b| b);
        let runs = |seq: &[u32]| seq.windows(2).filter(|w| w[0] != w[1]).count() + 1;
        r.heading(format!("{m} buckets"));
        let mut lines = vec![
            format!("input    ({:3} runs): {}", runs(&direct), render(&direct)),
            format!("warp  MS ({:3} runs): {}", runs(&warp), render(&warp)),
            format!("block MS ({:3} runs): {}", runs(&block), render(&block)),
        ];
        // Confirm with measured store behaviour.
        for (c, name) in [
            (Contender::Direct, "direct"),
            (Contender::WarpLevel, "warp"),
            (Contender::BlockLevel, "block"),
        ] {
            let o = run_contender(&Run {
                seed: 7,
                ..Run::new(c, n, m)
            });
            lines.push(format!(
                "measured {name:>6}: post-scan {:.3} ms for n={}",
                o.stage("post-scan") * 1e3,
                size(n)
            ));
        }
        r.note(lines.join("\n"));
    }
    r
}

// ====================== Figure 3 ======================

fn fig3(opts: &Opts) -> Report {
    let mut r = Report::new(
        "fig3",
        "Figure 3: average running time (ms) vs number of buckets",
        &[opts.n],
        &[1000],
    );
    for (kv, scenario) in SCENARIOS {
        let mut t = Table::new(&[
            "m",
            "Direct",
            "Warp-level",
            "Block-level",
            "Reduced-bit",
            "fastest",
        ]);
        let mut crossover_block = None;
        for m in 1..=32u32 {
            let times = METHODS.map(|c| run(opts, c, kv, m, K40C).total);
            let best = (0..times.len())
                .min_by(|&a, &b| times[a].total_cmp(&times[b]))
                .unwrap();
            let best = ["direct", "warp", "block", "reduced"][best];
            if best == "block" && crossover_block.is_none() {
                crossover_block = Some(m);
            }
            let cells = times.map(ms).into_iter().chain([best.into()]);
            t.row([m.to_string()].into_iter().chain(cells).collect());
        }
        r.heading(scenario);
        r.table(t);
        if let Some(m) = crossover_block {
            r.note(format!(
                "block-level becomes fastest at m = {m} (paper: >= {} for {scenario})",
                if kv { 16 } else { 22 }
            ));
        }
    }
    r
}

// ====================== Figure 4 ======================

fn fig4(opts: &Opts) -> Report {
    let n = opts.n.min(opts.fig4_n);
    let mut r = Report::new(
        "fig4",
        "Figure 4: m > 32 — block-level MS vs reduced-bit sort",
        &[n],
        &[4000, 4100, 4200],
    );
    for (kv, scenario) in SCENARIOS {
        let time = |c, m, seed| {
            run_contender(&Run {
                key_value: kv,
                seed,
                ..Run::new(c, n, m)
            })
            .total
        };
        let radix = time(Contender::RadixSort, 32, 4000);
        let mut t = Table::new(&[
            "m",
            "Block-level MS (ms)",
            "Reduced-bit (ms)",
            "Radix limit (ms)",
        ]);
        let mut block_conv = None;
        let block_cap = multisplit::max_buckets(8, kv);
        for m in [
            32u32, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 2048, 4096, 16384, 65536,
        ] {
            let b = if m <= block_cap {
                let c = if m <= 32 {
                    Contender::BlockLevel
                } else {
                    Contender::LargeM
                };
                let t = time(c, m, 4100);
                if t > radix && block_conv.is_none() {
                    block_conv = Some(m);
                }
                ms(t)
            } else {
                "- (smem)".into() // beyond the 48 kB histogram limit (§6.4)
            };
            let r = time(Contender::ReducedBit, m, 4200);
            t.row(vec![m.to_string(), b, ms(r), ms(radix)]);
        }
        r.heading(scenario);
        r.table(t);
        if let Some(m) = block_conv {
            r.note(format!(
                "block-level MS exceeds the radix-sort limit near m = {m} (paper: {})",
                if kv { 224 } else { 192 }
            ));
        }
    }
    r
}

// ====================== Figure 5 ======================

fn fig5(opts: &Opts) -> Report {
    let mut r = Report::new(
        "fig5",
        "Figure 5: initial key distribution effects (block-level MS and reduced-bit sort)",
        &[opts.n],
        &[5000],
    );
    for (kv, scenario) in SCENARIOS {
        let mut t = Table::new(&[
            "m",
            "block uniform",
            "block binomial",
            "block 0.25-unif",
            "reduced uniform",
            "reduced binomial",
            "reduced 0.25-unif",
        ]);
        for m in [2u32, 4, 8, 16, 24, 32] {
            let mut row = vec![m.to_string()];
            for c in [Contender::BlockLevel, Contender::ReducedBit] {
                for dist in [
                    Distribution::Uniform,
                    Distribution::Binomial,
                    Distribution::Skew75,
                ] {
                    let o = run_contender(&Run {
                        key_value: kv,
                        dist,
                        seed: 5000,
                        ..Run::new(c, opts.n, m)
                    });
                    row.push(ms(o.total));
                }
            }
            t.row(row);
        }
        r.heading(scenario);
        r.table(t);
    }
    r.note(
        "\nExpected shape: both methods get faster as the distribution skews (less\n\
         intermediate movement, better write locality); uniform is the worst case.",
    );
    r
}

// ====================== Speed of light ======================

fn light(opts: &Opts) -> Report {
    let n = opts.n;
    let mut r = Report {
        profiles: vec![K40C.name, GTX750TI.name],
        ..Report::new(
            "light",
            "Speed of light (§6.2.2): 3 (key) / 5 (key-value) coalesced accesses per element",
            &[n],
            &[1000],
        )
    };
    let mut lines = Vec::new();
    for (profile, pname) in [(K40C, "K40c"), (GTX750TI, "GTX 750 Ti")] {
        for kv in [false, true] {
            let sol = profile.speed_of_light_gkeys(kv);
            let o = run(opts, Contender::WarpLevel, kv, 2, profile);
            let rate = o.gkeys(n);
            lines.push(format!(
                "{pname:>10} {:>9}: light = {sol:5.1} Gkeys/s, warp-level m=2 achieves {rate:5.2} ({:.0}% of light)",
                if kv { "key-value" } else { "key-only" },
                100.0 * rate / sol
            ));
        }
    }
    r.note(lines.join("\n"));
    r.note("\nPaper: peak 10.04 Gkeys/s key-only (42% of light) on the K40c.");
    r
}

// ====================== SSSP (footnote 1) ======================

fn sssp_experiment(_opts: &Opts) -> Report {
    use simt::Device;
    use sssp::{delta_stepping, dijkstra, footnote1_suite, Bucketing};
    let seed = 42;
    let mut r = Report {
        schedule: "sequential",
        ..Report::new(
            "sssp",
            "SSSP delta-stepping: bucketing strategy comparison (paper footnote 1)\n\
         Graphs are seeded generator stand-ins for flickr / yahoo-social /\n\
         rmat / GBF-like; times are simulated-device totals on the\n\
         sequential schedule, so the report repeats byte for byte.",
            &[],
            &[seed],
        )
    };
    let suite = footnote1_suite(32, seed);
    let strategies = [
        Bucketing::Multisplit { m: 2 },
        Bucketing::Multisplit { m: 10 },
        Bucketing::NearFar,
        Bucketing::SortBased,
    ];
    let mut t = Table::new(&[
        "graph",
        "nodes",
        "edges",
        "strategy",
        "iters",
        "bucket ms",
        "total ms",
    ]);
    // speedup accumulators: (vs near-far, vs sort) for the m=2 config.
    let mut geo_nf = 0.0f64;
    let mut geo_sort = 0.0f64;
    for (name, g) in &suite {
        let reference = dijkstra(g, 0);
        let mut totals = Vec::new();
        for s in strategies {
            let dev = Device::sequential(K40C);
            let res = delta_stepping(&dev, g, 0, 32, s);
            assert_eq!(
                res.dist,
                reference,
                "{name}/{} disagrees with Dijkstra",
                s.name()
            );
            t.row(vec![
                name.to_string(),
                g.num_nodes().to_string(),
                g.num_edges().to_string(),
                s.name(),
                res.iterations.to_string(),
                ms(res.bucketing_seconds),
                ms(res.total_seconds),
            ]);
            totals.push(res.total_seconds);
        }
        geo_nf += (totals[2] / totals[0]).ln();
        geo_sort += (totals[3] / totals[0]).ln();
    }
    let k = suite.len() as f64;
    r.table(t);
    r.note(format!(
        "\nGeometric-mean speedup of multisplit(m=2) bucketing:\n  vs near-far: {:.2}x (paper: 1.3x)\n  vs radix-sort bucketing: {:.2}x (paper: 2.1x)",
        (geo_nf / k).exp(),
        (geo_sort / k).exp()
    ));
    r
}

// ====================== Randomized sweep ======================

/// Runs on the sequential schedule: the dart throws' collisions, and so
/// the counted stats, depend on how the blocks interleave.
fn randomized(opts: &Opts) -> Report {
    msbench::with_run_schedule(Schedule::Sequential, || randomized_report(opts))
}

fn randomized_report(opts: &Opts) -> Report {
    let n = opts.n.min(1 << 22);
    let mut r = Report {
        schedule: "sequential",
        ..Report::new(
            "randomized",
            "Randomized dart-throwing insertion (§3.5), m = 8",
            &[n],
            &[6000, 6100],
        )
    };
    let radix = run_contender(&Run {
        seed: 6000,
        ..Run::new(Contender::RadixSort, n, 8)
    })
    .total;
    let mut t = Table::new(&["relaxation x", "time (ms)", "vs radix", "verdict"]);
    let mut best = f64::INFINITY;
    let mut best_x = 0.0;
    for x in [1.25, 1.5, 2.0, 3.0, 4.0] {
        let o = run_contender(&Run {
            seed: 6100,
            ..Run::new(Contender::Randomized(x), n, 8)
        });
        if o.total < best {
            best = o.total;
            best_x = x;
        }
        t.row(vec![
            format!("{x}"),
            ms(o.total),
            format!("{:.2}x slower", o.total / radix),
            if o.total > radix {
                "loses to radix".into()
            } else {
                "beats radix".into()
            },
        ]);
    }
    r.table(t);
    r.note(format!(
        "\nBest x = {best_x} ({} ms); radix = {} ms. Paper: best at x = 2, ~2x slower than radix.",
        ms(best),
        ms(radix)
    ));
    r
}

// ====================== Ablations ======================

fn ablate(opts: &Opts) -> Report {
    let n = opts.n.min(1 << 22);
    let mut r = Report::new(
        "ablate",
        "Design-choice ablations",
        &[n],
        &[7000, 11, 17, 13],
    );

    // (a) Warps per block (paper §6: N_W=2 is 1.4x slower for warp-level,
    //     2x for block-level).
    r.heading("warps per block (N_W), m = 16, key-only");
    let mut t = Table::new(&["N_W", "Warp-level (ms)", "Block-level (ms)"]);
    let mut base_w = 0.0;
    let mut base_b = 0.0;
    for wpb in [1usize, 2, 4, 8, 16] {
        let [w, b] = [Contender::WarpLevel, Contender::BlockLevel].map(|c| {
            run_contender(&Run {
                wpb,
                seed: 7000,
                ..Run::new(c, n, 16)
            })
            .total
        });
        if wpb == 8 {
            base_w = w;
            base_b = b;
        }
        t.row(vec![wpb.to_string(), ms(w), ms(b)]);
    }
    r.table(t);
    r.note(format!(
        "N_W=8 is the paper's default; slowdowns vs it are shown above (base {} / {} ms)",
        ms(base_w),
        ms(base_b)
    ));

    // (b) Reduced-bit key-value: packed u64 vs (label, index) + gather.
    use multisplit::{no_values, RangeBuckets};
    use simt::GlobalBuffer;
    r.heading("reduced-bit key-value: packed vs index permute (§3.4)");
    let mut t = Table::new(&["m", "packed (ms)", "index (ms)", "index permute waste (MB)"]);
    for m in [4u32, 16, 64] {
        let packed = run_contender(&Run {
            key_value: true,
            seed: 11,
            ..Run::new(Contender::ReducedBit, n, m)
        });
        let keys = GlobalBuffer::from_slice(&gen_keys(n, m, Distribution::Uniform, 11));
        let values = GlobalBuffer::from_slice(&gen_values(n));
        let index = on_k40c(|dev| {
            let bucket = RangeBuckets::new(m);
            baselines::reduced_bit_multisplit_kv_by_index(dev, &keys, &values, n, &bucket, 8);
        });
        let waste = index.sum(|r| match r.label.contains("permute") {
            true => r.stats.wasted_bytes(),
            false => 0,
        });
        t.row(vec![
            m.to_string(),
            ms(packed.total),
            ms(index.total),
            format!("{:.1}", waste as f64 / 1e6),
        ]);
    }
    r.table(t);

    // (c) Ranking mechanism: ballot bitmaps (paper Alg. 2-3) vs Patidar's
    //     shared-atomic counters (§2), same pipeline otherwise.
    r.heading("ranking mechanism: ballot bitmaps vs shared atomics");
    let mut t = Table::new(&["m", "ballot (ms)", "atomic (ms)", "atomic smem passes (M)"]);
    for m in [2u32, 8, 32, 128] {
        let c = if m <= 32 {
            Contender::BlockLevel
        } else {
            Contender::LargeM
        };
        let ballot = run_contender(&Run {
            seed: 17,
            ..Run::new(c, n, m)
        });
        let keys = GlobalBuffer::from_slice(&gen_keys(n, m, Distribution::Uniform, 17));
        let atomic = on_k40c(|dev| {
            let bucket = RangeBuckets::new(m);
            baselines::multisplit_block_atomic(dev, &keys, no_values(), n, &bucket, 8);
        });
        // Shared-atomic serialization shows up as extra bank passes.
        let smem = atomic.sum(|r| r.stats.smem_ops);
        t.row(vec![
            m.to_string(),
            ms(ballot.total),
            ms(atomic.total),
            format!("{:.1}", smem as f64 / 1e6),
        ]);
    }
    r.table(t);
    r.note(
        "ballot ranking is contention-free; atomics serialize same-bucket lanes\n\
         (the paper's reason to prefer warp-synchronous schemes, lesson 3).",
    );

    // (d) Reordering on/off is Direct vs Warp-level with identical address
    //     sets: compare store replays.
    r.heading("reordering ablation: store replays per warp (m = 2)");
    let [direct, warp] = [Contender::Direct, Contender::WarpLevel].map(|c| {
        let o = run_contender(&Run {
            seed: 13,
            ..Run::new(c, n, 2)
        });
        o.sum(|r| match stage_of(&r.label) {
            "post-scan" => r.stats.replays,
            _ => 0,
        })
    });
    r.note(format!(
        "direct post-scan replays: {direct}\n\
         warp   post-scan replays: {warp} (same address set, lane-contiguous order)"
    ));
    r
}

// ====================== Scan strategy comparison ======================

/// Chained (single-pass decoupled lookback) vs recursive global scan.
///
/// The claim under test: at n = 2^20, m = 32 on a sequential K40c, the
/// `*/scan-chained` stage moves >= 30% fewer global-memory sectors (and
/// costs less estimated time) than the recursive `*/scan-reduce` +
/// `*/scan-downsweep` pair, while every end-to-end multisplit result
/// stays bit-identical between scans and between parallel and
/// sequential devices.
///
/// The chained side is the scan stage of each method's own run. The
/// recursive side scans the method's m·L histogram directly with
/// [`primitives::recursive_scan_u32`]: a scan's counted stats depend only
/// on its length, and the post-scan consumes nothing but the scanned
/// histogram, so matching scan outputs mean matching multisplits.
fn scan_compare(opts: &Opts) -> Report {
    use multisplit::{check_multisplit, multisplit_device, no_values, Method, RangeBuckets};
    use simt::GlobalBuffer;
    // Capped at the claim's 2^20, but honoring smaller --n (CI smoke runs).
    let n: usize = opts.n.min(1 << 20);
    let m = 32u32;
    let seed = 7;
    let mut r = Report {
        schedule: "sequential",
        ..Report::new(
            "scan",
            format!(
                "Scan strategy: single-pass chained (decoupled lookback) vs recursive\n\
             m = {m}; scan stage = every */scan-* launch"
            ),
            &[n],
            &[seed],
        )
    };
    let keys_host = gen_keys(n, m, Distribution::Uniform, seed);
    let bucket = RangeBuckets::new(m);
    let mut t = Table::new(&[
        "method",
        "chained sectors",
        "recursive sectors",
        "saved",
        "chained ms",
        "recursive ms",
    ]);
    for (method, name, sub) in [
        (Method::Direct, "direct", 32),
        (Method::WarpLevel, "warp", 32),
        (Method::BlockLevel, "block", 32 * 8),
    ] {
        let run = |dev: &Device| {
            let keys = GlobalBuffer::from_slice(&keys_host);
            let r = multisplit_device(dev, method, &keys, no_values(), n, &bucket, 8);
            (r.keys.to_vec(), r.offsets)
        };
        let dev = Device::sequential(K40C);
        let result = run(&dev);
        let (cs, csecs) = scan_stage_cost(&dev);
        let hist = subproblem_histogram(&keys_host, &bucket, sub);
        let scanned = GlobalBuffer::<u32>::zeroed(hist.len());
        let dev = Device::sequential(K40C);
        let input = GlobalBuffer::from_slice(&hist);
        primitives::recursive_scan_u32(&dev, "scan", &input, &scanned, hist.len(), 8);
        let (rs, rsecs) = scan_stage_cost(&dev);
        check_multisplit(&keys_host, &result.0, &result.1, &bucket).expect("invalid multisplit");
        assert_schedule_independent(name, &PAR_SEQ, run);
        // The recursive scan is exact, and its bucket rows start at the
        // chained run's offsets.
        let expect: Vec<u32> = hist
            .iter()
            .scan(0, |acc, &h| Some(std::mem::replace(acc, *acc + h)))
            .collect();
        let scanned = scanned.to_vec();
        assert_eq!(scanned, expect, "{name}: recursive scan is wrong");
        let l = hist.len() / m as usize;
        let row_starts: Vec<u32> = (0..m as usize).map(|b| scanned[b * l]).collect();
        assert_eq!(
            row_starts,
            result.1[..m as usize],
            "{name}: scan strategies give different results"
        );
        t.row(vec![
            name.into(),
            cs.to_string(),
            rs.to_string(),
            saved(cs, rs),
            format!("{:.3}", csecs * 1e3),
            format!("{:.3}", rsecs * 1e3),
        ]);
    }
    r.table(t);
    r.note(
        "\nchained moves ~2n words through DRAM (read once, write once, plus 3 state\n\
         words per 2048-element tile) where the recursive reduce+downsweep pair\n\
         moves ~3n; both end-to-end outputs verified bit-identical.",
    );
    r
}

// ====================== Fused pipeline ======================

/// The PR-2 tentpole claim under test: the fused single-pass multisplit
/// (per-bucket decoupled look-back, `fused/pre-scan` + `fused/sweep`)
/// moves >= 20% fewer total counted DRAM sectors than the three-kernel
/// block-level MS at n = 2^20, m = 32 on the K40c — with every output
/// bit-identical to the three-kernel paths (all are verified against the
/// CPU reference) and to itself across parallel/sequential schedulers.
fn fused_compare(opts: &Opts) -> Report {
    let sizes = [opts.n / 4, opts.n];
    let mut r = Report {
        profiles: vec![K40C.name, GTX750TI.name],
        ..Report::new(
            "fused",
            "Fused single-pass multisplit vs three-kernel pipeline\n\
         m in {2, 8, 32}, uniform keys; total counted DRAM\n\
         sectors per stage (pre = pre-scan/histogram, scan, post = post-scan,\n\
         sweep = the fused kernel) and estimated ms.",
            &sizes,
            &[3000, 9],
        )
    };
    let mut t = Table::new(&[
        "device", "n", "m", "method", "pre", "scan", "post", "sweep", "total", "saved", "ms",
    ]);
    for (pname, profile) in [("K40c", K40C), ("GTX750Ti", GTX750TI)] {
        for n in sizes {
            for m in [2u32, 8, 32] {
                let mut block_total = 0u64;
                for c in [
                    Contender::WarpLevel,
                    Contender::BlockLevel,
                    Contender::Fused,
                ] {
                    let o = run_contender(&Run {
                        profile,
                        seed: 3000,
                        ..Run::new(c, n, m)
                    });
                    let total = o.total_sectors();
                    if c == Contender::BlockLevel {
                        block_total = total;
                    }
                    let fused = c == Contender::Fused;
                    if fused && pname == "K40c" && m == 32 {
                        assert!(
                            (total as f64) <= 0.80 * block_total as f64,
                            "fused {total} vs block {block_total} sectors at n={n}, m=32: \
                             need >= 20% reduction"
                        );
                    }
                    let head = [pname.into(), size(n), m.to_string(), c.name()];
                    let saved = if fused {
                        saved(total, block_total)
                    } else {
                        String::new()
                    };
                    t.row(
                        head.into_iter()
                            .chain(sector_cells(&o))
                            .chain([saved, ms(o.total)])
                            .collect(),
                    );
                }
            }
        }
    }
    r.table(t);
    fused_schedules_agree("fused", sizes[0], 32);
    r.note(
        "\nfused outputs and counted stats verified bit-identical across\n\
         parallel/sequential schedulers and against the three-kernel paths.\n\
         \n\
         the fused pipeline reads each key twice (histogram pass + sweep) and\n\
         writes it once; the three-kernel pipeline reads twice, writes once, AND\n\
         round-trips the m x L histogram matrix plus its scan through DRAM and\n\
         gathers scanned bases per warp in the post-scan — the ~1/3 saved here.",
    );
    r
}

// ====================== Large-m fused pipeline ======================

/// The PR-4 tentpole claim under test: the fused large-m multisplit
/// (`fused_large_m/pre-scan` plus **one** sweep kernel resolving its
/// m-vector tile prefixes with multi-row decoupled look-back) moves at
/// least 20% fewer total counted DRAM sectors than the three-kernel large-m
/// pipeline at n = 2^20 for both m = 64 and m = 256 on the K40c — with
/// outputs bit-identical to the three-kernel path (both are verified
/// against the CPU reference) and across parallel/sequential schedulers.
fn largem_compare(opts: &Opts) -> Report {
    let n = opts.n.min(1 << 20);
    let mut r = Report::new(
        "largem",
        "Fused large-m multisplit vs three-kernel large-m pipeline\n\
         m in {64, 128, 256}, uniform keys; total counted DRAM\n\
         sectors per stage and estimated ms. `confl` = shared-memory bank\n\
         conflicts over the whole run (the fused sweep's reorder staging is\n\
         padded, so a stride-32 permutation costs none; what remains comes\n\
         from buckets whose histogram counts share a bank and from reorder\n\
         stores at data-dependent offsets).",
        &[n.min(1 << 16), n],
        &[8000, 9],
    );
    let mut t = Table::new(&[
        "kv", "m", "method", "pre", "scan", "post", "sweep", "total", "saved", "confl", "ms",
    ]);
    for kv in [false, true] {
        for m in [64u32, 128, 256] {
            let mut three_total = 0u64;
            for c in [Contender::LargeM, Contender::Fused] {
                let o = run_contender(&Run {
                    key_value: kv,
                    seed: 8000,
                    ..Run::new(c, n, m)
                });
                let total = o.total_sectors();
                if c == Contender::LargeM {
                    three_total = total;
                }
                let fused = c == Contender::Fused;
                if fused && !kv && (m == 64 || m == 256) {
                    assert!(
                        (total as f64) <= 0.80 * three_total as f64,
                        "fused large-m {total} vs three-kernel {three_total} sectors at \
                         n={n}, m={m}: need >= 20% reduction"
                    );
                }
                let head = [
                    if kv { "kv" } else { "key" }.into(),
                    m.to_string(),
                    c.name(),
                ];
                let saved = if fused {
                    saved(total, three_total)
                } else {
                    String::new()
                };
                let confl = o.sum(|r| r.stats.smem_bank_conflicts).to_string();
                t.row(
                    head.into_iter()
                        .chain(sector_cells(&o))
                        .chain([saved, confl, ms(o.total)])
                        .collect(),
                );
            }
        }
    }
    r.table(t);
    fused_schedules_agree("fused large-m", n.min(1 << 16), 100);
    r.note(
        "\nfused large-m outputs and counted stats verified bit-identical across\n\
         parallel/sequential schedulers and against the three-kernel path.\n\
         \n\
         both pipelines read every key twice and write it once; the three-kernel\n\
         pipeline additionally round-trips its m x L histogram matrix through\n\
         DRAM (plus the matrix's own scan traffic and per-warp base gathers),\n\
         which grows linearly with m — the fused sweep replaces all of that\n\
         with m global totals and 3 look-back state words per tile per 32-row\n\
         group, so the saving widens from m = 64 to m = 256.",
    );
    r
}

// ====================== ms-sort (iterated multisplit) ======================

/// ms-sort (multisplit-iterated radix sort on the fused pipelines) vs the
/// CUB-like radix baseline: total counted DRAM sectors for 8-, 16- and
/// 32-bit key ranges, key-only and key-value, with ms-sort's per-pass
/// sector breakdown (each digit pass is scoped `ms_sort/passK/...`; the
/// one all-digit pre-scan is `ms_sort/pre-scan`).
/// Verifies bit-identity with the host stable sort under sequential,
/// parallel, and all four adversarial schedulers, and reports the
/// reduced-bit pipeline's MsSort-vs-Legacy strategy delta.
fn sort_cmd(opts: &Opts) -> Report {
    use msrng::SmallRng;
    use simt::{AdvFlavor, AdvSchedule, GlobalBuffer};
    let n = opts.n;
    let (sn, rn) = (n.min(1 << 16), n.min(1 << 18));
    let wpb = 8;
    let mut r = Report::new(
        "sort",
        format!(
            "ms-sort (multisplit-iterated radix, b = {b} bits/pass) vs radix sort\n\
             Keys are uniform over an 8-, 16- or 32-bit range;\n\
             the radix baseline always sorts all 32 bits, ms-sort histograms\n\
             every digit in one pre-scan launch (its one read of the keys\n\
             before the passes), skips the constant digits, narrows the rest\n\
             to their highest live bucket, and runs ceil(eff/{b}) fused digit\n\
             sweeps over ping-pong buffers (eff: the keys' highest set bit).",
            b = ms_sort::DEFAULT_DIGIT_BITS,
        ),
        &[sn, rn, n],
        &[3008, 3016, 3032, 77, 3000],
    );
    let mut t = Table::new(&[
        "keys", "kv", "method", "eff", "passes", "pre", "sweep", "total", "vs-radix", "ms",
    ]);
    let mut pass_rows: Vec<[String; 2]> = Vec::new();
    let mut pass_sectors: Vec<Vec<u64>> = Vec::new();
    for (kv, kv_name) in [(false, "key"), (true, "kv")] {
        for key_bits in [8u32, 16, 32] {
            let mut rng = SmallRng::seed_from_u64(3000 + key_bits as u64);
            let keys_host: Vec<u32> = (0..n)
                .map(|_| rng.gen_range(0..(1u64 << key_bits)) as u32)
                .collect();
            let values_host = kv.then(|| gen_values(n));
            let mut expect: Vec<(u32, u32)> = keys_host.iter().copied().zip(0..n as u32).collect();
            expect.sort_by_key(|&(k, _)| k);
            let mut radix_total = 0u64;
            for method in ["radix", "ms-sort"] {
                let keys = GlobalBuffer::from_slice(&keys_host);
                let values = values_host.as_ref().map(|v| GlobalBuffer::from_slice(v));
                let mut sorted = (Vec::new(), None);
                let o = on_k40c(|dev| {
                    let (k, v) = match (method, &values) {
                        ("radix", v) => {
                            baselines::radix_sort(dev, "radix", &keys, v.as_ref(), n, wpb)
                        }
                        (_, Some(v)) => {
                            let (k, v) = ms_sort::sort_pairs(dev, &keys, v, n, wpb);
                            (k, Some(v))
                        }
                        (_, None) => (ms_sort::sort_keys(dev, &keys, n, wpb), None),
                    };
                    sorted = (k.to_vec(), v.map(|v| v.to_vec()));
                });
                let ek: Vec<u32> = expect.iter().map(|&(k, _)| k).collect();
                assert_eq!(sorted.0, ek, "{method} keys, {key_bits}-bit range");
                let total = o.total_sectors();
                let head = [format!("{key_bits}-bit"), kv_name.into()];
                let mut row = [&head[..], &[method.into()]].concat();
                if method == "radix" {
                    radix_total = total;
                    row.extend(["32".into(), String::new()]);
                } else {
                    // ms-sort additionally promises stability.
                    if let Some(sv) = &sorted.1 {
                        let ev: Vec<u32> = expect.iter().map(|&(_, v)| v).collect();
                        assert_eq!(*sv, ev, "ms-sort stability, {key_bits}-bit");
                    }
                    // The tentpole claim: fewer total counted sectors than
                    // the 32-bit radix baseline at every key range.
                    assert!(
                        n < 1 << 12 || total < radix_total,
                        "ms-sort moved {total} sectors vs radix {radix_total} at \
                         {key_bits}-bit keys, kv={kv}, n={n}"
                    );
                    // Per-pass sectors from the "ms_sort/passK" scopes. The
                    // pre-scan's skipped constant digits are what shrink this
                    // list below 32/b.
                    let tree = simt::scope_tree(&o.records);
                    let passes: Vec<u64> = tree
                        .children
                        .iter()
                        .filter(|c| c.name == "ms_sort")
                        .flat_map(|c| &c.children)
                        .filter(|c| c.name.starts_with("pass"))
                        .map(|c| c.stats.sectors)
                        .collect();
                    let eff = 32 - keys_host.iter().fold(0, |a, &k| a | k).leading_zeros();
                    row.extend([eff.to_string(), passes.len().to_string()]);
                    pass_rows.push(head);
                    pass_sectors.push(passes);
                }
                let vs = (method == "ms-sort").then(|| format!("-{}", saved(total, radix_total)));
                row.extend([
                    o.stage_sectors("pre-scan").to_string(),
                    o.stage_sectors("sweep").to_string(),
                    total.to_string(),
                    vs.unwrap_or_default(),
                    ms(o.total),
                ]);
                t.row(row);
            }
        }
    }
    r.table(t);
    r.note("\nms-sort counted sectors per pass (pass = one fused sweep):");
    let most = pass_sectors.iter().map(Vec::len).max().unwrap_or(0);
    let names: Vec<String> = (0..most).map(|i| format!("pass{i}")).collect();
    let names = names.iter().map(String::as_str);
    let mut t = Table::new(&["keys", "kv"].into_iter().chain(names).collect::<Vec<_>>());
    for (head, passes) in pass_rows.into_iter().zip(pass_sectors) {
        let cells = (0..most).map(|i| passes.get(i).map(u64::to_string).unwrap_or_default());
        t.row(head.into_iter().chain(cells).collect());
    }
    r.table(t);

    // Scheduler independence: outputs and counted stats must be
    // bit-identical on all six schedulers (and equal to the host stable
    // sort — established above for the parallel device).
    let mut rng = SmallRng::seed_from_u64(77);
    let keys_host: Vec<u32> = (0..sn)
        .map(|_| rng.gen_range(0..(1u64 << 16)) as u32)
        .collect();
    let values_host = gen_values(sn);
    let adversarial = AdvFlavor::ALL
        .map(|flavor| Schedule::Adversarial(AdvSchedule::with_flavor(0xC0FFEE, flavor)));
    let schedules = [&PAR_SEQ[..], &adversarial].concat();
    let sched_names = assert_schedule_independent("ms-sort", &schedules, |dev| {
        let keys = GlobalBuffer::from_slice(&keys_host);
        let values = GlobalBuffer::from_slice(&values_host);
        let (sk, sv) = ms_sort::sort_pairs(dev, &keys, &values, sn, wpb);
        (sk.to_vec(), sv.to_vec())
    });
    r.note(format!(
        "\nms-sort outputs, payloads and counted stats verified bit-identical\n\
         across {} schedulers ({}) and against the host stable sort.",
        sched_names.len(),
        sched_names.join(", ")
    ));

    // The reduced-bit multisplit under both label sorts: this repo's
    // ms-sort extension and the paper's radix-sort pipeline.
    {
        use baselines::ReducedBitStrategy;
        use multisplit::RangeBuckets;
        let m = 32u32;
        let keys_host = gen_keys(rn, m, Distribution::Uniform, 3000);
        let values_host = gen_values(rn);
        let bucket = RangeBuckets::new(m);
        r.note(format!(
            "\nreduced-bit multisplit (key-value, m = {m}, n = {}) by strategy:",
            size(rn)
        ));
        let mut t = Table::new(&["strategy", "sectors", "ms"]);
        for (strategy, name) in [
            (ReducedBitStrategy::MsSort, "ms-sort"),
            (ReducedBitStrategy::Legacy, "legacy"),
        ] {
            let keys = GlobalBuffer::from_slice(&keys_host);
            let values = GlobalBuffer::from_slice(&values_host);
            let o = on_k40c(|dev| {
                baselines::reduced_bit_multisplit_kv(
                    dev, strategy, &keys, &values, rn, &bucket, wpb,
                );
            });
            t.row(vec![
                name.into(),
                o.total_sectors().to_string(),
                ms(o.total),
            ]);
        }
        r.table(t);
    }
    r
}

/// Digit-width sweep behind [`ms_sort::DEFAULT_DIGIT_BITS`]: sort 32-bit
/// keys at every width `b` in `1..=max_digit_bits` and report passes and
/// counted sectors (key-only and key-value). The committed default must
/// sit at the key-only sweep's counted-sector minimum.
fn sorttune_cmd(opts: &Opts) -> Report {
    use msrng::SmallRng;
    use simt::GlobalBuffer;
    let n = opts.n.min(1 << 20);
    let wpb = 8;
    let mut rng = SmallRng::seed_from_u64(3000);
    let keys_host: Vec<u32> = (0..n)
        .map(|_| rng.gen_range(0..1u64 << 32) as u32)
        .collect();
    let values_host = gen_values(n);
    let mut expect = keys_host.clone();
    expect.sort_unstable();
    let max_key = ms_sort::max_digit_bits(wpb, 0);
    let max_kv = ms_sort::max_digit_bits(wpb, 4);
    let mut r = Report::new(
        "sorttune",
        format!(
            "ms-sort digit-width sweep: full 32-bit keys.\n\
             Wider digits mean fewer passes but a bigger m = 2^b per pass;\n\
             key-only passes fit up to b = {max_key}, key-value up to b = {max_kv}\n\
             (a 4-byte payload is staged in its key's slot after the key, so it\n\
             costs the fused sweep no shared memory)."
        ),
        &[n],
        &[3000],
    );
    let mut t = Table::new(&[
        "b",
        "passes",
        "key sectors",
        "key ms",
        "kv sectors",
        "kv ms",
    ]);
    let mut best: Option<(u32, u64)> = None;
    for b in 1..=max_key {
        let keys = GlobalBuffer::from_slice(&keys_host);
        let key = on_k40c(|dev| {
            let (sk, _) =
                ms_sort::sort_by_bit_range_with::<u32>(dev, &keys, None, n, 0, 32, b, wpb);
            assert_eq!(sk.to_vec(), expect, "b={b}");
        });
        let kv = (b <= max_kv).then(|| {
            let keys = GlobalBuffer::from_slice(&keys_host);
            let values = GlobalBuffer::from_slice(&values_host);
            on_k40c(|dev| {
                ms_sort::sort_by_bit_range_with(dev, &keys, Some(&values), n, 0, 32, b, wpb);
            })
        });
        let total = key.total_sectors();
        if best.is_none_or(|(_, s)| total < s) {
            best = Some((b, total));
        }
        t.row(vec![
            b.to_string(),
            32u32.div_ceil(b).to_string(),
            total.to_string(),
            ms(key.total),
            kv.as_ref()
                .map(|o| o.total_sectors().to_string())
                .unwrap_or_default(),
            kv.as_ref().map(|o| ms(o.total)).unwrap_or_default(),
        ]);
    }
    r.table(t);
    let (best_b, best_sectors) = best.expect("non-empty sweep");
    let sweet = format!(
        "sweet spot: b = {best_b} ({best_sectors} sectors); the committed default is b = {}.",
        ms_sort::DEFAULT_DIGIT_BITS
    );
    assert_eq!(
        best_b,
        ms_sort::DEFAULT_DIGIT_BITS,
        "DEFAULT_DIGIT_BITS no longer sits at the sweep minimum — retune it ({sweet})"
    );
    r.note(format!("\n{sweet}"));
    r
}

// ====================== Profile (observability) ======================

/// Hierarchical scope-tree roll-up with per-block telemetry and look-back
/// introspection for the four `m <= 32` contenders. Per-stage sector
/// totals match the `fused` / `scan` text reports exactly (same seed,
/// same sequential-equivalent counts). Writes `bench_results/profile.json`.
fn profile_cmd(opts: &Opts) -> Report {
    let n = opts.n.min(1 << 20);
    let m = 32u32;
    let data = metrics::profile_data(&metrics::PROFILE_CONTENDERS, n, m, true);
    let mut r = metrics::profile_report(&data, n, m);
    let doc = Json::Obj(vec![
        ("n".into(), Json::int(n as u64)),
        ("m".into(), Json::int(m as u64)),
        ("seed".into(), Json::int(metrics::PROFILE_SEED)),
        ("device".into(), Json::Str(K40C.name.into())),
        (
            "contenders".into(),
            Json::Arr(data.iter().map(|p| p.to_json(&K40C)).collect()),
        ),
    ]);
    r.files.push(("profile.json", doc.pretty() + "\n"));
    metrics::sink_push("profile.json", doc);
    r
}

// ====================== Trace (flight recorder) ======================

/// Causal tracing from the flight recorder: run the single-pass fused
/// method at m = 32 (`fused`) and m = 64 (`fused-large-m`) on the
/// sequential scheduler with per-block telemetry, derive each look-back
/// launch's tile dependency DAG and **exact** critical path from the
/// recorded event stream, and compare against `launch_report`'s modeled
/// estimate. Writes `bench_results/trace_chrome.json` — a chrome trace
/// (load in `chrome://tracing` or <https://ui.perfetto.dev>) with one
/// slice per tile and flow arrows along every stalled publisher →
/// resolver edge.
fn trace_cmd(opts: &Opts) -> Report {
    let n = opts.n.min(1 << 20);
    let runs: [(Contender, &'static str, u32); 2] = [
        (Contender::Fused, "fused", 32),
        (Contender::Fused, "fused-large-m", 64),
    ];
    let mut r = Report {
        schedule: "sequential",
        ..Report::new(
            "trace",
            "Trace: flight-recorder causal analysis\n\
         (exact critical path = launch overhead + longest stall-edge chain of modeled\n\
          block times; under the sequential schedule no resolve ever spins, so the\n\
          exact path must equal the launch_report estimate)",
            &[n],
            &[metrics::PROFILE_SEED],
        )
    };
    let mut all_records = Vec::new();
    let mut contender_docs = Vec::new();
    for &(c, name, m) in &runs {
        let outcome = msbench::with_run_schedule(Schedule::Sequential, || {
            simt::with_telemetry(simt::Telemetry::PerBlock, || {
                run_contender(&Run {
                    seed: metrics::PROFILE_SEED,
                    ..Run::new(c, n, m)
                })
            })
        });
        r.heading(format!("{name} (m = {m})"));
        let mut warnings = Vec::new();
        let mut t = Table::new(&[
            "launch", "tiles", "edges", "stalls", "depth", "exact ms", "model ms", "delta %",
            "slack ms",
        ]);
        let mut launch_docs = Vec::new();
        for rec in &outcome.records {
            let Some(a) = simt::flight_analyze(rec, &K40C) else {
                continue;
            };
            if a.tiles == 0 {
                continue;
            }
            let report = simt::launch_report(rec, &K40C);
            let sum = report.as_ref().map(|r| r.sum_seconds).unwrap_or(0.0);
            // Work the DAG leaves off the critical path: total modeled
            // block time minus the path's share — the launch's headroom
            // for more parallelism.
            let slack = (sum + K40C.launch_overhead_us * 1e-6 - a.critical_path_seconds).max(0.0);
            let delta = if a.modeled_critical_path_seconds > 0.0 {
                (a.critical_path_seconds / a.modeled_critical_path_seconds - 1.0) * 100.0
            } else {
                0.0
            };
            t.row(vec![
                a.label.clone(),
                a.tiles.to_string(),
                a.edges.to_string(),
                a.stall_edges.to_string(),
                a.max_depth.to_string(),
                format!("{:.4}", a.critical_path_seconds * 1e3),
                format!("{:.4}", a.modeled_critical_path_seconds * 1e3),
                format!("{delta:+.2}"),
                format!("{:.4}", slack * 1e3),
            ]);
            if a.truncated {
                warnings.push(format!(
                    "warn: {} flight ring overflowed ({} dropped) — DAG is partial; \
                     re-run with a larger capacity",
                    a.label,
                    rec.flight.as_ref().map(|f| f.dropped).unwrap_or(0)
                ));
            }
            let mut fields = match a.to_json() {
                Json::Obj(f) => f,
                _ => unreachable!(),
            };
            fields.push(("sum_seconds".into(), Json::Num(sum)));
            fields.push(("slack_seconds".into(), Json::Num(slack)));
            launch_docs.push(Json::Obj(fields));
        }
        if !warnings.is_empty() {
            r.note(warnings.join("\n"));
        }
        r.table(t);
        contender_docs.push(Json::Obj(vec![
            ("contender".into(), Json::Str(name.into())),
            ("m".into(), Json::int(m as u64)),
            ("launches".into(), Json::Arr(launch_docs)),
        ]));
        all_records.extend(outcome.records);
    }
    let doc = Json::Obj(vec![
        ("n".into(), Json::int(n as u64)),
        ("seed".into(), Json::int(metrics::PROFILE_SEED)),
        ("device".into(), Json::Str(K40C.name.into())),
        ("contenders".into(), Json::Arr(contender_docs)),
    ]);
    r.files.push((
        "trace_chrome.json",
        simt::chrome_trace_json_with_tiles(&all_records, &K40C),
    ));
    metrics::sink_push("trace.json", doc);
    r
}

// ====================== Check (sector regression gate) ======================

/// Compare the four `m <= 32` contenders' per-stage sector counts at
/// n = 2^16, m = 32 — plus the `largem` section's three-kernel vs fused
/// large-m pair at n = 2^16, m = 64 — against the committed
/// `bench_results/baseline_sectors.json` with a ±2% tolerance, and each
/// row's modeled microseconds with a ±0.5% one; exit 1 on regression.
/// Sectors and modeled time are schedule-independent, so this is a
/// meaningful Rust-only CI gate. `--update` rewrites the baseline from the current
/// counts instead.
///
/// Parsed here (not via `parse_opts`): its sizes are fixed, and
/// `--update` is its only option.
fn check_cmd(args: &[String]) -> Result<(), String> {
    let update = match args {
        [] => false,
        [flag] if flag == "--update" => true,
        [other, ..] => return Err(format!("unknown check option {other}")),
    };
    let n = 1usize << 16;
    let m = 32u32;
    let path = "bench_results/baseline_sectors.json";
    println!(
        "check: per-stage sector counts, n = 2^16, m = {m} (largem section: m = 64), \
         seed {}, tolerance ±2% (modeled µs: ±0.5%)",
        metrics::PROFILE_SEED
    );
    let mut current = metrics::sector_baseline(&metrics::PROFILE_CONTENDERS, n, m);
    let mut sections: Vec<(&str, Json)> = metrics::CHECK_SECTIONS
        .iter()
        .map(|&(name, m, contenders)| (name, metrics::sector_baseline(contenders, n, m)))
        .collect();
    sections.push(("serve", metrics::serve_sector_baseline_current()));
    sections.push(("serve_overlap", metrics::serve_overlap_baseline_current()));
    if let Json::Obj(fields) = &mut current {
        fields.extend(
            sections
                .iter()
                .map(|(name, cur)| (name.to_string(), cur.clone())),
        );
    }
    if update {
        write_file(path, &(current.pretty() + "\n")).expect("cannot write baseline");
        println!("[wrote {path}]");
        return Ok(());
    }
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("check: cannot read {path} ({e}); create it with `paper check --update`");
        std::process::exit(1);
    });
    let baseline = Json::parse(&text).expect("committed baseline is not valid JSON");
    let mut notes = Vec::new();
    let mut failures = Vec::new();
    match metrics::sector_baseline_compare(&current, &baseline, 0.02) {
        Ok(ns) => notes.extend(ns),
        Err(fs) => failures.extend(fs),
    }
    for (name, cur) in &sections {
        match baseline.get(name) {
            Some(base) => match metrics::sector_baseline_compare(cur, base, 0.02) {
                Ok(ns) => notes.extend(ns.into_iter().map(|s| format!("{name}: {s}"))),
                Err(fs) => failures.extend(fs.into_iter().map(|s| format!("{name}: {s}"))),
            },
            None => failures.push(format!(
                "baseline has no `{name}` section; refresh with `paper check --update`"
            )),
        }
    }
    if failures.is_empty() {
        for note in &notes {
            println!("note: {note}");
        }
        println!(
            "check: OK — all sector counts and modeled times within tolerance of the baseline"
        );
        Ok(())
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        eprintln!(
            "check: sector counts or modeled times regressed; investigate, or refresh an intended\n\
             change with `paper check --update` and commit the new baseline"
        );
        std::process::exit(1);
    }
}

// ====================== Fuzz (differential harness) ======================

/// Differential fuzzing across every multisplit method, key distribution,
/// and execution schedule (sequential / parallel / four adversarial
/// flavors). Each case is checked against the CPU reference, and
/// non-sequential runs additionally against a sequential baseline for
/// schedule-independence of outputs, launch labels, counted stats, and
/// look-back resolve counts. The first failure is shrunk to a minimal
/// reproducer, written to `bench_results/fuzz_repro.txt`, and exits 1.
///
/// Parsed here (not via `parse_opts`) because the options differ.
fn fuzz_cmd(args: &[String]) -> Result<(), String> {
    let mut iters = 200usize;
    let mut seed = 5000u64;
    let mut replay: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--iters" => iters = value(&mut it, "--iters")?,
            "--seed" => seed = value(&mut it, "--seed")?,
            "--replay" => replay = Some(value(&mut it, "--replay")?),
            other => return Err(format!("unknown fuzz option {other}")),
        }
    }
    if let Some(token) = replay {
        let case = msfuzz::parse_replay(&token).map_err(|e| format!("bad replay token: {e}"))?;
        println!("fuzz: replaying {}", case.replay_token());
        match msfuzz::run_case(&case) {
            Ok(()) => println!("fuzz: replay clean — no divergence"),
            Err(d) => {
                eprintln!("fuzz: replay FAILED: {d}");
                std::process::exit(1);
            }
        }
        return Ok(());
    }
    println!("fuzz: {iters} iterations, seed {seed}");
    let mut last_pct = 0usize;
    let report = msfuzz::fuzz(iters, seed, |ix, _| {
        let pct = (ix + 1) * 10 / iters.max(1);
        if pct > last_pct {
            last_pct = pct;
            println!("fuzz: {}/{iters}", ix + 1);
        }
    });
    match report.failure {
        None => {
            println!(
                "fuzz: OK — {} cases, zero divergences across every method, \
                 distribution, and schedule",
                report.iters_run
            );
            Ok(())
        }
        Some(f) => {
            eprintln!(
                "fuzz: FAILURE at iteration {} ({})",
                f.iteration, f.divergence
            );
            eprintln!("fuzz: original case: {}", f.case.replay_token());
            eprintln!("fuzz: shrunk case:   {}", f.shrunk.replay_token());
            eprintln!("fuzz: replay with:   {}", f.replay_command());
            let path = "bench_results/fuzz_repro.txt";
            let body = format!(
                "divergence: {}\niteration: {}\noriginal: {}\nshrunk: {}\nreplay: {}\n",
                f.divergence,
                f.iteration,
                f.case.replay_token(),
                f.shrunk.replay_token(),
                f.replay_command()
            );
            match write_file(path, &body) {
                Ok(()) => eprintln!("fuzz: reproducer written to {path}"),
                Err(e) => eprintln!("fuzz: {e}"),
            }
            std::process::exit(1);
        }
    }
}

// ====================== Serve (batched front-end) ======================

/// The serve claim under test: coalescing thousands of small
/// independent multisplit requests into segmented launches (one sweep
/// per batch, after one pre-scan when a request spans several sweep
/// tiles; pooled arena, no per-request allocation) beats standalone
/// launches per request by >= 5x in modeled throughput while staying
/// within 5% of the naive executor's counted DRAM sectors, with every
/// answer bit-identical to the host reference and to its standalone
/// `Method::auto` run.
///
/// Parsed here (not via `parse_opts`) because the options differ.
fn serve_cmd(args: &[String]) -> Result<(), String> {
    let mut cfg = serve::ServeConfig::default();
    let mut json: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--requests" => cfg.requests = value(&mut it, "--requests")?,
            "--n" => cfg.n = value(&mut it, "--n")?,
            "--m" => cfg.m_max = value(&mut it, "--m")?,
            "--devices" => cfg.devices = value::<usize>(&mut it, "--devices")?.max(1),
            "--batch" => cfg.batch = value::<usize>(&mut it, "--batch")?.max(1),
            "--streams" => cfg.streams = value::<usize>(&mut it, "--streams")?.max(1),
            "--seed" => cfg.seed = value(&mut it, "--seed")?,
            "--no-verify" => cfg.verify = false,
            "--json" => json = Some(value(&mut it, "--json")?),
            other => return Err(format!("unknown serve option {other}")),
        }
    }
    if cfg.m_max > 32 {
        return Err(format!(
            "serve coalesces the m <= 32 fused path; got --m {}",
            cfg.m_max
        ));
    }
    if json.is_some() {
        metrics::sink_begin();
    }
    let report = serve::run_serve(&cfg);
    metrics::sink_push("serve.json", serve::report_json(&cfg, &report));
    let args = format!(
        "--requests {} --n {} --m {} --devices {} --batch {} --streams {} --seed {}{}",
        cfg.requests,
        cfg.n,
        cfg.m_max,
        cfg.devices,
        cfg.batch,
        cfg.streams,
        cfg.seed,
        if cfg.verify { "" } else { " --no-verify" }
    );
    publish(&serve::report(&cfg, &report), &args);
    if let Some(path) = &json {
        write_sink(path);
    }
    Ok(())
}

/// How a command takes its arguments.
enum Runner {
    /// An experiment on the shared [`Opts`], published as its report.
    Report(fn(&Opts) -> Report),
    /// Every `Report` command marked for `paper all`, on the shared [`Opts`].
    All,
    /// Its own option set, whose usage the text gives.
    Own(fn(&[String]) -> Result<(), String>, &'static str),
}

/// Every command: its name, its runner, and whether `paper all` runs it.
const COMMANDS: [(&str, Runner, bool); 24] = [
    ("table1", Runner::Report(table1), true),
    ("table3", Runner::Report(table3), true),
    ("table4", Runner::Report(table4), true),
    ("table5", Runner::Report(table5), true),
    ("table6", Runner::Report(table6), true),
    ("fig2", Runner::Report(fig2), true),
    ("fig3", Runner::Report(fig3), true),
    ("fig4", Runner::Report(fig4), true),
    ("fig5", Runner::Report(fig5), true),
    ("light", Runner::Report(light), true),
    ("sssp", Runner::Report(sssp_experiment), true),
    ("randomized", Runner::Report(randomized), true),
    ("ablate", Runner::Report(ablate), true),
    ("scan", Runner::Report(scan_compare), true),
    ("fused", Runner::Report(fused_compare), true),
    ("largem", Runner::Report(largem_compare), true),
    ("sort", Runner::Report(sort_cmd), true),
    ("sorttune", Runner::Report(sorttune_cmd), true),
    ("profile", Runner::Report(profile_cmd), false),
    ("trace", Runner::Report(trace_cmd), false),
    ("check", Runner::Own(check_cmd, "[--update]"), false),
    (
        "fuzz",
        Runner::Own(fuzz_cmd, "[--iters K] [--seed S] [--replay TOKEN]"),
        false,
    ),
    (
        "serve",
        Runner::Own(
            serve_cmd,
            "[--requests K] [--n N] [--m M] [--devices D] [--batch B] [--streams S] \
             [--seed S] [--no-verify] [--json PATH]",
        ),
        false,
    ),
    ("all", Runner::All, false),
];

/// Run each of `experiments` and publish its report, then write the
/// armed `--json` sink.
fn run_reports(opts: &Opts, experiments: &[fn(&Opts) -> Report]) {
    if opts.json.is_some() {
        metrics::sink_begin();
    }
    for f in experiments {
        publish(&f(opts), &opts.args);
    }
    if let Some(path) = &opts.json {
        write_sink(path);
    }
}

fn usage() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.0).collect();
    let mut usage = format!(
        "usage: paper <{}> [--n LOG2] [--full] [--json PATH]",
        names.join("|")
    );
    for (name, runner, _) in &COMMANDS {
        if let Runner::Own(_, options) = runner {
            usage.push_str(&format!("\n       paper {name} {options}"));
        }
    }
    usage
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        None => Err("no command".to_string()),
        Some((cmd, rest)) => match COMMANDS.iter().find(|c| c.0 == cmd) {
            None => Err(format!("unknown command {cmd}")),
            Some((_, Runner::Own(f, _), _)) => f(rest),
            Some((_, Runner::Report(f), _)) => {
                parse_opts(rest).map(|opts| run_reports(&opts, &[*f]))
            }
            Some((_, Runner::All, _)) => parse_opts(rest).map(|opts| {
                let marked: Vec<fn(&Opts) -> Report> = COMMANDS
                    .iter()
                    .filter_map(|c| match c {
                        (_, Runner::Report(f), true) => Some(*f),
                        _ => None,
                    })
                    .collect();
                run_reports(&opts, &marked)
            }),
        },
    };
    if let Err(e) = result {
        eprintln!("paper: {e}\n{}", usage());
        std::process::exit(2);
    }
}
