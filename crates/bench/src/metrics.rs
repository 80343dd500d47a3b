//! Structured metrics export for the bench harness.
//!
//! Three pieces:
//!
//! * a **thread-local run sink** — when armed (the `paper` binary's
//!   `--json <path>` flag), every [`crate::run_contender`] call appends
//!   a JSON entry describing the run (parameters, per-stage split, full
//!   launch log) to the active [`simt::MetricsSink`], which the binary
//!   writes at exit;
//! * **profile data** — the testable core of `paper profile`: run the
//!   four `m <= 32` contenders and derive scope trees, launch reports
//!   and look-back histograms from their per-block launch logs;
//! * **sector baselines** — the `paper check` regression gate: current
//!   per-stage sector counts and modeled times as JSON, compared byte for
//!   byte with the committed baseline ([`baseline_diff`]). Both are
//!   schedule-independent, so any difference is a real change.

use std::cell::RefCell;

use simt::{launch_report, scope_tree, Json, LaunchRecord, MetricsSink};

use crate::{run_contender, Contender, Outcome, Report, Run};

thread_local! {
    static SINK: RefCell<Option<MetricsSink>> = const { RefCell::new(None) };
}

/// Arm the thread-local sink (subsequent runs on this thread are logged).
pub fn sink_begin() {
    SINK.with(|s| *s.borrow_mut() = Some(MetricsSink::new()));
}

/// Whether a sink is currently armed on this thread.
pub fn sink_active() -> bool {
    SINK.with(|s| s.borrow().is_some())
}

/// Append a section to the armed sink (no-op when disarmed).
pub fn sink_push(name: &str, value: Json) {
    SINK.with(|s| {
        if let Some(sink) = s.borrow_mut().as_mut() {
            sink.push(name, value);
        }
    });
}

/// Disarm and take the sink (if one was armed).
pub fn sink_take() -> Option<MetricsSink> {
    SINK.with(|s| s.borrow_mut().take())
}

/// Stage splits as JSON: `[{"stage": ..., "seconds"/"sectors": ...}]`.
fn stages_json(outcome: &Outcome) -> (Json, Json) {
    let seconds = Json::Arr(
        outcome
            .stages
            .iter()
            .map(|(k, v)| {
                Json::Obj(vec![
                    ("stage".into(), Json::Str((*k).into())),
                    ("seconds".into(), Json::Num(*v)),
                ])
            })
            .collect(),
    );
    (seconds, stage_sectors_json(&outcome.sectors))
}

/// Per-stage sectors as JSON: `[{"stage": ..., "sectors": ...}]`.
pub(crate) fn stage_sectors_json(sectors: &[(&'static str, u64)]) -> Json {
    Json::Arr(
        sectors
            .iter()
            .map(|(k, v)| {
                Json::Obj(vec![
                    ("stage".into(), Json::Str((*k).into())),
                    ("sectors".into(), Json::int(*v)),
                ])
            })
            .collect(),
    )
}

/// The sink entry [`crate::run_contender`] logs for one verified run.
pub(crate) fn run_entry(run: &Run, outcome: &Outcome) -> Json {
    let (stage_seconds, stage_sectors) = stages_json(outcome);
    Json::Obj(vec![
        ("contender".into(), Json::Str(run.contender.name())),
        ("key_value".into(), Json::Bool(run.key_value)),
        ("n".into(), Json::int(run.n as u64)),
        ("m".into(), Json::int(run.m as u64)),
        ("distribution".into(), Json::Str(run.dist.name().into())),
        ("device".into(), Json::Str(run.profile.name.into())),
        ("warps_per_block".into(), Json::int(run.wpb as u64)),
        ("seed".into(), Json::int(run.seed)),
        ("total_seconds".into(), Json::Num(outcome.total)),
        ("stage_seconds".into(), stage_seconds),
        ("stage_sectors".into(), stage_sectors),
        ("buffer_read_sectors".into(), buffer_reads_json(outcome)),
        ("launches".into(), simt::obs::records_json(&outcome.records)),
    ])
}

/// Per-input-buffer DRAM read sectors as a JSON object
/// (`{"keys": …, "values": …}`) — PR 6's counters, surfaced.
pub(crate) fn buffer_reads_json(outcome: &Outcome) -> Json {
    Json::Obj(
        outcome
            .buffer_reads
            .iter()
            .map(|(k, v)| ((*k).into(), Json::int(*v)))
            .collect(),
    )
}

/// Contenders with the short names committed in baselines.
pub type Named = [(Contender, &'static str)];

/// The contenders `paper profile` / `paper check` cover, with the short
/// names committed in baselines.
pub const PROFILE_CONTENDERS: [(Contender, &str); 4] = [
    (Contender::Direct, "direct"),
    (Contender::WarpLevel, "warp"),
    (Contender::BlockLevel, "block"),
    (Contender::Fused, "fused"),
];

/// The named sections `paper check` adds to the [`PROFILE_CONTENDERS`]
/// one: the key each sits under in the committed baseline, its bucket
/// count, and its contenders with their committed short names.
/// * `largem`: the three-kernel `m > 32` pipeline vs the fused method,
///   whose row keeps its committed short name `fused-large-m`;
/// * `sort`: the CUB-like three-kernel radix sort vs ms-sort (the
///   multisplit-iterated sort on the fused pipelines); the committed
///   baseline pins ms-sort's lower total sector count.
pub const CHECK_SECTIONS: [(&str, u32, &Named); 2] = [
    (
        "largem",
        64,
        &[
            (Contender::LargeM, "large-m"),
            (Contender::Fused, "fused-large-m"),
        ],
    ),
    (
        "sort",
        32,
        &[
            (Contender::RadixSort, "radix"),
            (Contender::MsSort, "ms-sort"),
        ],
    ),
];

/// One contender's profile: the outcome plus everything derived from its
/// per-block launch log.
pub struct ContenderProfile {
    pub name: &'static str,
    pub outcome: Outcome,
}

impl ContenderProfile {
    /// Scope-tree roll-up of the contender's launch log.
    pub fn tree(&self) -> simt::ScopeNode {
        scope_tree(&self.outcome.records)
    }

    /// Per-launch reports (imbalance, sector histograms) — one per
    /// launch, since every profile run retains per-block stats.
    fn launch_reports(&self, profile: &simt::DeviceProfile) -> Vec<simt::LaunchReport> {
        self.outcome
            .records
            .iter()
            .filter_map(|r| launch_report(r, profile))
            .collect()
    }

    /// Launches that resolved look-backs (chained scans, fused sweeps).
    fn lookback_records(&self) -> Vec<&LaunchRecord> {
        self.outcome
            .records
            .iter()
            .filter(|r| r.obs.lookback_resolves > 0)
            .collect()
    }

    pub fn to_json(&self, profile: &simt::DeviceProfile) -> Json {
        let (stage_seconds, stage_sectors) = stages_json(&self.outcome);
        Json::Obj(vec![
            ("contender".into(), Json::Str(self.name.into())),
            ("total_seconds".into(), Json::Num(self.outcome.total)),
            ("stage_seconds".into(), stage_seconds),
            ("stage_sectors".into(), stage_sectors),
            (
                "buffer_read_sectors".into(),
                buffer_reads_json(&self.outcome),
            ),
            ("scope_tree".into(), self.tree().to_json()),
            (
                "launch_reports".into(),
                Json::Arr(
                    self.launch_reports(profile)
                        .iter()
                        .map(|r| r.to_json())
                        .collect(),
                ),
            ),
            (
                "lookback".into(),
                Json::Arr(
                    self.lookback_records()
                        .iter()
                        .map(|r| {
                            Json::Obj(vec![
                                ("label".into(), Json::Str(r.label.clone())),
                                ("obs".into(), simt::obs::obs_json(&r.obs)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The seed `paper fused` uses for its first trial; profile runs share it
/// so per-stage sector totals line up exactly with that report.
pub const PROFILE_SEED: u64 = 3000;

/// Run `contenders` (the four `m <= 32` ones for `paper profile`)
/// key-only at [`PROFILE_SEED`]. The testable core
/// of `paper profile` (and of `paper check`, which only keeps the sector
/// splits). Runs on the sequential schedule, so the look-back
/// introspection (spin polls, depths) and the per-block critical paths
/// repeat run to run, as `paper trace`'s do.
pub fn profile_data(contenders: &Named, n: usize, m: u32, verify: bool) -> Vec<ContenderProfile> {
    crate::with_run_schedule(simt::Schedule::Sequential, || {
        contenders
            .iter()
            .map(|&(c, name)| ContenderProfile {
                name,
                outcome: run_contender(&Run {
                    seed: PROFILE_SEED,
                    verify,
                    ..Run::new(c, n, m)
                }),
            })
            .collect()
    })
}

/// `paper profile`'s report on `data` (run at `n`, `m`): per
/// contender, its scope tree, a launch table and its look-back
/// introspection.
pub fn profile_report(data: &[ContenderProfile], n: usize, m: u32) -> Report {
    let mut r = Report {
        schedule: "sequential",
        ..Report::new(
            "profile",
            format!(
                "Profile: hierarchical scope-tree roll-up, m = {m}\n\
             (per-block telemetry on; direct/warp/block/fused on the K40c; per-stage\n\
             sector totals line up with the `fused` report's first trial)"
            ),
            &[n],
            &[PROFILE_SEED],
        )
    };
    for p in data {
        r.heading(p.name);
        r.note(p.tree().render_text().trim_end_matches('\n'));
        let mut t = crate::Table::new(&["launch", "blocks", "imbalance", "crit-path ms", "sum ms"]);
        for rep in p.launch_reports(&simt::K40C) {
            t.row(vec![
                rep.label.clone(),
                rep.blocks.to_string(),
                format!("{:.2}", rep.imbalance),
                format!("{:.3}", rep.critical_path_seconds * 1e3),
                format!("{:.3}", rep.sum_seconds * 1e3),
            ]);
        }
        r.table(t);
        let lookbacks: Vec<String> = p
            .lookback_records()
            .iter()
            .map(|rec| {
                format!(
                    "look-back {}: {} resolves, mean depth {:.2}, spin polls {}\n  depth hist {:?}",
                    rec.label,
                    rec.obs.lookback_resolves,
                    rec.obs.mean_depth(),
                    rec.obs.spin_polls,
                    rec.obs.lookback_depth_hist,
                )
            })
            .collect();
        if !lookbacks.is_empty() {
            r.note(lookbacks.join("\n"));
        }
    }
    r
}

/// Current per-stage sector counts and modeled time of `contenders` in
/// the committed-baseline shape: `{"n", "m", "seed", "contenders":
/// [{"contender", "total_sectors", "modeled_us", "stages": [{"stage",
/// "sectors"}]}]}`.
pub fn sector_baseline(contenders: &Named, n: usize, m: u32) -> Json {
    let rows = profile_data(contenders, n, m, false)
        .iter()
        .map(|p| {
            let o = &p.outcome;
            sector_row(p.name, o.total_sectors(), Some(o.total), &o.sectors)
        })
        .collect();
    baseline_doc(n, m, rows)
}

/// One contender of a baseline section, with its modeled seconds (as
/// microseconds, to the nanosecond) when it has them.
fn sector_row(
    name: &str,
    total: u64,
    seconds: Option<f64>,
    stages: &[(&'static str, u64)],
) -> Json {
    let mut fields = vec![
        ("contender".into(), Json::Str(name.into())),
        ("total_sectors".into(), Json::int(total)),
    ];
    if let Some(s) = seconds {
        fields.push(("modeled_us".into(), Json::Num((s * 1e9).round() / 1e3)));
    }
    fields.push(("stages".into(), stage_sectors_json(stages)));
    Json::Obj(fields)
}

/// A baseline section: its config header and contender rows.
fn baseline_doc(n: usize, m: u32, rows: Vec<Json>) -> Json {
    Json::Obj(vec![
        ("n".into(), Json::int(n as u64)),
        ("m".into(), Json::int(m as u64)),
        ("seed".into(), Json::int(PROFILE_SEED)),
        ("contenders".into(), Json::Arr(rows)),
    ])
}

/// The serve companion: naive per-request vs coalesced segmented serving
/// sector counts at a small fixed config, stored under the `"serve"` key
/// of the committed baseline. Same shape as [`sector_baseline`]
/// (its `n`/`m` header fields are the per-request size and `m_max`);
/// verification of every answer against its standalone `Method::auto`
/// run rides along.
pub fn serve_sector_baseline_current() -> Json {
    let cfg = crate::serve::ServeConfig {
        requests: 32,
        n: 256,
        m_max: 16,
        devices: 2,
        batch: 16,
        seed: PROFILE_SEED,
        verify: true,
        ..Default::default()
    };
    let report = crate::serve::run_serve(&cfg);
    let row = |name, e: &crate::serve::ExecStats| {
        sector_row(name, e.total_sectors, Some(e.wall_s), &e.stage_sectors)
    };
    baseline_doc(
        cfg.n,
        cfg.m_max,
        vec![
            row("serve-naive", &report.naive),
            row("serve-coalesced", &report.coalesced),
        ],
    )
}

/// The overlapped-serve companion, stored under the `"serve_overlap"`
/// key of the committed baseline: the modeled concurrency numbers of the
/// same fixed config run with 2 streams per device, as integer rows of
/// the [`sector_baseline`] shape: makespan and serialized walls in
/// nanoseconds, and *idle* (not utilization) in basis points. A lost
/// overlap shows up as makespan growing toward the serialized wall; a
/// scheduling pessimization shows up directly.
pub fn serve_overlap_baseline_current() -> Json {
    // Each device gets 32 requests in 8 batches of 4, so each of its 2
    // streams carries 4 batches. A 128-key request is one sweep tile, so
    // a batch is one sweep launch of one block per segment — 4 of the
    // K40C's 15 SMs — so the two streams' launches
    // genuinely pack (4/15 + 4/15 < 1): the overlap the makespan metric
    // gates. (At batch = 8 each launch would occupy 8/15 and two could
    // never co-run.)
    let cfg = crate::serve::ServeConfig {
        requests: 64,
        n: 128,
        m_max: 16,
        devices: 2,
        batch: 4,
        streams: 2,
        seed: PROFILE_SEED,
        verify: true,
        ..Default::default()
    };
    let report = crate::serve::run_serve(&cfg);
    assert!(
        report.overlapped.wall_s < report.serialized_wall_s,
        "overlapped serve must beat the serialized order (makespan {} vs {})",
        report.overlapped.wall_s,
        report.serialized_wall_s
    );
    let metric = |name, v| sector_row(name, v, None, &[]);
    let ns = |s: f64| (s * 1e9).round() as u64;
    baseline_doc(
        cfg.n,
        cfg.m_max,
        vec![
            metric("serve-overlap-makespan-ns", ns(report.overlapped.wall_s)),
            metric("serve-overlap-serialized-ns", ns(report.serialized_wall_s)),
            metric(
                "serve-overlap-idle-bp",
                ((1.0 - report.utilization) * 1e4).round() as u64,
            ),
        ],
    )
}

/// The lines where `fresh` differs from `committed`, each naming its
/// 1-based line number and both texts (`<missing>` past the end of the
/// shorter one). Empty exactly when the two are byte-identical.
pub fn baseline_diff(committed: &str, fresh: &str) -> Vec<String> {
    let (c, f): (Vec<&str>, Vec<&str>) =
        (committed.split('\n').collect(), fresh.split('\n').collect());
    (0..c.len().max(f.len()))
        .filter(|&i| c.get(i) != f.get(i))
        .map(|i| {
            let text = |side: &[&str]| side.get(i).copied().unwrap_or("<missing>").to_string();
            format!(
                "line {}:\n  committed: {}\n  fresh:     {}",
                i + 1,
                text(&c),
                text(&f)
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_arms_pushes_and_takes() {
        assert!(!sink_active());
        sink_push("ignored", Json::Null); // disarmed: no-op
        sink_begin();
        assert!(sink_active());
        sink_push("a", Json::int(1));
        sink_push("b", Json::int(2));
        let sink = sink_take().expect("sink was armed");
        assert!(!sink_active());
        let sections = sink.to_json();
        assert_eq!(sections.get("sections").unwrap().as_arr().unwrap().len(), 2);
        assert!(sink_take().is_none());
    }

    #[test]
    fn run_contender_logs_into_armed_sink() {
        sink_begin();
        let o = run_contender(&Run {
            seed: 1,
            ..Run::new(Contender::Fused, 4096, 8)
        });
        assert!(!o.records.is_empty(), "outcome must carry the launch log");
        let sink = sink_take().unwrap();
        let text = sink.to_json().pretty();
        let parsed = Json::parse(&text).expect("sink must serialize valid JSON");
        let sections = parsed.get("sections").unwrap().as_arr().unwrap();
        assert_eq!(sections.len(), 1);
        let data = sections[0].get("data").unwrap();
        assert_eq!(
            data.get("contender").and_then(Json::as_str),
            Some("Fused MS")
        );
        assert_eq!(data.get("n").and_then(Json::as_f64), Some(4096.0));
        // n = 4,096 at m = 8 is one sweep tile: the sweep alone.
        let launches = data.get("launches").unwrap().as_arr().unwrap();
        let labels: Vec<_> = launches
            .iter()
            .map(|l| l.get("label").and_then(Json::as_str))
            .collect();
        assert_eq!(labels, [Some("fused/sweep")]);
    }

    #[test]
    fn profile_data_retains_per_block_and_lookback() {
        let profiles = profile_data(&PROFILE_CONTENDERS, 1 << 14, 8, true);
        assert_eq!(profiles.len(), 4);
        for p in &profiles {
            assert!(p.outcome.total > 0.0, "{}", p.name);
            for rec in &p.outcome.records {
                assert_eq!(
                    rec.per_block.len(),
                    rec.blocks,
                    "{}/{}: profile runs must retain per-block stats",
                    p.name,
                    rec.label
                );
            }
            assert!(
                !p.launch_reports(&simt::K40C).is_empty(),
                "{}: at least one derived launch report",
                p.name
            );
        }
        // Three-kernel contenders resolve look-backs in their chained scan;
        // the fused contender in its sweep.
        let fused = profiles.iter().find(|p| p.name == "fused").unwrap();
        assert!(
            !fused.lookback_records().is_empty(),
            "fused sweep must report look-back introspection"
        );
        let json = fused.to_json(&simt::K40C).pretty();
        assert!(Json::parse(&json).is_ok());
    }

    /// `paper profile` repeats byte for byte: the rendered report and
    /// every look-back record's introspection.
    #[test]
    fn profile_runs_repeat_exactly() {
        let run = || {
            let data = profile_data(&PROFILE_CONTENDERS, 1 << 13, 32, false);
            let obs: Vec<Vec<String>> = data
                .iter()
                .map(|p| {
                    p.lookback_records()
                        .iter()
                        .map(|r| simt::obs::obs_json(&r.obs).pretty())
                        .collect()
                })
                .collect();
            (profile_report(&data, 1 << 13, 32), obs)
        };
        let (text, obs) = run();
        assert!(
            obs.iter().any(|o| !o.is_empty()),
            "some contender looks back"
        );
        assert_eq!(run(), (text, obs));
    }

    #[test]
    fn largem_baseline_section_fused_wins() {
        let (name, m, contenders) = CHECK_SECTIONS[0];
        assert_eq!((name, m), ("largem", 64));
        let current = sector_baseline(contenders, 1 << 13, m);
        let totals: Vec<(String, f64)> = current
            .get("contenders")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|c| {
                (
                    c.get("contender").and_then(Json::as_str).unwrap().into(),
                    c.get("total_sectors").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].0, "large-m");
        assert_eq!(totals[1].0, "fused-large-m");
        assert!(
            totals[1].1 < totals[0].1,
            "fused large-m must move fewer sectors ({totals:?})"
        );
    }

    /// The sort check section: ms-sort's effective-bit pruning plus the
    /// fused single-pass digit passes must beat the CUB-like radix
    /// baseline on total counted sectors.
    #[test]
    fn sort_baseline_section_ms_sort_wins() {
        let (name, m, contenders) = CHECK_SECTIONS[1];
        assert_eq!(name, "sort");
        let current = sector_baseline(contenders, 1 << 13, m);
        let totals: Vec<(String, f64)> = current
            .get("contenders")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|c| {
                (
                    c.get("contender").and_then(Json::as_str).unwrap().into(),
                    c.get("total_sectors").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        assert_eq!(totals[0].0, "radix");
        assert_eq!(totals[1].0, "ms-sort");
        assert!(
            totals[1].1 < totals[0].1,
            "ms-sort ({}) must move fewer sectors than radix ({})",
            totals[1].1,
            totals[0].1
        );
    }

    /// `paper check` passes only on byte-identical text, and names each
    /// differing line with both of its versions.
    #[test]
    fn baseline_diff_is_exact_and_names_each_line() {
        let committed = "{\n  \"n\": 65536,\n  \"total_sectors\": 1234\n}\n";
        assert!(baseline_diff(committed, committed).is_empty());
        let digit = committed.replace("1234", "1235");
        assert_eq!(
            baseline_diff(committed, &digit),
            ["line 3:\n  committed:   \"total_sectors\": 1234\n  fresh:       \"total_sectors\": 1235"]
        );
        let dropped = committed.replace("  \"n\": 65536,\n", "");
        let diff = baseline_diff(committed, &dropped);
        assert!(diff[0].starts_with("line 2:"), "{diff:?}");
        assert!(
            diff.last().unwrap().contains("fresh:     <missing>"),
            "{diff:?}"
        );
    }
}
