//! Cross-crate observability integration: per-block telemetry, look-back
//! introspection and structured JSON export, exercised end to end through
//! the public `multisplit` API and the bench harness.

use msbench::metrics::{profile_data, PROFILE_CONTENDERS, PROFILE_SEED};
use msbench::{run_contender, Run};
use multisplit::{multisplit_device, no_values, Method, RangeBuckets};
use simt::{
    chrome_trace_json, launch_report, BlockStats, Device, GlobalBuffer, Json, LaunchRecord,
    ObsStats, K40C,
};

fn keys_for(n: usize, seed: u32) -> Vec<u32> {
    (0..n as u32)
        .map(|i| i.wrapping_mul(2654435761).wrapping_add(seed * 97))
        .collect()
}

/// Run one multisplit method and hand back the device's launch log.
fn run_with(dev: &Device, method: Method, keys_host: &[u32], m: u32) -> Vec<LaunchRecord> {
    let keys = GlobalBuffer::from_slice(keys_host);
    let bucket = RangeBuckets::new(m);
    multisplit_device(dev, method, &keys, no_values(), keys_host.len(), &bucket, 8);
    dev.records()
}

fn summed_stats(records: &[LaunchRecord]) -> BlockStats {
    records.iter().fold(BlockStats::default(), |mut a, r| {
        a += r.stats;
        a
    })
}

fn summed_obs(records: &[LaunchRecord]) -> ObsStats {
    records.iter().fold(ObsStats::default(), |mut a, r| {
        a += r.obs;
        a
    })
}

/// A total order over every counted field, for schedule-independent
/// comparison of per-block vectors.
#[allow(clippy::type_complexity)]
fn stats_key(b: &BlockStats) -> (u64, u64, u64, u64, u64, u64, u64, u64, u64, u64, u64, u64) {
    (
        b.sectors,
        b.useful_bytes,
        b.global_requests,
        b.replays,
        b.atomic_ops,
        b.atomic_conflicts,
        b.smem_ops,
        b.smem_bank_conflicts,
        b.intrinsics,
        b.lane_ops,
        b.barriers,
        b.divergent_iters,
    )
}

#[test]
fn per_block_stats_are_schedule_independent() {
    let n = 100_000;
    let keys_host = keys_for(n, 3);
    for (method, m) in [
        (Method::BlockLevel, 32),
        (Method::Fused, 32),
        (Method::Fused, 64),
    ] {
        let mut per_dev: Vec<(BlockStats, Vec<Vec<BlockStats>>)> = Vec::new();
        for dev in [Device::new(K40C), Device::sequential(K40C)] {
            let records = run_with(&dev, method, &keys_host, m);
            let mut per_block: Vec<Vec<BlockStats>> = Vec::new();
            for rec in &records {
                let blocks = rec.per_block.clone();
                // The retained vector is indexed by block id, so the sum
                // must reproduce the launch's counted stats exactly.
                assert_eq!(rec.stats, {
                    blocks.iter().fold(BlockStats::default(), |mut a, b| {
                        a += *b;
                        a
                    })
                });
                let mut sorted = blocks;
                sorted.sort_by_key(stats_key);
                per_block.push(sorted);
            }
            per_dev.push((summed_stats(&records), per_block));
        }
        assert_eq!(
            per_dev[0], per_dev[1],
            "{method:?}: parallel and sequential schedulers must agree on summed \
             stats and on the (sorted) per-block vectors"
        );
    }
}

/// Every launch keeps one per-block entry per block beside its counted
/// stats, and two runs of the same input repeat both exactly.
#[test]
fn telemetry_knob_does_not_change_counted_stats() {
    let n = 65_536;
    let keys_host = keys_for(n, 5);
    let run = || {
        let dev = Device::sequential(K40C);
        run_with(&dev, Method::BlockLevel, &keys_host, 8)
    };
    let (plain, observed) = (run(), run());
    assert_eq!(plain.len(), observed.len());
    for (a, b) in plain.iter().zip(&observed) {
        assert_eq!(a.label, b.label);
        assert_eq!(
            a.stats, b.stats,
            "{}: per-block stats must not change counting",
            a.label
        );
        assert_eq!(a.obs, b.obs);
        assert_eq!(a.seconds, b.seconds);
        assert_eq!(
            a.per_block.len(),
            a.blocks,
            "{}: one entry per block",
            a.label
        );
        assert_eq!(a.per_block, b.per_block);
    }
}

#[test]
fn lookback_totals_are_schedule_independent_end_to_end() {
    let n = 1 << 18;
    let keys_host = keys_for(n, 9);
    // Block-level resolves look-backs in its chained scan; fused in its
    // sweep. Depth *distribution* varies with scheduling, but one resolve
    // fires per tile per 32-row group (one group for m <= 32,
    // ceil(m/32) beyond), so totals must match across
    // schedulers.
    for (method, m) in [
        (Method::BlockLevel, 32),
        (Method::Fused, 32),
        (Method::Fused, 64),
    ] {
        let mut resolves = Vec::new();
        for dev in [Device::new(K40C), Device::sequential(K40C)] {
            let records = run_with(&dev, method, &keys_host, m);
            let obs = summed_obs(&records);
            assert!(obs.lookback_resolves > 0, "{method:?}: look-backs expected");
            assert_eq!(
                obs.depth_hist_total(),
                obs.lookback_resolves,
                "{method:?}: every resolve lands in exactly one histogram bucket"
            );
            resolves.push(obs.lookback_resolves);
        }
        assert_eq!(resolves[0], resolves[1], "{method:?}: resolve totals");
    }
}

#[test]
fn exported_json_round_trips_with_hostile_labels() {
    let n = 8_192;
    let keys_host = keys_for(n, 11);
    let dev = Device::new(K40C);
    let records = dev.with_scope("we\"ird\\scope\t", || {
        run_with(&dev, Method::Fused, &keys_host, 8)
    });
    assert!(records
        .iter()
        .all(|r| r.label.starts_with("we\"ird\\scope\t")));
    // Chrome trace: must parse as real JSON despite quotes, backslashes
    // and control characters in every label.
    let trace = chrome_trace_json(&records);
    Json::parse(&trace).expect("chrome trace must be valid JSON");
    // Metrics export: records, scope tree and derived launch reports all
    // round-trip, and no derived number is NaN or infinite.
    for doc in [
        simt::obs::records_json(&records),
        simt::scope_tree(&records).to_json(),
    ] {
        let text = doc.pretty();
        let reparsed = Json::parse(&text).expect("export must be valid JSON");
        assert_eq!(reparsed.render(), doc.render());
    }
    for rec in &records {
        let report = launch_report(rec, &K40C).expect("per-block stats retained");
        assert!(report.imbalance.is_finite() && report.imbalance >= 1.0);
        let text = report.to_json().pretty();
        Json::parse(&text).expect("launch report must be valid JSON");
    }
}

#[test]
fn profile_sector_totals_match_the_plain_reports() {
    let n = 1 << 14;
    let m = 32;
    // `paper profile` runs on the sequential schedule; the text reports
    // run on the parallel one. Totals and per-stage sector splits must
    // agree exactly.
    let profiles = profile_data(&PROFILE_CONTENDERS, n, m, true);
    for p in &profiles {
        let (c, _) = *PROFILE_CONTENDERS
            .iter()
            .find(|(_, name)| *name == p.name)
            .unwrap();
        let plain = run_contender(&Run {
            seed: PROFILE_SEED,
            verify: false,
            ..Run::new(c, n, m)
        });
        assert_eq!(plain.sectors, p.outcome.sectors, "{}", p.name);
        assert_eq!(plain.total, p.outcome.total, "{}", p.name);
    }
}

// ====================== PR 8: flight recorder ======================

/// Satellite 3: the empty-launch guards. `mean_depth` on a fresh
/// `ObsStats` and `launch_report` on degenerate records must not divide
/// by zero.
#[test]
fn empty_launch_guards_hold() {
    assert_eq!(ObsStats::default().mean_depth(), 0.0);
    let rec = |per_block: Vec<BlockStats>| LaunchRecord {
        label: "empty/launch".into(),
        blocks: 0,
        warps_per_block: 8,
        stats: BlockStats::default(),
        obs: ObsStats::default(),
        per_block,
        flight: None,
        seconds: 0.0,
        stream: simt::HOST_STREAM,
        stream_seq: 0,
    };
    // Zero-block launch: an empty vector, no report rather than a crash.
    assert!(launch_report(&rec(Vec::new()), &K40C).is_none());
    // All-idle blocks: mean estimate may round to zero; imbalance must
    // stay finite (the guard pins it at 1.0, never NaN/inf).
    let idle = rec(vec![BlockStats::default(); 4]);
    if let Some(report) = launch_report(&idle, &K40C) {
        assert!(report.imbalance.is_finite());
        assert!(report.critical_path_seconds.is_finite());
    }
    // flight analysis shares the guards.
    assert!(simt::flight_analyze(&rec(Vec::new()), &K40C).is_none());
}

/// Recorder events ride the uncounted channel: counted stats (and the
/// modeled time derived from them) are bit-identical with the recorder
/// armed at its default capacity and fully disabled.
#[test]
fn recorder_does_not_change_counted_stats() {
    let n = 65_536;
    let keys_host = keys_for(n, 21);
    let on = {
        let dev = Device::sequential(K40C);
        run_with(&dev, Method::Fused, &keys_host, 32)
    };
    let off = simt::with_flight_capacity(0, || {
        let dev = Device::sequential(K40C);
        run_with(&dev, Method::Fused, &keys_host, 32)
    });
    assert_eq!(on.len(), off.len());
    for (a, b) in on.iter().zip(&off) {
        assert_eq!(a.label, b.label);
        assert_eq!(
            a.stats, b.stats,
            "{}: recorder must not change counts",
            a.label
        );
        assert_eq!(a.obs, b.obs);
        assert_eq!(a.seconds, b.seconds);
        assert!(a.flight.is_some(), "{}: recorder on by default", a.label);
        assert!(b.flight.is_none(), "{}: capacity 0 disables", a.label);
    }
}

/// Event *counts* per kind are a deterministic function of the work, not
/// the schedule: sequential, parallel, and all four adversarial flavors
/// agree per launch label.
#[test]
fn event_counts_are_schedule_independent() {
    use simt::{AdvFlavor, AdvSchedule};
    let n = 50_000;
    let keys_host = keys_for(n, 23);
    let counts_for = |dev: &Device| -> Vec<(String, Vec<(&'static str, usize)>)> {
        run_with(dev, Method::Fused, &keys_host, 32)
            .iter()
            .map(|r| {
                (
                    r.label.clone(),
                    r.flight.as_ref().expect("recorder armed").kind_counts(),
                )
            })
            .collect()
    };
    let base = counts_for(&Device::sequential(K40C));
    assert!(
        base.iter().any(|(_, k)| k.iter().any(|&(_, c)| c > 0)),
        "at least one launch must record events"
    );
    let mut others = vec![Device::new(K40C)];
    for flavor in [
        AdvFlavor::Random,
        AdvFlavor::ReverseTicket,
        AdvFlavor::Straggler,
        AdvFlavor::BoundedPreempt,
    ] {
        others.push(Device::adversarial(
            K40C,
            AdvSchedule::with_flavor(0xF11647, flavor),
        ));
    }
    for dev in &others {
        assert_eq!(
            base,
            counts_for(dev),
            "kind counts must not depend on schedule"
        );
    }
}

/// Ring overflow is flagged, never silent: a tiny per-block capacity
/// truncates the stream and says so, and the analysis carries the flag.
#[test]
fn ring_overflow_is_flagged_not_silent() {
    let n = 65_536;
    let keys_host = keys_for(n, 27);
    let records = simt::with_flight_capacity(4, || {
        let dev = Device::sequential(K40C);
        run_with(&dev, Method::Fused, &keys_host, 32)
    });
    let sweep = records
        .iter()
        .find(|r| r.label.ends_with("/sweep"))
        .expect("fused pipeline has a sweep launch");
    let flight = sweep.flight.as_ref().expect("recorder armed");
    assert!(
        flight.truncated(),
        "4-event rings must overflow in the sweep"
    );
    assert!(flight.dropped > 0);
    assert!(
        flight.events.len() <= 4 * sweep.blocks,
        "ring bound is O(capacity) per block"
    );
    let analysis = simt::flight_analyze(sweep, &K40C).expect("analysis available");
    assert!(analysis.truncated, "analysis must surface the truncation");
}

/// Tentpole acceptance, minimal form: on a chained scan (rows = 1) under
/// the sequential schedule no resolve ever spins, so the flight-derived
/// **exact** critical path equals `launch_report`'s modeled estimate
/// exactly — not just within tolerance.
#[test]
fn exact_critical_path_matches_model_on_sequential_chained_scan() {
    let n = 1 << 16;
    let vals: Vec<u32> = keys_for(n, 31).iter().map(|k| k % 911).collect();
    let dev = Device::sequential(K40C);
    let input = GlobalBuffer::from_slice(&vals);
    let output = GlobalBuffer::<u32>::zeroed(n);
    primitives::exclusive_scan_u32(&dev, "flight", &input, &output, n, 8);
    let records = dev.records();
    let scan = records
        .iter()
        .find(|r| r.obs.lookback_resolves > 0)
        .expect("chained scan resolves look-backs");
    let analysis = simt::flight_analyze(scan, &K40C).expect("flight + per-block retained");
    let report = launch_report(scan, &K40C).expect("per-block retained");
    assert!(analysis.tiles > 1, "multi-tile grid expected");
    assert_eq!(analysis.stall_edges, 0, "sequential: no resolve ever spins");
    assert_eq!(
        analysis.critical_path_seconds, analysis.modeled_critical_path_seconds,
        "zero stall edges: exact path must equal the model exactly"
    );
    assert_eq!(analysis.critical_path_seconds, report.critical_path_seconds);
    assert_eq!(analysis.stall_extra_seconds, 0.0);
}

/// ISSUE 8 acceptance: `paper trace`'s headline comparison — sequential
/// Fused at n = 2^20, m = 32 — agrees with the `launch_report` estimate
/// within 1%.
#[test]
fn fused_sweep_critical_path_within_one_percent_at_2_20() {
    let n = 1 << 20;
    let keys_host = keys_for(n, 33);
    let dev = Device::sequential(K40C);
    let records = run_with(&dev, Method::Fused, &keys_host, 32);
    let sweep = records
        .iter()
        .find(|r| r.label.ends_with("/sweep"))
        .expect("fused pipeline has a sweep launch");
    let analysis = simt::flight_analyze(sweep, &K40C).expect("flight + per-block retained");
    let report = launch_report(sweep, &K40C).expect("per-block retained");
    assert!(
        !analysis.truncated,
        "default capacity must hold a 2^20 sweep"
    );
    let delta = (analysis.critical_path_seconds - report.critical_path_seconds).abs()
        / report.critical_path_seconds;
    assert!(
        delta <= 0.01,
        "exact {} vs modeled {}: delta {delta}",
        analysis.critical_path_seconds,
        report.critical_path_seconds
    );
}
