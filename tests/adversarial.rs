//! Adversarial-schedule integration tests (ISSUE 5 tentpole).
//!
//! `Schedule::Adversarial` serializes block execution onto a single
//! cooperative token and lets a seeded policy pick which host worker runs
//! at every `device_*` access, block claim, and spin-poll iteration. These
//! tests drive the full multisplit pipelines under all four policies and
//! assert the invariants the decoupled look-back design promises:
//!
//! * **deadlock freedom** — the `Straggler` policy parks the worker that
//!   claims ticket 0 (the only tile that can publish an INCLUSIVE prefix
//!   without looking back) until every other candidate is stuck in a
//!   look-back spin, and every pipeline still terminates;
//! * **schedule independence** — outputs, launch-label sequences, counted
//!   per-launch stats, and look-back resolve counts are bit-identical to a
//!   sequential run (walk depths and spin-poll counts legitimately differ);
//! * **determinism** — the same seed replays the same execution exactly.

use multisplit::{
    multisplit_device, multisplit_kv_ref, with_telemetry, Method, RangeBuckets, Telemetry,
};
use simt::{AdvFlavor, AdvSchedule, BlockStats, Device, GlobalBuffer, K40C};

/// One run's schedule-independent fingerprint: outputs plus, per launch,
/// the label, counted stats, and look-back resolve count.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    keys: Vec<u32>,
    values: Option<Vec<u32>>,
    offsets: Vec<u32>,
    launches: Vec<(String, BlockStats, u64)>,
}

fn run_fingerprint(dev: &Device, method: Method, keys: &[u32], kv: bool, m: u32) -> Fingerprint {
    let bucket = RangeBuckets::new(m);
    let kbuf = GlobalBuffer::from_slice(keys);
    let vals: Vec<u32> = (0..keys.len() as u32).collect();
    let vbuf = GlobalBuffer::from_slice(&vals);
    let r = multisplit_device(
        dev,
        method,
        &kbuf,
        kv.then_some(&vbuf),
        keys.len(),
        &bucket,
        8,
    );
    let launches = dev
        .records()
        .iter()
        .map(|rec| {
            // The depth histogram's bucket counts are schedule-dependent,
            // but its total must equal the resolve count on every record.
            assert_eq!(
                rec.obs.depth_hist_total(),
                rec.obs.lookback_resolves,
                "{}: depth histogram does not sum to the resolve count",
                rec.label
            );
            (rec.label.clone(), rec.stats, rec.obs.lookback_resolves)
        })
        .collect();
    Fingerprint {
        keys: r.keys.to_vec(),
        values: r.values.map(|v| v.to_vec()),
        offsets: r.offsets,
        launches,
    }
}

fn gen_keys(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = msrng::SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.next_u32()).collect()
}

/// The acceptance-criteria straggler test, single look-back row: a chained
/// scan (rows = 1) where the tile-0 publisher is parked until every other
/// block sits in its look-back spin, for several sizes including a
/// many-tile grid. Termination here IS the deadlock-freedom proof: with
/// tile 0 parked, no predecessor chain can resolve to INCLUSIVE until the
/// scheduler's release condition (all candidates spinning) fires.
#[test]
fn straggler_scan_terminates_and_matches_sequential() {
    for n in [1usize << 12, 1 << 15] {
        let vals: Vec<u32> = gen_keys(n, 0xAD01).iter().map(|k| k % 1000).collect();
        let mut outputs = Vec::new();
        for dev in [
            Device::sequential(K40C),
            Device::adversarial(K40C, AdvSchedule::with_flavor(0xFEED, AdvFlavor::Straggler)),
        ] {
            let input = GlobalBuffer::from_slice(&vals);
            let output = GlobalBuffer::<u32>::zeroed(n);
            let total = primitives::exclusive_scan_u32(&dev, "adv", &input, &output, n, 8);
            let resolves: u64 = dev.records().iter().map(|r| r.obs.lookback_resolves).sum();
            outputs.push((output.to_vec(), total, resolves));
        }
        assert_eq!(
            outputs[0], outputs[1],
            "n={n}: straggler-scheduled chained scan diverges from sequential"
        );
    }
}

/// The same parking schedule against the multi-row look-back
/// (`resolve_rows`): the fused path at m = 64 publishes and walks two 32-row
/// groups per tile, and the whole pipeline must still terminate with a
/// bit-identical fingerprint.
#[test]
fn straggler_multi_row_lookback_terminates_and_matches_sequential() {
    let keys = gen_keys(6000, 0xAD02);
    for kv in [false, true] {
        let seq = run_fingerprint(&Device::sequential(K40C), Method::Fused, &keys, kv, 64);
        let adv = run_fingerprint(
            &Device::adversarial(K40C, AdvSchedule::with_flavor(0xBEEF, AdvFlavor::Straggler)),
            Method::Fused,
            &keys,
            kv,
            64,
        );
        assert_eq!(seq, adv, "kv={kv}: multi-row straggler run diverges");
        let vals: Vec<u32> = (0..6000).collect();
        let (ek, ev, eo) =
            multisplit_kv_ref(&keys, kv.then_some(&vals[..]), &RangeBuckets::new(64));
        assert_eq!(adv.keys, ek, "kv={kv}");
        assert_eq!(adv.offsets, eo, "kv={kv}");
        if kv {
            assert_eq!(adv.values.as_deref(), Some(&ev[..]), "kv={kv}");
        }
    }
}

/// The fused sweep chains per-tile m-vector histograms through the
/// look-back, so the Straggler policy parking the tile-0 publisher stalls
/// every later tile's walk. Termination plus a bit-identical fingerprint
/// is the deadlock-freedom proof for the histogram walk, across both a
/// full row group (m = 32) and a ragged one (m = 13), on a multi-tile
/// input.
#[test]
fn straggler_fused_histograms_terminate_and_match_sequential() {
    let keys = gen_keys(6000, 0xAD07);
    for (kv, m) in [(false, 32u32), (true, 32), (false, 13)] {
        let seq = run_fingerprint(&Device::sequential(K40C), Method::Fused, &keys, kv, m);
        let adv = run_fingerprint(
            &Device::adversarial(K40C, AdvSchedule::with_flavor(0xFACE, AdvFlavor::Straggler)),
            Method::Fused,
            &keys,
            kv,
            m,
        );
        assert_eq!(seq, adv, "kv={kv} m={m}: straggler fused run diverges");
        let vals: Vec<u32> = (0..6000).collect();
        let (ek, ev, eo) = multisplit_kv_ref(&keys, kv.then_some(&vals[..]), &RangeBuckets::new(m));
        assert_eq!(adv.keys, ek, "kv={kv} m={m}");
        assert_eq!(adv.offsets, eo, "kv={kv} m={m}");
        if kv {
            assert_eq!(adv.values.as_deref(), Some(&ev[..]), "kv={kv} m={m}");
        }
    }
}

/// Every method under every adversarial flavor agrees with the sequential
/// device and the CPU reference — outputs, label sequences, counted
/// per-launch stats, and look-back resolve counts.
#[test]
fn all_methods_agree_with_sequential_under_every_flavor() {
    let keys = gen_keys(5000, 0xAD03);
    for (method, m) in [
        (Method::Direct, 13u32),
        (Method::WarpLevel, 13),
        (Method::BlockLevel, 13),
        (Method::LargeM, 64),
        (Method::Fused, 13),
        (Method::Fused, 64),
    ] {
        let seq = run_fingerprint(&Device::sequential(K40C), method, &keys, false, m);
        let (ek, _, eo) = multisplit_kv_ref(&keys, None, &RangeBuckets::new(m));
        assert_eq!(seq.keys, ek, "{method:?} sequential vs reference");
        assert_eq!(seq.offsets, eo, "{method:?}");
        for flavor in AdvFlavor::ALL {
            let adv = run_fingerprint(
                &Device::adversarial(K40C, AdvSchedule::with_flavor(0x5EED_0001, flavor)),
                method,
                &keys,
                false,
                m,
            );
            assert_eq!(
                seq,
                adv,
                "{method:?} under {} diverges from sequential",
                flavor.name()
            );
        }
    }
}

/// The adversarial executor is a deterministic function of the seed: two
/// runs with the same `AdvSchedule` replay the same interleaving, down to
/// the schedule-dependent counters (spin polls, depth histograms).
#[test]
fn same_seed_replays_identically() {
    let keys = gen_keys(5000, 0xAD04);
    let dump = || {
        let dev = Device::adversarial(K40C, AdvSchedule::from_seed(0xD5EED));
        let fp = run_fingerprint(&dev, Method::Fused, &keys, true, 29);
        let nondet: Vec<(u64, [u64; 16])> = dev
            .records()
            .iter()
            .map(|r| (r.obs.spin_polls, r.obs.lookback_depth_hist))
            .collect();
        (fp, nondet)
    };
    assert_eq!(dump(), dump(), "same seed must replay bit-identically");
}

/// Different seeds pick different flavors; `from_seed` cycles through all
/// four, and each still matches the reference (spot-check of the seeded
/// constructor the fuzz harness uses).
#[test]
fn seeded_schedules_stay_correct() {
    let keys = gen_keys(3000, 0xAD05);
    let (ek, _, eo) = multisplit_kv_ref(&keys, None, &RangeBuckets::new(8));
    for seed in 0..4u64 {
        let dev = Device::adversarial(K40C, AdvSchedule::from_seed(0x1000 + seed));
        let fp = run_fingerprint(&dev, Method::WarpLevel, &keys, false, 8);
        assert_eq!(fp.keys, ek, "seed {seed}");
        assert_eq!(fp.offsets, eo, "seed {seed}");
    }
}

/// Per-block telemetry under the adversarial executor stays id-indexed
/// (block b's counters land in slot b no matter which worker ran it), so
/// sorted per-block multisets match the sequential run's.
#[test]
fn per_block_telemetry_is_schedule_independent_up_to_block_order() {
    let keys = gen_keys(6000, 0xAD06);
    let collect = |dev: Device| {
        with_telemetry(Telemetry::PerBlock, || {
            let _ = run_fingerprint(&dev, Method::BlockLevel, &keys, false, 16);
            dev.records()
                .iter()
                .map(|r| {
                    let mut pb = r.per_block.clone().expect("PerBlock telemetry on");
                    pb.sort_by_key(|s| format!("{s:?}"));
                    (r.label.clone(), pb)
                })
                .collect::<Vec<_>>()
        })
    };
    let seq = collect(Device::sequential(K40C));
    let adv = collect(Device::adversarial(
        K40C,
        AdvSchedule::with_flavor(0xAB5EED, AdvFlavor::BoundedPreempt),
    ));
    assert_eq!(seq, adv);
}

/// The panic payload of a watchdog abort: its diagnosis string.
fn diagnosis(payload: Box<dyn std::any::Any + Send>) -> Option<String> {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
}

/// A *real* livelock — tile 1's publish suppressed via
/// `SegmentedTileStates::inject_publish_stall`, on the one-segment state
/// the chained scan and every standalone sweep run — must terminate
/// through the stall watchdog with a structured diagnosis naming the
/// blocked ticket, instead of hanging the process. The panic payload is
/// the watchdog's diagnosis string: headline plus wait-for-graph snapshot.
#[test]
fn injected_publish_stall_trips_the_watchdog_with_a_diagnosis() {
    let blocks = 8usize;
    let states = primitives::SegmentedTileStates::new(&[(blocks, 1)]);
    states.inject_publish_stall(0, 1);
    let ticket = GlobalBuffer::<u32>::zeroed(1);
    let dev = Device::adversarial(
        K40C,
        AdvSchedule::with_flavor(0x57A11, AdvFlavor::Random).with_spin_budget(5_000),
    );
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        dev.launch("stall/kernel", blocks, 1, |blk| {
            for w in blk.warps() {
                let t = w.device_fetch_add(&ticket, 0, 1) as usize;
                let _ = states.resolve_rows(&w, 0, t, &[1]);
            }
        });
    }))
    .expect_err("an unpublishable predecessor must abort, not hang");
    let msg = diagnosis(payload).expect("watchdog panics carry a String diagnosis");
    assert!(
        msg.contains("stall watchdog"),
        "diagnosis must identify the watchdog: {msg}"
    );
    assert!(
        msg.contains("waiting on ticket 1"),
        "diagnosis must name the blocked ticket: {msg}"
    );
    assert!(
        msg.contains("EMPTY (never published)"),
        "diagnosis must report the last word the waiter saw: {msg}"
    );
    assert!(
        msg.contains("wait-for graph"),
        "diagnosis must include the wait-for-graph snapshot: {msg}"
    );
}

/// The same injected fault on every other flavor (and several seeds) still
/// terminates via the watchdog — no flavor's release heuristic can save a
/// predecessor that never publishes, and none may hang.
#[test]
fn injected_stall_terminates_under_every_flavor() {
    for flavor in [
        AdvFlavor::Random,
        AdvFlavor::ReverseTicket,
        AdvFlavor::Straggler,
        AdvFlavor::BoundedPreempt,
    ] {
        let blocks = 4usize;
        let states = primitives::SegmentedTileStates::new(&[(blocks, 1)]);
        states.inject_publish_stall(0, 0);
        let ticket = GlobalBuffer::<u32>::zeroed(1);
        let dev = Device::adversarial(
            K40C,
            AdvSchedule::with_flavor(0xD06, flavor).with_spin_budget(2_000),
        );
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.launch("stall/flavors", blocks, 1, |blk| {
                for w in blk.warps() {
                    let t = w.device_fetch_add(&ticket, 0, 1) as usize;
                    let _ = states.resolve_rows(&w, 0, t, &[1]);
                }
            });
        }))
        .expect_err("livelock must abort under every flavor");
        let msg = diagnosis(payload).unwrap_or_default();
        assert!(
            msg.contains("waiting on ticket 0"),
            "{flavor:?}: diagnosis must name ticket 0: {msg}"
        );
    }
}

/// A segmented launch reports *global* tickets to the watchdog: stalling
/// segment 1's local tile 0 leaves segment 1's later tiles waiting on
/// global ticket `tile_base(1)`, and the diagnosis names that ticket, not
/// the segment-local 0. Segment 0 resolves normally.
#[test]
fn injected_stall_in_a_later_segment_names_its_global_ticket() {
    let parts = [(3usize, 2usize), (4, 1)];
    let states = primitives::SegmentedTileStates::new(&parts);
    states.inject_publish_stall(1, 0);
    let stalled = states.tile_base(1);
    assert_eq!(stalled, 3);
    // Global ticket -> (segment, local tile).
    let map: Vec<(usize, usize)> = (0..parts.len())
        .flat_map(|s| (0..states.tiles(s)).map(move |t| (s, t)))
        .collect();
    let ticket = GlobalBuffer::<u32>::zeroed(1);
    let dev = Device::adversarial(
        K40C,
        AdvSchedule::with_flavor(0x5E61, AdvFlavor::Random).with_spin_budget(5_000),
    );
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        dev.launch("stall/segmented", states.total_tiles(), 1, |blk| {
            let w = blk.warp(0);
            let (s, t) = map[w.device_fetch_add(&ticket, 0, 1) as usize];
            let _ = states.resolve_rows(&w, s, t, &vec![1; states.rows(s)]);
        });
    }))
    .expect_err("an unpublishable predecessor must abort, not hang");
    let msg = diagnosis(payload).expect("watchdog panics carry a String diagnosis");
    assert!(
        msg.contains(&format!("waiting on ticket {stalled}")),
        "diagnosis must name the stalled tile's global ticket: {msg}"
    );
    assert!(
        msg.contains("EMPTY (never published)"),
        "diagnosis must report the last word the waiter saw: {msg}"
    );
}

// ================= cross-stream deadlock freedom (ISSUE 10) =================

/// Straggler across streams: stream 0's ticket-0 claimant is parked the
/// moment it claims its ticket, while stream 1 sits in an `Event` wait
/// that only stream 0 can satisfy. The event wait counts as "stuck
/// spinning" for the straggler release, so the parked publisher is the
/// only way forward and gets released — the session terminates with both
/// scans matching the CPU reference. Hanging here would mean the release
/// heuristic can't see cross-stream event waits.
#[test]
fn straggler_parks_one_stream_while_another_waits_on_an_event() {
    use simt::{Event, Stream};
    let n = 1usize << 12;
    let vals: Vec<u32> = gen_keys(n, 0xAD10).iter().map(|k| k % 1000).collect();
    // CPU reference: scan, then scan-of-scan.
    let scan_ref = |xs: &[u32]| -> (Vec<u32>, u32) {
        let mut out = Vec::with_capacity(xs.len());
        let mut acc = 0u32;
        for &x in xs {
            out.push(acc);
            acc = acc.wrapping_add(x);
        }
        (out, acc)
    };
    let (first_ref, first_total) = scan_ref(&vals);
    let (second_ref, second_total) = scan_ref(&first_ref);

    let dev = Device::adversarial(K40C, AdvSchedule::with_flavor(0xAD11, AdvFlavor::Straggler));
    let input = GlobalBuffer::from_slice(&vals);
    let mid = GlobalBuffer::<u32>::zeroed(n);
    let out = GlobalBuffer::<u32>::zeroed(n);
    let ready = Event::new();
    let totals = dev.concurrent(vec![
        Box::new(|s: &Stream| {
            let t = s.run(|| primitives::exclusive_scan_u32(&dev, "s0", &input, &mid, n, 8));
            s.record(&ready);
            t
        }),
        Box::new(|s: &Stream| {
            s.wait(&ready);
            s.run(|| primitives::exclusive_scan_u32(&dev, "s1", &mid, &out, n, 8))
        }),
    ]);
    assert_eq!(totals, vec![first_total, second_total]);
    assert_eq!(mid.to_vec(), first_ref, "stream 0 scan diverges");
    assert_eq!(out.to_vec(), second_ref, "stream 1 scan-of-scan diverges");
}

/// The negative case: a stream waits on an event nobody ever records.
/// The stall watchdog must abort the session (not hang) with a dump that
/// names the blocked **stream** and the worker's ticket state, plus the
/// wait-for-graph snapshot with per-stream attribution.
#[test]
fn unrecorded_event_wait_trips_watchdog_naming_the_stream() {
    use simt::{Event, Stream};
    let dev = Device::adversarial(
        K40C,
        AdvSchedule::with_flavor(0xAD12, AdvFlavor::Random).with_spin_budget(2_000),
    );
    let never = Event::new();
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        dev.concurrent(vec![
            Box::new(|s: &Stream| {
                s.run(|| {
                    dev.launch("orphan/work", 2, 1, |_blk| {});
                })
            }),
            Box::new(|s: &Stream| {
                s.wait(&never);
            }),
        ]);
    }))
    .expect_err("an event nobody records must abort via the watchdog, not hang");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .expect("watchdog panics carry a String diagnosis");
    assert!(
        msg.contains("event wait stall watchdog"),
        "diagnosis must identify the event-wait watchdog: {msg}"
    );
    assert!(
        msg.contains("stream 1"),
        "diagnosis must name the blocked stream: {msg}"
    );
    assert!(
        msg.contains("waiting on an event that was never recorded"),
        "diagnosis must say what the worker is stuck on: {msg}"
    );
    assert!(
        msg.contains("wait-for graph"),
        "diagnosis must include the wait-for-graph snapshot: {msg}"
    );
    assert!(
        msg.contains("ticket"),
        "diagnosis must report the worker's ticket state: {msg}"
    );
}

/// Every adversarial flavor drives the event-ordered two-stream scan
/// pipeline to the same outputs (deadlock freedom + schedule
/// independence for the cross-stream wait path, not just Straggler).
#[test]
fn event_ordered_streams_terminate_under_every_flavor() {
    use simt::{Event, Stream};
    let n = 1usize << 10;
    let vals: Vec<u32> = gen_keys(n, 0xAD13).iter().map(|k| k % 100).collect();
    let mut expected = None;
    for flavor in AdvFlavor::ALL {
        let dev = Device::adversarial(K40C, AdvSchedule::with_flavor(0xAD14, flavor));
        let input = GlobalBuffer::from_slice(&vals);
        let mid = GlobalBuffer::<u32>::zeroed(n);
        let out = GlobalBuffer::<u32>::zeroed(n);
        let ready = Event::new();
        let totals = dev.concurrent(vec![
            Box::new(|s: &Stream| {
                let t = s.run(|| primitives::exclusive_scan_u32(&dev, "f0", &input, &mid, n, 8));
                s.record(&ready);
                t
            }),
            Box::new(|s: &Stream| {
                s.wait(&ready);
                s.run(|| primitives::exclusive_scan_u32(&dev, "f1", &mid, &out, n, 8))
            }),
        ]);
        let got = (totals, mid.to_vec(), out.to_vec());
        match &expected {
            None => expected = Some(got),
            Some(e) => assert_eq!(e, &got, "{}: event-ordered run diverges", flavor.name()),
        }
    }
}
