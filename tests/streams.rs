//! Stream-runtime integration tests.
//!
//! `Device::concurrent` gives one device a session of independent
//! launch queues whose grids overlap in the performance model; streams
//! of one session are unordered against each other, and the join is the
//! only cross-stream ordering. These tests drive real multisplit
//! pipelines across streams and assert the contract:
//!
//! * **overlap** — two independent multisplit runs on separate streams
//!   have a modeled makespan strictly below the serialized sum, while
//!   the outputs stay bit-identical to running them one after another;
//! * **schedule independence** — the same two-stream workload produces
//!   identical outputs and per-stream launch logs under the sequential,
//!   parallel, and all four adversarial session executors;
//! * **race-detector precision** — a cross-stream same-buffer hazard
//!   panics naming the exact `(stream, launch, block)` on both sides,
//!   while disjoint-buffer overlap, same-stream pipelines, and host
//!   access after the join stay silent (a per-launch-epoch scheme alone
//!   has no notion of concurrency: it would either miss these races
//!   entirely or need a blanket cross-epoch rule that flags every
//!   legitimate overlap).

use multisplit::{multisplit_device, multisplit_kv_ref, Method, RangeBuckets};
use simt::{
    lanes_from_fn, splat, AdvFlavor, AdvSchedule, BlockStats, Device, GlobalBuffer, Stream,
    FULL_MASK, HOST_STREAM, K40C,
};

fn gen_keys(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = msrng::SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.next_u32()).collect()
}

/// Run one key-only multisplit on the calling thread's current stream
/// context and return `(keys, offsets)`.
fn run_ms(dev: &Device, keys: &[u32], m: u32) -> (Vec<u32>, Vec<u32>) {
    let buf = GlobalBuffer::from_slice(keys);
    let r = multisplit_device(
        dev,
        Method::Fused,
        &buf,
        multisplit::no_values(),
        keys.len(),
        &RangeBuckets::new(m),
        8,
    );
    (r.keys.to_vec(), r.offsets)
}

/// Deterministic per-stream view of the launch log: records sorted by
/// `(stream, stream_seq)` — push order across streams is not stable.
fn stream_log(dev: &Device) -> Vec<(u32, u32, String, BlockStats, u64)> {
    let mut log: Vec<_> = dev
        .records()
        .iter()
        .map(|r| {
            (
                r.stream,
                r.stream_seq,
                r.label.clone(),
                r.stats,
                r.obs.lookback_resolves,
            )
        })
        .collect();
    log.sort_by_key(|e| (e.0, e.1));
    log
}

/// Tentpole acceptance: two independent multisplit launches on separate
/// streams of one device overlap — modeled makespan strictly less than
/// the serialized sum — and the outputs are bit-identical to sequential
/// execution.
#[test]
fn two_streams_overlap_and_match_serialized_outputs() {
    let keys_a = gen_keys(4096, 0x10A);
    let keys_b = gen_keys(4096, 0x10B);

    // Serialized reference: same work, one launch after another.
    let seq = Device::sequential(K40C);
    let ref_a = run_ms(&seq, &keys_a, 13);
    let ref_b = run_ms(&seq, &keys_b, 13);
    let serialized = seq.total_seconds();
    assert!(
        (seq.makespan() - serialized).abs() < 1e-15,
        "a device that never used streams overlaps nothing"
    );

    // The same two pipelines as concurrent stream tasks.
    let dev = Device::new(K40C);
    let results = dev.concurrent(vec![
        Box::new(|_: &Stream| run_ms(&dev, &keys_a, 13)),
        Box::new(|_: &Stream| run_ms(&dev, &keys_b, 13)),
    ]);
    assert_eq!(results[0], ref_a, "stream 0 output diverges from serial");
    assert_eq!(results[1], ref_b, "stream 1 output diverges from serial");

    let total = dev.total_seconds();
    assert!(
        (total - serialized).abs() < 1e-12,
        "same launches, same serialized sum: {total} vs {serialized}"
    );
    let makespan = dev.makespan();
    assert!(
        makespan < total * 0.999,
        "two independent streams must overlap: makespan {makespan} vs serialized {total}"
    );
    let util = dev.utilization();
    assert!(
        util > 0.0 && util <= 1.0 + 1e-9,
        "utilization is busy/makespan in (0, 1]: {util}"
    );

    // Every launch carries its stream attribution.
    let log = stream_log(&dev);
    assert!(log.iter().all(|e| e.0 == 0 || e.0 == 1));
    for stream in [0, 1] {
        let seqs: Vec<u32> = log.iter().filter(|e| e.0 == stream).map(|e| e.1).collect();
        let expect: Vec<u32> = (0..seqs.len() as u32).collect();
        assert_eq!(seqs, expect, "stream {stream} launch clock is FIFO-dense");
    }
}

/// The same two-stream workload under every session executor — outputs
/// and per-stream launch logs bit-identical to the sequential session
/// (which runs stream 0's task to completion before stream 1's).
#[test]
fn concurrent_streams_agree_across_all_schedulers() {
    let keys_a = gen_keys(3000, 0x20A);
    let keys_b = gen_keys(3000, 0x20B);
    let run = |dev: Device| {
        let results = dev.concurrent(vec![
            Box::new(|_: &Stream| run_ms(&dev, &keys_a, 29)),
            Box::new(|_: &Stream| run_ms(&dev, &keys_b, 29)),
        ]);
        (results, stream_log(&dev))
    };
    let reference = run(Device::sequential(K40C));
    let (ek_a, _, eo_a) = multisplit_kv_ref(&keys_a, None, &RangeBuckets::new(29));
    assert_eq!(reference.0[0].0, ek_a, "stream 0 vs CPU reference");
    assert_eq!(reference.0[0].1, eo_a);

    let mut devices = vec![Device::new(K40C)];
    for flavor in AdvFlavor::ALL {
        devices.push(Device::adversarial(
            K40C,
            AdvSchedule::with_flavor(0x5EED_0010, flavor),
        ));
    }
    for dev in devices {
        let name = format!("{:?}", dev.schedule());
        let got = run(dev);
        assert_eq!(got, reference, "{name}: two-stream run diverges");
    }
}

/// Host-lane launches (no streams anywhere) keep the exact pre-stream
/// semantics: records carry `HOST_STREAM`, and the makespan model
/// serializes them so `makespan == total_seconds` to the bit.
#[test]
fn host_lane_devices_never_overlap() {
    let keys = gen_keys(2000, 0x30A);
    let dev = Device::new(K40C);
    let _ = run_ms(&dev, &keys, 13);
    let _ = run_ms(&dev, &keys, 13);
    assert!(dev.records().iter().all(|r| r.stream == HOST_STREAM));
    assert!(
        (dev.makespan() - dev.total_seconds()).abs() < 1e-15,
        "host lane is FIFO: {} vs {}",
        dev.makespan(),
        dev.total_seconds()
    );
}

// ===================== race-detector precision (satellite) =====================

/// A read of the write of another stream of the same session is a race,
/// and the versioned-clock detector reports it even though the
/// sequential session happened to serialize the two launches perfectly —
/// the *ordering metadata* (two streams of one session) is what's
/// checked, not the lucky interleaving the executor produced.
#[test]
#[should_panic(expected = "race detector: cross-stream read-after-write hazard")]
fn cross_stream_read_after_write_panics() {
    let dev = Device::sequential(K40C);
    let buf = GlobalBuffer::<u32>::zeroed(64).tracked();
    dev.concurrent(vec![
        Box::new(|_: &Stream| {
            dev.launch("hazard/writer", 1, 1, |blk| {
                for w in blk.warps() {
                    w.scatter(&buf, lanes_from_fn(|l| l), splat(7), FULL_MASK);
                }
            });
        }),
        Box::new(|_: &Stream| {
            dev.launch("hazard/reader", 1, 1, |blk| {
                for w in blk.warps() {
                    let _ = w.gather(&buf, lanes_from_fn(|l| l), FULL_MASK);
                }
            });
        }),
    ]);
}

/// A cross-stream write over another stream's *read* (anti-dependence) is
/// equally racy: the versioned read clocks catch it.
#[test]
#[should_panic(expected = "race detector: cross-stream write-after-read hazard")]
fn cross_stream_write_after_read_panics() {
    let dev = Device::sequential(K40C);
    let buf = GlobalBuffer::<u32>::zeroed(64).tracked();
    dev.concurrent(vec![
        Box::new(|_: &Stream| {
            dev.launch("anti/reader", 1, 1, |blk| {
                for w in blk.warps() {
                    let _ = w.gather(&buf, lanes_from_fn(|l| l), FULL_MASK);
                }
            });
        }),
        Box::new(|_: &Stream| {
            dev.launch("anti/writer", 1, 1, |blk| {
                for w in blk.warps() {
                    w.scatter(&buf, lanes_from_fn(|l| l), splat(9), FULL_MASK);
                }
            });
        }),
    ]);
}

/// The hazard report names the exact `(stream, launch, block)` pair on
/// both sides — the acceptance-criteria precision requirement.
#[test]
fn hazard_report_names_stream_launch_and_block() {
    let dev = Device::sequential(K40C);
    let buf = GlobalBuffer::<u32>::zeroed(64).tracked();
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        dev.concurrent(vec![
            Box::new(|_: &Stream| {
                dev.launch("name/writer", 1, 1, |blk| {
                    for w in blk.warps() {
                        w.scatter(&buf, lanes_from_fn(|l| l), splat(1), FULL_MASK);
                    }
                });
            }),
            Box::new(|_: &Stream| {
                // Second launch on stream 1 so the report's launch
                // numbers differ between the two sides.
                dev.launch("name/warmup", 1, 1, |_blk| {});
                dev.launch("name/reader", 1, 1, |blk| {
                    for w in blk.warps() {
                        let _ = w.gather(&buf, lanes_from_fn(|l| l), FULL_MASK);
                    }
                });
            }),
        ]);
    }))
    .expect_err("unsynchronized cross-stream read must panic");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .expect("detector panics carry a String");
    assert!(
        msg.contains("read by (stream 1, launch 1, block 0)"),
        "must name the reader side exactly: {msg}"
    );
    assert!(
        msg.contains("write by (stream 0, launch 0, block 0)"),
        "must name the writer side exactly: {msg}"
    );
    assert!(
        msg.contains("streams of one concurrent session are unordered"),
        "must tell the user the fix: {msg}"
    );
}

/// False-positive regression: overlapping launches on **disjoint**
/// tracked buffers must stay silent under every session executor. A
/// naive cross-epoch rule (flag any access to data marked by a different
/// in-flight epoch, the only concurrency story the per-launch-epoch
/// scheme could offer) has no way to express "these two launches were
/// never ordered *and never needed to be*"; the versioned clocks do.
#[test]
fn disjoint_buffer_overlap_is_silent_under_every_executor() {
    let mut devices = vec![Device::sequential(K40C), Device::new(K40C)];
    for flavor in AdvFlavor::ALL {
        devices.push(Device::adversarial(
            K40C,
            AdvSchedule::with_flavor(0xD15, flavor),
        ));
    }
    for dev in devices {
        let a = GlobalBuffer::<u32>::zeroed(256).tracked();
        let b = GlobalBuffer::<u32>::zeroed(256).tracked();
        let task = |buf: &GlobalBuffer<u32>, tag: u32| {
            // Write then read back the same tracked buffer across two
            // launches of one stream: cross-epoch but same stream, which
            // the detector must treat as FIFO-ordered.
            dev.launch("disjoint/write", 2, 1, |blk| {
                for w in blk.warps() {
                    let base = blk.block_id * 32;
                    w.scatter(buf, lanes_from_fn(|l| base + l), splat(tag), FULL_MASK);
                }
            });
            dev.launch("disjoint/read", 2, 1, |blk| {
                for w in blk.warps() {
                    let base = blk.block_id * 32;
                    let v = w.gather(buf, lanes_from_fn(|l| base + l), FULL_MASK);
                    assert!(v.iter().all(|&x| x == tag));
                }
            });
        };
        dev.concurrent(vec![
            Box::new(|_: &Stream| task(&a, 11)),
            Box::new(|_: &Stream| task(&b, 22)),
        ]);
    }
}

/// Host access after the session join is ordered (the join is a full
/// barrier), and so are a *later kernel on the host lane* and a stream
/// of a *later session* reading session data — launch boundaries outside
/// sessions remain true sync points, exactly the pre-stream semantics.
#[test]
fn post_session_host_lane_access_is_ordered() {
    let dev = Device::sequential(K40C);
    let buf = GlobalBuffer::<u32>::zeroed(32).tracked();
    let read = |name: &str| {
        dev.launch(name, 1, 1, |blk| {
            for w in blk.warps() {
                let v = w.gather(&buf, lanes_from_fn(|l| l), FULL_MASK);
                assert!(v.iter().all(|&x| x == 3));
            }
        });
    };
    dev.concurrent(vec![Box::new(|_: &Stream| {
        dev.launch("post/write", 1, 1, |blk| {
            for w in blk.warps() {
                w.scatter(&buf, lanes_from_fn(|l| l), splat(3), FULL_MASK);
            }
        });
    })]);
    // Host read, a host-lane kernel read and a later session: all silent.
    assert_eq!(buf.get(0), 3);
    read("post/read");
    dev.concurrent(vec![Box::new(|_: &Stream| read("post/session"))]);
}
