//! The race detector's guarantees, end to end through `Device` launches.
//!
//! A [tracked](simt::GlobalBuffer::tracked) buffer panics on a double
//! write within one kernel epoch (one launch), on a counted read of
//! another block's same-epoch write, and, inside one
//! `Device::concurrent` session, on any access that overlaps another
//! stream's unsynchronized write or read. The same accesses ordered by
//! one stream's FIFO, or by a session join, stay silent.

use std::panic::{catch_unwind, AssertUnwindSafe};

use simt::{lanes_from_fn, splat, Device, GlobalBuffer, Stream, FULL_MASK, K40C};

/// The panic message of `f`, which must panic.
fn panic_message(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("the access must panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("detector panics carry a message")
}

/// A launch of one block whose warp scatters to the first 32 elements.
fn write_all(dev: &Device, buf: &GlobalBuffer<u32>, label: &str) {
    dev.launch(label, 1, 1, |blk| {
        for w in blk.warps() {
            w.scatter(buf, lanes_from_fn(|l| l), splat(1), FULL_MASK);
        }
    });
}

/// A launch of one block whose warp gathers the first 32 elements.
fn read_all(dev: &Device, buf: &GlobalBuffer<u32>, label: &str) {
    dev.launch(label, 1, 1, |blk| {
        for w in blk.warps() {
            w.gather(buf, lanes_from_fn(|l| l), FULL_MASK);
        }
    });
}

#[test]
fn two_lanes_of_one_request_writing_one_element_panic() {
    let dev = Device::new(K40C);
    let buf = GlobalBuffer::<u32>::zeroed(32).tracked();
    let msg = panic_message(|| {
        dev.launch("lanes", 1, 1, |blk| {
            for w in blk.warps() {
                w.scatter(&buf, lanes_from_fn(|l| l / 2), splat(1), 0b11);
            }
        });
    });
    assert!(msg.contains("element 0 written twice"), "{msg}");
}

/// Blocks 2k and 2k + 1 write the same 32 elements. The parallel device
/// runs neighbouring blocks on different host threads at once, and every
/// run must still catch the double write.
#[test]
fn two_blocks_of_one_launch_writing_one_element_panic_in_every_run() {
    let dev = Device::new(K40C);
    for run in 0..20 {
        let buf = GlobalBuffer::<u32>::zeroed(32 * 32).tracked();
        let msg = panic_message(|| {
            dev.launch("blocks", 64, 1, |blk| {
                for w in blk.warps() {
                    let base = blk.block_id / 2 * 32;
                    w.scatter(&buf, lanes_from_fn(|l| base + l), splat(1), FULL_MASK);
                }
            });
        });
        assert!(
            msg.contains("written twice within one kernel epoch"),
            "run {run}: {msg}"
        );
    }
}

#[test]
fn same_epoch_cross_block_read_panics() {
    // Sequential, so block 0 writes before block 1 reads.
    let dev = Device::sequential(K40C);
    let buf = GlobalBuffer::<u32>::zeroed(32).tracked();
    let msg = panic_message(|| {
        dev.launch("cross-block", 2, 1, |blk| {
            for w in blk.warps() {
                let idx = lanes_from_fn(|l| l);
                match blk.block_id {
                    0 => w.scatter(&buf, idx, splat(1), FULL_MASK),
                    _ => drop(w.gather(&buf, idx, FULL_MASK)),
                }
            }
        });
    });
    assert!(
        msg.contains("read by block 1 but written by block 0 within the same kernel epoch"),
        "{msg}"
    );
}

#[test]
fn cross_stream_write_after_write_panics() {
    let dev = Device::sequential(K40C);
    let buf = GlobalBuffer::<u32>::zeroed(32).tracked();
    let msg = panic_message(|| {
        dev.concurrent(vec![
            Box::new(|_: &Stream| write_all(&dev, &buf, "waw/first")),
            Box::new(|_: &Stream| write_all(&dev, &buf, "waw/second")),
        ]);
    });
    assert!(
        msg.contains("cross-stream write-after-write hazard on element 0"),
        "{msg}"
    );
}

#[test]
fn cross_stream_write_after_read_panics() {
    let dev = Device::sequential(K40C);
    let buf = GlobalBuffer::<u32>::zeroed(32).tracked();
    let msg = panic_message(|| {
        dev.concurrent(vec![
            Box::new(|_: &Stream| read_all(&dev, &buf, "war/read")),
            Box::new(|_: &Stream| write_all(&dev, &buf, "war/write")),
        ]);
    });
    assert!(
        msg.contains("cross-stream write-after-read hazard on element 0"),
        "{msg}"
    );
}

#[test]
fn one_streams_accesses_are_ordered() {
    let dev = Device::new(K40C);
    let buf = GlobalBuffer::<u32>::zeroed(32).tracked();
    dev.concurrent(vec![Box::new(|_: &Stream| {
        write_all(&dev, &buf, "fifo/write");
        write_all(&dev, &buf, "fifo/rewrite");
        read_all(&dev, &buf, "fifo/read");
        write_all(&dev, &buf, "fifo/overwrite");
    })]);
}

#[test]
fn accesses_in_two_sessions_are_ordered() {
    let dev = Device::new(K40C);
    let buf = GlobalBuffer::<u32>::zeroed(32).tracked();
    dev.concurrent(vec![Box::new(|_: &Stream| {
        write_all(&dev, &buf, "s1/write")
    })]);
    dev.concurrent(vec![Box::new(|_: &Stream| {
        write_all(&dev, &buf, "s2/write")
    })]);
    dev.concurrent(vec![Box::new(|_: &Stream| read_all(&dev, &buf, "s3/read"))]);
    dev.concurrent(vec![Box::new(|_: &Stream| {
        write_all(&dev, &buf, "s4/write")
    })]);
}
