//! Streams, and the versioned-clock side of the race detector.
//!
//! A [`Stream`] is the launch queue of one task of a
//! [`crate::Device::concurrent`] session: launches issued on the same
//! stream execute in FIFO order (the CUDA stream contract), launches on
//! *different* streams of a session are unordered. The simulator runs the
//! grids themselves exactly as before — what streams add is (a)
//! attribution: every launch carries `(stream, stream_seq)`; (b) the
//! modeled-concurrency replay of the launch log from which
//! [`crate::Device::makespan`] computes how long the device would have
//! taken with overlapping grids; and (c) the ordering metadata the race
//! detector needs to tell a cross-stream access from a same-stream one.
//!
//! ## Versioned clocks
//!
//! The per-launch epoch detector in [`crate::memory`] treats every launch
//! boundary as a global synchronization point, which is exactly wrong
//! once two launches can be in flight at once: a launch on stream B
//! reading what a launch on stream A of the same session wrote *is* a
//! race, even though the epochs differ.
//!
//! Every launch inside a session gets a clock value: the pair
//! `(stream, seq)` where `seq` counts launches on that stream. An
//! element's write mark still stores `(epoch, block)`; a registry maps
//! session epochs back to `(session, stream, seq)`. A cross-epoch access
//! is then a hazard iff the marking epoch belongs to the *same session*
//! and a *different stream*. Launches on disjoint buffers never compare
//! marks and stay silent, same-stream reuse is FIFO-ordered and stays
//! silent, and everything else panics naming the exact
//! `(stream, launch, block)` on both sides. A session's epochs leave the
//! registry at its `concurrent()` join, which is a full barrier.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::lanes::WARP_SIZE;
use crate::lock_unpoisoned;
use crate::stats::LaunchRecord;

/// Device-local stream index recorded for launches issued outside any
/// stream context (the "host lane").
pub const HOST_STREAM: u32 = u32::MAX;

// ======================== sessions + epoch-origin registry ========================

/// Process-wide unique concurrency-session ids. Epoch origins from a
/// *different* session are never hazards: sessions on one device are
/// separated by the `concurrent()` join.
static SESSION_IDS: AtomicU64 = AtomicU64::new(1);

/// Where a session epoch came from: which session, which stream
/// (device-local index), and the stream-local launch number.
#[derive(Clone, Copy)]
struct EpochOrigin {
    session: u64,
    stream_ix: u32,
    seq: u32,
}

/// Epoch → origin map for the launches of sessions still running. Epochs
/// of host-lane launches, and of sessions that have joined, are *absent*:
/// their launch boundary or join was a true sync point, so cross-epoch
/// access to their data is ordered.
static EPOCH_ORIGINS: Mutex<BTreeMap<u32, EpochOrigin>> = Mutex::new(BTreeMap::new());

fn lookup_epoch(epoch: u32) -> Option<EpochOrigin> {
    lock_unpoisoned(&EPOCH_ORIGINS).get(&epoch).copied()
}

/// One [`crate::Device::concurrent`] session: a fresh id whose epochs
/// leave the registry when the session is dropped at the join (or while
/// a panic unwinds out of it).
pub(crate) struct Session(u64);

impl Session {
    pub(crate) fn begin() -> Self {
        Self(SESSION_IDS.fetch_add(1, Ordering::Relaxed))
    }

    pub(crate) fn id(&self) -> u64 {
        self.0
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        lock_unpoisoned(&EPOCH_ORIGINS).retain(|_, o| o.session != self.0);
    }
}

// ============================== stream state ===============================

/// Shared state of one stream: identity and launch clock.
pub(crate) struct StreamState {
    /// Device-local index (what records, diagnoses and panics print).
    pub(crate) ix: u32,
    /// Session this stream's launches belong to for hazard purposes.
    session: u64,
    /// Launches issued on this stream so far (the stream's clock).
    seq: AtomicU32,
}

impl StreamState {
    /// Stamp the next launch on this stream: bump the stream clock and
    /// register the launch's epoch in the origin registry. Returns the
    /// launch's `stream_seq`. Called by `Device::launch`.
    pub(crate) fn stamp_launch(&self, epoch: u32) -> u32 {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        let origin = EpochOrigin {
            session: self.session,
            stream_ix: self.ix,
            seq,
        };
        lock_unpoisoned(&EPOCH_ORIGINS).insert(epoch, origin);
        seq
    }
}

/// The launch queue one task of [`crate::Device::concurrent`] receives.
/// Every launch the task issues (on any thread of its launches) is
/// attributed to the stream — the pipeline entry points work unchanged.
pub struct Stream {
    pub(crate) state: Arc<StreamState>,
}

impl Stream {
    pub(crate) fn new(ix: u32, session: u64) -> Self {
        Self {
            state: Arc::new(StreamState {
                ix,
                session,
                seq: AtomicU32::new(0),
            }),
        }
    }

    /// Device-local stream index (deterministic: creation order on the
    /// device).
    pub fn index(&self) -> u32 {
        self.state.ix
    }

    /// How many launches this stream has issued so far. Launch `k` is
    /// launch-log entry `(index(), k)` for `k < launches()` — the key
    /// [`crate::Device::completion_times`] reports modeled finish times
    /// under.
    pub fn launches(&self) -> u32 {
        self.state.seq.load(Ordering::SeqCst)
    }
}

// ======================= thread-local stream context =======================

thread_local! {
    static CURRENT: std::cell::RefCell<Option<Arc<StreamState>>> =
        const { std::cell::RefCell::new(None) };
}

/// RAII stream-context guard; restores the previous context on drop.
pub(crate) struct StreamCtx(Option<Arc<StreamState>>);

impl Drop for StreamCtx {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.0.take());
    }
}

/// Make `state` the current thread's stream.
pub(crate) fn enter_stream(state: Arc<StreamState>) -> StreamCtx {
    StreamCtx(CURRENT.with(|c| c.borrow_mut().replace(state)))
}

/// Is the current thread inside a stream context?
pub(crate) fn in_stream_context() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Clone the current context's stream state (for propagation onto the
/// grid executor's worker threads, so detector checks *inside blocks*
/// see the right stream identity whichever worker runs them).
pub(crate) fn current_state() -> Option<Arc<StreamState>> {
    CURRENT.with(|c| c.borrow().clone())
}

// ======================= versioned-clock hazard check =======================

/// Run `f` with the current thread's stream, if it is inside a
/// [`crate::Device::concurrent`] session: the per-request entry of the
/// race detector, which borrows the state rather than cloning it.
pub(crate) fn with_current<R>(f: impl FnOnce(Option<&StreamState>) -> R) -> R {
    CURRENT.with(|c| f(c.borrow().as_deref()))
}

/// Cross-epoch hazard check of one warp request inside a session, for
/// marks whose epoch differs from the current one (see the module docs).
///
/// A prior access is ordered before the current one when its epoch is a
/// host-lane or already-joined one (absent from the registry), another
/// session's, or this stream's (FIFO program order); anything else is a
/// cross-stream race and panics. The verdict depends on the epoch alone,
/// so each distinct epoch is looked up once per request. Outside a
/// session nothing is checked: the host and host-lane launches only touch
/// buffers between sessions (`concurrent()` is a join), so they are
/// always ordered.
pub(crate) struct CrossEpoch<'s> {
    state: &'s StreamState,
    /// Epochs this request found ordered. A request checks at most a write
    /// mark and a read mark per lane.
    ordered: [u32; 2 * WARP_SIZE],
    n: usize,
}

impl<'s> CrossEpoch<'s> {
    pub(crate) fn new(state: &'s StreamState) -> Self {
        Self {
            state,
            ordered: [0; 2 * WARP_SIZE],
            n: 0,
        }
    }

    /// Check the prior access `mark` (`(epoch << 32) | block`) to element
    /// `idx`. `prior_what` says what it was ("write"/"read") and
    /// `this_what` what the current access is.
    pub(crate) fn check(&mut self, mark: u64, idx: usize, prior_what: &str, this_what: &str) {
        let epoch = (mark >> 32) as u32;
        if self.ordered[..self.n].contains(&epoch) {
            return;
        }
        let state = self.state;
        match lookup_epoch(epoch) {
            Some(origin) if origin.session == state.session && origin.stream_ix != state.ix => {
                let this_seq = state.seq.load(Ordering::SeqCst);
                let this_block = crate::memory::current_actor();
                panic!(
                    "race detector: cross-stream {this_what}-after-{prior_what} hazard on element \
                     {idx}: {this_what} by (stream {}, launch {}, block {}) overlaps \
                     unsynchronized with the {prior_what} by (stream {}, launch {}, block {}) — \
                     streams of one concurrent session are unordered: give each stream its own \
                     buffers, or move the dependent launch into the same stream or a later session",
                    state.ix,
                    this_seq.saturating_sub(1),
                    actor(this_block),
                    origin.stream_ix,
                    origin.seq,
                    actor(mark as u32),
                );
            }
            _ => {
                self.ordered[self.n] = epoch;
                self.n += 1;
            }
        }
    }
}

fn actor(b: u32) -> String {
    if b == u32::MAX {
        "host".into()
    } else {
        b.to_string()
    }
}

// ========================= makespan model =========================

/// Fraction of the device a launch occupies: `min(1, blocks / sm_count)`.
/// Two half-occupancy launches overlap fully; a grid-filling launch
/// monopolizes the device.
fn occupancy(r: &LaunchRecord, sm_count: usize) -> f64 {
    (r.blocks as f64 / sm_count as f64).min(1.0)
}

/// Deterministic discrete-time replay of the launch log under a
/// capacity-1.0 device: per-stream FIFO and occupancy packing. Returns
/// `(makespan_seconds, busy_integral)` where the busy integral is
/// `Σ seconds·occupancy` (so `utilization = busy / makespan`).
///
/// Determinism: launches are processed in `(ready, stream, seq)` order and
/// every quantity derives from recorded durations — never wall clock —
/// so the result is identical however the launches actually interleaved
/// on host threads.
pub(crate) fn simulate_makespan(records: &[LaunchRecord], sm_count: usize) -> (f64, f64) {
    let ends = simulate_end_times(records, sm_count);
    let makespan = ends.iter().fold(0.0f64, |a, &b| a.max(b));
    let busy = sum_in_stream_order(
        records
            .iter()
            .map(|r| (r.stream, r.stream_seq, r.seconds * occupancy(r, sm_count))),
    );
    (makespan, busy)
}

/// Sum per-launch values keyed by `(stream, seq)` in that key order.
/// Floating-point addition is not associative, and concurrent streams
/// push their launches in whatever order they finish; summing in key
/// order makes the total bit-identical however they interleaved. A
/// single-stream log is already in key order, so its sum is unchanged.
pub(crate) fn sum_in_stream_order(items: impl Iterator<Item = (u32, u32, f64)> + Clone) -> f64 {
    let key = |(stream, seq, _): (u32, u32, f64)| (stream, seq);
    if items.clone().is_sorted_by_key(key) {
        return items.map(|(_, _, v)| v).sum();
    }
    let mut items: Vec<(u32, u32, f64)> = items.collect();
    items.sort_by_key(|&e| key(e));
    items.iter().map(|&(_, _, v)| v).sum()
}

/// Per-launch finish times under the same replay, indexed like
/// `records`. `paper serve` uses this to assign each overlapped batch a
/// modeled completion latency.
pub(crate) fn simulate_end_times(records: &[LaunchRecord], sm_count: usize) -> Vec<f64> {
    let occ: Vec<f64> = records.iter().map(|r| occupancy(r, sm_count)).collect();
    let key = |i: usize| (records[i].stream, records[i].stream_seq);
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_by_key(|&i| key(i));
    // end[i] = assigned finish time; None until scheduled.
    let mut end: Vec<Option<f64>> = vec![None; records.len()];
    let mut start: Vec<Option<f64>> = vec![None; records.len()];
    // FIFO predecessor: the *latest recorded* launch on the same stream
    // with a smaller seq (the last such launch on a tie). Seq values can
    // have gaps (the host lane numbers its launches by the device launch
    // counter, which streams share), so `seq - 1` specifically may be
    // absent while an earlier launch still gates this one. `order` is
    // stable, so the predecessor is the last launch of the stream's
    // previous seq.
    let mut pred: Vec<Option<usize>> = vec![None; records.len()];
    let (mut prev, mut prev_seq_last): (Option<usize>, _) = (None, None);
    for &i in &order {
        if let Some(p) = prev {
            let ((ps, pq), (s, q)) = (key(p), key(i));
            if ps != s {
                prev_seq_last = None;
            } else if pq < q {
                prev_seq_last = Some(p);
            }
        }
        pred[i] = prev_seq_last;
        prev = Some(i);
    }
    let mut remaining = order;
    while !remaining.is_empty() {
        // A launch is eligible once its stream predecessor has an assigned
        // end time; the first remaining launch always is, since its
        // predecessor sorts before it.
        let mut best: Option<(f64, u32, u32, usize)> = None;
        for (pos, &i) in remaining.iter().enumerate() {
            let Some(ready) = pred[i].map_or(Some(0.0), |p| end[p]) else {
                continue;
            };
            let (s, q) = key(i);
            if best.is_none_or(|(r, bs, bq, _)| (ready, s, q) < (r, bs, bq)) {
                best = Some((ready, s, q, pos));
            }
        }
        let (ready, _, _, pos) = best.expect("the first remaining launch is always eligible");
        let i = remaining.remove(pos);
        // Earliest time >= ready with spare capacity for `occ`: load only
        // changes at start/end points of already-scheduled launches.
        let load_at = |t: f64| -> f64 {
            (0..records.len())
                .filter(|&j| {
                    matches!((start[j], end[j]), (Some(s), Some(en)) if s <= t + 1e-18 && en > t + 1e-18)
                })
                .map(|j| occ[j])
                .sum()
        };
        let mut t = ready;
        loop {
            if load_at(t) + occ[i] <= 1.0 + 1e-9 {
                break;
            }
            // Advance to the next end point after t.
            let next = end
                .iter()
                .flatten()
                .filter(|&&en| en > t + 1e-18)
                .fold(f64::INFINITY, |a, &b| a.min(b));
            if !next.is_finite() {
                break; // defensive: nothing running, shouldn't happen
            }
            t = next;
        }
        start[i] = Some(t);
        end[i] = Some(t + records[i].seconds);
    }
    end.into_iter().map(Option::unwrap).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Device, StreamTask};
    use crate::obs::ObsStats;
    use crate::profile::K40C;
    use crate::stats::BlockStats;

    /// SM count of the test device: a launch of `b` blocks occupies
    /// `b / SMS` of it.
    const SMS: usize = 100;

    fn rec(stream: u32, seq: u32, seconds: f64, blocks: usize) -> LaunchRecord {
        LaunchRecord {
            label: String::new(),
            blocks,
            warps_per_block: 1,
            stats: BlockStats::default(),
            obs: ObsStats::default(),
            per_block: Vec::new(),
            flight: None,
            seconds,
            stream,
            stream_seq: seq,
        }
    }

    fn makespan(records: &[LaunchRecord]) -> (f64, f64) {
        simulate_makespan(records, SMS)
    }

    #[test]
    fn busy_integral_ignores_push_order() {
        // 1 + 2^-53 + 2^-53 rounds differently depending on which term
        // comes first.
        let tiny = f64::EPSILON / 2.0;
        let records = vec![
            rec(0, 0, 1.0, SMS),
            rec(0, 1, tiny, SMS),
            rec(1, 0, tiny, SMS),
        ];
        let reversed: Vec<LaunchRecord> = records.iter().rev().cloned().collect();
        let (a, b) = (makespan(&records), makespan(&reversed));
        assert_eq!(a.0.to_bits(), b.0.to_bits(), "makespan");
        assert_eq!(a.1.to_bits(), b.1.to_bits(), "busy integral");
    }

    #[test]
    fn empty_log_has_zero_makespan() {
        assert_eq!(makespan(&[]), (0.0, 0.0));
    }

    #[test]
    fn single_stream_serializes_fifo() {
        let (ms, busy) = makespan(&[rec(0, 0, 2.0, 25), rec(0, 1, 3.0, 25), rec(0, 2, 1.0, 25)]);
        assert!((ms - 6.0).abs() < 1e-12, "FIFO per stream: {ms}");
        assert!((busy - 1.5).abs() < 1e-12);
    }

    #[test]
    fn small_launches_on_two_streams_overlap() {
        let (ms, _) = makespan(&[rec(0, 0, 2.0, 30), rec(1, 0, 2.0, 30)]);
        assert!((ms - 2.0).abs() < 1e-12, "full overlap: {ms}");
    }

    #[test]
    fn full_occupancy_launches_cannot_overlap() {
        let (ms, _) = makespan(&[rec(0, 0, 2.0, SMS), rec(1, 0, 3.0, 4 * SMS)]);
        assert!((ms - 5.0).abs() < 1e-12, "capacity 1.0 serializes: {ms}");
    }

    #[test]
    fn capacity_packs_three_halves_into_two_slots() {
        // Three 0.5-occupancy launches of 1 s: two run together, the
        // third waits — makespan 2, not 1 and not 3.
        let (ms, _) = makespan(&[rec(0, 0, 1.0, 50), rec(1, 0, 1.0, 50), rec(2, 0, 1.0, 50)]);
        assert!((ms - 2.0).abs() < 1e-12, "{ms}");
    }

    #[test]
    fn makespan_is_order_independent() {
        let a = vec![rec(0, 0, 1.0, 50), rec(1, 0, 2.0, 50), rec(0, 1, 1.5, 75)];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(makespan(&a), makespan(&b));
    }

    /// A session's epochs are registered while it runs and leave the
    /// registry at the `concurrent()` join, so the registry holds only
    /// the launches of sessions still running.
    #[test]
    fn concurrent_join_unregisters_its_epochs() {
        let dev = Device::sequential(K40C);
        let epochs = Mutex::new(Vec::new());
        let task = |_: &Stream| {
            for _ in 0..2 {
                let seen = AtomicU32::new(0);
                dev.launch("epoch", 1, 1, |_| {
                    seen.store(crate::memory::current_epoch(), Ordering::Relaxed);
                });
                let epoch = seen.into_inner();
                assert!(lookup_epoch(epoch).is_some(), "registered while running");
                lock_unpoisoned(&epochs).push(epoch);
            }
        };
        let tasks: Vec<StreamTask<'_, ()>> = vec![Box::new(task), Box::new(task)];
        dev.concurrent(tasks);
        let epochs = epochs.into_inner().unwrap();
        assert_eq!(epochs.len(), 4);
        for e in epochs {
            assert!(lookup_epoch(e).is_none(), "epoch {e} outlived its session");
        }
    }

    /// The replay as first written: every stream predecessor found by
    /// rescanning all launches. The reference for
    /// `end_times_match_the_rescanning_simulation`.
    fn end_times_by_rescan(records: &[LaunchRecord]) -> Vec<f64> {
        let occ = |j: usize| occupancy(&records[j], SMS);
        let mut end: Vec<Option<f64>> = vec![None; records.len()];
        let mut start: Vec<Option<f64>> = vec![None; records.len()];
        let pred = |i: usize| -> Option<usize> {
            let r = &records[i];
            records
                .iter()
                .enumerate()
                .filter(|(_, o)| o.stream == r.stream && o.stream_seq < r.stream_seq)
                .max_by_key(|(_, o)| o.stream_seq)
                .map(|(j, _)| j)
        };
        let mut remaining: Vec<usize> = (0..records.len()).collect();
        remaining.sort_by_key(|&i| (records[i].stream, records[i].stream_seq));
        while !remaining.is_empty() {
            let mut best: Option<(f64, u32, u32, usize)> = None;
            for (pos, &i) in remaining.iter().enumerate() {
                let r = &records[i];
                let Some(ready) = pred(i).map_or(Some(0.0), |p| end[p]) else {
                    continue;
                };
                let key = (ready, r.stream, r.stream_seq);
                if best.is_none_or(|(t, s, q, _)| key < (t, s, q)) {
                    best = Some((ready, r.stream, r.stream_seq, pos));
                }
            }
            let (ready, _, _, pos) = best.unwrap();
            let i = remaining.remove(pos);
            let load_at = |t: f64| -> f64 {
                (0..records.len())
                    .filter(|&j| {
                        matches!((start[j], end[j]), (Some(s), Some(en)) if s <= t + 1e-18 && en > t + 1e-18)
                    })
                    .map(occ)
                    .sum()
            };
            let mut t = ready;
            while load_at(t) + occ(i) > 1.0 + 1e-9 {
                let next = end
                    .iter()
                    .flatten()
                    .filter(|&&en| en > t + 1e-18)
                    .fold(f64::INFINITY, |a, &b| a.min(b));
                if !next.is_finite() {
                    break;
                }
                t = next;
            }
            start[i] = Some(t);
            end[i] = Some(t + records[i].seconds);
        }
        end.into_iter().map(Option::unwrap).collect()
    }

    /// Random logs like concurrent sessions record them: launches draw
    /// seqs from one device counter (so each stream's seqs have gaps),
    /// some on the host lane, pushed in a shuffled order.
    #[test]
    fn end_times_match_the_rescanning_simulation() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for case in 0..200 {
            let n = 1 + next(40) as usize;
            let streams = 1 + next(4) as u32;
            let mut records: Vec<LaunchRecord> = Vec::with_capacity(n);
            for seq in 0..n as u32 {
                let stream = match next(streams as u64 + 1) as u32 {
                    s if s == streams => HOST_STREAM,
                    s => s,
                };
                let seconds = (1 + next(1000)) as f64 * 1e-6;
                records.push(rec(stream, seq, seconds, 1 + next(SMS as u64) as usize));
            }
            for i in (1..records.len()).rev() {
                records.swap(i, next(i as u64 + 1) as usize);
            }
            let got = simulate_end_times(&records, SMS);
            let expect = end_times_by_rescan(&records);
            let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&expect), "case {case}: {records:?}");
        }
    }
}
