//! Streams, events, and the versioned-clock side of the race detector.
//!
//! A [`Stream`] is an independent launch queue on one [`crate::Device`]:
//! launches issued on the same stream execute in FIFO order (the CUDA
//! stream contract), launches on *different* streams are unordered unless
//! the program inserts an [`Event`] record/wait edge between them. The
//! simulator runs the grids themselves exactly as before — what streams
//! add is (a) attribution: every launch carries `(stream, stream_seq)`;
//! (b) a modeled-concurrency timeline from which
//! [`crate::Device::makespan`] computes how long the device would have
//! taken with overlapping grids; and (c) the ordering metadata the
//! TL2-style race detector needs to tell a *synchronized* cross-stream
//! access from a racy one.
//!
//! ## Versioned clocks
//!
//! The per-launch epoch detector in [`crate::memory`] treats every launch
//! boundary as a global synchronization point, which is exactly wrong
//! once two launches can be in flight at once: two overlapping launches
//! on disjoint buffers are fine (the epoch scheme would have been silent
//! only by luck of epoch inequality — it had no notion of concurrency at
//! all), while a launch on stream B reading what a launch on stream A
//! wrote *is* a race unless an event orders them, even though the epochs
//! differ.
//!
//! TL2-style versioned clocks make that distinction explicit. Every
//! launch inside a concurrency session gets a clock value: the pair
//! `(stream, seq)` where `seq` counts launches on that stream. Each
//! stream carries a *frontier* — for every other stream, the highest
//! `seq` it has observed through an event wait. An element's write mark
//! still stores `(epoch, block)`; a global registry maps session epochs
//! back to `(session, stream, seq)`. A cross-epoch access is then a
//! hazard iff the writer's epoch belongs to the *same session*, a
//! *different stream*, and its `seq` is **above the reader's frontier**
//! for that stream — i.e. no event edge (transitively) covers it.
//! Legitimately overlapping launches on disjoint buffers never compare
//! marks at all and stay silent; event-ordered cross-stream hand-offs
//! advance the frontier and stay silent; everything else panics naming
//! the exact `(stream, launch, block)` on both sides.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::lock_unpoisoned;
use crate::sched::Schedule;

/// Device-local stream index recorded for launches issued outside any
/// stream context (the "host lane" — everything PRs 1–9 ever launched).
pub const HOST_STREAM: u32 = u32::MAX;

// ===================== global id + epoch-origin registry =====================

/// Process-wide unique stream ids (device-local indices repeat across
/// devices and test processes; the detector keys frontiers on these).
static STREAM_IDS: AtomicU64 = AtomicU64::new(1);

/// Process-wide unique concurrency-session ids. Epoch origins from a
/// *different* session are never hazards: sessions on one device are
/// separated by the `concurrent()` join, which is a full barrier.
static SESSION_IDS: AtomicU64 = AtomicU64::new(1);

pub(crate) fn fresh_session_id() -> u64 {
    SESSION_IDS.fetch_add(1, Ordering::Relaxed)
}

/// Where a session epoch came from: which session, which stream (global
/// id for frontier lookups, device-local index + seq for naming), and
/// the stream-local launch number.
#[derive(Clone, Copy)]
struct EpochOrigin {
    session: u64,
    stream_gid: u64,
    stream_ix: u32,
    seq: u32,
}

/// Epoch → origin map for launches issued inside stream contexts. Epochs
/// of ordinary (host-lane) launches are *absent*: their launch boundary
/// is a true sync point, so cross-epoch access to their data is ordered
/// — exactly the pre-stream detector semantics, preserved bit-for-bit.
static EPOCH_ORIGINS: Mutex<Option<HashMap<u32, EpochOrigin>>> = Mutex::new(None);

/// Fast-path gate: stays `false` until the first stream launch in the
/// process, so programs that never touch streams pay one relaxed load.
static ANY_ORIGINS: AtomicBool = AtomicBool::new(false);

fn register_epoch(epoch: u32, origin: EpochOrigin) {
    let mut g = lock_unpoisoned(&EPOCH_ORIGINS);
    g.get_or_insert_with(HashMap::new).insert(epoch, origin);
    ANY_ORIGINS.store(true, Ordering::Release);
}

fn lookup_epoch(epoch: u32) -> Option<EpochOrigin> {
    if !ANY_ORIGINS.load(Ordering::Acquire) {
        return None;
    }
    lock_unpoisoned(&EPOCH_ORIGINS)
        .as_ref()
        .and_then(|m| m.get(&epoch).copied())
}

// ============================== stream state ===============================

/// Shared state of one stream: identity, launch clock, and frontier.
pub(crate) struct StreamState {
    /// Process-unique id (frontier key).
    gid: u64,
    /// Device-local index (what records, diagnoses and panics print).
    ix: u32,
    /// Session this stream's launches belong to for hazard purposes.
    session: u64,
    /// Launches issued on this stream so far (the stream's clock).
    seq: AtomicU32,
    /// Highest `seq` of every *other* stream this stream has observed
    /// through an event wait (directly or transitively).
    frontier: Mutex<HashMap<u64, u32>>,
}

/// An independent launch queue on one device. Create with
/// [`crate::Device::stream`] (manual use) or receive one per task inside
/// [`crate::Device::concurrent`]. Launches issued while a stream context
/// is entered (see [`Stream::run`]) are attributed to the stream — the
/// existing pipeline entry points work unchanged.
pub struct Stream {
    pub(crate) state: Arc<StreamState>,
}

impl Stream {
    pub(crate) fn new(ix: u32, session: u64) -> Self {
        Self {
            state: Arc::new(StreamState {
                gid: STREAM_IDS.fetch_add(1, Ordering::Relaxed),
                ix,
                session,
                seq: AtomicU32::new(0),
                frontier: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// Device-local stream index (deterministic: creation order on the
    /// device; global ids are process-wide and therefore not).
    pub fn index(&self) -> u32 {
        self.state.ix
    }

    /// How many launches this stream has issued so far. Launch `k` is
    /// timeline entry `(index(), k)` for `k < launches()` — the key
    /// [`crate::Device::completion_times`] reports modeled finish times
    /// under.
    pub fn launches(&self) -> u32 {
        self.state.seq.load(Ordering::SeqCst)
    }

    /// Run `f` with this stream as the current thread's launch context:
    /// every `Device::launch` inside is attributed to this stream and
    /// clocked by it. Contexts do not nest with a *different* stream.
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        let _ctx = enter_stream(Arc::clone(&self.state), None);
        f()
    }

    /// Record `event` at this stream's current position: waiters become
    /// ordered after every launch issued on this stream so far (and,
    /// transitively, after everything *this* stream has observed).
    pub fn record(&self, event: &Event) {
        let knowledge = lock_unpoisoned(&self.state.frontier).clone();
        let mut g = lock_unpoisoned(&event.inner.state);
        *g = Some(EventRecord {
            stream_gid: self.state.gid,
            stream_ix: self.state.ix,
            seq: self.state.seq.load(Ordering::SeqCst),
            knowledge,
        });
        drop(g);
        event.inner.cv.notify_all();
    }

    /// Wait for `event`: blocks (or, under an adversarial session, spins
    /// at a scheduler yield point) until the event is recorded, then
    /// joins its knowledge into this stream's frontier — every launch
    /// the recording stream had issued happens-before everything this
    /// stream does next. Under a *sequential* session an unrecorded
    /// event can never be recorded by anyone else, so waiting panics
    /// instead of deadlocking; same for manual (session-less) use.
    pub fn wait(&self, event: &Event) {
        let rec = event.block_until_recorded();
        if rec.stream_gid != self.state.gid {
            let mut f = lock_unpoisoned(&self.state.frontier);
            let e = f.entry(rec.stream_gid).or_insert(0);
            *e = (*e).max(rec.seq);
            for (gid, seq) in &rec.knowledge {
                if *gid != self.state.gid {
                    let e = f.entry(*gid).or_insert(0);
                    *e = (*e).max(*seq);
                }
            }
        }
        // The next launch on this stream must not start (in the model's
        // timeline) before the recorded prefix finished: remember the
        // edge on this thread, drained into the next launch's deps.
        if rec.seq > 0 {
            PENDING_DEPS.with(|d| d.borrow_mut().push((rec.stream_ix, rec.seq - 1)));
        }
    }
}

// ============================== events ===============================

#[derive(Clone)]
struct EventRecord {
    stream_gid: u64,
    stream_ix: u32,
    /// Stream clock at record time (= launches issued so far).
    seq: u32,
    /// The recording stream's frontier at record time — carried so event
    /// ordering composes transitively (A→B→C covers A's launches for C).
    knowledge: HashMap<u64, u32>,
}

struct EventInner {
    state: Mutex<Option<EventRecord>>,
    cv: Condvar,
}

/// A cross-stream ordering edge: one stream records it, others wait on
/// it. Recording twice moves the event forward (CUDA semantics).
#[derive(Clone)]
pub struct Event {
    inner: Arc<EventInner>,
}

impl Event {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Self {
            inner: Arc::new(EventInner {
                state: Mutex::new(None),
                cv: Condvar::new(),
            }),
        }
    }

    fn block_until_recorded(&self) -> EventRecord {
        // Adversarial session: spin at a scheduler yield point so the
        // policy controls the interleaving, the straggler release sees
        // this worker as "stuck waiting", and the stall watchdog catches
        // an event nobody will ever record.
        if crate::sched::in_adversarial_session() {
            loop {
                if let Some(rec) = lock_unpoisoned(&self.inner.state).clone() {
                    return rec;
                }
                crate::sched::event_wait_yield();
            }
        }
        let mut g = lock_unpoisoned(&self.inner.state);
        if let Some(rec) = g.clone() {
            return rec;
        }
        match session_schedule() {
            Some(Schedule::Parallel) => loop {
                g = self.inner.cv.wait(g).unwrap_or_else(|e| e.into_inner());
                if let Some(rec) = g.clone() {
                    return rec;
                }
            },
            Some(Schedule::Sequential) => panic!(
                "event wait deadlock: waiting on an event that no earlier task recorded \
                 (the sequential schedule runs tasks in order, so it never can be)"
            ),
            _ => panic!(
                "event wait on an unrecorded event outside a concurrent session would \
                 block forever; record it first or use Device::concurrent"
            ),
        }
    }
}

// ======================= thread-local stream context =======================

struct Ctx {
    state: Arc<StreamState>,
    /// Schedule of the [`crate::Device::concurrent`] session this stream
    /// task runs in (`None` for manual [`Stream::run`] use): it picks the
    /// event-wait strategy.
    session: Option<Schedule>,
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<Ctx>> = const { std::cell::RefCell::new(None) };
    /// Event-wait edges observed since the last launch on this thread;
    /// drained into the next launch's timeline entry.
    static PENDING_DEPS: std::cell::RefCell<Vec<(u32, u32)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

fn session_schedule() -> Option<Schedule> {
    CURRENT.with(|c| c.borrow().as_ref().and_then(|ctx| ctx.session))
}

/// RAII stream-context guard; restores the previous context on drop.
pub(crate) struct StreamCtx(Option<Ctx>);

impl Drop for StreamCtx {
    fn drop(&mut self) {
        let restored_to_none = self.0.is_none();
        CURRENT.with(|c| *c.borrow_mut() = self.0.take());
        if restored_to_none {
            // Leaving the outermost stream context: drop any event-wait
            // edges no launch ever drained, so they cannot leak onto an
            // unrelated later launch on this thread (e.g. the next task
            // of a sequential session).
            PENDING_DEPS.with(|d| d.borrow_mut().clear());
        }
    }
}

/// Make `state` the current thread's stream, inside a session run under
/// `session` (`None` outside [`crate::Device::concurrent`]).
pub(crate) fn enter_stream(state: Arc<StreamState>, session: Option<Schedule>) -> StreamCtx {
    let new = Ctx { state, session };
    StreamCtx(CURRENT.with(|c| c.borrow_mut().replace(new)))
}

/// Is the current thread inside a stream context?
pub(crate) fn in_stream_context() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Clone the current context's stream state (for propagation onto the
/// grid executor's worker threads, so detector checks *inside blocks*
/// see the right stream identity whichever worker runs them).
pub(crate) fn current_state() -> Option<(Arc<StreamState>, Option<Schedule>)> {
    CURRENT.with(|c| {
        c.borrow()
            .as_ref()
            .map(|ctx| (Arc::clone(&ctx.state), ctx.session))
    })
}

/// `(stream_ix, stream_seq, timeline deps)` as stamped onto a launch.
pub(crate) type LaunchStamp = (u32, u32, Vec<(u32, u32)>);

/// Stamp the next launch on the current stream: bump the stream clock,
/// register the launch's epoch in the origin registry, and return
/// `(stream_ix, stream_seq, timeline deps)`. Called by `Device::launch`.
pub(crate) fn stamp_launch(epoch: u32) -> Option<LaunchStamp> {
    CURRENT.with(|c| {
        let b = c.borrow();
        let ctx = b.as_ref()?;
        let seq = ctx.state.seq.fetch_add(1, Ordering::SeqCst);
        register_epoch(
            epoch,
            EpochOrigin {
                session: ctx.state.session,
                stream_gid: ctx.state.gid,
                stream_ix: ctx.state.ix,
                seq: seq + 1,
            },
        );
        let deps = PENDING_DEPS.with(|d| std::mem::take(&mut *d.borrow_mut()));
        Some((ctx.state.ix, seq, deps))
    })
}

// ======================= versioned-clock hazard check =======================

/// Cross-epoch hazard check, called by the tracked-buffer access paths in
/// [`crate::memory`] for marks whose epoch differs from the current one.
/// `prior_what` says what the marked access was ("written"/"read") and
/// `this_what` what the current access is.
///
/// Returns without panicking when the prior access is ordered before the
/// current one: host-lane epochs (absent from the registry), a different
/// session (separated by the `concurrent()` join), the same stream
/// (FIFO program order), or a launch at-or-below the current stream's
/// frontier for the writer (covered by an event edge). Anything else is
/// a true cross-stream race.
pub(crate) fn check_cross_epoch(
    mark_epoch: u32,
    mark_block: u32,
    idx: usize,
    prior_what: &str,
    this_what: &str,
) {
    let Some((state, _)) = current_state() else {
        // Host-context access: the host only touches buffers between
        // sessions (concurrent() is a join), so it is always ordered.
        return;
    };
    let Some(origin) = lookup_epoch(mark_epoch) else {
        // Host-lane launch: its boundary was a true sync point.
        return;
    };
    if origin.session != state.session || origin.stream_gid == state.gid {
        return;
    }
    let covered = lock_unpoisoned(&state.frontier)
        .get(&origin.stream_gid)
        .copied()
        .unwrap_or(0)
        >= origin.seq;
    if covered {
        return;
    }
    let this_seq = state.seq.load(Ordering::SeqCst);
    let this_block = crate::memory::current_actor();
    panic!(
        "race detector: cross-stream {this_what}-after-{prior_what} hazard on element {idx}: \
         {this_what} by (stream {}, launch {}, block {}) overlaps unsynchronized with the \
         {prior_what} by (stream {}, launch {}, block {}) — order the streams with an \
         Event record/wait edge",
        state.ix,
        this_seq.saturating_sub(1),
        actor(this_block),
        origin.stream_ix,
        origin.seq - 1,
        actor(mark_block),
    );
}

fn actor(b: u32) -> String {
    if b == u32::MAX {
        "host".into()
    } else {
        b.to_string()
    }
}

// ========================= timeline + makespan model =========================

/// One launch on the device's concurrency timeline.
#[derive(Debug, Clone)]
pub(crate) struct TimelineEntry {
    /// Device-local stream index ([`HOST_STREAM`] for the host lane).
    pub stream: u32,
    /// Launch number within the stream (FIFO: launch `k` cannot start
    /// before launch `k-1` on the same stream finished).
    pub seq: u32,
    /// Modeled duration ([`crate::DeviceProfile::estimate`]).
    pub seconds: f64,
    /// Fraction of the device this launch occupies:
    /// `min(1, blocks / sm_count)`. Two half-occupancy launches overlap
    /// fully; a grid-filling launch monopolizes the device.
    pub occ: f64,
    /// Event edges: `(stream, seq)` launches that must finish first.
    pub deps: Vec<(u32, u32)>,
}

/// Deterministic discrete-time simulation of the timeline under a
/// capacity-1.0 device: per-stream FIFO, event deps, and occupancy
/// packing. Returns `(makespan_seconds, busy_integral)` where the busy
/// integral is `Σ duration·occ` (so `utilization = busy / makespan`).
///
/// Determinism: entries are processed in `(ready, stream, seq)` order and
/// every quantity derives from recorded durations — never wall clock —
/// so the result is identical however the launches actually interleaved
/// on host threads.
pub(crate) fn simulate_makespan(entries: &[TimelineEntry]) -> (f64, f64) {
    let ends = simulate_end_times(entries);
    let makespan = ends.iter().fold(0.0f64, |a, &b| a.max(b));
    let busy = sum_in_stream_order(entries.iter().map(|e| (e.stream, e.seq, e.seconds * e.occ)));
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

/// Per-entry finish times under the same simulation, indexed like
/// `entries`. `paper serve` uses this to assign each overlapped batch a
/// modeled completion latency.
pub(crate) fn simulate_end_times(entries: &[TimelineEntry]) -> Vec<f64> {
    if entries.is_empty() {
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.sort_by_key(|&i| (entries[i].stream, entries[i].seq));
    // end[i] = assigned finish time; None until scheduled.
    let mut end: Vec<Option<f64>> = vec![None; entries.len()];
    let mut start: Vec<Option<f64>> = vec![None; entries.len()];
    // An event dep names a `(stream, seq)`; the first entry recorded there
    // answers it.
    let mut at: HashMap<(u32, u32), usize> = HashMap::with_capacity(entries.len());
    for (i, e) in entries.iter().enumerate() {
        at.entry((e.stream, e.seq)).or_insert(i);
    }
    // FIFO predecessor: the *latest recorded* launch on the same stream
    // with a smaller seq (the last such entry on a tie). Seq values can
    // have gaps (the host lane shares the device launch counter with
    // streams; zero-block launches never tick a clock), so `seq - 1`
    // specifically may be absent while an earlier launch still gates this
    // one. `order` is stable, so the predecessor is the last entry of the
    // stream's previous seq.
    let mut pred: Vec<Option<usize>> = vec![None; entries.len()];
    let (mut prev, mut prev_seq_last): (Option<usize>, _) = (None, None);
    for &i in &order {
        if let Some(p) = prev {
            let (ep, ei) = (&entries[p], &entries[i]);
            if ep.stream != ei.stream {
                prev_seq_last = None;
            } else if ep.seq < ei.seq {
                prev_seq_last = Some(p);
            }
        }
        pred[i] = prev_seq_last;
        prev = Some(i);
    }
    let mut remaining: Vec<usize> = order.clone();
    while !remaining.is_empty() {
        // An entry is eligible once its stream predecessor and all its
        // event deps have assigned end times.
        let mut best: Option<(f64, u32, u32, usize)> = None;
        for (pos, &i) in remaining.iter().enumerate() {
            let e = &entries[i];
            let pred_end = pred[i].map_or(Some(0.0), |p| end[p]);
            let Some(mut ready) = pred_end else { continue };
            let mut ok = true;
            for &(ds, dq) in &e.deps {
                match at.get(&(ds, dq)).map(|&d| end[d]) {
                    Some(Some(t)) => ready = ready.max(t),
                    // Dep not yet scheduled: wait for it.
                    Some(None) => {
                        ok = false;
                        break;
                    }
                    // Dep launch never recorded (e.g. zero-block): no-op.
                    None => {}
                }
            }
            if !ok {
                continue;
            }
            let key = (ready, e.stream, e.seq);
            if best.is_none_or(|(r, s, q, _)| key < (r, s, q)) {
                best = Some((ready, e.stream, e.seq, pos));
            }
        }
        let Some((ready, _, _, pos)) = best else {
            // Only possible with a dependency cycle, which event
            // semantics cannot express (an event is recorded at a fixed
            // clock value); treat defensively as serialized.
            let i = remaining.remove(0);
            let t = end.iter().flatten().fold(0.0f64, |a, &b| a.max(b));
            start[i] = Some(t);
            end[i] = Some(t + entries[i].seconds);
            continue;
        };
        let i = remaining.remove(pos);
        let e = &entries[i];
        // Earliest time >= ready with spare capacity for `occ`: load only
        // changes at start/end points of already-scheduled entries.
        let load_at = |t: f64| -> f64 {
            (0..entries.len())
                .filter(|&j| {
                    matches!((start[j], end[j]), (Some(s), Some(en)) if s <= t + 1e-18 && en > t + 1e-18)
                })
                .map(|j| entries[j].occ)
                .sum()
        };
        let mut t = ready;
        loop {
            if load_at(t) + e.occ <= 1.0 + 1e-9 {
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
        end[i] = Some(t + e.seconds);
    }
    end.into_iter().map(Option::unwrap).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(stream: u32, seq: u32, seconds: f64, occ: f64) -> TimelineEntry {
        TimelineEntry {
            stream,
            seq,
            seconds,
            occ,
            deps: Vec::new(),
        }
    }

    #[test]
    fn busy_integral_ignores_push_order() {
        // 1 + 2^-53 + 2^-53 rounds differently depending on which term
        // comes first.
        let tiny = f64::EPSILON / 2.0;
        let entries = vec![
            entry(0, 0, 1.0, 1.0),
            entry(0, 1, tiny, 1.0),
            entry(1, 0, tiny, 1.0),
        ];
        let reversed: Vec<TimelineEntry> = entries.iter().rev().cloned().collect();
        let (a, b) = (simulate_makespan(&entries), simulate_makespan(&reversed));
        assert_eq!(a.0.to_bits(), b.0.to_bits(), "makespan");
        assert_eq!(a.1.to_bits(), b.1.to_bits(), "busy integral");
    }

    #[test]
    fn empty_timeline_has_zero_makespan() {
        assert_eq!(simulate_makespan(&[]), (0.0, 0.0));
    }

    #[test]
    fn single_stream_serializes_fifo() {
        let (ms, busy) = simulate_makespan(&[
            entry(0, 0, 2.0, 0.25),
            entry(0, 1, 3.0, 0.25),
            entry(0, 2, 1.0, 0.25),
        ]);
        assert!((ms - 6.0).abs() < 1e-12, "FIFO per stream: {ms}");
        assert!((busy - 1.5).abs() < 1e-12);
    }

    #[test]
    fn small_launches_on_two_streams_overlap() {
        let (ms, _) = simulate_makespan(&[entry(0, 0, 2.0, 0.3), entry(1, 0, 2.0, 0.3)]);
        assert!((ms - 2.0).abs() < 1e-12, "full overlap: {ms}");
    }

    #[test]
    fn full_occupancy_launches_cannot_overlap() {
        let (ms, _) = simulate_makespan(&[entry(0, 0, 2.0, 1.0), entry(1, 0, 3.0, 1.0)]);
        assert!((ms - 5.0).abs() < 1e-12, "capacity 1.0 serializes: {ms}");
    }

    #[test]
    fn capacity_packs_three_halves_into_two_slots() {
        // Three 0.5-occupancy launches of 1 s: two run together, the
        // third waits — makespan 2, not 1 and not 3.
        let (ms, _) = simulate_makespan(&[
            entry(0, 0, 1.0, 0.5),
            entry(1, 0, 1.0, 0.5),
            entry(2, 0, 1.0, 0.5),
        ]);
        assert!((ms - 2.0).abs() < 1e-12, "{ms}");
    }

    #[test]
    fn event_dep_orders_across_streams() {
        let mut consumer = entry(1, 0, 1.0, 0.1);
        consumer.deps.push((0, 0));
        let (ms, _) = simulate_makespan(&[entry(0, 0, 2.0, 0.1), consumer]);
        assert!((ms - 3.0).abs() < 1e-12, "dep serializes: {ms}");
    }

    #[test]
    fn makespan_is_order_independent() {
        let a = vec![
            entry(0, 0, 1.0, 0.5),
            entry(1, 0, 2.0, 0.5),
            entry(0, 1, 1.5, 0.75),
        ];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(simulate_makespan(&a), simulate_makespan(&b));
    }

    #[test]
    fn stream_ids_and_indices_are_distinct() {
        let a = Stream::new(0, 1);
        let b = Stream::new(1, 1);
        assert_ne!(a.state.gid, b.state.gid);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
    }

    #[test]
    fn event_record_then_wait_merges_frontier() {
        let a = Stream::new(0, 99);
        let b = Stream::new(1, 99);
        a.state.seq.store(3, Ordering::SeqCst);
        let ev = Event::new();
        let recorded = |ev: &Event| lock_unpoisoned(&ev.inner.state).is_some();
        assert!(!recorded(&ev));
        a.record(&ev);
        assert!(recorded(&ev));
        b.wait(&ev);
        let f = lock_unpoisoned(&b.state.frontier);
        assert_eq!(f.get(&a.state.gid).copied(), Some(3));
    }

    #[test]
    #[should_panic(expected = "unrecorded event")]
    fn waiting_on_an_unrecorded_event_outside_a_session_panics() {
        let a = Stream::new(0, 100);
        let ev = Event::new();
        a.wait(&ev);
    }

    /// The simulation as first written: every stream predecessor and event
    /// dependency found by rescanning all entries. The reference for
    /// `end_times_match_the_rescanning_simulation`.
    fn end_times_by_rescan(entries: &[TimelineEntry]) -> Vec<f64> {
        if entries.is_empty() {
            return Vec::new();
        }
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by(|&a, &b| {
            (entries[a].stream, entries[a].seq).cmp(&(entries[b].stream, entries[b].seq))
        });
        // end[i] = assigned finish time; None until scheduled.
        let mut end: Vec<Option<f64>> = vec![None; entries.len()];
        let mut start: Vec<Option<f64>> = vec![None; entries.len()];
        let find = |stream: u32, seq: u32| -> Option<usize> {
            entries
                .iter()
                .position(|e| e.stream == stream && e.seq == seq)
        };
        // FIFO predecessor: the *latest recorded* launch on the same stream
        // with a smaller seq. Seq values can have gaps (the host lane shares
        // the device launch counter with streams; zero-block launches never
        // tick a clock), so `seq - 1` specifically may be absent while an
        // earlier launch still gates this one.
        let pred = |i: usize| -> Option<usize> {
            let e = &entries[i];
            entries
                .iter()
                .enumerate()
                .filter(|(_, o)| o.stream == e.stream && o.seq < e.seq)
                .max_by_key(|(_, o)| o.seq)
                .map(|(j, _)| j)
        };
        let mut remaining: Vec<usize> = order.clone();
        while !remaining.is_empty() {
            // An entry is eligible once its stream predecessor and all its
            // event deps have assigned end times.
            let mut best: Option<(f64, u32, u32, usize)> = None;
            for (pos, &i) in remaining.iter().enumerate() {
                let e = &entries[i];
                let pred_end = pred(i).map_or(Some(0.0), |p| end[p]);
                let Some(mut ready) = pred_end else { continue };
                let mut ok = true;
                for &(ds, dq) in &e.deps {
                    match find(ds, dq).map(|d| end[d]) {
                        Some(Some(t)) => ready = ready.max(t),
                        // Dep not yet scheduled: wait for it.
                        Some(None) => {
                            ok = false;
                            break;
                        }
                        // Dep launch never recorded (e.g. zero-block): no-op.
                        None => {}
                    }
                }
                if !ok {
                    continue;
                }
                let key = (ready, e.stream, e.seq);
                if best.is_none_or(|(r, s, q, _)| key < (r, s, q)) {
                    best = Some((ready, e.stream, e.seq, pos));
                }
            }
            let Some((ready, _, _, pos)) = best else {
                // Only possible with a dependency cycle, which event
                // semantics cannot express (an event is recorded at a fixed
                // clock value); treat defensively as serialized.
                let i = remaining.remove(0);
                let t = end.iter().flatten().fold(0.0f64, |a, &b| a.max(b));
                start[i] = Some(t);
                end[i] = Some(t + entries[i].seconds);
                continue;
            };
            let i = remaining.remove(pos);
            let e = &entries[i];
            // Earliest time >= ready with spare capacity for `occ`: load only
            // changes at start/end points of already-scheduled entries.
            let load_at = |t: f64| -> f64 {
                (0..entries.len())
                    .filter(|&j| {
                        matches!((start[j], end[j]), (Some(s), Some(en)) if s <= t + 1e-18 && en > t + 1e-18)
                    })
                    .map(|j| entries[j].occ)
                    .sum()
            };
            let mut t = ready;
            loop {
                if load_at(t) + e.occ <= 1.0 + 1e-9 {
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
            end[i] = Some(t + e.seconds);
        }
        end.into_iter().map(Option::unwrap).collect()
    }

    /// Random timelines like concurrent sessions record them: launches
    /// draw seqs from one device counter (so each stream's seqs have
    /// gaps), some on the host lane, with event deps on earlier launches
    /// of other streams and on never-recorded launches, pushed in a
    /// shuffled order.
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
            let mut entries: Vec<TimelineEntry> = Vec::with_capacity(n);
            for seq in 0..n as u32 {
                let stream = match next(streams as u64 + 1) as u32 {
                    s if s == streams => HOST_STREAM,
                    s => s,
                };
                let mut e = entry(
                    stream,
                    seq,
                    (1 + next(1000)) as f64 * 1e-6,
                    (1 + next(100)) as f64 / 100.0,
                );
                for _ in 0..next(3) {
                    if next(5) == 0 {
                        e.deps.push((next(streams as u64) as u32, n as u32 + 7));
                    } else if let Some(d) = entries.get(next(seq as u64 + 1) as usize) {
                        e.deps.push((d.stream, d.seq));
                    }
                }
                entries.push(e);
            }
            for i in (1..entries.len()).rev() {
                entries.swap(i, next(i as u64 + 1) as usize);
            }
            let got = simulate_end_times(&entries);
            let expect = end_times_by_rescan(&entries);
            let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&expect), "case {case}: {entries:?}");
        }
    }
}
