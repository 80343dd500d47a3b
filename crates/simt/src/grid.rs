//! Kernel launches: the device and its grid executor.
//!
//! [`Device::launch`] runs a kernel over a grid of blocks. Blocks are
//! independent in the classic sense (no intra-kernel barrier across
//! blocks — the CUDA guarantee the paper's `{local, global, local}`
//! structure is built around), so the simulator runs them in parallel
//! across host threads. Worker threads claim block ids from a shared
//! atomic counter (dynamic self-scheduling), which gives the one
//! forward-progress property single-pass chained scans need: a block
//! that has claimed a ticket has, by definition, already started, so a
//! later block spin-waiting on its published state only ever waits on
//! running (or finished) work. Per-block event counters are merged with
//! a reduction; no locks sit on the hot path.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::block::BlockCtx;
use crate::flight::{FlightEvent, FlightLog};
use crate::lock_unpoisoned;
use crate::obs::{telemetry, ObsStats, Telemetry};
use crate::profile::DeviceProfile;
use crate::sched::{self, AdvCore, AdvSchedule, Schedule, ScheduleAborted, ADV_WORKERS};
use crate::stats::{BlockStats, LaunchRecord};
use crate::stream::{self, SessionKind, Stream, TimelineEntry, HOST_STREAM};

/// Below this grid size the thread fan-out costs more than it saves.
const PARALLEL_GRID_THRESHOLD: usize = 16;

/// One task of a [`Device::concurrent`] session: a closure handed its
/// own [`Stream`] to launch on.
pub type StreamTask<'env, R> = Box<dyn FnOnce(&Stream) -> R + Send + 'env>;

/// A simulated GPU: a profile plus the log of every kernel launched on it.
pub struct Device {
    profile: DeviceProfile,
    /// Launch log, in push order. Concurrent streams push in whatever
    /// order the host threads reach the lock; every reader that needs a
    /// deterministic order sorts by `(stream, stream_seq)`.
    records: Mutex<Vec<LaunchRecord>>,
    scope: Mutex<String>,
    schedule: Schedule,
    /// Launches so far — mixed into the adversarial seed so each launch in
    /// a multi-kernel pipeline gets its own interleaving (deterministic:
    /// launch order on one device is program order).
    launch_counter: AtomicU64,
    /// Device-local stream indices handed out by [`Device::stream`] /
    /// [`Device::concurrent`] (deterministic: creation program order).
    stream_count: AtomicU32,
    /// Session id for streams created manually via [`Device::stream`];
    /// each [`Device::concurrent`] call gets its own fresh session.
    manual_session: u64,
    /// Modeled-concurrency timeline: one entry per recorded launch, from
    /// which [`Device::makespan`] computes overlapped execution time.
    timeline: Mutex<Vec<TimelineEntry>>,
}

impl Device {
    /// A device that executes blocks in parallel across host cores.
    pub fn new(profile: DeviceProfile) -> Self {
        Self::with_schedule(profile, Schedule::Parallel)
    }

    /// A single-threaded device (bit-identical scheduling; used by tests
    /// that inspect intermediate buffers between phases).
    pub fn sequential(profile: DeviceProfile) -> Self {
        Self::with_schedule(profile, Schedule::Sequential)
    }

    /// A device that executes blocks under a seeded adversarial schedule
    /// (see [`crate::sched`]): one worker runs at a time and a policy
    /// chooses who runs next at every device-scope access. Deterministic
    /// given the schedule, hostile by construction.
    pub fn adversarial(profile: DeviceProfile, adv: AdvSchedule) -> Self {
        Self::with_schedule(profile, Schedule::Adversarial(adv))
    }

    /// A device with an explicit execution [`Schedule`].
    pub fn with_schedule(profile: DeviceProfile, schedule: Schedule) -> Self {
        Self {
            profile,
            records: Mutex::new(Vec::new()),
            scope: Mutex::new(String::new()),
            schedule,
            launch_counter: AtomicU64::new(0),
            stream_count: AtomicU32::new(0),
            manual_session: stream::fresh_session_id(),
            timeline: Mutex::new(Vec::new()),
        }
    }

    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// The execution schedule this device runs blocks under.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// Run `f` with `scope/` prepended to every launch label — lets a
    /// composite algorithm (e.g. a radix-sort pass built from multisplit
    /// kernels) keep its own stage names in the launch log.
    ///
    /// The previous scope is restored by an RAII guard, so a panicking
    /// closure (caught upstream, e.g. in a test harness) cannot poison
    /// the labels of every later launch on the device.
    pub fn with_scope<R>(&self, scope: &str, f: impl FnOnce() -> R) -> R {
        struct Restore<'a> {
            scope: &'a Mutex<String>,
            prev_len: usize,
        }
        impl Drop for Restore<'_> {
            fn drop(&mut self) {
                lock_unpoisoned(self.scope).truncate(self.prev_len);
            }
        }
        let prev_len = {
            let mut s = lock_unpoisoned(&self.scope);
            let prev_len = s.len();
            s.push_str(scope);
            s.push('/');
            prev_len
        };
        let _restore = Restore {
            scope: &self.scope,
            prev_len,
        };
        f()
    }

    /// Launch `kernel` over `num_blocks` blocks of `warps_per_block` warps.
    ///
    /// The label names the launch for per-stage reporting; by convention
    /// it is `"algorithm/stage"` (e.g. `"direct/pre-scan"`).
    ///
    /// Under [`crate::obs::Telemetry::PerBlock`] (see
    /// [`crate::obs::with_telemetry`], read from the **calling** host
    /// thread) the record additionally retains every block's own stats,
    /// indexed by block id. Summed stats are bit-identical whichever
    /// telemetry level or executor is active: per-block counts are
    /// schedule-independent and u64 addition commutes.
    ///
    /// **Zero-block contract**: a zero-block launch is a true no-op —
    /// nothing runs and nothing is appended to the launch log, so empty
    /// grids cannot inflate `total_seconds()` or stage roll-ups. The
    /// *returned* `LaunchRecord` is still fully formed (label carries the
    /// active scope prefix, stats/seconds are zero) so callers can treat
    /// every launch uniformly, but it exists only in the return value.
    pub fn launch<F>(
        &self,
        label: &str,
        num_blocks: usize,
        warps_per_block: usize,
        kernel: F,
    ) -> LaunchRecord
    where
        F: Fn(&BlockCtx) + Sync,
    {
        let label = format!("{}{}", lock_unpoisoned(&self.scope), label);
        let per_block_wanted = telemetry() == Telemetry::PerBlock;
        // Flight-recorder capacity is a thread-local of the *calling*
        // thread; read it once here so worker threads see the same value.
        let flight_cap = crate::flight::flight_capacity();
        if num_blocks == 0 {
            return LaunchRecord {
                label,
                blocks: 0,
                warps_per_block,
                stats: BlockStats::default(),
                obs: ObsStats::default(),
                per_block: per_block_wanted.then(Vec::new),
                flight: (flight_cap > 0).then(FlightLog::default),
                seconds: 0.0,
                stream: HOST_STREAM,
                stream_seq: 0,
            };
        }
        // Every launch is a race-detection epoch boundary: the id is pinned
        // per worker thread while it runs a block, so writes from earlier
        // launches (already ordered by the launch sync point) never read as
        // same-epoch hazards, while intra-launch cross-block traffic does.
        let epoch = crate::memory::fresh_epoch();
        let launch_ix = self.launch_counter.fetch_add(1, Ordering::Relaxed);
        // Stream attribution: when the calling thread is inside a stream
        // context, the launch ticks that stream's clock, registers its
        // epoch with the versioned-clock detector, and collects any event
        // edges observed since the stream's previous launch. Host-lane
        // launches stay exactly as before.
        let stream_ctx = stream::current_state();
        let (stream_ix, stream_seq, deps) = match stream::stamp_launch(epoch) {
            Some((ix, seq, deps)) => (ix, seq, deps),
            None => (HOST_STREAM, launch_ix as u32, Vec::new()),
        };
        if stream_ix != HOST_STREAM {
            sched::note_stream(stream_ix);
        }
        let run_block = |b: usize| -> (BlockStats, ObsStats, Vec<FlightEvent>, u64) {
            // Attribute every tracked memory access in this block to block
            // id `b` (the read-write hazard detector names reader/writer),
            // and carry the stream identity onto whatever worker thread
            // runs the block so cross-stream checks see the right reader.
            let _stream_guard = stream_ctx
                .as_ref()
                .map(|(s, k)| stream::enter_stream_kind(Arc::clone(s), *k));
            let _blk_guard = crate::memory::enter_block(b);
            let _epoch_pin = crate::memory::enter_epoch(epoch);
            let blk = BlockCtx::new(b, num_blocks, warps_per_block);
            blk.stats().obs.set_flight_capacity(flight_cap);
            kernel(&blk);
            let (bs, bo, (mut fl, dropped)) = blk.into_parts();
            // The ring doesn't know its block; stamp events at retirement.
            for e in &mut fl {
                e.block = b as u32;
            }
            (bs, bo, fl, dropped)
        };
        // Each worker accumulates locally (no locks on the hot path) and
        // keeps `(block_id, stats)` pairs when per-block telemetry is on;
        // the pairs are scattered into an id-indexed Vec after the join,
        // so the retained order is deterministic whatever the claim order.
        let parallel_wanted =
            self.schedule == Schedule::Parallel && num_blocks >= PARALLEL_GRID_THRESHOLD;
        let (stats, obs, per_block, flight) = if sched::in_adversarial_session() {
            // This thread is already an installed adversarial worker — a
            // stream task inside Device::concurrent. Spawning a nested
            // AdvCore here would deadlock (the nested workers would wait
            // on a token this thread holds), so the launch's blocks run
            // sequentially inline on this worker, yielding at the block
            // claim and at every device-scope op — which is exactly where
            // the session scheduler interleaves *other streams'* blocks.
            // Within the launch, block b always follows block b-1, so
            // every look-back predecessor is published before anyone
            // spins on it; cross-stream hostility comes from the session
            // policy, not intra-launch reordering.
            let mut acc = BlockStats::default();
            let mut obs = ObsStats::default();
            let mut per_block = per_block_wanted.then(|| Vec::with_capacity(num_blocks));
            let mut fl: Vec<FlightEvent> = Vec::new();
            let mut fl_dropped = 0u64;
            for b in 0..num_blocks {
                sched::yield_block_start();
                sched::note_block(b);
                let (bs, bo, f, d) = run_block(b);
                acc += bs;
                obs += bo;
                fl.extend(f);
                fl_dropped += d;
                if let Some(pb) = per_block.as_mut() {
                    pb.push(bs);
                }
            }
            (acc, obs, per_block, (fl, fl_dropped))
        } else if let Schedule::Adversarial(adv) = self.schedule {
            // Adversarial executor: dynamic self-scheduling like the
            // parallel path, but exactly one worker runs at a time and the
            // seeded policy picks who at every yield point. Each launch
            // mixes the launch index into the seed so a multi-kernel
            // pipeline explores a different interleaving per kernel while
            // staying deterministic (launch order is program order).
            let workers = num_blocks.min(ADV_WORKERS);
            let seed = adv.seed ^ launch_ix.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let core = Arc::new(AdvCore::new(adv.flavor, seed, workers, adv.spin_budget));
            let next = AtomicUsize::new(0);
            let next = &next;
            let run_block = &run_block;
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let core = Arc::clone(&core);
                        s.spawn(move || {
                            // On unwind (ours or a preempted neighbour's)
                            // retire this worker so nobody waits on it.
                            struct FinishGuard<'a> {
                                core: &'a AdvCore,
                                w: usize,
                            }
                            impl Drop for FinishGuard<'_> {
                                fn drop(&mut self) {
                                    self.core.finish(self.w, std::thread::panicking());
                                }
                            }
                            let _fin = FinishGuard { core: &core, w };
                            let _inst = sched::install(Arc::clone(&core), w);
                            let mut acc = BlockStats::default();
                            let mut obs = ObsStats::default();
                            let mut kept: Vec<(usize, BlockStats)> = Vec::new();
                            let mut fl: Vec<FlightEvent> = Vec::new();
                            let mut fl_dropped = 0u64;
                            loop {
                                sched::yield_block_start();
                                let b = next.fetch_add(1, Ordering::Relaxed);
                                if b >= num_blocks {
                                    break;
                                }
                                // Tell the watchdog which block this worker
                                // runs, for its wait-for diagnosis.
                                sched::note_block(b);
                                let (bs, bo, f, d) = run_block(b);
                                acc += bs;
                                obs += bo;
                                fl.extend(f);
                                fl_dropped += d;
                                if per_block_wanted {
                                    kept.push((b, bs));
                                }
                            }
                            (acc, obs, kept, fl, fl_dropped)
                        })
                    })
                    .collect();
                let mut acc = BlockStats::default();
                let mut obs = ObsStats::default();
                let mut per_block =
                    per_block_wanted.then(|| vec![BlockStats::default(); num_blocks]);
                let mut fl: Vec<FlightEvent> = Vec::new();
                let mut fl_dropped = 0u64;
                // Re-raise the *original* panic; workers torn down with the
                // `ScheduleAborted` marker were collateral, not the bug.
                let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
                for h in handles {
                    match h.join() {
                        Ok((s, o, kept, f, d)) => {
                            acc += s;
                            obs += o;
                            fl.extend(f);
                            fl_dropped += d;
                            if let Some(pb) = per_block.as_mut() {
                                for (b, bs) in kept {
                                    pb[b] = bs;
                                }
                            }
                        }
                        Err(payload) => {
                            if !payload.is::<ScheduleAborted>() && first_panic.is_none() {
                                first_panic = Some(payload);
                            }
                        }
                    }
                }
                if let Some(payload) = first_panic {
                    std::panic::resume_unwind(payload);
                }
                (acc, obs, per_block, (fl, fl_dropped))
            })
        } else if parallel_wanted {
            let workers = std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(num_blocks);
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        s.spawn(|| {
                            let mut acc = BlockStats::default();
                            let mut obs = ObsStats::default();
                            let mut kept: Vec<(usize, BlockStats)> = Vec::new();
                            let mut fl: Vec<FlightEvent> = Vec::new();
                            let mut fl_dropped = 0u64;
                            loop {
                                let b = next.fetch_add(1, Ordering::Relaxed);
                                if b >= num_blocks {
                                    break;
                                }
                                let (bs, bo, f, d) = run_block(b);
                                acc += bs;
                                obs += bo;
                                fl.extend(f);
                                fl_dropped += d;
                                if per_block_wanted {
                                    kept.push((b, bs));
                                }
                            }
                            (acc, obs, kept, fl, fl_dropped)
                        })
                    })
                    .collect();
                let mut acc = BlockStats::default();
                let mut obs = ObsStats::default();
                let mut per_block =
                    per_block_wanted.then(|| vec![BlockStats::default(); num_blocks]);
                let mut fl: Vec<FlightEvent> = Vec::new();
                let mut fl_dropped = 0u64;
                for h in handles {
                    match h.join() {
                        Ok((s, o, kept, f, d)) => {
                            acc += s;
                            obs += o;
                            fl.extend(f);
                            fl_dropped += d;
                            if let Some(pb) = per_block.as_mut() {
                                for (b, bs) in kept {
                                    pb[b] = bs;
                                }
                            }
                        }
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                }
                (acc, obs, per_block, (fl, fl_dropped))
            })
        } else {
            let mut acc = BlockStats::default();
            let mut obs = ObsStats::default();
            let mut per_block = per_block_wanted.then(|| Vec::with_capacity(num_blocks));
            let mut fl: Vec<FlightEvent> = Vec::new();
            let mut fl_dropped = 0u64;
            for b in 0..num_blocks {
                let (bs, bo, f, d) = run_block(b);
                acc += bs;
                obs += bo;
                fl.extend(f);
                fl_dropped += d;
                if let Some(pb) = per_block.as_mut() {
                    pb.push(bs);
                }
            }
            (acc, obs, per_block, (fl, fl_dropped))
        };
        // Merge every block's ring into one stream sorted by (block, seq):
        // deterministic whatever order workers retired blocks in.
        let (mut fl_events, fl_dropped) = flight;
        fl_events.sort_by_key(|e| (e.block, e.seq));
        let seconds = self.profile.estimate(&stats);
        let record = LaunchRecord {
            label,
            blocks: num_blocks,
            warps_per_block,
            stats,
            obs,
            per_block,
            flight: (flight_cap > 0).then_some(FlightLog {
                events: fl_events,
                dropped: fl_dropped,
            }),
            seconds,
            stream: stream_ix,
            stream_seq,
        };
        lock_unpoisoned(&self.timeline).push(TimelineEntry {
            stream: stream_ix,
            seq: stream_seq,
            seconds,
            occ: (num_blocks as f64 / self.profile.sm_count as f64).min(1.0),
            deps,
        });
        lock_unpoisoned(&self.records).push(record.clone());
        record
    }

    /// All launches so far, in submission order. With concurrent streams
    /// the order *across* streams is nondeterministic; sort or filter by
    /// each record's `(stream, stream_seq)` for deterministic views.
    pub fn records(&self) -> Vec<LaunchRecord> {
        lock_unpoisoned(&self.records).clone()
    }

    /// Drain the launch log.
    pub fn take_records(&self) -> Vec<LaunchRecord> {
        std::mem::take(&mut *lock_unpoisoned(&self.records))
    }

    /// Clear the launch log (and the concurrency timeline with it).
    pub fn reset(&self) {
        lock_unpoisoned(&self.records).clear();
        lock_unpoisoned(&self.timeline).clear();
    }

    /// Total estimated seconds over all recorded launches — the
    /// *serialized* baseline: one launch after another, no overlap.
    /// Summed in `(stream, stream_seq)` order, so the total is
    /// bit-identical however concurrent streams interleaved their pushes.
    pub fn total_seconds(&self) -> f64 {
        stream::sum_in_stream_order(
            lock_unpoisoned(&self.records)
                .iter()
                .map(|r| (r.stream, r.stream_seq, r.seconds)),
        )
    }

    /// Total estimated seconds over launches whose label starts with
    /// `prefix`, summed in `(stream, stream_seq)` order.
    pub fn seconds_with_prefix(&self, prefix: &str) -> f64 {
        stream::sum_in_stream_order(
            lock_unpoisoned(&self.records)
                .iter()
                .filter(|r| r.label.starts_with(prefix))
                .map(|r| (r.stream, r.stream_seq, r.seconds)),
        )
    }

    /// Modeled end-to-end time with stream overlap: a deterministic
    /// discrete-event replay of the launch timeline under per-stream
    /// FIFO, event-wait edges, and occupancy packing (a launch occupies
    /// `min(1, blocks / sm_count)` of the device; concurrent launches
    /// share it up to capacity 1.0). Host-lane launches serialize in
    /// program order, so a device that never used streams has
    /// `makespan() == total_seconds()` exactly; with streams,
    /// `makespan() <= total_seconds()`, and the gap is the overlap win.
    pub fn makespan(&self) -> f64 {
        stream::simulate_makespan(&lock_unpoisoned(&self.timeline)).0
    }

    /// Device utilization over the overlapped timeline:
    /// `Σ duration·occupancy / makespan` (0.0 on an empty log).
    pub fn utilization(&self) -> f64 {
        let (makespan, busy) = stream::simulate_makespan(&lock_unpoisoned(&self.timeline));
        if makespan > 0.0 {
            busy / makespan
        } else {
            0.0
        }
    }

    /// Modeled finish time of every recorded launch on the overlapped
    /// timeline, keyed by `(stream index, per-stream launch number)` —
    /// the same simulation [`Device::makespan`] summarizes. Host-lane
    /// launches appear under [`crate::HOST_STREAM`] keyed by device
    /// launch index.
    pub fn completion_times(&self) -> Vec<(u32, u32, f64)> {
        let tl = lock_unpoisoned(&self.timeline);
        let ends = stream::simulate_end_times(&tl);
        tl.iter()
            .zip(ends)
            .map(|(e, t)| (e.stream, e.seq, t))
            .collect()
    }

    /// Create an independent launch queue on this device. Launches
    /// issued inside [`Stream::run`] are attributed to the stream and
    /// ordered FIFO against its other launches, but are *unordered*
    /// against other streams until an [`crate::stream::Event`] edge says
    /// otherwise — and the versioned-clock race detector holds the
    /// program to exactly that contract on tracked buffers.
    pub fn stream(&self) -> Stream {
        Stream::new(
            self.stream_count.fetch_add(1, Ordering::Relaxed),
            self.manual_session,
        )
    }

    /// Run `tasks` as one concurrency session: each task gets its own
    /// fresh [`Stream`] (device-local indices in task order) and every
    /// launch it issues lands on that stream. Returns each task's result
    /// in task order.
    ///
    /// The execution strategy follows the device [`Schedule`]:
    ///
    /// * [`Schedule::Sequential`] — tasks run one after another on the
    ///   calling thread (the *serialized reference order*: stream `i`'s
    ///   launches all precede stream `i+1`'s). Waiting on an event no
    ///   earlier task recorded panics rather than deadlocking.
    /// * [`Schedule::Parallel`] — one host thread per task; event waits
    ///   block on a condvar.
    /// * [`Schedule::Adversarial`] — all tasks become workers of a
    ///   single session-wide `AdvCore`: one task runs at a time and
    ///   the seeded policy picks who at every yield point (block claim,
    ///   ticket claim, device-scope op, look-back spin, event-wait
    ///   poll), interleaving *blocks of different streams' launches*
    ///   deterministically. The stall watchdog covers cross-stream
    ///   waits, naming streams in its dump.
    ///
    /// Nested sessions are not supported (a task must not call
    /// `concurrent` again); doing so panics.
    pub fn concurrent<'env, R: Send>(&self, tasks: Vec<StreamTask<'env, R>>) -> Vec<R> {
        assert!(
            !stream::in_stream_context(),
            "Device::concurrent does not nest: already inside a stream task"
        );
        let session = stream::fresh_session_id();
        let streams: Vec<Stream> = (0..tasks.len())
            .map(|_| Stream::new(self.stream_count.fetch_add(1, Ordering::Relaxed), session))
            .collect();
        match self.schedule {
            Schedule::Sequential => tasks
                .into_iter()
                .zip(&streams)
                .map(|(t, s)| {
                    let _ctx = stream::enter_stream_kind(
                        Arc::clone(&s.state),
                        Some(SessionKind::Sequential),
                    );
                    t(s)
                })
                .collect(),
            Schedule::Parallel => std::thread::scope(|sc| {
                let handles: Vec<_> = tasks
                    .into_iter()
                    .zip(&streams)
                    .map(|(t, s)| {
                        sc.spawn(move || {
                            let _ctx = stream::enter_stream_kind(
                                Arc::clone(&s.state),
                                Some(SessionKind::Parallel),
                            );
                            t(s)
                        })
                    })
                    .collect();
                let mut results = Vec::with_capacity(handles.len());
                let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
                for h in handles {
                    match h.join() {
                        Ok(r) => results.push(r),
                        Err(p) => {
                            if first_panic.is_none() {
                                first_panic = Some(p);
                            }
                        }
                    }
                }
                if let Some(p) = first_panic {
                    std::panic::resume_unwind(p);
                }
                results
            }),
            Schedule::Adversarial(adv) => {
                // One core for the whole session (workers = tasks); the
                // seed mixes the device's launch count so back-to-back
                // sessions explore different interleavings while staying
                // deterministic (launch order is program order).
                let seed = adv.seed
                    ^ self
                        .launch_counter
                        .load(Ordering::Relaxed)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let core = Arc::new(AdvCore::new(
                    adv.flavor,
                    seed,
                    streams.len(),
                    adv.spin_budget,
                ));
                std::thread::scope(|sc| {
                    let handles: Vec<_> = tasks
                        .into_iter()
                        .zip(&streams)
                        .enumerate()
                        .map(|(w, (t, s))| {
                            let core = Arc::clone(&core);
                            sc.spawn(move || {
                                struct FinishGuard<'a> {
                                    core: &'a AdvCore,
                                    w: usize,
                                }
                                impl Drop for FinishGuard<'_> {
                                    fn drop(&mut self) {
                                        self.core.finish(self.w, std::thread::panicking());
                                    }
                                }
                                let _fin = FinishGuard { core: &core, w };
                                let _inst = sched::install(Arc::clone(&core), w);
                                sched::note_stream(s.index());
                                let _ctx = stream::enter_stream_kind(
                                    Arc::clone(&s.state),
                                    Some(SessionKind::Adversarial),
                                );
                                t(s)
                            })
                        })
                        .collect();
                    let mut results = Vec::with_capacity(handles.len());
                    let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
                    for h in handles {
                        match h.join() {
                            Ok(r) => results.push(r),
                            Err(payload) => {
                                if !payload.is::<ScheduleAborted>() && first_panic.is_none() {
                                    first_panic = Some(payload);
                                }
                            }
                        }
                    }
                    if let Some(p) = first_panic {
                        std::panic::resume_unwind(p);
                    }
                    results
                })
            }
        }
    }
}

/// Grid-size helper: blocks needed so that `grid_blocks * threads_per_block`
/// covers `n` elements with one element per thread.
pub fn blocks_for(n: usize, warps_per_block: usize) -> usize {
    n.div_ceil(warps_per_block * crate::lanes::WARP_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::{lanes_from_fn, splat, WARP_SIZE};
    use crate::memory::GlobalBuffer;
    use crate::profile::K40C;

    #[test]
    fn blocks_for_covers_input() {
        assert_eq!(blocks_for(0, 8), 0);
        assert_eq!(blocks_for(1, 8), 1);
        assert_eq!(blocks_for(256, 8), 1);
        assert_eq!(blocks_for(257, 8), 2);
        assert_eq!(blocks_for(1 << 20, 8), 4096);
    }

    #[test]
    fn total_seconds_ignore_push_order() {
        // Launch order and push order agree on one host thread; reversing
        // the log stands in for streams that finish out of order. The
        // durations are chosen so that f64 addition order shows.
        let dev = Device::sequential(K40C);
        for _ in 0..3 {
            dev.launch("noop", 1, 1, |_| {});
        }
        let tiny = f64::EPSILON / 2.0;
        for (r, s) in lock_unpoisoned(&dev.records)
            .iter_mut()
            .zip([1.0, tiny, tiny])
        {
            r.seconds = s;
        }
        let forward = dev.total_seconds();
        assert_eq!(forward, 1.0, "launch order: 1 + tiny + tiny");
        lock_unpoisoned(&dev.records).reverse();
        assert_eq!(dev.total_seconds().to_bits(), forward.to_bits());
        assert_eq!(dev.seconds_with_prefix("no").to_bits(), forward.to_bits());
    }

    /// A copy kernel: every thread moves one element.
    fn copy_kernel(
        dev: &Device,
        src: &GlobalBuffer<u32>,
        dst: &GlobalBuffer<u32>,
        n: usize,
        wpb: usize,
    ) {
        let blocks = blocks_for(n, wpb);
        dev.launch("copy", blocks, wpb, |blk| {
            for w in blk.warps() {
                let base = w.global_warp_id * WARP_SIZE;
                let idx = lanes_from_fn(|l| base + l);
                let mask = crate::lanes::lanes_from_fn(|l| base + l < n)
                    .iter()
                    .enumerate()
                    .fold(0u32, |m, (l, &a)| if a { m | 1 << l } else { m });
                let v = w.gather(src, idx, mask);
                w.scatter(dst, idx, v, mask);
            }
        });
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let n = 10_000;
        let data: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let mut outputs = Vec::new();
        let mut stats = Vec::new();
        for dev in [Device::new(K40C), Device::sequential(K40C)] {
            let src = GlobalBuffer::from_slice(&data);
            let dst = GlobalBuffer::<u32>::zeroed(n);
            copy_kernel(&dev, &src, &dst, n, 8);
            outputs.push(dst.to_vec());
            stats.push(dev.records()[0].stats);
        }
        assert_eq!(outputs[0], data);
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(stats[0], stats[1], "stats must be schedule-independent");
    }

    #[test]
    fn records_accumulate_and_reset() {
        let dev = Device::sequential(K40C);
        dev.launch("a/one", 1, 1, |_| {});
        dev.launch("a/two", 2, 2, |_| {});
        dev.launch("b/one", 1, 1, |_| {});
        assert_eq!(dev.records().len(), 3);
        assert!(dev.seconds_with_prefix("a/") > dev.seconds_with_prefix("b/"));
        assert!((dev.total_seconds() - dev.seconds_with_prefix("")).abs() < 1e-15);
        let drained = dev.take_records();
        assert_eq!(drained.len(), 3);
        assert!(dev.records().is_empty());
    }

    #[test]
    fn launch_reports_grid_shape() {
        let dev = Device::sequential(K40C);
        let rec = dev.launch("shape", 7, 4, |blk| {
            assert_eq!(blk.num_blocks, 7);
            assert_eq!(blk.warps_per_block, 4);
        });
        assert_eq!(rec.blocks, 7);
        assert_eq!(rec.warps_per_block, 4);
        assert_eq!(rec.label, "shape");
    }

    #[test]
    fn scopes_nest_and_restore() {
        let dev = Device::sequential(K40C);
        dev.with_scope("radix", || {
            dev.launch("label", 1, 1, |_| {});
            dev.with_scope("pass0", || {
                dev.launch("scan", 1, 1, |_| {});
            });
        });
        dev.launch("plain", 1, 1, |_| {});
        let labels: Vec<String> = dev.records().iter().map(|r| r.label.clone()).collect();
        assert_eq!(labels, vec!["radix/label", "radix/pass0/scan", "plain"]);
        assert!(dev.seconds_with_prefix("radix/") > 0.0);
    }

    #[test]
    fn scope_restored_when_closure_panics() {
        let dev = Device::sequential(K40C);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.with_scope("doomed", || panic!("kernel bug"));
        }));
        assert!(caught.is_err());
        dev.launch("after", 1, 1, |_| {});
        assert_eq!(
            dev.records()[0].label,
            "after",
            "scope must unwind with the panic"
        );
    }

    #[test]
    fn zero_block_launch_is_a_noop() {
        let dev = Device::new(K40C);
        let rec = dev.launch("empty", 0, 8, |_| panic!("must not run"));
        assert_eq!(rec.stats, BlockStats::default());
        assert_eq!(rec.seconds, 0.0);
        assert!(
            dev.records().is_empty(),
            "no-op launches must not be recorded"
        );
        assert_eq!(dev.total_seconds(), 0.0);
    }

    #[test]
    fn scoped_zero_block_launch_is_a_noop_with_prefixed_label() {
        // The zero-block contract: the returned record carries the active
        // scope prefix, but the launch log stays untouched.
        let dev = Device::new(K40C);
        let rec = dev.with_scope("outer", || {
            dev.with_scope("inner", || {
                dev.launch("empty", 0, 8, |_| panic!("must not run"))
            })
        });
        assert_eq!(rec.label, "outer/inner/empty");
        assert_eq!(rec.stats, BlockStats::default());
        assert_eq!(rec.seconds, 0.0);
        assert!(
            dev.records().is_empty(),
            "zero-block launch must not record"
        );
        assert_eq!(dev.seconds_with_prefix("outer/"), 0.0);
    }

    #[test]
    fn per_block_telemetry_retains_indexed_stats() {
        use crate::obs::{with_telemetry, Telemetry};
        let n = 10_000;
        let data: Vec<u32> = (0..n as u32).collect();
        // Summary (default): no per-block vector.
        let dev = Device::new(K40C);
        let src = GlobalBuffer::from_slice(&data);
        let dst = GlobalBuffer::<u32>::zeroed(n);
        copy_kernel(&dev, &src, &dst, n, 8);
        let summary = dev.records()[0].clone();
        assert!(summary.per_block.is_none());
        // PerBlock on both executors: same summed stats as Summary, same
        // id-indexed per-block vectors, and the vector sums to the total.
        let mut per_block_runs = Vec::new();
        for dev in [Device::new(K40C), Device::sequential(K40C)] {
            let src = GlobalBuffer::from_slice(&data);
            let dst = GlobalBuffer::<u32>::zeroed(n);
            with_telemetry(Telemetry::PerBlock, || {
                copy_kernel(&dev, &src, &dst, n, 8);
            });
            per_block_runs.push(dev.records()[0].clone());
        }
        for rec in &per_block_runs {
            assert_eq!(rec.stats, summary.stats, "telemetry must not change sums");
            let pb = rec.per_block.as_ref().expect("per-block retained");
            assert_eq!(pb.len(), rec.blocks);
            let mut sum = BlockStats::default();
            for b in pb {
                sum += *b;
            }
            assert_eq!(sum, rec.stats, "per-block stats must sum to the total");
        }
        assert_eq!(
            per_block_runs[0].per_block, per_block_runs[1].per_block,
            "block-id-indexed stats must be schedule-independent"
        );
    }

    #[test]
    fn adversarial_flavors_agree_with_sequential() {
        use crate::sched::{AdvFlavor, AdvSchedule};
        let n = 10_000;
        let data: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let reference = {
            let dev = Device::sequential(K40C);
            let src = GlobalBuffer::from_slice(&data);
            let dst = GlobalBuffer::<u32>::zeroed(n);
            copy_kernel(&dev, &src, &dst, n, 8);
            (dst.to_vec(), dev.records()[0].stats)
        };
        for flavor in AdvFlavor::ALL {
            let dev = Device::adversarial(K40C, AdvSchedule::with_flavor(0xC0FFEE, flavor));
            assert!(matches!(
                dev.schedule(),
                crate::sched::Schedule::Adversarial(_)
            ));
            let src = GlobalBuffer::from_slice(&data);
            let dst = GlobalBuffer::<u32>::zeroed(n);
            copy_kernel(&dev, &src, &dst, n, 8);
            assert_eq!(dst.to_vec(), reference.0, "{flavor:?} output");
            assert_eq!(
                dev.records()[0].stats,
                reference.1,
                "{flavor:?} stats must be schedule-independent"
            );
        }
    }

    #[test]
    fn adversarial_runs_every_block_once_even_on_small_grids() {
        use crate::sched::AdvSchedule;
        // Below PARALLEL_GRID_THRESHOLD and above ADV_WORKERS: both
        // boundaries of the worker-multiplexing logic.
        for n_blocks in [1, 3, ADV_WORKERS, 64] {
            let dev = Device::adversarial(K40C, AdvSchedule::from_seed(7));
            let hits = GlobalBuffer::<u32>::zeroed(n_blocks);
            dev.launch("adv-dyn", n_blocks, 1, |blk| {
                for w in blk.warps() {
                    w.atomic_add(&hits, splat(blk.block_id), splat(1u32), 1);
                }
            });
            assert_eq!(hits.to_vec(), vec![1u32; n_blocks], "{n_blocks} blocks");
        }
    }

    #[test]
    fn adversarial_per_block_telemetry_is_id_indexed() {
        use crate::obs::{with_telemetry, Telemetry};
        use crate::sched::AdvSchedule;
        let n = 10_000;
        let data: Vec<u32> = (0..n as u32).collect();
        let mut runs = Vec::new();
        for dev in [
            Device::sequential(K40C),
            Device::adversarial(K40C, AdvSchedule::from_seed(41)),
        ] {
            let src = GlobalBuffer::from_slice(&data);
            let dst = GlobalBuffer::<u32>::zeroed(n);
            with_telemetry(Telemetry::PerBlock, || {
                copy_kernel(&dev, &src, &dst, n, 8);
            });
            runs.push(dev.records()[0].clone());
        }
        assert_eq!(
            runs[0].per_block, runs[1].per_block,
            "per-block stats must be schedule-independent"
        );
    }

    #[test]
    fn adversarial_panics_propagate_the_original_payload() {
        use crate::sched::AdvSchedule;
        let dev = Device::adversarial(K40C, AdvSchedule::from_seed(2));
        let counter = GlobalBuffer::<u32>::zeroed(1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.launch("doomed", 32, 1, |blk| {
                let w = blk.warp(0);
                let t = w.device_fetch_add(&counter, 0, 1);
                if t == 13 {
                    panic!("kernel bug in tile 13");
                }
                // Touch another yield point so preempted workers are
                // plausibly waiting when the panic lands.
                w.device_peek(&counter, 0);
            });
        }));
        let payload = caught.expect_err("launch must propagate the kernel panic");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("kernel bug in tile 13"),
            "must re-raise the original panic, not the abort marker (got {msg:?})"
        );
        // The device stays usable afterwards.
        dev.launch("after", 4, 1, |_| {});
        assert_eq!(dev.records().last().unwrap().label, "after");
    }

    #[test]
    fn parallel_grid_uses_dynamic_scheduling() {
        // Large enough to cross PARALLEL_GRID_THRESHOLD; every block must
        // run exactly once regardless of how workers interleave.
        let dev = Device::new(K40C);
        let n_blocks = 64;
        let hits = GlobalBuffer::<u32>::zeroed(n_blocks);
        dev.launch("dyn", n_blocks, 1, |blk| {
            for w in blk.warps() {
                w.atomic_add(&hits, splat(blk.block_id), splat(1u32), 1);
            }
        });
        assert_eq!(hits.to_vec(), vec![1u32; n_blocks]);
    }
}
