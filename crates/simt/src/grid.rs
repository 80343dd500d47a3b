//! Kernel launches: the device and its grid executor.
//!
//! [`Device::launch`] runs a kernel over a grid of blocks. Blocks are
//! independent in the classic sense (no intra-kernel barrier across
//! blocks — the CUDA guarantee the paper's `{local, global, local}`
//! structure is built around), so every schedule runs the same claim
//! loop: a worker claims the next block id from a shared atomic counter
//! (dynamic self-scheduling), runs the block and retires its counters
//! into a worker-local accumulator, until the grid is exhausted. Claiming
//! in id order gives the one forward-progress property single-pass
//! chained scans need: a block that has claimed a ticket has, by
//! definition, already started, so a later block spin-waiting on its
//! published state only ever waits on running (or finished) work. The
//! workers' accumulators merge after the join; no locks sit on the hot
//! path.
//!
//! A [`Schedule`] makes two choices and no others: how many host workers
//! run the loop, and whether they share an adversarial run token (see
//! [`crate::sched`]). Sequential launches, and parallel launches below
//! `PARALLEL_GRID_THRESHOLD` blocks, run one worker on the calling
//! thread. Larger parallel launches run one worker per host core.
//! Adversarial launches run `min(blocks, ADV_WORKERS)` workers on a fresh
//! token. A launch inside an adversarial [`Device::concurrent`] session
//! runs one worker inline, on the session's token. [`Device::concurrent`]
//! starts its stream tasks on the same scoped worker pool.
//!
//! A device keeps one launch log. `launch` appends each record to it
//! once, and everything that reports on the device reads it: the records
//! themselves, the serialized sums (`total_seconds`), and the
//! [`crate::stream`] makespan model behind `makespan`, `utilization` and
//! `completion_times`.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::block::BlockCtx;
use crate::flight::{FlightEvent, FlightLog};
use crate::lock_unpoisoned;
use crate::obs::ObsStats;
use crate::profile::DeviceProfile;
use crate::sched::{self, AdvCore, AdvSchedule, Schedule, ScheduleAborted, ADV_WORKERS};
use crate::stats::{BlockStats, LaunchRecord};
use crate::stream::{self, Stream, HOST_STREAM};

/// Below this grid size the thread fan-out costs more than it saves.
const PARALLEL_GRID_THRESHOLD: usize = 16;

/// One task of a [`Device::concurrent`] session: a closure handed its
/// own [`Stream`] to launch on.
pub type StreamTask<'env, R> = Box<dyn FnOnce(&Stream) -> R + Send + 'env>;

/// A simulated GPU: a profile plus the log of every kernel launched on it.
pub struct Device {
    profile: DeviceProfile,
    /// The launch log, in push order. Concurrent streams push in
    /// whatever order the host threads reach the lock; every reader that
    /// needs a deterministic order sorts by `(stream, stream_seq)`, and
    /// the makespan model replays it.
    records: Mutex<Vec<LaunchRecord>>,
    scope: Mutex<String>,
    schedule: Schedule,
    /// Launches so far — mixed into the adversarial seed so each launch in
    /// a multi-kernel pipeline gets its own interleaving (deterministic:
    /// launch order on one device is program order).
    launch_counter: AtomicU64,
    /// Device-local stream indices handed out by [`Device::concurrent`]
    /// (deterministic: creation program order).
    stream_count: AtomicU32,
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
    /// The record keeps every block's own stats beside their sum, indexed
    /// by block id. Both are bit-identical whichever executor is active:
    /// per-block counts are schedule-independent and u64 addition
    /// commutes.
    ///
    /// The record is appended to the launch log ([`Device::records`]);
    /// nothing is returned.
    ///
    /// **Zero-block contract**: a zero-block launch is a true no-op —
    /// nothing runs and nothing is appended to the launch log, so empty
    /// grids cannot inflate `total_seconds()` or stage roll-ups.
    pub fn launch<F>(&self, label: &str, num_blocks: usize, warps_per_block: usize, kernel: F)
    where
        F: Fn(&BlockCtx) + Sync,
    {
        if num_blocks == 0 {
            return;
        }
        let label = format!("{}{}", lock_unpoisoned(&self.scope), label);
        // Flight-recorder capacity is a thread-local of the *calling*
        // thread; read it once here so worker threads see the same value.
        let flight_cap = crate::flight::flight_capacity();
        // Every launch is a race-detection epoch boundary: the id is pinned
        // per worker thread while it runs a block, so writes from earlier
        // launches (already ordered by the launch sync point) never read as
        // same-epoch hazards, while intra-launch cross-block traffic does.
        let epoch = crate::memory::fresh_epoch();
        let launch_ix = self.launch_counter.fetch_add(1, Ordering::Relaxed);
        // Stream attribution: when the calling thread is inside a stream
        // context, the launch ticks that stream's clock and registers its
        // epoch with the versioned-clock detector. Host-lane launches are
        // numbered by the device launch counter.
        let stream_ctx = stream::current_state();
        let (stream_ix, stream_seq) = match &stream_ctx {
            Some(s) => (s.ix, s.stamp_launch(epoch)),
            None => (HOST_STREAM, launch_ix as u32),
        };
        let run_block = |b: usize, retired: &mut Retired| {
            // Attribute every tracked memory access in this block to block
            // id `b` (the read-write hazard detector names reader/writer),
            // and carry the stream identity onto whatever worker thread
            // runs the block so cross-stream checks see the right reader.
            let _stream_guard = stream_ctx.clone().map(stream::enter_stream);
            let _blk_guard = crate::memory::enter_block(b);
            let _epoch_pin = crate::memory::enter_epoch(epoch);
            let blk = BlockCtx::new(b, num_blocks, warps_per_block);
            blk.stats().obs.set_flight_capacity(flight_cap);
            kernel(&blk);
            let (stats, obs, (flight, dropped)) = blk.into_parts();
            retired.stats += stats;
            retired.obs += obs;
            retired.per_block.push((b, stats));
            // The ring doesn't know its block; stamp events at retirement.
            let block = b as u32;
            retired
                .flight
                .extend(flight.into_iter().map(|e| FlightEvent { block, ..e }));
            retired.dropped += dropped;
        };
        let next = AtomicUsize::new(0);
        // The one claim loop. The yield lets an adversarial policy order
        // the claims and the note names the block in watchdog diagnoses;
        // both are no-ops on a thread that is no adversarial worker.
        let drain = || {
            let mut retired = Retired::default();
            loop {
                sched::yield_block_start();
                let b = next.fetch_add(1, Ordering::Relaxed);
                if b >= num_blocks {
                    return retired;
                }
                sched::note_block(b);
                run_block(b, &mut retired);
            }
        };
        let retired = match self.workers(num_blocks, launch_ix) {
            (1, None) => drain(),
            (workers, core) => run_workers(vec![drain; workers], core)
                .into_iter()
                .reduce(Retired::merge)
                .unwrap_or_default(),
        };
        // Scatter the kept pairs into an id-indexed vector and merge every
        // block's ring into one stream sorted by (block, seq): both are
        // deterministic whatever order the workers retired blocks in.
        let mut per_block = vec![BlockStats::default(); num_blocks];
        for (b, stats) in retired.per_block {
            per_block[b] = stats;
        }
        let mut events = retired.flight;
        events.sort_by_key(|e| (e.block, e.seq));
        let record = LaunchRecord {
            label,
            blocks: num_blocks,
            warps_per_block,
            stats: retired.stats,
            obs: retired.obs,
            per_block,
            flight: (flight_cap > 0).then_some(FlightLog {
                events,
                dropped: retired.dropped,
            }),
            seconds: self.profile.estimate(&retired.stats),
            stream: stream_ix,
            stream_seq,
        };
        lock_unpoisoned(&self.records).push(record);
    }

    /// The two choices a schedule makes for a launch: how many host
    /// workers run the claim loop, and the adversarial run token they
    /// share, if any. One worker without a token runs on the calling
    /// thread.
    fn workers(&self, num_blocks: usize, launch_ix: u64) -> (usize, Option<Arc<AdvCore>>) {
        if sched::in_adversarial_session() {
            // This thread is already an installed adversarial worker — a
            // stream task inside Device::concurrent. A nested token would
            // deadlock (its workers would wait on a token this thread
            // holds), so the blocks run inline in id order, yielding at
            // every claim and device-scope op — which is exactly where the
            // session policy interleaves *other streams'* blocks. Every
            // look-back predecessor is published before anyone spins on
            // it; cross-stream hostility comes from the session policy,
            // not intra-launch reordering.
            return (1, None);
        }
        match self.schedule {
            Schedule::Adversarial(adv) => {
                let workers = num_blocks.min(ADV_WORKERS);
                (
                    workers,
                    Some(Arc::new(AdvCore::new(adv, launch_ix, workers))),
                )
            }
            Schedule::Parallel if num_blocks >= PARALLEL_GRID_THRESHOLD => {
                let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
                (cores.min(num_blocks), None)
            }
            _ => (1, None),
        }
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

    /// Clear the launch log.
    pub fn reset(&self) {
        lock_unpoisoned(&self.records).clear();
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
    /// discrete-event replay of the launch log under per-stream FIFO and
    /// occupancy packing (a launch occupies `min(1, blocks / sm_count)`
    /// of the device; concurrent launches share it up to capacity 1.0).
    /// Host-lane launches serialize in program order, so a device that
    /// never used streams has `makespan() == total_seconds()` exactly;
    /// with streams, `makespan() <= total_seconds()`, and the gap is the
    /// overlap win. Reads the same log as [`Device::records`], so it is 0
    /// after [`Device::take_records`] or [`Device::reset`].
    pub fn makespan(&self) -> f64 {
        self.simulate().0
    }

    /// Device utilization over the overlapped replay:
    /// `Σ duration·occupancy / makespan` (0.0 on an empty log).
    pub fn utilization(&self) -> f64 {
        let (makespan, busy) = self.simulate();
        if makespan > 0.0 {
            busy / makespan
        } else {
            0.0
        }
    }

    /// Modeled finish time of every recorded launch on the overlapped
    /// replay, keyed by `(stream index, per-stream launch number)` —
    /// the same simulation [`Device::makespan`] summarizes. Host-lane
    /// launches appear under [`crate::HOST_STREAM`] keyed by device
    /// launch index.
    pub fn completion_times(&self) -> Vec<(u32, u32, f64)> {
        let records = lock_unpoisoned(&self.records);
        let ends = stream::simulate_end_times(&records, self.profile.sm_count);
        records
            .iter()
            .zip(ends)
            .map(|(r, t)| (r.stream, r.stream_seq, t))
            .collect()
    }

    fn simulate(&self) -> (f64, f64) {
        stream::simulate_makespan(&lock_unpoisoned(&self.records), self.profile.sm_count)
    }

    /// Run `tasks` as one concurrency session: each task gets its own
    /// fresh [`Stream`] (device-local indices in task order) and every
    /// launch it issues lands on that stream. Streams of one session are
    /// unordered against each other; the return is a full join. Returns
    /// each task's result in task order.
    ///
    /// The execution strategy follows the device [`Schedule`]:
    ///
    /// * [`Schedule::Sequential`] — tasks run one after another on the
    ///   calling thread (the *serialized reference order*: stream `i`'s
    ///   launches all precede stream `i+1`'s).
    /// * [`Schedule::Parallel`] — one host thread per task.
    /// * [`Schedule::Adversarial`] — all tasks become workers of a
    ///   single session-wide `AdvCore`: one task runs at a time and
    ///   the seeded policy picks who at every yield point (block claim,
    ///   ticket claim, device-scope op, look-back spin), interleaving
    ///   *blocks of different streams' launches* deterministically. The
    ///   stall watchdog names streams in its dump.
    ///
    /// Nested sessions are not supported (a task must not call
    /// `concurrent` again); doing so panics.
    pub fn concurrent<'env, R: Send>(&self, tasks: Vec<StreamTask<'env, R>>) -> Vec<R> {
        assert!(
            !stream::in_stream_context(),
            "Device::concurrent does not nest: already inside a stream task"
        );
        // Dropped at the join, unwinding or not: the session's epochs
        // leave the detector's registry with it.
        let session = stream::Session::begin();
        let bodies: Vec<_> = tasks
            .into_iter()
            .map(|task| {
                let ix = self.stream_count.fetch_add(1, Ordering::Relaxed);
                let s = Stream::new(ix, session.id());
                move || {
                    sched::note_stream(ix);
                    let _ctx = stream::enter_stream(Arc::clone(&s.state));
                    task(&s)
                }
            })
            .collect();
        match self.schedule {
            Schedule::Sequential => bodies.into_iter().map(|body| body()).collect(),
            Schedule::Parallel => run_workers(bodies, None),
            Schedule::Adversarial(adv) => {
                // One token for the whole session, one worker per task.
                let launches = self.launch_counter.load(Ordering::Relaxed);
                let core = AdvCore::new(adv, launches, bodies.len());
                run_workers(bodies, Some(Arc::new(core)))
            }
        }
    }
}

/// Grid-size helper: blocks needed so that `grid_blocks * threads_per_block`
/// covers `n` elements with one element per thread.
pub fn blocks_for(n: usize, warps_per_block: usize) -> usize {
    n.div_ceil(warps_per_block * crate::lanes::WARP_SIZE)
}

/// What a worker's claim loop retires, summed over its blocks; the
/// workers of one launch merge theirs after the join.
#[derive(Default)]
struct Retired {
    stats: BlockStats,
    obs: ObsStats,
    /// `(block id, stats)` of every retired block.
    per_block: Vec<(usize, BlockStats)>,
    /// Block-stamped flight events, in retirement order.
    flight: Vec<FlightEvent>,
    dropped: u64,
}

impl Retired {
    fn merge(mut self, other: Retired) -> Retired {
        self.stats += other.stats;
        self.obs += other.obs;
        self.per_block.extend(other.per_block);
        self.flight.extend(other.flight);
        self.dropped += other.dropped;
        self
    }
}

/// Run every body on its own scoped host thread and return the results
/// in body order. With `core`, thread `w` runs as adversarial worker `w`
/// and is retired from the core when it exits or unwinds (ours or a
/// preempted neighbour's panic), so nobody waits on it. Re-raises the
/// first *original* panic: workers torn down with the `ScheduleAborted`
/// marker were collateral, not the bug.
fn run_workers<R: Send>(
    bodies: Vec<impl FnOnce() -> R + Send>,
    core: Option<Arc<AdvCore>>,
) -> Vec<R> {
    struct FinishGuard<'a> {
        core: &'a AdvCore,
        w: usize,
    }
    impl Drop for FinishGuard<'_> {
        fn drop(&mut self) {
            self.core.finish(self.w, std::thread::panicking());
        }
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = bodies
            .into_iter()
            .enumerate()
            .map(|(w, body)| {
                let core = core.clone();
                s.spawn(move || {
                    let _fin = core.as_deref().map(|core| FinishGuard { core, w });
                    let _inst = core.clone().map(|core| sched::install(core, w));
                    body()
                })
            })
            .collect();
        let mut results = Vec::with_capacity(handles.len());
        let mut first_panic = None;
        for h in handles {
            match h.join() {
                Ok(r) => results.push(r),
                Err(payload) if !payload.is::<ScheduleAborted>() => {
                    first_panic.get_or_insert(payload);
                }
                Err(_) => {}
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        results
    })
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
        dev.launch("shape", 7, 4, |blk| {
            assert_eq!(blk.num_blocks, 7);
            assert_eq!(blk.warps_per_block, 4);
        });
        let rec = dev.records().remove(0);
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
        dev.launch("empty", 0, 8, |_| panic!("must not run"));
        dev.with_scope("outer", || {
            dev.launch("empty", 0, 8, |_| panic!("must not run"))
        });
        assert!(
            dev.records().is_empty(),
            "no-op launches must not be recorded"
        );
        assert_eq!(dev.total_seconds(), 0.0);
        assert_eq!(dev.seconds_with_prefix("outer/"), 0.0);
    }

    /// `makespan`, `utilization` and `completion_times` replay the same
    /// log `records` returns: draining or clearing it empties them too.
    #[test]
    fn overlap_model_reads_the_launch_log() {
        let dev = Device::new(K40C);
        let tasks: Vec<StreamTask<'_, ()>> = (0..2)
            .map(|_| Box::new(|_: &Stream| dev.launch("k", 3, 1, |_| {})) as StreamTask<'_, ()>)
            .collect();
        dev.concurrent(tasks);
        dev.launch("host", 2, 1, |_| {});
        let mut keys: Vec<(u32, u32)> = dev
            .completion_times()
            .iter()
            .map(|&(s, q, _)| (s, q))
            .collect();
        let mut logged: Vec<(u32, u32)> = dev
            .records()
            .iter()
            .map(|r| (r.stream, r.stream_seq))
            .collect();
        keys.sort_unstable();
        logged.sort_unstable();
        assert_eq!(keys, logged, "one completion time per logged launch");
        assert!(dev.makespan() > 0.0 && dev.utilization() > 0.0);
        assert!(
            dev.makespan() < dev.total_seconds(),
            "the two streams overlap"
        );
        let drained = dev.take_records();
        assert_eq!(drained.len(), 3);
        assert_eq!(dev.makespan(), 0.0, "take_records drains the replay");
        assert_eq!(dev.utilization(), 0.0);
        assert!(dev.completion_times().is_empty());
        dev.launch("again", 2, 1, |_| {});
        assert!(dev.makespan() > 0.0);
        dev.reset();
        assert_eq!(dev.makespan(), 0.0, "reset clears the replay");
        assert!(dev.completion_times().is_empty());
    }

    /// Every schedule's claim loop runs each block exactly once and
    /// retires the same launch: outputs, summed stats, id-indexed
    /// per-block stats and the `(block, seq)`-sorted flight log.
    #[test]
    fn every_schedule_runs_each_block_once_and_retires_the_same_launch() {
        use crate::flight::EventKind;
        use crate::lanes::lane_mask_lt;
        use crate::sched::{AdvFlavor, AdvSchedule};
        let wpb = 2;
        // A copy whose last warp is partial, one hit per block, one device
        // ticket per block (an adversarial yield point) and `1 + b % 3`
        // flight events per block.
        let launch = |dev: &Device, blocks: usize| {
            let n = blocks * wpb * WARP_SIZE - 7;
            let data: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761)).collect();
            let src = GlobalBuffer::from_slice(&data);
            let dst = GlobalBuffer::<u32>::zeroed(n);
            let hits = GlobalBuffer::<u32>::zeroed(blocks);
            let tickets = GlobalBuffer::<u32>::zeroed(1);
            dev.launch("copy", blocks, wpb, |blk| {
                let b = blk.block_id;
                let w0 = blk.warp(0);
                w0.device_fetch_add(&tickets, 0, 1);
                w0.atomic_add(&hits, splat(b), splat(1u32), 1);
                blk.stats()
                    .obs
                    .flight_emit(EventKind::TicketClaim, b as u32, 0, 0);
                for w in blk.warps() {
                    let base = w.global_warp_id * WARP_SIZE;
                    let live = n.saturating_sub(base).min(WARP_SIZE);
                    let mask = if live == WARP_SIZE {
                        u32::MAX
                    } else {
                        lane_mask_lt(live)
                    };
                    let idx = lanes_from_fn(|l| base + l);
                    let v = w.gather(&src, idx, mask);
                    w.scatter(&dst, idx, v, mask);
                }
                for k in 0..b % 3 {
                    blk.stats()
                        .obs
                        .flight_emit(EventKind::PublishAggregate, b as u32, k as u32, 0);
                }
            });
            assert_eq!(dst.to_vec(), data, "{blocks} blocks: output");
            assert_eq!(hits.to_vec(), vec![1; blocks], "{blocks} blocks: hits");
            dev.take_records().pop().expect("one launch recorded")
        };
        for blocks in [1, 3, ADV_WORKERS, 64] {
            let reference = launch(&Device::sequential(K40C), blocks);
            let flight = reference.flight.as_ref().expect("flight recorder on");
            assert_eq!(flight.count(EventKind::TicketClaim), blocks);
            assert_eq!(flight.dropped, 0);
            // (name, device, launch inside a `concurrent` session?)
            let mut rows = vec![
                ("sequential", Device::sequential(K40C), false),
                ("parallel", Device::new(K40C), false),
                (
                    "adversarial session",
                    Device::adversarial(K40C, AdvSchedule::from_seed(41)),
                    true,
                ),
            ];
            rows.extend(AdvFlavor::ALL.map(|flavor| {
                let adv = AdvSchedule::with_flavor(0xC0FFEE, flavor);
                (flavor.name(), Device::adversarial(K40C, adv), false)
            }));
            for (name, dev, in_session) in &rows {
                let rec = if *in_session {
                    let task: StreamTask<'_, LaunchRecord> = Box::new(|_| launch(dev, blocks));
                    dev.concurrent(vec![task]).remove(0)
                } else {
                    launch(dev, blocks)
                };
                let ctx = format!("{name}, {blocks} blocks");
                assert_eq!(rec.stats, reference.stats, "{ctx}: summed stats");
                assert_eq!(rec.per_block, reference.per_block, "{ctx}: per-block");
                let mut sum = BlockStats::default();
                for b in &rec.per_block {
                    sum += *b;
                }
                assert_eq!(sum, rec.stats, "{ctx}: per-block stats sum to the total");
                let fl = rec.flight.as_ref().expect("flight recorder on");
                assert_eq!(fl.kind_counts(), flight.kind_counts(), "{ctx}: kinds");
                assert_eq!(fl, flight, "{ctx}: flight log");
            }
        }
    }

    #[test]
    fn kernel_panics_propagate_the_original_payload() {
        use crate::sched::AdvSchedule;
        // 32 blocks cross PARALLEL_GRID_THRESHOLD, so both devices spawn
        // workers and re-raise from the join.
        for dev in [
            Device::new(K40C),
            Device::adversarial(K40C, AdvSchedule::from_seed(2)),
        ] {
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
                    w.device_gather(&counter, splat(0), 1);
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
    }
}
