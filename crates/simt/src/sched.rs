//! Adversarial schedule exploration for the grid executor.
//!
//! The paper's single-pass kernels (chained scan, fused multisplit) are
//! only correct if decoupled look-back is deadlock-free and
//! schedule-independent under *every* block execution order. Every
//! schedule runs the same block-claim loop of [`crate::grid`]; the
//! parallel and sequential schedules each exercise one order of it, and
//! [`Schedule::Adversarial`] adds a third mode that actively hunts
//! interleaving bugs: blocks still take tile tickets from the shared
//! device atomic, but a seeded policy controls **which host worker runs
//! next and for how long**.
//!
//! ## Execution model
//!
//! An adversarial launch runs the claim loop on [`ADV_WORKERS`] host
//! workers (fewer on smaller grids), but only **one worker holds the run
//! token at a time**. The token is handed
//! over at *yield points*: every device-scope memory access
//! (`device_get` / `device_set` / `device_peek` / `device_fetch_add` /
//! `device_gather` / `device_scatter`), every look-back spin-poll
//! iteration ([`spin_yield`], called by `primitives::lookback`), and
//! every block claim. These are the natural preemption points of the
//! model: everything between two device-scope accesses is block-local
//! (or a commutative warp atomic) and cannot be interleaved against.
//!
//! Because exactly one worker runs at a time and every scheduling
//! decision is made by the token holder from a seeded RNG, **the whole
//! interleaving is a deterministic function of the seed** — a failing
//! schedule replays bit-for-bit from its one-line reproducer.
//!
//! ## Policies
//!
//! * [`AdvFlavor::Random`] — uniformly random hand-offs: random ticket
//!   claim permutations and random interleavings of the look-back
//!   protocol.
//! * [`AdvFlavor::ReverseTicket`] — let every worker claim a ticket
//!   first, then always run the *highest* outstanding ticket: maximizes
//!   look-back depth (every tile walks the full window back). When all
//!   runnable workers are spinning, the lowest ticket runs (the earliest
//!   unresolved tile is the only one guaranteed to make progress —
//!   exactly the forward-progress argument of the protocol).
//! * [`AdvFlavor::Straggler`] — park the worker that claims **ticket 0**
//!   (the tile-0 publisher, the root of every look-back chain) until
//!   every other worker is either finished or stuck in a look-back spin,
//!   then release it. A protocol that ever waited on a tile *later* than
//!   itself would livelock here; termination under this schedule is the
//!   deadlock-freedom proof of DESIGN.md §10.
//! * [`AdvFlavor::BoundedPreempt`] — run each worker for a small random
//!   number of yield points (1..=8), then preempt: dense context
//!   switching at every device access boundary.
//!
//! A spinning worker is always eventually rescheduled (policies pick
//! among spinning workers when nothing else is runnable), so the model's
//! forward-progress guarantee — a claimed ticket belongs to a started
//! block — is preserved; the schedules stress *order*, not *liveness of
//! the host*.

use std::cell::RefCell;
use std::sync::{Arc, Condvar, Mutex};

use crate::lock_unpoisoned;

/// Host workers an adversarial launch multiplexes its blocks onto. Fixed
/// (not `available_parallelism`) so schedules are identical on every
/// machine: a reproducer from CI replays exactly on a laptop.
pub const ADV_WORKERS: usize = 8;

/// Sentinel for "no worker holds the run token".
const NO_WORKER: usize = usize::MAX;

/// How the grid executor orders block execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Free-running host threads with dynamic self-scheduling (the
    /// default; `Device::new`).
    Parallel,
    /// Strictly one block after another on the calling thread
    /// (`Device::sequential`).
    Sequential,
    /// Seeded adversarial interleaving (see module docs).
    Adversarial(AdvSchedule),
}

impl Schedule {
    /// An adversarial schedule with the flavor derived from the seed
    /// (`seed % 4`), so a plain seed sweep cycles through all four
    /// policies.
    pub fn adversarial(seed: u64) -> Self {
        Schedule::Adversarial(AdvSchedule::from_seed(seed))
    }
}

/// Default stall-watchdog budget: consecutive spin polls on the *same*
/// ticket before the watchdog declares a livelock. Legitimate waits at
/// any size this repo runs top out around tens of thousands of polls
/// (bounded by the predecessor chain's remaining work divided among
/// [`ADV_WORKERS`]), so a million-poll streak on one unpublished word is
/// conclusively stuck — while still aborting a true livelock in well
/// under a second.
pub const DEFAULT_SPIN_BUDGET: u64 = 1_000_000;

/// A seeded adversarial scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdvSchedule {
    pub seed: u64,
    pub flavor: AdvFlavor,
    /// Stall-watchdog budget: abort the launch with a wait-for-graph
    /// diagnosis once any worker spin-polls the same ticket this many
    /// times in a row without any other event in between. `0` disarms
    /// the watchdog. Armed at [`DEFAULT_SPIN_BUDGET`] by every
    /// constructor, so adversarial runs self-diagnose livelocks instead
    /// of hanging.
    pub spin_budget: u64,
}

impl AdvSchedule {
    /// Derive the flavor from the low bits of the seed (so seed sweeps
    /// cover every policy) and keep the full seed for the RNG.
    pub fn from_seed(seed: u64) -> Self {
        let flavor = match seed % 4 {
            0 => AdvFlavor::Random,
            1 => AdvFlavor::ReverseTicket,
            2 => AdvFlavor::Straggler,
            _ => AdvFlavor::BoundedPreempt,
        };
        Self::with_flavor(seed, flavor)
    }

    /// An explicit flavor with its own seed.
    pub fn with_flavor(seed: u64, flavor: AdvFlavor) -> Self {
        Self {
            seed,
            flavor,
            spin_budget: DEFAULT_SPIN_BUDGET,
        }
    }

    /// Override the stall-watchdog budget (`0` disarms it).
    pub fn with_spin_budget(mut self, budget: u64) -> Self {
        self.spin_budget = budget;
        self
    }
}

/// The scheduling policy family (see module docs for what each hunts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdvFlavor {
    Random,
    ReverseTicket,
    Straggler,
    BoundedPreempt,
}

impl AdvFlavor {
    pub fn name(&self) -> &'static str {
        match self {
            AdvFlavor::Random => "random",
            AdvFlavor::ReverseTicket => "reverse-ticket",
            AdvFlavor::Straggler => "straggler",
            AdvFlavor::BoundedPreempt => "bounded-preempt",
        }
    }

    pub const ALL: [AdvFlavor; 4] = [
        AdvFlavor::Random,
        AdvFlavor::ReverseTicket,
        AdvFlavor::Straggler,
        AdvFlavor::BoundedPreempt,
    ];
}

/// SplitMix64 — the policy RNG. Local so the simulator substrate stays
/// dependency-free.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// What a worker is doing at a yield point.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// About to claim the next block id (resets the worker's ticket).
    BlockStart,
    /// A generic device-scope access.
    Op,
    /// A look-back spin-poll iteration: the worker is *waiting* on a
    /// predecessor's published state (the straggler release condition).
    /// Carries the awaited ticket and the last state word the waiter
    /// polled (`u32::MAX` / `u64::MAX` when unknown) so the stall
    /// watchdog can name exactly what never arrived.
    Spin { waiting_on: u32, last_word: u64 },
    /// A device `fetch_add` returned this previous value — for the
    /// kernels' tile-ticket counters this is the claimed ticket, which
    /// the reverse-ticket and straggler policies key on.
    Ticket(u32),
    /// One poll of a not-yet-recorded [`crate::stream::Event`]: the
    /// worker is waiting on *another stream's* progress. Counts as
    /// spinning for the straggler release (a parked worker is the only
    /// way forward once everyone else waits) and for the stall watchdog
    /// (an event nobody will ever record is a deadlock, and the dump
    /// must say which stream is stuck on it).
    EventWait,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WStatus {
    Ready,
    Spinning,
    Done,
}

/// Panic payload used to tear down waiting workers after another worker
/// panicked; filtered out when the launch re-raises the original payload.
pub(crate) struct ScheduleAborted;

struct Inner {
    status: Vec<WStatus>,
    /// Ticket each worker's *current block* claimed (None before claim).
    ticket: Vec<Option<u32>>,
    /// Block id each worker is currently running (None between blocks).
    block: Vec<Option<usize>>,
    /// What each spinning worker waits on: `(ticket, last polled word)`.
    spin_target: Vec<Option<(u32, u64)>>,
    /// Consecutive spin polls on the same target with no other event in
    /// between — the quantity the stall watchdog budgets.
    spin_streak: Vec<u64>,
    /// Device-local stream index each worker's launches belong to, when
    /// the launch runs inside a stream session — so watchdog dumps name
    /// streams, not just anonymous workers.
    stream: Vec<Option<u32>>,
    /// Worker is spin-polling an unrecorded event (not a tile ticket).
    event_wait: Vec<bool>,
    /// The straggler policy's parked worker, if any.
    parked: Option<usize>,
    /// Set once the straggler has been parked and released; never park twice.
    straggler_done: bool,
    running: usize,
    rng: SplitMix64,
    /// Remaining yields before the bounded-preempt policy switches.
    budget: u64,
    aborted: bool,
}

/// The shared core of one adversarial launch: a single run token handed
/// over at yield points under a seeded policy.
pub(crate) struct AdvCore {
    flavor: AdvFlavor,
    /// Stall-watchdog budget (0 = disarmed); see [`AdvSchedule::spin_budget`].
    spin_budget: u64,
    inner: Mutex<Inner>,
    cv: Condvar,
}

impl AdvCore {
    /// A fresh token for `workers` workers under `adv`. The seed mixes in
    /// `mix` (the device's launch count) so each launch or session of a
    /// multi-kernel pipeline explores its own interleaving while staying
    /// deterministic: launch order on one device is program order.
    pub(crate) fn new(adv: AdvSchedule, mix: u64, workers: usize) -> Self {
        let seed = adv.seed ^ mix.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Self {
            flavor: adv.flavor,
            spin_budget: adv.spin_budget,
            inner: Mutex::new(Inner {
                status: vec![WStatus::Ready; workers],
                ticket: vec![None; workers],
                block: vec![None; workers],
                spin_target: vec![None; workers],
                spin_streak: vec![0; workers],
                stream: vec![None; workers],
                event_wait: vec![false; workers],
                parked: None,
                straggler_done: false,
                running: 0,
                rng: SplitMix64::new(seed),
                budget: 0,
                aborted: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// One yield point: record the event, hand the token over per policy,
    /// and block until this worker is scheduled again.
    pub(crate) fn yield_event(&self, w: usize, ev: Ev) {
        let mut g = lock_unpoisoned(&self.inner);
        if g.aborted {
            drop(g);
            std::panic::panic_any(ScheduleAborted);
        }
        match ev {
            Ev::BlockStart => {
                g.ticket[w] = None;
                g.block[w] = None;
                g.status[w] = WStatus::Ready;
                g.spin_target[w] = None;
                g.spin_streak[w] = 0;
                g.event_wait[w] = false;
            }
            Ev::Op => {
                g.status[w] = WStatus::Ready;
                // Any non-spin event is progress: the streak resets.
                g.spin_target[w] = None;
                g.spin_streak[w] = 0;
                g.event_wait[w] = false;
            }
            Ev::EventWait => {
                g.status[w] = WStatus::Spinning;
                g.spin_target[w] = None;
                g.spin_streak[w] = if g.event_wait[w] {
                    g.spin_streak[w] + 1
                } else {
                    1
                };
                g.event_wait[w] = true;
                if self.spin_budget > 0 && g.spin_streak[w] > self.spin_budget {
                    let msg = self.stall_diagnosis(&g, w);
                    g.aborted = true;
                    self.cv.notify_all();
                    drop(g);
                    std::panic::panic_any(msg);
                }
            }
            Ev::Spin {
                waiting_on,
                last_word,
            } => {
                g.status[w] = WStatus::Spinning;
                g.event_wait[w] = false;
                let same_target = matches!(g.spin_target[w], Some((t, _)) if t == waiting_on);
                g.spin_streak[w] = if same_target { g.spin_streak[w] + 1 } else { 1 };
                g.spin_target[w] = Some((waiting_on, last_word));
                if self.spin_budget > 0 && g.spin_streak[w] > self.spin_budget {
                    // Stall watchdog: this worker has polled the same
                    // unpublished word past any plausible legitimate wait.
                    // Snapshot the wait-for graph, tear the launch down via
                    // the ScheduleAborted path, and surface the diagnosis
                    // as this worker's panic payload.
                    let msg = self.stall_diagnosis(&g, w);
                    g.aborted = true;
                    self.cv.notify_all();
                    drop(g);
                    std::panic::panic_any(msg);
                }
            }
            Ev::Ticket(t) => {
                g.ticket[w] = Some(t);
                g.status[w] = WStatus::Ready;
                g.spin_target[w] = None;
                g.spin_streak[w] = 0;
                g.event_wait[w] = false;
                if t == 0
                    && self.flavor == AdvFlavor::Straggler
                    && !g.straggler_done
                    && g.parked.is_none()
                {
                    // Park the tile-0 publisher right after it claims its
                    // ticket, before it can publish anything.
                    g.parked = Some(w);
                    g.straggler_done = true;
                }
            }
        }
        // Only the token holder makes scheduling decisions; a worker whose
        // thread arrives before it is ever scheduled just registers and
        // waits (its logical state was `Ready` from the start, so the
        // schedule stays a deterministic function of the seed).
        if g.running == w || g.running == NO_WORKER {
            let next = self.pick(&mut g);
            g.running = next;
            self.cv.notify_all();
        }
        while g.running != w {
            if g.aborted {
                drop(g);
                std::panic::panic_any(ScheduleAborted);
            }
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Retire worker `w` (normal exit or unwind) and hand the token on.
    pub(crate) fn finish(&self, w: usize, aborting: bool) {
        let mut g = lock_unpoisoned(&self.inner);
        if aborting && !g.aborted {
            // First failure in this launch (watchdog aborts set the flag
            // before panicking, so this is a *kernel* panic): dump the
            // wait-for snapshot post-mortem before tearing everyone down.
            eprintln!(
                "adversarial worker {w} panicked; post-mortem {}",
                wait_graph_string(&g)
            );
        }
        g.status[w] = WStatus::Done;
        if aborting {
            g.aborted = true;
        }
        if g.running == w || g.running == NO_WORKER {
            let next = self.pick(&mut g);
            g.running = next;
        }
        self.cv.notify_all();
    }

    /// Record which block worker `w` is running (no yield; the claim
    /// itself already yielded via [`Ev::BlockStart`]).
    pub(crate) fn set_block(&self, w: usize, b: usize) {
        lock_unpoisoned(&self.inner).block[w] = Some(b);
    }

    /// Record which stream worker `w`'s launches run on (no yield).
    pub(crate) fn set_stream(&self, w: usize, stream: u32) {
        lock_unpoisoned(&self.inner).stream[w] = Some(stream);
    }

    /// Build the watchdog's structured diagnosis for breaching worker `w`:
    /// the headline "tile T in block B waiting on ticket K, published=…"
    /// line, the full wait-for graph, and a cycle / starvation analysis.
    fn stall_diagnosis(&self, g: &Inner, w: usize) -> String {
        let tile = opt_str(g.ticket[w]);
        let block = opt_str(g.block[w]);
        let mut out = if g.event_wait[w] {
            format!(
                "event wait stall watchdog: {}worker {w} (block {block} ticket {tile}) \
                 waiting on an event that was never recorded — {} consecutive polls \
                 exceeded the budget of {}\n",
                stream_prefix(g.stream[w]),
                g.spin_streak[w],
                self.spin_budget,
            )
        } else {
            let (waited, last_word) = g.spin_target[w].unwrap_or((u32::MAX, u64::MAX));
            format!(
                "lookback stall watchdog: {}tile {tile} in block {block} waiting on ticket {}, \
                 published={} — {} consecutive spin polls exceeded the budget of {}\n",
                stream_prefix(g.stream[w]),
                ticket_str(waited),
                describe_word(last_word),
                g.spin_streak[w],
                self.spin_budget,
            )
        };
        out.push_str(&wait_graph_string(g));
        // Who owns the awaited ticket? Follow worker → awaited ticket →
        // owning worker to classify the stall.
        let owner_of = |t: u32| -> Option<usize> {
            (0..g.status.len()).find(|&i| g.ticket[i] == Some(t) && g.status[i] != WStatus::Done)
        };
        let mut path = vec![w];
        let mut cur = w;
        while let Some((t, _)) = g.spin_target[cur] {
            let Some(next) = owner_of(t) else {
                out.push_str(&format!(
                    "starvation: ticket {} has no live owner (its worker retired \
                     without publishing, or the ticket was never claimed)\n",
                    ticket_str(t),
                ));
                break;
            };
            if let Some(pos) = path.iter().position(|&p| p == next) {
                let cycle: Vec<String> = path[pos..]
                    .iter()
                    .map(|&p| format!("worker {p} (ticket {})", opt_str(g.ticket[p])))
                    .collect();
                out.push_str(&format!("cycle detected: {} -> back\n", cycle.join(" -> ")));
                break;
            }
            if g.status[next] != WStatus::Spinning && g.parked != Some(next) {
                out.push_str(&format!(
                    "no cycle: worker {next} (ticket {}) is runnable — \
                     the scheduler simply never let it publish\n",
                    opt_str(g.ticket[next]),
                ));
                break;
            }
            path.push(next);
            cur = next;
        }
        out
    }

    /// Choose the next token holder. Must be called with the lock held;
    /// deterministic given the seed (all state transitions happen under
    /// the token).
    fn pick(&self, g: &mut Inner) -> usize {
        let n = g.status.len();
        let candidates: Vec<usize> = (0..n)
            .filter(|&i| g.status[i] != WStatus::Done && g.parked != Some(i))
            .collect();
        if candidates.is_empty() {
            // Everyone (except possibly the parked straggler) is done.
            return match g.parked.take() {
                Some(p) if g.status[p] != WStatus::Done => p,
                _ => NO_WORKER,
            };
        }
        // Straggler release: once every non-parked worker is stuck in a
        // look-back spin (or done), the parked tile-0 publisher is the
        // only way forward — release it. If the protocol ever waited on a
        // *later* tile, this point would never be reached and the launch
        // would livelock instead of terminating.
        if let Some(p) = g.parked {
            if candidates.iter().all(|&i| g.status[i] == WStatus::Spinning) {
                g.parked = None;
                return p;
            }
        }
        match self.flavor {
            AdvFlavor::Random | AdvFlavor::Straggler => candidates[g.rng.below(candidates.len())],
            AdvFlavor::ReverseTicket => {
                // Claim phase first: any worker without a ticket gets
                // priority (so every outstanding ticket exists before any
                // runs), then the highest ticket runs — unless everyone
                // runnable is spinning, in which case the lowest ticket is
                // the one guaranteed to make progress.
                if let Some(&u) = candidates
                    .iter()
                    .find(|&&i| g.ticket[i].is_none() && g.status[i] != WStatus::Spinning)
                {
                    return u;
                }
                let runnable: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&i| g.status[i] != WStatus::Spinning)
                    .collect();
                let key = |i: usize| g.ticket[i].map_or(0, |t| t as i64);
                if runnable.is_empty() {
                    // Everyone waits on a predecessor: the lowest-ticket
                    // spinner's predecessor has necessarily published (its
                    // worker moved on, or is itself spinning — which
                    // happens only after its AGGREGATE publish), so its
                    // next poll succeeds. Picking any *other* spinner
                    // could loop forever.
                    *candidates.iter().min_by_key(|&&i| key(i)).unwrap()
                } else {
                    // Run the highest outstanding ticket among workers
                    // that can actually advance — maximizing how deep
                    // successors' look-back walks reach.
                    *runnable.iter().max_by_key(|&&i| key(i)).unwrap()
                }
            }
            AdvFlavor::BoundedPreempt => {
                if g.budget > 0 && candidates.contains(&g.running) {
                    g.budget -= 1;
                    g.running
                } else {
                    g.budget = 1 + g.rng.next() % 8;
                    candidates[g.rng.below(candidates.len())]
                }
            }
        }
    }
}

fn opt_str<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map_or_else(|| "?".into(), |t| t.to_string())
}

fn ticket_str(t: u32) -> String {
    if t == u32::MAX {
        "?".into()
    } else {
        t.to_string()
    }
}

/// Decode a look-back state word for the diagnosis (the packed
/// `value << 2 | flag` convention of `primitives::lookback`).
fn describe_word(word: u64) -> String {
    if word == u64::MAX {
        return "unknown".into();
    }
    match word & 3 {
        0 => "EMPTY (never published)".into(),
        1 => format!("AGGREGATE({})", word >> 2),
        2 => format!("INCLUSIVE({})", word >> 2),
        _ => format!("invalid ({word:#x})"),
    }
}

/// `"stream S "` when the worker's launches belong to a stream, else `""`.
fn stream_prefix(s: Option<u32>) -> String {
    s.map_or_else(String::new, |ix| format!("stream {ix} "))
}

/// Render every worker's state as a wait-for graph snapshot.
fn wait_graph_string(g: &Inner) -> String {
    let mut out = String::from("wait-for graph:\n");
    for i in 0..g.status.len() {
        let role = match g.status[i] {
            WStatus::Done => "done".to_string(),
            _ if g.parked == Some(i) => "parked (straggler)".to_string(),
            _ if g.event_wait[i] => format!(
                "waiting on an unrecorded event (streak {})",
                g.spin_streak[i]
            ),
            WStatus::Spinning => match g.spin_target[i] {
                Some((t, word)) => format!(
                    "spinning on ticket {} (last word {}, streak {})",
                    ticket_str(t),
                    describe_word(word),
                    g.spin_streak[i],
                ),
                None => "spinning".to_string(),
            },
            WStatus::Ready => "runnable".to_string(),
        };
        out.push_str(&format!(
            "  worker {i}: {}block {} ticket {} — {role}\n",
            stream_prefix(g.stream[i]),
            opt_str(g.block[i]),
            opt_str(g.ticket[i]),
        ));
    }
    out
}

thread_local! {
    /// The adversarial core (and this thread's worker id) while a worker
    /// is executing blocks; `None` on every other thread, which makes all
    /// yield hooks no-ops under the parallel and sequential schedules.
    static ACTIVE: RefCell<Option<(Arc<AdvCore>, usize)>> = const { RefCell::new(None) };
}

fn active() -> Option<(Arc<AdvCore>, usize)> {
    ACTIVE.with(|a| a.borrow().clone())
}

/// RAII registration of the current thread as adversarial worker `w`.
pub(crate) struct Installed;

impl Drop for Installed {
    fn drop(&mut self) {
        ACTIVE.with(|a| *a.borrow_mut() = None);
    }
}

pub(crate) fn install(core: Arc<AdvCore>, w: usize) -> Installed {
    ACTIVE.with(|a| *a.borrow_mut() = Some((core, w)));
    Installed
}

/// Yield hook for a generic device-scope access (called by every
/// `GlobalBuffer::device_*` method). No-op outside adversarial launches.
pub(crate) fn yield_op() {
    if let Some((core, w)) = active() {
        core.yield_event(w, Ev::Op);
    }
}

/// Yield hook fired after a device `fetch_add` returned `prev` — informs
/// the ticket-aware policies which tile this worker just claimed.
pub(crate) fn note_ticket(prev: u32) {
    if let Some((core, w)) = active() {
        core.yield_event(w, Ev::Ticket(prev));
    }
}

/// Yield hook for a block claim (scheduler controls claim order).
pub(crate) fn yield_block_start() {
    if let Some((core, w)) = active() {
        core.yield_event(w, Ev::BlockStart);
    }
}

/// Non-yielding hook: the grid executor reports which block this worker
/// just claimed, so watchdog diagnoses can name blocks, not just workers.
pub(crate) fn note_block(b: usize) {
    if let Some((core, w)) = active() {
        core.set_block(w, b);
    }
}

/// Non-yielding hook: the grid executor reports which stream this
/// worker's launches belong to, so watchdog diagnoses name streams.
pub(crate) fn note_stream(stream: u32) {
    if let Some((core, w)) = active() {
        core.set_stream(w, stream);
    }
}

/// Is the current thread an installed adversarial worker? True both for
/// a launch's own workers and for the task threads of an adversarial
/// stream session; [`crate::grid`] uses it to run in-session launches on
/// one inline worker (a nested `AdvCore` would deadlock against the
/// session's token) and
/// [`crate::stream`] to spin-poll events at yield points instead of
/// blocking the token holder on a condvar.
pub(crate) fn in_adversarial_session() -> bool {
    active().is_some()
}

/// Yield hook for one poll of an unrecorded event (see [`Ev::EventWait`]).
pub(crate) fn event_wait_yield() {
    if let Some((core, w)) = active() {
        core.yield_event(w, Ev::EventWait);
    }
}

/// Public yield hook for spin-wait loops: marks the current worker as
/// *waiting on another block's published state*. `primitives::lookback`
/// calls this once per spin-poll iteration, which is both how the
/// adversarial scheduler preempts a spinning block and how the straggler
/// policy knows when every other block has hit its look-back spin.
/// `waiting_on` names the awaited tile ticket and `last_word` the most
/// recently polled state word (`u32::MAX` / `u64::MAX` when unknown) —
/// the stall watchdog reports both when the spin budget is breached.
/// No-op outside adversarial launches.
pub fn spin_yield_waiting(waiting_on: u32, last_word: u64) {
    if let Some((core, w)) = active() {
        core.yield_event(
            w,
            Ev::Spin {
                waiting_on,
                last_word,
            },
        );
    }
}

/// [`spin_yield_waiting`] without a named target, for spin loops that
/// don't know (or don't care) what they wait on.
pub fn spin_yield() {
    spin_yield_waiting(u32::MAX, u64::MAX);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_cycles_flavors() {
        assert_eq!(AdvSchedule::from_seed(4000).flavor, AdvFlavor::Random);
        assert_eq!(
            AdvSchedule::from_seed(4001).flavor,
            AdvFlavor::ReverseTicket
        );
        assert_eq!(AdvSchedule::from_seed(4002).flavor, AdvFlavor::Straggler);
        assert_eq!(
            AdvSchedule::from_seed(4003).flavor,
            AdvFlavor::BoundedPreempt
        );
        assert_eq!(AdvSchedule::from_seed(4002).seed, 4002);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
        let mut c = SplitMix64::new(8);
        assert_ne!(a.next(), c.next());
    }

    #[test]
    fn yield_hooks_are_noops_off_schedule() {
        // No adversarial launch active on this thread: all hooks return.
        yield_op();
        note_ticket(0);
        yield_block_start();
        spin_yield();
    }
}
