//! # Flight recorder — bounded causal event tracing for lookback pipelines
//!
//! The obs layer ([`crate::obs`]) counts *how much* happened (resolves,
//! walk depths, spin polls); this module records *who waited on whom*.
//! Kernels and [`primitives`-style lookback helpers][lb] emit
//! [`FlightEvent`]s into a bounded per-block ring riding the uncounted
//! [`crate::ObsCells`] side-channel, so recording never perturbs
//! [`crate::BlockStats`] or the cost model. Each event is stamped with
//! its block id (by `Device::launch`, post-retirement), the tile ticket
//! it concerns, and a per-block logical sequence number — so the merged
//! stream, sorted by `(block, seq)`, is a deterministic function of the
//! schedule, and per-kind event *counts* are schedule-independent.
//!
//! From a launch's [`FlightLog`], [`analyze`] derives the tile dependency
//! DAG (binding edges `tile → tile - depth` from `Resolve` events) and
//! the **exact** critical path: the longest chain of *stalled* resolves
//! (edges whose waiter actually spun), weighted by each tile's modeled
//! block time. On the sequential scheduler no resolve ever spins, so the
//! exact path collapses to `overhead + max_block` — precisely
//! [`crate::launch_report`]'s estimate — while adversarial schedules
//! surface the extra serialization the estimate cannot see.
//!
//! The ring is bounded ([`DEFAULT_FLIGHT_CAPACITY`] events per block, an
//! O(capacity) overhead); overflow increments [`FlightLog::dropped`]
//! rather than silently wrapping, and [`with_flight_capacity`] scales or
//! disables it (capacity 0) per host thread.
//!
//! [lb]: crate::ObsCells::flight_emit

use std::cell::Cell;
use std::collections::BTreeMap;

use crate::json::Json;
use crate::profile::DeviceProfile;
use crate::stats::LaunchRecord;

/// What a [`FlightEvent`] records. One variant per causally interesting
/// step of a decoupled-lookback pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// A block claimed its tile ticket from the device atomic.
    TicketClaim,
    /// One warp-sized row group's `AGGREGATE` record became visible.
    PublishAggregate,
    /// One row group's `INCLUSIVE` record became visible.
    PublishInclusive,
    /// The counted read of predecessor `ticket - 1`'s full record (once
    /// per row group, regardless of how far the uncounted walk went —
    /// which keeps per-kind counts schedule-independent).
    LookbackRead,
    /// One row group's look-back walk completed; `a` = walk depth,
    /// `b` = uncounted spin polls it took (saturated to `u32::MAX`).
    Resolve,
    /// The block finished scattering its tile's elements.
    ScatterComplete,
}

impl EventKind {
    /// Every kind, in emission order within a well-formed tile.
    pub const ALL: [EventKind; 6] = [
        EventKind::TicketClaim,
        EventKind::PublishAggregate,
        EventKind::PublishInclusive,
        EventKind::LookbackRead,
        EventKind::Resolve,
        EventKind::ScatterComplete,
    ];

    pub fn name(self) -> &'static str {
        match self {
            EventKind::TicketClaim => "ticket_claim",
            EventKind::PublishAggregate => "publish_aggregate",
            EventKind::PublishInclusive => "publish_inclusive",
            EventKind::LookbackRead => "lookback_read",
            EventKind::Resolve => "resolve",
            EventKind::ScatterComplete => "scatter_complete",
        }
    }
}

/// One recorded event. 24 bytes; the ring stores these by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    pub kind: EventKind,
    /// Emitting block id, stamped by `Device::launch` when the block
    /// retires (the ring itself doesn't know its block).
    pub block: u32,
    /// Tile ticket the event concerns.
    pub ticket: u32,
    /// Kind-specific: row group for publishes and reads, walk depth for
    /// [`EventKind::Resolve`], 0 otherwise.
    pub a: u32,
    /// Kind-specific: spin polls for [`EventKind::Resolve`] (saturating
    /// cast), 0 otherwise.
    pub b: u32,
    /// Logical sequence number within the emitting block. Counts every
    /// emission attempt, including dropped ones — a gap-free `seq` with
    /// `dropped == 0` certifies a complete stream.
    pub seq: u32,
}

/// Default per-block ring capacity, in events. A sweep block emits
/// `2 + 4 * row_groups` events, so 4096 covers every kernel in this
/// repo with orders of magnitude to spare; launches that legitimately
/// overflow are flagged via [`FlightLog::dropped`], never silently cut.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

thread_local! {
    static CAPACITY: Cell<usize> = const { Cell::new(DEFAULT_FLIGHT_CAPACITY) };
}

/// The per-block ring capacity launches on this host thread arm blocks
/// with (0 = recorder off).
pub fn flight_capacity() -> usize {
    CAPACITY.with(Cell::get)
}

/// Run `f` with the flight-ring capacity set to `cap` events per block
/// for launches on this host thread, restoring the previous value on the
/// way out (RAII guard, like [`crate::Device::with_scope`]). `cap == 0`
/// disables the recorder entirely: no allocation, no events, and
/// [`LaunchRecord::flight`] stays `None`.
pub fn with_flight_capacity<R>(cap: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            CAPACITY.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(CAPACITY.with(|c| c.replace(cap)));
    f()
}

/// One launch's merged event stream: every block's ring, drained at
/// retirement, block-stamped and sorted by `(block, seq)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightLog {
    /// Events sorted by `(block, seq)`.
    pub events: Vec<FlightEvent>,
    /// Emissions that found their block's ring full. Non-zero means the
    /// stream is truncated — [`analyze`] flags it rather than trusting a
    /// partial DAG.
    pub dropped: u64,
}

impl FlightLog {
    /// Whether any block's ring overflowed.
    pub fn truncated(&self) -> bool {
        self.dropped > 0
    }

    /// Events of one kind.
    pub fn count(&self, kind: EventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// `(kind name, count)` for every kind, in [`EventKind::ALL`] order.
    /// The schedule-independence tests compare these across schedulers.
    pub fn kind_counts(&self) -> Vec<(&'static str, usize)> {
        EventKind::ALL
            .iter()
            .map(|&k| (k.name(), self.count(k)))
            .collect()
    }
}

/// The tile dependency DAG and exact critical path derived from one
/// launch's [`FlightLog`] plus its per-block stats.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightAnalysis {
    pub label: String,
    /// Tiles that appear in the event stream.
    pub tiles: usize,
    /// Distinct binding edges `tile → tile - depth` (depth ≥ 1) derived
    /// from `Resolve` events.
    pub edges: usize,
    /// Edges whose resolve actually spun — only these serialize tiles,
    /// and only they weight the critical path.
    pub stall_edges: usize,
    /// Deepest look-back walk observed.
    pub max_depth: u32,
    /// **Exact** critical path: launch overhead plus the longest
    /// stall-edge chain of modeled per-tile block times. With zero stall
    /// edges (sequential schedule) this equals
    /// [`modeled_critical_path_seconds`](Self::modeled_critical_path_seconds)
    /// exactly.
    pub critical_path_seconds: f64,
    /// Tickets along the critical chain, dependency-first.
    pub critical_chain: Vec<u32>,
    /// Slowest single block's modeled time (overhead excluded).
    pub max_block_seconds: f64,
    /// [`crate::launch_report`]'s estimate (`overhead + max_block`) for
    /// the same record, for side-by-side comparison.
    pub modeled_critical_path_seconds: f64,
    /// Serialization the model can't see: `critical - modeled`, clamped
    /// at zero.
    pub stall_extra_seconds: f64,
    /// The flight log overflowed; the DAG (and path) may be partial.
    pub truncated: bool,
}

/// One launch's tile DAG under unlimited parallelism: the binding edges
/// from `Resolve` events and each tile's schedule along them. Built once
/// for [`analyze`] and [`tile_schedule`].
struct TileDag {
    overhead: f64,
    /// Slowest single block's modeled time (overhead excluded).
    max_block: f64,
    max_depth: u32,
    /// `tile → pred → stalled`: an edge stalls if any resolve of that
    /// `(tile, pred)` pair spun.
    preds: BTreeMap<u32, BTreeMap<u32, bool>>,
    /// Per tile: `(start, finish, binding stalled predecessor)`, in
    /// modeled seconds from launch start (overhead excluded).
    timing: BTreeMap<u32, (f64, f64, Option<u32>)>,
}

impl TileDag {
    /// `None` unless the record carries a flight log and at least one
    /// block.
    fn new(rec: &LaunchRecord, profile: &DeviceProfile) -> Option<Self> {
        let flight = rec.flight.as_ref()?;
        let block_secs = crate::obs::block_seconds(&rec.per_block, profile);
        if block_secs.is_empty() {
            return None;
        }
        // Tile → block mapping from any stamped event mentioning the
        // ticket, and the binding edges from Resolve events.
        let mut tile_block: BTreeMap<u32, u32> = BTreeMap::new();
        let mut preds: BTreeMap<u32, BTreeMap<u32, bool>> = BTreeMap::new();
        let mut max_depth = 0u32;
        for e in &flight.events {
            tile_block.entry(e.ticket).or_insert(e.block);
            if e.kind == EventKind::Resolve && e.a >= 1 {
                max_depth = max_depth.max(e.a);
                let edge = preds.entry(e.ticket).or_default();
                *edge.entry(e.ticket - e.a).or_insert(false) |= e.b > 0;
            }
        }
        // A tile starts when its latest *stalled* predecessor finishes
        // (non-stalled edges were satisfied before the waiter even
        // looked, so they add nothing) and runs for its own modeled block
        // time. Tickets ascend along edges (pred < tile), so one ascending
        // pass settles the DAG.
        let mut timing: BTreeMap<u32, (f64, f64, Option<u32>)> = BTreeMap::new();
        for (&tile, &b) in &tile_block {
            let (mut start, mut binding) = (0.0f64, None);
            for (&p, &stalled) in preds.get(&tile).into_iter().flatten() {
                let pf = timing.get(&p).map_or(0.0, |t| t.1);
                if stalled && pf > start {
                    start = pf;
                    binding = Some(p);
                }
            }
            let secs = block_secs.get(b as usize).copied().unwrap_or(0.0);
            timing.insert(tile, (start, start + secs, binding));
        }
        Some(TileDag {
            overhead: profile.launch_overhead_us * 1e-6,
            max_block: block_secs.iter().cloned().fold(0.0f64, f64::max),
            max_depth,
            preds,
            timing,
        })
    }

    /// The stalled edges as `(pred, tile)` pairs, ascending.
    fn stall_edges(&self) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = self
            .preds
            .iter()
            .flat_map(|(&t, ps)| ps.iter().filter(|p| *p.1).map(move |(&p, _)| (p, t)))
            .collect();
        out.sort_unstable();
        out
    }
}

/// Derive a [`FlightAnalysis`] from a record's flight log and per-block
/// stats; `None` if the recorder was off or the launch had no blocks.
pub fn analyze(rec: &LaunchRecord, profile: &DeviceProfile) -> Option<FlightAnalysis> {
    let dag = TileDag::new(rec, profile)?;
    let (last, longest) = dag
        .timing
        .iter()
        .map(|(&t, &(_, finish, _))| (t, finish))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or((0, 0.0));
    // Blocks outside the tile map (e.g. a launch with no lookback at
    // all) still bound the path from below by their own modeled time.
    let critical = dag.overhead + longest.max(dag.max_block);
    let modeled = dag.overhead + dag.max_block;

    let mut chain = vec![last];
    let mut cur = last;
    while let Some(p) = dag.timing.get(&cur).and_then(|t| t.2) {
        chain.push(p);
        cur = p;
    }
    chain.reverse();
    if dag.timing.is_empty() {
        chain.clear();
    }

    Some(FlightAnalysis {
        label: rec.label.clone(),
        tiles: dag.timing.len(),
        edges: dag.preds.values().map(BTreeMap::len).sum(),
        stall_edges: dag.stall_edges().len(),
        max_depth: dag.max_depth,
        critical_path_seconds: critical,
        critical_chain: chain,
        max_block_seconds: dag.max_block,
        modeled_critical_path_seconds: modeled,
        stall_extra_seconds: (critical - modeled).max(0.0),
        truncated: rec.flight.as_ref().is_some_and(FlightLog::truncated),
    })
}

impl FlightAnalysis {
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("label".into(), Json::Str(self.label.clone())),
            ("tiles".into(), Json::int(self.tiles as u64)),
            ("edges".into(), Json::int(self.edges as u64)),
            ("stall_edges".into(), Json::int(self.stall_edges as u64)),
            ("max_depth".into(), Json::int(self.max_depth as u64)),
            (
                "critical_path_seconds".into(),
                Json::Num(self.critical_path_seconds),
            ),
            (
                "critical_chain".into(),
                Json::Arr(
                    self.critical_chain
                        .iter()
                        .map(|&t| Json::int(t as u64))
                        .collect(),
                ),
            ),
            (
                "max_block_seconds".into(),
                Json::Num(self.max_block_seconds),
            ),
            (
                "modeled_critical_path_seconds".into(),
                Json::Num(self.modeled_critical_path_seconds),
            ),
            (
                "stall_extra_seconds".into(),
                Json::Num(self.stall_extra_seconds),
            ),
            ("truncated".into(), Json::Bool(self.truncated)),
        ])
    }
}

/// Per-tile schedule reconstructed from the stall DAG: `(ticket, start,
/// finish)` in modeled seconds from launch start (overhead excluded).
/// Used by [`crate::trace`] to lay tiles out on a timeline with flow
/// arrows along the stall edges. Returns the tiles ascending by start
/// time and the stalled edges as `(pred, tile)` pairs.
#[allow(clippy::type_complexity)]
pub(crate) fn tile_schedule(
    rec: &LaunchRecord,
    profile: &DeviceProfile,
) -> Option<(Vec<(u32, f64, f64)>, Vec<(u32, u32)>)> {
    let dag = TileDag::new(rec, profile)?;
    if dag.timing.is_empty() {
        return None;
    }
    let mut out: Vec<(u32, f64, f64)> = dag
        .timing
        .iter()
        .map(|(&t, &(start, finish, _))| (t, start, finish))
        .collect();
    out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    Some((out, dag.stall_edges()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::ObsStats;
    use crate::profile::K40C;
    use crate::stats::BlockStats;

    fn ev(kind: EventKind, block: u32, ticket: u32, a: u32, b: u32, seq: u32) -> FlightEvent {
        FlightEvent {
            kind,
            block,
            ticket,
            a,
            b,
            seq,
        }
    }

    fn rec_with(events: Vec<FlightEvent>, per_block: Vec<BlockStats>) -> LaunchRecord {
        LaunchRecord {
            label: "t/sweep".into(),
            blocks: per_block.len(),
            warps_per_block: 1,
            stats: BlockStats::default(),
            obs: ObsStats::default(),
            per_block,
            flight: Some(FlightLog { events, dropped: 0 }),
            seconds: 1e-6,
            stream: crate::stream::HOST_STREAM,
            stream_seq: 0,
        }
    }

    fn blocks(n: usize) -> Vec<BlockStats> {
        (0..n)
            .map(|_| BlockStats {
                sectors: 100,
                ..Default::default()
            })
            .collect()
    }

    #[test]
    fn capacity_knob_restores_on_exit_and_panic() {
        assert_eq!(flight_capacity(), DEFAULT_FLIGHT_CAPACITY);
        with_flight_capacity(7, || assert_eq!(flight_capacity(), 7));
        assert_eq!(flight_capacity(), DEFAULT_FLIGHT_CAPACITY);
        let _ = std::panic::catch_unwind(|| with_flight_capacity(3, || panic!("boom")));
        assert_eq!(flight_capacity(), DEFAULT_FLIGHT_CAPACITY);
    }

    #[test]
    fn no_stalls_means_exact_equals_modeled() {
        // 3 tiles, each resolving depth 1 without spinning: the chain is
        // causal but never serialized, so exact == overhead + max_block.
        let events = vec![
            ev(EventKind::Resolve, 0, 0, 0, 0, 0),
            ev(EventKind::Resolve, 1, 1, 1, 0, 0),
            ev(EventKind::Resolve, 2, 2, 1, 0, 0),
        ];
        let a = analyze(&rec_with(events, blocks(3)), &K40C).unwrap();
        assert_eq!(a.tiles, 3);
        assert_eq!(a.edges, 2);
        assert_eq!(a.stall_edges, 0);
        assert_eq!(a.critical_path_seconds, a.modeled_critical_path_seconds);
        assert_eq!(a.stall_extra_seconds, 0.0);
    }

    #[test]
    fn stalled_chain_serializes_the_path() {
        // tile1 spun waiting on tile0, tile2 spun waiting on tile1: the
        // exact path is 3 chained block times, not 1.
        let events = vec![
            ev(EventKind::Resolve, 0, 0, 0, 0, 0),
            ev(EventKind::Resolve, 1, 1, 1, 9, 0),
            ev(EventKind::Resolve, 2, 2, 1, 9, 0),
        ];
        let a = analyze(&rec_with(events, blocks(3)), &K40C).unwrap();
        assert_eq!(a.stall_edges, 2);
        assert_eq!(a.critical_chain, vec![0, 1, 2]);
        let overhead = K40C.launch_overhead_us * 1e-6;
        let per = a.max_block_seconds;
        let expect = overhead + 3.0 * per;
        assert!((a.critical_path_seconds - expect).abs() < 1e-15);
        assert!(a.stall_extra_seconds > 0.0);
    }

    #[test]
    fn deep_walks_skip_unstalled_predecessors() {
        // tile2 resolved depth 2 (walked past tile1 to tile0) with spins:
        // its stall edge targets tile0 directly.
        let events = vec![
            ev(EventKind::Resolve, 0, 0, 0, 0, 0),
            ev(EventKind::Resolve, 1, 1, 1, 0, 0),
            ev(EventKind::Resolve, 2, 2, 2, 5, 0),
        ];
        let a = analyze(&rec_with(events, blocks(3)), &K40C).unwrap();
        assert_eq!(a.max_depth, 2);
        assert_eq!(a.stall_edges, 1);
        assert_eq!(a.critical_chain, vec![0, 2]);
    }

    #[test]
    fn analysis_needs_flight_and_per_block() {
        let mut r = rec_with(vec![], blocks(2));
        r.flight = None;
        assert!(analyze(&r, &K40C).is_none());
        let r = rec_with(vec![], vec![]);
        assert!(analyze(&r, &K40C).is_none());
        // No events at all is fine: path == modeled, empty chain.
        let a = analyze(&rec_with(vec![], blocks(2)), &K40C).unwrap();
        assert_eq!(a.tiles, 0);
        assert_eq!(a.critical_path_seconds, a.modeled_critical_path_seconds);
        assert!(a.critical_chain.is_empty());
    }

    #[test]
    fn truncation_is_propagated() {
        let mut r = rec_with(vec![ev(EventKind::Resolve, 0, 0, 0, 0, 0)], blocks(1));
        r.flight.as_mut().unwrap().dropped = 3;
        assert!(r.flight.as_ref().unwrap().truncated());
        assert!(analyze(&r, &K40C).unwrap().truncated);
    }

    #[test]
    fn kind_counts_cover_every_kind() {
        let log = FlightLog {
            events: vec![
                ev(EventKind::TicketClaim, 0, 0, 0, 0, 0),
                ev(EventKind::Resolve, 0, 0, 0, 0, 1),
                ev(EventKind::Resolve, 1, 1, 1, 0, 0),
            ],
            dropped: 0,
        };
        let counts = log.kind_counts();
        assert_eq!(counts.len(), EventKind::ALL.len());
        assert!(counts.contains(&("ticket_claim", 1)));
        assert!(counts.contains(&("resolve", 2)));
        assert!(counts.contains(&("scatter_complete", 0)));
    }

    #[test]
    fn tile_schedule_orders_by_start() {
        let events = vec![
            ev(EventKind::Resolve, 0, 0, 0, 0, 0),
            ev(EventKind::Resolve, 1, 1, 1, 4, 0),
        ];
        let (tiles, edges) = tile_schedule(&rec_with(events, blocks(2)), &K40C).unwrap();
        assert_eq!(tiles.len(), 2);
        assert_eq!(edges, vec![(0, 1)]);
        assert!(tiles[0].1 <= tiles[1].1);
        // tile 1 starts exactly when tile 0 finishes.
        assert_eq!(tiles[1].1, tiles[0].2);
    }

    #[test]
    fn analysis_json_has_the_headline_fields() {
        let a = analyze(
            &rec_with(vec![ev(EventKind::Resolve, 0, 0, 0, 0, 0)], blocks(1)),
            &K40C,
        )
        .unwrap();
        let j = a.to_json().pretty();
        for field in [
            "critical_path_seconds",
            "modeled_critical_path_seconds",
            "stall_edges",
            "truncated",
        ] {
            assert!(j.contains(field), "missing {field}");
        }
    }
}
