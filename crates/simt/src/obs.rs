//! Observability: derived launch reports, scope-tree roll-ups and a JSON
//! metrics sink.
//!
//! The simulator's whole argument is an *accounting* of where time goes.
//! [`crate::Device::launch`] sums [`BlockStats`] across blocks, and keeps
//! every block's own stats beside the sum in
//! [`crate::LaunchRecord::per_block`], so load imbalance stays visible.
//! This module derives the layers above that:
//!
//! * [`ObsCells`] / [`ObsStats`] — an **uncounted side-channel** for
//!   introspection counters that must never feed the cost model. The
//!   rules: deterministic fields (look-back resolves) are asserted
//!   schedule-independent by tests; nondeterministic ones (walk depth,
//!   spin polls — both depend on thread interleaving) are exported for
//!   inspection but excluded from stats-equality checks, and none of them
//!   influence [`crate::DeviceProfile::estimate`].
//! * [`LaunchReport`] — occupancy-style metrics derived from per-block
//!   stats: block imbalance ratio, per-block sector histogram,
//!   critical-path vs. sum time estimates.
//! * [`scope_tree`] / [`ScopeNode`] — a hierarchical roll-up of a launch
//!   log keyed by the `/`-separated label segments that
//!   [`crate::Device::with_scope`] builds.
//! * [`MetricsSink`] — named JSON sections serialized with the hand-rolled
//!   [`crate::json`] module (no external deps, mirroring `trace.rs`).

use std::cell::Cell;
use std::ops::AddAssign;

use crate::flight::{EventKind, FlightEvent};
use crate::json::Json;
use crate::profile::DeviceProfile;
use crate::stats::{BlockStats, LaunchRecord};

/// Look-back depth histogram buckets: depths `0..15` each get a bucket,
/// anything deeper lands in the last one.
pub const LOOKBACK_DEPTH_BUCKETS: usize = 16;

/// Interior-mutable introspection counters, bundled inside
/// [`crate::StatCells`] so every [`crate::WarpCtx`] can reach them without
/// new plumbing (`w.obs()`).
///
/// This is the **uncounted channel**: nothing here is priced by
/// [`DeviceProfile::estimate`] and nothing here may feed back into
/// [`BlockStats`]. Deterministic fields (`lookback_resolves`) are
/// schedule-independent; the depth histogram and spin polls depend on
/// thread interleaving and are excluded from stats-equality assertions.
#[derive(Debug, Default)]
pub struct ObsCells {
    lookback_resolves: Cell<u64>,
    lookback_depth_total: Cell<u64>,
    lookback_depth_hist: [Cell<u64>; LOOKBACK_DEPTH_BUCKETS],
    spin_polls: Cell<u64>,
    // Flight-recorder ring (see `crate::flight`): bounded, uncounted,
    // armed per block by `Device::launch` from the thread-local capacity.
    flight_cap: Cell<usize>,
    flight_seq: Cell<u32>,
    flight_dropped: Cell<u64>,
    flight_events: std::cell::RefCell<Vec<FlightEvent>>,
}

impl ObsCells {
    /// Record one resolved look-back that met an `INCLUSIVE` word after
    /// walking back `depth` predecessor tiles (0 for tile 0, which
    /// publishes directly). Multi-row state records wider than a warp
    /// resolve once per warp-sized row group, so a complete kernel records
    /// `tiles * row_groups` resolves — callers asserting the
    /// resolves-per-tile invariant must scale it by the record's group
    /// count.
    pub fn record_lookback(&self, depth: u64) {
        self.lookback_resolves.set(self.lookback_resolves.get() + 1);
        self.lookback_depth_total
            .set(self.lookback_depth_total.get() + depth);
        let bucket = (depth as usize).min(LOOKBACK_DEPTH_BUCKETS - 1);
        let cell = &self.lookback_depth_hist[bucket];
        cell.set(cell.get() + 1);
    }

    /// Record `n` spin-poll iterations of an uncounted `device_peek` wait.
    pub fn record_spins(&self, n: u64) {
        self.spin_polls.set(self.spin_polls.get() + n);
    }

    /// Arm (or, with `cap == 0`, disarm) this block's flight ring.
    /// `Device::launch` calls this with the host thread's
    /// [`crate::flight::flight_capacity`] before the kernel runs.
    pub fn set_flight_capacity(&self, cap: usize) {
        self.flight_cap.set(cap);
    }

    /// Append a flight event to the ring. No-op when disarmed; when the
    /// ring is full the event is dropped and counted (truncation is
    /// flagged, never silent) while `seq` still advances, so a gap-free
    /// sequence certifies completeness. The `block` field is stamped
    /// later by `Device::launch` — emitters pass only the ticket and
    /// kind-specific payloads.
    pub fn flight_emit(&self, kind: EventKind, ticket: u32, a: u32, b: u32) {
        let cap = self.flight_cap.get();
        if cap == 0 {
            return;
        }
        let seq = self.flight_seq.get();
        self.flight_seq.set(seq.wrapping_add(1));
        let mut events = self.flight_events.borrow_mut();
        if events.len() < cap {
            events.push(FlightEvent {
                kind,
                block: 0,
                ticket,
                a,
                b,
                seq,
            });
        } else {
            self.flight_dropped.set(self.flight_dropped.get() + 1);
        }
    }

    /// Drain the ring when the block retires: `(events, dropped)`.
    pub(crate) fn take_flight(&self) -> (Vec<FlightEvent>, u64) {
        (
            std::mem::take(&mut *self.flight_events.borrow_mut()),
            self.flight_dropped.get(),
        )
    }

    /// Fold the cells into a plain value (when the block retires).
    pub fn snapshot(&self) -> ObsStats {
        ObsStats {
            lookback_resolves: self.lookback_resolves.get(),
            lookback_depth_total: self.lookback_depth_total.get(),
            lookback_depth_hist: std::array::from_fn(|i| self.lookback_depth_hist[i].get()),
            spin_polls: self.spin_polls.get(),
        }
    }
}

/// Introspection counters for one block (or, summed, one launch).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ObsStats {
    /// Look-backs resolved (one per [`ObsCells::record_lookback`] call).
    /// **Deterministic**: one per tile per warp-sized row group of its
    /// state record — `tiles` for the scalar scan, `tiles * ceil(rows/32)`
    /// for multi-row records — regardless of schedule.
    pub lookback_resolves: u64,
    /// Sum of walk depths. **Nondeterministic**: under `Device::sequential`
    /// every predecessor has finished, so every walk stops after one hop;
    /// under the parallel executor the depth depends on timing.
    pub lookback_depth_total: u64,
    /// Walk-depth histogram (`depth.min(15)`-indexed). Per-bucket counts
    /// are nondeterministic, but the **total across buckets equals
    /// `lookback_resolves`** and is therefore schedule-independent.
    pub lookback_depth_hist: [u64; LOOKBACK_DEPTH_BUCKETS],
    /// Uncounted `device_peek` poll iterations. **Nondeterministic.**
    pub spin_polls: u64,
}

impl AddAssign for ObsStats {
    fn add_assign(&mut self, o: Self) {
        self.lookback_resolves += o.lookback_resolves;
        self.lookback_depth_total += o.lookback_depth_total;
        for (a, b) in self
            .lookback_depth_hist
            .iter_mut()
            .zip(o.lookback_depth_hist)
        {
            *a += b;
        }
        self.spin_polls += o.spin_polls;
    }
}

impl ObsStats {
    /// Sum of the depth-histogram buckets; always equals
    /// [`lookback_resolves`](Self::lookback_resolves) — the
    /// schedule-independent invariant tests assert.
    pub fn depth_hist_total(&self) -> u64 {
        self.lookback_depth_hist.iter().sum()
    }

    /// Mean look-back walk depth (0 when nothing resolved).
    pub fn mean_depth(&self) -> f64 {
        if self.lookback_resolves == 0 {
            0.0
        } else {
            self.lookback_depth_total as f64 / self.lookback_resolves as f64
        }
    }
}

/// Occupancy-style metrics derived from a launch's per-block stats.
#[derive(Debug, Clone)]
pub struct LaunchReport {
    pub label: String,
    pub blocks: usize,
    /// The recorded estimate: profile applied to the *summed* stats.
    pub sum_seconds: f64,
    /// Lower bound assuming unlimited parallelism: launch overhead plus
    /// the slowest single block's modeled time.
    pub critical_path_seconds: f64,
    /// Slowest block's modeled time (overhead excluded).
    pub max_block_seconds: f64,
    /// Mean per-block modeled time (overhead excluded).
    pub mean_block_seconds: f64,
    /// Block imbalance ratio `max / mean` (1.0 = perfectly balanced).
    pub imbalance: f64,
    /// Per-block sector histogram over log2 buckets: `(bucket, blocks)`
    /// where bucket `0` holds blocks that touched no sectors and bucket
    /// `k >= 1` holds blocks with `sectors in [2^(k-1), 2^k)`. Only
    /// non-empty buckets are listed.
    pub sector_hist: Vec<(u32, u64)>,
}

/// Per-block modeled time: the profile prices a whole launch, so strip
/// the fixed launch overhead to isolate each block's own work.
pub(crate) fn block_seconds(per_block: &[BlockStats], profile: &DeviceProfile) -> Vec<f64> {
    let overhead = profile.launch_overhead_us * 1e-6;
    per_block
        .iter()
        .map(|b| (profile.estimate(b) - overhead).max(0.0))
        .collect()
}

/// Derive a [`LaunchReport`] from a record's per-block stats; `None`
/// for a zero-block launch, which has no blocks to compare.
pub fn launch_report(rec: &LaunchRecord, profile: &DeviceProfile) -> Option<LaunchReport> {
    let per_block = &rec.per_block;
    if per_block.is_empty() {
        return None;
    }
    let times = block_seconds(per_block, profile);
    let max = times.iter().cloned().fold(0.0f64, f64::max);
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    let mut hist = std::collections::BTreeMap::new();
    for b in per_block {
        let bucket = if b.sectors == 0 {
            0u32
        } else {
            64 - (b.sectors.leading_zeros())
        };
        *hist.entry(bucket).or_insert(0u64) += 1;
    }
    Some(LaunchReport {
        label: rec.label.clone(),
        blocks: per_block.len(),
        sum_seconds: rec.seconds,
        critical_path_seconds: profile.launch_overhead_us * 1e-6 + max,
        max_block_seconds: max,
        mean_block_seconds: mean,
        imbalance: if mean > 0.0 { max / mean } else { 1.0 },
        sector_hist: hist.into_iter().collect(),
    })
}

impl LaunchReport {
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("label".into(), Json::Str(self.label.clone())),
            ("blocks".into(), Json::int(self.blocks as u64)),
            ("sum_seconds".into(), Json::Num(self.sum_seconds)),
            (
                "critical_path_seconds".into(),
                Json::Num(self.critical_path_seconds),
            ),
            (
                "max_block_seconds".into(),
                Json::Num(self.max_block_seconds),
            ),
            (
                "mean_block_seconds".into(),
                Json::Num(self.mean_block_seconds),
            ),
            ("imbalance".into(), Json::Num(self.imbalance)),
            (
                "sector_hist_log2".into(),
                Json::Arr(
                    self.sector_hist
                        .iter()
                        .map(|&(bucket, count)| {
                            Json::Obj(vec![
                                ("bucket".into(), Json::int(bucket as u64)),
                                ("blocks".into(), Json::int(count)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// One node of the hierarchical scope-tree roll-up. Aggregates cover the
/// node's own records *and* everything below it.
#[derive(Debug, Default, Clone)]
pub struct ScopeNode {
    /// Label segment (empty for the root).
    pub name: String,
    /// Launches whose label ends at or passes through this node.
    pub launches: usize,
    /// Total blocks launched at or below this node.
    pub blocks: u64,
    /// Modeled seconds summed at or below this node.
    pub seconds: f64,
    /// Event counts summed at or below this node.
    pub stats: BlockStats,
    /// Introspection counters summed at or below this node.
    pub obs: ObsStats,
    /// Child scopes in first-appearance order.
    pub children: Vec<ScopeNode>,
}

impl ScopeNode {
    fn child_mut(&mut self, name: &str) -> &mut ScopeNode {
        if let Some(i) = self.children.iter().position(|c| c.name == name) {
            return &mut self.children[i];
        }
        self.children.push(ScopeNode {
            name: name.to_string(),
            ..ScopeNode::default()
        });
        self.children.last_mut().unwrap()
    }

    fn absorb(&mut self, rec: &LaunchRecord) {
        self.launches += 1;
        self.blocks += rec.blocks as u64;
        self.seconds += rec.seconds;
        self.stats += rec.stats;
        self.obs += rec.obs;
    }

    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("launches".into(), Json::int(self.launches as u64)),
            ("blocks".into(), Json::int(self.blocks)),
            ("seconds".into(), Json::Num(self.seconds)),
            ("sectors".into(), Json::int(self.stats.sectors)),
            ("dram_bytes".into(), Json::int(self.stats.dram_bytes())),
            ("wasted_bytes".into(), Json::int(self.stats.wasted_bytes())),
            ("replays".into(), Json::int(self.stats.replays)),
            ("stats".into(), stats_json(&self.stats)),
        ];
        if self.obs.lookback_resolves > 0 {
            fields.push(("obs".into(), obs_json(&self.obs)));
        }
        if !self.children.is_empty() {
            fields.push((
                "children".into(),
                Json::Arr(self.children.iter().map(ScopeNode::to_json).collect()),
            ));
        }
        Json::Obj(fields)
    }

    /// Indented text rendering (for the `paper profile` terminal report).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let name = if self.name.is_empty() {
            "(all)"
        } else {
            &self.name
        };
        out.push_str(&format!(
            "{:indent$}{name:<width$} {:>10.3} ms {:>14} sectors {:>12} waste B {:>10} replays\n",
            "",
            self.seconds * 1e3,
            self.stats.sectors,
            self.stats.wasted_bytes(),
            self.stats.replays,
            indent = depth * 2,
            width = 28usize.saturating_sub(depth * 2),
        ));
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }
}

/// Build the scope-tree roll-up of a launch log: labels split on `/`
/// (the separator [`crate::Device::with_scope`] inserts), aggregates
/// rolled up on every node along each path. The returned root spans the
/// whole log.
pub fn scope_tree(records: &[LaunchRecord]) -> ScopeNode {
    let mut root = ScopeNode::default();
    for rec in records {
        root.absorb(rec);
        let mut node = &mut root;
        for seg in rec.label.split('/') {
            node = node.child_mut(seg);
            node.absorb(rec);
        }
    }
    root
}

/// Every [`BlockStats`] counter as a JSON object, from the same list the
/// Chrome trace exporter writes, so neither can silently drop one.
fn stats_json(s: &BlockStats) -> Json {
    Json::Obj(
        s.counters()
            .into_iter()
            .map(|(name, v)| (name.into(), Json::int(v)))
            .collect(),
    )
}

/// [`ObsStats`] as JSON. The histogram is emitted in full so chain-length
/// distributions are visible; consumers must treat `depth`/`spin` fields
/// as nondeterministic (see the field docs).
pub fn obs_json(o: &ObsStats) -> Json {
    Json::Obj(vec![
        ("lookback_resolves".into(), Json::int(o.lookback_resolves)),
        (
            "lookback_depth_total".into(),
            Json::int(o.lookback_depth_total),
        ),
        ("lookback_mean_depth".into(), Json::Num(o.mean_depth())),
        (
            "lookback_depth_hist".into(),
            Json::Arr(
                o.lookback_depth_hist
                    .iter()
                    .map(|&c| Json::int(c))
                    .collect(),
            ),
        ),
        ("spin_polls".into(), Json::int(o.spin_polls)),
    ])
}

/// One launch record as JSON: its summed stats and, of the flight log,
/// only the event count. Per-block stats stay out, since a launch can
/// have thousands of blocks; [`LaunchReport`] carries them in derived
/// form.
fn record_json(rec: &LaunchRecord) -> Json {
    let mut fields = vec![
        ("label".into(), Json::Str(rec.label.clone())),
        ("blocks".into(), Json::int(rec.blocks as u64)),
        (
            "warps_per_block".into(),
            Json::int(rec.warps_per_block as u64),
        ),
        ("seconds".into(), Json::Num(rec.seconds)),
        ("stats".into(), stats_json(&rec.stats)),
    ];
    if rec.obs != ObsStats::default() {
        fields.push(("obs".into(), obs_json(&rec.obs)));
    }
    // Flight log: summary only — full event streams belong in the chrome
    // trace, not in every JSON export.
    if let Some(flight) = &rec.flight {
        fields.push((
            "flight".into(),
            Json::Obj(vec![
                ("events".into(), Json::int(flight.events.len() as u64)),
                ("dropped".into(), Json::int(flight.dropped)),
            ]),
        ));
    }
    Json::Obj(fields)
}

/// A whole launch log as a JSON array.
pub fn records_json(records: &[LaunchRecord]) -> Json {
    Json::Arr(records.iter().map(record_json).collect())
}

/// Named JSON sections accumulated over a run and written as one document
/// — the structured counterpart of the `.txt` reports in `bench_results/`.
#[derive(Debug, Default)]
pub struct MetricsSink {
    sections: Vec<(String, Json)>,
}

impl MetricsSink {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Append a named section (names may repeat; order is preserved).
    pub fn push(&mut self, name: &str, value: Json) {
        self.sections.push((name.to_string(), value));
    }

    /// The whole sink as one JSON object (`{"sections": [{name, data}]}` —
    /// an array, not a map, because section names may repeat).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![(
            "sections".into(),
            Json::Arr(
                self.sections
                    .iter()
                    .map(|(name, data)| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(name.clone())),
                            ("data".into(), data.clone()),
                        ])
                    })
                    .collect(),
            ),
        )])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::K40C;

    fn rec(label: &str, sectors: u64, seconds: f64) -> LaunchRecord {
        LaunchRecord {
            label: label.into(),
            blocks: 2,
            warps_per_block: 8,
            stats: BlockStats {
                sectors,
                useful_bytes: sectors * 16,
                ..Default::default()
            },
            obs: ObsStats::default(),
            per_block: Vec::new(),
            flight: None,
            seconds,
            stream: crate::stream::HOST_STREAM,
            stream_seq: 0,
        }
    }

    #[test]
    fn obs_cells_histogram_and_invariant() {
        let cells = ObsCells::default();
        for depth in [0u64, 1, 1, 3, 40] {
            cells.record_lookback(depth);
        }
        cells.record_spins(7);
        let o = cells.snapshot();
        assert_eq!(o.lookback_resolves, 5);
        assert_eq!(o.lookback_depth_total, 45);
        assert_eq!(o.lookback_depth_hist[0], 1);
        assert_eq!(o.lookback_depth_hist[1], 2);
        assert_eq!(o.lookback_depth_hist[3], 1);
        assert_eq!(
            o.lookback_depth_hist[LOOKBACK_DEPTH_BUCKETS - 1],
            1,
            "deep walks clamp"
        );
        assert_eq!(o.depth_hist_total(), o.lookback_resolves);
        assert_eq!(o.spin_polls, 7);
        assert!((o.mean_depth() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn obs_stats_add_assign_sums_everything() {
        let mut a = ObsStats::default();
        let cells = ObsCells::default();
        cells.record_lookback(2);
        cells.record_spins(5);
        let b = cells.snapshot();
        a += b;
        a += b;
        assert_eq!(a.lookback_resolves, 2);
        assert_eq!(a.lookback_depth_total, 4);
        assert_eq!(a.lookback_depth_hist[2], 2);
        assert_eq!(a.spin_polls, 10);
    }

    #[test]
    fn scope_tree_rolls_up_along_paths() {
        let recs = vec![
            rec("fused/pre-scan", 100, 1e-6),
            rec("fused/sweep", 300, 3e-6),
            rec("scan/scan-chained", 50, 2e-6),
        ];
        let root = scope_tree(&recs);
        assert_eq!(root.launches, 3);
        assert_eq!(root.stats.sectors, 450);
        assert!((root.seconds - 6e-6).abs() < 1e-18);
        let fused = root.children.iter().find(|c| c.name == "fused").unwrap();
        assert_eq!(fused.launches, 2);
        assert_eq!(fused.stats.sectors, 400);
        assert_eq!(fused.children.len(), 2);
        assert_eq!(fused.children[0].name, "pre-scan");
        assert_eq!(fused.children[0].stats.sectors, 100);
        let text = root.render_text();
        assert!(text.contains("fused"));
        assert!(text.contains("sweep"));
        let json = root.to_json().pretty();
        assert!(Json::parse(&json).is_ok(), "scope tree must be valid JSON");
    }

    #[test]
    fn launch_report_derives_imbalance_and_histogram() {
        let mut r = rec("k", 6, 1e-5);
        let heavy = BlockStats {
            sectors: 4,
            useful_bytes: 128,
            ..Default::default()
        };
        let light = BlockStats {
            sectors: 2,
            useful_bytes: 64,
            ..Default::default()
        };
        let idle = BlockStats::default();
        r.per_block = vec![heavy, light, idle];
        let report = launch_report(&r, &K40C).expect("per-block stats present");
        assert_eq!(report.blocks, 3);
        assert!(report.imbalance > 1.0, "skewed blocks => imbalance > 1");
        assert!(report.critical_path_seconds <= report.sum_seconds + 9e-6);
        assert!(report.max_block_seconds >= report.mean_block_seconds);
        // heavy: bucket 3 ([4,8)); light: bucket 2 ([2,4)); idle: bucket 0.
        assert_eq!(report.sector_hist, vec![(0, 1), (2, 1), (3, 1)]);
        assert!(Json::parse(&report.to_json().render()).is_ok());
        let empty = LaunchRecord {
            blocks: 0,
            ..rec("empty", 0, 0.0)
        };
        assert!(
            launch_report(&empty, &K40C).is_none(),
            "no blocks, no report"
        );
    }

    #[test]
    fn metrics_sink_serializes_valid_json() {
        let mut sink = MetricsSink::new();
        assert!(sink.is_empty());
        sink.push("meta", Json::Obj(vec![("n".into(), Json::int(65536))]));
        sink.push(
            "run \"quoted\\label\"",
            records_json(&[rec("a/b", 10, 1e-6)]),
        );
        let text = sink.to_json().pretty();
        let parsed = Json::parse(&text).expect("sink output must parse");
        let sections = parsed.get("sections").unwrap().as_arr().unwrap();
        assert_eq!(sections.len(), 2);
        assert_eq!(
            sections[1].get("name").unwrap().as_str(),
            Some("run \"quoted\\label\"")
        );
    }
}
