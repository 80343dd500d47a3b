//! Chrome-trace export of a device's launch log.
//!
//! `about://tracing` / [Perfetto](https://ui.perfetto.dev) can open the
//! JSON this module renders, giving a timeline of every kernel with its
//! counted events attached — handy when figuring out where a multisplit
//! variant's modeled time goes.
//!
//! Layout: one track (`tid`) per top-level scope segment of the launch
//! labels (named via `"M"`-phase `thread_name` metadata), one `"X"`
//! complete event per kernel carrying **every** [`crate::BlockStats`]
//! counter in its `args`, and two `"C"`-phase counter tracks — modeled
//! DRAM bandwidth (GB/s) and coalescing waste (bytes) — so Perfetto plots
//! bandwidth over (modeled) time.

use crate::json::escape;
use crate::profile::DeviceProfile;
use crate::stats::LaunchRecord;

/// The top-level scope of a label: everything before the first `/`
/// (the whole label when it has no stage suffix).
fn top_scope(label: &str) -> &str {
    label.split('/').next().unwrap_or(label)
}

/// Cap on per-tile slices per record: beyond this a tile timeline stops
/// being readable (and the trace file balloons), so larger launches keep
/// only their kernel-level "X" event.
const MAX_TILE_SLICES: usize = 1024;

/// Serialize launch records as a Chrome trace (JSON array format).
pub fn chrome_trace_json(records: &[LaunchRecord]) -> String {
    build_trace(records, None)
}

/// [`chrome_trace_json`] plus, for records carrying both a flight log
/// and per-block stats (≤ `MAX_TILE_SLICES` tiles), a reconstructed
/// per-tile timeline: one `"X"` slice per tile laid out on first-fit
/// lanes from the stall DAG, with `ph:"s"`/`ph:"f"` flow arrows from
/// each stalled publisher to its resolver. The `profile` weights tiles
/// by modeled block time, exactly as [`crate::flight::analyze`] does.
pub fn chrome_trace_json_with_tiles(records: &[LaunchRecord], profile: &DeviceProfile) -> String {
    build_trace(records, Some(profile))
}

fn build_trace(records: &[LaunchRecord], profile: Option<&DeviceProfile>) -> String {
    let mut out = String::from("[\n");
    if records.is_empty() {
        out.push(']');
        return out;
    }
    let mut events: Vec<String> = Vec::new();
    // One track per top-level scope, in first-appearance order; tid 1..=N.
    let mut scopes: Vec<&str> = Vec::new();
    for r in records {
        let s = top_scope(&r.label);
        if !scopes.contains(&s) {
            scopes.push(s);
        }
    }
    for (i, s) in scopes.iter().enumerate() {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":{}}}}}",
            i + 1,
            escape(s),
        ));
    }
    let mut t_us = 0.0f64;
    let mut lanes_used = 0usize;
    let mut flow_id = 0u64;
    for r in records {
        let dur = r.seconds * 1e6;
        let tid = scopes
            .iter()
            .position(|s| *s == top_scope(&r.label))
            .unwrap()
            + 1;
        let s = &r.stats;
        let mut args = format!(
            "\"blocks\":{},\"warps_per_block\":{}",
            r.blocks, r.warps_per_block
        );
        for (name, v) in s.counters() {
            args.push_str(&format!(",\"{name}\":{v}"));
        }
        if r.obs.lookback_resolves > 0 {
            args.push_str(&format!(
                ",\"lookback_resolves\":{},\"lookback_depth_total\":{},\"spin_polls\":{}",
                r.obs.lookback_resolves, r.obs.lookback_depth_total, r.obs.spin_polls,
            ));
        }
        events.push(format!(
            "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{t_us:.3},\"dur\":{dur:.3},\"args\":{{{args}}}}}",
            escape(&r.label),
        ));
        // Counter samples at the kernel's start; Perfetto holds each value
        // until the next sample, so the step function tracks the timeline.
        let gbps = if r.seconds > 0.0 {
            s.dram_bytes() as f64 / r.seconds / 1e9
        } else {
            0.0
        };
        events.push(format!(
            "{{\"name\":\"DRAM GB/s\",\"ph\":\"C\",\"pid\":1,\"ts\":{t_us:.3},\"args\":{{\"value\":{gbps:.3}}}}}"
        ));
        events.push(format!(
            "{{\"name\":\"waste bytes\",\"ph\":\"C\",\"pid\":1,\"ts\":{t_us:.3},\"args\":{{\"value\":{}}}}}",
            s.wasted_bytes(),
        ));
        if let Some(p) = profile {
            emit_tile_events(
                r,
                p,
                t_us,
                scopes.len(),
                &mut lanes_used,
                &mut flow_id,
                &mut events,
            );
        }
        t_us += dur;
    }
    for lane in 0..lanes_used {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"tile lane {lane}\"}}}}",
            scopes.len() + 1 + lane,
        ));
    }
    // Close both counter tracks at the end of the timeline.
    for name in ["DRAM GB/s", "waste bytes"] {
        events.push(format!(
            "{{\"name\":\"{name}\",\"ph\":\"C\",\"pid\":1,\"ts\":{t_us:.3},\"args\":{{\"value\":0}}}}"
        ));
    }
    out.push_str(&events.join(",\n"));
    out.push_str("\n]");
    out
}

/// Emit one record's tile timeline: per-tile `"X"` slices on first-fit
/// lanes plus flow arrows along the stall edges. No-op unless the record
/// carries a flight log and per-block stats with a workable tile count.
fn emit_tile_events(
    r: &LaunchRecord,
    profile: &DeviceProfile,
    t_us: f64,
    scope_tracks: usize,
    lanes_used: &mut usize,
    flow_id: &mut u64,
    events: &mut Vec<String>,
) {
    let Some((tiles, stall_edges)) = crate::flight::tile_schedule(r, profile) else {
        return;
    };
    if tiles.is_empty() || tiles.len() > MAX_TILE_SLICES {
        return;
    }
    // Tile spans start after the launch overhead, inside the record's
    // own [t_us, t_us + dur] window (the exact critical path is bounded
    // by the sum-based duration).
    let base_us = t_us + profile.launch_overhead_us;
    // First-fit lane assignment over (start, finish) intervals; tiles
    // arrive sorted by start.
    let mut lane_free_at: Vec<f64> = Vec::new();
    let mut placed: std::collections::BTreeMap<u32, (usize, f64, f64)> =
        std::collections::BTreeMap::new();
    for &(ticket, start, finish) in &tiles {
        let lane = match lane_free_at.iter().position(|&f| f <= start) {
            Some(l) => l,
            None => {
                lane_free_at.push(0.0);
                lane_free_at.len() - 1
            }
        };
        lane_free_at[lane] = finish.max(start);
        placed.insert(ticket, (lane, start, finish));
        let tid = scope_tracks + 1 + lane;
        events.push(format!(
            "{{\"name\":\"tile {ticket}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"ticket\":{ticket}}}}}",
            base_us + start * 1e6,
            (finish - start) * 1e6,
        ));
    }
    *lanes_used = (*lanes_used).max(lane_free_at.len());
    // Flow arrows publisher → resolver along the stall edges: `ph:"s"`
    // where the predecessor finished, `ph:"f"` (binding point "e") where
    // the stalled tile finally started.
    for &(pred, tile) in &stall_edges {
        let (Some(&(pl, _, pf)), Some(&(tl, ts, _))) = (placed.get(&pred), placed.get(&tile))
        else {
            continue;
        };
        *flow_id += 1;
        let id = *flow_id;
        events.push(format!(
            "{{\"name\":\"lookback\",\"cat\":\"lookback\",\"ph\":\"s\",\"id\":{id},\"pid\":1,\"tid\":{},\"ts\":{:.3}}}",
            scope_tracks + 1 + pl,
            base_us + pf * 1e6,
        ));
        events.push(format!(
            "{{\"name\":\"lookback\",\"cat\":\"lookback\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{id},\"pid\":1,\"tid\":{},\"ts\":{:.3}}}",
            scope_tracks + 1 + tl,
            base_us + ts * 1e6,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::obs::ObsStats;
    use crate::stats::BlockStats;

    fn record(label: &str, seconds: f64) -> LaunchRecord {
        LaunchRecord {
            label: label.into(),
            blocks: 4,
            warps_per_block: 8,
            stats: BlockStats {
                sectors: 10,
                useful_bytes: 320,
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
    fn trace_is_valid_jsonish_and_ordered() {
        let recs = vec![record("a/pre-scan", 1e-6), record("a/scan", 2e-6)];
        let json = chrome_trace_json(&recs);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"a/pre-scan\""));
        assert!(json.contains("\"dur\":2.000"));
        // Second event starts where the first ended.
        assert!(json.contains("\"ts\":1.000"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
    }

    #[test]
    fn empty_log_is_an_empty_array() {
        assert_eq!(chrome_trace_json(&[]), "[\n]");
    }

    #[test]
    fn all_stats_fields_are_emitted() {
        let mut r = record("k", 1e-6);
        r.stats = BlockStats {
            sectors: 1,
            useful_bytes: 2,
            global_requests: 3,
            replays: 4,
            atomic_ops: 5,
            atomic_conflicts: 6,
            smem_ops: 7,
            smem_bank_conflicts: 12,
            intrinsics: 8,
            lane_ops: 9,
            barriers: 10,
            divergent_iters: 11,
        };
        let json = chrome_trace_json(&[r]);
        for field in [
            "\"sectors\":1",
            "\"useful_bytes\":2",
            "\"global_requests\":3",
            "\"replays\":4",
            "\"atomic_ops\":5",
            "\"atomic_conflicts\":6",
            "\"smem_ops\":7",
            "\"smem_bank_conflicts\":12",
            "\"intrinsics\":8",
            "\"lane_ops\":9",
            "\"barriers\":10",
            "\"divergent_iters\":11",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }

    #[test]
    fn scopes_get_their_own_named_tracks() {
        let recs = vec![
            record("fused/pre-scan", 1e-6),
            record("scan/scan-chained", 1e-6),
            record("fused/sweep", 1e-6),
        ];
        let json = chrome_trace_json(&recs);
        assert_eq!(json.matches("\"thread_name\"").count(), 2, "one per scope");
        assert!(json.contains("\"args\":{\"name\":\"fused\"}"));
        assert!(json.contains("\"args\":{\"name\":\"scan\"}"));
        // Both fused kernels share tid 1 with their metadata event; the
        // scan kernel gets tid 2.
        assert_eq!(json.matches("\"tid\":1,").count(), 3);
        assert_eq!(json.matches("\"tid\":2,").count(), 2);
    }

    #[test]
    fn counter_tracks_cover_the_timeline() {
        let json = chrome_trace_json(&[record("k", 1e-6)]);
        // One sample at the kernel start plus the closing zero, per track.
        assert_eq!(json.matches("\"DRAM GB/s\"").count(), 2);
        assert_eq!(json.matches("\"waste bytes\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"C\"").count(), 4);
    }

    #[test]
    fn trace_is_real_json_even_with_hostile_labels() {
        let recs = vec![record("quote\"in/label", 1e-6), record("back\\slash", 2e-6)];
        let json = chrome_trace_json(&recs);
        let parsed = Json::parse(&json).expect("trace must be valid JSON");
        let events = parsed.as_arr().unwrap();
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert!(names.contains(&"quote\"in/label"));
        assert!(names.contains(&"back\\slash"));
    }
}
