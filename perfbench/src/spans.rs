//! Host spans recorded by the benchmark around each public call it makes
//! (generate, upload, layer call, download, verify), the per-name self
//! time derived from them, and the Chrome-trace file that holds them next
//! to the modeled launch spans.

use std::collections::BTreeMap;
use std::time::Instant;

use simt::{Json, LaunchRecord, HOST_STREAM};

/// One closed host span. Times are seconds since the recorder started.
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub detail: String,
    pub start: f64,
    pub dur: f64,
    pub parent: Option<usize>,
}

/// Times calls, and when recording is on keeps a span for each one.
/// Untraced runs time the same calls with recording off.
pub struct Recorder {
    on: bool,
    t0: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A span that has begun; hand it back to [`Recorder::end`].
pub struct Open {
    idx: Option<usize>,
    start: Instant,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            t0: Instant::now(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Start the next op: later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn begin(&mut self, name: &'static str, detail: &str) -> Open {
        let start = Instant::now();
        let idx = self.on.then(|| {
            self.spans.push(Span {
                op: self.op,
                name,
                detail: detail.to_string(),
                start: start.duration_since(self.t0).as_secs_f64(),
                dur: 0.0,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { idx, start }
    }

    /// Close a span and return its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let dur = open.start.elapsed().as_secs_f64();
        if let Some(idx) = open.idx {
            self.spans[idx].dur = dur;
            self.open.pop();
        }
        dur
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name (duration minus the time its child spans
/// cover), summed over all spans.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur;
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child) {
        *out.entry(s.name).or_insert(0.0) += (s.dur - c).max(0.0);
    }
    out
}

fn event(name: &str, cat: &str, ts_us: f64, dur_us: f64, pid: u64, tid: u64, args: Json) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(name.into())),
        ("cat".into(), Json::Str(cat.into())),
        ("ph".into(), Json::Str("X".into())),
        ("ts".into(), Json::Num(ts_us)),
        ("dur".into(), Json::Num(dur_us)),
        ("pid".into(), Json::int(pid)),
        ("tid".into(), Json::int(tid)),
        ("args".into(), args),
    ])
}

/// Chrome-trace events: host spans in process 1 (simulator host time),
/// and modeled launches in process 2 (modeled device time), each on the
/// trace lane and ending at the completion time `placed` gives it.
pub fn trace_events(spans: &[Span], records: &[LaunchRecord], placed: &[(u64, f64)]) -> Json {
    let mut events: Vec<Json> = spans
        .iter()
        .map(|s| {
            let args = Json::Obj(vec![
                ("op".into(), Json::int(s.op)),
                ("detail".into(), Json::Str(s.detail.clone())),
            ]);
            event(s.name, "host", s.start * 1e6, s.dur * 1e6, 1, 1, args)
        })
        .collect();
    for (r, &(lane, end_s)) in records.iter().zip(placed) {
        let stream = if r.stream == HOST_STREAM {
            Json::Str("host".into())
        } else {
            Json::int(r.stream as u64)
        };
        let args = Json::Obj(vec![
            (
                "stage".into(),
                Json::Str(msbench::stage_of(&r.label).into()),
            ),
            ("stream".into(), stream),
            ("seq".into(), Json::int(r.stream_seq as u64)),
            ("blocks".into(), Json::int(r.blocks as u64)),
            ("sectors".into(), Json::int(r.stats.sectors)),
            ("completion_us".into(), Json::Num(end_s * 1e6)),
        ]);
        let start_us = (end_s - r.seconds) * 1e6;
        events.push(event(
            &r.label,
            "modeled",
            start_us,
            r.seconds * 1e6,
            2,
            lane,
            args,
        ));
    }
    Json::Arr(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new(true);
        let op = rec.begin("op", "");
        let child = rec.begin("call", "");
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.end(child);
        rec.end(op);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        let st = self_times(spans);
        assert!((st["op"] + st["call"] - spans[0].dur).abs() < 1e-12);
        assert!(st["call"] >= 0.002);
    }

    #[test]
    fn recording_off_still_times() {
        let mut rec = Recorder::new(false);
        let s = rec.begin("call", "");
        assert!(rec.end(s) >= 0.0);
        assert!(rec.spans().is_empty());
    }
}
