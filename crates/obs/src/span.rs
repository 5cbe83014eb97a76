//! Hierarchical tracing spans on named tracks.
//!
//! A *track* is a timeline (one per subsystem: `"provision"`, `"train"`,
//! `"recovery"`, `"slo"`). Spans on a track nest: [`Tracer::begin_at`]
//! pushes onto the track's stack, [`Tracer::end_at`] pops the innermost
//! open span and records it, so recorded span trees are well-nested by
//! construction. Two clock backends share this machinery:
//!
//! * **virtual clock** — the caller supplies simulated timestamps
//!   (`queue.now()` seconds) via `begin_at`/`end_at`/[`Tracer::complete`].
//!   Deterministic: the same simulation produces byte-identical traces.
//! * **wall clock** — [`Tracer::wall_span`] returns a [`WallSpan`] RAII
//!   guard that measures real elapsed time against the tracer's epoch;
//!   used around provisioning searches and benches.
//!
//! Mixing backends on one track would interleave unrelated time bases, so
//! instrumentation keeps wall-clock tracks (`"provision"`) separate from
//! virtual-clock tracks (`"train"`, `"recovery"`, `"slo"`).
//!
//! Finished spans accumulate in a bounded buffer ([`Tracer::drain`] them;
//! overflow increments [`Tracer::dropped`] instead of reallocating without
//! bound) and export as JSONL ([`to_jsonl`]) or a Chrome trace-event
//! document ([`to_chrome_trace`]) loadable in `chrome://tracing` or
//! Perfetto.

use parking_lot::Mutex;
use serde::{Number, Serialize, Value};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Timeline this span belongs to (e.g. `"train"`).
    pub track: String,
    /// Span name (e.g. `"train.iteration"`).
    pub name: String,
    /// Start time in seconds (virtual or wall, per the track's backend).
    pub start: f64,
    /// End time in seconds; `end >= start`.
    pub end: f64,
    /// Nesting depth at record time (0 = top level on its track).
    pub depth: usize,
    /// Numeric attachments (e.g. `("comp_secs", 1.2)`).
    pub args: Vec<(String, f64)>,
}

impl SpanRecord {
    /// Span duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

impl Serialize for SpanRecord {
    fn to_value(&self) -> Value {
        let mut obj: Vec<(String, Value)> = vec![
            ("track".to_string(), Value::Str(self.track.clone())),
            ("name".to_string(), Value::Str(self.name.clone())),
            (
                "start".to_string(),
                Value::Number(Number::Float(self.start)),
            ),
            ("end".to_string(), Value::Number(Number::Float(self.end))),
            (
                "depth".to_string(),
                Value::Number(Number::Int(self.depth as i64)),
            ),
        ];
        if !self.args.is_empty() {
            obj.push((
                "args".to_string(),
                Value::Object(
                    self.args
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Number(Number::Float(*v))))
                        .collect(),
                ),
            ));
        }
        Value::Object(obj)
    }
}

#[derive(Debug)]
struct OpenSpan {
    name: String,
    start: f64,
}

#[derive(Debug, Default)]
struct TracerInner {
    /// Open-span stack per track, keyed by track name.
    stacks: Vec<(String, Vec<OpenSpan>)>,
    /// Finished spans in completion order.
    finished: Vec<SpanRecord>,
}

impl TracerInner {
    fn stack_mut(&mut self, track: &str) -> &mut Vec<OpenSpan> {
        if let Some(idx) = self.stacks.iter().position(|(t, _)| t == track) {
            &mut self.stacks[idx].1
        } else {
            self.stacks.push((track.to_string(), Vec::new()));
            &mut self.stacks.last_mut().unwrap().1
        }
    }
}

/// Span recorder with a bounded buffer and an enable flag.
///
/// The process-wide instance lives at [`crate::tracer`] and starts
/// disabled; every recording method is a single relaxed atomic load when
/// disabled, which is what keeps always-compiled-in hooks cheap.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    capacity: usize,
    dropped: AtomicU64,
    epoch: Instant,
    inner: Mutex<TracerInner>,
}

impl Tracer {
    /// A disabled tracer holding at most `capacity` finished spans.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            capacity,
            dropped: AtomicU64::new(0),
            epoch: Instant::now(),
            inner: Mutex::new(TracerInner::default()),
        }
    }

    /// Turns recording on or off. Spans already open stay open.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Seconds since this tracer was created (the wall-clock time base).
    pub fn wall_now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span on `track` at virtual time `start`.
    pub fn begin_at(&self, track: &str, name: &str, start: f64) {
        if self.is_enabled() {
            self.open(track, name.to_string(), start);
        }
    }

    fn open(&self, track: &str, name: String, start: f64) {
        self.inner
            .lock()
            .stack_mut(track)
            .push(OpenSpan { name, start });
    }

    /// Closes the innermost open span on `track` at virtual time `end`,
    /// attaching `args`. No-op if nothing is open (e.g. the tracer was
    /// enabled mid-run).
    pub fn end_at(&self, track: &str, end: f64, args: &[(&str, f64)]) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.inner.lock();
        let stack = inner.stack_mut(track);
        let Some(open) = stack.pop() else { return };
        let depth = stack.len();
        let record = SpanRecord {
            track: track.to_string(),
            name: open.name,
            start: open.start,
            end: end.max(open.start),
            depth,
            args: args.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        };
        self.push(&mut inner, record);
    }

    /// Records an already-measured span in one call, nested under
    /// whatever is currently open on `track`.
    pub fn complete(&self, track: &str, name: &str, start: f64, end: f64, args: &[(&str, f64)]) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.inner.lock();
        let depth = inner.stack_mut(track).len();
        let record = SpanRecord {
            track: track.to_string(),
            name: name.to_string(),
            start,
            end: end.max(start),
            depth,
            args: args.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        };
        self.push(&mut inner, record);
    }

    /// Opens a wall-clock span on `track`; the returned guard records it
    /// when dropped. Returns an inert guard while disabled, without
    /// formatting `name`.
    pub fn wall_span(&self, track: &str, name: impl fmt::Display) -> WallSpan<'_> {
        if !self.is_enabled() {
            return WallSpan {
                tracer: None,
                track: String::new(),
            };
        }
        self.open(track, name.to_string(), self.wall_now());
        WallSpan {
            tracer: Some(self),
            track: track.to_string(),
        }
    }

    fn push(&self, inner: &mut TracerInner, record: SpanRecord) {
        if inner.finished.len() >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            inner.finished.push(record);
        }
    }

    /// Number of open spans on `track` right now.
    pub fn open_depth(&self, track: &str) -> usize {
        self.inner.lock().stack_mut(track).len()
    }

    /// Takes all finished spans (completion order), leaving open spans
    /// untouched and resetting the drop counter.
    pub fn drain(&self) -> Vec<SpanRecord> {
        self.dropped.store(0, Ordering::Relaxed);
        std::mem::take(&mut self.inner.lock().finished)
    }

    /// Spans discarded because the buffer was full since the last drain.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// RAII guard for a wall-clock span; records on drop.
#[derive(Debug)]
#[must_use = "dropping immediately records a zero-length span"]
pub struct WallSpan<'a> {
    tracer: Option<&'a Tracer>,
    track: String,
}

impl Drop for WallSpan<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.tracer {
            t.end_at(&self.track, t.wall_now(), &[]);
        }
    }
}

/// Renders spans as JSON Lines, one compact object per line (trailing
/// newline included when non-empty). Byte-deterministic for equal input.
pub fn to_jsonl(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&s.to_value().to_json_compact());
        out.push('\n');
    }
    out
}

/// Builds a Chrome trace-event document (`chrome://tracing`, Perfetto).
///
/// Each track becomes a thread (`tid` in first-seen order, with a
/// `thread_name` metadata event); spans become complete events (`ph:"X"`)
/// with microsecond timestamps.
pub fn to_chrome_trace(spans: &[SpanRecord]) -> Value {
    let mut tracks: Vec<&str> = Vec::new();
    for s in spans {
        if !tracks.iter().any(|t| *t == s.track) {
            tracks.push(&s.track);
        }
    }
    let mut events: Vec<Value> = Vec::with_capacity(spans.len() + tracks.len());
    for (i, track) in tracks.iter().enumerate() {
        events.push(Value::Object(vec![
            ("name".to_string(), Value::Str("thread_name".to_string())),
            ("ph".to_string(), Value::Str("M".to_string())),
            ("pid".to_string(), Value::Number(Number::Int(1))),
            ("tid".to_string(), Value::Number(Number::Int(i as i64 + 1))),
            (
                "args".to_string(),
                Value::Object(vec![("name".to_string(), Value::Str((*track).to_string()))]),
            ),
        ]));
    }
    for s in spans {
        let tid = tracks.iter().position(|t| *t == s.track).unwrap() as i64 + 1;
        let mut ev: Vec<(String, Value)> = vec![
            ("name".to_string(), Value::Str(s.name.clone())),
            ("cat".to_string(), Value::Str(s.track.clone())),
            ("ph".to_string(), Value::Str("X".to_string())),
            (
                "ts".to_string(),
                Value::Number(Number::Float(s.start * 1e6)),
            ),
            (
                "dur".to_string(),
                Value::Number(Number::Float(s.duration() * 1e6)),
            ),
            ("pid".to_string(), Value::Number(Number::Int(1))),
            ("tid".to_string(), Value::Number(Number::Int(tid))),
        ];
        if !s.args.is_empty() {
            ev.push((
                "args".to_string(),
                Value::Object(
                    s.args
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Number(Number::Float(*v))))
                        .collect(),
                ),
            ));
        }
        events.push(Value::Object(ev));
    }
    Value::Object(vec![
        ("traceEvents".to_string(), Value::Array(events)),
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
    ])
}

/// Checks that every track's spans form a well-nested tree: spans are
/// disjoint or strictly contained, and each recorded `depth` matches the
/// reconstructed nesting. Returns `Err` describing the first violation.
pub fn validate_well_nested(spans: &[SpanRecord]) -> Result<(), String> {
    let mut tracks: Vec<&str> = spans.iter().map(|s| s.track.as_str()).collect();
    tracks.sort();
    tracks.dedup();
    for track in tracks {
        let mut on_track: Vec<&SpanRecord> = spans.iter().filter(|s| s.track == track).collect();
        // Parents sort before children: earlier start first, then longer
        // span first, then shallower depth first.
        on_track.sort_by(|a, b| {
            a.start
                .partial_cmp(&b.start)
                .unwrap()
                .then(b.end.partial_cmp(&a.end).unwrap())
                .then(a.depth.cmp(&b.depth))
        });
        let mut stack: Vec<&SpanRecord> = Vec::new();
        for s in on_track {
            if s.end < s.start {
                return Err(format!("span {}/{} ends before it starts", track, s.name));
            }
            // Unwind ancestors that finished before this span starts; the
            // recorded depth says how many must remain.
            while stack.len() > s.depth {
                let top = stack.last().unwrap();
                if top.end <= s.start {
                    stack.pop();
                } else {
                    return Err(format!(
                        "span {}/{} [{}, {}] at depth {} overlaps still-open {} [{}, {}]",
                        track, s.name, s.start, s.end, s.depth, top.name, top.start, top.end
                    ));
                }
            }
            if stack.len() < s.depth {
                return Err(format!(
                    "span {}/{} recorded depth {} but only {} ancestors are open",
                    track,
                    s.name,
                    s.depth,
                    stack.len()
                ));
            }
            if let Some(top) = stack.last() {
                if s.start < top.start || s.end > top.end {
                    return Err(format!(
                        "span {}/{} [{}, {}] not contained in parent {} [{}, {}]",
                        track, s.name, s.start, s.end, top.name, top.start, top.end
                    ));
                }
            }
            stack.push(s);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled_tracer() -> Tracer {
        let t = Tracer::new(64);
        t.set_enabled(true);
        t
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(64);
        t.begin_at("x", "a", 0.0);
        t.end_at("x", 1.0, &[]);
        t.complete("x", "b", 0.0, 1.0, &[]);
        drop(t.wall_span("x", "c"));
        assert!(t.drain().is_empty());
    }

    #[test]
    fn spans_nest_and_record_depth() {
        let t = enabled_tracer();
        t.begin_at("sim", "outer", 0.0);
        t.begin_at("sim", "inner", 1.0);
        t.end_at("sim", 2.0, &[("n", 3.0)]);
        t.complete("sim", "leaf", 2.0, 2.5, &[]);
        t.end_at("sim", 4.0, &[]);
        let spans = t.drain();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[0].args, vec![("n".to_string(), 3.0)]);
        assert_eq!(spans[1].name, "leaf");
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[2].name, "outer");
        assert_eq!(spans[2].depth, 0);
        validate_well_nested(&spans).unwrap();
    }

    #[test]
    fn capacity_overflow_counts_drops() {
        let t = Tracer::new(2);
        t.set_enabled(true);
        for i in 0..5 {
            t.complete("x", "s", i as f64, i as f64 + 0.5, &[]);
        }
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.drain().len(), 2);
        assert_eq!(t.dropped(), 0, "drain resets the drop counter");
    }

    #[test]
    fn wall_span_measures_nonnegative_time() {
        let t = enabled_tracer();
        {
            let _g = t.wall_span("bench", "work");
        }
        let spans = t.drain();
        assert_eq!(spans.len(), 1);
        assert!(spans[0].duration() >= 0.0);
        validate_well_nested(&spans).unwrap();
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let t = enabled_tracer();
        t.complete("a", "s1", 0.0, 1.0, &[("k", 2.0)]);
        t.complete("a", "s2", 1.0, 2.0, &[]);
        let text = to_jsonl(&t.drain());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"track":"a","name":"s1","start":0.0,"end":1.0,"depth":0,"args":{"k":2.0}}"#
        );
        assert!(
            !lines[1].contains("args"),
            "empty args omitted: {}",
            lines[1]
        );
    }

    #[test]
    fn chrome_trace_has_metadata_and_complete_events() {
        let t = enabled_tracer();
        t.complete("train", "iter", 0.0, 0.5, &[("comp", 0.3)]);
        t.complete("recovery", "restore", 1.0, 2.0, &[]);
        let doc = to_chrome_trace(&t.drain());
        let events = doc["traceEvents"].as_array().unwrap();
        // 2 thread_name metadata + 2 spans.
        assert_eq!(events.len(), 4);
        assert_eq!(events[0]["ph"], "M");
        assert_eq!(events[2]["ph"], "X");
        assert_eq!(events[2]["dur"].as_f64(), Some(0.5e6));
        assert_eq!(events[3]["tid"].as_i64(), Some(2));
        assert_eq!(doc["displayTimeUnit"], "ms");
    }

    #[test]
    fn validator_rejects_overlap_and_bad_depth() {
        let s = |name: &str, start: f64, end: f64, depth: usize| SpanRecord {
            track: "t".to_string(),
            name: name.to_string(),
            start,
            end,
            depth,
            args: Vec::new(),
        };
        let overlapping = vec![s("a", 0.0, 2.0, 0), s("b", 1.0, 3.0, 1)];
        assert!(validate_well_nested(&overlapping).is_err());
        let bad_depth = vec![s("a", 0.0, 2.0, 0), s("b", 0.5, 1.0, 0)];
        assert!(validate_well_nested(&bad_depth).is_err());
        let good = vec![
            s("a", 0.0, 2.0, 0),
            s("b", 0.5, 1.0, 1),
            s("c", 3.0, 4.0, 0),
        ];
        validate_well_nested(&good).unwrap();
    }
}
