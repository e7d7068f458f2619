//! Deterministic sim-time spans and counters (the observability layer).
//!
//! Every decision the tuning pipeline makes — an A/B test, a composition
//! verdict, a canary stage, a rollback, a retune request — becomes a
//! [`TraceSpan`] with structured attributes, following the span/event
//! discipline of Dapper-style tracers. Unlike a wall-clock tracer, span
//! timestamps here come from **simulator clocks** (environment time, fleet
//! time, or a campaign's cumulative simulated machine-seconds), so a trace
//! is part of the determinism contract: the same `(config, seed)` produces
//! a byte-identical trace for any scheduler worker count. The parallel
//! scheduler guarantees this by recording spans on the orchestration
//! thread, post-merge, in canonical plan order — never from inside
//! workers.
//!
//! Spans are laid out on named **tracks** (virtual timelines). Phases with
//! incommensurate clocks — a tuning campaign's machine-seconds axis versus
//! the staged fleet's wall of simulated hours — get separate tracks, so the
//! Chrome trace-event export ([`TraceSink::chrome_trace`], loadable in
//! Perfetto or `chrome://tracing`) renders each on its own row.
//!
//! # Example
//!
//! ```
//! use softsku_telemetry::trace::{AttrValue, TraceSink};
//!
//! let mut sink = TraceSink::new();
//! let tune = sink.track("tune");
//! sink.set_track(tune);
//! let h = sink.open("abtest", "thp=always", 0.0);
//! sink.attr(h, "gain", AttrValue::F64(0.021));
//! sink.close(h, 12.5);
//! assert_eq!(sink.spans().len(), 1);
//! let json = sink.chrome_trace().render();
//! assert!(json.contains("traceEvents"));
//! ```

use crate::json::Json;

/// One structured span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A string attribute (service names, verdicts, stream families).
    Str(String),
    /// A float attribute (gains, p-values, TMAM fractions).
    F64(f64),
    /// An integer attribute (sample counts, stage indices).
    Int(i64),
    /// A boolean attribute (accepted / deployed flags).
    Bool(bool),
}

impl AttrValue {
    fn to_json(&self) -> Json {
        match self {
            AttrValue::Str(s) => Json::Str(s.clone()),
            AttrValue::F64(x) => Json::Num(*x),
            AttrValue::Int(i) => Json::Int(*i),
            AttrValue::Bool(b) => Json::Bool(*b),
        }
    }
}

/// A string in a sink's text arena: the bytes `start..start + len`.
#[derive(Debug, Clone, Copy)]
struct Text {
    start: u32,
    len: u32,
}

/// Marks "no attribute" in a span's attribute links.
const NO_ATTR: u32 = u32::MAX;

/// One recorded span: a named interval on a track's sim-time axis, with a
/// parent link and ordered attributes. Its category, name and attributes
/// live in the recording sink's arenas; read them through
/// [`TraceSink::cat`], [`TraceSink::name`] and [`TraceSink::attrs`].
#[derive(Debug, Clone, Copy)]
pub struct TraceSpan {
    /// Record-order id (stable across replays — recording happens in
    /// canonical plan order on the orchestration thread).
    pub id: u64,
    /// Enclosing span's id, if any.
    pub parent: Option<u64>,
    /// The track (virtual timeline) this span lies on.
    pub track: u32,
    /// Sim-time start, seconds (on the track's own axis).
    pub start_s: f64,
    /// Sim-time duration, seconds (0.0 for instant events).
    pub dur_s: f64,
    cat: Text,
    name: Text,
    /// First and last of the span's attributes in the sink's attribute
    /// store, [`NO_ATTR`] when it has none.
    first_attr: u32,
    last_attr: u32,
}

/// One attribute in a sink's attribute store: its key, its value, and
/// the span's next attribute in insertion order ([`NO_ATTR`] at the end).
#[derive(Debug, Clone)]
struct Attr {
    key: Text,
    next: u32,
    value: AttrValue,
}

/// One counter sample: a named scalar at a sim-time instant, exported as a
/// Chrome `"C"` (counter) event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceCounter {
    /// The track the counter belongs to.
    pub track: u32,
    /// Counter name.
    pub name: String,
    /// Sim-time of the sample, seconds.
    pub t_s: f64,
    /// Sampled value.
    pub value: f64,
}

/// Handle to an open (or just-recorded) span; the invalid handle a disabled
/// sink hands out makes every later call a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanHandle(usize);

impl SpanHandle {
    /// The no-op handle a disabled sink hands out.
    pub const NONE: SpanHandle = SpanHandle(usize::MAX);

    /// Whether the handle refers to a recorded span.
    pub fn is_recorded(self) -> bool {
        self != SpanHandle::NONE
    }
}

/// Collects spans and counters; the handle threaded through the scheduler,
/// tuner, composer, rollout, and drift monitor.
///
/// A sink is either *enabled* (records everything) or *disabled*
/// ([`TraceSink::disabled`] — every call is a cheap no-op, so untraced
/// pipelines pay only a branch).
///
/// Spans are stored flat: every category, name and attribute key is
/// appended to one text arena, and every attribute to one sink-wide store
/// in which each span's attributes form a linked list in insertion order.
/// Recording a span therefore allocates nothing once the stores have
/// room ([`TraceSink::reserve`]), and dropping the sink frees a handful
/// of buffers plus one per [`AttrValue::Str`], however many spans it
/// holds.
#[derive(Debug, Clone)]
pub struct TraceSink {
    enabled: bool,
    spans: Vec<TraceSpan>,
    text: String,
    attrs: Vec<Attr>,
    counters: Vec<TraceCounter>,
    tracks: Vec<String>,
    current_track: u32,
    stack: Vec<usize>,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::new()
    }
}

impl TraceSink {
    /// An enabled sink with one default track (`"main"`).
    pub fn new() -> Self {
        TraceSink {
            enabled: true,
            spans: Vec::new(),
            text: String::new(),
            attrs: Vec::new(),
            counters: Vec::new(),
            tracks: vec!["main".to_string()],
            current_track: 0,
            stack: Vec::new(),
        }
    }

    /// A disabled sink: every record call is a no-op. This is what
    /// untraced entry points pass through the pipeline.
    pub fn disabled() -> Self {
        TraceSink {
            enabled: false,
            ..TraceSink::new()
        }
    }

    /// Whether this sink records anything. Callers may use this to skip
    /// expensive attribute collection (e.g. per-arm CPI capture).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Registers (or finds) a named track and returns its id.
    pub fn track(&mut self, name: &str) -> u32 {
        if !self.enabled {
            return 0;
        }
        if let Some(i) = self.tracks.iter().position(|t| t == name) {
            return i as u32;
        }
        self.tracks.push(name.to_string());
        (self.tracks.len() - 1) as u32
    }

    /// Makes `track` the timeline subsequent spans and counters land on.
    pub fn set_track(&mut self, track: u32) {
        self.current_track = track;
    }

    /// Opens a span at sim-time `start_s`, nested under the currently open
    /// span (if any). Close it with [`TraceSink::close`].
    pub fn open(&mut self, cat: &str, name: &str, start_s: f64) -> SpanHandle {
        if !self.enabled {
            return SpanHandle::NONE;
        }
        let idx = self.push_span(cat, name, start_s, 0.0);
        self.stack.push(idx);
        SpanHandle(idx)
    }

    /// Closes an open span at sim-time `end_s` (clamped so durations are
    /// never negative). Also closes any span opened after `h` that was
    /// left open — the stack discipline is enforced, not trusted.
    pub fn close(&mut self, h: SpanHandle, end_s: f64) {
        let SpanHandle(idx) = h;
        if !self.enabled || !h.is_recorded() {
            return;
        }
        if let Some(pos) = self.stack.iter().position(|&i| i == idx) {
            self.stack.truncate(pos);
        }
        if let Some(span) = self.spans.get_mut(idx) {
            span.dur_s = (end_s - span.start_s).max(0.0);
        }
    }

    /// Records a complete child span in one call. The span nests under the
    /// currently open span but does not itself go on the stack.
    pub fn leaf(&mut self, cat: &str, name: &str, start_s: f64, dur_s: f64) -> SpanHandle {
        if !self.enabled {
            return SpanHandle::NONE;
        }
        SpanHandle(self.push_span(cat, name, start_s, dur_s.max(0.0)))
    }

    /// Attaches one attribute to a span, after any it already carries.
    pub fn attr(&mut self, h: SpanHandle, key: &str, value: AttrValue) {
        let SpanHandle(idx) = h;
        // A disabled sink holds no spans, and `SpanHandle::NONE` indexes
        // past any store.
        if idx >= self.spans.len() {
            return;
        }
        let at = u32::try_from(self.attrs.len()).expect("a trace holds under 2^32 attributes");
        let key = self.push_text(key);
        self.attrs.push(Attr {
            key,
            next: NO_ATTR,
            value,
        });
        let span = &mut self.spans[idx];
        match span.last_attr {
            NO_ATTR => span.first_attr = at,
            last => self.attrs[last as usize].next = at,
        }
        span.last_attr = at;
    }

    /// Appends one span to the store and returns its index (= its id).
    fn push_span(&mut self, cat: &str, name: &str, start_s: f64, dur_s: f64) -> usize {
        let idx = self.spans.len();
        let parent = self.stack.last().map(|&i| self.spans[i].id);
        let (cat, name) = (self.push_text(cat), self.push_text(name));
        self.spans.push(TraceSpan {
            id: idx as u64,
            parent,
            track: self.current_track,
            start_s,
            dur_s,
            cat,
            name,
            first_attr: NO_ATTR,
            last_attr: NO_ATTR,
        });
        idx
    }

    /// Appends `s` to the text arena.
    fn push_text(&mut self, s: &str) -> Text {
        let start = self.text.len();
        self.text.push_str(s);
        let end = u32::try_from(self.text.len()).expect("a trace holds under 4 GiB of text");
        Text {
            start: start as u32,
            len: end - start as u32,
        }
    }

    /// The text behind a handle from this sink's arena.
    fn text(&self, t: Text) -> &str {
        &self.text[t.start as usize..(t.start + t.len) as usize]
    }

    /// Makes room for `spans` more spans carrying `attrs` more attributes
    /// in total, so a caller that knows its trace's shape records it
    /// without regrowing the stores. No-op on a disabled sink.
    pub fn reserve(&mut self, spans: usize, attrs: usize) {
        if self.enabled {
            self.spans.reserve(spans);
            self.attrs.reserve(attrs);
        }
    }

    /// Records one counter sample on the current track.
    pub fn counter(&mut self, name: &str, t_s: f64, value: f64) {
        if !self.enabled {
            return;
        }
        self.counters.push(TraceCounter {
            track: self.current_track,
            name: name.to_string(),
            t_s,
            value,
        });
    }

    /// Every recorded span, in record (= canonical) order. Read a span's
    /// text and attributes through [`TraceSink::cat`],
    /// [`TraceSink::name`], [`TraceSink::attrs`] and
    /// [`TraceSink::find_attr`].
    pub fn spans(&self) -> &[TraceSpan] {
        &self.spans
    }

    /// A span's category. `span` must come from this sink's
    /// [`TraceSink::spans`].
    pub fn cat(&self, span: &TraceSpan) -> &str {
        self.text(span.cat)
    }

    /// A span's display name. `span` must come from this sink's
    /// [`TraceSink::spans`].
    pub fn name(&self, span: &TraceSpan) -> &str {
        self.text(span.name)
    }

    /// A span's attributes in insertion order, including any attached
    /// after later spans were recorded. `span` must come from this sink's
    /// [`TraceSink::spans`].
    pub fn attrs<'a>(&'a self, span: &TraceSpan) -> impl Iterator<Item = (&'a str, &'a AttrValue)> {
        let mut at = span.first_attr;
        std::iter::from_fn(move || {
            let attr = self.attrs.get(at as usize)?;
            at = attr.next;
            Some((self.text(attr.key), &attr.value))
        })
    }

    /// A span's first attribute under `key`, if any.
    pub fn find_attr(&self, span: &TraceSpan, key: &str) -> Option<&AttrValue> {
        self.attrs(span).find(|&(k, _)| k == key).map(|(_, v)| v)
    }

    /// Every recorded counter sample, in record order.
    pub fn counters(&self) -> &[TraceCounter] {
        &self.counters
    }

    /// Registered track names, indexed by track id.
    pub fn tracks(&self) -> &[String] {
        &self.tracks
    }

    /// Exports the trace in Chrome trace-event JSON (the object form with
    /// a `traceEvents` array), loadable in Perfetto or `chrome://tracing`.
    ///
    /// Spans become `"X"` (complete) events with microsecond `ts`/`dur` on
    /// `tid` = track id; counters become `"C"` events; track names are
    /// emitted as `thread_name` metadata. Rendering goes through the
    /// deterministic [`Json`] emitter, so two identical traces produce
    /// byte-identical files — the property the replay tests pin down.
    pub fn chrome_trace(&self) -> Json {
        let mut events = Vec::new();
        for (tid, name) in self.tracks.iter().enumerate() {
            events.push(
                Json::obj()
                    .set("name", Json::Str("thread_name".into()))
                    .set("ph", Json::Str("M".into()))
                    .set("pid", Json::Int(1))
                    .set("tid", Json::Int(tid as i64))
                    .set("args", Json::obj().set("name", Json::Str(name.clone()))),
            );
        }
        for span in &self.spans {
            let mut args = Json::obj().set("span_id", Json::Int(span.id as i64));
            if let Some(p) = span.parent {
                args = args.set("parent_id", Json::Int(p as i64));
            }
            for (k, v) in self.attrs(span) {
                args = args.set(k, v.to_json());
            }
            events.push(
                Json::obj()
                    .set("name", Json::Str(self.name(span).to_string()))
                    .set("cat", Json::Str(self.cat(span).to_string()))
                    .set("ph", Json::Str("X".into()))
                    .set("ts", Json::Num(span.start_s * 1e6))
                    .set("dur", Json::Num(span.dur_s * 1e6))
                    .set("pid", Json::Int(1))
                    .set("tid", Json::Int(span.track as i64))
                    .set("args", args),
            );
        }
        for c in &self.counters {
            events.push(
                Json::obj()
                    .set("name", Json::Str(c.name.clone()))
                    .set("ph", Json::Str("C".into()))
                    .set("ts", Json::Num(c.t_s * 1e6))
                    .set("pid", Json::Int(1))
                    .set("tid", Json::Int(c.track as i64))
                    .set("args", Json::obj().set("value", Json::Num(c.value))),
            );
        }
        Json::obj()
            .set("displayTimeUnit", Json::Str("ms".into()))
            .set("traceEvents", Json::Arr(events))
    }

    /// Renders the span tree as indented text (what `skuctl spans`
    /// prints): one line per span with track, interval, and attributes.
    pub fn render_tree(&self) -> String {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        let mut roots = Vec::new();
        for (i, span) in self.spans.iter().enumerate() {
            match span.parent {
                Some(p) => children[p as usize].push(i),
                None => roots.push(i),
            }
        }
        let mut out = String::new();
        for &root in &roots {
            self.render_span(&mut out, &children, root, 0);
        }
        out
    }

    fn render_span(&self, out: &mut String, children: &[Vec<usize>], idx: usize, depth: usize) {
        let span = &self.spans[idx];
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&format!(
            "[{}] {} {} @{:.2}s +{:.2}s",
            self.tracks
                .get(span.track as usize)
                .map_or("?", String::as_str),
            self.cat(span),
            self.name(span),
            span.start_s,
            span.dur_s,
        ));
        for (k, v) in self.attrs(span) {
            let rendered = match v {
                AttrValue::Str(s) => s.clone(),
                AttrValue::F64(x) => format!("{x:.4}"),
                AttrValue::Int(i) => i.to_string(),
                AttrValue::Bool(b) => b.to_string(),
            };
            out.push_str(&format!(" {k}={rendered}"));
        }
        out.push('\n');
        for &child in &children[idx] {
            self.render_span(out, children, child, depth + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let mut sink = TraceSink::disabled();
        let t = sink.track("tune");
        sink.set_track(t);
        let h = sink.open("cat", "name", 0.0);
        assert_eq!(h, SpanHandle::NONE);
        sink.attr(h, "k", AttrValue::Int(1));
        sink.close(h, 1.0);
        sink.counter("c", 0.0, 1.0);
        assert!(sink.spans().is_empty());
        assert!(sink.counters().is_empty());
        assert!(!sink.is_enabled());
    }

    #[test]
    fn nesting_follows_the_open_stack() {
        let mut sink = TraceSink::new();
        let root = sink.open("phase", "tune", 0.0);
        let child = sink.open("abtest", "thp=always", 0.0);
        let leaf = sink.leaf("event", "promote", 1.0, 0.0);
        sink.close(child, 2.0);
        let sibling = sink.open("abtest", "shp=300", 2.0);
        sink.close(sibling, 3.0);
        sink.close(root, 3.0);

        let spans = sink.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        let leaf_span = &spans[leaf.0];
        assert_eq!(leaf_span.parent, Some(spans[1].id), "leaf nests in child");
        assert_eq!(spans[3].parent, Some(spans[0].id), "sibling nests in root");
        assert_eq!(spans[0].dur_s, 3.0);
    }

    #[test]
    fn close_is_defensive_about_unbalanced_spans() {
        let mut sink = TraceSink::new();
        let outer = sink.open("a", "outer", 0.0);
        let _inner = sink.open("a", "inner", 1.0); // never closed explicitly
        sink.close(outer, 5.0);
        // Outer's close popped inner off the stack too.
        let next = sink.open("a", "next", 5.0);
        assert_eq!(sink.spans()[next.0].parent, None);
    }

    #[test]
    fn durations_never_go_negative() {
        let mut sink = TraceSink::new();
        let h = sink.open("a", "x", 10.0);
        sink.close(h, 5.0);
        assert_eq!(sink.spans()[0].dur_s, 0.0);
        let l = sink.leaf("a", "y", 0.0, -3.0);
        assert_eq!(sink.spans()[l.0].dur_s, 0.0);
    }

    #[test]
    fn tracks_deduplicate_by_name() {
        let mut sink = TraceSink::new();
        let a = sink.track("tune");
        let b = sink.track("fleet");
        assert_eq!(a, sink.track("tune"));
        assert_ne!(a, b);
        assert_eq!(sink.tracks().len(), 3, "main + tune + fleet");
    }

    #[test]
    fn chrome_trace_shape_and_determinism() {
        let mut sink = TraceSink::new();
        let t = sink.track("tune");
        sink.set_track(t);
        let h = sink.open("abtest", "thp=always", 0.5);
        sink.attr(h, "gain", AttrValue::F64(0.02));
        sink.attr(h, "service", AttrValue::Str("Web".into()));
        sink.close(h, 1.5);
        sink.counter("drift.gain", 2.0, 0.01);

        let a = sink.chrome_trace().render_pretty();
        let b = sink.chrome_trace().render_pretty();
        assert_eq!(a, b, "rendering is deterministic");
        assert!(a.contains("\"traceEvents\""));
        assert!(a.contains("\"thread_name\""));
        assert!(a.contains("\"ph\": \"X\""));
        assert!(a.contains("\"ph\": \"C\""));
        assert!(a.contains("\"ts\": 500000"));
        assert!(a.contains("\"dur\": 1000000"));
    }

    #[test]
    fn chrome_trace_export_snapshot() {
        let mut sink = TraceSink::new();
        let h = sink.open("abtest", "thp=always", 0.5);
        sink.attr(h, "gain", AttrValue::F64(0.02));
        sink.close(h, 1.5);
        sink.counter("drift.gain", 2.0, 0.01);
        // The exact serialized bytes are the compatibility contract with
        // Perfetto / chrome://tracing — pin them so format drift is loud.
        let expected = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"main\"}},{\"name\":\"thp=always\",\"cat\":\"abtest\",\"ph\":\"X\",\"ts\":500000,\"dur\":1000000,\"pid\":1,\"tid\":0,\"args\":{\"span_id\":0,\"gain\":0.02}},{\"name\":\"drift.gain\",\"ph\":\"C\",\"ts\":2000000,\"pid\":1,\"tid\":0,\"args\":{\"value\":0.01}}]}";
        assert_eq!(sink.chrome_trace().render(), expected);
    }

    #[test]
    fn render_tree_indents_children() {
        let mut sink = TraceSink::new();
        let root = sink.open("phase", "lifecycle", 0.0);
        sink.leaf("event", "deployed", 1.0, 0.0);
        sink.close(root, 2.0);
        let tree = sink.render_tree();
        assert!(tree.contains("phase lifecycle"));
        assert!(tree.contains("\n  [main] event deployed"));
    }

    /// One span as a reference model records it.
    type ModelSpan = (String, String, Vec<(String, AttrValue)>);

    proptest! {
        #[test]
        fn accessors_return_each_spans_text_and_attributes_in_insertion_order(
            ops in prop::collection::vec((0u8..4, 0usize..64, 0u8..5, -3i64..3), 1..160),
        ) {
            // Texts of mixed lengths, the empty string and multi-byte
            // characters, so arena slices must land on exact boundaries.
            const TEXT: [&str; 5] = ["", "abtest", "ü", "mesh.hop", "r12345"];
            let mut sink = TraceSink::new();
            let mut model: Vec<ModelSpan> = Vec::new();
            // Every handle handed out, with its model index.
            let mut handles: Vec<(SpanHandle, usize)> = Vec::new();
            let mut open: Vec<SpanHandle> = Vec::new();
            for (i, &(kind, pick, text, int)) in ops.iter().enumerate() {
                let (cat, name) = (TEXT[text as usize], TEXT[(text as usize + pick) % 5]);
                match kind {
                    0 | 1 => {
                        let h = if kind == 0 {
                            sink.open(cat, name, i as f64)
                        } else {
                            sink.leaf(cat, name, i as f64, 1.0)
                        };
                        if kind == 0 {
                            open.push(h);
                        }
                        model.push((cat.to_string(), name.to_string(), Vec::new()));
                        handles.push((h, model.len() - 1));
                    }
                    2 => {
                        if let Some(h) = open.pop() {
                            sink.close(h, i as f64);
                        }
                    }
                    _ => {
                        let Some(&(h, m)) = handles.get(pick % handles.len().max(1)) else {
                            continue;
                        };
                        let value = match int.rem_euclid(4) {
                            0 => AttrValue::Str(name.to_string()),
                            1 => AttrValue::F64(int as f64 * 0.5),
                            2 => AttrValue::Int(int),
                            _ => AttrValue::Bool(int > 0),
                        };
                        sink.attr(h, cat, value.clone());
                        model[m].2.push((cat.to_string(), value));
                    }
                }
            }
            prop_assert_eq!(sink.spans().len(), model.len());
            for (span, (cat, name, attrs)) in sink.spans().iter().zip(&model) {
                prop_assert_eq!(sink.cat(span), cat.as_str());
                prop_assert_eq!(sink.name(span), name.as_str());
                let got: Vec<(String, AttrValue)> = sink
                    .attrs(span)
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect();
                prop_assert_eq!(&got, attrs);
                for key in TEXT {
                    let first = attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                    prop_assert_eq!(sink.find_attr(span, key), first);
                }
            }
        }
    }
}
