//! The benchmark's own span recorder.
//!
//! Spans are recorded around calls into each layer's public functions:
//! name, start, end, parent span, and an operation id shared by every
//! span of one tree, build or request. They stay in memory and are
//! written out once, when the run ends. With tracing off every call is a
//! no-op, so the untraced run pays nothing for the recorder.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use grafter_obs::json::JsonWriter;

/// Handle of a recorded span (meaningless when tracing is off).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Clone, Debug)]
struct Span {
    name: String,
    op: u64,
    parent: Option<SpanId>,
    start: Duration,
    end: Option<Duration>,
}

/// In-memory span store; `Sync`, so client threads record concurrently.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&self, name: &str, op: u64, parent: Option<SpanId>) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let start = self.epoch.elapsed();
        self.push(name, op, parent, start, None)
    }

    /// Closes a span opened with [`Tracer::begin`].
    pub fn end(&self, id: SpanId) {
        if self.on {
            let end = self.epoch.elapsed();
            self.spans.lock().unwrap()[id.0].end = Some(end);
        }
    }

    /// Records an already finished span that started at `start` and took
    /// `dur` (e.g. a stage of an engine's compile trace).
    pub fn record(
        &self,
        name: &str,
        op: u64,
        parent: Option<SpanId>,
        start: Instant,
        dur: Duration,
    ) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let start = start.saturating_duration_since(self.epoch);
        self.push(name, op, parent, start, Some(start + dur))
    }

    fn push(
        &self,
        name: &str,
        op: u64,
        parent: Option<SpanId>,
        start: Duration,
        end: Option<Duration>,
    ) -> SpanId {
        let mut spans = self.spans.lock().unwrap();
        spans.push(Span {
            name: name.to_string(),
            op,
            parent,
            start,
            end,
        });
        SpanId(spans.len() - 1)
    }

    /// Per-span self time: the span's duration minus the part of its
    /// interval that its children cover (overlapping children count once).
    fn self_times(spans: &[Span]) -> Vec<Duration> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let (Some(p), Some(end)) = (s.parent, s.end) {
                children[p.0].push((s.start, end));
            }
        }
        spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                let end = s.end.unwrap_or(s.start);
                kids.sort();
                let mut covered = Duration::ZERO;
                let mut cursor = s.start;
                for (a, b) in kids {
                    let (a, b) = (a.max(cursor), b.min(end));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                (end - s.start).saturating_sub(covered)
            })
            .collect()
    }

    /// Total and self time per span name, in milliseconds, with counts.
    pub fn layer_totals(&self) -> BTreeMap<String, (usize, f64, f64)> {
        let spans = self.spans.lock().unwrap();
        let selfs = Self::self_times(&spans);
        let mut out: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
        for (s, own) in spans.iter().zip(selfs) {
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += (s.end.unwrap_or(s.start) - s.start).as_secs_f64() * 1e3;
            e.2 += own.as_secs_f64() * 1e3;
        }
        out
    }

    /// The share of the self time of all spans whose name starts with
    /// `under` (and their descendants) that went to spans named `name`.
    pub fn self_share(&self, under: &str, name: &str) -> Option<f64> {
        let spans = self.spans.lock().unwrap();
        let selfs = Self::self_times(&spans);
        let root_of = |mut i: usize| loop {
            match spans[i].parent {
                Some(p) => i = p.0,
                None => return i,
            }
        };
        let (mut total, mut hit) = (0.0, 0.0);
        for (i, own) in selfs.iter().enumerate() {
            if spans[root_of(i)].name.starts_with(under) {
                total += own.as_secs_f64();
                if spans[i].name == name {
                    hit += own.as_secs_f64();
                }
            }
        }
        (total > 0.0).then(|| hit / total)
    }

    /// Every span as JSON: `{"spans":[{id,name,op,parent,start_ns,end_ns,self_ns}]}`
    /// plus per-name totals under `"layers"`.
    pub fn to_json(&self, provenance: &str) -> String {
        let spans = self.spans.lock().unwrap();
        let selfs = Self::self_times(&spans);
        let mut w = JsonWriter::with_capacity(128 * spans.len() + 1024);
        w.begin_obj();
        w.key("provenance").raw(provenance);
        w.key("spans").begin_arr();
        for (i, (s, own)) in spans.iter().zip(&selfs).enumerate() {
            w.begin_obj();
            w.key("id").num(i);
            w.key("name").str(&s.name);
            w.key("op").num(s.op);
            match s.parent {
                Some(p) => w.key("parent").num(p.0),
                None => w.key("parent").null(),
            };
            w.key("start_ns").num(s.start.as_nanos());
            w.key("end_ns").num(s.end.unwrap_or(s.start).as_nanos());
            w.key("self_ns").num(own.as_nanos());
            w.end_obj();
        }
        w.end_arr();
        drop(spans);
        w.key("layers").begin_obj();
        for (name, (n, total, own)) in self.layer_totals() {
            w.key(&name).begin_obj();
            w.key("count").num(n);
            w.key("total_ms").float(total);
            w.key("self_ms").float(own);
            w.end_obj();
        }
        w.end_obj();
        w.end_obj();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let t = Tracer::new(true);
        let base = Instant::now();
        let ms = Duration::from_millis;
        let root = t.record("build", 1, None, base, ms(10));
        t.record("fusion", 1, Some(root), base + ms(1), ms(6));
        t.record("lower", 1, Some(root), base + ms(7), ms(2));
        // Two overlapping client requests under one phase span.
        let phase = t.record("serve", 2, None, base, ms(10));
        t.record("request", 2, Some(phase), base + ms(1), ms(5));
        t.record("request", 2, Some(phase), base + ms(4), ms(5));
        let totals = t.layer_totals();
        let (n, total, own) = totals["build"];
        assert_eq!(n, 1);
        assert!((total - 10.0).abs() < 1e-6);
        // children cover [1, 9) ms of the build's [0, 10) ms
        assert!((own - 2.0).abs() < 1e-6, "{own}");
        // the requests cover [1, 9) ms of the phase, counted once
        assert!((totals["serve"].2 - 2.0).abs() < 1e-6);
        let share = t.self_share("build", "fusion").unwrap();
        assert!((share - 0.6).abs() < 1e-6, "{share}");
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let t = Tracer::new(false);
        let id = t.begin("x", 0, None);
        t.end(id);
        assert!(t.layer_totals().is_empty());
    }
}
