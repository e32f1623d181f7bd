//! Percentiles, in-memory spans with self time, and JSON text helpers.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Linear-interpolation percentile (`q` in 0..=1) of unsorted values;
/// NaN for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median (see [`percentile`]).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// How many samples lie strictly above the `q` percentile.
pub fn beyond(values: &[f64], q: f64) -> usize {
    let p = percentile(values, q);
    values.iter().filter(|&&v| v > p).count()
}

/// One recorded span: a call into one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name (`decode`, `relay.apply`, …).
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (or work item) the span belongs to.
    pub req: u64,
}

/// Spans kept in memory, written out once the run ends. A disabled
/// tracer records nothing and costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off (open spans still close normally).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let t = self.now_ns();
        self.spans[id].end_ns = t;
        if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
            self.open.truncate(pos);
        }
    }

    /// Renames a recorded span (a call whose outcome decides its layer).
    pub fn rename(&mut self, id: Option<usize>, name: &'static str) {
        if let Some(id) = id {
            self.spans[id].name = name;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, req);
        let out = f();
        self.exit(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (re-based onto this origin).
    pub fn absorb(&mut self, other: Tracer) {
        let shift = other
            .origin
            .checked_duration_since(self.origin)
            .map_or(0, |d| d.as_nanos() as u64);
        let base = self.spans.len();
        for mut s in other.spans {
            s.start_ns += shift;
            s.end_ns += shift;
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }

    /// Writes every span as one JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.req,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push(']');
        out
    }
}

/// Per-name totals of self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus the part children cover), ns.
    pub self_ns: u64,
}

/// Self time per span name: each span's duration minus the union of
/// the intervals its direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let kids = &mut children[i];
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
            if b <= a {
                continue;
            }
            cur = match cur {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur.saturating_sub(covered);
    }
    out
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values become 0 with every digit kept
/// otherwise.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(median(&v), 5.5);
        assert!((percentile(&v, 0.95) - 9.55).abs() < 1e-9);
        assert_eq!(beyond(&v, 0.5), 5);
        let shuffled = [3.0, 1.0, 2.0];
        assert_eq!(median(&shuffled), 2.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100) with children [10,30) and [20,50) (overlapping:
        // union 40) and [60,70); grandchild [62,65) inside the last.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("a", 20, 50, Some(0)),
            span("b", 60, 70, Some(0)),
            span("c", 62, 65, Some(3)),
        ];
        let st = self_times(&spans);
        assert_eq!(st["root"].self_ns, 100 - 40 - 10);
        assert_eq!(st["root"].total_ns, 100);
        assert_eq!(st["a"].count, 2);
        assert_eq!(st["a"].self_ns, 20 + 30);
        assert_eq!(st["b"].self_ns, 7);
        assert_eq!(st["c"].self_ns, 3);
    }

    #[test]
    fn tracer_nests_and_can_be_disabled() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", 7);
        t.span("inner", 7, || ());
        t.exit(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].req, 7);
        let mut off = Tracer::new(false);
        off.span("x", 0, || ());
        assert!(off.spans().is_empty());
        assert!(t.to_json().contains("\"name\": \"inner\""));
    }
}
