//! In-memory spans recorded around the public calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the run's
//! epoch), its own id, and the id of the span that caused it: a stage's
//! parent is its round, a checkpoint save or load's parent is the
//! `run_rounds` batch or the set-up that triggered it. Spans stay in
//! memory until the run ends and are then written out with the result.

use std::time::Instant;

use crate::json::Json;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within a run.
    pub id: u64,
    /// The span that caused this one (`None` for a round or a set-up).
    pub parent: Option<u64>,
    /// Layer boundary name, e.g. `contextualizer.tune_p`.
    pub name: &'static str,
    /// Start, nanoseconds since the run epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }

    /// The span as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Int(self.id)),
            ("parent", self.parent.map_or(Json::Null, Json::Int)),
            ("name", Json::str(self.name)),
            ("start_ns", Json::Int(self.start_ns)),
            ("end_ns", Json::Int(self.end_ns)),
        ])
    }
}

/// A span recorder. Ids are handed out in order, so a parent's id can be
/// reserved before its children are recorded and the parent itself is
/// recorded once it ends.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self { epoch, next_id: 0, spans: Vec::new() }
    }

    /// Reserve an id for a span recorded later with [`Trace::record`].
    pub fn reserve(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Record a span under a reserved id.
    pub fn record(
        &mut self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id, parent, name, start_ns, end_ns });
    }

    /// Nanoseconds from the epoch to `t` (0 for instants before it).
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a child span with a fresh id.
    pub fn child(&mut self, parent: u64, name: &'static str, start: Instant, end: Instant) {
        let id = self.reserve();
        self.record(id, Some(parent), name, start, end);
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consume the trace, returning its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Sum of the durations of the spans named `name`, in milliseconds.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::ms).sum()
}

/// Number of spans named `name`.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// Mean duration of the spans named `name`, in milliseconds (0 if none).
pub fn mean_ms(spans: &[Span], name: &str) -> f64 {
    match count(spans, name) {
        0 => 0.0,
        n => total_ms(spans, name) / n as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn children_point_at_their_round() {
        let epoch = Instant::now();
        let mut trace = Trace::new(epoch);
        let round = trace.reserve();
        let t1 = epoch + Duration::from_millis(1);
        let t3 = epoch + Duration::from_millis(3);
        trace.child(round, "seu.select", epoch, t1);
        trace.record(round, None, "round", epoch, t3);
        let spans = trace.spans();
        assert_eq!(spans[0].parent, Some(round));
        assert_eq!(spans[1].id, round);
        assert_eq!(count(spans, "round"), 1);
        assert!((total_ms(spans, "seu.select") - 1.0).abs() < 1e-9);
        assert!((mean_ms(spans, "round") - 3.0).abs() < 1e-9);
        assert_eq!(mean_ms(spans, "missing"), 0.0);
    }
}
