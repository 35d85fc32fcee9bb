//! Spans recorded around calls into each service layer, and the self
//! time derived from them.
//!
//! A span has a name, start, end, parent and request id; the spans of one
//! request share its id and hang off its root `request` span. Spans stay
//! in memory while a traced pass runs. A layer's self time is its span's
//! duration minus the part of that interval its child spans cover.

use blitz_bench::Json;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `wire.parse`; `request` for a root.
    pub name: &'static str,
    /// Unique span id (never 0).
    pub id: u64,
    /// Enclosing span, 0 for a root.
    pub parent: u64,
    /// Request the span belongs to.
    pub request: u64,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    /// See `start`.
    pub end: u64,
}

impl Span {
    /// `end - start`.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Span sink shared by client and worker threads. A disabled tracer
/// records nothing and only runs the timed closures.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    ids: AtomicU64,
    spans: Mutex<Vec<Span>>,
    len: AtomicUsize,
    capacity: usize,
}

impl Tracer {
    /// A tracer keeping at most `capacity` spans (`on == false`: none).
    pub fn new(on: bool, capacity: usize) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            ids: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            len: AtomicUsize::new(0),
            capacity,
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id.
    pub fn id(&self) -> u64 {
        self.ids.fetch_add(1, Ordering::Relaxed)
    }

    /// Whether the span buffer is full (a traced pass stops there).
    pub fn full(&self) -> bool {
        self.on && self.len.load(Ordering::Relaxed) >= self.capacity
    }

    /// Record a finished span with a given id.
    pub fn record(&self, name: &'static str, id: u64, parent: u64, request: u64, start: u64) {
        if self.on {
            let span = Span {
                name,
                id,
                parent,
                request,
                start,
                end: self.now(),
            };
            self.spans.lock().expect("span buffer poisoned").push(span);
            self.len.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let start = self.now();
        let out = f();
        self.record(name, self.id(), parent, request, start);
        out
    }

    /// Take every recorded span.
    pub fn take(&self) -> Vec<Span> {
        self.len.store(0, Ordering::Relaxed);
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span, in input order: its duration minus the part
/// of its interval covered by its children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let kids = children
                .get_mut(&s.id)
                .map_or(0, |k| covered(k, s.start, s.end));
            s.duration() - kids
        })
        .collect()
}

/// The layer a span name belongs to: its prefix before the first `.`;
/// the root's own time is `unattributed`.
pub fn layer(name: &str) -> &str {
    match name.split('.').next().unwrap_or(name) {
        "request" => "unattributed",
        prefix => prefix,
    }
}

/// Per-layer self time as shares of total root (`request`) time.
pub fn layer_shares(spans: &[Span]) -> BTreeMap<String, f64> {
    let selfs = self_times(spans);
    let total: u64 = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(Span::duration)
        .sum();
    let mut shares = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        *shares.entry(layer(s.name).to_string()).or_insert(0.0) += own as f64;
    }
    for v in shares.values_mut() {
        *v /= total.max(1) as f64;
    }
    shares
}

/// Durations in µs of every span named `name`, sorted.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    let mut d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration() as f64 / 1e3)
        .collect();
    d.sort_by(f64::total_cmp);
    d
}

/// The spans of the first `requests` requests as JSON, for the trace
/// artifact.
pub fn to_json(spans: &[Span], requests: u64) -> Json {
    let mut ids: Vec<u64> = spans.iter().map(|s| s.request).collect();
    ids.sort_unstable();
    ids.dedup();
    let keep: std::collections::HashSet<u64> = ids.into_iter().take(requests as usize).collect();
    Json::Arr(
        spans
            .iter()
            .filter(|s| keep.contains(&s.request))
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::str(s.name)),
                    ("id", Json::Num(s.id as f64)),
                    ("parent", Json::Num(s.parent as f64)),
                    ("request", Json::Num(s.request as f64)),
                    ("start_ns", Json::Num(s.start as f64)),
                    ("end_ns", Json::Num(s.end as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            name,
            id,
            parent,
            request: 1,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = [
            span("request", 1, 0, 0, 100),
            span("wire.parse", 2, 1, 0, 10),
            // Two overlapping children cover 20..50 once, not twice.
            span("pool.queue_wait", 3, 1, 20, 40),
            span("dp", 4, 1, 30, 50),
            // A child outliving its parent only covers up to the parent's end.
            span("extract", 5, 1, 90, 130),
            span("dp.inner", 6, 4, 35, 45),
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 10 - 30 - 10, 10, 20, 10, 40, 10]
        );
    }

    #[test]
    fn shares_are_fractions_of_root_time() {
        let spans = [
            span("request", 1, 0, 0, 100),
            span("dp", 2, 1, 0, 80),
            span("wire.parse", 3, 1, 80, 90),
        ];
        let shares = layer_shares(&spans);
        assert_eq!(shares["dp"], 0.8);
        assert_eq!(shares["wire"], 0.1);
        assert_eq!(shares["unattributed"], 0.1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let off = Tracer::new(false, 10);
        assert_eq!(off.span("dp", 0, 1, || 7), 7);
        assert!(off.take().is_empty());
        let on = Tracer::new(true, 1);
        on.span("dp", 0, 1, || ());
        assert!(on.full());
        assert_eq!(on.take().len(), 1);
    }
}
