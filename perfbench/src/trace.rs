//! The benchmark's own span recorder.
//!
//! Spans wrap the benchmark's calls into the library's public functions:
//! nothing inside the library is instrumented and `bmf_obs` recording is
//! never enabled, so the instrument cannot change when the library's
//! observability layer does. Spans live in memory and are written out once,
//! at exit, as Chrome trace-event JSON (loadable in Perfetto).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of "no parent": the span is the root of its unit.
pub const ROOT: u64 = 0;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Layer-qualified name, e.g. `circuits.monte_carlo`.
    pub name: &'static str,
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the span that caused this one, or [`ROOT`].
    pub parent: u64,
    /// The unit of work every span of one unit shares.
    pub unit: u64,
    /// Small integer naming the recording thread.
    pub tid: u64,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Free numeric argument (the sample size of a sweep repetition).
    pub arg: u64,
}

impl SpanRecord {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// In-memory span recorder. A disabled recorder hands out inert spans.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    /// A recorder that records (`enabled`) or hands out inert spans.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span; it is recorded when the returned guard drops.
    pub fn span(&self, name: &'static str, unit: u64, parent: u64) -> Span<'_> {
        self.span_with_arg(name, unit, parent, 0)
    }

    /// [`Self::span`] with a numeric argument stored on the record.
    pub fn span_with_arg(&self, name: &'static str, unit: u64, parent: u64, arg: u64) -> Span<'_> {
        if !self.enabled {
            return Span { open: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Span {
            open: Some(OpenSpan {
                tracer: self,
                name,
                id,
                parent,
                unit,
                arg,
                start: Instant::now(),
            }),
        }
    }

    fn record(&self, rec: SpanRecord) {
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking recorder")
            .push(rec);
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking recorder")
            .clone()
    }

    /// The recorded spans as a Chrome trace-event document (one complete
    /// `X` event per span; `args` carry the unit, id and parent).
    pub fn perfetto_json(&self) -> String {
        let spans = self.spans();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"unit\":{},\"id\":{},\"parent\":{},\"arg\":{}}}}}",
                s.name,
                layer_of(s.name),
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.unit,
                s.id,
                s.parent,
                s.arg
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

struct OpenSpan<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    id: u64,
    parent: u64,
    unit: u64,
    arg: u64,
    start: Instant,
}

/// Guard of an open span; records the span when dropped.
pub struct Span<'a> {
    open: Option<OpenSpan<'a>>,
}

impl Span<'_> {
    /// This span's id, to pass as the parent of its children ([`ROOT`]
    /// when recording is off).
    pub fn id(&self) -> u64 {
        self.open.as_ref().map_or(ROOT, |o| o.id)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(o) = self.open.take() {
            let end = Instant::now();
            let epoch = o.tracer.epoch;
            o.tracer.record(SpanRecord {
                name: o.name,
                id: o.id,
                parent: o.parent,
                unit: o.unit,
                tid: TID.with(|t| *t),
                start_ns: o.start.duration_since(epoch).as_nanos() as u64,
                end_ns: end.duration_since(epoch).as_nanos() as u64,
                arg: o.arg,
            });
        }
    }
}

/// The layer a span name belongs to: its first dotted component
/// (`circuits`, `core`, `stats`, `linalg`, or `unit`).
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// The spans of one unit, indexed for self-time arithmetic.
pub struct UnitTree<'a> {
    /// The unit's root span.
    pub root: &'a SpanRecord,
    /// Every span of the unit, root included.
    pub spans: Vec<&'a SpanRecord>,
    children: BTreeMap<u64, Vec<&'a SpanRecord>>,
}

impl<'a> UnitTree<'a> {
    /// Groups `spans` by unit; units without a root span are skipped.
    pub fn group(spans: &'a [SpanRecord]) -> Vec<UnitTree<'a>> {
        let mut by_unit: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
        for s in spans {
            by_unit.entry(s.unit).or_default().push(s);
        }
        by_unit
            .into_values()
            .filter_map(|spans| {
                let root = *spans.iter().find(|s| s.parent == ROOT)?;
                let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
                for s in &spans {
                    if s.parent != ROOT {
                        children.entry(s.parent).or_default().push(s);
                    }
                }
                Some(UnitTree {
                    root,
                    spans,
                    children,
                })
            })
            .collect()
    }

    /// Self time of `span`: its duration minus that of its children on
    /// the same thread. Children on other threads ran in parallel while
    /// this thread waited, so the wait stays this span's own time.
    pub fn self_ns(&self, span: &SpanRecord) -> u64 {
        let covered: u64 = self
            .children
            .get(&span.id)
            .map(|c| {
                c.iter()
                    .filter(|c| c.tid == span.tid)
                    .map(|c| c.dur_ns())
                    .sum()
            })
            .unwrap_or(0);
        span.dur_ns().saturating_sub(covered)
    }

    /// Share of the unit's wall time covered by layer spans on the unit's
    /// own thread: the self time of the layer spans below the root over
    /// the root's duration.
    pub fn coverage(&self) -> f64 {
        let root_dur = self.root.dur_ns().max(1) as f64;
        1.0 - self.self_ns(self.root) as f64 / root_dur
    }

    /// Summed self time, on the unit's own thread, of spans whose layer is
    /// `layer`, as a share of the unit's wall time.
    pub fn layer_share(&self, layer: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.tid == self.root.tid && layer_of(s.name) == layer)
            .map(|s| self.self_ns(s))
            .sum();
        ns as f64 / self.root.dur_ns().max(1) as f64
    }

    /// Summed duration of the unit's spans named `name` (all threads).
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.dur_ns()).sum()
    }

    /// The unit's spans named `name`.
    pub fn named<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'a SpanRecord> + 's {
        self.spans.iter().copied().filter(move |s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        let tracer = Tracer::new(true);
        {
            let root = tracer.span("unit", 7, ROOT);
            {
                let _a = tracer.span("circuits.monte_carlo", 7, root.id());
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            let parent = root.id();
            let t = &tracer;
            std::thread::scope(|s| {
                s.spawn(move || {
                    let _w = t.span("core.cv.select", 7, parent);
                    std::thread::sleep(std::time::Duration::from_millis(3));
                });
            });
        }
        let spans = tracer.spans();
        let units = UnitTree::group(&spans);
        assert_eq!(units.len(), 1);
        let u = &units[0];
        assert_eq!(u.spans.len(), 3);
        // The worker's span runs on another thread: it does not reduce the
        // root's self time, so the circuits span alone covers the unit.
        let circuits = u.layer_share("circuits");
        assert!((circuits - u.coverage()).abs() < 1e-12);
        assert!(circuits > 0.0 && circuits < 1.0);
        assert_eq!(u.layer_share("core"), 0.0);
        assert!(u.total_ns("core.cv.select") >= 3_000_000);
        let json = tracer.perfetto_json();
        assert!(json.contains("\"name\":\"core.cv.select\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        {
            let s = tracer.span("unit", 1, ROOT);
            assert_eq!(s.id(), ROOT);
        }
        assert!(tracer.spans().is_empty());
    }
}
