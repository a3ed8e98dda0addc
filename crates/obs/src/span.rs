//! Hierarchical span timing with thread-local buffers.
//!
//! A [`Span`] is an RAII guard: creating it pushes a frame onto the
//! current thread's stack, dropping it records a [`SpanEvent`] with the
//! span's wall time, its *self* time (wall time minus the wall time of
//! direct children) and its depth. Events accumulate in a thread-local
//! buffer; the buffer drains into the process-wide sink whenever the
//! thread's *outermost* span closes — which for the scoped workers of
//! `bmf_stats::parallel` happens inside the worker closure, strictly
//! before the scoped-thread join — and again at thread exit as a
//! backstop for leaked guards. Nested spans (the hot path) therefore
//! never take a lock; only the once-per-task outermost close does.
//!
//! The outermost-close flush matters for correctness, not just latency:
//! `std::thread::scope` unblocks once every worker *closure* has
//! returned, but thread-local destructors run later, during OS-thread
//! teardown. Relying on the TLS destructor alone would let a caller
//! drain the sink after the join but before a worker's flush landed.
//!
//! Work handed to scoped workers stays inside its spawning span: the
//! spawner captures a [`Fork`] of its open span, the workers open their
//! outermost spans through it (one level below the spawning span), and
//! [`Fork::join`] takes the wall time the workers' spans cover out of
//! the spawning span's self time. So self times add up to wall-clock ×
//! threads instead of counting worker time twice.
//!
//! Timestamps are nanoseconds since the process-wide epoch (anchored the
//! first time anything asks for the clock), from a monotonic
//! [`Instant`]; they are never fed back into any computation, so
//! recording cannot perturb a numeric result.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span name (e.g. `"cv.select"`).
    pub name: &'static str,
    /// Recording thread id (1-based, assigned in thread-creation order).
    pub tid: u64,
    /// Nesting depth at open time (0 = top level on its thread).
    pub depth: u32,
    /// Open time, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Wall time from open to close, nanoseconds.
    pub dur_ns: u64,
    /// Wall time not covered by direct child spans, nanoseconds.
    pub self_ns: u64,
}

/// The process-wide trace epoch: all event timestamps are relative to
/// this instant. Anchored on first use (normally by [`crate::enable`]).
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch (shared with the event layer so
/// span and event timestamps are directly comparable). Public so
/// downstream crates can window recorded spans (e.g. a shard run
/// summarizing only its own trace slice) against the same clock.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// The calling thread's recording id (allocated on first use; shared
/// between span and event records so a JSONL line can be matched to the
/// trace lane it happened on).
pub(crate) fn current_tid() -> u64 {
    BUFFER.with(|b| b.borrow().tid)
}

/// Closed events that have already left their recording thread (either
/// because it exited or because the sink was explicitly drained).
static SINK: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

struct Frame {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

/// Per-thread recording state. Events merge into [`SINK`] when the
/// thread's outermost span closes; the `Drop` impl (thread exit) is a
/// backstop for events left behind by leaked or unbalanced guards.
struct ThreadBuffer {
    tid: u64,
    /// Depth of the stack's bottom frame: 0, or one below the spawning
    /// span when the outermost span was opened through a [`Fork`].
    base_depth: u32,
    stack: Vec<Frame>,
    events: Vec<SpanEvent>,
}

impl ThreadBuffer {
    fn new() -> Self {
        ThreadBuffer {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            base_depth: 0,
            stack: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Opens a frame and returns its start time.
    fn push(&mut self, name: &'static str) -> u64 {
        let start_ns = now_ns();
        self.stack.push(Frame {
            name,
            start_ns,
            child_ns: 0,
        });
        start_ns
    }
}

impl Drop for ThreadBuffer {
    fn drop(&mut self) {
        if self.events.is_empty() {
            return;
        }
        if let Ok(mut sink) = SINK.lock() {
            sink.append(&mut self.events);
        }
    }
}

thread_local! {
    static BUFFER: RefCell<ThreadBuffer> = RefCell::new(ThreadBuffer::new());
}

/// RAII span guard returned by [`span`]. `armed == false` is the no-op
/// fast path (recording disabled at open time).
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct Span {
    armed: bool,
}

/// Opens a span named `name` on the current thread.
///
/// When recording is disabled this is one relaxed atomic load and
/// returns an inert guard — no clock query, no thread-local access.
/// When enabled, the matching [`SpanEvent`] is recorded at guard drop
/// even if recording is switched off in between (stacks stay balanced).
#[inline]
pub fn span(name: &'static str) -> Span {
    if !crate::is_enabled() {
        return Span { armed: false };
    }
    BUFFER.with(|b| b.borrow_mut().push(name));
    Span { armed: true }
}

/// The span open on a spawning thread when it hands work to scoped
/// workers, captured by [`fork`] and lent to every worker.
#[derive(Debug)]
pub struct Fork {
    /// Depth the workers' outermost spans open at; `None` when
    /// recording was off at the fork.
    depth: Option<u32>,
    /// Earliest worker-span open and latest close. Relaxed is enough:
    /// these publish no other data, and [`Fork::join`] reads them after
    /// the scope join ordered every worker's update before it.
    first_open_ns: AtomicU64,
    last_close_ns: AtomicU64,
}

/// Captures the calling thread's open span before it spawns scoped
/// workers. When recording is disabled this is one relaxed atomic
/// load, like [`span`].
#[inline]
pub fn fork() -> Fork {
    let depth = crate::is_enabled().then(|| {
        BUFFER.with(|b| {
            let buf = b.borrow();
            buf.base_depth + buf.stack.len() as u32
        })
    });
    Fork {
        depth,
        first_open_ns: AtomicU64::new(u64::MAX),
        last_close_ns: AtomicU64::new(0),
    }
}

impl Fork {
    /// Opens `name` on a worker thread as a child of the forked span.
    /// Nested spans inside it then sit deeper still, exactly as if the
    /// work had run on the spawning thread.
    pub fn span(&self, name: &'static str) -> ForkSpan<'_> {
        let Some(depth) = self.depth else {
            return ForkSpan {
                span: Some(span(name)),
                fork: None,
            };
        };
        let start_ns = BUFFER.with(|b| {
            let mut buf = b.borrow_mut();
            if buf.stack.is_empty() {
                buf.base_depth = depth;
            }
            buf.push(name)
        });
        self.first_open_ns.fetch_min(start_ns, Ordering::Relaxed);
        ForkSpan {
            span: Some(Span { armed: true }),
            fork: Some(self),
        }
    }

    /// Call on the spawning thread once every worker has joined. The
    /// wall time from the first worker span's open to the last one's
    /// close is covered by the workers, so it counts as child time of
    /// the span that was open at the fork. Thread spawn and join costs
    /// outside that window stay the spawning span's own.
    pub fn join(self) {
        if self.depth.is_none() {
            return;
        }
        let covered = self
            .last_close_ns
            .into_inner()
            .saturating_sub(self.first_open_ns.into_inner());
        BUFFER.with(|b| {
            if let Some(top) = b.borrow_mut().stack.last_mut() {
                top.child_ns += covered;
            }
        });
    }
}

/// RAII guard returned by [`Fork::span`]: a [`Span`] that also reports
/// its close to the fork.
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct ForkSpan<'a> {
    span: Option<Span>,
    fork: Option<&'a Fork>,
}

impl Drop for ForkSpan<'_> {
    fn drop(&mut self) {
        drop(self.span.take());
        if let Some(fork) = self.fork {
            fork.last_close_ns.fetch_max(now_ns(), Ordering::Relaxed);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let end_ns = now_ns();
        let flushed = BUFFER.with(|b| {
            let mut buf = b.borrow_mut();
            let Some(frame) = buf.stack.pop() else {
                return Vec::new(); // unbalanced close; drop silently rather than panic
            };
            let dur_ns = end_ns.saturating_sub(frame.start_ns);
            let self_ns = dur_ns.saturating_sub(frame.child_ns);
            let depth = buf.base_depth + buf.stack.len() as u32;
            if let Some(parent) = buf.stack.last_mut() {
                parent.child_ns += dur_ns;
            }
            let tid = buf.tid;
            buf.events.push(SpanEvent {
                name: frame.name,
                tid,
                depth,
                start_ns: frame.start_ns,
                dur_ns,
                self_ns,
            });
            if buf.stack.is_empty() {
                // Outermost close: hand the batch to the sink so it is
                // visible to other threads before any join completes.
                buf.base_depth = 0;
                std::mem::take(&mut buf.events)
            } else {
                Vec::new()
            }
        });
        if !flushed.is_empty() {
            if let Ok(mut sink) = SINK.lock() {
                sink.extend(flushed);
            }
            // The outermost close is also the event layer's join-safe
            // flush point: a scoped worker's structured events must be
            // in their sink before the scope join unblocks, for the
            // same reason the span batch must (TLS destructors run too
            // late).
            crate::event::flush_thread();
        }
    }
}

/// Drains every recorded event: the global sink plus the calling
/// thread's own buffer. Events on still-running *other* threads stay
/// in their thread-local buffers until their outermost span closes (or
/// the thread exits).
///
/// Events are returned sorted by `(start_ns, tid)` so exports are
/// stable regardless of which thread flushed first.
pub fn take_events() -> Vec<SpanEvent> {
    let mut events: Vec<SpanEvent> = SINK
        .lock()
        .map(|mut sink| std::mem::take(&mut *sink))
        .unwrap_or_default();
    BUFFER.with(|b| {
        events.append(&mut b.borrow_mut().events);
    });
    events.sort_by_key(|e| (e.start_ns, e.tid, std::cmp::Reverse(e.dur_ns)));
    events
}

/// Copies the recorded events without draining them, sorted like
/// [`take_events`]. For live scrapers (the on-demand dashboard): the
/// exit-time exporters still see every event afterwards. Events on
/// still-running *other* threads stay invisible until their outermost
/// span closes, exactly as for [`take_events`].
pub fn peek_events() -> Vec<SpanEvent> {
    let mut events: Vec<SpanEvent> = SINK.lock().map(|sink| sink.clone()).unwrap_or_default();
    BUFFER.with(|b| events.extend(b.borrow().events.iter().cloned()));
    events.sort_by_key(|e| (e.start_ns, e.tid, std::cmp::Reverse(e.dur_ns)));
    events
}

/// Discards all recorded events (sink + current thread buffer).
pub(crate) fn clear() {
    if let Ok(mut sink) = SINK.lock() {
        sink.clear();
    }
    BUFFER.with(|b| b.borrow_mut().events.clear());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::test_lock;

    #[test]
    fn disabled_span_records_nothing() {
        let _g = test_lock();
        crate::reset();
        {
            let _s = span("quiet");
        }
        assert!(take_events().is_empty());
        crate::reset();
    }

    #[test]
    fn nested_spans_compute_depth_and_self_time() {
        let _g = test_lock();
        crate::reset();
        crate::enable();
        {
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        crate::disable();
        let events = take_events();
        assert_eq!(events.len(), 2);
        let inner = events.iter().find(|e| e.name == "inner").unwrap();
        let outer = events.iter().find(|e| e.name == "outer").unwrap();
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.depth, 0);
        assert!(outer.dur_ns >= inner.dur_ns);
        // Outer self time excludes the inner child entirely.
        assert!(outer.self_ns <= outer.dur_ns - inner.dur_ns);
        assert_eq!(inner.self_ns, inner.dur_ns);
        crate::reset();
    }

    #[test]
    fn worker_thread_buffers_merge_at_join() {
        let _g = test_lock();
        crate::reset();
        crate::enable();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let _s = span("worker");
                });
            }
        });
        // Each worker flushed to the sink when its outermost span
        // closed, inside the worker closure — so the scope join
        // guarantees all three events are visible here. (The TLS
        // destructor alone would race: scope unblocks before OS-thread
        // teardown runs destructors.)
        crate::disable();
        let events = take_events();
        assert_eq!(events.iter().filter(|e| e.name == "worker").count(), 3);
        // Distinct worker threads got distinct tids.
        let tids: std::collections::HashSet<u64> = events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 3);
        crate::reset();
    }

    #[test]
    fn forked_worker_time_leaves_the_spawning_span() {
        let _g = test_lock();
        crate::reset();
        crate::enable();
        {
            let _outer = span("outer");
            let fork = fork();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _w = fork.span("worker");
                    let _inner = span("inner");
                    std::thread::sleep(std::time::Duration::from_millis(2));
                });
            });
            fork.join();
        }
        crate::disable();
        let events = take_events();
        let get = |name| events.iter().find(|e| e.name == name).unwrap();
        let (outer, worker, inner) = (get("outer"), get("worker"), get("inner"));
        assert_eq!((outer.depth, worker.depth, inner.depth), (0, 1, 2));
        // The worker span's time is not the outer span's self time.
        assert!(outer.self_ns + worker.dur_ns <= outer.dur_ns);
        assert_ne!(outer.tid, worker.tid);
        crate::reset();
    }

    #[test]
    fn peek_events_does_not_drain() {
        let _g = test_lock();
        crate::reset();
        crate::enable();
        {
            let _s = span("peeked");
        }
        crate::disable();
        let peeked = peek_events();
        assert_eq!(peeked.len(), 1);
        assert_eq!(peek_events(), peeked, "peek must not consume events");
        assert_eq!(take_events(), peeked, "take still sees the events");
        assert!(take_events().is_empty());
        crate::reset();
    }

    #[test]
    fn disable_mid_span_still_closes_the_frame() {
        let _g = test_lock();
        crate::reset();
        crate::enable();
        let s = span("straddler");
        crate::disable();
        drop(s);
        let events = take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "straddler");
        crate::reset();
    }
}
