//! Zero-dependency span/event tracing for the hetnet workspace.
//!
//! The admission engine explains its decisions through two channels:
//! the structured `DecisionTrace` the core crate attaches to every
//! decision, and the *fine-grained* span/event stream this crate
//! collects — which evaluator stage ran, which multiplexer analysis hit
//! or missed its cache, which grid cells a frontier trace probed.
//!
//! Design constraints, in order:
//!
//! 1. **Free when off.** Instrumentation sits inside the CAC's binary
//!    searches. With no subscriber installed, [`event`] and [`span`]
//!    reduce to one thread-local flag read.
//! 2. **No dependencies.** Storage is a fixed-capacity ring buffer of
//!    plain structs; timestamps are monotonic nanoseconds from the
//!    subscriber's install instant; exporters are hand-written
//!    (JSON-lines, see [`Trace`]; metrics go out as OpenMetrics text
//!    through [`RegistrySnapshot::to_openmetrics`]).
//! 3. **Thread-local collection, shared aggregation.** A subscriber
//!    observes the thread it was installed on — shard workers install
//!    their own subscriber per decision and hand the finished trace to
//!    the committer. Cross-thread state lives in the sibling modules:
//!    a [`registry::MetricsRegistry`] of atomic counters, gauges, and
//!    [`hist::AtomicHistogram`]s that any thread can update; a
//!    [`ring::SharedRing`] for merged traces and telemetry frames; and
//!    a [`flight::FlightRecorder`] retaining the full evidence for
//!    outlier decisions.
//!
//! ```
//! use hetnet_obs as obs;
//!
//! obs::install(1024);
//! {
//!     let _span = obs::span("admit");
//!     obs::event("stage1", &[("ring", obs::FieldValue::U64(0)),
//!                            ("hit", obs::FieldValue::Bool(true))]);
//! }
//! let trace = obs::uninstall().expect("installed above");
//! assert_eq!(trace.records().len(), 3); // span start + event + span end
//! println!("{}", trace.to_json_lines());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod export;
pub mod flight;
pub mod hist;
pub mod registry;
pub mod ring;

pub use flight::{FlightObservation, FlightRecorder, OutlierCause, OutlierRecord};
pub use hist::{AtomicHistogram, GeometricHistogram};
pub use registry::{MetricsRegistry, RegistrySnapshot};
pub use ring::SharedRing;

/// One typed field value attached to a record.
///
/// `Str` carries a static label (no allocation on the hot path);
/// `Text` is for cold paths that must attach an owned message — guard
/// its construction with [`is_enabled`] so the disabled path never
/// allocates.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (non-finite values export as JSON `null`).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Static string label.
    Str(&'static str),
    /// Owned string (cold paths only).
    Text(String),
}

/// What a [`TraceRecord`] marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// A [`span`] guard was created.
    SpanStart,
    /// A [`span`] guard was dropped.
    SpanEnd,
    /// A point-in-time [`event`].
    Event,
}

impl RecordKind {
    /// Stable lowercase name used by the exporters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::SpanStart => "span_start",
            Self::SpanEnd => "span_end",
            Self::Event => "event",
        }
    }
}

/// One collected record.
#[derive(Clone, Debug)]
pub struct TraceRecord {
    /// Sequence number assigned at record time (monotone per
    /// subscriber, gap-free even across ring-buffer overwrites).
    pub seq: u64,
    /// Monotonic nanoseconds since the subscriber was installed.
    pub at_nanos: u64,
    /// Start, end, or event.
    pub kind: RecordKind,
    /// Static record name (`"stage1"`, `"mux"`, `"admit"`, …).
    pub name: &'static str,
    /// For span records: the span's own id. For events: the id of the
    /// innermost enclosing span. `0` means "no span".
    pub span: u64,
    /// Attached fields, in emission order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// A finished collection: everything still in the ring buffer, in
/// chronological order, plus how much was overwritten.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    records: Vec<TraceRecord>,
    dropped: u64,
}

impl Trace {
    /// The collected records in chronological order.
    #[must_use]
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Records overwritten because the ring buffer was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

mod collector {
    use super::{FieldValue, RecordKind, Trace, TraceRecord};
    use std::cell::{Cell, RefCell};
    use std::time::Instant;

    pub(super) struct Collector {
        origin: Instant,
        /// Ring buffer: grows to `capacity`, then overwrites the oldest
        /// record at `write` (which `dropped` counts).
        ring: Vec<TraceRecord>,
        capacity: usize,
        write: usize,
        dropped: u64,
        next_seq: u64,
        next_span: u64,
        /// Innermost-last stack of open span ids.
        open: Vec<u64>,
    }

    thread_local! {
        static ENABLED: Cell<bool> = const { Cell::new(false) };
        static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
    }

    #[inline]
    pub(super) fn enabled() -> bool {
        ENABLED.with(Cell::get)
    }

    pub(super) fn install(capacity: usize) {
        let capacity = capacity.max(1);
        COLLECTOR.with(|c| {
            *c.borrow_mut() = Some(Collector {
                origin: Instant::now(),
                ring: Vec::with_capacity(capacity.min(4096)),
                capacity,
                write: 0,
                dropped: 0,
                next_seq: 0,
                next_span: 1,
                open: Vec::new(),
            });
        });
        ENABLED.with(|e| e.set(true));
    }

    pub(super) fn uninstall() -> Option<Trace> {
        ENABLED.with(|e| e.set(false));
        COLLECTOR.with(|c| c.borrow_mut().take()).map(|col| {
            let mut records = col.ring;
            // Chronological order: the slot at `write` is the oldest
            // once the ring has wrapped.
            if col.dropped > 0 {
                records.rotate_left(col.write);
            }
            Trace {
                records,
                dropped: col.dropped,
            }
        })
    }

    fn push(
        col: &mut Collector,
        kind: RecordKind,
        name: &'static str,
        span: u64,
        fields: &[(&'static str, FieldValue)],
    ) {
        let record = TraceRecord {
            seq: col.next_seq,
            at_nanos: u64::try_from(col.origin.elapsed().as_nanos()).unwrap_or(u64::MAX),
            kind,
            name,
            span,
            fields: fields.to_vec(),
        };
        col.next_seq += 1;
        if col.ring.len() < col.capacity {
            col.ring.push(record);
        } else {
            col.ring[col.write] = record;
            col.write = (col.write + 1) % col.capacity;
            col.dropped += 1;
        }
    }

    pub(super) fn record_event(name: &'static str, fields: &[(&'static str, FieldValue)]) {
        COLLECTOR.with(|c| {
            if let Some(col) = c.borrow_mut().as_mut() {
                let span = col.open.last().copied().unwrap_or(0);
                push(col, RecordKind::Event, name, span, fields);
            }
        });
    }

    pub(super) fn open_span(name: &'static str) -> u64 {
        COLLECTOR.with(|c| {
            c.borrow_mut().as_mut().map_or(0, |col| {
                let id = col.next_span;
                col.next_span += 1;
                col.open.push(id);
                push(col, RecordKind::SpanStart, name, id, &[]);
                id
            })
        })
    }

    pub(super) fn close_span(name: &'static str, id: u64) {
        COLLECTOR.with(|c| {
            if let Some(col) = c.borrow_mut().as_mut() {
                // Tolerate mis-nested guards: close everything opened
                // after (and including) this span.
                if let Some(pos) = col.open.iter().rposition(|&s| s == id) {
                    col.open.truncate(pos);
                }
                push(col, RecordKind::SpanEnd, name, id, &[]);
            }
        });
    }
}

/// Whether a subscriber is installed on this thread. Instrumented code
/// uses this to guard field construction that would otherwise allocate.
#[inline]
#[must_use]
pub fn is_enabled() -> bool {
    collector::enabled()
}

/// Installs a subscriber on the current thread with the given ring
/// capacity (clamped to at least 1), replacing any previous one (whose
/// records are discarded). Timestamps restart at zero.
pub fn install(capacity: usize) {
    collector::install(capacity);
}

/// Uninstalls the current thread's subscriber and returns what it
/// collected; `None` if none was installed.
pub fn uninstall() -> Option<Trace> {
    collector::uninstall()
}

/// Runs `f` under a fresh subscriber and returns its result together
/// with the collected trace.
pub fn collect<R>(capacity: usize, f: impl FnOnce() -> R) -> (R, Trace) {
    install(capacity);
    let out = f();
    let trace = uninstall().unwrap_or_default();
    (out, trace)
}

/// Records a point-in-time event. A no-op (one flag read) without a
/// subscriber.
#[inline]
pub fn event(name: &'static str, fields: &[(&'static str, FieldValue)]) {
    if !is_enabled() {
        return;
    }
    collector::record_event(name, fields);
}

/// Opens a span; the returned guard records the end when dropped.
/// A no-op (one flag read, inert guard) without a subscriber.
#[inline]
#[must_use = "the span closes when the guard drops"]
pub fn span(name: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { name, id: 0 };
    }
    SpanGuard {
        name,
        id: collector::open_span(name),
    }
}

/// RAII guard for one [`span`]; records `span_end` on drop.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    /// 0 when the span was opened with no subscriber installed.
    id: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id != 0 && is_enabled() {
            collector::close_span(self.name, self.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_collects_when_installed() {
        assert!(!is_enabled());
        event("ignored", &[("k", FieldValue::U64(1))]);
        assert!(uninstall().is_none());

        let ((), trace) = collect(64, || {
            let _outer = span("outer");
            event("e1", &[("x", FieldValue::U64(7))]);
            {
                let _inner = span("inner");
                event("e2", &[]);
            }
        });
        assert!(!is_enabled());
        let kinds: Vec<(&str, RecordKind)> =
            trace.records().iter().map(|r| (r.name, r.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                ("outer", RecordKind::SpanStart),
                ("e1", RecordKind::Event),
                ("inner", RecordKind::SpanStart),
                ("e2", RecordKind::Event),
                ("inner", RecordKind::SpanEnd),
                ("outer", RecordKind::SpanEnd),
            ]
        );
        assert_eq!(trace.dropped(), 0);
    }

    #[test]
    fn seq_is_gap_free_and_time_monotone() {
        let ((), trace) = collect(1024, || {
            for _ in 0..10 {
                event("tick", &[]);
            }
        });
        for (i, r) in trace.records().iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
        for w in trace.records().windows(2) {
            assert!(w[0].at_nanos <= w[1].at_nanos);
        }
    }

    #[test]
    fn events_carry_their_enclosing_span() {
        let ((), trace) = collect(64, || {
            event("outside", &[]);
            let _s = span("s");
            event("inside", &[]);
        });
        let find = |n: &str| trace.records().iter().find(|r| r.name == n).unwrap().span;
        assert_eq!(find("outside"), 0);
        let sid = find("s");
        assert!(sid > 0);
        assert_eq!(find("inside"), sid);
    }

    #[test]
    fn ring_overwrites_oldest_and_keeps_order() {
        let ((), trace) = collect(4, || {
            for i in 0..10u64 {
                event("tick", &[("i", FieldValue::U64(i))]);
            }
        });
        assert_eq!(trace.records().len(), 4);
        assert_eq!(trace.dropped(), 6);
        // The survivors are the newest four, chronological.
        let seqs: Vec<u64> = trace.records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn reinstall_resets_the_stream() {
        install(16);
        event("a", &[]);
        install(16);
        event("b", &[]);
        let trace = uninstall().unwrap();
        assert_eq!(trace.records().len(), 1);
        assert_eq!(trace.records()[0].name, "b");
        assert_eq!(trace.records()[0].seq, 0);
    }

    #[test]
    fn guard_outliving_its_subscriber_is_inert() {
        install(16);
        let guard = span("orphan");
        let trace = uninstall().unwrap();
        drop(guard); // must not panic or touch a new subscriber
        assert_eq!(trace.records().len(), 1);
        let ((), second) = collect(16, || {});
        assert!(second.records().is_empty());
    }

    #[test]
    fn subscribers_are_thread_local() {
        install(16);
        event("main-thread", &[]);
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!is_enabled());
                event("other-thread", &[]);
            })
            .join()
            .unwrap();
        });
        let trace = uninstall().unwrap();
        assert_eq!(trace.records().len(), 1);
        assert_eq!(trace.records()[0].name, "main-thread");
    }
}
