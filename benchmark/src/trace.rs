//! Span and counter recording for the traced in-process pass.
//!
//! Spans are recorded only at the benchmark's own call sites into each
//! layer's public functions (wrapper optimizer and evaluator, engine and
//! store entry points, direct layer calls); nothing inside the program
//! is instrumented. Recording is process-global so wrappers that the
//! engine owns can reach it, and is off unless a pass turns it on: an
//! off span costs one relaxed atomic load.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub thread: u32,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same recording.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Everything recorded between [`start`] and [`finish`].
#[derive(Debug, Default)]
pub struct Recording {
    pub spans: Vec<Span>,
    pub counters: BTreeMap<&'static str, f64>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static RECORDING: Mutex<Recording> =
    Mutex::new(Recording { spans: Vec::new(), counters: BTreeMap::new() });

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static THREAD: Cell<Option<u32>> = const { Cell::new(None) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn thread_id() -> u32 {
    THREAD.with(|t| {
        t.get().unwrap_or_else(|| {
            let id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        })
    })
}

// The recording is a plain Vec/map that every update leaves valid, so a
// panic elsewhere while it was locked does not make it unusable.
fn recording() -> std::sync::MutexGuard<'static, Recording> {
    RECORDING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Clears any previous recording and turns recording on.
pub fn start() {
    epoch();
    *recording() = Recording::default();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns recording off and returns what was recorded.
pub fn finish() -> Recording {
    ENABLED.store(false, Ordering::SeqCst);
    std::mem::take(&mut *recording())
}

/// An open span; it ends when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard {
    id: Option<usize>,
    name: &'static str,
}

/// Opens a span whose parent is the innermost open span on this thread.
pub fn span(name: &'static str) -> Guard {
    span_under(name, current())
}

/// Opens a span with an explicit parent, for work handed to another
/// thread.
pub fn span_under(name: &'static str, parent: Option<usize>) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard { id: None, name };
    }
    let thread = thread_id();
    let start = now_ns();
    let id = {
        let mut rec = recording();
        rec.spans.push(Span { name, thread, start, end: start, parent });
        rec.spans.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push(id));
    Guard { id: Some(id), name }
}

/// The innermost open span on this thread.
pub fn current() -> Option<usize> {
    STACK.with(|s| s.borrow().last().copied())
}

impl Guard {
    /// Renames the span before it ends, for spans classified by what the
    /// call turned out to do.
    pub fn rename(&mut self, name: &'static str) {
        self.name = name;
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        let end = now_ns();
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&open| open == id) {
                stack.remove(pos);
            }
        });
        if let Some(span) = recording().spans.get_mut(id) {
            span.end = end;
            span.name = self.name;
        }
    }
}

/// Adds `amount` to counter `name` when recording is on.
pub fn count(name: &'static str, amount: f64) {
    if ENABLED.load(Ordering::Relaxed) {
        *recording().counters.entry(name).or_insert(0.0) += amount;
    }
}

/// Runs `f` inside a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = span(name);
    f()
}

impl Recording {
    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).count() as f64
    }

    /// Summed duration of spans named `name`, in seconds.
    pub fn seconds(&self, name: &str) -> f64 {
        let ns: u64 = self.spans.iter().filter(|s| s.name == name).map(Span::duration).sum();
        ns as f64 * 1e-9
    }

    /// Summed self time of spans named `name`, in seconds.
    pub fn self_seconds(&self, name: &str) -> f64 {
        let ns: u64 = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self_time(&self.spans, i))
            .sum();
        ns as f64 * 1e-9
    }

    /// Counter `name`, 0 when never counted.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// The recording as JSON: one object per span plus the counters.
    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                    s.name, s.thread, s.start, s.end, parent
                )
            })
            .collect();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", crate::report::json_number(*v)))
            .collect();
        format!(
            "{{\"spans\":[\n{}\n],\"counters\":{{{}}}}}\n",
            spans.join(",\n"),
            counters.join(",")
        )
    }
}

/// A span's duration minus the part of its interval that its children
/// cover. Children on other threads may overlap each other; the union of
/// their intervals, clipped to the parent's, is what gets subtracted.
pub fn self_time(spans: &[Span], index: usize) -> u64 {
    let parent = &spans[index];
    let mut covered: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
        .filter(|(a, b)| a < b)
        .collect();
    covered.sort_unstable();
    let mut union = 0;
    let mut reach = parent.start;
    for (a, b) in covered {
        let a = a.max(reach);
        if b > a {
            union += b - a;
            reach = b;
        }
    }
    parent.duration() - union
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, thread: u32, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, thread, start, end, parent }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("run", 0, 0, 100, None),
            span("a", 0, 10, 30, Some(0)),
            span("b", 0, 40, 70, Some(0)),
            // A grandchild is covered by its parent `b`, not subtracted twice.
            span("c", 0, 45, 60, Some(2)),
        ];
        assert_eq!(self_time(&spans, 0), 100 - 20 - 30);
        assert_eq!(self_time(&spans, 2), 30 - 15);
        assert_eq!(self_time(&spans, 3), 15);
    }

    #[test]
    fn self_time_unions_overlapping_children_on_other_threads() {
        let spans = vec![
            span("pipeline", 0, 0, 100, None),
            span("curve", 1, 10, 60, Some(0)),
            span("curve", 2, 20, 80, Some(0)),
            // Runs past the parent's end: only the covered part counts.
            span("curve", 3, 90, 130, Some(0)),
        ];
        assert_eq!(self_time(&spans, 0), 100 - 70 - 10);
    }

    #[test]
    fn recording_sums_by_name() {
        let rec = Recording {
            spans: vec![
                span("run", 0, 0, 2_000_000_000, None),
                span("eval", 0, 0, 500_000_000, Some(0)),
                span("eval", 0, 1_000_000_000, 1_500_000_000, Some(0)),
            ],
            counters: BTreeMap::from([("n", 3.0)]),
        };
        assert_eq!(rec.calls("eval"), 2.0);
        assert!((rec.seconds("eval") - 1.0).abs() < 1e-12);
        assert!((rec.self_seconds("run") - 1.0).abs() < 1e-12);
        assert_eq!(rec.counter("n"), 3.0);
        assert_eq!(rec.counter("missing"), 0.0);
    }
}
