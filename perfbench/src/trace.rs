//! In-memory span recording for the traced run.
//!
//! A span is a named interval with an optional parent. Spans are kept in
//! memory while the benchmark runs and written out once at the end
//! ([`write_jsonl`]). Recording is off by default: [`enter`] then costs
//! one atomic load and returns an inert guard, so the untraced run pays
//! (almost) nothing for the instrumentation around each layer call.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the process's trace
/// epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer boundary name, e.g. `probe.trace`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns recording on or off.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; records itself when dropped (if recording was on when
/// it was entered).
pub struct Guard {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
}

impl Guard {
    /// This span's id, to pass as a child's parent (`None` when inert).
    pub fn id(&self) -> Option<u64> {
        (self.id != 0).then_some(self.id)
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: now_ns(),
        };
        // Never panic in drop: a poisoned lock loses the span, nothing else.
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(span);
        }
    }
}

/// Opens a span named `name` under `parent`.
pub fn enter(name: &'static str, parent: Option<u64>) -> Guard {
    if !enabled() {
        return Guard {
            id: 0,
            parent: None,
            name,
            start_ns: 0,
        };
    }
    Guard {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent,
        name,
        start_ns: now_ns(),
    }
}

/// Runs `f` inside a span.
pub fn with<T>(name: &'static str, parent: Option<u64>, f: impl FnOnce() -> T) -> T {
    let _g = enter(name, parent);
    f()
}

/// Removes and returns every recorded span, in completion order.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"))
}

/// Sum of the durations of spans named `name`, in nanoseconds.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum()
}

/// Self time of span `id`: its duration minus the part of its interval
/// that its direct children cover. Children may overlap each other (they
/// ran on different threads); overlapping cover counts once.
pub fn self_time_ns(spans: &[Span], id: u64) -> u64 {
    let Some(span) = spans.iter().find(|s| s.id == id) else {
        return 0;
    };
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| {
            (
                s.start_ns.clamp(span.start_ns, span.end_ns),
                s.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = span.start_ns;
    for (a, b) in children {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    span.dur_ns() - covered
}

/// Writes spans as one JSON object per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 50, 60),
        ];
        assert_eq!(self_time_ns(&spans, 1), 70);
        assert_eq!(self_time_ns(&spans, 2), 20);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two workers running children at the same time.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 60),
            span(3, Some(1), 40, 80),
            span(4, Some(1), 45, 50),
        ];
        assert_eq!(self_time_ns(&spans, 1), 30);
    }

    #[test]
    fn grandchildren_and_overhang_are_ignored() {
        let spans = [
            span(1, None, 100, 200),
            // Child overhanging both ends is clipped to the parent.
            span(2, Some(1), 50, 120),
            span(3, Some(1), 190, 260),
            // A grandchild never reduces the grandparent's self time twice.
            span(4, Some(2), 100, 120),
        ];
        assert_eq!(self_time_ns(&spans, 1), 70);
        assert_eq!(self_time_ns(&spans, 99), 0);
    }

    #[test]
    fn disabled_guards_are_inert() {
        // Only this test toggles recording; it checks the inert path alone.
        let g = enter("inert", None);
        if !enabled() {
            assert_eq!(g.id(), None);
        }
    }
}
