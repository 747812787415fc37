//! In-memory span recorder for the traced run.
//!
//! A span is `(id, parent, name, start, end)`, timed from one process-wide
//! origin. Spans are kept in memory and summarised when the run ends: a
//! span's *self time* is its duration minus the part of its interval that
//! its children cover (children may run on other threads and overlap, so
//! the covered part is the union of their intervals).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static ORIGIN: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Open spans on this thread, innermost last: the default parent.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Nanoseconds since the first span clock read of the process.
pub fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The innermost open span on this thread, to hand to work that runs on
/// other threads (pool workers have no stack of their own).
pub fn current() -> Option<u64> {
    STACK.with(|s| s.borrow().last().copied())
}

/// Runs `f` inside a span whose parent is the innermost open span on this
/// thread.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    span_under(current(), name, f)
}

/// Runs `f` inside a span with an explicit parent.
pub fn span_under<T>(parent: Option<u64>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    SPANS.lock().expect("span log poisoned").push(Span {
        id,
        parent,
        name,
        start_ns,
        end_ns,
    });
    out
}

/// Takes every span recorded so far.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span log poisoned"))
}

/// Per-name totals: `(count, total ns, self ns)`.
pub fn summarise(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let covered = children
            .get_mut(&s.id)
            .map(|c| union_within(c, s.start_ns, s.end_ns))
            .unwrap_or(0);
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur - covered;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}
