//! Span recorder for the traced run.
//!
//! Spans are opened and closed in the benchmark's own code, around each
//! call into a layer's public functions. Each records its name, start and
//! end (monotonic ns), the span that caused it, a request id shared by
//! every span of one operation, the thread it ran on, and the thread CPU
//! time and allocation calls it spent. Spans stay in memory until the run
//! ends.
//!
//! A span's *self time* is its duration minus the part of that interval
//! its child spans cover (children on other threads included, overlaps
//! counted once).

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use crate::alloc::thread_allocs;
use crate::clock::{now_ns, thread_cpu_ns};

/// Every span name the benchmark records. Spans read back from a child
/// process are matched against this list.
pub const NAMES: &[&str] = &[
    "corpus.pass",
    "batch.binary",
    "batch.hash",
    "batch.cache.lookup",
    "batch.cache.insert",
    "batch.release",
    "bench.check",
    "core.parse",
    "disasm.sweep",
    "core.plan.rebuild",
    "core.plan.derive",
    "cli.invocation",
    "cli.exec",
    "cli.exit",
    "elf.load",
    "core.stages",
    "cli.print",
    "serve.request",
    "bench.slot_wait",
    "client.connect",
    "client.write",
    "client.reply_wait",
    "client.decode",
];

/// The `&'static` entry of [`NAMES`] equal to `name`.
pub fn intern(name: &str) -> Option<&'static str> {
    NAMES.iter().copied().find(|n| *n == name)
}

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, one of [`NAMES`].
    pub name: &'static str,
    /// Unique within one recorder.
    pub id: u32,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<u32>,
    /// Operation this span belongs to.
    pub request: u64,
    /// Small per-process thread number.
    pub thread: u32,
    /// Monotonic start, ns.
    pub start_ns: u64,
    /// Monotonic end, ns.
    pub end_ns: u64,
    /// Thread CPU time spent inside, ns.
    pub cpu_ns: u64,
    /// Allocation calls made by this thread inside.
    pub allocs: u64,
}

impl Span {
    /// A span timed outside a [`Recorder`] (in another process, or from
    /// timestamps taken by hand), with no CPU time or allocations.
    pub fn timed(
        name: &'static str,
        id: u32,
        parent: Option<u32>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        let thread = thread_id();
        Span { name, id, parent, request, thread, start_ns, end_ns, cpu_ns: 0, allocs: 0 }
    }

    /// Wall duration, ns.
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD: Cell<u32> = const { Cell::new(0) };
}

/// This thread's small id (assigned on first use).
pub fn thread_id() -> u32 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// A span that has been opened but not yet closed.
#[derive(Debug)]
pub struct Open {
    name: &'static str,
    id: u32,
    parent: Option<u32>,
    request: u64,
    thread: u32,
    start_ns: u64,
    cpu0: u64,
    allocs0: u64,
}

/// Collects closed spans from any number of threads.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Mutex<Vec<Span>>,
    next: AtomicU32,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Reserves a span id (for spans assembled by hand, see [`push`]).
    ///
    /// [`push`]: Recorder::push
    pub fn next_id(&self) -> u32 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens a span on the calling thread.
    pub fn open(&self, name: &'static str, parent: Option<u32>, request: u64) -> Open {
        let id = self.next_id();
        let (cpu0, allocs0) = (thread_cpu_ns(), thread_allocs());
        Open { name, id, parent, request, thread: thread_id(), start_ns: now_ns(), cpu0, allocs0 }
    }

    /// Closes `open` and records it.
    pub fn close(&self, open: Open) {
        let end_ns = now_ns();
        let cpu_ns = thread_cpu_ns().saturating_sub(open.cpu0);
        let allocs = thread_allocs().saturating_sub(open.allocs0);
        self.push(Span {
            name: open.name,
            id: open.id,
            parent: open.parent,
            request: open.request,
            thread: open.thread,
            start_ns: open.start_ns,
            end_ns,
            cpu_ns,
            allocs,
        });
    }

    /// Runs `f` inside a span; `f` receives the span's id for children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce(u32) -> R,
    ) -> R {
        let open = self.open(name, parent, request);
        let out = f(open.id);
        self.close(open);
        out
    }

    /// Records an already-closed span.
    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span recorder poisoned by a panicking thread").push(span);
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self.spans.lock().expect("span recorder poisoned by a panicking thread"),
        )
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur_end) = (0u64, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(cur_end), e.min(hi));
        if e > s {
            total += e - s;
            cur_end = e;
        }
    }
    total
}

/// Children of every span, by parent id.
fn children(spans: &[Span]) -> HashMap<u32, Vec<usize>> {
    let mut out: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            out.entry(p).or_default().push(i);
        }
    }
    out
}

/// Self time of every span (same order as `spans`): duration minus the
/// union of its children's intervals within it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let kids = children(spans);
    spans
        .iter()
        .map(|s| {
            let ivs = kids
                .get(&s.id)
                .map(|k| k.iter().map(|&c| (spans[c].start_ns, spans[c].end_ns)).collect())
                .unwrap_or_default();
            s.dur() - covered(ivs, s.start_ns, s.end_ns)
        })
        .collect()
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans of this name.
    pub count: u64,
    /// Summed wall duration, ns.
    pub wall_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Summed thread CPU time, ns.
    pub cpu_ns: u64,
    /// Summed allocation calls.
    pub allocs: u64,
}

/// Totals by span name.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.wall_ns += s.dur();
        t.self_ns += own;
        t.cpu_ns += s.cpu_ns;
        t.allocs += s.allocs;
    }
    out
}

/// Share of the operations' wall time that layer spans account for, as
/// `(covered_ns, window_ns)` so several batches of spans can be pooled.
///
/// Each root span with descendants is one operation. Its descendants'
/// self times are summed (`covered_ns`) against the thread time available
/// to them, over the threads they ran on (`window_ns`): the root's
/// duration on the root's own thread, and on any other thread the window
/// from that thread's first descendant start to its last descendant end.
/// Roots without descendants (free-standing layer calls) are left out.
pub fn coverage_parts(spans: &[Span]) -> (u64, u64) {
    let kids = children(spans);
    let selfs = self_times(spans);
    let (mut covered_ns, mut window_ns) = (0u64, 0u64);
    for root in spans.iter().filter(|s| s.parent.is_none()) {
        let mut stack: Vec<usize> = kids.get(&root.id).cloned().unwrap_or_default();
        if stack.is_empty() {
            continue;
        }
        let mut per_thread: HashMap<u32, (u64, u64)> = HashMap::new();
        while let Some(i) = stack.pop() {
            let s = &spans[i];
            covered_ns += selfs[i];
            let w = per_thread.entry(s.thread).or_insert((u64::MAX, 0));
            w.0 = w.0.min(s.start_ns);
            w.1 = w.1.max(s.end_ns);
            stack.extend(kids.get(&s.id).into_iter().flatten().copied());
        }
        for (thread, (lo, hi)) in per_thread {
            window_ns += if thread == root.thread { root.dur() } else { hi - lo };
        }
    }
    (covered_ns, window_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u32, parent: Option<u32>, thread: u32, s: u64, e: u64) -> Span {
        Span { name, id, parent, request: 0, thread, start_ns: s, end_ns: e, cpu_ns: 0, allocs: 0 }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        // Root 0..100 with children 10..40 and 30..60 (overlapping) and
        // 90..120 (sticking out past the root's end).
        let spans = vec![
            span("corpus.pass", 0, None, 1, 0, 100),
            span("core.parse", 1, Some(0), 1, 10, 40),
            span("disasm.sweep", 2, Some(0), 2, 30, 60),
            span("core.plan.rebuild", 3, Some(0), 1, 90, 120),
        ];
        // Covered: 10..60 (50) + 90..100 (10) = 60.
        assert_eq!(self_times(&spans), vec![40, 30, 30, 30]);
    }

    #[test]
    fn nested_self_times_sum_to_root_duration() {
        let spans = vec![
            span("serve.request", 0, None, 1, 0, 100),
            span("client.connect", 1, Some(0), 1, 0, 20),
            span("client.reply_wait", 2, Some(0), 1, 20, 90),
            span("client.decode", 3, Some(2), 1, 80, 90),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![10, 20, 60, 10]);
        assert_eq!(selfs.iter().sum::<u64>(), 100);
        let layers = by_layer(&spans);
        assert_eq!(layers["client.reply_wait"].wall_ns, 70);
        assert_eq!(layers["client.reply_wait"].self_ns, 60);
    }

    #[test]
    fn coverage_counts_helper_threads_by_their_window() {
        // Root on thread 1, 0..100, fully covered on its own thread;
        // thread 2 works 10..50 with a 10-wide gap in its window.
        let spans = vec![
            span("corpus.pass", 0, None, 1, 0, 100),
            span("batch.binary", 1, Some(0), 1, 0, 100),
            span("batch.binary", 2, Some(0), 2, 10, 25),
            span("batch.binary", 3, Some(0), 2, 35, 50),
        ];
        // Covered 100 + 15 + 15 = 130 of a 100 + 40 window.
        assert_eq!(coverage_parts(&spans), (130, 140));
        // A root with no children is not an operation.
        let lone = vec![span("batch.hash", 0, None, 1, 0, 10)];
        assert_eq!(coverage_parts(&lone), (0, 0));
        // Workers only: the idle root thread adds no window.
        let workers = vec![
            span("corpus.pass", 0, None, 1, 0, 100),
            span("batch.binary", 1, Some(0), 2, 0, 100),
            span("batch.binary", 2, Some(0), 3, 0, 90),
        ];
        assert_eq!(coverage_parts(&workers), (190, 190));
    }

    #[test]
    fn recorder_nests_and_counts_allocations() {
        let rec = Recorder::new();
        rec.span("corpus.pass", None, 7, |root| {
            rec.span("core.parse", Some(root), 7, |_| std::hint::black_box(vec![1u8; 64]));
        });
        let spans = rec.take();
        assert_eq!(spans.len(), 2);
        let parse = spans.iter().find(|s| s.name == "core.parse").expect("child recorded");
        let root = spans.iter().find(|s| s.name == "corpus.pass").expect("root recorded");
        assert_eq!(parse.parent, Some(root.id));
        assert_eq!(parse.request, 7);
        assert!(parse.allocs >= 1, "the vec! allocation is counted");
        assert!(rec.take().is_empty());
    }

    #[test]
    fn interning_knows_every_name() {
        for n in NAMES {
            assert_eq!(intern(n), Some(*n));
        }
        assert_eq!(intern("nope"), None);
    }
}
