//! Spans and allocation counts for the traced run.
//!
//! Spans are recorded by the benchmark, around the calls it makes into a
//! layer — nothing inside the crates is instrumented (that is the later
//! "stage ledger" item this benchmark will judge). They are kept in memory
//! and written once, at exit, to `benchmark/out/trace.json`:
//! `{id, parent, name, start_ns, end_ns}`, times from the tracer's epoch.
//! A root span (`parent` null) is one request, one solver step or one
//! micro-timing; its children share nothing but the parent link. A span's
//! self time is its duration minus the part its children cover.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// 1-based id, unique within the run.
    pub id: u32,
    /// Parent span id; 0 = root.
    pub parent: u32,
    /// Static name, `layer.operation`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

/// In-memory span recorder. A disabled tracer records nothing and costs a
/// branch, so untraced and traced runs share one code path.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`true`) or ignores (`false`) spans.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { epoch: Instant::now(), enabled, spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer's epoch.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the epoch to `t` (0 if `t` precedes it).
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; returns its id (0 when disabled).
    pub fn begin(&mut self, name: &'static str, parent: u32) -> u32 {
        if !self.enabled {
            return 0;
        }
        let now = self.now_ns();
        self.record(name, parent, now, now)
    }

    /// Closes span `id` now.
    pub fn end(&mut self, id: u32) {
        if id != 0 {
            let now = self.now_ns();
            self.spans[id as usize - 1].end_ns = now;
        }
    }

    /// Records a finished span with explicit times; returns its id.
    pub fn record(&mut self, name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span { id, parent, name, start_ns, end_ns });
        id
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus the union-free sum of its
    /// direct children (children of one parent never overlap here: the
    /// benchmark opens them one after another).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != 0 {
                let p = s.parent as usize - 1;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Total self time and span count per span name, largest first — the
    /// summary a reader would compute from `trace.json` first.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64, usize)> {
        let mut by_name: Vec<(&'static str, u64, usize)> = Vec::new();
        for (span, own) in self.spans.iter().zip(self.self_times_ns()) {
            match by_name.iter_mut().find(|(n, _, _)| *n == span.name) {
                Some(slot) => {
                    slot.1 += own;
                    slot.2 += 1;
                }
                None => by_name.push((span.name, own, 1)),
            }
        }
        by_name.sort_by_key(|&(_, ns, _)| std::cmp::Reverse(ns));
        by_name
    }

    /// Serializes every span as one JSON document (hand-written: a million
    /// spans should not build a `Json` tree first).
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        out.push_str(&format!("{{\"workload\": \"{workload}\", \"unit\": \"ns\", \"spans\": [\n"));
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == 0 { "null".to_string() } else { s.parent.to_string() };
            out.push_str(&format!(
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{}\n",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

// ---------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus two counters, live only between
/// [`count_allocs`] brackets — one relaxed load per allocation otherwise.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` with allocation counting on; returns `(result, allocations,
/// bytes)` made by *every* thread of the process meanwhile.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = (ALLOCS.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed));
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (out, ALLOCS.load(Ordering::Relaxed) - a0, ALLOC_BYTES.load(Ordering::Relaxed) - b0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hec_core::json::Json;

    #[test]
    fn self_time_is_span_minus_children_and_json_round_trips() {
        let mut t = Tracer::new(true);
        let root = t.record("req.root", 0, 100, 1_000);
        t.record("req.wire", root, 100, 700);
        t.record("req.replay", root, 700, 900);
        let own = t.self_times_ns();
        assert_eq!(own, vec![100, 600, 200]);
        assert_eq!(t.self_time_by_name()[0], ("req.wire", 600, 1));
        let doc = Json::parse(&t.to_json("w")).unwrap();
        let spans = doc.field("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 3);
        assert!(matches!(spans[0].get("parent"), Some(Json::Null)));
        assert_eq!(spans[1].num_field("parent").unwrap(), 1.0);
        assert_eq!(spans[2].num_field("end_ns").unwrap(), 900.0);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", 0);
        t.end(id);
        assert_eq!(t.scope("y", 0, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
