//! Lightweight in-process observability: per-phase event counters.
//!
//! The paper's methodology rests on *measured* workload characteristics —
//! flop counts, memory-traffic classes, vector lengths — feeding the
//! architectural model. This module is the capture layer: kernels and
//! apps report hardware-style event counts per named phase, and a
//! [`capture`] run snapshots them for the model (`hec-arch`) and the
//! `PROFILE_<app>.json` artifacts of `repro all`.
//!
//! Design rules, in priority order:
//!
//! 1. **Determinism.** Every counter is a `u64` event count, so a
//!    capture's per-phase totals are order-invariant sums: captures taken at
//!    `HEC_THREADS=1/2/4` are identical bit for bit. Call sites report
//!    quantities derived from the *work executed* (particles deposited,
//!    lattice points updated, CG iterations run), never from how the work
//!    was chunked across workers. Nothing here reads a clock: how fast
//!    a phase ran is `benchmark/`'s question.
//! 2. **Disabled ⇒ free.** Probes check one thread-local and return; no
//!    locks are touched and no state is created. Counting happens at
//!    phase/bulk granularity (once per kernel call or per fixed-size
//!    chunk), never per element, so the enabled path is cheap too.
//! 3. **Captures are scoped.** [`capture`] owns its sink and only the
//!    thread running it points at that sink, so a capture records exactly
//!    its own call tree whatever other threads — or other captures — are
//!    doing. There is no process-wide state. Code that spawns threads
//!    under instrumented work (`msim` ranks, [`crate::pool::Threads`]
//!    workers) hands the parent's sink to them with [`scope`]; a thread
//!    spawned any other way records nothing. A capture inside a capture
//!    records into its own sink and leaves the outer one untouched.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::json::{Json, ToJson};
use crate::sync::Mutex;

/// Event counts for one phase. All fields are exact integer event sums,
/// so cross-thread accumulation is order-invariant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Double-precision floating-point operations.
    pub flops: u64,
    /// Unit-stride (streaming) memory traffic in bytes, loads + stores.
    pub unit_stride_bytes: u64,
    /// Randomly indexed (gather/scatter) traffic in bytes.
    pub gather_scatter_bytes: u64,
    /// Individual gather/scatter element accesses.
    pub gather_scatter_ops: u64,
    /// Total innermost-loop trip count (sum over vector-loop executions).
    pub vector_iters: u64,
    /// Number of innermost vector-loop executions. Together with
    /// `vector_iters` this yields the measured average vector length.
    pub vector_loops: u64,
    /// Point-to-point messages sent.
    pub messages: u64,
    /// Point-to-point payload bytes sent.
    pub message_bytes: u64,
    /// Collective operations entered.
    pub collectives: u64,
    /// Collective payload bytes contributed by this rank.
    pub collective_bytes: u64,
}

impl Counters {
    /// Element-wise sum of two counter sets.
    pub fn merge(&mut self, other: &Counters) {
        self.flops += other.flops;
        self.unit_stride_bytes += other.unit_stride_bytes;
        self.gather_scatter_bytes += other.gather_scatter_bytes;
        self.gather_scatter_ops += other.gather_scatter_ops;
        self.vector_iters += other.vector_iters;
        self.vector_loops += other.vector_loops;
        self.messages += other.messages;
        self.message_bytes += other.message_bytes;
        self.collectives += other.collectives;
        self.collective_bytes += other.collective_bytes;
    }

    /// Measured average vector length: trip count per vector-loop
    /// execution. 0 when the phase recorded no vector loops.
    pub fn avg_vector_length(&self) -> f64 {
        if self.vector_loops == 0 {
            0.0
        } else {
            self.vector_iters as f64 / self.vector_loops as f64
        }
    }

    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == Counters::default()
    }
}

impl ToJson for Counters {
    fn to_json(&self) -> Json {
        Json::obj([
            ("flops", Json::Num(self.flops as f64)),
            ("unit_stride_bytes", Json::Num(self.unit_stride_bytes as f64)),
            ("gather_scatter_bytes", Json::Num(self.gather_scatter_bytes as f64)),
            ("gather_scatter_ops", Json::Num(self.gather_scatter_ops as f64)),
            ("vector_iters", Json::Num(self.vector_iters as f64)),
            ("vector_loops", Json::Num(self.vector_loops as f64)),
            ("messages", Json::Num(self.messages as f64)),
            ("message_bytes", Json::Num(self.message_bytes as f64)),
            ("collectives", Json::Num(self.collectives as f64)),
            ("collective_bytes", Json::Num(self.collective_bytes as f64)),
        ])
    }
}

/// Where one capture's events accumulate: shared by the capturing thread
/// and every thread a [`Scope`] carried it to.
#[derive(Default)]
struct Sink {
    counters: Mutex<BTreeMap<String, Counters>>,
}

thread_local! {
    /// The sink this thread records into; `None` outside any capture.
    static CURRENT: RefCell<Option<Arc<Sink>>> = const { RefCell::new(None) };
}

/// Runs `f` on this thread's sink, if it has one.
fn with_sink(f: impl FnOnce(&Sink)) {
    CURRENT.with(|cur| {
        if let Some(sink) = &*cur.borrow() {
            f(sink);
        }
    });
}

/// True while this thread runs inside a [`capture`]. Instrumented code
/// should call this (or just [`count`], which checks internally) — one
/// thread-local read when disabled.
#[inline]
pub fn enabled() -> bool {
    CURRENT.with(|cur| cur.borrow().is_some())
}

/// Adds `c` to the running totals of `phase`. A no-op (no locks, no
/// allocation, no state) unless this thread is inside a capture.
#[inline]
pub fn count(phase: &str, c: Counters) {
    with_sink(|sink| sink.counters.lock().entry(phase.to_string()).or_default().merge(&c));
}

/// A snapshot of everything counted during one [`capture`] run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Capture {
    /// Per-phase event counters.
    pub counters: BTreeMap<String, Counters>,
}

impl Capture {
    /// Counters for `phase`, or all-zero if the phase never reported.
    pub fn get(&self, phase: &str) -> Counters {
        self.counters.get(phase).copied().unwrap_or_default()
    }

    /// True when no phase recorded any event.
    pub fn is_empty(&self) -> bool {
        self.counters.values().all(Counters::is_zero)
    }
}

impl ToJson for Capture {
    fn to_json(&self) -> Json {
        let phases: Vec<Json> = self
            .counters
            .iter()
            .map(|(name, c)| {
                Json::obj([
                    ("phase", Json::Str(name.clone())),
                    ("counters", c.to_json()),
                    ("avg_vector_length", Json::Num(c.avg_vector_length())),
                ])
            })
            .collect();
        Json::obj([("phases", Json::Arr(phases))])
    }
}

/// The calling thread's capture context, to be carried to threads it
/// spawns: take one with [`scope`] before spawning and wrap each child's
/// body in [`Scope::run`], and the children's events land in the parent's
/// capture. Outside a capture the handle is empty and `run` just calls.
pub struct Scope(Option<Arc<Sink>>);

/// The calling thread's current [`Scope`].
#[inline]
pub fn scope() -> Scope {
    Scope(CURRENT.with(|cur| cur.borrow().clone()))
}

impl Scope {
    /// Runs `f` with this thread recording into the scope's sink, and
    /// puts back whatever the thread pointed at before — also when `f`
    /// unwinds.
    pub fn run<T>(&self, f: impl FnOnce() -> T) -> T {
        struct Restore(Option<Arc<Sink>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT.with(|cur| *cur.borrow_mut() = self.0.take());
            }
        }
        let _restore = Restore(CURRENT.with(|cur| cur.replace(self.0.clone())));
        f()
    }
}

/// Runs `f` with probes enabled on this thread and returns its result
/// together with the capture of everything counted while it ran — by `f`
/// itself and by the threads [`Scope`] carried the capture to, and by
/// nothing else. Captures on different threads run concurrently; a capture
/// nested in `f` keeps its events to itself.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Capture) {
    let sink = Arc::new(Sink::default());
    let out = Scope(Some(Arc::clone(&sink))).run(f);
    let counters = std::mem::take(&mut *sink.counters.lock());
    (out, Capture { counters })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probes_record_nothing() {
        assert!(!enabled());
        count("ghost phase", Counters { flops: 1, ..Default::default() });
        let ((), cap) = capture(|| {});
        assert!(cap.is_empty(), "events outside a capture must vanish: {cap:?}");
    }

    #[test]
    fn capture_collects_counts() {
        let (val, cap) = capture(|| {
            count("alpha", Counters { flops: 10, unit_stride_bytes: 80, ..Default::default() });
            count(
                "alpha",
                Counters { flops: 5, vector_iters: 64, vector_loops: 2, ..Default::default() },
            );
            count("beta", Counters { messages: 3, message_bytes: 24, ..Default::default() });
            42
        });
        assert_eq!(val, 42);
        let a = cap.get("alpha");
        assert_eq!(a.flops, 15);
        assert_eq!(a.unit_stride_bytes, 80);
        assert_eq!(a.avg_vector_length(), 32.0);
        assert_eq!(cap.get("beta").messages, 3);
        assert_eq!(cap.get("missing"), Counters::default());
    }

    #[test]
    fn captures_are_isolated_between_runs() {
        let ((), first) = capture(|| count("x", Counters { flops: 1, ..Default::default() }));
        let ((), second) = capture(|| {});
        assert_eq!(first.get("x").flops, 1);
        assert!(second.is_empty(), "second capture must start clean");
        assert!(!enabled(), "probes must be disabled after a capture");
    }

    #[test]
    fn cross_thread_counts_sum_exactly() {
        let ((), cap) = capture(|| {
            let parent = scope();
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        parent.run(|| {
                            for _ in 0..100 {
                                count(
                                    "sum",
                                    Counters {
                                        flops: 3,
                                        vector_iters: 8,
                                        vector_loops: 1,
                                        ..Default::default()
                                    },
                                );
                            }
                        })
                    });
                }
                // A thread nobody handed the scope to is outside the capture.
                s.spawn(|| count("sum", Counters { flops: 1 << 40, ..Default::default() }));
            });
        });
        let c = cap.get("sum");
        assert_eq!(c.flops, 1200);
        assert_eq!(c.vector_iters, 3200);
        assert_eq!(c.vector_loops, 400);
    }

    #[test]
    fn capture_json_round_trips() {
        let ((), cap) = capture(|| {
            count(
                "k",
                Counters {
                    flops: 7,
                    gather_scatter_ops: 2,
                    collectives: 1,
                    collective_bytes: 8,
                    ..Default::default()
                },
            );
        });
        // The emitted text parses back to the same value, and carries the
        // phase's name, counters and vector length and nothing else.
        let parsed = Json::parse(&cap.to_json().emit_pretty()).unwrap();
        assert_eq!(parsed, cap.to_json());
        let [phase] = parsed.field("phases").unwrap().as_arr().unwrap() else { panic!() };
        assert_eq!(phase.str_field("phase").unwrap(), "k");
        let counters = phase.field("counters").unwrap();
        assert_eq!(counters.num_field("flops").unwrap(), 7.0);
        assert_eq!(counters.num_field("collective_bytes").unwrap(), 8.0);
        let Json::Obj(fields) = phase else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["phase", "counters", "avg_vector_length"]);
    }

    #[test]
    fn capture_disables_probes_after_a_panic() {
        let doomed = || {
            std::panic::catch_unwind(|| {
                capture(|| {
                    count("doomed", Counters { flops: 1, ..Default::default() });
                    panic!("capture body failed");
                })
            })
        };
        assert!(doomed().is_err());
        assert!(!enabled(), "a panicking capture must still disable probes");
        // Unwinding out of a nested capture puts the outer sink back.
        let (r, outer) = capture(|| {
            let r = doomed();
            count("next", Counters { flops: 2, ..Default::default() });
            r
        });
        assert!(r.is_err());
        assert_eq!(outer.get("next").flops, 2);
        assert!(outer.get("doomed").is_zero(), "the inner capture's events left with it");
    }
}
