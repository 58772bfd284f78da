//! Scoped-thread parallel-for, replacing `rayon` for the OpenMP-style
//! loops of the mini-apps.
//!
//! The suite's parallel loops are coarse (z-slabs of a lattice block,
//! latitude bands of a sphere, particle chunks): a handful of contiguous
//! chunks handed to scoped threads is all the machinery they need. Work
//! is split into contiguous chunks — one per worker — so results
//! concatenate back in input order.
//!
//! Determinism contract: every decomposition here depends only on the
//! *input size*, never on the worker count, and reductions the callers
//! build on top (e.g. GTC's replicated-grid deposit) combine partial
//! results in chunk order. Disjoint-output loops (`par_chunks_mut`,
//! `par_map`) are bit-identical to their sequential forms for any worker
//! count; chunk-reduction loops are bit-identical across worker counts.
//! Workers record [`crate::probe`] events into the caller's capture.

use std::num::NonZeroUsize;

/// Below this many items `par_map` runs inline on the caller: the
/// per-thread spawn cost (~10 µs) dwarfs any conceivable win on a
/// handful of cheap elements, and the small-problem bench cases must not
/// regress just because a threaded path exists. Callers with *few but
/// heavy* tasks should use [`Threads::par_tasks`], which has no cutoff.
pub const SERIAL_CUTOFF: usize = 32;

/// An explicit handle on the shared-memory worker count.
///
/// Apps resolve one of these at model-config time (`0` = auto) and pass
/// it down to their kernels, so a whole simulation runs at a coherent,
/// reproducible thread count instead of each loop re-reading the
/// environment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Threads {
    workers: usize,
}

impl Threads {
    /// A handle running exactly `workers` threads (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        Threads { workers: workers.max(1) }
    }

    /// Forced-serial mode: every parallel call runs inline on the
    /// caller. Useful for debugging and as the baseline in scaling
    /// measurements.
    pub fn serial() -> Self {
        Threads { workers: 1 }
    }

    /// Worker count from the environment: `HEC_THREADS` if set to a
    /// positive integer, otherwise the machine's available parallelism.
    pub fn from_env() -> Self {
        if let Ok(v) = std::env::var("HEC_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return Threads { workers: n };
                }
            }
        }
        let hw = std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1);
        Threads { workers: hw }
    }

    /// Worker count from an app config field: `0` means "auto"
    /// (delegate to [`Threads::from_env`]), anything else is explicit.
    pub fn from_config(workers: usize) -> Self {
        if workers == 0 {
            Threads::from_env()
        } else {
            Threads::new(workers)
        }
    }

    /// Number of worker threads parallel calls will use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// True when parallel calls run inline on the caller.
    pub fn is_serial(&self) -> bool {
        self.workers <= 1
    }

    /// A handle clamped so every worker gets at least
    /// `min_units_per_worker` of the `units` of work — the serial-cutoff
    /// rule for cheap element-wise loops, where spawn cost (~10 µs per
    /// thread) swamps the per-element work. With fewer than
    /// `2 × min_units_per_worker` units the result is serial; the worker
    /// count never exceeds `self.workers()`.
    ///
    /// `min_units_per_worker == 0` is treated as 1 (no clamping beyond
    /// the existing worker count).
    pub fn clamp_for(&self, units: usize, min_units_per_worker: usize) -> Threads {
        let per = min_units_per_worker.max(1);
        Threads { workers: self.workers.min(units / per).max(1) }
    }

    /// Applies `f` to every element of `items`, returning the results in
    /// input order. Equivalent to `items.iter().map(f).collect()` —
    /// including panic propagation: if any invocation panics, the panic
    /// resurfaces on the caller after all workers have stopped.
    ///
    /// Runs inline when only one worker is configured or `items` is
    /// shorter than [`SERIAL_CUTOFF`].
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let workers = self.workers.min(items.len());
        if workers <= 1 || items.len() < SERIAL_CUTOFF {
            return items.iter().map(f).collect();
        }
        let chunk = items.len().div_ceil(workers);
        let mut parts: Vec<Vec<R>> = Vec::with_capacity(workers);
        let probes = crate::probe::scope();
        std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .chunks(chunk)
                .map(|c| scope.spawn(|| probes.run(|| c.iter().map(&f).collect::<Vec<R>>())))
                .collect();
            for h in handles {
                match h.join() {
                    Ok(v) => parts.push(v),
                    Err(p) => std::panic::resume_unwind(p),
                }
            }
        });
        parts.into_iter().flatten().collect()
    }

    /// Splits `data` into chunks of at most `chunk_len` elements and
    /// runs `f(chunk_index, chunk)` on the workers. The chunking is
    /// identical to `data.chunks_mut(chunk_len)`, so `chunk_index *
    /// chunk_len` recovers each chunk's offset. Chunks are disjoint, so
    /// the result is bit-identical to the sequential loop for any worker
    /// count.
    ///
    /// # Panics
    /// Panics if `chunk_len == 0`; worker panics resurface on the caller.
    pub fn par_chunks_mut<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk_len > 0, "chunk_len must be positive");
        let mut chunks: Vec<(usize, &mut [T])> = data.chunks_mut(chunk_len).enumerate().collect();
        let workers = self.workers.min(chunks.len());
        if workers <= 1 {
            for (i, c) in chunks {
                f(i, c);
            }
            return;
        }
        let per = chunks.len().div_ceil(workers);
        let probes = crate::probe::scope();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            while !chunks.is_empty() {
                let take = per.min(chunks.len());
                let group: Vec<(usize, &mut [T])> = chunks.drain(..take).collect();
                let (f, probes) = (&f, &probes);
                handles.push(scope.spawn(move || {
                    probes.run(|| {
                        for (i, c) in group {
                            f(i, c);
                        }
                    })
                }));
            }
            for h in handles {
                if let Err(p) = h.join() {
                    std::panic::resume_unwind(p);
                }
            }
        });
    }

    /// Runs a small set of heavyweight, independent closures and returns
    /// their results in input order. Unlike [`Threads::par_map`] there
    /// is no item-count cutoff: each task is assumed to be worth a
    /// thread (e.g. one private charge-grid scatter, one Poisson
    /// plane). Tasks are grouped contiguously onto at most `workers`
    /// threads; worker panics resurface on the caller.
    pub fn par_tasks<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let workers = self.workers.min(tasks.len());
        if workers <= 1 {
            return tasks.into_iter().map(|t| t()).collect();
        }
        let per = tasks.len().div_ceil(workers);
        let mut tasks = tasks;
        let mut parts: Vec<Vec<T>> = Vec::with_capacity(workers);
        let probes = crate::probe::scope();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            while !tasks.is_empty() {
                let take = per.min(tasks.len());
                let group: Vec<F> = tasks.drain(..take).collect();
                let probes = &probes;
                handles.push(
                    scope.spawn(move || probes.run(|| group.into_iter().map(|t| t()).collect())),
                );
            }
            for h in handles {
                match h.join() {
                    Ok(v) => parts.push(v),
                    Err(p) => std::panic::resume_unwind(p),
                }
            }
        });
        parts.into_iter().flatten().collect()
    }
}

/// Error returned by [`WorkerPool::try_submit`] when the admission queue
/// is full (or the pool is shutting down): the caller must shed the work
/// — explicit backpressure instead of unbounded queue growth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueFull;

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker pool admission queue is full")
    }
}

impl std::error::Error for QueueFull {}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    queue: crate::sync::Mutex<std::collections::VecDeque<Job>>,
    jobs_cv: crate::sync::Condvar,
    capacity: usize,
    shutting_down: std::sync::atomic::AtomicBool,
}

/// A persistent bounded worker pool: long-lived service loops (the serve
/// subsystem) need workers that outlive any one call, unlike the scoped
/// fork-join loops [`Threads`] covers.
///
/// The admission queue is bounded at construction; [`WorkerPool::try_submit`]
/// refuses work with [`QueueFull`] instead of queueing without limit, so
/// memory stays bounded and callers can surface backpressure (HTTP 503).
/// [`WorkerPool::shutdown`] is graceful: already-admitted jobs are drained
/// before the workers exit. A panicking job is contained to that job — the
/// worker survives and keeps serving the queue.
pub struct WorkerPool {
    shared: std::sync::Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads.workers()` workers sharing one admission queue of
    /// at most `queue_capacity` waiting jobs (clamped to ≥ 1).
    pub fn new(threads: Threads, queue_capacity: usize) -> WorkerPool {
        let shared = std::sync::Arc::new(PoolShared {
            queue: crate::sync::Mutex::new(std::collections::VecDeque::new()),
            jobs_cv: crate::sync::Condvar::new(),
            capacity: queue_capacity.max(1),
            shutting_down: std::sync::atomic::AtomicBool::new(false),
        });
        let workers = (0..threads.workers())
            .map(|_| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::spawn(move || loop {
                    let job = {
                        let mut q = shared.queue.lock();
                        loop {
                            if let Some(j) = q.pop_front() {
                                break Some(j);
                            }
                            if shared.shutting_down.load(std::sync::atomic::Ordering::SeqCst) {
                                break None;
                            }
                            q = shared.jobs_cv.wait(q);
                        }
                    };
                    match job {
                        Some(j) => {
                            // Contain job panics to the job: the pool keeps
                            // its full worker complement either way.
                            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(j));
                        }
                        None => return,
                    }
                })
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Admits `job` if the queue has room, waking one worker. Fails with
    /// [`QueueFull`] when `queue_capacity` jobs are already waiting or the
    /// pool is shutting down; the job is returned to the caller by value
    /// semantics (it was never run).
    pub fn try_submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), QueueFull> {
        if self.shared.shutting_down.load(std::sync::atomic::Ordering::SeqCst) {
            return Err(QueueFull);
        }
        {
            let mut q = self.shared.queue.lock();
            if q.len() >= self.shared.capacity {
                return Err(QueueFull);
            }
            q.push_back(Box::new(job));
        }
        self.shared.jobs_cv.notify_one();
        Ok(())
    }

    /// Jobs currently waiting for a worker (excludes jobs being run).
    pub fn queue_len(&self) -> usize {
        self.shared.queue.lock().len()
    }

    /// The admission-queue bound.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// A cheap cloneable gauge over this pool's admission queue, for
    /// observability from threads that do not own the pool.
    pub fn queue_gauge(&self) -> QueueGauge {
        QueueGauge { shared: std::sync::Arc::clone(&self.shared) }
    }

    /// Graceful shutdown: refuses new admissions, lets the workers drain
    /// every already-admitted job, then joins them.
    pub fn shutdown(self) {
        // Set the flag under the queue lock: a worker reads it under that
        // lock and then waits, so a flag set between its read and its wait
        // would miss the notification and the join below would hang.
        {
            let _queue = self.shared.queue.lock();
            self.shared.shutting_down.store(true, std::sync::atomic::Ordering::SeqCst);
        }
        self.shared.jobs_cv.notify_all();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// Read-only view of a [`WorkerPool`]'s admission queue (see
/// [`WorkerPool::queue_gauge`]); outlives the pool harmlessly — after
/// shutdown it reads an empty queue.
#[derive(Clone)]
pub struct QueueGauge {
    shared: std::sync::Arc<PoolShared>,
}

impl QueueGauge {
    /// Jobs currently waiting for a worker.
    pub fn len(&self) -> usize {
        self.shared.queue.lock().len()
    }

    /// True when no jobs are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The admission-queue bound.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential_map() {
        let items: Vec<usize> = (0..1000).collect();
        let par = Threads::new(4).par_map(&items, |&x| x * x + 1);
        let seq: Vec<usize> = items.iter().map(|&x| x * x + 1).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn par_map_preserves_order_for_uneven_splits() {
        for n in [0usize, 1, 2, 3, 7, 63, 64, 65, 1001] {
            let items: Vec<usize> = (0..n).collect();
            let out = Threads::new(3).par_map(&items, |&x| x);
            assert_eq!(out, items, "n={n}");
        }
    }

    #[test]
    fn par_chunks_mut_equals_sequential_chunked_loop() {
        let mut par_data: Vec<f64> = (0..257).map(|i| i as f64).collect();
        let mut seq_data = par_data.clone();
        let update = |idx: usize, c: &mut [f64]| {
            for v in c.iter_mut() {
                *v = *v * 2.0 + idx as f64;
            }
        };
        Threads::new(4).par_chunks_mut(&mut par_data, 16, update);
        for (i, c) in seq_data.chunks_mut(16).enumerate() {
            update(i, c);
        }
        assert_eq!(par_data, seq_data);
    }

    #[test]
    fn par_map_propagates_panics() {
        let items = vec![1, 2, 3, 4];
        let r = std::panic::catch_unwind(|| {
            Threads::new(4).par_tasks(
                items
                    .iter()
                    .map(|&x| move || if x == 3 { panic!("worker died") } else { x })
                    .collect::<Vec<_>>(),
            )
        });
        assert!(r.is_err());
        let r = std::panic::catch_unwind(|| {
            Threads::new(4).par_map(&(0..100).collect::<Vec<i32>>(), |&x| {
                if x == 63 {
                    panic!("worker died");
                }
                x
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn empty_input_is_fine() {
        let empty: Vec<u8> = Vec::new();
        assert!(Threads::new(4).par_map(&empty, |&x| x).is_empty());
        let mut none: Vec<u8> = Vec::new();
        Threads::new(4).par_chunks_mut(&mut none, 4, |_, _| panic!("no chunks expected"));
        let no_tasks: Vec<Box<dyn FnOnce() -> u8 + Send>> = Vec::new();
        assert!(Threads::new(4).par_tasks(no_tasks).is_empty());
    }

    #[test]
    fn threads_config_resolution() {
        assert_eq!(Threads::new(0).workers(), 1);
        assert!(Threads::serial().is_serial());
        assert_eq!(Threads::from_config(3).workers(), 3);
        // 0 = auto: whatever the env gives, it is at least one worker.
        assert!(Threads::from_config(0).workers() >= 1);
    }

    #[test]
    fn small_inputs_run_inline() {
        // Below the cutoff par_map must not spawn: a closure capturing a
        // !Sync-free counter via &Cell would not compile if sent across
        // threads, so instead verify results + rely on the code path.
        let items: Vec<usize> = (0..SERIAL_CUTOFF - 1).collect();
        let out = Threads::new(8).par_map(&items, |&x| x + 1);
        let seq: Vec<usize> = items.iter().map(|&x| x + 1).collect();
        assert_eq!(out, seq);
    }

    #[test]
    fn clamp_for_selects_serial_below_the_cutoff() {
        let t = Threads::new(4);
        // Not enough work for even two workers: serial.
        assert!(t.clamp_for(4096, 32 * 1024).is_serial());
        assert!(t.clamp_for(0, 1024).is_serial());
        // Enough for two but not four.
        assert_eq!(t.clamp_for(80_000, 32 * 1024).workers(), 2);
        // Plenty of work: the full worker count survives.
        assert_eq!(t.clamp_for(1 << 20, 32 * 1024).workers(), 4);
        // min 0 behaves as min 1 (no division by zero).
        assert_eq!(t.clamp_for(8, 0).workers(), 4);
    }

    #[test]
    fn par_tasks_matches_sequential_order() {
        for n in [0usize, 1, 2, 3, 5, 8, 17] {
            for w in [1usize, 2, 4, 7] {
                let tasks: Vec<_> = (0..n).map(|i| move || i * 10).collect();
                let out = Threads::new(w).par_tasks(tasks);
                let seq: Vec<usize> = (0..n).map(|i| i * 10).collect();
                assert_eq!(out, seq, "n={n} w={w}");
            }
        }
    }

    #[test]
    fn worker_pool_runs_submitted_jobs() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let pool = WorkerPool::new(Threads::new(3), 64);
        assert_eq!(pool.workers(), 3);
        assert_eq!(pool.capacity(), 64);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..40 {
            let done = Arc::clone(&done);
            pool.try_submit(move || {
                done.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 40);
    }

    #[test]
    fn worker_pool_enforces_queue_capacity() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        use std::sync::Barrier;
        // One worker, blocked on a barrier, so queued jobs stay queued.
        let pool = WorkerPool::new(Threads::new(1), 2);
        let gate = Arc::new(Barrier::new(2));
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let gate = Arc::clone(&gate);
            let ran = Arc::clone(&ran);
            pool.try_submit(move || {
                gate.wait();
                ran.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        // Wait until the worker has picked up the blocking job.
        while pool.queue_len() > 0 {
            std::thread::yield_now();
        }
        for _ in 0..2 {
            let ran = Arc::clone(&ran);
            pool.try_submit(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        // Queue is now at capacity: the next admission must be refused.
        let ran2 = Arc::clone(&ran);
        assert_eq!(
            pool.try_submit(move || {
                ran2.fetch_add(1, Ordering::SeqCst);
            }),
            Err(QueueFull)
        );
        gate.wait();
        // Shutdown drains the two admitted jobs; the rejected one never ran.
        pool.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn worker_pool_survives_panicking_jobs() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let pool = WorkerPool::new(Threads::new(1), 16);
        let done = Arc::new(AtomicUsize::new(0));
        pool.try_submit(|| panic!("job panic must not kill the worker")).unwrap();
        {
            let done = Arc::clone(&done);
            pool.try_submit(move || {
                done.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 1, "worker must outlive a panicking job");
    }

    #[test]
    fn worker_pool_shutdown_drains_queued_jobs() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let pool = WorkerPool::new(Threads::new(2), 128);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let done = Arc::clone(&done);
            pool.try_submit(move || {
                done.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        // Shut down immediately: every admitted job must still run.
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn shutdown_wakes_a_worker_that_is_about_to_wait() {
        // Shutting down a fresh pool races each idle worker between its
        // flag check and its wait; with the flag set outside the queue
        // lock, a few thousand rounds reliably left a worker asleep and
        // the join hung. Bounded, so a regression fails instead of hangs.
        let (tx, rx) = std::sync::mpsc::channel();
        let rounds = std::thread::spawn(move || {
            for _ in 0..20_000 {
                WorkerPool::new(Threads::new(2), 4).shutdown();
            }
            let _ = tx.send(());
        });
        let done = rx.recv_timeout(std::time::Duration::from_secs(60));
        assert!(done.is_ok(), "a pool shutdown never returned");
        rounds.join().unwrap();
    }
}
