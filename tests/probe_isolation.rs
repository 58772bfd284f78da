//! `hec_core::probe` captures are scoped (ISSUE 13): a capture records
//! exactly its own call tree — including the `msim` rank threads and
//! `Threads` workers below it — whatever the rest of the process is
//! doing, and every `hec-serve` instance counts only its own requests.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use hec_core::json::Json;
use hec_core::pool::Threads;
use hec_core::probe::{self, Counters};
use hec_serve::client;
use hec_serve::server::{self, ServeConfig};
use kernels::complex::Complex64;

/// Instrumented work on this thread, on two `msim` rank threads and on
/// `Threads` workers under those ranks: collectives, point-to-point
/// messages, an FFT and a threaded triad.
fn instrumented_work(workers: usize) {
    msim::run(2, move |comm| {
        let peer = 1 - comm.rank();
        let echoed = comm.sendrecv_f64(peer, peer, 7, &[comm.rank() as f64; 16]);
        assert_eq!(echoed[0], peer as f64);
        assert_eq!(comm.allreduce_sum_scalar(1.0), 2.0);
        let n = 1 << 18;
        let (b, c) = (vec![1.0; n], vec![2.0; n]);
        let mut a = vec![0.0; n];
        kernels::stream::triad_with(&Threads::new(workers), &mut a, &b, &c, 3.0);
    })
    .unwrap();
    let mut signal = vec![Complex64::new(1.0, 0.0); 256];
    kernels::fft::fft(&mut signal);
}

/// ROADMAP's acceptance test: a capture taken while another thread loops
/// the same instrumented calls equals the capture taken alone.
#[test]
fn a_capture_beside_instrumented_noise_records_only_its_own_work() {
    let ((), alone) = probe::capture(|| instrumented_work(2));
    for phase in ["comm/pt2pt", "comm/collectives", "kernels/stream triad"] {
        assert!(!alone.get(phase).is_zero(), "the workload must exercise '{phase}'");
    }

    let noise_rounds = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let ((), beside) = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                instrumented_work(2);
                noise_rounds.fetch_add(1, Ordering::Release);
            }
        });
        // Whole noise rounds must start and finish inside the capture,
        // between two bursts of the capture's own work.
        let rounds_inside = |n: u64| {
            let seen = noise_rounds.load(Ordering::Acquire);
            while noise_rounds.load(Ordering::Acquire) < seen + n {
                std::thread::yield_now();
            }
        };
        let out = probe::capture(|| {
            rounds_inside(2);
            instrumented_work(2);
            rounds_inside(2);
        });
        stop.store(true, Ordering::Release);
        out
    });
    assert_eq!(beside.deterministic(), alone.deterministic());
}

/// The capture follows the work onto `msim` rank threads and `Threads`
/// workers — every `par_*` entry point — identically at 1, 2 and 4
/// workers; a thread spawned any other way stays outside it.
#[test]
fn counts_from_rank_threads_and_pool_workers_land_in_the_enclosing_capture() {
    let tick = |phase: &str| probe::count(phase, Counters { flops: 1, ..Default::default() });
    let run = |workers: usize| {
        let threads = Threads::new(workers);
        let ((), cap) = probe::capture(|| {
            msim::run(3, |_| {
                tick("rank");
                threads.par_map(&[0u8; 64], |_| tick("rank/par_map"));
            })
            .unwrap();
            threads.par_map(&[0u8; 100], |_| tick("par_map"));
            threads.par_chunks_mut(&mut [0u8; 80], 8, |_, _| tick("par_chunks_mut"));
            threads.par_tasks((0..6).map(|_| || tick("par_tasks")).collect());
            std::thread::scope(|s| {
                s.spawn(|| tick("stray thread"));
            });
        });
        cap
    };
    let reference = run(1);
    let flops = |phase: &str| reference.get(phase).flops;
    assert_eq!(
        [flops("rank"), flops("rank/par_map"), flops("par_map"), flops("par_chunks_mut")],
        [3, 3 * 64, 100, 10]
    );
    assert_eq!(flops("par_tasks"), 6);
    assert!(reference.get("stray thread").is_zero());
    for workers in [2, 4] {
        assert_eq!(run(workers).deterministic(), reference.deterministic(), "{workers} workers");
    }
}

/// A capture inside a capture (the apps' `OnceLock` calibration captures
/// run wherever they are first needed) keeps its events and returns the
/// thread to the outer capture afterwards.
#[test]
fn a_nested_capture_keeps_its_events_and_leaks_none_outward() {
    let one = |flops| Counters { flops, ..Default::default() };
    let (inner, outer) = probe::capture(|| {
        probe::count("outer", one(1));
        let ((), inner) = probe::capture(|| {
            probe::count("inner", one(10));
            instrumented_work(2);
        });
        probe::count("outer", one(2));
        inner
    });
    assert_eq!(inner.get("inner").flops, 10);
    assert!(!inner.get("comm/collectives").is_zero(), "rank threads follow the inner capture");
    assert!(inner.get("outer").is_zero());
    assert_eq!(outer.counters.keys().collect::<Vec<_>>(), ["outer"]);
    assert_eq!(outer.get("outer").flops, 3);
    assert!(!probe::enabled());
}

/// Two servers in one process: each `/metrics` reports its own traffic.
#[test]
fn in_process_replicas_count_only_their_own_requests() {
    let start = || {
        server::start(ServeConfig { port: 0, workers: 2, queue: 8, cache_capacity: 64 })
            .expect("bind ephemeral port")
    };
    let (a, b) = (start(), start());
    let url = |s: &server::Server, path: &str| format!("http://{}{path}", s.addr());
    for _ in 0..5 {
        let ok = client::http_get(&url(&a, "/eval?app=gtc&platform=es&procs=64")).unwrap();
        assert_eq!(ok.status, 200);
    }
    assert_eq!(client::http_get(&url(&a, "/eval?app=nope")).unwrap().status, 400);

    let metrics = |s: &server::Server| {
        let doc = Json::parse(&client::http_get(&url(s, "/metrics")).unwrap().body).unwrap();
        ["requests", "errors", "rejected"].map(|k| doc.get(k).unwrap().as_f64().unwrap())
    };
    // The `/metrics` read is itself a request, counted by the reactor
    // before it renders the document on the same thread.
    let [requests, errors, rejected] = metrics(&b);
    assert_eq!(requests, 1.0, "B served nothing but its own /metrics read");
    assert_eq!([errors, rejected], [0.0, 0.0]);
    let [requests, errors, rejected] = metrics(&a);
    assert_eq!(requests, 7.0, "A served 6 requests and this /metrics read");
    assert_eq!([errors, rejected], [1.0, 0.0]);
    for s in [a, b] {
        s.shutdown();
        s.join();
    }
}
