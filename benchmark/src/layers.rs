//! The per-layer ledger's direct-call half: each layer measured from
//! outside, by timing calls into its crate's public functions. One function
//! per layer returns that layer's `(metric, value)` rows; the traced run of
//! a workload calls the functions of the layers it exercises.
//!
//! Every timing is the median of [`SAMPLES`] samples, each batched to at
//! least [`MIN_SAMPLE_NS`] so timer resolution and a stray interrupt do not
//! decide the figure. Each metric is one root span; each sample a child.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use hec_arch::{Platform, PlatformId};
use hec_core::json::Json;
use hec_core::pool::{Threads, WorkerPool};
use hec_serve::cache::ShardedLru;
use hec_serve::engine::{AppId, Cell};
use hec_serve::request::Point;
use hec_serve::server::{point_response_body, sweep_response_body};
use kernels::Complex64;

use crate::gen::{eval_target, fresh_points, hot_points};
use crate::host::{self, TriadArrays};
use crate::stats::median;
use crate::trace::Tracer;

/// Timed samples per metric.
pub const SAMPLES: usize = 11;
/// Minimum wall time of one sample, ns.
pub const MIN_SAMPLE_NS: u64 = 200_000;

/// `(metric name, value)` rows of one layer.
pub type Rows = Vec<(&'static str, f64)>;

/// Median nanoseconds per call of `f`: three untimed calls, a batch size
/// grown until one sample spans [`MIN_SAMPLE_NS`], then [`SAMPLES`] samples.
pub fn time_ns(tr: &mut Tracer, name: &'static str, mut f: impl FnMut()) -> f64 {
    let root = tr.begin(name, 0);
    for _ in 0..3 {
        f();
    }
    let mut batch = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        let ns = t.elapsed().as_nanos() as u64;
        if ns >= MIN_SAMPLE_NS || batch >= 1 << 20 {
            break;
        }
        batch = batch.saturating_mul((MIN_SAMPLE_NS / ns.max(1) + 1).max(2) as usize).min(1 << 20);
    }
    let mut per_call = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let sample = tr.begin("sample", root);
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(t.elapsed().as_nanos() as f64 / batch as f64);
        tr.end(sample);
    }
    tr.end(root);
    median(&per_call)
}

// ---------------------------------------------------------------------
// host
// ---------------------------------------------------------------------

/// What the host row measured, kept for the `*_frac` denominators.
pub struct HostRef {
    /// Single-thread FMA peak, Gflop/s.
    pub fma_gflops: f64,
    /// Single-thread triad bandwidth of the benchmark's own loop, GB/s.
    pub triad_gbs: f64,
    /// The arrays, for `kernels.triad_gbs` to stream.
    pub arrays: TriadArrays,
}

/// The host reference row (everything but `host.shifted`/`host.pinned`,
/// which the caller knows) and a note stating the sizes behind it.
pub fn host_row(tr: &mut Tracer, drift: &host::Drift) -> (Rows, HostRef, String) {
    let fma = tr.scope("host.fma", 0, host::fma_gflops);
    let mut arrays = tr.scope("host.triad_alloc", 0, TriadArrays::allocate);
    let triad = tr.scope("host.triad", 0, || arrays.gbs(host::own_triad));
    let rows = vec![
        ("host.nproc", crate::sys::nproc() as f64),
        ("host.fma_gflops", fma),
        ("host.triad_gbs", triad),
        ("host.wake_us", drift.wake_us),
        ("host.spin_ms", drift.spin_ms),
        ("host.llc_mib", arrays.llc_bytes as f64 / (1 << 20) as f64),
        ("host.triad_mib", arrays.array_bytes() as f64 / (1 << 20) as f64),
    ];
    let note = format!(
        "host: kernel {}, {} CPUs; triad arrays {} MiB each vs 4 x LLC = {} MiB (cap bit: {}); \
         host.* and kernels.triad_* are single-thread figures",
        crate::sys::kernel_release(),
        crate::sys::nproc(),
        arrays.array_bytes() >> 20,
        (4 * arrays.llc_bytes) >> 20,
        arrays.capped
    );
    (rows, HostRef { fma_gflops: fma, triad_gbs: triad, arrays }, note)
}

// ---------------------------------------------------------------------
// hec-core
// ---------------------------------------------------------------------

/// `hec-core`: JSON emit/parse of a GTC sweep document, worker-pool
/// hand-off latency, an empty fork-join, and what an open probe capture
/// costs the LBMHD collide.
pub fn core(tr: &mut Tracer) -> Rows {
    let doc = hec_serve::server::sweep_doc(AppId::Gtc, |p| p.eval());
    let text = doc.emit_pretty();
    let emit = time_ns(tr, "core.json_emit", || {
        black_box(black_box(&doc).emit_pretty());
    });
    let parse = time_ns(tr, "core.json_parse", || {
        black_box(Json::parse(black_box(&text)).expect("own output parses"));
    });

    // try_submit → job start, one job in flight, 300 hand-offs.
    let root = tr.begin("core.pool_submit", 0);
    let pool = WorkerPool::new(Threads::new(2), 256);
    let (tx, rx) = std::sync::mpsc::channel::<Instant>();
    let mut waits = Vec::with_capacity(300);
    for _ in 0..300 {
        let tx = tx.clone();
        let t0 = Instant::now();
        pool.try_submit(move || {
            let _ = tx.send(Instant::now());
        })
        .expect("an empty 256-slot queue admits");
        let started = rx.recv().expect("the job ran");
        waits.push(started.saturating_duration_since(t0).as_nanos() as f64);
    }
    pool.shutdown();
    tr.end(root);

    let threads = Threads::new(2);
    let mut data = vec![0u8; 1024];
    let forkjoin = time_ns(tr, "core.forkjoin", || {
        threads.par_chunks_mut(black_box(&mut data), 512, |_, _| {});
    });

    let mut src = collide_block(24);
    let mut dst = lbmhd::state::Block::zeros(24, 24, 24);
    let serial = Threads::serial();
    let outside = time_ns(tr, "core.probe_off", || {
        lbmhd::collide::step_with(&serial, black_box(&src), &mut dst, 1.6, 1.2);
    });
    let (inside, _) = hec_core::probe::capture(|| {
        time_ns(tr, "core.probe_on", || {
            lbmhd::collide::step_with(&serial, black_box(&src), &mut dst, 1.6, 1.2);
        })
    });
    std::mem::swap(&mut src, &mut dst);

    vec![
        ("core.json_emit_us", emit / 1e3),
        ("core.json_parse_us", parse / 1e3),
        ("core.pool_submit_us", median(&waits) / 1e3),
        ("core.forkjoin_us", forkjoin / 1e3),
        ("core.probe_capture_ratio", inside / outside),
    ]
}

fn collide_block(n: usize) -> lbmhd::state::Block {
    use lbmhd::state::{set_equilibrium, Block, Moments};
    let mut b = Block::zeros(n, n, n);
    set_equilibrium(&mut b, |i, j, k| Moments {
        rho: 1.0 + 0.01 * ((i + j + k) as f64).sin(),
        mom: [0.01, -0.005, 0.002],
        b: [0.02, 0.01, -0.01],
    });
    b
}

// ---------------------------------------------------------------------
// kernels
// ---------------------------------------------------------------------

/// `kernels`: triad over the host row's arrays, GEMMs at n = 256, the FFT
/// lengths the apps use (radix-2 1024, Bluestein 576, 32³), and a CG solve.
pub fn kernels(tr: &mut Tracer, host: &mut HostRef) -> Rows {
    use ::kernels::blas::{dgemm, dgemm_flops, zgemm, zgemm_flops, Trans};
    use ::kernels::fft::{Direction, FftPlan};
    use ::kernels::fft3d::{Fft3Plan, Grid3};

    let triad = tr.scope("kernels.triad", 0, || host.arrays.gbs(::kernels::stream::triad));

    let n = 256;
    let (a, b) = (vec![1.5f64; n * n], vec![0.5f64; n * n]);
    let mut c = vec![0.0f64; n * n];
    let d_ns = time_ns(tr, "kernels.dgemm", || {
        dgemm(n, n, n, 1.0, &a, &b, 0.0, black_box(&mut c));
    });
    let dgemm_gflops = dgemm_flops(n, n, n) / d_ns;
    let (az, bz) = (vec![Complex64::new(1.0, 0.5); n * n], vec![Complex64::new(0.5, -0.25); n * n]);
    let mut cz = vec![Complex64::ZERO; n * n];
    let z_ns = time_ns(tr, "kernels.zgemm", || {
        zgemm(Trans::None, n, n, n, Complex64::ONE, &az, &bz, Complex64::ZERO, black_box(&mut cz));
    });

    let mut fft_us = [0.0; 2];
    for (slot, len, name) in [(0, 1024, "kernels.fft1024"), (1, 576, "kernels.fft576")] {
        let plan = FftPlan::new(len);
        let mut line: Vec<Complex64> =
            (0..len).map(|i| Complex64::new((i as f64).sin(), 0.1)).collect();
        fft_us[slot] = time_ns(tr, name, || {
            plan.execute(black_box(&mut line), Direction::Forward);
        }) / 1e3;
    }
    let plan3 = Fft3Plan::new(32, 32, 32);
    let mut grid = Grid3::zeros(32, 32, 32);
    for (i, v) in grid.data.iter_mut().enumerate() {
        *v = Complex64::new((i as f64 * 0.01).sin(), 0.0);
    }
    let fft3 = time_ns(tr, "kernels.fft3d32", || {
        plan3.execute(black_box(&mut grid), Direction::Forward);
    });

    // CG on GTC's screened-Poisson operator at the timed grid size.
    let pgrid = poloidal_grid();
    let rhs: Vec<f64> = (0..pgrid.len()).map(|i| (i as f64 * 0.37).sin()).collect();
    let cg = time_ns(tr, "kernels.cg", || {
        let mut x = vec![0.0; rhs.len()];
        black_box(::kernels::solve::conjugate_gradient(
            |v, out| gtc::poisson::apply_operator(&pgrid, v, out),
            &rhs,
            &mut x,
            1e-8,
            200,
        ));
    });

    vec![
        ("kernels.triad_gbs", triad),
        ("kernels.triad_frac", triad / host.triad_gbs),
        ("kernels.dgemm_gflops", dgemm_gflops),
        ("kernels.dgemm_frac", dgemm_gflops / host.fma_gflops),
        ("kernels.zgemm_gflops", zgemm_flops(n, n, n) / z_ns),
        ("kernels.fft1024_us", fft_us[0]),
        ("kernels.fft576_us", fft_us[1]),
        ("kernels.fft3d32_ms", fft3 / 1e6),
        ("kernels.cg_us", cg / 1e3),
    ]
}

fn poloidal_grid() -> gtc::geometry::PoloidalGrid {
    let (mpsi, mtheta, _) = crate::spec::GTC_GRID;
    gtc::geometry::PoloidalGrid { mpsi, mtheta, r_inner: 0.1, r_outer: 0.9 }
}

// ---------------------------------------------------------------------
// msim
// ---------------------------------------------------------------------

/// `msim`: what it costs to start two ranks, bounce 8 bytes, move 1 MiB and
/// allreduce 1 024 doubles.
pub fn msim(tr: &mut Tracer) -> Rows {
    let spawn = time_ns(tr, "msim.spawn", || {
        black_box(::msim::run(2, |c| c.rank()).expect("two idle ranks"));
    });
    // Inside one run, rank 0 times `rounds` round trips / sends / reduces.
    let root = tr.begin("msim.exchange", 0);
    let timed = ::msim::run(2, |c| {
        let peer = 1 - c.rank();
        let mut per_round = |rounds: usize, mut body: Box<dyn FnMut(&mut ::msim::Comm)>| {
            let mut samples = Vec::with_capacity(SAMPLES);
            for _ in 0..SAMPLES + 1 {
                c.barrier();
                let t = Instant::now();
                for _ in 0..rounds {
                    body(c);
                }
                samples.push(t.elapsed().as_nanos() as f64 / rounds as f64);
            }
            median(&samples[1..])
        };
        let small = [1.0f64];
        let pingpong = per_round(
            200,
            Box::new(move |c| {
                if c.rank() == 0 {
                    c.send_f64(peer, 1, &small);
                    black_box(c.recv_f64(peer, 2));
                } else {
                    black_box(c.recv_f64(peer, 1));
                    c.send_f64(peer, 2, &small);
                }
            }),
        );
        let big = vec![0.5f64; (1 << 20) / 8];
        let stream = per_round(
            8,
            Box::new(move |c| {
                black_box(c.sendrecv_f64(peer, peer, 3, &big));
            }),
        );
        let allreduce = per_round(
            100,
            Box::new(|c| {
                let mut v = vec![1.0f64; 1024];
                c.allreduce_f64(::msim::ReduceOp::Sum, &mut v);
                black_box(v);
            }),
        );
        (pingpong, stream, allreduce)
    })
    .expect("two ranks exchanging");
    tr.end(root);
    let (pingpong, stream, allreduce) = timed[0];
    vec![
        ("msim.spawn_us", spawn / 1e3),
        ("msim.pingpong_us", pingpong / 1e3),
        // Each rank sends and receives 1 MiB per exchange.
        ("msim.bw_gbs", (1u64 << 20) as f64 / stream),
        ("msim.allreduce_us", allreduce / 1e3),
    ]
}

// ---------------------------------------------------------------------
// The four apps' hot phases (direct calls, one thread)
// ---------------------------------------------------------------------

/// `lbmhd`: the fused collide-stream at 32³, as lattice updates per second
/// and as computed bytes per second over the host's triad bandwidth.
pub fn lbmhd_phases(tr: &mut Tracer, host: &HostRef) -> Rows {
    let n = 32;
    let src = collide_block(n);
    let mut dst = lbmhd::state::Block::zeros(n, n, n);
    let serial = Threads::serial();
    let ns = time_ns(tr, "lbmhd.collide", || {
        lbmhd::collide::step_with(&serial, black_box(&src), &mut dst, 1.6, 1.2);
    });
    let points = (n * n * n) as f64;
    // Computed, not measured, traffic: every distribution (Q scalar + 3Q
    // vector lanes) read once and written once per update.
    let bytes_per_point = (4 * lbmhd::lattice::Q * 2 * 8) as f64;
    vec![
        ("lbmhd.collide_mlups", points / ns * 1e3),
        ("lbmhd.collide_frac", points * bytes_per_point / ns / host.triad_gbs),
    ]
}

/// `gtc`: charge deposit, gather+push and one plane's Poisson solve at the
/// timed grid with 100 k markers.
pub fn gtc_phases(tr: &mut Tracer) -> Rows {
    use gtc::deposit::deposit;
    use gtc::particles::load_uniform;
    use gtc::push::{gather, push};
    let grid = poloidal_grid();
    let markers = 100_000;
    let mut parts = load_uniform(markers, 0.15, 0.85, 0.0, 1.0, 7);
    let mut charge: Vec<Vec<f64>> = (0..=2).map(|_| vec![0.0; grid.len()]).collect();
    let deposit_ns = time_ns(tr, "gtc.deposit", || {
        for plane in charge.iter_mut() {
            plane.iter_mut().for_each(|v| *v = 0.0);
        }
        black_box(deposit(&grid, black_box(&parts), &mut charge, 0.0, 0.5));
    });
    let e: Vec<Vec<f64>> = (0..=2).map(|_| vec![0.1; grid.len()]).collect();
    let push_ns = time_ns(tr, "gtc.gatherpush", || {
        let f = gather(&grid, &parts, &e, &e, 0.0, 0.5);
        black_box(push(&grid, black_box(&mut parts), &f, 1e-4));
    });
    let mut phi = vec![0.0; grid.len()];
    let poisson_ns = time_ns(tr, "gtc.poisson", || {
        phi.iter_mut().for_each(|v| *v = 0.0);
        black_box(gtc::poisson::solve_plane(&grid, &charge[0], &mut phi, 1e-8));
    });
    vec![
        ("gtc.deposit_mps", markers as f64 / deposit_ns * 1e3),
        ("gtc.gatherpush_mps", markers as f64 / push_ns * 1e3),
        ("gtc.poisson_ms", poisson_ns / 1e6),
    ]
}

/// `fvcam`: one level's advection, its polar filter and one column's
/// vertical remap on the timed mesh.
pub fn fvcam_phases(tr: &mut Tracer) -> Rows {
    use fvcam::grid::{LevelBlock, SphereGrid};
    let (nlon, nlat, nlev) = crate::spec::FVCAM_MESH;
    let grid = SphereGrid::new(nlon, nlat, nlev);
    let mut q = LevelBlock::zeros(nlon, nlat, 2);
    let mut cx = LevelBlock::zeros(nlon, nlat, 2);
    let cy = LevelBlock::zeros(nlon, nlat, 2);
    for j in 0..nlat {
        for i in 0..nlon {
            *q.get_mut(j as isize, i) = ((i + j) as f64 * 0.1).sin();
            *cx.get_mut(j as isize, i) = 0.3;
        }
    }
    let advect = time_ns(tr, "fvcam.advect", || {
        black_box(fvcam::advect::advect_level(&grid, black_box(&mut q), &cx, &cy, 0));
    });
    let mut filter = fvcam::polar::PolarFilter::new(nlon);
    let polar = time_ns(tr, "fvcam.polar", || {
        black_box(filter.apply(&grid, black_box(&mut q), 0));
    });
    let edges: Vec<f64> = (0..=nlev).map(|k| k as f64 / nlev as f64).collect();
    let drift: Vec<f64> = (0..=nlev).map(|k| 0.01 * (k as f64).sin()).collect();
    let moved = fvcam::vertical::drift_edges(&edges, &drift);
    let column: Vec<f64> = (0..nlev).map(|k| 1.0 + 0.1 * k as f64).collect();
    let remap = time_ns(tr, "fvcam.remap", || {
        black_box(fvcam::vertical::remap_column(&moved, black_box(&column), &edges));
    });
    vec![
        ("fvcam.advect_us", advect / 1e3),
        ("fvcam.polar_us", polar / 1e3),
        ("fvcam.remap_us", remap / 1e3),
    ]
}

/// `paratec`: a forward+inverse distributed FFT of one band, one H apply
/// and one orthonormalization of the timed band block, on one rank.
pub fn paratec_phases(tr: &mut Tracer) -> Rows {
    use paratec::{basis::GSphere, fftdist::DistFft, hamiltonian::Hamiltonian, solver};
    let (n, ecut, nbands, nproj) = crate::spec::PARATEC;
    let root = tr.begin("paratec.phases", 0);
    let rows = ::msim::run(1, |c| {
        // A private, disabled tracer: the rank closure cannot borrow the
        // caller's; the root span above covers the whole block.
        let mut quiet = Tracer::new(false);
        let sphere = GSphere::build(n, n, n, ecut);
        let fft = DistFft::with_threads(sphere, 0, 1, Threads::serial());
        let mut h = Hamiltonian::model(fft, nproj, 1.5);
        let ng = h.ng();
        let mut psi = solver::initial_guess(ng, nbands, 0);
        solver::orthonormalize(c, &mut psi, nbands, ng);
        let band = psi[..ng].to_vec();
        let pair = time_ns(&mut quiet, "paratec.fft_pair", || {
            let real = h.fft.to_real_space(c, black_box(&band));
            black_box(h.fft.to_fourier_space(c, &real));
        });
        let apply = time_ns(&mut quiet, "paratec.happly", || {
            black_box(h.apply(c, black_box(&psi), nbands));
        });
        let ortho = time_ns(&mut quiet, "paratec.ortho", || {
            solver::orthonormalize(c, black_box(&mut psi), nbands, ng);
        });
        vec![
            ("paratec.fft_pair_ms", pair / 1e6),
            ("paratec.happly_ms", apply / 1e6),
            ("paratec.ortho_ms", ortho / 1e6),
        ]
    })
    .expect("one paratec rank");
    tr.end(root);
    rows.into_iter().next().expect("rank 0")
}

// ---------------------------------------------------------------------
// hec-arch / hec-net / app model.rs
// ---------------------------------------------------------------------

/// First calls of the four apps' calibration captures, ms: cold only in a
/// process that has not evaluated a point yet, so the traced run times it in
/// a fresh one ([`crate::child::cold_calibration_ms`]).
pub fn model_calibration_ms() -> f64 {
    let t = Instant::now();
    black_box(fvcam::model::calibration_capture());
    black_box(gtc::model::calibration_capture());
    black_box(lbmhd::model::calibration_capture());
    black_box(paratec::model::calibration());
    t.elapsed().as_secs_f64() * 1e3
}

/// `hec-arch`, `hec-net` and each app's `model.rs`: one prediction, one
/// network cost, one `measured_workload` per app (calibration already
/// warm).
pub fn arch_model(tr: &mut Tracer, calib_ms: f64) -> Rows {
    let es = Platform::get(PlatformId::Es);
    let w = gtc::model::measured_workload(256);
    let predict = time_ns(tr, "arch.predict", || {
        black_box(hec_arch::predict(black_box(&es), black_box(&w)));
    });
    let net = hec_net::NetworkModel::new(es.net, 256);
    let cost = time_ns(tr, "net.cost", || {
        black_box(net.pt2pt_secs(black_box(3), black_box(200), black_box(65_536)));
    });
    let fv = time_ns(tr, "model.fvcam", || {
        black_box(fvcam::model::measured_workload(fvcam::model::FvConfig {
            procs: black_box(256),
            pz: 4,
            threads: 1,
        }));
    });
    let gt = time_ns(tr, "model.gtc", || {
        black_box(gtc::model::measured_workload(black_box(256)));
    });
    let lb = time_ns(tr, "model.lbmhd", || {
        black_box(lbmhd::model::measured_workload(black_box(512), black_box(256)));
    });
    let pa = time_ns(tr, "model.paratec", || {
        black_box(paratec::model::measured_workload(black_box(256)));
    });
    vec![
        ("arch.predict_us", predict / 1e3),
        ("net.cost_ns", cost),
        ("model.fvcam_us", fv / 1e3),
        ("model.gtc_us", gt / 1e3),
        ("model.lbmhd_us", lb / 1e3),
        ("model.paratec_us", pa / 1e3),
        ("model.calib_ms", calib_ms),
    ]
}

// ---------------------------------------------------------------------
// hec-serve, direct calls
// ---------------------------------------------------------------------

/// What the hit path costs inside functions, for `serve.infn_share`.
pub struct ServeDirect {
    /// The rows.
    pub rows: Rows,
    /// parse + canonicalize + cache get + body + emit of one hit, ns.
    pub hit_path_ns: f64,
}

/// `hec-serve`'s public functions one at a time: the read side (parse,
/// canonicalize, cache get, render, frame) and the write side (evaluate,
/// batch, cache put with eviction, sweep render).
pub fn serve_direct(tr: &mut Tracer, seed: u64) -> ServeDirect {
    let hot = hot_points(seed);
    let p = hot[0];
    let wire = format!("GET {} HTTP/1.1\r\nHost: bench\r\n\r\n", eval_target(&p)).into_bytes();
    let query = eval_target(&p).split_once('?').expect("a query").1.to_string();
    let cell = p.eval();
    let body = point_response_body(&p, cell);

    let parse = time_ns(tr, "serve.parse", || {
        black_box(hec_serve::reactor::parse_request(black_box(&wire)).is_ok());
    });
    let canon = time_ns(tr, "serve.canon", || {
        black_box(Point::from_query(black_box(&query)).is_ok());
    });
    let cache = ShardedLru::new(4096);
    for h in &hot {
        cache.put(h.canonical_key(), h.eval());
    }
    let get = time_ns(tr, "serve.cache_get", || {
        black_box(cache.get(&black_box(&p).canonical_key()));
    });
    let point_body = time_ns(tr, "serve.point_body", || {
        black_box(point_response_body(black_box(&p), cell));
    });
    let emit = time_ns(tr, "serve.emit", || {
        black_box(hec_serve::reactor::emit_response(200, &[], black_box(&body), true));
    });

    // The write side walks fresh points the way `serve_miss` does.
    let fresh = fresh_points(seed, 4096);
    let cells: Vec<Option<Cell>> = fresh.iter().map(Point::eval).collect();
    let small = ShardedLru::new(64);
    let mut i = 0;
    let put = time_ns(tr, "serve.cache_put", || {
        small.put(fresh[i % fresh.len()].canonical_key(), cells[i % fresh.len()]);
        i += 1;
    });
    let mut i = 0;
    let eval = time_ns(tr, "serve.eval", || {
        black_box(fresh[i % fresh.len()].eval());
        i += 1;
    });
    let batcher = hec_serve::batch::Batcher::new();
    let mut i = 0;
    let batch = time_ns(tr, "serve.batch", || {
        black_box(batcher.eval(&fresh[i % fresh.len()]));
        i += 1;
    });
    let mut sweep_cells: HashMap<Point, Option<Cell>> = HashMap::new();
    let _ =
        sweep_response_body(AppId::Gtc, |pt| *sweep_cells.entry(*pt).or_insert_with(|| pt.eval()));
    let sweep = time_ns(tr, "serve.sweep_body", || {
        black_box(sweep_response_body(AppId::Gtc, |pt| sweep_cells[pt]));
    });

    ServeDirect {
        rows: vec![
            ("serve.parse_ns", parse),
            ("serve.canon_ns", canon),
            ("serve.cache_get_ns", get),
            ("serve.cache_put_ns", put),
            ("serve.eval_us", eval / 1e3),
            ("serve.batch_us", batch / 1e3),
            ("serve.point_body_ns", point_body),
            ("serve.sweep_body_us", sweep / 1e3),
            ("serve.emit_ns", emit),
        ],
        hit_path_ns: parse + canon + get + point_body + emit,
    }
}

// ---------------------------------------------------------------------
// hec-cluster, direct calls
// ---------------------------------------------------------------------

/// `hec-cluster`'s ring: hashing a key, finding its owners, diffing two
/// epochs.
pub fn cluster_direct(tr: &mut Tracer, seed: u64) -> Rows {
    use hec_cluster::ring::{owners_diff, stable_hash, Ring, DEFAULT_VNODES};
    let key = hot_points(seed)[0].canonical_key();
    let hash = time_ns(tr, "cluster.hash", || {
        black_box(stable_hash(black_box(key.as_bytes())));
    });
    let r = crate::spec::CLUSTER_REPLICATION;
    let ring3 = Ring::new(3, DEFAULT_VNODES, r);
    let owners = time_ns(tr, "cluster.owners", || {
        black_box(ring3.owners(black_box(&key)));
    });
    let ring4 = Ring::new(4, DEFAULT_VNODES, r);
    let diff = time_ns(tr, "cluster.owners_diff", || {
        black_box(owners_diff(&ring3, &ring4));
    });
    vec![
        ("cluster.hash_ns", hash),
        ("cluster.owners_ns", owners),
        ("cluster.owners_diff_us", diff / 1e3),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ns_batches_fast_calls_and_records_parent_linked_spans() {
        let mut tr = Tracer::new(true);
        let mut x = 1u64;
        let ns = time_ns(&mut tr, "t.fast", || {
            x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        });
        assert!(ns > 0.0 && ns < 1e5, "{ns} ns for one multiply-add");
        let spans = tr.spans();
        assert_eq!(spans.len(), 1 + SAMPLES);
        assert_eq!(spans[0].parent, 0);
        assert!(spans[1..].iter().all(|s| s.parent == spans[0].id && s.name == "sample"));
        for s in &spans[1..] {
            assert!(s.end_ns - s.start_ns >= MIN_SAMPLE_NS / 2, "a sample spans the window");
            assert!(s.start_ns >= spans[0].start_ns && s.end_ns <= spans[0].end_ns);
        }
    }

    #[test]
    fn cheap_layers_report_every_row_of_their_group_as_a_positive_number() {
        let mut tr = Tracer::new(false);
        let mut rows = cluster_direct(&mut tr, 36);
        rows.extend(serve_direct(&mut tr, 36).rows);
        rows.extend(fvcam_phases(&mut tr));
        for (name, v) in &rows {
            assert!(v.is_finite() && *v > 0.0, "{name} = {v}");
            assert!(crate::spec::PER_LAYER.iter().any(|m| m.0 == *name), "{name} is in the table");
        }
    }
}
