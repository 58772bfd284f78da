//! Cross-crate property tests: invariants that span the runtime, the
//! kernels, and the applications, checked over randomized inputs.
//!
//! Randomization uses `hec_core::Rng` with fixed seeds: every case is a
//! plain `for` loop over derived seeds, so failures are reproducible from
//! the printed seed without a shrinker.

use hec_core::pool::Threads;
use hec_core::Rng;
use kernels::blas::{dgemm, dgemm_reference};
use kernels::fft::{dft_reference, Direction, FftPlan};
use kernels::Complex64;

/// Number of randomized cases per property (matches the former proptest
/// configuration).
const CASES: u64 = 24;

fn random_signal(rng: &mut Rng, n: usize) -> Vec<Complex64> {
    (0..n).map(|_| Complex64::new(rng.range(-1.0, 1.0), rng.range(-1.0, 1.0))).collect()
}

/// FFT of arbitrary length (1–200) matches the O(n²) DFT.
#[test]
fn fft_matches_dft_for_arbitrary_lengths() {
    let mut rng = Rng::new(0xFF7_D0D);
    for case in 0..CASES {
        let n = 1 + rng.below(199) as usize;
        let input = random_signal(&mut rng, n);
        let mut out = input.clone();
        FftPlan::new(n).execute(&mut out, Direction::Forward);
        let want = dft_reference(&input, Direction::Forward);
        for (a, b) in out.iter().zip(&want) {
            assert!((*a - *b).abs() < 1e-7 * (n as f64), "case {case}, n={n}");
        }
    }
}

/// Inverse(Forward(x)) returns x for arbitrary lengths and signals.
#[test]
fn fft_round_trip_is_identity() {
    let mut rng = Rng::new(0x1D3A_77);
    for case in 0..CASES {
        let n = 1 + rng.below(300) as usize;
        let input = random_signal(&mut rng, n);
        let plan = FftPlan::new(n);
        let mut data = input.clone();
        plan.execute(&mut data, Direction::Forward);
        plan.execute(&mut data, Direction::Inverse);
        for (a, b) in data.iter().zip(&input) {
            assert!((*a - *b).abs() < 1e-9 * (n as f64), "case {case}, n={n}");
        }
    }
}

/// Parseval: the forward transform preserves Σ|x|² up to the 1/n
/// normalization convention (energy in frequency domain is n × energy in
/// time domain for an unnormalized forward FFT).
#[test]
fn fft_satisfies_parseval() {
    let mut rng = Rng::new(0x9A55E7A1);
    for case in 0..CASES {
        let n = 1 + rng.below(256) as usize;
        let input = random_signal(&mut rng, n);
        let mut out = input.clone();
        FftPlan::new(n).execute(&mut out, Direction::Forward);
        let time_energy: f64 = input.iter().map(|z| z.abs() * z.abs()).sum();
        let freq_energy: f64 = out.iter().map(|z| z.abs() * z.abs()).sum();
        let want = time_energy * n as f64;
        assert!(
            (freq_energy - want).abs() <= 1e-8 * want.max(1.0),
            "case {case}, n={n}: {freq_energy} vs {want}"
        );
    }
}

/// FFT(αx + βy) = α·FFT(x) + β·FFT(y).
#[test]
fn fft_is_linear() {
    let mut rng = Rng::new(0x11EA4);
    for case in 0..CASES {
        let n = 1 + rng.below(128) as usize;
        let plan = FftPlan::new(n);
        let x = random_signal(&mut rng, n);
        let y = random_signal(&mut rng, n);
        let alpha = Complex64::new(rng.range(-2.0, 2.0), rng.range(-2.0, 2.0));
        let beta = Complex64::new(rng.range(-2.0, 2.0), rng.range(-2.0, 2.0));
        let mut combined: Vec<Complex64> =
            x.iter().zip(&y).map(|(a, b)| alpha * *a + beta * *b).collect();
        plan.execute(&mut combined, Direction::Forward);
        let mut fx = x.clone();
        plan.execute(&mut fx, Direction::Forward);
        let mut fy = y.clone();
        plan.execute(&mut fy, Direction::Forward);
        for i in 0..n {
            let want = alpha * fx[i] + beta * fy[i];
            assert!((combined[i] - want).abs() < 1e-8 * (n as f64), "case {case}, n={n}, bin {i}");
        }
    }
}

/// The blocked/unrolled dgemm agrees with the naive triple loop for
/// arbitrary shapes, alpha/beta, and contents.
#[test]
fn dgemm_matches_reference() {
    let mut rng = Rng::new(0xD6E33);
    for case in 0..CASES {
        let m = 1 + rng.below(24) as usize;
        let n = 1 + rng.below(24) as usize;
        let k = 1 + rng.below(24) as usize;
        let alpha = rng.range(-2.0, 2.0);
        let beta = if case % 3 == 0 { 0.0 } else { rng.range(-1.0, 1.0) };
        let a: Vec<f64> = (0..m * k).map(|_| rng.range(-1.0, 1.0)).collect();
        let b: Vec<f64> = (0..k * n).map(|_| rng.range(-1.0, 1.0)).collect();
        let c0: Vec<f64> = (0..m * n).map(|_| rng.range(-1.0, 1.0)).collect();
        let mut fast = c0.clone();
        let mut slow = c0.clone();
        dgemm(m, n, k, alpha, &a, &b, beta, &mut fast);
        dgemm_reference(m, n, k, alpha, &a, &b, beta, &mut slow);
        for (i, (x, y)) in fast.iter().zip(&slow).enumerate() {
            assert!(
                (x - y).abs() < 1e-11 * (k as f64),
                "case {case}, ({m}x{n}x{k}) element {i}: {x} vs {y}"
            );
        }
    }
}

/// Allreduce over any rank count and payload equals the sequential fold.
#[test]
fn allreduce_equals_sequential_fold() {
    let mut rng = Rng::new(0xA11_4ED);
    for case in 0..CASES {
        let procs = 1 + rng.below(8) as usize;
        let len = 1 + rng.below(19) as usize;
        let seed = rng.below(100) as usize;
        let outs = msim::run(procs, move |comm| {
            let mut v: Vec<f64> =
                (0..len).map(|i| ((comm.rank() * 31 + i * 7 + seed) % 17) as f64).collect();
            comm.allreduce_f64(msim::ReduceOp::Sum, &mut v);
            v
        })
        .unwrap();
        let want: Vec<f64> = (0..len)
            .map(|i| (0..procs).map(|r| ((r * 31 + i * 7 + seed) % 17) as f64).sum())
            .collect();
        for out in outs {
            assert_eq!(out, want, "case {case}, procs={procs}, len={len}");
        }
    }
}

/// The vertical remap conserves column mass for arbitrary monotone
/// destination edges.
#[test]
fn remap_conserves_mass_for_random_edges() {
    let mut rng = Rng::new(0x4E3A_9);
    for case in 0..CASES {
        // Build a monotone destination edge set on [0, 1].
        let nsplit = 2 + rng.below(10) as usize;
        let splits: Vec<f64> = (0..nsplit).map(|_| rng.range(0.05, 1.0)).collect();
        let values: Vec<f64> = (0..6).map(|_| rng.range(-5.0, 5.0)).collect();
        let total: f64 = splits.iter().sum();
        let mut dst = vec![0.0];
        let mut acc = 0.0;
        for s in &splits {
            acc += s / total;
            dst.push(acc.min(1.0));
        }
        *dst.last_mut().unwrap() = 1.0;
        // Degenerate zero-width intervals are rejected by the kernel; keep
        // them strictly increasing.
        for k in 1..dst.len() {
            if dst[k] <= dst[k - 1] {
                dst[k] = dst[k - 1] + 1e-9;
            }
        }
        let n = dst.len() - 1;
        if dst[n] <= dst[n - 1] {
            continue;
        }

        let src: Vec<f64> = (0..=6).map(|k| k as f64 / 6.0).collect();
        let out = fvcam::vertical::remap_column(&src, &values, &dst);
        let m_in = fvcam::vertical::column_mass(&src, &values);
        let m_out = fvcam::vertical::column_mass(&dst, &out);
        assert!((m_in - m_out).abs() < 1e-9, "case {case}: {m_in} vs {m_out}");
    }
}

/// LBMHD equilibrium moments are exact for arbitrary physical states.
#[test]
fn lbmhd_equilibrium_moments_exact() {
    let mut rng = Rng::new(0x1BE0);
    for case in 0..CASES {
        let rho = rng.range(0.5, 2.0);
        let u = [rng.range(-0.1, 0.1), rng.range(-0.1, 0.1), rng.range(-0.1, 0.1)];
        let b = [rng.range(-0.2, 0.2), rng.range(-0.2, 0.2), rng.range(-0.2, 0.2)];
        let (feq, geq) = lbmhd::collide::equilibrium(rho, u, b);
        let s: f64 = feq.iter().sum();
        assert!((s - rho).abs() < 1e-12, "case {case}");
        for a in 0..3 {
            let got: f64 = geq.iter().map(|g| g[a]).sum();
            assert!((got - b[a]).abs() < 1e-12, "case {case}, component {a}");
        }
    }
}

/// With relaxation switched off (ω = 0) the fused collide+stream step is a
/// pure upwind gather: under a periodic halo every per-direction interior
/// multiset of values is exactly permuted, never changed.
#[test]
fn lbmhd_stream_is_a_permutation_when_collision_is_off() {
    use lbmhd::state::{Block, LANES};

    /// Fill the halo by periodic wrap from the block's own interior.
    fn wrap_halo(b: &mut Block) {
        let (nx, ny, nz) = (b.nx, b.ny, b.nz);
        let wrap = |v: usize, n: usize| -> usize {
            if v == 0 {
                n
            } else if v == n + 1 {
                1
            } else {
                v
            }
        };
        for lane in 0..LANES {
            for k in 0..b.pz() {
                for j in 0..b.py() {
                    for i in 0..b.px() {
                        let (wi, wj, wk) = (wrap(i, nx), wrap(j, ny), wrap(k, nz));
                        if (wi, wj, wk) != (i, j, k) {
                            *b.at_mut(lane, i, j, k) = b.at(lane, wi, wj, wk);
                        }
                    }
                }
            }
        }
    }

    fn sorted_interior(b: &Block, lane: usize) -> Vec<f64> {
        let mut v: Vec<f64> = (1..=b.nz)
            .flat_map(|k| {
                (1..=b.ny).flat_map(move |j| (1..=b.nx).map(move |i| b.at(lane, i, j, k)))
            })
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    }

    let mut rng = Rng::new(0x57E3A);
    for case in 0..4 {
        let n = 4 + case; // 4..8 per axis keeps this fast
        let mut src = Block::zeros(n, n, n);
        for lane in 0..LANES {
            for k in 1..=n {
                for j in 1..=n {
                    for i in 1..=n {
                        *src.at_mut(lane, i, j, k) = rng.range(-1.0, 1.0);
                    }
                }
            }
        }
        wrap_halo(&mut src);
        let mut dst = Block::zeros(n, n, n);
        let updated = lbmhd::collide::step(&src, &mut dst, 0.0, 0.0);
        assert_eq!(updated, n * n * n);
        for lane in 0..LANES {
            assert_eq!(
                sorted_interior(&src, lane),
                sorted_interior(&dst, lane),
                "case {case}: lane {lane} multiset changed under pure streaming"
            );
        }
    }
}

/// GTC deposition conserves charge for arbitrary ensembles.
#[test]
fn gtc_deposition_conserves_charge() {
    let mut rng = Rng::new(0x67CDE9);
    for case in 0..CASES {
        let seed = rng.below(500);
        let count = 10 + rng.below(190) as usize;
        let grid = gtc::geometry::PoloidalGrid { mpsi: 10, mtheta: 16, r_inner: 0.1, r_outer: 0.9 };
        let parts = gtc::particles::load_uniform(count, 0.15, 0.85, 0.0, 1.0, seed as u64);
        let mut charge: Vec<Vec<f64>> = (0..=3).map(|_| vec![0.0; grid.len()]).collect();
        gtc::deposit::deposit(&grid, &parts, &mut charge, 0.0, 1.0 / 3.0);
        let total: f64 = charge.iter().flatten().sum();
        assert!(
            (total - parts.total_weight()).abs() < 1e-9 * parts.total_weight(),
            "case {case}, count={count}"
        );
    }
}

/// The performance model is monotone in peak rate: scaling a platform's
/// peak up never slows a compute-bound workload down.
#[test]
fn model_is_monotone_in_peak() {
    let mut rng = Rng::new(0x30DE1);
    for case in 0..CASES {
        let scale = rng.range(1.0, 4.0);
        let w = lbmhd::model::measured_workload(64, 16);
        let base = hec_arch::Platform::get(hec_arch::PlatformId::Es);
        let mut faster = base;
        faster.peak_gflops *= scale;
        faster.stream_bw_gbps *= scale;
        let g0 = hec_arch::predict(&base, &w).gflops_per_proc;
        let g1 = hec_arch::predict(&faster, &w).gflops_per_proc;
        assert!(g1 >= g0 * 0.999, "case {case}, scale={scale}");
    }
}

/// Threaded charge deposition is bitwise invariant across worker counts:
/// the chunk decomposition depends only on the particle count, and the
/// per-chunk partial grids are reduced in fixed chunk order.
#[test]
fn gtc_threaded_deposit_is_bitwise_invariant_across_workers() {
    let grid = gtc::geometry::PoloidalGrid { mpsi: 16, mtheta: 32, r_inner: 0.1, r_outer: 0.9 };
    let count = 3 * gtc::deposit::DEPOSIT_CHUNK + 11;
    let parts = gtc::particles::load_uniform(count, 0.15, 0.85, 0.0, 1.0, 99);
    let run = |threads: Threads| -> Vec<Vec<u64>> {
        let mut charge: Vec<Vec<f64>> = (0..=2).map(|_| vec![0.0; grid.len()]).collect();
        gtc::deposit::deposit_threaded(&grid, &parts, &mut charge, 0.0, 0.5, &threads);
        charge.iter().map(|p| p.iter().map(|v| v.to_bits()).collect()).collect()
    };
    let reference = run(Threads::serial());
    for workers in [1usize, 2, 4] {
        assert_eq!(run(Threads::new(workers)), reference, "workers={workers}");
    }
    // And the threaded result still conserves total charge.
    let total: f64 = reference.iter().flatten().map(|&b| f64::from_bits(b)).sum();
    assert!((total - parts.total_weight()).abs() < 1e-9 * parts.total_weight());
}

/// Row-banded parallel GEMM is bitwise identical to the serial kernel for
/// any worker count: each output row's update order never changes, only
/// which worker owns it.
#[test]
fn parallel_gemm_is_bitwise_identical_to_serial() {
    use kernels::blas::{par_dgemm, par_zgemm, zgemm, Trans};
    let mut rng = Rng::new(0xBAD_9E33);
    let (m, n, k) = (37usize, 29, 23);
    let a: Vec<f64> = (0..m * k).map(|_| rng.range(-1.0, 1.0)).collect();
    let b: Vec<f64> = (0..k * n).map(|_| rng.range(-1.0, 1.0)).collect();
    let c0: Vec<f64> = (0..m * n).map(|_| rng.range(-1.0, 1.0)).collect();
    let mut serial = c0.clone();
    dgemm(m, n, k, 0.75, &a, &b, 0.5, &mut serial);
    for workers in [1usize, 2, 4] {
        let mut par = c0.clone();
        par_dgemm(&Threads::new(workers), m, n, k, 0.75, &a, &b, 0.5, &mut par);
        let same = serial.iter().zip(&par).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "par_dgemm workers={workers} diverged from serial");
    }

    let az: Vec<Complex64> =
        (0..m * k).map(|_| Complex64::new(rng.range(-1.0, 1.0), rng.range(-1.0, 1.0))).collect();
    let bz: Vec<Complex64> =
        (0..k * n).map(|_| Complex64::new(rng.range(-1.0, 1.0), rng.range(-1.0, 1.0))).collect();
    let alpha = Complex64::new(0.9, -0.2);
    let beta = Complex64::new(0.1, 0.3);
    for ta in [Trans::None, Trans::ConjTrans] {
        let mut serial: Vec<Complex64> = vec![Complex64::ZERO; m * n];
        zgemm(ta, m, n, k, alpha, &az, &bz, beta, &mut serial);
        for workers in [1usize, 2, 4] {
            let mut par: Vec<Complex64> = vec![Complex64::ZERO; m * n];
            par_zgemm(&Threads::new(workers), ta, m, n, k, alpha, &az, &bz, beta, &mut par);
            let same = serial
                .iter()
                .zip(&par)
                .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits());
            assert!(same, "par_zgemm {ta:?} workers={workers} diverged from serial");
        }
    }
}

/// The distributed FFT's forward∘inverse round trip is unchanged by the
/// worker count: every stage either owns disjoint output or reduces in a
/// fixed order, so 1, 2, and 4 workers produce the same bits.
#[test]
fn distfft_round_trip_is_bitwise_stable_across_threads() {
    let sphere = paratec::basis::GSphere::build(8, 8, 8, 5.0);
    let run = |workers: usize| -> Vec<(Vec<u64>, Vec<u64>)> {
        let s = sphere.clone();
        msim::run(2, move |comm| {
            let mut fft = paratec::fftdist::DistFft::with_threads(
                s.clone(),
                comm.rank(),
                comm.size(),
                Threads::new(workers),
            );
            let coeffs: Vec<Complex64> = (0..fft.local_ng())
                .map(|i| {
                    let t = (i as f64 + 100.0 * comm.rank() as f64) * 0.7;
                    Complex64::new(t.sin(), (t * 1.3).cos() * 0.5)
                })
                .collect();
            let slab = fft.to_real_space(comm, &coeffs);
            let back = fft.to_fourier_space(comm, &slab);
            for (orig, got) in coeffs.iter().zip(&back) {
                assert!((*orig - *got).abs() < 1e-10, "round trip drifted");
            }
            let bits = |v: &[Complex64]| -> Vec<u64> {
                v.iter().flat_map(|z| [z.re.to_bits(), z.im.to_bits()]).collect()
            };
            (bits(&slab), bits(&back))
        })
        .unwrap()
    };
    let reference = run(1);
    for workers in [2usize, 4] {
        assert_eq!(run(workers), reference, "workers={workers}");
    }
}

/// Collective cost models are monotone: more bytes or more processors
/// never make an allreduce / bcast / alltoall / transpose cheaper, for
/// randomized but physical network parameters over every topology.
#[test]
fn collective_costs_are_monotone_in_bytes_and_procs() {
    use hec_net::collectives::{allreduce_secs, alltoall_secs, bcast_secs, transpose_secs};
    use hec_net::{NetworkModel, NetworkParams, Topology};

    let mut rng = Rng::new(0xC0117EC);
    for case in 0..CASES {
        let params = NetworkParams {
            latency_us: rng.range(0.5, 20.0),
            bw_gbps: rng.range(0.1, 16.0),
            cpus_per_node: 1 << rng.below(5),
            intranode_bw_gbps: rng.range(1.0, 40.0),
            topology: Topology::ALL[rng.below(Topology::ALL.len())],
        };

        // Monotone in bytes at a fixed processor count.
        let procs = 2 + rng.below(510) as usize;
        let net = NetworkModel::new(params, procs);
        let mut bytes = 8usize;
        let mut prev = [0.0f64; 4];
        while bytes <= 1 << 22 {
            let cur = [
                allreduce_secs(&net, procs, bytes),
                bcast_secs(&net, procs, bytes),
                alltoall_secs(&net, procs, bytes),
                transpose_secs(&net, procs, bytes * procs),
            ];
            for (i, (c, p)) in cur.iter().zip(&prev).enumerate() {
                assert!(c.is_finite() && *c >= 0.0, "case {case}: cost {i} not physical");
                assert!(c >= p, "case {case}: cost {i} fell {p} -> {c} at {bytes} B, P={procs}");
            }
            prev = cur;
            bytes <<= 2;
        }

        // Monotone in processors at a fixed payload. Power-of-two sizes
        // keep the transpose's per-pair integer division exact.
        let bytes = 1usize << (10 + rng.below(12));
        let mut prev = [0.0f64; 4];
        for procs in [1usize, 2, 4, 16, 64, 256, 1024] {
            let net = NetworkModel::new(params, procs);
            let cur = [
                allreduce_secs(&net, procs, bytes),
                bcast_secs(&net, procs, bytes),
                alltoall_secs(&net, procs, bytes),
                transpose_secs(&net, procs, bytes),
            ];
            for (i, (c, p)) in cur.iter().zip(&prev).enumerate() {
                assert!(c >= p, "case {case}: cost {i} fell {p} -> {c} at P={procs}, {bytes} B");
            }
            prev = cur;
        }
    }
}

/// The traffic matrix of a halo exchange is symmetric: neighboring ranks
/// trade faces of equal cross-section, so bytes and message counts match
/// in both directions for every pair.
#[test]
fn lbmhd_halo_traffic_matrix_is_symmetric() {
    use lbmhd::sim::{SimParams, Simulation};

    for (n, procs) in [(12usize, 8usize), (10, 4)] {
        let (_, traffic) = msim::run_with_traffic(procs, move |comm| {
            let mut sim =
                Simulation::new(SimParams { n, ..Default::default() }, comm.rank(), comm.size());
            sim.step(comm);
        })
        .unwrap();
        assert!(traffic.total_bytes() > 0, "n={n}, procs={procs}: no halo traffic captured");
        for a in 0..procs {
            for b in 0..a {
                assert_eq!(
                    traffic.pair(a, b),
                    traffic.pair(b, a),
                    "n={n}, procs={procs}: bytes {a}<->{b} asymmetric"
                );
                assert_eq!(
                    traffic.pair_msgs(a, b),
                    traffic.pair_msgs(b, a),
                    "n={n}, procs={procs}: messages {a}<->{b} asymmetric"
                );
            }
            assert_eq!(traffic.pair(a, a), 0, "rank {a} sent bytes to itself");
        }
    }
}

/// Probes are inert outside a capture: instrumented applications run with
/// probes disabled leave no counter state behind, and a capture sees only
/// the events of its own closure.
#[test]
fn probe_counters_do_not_leak_outside_a_capture() {
    use hec_core::probe;

    assert!(!probe::enabled());
    // Instrumented work with no capture in flight: every probe is a no-op.
    let params =
        gtc::sim::GtcParams { particles_per_domain: 200, ndomains: 2, ..Default::default() };
    msim::run(2, move |world| {
        let mut sim = gtc::sim::GtcSim::new(params, world);
        sim.step(world);
    })
    .unwrap();
    assert!(!probe::enabled());

    // A subsequent capture sees only its own closure's events — nothing
    // from the uninstrumented run above leaks in.
    let ((), cap) = probe::capture(|| {
        msim::run(2, |comm| {
            let p = lbmhd::sim::SimParams { n: 6, ..Default::default() };
            let mut sim = lbmhd::sim::Simulation::new(p, comm.rank(), comm.size());
            sim.step(comm);
        })
        .unwrap();
    });
    assert!(!cap.is_empty());
    for phase in cap.counters.keys() {
        assert!(!phase.starts_with("gtc/"), "phase '{phase}' leaked from outside the capture");
    }

    // And a capture over nothing is empty.
    let ((), empty) = probe::capture(|| {});
    assert!(empty.is_empty());
    assert!(!probe::enabled());
}

/// Captured counters are bitwise invariant across shared-memory worker
/// counts: a composite GTC + LBMHD run records identical per-phase event
/// totals with 1, 2, or 4 workers per rank (timings differ; counters
/// never do).
#[test]
fn captures_are_bitwise_invariant_across_worker_counts() {
    use hec_core::probe;

    let run = |workers: usize| {
        let ((), cap) = probe::capture(|| {
            let params = gtc::sim::GtcParams {
                particles_per_domain: 300,
                ndomains: 2,
                threads: workers,
                ..Default::default()
            };
            msim::run(2, move |world| {
                let mut sim = gtc::sim::GtcSim::new(params, world);
                sim.step(world);
            })
            .unwrap();
            msim::run(2, move |comm| {
                let p = lbmhd::sim::SimParams { n: 6, threads: workers, ..Default::default() };
                let mut sim = lbmhd::sim::Simulation::new(p, comm.rank(), comm.size());
                sim.step(comm);
            })
            .unwrap();
        });
        cap.deterministic().clone()
    };
    let reference = run(1);
    assert!(!reference.is_empty());
    for workers in [2usize, 4] {
        assert_eq!(run(workers), reference, "counters changed with {workers} workers");
    }
}

/// The sphere basis is inversion-symmetric and the balance covers it for
/// arbitrary processor counts.
#[test]
fn gsphere_balance_covers_for_many_proc_counts() {
    let s = paratec::basis::GSphere::build(10, 10, 10, 6.0);
    for nprocs in 1..=12 {
        let bins = s.balance(nprocs);
        let total: usize = bins.iter().map(|b| s.local_ng(b)).sum();
        assert_eq!(total, s.ng, "nprocs={nprocs}");
    }
}
