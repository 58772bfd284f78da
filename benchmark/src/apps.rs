//! `apps_solve`: the four mini-apps at fixed size, side by side in one
//! `msim` world, stepping in rounds until the run's seconds are up; each step
//! timed on rank 0 around the app's public `step`/`minimize` call, and every
//! app's diagnostics checked against a reference decomposition of the same
//! problem.
//!
//! The four apps use the kernel layer differently — LBMHD is unit-stride
//! and bandwidth-bound, GTC gathers and scatters, PARATEC lives in GEMM and
//! 3D FFTs, FVCAM in short Bluestein FFTs and transposes — so a kernel
//! change that helps one and costs another shows as one `*_step_ms` falling
//! while another rises, not as a flat `solve_s`.

use std::path::Path;
use std::time::Instant;

use msim::Comm;

use crate::child::Spinners;
use crate::host::Drift;
use crate::report::RunOutput;
use crate::spec::{self, Workload};
use crate::stats::{better_quantile, median};
use crate::sys;
use crate::trace::Tracer;

/// The apps in reporting order, with their end-to-end metric names.
pub const APPS: [(&str, &str); 4] = [
    ("lbmhd", "lbmhd_step_ms"),
    ("gtc", "gtc_step_ms"),
    ("fvcam", "fvcam_step_ms"),
    ("paratec", "paratec_iter_ms"),
];

/// One diagnostic compared between decompositions.
#[derive(Clone, Copy, Debug)]
pub struct Quantity {
    /// What it is.
    pub name: &'static str,
    /// Its value.
    pub value: f64,
    /// Magnitude the tolerance is relative to; 0 = must match exactly
    /// (integer counts).
    pub scale: f64,
}

fn q(name: &'static str, value: f64, scale: f64) -> Quantity {
    Quantity { name, value, scale }
}

/// What rank 0 saw of one app in one `msim` world.
pub struct Solve {
    /// Allocation + initial conditions, seconds.
    pub setup_s: f64,
    /// `(start, seconds)` of every step, warm-up included.
    pub steps: Vec<(Instant, f64)>,
    /// Diagnostics after the schedule's check point.
    pub check: Vec<Quantity>,
    /// Named counters summed over ranks at the end of the solve.
    pub counts: Vec<(&'static str, f64)>,
    /// Bytes `msim` carried, all ranks, the whole world (one app's own only
    /// when the world held one app).
    pub traffic_bytes: u64,
}

impl Solve {
    /// Per-unit wall times after the warm-up, ms. `per` divides each step
    /// (PARATEC's step is a `minimize` call of several iterations).
    pub fn timed_ms(&self, warmup: usize, per: usize) -> Vec<f64> {
        self.steps[warmup..].iter().map(|(_, s)| s * 1e3 / per as f64).collect()
    }
}

/// One rank's share of one app, as the benchmark drives it from outside.
trait RankApp {
    /// One public `step` (PARATEC: one `minimize` call).
    fn step(&mut self, c: &mut Comm);
    /// The comparable diagnostics, reduced collectively (every rank calls).
    fn diag(&mut self, c: &mut Comm) -> Vec<Quantity>;
    /// This rank's counters.
    fn counts(&self) -> Vec<(&'static str, f64)>;
}

/// How many steps of each app a world runs, indexed like [`APPS`].
#[derive(Clone, Copy)]
pub struct Schedule {
    /// Steps of the first block (the warm-up, when rounds follow).
    pub first: [usize; 4],
    /// Diagnostics are taken after this many steps of the first block
    /// (0 = never).
    pub check_at: [usize; 4],
    /// Steps per round; rounds follow the first block — one at least, then
    /// more until `seconds` have passed since set-up ended. All zero = no
    /// rounds.
    pub round: [usize; 4],
    /// Length of first block + rounds, seconds.
    pub seconds: f64,
}

/// Runs `apps` side by side in one world of `l.ranks` ranks: every app is
/// set up, then the first block of each, then rounds of a few steps of each
/// in turn. Interleaving puts every app's steps all over the run, so a
/// stretch of host interference disturbs a share of each app's steps instead
/// of one app's whole solve. Returns one [`Solve`] per app and the process
/// CPU seconds the rounds took.
fn run_world(
    l: Layout,
    seed: u64,
    apps: &[usize],
    sched: Schedule,
) -> Result<(Vec<Solve>, f64), String> {
    let rounds = apps.iter().any(|&i| sched.round[i] > 0);
    let (per_rank, traffic) = msim::run_with_traffic(l.ranks, |comm| {
        let mut states: Vec<Box<dyn RankApp>> = Vec::with_capacity(apps.len());
        let mut setup_s = Vec::with_capacity(apps.len());
        for &i in apps {
            let t0 = Instant::now();
            states.push(build(i, l, seed, comm));
            comm.barrier();
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        let started = Instant::now();
        let mut steps: Vec<Vec<(Instant, f64)>> = apps.iter().map(|_| Vec::new()).collect();
        let mut checks: Vec<Vec<Quantity>> = apps.iter().map(|_| Vec::new()).collect();
        let mut block = |states: &mut [Box<dyn RankApp>], comm: &mut Comm, first: bool| {
            for (k, &i) in apps.iter().enumerate() {
                let n = if first { sched.first[i] } else { sched.round[i] };
                for s in 0..n {
                    let t = Instant::now();
                    states[k].step(comm);
                    steps[k].push((t, t.elapsed().as_secs_f64()));
                    if first && s + 1 == sched.check_at[i] {
                        checks[k] = states[k].diag(comm);
                    }
                }
            }
        };
        block(&mut states, comm, true);
        let mut cpu_s = 0.0;
        if rounds {
            comm.barrier();
            let cpu0 = sys::cpu_time("self");
            let mut last_round_s = 0.0;
            loop {
                let t = Instant::now();
                block(&mut states, comm, false);
                last_round_s = t.elapsed().as_secs_f64().max(last_round_s);
                // Rank 0 keeps the clock; another round only if it fits.
                let fits = started.elapsed().as_secs_f64() + last_round_s <= sched.seconds;
                let mut go = vec![f64::from(fits)];
                comm.bcast_f64(0, &mut go);
                if go[0] == 0.0 {
                    break;
                }
            }
            if let (Some(a), Some(b)) = (cpu0, sys::cpu_time("self")) {
                cpu_s = b.total() - a.total();
            }
        }
        let counts: Vec<_> = states.iter().map(|s| s.counts()).collect();
        (setup_s, steps, checks, counts, cpu_s)
    })
    .map_err(|e| format!("a rank panicked: {e:?}"))?;
    // Counters sum over ranks; everything else is rank 0's view.
    let mut summed: Vec<Vec<(&'static str, f64)>> = per_rank[0].3.clone();
    for (_, _, _, counts, _) in &per_rank[1..] {
        for (app, theirs) in summed.iter_mut().zip(counts) {
            for (slot, (_, v)) in app.iter_mut().zip(theirs) {
                slot.1 += v;
            }
        }
    }
    let (setup_s, steps, checks, _, cpu_s) = per_rank.into_iter().next().expect("rank 0");
    let solves = setup_s
        .into_iter()
        .zip(steps)
        .zip(checks)
        .zip(summed)
        .map(|(((setup_s, steps), check), counts)| Solve {
            setup_s,
            steps,
            check,
            counts,
            traffic_bytes: traffic.total_bytes(),
        })
        .collect();
    Ok((solves, cpu_s))
}

/// How one app is decomposed for a run.
#[derive(Clone, Copy)]
pub struct Layout {
    /// `msim` ranks.
    pub ranks: usize,
    /// Shared-memory workers per rank.
    pub threads: usize,
    /// GTC only: toroidal domains (the timed problem uses
    /// [`spec::GTC_DOMAINS`]; the `r2_eff` pair uses 1 so a 1-rank leg
    /// exists).
    pub gtc_domains: usize,
}

impl Layout {
    /// The timed layout: [`spec::APP_RANKS`] ranks × 1 thread.
    pub fn timed() -> Layout {
        Layout { ranks: spec::APP_RANKS, threads: 1, gtc_domains: spec::GTC_DOMAINS }
    }
}

struct LbmhdRank(lbmhd::sim::Simulation);

impl RankApp for LbmhdRank {
    fn step(&mut self, c: &mut Comm) {
        self.0.step(c);
    }
    fn diag(&mut self, c: &mut Comm) -> Vec<Quantity> {
        let d = self.0.diagnostics(c);
        let mut out = vec![
            q("lattice points", (spec::LBMHD_N as f64).powi(3), 0.0),
            q("mass", d.mass, d.mass),
            q("kinetic energy", d.kinetic_energy, d.kinetic_energy),
            q("magnetic energy", d.magnetic_energy, d.magnetic_energy),
        ];
        for a in 0..3 {
            // Net flux and momentum are sums of whole sine periods — zero
            // up to round-off — so they are held to the mass scale.
            out.push(q("magnetic flux", d.flux[a], d.mass));
            out.push(q("momentum", d.momentum[a], d.mass));
        }
        out
    }
    fn counts(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("halo_bytes", self.0.halo_bytes_sent as f64),
            ("points", self.0.points_updated as f64),
        ]
    }
}

struct GtcRank(gtc::sim::GtcSim);

impl RankApp for GtcRank {
    fn step(&mut self, c: &mut Comm) {
        self.0.step(c);
    }
    fn diag(&mut self, c: &mut Comm) -> Vec<Quantity> {
        let (count, weight) = self.0.global_particle_stats(c);
        let expected = (spec::GTC_MARKERS * spec::GTC_DOMAINS) as f64;
        vec![
            q("markers lost", count - expected, 0.0),
            q("marker count", count, 0.0),
            q("total weight", weight, weight),
        ]
    }
    fn counts(&self) -> Vec<(&'static str, f64)> {
        vec![("shifted", self.0.counters.shifted as f64), ("pushed", self.0.counters.pushed as f64)]
    }
}

struct FvcamRank(fvcam::sim::FvSim);

impl RankApp for FvcamRank {
    fn step(&mut self, c: &mut Comm) {
        self.0.step(c);
    }
    fn diag(&mut self, c: &mut Comm) -> Vec<Quantity> {
        let (nlon, nlat, nlev) = spec::FVCAM_MESH;
        let mass = self.0.global_mass(c);
        vec![q("cells", (nlon * nlat * nlev) as f64, 0.0), q("global tracer mass", mass, mass)]
    }
    fn counts(&self) -> Vec<(&'static str, f64)> {
        vec![("cells_advected", self.0.counters.cells_advected as f64)]
    }
}

/// One PARATEC rank: the Hamiltonian, the bands, and every energy the
/// minimizer has reported.
struct ParatecRank {
    h: paratec::hamiltonian::Hamiltonian,
    psi: Vec<kernels::Complex64>,
    history: Vec<f64>,
}

impl RankApp for ParatecRank {
    fn step(&mut self, c: &mut Comm) {
        let stats = paratec::solver::minimize(
            c,
            &mut self.h,
            &mut self.psi,
            spec::PARATEC.2,
            spec::PARATEC_ITERS_PER_CALL,
            0.5,
        );
        self.history.extend(stats.energy_history);
    }
    fn diag(&mut self, _: &mut Comm) -> Vec<Quantity> {
        let e = *self.history.last().expect("minimize reported an energy");
        // 1 when no accepted step ever raised the energy (the minimizer's
        // own backtracking tolerance), else 0.
        let monotone = self.history.windows(2).all(|w| w[1] <= w[0] + 1e-9);
        vec![q("energy history non-increasing", f64::from(monotone), 0.0), q("energy", e, e)]
    }
    fn counts(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("gemm_flops", self.h.gemm_flops),
            ("transpose_bytes", self.h.fft.transpose_bytes as f64),
        ]
    }
}

/// Builds this rank's share of app `i` of [`APPS`] — the set-up that
/// `setup_s` times. `seed` draws GTC's markers, the one random input among
/// the four; the other three start from closed-form fields (vortex tubes, a
/// zonal flow, rank-indexed plane waves).
fn build(i: usize, l: Layout, seed: u64, c: &mut Comm) -> Box<dyn RankApp> {
    match i {
        // LBMHD3D: the 64³ vortex-tube problem.
        0 => {
            let params = lbmhd::sim::SimParams {
                n: spec::LBMHD_N,
                omega: 1.6,
                omega_m: 1.2,
                amplitude: 0.05,
                threads: l.threads,
            };
            Box::new(LbmhdRank(lbmhd::sim::Simulation::new(params, c.rank(), c.size())))
        }
        // GTC: PIC cycles on the 32×64×8 grid, 200 k markers per domain.
        1 => {
            let (mpsi, mtheta, mzeta_total) = spec::GTC_GRID;
            let params = gtc::sim::GtcParams {
                mpsi,
                mtheta,
                mzeta_total,
                ndomains: l.gtc_domains,
                particles_per_domain: spec::GTC_MARKERS * spec::GTC_DOMAINS / l.gtc_domains,
                dt: 0.02,
                seed,
                threads: l.threads,
            };
            Box::new(GtcRank(gtc::sim::GtcSim::new(params, c)))
        }
        // FVCAM: dynamics steps on the 144×91×26 mesh, 1D decomposition.
        2 => {
            let (nlon, nlat, nlev) = spec::FVCAM_MESH;
            let params =
                fvcam::sim::FvParams { nlon, nlat, nlev, pz: 1, courant: 0.3, threads: l.threads };
            Box::new(FvcamRank(fvcam::sim::FvSim::new(params, c.rank(), c.size())))
        }
        // PARATEC: the 32³ grid, `minimize` in calls of a few iterations.
        _ => {
            use paratec::{basis::GSphere, fftdist::DistFft, hamiltonian::Hamiltonian, solver};
            let (n, ecut, nbands, nproj) = spec::PARATEC;
            let sphere = GSphere::build(n, n, n, ecut);
            let threads = hec_core::pool::Threads::from_config(l.threads);
            let fft = DistFft::with_threads(sphere, c.rank(), c.size(), threads);
            let h = Hamiltonian::model(fft, nproj, 1.5);
            let psi = solver::initial_guess(h.ng(), nbands, c.rank());
            Box::new(ParatecRank { h, psi, history: Vec::new() })
        }
    }
}

/// Compares a solve's check-point diagnostics with the reference's; returns
/// the mismatches.
pub fn compare(app: &str, got: &[Quantity], want: &[Quantity]) -> Vec<String> {
    let mut bad = Vec::new();
    if got.len() != want.len() || got.is_empty() {
        bad.push(format!("{app}: {} diagnostics vs {} in the reference", got.len(), want.len()));
        return bad;
    }
    for (g, w) in got.iter().zip(want) {
        let tol = spec::APP_CHECK_TOL * w.scale.abs();
        let ok = g.value.is_finite() && (g.value - w.value).abs() <= tol;
        if !ok {
            bad.push(format!(
                "{app}: {} = {:e}, reference {:e} (allowed ±{:e})",
                g.name, g.value, w.value, tol
            ));
        }
    }
    // Invariants with a known value, which a re-run reference would share
    // a violation of.
    if app == "paratec" && got[0].value != 1.0 {
        bad.push("paratec: energy history increased".into());
    }
    if app == "gtc" && got[0].value != 0.0 {
        bad.push(format!("gtc: {} markers lost or duplicated", got[0].value));
    }
    bad
}

/// The reference each app's diagnostics are checked against: a serial run
/// (1 rank × 1 thread) where the app's diagnostics are decomposition
/// invariant, an independent re-run of the timed layout where they are not.
///
/// * LBMHD and FVCAM: serial. Their sums differ between decompositions only
///   by the order of additions.
/// * GTC: two toroidal domains need an even rank count, and the *other*
///   decomposition of the same ensemble (two ranks per domain) agrees on
///   the deposited charge to round-off for one step but drifts to 5e-3 in
///   total weight within seven (measured) — the CG solves amplify the
///   reordered sums. So: same layout again, plus the marker count, which
///   must equal the closed-form markers × domains exactly.
/// * PARATEC seeds its starting bands from the rank layout, so different
///   rank counts descend different paths to the same minimum. So: same
///   layout again, plus the energy history never rising.
///
/// A re-run catches nondeterminism, divergence and lost markers, not a
/// decomposition bug; the crates' own npe/serial tests cover that.
pub fn reference_layout(app: &str) -> Layout {
    match app {
        "gtc" | "paratec" => Layout::timed(),
        _ => Layout { ranks: 1, ..Layout::timed() },
    }
}

/// Runs `total` steps of app `i` of [`APPS`] alone under layout `l`, taking
/// its diagnostics after `check_at` of them (0 = never).
pub fn run_app(
    i: usize,
    l: Layout,
    seed: u64,
    total: usize,
    check_at: usize,
) -> Result<Solve, String> {
    let only = |n: usize| {
        let mut v = [0; 4];
        v[i] = n;
        v
    };
    let sched =
        Schedule { first: only(total), check_at: only(check_at), round: [0; 4], seconds: 0.0 };
    let (mut solves, _) = run_world(l, seed, &[i], sched)?;
    Ok(solves.remove(0))
}

/// Units one step of app `i` stands for in `*_ms` and the step counts.
pub fn units_per_step(i: usize) -> usize {
    if i == 3 {
        spec::PARATEC_ITERS_PER_CALL
    } else {
        1
    }
}

/// One set-up of all four apps (allocation + initial conditions), seconds.
pub fn setup_once(seed: u64) -> Result<f64, String> {
    let sched = Schedule { first: [0; 4], check_at: [0; 4], round: [0; 4], seconds: 0.0 };
    let (solves, _) = run_world(Layout::timed(), seed, &[0, 1, 2, 3], sched)?;
    Ok(solves.iter().map(|s| s.setup_s).sum())
}

/// The four apps' timed steps plus their checks.
pub struct AppsMeasured {
    /// Per app: timed per-unit wall times, ms.
    pub timed_ms: [Vec<f64>; 4],
    /// Per app: the solve as rank 0 saw it.
    pub solves: Vec<Solve>,
    /// Timed units.
    pub units_timed: u64,
    /// Units whose app failed its diagnostics check.
    pub units_failed: u64,
    /// What failed.
    pub failures: Vec<String>,
    /// Σ of the timed steps' wall times, seconds.
    pub timed_s: f64,
    /// Process CPU seconds over the timed rounds.
    pub cpu_s: f64,
    /// Time spent turning step timings into spans, seconds.
    pub span_s: f64,
}

/// Runs the four apps side by side under the timed layout for `seconds` —
/// warm-up block, then rounds of [`spec::APP_ROUND_STEPS`] — recording one
/// root span per timed step, then checks each app's diagnostics against its
/// reference decomposition.
pub fn measure(seed: u64, seconds: f64, tracer: &mut Tracer) -> Result<AppsMeasured, String> {
    let sched = Schedule {
        first: spec::APP_WARMUP_STEPS,
        check_at: spec::APP_CHECK_STEPS,
        round: spec::APP_ROUND_STEPS,
        seconds,
    };
    let (solves, cpu_s) = run_world(Layout::timed(), seed, &[0, 1, 2, 3], sched)?;
    let mut m = AppsMeasured {
        timed_ms: Default::default(),
        solves,
        units_timed: 0,
        units_failed: 0,
        failures: Vec::new(),
        timed_s: 0.0,
        cpu_s,
        span_s: 0.0,
    };
    const SPAN_NAMES: [&str; 4] = ["lbmhd.step", "gtc.step", "fvcam.step", "paratec.minimize"];
    for (i, (app, _)) in APPS.iter().enumerate() {
        let (warm, per) = (spec::APP_WARMUP_STEPS[i], units_per_step(i));
        let timed = &m.solves[i].steps[warm..];
        m.timed_ms[i] = m.solves[i].timed_ms(warm, per);
        m.timed_s += timed.iter().map(|(_, s)| s).sum::<f64>();
        m.units_timed += (timed.len() * per) as u64;
        let recording = Instant::now();
        for (start, secs) in timed {
            let s = tracer.ns_of(*start);
            tracer.record(SPAN_NAMES[i], 0, s, s + (secs * 1e9) as u64);
        }
        m.span_s += recording.elapsed().as_secs_f64();
        let check_at = spec::APP_CHECK_STEPS[i];
        let reference = run_app(i, reference_layout(app), seed, check_at, check_at)?;
        let bad = compare(app, &m.solves[i].check, &reference.check);
        if !bad.is_empty() {
            m.units_failed += (timed.len() * per) as u64;
            m.failures.extend(bad);
        }
    }
    Ok(m)
}

/// Each app's pace when the host leaves it alone, ms per unit: the figure a
/// [`spec::BETTER_SHARE`] of the way in from the fast end of its timed steps.
pub fn paces(m: &AppsMeasured) -> Vec<f64> {
    m.timed_ms.iter().map(|v| better_quantile(v, spec::BETTER_SHARE, true)).collect()
}

/// One idle-priority spinner per CPU, so that a rank waiting for its peer
/// does not halt the CPU it waits on (see [`Spinners`]).
fn spinners(exe: &Path) -> Spinners {
    Spinners::spawn(exe, &(0..sys::nproc()).collect::<Vec<_>>())
}

/// The untraced `apps_solve` run: every end-to-end metric.
pub fn run(seed: u64, seconds: f64, exe: &Path) -> Result<RunOutput, String> {
    let drift_before = Drift::measure();
    let spinners = spinners(exe);
    let mut setups = Vec::with_capacity(spec::APP_SETUPS);
    for _ in 0..spec::APP_SETUPS - 1 {
        setups.push(setup_once(seed)?);
    }
    let m = measure(seed, seconds, &mut Tracer::new(false))?;
    let spinning = spinners.count();
    drop(spinners);
    let drift_after = Drift::measure();
    setups.push(m.solves.iter().map(|s| s.setup_s).sum());

    let paces = paces(&m);
    // Seconds the timed steps would have taken with every step at its app's
    // pace, and the issue's fixed problem at the same paces.
    let at_pace = |steps: &dyn Fn(usize) -> usize| {
        (0..4).map(|i| (steps(i) * units_per_step(i)) as f64 * paces[i] / 1e3).sum::<f64>()
    };
    let timed_at_pace_s = at_pace(&|i| m.timed_ms[i].len());
    let mut metrics = vec![
        ("setup_s", median(&setups)),
        ("p50_us", paces.iter().sum::<f64>() * 1e3),
        ("cpu_us_per_req", m.cpu_s * 1e6 / m.units_timed as f64),
        ("knee_rps", m.units_timed as f64 / timed_at_pace_s),
        ("solve_s", at_pace(&|i| spec::APP_SOLVE_STEPS[i])),
    ];
    for (i, (_, name)) in APPS.iter().enumerate() {
        metrics.push((name, paces[i]));
    }
    let mut notes = m.failures.clone();
    notes.push(drift_before.note(&drift_after, false));
    notes.push(format!(
        "seed {seed} draws GTC's markers; LBMHD, FVCAM and PARATEC start from closed-form fields \
         and take no random input"
    ));
    notes.push(format!(
        "{} ranks x 1 thread, {spinning} idle-priority spinners, the four apps in rounds; timed steps lbmhd {} gtc {} fvcam {} \
         paratec {}x{}: {:.2} s as run (stalls included), {:.2} s at pace; median step ms {:?}; \
         setups {:?}",
        spec::APP_RANKS,
        m.timed_ms[0].len(),
        m.timed_ms[1].len(),
        m.timed_ms[2].len(),
        m.timed_ms[3].len(),
        spec::PARATEC_ITERS_PER_CALL,
        m.timed_s,
        timed_at_pace_s,
        m.timed_ms.iter().map(|v| (median(v) * 1e3).round() / 1e3).collect::<Vec<_>>(),
        setups.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>(),
    ));
    Ok(RunOutput {
        workload: Workload::AppsSolve,
        traced: false,
        attempted: m.units_timed,
        failed: m.units_failed,
        metrics,
        notes,
    }
    .finish())
}

/// Median per-unit step time of a short solve under `l`, ms. Both legs of
/// a scaling pair are measured this way, so LBMHD's slow first steps weigh
/// on both alike.
fn short_step_ms(i: usize, l: Layout, seed: u64) -> Result<f64, String> {
    let (warm, timed) = if i == 3 { (1, 3) } else { (1, 2) };
    Ok(median(&run_app(i, l, seed, warm + timed, 0)?.timed_ms(warm, units_per_step(i))))
}

/// The traced `apps_solve` run: the rounds shortened to a fifth with a span
/// per step, the 1-rank/2-rank and 1-thread/2-thread pairs, the exact
/// counters, and the direct-call timings of every layer under the apps.
pub fn run_traced(
    seed: u64,
    seconds: f64,
    exe: &Path,
    tr: &mut Tracer,
) -> Result<RunOutput, String> {
    use crate::layers;
    let drift_before = Drift::measure();
    let short = seconds * 0.2;
    let spinners = spinners(exe);
    let m = measure(seed, short, tr)?;
    drop(spinners);
    let drift_after = Drift::measure();

    let mut rows: layers::Rows = Vec::new();
    let (host_rows, mut host, host_note) = layers::host_row(tr, &drift_before);
    rows.extend(host_rows);
    rows.push(("host.pinned", 0.0));
    rows.push(("host.shifted", f64::from(drift_before.shifted(&drift_after))));
    rows.extend(layers::core(tr));
    rows.extend(layers::kernels(tr, &mut host));
    rows.extend(layers::msim(tr));
    rows.extend(layers::lbmhd_phases(tr, &host));
    rows.extend(layers::gtc_phases(tr));
    rows.extend(layers::fvcam_phases(tr));
    rows.extend(layers::paratec_phases(tr));

    // Scaling pairs: withheld (0) on a host that cannot run two threads at
    // once — the committed 1-CPU baseline's /t2 legs are the cautionary
    // example.
    let mut notes = m.failures.clone();
    notes.push(host_note);
    let two_cpus = sys::nproc() >= 2;
    if !two_cpus {
        notes.push("host.nproc < 2: every t2/r2 figure withheld (reported as 0)".into());
    }
    // GTC's timed problem has no 1-rank form; its pair scales the particle
    // decomposition of the one-domain problem instead.
    let pair = |i: usize| {
        let domains = if i == 1 { 1 } else { spec::GTC_DOMAINS };
        let two = Layout { gtc_domains: domains, ..Layout::timed() };
        (Layout { ranks: 1, ..two }, two)
    };
    for (i, name) in
        ["lbmhd.r2_eff", "gtc.r2_eff", "fvcam.r2_eff", "paratec.r2_eff"].iter().enumerate()
    {
        let eff = if two_cpus {
            let (one, two) = pair(i);
            tr.scope("apps.r2_pair", 0, || {
                Ok::<f64, String>(
                    short_step_ms(i, one, seed)? / (2.0 * short_step_ms(i, two, seed)?),
                )
            })?
        } else {
            0.0
        };
        rows.push((name, eff));
    }
    let t2 = if two_cpus {
        let (serial, _) = pair(0);
        tr.scope("apps.t2_pair", 0, || {
            Ok::<f64, String>(
                short_step_ms(0, serial, seed)?
                    / short_step_ms(0, Layout { threads: 2, ..serial }, seed)?,
            )
        })?
    } else {
        0.0
    };
    rows.push(("lbmhd.t2_speedup", t2));

    let count = |i: usize, k: usize| m.solves[i].counts[k].1;
    let steps = |i: usize| (m.solves[i].steps.len() * units_per_step(i)) as f64;
    // The traffic matrix belongs to a world, and the timed world holds all
    // four apps: FVCAM's own messages are counted in a world of its own.
    const FVCAM_TRAFFIC_STEPS: usize = 10;
    let fvcam_alone =
        tr.scope("fvcam.traffic", 0, || run_app(2, Layout::timed(), seed, FVCAM_TRAFFIC_STEPS, 0))?;
    rows.extend([
        ("lbmhd.halo_bytes_step", count(0, 0) / steps(0)),
        ("gtc.shifted_step", count(1, 0) / steps(1)),
        ("fvcam.msg_bytes_step", fvcam_alone.traffic_bytes as f64 / FVCAM_TRAFFIC_STEPS as f64),
        ("paratec.gemm_flops_iter", count(3, 0) / steps(3)),
        ("paratec.transpose_bytes_iter", count(3, 1) / steps(3)),
        // Step spans are built from rank 0's timings after the rounds, so
        // tracing costs the time spent building them, as a share of the
        // time that was being measured.
        ("trace.overhead_frac", m.span_s / m.timed_s),
    ]);
    notes.push(format!(
        "one round of the four apps at the median pace: {:.2} ms",
        m.timed_ms.iter().map(|v| median(v)).sum::<f64>()
    ));
    Ok(RunOutput::layers(Workload::AppsSolve, rows, m.units_timed, m.units_failed, notes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_holds_counts_exactly_and_conserved_values_to_tolerance() {
        let want = [q("count", 100.0, 0.0), q("mass", 2.0, 2.0), q("flux", 0.0, 2.0)];
        assert!(compare("x", &want, &want).is_empty());
        let close = [q("count", 100.0, 0.0), q("mass", 2.0 + 1e-10, 2.0), q("flux", 1e-12, 2.0)];
        assert!(compare("x", &close, &want).is_empty());
        let off_count = [q("count", 101.0, 0.0), q("mass", 2.0, 2.0), q("flux", 0.0, 2.0)];
        assert_eq!(compare("x", &off_count, &want).len(), 1);
        let off_mass = [q("count", 100.0, 0.0), q("mass", 2.0 + 1e-7, 2.0), q("flux", 0.0, 2.0)];
        assert_eq!(compare("x", &off_mass, &want).len(), 1);
        let nan = [q("count", 100.0, 0.0), q("mass", f64::NAN, 2.0), q("flux", 0.0, 2.0)];
        assert_eq!(compare("x", &nan, &want).len(), 1);
        assert_eq!(compare("x", &want[..2], &want).len(), 1, "shape mismatch is a failure");
    }

    #[test]
    fn a_lone_app_runs_exactly_the_steps_asked_for() {
        let s = run_app(2, Layout::timed(), 36, 4, 2).unwrap();
        assert_eq!(s.steps.len(), 4);
        assert_eq!(s.timed_ms(1, 1).len(), 3);
        assert!(!s.check.is_empty() && s.traffic_bytes > 0 && s.setup_s > 0.0);
        let never = run_app(2, Layout::timed(), 36, 1, 0).unwrap();
        assert!(never.check.is_empty(), "check point 0 takes no diagnostics");
        assert!(setup_once(36).unwrap() > 0.0);
    }

    #[test]
    fn one_round_of_every_app_matches_its_reference_decomposition() {
        // The path every run takes, at the shortest length: the warm-up
        // block, then the one round that always follows it.
        let m = measure(36, 0.0, &mut Tracer::new(true)).unwrap();
        assert!(m.failures.is_empty(), "{:?}", m.failures);
        assert_eq!(m.units_failed, 0);
        assert!(m.timed_s > 0.0);
        for (i, v) in m.timed_ms.iter().enumerate() {
            assert_eq!(v.len(), spec::APP_ROUND_STEPS[i], "{}", APPS[i].0);
            assert!(v.iter().all(|ms| *ms > 0.0));
            assert!(spec::APP_CHECK_STEPS[i] <= spec::APP_WARMUP_STEPS[i]);
            assert!(!m.solves[i].check.is_empty(), "{} took its diagnostics", APPS[i].0);
        }
        assert!(paces(&m).iter().all(|p| *p > 0.0));
    }
}
