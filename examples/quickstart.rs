//! Quickstart: run each application for a few steps and evaluate the
//! Earth Simulator vs Opteron performance model on the resulting workload.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hec_arch::{predict, Platform, PlatformId};

fn main() {
    // --- 1. A real LBMHD3D run on 8 simulated MPI ranks.
    println!("== LBMHD3D: 16^3 lattice, 8 ranks, 10 steps ==");
    let diags = msim::run(8, |comm| {
        let params = lbmhd::SimParams { n: 16, ..Default::default() };
        let mut sim = lbmhd::Simulation::new(params, comm.rank(), comm.size());
        sim.run(comm, 10);
        sim.diagnostics(comm)
    })
    .expect("lbmhd run failed");
    let d = diags[0];
    println!(
        "mass {:.6}, kinetic energy {:.3e}, magnetic energy {:.3e}",
        d.mass, d.kinetic_energy, d.magnetic_energy
    );

    // --- 2. A real GTC run with the paper's two-level decomposition.
    println!("\n== GTC: 4 toroidal domains x 2-way particle decomposition ==");
    let stats = msim::run(8, |world| {
        let params = gtc::GtcParams { particles_per_domain: 2000, ..Default::default() };
        let mut sim = gtc::GtcSim::new(params, world);
        sim.run(world, 5);
        let (count, weight) = sim.global_particle_stats(world);
        (count, weight, sim.counters.shifted)
    })
    .expect("gtc run failed");
    println!(
        "particles {} (conserved), total weight {:.3}, markers shifted on rank 0: {}",
        stats[0].0, stats[0].1, stats[0].2
    );

    // --- 3. Evaluate the architectural model on the paper's Table 5
    // configuration: who wins LBMHD at 256 processors on a 512^3 grid?
    println!("\n== Performance model: LBMHD3D, P=256, 512^3 (paper Table 5) ==");
    let w = lbmhd::model::measured_workload(512, 256);
    for id in [
        PlatformId::Power3,
        PlatformId::Opteron,
        PlatformId::X1Msp,
        PlatformId::Es,
        PlatformId::Sx8,
    ] {
        let p = Platform::get(id);
        let pred = predict(&p, &w);
        println!(
            "{:<10} {:>6.2} Gflop/P  ({:>5.1} % of peak)",
            id.label(),
            pred.gflops_per_proc,
            pred.percent_of_peak
        );
    }
    println!("\n(paper Table 5 row: Power3 0.14, Opteron 0.60, X1 5.26, ES 5.45, SX-8 9.52)");
}
