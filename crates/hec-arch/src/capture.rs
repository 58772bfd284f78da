//! From a calibration capture to a workload's extensive fields.
//!
//! The applications instrument their hot paths with `hec_core::probe`
//! counters; one small calibration run per app yields a [`Capture`] whose
//! per-phase counters are validated against the analytic counts (exact
//! for integer events). Each app's `measured_workload` writes every
//! [`PhaseProfile`](crate::PhaseProfile) field once: the *extensive*
//! fields (flops, traffic bytes) are that capture's counters rescaled to
//! the target configuration by [`Extensive::rescale`]; the *shape* fields
//! (vector fraction and length, cacheability, working set…) are closed-form
//! model parameters, which no hardware counter sees.
//!
//! Extensive quantities scale linearly with the executed work units, so
//! `measured × (target units / calibration units)` is exact whenever the
//! per-unit cost is configuration-independent.

use hec_core::probe::{Capture, Counters};

/// One phase's flops and memory traffic on a target configuration,
/// rescaled from the counters a calibration run recorded.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Extensive {
    /// Double-precision operations.
    pub flops: f64,
    /// Unit-stride traffic in bytes.
    pub unit_stride_bytes: f64,
    /// Gather/scatter traffic in bytes.
    pub gather_scatter_bytes: f64,
}

impl Extensive {
    /// Counters `c`, recorded over `units` calibration work units,
    /// rescaled to `target` units: each extensive counter × `target / units`.
    pub fn rescale(c: &Counters, target: f64, units: f64) -> Extensive {
        let scale = target / units;
        Extensive {
            flops: c.flops as f64 * scale,
            unit_stride_bytes: c.unit_stride_bytes as f64 * scale,
            gather_scatter_bytes: c.gather_scatter_bytes as f64 * scale,
        }
    }
}

/// The counters `capture` recorded under `phase`.
///
/// # Panics
///
/// If the phase recorded nothing: a silently empty calibration run must
/// not produce an all-zero profile.
pub fn recorded(capture: &Capture, phase: &str) -> Counters {
    let c = capture.get(phase);
    assert!(!c.is_zero(), "calibration capture phase '{phase}' recorded no events");
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use hec_core::probe;

    fn sample_capture() -> Capture {
        let ((), cap) = probe::capture(|| {
            probe::count(
                "app/work",
                Counters {
                    flops: 1000,
                    unit_stride_bytes: 4000,
                    gather_scatter_bytes: 200,
                    vector_iters: 640,
                    vector_loops: 10,
                    ..Default::default()
                },
            );
        });
        cap
    }

    #[test]
    fn rescale_multiplies_every_extensive_counter_by_target_over_units() {
        let c = recorded(&sample_capture(), "app/work");
        let m = Extensive::rescale(&c, 1600.0, c.vector_iters as f64);
        assert_eq!(
            m,
            Extensive { flops: 2500.0, unit_stride_bytes: 10_000.0, gather_scatter_bytes: 500.0 }
        );
    }

    #[test]
    #[should_panic(expected = "app/ghost")]
    fn an_empty_calibration_phase_is_refused_not_zeroed() {
        recorded(&sample_capture(), "app/ghost");
    }
}
