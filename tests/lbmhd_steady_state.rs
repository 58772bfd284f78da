//! LBMHD's time step is allocation-free at lattice scale once warm: the
//! collide scratch lives in the destination block, periodic wraps copy in
//! place, and the halo face buffers circulate between the ranks instead of
//! being allocated, copied into a message and dropped.
//!
//! This file is its own test binary because it installs a counting global
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocations at least this large are counted: far below a 16³ run's face
/// (18·18·108 doubles = 273 KiB), far above `msim`'s and the pool's
/// per-message and per-task bookkeeping.
const BIG: usize = 64 * 1024;

static BIG_ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// relaxed statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= BIG {
            BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= BIG {
            BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= BIG {
            BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn ten_warm_steps_of_a_two_rank_run_allocate_nothing_large() {
    use lbmhd::sim::{SimParams, Simulation};

    let counts = msim::run(2, |comm| {
        let params = SimParams { n: 16, threads: 2, ..Default::default() };
        let mut sim = Simulation::new(params, comm.rank(), comm.size());
        assert!(BIG_ALLOCS.load(Ordering::Relaxed) > 0, "the lattice itself must be counted");
        sim.run(comm, 2);
        // Both ranks are past set-up and warm-up before either reads.
        comm.barrier();
        let before = BIG_ALLOCS.load(Ordering::Relaxed);
        sim.run(comm, 10);
        comm.barrier();
        let after = BIG_ALLOCS.load(Ordering::Relaxed);
        assert_eq!(sim.halo_bytes_sent, 12 * 2 * 18 * 18 * 108 * 8, "faces did move");
        after - before
    })
    .unwrap();
    assert_eq!(counts, vec![0, 0], "allocations >= 64 KiB during ten warm steps, per rank");
}
