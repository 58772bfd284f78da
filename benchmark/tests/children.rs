//! Real child servers, through the code the runs use: spawned, driven over
//! loopback with byte-checked responses, and reaped on every exit path.

use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

use hec_benchmark::child::{Child, Spinners};
use hec_benchmark::gen::{self, Conn, Pacing, RequestSet};
use hec_benchmark::spec::{self, Workload};

fn exe() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_hec-benchmark"))
}

fn listening(addr: SocketAddr) -> bool {
    TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_ok()
}

#[test]
fn a_child_serves_byte_exact_responses_and_is_gone_after_stop() {
    let shape = spec::serving_spec(Workload::ServeHit);
    let mut child = Child::spawn(exe(), &shape, None).unwrap();
    let addr = child.addr;
    assert!(listening(addr));

    // 400 open-loop arrivals over two pipelined connections, every body
    // compared with the in-process bytes.
    let offsets = gen::arrival_offsets_ns(5, 2_000.0, 0.2);
    let mut set = RequestSet::build(Workload::ServeHit, 5, offsets.len());
    let mut conns = vec![Conn::connect(addr).unwrap(), Conn::connect(addr).unwrap()];
    let seg = gen::run_segment(&mut conns, &set, &set.plan, Pacing::Open(&offsets), false);
    assert_eq!(seg.attempted as usize, offsets.len());
    assert_eq!((seg.failed, seg.first_failure.as_deref()), (0, None));
    assert_eq!(seg.samples.len(), offsets.len());
    assert_eq!(seg.late_ns.len(), offsets.len());

    // The check has teeth: one wrong expected byte fails exactly the
    // requests that name that key, in saturation pacing too.
    let victim = set.plan[0];
    set.requests[victim as usize].body[0] ^= 1;
    let expected = set.plan.iter().filter(|&&i| i == victim).count() as u64;
    let seg =
        gen::run_segment(&mut conns, &set, &set.plan, Pacing::Window(spec::SAT_WINDOW), false);
    assert_eq!(seg.failed, expected);
    assert!(seg.first_failure.unwrap().contains("body differs"));
    assert_eq!(seg.samples.len() as u64, seg.attempted - expected);

    drop(conns);
    child.stop();
    assert!(!listening(addr), "a stopped child must not leave a listener behind");
    child.stop(); // idempotent
}

#[test]
fn a_cluster_child_answers_points_and_sweeps_through_the_router() {
    let shape = spec::serving_spec(Workload::ClusterMix);
    let child = Child::spawn(exe(), &shape, None).unwrap();
    let set = RequestSet::build(Workload::ClusterMix, 9, 300);
    let mut conns = vec![Conn::connect(child.addr).unwrap()];
    for &idx in &set.warm {
        gen::get_once(&mut conns[0], &set, idx).unwrap();
    }
    let seg = gen::run_segment(&mut conns, &set, &set.plan, Pacing::Window(4), false);
    assert_eq!((seg.failed, seg.first_failure), (0, None));
    let addr = child.addr;
    drop(child);
    assert!(!listening(addr), "dropping the guard reaps router and replicas");
}

#[test]
fn a_child_is_reaped_when_its_owner_panics_or_start_up_fails() {
    // Panic: the guard unwinds, the pipe closes, the child exits.
    let seen: Mutex<Option<SocketAddr>> = Mutex::new(None);
    let shape = spec::serving_spec(Workload::ServeMiss);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let child = Child::spawn(exe(), &shape, None).unwrap();
        *seen.lock().unwrap() = Some(child.addr);
        assert!(listening(child.addr));
        panic!("owner dies with the child alive");
    }));
    assert!(outcome.is_err());
    let addr = seen.lock().unwrap().expect("the child came up before the panic");
    assert!(!listening(addr), "a panicking owner must not leak its child");

    // Failure: a program that never announces an address is an error, not
    // a hang, and is waited for.
    let Err(err) = Child::spawn(Path::new("/bin/true"), &shape, None) else {
        panic!("/bin/true is not a server");
    };
    assert!(err.contains("did not announce"), "{err}");
    assert!(Child::spawn(Path::new("/nonexistent/hec-benchmark"), &shape, None).is_err());
}

fn spinning_processes() -> usize {
    let mut n = 0;
    for entry in std::fs::read_dir("/proc").unwrap().flatten() {
        if let Ok(cmdline) = std::fs::read(entry.path().join("cmdline")) {
            let words: Vec<&[u8]> = cmdline.split(|b| *b == 0).collect();
            let mine = words.first().is_some_and(|w| *w == exe().as_os_str().as_encoded_bytes());
            n += usize::from(mine && words.get(2) == Some(&b"spin".as_slice()));
        }
    }
    n
}

#[cfg(target_os = "linux")]
#[test]
fn spinners_run_in_the_idle_class_and_are_reaped_with_their_owner() {
    let mut spinners = Spinners::spawn(exe(), &[0]);
    assert_eq!(spinners.count(), 1, "lowering one's own priority needs no privilege");
    assert_eq!(spinning_processes(), 1);
    // It yields to anything: a spin of our own on its CPU keeps its pace.
    assert!(hec_benchmark::sys::pin_current_thread(&[0]));
    let alone = hec_benchmark::host::spin_ms();
    spinners.stop();
    assert_eq!((spinners.count(), spinning_processes()), (0, 0));
    let without = hec_benchmark::host::spin_ms();
    assert!(alone < 1.5 * without, "{alone} ms beside the spinner, {without} ms without");
    spinners.stop(); // idempotent

    // Dropped by a panicking owner: gone.
    let outcome = std::panic::catch_unwind(|| {
        let _guard = Spinners::spawn(exe(), &[0]);
        panic!("owner dies with the spinner running");
    });
    assert!(outcome.is_err());
    assert_eq!(spinning_processes(), 0);
    // A program that is not a spinner is not counted as one, and is reaped.
    assert_eq!(Spinners::spawn(Path::new("/bin/true"), &[0]).count(), 0);
    assert_eq!(Spinners::spawn(Path::new("/nonexistent/hec-benchmark"), &[0, 1]).count(), 0);
}

#[test]
fn calibration_is_timed_cold_whatever_this_process_has_already_evaluated() {
    // Warm this process's captures the way an earlier traced workload does
    // (building a request set evaluates points): here the figure collapses.
    let _ = gen::hot_points(36)[0].eval();
    let warm_here = hec_benchmark::layers::model_calibration_ms();
    // The fresh process pays the captures every time it is asked.
    for _ in 0..2 {
        let cold = hec_benchmark::child::cold_calibration_ms(exe()).unwrap();
        assert!(cold > 1.0 && cold > 20.0 * warm_here, "cold {cold} ms, warm {warm_here} ms");
    }
    assert!(hec_benchmark::child::cold_calibration_ms(Path::new("/bin/true")).is_err());
}
