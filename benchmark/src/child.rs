//! The system under test as a child process: the benchmark binary
//! re-executed with a `child` subcommand, so the server's CPU time, context
//! switches and scheduling are its own and the generator's are not mixed in.
//!
//! Lifetime is tied to a pipe: the child serves until its stdin reaches end
//! of file, then shuts down gracefully and exits. The parent holds the write
//! end, so the child goes away when [`Child`] drops — on success, on an
//! error return, on a panic unwinding through the guard — and even when the
//! parent is killed outright, because the kernel closes the pipe.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

use hec_cluster::router::ClusterConfig;
use hec_serve::server::ServeConfig;

use crate::spec::{self, ServingSpec};
use crate::sys;

/// A running server child and the address it listens on.
pub struct Child {
    proc: std::process::Child,
    stdin: Option<ChildStdin>,
    /// The replica's (or router's) address.
    pub addr: SocketAddr,
}

impl Child {
    /// Spawns `exe child …` for `shape`, pinned to `cpus` when given, and
    /// waits for its `ADDR` line.
    pub fn spawn(
        exe: &std::path::Path,
        shape: &ServingSpec,
        cpus: Option<&[usize]>,
    ) -> Result<Child, String> {
        let mut cmd = Command::new(exe);
        cmd.arg("child")
            .arg(format!("--workers={}", shape.workers))
            .arg(format!("--queue={}", shape.queue))
            .arg(format!("--cache={}", shape.cache))
            .arg(format!("--replicas={}", shape.replicas));
        if let Some(cpus) = cpus {
            let list: Vec<String> = cpus.iter().map(usize::to_string).collect();
            cmd.arg(format!("--cpus={}", list.join(",")));
        }
        let mut proc = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))?;
        let stdin = proc.stdin.take();
        let mut line = String::new();
        let stdout = proc.stdout.take().expect("piped stdout");
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line.trim().strip_prefix("ADDR ").and_then(|a| a.parse::<SocketAddr>().ok());
        let mut child = Child { proc, stdin, addr: SocketAddr::from(([127, 0, 0, 1], 0)) };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                child.addr = addr;
                Ok(child)
            }
            // Dropping `child` reaps the half-started process.
            _ => Err(format!("child did not announce an address (said {line:?})")),
        }
    }

    /// The child's pid, as `/proc` spells it.
    pub fn pid(&self) -> String {
        self.proc.id().to_string()
    }

    /// Asks the child to stop (closes its stdin) and waits for it; kills it
    /// if it has not exited within five seconds. Idempotent.
    pub fn stop(&mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match self.proc.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    let _ = self.proc.kill();
                    let _ = self.proc.wait();
                    return;
                }
            }
        }
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Idle-priority spinners, one child process per CPU named: each pins
/// itself, drops to `SCHED_IDLE` and spins until its stdin closes.
///
/// Why: on a virtual machine a CPU with nothing to run halts, and waking it
/// again goes through the hypervisor's scheduler — 20 us on a quiet hour,
/// twice that when the neighbours are busy, and in two regimes of its own
/// (`host.wake_us`). A request at the reference rate crosses three or four
/// such wake-ups, an FVCAM step a dozen, so the latency and step figures
/// followed the host's minute. A spinner keeps the CPU from halting; the
/// kernel preempts it the moment a server thread or a rank wakes, so a
/// wake-up costs what the guest kernel makes it cost. Being separate
/// processes, their CPU time is in nobody's `cpu_us_per_req`.
///
/// Best effort: a spinner that cannot enter the idle class does not spin
/// (at normal priority it would take the CPU it is meant to keep warm), and
/// the run goes on without any and says so.
pub struct Spinners {
    procs: Vec<std::process::Child>,
}

impl Spinners {
    /// Spawns `exe child spin --cpu=N` for each of `cpus` and waits for each
    /// to say whether it is spinning.
    pub fn spawn(exe: &std::path::Path, cpus: &[usize]) -> Spinners {
        let mut spinners = Spinners { procs: Vec::new() };
        for cpu in cpus {
            let spawned = Command::new(exe)
                .args(["child", "spin", &format!("--cpu={cpu}")])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn();
            let mut line = String::new();
            if let Ok(mut proc) = spawned {
                let stdout = proc.stdout.take().expect("piped stdout");
                let _ = BufReader::new(stdout).read_line(&mut line);
                spinners.procs.push(proc);
            }
            // All or none: a run with one CPU kept warm and one not would
            // be a third kind of run.
            if line.trim() != "SPINNING" {
                spinners.stop();
                break;
            }
        }
        spinners
    }

    /// Spinners running.
    pub fn count(&self) -> usize {
        self.procs.len()
    }

    /// Closes every spinner's stdin and waits for it; kills one that has
    /// not exited within two seconds. Idempotent.
    pub fn stop(&mut self) {
        for proc in &mut self.procs {
            drop(proc.stdin.take());
        }
        for mut proc in self.procs.drain(..) {
            let deadline = Instant::now() + Duration::from_secs(2);
            while matches!(proc.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            let _ = proc.kill();
            let _ = proc.wait();
        }
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        self.stop();
    }
}

fn arg<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    args.iter().find_map(|a| a.strip_prefix(&format!("--{name}="))?.parse().ok())
}

/// The replica configuration of a serving shape.
pub fn serve_config(shape: &ServingSpec) -> ServeConfig {
    ServeConfig { port: 0, workers: shape.workers, queue: shape.queue, cache_capacity: shape.cache }
}

/// The cluster configuration of a serving shape: no faults, no autoscaler,
/// no hedging — the fault-free leg.
pub fn cluster_config(shape: &ServingSpec) -> ClusterConfig {
    ClusterConfig {
        replicas: shape.replicas,
        replication: spec::CLUSTER_REPLICATION,
        workers: shape.workers,
        queue: shape.queue,
        replica: serve_config(shape),
        hedge_ms: None,
        autoscale: None,
        ..ClusterConfig::default()
    }
}

/// The four apps' cold calibration captures, ms, timed in a fresh process
/// (`exe child calibration`). The captures are process-wide `OnceLock`s, so
/// in the benchmark's own process they are cold only for whichever workload
/// happens to evaluate a point first; a new process pays them every time, as
/// every server child does during set-up.
pub fn cold_calibration_ms(exe: &std::path::Path) -> Result<f64, String> {
    let out = Command::new(exe)
        .args(["child", "calibration"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))?;
    let said = String::from_utf8_lossy(&out.stdout);
    said.trim()
        .strip_prefix("CALIBRATION_MS ")
        .and_then(|ms| ms.parse().ok())
        .filter(|_| out.status.success())
        .ok_or_else(|| format!("calibration child said {said:?} ({})", out.status))
}

/// Entry point of `hec-benchmark child …`: pins itself, starts the server,
/// announces `ADDR host:port`, serves until stdin closes. `child calibration`
/// instead times the cold calibration captures and prints them; `child spin`
/// is one of [`Spinners`].
pub fn child_main(args: &[String]) -> Result<(), String> {
    if args.first().map(String::as_str) == Some("calibration") {
        println!("CALIBRATION_MS {:?}", crate::layers::model_calibration_ms());
        return Ok(());
    }
    if args.first().map(String::as_str) == Some("spin") {
        let cpu: usize = arg(args, "cpu").ok_or("child spin needs --cpu=")?;
        if !(sys::pin_current_thread(&[cpu]) && sys::set_idle_priority()) {
            println!("NOT SPINNING");
            return Err("cannot pin and enter the idle scheduling class".into());
        }
        println!("SPINNING");
        // The watcher sleeps in read(); end of file means the owner is gone.
        std::thread::spawn(|| {
            let mut sink = [0u8; 64];
            while matches!(std::io::stdin().read(&mut sink), Ok(n) if n > 0) {}
            std::process::exit(0);
        });
        loop {
            std::hint::spin_loop();
        }
    }
    if let Some(cpus) = arg::<String>(args, "cpus") {
        let cpus: Vec<usize> = cpus.split(',').filter_map(|c| c.parse().ok()).collect();
        // Before any thread exists, so every server thread inherits it.
        sys::pin_current_thread(&cpus);
    }
    let shape = ServingSpec {
        workers: arg(args, "workers").ok_or("child needs --workers=")?,
        queue: arg(args, "queue").ok_or("child needs --queue=")?,
        cache: arg(args, "cache").ok_or("child needs --cache=")?,
        replicas: arg(args, "replicas").ok_or("child needs --replicas=")?,
        ref_rps: 0.0,
        sat_batch: 0,
        sat_cap_rps: 0.0,
    };
    let wait_for_eof = || {
        let mut sink = [0u8; 64];
        while matches!(std::io::stdin().read(&mut sink), Ok(n) if n > 0) {}
    };
    if shape.replicas == 0 {
        let server = hec_serve::server::start(serve_config(&shape)).map_err(|e| e.to_string())?;
        println!("ADDR {}", server.addr());
        wait_for_eof();
        server.shutdown();
        server.join();
    } else {
        let cluster =
            hec_cluster::router::start(cluster_config(&shape)).map_err(|e| e.to_string())?;
        println!("ADDR {}", cluster.addr());
        wait_for_eof();
        cluster.shutdown();
        cluster.join();
    }
    Ok(())
}
