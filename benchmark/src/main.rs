//! The repo's benchmark (see `README.md` beside this crate and
//! `/BENCHMARK.json`): four named workloads, nine gated end-to-end metrics,
//! and a traced per-layer ledger from the kernels to the cluster.
//!
//! ```text
//! hec-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//! hec-benchmark run --selfcheck [--seed N] [--seconds S]
//! ```
//!
//! This file is the command line only; the benchmark is the library.

use std::path::PathBuf;
use std::process::ExitCode;

use hec_benchmark::report::RunOutput;
use hec_benchmark::spec::{self, Workload, END_TO_END};
use hec_benchmark::trace::{self, Tracer};
use hec_benchmark::{apps, child, serving, sys};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

const USAGE: &str =
    "usage: hec-benchmark run [--workload apps_solve|serve_hit|serve_miss|cluster_mix] \
                     [--seed N] [--seconds S] [--trace 0|1] [--selfcheck]";

/// Parsed `run` options.
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

/// Accepts `--name value`, `--name=value` and, for `--trace`/`--selfcheck`,
/// the bare flag.
fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Workload::ALL.to_vec(),
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        selfcheck: false,
    };
    let mut i = 0;
    while i < args.len() {
        let (name, inline) = match args[i].split_once('=') {
            Some((n, v)) => (n, Some(v.to_string())),
            None => (args[i].as_str(), None),
        };
        let mut value = |flag_default: Option<&str>| -> Result<String, String> {
            if let Some(v) = &inline {
                return Ok(v.clone());
            }
            match (args.get(i + 1), flag_default) {
                (Some(v), _) if !v.starts_with("--") => {
                    i += 1;
                    Ok(v.clone())
                }
                (_, Some(d)) => Ok(d.to_string()),
                _ => Err(format!("{name} needs a value")),
            }
        };
        match name {
            "--workload" => {
                let v = value(None)?;
                o.workloads = vec![Workload::parse(&v).ok_or(format!("unknown workload '{v}'"))?];
            }
            "--seed" => o.seed = value(None)?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                o.seconds = value(None)?.parse().map_err(|_| "--seconds needs a number")?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => o.trace = value(Some("1"))? != "0",
            "--selfcheck" => o.selfcheck = true,
            other => return Err(format!("unknown option '{other}'")),
        }
        i += 1;
    }
    // The self-check is the whole untraced benchmark, twice.
    if o.selfcheck && (o.trace || o.workloads.len() != Workload::ALL.len()) {
        return Err("--selfcheck runs every workload untraced; drop --workload / --trace".into());
    }
    Ok(o)
}

fn run_one(
    w: Workload,
    o: &Options,
    exe: &std::path::Path,
    tr: &mut Tracer,
) -> Result<RunOutput, String> {
    match (w, o.trace) {
        (Workload::AppsSolve, false) => apps::run(o.seed, o.seconds, exe),
        (Workload::AppsSolve, true) => apps::run_traced(o.seed, o.seconds, exe, tr),
        (_, false) => serving::run(w, o.seed, o.seconds, exe),
        (_, true) => serving::run_traced(w, o.seed, o.seconds, exe, tr),
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run(o: &Options, exe: &std::path::Path) -> Result<bool, String> {
    let mut all_correct = true;
    let mut traces = Vec::new();
    for &w in &o.workloads {
        let mut tr = Tracer::new(o.trace);
        let out = run_one(w, o, exe, &mut tr)?;
        print!("{}", out.table());
        all_correct &= out.correct();
        if o.trace {
            println!("  self time by span name (span - children), largest first:");
            for (name, ns, count) in tr.self_time_by_name().into_iter().take(12) {
                println!("    {name:<24} {:>12.3} ms over {count} spans", ns as f64 / 1e6);
            }
            traces.push(tr.to_json(w.name()));
        }
        println!("{}", out.json_line());
    }
    if o.trace {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join("trace.json");
        std::fs::write(&path, format!("[\n{}]\n", traces.join(",")))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }
    Ok(all_correct)
}

/// Runs the whole untraced benchmark twice — the serving workloads in
/// opposite orders — and holds every (metric, workload) pair to its bound.
fn selfcheck(o: &Options, exe: &std::path::Path) -> Result<bool, String> {
    let forward = Workload::ALL.to_vec();
    let mut backward = forward.clone();
    backward[1..].reverse();
    let mut runs: Vec<Vec<RunOutput>> = Vec::new();
    for order in [forward, backward] {
        let mut outs = Vec::new();
        for w in order {
            eprintln!("selfcheck: {} ...", w.name());
            outs.push(run_one(w, o, exe, &mut Tracer::new(false))?);
        }
        outs.sort_by_key(|out| Workload::ALL.iter().position(|w| *w == out.workload));
        runs.push(outs);
    }
    let mut ok = true;
    println!(
        "{:<12} {:<16} {:<7} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "better", "first", "second", "ratio", "bound"
    );
    for (a, b) in runs[0].iter().zip(&runs[1]) {
        ok &= a.correct() && b.correct();
        for (m, ((_, va), (_, vb))) in END_TO_END.iter().zip(a.metrics.iter().zip(&b.metrics)) {
            let ratio = vb / va;
            let within = (ratio - 1.0).abs() <= m.bound;
            ok &= within;
            println!(
                "{:<12} {:<16} {:<7} {va:>14.4} {vb:>14.4} {ratio:>8.3} {:>6.2}{}",
                a.workload.name(),
                m.name,
                m.better,
                m.bound,
                if within { "" } else { "  DISAGREE" }
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    sys::nproc(); // before any pinning narrows what the OS reports
                  // Results must not depend on the caller's tuning knobs.
    for (key, _) in std::env::vars() {
        if key.starts_with("HEC_") {
            std::env::remove_var(key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child") => child::child_main(&args[1..]).map(|()| true),
        Some("run") => parse(&args[1..]).and_then(|o| {
            let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
            if o.selfcheck {
                selfcheck(&o, &exe)
            } else {
                run(&o, &exe)
            }
        }),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("hec-benchmark: a check failed (see fail_frac and the notes above)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("hec-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn options_parse_in_the_drivers_spelling_and_the_issues() {
        let o = parse(&args("--workload serve_hit --seed 7 --seconds 12 --trace 0")).unwrap();
        assert_eq!(o.workloads, vec![Workload::ServeHit]);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 12.0, false));
        let o = parse(&args("--workload=cluster_mix --seed=9 --trace")).unwrap();
        assert_eq!(o.workloads, vec![Workload::ClusterMix]);
        assert_eq!((o.seed, o.trace), (9, true));
        assert!(parse(&args("--trace 1")).unwrap().trace);
        assert!(parse(&args("--trace --seed 3")).unwrap().trace);
        let o = parse(&[]).unwrap();
        assert_eq!(o.workloads.len(), 4);
        assert_eq!((o.seed, o.seconds), (spec::DEFAULT_SEED, spec::RUN_SECONDS as f64));
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--seed")).is_err());
        assert!(parse(&args("--bogus 1")).is_err());
        assert!(parse(&args("--selfcheck --seed 4")).unwrap().selfcheck);
        assert!(parse(&args("--selfcheck --workload serve_hit")).is_err());
        assert!(parse(&args("--selfcheck --trace 1")).is_err());
        assert!(parse(&args("--trace 0 --selfcheck")).is_ok());
    }

    #[test]
    fn the_counting_allocator_sees_allocations_only_inside_its_bracket() {
        let (v, allocs, bytes) = trace::count_allocs(|| vec![0u8; 4096]);
        assert_eq!(v.len(), 4096);
        assert!(allocs >= 1 && bytes >= 4096);
    }
}
