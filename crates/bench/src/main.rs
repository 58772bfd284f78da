//! `repro` — regenerates every table and figure of the paper, and runs
//! the serve/loadgen benchmark pair.
//!
//! Run `repro help` for the full subcommand list; it is derived from the
//! same table that drives dispatch and the unknown-subcommand error, so
//! the three can never drift apart.

use bench::{experiments, render, validate};
use hec_serve::engine::AppId;
use report::paper;

/// One `repro` subcommand: its name, argument hint, one-line help, and
/// handler. Usage text, dispatch, and the unknown-subcommand error are
/// all derived from [`COMMANDS`].
struct Cmd {
    name: &'static str,
    args: &'static str,
    help: &'static str,
    run: fn(&[String]),
}

const COMMANDS: &[Cmd] = &[
    Cmd {
        name: "table1",
        args: "",
        help: "architectural highlights of the eight platforms",
        run: |_| print!("{}", render::table1().render()),
    },
    Cmd {
        name: "table2",
        args: "",
        help: "application overview with this repo's lines of code",
        run: |_| table2(),
    },
    Cmd {
        name: "fig2",
        args: "[mesh-divisor]",
        help: "FVCAM point-to-point traffic matrices (default divisor 4; 1 = full D mesh)",
        run: |args| fig2(num_arg("fig2", args, 0, 4)),
    },
    Cmd {
        name: "table3",
        args: "",
        help: "FVCAM performance on the D mesh",
        run: |_| print!("{}", render::app_table(AppId::Fvcam).render()),
    },
    Cmd {
        name: "fig3",
        args: "",
        help: "FVCAM Gflop/P scaling curves",
        run: |_| print!("{}", render::fig3(&experiments::fvcam_rows(), &paper::FVCAM_PLATFORMS)),
    },
    Cmd {
        name: "fig4",
        args: "",
        help: "FVCAM simulated-years-per-day scaling",
        run: |_| {
            print!(
                "{}",
                render::fig4(
                    &experiments::fvcam_rows(),
                    &paper::FVCAM_PLATFORMS,
                    fvcam::model::D_MESH_STEPS_PER_DAY
                )
            )
        },
    },
    Cmd {
        name: "table4",
        args: "",
        help: "GTC weak-scaling performance",
        run: |_| print!("{}", render::app_table(AppId::Gtc).render()),
    },
    Cmd {
        name: "table5",
        args: "",
        help: "LBMHD3D performance",
        run: |_| print!("{}", render::app_table(AppId::Lbmhd).render()),
    },
    Cmd {
        name: "table6",
        args: "",
        help: "PARATEC performance",
        run: |_| print!("{}", render::app_table(AppId::Paratec).render()),
    },
    Cmd {
        name: "fig8",
        args: "",
        help: "summary of all four applications at P=256",
        run: |_| print!("{}", render::fig8(&experiments::fig8_apps(), &paper::PLATFORMS)),
    },
    Cmd {
        name: "validate",
        args: "",
        help: "shape comparison against the paper's published numbers",
        run: |_| validate_all(),
    },
    Cmd {
        name: "profile",
        args: "",
        help: "calibration captures; writes PROFILE_<app>.json",
        run: |_| bench::profile::run(),
    },
    Cmd {
        name: "serve",
        args: "[port]",
        help: "prediction service on 127.0.0.1 (default: ephemeral port)",
        run: |args| serve(args),
    },
    Cmd {
        name: "cluster",
        args: "<replicas> [port]",
        help: "sharded serving cluster: router + N replicas",
        run: |args| cluster(args),
    },
    Cmd {
        name: "loadgen",
        args: "<url> [secs] [clients] [--rate=RPS] [--seed=N]",
        help: "open-loop load test, seeded arrivals at --rate (default 400 rps); \
               writes BENCH_serve.json (or BENCH_cluster.json for a router)",
        run: |args| loadgen(args),
    },
    Cmd {
        name: "kill",
        args: "<url> <replica>",
        help: "kill one replica through a router's /admin/kill endpoint",
        run: |args| kill(args),
    },
    Cmd {
        name: "scale",
        args: "<url> <up|down>",
        help: "scale a router up one replica, or drain its highest member",
        run: |args| scale(args),
    },
    Cmd {
        name: "stop",
        args: "<url>",
        help: "gracefully stop a serve or cluster instance (drains in-flight requests)",
        run: |args| stop(args),
    },
    Cmd {
        name: "report",
        args: "",
        help: "print every table and figure (no artifacts written)",
        run: |_| report_all(),
    },
    Cmd {
        name: "all",
        args: "[dir]",
        help: "regenerate every artifact (tables, canon, profiles, load) into one stamped dir",
        run: |args| {
            let dir = args.first().map(String::as_str).unwrap_or(bench::pipeline::DEFAULT_DIR);
            if let Err(e) = bench::pipeline::run_all(dir) {
                eprintln!("repro all: {e}");
                std::process::exit(1);
            }
        },
    },
    Cmd {
        name: "diff",
        args: "<old-dir> [new-dir]",
        help: "compare two artifact dirs bit for bit on their exact fields; exit 1 on any drift",
        run: |args| std::process::exit(bench::diff::run_cli(args)),
    },
    Cmd { name: "help", args: "", help: "this list", run: |_| print!("{}", usage()) },
];

fn usage() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    let width = COMMANDS.iter().map(|c| c.name.len() + 1 + c.args.len()).max().unwrap_or(0);
    let mut out = format!("usage: repro [{}]\n\nsubcommands:\n", names.join("|"));
    for c in COMMANDS {
        let left =
            if c.args.is_empty() { c.name.to_string() } else { format!("{} {}", c.name, c.args) };
        out.push_str(&format!("  {left:width$}  {}\n", c.help));
    }
    out
}

/// `usage: repro <name> <args>` for one subcommand, from [`COMMANDS`].
fn usage_line(name: &str) -> String {
    let args = COMMANDS.iter().find(|c| c.name == name).map_or("", |c| c.args);
    format!("usage: repro {name} {args}").trim_end().to_string()
}

/// Prints `why` and the subcommand's usage line, then exits 2.
fn usage_exit(name: &str, why: &str) -> ! {
    eprintln!("repro {name}: {why}\n{}", usage_line(name));
    std::process::exit(2);
}

/// The optional numeric argument at position `i`: absent means
/// `default`; present but unparsable is an error, never the default.
fn parse_arg<T: std::str::FromStr, S: AsRef<str>>(
    args: &[S],
    i: usize,
    default: T,
) -> Result<T, String> {
    match args.get(i).map(AsRef::as_ref) {
        None => Ok(default),
        Some(s) => {
            s.parse().map_err(|_| format!("argument {} is not a valid number: {s:?}", i + 1))
        }
    }
}

/// [`parse_arg`], or the subcommand's usage line and exit 2.
fn num_arg<T: std::str::FromStr, S: AsRef<str>>(name: &str, args: &[S], i: usize, default: T) -> T {
    parse_arg(args, i, default).unwrap_or_else(|why| usage_exit(name, &why))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(|s| s.as_str()).unwrap_or("all");
    match COMMANDS.iter().find(|c| c.name == what) {
        Some(cmd) => (cmd.run)(&args[1..]),
        None => {
            let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
            eprintln!("unknown target '{what}'; expected {}", names.join("|"));
            std::process::exit(2);
        }
    }
}

fn serve(args: &[String]) {
    let port: u16 = num_arg("serve", args, 0, 0);
    let cfg = hec_serve::server::ServeConfig { port, ..Default::default() };
    let server = match hec_serve::server::start(cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("could not bind 127.0.0.1:{port}: {e}");
            std::process::exit(1);
        }
    };
    // The log line the CI smoke (and humans) parse for the bound port.
    println!("listening on {}", server.addr());
    println!("workers={} queue={} cache={}", cfg.workers, cfg.queue, cfg.cache_capacity);
    server.join();
    println!("serve: drained and stopped");
}

fn cluster(args: &[String]) {
    let replicas: usize = num_arg("cluster", args, 0, 3);
    let port: u16 = num_arg("cluster", args, 1, 0);
    let cfg = hec_cluster::ClusterConfig { replicas: replicas.max(1), port, ..Default::default() };
    let (replication, vnodes) = (cfg.replication, hec_cluster::DEFAULT_VNODES);
    let cluster = match hec_cluster::start(cfg) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("could not start the cluster on 127.0.0.1:{port}: {e}");
            std::process::exit(1);
        }
    };
    // Same log line the serve smoke parses for the bound port.
    println!("listening on {}", cluster.addr());
    for i in 0..cluster.replica_count() {
        match cluster.replica_addr(i) {
            Some(addr) => println!("replica {i} on {addr}"),
            None => println!("replica {i} down"),
        }
    }
    println!("replicas={} replication={replication} vnodes={vnodes}", cluster.replica_count());
    cluster.join();
    println!("cluster: drained and stopped");
}

fn kill(args: &[String]) {
    let (Some(url), Some(replica)) = (args.first(), args.get(1)) else {
        usage_exit("kill", "wants a router URL and a replica index");
    };
    let url = format!("{}/admin/kill?replica={replica}", url.trim_end_matches('/'));
    match hec_serve::client::http_post(&url, "") {
        Ok(r) if r.status == 200 => println!("killed replica {replica}"),
        Ok(r) => {
            eprintln!("unexpected status {} from {url}: {}", r.status, r.body.trim());
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("could not reach {url}: {e}");
            std::process::exit(1);
        }
    }
}

fn scale(args: &[String]) {
    let (Some(url), Some(dir)) = (args.first(), args.get(1)) else {
        usage_exit("scale", "wants a router URL and a direction");
    };
    // The router owns the down policy (drain the highest current member,
    // as the autoscaler does); either direction is one POST.
    let action = match dir.as_str() {
        "up" => "scale-up",
        "down" => "scale-down",
        other => usage_exit("scale", &format!("wants 'up' or 'down', got {other:?}")),
    };
    let url = format!("{}/admin/{action}", url.trim_end_matches('/'));
    match hec_serve::client::http_post(&url, "") {
        Ok(r) if r.status == 200 => print!("{}", r.body),
        Ok(r) => {
            eprintln!("{action} failed with status {}: {}", r.status, r.body.trim());
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("could not reach {url}: {e}");
            std::process::exit(1);
        }
    }
}

fn loadgen(args: &[String]) {
    let mut rate_rps = bench::loadgen::DEFAULT_RATE_RPS;
    let mut seed: u64 = bench::loadgen::DEFAULT_SEED;
    let mut positional: Vec<&String> = Vec::new();
    for a in args {
        if let Some(v) = a.strip_prefix("--rate=") {
            match v.parse::<f64>() {
                Ok(r) if r > 0.0 => rate_rps = r,
                _ => usage_exit("loadgen", &format!("--rate wants a positive number, got {v:?}")),
            }
        } else if let Some(v) = a.strip_prefix("--seed=") {
            match v.parse() {
                Ok(s) => seed = s,
                Err(_) => usage_exit("loadgen", &format!("--seed wants an integer, got {v:?}")),
            }
        } else {
            positional.push(a);
        }
    }
    let Some(url) = positional.first() else {
        usage_exit("loadgen", "wants a target URL");
    };
    let secs: u64 = num_arg("loadgen", &positional, 1, bench::loadgen::DEFAULT_SECS);
    let clients: usize = num_arg("loadgen", &positional, 2, bench::loadgen::DEFAULT_CLIENTS);
    let open = bench::loadgen::OpenLoop { rate_rps, seed };
    let errors = bench::loadgen::run(url, secs, clients, open);
    if errors > 0 {
        eprintln!("loadgen: {errors} error responses");
        std::process::exit(1);
    }
}

fn stop(args: &[String]) {
    let Some(url) = args.first() else {
        usage_exit("stop", "wants a serve or router URL");
    };
    let url = format!("{}/shutdown", url.trim_end_matches('/'));
    match hec_serve::client::http_post(&url, "") {
        Ok(r) if r.status == 200 => println!("stopping"),
        Ok(r) => {
            eprintln!("unexpected status {} from {url}", r.status);
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("could not reach {url}: {e}");
            std::process::exit(1);
        }
    }
}

fn report_all() {
    print!("{}", render::table1().render());
    println!();
    table2();
    println!();
    print!("{}", render::app_table(AppId::Fvcam).render());
    println!();
    print!("{}", render::fig3(&experiments::fvcam_rows(), &paper::FVCAM_PLATFORMS));
    println!();
    print!(
        "{}",
        render::fig4(
            &experiments::fvcam_rows(),
            &paper::FVCAM_PLATFORMS,
            fvcam::model::D_MESH_STEPS_PER_DAY
        )
    );
    println!();
    for app in [AppId::Gtc, AppId::Lbmhd, AppId::Paratec] {
        print!("{}", render::app_table(app).render());
        println!();
    }
    print!("{}", render::fig8(&experiments::fig8_apps(), &paper::PLATFORMS));
    println!();
    fig2(8);
}

fn table2() {
    // Count this repository's lines per application crate.
    let loc = |dir: &str| -> usize {
        fn walk(p: &std::path::Path, acc: &mut usize) {
            if let Ok(entries) = std::fs::read_dir(p) {
                for e in entries.flatten() {
                    let path = e.path();
                    if path.is_dir() {
                        walk(&path, acc);
                    } else if path.extension().is_some_and(|x| x == "rs") {
                        if let Ok(s) = std::fs::read_to_string(&path) {
                            *acc += s.lines().count();
                        }
                    }
                }
            }
        }
        let mut acc = 0;
        walk(std::path::Path::new(dir), &mut acc);
        acc
    };
    let ours = [
        ("FVCAM", loc("crates/fvcam")),
        ("LBMHD3D", loc("crates/lbmhd")),
        ("PARATEC", loc("crates/paratec")),
        ("GTC", loc("crates/gtc")),
    ];
    print!("{}", render::table2(&ours).render());
}

fn fig2(scale: usize) {
    eprintln!("capturing FVCAM traffic on a 1/{scale} D mesh (64 MPI ranks)...");
    let (m1, ranks) = experiments::fig2_traffic(1, scale);
    let (m2, _) = experiments::fig2_traffic(4, scale);
    print!("{}", render::fig2(&m1, &m2, ranks));
}

fn validate_all() {
    let cases = [
        ("Table 3 (FVCAM)", experiments::fvcam_rows(), paper::table3()),
        ("Table 4 (GTC)", experiments::gtc_rows(), paper::table4()),
        ("Table 5 (LBMHD3D)", experiments::lbmhd_rows(), paper::table5()),
        ("Table 6 (PARATEC)", experiments::paratec_rows(), paper::table6()),
    ];
    for (name, ours, published) in cases {
        let shape = validate::compare(&ours, &published);
        println!(
            "{name}: ordering agreement {:.0}%, typical factor {:.2}x over {} rows",
            shape.ordering * 100.0,
            shape.factor,
            shape.rows
        );
        print!("{}", validate::diff_table(name, &ours, &published));
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_names_are_unique_and_usage_lists_every_one() {
        let text = usage();
        for (i, c) in COMMANDS.iter().enumerate() {
            assert!(COMMANDS[..i].iter().all(|d| d.name != c.name), "duplicate {}", c.name);
            let row = format!("\n  {}", c.name);
            assert!(text.contains(&row), "usage() does not list {}", c.name);
        }
    }

    #[test]
    fn usage_line_comes_from_the_command_table() {
        assert_eq!(usage_line("cluster"), "usage: repro cluster <replicas> [port]");
        assert_eq!(usage_line("table5"), "usage: repro table5");
    }

    #[test]
    fn a_numeric_argument_is_its_value_its_default_or_an_error() {
        let args = ["http://h", "7", "2x"];
        assert_eq!(parse_arg(&args, 1, 5u64), Ok(7));
        assert_eq!(parse_arg(&args, 3, 5u64), Ok(5), "absent means the default");
        let err = parse_arg(&args, 2, 4usize).unwrap_err();
        assert!(err.contains("\"2x\"") && err.contains("argument 3"), "{err}");
        assert!(parse_arg(&["-1"], 0, 0u16).is_err(), "out of range is garbage too");
    }
}
