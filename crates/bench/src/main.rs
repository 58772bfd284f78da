//! `repro` — regenerates every table, figure and exact artifact of the
//! paper, and hosts the prediction service and its cluster.
//!
//! Run `repro help` for the full subcommand list; it is derived from the
//! same table that drives dispatch and the unknown-subcommand error, so
//! the three can never drift apart. The tables and figures are names
//! given to `repro report`, from [`SECTIONS`].

use std::num::NonZeroUsize;

use bench::{experiments, render, validate};
use hec_serve::engine::{self, AppId};
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
        name: "fig2",
        args: "[mesh-divisor]",
        help: "FVCAM point-to-point traffic matrices (default divisor 8; 1 = full D mesh)",
        run: |args| fig2(num_arg("fig2", args, 0, FIG2_DIVISOR)),
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
        name: "post",
        args: "<url> <path>",
        help: "POST one path to a serve or router instance and print the answer \
               (/shutdown, /admin/scale-up, /admin/kill?replica=0, ...)",
        run: |args| post(args),
    },
    Cmd {
        name: "report",
        args: "[name...]",
        help: "print the named tables and figures (names below; none = all), no artifacts written",
        run: |args| report(args),
    },
    Cmd {
        name: "all",
        args: "[dir]",
        help: "regenerate every artifact (tables, canon, profiles) into one stamped dir",
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

/// Mesh divisor of the Figure 2 capture, for `repro fig2` with no
/// argument and for the `fig2` section of `repro report` alike.
const FIG2_DIVISOR: usize = 8;

/// One table or figure of the paper: the name `repro report` accepts
/// and the printer behind it.
struct Section {
    name: &'static str,
    print: fn(),
}

/// Every table and figure, in the order `repro report` prints them:
/// the paper's, except that Figure 2 — the only section that runs a
/// capture instead of evaluating a model — comes last.
const SECTIONS: &[Section] = &[
    Section { name: "table1", print: || print!("{}", render::table1().render()) },
    Section { name: "table2", print: table2 },
    Section { name: "table3", print: || print!("{}", render::app_table(AppId::Fvcam).render()) },
    Section {
        name: "fig3",
        print: || print!("{}", render::fig3(&engine::rows(AppId::Fvcam), &paper::FVCAM_PLATFORMS)),
    },
    Section {
        name: "fig4",
        print: || {
            print!(
                "{}",
                render::fig4(
                    &engine::rows(AppId::Fvcam),
                    &paper::FVCAM_PLATFORMS,
                    fvcam::model::D_MESH_STEPS_PER_DAY
                )
            )
        },
    },
    Section { name: "table4", print: || print!("{}", render::app_table(AppId::Gtc).render()) },
    Section { name: "table5", print: || print!("{}", render::app_table(AppId::Lbmhd).render()) },
    Section { name: "table6", print: || print!("{}", render::app_table(AppId::Paratec).render()) },
    Section {
        name: "fig8",
        print: || print!("{}", render::fig8(&experiments::fig8_apps(), &paper::PLATFORMS)),
    },
    Section { name: "fig2", print: || fig2(FIG2_DIVISOR) },
];

/// The sections `repro report <names>` prints: all of them for no
/// names, else the named ones in the order given.
fn select_sections(names: &[String]) -> Result<Vec<&'static Section>, String> {
    if names.is_empty() {
        return Ok(SECTIONS.iter().collect());
    }
    names
        .iter()
        .map(|n| {
            SECTIONS.iter().find(|s| s.name == n).ok_or_else(|| {
                let valid: Vec<&str> = SECTIONS.iter().map(|s| s.name).collect();
                format!("unknown table or figure {n:?}; expected {}", valid.join("|"))
            })
        })
        .collect()
}

fn report(names: &[String]) {
    let sections = select_sections(names).unwrap_or_else(|why| usage_exit("report", &why));
    for (i, s) in sections.iter().enumerate() {
        if i > 0 {
            println!();
        }
        (s.print)();
    }
}

fn usage() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    let width = COMMANDS.iter().map(|c| c.name.len() + 1 + c.args.len()).max().unwrap_or(0);
    let mut out = format!("usage: repro [{}]\n\nsubcommands:\n", names.join("|"));
    for c in COMMANDS {
        let left =
            if c.args.is_empty() { c.name.to_string() } else { format!("{} {}", c.name, c.args) };
        out.push_str(&format!("  {left:width$}  {}\n", c.help));
    }
    let sections: Vec<&str> = SECTIONS.iter().map(|s| s.name).collect();
    out.push_str(&format!("\nreport names: {}\n", sections.join(" ")));
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
            s.parse().map_err(|_| format!("argument {} is not a number in range: {s:?}", i + 1))
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
    // The log line scripts/ci.sh (and humans) parse for the bound port.
    println!("listening on {}", server.addr());
    println!("workers={} queue={} cache={}", cfg.workers, cfg.queue, cfg.cache_capacity);
    server.join();
    println!("serve: drained and stopped");
}

fn cluster(args: &[String]) {
    // NonZero: a cluster of no replicas is garbage, not a request for one.
    let replicas: NonZeroUsize =
        num_arg("cluster", args, 0, NonZeroUsize::new(3).expect("3 is nonzero"));
    let port: u16 = num_arg("cluster", args, 1, 0);
    let cfg = hec_cluster::ClusterConfig { replicas: replicas.get(), port, ..Default::default() };
    let (replication, vnodes) = (cfg.replication, hec_cluster::DEFAULT_VNODES);
    let cluster = match hec_cluster::start(cfg) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("could not start the cluster on 127.0.0.1:{port}: {e}");
            std::process::exit(1);
        }
    };
    // Same log line as `repro serve`.
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

/// `repro post <url> <path>`: one POST, the body on stdout, exit 1
/// unless the answer is 200.
fn post(args: &[String]) {
    let (Some(url), Some(path)) = (args.first(), args.get(1)) else {
        usage_exit("post", "wants a serve or router URL and a path");
    };
    if !path.starts_with('/') {
        usage_exit("post", &format!("the path must start with '/', got {path:?}"));
    }
    let url = format!("{}{path}", url.trim_end_matches('/'));
    match hec_serve::client::http_post(&url, "") {
        Ok(r) if r.status == 200 => print!("{}", r.body),
        Ok(r) => {
            eprintln!("status {} from {url}: {}", r.status, r.body.trim());
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("could not reach {url}: {e}");
            std::process::exit(1);
        }
    }
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
        ("Table 3 (FVCAM)", engine::rows(AppId::Fvcam), paper::table3()),
        ("Table 4 (GTC)", engine::rows(AppId::Gtc), paper::table4()),
        ("Table 5 (LBMHD3D)", engine::rows(AppId::Lbmhd), paper::table5()),
        ("Table 6 (PARATEC)", engine::rows(AppId::Paratec), paper::table6()),
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
        assert_eq!(usage_line("post"), "usage: repro post <url> <path>");
        assert_eq!(usage_line("validate"), "usage: repro validate");
    }

    #[test]
    fn report_takes_unique_section_names_and_defaults_to_all_in_paper_order() {
        let names = |v: Vec<&Section>| v.iter().map(|s| s.name).collect::<Vec<_>>();
        let all = names(select_sections(&[]).unwrap());
        assert_eq!(
            all,
            [
                "table1", "table2", "table3", "fig3", "fig4", "table4", "table5", "table6", "fig8",
                "fig2"
            ]
        );
        for (i, n) in all.iter().enumerate() {
            assert!(!all[..i].contains(n), "duplicate section {n}");
            assert!(usage().contains(&format!(" {n}")), "usage() does not list {n}");
        }
        let pick = ["table5".to_string(), "fig3".to_string()];
        assert_eq!(names(select_sections(&pick).unwrap()), ["table5", "fig3"], "order as given");
        // What `report` hands to usage_exit: the bad name and the valid ones.
        let why = select_sections(&["table5".to_string(), "table7".to_string()]).err().unwrap();
        assert!(why.contains("\"table7\"") && why.contains("table1|table2|"), "{why}");
    }

    #[test]
    fn a_numeric_argument_is_its_value_its_default_or_an_error() {
        let args = ["http://h", "7", "2x"];
        assert_eq!(parse_arg(&args, 1, 5u64), Ok(7));
        assert_eq!(parse_arg(&args, 3, 5u64), Ok(5), "absent means the default");
        let err = parse_arg(&args, 2, 4usize).unwrap_err();
        assert!(err.contains("\"2x\"") && err.contains("argument 3"), "{err}");
        assert!(parse_arg(&["-1"], 0, 0u16).is_err(), "out of range is garbage too");
        // `repro cluster 0`: no replicas is an error, not a cluster of one.
        assert!(parse_arg(&["0"], 0, NonZeroUsize::MIN).is_err());
        assert_eq!(parse_arg(&["2"], 0, NonZeroUsize::MIN).map(NonZeroUsize::get), Ok(2));
    }
}
