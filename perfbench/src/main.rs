//! The repository's benchmark: time to verdict for live checking and the
//! serve path, plus a per-layer split from a separate span run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tealeaf_live|serve_loopback> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones, and the span run writes its spans to
//! `.perfbench-out/`. `src/catalog.rs` lists every metric.

mod catalog;
mod live;
mod report;
mod serve;
mod spans;
mod stats;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The benchmark's workloads.
const WORKLOADS: [&str; 2] = ["tealeaf_live", "serve_loopback"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds}: expected 0 < s <= 120"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The commit the benchmark was built from, read from `.git` without
/// running git; `"unknown"` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(PathBuf::from(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(refname)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(refname))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn run(args: &Args) -> Report {
    let origin = Instant::now();
    let (app, seconds) = (args.workload.as_str(), args.seconds);
    let (mut report, spans) = match (app, args.trace) {
        ("tealeaf_live", false) => (live::end_to_end(&live::App::tealeaf_live(), seconds), None),
        ("serve_loopback", false) => (serve::end_to_end(args.seed, seconds), None),
        ("tealeaf_live", true) => {
            let (r, s) = live::span_run(&live::App::tealeaf_live(), seconds, origin);
            (r, Some(s))
        }
        _ => {
            let (r, s) = serve::span_run(args.seed, seconds, origin);
            (r, Some(s))
        }
    };
    if let Some(spans) = spans {
        report.set(
            "failed_share",
            stats::failed_share(report.failed, report.attempted),
        );
        let path = PathBuf::from(".perfbench-out").join(format!(
            "spans-{}-seed{}-{}.jsonl",
            args.workload,
            args.seed,
            std::process::id()
        ));
        match spans.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    report.note("workload", format!("\"{}\"", args.workload));
    report.note("seed", args.seed.to_string());
    report.note("seconds", args.seconds.to_string());
    report.note("trace", u8::from(args.trace).to_string());
    report.note(
        "hw_threads",
        std::thread::available_parallelism()
            .map_or(0, |n| n.get())
            .to_string(),
    );
    report.note("git_revision", format!("\"{}\"", git_revision()));
    report
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run(&args);
    print!("{}", report.render(args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload serve_loopback --seed 7 --seconds 12 --trace 1").expect("valid");
        assert_eq!(a.workload, "serve_loopback");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload jacobi_live --seed 1").is_err());
        assert!(args("--workload tealeaf_live").is_err());
        assert!(args("--workload tealeaf_live --seed 1 --trace 2").is_err());
    }
}
