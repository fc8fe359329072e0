//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--scale tiny] [--inject-mismatch]
//! perfbench compare [--bounds BENCHMARK.json] --base RECORD... --new RECORD...
//! ```
//!
//! A run prints its full record, then the result line last, and saves
//! the record under `out/` in this package. It exits 1 when any output
//! was wrong, 2 on bad arguments. `compare` exits 1 on a regression
//! beyond a bound and 3 when the two sides ran on different inputs or
//! hosts.

use ipr_perfbench::host::Fingerprint;
use ipr_perfbench::inputs::{Scale, Workload};
use ipr_perfbench::report::{self, Record, Verdict};
use ipr_perfbench::run::{self, Config};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload corpus|large_text|release_chain --seed N --seconds S --trace 0|1");
    eprintln!(
        "       perfbench compare [--bounds BENCHMARK.json] --base RECORD... --new RECORD..."
    );
    ExitCode::from(2)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare(&args[1..]);
    }
    let pinned_cpu = ipr_perfbench::host::pin_to_one_cpu();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::full();
    let mut inject_mismatch = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_default();
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value()),
            "--seed" => seed = value().parse::<u64>().ok(),
            "--seconds" => seconds = value().parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => {
                trace = match value().as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--scale" => match value().as_str() {
                "tiny" => scale = Scale::tiny(),
                "full" => scale = Scale::full(),
                other => return usage(&format!("unknown scale `{other}`")),
            },
            "--inject-mismatch" => inject_mismatch = true,
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let out = out_dir();
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        scale,
        inject_mismatch,
        work_dir: run::work_dir(&out),
    };
    let outcome = match run::run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let host = Fingerprint::collect(outcome.engine_threads, pinned_cpu);
    let record = report::record(&cfg, &outcome, &host);
    let stem = format!("{}-seed{}-trace{}", workload.name(), seed, u8::from(trace));
    let saved = std::fs::write(out.join(format!("{stem}.json")), format!("{record}\n"));
    if let Err(e) = saved {
        eprintln!("perfbench: cannot save the record: {e}");
    }
    if let Some(spans) = &outcome.span_dump {
        let _ = std::fs::write(out.join(format!("{stem}-spans.json")), spans);
    }
    for m in &outcome.metrics {
        eprintln!("{:>34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{record}");
    println!("{}", report::result_line(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} operations failed",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}

fn compare(args: &[String]) -> ExitCode {
    let mut bounds_path = PathBuf::from("BENCHMARK.json");
    let (mut base, mut new) = (Vec::new(), Vec::new());
    let mut side: Option<&mut Vec<Record>> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bounds" => match it.next() {
                Some(p) => bounds_path = PathBuf::from(p),
                None => return usage("--bounds needs a path"),
            },
            "--base" => side = Some(&mut base),
            "--new" => side = Some(&mut new),
            path => {
                let Some(list) = side.as_deref_mut() else {
                    return usage("name --base or --new before record files");
                };
                match std::fs::read_to_string(path)
                    .map_err(|e| e.to_string())
                    .and_then(|t| {
                        let line = t.lines().find(|l| l.contains(report::SCHEMA)).unwrap_or("");
                        Record::parse(line)
                    }) {
                    Ok(r) => list.push(r),
                    Err(e) => return usage(&format!("{path}: {e}")),
                }
            }
        }
    }
    if base.is_empty() || new.is_empty() {
        return usage("compare needs records on both sides");
    }
    let bounds = match std::fs::read_to_string(&bounds_path)
        .map_err(|e| e.to_string())
        .and_then(|t| report::parse_bounds(&t))
    {
        Ok(b) => b,
        Err(e) => return usage(&format!("{}: {e}", bounds_path.display())),
    };
    let verdict = report::compare(&bounds, &base, &new);
    match &verdict {
        Verdict::InputsDiffer(why) => {
            println!("inputs differ, no verdict: {why}");
            ExitCode::from(3)
        }
        Verdict::HostDiffers(why) => {
            println!("hosts differ, no verdict: {why}");
            ExitCode::from(3)
        }
        Verdict::Compared(rows) => {
            for r in rows {
                let flag = if r.regressed { "REGRESSION" } else { "ok" };
                println!(
                    "{:>28} base {:>12.4} new {:>12.4} worse by {:>+8.1}% (bound {:>4.1}%) {flag}",
                    r.name,
                    r.base,
                    r.new,
                    r.worse_by * 100.0,
                    r.bound * 100.0
                );
            }
            if verdict.regressions() > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
    }
}
