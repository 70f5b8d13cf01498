//! perfbench: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <warm_wire|commit_mix> --seed N --seconds S --trace <0|1>
//! perfbench bless --seed N [--cap-seconds S]
//! ```
//!
//! A run generates its inputs from the seed, loads (or computes) the
//! reference answers, runs the workload and prints a human-readable
//! summary followed, on the last line, by one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones from the traced run. The same result, with the run
//! record, is written to `out/results/`. See `README.md`.

mod dataset;
mod reference;
mod stats;
mod traced;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use dataset::{Dataset, TARGET_FACTS};
use reference::{bench_dir, Reference};

const WORKLOADS: [&str; 2] = ["warm_wire", "commit_mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let f = flags(argv)?;
    if let Some(unknown) = f
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag '--{unknown}'"));
    }
    let workload = f.get("workload").ok_or("--workload is required")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let number = |name: &str| -> Result<f64, String> {
        let v = f.get(name).ok_or(format!("--{name} is required"))?;
        v.parse().map_err(|_| format!("bad --{name} '{v}'"))
    };
    let seed = f.get("seed").ok_or("--seed is required")?;
    Ok(Args {
        workload,
        seed: seed.parse().map_err(|_| format!("bad --seed '{seed}'"))?,
        seconds: number("seconds")?,
        trace: match f.get("trace").map(String::as_str) {
            Some("0") => false,
            Some("1") => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("bless") => return bless(&argv[1..]),
        Some("bless-one") => return bless_one(&argv[1..]),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    run(&args)
}

/// Flags of the form `--name value`, in any order.
fn flags(argv: &[String]) -> Result<std::collections::HashMap<String, String>, String> {
    let mut out = std::collections::HashMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a flag, got '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.insert(name.to_owned(), value.clone());
    }
    Ok(out)
}

fn bless(argv: &[String]) -> ExitCode {
    let parsed = flags(argv).and_then(|f| {
        let seed = f
            .get("seed")
            .and_then(|s| s.parse().ok())
            .ok_or("--seed N is required")?;
        let cap = f.get("cap-seconds").map_or(Ok(600.0), |s| {
            s.parse::<f64>().map_err(|_| "bad --cap-seconds")
        })?;
        Ok((seed, std::time::Duration::from_secs_f64(cap)))
    });
    match parsed.and_then(|(seed, cap)| reference::bless(seed, cap)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench bless: {e} (usage: perfbench bless --seed N [--cap-seconds S])");
            ExitCode::FAILURE
        }
    }
}

fn bless_one(argv: &[String]) -> ExitCode {
    let f = flags(argv).unwrap_or_default();
    let seed = f.get("seed").and_then(|s| s.parse().ok());
    let state = match f.get("state").map(String::as_str) {
        Some("full") => Some(dataset::AboxState::Full),
        Some("without") => Some(dataset::AboxState::Without),
        _ => None,
    };
    let shape = f.get("shape").and_then(|s| s.parse().ok());
    match (seed, state, shape) {
        (Some(seed), Some(state), Some(shape)) => {
            reference::bless_one(seed, state, shape);
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: perfbench bless-one --seed N --state full|without --shape I");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> ExitCode {
    let generated = Instant::now();
    let mut data = Dataset::generate(args.seed);
    let generate_s = generated.elapsed().as_secs_f64();
    let reference = Reference::for_dataset(&data);
    // Peak memory covers set-up and serving, not input generation or a
    // reference computed in this run.
    stats::reset_peak_rss();
    println!(
        "perfbench {} seed {}: {} facts, {} shapes ({} left out), {} toggled facts, reference {} ({:.2} s), generated in {:.3} s",
        args.workload,
        args.seed,
        data.abox.len(),
        data.timed.len(),
        dataset::LEFT_OUT.join(", "),
        data.toggled.len(),
        reference.origin,
        reference.compute_s,
        generate_s
    );

    let (metrics, note, tally) = if args.trace {
        let traced = traced::run(&args.workload, &mut data, &reference);
        let note = format!(
            "{} spans written to {}",
            traced.spans,
            traced.spans_path.display()
        );
        (traced.metrics, note, traced.tally)
    } else {
        let tally = match args.workload.as_str() {
            "warm_wire" => workloads::warm_wire(&mut data, &reference, args.seconds),
            _ => workloads::commit_mix(&mut data, &reference, args.seconds),
        };
        (tally.metrics(), tally.note(), tally)
    };

    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    let failed_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "  {:<28} {failed_ratio:>16.6} ratio ({} of {} failed)",
        "failed_ratio", tally.failed, tally.attempted
    );
    let latency = if args.trace {
        Vec::new()
    } else {
        tally.unbounded()
    };
    for (name, value, unit) in &latency {
        println!("  {name:<28} {value:>16.6} {unit} (not bounded)");
    }
    println!("  note: {note}");
    let per_shape: Vec<String> = (tally.by_shape.iter().zip(&data.shapes))
        .filter(|(v, _)| !v.is_empty())
        .map(|(v, s)| {
            format!(
                "{} {:.1}/{:.1}",
                s.name,
                stats::percentile(v, 0.0) * 1e3,
                stats::median(v) * 1e3
            )
        })
        .collect();
    if !per_shape.is_empty() {
        println!("  best/median ms by shape: {}", per_shape.join(", "));
    }
    for f in &tally.failures {
        println!("  FAILED {f}");
    }

    let record = run_record(args, &data, reference.origin);
    println!("  record: {record}");
    let metrics_json = metrics_json(&metrics);
    let correct = tally.failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics_json}}}",
        tally.attempted.max(1),
        tally.failed
    );
    let path = bench_dir().join("out").join("results").join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let latency: Vec<String> = latency
        .iter()
        .map(|(k, v, _)| format!("{}: {v}", json_str(k)))
        .collect();
    let full = format!(
        "{{\"record\": {record}, \"failed_ratio\": {failed_ratio}, \"latency_ms\": {{{}}}, \"note\": {}, \"result\": {result}}}\n",
        latency.join(", "),
        json_str(&note)
    );
    if let Err(e) = std::fs::create_dir_all(path.parent().expect("results dir"))
        .and_then(|()| std::fs::write(&path, full))
    {
        eprintln!("cannot write {}: {e}", path.display());
    }
    println!("{result}");
    ExitCode::SUCCESS
}

/// The conditions a result depends on. Comparison tooling refuses to
/// compare results whose records differ in anything but the commit.
fn run_record(args: &Args, data: &Dataset, reference_origin: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let fields: Vec<(&str, String)> = vec![
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("run_seconds", args.seconds.to_string()),
        ("nproc", nproc.to_string()),
        ("target_facts", TARGET_FACTS.to_string()),
        ("facts", data.abox.len().to_string()),
        ("shapes", data.timed.len().to_string()),
        ("layout", json_str("simple")),
        ("backend", json_str("native")),
        ("strategy", json_str("gdl, no time budget, constraints on")),
        (
            "flush_policy",
            json_str("group-commit WAL flushed per group, no fsync (sync_commits off)"),
        ),
        ("client_threads", "2".into()),
        ("reference", json_str(reference_origin)),
        ("git_commit", json_str(&env("PERFBENCH_GIT_COMMIT"))),
        ("source_digest", json_str(&env("PERFBENCH_SOURCE_DIGEST"))),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let mut out = String::from("{");
    for (k, (name, value, unit)) in metrics.iter().enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        let value = if value.is_finite() {
            value.to_string()
        } else {
            "null".into()
        };
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
