//! `benchmark` — run, trace and compare the repository benchmark.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--out-dir D]
//! benchmark run     --seed N --out F.json [--seconds S] [--out-dir D]
//! benchmark trace   --seed N --out F.json [--seconds S] [--out-dir D]
//! benchmark compare A.json… -- B.json…
//! ```
//!
//! The first form runs one workload in this process and prints, as its
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `run` and `trace` run every workload that way in child
//! processes and collect the results in one file; `compare` judges two
//! sets of such files against the bounds in the `BENCHMARK.json` the
//! binary was built with.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use folearn_benchmark::{metrics, report, run, RunOptions, Workload};

/// Where spans and scratch data go unless `--out-dir` says otherwise.
const OUT_DIR: &str = ".bench_out";
/// Nominal seconds per workload for `run` and `trace`.
const SECONDS: f64 = 15.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => drive_all(&args[1..], false),
        Some("trace") => drive_all(&args[1..], true),
        Some("compare") => compare(&args[1..]),
        Some(_) => one_workload(&args),
        None => Err(usage()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> String {
    "usage: benchmark --workload W --seed N --seconds S --trace 0|1 [--out-dir D]\n       \
     benchmark run|trace --seed N --out F.json [--seconds S] [--out-dir D]\n       \
     benchmark compare A.json… -- B.json…"
        .to_string()
}

/// `--flag value` pairs, checked against the flags a mode accepts.
fn flags<'a>(args: &'a [String], known: &[&str]) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?}\n{}", usage()));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.push((flag.as_str(), value.as_str()));
    }
    Ok(out)
}

fn value<'a>(pairs: &[(&str, &'a str)], flag: &str) -> Option<&'a str> {
    pairs
        .iter()
        .rev()
        .find(|(f, _)| *f == flag)
        .map(|(_, v)| *v)
}

fn parse<T: std::str::FromStr>(pairs: &[(&str, &str)], flag: &str) -> Result<Option<T>, String> {
    value(pairs, flag)
        .map(|v| v.parse().map_err(|_| format!("{flag}: bad value {v:?}")))
        .transpose()
}

fn seconds(pairs: &[(&str, &str)], default: Option<f64>) -> Result<f64, String> {
    let s = parse::<f64>(pairs, "--seconds")?
        .or(default)
        .ok_or("--seconds is required")?;
    if !(s.is_finite() && s > 0.0) {
        return Err(format!("--seconds must be positive, got {s}"));
    }
    Ok(s)
}

fn out_dir(pairs: &[(&str, &str)]) -> Result<PathBuf, String> {
    let dir = PathBuf::from(value(pairs, "--out-dir").unwrap_or(OUT_DIR));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// One workload in this process: the form `BENCHMARK.json`'s command
/// runs.
fn one_workload(args: &[String]) -> Result<bool, String> {
    let pairs = flags(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--out-dir"],
    )?;
    let name = value(&pairs, "--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = parse::<u64>(&pairs, "--seed")?.ok_or("--seed is required")?;
    let trace = match value(&pairs, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let opts = RunOptions {
        workload,
        seed,
        seconds: seconds(&pairs, None)?,
        trace,
        out_dir: out_dir(&pairs)?,
    };
    println!(
        "header: {}",
        report::header(seed, opts.seconds, &opts.out_dir).render()
    );
    let outcome = run(&opts)?;
    print!("{}", outcome.report);
    println!("{}", report::result_line(&outcome));
    Ok(true)
}

fn drive_all(args: &[String], trace: bool) -> Result<bool, String> {
    let pairs = flags(args, &["--seed", "--seconds", "--out", "--out-dir"])?;
    let seed = parse::<u64>(&pairs, "--seed")?.ok_or("--seed is required")?;
    let out = value(&pairs, "--out").ok_or("--out is required")?;
    report::run_all(
        seed,
        seconds(&pairs, Some(SECONDS))?,
        trace,
        &out_dir(&pairs)?,
        Path::new(out),
    )
}

fn compare(args: &[String]) -> Result<bool, String> {
    let (mut a, mut b, mut after_sep) = (Vec::new(), Vec::new(), false);
    for arg in args {
        match arg.as_str() {
            "--" => after_sep = true,
            file if after_sep => b.push(PathBuf::from(file)),
            file => a.push(PathBuf::from(file)),
        }
    }
    if a.is_empty() || b.is_empty() {
        return Err(format!(
            "compare needs run files on both sides of `--`\n{}",
            usage()
        ));
    }
    report::compare(&a, &b, metrics::declared())
}
