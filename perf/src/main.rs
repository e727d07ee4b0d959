//! `tag-perf`: the repo's benchmark. One harness, four seeded workloads,
//! named end-to-end and per-layer metrics for `syn → exec → gen`.
//!
//! ```text
//! tag-perf --workload <name> --seed S --seconds T --trace 0|1 [--out F.json]
//! tag-perf all --seed S [--seconds T] [--out F.json]
//! tag-perf compare A.json B.json
//! ```
//!
//! See `perf/README.md` for the workloads, the metric glossary and the
//! API-surface rule that lets later PRs delete code without breaking this.

mod compare;
mod digest;
mod json;
mod metrics;
mod paper_replay;
mod probes;
mod questions;
mod rng;
mod rss;
mod serve;
mod spans;
mod sql_scale;
mod stats;
mod timed_lm;
mod twin;

use metrics::Report;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

pub const WORKLOADS: [&str; 4] = ["serve_cold", "serve_hot", "sql_scale", "paper_replay"];
/// `run_seconds` of `/BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// One run's settings.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A fiftieth of the work, floors off, no result line.
    pub smoke: bool,
    pub write_digests: bool,
    pub check_digests: bool,
    pub out: Option<PathBuf>,
}

impl Config {
    /// The noise floor on the timed section behind the end-to-end metrics.
    pub fn check_timed_section(&self, elapsed: f64) -> Result<(), String> {
        if self.smoke || elapsed >= stats::MIN_TIMED_SECONDS {
            Ok(())
        } else {
            Err(format!(
                "timed section of {elapsed:.2} s is under the {} s noise floor: no timing metric is emitted (use --smoke for a quick look)",
                stats::MIN_TIMED_SECONDS
            ))
        }
    }

    /// Op-count floors shrink fifty-fold under `--smoke`.
    pub fn min_ops(&self, n: usize) -> usize {
        if self.smoke {
            n.div_ceil(50)
        } else {
            n
        }
    }

    /// Set-ups a run makes and times (the traced run reports no `setup_s`).
    pub fn setups(&self) -> usize {
        if self.trace {
            1
        } else {
            3
        }
    }

    pub fn spans_path(&self) -> PathBuf {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
            .join(format!("{}.spans.jsonl", self.workload))
    }
}

/// What a workload hands back.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub report: Report,
    pub notes: Vec<String>,
}

fn usage() -> String {
    format!(
        "usage: tag-perf --workload <{}> --seed <n> [--seconds <s>] [--trace 0|1]\n\
         \x20               [--smoke] [--out F.json] [--write-digests | --check-digests]\n\
         \x20      tag-perf all --seed <n> [--seconds <s>] [--out F.json]\n\
         \x20      tag-perf compare A.json B.json",
        WORKLOADS.join("|")
    )
}

fn parse_run_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        write_digests: false,
        check_digests: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cfg.workload = value()?.clone(),
            "--seed" => {
                cfg.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_owned())?
            }
            "--seconds" => {
                cfg.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_owned())?
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => cfg.out = Some(PathBuf::from(value()?)),
            "--smoke" => cfg.smoke = true,
            "--write-digests" => cfg.write_digests = true,
            "--check-digests" => cfg.check_digests = true,
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    if cfg.smoke {
        cfg.seconds /= 50.0;
        stats::disable_floors();
    }
    Ok(cfg)
}

/// The record of one run: the driver's result line plus what identifies
/// the run, so that `compare` can pair runs up.
fn record(cfg: &Config, outcome: &Outcome) -> String {
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},{}",
        json::quote(&cfg.workload),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        &result_line(outcome)[1..]
    )
}

fn result_line(outcome: &Outcome) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        outcome.report.json()
    )
}

fn run(cfg: &Config) -> Result<(), String> {
    let outcome = match cfg.workload.as_str() {
        "serve_cold" | "serve_hot" => serve::run(cfg)?,
        "sql_scale" => sql_scale::run(cfg)?,
        "paper_replay" => paper_replay::run(cfg)?,
        other => return Err(format!("unknown workload {other:?}\n{}", usage())),
    };
    if outcome.attempted == 0 {
        return Err("no operation was attempted".to_owned());
    }
    outcome.report.validate(cfg.trace)?;
    println!(
        "workload {} seed {} seconds {} trace {}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for line in outcome.report.lines() {
        println!("{line}");
    }
    for note in &outcome.notes {
        println!("note: {note}");
    }
    println!(
        "attempted {} failed {} fail_ratio {} correct {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted as f64,
        outcome.failed == 0
    );
    if cfg.smoke {
        // Not a result line: nothing downstream can mistake this for a
        // measurement.
        println!("SMOKE: not comparable");
        return Ok(());
    }
    if let Some(path) = &cfg.out {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("opening {}: {e}", path.display()))?;
        writeln!(f, "{}", record(cfg, &outcome))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!("{}", result_line(&outcome));
    Ok(())
}

/// Run every workload, untraced then traced, each in a process of its
/// own (so that `peak_rss_mb` means something), and merge their records.
fn all(args: &[String]) -> Result<(), String> {
    let base = parse_run_args(args)?;
    if !base.workload.is_empty() {
        return Err("`all` runs every workload; drop --workload".to_owned());
    }
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut records = Vec::new();
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", workload, "--trace", trace]);
            cmd.args([
                "--seed",
                &base.seed.to_string(),
                "--seconds",
                &base.seconds.to_string(),
            ]);
            if let Some(out) = &base.out {
                cmd.arg("--out").arg(out);
            }
            // `output` waits for the child to end.
            let output = cmd
                .output()
                .map_err(|e| format!("starting {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            let last = stdout.lines().last().unwrap_or("");
            if !output.status.success() || json::parse(last).is_err() {
                print!("{stdout}");
                return Err(format!(
                    "{workload} --trace {trace} failed ({})",
                    output.status
                ));
            }
            for line in stdout.lines().filter(|l| !l.starts_with('{')) {
                println!("{line}");
            }
            records.push(format!(
                "{{\"workload\":{},\"trace\":{trace},\"result\":{last}}}",
                json::quote(workload)
            ));
        }
    }
    println!(
        "{{\"seed\":{},\"seconds\":{},\"runs\":[{}]}}",
        base.seed,
        base.seconds,
        records.join(",")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("all") => all(&args[1..]),
        Some(_) => parse_run_args(&args).and_then(|cfg| run(&cfg)),
        None => Err(usage()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tag-perf: {e}");
            ExitCode::FAILURE
        }
    }
}
