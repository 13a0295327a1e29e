//! The standing FarGo-RS benchmark (see README.md in this directory).
//!
//! ```text
//! fargo-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! fargo-benchmark all    [--seed <n>] [--seconds <s>]   every workload, a fresh process each
//! fargo-benchmark trace <workload> [--seed <n>] [--seconds <s>]   the layer table
//! fargo-benchmark repeat [--seed <n>] [--seconds <s>]   the full set twice, compared
//! ```
//!
//! The first form is what BENCHMARK.json's `command` runs: it prints
//! every metric by name with its unit, and as its last line one JSON
//! object `{correct, attempted, failed, metrics}`.

mod chunk;
mod cluster;
mod gen;
mod host;
mod probes;
mod run;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use run::{bound, Outcome, END_TO_END, PER_LAYER};
use workloads::WORKLOADS;

/// `run_seconds` of BENCHMARK.json, the default of `--seconds`.
const DEFAULT_SECONDS: u64 = 20;
/// Runs of every workload in each of the two sets of `repeat`, which
/// compares their medians as the driver compares those of its sets: two
/// single runs say little about a metric that has a spread.
const REPEAT_RUNS: u64 = 3;

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value("--trace")? == "1",
            "all" | "repeat" | "trace" if args.command.is_none() => args.command = Some(arg),
            name if args.command.as_deref() == Some("trace") && args.workload.is_none() => {
                args.workload = Some(name.to_owned());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nworkloads: {}", names().join(", "));
            return ExitCode::from(2);
        }
    };
    if host::nproc() < 2 {
        eprintln!("refusing to run on fewer than 2 CPUs: the load generator and the program would share one");
        return ExitCode::from(2);
    }
    match args.command.as_deref() {
        Some("all") => match run_set(args.seed, args.seconds, 1) {
            Some(_) => ExitCode::SUCCESS,
            None => ExitCode::FAILURE,
        },
        Some("repeat") => repeat(args.seed, args.seconds),
        _ => match &args.workload {
            Some(name) => run_one(name, &args),
            None => {
                eprintln!("name a workload: {}", names().join(", "));
                ExitCode::from(2)
            }
        },
    }
}

fn names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

/// One workload in this process: the run BENCHMARK.json's command asks for.
fn run_one(name: &str, args: &Args) -> ExitCode {
    let trace = args.trace || args.command.as_deref() == Some("trace");
    let Some(&w) = workloads::find(name) else {
        eprintln!(
            "unknown workload {name:?}; workloads: {}",
            names().join(", ")
        );
        return ExitCode::from(2);
    };
    let scratch = match host::init_scratch() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("cannot create scratch directory: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} trace={} seconds={}",
        w.name,
        u8::from(trace),
        args.seconds
    );
    println!("why: {}", w.why);
    println!("{}", host::describe(&scratch, args.seed));
    if w.wal && matches!(host::fs_type(&scratch).as_str(), "tmpfs" | "ramfs") {
        println!(
            "WARNING: scratch is on tmpfs, where fsync is free: core.wal.* and this workload's numbers do not compare with runs on a disk"
        );
    }
    let result = if trace {
        run::traced(w, args.seed, args.seconds, &scratch)
    } else {
        run::end_to_end(w, args.seed, args.seconds, &scratch)
    };
    host::remove_scratch();
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let listed: &[(&str, &str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    if report(&outcome, listed, trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints every listed metric, then the JSON result line. Returns
/// whether the run was correct.
fn report(outcome: &Outcome, listed: &[(&str, &str, &str)], trace: bool) -> bool {
    let mut complete = true;
    let mut json = Vec::with_capacity(listed.len());
    for (name, unit, _) in listed {
        let value = match outcome.metrics.get(name) {
            Some(s) if s.value.is_finite() => {
                println!(
                    "metric {name} {} {unit} min {} max {} n {}",
                    s.value, s.min, s.max, s.samples
                );
                s.value
            }
            // A layer this workload does not exercise reports 0; an
            // end-to-end metric must always be measured.
            _ => {
                complete &= trace;
                println!("metric {name} 0 {unit} min 0 max 0 n 0");
                0.0
            }
        };
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "result ops_attempted {} ops_failed {} fail_ratio {ratio}",
        outcome.attempted, outcome.failed
    );
    let correct = complete && outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        json.join(", ")
    );
    correct
}

type SetResult = BTreeMap<(String, String), f64>;

/// Runs every workload untraced `runs` times, a fresh process and
/// another seed each, and returns the median of every end-to-end metric
/// by `(workload, metric)`; `None` if any run failed.
fn run_set(seed: u64, seconds: u64, runs: u64) -> Option<SetResult> {
    let exe = std::env::current_exe().expect("own path");
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for (w, run) in WORKLOADS
        .iter()
        .flat_map(|w| (0..runs).map(move |r| (w, r)))
    {
        let output = Command::new(&exe)
            .args(["--workload", w.name, "--trace", "0"])
            .args([
                "--seed",
                &(seed + run).to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("run self");
        let stdout = String::from_utf8_lossy(&output.stdout);
        for line in stdout.lines() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            if matches!(fields[..], ["slices", ..]) || line.starts_with('{') {
                continue;
            }
            println!("{line}");
            if let ["metric", name, value, ..] = fields[..] {
                if let Ok(v) = value.parse() {
                    let key = (w.name.to_owned(), name.to_owned());
                    values.entry(key).or_default().push(v);
                }
            }
        }
        println!();
        ok &= output.status.success();
    }
    ok.then(|| {
        values
            .into_iter()
            .map(|(key, v)| (key, stats::median(&v)))
            .collect()
    })
}

/// By how much the worse of two values of a metric is worse than the
/// better one, as a share of the better one. End-to-end metrics are
/// never 0 or negative; a value that is disagrees with anything.
fn disagreement(a: f64, b: f64) -> f64 {
    if a > 0.0 && b > 0.0 {
        (a.max(b) - a.min(b)) / a.min(b)
    } else {
        f64::INFINITY
    }
}

/// Runs the full set twice on the same build, [`REPEAT_RUNS`] runs of
/// every workload a set, and holds the two medians of every end-to-end
/// metric of every workload to the metric's bound, whichever of the two
/// is the worse one.
fn repeat(seed: u64, seconds: u64) -> ExitCode {
    let runs = REPEAT_RUNS;
    let first = run_set(seed, seconds, runs);
    let second = run_set(seed, seconds, runs);
    let (Some(first), Some(second)) = (first, second) else {
        eprintln!("a run failed; nothing to compare");
        return ExitCode::FAILURE;
    };
    println!("repeat: two sets on the same build, medians of {runs} runs (seeds {seed}..), {seconds} s each");
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "differ", "bound"
    );
    let mut agree = first.len() == second.len();
    for ((workload, metric), a) in &first {
        let Some(b) = second.get(&(workload.clone(), metric.clone())) else {
            agree = false;
            continue;
        };
        let differ = disagreement(*a, *b);
        let within = differ <= bound(metric);
        agree &= within;
        println!(
            "{workload:<14} {metric:<22} {a:>14.3} {b:>14.3} {:>7.1}% {:>5.0}%{}",
            100.0 * differ,
            100.0 * bound(metric),
            if within { "" } else { "  DISAGREE" }
        );
    }
    if agree {
        println!("repeat: every pair agrees within its bound");
        ExitCode::SUCCESS
    } else {
        println!("repeat: at least one pair disagrees beyond its bound");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::disagreement;

    #[test]
    fn disagreement_is_symmetric_and_flags_zero() {
        assert_eq!(disagreement(100.0, 125.0), 0.25);
        assert_eq!(disagreement(125.0, 100.0), 0.25);
        assert_eq!(disagreement(3.0, 3.0), 0.0);
        assert_eq!(disagreement(0.0, 3.0), f64::INFINITY);
        assert_eq!(disagreement(0.0, 0.0), f64::INFINITY);
        assert!(disagreement(f64::NAN, 1.0) > 0.25);
    }
}
