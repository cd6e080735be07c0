//! `ledger` — one served-query benchmark for cpqx: four workloads, the
//! same end-to-end metrics on each, and per-layer metrics from a
//! separate traced run. README.md has the vocabulary and the method.
//!
//! ```text
//! ledger                                   all four workloads, tables + one JSON line each
//! ledger --workload W --seed N --seconds S --trace 0|1     one workload; last line is its JSON
//! ledger --repeat N                        N sets on seeds seed..seed+N, spread table
//! ledger --smoke                           everything at ~1/50 scale, same checks
//! ```

mod check;
mod inputs;
mod layers;
mod load;
mod names;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use workloads::{Metric, RunResult, Sizes, NOMINAL_SECONDS, WORKLOADS};

/// `<workload> <input_digest>` of the default seed at the nominal size;
/// a mismatch means a generator outside this directory changed the
/// workload.
const INPUTS_LOCK: &str = include_str!("../inputs.lock");

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.to_vec(),
        seed: inputs::DEFAULT_SEED,
        seconds: NOMINAL_SECONDS,
        trace: false,
        repeat: 1,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number =
            |v: &String| v.parse::<u64>().map_err(|_| format!("{flag}: not a number: {v}"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let known = WORKLOADS.iter().find(|w| **w == v.as_str());
                args.workloads = vec![known.ok_or(format!("unknown workload {v}"))?];
            }
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => args.trace = number(value()?)? != 0,
            "--repeat" => args.repeat = number(value()?)?.max(1) as usize,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() {
    // One core for everything (README, "One core"): the program's
    // threads and the load generator share one CPU, and the program
    // sizes itself for one CPU. Set before any thread is spawned. The
    // highest-numbered CPU the kernel accepts: device interrupts and
    // kernel threads favour CPU 0.
    if !(0..1024).rev().any(|cpu| sys::pin_current_thread(&[cpu])) {
        eprintln!("ledger: could not pin to one CPU; timings will be noisier");
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            std::process::exit(2);
        }
    };
    let ok = if args.repeat > 1 { repeat(&args) } else { run_all(&args).0 };
    std::process::exit(if ok { 0 } else { 1 });
}

/// Where `trace.json` and `layers.txt` go.
fn out_dir(workload: &str) -> PathBuf {
    workloads::exe_dir().join("ledger-out").join(workload)
}

/// One set: every selected workload once. Returns whether all were
/// correct, and the end-to-end results.
fn run_all(args: &Args) -> (bool, Vec<RunResult>) {
    let sizes = Sizes::new(args.seconds, args.smoke);
    let mut all_ok = true;
    let mut results = Vec::new();
    for &w in &args.workloads {
        let r = workloads::run(w, args.seed, sizes);
        let mut problems = r.invalid.clone();
        problems.extend(lock_problem(&r, args));
        let mut tally = r.tally;
        let mut layer_metrics = Vec::new();
        if args.trace {
            let dir = out_dir(w);
            let l = layers::run(w, args.seed, sizes, &dir);
            eprintln!(
                "traced run: {} spans, trace.json and layers.txt in {}",
                l.spans,
                dir.display()
            );
            tally.add(&l.tally);
            layer_metrics = l.metrics;
        }
        let mismatched = tally.mismatched;
        let correct = problems.is_empty() && mismatched == 0;
        all_ok &= correct;

        println!("== {w}  seed {}  input_digest {:016x}", args.seed, r.input_digest);
        print_table(&r.metrics);
        print_table(&layer_metrics);
        println!(
            "requests: attempted {} failed {} (error frames {}, busy {}, transport {}, \
             mismatched {}, over limit {})",
            tally.attempted,
            tally.failed(),
            tally.errors,
            tally.busy,
            tally.transport,
            tally.mismatched,
            tally.over_limit
        );
        for p in &problems {
            println!("INVALID: {p}");
        }
        let reported: Vec<Metric> = if args.trace {
            names::PER_LAYER
                .iter()
                .map(|&(name, unit, _)| {
                    let value = r.get(name).or_else(|| find(&layer_metrics, name)).unwrap_or(0.0);
                    workloads::metric(name, unit, value)
                })
                .collect()
        } else {
            names::END_TO_END
                .iter()
                .map(|&(name, unit, ..)| {
                    workloads::metric(name, unit, r.get(name).expect("every workload reports it"))
                })
                .collect()
        };
        println!("{}", json_line(correct, tally.attempted, tally.failed(), &reported));
        results.push(r);
    }
    (all_ok, results)
}

fn find(metrics: &[Metric], name: &str) -> Option<f64> {
    metrics.iter().find(|m| m.name == name).map(|m| m.value)
}

fn print_table(metrics: &[Metric]) {
    for m in metrics {
        println!("{:<34} {:>16.4} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
}

/// At the default seed and nominal size the inputs must be the pinned
/// ones; other seeds and sizes only report their digest.
fn lock_problem(r: &RunResult, args: &Args) -> Option<String> {
    if args.seed != inputs::DEFAULT_SEED || args.seconds != NOMINAL_SECONDS || args.smoke {
        return None;
    }
    let pinned = INPUTS_LOCK.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        (parts.next() == Some(r.workload)).then(|| parts.next().unwrap_or("").to_string())
    });
    let actual = format!("{:016x}", r.input_digest);
    (pinned.as_deref() != Some(actual.as_str())).then(|| {
        format!(
            "the workload changed: input_digest {actual} differs from inputs.lock ({}) — a \
             generator outside ledger/ moved; metrics no longer compare with earlier runs",
            pinned.as_deref().unwrap_or("no entry")
        )
    })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// Noise mode: `--repeat N` runs N sets on seeds `seed..seed+N` (what
/// the acceptance harness varies), each run in a process of its own as
/// the harness does (so `peak_rss_mb` is one run's), and prints, per
/// workload × end-to-end metric, median, quartiles and
/// `(q3 − q1) / median`.
fn repeat(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("current_exe");
    let mut values: BTreeMap<(&'static str, String), Vec<f64>> = BTreeMap::new();
    let mut all_ok = true;
    for i in 0..args.repeat as u64 {
        for &w in &args.workloads {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", w, "--seed", &(args.seed + i).to_string()]);
            cmd.args(["--seconds", &args.seconds.to_string()]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let out = cmd.output().expect("run ledger");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or("");
            eprintln!("{w} seed {}: {line}", args.seed + i);
            all_ok &= out.status.success();
            for (name, value) in metrics_of(line) {
                values.entry((w, name)).or_default().push(value);
            }
        }
    }
    println!(
        "== spread over {} sets (seeds {}..{})",
        args.repeat,
        args.seed,
        args.seed + args.repeat as u64
    );
    println!(
        "{:<14} {:<24} {:>14} {:>14} {:>14} {:>8}",
        "workload", "metric", "median", "q1", "q3", "spread"
    );
    for ((workload, name), v) in &values {
        let s = stats::spread(v);
        println!(
            "{workload:<14} {name:<24} {:>14.4} {:>14.4} {:>14.4} {:>7.1}%",
            s.median,
            s.q1,
            s.q3,
            s.rel * 100.0
        );
    }
    all_ok
}

/// `(name, value)` of every metric in a line written by [`json_line`].
fn metrics_of(line: &str) -> Vec<(String, f64)> {
    let Some((_, metrics)) = line.split_once("\"metrics\": {") else {
        return Vec::new();
    };
    metrics
        .split("\"}")
        .filter_map(|entry| {
            let (name, rest) = entry.split_once("\": {\"value\": ")?;
            let name = name.rsplit('"').next()?;
            let value = rest.split(',').next()?.parse().ok()?;
            Some((name.to_string(), value))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let line = json_line(
            true,
            1000,
            0,
            &[
                workloads::metric("qps", "1/s", 1234.5678),
                workloads::metric("setup_s", "s", f64::NAN),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"qps\": {\"value\": 1234.5678, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn the_result_line_reads_back() {
        let metrics =
            [workloads::metric("qps", "1/s", 1234.5678), workloads::metric("setup_s", "s", 0.25)];
        let line = json_line(true, 10, 0, &metrics);
        assert_eq!(
            metrics_of(&line),
            vec![("qps".to_string(), 1234.5678), ("setup_s".to_string(), 0.25)]
        );
        assert!(metrics_of("no result here").is_empty());
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload mixed-rw --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workloads.as_slice(), a.seed, a.seconds, a.trace),
            (&["mixed-rw"][..], 7, 3, true)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--frobnicate")).is_err());
    }

    /// `BENCHMARK.json` (one directory up) and [`names`] list the same
    /// metrics, units and directions, and the four workloads.
    #[test]
    fn benchmark_json_names_what_ledger_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for w in WORKLOADS {
            assert!(json.contains(&format!("{{\"name\": \"{w}\"")), "workload {w}");
        }
        for (name, unit, better, bound) in names::END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(json.contains(&entry), "end_to_end entry {entry}");
        }
        for (name, unit, better) in names::PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "per_layer entry {entry}");
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            names::END_TO_END.len() + names::PER_LAYER.len()
        );
    }

    /// The whole binary at ~1/50 scale: every workload, end-to-end and
    /// traced, every answer checked.
    #[test]
    fn smoke() {
        let args = Args {
            workloads: WORKLOADS.to_vec(),
            seed: inputs::DEFAULT_SEED,
            seconds: NOMINAL_SECONDS,
            trace: true,
            repeat: 1,
            smoke: true,
        };
        let (ok, results) = run_all(&args);
        assert!(ok, "a smoke run was incorrect or invalid");
        for r in &results {
            assert_eq!(r.tally.failed(), 0, "{}: {:?}", r.workload, r.tally);
        }
    }
}
