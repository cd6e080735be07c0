//! Offline stand-in for the `criterion` crate.
//!
//! The build environment cannot reach crates.io, so this workspace-local
//! package provides the API subset the bench targets use: [`Criterion`],
//! [`BenchmarkId`], benchmark groups, `Bencher::iter`, and the
//! [`criterion_group!`]/[`criterion_main!`] macros. Measurements are plain
//! wall-clock timings (median of per-iteration averages over a few batches)
//! printed to stdout — no statistics, plots or baselines. Bench binaries
//! must set `harness = false`, exactly as with upstream criterion.
//!
//! Environment knobs: `CRITERION_SHIM_BATCHES` (default 5) and
//! `CRITERION_SHIM_MIN_ITERS` (default 1) trade precision for runtime.
//!
//! Like upstream, the generated `main` takes a name filter: the first
//! command-line argument that is not a flag (so `cargo bench --bench
//! micro_ops -- p2c`), matched as a substring of each case's
//! `group/function` name. Cases it does not match are not measured; the
//! setup code of their bench functions still runs.

#![warn(missing_docs)]

use std::time::{Duration, Instant};

/// Identifier for one parameterized benchmark case.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `group/function/parameter`-style id.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { label: format!("{}/{parameter}", function.into()) }
    }

    /// Id carrying only a parameter.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { label: parameter.to_string() }
    }
}

/// Runs the closure under timing; handed to bench closures.
pub struct Bencher {
    batches: u32,
    min_iters: u64,
    /// Median per-iteration time of the last `iter` call.
    last: Option<Duration>,
}

impl Bencher {
    /// Times `f`, recording the median per-iteration duration across
    /// batches.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        // Calibrate the per-batch iteration count so a batch takes ≥ ~20ms.
        let t0 = Instant::now();
        std::hint::black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let iters = ((Duration::from_millis(20).as_nanos() / once.as_nanos()).max(1) as u64)
            .min(1_000_000)
            .max(self.min_iters);
        let mut per_iter: Vec<Duration> = Vec::with_capacity(self.batches as usize);
        for _ in 0..self.batches {
            let t0 = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            per_iter.push(t0.elapsed() / iters as u32);
        }
        per_iter.sort_unstable();
        self.last = Some(per_iter[per_iter.len() / 2]);
    }
}

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn run_one(name: &str, f: &mut dyn FnMut(&mut Bencher)) {
    let mut b = Bencher {
        batches: env_u64("CRITERION_SHIM_BATCHES", 5) as u32,
        min_iters: env_u64("CRITERION_SHIM_MIN_ITERS", 1),
        last: None,
    };
    f(&mut b);
    match b.last {
        Some(d) => println!("{name:<48} {:>14.3} ns/iter", d.as_nanos() as f64),
        None => println!("{name:<48} {:>14} (no measurement)", "-"),
    }
}

/// A named group of related benchmark cases.
pub struct BenchmarkGroup<'c> {
    name: String,
    parent: &'c mut Criterion,
    /// Whether the group's header line is printed yet: it is printed
    /// before the first case the filter selects.
    announced: bool,
}

impl BenchmarkGroup<'_> {
    /// Benchmarks `f` with `input`, labeled by `id`.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.label);
        self.run(&label, &mut |b| f(b, input));
        self
    }

    /// Benchmarks `f` labeled by `id` (no input).
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id: BenchmarkId = id.into();
        let label = format!("{}/{}", self.name, id.label);
        self.run(&label, &mut f);
        self
    }

    /// Measures the case `label` if the filter selects it.
    fn run(&mut self, label: &str, f: &mut dyn FnMut(&mut Bencher)) {
        if !self.parent.selects(label) {
            return;
        }
        if !self.announced {
            println!("-- group: {}", self.name);
            self.announced = true;
        }
        run_one(label, f);
    }

    /// Ends the group (printing is immediate, so this is a no-op).
    pub fn finish(self) {}
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { label: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { label: s }
    }
}

/// Top-level benchmark driver.
#[derive(Default)]
pub struct Criterion {
    /// Only cases whose `group/function` name contains this are measured.
    filter: Option<String>,
}

impl Criterion {
    /// The driver a bench binary's `main` makes of its command line
    /// (`args` without the program name): the first argument that is not
    /// a flag, such as cargo's `--bench`, is the name filter.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        Criterion { filter: args.into_iter().find(|arg| !arg.starts_with('-')) }
    }

    /// Whether the filter selects the case named `name`.
    fn selects(&self, name: &str) -> bool {
        self.filter.as_ref().is_none_or(|filter| name.contains(filter.as_str()))
    }

    /// Starts a named group of cases.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { name: name.into(), parent: self, announced: false }
    }

    /// Benchmarks a single function.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        if self.selects(name) {
            run_one(name, &mut f);
        }
        self
    }

    /// Prints the closing summary (upstream API compatibility).
    pub fn final_summary(&mut self) {
        println!("-- criterion(shim) done");
    }
}

/// Re-export of `std::hint::black_box` under criterion's name.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Groups bench functions under one entry point, like upstream criterion.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Generates `main` for a `harness = false` bench binary.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::from_args(std::env::args().skip(1));
            $($group(&mut c);)+
            c.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        std::env::set_var("CRITERION_SHIM_BATCHES", "2");
        let mut c = Criterion::default();
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        let mut g = c.benchmark_group("g");
        g.bench_with_input(BenchmarkId::from_parameter(4), &4u32, |b, &n| {
            b.iter(|| (0..n).sum::<u32>())
        });
        g.finish();
        std::env::remove_var("CRITERION_SHIM_BATCHES");
    }

    /// The first argument that is not a flag filters cases by a substring
    /// of their `group/function` name; without one, every case runs.
    #[test]
    fn a_name_filter_selects_the_cases_it_names() {
        let args = |list: &[&str]| list.iter().map(|arg| arg.to_string()).collect::<Vec<_>>();
        let ran = |c: &mut Criterion| -> Vec<String> {
            let mut ran = Vec::new();
            let mut g = c.benchmark_group("p2c");
            for name in ["build", "edit"] {
                g.bench_function(name, |_| ran.push(format!("p2c/{name}")));
            }
            g.finish();
            c.bench_function("ic2p/expand", |_| ran.push("ic2p/expand".into()));
            ran
        };
        let all = ["p2c/build", "p2c/edit", "ic2p/expand"];
        assert_eq!(ran(&mut Criterion::default()), all);
        assert_eq!(ran(&mut Criterion::from_args(args(&["--bench"]))), all);
        assert_eq!(ran(&mut Criterion::from_args(args(&["--bench", "p2c"]))), all[..2]);
        assert_eq!(ran(&mut Criterion::from_args(args(&["--bench", "c/ed"]))), ["p2c/edit"]);
        assert_eq!(ran(&mut Criterion::from_args(args(&["ic2p", "p2c"]))), ["ic2p/expand"]);
        assert!(ran(&mut Criterion::from_args(args(&["--bench", "join"]))).is_empty());
    }
}
