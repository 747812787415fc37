//! Benchmark crate: every figure and result of the paper regenerates from a
//! bench under `benches/`. See EXPERIMENTS.md for the mapping and recorded
//! outputs.
//!
//! The crate also ships the tiny measurement harness the benches run on.
//! It mirrors the subset of the Criterion API the benches use
//! (`benchmark_group` / `sample_size` / `measurement_time` /
//! `bench_function` / `iter` and the `criterion_group!` /
//! `criterion_main!` macros) so the bench sources read like standard Rust
//! benchmarks while building fully offline, with no third-party
//! dependencies.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Reads one of the benches' four environment knobs, parsed, or `default`
/// when it is unset or does not parse:
///
/// * `PH_BENCH_CHECK=1` — smoke mode: one sample, smallest inputs, no
///   performance assertion (e5, e10);
/// * `PH_BENCH_SAMPLES` — timed samples per measurement (e5, e10);
/// * `PH_BENCH_TRIALS` — trial budget per cell (table1, table2, e4);
/// * `PH_BENCH_OUT` — path of the JSON artifact (e5, e9, e10).
pub fn knob<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Top-level harness handle, passed as `&mut Criterion` into each bench
/// function by [`criterion_group!`].
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named group of related measurements.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup {
        // ph-lint: allow(stray-print, the bench harness reports results on stdout by design)
        println!("-- bench group: {name} --");
        BenchmarkGroup {
            sample_size: 20,
            measurement_time: Duration::from_secs(3),
        }
    }
}

/// A group of measurements sharing a sample budget.
pub struct BenchmarkGroup {
    sample_size: usize,
    measurement_time: Duration,
}

impl BenchmarkGroup {
    /// Caps the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Caps the total wall-clock time spent sampling one benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Times `f` and prints min / mean / max per-iteration wall-clock time.
    pub fn bench_function<S, F>(&mut self, id: S, mut f: F) -> &mut Self
    where
        S: Into<String>,
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher {
            samples: Vec::new(),
        };
        // One untimed warm-up pass.
        f(&mut b);
        b.samples.clear();
        // ph-lint: allow(wall-clock, the measurement harness times real execution)
        let started = Instant::now();
        while b.samples.len() < self.sample_size && started.elapsed() < self.measurement_time {
            f(&mut b);
        }
        let (min, mean, max) = b.stats();
        // ph-lint: allow(stray-print, the bench harness reports results on stdout by design)
        println!(
            "   {id}: {} samples, min {} / mean {} / max {}",
            b.samples.len(),
            fmt_nanos(min),
            fmt_nanos(mean),
            fmt_nanos(max),
        );
        self
    }

    /// Closes the group (kept for API parity; all output is immediate).
    pub fn finish(&mut self) {}
}

/// Per-benchmark timing context handed to the closure of
/// [`BenchmarkGroup::bench_function`].
pub struct Bencher {
    samples: Vec<u128>,
}

impl Bencher {
    /// Times one execution of `f`, keeping its result opaque to the
    /// optimizer.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        // ph-lint: allow(wall-clock, the measurement harness times real execution)
        let t = Instant::now();
        let out = f();
        self.samples.push(t.elapsed().as_nanos());
        std::hint::black_box(out);
    }

    fn stats(&self) -> (u128, u128, u128) {
        if self.samples.is_empty() {
            return (0, 0, 0);
        }
        let min = *self.samples.iter().min().unwrap();
        let max = *self.samples.iter().max().unwrap();
        let mean = self.samples.iter().sum::<u128>() / self.samples.len() as u128;
        (min, mean, max)
    }
}

fn fmt_nanos(n: u128) -> String {
    if n >= 1_000_000_000 {
        format!("{:.2}s", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.2}ms", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.2}µs", n as f64 / 1e3)
    } else {
        format!("{n}ns")
    }
}

/// Declares a bench entry point running each listed function with a fresh
/// [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($func:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $( $func(&mut c); )+
        }
    };
}

/// Declares `main` for a `harness = false` bench target.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_samples() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("self-test");
        g.sample_size(3)
            .measurement_time(Duration::from_millis(200))
            .bench_function("sum", |b| b.iter(|| (0u64..100).sum::<u64>()));
        g.finish();
    }

    #[test]
    fn nanos_format_picks_sensible_units() {
        assert_eq!(fmt_nanos(5), "5ns");
        assert_eq!(fmt_nanos(1_500), "1.50µs");
        assert_eq!(fmt_nanos(2_000_000), "2.00ms");
        assert_eq!(fmt_nanos(3_000_000_000), "3.00s");
    }
}
