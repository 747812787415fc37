//! `perfbench-probe`: the traced half of the benchmark.
//!
//! ```text
//! perfbench-probe --threads T [--harness] < invocations
//! ```
//!
//! Reads one `phtool` argument line per stdin line, runs each in-process
//! with spans around every call into a layer, then (with `--harness`)
//! runs the isolated layer harnesses, and prints one JSON object: the
//! traced wall time, each invocation's check values, the summed counts and
//! timings, per-span-name `[count, total ns, self ns]`, and the harness
//! results. `run.py` turns it into the per-layer metrics.
//!
//! A binary, not a library: it reads the wall clock and prints by design.

mod harness;
mod naive;
mod spans;
mod workloads;

use std::fmt::Write as _;
use std::io::BufRead;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (threads, with_harness): (usize, bool) = match args.as_slice() {
        [flag, n] if flag == "--threads" => (n.parse().unwrap_or(0), false),
        [flag, n, h] if flag == "--threads" && h == "--harness" => (n.parse().unwrap_or(0), true),
        _ => (0, false),
    };
    if threads == 0 {
        eprintln!("usage: perfbench-probe --threads N [--harness] < invocations");
        std::process::exit(2);
    }
    let lines: Vec<String> = std::io::stdin()
        .lock()
        .lines()
        .map(|l| l.expect("reading stdin"))
        .filter(|l| !l.trim().is_empty())
        .collect();

    let mut probe = workloads::Probe::default();
    spans::now_ns();
    let t = Instant::now();
    for line in &lines {
        workloads::invoke(&mut probe, line, threads);
    }
    let wall_ns = t.elapsed().as_nanos();
    let spans = spans::summarise(&spans::drain());
    let t = Instant::now();
    let harness = if with_harness {
        harness::run_all()
    } else {
        harness::Results::new()
    };
    let harness_ns = t.elapsed().as_nanos();

    let mut out = String::new();
    write!(
        out,
        "{{\"wall_ns\":{wall_ns},\"harness_wall_ns\":{harness_ns},\"checks\":[{}],\"totals\":{{",
        probe.checks.join(",")
    )
    .expect("writing to a String");
    let totals: Vec<String> = probe
        .totals
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    write!(out, "{}}},\"spans\":{{", totals.join(",")).expect("writing to a String");
    let spans: Vec<String> = spans
        .iter()
        .map(|(k, (n, total, own))| format!("\"{k}\":[{n},{total},{own}]"))
        .collect();
    write!(out, "{}}},\"harness\":{{", spans.join(",")).expect("writing to a String");
    let harness: Vec<String> = harness
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    write!(out, "{}}}}}", harness.join(",")).expect("writing to a String");
    println!("{out}");
}
