//! **E5 — hot-path throughput**: events/sec and trials/sec for every
//! registered scenario, single-threaded, measuring the steady-state sim
//! hot path (scheduling, watch fan-out, metrics, trace append) that PR 4's
//! zero-copy work targets. The workload is the no-fault buggy variant so
//! every run executes its full horizon and the measurement is pure
//! throughput — no early aborts, no oracle violations cutting trials short.
//!
//! Output:
//! * a per-scenario table on stdout (events/sec, trials/sec, speedup vs.
//!   the recorded pre-PR baseline);
//! * `BENCH_PR4.json` (path override: `PH_BENCH_OUT`), recording baseline
//!   and current numbers side by side.
//!
//! Modes:
//! * default — full measurement (best of `PH_BENCH_SAMPLES`, default 3);
//! * `PH_BENCH_CHECK=1` — CI smoke: one sample per scenario, no speedup
//!   assertion, still writes the JSON artifact.
//!
//! The `BASELINE` table was measured on this machine at the pre-PR commit
//! (`f6b3b7b`, immediately before the zero-copy changes): best events/sec
//! and trials/sec per scenario across three full runs of this bench, so
//! the reference is the *most favorable* pre-PR figure. EXPERIMENTS.md E5
//! quotes both columns.
//!
//! Run with `cargo bench -p ph-bench --bench e5_hot_path`.

use std::fmt::Write as _;
use std::time::Instant;

use ph_bench::{criterion_group, criterion_main, Criterion};

use ph_core::harness::Explorer;
use ph_core::perturb::{NoFault, Strategy};
use ph_scenarios::{scenario_statics, Variant};

/// Pre-PR events/sec and trials/sec per scenario (see module docs).
const BASELINE: &[(&str, f64, f64)] = &[
    ("k8s-59848", 1_436_628.0, 132.71),
    ("k8s-56261", 1_283_779.0, 73.32),
    ("volume-ctrl-17", 1_438_683.0, 117.98),
    ("cass-op-398", 1_321_696.0, 59.94),
    ("cass-op-400", 1_308_028.0, 62.64),
    ("cass-op-402", 1_302_661.0, 68.96),
    ("hbase-3136", 1_211_665.0, 4.97),
    ("node-fencing", 1_302_209.0, 52.81),
];

const SEED: u64 = 0xE5;
const TRIALS: u32 = 4;

struct Row {
    name: &'static str,
    events: u64,
    events_per_sec: f64,
    trials_per_sec: f64,
}

fn baseline_for(name: &str) -> Option<(f64, f64)> {
    BASELINE
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|&(_, eps, tps)| (eps, tps))
}

/// One timed single-trial run; returns (trace events, seconds).
fn time_one_run(
    run: fn(u64, &mut dyn Strategy, Variant) -> ph_core::harness::RunReport,
) -> (u64, f64) {
    let mut strategy = NoFault;
    let t = Instant::now();
    let report = run(SEED, &mut strategy, Variant::Buggy);
    let secs = t.elapsed().as_secs_f64();
    (report.trace_events as u64, secs)
}

fn measure(samples: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for entry in scenario_statics() {
        // events/sec: best-of-N single trials (min wall-clock).
        let mut events = 0u64;
        let mut best = f64::INFINITY;
        for _ in 0..samples {
            let (n, secs) = time_one_run(entry.run);
            events = n;
            best = best.min(secs);
        }
        let events_per_sec = events as f64 / best;

        // trials/sec: one sequential Explorer sweep (the phtool matrix
        // building block); no-fault so the full budget executes.
        let explorer = Explorer {
            max_trials: TRIALS,
            base_seed: SEED,
        };
        let run = entry.run;
        let t = Instant::now();
        let outcome = explorer.explore(
            entry.name,
            &|seed, s| run(seed, s, Variant::Buggy),
            &|_seed| Box::new(NoFault) as Box<dyn Strategy>,
        );
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(outcome.trials_run, TRIALS, "{}: trial aborted", entry.name);
        rows.push(Row {
            name: entry.name,
            events,
            events_per_sec,
            trials_per_sec: TRIALS as f64 / secs,
        });
    }
    rows
}

fn write_json(rows: &[Row], check_mode: bool) {
    let path = ph_bench::knob("PH_BENCH_OUT", "BENCH_PR4.json".to_string());
    let mut out = String::from("{\n  \"bench\": \"e5_hot_path\",\n");
    let _ = writeln!(out, "  \"check_mode\": {check_mode},");
    let _ = writeln!(out, "  \"trials_per_sweep\": {TRIALS},");
    out.push_str("  \"scenarios\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let (base_eps, base_tps) = baseline_for(r.name).unwrap_or((0.0, 0.0));
        let speedup = if base_eps > 0.0 {
            r.events_per_sec / base_eps
        } else {
            0.0
        };
        let _ = write!(
            out,
            "    {{\"scenario\": \"{}\", \"trace_events\": {}, \
             \"baseline_events_per_sec\": {:.0}, \"events_per_sec\": {:.0}, \
             \"baseline_trials_per_sec\": {:.2}, \"trials_per_sec\": {:.2}, \
             \"events_speedup\": {:.3}}}",
            r.name, r.events, base_eps, r.events_per_sec, base_tps, r.trials_per_sec, speedup
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&path, out).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("   wrote {path}");
}

fn print_table(rows: &[Row]) {
    println!(
        "\n{:>16} {:>10} {:>14} {:>14} {:>9} {:>12}",
        "scenario", "events", "base ev/s", "ev/s", "speedup", "trials/s"
    );
    for r in rows {
        let (base_eps, _) = baseline_for(r.name).unwrap_or((0.0, 0.0));
        let speedup = if base_eps > 0.0 {
            r.events_per_sec / base_eps
        } else {
            0.0
        };
        println!(
            "{:>16} {:>10} {:>14.0} {:>14.0} {:>8.2}x {:>12.2}",
            r.name, r.events, base_eps, r.events_per_sec, speedup, r.trials_per_sec
        );
    }
}

fn bench(c: &mut Criterion) {
    let check_mode = ph_bench::knob("PH_BENCH_CHECK", 0) == 1;
    let samples: usize = ph_bench::knob("PH_BENCH_SAMPLES", if check_mode { 1 } else { 3 });

    println!(
        "\n=== E5: hot-path throughput ({} scenario(s), {} sample(s), \
         single-thread, no-fault buggy variant) ===",
        scenario_statics().len(),
        samples,
    );
    let rows = measure(samples);
    print_table(&rows);
    write_json(&rows, check_mode);

    if !check_mode {
        let improved = rows
            .iter()
            .filter(|r| {
                baseline_for(r.name).is_some_and(|(eps, _)| eps > 0.0 && r.events_per_sec >= eps)
            })
            .count();
        println!(
            "   {improved}/{} scenarios at or above baseline",
            rows.len()
        );
    }

    // Keep one harness-timed datapoint so the bench integrates with the
    // group output like the other E-benches.
    let mut group = c.benchmark_group("e5_hot_path");
    group.sample_size(if check_mode { 2 } else { 10 });
    group.measurement_time(std::time::Duration::from_secs(if check_mode {
        1
    } else {
        5
    }));
    let entry = &scenario_statics()[0];
    let run = entry.run;
    group.bench_function("single_trial_k8s_59848", |b| {
        b.iter(|| {
            let mut s = NoFault;
            run(SEED, &mut s, Variant::Buggy).trace_events
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
