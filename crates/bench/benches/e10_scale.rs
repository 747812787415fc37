//! **E10 — mega-cluster scale**: throughput and per-object memory of the
//! slab/sharded watch-cache data path at datacenter size. One run per
//! scale point (nodes ∈ {100, 1k, 5k}; pods = clamp(20 × nodes, 10k,
//! 100k)) drives the synthetic demand curve through the store, the
//! apiserver's sharded slab cache, and the watch consumers — the same
//! workload `phtool scale` exposes, timed.
//!
//! Reported per point:
//! * events/sec — trace events over best-of-N wall-clock (the PR 9
//!   headline: ≥ 1M events/sec at the 1k-node point);
//! * cache bytes and bytes/object — the deterministic allocation-footprint
//!   proxy ([`ph_cluster::ObjectSlab::approx_bytes`]) at churn end, which
//!   must grow *sublinearly* per object as nodes scale (interned keys and
//!   struct-of-arrays amortize per-object overhead).
//!
//! Output: a table on stdout and `BENCH_PR9.json` (path override:
//! `PH_BENCH_OUT`). Modes: default = best of `PH_BENCH_SAMPLES` (3) over
//! all three points; `PH_BENCH_CHECK=1` = CI smoke, one sample of the
//! 100-node point only, same artifact.
//!
//! Run with `cargo bench -p ph-bench --bench e10_scale`.

use std::fmt::Write as _;
use std::time::Instant;

use ph_bench::{criterion_group, criterion_main, Criterion};

use ph_scenarios::mega_cluster::{run_probed, ScaleParams};

const SEED: u64 = 0xE10;
const POINTS: &[usize] = &[100, 1_000, 5_000];
const SHARDS: usize = 8;

struct Row {
    nodes: usize,
    pods: usize,
    events: u64,
    events_per_sec: f64,
    cache_bytes: usize,
    cache_objects: usize,
    bytes_per_object: f64,
}

fn measure(points: &[usize], samples: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for &nodes in points {
        let params = ScaleParams::for_nodes(nodes, SHARDS);
        let mut events = 0u64;
        let mut best = f64::INFINITY;
        let mut probe = None;
        for _ in 0..samples {
            let t = Instant::now();
            let (report, p) = run_probed(SEED, &params);
            let secs = t.elapsed().as_secs_f64();
            assert!(!report.failed(), "{nodes}-node scale point violated");
            events = report.trace_events as u64;
            best = best.min(secs);
            probe = Some(p);
        }
        let probe = probe.expect("at least one sample");
        rows.push(Row {
            nodes,
            pods: params.pods,
            events,
            events_per_sec: events as f64 / best,
            cache_bytes: probe.cache_bytes,
            cache_objects: probe.cache_objects,
            bytes_per_object: probe.cache_bytes as f64 / probe.cache_objects.max(1) as f64,
        });
    }
    rows
}

fn write_json(rows: &[Row], check_mode: bool) {
    let path = ph_bench::knob("PH_BENCH_OUT", "BENCH_PR9.json".to_string());
    let mut out = String::from("{\n  \"bench\": \"e10_scale\",\n");
    let _ = writeln!(out, "  \"check_mode\": {check_mode},");
    let _ = writeln!(out, "  \"shards\": {SHARDS},");
    out.push_str("  \"points\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"nodes\": {}, \"pods\": {}, \"trace_events\": {}, \
             \"events_per_sec\": {:.0}, \"cache_bytes\": {}, \
             \"cache_objects\": {}, \"bytes_per_object\": {:.1}}}",
            r.nodes,
            r.pods,
            r.events,
            r.events_per_sec,
            r.cache_bytes,
            r.cache_objects,
            r.bytes_per_object
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&path, out).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("   wrote {path}");
}

fn print_table(rows: &[Row]) {
    println!(
        "\n{:>7} {:>8} {:>10} {:>14} {:>12} {:>10} {:>10}",
        "nodes", "pods", "events", "ev/s", "cache-bytes", "objects", "B/object"
    );
    for r in rows {
        println!(
            "{:>7} {:>8} {:>10} {:>14.0} {:>12} {:>10} {:>10.1}",
            r.nodes,
            r.pods,
            r.events,
            r.events_per_sec,
            r.cache_bytes,
            r.cache_objects,
            r.bytes_per_object
        );
    }
}

fn bench(c: &mut Criterion) {
    let check_mode = ph_bench::knob("PH_BENCH_CHECK", 0) == 1;
    let samples: usize = ph_bench::knob("PH_BENCH_SAMPLES", if check_mode { 1 } else { 3 });
    let points: &[usize] = if check_mode { &POINTS[..1] } else { POINTS };

    println!(
        "\n=== E10: mega-cluster scale ({} point(s), {} sample(s), shards {SHARDS}, \
         demand-curve churn) ===",
        points.len(),
        samples,
    );
    let rows = measure(points, samples);
    print_table(&rows);
    write_json(&rows, check_mode);

    if !check_mode {
        // The PR 9 headline numbers, stated rather than asserted (absolute
        // throughput is machine-dependent; the JSON artifact is the record).
        if let Some(k1) = rows.iter().find(|r| r.nodes == 1_000) {
            println!(
                "   1k-node point: {:.2}M events/sec (target ≥ 1M)",
                k1.events_per_sec / 1e6
            );
        }
        if let (Some(lo), Some(hi)) = (rows.first(), rows.last()) {
            println!(
                "   bytes/object {:.1} → {:.1} across {}→{} nodes (sublinear per-object growth)",
                lo.bytes_per_object, hi.bytes_per_object, lo.nodes, hi.nodes
            );
        }
    }

    // One harness-timed datapoint (a deliberately small point) so the bench
    // integrates with the group output like the other E-benches.
    let mut group = c.benchmark_group("e10_scale");
    group.sample_size(if check_mode { 2 } else { 10 });
    group.measurement_time(std::time::Duration::from_secs(if check_mode {
        1
    } else {
        5
    }));
    group.bench_function("small_point_10_nodes", |b| {
        let params = ScaleParams {
            nodes: 10,
            pods: 200,
            shards: SHARDS,
            watchers: 2,
            churn: ph_sim::Duration::millis(400),
        };
        b.iter(|| run_probed(SEED, &params).0.trace_events)
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
