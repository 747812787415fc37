//! Golden exports: every runtime JSON and Prometheus rendering, pinned
//! byte for byte.
//!
//! The emergent congestion run (static scarce capacity, zero
//! perturbations) is fully deterministic, so its exports are too. Its
//! artifacts are compared against checked-in goldens:
//!
//! * the **Chrome-trace** rendering of the run's queue slice — every
//!   `MessageQueued` / queue-full `MessageDropped` event (plus `Spawned`,
//!   which names the timeline threads), exactly what an engineer loads
//!   into Perfetto to look at the congestion story;
//! * the **Prometheus text exposition** of the run's metrics — the
//!   `ph_net_queue_depth` / `ph_net_queue_dropped_total` /
//!   `ph_net_queue_wait_ns` families `phtool run --prom` writes;
//! * the run's full report JSON (metrics, divergence, blame), the queue
//!   slice as `Trace::to_json` and JSON Lines, and the run's blame chain.
//!
//! Beside the run, the hunt telemetry exposition of two congestion cells
//! and the static exports (model-check reports, independence matrices and
//! the static cross-check table over every scenario's IR) are pinned; the
//! static ones depend only on the declared summaries, not on source files.
//!
//! Regenerate after an intentional exporter or scenario change with
//! `PH_EXPORT_BLESS=1 cargo test -p ph-scenarios --test export_golden`.

use std::fs;
use std::path::{Path, PathBuf};

use ph_core::{explain, Explorer, HuntReport, StrategyStats};
use ph_scenarios::{congestion, scenario_statics, Variant};
use ph_sim::{trace_to_chrome, trace_to_jsonl, DropReason, TraceEventKind};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Compares `got` against `tests/golden/<name>`, or rewrites the golden
/// when `PH_EXPORT_BLESS` is set.
fn check(name: &str, got: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("PH_EXPORT_BLESS").is_some() {
        fs::create_dir_all(golden_dir()).unwrap();
        fs::write(&path, got).unwrap();
    } else {
        let want = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {name} (PH_EXPORT_BLESS=1 to create): {e}"));
        assert_eq!(
            got, want,
            "golden mismatch for {name} (PH_EXPORT_BLESS=1 to regenerate)"
        );
    }
}

#[test]
fn congestion_queue_exports_are_pinned() {
    let (report, trace) = congestion::run_emergent(1, Variant::Buggy, true);

    use TraceEventKind as K;
    let slice = trace.filtered(|e| {
        matches!(
            &e.kind,
            K::Spawned { .. }
                | K::MessageQueued { .. }
                | K::MessageDropped {
                    reason: DropReason::QueueFull,
                    ..
                }
        )
    });
    assert!(
        slice.len() > trace.count(|e| matches!(&e.kind, K::Spawned { .. })),
        "the queue slice must contain actual queue events, not just spawns"
    );
    let chrome = trace_to_chrome(&slice);
    // Semantic guards first, so the golden can never silently pin a
    // congestion-free run.
    assert!(
        chrome.contains("\"name\":\"queue ApiWatchEvent\""),
        "chrome export lost its queue-wait instants"
    );
    assert!(
        chrome.contains("\"reason\":\"QueueFull\""),
        "chrome export lost its drop-tail instants"
    );
    check("congestion_queue_slice.chrome.json", &chrome);
    check("congestion_queue_slice.json", &slice.to_json());
    check("congestion_queue_slice.jsonl", &trace_to_jsonl(&slice));

    let report_json = report.to_json();
    assert!(
        report_json.contains("\"blame\":{\"class\":\"congestion-staleness\""),
        "report JSON lost its blame summary"
    );
    check("congestion_report.json", &report_json);
    let chain = explain(&trace, &congestion::blame_spec(), &report.violations);
    check("congestion_blame_chain.json", &chain.to_json());

    let prom = report.metrics.to_prometheus();
    for family in [
        "# TYPE ph_net_queue_depth gauge",
        "# TYPE ph_net_queue_dropped_total counter",
        "# TYPE ph_net_queue_wait_ns histogram",
    ] {
        assert!(prom.contains(family), "prometheus export lost {family:?}");
    }
    assert_eq!(
        report.metrics.counter_total("net.queue_dropped") > 0,
        prom.contains("ph_net_queue_dropped_total{component=\"apiserver-1\"}"),
        "text exposition must agree with the programmatic counter"
    );
    check("congestion_metrics.prom", &prom);
}

#[test]
fn hunt_telemetry_exposition_is_pinned() {
    // A detecting cell (the buggy variant under its tuned injector) and a
    // clean one that runs its whole two-trial budget.
    let explorer = Explorer {
        max_trials: 2,
        base_seed: 1,
    };
    let mut hunt = HuntReport::new();
    for variant in [Variant::Buggy, Variant::Fixed] {
        let mut outcome = explorer.explore(
            congestion::NAME,
            &|seed, s| congestion::run(seed, s, variant),
            &congestion::guided,
        );
        outcome.strategy = format!("guided-{variant}");
        hunt.push(StrategyStats::from_outcome(&outcome));
    }
    let prom = hunt.to_prometheus();
    assert!(prom.contains("ph_hunt_trial_sim_ns_bucket{"));
    assert!(prom.contains("le=\"+Inf\"}"));
    check("congestion_hunt.prom", &prom);
}

#[test]
fn static_exports_are_pinned() {
    let mut modelcheck = String::new();
    let mut independence = String::new();
    for e in scenario_statics() {
        let summaries = (e.summaries)(Variant::Buggy);
        for r in ph_lint::modelcheck::model_check_all(&summaries) {
            modelcheck.push_str(&r.to_json());
            modelcheck.push('\n');
        }
        for m in ph_lint::independence::derive_all(&summaries) {
            independence.push_str(&m.to_json());
            independence.push('\n');
        }
    }
    check("static_modelcheck_buggy.jsonl", &modelcheck);
    check("static_independence_buggy.jsonl", &independence);
    check(
        "static_crosscheck.json",
        &ph_scenarios::static_crosscheck().to_json(),
    );
}
