//! Regression gate for the divergence sampler.
//!
//! `Runner::sample_divergence` is incremental: pre-resolved slots and
//! syms, and `view_lag.last` gauge writes only when a view's lag moved.
//! It replaced a string-keyed full diff that rewrote every series each
//! quantum, and it must stay *report-identical* to it — not just
//! statistically close. The full diff's output for every scenario and
//! variant (seed 7, tuned injector) is checked in under
//! `tests/golden/divergence/`: the per-view divergence summary JSON plus
//! every `view_lag.*` metric series. The sampler must reproduce each file
//! byte for byte.
//!
//! Regenerate after an intentional scenario change with
//! `PH_EXPORT_BLESS=1 cargo test -p ph-scenarios --test divergence_equivalence`.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use ph_core::harness::RunReport;
use ph_scenarios::{scenario_statics, Variant};
use ph_sim::MetricValue;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/divergence")
}

/// The sampler's whole footprint in a report: the divergence summary JSON
/// on the first line, then one line per `view_lag.*` series.
fn sampler_output(report: &RunReport) -> String {
    let mut out = report.divergence.to_json();
    out.push('\n');
    for (component, metric, value) in report.metrics.iter() {
        if !metric.starts_with("view_lag.") {
            continue;
        }
        let _ = match value {
            MetricValue::Counter(x) => writeln!(out, "{component}/{metric} counter {x}"),
            MetricValue::Gauge(x) => writeln!(out, "{component}/{metric} gauge {x}"),
            MetricValue::Histogram(h) => writeln!(
                out,
                "{component}/{metric} histogram count {} sum {} bounds {:?} counts {:?}",
                h.count, h.sum, h.bounds, h.counts
            ),
        };
    }
    out
}

#[test]
fn incremental_sampling_matches_the_full_diff_everywhere() {
    let bless = std::env::var_os("PH_EXPORT_BLESS").is_some();
    let mut sampled = 0;
    for e in scenario_statics() {
        for variant in [Variant::Buggy, Variant::Fixed] {
            let mut guided = (e.guided)(7);
            let report = (e.run)(7, guided.as_mut(), variant);
            let got = sampler_output(&report);
            // hbase-3136 runs outside the cluster runner and has no views.
            sampled += usize::from(got.contains("view_lag.revisions histogram"));
            let path = golden_dir().join(format!("{}.{variant}.txt", e.name));
            if bless {
                fs::create_dir_all(golden_dir()).unwrap();
                fs::write(&path, &got).unwrap();
                continue;
            }
            let want = fs::read_to_string(&path)
                .unwrap_or_else(|err| panic!("reading {}: {err}", path.display()));
            assert_eq!(
                got, want,
                "{} {variant}: sampler output diverged from the full-diff golden",
                e.name
            );
        }
    }
    assert!(sampled >= 16, "only {sampled} runs recorded lag samples");
}
