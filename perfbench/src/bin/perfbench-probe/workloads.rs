//! The traced, in-process twin of each `phtool` invocation the benchmark
//! times. Every call into a layer's public API is wrapped in a span, every
//! trial's trace is counted by message kind, and each invocation hands
//! back the values `run.py` checks against what `phtool` printed for the
//! same arguments (verdict, digest, trials, events, first detection).

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use ph_cluster::topology::ClusterConfig;
use ph_core::autoguide;
use ph_core::harness::{Explorer, RunReport};
use ph_core::perturb::{
    CoFiPartitions, CrashTunerCrashes, NoFault, RandomCrashes, Strategy, Targets, TrafficSurge,
};
use ph_scenarios::{mega_cluster, witness_bridge, Runner, StaticEntry, Variant};
use ph_sim::{Duration, Trace, TraceEventKind};

use crate::spans::{self, span, span_under};

/// Work counted from each kept trial's trace. Kept means the trial the
/// sequential explorer would also have run, so the sums repeat exactly at
/// any thread count.
pub const COUNTS: &[&str] = &[
    "sim.events",
    "net.msgs_sent",
    "net.msgs_queued",
    "net.msgs_dropped",
    "raft.wire_msgs",
    "store.watch_notify_msgs",
    "store.client_requests",
    "api.watch_event_msgs",
];

fn count_trace(trace: &Trace) -> [u64; 8] {
    let mut c = [0u64; 8];
    c[0] = trace.len() as u64;
    for e in trace.iter() {
        match &e.kind {
            TraceEventKind::MessageSent { kind, .. } => {
                c[1] += 1;
                match kind.as_str() {
                    "RaftWire" => c[4] += 1,
                    "WatchNotify" => c[5] += 1,
                    "ClientRequest" => c[6] += 1,
                    "ApiWatchEvent" => c[7] += 1,
                    _ => {}
                }
            }
            TraceEventKind::MessageQueued { .. } => c[2] += 1,
            TraceEventKind::MessageDropped { .. } => c[3] += 1,
            _ => {}
        }
    }
    c
}

/// What one trial left behind.
#[derive(Debug)]
struct TrialRec {
    seed: u64,
    worker: std::thread::ThreadId,
    end_ns: u64,
    run_ns: u64,
    digest_ns: u64,
    explain_ns: u64,
    counts: [u64; 8],
}

/// Accumulated results of one traced workload.
#[derive(Default)]
pub struct Probe {
    /// Per-invocation check objects (JSON), in invocation order.
    pub checks: Vec<String>,
    /// Summed counts and timings by metric name.
    pub totals: BTreeMap<&'static str, f64>,
}

impl Probe {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.totals.entry(key).or_default() += v;
    }

    fn add_trial(&mut self, t: &TrialRec) {
        for (k, v) in COUNTS.iter().zip(t.counts) {
            self.add(k, v as f64);
        }
        self.add("trials", 1.0);
        self.add("run_ns", t.run_ns as f64);
        self.add("digest_ns", t.digest_ns as f64);
        self.add("explain_ns", t.explain_ns as f64);
        if t.explain_ns > 0 {
            self.add("explained_trials", 1.0);
            self.add("explained_events", t.counts[0] as f64);
        }
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// One traced trial: the scenario run, then the per-trial costs replayed
/// on its output so they can be told apart from the simulation.
fn trial(
    parent: Option<u64>,
    seed: u64,
    run: impl FnOnce() -> (RunReport, Trace),
    blame: ph_core::provenance::BlameSpec,
    log: &Mutex<Vec<TrialRec>>,
) -> (RunReport, Trace) {
    span_under(parent, "trial", || {
        let t = Instant::now();
        let (report, trace) = span("scenario.run_with_trace", run);
        let run_ns = ns_since(t);
        let t = Instant::now();
        let digest = span("trace.digest", || trace.digest());
        let digest_ns = ns_since(t);
        assert_eq!(digest, report.trace_digest, "the digest replays exactly");
        let mut explain_ns = 0;
        if report.failed() {
            let t = Instant::now();
            span("provenance.explain", || {
                ph_core::explain(&trace, &blame, &report.violations)
            });
            explain_ns = ns_since(t);
        }
        log.lock().expect("trial log poisoned").push(TrialRec {
            seed,
            worker: std::thread::current().id(),
            end_ns: spans::now_ns(),
            run_ns,
            digest_ns,
            explain_ns,
            counts: count_trace(&trace),
        });
        (report, trace)
    })
}

const STRATEGIES: &[&str] = &[
    "guided",
    "random-crash",
    "crashtuner",
    "cofi",
    "traffic-surge",
    "no-fault",
];

/// The strategy a `phtool` strategy name builds (mirrors the CLI's table).
fn make_strategy(name: &str, entry: &StaticEntry, seed: u64) -> Box<dyn Strategy> {
    match name {
        "guided" => (entry.guided)(seed),
        "random-crash" => Box::new(RandomCrashes {
            seed,
            count: 3,
            down: Duration::millis(300),
        }),
        "crashtuner" => Box::new(CrashTunerCrashes::new(seed, 0.02, 3, Duration::millis(300))),
        "cofi" => Box::new(CoFiPartitions::new(seed, 0.02, 3, Duration::millis(500))),
        "traffic-surge" => Box::new(TrafficSurge::new(
            0,
            2_000,
            4,
            Duration::millis(1100),
            Some(Duration::millis(3600)),
        )),
        "no-fault" => Box::new(NoFault),
        other => panic!("unknown strategy {other:?}"),
    }
}

/// Scenarios in the CLI's registry order (sorted by name).
fn registry() -> Vec<StaticEntry> {
    let mut v = ph_scenarios::scenario_statics();
    v.sort_by_key(|e| e.name);
    v
}

fn entry(name: &str) -> StaticEntry {
    witness_bridge::entry_for(name).unwrap_or_else(|| panic!("unknown scenario {name:?}"))
}

/// `phtool matrix --trials N --seed S --threads T`.
fn matrix(p: &mut Probe, trials: u32, seed: u64, threads: usize) {
    let explorer = Explorer {
        max_trials: trials,
        base_seed: seed,
    };
    let mut cells = Vec::new();
    let (mut busy_ns, mut cell_ns, mut straggler_ns) = (0u64, 0u64, 0u64);
    let (mut kept_trials, mut run_trials) = (0u64, 0u64);
    for entry in registry() {
        for strategy_name in STRATEGIES {
            let log = Mutex::new(Vec::new());
            let start = spans::now_ns();
            let t = Instant::now();
            let outcome = span("core.parallel.explore", || {
                let cell = spans::current();
                explorer.explore_parallel(
                    threads,
                    entry.name,
                    &|seed, s| {
                        trial(
                            cell,
                            seed,
                            || (entry.run_traced)(seed, s, Variant::Buggy),
                            (entry.blame)(),
                            &log,
                        )
                        .0
                    },
                    &|seed| make_strategy(strategy_name, &entry, seed),
                )
            });
            let wall = t.elapsed().as_nanos() as u64;
            let end = spans::now_ns();
            let recs = log.into_inner().expect("trial log poisoned");
            // Trials the sequential explorer runs: every non-deduplicated
            // index up to the first detection. Speculative ones above it
            // are the pool's waste.
            let last = outcome.first_violation.unwrap_or(trials);
            let kept_seeds: Vec<u64> = (0..last).map(|t| explorer.trial_seed(t)).collect();
            let kept: Vec<&TrialRec> = recs
                .iter()
                .filter(|r| kept_seeds.contains(&r.seed))
                .collect();
            assert_eq!(kept.len() as u32, outcome.trials_run, "kept trials");
            let events: u64 = kept.iter().map(|r| r.counts[0]).sum();
            assert_eq!(events, outcome.total_events, "trace-counted events");
            for r in &kept {
                p.add_trial(r);
            }
            kept_trials += kept.len() as u64;
            run_trials += recs.len() as u64;
            busy_ns += recs.iter().map(|r| r.run_ns).sum::<u64>();
            cell_ns += wall * threads as u64;
            // Straggler time: from the first worker going idle for good
            // to the end of the cell.
            let mut last_end: std::collections::HashMap<std::thread::ThreadId, u64> =
                std::collections::HashMap::new();
            for r in &recs {
                let e = last_end.entry(r.worker).or_insert(0);
                *e = (*e).max(r.end_ns);
            }
            let first_idle = if last_end.len() < threads.min(trials as usize) {
                start
            } else {
                last_end.values().copied().min().unwrap_or(start)
            };
            straggler_ns += end.saturating_sub(first_idle);
            p.add("canon.deduped_trials", outcome.deduped_trials as f64);
            cells.push(format!(
                "[{},{},{}]",
                outcome.trials_run,
                outcome.total_events,
                outcome.first_violation.unwrap_or(0)
            ));
        }
    }
    p.add("pool.busy_ns", busy_ns as f64);
    p.add("pool.capacity_ns", cell_ns as f64);
    p.add("pool.straggler_ns", straggler_ns as f64);
    p.add("pool.kept_trials", kept_trials as f64);
    p.add("pool.run_trials", run_trials as f64);
    p.checks
        .push(format!("{{\"cells\":[{}]}}", cells.join(",")));
}

/// `phtool run --scenario X --variant V --strategy K --seed S --json`.
fn run(p: &mut Probe, scenario: &str, variant: Variant, strategy: &str, seed: u64) {
    let entry = entry(scenario);
    let log = Mutex::new(Vec::new());
    let mut s = make_strategy(strategy, &entry, seed);
    let (report, _) = trial(
        spans::current(),
        seed,
        || (entry.run_traced)(seed, s.as_mut(), variant),
        (entry.blame)(),
        &log,
    );
    let t = Instant::now();
    let json = span("report.to_json", || report.to_json());
    p.add("report_json_ns", ns_since(t) as f64);
    for r in log.into_inner().expect("trial log poisoned") {
        p.add_trial(&r);
    }
    p.add(
        "informer.relists",
        report.metrics.counter_total("informer.relist") as f64,
    );
    p.add(
        "informer.watch_events",
        report.metrics.counter_total("informer.watch_events") as f64,
    );
    p.checks.push(format!(
        "{{\"exit\":{},\"digest\":\"{:#018x}\",\"events\":{},\"json_len\":{}}}",
        if report.failed() { 3 } else { 0 },
        report.trace_digest,
        report.trace_events,
        json.len() + 1
    ));
}

/// `phtool scale --nodes N --shards K --seed S --json`. `run_probed`
/// keeps its trace and drops its world internally, so the trace counts
/// here come from the report's metrics, and bring-up is timed on a twin
/// `Runner::new` of the same cluster shape.
fn scale(p: &mut Probe, nodes: usize, shards: usize, seed: u64) {
    let params = mega_cluster::ScaleParams::for_nodes(nodes, shards);
    let cfg = ClusterConfig {
        store_nodes: 3,
        apiservers: 1,
        nodes: vec![],
        api_shards: params.shards,
        api_window: (params.pods / 2).max(1024),
        api_scale_telemetry: true,
        ..ClusterConfig::default()
    };
    let horizon = Duration(params.churn.0 + Duration::secs(2).0);
    let t = Instant::now();
    let runner = span("runner.new", || {
        Runner::new(mega_cluster::NAME, seed, &cfg, Duration::secs(1), horizon)
    });
    p.add("bringup_ns", ns_since(t) as f64);
    span("runner.drop", || drop(runner));
    let t = Instant::now();
    let (report, probe) = span("scale.run_probed", || {
        mega_cluster::run_probed(seed, &params)
    });
    p.add("run_ns", ns_since(t) as f64);
    let t = Instant::now();
    let json = span("report.to_json", || report.to_json());
    p.add("report_json_ns", ns_since(t) as f64);
    p.add("trials", 1.0);
    p.add("sim.events", report.trace_events as f64);
    let m = &report.metrics;
    p.add(
        "api.watch_event_msgs",
        m.counter_total("apiserver.watch_delivered") as f64,
    );
    p.add(
        "informer.relists",
        m.counter_total("informer.relist") as f64,
    );
    p.add(
        "informer.watch_events",
        m.counter_total("informer.watch_events") as f64,
    );
    p.add(
        "cache.bytes_per_object_run",
        probe.cache_bytes as f64 / probe.cache_objects.max(1) as f64,
    );
    p.checks.push(format!(
        "{{\"exit\":{},\"digest\":\"{:#018x}\",\"events\":{},\"json_len\":{}}}",
        if report.failed() { 3 } else { 0 },
        report.trace_digest,
        report.trace_events,
        json.len() + 1
    ));
}

/// `phtool hunt --scenario X --witnesses --seed S` (budget 30).
fn hunt_witnesses(p: &mut Probe, scenario: &str, seed: u64) {
    const BUDGET: usize = 30;
    let entry = entry(scenario);
    let summaries = (entry.summaries)(Variant::Buggy);
    let t = Instant::now();
    let reports = span("modelcheck.model_check_all", || {
        ph_lint::modelcheck::model_check_all(&summaries)
    });
    p.add("modelcheck_ns", ns_since(t) as f64);
    p.add(
        "modelcheck.states",
        reports.iter().map(|r| r.states_explored).sum::<usize>() as f64,
    );
    let t = Instant::now();
    let (priors, stats) = span("witness.plan", || witness_bridge::witness_plan(&entry));
    p.add("witness_plan_ns", ns_since(t) as f64);
    let t = Instant::now();
    for s in &priors {
        if let Some(ops) = s.planned_schedule() {
            span("canon.plan_class", || ph_core::plan_class(&ops));
        }
    }
    p.add("plan_class_ns", ns_since(t) as f64);
    p.add("canon.deduped_trials", stats.deduped_trials as f64);
    let t = Instant::now();
    let first = span("hunt.first_detection_guided", || {
        witness_bridge::first_detection_guided(&entry, BUDGET, seed)
    });
    // These trials run inside the bridge, untraced: they count as trials
    // but add no trace-derived work.
    p.add("first_detection_ns", ns_since(t) as f64);
    p.add("witness_trials", first.map_or(BUDGET as f64, |t| t as f64));
    p.checks.push(format!(
        "{{\"exit\":{},\"priors\":{},\"deduped\":{},\"first\":{}}}",
        if first.is_some() { 3 } else { 0 },
        priors.len(),
        stats.deduped_trials,
        first.unwrap_or(0)
    ));
}

/// The causal-hunt wiring the CLI uses: decision labels and the target
/// map of the scenario's cluster shape.
fn causal_spec(scenario: &str) -> (&'static [&'static str], Targets) {
    let (labels, cfg, horizon): (&'static [&'static str], _, _) = match scenario {
        "volume-ctrl-17" => (
            &["vc.release_pvc"],
            ClusterConfig {
                volume_controller: Some(ph_cluster::controllers::VcMode::MarkOnly),
                ..ClusterConfig::default()
            },
            Duration::secs(5),
        ),
        "k8s-56261" => (
            &["scheduler.bind"],
            ClusterConfig {
                scheduler: Some(false),
                rs_controller: Some(false),
                ..ClusterConfig::default()
            },
            Duration::secs(6),
        ),
        other => panic!("{other:?} is not wired for causal hunting"),
    };
    let mut world = ph_sim::World::new(ph_sim::WorldConfig::default(), 1);
    let cluster = ph_cluster::topology::spawn_cluster(&mut world, &cfg);
    (labels, ph_scenarios::common::targets_for(&cluster, horizon))
}

/// `phtool hunt --scenario X --seed S --threads T` (budget 20, depth 8).
fn hunt_causal(p: &mut Probe, scenario: &str, seed: u64, threads: usize) {
    const BUDGET: usize = 20;
    const DEPTH: usize = 8;
    let entry = entry(scenario);
    let (labels, targets) = causal_spec(scenario);
    // Candidate derivation on its own, on the same reference trace the
    // explorer derives from.
    let (_, reference) = span("autoguide.reference", || {
        (entry.run_traced)(seed, &mut NoFault, Variant::Buggy)
    });
    let t = Instant::now();
    let derived = span("autoguide.candidates", || {
        autoguide::candidates(&reference, &targets, labels, DEPTH, 300)
    });
    p.add("derive_ns", ns_since(t) as f64);
    p.add("autoguide.candidates", derived.len() as f64);
    drop(reference);
    let log = Mutex::new(Vec::new());
    let (findings, total, census) = span("autoguide.explore_parallel", || {
        let parent = spans::current();
        autoguide::explore_parallel(
            |strategy: &mut dyn Strategy| {
                let (report, trace) = trial(
                    parent,
                    seed,
                    || (entry.run_traced)(seed, strategy, Variant::Buggy),
                    (entry.blame)(),
                    &log,
                );
                let v = report
                    .violations
                    .iter()
                    .map(|v| v.details.clone())
                    .collect();
                (v, trace)
            },
            |_| targets.clone(),
            labels,
            DEPTH,
            BUDGET,
            threads,
        )
    });
    for r in log.into_inner().expect("trial log poisoned") {
        p.add_trial(&r);
    }
    p.add("canon.deduped_trials", census.deduped_trials as f64);
    let first = findings.iter().position(|f| f.violated).map(|i| i + 1);
    p.checks.push(format!(
        "{{\"exit\":{},\"derived\":{},\"tried\":{},\"first\":{}}}",
        if first.is_some() { 3 } else { 0 },
        total,
        findings.len(),
        first.unwrap_or(0)
    ));
}

/// Parses one `phtool` argument line and runs its in-process twin.
pub fn invoke(p: &mut Probe, line: &str, threads: usize) {
    let words: Vec<&str> = line.split_whitespace().collect();
    let flag = |k: &str| {
        words
            .iter()
            .position(|w| *w == format!("--{k}"))
            .and_then(|i| words.get(i + 1).copied())
    };
    let num = |k: &str, d: u64| flag(k).map_or(d, |v| v.parse().expect("numeric flag"));
    let has = |k: &str| words.contains(&format!("--{k}").as_str());
    span("invocation", || match words[0] {
        "matrix" => matrix(p, num("trials", 5) as u32, num("seed", 1000), threads),
        "run" => run(
            p,
            flag("scenario").expect("--scenario"),
            match flag("variant").unwrap_or("buggy") {
                "fixed" => Variant::Fixed,
                _ => Variant::Buggy,
            },
            flag("strategy").unwrap_or("guided"),
            num("seed", 1),
        ),
        "scale" => scale(
            p,
            num("nodes", 100) as usize,
            num("shards", 1) as usize,
            num("seed", 1),
        ),
        "hunt" if has("witnesses") => {
            hunt_witnesses(p, flag("scenario").expect("--scenario"), num("seed", 1))
        }
        "hunt" => hunt_causal(
            p,
            flag("scenario").expect("--scenario"),
            num("seed", 1),
            threads,
        ),
        other => panic!("no in-process twin for `phtool {other}`"),
    });
}
