//! **T1 — the §7 results**: "our tool has reproduced two known bugs in
//! Kubernetes … and detected three new bugs in a Kubernetes controller for
//! Cassandra" — as a detection matrix over the seven encoded paper bugs
//! plus the node-fencing hazard this reproduction adds, across six
//! strategies.
//!
//! Expected shape: the guided column detects every bug on trial 1; the
//! baseline heuristics are sparse (CoFI's consistency-guided partitions
//! catch some staleness bugs, matching the paper's §5 observation that such
//! heuristics work *because* they force (H′, S′) to diverge); uniform
//! random injection rarely lands.
//!
//! Trial budget: `PH_BENCH_TRIALS` env var (default 5).
//!
//! Run with `cargo bench -p ph-bench --bench table1_detection`.

use ph_bench::{criterion_group, criterion_main, Criterion};

use ph_core::harness::{DetectionMatrix, Explorer, RunReport};
use ph_core::perturb::{CoFiPartitions, CrashTunerCrashes, NoFault, RandomCrashes, Strategy};
use ph_scenarios::{
    cass_398, cass_400, cass_402, hbase_3136, k8s_56261, k8s_59848, node_fencing, volume_17,
    Variant,
};
use ph_sim::Duration;

type ScenarioRun = fn(u64, &mut dyn Strategy, Variant) -> RunReport;
type Guided = fn(u64) -> Box<dyn Strategy>;

fn scenarios() -> Vec<(&'static str, ScenarioRun, Guided)> {
    vec![
        (
            k8s_59848::NAME,
            k8s_59848::run as ScenarioRun,
            k8s_59848::guided as Guided,
        ),
        (k8s_56261::NAME, k8s_56261::run, k8s_56261::guided),
        (volume_17::NAME, volume_17::run, volume_17::guided),
        (cass_398::NAME, cass_398::run, cass_398::guided),
        (cass_400::NAME, cass_400::run, cass_400::guided),
        (cass_402::NAME, cass_402::run, cass_402::guided),
        (hbase_3136::NAME, hbase_3136::run, hbase_3136::guided),
        (node_fencing::NAME, node_fencing::run, node_fencing::guided),
    ]
}

fn baseline(kind: &str, seed: u64) -> Box<dyn Strategy> {
    match kind {
        "random-crash" => Box::new(RandomCrashes {
            seed,
            count: 3,
            down: Duration::millis(300),
        }),
        "crashtuner" => Box::new(CrashTunerCrashes::new(seed, 0.02, 3, Duration::millis(300))),
        "cofi" => Box::new(CoFiPartitions::new(seed, 0.02, 3, Duration::millis(500))),
        _ => Box::new(NoFault),
    }
}

fn build_matrix(max_trials: u32) -> DetectionMatrix {
    let explorer = Explorer {
        max_trials,
        base_seed: 1000,
    };
    let mut matrix = DetectionMatrix::new();
    for (name, run, guided) in scenarios() {
        let mut outcome =
            explorer.explore(name, &|seed, s| run(seed, s, Variant::Buggy), &|seed| {
                guided(seed)
            });
        outcome.strategy = "guided".into();
        matrix.add(outcome);
        for kind in ["random-crash", "crashtuner", "cofi", "no-fault"] {
            let outcome =
                explorer.explore(name, &|seed, s| run(seed, s, Variant::Buggy), &|seed| {
                    baseline(kind, seed)
                });
            matrix.add(outcome);
        }
    }
    matrix
}

fn print_table() -> DetectionMatrix {
    let trials: u32 = ph_bench::knob("PH_BENCH_TRIALS", 5);
    println!("\n=== T1 (§7 results): detection matrix, budget {trials} trials/cell ===\n");
    let matrix = build_matrix(trials);
    println!("{}", matrix.render());
    let guided_detected = matrix
        .cells()
        .iter()
        .filter(|c| c.strategy == "guided" && c.detected())
        .count();
    println!("guided: {guided_detected}/8 detected (expected 8/8 on trial 1)");
    assert_eq!(guided_detected, 8, "guided strategies must find every bug");
    matrix
}

fn bench(c: &mut Criterion) {
    let _ = print_table();
    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(5));
    // The tool's unit of work: one guided trial on the fastest scenario.
    group.bench_function("one_guided_trial_volume17", |b| {
        b.iter(|| {
            let mut s = volume_17::guided(1);
            volume_17::run(1, s.as_mut(), Variant::Buggy).failed()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
