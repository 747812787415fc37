//! Isolated layer harnesses. Each one drives a single layer through its
//! public API only and reports nanoseconds per operation as the median of
//! [`REPEATS`] timed rounds of fixed work. Work sizes are fixed, so the
//! harness counts repeat exactly from run to run; only the times move.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use ph_cluster::api::ObjEvent;
use ph_cluster::objects::Object;
use ph_cluster::topology::ClusterConfig;
use ph_cluster::{ShardedCache, WindowRing};
use ph_core::perturb::NoFault;
use ph_scenarios::{Runner, Variant};
use ph_sim::{
    Actor, ActorId, AnyMsg, Ctx, Duration, LinkConfig, NetConfig, Network, SimRng, SimTime,
    TraceEventKind, World, WorldConfig,
};
use ph_store::client::BasicClient;
use ph_store::msgs::{Expect, Op};
use ph_store::{
    spawn_store_cluster, MvccStore, Revision, StoreClient, StoreClientConfig, StoreNodeConfig,
    Value,
};

use crate::naive;

/// Timed rounds per harness; the median is reported.
const REPEATS: usize = 3;

/// Harness results by metric name.
pub type Results = BTreeMap<&'static str, f64>;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The median of `REPEATS` rounds of `round`, which returns ns per op.
fn median_of(mut round: impl FnMut() -> f64) -> f64 {
    median((0..REPEATS).map(|_| round()).collect())
}

/// Times `REPEATS` rounds of `round`, which returns its operation count,
/// and gives the median ns per operation.
fn ns_per_op(mut round: impl FnMut() -> u64) -> f64 {
    median_of(|| {
        let t = Instant::now();
        let ops = round();
        t.elapsed().as_nanos() as f64 / ops.max(1) as f64
    })
}

/// A null actor: replies to every message until its hop budget is spent.
struct PingPong {
    left: u64,
}

#[derive(Debug)]
struct Ball;

impl Actor for PingPong {
    fn on_start(&mut self, _ctx: &mut Ctx) {}

    fn on_message(&mut self, from: ActorId, _msg: AnyMsg, ctx: &mut Ctx) {
        if self.left > 0 {
            self.left -= 1;
            ctx.send(from, Ball);
        }
    }
}

/// World ping-pong: `pairs` actor pairs bouncing one message each.
/// Returns `(trace events, delivered messages)`.
fn world_pingpong(pairs: usize, hops: u64) -> (u64, u64) {
    let mut world = World::new(WorldConfig::default(), 7);
    for p in 0..pairs {
        let a = world.spawn(&format!("ping-{p}"), PingPong { left: hops / 2 });
        let b = world.spawn(&format!("pong-{p}"), PingPong { left: hops / 2 });
        world.invoke::<PingPong, _>(a, |_, ctx| ctx.send(b, Ball));
    }
    world.run_for(Duration::secs(1_000_000));
    let trace = world.trace();
    let delivered = trace.count(|e| matches!(e.kind, TraceEventKind::MessageDelivered { .. }));
    (trace.len() as u64, delivered as u64)
}

/// Sim core: null actors ping-ponging through the world's queue, against
/// the naive boxed-event heap on the same pattern.
fn sim(out: &mut Results) {
    const PAIRS: usize = 64;
    const HOPS: u64 = 2_000;
    let mut per_event = Vec::new();
    let mut per_msg = Vec::new();
    for _ in 0..REPEATS {
        let t = Instant::now();
        let (events, msgs) = world_pingpong(PAIRS, HOPS);
        let ns = t.elapsed().as_nanos() as f64;
        per_event.push(ns / events as f64);
        per_msg.push(ns / msgs as f64);
    }
    out.insert("sim.pingpong_ns_per_event", median(per_event));
    out.insert("sim.pingpong_ns_per_msg", median(per_msg));
    out.insert(
        "sim.naive_ns_per_msg",
        ns_per_op(|| naive::pingpong(PAIRS, HOPS)),
    );
}

/// Network: `offer` on a finite link kept below its queue capacity, and
/// the same link offered a burst far past it (tail drops).
fn net(out: &mut Results) {
    const OPS: u64 = 200_000;
    let link = LinkConfig {
        bandwidth: 1_000_000,
        queue: 64,
        ..LinkConfig::default()
    };
    let (a, b) = (ActorId(0), ActorId(1));
    // 1 KB at 1 MB/s departs in 1 ms; offering every 1 ms never queues up.
    out.insert(
        "net.offer_ns",
        ns_per_op(|| {
            let mut net = Network::new(NetConfig { default_link: link });
            let mut rng = SimRng::from_seed(1);
            for i in 0..OPS {
                let now = SimTime(i * 1_000_000);
                black_box(net.offer(a, b, now, &mut rng, 1_000, Duration::ZERO));
            }
            OPS
        }),
    );
    out.insert(
        "net.offer_full_ns",
        ns_per_op(|| {
            let mut net = Network::new(NetConfig { default_link: link });
            let mut rng = SimRng::from_seed(1);
            for i in 0..OPS {
                // 1000 offers per departure: the queue sits at capacity.
                let now = SimTime(i * 1_000);
                black_box(net.offer(a, b, now, &mut rng, 1_000, Duration::ZERO));
            }
            OPS
        }),
    );
}

/// Raft: a 3-node store cluster committing puts from one client. Besides
/// ns per commit, reports the marginal cost per Raft wire message over the
/// sim core (`events × sim.pingpong_ns_per_event` taken out), which is
/// what the in-step attribution multiplies Raft message counts by.
fn raft(out: &mut Results) {
    const PUTS: u64 = 600;
    let mut per_commit = Vec::new();
    let mut per_wire = Vec::new();
    let sim_ns = out["sim.pingpong_ns_per_event"];
    for _ in 0..REPEATS {
        let mut world = World::new(WorldConfig::default(), 11);
        let cluster = spawn_store_cluster(&mut world, 3, StoreNodeConfig::default());
        let client = StoreClient::new(StoreClientConfig::new(cluster.nodes.clone()));
        let c = world.spawn("client", BasicClient::new(client, Duration::millis(50)));
        cluster
            .wait_for_leader(&mut world, SimTime(Duration::secs(2).as_nanos()))
            .expect("a 3-node cluster elects a leader within 2 s");
        let before = world.trace().len();
        let t = Instant::now();
        let mut last = 0;
        for i in 0..PUTS {
            last = world.invoke::<BasicClient, _>(c, |bc, ctx| {
                bc.client
                    .put(format!("k/{}", i % 64), Value::from_static(b"v"), ctx)
            });
            world.run_for(Duration::millis(2));
        }
        while world
            .actor_ref::<BasicClient>(c)
            .expect("client")
            .result_of(last)
            .is_none()
        {
            world.run_for(Duration::millis(10));
        }
        let ns = t.elapsed().as_nanos() as f64;
        let trace = &world.trace().events()[before..];
        let wire = trace
            .iter()
            .filter(|e| matches!(&e.kind, TraceEventKind::MessageSent { kind, .. } if kind.as_str() == "RaftWire"))
            .count();
        per_commit.push(ns / PUTS as f64);
        per_wire.push((ns - trace.len() as f64 * sim_ns).max(0.0) / wire.max(1) as f64);
    }
    out.insert("raft.commit_ns", median(per_commit));
    out.insert("raft.ns_per_wire_msg", median(per_wire));
}

fn put(key: String) -> Op {
    Op::Put {
        key: key.into(),
        value: Value::from_static(b"payload-payload-payload"),
        lease: None,
        expect: Expect::Any,
    }
}

/// MVCC: `apply` of puts over a rolling key set, then `events_since`
/// replaying the most recent window.
fn mvcc(out: &mut Results) {
    const OPS: u64 = 50_000;
    const WINDOW: u64 = 1_000;
    let keys: Vec<String> = (0..1_000).map(|i| format!("pods/p{i}")).collect();
    out.insert(
        "mvcc.apply_ns",
        ns_per_op(|| {
            let mut store = MvccStore::new();
            for i in 0..OPS {
                black_box(store.apply(&put(keys[(i % 1_000) as usize].clone())).0)
                    .expect("an unconditional put applies");
            }
            OPS
        }),
    );
    let mut store = MvccStore::new();
    for i in 0..OPS {
        store
            .apply(&put(keys[(i % 1_000) as usize].clone()))
            .0
            .expect("an unconditional put applies");
    }
    let from = Revision(store.revision().0 - WINDOW);
    out.insert(
        "mvcc.events_since_ns_per_event",
        ns_per_op(|| {
            let mut n = 0;
            for _ in 0..100 {
                n += black_box(store.events_since(from).expect("window retained")).len() as u64;
            }
            n
        }),
    );
}

/// Apiserver cache: `ShardedCache` insert/range/remove churn over 8
/// shards, and `WindowRing` pushes past capacity.
fn cache(out: &mut Results) {
    const OBJS: usize = 20_000;
    let keys: Vec<String> = (0..OBJS).map(|i| format!("pods/p{i:06}")).collect();
    let value = Value::copy_from_slice(&[7u8; 256]);
    let fill = |cache: &mut ShardedCache| {
        for (i, k) in keys.iter().enumerate() {
            cache.insert(k, value.clone(), Revision(i as u64 + 1));
        }
    };
    out.insert(
        "cache.insert_ns",
        ns_per_op(|| {
            let mut cache = ShardedCache::new(8);
            fill(&mut cache);
            black_box(cache.len());
            OBJS as u64
        }),
    );
    let mut cache = ShardedCache::new(8);
    fill(&mut cache);
    out.insert(
        "cache.bytes_per_object",
        cache.approx_bytes() as f64 / cache.len() as f64,
    );
    out.insert(
        "cache.range_ns_per_obj",
        ns_per_op(|| {
            let mut n = 0;
            for _ in 0..10 {
                for kv in cache.range_prefix("pods/") {
                    black_box(kv);
                    n += 1;
                }
            }
            n
        }),
    );
    out.insert(
        "cache.remove_ns",
        median_of(|| {
            let mut cache = ShardedCache::new(8);
            fill(&mut cache);
            let t = Instant::now();
            for k in &keys {
                black_box(cache.remove(k));
            }
            t.elapsed().as_nanos() as f64 / OBJS as f64
        }),
    );
    let events: Vec<Rc<ObjEvent>> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| {
            Rc::new(ObjEvent {
                key: k.clone(),
                revision: Revision(i as u64 + 1),
                value: Some(value.clone()),
            })
        })
        .collect();
    out.insert(
        "window.push_ns",
        ns_per_op(|| {
            let mut ring = WindowRing::new(1_024);
            for ev in &events {
                black_box(ring.push(Rc::clone(ev)));
            }
            OBJS as u64
        }),
    );
}

/// The scenario runner: `Runner::new` bring-up of the default cluster,
/// then `sample_divergence` and `World::metrics_report` on the warmed
/// world.
fn runner(out: &mut Results) {
    let cfg = ClusterConfig::default();
    let mut bringups = Vec::new();
    let mut runner = None;
    for i in 0..REPEATS {
        let t = Instant::now();
        let r = Runner::new(
            "harness",
            1 + i as u64,
            &cfg,
            Duration::secs(1),
            Duration::secs(3),
        );
        bringups.push(t.elapsed().as_nanos() as f64);
        runner = Some(r);
    }
    out.insert("runner.bringup_ns", median(bringups));
    let mut runner = runner.expect("REPEATS > 0");
    runner.seed(&Object::node("node-1"));
    runner.seed(&Object::node("node-2"));
    runner.drive(&mut NoFault, Duration::secs(2), Duration::millis(10));
    out.insert(
        "runner.sample_ns",
        ns_per_op(|| {
            for _ in 0..2_000 {
                runner.sample_divergence();
            }
            2_000
        }),
    );
    out.insert(
        "metrics.report_ns",
        ns_per_op(|| {
            for _ in 0..200 {
                black_box(runner.world.metrics_report());
            }
            200
        }),
    );
}

/// The blame slicer: `explain` on the recorded trace of a guided, failing
/// k8s-59848 trial; and the trace digest on the same trace, which prices
/// the digest of runs whose trace is not handed out (`run_probed`).
fn provenance(out: &mut Results) {
    use ph_scenarios::k8s_59848 as s;
    let mut strategy = s::guided(1);
    let (report, trace) = s::run_with_trace(1, strategy.as_mut(), Variant::Buggy);
    assert!(
        report.failed(),
        "the guided k8s-59848 trial detects the bug"
    );
    let spec = s::blame_spec();
    let ns = ns_per_op(|| {
        for _ in 0..20 {
            black_box(ph_core::explain(&trace, &spec, &report.violations));
        }
        20
    });
    out.insert("provenance.explain_harness_ns", ns);
    out.insert(
        "trace.digest_harness_ns_per_event",
        ns_per_op(|| {
            for _ in 0..20 {
                black_box(trace.digest());
            }
            20 * trace.len() as u64
        }),
    );
}

/// The model checker over every scenario's buggy-variant summaries.
fn modelcheck(out: &mut Results) {
    let summaries: Vec<_> = ph_scenarios::scenario_statics()
        .iter()
        .flat_map(|e| (e.summaries)(Variant::Buggy))
        .collect();
    out.insert(
        "modelcheck.harness_ns",
        ns_per_op(|| {
            black_box(ph_lint::modelcheck::model_check_all(&summaries));
            1
        }),
    );
}

/// Runs every harness, in dependency order (the Raft harness subtracts the
/// sim core's per-event cost).
pub fn run_all() -> Results {
    let mut out = Results::new();
    sim(&mut out);
    net(&mut out);
    raft(&mut out);
    mvcc(&mut out);
    cache(&mut out);
    runner(&mut out);
    provenance(&mut out);
    modelcheck(&mut out);
    out
}
