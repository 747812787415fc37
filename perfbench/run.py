#!/usr/bin/env python3
"""The phtool benchmark: four workloads, end-to-end metrics, a traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the release `phtool` from the checkout's own workspace and the
in-process probe (`perfbench/`, a Cargo package of its own), then:

--trace 0  spawns the real `phtool` in a closed loop, one invocation at a
           time, passing over the workload's invocation set as often as
           fits in `--seconds`, and reports the end-to-end metrics.
--trace 1  alternates an untraced pass over the set with the same invocations
           run in-process under spans plus the isolated layer harnesses, for
           `--seconds`, and reports the per-layer metrics (medians over the
           rounds), the tracing overhead and the phase accounting.

Every invocation's exit code, stdout digest and first-detection trial is
checked against the value recorded for that seed (`perfbench/expected/`,
else the first time this checkout saw the seed, else the first repetition
of this run); mismatches count as failed operations. The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Metric definitions (times per invocation are medians over the passes made
in one run, so a stall in one pass moves one sample):
  setup_s           set-up time of one pass: each invocation's zero-work form
                    (matrix --trials 0, hunt --witnesses --budget 0, and
                    `phtool list` where a command has none), summed; the
                    median over repeats
  wall_s            wall time of one pass over the invocation set
  trials_per_s      trials phtool reports running, over wall_s
  sim_events_per_s  trace events phtool reports, over the wall time of the
                    invocations that report them (on hunt, the causal hunts)
  latency_ms_p50/95 per-invocation latency over every pass: one trial on
                    fixed-sweep (trial_ms), time to first detection on hunt
                    (detect_ms), the whole invocation on detect-matrix and
                    scale-1k. p95 is the highest percentile with at least ten
                    samples beyond it on fixed-sweep and hunt; the sample
                    count is printed.
  peak_rss_mb       (printed, and a per-layer metric) the largest child
                    high-water RSS. It is not an end-to-end metric: on
                    detect-matrix it follows which trials overlap and moves
                    by a third from seed to seed.
The op failure fraction is failed/attempted in the result line.
"""

import argparse
import hashlib
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SCENARIOS = [
    "cass-op-398", "cass-op-400", "cass-op-402", "congestion", "hbase-3136",
    "k8s-56261", "k8s-59848", "node-fencing", "volume-ctrl-17",
]
SWEEP_STRATEGIES = ["guided", "random-crash", "crashtuner", "cofi", "traffic-surge"]
CAUSAL = ["k8s-56261", "volume-ctrl-17"]
# Fixed variants that violate an oracle anyway: real findings, kept in the
# sweep at their own seeds whatever seed the run is given.
KNOWN_FINDINGS = [("k8s-59848", "crashtuner", 2), ("hbase-3136", "random-crash", 3)]
WORKLOADS = ["detect-matrix", "fixed-sweep", "scale-1k", "hunt"]
SETUP_SPAWNS = 31
WITNESS_BUDGET = 30
CHILD_CPU_SECONDS = 120


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


def invocations(workload, seed, threads):
    """The workload's invocation set: phtool argument lines."""
    if workload == "detect-matrix":
        return [f"matrix --trials 8 --seed {seed} --threads {threads}"]
    if workload == "fixed-sweep":
        runs = [(s, k, seed + i) for s in SCENARIOS for k in SWEEP_STRATEGIES for i in range(3)]
        runs += [f for f in KNOWN_FINDINGS if f not in runs]
        return [f"run --scenario {s} --variant fixed --strategy {k} --seed {n} --json --threads 1"
                for s, k, n in runs]
    if workload == "scale-1k":
        return [f"scale --nodes 1000 --shards 8 --seed {seed} --json"]
    lines = []
    for i in range(5):
        lines += [f"hunt --scenario {s} --witnesses --seed {seed + i}" for s in SCENARIOS]
        lines += [f"hunt --scenario {s} --seed {seed + i} --threads {threads}" for s in CAUSAL]
    return lines


def setup_form(line):
    """An invocation's zero-work form: everything it does before its first
    trial. `phtool list` stands in where the command has none."""
    if line.startswith("matrix"):
        return re.sub(r"--trials \d+", "--trials 0", line)
    if line.startswith("hunt") and "--witnesses" in line:
        return line + " --budget 0"
    return "list"


def target_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        die(f"no phtool workspace at {ROOT}: the benchmark builds phtool from source", 2)
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (["cargo", "build", "--release", "--offline", "--bin", "phtool"],
                ["cargo", "build", "--release", "--offline",
                 "--manifest-path", str(HERE / "Cargo.toml")]):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, text=True)
        if r.returncode != 0:
            die(f"{' '.join(cmd)} failed:\n{r.stderr[-4000:]}")
    return target_dir() / "release"


def run_child(argv, stdin=None):
    """Runs one child to completion and reaps it with os.wait4, so its own
    peak RSS is known: (exit code, stdout, seconds, peak RSS in KiB)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    if stdin:
        p.stdin.write(stdin.encode())
        p.stdin.close()
    out = p.stdout.read()
    p.stdout.close()
    _, status, usage = os.wait4(p.pid, 0)
    dt = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, out.decode(), dt, usage.ru_maxrss


def parse(line, code, out):
    """What one phtool invocation reports: trials, events, first detection,
    plus the values the in-process twin is checked against."""
    cmd = line.split()[0]
    r = {"exit": code, "digest": hashlib.sha256(out.encode()).hexdigest()[:16],
         "bytes": len(out.encode()), "trials": 0, "events": 0, "first": 0}
    if cmd == "matrix":
        grid, cells = [], []
        for ln in out.splitlines():
            if ln.split(" ")[0] in SCENARIOS and ("✓" in ln or "✗" in ln):
                grid += [int(n) if n else 0 for n in re.findall(r"✓ (\d+)|✗", ln)]
            m = re.match(r"^\S.* / .*?\s+(\d+)\s+\d+\s+\d+\s+(\d+)\s", ln)
            if m:
                cells.append((int(m.group(1)), int(m.group(2))))
        if len(grid) != len(cells):
            r["parse_error"] = True
        r["trials"] = sum(t for t, _ in cells)
        r["events"] = sum(e for _, e in cells)
        r["cells"] = [[t, e, f] for (t, e), f in zip(cells, grid)]
        r["guided_first"] = grid[0::6]
    elif cmd in ("run", "scale"):
        try:
            rep = json.loads(out)
            r.update(trials=1, events=rep["trace_events"], trace_digest=rep["trace_digest"],
                     violated=bool(rep["violations"]))
        except (ValueError, KeyError):
            r["parse_error"] = True
    elif cmd == "hunt" and "--witnesses" in line:
        m = re.search(r"first detection at trial (\d+)", out)
        r["first"] = int(m.group(1)) if m else 0
        plan = re.search(r"\((\d+) prior\(s\).*deduped_trials=(\d+)", out, re.S)
        if plan:
            r.update(priors=int(plan.group(1)), deduped=int(plan.group(2)))
        else:
            r["parse_error"] = True
        r["trials"] = r["first"] or WITNESS_BUDGET
    elif cmd == "hunt":
        m = re.search(r"(\d+) candidates derived;.*; (\d+) tried", out)
        e = re.search(r"telemetry: (\d+) events", out)
        f = re.search(r"first violating candidate: #(\d+)", out)
        if not (m and e):
            r["parse_error"] = True
        else:
            r.update(derived=int(m.group(1)), trials=int(m.group(2)), events=int(e.group(1)))
        r["first"] = int(f.group(1)) if f else 0
    return r


def key(line):
    """The recorded-value key: the argument line without --threads, which
    changes only wall time."""
    return re.sub(r" --threads \d+", "", line)


def record(r):
    return [r["exit"], r["digest"], r["first"]]


def semantic_ok(workload, line, r):
    """Checks that hold for every seed, recorded or not."""
    if r.get("parse_error") or r["exit"] not in (0, 3):
        return False
    if workload == "detect-matrix":
        # Guided injection detects every bug on its first trial.
        return r["exit"] == 3 and r["guided_first"] == [1] * len(SCENARIOS)
    if workload == "fixed-sweep":
        parts = line.split()
        seed = int(parts[parts.index("--seed") + 1])
        finding = (parts[2], parts[6], seed) in KNOWN_FINDINGS
        return r["violated"] == (r["exit"] == 3) and (not finding or r["exit"] == 3)
    if workload == "scale-1k":
        return r["exit"] == 0 and r["events"] > 0
    return True


class Expected:
    """Recorded values per invocation for one (workload, seed): committed
    ones first, then the ones this checkout recorded on first sight."""

    def __init__(self, workload, seed):
        self.seed = str(seed)
        golden = HERE / "expected" / f"{workload}.json"
        self.values = json.loads(golden.read_text()).get(self.seed, {}) if golden.is_file() else {}
        self.cache = target_dir() / "perfbench-expected" / f"{workload}-{seed}.json"
        if not self.values and self.cache.is_file():
            self.values = json.loads(self.cache.read_text())
        self.fresh = not self.values

    def check(self, line, r):
        want = self.values.setdefault(key(line), record(r))
        return want == record(r)

    def save(self):
        if self.fresh:
            self.cache.parent.mkdir(parents=True, exist_ok=True)
            self.cache.write_text(json.dumps(self.values, sort_keys=True, indent=0))


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def run_set(phtool, workload, lines, expected, tally):
    """One pass over the invocation set; returns its per-invocation results."""
    results = []
    for line in lines:
        code, out, dt, rss = run_child([str(phtool)] + line.split())
        r = parse(line, code, out)
        r.update(line=line, seconds=dt, rss_kib=rss)
        ok = semantic_ok(workload, line, r) and expected.check(line, r)
        tally.op(ok, f"{line}: exit {code}, digest {r['digest']}, first {r['first']}")
        results.append(r)
    return results


def measure_setup(phtool, lines, tally):
    """Set-up time of one pass: the zero-work form of every invocation,
    summed. Repeated until at least SETUP_SPAWNS children have run."""
    forms = [setup_form(line) for line in lines]
    samples = []
    for _ in range(-(-SETUP_SPAWNS // len(forms))):
        total = 0.0
        for line in forms:
            code, _, dt, _ = run_child([str(phtool)] + line.split())
            tally.op(code == 0, f"setup {line}: exit {code}")
            total += dt
        samples.append(total)
    return samples


def end_to_end(phtool, workload, seed, seconds, threads, expected, tally):
    lines = invocations(workload, seed, threads)
    start = time.perf_counter()
    setup, sets = [], []
    # Set-up samples and passes alternate, so both spread over the whole
    # run; no pass starts that would end past --seconds.
    while True:
        setup += measure_setup(phtool, lines, tally)
        t = time.perf_counter()
        sets.append(run_set(phtool, workload, lines, expected, tally))
        now = time.perf_counter()
        if now + (now - t) > start + seconds:
            break
    setup_s, setup_n = statistics.median(setup), len(setup)
    # Each invocation's median over the sets, so a stall in one pass moves
    # one sample, not the whole figure.
    per_inv = [statistics.median(s[i]["seconds"] for s in sets) for i in range(len(lines))]
    wall = sum(per_inv)
    first = sets[0]
    trials = sum(r["trials"] for r in first)
    events = sum(r["events"] for r in first)
    # Only some hunts print an event count; rate them over their own time.
    evented = [t for t, r in zip(per_inv, first) if r["events"]]
    lat = [r["seconds"] * 1e3 for s in sets for r in s if workload != "hunt" or r["exit"] == 3] \
        or [r["seconds"] * 1e3 for s in sets for r in s]
    twentieths = statistics.quantiles(lat * 2 if len(lat) == 1 else lat, n=20, method="inclusive")
    rss = [statistics.median(s[i]["rss_kib"] for s in sets) / 1024 for i in range(len(lines))]
    rows = [
        ("setup_s", setup_s, "s", setup_n),
        ("wall_s", wall, "s", len(sets)),
        ("trials_per_s", trials / wall, "1/s", len(sets)),
        ("sim_events_per_s", events / sum(evented), "1/s", len(sets)),
        ("latency_ms_p50", twentieths[9], "ms", len(lat)),
        ("latency_ms_p95", twentieths[18], "ms", len(lat)),
        ("peak_rss_mb", max(rss), "MB", len(lines)),
    ]
    alias = {"fixed-sweep": "trial_ms", "hunt": "detect_ms"}.get(workload)
    print(f"workload {workload}: seed {seed}, threads {threads}, {len(lines)} invocations x "
          f"{len(sets)} sets, {trials} trials and {events} events per set")
    for name, value, unit, n in rows:
        extra = f"  (= {alias}{name[len('latency_ms'):]})" if alias and name.startswith("lat") else ""
        print(f"  {name:18} {value:14.6g} {unit:4} n={n}{extra}")
    findings = sorted({r["line"] for s in sets for r in s
                       if workload == "fixed-sweep" and r["exit"] == 3})
    for f in findings:
        print(f"  fixed-variant violation: phtool {f}")
    return {n: {"value": v, "unit": u} for n, v, u, _ in rows}, sets


def probe_run(probe, lines, threads, harness):
    args = [str(probe), "--threads", str(threads)] + (["--harness"] if harness else [])
    code, out, _, _ = run_child(args, stdin="\n".join(lines))
    if code != 0:
        die(f"perfbench-probe exited {code}")
    return json.loads(out.strip().splitlines()[-1])


def traced(phtool, probe, workload, seed, seconds, threads, expected, tally):
    """Alternates an untraced phtool pass with the traced in-process run
    for --seconds; per-layer metrics are medians over the rounds, and the
    trace-derived counts must be identical in every round."""
    lines = invocations(workload, seed, threads)
    list_s = statistics.median(run_child([str(phtool), "list"])[2] for _ in range(5))
    start = time.perf_counter()
    rounds, totals, counts_ok = [], [], True
    while True:
        t = time.perf_counter()
        untraced = run_set(phtool, workload, lines, expected, tally)
        untraced_s = sum(r["seconds"] for r in untraced)
        res = probe_run(probe, lines, threads, harness=True)
        for line, r, c in zip(lines, untraced, res["checks"]):
            tally.op(twin_ok(r, c), f"in-process twin disagrees with phtool {line}: {c}")
        if len(res["checks"]) != len(lines):
            tally.op(False, "in-process twin ran a different number of invocations")
        m = layer_metrics(res, untraced_s, list_s, len(lines))
        m["proc.peak_rss_mb"] = (max(r["rss_kib"] for r in untraced) / 1024, "MB")
        rounds.append(m)
        totals.append({k: res["totals"].get(k, 0) for k in COUNT_KEYS})
        print(f"workload {workload}: seed {seed}, round {len(rounds)}: traced in-process run "
              f"{res['wall_ns'] / 1e9:.3f} s, untraced phtool set {untraced_s:.3f} s, "
              f"harnesses {res['harness_wall_ns'] / 1e9:.3f} s")
        now = time.perf_counter()
        if now + (now - t) > start + seconds:
            break
    if workload == "detect-matrix":
        # The same work on one thread: the counts must not move with the pool.
        one = probe_run(probe, lines, 1, harness=False)["totals"]
        totals.append({k: one.get(k, 0) for k in COUNT_KEYS})
    for k in COUNT_KEYS:
        seen = sorted({tot[k] for tot in totals})
        if len(seen) > 1:
            counts_ok = False
            print(f"  count {k} moved between rounds or thread counts: {seen}")
    counts_ok &= counts_repeat(workload, seed, totals[0])
    metrics = {k: {"value": statistics.median(r[k][0] for r in rounds), "unit": u}
               for k, (_, u) in rounds[0].items()}
    table = {r["metric"]: r for r in json.loads((HERE / "layers.json").read_text())["layers"]}
    for name in sorted(metrics):
        row = table.get(name) or table.get(name.split(".")[0] + ".*") \
            or table.get(name.split(".")[0] + ".*_ms", {})
        moves = f"-> {row['moves']} on {row['on']}" if row.get("moves") else ""
        print(f"  {name:32} {metrics[name]['value']:14.6g} {metrics[name]['unit']:6} {moves}")
    return metrics, counts_ok


def twin_ok(r, c):
    if "cells" in c:
        return r.get("cells") == c["cells"]
    if "digest" in c:
        return r["exit"] == c["exit"] and r["trace_digest"] == c["digest"] \
            and r["events"] == c["events"] and r["bytes"] == c["json_len"]
    if "priors" in c:
        return r["exit"] == c["exit"] and r["first"] == c["first"] \
            and r.get("priors") == c["priors"] and r.get("deduped") == c["deduped"]
    return r["exit"] == c["exit"] and r["first"] == c["first"] \
        and r.get("derived") == c["derived"] and r["trials"] == c["tried"]


# Work counts reported as per-layer metrics, then the ones only checked.
LAYER_COUNTS = ["sim.events", "net.msgs_sent", "net.msgs_queued", "net.msgs_dropped",
                "raft.wire_msgs", "store.watch_notify_msgs", "store.client_requests",
                "api.watch_event_msgs", "informer.relists", "informer.watch_events",
                "canon.deduped_trials", "autoguide.candidates", "modelcheck.states"]
COUNT_KEYS = LAYER_COUNTS + ["pool.kept_trials", "trials", "witness_trials"]


def counts_repeat(workload, seed, totals):
    """Trace-derived counts are recorded on first sight of a seed and must
    repeat exactly on every later traced run of the same code."""
    path = target_dir() / "perfbench-expected" / f"{workload}-{seed}.counts.json"
    now = {k: totals.get(k, 0) for k in COUNT_KEYS}
    if path.is_file():
        before = json.loads(path.read_text())
        moved = [k for k in COUNT_KEYS if before.get(k) != now[k]]
        for k in moved:
            print(f"  count {k} moved between runs: {before.get(k)} -> {now[k]}")
        return not moved
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(now, sort_keys=True))
    return True


def layer_metrics(res, untraced_s, list_s, invocations_n):
    """Per-layer metrics from the probe's totals, spans and harnesses.

    Inside a trial the layers interleave in World::step, so the in-step
    time (run time less bring-up, the trial's own digest and blame slice
    and its metrics report) is split by trace-derived op count x harness
    ns/op, and what is left is reported as `self_ms.residual`."""
    t, h, sp = res["totals"], res["harness"], res["spans"]
    g = lambda k: float(t.get(k, 0))  # noqa: E731
    own = lambda name: float(sp.get(name, [0, 0, 0])[2])  # noqa: E731
    total = lambda name: float(sp.get(name, [0, 0, 0])[1])  # noqa: E731
    ms = 1e-6
    trials, events = g("trials"), g("sim.events")
    bringup = g("bringup_ns") or trials * h["runner.bringup_ns"]
    # run_probed keeps its trace, so its digest is priced per event.
    digest = g("digest_ns") or events * h["trace.digest_harness_ns_per_event"]
    report_est = max(trials, 1 if events else 0) * h["metrics.report_ns"]
    in_step = g("run_ns") - bringup - digest - g("explain_ns") - report_est
    est = {
        "sim": events * h["sim.pingpong_ns_per_event"],
        "net": g("net.msgs_sent") * h["net.offer_ns"],
        "raft": g("raft.wire_msgs") * h["raft.ns_per_wire_msg"],
        # Every replica applies each client request.
        "mvcc": g("store.client_requests") * 3 * h["mvcc.apply_ns"]
        + g("store.watch_notify_msgs") * h["mvcc.events_since_ns_per_event"],
        "apiserver": g("api.watch_event_msgs") * (h["window.push_ns"] + h["cache.insert_ns"]),
    }
    layers = {
        "cli": own("invocation"),
        "pool": own("core.parallel.explore") + own("autoguide.explore_parallel"),
        "runner": bringup,
        "metrics": report_est,
        "trace": digest,
        "provenance": g("explain_ns"),
        "report": own("report.to_json"),
        "modelcheck": own("modelcheck.model_check_all"),
        "witness": own("witness.plan") + own("hunt.first_detection_guided"),
        "canon": own("canon.plan_class"),
        "autoguide": own("autoguide.candidates"),
        # Work the probe adds to attribute the rest: the per-trial replays
        # of digest and blame slice, trace counting, the bring-up twin and
        # the causal hunts' second reference run.
        "replay": own("trial") + own("trace.digest") + own("provenance.explain")
        + own("runner.new") + own("runner.drop") + own("autoguide.reference"),
        **est,
        "residual": in_step - sum(est.values()),
    }
    explained = g("explained_trials")
    witness_hunts = sum(1 for c in res["checks"] if "priors" in c)
    causal_hunts = sum(1 for c in res["checks"] if "derived" in c)
    # Trials inside a pool overlap; dividing their summed time by the pool's
    # measured parallelism turns it back into wall time for the phases.
    pool_wall = total("core.parallel.explore") + total("autoguide.explore_parallel")
    par = total("trial") / pool_wall if pool_wall else 1.0
    m = {f"self_ms.{k}": (v * ms, "ms") for k, v in layers.items()}
    phases = {
        "process": invocations_n * list_s * 1e9,
        "bringup": bringup / par,
        "run": (in_step + g("explain_ns")) / par + g("first_detection_ns") + g("witness_plan_ns"),
        "digest": (digest + report_est) / par,
        "report": g("report_json_ns"),
    }
    phases["residual"] = untraced_s * 1e9 - sum(phases.values())
    m.update({f"phase.{k}_ms": (v * ms, "ms") for k, v in phases.items()})
    m.update({
        "trace.overhead_ms": (res["wall_ns"] * ms - untraced_s * 1e3, "ms"),
        "sim.run_until_ns_per_event": (in_step / events if events else 0, "ns"),
        "trace.digest_ns_per_event": (digest / events if events else 0, "ns"),
        "runner.bringup_ns": (bringup / max(trials, 1), "ns"),
        "runner.bringup_share": (bringup / g("run_ns") if g("run_ns") else 0, "ratio"),
        "provenance.explain_ns": (g("explain_ns") / explained if explained
                                  else h["provenance.explain_harness_ns"], "ns"),
        "provenance.ns_per_trace_event":
            (g("explain_ns") / g("explained_events") if explained else 0, "ns"),
        "pool.busy_frac": (g("pool.busy_ns") / g("pool.capacity_ns")
                           if g("pool.capacity_ns") else 0, "ratio"),
        "pool.straggler_ms": (g("pool.straggler_ns") * ms, "ms"),
        "pool.useful_trial_frac": (g("pool.kept_trials") / g("pool.run_trials")
                                   if g("pool.run_trials") else 0, "ratio"),
        "modelcheck.ns": (g("modelcheck_ns") / witness_hunts if witness_hunts
                          else h["modelcheck.harness_ns"], "ns"),
        "witness.plan_ns": (g("witness_plan_ns") / witness_hunts if witness_hunts else 0, "ns"),
        "canon.plan_class_ns": (g("plan_class_ns") / witness_hunts if witness_hunts else 0, "ns"),
        "autoguide.derive_ns": (g("derive_ns") / causal_hunts if causal_hunts else 0, "ns"),
        "cache.bytes_per_object": (g("cache.bytes_per_object_run")
                                   or h["cache.bytes_per_object"], "bytes"),
    })
    for k in LAYER_COUNTS:
        m[k] = (g(k), "count")
    for k in ("sim.pingpong_ns_per_event", "sim.pingpong_ns_per_msg", "sim.naive_ns_per_msg",
              "net.offer_ns", "net.offer_full_ns", "raft.commit_ns", "raft.ns_per_wire_msg",
              "mvcc.apply_ns", "mvcc.events_since_ns_per_event", "cache.insert_ns",
              "cache.remove_ns", "cache.range_ns_per_obj", "window.push_ns",
              "runner.sample_ns", "metrics.report_ns"):
        m[k] = (h[k], "ns")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if not (ROOT / "BENCHMARK.json").is_file():
        die(f"no BENCHMARK.json at {ROOT}", 2)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    release = build()
    # Inherited by every child from here on: a runaway phtool is killed by
    # the kernel well inside the run's time limit.
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_SECONDS, CHILD_CPU_SECONDS))
    phtool, probe = release / "phtool", release / "perfbench-probe"
    threads = nproc()
    expected = Expected(a.workload, a.seed)
    tally = Tally()
    correct = True
    if a.trace:
        metrics, correct = traced(phtool, probe, a.workload, a.seed, a.seconds, threads,
                                  expected, tally)
        wanted = [m["name"] for m in bench["per_layer"]]
    else:
        metrics, _ = end_to_end(phtool, a.workload, a.seed, a.seconds, threads, expected, tally)
        wanted = [m["name"] for m in bench["end_to_end"]]
    missing = [n for n in wanted if n not in metrics]
    if missing:
        die(f"metrics not produced: {missing}")
    if tally.failed == 0:
        expected.save()
    for n in tally.notes[:20]:
        print(f"  FAILED {n}")
    print(f"  op_fail_frac       {tally.failed / tally.attempted:.6g} "
          f"({tally.failed}/{tally.attempted})")
    print(json.dumps({
        "correct": bool(correct and tally.failed == 0),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: metrics[n] for n in wanted},
    }))


if __name__ == "__main__":
    main()
