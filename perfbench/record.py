#!/usr/bin/env python3
"""Records the expected per-invocation values run.py checks against.

    python3 perfbench/record.py --seeds 1-10 [--workload NAME ...]

Runs each workload's invocation set once per seed with the release phtool
built from this checkout and writes perfbench/expected/<workload>.json:
{seed: {invocation: [exit code, stdout digest, first-detection trial]}}.
Record only from a commit whose outputs are known good; run.py treats
these values as the contract.
"""

import argparse
import json

import run


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", required=True, help="range such as 1-10")
    ap.add_argument("--workload", nargs="*", default=run.WORKLOADS, choices=run.WORKLOADS)
    a = ap.parse_args()
    lo, hi = (int(x) for x in a.seeds.split("-"))
    phtool = run.build() / "phtool"
    for workload in a.workload:
        path = run.HERE / "expected" / f"{workload}.json"
        table = json.loads(path.read_text()) if path.is_file() else {}
        for seed in range(lo, hi + 1):
            values = {}
            for line in run.invocations(workload, seed, run.nproc()):
                code, out, _, _ = run.run_child([str(phtool)] + line.split())
                r = run.parse(line, code, out)
                if not run.semantic_ok(workload, line, r):
                    run.die(f"{line}: fails the seed-independent checks: {r}")
                values[run.key(line)] = run.record(r)
            table[str(seed)] = values
            print(f"{workload} seed {seed}: {len(values)} invocations", flush=True)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    main()
