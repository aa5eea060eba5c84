#!/usr/bin/env python3
"""Run each workload repeatedly, each time in a fresh process, and print
per end-to-end metric the median, quartiles and min-max against the
metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py                       # every workload, seeds 1..10
    python3 perfbench/steady.py --workloads fd-audit --runs 5
    python3 perfbench/steady.py --batches 2           # two batches of the same code

The spread of a metric is (Q3 - Q1) / median over the runs of one batch,
with quartiles as statistics.quantiles(values, n=4) gives them. A
benchmark is steady when every spread, set-up time's included, stays
below a third of its bound; with --batches 2 the second batch's median
must also not be worse than the first's by more than the bound. The
failed share of operations must be the same in every batch. Exit status
1 means some figure fell outside these limits.

Each batch runs its seeds in a random order of its own, so a slow seed
and a slow phase of the host do not look alike: a seed effect follows
the seed from batch to batch, a host drift follows the position in the
batch.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"steady: {workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def worse_by(metric, first, second):
    """How much worse the second median is than the first, as a share."""
    if metric["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10, help="runs per batch, seeds first-seed .. first-seed+runs-1")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--batches", type=int, default=1)
    ap.add_argument("--json", help="also write every run's result to this file")
    args = ap.parse_args()

    metrics = spec["end_to_end"]
    ok = True
    record = {}
    for name in args.workloads.split(","):
        batches = []
        for b in range(args.batches):
            runs = []
            seeds = [args.first_seed + i for i in range(args.runs)]
            random.Random(b).shuffle(seeds)
            for pos, seed in enumerate(seeds):
                res = run_once(name, seed, args.seconds)
                res["seed"] = seed
                figures = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items()))
                print(f"{name} batch {b + 1} run {pos + 1} seed {seed}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']} {figures}", flush=True)
                runs.append(res)
            batches.append(runs)
        record[name] = batches
        print(f"\n{name}: {args.runs} runs x {args.batches} batch(es), {args.seconds}s each")
        print(f"  {'metric':<12} {'unit':<5} {'bound':>6} {'batch':>5} {'median':>14} {'Q1':>14} {'Q3':>14} "
              f"{'min':>14} {'max':>14} {'spread':>8}  verdict")
        medians = []
        for m in metrics:
            row_medians = []
            for b, runs in enumerate(batches):
                vals = [r["metrics"][m["name"]]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                if spread < m["bound"] / 3:
                    verdict = "steady"
                elif spread <= m["bound"]:
                    verdict = "within bound, not steady"
                    ok = False
                else:
                    verdict = "TOO WIDE"
                    ok = False
                row_medians.append(med)
                print(f"  {m['name']:<12} {m['unit']:<5} {m['bound']:>6.2f} {b + 1:>5} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} "
                      f"{min(vals):>14.4f} {max(vals):>14.4f} {spread:>8.4f}  {verdict}")
            medians.append((m, row_medians))
        for m, meds in medians:
            for b in range(1, len(meds)):
                w = worse_by(m, meds[0], meds[b])
                verdict = "agrees" if w <= m["bound"] else "WORSE THAN BOUND"
                ok = ok and w <= m["bound"]
                print(f"  {m['name']:<12} batch {b + 1} vs 1: median worse by {w:+.4f} (bound {m['bound']:.2f})  {verdict}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in batches]
        correct = all(r["correct"] for runs in batches for r in runs)
        print(f"  failed share per batch: {shares}; all correct: {correct}")
        ok = ok and correct and len(set(shares)) == 1
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
