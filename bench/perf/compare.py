#!/usr/bin/env python3
"""Compare two sets of mcopt_perf results under the bounds in BENCHMARK.json.

    python3 bench/perf/compare.py BASE_DIR CAND_DIR [--claim METRIC:WORKLOAD]

Each directory holds untraced results files (as written by run.py --out-dir),
typically one per seed. For every end-to-end metric and workload it prints
the median and quartiles of each side and a verdict:

  worse       the candidate's median is worse than the base's by more than
              the metric's bound
  unresolved  the base's own spread (quartile distance over median) exceeds
              the bound, and not every candidate run beats every base run
  better      the candidate's median is better by more than the base's
              quartile distance
  unchanged   otherwise

It also checks that sim_digest / verdict_digest agree for every seed across
both sets (a speed-only change must simulate and decide exactly the same).
--claim applies the gain rule to one named (metric, workload): runs are
paired by seed, the candidate must win at least 9 of every 10 pairs (ties
count for neither) and its median must beat the base's by more than the
base's quartile distance. Exits 1 on any worse row, digest mismatch or
unmet claim.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load(directory):
    """{workload: {seed: [doc, ...]}} of the untraced results in `directory`."""
    out = {}
    for path in sorted(Path(directory).glob("*.json")):
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError:
            continue
        if not isinstance(doc, dict) or doc.get("schema") != "mcopt-perf-result/1":
            continue
        if doc.get("traced") or doc.get("smoke"):
            continue
        out.setdefault(doc["workload"], {}).setdefault(doc["seed"], []).append(doc)
    return out


def values(runs, metric):
    return [d["metrics"][metric]["value"] for docs in runs.values() for d in docs
            if metric in d["metrics"]]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def better(a, b, lower):
    """True when value b is better than value a."""
    return b < a if lower else b > a


def verdict(base, cand, bound, lower):
    q1a, meda, q3a = quartiles(base)
    _, medc, _ = quartiles(cand)
    spread = (q3a - q1a) / abs(meda) if meda else float("inf")
    worse_by = (medc - meda) / abs(meda) if lower else (meda - medc) / abs(meda)
    if worse_by > bound:
        return "worse"
    if spread > bound:
        all_better = all(better(a, c, lower) for a in base for c in cand)
        return "better" if all_better else "unresolved"
    if -worse_by * abs(meda) > (q3a - q1a):
        return "better"
    return "unchanged"


def claim(base_runs, cand_runs, metric, lower):
    """(met, description) of the 9-of-10-pairs gain rule for one metric."""
    base, cand = values(base_runs, metric), values(cand_runs, metric)
    if not base or not cand:
        return False, f"no {metric} values on one side"
    seeds = [s for s in sorted(set(base_runs) & set(cand_runs))
             if values({s: base_runs[s]}, metric) and values({s: cand_runs[s]}, metric)]
    wins = losses = 0
    for seed in seeds:
        a = statistics.median(values({seed: base_runs[seed]}, metric))
        c = statistics.median(values({seed: cand_runs[seed]}, metric))
        if better(a, c, lower):
            wins += 1
        elif better(c, a, lower):
            losses += 1
    q1a, meda, q3a = quartiles(base)
    _, medc, _ = quartiles(cand)
    gain = (meda - medc) if lower else (medc - meda)
    met = bool(seeds) and wins >= 0.9 * len(seeds) and gain > (q3a - q1a)
    return met, (f"{wins} wins / {losses} losses over {len(seeds)} seed pairs; "
                 f"median gain {gain:.6g} vs base quartile distance {q3a - q1a:.6g}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("cand")
    ap.add_argument("--claim", metavar="METRIC:WORKLOAD")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, cand = load(args.base), load(args.cand)
    failed = False

    print(f"{'metric':16s} {'workload':16s} {'base median [q1, q3]':38s} "
          f"{'cand median [q1, q3]':38s} {'delta':>8s}  verdict")
    for entry in spec["end_to_end"]:
        name, lower = entry["name"], entry["better"] == "lower"
        for workload in sorted(set(base) & set(cand)):
            a, c = values(base[workload], name), values(cand[workload], name)
            if not a or not c:
                continue
            q1a, ma, q3a = quartiles(a)
            q1c, mc, q3c = quartiles(c)
            v = verdict(a, c, entry["bound"], lower)
            failed |= v == "worse"
            delta = (mc - ma) / ma * 100.0 if ma else float("nan")
            print(f"{name:16s} {workload:16s} "
                  f"{f'{ma:.6g} [{q1a:.6g}, {q3a:.6g}]':38s} "
                  f"{f'{mc:.6g} [{q1c:.6g}, {q3c:.6g}]':38s} {delta:+7.2f}%  {v}")

    for workload in sorted(set(base) | set(cand)):
        seeds = set(base.get(workload, {})) | set(cand.get(workload, {}))
        for seed in sorted(seeds):
            docs = base.get(workload, {}).get(seed, []) + cand.get(workload, {}).get(seed, [])
            digests = {json.dumps(d["digests"], sort_keys=True) for d in docs}
            if len(digests) > 1:
                failed = True
                print(f"DIGEST MISMATCH {workload} seed {seed}: {sorted(digests)}")

    if args.claim:
        metric, _, workload = args.claim.partition(":")
        entry = next((e for e in spec["end_to_end"] if e["name"] == metric), None)
        if entry is None or workload not in base or workload not in cand:
            print(f"claim {args.claim}: unknown metric or workload missing")
            return 1
        met, why = claim(base[workload], cand[workload], metric,
                         entry["better"] == "lower")
        print(f"claim {args.claim}: {'met' if met else 'NOT met'} ({why})")
        failed |= not met
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
