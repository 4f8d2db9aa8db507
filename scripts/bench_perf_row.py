#!/usr/bin/env python3
"""Append one row to the BENCH_perf.json trajectory from two result sets.

    python3 scripts/bench_perf_row.py BASE_DIR CAND_DIR --change TEXT \\
        [--claim METRIC:WORKLOAD] [--date YYYY-MM-DD] [--out BENCH_perf.json]

BASE_DIR and CAND_DIR hold untraced mcopt_perf results files (run.py
--out-dir), one per (workload, seed), of the parent and the change. The row
records, for every end-to-end metric and workload of BENCHMARK.json, the
median and quartiles of each side with compare.py's verdict; the seeds; the
host fingerprint (nproc, cpu_model, compiler, build_type), which must be the
same in every file; each (workload, seed)'s digests, which must agree across
both sets; and, with --claim, compare.py's 9-of-10-pairs claim result. The
statistics are compare.py's own functions, so the row says what compare.py
printed. Validate the file with scripts/check_obs_outputs.py
--bench-perf-json.
"""

import argparse
import datetime
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "mcopt-bench-perf/1"


def load_compare():
    spec = importlib.util.spec_from_file_location(
        "perf_compare", ROOT / "bench" / "perf" / "compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def side_stats(compare, xs):
    q1, med, q3 = compare.quartiles(xs)
    return {"median": med, "q1": q1, "q3": q3, "n": len(xs)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("cand")
    ap.add_argument("--change", required=True,
                    help="one line saying what the measured change does")
    ap.add_argument("--claim", metavar="METRIC:WORKLOAD")
    ap.add_argument("--date", default=datetime.date.today().isoformat())
    ap.add_argument("--out", default=str(ROOT / "BENCH_perf.json"))
    args = ap.parse_args()

    compare = load_compare()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, cand = compare.load(args.base), compare.load(args.cand)
    workloads = sorted(set(base) & set(cand))
    if not workloads:
        sys.exit("no workload has results on both sides")

    hosts = {json.dumps(d["host"], sort_keys=True)
             for runs in (base, cand) for w in runs.values()
             for docs in w.values() for d in docs}
    if len(hosts) != 1:
        sys.exit(f"results come from more than one host: {sorted(hosts)}")

    metrics = []
    for entry in spec["end_to_end"]:
        name, lower = entry["name"], entry["better"] == "lower"
        for workload in workloads:
            a = compare.values(base[workload], name)
            c = compare.values(cand[workload], name)
            if not a or not c:
                continue
            b_stats, c_stats = side_stats(compare, a), side_stats(compare, c)
            metrics.append({
                "metric": name, "workload": workload, "unit": entry["unit"],
                "better": entry["better"], "bound": entry["bound"],
                "base": b_stats, "cand": c_stats,
                "delta_pct": (c_stats["median"] - b_stats["median"])
                / b_stats["median"] * 100.0,
                "verdict": compare.verdict(a, c, entry["bound"], lower),
            })

    digests = {}
    seeds = set()
    for workload in workloads:
        for seed in sorted(set(base[workload]) | set(cand[workload])):
            docs = base[workload].get(seed, []) + cand[workload].get(seed, [])
            found = {json.dumps(d["digests"], sort_keys=True) for d in docs}
            if len(found) != 1:
                sys.exit(f"digest mismatch on {workload} seed {seed}: {sorted(found)}")
            digests.setdefault(workload, {})[str(seed)] = docs[0]["digests"]
            seeds.add(seed)

    seconds = {d["seconds"] for runs in (base, cand) for w in runs.values()
               for docs in w.values() for d in docs}
    if len(seconds) != 1:
        sys.exit(f"runs differ in length: {sorted(seconds)} s")
    row = {
        "change": args.change,
        "date": args.date,
        "seeds": sorted(seeds),
        "run_seconds": seconds.pop(),
        "host": json.loads(hosts.pop()),
        "metrics": metrics,
        "digests": digests,
    }
    if args.claim:
        metric, _, workload = args.claim.partition(":")
        entry = next((e for e in spec["end_to_end"] if e["name"] == metric), None)
        if entry is None or workload not in workloads:
            sys.exit(f"claim {args.claim}: unknown metric or workload missing")
        met, why = compare.claim(base[workload], cand[workload], metric,
                                 entry["better"] == "lower")
        row["claim"] = {"metric": metric, "workload": workload, "met": met,
                        "detail": why}

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {"schema": SCHEMA,
                                                           "rows": []}
    doc["rows"].append(row)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"appended row {len(doc['rows'])} to {out}: {len(metrics)} metric "
          f"rows, seeds {row['seeds']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
