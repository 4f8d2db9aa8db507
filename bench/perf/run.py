#!/usr/bin/env python3
"""Build and run the mcopt wall-clock benchmark (stdlib only).

    python3 bench/perf/run.py --workload des-chip --seed 1 [--seconds 20] [--trace 0|1]
    python3 bench/perf/run.py --traced [--seed 1] [--seconds 20]
    python3 bench/perf/run.py --check <results.json>
    python3 bench/perf/run.py --smoke [--binary <mcopt_perf>]

The first form builds bench/perf (a standalone CMake project that pulls in
the repository's libraries) under $CARGO_TARGET_DIR/perf, or .bench_build/perf
when that is unset, runs one workload, validates the results file it wrote,
prints every metric with its unit, and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). It exits nonzero when the build fails, a
correctness gate fails or the results file is malformed. --traced runs every
workload once with tracing on and prints each one's layer breakdown. --smoke
checks that the host-speed probe does not depend on the caches' state, then
runs every workload at tiny sizes, traced and untraced, in a few seconds (the
perf_smoke ctest).
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ("des-chip", "des-node", "service-mix", "durable-kernels")
RUN_TIMEOUT_S = 170
SCHEMA = "mcopt-perf-result/1"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def benchmark_spec():
    """End-to-end and per-layer metric lists of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (ROOT / target / "perf").resolve()


def build():
    """Configures (once) and builds mcopt_perf; returns (path or None, log)."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    build_log = out / "build.log"
    with open(build_log, "w") as logf:
        if not (out / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT).returncode:
                # A failed configure leaves a cache that would skip the
                # configure step next time.
                (out / "CMakeCache.txt").unlink(missing_ok=True)
                return None, build_log
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", str(out), "--target", "mcopt_perf", "-j", jobs]
        if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT).returncode:
            return None, build_log
    return out / "mcopt_perf", build_log


def binary_or_build(args):
    if args.binary:
        return Path(args.binary)
    binary, build_log = build()
    if binary is None:
        log(f"run.py: build failed; see {build_log}")
    return binary


def finite_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def check_result(doc, required=()):
    """Schema problems of one results document (empty list = valid).

    `required` lists BENCHMARK.json metric entries the file must carry with
    the declared unit."""
    problems = []
    if not isinstance(doc, dict):
        return ["results file is not a JSON object"]
    expect = {"schema": str, "workload": str, "seed": int, "seconds": (int, float),
              "traced": bool, "smoke": bool, "host": dict, "correct": bool,
              "attempted": int, "failed": int, "gates": list, "digests": dict,
              "metrics": dict}
    for key, kind in expect.items():
        if not isinstance(doc.get(key), kind):
            problems.append(f"'{key}' missing or not {kind}")
    if problems:
        return problems
    if doc["schema"] != SCHEMA:
        problems.append(f"schema '{doc['schema']}' != '{SCHEMA}'")
    if doc["workload"] not in WORKLOADS:
        problems.append(f"unknown workload '{doc['workload']}'")
    host = doc["host"]
    for key in ("nproc", "cpu_model", "compiler", "build_type"):
        if key not in host:
            problems.append(f"host.{key} missing")
    if doc["attempted"] < 1:
        problems.append("attempted < 1")
    if not 0 <= doc["failed"] <= doc["attempted"]:
        problems.append("failed outside [0, attempted]")
    for gate in doc["gates"]:
        if not (isinstance(gate, dict) and isinstance(gate.get("name"), str)
                and isinstance(gate.get("pass"), bool)):
            problems.append(f"malformed gate {gate!r}")
    gates_pass = all(g.get("pass") is True for g in doc["gates"])
    if doc["correct"] != (gates_pass and doc["failed"] == 0):
        problems.append("'correct' disagrees with the gates and failure count")
    for name, crc in doc["digests"].items():
        if not (isinstance(crc, str) and crc.startswith("0x") and len(crc) == 10):
            problems.append(f"digest {name} malformed: {crc!r}")
    for name, m in doc["metrics"].items():
        if not (isinstance(m, dict) and finite_number(m.get("value"))
                and isinstance(m.get("unit"), str)):
            problems.append(f"metric {name} malformed: {m!r}")
    for entry in required:
        m = doc["metrics"].get(entry["name"])
        if m is None:
            problems.append(f"required metric {entry['name']} missing")
        elif m.get("unit") != entry["unit"]:
            problems.append(f"metric {entry['name']} unit {m.get('unit')!r} != "
                            f"{entry['unit']!r}")
    return problems


def run_harness(binary, workload, seed, seconds, traced, smoke, out_dir):
    """Runs one workload; returns (results doc or None, exit code)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--out-dir", str(out_dir)]
    if traced:
        cmd.append("--traced")
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, MCOPT_LOG_LEVEL="warn")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return None, -1
    lines = proc.stdout.strip().splitlines()
    if not lines or not Path(lines[-1]).is_file():
        log(f"run.py: {workload} exited {proc.returncode} without a results file")
        return None, proc.returncode
    return json.loads(Path(lines[-1]).read_text()), proc.returncode


def checked(doc, required):
    """Prints the schema problems of a harness result; True when it is usable."""
    if doc is None:
        return False
    problems = check_result(doc, required)
    for p in problems:
        log(f"run.py: results check: {p}")
    return not problems


def report(doc):
    """Prints every metric with its unit, every gate and every digest."""
    for name in sorted(doc["metrics"]):
        m = doc["metrics"][name]
        extra = f"  (n={m['n']})" if "n" in m else ""
        print(f"{name:40s} {m['value']:.6g} {m['unit']}{extra}")
    for gate in doc["gates"]:
        print(f"gate {gate['name']}: {'pass' if gate['pass'] else 'FAIL'}"
              f"{'' if gate['pass'] else ' - ' + gate.get('detail', '')}")
    for name, crc in sorted(doc["digests"].items()):
        print(f"{name}={crc}")


def main_run(args):
    end_to_end, per_layer = benchmark_spec()
    selected = per_layer if args.trace else end_to_end
    binary = binary_or_build(args)
    if binary is None:
        return 1
    out_dir = Path(args.out_dir) if args.out_dir else build_dir() / "results"
    doc, code = run_harness(binary, args.workload, args.seed, args.seconds,
                            args.trace, False, out_dir)
    if not checked(doc, selected):
        return 1
    report(doc)
    correct = doc["correct"] and code == 0
    metrics = {e["name"]: {"value": doc["metrics"][e["name"]]["value"],
                           "unit": e["unit"]} for e in selected}
    print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0 if correct else 1


def main_traced(args):
    _, per_layer = benchmark_spec()
    binary = binary_or_build(args)
    if binary is None:
        return 1
    out_dir = Path(args.out_dir) if args.out_dir else build_dir() / "traced"
    docs, failures = {}, 0
    for workload in WORKLOADS:
        doc, code = run_harness(binary, workload, args.seed, args.seconds, True,
                                False, out_dir)
        if not checked(doc, per_layer) or code != 0 or not doc["correct"]:
            log(f"run.py: traced {workload} failed")
            failures += 1
            continue
        docs[workload] = doc
    print(f"{'metric':38s}" + "".join(f"{w:>17s}" for w in docs))
    for entry in per_layer:
        print(f"{entry['name']:38s}" + "".join(
            f"{docs[w]['metrics'][entry['name']]['value']:17.4g}" for w in docs))
    print(f"traces and layer files: {out_dir}")
    return 1 if failures else 0


def main_check(path):
    end_to_end, per_layer = benchmark_spec()
    doc = json.loads(Path(path).read_text())
    required = per_layer if isinstance(doc, dict) and doc.get("traced") else end_to_end
    problems = check_result(doc, required)
    for p in problems:
        print(f"{path}: {p}")
    if not problems:
        print(f"{path}: ok")
    return 1 if problems else 0


def main_smoke(args):
    end_to_end, per_layer = benchmark_spec()
    binary = binary_or_build(args)
    if binary is None:
        return 1
    out_dir = Path(args.out_dir) if args.out_dir else build_dir() / "smoke"
    probe = subprocess.run([str(binary), "--probe-check"], stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    print(f"smoke probe-check: {'ok' if probe.returncode == 0 else 'FAIL'}"
          f" ({probe.stdout.strip()})")
    failures = int(probe.returncode != 0)
    for workload in WORKLOADS:
        for traced in (False, True):
            doc, code = run_harness(binary, workload, 1, 0.1, traced, True, out_dir)
            problems = ["no results"] if doc is None else check_result(
                doc, per_layer if traced else end_to_end)
            if doc is not None and (code != 0 or not doc["correct"]):
                problems.append("correctness gate failed")
            mode = "traced" if traced else "untraced"
            print(f"smoke {workload} {mode}: {'ok' if not problems else 'FAIL'}")
            for p in problems:
                print(f"  {p}")
            failures += bool(problems)
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", action="store_true",
                    help="run every workload once, traced, and print its layers")
    ap.add_argument("--check", metavar="RESULTS_JSON")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary", help="use this mcopt_perf instead of building")
    ap.add_argument("--out-dir", help="results directory (default: under the build)")
    args = ap.parse_args()
    if args.check:
        return main_check(args.check)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if args.smoke:
        return main_smoke(args)
    if args.traced:
        return main_traced(args)
    if not args.workload:
        ap.error("--workload, --traced, --check or --smoke is required")
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
