#!/usr/bin/env python3
"""Validate the observability artifacts a bench run emits.

Checks (stdlib only, no third-party deps):
  --trace     Chrome trace_event JSON: parses, events carry ph/name/ts,
              timestamps are non-decreasing, every B has a matching E per
              (pid, tid), and the footer accounting is present.
  --metrics   Prometheus text exposition: expected metric families exist,
              histogram buckets are cumulative and end with +Inf == _count.
  --timeline  Per-controller timeline CSV: header shape, rows march forward
              without overlap per series, utilization stays in [0, 1].
  --recovery-json
              BENCH_recovery.json from bench/recovery: required keys, the
              fail-back contract (post-recovery tail >= 0.95x the full-
              healthy model AND above the survivor plateau's tail), and a
              bounded replan count on every flap row.
  --recovery-csv
              The flap-sweep CSV from bench/recovery: schema stamp, column
              shape, replans <= budget and bounded=true per row.
  --durability-json
              BENCH_durability.json from bench/durability: required keys,
              reconciled=true with the restarted per-tenant ledger equal to
              the reference byte-for-byte, the attribution rows (when
              present) byte-exact against the ledger, and (unless the run
              skipped the overhead phase) journal overhead under its bound.
  --attribution-json
              obs::Attribution export: cell taxonomy (charge kinds, shed
              reasons only on sheds), and the per-tenant / per-charge
              rollups recomputed from the cells must match the embedded
              rollup tables exactly.
  --burn-json
              obs::SloMonitor export: window/threshold config sanity and
              per-entry invariants (missed <= total, burns >= 0, alerts
              only where misses exist).
  --bench-perf-json
              BENCH_perf.json, the wall-clock trajectory written by
              scripts/bench_perf_row.py: every row carries the host
              fingerprint, its seeds, a median/quartile pair for every
              (end-to-end metric, workload) of BENCHMARK.json with
              consistent delta and no "worse" verdict, the digests of every
              (workload, seed), and a met claim when it makes one.

Exit code 0 when every provided artifact passes; 1 with a message per
failure otherwise.
"""

import argparse
import csv
import json
import re
import sys
from pathlib import Path

FAILURES = []


def fail(msg):
    FAILURES.append(msg)
    print(f"FAIL: {msg}", file=sys.stderr)


def check_trace(path, expect_events):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable JSON: {e}")
        return
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(f"{path}: missing traceEvents array")
        return
    if expect_events and not events:
        fail(f"{path}: traceEvents is empty (was tracing enabled?)")
        return
    prev_ts = -1.0
    opens = {}
    for i, ev in enumerate(events):
        for key in ("ph", "name", "ts", "pid", "tid"):
            if key not in ev:
                fail(f"{path}: event {i} lacks '{key}': {ev}")
                return
        ts = float(ev["ts"])
        if ts < prev_ts:
            fail(f"{path}: event {i} ts {ts} < previous {prev_ts}")
            return
        prev_ts = ts
        lane = (ev["pid"], ev["tid"])
        if ev["ph"] == "B":
            opens.setdefault(lane, []).append(ev["name"])
        elif ev["ph"] == "E":
            if not opens.get(lane):
                fail(f"{path}: event {i} is an E with no open B on {lane}")
                return
            opens[lane].pop()
    for lane, stack in opens.items():
        if stack:
            fail(f"{path}: unclosed spans {stack} on {lane}")
            return
    other = doc.get("otherData", {})
    for key in ("recorded", "dropped"):
        if key not in other:
            fail(f"{path}: otherData lacks '{key}'")
            return
    print(f"ok: {path}: {len(events)} events, "
          f"recorded={other['recorded']} dropped={other['dropped']}")


def check_metrics(path, families):
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        fail(f"{path}: {e}")
        return
    for family in families:
        if family not in text:
            fail(f"{path}: expected metric family '{family}' is absent")
    # Histogram sanity: cumulative buckets, +Inf bucket equals _count.
    buckets = {}  # name -> list of counts in order of appearance
    counts = {}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, _, value = line.rpartition(" ")
        if "_bucket{le=" in name:
            base = name.split("_bucket{le=")[0]
            buckets.setdefault(base, []).append(float(value))
        elif name.endswith("_count"):
            counts[name[: -len("_count")]] = float(value)
    for base, series in buckets.items():
        if any(b > a for a, b in zip(series[1:], series)):
            fail(f"{path}: histogram '{base}' buckets are not cumulative: "
                 f"{series}")
        if base in counts and series and series[-1] != counts[base]:
            fail(f"{path}: histogram '{base}' +Inf bucket {series[-1]} != "
                 f"_count {counts[base]}")
    print(f"ok: {path}: {len(buckets)} histogram families, "
          f"{len(text.splitlines())} lines")


CSV_SCHEMA_VERSION = "mcopt-csv v2"


def check_timeline(path):
    try:
        with open(path, newline="", encoding="utf-8") as f:
            lines = f.read().splitlines(keepends=True)
    except OSError as e:
        fail(f"{path}: {e}")
        return
    if not lines:
        fail(f"{path}: empty timeline CSV")
        return
    # Line 1 must carry the writer's schema stamp: a file written under a
    # different column convention is rejected up front instead of misread.
    if not lines[0].startswith(f"# {CSV_SCHEMA_VERSION}"):
        fail(f"{path}: missing '# {CSV_SCHEMA_VERSION}' schema header "
             f"(got: {lines[0].strip()!r})")
        return
    rows = list(csv.reader(lines[1:]))
    if not rows:
        fail(f"{path}: schema header but no CSV header row")
        return
    header = rows[0]
    if header[:4] != ["label", "sample", "begin_cycle", "end_cycle"]:
        fail(f"{path}: unexpected header {header[:4]}")
        return
    mc_cols = [c for c in header[4:] if c.startswith("mc")]
    if not mc_cols or len(mc_cols) != len(header) - 4:
        fail(f"{path}: controller columns malformed: {header[4:]}")
        return
    if len(rows) < 2:
        fail(f"{path}: header but no samples (cadence too coarse?)")
        return
    prev_end = {}
    for i, row in enumerate(rows[1:], start=2):
        label, _, begin, end = row[0], row[1], int(row[2]), int(row[3])
        if end <= begin:
            fail(f"{path}:{i}: empty interval [{begin}, {end})")
            return
        # Rows must march forward without overlapping; gaps are legal (a
        # supervised loop charges migration/scrub cycles between simulated
        # slices, so stitched timelines skip those stretches).
        if label in prev_end and begin < prev_end[label]:
            fail(f"{path}:{i}: series '{label}' overlaps: row starts at "
                 f"{begin} before previous end {prev_end[label]}")
            return
        prev_end[label] = end
        for col, cell in zip(mc_cols, row[4:]):
            if cell == "":  # padding for narrower series
                continue
            util = float(cell)
            if not 0.0 <= util <= 1.0 + 1e-9:
                fail(f"{path}:{i}: {col} utilization {util} outside [0, 1]")
                return
    print(f"ok: {path}: {len(rows) - 1} samples, "
          f"{len(mc_cols)} controllers, {len(prev_end)} series")


RECOVERY_OUTAGE_KEYS = (
    "schedule", "recovery_gbs", "plateau_gbs", "unsupervised_gbs",
    "tail_gbs", "plateau_tail_gbs", "full_model_gbs", "convergence",
    "probes", "probe_failures", "recoveries", "readmissions", "replans",
    "belief_stale_windows", "crc_ranges_verified",
    "probe_cycle_share", "migration_cycle_share",
)

RECOVERY_FLAP_KEYS = (
    "period", "events", "replans", "probes", "recoveries", "readmissions",
    "budget", "supervised_gbs", "bounded",
)


def check_recovery_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable JSON: {e}")
        return
    for key in ("bench", "sockets", "n", "threads_per_socket", "slices",
                "healthy_gbs", "outage_and_return", "flap_sweep", "metrics"):
        if key not in doc:
            fail(f"{path}: missing top-level key '{key}'")
            return
    if doc["bench"] != "recovery":
        fail(f"{path}: bench is {doc['bench']!r}, expected 'recovery'")
        return
    outage = doc["outage_and_return"]
    for key in RECOVERY_OUTAGE_KEYS:
        if key not in outage:
            fail(f"{path}: outage_and_return lacks '{key}'")
            return
    # The fail-back contract: the post-recovery tail must converge to the
    # full-healthy analytic model and beat the survivor plateau's tail —
    # otherwise fail-back bought nothing over staying packed.
    if outage["recoveries"] < 1 or outage["readmissions"] < 1:
        fail(f"{path}: outage run never recovered "
             f"(recoveries={outage['recoveries']} "
             f"readmissions={outage['readmissions']})")
    if outage["convergence"] < 0.95:
        fail(f"{path}: tail convergence {outage['convergence']} < 0.95 of "
             f"the full-healthy model")
    if outage["tail_gbs"] <= outage["plateau_tail_gbs"]:
        fail(f"{path}: recovered tail {outage['tail_gbs']} does not beat "
             f"the survivor plateau tail {outage['plateau_tail_gbs']}")
    if outage["crc_ranges_verified"] < 1:
        fail(f"{path}: no CRC-verified shard moves in the outage run")
    flaps = doc["flap_sweep"]
    if not isinstance(flaps, list) or not flaps:
        fail(f"{path}: flap_sweep is empty")
        return
    for i, row in enumerate(flaps):
        for key in RECOVERY_FLAP_KEYS:
            if key not in row:
                fail(f"{path}: flap_sweep[{i}] lacks '{key}'")
                return
        if not row["bounded"] or row["replans"] > row["budget"]:
            fail(f"{path}: flap_sweep[{i}] blew the replan budget: "
                 f"replans={row['replans']} budget={row['budget']} "
                 f"bounded={row['bounded']}")
    counters = doc["metrics"].get("counters", {})
    if counters.get("mcopt_supervisor_probes_total", 0) < 1:
        fail(f"{path}: metrics counter mcopt_supervisor_probes_total "
             f"never incremented")
    if not FAILURES:
        print(f"ok: {path}: convergence={outage['convergence']}, "
              f"{len(flaps)} flap rows, "
              f"{outage['crc_ranges_verified']} CRC-verified moves")


def check_recovery_csv(path):
    try:
        with open(path, newline="", encoding="utf-8") as f:
            lines = f.read().splitlines(keepends=True)
    except OSError as e:
        fail(f"{path}: {e}")
        return
    if not lines or not lines[0].startswith(f"# {CSV_SCHEMA_VERSION}"):
        fail(f"{path}: missing '# {CSV_SCHEMA_VERSION}' schema header")
        return
    rows = list(csv.reader(lines[1:]))
    if not rows or sorted(rows[0]) != sorted(RECOVERY_FLAP_KEYS):
        fail(f"{path}: unexpected header "
             f"{rows[0] if rows else '(none)'}; "
             f"expected the columns {sorted(RECOVERY_FLAP_KEYS)}")
        return
    if len(rows) < 2:
        fail(f"{path}: header but no flap rows")
        return
    col = {name: i for i, name in enumerate(rows[0])}
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(RECOVERY_FLAP_KEYS):
            fail(f"{path}:{i}: {len(row)} columns, "
                 f"expected {len(RECOVERY_FLAP_KEYS)}")
            return
        replans = int(row[col["replans"]])
        budget = int(row[col["budget"]])
        if row[col["bounded"]] != "true" or replans > budget:
            fail(f"{path}:{i}: replan budget violated: replans={replans} "
                 f"budget={budget} bounded={row[col['bounded']]}")
            return
    print(f"ok: {path}: {len(rows) - 1} flap rows, budgets respected")


DURABILITY_KEYS = (
    "bench", "seed", "jobs", "kill_after_us", "reconciled",
    "acked_watermark", "journal_records", "replayed_submissions",
    "resubmitted", "completed_skipped", "sheds_replayed", "dropped_bytes",
    "tenants", "overhead", "metrics",
)

DURABILITY_TENANT_KEYS = (
    "tenant", "ref_completed", "ref_served_bytes", "ref_sheds",
    "completed", "served_bytes", "sheds",
)


def check_durability_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable JSON: {e}")
        return
    for key in DURABILITY_KEYS:
        if key not in doc:
            fail(f"{path}: missing top-level key '{key}'")
            return
    if doc["bench"] != "durability":
        fail(f"{path}: bench is {doc['bench']!r}, expected 'durability'")
        return
    if not doc["reconciled"]:
        fail(f"{path}: kill-restart run did not reconcile")
    tenants = doc["tenants"]
    if not isinstance(tenants, list) or not tenants:
        fail(f"{path}: tenants table is empty")
        return
    for i, row in enumerate(tenants):
        for key in DURABILITY_TENANT_KEYS:
            if key not in row:
                fail(f"{path}: tenants[{i}] lacks '{key}'")
                return
        # The ledger contract, re-asserted on the artifact itself: the
        # restarted run's per-tenant ledger equals the uninterrupted
        # reference byte-for-byte.
        for field in ("completed", "served_bytes", "sheds"):
            if row[field] != row[f"ref_{field}"]:
                fail(f"{path}: tenants[{i}] {field} {row[field]} != "
                     f"reference {row[f'ref_{field}']}")
    # Attribution reconciliation rows (observability v2): every byte the
    # attribution ledger charged as served, and every shed event it
    # recorded, must match the authoritative per-tenant ledger exactly —
    # including across the SIGKILL/replay path.
    for i, row in enumerate(doc.get("attribution", [])):
        for key in ("tenant", "attr_served_bytes", "ledger_served_bytes",
                    "attr_shed_events", "ledger_sheds"):
            if key not in row:
                fail(f"{path}: attribution[{i}] lacks '{key}'")
                return
        if row["attr_served_bytes"] != row["ledger_served_bytes"]:
            fail(f"{path}: attribution[{i}] tenant {row['tenant']} served "
                 f"bytes diverge: attribution {row['attr_served_bytes']} != "
                 f"ledger {row['ledger_served_bytes']}")
        if row["attr_shed_events"] != row["ledger_sheds"]:
            fail(f"{path}: attribution[{i}] tenant {row['tenant']} shed "
                 f"counts diverge: attribution {row['attr_shed_events']} != "
                 f"ledger {row['ledger_sheds']}")
    ovh = doc["overhead"]
    for key in ("plain_seconds", "durable_seconds", "overhead_pct",
                "ab_median_pct", "bound_pct", "pass"):
        if key not in ovh:
            fail(f"{path}: overhead lacks '{key}'")
            return
    # plain_seconds == 0 marks a --skip-overhead run; the bound only
    # applies when the phase actually ran.
    if ovh["plain_seconds"] > 0 and ovh["overhead_pct"] >= ovh["bound_pct"]:
        fail(f"{path}: journal overhead {ovh['overhead_pct']}% >= bound "
             f"{ovh['bound_pct']}%")
    counters = doc["metrics"].get("counters", {})
    for family in ("mcopt_journal_fsyncs_total",
                   "mcopt_durable_restarts_total"):
        if counters.get(family, 0) < 1:
            fail(f"{path}: metrics counter {family} never incremented")
    if not FAILURES:
        print(f"ok: {path}: reconciled, "
              f"{doc['replayed_submissions']} replayed / "
              f"{doc['resubmitted']} resubmitted / "
              f"{doc['completed_skipped']} completed-skipped, "
              f"overhead {ovh['overhead_pct']}%")


ATTRIBUTION_CHARGES = ("served", "shed", "scrub", "probe", "migration")

ATTRIBUTION_CELL_KEYS = (
    "tenant", "socket", "controller", "charge", "reason", "bytes", "count",
)


def check_attribution_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable JSON: {e}")
        return
    for key in ("cells", "tenants", "totals"):
        if key not in doc:
            fail(f"{path}: missing top-level key '{key}'")
            return
    cells = doc["cells"]
    if not isinstance(cells, list):
        fail(f"{path}: cells is not a list")
        return
    # Recompute the rollups from the cells; the embedded tables must agree
    # exactly — a drift here means the exporter and the charge sites
    # disagree about what a byte is.
    tenant_served = {}
    tenant_sheds = {}
    totals = {}
    for i, cell in enumerate(cells):
        for key in ATTRIBUTION_CELL_KEYS:
            if key not in cell:
                fail(f"{path}: cells[{i}] lacks '{key}'")
                return
        charge = cell["charge"]
        if charge not in ATTRIBUTION_CHARGES:
            fail(f"{path}: cells[{i}] has unknown charge {charge!r}")
            return
        # charge_spread counts the event on the first controller cell only
        # (count=0 on the rest), so a zero count is legal — but a cell that
        # carries neither bytes nor count should not exist.
        if cell["bytes"] < 0 or cell["count"] < 0 or (
                cell["bytes"] == 0 and cell["count"] == 0):
            fail(f"{path}: cells[{i}] has bytes={cell['bytes']} "
                 f"count={cell['count']}")
            return
        if charge != "shed" and cell["reason"] != 0:
            fail(f"{path}: cells[{i}] carries shed reason {cell['reason']} "
                 f"on a {charge!r} charge")
            return
        t = cell["tenant"]
        if charge == "served":
            tenant_served[t] = tenant_served.get(t, 0) + cell["bytes"]
        elif charge == "shed":
            tenant_sheds[t] = tenant_sheds.get(t, 0) + cell["count"]
        tot = totals.setdefault(charge, [0, 0])
        tot[0] += cell["bytes"]
        tot[1] += cell["count"]
    for i, row in enumerate(doc["tenants"]):
        for key in ("tenant", "served_bytes", "sheds"):
            if key not in row:
                fail(f"{path}: tenants[{i}] lacks '{key}'")
                return
        t = row["tenant"]
        if row["served_bytes"] != tenant_served.get(t, 0):
            fail(f"{path}: tenant {t} rollup served_bytes "
                 f"{row['served_bytes']} != cell sum {tenant_served.get(t, 0)}")
        if row["sheds"] != tenant_sheds.get(t, 0):
            fail(f"{path}: tenant {t} rollup sheds {row['sheds']} != "
                 f"cell sum {tenant_sheds.get(t, 0)}")
    for charge, tot in doc["totals"].items():
        want = totals.get(charge, [0, 0])
        if [tot.get("bytes"), tot.get("count")] != want:
            fail(f"{path}: totals[{charge!r}] "
                 f"[{tot.get('bytes')}, {tot.get('count')}] != "
                 f"cell sums {want}")
    if not FAILURES:
        served = totals.get("served", [0, 0])
        print(f"ok: {path}: {len(cells)} cells, "
              f"{len(doc['tenants'])} tenants, "
              f"served {served[0]} bytes over {served[1]} charges, "
              f"rollups reconcile")


BURN_ENTRY_KEYS = (
    "tenant", "slo_class", "total", "missed", "fast_burn", "slow_burn",
    "alerts",
)


def check_burn_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable JSON: {e}")
        return
    for key in ("target", "fast_window", "slow_window", "fast_alert",
                "slow_alert", "entries"):
        if key not in doc:
            fail(f"{path}: missing top-level key '{key}'")
            return
    if not 0.0 < doc["target"] < 1.0:
        fail(f"{path}: SLO target {doc['target']} outside (0, 1)")
    if doc["fast_window"] >= doc["slow_window"]:
        fail(f"{path}: fast_window {doc['fast_window']} >= slow_window "
             f"{doc['slow_window']}")
    entries = doc["entries"]
    if not isinstance(entries, list):
        fail(f"{path}: entries is not a list")
        return
    alerts = 0
    for i, row in enumerate(entries):
        for key in BURN_ENTRY_KEYS:
            if key not in row:
                fail(f"{path}: entries[{i}] lacks '{key}'")
                return
        if row["missed"] > row["total"]:
            fail(f"{path}: entries[{i}] missed {row['missed']} > total "
                 f"{row['total']}")
        if row["fast_burn"] < 0 or row["slow_burn"] < 0:
            fail(f"{path}: entries[{i}] negative burn rate")
        # Alerts are edge-triggered on misses: a row that never missed an
        # SLO cannot have fired one.
        if row["alerts"] > 0 and row["missed"] == 0:
            fail(f"{path}: entries[{i}] fired {row['alerts']} alerts with "
                 f"zero misses")
        alerts += row["alerts"]
    if not FAILURES:
        print(f"ok: {path}: {len(entries)} (tenant, class) entries, "
              f"{alerts} alerts fired, target={doc['target']}")


BENCH_PERF_ROW_KEYS = ("change", "date", "seeds", "run_seconds", "host",
                       "metrics", "digests")
BENCH_PERF_HOST_KEYS = ("nproc", "cpu_model", "compiler", "build_type")
BENCH_PERF_VERDICTS = ("better", "unchanged", "unresolved")


def check_bench_perf_row(where, row, spec):
    for key in BENCH_PERF_ROW_KEYS:
        if key not in row:
            fail(f"{where}: missing '{key}'")
            return
    host = row["host"]
    for key in BENCH_PERF_HOST_KEYS:
        if not host.get(key):
            fail(f"{where}: host fingerprint lacks '{key}'")
    seeds = row["seeds"]
    if (not isinstance(seeds, list) or not seeds
            or len(set(seeds)) != len(seeds)
            or not all(isinstance(x, int) for x in seeds)):
        fail(f"{where}: seeds must be a non-empty list of distinct ints")
        return
    workloads = sorted(row["digests"])
    known = {w["name"] for w in spec["workloads"]}
    if not workloads or not set(workloads) <= known:
        fail(f"{where}: digests name workloads {workloads}, expected a "
             f"subset of {sorted(known)}")
        return
    for w in workloads:
        per_seed = row["digests"][w]
        if sorted(per_seed) != sorted(str(x) for x in seeds):
            fail(f"{where}: {w} digests cover seeds {sorted(per_seed)}, "
                 f"expected {seeds}")
        for seed, digest in per_seed.items():
            if not digest or not all(
                    isinstance(v, str) and re.fullmatch(r"0x[0-9a-f]+", v)
                    for v in digest.values()):
                fail(f"{where}: {w} seed {seed} digests are not hex: {digest}")
    seen = {}
    for m in row["metrics"]:
        seen[(m.get("metric"), m.get("workload"))] = m
    for entry in spec["end_to_end"]:
        for w in workloads:
            m = seen.get((entry["name"], w))
            label = f"{where}: {entry['name']} on {w}"
            if m is None:
                fail(f"{label}: missing")
                continue
            if (m["unit"], m["better"], m["bound"]) != (
                    entry["unit"], entry["better"], entry["bound"]):
                fail(f"{label}: unit/better/bound differ from BENCHMARK.json")
            for side in ("base", "cand"):
                st = m[side]
                if not st["n"] >= 1 or not st["q1"] <= st["median"] <= st["q3"]:
                    fail(f"{label}: {side} quartiles out of order: {st}")
            b, c = m["base"]["median"], m["cand"]["median"]
            delta = (c - b) / b * 100.0 if b else float("nan")
            if not abs(delta - m["delta_pct"]) <= 1e-6 * max(1.0, abs(delta)):
                fail(f"{label}: delta_pct {m['delta_pct']} does not match "
                     f"the medians ({delta})")
            if m["verdict"] not in BENCH_PERF_VERDICTS:
                fail(f"{label}: verdict {m['verdict']!r}")
    claim = row.get("claim")
    if claim is not None:
        found = re.match(r"(\d+) wins / (\d+) losses over (\d+) seed pairs",
                         claim.get("detail", ""))
        if (not claim.get("met") or found is None
                or int(found.group(1)) < 0.9 * int(found.group(3))
                or (claim["metric"], claim["workload"]) not in seen):
            fail(f"{where}: claim {claim} is not met")


def check_bench_perf_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable JSON: {e}")
        return
    if doc.get("schema") != "mcopt-bench-perf/1":
        fail(f"{path}: schema is {doc.get('schema')!r}, expected "
             f"'mcopt-bench-perf/1'")
        return
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        fail(f"{path}: no rows")
        return
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    before = len(FAILURES)
    for i, row in enumerate(rows):
        check_bench_perf_row(f"{path}: rows[{i}]", row, spec)
    if len(FAILURES) == before:
        last = rows[-1]
        print(f"ok: {path}: {len(rows)} rows; last: {len(last['metrics'])} "
              f"metric rows over seeds {last['seeds']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trace", help="Chrome trace JSON to validate")
    ap.add_argument("--metrics", help="Prometheus text exposition to validate")
    ap.add_argument("--timeline", help="per-controller timeline CSV to validate")
    ap.add_argument("--recovery-json",
                    help="BENCH_recovery.json from bench/recovery to validate")
    ap.add_argument("--recovery-csv",
                    help="flap-sweep CSV from bench/recovery to validate")
    ap.add_argument("--durability-json",
                    help="BENCH_durability.json from bench/durability to "
                         "validate")
    ap.add_argument("--attribution-json",
                    help="obs::Attribution JSON export to validate")
    ap.add_argument("--burn-json",
                    help="obs::SloMonitor burn-gauge JSON export to validate")
    ap.add_argument("--bench-perf-json",
                    help="BENCH_perf.json wall-clock trajectory to validate")
    ap.add_argument("--expect-family", action="append", default=[],
                    help="metric family that must appear (repeatable)")
    ap.add_argument("--allow-empty-trace", action="store_true",
                    help="do not fail on a trace with zero events")
    args = ap.parse_args()
    if not (args.trace or args.metrics or args.timeline
            or args.recovery_json or args.recovery_csv
            or args.durability_json or args.attribution_json
            or args.burn_json or args.bench_perf_json):
        ap.error("nothing to check: pass --trace, --metrics, --timeline, "
                 "--recovery-json, --recovery-csv, --durability-json, "
                 "--attribution-json, --burn-json, or --bench-perf-json")
    if args.trace:
        check_trace(args.trace, expect_events=not args.allow_empty_trace)
    if args.metrics:
        families = args.expect_family or ["mcopt_bench_sim_runs_total"]
        check_metrics(args.metrics, families)
    if args.timeline:
        check_timeline(args.timeline)
    if args.recovery_json:
        check_recovery_json(args.recovery_json)
    if args.recovery_csv:
        check_recovery_csv(args.recovery_csv)
    if args.durability_json:
        check_durability_json(args.durability_json)
    if args.attribution_json:
        check_attribution_json(args.attribution_json)
    if args.burn_json:
        check_burn_json(args.burn_json)
    if args.bench_perf_json:
        check_bench_perf_json(args.bench_perf_json)
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
