#!/usr/bin/env python3
"""Gates bench run reports on simulated-time regressions.

Usage:
    scripts/check_bench_regression.py [--report-dir DIR] \
        [--baseline-dir bench/baselines] [--tolerance 0.05] [--update]

A committed baseline ``BENCH_<name>.json`` is the projection of a run
report onto the leaves gated here (``project``); ``--update`` writes
the projection of every ``BENCH_*.json`` in --report-dir into
--baseline-dir. Each baseline is diffed against the fresh report of
the same name. Gated leaves, all derived from the simulated clock:

  * cluster.makespan_ticks, each node's busy_ticks, and the
    critical_path.categories makespan attribution;
  * p50/p95/p99/p999 and (exactly) count of GATED_HISTOGRAMS;
  * every bench-payload value under a key ending in ``sim_ticks``,
    ``sim_seconds`` or ``_bytes``, and (exactly) under ``oom`` or
    ``sim_ticks_identical``;
  * bench-payload kernel entries ``{"value": N, "unit": U}``: the unit
    exactly, the value exactly when U is ``bytes``.

Leaves compare within the relative --tolerance band unless marked
exact above; node ids, strings and booleans always compare exactly.
A ``sim_ticks_identical`` that is not true means a bench's simulated
ticks moved with the thread count, which breaks the determinism
contract: the gate fails on one in any report or baseline, and
--update refuses to write one.
Nothing else gates: wall clock varies by host. A failed makespan,
busy_ticks or category leaf is reported once per bench, root-caused by
bench_diff.py. Every gate run first checks that the baseline directory
holds only ``BENCH_*.json`` files, that each baseline is its own
projection, and that its categories sum to its makespan. The report
schema is checked by sim::ValidateRunReportJson when a bench writes
its report, not here.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_diff  # noqa: E402

GATED_HISTOGRAMS = [
    "agent.pull.latency_ticks",
    "agent.push.latency_ticks",
    "ps.pull.service_ticks",
    "ps.push.service_ticks",
    "serving.request.latency_ticks",
]
GATED_QUANTILES = ["p50", "p95", "p99", "p999"]
EXACT_KEYS = ("oom", "sim_ticks_identical")
TOLERANT_SUFFIXES = ("sim_ticks", "sim_seconds", "_bytes")
# Ungated fields a baseline keeps so that bench_diff.attribute can
# explain a failed makespan gate.
ATTRIBUTION_FIELDS = ("critical_node", "critical_role", "top_spans")


def fail(errors, fmt, *args):
    errors.append(fmt % args if args else fmt)


def gate_kind(key):
    """'exact', 'tolerant' or None for one bench-payload key."""
    if key in EXACT_KEYS:
        return "exact"
    if key.endswith(TOLERANT_SUFFIXES):
        return "tolerant"
    return None


def is_kernel(value):
    return isinstance(value, dict) and "unit" in value and "value" in value


def as_dict(value):
    return value if isinstance(value, dict) else {}


def bench_leaves(path, value):
    if is_kernel(value):
        yield path + ("unit",), value["unit"], True
        yield path + ("value",), value["value"], value["unit"] == "bytes"
        return
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, sub in items:
        kind = gate_kind(key) if isinstance(key, str) else None
        if kind is None or is_kernel(sub):
            yield from bench_leaves(path + (key,), sub)
        elif isinstance(sub, (int, float, list, dict)):
            # Everything under a gated key gates, leaf by leaf.
            yield path + (key,), sub, kind == "exact"


def gated_leaves(report):
    """Yields (path, value, exact) for every leaf the gate reads. A path
    is a tuple of object keys and array indices; nodes pair by index,
    which the node id leaf pins."""
    cluster = as_dict(report.get("cluster"))
    yield ("cluster", "makespan_ticks"), cluster.get("makespan_ticks"), False
    nodes = cluster.get("nodes")
    for i, node in enumerate(nodes if isinstance(nodes, list) else []):
        node = as_dict(node)
        yield ("cluster", "nodes", i, "node"), node.get("node"), True
        yield (("cluster", "nodes", i, "busy_ticks"), node.get("busy_ticks"),
               False)
    categories = as_dict(as_dict(report.get("critical_path")).get("categories"))
    for cat, ticks in categories.items():
        yield ("critical_path", "categories", cat), ticks, False
    histograms = as_dict(report.get("histograms"))
    for name in GATED_HISTOGRAMS:
        if name in histograms:
            hist = as_dict(histograms[name])
            for field in ["count"] + GATED_QUANTILES:
                yield ("histograms", name, field), hist.get(field), \
                    field == "count"
    yield from bench_leaves(("bench",), report.get("bench"))


def diverged(path, value):
    """Yields the label of every ``sim_ticks_identical`` leaf under
    `value` that is not true."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, sub in items:
        if key == "sim_ticks_identical" and sub is not True:
            yield label_of(path + (key,))
        else:
            yield from diverged(path + (key,), sub)


def fail_divergence(errors, source, doc):
    for label in diverged(("bench",), as_dict(doc).get("bench")):
        fail(errors, "%s: %s is not true: simulated ticks depend on the "
             "thread count", source, label)


def put(tree, path, value):
    """Stores `value` at `path`, creating objects and arrays on the way;
    array slots that hold no gated leaf stay null."""
    for i, key in enumerate(path):
        leaf = i == len(path) - 1
        new = value if leaf else [] if isinstance(path[i + 1], int) else {}
        if isinstance(tree, list):
            tree.extend([None] * (key + 1 - len(tree)))
            if leaf or tree[key] is None:
                tree[key] = new
        elif leaf or key not in tree:
            tree[key] = new
        tree = tree[key]


def project(report):
    """The baseline form of a run report: its gated leaves plus the
    ATTRIBUTION_FIELDS of its critical path."""
    out = {}
    for path, value, _ in gated_leaves(report):
        put(out, path, value)
    critical_path = as_dict(report.get("critical_path"))
    for field in ATTRIBUTION_FIELDS:
        put(out, ("critical_path", field), critical_path.get(field))
    return out


def label_of(path):
    return "".join("[%d]" % key if isinstance(key, int)
                   else ("." if i else "") + key
                   for i, key in enumerate(path))


def within(baseline, current, tolerance):
    if baseline == 0:
        return abs(current) <= tolerance
    return abs(current - baseline) <= tolerance * abs(baseline)


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def diff_value(label, baseline, current, tolerance, errors, exact):
    """Compares one gated leaf; a gated object or array compares member
    by member, and an array must keep its length."""
    if baseline == current:
        return
    if current is None:
        fail(errors, "%s: missing in current report (baseline %s)", label,
             baseline)
    elif isinstance(baseline, dict):
        for key, sub in sorted(baseline.items()):
            diff_value("%s.%s" % (label, key), sub, as_dict(current).get(key),
                       tolerance, errors, exact)
    elif isinstance(baseline, list):
        if not isinstance(current, list) or len(current) != len(baseline):
            fail(errors, "%s: length %d -> %s", label, len(baseline),
                 len(current) if isinstance(current, list) else current)
            return
        for i, (b_val, c_val) in enumerate(zip(baseline, current)):
            diff_value("%s[%d]" % (label, i), b_val, c_val, tolerance, errors,
                       exact)
    elif exact or not (is_number(baseline) and is_number(current)):
        fail(errors, "%s: %s -> %s (exact-match field)", label, baseline,
             current)
    elif not within(baseline, current, tolerance):
        drift = ((current - baseline) / baseline * 100.0
                 if baseline else float("inf"))
        fail(errors, "%s: %s -> %s (%+.1f%%, tolerance %.0f%%)", label,
             baseline, current, drift, tolerance * 100)


def diff_reports(name, baseline, current, tolerance, errors):
    fresh = {path: value for path, value, _ in gated_leaves(current)}
    # A raw "makespan moved" line cannot be acted on, so the cluster and
    # critical-path failures become one failure root-caused by
    # bench_diff's category attribution.
    makespan_errors = []
    for path, value, exact in gated_leaves(baseline):
        sink = (makespan_errors if path[0] in ("cluster", "critical_path")
                else errors)
        diff_value("%s: %s" % (name, label_of(path)), value, fresh.get(path),
                   tolerance, sink, exact)
    if makespan_errors:
        lines = makespan_errors + ["root cause (scripts/bench_diff.py):"]
        lines += ["  " + l for l in bench_diff.attribute(baseline, current)]
        fail(errors, "%s", "\n       ".join(lines))


def is_report_name(fname):
    return fname.startswith("BENCH_") and fname.endswith(".json")


def load_baselines(baseline_dir, errors):
    """Returns {file name: baseline}, failing every file that breaks the
    baseline hygiene rules."""
    baselines = {}
    for fname in sorted(os.listdir(baseline_dir)):
        path = os.path.join(baseline_dir, fname)
        if not is_report_name(fname):
            fail(errors, "%s: stray file in baseline dir (only BENCH_*.json "
                 "belongs there)", path)
            continue
        try:
            with open(path) as f:
                baseline = json.load(f)
        except ValueError as exc:
            fail(errors, "%s: not valid JSON (%s)", path, exc)
            continue
        if not isinstance(baseline, dict):
            fail(errors, "%s: not a JSON object", path)
            continue
        if project(baseline) != baseline:
            fail(errors, "%s: not the projection of a run report (it holds "
                 "leaves the gate does not read, or lacks some); rewrite it "
                 "with --update", path)
        categories = as_dict(as_dict(baseline.get("critical_path"))
                             .get("categories")).values()
        total = sum(v for v in categories if is_number(v))
        makespan = as_dict(baseline.get("cluster")).get("makespan_ticks")
        if total != makespan:
            fail(errors, "%s: critical_path.categories sum to %d but "
                 "cluster.makespan_ticks is %s", path, total, makespan)
        fail_divergence(errors, path, baseline)
        baselines[fname] = baseline
    return baselines


def update(report_dir, baseline_dir):
    reports = sorted(f for f in os.listdir(report_dir) if is_report_name(f))
    if not reports:
        print("error: no BENCH_*.json reports in %s" % report_dir)
        return 1
    projections = {}
    errors = []
    for fname in reports:
        with open(os.path.join(report_dir, fname)) as f:
            projections[fname] = project(json.load(f))
        fail_divergence(errors, fname, projections[fname])
    if errors:
        for e in errors:
            print("error: %s" % e)
        print("error: refusing to write baselines that pin a divergence")
        return 1
    os.makedirs(baseline_dir, exist_ok=True)
    for fname, baseline in projections.items():
        path = os.path.join(baseline_dir, fname)
        with open(path, "w") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")
        print("wrote %s" % path)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report-dir", default=".",
                        help="directory holding fresh BENCH_*.json")
    parser.add_argument("--baseline-dir", default="bench/baselines",
                        help="directory holding committed baselines")
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="relative tolerance band (default 0.05)")
    parser.add_argument("--update", action="store_true",
                        help="write the projection of every report in "
                             "--report-dir into --baseline-dir, then exit")
    args = parser.parse_args()
    if args.update:
        return update(args.report_dir, args.baseline_dir)

    errors = []
    baselines = load_baselines(args.baseline_dir, errors)
    if not baselines and not errors:
        print("error: no baselines in %s" % args.baseline_dir)
        return 1
    checked = 0
    for fname, baseline in sorted(baselines.items()):
        current_path = os.path.join(args.report_dir, fname)
        if not os.path.exists(current_path):
            fail(errors, "%s: report not produced (expected at %s)", fname,
                 current_path)
            continue
        with open(current_path) as f:
            current = json.load(f)
        fail_divergence(errors, current_path, current)
        diff_reports(fname, baseline, current, args.tolerance, errors)
        checked += 1
        print("checked %s against %s" %
              (current_path, os.path.join(args.baseline_dir, fname)))

    if errors:
        print("\n%d regression check failure(s):" % len(errors))
        for e in errors:
            print("  FAIL %s" % e)
        return 1
    print("OK: %d report(s) within %.0f%% of baseline" %
          (checked, args.tolerance * 100))
    return 0


if __name__ == "__main__":
    sys.exit(main())
