#!/usr/bin/env python3
"""Root-causes the makespan delta between two bench run reports, or
checks that two sets of reports agree leaf for leaf.

Usage:
    scripts/bench_diff.py BASELINE.json CURRENT.json
    scripts/bench_diff.py --leaves DIR_A DIR_B

Each file is a ``BENCH_<name>.json`` run report (schema v6+) or its
committed baseline (check_bench_regression.py's projection of one). The
tool reads each file's ``critical_path`` section — the deterministic
makespan attribution whose categories sum exactly to the simulated
makespan — and prints *where* the delta went:

  * headline: makespan baseline -> current (delta, percent),
  * per-category deltas (compute, rpc.wait, barrier.skew, ...) sorted
    by magnitude, each with its share of the total makespan delta,
  * a note when the critical node moved (the straggler changed),
  * per-span-name deltas of critical-node ticks from ``top_spans``
    (only present when the run traced; a note is printed otherwise).

Because the categories conserve exactly on both sides, the category
deltas also sum exactly to the makespan delta — attribution here is
arithmetic, not heuristics. ``check_bench_regression.py`` imports
``attribute()`` to append these lines to makespan-gate failures, and CI
uploads the full output as an artifact when the bench gate trips.

Exit status is always 0: this is a diagnostic lens, not a gate.

``--leaves`` pairs up the ``BENCH_*.json`` reports of two directories
(say, every bench run at ``PSGRAPH_THREADS=1`` on two commits) and
compares every leaf of each pair except the wall-clock ones, named in
``WALL_LEAVES``. Per report it prints how many leaves it compared and
the first differences. It exits 1 when a leaf differs or a report
exists on one side only: "no simulated number moved" as a check.
"""

import json
import os
import sys

# Leaves derived from real time, which differ between any two runs.
WALL_LEAVES = ("wall_seconds", "speedup")
# Differences printed per report.
MAX_SHOWN = 10


def _pct(part, whole):
    if whole == 0:
        return "n/a"
    return "%+.1f%%" % (100.0 * part / whole)


def attribute(baseline, current):
    """Returns human-readable attribution lines for the makespan delta
    between two parsed run reports or baselines. A single note when
    either lacks a critical_path section (a pre-v6 report)."""
    b_cp = baseline.get("critical_path")
    c_cp = current.get("critical_path")
    if not isinstance(b_cp, dict) or not isinstance(c_cp, dict):
        return ["no critical_path section on one side "
                "(pre-v6 report) — no attribution possible"]

    lines = []
    b_cats = b_cp.get("categories", {})
    c_cats = c_cp.get("categories", {})
    # The categories conserve, so their sum is the makespan (a committed
    # baseline keeps the categories but not critical_path.makespan_ticks).
    b_make = sum(b_cats.values())
    c_make = sum(c_cats.values())
    delta = c_make - b_make
    lines.append("makespan_ticks %d -> %d (%+d, %s)" %
                 (b_make, c_make, delta, _pct(delta, b_make)))

    # Category attribution. Conservation on both sides means these
    # deltas sum exactly to the makespan delta.
    cat_deltas = []
    for cat in set(b_cats) | set(c_cats):
        b = b_cats.get(cat, 0)
        c = c_cats.get(cat, 0)
        if b != c:
            cat_deltas.append((cat, c - b, b, c))
    cat_deltas.sort(key=lambda e: (-abs(e[1]), e[0]))
    if not cat_deltas:
        lines.append("categories: no change")
    for cat, d, b, c in cat_deltas:
        share = ("%.0f%% of delta" % (100.0 * d / delta)
                 if delta else "makespan unchanged")
        lines.append("  %-17s %d -> %d (%+d, %s)" % (cat, b, c, d, share))

    b_node = (b_cp.get("critical_node"), b_cp.get("critical_role"))
    c_node = (c_cp.get("critical_node"), c_cp.get("critical_role"))
    if b_node != c_node:
        lines.append("critical node moved: %s %s -> %s %s "
                     "(the straggler changed)" %
                     (b_node[1], b_node[0], c_node[1], c_node[0]))

    # Span-level drill-down, where tracing was on for both runs.
    b_spans = {s.get("name"): s for s in b_cp.get("top_spans", [])}
    c_spans = {s.get("name"): s for s in c_cp.get("top_spans", [])}
    if not b_spans and not c_spans:
        lines.append("top_spans empty on both sides (tracing off) — "
                     "no span-level drill-down")
        return lines
    span_deltas = []
    for name in sorted(set(b_spans) | set(c_spans)):
        b = b_spans.get(name, {}).get("critical_node_ticks", 0)
        c = c_spans.get(name, {}).get("critical_node_ticks", 0)
        if b != c:
            span_deltas.append((name, c - b, b, c))
    span_deltas.sort(key=lambda e: (-abs(e[1]), e[0]))
    for name, d, b, c in span_deltas:
        lines.append("  span %-22s critical-node ticks %d -> %d (%+d)" %
                     (name, b, c, d))
    return lines


def flatten(node, path="", name=""):
    """Yields (path, name, value) for every leaf of a parsed report;
    `name` is the last object key on the path."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from flatten(value, path + "." + key if path else key, key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from flatten(value, "%s[%d]" % (path, i), name)
    else:
        yield path, name, node


def _same(x, y):
    # NaN equals NaN here: a leaf that reads NaN on both sides has not moved.
    return x == y or (x != x and y != y)


def diff_leaves(dir_a, dir_b):
    """Compares the non-wall leaves of the reports in two directories.
    Returns (lines, ok)."""
    def reports(d):
        return {f for f in os.listdir(d)
                if f.startswith("BENCH_") and f.endswith(".json")}

    a_files, b_files = reports(dir_a), reports(dir_b)
    lines = []
    ok = True
    for f in sorted(a_files ^ b_files):
        lines.append("%s: only in %s" % (f, dir_a if f in a_files else dir_b))
        ok = False
    for f in sorted(a_files & b_files):
        with open(os.path.join(dir_a, f)) as fa:
            a = {p: v for p, n, v in flatten(json.load(fa))
                 if n not in WALL_LEAVES}
        with open(os.path.join(dir_b, f)) as fb:
            b = {p: v for p, n, v in flatten(json.load(fb))
                 if n not in WALL_LEAVES}
        differ = [p for p in sorted(set(a) | set(b))
                  if p not in a or p not in b or not _same(a[p], b[p])]
        lines.append("%s: %d leaves compared, %d differ" %
                     (f, len(set(a) | set(b)), len(differ)))
        for p in differ[:MAX_SHOWN]:
            lines.append("  %s: %s -> %s" % (p, a.get(p, "(absent)"),
                                             b.get(p, "(absent)")))
        ok = ok and not differ
    return lines, ok


def main(argv):
    if len(argv) == 4 and argv[1] == "--leaves":
        lines, ok = diff_leaves(argv[2], argv[3])
        for line in lines:
            print(line)
        return 0 if ok else 1
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[0])
        print("usage: %s BASELINE.json CURRENT.json" % argv[0])
        print("       %s --leaves DIR_A DIR_B" % argv[0])
        return 2
    with open(argv[1]) as f:
        baseline = json.load(f)
    with open(argv[2]) as f:
        current = json.load(f)
    name = current.get("name", argv[2])
    print("bench_diff: %s (%s -> %s)" % (name, argv[1], argv[2]))
    for line in attribute(baseline, current):
        print("  " + line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
