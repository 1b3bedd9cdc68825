#!/usr/bin/env python3
"""Root-causes the makespan delta between two bench run reports.

Usage:
    scripts/bench_diff.py BASELINE.json CURRENT.json

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
"""

import json
import sys


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


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[0])
        print("usage: %s BASELINE.json CURRENT.json" % argv[0])
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
