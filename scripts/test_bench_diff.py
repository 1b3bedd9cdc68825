#!/usr/bin/env python3
"""Gated test: bench_diff.attribute() must root-cause a synthetic
slowdown to the right category, and ``--leaves`` must catch every moved
non-wall leaf between two report directories.

Scenario: a run whose RPC cost was inflated — makespan grows by 500
ticks and the entire delta lands in rpc.wait. The attribution must name
rpc.wait first, with the exact delta and a 100% share, and must flag
the straggler change and the slowed span.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_diff  # noqa: E402

FIXTURE_CATEGORIES = [
    "compute",
    "rpc.serialize",
    "rpc.wait",
    "barrier.skew",
    "recovery",
    "replication.merge",
    "serving.queue",
    "stream.apply",
    "stream.retrain",
]


def make_report(makespan, categories, top_spans, node=1):
    cats = {c: 0 for c in FIXTURE_CATEGORIES}
    cats.update(categories)
    assert sum(cats.values()) == makespan, "test fixture must conserve"
    return {
        "name": "synthetic",
        "critical_path": {
            "critical_node": node,
            "critical_role": "executor",
            "makespan_ticks": makespan,
            "categories": cats,
            "top_spans": top_spans,
        },
    }


def run():
    baseline = make_report(
        1000, {"compute": 800, "rpc.wait": 200},
        [{"name": "agent.pull", "critical_node_ticks": 150},
         {"name": "agent.push", "critical_node_ticks": 50}])
    # Inflated RPC cost: +500 ticks of rpc.wait, nothing else moved,
    # and the straggler shifted to another executor.
    current = make_report(
        1500, {"compute": 800, "rpc.wait": 700},
        [{"name": "agent.pull", "critical_node_ticks": 650},
         {"name": "agent.push", "critical_node_ticks": 50}],
        node=3)

    lines = bench_diff.attribute(baseline, current)
    text = "\n".join(lines)
    print(text)

    assert "makespan_ticks 1000 -> 1500 (+500, +50.0%)" in lines[0], lines[0]
    cat_lines = [l for l in lines if l.strip().startswith(
        tuple(FIXTURE_CATEGORIES))]
    assert cat_lines, "no category attribution lines:\n" + text
    first = cat_lines[0].split()
    assert first[0] == "rpc.wait", \
        "slowdown must be attributed to rpc.wait first, got: " + cat_lines[0]
    assert "(+500, 100% of delta)" in cat_lines[0], cat_lines[0]
    assert len(cat_lines) == 1, \
        "only rpc.wait moved, but got:\n" + "\n".join(cat_lines)
    assert any("critical node moved" in l for l in lines), text
    span_lines = [l for l in lines if "span agent.pull" in l]
    assert span_lines and "(+500)" in span_lines[0], text

    # No-change diff stays quiet about categories and spans.
    lines = bench_diff.attribute(baseline, baseline)
    assert any("categories: no change" in l for l in lines), lines

    # Pre-v6 reports degrade to an explanatory note, not a crash.
    lines = bench_diff.attribute({"name": "old"}, current)
    assert len(lines) == 1 and "no critical_path" in lines[0], lines

    # Tracing-off runs (empty top_spans) say so instead of silence.
    b2 = make_report(100, {"compute": 100}, [])
    lines = bench_diff.attribute(b2, b2)
    assert any("tracing off" in l for l in lines), lines

    print("OK: bench_diff attributes the synthetic slowdown to rpc.wait")
    return run_leaves()


def write_reports(d, reports):
    for name, report in reports.items():
        with open(os.path.join(d, "BENCH_%s.json" % name), "w") as f:
            json.dump(report, f)


def leaves_main(dir_a, dir_b):
    """bench_diff.py --leaves DIR_A DIR_B: (exit status, printed text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = bench_diff.main(["bench_diff.py", "--leaves", dir_a, dir_b])
    return status, out.getvalue()


def run_leaves():
    def report(sim=1.5, wall=2.0, speedup=1.7, rows=(3, 4)):
        return {"name": "synthetic",
                "bench": {"rows": [{"sim_seconds": sim, "wall_seconds": wall,
                                    "oom": False}],
                          "speedup": [speedup, speedup],
                          "counts": list(rows)},
                "metrics": {"counters": {"ps.rows_pulled": 10}}}

    with tempfile.TemporaryDirectory() as a, \
            tempfile.TemporaryDirectory() as b:
        write_reports(a, {"x": report(), "y": report()})
        # Wall-derived leaves may differ; nothing else did.
        write_reports(b, {"x": report(wall=9.0, speedup=0.5),
                          "y": report()})
        status, text = leaves_main(a, b)
        assert status == 0, text
        assert "BENCH_x.json: 6 leaves compared, 0 differ" in text, text

        # A moved simulated leaf and a longer list both fail, by path.
        write_reports(b, {"x": report(sim=1.25), "y": report(rows=(3, 4, 5))})
        status, text = leaves_main(a, b)
        assert status == 1, text
        assert "bench.rows[0].sim_seconds: 1.5 -> 1.25" in text, text
        assert "bench.counts[2]: (absent) -> 5" in text, text

        # A report on one side only fails too.
        write_reports(b, {"y": report()})
        os.remove(os.path.join(b, "BENCH_x.json"))
        status, text = leaves_main(a, b)
        assert status == 1, text
        assert "BENCH_x.json: only in " + a in text, text

    print("OK: bench_diff --leaves flags moved and one-sided leaves only")
    return 0


if __name__ == "__main__":
    sys.exit(run())
