#!/usr/bin/env python3
"""Gated test: check_bench_regression.py gates exactly the leaves it
names, and its baseline hygiene rejects what it must.

Every case runs the checker's real command line on a small synthetic
run report: --update writes the baseline, a gate run diffs a perturbed
copy of the report against it.
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile

SCRIPTS = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, SCRIPTS)
import check_bench_regression as checker  # noqa: E402

NAME = "BENCH_synthetic.json"


def full_report():
    categories = {"compute": 800, "rpc.serialize": 0, "rpc.wait": 200,
                  "barrier.skew": 0, "recovery": 0, "replication.merge": 0,
                  "serving.queue": 0, "stream.apply": 0,
                  "stream.retrain": 0}
    hist = {"count": 1000, "sum": 175000, "min": 100, "max": 300,
            "mean": 175.0, "p50": 100, "p95": 300, "p99": 300, "p999": 300,
            "buckets": [[3, 500], [5, 500]]}
    node = {"role": "executor", "busy_seconds": 1e-9, "mem_usage_bytes": 0,
            "mem_peak_bytes": 64, "mem_budget_bytes": 1024}
    return {
        "schema": "psgraph.run_report",
        "schema_version": 8,
        "name": "synthetic",
        "counters": {"ps.rows_pulled": 12},
        "gauges": {"parallelism": 1.0},
        "histograms": {"agent.pull.latency_ticks": hist,
                       "ps.func.service_ticks": dict(hist)},
        "spans": {"agent.pull": {"count": 4, "total_ticks": 150,
                                 "max_ticks": 50}},
        "spans_dropped": 0,
        "cluster": {"num_executors": 1, "num_servers": 1,
                    "makespan_ticks": 1000, "makespan_seconds": 1e-9,
                    "nodes": [dict(node, node=0, busy_ticks=1000),
                              dict(node, node=1, role="server",
                                   busy_ticks=400)]},
        "critical_path": {
            "critical_node": 0, "critical_role": "executor",
            "makespan_ticks": 1000, "categories": categories,
            "path": [{"node": 0, "role": "executor", "begin_ticks": 0,
                      "end_ticks": 1000, "ticks": 1000, "gate": "end"}],
            "top_spans": [{"name": "agent.pull", "critical_node_ticks": 150,
                           "total_ticks": 150, "count": 4}],
            "what_if": []},
        "timeseries": {"base_interval_ticks": 500, "interval_ticks": 500,
                       "compactions": 0, "points": 2,
                       "series": {"rpc.total.calls": [5, 12]}},
        "bench": {
            "rows": [{"system": "psgraph", "oom": False,
                      "sim_seconds": 0.5, "wall_seconds": 1.25}],
            "sweep": [{"parallelism": 1, "sim_ticks": 1000,
                       "sim_ticks_identical": True}],
            "kernels": {
                "pull_request_bytes": {"value": 4096, "unit": "bytes"},
                "pull_roundtrip_ticks": {"value": 5000, "unit": "ticks"}},
        },
    }


def run_checker(*argv):
    out = io.StringIO()
    old_argv = sys.argv
    sys.argv = ["check_bench_regression.py"] + list(argv)
    try:
        with contextlib.redirect_stdout(out):
            code = checker.main()
    finally:
        sys.argv = old_argv
    return code, out.getvalue()


def write(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f)


class Dirs:
    """A report dir holding one report and a baseline dir holding its
    --update projection."""

    def __init__(self, root):
        self.reports = os.path.join(root, "reports")
        self.baselines = os.path.join(root, "baselines")
        os.makedirs(self.reports)
        write(os.path.join(self.reports, NAME), full_report())
        code, out = run_checker("--update", "--report-dir", self.reports,
                                "--baseline-dir", self.baselines)
        assert code == 0, out

    def gate(self, report):
        write(os.path.join(self.reports, NAME), report)
        return run_checker("--report-dir", self.reports, "--baseline-dir",
                           self.baselines)

    def baseline(self):
        with open(os.path.join(self.baselines, NAME)) as f:
            return json.load(f)


def perturbed(edit):
    report = full_report()
    edit(report)
    return report


def expect(dirs, edit, passes, leaf=None):
    code, out = dirs.gate(perturbed(edit))
    assert (code == 0) == passes, out
    if leaf is not None:
        assert leaf in out, "expected a failure naming %r:\n%s" % (leaf, out)
    return out


def scale(node, key, factor):
    node[key] = node[key] * factor


def test_projection(dirs):
    baseline = dirs.baseline()
    assert checker.project(baseline) == baseline
    assert checker.project(full_report()) == baseline
    for section in ("timeseries", "counters", "gauges", "spans", "schema",
                    "schema_version", "name"):
        assert section not in baseline, section
    assert list(baseline["histograms"]) == ["agent.pull.latency_ticks"]
    assert baseline["bench"]["rows"] == [{"oom": False, "sim_seconds": 0.5}]


def test_gate(dirs):
    expect(dirs, lambda r: None, passes=True)
    bench = "bench.rows[0].sim_seconds"
    expect(dirs, lambda r: scale(r["bench"]["rows"][0], "sim_seconds", 1.04),
           passes=True)
    expect(dirs, lambda r: scale(r["bench"]["rows"][0], "sim_seconds", 1.06),
           passes=False, leaf=bench)
    hist = "histograms.agent.pull.latency_ticks.p99"
    expect(dirs, lambda r: scale(
        r["histograms"]["agent.pull.latency_ticks"], "p99", 1.06),
        passes=False, leaf=hist)
    # Exact leaves fail off by one, whatever the tolerance.
    exact = [
        (lambda r: r["histograms"]["agent.pull.latency_ticks"].update(
            count=1001), "histograms.agent.pull.latency_ticks.count"),
        (lambda r: r["bench"]["rows"][0].update(oom=True),
         "bench.rows[0].oom"),
        (lambda r: r["bench"]["sweep"][0].update(sim_ticks_identical=False),
         "bench.sweep[0].sim_ticks_identical"),
        (lambda r: r["bench"]["kernels"]["pull_request_bytes"].update(
            value=4097), "bench.kernels.pull_request_bytes.value"),
    ]
    for edit, leaf in exact:
        expect(dirs, edit, passes=False, leaf=leaf)
    # Wall clock and ungated sections never gate.
    expect(dirs, lambda r: r["bench"]["rows"][0].update(wall_seconds=9.0),
           passes=True)
    expect(dirs, lambda r: r["counters"].update({"ps.rows_pulled": 99}),
           passes=True)
    expect(dirs, lambda r: scale(r["histograms"]["ps.func.service_ticks"],
                                 "p99", 10), passes=True)


def test_divergence(dirs):
    # A report whose ticks moved with the thread count fails even when
    # its baseline pins the same divergence...
    def diverge(report):
        report["bench"]["sweep"].append({"parallelism": 8, "sim_ticks": 1000,
                                         "sim_ticks_identical": False})

    leaf = "bench.sweep[1].sim_ticks_identical is not true"
    out = expect(dirs, diverge, passes=False, leaf=leaf)
    assert "%s: %s" % (os.path.join(dirs.reports, NAME), leaf) in out, out
    # ... --update refuses to write such a baseline ...
    write(os.path.join(dirs.reports, NAME), perturbed(diverge))
    code, out = run_checker("--update", "--report-dir", dirs.reports,
                            "--baseline-dir", dirs.baselines)
    assert code != 0 and "refusing" in out, out
    assert dirs.baseline() == checker.project(full_report())
    # ... and a baseline that pins one fails the gate by itself.
    baseline = checker.project(perturbed(diverge))
    write(os.path.join(dirs.baselines, NAME), baseline)
    code, out = dirs.gate(full_report())
    assert code != 0, out
    assert "%s: %s" % (os.path.join(dirs.baselines, NAME), leaf) in out, out


def test_makespan_root_cause(dirs):
    def slower(report):
        report["cluster"]["makespan_ticks"] = 1100
        report["cluster"]["nodes"][0]["busy_ticks"] = 1100
        report["critical_path"]["makespan_ticks"] = 1100
        report["critical_path"]["categories"]["rpc.wait"] = 300

    out = expect(dirs, slower, passes=False, leaf="cluster.makespan_ticks")
    assert "1 regression check failure(s)" in out, out
    assert "root cause (scripts/bench_diff.py)" in out, out
    assert re.search(r"rpc\.wait +200 -> 300 \(\+100, 100% of delta\)",
                     out), out


def test_missing_report(dirs):
    os.remove(os.path.join(dirs.reports, NAME))
    code, out = run_checker("--report-dir", dirs.reports, "--baseline-dir",
                            dirs.baselines)
    assert code != 0 and "report not produced" in out, out


def test_hygiene(dirs):
    def broken(edit, needle):
        baseline = dirs.baseline()
        edit(baseline)
        with tempfile.TemporaryDirectory() as bad_dir:
            write(os.path.join(bad_dir, NAME), baseline)
            errors = []
            checker.load_baselines(bad_dir, errors)
            assert any(needle in e for e in errors), errors

    broken(lambda b: b["bench"]["rows"][0].update(wall_seconds=1.25),
           "not the projection")
    broken(lambda b: b["critical_path"]["categories"].update(compute=801),
           "sum to 1001")
    with open(os.path.join(dirs.baselines, "notes.txt"), "w") as f:
        f.write("stray\n")
    code, out = dirs.gate(full_report())
    assert code != 0 and "stray file" in out, out


def test_committed_baselines():
    errors = []
    baselines = checker.load_baselines(
        os.path.join(SCRIPTS, "..", "bench", "baselines"), errors)
    assert baselines and errors == [], errors


def run():
    for test in (test_projection, test_gate, test_divergence,
                 test_makespan_root_cause, test_missing_report, test_hygiene):
        with tempfile.TemporaryDirectory() as root:
            test(Dirs(root))
        print("ok %s" % test.__name__)
    test_committed_baselines()
    print("ok test_committed_baselines")
    print("OK: check_bench_regression gates the leaves it names")
    return 0


if __name__ == "__main__":
    sys.exit(run())
