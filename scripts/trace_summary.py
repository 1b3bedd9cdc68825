#!/usr/bin/env python3
"""Summarize / validate a PSGraph Chrome-trace export.

The flight recorder (PSGRAPH_TRACE=1 PSGRAPH_TRACE_OUT=trace.json) emits
a Chrome Trace Event Format document whose timestamps are simulated
clock ticks (1 tick = 1 ps). This tool

  * validates the schema (--validate; exits non-zero on violations) —
    including every "s"/"f" flow pair (each must connect an existing
    client-side span to an existing server-side span on a different
    process) and every "i" instant marker,
  * prints the top spans by total and by self sim-ticks per node,
  * prints the control-plane event timeline (--events): the journal's
    instant markers (node kills/restarts, checkpoint saves/restores,
    recovery windows) in tick order, and
  * prints the SLO alert timeline (--alerts): every
    "alert_fire:<rule>" / "alert_clear:<rule>" marker in tick order,
    checking that each references a rule declared in
    otherData.alert_rules (exits non-zero on an undeclared rule).

  * cross-validates a run report's exported critical path against the
    trace (--critical-path BENCH_x.json): the path must tile
    [0, makespan] in time order, and every segment attributed to a node
    that traced at all must overlap at least one real span on that node
    — then prints the top-10 segments and the category table.

Usage:
  python3 scripts/trace_summary.py trace.json
  python3 scripts/trace_summary.py --validate trace.json
  python3 scripts/trace_summary.py --events trace.json
  python3 scripts/trace_summary.py --alerts trace.json
  python3 scripts/trace_summary.py --critical-path BENCH_micro.json trace.json
  python3 scripts/trace_summary.py --top 20 trace.json
"""

import argparse
import collections
import json
import sys


def fail(msg):
    print(f"trace_summary: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def validate(doc):
    """Checks the Chrome-trace schema the exporter promises. Returns
    (X events, instant events, flow pair count)."""
    errors = []

    def err(msg):
        errors.append(msg)

    if not isinstance(doc, dict):
        fail("top level must be a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail("'traceEvents' must be an array")
    other = doc.get("otherData")
    if not isinstance(other, dict):
        err("'otherData' missing")
    else:
        if other.get("schema") != "psgraph.trace":
            err("otherData.schema != 'psgraph.trace'")
        if other.get("tick_unit") != "ps":
            err("otherData.tick_unit != 'ps'")
        dropped = other.get("spans_dropped")
        if not isinstance(dropped, int) or dropped < 0:
            err("otherData.spans_dropped must be a non-negative integer")
        elif dropped > 0:
            print(
                f"trace_summary: warning: {dropped} spans were dropped at "
                "the tracer cap (set PSGRAPH_TRACE_MAX_SPANS higher for a "
                "complete timeline)",
                file=sys.stderr,
            )

    xs = []
    instants = []
    flow_starts = {}
    flow_finishes = {}
    named_pids = set()
    span_ids = set()
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            err(f"{where} is not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "M", "s", "f", "i"):
            err(f"{where}: unexpected ph {ph!r}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                err(f"{where}: {key} must be an integer")
        if not isinstance(ev.get("name"), str) or not ev.get("name"):
            err(f"{where}: name must be a non-empty string")
        if ph == "M":
            if ev.get("name") != "process_name":
                err(f"{where}: metadata event must be process_name")
            args = ev.get("args")
            if not isinstance(args, dict) or not isinstance(
                args.get("name"), str
            ):
                err(f"{where}: process_name args.name missing")
            named_pids.add(ev.get("pid"))
            continue
        if ph == "i":
            # An instant marker (control-plane journal entry).
            if not isinstance(ev.get("ts"), int):
                err(f"{where}: ts must be an integer tick count")
            if ev.get("s") != "p":
                err(f"{where}: instant must be process-scoped (s == 'p')")
            instants.append(ev)
            continue
        if ph in ("s", "f"):
            # One side of a cross-node flow arrow.
            if not isinstance(ev.get("ts"), int):
                err(f"{where}: ts must be an integer tick count")
            if not isinstance(ev.get("id"), int):
                err(f"{where}: flow event needs an integer id")
                continue
            if ph == "f" and ev.get("bp") != "e":
                err(f"{where}: flow finish must carry bp == 'e'")
            args = ev.get("args")
            if not isinstance(args, dict) or not isinstance(
                args.get("span_id"), int
            ) or not isinstance(args.get("parent"), int):
                err(f"{where}: flow args need span_id and parent")
                continue
            side = flow_starts if ph == "s" else flow_finishes
            if ev["id"] in side:
                err(f"{where}: duplicate flow {ph!r} id {ev['id']}")
                continue
            side[ev["id"]] = ev
            continue
        # ph == "X": a complete event stamped in integer ticks.
        for key in ("ts", "dur"):
            v = ev.get(key)
            if not isinstance(v, int):
                err(f"{where}: {key} must be an integer tick count")
            elif key == "dur" and v < 0:
                err(f"{where}: negative dur")
        args = ev.get("args")
        if not isinstance(args, dict):
            err(f"{where}: args missing")
        else:
            sid = args.get("span_id")
            if not isinstance(sid, int) or sid <= 0:
                err(f"{where}: args.span_id must be a positive integer")
            elif sid in span_ids:
                err(f"{where}: duplicate span_id {sid}")
            else:
                span_ids.add(sid)
            if not isinstance(args.get("parent"), int):
                err(f"{where}: args.parent must be an integer")
            if not isinstance(args.get("node"), int):
                err(f"{where}: args.node must be an integer")
        xs.append(ev)

    for ev in xs:
        if ev.get("pid") not in named_pids:
            err(f"X event pid {ev.get('pid')} has no process_name metadata")
            break
    for ev in instants:
        if ev.get("pid") not in named_pids:
            err(
                f"instant pid {ev.get('pid')} has no process_name metadata"
            )
            break

    # Every flow must be a complete s/f pair connecting two existing X
    # spans (the client-side parent and the server-side child) that live
    # on different processes.
    by_span = {
        ev["args"]["span_id"]: ev
        for ev in xs
        if isinstance(ev.get("args"), dict)
        and isinstance(ev["args"].get("span_id"), int)
    }
    for fid in sorted(set(flow_starts) | set(flow_finishes)):
        start = flow_starts.get(fid)
        finish = flow_finishes.get(fid)
        if start is None or finish is None:
            err(f"flow id {fid}: missing {'start' if start is None else 'finish'} half")
            continue
        child = by_span.get(start["args"]["span_id"])
        parent = by_span.get(start["args"]["parent"])
        if start["args"] != finish["args"]:
            err(f"flow id {fid}: start/finish args disagree")
            continue
        if child is None or parent is None:
            err(f"flow id {fid}: references a span missing from the trace")
            continue
        if start["pid"] != parent["pid"] or finish["pid"] != child["pid"]:
            err(f"flow id {fid}: pid does not match the linked span's pid")
        if parent["pid"] == child["pid"]:
            err(f"flow id {fid}: connects spans on the same process")
        if finish["ts"] != child["ts"]:
            err(f"flow id {fid}: finish ts must equal the child span's ts")
        if not (parent["ts"] <= start["ts"]
                <= parent["ts"] + parent["dur"]):
            err(f"flow id {fid}: start ts outside the parent span")

    if errors:
        for e in errors[:20]:
            print(f"trace_summary: FAIL: {e}", file=sys.stderr)
        if len(errors) > 20:
            print(
                f"trace_summary: ... and {len(errors) - 20} more",
                file=sys.stderr,
            )
        sys.exit(1)
    return xs, instants, len(flow_starts)


def summarize(doc, xs, top):
    # Process (node) display names from the metadata events.
    pname = {}
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") == "M" and ev.get("name") == "process_name":
            pname[ev["pid"]] = ev.get("args", {}).get("name", "?")

    # Self ticks = own duration minus time covered by direct children
    # (same pid/tid, parent == span_id).
    by_id = {ev["args"]["span_id"]: ev for ev in xs}
    child_ticks = collections.Counter()
    for ev in xs:
        parent = by_id.get(ev["args"]["parent"])
        if parent is not None:
            child_ticks[parent["args"]["span_id"]] += ev["dur"]

    per_node = collections.defaultdict(
        lambda: collections.defaultdict(lambda: [0, 0, 0])
    )  # node -> name -> [count, total, self]
    for ev in xs:
        row = per_node[ev["pid"]][ev["name"]]
        row[0] += 1
        row[1] += ev["dur"]
        row[2] += max(0, ev["dur"] - child_ticks[ev["args"]["span_id"]])

    total_events = len(xs)
    print(f"{total_events} spans across {len(per_node)} processes")
    for pid in sorted(per_node):
        rows = per_node[pid]
        print(f"\n== {pname.get(pid, f'pid {pid}')} (pid {pid}) ==")
        print(f"{'span':<40} {'count':>7} {'total ticks':>16} {'self ticks':>16}")
        ranked = sorted(rows.items(), key=lambda kv: (-kv[1][1], kv[0]))
        for name, (count, tot, self_t) in ranked[:top]:
            print(f"{name:<40} {count:>7} {tot:>16} {self_t:>16}")
        if len(ranked) > top:
            print(f"... {len(ranked) - top} more span names")


def print_events(doc, instants):
    """Renders the control-plane journal timeline: every instant marker
    in tick order, prefixed with the process it fired on."""
    pname = {}
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") == "M" and ev.get("name") == "process_name":
            pname[ev["pid"]] = ev.get("args", {}).get("name", "?")
    if not instants:
        print("no control-plane events in this trace")
        return
    print(f"{len(instants)} control-plane event(s):")
    print(f"{'ticks':>16}  {'process':<14} event")
    for ev in sorted(
        instants, key=lambda e: (e["ts"], e["pid"], e["name"])
    ):
        where = pname.get(ev["pid"], f"pid {ev['pid']}")
        print(f"{ev['ts']:>16}  {where:<14} {ev['name']}")

    # Freshness-pipeline epoch markers: each epoch journals one
    # epoch_ingest when the mutation batch lands and one epoch_publish
    # when the snapshot swap commits, in that order. An unpaired or
    # out-of-order marker means the pipeline lost an epoch mid-flight.
    ingests = [e["ts"] for e in instants if e["name"] == "epoch_ingest"]
    publishes = [e["ts"] for e in instants if e["name"] == "epoch_publish"]
    if ingests or publishes:
        if len(ingests) != len(publishes):
            fail(
                f"unpaired epoch markers: {len(ingests)} epoch_ingest vs "
                f"{len(publishes)} epoch_publish"
            )
        for i, (a, p) in enumerate(zip(sorted(ingests), sorted(publishes))):
            if p < a:
                fail(
                    f"epoch {i + 1} published at tick {p} before its "
                    f"ingest at tick {a}"
                )
        print(
            f"freshness pipeline: {len(ingests)} epoch(s) ingested and "
            f"published in order"
        )


def print_alerts(doc, instants):
    """Renders the SLO watchdog timeline: every alert_fire/alert_clear
    instant in tick order, validated against the declared rule list in
    otherData.alert_rules."""
    declared = doc.get("otherData", {}).get("alert_rules", [])
    if not isinstance(declared, list) or not all(
        isinstance(r, str) for r in declared
    ):
        fail("otherData.alert_rules must be an array of rule names")
    markers = []
    for ev in instants:
        name = ev.get("name", "")
        for prefix in ("alert_fire:", "alert_clear:"):
            if name.startswith(prefix):
                markers.append((ev, prefix[:-1], name[len(prefix):]))
                break
    for ev, _, rule in markers:
        if rule not in declared:
            fail(
                f"alert marker at tick {ev['ts']} references rule "
                f"{rule!r}, which is not declared in "
                f"otherData.alert_rules {declared!r}"
            )
    print(f"{len(declared)} rule(s) declared: {', '.join(declared) or '-'}")
    if not markers:
        print("no alert transitions in this trace")
        return
    open_since = {}
    print(f"{len(markers)} alert transition(s):")
    print(f"{'ticks':>16}  {'transition':<12} rule")
    for ev, kind, rule in sorted(
        markers, key=lambda m: (m[0]["ts"], m[1], m[2])
    ):
        extra = ""
        if kind == "alert_fire":
            open_since[rule] = ev["ts"]
        elif rule in open_since:
            extra = f"  (active {ev['ts'] - open_since.pop(rule)} ticks)"
        print(f"{ev['ts']:>16}  {kind:<12} {rule}{extra}")
    for rule, since in sorted(open_since.items()):
        print(f"still active at end of trace: {rule} (since {since})")


def check_critical_path(doc, xs, report_path):
    """Cross-validates BENCH_<name>.json's critical_path section against
    the trace: the analyzer derives the path from deterministic clock
    aggregates, the trace holds the raw spans — a path segment that no
    span can account for means the two observability layers disagree."""
    try:
        with open(report_path) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(str(e))
    cp = report.get("critical_path")
    if not isinstance(cp, dict):
        fail(f"{report_path} has no critical_path object (pre-v6 "
             "schema) — nothing to cross-validate")
    makespan = cp.get("makespan_ticks")
    path = cp.get("path", [])
    if not isinstance(makespan, int) or not isinstance(path, list):
        fail(f"{report_path}: malformed critical_path section")

    # Edges must be time-ordered and tile [0, makespan] exactly.
    prev_end = 0
    for i, seg in enumerate(path):
        if seg.get("begin_ticks") != prev_end:
            fail(f"path[{i}] begins at {seg.get('begin_ticks')}, "
                 f"expected {prev_end} (segments must be contiguous "
                 "and time-ordered)")
        if not isinstance(seg.get("end_ticks"), int) \
                or seg["end_ticks"] <= prev_end:
            fail(f"path[{i}] does not advance in time")
        prev_end = seg["end_ticks"]
    if path and prev_end != makespan:
        fail(f"path ends at {prev_end}, expected the makespan {makespan}")

    # Every segment owned by a node that traced at all must overlap at
    # least one real span on that node. (A node with zero spans — e.g.
    # the driver with tracing narrowed, or a capped trace — cannot be
    # checked and is skipped.)
    spans_by_node = collections.defaultdict(list)
    for ev in xs:
        node = ev["args"]["node"]
        spans_by_node[node].append((ev["ts"], ev["ts"] + ev["dur"]))
    unverifiable = 0
    for i, seg in enumerate(path):
        node = seg.get("node")
        spans = spans_by_node.get(node)
        if node is None or node < 0 or not spans:
            unverifiable += 1
            continue
        if not any(b < seg["end_ticks"] and e > seg["begin_ticks"]
                   for b, e in spans):
            fail(f"path[{i}] [{seg['begin_ticks']}, {seg['end_ticks']}) "
                 f"is attributed to node {node}, but no span on that "
                 "node overlaps it — report and trace disagree")

    print(f"critical path cross-check PASS: {len(path)} segment(s) "
          f"against {len(xs)} spans"
          + (f" ({unverifiable} on span-less nodes, skipped)"
             if unverifiable else ""))

    ranked = sorted(
        path, key=lambda s: (-(s["end_ticks"] - s["begin_ticks"]),
                             s["begin_ticks"]))
    print(f"\ntop {min(10, len(ranked))} segment(s) by ticks:")
    print(f"{'begin':>16} {'end':>16} {'ticks':>16}  {'role':<10} node")
    for seg in ranked[:10]:
        print(f"{seg['begin_ticks']:>16} {seg['end_ticks']:>16} "
              f"{seg['end_ticks'] - seg['begin_ticks']:>16}  "
              f"{seg.get('role', '?'):<10} {seg['node']}")

    cats = cp.get("categories", {})
    print(f"\nmakespan attribution ({makespan} ticks, "
          f"critical {cp.get('critical_role')} {cp.get('critical_node')}):")
    for cat, ticks in sorted(cats.items(), key=lambda kv: -kv[1]):
        if ticks == 0:
            continue
        print(f"  {cat:<18} {ticks:>16} "
              f"({100.0 * ticks / makespan:5.1f}%)" if makespan
              else f"  {cat:<18} {ticks:>16}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", help="exported trace JSON path")
    ap.add_argument(
        "--validate",
        action="store_true",
        help="only validate the schema; print PASS/FAIL",
    )
    ap.add_argument(
        "--events",
        action="store_true",
        help="print the control-plane event timeline",
    )
    ap.add_argument(
        "--alerts",
        action="store_true",
        help="print the SLO alert timeline (validates every marker "
        "against otherData.alert_rules)",
    )
    ap.add_argument(
        "--critical-path",
        metavar="REPORT",
        help="cross-validate REPORT's (BENCH_<name>.json) critical_path "
        "section against this trace and print its top segments",
    )
    ap.add_argument(
        "--top", type=int, default=10, help="span names per node to print"
    )
    args = ap.parse_args()

    try:
        with open(args.trace) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(str(e))

    xs, instants, flows = validate(doc)
    if args.validate:
        print(
            f"trace_summary: PASS ({len(xs)} spans, {flows} flows, "
            f"{len(instants)} instants)"
        )
        return
    if args.events:
        print_events(doc, instants)
        return
    if args.alerts:
        print_alerts(doc, instants)
        return
    if args.critical_path:
        check_critical_path(doc, xs, args.critical_path)
        return
    summarize(doc, xs, args.top)


if __name__ == "__main__":
    main()
