#!/usr/bin/env python3
"""Renders the BENCH_*.json run reports into a static HTML dashboard.

Reads every run report (schema v6 or later) in --report-dir and writes
a single self-contained HTML file (--out): one card per bench with the
critical-path makespan attribution (a horizontal stacked bar over the
fixed cost-category taxonomy, plus the ticks/percent table), inline-SVG
sparklines for each telemetry time series (sim/timeseries: the
MetricsSampler ring buffers dumped by sim/report.cc) and the SLO
watchdog's alert timeline (fire/clear markers drawn on the sparklines
at their simulated ticks, plus a firings table). Uses only the Python
standard library and emits no external references — the artifact can be
opened from a CI artifact zip without a network.

Usage:
  python3 scripts/dashboard.py --report-dir build/bench --out dashboard.html
"""

import argparse
import glob
import html
import json
import os
import sys

SPARK_W = 360
SPARK_H = 56
SPARK_PAD = 4


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def fmt_value(v):
    """Compact human form of a series value (int-valued floats stay int)."""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, int):
        return f"{v:,}"
    if v == int(v) and abs(v) < 1e15:
        return f"{int(v):,}"
    return f"{v:.4g}"


def fmt_ticks(ticks):
    """Simulated picosecond ticks as a human duration."""
    if ticks < 0:
        return "-"
    us = ticks / 1e6
    if us < 1000:
        return f"{us:.0f} us"
    ms = us / 1000
    if ms < 1000:
        return f"{ms:.2f} ms"
    return f"{ms / 1000:.3f} s"


def spark_points(values, span_ticks, interval_ticks):
    """Maps series values to SVG polyline coordinates.

    Point k (0-based) was sampled at tick (k + 1) * interval_ticks; the
    x axis spans [0, span_ticks] so alert markers (raw ticks) land on
    the same scale.
    """
    lo = min(values)
    hi = max(values)
    vspan = (hi - lo) or 1.0
    pts = []
    for k, v in enumerate(values):
        x = SPARK_PAD + ((k + 1) * interval_ticks / span_ticks) * (
            SPARK_W - 2 * SPARK_PAD
        )
        y = SPARK_H - SPARK_PAD - ((v - lo) / vspan) * (
            SPARK_H - 2 * SPARK_PAD
        )
        pts.append(f"{x:.1f},{y:.1f}")
    return pts, lo, hi


def marker_x(ticks, span_ticks):
    frac = min(max(ticks / span_ticks, 0.0), 1.0)
    return SPARK_PAD + frac * (SPARK_W - 2 * SPARK_PAD)


def render_sparkline(name, values, span_ticks, interval_ticks, firings):
    """One labelled sparkline row; alert transitions drawn as vertical
    rules (red = fire, green = clear)."""
    pts, lo, hi = spark_points(values, span_ticks, interval_ticks)
    markers = []
    for f in firings:
        x = marker_x(f["fire_ticks"], span_ticks)
        markers.append(
            f'<line x1="{x:.1f}" y1="0" x2="{x:.1f}" y2="{SPARK_H}" '
            f'class="fire"><title>fire {html.escape(f["rule_name"])} @ '
            f'{fmt_ticks(f["fire_ticks"])}</title></line>'
        )
        if f["clear_ticks"] >= 0:
            x = marker_x(f["clear_ticks"], span_ticks)
            markers.append(
                f'<line x1="{x:.1f}" y1="0" x2="{x:.1f}" '
                f'y2="{SPARK_H}" class="clear"><title>clear '
                f'{html.escape(f["rule_name"])} @ '
                f'{fmt_ticks(f["clear_ticks"])}</title></line>'
            )
    line = ""
    if len(pts) > 1:
        line = f'<polyline points="{" ".join(pts)}" class="series"/>'
    else:
        line = f'<circle cx="{pts[0].split(",")[0]}" cy="{pts[0].split(",")[1]}" r="2" class="dot"/>'
    return (
        '<div class="row">'
        f'<div class="name" title="{html.escape(name)}">'
        f"{html.escape(name)}</div>"
        f'<svg width="{SPARK_W}" height="{SPARK_H}" '
        f'viewBox="0 0 {SPARK_W} {SPARK_H}">{line}{"".join(markers)}'
        "</svg>"
        f'<div class="range">{fmt_value(lo)} .. {fmt_value(hi)} '
        f"(last {fmt_value(values[-1])})</div>"
        "</div>"
    )


# Colors by category position. The validator fixes the categories to
# the sim/cost_ledger.h taxonomy and the writer emits them in that
# order, so a category reads the same across every bench's bar; a
# category past the end of the palette reuses a color but is drawn.
PALETTE = [
    "#2266cc", "#66aadd", "#ee9933", "#cc2222", "#882299", "#22aa55",
    "#aa8844", "#33bbaa", "#dd66aa",
]

BAR_W = 720
BAR_H = 22


def render_critical_path(cp):
    """One stacked bar: where the simulated makespan went, by category.
    The categories conserve (sum exactly to the makespan), so the bar
    has no gaps and no overflow by construction."""
    if not isinstance(cp, dict):
        return ("<p class='muted'>no critical_path section (pre-v6 "
                "report)</p>")
    makespan = cp.get("makespan_ticks", 0)
    cats = cp.get("categories", {})
    if makespan <= 0:
        return "<p class='muted'>zero makespan — nothing to attribute</p>"
    rects = []
    x = 0.0
    rows = []
    for i, (cat, ticks) in enumerate(cats.items()):
        color = PALETTE[i % len(PALETTE)]
        if ticks <= 0:
            continue
        w = BAR_W * ticks / makespan
        pct = 100.0 * ticks / makespan
        rects.append(
            f'<rect x="{x:.1f}" y="0" width="{w:.1f}" height="{BAR_H}" '
            f'fill="{color}"><title>{html.escape(cat)}: {ticks:,} ticks '
            f"({pct:.1f}%)</title></rect>"
        )
        rows.append(
            f"<tr><td><span class='swatch' style='background:{color}'>"
            f"</span> {html.escape(cat)}</td>"
            f"<td class='num'>{ticks:,}</td>"
            f"<td class='num'>{pct:.1f}%</td></tr>"
        )
        x += w
    what_if = cp.get("what_if", [])
    best = ""
    if what_if:
        top = max(what_if, key=lambda w: w.get("speedup", 0))
        if top.get("speedup", 1.0) > 1.0:
            best = (
                f"<p class='muted'>best what-if: shrink "
                f"<code>{html.escape(top.get('name', '?'))}</code> to "
                f"{top.get('factor', 0):g}x &rarr; "
                f"{top.get('speedup', 1):.2f}x speedup</p>"
            )
    return (
        f"<p class='muted'>critical {html.escape(str(cp.get('critical_role')))} "
        f"{cp.get('critical_node')} &middot; makespan "
        f"{fmt_ticks(makespan)} &middot; {len(cp.get('path', []))} "
        "path segment(s)</p>"
        f'<svg width="{BAR_W}" height="{BAR_H}" '
        f'viewBox="0 0 {BAR_W} {BAR_H}">{"".join(rects)}</svg>'
        f"<table><tr><th>category</th><th>ticks</th><th>share</th></tr>"
        f"{''.join(rows)}</table>{best}"
    )


def render_freshness(bench):
    """Staleness sparklines for a freshness report: one row per
    percentile, one point per mutation-rate cell (bench_freshness), so
    the arrival-to-visibility latency trend across rates is readable at
    a glance next to the telemetry series."""
    cells = sorted(
        (k, v)
        for k, v in bench.items()
        if isinstance(v, dict) and "staleness_p50_sim_ticks" in v
    )
    if not cells:
        return "<p class='muted'>no staleness cells in bench payload</p>"
    rows = []
    for field in ("staleness_p50_sim_ticks", "staleness_p99_sim_ticks"):
        values = [c.get(field, 0) for _, c in cells]
        label = "%s across %s" % (
            field, ", ".join(k for k, _ in cells))
        rows.append(
            render_sparkline(label, values, max(len(values), 1), 1, [])
        )
    return "".join(rows)


def render_alerts(alerts):
    rules = alerts.get("rules", [])
    firings = alerts.get("firings", [])
    if not rules:
        return "<p class='muted'>no watchdog rules declared</p>"
    out = ["<table><tr><th>rule</th><th>form</th><th>fired</th>"
           "<th>cleared</th><th>value at fire</th></tr>"]
    if not firings:
        out.append(
            f"<tr><td colspan='5' class='muted'>no firings "
            f"({len(rules)} rule(s) stayed green)</td></tr>"
        )
    for f in firings:
        cleared = (
            fmt_ticks(f["clear_ticks"])
            if f["clear_ticks"] >= 0
            else "<b class='active'>still active</b>"
        )
        out.append(
            f"<tr><td>{html.escape(f['rule_name'])}</td>"
            f"<td>{html.escape(rules[f['rule']]['form'])}</td>"
            f"<td>{fmt_ticks(f['fire_ticks'])}</td>"
            f"<td>{cleared}</td>"
            f"<td>{fmt_value(f['value'])}</td></tr>"
        )
    out.append("</table>")
    return "".join(out)


def render_report(path):
    with open(path) as fh:
        doc = json.load(fh)
    name = doc.get("name", os.path.basename(path))
    version = doc.get("schema_version")
    ts = doc.get("timeseries", {})
    alerts = doc.get("alerts", {})
    series = ts.get("series", {})
    points = ts.get("points", 0)
    interval = ts.get("interval_ticks", 1) or 1
    compactions = ts.get("compactions", 0)
    span_ticks = max(points * interval, 1)
    firings = alerts.get("firings", [])

    body = [
        f"<section><h2 id='{html.escape(name)}'>{html.escape(name)}</h2>",
        f"<p class='muted'>schema v{version} &middot; {points} points "
        f"&middot; interval {fmt_ticks(interval)} &middot; "
        f"{compactions} compaction(s) &middot; span "
        f"{fmt_ticks(span_ticks)}</p>",
        "<h3>critical path</h3>",
        render_critical_path(doc.get("critical_path")),
    ]
    bench = doc.get("bench")
    if isinstance(bench, dict) and "freshness" in bench:
        body += ["<h3>staleness</h3>", render_freshness(bench)]
    body += [
        "<h3>alerts</h3>",
        render_alerts(alerts),
        "<h3>time series</h3>",
    ]
    if not series:
        body.append(
            "<p class='muted'>no telemetry series (bench has no "
            "simulated cluster or sampling was disabled)</p>"
        )
    for sname in sorted(series):
        values = series[sname]
        if not values:
            continue
        body.append(
            render_sparkline(sname, values, span_ticks, interval, firings)
        )
    body.append("</section>")
    return name, "".join(body)


STYLE = """
body { font: 13px/1.5 system-ui, sans-serif; margin: 2em auto;
       max-width: 72em; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.15em; margin-top: 2em;
       border-bottom: 1px solid #ddd; }
h3 { font-size: 0.95em; color: #555; }
.muted { color: #888; }
.row { display: flex; align-items: center; gap: 1em;
       border-bottom: 1px solid #f2f2f2; padding: 2px 0; }
.name { width: 22em; overflow: hidden; text-overflow: ellipsis;
        white-space: nowrap; font-family: ui-monospace, monospace;
        font-size: 12px; }
.range { color: #666; font-size: 12px; }
svg { background: #fafafa; border: 1px solid #eee; flex: none; }
.series { fill: none; stroke: #2266cc; stroke-width: 1.2; }
.dot { fill: #2266cc; }
.fire { stroke: #cc2222; stroke-width: 1; }
.clear { stroke: #22aa55; stroke-width: 1; }
.active { color: #cc2222; }
table { border-collapse: collapse; font-size: 12px; }
td, th { border: 1px solid #e5e5e5; padding: 2px 8px; text-align: left; }
td.num { text-align: right; font-family: ui-monospace, monospace; }
.swatch { display: inline-block; width: 10px; height: 10px;
          margin-right: 4px; border: 1px solid #0002; }
nav a { margin-right: 1em; }
"""


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--report-dir",
        default=".",
        help="directory holding BENCH_*.json run reports",
    )
    ap.add_argument(
        "--out",
        default="dashboard.html",
        help="output HTML path",
    )
    args = ap.parse_args()

    paths = sorted(glob.glob(os.path.join(args.report_dir, "BENCH_*.json")))
    if not paths:
        fail(f"no BENCH_*.json reports under {args.report_dir!r}")
    sections = []
    names = []
    for path in paths:
        try:
            name, section = render_report(path)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
            fail(f"{path}: {e!r}")
        names.append(name)
        sections.append(section)

    nav = "".join(
        f"<a href='#{html.escape(n)}'>{html.escape(n)}</a>" for n in names
    )
    doc = (
        "<!doctype html><html><head><meta charset='utf-8'>"
        "<title>psgraph bench dashboard</title>"
        f"<style>{STYLE}</style></head><body>"
        "<h1>psgraph bench dashboard</h1>"
        "<p class='muted'>simulated-time telemetry from the "
        "MetricsSampler ring buffers; red/green rules are watchdog "
        "fire/clear transitions at their simulated ticks.</p>"
        f"<nav>{nav}</nav>"
        f"{''.join(sections)}"
        "</body></html>"
    )
    with open(args.out, "w") as fh:
        fh.write(doc)
    print(f"wrote {args.out} ({len(paths)} report(s))")


if __name__ == "__main__":
    main()
