#!/usr/bin/env python3
"""Compare two defrag.metrics.v1 snapshots and flag regressions.

Usage:
    metrics_diff.py BASELINE.json CANDIDATE.json [--threshold PCT]
                    [--watch PREFIX [--watch PREFIX ...]] [--all]

Both files are outputs of `defrag-cli backup --metrics-json`, a bench run
with DEFRAG_METRICS_JSON set, or the examples/observability demo — anything
speaking the defrag.metrics.v1 schema (see docs/OBSERVABILITY.md).

For every metric present in both snapshots the tool prints the relative
change of its scalar value (counter value, gauge value, histogram mean).
Changes whose magnitude exceeds --threshold (default 5%) on a watched
metric are reported as regressions and make the tool exit 1, so it can
gate CI. By default every "engine.*", "storage.*" and "index.*" metric is
watched; wall-clock histograms ("system.*", "stage.*") are
excluded because they measure the machine, not the algorithm. --watch
overrides the watch list; --all prints unchanged metrics too.

Exit codes (the CI contract, self-tested by tools/test_metrics_diff.py):
    0   compared cleanly, no watched metric moved past the threshold
    1   at least one regression (or a metric changed type)
    2   usage error, unreadable/unparseable input, or wrong schema

Only the Python 3 standard library is used.
"""

import argparse
import json
import sys

DEFAULT_WATCH = ("engine.", "storage.", "index.", "dedup.")


def scalar_of(entry):
    """The one number a metric is compared by."""
    kind = entry.get("type")
    if kind in ("counter", "gauge"):
        return float(entry.get("value", 0.0))
    if kind == "histogram":
        return float(entry.get("mean", 0.0))
    raise ValueError(f"unknown metric type {kind!r}")


def load(path):
    """Read one snapshot; any failure is a usage error (exit 2)."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        sys.exit(2)
    except json.JSONDecodeError as exc:
        print(f"{path}: not valid JSON: {exc}", file=sys.stderr)
        sys.exit(2)
    if doc.get("schema") != "defrag.metrics.v1":
        print(f"{path}: not a defrag.metrics.v1 snapshot "
              f"(schema={doc.get('schema')!r})", file=sys.stderr)
        sys.exit(2)
    return doc["metrics"]


def relative_change(base, cand):
    if base == cand:
        return 0.0
    if base == 0.0:
        return float("inf")
    return (cand - base) / abs(base)


def fmt_change(rel):
    if rel == float("inf"):
        return "new-nonzero"
    return f"{rel * 100.0:+.2f}%"


def main():
    ap = argparse.ArgumentParser(
        description="diff two defrag.metrics.v1 snapshots",
        epilog="exit codes: 0 no regressions; 1 regressions or type "
               "changes; 2 usage/IO/schema error")
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--threshold", type=float, default=5.0,
                    help="regression threshold in percent (default 5)")
    ap.add_argument("--watch", action="append", default=[],
                    metavar="PREFIX",
                    help="metric-name prefix to gate on (repeatable; "
                         f"default: {', '.join(DEFAULT_WATCH)})")
    ap.add_argument("--all", action="store_true",
                    help="print unchanged metrics too")
    args = ap.parse_args()

    base = load(args.baseline)
    cand = load(args.candidate)
    watch = tuple(args.watch) if args.watch else DEFAULT_WATCH
    threshold = args.threshold / 100.0

    names = sorted(set(base) | set(cand))
    width = max((len(n) for n in names), default=4)
    regressions = []

    for name in names:
        if name not in base:
            print(f"  {name:<{width}}  only in candidate")
            continue
        if name not in cand:
            print(f"  {name:<{width}}  only in baseline")
            continue
        if base[name].get("type") != cand[name].get("type"):
            print(f"  {name:<{width}}  TYPE CHANGED "
                  f"{base[name].get('type')} -> {cand[name].get('type')}")
            regressions.append(name)
            continue
        b, c = scalar_of(base[name]), scalar_of(cand[name])
        rel = relative_change(b, c)
        if rel == 0.0 and not args.all:
            continue
        watched = name.startswith(watch)
        regressed = watched and (rel == float("inf") or abs(rel) > threshold)
        marker = "REGRESSION" if regressed else ""
        print(f"  {name:<{width}}  {b:>14.6g} -> {c:>14.6g}  "
              f"{fmt_change(rel):>12}  {marker}")
        if regressed:
            regressions.append(name)

    print(f"\n{len(names)} metrics compared, {len(regressions)} regression(s) "
          f"(threshold {args.threshold}%, watching {', '.join(watch)})")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
