#!/usr/bin/env python3
"""Compare a fresh BENCH_simulator.json or BENCH_interpreter.json against
the committed baseline.

Matches BENCH_simulator's scaling rows on (workload, workers) and its
reduction rows on (workload, reduction), and BENCH_interpreter's engine
rows on (workload, engine, reduction), then compares throughput
(execs_per_sec). CI gates BENCH_simulator.json only: interpreter rows run
for milliseconds, too short to gate. By
default the script only *reports*: regressions beyond the threshold are
printed as GitHub Actions `::warning::` annotations and the exit code
stays 0, so a noisy CI runner cannot block a merge. Pass --strict to turn
regressions into a nonzero exit (for local perf work).

Robustness contract (pinned by --self-test):
  * multi-worker scaling rows are exempt from regression checks when the
    fresh run's machine has fewer hardware threads than the row's worker
    count (an oversubscribed run measures scheduler thrash, not the
    engine — its "speedup" is noise by construction);
  * rows missing a key field (workload/workers, workload/engine/reduction
    or workload/reduction) are reported and skipped, never a KeyError;
  * a zero, null, or missing baseline metric reports "no usable
    baseline" and skips the ratio, never a division/TypeError crash;
  * rows present on only one side are reported as "removed" / "new";
  * unreadable or malformed JSON inputs exit 2 with a clean message.

Usage:
  scripts/bench_compare.py NEW.json BASELINE.json [--threshold 0.20]
                           [--strict]
  scripts/bench_compare.py --self-test
"""

import argparse
import json
import sys


def row_key(table, row):
    """The key of one row, or None when it lacks the fields of its kind.

    A `rows` entry is a scaling row when it names its workers and an
    engine row (BENCH_interpreter) when it names its engine and reduction.
    """
    if not isinstance(row, dict) or "workload" not in row:
        return None
    workload = str(row["workload"])
    if table == "reduction_rows":
        if "reduction" not in row:
            return None
        return ("reduction", workload, str(row["reduction"]))
    if "workers" in row:
        return ("scaling", workload, str(row["workers"]))
    if "engine" in row and "reduction" in row:
        return ("engine", workload,
                f"{row['engine']}, reduction={row['reduction']}")
    return None


def rows_by_key(report, label="report"):
    """Maps row-key -> row for the scaling, engine and reduction tables.

    Malformed rows (not a dict, or missing the fields that make up the
    key) are reported on stdout and skipped instead of raising.
    """
    out = {}
    if not isinstance(report, dict):
        print(f"::warning::bench_compare: {label}: top level is not an "
              "object; treating as empty")
        return out
    for table, fields in (("rows", "workers or engine/reduction"),
                          ("reduction_rows", "reduction")):
        rows = report.get(table, [])
        if not isinstance(rows, list):
            print(f"::warning::bench_compare: {label}: '{table}' is not a "
                  "list; skipping table")
            continue
        for i, row in enumerate(rows):
            key = row_key(table, row)
            if key is None:
                print(f"::warning::bench_compare: {label}: {table}[{i}] "
                      f"lacks workload/{fields}; skipping row")
                continue
            out[key] = row
    return out


def metric(row):
    """Returns execs_per_sec as a positive float, or None when the metric
    is missing, null, non-numeric, or non-positive (a zero baseline means
    the run produced no signal; a ratio against it is meaningless)."""
    v = row.get("execs_per_sec")
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return None
    return float(v) if v > 0 else None


def fmt_key(key):
    kind, workload, variant = key
    unit = {"scaling": "workers", "engine": "engine"}.get(kind, "reduction")
    return f"{workload} [{unit}={variant}]"


def hardware_threads(report):
    """The fresh run's hardware thread count, or None when absent/bogus."""
    if not isinstance(report, dict):
        return None
    v = report.get("hardware_threads")
    if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 1:
        return None
    return int(v)


def oversubscribed(key, hw, nrow=None):
    """True for a multi-worker scaling row run on a machine with fewer
    hardware threads than workers: its throughput measures scheduler
    thrash, not the engine, so it is exempt from regression checks.

    Newer reports stamp each scaling row with an `oversubscribed` boolean
    at produce time (the producing machine knows its own thread count even
    when the report is compared elsewhere); that stamp wins when present.
    The hardware_threads inference remains as a fallback for reports
    produced before the stamp existed."""
    if isinstance(nrow, dict):
        stamp = nrow.get("oversubscribed")
        if isinstance(stamp, bool):
            return stamp
    kind, _workload, variant = key
    if kind != "scaling" or hw is None:
        return False
    try:
        workers = int(variant)
    except ValueError:
        return False
    return workers > 1 and workers > hw


def compare(new, base, threshold, strict, hw=None):
    """Core comparison over two key->row maps; returns the exit code."""
    regressions = []
    improvements = []
    for key, brow in sorted(base.items()):
        nrow = new.get(key)
        if nrow is None:
            print(f"  removed (no new row): {fmt_key(key)}")
            continue
        if oversubscribed(key, hw, nrow):
            print(f"  skipped (oversubscribed): {fmt_key(key)}")
            continue
        b, n = metric(brow), metric(nrow)
        if b is None:
            print(f"  no usable baseline metric (zero/missing), "
                  f"skipping ratio: {fmt_key(key)}")
            continue
        if n is None:
            line = f"{fmt_key(key)}: {b:,.0f} -> 0 execs/sec (new run dead)"
            regressions.append(line)
            continue
        delta = (n - b) / b
        line = (f"{fmt_key(key)}: {b:,.0f} -> {n:,.0f} execs/sec "
                f"({delta:+.1%})")
        if delta < -threshold:
            regressions.append(line)
        elif delta > threshold:
            improvements.append(line)
        else:
            print(f"  ok  {line}")

    for line in improvements:
        print(f"  IMPROVED  {line}")
    for line in regressions:
        # Non-blocking by default: annotate, do not fail the job.
        print(f"::warning::bench_compare regression: {line}")

    for key in sorted(set(new) - set(base)):
        print(f"  new row (no baseline): {fmt_key(key)}")

    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{threshold:.0%} (non-blocking"
              f"{'' if not strict else ', but --strict is set'})")
        return 1 if strict else 0
    print("\nno regressions beyond threshold")
    return 0


def load_report(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


# ---------------------------------------------------------------------------
# Self-test: synthetic reports exercising every robustness branch above.
# Invoked from CI so a regression in this script fails fast, without
# needing a real benchmark run.
# ---------------------------------------------------------------------------

def self_test():
    import contextlib
    import io

    failures = []

    def check(name, cond):
        print(f"  {'PASS' if cond else 'FAIL'}  {name}")
        if not cond:
            failures.append(name)

    def run(new_report, base_report, threshold=0.20, strict=False):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = compare(rows_by_key(new_report, "new"),
                           rows_by_key(base_report, "baseline"),
                           threshold, strict,
                           hw=hardware_threads(new_report))
        return code, buf.getvalue()

    def row(workload, workers, eps):
        return {"workload": workload, "workers": workers,
                "execs_per_sec": eps}

    base = {"rows": [row("queue", 2, 1000.0), row("stack", 2, 500.0)],
            "reduction_rows": [{"workload": "queue", "reduction": "source-set",
                                "execs_per_sec": 800.0}]}

    # 1. Identical reports: clean pass.
    code, out = run(base, base)
    check("identical reports exit 0", code == 0)
    check("identical reports report ok rows", out.count("  ok  ") == 3)

    # 2. Regression detected; non-strict stays 0, strict exits 1.
    slow = {"rows": [row("queue", 2, 100.0), row("stack", 2, 500.0)],
            "reduction_rows": base["reduction_rows"]}
    code, out = run(slow, base)
    check("regression non-strict exits 0", code == 0)
    check("regression annotated", "::warning::bench_compare regression" in out)
    code, _ = run(slow, base, strict=True)
    check("regression strict exits 1", code == 1)

    # 3. Zero / null / missing baseline metric: skipped, no crash.
    #    (Pre-fix: null compared against 0 raised TypeError.)
    zero = {"rows": [row("queue", 2, 0.0), row("stack", 2, None),
                     {"workload": "ws", "workers": 2}]}
    code, out = run({"rows": [row("queue", 2, 50.0), row("stack", 2, 50.0),
                              row("ws", 2, 50.0)]}, zero)
    check("zero/null/missing baseline exits 0", code == 0)
    check("zero baseline skips ratio",
          out.count("no usable baseline metric") == 3)

    # 4. Baseline healthy but new run produced no throughput: regression.
    code, out = run({"rows": [row("queue", 2, 0.0)]},
                    {"rows": [row("queue", 2, 1000.0)]}, strict=True)
    check("dead new run is a strict regression", code == 1)
    check("dead new run annotated", "new run dead" in out)

    # 5. Rows added/removed between baseline and fresh run.
    #    (Pre-fix: a row missing 'workers' raised KeyError.)
    code, out = run({"rows": [row("queue", 2, 1000.0),
                              row("queue", 4, 1900.0)]},
                    {"rows": [row("queue", 2, 1000.0),
                              row("stack", 2, 500.0)]})
    check("added/removed rows exit 0", code == 0)
    check("removed row reported", "removed (no new row): stack" in out)
    check("new row reported", "new row (no baseline): queue" in out)

    # 6. Malformed rows (missing key fields, wrong shapes) are skipped.
    mangled = {"rows": [{"workers": 2, "execs_per_sec": 10.0},
                        {"workload": "q"}, "not-a-dict",
                        row("queue", 2, 1000.0)],
               "reduction_rows": "nope"}
    code, out = run(mangled, base)
    check("malformed rows exit 0", code == 0)
    check("malformed rows reported", out.count("skipping row") == 3)
    check("malformed table reported", "skipping table" in out)

    # 7. Non-object top level degrades to an empty report.
    code, out = run([1, 2, 3], base)
    check("non-object report exits 0", code == 0)

    # 8. Oversubscribed scaling rows (workers > the fresh run's hardware
    #    threads) are exempt from regression checks even under --strict;
    #    serial rows and reduction rows on the same machine still count.
    one_core_slow = {"hardware_threads": 1,
                     "rows": [row("queue", 1, 1000.0),
                              row("queue", 4, 100.0)],
                     "reduction_rows": base["reduction_rows"]}
    one_core_base = {"rows": [row("queue", 1, 1000.0),
                              row("queue", 4, 1900.0)],
                     "reduction_rows": base["reduction_rows"]}
    code, out = run(one_core_slow, one_core_base, strict=True)
    check("oversubscribed regression exits 0", code == 0)
    check("oversubscribed row reported skipped",
          "skipped (oversubscribed" in out)
    serial_slow = {"hardware_threads": 1,
                   "rows": [row("queue", 1, 100.0),
                            row("queue", 4, 1900.0)],
                   "reduction_rows": base["reduction_rows"]}
    code, out = run(serial_slow, one_core_base, strict=True)
    check("serial regression still strict-fails on 1 core", code == 1)
    plenty = {"hardware_threads": 8,
              "rows": [row("queue", 1, 1000.0), row("queue", 4, 100.0)],
              "reduction_rows": base["reduction_rows"]}
    code, out = run(plenty, one_core_base, strict=True)
    check("4-worker regression counts with 8 hardware threads", code == 1)

    # 9. Rows stamped `oversubscribed` at produce time: the stamp wins over
    #    the hardware_threads inference in both directions, so a report
    #    compared on a different machine keeps the producing machine's
    #    verdict.
    def stamped(workload, workers, eps, over):
        r = row(workload, workers, eps)
        r["oversubscribed"] = over
        return r
    stamped_true = {"hardware_threads": 8,
                    "rows": [row("queue", 1, 1000.0),
                             stamped("queue", 4, 100.0, True)],
                    "reduction_rows": base["reduction_rows"]}
    code, out = run(stamped_true, one_core_base, strict=True)
    check("stamped-true row skipped despite ample threads", code == 0)
    check("stamped-true row reported skipped",
          "skipped (oversubscribed)" in out)
    stamped_false = {"hardware_threads": 1,
                     "rows": [row("queue", 1, 1000.0),
                              stamped("queue", 4, 100.0, False)],
                     "reduction_rows": base["reduction_rows"]}
    code, out = run(stamped_false, one_core_base, strict=True)
    check("stamped-false row counts despite 1 thread", code == 1)

    # 10. BENCH_interpreter rows are keyed on (workload, engine,
    #     reduction): none is skipped, rows differing only in engine or
    #     reduction stay apart, and a slow row is a regression. (Pre-fix
    #     every row "lacked workload/workers" and the run reported no
    #     regressions.)
    def erow(engine, reduction, eps):
        return {"workload": "MS queue (E2, pb=2)", "engine": engine,
                "reduction": reduction, "execs_per_sec": eps}
    interp = {"hardware_threads": 4,
              "rows": [erow("root-replay", "none", 1000.0),
                       erow("cow", "none", 1500.0),
                       erow("root-replay", "source-set", 2000.0),
                       erow("cow", "source-set", 2500.0)]}
    code, out = run(interp, interp, strict=True)
    check("interpreter rows compared, none skipped",
          code == 0 and out.count("  ok  ") == 4 and "skipping" not in out)
    check("interpreter row names engine and reduction",
          "[engine=cow, reduction=source-set]" in out)
    interp_slow = {"rows": [erow("root-replay", "none", 1000.0),
                            erow("cow", "none", 500.0),
                            erow("root-replay", "source-set", 2000.0),
                            erow("cow", "source-set", 2500.0)]}
    code, out = run(interp_slow, interp, strict=True)
    check("interpreter regression strict-fails", code == 1)
    check("interpreter regression names its row",
          "regression: MS queue (E2, pb=2) [engine=cow, reduction=none]"
          in out)

    if failures:
        print(f"\nself-test FAILED: {len(failures)} check(s)")
        return 1
    print("\nself-test passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("new", nargs="?",
                    help="freshly generated BENCH_simulator.json or "
                    "BENCH_interpreter.json")
    ap.add_argument("baseline", nargs="?",
                    help="the committed baseline of the same bench")
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="relative execs/sec drop that counts as a regression "
        "(default 0.20 = 20%%)",
    )
    ap.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero when a regression is found (default: report only)",
    )
    ap.add_argument(
        "--self-test",
        action="store_true",
        help="run the built-in self-test on synthetic reports and exit",
    )
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if args.new is None or args.baseline is None:
        ap.error("NEW and BASELINE are required unless --self-test is given")

    new_report = load_report(args.new)
    new = rows_by_key(new_report, "new")
    base = rows_by_key(load_report(args.baseline), "baseline")
    return compare(new, base, args.threshold, args.strict,
                   hw=hardware_threads(new_report))


if __name__ == "__main__":
    sys.exit(main())
