#!/usr/bin/env python3
"""Render a compass_check sweep telemetry stream (JSONL) as a report.

The stream is produced by `compass_check sweep --telemetry FILE`: one JSON
object per line, flushed per record, so a killed run still leaves a
readable prefix. A truncated final line (the process died mid-write) is
expected and skipped with a note. See src/check/Telemetry.h for the
record schema.

Sections:
  * configuration  — from the run_start record(s); a file holds several
    when runs append to the same path (each resume adds one);
  * progress       — execs/sec over time from heartbeat records, with a
    small ASCII sparkline, queue/busy-worker extremes, and per-worker
    donation totals;
  * violations     — every violation record with its replayable decision
    trace (feed to `compass_check replay`);
  * checkpoints    — when/why checkpoints were cut;
  * outcome        — the run_end record (fingerprint, totals and the
    three-valued verdict: violations, clean and exhaustive, or clean but
    unverified because scenarios were truncated, linearization searches
    aborted or the run was interrupted), or a diagnosis that the stream
    ended without one (killed run).

Usage:
  scripts/telemetry_report.py TELEMETRY.jsonl [--json]
"""

import argparse
import json
import sys

SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values, width=60):
    if not values:
        return ""
    # Downsample to `width` buckets by averaging.
    if len(values) > width:
        step = len(values) / width
        values = [
            sum(values[int(i * step):max(int(i * step) + 1,
                                         int((i + 1) * step))]) /
            max(1, len(values[int(i * step):max(int(i * step) + 1,
                                                int((i + 1) * step))]))
            for i in range(width)
        ]
    hi = max(values) or 1.0
    return "".join(SPARK[min(len(SPARK) - 1,
                             int(v / hi * (len(SPARK) - 1)))] for v in values)


def verdict_text(run_end):
    """The run_end verdict as one phrase ("unknown" for streams written
    before the verdict field existed)."""
    verdict = run_end.get("verdict")
    if verdict == "violations":
        return "VIOLATIONS"
    if verdict == "unverified":
        gaps = []
        if run_end.get("truncated"):
            gaps.append(f"{run_end['truncated']} truncated")
        if run_end.get("lin_aborts"):
            gaps.append(f"{run_end['lin_aborts']} linearization aborts")
        if run_end.get("interrupted"):
            gaps.append("interrupted")
        return f"clean, {', '.join(gaps or ['partly checked'])} (unverified)"
    if verdict == "clean":
        return "clean and exhaustive"
    return "unknown"


def load(path):
    """Returns (records, truncated_tail) tolerating a torn final line."""
    records, truncated = [], False
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
    except OSError as e:
        print(f"telemetry_report: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                truncated = True  # torn tail from a killed writer: expected
            else:
                print(f"telemetry_report: skipping malformed line {i + 1}",
                      file=sys.stderr)
            continue
        if isinstance(rec, dict) and "kind" in rec:
            records.append(rec)
    return records, truncated


def fmt_secs(s):
    s = float(s)
    if s < 120:
        return f"{s:.1f}s"
    m, sec = divmod(int(s), 60)
    h, m = divmod(m, 60)
    return f"{h}h{m:02d}m{sec:02d}s" if h else f"{m}m{sec:02d}s"


def section(title):
    print(f"\n== {title} ==")


def report(records, truncated):
    by_kind = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r)

    section("configuration")
    starts = by_kind.get("run_start", [])
    if not starts:
        print("  (no run_start record)")
    for i, r in enumerate(starts):
        tag = f"segment {i + 1}: " if len(starts) > 1 else ""
        print(f"  {tag}seed={r.get('seed')} workers={r.get('workers')} "
              f"per_lib={r.get('per_lib')} reduction={r.get('reduction')} "
              f"libs={','.join(r.get('libs', []))}")
        if r.get("resumed"):
            print(f"    resumed from checkpoint at "
                  f"{r.get('base_executions', 0):,} executions")

    section("progress")
    hbs = by_kind.get("heartbeat", [])
    if not hbs:
        print("  (no heartbeat records)")
    else:
        rates = [float(h.get("execs_per_sec", 0.0)) for h in hbs]
        print(f"  heartbeats: {len(hbs)}  "
              f"span {fmt_secs(hbs[-1].get('elapsed', 0))}")
        print(f"  execs/sec: min {min(rates):,.0f}  "
              f"mean {sum(rates) / len(rates):,.0f}  max {max(rates):,.0f}")
        print(f"  [{sparkline(rates)}]")
        peak_q = max(int(h.get("queue", 0)) for h in hbs)
        peak_busy = max(int(h.get("busy", 0)) for h in hbs)
        donations = max(int(h.get("donations", 0)) for h in hbs)
        print(f"  peak queue {peak_q}  peak busy workers {peak_busy}  "
              f"donations {donations}")
        last = hbs[-1].get("sweep", {})
        if last:
            print(f"  last sweep counters: "
                  f"scenarios={last.get('scenarios', 0)} "
                  f"executions={last.get('executions', 0):,} "
                  f"completed={last.get('completed', 0):,} "
                  f"races={last.get('races', 0)} "
                  f"deadlocks={last.get('deadlocks', 0)} "
                  f"violations={last.get('violations', 0)} "
                  f"sleep_pruned={last.get('sleep_pruned', 0):,}")

    section("violations")
    viols = by_kind.get("violation", [])
    if not viols:
        print("  none")
    for r in viols:
        print(f"  [{fmt_secs(r.get('elapsed', 0))}] {r.get('lib')} "
              f"scenario {r.get('scenario')}: {r.get('verdict')}")
        trace = ",".join(str(d) for d in r.get("replay", []))
        print(f"    scenario: {r.get('scenario_str', '?')}")
        print(f"    replay:   {trace or '(empty trace)'}")

    section("checkpoints")
    ckpts = by_kind.get("checkpoint", [])
    if not ckpts:
        print("  none")
    for r in ckpts:
        print(f"  [{fmt_secs(r.get('elapsed', 0))}] {r.get('reason')} -> "
              f"{r.get('path')} at {r.get('executions', 0):,} executions")

    section("outcome")
    ends = by_kind.get("run_end", [])
    if ends:
        r = ends[-1]
        state = "INTERRUPTED (checkpoint written)" if r.get("interrupted") \
            else "completed"
        # Note: an interrupted run_end reports the totals of *completed*
        # libraries only; the checkpoint carries the in-flight remainder.
        print(f"  {state} after {fmt_secs(r.get('elapsed', 0))}: "
              f"fingerprint {r.get('fingerprint')}  "
              f"executions {r.get('executions', 0):,}  "
              f"violations {r.get('violations', 0)}")
        print(f"  verdict: {verdict_text(r)}")
    else:
        print("  stream ends without run_end: the writer was killed "
              "(resume from its last checkpoint)")
    if truncated:
        print("  note: final line was torn mid-write and skipped")

    return 1 if viols else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("telemetry", help="JSONL stream from --telemetry")
    ap.add_argument("--json", action="store_true",
                    help="emit a machine-readable summary instead of text")
    args = ap.parse_args()

    records, truncated = load(args.telemetry)
    if not records:
        print(f"telemetry_report: no records in {args.telemetry}",
              file=sys.stderr)
        return 2

    if args.json:
        by_kind = {}
        for r in records:
            by_kind.setdefault(r["kind"], []).append(r)
        ends = by_kind.get("run_end", [])
        summary = {
            "records": len(records),
            "kinds": {k: len(v) for k, v in sorted(by_kind.items())},
            "violations": [
                {"lib": r.get("lib"), "scenario": r.get("scenario"),
                 "verdict": r.get("verdict"), "replay": r.get("replay", [])}
                for r in by_kind.get("violation", [])
            ],
            "truncated_tail": truncated,
            "run_end": ends[-1] if ends else None,
        }
        print(json.dumps(summary, indent=2))
        return 1 if summary["violations"] else 0

    return report(records, truncated)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into head
        sys.exit(0)
