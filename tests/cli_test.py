#!/usr/bin/env python3
"""CLI contract test for compass_check flag parsing.

Pins the strict numeric-flag contract: malformed, signed, overflowing, or
missing values exit 2 and print usage to stderr (pre-fix, strtoull
silently mapped "abc" and "-1" to a number and the sweep ran with
garbage); valid spellings are accepted. Invoked by ctest as
`test_cli <path-to-compass_check>`.
"""

import json
import os
import subprocess
import sys
import tempfile

BIN = None
REPORT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "scripts", "telemetry_report.py")
failures = []


def run(*args, timeout=120):
    return subprocess.run([BIN, *args], capture_output=True, text=True,
                          timeout=timeout)


def check(name, cond, proc=None):
    print(f"  {'PASS' if cond else 'FAIL'}  {name}")
    if not cond:
        failures.append(name)
        if proc is not None:
            sys.stdout.write(f"    exit={proc.returncode}\n"
                             f"    stderr: {proc.stderr[:400]}\n")


def expect_usage_error(name, *args):
    p = run(*args)
    check(name, p.returncode == 2 and "usage:" in p.stderr, p)


def main():
    global BIN
    if len(sys.argv) != 2:
        print("usage: cli_test.py <compass_check binary>", file=sys.stderr)
        return 2
    BIN = sys.argv[1]

    # --- malformed numeric values: exit 2 + usage -------------------------
    expect_usage_error("non-numeric seed", "sweep", "--seed", "abc")
    expect_usage_error("negative seed", "sweep", "--seed", "-1")
    expect_usage_error("overflowing seed", "sweep", "--seed",
                       "99999999999999999999999")
    expect_usage_error("hex per-lib", "sweep", "--per-lib", "0x10")
    expect_usage_error("trailing junk per-lib", "sweep", "--per-lib", "3q")
    expect_usage_error("plus-signed max-execs", "sweep", "--max-execs", "+5")
    expect_usage_error("empty workers", "sweep", "--workers", "")
    expect_usage_error("zero workers", "sweep", "--workers", "0")
    expect_usage_error("float per-lib", "sweep", "--per-lib", "1.5")
    expect_usage_error("missing value", "sweep", "--per-lib")
    expect_usage_error("unsigned overflow per-lib", "sweep", "--per-lib",
                       str(2**64))
    expect_usage_error("mutants non-numeric max-scenarios", "mutants",
                       "--max-scenarios", "many")
    expect_usage_error("negative time budget", "sweep", "--time-budget", "-2")
    expect_usage_error("zero time budget", "sweep", "--time-budget", "0")
    expect_usage_error("non-numeric time budget", "sweep", "--time-budget",
                       "soon")
    expect_usage_error("bad checkpoint-every suffix", "sweep",
                       "--checkpoint-every", "5x")
    expect_usage_error("empty checkpoint-every", "sweep",
                       "--checkpoint-every", "s")
    expect_usage_error("unknown flag", "sweep", "--frobnicate")
    expect_usage_error("unknown command", "frobnicate")
    expect_usage_error("bad lib name", "sweep", "--lib", "no_such_lib")
    expect_usage_error("lib name close miss", "sweep", "--lib", "treiber_ebr ")
    expect_usage_error("bad mutation name", "mutants", "--mut",
                       "ebr_skip_grace")
    expect_usage_error("bad reduction", "sweep", "--reduction", "magic")
    # Only the canonical lowercase spellings none|source are valid:
    # near-misses must not be silently mapped to a mode.
    expect_usage_error("reduction near-miss sleep-set", "sweep",
                       "--reduction", "sleep-set")
    expect_usage_error("reduction near-miss capitalized", "sweep",
                       "--reduction", "Source")
    # The sleep-set mode was removed (source sets subsume it); its old
    # spelling is a usage error, not an alias.
    expect_usage_error("removed reduction sleep", "sweep",
                       "--reduction", "sleep")
    expect_usage_error("mutants removed reduction sleep", "mutants",
                       "--reduction", "sleep")
    expect_usage_error("bad engine", "sweep", "--engine", "cow")
    expect_usage_error("engine near-miss capitalized", "sweep",
                       "--engine", "Auto")
    p = run("sweep", "--resume", "/nonexistent/ckpt")
    check("missing resume file exits 2 with diagnostic",
          p.returncode == 2 and "cannot read" in p.stderr, p)

    # --- valid spellings still accepted -----------------------------------
    p = run("sweep", "--seed", "3", "--per-lib", "1", "--workers", "1",
            "--max-execs", "2000", "--lib", "ms_queue")
    check("valid sweep runs", p.returncode == 0, p)
    check("valid sweep prints fingerprint", "fingerprint" in p.stdout, p)

    p = run("sweep", "--seed", "3", "--per-lib", "1", "--workers", "1",
            "--max-execs", "2000", "--lib", "treiber_ebr", timeout=300)
    check("treiber_ebr sweep runs", p.returncode == 0, p)
    check("treiber_ebr sweep names the library", "treiber_ebr" in p.stdout, p)
    check("treiber_ebr sweep prints fingerprint", "fingerprint" in p.stdout, p)

    p = run("sweep", "--seed", "3", "--per-lib", "1", "--workers", "2",
            "--max-execs", "2000", "--lib", "ms_queue",
            "--time-budget", "30.5")
    check("fractional time budget accepted", p.returncode == 0, p)

    p = run("sweep", "--seed", "3", "--per-lib", "1", "--max-execs", "2000",
            "--lib", "ms_queue", "--checkpoint-every", "1000000")
    check("checkpoint-every execs accepted", p.returncode == 0, p)

    p = run("sweep", "--seed", "3", "--per-lib", "1", "--max-execs", "2000",
            "--lib", "ms_queue", "--checkpoint-every", "900s")
    check("checkpoint-every seconds accepted", p.returncode == 0, p)

    # --- reduction / engine mode spellings --------------------------------
    for mode in ("none", "source"):
        p = run("sweep", "--seed", "3", "--per-lib", "1", "--workers", "1",
                "--max-execs", "2000", "--lib", "ms_queue",
                "--reduction", mode)
        check(f"--reduction {mode} accepted", p.returncode == 0, p)
        check(f"--reduction {mode} prints fingerprint",
              "fingerprint" in p.stdout, p)

    for engine in ("auto", "root"):
        p = run("sweep", "--seed", "3", "--per-lib", "1", "--workers", "1",
                "--max-execs", "2000", "--lib", "ms_queue",
                "--engine", engine)
        check(f"--engine {engine} accepted", p.returncode == 0, p)

    # --- three-valued verdict ---------------------------------------------
    # A scenario whose tree hits --max-execs was not fully checked: the
    # sweep must say so instead of calling the run clean. The exit code
    # stays 0 (no violation was found).
    trunc = ("sweep", "--seed", "1", "--per-lib", "6", "--lib", "ms_queue",
             "--max-execs", "2000")
    p = run(*trunc)
    check("truncated sweep exits 0", p.returncode == 0, p)
    check("truncated sweep is reported unverified, not clean",
          "truncated: unverified)" in p.stdout
          and "exhaustive" not in p.stdout, p)
    for name, args, verdict in (
            ("truncated", trunc, "unverified"),
            ("exhaustive", ("sweep", "--seed", "3", "--per-lib", "1",
                            "--lib", "ms_queue"), "clean")):
        p = run(*args, "--json")
        rep = json.loads(p.stdout) if p.returncode == 0 else {}
        truncated = sum(lib["truncated"] for lib in rep.get("libs", []))
        check(f"{name} sweep json verdict",
              rep.get("verdict") == verdict
              and rep.get("truncated") == truncated
              and (truncated > 0) == (verdict == "unverified"), p)

    # A sweep cut short by its time budget (exit 3) checked only part of
    # its scenarios: neither run_end nor the report may call it clean.
    with tempfile.TemporaryDirectory() as td:
        telem = os.path.join(td, "t.jsonl")
        p = run("sweep", "--seed", "1", "--per-lib", "20", "--time-budget",
                "0.2", "--checkpoint", os.path.join(td, "t.ckpt"),
                "--telemetry", telem)
        with open(telem) as f:
            ends = [r for r in map(json.loads, f) if r["kind"] == "run_end"]
        check("interrupted run_end is unverified, not clean",
              p.returncode == 3 and len(ends) == 1 and ends[0]["interrupted"]
              and ends[0]["verdict"] == "unverified", p)
        rp = subprocess.run([sys.executable, REPORT, telem],
                            capture_output=True, text=True, timeout=60)
        check("telemetry report calls the interrupted run unverified",
              "interrupted (unverified)" in rp.stdout, rp)

    # --- resume-mismatch contract -----------------------------------------
    # A checkpoint's executed share is tied to the reduction mode and engine
    # path that produced it. Produce a cadence checkpoint under explicit
    # --reduction none / --engine auto, then resume with a contradicting
    # mode: exit 2 with a diagnostic naming both modes. Resuming without
    # the flags adopts the recorded modes and completes.
    with tempfile.TemporaryDirectory() as td:
        ckpt = os.path.join(td, "sweep.ckpt")
        p = run("sweep", "--seed", "3", "--per-lib", "1", "--workers", "1",
                "--max-execs", "2000", "--lib", "ms_queue",
                "--reduction", "none", "--engine", "auto",
                "--checkpoint", ckpt, "--checkpoint-every", "50")
        check("checkpointed sweep runs", p.returncode == 0, p)
        check("cadence checkpoint written", os.path.exists(ckpt), p)
        if os.path.exists(ckpt):
            p = run("sweep", "--resume", ckpt, "--reduction", "source")
            check("resume reduction mismatch exits 2",
                  p.returncode == 2 and "contradicts" in p.stderr, p)
            p = run("sweep", "--resume", ckpt, "--engine", "root")
            check("resume engine mismatch exits 2",
                  p.returncode == 2 and "contradicts" in p.stderr, p)
            # A checkpoint recorded under the removed sleep mode is
            # rejected with a clean diagnostic, never resumed as another
            # mode.
            with open(ckpt) as f:
                text = f.read()
            sleep_ckpt = os.path.join(td, "sleep.ckpt")
            with open(sleep_ckpt, "w") as f:
                f.write(text.replace(" none auto\n", " sleep auto\n", 1))
            p = run("sweep", "--resume", sleep_ckpt)
            check("sleep-mode checkpoint rejected on resume",
                  p.returncode == 2
                  and "unknown reduction 'sleep'" in p.stderr, p)
            p = run("sweep", "--resume", ckpt)
            check("resume without mode flags completes", p.returncode == 0, p)

    if failures:
        print(f"\ncli_test FAILED: {len(failures)} check(s)")
        return 1
    print("\ncli_test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
