#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/bench.ml).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the repository root. It builds perfbench/bench.exe with dune,
runs it once, and passes its standard output through: the last line is the
result JSON ({"correct", "attempted", "failed", "metrics"}).

Determinism guard: every run's exact work counters (the bench's "WORK" line)
and its ops_per_s go to perfbench/.ledger/runs.jsonl, keyed by workload,
seed, seconds and a digest of the built binary. A run whose counters differ
from an earlier run with the same key is flagged on stderr (allocation
counts are compared only between runs with the same trace flag, and to one
part in a thousand), so a reviewer can tell machine noise from a change in
the work done.

Tracing overhead: a --trace 1 run adds trace.overhead_pct, its ops_per_s
against the median untraced run with the same key in the ledger; when there
is none yet, that untraced run is made first (its result goes to stderr).
"""

import argparse
import hashlib
import json
import os
import statistics
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("verify_zones", "reverify_store", "serve_udp")
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
LEDGER = os.path.join("perfbench", ".ledger", "runs.jsonl")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dune():
    """The dune command: on PATH, in the active opam switch, or via opam."""
    if shutil.which("dune"):
        return ["dune"]
    switch = os.environ.get("OPAM_SWITCH_PREFIX", "")
    if switch and os.path.isfile(os.path.join(switch, "bin", "dune")):
        return [os.path.join(switch, "bin", "dune")]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found")


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root (no dune-project or lib/ here)", 2)
    # The dune cache lives outside the repository; keep every write here.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            dune() + ["build", "--root", ".", "--profile", "release",
                      "./perfbench/bench.exe"],
            stdout=sys.stderr, env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed (dune exit %d)" % r.returncode)


def ledger(key):
    """Earlier ledger entries for key = [workload, seed, seconds, binary]."""
    found = []
    if os.path.exists(LEDGER):
        with open(LEDGER) as f:
            for line in f:
                try:
                    e = json.loads(line)
                except ValueError:
                    continue
                if e.get("key") == key:
                    found.append(e)
    return found


def run_bench(a, trace):
    """One bench process; returns (stdout lines, result, work, ops_per_s)."""
    # Its own process group, so a timeout also stops the server process
    # the serve_udp workload forks.
    try:
        p = subprocess.Popen(
            [EXE, "--workload", a.workload, "--seed", str(a.seed),
             "--seconds", str(a.seconds), "--trace", trace],
            stdout=subprocess.PIPE, text=True, start_new_session=True)
    except OSError as e:
        fail("benchmark run failed: %s" % e)
    try:
        out, _ = p.communicate(timeout=175)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("benchmark run timed out")
    if p.returncode != 0:
        fail("benchmark exited with code %d" % p.returncode)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        work = [json.loads(l[len("WORK "):]) for l in lines
                if l.startswith("WORK ")][0]
    except (IndexError, ValueError):
        fail("benchmark printed no result line")
    if set(result) != RESULT_KEYS:
        fail("result line has keys %s" % sorted(result))
    m = result["metrics"]
    ops = m["ops_per_s" if trace == "0" else "trace.ops_per_s"]["value"]
    counters = {k: v for k, v in work.items()
                if k not in ("workload", "seed", "seconds", "trace")}
    return lines, result, counters, ops


def differs(k, a, b):
    """Whether counter k disagrees between two runs. Allocation may differ
    by up to a few words per solver check, well under a part per thousand:
    the solver's timing histogram allocates for a check only when its
    measured duration is positive."""
    if k.startswith("gc.") and a is not None and b is not None:
        return abs(int(a) - int(b)) > int(a) // 1000
    return a != b


def record(key, trace, counters, ops):
    """Flag disagreement with earlier same-key runs, then append."""
    for prev in ledger(key):
        same_trace = prev["trace"] == trace
        diff = sorted(k for k in set(prev["work"]) | set(counters)
                      if (same_trace or not k.startswith("gc."))
                      and differs(k, prev["work"].get(k), counters.get(k)))
        if diff:
            print("perfbench: DETERMINISM: runs of %s did different work: %s"
                  % (key, ", ".join("%s %s -> %s" % (
                      k, prev["work"].get(k), counters.get(k)) for k in diff)),
                  file=sys.stderr)
            break
    os.makedirs(os.path.dirname(LEDGER), exist_ok=True)
    with open(LEDGER, "a") as f:
        f.write(json.dumps({"key": key, "trace": trace, "work": counters,
                            "ops_per_s": ops}) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1", 2)
    build()
    with open(EXE, "rb") as f:
        key = [a.workload, a.seed, a.seconds,
               hashlib.sha256(f.read()).hexdigest()[:16]]
    if a.trace == "1" and not any(e["trace"] == "0" for e in ledger(key)):
        lines, _, counters, ops = run_bench(a, "0")
        print("perfbench: untraced run for the overhead: " + lines[-1],
              file=sys.stderr)
        record(key, "0", counters, ops)
    lines, result, counters, ops = run_bench(a, a.trace)
    record(key, a.trace, counters, ops)
    if a.trace == "1":
        base = [e["ops_per_s"] for e in ledger(key) if e["trace"] == "0"]
        result["metrics"]["trace.overhead_pct"] = {
            "value": 100.0 * (statistics.median(base) / ops - 1.0),
            "unit": "%"}
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
