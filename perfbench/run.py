#!/usr/bin/env python3
"""Run one workload of the benchmark and print its result.

    python3 perfbench/run.py --workload suite|fuzz|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  The script builds the
benchmark binary with dune (once, before any timing), times the
workload's set-up in nine to forty fresh processes (end-to-end runs
only), runs the workload in a private directory under
``.perfbench_tmp/`` with a hard wall-clock cap, and prints the worker's
record line followed by the result as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics":
     {"<name>": {"value": ..., "unit": ...}, ...}}

Metric names and units come from BENCHMARK.json; the worker must
report every one of them (any others go to the record line).  Every process started here is killed and
reaped, and the private directory removed, on every exit path.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
EXPECTED = os.path.join(HERE, "expected_suite.json")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

BUILD_CAP_S = 850
RUN_CAP_S = 170  # everything after the build, set-up probes included
# set-up is timed at least SETUP_MIN times and for at least SETUP_SPAN_S
# seconds (a quick set-up takes more samples), at most SETUP_MAX times
SETUP_MIN = 9
SETUP_MAX = 40
SETUP_SPAN_S = 1.0


class Failed(Exception):
    """A loud failure: reported on stderr, exit code 1, no result."""


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise Failed("not a source checkout: %s is missing" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            cwd=ROOT, env=env, timeout=BUILD_CAP_S,
            stdout=sys.stderr, stderr=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise Failed("build failed: %s" % e)
    if done.returncode != 0 or not os.path.exists(EXE):
        raise Failed("build failed (exit %d)" % done.returncode)


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


class Procs:
    """Worker processes, each the leader of its own process group, so
    that a daemon a worker spawned dies with it."""

    def __init__(self):
        self.groups = []

    def start(self, argv, cwd, stdout):
        p = subprocess.Popen(argv, cwd=cwd, stdout=stdout,
                             stderr=sys.stderr, start_new_session=True)
        self.groups.append(p)
        return p

    def reap_all(self):
        for p in self.groups:
            try:
                os.killpg(p.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
            # wait for the rest of the group (a spawned daemon) to go
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                try:
                    os.killpg(p.pid, 0)
                except (ProcessLookupError, PermissionError):
                    break
                time.sleep(0.02)
        self.groups = []


def run_capped(procs, argv, cwd, deadline, what):
    left = deadline - time.monotonic()
    if left <= 0:
        raise Failed("wall-clock cap reached before %s" % what)
    p = procs.start(argv, cwd, subprocess.PIPE)
    try:
        out, _ = p.communicate(timeout=left)
    except subprocess.TimeoutExpired:
        procs.reap_all()
        raise Failed("%s exceeded the %d s wall-clock cap" % (what, RUN_CAP_S))
    procs.reap_all()
    if p.returncode != 0:
        raise Failed("%s exited with %d" % (what, p.returncode))
    return out.decode()


def setup_seconds(procs, args, tmp, deadline):
    times = []
    while len(times) < SETUP_MAX and (len(times) < SETUP_MIN
                                      or sum(times) < SETUP_SPAN_S):
        d = os.path.join(tmp, "setup-%d" % len(times))
        os.mkdir(d)
        t0 = time.perf_counter()
        run_capped(procs, [EXE, "setup", "--workload", args.workload,
                           "--seed", str(args.seed), "--expected", EXPECTED],
                   d, deadline, "set-up")
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["suite", "fuzz", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    os.chdir(ROOT)
    # a terminating signal unwinds through the cleanup below
    for sig in (signal.SIGTERM, signal.SIGHUP, signal.SIGINT):
        signal.signal(sig, lambda s, f: sys.exit(128 + s))

    build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}

    deadline = time.monotonic() + RUN_CAP_S
    procs = Procs()
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed),
                           dir=TMP_ROOT)
    try:
        metrics = {}
        if not args.trace:
            metrics["setup_s"] = setup_seconds(procs, args, tmp, deadline)
        work = os.path.join(tmp, "run")
        os.mkdir(work)
        out = run_capped(
            procs,
            [EXE, "run", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--expected", EXPECTED, "--commit", commit()],
            work, deadline, "the %s workload" % args.workload)
        lines = out.strip().splitlines()
        if not lines:
            raise Failed("the worker printed nothing")
        res = json.loads(lines[-1])
        metrics.update(res["metrics"])
        missing = sorted(set(units) - set(metrics))
        if missing:
            raise Failed("the worker did not report %s" % missing)
        record = res["record"]
        # what BENCHMARK.json does not list stays in the record
        record["other_metrics"] = {k: v for k, v in metrics.items()
                                   if k not in units}
        print(json.dumps({"record": record}))
        print(json.dumps({
            "correct": res["correct"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units},
        }), flush=True)
    finally:
        procs.reap_all()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass


if __name__ == "__main__":
    try:
        main()
    except Failed as e:
        log(str(e))
        sys.exit(1)
