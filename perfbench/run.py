#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench) for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-tcp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all  # every workload in turn
    python3 perfbench/run.py --selftest      # the benchmark's own tests

The recorded numbers use seed 1, the default; seed 9001 is held out for
checking a claim on inputs it was not tuned on.

The C++ benchmark is built from source into .bench_build/ (CMake, Release)
on first use. Its last line of output is one JSON object with the keys
correct, attempted, failed and metrics. This script checks the metric names
and units against BENCHMARK.json: --trace 0 must yield every end_to_end
metric, --trace 1 every per_layer metric. A per-layer metric of a layer that
is not on the workload's path (OFF_PATH) reads 0 and is listed on stderr;
any other missing metric is a malformed result. The JSON is
then printed again as the last line of stdout.

Exit codes: 0 ok, 1 a wrong result, 2 bad arguments or no source tree,
3 build failure or a malformed benchmark result.
"""
import argparse
import fnmatch
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("serve-tcp", "replay-inproc", "solve-real")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def log(msg):
    print("[run.py] " + msg, file=sys.stderr, flush=True)


def run_child(cmd, stdout=None, timeout=None):
    """Runs cmd in its own process group from the checkout root and returns
    (exit code, stdout text or None); None for the code on a timeout. On any
    way out, the whole group (a build's compilers too) is killed and waited
    for."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        return None, None
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def have_source_tree():
    return (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "net", "server.h")))


def build(target):
    """Configures (once) and builds `target`; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        if run_child(cmd, stdout=sys.stderr)[0] != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


# Per-layer metrics (fnmatch patterns) whose layer is not on a workload's
# path; a traced run reports them as 0. Any other per-layer metric a
# workload does not emit is an error. trace.overhead_share.<other workload>
# is off every workload's path but its own.
SOLVE_REAL_ONLY = [
    "solve_ms.*", "nabbit.*", "nabbitc.*", "rt.steal_attempts_per_node.*",
    "rt.steal_success_ratio.*", "rt.first_steal_wait_us.*", "rt.idle_share.*",
    "scaling.*", "workloads.*",
]
OFF_PATH = {
    # The api calls, per-shape queue/exec split and compiles happen inside
    # the server (see the [unmeasured] line of a traced serve-tcp run).
    "serve-tcp": SOLVE_REAL_ONLY + [
        "api.*", "plan.compile_us.*", "plan.exec_us.*", "plan.inline_share",
        "rt.queue_wait_us.*",
    ],
    "replay-inproc": SOLVE_REAL_ONLY + ["net.*"],
    "solve-real": [
        "net.*", "api.*", "plan.*", "ledger.*", "latency_p50_us.*",
        "rt.queue_wait_us", "rt.queue_wait_us.*", "rt.steals_per_graph",
        "rt.steal_success_ratio", "rt.arena_kb",
    ],
}


def off_path(name, workload):
    if name.startswith("trace.overhead_share."):
        return name != "trace.overhead_share." + workload
    return any(fnmatch.fnmatchcase(name, p) for p in OFF_PATH[workload])


def expected_metrics(trace):
    """(name -> unit) the result must carry, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace, workload):
    """Checks names and units, and completes a traced result with the
    metrics of layers off the workload's path. Returns an error string or
    None."""
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are %s" % sorted(result)
    expected = expected_metrics(trace)
    metrics = result["metrics"]
    for name, m in metrics.items():
        if name not in expected:
            return "metric %s is not in BENCHMARK.json" % name
        if m.get("unit") != expected[name]:
            return "metric %s has unit %s, BENCHMARK.json says %s" % (
                name, m.get("unit"), expected[name])
        if trace and off_path(name, workload):
            return "metric %s is listed as off %s's path" % (name, workload)
    missing = [n for n in expected if n not in metrics]
    absent = [n for n in missing if not (trace and off_path(n, workload))]
    if absent:
        return "metrics missing: %s" % ", ".join(absent)
    if missing:
        log("%d per-layer metrics not on %s's path, reported as 0: %s"
            % (len(missing), workload, ", ".join(missing)))
        for n in missing:
            metrics[n] = {"value": 0, "unit": expected[n]}
    result["metrics"] = {n: metrics[n] for n in expected}
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests instead")
    args = ap.parse_args()

    if not have_source_tree():
        log("no nabbitc source tree at %s; the benchmark builds it from source" % ROOT)
        return 2
    if args.selftest:
        if not build("perfbench_test"):
            return 3
        return run_child([os.path.join(BUILD, "perfbench_test")])[0]
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or not 0 < args.seconds <= 60:
        ap.error("--seed must be >= 0 and 0 < --seconds <= 60")

    started = time.monotonic()
    if not build("perfbench"):
        return 3
    log("build ok after %.1fs" % (time.monotonic() - started))
    if args.workload == "all":
        return max(run_workload(w, args) for w in WORKLOADS)
    return run_workload(args.workload, args)


def run_workload(workload, args):
    """Runs one workload of the built benchmark and prints its result."""
    trace_dir = os.path.join(BUILD, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(trace_dir, "%s-seed%d.csv" % (workload, args.seed))]
    log("running " + " ".join(cmd[1:]))
    code, out = run_child(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    if code is None:
        log("perfbench did not finish within %ds" % RUN_TIMEOUT_S)
        return 3
    lines = out.splitlines()
    if code not in (0, 1) or not lines:
        log("perfbench exited %d without a result" % code)
        return 3
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        log("malformed result line: %s" % e)
        return 3
    err = check_result(result, args.trace, workload)
    if err:
        log(err)
        return 3
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # A SIGTERM unwinds through run_child, which stops the child's group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
