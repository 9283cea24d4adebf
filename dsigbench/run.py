#!/usr/bin/env python3
"""Runs one workload of the dsig benchmark and prints its result.

    python3 dsigbench/run.py --workload paged_cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds the
benchmark package (dsigbench/CMakeLists.txt: the dsig libraries, the real
dsig_serve binary and the C++ driver) under $CARGO_TARGET_DIR, default
.bench_build; later runs only re-check the build. The driver then runs the
workload, checks its answers against a Dijkstra oracle, and reports every
metric it measured. BENCHMARK.json is the one list of metrics: this wrapper
keeps the mode's set (end_to_end with --trace 0, per_layer with --trace 1),
adds their units, prints them as a table and ends with the result line. A
per-layer metric the workload does not exercise reports 0 and is named on a
DSIGBENCH_UNMEASURED line; an end-to-end metric the driver did not report,
or a name BENCHMARK.json does not know, is an error.

Exit codes: 0 ok; 1 build failure, driver failure or an oracle/durability
mismatch; 3 a result that does not match BENCHMARK.json; 4 timeout.
Extra flags for the self-check (selfcheck.py): --scale tiny, --falsify.
"""
import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paged_cold", "hot_labels", "serve_mixed")
# A run must end within 180 s once built; keep a margin.
DRIVER_TIMEOUT_S = 170


def log(msg):
    sys.stderr.write("dsigbench: %s\n" % msg)
    sys.stderr.flush()


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return target


def build(build_dir):
    """Configures (once) and builds the driver and dsig_serve; False on error."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        # A tree configured for another checkout location cannot be reused.
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                shutil.rmtree(build_dir)
    # Keep the compilers' temporary files inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            # A half-configured tree would be mistaken for a good one next run.
            try:
                os.remove(cache)
            except FileNotFoundError:
                pass
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target",
                   "dsigbench_driver", "dsig_serve"]
    return subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode == 0


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def make_result(line, trace):
    """Turns the driver's result line into the mode's result.

    Returns (result, table lines, unmeasured names, None) or
    (None, None, None, reason)."""
    try:
        raw = json.loads(line)
    except ValueError:
        return None, None, None, "last line is not JSON"
    if not isinstance(raw, dict) or set(raw) != {
            "correct", "attempted", "failed", "metrics"}:
        return None, None, None, "driver result keys differ"
    if not isinstance(raw["attempted"], int) or raw["attempted"] < 1:
        return None, None, None, "attempted must be a whole number >= 1"
    spec = load_spec()
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(raw["metrics"]) - known)
    if unknown:
        return None, None, None, "metrics BENCHMARK.json does not name: %s" % unknown
    metrics, table, unmeasured = {}, [], []
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if not trace:
                return None, None, None, "%s not reported" % m["name"]
            got = {"value": 0, "samples": 0, "note": "not exercised"}
            unmeasured.append(m["name"])
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return None, None, None, "%s: value %r is not a finite number" % (
                m["name"], value)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        table.append("  %-42s %16.6g %-6s samples=%-8d %s" % (
            m["name"], value, m["unit"], got["samples"], got["note"]))
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    return result, table, unmeasured, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--falsify", action="store_true")
    args = parser.parse_args()

    build_dir = os.path.join(build_root(), "dsigbench")
    if not build(build_dir):
        log("build failed")
        return 1
    work_dir = os.path.join(build_root(), "dsigbench-work")
    os.makedirs(work_dir, exist_ok=True)

    cmd = [os.path.join(build_dir, "dsigbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--work-dir", work_dir]
    if args.falsify:
        cmd.append("--falsify")
    # Own session, so a timeout can take down the driver together with any
    # dsig_serve it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("driver exceeded %d s; killed" % DRIVER_TIMEOUT_S)
        return 4

    lines = out.rstrip("\n").split("\n") if out.strip() else []
    for line in lines[:-1]:
        print(line)
    if not lines:
        log("driver exited with %d and no output" % proc.returncode)
        return 1 if proc.returncode else 3
    result, table, unmeasured, problem = make_result(lines[-1], args.trace)
    if problem:
        log("bad result: " + problem)
        return 1 if proc.returncode else 3
    print("%s metrics (%s):" % (args.workload, "per-layer, traced run"
                                if args.trace else "end-to-end"))
    print("\n".join(table))
    if args.trace:
        print("DSIGBENCH_UNMEASURED %s" % json.dumps(unmeasured))
    print(json.dumps(result))
    if proc.returncode != 0:
        log("driver exited with %d" % proc.returncode)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
