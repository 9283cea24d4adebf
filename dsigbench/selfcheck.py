#!/usr/bin/env python3
"""Self-check of the dsig benchmark, at tiny scale (about a minute).

    python3 dsigbench/selfcheck.py

Run from the root of a checkout. It checks that:
  * every workload runs in both modes and prints exactly the metrics
    BENCHMARK.json names, every end-to-end metric nonzero;
  * each traced run measures every per-layer metric that predictions.json
    expects to move on that workload;
  * a deliberately falsified answer (--falsify) trips the oracle gate: the
    run exits nonzero and reports "correct": false;
  * predictions.json covers every per-layer metric;
  * in a directory holding only BENCHMARK.json and the benchmark, the command
    fails fast without printing a result.
Exits nonzero if any check fails.
"""
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paged_cold", "hot_labels", "serve_mixed")

failures = []


def check(ok, what):
    print("%s %s" % ("PASS" if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, extra=(), cwd=ROOT):
    cmd = [sys.executable, os.path.join("dsigbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "2",
           "--trace", str(trace), "--scale", "tiny"] + list(extra)
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().split("\n") if p.stdout.strip() else []
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    unmeasured = []
    for line in lines:
        if line.startswith("DSIGBENCH_UNMEASURED "):
            unmeasured = json.loads(line.split(" ", 1)[1])
    return p.returncode, result, unmeasured, p.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    with open(os.path.join(HERE, "predictions.json")) as f:
        predictions = json.load(f)["per_layer"]
    check(sorted(predictions) == sorted(per_layer),
          "predictions.json names exactly the per-layer metrics")
    known = set(e2e) | set(per_layer)
    check(all(set(p["moves"]) <= known and
              set(p["workloads"]) <= set(WORKLOADS)
              for p in predictions.values()),
          "predictions.json cites only known metrics and workloads")

    for workload in WORKLOADS:
        for trace, names in ((0, e2e), (1, per_layer)):
            rc, result, unmeasured, err = run(workload, trace)
            ok = rc == 0 and result is not None and result["correct"]
            check(ok, "%s trace=%d runs and passes its oracle" % (workload, trace))
            if not ok:
                sys.stderr.write(err[-3000:])
                continue
            check(sorted(result["metrics"]) == sorted(names),
                  "%s trace=%d prints every named metric" % (workload, trace))
            if trace == 0:
                zero = [n for n in names if result["metrics"][n]["value"] == 0]
                check(not zero, "%s end-to-end metrics nonzero %s" % (workload, zero))
            else:
                missed = sorted(n for n in unmeasured
                                if workload in predictions[n]["workloads"])
                check(not missed, "%s measures its predicted per-layer metrics %s"
                      % (workload, missed))
        rc, result, _, _ = run(workload, 0, ["--falsify"])
        check(rc != 0 and result is not None and result["correct"] is False,
              "%s falsified answer trips the oracle gate" % workload)

    # The bare benchmark, without the sources it builds, must fail fast.
    bare = os.path.join(ROOT, ".bench_build", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    start = time.time()
    p = subprocess.run(spec["command"] + ["--workload", "paged_cold", "--seed",
                                          "1", "--seconds", "1", "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, env=env,
                       timeout=180)
    check(p.returncode != 0 and '"correct"' not in p.stdout and
          time.time() - start < 180,
          "bare benchmark directory fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
