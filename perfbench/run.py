#!/usr/bin/env python3
"""The repository benchmark: one command, one workload per call.

    python3 perfbench/run.py --workload svc_open_hix --seed 24149 \\
        --seconds 10 --trace 0

Run from the repository root. It builds perfbench/ (and the library
sources it compiles in) into .bench_build/perfbench, then runs the
workload in fresh processes:

  --trace 0  set-up is sampled in SETUP_SAMPLES fresh processes (process
             start to the end of one cold pass; the median is setup_s),
             then one process measures warm passes for --seconds and
             reports the end-to-end metrics.
  --trace 1  the same warm passes, then traced passes through the
             layer decorators; reports the per-layer metrics.

Every pass is checked for correct simulated output (see README.md).
Human-readable lines start with '#'; the last stdout line is the JSON
result. Exit status is 0 only when every session was correct.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "hixbench")

WORKLOADS = ("svc_open_hix", "batch_hix_bulk", "batch_gdev_bulk")
DEFAULT_SEED = 24149
SETUP_SAMPLES = 7
RUN_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark; True on success."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    return subprocess.run(
        ["cmake", "--build", BUILD, "--target", "hixbench", "-j", jobs],
        stdout=sys.stderr).returncode == 0


def run_binary(args):
    """Run hixbench; returns (exit code, parsed last stdout line)."""
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 1, None
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode or 1, None


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def reference_for(workload, seed):
    """Recorded simulated results for this workload (and seed), if any."""
    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f)[workload]
    key = "fixed" if "fixed" in ref else str(seed)
    return ref.get(key)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test size: 4 sessions per pass")
    opt = ap.parse_args()

    if not build():
        log("perfbench: build failed")
        return 1

    common = ["--workload", opt.workload, "--seed", str(opt.seed)]
    if opt.tiny:
        common.append("--tiny")
    attempted = 0
    failed = 0
    errors = []

    def account(code, res):
        nonlocal attempted, failed
        if res is None:
            errors.append("hixbench exited %d without a result" % code)
            return False
        attempted += res["attempted"]
        failed += res["failed"]
        if res["error"]:
            errors.append(res["error"])
        return code == 0

    setup = []
    ok = True
    if opt.trace == 0:
        for _ in range(SETUP_SAMPLES - 1):
            start = time.monotonic()
            code, res = run_binary(common + ["--setup-only"])
            ok = account(code, res) and ok
            if res is not None:
                setup.append(res["setup_end_s"] - start)
    spans = os.path.join(BUILD, "spans-%s.json" % opt.workload)
    start = time.monotonic()
    code, res = run_binary(common + [
        "--seconds", str(opt.seconds), "--trace", str(opt.trace),
        "--spans", spans])
    ok = account(code, res) and ok
    if res is None:
        log("perfbench: " + "; ".join(errors))
        return 1
    setup.append(res["setup_end_s"] - start)

    ref = None if opt.tiny else reference_for(opt.workload, opt.seed)
    if ref is not None and res["observed"] != ref:
        errors.append("simulated results differ from reference.json")
        failed = attempted
    if opt.trace and res["traced_observed"] != res["observed"]:
        errors.append("traced pass differs from untraced pass")
        failed = attempted
    correct = ok and failed == 0 and not errors

    sessions = res["sessions_per_pass"]
    rates = [sessions / (ms / 1000.0) for ms in res["pass_ms"]]
    if not rates:  # the cold pass failed, so nothing was measured
        log("perfbench: " + "; ".join(errors))
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    q1, q3 = quartiles(rates)
    batch = opt.workload != "svc_open_hix"
    header = dict(res["header"])
    header.update({
        "git_sha": git_sha(),
        "workload": opt.workload,
        "seed": opt.seed,
        "inputs": ("fixed: Rodinia inputs are seeded inside src/workloads;"
                   " --seed is not used") if batch else
                  "open-loop session stream drawn from --seed",
        "sessions_per_pass": sessions,
        "users_per_app": (1 if opt.tiny else 4) if batch else None,
        "warm_passes": len(res["pass_ms"]),
        "traced_passes": len(res["traced_pass_ms"]),
        "setup_samples": len(setup),
    })
    print("# header " + json.dumps(header))
    print("# check " + json.dumps({
        "observed": res["observed"],
        "reference": "matched" if ref is not None and
        res["observed"] == ref else ("none" if ref is None else "MISMATCH"),
        "traced_observed": res["traced_observed"] if opt.trace else None,
        "errors": errors}))
    print("# sessions_per_s median %.4f q1 %.4f q3 %.4f n=%d passes"
          % (statistics.median(rates), q1, q3, len(rates)))
    print("# setup_s samples " + " ".join("%.4f" % s for s in setup))
    print("# failed_frac %d/%d" % (failed, attempted))

    if opt.trace:
        metrics = res["layers"]
    else:
        metrics = {
            "sessions_per_s": {"value": statistics.median(rates),
                               "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
