#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke_test.py

Run from the repository root. For each workload, at 4 sessions per
pass, it runs run.py untraced and traced and checks that:

  - the last stdout line is the result object with exactly the keys
    correct, attempted, failed and metrics, and the run was correct;
  - every end-to-end metric (untraced) and every per-layer metric
    (traced) named in BENCHMARK.json is printed with its unit;
  - the traced pass, run through the Workload/GpuApi decorators, gives
    the same trace digests and ticks as the undecorated passes.

It also checks that the benchmark fails, without printing a result,
when the library sources are missing. Exits 0 when all checks pass.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines()


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)
        return cond

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in (("0", spec["end_to_end"]),
                              ("1", spec["per_layer"])):
            tag = "%s --trace %s" % (workload, trace)
            code, lines = run(["--workload", workload, "--seed", "3",
                               "--seconds", "1", "--trace", trace,
                               "--tiny"])
            if not expect(code == 0 and lines, tag + ": exit %d" % code):
                continue
            result = json.loads(lines[-1])
            expect(sorted(result) ==
                   ["attempted", "correct", "failed", "metrics"],
                   tag + ": result keys " + str(sorted(result)))
            expect(result.get("correct") and result.get("failed") == 0 and
                   result.get("attempted", 0) >= 1,
                   tag + ": not correct: " + lines[-1])
            metrics = result.get("metrics", {})
            for m in wanted:
                got = metrics.get(m["name"])
                expect(got is not None and got.get("unit") == m["unit"] and
                       isinstance(got.get("value"), (int, float)),
                       "%s: metric %s missing or wrong unit: %s"
                       % (tag, m["name"], got))
            expect(len(metrics) == len(wanted),
                   tag + ": %d metrics printed, %d named"
                   % (len(metrics), len(wanted)))
            if trace == "1":
                check = next((json.loads(l[len("# check "):])
                              for l in lines if l.startswith("# check ")),
                             None)
                expect(check is not None and check["traced_observed"] ==
                       check["observed"] and check["observed"]["digests"],
                       tag + ": decorated run digest differs: %s" % check)
            print("ok  " + tag, flush=True)

    # Only BENCHMARK.json and perfbench/: the build must fail cleanly.
    bare = os.path.join(ROOT, ".bench_build", "smoke-standalone")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run(["--workload", "batch_gdev_bulk", "--seed", "1",
                       "--seconds", "1", "--trace", "0"], cwd=bare)
    expect(code != 0 and not any(l.startswith("{") for l in lines),
           "standalone copy did not fail cleanly: exit %d" % code)
    shutil.rmtree(bare, ignore_errors=True)
    print("ok  standalone copy fails without the library sources")

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
