#!/usr/bin/env python3
"""Time-to-cap benchmark runner.

Builds the benchmark (and the dpc library from the checkout's src/)
with CMake, then runs one workload:

    python3 ttcbench/run.py --workload cold_start --seed 1 --seconds 10 --trace 0

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}.  Other modes:

    --self-check                 unit tests, then every workload on two seeds
                                 and traced on the first
    --spread WORKLOAD --seeds N [--first-seed K]
                                 quartile spread of each end-to-end metric
                                 over seeds K .. K+N-1 (K defaults to 1)
    --compare A.json B.json      compare two reports (refuses on a
                                 fingerprint mismatch)
    --findings                   re-measure the findings in NOTES.md

Reports (with the host/build fingerprint and every failed event) go to
<build>/reports/, span logs of traced runs to <build>/spans/.  The build
directory is $CARGO_TARGET_DIR (default .bench_build) under the checkout.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_start", "demand_response", "job_churn", "sharded_cold")
# Fingerprint fields naming the code measured; every other field must
# match for two results to be compared.
SOURCE_KEYS = ("git_sha", "src_digest")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d, "ttcbench")


def build():
    """Configure once, then (re)build; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no dpc sources at %s/src: run from a repository checkout"
             % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                fail("configure failed, see " + log_path, 1)
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.call(["cmake", "--build", out, "-j", jobs],
                           stdout=log, stderr=log) != 0:
            fail("build failed, see " + log_path, 1)
    return out


def run_ttc(out, args, echo=True):
    """Runs ttc; returns (exit code, stdout lines)."""
    proc = subprocess.Popen([os.path.join(out, "ttc")] + args,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("ttc did not finish within %d s" % RUN_TIMEOUT_S, 1)
    if echo:
        sys.stdout.write(stdout)
        sys.stdout.flush()
    return proc.returncode, stdout.splitlines()


def result_of(lines):
    """The result object on the last line, or None."""
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return res if isinstance(res, dict) and set(res) == keys else None


def run_workload(out, workload, seed, seconds, trace, echo=True):
    reports = os.path.join(out, "reports")
    os.makedirs(reports, exist_ok=True)
    report = os.path.join(reports, "%s-seed%d-trace%d.json"
                          % (workload, seed, trace))
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace),
            "--repo", ROOT, "--report", report]
    if trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans", os.path.join(spans, workload + ".tsv")]
    code, lines = run_ttc(out, args, echo)
    res = result_of(lines)
    if code != 0 or res is None:
        fail("ttc %s seed %d failed (exit %d)" % (workload, seed, code), 1)
    return res, report


def fingerprint_mismatch(a, b):
    """First host/build field on which two fingerprints differ, or None."""
    for key in sorted(set(a) | set(b)):
        if key not in SOURCE_KEYS and a.get(key) != b.get(key):
            return "%s: %r vs %r" % (key, a.get(key), b.get(key))
    return None


def load_report(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read report %s: %s" % (path, e))


def compare(path_a, path_b):
    a, b = load_report(path_a), load_report(path_b)
    why = fingerprint_mismatch(a["fingerprint"], b["fingerprint"])
    if why:
        fail("refusing to compare results from different hosts or "
             "builds (%s)" % why, 3)
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        fail("refusing to compare different workloads or trace modes", 3)
    print("%-34s %14s %14s %9s" % ("metric", "A", "B", "B/A"))
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print("%-34s %14.6g %14.6g %9.4f %s"
              % (name, ma["value"], mb["value"], ratio, ma["unit"]))


def spread(out, workload, seeds, seconds, first_seed=1):
    """Per end-to-end metric: median and (Q3 - Q1) / median over seeds."""
    bounds = {}
    spec = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec):
        with open(spec) as f:
            bounds = {m["name"]: m["bound"]
                      for m in json.load(f)["end_to_end"]}
    values = {}
    for seed in range(first_seed, first_seed + seeds):
        res, _ = run_workload(out, workload, seed, seconds, 0, echo=False)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: failed %d of %d" % (seed, res["failed"],
                                            res["attempted"]))
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4)
        rel = (q[2] - q[0]) / med if med else float("inf")
        bound = bounds.get(name)
        print("%-26s median %12.6g  spread %.4f  bound %s%s"
              % (name, med, rel, bound,
                 "" if bound is None or rel < bound / 3 else "  <-- wide"))
        print("    " + " ".join("%.6g" % v for v in vs))


def self_check(out, seconds):
    """Unit tests, then each workload on two seeds and traced on the
    first (whose events' child spans must cover them within the
    stated slack)."""
    if subprocess.call(["ctest", "--test-dir", out, "--no-tests=error",
                        "--output-on-failure"]) != 0:
        fail("benchmark unit tests failed", 1)
    if subprocess.call([sys.executable, "-m", "unittest", "-q",
                        "test_run"], cwd=HERE) != 0:
        fail("runner unit tests failed", 1)
    problems = []
    for workload in WORKLOADS:
        reports = []
        for seed in (1, 2):
            res, report = run_workload(out, workload, seed, seconds, 0,
                                       echo=False)
            with open(report) as f:
                reports.append(json.load(f))
            print("%-16s seed %d: correct=%s failed %d of %d"
                  % (workload, seed, res["correct"], res["failed"],
                     res["attempted"]))
            if not res["correct"]:
                problems.append("%s seed %d: %s" % (
                    workload, seed, reports[-1]["failures"]))
        res, _ = run_workload(out, workload, 1, seconds, 1, echo=False)
        over = res["metrics"]["trace.events_over_slack"]["value"]
        print("%-16s seed 1 traced: correct=%s, %d events over the "
              "coverage slack" % (workload, res["correct"], over))
        if not res["correct"] or over > 0:
            problems.append("%s seed 1 traced: correct=%s, %d events "
                            "over the coverage slack"
                            % (workload, res["correct"], over))
        if reports[0]["inputs"] == reports[1]["inputs"]:
            problems.append(workload + ": seeds 1 and 2 gave the same "
                            "inputs")
        why = fingerprint_mismatch(reports[0]["fingerprint"],
                                   reports[1]["fingerprint"])
        if why:
            problems.append(workload + ": fingerprints differ: " + why)
    for p in problems:
        print("SELF-CHECK: " + p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--spread", metavar="WORKLOAD", choices=WORKLOADS)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--compare", nargs=2, metavar="REPORT")
    ap.add_argument("--findings", action="store_true")
    a = ap.parse_args()

    if a.compare:
        compare(*a.compare)
        return 0
    out = build()
    if a.self_check:
        return self_check(out, a.seconds)
    if a.spread:
        spread(out, a.spread, a.seeds, a.seconds, a.first_seed)
        return 0
    if a.findings:
        return run_ttc(out, ["--findings"])[0]
    if not a.workload:
        fail("--workload is required")
    if a.seed < 0:
        fail("--seed must be non-negative")
    run_workload(out, a.workload, a.seed, a.seconds, a.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
