#!/usr/bin/env python3
"""End-to-end benchmark of the hyperproteome analyses.

Run from the repository root:

    python3 perfbench/run.py --workload cold_1m|serve_hot|mutate_stream \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --self-test

The first call builds perfbench/ (and, through it, the repository's
libraries, the `hyperproteome` CLI and `hp_trace_check`) into
.bench_build/perfbench. Each run prints a human-readable report with
its provenance, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. A traced run's Chrome trace must
pass hp_trace_check. See perfbench/README.md for the workloads and what
each metric means.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
RUN_DIR = ".bench_run"
WORKLOADS = ("cold_1m", "serve_hot", "mutate_stream")
RUN_TIMEOUT_S = 170

# The workload-specific end-to-end metrics; `--workload all` prints them
# for every workload.
NAMED = {
    "cold_1m": ["cold_stats_s", "cold_text_stats_s", "cold_core_s",
                "cold_soverlap_s", "cold_cover_s", "miss_stats_s"],
    "serve_hot": ["query_mean_us", "query_p50_us", "query_p90_us",
                  "query_p99_us", "slo_rps"],
    "mutate_stream": ["update_mean_ms", "update_p50_ms", "update_p90_ms"],
}
# Root span every traced run of a workload must contain.
ROOT_SPAN = {"cold_1m": "op.stats_hps", "serve_hot": "op.request",
             "mutate_stream": "op.batch"}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure once and build hp_perfbench; nonzero exit on failure."""
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    with open(build_log, "w") as out:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            code = subprocess.call(
                ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=out, stderr=subprocess.STDOUT)
            if code != 0:
                return code, build_log
        code = subprocess.call(
            ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
             "--target", "hp_perfbench"],
            stdout=out, stderr=subprocess.STDOUT)
    return code, build_log


def revision():
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except OSError:
        pass
    # Not a git checkout: hash the sources the benchmark builds instead.
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "tests", "examples", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_once(workload, seed, seconds, trace, extra=()):
    """One hp_perfbench run; returns its document (plus trace check)."""
    work = os.path.join(RUN_DIR, workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    trace_path = os.path.join(work, "trace.json")
    bin_dir = os.path.join(BUILD, "hyperproteome", "src")
    cmd = [os.path.join(BUILD, "hp_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--bin-dir", os.path.join(bin_dir, "cli"), "--work-dir", work]
    if trace:
        cmd += ["--trace-out", trace_path]
    proc = subprocess.run(cmd + list(extra), capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError("hp_perfbench failed: " + proc.stderr.strip())
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if trace:
        check = subprocess.run(
            [os.path.join(bin_dir, "obs", "hp_trace_check"), trace_path,
             "--require-span", ROOT_SPAN[workload]],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        doc["provenance"]["hp_trace_check"] = " / ".join(
            check.stdout.strip().splitlines())
        if check.returncode != 0:
            doc["correct"] = False
            doc["failures"].append("trace rejected by hp_trace_check")
    shutil.rmtree(work, ignore_errors=True)
    return doc


def report(doc, metrics, title):
    attempted = max(doc["attempted"], 1)
    print("== %s" % title)
    for key in sorted(doc["provenance"]):
        print("  %-28s %s" % (key, doc["provenance"][key]))
    for name, metric in metrics.items():
        print("  %-28s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print("  %-28s %14.6g (%d failed of %d attempted)" % (
        "failed_frac", doc["failed"] / attempted, doc["failed"], doc["attempted"]))
    for failure in doc["failures"]:
        print("  FAILURE: %s" % failure)


def select(doc, wanted, source):
    """The declared metrics, in declaration order; a missing one marks
    the run incorrect rather than being reported as 0."""
    out = {}
    for name, unit in wanted.items():
        metric = doc[source].get(name)
        if metric is None or metric["unit"] != unit:
            doc["correct"] = False
            doc["failures"].append("metric %s missing or not in %s" % (name, unit))
            continue
        out[name] = metric
    return out


def final_line(doc, metrics):
    return json.dumps({"correct": bool(doc["correct"]) and doc["failed"] == 0,
                       "attempted": doc["attempted"], "failed": doc["failed"],
                       "metrics": metrics})


def single(args):
    end_to_end, per_layer = declared_metrics()
    doc = run_once(args.workload, args.seed, args.seconds, args.trace)
    doc["provenance"]["git_revision"] = revision()
    metrics = select(doc, per_layer if args.trace else end_to_end,
                     "layers" if args.trace else "uniform")
    report(doc, {**metrics, **(doc["named"] if not args.trace else {})},
           "%s seed %d trace %d" % (args.workload, args.seed, args.trace))
    print(final_line(doc, metrics))
    return 0


def run_all(args):
    """Every workload in turn; prints the workload-specific metrics by
    their own names with the summed answer counts."""
    rev = revision()
    named, total = {}, {"correct": True, "attempted": 0, "failed": 0}
    for workload in WORKLOADS:
        doc = run_once(workload, args.seed, args.seconds, args.trace)
        doc["provenance"]["git_revision"] = rev
        report(doc, doc["layers"] if args.trace else doc["named"],
               "%s seed %d" % (workload, args.seed))
        for name in NAMED[workload] + ["setup_s", "peak_rss_mb"]:
            if not args.trace:
                key = name if name in NAMED[workload] else "%s.%s" % (workload, name)
                named[key] = doc["named"][name]
        total["correct"] &= bool(doc["correct"])
        total["attempted"] += doc["attempted"]
        total["failed"] += doc["failed"]
    named["failed_frac"] = {"value": total["failed"] / max(total["attempted"], 1),
                            "unit": "ratio"}
    print(final_line(total, named))
    return 0


def self_test():
    """Tiny runs: every declared metric appears with its unit, every
    trace passes hp_trace_check, and an injected wrong answer is counted."""
    end_to_end, per_layer = declared_metrics()
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            doc = run_once(workload, 1, 2, trace, ["--tiny"])
            wanted, source = (per_layer, "layers") if trace else (end_to_end, "uniform")
            select(doc, wanted, source)
            if not doc["correct"] or doc["failed"] != 0 or doc["attempted"] < 1:
                problems.append("%s trace %d: %s" % (workload, trace, doc["failures"]))
        faulty = run_once(workload, 1, 2, 0, ["--tiny", "--inject-fault"])
        if faulty["failed"] == 0:
            problems.append("%s: injected wrong answer not counted" % workload)
        log("self-test %s: %s" % (workload, "ok" if not problems else problems))
    print(json.dumps({"self_test": "pass" if not problems else "fail",
                      "problems": problems}))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload or --self-test is required")

    code, build_log = build()
    if code != 0:
        with open(build_log) as handle:
            log(handle.read()[-4000:])
        log("perfbench: build failed")
        return 1
    try:
        if args.self_test:
            return self_test()
        if args.workload == "all":
            return run_all(args)
        return single(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as error:
        log("perfbench: %s" % error)
        return 1


if __name__ == "__main__":
    sys.exit(main())
