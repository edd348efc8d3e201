#!/usr/bin/env python3
"""End-to-end benchmark of streamcalc: analyze/certify, the serve daemon
and the live kernel stages, with a per-layer split (see README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload analyze|serve|stages --seed N \
      --seconds S --trace 0|1
  python3 perfbench/run.py --compare A.json B.json

The first run builds the benchmark (perfbench/CMakeLists.txt) into
.bench_build/. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. Each
run also writes its result with provenance to .bench_build/results/.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
RUN_DIR = os.path.join(BUILD, "run")
RESULTS = os.path.join(BUILD, "results")
WORKLOADS = ("analyze", "serve", "stages")

# Fresh processes whose set-up time is measured per run, and the share of
# the fastest of them that setup_s averages: 4 of 40 (the serve driver
# averages the fastest 4 of its 15 daemon starts).
SETUP_PROBES = 40
PROBE_SHARE = 0.1
# Share of --seconds a traced run gives its own workload; the other two
# workloads share the rest, so every per-layer metric is reported.
TRACE_OWN_SHARE = 0.5

# What each end-to-end metric means on each workload, as
# (name in README.md, unit).
MEANING = {
    "analyze": {
        "throughput_per_s": ("analyze.specs_per_s", "specs/s"),
        "secondary_per_s": ("certify.specs_per_s", "specs/s"),
        "latency_p50_us": ("analyze.spec_p50_us", "us"),
        "latency_p95_us": ("analyze.spec_p95_us", "us"),
        "secondary_p50_us": ("certify.spec_p50_us", "us"),
        "rss_mb": ("analyze.rss_mb", "MB"),
    },
    "serve": {
        "throughput_per_s": ("serve.requests_per_s", "requests/s"),
        "secondary_per_s": ("session.serial_per_s", "sessions/s"),
        "latency_p50_us": ("admit.p50_us", "us"),
        "latency_p95_us": ("admit.p95_us", "us"),
        "secondary_p50_us": ("session.p50_us", "us"),
        "rss_mb": ("serve.rss_mb", "MB"),
    },
    "stages": {
        "throughput_per_s": ("stages.bitw_chunks_per_s", "64KiB/s"),
        "secondary_per_s": ("stages.blast_chunks_per_s", "256Kbase/s"),
        "latency_p50_us": ("stages.bitw_chunk_p50_us", "us"),
        "latency_p95_us": ("stages.bitw_chunk_p95_us", "us"),
        "secondary_p50_us": ("stages.blast_chunk_p50_us", "us"),
        "rss_mb": ("stages.rss_mb", "MB"),
    },
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fatal(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


# --- build -----------------------------------------------------------------

def build():
    """Configures and builds the driver and the streamcalc CLI; returns
    (driver path, daemon path)."""
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target",
                  "perfbench_driver", "streamcalc_cli"])
    with open(build_log, "a") as out:
        for cmd in steps:
            rc = subprocess.call(cmd, cwd=ROOT, stdout=out,
                                 stderr=subprocess.STDOUT, timeout=840)
            if rc != 0:
                with open(build_log) as f:
                    tail = f.read()[-2000:]
                if cmd[1] == "-S":  # a failed configure must run again
                    cache = os.path.join(CMAKE_DIR, "CMakeCache.txt")
                    if os.path.exists(cache):
                        os.remove(cache)
                fatal("build failed (" + " ".join(cmd[:2]) + "):\n" + tail)
    return (os.path.join(CMAKE_DIR, "perfbench_driver"),
            os.path.join(CMAKE_DIR, "streamcalc"))


def cmake_cache():
    values = {}
    with open(os.path.join(CMAKE_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                values[key.split(":", 1)[0]] = value
    return values


# --- provenance ------------------------------------------------------------

def source_digest():
    """SHA-256 over the sources the benchmark builds and reads."""
    patterns = ["src/**/*", "tools/streamcalc.cpp", "examples/specs/*",
                "tests/diagnostics/specs/*", "perfbench/**/*"]
    files = set()
    for pattern in patterns:
        for path in glob.glob(os.path.join(ROOT, pattern), recursive=True):
            if os.path.isfile(path) and "__pycache__" not in path:
                files.add(os.path.relpath(path, ROOT))
    digest = hashlib.sha256()
    for rel in sorted(files):
        digest.update(rel.encode() + b"\0")
        with open(os.path.join(ROOT, rel), "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.check_output(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            stderr=subprocess.DEVNULL, text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def provenance():
    """Host, core count, build type, compiler and revision of this run.
    Refuses sanitizer and unoptimized builds."""
    cache = cmake_cache()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(cache.get(k, "") for k in (
        "CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_" + build_type.upper(),
        "CMAKE_EXE_LINKER_FLAGS"))
    if build_type not in ("Release", "RelWithDebInfo"):
        fatal("refusing to measure a %r build" % build_type)
    if "-fsanitize" in flags or "-O0" in flags.split():
        fatal("refusing to measure a sanitizer or unoptimized build: " + flags)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.check_output([compiler, "--version"], text=True)
        compiler = version.splitlines()[0]
    except (OSError, subprocess.CalledProcessError):
        pass
    return {
        "host": socket.gethostname(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "build_type": build_type,
        "cxx_flags": flags.strip(),
        "compiler": compiler,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


# --- running the driver ----------------------------------------------------

def driver_env():
    """The environment without STREAMCALC_* settings: the programs run as
    `streamcalc` does with an empty environment."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("STREAMCALC_")}


def run_driver(driver, daemon, workload, seed, seconds, trace,
               setup_only=False):
    cmd = [driver, workload, "--seed", str(seed), "--seconds",
           repr(float(seconds)), "--trace", "1" if trace else "0",
           "--root", ".", "--daemon", daemon,
           "--run-dir", os.path.relpath(RUN_DIR, ROOT)]
    if setup_only:
        cmd.append("--setup-only")
    # A session of its own, so a hung driver is killed with the daemon it
    # spawned.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=driver_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=seconds * 2 + 60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        stderr += "\ntimed out"
    lines = stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        out = {"attempted": 1, "failed": 1, "metrics": {}, "notes": {},
               "failures": ["driver exited %d: %s" % (
                   proc.returncode, stderr.strip()[-500:])]}
    out["exit_code"] = proc.returncode
    if proc.returncode != 0 and out["failed"] == 0:
        out["failed"] = 1
        out["failures"].append("driver exited %d" % proc.returncode)
    return out


def measure(args, driver, daemon):
    """Runs the workload; returns (driver outputs, metric values)."""
    outputs = []
    values = {}
    if args.trace:
        own = args.seconds * TRACE_OWN_SHARE
        other = args.seconds * (1 - TRACE_OWN_SHARE) / (len(WORKLOADS) - 1)
        # The own workload runs last, so its metrics win where the
        # workloads overlap (trace.slowdown, host.reference_us).
        for workload in sorted(WORKLOADS, key=lambda w: w == args.workload):
            own_run = workload == args.workload
            out = run_driver(driver, daemon, workload, args.seed,
                             own if own_run else other, True)
            if not own_run:
                out["notes"] = {}  # tracing overhead is the own workload's
            outputs.append(out)
            values.update(out["metrics"])
        return outputs, values

    # Half the set-up probes run before the measured run and half after it,
    # so that they sample the host's speed at two times.
    probes = 0 if args.workload == "serve" else SETUP_PROBES
    setups = []

    def probe(count):
        for _ in range(count):
            out = run_driver(driver, daemon, args.workload, args.seed,
                             args.seconds, False, setup_only=True)
            outputs.append(out)
            setups.append(out["metrics"].get("setup_s", float("nan")))

    probe(probes // 2)
    out = run_driver(driver, daemon, args.workload, args.seed, args.seconds,
                     False)
    outputs.append(out)
    values.update(out["metrics"])
    probe(probes - probes // 2)
    if setups:
        keep = max(1, round(PROBE_SHARE * len(setups)))
        values["setup_s"] = statistics.fmean(sorted(setups)[:keep])
    return outputs, values


def report(args, prov, outputs, values, spec):
    """Prints the human-readable lines and returns the result object."""
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    attempted = sum(int(o["attempted"]) for o in outputs)
    failed = sum(int(o["failed"]) for o in outputs)
    failures = [f for o in outputs for f in o.get("failures", []) if f]
    metrics = {}
    missing = []
    for m in wanted:
        value = values.get(m["name"])
        ok = isinstance(value, (int, float)) and math.isfinite(value)
        if ok and not args.trace:
            ok = value > 0
        if not ok:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = failed == 0 and not missing

    print("perfbench %s seed=%d seconds=%g trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    for key in ("host", "nproc", "build_type", "compiler", "git_sha"):
        print("  %-12s %s" % (key, prov[key]))
    print("  %-12s %s" % ("source", prov["source_sha256"][:16]))
    for m in wanted:
        if m["name"] not in metrics:
            continue
        value = metrics[m["name"]]["value"]
        alias = ""
        if not args.trace and m["name"] in MEANING[args.workload]:
            name, unit = MEANING[args.workload][m["name"]]
            alias = "  (%s, %s)" % (name, unit)
        print("  %-32s %14.6g %-8s%s" % (m["name"], value, m["unit"], alias))
    notes = {}
    for o in outputs:
        notes.update(o.get("notes", {}))
    for name in sorted(notes):
        print("  note %-27s %14.6g" % (name, notes[name]))
    if args.trace:
        coverage = metrics.get("analyze.layer_coverage", {}).get("value")
        if coverage is not None and coverage < 0.9:
            print("  FLAG analyze.layer_coverage %.3f < 0.9: the layer spans "
                  "miss part of the analyze path" % coverage)
        for key in sorted(notes):
            if key.startswith("untraced."):
                base = key[len("untraced."):]
                traced = notes.get("traced." + base)
                if traced:
                    print("  tracing overhead %-20s untraced %.6g, traced "
                          "%.6g (%+.1f%%)" % (
                              base, notes[key], traced,
                              100.0 * (traced - notes[key]) / notes[key]))
    print("  failed_ratio %.6g (%d of %d)" % (
        failed / max(attempted, 1), failed, attempted))
    for f in failures[:8]:
        print("  failure: " + f)
    for name in missing:
        print("  failure: metric %s missing or invalid" % name)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "provenance": prov, "attempted": attempted, "failed": failed,
              "failures": failures[:8], "metrics": metrics, "notes": notes}
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "%s-trace%d-seed%d-%d.json" % (
        args.workload, args.trace, args.seed, int(time.time() * 1000)))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print("  result file " + os.path.relpath(path, ROOT))
    return {"correct": correct, "attempted": max(attempted, 1),
            "failed": failed + len(missing), "metrics": metrics}


# --- comparing two result files --------------------------------------------

# A mismatch in any of these makes two results incomparable.
PROVENANCE_KEYS = ("host", "nproc", "machine", "build_type", "cxx_flags",
                   "compiler")
# Host speed change, as measured by host.reference_us, that is flagged.
HOST_DRIFT = 0.1


def compare(paths):
    with open(paths[0]) as f:
        a = json.load(f)
    with open(paths[1]) as f:
        b = json.load(f)
    mismatched = [k for k in PROVENANCE_KEYS
                  if a["provenance"].get(k) != b["provenance"].get(k)]
    for k in mismatched:
        print("FLAG provenance %s differs: %r vs %r" % (
            k, a["provenance"].get(k), b["provenance"].get(k)))
    if mismatched:
        fatal("refusing to compare results of different provenance")
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        fatal("refusing to compare different workloads or trace modes")
    for k in ("git_sha", "source_sha256"):
        print("%s: %s -> %s" % (k, a["provenance"].get(k),
                                b["provenance"].get(k)))
    # The host's own speed during each run (see README.md, "Noisy host").
    ref_a = a["notes"].get("host.reference_us") or a["metrics"].get(
        "host.reference_us", {}).get("value")
    ref_b = b["notes"].get("host.reference_us") or b["metrics"].get(
        "host.reference_us", {}).get("value")
    if ref_a and ref_b:
        drift = ref_b / ref_a - 1.0
        print("host.reference_us %.6g -> %.6g (%+.1f%%)" % (
            ref_a, ref_b, 100.0 * drift))
        if abs(drift) > HOST_DRIFT:
            print("FLAG the host ran %.0f%% %s during B: timings differ "
                  "for reasons outside the code" % (
                      100.0 * abs(drift), "slower" if drift > 0 else "faster"))
    print("seed %s -> %s" % (a["seed"], b["seed"]))
    for name in sorted(set(a["metrics"]) & set(b["metrics"])):
        va = a["metrics"][name]["value"]
        vb = b["metrics"][name]["value"]
        ratio = vb / va if va else float("nan")
        print("  %-32s %14.6g -> %14.6g  x%.4f %s" % (
            name, va, vb, ratio, a["metrics"][name]["unit"]))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar="RESULT")
    args = parser.parse_args()
    if args.compare:
        return compare(args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    driver, daemon = build()
    prov = provenance()
    os.makedirs(RUN_DIR, exist_ok=True)
    outputs, values = measure(args, driver, daemon)
    result = report(args, prov, outputs, values, spec)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
