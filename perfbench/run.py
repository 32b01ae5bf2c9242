#!/usr/bin/env python3
"""Build and run the xtsoc benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (with the repository's src/ libraries, Release) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later runs reuse the build. The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json when --trace is 0 and the
per-layer ones when it is 1. The line before it names the workload, the seed,
the end-of-run fingerprint and the host (cores, CPU, compiler, build type,
commit). A traced run also writes its spans as Chrome-trace JSON under the
build directory's traces/. Build output and diagnostics go to stderr.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mesh_compute", "mesh_coherent", "campaign_warm")
OPTIMISED_BUILDS = ("Release", "RelWithDebInfo")
RUN_TIMEOUT_S = 170


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, "no xtsoc sources at src/; run from a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "xtsoc_perfbench",
         "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "xtsoc_perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def source_sha256():
    """Digest of every file the benchmark builds from: src/ and perfbench/."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def check_repeat(build_dir, key, fingerprint):
    """The end-of-run fingerprint of a (workload, seed, seconds) must repeat
    exactly across runs in one checkout. Returns False on a mismatch."""
    path = os.path.join(build_dir, "fingerprints.json")
    seen = {}
    if os.path.isfile(path):
        with open(path) as f:
            seen = json.load(f)
    if key in seen:
        return seen[key] == fingerprint
    seen[key] = fingerprint
    with open(path, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}

    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"),
        "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(2, "build failed: %s" % e)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_file = None
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_file = os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))
        cmd += ["--trace-out", trace_file]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(1, "run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(1, "xtsoc_perfbench exited with %d" % proc.returncode)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])

    build_info = doc["build"]
    if build_info["build_type"] not in OPTIMISED_BUILDS:
        fail(3, "refusing to report an unoptimised build (%s)"
             % build_info["build_type"])
    metrics = doc["metrics"]
    reported = {name: m["unit"] for name, m in metrics.items()}
    if reported != expected:
        fail(4, "metrics %s do not match BENCHMARK.json %s"
             % (sorted(reported.items()), sorted(expected.items())))

    key = "%s|%d|%g" % (args.workload, args.seed, args.seconds)
    repeats = check_repeat(build_dir, key, doc["fingerprint"])
    if not repeats:
        print("perfbench: end-of-run fingerprint differs from an earlier run "
              "of the same seed", file=sys.stderr)
    correct = bool(doc["correct"]) and repeats

    host = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": build_info["compiler"],
        "build_type": build_info["build_type"],
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
    }
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "fingerprint": doc["fingerprint"],
                      "trace_file": trace_file and os.path.relpath(trace_file),
                      "host": host}))
    print(json.dumps({
        "correct": correct,
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]) if repeats else int(doc["attempted"]),
        "metrics": {name: metrics[name] for name in expected},
    }))


if __name__ == "__main__":
    main()
