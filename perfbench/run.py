#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench_e2e).

Usage, from the repository root:

  python3 perfbench/run.py --workload hot_read|fresh_read|durable_mixed \
      --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-check

The first form configures and builds perfbench/ (CMake, Release) into
$CARGO_TARGET_DIR or .bench_build, runs one workload, and prints as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list; every name must be emitted with the unit given there.
The full result (all metrics, stamps, sample counts) is kept under
<build>/results/ and, for traced runs, the spans under <build>/traces/.

--self-check runs every workload for about a second on a small table and
asserts that every metric of both lists is emitted with its unit and that
the correctness gate passes.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_root():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build(root):
    if not os.path.isdir("src") or not os.path.isfile(
            os.path.join("perfbench", "CMakeLists.txt")):
        fail("run from the repository root (src/ and perfbench/ not found)")
    cmake_dir = os.path.join(root, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(root, "build.log")
    configure = ["cmake", "-S", "perfbench", "-B", cmake_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(
            os.path.join(cmake_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    # The compiler's temporary files stay inside the build directory too.
    tmp = os.path.abspath(os.path.join(root, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "w") as log:
        for cmd in (configure, ["cmake", "--build", cmake_dir, "-j", jobs]):
            try:
                code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      env=env,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build failed: %s" % e)
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    binary = os.path.join(cmake_dir, "perfbench_e2e")
    if not os.path.isfile(binary):
        fail("build produced no perfbench_e2e")
    return binary


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "none"


def source_digest():
    """sha256 over src/ and perfbench/ sources: identifies the code measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def metric_specs():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def run_once(binary, root, workload, seed, seconds, trace, self_check=False):
    results = os.path.join(root, "results")
    traces = os.path.join(root, "traces")
    os.makedirs(results, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (workload, seed, trace)
    result_path = os.path.join(results, tag + ".json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--result", result_path,
           "--trace-out", os.path.join(traces, tag + ".jsonl"),
           "--work-dir", os.path.join(root, "work"),
           "--git-rev", git_rev()] + (["--self-check"] if self_check else [])
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %ds" % (workload, RUN_TIMEOUT_S))
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0 or not os.path.isfile(result_path):
        fail("perfbench_e2e exited with %d" % proc.returncode)
    with open(result_path) as f:
        result = json.load(f)
    result["stamp"]["src_digest"] = source_digest()
    with open(result_path, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    return result


def select_metrics(result, specs):
    """The metrics `specs` names, each checked against its unit and to be a
    finite number (e2e.cc writes a non-finite value as null)."""
    out = {}
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        if got is None:
            fail("metric %s was not emitted" % spec["name"])
        if got["unit"] != spec["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (spec["name"], got["unit"], spec["unit"]))
        value = got["value"]
        if value is None or not math.isfinite(value):
            fail("metric %s is not finite (%r)" % (spec["name"], value))
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return out


def self_check(binary, root):
    e2e, layer = metric_specs()
    workloads = [w["name"] for w in json.load(open("BENCHMARK.json"))
                 ["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            result = run_once(binary, root, workload, 7, 1.0, trace,
                              self_check=True)
            select_metrics(result, e2e + layer)
            if not result["checks_ok"] or result["failed"] != 0:
                fail("%s: correctness gate failed: %s"
                     % (workload, result["errors"]))
            for key in ("git_rev", "build_type", "simd_tier", "nproc", "seed",
                        "rows", "offered_query_rate_qps", "pipeline_depth",
                        "flush_policy", "src_digest"):
                if key not in result["stamp"]:
                    fail("%s: stamp %s missing" % (workload, key))
            if trace:
                spans = os.path.join(root, "traces",
                                     "%s-seed7-trace1.jsonl" % workload)
                names = {json.loads(line)["name"] for line in open(spans)}
                want = {"client.query", "storage.execute_plan"}
                if workload == "fresh_read":  # Every query misses the cache.
                    want.add("core.prepare")
                if workload == "durable_mixed":
                    want |= {"client.insert", "net.insert_sink",
                             "durability.insert_batch"}
                if not want <= names:
                    fail("%s: spans missing: %s" % (workload, want - names))
            print("self-check %s trace=%d: ok" % (workload, trace))
    print(json.dumps({"self_check": "ok"}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    root = build_root()
    binary = build(root)
    if args.self_check:
        self_check(binary, root)
        return
    if args.workload is None:
        fail("--workload is required")
    e2e, layer = metric_specs()
    if args.workload not in [w["name"] for w in
                             json.load(open("BENCHMARK.json"))["workloads"]]:
        fail("unknown workload " + args.workload)
    result = run_once(binary, root, args.workload, args.seed, args.seconds,
                      args.trace)
    metrics = select_metrics(result, layer if args.trace else e2e)
    print(json.dumps({"stamp": result["stamp"]}, sort_keys=True))
    print(json.dumps({
        "correct": bool(result["checks_ok"]) and result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
