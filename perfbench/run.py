#!/usr/bin/env python3
"""Build and run one workload of the SYN-dog reproduction's benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--size full|tiny] [--corrupt]

Run from the root of the source tree. The script configures and builds
perfbench/ (which compiles the program from ../src) into $CARGO_TARGET_DIR,
or .bench_build when that is unset, runs the C++ program, checks that it
reported every metric BENCHMARK.json names, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1. The line before it describes the host, the build and the thread
counts used; the full record also lands in <build dir>/results/.

--size tiny and --corrupt exist for perfbench/selftest.py.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

# Which workloads exercise each per-layer metric's layer (the name's
# prefix). A traced run reports 0 for the layers its workload never
# calls, and must measure every other one.
LAYER_WORKLOADS = {
    "trace": {"ensemble-unc"},
    "attack": {"ensemble-unc"},
    "core": {"ensemble-unc"},
    "ensemble": {"ensemble-unc"},
    "campaign": {"campaign-flood", "campaign-spread"},
    "pcap": {"ingest-replay"},
    "net": {"ingest-replay"},
    "ingest": {"ingest-replay"},
    "classify": {"ingest-replay"},
    "bench": {"ensemble-unc", "campaign-flood", "campaign-spread",
              "ingest-replay"},
}

RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(target)
    return path if path.is_absolute() else ROOT / path


def build(out_dir):
    """Configures (once) and builds the program; build logs go to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources under {ROOT / 'src'}; run from a full "
             "checkout of the repository", code=2)
    if not (out_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(["ninja", "--version"], capture_output=True,
                          check=False).returncode == 0:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode:
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", str(out_dir), "--target", "perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode:
        fail("build failed")
    return out_dir / "perfbench"


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             check=False, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else None


def describe_host(out_dir):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    llc = None
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    if caches.is_dir():
        for index in sorted(caches.glob("index*")):
            try:
                llc = (index / "size").read_text().strip()
            except OSError:
                pass
    cache = {}
    try:
        for line in (out_dir / "CMakeCache.txt").read_text().splitlines():
            m = re.match(r"(CMAKE_CXX_COMPILER|CMAKE_BUILD_TYPE):\w+=(.*)",
                         line)
            if m:
                cache[m.group(1)] = m.group(2)
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    describe = None
    if (ROOT / ".git").exists():
        describe = first_line(["git", "-C", str(ROOT), "describe", "--always",
                               "--dirty", "--tags"])
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "last_level_cache": llc,
        "compiler": first_line([compiler, "--version"]) or compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "git_describe": describe or "unavailable (not a git checkout)",
    }


def select_metrics(spec, workload, trace, measured):
    """The metrics the result line carries, or an error message."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        got = measured.get(name)
        if got is None:
            layer = name.split(".", 1)[0]
            if trace and workload not in LAYER_WORKLOADS.get(layer, ()):
                metrics[name] = {"value": 0.0, "unit": unit}
                continue
            return None, f"workload did not report {name}"
        value = got["value"]
        if got["unit"] != unit:
            return None, f"{name} reported in {got['unit']}, expected {unit}"
        if not math.isfinite(value) or (not trace and value <= 0):
            return None, f"{name} = {value} is not a positive number"
        metrics[name] = {"value": value, "unit": unit}
    return metrics, None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", code=2)

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--size", args.size]
    if args.corrupt:
        cmd.append("--corrupt")
    started = time.monotonic()
    try:
        run = subprocess.run(cmd, capture_output=True, text=True,
                             check=False, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {run.returncode}")
    raw = json.loads(lines[-1])

    metrics, error = select_metrics(spec, args.workload, args.trace,
                                    raw["metrics"])
    if error:
        fail(error)
    correct = bool(raw["checks_passed"]) and raw["failed"] == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "wall_s": round(time.monotonic() - started, 3),
        "host": describe_host(out_dir),
        "run": raw["info"],
        "notes": raw["notes"],
        "all_metrics": raw["metrics"],
    }
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n")
    print("perfbench: " + json.dumps({k: record[k] for k in
                                      ("host", "run", "notes")}))
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
