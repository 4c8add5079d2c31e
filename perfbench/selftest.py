#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at a tiny size, untraced and traced,
and checks that:

  * the last output line is the result object with exactly the keys
    correct, attempted, failed and metrics, with no failed operation;
  * every end-to-end (untraced) or per-layer (traced) metric is present,
    in the unit BENCHMARK.json gives it;
  * a deliberately corrupted output (--corrupt: one flipped period count
    or verdict) is counted as a failed operation and makes the run
    incorrect;
  * in a directory holding only BENCHMARK.json and perfbench/, run.py
    exits non-zero without printing a result.

Exits 0 when every check holds.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args, cwd=ROOT):
    proc = subprocess.run(RUN + args, cwd=cwd, capture_output=True,
                          text=True, check=False, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def result_of(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def check_metrics(result, expected, positive):
    problems = []
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in expected}:
        problems.append(f"metric names {sorted(metrics)} differ from "
                        f"{sorted(m['name'] for m in expected)}")
    for entry in expected:
        got = metrics.get(entry["name"])
        if got is None:
            continue
        if got.get("unit") != entry["unit"]:
            problems.append(f"{entry['name']}: unit {got.get('unit')!r}, "
                            f"expected {entry['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{entry['name']}: value {value!r}")
        elif positive and value <= 0:
            problems.append(f"{entry['name']}: {value} is not positive")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        base = ["--workload", workload, "--seed", "3", "--seconds", "1",
                "--size", "tiny"]
        for trace, expected in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            code, lines, err = run(base + ["--trace", str(trace)])
            result = result_of(lines)
            label = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                expect(False, f"{label}: exit {code}, no result\n{err}")
                continue
            expect(set(result) == RESULT_KEYS,
                   f"{label}: result keys {sorted(result)}")
            expect(result["correct"] is True and result["failed"] == 0 and
                   result["attempted"] >= 1,
                   f"{label}: correct={result['correct']} "
                   f"attempted={result['attempted']} "
                   f"failed={result['failed']}")
            problems = check_metrics(result, expected, positive=trace == 0)
            expect(not problems, f"{label}: every metric with its unit"
                   + "".join("\n      " + p for p in problems))

        code, lines, err = run(base + ["--trace", "0", "--corrupt"])
        result = result_of(lines)
        expect(code == 0 and result is not None and
               result["failed"] >= 1 and result["correct"] is False,
               f"{workload} --corrupt: counted as failed "
               f"({result and {k: result[k] for k in ('attempted', 'failed')}})")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    code, lines, _ = run(["--workload", spec["workloads"][0]["name"],
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=bare)
    expect(code != 0 and result_of(lines) is None,
           f"bare directory: exit {code}, no result printed")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"\n{len(failures)} check(s) failed" if failures
          else "\nall checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
