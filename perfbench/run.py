#!/usr/bin/env python3
"""Wall-clock benchmark entry point.

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles
the library from ../src) into .bench_build/perfbench under the
repository root, runs one workload, and prints the run's human-readable
report followed, as the last stdout line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list, each as {"value": ..., "unit": ...}.
Every run also leaves a record stamped with the host fingerprint in
.bench_build/perfbench/runs/.

    python3 perfbench/run.py --workload serve_zipf --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --model-check [--seed N]   # exact-repeat gate
    python3 perfbench/run.py --selftest                 # arithmetic self-test

Exit status: 0 for a clean run; 1 for an oracle mismatch, an unclean
heap audit, a failed build or a missing metric; 2 for bad arguments or
missing library sources.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("serve_zipf", "heap_churn", "spmv_read")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally. Returns success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "perfbench_selftest", "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def source_id():
    """Git commit when available, plus a digest of the built sources
    (checkouts without .git still get a stable identity)."""
    commit = "no-git"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short",
                            "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in (".cc", ".hh", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return f"{commit} src-sha256:{h.hexdigest()[:16]}"


def run_binary(args):
    """Run perfbench; returns (exit code, stdout lines)."""
    cmd = [str(BUILD / "perfbench")] + args
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 1, []
    sys.stderr.write(r.stderr)
    return r.returncode, r.stdout.splitlines()


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(a):
    runs = BUILD / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    code, lines = run_binary([
        "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", str(a.trace),
        "--out-dir", str(runs), "--commit", source_id()])
    if not lines or not lines[-1].startswith("{"):
        print("\n".join(lines))
        log("perfbench: no result from the benchmark binary")
        return 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    metrics = {}
    missing = []
    for m in declared_metrics(a.trace):
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            missing.append(m["name"])
        else:
            metrics[m["name"]] = got
    fingerprint = next((json.loads(l.split(" ", 1)[1]) for l in lines
                        if l.startswith("fingerprint ")), {})
    record = {"fingerprint": fingerprint, "correct": result["correct"],
              "attempted": result["attempted"], "failed": result["failed"],
              "metrics": result["metrics"]}
    (runs / f"{a.workload}-seed{a.seed}-trace{a.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    if missing:
        log("perfbench: metrics missing or with the wrong unit: " +
            ", ".join(missing))
        return 1
    correct = bool(result["correct"]) and code == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def model_check(seed):
    """Run each workload's single-threaded fixed-size pass twice; every
    modeled counter and bytes_per_user_byte must repeat exactly."""
    ok = True
    for w in WORKLOADS:
        results = []
        for _ in range(2):
            code, lines = run_binary(["--workload", w, "--seed", str(seed),
                                      "--model-check"])
            if code != 0 or not lines or not lines[-1].startswith("{"):
                print(f"model-check {w}: run failed (exit {code})")
                ok = False
                break
            results.append(json.loads(lines[-1]))
        if len(results) < 2:
            continue
        first, second = results
        same = first["metrics"] == second["metrics"]
        for name, m in first["metrics"].items():
            print(f"model-check {w} {name} = {m['value']!r} {m['unit']}")
        print(f"model-check {w}: {'IDENTICAL' if same else 'DIFFERENT'}"
              f" across two runs")
        ok = ok and same and first["correct"] and second["correct"]
    print(f"model-check: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--model-check", action="store_true")
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not (a.workload or a.model_check or a.selftest):
        p.error("one of --workload, --model-check, --selftest is required")
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log(f"perfbench: library sources not found under {ROOT / 'src'}")
        return 2
    t0 = time.monotonic()
    if not build():
        return 1
    log(f"perfbench: build ready in {time.monotonic() - t0:.1f} s")
    if a.selftest:
        return subprocess.run([str(BUILD / "perfbench_selftest")]).returncode
    if a.model_check:
        return model_check(a.seed)
    return run_workload(a)


if __name__ == "__main__":
    sys.exit(main())
