#!/usr/bin/env python3
# Copyright (c) 2026 The G-RCA Reproduction Authors.
# SPDX-License-Identifier: MIT
"""Records-in -> verdicts-out benchmark for G-RCA.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload batch-bgp --seed 7 --seconds 10 --trace 0

It builds perfbench/ (a CMake package that compiles ../src) into the
build directory ($CARGO_TARGET_DIR, default .bench_build), generates the
workload's corpus from the seed (cached per seed; generator time is never
measured), then runs one measuring process. That process prints one JSON
object as its last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones and
writes the spans to <build>/traces/<workload>-<seed>.jsonl (convert with
`grca spans --in FILE`). The exit code is nonzero when the build fails or a
correctness check fails. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# workload -> (study, default seed: the study's own default)
WORKLOADS = {
    "batch-bgp": ("bgp", 7),
    "store-pim": ("pim", 13),
    "stream-bgp": ("bgp", 7),
}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_JOBS = max(1, min(3, os.cpu_count() or 1))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return base if base.is_absolute() else ROOT / base


def run_logged(cmd, log):
    with open(log, "ab") as out:
        try:
            return subprocess.run(cmd, stdout=out,
                                  stderr=subprocess.STDOUT).returncode
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")


def build(root):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no G-RCA sources under {ROOT / 'src'}; run from a full checkout")
    cmake_dir = root / "cmake"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    log = root / "build.log"
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target",
                  "grca_perfbench", "-j", str(BUILD_JOBS)])
    for cmd in steps:
        if run_logged(cmd, log) != 0:
            tail = log.read_text(errors="replace").splitlines()[-30:]
            print("\n".join(tail), file=sys.stderr)
            fail(f"build failed (full log: {log})")
    return cmake_dir / "grca_perfbench"


def corpus(root, binary, workload, study, seed, smoke):
    """Generates the seed's corpus unless an identical one is cached."""
    name = f"{study}-{seed}" + ("-smoke" if smoke else "")
    out = root / "corpus" / name
    stat = binary.stat()
    stamp = f"{stat.st_size} {stat.st_mtime_ns}\n"
    marker = out / "generated-by"
    if marker.is_file() and marker.read_text() == stamp:
        return out
    tmp = root / "corpus" / (name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(out, ignore_errors=True)
    cmd = [str(binary), "gen", "--workload", workload, "--seed", str(seed),
           "--out", str(tmp)] + (["--smoke"] if smoke else [])
    if subprocess.run(cmd).returncode != 0:
        fail(f"corpus generation failed for {name}")
    (tmp / "generated-by").write_text(stamp)
    tmp.rename(out)
    return out


def check_result(line):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"last output line is not JSON: {line!r}")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} is not a finite number: {value!r}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-scale corpus, for the benchmark's tests")
    parser.add_argument("--corrupt-verdict", action="store_true",
                        help="test hook: flip one verdict so the checks fire")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    study, default_seed = WORKLOADS[args.workload]
    seed = default_seed if args.seed is None else args.seed
    root = build_root()
    binary = build(root)
    data = corpus(root, binary, args.workload, study, seed, args.smoke)
    work = root / "work" / args.workload
    work.mkdir(parents=True, exist_ok=True)

    cmd = [str(binary), "run", "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--corpus", str(data),
           "--work", str(work)]
    if args.trace:
        traces = root / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-{seed}.jsonl")]
    if args.corrupt_verdict:
        cmd.append("--corrupt-verdict")
    # The passes take --seconds and the set-ups up to a fifth more; the rest
    # is headroom for the last pass, and keeps a 30 s run within 3 minutes.
    timeout_s = args.seconds * 1.5 + 125
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail(f"measurement exceeded {timeout_s:.0f} s")
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"benchmark printed nothing (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    result = check_result(lines[-1])
    print(f"perfbench: measured in {time.monotonic() - started:.1f} s",
          file=sys.stderr)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
