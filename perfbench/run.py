#!/usr/bin/env python3
"""Serving benchmark: the paper's split-ResNet ensemble through forked
reactor daemons.

    python3 perfbench/run.py --workload ens_saturate --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Builds perfbench_driver and
serve_daemon (perfbench/CMakeLists.txt, Release) under $CARGO_TARGET_DIR
(default .bench_build), runs one workload, checks that perfbench_driver reported
exactly the metrics BENCHMARK.json declares (end_to_end with --trace 0,
per_layer with --trace 1), and prints a metadata line and then the result
line, both JSON, on stdout:

    {"correct": true, "attempted": 2210, "failed": 0, "metrics": {...}}

Each run is also appended to --results (default
<build>/perfbench/results.jsonl) for perfbench/compare.py. Exit status is
0 on success and non-zero, with no result line, when the sources are
missing, the build fails, perfbench_driver fails or the metrics do not
match.
"""

import argparse
import contextlib
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
# Beyond the timed phases: seeded bundle and oracle, boots, warm-ups,
# writing spans, shutting hosts down.
DRIVER_MARGIN_S = 110
WARMUP_S = 1  # kWarmupSeconds in driver/workload.hpp


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"


def build(out):
    """Configures (once) and builds perfbench_driver and serve_daemon."""
    if not (ROOT / "src").is_dir() or not (ROOT / "examples" / "serve_daemon.cpp").is_file():
        fail(f"no repository sources next to {HERE}; nothing to build", 2)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            run_build(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
                      + generator)
        jobs = str(min(4, os.cpu_count() or 1))
        run_build(["cmake", "--build", str(out), "--target", "perfbench_driver", "serve_daemon",
                   "-j", jobs])


def run_build(command):
    try:
        subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as error:
        fail(f"build failed: {error}")


def source_digest():
    """A digest of every source file the build reads, committed or not."""
    digest = hashlib.sha256()
    sources = [path for path in (ROOT / "src").rglob("*") if path.is_file()]
    for path in sorted([*sources, ROOT / "examples" / "serve_daemon.cpp",
                        HERE / "CMakeLists.txt", *HERE.glob("driver/*.[ch]pp")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def declared_metrics(trace):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}", 2)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def stop_group(pgid):
    """Kills whatever is left of perfbench_driver's process group and
    waits until it is gone."""
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pgid, signal.SIGKILL)
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.05)


def driver_timeout(args):
    """A traced run drives the load twice: untraced, then traced."""
    phases = 2 if args.trace else 1
    return phases * (args.seconds + WARMUP_S) + DRIVER_MARGIN_S


def run_driver(out, args, work_dir, trace_dir):
    command = [str(out / "perfbench_driver"), "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--daemon", str(out / "serve_daemon"),
               "--work-dir", str(work_dir), "--trace-dir", str(trace_dir),
               "--source", source_digest()]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            start_new_session=True)
    timeout = driver_timeout(args)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail(f"driver did not finish within {timeout:.0f} s")
    finally:
        stop_group(proc.pid)
    if proc.returncode != 0:
        fail(f"driver exited with status {proc.returncode}")
    return stdout


def parse_output(stdout, trace):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        fail("driver printed no result")
    meta = json.loads(lines[-2])["meta"]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result keys {sorted(result)}")
    want = declared_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, "
             f"unit mismatch {units}")
    return meta, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="JSONL file each run is appended to")
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)

    declared_metrics(args.trace)  # fail early without BENCHMARK.json
    out = build_dir()
    build(out)
    work_dir = out / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    trace_dir = out / "traces" / f"{args.workload}-seed{args.seed}"
    if args.trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
    try:
        stdout = run_driver(out, args, work_dir, trace_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    meta, result = parse_output(stdout, args.trace)

    results = Path(args.results) if args.results else out / "results.jsonl"
    results.parent.mkdir(parents=True, exist_ok=True)
    with open(results, "a") as sink:
        sink.write(json.dumps({"workload": args.workload, "seed": args.seed,
                               "trace": args.trace, "meta": meta, "result": result}) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
