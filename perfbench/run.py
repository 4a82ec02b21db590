#!/usr/bin/env python3
"""Build and run the thermorl benchmark for one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload serve_steady --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads are listed in BENCHMARK.json; `all` runs each of them untraced,
then traced, and prints one table of every metric with its unit.

The script builds the `perfbench` package (perfbench/Cargo.toml, its own
workspace, depending on the repository crates by path) into
$CARGO_TARGET_DIR (default .bench_build), prints a machine fingerprint as
one JSON line, runs the workload, and checks that the last line of the
benchmark's output is a result carrying exactly the metrics BENCHMARK.json
lists for the mode (end-to-end metrics untraced, per-layer metrics
traced). It exits nonzero, without printing a result, when the build, the
run or that check fails.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
RUN_TIMEOUT_S = 170
# Inputs of the build: the repository's crates and manifests plus this package.
SOURCE_ROOTS = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench/Cargo.toml",
                "perfbench/Cargo.lock", "perfbench/src", "perfbench/run.py"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    """SHA-256 over every source file the build reads (stands in for the
    git commit when the checkout is not a git repository)."""
    h = hashlib.sha256()
    for name in SOURCE_ROOTS:
        path = ROOT / name
        files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def command_output(args):
    try:
        return subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def fingerprint(args):
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = command_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None
    return {
        "cpu_model": cpu or platform.processor() or "unknown",
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "--version"]),
        "profile": "release",
        "git_commit": commit,
        "source_digest": source_digest(),
        "traced": bool(args.trace),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"build failed with exit code {result.returncode}")


def check_result(line, expected):
    """The result line must carry exactly the listed metrics and units."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        raise ValueError(f"metrics {got} differ from BENCHMARK.json {want}")
    if not all(isinstance(m.get("value"), (int, float)) for m in result["metrics"].values()):
        raise ValueError("a metric value is not a number")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1],
                        help="0: end-to-end metrics, 1: per-layer metrics (required "
                             "unless --workload all)")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}")
    if args.workload != "all" and args.trace is None:
        fail("--trace is required")

    env = dict(os.environ, CARGO_NET_OFFLINE="true")
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    target = target if target.is_absolute() else ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    build(env)

    if args.workload != "all":
        print(run(args, spec, target))
        return
    rows, correct = [], True
    for trace in (0, 1):
        for workload in workloads:
            one = argparse.Namespace(workload=workload, seed=args.seed,
                                     seconds=args.seconds, trace=trace)
            result = json.loads(run(one, spec, target))
            correct &= result["correct"] and result["failed"] == 0
            rows += [(workload, trace, name, m["value"], m["unit"])
                     for name, m in result["metrics"].items()]
    print(f"{'workload':<16} {'traced':<6} {'metric':<36} {'value':>16} unit")
    for workload, trace, name, value, unit in rows:
        print(f"{workload:<16} {trace:<6} {name:<36} {value:>16.6g} {unit}")
    print(f"all checks {'passed' if correct else 'FAILED'}")
    sys.exit(0 if correct else 1)


def run(args, spec, target):
    """Runs one workload, echoing its report; returns the checked result line."""
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({"fingerprint": fingerprint(args)}), flush=True)
    work = ROOT / ".bench_work"
    cmd = [str(target / "release" / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work)]
    # Own process group, so a timeout also stops the supervisors it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}")
    try:
        check_result(lines[-1], expected)
    except (ValueError, KeyError, AttributeError) as e:
        fail(f"malformed result: {e}")
    return lines[-1]


if __name__ == "__main__":
    main()
