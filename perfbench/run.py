#!/usr/bin/env python3
"""Build and run the MASC end-to-end benchmark.

    python3 perfbench/run.py --workload sweep_grid|serve_hot|route_miss \
        --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark is built from source into
$CARGO_TARGET_DIR (default .bench_build) on first use; build output goes
to stderr. Reports and spans land in <build dir>/out.

An untraced run is split into PARTS consecutive processes of
seconds / PARTS each, on the same seed; each metric is the median over
the parts. On a shared virtual machine, how fast a process runs drifts by
tens of percent from one process and one stretch of seconds to the next,
so one process samples that drift once where the parts sample it PARTS
times. Each part's report is passed through; the last line is the
combined JSON result. A traced run is one process.
"""
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
PARTS = 4


def source_id():
    """Git commit when available, plus a digest of the library sources."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    sha = "nogit"
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip() or sha
    except (OSError, subprocess.SubprocessError):
        pass
    return f"git:{sha} src:{digest.hexdigest()[:16]}"


def build(build_root):
    bdir = os.path.join(build_root, "perfbench")
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", bdir, "--parallel", "4"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return os.path.join(bdir, "masc_perfbench")


def main():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no MASC sources next to perfbench/")
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    binary = build(build_root)
    out_dir = os.path.join(build_root, "out")
    os.makedirs(out_dir, exist_ok=True)
    args = sys.argv[1:]
    base = [binary, *args, "--source-id", source_id()]
    if arg(args, "--trace", "0") != "0":
        sys.exit(run_part(base + ["--out-dir", out_dir], time.monotonic())[0])

    seconds = float(arg(args, "--seconds", "10")) / PARTS
    started = time.monotonic()
    parts = []
    for k in range(PARTS):
        part_dir = os.path.join(out_dir, f"part{k}")
        os.makedirs(part_dir, exist_ok=True)
        code, lines = run_part(
            with_arg(base, "--seconds", repr(seconds)) + ["--out-dir", part_dir],
            started, capture=True)
        result = json.loads(lines[-1]) if lines else None
        if code not in (0, 3) or result is None:
            sys.exit(code or 1)
        print(f"--- part {k + 1} of {PARTS} ---")
        print("\n".join(lines[:-1]), flush=True)
        parts.append((code, result))
    print(json.dumps(combine([r for _, r in parts])), flush=True)
    sys.exit(max(code for code, _ in parts))


def arg(args, name, default):
    return args[args.index(name) + 1] if name in args[:-1] else default


def with_arg(cmd, name, value):
    cmd = list(cmd)
    if name in cmd[:-1]:
        cmd[cmd.index(name) + 1] = value
    else:
        cmd += [name, value]
    return cmd


def run_part(cmd, started, capture=False):
    """Run one benchmark process within what is left of the time limit."""
    left = RUN_TIMEOUT_S - (time.monotonic() - started)
    try:
        done = subprocess.run(cmd, timeout=max(left, 1), text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: benchmark exceeded its time limit")
    lines = done.stdout.strip().splitlines() if capture and done.stdout else []
    return done.returncode, lines


def combine(results):
    """Counts summed over the parts; each metric the median of the parts."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values), "unit": first["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


if __name__ == "__main__":
    main()
