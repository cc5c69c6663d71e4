#!/usr/bin/env python3
"""Build the lcgbench driver from this checkout and run one workload.

    python3 lcgbench/run.py --workload NAME [--seed N] [--seconds S]
                            [--trace 0|1] [--smoke]

NAME is arena_dynamics, htlc_stream or scenario_sweep (see README.md).
The driver is configured and built with CMake into
$CARGO_TARGET_DIR/lcgbench (default .bench_build/lcgbench, relative to the
checkout root) on the first run; later runs rebuild only what changed.
Build output goes to standard error. The driver's standard output is passed
through; its last line is the JSON result. The exit code is the driver's,
or non-zero without a result when the checkout holds no lcg sources or the
build fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("arena_dynamics", "htlc_stream", "scenario_sweep")


def source_sha256():
    """Hash of everything the driver is built from, for the provenance
    stamp (the checkout need not be a git repository)."""
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", BENCH_DIR):
        files += sorted(p for p in top.rglob("*") if p.is_file())
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "none"
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True, check=False)
    return result.stdout.strip() if result.returncode == 0 else "none"


def build(build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "lcgbench", "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for the benchmark's own tests")
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print(f"lcgbench: no lcg sources in {ROOT}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    target = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = target / "lcgbench"
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"lcgbench: build failed: {err}", file=sys.stderr)
        return 3

    command = [str(build_dir / "lcgbench"), "--workload", args.workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", str(target / "lcgbench-out"),
               "--git-sha", git_sha(), "--source-sha256", source_sha256()]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    return subprocess.run(command, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
