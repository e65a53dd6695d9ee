#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <discover-long|discover-wide|service-mixed>
                             --seed N --seconds S --trace <0|1>
                             [--out results.jsonl] [--corrupt-expected]

The first call configures and builds perfbench/ (which compiles the library
from src/) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.
Every call then runs the self-test of the statistics and schedule helpers and
the workload. Build output goes to stderr; the workload's last line of stdout
is its JSON result. With --out the result is also appended, tagged with the
workload, seed and trace flag, to a JSON-lines file that compare.py reads.
The exit code is the workload's: 0 only when every output check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("discover-long", "discover-wide", "service-mixed")


def build(build_dir: Path) -> None:
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   stdout=sys.stderr, check=True)


def source_digest() -> str:
    """Hash of the library's and the benchmark's sources as they are on disk.

    Exact counts are compared only between runs of the same sources, so a
    change that moves a count on purpose starts a fresh record.
    """
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE / "src"):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the tagged result to this JSON-lines file")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="alter the expected output; the run must then fail")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: the library sources (src/) are missing", file=sys.stderr)
        return 2

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    build_dir = target / "perfbench"
    try:
        build(build_dir)
        subprocess.run([str(build_dir / "perfbench_selftest")],
                       stdout=sys.stderr, check=True)
    except subprocess.CalledProcessError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    work_dir = target / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    command = [str(build_dir / "perfbench_run"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", str(work_dir),
               "--counts-dir", str(target / "counts" / source_digest())]
    if args.corrupt_expected:
        command.append("--corrupt-expected")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    lines = run.stdout.strip().splitlines()
    if args.out and run.returncode == 0 and lines:
        tagged = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "result": json.loads(lines[-1])}
        with open(args.out, "a") as out:
            out.write(json.dumps(tagged) + "\n")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
