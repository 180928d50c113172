#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Run from the root of a source tree:

    python3 perfbench/run.py --workload dse_timed --seed 1 --seconds 20 --trace 0

The first call configures and builds an optimised (Release) copy of the
adriatic library plus the driver under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later calls only rebuild what changed.
Build output goes to stderr, so the last line of stdout is the driver's
result object. The exit code is the driver's: 0 when every output matched
its reference, nonzero otherwise.
"""
import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dse_timed", "dse_loose", "service_mix")
DRIVER_TIMEOUT_S = 170


def source_revision():
    """The git commit when the tree is a checkout, else a digest of the
    sources the benchmark builds."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "tree-" + h.hexdigest()[:12]


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "perfbench_driver"],
                   stdout=sys.stderr, check=True)
    return build_dir / "perfbench_driver"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no adriatic sources next to perfbench/ "
              f"(expected {ROOT / 'src'})", file=sys.stderr)
        return 2

    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (build_dir / "perfbench").resolve()
    try:
        driver = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    # Relative paths keep the service's Unix socket path short.
    out_dir = os.path.relpath(build_dir / "out")
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", str(HERE / "dse_reference.tsv"),
           "--out-dir", out_dir, "--git-rev", source_revision()]
    try:
        return subprocess.run(cmd, timeout=DRIVER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: driver exceeded {DRIVER_TIMEOUT_S} s", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
