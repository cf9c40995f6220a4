#!/usr/bin/env python3
"""Build the xbench package from source and run one benchmark workload.

Usage (from the root of a checkout):

    python3 xbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 xbench/run.py --selftest

The first call configures and builds xbench/ (the library under src/ plus
the benchmark binary) in Release into $CARGO_TARGET_DIR/xbench, or
.bench_build/xbench when that variable is unset; later calls rebuild
incrementally. The binary prints every metric by name and unit and, as the
last line, one JSON object with the keys correct, attempted, failed and
metrics. At the default seed the workload's result digest must equal the
one pinned in xbench/golden.json. Each run also writes a record (host
metadata, metrics, digest, notes and, when traced, every span) under
<build dir>/records/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("campaign", "mesh8_knee", "mesh8_saturated", "mesh16_parallel")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"xbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "xbench")


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no library sources under {os.path.join(ROOT, 'src')}")
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                      stdout=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        fail("build failed")
    return os.path.join(out_dir, "xbench")


def source_id():
    """Git commit when the checkout is a repository, else a source hash."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "xbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the wedge self-test instead of a workload")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if args.selftest:
        return subprocess.run([binary, "--selftest"],
                              timeout=RUN_TIMEOUT_S).returncode
    if args.workload is None:
        parser.error("--workload is required")

    with open(os.path.join(BENCH_DIR, "golden.json")) as f:
        golden = json.load(f)
    seed = golden["seed"] if args.seed is None else args.seed
    records = os.path.join(out_dir, "records")
    os.makedirs(records, exist_ok=True)
    record = os.path.join(
        records, f"{args.workload}-seed{seed}-trace{args.trace}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--record", record, "--commit", source_id()]
    if seed == golden["seed"]:
        cmd += ["--expect-digest", golden["digests"][args.workload]]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
