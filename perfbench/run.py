#!/usr/bin/env python3
"""Build the edgesim benchmark from source and run one workload.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 25 --trace 0

Run it from the repository root. The first call configures and builds
perfbench/ (the simulator libraries from src/ plus the perfbench binary) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; build output goes to stderr. The binary's report follows on
stdout, and its last line is the JSON result. The exit status is the
binary's: 0 when every cell passed its output check.

Options other than the four above are passed to the binary unchanged
(--threads N, --record FILE); see README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.tsv")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def source_hash():
    """SHA-256 over every file under src/ and perfbench/, by path."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def build(build_dir):
    """Configure once, then bring the perfbench binary up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr)
        if rc != 0:
            return None
    rc = subprocess.call(
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "-j", jobs],
        stdout=sys.stderr)
    if rc != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = ap.parse_known_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("simulator sources not found at %s"
                    % os.path.join(ROOT, "src"))
    if not os.path.isfile(EXPECTED):
        return fail("expectations file %s is missing" % EXPECTED)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    exe = build(build_dir)
    if exe is None:
        return fail("build failed")
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expect", EXPECTED, "--work-dir", work_dir,
           "--source-hash", source_hash()] + extra
    sys.stdout.flush()
    return subprocess.call(cmd, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
