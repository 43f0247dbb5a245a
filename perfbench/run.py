#!/usr/bin/env python3
"""Build and run the end-to-end strategy-server benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload cold-zoo --seed 1 --seconds 24 --trace 0

Builds the library sources and the benchmark program with CMake into
.bench_build/perfbench (incremental after the first run), then runs it.
Logs go to stderr; the last line on stdout is the JSON result.  Span
files, per-run results and the deterministic stream records land in
.perfbench/.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".perfbench"
# A run measures for --seconds plus set-up, prefill and re-execution;
# anything past this is a hang.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def commit_id():
    """The git commit, or "none" outside a git checkout."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def code_digest():
    """A digest of the code under test (src/ and perfbench/, without
    the Markdown documents).  Runs compare their deterministic records
    only with runs of the same digest, so a change that alters the
    served strategies is compared with itself, and an uncommitted edit
    counts as other code."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if (path.is_file() and "__pycache__" not in path.parts
                    and path.suffix != ".md"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main(argv):
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    command = [str(binary), *argv, "--out", str(OUT),
               "--commit", commit_id(), "--code", code_digest()]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
