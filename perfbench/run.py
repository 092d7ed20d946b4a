#!/usr/bin/env python3
"""Builds and runs the live-writing benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload live_words --seed 1 --seconds 15 --trace 0

The benchmark package (perfbench/Cargo.toml) is built in release mode
against the repository's crates, into $CARGO_TARGET_DIR when it is set and
perfbench/target otherwise, with a private CARGO_HOME under that directory
so the build reads and writes nothing outside the checkout. The binary's
output is passed through unchanged: its last stdout line is the result
JSON. A failed build exits non-zero without printing a result.

Extra flags after the four standard ones (for example `--writers 4` for a
tiny instance) are passed to the binary.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCES = ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench")
SKIP_DIRS = {"target", ".bench_build", "__pycache__"}


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def tree_hash():
    """A content hash of the sources the benchmark builds from."""
    h = hashlib.sha256()
    for top in SOURCES:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else []
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            paths.extend(os.path.join(dirpath, n) for n in sorted(filenames))
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target, CARGO_HOME=os.path.join(target, "cargo-home"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    commit = git_commit() or tree_hash()
    run = subprocess.run([binary, *sys.argv[1:], "--commit", commit])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
