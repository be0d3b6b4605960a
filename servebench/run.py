#!/usr/bin/env python3
"""Build pubopt-serve and the servebench load generator, then run one workload.

Run from the repository root:

    python3 servebench/run.py --workload hot-cache --seed 1 --seconds 12 --trace 0

Both are built in release mode into $CARGO_TARGET_DIR (default
`.bench_build`). The last line of standard output is the JSON result;
everything else is human-readable. A failed build or a failed workload
guard exits non-zero without a result line.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def commit():
    """The checked-out commit, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build(target, args):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("servebench: build failed: " + " ".join(cmd))


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "serve", "Cargo.toml")):
        sys.exit("servebench: run from a checkout of the repository (crates/serve is missing)")
    target = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    build(target, ["-p", "pubopt-serve", "--bin", "pubopt-serve"])
    build(target, ["--manifest-path", os.path.join(HERE, "Cargo.toml")])
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "servebench"),
        "--serve-bin", os.path.join(release, "pubopt-serve"),
        "--out", os.path.join(HERE, "results"),
        "--commit", commit(),
    ] + sys.argv[1:]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
