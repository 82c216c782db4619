#!/usr/bin/env python3
"""Build and run the admission-control benchmark.

    python3 perfbench/run.py --workload <paper_churn|grid_churn|grid_sharded>
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Builds `perfbench/` (a cargo package with
its own workspace, depending on the repository's crates by path) in
release mode into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs
it with the given arguments. The benchmark's last stdout line is its
JSON result; see `perfbench/README.md`.

Exits non-zero, without a result line, if the build fails, and with the
benchmark's own code otherwise (non-zero on a failed correctness check).
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; stop a stuck benchmark before that.
RUN_TIMEOUT_S = 175


def source_digest():
    """SHA-256 over the sources the benchmark builds from, so a result
    can be tied to a tree even where there is no git metadata."""
    h = hashlib.sha256()
    paths = []
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            paths += [os.path.join(dirpath, f) for f in filenames
                      if f.endswith((".rs", ".toml", ".lock"))]
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def git_commit():
    """HEAD of the repository, or None outside a git checkout (and inside
    one whose top level is not this repository)."""
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return None
    return command_output(["git", "rev-parse", "HEAD"])


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"]) or "unknown"
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    commit = git_commit()
    if commit:
        env["PERFBENCH_GIT_COMMIT"] = commit
    binary = os.path.join(target, "release", "hetnet-perfbench")
    child = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT, env=env)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
