#!/usr/bin/env python3
"""Build and run the FedTrans end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` binary from the checkout's sources (Release, into
$CARGO_TARGET_DIR or .bench_build), then runs it. The binary prints a context
line and, as the last line of stdout, the JSON result. Extra flags are passed
through (--smoke runs every session for three rounds). Each session's probe
curve goes to stderr.

Exit codes: 0 result recorded; 1 an output check failed (correct=false);
2 no sources to build or a bad command line; 3 refused to record
(FEDTRANS_THREADS above the CPU count, or a build without NDEBUG).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def host_cpus():
    return len(os.sched_getaffinity(0))


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


SOURCES = ("CMakeLists.txt", "src", HERE.name)


def tree_digest(root):
    """Digest of the sources the benchmark builds from under `root`."""
    h = hashlib.sha256()
    files = []
    for name in SOURCES:
        p = root / name
        files += [p] if p.is_file() else sorted(
            f for f in p.rglob("*")
            if f.is_file() and "__pycache__" not in f.parts)
    for p in files:
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git(root, *args):
    try:
        res = subprocess.run(["git", "-C", str(root), *args],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def source_stamp(root=ROOT):
    """`git:<commit>` when `root` is the top of a git work tree whose
    sources match that commit, `git:<commit>+tree:<digest>` when they have
    uncommitted changes, and `tree:<digest>` outside git."""
    top = git(root, "rev-parse", "--show-toplevel")
    rev = git(root, "rev-parse", "HEAD")
    if top and rev and Path(top).resolve() == root.resolve():
        dirty = git(root, "status", "--porcelain", "--", *SOURCES)
        if dirty == "":
            return "git:" + rev
        return f"git:{rev}+tree:{tree_digest(root)}"
    return "tree:" + tree_digest(root)


def build(targets):
    """Configure (once) and build `targets`; returns the build directory.
    Build output goes to stderr so stdout carries only the result."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.stderr.write(f"perfbench: no FedTrans sources under {ROOT}\n")
        sys.exit(2)
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", str(min(host_cpus(), 4)),
                  "--target", *targets])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout)
            sys.stderr.write(f"perfbench: build step failed: {' '.join(cmd)}\n")
            sys.exit(2)
    return out


def thread_env():
    """The environment the benchmark runs in: FEDTRANS_THREADS defaults to
    the CPU count, and a larger value is refused."""
    env = dict(os.environ)
    cpus = host_cpus()
    raw = env.get("FEDTRANS_THREADS")
    if raw is None:
        env["FEDTRANS_THREADS"] = str(cpus)
    else:
        try:
            threads = int(raw)
        except ValueError:
            sys.stderr.write(f"perfbench: bad FEDTRANS_THREADS={raw!r}\n")
            sys.exit(2)
        if threads > cpus:
            sys.stderr.write(f"perfbench: refusing to record with "
                             f"FEDTRANS_THREADS={threads} > {cpus} CPUs\n")
            sys.exit(3)
    return env


def main(argv):
    env = thread_env()
    out = build(["perfbench"])
    env["PERFBENCH_SOURCE"] = source_stamp()
    res = subprocess.run([str(out / "perfbench"), *argv], env=env)
    return res.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
