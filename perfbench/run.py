#!/usr/bin/env python3
"""Builds the qgdp benchmark from source and runs one workload.

    python3 perfbench/run.py --workload cold-place --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

`--workload all` runs the four workloads one after another and exits
non-zero if any of them failed. Run from the root of a checkout. The first call configures and builds
libqgdp plus qgdp_perfbench (Release) under $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; later calls only re-check the build.
Build output goes to stderr, so the last line of stdout is
qgdp_perfbench's JSON result. Spans of a traced run (--trace 1) are written under
<build dir>/traces/. See perfbench/README.md for the workloads and
metrics.
"""
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ["cold-place", "eco-stream", "paper-eval", "fork-isolated"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_id():
    """The git commit when the checkout is a repository, else a digest
    of every file under src/ (a checkout without .git still gets a
    stable identity for its stamp)."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    digest = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return "src-sha1:" + digest.hexdigest()


def build(build_dir):
    """Configures (once) and builds; returns the program path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "qgdpd.h")):
        print("perfbench: no qgdp sources under src/ of " + ROOT, file=sys.stderr)
        return None
    if not shutil.which("cmake"):
        print("perfbench: cmake not found", file=sys.stderr)
        return None
    # Compiler temporaries stay inside the build tree.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env, check=False).returncode != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr, env=env, check=False).returncode != 0:
        return None
    return os.path.join(build_dir, "qgdp_perfbench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    program = build(build_dir)
    if program is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    extra = ["--trace-dir", os.path.join(build_dir, "traces"), "--source-id", source_id()]
    at = args.index("--workload") + 1 if "--workload" in args[:-1] else -1
    if at < 0 or args[at] != "all":
        return subprocess.run([program] + args + extra, cwd=ROOT, check=False).returncode
    failed = 0
    for name in WORKLOADS:
        argv = args[:at] + [name] + args[at + 1:]
        failed += subprocess.run([program] + argv + extra, cwd=ROOT, check=False).returncode != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
