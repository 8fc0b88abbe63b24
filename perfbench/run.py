#!/usr/bin/env python3
"""Build the benchmark from source, then replace this process with it.

Run from the repository root:

    python3 perfbench/run.py --workload publish-sal --seed 1 --seconds 30 --trace 0

Build outputs, the Go build cache, the go command's configuration and the
server workload's temporary store all live under the build directory
($CARGO_TARGET_DIR, default .bench_build), so a run reads and writes only
inside the checkout. GOPROXY=off keeps the build offline: the benchmark needs
nothing beyond the repository and the standard library. The benchmark binary
replaces this process (exec), so it starts no child that could outlive it.
"""
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "perfbench")


def main():
    build = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    work = os.path.join(build, "work")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="",
        GOWORK="off",
        GOENV="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    # An interrupted build can leave its work directory behind; runs in one
    # checkout are sequential, so the next run clears it.
    shutil.rmtree(env["GOTMPDIR"], ignore_errors=True)
    os.makedirs(env["GOTMPDIR"])
    binary = os.path.join(build, "perfbench")

    # Interrupt the compiler on INT or TERM and wait for it, so an
    # interrupted build leaves no process behind.
    interrupted, builds = [], []

    def forward(signum, frame):
        interrupted.append(signum)
        for proc in builds:
            proc.send_signal(signal.SIGINT)

    signal.signal(signal.SIGINT, forward)
    signal.signal(signal.SIGTERM, forward)
    builds.append(subprocess.Popen(["go", "build", "-o", binary, "."], cwd=SRC, env=env,
                                   stdout=sys.stderr, stderr=sys.stderr))
    if interrupted:
        builds[0].send_signal(signal.SIGINT)
    code = builds[0].wait()
    if interrupted:
        sys.exit(130)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(1)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    sys.stdout.flush()
    os.execve(binary, [binary, "--workdir", work] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
