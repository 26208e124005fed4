#!/usr/bin/env python3
"""Build the benchmark and the program from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 10 --trace 0

Everything the build and the run write goes under .bench_build/ in the
checkout: the Go build cache, the binaries, the servers' cache dirs and
logs, and the trace files of traced runs. The last line of standard
output is the benchmark's JSON result; build output goes to standard
error.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")
RUN = os.path.join(BUILD, "run")


def go_env():
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    tmp = os.path.join(BUILD, "tmp")
    for d in (home, tmp):
        os.makedirs(d, exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "HOME": home,
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    return env


def build(env):
    steps = [
        (ROOT, ["go", "build", "-o", os.path.join(BIN, "mcaserved"), "./cmd/mcaserved"]),
        (os.path.join(ROOT, "perfbench"), ["go", "build", "-o", os.path.join(BIN, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        res = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            sys.exit(2)


def main():
    os.makedirs(BIN, exist_ok=True)
    env = go_env()
    build(env)
    # A run that was killed may have left its servers' cache dirs behind.
    shutil.rmtree(RUN, ignore_errors=True)
    os.makedirs(RUN)
    cmd = [os.path.join(BIN, "perfbench")] + sys.argv[1:] + [
        "-mcaserved", os.path.join(BIN, "mcaserved"),
        "-out", RUN,
    ]
    sys.stdout.flush()
    res = subprocess.run(cmd, cwd=ROOT, env=env)
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
