#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

Usage, from the repository root:

    python3 perfbench/run.py --workload mapd-cold --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --selftest

The Go program under perfbench/ is built from source into .bench_build/
(build cache, temporary files and Go's own config included, so nothing is
written outside the checkout), then run once for the requested workload.
Its standard output passes through unchanged; the last line is the JSON
result. The exit code is the benchmark's: non-zero on a failed build, a
failed output check or a run that did not finish.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT_S = 800  # a cold build compiles the standard library too
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("TMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOFLAGS="", GOWORK="off", CGO_ENABLED="0", GOPROXY="off")
    return env


def build():
    os.makedirs(BUILD, exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                          stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return proc.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["mapd-cold", "runtime-mix"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true", help="check seed determinism and exit")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    try:
        ok = build()
    except subprocess.TimeoutExpired:
        ok = False
    if not ok:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [BINARY, "-root", ROOT]
    if args.selftest:
        cmd.append("-selftest")
    else:
        cmd += ["-workload", args.workload, "-seed", str(args.seed),
                "-seconds", str(args.seconds), "-trace", str(args.trace)]
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    # A SIGTERM to this script ends the benchmark process too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    with subprocess.Popen(cmd, cwd=ROOT, env=env) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("perfbench: run timed out", file=sys.stderr)
            return 1
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


if __name__ == "__main__":
    sys.exit(main())
