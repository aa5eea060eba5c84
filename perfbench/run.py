#!/usr/bin/env python3
"""Build the benchmark from source and run it once.

    python3 perfbench/run.py --workload kv-mixed --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout. The Go build cache, the binary, the
scratch stores and the span files all live under .bench_build/ at the
root of the checkout; nothing is read from or written to the network or
the home directory. The last line of standard output is the benchmark's
JSON result. A failed build exits 1 without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "go-cache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env["GOMODCACHE"] = os.path.join(env["GOPATH"], "pkg", "mod")
    env.update(GOFLAGS="", GOENV="off", GOPROXY="off", GOSUMDB="off", GOTOOLCHAIN="local", GOWORK="off")
    return env


def build():
    """Build the benchmark binary; the go command rebuilds only what changed."""
    os.makedirs(os.path.dirname(BINARY), exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: build failed\n")
        return False
    return True


def main(argv):
    if not build():
        return 1
    out = os.path.join(BUILD, "perfbench")
    return subprocess.call([BINARY, "-out", out] + argv, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
