#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the repository root.

    python3 perfbench/run.py --workload batch-nba --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --selftest --seconds 8

The Go program is built from source into .bench_build/ with every Go
cache, temporary and home directory kept under .bench_build/ too, so the
benchmark reads and writes only inside the checkout. All arguments are
passed to the program (see perfbench/main.go); --workload all runs each
workload in its own process and prints one combined JSON line whose
metric names are prefixed with the workload.
"""

import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["batch-nba", "batch-syn", "stream-window", "daemon-shared"]


def go_env(build):
    env = dict(os.environ)
    for key, sub in [("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOMODCACHE", "gopath/pkg/mod"), ("GOTMPDIR", "tmp"),
                     ("TMPDIR", "tmp"), ("HOME", "home"),
                     ("XDG_CONFIG_HOME", "home/.config"),
                     ("XDG_CACHE_HOME", "home/.cache")]:
        path = os.path.join(build, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOTELEMETRY="off",
               CGO_ENABLED="0")
    return env


def build(root):
    """Compile ./perfbench into .bench_build/perfbench; exit non-zero on failure."""
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "internal"))):
        sys.exit("perfbench: no go.mod and internal/ here; run from the repository root")
    go = shutil.which("go")
    if go is None:
        sys.exit("perfbench: the go toolchain is not on PATH")
    out = os.path.join(root, ".bench_build")
    env = go_env(out)
    binary = os.path.join(out, "perfbench")
    proc = subprocess.run([go, "build", "-o", binary, "./perfbench"],
                          cwd=root, env=env, stdout=sys.stderr)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")
    return binary, env


def main():
    root = os.getcwd()
    binary, env = build(root)
    args = sys.argv[1:]
    workload = None
    for i, arg in enumerate(args):
        if arg == "--workload" and i + 1 < len(args):
            workload = args[i + 1]
        elif arg.startswith("--workload="):
            workload = arg.split("=", 1)[1]
    if workload != "all":
        sys.exit(subprocess.run([binary] + args, cwd=root, env=env).returncode)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        run_args = [name if a == "all" else a for a in args]
        run_args = ["--workload=" + name if a == "--workload=all" else a for a in run_args]
        proc = subprocess.run([binary] + run_args, cwd=root, env=env,
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            sys.exit(proc.returncode)
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            combined["metrics"][name + "/" + key] = val
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
