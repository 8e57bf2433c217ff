#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. It builds the `perfbench` package
(its own Cargo package, which depends on the workspace crates by path) into
$CARGO_TARGET_DIR, or `perfbench/target` when that is unset, then runs it. The
benchmark's last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; this script checks that it is there and
exits non-zero when the build, the run or that line is missing. A traced
run (`--trace 1`) also writes its spans to
`perfbench/out/spans-<workload>.jsonl`.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Longest a single run may take; the benchmark itself stops well before.
RUN_TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        # One file per workload, overwritten by the next traced run, so
        # repeated runs do not pile up span files.
        cmd += ["--spans", os.path.join(out_dir, f"spans-{args.workload}.jsonl")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    sys.stdout.write(run.stdout)
    if run.returncode != 0 or not lines:
        print(f"perfbench: run exited with {run.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("perfbench: last line is not a JSON result", file=sys.stderr)
        return 1
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("perfbench: result line has the wrong keys", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
