#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` crate (release, offline) against the repository's
crates, runs one workload and passes its output through. The last line
of standard output is the result object: `correct`, `attempted`,
`failed` and `metrics`. The build goes to `$CARGO_TARGET_DIR`
(default `.bench_build`); traced runs write their Chrome trace to
`.bench_out/`. Exits non-zero, printing no result, when the repository's
crates are absent, the build fails, the run fails its correctness check
or produces no valid result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("local_exchange", "federated_gossip", "standing_queries")
RUN_TIMEOUT_S = 170


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        print("perfbench: the repository's crates are missing; nothing to build", file=sys.stderr)
        return False
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    # Cargo's own output goes to stderr so stdout stays the result.
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (
        isinstance(result, dict)
        and sorted(result) == ["attempted", "correct", "failed", "metrics"]
        and isinstance(result["attempted"], int)
        and result["attempted"] >= 1
        and all(set(m) == {"value", "unit"} for m in result["metrics"].values())
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not build(env):
        return 2
    binary = os.path.join(ROOT, target, "release", "perfbench")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", os.path.join(ROOT, ".bench_out"),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines or not valid_result(lines[-1]):
        sys.stderr.write(out)
        print("perfbench: run failed (exit %d)" % proc.returncode, file=sys.stderr)
        return proc.returncode or 4
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
