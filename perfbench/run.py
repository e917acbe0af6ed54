#!/usr/bin/env python3
"""Builds and runs the PANDA layer-ledger benchmark.

    python3 perfbench/run.py --workload grid-gateway --seed 1 --seconds 10 --trace 0

Builds the benchmark package (``perfbench/Cargo.toml``, offline, release) into
``$CARGO_TARGET_DIR`` (default ``.bench_build`` at the repository root), runs
one workload, and prints the benchmark's lines followed by one JSON result
object as the last line of standard output. The environment stamp (hardware
threads, build profile, telemetry cfg, git commit, source digest, seed, open-loop
rate) is printed on the ``env`` line and saved with the result under
``.perfbench_out/``.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds, so results from
    different code are told apart even without git metadata."""
    h = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]
    paths = []
    for top in tops:
        full = os.path.join(ROOT, top)
        if os.path.isfile(full):
            paths.append(top)
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", ".bench_build"))
            for name in filenames:
                paths.append(os.path.relpath(os.path.join(dirpath, name), ROOT))
    for rel in sorted(paths):
        h.update(rel.encode())
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("Cargo.toml", "crates", "vendor", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found under {ROOT}: run from a full checkout", code=2)

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")

    exe = os.path.join(target, "release", "perfbench")
    cmd = [
        exe, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(float(args.seconds)), "--trace", str(args.trace),
        "--out-dir", OUT_DIR,
    ]
    try:
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark did not finish: {e}")
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        fail(f"benchmark exited with code {run.returncode}")

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        fail(f"no result line: {e}")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} are not {sorted(RESULT_KEYS)}")

    record = {}
    for line in lines[:-1]:
        tag, _, rest = line.partition(" ")
        if tag in ("env", "detail"):
            record[tag] = json.loads(rest)
            if tag == "env":
                record[tag].update(git_commit=git_commit(), source_digest=source_digest())
                line = "env " + json.dumps(record[tag])
        print(line)
    record["result"] = result
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
