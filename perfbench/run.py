#!/usr/bin/env python3
"""Build the DataPrism benchmark and run one workload.

    python3 perfbench/run.py --workload case_cold|serve_mixed \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds `dp-perfbench` and the
`dp_serve` daemon in release mode (into $CARGO_TARGET_DIR, default
`.bench_build`), runs one measurement, and passes its standard output
through: the run record, then the result line as the last line. Exits
non-zero, printing no result, when the build or the run fails.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("case_cold", "serve_mixed")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in 1..120")
    return args


def source_id():
    """The git commit when the checkout is a repository, else a digest
    of the sources the benchmark builds from."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and os.path.samefile(top.stdout.strip(), ROOT):
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0:
                return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("Cargo.toml", "Cargo.lock", "crates", "perfbench"):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            if os.path.isfile(name):
                digest.update(os.path.relpath(name, ROOT).encode())
                with open(name, "rb") as fh:
                    digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


def kill_group(proc):
    """Stop the run and anything it started (the daemon shares its
    process group), then reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def main():
    args = parse_args()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"),
         "-p", "dp-perfbench", "-p", "dp-serve", "--bins"],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "dp-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", os.path.join(release, "dp_serve"),
           "--commit", source_id()]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    kill_group(proc)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith('{"correct":'):
        sys.stderr.write(out)
        print(f"perfbench: run failed (exit {proc.returncode})", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
