#!/usr/bin/env python3
"""Builds and runs the stepbench benchmark from the root of a checkout.

    python3 stepbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `stepbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), prints one `{"machine": ...}` line describing the
machine and environment, then runs the benchmark binary with the same
arguments. Its last stdout line is the result object. Rank processes and
temporary files stay inside the checkout (TMPDIR is pointed at
`.bench_tmp`). A run that outlives its deadline is killed with every
process it started and reported as one failed operation.
"""

import json
import os
import platform
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "stepbench", "Cargo.toml")
# Whole-run deadline for the benchmark binary; the build is not counted.
RUN_DEADLINE_S = 170


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine():
    env = {k: v for k, v in sorted(os.environ.items()) if k.startswith("A2SGD_")}
    env["RAYON_NUM_THREADS"] = os.environ.get("RAYON_NUM_THREADS")
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "--version"]),
        # A checkout without .git has no revision (git would report a parent's).
        "git_rev": command_output(["git", "rev-parse", "HEAD"])
        if os.path.exists(os.path.join(ROOT, ".git"))
        else None,
        "env": env,
    }


def kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def main():
    target = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    tmp = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, CARGO_TARGET_DIR=target, TMPDIR=tmp)

    if not os.path.exists(MANIFEST) or shutil.which("cargo") is None:
        print("stepbench: no Cargo manifest or cargo on PATH", file=sys.stderr)
        return 2
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("stepbench: build failed", file=sys.stderr)
        return 2

    print(json.dumps({"machine": machine()}), flush=True)
    binary = os.path.join(target, "release", "stepbench")
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        proc.wait()
        print(f"stepbench: run exceeded {RUN_DEADLINE_S} s and was killed", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}), flush=True)
        return 1
    finally:
        # Rank processes share the binary's process group; none may outlive it.
        kill_group(proc)
    return code


if __name__ == "__main__":
    sys.exit(main())
