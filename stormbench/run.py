#!/usr/bin/env python3
"""Build and run one workload of the StormTrack benchmark.

Usage, from the root of a StormTrack checkout:

    python3 stormbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 stormbench/run.py --self-test

The first call configures and builds the repository's libraries and the
benchmark binary into .bench_build/ (RelWithDebInfo); later calls only
re-check the build. The binary's standard output is passed through; its
last line is the JSON result. With --trace 0 it carries the end-to-end
metrics, with --trace 1 the per-layer metrics. --self-test runs every
workload briefly against deliberately corrupted references and checks
that each run reports correct=false and exits non-zero.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
BINARY = os.path.join(BUILD, "stormbench")
WORKLOADS = ("field_coupled", "particles_coupled", "realloc_scale", "daemon_sessions")
RUN_TIMEOUT_S = 170  # self-test runs only
OMP_THREADS = 2
BUILD_TIMEOUT_S = 850


def fail(message):
    print("stormbench: " + message, file=sys.stderr)
    sys.exit(2)


def child_env():
    """Compilers and the benchmark binary keep their temporary files in the
    checkout. OpenMP teams are capped at two threads unless the caller set
    OMP_NUM_THREADS: with the default of one thread per CPU beside the
    2-thread executor, the workloads that run OpenMP regions slowed up to
    fivefold whenever the shared host was busy (see stormbench/README.md)."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    env.setdefault("OMP_NUM_THREADS", str(OMP_THREADS))
    return env


def build():
    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail("no StormTrack sources here (missing %s); run from a checkout" % need)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "stormbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, env=child_env())
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if done.returncode != 0:
            fail("build step %s failed with status %d" % (" ".join(cmd[:2]), done.returncode))


def source_id():
    """git SHA when the checkout is a repository, else a hash of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0:
            dirty = subprocess.run(["git", "status", "--porcelain", "--", "src", "CMakeLists.txt",
                                    "stormbench"], cwd=ROOT, capture_output=True, text=True,
                                   timeout=10)
            return "git:" + sha.stdout.strip()[:12] + ("-dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "stormbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def workload_why(name):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            for w in json.load(f)["workloads"]:
                if w["name"] == name:
                    return w["why"]
    except (OSError, ValueError, KeyError):
        pass
    return ""


def binary_command(args):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-id", source_id(), "--why", workload_why(args.workload),
           "--work-dir", os.path.join(".bench_build", "work",
                                      "%s-%d-%d" % (args.workload, args.seed, os.getpid()))]
    if getattr(args, "corrupt_reference", False):
        cmd.append("--corrupt-reference")
    return cmd


def self_test():
    """Every workload must catch a corrupted reference."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=7, seconds=2, trace=trace,
                                      corrupt_reference=True)
            try:
                done = subprocess.run(binary_command(args), cwd=ROOT, env=child_env(),
                                      timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
            except subprocess.TimeoutExpired:
                fail("%s did not finish within %d s" % (name, RUN_TIMEOUT_S))
            last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            caught = (done.returncode == 1 and result.get("correct") is False
                      and result.get("failed", 0) > 0)
            print("self-test %-18s trace=%d corrupted reference %s (exit %d, failed %s of %s)"
                  % (name, trace, "caught" if caught else "NOT CAUGHT", done.returncode,
                     result.get("failed"), result.get("attempted")))
            ok = ok and caught
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and (args.workload is None or args.seed is None
                               or args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")
    build()
    if args.self_test:
        return self_test()
    # The binary replaces this process, so signals sent to the command reach
    # it directly and its exit status is the command's.
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execve(BINARY, binary_command(args), child_env())


if __name__ == "__main__":
    sys.exit(main())
