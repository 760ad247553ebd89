#!/usr/bin/env python3
"""Build and run the HSU-Sim benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fig9_4sm --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The driver binary, hsu_perfbench, is compiled from perfbench/ (which
pulls the simulator libraries from src/) into .bench_build/perfbench.
Build output goes to stderr; the binary's last stdout line is the JSON
result. --selftest feeds every output check one wrong value and expects
each run to fail.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "hsu_perfbench")
WORKLOADS = ("fig9_4sm", "sweep_80sm", "serve_2x2")

# (workload, check) pairs the self-test corrupts; every check the
# binary runs appears here once. The schedule lint only runs traced.
SELFTEST = (
    ("fig9_4sm", "issue_conservation", 0),
    ("fig9_4sm", "rtu_beats", 0),
    ("fig9_4sm", "rtu_beats_baseline", 0),
    ("fig9_4sm", "determinism", 0),
    ("fig9_4sm", "exact_skipping", 0),
    ("fig9_4sm", "btree_spot", 0),
    ("fig9_4sm", "kdtree_spot", 0),
    ("fig9_4sm", "lbvh_spot", 0),
    ("sweep_80sm", "issue_conservation", 0),
    ("serve_2x2", "serve_completed", 0),
    ("serve_2x2", "serve_answers", 0),
    ("serve_2x2", "serve_launches", 0),
    ("serve_2x2", "serve_latency_log", 0),
    ("serve_2x2", "determinism", 0),
    ("serve_2x2", "schedule_lint", 1),
)


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def refuse_hsu_env():
    # HSU_INDEX_CACHE makes set-up bimodal (cold build vs disk load)
    # and HSU_JOBS / HSU_SIM_JOBS change what is measured, so every
    # knob must come from the benchmark itself.
    knobs = sorted(k for k in os.environ if k.startswith("HSU_"))
    if knobs:
        fail("refusing to run with HSU_* variables set: " + ", ".join(knobs))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/CMakeLists.txt) not found next to "
             "perfbench/; run from the root of a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "hsu_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        if not os.path.isdir(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256-src:" + digest.hexdigest()[:16]


def run_binary(args):
    proc = subprocess.run([BINARY] + args)
    return proc.returncode


def selftest():
    ok = True
    for workload, check, trace in SELFTEST:
        proc = subprocess.run(
            [BINARY, "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", str(trace), "--corrupt", check],
            capture_output=True, text=True)
        caught = proc.returncode != 0 and \
            ("check " + check + " FAILED") in proc.stderr
        print("%-11s %-20s %s (exit %d)" % (
            workload, check, "caught" if caught else "MISSED",
            proc.returncode))
        ok = ok and caught
    print("selftest: " + ("every check failed on its corrupted input"
                          if ok else "some check did not fail"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="corrupt each check in turn; expect failures")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    refuse_hsu_env()
    build()
    if args.selftest:
        return selftest()
    return run_binary(["--workload", args.workload,
                       "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace),
                       "--source", source_id()])


if __name__ == "__main__":
    sys.exit(main())
