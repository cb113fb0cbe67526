#!/usr/bin/env python3
"""Build and run the rfidmon_bench harness (python3 stdlib only).

Run from the repository root. The harness is built from source into
.bench_build/suite on first use (about a minute on 4 cores).

One workload, one run; the last stdout line is the JSON result:
  python3 bench/suite/run.py --workload svc_trp --seed 7 --seconds 25 --trace 0

The suite: every workload untraced then traced, rows on stdout, a JSON
file with the git sha, core count, build type and seed:
  python3 bench/suite/run.py --seed 20080617 --out result.json
  python3 bench/suite/run.py --out base.json --sets a,b --repeat 5

Smoke: every workload at a tiny size, all correctness checks, and the exact
air_ms_per_run values compared with smoke_golden.json:
  python3 bench/suite/run.py --smoke

Exit status: 0 when every run passed its checks, 1 when one failed, 2 when
the harness could not be built or the flags are wrong.
"""

import argparse
import datetime
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "suite"
BINARY = BUILD / "rfidmon_bench"
WORK_DIR = ROOT / ".bench_build" / "tmp"
GOLDEN = HERE / "smoke_golden.json"
WORKLOADS = ("svc_trp", "svc_utrp", "svc_watch", "fleet_2m")
EXACT = ("air_ms_per_run",)
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170
SMOKE_SEED = 20080617


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the harness; exits 2 when that is impossible."""
    if not (ROOT / "CMakeLists.txt").is_file():
        log(f"no rfidmon sources at {ROOT}; cannot build")
        sys.exit(2)
    cmake = shutil.which("cmake")
    if cmake is None:
        log("cmake not found")
        sys.exit(2)
    steps = [[cmake, "--build", str(BUILD), "--target", "rfidmon_bench",
              "-j", str(min(4, os.cpu_count() or 1))]]
    if not (BUILD / "CMakeCache.txt").exists():
        # Later builds re-run CMake by themselves when a build file changes.
        configure = [cmake, "-S", str(HERE), "-B", str(BUILD),
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.insert(0, configure)
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build failed: " + " ".join(step))
            sys.exit(2)


def run_binary(workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (exit code, stdout lines, parsed result).

    The harness and the service process it starts run in a process group
    of their own; on a timeout or a SIGTERM the whole group is killed and
    the harness waited for, so no process outlives this script.
    """
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", str(WORK_DIR)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        # The service process is not this script's child: wait until the
        # group is empty (or holds only an unreaped zombie, for 5 s).
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)

    def on_sigterm(*_):
        kill_group()
        sys.exit(1)

    previous = signal.signal(signal.SIGTERM, on_sigterm)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group()
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return 1, [], None
    finally:
        signal.signal(signal.SIGTERM, previous)
    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    code = proc.returncode
    if result is None and code == 0:
        code = 1
    return code, lines, result


def git_sha():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def single(args):
    code, lines, _ = run_binary(args.workload, args.seed, args.seconds,
                                args.trace == 1)
    for line in lines:
        print(line)
    return code


def suite(args):
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    sets = [s for s in args.sets.split(",") if s]
    runs = []
    status = 0
    for rep in range(args.repeat):
        # Alternate which set goes first, so drift over time hits both.
        order = sets if rep % 2 == 0 else list(reversed(sets))
        for label in order:
            for workload in workloads:
                for trace in (False, True):
                    code, lines, result = run_binary(
                        workload, args.seed, args.seconds, trace)
                    for line in lines[:-1]:
                        print(f"{label} {line}" if len(sets) > 1 else line,
                              flush=True)
                    if code != 0 or result is None:
                        status = 1
                        log(f"{workload} (trace {int(trace)}) failed")
                    runs.append({"set": label, "repeat": rep,
                                 "workload": workload, "trace": trace,
                                 "exit": code, "result": result})
    report = {
        "meta": {
            "git_sha": git_sha(),
            "nproc": os.cpu_count(),
            "build_type": BUILD_TYPE,
            "seed": args.seed,
            "seconds": args.seconds,
            "host": platform.platform(),
            "date": datetime.datetime.now(
                datetime.timezone.utc).isoformat(timespec="seconds"),
        },
        "runs": runs,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return status


def smoke(args):
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    observed = {}
    status = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            code, lines, result = run_binary(workload, SMOKE_SEED, 1, trace,
                                             smoke=True)
            if code != 0 or result is None or not result["correct"]:
                log(f"smoke {workload} (trace {int(trace)}) failed")
                status = 1
                continue
            if not trace:
                observed[workload] = {
                    name: result["metrics"][name]["value"] for name in EXACT}
    if args.update_golden:
        GOLDEN.write_text(json.dumps(observed, indent=1, sort_keys=True)
                          + "\n")
        log(f"wrote {GOLDEN}")
        return status
    for workload, values in observed.items():
        for name, value in values.items():
            want = golden.get(workload, {}).get(name)
            if want != value:
                log(f"smoke {workload} {name}: {value!r}, golden {want!r}")
                status = 1
    if status == 0:
        log("smoke passed")
    return status


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20080617)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run one workload once, untraced (0) or "
                             "traced (1)")
    parser.add_argument("--out", help="suite: write the JSON result here")
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite: repetitions of every run")
    parser.add_argument("--sets", default="a",
                        help="suite: comma-separated set labels; each "
                             "repetition runs every set, alternating order")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--update-golden", action="store_true",
                        help="smoke: rewrite smoke_golden.json")
    args = parser.parse_args()
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    build()
    if args.smoke:
        return smoke(args)
    if args.trace is not None:
        return single(args)
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())
