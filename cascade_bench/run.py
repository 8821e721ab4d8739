#!/usr/bin/env python3
"""Entry point of the cascade benchmark.

Builds cascade_bench from the sources of this checkout (a Release build
under .bench_build/), pins the environment, runs one workload and prints,
as its last line, the JSON result holding exactly the metrics that
BENCHMARK.json lists for the mode (end_to_end with --trace 0, per_layer
with --trace 1).

    python3 cascade_bench/run.py --workload cascade_offline --seed 1 \
        --seconds 10 --trace 0 --host-s-per-image 0.002
    python3 cascade_bench/run.py --self-test --host-s-per-image 0.002

The first run in a checkout also trains Model A and the BNN into the weight
cache (.bench_build/cache), in a process of its own before the measured one.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_build"
BUILD = WORK / "cmake"
BINARY = BUILD / "cascade_bench" / "cascade_bench"
WORKLOADS = ("cascade_offline", "serve_faulted_fleet", "scene_cut")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
# Knobs that would change what is measured; the binary refuses to run
# with any of them set (MPCNN_TUNE must be exactly "off").
UNSET = ("MPCNN_ISA", "MPCNN_BNN_EXEC", "MPCNN_INTEGRITY", "MPCNN_TUNE_CACHE")


class BenchError(Exception):
    pass


def log(message):
    print(f"[cascade_bench] {message}", file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def run(command, **kwargs):
    """subprocess.run that never leaves the child behind: on any exit of
    this script (error, SIGTERM) the child is killed and waited for."""
    proc = subprocess.Popen(command, text=True, **kwargs)
    try:
        out, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return subprocess.CompletedProcess(command, proc.returncode, out)


def check(command, **kwargs):
    result = run(command, **kwargs)
    if result.returncode != 0:
        raise BenchError(f"{command[0]} exited with {result.returncode}")


def bench_env():
    env = dict(os.environ)
    env["MPCNN_THREADS"] = str(min(nproc(), 4))
    env["MPCNN_TUNE"] = "off"
    env["MPCNN_CACHE_DIR"] = str(WORK / "cache")
    for name in UNSET:
        env.pop(name, None)
    return env


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no mpcnn sources at {ROOT} to build from")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(ROOT), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release", "-DMPCNN_SANITIZE=",
                     f"-DCMAKE_PROJECT_mpcnn_INCLUDE={BENCH_DIR / 'attach.cmake'}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        log("configuring the Release build")
        check(configure, stdout=sys.stderr)
    check(["cmake", "--build", str(BUILD), "--target", "cascade_bench",
           "-j", str(nproc())], stdout=sys.stderr)


def prepare(args):
    """Trains a cold weight cache in a process of its own, so a measured
    process never carries training's memory or time."""
    check([str(BINARY), "prepare", "--host-s-per-image",
           repr(args.host_s_per_image)], env=bench_env(), stdout=sys.stderr)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def host_s_per_image(spec):
    """The pinned host latency passed on BENCHMARK.json's command line."""
    command = spec["command"]
    flag = command.index("--host-s-per-image")
    return float(command[flag + 1])


def select(result, listed):
    """Keeps exactly the listed metrics, in BENCHMARK.json's order."""
    metrics = {}
    for entry in listed:
        name, unit = entry["name"], entry["unit"]
        got = result["metrics"].get(name)
        if got is None:
            raise BenchError(f"metric {name} missing from the run")
        if got["unit"] != unit:
            raise BenchError(f"metric {name} in {got['unit']}, listed in {unit}")
        metrics[name] = got
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def run_workload(args):
    spec = load_spec()
    build()
    prepare(args)
    command = [str(BINARY), "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--host-s-per-image", repr(args.host_s_per_image),
               "--out-dir", str(WORK / "results")]
    proc = run(command, env=bench_env(), stdout=subprocess.PIPE)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        raise BenchError(f"cascade_bench exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps(select(json.loads(lines[-1]), listed)))


def check_spec(spec):
    """Structural checks of BENCHMARK.json; returns a list of problems."""
    problems = []
    names = set()
    for section in ("end_to_end", "per_layer"):
        for entry in spec[section]:
            name, unit = entry["name"], entry["unit"]
            if not NAME.fullmatch(name) or name in names:
                problems.append(f"bad or repeated metric name {name!r}")
            names.add(name)
            if not UNIT.fullmatch(unit):
                problems.append(f"bad unit {unit!r} of {name}")
            if section == "end_to_end" and not 0 < entry["bound"] <= 0.25:
                problems.append(f"bound of {name} outside (0, 0.25]")
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s (s, lower) missing")
    elif setup[0]["bound"] != max(e["bound"] for e in spec["end_to_end"]):
        problems.append("setup_s must carry the largest bound")
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        problems.append("BENCHMARK.json names a workload the benchmark lacks")
    return problems


def self_test(args):
    spec = load_spec()
    problems = check_spec(spec)
    listed = [{"name": "a", "unit": "s"}]
    try:
        select({"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"a": {"value": 1.0, "unit": "ms"}}}, listed)
        problems.append("a unit mismatch was not rejected")
    except BenchError:
        pass
    try:
        select({"correct": True, "attempted": 1, "failed": 0,
                "metrics": {}}, listed)
        problems.append("a missing metric was not rejected")
    except BenchError:
        pass
    for problem in problems:
        print(f"FAIL: {problem}")
    build()
    proc = run([str(BINARY), "selftest", "--host-s-per-image",
                repr(args.host_s_per_image), "--out-dir", str(WORK / "results")],
               env=bench_env())
    ok = proc.returncode == 0 and not problems
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    # A terminated run still unwinds through run()'s cleanup.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--host-s-per-image", type=float)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.host_s_per_image is None:
            args.host_s_per_image = host_s_per_image(load_spec())
        if args.self_test:
            return self_test(args)
        if args.workload is None:
            parser.error("--workload is required")
        run_workload(args)
        return 0
    except (BenchError, OSError, KeyError, ValueError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
