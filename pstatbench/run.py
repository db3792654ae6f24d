#!/usr/bin/env python3
"""Run one workload of the pstat benchmark and print its result.

    python3 pstatbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the harness (pstatbench/CMakeLists.txt builds the pstat library
from this repository's sources) into $CARGO_TARGET_DIR, or .bench_build,
under the repository root. Runs it in a fresh private directory that is
removed afterwards, so every generated shard, result shard and socket
lives and dies with the run. Checks the result line against
BENCHMARK.json and prints it last. Per-layer metrics of layers a
workload does not reach are printed as 0.

Exit codes: 0 when every output check passed, 1 when one failed (the
result still prints, with "correct": false), 2 when the benchmark could
not run at all (no result).
"""

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run measures for --seconds; the harness must finish well inside the
# 180 s a run is allowed, build excluded.
HARNESS_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


def spec_problems(spec):
    """Every way a BENCHMARK.json document breaks the benchmark contract."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        problems.append(f"keys {sorted(spec)} != {sorted(keys)}")
        return problems
    seen = set()

    def name_ok(name, where):
        if not isinstance(name, str) or not NAME.match(name):
            problems.append(f"{where}: bad name {name!r}")
        elif name in seen:
            problems.append(f"{where}: {name} used twice")
        seen.add(name)

    for w in spec["workloads"]:
        if set(w) != {"name", "why"}:
            problems.append(f"workload keys {sorted(w)}")
            continue
        name_ok(w["name"], "workload")
        if not w["why"] or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w['name']}: why must be one line")
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("2 to 8 workloads")
    for kind, lo, hi in (("end_to_end", 1, 16), ("per_layer", 1, 128)):
        metrics = spec[kind]
        if not lo <= len(metrics) <= hi:
            problems.append(f"{kind}: {lo} to {hi} metrics")
        want = ({"name", "unit", "better", "bound"} if kind == "end_to_end"
                else {"name", "unit", "better"})
        for m in metrics:
            if set(m) != want:
                problems.append(f"{kind} {m.get('name')}: keys {sorted(m)}")
                continue
            name_ok(m["name"], kind)
            if not UNIT.match(m["unit"]):
                problems.append(f"{m['name']}: bad unit {m['unit']!r}")
            if m["better"] not in ("lower", "higher"):
                problems.append(f"{m['name']}: better is lower or higher")
            if kind == "end_to_end" and not (
                    isinstance(m["bound"], (int, float))
                    and 0 < m["bound"] <= 0.25):
                problems.append(f"{m['name']}: bound in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m.get("name") == "setup_s"]
    if (len(setup) != 1 or setup[0]["unit"] != "s"
            or setup[0]["better"] != "lower"):
        problems.append("setup_s (unit s, better lower) is required")
    elif any(m.get("bound", 0) > setup[0]["bound"]
             for m in spec["end_to_end"]):
        problems.append("setup_s must have the largest bound")
    if (not isinstance(spec["run_seconds"], int)
            or not 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds is a whole number from 1 to 60")
    return problems


def load_spec():
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    problems = spec_problems(spec)
    if problems:
        raise BenchError("BENCHMARK.json: " + "; ".join(problems))
    return spec


def complete_result(result, spec, trace):
    """Check a harness result against the spec; fill unreached layers.

    Returns the result with its metrics in spec order. Raises BenchError
    on a missing end-to-end metric, an undeclared metric, a wrong unit or
    a non-finite value.
    """
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        raise BenchError(f"result keys: {sorted(result)}")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise BenchError(f"{key} must be a whole number")
    if result["attempted"] < 1:
        raise BenchError("nothing was attempted")
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    undeclared = sorted(set(got) - set(units))
    if undeclared:
        raise BenchError(f"undeclared metrics: {undeclared}")
    metrics = {}
    for name, unit in units.items():
        if name not in got:
            if not trace:
                raise BenchError(f"missing end-to-end metric {name}")
            metrics[name] = {"value": 0.0, "unit": unit}
            continue
        value = got[name].get("value")
        if got[name].get("unit") != unit:
            raise BenchError(f"{name}: unit {got[name].get('unit')!r}, "
                             f"declared {unit!r}")
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            raise BenchError(f"{name}: value {value!r} is not finite")
        metrics[name] = {"value": value, "unit": unit}
    return dict(result, metrics=metrics)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                        or ".bench_build")


def build():
    """Configure and build the harness; returns its path."""
    out = os.path.join(build_dir(), "pstatbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for step in (["cmake", "-S", HERE, "-B", out,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", out, "-j", jobs]):
        proc = subprocess.run(step, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            raise BenchError("build failed: " + " ".join(step))
    return os.path.join(out, "pstatbench")


def harness_env():
    # PSTAT_* knobs (lanes, ladder, certification, SIMD, summation)
    # would change what the workloads run; the benchmark pins its own.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("PSTAT_")}


def run_harness(binary, args):
    """Run one workload in a private directory; returns (rc, stdout)."""
    runs = os.path.join(build_dir(), "runs")
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(runs, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}.tsv")]
    try:
        proc = subprocess.run(command, cwd=workdir, env=harness_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"harness ran past {HARNESS_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return proc.returncode, proc.stdout


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload}")
        if not args.seconds > 0:
            raise BenchError("--seconds must be positive")
        rc, out = run_harness(build(), args)
        lines = out.rstrip("\n").split("\n")
        if rc not in (0, 1):
            sys.stderr.write(out)
            raise BenchError(f"harness exited with {rc}")
        result = complete_result(json.loads(lines[-1]), spec, args.trace)
    except (BenchError, OSError, ValueError) as error:
        print(f"pstatbench: {error}", file=sys.stderr)
        return 2
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if rc == 0 and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
