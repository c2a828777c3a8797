#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 tombench/run.py --workload <name|all> --seed N --seconds S --trace 0|1
    python3 tombench/run.py --selftest

Run from the repository root. Builds the library and the tombench binary with
CMake into $CARGO_TARGET_DIR/tombench (default .bench_build/tombench),
runs it, checks that its result line reports exactly the
metrics BENCHMARK.json lists for the mode (end_to_end for --trace 0,
per_layer for --trace 1) with their units, and prints that line last.
Exits nonzero when the build fails, an output check fails, or the
result does not match BENCHMARK.json.
"""
import json
import os
import shutil
import subprocess
import sys

PACKAGE = os.path.dirname(os.path.abspath(__file__))


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(target):
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(root), "tombench")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [["cmake", "-S", PACKAGE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
             ["cmake", "--build", build_dir, "--target", target,
              "-j", str(os.cpu_count() or 1)]]
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build step failed: " + " ".join(step))
    return build_dir


def expected_metrics(trace):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace, all_workloads):
    try:
        result = json.loads(line)
    except ValueError:
        fail("tombench's last line is not JSON: " + line[:200])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(result))
    if all_workloads:
        return result
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit differs %s" % (missing, extra, wrong))
    return result


def main(argv):
    if argv == ["--selftest"]:
        build_dir = build("tombench_selftest")
        return subprocess.call([os.path.join(build_dir, "tombench_selftest")])

    args = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or not {"--workload", "--seed", "--seconds",
                             "--trace"} <= set(args):
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    build_dir = build("tombench")
    command = [os.path.join(build_dir, "tombench")] + argv + [
        "--expected", os.path.join(PACKAGE, "expected_placement.tsv"),
        "--work-dir", os.path.join(build_dir, "work")]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("tombench printed no result (exit %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    check_result(lines[-1], args["--trace"] != "0",
                 args["--workload"] == "all")
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
