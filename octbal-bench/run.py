#!/usr/bin/env python3
"""Build and run the octbal wall-clock benchmark.

    python3 octbal-bench/run.py --workload icesheet --seed 1 --seconds 40 --trace 0

Run from the repository root.  The first call configures and builds the
library and the benchmark binary (RelWithDebInfo) under
$CARGO_TARGET_DIR/octbal-bench, default .bench_build/octbal-bench; later
calls only re-check the build.  Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result.  Before that line is
printed, its metric names and units are checked against BENCHMARK.json.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MAX_JOBS = 4


def fail(msg, code=2):
    print(f"octbal-bench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no octbal sources under {ROOT}/src")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "octbal-bench")
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(MAX_JOBS, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "octbal_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "octbal_bench")


def check_result(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json
    declares for this mode, with the declared units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in json.loads(line)["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        units = sorted(k for k in set(got) & set(declared)
                       if got[k] != declared[k])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"undeclared {extra}, unit mismatch {units}", 3)


def main():
    args = sys.argv[1:]
    binary = build()
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with {proc.returncode}", proc.returncode or 2)
    trace = "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]
    check_result(lines[-1], trace)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
