#!/usr/bin/env python3
"""Run one DynamIPs benchmark workload and print its result as JSON.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload gen-full|col-full|follow-serve \
      --seed N --seconds S --trace 0|1 [--threads T] [--scale X]

Builds the `dynbench` harness (perfbench/CMakeLists.txt, which compiles the
DynamIPs libraries from ../src) into $CARGO_TARGET_DIR, or `.bench_build`
when that is unset. Then it sets the workload up three times, timed
(`setup_s` is the median), and measures it for --seconds. All inputs come
from --seed. Working files live in `.bench_work/` and are removed at the
end. Traced runs (--trace 1) also leave a Chrome trace and a
`dynamips.bench.v1` document with a `layers` map in `.bench_out/`.

The last stdout line is
  {"correct": ..., "attempted": N, "failed": M, "metrics": {...}}
with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). The exit status is 0 only when every output check passed.
Malformed flags exit 2 and name the flag.
"""

import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("gen-full", "col-full", "follow-serve")
SETUP_REPEATS = 3
RUN_BUDGET_S = 170  # every run ends well inside the 180 s limit
USAGE = ("usage: python3 perfbench/run.py --workload " + "|".join(WORKLOADS) +
         " --seed N --seconds S --trace 0|1 [--threads T] [--scale X]")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def usage_error(flag, what, value):
    print(f"run.py: {flag}: {what} (got {value!r})", file=sys.stderr)
    print(USAGE, file=sys.stderr)
    sys.exit(2)


def parse_int(flag, text, lo, hi):
    if not re.fullmatch(r"[0-9]+", text) or not lo <= int(text) <= hi:
        usage_error(flag, f"expected an integer in [{lo}, {hi}]", text)
    return int(text)


def parse_args(argv):
    if len(argv) % 2:
        usage_error(argv[-1], "missing value", "")
    args = {}
    for flag, value in zip(argv[0::2], argv[1::2]):
        if flag == "--workload":
            if value not in WORKLOADS:
                usage_error(flag, "unknown workload; one of " + ", ".join(WORKLOADS), value)
            args["workload"] = value
        elif flag == "--seed":
            args["seed"] = parse_int(flag, value, 0, 2**64 - 1)
        elif flag == "--seconds":
            args["seconds"] = parse_int(flag, value, 1, 600)
        elif flag == "--trace":
            args["trace"] = parse_int(flag, value, 0, 1)
        elif flag == "--threads":
            args["threads"] = parse_int(flag, value, 1, 64)
        elif flag == "--scale":
            ok = re.fullmatch(r"[0-9]*\.?[0-9]+", value) and 0 < float(value) <= 3
            if not ok:
                usage_error(flag, "expected a number in (0, 3]", value)
            args["scale"] = value
        else:
            usage_error(flag, "unknown flag", value)
    for flag in ("workload", "seed", "seconds", "trace"):
        if flag not in args:
            usage_error("--" + flag, "required", "")
    return args


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no DynamIPs sources in src/ beside perfbench/; "
              "run from a full checkout", file=sys.stderr)
        sys.exit(1)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(build_dir)  # configured for another checkout
    if not os.path.isfile(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "dynbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "dynbench")


def main():
    args = parse_args(sys.argv[1:])
    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    started = time.monotonic()
    work = os.path.join(".bench_work", f"{args['workload']}-seed{args['seed']}-{os.getpid()}")
    common = ["--workload", args["workload"], "--seed", str(args["seed"]), "--dir", work]
    for flag in ("threads", "scale"):
        if flag in args:
            common += ["--" + flag, str(args[flag])]

    def remaining():
        return max(1.0, RUN_BUDGET_S - (time.monotonic() - started))

    try:
        setup_times = []
        for _ in range(SETUP_REPEATS if args["trace"] == 0 else 1):
            shutil.rmtree(work, ignore_errors=True)
            t0 = time.perf_counter()
            subprocess.run([binary, "setup"] + common, stdout=sys.stderr,
                           check=True, timeout=remaining())
            setup_times.append(time.perf_counter() - t0)
        run = subprocess.run(
            [binary, "run"] + common + ["--seconds", str(args["seconds"]),
                                        "--trace", str(args["trace"]),
                                        "--out-dir", ".bench_out"],
            stdout=subprocess.PIPE, text=True, timeout=remaining())
    except subprocess.CalledProcessError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as e:
        print(f"run.py: timed out: {e.cmd[:2]}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = run.stdout.strip().splitlines()
    if not lines:
        print(f"run.py: dynbench printed no result (exit {run.returncode})", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if args["trace"] == 0:
        result["metrics"] = {"setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                             **result["metrics"]}
    print(json.dumps(result))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
