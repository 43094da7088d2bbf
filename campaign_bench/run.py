#!/usr/bin/env python3
"""Build and run the campaign-level benchmark of Benchpark-CPP.

Run from the root of a checkout:

    python3 campaign_bench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Workloads: campaign_cold, campaign_warm, kernels_native, service_soak
(README.md in this directory says what each measures).

The first run configures and builds the benchmark package (this
directory's CMakeLists.txt, which compiles the library from ../src) under
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild only what
changed. Each run also runs the benchmark's own tests. The harness then
runs in a private mount namespace with a tmpfs mounted on .bench_work, so
every file a campaign writes stays inside the checkout and lives in
memory; where namespaces are unavailable it runs on the checkout's own
filesystem, and its output says which.

The last line of standard output is the harness's JSON result. The
script exits non-zero, without a result, when the program's sources are
missing, the build or the tests fail, or the harness fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("campaign_cold", "campaign_warm", "kernels_native", "service_soak")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be > 0 and --seed >= 0")
    return args


def build():
    """Configure once, then build incrementally. Returns the build dir."""
    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target_root), "campaign_bench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "-j",
                    str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir


def harness_command(build_dir, args, work_dir):
    harness = [os.path.join(build_dir, "campaign_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    unshare = shutil.which("unshare")
    namespace = ["--mount", "--propagation", "private"]
    if os.geteuid() != 0:
        namespace.insert(0, "--map-root-user")
    if unshare is None or subprocess.run(
            [unshare, *namespace, "true"], capture_output=True).returncode:
        log("no private mount namespace; running on disk")
        return harness
    # Mount a private tmpfs over the work directory, then exec the
    # harness in its place; if the mount is refused, run on disk.
    script = ('mount -t tmpfs -o size=2g,mode=0700 campaign_bench "$0" '
              '|| echo "run.py: no tmpfs; running on disk" >&2; '
              'exec "$@"')
    return [unshare, *namespace, "sh", "-c", script, work_dir, *harness]


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    args = parse_args()
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no program sources in {ROOT}/src; nothing to benchmark")
        return 2
    try:
        build_dir = build()
        subprocess.run(["ctest", "--test-dir", build_dir,
                        "--output-on-failure"],
                       check=True, stdout=sys.stderr, timeout=120)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log(f"build or benchmark tests failed: {e}")
        return 1

    work_dir = os.path.join(os.getcwd(), ".bench_work")
    os.makedirs(work_dir, exist_ok=True)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("BENCHPARK_")}
    command = harness_command(build_dir, args, work_dir)
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the harness and waits for it on timeout.
        log(f"harness exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
    if proc.returncode != 0 or not lines:
        log(f"harness exited with {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("harness printed no JSON result")
        return 1
    expected = expected_metrics(args.trace)
    if expected is not None and sorted(result["metrics"]) != sorted(expected):
        missing = set(expected) - set(result["metrics"])
        extra = set(result["metrics"]) - set(expected)
        log(f"metrics differ from BENCHMARK.json: missing {sorted(missing)}, "
            f"unexpected {sorted(extra)}")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
