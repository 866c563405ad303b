#!/usr/bin/env python3
"""One command for the HCC-MF end-to-end benchmark.

    python3 perfbench/run.py --workload train-node --seed 1 --seconds 20 --trace 0

Builds the benchmark binary from the sources in this checkout (CMake,
Release) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs one workload, and relays its report.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is non-zero when the build fails, a correctness
check fails, or the metrics printed do not match BENCHMARK.json.

    python3 perfbench/run.py --workload all --seed 1 --seconds 20
                                            # every workload, one after another
    python3 perfbench/run.py --self-test     # unit tests of the helpers
    python3 perfbench/run.py --workload train-cluster --seed 1 --seconds 20 \
        --pipeline-threading threaded        # encoder-thread chunk ring

Seed 424242 is reserved for the claim-holding check (README.md); it was not
used while the benchmark was tuned.
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-node", "train-cluster", "serve-mixed")


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target):
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = (
        ["cmake", "-S", str(HERE), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", jobs, "--target", target],
    )
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return out


def revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return "git:" + rev.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        digest = hashlib.sha256()
        for path in sorted((ROOT / "src").rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
        return "src-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(out, workload, args):
    """Runs one workload, relays its report, and returns its exit code."""
    results = out / "results"
    results.mkdir(exist_ok=True)
    run = subprocess.run(
        [str(out / "perfbench"), "--workload", workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--results-dir", str(results),
         "--commit", revision(),
         "--pipeline-threading", args.pipeline_threading],
        stdout=subprocess.PIPE, text=True)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(run.stdout)
        sys.exit("perfbench: the benchmark binary printed no result (exit %d)"
                 % run.returncode)
    want = expected_metrics(args.trace)
    if list(result["metrics"]) != want:
        sys.stderr.write(run.stdout)
        sys.exit("perfbench: metrics %s differ from BENCHMARK.json's %s"
                 % (list(result["metrics"]), want))
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pipeline-threading", default="inline",
                    choices=("inline", "threaded"),
                    help="train-cluster's chunk-ring executor (README.md)")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        out = build("perfbench_tests")
        return subprocess.run([str(out / "perfbench_tests")]).returncode
    if args.workload is None or args.seed is None or not args.seconds:
        ap.error("--workload, --seed and --seconds are required")

    out = build("perfbench")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(out, w, args) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
