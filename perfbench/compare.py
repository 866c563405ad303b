#!/usr/bin/env python3
"""Compare two sets of benchmark results, refusing to mix hosts.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the result files run.py leaves in
$CARGO_TARGET_DIR/perfbench/results (one <workload>-seed<N>.json per run).
Every file in both sets must carry the same host stamp (CPU model, core
count, SIMD ISA, pinning, pipeline executor, build type, compiler);
otherwise the comparer refuses with exit code 2.  For each workload and
end-to-end metric it prints both medians, the change, and the verdict
against BENCHMARK.json's bound:
"worse" past the bound (exit code 1), "unresolved" when the base's own
quartile spread is wider than the bound, else "ok".
"""
import json
import pathlib
import statistics
import sys

HOST_KEYS = ("cpu_model", "nproc", "simd_isa", "pinning", "pipeline_threading",
             "build_type", "compiler")
ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(directory):
    runs = []
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        doc = json.loads(path.read_text())
        if not doc.get("trace"):
            runs.append((path, doc))
    if not runs:
        sys.exit("compare: no untraced results in %s" % directory)
    return runs


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    stamp = {k: base[0][1]["host"].get(k) for k in HOST_KEYS}
    for path, doc in base + new:
        other = {k: doc["host"].get(k) for k in HOST_KEYS}
        if other != stamp:
            print("compare: refusing to compare results from different hosts:")
            print("  %s: %s" % (base[0][0], stamp))
            print("  %s: %s" % (path, other))
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    worse = False
    for workload in sorted({d["workload"] for _, d in base + new}):
        print(workload)
        for m in spec["end_to_end"]:
            values = {}
            for side, runs in (("base", base), ("new", new)):
                values[side] = [d["result"]["metrics"][m["name"]]["value"]
                                for _, d in runs if d["workload"] == workload]
            if not values["base"] or not values["new"]:
                continue
            b = statistics.median(values["base"])
            n = statistics.median(values["new"])
            change = (n - b) / b if b else float("nan")
            loss = change if m["better"] == "lower" else -change
            if loss > m["bound"]:
                verdict, worse = "worse", True
            elif spread(values["base"]) > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print("  %-18s %14.6g -> %14.6g %s  %+7.2f%%  (bound %.0f%%, "
                  "n=%d/%d)  %s" % (m["name"], b, n, m["unit"], 100 * change,
                                   100 * m["bound"], len(values["base"]),
                                   len(values["new"]), verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
