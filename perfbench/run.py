"""washburn benchmark: `python3 perfbench/run.py --workload NAME [--seed N]
[--seconds S] [--trace 0|1]`, run from the repository root.

One run: set-up time from fresh interpreters, a timed pass in a separate
worker process (worker.py), the independent reference in a third process
(reference.py), the workload's checker and its self-test (checks.py).
The last line of stdout is one JSON object: correct, attempted, failed
and the metrics (end-to-end ones with --trace 0, per-layer ones with
--trace 1). See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

from common import (BENCH_DIR, ROOT, SRC, WORK, WORKLOADS, SpeedGauge, fail, median,
                    program_env, tail_ms, write_json)
import checks

DEFAULT_SEED = 1
# Only the median of set-up times is compared between sets of runs; three
# interpreters (about a second each) per run are enough for that.
SETUP_REPEATS = 3
# Set-up runs in child processes, gauged as cli-session's children are.
SETUP_GAUGE = ("child_imports",)
WORKER_TIMEOUT = 170
NONDIM_JSON = BENCH_DIR / "fixtures" / "water_glass.json"


def measure_setup(gauge: SpeedGauge) -> list[tuple[float, float]]:
    """(wall time from starting a fresh interpreter to the end of `import
    washburn`, the machine's slowness around it) for SETUP_REPEATS
    interpreters; see SpeedGauge."""
    code = "import washburn\nimport time\nprint(repr(time.monotonic()))"
    times, before = [], gauge.factor()
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], env=program_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"`import washburn` failed:\n{proc.stderr}")
        elapsed = float(proc.stdout.strip().splitlines()[-1]) - start
        after = gauge.factor()
        times.append((elapsed, (before + after) / 2))
        before = after
    return times


def run_child(argv, what: str):
    proc = subprocess.run(argv, env=program_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        fail(f"{what} exited {proc.returncode}:\n{proc.stderr[-4000:]}")


def reference(work, items, arrays) -> dict:
    request = work / "reference.json"
    request.write_text(json.dumps(items))
    np.savez(request.with_suffix(".npz"), **arrays)
    out = work / "reference_out.npz"
    run_child([sys.executable, str(BENCH_DIR / "reference.py"), str(request), str(out)],
              "reference solver")
    with np.load(out) as data:
        return {key: data[key] for key in data.files}


def check_run(workload, work, result) -> tuple[list[str], list[str]]:
    """(problems, self-test lines) for the run's outputs."""
    ops, outputs = checks.load_saved(work)
    if workload == "cli-session":
        checker = checks.CliChecker(work / "cli")
        data = checker.load(ops, outputs)
    else:
        checker = checks.CHECKERS[workload]()
        data = outputs
    ref = reference(work, *checker.reference_request(ops, data))
    problems = checker.check(ops, data, ref)
    problems += checks.digest_problems(result["rows"], outputs)
    for row in result["rows"]:
        op = ops[row["op"]]
        if row["failed"] and not op.get("known_fault"):
            problems.append(f"operation {row['op']} failed unexpectedly: {row['error']}")
    lines = []
    for label, mutate, fragment in checker.mutations(ops, data):
        wrong = copy.deepcopy(data)
        mutate(wrong)
        rejected = any(fragment in p for p in checker.check(ops, wrong, ref))
        lines.append(f"self-test: {label}: {'rejected' if rejected else 'ACCEPTED'}")
        if not rejected:
            problems.append(f"checker self-test accepted {label}")
    return problems, lines


def end_to_end(result, setup) -> dict:
    """Each operation counts at the median over the run's rounds of its
    latency divided by the machine's slowness around it (see SpeedGauge
    and the README)."""
    scaled = {}
    for row in result["rows"]:
        scaled.setdefault(row["op"], []).append(row["ms"] / row["slowness"])
    per_op = [median(values) for values in scaled.values()]
    wall = sum(per_op) / 1e3
    return {
        "setup_s": (median(t / slow for t, slow in setup), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (len(per_op) / wall, "1/s"),
        "op_ms_p50": (median(per_op), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "washburn" / "__init__.py").is_file():
        fail(f"no program source at {SRC / 'washburn'}; run from a full checkout")

    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = measure_setup(SpeedGauge(SETUP_GAUGE))
        spec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": bool(args.trace), "work": str(work),
                "nondim_json": str(NONDIM_JSON)}
        write_json(work / "spec.json", spec)
        run_child([sys.executable, str(BENCH_DIR / "worker.py"), str(work / "spec.json")],
                  "timed worker")
        result = json.loads((work / "worker.json").read_text())
        problems, selftest = check_run(args.workload, work, result)

        rows = result["rows"]
        print(f"workload {args.workload} seed {args.seed}: {len(rows)} operations in "
              f"{len(result['round_walls'])} timed round(s), {sum(r['failed'] for r in rows)} failed")
        for line in selftest:
            print(line)
        for problem in problems:
            print(f"PROBLEM: {problem}")
        if args.trace:
            metrics = dict(result["per_layer"])
            for layer, row in sorted(result["layers"].items()):
                print(f"span layer {layer:10s} busy {row['busy_s']:.4f} s  "
                      f"self {row['self_s']:.4f} s  calls {row['calls']}")
            print(f"tracing overhead: {metrics['trace.overhead_s'][0]:.4f} s "
                  f"(median traced round {result['wall_traced']:.4f} s, untraced "
                  f"{median(result['round_walls']):.4f} s)")
            trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            write_json(trace_file, {"columns": ["id", "parent", "name", "start", "end"],
                                    "spans": result["spans"], "layers": result["layers"]})
            print(f"spans written to {trace_file.relative_to(ROOT)}")
        else:
            metrics = end_to_end(result, setup)
            print(f"unscaled: median round {median(result['round_walls']):.4f} s, machine "
                  f"slowness median {median(row['slowness'] for row in rows):.3f}; "
                  f"median set-up {median(t for t, _ in setup):.4f} s, slowness "
                  f"{median(slow for _, slow in setup):.3f}")
            tail = tail_ms([row["ms"] for row in rows])
            print("op_ms_tail: " + (f"{tail:.3f} ms (n={len(rows)})" if tail is not None
                                    else f"not reported, only {len(rows)} operations"))
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
        print(json.dumps({
            "correct": not problems,
            "attempted": len(rows),
            "failed": sum(row["failed"] for row in rows),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
