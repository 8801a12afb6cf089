"""The timed process: `python worker.py SPEC_JSON`.

It imports the program (from src/, through PYTHONPATH) and nothing else
of weight, runs whole rounds of one workload's operations until the
requested seconds have passed, and writes per-operation latencies, a
fingerprint of every operation's output, the first round's outputs (for
the checker, which runs in another process) and its peak RSS. With
`trace` set it times untraced and traced rounds side by side instead
(see traced_pass) and then measures the per-layer metrics.
"""
from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from common import (SpeedGauge, fingerprint, output_digest, program_env, read_json,
                    write_json)
import inputs


class TrajectorySweep:
    in_process = True
    gauge = ("rk_steps",)
    min_rounds = 2

    def __init__(self, spec):
        import washburn
        self.w = washburn
        from washburn.errors import InconclusiveError
        self.inconclusive = InconclusiveError
        self.ops = inputs.trajectory_points(spec["seed"])

    def run(self, op, index):
        w = self.w
        traj = w.integrate(w.ModelParams(op["omega"], op["beta"], op["alpha"]))
        try:
            verdict = w.classify_approach(traj).kind.value
        except self.inconclusive:
            verdict = "inconclusive"
        spec = w.basin(op["alpha"])
        audit = w.audit_trajectory(traj, spec)
        return {"s": traj.s, "u": traj.u, "v": traj.v, "H": traj.H, "T": traj.T,
                "E": traj.E, "V": traj.V,
                "crossings": np.array([[c.s, c.direction] for c in traj.crossings],
                                      dtype=float).reshape(-1, 2),
                "verdict": verdict,
                "basin": [spec.C, spec.u_min, spec.u_max],
                "audit": [audit.max_level_excess, audit.max_lyapunov_rise,
                          audit.final_distance]}


class PicardSweep:
    in_process = True
    gauge = ("fresh_8mb", "fresh_64mb")
    min_rounds = 2

    def __init__(self, spec):
        from washburn import volterra
        self.volterra = volterra
        self.ops = inputs.picard_ops(spec["seed"])

    def run(self, op, index):
        res = self.volterra.picard_solve(op["omega"], op["beta"], op["alpha"],
                                         op["horizon"],
                                         step=op["horizon"] / op["nodes"])
        return {"grid": res.solution.grid, "values": res.solution.values,
                "diffs": res.diffs, "iterations": res.iterations,
                "final_diff": res.final_diff, "step": res.step}


class VerifySuite:
    in_process = True
    gauge = ("rk_steps", "objects", "stream", "fresh_8mb")
    # One round takes about as long as the whole run (c07 alone is half of
    # it); a third round lets each operation's median drop one outlier.
    min_rounds = 3

    def __init__(self, spec):
        from washburn import verify
        self.verify = verify
        names = list(verify.CHECKS)
        clashes = [(a, b) for a in names for b in names if a != b and a in b]
        if clashes:
            raise SystemExit(f"check names are not unique substrings: {clashes}")
        self.ops = [{"name": n} for n in inputs.verify_order(spec["seed"], names)]

    def run(self, op, index):
        (outcome,) = self.verify.run_checks(only=op["name"])
        if outcome.name != op["name"]:
            raise RuntimeError(f"asked for {op['name']}, ran {outcome.name}")
        return {"name": outcome.name, "passed": outcome.passed,
                "message": outcome.message, "details": outcome.details}


class CliSession:
    in_process = False
    # Start-up and import dominate the children's time, and it follows
    # a child of the same kind, not this process's kernels (see README).
    gauge = ("child_imports",)
    # One round is 17-25 s of child processes, longer than the run; once
    # gauged, single rounds of three seeds spread 0.05 in wall time.
    min_rounds = 1

    def __init__(self, spec):
        self.dir = Path(spec["work"]) / "cli"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env = program_env()
        self.ops = inputs.cli_script(spec["seed"], spec["nondim_json"])
        self.spans_dir = None

    def _outputs(self, op):
        facts = op["facts"]
        if "prefix" in facts:
            return sorted(self.dir.glob(facts["prefix"] + ".*"))
        if "file" in facts:
            return [self.dir / facts["file"]]
        return sorted(self.dir.glob(op["argv"][-1] + ".*"))

    def prepare(self, op):
        for path in self._outputs(op):
            path.unlink(missing_ok=True)

    def command(self, op, index):
        if self.spans_dir is None:
            return [sys.executable, "-m", "washburn.cli", *op["argv"]]
        shim = str(Path(__file__).resolve().parent / "cli_shim.py")
        return [sys.executable, shim, str(self.spans_dir / f"{index}.json"), *op["argv"]]

    def run(self, op, index):
        proc = subprocess.run(self.command(op, index), cwd=self.dir, env=self.env,
                              capture_output=True, text=True, timeout=150)
        return {"returncode": proc.returncode, "stderr": proc.stderr[-2000:]}

    def settle(self, op, out):
        """Outcome of a finished command, read after the round's timer."""
        files = {p.name: p.read_bytes() for p in self._outputs(op) if p.exists()}
        out["files"] = sorted(files)
        out["digest"] = fingerprint(out["returncode"],
                                    *(x for name in sorted(files)
                                      for x in (name, files[name])))
        expected = 0 if op["expect"] == "ok" else 2
        out["failed"] = (out["returncode"] != expected
                         or "Traceback" in out["stderr"])


RUNNERS = {"trajectory-sweep": TrajectorySweep, "picard-sweep": PicardSweep,
           "verify-suite": VerifySuite, "cli-session": CliSession}


def run_round(runner, gauge, tracer=None):
    """One pass over the workload's operations; returns (wall, results).
    Each result carries the machine's slowness around its operation (the
    mean of the gauge just before and just after it); the gauge runs
    between operations, outside every timer, so wall is the sum of the
    operations' latencies."""
    results = []
    before = gauge.factor()
    for index, op in enumerate(runner.ops):
        if not runner.in_process:
            runner.prepare(op)
        t0 = time.perf_counter()
        sid = tracer.open(f"process.{op['argv'][0]}") if tracer and not runner.in_process else None
        try:
            out = runner.run(op, index)
            error = None
        except Exception as exc:  # an operation that fails is counted, not fatal
            out, error = {}, f"{type(exc).__name__}: {exc}"
        if sid is not None:
            tracer.close(sid)
        ms = (time.perf_counter() - t0) * 1e3
        after = gauge.factor()
        results.append((ms, (before + after) / 2, out, error))
        before = after
    if not runner.in_process:
        for op, (ms, slow, out, error) in zip(runner.ops, results):
            if error is None:
                runner.settle(op, out)
    return sum(r[0] for r in results) / 1e3, results


def record(results):
    return [{"op": index, "ms": ms, "slowness": slow, "error": error,
             "failed": error is not None or bool(out.get("failed")),
             "digest": None if error else output_digest(out)}
            for index, (ms, slow, out, error) in enumerate(results)]


def save_outputs(path: Path, runner, results):
    arrays, scalars = {}, []
    for index, (ms, slow, out, error) in enumerate(results):
        plain = {}
        for key, value in out.items():
            if isinstance(value, np.ndarray):
                arrays[f"{index}/{key}"] = value
            else:
                plain[key] = value
        scalars.append(plain)
    np.savez(path.with_suffix(".npz"), **arrays)
    write_json(path.with_suffix(".json"), {"ops": runner.ops, "outputs": scalars})


def peak_rss_mb(runner) -> float:
    who = resource.RUSAGE_SELF if runner.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_pass(spec, runner, work: Path) -> dict:
    rows, walls = [], []
    gauge = SpeedGauge(runner.gauge)
    start = time.perf_counter()
    while True:
        wall, results = run_round(runner, gauge)
        walls.append(wall)
        if not rows:
            save_outputs(work / "outputs", runner, results)
        rows.extend(record(results))
        if time.perf_counter() - start >= spec["seconds"] and len(walls) >= runner.min_rounds:
            break
    return {"rows": rows, "round_walls": walls, "peak_rss_mb": peak_rss_mb(runner)}


def traced_pass(spec, runner, work: Path) -> dict:
    from tracer import Tracer, summarize
    import probe

    rows = []
    # The overhead compares raw rounds, so the traced run needs no gauge.
    gauge = SpeedGauge(())

    def one_round(tracer=None):
        wall, results = run_round(runner, gauge, tracer)
        if not rows:
            save_outputs(work / "outputs", runner, results)
        rows.extend(record(results))
        return wall

    # In-process workloads get a warm-up round (lazy imports, first-call
    # costs); child processes start cold every time anyway. Short rounds
    # then get three alternating untraced/traced pairs, so drift cancels
    # out of the overhead; long rounds get one pair.
    if runner.in_process:
        one_round()
    short = runner.in_process and spec["workload"] != "verify-suite"
    plain, traced = [], []
    for _ in range(3 if short else 1):
        plain.append(one_round())
        tracer = Tracer()
        if runner.in_process:
            tracer.install()
        else:
            runner.spans_dir = work / "child_spans"
            runner.spans_dir.mkdir(exist_ok=True)
        try:
            traced.append(one_round(tracer))
        finally:
            tracer.uninstall()
        spans = list(tracer.spans)
        if not runner.in_process:
            spans = _merge_child_spans(spans, runner.spans_dir)
            runner.spans_dir = None

    metrics = probe.measure(spec["seed"], work / "probe", spec["nondim_json"])
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.spans"] = (len(spans), "count")
    return {"rows": rows, "round_walls": plain, "wall_traced": statistics.median(traced),
            "peak_rss_mb": peak_rss_mb(runner), "layers": summarize(spans),
            "spans": spans, "per_layer": metrics}


def _merge_child_spans(spans, spans_dir: Path):
    """Attach each child's spans under the parent's process span."""
    process_ids = [s[0] for s in spans if s[2].startswith("process.")]
    merged = list(spans)
    for index, parent in enumerate(process_ids):
        path = spans_dir / f"{index}.json"
        if not path.exists():
            continue
        base = len(merged)
        for sid, sparent, name, start, end in json.loads(path.read_text()):
            merged.append((base + sid, parent if sparent is None else base + sparent,
                           name, start, end))
    return merged


def main():
    spec = read_json(sys.argv[1])
    work = Path(spec["work"])
    runner = RUNNERS[spec["workload"]](spec)
    result = traced_pass(spec, runner, work) if spec["trace"] else timed_pass(spec, runner, work)
    write_json(work / "worker.json", result)


if __name__ == "__main__":
    main()
