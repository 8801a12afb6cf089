"""Per-layer metrics, measured by calling each layer from outside.

Every figure here is measured the same way on every workload, with
inputs drawn from the run's seed, so a later change to one layer shows
up under that layer's name whichever workload's traced run is read.
Timings are the median of REPEATS calls; counts are exact. The program
reports no internal counters yet, so RHS evaluations and accepted or
rejected RK steps are absent (see README).
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import inputs
from common import program_env

REPEATS = 3
# Child processes cost about a second each; two keep the traced run of
# cli-session well inside its time limit on a slow machine.
CLI_REPEATS = 2
VERIFY_GROUPS = ("params", "dynamics", "integrate", "volterra", "stability",
                 "acceptance")
VERIFY_SINGLES = {"c03": "acceptance.c03_energy_lyapunov",
                  "c04": "acceptance.c04_bifurcation",
                  "c07": "acceptance.c07_volterra_cross_validation"}
CLI_VERIFY_ARGV = ["verify", "--only", "params.beta_slip_monotone",
                   "--output", "verify.json"]


def timed(fn, repeats=REPEATS):
    """(median seconds, last result) of fn()."""
    times, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def _import_profile() -> dict:
    """`python -X importtime -c 'import washburn'` in a fresh interpreter."""
    runs = []
    for _ in range(REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import washburn"],
                              env=program_env(), capture_output=True, text=True,
                              timeout=120, check=True)
        totals = {"total": 0.0, "scipy": 0.0, "numpy": 0.0, "washburn_self": 0.0}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
            if not m:
                continue
            self_us, cumulative_us, name = int(m[1]), int(m[2]), m[4]
            top = name.split(".")[0]
            if name == "washburn":
                totals["total"] = cumulative_us * 1e-6
            if top in ("scipy", "numpy"):
                totals[top] += self_us * 1e-6
            if top == "washburn":
                totals["washburn_self"] += self_us * 1e-6
        runs.append(totals)
    return {f"import.{key}_s": (statistics.median(r[key] for r in runs), "s")
            for key in runs[0]}


def _integrate_layer(w, seed: int, out_dir: Path) -> dict:
    from washburn import stability
    from washburn.integrate import CSV_HEADER
    from washburn._format import write_csv, write_json

    seen, points = set(), []
    for p in inputs.trajectory_points(seed):
        if p["kind"] not in seen:
            seen.add(p["kind"])
            points.append(p)
    m = dict.fromkeys(("integrate", "detect", "dense", "lyap", "classify", "audit",
                       "csv", "json"), 0.0)
    samples = crossings = rows = nbytes = 0
    for i, p in enumerate(points):
        params = w.ModelParams(p["omega"], p["beta"], p["alpha"])
        dt, traj = timed(lambda: w.integrate(params))
        m["integrate"] += dt
        m["detect"] += timed(lambda: w.detect_crossings(traj))[0]
        m["dense"] += timed(lambda: traj.dense(traj.s))[0]
        m["lyap"] += timed(lambda: stability.lyapunov_columns(traj.u, traj.v))[0]

        def classify():
            try:
                return stability.classify_approach(traj)
            except w.InconclusiveError:
                return None
        m["classify"] += timed(classify)[0]
        spec = stability.basin(p["alpha"])
        m["audit"] += timed(lambda: stability.audit_trajectory(traj, spec))[0]
        csv_path, json_path = out_dir / f"traj{i}.csv", out_dir / f"traj{i}.json"
        m["csv"] += timed(lambda: write_csv(csv_path, CSV_HEADER,
                                            [traj.s, traj.u, traj.v, traj.H, traj.T,
                                             traj.E, traj.V]))[0]
        summary = {"final_state": {"u": float(traj.u[-1]), "v": float(traj.v[-1])},
                   "crossings": [{"s": c.s, "direction": c.direction}
                                 for c in traj.crossings]}
        m["json"] += timed(lambda: write_json(json_path, summary))[0]
        samples += traj.s.size
        crossings += len(traj.crossings)
        rows += traj.s.size
        nbytes += csv_path.stat().st_size + json_path.stat().st_size
    metrics = {
        "integrate.integrate_s": (m["integrate"], "s"),
        "integrate.calls": (len(points), "count"),
        "integrate.samples": (samples, "count"),
        "integrate.crossings": (crossings, "count"),
        "integrate.detect_crossings_s": (m["detect"], "s"),
        "integrate.dense_sample_s": (m["dense"], "s"),
        "integrate.solve_s_derived": (m["integrate"] - m["detect"] - m["dense"]
                                      - m["lyap"], "s"),
        "stability.lyapunov_columns_s": (m["lyap"], "s"),
        "stability.classify_s": (m["classify"], "s"),
        "stability.audit_s": (m["audit"], "s"),
        "format.write_csv_s": (m["csv"], "s"),
        "format.write_json_s": (m["json"], "s"),
        "format.bytes_written": (nbytes, "B"),
        "format.rows_written": (rows, "count"),
    }
    return metrics


def _regime_layer(seed: int, nondim_json: str) -> dict:
    from washburn import dynamics
    from washburn.dynamics import RegimeSpec
    from washburn.integrate import integrate_regime, regime_oracle_residuals

    regime_s = oracle_resid_s = oracle_s = 0.0
    for op in inputs.cli_script(seed, nondim_json):
        if not op["name"].startswith("regime-case"):
            continue
        f = op["facts"]
        spec = RegimeSpec.standard(f["case"])
        dt, traj = timed(lambda: integrate_regime(spec, beta=f["beta"], alpha=f["alpha"],
                                                  horizon=f["horizon"]))
        regime_s += dt
        oracle_resid_s += timed(lambda: regime_oracle_residuals(traj))[0]
        oracles = {1: lambda: dynamics.case1_closed_form_u(traj.t, traj.beta,
                                                           u0=0.5 * traj.h0 ** 2),
                   2: lambda: dynamics.case2_implicit_time(traj.h, traj.beta, traj.h0),
                   3: lambda: dynamics.case3_closed_form_h(traj.t, traj.beta, traj.h0)}
        if f["case"] in oracles:
            oracle_s += timed(oracles[f["case"]])[0]
    return {"integrate.regime_s": (regime_s, "s"),
            "integrate.oracle_residuals_s": (oracle_resid_s, "s"),
            "dynamics.oracle_s": (oracle_s, "s")}


def _volterra_layer(seed: int) -> dict:
    from washburn import volterra

    point = [op for op in inputs.picard_ops(seed) if op["point"] == 0]
    solve_s = build_s = peak = 0.0
    calls = iterations = nodes_total = nbytes = 0
    apply_ms = 0.0
    for op in point:
        if op["nodes"] not in (1024, 4096):
            continue
        args = (op["omega"], op["beta"], op["alpha"], op["horizon"])
        step = op["horizon"] / op["nodes"]
        dt, res = timed(lambda: volterra.picard_solve(*args, step=step))
        solve_s += dt
        calls += 1
        iterations += res.iterations
        nodes_total += op["nodes"] + 1
        nbytes += (op["nodes"] + 1) ** 2 * 8
        grid = np.linspace(0.0, op["horizon"], op["nodes"] + 1)
        dt, kernel = timed(lambda: volterra.KernelOperator(grid, op["omega"], op["beta"]))
        build_s += dt
        values = res.solution.values
        apply_ms = timed(lambda: kernel.apply(values, op["alpha"]), repeats=11)[0] * 1e3
        del kernel
        tracemalloc.start()
        volterra.picard_solve(*args, step=step)
        peak = max(peak, tracemalloc.get_traced_memory()[1] / 2 ** 20)
        tracemalloc.stop()
    return {"volterra.picard_solve_s": (solve_s, "s"),
            "volterra.calls": (calls, "count"),
            "volterra.iterations": (iterations, "count"),
            "volterra.grid_nodes": (nodes_total, "count"),
            "volterra.operator_build_s": (build_s, "s"),
            "volterra.apply_ms": (apply_ms, "ms"),
            "volterra.operator_bytes_computed": (nbytes, "B"),
            "volterra.peak_traced_mb": (peak, "MB")}


def _small_layers(w, seed: int, nondim_json: str) -> dict:
    from washburn import dynamics, params, stability

    fixed = np.random.default_rng(0)
    states = fixed.uniform([0.0, -1.0], [1.125, 1.0], size=(20000, 2)).tolist()
    rhs_s = timed(lambda: [dynamics.rhs_u(st, 1.0, 0.5) for st in states])[0]

    phys = [params.PhysicalParams(rho=fixed.uniform(500, 2000), mu=10 ** fixed.uniform(-4, -1),
                                  gamma=fixed.uniform(0.02, 0.08),
                                  theta=fixed.uniform(0.0, 1.2), g=9.81,
                                  R=10 ** fixed.uniform(-4.5, -3), L=fixed.uniform(0, 1e-5))
            for _ in range(2000)]
    with open(nondim_json) as fh:
        phys.append(params.physical_params_from_json(json.load(fh)))
    nondim_s = timed(lambda: [params.nondimensionalize(p) for p in phys])[0]

    rng = np.random.default_rng([seed, 5])
    alphas = rng.uniform(0.0, 1.5, 2000).tolist()
    pairs = rng.uniform([0.01, 0.1], [4.0, 1.0], size=(2000, 2)).tolist()
    basin_s = timed(lambda: [stability.basin(a) for a in alphas])[0]
    linearize_s = timed(lambda: [stability.linearize(o, b) for o, b in pairs])[0]
    return {"dynamics.rhs_u_us": (rhs_s / len(states) * 1e6, "us"),
            "params.nondimensionalize_s": (nondim_s, "s"),
            "stability.basin_s": (basin_s, "s"),
            "stability.linearize_s": (linearize_s, "s")}


def _cli_layer(seed: int, out_dir: Path, nondim_json: str) -> dict:
    from washburn import cli

    argvs = {}
    for op in inputs.cli_script(seed, nondim_json):
        sub = op["argv"][0]
        if op["expect"] == "ok" and sub not in argvs:
            argvs[sub] = op["argv"]
    argvs["verify"] = CLI_VERIFY_ARGV
    env = program_env()
    metrics, main_s = {}, 0.0
    for sub, argv in argvs.items():
        def child():
            subprocess.run([sys.executable, "-m", "washburn.cli", *argv], cwd=out_dir,
                           env=env, capture_output=True, timeout=150, check=True)
        metrics[f"cli.{sub}_s"] = (timed(child, CLI_REPEATS)[0], "s")

        def in_process():
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv) != 0:
                    raise RuntimeError(f"cli.main{argv} failed")
        here = os.getcwd()
        os.chdir(out_dir)
        try:
            main_s += timed(in_process)[0]
        finally:
            os.chdir(here)
    metrics["cli.main_s"] = (main_s, "s")
    return metrics


def _verify_layer() -> dict:
    from washburn import verify

    seconds = {}
    for name in verify.CHECKS:
        t0 = time.perf_counter()
        verify.run_checks(only=name)
        seconds[name] = time.perf_counter() - t0
    metrics = {f"verify.{group}_s": (sum(t for n, t in seconds.items()
                                         if n.startswith(group + ".")), "s")
               for group in VERIFY_GROUPS}
    for short, name in VERIFY_SINGLES.items():
        metrics[f"verify.{short}_s"] = (seconds[name], "s")
    return metrics


def measure(seed: int, out_dir: Path, nondim_json: str) -> dict:
    """Every per-layer metric as {name: (value, unit)}."""
    import washburn as w

    out_dir.mkdir(parents=True, exist_ok=True)
    metrics = _import_profile()
    metrics.update(_integrate_layer(w, seed, out_dir))
    metrics.update(_regime_layer(seed, nondim_json))
    metrics.update(_volterra_layer(seed))
    metrics.update(_small_layers(w, seed, nondim_json))
    metrics.update(_cli_layer(seed, out_dir, nondim_json))
    metrics.update(_verify_layer())
    return metrics
