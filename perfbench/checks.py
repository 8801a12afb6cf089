"""Checkers for each workload, and the mutations that prove them.

A checker takes the program's outputs (as the timed worker saved them,
or as the CLI wrote them) plus the independent reference, and returns a
list of problems; an empty list means correct. No checker compares with
a stored copy of earlier output: each compares with the reference
(reference.py), with closed forms written here, or with a property the
method must have. This module imports neither washburn nor scipy.

Bounds:
- Trajectories: the program integrates at (atol, rtol) = (1e-10, 1e-8).
  A state must sit within TRAJ_FACTOR * (atol + rtol |u|) of the
  reference; the largest error measured on the sweep's parameter box
  (horizons up to 300, ~100 crossings) is 1.4e-8, against a bound of
  2.6e-7 at u = 1/2, which still rejects a 1e-6 shift.
- Picard: composite trapezoid, error O(h^2). The error must stay below
  PICARD_H2 * h^2 (the measured constant is at most 0.034) and halving h
  must divide it by 4 (within ORDER_RATIO).
"""
from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from common import output_digest
import inputs

PROGRAM_TOL = (1e-10, 1e-8)
TRAJ_FACTOR = 50.0
CROSSING_BAND = 1e-9          # the program's documented hysteresis band
CROSSING_REFINE = 1e-10       # the program's documented bisection width
U_BOUND = 9.0 / 8.0
ENERGY_RISE = 1e-8
FORMULA_TOL = 1e-12
PICARD_H2 = 0.5
ORDER_RATIO = (3.5, 4.5)
PICARD_TOL = 1e-10            # the program's default Picard tolerance
C11_POINTS = {(1.0, 0.1, 0.0), (1.0, 0.1, 0.1), (1.0, 0.1, 1.4), (1.0, 0.1, 1.5)}
C11_NAME = "acceptance.c11_convergence_to_equilibrium"
C11_TOL = 1e-5
TWO_SQRT2_OVER_3 = 2.0 * math.sqrt(2.0) / 3.0


# ---------------------------------------------------------------------------
# formulas written here, apart from the program

def energy(u, v):
    u = np.asarray(u, dtype=float)
    up = np.maximum(u, 0.0)
    return 0.5 * np.asarray(v) ** 2 - u + TWO_SQRT2_OVER_3 * up ** 1.5


def level(u):
    """V at rest: E(u, 0) + 1/6, whose C-level set bounds the basin."""
    return -u + TWO_SQRT2_OVER_3 * u ** 1.5 + 1.0 / 6.0


def point_kind(omega: float, beta: float) -> str:
    disc = 1.0 - 4.0 * omega / (beta * beta)
    if abs(disc) <= 1e-12:
        return "inflected"
    return "node" if disc > 0.0 else "spiral"


def traj_bound(u_ref):
    return TRAJ_FACTOR * (PROGRAM_TOL[0] + PROGRAM_TOL[1] * np.abs(u_ref))


def _worst(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) if np.size(a) else 0.0


# ---------------------------------------------------------------------------
# shared trajectory checks

def check_columns(tag, s, u, v, H, T, E, V, omega, epsilon=0.0) -> list[str]:
    """Bounds, derived columns and energy decrease of a sampled trajectory."""
    problems = []
    if np.min(u) < -1e-12 or np.max(u) > U_BOUND + 1e-9:
        problems.append(f"{tag}: u leaves [0, 9/8]: [{np.min(u)!r}, {np.max(u)!r}]")
    if _worst(H, np.sqrt(2.0 * np.maximum(u, 0.0))) > 4e-16 * max(1.0, np.max(H)):
        problems.append(f"{tag}: H != sqrt(2u)")
    if _worst(T, s * math.sqrt(omega)) > 4e-16 * max(1.0, np.max(np.abs(T))):
        problems.append(f"{tag}: T != s sqrt(omega)")
    if _worst(E, energy(u, v)) > FORMULA_TOL:
        problems.append(f"{tag}: E column != v^2/2 - u + (2 sqrt2/3) u^1.5")
    if _worst(V, energy(u, v) + 1.0 / 6.0) > FORMULA_TOL:
        problems.append(f"{tag}: V column != E + 1/6")
    if epsilon == 0.0 and np.size(E) > 1 and np.max(np.diff(E)) > ENERGY_RISE:
        problems.append(f"{tag}: E rises by {np.max(np.diff(E)):.3e}")
    return problems


def check_against_reference(tag, u, v, u_ref, v_ref) -> list[str]:
    problems = []
    for name, got, ref in (("u", u, u_ref), ("v", v, v_ref)):
        excess = np.abs(got - ref) - traj_bound(ref)
        if np.max(excess) > 0.0:
            i = int(np.argmax(excess))
            problems.append(f"{tag}: {name}[{i}] = {got[i]!r} is {abs(got[i] - ref[i]):.3e} "
                            f"from the reference {ref[i]!r} (bound {traj_bound(ref[i]):.3e})")
    return problems


def check_crossings(tag, s, u, crossings, u_ref_at_crossings) -> list[str]:
    """Crossings alternate, one per out-of-band sign change of u - 1/2,
    each inside its bracket, with the reference u about 1/2 there."""
    problems = []
    crossings = np.asarray(crossings, dtype=float).reshape(-1, 2)
    d = u - 0.5
    idx = np.nonzero(np.abs(d) > CROSSING_BAND)[0]
    side = np.sign(d[idx])
    change = np.nonzero(side[1:] != side[:-1])[0]
    if len(change) != len(crossings):
        return [f"{tag}: {len(crossings)} crossings reported, u changes side "
                f"{len(change)} times"]
    directions = crossings[:, 1]
    if np.any(directions[1:] == directions[:-1]):
        problems.append(f"{tag}: crossing directions do not alternate")
    for k, j in enumerate(change):
        lo, hi = s[idx[j]], s[idx[j + 1]]
        sc, direction = crossings[k]
        if not lo - CROSSING_REFINE <= sc <= hi + CROSSING_REFINE:
            problems.append(f"{tag}: crossing {k} at {sc!r} outside its bracket [{lo}, {hi}]")
        if direction != side[j + 1]:
            problems.append(f"{tag}: crossing {k} has direction {direction}")
    if len(crossings):
        miss = np.abs(np.asarray(u_ref_at_crossings) - 0.5)
        bound = traj_bound(0.5) + 2.0 * CROSSING_REFINE
        if np.max(miss) > bound:
            problems.append(f"{tag}: reference u is {np.max(miss):.3e} from 1/2 at a crossing")
    return problems


def check_verdict(tag, verdict, omega, beta, n_crossings) -> list[str]:
    kind = point_kind(omega, beta)
    if verdict == "oscillatory" and (kind != "spiral" or n_crossings < 2):
        return [f"{tag}: 'oscillatory' at a {kind} with {n_crossings} crossings"]
    if verdict == "monotone" and (kind == "spiral" or n_crossings):
        return [f"{tag}: 'monotone' at a {kind} with {n_crossings} crossings"]
    if verdict not in ("oscillatory", "monotone", "inconclusive"):
        return [f"{tag}: unexpected verdict {verdict!r}"]
    return []


def check_basin(tag, alpha, C, u_min, u_max) -> list[str]:
    u0 = 0.5 * alpha * alpha
    problems = []
    if abs(C - level(u0)) > FORMULA_TOL:
        problems.append(f"{tag}: basin C = {C!r}, expected {level(u0)!r}")
    if not (0.0 <= u_min <= min(u0, 0.5) + 1e-12 and max(u0, 0.5) - 1e-12 <= u_max
            <= U_BOUND + 1e-12):
        problems.append(f"{tag}: basin extent [{u_min!r}, {u_max!r}] misplaced")
    if max(abs(level(u_min) - C), abs(level(u_max) - C)) > 1e-10:
        problems.append(f"{tag}: basin bounds miss the level equation")
    return problems


def sample_grid_problems(tag, s, horizon, rows) -> list[str]:
    if len(s) != rows:
        return [f"{tag}: {len(s)} samples, expected {rows}"]
    step = horizon / (rows - 1)
    if s[0] != 0.0 or abs(s[-1] - horizon) > 1e-9 * horizon or \
            _worst(s, step * np.arange(rows)) > 1e-9 * horizon:
        return [f"{tag}: sample times are not the uniform grid on [0, {horizon}]"]
    return []


# ---------------------------------------------------------------------------
# loading what the worker saved

def load_saved(work: Path) -> tuple[list, list]:
    meta = json.loads((work / "outputs.json").read_text())
    arrays = np.load(work / "outputs.npz")
    outputs = meta["outputs"]
    for key in arrays.files:
        index, name = key.split("/", 1)
        outputs[int(index)][name] = arrays[key]
    return meta["ops"], outputs


def digest_problems(rows, outputs) -> list[str]:
    """Every repetition of an operation must have produced the checked output."""
    saved = [output_digest(out) if out else None for out in outputs]
    bad = [r for r in rows if not r["failed"] and r["digest"] != saved[r["op"]]]
    if bad:
        return [f"{len(bad)} repeated operations produced output other than the checked one"]
    return []


# ---------------------------------------------------------------------------
# workloads

class TrajectoryChecker:
    def reference_request(self, ops, outputs):
        items, arrays = [], {}
        for i, (op, out) in enumerate(zip(ops, outputs)):
            if not out:
                continue
            arrays[f"t{i}"] = np.concatenate([out["s"], out["crossings"][:, 0]])
            items.append({"id": str(i), "omega": op["omega"], "beta": op["beta"],
                          "alpha": op["alpha"], "times": f"t{i}"})
        return items, arrays

    def check(self, ops, outputs, ref) -> list[str]:
        problems = []
        for i, (op, out) in enumerate(zip(ops, outputs)):
            tag = f"point {i} {op['kind']} (omega={op['omega']:.4g}, beta={op['beta']:.4g}, " \
                  f"alpha={op['alpha']:.4g})"
            if not out:
                problems.append(f"{tag}: no output")
                continue
            n = out["s"].size
            u_ref, v_ref = ref[f"{i}/u"], ref[f"{i}/v"]
            horizon = inputs.default_horizon(op["omega"], op["beta"])
            problems += sample_grid_problems(tag, out["s"], horizon, 4097)
            problems += check_columns(tag, out["s"], out["u"], out["v"], out["H"], out["T"],
                                      out["E"], out["V"], op["omega"])
            problems += check_against_reference(tag, out["u"], out["v"], u_ref[:n], v_ref[:n])
            problems += check_crossings(tag, out["s"], out["u"], out["crossings"], u_ref[n:])
            problems += check_verdict(tag, out["verdict"], op["omega"], op["beta"],
                                      len(out["crossings"]))
            C, u_min, u_max = out["basin"]
            problems += check_basin(tag, op["alpha"], C, u_min, u_max)
            if np.max(out["V"]) > C + FORMULA_TOL:
                problems.append(f"{tag}: V exceeds the basin level C by "
                                f"{np.max(out['V']) - C:.3e}")
            if out["audit"][0] > FORMULA_TOL:
                problems.append(f"{tag}: audit reports level excess {out['audit'][0]:.3e}")
        return problems

    def mutations(self, ops, outputs):
        """(label, mutation, fragment): the checker must report a problem
        containing fragment once the mutation is applied to a copy."""
        def shift_u(outs):
            out = outs[0]
            out["u"] = out["u"] + 1e-6
            # Derived columns follow u, so only the reference can object.
            out["H"] = np.sqrt(2.0 * np.maximum(out["u"], 0.0))
            out["E"] = energy(out["u"], out["v"])
            out["V"] = out["E"] + 1.0 / 6.0

        def drop_crossing(outs):
            out = max(outs, key=lambda o: len(o["crossings"]))
            out["crossings"] = out["crossings"][:-1]
        return [("u shifted by 1e-6", shift_u, "from the reference"),
                ("a crossing dropped", drop_crossing, "crossings reported")]


class PicardChecker:
    def reference_request(self, ops, outputs):
        items, arrays = [], {}
        for i, (op, out) in enumerate(zip(ops, outputs)):
            if not out:
                continue
            arrays[f"g{i}"] = np.linspace(0.0, op["horizon"], op["nodes"] + 1)
            items.append({"id": str(i), "omega": op["omega"], "beta": op["beta"],
                          "alpha": op["alpha"], "times": f"g{i}"})
        return items, arrays

    def check(self, ops, outputs, ref) -> list[str]:
        problems, errors = [], {}
        for i, (op, out) in enumerate(zip(ops, outputs)):
            tag = f"picard point {op['point']} N={op['nodes']}"
            if not out:
                problems.append(f"{tag}: no output")
                continue
            h = op["horizon"] / op["nodes"]
            grid = np.linspace(0.0, op["horizon"], op["nodes"] + 1)
            if out["grid"].shape != grid.shape or _worst(out["grid"], grid) > 1e-12 * op["horizon"]:
                problems.append(f"{tag}: solution is not on the uniform grid of {op['nodes']} steps")
                continue
            if not out["final_diff"] < PICARD_TOL:
                problems.append(f"{tag}: final_diff {out['final_diff']!r} >= {PICARD_TOL}")
            if out["iterations"] != len(out["diffs"]):
                problems.append(f"{tag}: iteration count disagrees with the log")
            err = _worst(out["values"], ref[f"{i}/u"])
            if err > PICARD_H2 * h * h:
                problems.append(f"{tag}: error {err:.3e} exceeds {PICARD_H2} h^2 = "
                                f"{PICARD_H2 * h * h:.3e}")
            errors[(op["point"], op["nodes"])] = err
        for (point, nodes), err in sorted(errors.items()):
            finer = errors.get((point, 2 * nodes))
            if finer is None:
                continue
            ratio = err / finer if finer > 0.0 else math.inf
            if not ORDER_RATIO[0] <= ratio <= ORDER_RATIO[1]:
                problems.append(f"picard point {point}: error ratio N={nodes}/{2 * nodes} is "
                                f"{ratio:.3f}, expected about 4")
        return problems

    def mutations(self, ops, outputs):
        def wrong_grid(outs):
            i = next(k for k, op in enumerate(ops) if op["nodes"] == 1024)
            h = ops[i]["horizon"] / ops[i]["nodes"]
            outs[i]["grid"] = np.linspace(0.0, ops[i]["horizon"] + h, ops[i]["nodes"] + 1)
        return [("a Picard solution on the wrong grid", wrong_grid, "not on the uniform grid")]


class VerifyChecker:
    def reference_request(self, ops, outputs):
        items, arrays = [], {}
        for k, (beta, omega, alpha) in enumerate(sorted(C11_POINTS)):
            arrays[f"c{k}"] = np.array([60.0 * math.sqrt(omega) / beta])
            items.append({"id": f"c11_{k}", "omega": omega, "beta": beta, "alpha": alpha,
                          "times": f"c{k}"})
        return items, arrays

    def check(self, ops, outputs, ref) -> list[str]:
        problems = []
        by_name = {out["name"]: out for out in outputs if out}
        if len(by_name) != len(ops):
            problems.append(f"{len(ops) - len(by_name)} checks produced no outcome")
        for name, out in by_name.items():
            if name != C11_NAME and not out["passed"]:
                problems.append(f"{name} failed: {out['message']}")
        c11 = by_name.get(C11_NAME)
        if c11 is None:
            return problems + [f"{C11_NAME} did not run"]
        if c11["passed"]:
            return problems + [f"{C11_NAME} passed; the true solution cannot reach 1e-5 "
                               "at the beta=1, omega=0.1 points"]
        found = {}
        for b, w, a, d in re.findall(r"\(beta=([^,]+), omega=([^,]+), alpha=([^)]+)\): "
                                     r"([0-9.e+-]+)", c11["message"] or ""):
            found[(float(b), float(w), float(a))] = float(d)
        if set(found) != C11_POINTS:
            return problems + [f"{C11_NAME} failed at {sorted(found)}, expected exactly "
                               f"{sorted(C11_POINTS)}"]
        for k, point in enumerate(sorted(C11_POINTS)):
            true_d = math.hypot(ref[f"c11_{k}/u"][0] - 0.5, ref[f"c11_{k}/v"][0])
            if true_d < C11_TOL:
                problems.append(f"reference reaches {true_d:.3e} at {point}: c11 should pass")
            # The message prints 4 significant digits.
            if abs(found[point] - true_d) > 6e-4 * true_d + 1e-9:
                problems.append(f"c11 distance {found[point]!r} at {point} differs from "
                                f"the reference {true_d!r}")
        return problems

    def mutations(self, ops, outputs):
        def c11_passes(outs):
            for out in outs:
                if out and out["name"] == C11_NAME:
                    out["passed"], out["message"] = True, None
        return [("c11 passing", c11_passes, "c11_convergence_to_equilibrium passed")]


class CliChecker:
    """Reads the files the last round of commands wrote."""

    def __init__(self, cli_dir: Path):
        self.dir = cli_dir

    def load(self, ops, outputs):
        loaded = []
        for op, out in zip(ops, outputs):
            item = {"returncode": out.get("returncode"), "stderr": out.get("stderr", ""),
                    "bytes": {}, "csv": None, "json": None}
            for name in out.get("files", []):
                data = (self.dir / name).read_bytes()
                item["bytes"][name] = data
                if name.endswith(".csv"):
                    lines = data.decode().splitlines()
                    body = np.loadtxt(lines[1:], delimiter=",", ndmin=2) if len(lines) > 1 \
                        else np.empty((0, lines[0].count(",") + 1))
                    item["csv"] = (lines[0], body)
                elif name.endswith(".json") and not name.endswith(".meta.json"):
                    item["json"] = json.loads(data)
            loaded.append(item)
        return loaded

    def reference_request(self, ops, loaded):
        items, arrays = [], {}
        for i, (op, item) in enumerate(zip(ops, loaded)):
            f = op["facts"]
            if op["argv"][0] not in ("simulate", "picard") or item["csv"] is None:
                continue
            s = item["csv"][1][:, 0]
            crossings = [c["s"] for c in (item["json"] or {}).get("crossings", [])]
            arrays[f"t{i}"] = np.concatenate([s, crossings])
            items.append({"id": str(i), "omega": f["omega"], "beta": f["beta"],
                          "alpha": f["alpha"], "epsilon": f.get("epsilon", 0.0),
                          "times": f"t{i}"})
            if f.get("epsilon"):
                items.append({"id": f"{i}.plain", "omega": f["omega"], "beta": f["beta"],
                              "alpha": f["alpha"], "times": f"t{i}"})
        return items, arrays

    def check(self, ops, loaded, ref) -> list[str]:
        problems = []
        by_name = {op["name"]: (i, op, item) for i, (op, item) in enumerate(zip(ops, loaded))}
        for i, op, item in by_name.values():
            # A command that exited otherwise than expected is counted as
            # failed by the worker (and is a problem unless it is a known
            # fault); out-of-range argvs write nothing to check.
            if op["expect"] != "ok" or item["returncode"] != 0 or "Traceback" in item["stderr"]:
                continue
            check = getattr(self, "_" + op["argv"][0])
            problems += check(f"cli {op['name']}", i, op, item, ref)
        a, b = by_name["simulate-classify"][2], by_name["simulate-repeat"][2]
        for suffix in (".csv", ".json", ".meta.json"):
            if a["bytes"].get("sim" + suffix) != b["bytes"].get("sim_again" + suffix):
                problems.append(f"cli simulate-repeat: {suffix} differs from the first run")
        return problems

    def _simulate(self, tag, i, op, item, ref):
        f = op["facts"]
        header, body = item["csv"]
        summary = item["json"]
        if header != "s,u,v,H,T,E,V":
            return [f"{tag}: CSV header {header!r}"]
        horizon = f.get("horizon", inputs.default_horizon(f["omega"], f["beta"]))
        rows = int(math.floor(horizon / f["sample_step"] + 1e-9)) + 1 if "sample_step" in f \
            else 4097
        s, u, v, H, T, E, V = body.T
        problems = sample_grid_problems(tag, s, horizon, rows)
        if problems:
            return problems
        epsilon = f.get("epsilon", 0.0)
        problems += check_columns(tag, s, u, v, H, T, E, V, f["omega"], epsilon)
        n = s.size
        u_ref, v_ref = ref[f"{i}/u"], ref[f"{i}/v"]
        problems += check_against_reference(tag, u, v, u_ref[:n], v_ref[:n])
        last = summary["final_state"]
        if [last["s"], last["u"], last["v"], last["H"]] != [s[-1], u[-1], v[-1], H[-1]]:
            problems.append(f"{tag}: last CSV row differs from the JSON final state")
        crossings = [[c["s"], c["direction"]] for c in summary["crossings"]]
        problems += check_crossings(tag, s, u, crossings, u_ref[n:])
        if epsilon:
            plain = ref[f"{i}.plain/u"][:n]
            expected = float(np.max(np.abs(u_ref[:n] - plain)))
            got = summary["sup_distance_to_unregularized"]
            if abs(got - expected) > 2.0 * float(traj_bound(1.0)):
                problems.append(f"{tag}: sup distance to the unregularized run {got!r}, "
                                f"reference {expected!r}")
        cls = summary.get("classification")
        if cls is not None:
            problems += check_verdict(tag, cls["approach"], f["omega"], f["beta"],
                                      len(crossings))
            basin = cls["basin"]
            problems += check_basin(tag, f["alpha"], basin["C"], basin["u_min"], basin["u_max"])
            if np.max(V) > basin["C"] + FORMULA_TOL:
                problems.append(f"{tag}: V exceeds C")
        return problems

    def _picard(self, tag, i, op, item, ref):
        f = op["facts"]
        header, body = item["csv"]
        summary = item["json"]
        if header != "s,u":
            return [f"{tag}: CSV header {header!r}"]
        nodes = 4096
        grid = np.linspace(0.0, f["horizon"], nodes + 1)
        if body.shape[0] != nodes + 1 or _worst(body[:, 0], grid) > 1e-12 * f["horizon"]:
            return [f"{tag}: CSV is not on the default grid of {nodes} steps"]
        problems = []
        h = f["horizon"] / nodes
        err = _worst(body[:, 1], ref[f"{i}/u"][:nodes + 1])
        if err > PICARD_H2 * h * h:
            problems.append(f"{tag}: error {err:.3e} exceeds {PICARD_H2} h^2")
        log = summary["sup_norm_log"]
        if summary["iterations"] != len(log) or summary["final_diff"] != log[-1] \
                or not summary["final_diff"] < PICARD_TOL or summary["h"] != h:
            problems.append(f"{tag}: iteration summary inconsistent: {summary['iterations']}, "
                            f"{summary['final_diff']!r}, h={summary['h']!r}")
        return problems

    def _regime(self, tag, i, op, item, ref):
        f = op["facts"]
        header, body = item["csv"]
        summary = item["json"]
        second_order = f["case"] in (1, 4)
        want = "t,u,v,h,residual" if second_order else "t,u,h,residual"
        if header != want:
            return [f"{tag}: CSV header {header!r}, expected {want!r}"]
        t, u = body[:, 0], body[:, 1]
        h = body[:, -2]
        problems = sample_grid_problems(tag, t, f["horizon"], 4097)
        if _worst(h, np.sqrt(2.0 * np.maximum(u, 0.0))) > 4e-16 * max(1.0, np.max(h)):
            problems.append(f"{tag}: h != sqrt(2u)")
        beta, h0 = f["beta"], f["alpha"]
        if f["case"] == 1:
            exact = 0.5 * h0 * h0 + t / beta - (1.0 - np.exp(-beta * t)) / beta ** 2
            if _worst(u, exact) > 1e-8:
                problems.append(f"{tag}: u is {_worst(u, exact):.3e} from u0 + t/b - "
                                "(1 - e^-bt)/b^2")
        elif f["case"] == 2:
            keep = h < 0.999
            anti = lambda x: -x - np.log1p(-x)
            t_exact = beta * (anti(h[keep]) - anti(h0))
            if _worst(t[keep], t_exact) > 1e-7:
                problems.append(f"{tag}: t(h) misses the implicit relation by "
                                f"{_worst(t[keep], t_exact):.3e}")
        elif f["case"] == 3:
            exact = np.sqrt(2.0 * t / beta + h0 * h0)
            if _worst(h, exact) > 1e-9:
                problems.append(f"{tag}: h is {_worst(h, exact):.3e} from sqrt(2t/b + h0^2)")
        else:
            drift = _worst(energy(u, body[:, 2]), energy(0.5 * h0 * h0, 0.0))
            if drift > 1e-8:
                problems.append(f"{tag}: energy drifts by {drift:.3e}")
        if summary["case"] != f["case"] or summary["max_residual"] != float(np.max(body[:, -1])):
            problems.append(f"{tag}: JSON summary disagrees with the CSV")
        return problems

    def _classify(self, tag, i, op, item, ref):
        f = op["facts"]
        got = item["json"]
        n = len(got["crossings"])
        problems = check_verdict(tag, got["approach"], f["omega"], f["beta"], n)
        directions = [c["direction"] for c in got["crossings"]]
        if any(a == b for a, b in zip(directions, directions[1:])):
            problems.append(f"{tag}: crossing directions do not alternate")
        if not got["final_distance"] < 1e-4:
            problems.append(f"{tag}: final distance {got['final_distance']!r} not settled")
        if got["linear"]["kind"].replace("stable-", "").replace("-node", "") not in \
                (point_kind(f["omega"], f["beta"]), "inflected"):
            problems.append(f"{tag}: linear kind {got['linear']['kind']}")
        return problems

    def _basin(self, tag, i, op, item, ref):
        got = item["json"]
        return check_basin(tag, op["facts"]["alpha"], got["C"], got["u_min"], got["u_max"])

    def _nondim(self, tag, i, op, item, ref):
        src = json.loads(Path(op["argv"][op["argv"].index("--input") + 1]).read_text())
        got = item["json"]
        cos_t = math.cos(math.radians(src["theta_deg"]))
        h_e = 2.0 * src["gamma"] * cos_t / (src["rho"] * src["g"] * src["R"])
        tau = 8.0 * src["mu"] * h_e / (src["rho"] * src["g"] * src["R"] ** 2)
        want = {"h_e": h_e, "tau": tau, "omega": h_e / (src["g"] * tau * tau),
                "beta": 1.0 / (1.0 + 4.0 * src["L"] / src["R"]), "alpha": src["h0"] / h_e}
        return [f"{tag}: {key} = {got[key]!r}, expected {value!r}"
                for key, value in want.items()
                if abs(got[key] - value) > 1e-12 * max(abs(value), 1e-300)]

    def mutations(self, ops, loaded):
        def alter_row(items):
            i = next(k for k, op in enumerate(ops) if op["name"] == "simulate-classify")
            header, body = items[i]["csv"]
            body = body.copy()
            body[body.shape[0] // 2, 1] += 1e-6
            items[i]["csv"] = (header, body)
        return [("a CSV row altered", alter_row, "from the reference")]


CHECKERS = {"trajectory-sweep": TrajectoryChecker, "picard-sweep": PicardChecker,
            "verify-suite": VerifyChecker}
