"""Named verification suites: module invariants plus the acceptance gate.

Every check is a zero-argument callable that returns a details dict and
raises CheckFailure when the property it guards does not hold. `CHECKS`
is the one check set: the CLI `verify` command runs it (optionally
filtered by a substring, so no name may contain another) and writes a
machine-readable report, and tier-1 pytest runs each entry as one test
(tests/test_acceptance.py). A check joins the set by being defined here
as a module-level `check_<module>_<rest>` or `acceptance_<rest>`
function; it is keyed `<module>.<rest>` or `acceptance.<rest>`, in
definition order. An acceptance check's docstring names its criterion.
"""
from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import _rk, dynamics, params as params_module, stability, volterra
from .dynamics import RegimeCase, RegimeSpec, State
from .errors import WashburnError
from .integrate import (REGIME_TOLERANCES, _solve, continuous_dependence, integrate,
                        integrate_regime, regime_oracle_residuals)
from .params import ModelParams, PhysicalParams

SEED = 20250810

# Step pair for the finite-difference Lyapunov-derivative order estimate;
# large enough to dominate interpolation noise, small enough to sit in
# the asymptotic O(ds^2) regime for the stiffest grid point.
FD_STEPS = (0.00625, 0.003125)
FD_TOLERANCES = (1e-13, 1e-12)
FD_HORIZON = 20.0
FD_MIN_ORDER = 1.9

ACCEPTANCE_GRID = [
    (beta, omega, alpha)
    for beta in (0.5, 1.0)
    for omega in (0.1, 1.0)
    for alpha in (0.0, 0.1, 1.0, 1.4, 1.5)
]

VOLTERRA_GRID = [
    (beta, omega, alpha)
    for beta in (1.0, 0.5)
    for omega in (0.1, 0.25, 1.0)
    for alpha in (0.0, 0.1, 1.0)
]


class CheckFailure(WashburnError):
    """A verification check did not hold."""


def _require(condition: bool, message: str):
    if not condition:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# params

def check_params_roundtrip() -> dict:
    us = np.concatenate([np.linspace(0.0, 9.0 / 8.0, 2001),
                         np.random.default_rng(SEED).uniform(0.0, 9.0 / 8.0, 2000)])
    worst = 0.0
    for u in us:
        back = params_module.u_from_H(params_module.H_from_u(float(u)))
        worst = max(worst, abs(back - u))
    _require(worst <= 1e-15, f"u->H->u round trip drifts by {worst:.3e}")
    return {"max_roundtrip_error": worst}


def check_params_omega_consistency() -> dict:
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(2000):
        p = PhysicalParams(
            rho=rng.uniform(100.0, 2000.0),
            mu=10.0 ** rng.uniform(-4.0, 0.0),
            gamma=rng.uniform(0.01, 0.1),
            theta=rng.uniform(0.0, 1.4),
            g=rng.uniform(1.0, 20.0),
            R=10.0 ** rng.uniform(-5.0, -2.0),
            L=rng.uniform(0.0, 1e-3),
        )
        mp = params_module.nondimensionalize(p)
        check = (mp.Bo / mp.Oh) ** 2 / (128.0 * math.cos(p.theta))
        worst = max(worst, abs(mp.omega - check) / mp.omega)
    _require(worst <= 1e-12, f"omega formulas disagree by {worst:.3e} relative")
    return {"max_relative_disagreement": worst}


def check_params_beta_slip_monotone() -> dict:
    ratios = np.sort(np.random.default_rng(SEED).uniform(0.0, 50.0, 500))
    R = 1e-4
    betas = np.array([params_module.nondimensionalize(PhysicalParams(
        rho=1000.0, mu=1e-3, gamma=0.0728, theta=0.0, g=9.81, R=R, L=float(r) * R,
        h0=0.0)).beta for r in ratios])
    _require(bool(np.all(betas > 0.0) and np.all(betas <= 1.0)),
             "beta left (0, 1]")
    _require(bool(np.all(np.diff(betas) < 0.0)),
             "beta is not strictly decreasing in L/R")
    return {"n": int(ratios.size)}


def check_params_critical_omega_scaling() -> dict:
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(2000):
        beta = rng.uniform(1e-3, 4.0)
        c = rng.uniform(1e-3, 8.0)
        lhs = params_module.critical_omega(c * beta)
        rhs = c * c * params_module.critical_omega(beta)
        worst = max(worst, abs(lhs - rhs) / max(lhs, rhs))
    _require(worst <= 1e-15, f"beta^2 scaling violated at {worst:.3e} relative")
    return {"max_relative_error": worst}


# ---------------------------------------------------------------------------
# dynamics

def check_dynamics_equilibrium_rhs() -> dict:
    for omega in (0.05, 0.1, 0.25, 1.0, 4.0):
        for beta in (0.1, 0.5, 1.0):
            du, dv = dynamics.rhs_u(State(0.5, 0.0), omega, beta, 0.0)
            _require(du == 0.0 and dv == 0.0,
                     f"equilibrium not a fixed point at omega={omega}, beta={beta}")
    return {"combinations": 15}


def check_dynamics_regularization_ordering() -> dict:
    rng = np.random.default_rng(SEED)
    for _ in range(2000):
        u, v = rng.uniform(-0.5, 1.2), rng.uniform(-2.0, 2.0)
        eps_small, eps_big = np.sort(rng.uniform(0.0, 1.0, 2))
        if eps_small == eps_big:
            continue
        _, dv_small = dynamics.rhs_u(State(u, v), 1.0, 1.0, float(eps_small))
        _, dv_big = dynamics.rhs_u(State(u, v), 1.0, 1.0, float(eps_big))
        _require(dv_big < dv_small,
                 f"rhs not strictly decreasing in epsilon at (u, v) = ({u}, {v})")
    return {"samples": 2000}


def check_dynamics_case4_conservation() -> dict:
    spec = RegimeSpec.standard(RegimeCase.NEGLIGIBLE_VISCOSITY)
    traj = integrate_regime(spec, beta=1.0, alpha=0.5, horizon=20.0,
                                  tolerances=(1e-12, 1e-11))
    _, drift = regime_oracle_residuals(traj)
    worst = float(np.max(drift))
    _require(worst <= 10 * 1e-11, f"energy drift {worst:.3e} beyond 10x tolerance")
    return {"max_drift": worst}


def check_dynamics_h_u_consistency() -> dict:
    omega, beta, alpha = 1.0, 1.0, 0.5
    traj = integrate(ModelParams(omega, beta, alpha), horizon=20.0,
                     tolerances=(1e-12, 1e-10), sample_step=0.01)
    sol = _rk.solve(lambda T, y: (y[1], dynamics.rhs_H(y[0], y[1], omega, beta)),
                    0.0, (alpha, 0.0), 20.0 * math.sqrt(omega), rtol=1e-10, atol=1e-12)
    H_direct = sol(traj.s * math.sqrt(omega))[0]
    worst = float(np.max(np.abs(traj.H - H_direct)))
    _require(worst <= 1e-7, f"H/u cross-integration differs by {worst:.3e}")
    return {"sup_difference": worst}


# ---------------------------------------------------------------------------
# integrate

def check_integrate_positivity_and_bounds() -> dict:
    worst_hi = -np.inf
    worst_lo = np.inf
    for beta, omega, alpha in [(1.0, 0.1, 0.0), (1.0, 1.0, 0.0), (0.5, 1.0, 0.5),
                               (1.0, 0.1, 1.5), (0.5, 0.1, 1.0)]:
        traj = integrate(ModelParams(omega, beta, alpha))
        worst_hi = max(worst_hi, float(np.max(traj.u)))
        if alpha == 0.0:
            interior = traj.u[traj.s >= traj.s[1]]
            _require(bool(np.all(interior > 0.0)),
                     f"u not strictly positive past the start at omega={omega}")
        else:
            _require(bool(np.all(traj.u > 0.0)),
                     f"u not strictly positive at alpha={alpha}")
        worst_lo = min(worst_lo, float(np.min(traj.u)))
    _require(worst_hi <= 9.0 / 8.0 + 1e-9, f"u exceeded 9/8: {worst_hi!r}")
    return {"max_u": worst_hi, "min_u": worst_lo}


def check_integrate_energy_monotone() -> dict:
    worst = -np.inf
    for beta, omega, alpha in [(1.0, 1.0, 0.0), (0.5, 0.1, 1.4), (1.0, 0.25, 0.1)]:
        traj = integrate(ModelParams(omega, beta, alpha), sample_step=0.01)
        worst = max(worst, float(np.max(np.diff(traj.E))))
    _require(worst <= 1e-8, f"energy rose by {worst:.3e} between samples")
    return {"max_energy_rise": worst}


def _lyapunov_fd_errors(params: ModelParams):
    """Max |centered FD of V + (beta/sqrt(omega)) v^2| for each of FD_STEPS,
    on every stride-th sample of one run sampled at the finest step."""
    gamma = params.damping
    finest = min(FD_STEPS)
    traj = integrate(params, horizon=FD_HORIZON, tolerances=FD_TOLERANCES,
                     sample_step=finest)
    errors = []
    for ds in FD_STEPS:
        stride = round(ds / finest)
        v, V = traj.v[::stride], traj.V[::stride]
        fd = (V[2:] - V[:-2]) / (2.0 * ds)
        errors.append(float(np.max(np.abs(fd + gamma * v[1:-1] ** 2))))
    return errors


def _fd_order_holds(errors):
    if all(e < 1e-12 for e in errors):  # nothing left to resolve
        return True, math.inf
    order = math.log2(errors[0] / errors[1])
    return order >= FD_MIN_ORDER, order


def check_integrate_tolerance_convergence() -> dict:
    params = ModelParams(1.0, 1.0, 0.0)
    coarse = integrate(params, horizon=30.0, tolerances=(1e-10, 1e-8))
    fine = integrate(params, horizon=30.0, tolerances=(5e-11, 5e-9))
    du = abs(coarse.u[-1] - fine.u[-1])
    dv = abs(coarse.v[-1] - fine.v[-1])
    _require(du + dv < 10 * 1e-8,
             f"final state moved by {du + dv:.3e} under tolerance halving")
    return {"final_state_change": du + dv}


# ---------------------------------------------------------------------------
# volterra

def check_volterra_operator_monotone() -> dict:
    rng = np.random.default_rng(SEED)
    grid = np.linspace(0.0, 5.0, 257)
    worst = np.inf
    for _ in range(50):
        f = rng.uniform(0.0, 1.2, grid.size)
        g = f + rng.uniform(0.0, 0.5, grid.size)
        tf = volterra.apply_T(volterra.GridFunction(grid, f), 1.0, 1.0, 0.0)
        tg = volterra.apply_T(volterra.GridFunction(grid, g), 1.0, 1.0, 0.0)
        worst = min(worst, float(np.min(tf.values - tg.values)))
    _require(worst >= -1e-14, f"T(f) >= T(g) fails by {worst:.3e} for f <= g")
    return {"min_margin": worst}


def check_volterra_self_mapping() -> dict:
    rng = np.random.default_rng(SEED)
    worst = np.inf
    for omega, beta in [(1.0, 1.0), (0.25, 1.0), (1.0, 0.5), (4.0, 1.0)]:
        s_star = volterra.uniqueness_window(omega, beta)
        grid = np.linspace(0.0, s_star, 257)
        lower = volterra.bracket_lower(grid)
        upper = volterra.bracket_upper(grid)
        op = volterra.KernelOperator(grid, omega, beta)
        for _ in range(25):
            mix = rng.uniform(0.0, 1.0, grid.size)
            f = lower + mix * (upper - lower)
            tf = op.apply(f, 0.0)
            worst = min(worst, float(np.min(tf - lower)), float(np.min(upper - tf)))
    _require(worst >= -1e-10, f"T leaves the order interval by {worst:.3e}")
    return {"min_margin": worst}


def check_volterra_quadrature_order() -> dict:
    results = {}
    for nodes in (512, 1024, 2048):
        res = volterra.picard_solve(1.0, 1.0, 0.0, 5.0, step=5.0 / nodes, tol=1e-12)
        results[nodes] = res.solution.values
    d_coarse = float(np.max(np.abs(results[512] - results[1024][::2])))
    d_fine = float(np.max(np.abs(results[1024] - results[2048][::2])))
    ratio = d_coarse / d_fine
    _require(3.0 <= ratio <= 5.0,
             f"halving the step changed the answer by x{ratio:.2f}, expected ~4")
    return {"d_coarse": d_coarse, "d_fine": d_fine, "ratio": ratio}


# ---------------------------------------------------------------------------
# stability

def check_stability_v_positivity() -> dict:
    rng = np.random.default_rng(SEED)
    u = rng.uniform(0.0, 9.0 / 8.0, 100_000)
    v = rng.uniform(-2.0, 2.0, 100_000)
    keep = np.abs(u - 0.5) + np.abs(v) > 1e-6
    u, v = u[keep], v[keep]
    E, V = stability.lyapunov_columns(u, v)
    _require(bool(np.all(V > 0.0)),
             f"V not positive away from equilibrium (min {np.min(V):.3e})")
    direct = E + 1.0 / 6.0
    factored = stability._lyapunov_factored(u, v, np.sqrt)
    gap = np.max(np.abs(direct - factored) / np.maximum(1.0, np.abs(factored)))
    _require(float(gap) <= 1e-13,
             f"direct and factored V forms disagree by {gap:.3e}")
    return {"samples": int(u.size), "min_V": float(np.min(V)), "max_form_gap": float(gap)}


def check_stability_eigenvalue_real_part() -> dict:
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(2000):
        beta = rng.uniform(1e-3, 2.0)
        omega = rng.uniform(1e-3, 4.0)
        rep = stability.linearize(omega, beta)
        expected = -beta / (2.0 * math.sqrt(omega))
        mean_re = 0.5 * (rep.lambda1.real + rep.lambda2.real)
        worst = max(worst, abs(mean_re - expected))
        _require(rep.lambda1.real < 0.0 and rep.lambda2.real < 0.0,
                 f"eigenvalue with nonnegative real part at ({omega}, {beta})")
        if rep.kind is stability.PointKind.STABLE_SPIRAL:
            worst = max(worst, abs(rep.lambda1.real - expected),
                        abs(rep.lambda2.real - expected))
    _require(worst <= 1e-12, f"real-part identity off by {worst:.3e}")
    return {"max_error": worst}


def check_stability_classification_boundary() -> dict:
    worst = 0.0
    for beta in (0.5, 1.0, 2.0):
        lo, hi = beta**2 / 8.0, beta**2
        for _ in range(200):
            if hi - lo <= 1e-10:
                break
            mid = 0.5 * (lo + hi)
            if stability.linearize(mid, beta).discriminant > 0.0:
                lo = mid
            else:
                hi = mid
        found = 0.5 * (lo + hi)
        worst = max(worst, abs(found - params_module.critical_omega(beta)))
    _require(worst <= 2e-10,
             f"classification switch misses omega* by {worst:.3e}")
    return {"max_offset": worst}


def check_stability_basin_geometry() -> dict:
    alphas = np.linspace(0.0, 1.5, 3001)
    specs = [stability.basin(float(a)) for a in alphas]
    u_min = np.array([s.u_min for s in specs])
    u_max = np.array([s.u_max for s in specs])
    _require(bool(np.all(u_min <= 0.5 + 1e-12) and np.all(u_max >= 0.5 - 1e-12)),
             "basin does not bracket the equilibrium")
    da = alphas[1] - alphas[0]
    jump = max(float(np.max(np.abs(np.diff(u_min)))),
               float(np.max(np.abs(np.diff(u_max)))))
    _require(jump <= 4.0 * da, f"basin bounds jump by {jump:.3e} over da={da:.3e}")
    C = np.array([s.C for s in specs])
    residual = np.abs(dynamics.energy(np.stack([u_min, u_max]), 0.0) + 1.0 / 6.0 - C)
    return {"max_jump": jump, "grid": int(alphas.size),
            "max_residual": float(np.max(residual))}


# ---------------------------------------------------------------------------
# acceptance criteria

def acceptance_c01_equilibrium_exactness() -> dict:
    """criterion 01: equilibrium exactness"""
    worst = 0.0
    for beta in (0.5, 1.0):
        for omega in (0.1, 0.25, 1.0, 4.0):
            traj = integrate(ModelParams(omega, beta, 1.0), horizon=100.0,
                             sample_step=0.1)
            worst = max(worst, float(np.max(np.abs(traj.u - 0.5))))
    _require(worst < 1e-10, f"equilibrium drifted by {worst:.3e}")
    return {"max_drift": worst}


def acceptance_c02_bounds() -> dict:
    """criterion 02: positivity and upper bound"""
    lo, hi = np.inf, -np.inf
    for beta, omega, alpha in ACCEPTANCE_GRID:
        traj = integrate(ModelParams(omega, beta, alpha))
        lo = min(lo, float(np.min(traj.u)))
        hi = max(hi, float(np.max(traj.u)))
    _require(lo >= -1e-12, f"u dipped to {lo:.3e}")
    _require(hi <= 9.0 / 8.0 + 1e-9, f"u climbed to {hi!r}")
    return {"min_u": lo, "max_u": hi}


def acceptance_c03_energy_lyapunov() -> dict:
    """criterion 03: energy decrease and Lyapunov derivative order"""
    worst_rise = -np.inf
    worst_order = math.inf
    orders = []
    for beta, omega, alpha in ACCEPTANCE_GRID:
        params = ModelParams(omega, beta, alpha)
        traj = integrate(params, horizon=FD_HORIZON, sample_step=FD_STEPS[0])
        worst_rise = max(worst_rise, float(np.max(np.diff(traj.E))))
        errors = _lyapunov_fd_errors(params)
        ok, order = _fd_order_holds(errors)
        orders.append(order)
        if math.isfinite(order):
            worst_order = min(worst_order, order)
        _require(ok, f"FD order {order:.3f} < {FD_MIN_ORDER} at (beta, omega, alpha) = "
                     f"({beta}, {omega}, {alpha}); errors {errors}")
    _require(worst_rise <= 1e-8, f"energy rose by {worst_rise:.3e}")
    return {"max_energy_rise": worst_rise, "min_fd_order": worst_order}


def _has_crossings(omega: float, beta: float) -> bool:
    traj = integrate(ModelParams(omega, beta, 0.0), horizon=80.0,
                     tolerances=(1e-12, 1e-10), sample_step=0.05)
    return len(traj.crossings) > 0


def _bracket_transition(beta: float, lo: float, hi: float) -> tuple[float, float]:
    """Bisect the no-crossings/crossings transition in omega to width 0.03."""
    _require(not _has_crossings(lo, beta) and _has_crossings(hi, beta),
             f"omega bracket [{lo}, {hi}] does not straddle the crossings transition "
             f"at beta = {beta}")
    while hi - lo > 0.03:
        mid = 0.5 * (lo + hi)
        if _has_crossings(mid, beta):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _settled_classification(omega, beta):
    traj = integrate(ModelParams(omega, beta, 0.0), horizon=40.0,
                     tolerances=(1e-12, 1e-10), sample_step=0.02)
    return stability.classify_approach(traj)


def acceptance_c04_bifurcation() -> dict:
    """criterion 04: monotone/oscillatory bifurcation bracket"""
    cases = {
        (1.0, 0.1): stability.ApproachKind.MONOTONE,
        (1.0, 1.0): stability.ApproachKind.OSCILLATORY,
        (0.5, 0.05): stability.ApproachKind.MONOTONE,
        (0.5, 0.5): stability.ApproachKind.OSCILLATORY,
    }
    for (beta, omega), expected in cases.items():
        got = _settled_classification(omega, beta).kind
        _require(got is expected,
                 f"(beta, omega) = ({beta}, {omega}) classified {got.value}, "
                 f"expected {expected.value}")
    brackets = {}
    for beta, lo, hi in ((1.0, 0.1, 1.0), (0.5, 0.05, 0.5)):
        blo, bhi = _bracket_transition(beta, lo, hi)
        star = params_module.critical_omega(beta)
        _require(star - 0.05 <= blo and bhi <= star + 0.05,
                 f"bracket [{blo:.4f}, {bhi:.4f}] misses omega* = {star} +- 0.05")
        brackets[f"beta={beta}"] = [blo, bhi]
    return {"brackets": brackets}


def acceptance_c05_eigenvalue_anchor() -> dict:
    """criterion 05: double eigenvalue anchor"""
    rep = stability.linearize(0.25, 1.0)
    _require(abs(rep.lambda1 - (-1.0)) <= 1e-12 and abs(rep.lambda2 - (-1.0)) <= 1e-12,
             f"eigenvalues {rep.lambda1}, {rep.lambda2} are not the double -1")
    _require(rep.kind is stability.PointKind.STABLE_INFLECTED_NODE,
             f"kind {rep.kind.value} is not the inflected node")
    return {"lambda1": rep.lambda1.real, "lambda2": rep.lambda2.real}


def acceptance_c06_basin_formulas() -> dict:
    """criterion 06: basin formulas"""
    b0 = stability.basin(0.0)
    _require(b0.C == 1.0 / 6.0 and b0.u_min == 0.0 and b0.u_max == 9.0 / 8.0,
             f"basin(0) = {b0}")
    b1 = stability.basin(1.0)
    _require(b1.C == 0.0 and abs(b1.u_min - 0.5) <= 1e-15
             and abs(b1.u_max - 0.5) <= 1e-15, f"basin(1) = {b1}")
    b32 = stability.basin(1.5)
    _require(abs(b32.C - 1.0 / 6.0) <= 1e-15 and b32.u_min == 0.0 and b32.u_max == 9.0 / 8.0,
             f"basin(3/2) = {b32}")
    return {"basin0": asdict(b0), "basin1": asdict(b1), "basin32": asdict(b32)}


def acceptance_c07_volterra_cross_validation() -> dict:
    """criterion 07: fixed-point / integrator cross-validation"""
    # The fixed point on 4096 intervals against the integrator, on [0, 10].
    worst = 0.0
    per_point = []
    for beta, omega, alpha in VOLTERRA_GRID:
        res = volterra.picard_solve(omega, beta, alpha, 10.0, step=10.0 / 4096)
        dense, _ = _solve(ModelParams(omega, beta, alpha), 0.0, 10.0, (1e-12, 1e-10))
        d = float(np.max(np.abs(res.solution.values - dense(res.solution.grid)[0])))
        per_point.append({"beta": beta, "omega": omega, "alpha": alpha,
                          "iterations": res.iterations, "sup_distance": d})
        worst = max(worst, d)
    _require(worst <= 1e-5,
             f"fixed point and integrator differ by {worst:.3e} on the grid")
    interval_margins = {}
    scaling_margins = {}
    for beta in (1.0, 0.5):
        for omega in (0.1, 0.25, 1.0):
            report = volterra.order_interval_check(omega, beta)
            _require(report.holds,
                     f"order interval fails at (omega, beta) = ({omega}, {beta}): {report}")
            interval_margins[f"omega={omega},beta={beta}"] = [
                report.lower_margin, report.upper_margin]
            s_star = volterra.uniqueness_window(omega, beta)
            grid = np.linspace(0.0, s_star, 513)
            for lam, fn in ((0.999999, volterra.bracket_upper),
                            (0.25, volterra.bracket_upper),
                            (0.5, volterra.bracket_lower)):
                f = volterra.GridFunction(grid, fn(grid))
                rep = volterra.check_scaling_inequality(f, lam, omega, beta)
                _require(rep.holds,
                         f"scaling bound fails for lambda={lam} at "
                         f"(omega, beta) = ({omega}, {beta}): {rep.max_violation:.3e}")
                key = f"omega={omega},beta={beta},lam={lam}"
                scaling_margins[key] = rep.max_violation
    return {"worst_sup_distance": worst, "per_point": per_point,
            "order_interval_margins": interval_margins,
            "scaling_violations": scaling_margins}


def acceptance_c08_regularization_convergence() -> dict:
    """criterion 08: regularization convergence"""
    params = ModelParams(1.0, 1.0, 0.0)
    runs = {}
    for k in range(2, 10):
        runs[k] = integrate(params, epsilon=10.0 ** (-k), horizon=20.0,
                                  tolerances=(1e-12, 1e-11), sample_step=0.01)
    distances = [float(np.max(np.abs(runs[k].u - runs[k + 1].u)))
                 for k in range(2, 9)]
    _require(all(d2 < d1 for d1, d2 in zip(distances, distances[1:])),
             f"epsilon distances not strictly decreasing: {distances}")
    return {"distances": distances}


def acceptance_c09_continuous_dependence() -> dict:
    """criterion 09: continuous dependence on initial height"""
    records = continuous_dependence(ModelParams(1.0, 1.0, 0.0), alpha0=0.0,
                                    alphas=(0.2, 0.1, 0.05, 0.025),
                                    horizon=20.0, sample_step=0.01)
    distances = [r.distance for r in records]
    _require(all(d2 < d1 for d1, d2 in zip(distances, distances[1:])),
             f"distances not strictly decreasing: {distances}")
    return {"distances": distances}


def acceptance_c10_regime_oracles() -> dict:
    """criterion 10: reduced-regime oracles"""
    runs = [  # detail key, case, beta, alpha, horizon, tolerances, residual bound
        *((f"case3,beta={beta},alpha={alpha}", 3, beta, alpha, 10.0, REGIME_TOLERANCES, 1e-10)
          for beta in (1.0, 0.5) for alpha in (0.0, 0.3)),
        *((f"case1,beta={beta}", 1, beta, 0.0, 20.0, REGIME_TOLERANCES, 1e-8)
          for beta in (1.0, 0.5)),
        ("case2,beta=1.0", 2, 1.0, 0.1, 5.0, (1e-13, 1e-12), 1e-8),
        ("case4", 4, 1.0, 0.5, 100.0, REGIME_TOLERANCES, 1e-8),  # the energy drift
    ]
    details = {}
    for key, case, beta, alpha, horizon, tolerances, bound in runs:
        traj = integrate_regime(RegimeSpec.standard(RegimeCase(case)), beta=beta,
                                alpha=alpha, horizon=horizon, tolerances=tolerances)
        _, resid = regime_oracle_residuals(traj)
        worst = float(np.max(resid))
        _require(worst <= bound, f"{key}: oracle residual {worst:.3e} above {bound:g}")
        details[key] = worst
    return details


def convergence_distance(beta: float, omega: float, alpha: float) -> float:
    """Distance to equilibrium at the criterion-11 horizon 60 sqrt(omega)/beta."""
    horizon = 60.0 * math.sqrt(omega) / beta
    traj = integrate(ModelParams(omega, beta, alpha), horizon=horizon)
    return traj.final_distance_to_equilibrium()


def acceptance_c11_convergence_to_equilibrium() -> dict:
    """criterion 11: convergence to equilibrium"""
    distances = {}
    failures = []
    for beta, omega, alpha in ACCEPTANCE_GRID:
        d = convergence_distance(beta, omega, alpha)
        distances[f"beta={beta},omega={omega},alpha={alpha}"] = d
        if not d < 1e-5:
            failures.append((beta, omega, alpha, d))
    _require(not failures,
             "final distance >= 1e-5 at " +
             "; ".join(f"(beta={b}, omega={w}, alpha={a}): {d:.3e}"
                       for b, w, a, d in failures))
    return {"distances": distances}


# ---------------------------------------------------------------------------
# registry and runner

CHECKS = {name.removeprefix("check_").replace("_", ".", 1): fn
          for name, fn in list(globals().items())
          if name.startswith(("check_", "acceptance_"))
          and getattr(fn, "__module__", None) == __name__}


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    seconds: float
    details: dict
    message: str | None = None


def run_checks(only: str | None = None) -> list[CheckOutcome]:
    """Run all (or substring-filtered) checks; failures are captured."""
    selected = {name: fn for name, fn in CHECKS.items()
                if only is None or only in name}
    outcomes = []
    for name, fn in selected.items():
        start = time.perf_counter()
        try:
            details = fn()
            outcomes.append(CheckOutcome(name, True, time.perf_counter() - start,
                                         details))
        except Exception as exc:  # a failing check must not stop the suite
            outcomes.append(CheckOutcome(name, False, time.perf_counter() - start,
                                         {}, f"{type(exc).__name__}: {exc}"))
    return outcomes


def outcomes_report(outcomes: list[CheckOutcome]) -> dict:
    return {
        "passed": all(o.passed for o in outcomes),
        "n_checks": len(outcomes),
        "n_failed": sum(not o.passed for o in outcomes),
        "checks": outcomes,
    }
