"""The integrator against independent solutions of the u-form model,
u'' = 1 - gamma u' - sqrt(2u).

Dry starts: the reference is scipy's DOP853 at rtol 1e-13 and atol 1e-15
on this module's own right-hand side. It cannot start at the corner u = 0,
where sqrt(2u) has no derivative, so it starts at s0 from this module's own
Taylor series of y = sqrt(2u), in which the dry start is regular, and the
series itself is the reference below s0.

Both starts, against a second reference: a Taylor-series integrator in
the standard library's `decimal` at 40 digits (Corliss & Chang, ACM TOMS 8
(1982) 114-144). A dry start takes its first step on the corner series of
y = sqrt(2u) at that precision. Software arithmetic, so its bits do not
depend on the CPU.

Nothing here but `integrate`, `solve`, `ModelParams` and the points of
`verify.ACCEPTANCE_GRID` comes from the package.
"""
import functools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from washburn import ModelParams, integrate, solve
from washburn.verify import ACCEPTANCE_GRID

S0 = 1e-5
SERIES_ORDER = 8


def corner_series(gamma, order=SERIES_ORDER):
    """Taylor coefficients b_0 .. b_order of y = sqrt(2u) = s + b_2 s^2 + ...
    from rest at u = 0, floats or Decimals as gamma is: u = y^2/2 turns the
    model into y'^2 + y y'' + gamma y y' + y = 1, and its s^n coefficient
    gives b_(n+1) times (n+1)(n+2) plus the terms of lower coefficients."""
    b = [0, 1]
    for n in range(1, order):
        rest = (sum((i + 1) * b[i + 1] * (n - i + 1) * b[n - i + 1] for i in range(1, n))
                + sum(b[i] * (n - i + 2) * (n - i + 1) * b[n - i + 2] for i in range(2, n + 1))
                + gamma * sum(b[i] * (n - i + 1) * b[n - i + 1] for i in range(1, n + 1))
                + b[n])
        b.append(-rest / ((n + 1) * (n + 2)))
    return b


def series_state(b, s):
    """(u, v) = (y^2/2, y y') of the series b at the times s."""
    y = sum(bk * s**k for k, bk in enumerate(b))
    dy = sum(k * bk * s**(k - 1) for k, bk in enumerate(b) if k)
    return 0.5 * y * y, y * dy


def reference_u(gamma, s):
    """u at the sorted times s: the series up to S0, DOP853 from there."""
    b = corner_series(gamma)
    early = s <= S0
    u0, v0 = series_state(b, S0)

    def rhs(t, y):
        return (y[1], 1.0 - gamma * y[1] - math.sqrt(2.0 * max(y[0], 0.0)))

    ref = solve_ivp(rhs, (S0, float(s[-1])), (u0, v0), method="DOP853", rtol=1e-13,
                    atol=1e-15, t_eval=s[~early])
    assert ref.status == 0
    return np.concatenate((series_state(b, s[early])[0], ref.y[0]))


def test_corner_series_starts_as_the_closed_form():
    # u = s^2/2 - (1 + gamma) s^3/6 + (1 + gamma)(3 gamma + 1) s^4/72 + ...
    gamma = 2.0
    b = corner_series(gamma)
    u = np.polynomial.polynomial.polypow(b, 2)[:5] / 2.0
    assert u[:3].tolist() == [0.0, 0.0, 0.5]
    assert u[3] == pytest.approx(-(1.0 + gamma) / 6.0, rel=1e-15)
    assert u[4] == pytest.approx((1.0 + gamma) * (3.0 * gamma + 1.0) / 72.0, rel=1e-15)


@pytest.mark.parametrize("omega,run,bound", [
    (1.0, {}, 1e-8),
    (0.1, {}, 1e-8),
    (1.0, {"horizon": 1e-3, "sample_step": 1e-7}, 1e-14),
])
def test_dry_start_matches_the_reference(omega, run, bound):
    params = ModelParams(omega, 1.0, 0.0)
    traj = integrate(params, **run)
    error = np.max(np.abs(traj.u - reference_u(params.damping, traj.s)))
    assert error <= bound


TAYLOR_DIGITS = 40
TAYLOR_ORDER = 30
TAYLOR_STEP = Decimal("0.05")
WET_POINTS = [(1.0, 1.0, 0.5), (0.1, 0.5, 1.4), (1.0, 0.5, 0.1)]  # (omega, beta, alpha)
# The other 14 wet points of ACCEPTANCE_GRID; alpha = 1 starts at the equilibrium.
WET_GRID_POINTS = [(omega, beta, alpha) for beta, omega, alpha in ACCEPTANCE_GRID
                   if alpha != 0.0 and (omega, beta, alpha) not in WET_POINTS]
DRY_POINTS = [(omega, beta, alpha) for beta, omega, alpha in ACCEPTANCE_GRID if alpha == 0.0]
WET_TIMES = (1.0, 5.0)


def taylor_coefficients(u, v, gamma):
    """Taylor coefficients u_0 .. u_TAYLOR_ORDER of u about a wet state
    (u, v), with w = sqrt(2u) expanded alongside: w^2 = 2u gives
    w_k = (2 u_k - sum_{j=1..k-1} w_j w_{k-j}) / (2 w_0), and the model's s^k
    coefficient (k+2)(k+1) u_{k+2} = [k = 0] - gamma (k+1) u_{k+1} - w_k."""
    w0 = (2 * u).sqrt()
    us, ws = [u, v], [w0]
    for k in range(TAYLOR_ORDER - 1):
        if k:
            ws.append((2 * us[k] - sum(ws[j] * ws[k - j] for j in range(1, k))) / (2 * w0))
        us.append(((k == 0) - gamma * (k + 1) * us[k + 1] - ws[k]) / ((k + 2) * (k + 1)))
    return us


def series_at(c, h):
    """The series with coefficients c and its derivative at h, by Horner."""
    y = dy = 0
    for k in range(len(c) - 1, 0, -1):
        y = y * h + c[k]
        dy = dy * h + k * c[k]
    return y * h + c[0], dy


@functools.cache
def taylor_u(omega, beta, alpha, max_step=TAYLOR_STEP):
    """u at WET_TIMES from rest at u = alpha^2/2, as Decimals. A dry start
    (alpha = 0) first steps max_step on the corner series, to the wet state
    (u, v) = (y^2/2, y y'). Each wet step is at most max_step and at most
    w_0/4: the branch point of sqrt(2u), where u reaches 0, lies about
    w_0 = sqrt(2u) from the expansion point."""
    with localcontext() as ctx:
        ctx.prec = TAYLOR_DIGITS
        gamma = Decimal(beta) / Decimal(omega).sqrt()
        u, v, s = Decimal(alpha) ** 2 / 2, Decimal(0), Decimal(0)
        if alpha == 0.0:
            y, dy = series_at(corner_series(gamma, TAYLOR_ORDER), max_step)
            u, v, s = y * y / 2, y * dy, max_step
        at_times = []
        for target in map(Decimal, WET_TIMES):
            while s < target:
                h = min(max_step, (2 * u).sqrt() / 4, target - s)
                u, v = series_at(taylor_coefficients(u, v, gamma), h)
                s += h
            at_times.append(u)
        return tuple(at_times)


@pytest.mark.parametrize("point", WET_POINTS + WET_GRID_POINTS + DRY_POINTS)
def test_taylor_reference_agrees_with_itself_at_half_the_step(point):
    # Measured: at most 7.3e-26 from a wet start, and 5e-40 from a dry one,
    # whose first step is halved too.
    for u, u_half in zip(taylor_u(*point), taylor_u(*point, TAYLOR_STEP / 2)):
        assert abs(u - u_half) <= Decimal("1e-24")


def assert_matches_the_decimal_reference(point):
    """`solve` within 1e-8 of `taylor_u` at WET_TIMES at the default
    tolerances, and at least ten times closer at (1e-12, 1e-10)."""
    params = ModelParams(*point)
    for s, u_ref in zip(WET_TIMES, taylor_u(*point)):
        default, tight = (abs(run.final_state().u - float(u_ref))
                          for run in (solve(params, horizon=s),
                                      solve(params, horizon=s, tolerances=(1e-12, 1e-10))))
        assert default <= 1e-8, (point, s)
        assert 10.0 * tight <= default, (point, s)


@pytest.mark.parametrize("point", WET_POINTS + WET_GRID_POINTS)
def test_wet_start_matches_the_decimal_reference(point):
    # Measured: 8.1e-11 to 2.4e-9 at the default tolerances, and 87 to 2403
    # times closer at (1e-12, 1e-10); 0 at both from the equilibrium start.
    assert_matches_the_decimal_reference(point)


@pytest.mark.parametrize("point", DRY_POINTS)
def test_dry_start_matches_the_decimal_reference(point):
    # The alpha = 0 points of ACCEPTANCE_GRID. Measured: 7.0e-11 to 2.2e-9 at
    # the default tolerances, and 89 to 532 times closer at (1e-12, 1e-10).
    # The scipy DOP853 reference above agrees with this one to 5e-15.
    assert_matches_the_decimal_reference(point)
