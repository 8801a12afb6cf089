"""The verify runner, the seeded draws its checks loop over, and the
failure branches of checks that a passing build never reaches.

Each seeded check draws its input table with one `Generator.uniform`
call. The loops below are the per-call draws the checks made before;
each table must hold their floats bit for bit, so a numpy release that
fills a broadcast-bounds table in another order fails here, by name.
"""
import dataclasses

import numpy as np
import pytest

from washburn import verify
from washburn.dynamics import RegimeCase


def omega_consistency_row(rng):
    return [rng.uniform(100.0, 2000.0), rng.uniform(-4.0, 0.0), rng.uniform(0.01, 0.1),
            rng.uniform(0.0, 1.4), rng.uniform(1.0, 20.0), rng.uniform(-5.0, -2.0),
            rng.uniform(0.0, 1e-3)]


def critical_omega_scaling_row(rng):
    return [rng.uniform(1e-3, 4.0), rng.uniform(1e-3, 8.0)]


def regularization_ordering_row(rng):
    return [rng.uniform(-0.5, 1.2), rng.uniform(-2.0, 2.0), *rng.uniform(0.0, 1.0, 2)]


def eigenvalue_real_part_row(rng):
    return [rng.uniform(1e-3, 2.0), rng.uniform(1e-3, 4.0)]


# check: (per-call row, the lows and highs its table is drawn with)
TABLES = {
    "params.omega_consistency": (omega_consistency_row,
                                 (100.0, -4.0, 0.01, 0.0, 1.0, -5.0, 0.0),
                                 (2000.0, 0.0, 0.1, 1.4, 20.0, -2.0, 1e-3)),
    "params.critical_omega_scaling": (critical_omega_scaling_row, (1e-3, 1e-3), (4.0, 8.0)),
    "dynamics.regularization_ordering": (regularization_ordering_row,
                                         (-0.5, -2.0, 0.0, 0.0), (1.2, 2.0, 1.0, 1.0)),
    "stability.eigenvalue_real_part": (eigenvalue_real_part_row, (1e-3, 1e-3), (2.0, 4.0)),
}


@pytest.mark.parametrize("name", TABLES)
def test_one_call_table_holds_the_per_call_draws_bit_for_bit(name):
    row, lows, highs = TABLES[name]
    rng = np.random.default_rng(verify.SEED)
    reference = np.array([row(rng) for _ in range(2000)], dtype=float)
    table = np.array(verify._uniform_rows(lows, highs), dtype=float)
    assert table.shape == reference.shape == (2000, len(lows))
    assert table.tobytes() == reference.tobytes()


def boom():
    return 1 / 0


def doomed():
    raise verify.CheckFailure("property broke at (0.5, 0.25)")


# An unexpected error also names the innermost frame; a CheckFailure (any
# WashburnError) is reported as type and text only.
@pytest.mark.parametrize("check,message", [
    (boom, "ZeroDivisionError: division by zero "
           f"(at test_verify.py:{boom.__code__.co_firstlineno + 1} in boom)"),
    (doomed, "CheckFailure: property broke at (0.5, 0.25)"),
], ids=["unexpected-error", "check-failure"])
def test_failure_message(monkeypatch, check, message):
    monkeypatch.setitem(verify.CHECKS, "synthetic.failing", check)
    (outcome,) = verify.run_checks(only="synthetic.failing")
    assert not outcome.passed and outcome.details == {}
    assert outcome.message == message


def test_c02_names_a_dry_start_that_returns_to_zero(monkeypatch):
    integrate = verify.integrate

    def touching_zero(params, **kwargs):
        traj = integrate(params, **kwargs)
        if (params.beta, params.omega, params.alpha) != (1.0, 1.0, 0.0):
            return traj
        u = traj.u.copy()
        u[2] = 0.0  # past the dry start's first sample, u = 0
        return dataclasses.replace(traj, u=u)

    monkeypatch.setattr(verify, "integrate", touching_zero)
    named = r"^u not strictly positive at \(beta, omega, alpha\) = \(1\.0, 1\.0, 0\.0\)$"
    with pytest.raises(verify.CheckFailure, match=named):
        verify.acceptance_c02_bounds()


def test_c10_names_the_case4_horizon_20_row_above_its_bound(monkeypatch):
    residuals = verify.regime_oracle_residuals

    def drifting(traj):
        name, resid = residuals(traj)
        if traj.spec.case is RegimeCase.NEGLIGIBLE_VISCOSITY and round(traj.t[-1]) == 20:
            # 1e-10 is above that row's bound 10 * 1e-11 = 9.999999999999999e-11.
            resid = np.full_like(resid, 1e-10)
        return name, resid

    monkeypatch.setattr(verify, "regime_oracle_residuals", drifting)
    with pytest.raises(verify.CheckFailure, match=r"^case4,horizon=20: oracle residual "):
        verify.acceptance_c10_regime_oracles()
