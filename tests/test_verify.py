"""The verify runner and the seeded draws its checks loop over.

Each seeded check draws its input table with one `Generator.uniform`
call. The loops below are the per-call draws the checks made before;
each table must hold their floats bit for bit, so a numpy release that
fills a broadcast-bounds table in another order fails here, by name.
"""
import numpy as np
import pytest

from washburn import verify


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
