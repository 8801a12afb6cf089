"""The command line's float path against the library's array path, bit for
bit: `integrate_floats` against `integrate` on every column, the
crossings, the final distance, the classify verdict and the basin audit,
and both against the unsampled `solve`'s crossings and final state;
`integrate_regime_floats` against `integrate_regime` on every column and
oracle residual, and the regime closed forms on floats against numpy; and
`DenseSolution.sample` against calling the solution. A one-ulp change
on either side, such as a reordered sum of the dense coefficients, fails
here. Only the case-1 and case-2 residuals may differ, by a few ulps of
the oracle's largest term, where libm's `exp` and `log1p` round other
than numpy's."""
import math
from dataclasses import astuple

import numpy as np
import pytest

from washburn import dynamics, stability
from washburn.dynamics import RegimeCase, RegimeSpec
from washburn.errors import InconclusiveError, NumericError
from washburn.integrate import (CSV_HEADER, integrate, integrate_floats, integrate_regime,
                                integrate_regime_floats, regime_oracle_residuals, solve)
from washburn.params import ModelParams, critical_omega

from test_rk import PROBLEMS, bits, reference_times, regime


def seeded_runs():
    """(name, params, keywords) of the compared runs: fixed corners, then
    seeded nodes and spirals, dry and wet, some regularized, some sampled at
    a step that does not divide the horizon."""
    yield "dry-spiral", ModelParams(1.0, 1.0, 0.0), {}
    yield "top-alpha", ModelParams(1.0, 1.0, 1.5), {}
    yield "at-equilibrium", ModelParams(1.0, 1.0, 1.0), {}
    yield "node", ModelParams(0.1, 1.0, 0.3), {"horizon": 40.0}
    yield "light-spiral", ModelParams(25.0, 0.75, 0.0), {}  # damping 0.15
    yield "epsilon", ModelParams(0.5, 0.8, 0.0), {"epsilon": 1e-4}
    yield "ragged-horizon", ModelParams(1.0, 1.0, 0.5), {"horizon": 10.0, "sample_step": 0.3}
    # 0.3 * 18 is 5.3999999999999995: the last sample is the horizon itself.
    yield "short-multiple", ModelParams(1.0, 1.0, 0.5), {"horizon": 5.4, "sample_step": 0.3}
    yield "40001-samples", ModelParams(0.55, 0.75, 0.8), {"horizon": 40.0,
                                                          "sample_step": 0.001}
    yield "omega=1e-308", ModelParams(1e-308, 1.0, 0.0), {}
    rng = np.random.default_rng(28)
    for i in range(12):
        beta = rng.uniform(0.3, 1.0)
        omega = critical_omega(beta) * rng.uniform(0.2, 8.0)
        alpha = 0.0 if i % 3 == 0 else rng.uniform(0.05, 1.5)
        keywords = {"epsilon": 10.0 ** rng.uniform(-6, -3)} if i % 4 == 1 else {}
        if i % 5 == 2:
            keywords["horizon"] = rng.uniform(5.0, 30.0)
            keywords["sample_step"] = rng.uniform(0.003, 0.05)
        yield f"seeded-{i}", ModelParams(omega, beta, alpha), keywords


RUNS = {name: (params, keywords) for name, params, keywords in seeded_runs()}


def verdict(traj):
    try:
        report = stability.classify_approach(traj)
    except InconclusiveError as exc:
        return "inconclusive", str(exc)
    return report.kind, bits(report.final_distance).item()


def crossing_bits(run):
    return [(bits(c.s).item(), c.direction) for c in run.crossings]


@pytest.mark.parametrize("name", RUNS)
def test_float_path_has_the_bits_of_the_array_path(name):
    params, keywords = RUNS[name]
    arrays = integrate(params, **keywords)
    floats = integrate_floats(params, **keywords)
    for column in CSV_HEADER.split(","):
        got, want = getattr(floats, column), getattr(arrays, column)
        assert isinstance(got, memoryview) and got.readonly and got.format == "d", column
        assert np.array_equal(bits(got), bits(want)), column
    assert crossing_bits(floats) == crossing_bits(arrays)
    assert all(type(c.s) is float for c in floats.crossings)
    assert (bits(floats.final_distance_to_equilibrium()).item()
            == bits(arrays.final_distance_to_equilibrium()).item())
    assert verdict(floats) == verdict(arrays)
    spec = stability.basin(params.alpha)
    got, want = (astuple(stability.audit_trajectory(traj, spec)) for traj in (floats, arrays))
    assert np.array_equal(bits(got), bits(want))
    assert (floats.epsilon, floats.tolerances, floats.sample_step) == (
        arrays.epsilon, arrays.tolerances, arrays.sample_step)
    # The unsampled run has the crossings and, at the horizon, the last
    # sample of both paths.
    run = solve(params, **{k: v for k, v in keywords.items() if k != "sample_step"})
    assert all(crossing_bits(traj) == crossing_bits(run)
               and bits([traj.u[-1], traj.v[-1]]).tolist() == bits(run.final_state()).tolist()
               for traj in (floats, arrays))
    # The first sample, the dense output at s = 0, is the start state.
    assert all(bits([traj.u[0], traj.v[0]]).tolist() == bits(traj.initial_state()).tolist()
               for traj in (floats, arrays))


def test_the_table_covers_its_cases():
    runs = {name: integrate_floats(params, **keywords)
            for name, (params, keywords) in RUNS.items()}
    kinds = {verdict(traj)[0] for traj in runs.values()}
    assert {stability.ApproachKind.MONOTONE, stability.ApproachKind.OSCILLATORY,
            stability.ApproachKind.AT_EQUILIBRIUM, "inconclusive"} <= kinds
    assert len(runs["40001-samples"].s) == 40_001
    assert len(runs["light-spiral"].crossings) > 20
    ragged = RUNS["ragged-horizon"][1]
    assert math.remainder(ragged["horizon"], ragged["sample_step"]) != 0.0


# name: (case, beta, alpha, horizon, sample step); dry and wet starts, and
# ragged runs whose sample step does not divide the horizon.
REGIME_RUNS = {
    "case1": (1, 0.7, 0.2, 20.0, None),
    "case1-ragged": (1, 0.5, 0.0, 10.0, 0.3),
    "case1-series": (1, 1e-3, 0.3, 10.0, None),  # beta t < 0.1: the Taylor series
    "case2": (2, 1.0, 0.1, 5.0, None),
    "case2-ragged": (2, 0.7, 0.2, 4.0, 0.07),
    "case3": (3, 0.7, 0.0, 5.0, 0.25),
    "case3-wet-ragged": (3, 1.0, 0.3, 10.0, 0.3),
    "case4": (4, 1.0, 0.5, 100.0, None),
    "case4-ragged": (4, 0.7, 0.5, 5.0, 0.3),
}
RESIDUAL_ULPS = 4


def oracle_scale(traj):
    """The largest term of the case-1 closed form u0 + t/beta - (1 -
    e^-x)/beta^2, or of the case-2 time beta (anti(h) - anti(h0)), anti(x) =
    -x - log1p(-x), at each sample: an ulp of exp or log1p moves the oracle
    by about an ulp of it."""
    t, h, beta = np.asarray(traj.t), np.asarray(traj.h), traj.beta
    if traj.spec.case is RegimeCase.NEGLIGIBLE_GRAVITY:
        return np.maximum(0.5 * traj.h0 * traj.h0 + t / beta, 1.0 / beta**2)
    return beta * np.maximum(np.abs(np.log1p(-h)), abs(math.log1p(-traj.h0)))


@pytest.mark.parametrize("name", REGIME_RUNS)
def test_float_regime_path_has_the_bits_of_the_array_path(name):
    case, beta, alpha, horizon, step = REGIME_RUNS[name]
    spec = RegimeSpec.standard(case)
    arrays = integrate_regime(spec, beta, alpha, horizon, sample_step=step)
    floats = integrate_regime_floats(spec, beta, alpha, horizon, sample_step=step)
    assert (floats.spec, floats.beta, floats.h0, floats.tolerances) == (
        arrays.spec, arrays.beta, arrays.h0, arrays.tolerances)
    for column in ("t", "u", "v", "h"):
        got, want = getattr(floats, column), getattr(arrays, column)
        if spec.first_order and column == "v":
            assert got is None and want is None
            continue
        assert isinstance(got, memoryview) and got.readonly and got.format == "d", column
        assert np.array_equal(bits(got), bits(want)), column
    (name_f, got), (name_a, want) = map(regime_oracle_residuals, (floats, arrays))
    assert name_f == name_a
    assert isinstance(got, memoryview) and got.readonly and got.format == "d"
    if case in (3, 4):  # sqrt is correctly rounded; the float energy has the array bits
        assert np.array_equal(bits(got), bits(want))
    else:
        excess = np.abs(np.asarray(got) - want) / (np.spacing(1.0) * oracle_scale(arrays))
        assert excess.max() <= RESIDUAL_ULPS


def test_the_regime_table_covers_its_cases():
    assert {run[0] for run in REGIME_RUNS.values()} == {1, 2, 3, 4}
    assert any(math.remainder(horizon, step) != 0.0
               for _, _, _, horizon, step in REGIME_RUNS.values() if step)
    assert any(alpha > 0.0 for _, _, alpha, _, _ in REGIME_RUNS.values())
    # The case-1 runs take the series and the closed form somewhere.
    x = [beta * horizon for case, beta, _, horizon, _ in REGIME_RUNS.values() if case == 1]
    assert min(x) < 0.1 < max(x)


@pytest.mark.parametrize("case,beta,alpha,horizon", [
    (2, 0.5, 0.0, 20.0),   # h* rounds up to 1 mid-run: log1p(-1)
    (2, 1.0, 1.2, 4.0),    # starts above the asymptote: log1p below -1
    (3, 1e-308, 0.0, 20.0),  # the first-step coefficients overflow: NaN from s = 0
])
def test_both_regime_paths_refuse_a_non_finite_oracle_alike(case, beta, alpha, horizon):
    spec = RegimeSpec.standard(case)
    messages = []
    for run in (integrate_regime, integrate_regime_floats):
        with pytest.raises(NumericError) as refused:
            regime_oracle_residuals(run(spec, beta, alpha, horizon))
        messages.append(str(refused.value))
    assert messages[0] == messages[1]
    assert " oracle is not finite from t* = " in messages[0]


EDGE_TIMES = [0.0, -0.0, 1e-300, 0.05, 1.0, 30.0, 1e300, -1.0, -1e3, math.inf, -math.inf,
              math.nan]
EDGE_HEIGHTS = [0.0, 0.2, 0.999, 1.0, 1.5, -1.0, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("oracle,values,args", [
    pytest.param(dynamics.case1_closed_form_u, EDGE_TIMES, (beta, 0.125), id=f"case1-{beta}")
    for beta in (1e-300, 1e-160, 0.7, 1e155, math.inf)] + [
    pytest.param(dynamics.case2_implicit_time, EDGE_HEIGHTS, (0.7, h0), id=f"case2-{h0}")
    for h0 in (0.0, 0.2, 1.0)] + [
    pytest.param(dynamics.case3_closed_form_h, EDGE_TIMES, (beta, 0.3), id=f"case3-{beta}")
    for beta in (1e-308, 0.7, 0.0)])
def test_closed_forms_on_floats_give_numpy_values_without_raising(oracle, values, args):
    with np.errstate(all="ignore"):
        want = oracle(np.array(values), *args)
    got = [oracle(x, *args) for x in values]
    assert all(type(y) is float for y in got)
    got = np.array(got)
    # The same NaN, inf and -inf; the finite values within an ulp of libm's
    # exp or log1p, and bit for bit where only sqrt is called.
    nan, finite = np.isnan(want), np.isfinite(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan & ~finite], want[~nan & ~finite])
    if oracle is dynamics.case3_closed_form_h:
        assert np.array_equal(bits(got[finite]), bits(want[finite]))
    else:
        assert np.allclose(got[finite], want[finite], rtol=1e-12, atol=0.0)


# Two-component solves and the one-component regime cases 2 and 3.
SOLVES = {**PROBLEMS,
          "regime-case3": lambda: regime(RegimeCase.NEGLIGIBLE_GRAVITY_INERTIA, 0.7, 0.2, 5.0)}


@pytest.mark.parametrize("name", SOLVES)
def test_sample_has_the_bits_of_calling_the_solution(name):
    dense, *_ = SOLVES[name]()
    # Unsorted times, every step boundary, and times before the first step
    # and past the last, then the same times sorted.
    times = reference_times(dense)
    for t in (times, np.sort(times)):
        got = dense.sample(t.tolist())
        assert len(got) == dense.n
        assert np.array_equal(bits(got), bits(dense(t)))
