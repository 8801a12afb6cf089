"""The command line's float path against the library's array path, bit for
bit: `integrate_floats` against `integrate` on every column, the
crossings, the final distance, the classify verdict and the basin audit,
and both against the unsampled `solve`'s crossings and final state; and
`DenseSolution.sample` against calling the solution. A one-ulp change
on either side, such as a reordered sum of the dense coefficients, fails
here."""
import math
from dataclasses import astuple

import numpy as np
import pytest

from washburn import stability
from washburn.dynamics import RegimeCase
from washburn.errors import InconclusiveError
from washburn.integrate import CSV_HEADER, integrate, integrate_floats, solve
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
        assert len(got) == len(dense.y)
        assert np.array_equal(bits(got), bits(dense(t)))
