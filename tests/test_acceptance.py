"""Every check of `verify.CHECKS`, the set `washburn verify` runs, as one test.

The acceptance checks keep their criterion (the first line of each
docstring) as the test id. Criterion 11 is broken out per grid point
instead, so that the points reachable at its stated horizon stay green
individually.

Each test that runs a check also holds its details to
tests/golden/verify/details.json, as `_format.dumps_json` renders them
(regenerate with `PYTHONPATH=src python tests/test_golden.py`), and
requires them to be plain Python values, free of numpy scalars and arrays.
"""
import json
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from washburn import _format, verify

C11 = "acceptance.c11_convergence_to_equilibrium"
GOLDEN_DETAILS = json.loads(
    (Path(__file__).resolve().parent / "golden" / "verify" / "details.json").read_text())
INVARIANTS = [name for name in verify.CHECKS if not name.startswith("acceptance.")]
ACCEPTANCE = [name for name in verify.CHECKS if name.startswith("acceptance.") and name != C11]


def criterion(name):
    return verify.CHECKS[name].__doc__.splitlines()[0]


def numpy_values(obj, path=""):
    """The paths inside obj (dicts, lists, tuples) that hold a numpy value."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return [path]
    if isinstance(obj, dict):
        return [p for key, value in obj.items() for p in numpy_values(value, f"{path}.{key}")]
    if isinstance(obj, (list, tuple)):
        return [p for i, value in enumerate(obj) for p in numpy_values(value, f"{path}[{i}]")]
    return []


def assert_golden_details(name, details):
    """details render as pinned, and hold only plain Python values."""
    assert _format.dumps_json(details) == _format.dumps_json(GOLDEN_DETAILS[name]), (
        f"{name} details differ from tests/golden/verify/details.json")
    assert numpy_values(details) == [], f"{name} details hold numpy values"


def test_numpy_values_finds_nested_numpy_scalars_and_arrays():
    found = numpy_values({"a": 1.0, "b": [2, np.float64(3.0)], "c": {"d": np.zeros(2)}})
    assert found == [".b[1]", ".c.d"]


@pytest.mark.parametrize("name", INVARIANTS)
def test_invariant(name):
    details = verify.CHECKS[name]()
    print(f"PASS {name}: {details}")
    assert_golden_details(name, details)


@pytest.mark.parametrize("name", ACCEPTANCE, ids=[criterion(name) for name in ACCEPTANCE])
def test_acceptance_criterion(name):
    details = verify.CHECKS[name]()
    print(f"PASS {criterion(name)}: {details}")
    assert_golden_details(name, details)


def test_check_set():
    # Dropping or renaming a check drops or renames its test id above; pin the set.
    assert list(verify.CHECKS) == [
        "params.roundtrip", "params.omega_consistency", "params.beta_slip_monotone",
        "params.critical_omega_scaling",
        "dynamics.equilibrium_rhs", "dynamics.regularization_ordering",
        "dynamics.h_u_consistency",
        "integrate.energy_monotone", "integrate.tolerance_convergence",
        "volterra.operator_monotone", "volterra.self_mapping", "volterra.quadrature_order",
        "stability.v_positivity", "stability.eigenvalue_real_part",
        "stability.classification_boundary", "stability.basin_geometry",
        "acceptance.c01_equilibrium_exactness", "acceptance.c02_bounds",
        "acceptance.c03_energy_lyapunov", "acceptance.c04_bifurcation",
        "acceptance.c05_eigenvalue_anchor", "acceptance.c06_basin_formulas",
        "acceptance.c07_volterra_cross_validation",
        "acceptance.c08_regularization_convergence",
        "acceptance.c09_continuous_dependence", "acceptance.c10_regime_oracles",
        "acceptance.c11_convergence_to_equilibrium",
    ]


def test_check_names_select_one_check_each():
    # `washburn verify --only NAME` filters by substring.
    clashes = [(a, b) for a, b in permutations(verify.CHECKS, 2) if a in b]
    assert clashes == []


@pytest.mark.parametrize("beta,omega,alpha", verify.ACCEPTANCE_GRID,
                         ids=[f"beta={b}-omega={w}-alpha={a}"
                              for b, w, a in verify.ACCEPTANCE_GRID])
def test_acceptance_criterion_11_point(beta, omega, alpha):
    distance = verify.convergence_distance(beta, omega, alpha)
    status = "PASS" if distance < 1e-5 else "FAIL"
    print(f"{status} criterion 11 at (beta={beta}, omega={omega}, "
          f"alpha={alpha}): distance {distance:.3e}")
    golden = GOLDEN_DETAILS[C11]["distances"][f"beta={beta},omega={omega},alpha={alpha}"]
    assert _format.fmt17(distance) == _format.fmt17(golden)
    assert distance < 1e-5, (
        f"distance {distance:.3e} at horizon 60*sqrt(omega)/beta: the slow "
        "node eigenvalue -(beta/(2 sqrt(omega)))(1 - sqrt(1 - 4 omega/beta^2)) "
        "gives only exp(-6.8) of decay here, so the true solution cannot meet "
        "1e-5 at this horizon")
