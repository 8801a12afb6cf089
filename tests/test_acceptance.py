"""Every check of `verify.CHECKS`, the set `washburn verify` runs, as one test.

The acceptance checks keep their criterion (the first line of each
docstring) as the test id. Criterion 11 is broken out per grid point
instead, so that the points reachable at its stated horizon stay green
individually.
"""
from itertools import permutations

import pytest

from washburn import verify

C11 = "acceptance.c11_convergence_to_equilibrium"
INVARIANTS = [name for name in verify.CHECKS if not name.startswith("acceptance.")]
ACCEPTANCE = [name for name in verify.CHECKS if name.startswith("acceptance.") and name != C11]


def criterion(name):
    return verify.CHECKS[name].__doc__.splitlines()[0]


@pytest.mark.parametrize("name", INVARIANTS)
def test_invariant(name):
    details = verify.CHECKS[name]()
    print(f"PASS {name}: {details}")


@pytest.mark.parametrize("name", ACCEPTANCE, ids=[criterion(name) for name in ACCEPTANCE])
def test_acceptance_criterion(name):
    details = verify.CHECKS[name]()
    print(f"PASS {criterion(name)}: {details}")


def test_check_set():
    # Dropping or renaming a check drops or renames its test id above; pin the set.
    assert list(verify.CHECKS) == [
        "params.roundtrip", "params.omega_consistency", "params.beta_slip_monotone",
        "params.critical_omega_scaling",
        "dynamics.equilibrium_rhs", "dynamics.regularization_ordering",
        "dynamics.case4_conservation", "dynamics.h_u_consistency",
        "integrate.positivity_and_bounds", "integrate.energy_monotone",
        "integrate.tolerance_convergence",
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
    assert distance < 1e-5, (
        f"distance {distance:.3e} at horizon 60*sqrt(omega)/beta: the slow "
        "node eigenvalue -(beta/(2 sqrt(omega)))(1 - sqrt(1 - 4 omega/beta^2)) "
        "gives only exp(-6.8) of decay here, so the true solution cannot meet "
        "1e-5 at this horizon")
