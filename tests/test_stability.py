import math
from array import array

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from washburn import dynamics, params as params_module
from washburn.errors import ConsistencyError, DomainError, InconclusiveError
from washburn.integrate import integrate
from washburn.params import ModelParams
from washburn.dynamics import FACTORED_WINDOW, energy
from washburn.stability import (ApproachKind, BasinSpec, PointKind, audit_trajectory, basin,
                                classify_approach, linearize, lyapunov, lyapunov_columns)
from washburn.verify import (CheckFailure, _bracket_transition,
                             check_stability_classification_boundary)


class TestLinearize:
    def test_inflected_node_anchor(self):
        report = linearize(0.25, 1.0)
        assert report.kind is PointKind.STABLE_INFLECTED_NODE
        assert report.lambda1 == report.lambda2 == -1.0
        assert report.omega_star == 0.25
        assert report.discriminant == 0.0

    def test_spiral(self):
        report = linearize(1.0, 1.0)
        assert report.kind is PointKind.STABLE_SPIRAL
        assert report.lambda1 == pytest.approx(complex(-0.5, -math.sqrt(3) / 2))
        assert report.lambda2 == pytest.approx(complex(-0.5, math.sqrt(3) / 2))

    def test_node(self):
        report = linearize(0.125, 1.0)
        assert report.kind is PointKind.STABLE_NODE
        assert report.lambda1.imag == report.lambda2.imag == 0.0
        assert report.lambda1.real == pytest.approx(-2.4142135623730950488, rel=1e-12)
        assert report.lambda2.real == pytest.approx(-0.4142135623730950488, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            linearize(0.0, 1.0)
        with pytest.raises(DomainError):
            linearize(1.0, -0.5)
        # 4 omega / beta^2 is not a finite float: beta^2 underflows, or the quotient overflows
        for omega, beta in [(1.0, 1e-300), (1.0, 5e-324), (1e300, 1e-10)]:
            with pytest.raises(DomainError, match="^beta: 4 omega / beta\\^2 is not a finite"):
                linearize(omega, beta)

    @given(st.floats(1e-3, 2.0), st.floats(1e-3, 4.0))
    def test_eigenvalues_solve_characteristic_polynomial(self, beta, omega):
        report = linearize(omega, beta)
        gamma = beta / math.sqrt(omega)
        for lam in (report.lambda1, report.lambda2):
            assert abs(lam * lam + gamma * lam + 1.0) < 1e-9
            assert lam.real < 0.0

    @given(st.floats(1e-3, 2.0), st.floats(1e-3, 4.0))
    def test_real_part_mean_identity(self, beta, omega):
        report = linearize(omega, beta)
        mean = 0.5 * (report.lambda1.real + report.lambda2.real)
        assert mean == pytest.approx(-beta / (2.0 * math.sqrt(omega)), abs=1e-12)

    def test_classification_switch_at_critical_omega(self):
        beta = 1.0
        star = params_module.critical_omega(beta)
        assert linearize(star - 1e-6, beta).kind is PointKind.STABLE_NODE
        assert linearize(star + 1e-6, beta).kind is PointKind.STABLE_SPIRAL

    def test_boundary_check_detects_corrupted_omega_star(self, monkeypatch):
        check_stability_classification_boundary()
        monkeypatch.setattr(params_module, "critical_omega", lambda b: b * b / 2.0)
        with pytest.raises(CheckFailure):
            check_stability_classification_boundary()

    def test_bracket_that_misses_the_transition_names_it(self):
        # omega = 5 already crosses at beta = 1, so [5, 6] brackets nothing.
        with pytest.raises(CheckFailure, match=r"omega bracket \[5\.0, 6\.0\] .* at beta = 1\.0"):
            _bracket_transition(1.0, 5.0, 6.0)


class TestLyapunov:
    def test_equilibrium_is_exact_zero(self):
        E, V = lyapunov(0.5, 0.0)
        assert V == 0.0
        assert E == pytest.approx(-1.0 / 6.0, abs=1e-15)

    def test_origin(self):
        E, V = lyapunov(0.0, 0.0)
        assert E == 0.0
        assert V == pytest.approx(1.0 / 6.0, abs=1e-16)

    def test_top_of_range(self):
        E, V = lyapunov(9.0 / 8.0, 0.0)
        assert E == pytest.approx(0.0, abs=1e-15)
        assert V == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_rejects_negative_u(self):
        with pytest.raises(DomainError):
            lyapunov(-1e-9, 0.0)

    @given(st.floats(0.0, 9.0 / 8.0), st.floats(-2.0, 2.0))
    def test_positive_away_from_equilibrium(self, u, v):
        if abs(u - 0.5) + abs(v) <= 1e-6:
            return
        _, V = lyapunov(u, v)
        assert V > 0.0

    @pytest.mark.parametrize("u,v", [(0.5, 0.0), (0.5 + 1e-4, -1e-3), (0.5 - 9e-4, 0.2),
                                     (0.5 + 2e-3, 0.0), (0.0, 0.0), (0.3, -1.0),
                                     (9.0 / 8.0, 0.5)])
    def test_point_matches_columns(self, u, v):
        # inside FACTORED_WINDOW = 1e-3 (the first three) and outside it
        E, V = lyapunov(u, v)
        E_col, V_col = lyapunov_columns(np.array([u]), np.array([v]))
        assert (type(E), type(V)) == (float, float)
        assert (E, V) == (E_col[0], V_col[0])

    def test_dense_points_match_columns_bit_for_bit(self):
        # The scalar path (math.sqrt) and the array path (np.sqrt) must give
        # the same bits. Squaring the factored form's root difference by a
        # float's ** 2 (libm pow) instead changes V at about one window point
        # in 2000 when |v| <= 1e-3 (v = 0 is the basin's case); at larger |v|
        # the v^2 term hides it. So the window gets 30,000 such points.
        rng = np.random.default_rng(20)
        u = np.concatenate([0.5 + rng.uniform(-FACTORED_WINDOW, FACTORED_WINDOW, 30_000),
                            rng.uniform(0.0, 9.0 / 8.0, 10_000)])
        v = np.concatenate([np.zeros(10_000), rng.uniform(-1e-3, 1e-3, 20_000),
                            rng.uniform(-2.0, 2.0, 10_000)])
        assert np.count_nonzero(np.abs(u - 0.5) < FACTORED_WINDOW) >= u.size / 2
        E_col, V_col = lyapunov_columns(u, v)
        scalar = [lyapunov(a, b) for a, b in zip(u.tolist(), v.tolist())]
        assert {(type(E), type(V)) for E, V in scalar} == {(float, float)}
        assert [repr(pair) for pair in scalar] == [repr(pair) for pair in
                                                   zip(E_col.tolist(), V_col.tolist())]
        assert [energy(a, b) for a, b in zip(u.tolist(), v.tolist())] == energy(u, v).tolist()

    def test_float_columns_have_the_bits_of_the_point_rule(self):
        # The float branch's inline loop against `_energy` and `_lyapunov_float`
        # row by row, at the window's edges, NaN, infinities, -0.0 and the
        # negative dust that max(u, 0.0) clamps, and against the array branch.
        # Small |v| near the equilibrium, where V's last bit shows, as above.
        rng = np.random.default_rng(44)
        edges = [0.5 - FACTORED_WINDOW, 0.5 + FACTORED_WINDOW, math.nextafter(0.5 - 1e-3, 1.0),
                 -0.0, 0.0, -1e-300, -5e-324, math.nan, math.inf, -math.inf, 0.5]
        u = edges + (0.5 + rng.uniform(-2e-3, 2e-3, 20_000)).tolist() + rng.uniform(
            -1e-9, 9.0 / 8.0, 3000).tolist()
        v = [0.0, -0.0, 1e-3, math.nan, -2.0, 0.0, 1e-160, 0.5, 0.0, 0.0, math.inf]
        v += [0.0] * 5000 + rng.uniform(-1e-3, 1e-3, 15_000).tolist()
        v += rng.uniform(-2.0, 2.0, len(u) - len(v)).tolist()
        E_col, V_col = dynamics.lyapunov_columns(u, v)
        assert (type(E_col), type(V_col)) == (array, array)
        E_row = array("d", [dynamics._energy(a, b) for a, b in zip(u, v)])
        V_row = array("d", [dynamics._lyapunov_float(a, b, e) for a, b, e in zip(u, v, E_row)])
        assert (E_col.tobytes(), V_col.tobytes()) == (E_row.tobytes(), V_row.tobytes())
        finite = len(edges)
        E_arr, V_arr = dynamics.lyapunov_columns(np.array(u[finite:]), np.array(v[finite:]))
        assert (E_arr.tobytes(), V_arr.tobytes()) == (E_col[finite:].tobytes(),
                                                      V_col[finite:].tobytes())


class TestBasin:
    # basin(0), basin(1) and basin(3/2) are acceptance.c06_basin_formulas.
    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            basin(-0.1)
        with pytest.raises(DomainError):
            basin(1.6)

    @given(st.floats(0.0, 1.5))
    def test_level_equation_residual(self, alpha):
        spec = basin(alpha)  # BasinSpec itself validates the residual
        assert 0.0 <= spec.u_min <= 0.5 + 1e-12
        assert 0.5 - 1e-12 <= spec.u_max <= 9.0 / 8.0 + 1e-12

    def test_bad_bounds_rejected(self):
        with pytest.raises(ConsistencyError):
            BasinSpec(C=1.0 / 6.0, u_min=0.2, u_max=9.0 / 8.0)


class TestClassify:
    def test_at_equilibrium(self):
        traj = integrate(ModelParams(1.0, 1.0, 1.0), horizon=20.0)
        report = classify_approach(traj)
        assert report.kind is ApproachKind.AT_EQUILIBRIUM
        assert report.final_distance == 0.0

    def test_subcritical_monotone(self):
        traj = integrate(ModelParams(0.1, 1.0, 0.0), horizon=40.0,
                         sample_step=0.02)
        assert classify_approach(traj).kind is ApproachKind.MONOTONE

    def test_supercritical_oscillatory(self):
        traj = integrate(ModelParams(0.5, 0.5, 0.0), horizon=40.0,
                         sample_step=0.02)
        report = classify_approach(traj)
        assert report.kind is ApproachKind.OSCILLATORY
        assert len(report.crossings) >= 2

    def test_unsettled_horizon_is_inconclusive(self):
        traj = integrate(ModelParams(1.0, 1.0, 0.0), horizon=3.0)
        with pytest.raises(InconclusiveError, match="settled"):
            classify_approach(traj)

    def test_single_crossing_is_inconclusive(self):
        # Slightly supercritical: the first crossing has happened by s = 12
        # but the return crossing has not, and the run has settled.
        traj = integrate(ModelParams(0.26, 1.0, 0.0), horizon=12.0,
                         tolerances=(1e-12, 1e-10), sample_step=0.01)
        assert len(traj.crossings) == 1
        with pytest.raises(InconclusiveError, match="one"):
            classify_approach(traj)


class TestAudit:
    def test_dry_start_stays_inside_basin(self):
        traj = integrate(ModelParams(1.0, 1.0, 0.0), horizon=30.0,
                         sample_step=0.01)
        audit = audit_trajectory(traj, basin(0.0))
        assert audit.max_level_excess <= 1e-8
        assert audit.max_lyapunov_rise <= 1e-8

    def test_equilibrium_audit_is_trivial(self):
        traj = integrate(ModelParams(1.0, 1.0, 1.0), horizon=20.0)
        audit = audit_trajectory(traj, basin(1.0))
        assert np.max(np.abs(traj.V)) == 0.0
        assert audit.final_distance == 0.0

    def test_top_alpha_converges(self):
        traj = integrate(ModelParams(1.0, 1.0, 1.5), horizon=60.0,
                         sample_step=0.01)
        audit = audit_trajectory(traj, basin(1.5))
        assert audit.max_level_excess <= 1e-8
        assert audit.final_distance < 1e-5

    def test_start_outside_basin_rejected(self):
        small_basin = basin(1.0)
        outside = integrate(ModelParams(1.0, 1.0, 0.0), horizon=5.0)
        with pytest.raises(DomainError):
            audit_trajectory(outside, small_basin)
        inside = integrate(ModelParams(1.0, 1.0, 1.0), horizon=5.0)
        audit_trajectory(inside, small_basin)
