import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from washburn import _rk
from washburn.dynamics import (RegimeCase, RegimeSpec, State, case1_closed_form_u,
                               case3_closed_form_h, energy, h_form_field, regime_field,
                               rhs_u)
from washburn.errors import DomainError, NumericError, SingularityError
from washburn.integrate import integrate, integrate_regime, regime_oracle_residuals
from washburn.params import ModelParams

from test_rk import bits, field_of


def stepped_fields(monkeypatch):
    """Record every field that the package hands to the RK stepper."""
    fields = []
    solve = _rk.solve

    def recording_solve(fun, *args, **kwargs):
        fields.append(fun)
        return solve(fun, *args, **kwargs)

    monkeypatch.setattr(_rk, "solve", recording_solve)
    return fields


class TestRhsU:
    @pytest.mark.parametrize("omega,beta", [(0.1, 0.5), (1.0, 1.0), (4.0, 0.25)])
    def test_equilibrium_is_exact_fixed_point(self, omega, beta):
        assert rhs_u(State(0.5, 0.0), omega, beta, 0.0) == (0.0, 0.0)

    def test_dry_start_acceleration(self):
        du, dv = rhs_u(State(0.0, 0.0), 1.0, 1.0, 0.0)
        assert (du, dv) == (0.0, 1.0)

    def test_top_bound_acceleration(self):
        du, dv = rhs_u(State(9.0 / 8.0, 0.0), 2.0, 0.7, 0.0)
        assert du == 0.0
        assert dv == pytest.approx(-0.5, abs=1e-15)

    def test_negative_u_is_clamped(self):
        _, dv = rhs_u(State(-0.3, 0.0), 1.0, 1.0, 0.0)
        assert dv == 1.0

    @given(st.floats(-0.5, 1.2), st.floats(-2.0, 2.0),
           st.floats(0.0, 0.5), st.floats(1e-6, 0.5))
    def test_strictly_decreasing_in_epsilon(self, u, v, eps, gap):
        _, dv_low = rhs_u(State(u, v), 1.0, 1.0, eps)
        _, dv_high = rhs_u(State(u, v), 1.0, 1.0, eps + gap)
        assert dv_high < dv_low

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            rhs_u(State(0.1, 0.0), 0.0, 1.0)
        with pytest.raises(DomainError):
            rhs_u(State(0.1, 0.0), 1.0, 1.0, -1e-3)

    @pytest.mark.parametrize("omega,beta,epsilon", [(1.0, 1.0, 0.0), (0.1, 0.5, 1e-4),
                                                    (4.0, 0.25, 0.3)])
    def test_matches_the_integrated_field_bit_for_bit(self, monkeypatch, omega, beta,
                                                      epsilon):
        fields = stepped_fields(monkeypatch)
        integrate(ModelParams(omega, beta, 0.5), epsilon=epsilon, horizon=1.0)
        (field,) = fields
        states = np.random.default_rng(17).uniform([-0.5, -2.0], [1.2, 2.0], size=(1000, 2))
        stepped = np.array([field_of(field)(0.0, y)
                            for y in states.tolist()])  # Python floats, as stepped
        checked = np.array([rhs_u(State(u, v), omega, beta, epsilon)
                            for u, v in states.tolist()])
        assert np.array_equal(checked.view(np.int64), stepped.view(np.int64))


class TestHFormField:
    def test_equilibrium(self):
        assert h_form_field(1.0, 1.0)(1.0, 0.0) == 0.0

    def test_half_height(self):
        assert h_form_field(1.0, 1.0)(0.5, 0.0) == pytest.approx(1.0)

    def test_singularity_guard(self):
        with pytest.raises(SingularityError):
            h_form_field(1.0, 1.0)(1e-13, 0.0)


class TestRegimeSpecs:
    def test_fixed_exponents(self):
        def pair(case):
            spec = RegimeSpec.standard(case)
            return spec.a, spec.b

        assert pair(RegimeCase.NEGLIGIBLE_GRAVITY) == (Fraction(1), Fraction(1, 2))
        assert pair(RegimeCase.NEGLIGIBLE_INERTIA) == (Fraction(0), Fraction(0))
        assert pair(RegimeCase.NEGLIGIBLE_VISCOSITY) == (Fraction(1, 2), Fraction(0))

    def test_family_constraint(self):
        spec = RegimeSpec.standard(RegimeCase.NEGLIGIBLE_GRAVITY_INERTIA, Fraction(1, 4))
        assert (spec.a, spec.b) == (Fraction(1, 2), Fraction(1, 4))
        with pytest.raises(DomainError):
            RegimeSpec.standard(RegimeCase.NEGLIGIBLE_GRAVITY_INERTIA,
                                Fraction(1, 2))  # a = 1 is excluded

    def test_spec_validation(self):
        RegimeSpec(RegimeCase.NEGLIGIBLE_GRAVITY_INERTIA, Fraction(1, 2), Fraction(1, 4))
        with pytest.raises(DomainError):
            RegimeSpec(RegimeCase.NEGLIGIBLE_GRAVITY_INERTIA, Fraction(1, 2), Fraction(1, 3))
        with pytest.raises(DomainError):
            RegimeSpec(RegimeCase.NEGLIGIBLE_GRAVITY, Fraction(1, 2), Fraction(0))

    @pytest.mark.parametrize("case", [RegimeCase.NEGLIGIBLE_GRAVITY,
                                      RegimeCase.NEGLIGIBLE_INERTIA,
                                      RegimeCase.NEGLIGIBLE_VISCOSITY])
    def test_free_exponent_is_for_case_3_only(self, case):
        with pytest.raises(DomainError, match="case 3 only"):
            RegimeSpec.standard(case, b=Fraction(1, 4))

    def test_order_flags(self):
        flags = {case: RegimeSpec.standard(case).first_order for case in RegimeCase}
        assert flags == {RegimeCase.NEGLIGIBLE_GRAVITY: False,
                         RegimeCase.NEGLIGIBLE_INERTIA: True,
                         RegimeCase.NEGLIGIBLE_GRAVITY_INERTIA: True,
                         RegimeCase.NEGLIGIBLE_VISCOSITY: False}


class TestRegimeRhs:
    def test_case2_equilibrium(self):
        spec = RegimeSpec.standard(RegimeCase.NEGLIGIBLE_INERTIA)
        (du,) = field_of(regime_field(spec, 1.0), 1)(0.0, State(0.5, 123.0))
        assert du == 0.0

    def test_case3_is_constant(self):
        spec = RegimeSpec.standard(RegimeCase.NEGLIGIBLE_GRAVITY_INERTIA)
        assert field_of(regime_field(spec, 0.5), 1)(0.0, State(0.7, 0.0)) == (2.0,)

    def test_case1_shape(self):
        spec = RegimeSpec.standard(RegimeCase.NEGLIGIBLE_GRAVITY)
        du, dv = field_of(regime_field(spec, 1.0))(0.0, State(0.2, 0.3))
        assert du == 0.3
        assert dv == pytest.approx(0.7)

    @pytest.mark.parametrize("case", list(RegimeCase))
    def test_matches_the_integrated_field_bit_for_bit(self, monkeypatch, case):
        spec, beta = RegimeSpec.standard(case), 0.7
        fields = stepped_fields(monkeypatch)
        traj = integrate_regime(spec, beta=beta, alpha=0.5, horizon=1.0)
        (field,) = fields
        # The first sample, the dense output at s = 0, is the start u* = alpha^2/2.
        assert bits(traj.u[0]) == bits(0.5 * 0.5 * 0.5)
        states = np.random.default_rng(17).uniform([-0.5, -2.0], [1.2, 2.0], size=(1000, 2))
        width = 1 if spec.first_order else 2  # first-order cases step u* alone
        stepped = np.array([field_of(field, width)(0.0, y[:width]) for y in states.tolist()])
        checked = np.array([field_of(regime_field(spec, beta), width)(0.0, State(u, v))
                            for u, v in states.tolist()])
        assert checked.shape == (1000, width)
        assert np.array_equal(checked.view(np.int64), stepped.view(np.int64))


class TestRegimeOracles:
    # Each regime run against its oracle is a row of acceptance.c10_regime_oracles.
    def test_case1_closed_form(self):
        s = np.linspace(0.0, 20.0, 101)
        assert np.allclose(case1_closed_form_u(s, 1.0),
                           s - (1.0 - np.exp(-s)), atol=1e-15)

    def test_case1_oracle_does_not_cancel_at_small_beta_t(self):
        # u0 + t/beta - (1 - e^(-beta t))/beta^2 cancels to 7.6e-3 here.
        spec = RegimeSpec.standard(RegimeCase.NEGLIGIBLE_GRAVITY)
        traj = integrate_regime(spec, beta=1e-7, alpha=0.0, horizon=10.0)
        _, resid = regime_oracle_residuals(traj)
        assert np.max(resid) <= 1e-9

    def test_case1_slip_rises_faster(self):
        spec = RegimeSpec.standard(RegimeCase.NEGLIGIBLE_GRAVITY)
        slip = integrate_regime(spec, beta=0.5, alpha=0.0, horizon=5.0)
        no_slip = integrate_regime(spec, beta=1.0, alpha=0.0, horizon=5.0)
        assert np.all(slip.h[1:] > no_slip.h[1:])

    @pytest.mark.parametrize("beta,alpha,horizon", [
        (0.5, 0.0, 20.0),  # h* rounds up to 1 mid-run
        (1.0, 1.2, 4.0),   # starts above the asymptote h* = 1
    ])
    def test_case2_oracle_beyond_asymptote_raises(self, beta, alpha, horizon):
        spec = RegimeSpec.standard(RegimeCase.NEGLIGIBLE_INERTIA)
        traj = integrate_regime(spec, beta=beta, alpha=alpha, horizon=horizon)
        t_bad = float(traj.t[np.flatnonzero(traj.h >= 1.0)[0]])
        with pytest.raises(NumericError, match=f"t\\* = {t_bad!r} "):
            regime_oracle_residuals(traj)

    @pytest.mark.parametrize("beta,alpha", [(math.inf, 0.0), (math.nan, 0.0),
                                            (0.0, 0.0), (1.0, 2.0), (1.0, math.inf),
                                            (1.0, math.nan), (1.0, -0.1)])
    def test_regime_rejects_out_of_range_input(self, beta, alpha):
        spec = RegimeSpec.standard(RegimeCase.NEGLIGIBLE_INERTIA)
        with pytest.raises(DomainError):
            integrate_regime(spec, beta=beta, alpha=alpha)

    def test_case3_with_immersion(self):
        assert case3_closed_form_h(np.array([0.0]), 2.0, 0.3) == pytest.approx([0.3])
        assert case3_closed_form_h(np.array([1.0]), 2.0, 0.0) == pytest.approx([1.0])


class TestEnergy:
    def test_zero_point(self):
        assert energy(0.0, 0.0) == 0.0

    def test_equilibrium_value(self):
        assert energy(0.5, 0.0) == pytest.approx(-1.0 / 6.0, abs=1e-15)

    def test_top_of_range_vanishes(self):
        assert energy(9.0 / 8.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_arrays_match_scalars_bit_for_bit(self):
        rng = np.random.default_rng(5)
        u = np.concatenate([rng.uniform(-0.1, 1.2, 1000), [0.0, -0.0, 0.5, 9.0 / 8.0]])
        v = np.concatenate([rng.uniform(-2.0, 2.0, 1000), [0.0, 0.0, 0.0, 0.0]])
        scalar = [energy(float(ui), float(vi)) for ui, vi in zip(u, v)]
        assert all(type(e) is float for e in scalar)
        assert np.array_equal(energy(u, v), np.array(scalar))
