import collections
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from washburn.errors import DomainError
from washburn.params import (ModelParams, PhysicalParams, critical_omega,
                             H_from_u, model_params_report, nondimensionalize,
                             physical_params_from_json, u_from_H)

# Water-like fluid in a 0.1 mm pipe; expected values computed with
# 50-digit arithmetic ahead of time.
WATER = PhysicalParams(rho=1000.0, mu=0.001, gamma=0.0728, theta=0.0,
                       g=9.81, R=1e-4, L=0.0, h0=0.0)
WATER_EXPECTED = {
    "h_e": 0.1484199796126401631,
    "tau": 12.103566125393693219,
    "omega": 1.0327534769917582418e-04,
    "Oh": 0.011720180773462385577,
    "Bo": 0.0013475274725274725275,
}


class TestNondimensionalize:
    def test_no_slip_gives_beta_one(self):
        mp = nondimensionalize(WATER)
        assert mp.beta == 1.0

    def test_quarter_ratio_halves_beta(self):
        p = PhysicalParams(rho=1000.0, mu=0.001, gamma=0.0728, theta=0.0,
                           g=9.81, R=1e-4, L=0.25e-4)
        assert nondimensionalize(p).beta == pytest.approx(0.5, abs=1e-15)

    def test_water_constants(self):
        mp = nondimensionalize(WATER)
        for name, expected in WATER_EXPECTED.items():
            assert getattr(mp, name) == pytest.approx(expected, rel=1e-13), name
        assert mp.alpha == 0.0

    def test_alpha_above_three_halves_rejected(self):
        p = PhysicalParams(rho=1000.0, mu=0.001, gamma=0.0728, theta=0.0,
                           g=9.81, R=1e-4, h0=1.0)
        with pytest.raises(DomainError, match="h0"):
            nondimensionalize(p)

    def test_large_alpha_warns(self):
        p = PhysicalParams(rho=1000.0, mu=0.001, gamma=0.0728, theta=0.0,
                           g=9.81, R=1e-4, h0=0.05)
        with pytest.warns(UserWarning, match="not small"):
            mp = nondimensionalize(p)
        assert 0.1 < mp.alpha <= 1.5

    def test_invalid_fields_report_name(self):
        with pytest.raises(DomainError, match="rho"):
            PhysicalParams(rho=-1.0, mu=0.001, gamma=0.07, theta=0.0,
                           g=9.81, R=1e-4)
        with pytest.raises(DomainError, match="theta"):
            PhysicalParams(rho=1000.0, mu=0.001, gamma=0.07, theta=math.pi / 2,
                           g=9.81, R=1e-4)
        with pytest.raises(DomainError, match="L"):
            PhysicalParams(rho=1000.0, mu=0.001, gamma=0.07, theta=0.0,
                           g=9.81, R=1e-4, L=-1e-6)

    # R^2 overflows, R^2 underflows to 0, rho*g*R overflows so h_e is 0
    # (both used to raise from inside the arithmetic), and g*tau^2 underflows
    # so omega is 0 (used to be a DomainError on omega).
    @pytest.mark.parametrize("key,value", [("R", 1e200), ("R", 1e-200), ("rho", 1e300),
                                           ("mu", 1e300), ("g", 1e-200)])
    def test_scales_out_of_float_range_name_the_input(self, key, value):
        with pytest.raises(DomainError, match=f"^{key}: .* out of the float range"):
            nondimensionalize(PhysicalParams(**{**WATER._asdict(), key: value}))

    # 8 mu h_e goes subnormal here (8.8e-318), so the direct omega loses
    # digits the Bo/Oh form keeps (5.9112519e127 against 5.9112504e127).
    def test_subnormal_product_names_the_input(self):
        p = PhysicalParams(rho=6.92e48, mu=1.12e-253, gamma=4.13e-134, theta=0.0,
                           g=6.08e23, R=2.0e-141)
        with pytest.raises(DomainError, match="^mu: .* below the normal float range$"):
            nondimensionalize(p)

    def test_log_uniform_inputs_raise_no_consistency_error(self):
        rng = np.random.default_rng(2024)
        keys = ("rho", "mu", "gamma", "g", "R", "L", "h0")
        kinds = collections.Counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for exponents, theta_deg in zip(rng.uniform(-300.0, 300.0, (30_000, len(keys))),
                                            rng.uniform(0.0, 89.0, 30_000)):
                obj = dict(zip(keys, (10.0 ** exponents).tolist()), theta_deg=theta_deg)
                try:
                    nondimensionalize(physical_params_from_json(obj))
                    kinds["ok"] += 1
                except DomainError as e:
                    kinds["subnormal" if "below the normal" in str(e) else "domain"] += 1
        assert sum(kinds.values()) == 30_000
        assert kinds["ok"] > 0 and kinds["subnormal"] > 0


class TestModelParams:
    def test_rejects_bad_alpha(self):
        with pytest.raises(DomainError, match="alpha"):
            ModelParams(1.0, 1.0, 1.5000001)
        ModelParams(1.0, 1.0, 1.5)  # the endpoint itself is admissible

    def test_rejects_bad_beta_and_omega(self):
        with pytest.raises(DomainError, match="beta"):
            ModelParams(1.0, 0.0, 0.0)
        with pytest.raises(DomainError, match="beta"):
            ModelParams(1.0, 1.2, 0.0)
        with pytest.raises(DomainError, match="omega"):
            ModelParams(0.0, 1.0, 0.0)

    def test_damping(self):
        assert ModelParams(0.25, 1.0, 0.0).damping == pytest.approx(2.0)


class TestCriticalOmega:
    def test_reference_values(self):
        assert critical_omega(1.0) == 0.25
        assert critical_omega(0.5) == 0.0625
        assert critical_omega(2.0) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            critical_omega(0.0)
        with pytest.raises(DomainError):
            critical_omega(-1.0)

    @given(st.floats(1e-3, 4.0), st.floats(1e-3, 8.0))
    def test_quadratic_scaling(self, beta, c):
        lhs = critical_omega(c * beta)
        rhs = c * c * critical_omega(beta)
        assert lhs == pytest.approx(rhs, rel=1e-15)


class TestTransform:
    def test_reference_points(self):
        assert u_from_H(1.0) == 0.5
        assert u_from_H(0.0) == 0.0
        assert H_from_u(9.0 / 8.0) == 1.5

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            u_from_H(-1e-9)
        with pytest.raises(DomainError):
            H_from_u(-1e-9)

    @given(st.floats(0.0, 9.0 / 8.0))
    def test_roundtrip_u(self, u):
        assert u_from_H(H_from_u(u)) == pytest.approx(u, abs=1e-15)

    @given(st.floats(0.0, 1.5))
    def test_roundtrip_H(self, H):
        assert H_from_u(u_from_H(H)) == pytest.approx(H, abs=1e-15)


class TestJsonInterface:
    def test_exact_keys_required(self):
        good = {"rho": 1000.0, "mu": 0.001, "gamma": 0.0728, "theta_deg": 0.0,
                "g": 9.81, "R": 1e-4, "L": 0.0, "h0": 0.0}
        p = physical_params_from_json(good)
        assert p.theta == 0.0
        with pytest.raises(DomainError, match="missing"):
            physical_params_from_json({k: v for k, v in good.items() if k != "g"})
        with pytest.raises(DomainError, match="unexpected"):
            physical_params_from_json({**good, "extra": 1.0})
        for value, kind in (("1000", "string"), ([1000.0], "array"), ({}, "object"),
                            (True, "boolean"), (None, "null")):
            with pytest.raises(DomainError, match=f"^rho: must be a number, got a JSON {kind}$"):
                physical_params_from_json({**good, "rho": value})

    def test_degrees_converted(self):
        obj = {"rho": 1000.0, "mu": 0.001, "gamma": 0.0728, "theta_deg": 30.0,
               "g": 9.81, "R": 1e-4, "L": 0.0, "h0": 0.0}
        assert physical_params_from_json(obj).theta == pytest.approx(math.pi / 6)

    def test_report_has_all_fields(self):
        report = model_params_report(nondimensionalize(WATER))
        assert set(report) == {"omega", "beta", "alpha", "h_e", "tau", "Oh",
                               "Bo", "omega_star"}
