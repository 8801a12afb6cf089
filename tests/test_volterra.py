import math
import tracemalloc

import numpy as np
import pytest

from washburn.errors import ConvergenceError, DomainError
from washburn.integrate import integrate
from washburn.params import DEFAULT_INTERVALS, DEFAULT_TOL, MAX_INTERVALS, ModelParams
from washburn.volterra import (BLOCK_EXPONENT, GridFunction, KernelOperator,
                               apply_T, bracket_lower, bracket_upper,
                               check_scaling_inequality, order_interval_check, picard_solve,
                               uniqueness_window)


def grid_fn(fn, horizon, nodes):
    grid = np.linspace(0.0, horizon, nodes + 1)
    return GridFunction(grid, fn(grid))


def dense_trapezoid(grid, omega, beta, values, alpha):
    """Reference T: the composite-trapezoid sum as a dense (N+1)^2 matrix."""
    c = math.sqrt(omega) / beta
    lag = grid[:, None] - grid[None, :]
    kernel = np.maximum(lag, 0.0) / -c  # then in place: at N = 4096 each array is 134 MB
    np.expm1(kernel, out=kernel)
    kernel *= -c
    kernel[lag <= 0.0] = 0.0
    kernel *= grid[1] - grid[0]
    kernel[:, 0] *= 0.5
    forcing = 1.0 - np.sqrt(2.0 * np.maximum(values, 0.0))
    return kernel @ forcing + 0.5 * alpha * alpha


def recurrence_by_loop(op, values, alpha):
    """The per-node recurrence the scan replaced: D_{i+1} = D_i + r S_i."""
    h = op.grid[1] - op.grid[0]
    r = -math.expm1(-h / op.c)
    q = 1.0 - r
    g = h * (1.0 - np.sqrt(2.0 * np.maximum(values, 0.0)))
    g[0] *= 0.5
    sums = []
    d = b = 0.0
    for g_j in g.tolist():
        sums.append(d)
        b += g_j
        d += r * b
        b *= q
    return 0.5 * alpha * alpha + op.c * np.array(sums)


def recurrence_in_longdouble(grid, omega, beta, values, alpha):
    """The per-node recurrence in np.longdouble, from the same float inputs,
    as an independent reference for the float scan."""
    ld = np.longdouble
    c = np.sqrt(ld(omega)) / ld(beta)
    h = ld(grid[1]) - ld(grid[0])
    q = np.exp(-h / c)
    r = -np.expm1(-h / c)
    g = h * (ld(1) - np.sqrt(ld(2) * np.maximum(values.astype(ld), ld(0))))
    g[0] *= ld(0.5)
    sums = np.empty(g.size, dtype=ld)
    d = b = ld(0)
    for i, g_j in enumerate(g):
        sums[i] = d
        b += g_j
        d += r * b
        b *= q
    return ld(0.5) * ld(alpha) * ld(alpha) + c * sums


def forward_substitution(omega, beta, alpha, h, nodes):
    """The discrete Volterra equation solved exactly, node by node: the
    trapezoid kernel is zero on the diagonal, so node i depends only on the
    nodes j < i. With g_j = 1 - sqrt(2 [f_j]_+), w_0 = h/2 and w_j = h
    otherwise, c = sqrt(omega)/beta and q = exp(-h/c), node i is
    alpha^2/2 + c (A - B), A = sum_{j<i} w_j g_j and B_i = q (B_{i-1} +
    w_{i-1} g_{i-1})."""
    c = math.sqrt(omega) / beta
    q = math.exp(-h / c)
    start = 0.5 * alpha * alpha
    f = [start]
    a = b = 0.0
    w = 0.5 * h
    for _ in range(nodes):
        wg = w * (1.0 - math.sqrt(2.0 * max(f[-1], 0.0)))
        a += wg
        b = q * (b + wg)
        f.append(start + c * (a - b))
        w = h
    return np.array(f)


def assert_close_to_loop(grid, omega, beta, values, alpha):
    op = KernelOperator(grid, omega, beta)
    ref = recurrence_by_loop(op, values, alpha)
    out = op.apply(values, alpha)
    assert np.all(np.abs(out - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


class TestGridFunction:
    def test_rejects_nonuniform(self):
        with pytest.raises(DomainError):
            GridFunction(np.array([0.0, 0.1, 0.3]), np.zeros(3))

    def test_rejects_offset_start(self):
        with pytest.raises(DomainError):
            GridFunction(np.array([0.1, 0.2, 0.3]), np.zeros(3))

    def test_rejects_tiny_grid(self):
        with pytest.raises(DomainError):
            GridFunction(np.array([0.0, 1.0]), np.zeros(2))

    def test_rejects_nonfinite_values(self):
        with pytest.raises(DomainError):
            GridFunction(np.linspace(0.0, 1.0, 5), np.array([0, 1, np.nan, 0, 0.0]))


class TestApplyT:
    def test_equilibrium_constant_is_fixed(self):
        f = grid_fn(lambda s: np.full(s.shape, 0.5), 10.0, 128)
        out = apply_T(f, 1.0, 1.0, 1.0)
        assert np.array_equal(out.values, f.values)

    @pytest.mark.parametrize("omega,beta", [(1.0, 1.0), (4.0, 1.0), (0.25, 0.5)])
    def test_zero_function_closed_form(self, omega, beta):
        # T(0)(s) = c s - c^2 (1 - exp(-s/c)) with c = sqrt(omega)/beta
        f = grid_fn(np.zeros_like, 2.0, 2048)
        out = apply_T(f, omega, beta, 0.0)
        c = math.sqrt(omega) / beta
        exact = c * f.grid - c * c * (1.0 - np.exp(-f.grid / c))
        assert np.max(np.abs(out.values - exact)) < 1e-6

    def test_node_zero_is_initial_value(self):
        f = grid_fn(np.zeros_like, 5.0, 64)
        out = apply_T(f, 1.0, 1.0, 1.2)
        assert out.values[0] == 0.5 * 1.2**2

    def test_monotone_decreasing_operator(self):
        rng = np.random.default_rng(7)
        grid = np.linspace(0.0, 5.0, 129)
        lo = rng.uniform(0.0, 1.0, grid.size)
        hi = lo + rng.uniform(0.0, 1.0, grid.size)
        t_lo = apply_T(GridFunction(grid, lo), 1.0, 1.0, 0.0)
        t_hi = apply_T(GridFunction(grid, hi), 1.0, 1.0, 0.0)
        assert np.all(t_lo.values - t_hi.values >= -1e-14)

    def test_rejects_out_of_range_alpha(self):
        f = grid_fn(np.zeros_like, 1.0, 16)
        with pytest.raises(DomainError):
            apply_T(f, 1.0, 1.0, 2.0)


class TestKernelOperator:
    @pytest.mark.parametrize("nodes", [256, 4096])
    @pytest.mark.parametrize("omega,beta", [(1.0, 1.0), (0.1, 1.0), (0.1, 0.5),
                                            (4.0, 1.0), (100.0, 0.01)])
    def test_matches_dense_trapezoid(self, omega, beta, nodes):
        rng = np.random.default_rng(nodes)
        grid = np.linspace(0.0, 10.0, nodes + 1)
        values = rng.uniform(-0.1, 1.2, grid.size)
        ref = dense_trapezoid(grid, omega, beta, values, 0.7)
        out = KernelOperator(grid, omega, beta).apply(values, 0.7)
        assert np.all(np.abs(out - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))

    def test_long_horizon_against_small_c_stays_finite(self):
        omega, beta = 1e-4, 1.0  # c = 0.01, so horizon/c = 1000
        grid = np.linspace(0.0, 10.0, 1025)
        values = np.random.default_rng(3).uniform(0.0, 1.0, grid.size)
        out = KernelOperator(grid, omega, beta).apply(values, 0.0)
        assert np.all(np.isfinite(out))
        ref = dense_trapezoid(grid, omega, beta, values, 0.0)
        assert np.all(np.abs(out - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize("omega,beta", [(math.inf, 1.0), (1.0, math.inf),
                                            (math.nan, 1.0), (1.0, 0.0)])
    def test_rejects_bad_parameters(self, omega, beta):
        with pytest.raises(DomainError):
            KernelOperator(np.linspace(0.0, 1.0, 9), omega, beta)

    @pytest.mark.parametrize("size", [2, 8, 10, 20])
    def test_rejects_values_off_the_grid(self, size):
        op = KernelOperator(np.linspace(0.0, 1.0, 9), 1.0, 1.0)
        with pytest.raises(DomainError, match="^values: shape must match the grid"):
            op.apply(np.zeros(size), 0.5)


class TestScan:
    @pytest.mark.parametrize("nodes", [2, 3, 1000, 4096, 4097])
    @pytest.mark.parametrize("omega,beta", [(1.0, 1.0), (0.1, 0.5), (100.0, 0.01)])
    def test_matches_the_loop(self, omega, beta, nodes):
        grid = np.linspace(0.0, 10.0, nodes + 1)
        values = np.random.default_rng(nodes).uniform(-0.1, 1.2, grid.size)
        assert_close_to_loop(grid, omega, beta, values, 0.7)

    @pytest.mark.parametrize("nodes", [2, 13])
    def test_q_underflowing_to_zero(self, nodes):
        omega, beta = 1e-6, 1.0  # c = 1e-3, so h/c >= 769
        grid = np.linspace(0.0, 10.0, nodes + 1)
        op = KernelOperator(grid, omega, beta)
        assert math.exp(-(grid[1] - grid[0]) / op.c) == 0.0
        values = np.random.default_rng(5).uniform(0.0, 1.0, grid.size)
        assert_close_to_loop(grid, omega, beta, values, 0.3)

    @pytest.mark.parametrize("nodes", [1000, 4097])
    def test_horizon_a_thousand_times_c(self, nodes):
        grid = np.linspace(0.0, 10.0, nodes + 1)  # c = 0.01
        values = np.random.default_rng(11).uniform(-0.1, 1.2, grid.size)
        assert_close_to_loop(grid, 1e-4, 1.0, values, 0.0)

    @pytest.mark.parametrize("nodes,omega,beta", [
        (3 * DEFAULT_INTERVALS + 123, 1.0, 1.0),  # B = DEFAULT_INTERVALS
        (1000, 1e-4, 1.0),  # h/c = 1, so B = BLOCK_EXPONENT + 1
        (1000, 1e-8, 0.1),  # h/c = 10, so B = 7
        (1000, 1e-8, 1.0),  # h/c = 100: one node a block, and q > 0
    ])
    def test_block_seams_match_the_loop(self, nodes, omega, beta):
        grid = np.linspace(0.0, 10.0, nodes + 1)
        h_over_c = (grid[1] - grid[0]) * beta / math.sqrt(omega)
        block = min(DEFAULT_INTERVALS, int(BLOCK_EXPONENT / h_over_c) + 1)
        assert nodes // block >= 3 and (block == 1 or nodes % block)
        assert math.exp(-block * h_over_c) > 0.0
        values = np.random.default_rng(nodes).uniform(-0.1, 1.2, grid.size)
        assert_close_to_loop(grid, omega, beta, values, 0.7)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                        reason="np.longdouble is no wider than float here")
    @pytest.mark.parametrize("omega", [1.0, 0.01])
    def test_matches_a_longdouble_recurrence(self, omega):
        # A doubling scan over all nodes, with q^k by squaring, is off by
        # 8.5e-14 at omega = 1: the bound is below that.
        grid = np.linspace(0.0, 10.0, 2**16 + 1)
        values = np.random.default_rng(16).uniform(-0.1, 1.2, grid.size)
        ref = recurrence_in_longdouble(grid, omega, 1.0, values, 0.7)
        out = KernelOperator(grid, omega, 1.0).apply(values, 0.7)
        assert np.all(np.abs(out - ref) <= 2e-14 * np.maximum(1.0, np.abs(ref)))

    def test_leaves_values_unmodified(self):
        grid = np.linspace(0.0, 5.0, 257)
        values = np.random.default_rng(2).uniform(-0.1, 1.2, grid.size)
        before = values.copy()
        KernelOperator(grid, 1.0, 1.0).apply(values, 0.5)
        assert np.array_equal(values, before)

    @pytest.mark.parametrize("omega,beta,alpha,horizon,nodes",
                             [(0.15, 0.6, 0.0, 6.5, 256), (0.55, 0.8, 0.45, 8.0, 1024),
                              (0.9, 0.95, 0.7, 9.5, 4096)])
    def test_picard_iterations_match_the_loop(self, monkeypatch, omega, beta, alpha,
                                              horizon, nodes):
        scan = picard_solve(omega, beta, alpha, horizon, step=horizon / nodes)
        sweeps = []

        def sweep_by_loop(op, values, alpha, out, blocks):
            sweeps.append(values.size)
            out[:] = recurrence_by_loop(op, values, alpha)

        monkeypatch.setattr(KernelOperator, "_sweep", sweep_by_loop)
        loop = picard_solve(omega, beta, alpha, horizon, step=horizon / nodes)
        assert sweeps == [nodes + 1] * loop.iterations
        assert scan.iterations == loop.iterations
        assert np.max(np.abs(scan.solution.values - loop.solution.values)) < 1e-12


class TestOrderInterval:
    def test_window(self):
        assert uniqueness_window(1.0, 1.0) == 0.5
        assert uniqueness_window(0.01, 1.0) == pytest.approx(0.1)
        assert uniqueness_window(4.0, 0.5) == 0.5

    @pytest.mark.parametrize("omega,beta,key", [(-1.0, 1.0, "omega"), (1.0, 0.0, "beta"),
                                                (math.nan, 1.0, "omega"),
                                                (1.0, math.inf, "beta")])
    def test_window_refuses_nonpositive_parameters(self, omega, beta, key):
        # Without the check, sqrt(-1) raised ValueError and x/0 ZeroDivisionError.
        for call in (lambda: uniqueness_window(omega, beta),
                     lambda: order_interval_check(omega, beta),
                     lambda: check_scaling_inequality(
                         grid_fn(bracket_lower, 0.5, 8), 0.5, omega, beta)):
            with pytest.raises(DomainError, match=f"^{key}: "):
                call()

    def test_brackets(self):
        s = np.array([0.0, 0.3, 0.5])
        assert np.allclose(bracket_lower(s), s**2 / 6.0)
        assert np.allclose(bracket_upper(s), s**2 / 2.0)


class TestScalingInequality:
    # The order interval and the scaling bound at omega <= 1 are
    # acceptance.c07_volterra_cross_validation.
    def test_half_on_lower_strong_inertia(self):
        f = grid_fn(bracket_lower, uniqueness_window(4.0, 1.0), 512)
        assert check_scaling_inequality(f, 0.5, 4.0, 1.0).holds

    def test_rejects_foreign_function(self):
        f = grid_fn(lambda s: np.full(s.shape, 0.4), uniqueness_window(1.0, 1.0), 64)
        with pytest.raises(DomainError):
            check_scaling_inequality(f, 0.5, 1.0, 1.0)

    def test_rejects_bad_lambda(self):
        f = grid_fn(bracket_upper, uniqueness_window(1.0, 1.0), 64)
        with pytest.raises(DomainError):
            check_scaling_inequality(f, 1.5, 1.0, 1.0)


class TestPicard:
    def test_equilibrium_converges_immediately(self):
        result = picard_solve(1.0, 1.0, 1.0, 10.0, step=10.0 / 256)
        assert result.iterations == 1
        assert result.final_diff == 0.0

    def test_agrees_with_integrator(self):
        result = picard_solve(1.0, 1.0, 0.0, 10.0)
        traj = integrate(ModelParams(1.0, 1.0, 0.0), horizon=10.0,
                         tolerances=(1e-12, 1e-10),
                         sample_step=result.step)
        assert result.solution.grid.size == traj.s.size
        assert np.max(np.abs(result.solution.values - traj.u)) < 1e-5

    @pytest.mark.parametrize("omega,beta,alpha,horizon", [
        (1.0, 1.0, 0.0, 10.0), (1.0, 0.5, 0.1, 100.0), (0.25, 1.0, 1.5, 8.0),
        (4.0, 0.3, 0.6, 20.0), (0.1, 1.0, 0.5, 10.0)])
    def test_reaches_the_forward_substitution_solution(self, omega, beta, alpha, horizon):
        # The fixed point of the discrete operator, found without iterating.
        result = picard_solve(omega, beta, alpha, horizon)
        exact = forward_substitution(omega, beta, alpha, result.step, DEFAULT_INTERVALS)
        assert np.max(np.abs(result.solution.values - exact)) < DEFAULT_TOL

    def test_the_undamped_limit_is_the_largest_finite_c(self):
        # c = sqrt(1e300)/1e-300 overflows to inf; the kernel's limit there,
        # s - t, is what c = 1e300 already gives to the last bit.
        limit = picard_solve(1e300, 1e-300, 0.0, 10.0)
        finite = picard_solve(1e300, 1e-150, 0.0, 10.0)
        assert limit.iterations == finite.iterations
        assert np.array_equal(limit.solution.values.view(np.int64),
                              finite.solution.values.view(np.int64))
        assert np.array_equal(limit.diffs.view(np.int64), finite.diffs.view(np.int64))

    def test_iteration_log_turns_geometric(self):
        result = picard_solve(1.0, 1.0, 0.0, 5.0, step=5.0 / 512)
        diffs = result.diffs
        ratios = diffs[-4:-1] / diffs[-5:-2]
        assert np.all(ratios < 1.0)

    def test_solution_within_bounds(self):
        result = picard_solve(0.25, 0.5, 0.1, 10.0, step=10.0 / 1024)
        assert np.min(result.solution.values) >= 0.0
        assert np.max(result.solution.values) <= 9.0 / 8.0 + 1e-6

    def test_quadrature_second_order(self):
        coarse = picard_solve(1.0, 1.0, 0.0, 5.0, step=5.0 / 256, tol=1e-12)
        mid = picard_solve(1.0, 1.0, 0.0, 5.0, step=5.0 / 512, tol=1e-12)
        fine = picard_solve(1.0, 1.0, 0.0, 5.0, step=5.0 / 1024, tol=1e-12)
        d1 = np.max(np.abs(coarse.solution.values - mid.solution.values[::2]))
        d2 = np.max(np.abs(mid.solution.values - fine.solution.values[::2]))
        assert d1 / d2 == pytest.approx(4.0, abs=1.0)

    def test_nonconvergence_raises(self):
        with pytest.raises(ConvergenceError) as info:
            picard_solve(1.0, 1.0, 0.0, 10.0, step=10.0 / 256, max_iter=2)
        assert info.value.iterations == 2
        assert info.value.last_diff > 0.0

    def test_bad_step_rejected(self):
        with pytest.raises(DomainError):
            picard_solve(1.0, 1.0, 0.0, 10.0, step=3.0)

    @pytest.mark.parametrize("horizon,step", [(math.inf, None), (math.nan, None),
                                              (10.0, math.nan), (10.0, math.inf),
                                              (10.0, 0.0), (10.0, -0.1), (10.0, 1e-9),
                                              (10.0, 1e-320)])
    def test_unbounded_grid_rejected(self, horizon, step):
        with pytest.raises(DomainError):
            picard_solve(1.0, 1.0, 0.0, horizon, step=step)

    def test_grid_cap_is_inclusive(self):
        with pytest.raises(ConvergenceError):
            picard_solve(1.0, 1.0, 0.0, 1.0, step=1.0 / MAX_INTERVALS, max_iter=1)

    def test_nonfinite_iterate_stops_early(self):
        with pytest.raises(ConvergenceError) as info, np.errstate(all="ignore"):
            picard_solve(1.0, 1.0, 0.0, 1e300)
        assert info.value.iterations < 10

    def test_memory_is_linear_in_nodes(self):
        tracemalloc.start()
        try:
            picard_solve(1.0, 1.0, 0.0, 10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        # On the largest grid the operator holds its two weight rows, a few
        # DEFAULT_INTERVALS floats, and one application peaks near two grids.
        grid = np.linspace(0.0, 10.0, MAX_INTERVALS + 1)
        values = np.full(grid.size, 0.3)
        tracemalloc.start()
        try:
            op = KernelOperator(grid, 1.0, 1.0)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            op.apply(values, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held < 4 * 8 * DEFAULT_INTERVALS
        assert peak < 24 * grid.size
