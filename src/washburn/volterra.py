"""Fixed-point solution of the model as a Volterra integral equation.

The trajectory u solves u = T(u) with

    [T(f)](s) = alpha^2/2 + (sqrt(omega)/beta) *
                integral_0^s [1 - exp(-beta (s-t)/sqrt(omega))]
                             (1 - sqrt(2 [f(t)]_+)) dt.

T is discretized by composite trapezoid on a uniform grid with the kernel
evaluated exactly at the nodes, and solved by plain successive
substitution. The kernel is separable, so the sums at all N+1 nodes are
two prefix sums: within each block of at most DEFAULT_INTERVALS nodes one
`np.cumsum` between two multiplies by fixed exponential weight rows, with
the carries between blocks added after. That is O(N) arithmetic and O(N)
memory, whatever N is. `picard_solve` sweeps in place: two iterate grids,
one work grid and one scratch block, allocated once per solve. The
operator is order-reversing; on [0, s*] with s* = min(1/2, sqrt(omega)/beta)
it maps the parabola interval [s^2/6, s^2/2] into itself and satisfies the
sublinear scaling bound T(lambda f) <= lambda^{-1/2} T(f), both of which
are checkable nodewise.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .params import (DEFAULT_INTERVALS, DEFAULT_MAX_ITER, DEFAULT_TOL, MAX_INTERVALS,
                     check_alpha, check_positive, u_from_H)

SELF_MAP_NODES = 512
SELF_MAP_SLACK = 1e-10
SCALING_SLACK = 1e-12
# Largest exponent m h/c of a scan weight q^{-m}. The weights stay within
# e^64, and rounding the exponent perturbs each by under 1e-14.
BLOCK_EXPONENT = 64.0


class _GridFunctionFields(NamedTuple):
    grid: np.ndarray
    values: np.ndarray


class GridFunction(_GridFunctionFields):
    """Values on a uniform grid 0 = s_0 < ... < s_N."""

    __slots__ = ()

    def __new__(cls, grid: np.ndarray, values: np.ndarray):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.size < 3:
            raise DomainError("grid", "need at least two intervals")
        if values.shape != grid.shape:
            raise DomainError("values", "shape must match the grid")
        steps = np.diff(grid)
        h = grid[1] - grid[0]
        if grid[0] != 0.0 or h <= 0.0 or np.any(
                np.abs(steps - h) > 1e-12 * max(1.0, grid[-1])):
            raise DomainError("grid", "must be uniform and start at 0")
        if not np.all(np.isfinite(values)):
            raise DomainError("values", "must be finite")
        grid.setflags(write=False)
        values.setflags(write=False)
        return super().__new__(cls, grid, values)


class KernelOperator:
    """Trapezoid discretization of T on one uniform grid, applied by a scan.

    With g_j = w_j (1 - sqrt(2 [f_j]_+)), w_0 = h/2 and w_j = h otherwise
    (the kernel vanishes on the diagonal), node i sums
    c sum_{j<i} g_j (1 - q^{i-j}) with q = exp(-h/c). That is c D_i with
    D_i = r sum_{j<i} S_j and S_i = sum_{j<=i} q^{i-j} g_j, where r = 1 - q
    comes from expm1 so that large c does not cancel. D is r times the
    exclusive cumulative sum of S.

    S_0..S_{N-1} is a weighted prefix sum, taken in blocks of B nodes.
    Inside the block that starts at j0,
    S_{j0+m} = q^m cumsum_m(q^{-m} g_{j0+m}) + q^{m+1} S_{j0-1}:
    one `np.cumsum` between multiplies by the rows h q^{-m} and q^m, which
    the constructor builds once. B is at most DEFAULT_INTERVALS, so the
    rows do not grow with N, and (B - 1) h/c <= BLOCK_EXPONENT, so every
    weight is finite at any h/c (B = 1 once h/c exceeds it). The block
    ends S_{j0+B-1} are chained by a doubling scan (Hillis-Steele) over
    the blocks alone: pass k adds q^{kB} times the end k blocks back, for
    k = 1, 2, 4, ..., and stops once that weight underflows. One block
    spans any grid with N <= DEFAULT_INTERVALS nodes and a horizon of at
    most BLOCK_EXPONENT c, and then the chain makes no pass.

    `apply` returns a fresh array. It and `picard_solve` both run the
    private `_sweep`, which writes T(values) into an output grid the caller
    owns, with a caller-owned scratch array of `_scratch_shape`: the whole
    blocks, (rows, B), whose padding past node N it zeroes on each sweep.
    The block carries are staged in the output before the last prefix sum
    overwrites it, so one application holds two grids at its peak.
    """

    def __init__(self, grid: np.ndarray, omega: float, beta: float):
        check_positive("omega", omega)
        check_positive("beta", beta)
        self.grid = np.asarray(grid, dtype=float)
        self.c = math.sqrt(omega) / beta
        h = self.grid[1] - self.grid[0]
        self._hc = h / self.c  # 0 for c = inf, inf for c = 0
        # r c, or its limit h (the kernel's, s - t) where h/c is 0 and r c is 0 inf.
        self._scale = h if self._hc == 0.0 else -math.expm1(-self._hc) * self.c
        if self._hc * (DEFAULT_INTERVALS - 1) <= BLOCK_EXPONENT:
            block = DEFAULT_INTERVALS
        else:
            block = int(BLOCK_EXPONENT / self._hc) + 1
        block = min(block, self.grid.size - 1)
        self._scratch_shape = (-(-(self.grid.size - 1) // block), block)  # (rows, B)
        ramp = np.zeros(block + 1)
        ramp[1:] = np.arange(1, block + 1) * self._hc  # m h/c, never 0 * inf
        self._powers = np.exp(-ramp)  # q^m for m = 0..B
        self._grow = h * np.exp(ramp[:-1])  # h q^-m for m < B

    def apply(self, values: np.ndarray, alpha: float) -> np.ndarray:
        if values.shape != self.grid.shape:
            raise DomainError("values", "shape must match the grid")
        out = np.empty(values.size)
        self._sweep(values, alpha, out, np.empty(self._scratch_shape))
        return out

    def _sweep(self, values, alpha, out, blocks):
        """Write T(values) into out, a float array of the grid's shape that
        does not overlap values, with blocks, a caller-owned float scratch
        array of `_scratch_shape`, as work space."""
        n = values.size - 1
        padded = blocks.reshape(-1)
        # The last node's forcing never enters: the kernel vanishes on the diagonal.
        s = padded[:n]
        np.maximum(values[:-1], 0.0, out=s)
        s *= 2.0
        np.sqrt(s, out=s)
        np.subtract(1.0, s, out=s)
        s[0] *= 0.5
        padded[n:] = 0.0  # the padding, which the last sweep's prefix sum filled
        blocks *= self._grow
        np.cumsum(blocks, axis=1, out=blocks)
        blocks *= self._powers[:-1]
        rows, block = self._scratch_shape
        if rows > 1:
            ends = blocks[:, -1].copy()
            shift = 1
            carry = self._powers[-1]
            while shift < rows and carry > 0.0:  # once q^(kB) is 0, later passes add 0
                ends[shift:] += carry * ends[:-shift]
                shift *= 2
                carry = math.exp(-self._hc * block * shift)
            # The carries are staged in out, which the prefix sum below
            # overwrites: (rows - 1) block < n + 1 floats.
            carries = out[:(rows - 1) * block].reshape(rows - 1, block)
            np.multiply(ends[:-1, None], self._powers[1:], out=carries)
            blocks[1:] += carries
        out[0] = 0.0
        np.cumsum(s, out=out[1:])
        out *= self._scale
        out += u_from_H(alpha)


def apply_T(f: GridFunction, omega: float, beta: float, alpha: float) -> GridFunction:
    """One application of the integral operator to a grid function."""
    check_alpha(alpha)
    op = KernelOperator(f.grid, omega, beta)
    return GridFunction(f.grid, op.apply(f.values, alpha))


class PicardResult(NamedTuple):
    """Converged iterate plus the sup-norm difference log."""

    solution: GridFunction
    diffs: np.ndarray
    iterations: int
    step: float

    @property
    def final_diff(self) -> float:
        return float(self.diffs[-1]) if self.diffs.size else 0.0


def picard_solve(omega: float, beta: float, alpha: float, horizon: float,
                 step: float | None = None, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER) -> PicardResult:
    """Iterate f <- T(f) from the constant alpha^2/2 until sup-norm stalls.

    The grid has horizon/step intervals (DEFAULT_INTERVALS without a
    step), at most MAX_INTERVALS, and a horizon too small for its step to be
    positive is refused.
    """
    check_positive("tol", tol)
    check_positive("horizon", horizon)
    if max_iter < 1:
        raise DomainError("max_iter", f"must be >= 1, got {max_iter!r}")
    check_alpha(alpha)
    if step is None:
        nodes = DEFAULT_INTERVALS
    else:
        check_positive("step", step)
        if not horizon / step <= MAX_INTERVALS + 0.5:
            raise DomainError("step", f"{step!r} gives over {MAX_INTERVALS} intervals")
        nodes = int(round(horizon / step))
        if nodes < 2 or abs(nodes * step - horizon) > 1e-9 * max(1.0, horizon):
            raise DomainError("step", f"{step!r} does not tile [0, {horizon!r}]")
    if horizon / nodes == 0.0:
        raise DomainError("horizon", f"{horizon!r} is too small for {nodes} intervals: "
                                     "the grid step underflows to 0")
    grid = np.linspace(0.0, horizon, nodes + 1)
    operator = KernelOperator(grid, omega, beta)

    # Each sweep writes T(values) into the spare iterate, then the two swap;
    # no grid-sized array is allocated inside the loop.
    values = np.full(grid.shape, u_from_H(alpha))
    spare = np.empty(grid.shape)
    work = np.empty(grid.shape)
    blocks = np.empty(operator._scratch_shape)
    diffs = []
    # An overflowing iterate shows up as a non-finite diff, which ends the loop.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            operator._sweep(values, alpha, spare, blocks)
            np.subtract(spare, values, out=work)
            np.abs(work, out=work)
            diff = float(work.max())
            diffs.append(diff)
            values, spare = spare, values
            if diff < tol:
                return PicardResult(solution=GridFunction(grid, values),
                                    diffs=np.asarray(diffs), iterations=len(diffs),
                                    step=float(grid[1] - grid[0]))
            if not math.isfinite(diff):
                break
    raise ConvergenceError(len(diffs), diffs[-1])


def uniqueness_window(omega: float, beta: float) -> float:
    """s* = min(1/2, sqrt(omega)/beta), the horizon of the order-interval
    argument. Raises DomainError unless omega and beta are finite and > 0."""
    check_positive("omega", omega)
    check_positive("beta", beta)
    return min(0.5, math.sqrt(omega) / beta)


def bracket_lower(s):
    """Lower parabola s^2/6 of the order interval."""
    s = np.asarray(s, dtype=float)
    return s * s / 6.0


def bracket_upper(s):
    """Upper parabola s^2/2 of the order interval."""
    s = np.asarray(s, dtype=float)
    return s * s / 2.0


class OrderIntervalReport(NamedTuple):
    """Nodewise margins of T(upper) >= lower and T(lower) <= upper."""

    s_star: float
    lower_margin: float
    upper_margin: float
    holds: bool


def order_interval_check(omega: float, beta: float) -> OrderIntervalReport:
    """Verify the self-mapping inequalities nodewise on SELF_MAP_NODES
    intervals of [0, s*], to within SELF_MAP_SLACK."""
    s_star = uniqueness_window(omega, beta)
    grid = np.linspace(0.0, s_star, SELF_MAP_NODES + 1)
    op = KernelOperator(grid, omega, beta)
    lower = bracket_lower(grid)
    upper = bracket_upper(grid)
    t_upper = op.apply(upper, 0.0)
    t_lower = op.apply(lower, 0.0)
    lower_margin = float(np.min(t_upper - lower))
    upper_margin = float(np.min(upper - t_lower))
    holds = lower_margin >= -SELF_MAP_SLACK and upper_margin >= -SELF_MAP_SLACK
    return OrderIntervalReport(s_star=s_star, lower_margin=lower_margin,
                               upper_margin=upper_margin, holds=holds)


class ScalingReport(NamedTuple):
    """Worst violation of T(lambda f) <= lambda^{-1/2} T(f)."""

    lam: float
    max_violation: float
    holds: bool


def check_scaling_inequality(f: GridFunction, lam: float, omega: float,
                             beta: float) -> ScalingReport:
    """Nodewise scaling bound for f inside the order interval on [0, s*],
    to within SCALING_SLACK.

    Violations are reported, never raised.
    """
    if not 0.0 < lam < 1.0:
        raise DomainError("lam", f"must lie in (0, 1), got {lam!r}")
    s_star = uniqueness_window(omega, beta)
    if f.grid[-1] > s_star + 1e-12:
        raise DomainError("f", f"grid extends past s* = {s_star!r}")
    lower = bracket_lower(f.grid)
    upper = bracket_upper(f.grid)
    if np.any(f.values < lower - 1e-12) or np.any(f.values > upper + 1e-12):
        raise DomainError("f", "values must lie inside the order interval")
    op = KernelOperator(f.grid, omega, beta)
    t_scaled = op.apply(lam * f.values, 0.0)
    t_plain = op.apply(f.values, 0.0)
    violation = t_scaled - t_plain / math.sqrt(lam)
    max_violation = float(np.max(violation))
    return ScalingReport(lam=lam, max_violation=max_violation,
                         holds=max_violation <= SCALING_SLACK)
