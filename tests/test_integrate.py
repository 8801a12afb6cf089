import math
import warnings
from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest

from washburn import _rk, verify
from washburn.dynamics import RegimeCase, RegimeSpec
from washburn.errors import DomainError, HorizonError
from washburn.integrate import (CROSSING_BAND, CROSSING_REFINE_TOL, HORIZON_CAP,
                                HORIZON_EFOLDS, REGIME_TOLERANCES, Crossing,
                                _brackets, _detect_crossings, continuous_dependence,
                                default_horizon, detect_crossings, integrate,
                                integrate_regime, solve)
from washburn.params import MAX_INTERVALS, ModelParams, critical_omega
from washburn.stability import lyapunov
from washburn.verify import ACCEPTANCE_GRID

from test_rk import (PROBLEMS, at_by_lists, bits, call_by_fancy_index, reference_times,
                     regime)


def mp(omega, beta, alpha):
    return ModelParams(omega=omega, beta=beta, alpha=alpha)


@pytest.fixture(scope="module")
def traj():
    return integrate(mp(1.0, 1.0, 0.5), horizon=12.0, sample_step=0.01)


class TestTrajectoryInvariants:
    def test_time_strictly_increasing(self, traj):
        assert np.all(np.diff(traj.s) > 0.0)

    def test_first_sample_matches_initial_data(self, traj):
        assert traj.s[0] == 0.0
        assert traj.u[0] == 0.5 * 0.5**2
        assert traj.v[0] == 0.0

    def test_derived_columns(self, traj):
        assert np.max(np.abs(traj.H - np.sqrt(2.0 * np.maximum(traj.u, 0.0)))) <= 1e-14
        assert np.max(np.abs(traj.T - traj.s * math.sqrt(1.0))) <= 1e-14
        E, V = zip(*(lyapunov(u, v) for u, v in zip(traj.u, traj.v)))
        assert np.array_equal(traj.E, np.array(E))
        assert np.array_equal(traj.V, np.array(V))

    def test_samples_on_step_multiples(self, traj):
        k = np.round(traj.s[:-1] / 0.01)
        assert np.max(np.abs(traj.s[:-1] - k * 0.01)) <= 1e-12
        assert traj.s[-1] == 12.0

    def test_immutable(self, traj):
        with pytest.raises(ValueError):
            traj.u[0] = 3.0


def one_step():
    """A solve of one accepted step: it has no interior step time, so sorted
    times make one run. (`mp(1e-308, 1.0, 0.0)` also takes one step, but of
    3e-153, so the reference times past its end overflow the quartic.)"""
    dense = solve(mp(1.0, 1.0, 0.5), horizon=1e-3).dense
    assert dense.accepted == 1
    return (dense,)


class TestSortedTimes:
    """Calling a solution on nondecreasing times, which find their steps by
    run lengths, gives the bits of its reference on the same times: step
    boundaries, repeats, and times before the first step and past the last
    included."""

    SOLVES = {**PROBLEMS, "one-step": one_step}

    @pytest.mark.parametrize("name", SOLVES)
    def test_sorted_times_match_the_reference_bit_for_bit(self, name):
        dense, *_ = self.SOLVES[name]()
        times = np.sort(reference_times(dense))
        times = np.sort(np.concatenate([times, times[::7], dense.t[:3]]))
        for t in (times, times[:1], times[-5:], times[:0], dense.t, dense.t[1:-1]):
            got, want = dense(t), call_by_fancy_index(dense, t)
            assert got.shape == want.shape == (dense.n, t.size)
            assert np.array_equal(bits(got), bits(want))
        shuffled = np.random.default_rng(13).permutation(times.size)
        assert np.array_equal(bits(dense(times)[:, shuffled]), bits(dense(times[shuffled])))


class TestIntegrate:
    def test_equilibrium_start_is_exactly_stationary(self):
        traj = integrate(mp(0.3, 0.7, 1.0), horizon=100.0, sample_step=0.5)
        assert np.max(np.abs(traj.u - 0.5)) < 1e-12
        assert np.max(np.abs(traj.v)) < 1e-12

    def test_dry_start_settles_to_equilibrium(self):
        traj = integrate(mp(1.0, 1.0, 0.0), horizon=30.0)
        assert abs(traj.u[-1] - 0.5) < 1e-6

    def test_dry_start_stays_below_bound(self):
        for beta, omega in [(1.0, 0.1), (1.0, 1.0), (0.5, 1.0)]:
            traj = integrate(mp(omega, beta, 0.0))
            assert np.max(traj.u) <= 9.0 / 8.0 - 1e-3

    def test_default_horizon_scaling(self):
        assert default_horizon(mp(1.0, 1.0, 0.0)) == pytest.approx(30.0)
        assert default_horizon(mp(0.25, 1.0, 0.0)) == pytest.approx(15.0)

    def test_default_horizon_when_the_damping_underflows(self):
        assert mp(1e300, 1e-300, 0.0).damping == 0.0
        assert default_horizon(mp(1e300, 1e-300, 0.0)) == HORIZON_CAP
        for params in (mp(1e300, 1e-150, 0.0), mp(1.0, 5e-324, 0.0), mp(0.3, 0.7, 0.0)):
            assert params.damping > 0.0
            assert default_horizon(params) == min(HORIZON_EFOLDS / params.damping,
                                                  HORIZON_CAP)

    def test_horizon_cap(self):
        with pytest.raises(HorizonError):
            integrate(mp(1.0, 1.0, 0.0), horizon=2e6)

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            integrate(mp(1.0, 1.0, 0.0), horizon=-1.0)
        with pytest.raises(DomainError):
            integrate(mp(1.0, 1.0, 0.0), sample_step=0.0)
        with pytest.raises(DomainError):
            integrate(mp(1.0, 1.0, 0.0), epsilon=-1e-9)
        with pytest.raises(DomainError, match="epsilon"):
            integrate(mp(1.0, 1.0, 0.0), epsilon=1.0 + 1e-9)
        with pytest.raises(DomainError):
            integrate(mp(1.0, 1.0, 0.0), horizon=30.0, sample_step=30.0 / MAX_INTERVALS / 2)

    def test_a_refused_sample_step_takes_no_step(self, monkeypatch):
        # The sample checks come before the solve, so a run refused for its
        # samples costs no steps and never reaches the step budget.
        def refused(*args):
            raise AssertionError("solved a run whose samples are refused")

        monkeypatch.setattr(_rk, "solve", refused)
        for sample_step in (0.0, -1.0, math.nan, 30.0 / MAX_INTERVALS / 2):
            with pytest.raises(DomainError, match="sample_step"):
                integrate(mp(1.0, 1.0, 0.0), horizon=30.0, sample_step=sample_step)

    def test_solve_checks_the_run_and_not_its_samples(self):
        # horizon/4096 underflows to 0: too small to sample, not to solve.
        with pytest.raises(DomainError, match="horizon"):
            integrate(mp(1.0, 1.0, 0.0), horizon=1e-320)
        run = solve(mp(1.0, 1.0, 0.0), horizon=1e-320)
        assert (run.horizon, run.dense.accepted) == (1e-320, 1)
        for bad, key in (({"horizon": -1.0}, "horizon"), ({"horizon": 2e6}, "cap"),
                         ({"tolerances": (1e-10, 0.1)}, "rel_tol"),
                         ({"tolerances": (1e-10, 1e-15)}, "rel_tol"), ({"epsilon": 1.5}, "epsilon")):
            with pytest.raises(DomainError, match=key):
                solve(mp(1.0, 1.0, 0.0), **bad)

    def test_regularized_equilibrium_shift(self):
        # With the square-root regularization the stationary level moves to
        # (1 - eps)/2, so the epsilon-run must end strictly below 1/2.
        eps = 1e-3
        traj = integrate(mp(1.0, 1.0, 0.0), epsilon=eps, horizon=40.0)
        assert traj.u[-1] == pytest.approx((1.0 - eps) / 2.0, abs=1e-6)

    @pytest.mark.parametrize("omega", [1e-308, 1e-310, 5e-324])
    def test_dry_start_at_extreme_damping(self, omega):
        # gamma = beta/sqrt(omega) reaches 4.5e161: the run is one step from rest.
        traj = integrate(mp(omega, 1.0, 0.0))
        for column in (traj.u, traj.v, traj.H, traj.E, traj.V):
            assert np.all(np.isfinite(column))

    @pytest.mark.parametrize("point,epsilon", [
        pytest.param((1.0, 1.0, 0.0), 0.0, id="dry"),
        pytest.param((0.01, 1.0, 0.0), 0.0, id="dry-node"),
        pytest.param((4.0, 0.5, 0.0), 0.0, id="dry-spiral"),
        pytest.param((1.0, 1.0, 0.0), 1e-4, id="regularized"),
        pytest.param((1.0, 1.0, 0.5), 0.0, id="wet"),
        pytest.param((0.1, 1.0, 1.5), 0.0, id="wet-node")])
    @pytest.mark.parametrize("run", [pytest.param({}, id="default"),
                                     pytest.param({"horizon": 1e-3, "sample_step": 1e-7},
                                                  id="near-the-corner")])
    def test_every_sample_is_the_dense_output(self, point, epsilon, run):
        traj = integrate(mp(*point), epsilon=epsilon, **run)
        assert traj.dense.t[0] == 0.0
        assert np.array_equal(np.stack([traj.u, traj.v]).view(np.int64),
                              traj.dense(traj.s).view(np.int64))


class TestWorkCounters:
    """RHS evaluations, accepted and rejected steps are deterministic (scipy's
    RK45 counts the same, per tests/test_rk.py), so they are pinned here."""

    def test_default_run(self):
        dense = integrate(mp(1.0, 1.0, 0.0)).dense
        assert (dense.nfev, dense.accepted, dense.rejected) == (1124, 180, 7)

    def test_light_spiral(self):
        dense = integrate(mp(31.4, 0.7, 0.0)).dense
        assert (dense.nfev, dense.accepted, dense.rejected) == (8252, 1279, 96)

    def test_regime_case2(self, monkeypatch):
        solves = []
        solve = _rk.solve

        def recording_solve(*args, **kwargs):
            solves.append(solve(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(_rk, "solve", recording_solve)
        integrate_regime(RegimeSpec.standard(RegimeCase.NEGLIGIBLE_INERTIA), beta=1.0,
                         alpha=0.1, horizon=5.0, tolerances=REGIME_TOLERANCES)
        [dense] = solves
        assert (dense.nfev, dense.accepted, dense.rejected) == (1028, 170, 1)


class TestCrossings:
    def test_equilibrium_has_no_crossings(self):
        traj = integrate(mp(1.0, 1.0, 1.0), horizon=50.0)
        assert traj.crossings == ()

    def test_subcritical_has_no_crossings(self):
        traj = integrate(mp(0.1, 1.0, 0.0), horizon=50.0, sample_step=0.01)
        assert len(traj.crossings) == 0

    def test_supercritical_oscillates(self):
        traj = integrate(mp(1.0, 1.0, 0.0), horizon=50.0, sample_step=0.01)
        assert len(traj.crossings) >= 2
        first = traj.crossings[0]
        assert first.direction == 1
        assert first.s == pytest.approx(1.861047, abs=1e-4)
        # alternating directions, strictly increasing times
        times = [c.s for c in traj.crossings]
        assert np.all(np.diff(times) > 0.0)
        assert all(a.direction == -b.direction
                   for a, b in zip(traj.crossings, traj.crossings[1:]))

    def test_refinement_hits_level(self):
        traj = integrate(mp(1.0, 1.0, 0.0), horizon=20.0, sample_step=0.01)
        for crossing in traj.crossings:
            u_at = float(traj.dense(crossing.s)[0])
            assert abs(u_at - 0.5) < 1e-9

    def test_detect_at_other_levels(self):
        traj = integrate(mp(1.0, 1.0, 0.0), horizon=30.0, sample_step=0.01)
        quarter = detect_crossings(traj, level=0.25)
        assert len(quarter) >= 1
        assert isinstance(quarter[0], Crossing)
        assert float(traj.dense(quarter[0].s)[0]) == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
    def test_non_finite_level_rejected(self, traj, level):
        with pytest.raises(DomainError, match="^level: must be finite"):
            detect_crossings(traj, level)


class TestLazyCrossings:
    """A run refines its equilibrium crossings when `.crossings` is first
    read, and only then: the runs that read only the dense output or the
    final state refine nothing."""

    @pytest.fixture
    def refinements(self, monkeypatch):
        calls = []
        refine = _rk.DenseSolution.refine

        def counting_refine(self, *args):
            calls.append(args)
            return refine(self, *args)

        monkeypatch.setattr(_rk.DenseSolution, "refine", counting_refine)
        return calls

    def test_solve_refines_nothing_until_crossings_are_read(self, refinements):
        run = solve(mp(1.0, 1.0, 0.0), horizon=20.0)
        run.final_state()
        assert refinements == []
        crossings = run.crossings
        assert len(crossings) == len(refinements) > 0
        assert run.crossings is crossings
        assert len(refinements) == len(crossings)
        assert crossings == detect_crossings(run)

    def test_a_trajectory_refines_on_first_read(self, refinements):
        traj = integrate(mp(1.0, 1.0, 0.0), horizon=20.0)
        assert refinements == []
        assert traj.crossings == detect_crossings(traj) != ()

    def test_checks_that_read_no_crossings_refine_nothing(self, refinements):
        verify.acceptance_c07_volterra_cross_validation()
        verify.check_integrate_tolerance_convergence()
        verify.convergence_distance(1.0, 1.0, 0.5)  # one run of criterion 11
        assert refinements == []


class TestRefinementWork:
    """Each solution counts the quartic evaluations its crossing refinements
    made, a deterministic count; bisection to the same width took 161 and
    2481 at these points."""

    @pytest.mark.parametrize("point,horizon,crossings,evaluations",
                             [((1.0, 1.0, 0.0), 20.0, 5, 20),
                              ((31.4, 0.7, 0.0), None, 76, 391)])
    def test_counts(self, point, horizon, crossings, evaluations):
        run = solve(mp(*point), horizon=horizon)
        assert run.dense.crossing_evaluations == 0
        assert len(run.crossings) == crossings
        assert run.dense.crossing_evaluations == evaluations
        detect_crossings(run)  # each refinement counts again
        assert run.dense.crossing_evaluations == 2 * evaluations


def slope_by_lists(dense):
    """The slope in time of component 0's quartic, q0 + x (2 q1 + x (3 q2 +
    4 x q3)), over lists of the coefficients, with `at_by_lists`' step rule."""
    ts, hs, last = dense.t.tolist(), np.diff(dense.t).tolist(), dense.accepted - 1
    qs = dense._q[:, 0].T.tolist()

    def slope(t):
        k = min(max(bisect_left(ts, t) - 1, 0), last)
        x = (t - ts[k]) / hs[k]
        q0, q1, q2, q3 = qs[k]
        return q0 + x * (2.0 * q1 + x * (3.0 * q2 + x * (4.0 * q3)))

    return slope


def newton_level(u_at, slope_at, level, lo, hi, direction, tol):
    """`DenseSolution.refine` on scalar functions of time, kept as its
    reference; the tests run it on `at_by_lists` and `slope_by_lists`.
    Returns the time and the evaluations of u_at it made."""
    rising = direction > 0
    t, last = 0.5 * (lo + hi), hi - lo
    for evaluations in range(1, 129):
        f = u_at(t) - level
        if f == 0.0:
            return t, evaluations
        if (f > 0.0) == rising:
            hi = t
        else:
            lo = t
        if hi - lo <= tol:
            break
        slope = slope_at(t)
        step = f / slope if slope != 0.0 else math.inf
        if lo < t - step < hi and abs(step) <= 0.5 * last:
            t, last = t - step, abs(step)
            if last < tol:
                return t, evaluations
        else:
            t, last = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return 0.5 * (lo + hi), evaluations


def step_ends(dense):
    """The step times and component 0 at each, from the numpy view of the
    store: its records' u column, the closing record's the final state's."""
    return dense.t, dense._records[:, 3 - dense.n]


def crossings_by_loop(dense, level, brackets=None):
    """The per-step hysteresis loop over the step ends, the reference of
    `_detect_crossings` (as tests/test_volterra.py keeps the dense kernel),
    refining on `at_by_lists`. Each bracket it refines is appended to
    `brackets`, if given. Returns the crossings and the evaluations made."""
    u_at, slope_at = at_by_lists(dense), slope_by_lists(dense)
    s, u = step_ends(dense)
    crossings, evaluations = [], 0
    side = 0
    armed_index = None
    for i in range(s.size):
        d = u[i] - level
        if abs(d) <= CROSSING_BAND:
            continue
        this_side = 1 if d > 0.0 else -1
        if side == 0:
            side = this_side
        elif this_side != side:
            lo, hi = float(s[armed_index]), float(s[i])
            if brackets is not None:
                brackets.append((lo, hi))
            t, spent = newton_level(u_at, slope_at, level, lo, hi, this_side,
                                    CROSSING_REFINE_TOL)
            crossings.append(Crossing(t, this_side))
            evaluations += spent
            side = this_side
        armed_index = i
    return tuple(crossings), evaluations


ROOT_BITS = 64


def exact_root(dense, t, lo, hi, direction, level):
    """The root of component 0's quartic less level on the step that holds t
    (by `at_by_lists`' rule), in that step's part of the bracket [lo, hi]
    whose side changes in the given direction: exact rationals from the
    stored float coefficients, bisected to 2^-ROOT_BITS of the step. The
    quartic, y_k - level + h (q0 x + q1 x^2 + q2 x^3 + q3 x^4) at
    x = (t - t_k) / h, is scaled to integer coefficients and evaluated at
    x = X / 2^ROOT_BITS times 2^(4 ROOT_BITS) for integer X."""
    ts = dense.t.tolist()
    k = min(max(bisect_left(ts, t) - 1, 0), dense.accepted - 1)
    t_k, h = Fraction(ts[k]), Fraction(ts[k + 1] - ts[k])  # h as the float step
    a = [Fraction(float(dense._y0[0, k])) - Fraction(level)]
    a += [h * Fraction(q) for q in dense._q[:, 0, k].tolist()]
    scale = max(c.denominator for c in a)  # every denominator is a power of two
    a = [int(c * scale) for c in a]
    one = 1 << ROOT_BITS

    def side(X):
        acc = a[4]
        for j in (3, 2, 1, 0):
            acc = acc * X + a[j] * one ** (4 - j)
        return direction if acc * direction > 0 else -direction

    below = math.floor((max(Fraction(lo), t_k) - t_k) / h * one)
    above = math.ceil((min(Fraction(hi), Fraction(ts[k + 1])) - t_k) / h * one)
    assert side(below) == -direction and side(above) == direction, (t, lo, hi)
    while above - below > 1:
        mid = (below + above) // 2
        if side(mid) == direction:
            above = mid
        else:
            below = mid
    return t_k + h * Fraction(below, one)


def synthetic(values):
    """u on the unit-step grid, and a stand-in for its dense output: a
    one-component solution (its W slot 0.0) whose every step has the stages
    K1, K3-K6 equal to the step's slope and K7 equal to the next step's (the
    next record's K1, as in a solve; the closing record holds the last
    step's own), nearly linear interpolation through (s, u), whose step
    ends are the samples. The tests take the level 0, so that u - level is
    exact and +-CROSSING_BAND is the edge."""
    u = np.asarray(values, dtype=float)
    s = np.arange(u.size, dtype=float)
    steps = bytearray()
    slope = 0.0
    for k in range(u.size - 1):
        slope = u[k + 1] - u[k]
        steps += _rk.STEP_RECORD.pack(s[k], 0.0, u[k], slope, *[0.0, slope] * 4)
    final = float(u[-1]) if u.size else 0.0
    steps += _rk.STEP_RECORD.pack(s[-1] if s.size else 0.0, 0.0, final, slope, *[0.0] * 8)
    return s, u, _rk.DenseSolution(steps, 1, 0)


B = CROSSING_BAND
SYNTHETIC = {
    "runs-inside-band": [-1.0, -0.5 * B, 0.0, 0.5 * B, B, 0.3, 0.9 * B, -B, -0.2, 0.0,
                         -0.5 * B, 0.4, 2 * B, -2 * B],
    "on-the-level": [-0.1, 0.0, 0.1, 0.0, 0.0, -0.1, 0.0, 0.1],
    "nan": [-0.1, np.nan, 0.1, np.nan, -0.1, 0.1, np.nan],
    "leading-nan": [np.nan, 0.0, 0.2, -0.2],
    "all-inside-band": [0.0, 0.5 * B, -B, B, -0.25 * B],
    "single-sample": [0.3],
    "empty": [],
    "seeded-mix": (np.random.default_rng(3).choice([-1.0, 1.0], 400)
                   * np.random.default_rng(4).choice([0.0, 0.5 * B, B, 1.5 * B, 1e-3], 400)),
}

LEVELS = (0.5, 0.25, 0.7, 1e-4)


def seeded_runs(count=150):
    """Seeded runs over nodes and spirals (omega/omega* in [0.3, 6]), a third
    of them dry starts and every tenth regularized, each start sampled at
    the default step, at horizon/256 and at horizon/24. The coarse samples give
    brackets over several steps, and brackets from s = 0, the first step's
    start, where the reference `at_by_lists` clamps the step index."""
    rng = np.random.default_rng(16)
    for i in range(count):
        beta = rng.uniform(0.5, 1.0)
        omega = critical_omega(beta) * rng.uniform(0.3, 6.0)
        alpha = 0.0 if i % 3 == 0 else rng.uniform(0.1, 1.5)
        epsilon = 1e-4 if i % 10 == 0 else 0.0
        params = mp(omega, beta, alpha)
        intervals = (None, 256, 24)[i // 3 % 3]
        sample_step = None if intervals is None else default_horizon(params) / intervals
        yield integrate(params, epsilon=epsilon, sample_step=sample_step)


class TestCrossingScan:
    """`_detect_crossings` against the per-step loop and the refinement's
    reference, crossing for crossing and evaluation for evaluation."""

    @staticmethod
    def assert_detects_as_the_loop(dense, level, brackets=None):
        before = dense.crossing_evaluations
        found = _detect_crossings(dense, level)
        assert (found, dense.crossing_evaluations - before) == crossings_by_loop(
            dense, level, brackets)
        return found

    @pytest.mark.parametrize("point", [(0.1, 1.0, 0.0), (0.25, 1.0, 0.0), (1.0, 1.0, 0.0),
                                       (1.0, 1.0, 1.4), (4.0, 0.5, 1.5), (31.4, 0.7, 0.0)])
    def test_trajectories(self, point):
        traj = integrate(mp(*point))
        for level in LEVELS:
            self.assert_detects_as_the_loop(traj.dense, level)
        assert traj.crossings == crossings_by_loop(traj.dense, 0.5)[0]

    def test_ends_are_the_stored_step_starts_then_the_final_state(self):
        dense = integrate(mp(1.0, 1.0, 0.5)).dense
        case2, *_ = regime(RegimeCase.NEGLIGIBLE_INERTIA, 1.0, 0.1, 5.0)  # one component
        for solution, c in ((dense, 0), (dense, 1), (case2, 0)):
            # The store closes with the end record: the last step's end time and
            # state, which the last step's quartic reaches up to rounding.
            records = solution._records
            end = records[-1, 3 - solution.n:3]
            assert len(records) == solution.accepted + 1
            assert records[-1, 0] == solution.t[-1]
            assert np.max(np.abs(end - solution(solution.t[-1]))) <= 1e-15
            ends = list(solution.ends(c))
            assert all(type(t) is float and type(y) is float for t, y in ends)
            assert ends == list(zip(solution.t.tolist(),
                                    np.append(solution._y0[c], end[c]).tolist()))

    def test_seeded_sweep(self):
        # A dry start rises from u = 0 as s^2/2, so at level 2e-9 its first
        # step end lies outside the band and brackets the first crossing from
        # s = 0, and at 1e-12 it lies inside it. A level equal to u at a step
        # end puts that end inside the band, so a bracket there spans two steps.
        brackets = {"several steps": 0, "from s = 0": 0}
        for traj in seeded_runs():
            dense = traj.dense
            on_an_end = float(step_ends(dense)[1][dense.accepted // 8])
            for level in LEVELS + (2e-9, 1e-12, on_an_end):
                seen = []
                self.assert_detects_as_the_loop(dense, level, seen)
                for lo, hi in seen:
                    first, last = np.searchsorted(dense.t, [lo, hi])
                    brackets["several steps"] += last - first >= 2
                    brackets["from s = 0"] += lo == 0.0  # at_by_lists' step -1, clamped to 0
        assert min(brackets.values()) >= 10, brackets

    def test_crossings_lie_at_the_exact_roots_of_their_quartics(self):
        # Where |v| >= 1e-6, rounding moves the float quartic's root by at
        # most a few 1e-16 / |v|, below the refinement's width; below that
        # the float quartic is flat to rounding and the crossing sits below
        # the run's integration error.
        checked = 0
        for traj in seeded_runs():
            dense = traj.dense
            for (lo, hi, direction), crossing in zip(_brackets(dense.ends(0), 0.5),
                                                    traj.crossings):
                if abs(float(dense(crossing.s)[1])) < 1e-6:
                    continue
                root = exact_root(dense, crossing.s, lo, hi, direction, 0.5)
                assert abs(Fraction(crossing.s) - root) <= CROSSING_REFINE_TOL, crossing
                checked += 1
        assert checked > 700

    def test_lightly_damped_point_crosses_76_times(self):
        assert len(integrate(mp(31.4, 0.7, 0.0)).crossings) == 76

    def test_no_accepted_step_holds_two_crossings(self):
        # Step-end brackets miss a crossing only where one step holds two.
        # Each step's quartic for u at 64 points, as the stage sums of
        # `dense._q` give it, changes side of 1/2 outside the band at most
        # once, and the steps that change side are the run's crossings.
        runs = [(mp(omega, beta, alpha), None) for beta, omega, alpha in ACCEPTANCE_GRID]
        runs += [(mp(31.4, 0.7, 0.0), None), (mp(1.0, 0.2, 0.5), None),
                 (mp(0.3, 1.0, 0.2), 60.0)]
        x = np.linspace(0.0, 1.0, 64)[:, None]
        steps = 0
        for params, horizon in runs:
            traj = integrate(params, horizon=horizon)
            dense = traj.dense
            q0, q1, q2, q3 = dense._q[:, 0]
            h = np.diff(dense.t)
            d = dense._y0[0] + h * (x * (q0 + x * (q1 + x * (q2 + x * q3)))) - 0.5
            side = np.where(np.abs(d) > CROSSING_BAND, np.sign(d), 0.0)
            changes = [np.count_nonzero(kept[1:] != kept[:-1])
                       for kept in (column[column != 0.0] for column in side.T)]
            assert max(changes) <= 1 and sum(changes) == len(traj.crossings), params
            steps += dense.accepted
        assert steps > 5000

    @pytest.mark.parametrize("name", SYNTHETIC)
    def test_synthetic_samples(self, name):
        _, u, dense = synthetic(SYNTHETIC[name])
        assert np.array_equal(step_ends(dense)[1][:u.size], u, equal_nan=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found = self.assert_detects_as_the_loop(dense, 0.0)
        assert (found == ()) == (name in ("all-inside-band", "single-sample", "empty"))


class TestContinuousDependence:
    def test_identical_alpha_gives_zero(self):
        records = continuous_dependence(mp(1.0, 1.0, 0.0), 0.5, [0.5],
                                        horizon=10.0, sample_step=0.05)
        assert records[0].distance == 0.0

    def test_distances_shrink_with_alpha(self):
        records = continuous_dependence(mp(1.0, 1.0, 0.0), 0.0,
                                        [0.2, 0.1, 0.05, 0.025],
                                        horizon=20.0, sample_step=0.01)
        distances = [r.distance for r in records]
        assert all(b < a for a, b in zip(distances, distances[1:]))
        # the initial offset alpha^2/2 is a hard lower bound (the s = 0
        # sample) and the transient never more than doubles it here
        for record in records:
            assert record.alpha**2 / 2.0 <= record.distance <= record.alpha**2

    def test_near_equilibrium_perturbation(self):
        records = continuous_dependence(mp(1.0, 1.0, 1.0), 1.0,
                                        [1.0 + 1e-6, 1.0 - 1e-6],
                                        horizon=20.0, sample_step=0.01)
        for record in records:
            assert record.distance < 1e-4
            assert record.delta_alpha == pytest.approx(1e-6, rel=1e-6)


class TestCsvFormat:
    def test_seventeen_digit_csv(self, tmp_path):
        from washburn._format import write_csv
        from washburn.integrate import CSV_HEADER

        traj = integrate(mp(1.0, 1.0, 0.0), horizon=1.0, sample_step=0.5)
        path = tmp_path / "run.csv"
        write_csv(path, CSV_HEADER,
                  [traj.s, traj.u, traj.v, traj.H, traj.T, traj.E, traj.V])
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "s,u,v,H,T,E,V"
        first = lines[1].split(",")
        assert first[0] == "0.0000000000000000e+00"
        assert len(first) == 7
        # 17 significant digits: d.dddddddddddddddde+xx
        mantissa = first[6].split("e")[0]
        assert len(mantissa.replace("-", "").replace(".", "")) == 17
        assert float(first[6]) == pytest.approx(1.0 / 6.0, abs=1e-15)
