"""Right-hand sides and coordinate transforms for the capillary model.

The stiff-free working coordinates are u = H^2/2 with the scaled time
s = T/sqrt(omega), in which the model reads

    u'' + (beta/sqrt(omega)) u' + sqrt(2 u) = 1.

`u_form_field` is the one implementation of this right-hand side, as the
acceleration u'' = F(u, u') that the integrator steps; `rhs_u` is its
validated single-point form. `h_form_field` is the one implementation of
the H-form acceleration. `regime_field` is the one implementation of each
reduced regime's field.
`energy` is the one implementation of the first integral, which the
Lyapunov function, the basin level set and the case-4 oracle all use;
`lyapunov_columns` gives E and the Lyapunov function V = E + 1/6 of
sampled trajectory columns, V in its factored form near the equilibrium.
The H-form is kept only to cross-check the u-form (the
`dynamics.h_u_consistency` check of `verify` steps it); it is singular at
H = 0. The four reduced regimes (negligible gravity / inertia /
both / viscosity) are integrated in the analogous u-type coordinate
u* = (h*)^2/2 and come with closed-form or implicit oracles.
"""
from __future__ import annotations

import math
import sys
from array import array
from enum import IntEnum
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError, SingularityError
from .params import U_EQUILIBRIUM, check_nonnegative, check_positive

if TYPE_CHECKING:
    from fractions import Fraction

TWO_SQRT2_OVER_3 = 2.0 * math.sqrt(2.0) / 3.0
INV_SQRT2 = math.sqrt(0.5)

# Switch to the factored Lyapunov form this close to the equilibrium.
FACTORED_WINDOW = 1e-3

# Below this height the H-form right-hand side is numerically meaningless.
H_SINGULARITY_FLOOR = 1e-12


class State(NamedTuple):
    """Point (u, v) of the transformed phase space; v = du/ds."""

    u: float
    v: float


def u_form_field(gamma: float, epsilon: float):
    """The u-form acceleration for damping gamma = beta/sqrt(omega).

    Returns accel(u, v) = 1 - gamma v - sqrt(2 [u]_+ + epsilon), the float
    u'' = accel(u, u') that the integrator steps. It validates nothing and
    builds no tuple; callers check gamma and epsilon once. The positive-part
    clamp makes it a total function of (u, v), so tiny negative excursions
    cannot poison the integrator; a NaN u stays NaN.
    """
    sqrt_ = math.sqrt

    def accel(u, v):
        return 1.0 - gamma * v - sqrt_(2.0 * (0.0 if u < 0.0 else u) + epsilon)

    return accel


def rhs_u(state, omega: float, beta: float, epsilon: float = 0.0) -> State:
    """Right-hand side (u', v') of the (optionally regularized) u-form model.

    Validates (omega, beta, epsilon), then returns (v, `u_form_field`'s
    acceleration at state).
    """
    check_positive("omega", omega)
    check_positive("beta", beta)
    check_nonnegative("epsilon", epsilon)
    u, v = state
    return State(v, u_form_field(beta / math.sqrt(omega), epsilon)(u, v))


def h_form_field(omega: float, beta: float):
    """The H-form acceleration H'' = [1 - H - beta H H' - omega H'^2] / (omega H).

    Returns accel(H, H'), built once per run like `u_form_field`: it
    validates neither parameter, but raises SingularityError at each call
    with H <= H_SINGULARITY_FLOOR, where the form is singular.
    """

    def accel(H, Hdot):
        if H <= H_SINGULARITY_FLOOR:
            raise SingularityError(
                f"H = {H!r} is too close to the H = 0 singularity; "
                "switch to u-coordinates"
            )
        return (1.0 - H - beta * H * Hdot - omega * Hdot * Hdot) / (omega * H)

    return accel


def _numpy_if_array(u, v=None):
    """numpy if u or v is a numpy array, else None; it never imports numpy."""
    np = sys.modules.get("numpy")  # an array exists only once numpy is loaded
    if np is not None and (isinstance(u, np.ndarray) or isinstance(v, np.ndarray)):
        return np
    return None


def energy(u, v):
    """First integral E = v^2/2 - u + (2 sqrt2 / 3) [u]_+^{3/2} of the undamped model.

    Nonincreasing along damped trajectories and conserved in the undamped
    regime. Takes scalars (returns a float) or arrays, and clamps slightly
    negative u so it can be evaluated on raw integrator output.
    """
    np = _numpy_if_array(u, v)
    if np is None:  # math on floats: several times faster than numpy scalars
        return _energy(u, v)
    return _energy(u, v, np.maximum, np.sqrt)


def _energy(u, v, maximum=max, sqrt=math.sqrt):
    """`energy` without the dispatch: on Python floats by default, on arrays
    with maximum = np.maximum and sqrt = np.sqrt. max(u, 0.0) keeps a NaN u,
    as np.maximum does."""
    up = maximum(u, 0.0)
    return 0.5 * v * v - u + TWO_SQRT2_OVER_3 * up * sqrt(up)


def _lyapunov_factored(u, v, sqrt):
    """V from its factored form, with sqrt = math.sqrt on floats or np.sqrt on
    arrays. The square is written as a product, which numpy also computes for
    an array's ** 2; a float's ** 2 calls libm pow, which is not always
    correctly rounded."""
    root = sqrt(u)
    d = root - INV_SQRT2
    return 0.5 * v * v + TWO_SQRT2_OVER_3 * (d * d) * (root + 0.5 * INV_SQRT2)


def _lyapunov_float(u: float, v: float, E: float) -> float:
    """V at a float phase point of energy E: the factored form within
    FACTORED_WINDOW of u = 1/2, else E + 1/6 (a NaN u takes the latter)."""
    if abs(u - U_EQUILIBRIUM) < FACTORED_WINDOW:
        return _lyapunov_factored(u, v, math.sqrt)
    return E + 1.0 / 6.0


def lyapunov_columns(u, v):
    """(E, V) for trajectory columns; clamps u dust below 0.

    numpy arrays give numpy arrays. Sequences of floats give `array("d")`
    columns with the same bits and load no numpy: one loop that does the
    operations of `_energy` and `_lyapunov_float`, in their order.
    """
    np = _numpy_if_array(u, v)
    if np is None:
        return _float_lyapunov_columns(u, v)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    up = np.maximum(u, 0.0)
    E = energy(u, v)
    V = np.where(np.abs(u - U_EQUILIBRIUM) < FACTORED_WINDOW,
                 _lyapunov_factored(up, v, np.sqrt), E + 1.0 / 6.0)
    return E, V


def _float_lyapunov_columns(u, v):
    """`lyapunov_columns` on sequences of floats, inlined: about half the time
    of calling `_energy` and `_lyapunov_float` at each row."""
    sqrt, c, r, half_r = math.sqrt, TWO_SQRT2_OVER_3, INV_SQRT2, 0.5 * INV_SQRT2
    eq, window = U_EQUILIBRIUM, FACTORED_WINDOW
    E, V = [], []
    add_e, add_v = E.append, V.append
    for x, y in zip(u, v):
        up = 0.0 if x < 0.0 else x  # max(x, 0.0): a NaN x and -0.0 are kept
        k = 0.5 * y * y
        e = k - x + c * up * sqrt(up)
        add_e(e)
        if abs(x - eq) < window:
            root = sqrt(x)
            d = root - r
            add_v(k + c * (d * d) * (root + half_r))
        else:
            add_v(e + 1.0 / 6.0)
    return array("d", E), array("d", V)


class RegimeCase(IntEnum):
    """The four reduced flow regimes."""

    NEGLIGIBLE_GRAVITY = 1
    NEGLIGIBLE_INERTIA = 2
    NEGLIGIBLE_GRAVITY_INERTIA = 3
    NEGLIGIBLE_VISCOSITY = 4


_FIRST_ORDER_CASES = (RegimeCase.NEGLIGIBLE_INERTIA,
                      RegimeCase.NEGLIGIBLE_GRAVITY_INERTIA)

# The (a, b) that cases 1, 2 and 4 fix, as (numerator, denominator) pairs:
# `_fixed_exponents` makes the Fractions, so importing this module loads no
# fractions.
_FIXED_EXPONENTS = {
    RegimeCase.NEGLIGIBLE_GRAVITY: ((1, 1), (1, 2)),
    RegimeCase.NEGLIGIBLE_INERTIA: ((0, 1), (0, 1)),
    RegimeCase.NEGLIGIBLE_VISCOSITY: ((1, 2), (0, 1)),
}


def _fixed_exponents(case: RegimeCase) -> tuple[Fraction, Fraction] | None:
    """The (a, b) that case fixes, as Fractions; None for case 3."""
    from fractions import Fraction

    pair = _FIXED_EXPONENTS.get(case)
    return None if pair is None else tuple(Fraction(*ratio) for ratio in pair)


class _RegimeSpecFields(NamedTuple):
    case: RegimeCase
    a: Fraction
    b: Fraction


class RegimeSpec(_RegimeSpecFields):
    """A regime together with one admissible exponent pair.

    Cases 1, 2 and 4 fix (a, b); case 3 is the family a = 2b with a in the
    open interval (0, 1).
    """

    __slots__ = ()

    def __new__(cls, case: RegimeCase, a: Fraction, b: Fraction):
        from fractions import Fraction

        case, a, b = RegimeCase(case), Fraction(a), Fraction(b)
        fixed = _fixed_exponents(case)
        if fixed is not None:
            if (a, b) != fixed:
                raise DomainError("a", f"case {int(case)} fixes (a, b) = {fixed}")
        elif a != 2 * b:
            raise DomainError(
                "a", f"case 3 needs a = 2b with a in (0, 1), got (a, b) = ({a}, {b})"
            )
        elif not 0 < a < 1:
            raise DomainError("b", f"a = 2b = {a} falls outside (0, 1)")
        return super().__new__(cls, case, a, b)

    @classmethod
    def standard(cls, case: RegimeCase, b: Fraction | None = None) -> "RegimeSpec":
        """The fixed pair of cases 1, 2 and 4, or case 3's pair (2b, b) with
        b = 1/4 by default; b is refused for the fixed cases."""
        from fractions import Fraction

        case = RegimeCase(case)
        if case is RegimeCase.NEGLIGIBLE_GRAVITY_INERTIA:
            b = Fraction(1, 4) if b is None else Fraction(b)
            return cls(case, 2 * b, b)
        if b is not None:
            raise DomainError("b", f"the free exponent is for case 3 only, not case {int(case)}")
        return cls(case, *_fixed_exponents(case))

    @property
    def first_order(self) -> bool:
        """Cases 2 and 3 reduce to first-order equations in u* = (h*)^2/2."""
        return self.case in _FIRST_ORDER_CASES


def regime_field(spec: RegimeSpec, beta: float):
    """The reduced-regime acceleration in u* coordinates.

    Second-order cases return accel(u*, v*) = d2u*/dt*2, stepped as the
    u-form is. First-order cases return accel(W, w) = dw/dt* for w = u*,
    the velocity equation `_rk.solve` steps a one-component state by; it
    reads w only. Built once per run, like `u_form_field`: it validates
    nothing, and negative u* is clamped inside the square roots. Case 1 is
    1 - beta v*; case 4 is the undamped u-form, `u_form_field(0.0, 0.0)`.
    """
    sqrt_ = math.sqrt
    case = spec.case
    if case is RegimeCase.NEGLIGIBLE_VISCOSITY:
        return u_form_field(0.0, 0.0)
    if case is RegimeCase.NEGLIGIBLE_GRAVITY:
        def accel(u, v):
            return 1.0 - beta * v
    elif case is RegimeCase.NEGLIGIBLE_INERTIA:
        def accel(W, w):
            return (1.0 - sqrt_(2.0 * (0.0 if w < 0.0 else w))) / beta
    else:
        rate = 1.0 / beta

        def accel(W, w):
            return rate
    return accel


# 1/k! for k = 12 down to 2: the Horner coefficients of case 1's series.
_CASE1_SERIES = tuple(1 / math.factorial(k) for k in range(12, 1, -1))


def case1_closed_form_u(t, beta: float, u0: float = 0.0):
    """Exact solution of u'' + beta u' = 1 with u(0) = u0, u'(0) = 0:
    u0 + t^2 g(x), x = beta t, g(x) = (x - 1 + e^-x)/x^2. The closed form
    u0 + t/beta - (1 - e^-x)/beta^2 loses up to 2 eps/x to cancellation, so
    below x = 0.1 g is its Taylor series sum_{k>=2} (-x)^(k-2)/k! to k = 12.
    Takes an array t."""
    import numpy as np

    return _case1_solution(beta, u0, np)(t)


def _case1_solution(beta: float, u0: float, xp):
    """`case1_closed_form_u` as a function of t alone, its per-run constants
    computed once: xp is `math` for float times, numpy for arrays. On a float
    only the branch that is taken is evaluated, and where numpy gives inf or
    NaN it may raise instead: OverflowError for an exp that overflows,
    ZeroDivisionError where beta^2 underflows to 0."""
    try:
        beta2 = beta**2
    except OverflowError:  # beta above about 1.34e154: the last term's limit is 0
        beta2 = math.inf
    exp = xp.exp

    def series(t, x):
        g = 0.0
        for c in _CASE1_SERIES:
            g = c - x * g
        return u0 + t * t * g

    def closed(t, x):
        return u0 + t / beta - (1.0 - exp(-x)) / beta2

    if xp is math:
        def u(t):
            x = beta * t
            return series(t, x) if abs(x) < 0.1 else closed(t, x)
    else:
        def u(t):
            x = beta * t
            near = abs(x) < 0.1
            with xp.errstate(all="ignore"):  # may overflow where the series is taken
                far = closed(t, x)
            return xp.where(near, series(t, xp.where(near, x, 0.0)), far)
    return u


def case2_implicit_time(h, beta: float, h0: float):
    """Separable time-height relation t*(h*) for the inertia-free regime.

    Valid for heights in [0, 1); diverges logarithmically as h* -> 1.
    Takes an array h.
    """
    import numpy as np

    return _case2_time(beta, h0, np)(h)


def _case2_time(beta: float, h0: float, xp):
    """`case2_implicit_time` as a function of h alone, with the start's term
    computed once: xp is `math` for float heights, numpy for arrays. On
    floats, log1p at or below -1 raises ValueError: here for h0 >= 1, in
    the function for h >= 1."""
    log1p = xp.log1p

    def anti(x):
        return -x - log1p(-x)

    start = anti(h0)

    def t(h):
        return beta * (anti(h) - start)
    return t


def case3_closed_form_h(t, beta: float, h0: float = 0.0):
    """Square-root growth h*(t*) = sqrt(2 t*/beta + h0^2). Takes an array t."""
    import numpy as np

    return _case3_height(beta, h0, np)(t)


def _case3_height(beta: float, h0: float, xp):
    """`case3_closed_form_h` as a function of t alone, with h0^2 computed
    once: xp is `math` for float times, numpy for arrays. On floats, the
    sqrt of a negative number raises ValueError."""
    sqrt, h0_sq = xp.sqrt, h0 * h0

    def h(t):
        return sqrt(2.0 * t / beta + h0_sq)
    return h
