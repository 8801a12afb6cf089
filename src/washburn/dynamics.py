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
Lyapunov function, the basin level set and the case-4 oracle all use.
The H-form is kept only to cross-check the u-form (the
`dynamics.h_u_consistency` check of `verify` steps it); it is singular at
H = 0. The four reduced regimes (negligible gravity / inertia /
both / viscosity) are integrated in the analogous u-type coordinate
u* = (h*)^2/2 and come with closed-form or implicit oracles.
"""
from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, SingularityError
from .params import check_nonnegative, check_positive

TWO_SQRT2_OVER_3 = 2.0 * math.sqrt(2.0) / 3.0

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


class RegimeCase(IntEnum):
    """The four reduced flow regimes."""

    NEGLIGIBLE_GRAVITY = 1
    NEGLIGIBLE_INERTIA = 2
    NEGLIGIBLE_GRAVITY_INERTIA = 3
    NEGLIGIBLE_VISCOSITY = 4


_FIRST_ORDER_CASES = (RegimeCase.NEGLIGIBLE_INERTIA,
                      RegimeCase.NEGLIGIBLE_GRAVITY_INERTIA)

_FIXED_EXPONENTS = {
    RegimeCase.NEGLIGIBLE_GRAVITY: (Fraction(1), Fraction(1, 2)),
    RegimeCase.NEGLIGIBLE_INERTIA: (Fraction(0), Fraction(0)),
    RegimeCase.NEGLIGIBLE_VISCOSITY: (Fraction(1, 2), Fraction(0)),
}


@dataclass(frozen=True)
class RegimeSpec:
    """A regime together with one admissible exponent pair.

    Cases 1, 2 and 4 fix (a, b); case 3 is the family a = 2b with a in the
    open interval (0, 1).
    """

    case: RegimeCase
    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "case", RegimeCase(self.case))
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        fixed = _FIXED_EXPONENTS.get(self.case)
        if fixed is not None:
            if (self.a, self.b) != fixed:
                raise DomainError("a", f"case {int(self.case)} fixes (a, b) = {fixed}")
        elif self.a != 2 * self.b:
            raise DomainError(
                "a", f"case 3 needs a = 2b with a in (0, 1), got (a, b) = ({self.a}, {self.b})"
            )
        elif not 0 < self.a < 1:
            raise DomainError("b", f"a = 2b = {self.a} falls outside (0, 1)")

    @classmethod
    def standard(cls, case: RegimeCase, b: Fraction | None = None) -> "RegimeSpec":
        """The fixed pair of cases 1, 2 and 4, or case 3's pair (2b, b) with
        b = 1/4 by default; b is refused for the fixed cases."""
        case = RegimeCase(case)
        if case is RegimeCase.NEGLIGIBLE_GRAVITY_INERTIA:
            b = Fraction(1, 4) if b is None else Fraction(b)
            return cls(case, 2 * b, b)
        if b is not None:
            raise DomainError("b", f"the free exponent is for case 3 only, not case {int(case)}")
        return cls(case, *_FIXED_EXPONENTS[case])

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


class _FloatMath:
    """The numpy calls of the regime oracles on Python floats, with numpy's
    values where `math` or `/` would raise: inf for an exp that overflows,
    -inf for log1p(-1) and NaN below it, NaN for the sqrt of a negative
    number, and +-inf or NaN for a quotient by zero."""

    @staticmethod
    def exp(x):
        try:
            return math.exp(x)
        except OverflowError:
            return math.inf

    @staticmethod
    def log1p(x):
        if x <= -1.0:
            return -math.inf if x == -1.0 else math.nan
        return math.log1p(x)

    @staticmethod
    def sqrt(x):
        return math.nan if x < 0.0 else math.sqrt(x)

    @staticmethod
    def divide(a, b):
        if b == 0.0:
            if a == 0.0 or a != a:
                return math.nan
            return math.copysign(math.inf, a) * math.copysign(1.0, b)
        return a / b

    @staticmethod
    def where(condition, a, b):
        return a if condition else b

    @staticmethod
    def errstate(**_):
        return _NO_ERRSTATE


_NO_ERRSTATE = contextlib.nullcontext()  # reusable: floats raise no numpy warnings


def _math_for(x):
    """numpy for an array x, else `_FloatMath`; it never imports numpy."""
    return _numpy_if_array(x) or _FloatMath


# 1/k! for k = 12 down to 2: the Horner coefficients of case 1's series.
_CASE1_SERIES = tuple(1 / math.factorial(k) for k in range(12, 1, -1))


def case1_closed_form_u(t, beta: float, u0: float = 0.0):
    """Exact solution of u'' + beta u' = 1 with u(0) = u0, u'(0) = 0:
    u0 + t^2 g(x), x = beta t, g(x) = (x - 1 + e^-x)/x^2. The closed form
    u0 + t/beta - (1 - e^-x)/beta^2 loses up to 2 eps/x to cancellation, so
    below x = 0.1 g is its Taylor series sum_{k>=2} (-x)^(k-2)/k! to k = 12.
    Takes a float t (returns a float) or an array."""
    xp = _math_for(t)
    x = beta * t
    series = abs(x) < 0.1
    xs = xp.where(series, x, 0.0)
    g = 0.0
    for c in _CASE1_SERIES:
        g = c - xs * g
    try:
        beta2 = beta**2
    except OverflowError:  # beta above about 1.34e154: the last term's limit is 0
        beta2 = math.inf
    with xp.errstate(all="ignore"):  # may overflow where the series is taken instead
        closed = u0 + xp.divide(t, beta) - xp.divide(1.0 - xp.exp(-x), beta2)
    return xp.where(series, u0 + t * t * g, closed)


def case2_implicit_time(h, beta: float, h0: float):
    """Separable time-height relation t*(h*) for the inertia-free regime.

    Valid for heights in [0, 1); diverges logarithmically as h* -> 1.
    Takes a float h (returns a float) or an array.
    """
    xp = _math_for(h)
    anti = lambda x: -x - xp.log1p(-x)
    return beta * (anti(h) - anti(h0))


def case3_closed_form_h(t, beta: float, h0: float = 0.0):
    """Square-root growth h*(t*) = sqrt(2 t*/beta + h0^2). Takes a float t
    (returns a float) or an array."""
    xp = _math_for(t)
    return xp.sqrt(xp.divide(2.0 * t, beta) + h0 * h0)
