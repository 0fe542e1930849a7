"""Entire activation functions as Taylor series with exact coefficient streams.

Every activation used by the network/kernel machinery is an entire (or
radius-limited analytic) function sigma(xi) = sum_i a_i xi^i with a_0 >= 0 and
a_1 > 0.  Each one also has an *associated* function with coefficients |a_i|,
which drives the positive-definite companion kernel and all capacity bounds.

Coefficients for tanh/tan/logistic come from exact rational ODE recurrences
(tanh' = 1 - tanh^2, tan' = 1 + tan^2, s' = s - s^2) rather than printed
tables; everything is validated against closed forms in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import erf as _sp_erf, erfi as _sp_erfi

from .errors import DomainError

_SQRT_PI = math.sqrt(math.pi)

#: kinds constructible from config files
BASE_KINDS = ("linear", "erf", "tanh", "logistic", "polynomial", "exp", "relu_surrogate")
#: kinds reachable only through associated()
DERIVED_KINDS = ("tan", "erfi", "logistic_assoc", "relu_surrogate_assoc")

# kinds whose closed form is only trusted inside the convergence radius
_POLE_LIMITED = {"tan", "logistic_assoc"}
# kinds whose coefficients come from _ode_fractions, and the series they use
_ODE_SERIES = {"tanh": "tanh", "tan": "tan", "logistic": "logistic", "logistic_assoc": "logistic"}

_DEFAULT_SHARPNESS = 0.01


@dataclass(frozen=True)
class ActivationSpec:
    """One activation function.

    kind          -- one of BASE_KINDS or DERIVED_KINDS
    coefficients  -- polynomial kind only: (a_0, a_1, ..., a_p)
    sharpness     -- relu_surrogate kinds only: the smoothing scale c > 0
    """

    kind: str
    coefficients: tuple = None
    sharpness: float = None

    def __post_init__(self):
        if self.kind not in BASE_KINDS and self.kind not in DERIVED_KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if self.kind == "polynomial":
            if not self.coefficients:
                raise ValueError("polynomial kind needs a coefficient tuple")
            object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
            a = self.coefficients
            if not all(map(math.isfinite, a)):
                raise ValueError("coefficients must be finite")
            if a[0] < 0:
                raise ValueError("constant coefficient a_0 must be nonnegative")
            if len(a) < 2 or a[1] <= 0:
                raise ValueError("linear coefficient a_1 must be positive")
        elif self.coefficients is not None:
            raise ValueError(f"{self.kind} takes no coefficient tuple")
        if self.kind in ("relu_surrogate", "relu_surrogate_assoc"):
            c = _DEFAULT_SHARPNESS if self.sharpness is None else float(self.sharpness)
            if not 0 < c < math.inf:  # NaN fails too
                raise ValueError("sharpness must be positive and finite")
            object.__setattr__(self, "sharpness", c)
        elif self.sharpness is not None:
            raise ValueError(f"{self.kind} takes no sharpness")


def linear():
    return ActivationSpec("linear")


def erf():
    return ActivationSpec("erf")


def tanh():
    return ActivationSpec("tanh")


def logistic():
    return ActivationSpec("logistic")


def exp():
    return ActivationSpec("exp")


def polynomial(coefficients):
    return ActivationSpec("polynomial", coefficients=tuple(coefficients))


def relu_surrogate(sharpness=_DEFAULT_SHARPNESS):
    return ActivationSpec("relu_surrogate", sharpness=sharpness)


# ---------------------------------------------------------------------------
# coefficient streams
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _ode_fractions(kind, n):
    """a_0..a_n as exact Fractions for the self-referential series.

    tanh:     a' = 1 - a*a, a_0 = 0
    tan:      a' = 1 + a*a, a_0 = 0
    logistic: a' = a - a*a, a_0 = 1/2

    Runs on the integers c_m = a_m * m! * s**(m + 1) (s = 2 for logistic, else
    1), where a*a becomes sum_j C(m, j) c_j c_(m-j), skipping zero terms.
    """
    c = [1 if kind == "logistic" else 0]
    binom = [1]  # C(m, j) for j = 0..m
    for m in range(n):
        conv = sum(binom[j] * c[j] * c[m - j] for j in range(m + 1) if c[j] and c[m - j])
        if kind == "tanh":
            c.append((m == 0) - conv)
        elif kind == "tan":
            c.append((m == 0) + conv)
        else:
            c.append(2 * c[m] - conv)
        binom = [1] + [binom[j] + binom[j + 1] for j in range(m)] + [1]
    s = 2 if kind == "logistic" else 1
    return tuple(Fraction(cm, math.factorial(m) * s ** (m + 1)) for m, cm in enumerate(c))


def _erf_coefficient(i):
    # erf(xi) = (2/sqrt(pi)) sum_k (-1)^k xi^(2k+1) / (k! (2k+1))
    if i % 2 == 0:
        return 0.0
    k = (i - 1) // 2
    return (2.0 / _SQRT_PI) * (-1.0) ** k / (math.factorial(k) * i)


def taylor_coefficient(spec, i):
    """a_i of the activation's Taylor expansion at 0."""
    if i < 0:
        raise ValueError("coefficient index must be nonnegative")
    kind = spec.kind
    if kind == "linear":
        return 1.0 if i == 1 else 0.0
    if kind == "polynomial":
        return spec.coefficients[i] if i < len(spec.coefficients) else 0.0
    if kind == "erf":
        return _erf_coefficient(i)
    if kind == "erfi":
        return abs(_erf_coefficient(i))
    if kind in _ODE_SERIES:
        return taylor_series(spec, i)[i]
    if kind == "exp":
        return 1.0 / math.factorial(i)
    if kind in ("relu_surrogate", "relu_surrogate_assoc"):
        # xi/2 + (xi/2) * erf(xi/c): odd erf terms shift to even degrees >= 2
        if i == 1:
            return 0.5
        if i >= 2 and i % 2 == 0:
            a = 0.5 * _erf_coefficient(i - 1) / spec.sharpness ** (i - 1)
            return abs(a) if kind == "relu_surrogate_assoc" else a
        return 0.0
    raise AssertionError(kind)


def taylor_series(spec, up_to):
    """[a_0, ..., a_up_to]; an ODE kind builds its exact series once, in one pass."""
    if spec.kind not in _ODE_SERIES:
        return [taylor_coefficient(spec, i) for i in range(up_to + 1)]
    a = [float(f) for f in _ode_fractions(_ODE_SERIES[spec.kind], up_to)[: up_to + 1]]
    return [abs(v) for v in a] if spec.kind == "logistic_assoc" else a


def support_degrees(spec, up_to):
    """Degrees i <= up_to with a_i != 0, ascending."""
    return [i for i, a in enumerate(taylor_series(spec, up_to)) if a != 0.0]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def convergence_radius(spec):
    if spec.kind in ("tanh", "tan", "logistic", "logistic_assoc"):
        return math.pi / 2
    return math.inf


def outside_domain(spec, xi):
    """Mask of the entries where spec's closed form is not trusted.

    Only pole-limited kinds have such entries: not |xi| < radius, so NaN is
    outside too.  Other kinds get a scalar False that broadcasts to xi.
    """
    if spec.kind not in _POLE_LIMITED:
        return np.False_
    return ~(np.abs(xi) < convergence_radius(spec))


def _checked(spec, xi):
    xi = np.asarray(xi, dtype=float)
    if spec.kind in _POLE_LIMITED:
        bad = outside_domain(spec, xi)
        if bad.any():
            first = float(xi[bad][0])  # C order
            raise DomainError(
                f"{spec.kind} evaluated at {first!r}, outside radius {convergence_radius(spec)!r}"
            )
    return xi


def _horner(coefficients, xi):
    acc = np.zeros_like(xi)
    for c in reversed(coefficients):
        acc = acc * xi + c
    return acc


def _logistic(spec, xi):
    t = np.exp(-np.abs(xi))  # never overflows
    return np.where(xi >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def _logistic_slope(spec, xi):
    s = _logistic(spec, xi)
    return s * (1.0 - s)


def _relu_forms(erf_like, sign):
    """xi/2 (1 + E(xi/c)) and its slope, for E = erf (sign -1) or erfi (+1)."""
    def slope(spec, xi):
        c = spec.sharpness
        u = xi / c
        return 0.5 * (1.0 + erf_like(u)) + (xi / (c * _SQRT_PI)) * np.exp(sign * u * u)

    return (lambda spec, xi: 0.5 * xi * (1.0 + erf_like(xi / spec.sharpness)), slope)


#: kind -> (associated kind, sigma, sigma'), sigma and sigma' elementwise over float arrays;
#: already-absolute kinds are their own associated kind
_KINDS = {
    "linear": ("linear", lambda spec, xi: xi.copy(), lambda spec, xi: np.ones_like(xi)),
    "polynomial": (
        "polynomial",
        lambda spec, xi: _horner(spec.coefficients, xi),
        lambda spec, xi: _horner([i * c for i, c in enumerate(spec.coefficients)][1:], xi),
    ),
    "erf": ("erfi", lambda spec, xi: _sp_erf(xi),
            lambda spec, xi: (2.0 / _SQRT_PI) * np.exp(-xi * xi)),
    "erfi": ("erfi", lambda spec, xi: _sp_erfi(xi),
             lambda spec, xi: (2.0 / _SQRT_PI) * np.exp(xi * xi)),
    "tanh": ("tan", lambda spec, xi: np.tanh(xi),
             lambda spec, xi: 1.0 - np.square(np.tanh(xi))),
    "tan": ("tan", lambda spec, xi: np.tan(xi), lambda spec, xi: 1.0 + np.square(np.tan(xi))),
    "logistic": ("logistic_assoc", _logistic, _logistic_slope),
    "logistic_assoc": (
        "logistic_assoc",
        lambda spec, xi: 0.5 * (1.0 + np.tan(xi / 2.0)),
        lambda spec, xi: 0.25 * (1.0 + np.square(np.tan(xi / 2.0))),
    ),
    "exp": ("exp", lambda spec, xi: np.exp(xi), lambda spec, xi: np.exp(xi)),
    "relu_surrogate": ("relu_surrogate_assoc", *_relu_forms(_sp_erf, -1.0)),
    "relu_surrogate_assoc": ("relu_surrogate_assoc", *_relu_forms(_sp_erfi, 1.0)),
}


def evaluate(spec, xi):
    """sigma(xi) elementwise by closed form; a scalar comes back as np.float64.

    Raises DomainError naming the first entry (C order) outside the domain.
    """
    xi = _checked(spec, xi)
    return _KINDS[spec.kind][1](spec, xi)[()]


def derivative(spec, xi):
    """sigma'(xi) elementwise by closed form (same domain policy as evaluate)."""
    xi = _checked(spec, xi)
    return _KINDS[spec.kind][2](spec, xi)[()]


# Aliases kept only because the benchmark's tracer looks these names up.
evaluate_array = evaluate
derivative_array = derivative


# ---------------------------------------------------------------------------
# associated function, Lipschitz constants, shape predicates
# ---------------------------------------------------------------------------

def associated(spec):
    """The activation with coefficients |a_i| (idempotent)."""
    if spec.kind == "polynomial":
        return polynomial(abs(c) for c in spec.coefficients)
    return ActivationSpec(_KINDS[spec.kind][0], sharpness=spec.sharpness)


# exact sup|sigma'| over [0, inf) where one exists
def _global_lipschitz(spec):
    kind = spec.kind
    if kind == "linear":
        return 1.0
    if kind == "erf":
        return 2.0 / _SQRT_PI
    if kind == "tanh":
        return 1.0
    if kind == "logistic":
        return 0.25
    if kind == "relu_surrogate":
        # sup of 0.5(1+erf(u)) + u e^{-u^2}/sqrt(pi) sits at u = 1, any sharpness
        return 0.5 * (1.0 + math.erf(1.0)) + math.exp(-1.0) / _SQRT_PI
    if kind == "polynomial" and all(c == 0.0 for c in spec.coefficients[2:]):
        return spec.coefficients[1]
    return None


_GRID_POINTS = 10_001
_GRID_INFLATION = 1.01


def lipschitz_on(spec, interval_sup):
    """sup |sigma'| over [0, m].

    m = inf returns the exact global constant for globally Lipschitz kinds and
    raises otherwise.  Finite m uses a 10001-point grid inflated by 1% (an
    upper proxy; suprema of the monotone derivative envelopes here are bracketed
    far tighter than 1%).
    """
    m = float(interval_sup)
    if m <= 0:
        raise ValueError("interval endpoint must be positive")
    if math.isinf(m):
        g = _global_lipschitz(spec)
        if g is None:
            raise ValueError(f"{spec.kind} has no global Lipschitz constant")
        return g
    if m >= convergence_radius(spec):
        raise DomainError(
            f"interval [0, {m}] exceeds the convergence radius of {spec.kind}"
        )
    grid = np.linspace(0.0, m, _GRID_POINTS)
    return _GRID_INFLATION * float(np.max(np.abs(derivative(spec, grid))))


def is_odd_concave(spec):
    """True when sigma is odd with sigma concave on [0, inf) and sigma(0) = 0.

    These are the admission conditions for the growth-envelope bounds; they
    hold for linear/erf/tanh and for odd polynomials with nonpositive
    higher-order coefficients.
    """
    kind = spec.kind
    if kind in ("linear", "erf", "tanh"):
        return True
    if kind == "polynomial":
        a = spec.coefficients
        odd = all(c == 0.0 for i, c in enumerate(a) if i % 2 == 0)
        return odd and all(c <= 0.0 for c in a[2:])
    return False


def is_bounded_by_one(spec):
    """True when 0 <= sigma(xi) <= 1 for all xi >= 0."""
    return spec.kind in ("erf", "tanh", "logistic")
