"""Entire activation functions as Taylor series with exact coefficient streams.

Every activation used by the network/kernel machinery is an entire (or
radius-limited analytic) function sigma(xi) = sum_i a_i xi^i with a_0 >= 0 and
a_1 > 0.  Each one also has an *associated* function with coefficients |a_i|,
which drives the positive-definite companion kernel and all capacity bounds.

tanh, logistic, erf and exp each have one coefficient stream, built once,
grown on demand and ended at the last nonzero float; tanh's and logistic's come
from the Euler zigzag numbers.  Associated kinds read |a_i| of their base kind.
A series stops where its coefficients end, so a truncation past that end costs
no more than the end itself.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count, islice

import numpy as np

from .errors import DomainError


def _load_erf():
    """SciPy's erf and erfi ufuncs, loaded without running any scipy package init.

    They live in the compiled ``scipy.special._special_ufuncs`` module, which
    links only the C++ runtime and imports no scipy module (the public import
    runs scipy._lib and maps OpenBLAS and gfortran).  It is loaded straight from
    its file and its one sys.modules entry removed, so a later ``import
    scipy.special`` hands back these same ufunc objects.  With scipy already
    imported, or on any failure of the private layout, the public import is used.
    """
    if "scipy" not in sys.modules:
        name = "scipy.special._special_ufuncs"
        try:
            root = importlib.util.find_spec("scipy").submodule_search_locations[0]
            spec = importlib.machinery.PathFinder.find_spec(name, [os.path.join(root, "special")])
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module.erf, module.erfi
        except Exception:  # any change to scipy's private layout: the public import below
            pass
        finally:
            sys.modules.pop(name, None)
    from scipy.special import erf, erfi

    return erf, erfi


_sp_erf, _sp_erfi = _load_erf()

_SQRT_PI = math.sqrt(math.pi)

#: the base kinds: each has its own Taylor coefficients
BASE_KINDS = ("linear", "erf", "tanh", "logistic", "polynomial", "exp", "relu_surrogate")
#: the associated kinds that differ from their base kind (associated()); configs may name
#: these as well as the base kinds
DERIVED_KINDS = ("tan", "erfi", "logistic_assoc", "relu_surrogate_assoc")

# kinds whose closed form is only trusted inside the convergence radius
_POLE_LIMITED = {"tan", "logistic_assoc"}

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

_EULER, _EULER_ROW = [1], [1]  # E_0, E_1, ... and the last boustrophedon row built


def _euler(n):
    """The Euler zigzag number E_n (OEIS A000111) by the Seidel-Entringer
    boustrophedon: each row is the running sum, from 0, of the last row read
    backwards, and ends in the next E.  Only the last row and the E's are kept."""
    while len(_EULER) <= n:
        _EULER_ROW[:] = list(accumulate(reversed(_EULER_ROW), initial=0))
        _EULER.append(_EULER_ROW[-1])
    return _EULER[n]


def _terms(kind):
    """a_0, a_1, ... of a base kind as floats, up to its last nonzero float.

    At odd n = 2k + 1, with the sign (-1)^k: tanh's a_n is E_n / n!, logistic's
    E_n / (n! 2^(n + 1)) and erf's (2/sqrt(pi)) / (k! n); even n >= 2 give 0.
    exp's a_n is 1/n!.  erf and exp use the float formula while its integer
    denominator is a float; other terms are the exact value rounded once.  The
    magnitudes decrease, so the first term that rounds to 0 ends the stream.
    """
    yield {"logistic": 0.5, "exp": 1.0}.get(kind, 0.0)
    for n in count(1):
        sign = -1 if n % 4 == 3 else 1
        if kind == "exp":
            c, den = 1.0, math.factorial(n)
        elif n % 2 == 0:
            c, den = 0, 1
        elif kind == "erf":
            c, den = sign * (2.0 / _SQRT_PI), math.factorial(n // 2) * n
        else:
            c, den = sign * _euler(n), math.factorial(n) << (n + 1 if kind == "logistic" else 0)
        try:
            a = c / den
        except OverflowError:  # a float over an integer past the float range
            a = float(Fraction(c) / den)
        if c and not a:  # a nonzero term rounded to 0
            return
        yield a


#: base kind -> (its floats a_0, a_1, ... built so far, the rest of its _terms)
_STREAMS = {kind: ([], _terms(kind)) for kind in ("tanh", "logistic", "erf", "exp")}


def _coefficient(kind, i):
    """a_i of a streamed base kind; its stream grows to degree i, or to its end."""
    a, terms = _STREAMS[kind]
    a.extend(islice(terms, max(0, i + 1 - len(a))))
    if i < len(a):
        return a[i]
    # past the float support a term rounds to 0 with the sign of the term 4k down
    return math.copysign(0.0, a[len(a) - 4 + (i - len(a)) % 4])


def _relu_coefficient(spec, i):
    """a_i of xi/2 + (xi/2) erf(xi/c) at even i >= 2: a_{i-1}(erf) / (2 c^(i-1)).

    The float formula is kept while c^(i-1), the erf factor and the quotient
    are normal floats.  Otherwise the exact value is rounded once: below the
    float range to a subnormal or 0, above it DomainError.
    """
    c = spec.sharpness
    half = 0.5 * _coefficient("erf", i - 1)
    try:
        scale = c ** (i - 1)
        a = half / scale
        if min(scale, abs(half), abs(a)) >= sys.float_info.min and abs(a) < math.inf:
            return a
    except (OverflowError, ZeroDivisionError):
        pass
    try:  # i - 1 = 2k + 1 with k = i/2 - 1
        return float(Fraction(2.0 / _SQRT_PI) * (-1) ** (i // 2 - 1)
                     / (2 * math.factorial(i // 2 - 1) * (i - 1)) / Fraction(c) ** (i - 1))
    except OverflowError:
        raise DomainError(
            f"{spec.kind} Taylor coefficient of degree {i} exceeds the float range"
        ) from None


def taylor_coefficient(spec, i):
    """a_i of the activation's Taylor expansion at 0 (|a_i| of the base kind)."""
    if i < 0:
        raise ValueError("coefficient index must be nonnegative")
    kind = _BASE.get(spec.kind, spec.kind)
    if kind == "linear":
        a = 1.0 if i == 1 else 0.0
    elif kind == "polynomial":
        a = spec.coefficients[i] if i < len(spec.coefficients) else 0.0
    elif kind == "relu_surrogate":
        # xi/2 + (xi/2) * erf(xi/c): odd erf terms shift to even degrees >= 2
        a = _relu_coefficient(spec, i) if i >= 2 and i % 2 == 0 else 0.5 if i == 1 else 0.0
    else:
        a = _coefficient(kind, i)
    return a if kind == spec.kind else abs(a)


def taylor_series(spec, up_to):
    """[a_0, ..., a_n] for n = up_to, or less where every later coefficient is 0 (past a
    polynomial's last, or where a stream's terms round to 0, the relu surrogate's too)."""
    kind = _BASE.get(spec.kind, spec.kind)
    if kind in _STREAMS:
        _coefficient(kind, max(0, up_to))  # the stream grows to degree up_to or to its end
        up_to = min(up_to, len(_STREAMS[kind][0]) - 1)
    elif kind != "relu_surrogate":
        up_to = min(up_to, len(spec.coefficients or (0.0, 1.0)) - 1)  # linear's are (0, 1)
    series = []
    for i in range(up_to + 1):
        series.append(taylor_coefficient(spec, i))
        if kind == "relu_surrogate" and i > 1 and i % 2 == 0 and not series[-1]:
            return series[: max(2, i - 1)]  # its terms fall from their peak: all later are 0
    return series


def support_degrees(spec, up_to):
    """Degrees i <= up_to with a_i != 0, ascending (no work past the series' end)."""
    return [i for i, a in enumerate(taylor_series(spec, up_to)) if a != 0.0]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def convergence_radius(spec):
    """Radius of the Taylor series at 0, the distance to the nearest pole:
    tanh's are at +-i pi/2, tan's at +-pi/2, logistic's at +-i pi and its
    associated (1 + tan(xi/2))/2's at +-pi."""
    if spec.kind in ("tanh", "tan"):
        return math.pi / 2
    if spec.kind in ("logistic", "logistic_assoc"):
        return math.pi
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
    # From the highest nonzero coefficient: a zero accumulator would make 0 * inf = NaN
    # at an infinite xi.  On finite xi the bits are those of a start from zeros.
    *rest, top = coefficients[:max(i for i, c in enumerate(coefficients) if c) + 1]
    acc = np.full_like(xi, top)
    for c in reversed(rest):
        acc = acc * xi + c
    return acc


def _erf(xi):
    """SciPy's erf as copysign(erf(|xi|), xi), in one fresh buffer.

    The same bits but for a -nan (SciPy's erf reflects a negative argument itself),
    without its sign branch, which zero-mean arguments mispredict half the time.
    erfi stays unfolded: SciPy's erfi(+nan) is -nan.
    """
    out = np.abs(xi, out=np.empty_like(xi))
    _sp_erf(out, out=out)
    return np.copysign(out, xi, out=out)


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
    "erf": ("erfi", lambda spec, xi: _erf(xi),
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
    "relu_surrogate": ("relu_surrogate_assoc", *_relu_forms(_erf, -1.0)),
    "relu_surrogate_assoc": ("relu_surrogate_assoc", *_relu_forms(_sp_erfi, 1.0)),
}
#: associated kind -> the base kind whose |a_i| it has
_BASE = {assoc: kind for kind, (assoc, *_) in _KINDS.items() if assoc != kind}


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


def lipschitz_on(spec, interval_sup):
    """sup |sigma'| over [0, m].

    m = inf returns the exact global constant for globally Lipschitz kinds and
    raises otherwise.  Finite m gives the smaller of that constant and sigma-bar'(m),
    as |sigma'(x)| <= sigma-bar'(|x|), nondecreasing: the exact sup for associated
    kinds, tanh, erf and logistic, else an upper bound (inf, silently, on overflow).
    """
    m = float(interval_sup)
    if m <= 0:
        raise ValueError("interval endpoint must be positive")
    g = _global_lipschitz(spec)
    if math.isinf(m):
        if g is None:
            raise ValueError(f"{spec.kind} has no global Lipschitz constant")
        return g
    if m >= convergence_radius(spec):
        raise DomainError(f"interval [0, {m}] exceeds the convergence radius of {spec.kind}")
    with np.errstate(over="ignore"):
        local = float(derivative(associated(spec), m))
    return local if g is None else min(g, local)


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
