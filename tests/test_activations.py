"""Series engine tests: coefficient streams, evaluation, Lipschitz data.

Expected coefficients were derived independently from the defining ODEs
(tanh' = 1 - tanh^2, tan' = 1 + tan^2, s' = s - s^2 for the logistic) in
exact rational arithmetic, and cross-checked against stdlib closed forms.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kreinflat import activations as act
from kreinflat.errors import DomainError

SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# coefficient streams
# ---------------------------------------------------------------------------

def test_linear_coefficients():
    s = act.linear()
    assert act.taylor_coefficient(s, 1) == 1.0
    for i in (0, 2, 3, 7):
        assert act.taylor_coefficient(s, i) == 0.0


def test_erf_coefficients():
    s = act.erf()
    # a_{2k+1} = (2/sqrt(pi)) (-1)^k / (k! (2k+1)); evens vanish
    assert act.taylor_coefficient(s, 1) == pytest.approx(2.0 / SQRT_PI, rel=1e-15)
    assert act.taylor_coefficient(s, 3) == pytest.approx(-2.0 / (3.0 * SQRT_PI), rel=1e-15)
    assert act.taylor_coefficient(s, 5) == pytest.approx(1.1283791670955126 / 10.0, rel=1e-15)
    assert act.taylor_coefficient(s, 7) == pytest.approx(-0.026866170645131252, rel=1e-14)
    for i in (0, 2, 4, 6):
        assert act.taylor_coefficient(s, i) == 0.0


def test_tanh_coefficients_exact_rationals():
    s = act.tanh()
    expected = {1: Fraction(1), 3: Fraction(-1, 3), 5: Fraction(2, 15),
                7: Fraction(-17, 315), 9: Fraction(62, 2835)}
    for i, frac in expected.items():
        assert act.taylor_coefficient(s, i) == pytest.approx(float(frac), rel=1e-15)
    for i in (0, 2, 4, 8):
        assert act.taylor_coefficient(s, i) == 0.0


def test_tan_coefficients_are_abs_tanh():
    t = act.associated(act.tanh())
    for i in range(0, 30):
        assert act.taylor_coefficient(t, i) == abs(act.taylor_coefficient(act.tanh(), i))


def test_logistic_coefficients_exact_rationals():
    s = act.logistic()
    expected = [Fraction(1, 2), Fraction(1, 4), Fraction(0), Fraction(-1, 48),
                Fraction(0), Fraction(1, 480)]
    for i, frac in enumerate(expected):
        assert act.taylor_coefficient(s, i) == pytest.approx(float(frac), abs=1e-18)


def test_relu_surrogate_coefficients():
    # 0.5 xi (1 + erf(xi/c)): a_1 = 1/2, a_{2k+2} = (-1)^k / (k! (2k+1) c^(2k+1) sqrt(pi))
    c = 0.25
    s = act.relu_surrogate(c)
    assert act.taylor_coefficient(s, 1) == pytest.approx(0.5, rel=1e-15)
    assert act.taylor_coefficient(s, 2) == pytest.approx(1.0 / (c * SQRT_PI), rel=1e-14)
    assert act.taylor_coefficient(s, 4) == pytest.approx(-1.0 / (3.0 * c**3 * SQRT_PI), rel=1e-14)
    assert act.taylor_coefficient(s, 3) == 0.0
    assert act.taylor_coefficient(s, 0) == 0.0


def test_polynomial_coefficients_verbatim():
    s = act.polynomial((0.0, 2.0, 0.0, -0.5))
    assert [act.taylor_coefficient(s, i) for i in range(5)] == [0.0, 2.0, 0.0, -0.5, 0.0]


@pytest.mark.parametrize("spec", [
    act.linear(), act.erf(), act.tanh(), act.logistic(), act.exp(), act.relu_surrogate(0.5),
    act.polynomial((0.0, 1.0, 0.25)), act.associated(act.tanh()),
    act.associated(act.logistic()), act.associated(act.erf()),
])
def test_taylor_series_is_the_coefficient_stream(spec):
    assert act.taylor_series(spec, 25) == [act.taylor_coefficient(spec, i) for i in range(26)]
    assert act.taylor_series(spec, -1) == []


def test_support_degrees_builds_the_exact_series_once():
    # one _ode_fractions(kind, up_to) call, not one per degree: per-degree
    # calls each rebuild the series, O(T^3) in all
    act._ode_fractions.cache_clear()
    assert act.support_degrees(act.tanh(), 150) == list(range(1, 151, 2))
    assert act.support_degrees(act.associated(act.logistic()), 150)[:2] == [0, 1]
    assert act._ode_fractions.cache_info().misses == 2


def _fraction_series(kind, n):
    """The ODE series by Fraction arithmetic, term by term."""
    a = [Fraction(1, 2) if kind == "logistic" else Fraction(0)]
    for m in range(n):
        conv = sum(a[j] * a[m - j] for j in range(m + 1))
        if kind == "tanh":
            nxt = (Fraction(1 if m == 0 else 0) - conv) / (m + 1)
        elif kind == "tan":
            nxt = (Fraction(1 if m == 0 else 0) + conv) / (m + 1)
        else:
            nxt = (a[m] - conv) / (m + 1)
        a.append(nxt)
    return tuple(a)


@pytest.mark.parametrize("kind", ["tanh", "tan", "logistic"])
def test_integer_ode_recursion_is_the_fraction_series(kind):
    assert act._ode_fractions(kind, 60) == _fraction_series(kind, 60)


def test_coefficient_stream_is_deterministic():
    s = act.tanh()
    first = [act.taylor_coefficient(s, i) for i in range(20)]
    again = [act.taylor_coefficient(s, i) for i in range(20)]
    assert first == again


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_closed_forms():
    assert act.evaluate(act.linear(), 3.7) == 3.7
    assert act.evaluate(act.tanh(), 0.0) == 0.0
    assert act.evaluate(act.tanh(), 0.6) == pytest.approx(math.tanh(0.6), rel=1e-15)
    assert act.evaluate(act.erf(), 0.8) == pytest.approx(math.erf(0.8), rel=1e-15)
    assert act.evaluate(act.logistic(), -1.2) == pytest.approx(
        1.0 / (1.0 + math.exp(1.2)), rel=1e-15)
    assert act.evaluate(act.exp(), 0.3) == pytest.approx(math.exp(0.3), rel=1e-15)


def test_relu_surrogate_tracks_relu_away_from_kink():
    s = act.relu_surrogate(0.01)
    assert act.evaluate(s, 5.0) == pytest.approx(5.0, abs=1e-6)
    assert act.evaluate(s, -5.0) == pytest.approx(0.0, abs=1e-6)
    assert act.evaluate(s, 0.0) == 0.0


def test_polynomial_evaluation():
    s = act.polynomial((0.0, 1.0, 0.0, 0.5))
    assert act.evaluate(s, 2.0) == pytest.approx(2.0 + 0.5 * 8.0, rel=1e-15)


def test_series_matches_closed_form_inside_half_radius():
    # Taylor partial sums through degree 30 must sit on the closed form
    for spec, xi in [
        (act.tanh(), 0.7), (act.erf(), 1.3), (act.logistic(), 0.7),
        (act.associated(act.tanh()), 0.7), (act.associated(act.erf()), 1.0),
    ]:
        r = act.convergence_radius(spec)
        if math.isfinite(r):
            assert abs(xi) <= r / 2.0 + 1e-12
        partial_sum = sum(a * xi**i for i, a in enumerate(act.taylor_series(spec, 30)))
        assert partial_sum == pytest.approx(act.evaluate(spec, xi), abs=1e-8)


def test_tan_series_evaluates_like_math_tan():
    t = act.associated(act.tanh())
    for xi in (0.1, 0.5, 0.9, 1.2):
        assert act.evaluate(t, xi) == pytest.approx(math.tan(xi), rel=1e-10)
    assert act.evaluate(t, 0.5) == pytest.approx(0.5463024898437905, rel=1e-12)


def test_erfi_series_values():
    e = act.associated(act.erf())
    # erfi(x) = -i erf(ix); compare against the alternating series' abs stream
    # by direct summation with independent coefficients
    def erfi_ref(x, terms=40):
        return sum((2.0 / SQRT_PI) * x ** (2 * k + 1) / (math.factorial(k) * (2 * k + 1))
                   for k in range(terms))
    for xi in (0.3, 0.8, 1.5):
        assert act.evaluate(e, xi) == pytest.approx(erfi_ref(xi), rel=1e-10)


def test_logistic_associated_is_half_one_plus_tan_half():
    a = act.associated(act.logistic())
    for xi in (0.2, 0.9, 1.4):
        assert act.evaluate(a, xi) == pytest.approx(
            0.5 * (1.0 + math.tan(xi / 2.0)), rel=1e-10)


def test_pole_limited_kinds_raise_outside_radius():
    t = act.associated(act.tanh())
    with pytest.raises(DomainError):
        act.evaluate(t, math.pi / 2)
    with pytest.raises(DomainError):
        act.evaluate(t, 2.0)
    a = act.associated(act.logistic())
    with pytest.raises(DomainError):
        act.evaluate(a, 1.6)


def test_evaluate_array_matches_scalar():
    # reference values come from the math module's closed forms, element by element
    c = 0.1
    cases = [
        (act.tanh(), math.tanh),
        (act.erf(), math.erf),
        (act.logistic(), lambda x: 1.0 / (1.0 + math.exp(-x))),
        (act.relu_surrogate(c), lambda x: 0.5 * x * (1.0 + math.erf(x / c))),
        (act.polynomial((0.1, 0.5, 0.2)), lambda x: 0.1 + 0.5 * x + 0.2 * x * x),
        (act.exp(), math.exp),
        (act.associated(act.tanh()), math.tan),
        (act.associated(act.logistic()), lambda x: 0.5 * (1.0 + math.tan(x / 2.0))),
    ]
    xs = np.linspace(-1.2, 1.2, 41)
    for spec, closed_form in cases:
        vals = act.evaluate(spec, xs)
        assert vals.shape == xs.shape
        for x, v in zip(xs, vals):
            assert v == pytest.approx(closed_form(float(x)), rel=1e-12, abs=1e-15)


def test_derivative_matches_finite_differences():
    h = 1e-6
    for spec in (act.tanh(), act.erf(), act.logistic(), act.exp(),
                 act.polynomial((0.0, 1.0, 0.3, 0.1)), act.relu_surrogate(0.5)):
        for xi in (-0.8, -0.1, 0.4, 1.1):
            fd = (act.evaluate(spec, xi + h) - act.evaluate(spec, xi - h)) / (2 * h)
            assert act.derivative(spec, xi) == pytest.approx(fd, rel=1e-6, abs=1e-8)


EVERY_KIND = (
    act.linear(), act.polynomial((0.1, 0.5, -0.2, 0.3)), act.erf(), act.associated(act.erf()),
    act.tanh(), act.associated(act.tanh()), act.logistic(), act.associated(act.logistic()),
    act.exp(), act.relu_surrogate(0.3), act.associated(act.relu_surrogate(0.3)),
)


def test_every_kind_is_covered():
    assert {s.kind for s in EVERY_KIND} == set(act.BASE_KINDS) | set(act.DERIVED_KINDS)


@given(
    st.sampled_from(EVERY_KIND),
    hnp.arrays(float, st.integers(1, 12), elements=st.floats(-1.5, 1.5)),
)
def test_array_calls_equal_scalar_calls(spec, xs):
    values, slopes = act.evaluate(spec, xs), act.derivative(spec, xs)
    assert values.shape == slopes.shape == xs.shape
    for x, v, d in zip(xs, values, slopes):
        one_v, one_d = act.evaluate(spec, x), act.derivative(spec, x)
        assert type(one_v) is type(one_d) is np.float64
        assert v == one_v and d == one_d


@given(st.sampled_from(EVERY_KIND), st.floats(-1.3, 1.3))
def test_derivative_matches_central_differences(spec, xi):
    h = 1e-6
    fd = (act.evaluate(spec, xi + h) - act.evaluate(spec, xi - h)) / (2 * h)
    assert act.derivative(spec, xi) == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_nan_is_outside_the_domain():
    t = act.associated(act.tanh())
    for fn in (act.evaluate, act.derivative):
        with pytest.raises(DomainError, match="evaluated at nan,"):
            fn(t, math.nan)
    # the first violating entry in C order is named, as a plain float
    with pytest.raises(DomainError, match=r"tan evaluated at 2\.0, outside radius"):
        act.evaluate(t, np.array([[0.1, 2.0], [math.nan, 3.0]]))
    # kinds without a pole keep propagating NaN
    assert math.isnan(act.evaluate(act.tanh(), math.nan))


# ---------------------------------------------------------------------------
# associated streams
# ---------------------------------------------------------------------------

def test_associated_abs_property_first_30():
    for spec in (act.linear(), act.erf(), act.tanh(), act.logistic(), act.exp(),
                 act.polynomial((0.0, 1.0, -0.25)), act.relu_surrogate(0.2)):
        bar = act.associated(spec)
        for i in range(31):
            assert act.taylor_coefficient(bar, i) == pytest.approx(
                abs(act.taylor_coefficient(spec, i)), rel=1e-15, abs=0.0)


def test_associated_is_idempotent():
    for spec in (act.tanh(), act.erf(), act.logistic(), act.linear(), act.exp()):
        once = act.associated(spec)
        twice = act.associated(once)
        for i in range(31):
            assert act.taylor_coefficient(twice, i) == act.taylor_coefficient(once, i)


def test_convex_kinds_are_self_associated():
    for spec in (act.linear(), act.exp(), act.polynomial((0.1, 0.2, 0.3))):
        assert act.associated(spec).kind == spec.kind


def test_convergence_radii():
    assert act.convergence_radius(act.linear()) == math.inf
    assert act.convergence_radius(act.erf()) == math.inf
    assert act.convergence_radius(act.exp()) == math.inf
    assert act.convergence_radius(act.polynomial((0.0, 1.0, 2.0))) == math.inf
    assert act.convergence_radius(act.associated(act.tanh())) == pytest.approx(math.pi / 2)
    assert act.convergence_radius(act.associated(act.logistic())) == pytest.approx(math.pi / 2)
    assert act.convergence_radius(act.associated(act.erf())) == math.inf


# ---------------------------------------------------------------------------
# Lipschitz constants
# ---------------------------------------------------------------------------

def test_global_lipschitz_constants():
    assert act.lipschitz_on(act.tanh(), math.inf) == 1.0
    assert act.lipschitz_on(act.linear(), math.inf) == 1.0
    assert act.lipschitz_on(act.erf(), math.inf) == pytest.approx(2.0 / SQRT_PI, rel=1e-15)
    assert act.lipschitz_on(act.logistic(), math.inf) == 0.25
    # sup of the surrogate derivative sits at xi = c: (1+erf(1))/2 + e^-1/sqrt(pi)
    assert act.lipschitz_on(act.relu_surrogate(0.01), math.inf) == pytest.approx(
        1.128904145185155, rel=1e-12)


def test_no_global_constant_raises():
    with pytest.raises(ValueError):
        act.lipschitz_on(act.associated(act.tanh()), math.inf)
    with pytest.raises(ValueError):
        act.lipschitz_on(act.exp(), math.inf)
    with pytest.raises(ValueError):
        act.lipschitz_on(act.polynomial((0.0, 1.0, 1.0)), math.inf)


def test_interval_lipschitz_tan():
    t = act.associated(act.tanh())
    got = act.lipschitz_on(t, 1.0)
    # grid supremum with 1% inflation: 1.01 sec^2(1)
    assert got == pytest.approx(3.4597740090229063, rel=1e-3)
    assert got >= 1.0 / math.cos(1.0) ** 2  # valid upper bound


def test_interval_lipschitz_is_an_upper_bound():
    rng = np.random.default_rng(0)
    for spec in (act.tanh(), act.erf(), act.polynomial((0.0, 0.5, 0.0, 0.4))):
        m = 1.5
        L = act.lipschitz_on(spec, m)
        xs = rng.uniform(0.0, m, size=200)
        ys = rng.uniform(0.0, m, size=200)
        fx = act.evaluate(spec, xs)
        fy = act.evaluate(spec, ys)
        gap = np.abs(fx - fy) - L * np.abs(xs - ys)
        assert np.max(gap) <= 1e-12


def test_interval_beyond_radius_is_a_domain_error():
    t = act.associated(act.tanh())
    with pytest.raises(DomainError):
        act.lipschitz_on(t, 2.0)


# ---------------------------------------------------------------------------
# construction validation
# ---------------------------------------------------------------------------

def test_constant_term_must_be_nonnegative():
    with pytest.raises(ValueError):
        act.polynomial((-0.1, 1.0))


def test_linear_term_must_be_positive():
    with pytest.raises(ValueError):
        act.polynomial((0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        act.polynomial((0.0, -1.0))


def test_builtin_streams_satisfy_sign_assumptions():
    for spec in (act.linear(), act.erf(), act.tanh(), act.logistic(), act.exp(),
                 act.relu_surrogate(0.3)):
        assert act.taylor_coefficient(spec, 0) >= 0.0
        assert act.taylor_coefficient(spec, 1) > 0.0


def test_sharpness_must_be_positive():
    with pytest.raises(ValueError):
        act.relu_surrogate(0.0)
    with pytest.raises(ValueError):
        act.relu_surrogate(-1.0)


def test_shape_predicates():
    assert act.is_odd_concave(act.tanh())
    assert act.is_odd_concave(act.erf())
    assert act.is_odd_concave(act.linear())
    assert not act.is_odd_concave(act.exp())
    assert not act.is_odd_concave(act.logistic())
    assert act.is_bounded_by_one(act.tanh())
    assert act.is_bounded_by_one(act.erf())
    assert not act.is_bounded_by_one(act.linear())
