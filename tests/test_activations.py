"""Series engine tests: coefficient streams, evaluation, Lipschitz data.

Expected coefficients were derived independently from the defining ODEs
(tanh' = 1 - tanh^2, tan' = 1 + tan^2, s' = s - s^2 for the logistic) in
exact rational arithmetic, and cross-checked against stdlib closed forms.
"""

import importlib.util
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
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


def _exact_coefficient(spec, i):
    """a_i as an exact Fraction: the float 2/sqrt(pi), taken exactly, times
    the rational factor, or the rational factor alone."""
    if spec.kind == "exp":
        return Fraction(1, math.factorial(i))
    if spec.kind in ("relu_surrogate", "relu_surrogate_assoc"):
        if i < 2:
            return Fraction(i, 2)
        return _exact_coefficient(act.erf(), i - 1) / 2 / Fraction(spec.sharpness) ** (i - 1)
    if i % 2 == 0:
        return Fraction(0)
    k = (i - 1) // 2
    a = Fraction(2.0 / SQRT_PI) * Fraction((-1) ** k, math.factorial(k) * i)
    return abs(a) if spec.kind == "erfi" else a


@pytest.mark.parametrize("spec, last_float_formula", [
    (act.exp(), 170), (act.erf(), 340), (act.associated(act.erf()), 340),
])
def test_high_degree_coefficients_round_the_exact_value(spec, last_float_formula):
    # past i! (exp) or k! (2k+1) (erf) the float range ends; the exact value
    # is below it and rounds to a subnormal or 0
    for i in range(401):
        got = act.taylor_coefficient(spec, i)
        want = float(_exact_coefficient(spec, i))
        if i <= last_float_formula:  # the float formula's bits, within 1 ulp
            assert abs(got - want) <= math.ulp(want), i
        else:
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), i
    assert 0.0 < abs(act.taylor_coefficient(spec, last_float_formula + 1)) < 1e-307


@pytest.mark.parametrize("sharpness", [0.01, 0.5, 2.0])
@pytest.mark.parametrize("assoc", [False, True])
def test_high_degree_relu_surrogate_coefficients(sharpness, assoc):
    spec = act.relu_surrogate(sharpness)
    spec = act.associated(spec) if assoc else spec

    def exact(i):
        a = _exact_coefficient(spec, i)
        return abs(a) if assoc else a

    for i in range(401):
        try:
            want = float(exact(i))
        except OverflowError:
            with pytest.raises(DomainError, match=f"^{spec.kind} Taylor coefficient of degree {i} "):
                act.taylor_coefficient(spec, i)
            continue
        assert abs(act.taylor_coefficient(spec, i) - want) <= 2 * math.ulp(want), i
    # 0.01 ** 161 is subnormal, where the float formula was 1.2% off
    assert act.taylor_coefficient(spec, 162) == float(exact(162))


def test_polynomial_coefficients_verbatim():
    s = act.polynomial((0.0, 2.0, 0.0, -0.5))
    assert [act.taylor_coefficient(s, i) for i in range(5)] == [0.0, 2.0, 0.0, -0.5, 0.0]


@pytest.mark.parametrize("spec", [
    act.linear(), act.erf(), act.tanh(), act.logistic(), act.exp(), act.relu_surrogate(0.5),
    act.polynomial((0.0, 1.0, 0.25)), act.associated(act.tanh()),
    act.associated(act.logistic()), act.associated(act.erf()),
])
def test_taylor_series_is_the_coefficient_stream(spec):
    # the series stops where every later coefficient is 0: below degree 25,
    # only past the last of a linear or polynomial kind
    series = act.taylor_series(spec, 25)
    assert series == [act.taylor_coefficient(spec, i) for i in range(len(series))]
    assert len(series) == {"linear": 2, "polynomial": 3}.get(spec.kind, 26)
    assert not any(act.taylor_coefficient(spec, i) for i in range(len(series), 26))
    assert act.taylor_series(spec, -1) == []


@pytest.fixture
def fresh_streams(monkeypatch):
    """Empty coefficient streams and zigzag triangle, as in a new process."""
    monkeypatch.setattr(act, "_EULER", [1])
    monkeypatch.setattr(act, "_EULER_ROW", [1])
    monkeypatch.setattr(act, "_STREAMS", {k: ([], act._terms(k)) for k in act._STREAMS})


def _built():
    return len(act._EULER), len(act._EULER_ROW), {k: len(a) for k, (a, _) in act._STREAMS.items()}


def test_support_degrees_builds_the_exact_series_once(fresh_streams):
    # each stream grows once, to the largest degree asked for; a second call,
    # or a per-degree call below it, builds nothing
    assert act.support_degrees(act.tanh(), 150) == list(range(1, 151, 2))
    assert act.support_degrees(act.associated(act.logistic()), 150)[:2] == [0, 1]
    built = _built()
    assert built == (150, 150, {"tanh": 151, "logistic": 151, "erf": 0, "exp": 0})
    assert act.support_degrees(act.tanh(), 150) == list(range(1, 151, 2))
    assert act.taylor_coefficient(act.logistic(), 149) != 0.0
    assert _built() == built


def test_streams_end_at_the_float_support(fresh_streams):
    # the last nonzero floats are at degrees 1,649 (tanh), 649 (logistic) and
    # 177 (exp); finding that the next odd term rounds to 0 takes the zigzag
    # triangle to row 1,651 and no further, whatever the truncation
    assert act.support_degrees(act.tanh(), 5000)[-1] == 1649
    assert act.support_degrees(act.logistic(), 5000)[-1] == 649
    built = _built()
    assert built[:2] == (1652, 1652)
    act.support_degrees(act.tanh(), 5000)
    act.support_degrees(act.associated(act.logistic()), 5000)
    assert _built() == built
    assert act.support_degrees(act.exp(), 12_000)[-1] == 177
    assert len(act._STREAMS["exp"][0]) <= 180
    # past the end a term is the exact value rounded once: a zero of its sign
    for spec, i, sign in [(act.tanh(), 4999, -1.0), (act.tanh(), 5001, 1.0),
                          (act.logistic(), 4999, -1.0), (act.erf(), 12_003, -1.0),
                          (act.exp(), 12_000, 1.0), (act.associated(act.tanh()), 4999, 1.0)]:
        a = act.taylor_coefficient(spec, i)
        assert a == 0.0 and math.copysign(1.0, a) == sign, (spec.kind, i)


def _ode_fractions(kind, n):
    """a_0..a_n as exact Fractions of the self-referential series.

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
    # the integer ODE recurrence is the reference: it equals the Fraction
    # series, and each stream is it rounded once, sign of zero included
    assert _ode_fractions(kind, 60) == _fraction_series(kind, 60)
    exact = _ode_fractions(kind, 300)
    specs = {"tanh": [act.tanh()], "tan": [act.associated(act.tanh())],
             "logistic": [act.logistic(), act.associated(act.logistic())]}[kind]
    for spec in specs:
        want = [float(abs(f) if spec.kind == "logistic_assoc" else f).hex() for f in exact]
        assert [a.hex() for a in act.taylor_series(spec, 300)] == want, spec.kind


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
    # a vanishing top coefficient times an infinite argument is no 0 * inf = NaN
    xi = np.array([math.inf, -math.inf, 1.0])
    assert act.evaluate(act.polynomial((0.5, 2.0, 0.0)), xi).tolist() == [math.inf, -math.inf, 2.5]


def _horner_from_zeros(coefficients, xi):
    acc = np.zeros_like(xi)
    for c in reversed(coefficients):
        acc = acc * xi + c
    return acc


@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
    st.integers(0, 3),
    hnp.arrays(float, st.integers(1, 6), elements=st.floats(allow_nan=False, allow_infinity=False)),
)
def test_horner_is_the_loop_from_zeros_on_finite_inputs(coefficients, zeros, xs):
    assume(any(coefficients))
    coefficients += [0.0] * zeros  # vanishing top coefficients are skipped
    with np.errstate(all="ignore"):
        for xi in (xs, np.asarray(xs[0])):
            got = np.asarray(act._horner(coefficients, xi))
            want = np.asarray(_horner_from_zeros(coefficients, xi))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


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
    a = act.associated(act.logistic())  # (1 + tan(xi/2))/2: its poles are at +-pi
    with pytest.raises(DomainError):
        act.evaluate(a, math.pi)
    with pytest.raises(DomainError):
        act.evaluate(a, -3.2)


def test_logistic_radius_is_pi():
    # logistic's poles are at +-i pi (1 + e^-xi = 0), so its series and its
    # associated (1 + tan(xi/2))/2 converge on (-pi, pi), not only (-pi/2, pi/2)
    a = act.associated(act.logistic())
    assert act.evaluate(a, 2.0) == pytest.approx((1.0 + math.tan(1.0)) / 2.0, rel=1e-15)
    assert act.derivative(a, -2.0) == pytest.approx((1.0 + math.tan(1.0) ** 2) / 4.0, rel=1e-15)
    with pytest.raises(DomainError, match=r"outside radius 3\.141592653589793"):
        act.evaluate(a, 3.2)
    assert act.lipschitz_on(act.logistic(), 2.0) == pytest.approx(0.25, rel=1e-15)
    with pytest.raises(DomainError):
        act.lipschitz_on(act.logistic(), math.pi)


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
    assert act.convergence_radius(act.logistic()) == math.pi
    assert act.convergence_radius(act.associated(act.logistic())) == math.pi
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
    # a degree-1 polynomial's derivative is its a_1, trailing zeros or not
    assert act.lipschitz_on(act.polynomial((0.5, 0.75)), math.inf) == 0.75
    assert act.lipschitz_on(act.polynomial((0.0, 0.75, 0.0)), math.inf) == 0.75


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
    # tan' is nondecreasing on [0, 1], so its sup is tan'(1) = sec^2(1)
    assert got == pytest.approx(1.0 / math.cos(1.0) ** 2, rel=1e-15)
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


# ---------------------------------------------------------------------------
# SciPy's erf/erfi, loaded without scipy.special's package init
# ---------------------------------------------------------------------------

_SRC = os.path.dirname(os.path.dirname(act.__file__))

# true when every scipy module in sys.modules is a real one, not a bare stub
_NO_STUBS = (
    "all(m.__spec__ is not None for k, m in sys.modules.items()"
    " if k == 'scipy' or k.startswith('scipy.'))"
)


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports kreinflat from this source tree."""
    env = {**os.environ, "PYTHONPATH": _SRC}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_cli_import_leaves_scipy_unimported():
    _run_fresh(
        "import sys\n"
        "import kreinflat.cli\n"
        "from kreinflat import activations as act\n"
        "assert not [k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')]\n"
        "import scipy.special, scipy.linalg\n"
        f"assert {_NO_STUBS}\n"
        "assert act._sp_erf is scipy.special.erf\n"
        "assert act._sp_erfi is scipy.special.erfi\n"
    )


def test_cli_import_loads_no_scipy_package_code():
    # With scipy.special._ufuncs and scipy._lib unimportable, the public import
    # fails, so the ufuncs can only come from the private extension module.
    _run_fresh(
        "import sys\n"
        "sys.modules['scipy.special._ufuncs'] = None\n"
        "sys.modules['scipy._lib'] = None\n"
        "import kreinflat.cli\n"
        "from kreinflat import activations as act\n"
        "assert 'scipy.special' not in sys.modules\n"
        "assert act._sp_erf.__name__ == 'erf' and act._sp_erfi.__name__ == 'erfi'\n"
        "if sys.platform.startswith('linux'):\n"
        "    with open('/proc/self/maps') as fh:\n"
        "        mapped = [line for line in fh if '/scipy.libs/' in line]\n"
        "    assert not mapped, mapped\n"
    )


@pytest.mark.parametrize("sabotage", [
    # the scipy package cannot be located
    "import importlib.util\n"
    "def refuse(*args, **kwargs):\n    raise ImportError('no spec')\n"
    "importlib.util.find_spec = refuse\n",
    # the private module's file is not found (once: the public import finds it)
    "import importlib.machinery\n"
    "finder = importlib.machinery.PathFinder\n"
    "real_find = finder.find_spec\n"
    "def missing_once(*args, **kwargs):\n"
    "    finder.find_spec = real_find\n"
    "    return None\n"
    "finder.find_spec = missing_once\n",
    # the private module fails after it registered its sys.modules entry
    "import importlib.machinery\n"
    "loader = importlib.machinery.ExtensionFileLoader\n"
    "real_exec = loader.exec_module\n"
    "def fail_once(self, module):\n"
    "    loader.exec_module = real_exec\n"
    "    raise ImportError('cannot run ' + module.__name__)\n"
    "loader.exec_module = fail_once\n",
], ids=["no-spec", "no-private-module", "private-module-fails"])
def test_load_erf_falls_back_to_the_public_import(sabotage):
    _run_fresh(
        "import sys\n"
        "from kreinflat import activations as act\n"
        + sabotage +
        "erf, erfi = act._load_erf()\n"
        "assert 'scipy.special' in sys.modules\n"
        f"assert {_NO_STUBS}\n"
        "import scipy.special\n"
        "assert erf is scipy.special.erf and erfi is scipy.special.erfi\n"
    )


def test_load_erf_takes_an_imported_scipy_special(monkeypatch):
    import scipy.special

    located = []
    monkeypatch.setattr(importlib.util, "find_spec", lambda *args, **kw: located.append(args))
    before = {k: m for k, m in sys.modules.items() if k == "scipy" or k.startswith("scipy.")}
    erf, erfi = act._load_erf()
    assert not located
    assert erf is scipy.special.erf and erfi is scipy.special.erfi
    assert all(sys.modules.get(k) is m for k, m in before.items())


@pytest.mark.parametrize("spec, reference", [
    (act.erf(), lambda sc, xi: sc.erf(xi)),
    (act.associated(act.erf()), lambda sc, xi: sc.erfi(xi)),
    (act.relu_surrogate(), lambda sc, xi: 0.5 * xi * (1.0 + sc.erf(xi / 0.01))),
    (act.relu_surrogate(0.5), lambda sc, xi: 0.5 * xi * (1.0 + sc.erf(xi / 0.5))),
    (act.associated(act.relu_surrogate()), lambda sc, xi: 0.5 * xi * (1.0 + sc.erfi(xi / 0.01))),
], ids=["erf", "erfi", "relu_surrogate", "relu_surrogate_0.5", "relu_surrogate_assoc"])
def test_erf_family_is_scipy_bit_for_bit(spec, reference):
    import scipy.special as sc

    tiny = np.finfo(float).smallest_subnormal
    grid = np.concatenate([
        [0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 2.2e-308, math.inf, -math.inf, math.nan],
        np.linspace(-6.0, 6.0, 100_001),
        np.linspace(-40.0, 40.0, 1_001),  # erfi overflows to inf past about 26.6
    ])
    with np.errstate(all="ignore"):
        got, want = act.evaluate(spec, grid), reference(sc, grid)
        # a scalar is a 0-d array, whose NumPy loops may set another NaN sign bit
        scalars = [act.evaluate(spec, x) for x in grid[:10]]
        want_scalars = [reference(sc, np.asarray(x)) for x in grid[:10]]
    assert got.tobytes() == want.tobytes()
    assert np.array(scalars).tobytes() == np.array(want_scalars).tobytes()


@pytest.mark.parametrize("spec, reference", [
    (act.erf(), lambda sc, xi: sc.erf(xi)),
    (act.relu_surrogate(), lambda sc, xi: 0.5 * xi * (1.0 + sc.erf(xi / 0.01))),
], ids=["erf", "relu_surrogate"])
@pytest.mark.parametrize("scale", [1e-300, 1e-8, 1e-3, 0.3, 1.0, 3.0, 30.0, 1e300])
def test_erf_fold_is_scipy_bit_for_bit_on_the_package_shapes(spec, reference, scale):
    # erf runs as copysign(erf(|xi|), xi): exact only while SciPy's erf is
    # bitwise odd, which an upgrade could break
    import scipy.special as sc

    rng = np.random.default_rng(7)
    # a Monte-Carlo block (draws x neurons x rows), a Gram, a scalar
    for shape in ((6, 16, 200), (300, 300), ()):
        xi = scale * rng.standard_normal(shape)
        with np.errstate(all="ignore"):
            got, want = act.evaluate(spec, xi), reference(sc, xi)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("spec", [act.erf(), act.relu_surrogate()], ids=["erf", "relu_surrogate"])
def test_erf_fold_of_a_negative_nan_is_a_nan(spec):
    # SciPy gives +nan and the fold -nan: the sign bit differs, no report holds it
    assert math.isnan(act.evaluate(spec, -np.float64(math.nan)))
    values = act.evaluate(spec, np.array([1.0, -math.nan]))
    assert math.isfinite(values[0]) and math.isnan(values[1])
