"""Penalty chains, capacity bounds, the growth envelope, and sparsity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinflat import activations as act
from kreinflat import analysis
from kreinflat import kreinkernel as kk
from kreinflat import netcore
from kreinflat import pushforward as pf
from kreinflat.errors import DomainError


def lin_arch(input_dim, widths):
    return netcore.Architecture(
        input_dim, tuple(widths), (act.linear(),) * len(widths)
    )


def as_weights(*mats):
    return netcore.WeightSet(tuple(np.asarray(m, dtype=float) for m in mats))


def frob_sq(m):
    m = np.asarray(m, dtype=float)
    return float(np.sum(m * m))


# ---------------------------------------------------------------------------
# penalty chains: linear closed forms and the flat-space identity
# ---------------------------------------------------------------------------

def test_layer_penalty_linear_closed_form():
    rng = np.random.default_rng(0)
    arch = lin_arch(3, (4, 2, 1))
    mats = [rng.normal(size=s) for s in arch.layer_shapes()]
    w = netcore.WeightSet(tuple(mats))
    D, widths = 3.0, (4.0, 2.0, 1.0)
    # q = 0 carries no input-dimension factor; later layers do
    want0 = frob_sq(mats[0]) * widths[1]
    want1 = D * frob_sq(mats[1])
    want2 = D * widths[0] * frob_sq(mats[2])
    got = analysis.penalties(arch, w).layers
    assert got[0] == pytest.approx(want0, rel=1e-13)
    assert got[1] == pytest.approx(want1, rel=1e-13)
    assert got[2] == pytest.approx(want2, rel=1e-13)


def test_layer_penalty_linear_saturates_width_bound():
    # for linear nets the width/Lipschitz cap is an identity, not just a bound:
    # p_q = (H L)^d * D / (H_q H_{q-1}) * ||W_q||_F^2 with H_{-1} = D, L = 1
    rng = np.random.default_rng(1)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        widths = tuple(int(rng.integers(1, 5)) for _ in range(d - 1)) + (1,)
        D = int(rng.integers(1, 4))
        arch = lin_arch(D, widths)
        mats = [rng.normal(size=s) for s in arch.layer_shapes()]
        w = netcore.WeightSet(tuple(mats))
        h_pow = float(np.prod(widths))  # = GM(widths)^d
        pen = analysis.penalties(arch, w).layers
        for q in range(d):
            below = float(D) if q == 0 else float(widths[q - 1])
            want = h_pow * D / (widths[q] * below) * frob_sq(mats[q])
            got = pen[q]
            assert got == pytest.approx(want, rel=1e-12), (d, widths, D, q)


def test_penalties_match_flat_inner_products():
    rng = np.random.default_rng(2)
    specs = (act.polynomial((0.0, 0.9, -0.4)), act.polynomial((0.0, 0.8, 0.3)))
    arch = netcore.Architecture(2, (2, 1), specs)
    mats = [rng.uniform(-0.8, 0.8, size=s) for s in arch.layer_shapes()]
    w = netcore.WeightSet(tuple(mats))
    trunc = 4
    g = pf.flatten_metric(arch, trunc)
    gbar = g.like(np.abs(g.values))
    vnn = pf.flat_weight(arch, w, trunc)
    krein = analysis.penalties(arch, w)
    assoc = analysis.penalties(arch.associated(), w)
    assert krein.flat == pytest.approx(pf.flat_inner(g, vnn, vnn), rel=1e-10)
    assert assoc.flat == pytest.approx(pf.flat_inner(gbar, vnn, vnn), rel=1e-10)
    for q in range(arch.depth):
        vq = pf.pushforward_weights(arch, w, q, trunc)
        assert krein.layers[q] == pytest.approx(pf.flat_inner(g, vq, vq), rel=1e-10)
        assert assoc.layers[q] == pytest.approx(pf.flat_inner(gbar, vq, vq), rel=1e-10)


def test_penalties_zero_weights():
    arch = netcore.Architecture(2, (2, 1), (act.tanh(), act.tanh()))
    w = as_weights(np.zeros((2, 2)), np.zeros((1, 2)))
    pen = analysis.penalties(arch, w)
    assert pen.flat == 0.0
    for q in range(2):
        assert pen.layers[q] == 0.0


def test_chain_intervals_hand_computed():
    arch = lin_arch(3, (2, 1))
    w = as_weights([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]], [[2.0, 1.0]])
    got = analysis.penalties(arch, w).intervals
    # layer 0 sees the input dimension (3) seeding deeper chains; layer 1 sees
    # ||W_1||_F^2 * 3 = 15 from its own chain
    assert got == [3.0, 15.0]


def test_chain_intervals_name_the_layer_whose_argument_overflows():
    arch = netcore.Architecture(3, (3, 3, 1), (act.erf(), act.erf(), act.exp()))
    with pytest.raises(DomainError, match="layer 2: .* overflowed to inf") as info:
        analysis.penalties(arch.associated(), netcore.init_weights(arch, 0))
    assert info.value.layer == 2


def test_chain_intervals_cover_penalty_arguments(monkeypatch):
    rng = np.random.default_rng(3)
    arch = netcore.Architecture(2, (3, 1), (act.erf(), act.tanh()))
    mats = [rng.uniform(-0.9, 0.9, size=s) for s in arch.layer_shapes()]
    w = netcore.WeightSet(tuple(mats))
    seen = [0.0] * arch.depth
    chain = kk.chain

    def recording_chain(arch, s, layers=None):
        (k,) = layers  # the walk runs one layer at a time
        seen[k] = max(seen[k], float(np.max(np.abs(s))))
        return chain(arch, s, layers)

    monkeypatch.setattr(kk, "chain", recording_chain)
    sup = analysis.penalties(arch, w).intervals
    assert sup == seen
    assert all(m > 0.0 for m in sup)


def _recorded_chain(arch, s, layers, rec):
    """kk.chain over ``layers``, noting in ``rec`` the largest |argument| each layer sees."""
    out = kk.chain(arch, s, layers=layers)
    for k in layers:
        rec[k] = max(rec[k], float(np.max(np.abs(s))))
        s = kk.chain(arch, s, layers=[k])
        if k != layers[-1]:
            s = s * arch.widths[k]
    return out


def _reference_penalties(arch, weights):
    """The per-q penalty formulas, each chain run from the input on its own."""
    d = arch.depth
    rec = [0.0] * d
    layers = []
    with np.errstate(over="ignore", invalid="ignore"):
        for q in range(d):
            base = _recorded_chain(arch, arch.input_dim, range(q), rec) if q else 1.0
            rows = np.asarray(weights[q], dtype=float)
            args = np.sum(rows * rows, axis=1) * base
            s = np.sum(_recorded_chain(arch, args, [q], rec))
            layers.append(float(_recorded_chain(arch, s, range(q + 1, d), rec)))
        t = None
        for k, w in enumerate(weights):
            sq = np.asarray(w, dtype=float) ** 2
            args = np.sum(sq, axis=1) if k == 0 else sq @ t
            t = _recorded_chain(arch, args, [k], rec)
    for q, m in enumerate(rec):
        if not math.isfinite(m):
            raise DomainError(f"layer {q}: a penalty-chain argument overflowed to {m}", layer=q)
    return layers, float(t[0]), rec


def _outcome(fn, *args):
    """The float bits of every value fn returns, or its DomainError's message, layer and location."""
    try:
        layers, flat, intervals = fn(*args)
    except DomainError as exc:
        return str(exc), exc.layer, exc.location
    return [float(v).hex() for v in (*layers, flat, *intervals)]


@st.composite
def base_specs(draw):
    """An activation of any base kind, polynomial and relu_surrogate with drawn parameters."""
    kind = draw(st.sampled_from(act.BASE_KINDS))
    if kind == "polynomial":
        a0, a1 = draw(st.floats(0.0, 1.0)), draw(st.floats(0.1, 1.5))
        return act.polynomial((a0, a1, *draw(st.lists(st.floats(-1.0, 1.0), max_size=2))))
    if kind == "relu_surrogate":
        return act.relu_surrogate(draw(st.floats(0.01, 2.0)))
    return act.ActivationSpec(kind)


@st.composite
def penalty_nets(draw):
    depth = draw(st.integers(1, 3))
    widths = tuple(draw(st.integers(1, 3)) for _ in range(depth - 1)) + (1,)
    arch = netcore.Architecture(
        draw(st.integers(1, 3)), widths, tuple(draw(base_specs()) for _ in range(depth))
    )
    scale = draw(st.sampled_from((0.3, 1.0, 3.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = netcore.WeightSet(tuple(scale * rng.normal(size=s) for s in arch.layer_shapes()))
    return arch, w


@settings(max_examples=200)
@given(net=penalty_nets(), associated=st.booleans())
def test_penalties_equal_the_per_layer_formulas_bit_for_bit(net, associated):
    arch, w = net
    arch = arch.associated() if associated else arch
    assert _outcome(analysis.penalties, arch, w) == _outcome(_reference_penalties, arch, w)


# ---------------------------------------------------------------------------
# capacity inequalities for admissible families
# ---------------------------------------------------------------------------

def _capacity_sweep(make_spec, lip, seed, draws=30):
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        d = int(rng.integers(1, 4))
        widths = tuple(int(rng.integers(1, 4)) for _ in range(d - 1)) + (1,)
        D = int(rng.integers(1, 4))
        arch = netcore.Architecture(D, widths, tuple(make_spec() for _ in range(d)))
        mats = [rng.uniform(-0.7, 0.7, size=s) for s in arch.layer_shapes()]
        w = netcore.WeightSet(tuple(mats))
        width_gm, _ = netcore.geometric_means(arch)
        hl_pow = (width_gm * lip) ** d
        pen = analysis.penalties(arch, w)
        for q in range(d):
            below = float(D) if q == 0 else float(widths[q - 1])
            cap = hl_pow * D / (widths[q] * below) * frob_sq(mats[q])
            p = pen.layers[q]
            assert 0.0 <= p <= cap * (1 + 1e-12) + 1e-12
        flat = pen.flat
        prod_cap = lip**d * float(np.prod([frob_sq(m) for m in mats]))
        ball_cap = (lip * analysis.weight_ball_radius(arch, w)) ** d
        assert 0.0 <= flat <= prod_cap * (1 + 1e-12) + 1e-12
        assert prod_cap <= ball_cap * (1 + 1e-12) + 1e-12


def test_capacity_inequalities_linear():
    _capacity_sweep(act.linear, 1.0, seed=4)


def test_capacity_inequalities_tanh():
    _capacity_sweep(act.tanh, 1.0, seed=5)


def test_capacity_inequalities_erf():
    _capacity_sweep(act.erf, 2.0 / math.sqrt(math.pi), seed=6)


def test_capacity_inequality_associated_tanh():
    # associated tanh chains only exist for 1-d inputs; interval Lipschitz
    # constants over the recorded chain arguments replace the (missing)
    # global constant of tan
    arch = netcore.Architecture(1, (2, 1), (act.tanh(), act.tanh()))
    w = as_weights([[0.8], [0.6]], [[0.8, 0.6]])
    pen = analysis.penalties(arch.associated(), w)
    width_gm, lbar = netcore.geometric_means(arch.associated(), pen.intervals)
    assert lbar is not None
    d, D, widths = 2, 1.0, (2.0, 1.0)
    hl_pow = (width_gm * lbar) ** d
    for q in range(d):
        below = D if q == 0 else widths[q - 1]
        cap = hl_pow * D / (widths[q] * below) * frob_sq(w[q])
        p = pen.layers[q]
        assert 0.0 <= p <= cap * (1 + 1e-12)


# ---------------------------------------------------------------------------
# ball radii
# ---------------------------------------------------------------------------

def test_weight_ball_radius_values():
    arch = lin_arch(2, (2, 1))
    w = as_weights([[1.0, 1.0], [1.0, 0.0]], [[2.0, 0.0]])
    assert analysis.weight_ball_radius(arch, w) == pytest.approx(3.5)  # (3+4)/2
    assert analysis.weight_ball_radius(arch, w, reg_scale=0.25) == pytest.approx(1.75)


def test_weight_ball_radius_matches_objective_regularizer():
    arch = netcore.Architecture(1, (2, 1), (act.tanh(), act.tanh()))
    w = as_weights([[0.5], [1.0]], [[0.3, -0.2]])
    x = np.array([0.4])
    y = netcore.forward(arch, w, x)  # zero loss by construction
    j = netcore.objective(arch, w, [x], [y], "squared", lam=1.0)
    assert j == pytest.approx(analysis.weight_ball_radius(arch, w), rel=1e-12)


def test_svm_ball_radius_values():
    assert analysis.svm_ball_radius(1.0, 1.0, 3) == 1.0
    assert analysis.svm_ball_radius(2.0, 1.0, 3) == 8.0
    assert analysis.svm_ball_radius(4.0 / math.pi, 1.0, 1) == pytest.approx(
        1.2732395447351625, rel=1e-15
    )
    assert analysis.svm_ball_radius(1.0, 2.0, 2) == 4.0
    with pytest.raises(ValueError):
        analysis.svm_ball_radius(-0.1, 1.0, 2)


def test_svm_ball_radius_monotone_in_radius():
    vals = [analysis.svm_ball_radius(r, 1.3, 3) for r in (0.5, 1.0, 2.0)]
    assert vals[0] < vals[1] < vals[2]


# ---------------------------------------------------------------------------
# Rademacher bounds
# ---------------------------------------------------------------------------

def test_bound_ball_arithmetic():
    assert analysis.rademacher_bound_ball(0.04, 1.0, 1) == pytest.approx(0.2)
    assert analysis.rademacher_bound_ball(0.0, 5.0, 10) == 0.0
    with pytest.raises(ValueError):
        analysis.rademacher_bound_ball(-1.0, 1.0, 1)
    with pytest.raises(ValueError):
        analysis.rademacher_bound_ball(1.0, 1.0, 0)


def test_overflowing_bounds_are_infinite():
    # (L * radius)^depth, (width * L * radius)^depth and radius^depth overflow a
    # float; each bound that holds one is vacuous, never an error or a NaN
    xs = np.array([[0.3, -0.2], [0.1, 0.4]])
    for arch in (lin_arch(2, (2, 1)), netcore.Architecture(2, (2, 1), (act.tanh(), act.tanh()))):
        report = analysis.rademacher_bound_net(arch, 1e308, xs)
        assert report.svm_ball_radius == math.inf
        assert report.bound_kernel_trace == math.inf
        assert report.bound_growth == math.inf
        tight = analysis.tight_bound(arch, 1e308, xs)
        assert tight.general == tight.lipschitz_form == math.inf
    assert report.bound_linear is None
    assert analysis.rademacher_bound_net(lin_arch(2, (2, 1)), 1e308, xs).bound_linear == math.inf


def test_bound_net_linear_frozen_example():
    # geometric width 2 (widths 4 and 1), unit ball, unit-norm inputs, n = 100
    arch = lin_arch(3, (4, 1))
    xs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    report = analysis.rademacher_bound_net(arch, 1.0, xs, n=100)
    assert report.width_gm == pytest.approx(2.0)
    assert report.lipschitz_gm == 1.0
    assert report.svm_ball_radius == 1.0
    assert report.kernel_trace_mean == pytest.approx(4.0, rel=1e-14)
    assert report.bound_kernel_trace == pytest.approx(0.2, rel=1e-14)
    assert report.bound_linear == pytest.approx(0.2, rel=1e-14)
    assert report.bound_growth is not None
    assert report.sample_size == 100


def test_bound_net_zero_radius():
    arch = lin_arch(2, (2, 1))
    xs = np.array([[0.6, 0.8], [1.0, 0.0]])
    report = analysis.rademacher_bound_net(arch, 0.0, xs)
    assert report.bound_kernel_trace == 0.0
    assert report.bound_linear == 0.0
    assert report.weight_ball_radius == 0.0


def test_bound_net_accepts_weight_sets():
    arch = lin_arch(2, (2, 1))
    w = as_weights([[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0]])
    xs = np.array([[0.3, 0.4]])
    report = analysis.rademacher_bound_net(arch, w, xs)
    assert report.weight_ball_radius == pytest.approx(2.0)  # (2 + 2) / 2


def test_bound_net_tanh_report():
    arch = netcore.Architecture(2, (3, 1), (act.tanh(), act.tanh()))
    rng = np.random.default_rng(7)
    xs = rng.uniform(-0.3, 0.3, size=(20, 2))
    report = analysis.rademacher_bound_net(arch, 0.7, xs)
    assert report.empirical_estimate is None
    report.empirical_estimate = 0.01  # the field the CLI fills with its Monte-Carlo estimate
    assert report.lipschitz_gm == 1.0
    assert report.kernel_trace_mean > 0.0
    assert report.bound_kernel_trace > 0.0
    assert report.bound_linear is None
    assert report.bound_growth is not None
    assert report.empirical_estimate == 0.01


def test_bound_net_rejects_unbounded_slope():
    spec = act.associated(act.tanh())  # tan: no global Lipschitz constant
    arch = netcore.Architecture(1, (1,), (spec,))
    with pytest.raises(ValueError, match="Lipschitz"):
        analysis.rademacher_bound_net(arch, 1.0, np.array([[0.2]]))


def test_bound_net_domain_error_carries_sample_index():
    arch = netcore.Architecture(1, (1,), (act.tanh(),))
    xs = np.array([[0.1], [2.0]])  # 4.0 > pi/2 in the tan chain
    with pytest.raises(DomainError) as info:
        analysis.rademacher_bound_net(arch, 1.0, xs)
    assert info.value.location == 1


def test_bound_net_blames_nan_sample_before_inf():
    arch = netcore.Architecture(1, (1,), (act.tanh(),))
    xs = np.array([[0.1], [math.nan], [math.inf]])
    with pytest.raises(DomainError) as info:
        analysis.rademacher_bound_net(arch, 1.0, xs)
    assert info.value.location == 1
    assert info.value.layer == 0


def test_bound_net_sample_validation():
    arch = lin_arch(2, (1,))
    with pytest.raises(ValueError):
        analysis.rademacher_bound_net(arch, 1.0, np.zeros((3, 5)))
    with pytest.raises(ValueError):
        analysis.rademacher_bound_net(arch, 1.0, np.zeros((0, 2)))


# ---------------------------------------------------------------------------
# growth envelope and the tight bounds
# ---------------------------------------------------------------------------

def test_growth_envelope_depth_one():
    arch = netcore.Architecture(3, (1,), (act.tanh(),))
    assert analysis.growth_envelope(arch, 0.3) == pytest.approx(math.tanh(0.3))


def test_growth_envelope_linear_closed_form():
    arch = lin_arch(2, (4, 1))
    for xi in (0.0, 0.7, 2.0):
        assert analysis.growth_envelope(arch, xi) == pytest.approx(4.0 * xi)


def test_growth_envelope_rejects_non_qualifying():
    arch = netcore.Architecture(2, (2, 1), (act.tanh(), act.logistic()))
    with pytest.raises(ValueError, match="layers \\[1\\]"):
        analysis.growth_envelope(arch, 0.5)


def test_a_zero_factor_makes_a_bound_zero_next_to_an_overflowed_one():
    assert analysis.rademacher_bound_ball(0.0, math.inf, 5) == 0.0
    assert analysis.rademacher_bound_ball(math.inf, 0.0, 5) == 0.0
    # squares of the sample overflow, the radius is 0
    huge = np.array([[1e200, 0.0], [0.0, 1e200]])
    with np.errstate(over="ignore"):
        assert analysis.rademacher_bound_net(lin_arch(2, (2, 1)), 0.0, huge).bound_linear == 0.0
    # radius^depth overflows, the sample is all zeros
    zeros = np.zeros((3, 2))
    for arch in (lin_arch(2, (2, 1)), netcore.Architecture(2, (2, 1), (act.tanh(), act.erf()))):
        tight = analysis.tight_bound(arch, 1e308, zeros)
        assert tight.general == tight.lipschitz_form == 0.0


def test_tight_bound_linear_frozen_values():
    arch = lin_arch(3, (4, 1))
    xs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    tb = analysis.tight_bound(arch, 1.0, xs, n=100)
    # envelope(1) = 2 sqrt(4) * 1 = 4 -> general = sqrt(16)/10
    assert tb.general == pytest.approx(0.4, rel=1e-14)
    # (d sqrt(GM(4,1)) L)^d = (2 sqrt(2))^2 = 8
    assert tb.lipschitz_form == pytest.approx(0.8, rel=1e-14)
    assert tb.bounded_form is None
    assert tb.bounded_layer is None


def test_tight_bound_top_bounded_layer_drops_every_factor():
    arch = netcore.Architecture(2, (2, 1), (act.linear(), act.tanh()))
    xs = np.array([[0.6, 0.8], [1.0, 0.0]])
    tb = analysis.tight_bound(arch, 2.0, xs, n=25)
    assert tb.bounded_layer == 1
    # exponent d - q - 1 = 0: only max(1, R^d)/sqrt(n) survives
    assert tb.bounded_form == pytest.approx(4.0 / 5.0, rel=1e-14)


def test_tight_bound_bounded_below_top():
    arch = netcore.Architecture(2, (2, 1), (act.tanh(), act.linear()))
    xs = np.array([[0.6, 0.8]])
    tb = analysis.tight_bound(arch, 1.0, xs, n=4)
    assert tb.bounded_layer == 0
    # tail: one linear layer of width 1 -> (d * 1 * 1)^(d-1) = 2
    assert tb.bounded_form == pytest.approx(2.0 / 2.0, rel=1e-14)


def test_tight_bound_gating_without_global_constants():
    slow = act.polynomial((0.0, 1.0, 0.0, -0.1))  # odd, concave, unbounded slope
    arch = netcore.Architecture(1, (2, 1), (slow, act.tanh()))
    xs = np.array([[0.5], [1.0]])
    tb = analysis.tight_bound(arch, 1.0, xs)
    assert tb.general > 0.0
    assert tb.lipschitz_form is None  # the polynomial layer has no global cap
    assert tb.bounded_layer == 1  # ... but the bounded top needs no tail constants
    assert tb.bounded_form is not None

    arch2 = netcore.Architecture(1, (2, 1), (act.tanh(), slow))
    tb2 = analysis.tight_bound(arch2, 1.0, xs)
    assert tb2.lipschitz_form is None
    assert tb2.bounded_form is None  # the tail above the bounded layer has no cap
    assert tb2.bounded_layer is None


def test_tight_bound_prefactor_keeps_unit_floor():
    arch = netcore.Architecture(1, (1,), (act.tanh(),))
    xs = np.array([[0.5]])
    small = analysis.tight_bound(arch, 0.0, xs, n=16)
    big = analysis.tight_bound(arch, 2.0, xs, n=16)
    assert small.general == pytest.approx(math.tanh(0.5) / 4.0, rel=1e-14)
    assert big.general == pytest.approx(2.0 * math.tanh(0.5) / 4.0, rel=1e-14)


# ---------------------------------------------------------------------------
# empirical Rademacher estimate
# ---------------------------------------------------------------------------

def test_empirical_rademacher_deterministic():
    arch = netcore.Architecture(2, (2, 1), (act.tanh(), act.tanh()))
    rng = np.random.default_rng(8)
    xs = rng.normal(size=(30, 2))
    a = analysis.empirical_rademacher(arch, 0.5, xs, trials=50, hypothesis_draws=50, seed=3)
    b = analysis.empirical_rademacher(arch, 0.5, xs, trials=50, hypothesis_draws=50, seed=3)
    assert a == b
    c = analysis.empirical_rademacher(arch, 0.5, xs, trials=50, hypothesis_draws=50, seed=4)
    assert a != c


def test_empirical_rademacher_zero_radius():
    arch = netcore.Architecture(1, (2, 1), (act.tanh(), act.tanh()))
    xs = np.array([[0.3], [0.9], [-0.4]])
    assert analysis.empirical_rademacher(arch, 0.0, xs, trials=20, hypothesis_draws=20) == 0.0


def test_empirical_rademacher_below_kernel_trace_bound():
    arch = netcore.Architecture(2, (2, 1), (act.tanh(), act.tanh()))
    rng = np.random.default_rng(9)
    # keep ||x||^2 well under the tan-chain domain so the trace exists
    xs = rng.uniform(-0.35, 0.35, size=(50, 2))
    est = analysis.empirical_rademacher(arch, 0.5, xs, trials=100, hypothesis_draws=100)
    report = analysis.rademacher_bound_net(arch, 0.5, xs)
    assert 0.0 < est <= report.bound_kernel_trace


def test_empirical_rademacher_scales_inversely_with_sqrt_n():
    arch = netcore.Architecture(2, (2, 1), (act.tanh(), act.tanh()))
    rng = np.random.default_rng(0)
    vals = {}
    for n in (25, 100, 400):
        xs = rng.normal(size=(n, 2))
        vals[n] = analysis.empirical_rademacher(
            arch, 0.5, xs, trials=150, hypothesis_draws=150, seed=1
        )
    assert 1.4 <= vals[25] / vals[100] <= 2.9  # ideal ratio 2
    assert 1.4 <= vals[100] / vals[400] <= 2.9


def test_empirical_rademacher_validation():
    arch = netcore.Architecture(1, (1,), (act.tanh(),))
    with pytest.raises(ValueError):
        analysis.empirical_rademacher(arch, -1.0, np.array([[0.1]]))



@pytest.mark.parametrize("kwargs", [
    dict(radius=math.nan), dict(radius=math.inf), dict(trials=0), dict(trials=2.5),
    dict(hypothesis_draws=0), dict(hypothesis_draws=-3), dict(trials=True),
])
def test_empirical_rademacher_refuses_bad_radius_and_counts(kwargs):
    arch = netcore.Architecture(1, (1,), (act.tanh(),))
    args = dict(radius=0.5, trials=5, hypothesis_draws=5)
    args.update(kwargs)
    with pytest.raises(ValueError, match="radius|trials|hypothesis_draws"):
        analysis.empirical_rademacher(arch, args.pop("radius"), np.array([[0.1]]), **args)


def _reference_estimate(arch, radius, xs, trials, draws, seed):
    """The estimator as a per-draw, per-trial loop over the same two streams.

    Returns the estimate and the rejections counted by reason.
    """
    pool_rng, sign_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    n = xs.shape[0]
    rows, reasons = {}, {"radius": 0, "domain": 0, "non-finite": 0}
    pending = list(range(draws))
    for _ in range(10):  # first attempts of every draw, then the retries
        rejected = []
        for i in pending:
            weights = netcore.WeightSet(tuple(
                math.sqrt(0.5 * radius / (h * f)) * pool_rng.standard_normal(h * f).reshape(h, f)
                for h, f in arch.layer_shapes()
            ))
            reason = None
            if analysis.weight_ball_radius(arch, weights) > radius:
                reason = "radius"
            else:
                try:
                    with np.errstate(over="ignore", invalid="ignore"):
                        values = netcore.forward_batch(arch, weights, xs)
                except DomainError:
                    reason = "domain"
                else:
                    if not np.all(np.isfinite(values)):
                        reason = "non-finite"
            if reason is None:
                rows[i] = values
            else:
                reasons[reason] += 1
                rejected.append(i)
        pending = rejected
    pool = analysis._exact_grid(np.array([rows[i] for i in sorted(rows)]), n)
    peaks = [
        np.max(np.abs(pool @ (sign_rng.integers(0, 2, size=n) * 2.0 - 1.0)))
        for _ in range(trials)
    ]
    return float(np.mean(peaks)) / n, reasons


# (architecture, radius, input scale, the rejection reason the case exercises)
_MC_CASES = {
    "radius": (netcore.Architecture(2, (2, 1), (act.tanh(), act.erf())), 0.8, 1.0, "radius"),
    "non-finite": (netcore.Architecture(1, (1, 1), (act.exp(), act.exp())), 2000.0, 1.0,
                   "non-finite"),
    # a pole-limited kind that configs cannot name: only Python builds this net
    "domain": (netcore.Architecture(2, (3, 1), (act.ActivationSpec("tan"),) * 2), 6.0, 0.7,
               "domain"),
    "erf-deep": (netcore.Architecture(5, (16, 8, 1), (act.erf(),) * 3), 1.5, 1.0, None),
}


@pytest.mark.parametrize("case", sorted(_MC_CASES))
def test_empirical_rademacher_matches_per_draw_reference(case, monkeypatch):
    arch, radius, scale, reason = _MC_CASES[case]
    xs = np.random.default_rng(11).uniform(-scale, scale, size=(37, arch.input_dim))
    want, reasons = _reference_estimate(arch, radius, xs, 45, 60, seed=5)
    if reason is not None:
        assert reasons[reason] > 0  # the case really takes its rejection path
    got = analysis.empirical_rademacher(arch, radius, xs, trials=45, hypothesis_draws=60, seed=5)
    assert got == want
    # one draw and one trial per block, then every draw and every trial in one block
    for budget in (1, 1 << 26):
        with monkeypatch.context() as mp:
            mp.setattr(analysis, "_BLOCK_BYTES", budget)
            assert analysis.empirical_rademacher(
                arch, radius, xs, trials=45, hypothesis_draws=60, seed=5
            ) == want


def test_hypothesis_block_rejects_only_the_draws_leaving_the_domain():
    arch, radius, scale, _ = _MC_CASES["domain"]
    xs = np.random.default_rng(11).uniform(-scale, scale, size=(37, 2))
    values = analysis._hypothesis_block(arch, radius, xs, np.random.default_rng(2), 12)
    finite = np.isfinite(values).all(axis=1)
    assert finite.any() and not finite.all()
    assert np.isnan(values[~finite]).all()


def test_empirical_rademacher_without_admissible_draw_raises_domain_error():
    arch = netcore.Architecture(1, (1,), (act.ActivationSpec("tan"),))
    with pytest.raises(DomainError, match="no admissible hypothesis"):
        analysis.empirical_rademacher(arch, 1e6, np.array([[100.0]]), trials=3, hypothesis_draws=3)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 300), st.integers(1, 12), st.integers(-300, 300), st.integers(0, 2**32 - 1))
def test_exact_grid_makes_sign_sums_exact(n, rows, exponent, seed):
    rng = np.random.default_rng(seed)
    pool = rng.standard_normal((rows, n)) * 10.0**exponent
    q = analysis._exact_grid(pool.copy(), n)
    peak = np.max(np.abs(pool))
    assert np.max(np.abs(q - pool)) < n * 2.0**-52 * peak
    eps = rng.integers(0, 2, size=(n, 5)) * 2.0 - 1.0
    product = q @ eps
    for j in range(5):
        column = q @ eps[:, j]  # a matrix-vector product, summed in another order
        exact = [math.fsum(row * eps[:, j]) for row in q]
        assert column.tobytes() == product[:, j].tobytes() == np.array(exact).tobytes()


# ---------------------------------------------------------------------------
# sparsity profiles
# ---------------------------------------------------------------------------

def _unit_constants(**over):
    base = dict(width_gm=1.0, lipschitz_assoc_gm=1.0, input_dim=1, weight_ball_radius=1.0)
    base.update(over)
    return analysis.SparsityConstants(**base)


def test_sparsity_zero_weight_vector():
    prof = analysis.sparsity_profile(
        np.array([1.0, -2.0]), np.zeros(2), 2, _unit_constants(), epsilons=(0.5,)
    )
    assert prof.bridge_norm == 0.0
    assert prof.weight_sup == 0.0
    assert prof.epsilon_counts[0][1] == 0


def test_sparsity_depth_two_is_plain_l1():
    g = np.array([1.0, -2.0, 0.5])
    v = np.array([0.5, 0.25, -2.0])
    prof = analysis.sparsity_profile(g, v, 2, _unit_constants(), epsilons=(0.4,))
    assert prof.bridge_norm == pytest.approx(2.0, rel=1e-14)  # sum |g v|
    assert prof.weight_sup == 2.0
    eps, count, cap = prof.epsilon_counts[0]
    assert (eps, count) == (0.4, 3)
    assert cap == math.floor(prof.bridge_bound / 0.4)


def test_sparsity_log_space_handles_tiny_products():
    # |g v| = 1e-400 underflows a direct product; the 2/6 power must survive
    prof = analysis.sparsity_profile(
        np.array([1e-200]), np.array([1e-200]), 6, _unit_constants()
    )
    assert prof.bridge_norm > 0.0
    assert prof.bridge_norm == pytest.approx(10.0 ** (-400.0 / 3.0), rel=1e-10)


def test_sparsity_validation():
    with pytest.raises(ValueError):
        analysis.sparsity_profile(np.ones(2), np.ones(3), 2, _unit_constants())
    with pytest.raises(ValueError):
        analysis.sparsity_profile(np.ones(2), np.ones(2), 0, _unit_constants())
    with pytest.raises(ValueError):
        analysis.sparsity_profile(
            np.ones(1), np.ones(1), 1, _unit_constants(), epsilons=(0.0,)
        )


def test_sparsity_profile_of_admissible_network():
    # per-layer frobenius norm exactly 1 and entries below 1: admissible
    arch = netcore.Architecture(1, (2, 1), (act.tanh(), act.tanh()))
    w = as_weights([[0.8], [0.6]], [[0.8, 0.6]])
    trunc = 7
    g = pf.flatten_metric(arch, trunc)
    v = pf.flat_weight(arch, w, trunc)
    sup = analysis.penalties(arch.associated(), w).intervals
    width_gm, lbar = netcore.geometric_means(arch.associated(), sup)
    constants = analysis.SparsityConstants(
        width_gm=width_gm,
        lipschitz_assoc_gm=lbar,
        input_dim=1,
        weight_ball_radius=analysis.weight_ball_radius(arch, w),
    )
    prof = analysis.sparsity_profile(
        g.values, v.values, arch.depth, constants, epsilons=(1e-3, 1e-2)
    )
    assert 0.0 < prof.bridge_norm <= prof.bridge_bound
    assert prof.weight_sup <= prof.weight_sup_bound * (1 + 1e-12)
    for eps, count, cap in prof.epsilon_counts:
        assert eps <= prof.valid_epsilon_max
        assert count <= cap
