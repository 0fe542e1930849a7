"""Network evaluation, objective, gradients, training, serialization."""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinflat import activations as act
from kreinflat import netcore
from kreinflat.errors import DivergenceError


def lin_arch(input_dim, widths):
    return netcore.Architecture(
        input_dim, tuple(widths), tuple(act.linear() for _ in widths))


def as_weights(*mats):
    return netcore.WeightSet(tuple(np.asarray(m, dtype=float) for m in mats))


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_forward_single_linear_layer():
    arch = lin_arch(1, (1,))
    w = as_weights([[2.0]])
    assert netcore.forward(arch, w, np.array([3.0])) == 6.0


def test_forward_linear_sum():
    arch = lin_arch(2, (2, 1))
    w = as_weights(np.eye(2), [[1.0, 1.0]])
    assert netcore.forward(arch, w, np.array([1.0, 2.0])) == 3.0


def test_forward_nested_tanh():
    arch = netcore.Architecture(1, (1, 1), (act.tanh(), act.tanh()))
    w = as_weights([[0.5]], [[0.5]])
    got = netcore.forward(arch, w, np.array([1.0]))
    assert got == pytest.approx(math.tanh(0.5 * math.tanh(0.5)), rel=1e-14)
    assert got == pytest.approx(0.2270326087174543, rel=1e-12)


def test_all_linear_net_is_a_matrix_product():
    rng = np.random.default_rng(3)
    arch = lin_arch(3, (4, 2, 1))
    w = netcore.init_weights(arch, seed=9)
    total = w[2] @ w[1] @ w[0]
    for _ in range(10):
        x = rng.normal(size=3)
        assert netcore.forward(arch, w, x) == pytest.approx(float((total @ x)[0]), rel=1e-12)


def test_forward_dimension_mismatch():
    arch = lin_arch(2, (1,))
    w = as_weights([[1.0, 1.0]])
    with pytest.raises(ValueError):
        netcore.forward(arch, w, np.array([1.0, 2.0, 3.0]))


def test_forward_batch_matches_loop():
    arch = netcore.Architecture(2, (3, 1), (act.tanh(), act.erf()))
    w = netcore.init_weights(arch, seed=1)
    xs = np.random.default_rng(2).normal(size=(7, 2))
    batch = netcore.forward_batch(arch, w, xs)
    for x, f in zip(xs, batch):
        assert f == pytest.approx(netcore.forward(arch, w, x), rel=1e-14)



def test_forward_batch_stacked_weight_sets_bit_equal_to_each_set():
    arch = netcore.Architecture(3, (16, 8, 1), (act.erf(), act.tanh(), act.erf()))
    sets = [netcore.init_weights(arch, seed=s) for s in range(5)]
    stack = netcore.WeightSet(tuple(np.stack(ws) for ws in zip(*sets)))
    xs = np.random.default_rng(3).normal(size=(40, 3))
    out = netcore.forward_batch(arch, stack, xs)
    assert out.shape == (5, 40)
    for row, w in zip(out, sets):
        assert row.tobytes() == netcore.forward_batch(arch, w, xs).tobytes()


def test_forward_batch_refuses_ragged_stack():
    arch = lin_arch(2, (2, 1))
    ragged = as_weights(np.zeros((3, 2, 2)), np.zeros((4, 1, 2)))
    with pytest.raises(ValueError, match="do not match"):
        netcore.forward_batch(arch, ragged, np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def test_objective_hand_example():
    # one layer, one sample (x=2, y=0), squared loss, lam=1:
    # (1/1) * (0 - 2)^2 + 1 * (1/1) * 1 = 5
    arch = lin_arch(1, (1,))
    w = as_weights([[1.0]])
    xs, ys = np.array([[2.0]]), np.array([0.0])
    assert netcore.objective(arch, w, xs, ys, "squared", 1.0) == pytest.approx(5.0, rel=1e-15)


def test_objective_zero_at_perfect_fit_without_reg():
    arch = lin_arch(2, (1,))
    w = as_weights([[1.0, -1.0]])
    xs, ys = np.array([[1.0, 2.0], [0.5, 0.0]]), np.array([-1.0, 0.5])
    assert netcore.objective(arch, w, xs, ys, "squared", 0.0) == 0.0


def test_objective_zero_weights_zero_targets():
    arch = netcore.Architecture(2, (2, 1), (act.tanh(), act.tanh()))
    w = as_weights(np.zeros((2, 2)), np.zeros((1, 2)))
    xs, ys = np.array([[1.0, 2.0]]), np.array([0.0])
    assert netcore.objective(arch, w, xs, ys, "squared", 3.0) == 0.0


def test_objective_reg_scale_default_is_one_over_depth():
    arch = lin_arch(1, (2, 1))
    w = as_weights([[1.0], [1.0]], [[1.0, 1.0]])
    xs, ys = np.array([[0.0]]), np.array([0.0])
    # ||W0||^2 = 2, ||W1||^2 = 2; scale 1/2 -> reg = lam * 2
    assert netcore.objective(arch, w, xs, ys, "squared", 0.5) == pytest.approx(1.0)
    assert netcore.objective(arch, w, xs, ys, "squared", 0.5, reg_scale=1.0) == pytest.approx(2.0)


def test_objective_duplicate_sample_invariance():
    arch = netcore.Architecture(2, (2, 1), (act.erf(), act.linear()))
    w = netcore.init_weights(arch, seed=5)
    x = np.array([0.3, -0.2])
    one = netcore.objective(arch, w, [x], [1.0], "squared", 0.1)
    two = netcore.objective(arch, w, [x, x], [1.0, 1.0], "squared", 0.1)
    assert one == pytest.approx(two, rel=1e-15)


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------

def _fd_gradient(arch, w, xs, ys, loss, lam, h=1e-6):
    grads = []
    for q in range(arch.depth):
        g = np.zeros_like(w[q])
        for idx in np.ndindex(*w[q].shape):
            def perturbed(delta):
                mats = [m.copy() for m in w]
                mats[q][idx] += delta
                return netcore.objective(arch, netcore.WeightSet(tuple(mats)),
                                         xs, ys, loss, lam)
            g[idx] = (perturbed(h) - perturbed(-h)) / (2 * h)
        grads.append(g)
    return grads


@pytest.mark.parametrize("loss", ["squared", "logistic"])
def test_gradient_matches_finite_differences(loss):
    rng = np.random.default_rng(17)
    for trial in range(6):
        d = int(rng.integers(1, 4))
        widths = [int(rng.integers(1, 4)) for _ in range(d - 1)] + [1]
        input_dim = int(rng.integers(1, 4))
        specs = tuple(rng.choice([act.tanh(), act.erf(),
                                  act.polynomial((0.0, 1.0, 0.2))])
                      for _ in range(d))
        arch = netcore.Architecture(input_dim, tuple(widths), specs)
        w = netcore.init_weights(arch, seed=trial)
        pairs = [(rng.normal(scale=0.5, size=input_dim),
                  float(rng.choice([-1.0, 1.0]))) for _ in range(4)]
        xs, ys = np.array([x for x, _ in pairs]), np.array([y for _, y in pairs])
        lam = 0.05
        got = netcore.gradient(arch, w, xs, ys, loss, lam)
        want = _fd_gradient(arch, w, xs, ys, loss, lam)
        for g, f in zip(got, want):
            np.testing.assert_allclose(g, f, rtol=1e-5, atol=1e-7)


@settings(max_examples=25)
@given(
    st.integers(1, 3),
    st.lists(st.integers(1, 3), max_size=2),
    st.lists(st.sampled_from((act.tanh(), act.erf(), act.logistic(), act.linear(),
                              act.polynomial((0.0, 1.0, 0.2)))), min_size=3, max_size=3),
    st.integers(1, 5),
    st.sampled_from(netcore.LOSSES),
    st.integers(0, 2**32 - 1),
)
def test_batched_gradient_matches_finite_differences(dim, hidden, specs, n, loss, seed):
    widths = tuple(hidden) + (1,)
    arch = netcore.Architecture(dim, widths, tuple(specs[: len(widths)]))
    rng = np.random.default_rng(seed)
    w = netcore.init_weights(arch, seed=seed)
    xs, ys = rng.normal(scale=0.5, size=(n, dim)), rng.choice([-1.0, 1.0], size=n)
    got = netcore.gradient(arch, w, xs, ys, loss, 0.05)
    for g, f in zip(got, _fd_gradient(arch, w, xs, ys, loss, 0.05)):
        np.testing.assert_allclose(g, f, rtol=1e-5, atol=1e-7)


def test_gradient_regularizer_only():
    # zero weights on odd activations zero the data term's pull; with a
    # single sample at y = f(x) = 0 the gradient is the decay term alone
    arch = netcore.Architecture(1, (1,), (act.tanh(),))
    w = as_weights([[0.7]])
    g = netcore.gradient(arch, w, np.array([[0.0]]), np.array([0.0]), "squared", 0.3)
    assert g[0][0, 0] == pytest.approx(2 * 0.3 * 1.0 * 0.7, rel=1e-12)


def test_gradient_duplicate_sample_invariance():
    arch = netcore.Architecture(2, (2, 1), (act.tanh(), act.linear()))
    w = netcore.init_weights(arch, seed=11)
    x = np.array([0.4, 0.1])
    g1 = netcore.gradient(arch, w, [x], [0.5], "squared", 0.1)
    g2 = netcore.gradient(arch, w, [x, x], [0.5, 0.5], "squared", 0.1)
    for a, b in zip(g1, g2):
        np.testing.assert_allclose(a, b, rtol=1e-14)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_train_recovers_least_squares_slope():
    rng = np.random.default_rng(23)
    xs = rng.normal(size=(12, 1))
    slope = 1.7
    ys = slope * xs[:, 0]
    arch = lin_arch(1, (1,))
    w = netcore.train(arch, xs, ys, "squared", 0.0, seed=4, steps=4000, step_size=0.05).weights
    assert w[0][0, 0] == pytest.approx(slope, abs=1e-4)


def test_train_is_deterministic():
    arch = netcore.Architecture(2, (2, 1), (act.tanh(), act.linear()))
    xs, ys = np.array([[0.3, -0.1], [-0.2, 0.4]]), np.array([0.2, -0.1])
    w1 = netcore.train(arch, xs, ys, "squared", 0.01, seed=8, steps=50, step_size=0.1).weights
    w2 = netcore.train(arch, xs, ys, "squared", 0.01, seed=8, steps=50, step_size=0.1).weights
    for a, b in zip(w1, w2):
        assert np.array_equal(a, b)


def test_train_single_step_is_init_minus_scaled_gradient():
    arch = netcore.Architecture(1, (2, 1), (act.erf(), act.linear()))
    xs, ys = np.array([[0.5]]), np.array([1.0])
    init = netcore.init_weights(arch, seed=2)
    g = netcore.gradient(arch, init, xs, ys, "squared", 0.1)
    stepped = netcore.train(arch, xs, ys, "squared", 0.1, seed=2, steps=1, step_size=0.3).weights
    for w0, gq, w1 in zip(init, g, stepped):
        np.testing.assert_allclose(w1, w0 - 0.3 * gq, rtol=1e-12)


def test_train_never_returns_worse_than_init():
    arch = netcore.Architecture(2, (3, 1), (act.tanh(), act.tanh()))
    xs, ys = np.array([[0.4, 0.2], [-0.3, 0.1]]), np.array([0.3, -0.2])
    init = netcore.init_weights(arch, seed=6)
    init_obj = netcore.objective(arch, init, xs, ys, "squared", 0.05)
    # deliberately unstable step size: result must still not exceed init
    w = netcore.train(arch, xs, ys, "squared", 0.05, seed=6, steps=40, step_size=2.5).weights
    assert netcore.objective(arch, w, xs, ys, "squared", 0.05) <= init_obj + 1e-12


def test_train_objective_decreases_with_small_steps():
    arch = lin_arch(1, (1,))
    xs, ys = np.array([[1.0], [2.0]]), np.array([2.0, 4.1])
    init = netcore.init_weights(arch, seed=0)
    before = netcore.objective(arch, init, xs, ys, "squared", 0.0)
    w = netcore.train(arch, xs, ys, "squared", 0.0, seed=0, steps=100, step_size=0.01).weights
    after = netcore.objective(arch, w, xs, ys, "squared", 0.0)
    assert after < before


def test_train_rejects_zero_steps():
    arch = lin_arch(1, (1,))
    with pytest.raises(ValueError):
        netcore.train(arch, np.array([[1.0]]), np.array([1.0]), "squared", 0.0,
                      seed=0, steps=0, step_size=0.1)


def test_train_divergence_is_reported():
    arch = lin_arch(1, (1,))
    with pytest.raises(DivergenceError):
        netcore.train(arch, np.array([[10.0]]), np.array([0.0]), "squared", 0.0,
                      seed=1, steps=400, step_size=10.0)


def _reference_train(arch, xs, ys, loss, lam, seed, steps, step_size, reg_scale=None):
    """The per-step loop that train() replaced: gradient(current), then
    objective(next), each its own forward pass.  Also returns whether the
    best-iterate fallback chose the result."""
    weights = netcore.init_weights(arch, seed)
    init_obj = netcore.objective(arch, weights, xs, ys, loss, lam, reg_scale)
    if not math.isfinite(init_obj):
        raise DivergenceError("objective not finite at initialization")
    best, best_obj = weights, init_obj
    current, current_obj = weights, init_obj
    for _ in range(steps):
        g = netcore.gradient(arch, current, xs, ys, loss, lam, reg_scale)
        mats = tuple(w - step_size * gw for w, gw in zip(current, g))
        if any(not np.all(np.isfinite(m)) for m in mats):
            raise DivergenceError("weights became non-finite during descent")
        current = netcore.WeightSet(mats)
        current_obj = netcore.objective(arch, current, xs, ys, loss, lam, reg_scale)
        if not math.isfinite(current_obj):
            raise DivergenceError("objective became non-finite during descent")
        if current_obj < best_obj:
            best, best_obj = current, current_obj
    fallback = current_obj > init_obj
    return (best if fallback else current), fallback


_TRAIN_CASES = [
    # (arch, seed, loss, lam, steps, step_size, reg_scale, fallback)
    (netcore.Architecture(2, (3, 1), (act.tanh(), act.tanh())), 6, "squared", 0.05, 40, 2.5,
     None, False),
    (netcore.Architecture(2, (3, 1), (act.tanh(), act.tanh())), 6, "squared", 0.05, 7, 10.0,
     None, True),  # falls back to a middle iterate
    (netcore.Architecture(2, (3, 1), (act.tanh(), act.tanh())), 6, "squared", 0.05, 40, 20.0,
     None, True),  # falls back to the initial weights
    (netcore.Architecture(3, (4, 2, 1), (act.erf(), act.tanh(), act.linear())), 3, "logistic",
     0.01, 30, 0.2, None, False),
    (netcore.Architecture(1, (2, 1), (act.polynomial((0.0, 1.0, 0.3)), act.logistic())), 9,
     "squared", 0.1, 25, 0.1, 0.5, False),
    (netcore.Architecture(4, (1,), (act.erf(),)), 2, "logistic", 0.0, 1, 0.5, None, False),
    (netcore.Architecture(5, (16, 8, 1), (act.erf(), act.erf(), act.erf())), 1, "squared", 0.01,
     20, 0.05, None, False),
]


@pytest.mark.parametrize("case", range(len(_TRAIN_CASES)))
def test_train_equals_reference_loop_bitwise(case):
    arch, seed, loss, lam, steps, step_size, reg_scale, fallback = _TRAIN_CASES[case]
    rng = np.random.default_rng(100 + case)
    xs = rng.uniform(-0.5, 0.5, size=(int(rng.integers(2, 12)), arch.input_dim))
    ys = np.sign(rng.normal(size=xs.shape[0])) if loss == "logistic" else np.tanh(xs[:, 0])
    if case <= 2:  # the data of test_train_never_returns_worse_than_init
        xs, ys = np.array([[0.4, 0.2], [-0.3, 0.1]]), np.array([0.3, -0.2])
    want, fell_back = _reference_train(arch, xs, ys, loss, lam, seed, steps, step_size, reg_scale)
    assert fell_back == fallback
    got = netcore.train(arch, xs, ys, loss, lam, seed, steps, step_size, reg_scale)
    for a, b in zip(got.weights, want):
        assert a.tobytes() == b.tobytes()
    # the objectives and outputs train returns are those its callers would recompute
    init = netcore.init_weights(arch, seed)
    assert got.initial_objective == netcore.objective(arch, init, xs, ys, loss, lam, reg_scale)
    assert got.final_objective == netcore.objective(arch, want, xs, ys, loss, lam, reg_scale)
    assert got.predictions.tobytes() == netcore.forward_batch(arch, want, xs).tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("x, steps, step_size, message", [
    (10.0, 400, 10.0, "objective became non-finite"),
    (10.0, 3, 1e307, "weights became non-finite"),
])
def test_train_diverges_where_reference_loop_does(x, steps, step_size, message):
    arch = lin_arch(1, (1,))
    xs, ys = np.array([[x]]), np.array([0.0])
    with pytest.raises(DivergenceError) as want:
        _reference_train(arch, xs, ys, "squared", 0.0, 1, steps, step_size)
    with pytest.raises(DivergenceError) as got:
        netcore.train(arch, xs, ys, "squared", 0.0, 1, steps, step_size)
    assert str(got.value) == str(want.value)
    assert message in str(got.value)


def test_train_takes_one_forward_pass_per_step(monkeypatch):
    calls = []
    layers = netcore._layers
    monkeypatch.setattr(netcore, "_layers", lambda *a: calls.append(1) or layers(*a))
    arch = netcore.Architecture(2, (3, 1), (act.tanh(), act.erf()))
    xs, ys = np.array([[0.4, 0.2], [-0.3, 0.1], [0.1, 0.0]]), np.array([0.3, -0.2, 0.1])
    netcore.train(arch, xs, ys, "squared", 0.05, seed=1, steps=9, step_size=0.1)
    assert len(calls) == 10  # the initial iterate and one per step


@pytest.mark.parametrize("xs, ys", [
    (np.zeros((0, 2)), np.zeros(0)),
    (np.zeros((3, 2)), np.zeros(2)),
    (np.zeros((3, 2)), np.zeros((3, 1))),
])
def test_objective_and_gradient_reject_mismatched_targets(xs, ys):
    arch = netcore.Architecture(2, (1,), (act.tanh(),))
    w = netcore.init_weights(arch, seed=0)
    for fn in (netcore.objective, netcore.gradient):
        with pytest.raises(ValueError, match="targets"):
            fn(arch, w, xs, ys, "squared", 0.1)


# ---------------------------------------------------------------------------
# geometric means
# ---------------------------------------------------------------------------

def test_width_mean_includes_output_layer():
    arch = lin_arch(3, (4, 1))
    h, l = netcore.geometric_means(arch)
    _, lbar = netcore.geometric_means(arch.associated())
    assert h == pytest.approx(2.0, rel=1e-15)
    assert l == 1.0 and lbar == 1.0


def test_lipschitz_means_tanh_global():
    arch = netcore.Architecture(1, (2, 1), (act.tanh(), act.tanh()))
    h, l = netcore.geometric_means(arch)
    _, lbar = netcore.geometric_means(arch.associated())
    assert l == pytest.approx(1.0)
    assert lbar is None  # tan side has no global constant


def test_lipschitz_means_on_finite_intervals():
    arch = netcore.Architecture(1, (2, 1), (act.tanh(), act.tanh()))
    h, lbar = netcore.geometric_means(arch.associated(), [0.5, 0.5])
    assert lbar is not None
    # GM of two identical interval constants is the constant itself
    single = act.lipschitz_on(act.associated(act.tanh()), 0.5)
    assert lbar == pytest.approx(single, rel=1e-12)


def test_interval_count_must_match_depth():
    arch = lin_arch(1, (2, 1))
    with pytest.raises(ValueError):
        netcore.geometric_means(arch, [1.0])


# ---------------------------------------------------------------------------
# architecture / weight validation and serialization
# ---------------------------------------------------------------------------

def test_architecture_requires_output_width_one():
    with pytest.raises(ValueError):
        lin_arch(2, (3, 2))


ALL_KINDS = (
    act.linear(), act.polynomial((0.1, 0.5, -0.2)), act.erf(), act.tanh(), act.logistic(),
    act.exp(), act.relu_surrogate(0.3),
)


def test_associated_architecture_keeps_shape_and_maps_every_layer():
    arch = netcore.Architecture(3, (2,) * 6 + (1,), ALL_KINDS)
    assoc = arch.associated()
    assert assoc.input_dim == arch.input_dim and assoc.widths == arch.widths
    assert assoc.activations == tuple(act.associated(s) for s in ALL_KINDS)
    assert assoc.associated() == assoc
    assert arch.associated() == assoc  # arch itself is unchanged


def test_check_shapes_mismatch():
    arch = lin_arch(2, (2, 1))
    bad = as_weights(np.zeros((2, 2)), np.zeros((1, 3)))
    with pytest.raises(ValueError):
        netcore.check_shapes(arch, bad)


def test_init_weights_shapes_and_determinism():
    arch = netcore.Architecture(3, (4, 2, 1), (act.tanh(), act.tanh(), act.linear()))
    w = netcore.init_weights(arch, seed=13)
    assert [m.shape for m in w] == [(4, 3), (2, 4), (1, 2)]
    w2 = netcore.init_weights(arch, seed=13)
    for a, b in zip(w, w2):
        assert np.array_equal(a, b)


# values whose text is easy to get wrong: signed zeros, infinities, NaNs of
# either sign and another payload, the smallest and largest subnormals
_SPECIAL_BITS = np.array(
    [0, 1 << 63, 0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000,
     0xFFF8000000000000, 0x7FF8000000000001, 1, 0x000FFFFFFFFFFFFF, 0x800FFFFFFFFFFFFF],
    dtype=np.uint64,
).view(float)


@given(
    st.lists(st.one_of(st.sampled_from(_SPECIAL_BITS.tolist()), st.floats()), max_size=30),
    st.integers(1, 3),
    st.randoms(use_true_random=False),
)
def test_exact_text_is_the_per_value_format(values, copies, rnd):
    values = values * copies  # repeats, in shuffled order
    rnd.shuffle(values)
    arr = np.array(values, dtype=float)
    assert netcore.exact_text(arr).tolist() == ["%.17g" % v for v in values]
    if values:
        grid = arr.reshape(copies, -1)
        assert netcore.text_rows(grid, ",") == [
            ",".join("%.17g" % v for v in row) for row in grid.tolist()
        ]


def test_exact_text_keeps_the_shape():
    assert netcore.exact_text(-0.0).shape == ()
    assert netcore.exact_text(-0.0).item() == "-0"
    assert netcore.exact_text(np.zeros((2, 0))).shape == (2, 0)
    assert netcore.text_rows(np.zeros((1, 0))) == [""]


def test_weight_roundtrip_is_exact(tmp_path):
    arch = netcore.Architecture(2, (3, 1), (act.erf(), act.linear()))
    w = netcore.init_weights(arch, seed=21)
    path = tmp_path / "w.txt"
    netcore.save_weights(path, w)
    back = netcore.load_weights(path)
    assert len(back) == len(w)
    for a, b in zip(w, back):
        assert np.array_equal(a, b)


_finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@given(
    st.integers(1, 4),
    st.lists(st.integers(1, 4), max_size=2),
    st.data(),
)
def test_weight_roundtrip_keeps_every_float(dim, hidden, data):
    arch = lin_arch(dim, tuple(hidden) + (1,))
    mats = [np.array(data.draw(st.lists(_finite_floats, min_size=h * f, max_size=h * f)),
                     dtype=float).reshape(h, f) for h, f in arch.layer_shapes()]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "w.txt")
        netcore.save_weights(path, netcore.WeightSet(tuple(mats)))
        back = netcore.load_weights(path)
    assert [m.shape for m in back] == arch.layer_shapes()
    for a, b in zip(mats, back):
        assert a.tobytes() == b.tobytes()  # also tells -0.0 from 0.0


@pytest.mark.parametrize("text, message", [
    ("1\n1 2\n0.5 nan\n", "line 3: values must be finite"),
    ("2\n1 2\n0.5 0.25\n\n1 1\n-inf\n", "line 6: values must be finite"),
    ("1\n1 2\n0.5 0.25 1.0\n", "line 3: expected 2 values, got 3"),
    ("1\n2 2\n0.5 0.25\n", "line 2: header says 2 rows, file has 1"),
    ("1\n1 2\n0.5 x\n", "line 3: could not convert"),
    ("", "the file holds no layer count"),
    ("\n\n", "the file holds no layer count"),
    ("2\n1 1\n0.5\n", "line 3: the file ends after 1 of 2 layers"),
    ("3\n\n", "line 1: the file ends after 0 of 3 layers"),
])
def test_load_weights_names_the_bad_line(tmp_path, text, message):
    path = tmp_path / "w.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        netcore.load_weights(path)
