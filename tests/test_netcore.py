"""Network evaluation, objective, gradients, training, serialization."""

import math

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


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def test_objective_hand_example():
    # one layer, one sample (x=2, y=0), squared loss, lam=1:
    # (1/1) * (0 - 2)^2 + 1 * (1/1) * 1 = 5
    arch = lin_arch(1, (1,))
    w = as_weights([[1.0]])
    data = [(np.array([2.0]), 0.0)]
    assert netcore.objective(arch, w, data, "squared", 1.0) == pytest.approx(5.0, rel=1e-15)


def test_objective_zero_at_perfect_fit_without_reg():
    arch = lin_arch(2, (1,))
    w = as_weights([[1.0, -1.0]])
    data = [(np.array([1.0, 2.0]), -1.0), (np.array([0.5, 0.0]), 0.5)]
    assert netcore.objective(arch, w, data, "squared", 0.0) == 0.0


def test_objective_zero_weights_zero_targets():
    arch = netcore.Architecture(2, (2, 1), (act.tanh(), act.tanh()))
    w = as_weights(np.zeros((2, 2)), np.zeros((1, 2)))
    data = [(np.array([1.0, 2.0]), 0.0)]
    assert netcore.objective(arch, w, data, "squared", 3.0) == 0.0


def test_objective_reg_scale_default_is_one_over_depth():
    arch = lin_arch(1, (2, 1))
    w = as_weights([[1.0], [1.0]], [[1.0, 1.0]])
    data = [(np.array([0.0]), 0.0)]
    # ||W0||^2 = 2, ||W1||^2 = 2; scale 1/2 -> reg = lam * 2
    assert netcore.objective(arch, w, data, "squared", 0.5) == pytest.approx(1.0)
    assert netcore.objective(arch, w, data, "squared", 0.5, reg_scale=1.0) == pytest.approx(2.0)


def test_objective_duplicate_sample_invariance():
    arch = netcore.Architecture(2, (2, 1), (act.erf(), act.linear()))
    w = netcore.init_weights(arch, seed=5)
    x = np.array([0.3, -0.2])
    one = netcore.objective(arch, w, [(x, 1.0)], "squared", 0.1)
    two = netcore.objective(arch, w, [(x, 1.0), (x, 1.0)], "squared", 0.1)
    assert one == pytest.approx(two, rel=1e-15)


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------

def _fd_gradient(arch, w, data, loss, lam, h=1e-6):
    grads = []
    for q in range(arch.depth):
        g = np.zeros_like(w[q])
        for idx in np.ndindex(*w[q].shape):
            def perturbed(delta):
                mats = [m.copy() for m in w]
                mats[q][idx] += delta
                return netcore.objective(arch, netcore.WeightSet(tuple(mats)),
                                         data, loss, lam)
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
        data = [(rng.normal(scale=0.5, size=input_dim),
                 float(rng.choice([-1.0, 1.0]))) for _ in range(4)]
        lam = 0.05
        got = netcore.gradient(arch, w, data, loss, lam)
        want = _fd_gradient(arch, w, data, loss, lam)
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
    data = list(zip(rng.normal(scale=0.5, size=(n, dim)), rng.choice([-1.0, 1.0], size=n)))
    got = netcore.gradient(arch, w, data, loss, 0.05)
    for g, f in zip(got, _fd_gradient(arch, w, data, loss, 0.05)):
        np.testing.assert_allclose(g, f, rtol=1e-5, atol=1e-7)


def test_gradient_regularizer_only():
    # zero weights on odd activations zero the data term's pull; with a
    # single sample at y = f(x) = 0 the gradient is the decay term alone
    arch = netcore.Architecture(1, (1,), (act.tanh(),))
    w = as_weights([[0.7]])
    data = [(np.array([0.0]), 0.0)]
    g = netcore.gradient(arch, w, data, "squared", 0.3)
    assert g[0][0, 0] == pytest.approx(2 * 0.3 * 1.0 * 0.7, rel=1e-12)


def test_gradient_duplicate_sample_invariance():
    arch = netcore.Architecture(2, (2, 1), (act.tanh(), act.linear()))
    w = netcore.init_weights(arch, seed=11)
    x = np.array([0.4, 0.1])
    g1 = netcore.gradient(arch, w, [(x, 0.5)], "squared", 0.1)
    g2 = netcore.gradient(arch, w, [(x, 0.5), (x, 0.5)], "squared", 0.1)
    for a, b in zip(g1, g2):
        np.testing.assert_allclose(a, b, rtol=1e-14)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_train_recovers_least_squares_slope():
    rng = np.random.default_rng(23)
    xs = rng.normal(size=12)
    slope = 1.7
    ys = slope * xs
    data = [(np.array([x]), y) for x, y in zip(xs, ys)]
    arch = lin_arch(1, (1,))
    w = netcore.train(arch, data, "squared", 0.0, seed=4, steps=4000, step_size=0.05)
    assert w[0][0, 0] == pytest.approx(slope, abs=1e-4)


def test_train_is_deterministic():
    arch = netcore.Architecture(2, (2, 1), (act.tanh(), act.linear()))
    data = [(np.array([0.3, -0.1]), 0.2), (np.array([-0.2, 0.4]), -0.1)]
    w1 = netcore.train(arch, data, "squared", 0.01, seed=8, steps=50, step_size=0.1)
    w2 = netcore.train(arch, data, "squared", 0.01, seed=8, steps=50, step_size=0.1)
    for a, b in zip(w1, w2):
        assert np.array_equal(a, b)


def test_train_single_step_is_init_minus_scaled_gradient():
    arch = netcore.Architecture(1, (2, 1), (act.erf(), act.linear()))
    data = [(np.array([0.5]), 1.0)]
    init = netcore.init_weights(arch, seed=2)
    g = netcore.gradient(arch, init, data, "squared", 0.1)
    stepped = netcore.train(arch, data, "squared", 0.1, seed=2, steps=1, step_size=0.3)
    for w0, gq, w1 in zip(init, g, stepped):
        np.testing.assert_allclose(w1, w0 - 0.3 * gq, rtol=1e-12)


def test_train_never_returns_worse_than_init():
    arch = netcore.Architecture(2, (3, 1), (act.tanh(), act.tanh()))
    data = [(np.array([0.4, 0.2]), 0.3), (np.array([-0.3, 0.1]), -0.2)]
    init = netcore.init_weights(arch, seed=6)
    init_obj = netcore.objective(arch, init, data, "squared", 0.05)
    # deliberately unstable step size: result must still not exceed init
    w = netcore.train(arch, data, "squared", 0.05, seed=6, steps=40, step_size=2.5)
    assert netcore.objective(arch, w, data, "squared", 0.05) <= init_obj + 1e-12


def test_train_objective_decreases_with_small_steps():
    arch = lin_arch(1, (1,))
    data = [(np.array([1.0]), 2.0), (np.array([2.0]), 4.1)]
    init = netcore.init_weights(arch, seed=0)
    before = netcore.objective(arch, init, data, "squared", 0.0)
    w = netcore.train(arch, data, "squared", 0.0, seed=0, steps=100, step_size=0.01)
    after = netcore.objective(arch, w, data, "squared", 0.0)
    assert after < before


def test_train_rejects_zero_steps():
    arch = lin_arch(1, (1,))
    data = [(np.array([1.0]), 1.0)]
    with pytest.raises(ValueError):
        netcore.train(arch, data, "squared", 0.0, seed=0, steps=0, step_size=0.1)


def test_train_divergence_is_reported():
    arch = lin_arch(1, (1,))
    data = [(np.array([10.0]), 0.0)]
    with pytest.raises(DivergenceError):
        netcore.train(arch, data, "squared", 0.0, seed=1, steps=400, step_size=10.0)


# ---------------------------------------------------------------------------
# geometric means
# ---------------------------------------------------------------------------

def test_width_mean_includes_output_layer():
    arch = lin_arch(3, (4, 1))
    h, l, lbar = netcore.geometric_means(arch)
    assert h == pytest.approx(2.0, rel=1e-15)
    assert l == 1.0 and lbar == 1.0


def test_lipschitz_means_tanh_global():
    arch = netcore.Architecture(1, (2, 1), (act.tanh(), act.tanh()))
    h, l, lbar = netcore.geometric_means(arch)
    assert l == pytest.approx(1.0)
    assert lbar is None  # tan side has no global constant


def test_lipschitz_means_on_finite_intervals():
    arch = netcore.Architecture(1, (2, 1), (act.tanh(), act.tanh()))
    h, l, lbar = netcore.geometric_means(arch, [0.5, 0.5])
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


def test_weight_roundtrip_is_exact(tmp_path):
    arch = netcore.Architecture(2, (3, 1), (act.erf(), act.linear()))
    w = netcore.init_weights(arch, seed=21)
    path = tmp_path / "w.txt"
    netcore.save_weights(path, w)
    back = netcore.load_weights(path)
    assert len(back) == len(w)
    for a, b in zip(w, back):
        assert np.array_equal(a, b)
