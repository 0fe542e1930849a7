"""Stabilized kernel machines: exact solver, descent path, model files."""

import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from kreinflat import activations as act
from kreinflat import kreinkernel as kk
from kreinflat import ksvm
from kreinflat import netcore
from kreinflat.errors import DivergenceError, InputError, NearSingularError


def _fd_objective_gradient(alpha, gram, y, lam, loss, h=1e-6):
    out = np.zeros_like(alpha)
    for i in range(len(alpha)):
        up = alpha.copy()
        dn = alpha.copy()
        up[i] += h
        dn[i] -= h
        fu = ksvm.stabilized_objective(up, gram, y, lam, loss).total
        fd = ksvm.stabilized_objective(dn, gram, y, lam, loss).total
        out[i] = (fu - fd) / (2 * h)
    return out


# ---------------------------------------------------------------------------
# the exact solver: an eigenvalue guard, then an LU solve
# ---------------------------------------------------------------------------

def test_single_sample_closed_form():
    alpha, res = ksvm.train_squared(np.array([[2.0]]), np.array([3.0]), 0.5)
    assert alpha[0] == pytest.approx(3.0 / 2.5, rel=1e-14)
    assert res <= 1e-12


def test_identity_gram_two_samples():
    y = np.array([1.0, -2.0])
    alpha, _ = ksvm.train_squared(np.eye(2), y, 1.0)
    np.testing.assert_allclose(alpha, y / 3.0, rtol=1e-14)


def test_zero_targets_zero_solution():
    G = np.array([[1.0, 0.3], [0.3, -0.5]])
    alpha, res = ksvm.train_squared(G, np.zeros(2), 0.7)
    assert np.all(alpha == 0.0)
    assert res == 0.0


def test_solution_linear_in_targets():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(5, 5))
    G = 0.5 * (A + A.T)
    y1 = rng.normal(size=5)
    y2 = rng.normal(size=5)
    a1, _ = ksvm.train_squared(G, y1, 0.9)
    a2, _ = ksvm.train_squared(G, y2, 0.9)
    a12, _ = ksvm.train_squared(G, 2.0 * y1 + y2, 0.9)
    np.testing.assert_allclose(a12, 2.0 * a1 + a2, rtol=1e-10, atol=1e-12)


def test_indefinite_gram_is_fine_when_shift_clears():
    G = np.diag([2.0, -1.0])
    alpha, res = ksvm.train_squared(G, np.array([1.0, 1.0]), 1.0)
    # G + 2 I = diag(4, 1)
    np.testing.assert_allclose(alpha, [0.25, 1.0], rtol=1e-14)
    assert res <= 1e-13


def test_near_singular_shift_raises():
    G = np.diag([2.0, -1.0])
    with pytest.raises(NearSingularError):
        ksvm.train_squared(G, np.array([1.0, 1.0]), 0.5)  # -1 + 0.5*2 = 0


def test_stationarity_random_indefinite():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        A = rng.normal(size=(n, n))
        G = 0.5 * (A + A.T)
        y = rng.normal(size=n)
        lam = float(rng.uniform(0.3, 2.0))
        try:
            alpha, _ = ksvm.train_squared(G, y, lam)
        except NearSingularError:
            continue
        g = ksvm.objective_gradient(alpha, G, y, lam)
        assert np.linalg.norm(g) <= 1e-8 * (1.0 + np.linalg.norm(y))


def test_stationarity_network_gram():
    arch = netcore.Architecture(2, (2, 1), (act.tanh(), act.tanh()))
    defn = kk.KernelDefinition(arch)
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(8, 2))
    G = kk.gram(defn, pts)
    assert np.linalg.eigvalsh(G).min() < 0  # genuinely indefinite instance
    y = rng.normal(size=8)
    alpha, res = ksvm.train_squared(G, y, 0.8)
    assert res <= 1e-10 * (1.0 + np.linalg.norm(y))
    g = ksvm.objective_gradient(alpha, G, y, 0.8)
    assert np.linalg.norm(g) <= 1e-10 * (1.0 + np.linalg.norm(y))


def test_train_squared_validation():
    with pytest.raises(ValueError):
        ksvm.train_squared(np.eye(2), np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        ksvm.train_squared(np.eye(2), np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        ksvm.train_squared(np.ones((2, 3)), np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        ksvm.train_squared(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2), 1.0)


def _eigh_solve(gram, y, lam):
    """The solve train_squared made before its LU solve: a full eigendecomposition
    of the symmetric part, eigenvectors included."""
    w, vecs = np.linalg.eigh(0.5 * (gram + gram.T))
    return vecs @ ((vecs.T @ y) / (w + lam * len(y)))


@given(
    n=st.integers(2, 60),
    kind=st.sampled_from(["random", "erf", "tanh"]),
    lam=st.floats(0.01, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_lu_solve_matches_the_eigendecomposition_solve(n, kind, lam, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":  # symmetric, indefinite for almost every draw
        raw = rng.normal(size=(n, n))
        gram = (raw + raw.T) / 2.0
    else:
        spec = act.erf() if kind == "erf" else act.tanh()
        arch = netcore.Architecture(2, (2, 1), (spec, spec))
        gram = kk.gram(kk.KernelDefinition(arch), rng.uniform(-0.6, 0.6, size=(n, 2)))
    y = rng.normal(size=n)
    system = gram + lam * n * np.eye(n)
    assume(np.linalg.cond(system) < 1e6)
    want = _eigh_solve(gram, y, lam)
    alpha, residual = ksvm.train_squared(gram, y, lam)
    assert np.linalg.norm(alpha - want) <= 1e-9 * np.linalg.norm(want)
    budget = 1e-10 * (1.0 + np.linalg.norm(y))  # criterion 05's
    assert residual <= budget
    assert np.linalg.norm(system @ want - y) <= budget


@given(n=st.integers(2, 30), lam=st.floats(0.05, 2.0), seed=st.integers(0, 2**32 - 1))
def test_eigenvalue_at_minus_lam_n_raises_near_singular(n, lam, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    w = rng.uniform(-2.0, 2.0, size=n) * n
    w[rng.integers(n)] = -lam * n
    gram = (q * w) @ q.T
    gram = (gram + gram.T) / 2.0
    y = rng.normal(size=n)
    with pytest.raises(NearSingularError):
        ksvm.train_squared(gram, y, lam)
    with pytest.raises(NearSingularError):
        ksvm.train_squared(gram, y, lam, np.linalg.eigvalsh(gram))


def test_given_eigenvalues_guard_the_solve():
    G = np.diag([2.0, -0.5])
    y = np.array([1.0, 1.0])
    alpha = ksvm.train_squared(G, y, 0.5, np.linalg.eigvalsh(G)).alpha
    assert alpha.tobytes() == ksvm.train_squared(G, y, 0.5).alpha.tobytes()
    # the guard reads the eigenvalues it is given, not the matrix
    with pytest.raises(NearSingularError):
        ksvm.train_squared(G, y, 0.5, np.array([-1.0, 2.0]))


def _identity_sum_solve(gram, y, lam):
    """The solve as train_squared formed it before: G + lam*N*np.eye(N)."""
    n = gram.shape[0]
    system = gram + lam * n * np.eye(n)
    alpha = np.linalg.solve(system, y)
    return alpha, float(np.linalg.norm(system @ alpha - y))


_ENTRIES = st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0, 1.0, -1.0])


@given(n=st.integers(1, 6), lam=st.floats(0.01, 5.0), data=st.data())
def test_diagonal_shift_solves_bit_equal_to_the_identity_sum(n, lam, data):
    # signed zeros included: the reference sum turns an off-diagonal -0.0 into 0.0
    gram = np.array(data.draw(st.lists(_ENTRIES, min_size=n * n, max_size=n * n))).reshape(n, n)
    lower = np.tril_indices(n, -1)
    gram[lower] = gram.T[lower]
    y = np.array(data.draw(st.lists(_ENTRIES, min_size=n, max_size=n)))
    try:
        alpha, residual = ksvm.train_squared(gram, y, lam)
    except NearSingularError:
        assume(False)
    want_alpha, want_residual = _identity_sum_solve(gram, y, lam)
    assert alpha.tobytes() == want_alpha.tobytes()
    assert residual == want_residual


def test_diagonal_shift_on_a_gram_with_negative_zeros():
    gram = np.array([[2.0, -0.0, 0.5], [-0.0, 1.0, -0.0], [0.5, -0.0, -3.0]])
    for y in (np.zeros(3), np.array([0.5, -0.0, 0.25])):
        alpha, residual = ksvm.train_squared(gram, y, 0.3)
        want_alpha, want_residual = _identity_sum_solve(gram, y, 0.3)
        assert alpha.tobytes() == want_alpha.tobytes()
        assert residual == want_residual


# ---------------------------------------------------------------------------
# system validation: a bit-symmetric Gram skips the tolerance test
# ---------------------------------------------------------------------------

def _allclose_symmetric(gram):
    """The symmetry test _check_system ran on every Gram before, kept as the reference."""
    atol = 1e-12 * max(1.0, float(np.abs(gram).max(initial=0.0)))
    return bool(np.allclose(gram, gram.T, rtol=0.0, atol=atol))


def _accepts(gram):
    try:
        ksvm._check_system(gram, np.zeros(gram.shape[0]))
    except ValueError:
        return False
    return True


_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0]


_INF_ATOL = "ignore:One of rtol or atol is not valid"  # allclose's note on an inf tolerance


@pytest.mark.filterwarnings(_INF_ATOL)
@given(n=st.integers(1, 5), data=st.data())
def test_check_system_accepts_exactly_what_the_tolerance_test_accepted(n, data):
    values = data.draw(st.lists(
        st.floats(-1e300, 1e300) | st.sampled_from(_SPECIAL), min_size=n * n, max_size=n * n
    ))
    gram = np.array(values).reshape(n, n)
    lower = np.tril_indices(n, -1)
    gram[lower] = gram.T[lower]  # bit-symmetric, apart from NaN != NaN
    if n > 1:
        i, j = data.draw(st.permutations(range(n)))[:2]
        change = data.draw(st.sampled_from(
            ["none", "atol 0.5", "atol 1", "atol 2", "zero pair", "inf pair", "nan", "inf"]
        ))
        if change.startswith("atol"):
            atol = 1e-12 * max(1.0, float(np.abs(gram).max(initial=0.0)))
            gram[i, j] = gram[j, i] + float(change.split()[1]) * atol
        elif change == "zero pair":
            gram[i, j], gram[j, i] = 0.0, -0.0
        elif change == "inf pair":
            gram[i, j] = gram[j, i] = data.draw(st.sampled_from([math.inf, -math.inf]))
        elif change != "none":
            gram[i, j] = math.nan if change == "nan" else math.inf
    # a non-finite Gram is refused before the tolerance test runs
    assert _accepts(gram) == (_allclose_symmetric(gram) and bool(np.isfinite(gram).all()))


@pytest.mark.filterwarnings(_INF_ATOL)
@pytest.mark.parametrize("gram, accepted", [
    ([[1.0, 0.0], [-0.0, 2.0]], True),
    ([[1.0, math.inf], [math.inf, 2.0]], True),
    ([[1.0, math.inf], [-math.inf, 2.0]], False),
    ([[1.0, math.nan], [math.nan, 2.0]], False),
    ([[math.nan, 0.5], [0.5, 2.0]], False),
    ([[1.0, 0.5 + 4e-13], [0.5, 2.0]], True),
    ([[1.0, 0.5 + 4e-12], [0.5, 2.0]], False),
])
def test_check_system_edge_cases(gram, accepted):
    # ``accepted`` is the tolerance test's verdict; a non-finite Gram is refused anyway
    gram = np.array(gram)
    assert accepted is _allclose_symmetric(gram)
    assert _accepts(gram) is (accepted and bool(np.isfinite(gram).all()))


def test_check_system_refuses_a_non_finite_gram_before_its_tolerance():
    # the inf made the tolerance 1e-12 * max|G| infinite, so this asymmetric Gram passed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="gram must be finite"):
            ksvm._check_system(np.array([[math.inf, 1.0], [5.0, 1.0]]), np.zeros(2))


# ---------------------------------------------------------------------------
# objective and gradient
# ---------------------------------------------------------------------------

def test_objective_at_zero_alpha():
    G = np.array([[1.0, 0.2], [0.2, 3.0]])
    y = np.array([2.0, -1.0])
    total, emp, reg = ksvm.stabilized_objective(np.zeros(2), G, y, 0.4)
    assert emp == pytest.approx(np.mean(y**2), rel=1e-15)
    assert reg == 0.0
    assert total == emp


def test_regularizer_can_be_negative():
    G = np.diag([1.0, -1.0])
    total, emp, reg = ksvm.stabilized_objective(np.array([0.0, 1.0]), G, np.zeros(2), 1.0)
    assert reg == pytest.approx(-1.0)
    assert emp == pytest.approx(0.5)  # f = (0, -1), y = 0
    assert total == pytest.approx(-0.5)


@pytest.mark.parametrize("loss", ["squared", "logistic"])
def test_gradient_matches_finite_differences(loss):
    rng = np.random.default_rng(3)
    for _ in range(6):
        n = int(rng.integers(2, 6))
        A = rng.normal(size=(n, n))
        G = 0.5 * (A + A.T)
        y = rng.choice([-1.0, 1.0], size=n) if loss == "logistic" else rng.normal(size=n)
        alpha = rng.normal(size=n) * 0.5
        lam = float(rng.uniform(0.1, 1.0))
        got = ksvm.objective_gradient(alpha, G, y, lam, loss)
        want = _fd_objective_gradient(alpha, G, y, lam, loss)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-7)


def test_unknown_loss_rejected():
    with pytest.raises(ValueError):
        ksvm.stabilized_objective(np.zeros(1), np.eye(1), np.zeros(1), 1.0, loss="hinge")
    with pytest.raises(ValueError):
        ksvm.objective_gradient(np.zeros(1), np.eye(1), np.zeros(1), 1.0, loss="hinge")


# ---------------------------------------------------------------------------
# gradient descent path
# ---------------------------------------------------------------------------

def test_gd_first_step_from_zero():
    G = np.array([[1.0, 0.5], [0.5, 2.0]])
    y = np.array([1.0, -1.0])
    alpha, _ = ksvm.train_gd(G, y, lam=1.0, steps=1, step_size=0.05)
    # alpha_1 = (2 s / N) G y
    np.testing.assert_allclose(alpha, 0.05 * (G @ y), rtol=1e-14)


def test_gd_zero_targets_stay_zero():
    G = np.array([[1.0, 0.2], [0.2, 0.8]])
    alpha, gnorm = ksvm.train_gd(G, np.zeros(2), lam=0.5, steps=50)
    assert np.all(alpha == 0.0)
    assert gnorm == 0.0


def test_gd_agrees_with_eigensolver_on_conditioned_instances():
    rng = np.random.default_rng(4)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        G = (Q * rng.uniform(0.5, 2.0, size=n)) @ Q.T  # spectrum in [1/2, 2]
        y = rng.normal(size=n)
        lam = 0.6
        want, _ = ksvm.train_squared(G, y, lam)
        got, gnorm = ksvm.train_gd(G, y, lam, steps=4000, step_size=0.05)
        assert gnorm <= 1e-6
        np.testing.assert_allclose(got, want, atol=1e-4)


def test_gd_descends_the_risk():
    G = np.diag([2.0, -0.5])
    y = np.array([1.0, 2.0])
    j0 = ksvm.stabilized_objective(np.zeros(2), G, y, 1.0).total
    alpha, _ = ksvm.train_gd(G, y, lam=1.0, steps=200, step_size=0.02)
    j1 = ksvm.stabilized_objective(alpha, G, y, 1.0).total
    assert j1 < j0


def test_gd_logistic_loss_runs_and_descends():
    G = np.array([[1.5, 0.2], [0.2, 0.9]])
    y = np.array([1.0, -1.0])
    j0 = ksvm.stabilized_objective(np.zeros(2), G, y, 0.3, "logistic").total
    alpha, _ = ksvm.train_gd(G, y, 0.3, loss="logistic", steps=300, step_size=0.1)
    j1 = ksvm.stabilized_objective(alpha, G, y, 0.3, "logistic").total
    assert j1 < j0


def test_gd_divergence_detected():
    G = np.diag([5.0, 3.0])
    y = np.array([1.0, 1.0])
    with pytest.raises(DivergenceError):
        ksvm.train_gd(G, y, lam=1.0, steps=500, step_size=10.0)


def test_gd_validates_the_system_once(monkeypatch):
    calls = []
    check = ksvm._check_system
    monkeypatch.setattr(ksvm, "_check_system", lambda g, y: calls.append(1) or check(g, y))
    G = np.array([[1.0, 0.4], [0.4, 2.0]])
    ksvm.train_gd(G, np.array([0.3, -1.2]), 0.7, steps=20)
    assert len(calls) == 1
    with pytest.raises(ValueError, match="symmetric"):
        ksvm.train_gd(np.array([[1.0, 0.4], [0.0, 2.0]]), np.zeros(2), 0.7, steps=1)


def test_gd_deterministic():
    G = np.array([[1.0, 0.4], [0.4, 2.0]])
    y = np.array([0.3, -1.2])
    a1, _ = ksvm.train_gd(G, y, 0.7, steps=100)
    a2, _ = ksvm.train_gd(G, y, 0.7, steps=100)
    np.testing.assert_array_equal(a1, a2)


def _reference_train_gd(gram, y, lam, loss, steps, step_size):
    """The descent loop before train_gd reused gram @ alpha: the gradient and
    the divergence check each compute their own product."""
    alpha = np.zeros_like(y)
    for _ in range(steps):
        alpha = alpha - step_size * ksvm.objective_gradient(alpha, gram, y, lam, loss)
        if not np.all(np.isfinite(alpha)):
            raise DivergenceError("alpha became non-finite during descent")
        if not math.isfinite(ksvm.stabilized_objective(alpha, gram, y, lam, loss).total):
            raise DivergenceError("stabilized risk became non-finite during descent")
    return alpha, float(np.linalg.norm(ksvm.objective_gradient(alpha, gram, y, lam, loss)))


def _random_gram(rng, n):
    raw = rng.normal(size=(n, n))
    return (raw + raw.T) / 2.0  # indefinite


@pytest.mark.parametrize("loss", ["squared", "logistic"])
@pytest.mark.parametrize("n, lam, steps, step_size", [
    (1, 0.3, 1, 0.05), (5, 0.7, 50, 0.02), (17, 0.1, 200, 0.01), (40, 1.5, 30, 0.002),
])
def test_gd_equals_reference_loop_bitwise(loss, n, lam, steps, step_size):
    rng = np.random.default_rng(n)
    gram, y = _random_gram(rng, n), rng.normal(size=n)
    want = _reference_train_gd(gram, y, lam, loss, steps, step_size)
    got = ksvm.train_gd(gram, y, lam, loss, steps, step_size)
    assert got.alpha.tobytes() == want[0].tobytes()
    assert got.grad_norm == want[1]


def test_gd_on_network_gram_equals_reference_loop_bitwise():
    arch = netcore.Architecture(4, (8, 1), (act.erf(), act.erf()))
    rng = np.random.default_rng(3)
    xs = rng.normal(size=(60, 4))
    gram, y = kk.gram(kk.KernelDefinition(arch), xs), np.tanh(xs[:, 0])
    want = _reference_train_gd(gram, y, 0.5, "squared", 100, 0.002)
    got = ksvm.train_gd(gram, y, 0.5, "squared", 100, 0.002)
    assert got.alpha.tobytes() == want[0].tobytes()
    assert got.grad_norm == want[1]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("step_size, message", [
    (10.0, "stabilized risk became non-finite"),
    (1e308, "alpha became non-finite"),
])
def test_gd_diverges_where_reference_loop_does(step_size, message):
    G = np.diag([5.0, 3.0])
    y = np.array([1.0, 1.0])
    with pytest.raises(DivergenceError) as want:
        _reference_train_gd(G, y, 1.0, "squared", 500, step_size)
    with pytest.raises(DivergenceError) as got:
        ksvm.train_gd(G, y, 1.0, "squared", 500, step_size)
    assert str(got.value) == str(want.value)
    assert message in str(got.value)


# ---------------------------------------------------------------------------
# prediction and model files
# ---------------------------------------------------------------------------

def _toy_model(variant="krein"):
    arch = netcore.Architecture(2, (2, 1), (act.tanh(), act.tanh()))
    defn = kk.KernelDefinition(arch, variant)
    pts = np.array([[0.3, 0.1], [-0.2, 0.4], [0.1, -0.5]])
    alpha = np.array([0.7, -0.3, 0.2])
    return ksvm.TrainedKSVM(alpha, pts, 0.5, defn)


def test_predict_is_kernel_combination():
    model = _toy_model()
    x = np.array([0.25, -0.1])
    want = sum(
        a * kk.kernel_value(model.kernel_def, x, p)
        for a, p in zip(model.alpha, model.training_points)
    )
    assert ksvm.predict(model, x) == pytest.approx(want, rel=1e-15)


def test_predict_unit_alpha_reads_one_column():
    model = _toy_model()
    model.alpha = np.array([1.0, 0.0, 0.0])
    x = np.array([0.6, 0.2])
    assert ksvm.predict(model, x) == pytest.approx(
        kk.kernel_value(model.kernel_def, x, model.training_points[0]), rel=1e-15
    )


def test_predict_zero_alpha_is_zero():
    model = _toy_model()
    model.alpha = np.zeros(3)
    assert ksvm.predict(model, np.array([1.0, 1.0])) == 0.0


def test_small_lambda_interpolates_on_definite_gram():
    # exp chains give a comfortably nonsingular Gram on spread-out points
    arch = netcore.Architecture(2, (1,), (act.exp(),))
    defn = kk.KernelDefinition(arch)
    pts = np.array([[1.0, 0.2], [-0.6, 1.1], [0.3, -1.2], [-0.9, -0.7]])
    G = kk.gram(defn, pts)
    y = np.array([1.0, -1.0, 0.5, 2.0])
    alpha, _ = ksvm.train_squared(G, y, 1e-6)
    model = ksvm.TrainedKSVM(alpha, pts, 1e-6, defn)
    for i in range(4):
        assert ksvm.predict(model, pts[i]) == pytest.approx(y[i], abs=1e-5)


def test_model_roundtrip_exact(tmp_path):
    model = _toy_model("associated")
    path = tmp_path / "model.txt"
    ksvm.save_model(path, model)
    back = ksvm.load_model(path)
    np.testing.assert_array_equal(back.alpha, model.alpha)
    np.testing.assert_array_equal(back.training_points, model.training_points)
    assert back.lam == model.lam
    assert back.kernel_def.variant == "associated"
    assert back.kernel_def.arch == model.kernel_def.arch
    x = np.array([0.15, 0.35])
    assert ksvm.predict(back, x) == ksvm.predict(model, x)


def test_model_roundtrip_parameterized_specs(tmp_path):
    arch = netcore.Architecture(
        1, (2, 1), (act.relu_surrogate(0.25), act.polynomial((0.0, 1.0, -0.5)))
    )
    defn = kk.KernelDefinition(arch)
    model = ksvm.TrainedKSVM(np.array([1.0 / 3]), np.array([[0.4]]), 0.25, defn)
    path = tmp_path / "model.txt"
    ksvm.save_model(path, model)
    back = ksvm.load_model(path)
    assert back.kernel_def.arch.activations[0].sharpness == 0.25
    assert back.kernel_def.arch.activations[1].coefficients == (0.0, 1.0, -0.5)
    x = np.array([0.3])
    assert ksvm.predict(back, x) == ksvm.predict(model, x)


@given(
    st.integers(1, 3),
    st.integers(0, 6),
    st.sampled_from(kk.VARIANTS),
    st.floats(min_value=1e-300, max_value=1e300),
    st.sampled_from(
        (act.tanh(), act.erf(), act.relu_surrogate(0.1 + 1 / 3), act.polynomial((0.1, 1 / 3, -2.5e-7)))
    ),
    st.data(),
)
def test_model_roundtrip_keeps_every_float(dim, n, variant, lam, spec, data):
    arch = netcore.Architecture(dim, (2, 1), (spec, act.tanh()))
    floats = st.floats(allow_nan=False, allow_infinity=False)
    pts = np.array(data.draw(st.lists(floats, min_size=n * dim, max_size=n * dim)),
                   dtype=float).reshape(n, dim)
    alpha = np.array(data.draw(st.lists(floats, min_size=n, max_size=n)), dtype=float)
    model = ksvm.TrainedKSVM(alpha, pts, lam, kk.KernelDefinition(arch, variant))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.txt")
        ksvm.save_model(path, model)
        back = ksvm.load_model(path)
    assert back.alpha.tobytes() == alpha.tobytes()
    assert back.training_points.shape == (n, dim)
    assert back.training_points.tobytes() == pts.tobytes()
    assert back.lam == lam
    assert back.kernel_def == model.kernel_def


def _edited_model_file(tmp_path, lineno, text):
    """The toy model's file with line ``lineno`` (1-based) replaced, or dropped for None.

    Lines: 1 lambda, 2 variant, 3 input_dim, 4 widths, 5-6 activation,
    7 points 3, 8-10 point rows, 11 alpha.
    """
    path = tmp_path / "model.txt"
    ksvm.save_model(path, _toy_model())
    lines = path.read_text().splitlines()
    if text is None:
        del lines[lineno - 1]
    else:
        lines[lineno - 1] = text
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("lineno, key", [
    (1, "lambda"), (2, "variant"), (3, "input_dim"), (4, "widths"), (7, "points"), (11, "alpha"),
])
def test_load_model_refuses_missing_key(tmp_path, lineno, key):
    with pytest.raises(ValueError, match=f"model file lacks {key}"):
        ksvm.load_model(_edited_model_file(tmp_path, lineno, None))


def test_load_model_refuses_alpha_count_other_than_point_count(tmp_path):
    path = _edited_model_file(tmp_path, 11, "alpha 0.7 -0.3")
    with pytest.raises(ValueError, match="line 11: expected 3 values, got 2"):
        ksvm.load_model(path)


def test_load_model_refuses_point_row_of_wrong_width(tmp_path):
    path = _edited_model_file(tmp_path, 9, "-0.2 0.4 0.9")
    with pytest.raises(ValueError, match="line 9: expected 2 values, got 3"):
        ksvm.load_model(path)


@pytest.mark.parametrize("lineno, text", [
    (1, "lambda nan"),
    (5, "activation polynomial 0 inf"),
    (8, "0.3 -inf"),
    (11, "alpha 0.7 NaN 0.2"),
])
def test_load_model_refuses_non_finite_number(tmp_path, lineno, text):
    path = _edited_model_file(tmp_path, lineno, text)
    with pytest.raises(ValueError, match=f"line {lineno}: values must be finite"):
        ksvm.load_model(path)


@pytest.mark.parametrize("lineno, key", [
    (2, "variant"), (3, "input_dim"), (4, "widths"), (5, "activation"), (7, "points"),
])
def test_load_model_names_a_key_without_its_value(tmp_path, lineno, key):
    path = _edited_model_file(tmp_path, lineno, key)
    with pytest.raises(ValueError, match=f"^line {lineno}: {key} has no value$"):
        ksvm.load_model(path)


@pytest.mark.parametrize("count", ["-1", "2.5"])
def test_load_model_refuses_a_point_count_that_is_not_whole(tmp_path, count):
    # a negative count walked the reader back: "points -1" never returned.  The
    # load runs in a subprocess under a timeout, so a hang fails the test.
    path = _edited_model_file(tmp_path, 7, f"points {count}")
    src = os.path.dirname(os.path.dirname(ksvm.__file__))
    code = (
        "import sys; from kreinflat import ksvm\n"
        "try:\n    ksvm.load_model(sys.argv[1])\n"
        "except ValueError as exc:\n    print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                          capture_output=True, text=True, timeout=10)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"line 7: point count {count!r} is not a whole number\n"


@pytest.mark.parametrize("lineno, text, message", [
    # these raised "invalid literal for int()" without naming the line
    (3, "input_dim x", "line 3: input_dim 'x' is not a whole number"),
    (4, "widths 2 x", "line 4: width 'x' is not a whole number"),
])
def test_load_model_names_the_line_of_a_bad_count(tmp_path, lineno, text, message):
    path = _edited_model_file(tmp_path, lineno, text)
    with pytest.raises(ValueError, match=f"^{message}$"):
        ksvm.load_model(path)


@pytest.mark.parametrize("lineno, text, message", [
    # each raised a plain ValueError without naming the line
    (3, "input_dim 0", "input_dim must be at least 1"),
    (4, "widths 0 1", "widths must be positive"),
    (4, "widths 2 2", "last width must be 1 (scalar output)"),
    (5, "activation nope", "unknown activation kind 'nope'"),
])
def test_load_model_names_the_line_the_architecture_refuses(tmp_path, lineno, text, message):
    path = _edited_model_file(tmp_path, lineno, text)
    with pytest.raises(InputError) as err:
        ksvm.load_model(path)
    assert str(err.value) == f"line {lineno}: {message}"


@pytest.mark.parametrize("text", ["activation relu_surrogate 0.25 7", "activation tanh 0.5 1"])
def test_load_model_refuses_extra_activation_parameters(tmp_path, text):
    path = _edited_model_file(tmp_path, 5, text)
    with pytest.raises(ValueError, match="line 5: .* takes at most one parameter, got 2"):
        ksvm.load_model(path)


@pytest.mark.parametrize("extra, message", [
    # an unknown key was skipped, and the last of a repeated key kept (lambda 5.0)
    ("bogus 7", "line 12: unknown key 'bogus'"),
    ("lambda 5.0", "line 12: lambda repeats line 1"),
])
def test_load_model_refuses_an_unknown_or_repeated_key(tmp_path, extra, message):
    path = tmp_path / "model.txt"
    ksvm.save_model(path, _toy_model())
    path.write_text(path.read_text() + extra + "\n")
    with pytest.raises(ValueError, match=f"^{message}$"):
        ksvm.load_model(path)


@pytest.mark.parametrize("text, got", [
    # "variant krein associated" loaded as krein; "variant bogus" raised without a line
    ("variant krein associated", "krein associated"),
    ("variant bogus", "bogus"),
], ids=["extra-token", "unknown-variant"])
def test_load_model_names_the_line_of_a_bad_variant(tmp_path, text, got):
    path = _edited_model_file(tmp_path, 2, text)
    with pytest.raises(ValueError, match=f"^line 2: unknown variant '{got}'$"):
        ksvm.load_model(path)
