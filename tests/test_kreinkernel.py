"""Network kernels: scalar chains, the sign split, and Gram assembly."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kreinflat import activations as act
from kreinflat import kreinkernel as kk
from kreinflat import netcore
from kreinflat import pushforward as pf
from kreinflat.errors import DomainError


def arch_of(input_dim, widths, specs):
    return netcore.Architecture(input_dim, tuple(widths), tuple(specs))


def kernel_parts(arch, x, xp, truncation):
    """(K_plus, K_minus): the metric-sign split of the truncated flat kernel.

    K_plus sums g_i phi_i(x) phi_i(x') over g_i > 0 and K_minus sums -g_i ...
    over g_i < 0, so K ~ K_plus - K_minus and Kbar ~ K_plus + K_minus up to
    the truncation error.
    """
    g = pf.flatten_metric(arch, truncation).values
    fx = pf.flatten_feature_map(arch, x, truncation).values
    fxp = pf.flatten_feature_map(arch, xp, truncation).values
    prod = g * fx * fxp
    return float(np.sum(prod[g > 0])), float(-np.sum(prod[g < 0]))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_linear_two_layers_is_width_times_dot():
    arch = arch_of(3, (4, 1), (act.linear(), act.linear()))
    defn = kk.KernelDefinition(arch)
    x = np.array([1.0, 2.0, -1.0])
    xp = np.array([0.5, 0.0, 2.0])
    assert kk.kernel_value(defn, x, xp) == pytest.approx(4.0 * float(x @ xp), rel=1e-15)


def test_linear_three_layers_multiplies_all_inner_widths():
    arch = arch_of(2, (2, 3, 1), (act.linear(),) * 3)
    defn = kk.KernelDefinition(arch)
    x = np.array([1.0, 1.0])
    assert kk.kernel_value(defn, x, x) == pytest.approx(12.0)


def test_depth_one_kernel_is_activation_of_dot():
    arch = arch_of(2, (1,), (act.tanh(),))
    defn = kk.KernelDefinition(arch)
    x = np.array([0.5, 0.25])
    xp = np.array([1.0, -0.2])
    s = float(x @ xp)
    assert kk.kernel_value(defn, x, xp) == pytest.approx(math.tanh(s), rel=1e-15)


def test_tanh_depth_two_frozen_value():
    # input_dim 1, hidden width 2: K(0.5, 0.5) = tanh(2 tanh(0.25))
    arch = arch_of(1, (2, 1), (act.tanh(), act.tanh()))
    defn = kk.KernelDefinition(arch)
    x = np.array([0.5])
    assert kk.kernel_value(defn, x, x) == pytest.approx(0.4540873098866514, rel=1e-14)


def test_associated_tanh_depth_one_is_tan():
    arch = arch_of(1, (1,), (act.tanh(),))
    defn = kk.KernelDefinition(arch)
    x = np.array([0.5])
    xp = np.array([1.0])
    assert kk.associated_kernel(defn, x, xp) == pytest.approx(
        0.5463024898437905, rel=1e-14
    )


def test_associated_equals_kernel_for_nonnegative_streams():
    arch = arch_of(2, (2, 1), (act.polynomial((0.0, 1.0, 0.5)), act.exp()))
    defn = kk.KernelDefinition(arch)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.uniform(-1.0, 1.0, size=2)
        xp = rng.uniform(-1.0, 1.0, size=2)
        assert kk.associated_kernel(defn, x, xp) == pytest.approx(
            kk.kernel_value(defn, x, xp), rel=1e-15
        )


def test_kernel_symmetric_in_arguments():
    arch = arch_of(3, (2, 1), (act.erf(), act.tanh()))
    defn = kk.KernelDefinition(arch)
    rng = np.random.default_rng(4)
    x = rng.normal(size=3)
    xp = rng.normal(size=3)
    assert kk.kernel_value(defn, x, xp) == kk.kernel_value(defn, xp, x)


# ---------------------------------------------------------------------------
# variant handling and validation
# ---------------------------------------------------------------------------

def test_variant_validation():
    arch = arch_of(1, (1,), (act.tanh(),))
    with pytest.raises(ValueError):
        kk.KernelDefinition(arch, "positive")
    defn = kk.KernelDefinition(arch, "associated")
    x = np.array([0.1])
    assert kk.kernel_value(defn, x, x) == kk.associated_kernel(defn, x, x)


def test_kernel_value_dispatches_on_variant():
    arch = arch_of(1, (1,), (act.tanh(),))
    x = np.array([0.5])
    xp = np.array([1.0])
    kr = kk.kernel_value(kk.KernelDefinition(arch, "krein"), x, xp)
    ass = kk.kernel_value(kk.KernelDefinition(arch, "associated"), x, xp)
    assert kr == pytest.approx(math.tanh(0.5), rel=1e-15)
    assert ass == pytest.approx(math.tan(0.5), rel=1e-15)


def test_input_shape_validation():
    arch = arch_of(2, (1,), (act.linear(),))
    defn = kk.KernelDefinition(arch)
    with pytest.raises(ValueError):
        kk.kernel_value(defn, np.array([1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        kk.kernel_value(defn, np.ones((2, 2)), np.ones(2))


# ---------------------------------------------------------------------------
# the metric-sign split
# ---------------------------------------------------------------------------

def test_parts_reassemble_polynomial_kernel_exactly():
    arch = arch_of(2, (2, 1),
                   (act.polynomial((0.0, 1.0, 0.0, -0.3)), act.polynomial((0.0, 0.7, 0.2))))
    defn = kk.KernelDefinition(arch)
    rng = np.random.default_rng(5)
    for _ in range(4):
        x = rng.uniform(-0.8, 0.8, size=2)
        xp = rng.uniform(-0.8, 0.8, size=2)
        kp, km = kernel_parts(arch, x, xp, truncation=9)
        assert kp - km == pytest.approx(kk.kernel_value(defn, x, xp), abs=1e-12)
        assert kp + km == pytest.approx(kk.associated_kernel(defn, x, xp), abs=1e-12)
    # on the diagonal both parts are sums of squares, and the negative cubic
    # slot makes the minus side strictly active
    x = np.array([0.5, 0.5])
    kp, km = kernel_parts(arch, x, x, truncation=9)
    assert kp > 0.0 and km > 0.0


def test_parts_track_both_chains_for_analytic_layers():
    arch = arch_of(2, (2, 1), (act.erf(), act.erf()))
    defn = kk.KernelDefinition(arch)
    rng = np.random.default_rng(6)
    for _ in range(4):
        x = rng.uniform(-0.4, 0.4, size=2)
        xp = rng.uniform(-0.4, 0.4, size=2)
        kp, km = kernel_parts(arch, x, xp, truncation=11)
        assert kp - km == pytest.approx(kk.kernel_value(defn, x, xp), abs=1e-8)
        assert kp + km == pytest.approx(kk.associated_kernel(defn, x, xp), abs=1e-8)
    # erf towers really are indefinite: the minus side is live on the diagonal
    x = np.array([0.4, 0.4])
    kp, km = kernel_parts(arch, x, x, truncation=11)
    assert km > 0.0


def test_parts_minus_side_empty_for_nonnegative_streams():
    arch = arch_of(2, (2, 1), (act.polynomial((0.0, 0.5, 0.5)), act.linear()))
    kp, km = kernel_parts(arch, np.array([0.3, 0.4]), np.array([0.1, 0.9]), 4)
    assert km == 0.0


def test_parts_vanish_at_zero_input():
    arch = arch_of(2, (2, 1), (act.erf(), act.erf()))
    kp, km = kernel_parts(arch, np.zeros(2), np.array([0.3, 0.1]), 7)
    assert kp == 0.0 and km == 0.0


def test_associated_dominates_kernel_on_diagonal():
    arch = arch_of(2, (2, 1), (act.tanh(), act.erf()))
    defn = kk.KernelDefinition(arch)
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = rng.uniform(-0.4, 0.4, size=2)
        kbar = kk.associated_kernel(defn, x, x)
        assert kbar >= 0.0
        assert kbar + 1e-15 >= abs(kk.kernel_value(defn, x, x))


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------

def test_gram_bitwise_symmetric():
    arch = arch_of(3, (2, 1), (act.tanh(), act.tanh()))
    defn = kk.KernelDefinition(arch)
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(6, 3))
    G = kk.gram(defn, pts)
    assert np.array_equal(G, G.T)


def test_gram_matches_pairwise_kernel():
    arch = arch_of(2, (2, 1), (act.erf(), act.linear()))
    defn = kk.KernelDefinition(arch)
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(4, 2))
    G = kk.gram(defn, pts)
    for i in range(4):
        for j in range(4):
            assert G[i, j] == pytest.approx(
                kk.kernel_value(defn, pts[i], pts[j]), rel=1e-15
            )


def test_gram_duplicate_points_duplicate_rows():
    arch = arch_of(2, (1,), (act.tanh(),))
    defn = kk.KernelDefinition(arch)
    pts = np.array([[0.5, 0.1], [0.5, 0.1], [1.0, -0.3]])
    G = kk.gram(defn, pts)
    np.testing.assert_array_equal(G[0], G[1])
    np.testing.assert_array_equal(G[:, 0], G[:, 1])


def test_gram_single_point():
    arch = arch_of(1, (1,), (act.tanh(),))
    defn = kk.KernelDefinition(arch)
    G = kk.gram(defn, np.array([[0.7]]))
    assert G.shape == (1, 1)
    assert G[0, 0] == pytest.approx(math.tanh(0.49), rel=1e-15)


def test_gram_requires_two_dims():
    arch = arch_of(1, (1,), (act.tanh(),))
    defn = kk.KernelDefinition(arch)
    with pytest.raises(ValueError):
        kk.gram(defn, np.array([0.7, 0.1]))


def test_associated_gram_psd_within_radius():
    # a tan pole sits at pi/2, so keep <x, x'> well inside it
    arch = arch_of(3, (2, 1), (act.tanh(), act.tanh()))
    defn = kk.KernelDefinition(arch, "associated")
    rng = np.random.default_rng(10)
    pts = rng.uniform(-0.3, 0.3, size=(8, 3))
    G = kk.gram(defn, pts)
    w = np.linalg.eigvalsh(G)
    assert w.min() >= -1e-8 * np.abs(w).max()


def test_gram_domain_error_reports_entry_and_layer():
    arch = arch_of(1, (1,), (act.tanh(),))
    defn = kk.KernelDefinition(arch, "associated")
    pts = np.array([[0.1], [1.3]])  # 1.3^2 = 1.69 > pi/2
    with pytest.raises(DomainError) as info:
        kk.gram(defn, pts)
    assert info.value.location == (1, 1)
    assert info.value.layer == 0


def test_gram_domain_error_blames_first_entry_across_layers():
    # (0, 0): 0.81 passes layer 0, but 2 tan(0.81) > pi/2 fails layer 1;
    # (1, 1): 1.69 already fails layer 0, yet (0, 0) comes first in row-major order
    arch = arch_of(1, (2, 1), (act.tanh(), act.tanh()))
    defn = kk.KernelDefinition(arch, "associated")
    with pytest.raises(DomainError) as info:
        kk.gram(defn, np.array([[0.9], [1.3]]))
    assert info.value.location == (0, 0)
    assert info.value.layer == 1


def test_gram_refuses_a_non_finite_entry_naming_the_first():
    # exp(exp(.)) overflows on every pair with the point (30, 40); (0, 1) comes first
    arch = arch_of(2, (3, 1), (act.exp(), act.exp()))
    pts = np.array([[0.1, 0.2], [30.0, 40.0], [0.5, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is reported by the error alone
        with pytest.raises(DomainError, match=r"gram entry \(0, 1\): the kernel value is not") as info:
            kk.gram(kk.KernelDefinition(arch), pts)
    assert info.value.location == (0, 1)


def _one_chain_gram(defn, points):
    """The Gram by one chain over the whole upper triangle (the unblocked reference)."""
    upper = np.triu(np.ones((points.shape[0],) * 2, dtype=bool))
    out = points @ points.T
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            values = kk.chain(defn.chain_arch, out[upper])
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise DomainError("the kernel value is not finite", location=int(bad[0]))
    except DomainError as exc:
        i, j = (int(ix[exc.location]) for ix in np.nonzero(upper))
        raise DomainError(
            f"gram entry ({i}, {j}): {exc}", layer=exc.layer, location=(i, j)
        ) from exc
    out[upper] = values
    out.T[upper] = values
    return out


_BLOCK = 7  # rows per block under the patched ceiling

_BLOCKED_NETS = {
    "erf": kk.KernelDefinition(arch_of(3, (4, 1), (act.erf(), act.erf()))),
    "tanh": kk.KernelDefinition(arch_of(3, (2, 1), (act.tanh(), act.tanh()))),
    "polynomial": kk.KernelDefinition(
        arch_of(3, (2, 1), (act.polynomial((0.1, 0.8, -0.3, 0.2)), act.linear()))),
    "relu_surrogate": kk.KernelDefinition(
        arch_of(3, (3, 1), (act.relu_surrogate(0.5), act.erf()))),
    "tan": kk.KernelDefinition(arch_of(3, (2, 1), (act.tanh(), act.tanh())), "associated"),
}


def _blocked_gram(defn, points, rows=_BLOCK):
    """kk.gram with a ceiling of ``rows`` rows per block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kk, "_BLOCK_BYTES", rows * 8 * len(points))
        return kk.gram(defn, points)


@pytest.mark.parametrize("n", [0, 1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 300])
@pytest.mark.parametrize("net", sorted(_BLOCKED_NETS))
def test_blocked_gram_is_bit_equal_to_one_chain(net, n):
    defn = _BLOCKED_NETS[net]
    # |<x, x'>| <= 0.48 keeps both tan layers inside pi/2
    pts = np.random.default_rng(n).uniform(-0.4, 0.4, size=(n, 3))
    got = _blocked_gram(defn, pts)
    assert got.tobytes() == _one_chain_gram(defn, pts).tobytes()
    assert got.tobytes() == kk.gram(defn, pts).tobytes()  # the module's own ceiling


def _tan_exp(width):
    return kk.KernelDefinition(arch_of(1, (width, 1), (act.tanh(), act.exp())), "associated")


@pytest.mark.parametrize("defn, column, message", [
    # the first violation is (19, 19), 1.3^2 > pi/2, in the third block
    (_tan_exp(1), [0.1] * 19 + [1.3], r"gram entry \(19, 19\): layer 0: tan evaluated at"),
    # (0, 0) = 1.44 passes tan but 100 tan(1.44) overflows exp: a non-finite entry in
    # the first block; 1.3^2 still fails tan in the last block, and that error wins
    (_tan_exp(100), [1.2] + [0.1] * 18 + [1.3], r"gram entry \(19, 19\): layer 0: tan"),
    # only non-finite entries: (0, 0) is the first in row-major order
    (_tan_exp(100), [1.2] + [0.1] * 19, r"gram entry \(0, 0\): the kernel value is not finite"),
    # (8, 8) passes layer 0 but 2 tan(0.81) fails layer 1; (9, 9) fails layer 0 later
    (kk.KernelDefinition(arch_of(1, (2, 1), (act.tanh(), act.tanh())), "associated"),
     [0.1] * 8 + [0.9, 1.3], r"gram entry \(8, 8\): layer 1: tan"),
])
def test_blocked_gram_raises_the_one_chain_error(defn, column, message):
    pts = np.array(column)[:, None]
    with pytest.raises(DomainError) as want:
        _one_chain_gram(defn, pts)
    for rows in (1, 3, _BLOCK, len(pts)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow is reported by the error alone
            with pytest.raises(DomainError, match=message) as got:
                _blocked_gram(defn, pts, rows)
        assert str(got.value) == str(want.value)
        assert (got.value.layer, got.value.location) == (want.value.layer, want.value.location)


def test_gram_peak_memory_is_near_the_gram():
    defn = kk.KernelDefinition(arch_of(4, (8, 1), (act.erf(), act.erf())))
    pts = np.random.default_rng(0).normal(size=(1000, 4))
    tracemalloc.start()
    try:
        G = kk.gram(defn, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * G.nbytes  # 2.13 times with one chain over the upper triangle


_KINDS = (act.linear(), act.erf(), act.tanh(), act.polynomial((0.0, 1.0, -0.3, 0.2)))


@given(
    st.integers(1, 3),
    st.lists(st.integers(1, 3), max_size=2),
    st.lists(st.sampled_from(_KINDS), min_size=3, max_size=3),
    st.sampled_from(kk.VARIANTS),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_gram_is_bit_symmetric_and_matches_kernel_value(dim, hidden, kinds, variant, n, seed):
    widths = tuple(hidden) + (1,)
    defn = kk.KernelDefinition(arch_of(dim, widths, kinds[: len(widths)]), variant)
    pts = np.random.default_rng(seed).uniform(-0.6, 0.6, size=(n, dim))
    try:
        G = kk.gram(defn, pts)
    except DomainError as exc:
        i, j = exc.location
        with pytest.raises(DomainError):
            kk.kernel_value(defn, pts[i], pts[j])
        return
    assert np.array_equal(G, G.T)
    for i in range(n):
        for j in range(n):
            # X X^T and a per-pair dot may round differently in the last place
            assert G[i, j] == pytest.approx(
                kk.kernel_value(defn, pts[i], pts[j]), rel=1e-12, abs=1e-14
            )


# ---------------------------------------------------------------------------
# chain vs flat features
# ---------------------------------------------------------------------------

def test_kernel_equals_flat_feature_inner_product():
    from kreinflat import pushforward as pf

    arch = arch_of(2, (2, 1), (act.polynomial((0.0, 0.8, 0.3)), act.polynomial((0.0, 1.0, 0.4))))
    defn = kk.KernelDefinition(arch)
    g = pf.flatten_metric(arch, 4)
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.uniform(-0.9, 0.9, size=2)
        xp = rng.uniform(-0.9, 0.9, size=2)
        fx = pf.flatten_feature_map(arch, x, 4)
        fxp = pf.flatten_feature_map(arch, xp, 4)
        lhs = pf.flat_inner(g, fx, fxp)
        assert lhs == pytest.approx(kk.kernel_value(defn, x, xp), abs=1e-10)
