"""Feature maps, coefficient streams, metric/weight flattening.

The gamma-stream oracle expands sigma(<x, y>) brute force as a polynomial in
the 2n variables (exact integer/rational arithmetic) and matches monomial
coefficients; everything else checks structural identities against
netcore.forward or closed forms.
"""

import itertools
import math
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from kreinflat import activations as act
from kreinflat import netcore
from kreinflat import pushforward as pf
from kreinflat.errors import DomainError, SizeLimitError

from exact import entries, expand_power_sum


def poly_arch(input_dim, widths, coeff_lists):
    specs = tuple(act.polynomial(tuple(c)) for c in coeff_lists)
    return netcore.Architecture(input_dim, tuple(widths), specs)


def one_layer(spec, n):
    return netcore.Architecture(n, (1,), (spec,))


def level0_metric(spec, n, truncation):
    """gamma_i = multinomial(|i|; i) * a_{|i|} on R^n: level 0 of a one-layer net."""
    return pf.flatten_metric(one_layer(spec, n), truncation)


def monomial_features(x, truncation):
    """phi(x): every Taylor coefficient of exp is nonzero, so level 0 of a
    one-layer exp net stores every monomial up to the truncation."""
    return pf.flatten_feature_map(one_layer(act.exp(), len(x)), x, truncation)


def _gamma(arch, trunc, lv):
    """gamma_i = multinomial(i) * a_{|i|} per stored index of a level."""
    coeffs = np.array(act.taylor_series(arch.activations[lv.level], trunc))
    return pf._multinomials(lv.terms_exp, lv.level) * coeffs[lv.own_degree]


def exponents(n, max_degree):
    """Every exponent tuple over n positions of total degree <= max_degree."""
    return [e for e in itertools.product(range(max_degree + 1), repeat=n) if sum(e) <= max_degree]


# ---------------------------------------------------------------------------
# multi-indices and monomial features
# ---------------------------------------------------------------------------

def test_exp_level_zero_dumps_graded_lex():
    v = monomial_features(np.array([2.0, 3.0]), 2)
    got = [tuple(map(int, line.split("|")[0].split())) for line in "".join(pf.dump_series(v)).splitlines()]
    assert got == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_exp_level_zero_counts():
    # degree-t slice of n variables has C(n+t-1, t) monomials
    for n in (1, 2, 3):
        for t_max in (0, 1, 3):
            got = pf.level_counts(one_layer(act.exp(), n), t_max)
            want = sum(math.comb(n + t - 1, t) for t in range(t_max + 1))
            assert got == [want]


def test_multinomial_values():
    assert pf.multinomial((2, 0)) == 1
    assert pf.multinomial((1, 1)) == 2
    assert pf.multinomial((1, 1, 1)) == 6
    assert pf.multinomial((3, 1)) == 4
    assert pf.multinomial(()) == 1


def test_monomial_features_values():
    v = entries(monomial_features(np.array([2.0, 3.0]), 3))
    assert v.get((1, 2), 0.0) == 18.0
    assert v.get((0, 0), 0.0) == 1.0
    assert v.get((3, 0), 0.0) == 8.0
    assert v[(1, 2)] == 18.0
    assert v.get((2, 2), 0.0) == 0.0  # degree above the truncation
    assert v.get((1, 1, 0), 0.0) == 0.0  # another dimension


def test_monomial_features_all_ones():
    v = monomial_features(np.array([1.0, 1.0, 1.0]), 2)
    assert entries(v) == {expo: 1.0 for expo in exponents(3, 2)}


# ---------------------------------------------------------------------------
# gamma stream vs brute-force expansion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
def test_gamma_matches_brute_force_monomial_power(n, p):
    if p == 0:
        spec = act.polynomial((1.0, 1.0))  # 1 + t; a_1 > 0 keeps the activation constructible
    else:
        coeffs = [0.0] * (p + 1)
        coeffs[1] = 1.0
        coeffs[p] = 1.0
        spec = act.polynomial(tuple(coeffs))  # t + t^p
    gamma = entries(level0_metric(spec, n, max(p, 1)))
    expected = expand_power_sum(n, p)
    a_p = act.taylor_coefficient(spec, p)
    for expo, c in expected.items():
        assert gamma.get(expo, 0.0) == pytest.approx(float(c) * a_p, rel=1e-15), expo
    # degree-p entries not present in the expansion must be absent/zero
    for expo in exponents(n, max(p, 1)):
        if sum(expo) == p and expo not in expected:
            assert gamma.get(expo, 0.0) == 0.0


def test_gamma_quadratic_example():
    g = entries(level0_metric(act.polynomial((0.0, 1.0, 1.0)), 2, 2))
    assert g.get((2, 0), 0.0) == 1.0
    assert g.get((1, 1), 0.0) == 2.0
    assert g.get((0, 2), 0.0) == 1.0


def test_gamma_constant_term():
    g = entries(level0_metric(act.logistic(), 3, 2))
    assert g.get((0, 0, 0), 0.0) == pytest.approx(0.5)


def test_gamma_linear_is_indicator_of_degree_one():
    g = entries(level0_metric(act.linear(), 3, 3))
    for idx, val in g.items():
        assert sum(idx) == 1 and val == 1.0
    assert len(g) == 3


def test_gamma_general_formula_spot_checks():
    # gamma_i = (|i|! / prod_j i_j!) a_{|i|}
    g = entries(level0_metric(act.tanh(), 2, 5))
    a3 = act.taylor_coefficient(act.tanh(), 3)
    a5 = act.taylor_coefficient(act.tanh(), 5)
    assert g.get((2, 1), 0.0) == pytest.approx(3.0 * a3, rel=1e-15)
    assert g.get((3, 2), 0.0) == pytest.approx(10.0 * a5, rel=1e-15)
    assert g.get((1, 1), 0.0) == 0.0  # tanh has no even terms


# ---------------------------------------------------------------------------
# the scalar push-forward identity
# ---------------------------------------------------------------------------

def pushforward_sides(spec, vectors, mu, truncation):
    """(lhs, rhs) of the identity: lhs = sigma(sum_j mu_j prod_v v_j); rhs
    re-assembles it from the pushed metric gamma o phi(mu) and the monomial
    features of every vector, up to the truncation degree.  The features are
    level 0 of the same one-layer net: phi on the activation's support, the
    only monomials gamma does not zero."""
    lhs = act.evaluate(spec, float(np.sum(mu * np.prod(np.stack(vectors), axis=0))))
    arch = one_layer(spec, mu.size)
    gamma = pf.flatten_metric(arch, truncation)
    features = [pf.flatten_feature_map(arch, v, truncation) for v in (mu, *vectors)]
    return lhs, pf.flat_inner(gamma, *features)


def test_pushforward_polynomial_is_exact():
    rng = np.random.default_rng(7)
    spec = act.polynomial((0.0, 1.0, 0.5, 0.25))
    for m in (1, 2, 3):
        vecs = [rng.uniform(-0.9, 0.9, size=3) for _ in range(m)]
        mu = rng.uniform(0.2, 1.0, size=3)
        lhs, rhs = pushforward_sides(spec, vecs, mu, truncation=3)
        assert rhs == pytest.approx(lhs, abs=1e-12)


def test_pushforward_erf_tail():
    rng = np.random.default_rng(8)
    spec = act.erf()
    for _ in range(5):
        x = rng.uniform(-0.5, 0.5, size=2)
        xp = rng.uniform(-0.5, 0.5, size=2)
        mu = np.ones(2)
        lhs, rhs = pushforward_sides(spec, [x, xp], mu, truncation=12)
        assert abs(lhs - rhs) <= 1e-8


def test_pushforward_linear_single_vector():
    x = np.array([0.3, -0.7, 2.0])
    lhs, rhs = pushforward_sides(act.linear(), [x], np.ones(3), truncation=1)
    assert lhs == pytest.approx(float(np.sum(x)))
    assert rhs == pytest.approx(lhs, abs=1e-14)


# ---------------------------------------------------------------------------
# flattening: equivalence with the network forward pass
# ---------------------------------------------------------------------------

def random_poly_net(rng, max_depth=3, max_width=3, max_deg=3):
    d = int(rng.integers(1, max_depth + 1))
    widths = [int(rng.integers(1, max_width + 1)) for _ in range(d - 1)] + [1]
    input_dim = int(rng.integers(1, 4))
    coeffs = []
    top_deg = 1
    for _ in range(d):
        deg = int(rng.integers(1, max_deg + 1))
        top_deg = max(top_deg, deg)
        c = [0.0] + [float(rng.uniform(0.2, 1.0))]
        c += [float(rng.uniform(-0.5, 0.5)) for _ in range(deg - 1)]
        coeffs.append(c)
    arch = poly_arch(input_dim, widths, coeffs)
    mats = [rng.uniform(-0.7, 0.7, size=s) for s in arch.layer_shapes()]
    return arch, tuple(mats), top_deg


def flat_value(arch, weights, x, trunc):
    v = pf.flat_weight(arch, weights, trunc)
    phi = pf.flatten_feature_map(arch, x, trunc)
    g = pf.flatten_metric(arch, trunc)
    return pf.flat_eval(v, phi, g)


def test_flat_equivalence_polynomial_exact():
    rng = np.random.default_rng(42)
    done = 0
    while done < 8:
        arch, w, deg = random_poly_net(rng)
        trunc = deg ** arch.depth
        if max(pf.level_counts(arch, trunc)) > 40000:
            continue
        done += 1
        for _ in range(6):
            x = rng.uniform(-1.0, 1.0, size=arch.input_dim)
            f = netcore.forward(arch, w, x)
            flat = flat_value(arch, w, x, trunc)
            assert abs(f - flat) <= 1e-9 * (1.0 + abs(f))


@given(seed=st.integers(0, 2**32 - 1), extra=st.integers(0, 2))
def test_flat_evaluation_is_the_forward_pass(seed, extra):
    # truncation at least the composed degree: the identity holds up to rounding
    rng = np.random.default_rng(seed)
    arch, w, _ = random_poly_net(rng, max_depth=3, max_width=2, max_deg=3)
    trunc = math.prod(len(a.coefficients) - 1 for a in arch.activations) + extra
    assume(max(pf.level_counts(arch, trunc)) <= 5000)
    xs = rng.uniform(-1.0, 1.0, size=(5, arch.input_dim))
    _, v = pf.pushed_weights(arch, w, trunc)
    g = pf.flatten_metric(arch, trunc)
    gv = g.values * v.values
    terms = np.stack([gv * pf.flatten_feature_map(arch, x, trunc).values for x in xs])
    f = netcore.forward_batch(arch, w, xs)
    got = pf.flat_values(arch, w, xs, trunc)
    assert np.all(np.abs(got - f) <= 1e-9 * np.abs(terms).sum(axis=1))


def test_flat_equivalence_depth_one_is_weights_on_monomials():
    arch = poly_arch(3, (1,), [[0.0, 1.0]])
    w = (np.array([[0.5, -1.0, 2.0]]),)
    v = pf.flat_weight(arch, w, 1)
    g = pf.flatten_metric(arch, 1)
    x = np.array([1.0, 2.0, -0.5])
    phi = pf.flatten_feature_map(arch, x, 1)
    assert pf.flat_eval(v, phi, g) == pytest.approx(0.5 - 2.0 - 1.0, rel=1e-14)
    # weight entries are exactly the matrix entries on the degree-1 slots
    assert entries(v) == {(1, 0, 0): 0.5, (0, 1, 0): -1.0, (0, 0, 1): 2.0}


def test_semiflat_product_equals_forward():
    rng = np.random.default_rng(11)
    arch, w, _ = random_poly_net(rng, max_depth=2, max_width=2, max_deg=2)
    trunc = 4
    g = pf.flatten_metric(arch, trunc)
    layers = [pf.pushforward_weights(arch, w, q, trunc) for q in range(arch.depth)]
    for _ in range(5):
        x = rng.uniform(-0.8, 0.8, size=arch.input_dim)
        phi = pf.flatten_feature_map(arch, x, trunc)
        lhs = pf.flat_inner(g, *layers, phi)
        assert lhs == pytest.approx(netcore.forward(arch, w, x), abs=1e-10)


def test_flat_weight_is_elementwise_product_of_layers():
    rng = np.random.default_rng(12)
    arch, w, _ = random_poly_net(rng, max_depth=3, max_width=2, max_deg=2)
    trunc = 6
    vs = [pf.pushforward_weights(arch, w, q, trunc) for q in range(arch.depth)]
    vnn = pf.flat_weight(arch, w, trunc)
    prod = np.ones_like(vnn.values)
    for v in vs:
        prod = prod * v.values
    np.testing.assert_allclose(vnn.values, prod, rtol=1e-13)


def test_analytic_equivalence_small_arguments():
    # erf/tanh layers, weights and inputs scaled so nested args stay <= 0.3
    arch = netcore.Architecture(2, (2, 1), (act.tanh(), act.erf()))
    w = (
        np.array([[0.3, -0.2], [0.1, 0.25]]),
        np.array([[0.4, -0.3]]),
    )
    rng = np.random.default_rng(13)
    for _ in range(10):
        x = rng.uniform(-0.5, 0.5, size=2)
        f = netcore.forward(arch, w, x)
        flat = flat_value(arch, w, x, 10)
        assert abs(f - flat) <= 1e-5


def _pairs(lv):
    """Each stored index's (slot, exponent) pairs, row by row."""
    return [
        [(p, e) for p, e in zip(prow, erow) if e]
        for prow, erow in zip(lv.terms_pos.tolist(), lv.terms_exp.tolist())
    ]


def _slot_maps(lv):
    """(block, child) of every slot of a level above 0, as the int64 tower
    built them: np.repeat and np.tile over the blocks."""
    n_prev = len(lv.prev.own_degree)
    h = lv.n_slots // n_prev
    return np.repeat(np.arange(h, dtype=np.int64), n_prev), np.tile(np.arange(n_prev), h)


def _stable_keys(lv):
    """Truncation-independent identities of a level's stored indices: the
    exponent tuple at level 0, above it the sorted ((block, child identity),
    exponent) pairs."""
    if lv.level == 0:
        return [tuple(row) for row in lv.xexp.tolist()]
    below = _stable_keys(lv.prev)
    slot = [(b, below[k]) for b, k in zip(*(m.tolist() for m in _slot_maps(lv)))]
    return [tuple(sorted((slot[p], e) for p, e in pairs)) for pairs in _pairs(lv)]


def test_truncation_monotonicity():
    arch = netcore.Architecture(2, (2, 1), (act.tanh(), act.tanh()))
    w = (
        np.array([[0.3, 0.1], [-0.2, 0.4]]),
        np.array([[0.5, -0.5]]),
    )
    lo = pf.flat_weight(arch, w, 4)
    hi = pf.flat_weight(arch, w, 6)
    lo_map = dict(zip(_stable_keys(lo._space), lo.values))
    hi_map = dict(zip(_stable_keys(hi._space), hi.values))
    assert set(lo_map) <= set(hi_map)
    for k, val in lo_map.items():
        assert hi_map[k] == pytest.approx(val, rel=1e-14, abs=1e-300)


def test_metric_nonnegative_for_nonnegative_streams():
    arch = poly_arch(2, (2, 1), [[0.0, 1.0, 0.5], [0.1, 0.3]])
    g = pf.flatten_metric(arch, 4)
    assert np.all(g.values >= 0.0)


def test_metric_sign_alternation_erf_depth_one():
    arch = netcore.Architecture(1, (1,), (act.erf(),))
    g = pf.flatten_metric(arch, 7)
    xexp = np.asarray(g._space.xexp)
    seen = 0
    for e, val in zip(xexp[:, 0], g.values):
        if val == 0.0:
            continue
        seen += 1
        k = (int(e) - 1) // 2
        assert math.copysign(1.0, val) == (-1.0) ** k
    assert seen >= 4  # degrees 1, 3, 5, 7


@st.composite
def base_specs(draw):
    """An activation of any kind a config can name, polynomial included."""
    kind = draw(st.sampled_from(act.BASE_KINDS))
    if kind == "polynomial":
        a0, a1 = draw(st.floats(0.0, 1.0)), draw(st.floats(0.1, 1.5))
        return act.polynomial((a0, a1, *draw(st.lists(st.floats(-1.0, 1.0), max_size=3))))
    if kind == "relu_surrogate":
        return act.relu_surrogate(draw(st.floats(0.01, 2.0)))
    return act.ActivationSpec(kind)


@st.composite
def small_nets(draw):
    depth = draw(st.integers(1, 3))
    widths = tuple(draw(st.integers(1, 2)) for _ in range(depth - 1)) + (1,)
    specs = tuple(draw(base_specs()) for _ in range(depth))
    return netcore.Architecture(draw(st.integers(1, 3)), widths, specs)


@example(arch=netcore.Architecture(1, (2, 1), (act.tanh(), act.tanh())), trunc=6)
@given(arch=small_nets(), trunc=st.integers(1, 6))
def test_metric_associated_variant_is_abs(arch, trunc):
    # the associated architecture has coefficients |a_k| at every layer, so
    # its metric is |g| up to rounding: its coefficients are computed on their own
    assume(max(pf.level_counts(arch, trunc)) <= 5000)
    g = pf.flatten_metric(arch, trunc)
    gbar = pf.flatten_metric(arch.associated(), trunc)
    np.testing.assert_allclose(gbar.values, np.abs(g.values), rtol=1e-15)


def test_multiplicativity_of_monomial_map():
    rng = np.random.default_rng(14)
    a = rng.uniform(0.5, 1.5, size=3)
    b = rng.uniform(0.5, 1.5, size=3)
    fa = monomial_features(a, 4)
    fb = monomial_features(b, 4)
    fab = monomial_features(a * b, 4)
    np.testing.assert_allclose(fab.values, fa.values * fb.values, rtol=1e-12)


def test_feature_level_zero_is_plain_monomials():
    arch = poly_arch(2, (1,), [[0.0, 1.0, 0.2]])  # level 0 is the top of a one-layer net
    x = np.array([0.7, -0.4])
    lvl0 = pf.flatten_feature_map(arch, x, 4)
    xexp = np.asarray(lvl0._space.xexp)
    assert len(xexp) > 0
    for e, val in zip(xexp, lvl0.values):
        assert val == pytest.approx(x[0] ** int(e[0]) * x[1] ** int(e[1]), rel=1e-13)


def test_level_counts_match_enumeration():
    arch = poly_arch(2, (3, 2, 1), [[0.0, 1.0, 0.4], [0.0, 0.8], [0.0, 1.0, 0.1]])
    counts = pf.level_counts(arch, 6)
    space = pf.flat_space(arch, 6)
    got = [len(lvl.own_degree) for lvl in space.levels]
    assert got == counts


def test_tower_refuses_a_level_that_misses_an_index(monkeypatch):
    arch = poly_arch(2, (2, 1), [[0.0, 1.0, 0.3], [0.0, 0.7, 0.2]])
    build = pf._level_indices
    monkeypatch.setattr(
        pf, "_level_indices", lambda *args: tuple(a[:-1] for a in build(*args))
    )
    with pytest.raises(AssertionError, match="level 0 stores"):
        pf.flat_space(arch, 4)
    monkeypatch.undo()
    # the refused tower was not cached
    assert [len(lv.own_degree) for lv in pf.flat_space(arch, 4).levels] == pf.level_counts(arch, 4)


def _reference_indices(slot_cdeg, supp, trunc):
    """Depth-first search over slot multisets, then the stored-order sort:
    (pairs, own degree, composed degree) by own degree, then pair tuple."""
    n = len(slot_cdeg)
    max_own = max(supp)
    out = [((), 0, 0)] if 0 in supp else []

    def rec(start, pairs, own, comp):
        for pos in range(start, n):
            cd = slot_cdeg[pos]
            cap = max_own - own
            if cd > 0:
                cap = min(cap, (trunc - comp) // cd)
            for e in range(1, cap + 1):
                pairs.append((pos, e))
                if own + e in supp:
                    out.append((tuple(pairs), own + e, comp + e * cd))
                if own + e < max_own:
                    rec(pos + 1, pairs, own + e, comp + e * cd)
                pairs.pop()

    rec(0, [], 0, 0)
    out.sort(key=lambda item: (item[1], item[0]))
    return out


@pytest.mark.parametrize(
    "arch, trunc",
    [
        (poly_arch(2, (3, 2, 1), [[0.0, 1.0, 0.4], [0.0, 0.8], [0.0, 1.0, 0.1]]), 6),
        (netcore.Architecture(2, (2, 2, 1), (act.tanh(),) * 3), 5),
        # a constant term stores the empty index, so slots of composed degree 0 occur
        (netcore.Architecture(2, (2, 1), (act.logistic(), act.logistic())), 3),
        (poly_arch(1, (2, 2, 1), [[0.2, 1.0, 0.0, 0.5]] * 3), 6),
        # support {1, 4}: own degrees 2 and 3 are carried, never stored
        (poly_arch(2, (3, 1), [[0.0, 1.0, 0.0, 0.0, 0.3]] * 2), 8),
    ],
)
def test_levels_store_the_reference_enumeration_in_order(arch, trunc):
    space = pf.flat_space(arch, trunc)
    for lv in space.levels:
        slot_cdeg = (
            [1] * arch.input_dim if lv.level == 0
            else np.tile(lv.prev.composed_degree, arch.widths[lv.level - 1]).tolist()
        )
        supp = act.support_degrees(arch.activations[lv.level], trunc)
        got = [
            (tuple(pairs), own, comp)
            for pairs, own, comp in zip(
                _pairs(lv), lv.own_degree.tolist(), lv.composed_degree.tolist()
            )
        ]
        assert got == _reference_indices(slot_cdeg, supp, trunc)
        # the dump layout sorts by the stored composed degree: its exponents' sum
        assert lv.xexp.sum(axis=1).tolist() == lv.composed_degree.tolist()
        want_mnom = [float(pf.multinomial([e for _, e in pairs])) for pairs, _, _ in got]
        spec = arch.activations[lv.level]
        coeff = [act.taylor_coefficient(spec, k) for k in lv.own_degree.tolist()]
        assert _gamma(arch, trunc, lv).tolist() == [m * c for m, c in zip(want_mnom, coeff)]


def _int64_ranges(sizes):
    """pf._ranges widened to int64, as the int64 references computed it."""
    return tuple(a.astype(np.int64) for a in pf._ranges(sizes))


def _multisets(m, e):
    """Every multiset of at most e draws from range(m), as (index, count) rows.

    Returns (index, count, starts): the multisets of k draws are rows
    starts[k]:starts[k + 1].  A row lists its distinct indices ascending,
    padded with index -1 and count 0 to width min(m, e).  The count-pattern
    builder's per-group tables, kept as _int64_level_indices' reference.
    """
    width = min(m, e)
    index, count = [np.full((1, width), -1, dtype=np.int64)], [np.zeros((1, width), np.int64)]
    last = used = np.zeros(1, dtype=np.int64)  # each row's last draw and distinct indices
    for _ in range(e):  # extend each nondecreasing draw by every j >= its last
        parent, offset = _int64_ranges(m - last)
        new = (offset > 0) | (used[parent] == 0)  # j opens a column, or repeats the last
        col = used[parent] - 1 + new
        rows = np.arange(len(parent))
        last, used = last[parent] + offset, used[parent] + new
        index.append(index[-1][parent])
        count.append(count[-1][parent])
        index[-1][rows, col] = last
        count[-1][rows, col] += 1
    sizes = [len(i) for i in index]
    return np.concatenate(index), np.concatenate(count), np.cumsum([0] + sizes)


@given(m=st.integers(1, 6), e=st.integers(0, 6))
def test_multisets_list_every_nondecreasing_draw_in_order(m, e):
    index, count, starts = _multisets(m, e)
    width = min(m, e)
    for k in range(e + 1):
        want = []
        for draw in itertools.combinations_with_replacement(range(m), k):
            distinct = sorted(set(draw))
            pad = width - len(distinct)
            want.append((distinct + [-1] * pad, [draw.count(i) for i in distinct] + [0] * pad))
        rows = range(starts[k], starts[k + 1])
        assert [(index[r].tolist(), count[r].tolist()) for r in rows] == want
    assert starts[-1] == len(index) == len(count)


def _dp_multisets(m, e):
    """Every multiset of e draws from range(m) as (index, count) rows of width e."""
    draws = np.arange(m, dtype=np.int64)[:, None]
    for _ in range(e - 1):
        last = draws[:, -1]
        fan = m - last
        parent = np.repeat(np.arange(len(draws)), fan)
        offset = np.arange(len(parent)) - np.repeat(np.cumsum(fan) - fan, fan)
        draws = np.hstack([draws[parent], (last[parent] + offset)[:, None]])
    starts = np.ones(draws.shape, dtype=bool)
    starts[:, 1:] = draws[:, 1:] != draws[:, :-1]
    run = np.cumsum(starts, axis=1) - 1
    rows = np.broadcast_to(np.arange(len(draws))[:, None], draws.shape)
    index = np.full(draws.shape, -1, dtype=np.int64)
    count = np.zeros(draws.shape, dtype=np.int64)
    index[rows, run] = draws
    np.add.at(count, (rows, run), 1)
    return index, count


def _dp_level_indices(slot_cdeg, supp, trunc):
    """The level builder before count patterns: level_counts' dynamic program
    with index arrays, extending partial indices one slot group at a time,
    then one np.lexsort over own degree and every (slot, exponent) column.
    Rows keep at least one (pad) column, as a level stores them."""
    slot_cdeg = np.asarray(slot_cdeg, dtype=np.int64)
    max_own = max(supp, default=0)
    own = np.zeros(1, dtype=np.int64)
    comp = np.zeros(1, dtype=np.int64)
    pos = np.full((1, max(1, max_own)), -1, dtype=np.int64)
    exp = np.zeros((1, max(1, max_own)), dtype=np.int64)
    groups = np.unique(slot_cdeg).tolist()
    for cd, nxt in zip(groups, groups[1:] + [trunc + 1]):

        def alive(o, c):
            return np.isin(o, supp) | ((o < max_own) & (c + nxt <= trunc))

        slots = np.flatnonzero(slot_cdeg == cd)
        keep = alive(own, comp)
        parts = [(own[keep], comp[keep], pos[keep], exp[keep])]
        for e in range(1, max_own + 1):
            rows = np.flatnonzero((own + e <= max_own) & (comp + e * cd <= trunc))
            if rows.size == 0:
                break
            rows = rows[alive(own[rows] + e, comp[rows] + e * cd)]
            if rows.size == 0:
                continue
            index, count = _dp_multisets(len(slots), e)
            r = np.repeat(rows, len(index))
            g = np.tile(np.arange(len(index)), rows.size)
            new_pos, new_exp = pos[r], exp[r]
            cols = np.count_nonzero(new_exp, axis=1)[:, None] + np.arange(e)
            np.put_along_axis(new_pos, cols, np.where(index[g] >= 0, slots[index[g]], -1), axis=1)
            np.put_along_axis(new_exp, cols, count[g], axis=1)
            parts.append((own[r] + e, comp[r] + e * cd, new_pos, new_exp))
        own, comp, pos, exp = (np.concatenate(a) for a in zip(*parts))
    keep = np.isin(own, supp)
    own, comp, pos, exp = own[keep], comp[keep], pos[keep], exp[keep]
    order = np.argsort(np.where(pos < 0, len(slot_cdeg), pos), axis=1, kind="stable")
    pos = np.take_along_axis(pos, order, axis=1)
    exp = np.take_along_axis(exp, order, axis=1)
    width = max(1, int(np.count_nonzero(exp, axis=1).max(initial=0)))
    pos, exp = pos[:, :width], exp[:, :width]
    keys = [own]
    for col in range(width):
        keys += [pos[:, col], exp[:, col]]
    order = np.lexsort(keys[::-1])
    return own[order], comp[order], pos[order], exp[order]


@given(
    slot_cdeg=st.lists(st.integers(0, 6), min_size=1, max_size=7),
    supp=st.sets(st.integers(0, 6), max_size=4),
    trunc=st.integers(1, 6),
)
# a support with a gap: own degrees 2 and 3 are carried, never stored
@example(slot_cdeg=[1, 2, 1], supp={1, 4}, trunc=6)
# every slot of composed degree 0, with the empty index stored
@example(slot_cdeg=[0, 0, 0], supp={0, 2, 3}, trunc=1)
# nothing stored, and only the empty index
@example(slot_cdeg=[1, 2], supp=set(), trunc=3)
@example(slot_cdeg=[1, 1], supp={0}, trunc=2)
# one slot, own degrees far past the slot count
@example(slot_cdeg=[1], supp={1, 5, 6}, trunc=6)
def test_the_level_walk_gives_the_dynamic_program_in_order(slot_cdeg, supp, trunc):
    supp = sorted(supp)
    got = pf._level_indices(np.array(slot_cdeg, dtype=np.int64), supp, trunc)
    want = _dp_level_indices(slot_cdeg, supp, trunc)
    # narrow dtypes: own degrees and exponents up to the largest degree in
    # supp, composed degrees up to trunc, slots up to their count
    top = max(supp, default=0)
    for a, b, bound in zip(got, want, [top, trunc, len(slot_cdeg), top]):
        assert a.dtype == np.min_scalar_type(-1 - bound) and a.shape == b.shape
        assert np.array_equal(a, b)


@given(
    width_rows=st.integers(1, 12).flatmap(lambda w: st.tuples(
        st.just(w), st.lists(st.lists(st.integers(0, 15), min_size=w, max_size=w), max_size=30)
    ))
)
def test_multinomials_are_the_exact_integers_rounded_once(width_rows):
    # wide rows of large exponents need more than one packed key
    width, rows = width_rows
    exps = np.array(rows, dtype=np.int64).reshape(len(rows), width)
    assert pf._multinomials(exps).tolist() == [float(pf.multinomial(row)) for row in rows]


def test_multinomials_past_the_float_range_name_the_least_degree():
    assert math.isfinite(float(pf._FLOAT_OVERFLOW - 1))
    with pytest.raises(OverflowError):
        float(pf._FLOAT_OVERFLOW)
    # C(1028, 514) < 2**1024 <= C(1100, 550) < C(1200, 600)
    assert math.isfinite(pf._multinomials([[514, 514]])[0])
    exps = np.array([[600, 600], [1, 0], [550, 550], [514, 514]])
    with pytest.raises(DomainError, match="^level 2: a multinomial of degree 1100 ") as err:
        pf._multinomials(exps, level=2)
    assert err.value.layer == 2


def test_level_counts_stop_past_the_limit():
    arch = netcore.Architecture(2, (2, 1), (act.tanh(), act.tanh()))
    counts = pf.level_counts(arch, 9)
    assert pf.level_counts(arch, 9, max_entries=max(counts)) == counts
    with pytest.raises(SizeLimitError, match="more than 99 entries at level 1") as err:
        pf.level_counts(arch, 9, max_entries=99)
    # the partial count that passed the limit, not the level's whole count
    assert 99 < err.value.requested < counts[1]
    assert err.value.limit == 99


def test_compose_matches_gathered_powers():
    arch = netcore.Architecture(2, (3, 2, 1), (act.tanh(),) * 3)
    space = pf.flat_space(arch, 5)
    rng = np.random.default_rng(5)
    for lv in space.levels:
        slots = rng.uniform(-1.5, 1.5, size=(3, lv.n_slots))
        padded = np.concatenate([slots, np.ones((3, 1))], axis=1)
        powers = padded[:, lv.terms_pos] ** lv.terms_exp  # elementwise, full arrays
        want = powers[:, :, 0]
        for col in range(1, powers.shape[2]):
            want = want * powers[:, :, col]
        got = lv.compose(slots)
        assert got.tobytes() == want.tobytes()
        assert lv.compose(slots[1]).tobytes() == want[1].tobytes()


def _tiled_compose(lv, slot_values):
    """compose as it was before the table went untiled: every slot value
    (the level below tiled over the blocks) to every exponent, 0 and 1 too."""
    rows = np.asarray(slot_values, dtype=float).reshape(-1, lv.n_slots)
    padded = np.concatenate([rows, np.ones((len(rows), 1))], axis=1)
    exps = np.repeat(np.arange(lv.max_exp + 1), lv.n_slots + 1).reshape(-1, lv.n_slots + 1)
    table = np.power(padded[:, None, :], exps).reshape(len(rows), -1)
    gather = list(_wide(lv.terms_exp).T * (lv.n_slots + 1) + _wide(lv.terms_pos).T)
    out = np.take(table, gather[0], axis=1)
    for col in gather[1:]:
        out *= np.take(table, col, axis=1)
    return out


def _wide(a):
    """An index array as int64, so reference arithmetic on it cannot wrap."""
    return a.astype(np.int64)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _tiled(space, lv, values):
    return values if lv.level == 0 else np.tile(values, (1, space.arch.widths[lv.level - 1]))


@pytest.mark.parametrize("arch, trunc", [
    (netcore.Architecture(2, (3, 2, 1), (act.tanh(),) * 3), 5),
    (netcore.Architecture(3, (2, 2, 1), (act.erf(), act.logistic(), act.exp())), 5),
    (poly_arch(2, (2, 1), [[0.5, 1.0, 0.3, -0.2], [0.1, 1.0, 0.0, 0.4]]), 6),
])
def test_untiled_compose_is_the_tiled_full_table_bit_for_bit(arch, trunc):
    space = pf.flat_space(arch, trunc)
    rng = np.random.default_rng(11)
    xs = rng.uniform(-1.5, 1.5, size=(7, arch.input_dim))
    xs[0] = 0.0
    xs[1, 0] = -0.0
    vals = xs
    for lv, got in zip(space.levels, pf._feature_values(space, xs)):
        vals = _tiled_compose(lv, _tiled(space, lv, vals))
        assert _same_bits(got, vals), lv.level
    for lv in space.levels[1:]:  # the metric recursion
        tiled = _tiled_compose(lv, _tiled(space, lv, lv.prev.metric[None]))[0]
        want = _gamma(arch, trunc, lv) * tiled
        assert _same_bits(lv.metric, want), lv.level


def _full_table_compose(lv, values):
    """compose with every untiled value powered to every exponent from 2 to
    the level's largest, gathered over whole blocks of rows."""
    rows = np.asarray(values, dtype=float).reshape(-1, np.shape(values)[-1])
    period = rows.shape[1]
    exps = np.repeat(np.arange(2, lv.max_exp + 1), period).reshape(-1, period)
    powers = np.power(rows[:, None, :], exps).reshape(len(rows), -1)
    table = np.concatenate([np.ones((len(rows), 1)), rows, powers], axis=1)
    e = _wide(lv.terms_exp)
    gather = np.where(e == 0, 0, period * (e - 1) + 1 + _wide(lv.terms_pos) % period).T
    out = np.take(table, gather[0], axis=1)
    for col in gather[1:]:
        out *= np.take(table, col, axis=1)
    return out


@pytest.mark.parametrize("arch, trunc", [
    (netcore.Architecture(2, (3, 2, 1), (act.tanh(),) * 3), 5),
    (netcore.Architecture(3, (2, 2, 1), (act.erf(), act.logistic(), act.exp())), 5),
    (poly_arch(2, (2, 1), [[0.5, 1.0, 0.3, -0.2], [0.1, 1.0, 0.0, 0.4]]), 6),
])
def test_compact_table_compose_is_the_full_table_bit_for_bit(arch, trunc):
    space = pf.flat_space(arch, trunc)
    rng = np.random.default_rng(12)
    xs = rng.uniform(-1.5, 1.5, size=(7, arch.input_dim))
    xs[0] = 0.0
    xs[1, 0] = -0.0
    xs[2] *= 1e-90  # powers that underflow to subnormals and zero
    vals = xs
    for lv, got in zip(space.levels, pf._feature_values(space, xs)):
        vals = _full_table_compose(lv, vals)
        assert _same_bits(got, vals), lv.level
    for lv in space.levels[1:]:
        want = _gamma(arch, trunc, lv) * _full_table_compose(lv, lv.prev.metric)[0]
        assert _same_bits(lv.metric, want), lv.level
    weights = netcore.init_weights(arch, seed=2)
    for q, lv in enumerate(space.levels):
        w = np.asarray(weights[q])  # each row replicated over the blocks of lv's slots
        vals = _full_table_compose(lv, np.repeat(w, lv.n_slots // w.shape[1], axis=1)).reshape(1, -1)
        for above in space.levels[q + 1 :]:
            vals = _full_table_compose(above, vals)
        got = pf.pushed_weights(arch, weights, trunc)[0][q].values
        assert _same_bits(got, vals[0]), q


def test_compose_refuses_values_that_do_not_tile_the_slots():
    lv = pf.flat_space(netcore.Architecture(2, (3, 1), (act.tanh(),) * 2), 3).levels[1]
    with pytest.raises(ValueError):
        lv.compose(np.ones(lv.n_slots - 1))


def test_flat_space_cache_key_is_arch_and_truncation():
    arch = poly_arch(2, (2, 1), [[0.0, 1.0, 0.25], [0.0, 0.5, 0.0, 0.125]])
    before = pf.flat_space.cache_info()
    spellings = [
        pf.flat_space(arch, 5),
        pf.flat_space(arch, truncation=5),
        pf.flat_space(arch, np.int64(5)),
    ]
    after = pf.flat_space.cache_info()
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == len(spellings) - 1
    assert all(space is spellings[0] for space in spellings)


BATCH_ARCH = netcore.Architecture(2, (3, 1), (act.tanh(), act.erf()))


def gamma(n):
    """gamma_n = n u / (1 - n u), u = eps / 2: the first-order bound of n roundings."""
    u = np.finfo(float).eps / 2
    return n * u / (1 - n * u)


def series_roundings(arch, trunc):
    """r of flat_values' docstring: the most roundings on one expanded product."""
    for q, spec in enumerate(arch.activations):
        k = max(act.support_degrees(spec, trunc))
        r = k * arch.input_dim + 3 if q == 0 else k * (r + arch.fan_ins[q] + trunc + 2)
    return r + trunc


def tower_roundings(arch, trunc, m):
    """The same for flat_eval over m tower terms: (m - 1) for the sum, and a
    depth-d monomial of degree <= T in D inputs, times g_i v_i, within
    2 d T + 2 D + 1 roundings of its exact value."""
    return m - 1 + 2 * arch.depth * trunc + 2 * arch.input_dim + 1


def forward_roundings(arch):
    """The same for netcore.forward_batch on a polynomial net: W z sums H_{q-1}
    products and Horner over the K_q + 1 coefficients rounds twice a step."""
    for q, spec in enumerate(arch.activations):
        k = len(spec.coefficients) - 1 if spec.kind == "polynomial" else 1
        r = k * ((0 if q == 0 else r) + arch.fan_ins[q]) + 2 * (k + 1)
    return r


def tower_terms(arch, weights, xs, trunc):
    """Per row of xs: the tower's value flat_eval(v, phi(x), g) and sum_i |g_i v_i phi_i(x)|."""
    g = pf.flatten_metric(arch, trunc)
    v = pf.flat_weight(arch, weights, trunc)
    phis = [pf.flatten_feature_map(arch, x, trunc) for x in xs]
    return (np.array([pf.flat_eval(v, phi, g) for phi in phis]),
            np.array([np.abs(g.values * v.values * phi.values).sum() for phi in phis]))


@pytest.mark.parametrize("arch, trunc", [
    (BATCH_ARCH, 5),
    (netcore.Architecture(2, (3, 2, 1), (act.tanh(),) * 3), 5),
    (netcore.Architecture(3, (2, 2, 1), (act.erf(), act.logistic(), act.exp())), 5),
    (poly_arch(2, (2, 1), [[0.5, 1.0, 0.3, -0.2], [0.1, 1.0, 0.0, 0.4]]), 6),
], ids=["batch", "tanh", "erf-logistic-exp", "polynomial"])
@given(
    n=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_flat_values_are_the_per_row_flat_eval(arch, trunc, n, seed):
    # Both sides compute sum_i g_i v_i x**xexp[i] over the tower's m terms,
    # rounded differently: within gamma_r and gamma_r' of sum|terms| from the
    # exact value (series_roundings, tower_roundings).  The errors add.
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1.0, 1.0, size=(n, arch.input_dim))
    weights = netcore.init_weights(arch, seed=seed)
    tower, terms = tower_terms(arch, weights, xs, trunc)
    m = len(pf.flatten_metric(arch, trunc).values)
    bound = gamma(series_roundings(arch, trunc)) + gamma(tower_roundings(arch, trunc, m))
    for got, want, total in zip(pf.flat_values(arch, weights, xs, trunc), tower, terms):
        assert abs(got - want) <= bound * total


def test_flat_values_reject_wrong_input_and_weight_shapes():
    weights = netcore.init_weights(BATCH_ARCH, seed=1)
    with pytest.raises(ValueError):
        pf.flat_values(BATCH_ARCH, weights, np.zeros(2), 5)
    with pytest.raises(ValueError):
        pf.flat_values(BATCH_ARCH, weights, np.zeros((4, 3)), 5)
    with pytest.raises(ValueError):  # another architecture's weights
        pf.flat_values(BATCH_ARCH, netcore.init_weights(one_layer(act.tanh(), 2), 1),
                       np.zeros((4, 2)), 5)
    with pytest.raises(ValueError):  # one matrix stacked, the other not
        pf.flat_values(BATCH_ARCH, [np.stack([weights[0]] * 2), weights[1]], np.zeros((4, 2)), 5)


def test_flat_values_take_no_degree_past_the_support():
    # tanh's last nonzero float coefficient has degree 1,649; 1.5**k overflows
    # from k = 1,751, where a_k = 0 would give 0 * inf = NaN
    arch = one_layer(act.tanh(), 1)
    got = pf.flat_values(arch, [np.array([[1.0]])], np.array([[1.5], [-0.5]]), 12_000)
    np.testing.assert_allclose(got, np.tanh([1.5, -0.5]), rtol=1e-12)


_SERIES_KINDS = [
    act.linear(), act.erf(), act.tanh(), act.logistic(), act.exp(), act.relu_surrogate(0.7),
    act.polynomial((0.5, 1.0, 0.3, -0.2)), act.polynomial((0.0, 0.8, 0.0, -0.4)),
]


@st.composite
def _series_nets(draw):
    """(arch, truncation, polynomial): a net of the seven base kinds, or (when
    polynomial) of linear and polynomial layers, truncated at or above their
    composed degree."""
    polynomial = draw(st.booleans())
    depth = draw(st.integers(1, 3))
    widths = tuple(draw(st.lists(st.integers(1, 3), min_size=depth - 1, max_size=depth - 1)))
    pool = [act.linear(), *_SERIES_KINDS[-2:]] if polynomial else _SERIES_KINDS
    kinds = tuple(draw(st.sampled_from(pool)) for _ in widths + (1,))
    arch = netcore.Architecture(draw(st.integers(1, 3)), widths + (1,), kinds)
    degree = math.prod(len(k.coefficients) - 1 if k.coefficients else 1 for k in kinds)
    trunc = degree + draw(st.integers(0, 2)) if polynomial else draw(st.integers(1, 6))
    assume(sum(pf.level_counts(arch, trunc)) <= 4000)
    return arch, trunc, polynomial


@given(_series_nets(), st.integers(0, 2**32 - 1))
def test_flat_values_are_the_tower_and_the_forward_pass(net, seed):
    arch, trunc, polynomial = net
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1.0, 1.0, size=(4, arch.input_dim))
    weights = netcore.init_weights(arch, seed=seed)
    got = pf.flat_values(arch, weights, xs, trunc)
    tower, terms = tower_terms(arch, weights, xs, trunc)
    m = len(pf.flatten_metric(arch, trunc).values)
    r = series_roundings(arch, trunc)
    bound = gamma(r) + gamma(tower_roundings(arch, trunc, m))
    assert np.all(np.abs(got - tower) <= bound * terms)
    if polynomial:  # nothing is truncated: the net itself, to rounding
        f = netcore.forward_batch(arch, weights, xs)
        assert np.all(np.abs(got - f) <= (gamma(r) + gamma(forward_roundings(arch))) * terms)
    # a stack of three weight sets: each row is that set's own pass, bit for bit
    scales = np.array([1.0, -0.5, 2.0])
    stacked = [scales[:, None, None] * w for w in weights]
    rows = pf.flat_values(arch, stacked, xs, trunc)
    assert rows.shape == (3, len(xs))
    for row, w in zip(rows, zip(*stacked)):
        np.testing.assert_array_equal(row, pf.flat_values(arch, list(w), xs, trunc))


def test_size_limit_guard():
    arch = poly_arch(3, (3, 3, 1),
                     [[0.0, 1.0, 0.1, 0.1], [0.0, 1.0, 0.1, 0.1], [0.0, 1.0, 0.1, 0.1]])
    with pytest.raises(SizeLimitError):
        pf.flat_space(arch, 27)
    with pytest.raises(SizeLimitError):
        pf.level_counts(arch, 27, max_entries=100_000)


def _reference_tags(lv):
    """The tag text of every stored index, one str each, as _Level.tags built
    them before tag ids: bottom-up from the tags of the level below.

    Level 0 names input monomials (x0^2*x1); above it a slot reads
    block:(child tag), where children at level 0 print as "-".
    """
    if lv.level == 0:
        slots = [f"x{p}" for p in range(lv.n_slots)]
    else:
        prev = lv.prev
        child = _reference_tags(prev) if prev.level > 0 else ["-"] * len(prev.own_degree)
        slots = [f"{b}:({child[k]})" for b, k in zip(*(m.tolist() for m in _slot_maps(lv)))]
    # pieces laid out like compose's table over all slots, so its gather
    # picks a row's pieces column by column; exponent 0 is "", and every
    # piece after a row's first carries its "*"
    power_slots, power_exps, gather = _unique_table(lv)
    powers = zip(power_slots.tolist(), power_exps.tolist())
    names = slots + [f"{slots[p]}^{e}" for p, e in powers]
    first = np.array([""] + names, dtype=object)[gather[0]].tolist()
    more = np.array([""] + ["*" + n for n in names], dtype=object)
    columns = [first] + [more[col].tolist() for col in gather[1:]]
    return [tag or "1" for tag in map("".join, zip(*columns))]


def _id_tags(lv):
    ids, texts = lv.tag_ids()
    return [texts[i] for i in ids.tolist()]


def test_tags_name_slots_bottom_up():
    arch = poly_arch(2, (2, 1), [[0.0, 1.0, 0.5], [0.0, 1.0, 0.5]])
    level0, level1 = pf.flat_space(arch, 2).levels
    for tags in (_reference_tags, _id_tags):
        assert tags(level0) == ["x0", "x1", "x0*x1", "x0^2", "x1^2"]
        # above level 0 a slot is block:(child tag); level-0 children print as "-"
        assert tags(level1) == ["0:(-)"] * 5 + ["1:(-)"] * 5 + [
            "0:(-)*0:(-)", "0:(-)*1:(-)", "0:(-)*1:(-)", "0:(-)^2",
            "0:(-)*1:(-)", "0:(-)*1:(-)", "0:(-)^2", "1:(-)*1:(-)", "1:(-)^2", "1:(-)^2",
        ]
    # ids are ranks of the sorted distinct texts
    ids, texts = level1.tag_ids()
    assert texts == sorted(set(_reference_tags(level1)))
    assert ids.dtype == np.min_scalar_type(-1 - len(texts))


def test_dump_series_format():
    arch = poly_arch(2, (1,), [[0.0, 1.0]])
    w = (np.array([[2.0, -3.0]]),)
    v = pf.flat_weight(arch, w, 1)
    lines = "".join(pf.dump_series(v)).strip().split("\n")
    assert len(lines) == 2
    head = lines[0].split("|")
    assert len(head) == 3
    exps = head[0].split()
    assert all(tok.isdigit() for tok in exps)
    float(head[2])  # parses as a number


def _per_line_dump(vec):
    """The dump as one "%.17g" per line, its rows sorted by (degree,
    exponents, tag) with a stable sort."""
    xexp = vec._space.xexp.tolist()
    tags = _reference_tags(vec._space)
    order = sorted(range(len(tags)), key=lambda i: (sum(xexp[i]), xexp[i], tags[i]))
    values = vec.values.tolist()
    return "".join(
        f"{' '.join(map(str, xexp[i]))} | {tags[i]} | " + "%.17g" % values[i] + "\n"
        for i in order
        if values[i] != 0.0
    )


def test_tower_dumps_are_the_per_line_format():
    arch = netcore.Architecture(2, (3, 2, 1), (act.tanh(),) * 3)
    weights = netcore.init_weights(arch, seed=4)
    layers, flat = pf.pushed_weights(arch, weights, 5)
    dumps = [
        pf.flatten_feature_map(arch, np.array([0.03, -0.02]), 5),
        pf.flatten_metric(arch, 5),
        flat,
        *layers,
    ]
    for vec in dumps:
        got, want = "".join(pf.dump_series(vec)).split("\n"), _per_line_dump(vec).split("\n")
        first = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
        assert first is None, (got[first], want[first])
        assert len(got) == len(want) > 1000


def test_dump_blocks_drop_zero_lines_across_block_edges(monkeypatch):
    monkeypatch.setattr(pf, "_DUMP_LINES", 3)
    arch = poly_arch(2, (2, 1), [[0.0, 1.0, 0.5], [0.0, 1.0, 0.5]])
    metric = pf.flatten_metric(arch, 2)
    perm = metric._space.dump_layout[0]
    # zero every third line of the dump and its first: kept lines straddle each block edge
    values = metric.values.copy()
    values[perm[::3]] = 0.0
    vec = metric.like(values)
    blocks = list(pf.dump_series(vec))
    lines = [len(b.splitlines()) for b in blocks]
    assert sum(lines) == np.count_nonzero(values) == 13
    assert lines == [3, 3, 3, 3, 1]
    assert "".join(blocks) == _per_line_dump(vec)
    assert list(pf.dump_series(vec.like(np.zeros_like(values)))) == []


@pytest.mark.parametrize("k", [3, 40])
def test_dump_series_refuses_a_stacked_vector_before_any_block(tmp_path, k):
    arch = poly_arch(2, (1,), [[0.0, 1.0, 0.5]])
    _, flat = pf.pushed_weights(arch, (np.ones((k, 1, 2)),), 2)
    assert flat.values.shape == (k, 5)
    with pytest.raises(ValueError, match=r"stacked.*like\(values\[j\]\)"):
        netcore.write_text(str(tmp_path / "flat.txt"), pf.dump_series(flat))
    assert os.listdir(tmp_path) == []
    assert "".join(pf.dump_series(flat.like(flat.values[1]))).count("\n") == 5


def test_writing_a_tower_dump_holds_no_whole_file_text(tmp_path):
    # the tower workload's tower: with its dump layout built, its metric dump
    # peaked at 3.5 MB as whole-file text (lines, joined, encoded) and at
    # about 1.1 MB in blocks of _DUMP_LINES lines
    arch = netcore.Architecture(2, (3, 2, 1), (act.tanh(),) * 3)
    metric = pf.flatten_metric(arch, 5)
    metric._space.dump_layout
    path = tmp_path / "metric.txt"
    tracemalloc.start()
    try:
        netcore.write_text(str(path), pf.dump_series(metric))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 800_000
    assert peak < 2 << 20, peak


def test_a_dump_formats_its_values_one_block_at_a_time(tmp_path, monkeypatch):
    # the tower workload's flat weight has 11,408 distinct values in 16,532
    # lines: formatted all at once before the first block, writing it peaked
    # at 2.06 MB traced, and at 1.02 MB formatted per block
    arch = netcore.Architecture(2, (3, 2, 1), (act.tanh(),) * 3)
    _, flat = pf.pushed_weights(arch, netcore.init_weights(arch, seed=4), 5)
    flat._space.dump_layout
    path = tmp_path / "flat.txt"
    tracemalloc.start()
    try:
        netcore.write_text(str(path), pf.dump_series(flat))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text() == _per_line_dump(flat)
    assert peak < 1.5 * (1 << 20), peak
    sizes = []
    exact_text = netcore.exact_text
    monkeypatch.setattr(netcore, "exact_text", lambda v: sizes.append(len(v)) or exact_text(v))
    assert "".join(pf.dump_series(flat)) == path.read_text()
    assert sizes == [4096] * 4 + [148]


def test_flat_eval_requires_aligned_spaces():
    arch = poly_arch(2, (1,), [[0.0, 1.0]])
    w = (np.array([[1.0, 1.0]]),)
    v4 = pf.flat_weight(arch, w, 4)
    g5 = pf.flatten_metric(arch, 5)
    phi4 = pf.flatten_feature_map(arch, np.ones(2), 4)
    with pytest.raises(ValueError):
        pf.flat_eval(v4, phi4, g5)


# ---------------------------------------------------------------------------
# the build and push against the code they replaced, kept here as references
# ---------------------------------------------------------------------------

REFERENCE_TOWERS = [
    (netcore.Architecture(2, (3, 2, 1), (act.tanh(),) * 3), 5),
    (netcore.Architecture(3, (2, 2, 1), (act.erf(), act.logistic(), act.exp())), 5),
    (poly_arch(2, (2, 1), [[0.5, 1.0, 0.3, -0.2], [0.1, 1.0, 0.0, 0.4]]), 6),
    (netcore.Architecture(1, (2, 1), (act.tanh(), act.tanh())), 9),
    (poly_arch(3, (1,), [[0.0, 1.0, 0.5, 0.25]]), 4),
]


def _per_draw_weight_values(space, weights):
    """Layer 0's pushed values as _weight_values took them before the push
    went through compose: one draw, every power by the broadcast w ** base,
    reduced by np.prod."""
    w = np.asarray(weights[0], dtype=float)
    vals = np.prod(w[:, None, :] ** space.levels[0].xexp[None], axis=2).reshape(-1)
    for lv in space.levels[1:]:
        vals = lv.compose(vals)
    return vals


def _weight_exponents(space, q):
    """The exponent of each entry of W_q (row-major) in each top-level pushed
    value, (m, H_q * H_{q-1}): the push run on integer exponent vectors, a
    product becoming a sum and a power a multiple."""
    h, f = space.arch.layer_shapes()[q]
    lv = space.levels[q]
    slot = np.eye(f, dtype=np.int64)[np.arange(lv.n_slots) // (lv.n_slots // f)]
    own = _level_exponents(lv, slot)  # (m_q, f) for any one row of W_q
    vals = np.einsum("rR,mf->rmRf", np.eye(h, dtype=np.int64), own).reshape(h * len(own), h * f)
    for lv in space.levels[q + 1 :]:  # each level's input is tiled over its blocks
        vals = _level_exponents(lv, vals[np.arange(lv.n_slots) % len(vals)])
    return vals


def _level_exponents(lv, slot_vectors):
    """Per stored index, the sum over its terms of exponent * its slot's
    integer vector (the pad slot's is 0)."""
    padded = np.vstack([slot_vectors, np.zeros_like(slot_vectors[:1])])
    return np.einsum("mw,mwg->mg", _wide(lv.terms_exp), padded[lv.terms_pos])


def _ulps_from_exact(got, weights, exps):
    """|got - exact| in ulps of the exact product of weights ** exps per row,
    each distinct row computed once in rational arithmetic."""
    radix = int(exps.max(initial=0)) + 1  # a row packed into one key
    keys = exps @ radix ** np.arange(exps.shape[1], dtype=np.int64)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rows = exps[first]
    ratios = [w.as_integer_ratio() for w in weights.tolist()]
    nearest, residual = np.empty(len(rows)), np.empty(len(rows))
    for i, row in enumerate(rows.tolist()):
        exact = Fraction(
            math.prod(n**e for (n, _), e in zip(ratios, row)),
            math.prod(d**e for (_, d), e in zip(ratios, row)),
        )
        nearest[i] = float(exact)
        residual[i] = float(exact - Fraction(nearest[i]))
    nearest, residual = nearest[inverse], residual[inverse]
    return np.abs((got - nearest) - residual) / np.spacing(np.abs(nearest))


@pytest.mark.parametrize("arch, trunc", REFERENCE_TOWERS)
@pytest.mark.parametrize("scale", [0.1, 1.0, 3.0, 30.0])
def test_tabled_powers_are_the_broadcast_powers_bit_for_bit(arch, trunc, scale):
    space = pf.flat_space(arch, trunc)
    weights = tuple(scale * w for w in netcore.init_weights(arch, seed=6))
    layers, _ = pf.pushed_weights(arch, weights, trunc)
    # the replicated rows' push is the broadcast power's at layer 0, bit for bit
    assert _same_bits(layers[0].values, _per_draw_weight_values(space, weights))
    for q in range(arch.depth):  # every layer within 3 ulp of its exact products
        w = np.asarray(weights[q], dtype=float).ravel()
        ulps = _ulps_from_exact(layers[q].values, w, _weight_exponents(space, q))
        assert ulps.max() <= 3.0, (q, ulps.max())


@pytest.mark.parametrize("arch, trunc", REFERENCE_TOWERS)
def test_stacked_push_rows_are_the_single_draw_pushes(arch, trunc):
    draws = [
        tuple(s * w for w in netcore.init_weights(arch, seed=k))
        for k, s in enumerate((0.1, 1.0, 3.0, 0.5, 2.0))
    ]
    stacked = tuple(np.stack(mats) for mats in zip(*draws))
    layers, flat = pf.pushed_weights(arch, stacked, trunc)
    each = [pf.pushforward_weights(arch, stacked, q, trunc) for q in range(arch.depth)]
    m = len(pf.flat_space(arch, trunc).top.own_degree)
    assert flat.values.shape == (len(draws), m)
    for j, weights in enumerate(draws):
        one_layers, one_flat = pf.pushed_weights(arch, weights, trunc)
        assert one_flat.values.shape == (m,)
        assert _same_bits(flat.values[j], one_flat.values)
        for q, one in enumerate(one_layers):
            assert _same_bits(layers[q].values[j], one.values), q
            assert _same_bits(each[q].values[j], one.values), q
        assert flat.like(flat.values[j]).aligned_with(one_flat)
    assert _same_bits(pf.flat_weight(arch, stacked, trunc).values, flat.values)
    empty = tuple(np.zeros((0,) + s) for s in arch.layer_shapes())
    assert pf.flat_weight(arch, empty, trunc).values.shape == (0, m)
    with pytest.raises(ValueError, match="stacked"):
        entries(flat)


def test_stacked_push_refuses_a_ragged_stack():
    arch = netcore.Architecture(2, (2, 1), (act.tanh(), act.tanh()))
    ragged = (np.zeros((3, 2, 2)), np.zeros((4, 1, 2)))
    with pytest.raises(ValueError, match="do not match"):
        pf.pushed_weights(arch, ragged, 3)


def _object_multinomials(exps, level=None):
    """_multinomials before the int64 table: Python integers at every degree."""
    exps = np.sort(np.asarray(exps, dtype=np.int64), axis=1)
    degrees = exps.sum(axis=1)
    top = int(degrees.max(initial=0))
    keys = np.column_stack([degrees, exps])
    order = np.lexsort(keys.T[::-1])
    heads = np.ones(len(order), dtype=bool)
    heads[1:] = np.any(keys[order[1:]] != keys[order[:-1]], axis=1)
    fact = np.array([math.factorial(k) for k in range(top + 1)], dtype=object)
    first = order[heads]
    exact = fact[degrees[first]] // np.prod(fact[exps[first]], axis=1)
    try:
        values = exact.astype(float)
    except OverflowError:
        degree = int(degrees[first][exact >= pf._FLOAT_OVERFLOW].min())
        where = "" if level is None else f"level {level}: "
        raise DomainError(
            f"{where}a multinomial of degree {degree} exceeds the float range", layer=level
        ) from None
    out = np.empty(len(order))
    out[order] = values[np.cumsum(heads) - 1]
    return out


@pytest.mark.parametrize("degree", [20, 21])
def test_int64_multinomials_are_the_object_multinomials(degree):
    # every exponent row of the given degree over 3 positions, plus lower ones
    rows = [e for e in exponents(3, degree) if sum(e) in (0, 7, degree)]
    exps = np.array(rows, dtype=np.int64)
    got = pf._multinomials(exps)
    assert _same_bits(got, _object_multinomials(exps))
    assert got.tolist() == [float(pf.multinomial(e)) for e in rows]
    # a degree past 20 takes the exact path, whose float-range check still names the level
    with pytest.raises(DomainError, match="^level 1: a multinomial of degree 1100 ") as err:
        pf._multinomials(np.vstack([np.pad(exps, ((0, 0), (0, 1))), [[550, 550, 0, 0]]]), level=1)
    assert err.value.layer == 1


def _eager_xexp(space):
    """Every level's composed exponents as the tower build used to compute them."""
    out = []
    for lv in space.levels:
        if lv.level == 0:
            slot_xexp = np.eye(space.arch.input_dim, dtype=np.int64)
        else:
            slot_xexp = np.tile(out[-1], (space.arch.widths[lv.level - 1], 1))
        out.append(_level_exponents(lv, slot_xexp))
    return out


@pytest.mark.parametrize("arch, trunc", REFERENCE_TOWERS)
def test_exponents_on_demand_are_the_eager_exponents(arch, trunc):
    space = pf._tower(arch, trunc)  # a fresh, uncached build
    weights = netcore.init_weights(arch, seed=1)
    mats = [w[None] for w in weights]
    for q in range(arch.depth):  # the push reads no exponents
        pf._weight_values(space, mats, q)
    assert all("xexp" not in vars(lv) for lv in space.levels)
    for lv, want in zip(space.levels, _eager_xexp(space)):
        # stored narrow, in the composed degrees' dtype
        assert lv.xexp.dtype == np.min_scalar_type(-1 - trunc), lv.level
        assert np.array_equal(lv.xexp, want), lv.level


def _unique_table(lv):
    """compose's table as built with np.unique over the (slot, exponent)
    codes, with int64 gather columns."""
    e = _wide(lv.terms_exp)
    slot = _wide(lv.terms_pos)
    high = e >= 2
    pairs, pair_id = np.unique(slot[high] * (lv.max_exp + 1) + e[high], return_inverse=True)
    index = np.where(e == 0, 0, 1 + slot)
    index[high] = 1 + lv.n_slots + pair_id
    return (*divmod(pairs, lv.max_exp + 1), list(index.T.copy()))


@pytest.mark.parametrize("arch, trunc", REFERENCE_TOWERS)
def test_bitmap_table_is_the_unique_table(arch, trunc):
    # one table per level, over all its slots: a shorter input is tiled
    for lv in pf.flat_space(arch, trunc).levels:
        got, want = lv.table, _unique_table(lv)
        for a, b in zip(got[:2], want[:2]):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert len(got[2]) == len(want[2])
        assert all(np.array_equal(a, b) for a, b in zip(got[2], want[2]))


def _int64_level_indices(slot_cdeg, supp, trunc):
    """The level builder before the walk and narrow dtypes: count patterns
    over groups of equal composed degree, each row's multiset per group read
    in mixed radix from _multisets' tables, int64 codes concatenated per
    group, then one sort over packed keys."""
    max_own = max(supp, default=0)
    stored = np.zeros(max_own + 1, dtype=bool)
    stored[list(supp)] = True
    cds, group = np.unique(slot_cdeg, return_inverse=True)
    pattern = np.zeros((1, 0), dtype=np.int64)
    own = comp = np.zeros(1, dtype=np.int64)
    for cd, nxt in zip(cds.tolist(), cds[1:].tolist() + [trunc + 1]):
        room = max_own - own if cd == 0 else np.minimum(max_own - own, (trunc - comp) // cd)
        row, add = _int64_ranges(room + 1)
        own, comp = own[row] + add, comp[row] + add * cd
        keep = stored[own] | ((own < max_own) & (comp + nxt <= trunc))
        pattern = np.column_stack([pattern[row], add])[keep]
        own, comp = own[keep], comp[keep]
    keep = stored[own]
    pattern, own, comp = pattern[keep], own[keep], comp[keep]
    tables = [_multisets(np.count_nonzero(group == g), pattern[:, g].max(initial=0))
              for g in range(len(cds))]
    sizes = np.ones(len(pattern), dtype=np.int64)
    for g, (_, _, starts) in enumerate(tables):
        sizes *= np.diff(starts)[pattern[:, g]]
    rows, offset = _int64_ranges(sizes)
    radix = max_own + 1
    pad = (len(slot_cdeg) + 1) * radix
    parts = [np.empty((len(rows), 0), dtype=np.int64)]
    for g, (index, count, starts) in enumerate(tables):
        k = pattern[rows, g]
        offset, digit = np.divmod(offset, np.diff(starts)[k])
        slot = np.flatnonzero(group == g)[index] + 1
        parts.append(np.where(count > 0, slot * radix + count, pad).take(starts[k] + digit, axis=0))
    codes = np.concatenate(parts, axis=1)
    codes.sort(axis=1)
    codes = codes[:, : int(np.count_nonzero(codes.min(axis=0, initial=pad) < pad))]
    codes[codes == pad] = 0
    own, comp = own[rows], comp[rows]
    order = np.lexsort(np.column_stack([own, codes]).T[::-1])
    slot, exp = np.divmod(codes[order], radix)
    return own[order], comp[order], slot - 1, exp


def _int64_tower(arch, trunc):
    """Every level as _pack_level built it before narrow dtypes: int64 index
    arrays."""
    levels, prev = [], None
    for q, spec in enumerate(arch.activations):
        lv = pf._Level()
        lv.level, lv.prev = q, prev
        if q == 0:
            lv.n_slots = arch.input_dim
            slot_cdeg = np.ones(arch.input_dim, dtype=np.int64)
        else:
            h = arch.widths[q - 1]
            lv.n_slots = h * len(prev.own_degree)
            slot_cdeg = np.tile(prev.composed_degree, h)
        own, comp, pos, exp = _int64_level_indices(slot_cdeg, act.support_degrees(spec, trunc), trunc)
        m = len(own)
        if pos.shape[1] == 0:
            pos, exp = np.full((m, 1), -1, dtype=np.int64), np.zeros((m, 1), dtype=np.int64)
        lv.terms_pos, lv.terms_exp = np.where(pos < 0, lv.n_slots, pos), exp
        lv.own_degree, lv.composed_degree = own, comp
        lv.gamma = pf._multinomials(exp, q) * np.array(act.taylor_series(spec, trunc))[own]
        lv.max_exp = int(exp.max(initial=0))
        lv.metric = lv.gamma.copy() if q == 0 else lv.gamma * lv.compose(prev.metric)
        levels.append(lv)
        prev = lv
    return pf.FlatSpace(arch, levels)


_TOWER_KINDS = [
    act.tanh(), act.erf(), act.exp(), act.logistic(), act.linear(),
    act.polynomial((0.5, 1.0, 0.3, -0.2)), act.polynomial((0.0, 1.0, 0.0, 0.0, 0.3)),
]


@st.composite
def _small_towers(draw):
    depth = draw(st.integers(1, 3))
    widths = tuple(draw(st.lists(st.integers(1, 3), min_size=depth - 1, max_size=depth - 1)))
    kinds = tuple(draw(st.sampled_from(_TOWER_KINDS)) for _ in range(depth))
    arch = netcore.Architecture(draw(st.integers(1, 3)), widths + (1,), kinds)
    trunc = draw(st.integers(1, 6))
    assume(sum(pf.level_counts(arch, trunc)) <= 4000)
    return arch, trunc


@given(_small_towers())
# an exponent of 128: exponents, own and composed degrees go to int16
@example((netcore.Architecture(1, (1, 1), (act.exp(), act.linear())), 128))
# the tower workload's tower: its 1,192 top-level slots go to int16
@example((netcore.Architecture(2, (3, 2, 1), (act.tanh(),) * 3), 5))
# 34,000 slots on level 1: slots go to int32
@example((netcore.Architecture(200, (170, 1), (act.linear(), act.linear())), 1))
def test_compact_tower_is_the_int64_tower(arch_trunc):
    arch, trunc = arch_trunc
    space, ref = pf._tower(arch, trunc), _int64_tower(arch, trunc)
    for lv, want, xexp in zip(space.levels, ref.levels, _eager_xexp(ref)):
        top = max(act.support_degrees(arch.activations[lv.level], trunc), default=0)
        # each index array in the narrowest signed dtype for its range
        bounds = {
            "terms_pos": lv.n_slots, "terms_exp": top, "own_degree": top,
            "composed_degree": trunc, "xexp": trunc,
        }
        for name, bound in bounds.items():
            got = getattr(lv, name)
            assert got.dtype == np.min_scalar_type(-1 - bound), (lv.level, name, got.dtype)
            assert np.array_equal(got, xexp if name == "xexp" else getattr(want, name)), name
        # compose's gather columns: narrow for the table's width, equal to the
        # int64 tower's np.unique table
        slots, _, gather = lv.table
        width = 1 + lv.n_slots + len(slots)
        for got, col in zip(gather, _unique_table(want)[2]):
            assert got.dtype == np.min_scalar_type(-1 - width), (lv.level, got.dtype)
            assert np.array_equal(got, col), lv.level
        assert lv.max_exp == want.max_exp
        assert _same_bits(_gamma(arch, trunc, lv), want.gamma), lv.level
        assert _same_bits(lv.metric, want.metric), lv.level
    assert "".join(pf.dump_series(pf.SeriesVector(space.top.metric, space.top))) == _per_line_dump(
        pf.SeriesVector(ref.top.metric, ref.top)
    )


@given(_small_towers())
# the tower workload's tower
@example((netcore.Architecture(2, (3, 2, 1), (act.tanh(),) * 3), 5))
def test_tag_ids_dump_the_reference_tags_bytes(arch_trunc):
    arch, trunc = arch_trunc
    space = pf.flat_space(arch, trunc)
    for lv in space.levels:
        assert _id_tags(lv) == _reference_tags(lv), lv.level
    layers, _ = pf.pushed_weights(arch, netcore.init_weights(arch, seed=1), trunc)
    for vec in (pf.flatten_metric(arch, trunc), layers[0]):
        assert "".join(pf.dump_series(vec)) == _per_line_dump(vec)


def test_a_tower_build_peaks_under_two_mib():
    # the tower workload's tower: with count patterns and per-group multiset
    # tables the build peaked at 2.23 MiB traced, with the walk at 1.47 MiB
    arch = netcore.Architecture(2, (3, 2, 1), (act.tanh(),) * 3)
    pf._tower(arch, 5)  # the coefficient streams, cached, are not the build's
    tracemalloc.start()
    try:
        pf._tower(arch, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * (1 << 20), peak


def test_a_dump_layout_builds_no_str_per_stored_index():
    # the tower workload's tower: with one tag str per stored index (16,532)
    # the layout build peaked at 3.0 MiB traced for 1.0 MiB kept, and from
    # tag ids at 0.98 MiB for 0.34 MiB kept
    arch = netcore.Architecture(2, (3, 2, 1), (act.tanh(),) * 3)
    space = pf._tower(arch, 5)
    tracemalloc.start()
    try:
        space.top.dump_layout
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (1 << 20), peak


# ---------------------------------------------------------------------------
# the tower cache: its byte budget and its size guard
# ---------------------------------------------------------------------------

def _cache_archs(n):
    return [poly_arch(2, (2, 1), [[0.0, 1.0, 0.5 + k / 64], [0.0, 1.0, 0.25]]) for k in range(n)]


def test_tower_cache_evicts_the_least_recently_used_past_its_byte_budget(monkeypatch):
    a, b, c, e = _cache_archs(4)
    size = pf._tower(a, 4).nbytes()  # the four towers have one shape, so one size
    cache = pf._LRUCache(2 * size, pf.FlatSpace.nbytes)
    monkeypatch.setattr(pf, "_TOWERS", cache)
    space_a, space_b = pf.flat_space(a, 4), pf.flat_space(b, 4)
    assert cache.info().nbytes == 2 * size
    pf.flat_space(c, 4)  # past the budget: a, the oldest, goes
    assert cache.info().entries == 2
    assert pf.flat_space(b, 4) is space_b  # a hit: now c is the oldest
    misses = cache.misses
    assert pf.flat_space(a, 4) is not space_a and cache.misses == misses + 1
    assert set(cache._values) == {(b, 4), (a, 4)}
    pf.flat_space(b, 4)  # a hit: now a is the oldest
    pf.flat_space(e, 4)
    assert set(cache._values) == {(b, 4), (e, 4)}
    assert pf.flat_space(b, 4) is space_b


def test_the_size_guard_runs_on_a_tower_cache_miss_only(monkeypatch):
    cache = pf._LRUCache(pf._TOWER_BYTES, pf.FlatSpace.nbytes)
    monkeypatch.setattr(pf, "_TOWERS", cache)
    limits = []
    count = pf.level_counts
    monkeypatch.setattr(pf, "level_counts", lambda *args: limits.append(args[2:]) or count(*args))
    (arch,) = _cache_archs(1)
    space = pf.flat_space(arch, 4)
    assert limits == [(pf.DEFAULT_MAX_ENTRIES,)]
    assert pf.flat_space(arch, 4) is space and len(limits) == 1  # a hit counts nothing
    big = poly_arch(3, (3, 3, 1), [[0.0, 1.0, 0.1, 0.1]] * 3)
    for _ in range(2):  # a refused tower is not cached: each call is a miss
        with pytest.raises(SizeLimitError) as err:
            pf.flat_space(big, 27)
        assert err.value.limit == pf.DEFAULT_MAX_ENTRIES
    assert cache.info()[:3] == (1, 3, 1)


def test_tower_cache_reads_sizes_again_and_keeps_no_tower_past_the_budget(monkeypatch):
    a, b = _cache_archs(2)
    size = pf._tower(a, 4).nbytes()
    cache = pf._LRUCache(2 * size, pf.FlatSpace.nbytes)
    monkeypatch.setattr(pf, "_TOWERS", cache)
    space_a = pf.flat_space(a, 4)
    pf.dump_series(pf.flatten_metric(a, 4))  # the dump layout grows the cached tower
    assert space_a.nbytes() > size
    pf.flat_space(b, 4)
    assert set(cache._values) == {(b, 4)}
    cache.budget = size - 1
    pf.flat_space(a, 4)
    assert cache.info().entries == 0


def test_tower_bytes_count_what_a_dump_layout_holds():
    # the tower workload's shape: the layout's distinct head and tag texts
    # are str objects, which nbytes counts by their size, not per pointer
    arch = netcore.Architecture(input_dim=2, widths=(3, 2, 1), activations=(act.tanh(),) * 3)
    space = pf._tower(arch, 5)
    # level 0's members are built at their first read, and counted from then:
    # its exponents, then the table of its first compose (its metric took none)
    lv, before = space.levels[0], space.nbytes()
    assert not {"xexp", "table", "dump_layout"} & set(vars(lv))
    xexp = lv.xexp
    assert space.nbytes() == before + xexp.nbytes
    lv.compose(np.ones((1, lv.n_slots)))
    slots, exps, gather = vars(lv)["table"]
    assert space.nbytes() == before + xexp.nbytes + sum(a.nbytes for a in (slots, exps, *gather))
    before = space.nbytes()
    tracemalloc.start()
    try:
        space.top.dump_layout
        grown = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(space.top.own_degree) == 16_532
    assert abs(space.nbytes() - before - grown) <= 0.1 * grown
