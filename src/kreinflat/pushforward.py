"""Monomial feature maps and exact flattening of deep networks.

The monomial feature map phi sends u in R^n to the vector of all monomials
phi_i(u) = prod_j u_j^{i_j} indexed by multi-indices i.  Applying an entire
activation sigma(xi) = sum_k a_k xi^k to a weighted inner product pushes the
weights through phi:

    sigma(<u, .>_mu) = <phi(u), .>_{gamma o phi(mu)},
    gamma_i = multinomial(|i|; i) * a_{|i|}.

Composing this through a network of depth d yields, level by level, an
explicit (truncated) monomial space on which the network is a *flat* machine
f(x) = sum_i g_i v_i phi_i(x):

  * level 0 lives on the input coordinates;
  * level l >= 1 lives on slots (b, k) = (block in 0..H_{l-1}-1, index k of
    level l-1) -- the block structure of the replication vectors is kept
    explicit because pushed weight vectors differ per block;
  * at each level only degrees in the activation's coefficient support are
    stored (anything else has metric exactly zero), own degrees and composed
    input degrees are both capped by the truncation.

Index storage is flat numpy: packed (slot, exponent) term arrays per level,
built by the same dynamic program that counts them, plus per-index gamma
coefficients, metric values, composed input exponents and per-block degree
profiles.  Each level also caches its dump layout (tags, sort order, line
prefixes) once a dump asks for it.  A size guard (SizeLimitError) bounds the
materialized entry count; exact per-level counts are available cheaply via
level_counts() without enumerating anything.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import activations as act
from .errors import SizeLimitError

DEFAULT_TRUNCATION = 8
DEFAULT_MAX_ENTRIES = 200_000

# Byte ceiling on the transient arrays of one row block of the batched
# feature map.  Whole batches of tower-sized inputs cost tens of MB; blocks
# of a few rows keep that near 2 MB at no measurable cost in time.
_BLOCK_BYTES = 2 << 20


# ---------------------------------------------------------------------------
# multi-indices
# ---------------------------------------------------------------------------

def multinomial(exponents):
    """|i|! / prod_j i_j! as an exact integer."""
    total = 0
    denom = 1
    for e in exponents:
        if e < 0:
            raise ValueError("exponents must be nonnegative")
        total += e
        denom *= math.factorial(e)
    return math.factorial(total) // denom


def _multinomials(exps):
    """Row-wise multinomial of a nonnegative (m, w) exponent array, as floats.

    Exact integers from a factorial table, each rounded once, so every value
    equals float(multinomial(row)).
    """
    exps = np.asarray(exps, dtype=np.int64)
    degrees = exps.sum(axis=1)
    fact = np.array(
        [math.factorial(k) for k in range(int(degrees.max(initial=0)) + 1)], dtype=object
    )
    return (fact[degrees] // np.prod(fact[exps], axis=1)).astype(float)


def iter_exponents(n, max_degree):
    """Dense exponent tuples over n positions, graded-lex ascending."""
    def compositions(slots, total):
        if slots == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(slots - 1, total - first):
                yield (first,) + rest

    for total in range(max_degree + 1):
        yield from compositions(n, total)


# ---------------------------------------------------------------------------
# series vectors
# ---------------------------------------------------------------------------

class SeriesVector:
    """Real coefficients on monomial multi-indices of degree <= truncation.

    Anything not stored is exactly zero.  Vectors built on the same space
    (same plain (n, T) enumeration, or the same flattening level of the same
    architecture) are positionwise aligned, which is what flat_inner needs.
    """

    __slots__ = ("dimension", "truncation", "values", "_space", "_entries")

    def __init__(self, dimension, truncation, values, space):
        self.dimension = int(dimension)
        self.truncation = int(truncation)
        self.values = np.asarray(values, dtype=float)
        self._space = space
        self._entries = None

    @property
    def entries(self):
        """dict exponent tuple -> value over the nonzero stored entries.

        An exponent tuple has one entry per position of the space: an input
        coordinate for plain vectors and level 0, a slot above level 0.
        """
        if self._entries is None:
            rows = self._space.exponent_rows().tolist()
            self._entries = {
                tuple(k): v for k, v in zip(rows, self.values.tolist()) if v != 0.0
            }
        return self._entries

    def value_at(self, exponents):
        key = tuple(int(e) for e in exponents)
        if any(e < 0 for e in key):
            raise ValueError("exponents must be nonnegative")
        if len(key) != self.dimension or sum(key) > self.truncation:
            return 0.0
        return self.entries.get(key, 0.0)

    def aligned_with(self, other):
        return isinstance(other, SeriesVector) and self._space is other._space

    def stable_keys(self):
        """T-independent nested identities of the stored indices.

        Plain vectors: the dense exponent tuple.  Tower vectors: a nested
        tuple ((block, child identity), exponent), suitable for matching
        entries across different truncations.
        """
        return self._space.stable_keys()

    def composed_exponents(self):
        """Total input-coordinate exponents per stored index, shape (m, D)."""
        return self._space.composed_exponents()

    def __repr__(self):
        return (
            f"SeriesVector(dim={self.dimension}, trunc={self.truncation}, "
            f"stored={len(self.values)})"
        )


def flat_inner(metric, *vectors):
    """sum_i g_i * prod_v v_i over the shared index space."""
    if not vectors:
        raise ValueError("need at least one vector")
    for v in vectors:
        if not metric.aligned_with(v):
            raise ValueError("series vectors live on different spaces or truncations")
    prod = metric.values.copy()
    for v in vectors:
        prod *= v.values
    return float(np.sum(prod))


def flat_eval(weight_vec, feature_vec, metric_vec):
    """The flat machine value sum_i g_i v_i phi_i(x)."""
    return flat_inner(metric_vec, weight_vec, feature_vec)


# ---------------------------------------------------------------------------
# index spaces: the dump layout every space shares
# ---------------------------------------------------------------------------

class _IndexSpace:
    """Stored indices with composed exponents and tags; caches its dump layout."""

    __slots__ = ("_layout",)

    def dump_layout(self):
        """(permutation, line prefixes) of a dump, computed once per space.

        Rows sort by (degree, exponents, tag); the sort is stable, so ties
        keep stored order.  prefixes[j] belongs to row permutation[j].
        """
        if self._layout is None:
            xexp = self.composed_exponents()
            tags = self.tags()
            rows, row_of = np.unique(xexp, axis=0, return_inverse=True)
            _, tag_rank = np.unique(np.array(tags, dtype=object), return_inverse=True)
            # np.lexsort's last key is the primary one
            perm = np.lexsort([tag_rank.ravel(), *xexp.T[::-1], xexp.sum(axis=1)])
            heads = [" ".join(map(str, row)) for row in rows.tolist()]
            prefixes = [
                f"{heads[r]} | {tags[i]} | "
                for i, r in zip(perm.tolist(), row_of.ravel()[perm].tolist())
            ]
            self._layout = (perm, prefixes)
        return self._layout


# ---------------------------------------------------------------------------
# plain (dense) spaces: monomial features and push-forward weights on R^n
# ---------------------------------------------------------------------------

class _PlainSpace(_IndexSpace):
    __slots__ = ("n", "truncation", "exps")

    def __init__(self, n, truncation):
        self.n = n
        self.truncation = truncation
        self.exps = np.array(list(iter_exponents(n, truncation)), dtype=np.int64)
        self._layout = None

    def exponent_rows(self):
        return self.exps

    def stable_keys(self):
        return [tuple(e) for e in self.exps.tolist()]

    def composed_exponents(self):
        return self.exps

    def tags(self):
        return ["-"] * len(self.exps)


@lru_cache(maxsize=128)
def _plain_space(n, truncation):
    count = sum(math.comb(n + k - 1, k) for k in range(truncation + 1))
    if count > DEFAULT_MAX_ENTRIES:
        raise SizeLimitError(
            f"{count} monomials for n={n}, truncation={truncation}",
            requested=count,
            limit=DEFAULT_MAX_ENTRIES,
        )
    return _PlainSpace(n, truncation)


def monomial_features(x, truncation):
    """phi(x): every monomial of x up to total degree ``truncation``."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("x must be a nonempty vector")
    space = _plain_space(x.size, int(truncation))
    vals = np.prod(x[None, :] ** space.exps, axis=1)
    return SeriesVector(x.size, truncation, vals, space)


def gamma_weights(spec, n, truncation):
    """The pushed metric on R^n: gamma_i = multinomial(|i|; i) * a_{|i|}."""
    space = _plain_space(int(n), int(truncation))
    degs = space.exps.sum(axis=1)
    coeff = np.array([act.taylor_coefficient(spec, k) for k in range(int(truncation) + 1)])
    return SeriesVector(n, truncation, _multinomials(space.exps) * coeff[degs], space)


def pushforward_check(spec, vectors, mu, truncation):
    """(lhs, rhs) of the scalar push-forward identity for one activation.

    lhs = sigma(sum_j mu_j prod_v v_j); rhs re-assembles it from the pushed
    metric gamma o phi(mu) and the monomial features of every vector, up to
    the truncation degree.
    """
    mu = np.asarray(mu, dtype=float)
    vs = [np.asarray(v, dtype=float) for v in vectors]
    if not vs:
        raise ValueError("need at least one vector")
    if any(v.shape != mu.shape for v in vs) or mu.ndim != 1:
        raise ValueError("mu and all vectors must share one dimension")
    inner = float(np.sum(mu * np.prod(np.stack(vs), axis=0)))
    lhs = act.evaluate(spec, inner)
    gamma = gamma_weights(spec, mu.size, truncation)
    feats = [monomial_features(v, truncation) for v in vs]
    rhs = flat_inner(gamma, monomial_features(mu, truncation), *feats)
    return lhs, rhs


# ---------------------------------------------------------------------------
# the flattening tower
# ---------------------------------------------------------------------------

class _Level(_IndexSpace):
    """One composition level: slots, stored indices, and their invariants.

    Row i of terms_pos/terms_exp holds index i's (slot, exponent) pairs in
    ascending slot order, padded with the pad slot n_slots and exponent 0.
    """

    __slots__ = (
        "level",
        "n_slots",
        "slot_block",
        "slot_prev",
        "terms_pos",
        "terms_exp",
        "own_degree",
        "composed_degree",
        "gamma",
        "metric",
        "block_profile",
        "xexp",
        "prev",
        "_power_exps",
        "_gather",
        "_tags",
        "_stable_cache",
    )

    def _pairs(self):
        """Each stored index's (slot, exponent) pairs, row by row."""
        return (
            [(p, e) for p, e in zip(prow, erow) if e]
            for prow, erow in zip(self.terms_pos.tolist(), self.terms_exp.tolist())
        )

    def exponent_rows(self):
        """Dense exponents over the slots, shape (m, n_slots)."""
        dense = np.zeros((len(self.own_degree), self.n_slots + 1), dtype=np.int64)
        np.put_along_axis(dense, self.terms_pos, self.terms_exp, axis=1)
        return dense[:, : self.n_slots]

    def stable_keys(self):
        if self._stable_cache is None:
            if self.level == 0:
                self._stable_cache = [tuple(row) for row in self.xexp.tolist()]
            else:
                prev_stable = self.prev.stable_keys()
                slot = [
                    (b, prev_stable[k])
                    for b, k in zip(self.slot_block.tolist(), self.slot_prev.tolist())
                ]
                self._stable_cache = [
                    tuple(sorted((slot[p], e) for p, e in pairs)) for pairs in self._pairs()
                ]
        return self._stable_cache

    def composed_exponents(self):
        return self.xexp

    def tags(self):
        """Tags built once, bottom-up from the tags of the level below.

        Level 0 names input monomials (x0^2*x1); above it a slot reads
        block:(child tag), where children at level 0 print as "-".
        """
        if self._tags is None:
            if self.level == 0:
                slots = [f"x{p}" for p in range(self.n_slots)]
            else:
                prev = self.prev
                child = prev.tags() if prev.level > 0 else ["-"] * len(prev.own_degree)
                slots = [
                    f"{b}:({child[k]})"
                    for b, k in zip(self.slot_block.tolist(), self.slot_prev.tolist())
                ]
            # pieces laid out like compose's power table, so _gather picks a
            # row's pieces column by column; the pad slot and exponent 0 are ""
            pieces = np.full(self._power_exps.shape, "", dtype=object)
            for e in range(1, len(pieces)):
                pieces[e, :-1] = [s + (f"^{e}" if e > 1 else "") for s in slots]
            pieces = pieces.ravel()
            tags = pieces[self._gather[0]]
            for col in self._gather[1:]:
                part = pieces[col]
                more = part != ""
                tags[more] = tags[more] + "*" + part[more]
            tags[tags == ""] = "1"
            self._tags = tags.tolist()
        return self._tags

    def compose(self, slot_values):
        """prod over packed terms of slot_values[..., pos]**exp, per leading row.

        Powers come from a table of every slot value to every exponent, built
        by an elementwise power over a full exponent array: numpy's fast path
        for a broadcast scalar exponent rounds differently.  Each index then
        multiplies its gathered table entries left to right.
        """
        s = np.asarray(slot_values, dtype=float)
        lead = s.shape[:-1]
        rows = s.reshape(-1, self.n_slots)
        padded = np.concatenate([rows, np.ones((len(rows), 1))], axis=1)
        table = np.power(padded[:, None, :], self._power_exps).reshape(len(rows), -1)
        out = np.take(table, self._gather[0], axis=1)
        factor = np.empty_like(out)
        for col in self._gather[1:]:
            out *= np.take(table, col, axis=1, out=factor)
        return out.reshape(lead + (len(self.own_degree),))


class FlatSpace:
    """All levels of the truncated flat space for one architecture."""

    def __init__(self, arch, truncation, levels):
        self.arch = arch
        self.truncation = truncation
        self.levels = levels

    @property
    def top(self):
        return self.levels[-1]


def level_counts(arch, truncation):
    """Exact stored-index count per level, computed without enumeration.

    Dynamic program over (composed degree, own degree) using the multiset
    generating function of the slot histogram; used both by the size guard
    and by architecture generators that must stay desk-sized.
    """
    trunc = int(truncation)
    counts = []
    # histogram of composed degree over stored indices of the previous level
    hist = {1: arch.input_dim}  # level-0 "slots" are the D inputs, degree 1
    for q in range(arch.depth):
        supp = act.support_degrees(arch.activations[q], trunc)
        if q > 0:
            hist = {cd: arch.widths[q - 1] * m for cd, m in hist.items()}
        max_own = max(supp) if supp else 0
        table = {(0, 0): 1}
        for cd, m in sorted(hist.items()):
            new = dict(table)
            for (t, k), ways in table.items():
                for e in range(1, max_own - k + 1):
                    t2 = t + e * cd
                    if t2 > trunc:
                        break
                    w = ways * math.comb(m + e - 1, e)
                    key = (t2, k + e)
                    new[key] = new.get(key, 0) + w
            table = new
        level_hist = {}
        for (t, k), ways in table.items():
            if k in supp:
                level_hist[t] = level_hist.get(t, 0) + ways
        counts.append(sum(level_hist.values()))
        hist = level_hist
    return counts


def _multisets(m, e):
    """Every multiset of e draws from range(m) as (index, count) rows of width e.

    Row r lists its distinct indices ascending; pads are index -1, count 0.
    """
    draws = np.arange(m, dtype=np.int64)[:, None]
    for _ in range(e - 1):  # extend each nondecreasing draw by every j >= its last
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


def _level_indices(slot_cdeg, supp, trunc):
    """The stored indices of one level, in stored order.

    level_counts' dynamic program with index arrays in place of counts: slots
    are taken in groups of equal composed degree, ascending, and every
    partial index is extended by each multiset of e slots of the group that
    keeps its own degree <= max(supp) and its composed degree <= trunc.  A
    partial index that is not stored and cannot take a slot of a later group
    is dropped.  A row's pairs fill its columns from the left, so max(supp)
    columns always suffice.  Stored indices (own degree in supp) are sorted
    by own degree, then by their (slot, exponent) pairs as a tuple.

    Returns (own degree, composed degree, slots, exponents); slots and
    exponents are (m, w) with pads -1 and 0.
    """
    max_own = max(supp, default=0)
    own = np.zeros(1, dtype=np.int64)
    comp = np.zeros(1, dtype=np.int64)
    pos = np.full((1, max_own), -1, dtype=np.int64)
    exp = np.zeros((1, max_own), dtype=np.int64)
    groups = np.unique(slot_cdeg).tolist()
    for cd, nxt in zip(groups, groups[1:] + [trunc + 1]):

        def alive(o, c):  # stored, or able to take a slot of a later group
            return np.isin(o, supp) | ((o < max_own) & (c + nxt <= trunc))

        slots = np.flatnonzero(slot_cdeg == cd)
        keep = alive(own, comp)
        parts = [(own[keep], comp[keep], pos[keep], exp[keep])]
        for e in range(1, max_own + 1):
            rows = np.flatnonzero((own + e <= max_own) & (comp + e * cd <= trunc))
            if rows.size == 0:
                break  # both bounds only tighten as e grows
            rows = rows[alive(own[rows] + e, comp[rows] + e * cd)]
            if rows.size == 0:
                continue
            index, count = _multisets(len(slots), e)
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
    # each row's pairs by slot, pads last; then drop the all-pad columns
    order = np.argsort(np.where(pos < 0, len(slot_cdeg), pos), axis=1, kind="stable")
    pos = np.take_along_axis(pos, order, axis=1)
    exp = np.take_along_axis(exp, order, axis=1)
    width = int(np.count_nonzero(exp, axis=1).max(initial=0))
    pos, exp = pos[:, :width], exp[:, :width]
    # np.lexsort's last key is the primary one; a pad (-1) sorts before any
    # slot, so a pair tuple sorts before its extensions
    keys = [own]
    for col in range(width):
        keys += [pos[:, col], exp[:, col]]
    order = np.lexsort(keys[::-1])
    return own[order], comp[order], pos[order], exp[order]


def _pack_level(level_no, arch, prev, trunc):
    lv = _Level.__new__(_Level)
    lv.level = level_no
    lv.prev = prev
    lv._layout = None
    lv._tags = None
    lv._stable_cache = None
    if level_no == 0:
        lv.n_slots = arch.input_dim
        lv.slot_block = None
        lv.slot_prev = None
        slot_cdeg = np.ones(arch.input_dim, dtype=np.int64)
        slot_xexp = np.eye(arch.input_dim, dtype=np.int64)
    else:
        h = arch.widths[level_no - 1]
        n_prev = len(prev.own_degree)
        lv.n_slots = h * n_prev
        lv.slot_block = np.repeat(np.arange(h, dtype=np.int64), n_prev)
        lv.slot_prev = np.tile(np.arange(n_prev, dtype=np.int64), h)
        slot_cdeg = np.tile(prev.composed_degree, h)
        slot_xexp = np.tile(prev.xexp, (h, 1))

    spec = arch.activations[level_no]
    supp = act.support_degrees(spec, trunc)
    own, comp, pos, exp = _level_indices(slot_cdeg, supp, trunc)
    m = len(own)
    if pos.shape[1] == 0:  # keep one (pad) column
        pos = np.full((m, 1), -1, dtype=np.int64)
        exp = np.zeros((m, 1), dtype=np.int64)
    terms_pos = np.where(pos < 0, lv.n_slots, pos)  # pad slot
    terms_exp = exp
    width = terms_pos.shape[1]
    lv.terms_pos = terms_pos
    lv.terms_exp = terms_exp
    lv.own_degree = own
    lv.composed_degree = comp
    coeff = np.array([act.taylor_coefficient(spec, k) for k in range(trunc + 1)])
    lv.gamma = _multinomials(terms_exp) * coeff[own]

    # compose(): exponent grid of the power table and flat gather indices
    max_exp = int(terms_exp.max(initial=0))
    lv._power_exps = np.repeat(np.arange(max_exp + 1, dtype=np.int64), lv.n_slots + 1).reshape(
        max_exp + 1, lv.n_slots + 1
    )
    lv._gather = list(terms_exp.T * (lv.n_slots + 1) + terms_pos.T)

    # composed input exponents
    xexp = np.zeros((m, arch.input_dim), dtype=np.int64)
    padded_xexp = np.vstack([slot_xexp, np.zeros((1, arch.input_dim), dtype=np.int64)])
    for col in range(width):
        xexp += terms_exp[:, col : col + 1] * padded_xexp[terms_pos[:, col]]
    lv.xexp = xexp

    # per-block degree profile (weight generators need it above level 0)
    if level_no >= 1:
        h = arch.widths[level_no - 1]
        bp = np.zeros((m, h), dtype=np.int64)
        padded_block = np.concatenate([lv.slot_block, [0]])
        rows = np.arange(m)
        for col in range(width):
            blocks = padded_block[terms_pos[:, col]]
            np.add.at(bp, (rows, blocks), terms_exp[:, col])
        lv.block_profile = bp
    else:
        lv.block_profile = None

    # metric recursion: g = gamma o phi(previous metric replicated over blocks)
    if level_no == 0:
        lv.metric = lv.gamma.copy()
    else:
        slot_metric = np.tile(prev.metric, arch.widths[level_no - 1])
        lv.metric = lv.gamma * lv.compose(slot_metric)
    return lv


@lru_cache(maxsize=24)
def _tower(arch, trunc):
    """Every level of the tower; each must store exactly level_counts' count."""
    counts = level_counts(arch, trunc)
    levels = []
    prev = None
    for q in range(arch.depth):
        prev = _pack_level(q, arch, prev, trunc)
        if len(prev.own_degree) != counts[q]:
            raise AssertionError(
                f"level {q} stores {len(prev.own_degree)} indices, "
                f"the count recursion says {counts[q]}"
            )
        levels.append(prev)
    return FlatSpace(arch, trunc, levels)


def flat_space(arch, truncation, max_entries=DEFAULT_MAX_ENTRIES):
    """The flattening tower of an architecture, built once per (arch, truncation).

    The size guard runs on every call, so a cached tower is still refused to
    a caller whose max_entries it exceeds.
    """
    trunc = int(truncation)
    if trunc < 1:
        raise ValueError("truncation must be at least 1")
    worst = max(level_counts(arch, trunc))
    if worst > max_entries:
        raise SizeLimitError(
            f"flat space needs {worst} entries at one level "
            f"(limit {max_entries}); lower the truncation or the widths",
            requested=worst,
            limit=max_entries,
        )
    return _tower(arch, trunc)


flat_space.cache_info = _tower.cache_info


# ---------------------------------------------------------------------------
# the flat vectors
# ---------------------------------------------------------------------------

def _feature_values(space, xs):
    """Feature values of every level for the rows of xs: (N, m_q) per level."""
    vals = xs
    out = []
    for level in space.levels:
        if level.level > 0:
            vals = np.tile(vals, (1, space.arch.widths[level.level - 1]))
        vals = level.compose(vals)
        out.append(vals)
    return out


def _block_rows(space):
    """Rows per block of the batched feature map, from _BLOCK_BYTES."""
    # per row and level: the power table, the product and one gathered factor
    row_bytes = 8 * sum(lv._power_exps.size + 2 * len(lv.own_degree) for lv in space.levels)
    return max(1, _BLOCK_BYTES // row_bytes)


def feature_blocks(arch, xs, truncation=DEFAULT_TRUNCATION):
    """Top-level features of the rows of xs (N, D), one row block at a time.

    Yields (n_b, m) arrays whose rows follow xs; the block size keeps each
    block's transient arrays under a fixed byte ceiling.
    """
    space = flat_space(arch, truncation)
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != arch.input_dim:
        raise ValueError(f"inputs of shape {xs.shape} are not rows of length {arch.input_dim}")
    step = _block_rows(space)
    for start in range(0, len(xs), step):
        yield _feature_values(space, xs[start : start + step])[-1]


def _wrap(space, level, values):
    return SeriesVector(level.n_slots, space.truncation, values, level)


def _point_features(space, x):
    x = np.asarray(x, dtype=float)
    if x.shape != (space.arch.input_dim,):
        raise ValueError(f"input shape {x.shape} != ({space.arch.input_dim},)")
    return [v[0] for v in _feature_values(space, x[None])]


def flatten_feature_map(
    arch, x, truncation=DEFAULT_TRUNCATION, *, level=None, max_entries=DEFAULT_MAX_ENTRIES
):
    """The composed feature map of the network at input x.

    Returns the top level by default; ``level=q`` returns the intermediate
    feature vector after q compositions (level 0 is phi restricted to the
    stored support of the first activation).
    """
    space = flat_space(arch, truncation, max_entries)
    values = _point_features(space, x)
    pick = arch.depth - 1 if level is None else int(level)
    return _wrap(space, space.levels[pick], values[pick])


def flatten_metric(
    arch,
    truncation=DEFAULT_TRUNCATION,
    *,
    variant="krein",
    level=None,
    max_entries=DEFAULT_MAX_ENTRIES,
):
    """The flat metric of the network (variant "associated" takes |g|)."""
    if variant not in ("krein", "associated"):
        raise ValueError(f"unknown variant {variant!r}")
    space = flat_space(arch, truncation, max_entries)
    pick = arch.depth - 1 if level is None else int(level)
    lv = space.levels[pick]
    vals = np.abs(lv.metric) if variant == "associated" else lv.metric.copy()
    return _wrap(space, lv, vals)


def _weight_values(space, weights, q):
    """Values of the pushed weight vector of layer q on the top level."""
    arch = space.arch
    d = arch.depth
    levels = space.levels
    w = np.asarray(weights[q], dtype=float)
    if q == d - 1:
        # output layer: a single row, expanded directly on the top level
        top = levels[d - 1]
        if d == 1:
            vals = np.prod(w[0][None, :] ** top.xexp, axis=1)
        else:
            vals = np.prod(w[0][None, :] ** top.block_profile, axis=1)
        return vals
    # rows of W_q become per-block generator values on the slots of level q+1
    stack = levels[q + 1]
    if q == 0:
        base = levels[0].xexp  # exponents over input coordinates
    else:
        base = levels[q].block_profile  # exponents over previous blocks
    gen = np.prod(w[:, None, :] ** base[None, :, :], axis=2)  # (H_q, n_idx_q)
    vals = stack.compose(gen.reshape(-1))
    for lvl in range(q + 2, d):
        vals = levels[lvl].compose(np.tile(vals, arch.widths[lvl - 1]))
    return vals


def _checked_space(arch, weights, truncation, max_entries):
    from .netcore import check_shapes

    check_shapes(arch, weights)
    return flat_space(arch, truncation, max_entries)


def pushed_weights(arch, weights, truncation=DEFAULT_TRUNCATION, max_entries=DEFAULT_MAX_ENTRIES):
    """Every layer's weights pushed to the top of the flat space, in one pass.

    Returns (layers, flat): the per-layer vectors and their elementwise
    product, the flat machine's weight vector.
    """
    space = _checked_space(arch, weights, truncation, max_entries)
    layers = [_weight_values(space, weights, q) for q in range(arch.depth)]
    flat = np.ones(len(space.top.own_degree))
    for vals in layers:
        flat = flat * vals
    return [_wrap(space, space.top, v) for v in layers], _wrap(space, space.top, flat)


def pushforward_weights(
    arch, weights, q, truncation=DEFAULT_TRUNCATION, max_entries=DEFAULT_MAX_ENTRIES
):
    """Layer q's weights pushed to the top of the flat space."""
    space = _checked_space(arch, weights, truncation, max_entries)
    if not 0 <= q < arch.depth:
        raise ValueError(f"layer {q} out of range")
    return _wrap(space, space.top, _weight_values(space, weights, q))


def flat_weight(arch, weights, truncation=DEFAULT_TRUNCATION, max_entries=DEFAULT_MAX_ENTRIES):
    """The flat machine's weight vector: elementwise product over all layers."""
    return pushed_weights(arch, weights, truncation, max_entries)[1]


# ---------------------------------------------------------------------------
# dumps
# ---------------------------------------------------------------------------

def dump_series(vec):
    """Deterministic text dump: exponents | block tag | value, graded-lex.

    One line per nonzero stored entry.  The exponent tuple is over the input
    coordinates (composed through all levels for tower vectors); the tag
    pins down which hierarchical index the line belongs to.
    """
    perm, prefixes = vec._space.dump_layout()
    vals = vec.values[perm]
    keep = np.flatnonzero(vals != 0.0)
    lines = [prefixes[j] + "%.17g" % v for j, v in zip(keep.tolist(), vals[keep].tolist())]
    return "\n".join(lines) + ("\n" if lines else "")
