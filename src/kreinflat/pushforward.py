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
enumerated by count pattern (how many slots each group of equal composed
degree gives), plus per-index gamma coefficients, metric values and per-block
degree profiles.  Each level builds its composed input exponents and caches
its dump layout (tags, sort order, line prefixes) once something reads them.
A size guard (SizeLimitError) bounds the materialized entry count; exact
per-level counts are available cheaply (and memoised) via level_counts()
without enumerating anything.  flat_space keeps built towers within a byte
budget.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

import numpy as np

from . import activations as act
from . import netcore
from .errors import DomainError, SizeLimitError

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


# the least integer that rounds past the largest float
_FLOAT_OVERFLOW = 2**1024 - 2**970


# k! for k <= 20, the factorials that fit in int64
_INT64_FACTORIALS = np.array([math.factorial(k) for k in range(21)], dtype=np.int64)


def _multinomials(exps, level=None):
    """Row-wise multinomial of a nonnegative (m, w) exponent array, as floats.

    Exact integers from a factorial table, each rounded once, so every value
    equals float(multinomial(row)).  Up to degree 20 the table is int64: every
    factorial fits, and prod_j e_j! divides (sum_j e_j)!, so no product
    overflows.  Above it, rows are keyed by their degree and sorted exponents,
    so each distinct multiset is computed once with Python integers.  A value
    past the float range raises DomainError naming the least such degree (and
    the tower ``level`` when given).
    """
    exps = np.asarray(exps, dtype=np.int64)
    degrees = exps.sum(axis=1)
    top = int(degrees.max(initial=0))
    if top < len(_INT64_FACTORIALS):
        fact = _INT64_FACTORIALS
        return (fact[degrees] // np.prod(fact[exps], axis=1)).astype(float)
    exps = np.sort(exps, axis=1)
    keys = _packed_keys(np.column_stack([degrees, exps]), top + 1)
    order = np.lexsort(keys[::-1])
    heads = np.ones(len(order), dtype=bool)
    heads[1:] = np.any([key[order[1:]] != key[order[:-1]] for key in keys], axis=0)
    fact = np.array([math.factorial(k) for k in range(top + 1)], dtype=object)
    first = order[heads]
    exact = fact[degrees[first]] // np.prod(fact[exps[first]], axis=1)
    try:
        values = exact.astype(float)
    except OverflowError:
        degree = int(degrees[first][exact >= _FLOAT_OVERFLOW].min())
        where = "" if level is None else f"level {level}: "
        raise DomainError(
            f"{where}a multinomial of degree {degree} exceeds the float range", layer=level
        ) from None
    out = np.empty(len(order))
    out[order] = values[np.cumsum(heads) - 1]
    return out


def _packed_keys(cols, radix):
    """int64 keys, most significant first, that order the rows of cols (entries
    in range(radix)) as their columns do; each key packs as many columns as fit."""
    per = max(1, 63 // int(radix).bit_length())
    keys = []
    for start in range(0, cols.shape[1], per):
        key = np.zeros(len(cols), dtype=np.int64)
        for col in cols[:, start : start + per].T:
            key = key * radix + col
        keys.append(key)
    return keys


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
        if self.values.ndim != 1:
            raise ValueError("a stacked vector has no entries; take row j with like(values[j])")
        if self._entries is None:
            rows = self._space.exponent_rows().tolist()
            self._entries = {
                tuple(k): v for k, v in zip(rows, self.values.tolist()) if v != 0.0
            }
        return self._entries

    def like(self, values):
        """A vector holding ``values`` on this vector's space."""
        return SeriesVector(self.dimension, self.truncation, values, self._space)

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
        keep stored order.  prefixes[j], an object array of str, belongs to
        row permutation[j].
        """
        if self._layout is None:
            xexp = self.composed_exponents()
            tags = self.tags()
            rank = {t: r for r, t in enumerate(sorted(set(tags)))}
            tag_rank = np.array([rank[t] for t in tags], dtype=np.int64)
            # np.lexsort's last key is the primary one
            perm = np.lexsort([tag_rank, *xexp.T[::-1], xexp.sum(axis=1)])
            # equal exponent rows are adjacent in sorted order: one head per run
            rows = xexp[perm]
            starts = np.ones(len(rows), dtype=bool)
            starts[1:] = np.any(rows[1:] != rows[:-1], axis=1)
            heads = np.array([" ".join(map(str, r)) for r in rows[starts].tolist()], dtype=object)
            tag_text = np.array(tags, dtype=object)[perm]
            prefixes = heads[np.cumsum(starts) - 1] + " | " + tag_text + " | "
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
    coeff = np.array(act.taylor_series(spec, int(truncation)))
    return SeriesVector(n, truncation, _multinomials(space.exps) * coeff[degs], space)


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
        "prev",
        "max_exp",
        "_tables",
        "_tags",
        "_stable_cache",
        "_xexp",
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

    @property
    def xexp(self):
        """Composed input exponents per stored index, (m, D), built at first read.

        Level 0's are its dense exponents.  Above it a slot carries the
        exponents of its index on the level below (the pad slot carries 0),
        and only dump layouts read them.
        """
        if self._xexp is None:
            if self.level == 0:
                self._xexp = np.ascontiguousarray(self.exponent_rows())
            else:
                below = self.prev.xexp
                padded = np.vstack([below, np.zeros_like(below[:1])])
                child = np.append(self.slot_prev, len(below))[self.terms_pos]
                self._xexp = np.einsum("mw,mwd->md", self.terms_exp, padded[child])
        return self._xexp

    def composed_exponents(self):
        return self.xexp

    def nbytes(self):
        """Bytes held by the level's arrays, compose tables and dump layout."""
        arrays = [
            self.slot_block, self.slot_prev, self.terms_pos, self.terms_exp,
            self.own_degree, self.composed_degree, self.gamma, self.metric,
            self.block_profile, self._xexp,
        ]
        for slots, exps, gather in self._tables.values():
            arrays += [slots, exps, *gather]
        if self._layout is not None:
            arrays += list(self._layout)
        return sum(a.nbytes for a in arrays if a is not None)

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
            # pieces laid out like compose's table over all slots, so its
            # gather picks a row's pieces column by column; exponent 0 is ""
            power_slots, power_exps, gather = self._table(self.n_slots)
            powers = [f"{slots[p]}^{e}" for p, e in zip(power_slots.tolist(), power_exps.tolist())]
            pieces = np.array([""] + slots + powers, dtype=object)
            tags = pieces[gather[0]]
            for col in gather[1:]:
                part = pieces[col]
                more = part != ""
                tags[more] = tags[more] + "*" + part[more]
            tags[tags == ""] = "1"
            self._tags = tags.tolist()
        return self._tags

    def _table(self, period):
        """(slots, exponents, gather columns) of compose's table, once per period.

        A table row is [1.0 | values | powers]: the values are ``period`` long
        (the period must divide the slot count), and there is one power
        values[slot]**exponent per distinct (slot mod period, exponent >= 2)
        pair that some stored index uses.
        """
        if period not in self._tables:
            if self.n_slots % period:
                raise ValueError(f"{period} values do not tile {self.n_slots} slots")
            e = self.terms_exp
            slot = (np.arange(self.n_slots + 1) % period)[self.terms_pos]  # pad slot: 0
            high = e >= 2
            # a bitmap over every (slot, exponent) code: its set cells in
            # order are the used pairs, its running count their ranks
            codes = slot[high] * (self.max_exp + 1) + e[high]
            used = np.zeros(period * (self.max_exp + 1), dtype=bool)
            used[codes] = True
            index = np.where(e == 0, 0, 1 + slot)
            index[high] = period + np.cumsum(used)[codes]
            pairs = np.flatnonzero(used)
            # columns copied contiguous: take is slower over strided indices
            self._tables[period] = (*divmod(pairs, self.max_exp + 1), list(index.T.copy()))
        return self._tables[period]

    def compose(self, values):
        """prod over packed terms of slot value**exp, per leading row.

        ``values`` covers the slots or one period of them: slot s reads
        values[..., s % L] for L = values.shape[-1].  A level's input is the
        level below repeated over the blocks, so it is passed untiled.  The
        table holds 1.0 (exponent 0 and the pad slot), each value (exponent 1)
        and only the powers >= 2 that some index uses, built by an elementwise
        power over an exponent array: numpy's fast path for a broadcast scalar
        exponent rounds differently.  Each index then multiplies its gathered
        table entries left to right, one row at a time.
        """
        s = np.asarray(values, dtype=float)
        lead, period = s.shape[:-1], s.shape[-1]
        power_slots, power_exps, gather = self._table(period)
        rows = s.reshape(-1, period)
        table = np.concatenate(
            [np.ones((len(rows), 1)), rows, np.power(rows[:, power_slots], power_exps)], axis=1
        )
        out = np.empty((len(rows), len(self.own_degree)))
        factor = np.empty(len(self.own_degree))
        # mode="clip" (the columns are in range) lets take write into out directly
        for row, entries in zip(out, table):
            entries.take(gather[0], out=row, mode="clip")
            for col in gather[1:]:
                row *= entries.take(col, out=factor, mode="clip")
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

    def nbytes(self):
        return sum(lv.nbytes() for lv in self.levels)


CacheInfo = namedtuple("CacheInfo", "hits misses entries nbytes budget")


class _LRUCache:
    """A least-recently-used map whose values' summed sizes stay within a budget.

    Sizes are read again on every insertion, since a value may grow after it
    is cached (a tower builds its tables and dump layouts lazily).  Insertion
    evicts the least recently used values until the rest fit, so a value
    larger than the whole budget is not kept.
    """

    def __init__(self, budget, size):
        self.budget = budget
        self._size = size
        self._values = {}  # least recently used first
        self.hits = self.misses = 0

    def get(self, key):
        """The value under key, marked most recent, or None."""
        value = self._values.pop(key, None)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        self._values[key] = value
        return value

    def put(self, key, value):
        self._values.pop(key, None)
        self._values[key] = value
        sizes = {k: self._size(v) for k, v in self._values.items()}
        total = sum(sizes.values())
        for k, size in sizes.items():
            if total <= self.budget:
                break
            del self._values[k]
            total -= size

    def info(self):
        nbytes = sum(self._size(v) for v in self._values.values())
        return CacheInfo(self.hits, self.misses, len(self._values), nbytes, self.budget)


# Level counts memoised per (arch, truncation), at most this many in all.
_COUNTS = _LRUCache(1024, len)


def level_counts(arch, truncation, max_entries=None):
    """Exact stored-index count per level, computed without enumeration.

    Memoised per (arch, truncation).  With max_entries, SizeLimitError when a
    level's count passes it; memoised counts answer that check, and a refused
    call reruns the count, which stops as soon as a partial count passes.
    """
    trunc = int(truncation)
    counts = _COUNTS.get((arch, trunc))
    if counts is None or (max_entries is not None and max(counts, default=0) > max_entries):
        counts = _count_levels(arch, trunc, max_entries)
        _COUNTS.put((arch, trunc), counts)
    return list(counts)


def _count_levels(arch, trunc, max_entries):
    """level_counts' dynamic program over (composed degree, own degree).

    It uses the multiset generating function of the slot histogram; used both
    by the size guard and by architecture generators that must stay
    desk-sized.  With max_entries, SizeLimitError as soon as a level's partial
    count passes it: that count only grows as slot groups are added.
    """
    counts = []
    # histogram of composed degree over stored indices of the previous level
    hist = {1: arch.input_dim}  # level-0 "slots" are the D inputs, degree 1
    for q in range(arch.depth):
        supp = set(act.support_degrees(arch.activations[q], trunc))
        if q > 0:
            hist = {cd: arch.widths[q - 1] * m for cd, m in hist.items()}
        max_own = max(supp, default=0)
        table = {(0, 0): 1}
        stored = int(0 in supp)
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
                    if k + e in supp:
                        stored += w
                if max_entries is not None and stored > max_entries:
                    raise SizeLimitError(
                        f"flat space needs more than {max_entries} entries at level {q}; "
                        "lower the truncation or the widths", requested=stored, limit=max_entries
                    )
            table = new
        level_hist = {}
        for (t, k), ways in table.items():
            if k in supp:
                level_hist[t] = level_hist.get(t, 0) + ways
        counts.append(stored)
        hist = level_hist
    return tuple(counts)


def _ranges(sizes):
    """(owner, offset) over the concatenation of range(size) for each size."""
    owner = np.repeat(np.arange(len(sizes)), sizes)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(sizes) - sizes, sizes)


def _multisets(m, e):
    """Every multiset of at most e draws from range(m), as (index, count) rows.

    Returns (index, count, starts): the multisets of k draws are rows
    starts[k]:starts[k + 1].  A row lists its distinct indices ascending,
    padded with index -1 and count 0 to width min(m, e).
    """
    width = min(m, e)
    index, count = [np.full((1, width), -1, dtype=np.int64)], [np.zeros((1, width), np.int64)]
    last = used = np.zeros(1, dtype=np.int64)  # each row's last draw and distinct indices
    for _ in range(e):  # extend each nondecreasing draw by every j >= its last
        parent, offset = _ranges(m - last)
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


def _level_indices(slot_cdeg, supp, trunc):
    """The stored indices of one level, in stored order.

    Slots fall into groups of equal composed degree.  A count pattern takes
    k_g slots (with repetition) from each group g, with sum k_g in supp and
    sum k_g * cd_g <= trunc; its indices are the Cartesian product of the
    groups' multisets, every pattern's at once.  A row's pairs are sorted by
    slot; the stored order is by own degree, then by the (slot, exponent)
    pairs as a tuple.

    Returns (own degree, composed degree, slots, exponents); slots and
    exponents are (m, w) with pads -1 and 0.
    """
    max_own = max(supp, default=0)
    stored = np.zeros(max_own + 1, dtype=bool)  # own degree -> in supp
    stored[list(supp)] = True
    cds, group = np.unique(slot_cdeg, return_inverse=True)
    # count patterns, group by group; a partial pattern that is not stored and
    # cannot take a slot of a later group is dropped
    pattern = np.zeros((1, 0), dtype=np.int64)
    own = comp = np.zeros(1, dtype=np.int64)
    for cd, nxt in zip(cds.tolist(), cds[1:].tolist() + [trunc + 1]):
        room = max_own - own if cd == 0 else np.minimum(max_own - own, (trunc - comp) // cd)
        row, add = _ranges(room + 1)
        own, comp = own[row] + add, comp[row] + add * cd
        keep = stored[own] | ((own < max_own) & (comp + nxt <= trunc))
        pattern = np.column_stack([pattern[row], add])[keep]
        own, comp = own[keep], comp[keep]
    keep = stored[own]
    pattern, own, comp = pattern[keep], own[keep], comp[keep]
    # a row's offset in its pattern's product, read in mixed radix, picks one
    # multiset per group
    tables = [_multisets(np.count_nonzero(group == g), pattern[:, g].max(initial=0))
              for g in range(len(cds))]
    sizes = np.ones(len(pattern), dtype=np.int64)
    for g, (_, _, starts) in enumerate(tables):
        sizes *= np.diff(starts)[pattern[:, g]]
    rows, offset = _ranges(sizes)
    # a pair (slot, exponent) is the code (slot + 1) * radix + exponent; pads
    # hold a code above every pair while rows are sorted, then 0
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
    codes[codes == pad] = 0  # so a pair tuple sorts before its extensions
    own, comp = own[rows], comp[rows]
    order = np.lexsort(_packed_keys(np.column_stack([own, codes]), pad)[::-1])
    slot, exp = np.divmod(codes[order], radix)
    return own[order], comp[order], slot - 1, exp


def _pack_level(level_no, arch, prev, trunc):
    lv = _Level.__new__(_Level)
    lv.level = level_no
    lv.prev = prev
    lv._layout = lv._tags = lv._stable_cache = lv._xexp = None
    lv._tables = {}  # compose()'s exponents and gather columns per period
    if level_no == 0:
        lv.n_slots = arch.input_dim
        lv.slot_block = lv.slot_prev = None
        slot_cdeg = np.ones(arch.input_dim, dtype=np.int64)
    else:
        h = arch.widths[level_no - 1]
        n_prev = len(prev.own_degree)
        lv.n_slots = h * n_prev
        lv.slot_block = np.repeat(np.arange(h, dtype=np.int64), n_prev)
        lv.slot_prev = np.tile(np.arange(n_prev, dtype=np.int64), h)
        slot_cdeg = np.tile(prev.composed_degree, h)

    spec = arch.activations[level_no]
    own, comp, pos, exp = _level_indices(slot_cdeg, act.support_degrees(spec, trunc), trunc)
    m = len(own)
    if pos.shape[1] == 0:  # keep one (pad) column
        pos = np.full((m, 1), -1, dtype=np.int64)
        exp = np.zeros((m, 1), dtype=np.int64)
    lv.terms_pos = np.where(pos < 0, lv.n_slots, pos)  # pad slot
    lv.terms_exp = exp
    lv.own_degree = own
    lv.composed_degree = comp
    lv.gamma = _multinomials(exp, level_no) * np.array(act.taylor_series(spec, trunc))[own]
    lv.max_exp = int(exp.max(initial=0))

    # above level 0, the per-block degree profile the weight generators need
    lv.block_profile = None
    if level_no >= 1:  # exponent sums per (index, block): small integers, exact in float64
        cells = np.arange(m)[:, None] * h + np.append(lv.slot_block, 0)[lv.terms_pos]
        profile = np.bincount(cells.ravel(), exp.ravel(), minlength=m * h)
        lv.block_profile = profile.astype(np.int64).reshape(m, h)

    # metric recursion: g = gamma o phi(previous metric replicated over blocks)
    lv.metric = lv.gamma.copy() if level_no == 0 else lv.gamma * lv.compose(prev.metric)
    return lv


# Byte ceiling on the towers flat_space keeps.  A tower holds about 250 bytes
# per top-level entry once dumped, so a tower at the default size guard's
# 200,000 entries takes about 50 MB.
_TOWER_BYTES = 64 << 20
_TOWERS = _LRUCache(_TOWER_BYTES, FlatSpace.nbytes)


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

    Towers are kept least recently used first within _TOWER_BYTES.  The size
    guard runs on every call, so a cached tower is still refused to a caller
    whose max_entries it exceeds.
    """
    trunc = int(truncation)
    if trunc < 1:
        raise ValueError("truncation must be at least 1")
    level_counts(arch, trunc, max_entries)  # the size guard
    space = _TOWERS.get((arch, trunc))
    if space is None:
        space = _tower(arch, trunc)
        _TOWERS.put((arch, trunc), space)
    return space


flat_space.cache_info = _TOWERS.info


# ---------------------------------------------------------------------------
# the flat vectors
# ---------------------------------------------------------------------------

def _feature_values(space, xs):
    """Feature values of every level for the rows of xs: (N, m_q) per level."""
    vals = xs
    out = []
    for level in space.levels:
        vals = level.compose(vals)  # untiled: compose repeats it over the blocks
        out.append(vals)
    return out


def _block_rows(space):
    """Rows per block of the batched feature map, from _BLOCK_BYTES."""
    # per row and level: the table (1.0, the untiled values of the level below
    # and the used powers), the gathered power bases and the product
    row_bytes = 0
    for lv in space.levels:
        period = len(lv.prev.own_degree) if lv.prev else lv.n_slots
        powers = len(lv._table(period)[1])
        row_bytes += 8 * (1 + period + 3 * powers + len(lv.own_degree))
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


def _level_index(arch, level):
    """The tower level a ``level=`` argument names: the top for None."""
    if level is None:
        return arch.depth - 1
    if isinstance(level, bool) or not isinstance(level, (int, np.integer)):
        raise ValueError(f"level must be an integer, not {level!r}")
    if not 0 <= level < arch.depth:
        raise ValueError(f"level {level} is outside range({arch.depth})")
    return int(level)


def flatten_feature_map(
    arch, x, truncation=DEFAULT_TRUNCATION, *, level=None, max_entries=DEFAULT_MAX_ENTRIES
):
    """The composed feature map of the network at input x.

    Returns the top level by default; ``level=q`` returns the intermediate
    feature vector after q compositions (level 0 is phi restricted to the
    stored support of the first activation).
    """
    space = flat_space(arch, truncation, max_entries)
    x = np.asarray(x, dtype=float)
    if x.shape != (arch.input_dim,):
        raise ValueError(f"input shape {x.shape} != ({arch.input_dim},)")
    pick = _level_index(arch, level)
    return _wrap(space, space.levels[pick], _feature_values(space, x[None])[pick][0])


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
    lv = space.levels[_level_index(arch, level)]
    vals = np.abs(lv.metric) if variant == "associated" else lv.metric.copy()
    return _wrap(space, lv, vals)


def _powers(w, base):
    """prod_j w[..., r, j] ** base[i, j] per row r and index i, shape (..., R, n).

    Bit-equal to np.prod(w[..., :, None, :] ** base, axis=-1): each power
    w[..., r, j] ** e, for e up to the largest in base, comes once from an
    elementwise np.power over an exponent array, and the same np.prod runs
    over the powers gathered at every (i, j).
    """
    top = int(base.max(initial=0))
    table = np.power(w[..., None], np.arange(top + 1))
    table = table.reshape(w.shape[:-1] + (w.shape[-1] * (top + 1),))
    return np.prod(table[..., np.arange(base.shape[1]) * (top + 1) + base], axis=-1)


def _weight_values(space, mats, q):
    """Pushed weight values of layer q on the top level, (k, m), for mats
    stacked (k, H_q, H_{q-1}) per layer."""
    levels = space.levels
    d = len(levels)
    w = mats[q]
    if q == d - 1:
        # output layer: a single row, expanded directly on the top level
        top = levels[d - 1]
        return _powers(w, top.xexp if d == 1 else top.block_profile)[:, 0]
    # rows of W_q become per-block generator values on the slots of level q+1;
    # their exponents are over input coordinates at q = 0, over blocks above
    base = levels[0].xexp if q == 0 else levels[q].block_profile
    gen = _powers(w, base)  # (k, H_q, n_idx_q)
    vals = levels[q + 1].compose(gen.reshape(len(gen), math.prod(gen.shape[1:])))
    for lvl in range(q + 2, d):
        vals = levels[lvl].compose(vals)
    return vals


def _checked_space(arch, weights, truncation, max_entries):
    """(tower, weights as (k, H_q, H_{q-1}) arrays, stack shape) for weights
    whose matrices all carry one leading stack shape."""
    mats = [np.asarray(w, dtype=float) for w in weights]
    stack = mats[0].shape[:-2] if mats else ()
    netcore.check_shapes(arch, mats, stack)
    stacked = [w.reshape((-1,) + w.shape[-2:]) for w in mats]
    return flat_space(arch, truncation, max_entries), stacked, stack


def pushed_weights(arch, weights, truncation=DEFAULT_TRUNCATION, max_entries=DEFAULT_MAX_ENTRIES):
    """Every layer's weights pushed to the top of the flat space, in one pass.

    Batch-first: matrices stacked (k, H_q, H_{q-1}) give vectors holding
    (k, m) values, row j bit-equal to pushing draw j alone;
    ``vec.like(vec.values[j])`` is draw j's vector.  A WeightSet of plain
    matrices is a stack of one, pushed to (m,) values.

    Returns (layers, flat): the per-layer vectors and their elementwise
    product, the flat machine's weight vector.
    """
    space, mats, stack = _checked_space(arch, weights, truncation, max_entries)
    layers = [_weight_values(space, mats, q) for q in range(arch.depth)]
    flat = np.ones_like(layers[0])
    for vals in layers:
        flat = flat * vals
    shape = stack + flat.shape[-1:]
    return (
        [_wrap(space, space.top, v.reshape(shape)) for v in layers],
        _wrap(space, space.top, flat.reshape(shape)),
    )


def pushforward_weights(
    arch, weights, q, truncation=DEFAULT_TRUNCATION, max_entries=DEFAULT_MAX_ENTRIES
):
    """Layer q's weights pushed to the top of the flat space (batch-first, as
    pushed_weights)."""
    space, mats, stack = _checked_space(arch, weights, truncation, max_entries)
    if not 0 <= q < arch.depth:
        raise ValueError(f"layer {q} out of range")
    vals = _weight_values(space, mats, q)
    return _wrap(space, space.top, vals.reshape(stack + vals.shape[-1:]))


def flat_weight(arch, weights, truncation=DEFAULT_TRUNCATION, max_entries=DEFAULT_MAX_ENTRIES):
    """The flat machine's weight vector: elementwise product over all layers
    (batch-first, as pushed_weights)."""
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
    lines = (prefixes[keep] + netcore.exact_text(vals[keep])).tolist()
    return "\n".join(lines) + ("\n" if lines else "")
