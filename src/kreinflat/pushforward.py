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

Level 0 carries the identity itself: on a one-layer network it holds phi(x)
on the activation's support and gamma_i.  An exp layer, whose coefficients
are all nonzero, stores every monomial up to the truncation.  flat_values
gives the flat machine's value with no tower, from truncated power series.

Index storage is flat numpy: packed (slot, exponent) term arrays per level,
enumerated by one walk that grows every slot multiset by a draw per own
degree, plus metric values.  Index arrays are stored in the narrowest signed
dtype that holds their range (_int_type).  Above level 0, slot s is (block,
child) = divmod(s, m) over the m indices of the level below, computed where
it is needed.  Every tower value comes from a level's compose: features,
the metric, and each weight row replicated over the blocks of its level's
slots.  A level builds three members at their first read and keeps them:
its composed input exponents (read by the dump layouts), compose's one
narrow gather table, and the dump layout (sort order, head and tag ids into
tables of distinct texts).  Tags are ids built bottom-up from the level
below's ids, with a text only per distinct id.  A dump streams out in blocks
of lines.
flat_space refuses to build a tower past DEFAULT_MAX_ENTRIES stored indices
at some level (SizeLimitError); level_counts() gives the exact per-level
counts without enumerating anything, and takes any other limit.  flat_space
keeps built towers within a byte budget.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from collections import namedtuple

import numpy as np

from . import activations as act
from . import netcore
from .errors import DomainError, SizeLimitError

DEFAULT_TRUNCATION = 8
DEFAULT_MAX_ENTRIES = 200_000

# Lines per text block of a dump.  A whole dump of a 16,532-entry tower is
# about 1 MB of text, held two or three times over while joined and encoded;
# a block joins its lines' heads, tags, values and newlines in one str.join.
_DUMP_LINES = 4096


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
    overflows.  Above it, rows are sorted by their sorted exponents, so each
    distinct multiset is computed once with Python integers.  A value
    past the float range raises DomainError naming the least such degree (and
    the tower ``level`` when given).
    """
    exps = np.asarray(exps)
    degrees = exps.sum(axis=1)  # int64 for any narrower integer dtype
    top = int(degrees.max(initial=0))
    if top < len(_INT64_FACTORIALS):
        fact = _INT64_FACTORIALS
        return (fact[degrees] // np.prod(fact[exps], axis=1)).astype(float)
    exps = np.sort(exps, axis=1)
    order = np.lexsort(exps.T)
    heads = np.ones(len(order), dtype=bool)  # run starts: the distinct multisets
    heads[1:] = np.any(exps[order[1:]] != exps[order[:-1]], axis=1)
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


def _int_type(top):
    """The narrowest signed integer dtype that holds -1..top."""
    return np.min_scalar_type(-1 - int(top))


# ---------------------------------------------------------------------------
# series vectors
# ---------------------------------------------------------------------------

class SeriesVector:
    """Real coefficients on the stored indices of one tower level.

    Anything not stored is exactly zero.  Vectors built on the same space (the
    same level of the same architecture and truncation) are positionwise
    aligned, which is what flat_inner needs.
    """

    __slots__ = ("values", "_space")

    def __init__(self, values, space):
        self.values = np.asarray(values, dtype=float)
        self._space = space

    def like(self, values):
        """A vector holding ``values`` on this vector's space."""
        return SeriesVector(values, self._space)

    def aligned_with(self, other):
        return isinstance(other, SeriesVector) and self._space is other._space


def flat_inner(metric, *vectors):
    """sum_i g_i * prod_v v_i over the shared index space, one value per
    stacked row (batch-first, as pushed_weights), each bit-equal to its own."""
    if not vectors:
        raise ValueError("need at least one vector")
    for v in vectors:
        if not metric.aligned_with(v):
            raise ValueError("series vectors live on different spaces or truncations")
    prod = metric.values
    for v in vectors:
        prod = prod * v.values
    return np.sum(prod, axis=-1)


def flat_eval(weight_vec, feature_vec, metric_vec):
    """The flat machine value sum_i g_i v_i phi_i(x)."""
    return flat_inner(metric_vec, weight_vec, feature_vec)


def _weight_arrays(arch, weights):
    """The weights as float arrays, checked against arch (any one leading stack)."""
    mats = [np.asarray(w, dtype=float) for w in weights]
    netcore.check_shapes(arch, mats)
    return mats


def flat_values(arch, weights, xs, truncation=DEFAULT_TRUNCATION):
    """The truncated flat machine sum_i g_i v_i phi_i(x) at each row of xs
    (N, D), with no tower: the net run on t*x with each neuron a power series
    in t cut at degree T (x-degree <= T is t-degree <= T), read at t = 1.

    Layer 0 is s t, so its coefficient k is a_k s**k, on the support only (0
    times an overflowed power is NaN), or sign * exp(log|a_k| + k log|s|) where
    that is not finite.  Above it sigma(W h) is Horner from the top support
    degree K_q, each product cut at degree T.  Sums run in ascending order and
    every step is elementwise: weights stacked stack + (H_q, H_{q-1}) give
    stack + (N,), each row bit-equal to its own pass.

    To first order the value is within gamma_r sum_i |g_i v_i phi_i(x)| (the
    expanded products' absolute sum) of the exact machine: r = r_{d-1} + T
    roundings, r_0 = K_0 D + 3 + L (s, pow within 2 u, a_k; L = 0, or the
    largest |log|a_k|| + k |log|s|| + 2 of a log-space term) and r_q = K_q
    (r_{q-1} + H_{q-1} + T + 2) (a factor of W h, a Horner step's product and a_k).
    """
    mats = _weight_arrays(arch, weights)
    xs = netcore.input_rows(arch, xs)
    cut = int(truncation) + 1  # the degrees a product keeps
    h = np.stack([np.zeros_like(xs.T), xs.T], axis=-1)  # the inputs t x: (D, N, 2)
    for q, (w, spec) in enumerate(zip(mats, arch.activations)):
        u = sum(w[..., b, None, None] * h[..., b, None, :, :] for b in range(w.shape[-1]))
        a = np.array(act.taylor_series(spec, cut - 1))
        supp = np.flatnonzero(a)
        top = int(supp.max(initial=0))
        if q == 0:  # u = s t
            s, k = np.broadcast_arrays(u[..., 1:], supp)
            with np.errstate(over="ignore"):  # a power past the float range: log space
                terms = a[k] * np.power(s, k)
                big = ~np.isfinite(terms)
                s, k, c = s[big], k[big], a[k[big]]
                terms[big] = np.sign(c * s**k) * np.exp(np.log(np.abs(c)) + k * np.log(np.abs(s)))
            h = np.zeros(u.shape[:-1] + (top + 1,))
            h[..., supp] = terms
            continue
        h = np.full(u.shape[:-1] + (1,), a[top])
        for c in a[:top][::-1]:  # h u + c, cut at degree T
            h, old = np.zeros(h.shape[:-1] + (min(cut, h.shape[-1] + u.shape[-1] - 1),)), h
            h[..., 0] = c
            for i in range(old.shape[-1]):
                h[..., i : i + u.shape[-1]] += old[..., i, None] * u[..., : h.shape[-1] - i]
    return sum(np.moveaxis(h[..., 0, :, :], -1, 0))


# ---------------------------------------------------------------------------
# the flattening tower
# ---------------------------------------------------------------------------

class _Level:
    """One composition level: slots, stored indices, and their invariants.

    Row i of terms_pos/terms_exp holds index i's (slot, exponent) pairs in
    ascending slot order, padded with the pad slot n_slots and exponent 0.
    Slot s above level 0 is (block, child) = divmod(s, m) over the m indices
    of the level below.  xexp, table and dump_layout are built at their
    first read and kept.
    """

    @functools.cached_property
    def xexp(self):
        """Composed input exponents per stored index, (m, D), in the composed
        degrees' dtype.

        A slot carries the exponents of its child: an input coordinate at
        level 0, an index of the level below above it (the pad slot carries
        0).  The dump layouts read them.
        """
        dtype = self.composed_degree.dtype
        below = self.prev.xexp if self.level else np.eye(self.n_slots, dtype=dtype)
        padded = np.vstack([below, np.zeros_like(below[:1])])
        child = np.append(np.arange(self.n_slots) % len(below), len(below))
        # every partial sum is at most the composed degree, so its dtype
        # holds it; one term column at a time
        xexp = np.zeros((len(self.own_degree), below.shape[1]), dtype)
        for pos, exp in zip(self.terms_pos.T, self.terms_exp.T):
            xexp += exp[:, None] * padded[child[pos]]
        return xexp

    def nbytes(self):
        """Bytes held by the level's arrays and the members built so far."""
        built = vars(self)
        arrays = [
            self.terms_pos, self.terms_exp, self.own_degree, self.composed_degree,
            self.metric, built.get("xexp"),
        ]
        if "table" in built:
            slots, exps, gather = self.table
            arrays += [slots, exps, *gather]
        text = 0
        if "dump_layout" in built:
            layout = self.dump_layout
            arrays += list(layout)
            text = sum(map(sys.getsizeof, [*layout[3], *layout[4]]))  # the texts
        return sum(a.nbytes for a in arrays if a is not None) + text

    @functools.cached_property
    def dump_layout(self):
        """(permutation, head ids, tag ids, heads, tags) of a dump.

        Rows sort by (degree, exponents, tag); the sort is stable, so ties
        keep stored order.  Line j, of row permutation[j], starts with
        heads[head_ids[j]] + tags[tag_ids[j]]: object arrays of the distinct
        "exponents | " and "tag | " texts.
        """
        xexp = self.xexp
        tag_ids, texts = self.tag_ids()
        # np.lexsort's last key is the primary one
        perm = np.lexsort([tag_ids, *xexp.T[::-1], self.composed_degree])
        # equal exponent rows are adjacent in sorted order: one head per run
        rows = xexp[perm]
        starts = np.ones(len(rows), dtype=bool)
        starts[1:] = np.any(rows[1:] != rows[:-1], axis=1)
        heads = [" ".join(map(str, r)) + " | " for r in rows[starts].tolist()]
        head_ids = (np.cumsum(starts) - 1).astype(_int_type(len(heads)))
        return (
            perm.astype(_int_type(len(perm))), head_ids, tag_ids[perm],
            np.array(heads, dtype=object), np.array([t + " | " for t in texts], dtype=object),
        )

    def tag_ids(self):
        """(tag id per stored index, the distinct tag texts sorted), built on
        each call bottom-up from the ids of the level below; id r reads texts[r].

        Level 0 names input monomials (x0^2*x1).  Above it slot s is named by
        (its block, its child's tag id) and reads block:(child tag), where
        children at level 0 print as "-".  A row's tag is its (slot name,
        exponent) pairs in slot order: rows are ranked by those pairs, and
        only each distinct row's text is built.
        """
        if self.level == 0:
            names, slot_name = [f"x{p}" for p in range(self.n_slots)], np.arange(self.n_slots)
        else:
            child, texts = self.prev.tag_ids()
            if self.level == 1:  # children at level 0 print as "-"
                child, texts = np.zeros_like(child), ["-"]
            names = [f"{b}:({t})" for b in range(self.n_slots // len(child)) for t in texts]
            block, k = np.divmod(np.arange(self.n_slots), len(child))
            slot_name = block * len(texts) + child[k]
        # a pair is the code name * radix + exponent, and a pad is 0
        radix = self.max_exp + 1
        code = np.append(slot_name * radix, 0).astype(_int_type(len(names) * radix))
        code = code[self.terms_pos] + self.terms_exp
        order = np.lexsort(code.T)
        code = code[order]
        starts = np.ones(len(code), dtype=bool)  # run starts: the distinct rows
        starts[1:] = np.any(code[1:] != code[:-1], axis=1)
        used, inverse = np.unique(code[starts], return_inverse=True)
        del code  # before the texts are built: the layout's peak
        # a text per distinct row, from one "*name^exp" piece per distinct
        # code; names are distinct texts, so distinct rows are too
        pieces = np.array(
            ["*" + names[c // radix] + (f"^{c % radix}" if c % radix > 1 else "") if c else ""
             for c in used.tolist()], dtype=object,
        )[inverse.reshape(-1, self.terms_pos.shape[1])]
        texts = np.array([t[1:] or "1" for t in map("".join, pieces.tolist())], dtype=object)
        by_text = np.argsort(texts)
        rank = np.empty(len(texts), _int_type(len(texts)))
        rank[by_text] = np.arange(len(texts))
        ids = np.empty(len(order), rank.dtype)
        ids[order] = np.repeat(rank, np.diff(np.append(np.flatnonzero(starts), len(starts))))
        return ids, texts[by_text].tolist()

    @functools.cached_property
    def table(self):
        """(slots, exponents, gather columns) of compose's table.

        A table row is [1.0 | values | powers]: one value per slot, and one
        power values[slot]**exponent per distinct (slot, exponent >= 2) pair
        that some stored index uses.  The gather columns are stored in the
        narrowest dtype that holds the table's width.
        """
        e = self.terms_exp
        high = e >= 2
        # a bitmap over every (slot, exponent) code: its set cells in
        # order are the used pairs, its running count their ranks
        codes = self.terms_pos[high].astype(np.intp) * (self.max_exp + 1) + e[high]
        used = np.zeros(self.n_slots * (self.max_exp + 1), dtype=bool)
        used[codes] = True
        pairs = np.flatnonzero(used)
        index = self.terms_pos.astype(_int_type(1 + self.n_slots + len(pairs))) + 1
        index[e == 0] = 0  # exponent 0, the pad slot's too, reads 1.0
        index[high] = self.n_slots + np.cumsum(used)[codes]
        # columns copied contiguous: take is slower over strided indices
        return (*divmod(pairs, self.max_exp + 1), list(index.T.copy()))

    def compose(self, values):
        """prod over packed terms of slot value**exp, per leading row.

        ``values`` covers the slots or one period of them: slot s reads
        values[..., s % L] for L = values.shape[-1], which must divide the
        slot count.  A level's input is the level below repeated over the
        blocks, so it is passed untiled and tiled here.  The table holds 1.0
        (exponent 0 and the pad slot), each value (exponent 1) and only the
        powers >= 2 that some index uses, built by an elementwise power over
        an exponent array: numpy's fast path for a broadcast scalar exponent
        rounds differently.  Each index then multiplies its gathered table
        entries left to right, one row at a time.
        """
        s = np.asarray(values, dtype=float)
        lead, period = s.shape[:-1], s.shape[-1]
        if self.n_slots % period:
            raise ValueError(f"{period} values do not tile {self.n_slots} slots")
        power_slots, power_exps, gather = self.table
        gather = [col.astype(np.intp) for col in gather]  # else take widens them per row
        rows = s.reshape(-1, period)
        table = np.concatenate(
            [np.ones((len(rows), 1)), *[rows] * (self.n_slots // period),
             np.power(rows[:, power_slots % period], power_exps)], axis=1
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

    def __init__(self, arch, levels):
        self.arch = arch
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


def level_counts(arch, truncation, max_entries=None):
    """Exact stored-index count per level, computed without enumeration.

    A dynamic program over (composed degree, own degree) with the multiset
    generating function of the slot histogram; used both by the size guard
    and by architecture generators that must stay desk-sized.  With
    max_entries, SizeLimitError as soon as a level's partial count passes it:
    that count only grows as slot groups are added.
    """
    trunc = int(truncation)
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
    return counts


def _ranges(sizes):
    """(owner, offset) over the concatenation of range(size) for each size,
    each in the narrowest dtype for its range."""
    owner = np.repeat(np.arange(len(sizes), dtype=_int_type(len(sizes))), sizes)
    starts = np.repeat((np.cumsum(sizes) - sizes).astype(_int_type(len(owner))), sizes)
    offset = np.arange(len(owner), dtype=starts.dtype) - starts
    return owner, offset.astype(_int_type(np.max(sizes, initial=0)), copy=False)


def _level_indices(slot_cdeg, supp, trunc):
    """The stored indices of one level, in stored order.

    One walk grows every multiset of slots by one draw per own degree.  Slots
    are renumbered by composed degree, so the slots a row may still draw (at
    or after its last draw, within trunc minus its composed degree) are one
    searchsorted range.  A row is held as packed (slot + 1) * radix + count
    codes: drawing its last slot again adds to that count, and any other slot
    opens a column.  A row that cannot reach the next degree in supp, even by
    repeating its last slot, is dropped; the rows at each degree in supp are
    kept.  Their codes are mapped back to the slots' own numbers, each row's
    pairs sorted by slot, and the rows sorted by own degree, then by the
    (slot, exponent) pairs as a tuple.

    supp is ascending.  Returns (own degree, composed degree, slots,
    exponents), each in the narrowest dtype for its range: the largest degree
    in supp bounds own degrees and exponents, trunc composed degrees.  Slots
    and exponents are (m, w) with w >= 1 and pads -1 and 0.
    """
    max_own = max(supp, default=0)
    radix = max_own + 1
    pad = (len(slot_cdeg) + 1) * radix
    dtype = _int_type(pad)
    by_cdeg = np.argsort(slot_cdeg, kind="stable")
    cdeg = np.asarray(slot_cdeg).astype(_int_type(trunc))[by_cdeg]
    # walk code (r + 1) * radix + count -> the code of slot by_cdeg[r]; the
    # pad 0 -> pad, above every pair while a row's pairs are sorted
    lookup = (np.append(-1, by_cdeg)[:, None] + 1) * radix + np.arange(radix)
    lookup[0] = pad
    lookup = lookup.ravel().astype(dtype)
    codes = np.zeros((1, max(1, min(max_own, len(cdeg)))), dtype)  # the empty row
    last = np.zeros(1, dtype)  # each row's last draw and its columns used
    used = np.zeros(1, _int_type(codes.shape[1]))
    comp = np.zeros(1, cdeg.dtype)
    found = []  # (composed degrees, codes) of the rows stored at each own degree
    for k in range(max_own + 1):
        i = bisect.bisect_right(supp, k)  # supp[i] is the next degree in supp
        found.append((comp, codes) if i and supp[i - 1] == k else (comp[:0], codes[:0]))
        if i == len(supp):
            break
        # a row that cannot reach supp[i], even by repeating its last slot,
        # extends by no slot
        keep = cdeg[last] <= (trunc - comp) // (supp[i] - k)
        hi = np.searchsorted(cdeg, trunc - comp, side="right")
        parent, offset = _ranges(np.where(keep, hi - last, 0))
        new = (offset > 0) | (used[parent] == 0)
        last, used = last[parent] + offset, used[parent] + new
        comp = comp[parent] + cdeg[last]
        codes = codes[parent]
        rows, col = np.arange(len(codes)), used - 1
        codes[rows, col] = np.where(new, (last + 1) * radix, codes[rows, col]) + 1
    own = np.repeat(np.arange(len(found)), [len(c) for c, _ in found]).astype(_int_type(max_own))
    comp, codes = (np.concatenate(a) for a in zip(*found))
    codes = lookup[codes]
    codes.sort(axis=1)
    codes = codes[:, : max(1, int(np.count_nonzero(codes.min(axis=0, initial=pad) < pad)))]
    codes[codes == pad] = 0  # so a pair tuple sorts before its extensions
    # np.lexsort's last key is the primary one
    order = np.lexsort([*codes.T[::-1], own])
    own, comp, codes = own[order], comp[order], codes[order]
    exp = np.empty(codes.shape, own.dtype)
    np.divmod(codes, radix, out=(codes, exp))  # codes becomes slot + 1, in place
    codes -= 1
    return own, comp, codes.astype(_int_type(len(slot_cdeg)), copy=False), exp


def _pack_level(level_no, arch, prev, trunc):
    lv = _Level()
    lv.level = level_no
    lv.prev = prev
    if level_no == 0:
        lv.n_slots = arch.input_dim
        slot_cdeg = np.ones(arch.input_dim, dtype=np.int64)
    else:
        h = arch.widths[level_no - 1]
        lv.n_slots = h * len(prev.own_degree)
        slot_cdeg = np.tile(prev.composed_degree, h)

    spec = arch.activations[level_no]
    own, comp, pos, exp = _level_indices(slot_cdeg, act.support_degrees(spec, trunc), trunc)
    pos[pos < 0] = lv.n_slots  # pad slot
    lv.terms_pos = pos
    lv.terms_exp = exp
    lv.own_degree = own
    lv.composed_degree = comp
    gamma = _multinomials(exp, level_no) * np.array(act.taylor_series(spec, trunc))[own]
    lv.max_exp = int(exp.max(initial=0))

    # metric recursion: g = gamma o phi(previous metric replicated over blocks)
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN is refused next
        lv.metric = gamma if level_no == 0 else gamma * lv.compose(prev.metric)
    if np.isnan(lv.metric).any():  # inf * 0: a gamma or power past the float range
        raise DomainError(f"level {level_no}: the flat metric holds a NaN", layer=level_no)
    return lv


# Byte ceiling on the towers flat_space keeps.  A dumped tower holds 51 to 59
# bytes per top-level entry at truncation 5 (975 kB for a tanh (2, (3, 2, 1))
# net's 16,532, 5.1 MB for a tanh (3, (3, 2, 1)) net's 99,972): ten of those.
_TOWER_BYTES = 64 << 20
_TOWERS = _LRUCache(_TOWER_BYTES, FlatSpace.nbytes)


def _tower(arch, trunc):
    """Every level of the tower; each must store exactly level_counts' count,
    and none more than DEFAULT_MAX_ENTRIES (SizeLimitError, before building)."""
    counts = level_counts(arch, trunc, DEFAULT_MAX_ENTRIES)
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
    return FlatSpace(arch, levels)


def flat_space(arch, truncation):
    """The flattening tower of an architecture, built once per (arch, truncation).

    SizeLimitError when a level would store more than DEFAULT_MAX_ENTRIES
    indices; the guard runs when a tower is built, so a cached one has passed
    it.  Towers are kept least recently used first within _TOWER_BYTES.
    """
    trunc = int(truncation)
    if trunc < 1:
        raise ValueError("truncation must be at least 1")
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


def flatten_feature_map(arch, x, truncation=DEFAULT_TRUNCATION):
    """The composed feature map of the network at input x, on the top level."""
    xs = netcore.input_rows(arch, np.asarray(x, dtype=float)[None])
    space = flat_space(arch, truncation)
    return SeriesVector(_feature_values(space, xs)[-1][0], space.top)


def flatten_metric(arch, truncation=DEFAULT_TRUNCATION):
    """The flat metric of the network, on the top level.

    The associated side's metric, that of the architecture with act.associated
    at every layer, is |g| within 1e-15 relative: its coefficients are
    computed on their own, so it is not |g| bit for bit.
    """
    top = flat_space(arch, truncation).top
    return SeriesVector(top.metric.copy(), top)


def _weight_values(space, mats, q):
    """Pushed weight values of layer q on the top level, stack + (m,), for mats
    stacked stack + (H_q, H_{q-1}) per layer."""
    levels = space.levels
    # row r of W_q, replicated over the blocks of level q's slots (one copy per
    # input at level 0), goes through phi like an input: (..., H_q, m_q), whose
    # rows are per-block slot values of level q+1 (the output's one row: the top)
    w = np.repeat(mats[q], levels[q].n_slots // space.arch.fan_ins[q], axis=-1)
    vals = levels[q].compose(w)
    vals = vals.reshape(vals.shape[:-2] + (math.prod(vals.shape[-2:]),))  # (..., H_q * m_q)
    for level in levels[q + 1 :]:
        vals = level.compose(vals)
    return vals


def pushed_weights(arch, weights, truncation=DEFAULT_TRUNCATION):
    """Every layer's weights pushed to the top of the flat space, in one pass.

    Batch-first: matrices stacked (k, H_q, H_{q-1}) give vectors holding
    (k, m) values, row j bit-equal to pushing draw j alone;
    ``vec.like(vec.values[j])`` is draw j's vector.  Plain (H_q, H_{q-1})
    matrices are a stack of one, pushed to (m,) values.

    Returns (layers, flat): the per-layer vectors and their elementwise
    product, the flat machine's weight vector.
    """
    mats, space = _weight_arrays(arch, weights), flat_space(arch, truncation)
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN is refused next
        layers = [_weight_values(space, mats, q) for q in range(arch.depth)]
        flat = np.ones_like(layers[0])
        for q, vals in enumerate(layers):
            flat = flat * vals
            if np.isnan(flat).any():  # inf * 0: a power or product past the float range
                raise DomainError(f"layer {q}: the flat weight holds a NaN", layer=q)
    return [SeriesVector(v, space.top) for v in layers], SeriesVector(flat, space.top)


def pushforward_weights(arch, weights, q, truncation=DEFAULT_TRUNCATION):
    """Layer q's weights pushed to the top of the flat space (batch-first, as
    pushed_weights)."""
    mats, space = _weight_arrays(arch, weights), flat_space(arch, truncation)
    if not 0 <= q < arch.depth:
        raise ValueError(f"layer {q} out of range")
    return SeriesVector(_weight_values(space, mats, q), space.top)


def flat_weight(arch, weights, truncation=DEFAULT_TRUNCATION):
    """The flat machine's weight vector: elementwise product over all layers
    (batch-first, as pushed_weights)."""
    return pushed_weights(arch, weights, truncation)[1]


# ---------------------------------------------------------------------------
# dumps
# ---------------------------------------------------------------------------

def dump_series(vec):
    """Deterministic text dump: exponents | block tag | value, graded-lex.

    One line per nonzero stored entry.  The exponent tuple is over the input
    coordinates (composed through all levels for tower vectors); the tag
    pins down which hierarchical index the line belongs to.

    Returns an iterator of text blocks of at most _DUMP_LINES lines each, and
    each block formats only its own values; joined, they are the whole dump.  A stacked vector is refused here,
    before the first block (ValueError).
    """
    if vec.values.ndim != 1:
        raise ValueError("a stacked vector has no dump; dump row j as like(values[j])")
    perm, head_ids, tag_ids, heads, tags = vec._space.dump_layout
    vals = vec.values[perm]
    keep = np.flatnonzero(vals != 0.0)
    blocks = (keep[s : s + _DUMP_LINES] for s in range(0, len(keep), _DUMP_LINES))

    def text(b):  # a line's head, tag, value and newline, laid out in turn
        parts = [None] * (4 * len(b))
        parts[::4], parts[1::4] = heads[head_ids[b]].tolist(), tags[tag_ids[b]].tolist()
        parts[2::4], parts[3::4] = netcore.exact_text(vals[b]).tolist(), ["\n"] * len(b)
        return "".join(parts)
    return map(text, blocks)
