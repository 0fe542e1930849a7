"""Capacity analysis: penalty chains, generalization bounds, sparsity.

penalties() walks a network's per-layer and flat penalty chains once (on
arch.associated(), their positive companions).  Then come Rademacher-type bounds
over the induced kernel ball, a concave growth envelope, a Monte-Carlo lower
estimate of the empirical Rademacher complexity, and the 2/d-power sparsity
profile of the flat weight/metric pair.
"""
from __future__ import annotations

import contextlib
import math
from collections import namedtuple

import numpy as np

from . import activations as act
from . import kreinkernel as kk
from . import netcore
from .errors import DomainError, InputError

#: memory ceiling of one block of the Monte-Carlo estimate (hypothesis draws or sign trials)
_BLOCK_BYTES = 512 << 10


def squared_norms(xs):
    """Each row's squared Euclidean norm; inf past the float range, without a
    warning, since the bounds read inf as vacuous."""
    with np.errstate(over="ignore"):
        return np.sum(xs * xs, axis=1)


# ---------------------------------------------------------------------------
# penalty chains
# ---------------------------------------------------------------------------

Penalties = namedtuple("Penalties", "layers flat intervals")


def penalties(arch, weights):
    """Every penalty chain of one network, in one walk, as Penalties(layers, flat, intervals).

    layers[q] is layer q's flat-space norm: the input dimension chained through
    the layers below q, each row norm of W_q through sigma_q, and their sum
    through the layers above.  flat is <<v, v>> of the whole weight vector: row
    norms of W_0 seed its chain, and each later layer mixes in its squared
    weights.  intervals[k] is the largest |argument| any chain hands layer k, so
    Lipschitz constants on [0, intervals[k]] hold for every inequality the chains
    enter.  On arch.associated() these are the positive companions.  DomainError
    names the first layer to leave its domain (chains in the order q = 0..d-1,
    then flat) or, failing that, the first whose largest argument overflowed.
    Batch-first: values have the weights' stack shape, each draw bit-equal to its
    own walk; from a stack, DomainError names the first draw failing alone (C order).
    """
    stack = netcore.check_shapes(arch, weights)
    d = arch.depth
    intervals = [np.zeros(stack)] * d

    def step(k, s):  # layer k alone, noting each draw's largest |argument|
        peak = np.max(np.abs(s), axis=tuple(range(len(stack), np.ndim(s))))
        intervals[k] = np.fmax(intervals[k], peak)
        return kk.chain(arch, s, layers=[k])

    layers = []
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            prefix = float(arch.input_dim)
            base = 1.0
            for q, w in enumerate(weights):
                if q:
                    base = step(q - 1, prefix)
                    prefix = base * arch.widths[q - 1]
                s = np.sum(step(q, np.sum(w * w, axis=-1) * base), axis=-1)
                for k in range(q + 1, d):
                    s = step(k, s)
                    if k < d - 1:
                        s = s * arch.widths[k]
                layers.append(s)
            for k, w in enumerate(weights):
                sq = w**2
                t = step(k, np.sum(sq, axis=-1) if k == 0 else (sq @ t[..., None])[..., 0])
        for q, m in enumerate(intervals):
            if not np.isfinite(m).all():
                raise DomainError(f"layer {q}: a penalty-chain argument overflowed to {m}", layer=q)
    except DomainError:
        for i, j in enumerate(np.ndindex(stack) if stack else ()):  # the first draw that fails alone
            try:
                penalties(arch, [w[j] for w in weights])
            except DomainError as exc:
                raise DomainError(f"draw {i}: {exc}", layer=exc.layer, location=i) from exc
        raise
    return Penalties(layers, t[..., 0], intervals)


def weight_ball_radius(arch, weights, reg_scale=None):
    """reg_scale * sum_q ||W_q||_F^2 (reg_scale defaults to 1/depth) per stacked draw."""
    netcore.check_shapes(arch, weights)
    scale = 1.0 / arch.depth if reg_scale is None else float(reg_scale)
    with np.errstate(over="ignore"):  # inf: the ball of overflowed weights
        return scale * sum(netcore.frobenius_sq(weights))


def _power(base, exponent):
    """base ** exponent, or inf where the float power overflows: a vacuous bound."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def svm_ball_radius(radius, lipschitz, depth):
    """(L * radius)^depth: the flat ball that contains the network family."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return _power(lipschitz * radius, depth)


# ---------------------------------------------------------------------------
# Rademacher bounds
# ---------------------------------------------------------------------------

def _bound_product(*factors):
    """The product of nonnegative bound factors; 0 when any factor is 0, even next to
    an overflowed one: a zero-radius ball, or a sample every function maps to 0,
    leaves a single function."""
    return 0.0 if 0.0 in factors else math.prod(factors)


def rademacher_bound_ball(ball_radius, kernel_trace_mean, n):
    """sqrt(ball_radius * mean Kbar(x, x) / n); 0 for a zero-radius ball."""
    if ball_radius < 0 or kernel_trace_mean < 0:
        raise ValueError("ball radius and kernel trace must be nonnegative")
    if n < 1:
        raise ValueError("n must be positive")
    return math.sqrt(_bound_product(ball_radius, kernel_trace_mean) / n)


def _sample_array(arch, sample):
    xs = netcore.input_rows(arch, sample)
    if xs.shape[0] == 0:
        raise ValueError("sample is empty")
    return xs


def rademacher_bound_net(arch, radius, sample, n=None, tight=None):
    """Every bound the architecture supports on the weight ball of ``radius``, as the
    report's dict: weight_ball_radius, svm_ball_radius, width_gm, lipschitz_gm,
    kernel_trace_mean, bound_kernel_trace, bound_linear, bound_growth,
    empirical_estimate and sample_size.

    The kernel-trace bound is always computed (global Lipschitz constants are
    required); the closed linear form only for all-linear networks; the
    growth-envelope form only when every activation is odd and concave on the
    nonnegative axis (else None).  Domain violations in the associated kernel
    are reported with the offending sample index.  ``empirical_estimate`` is
    left None for the caller to fill with empirical_rademacher().  ``tight`` is
    the tight_bound of the same arguments when the caller has it.
    """
    xs = _sample_array(arch, sample)
    count = xs.shape[0] if n is None else int(n)
    radius = float(radius)
    width_gm, lip = netcore.geometric_means(arch)  # m = inf
    if lip is None:
        raise InputError(
            "some activation has no global Lipschitz constant; "
            "the kernel-trace bound is unavailable"
        )
    ball = svm_ball_radius(radius, lip, arch.depth)
    sq = squared_norms(xs)
    try:
        trace = float(np.mean(kk.chain(arch.associated(), sq)))
    except DomainError as exc:
        i = exc.location
        raise DomainError(f"sample {i}: {exc}", layer=exc.layer, location=i) from exc
    report = {
        "weight_ball_radius": radius,
        "svm_ball_radius": ball,
        "width_gm": width_gm,
        "lipschitz_gm": lip,
        "kernel_trace_mean": trace,
        "bound_kernel_trace": rademacher_bound_ball(ball, trace, count),
        "bound_linear": None,
        "bound_growth": None,
        "empirical_estimate": None,
        "sample_size": count,
    }
    sq_mean = float(np.mean(sq))
    if all(s.kind == "linear" for s in arch.activations):
        report["bound_linear"] = math.sqrt(
            _bound_product(_power(width_gm * lip * radius, arch.depth), sq_mean) / count
        )
    if all(act.is_odd_concave(s) for s in arch.activations):
        report["bound_growth"] = (tight or tight_bound(arch, radius, xs, count))["general"]
    return report


def growth_envelope(arch, xi):
    """The envelope chaining sigma_q(depth * sqrt(width) * . ), elementwise over xi.

    Requires every activation to be odd and concave on the nonnegative axis
    (so the envelope really dominates the network's norm growth).
    """
    bad = [q for q, s in enumerate(arch.activations) if not act.is_odd_concave(s)]
    if bad:
        raise InputError(
            f"growth envelope needs odd, concave-on-nonnegatives activations; "
            f"layers {bad} do not qualify"
        )
    d = arch.depth
    t = kk.chain(arch, xi, layers=[0])
    for k in range(1, d):
        t = kk.chain(arch, d * math.sqrt(arch.widths[k - 1]) * t, layers=[k])
    return t


def tight_bound(arch, radius, sample, n=None):
    """Growth-envelope Rademacher bounds (three tightness levels), as the report's dict.

    general        : max(1, radius^d)/sqrt(n) * sqrt(mean envelope(|x|)^2)
    lipschitz_form : replaces the envelope by its global Lipschitz cap
                     (None when some layer has none)
    bounded_form   : discards everything below the deepest [0,1]-bounded
                     activation (None when there is none, or when a layer
                     above it has no global Lipschitz cap)
    bounded_layer  : that activation's layer (None with bounded_form)
    """
    xs = _sample_array(arch, sample)
    count = xs.shape[0] if n is None else int(n)
    d = arch.depth
    prefactor = max(1.0, _power(float(radius), d)) / math.sqrt(count)
    sq = squared_norms(xs)
    env = growth_envelope(arch, np.sqrt(sq))
    general = _bound_product(prefactor, math.sqrt(float(np.mean(env * env))))

    width_gm, lip = netcore.geometric_means(arch)  # m = inf
    lipschitz_form = None
    if lip is not None:
        lipschitz_form = _bound_product(
            prefactor, _power(d * math.sqrt(width_gm) * lip, d), math.sqrt(float(np.mean(sq)))
        )

    bounded = [q for q, s in enumerate(arch.activations) if act.is_bounded_by_one(s)]
    bounded_form = None
    bounded_layer = None
    if bounded:
        q = max(bounded)
        try:
            tail_lips = [act.lipschitz_on(s, math.inf) for s in arch.activations[q + 1 :]]
        except ValueError:
            tail_lips = None  # some layer above is only locally Lipschitz
        if tail_lips is not None:
            bounded_layer = q
            tail_widths = [float(h) for h in arch.widths[q + 1 :]]
            bounded_form = prefactor * _power(
                d * math.sqrt(netcore._geomean(tail_widths)) * netcore._geomean(tail_lips),
                d - q - 1,
            )
    return {"general": general, "lipschitz_form": lipschitz_form,
            "bounded_form": bounded_form, "bounded_layer": bounded_layer}


# ---------------------------------------------------------------------------
# empirical Rademacher complexity (Monte-Carlo lower estimate)
# ---------------------------------------------------------------------------

def _hypothesis_block(arch, radius, xs, rng, k):
    """Outputs (k, N) of k weight sets drawn for the ball of ``radius``.

    Each draw takes its standard normals for all layers in one run of the
    stream (draw-major), so the stream is consumed the same way whatever k
    is.  Draws outside the ball or leaving a pole-limited domain get NaN
    rows; the caller rejects every row that is not finite.  The block goes
    through one stacked pass, each row bit-equal to its own draw's pass.
    """
    shapes = arch.layer_shapes()
    sizes = [h * f for h, f in shapes]
    z = np.split(rng.standard_normal((k, sum(sizes))), np.cumsum(sizes)[:-1], axis=1)
    mats = [math.sqrt(0.5 * radius / n) * part.reshape((k, *s))  # expected radius: half the target
            for s, n, part in zip(shapes, sizes, z)]
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite draws are rejected
        inside = weight_ball_radius(arch, mats) <= radius
        try:
            values = netcore.forward_batch(arch, mats, xs)
        except DomainError:  # reject only the draws whose own pass leaves the domain
            values = np.full((k, xs.shape[0]), np.nan)
            for i in np.flatnonzero(inside):
                with contextlib.suppress(DomainError):
                    values[i] = netcore.forward_batch(arch, [w[i] for w in mats], xs)
    values[~inside] = np.nan
    return values


def _exact_grid(pool, n):
    """Round ``pool`` in place to the binary grid on which sums of n signed entries are exact.

    With every |entry| <= 2^e and the grid 2^(e - 53 + ceil(log2 n)), each
    partial sum of n entries times +-1 is a whole number of grid steps no
    larger than 2^53, so a product with sign vectors is exact in any order:
    its blocking, BLAS kernel and thread count cannot change a bit.  An entry
    moves by at most half a step, less than n 2^-52 of the largest entry:
    within the error bound of a float sum of n such entries.
    """
    peak = max(float(np.max(pool)), -float(np.min(pool)))
    if peak > 0.0:
        shift = math.frexp(peak)[1] - 53 + (n - 1).bit_length()
        np.ldexp(pool, -shift, out=pool)
        np.rint(pool, out=pool)
        np.ldexp(pool, shift, out=pool)
    return pool


def _count(name, value):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def empirical_rademacher(arch, radius, sample, trials=200, hypothesis_draws=200, seed=0):
    """Monte-Carlo lower estimate of the empirical Rademacher complexity.

    Hypotheses are weight sets drawn from per-layer Gaussians scaled so the
    expected ball radius is half the target, rejection-sampled (at most 10
    attempts each) into the radius ball and the evaluable domain.  One shared
    hypothesis pool serves every sign trial.  ``SeedSequence(seed)`` spawns one
    stream for the pool and one for the signs: every draw's first attempt
    comes before any retry, and trial signs are drawn trial-major, so the
    result only depends on the arguments, not on the _BLOCK_BYTES blocks it
    is computed in.

    The true complexity takes a supremum over the whole ball, so this is a
    lower estimate by construction.
    """
    xs = _sample_array(arch, sample)
    if not 0.0 <= radius < math.inf:
        raise ValueError("radius must be nonnegative and finite")
    trials = _count("trials", trials)
    draws = _count("hypothesis_draws", hypothesis_draws)
    n = xs.shape[0]
    pool_rng, sign_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))

    # per draw, at most: its normals, weights and their squares, every layer's
    # pre- and post-activations and an output row
    params = sum(h * f for h, f in arch.layer_shapes())
    per_block = max(1, _BLOCK_BYTES // (8 * (3 * params + (2 * sum(arch.widths) + 1) * n)))
    pool = np.empty((draws, n))
    pending = np.arange(draws)
    for _ in range(10):
        rejected = []
        for start in range(0, pending.size, per_block):
            ids = pending[start : start + per_block]
            values = _hypothesis_block(arch, radius, xs, pool_rng, ids.size)
            ok = np.isfinite(values).all(axis=1)
            pool[ids[ok]] = values[ok]
            rejected.append(ids[~ok])
        pending = np.concatenate(rejected)
        if not pending.size:
            break
    if pending.size:
        pool = np.delete(pool, pending, axis=0)
    if not pool.size:
        raise DomainError("no admissible hypothesis draw found inside the radius ball")
    pool = _exact_grid(pool, n)

    # per trial: its signs as integers and floats, and its product row (abs in place)
    per_block = max(1, _BLOCK_BYTES // (8 * (2 * n + pool.shape[0])))
    peaks = np.empty(trials)
    for start in range(0, trials, per_block):
        eps = sign_rng.integers(0, 2, size=(min(per_block, trials - start), n)) * 2.0 - 1.0
        products = eps @ pool.T
        np.max(np.abs(products, out=products), axis=1, out=peaks[start : start + eps.shape[0]])
    return float(np.mean(peaks)) / n


# ---------------------------------------------------------------------------
# sparsity
# ---------------------------------------------------------------------------

def sparsity_profile(metric, weight, depth, constants, epsilons=()):
    """The 2/depth-power sparsity profile of the flat pair (g, v), two arrays, as the
    report's dict: bridge_norm, bridge_bound, weight_sup, weight_sup_bound,
    epsilon_counts and valid_epsilon_max.

    ``constants`` is a dict of width_gm, lipschitz_assoc_gm, input_dim and
    weight_ball_radius.  bridge_norm = sum_i |g_i v_i|^(2/depth), computed in
    log space so products far below the smallest positive float still
    contribute.  epsilon_counts holds one {"epsilon", "count", "ceiling"} dict
    per threshold: the count of products above epsilon, and the ceiling
    bridge_bound * epsilon^(-2/depth) floored.
    """
    g = np.asarray(metric, dtype=float)
    v = np.asarray(weight, dtype=float)
    if g.shape != v.shape:
        raise ValueError("metric and weight vectors must have equal length")
    d = int(depth)
    if d < 1:
        raise ValueError("depth must be positive")
    c = constants
    bridge_bound = (
        (c["width_gm"] * c["lipschitz_assoc_gm"]) ** d
        * c["input_dim"]
        * c["weight_ball_radius"]
        / c["width_gm"]**2
    )
    mask = (g != 0.0) & (v != 0.0)
    logs = np.log(np.abs(g[mask])) + np.log(np.abs(v[mask]))
    with np.errstate(over="ignore"):  # past the float range: inf, the vacuous value
        bridge_norm = float(np.sum(np.exp((2.0 / d) * logs))) if logs.size else 0.0
    weight_sup = float(np.max(np.abs(v))) if v.size else 0.0
    metric_sup = float(np.max(np.abs(g))) if g.size else 0.0
    counts = []
    for eps in epsilons:
        eps = float(eps)
        if eps <= 0:
            raise ValueError("epsilon thresholds must be positive")
        count = int(np.sum(logs > math.log(eps))) if logs.size else 0
        cap = math.floor(bridge_bound * eps ** (-2.0 / d))
        counts.append({"epsilon": eps, "count": count, "ceiling": cap})
    return {
        "bridge_norm": bridge_norm,
        "bridge_bound": bridge_bound,
        "weight_sup": weight_sup,
        "weight_sup_bound": float(c["weight_ball_radius"]) ** d,
        "epsilon_counts": counts,
        "valid_epsilon_max": d * c["weight_ball_radius"] * metric_sup,
    }
