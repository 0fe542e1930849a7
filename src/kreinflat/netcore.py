"""Feed-forward scalar-output networks: evaluation, training, serialization.

A network of depth d maps R^D -> R through layers q = 0..d-1,

    f(x) = sigma_{d-1}(W_{d-1} sigma_{d-2}(... sigma_0(W_0 x))),

with W_q of shape (H_q, H_{q-1}), H_{-1} = D and H_{d-1} = 1.  The regularized
empirical risk is mean loss plus lambda * reg_scale * sum_q ||W_q||_F^2 with
reg_scale defaulting to 1/depth.
"""

from __future__ import annotations

import contextlib
import math
import os
from collections import namedtuple
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import activations as act
from .errors import DivergenceError, DomainError, SizeLimitError


@dataclass(frozen=True)
class Architecture:
    input_dim: int
    widths: Tuple[int, ...]
    activations: Tuple[act.ActivationSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(h) for h in self.widths))
        object.__setattr__(self, "activations", tuple(self.activations))
        if self.input_dim < 1:
            raise ValueError("input_dim must be at least 1")
        if not self.widths:
            raise ValueError("need at least one layer")
        if any(h < 1 for h in self.widths):
            raise ValueError("widths must be positive")
        if self.widths[-1] != 1:
            raise ValueError("last width must be 1 (scalar output)")
        if len(self.activations) != len(self.widths):
            raise ValueError("need one activation per layer")

    @property
    def depth(self):
        return len(self.widths)

    @property
    def fan_ins(self):
        """Input dimension of each layer: (D, H_0, ..., H_{d-2})."""
        return (self.input_dim,) + self.widths[:-1]

    def layer_shapes(self):
        return [(h, f) for h, f in zip(self.widths, self.fan_ins)]

    def associated(self):
        """The same widths with act.associated at every layer: the network of Kbar (idempotent)."""
        return Architecture(
            self.input_dim, self.widths, tuple(act.associated(s) for s in self.activations)
        )


@dataclass(frozen=True)
class WeightSet:
    matrices: Tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "matrices", tuple(np.array(w, dtype=float) for w in self.matrices)
        )

    def __iter__(self):
        return iter(self.matrices)

    def __getitem__(self, q):
        return self.matrices[q]

    def __len__(self):
        return len(self.matrices)

    def frobenius_sq(self):
        with np.errstate(over="ignore"):  # inf is meaningful to divergence checks
            return [float(np.sum(w * w)) for w in self.matrices]


def check_shapes(arch, weights, stack=()):
    """ValueError unless every matrix has the shape ``stack + (H_q, H_{q-1})``."""
    shapes = [w.shape for w in weights]
    expected = [tuple(stack) + s for s in arch.layer_shapes()]
    if shapes != expected:
        raise ValueError(f"weight shapes {shapes} do not match {expected}")


# Most weights init_weights allocates: 128 MiB of float64.
MAX_WEIGHTS = 1 << 24


def init_weights(arch, seed):
    """Gaussian init, std 0.5/sqrt(fan_in) per layer, from one seeded stream;
    SizeLimitError, before allocating, past MAX_WEIGHTS weights in all."""
    shapes = arch.layer_shapes()
    count = sum(h * f for h, f in shapes)
    if count > MAX_WEIGHTS:
        raise SizeLimitError(f"{count} weights in layers of shapes {shapes} (limit {MAX_WEIGHTS})")
    rng = np.random.default_rng(seed)
    mats = [rng.normal(0.0, 0.5 / math.sqrt(f), size=(h, f)) for h, f in shapes]
    return WeightSet(tuple(mats))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _layers(arch, weights, xs, stack=()):
    """Pre- and post-activation arrays per layer, each stack + (H_q, N), for an (N, D)
    batch; ``stack`` is the leading shape every weight matrix carries."""
    check_shapes(arch, weights, stack)
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != arch.input_dim:
        raise ValueError(f"inputs must have shape (N, {arch.input_dim}), got {xs.shape}")
    return propagate(arch, weights, xs.T)


def propagate(arch, weights, z):
    """Pre- and post-activation arrays per layer from the (D, N) inputs ``z``, as
    _layers gives them but without its checks: for callers that check the inputs
    and weight shapes once for many passes."""
    pres, posts = [], []
    for q, w in enumerate(weights):
        pres.append(w @ z)
        z = act.evaluate(arch.activations[q], pres[-1])
        posts.append(z)
    return pres, posts


def forward(arch, weights, x):
    """f(x) for one input, as a float (a batch of one)."""
    return float(forward_batch(arch, weights, np.asarray(x, dtype=float)[None])[0])


def forward_batch(arch, weights, xs):
    """f over the rows of an (N, D) array; returns shape (N,).

    Matrices stacked along a leading axis, W_q of shape (k, H_q, H_{q-1}),
    hold k weight sets; f then comes back as (k, N), each row bit-equal to
    that weight set's own forward pass.
    """
    stack = np.shape(weights[0])[:-2] if len(weights) else ()
    return _layers(arch, weights, xs, stack)[1][-1][..., 0, :]


# ---------------------------------------------------------------------------
# losses and risk
# ---------------------------------------------------------------------------

_SIGMOID = act.logistic()


def _squared(y, f):
    r = f - y
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(np.abs(r) < 1e154, r * r, math.inf)  # inf where r*r overflows


#: loss -> (value, d value / d f), elementwise over target and output arrays
_LOSS_TABLE = {
    "squared": (_squared, lambda y, f: 2.0 * (f - y)),
    # log(1 + exp(-y f)), overflow-safe
    "logistic": (
        lambda y, f: np.logaddexp(0.0, -y * f),
        lambda y, f: -y * act.evaluate(_SIGMOID, -y * f),
    ),
}
LOSSES = tuple(_LOSS_TABLE)


def loss_functions(loss):
    """(value, derivative) of a named loss, both elementwise over (y, f) arrays."""
    if loss not in _LOSS_TABLE:
        raise ValueError(f"unknown loss {loss!r}")
    return _LOSS_TABLE[loss]


def _risk(arch, weights, xs, ys, loss, lam, reg_scale, with_gradient=True):
    """(objective, gradient or None, outputs) at ``weights`` from one forward and
    backprop pass; the outputs are f over the rows of ``xs``, as forward_batch gives."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    pres, posts = _layers(arch, weights, xs)
    if not ys.size or ys.shape != (xs.shape[0],):
        raise ValueError(f"targets must have shape ({xs.shape[0]},) with N >= 1, got {ys.shape}")
    scale = 1.0 / arch.depth if reg_scale is None else float(reg_scale)
    value, deriv = loss_functions(loss)
    f = posts[-1][0]
    obj = float(np.mean(value(ys, f))) + lam * scale * sum(weights.frobenius_sq())
    if not with_gradient:
        return obj, None, f
    delta = deriv(ys, posts[-1]) / xs.shape[0]  # (1, N)
    grads = [None] * arch.depth
    for q in range(arch.depth - 1, -1, -1):
        delta = delta * act.derivative(arch.activations[q], pres[q])
        below = posts[q - 1] if q > 0 else xs.T
        grads[q] = 2.0 * lam * scale * weights[q] + delta @ below.T
        if q > 0:
            delta = weights[q].T @ delta
    return obj, WeightSet(tuple(grads)), f


def objective(arch, weights, xs, ys, loss, lam, reg_scale=None):
    """Mean loss over the rows of (N, D) ``xs`` against (N,) ``ys``, plus
    lam * reg_scale * sum_q ||W_q||_F^2 (reg_scale default 1/depth)."""
    return _risk(arch, weights, xs, ys, loss, lam, reg_scale, False)[0]


def gradient(arch, weights, xs, ys, loss, lam, reg_scale=None):
    """Exact gradient of objective() w.r.t. every weight matrix, by batched backprop."""
    return _risk(arch, weights, xs, ys, loss, lam, reg_scale)[1]


TrainResult = namedtuple("TrainResult", "weights initial_objective final_objective predictions")


def train(arch, xs, ys, loss, lam, seed, steps, step_size, reg_scale=None):
    """Plain gradient descent from the seeded init on (N, D) ``xs``, (N,) ``ys``.

    One forward and backprop pass per step gives the new iterate's objective
    and the next gradient.  The result's weights are the final iterate when it
    does not exceed the initial objective, otherwise the best iterate seen;
    it also carries the objective at the init and at those weights, and their
    outputs on ``xs``, each bit-equal to objective() and forward_batch().
    Raises DivergenceError on non-finite values.  Bit-deterministic for fixed
    inputs.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    weights = init_weights(arch, seed)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values raise below
        init_obj, g, f = _risk(arch, weights, xs, ys, loss, lam, reg_scale)
        if not math.isfinite(init_obj):
            raise DivergenceError("objective not finite at initialization")
        best = current = TrainResult(weights, init_obj, init_obj, f)
        for step in range(1, steps + 1):
            mats = tuple(w - step_size * gw for w, gw in zip(current.weights, g))
            if any(not np.all(np.isfinite(m)) for m in mats):
                raise DivergenceError("weights became non-finite during descent")
            weights = WeightSet(mats)
            obj, g, f = _risk(arch, weights, xs, ys, loss, lam, reg_scale, step < steps)
            if not math.isfinite(obj):
                raise DivergenceError("objective became non-finite during descent")
            current = TrainResult(weights, init_obj, obj, f)
            if obj < best.final_objective:
                best = current
    return current if current.final_objective <= init_obj else best


# ---------------------------------------------------------------------------
# geometric means
# ---------------------------------------------------------------------------

def _geomean(values):
    """Geometric mean: 1 for no values, 0 if any is 0, inf if any is inf."""
    if not values:
        return 1.0
    if any(v == 0.0 for v in values):
        return 0.0
    if any(math.isinf(v) for v in values):
        return math.inf
    return math.exp(sum(math.log(v) for v in values) / len(values))


def geometric_means(arch, intervals=None):
    """(width_gm, lipschitz_gm) across all layers.

    The width mean includes the final width 1.  ``intervals`` gives the [0, m]
    range per layer for the Lipschitz suprema, one m per layer; None means
    m = inf everywhere.  The Lipschitz mean is None when some layer has no
    constant on its interval (only possible at m = inf); intervals beyond a
    convergence radius raise DomainError.  The associated side's means are
    those of arch.associated().
    """
    ms = [math.inf] * arch.depth if intervals is None else [float(m) for m in intervals]
    if len(ms) != arch.depth:
        raise ValueError("need one interval per layer")
    width_gm = _geomean([float(h) for h in arch.widths])
    values = []
    for spec, m in zip(arch.activations, ms):
        try:
            values.append(act.lipschitz_on(spec, m))
        except DomainError:
            raise
        except ValueError:
            return width_gm, None
    return width_gm, _geomean(values)


# ---------------------------------------------------------------------------
# serialization: plain decimal text, exact float round trip
# ---------------------------------------------------------------------------

def exact_text(values):
    """The "%.17g" text of every value, as an object array of the values' shape;
    each distinct bit pattern is formatted once (so -0.0 stays "-0")."""
    v = np.asarray(values, dtype=float)
    bits, inverse = np.unique(v.view(np.int64), return_inverse=True)
    distinct = tuple(bits.view(float).tolist())
    text = np.array(("%.17g " * len(distinct) % distinct).split(), dtype=object)
    return text[inverse.ravel()].reshape(v.shape)


def text_rows(matrix, sep=" "):
    """One line per row of a 2-D array: its exact values joined by sep."""
    return [sep.join(row) for row in exact_text(matrix).tolist()]


def write_text(path, text):
    """Atomic write: a temp file of unique name in the same directory, then rename.

    The temp file is removed when writing or renaming fails.
    """
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def save_weights(path, weights):
    lines = [str(len(weights.matrices))]
    for w in weights:
        lines.append(f"{w.shape[0]} {w.shape[1]}")
        lines += text_rows(w)
    write_text(path, "\n".join(lines) + "\n")


def read_floats(tokens, lineno, count=None):
    """Floats of file line ``lineno``; ValueError names the line of a bad value or count."""
    if count is not None and len(tokens) != count:
        raise ValueError(f"line {lineno}: expected {count} values, got {len(tokens)}")
    try:
        values = [float(t) for t in tokens]
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from exc
    if not all(map(math.isfinite, values)):
        raise ValueError(f"line {lineno}: values must be finite")
    return values


def read_counts(tokens, lineno, count=None, what="count"):
    """Whole numbers of file line ``lineno``; ValueError names the line of a count that is
    negative or not an integer, or of the wrong number of counts."""
    if count is not None and len(tokens) != count:
        raise ValueError(f"line {lineno}: expected {count} values, got {len(tokens)}")
    for t in tokens:
        if not t.isdecimal():
            raise ValueError(f"line {lineno}: {what} {t!r} is not a whole number")
    return [int(t) for t in tokens]


def load_weights(path):
    """Weights from a save_weights file; ValueError names a malformed or non-finite line,
    a bad count, the line a short file ends on, or the first line past the last layer."""
    with open(path) as fh:
        rows = [(n, line.split()) for n, line in enumerate(fh, start=1) if line.strip()]
    if not rows:
        raise ValueError("the file holds no layer count")
    (depth,) = read_counts(rows[0][1], rows[0][0], 1, "layer count")
    mats = []
    pos = 1
    for q in range(depth):
        if pos == len(rows):
            raise ValueError(f"line {rows[-1][0]}: the file ends after {q} of {depth} layers")
        n, header = rows[pos]
        h, f = read_counts(header, n, 2, "shape count")
        block = [read_floats(tokens, r, f) for r, tokens in rows[pos + 1 : pos + 1 + h]]
        if len(block) != h:
            raise ValueError(f"line {n}: header says {h} rows, file has {len(block)}")
        pos += 1 + h
        mats.append(np.array(block, dtype=float).reshape(h, f))
    if pos < len(rows):
        raise ValueError(f"line {rows[pos][0]}: the file goes on after {depth} of {depth} layers")
    return WeightSet(tuple(mats))
