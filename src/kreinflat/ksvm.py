"""Kernel machines over indefinite Gram matrices.

The stabilized risk is

    J(alpha) = (1/N) sum_i loss(y_i, (G alpha)_i) + lam * alpha' G alpha,

whose regularizer may be negative.  For squared loss its stationary points
solve (G + lam N I) alpha = y; train_squared guards that system with the
eigenvalues of G's symmetric part and solves it by LU, train_gd descends the
same risk from alpha=0.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import activations as act
from . import kreinkernel as kk
from . import netcore
from .errors import DivergenceError, NearSingularError

SolveResult = namedtuple("SolveResult", "alpha residual")
GDResult = namedtuple("GDResult", "alpha grad_norm")
ObjectiveParts = namedtuple("ObjectiveParts", "total empirical regularizer")

_NEAR_SINGULAR_RTOL = 1e-12


@dataclass
class TrainedKSVM:
    alpha: np.ndarray
    training_points: np.ndarray
    lam: float
    kernel_def: kk.KernelDefinition


def _check_system(gram, y):
    gram = np.asarray(gram, dtype=float)
    y = np.asarray(y, dtype=float)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValueError("gram must be square")
    if y.shape != (gram.shape[0],):
        raise ValueError("y must match the gram size")
    if not np.isfinite(gram).all():  # an inf would make the symmetry tolerance inf
        raise ValueError("gram must be finite")
    if not np.array_equal(gram, gram.T):  # a bit-symmetric Gram, as kk.gram's, is accepted at once
        scale = max(1.0, float(np.abs(gram).max(initial=0.0)))
        if not np.allclose(gram, gram.T, rtol=0.0, atol=1e-12 * scale):
            raise ValueError("gram must be symmetric")
    return gram, y


def train_squared(gram, y, lam, eigenvalues=None):
    """Solve (G + lam N I) alpha = y; returns (alpha, residual norm).

    ``eigenvalues`` are those of the symmetric part (G + G')/2, as
    np.linalg.eigvalsh gives them (computed here when None).  They only guard
    the solve: NearSingularError when one lies within a relative 1e-12 of
    -lam N.  Alpha itself comes from an LU solve of the system.
    """
    gram, y = _check_system(gram, y)
    if lam <= 0:
        raise ValueError("lam must be positive")
    n = gram.shape[0]
    if eigenvalues is None:
        eigenvalues = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    shifted = eigenvalues + lam * n
    scale = max(float(np.max(np.abs(eigenvalues))), 1.0)
    if np.min(np.abs(shifted)) < _NEAR_SINGULAR_RTOL * scale:
        raise NearSingularError(
            f"G + lam*N*I has an eigenvalue within {_NEAR_SINGULAR_RTOL * scale:g} of zero"
        )
    system = gram + 0.0  # a copy; adding 0.0 clears -0.0 off the diagonal, as adding lam*N*I does
    system.flat[:: n + 1] += lam * n
    alpha = np.linalg.solve(system, y)
    residual = float(np.linalg.norm(system @ alpha - y))
    return SolveResult(alpha, residual)


def _gradient(alpha, gram, y, lam, loss, f):
    """Gradient of the risk at alpha, given f = gram @ alpha."""
    return gram @ (netcore.loss_functions(loss)[1](y, f) / gram.shape[0] + 2.0 * lam * alpha)


def _objective(alpha, gram, y, lam, loss):
    """Risk parts at alpha, and f = gram @ alpha for the next gradient."""
    with np.errstate(over="ignore"):  # inf is meaningful to divergence checks
        f = gram @ alpha
        emp = float(np.mean(netcore.loss_functions(loss)[0](y, f)))
        reg = float(lam * alpha @ gram @ alpha)
    return ObjectiveParts(emp + reg, emp, reg), f


def objective_gradient(alpha, gram, y, lam, loss="squared"):
    """Gradient of the stabilized risk with respect to alpha."""
    gram, y = _check_system(gram, y)
    alpha = np.asarray(alpha, dtype=float)
    return _gradient(alpha, gram, y, lam, loss, gram @ alpha)


def stabilized_objective(alpha, gram, y, lam, loss="squared"):
    """(total, empirical, regularizer); the regularizer may be negative."""
    gram, y = _check_system(gram, y)
    return _objective(np.asarray(alpha, dtype=float), gram, y, lam, loss)[0]


def train_gd(gram, y, lam, loss="squared", steps=500, step_size=0.05):
    """Plain gradient descent on the stabilized risk from alpha = 0.

    Deterministic given its arguments.  The system is validated once, at
    entry; each step's gradient reuses the ``gram @ alpha`` of the previous
    divergence check.  Returns (alpha, final gradient norm); raises
    DivergenceError when the risk or an iterate stops being finite.
    """
    gram, y = _check_system(gram, y)
    alpha = np.zeros_like(y)
    f = gram @ alpha
    for _ in range(steps):
        alpha = alpha - step_size * _gradient(alpha, gram, y, lam, loss, f)
        if not np.all(np.isfinite(alpha)):
            raise DivergenceError("alpha became non-finite during descent")
        parts, f = _objective(alpha, gram, y, lam, loss)
        if not math.isfinite(parts.total):
            raise DivergenceError("stabilized risk became non-finite during descent")
    grad_norm = float(np.linalg.norm(_gradient(alpha, gram, y, lam, loss, f)))
    return GDResult(alpha, grad_norm)


def predict(model, x):
    """f*(x) = sum_i alpha_i K(x, x_i) under the model's kernel variant."""
    defn = model.kernel_def
    s = model.training_points @ np.asarray(x, dtype=float)
    return float(model.alpha @ kk.chain(defn.chain_arch, s))


# ---------------------------------------------------------------------------
# model files: plain decimal text
# ---------------------------------------------------------------------------

def _spec_tokens(spec):
    if spec.kind == "polynomial":
        return ["polynomial", *netcore.exact_text(spec.coefficients).tolist()]
    if spec.kind in ("relu_surrogate", "relu_surrogate_assoc"):
        return [spec.kind, netcore.exact_text(spec.sharpness).item()]
    return [spec.kind]


def _spec_from_tokens(tokens, lineno):
    kind, params = tokens[0], netcore.read_floats(tokens[1:], lineno)
    if kind == "polynomial":
        return act.polynomial(tuple(params))
    if len(params) > 1:
        raise ValueError(f"line {lineno}: {kind} takes at most one parameter, got {len(params)}")
    return act.ActivationSpec(kind, sharpness=params[0] if params else None)


def save_model(path, model):
    arch = model.kernel_def.arch
    lines = [
        "lambda " + netcore.exact_text(model.lam).item(),
        f"variant {model.kernel_def.variant}",
        f"input_dim {arch.input_dim}",
        "widths " + " ".join(str(h) for h in arch.widths),
    ]
    for spec in arch.activations:
        lines.append("activation " + " ".join(_spec_tokens(spec)))
    pts = np.asarray(model.training_points, dtype=float)
    lines.append(f"points {pts.shape[0]}")
    lines += netcore.text_rows(pts)
    lines += ["alpha " + row for row in netcore.text_rows([model.alpha])]
    netcore.write_text(path, "\n".join(lines) + "\n")


#: the keys of a model file, in save_model's order; only activation may repeat
_MODEL_KEYS = ("lambda", "variant", "input_dim", "widths", "activation", "points", "alpha")


def load_model(path):
    """Model from a save_model file; ValueError for a missing key, or naming the line
    of an unknown or repeated key, a key without its value, a count (input_dim,
    width, points) that is not a whole number, a point row of the wrong width, an
    alpha count other than the point count or a non-finite number."""
    with open(path) as fh:
        rows = [(n, line.split()) for n, line in enumerate(fh, start=1) if line.strip()]
    fields = {}  # head -> (tokens, line number); points -> (rows, line number)
    specs = []
    unknown = None  # the error of the first line no key names
    pos = 0
    while pos < len(rows):
        lineno, (head, *tokens) = rows[pos]
        pos += 1
        if head not in _MODEL_KEYS:
            unknown = unknown or f"line {lineno}: unknown key {head!r}"
            continue
        if head in fields:
            raise ValueError(f"line {lineno}: {head} repeats line {fields[head][1]}")
        if not tokens and head in ("activation", "variant", "input_dim", "widths", "points"):
            raise ValueError(f"line {lineno}: {head} has no value")
        if head == "activation":
            specs.append(_spec_from_tokens(tokens, lineno))
        elif head == "points":
            (count,) = netcore.read_counts(tokens, lineno, 1, "point count")
            fields[head] = rows[pos : pos + count], lineno
            pos += count
        else:
            fields[head] = tokens, lineno
    missing = [k for k in _MODEL_KEYS if k != "activation" and k not in fields]
    if missing:
        raise ValueError(f"model file lacks {', '.join(missing)}")
    if unknown:  # after the missing keys, so point rows without their header report that
        raise ValueError(unknown)
    arch = netcore.Architecture(
        input_dim=netcore.read_counts(*fields["input_dim"], 1, "input_dim")[0],
        widths=tuple(netcore.read_counts(*fields["widths"], what="width")),
        activations=tuple(specs),
    )
    points = [netcore.read_floats(t, n, arch.input_dim) for n, t in fields["points"][0]]
    return TrainedKSVM(
        alpha=np.array(netcore.read_floats(*fields["alpha"], len(points))),
        training_points=np.array(points, dtype=float).reshape(len(points), arch.input_dim),
        lam=netcore.read_floats(*fields["lambda"], 1)[0],
        kernel_def=kk.KernelDefinition(arch, fields["variant"][0][0]),
    )
