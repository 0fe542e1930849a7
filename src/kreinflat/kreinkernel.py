"""Indefinite network kernels and their positive-definite companions.

For a network whose layers all receive the same scalar recursion, the flat
machine's inner product collapses to

    K(x, x')    : s = <x, x'>; s = sigma_q(s), then s *= H_q below the top
    Kbar(x, x') : the same chain with every sigma replaced by its
                  associated function (coefficients |a_i|).

K splits as K = K_plus - K_minus along the sign of the flat metric; the
companion Kbar = K_plus + K_minus is a positive-definite kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import activations as act
from .errors import DomainError

VARIANTS = ("krein", "associated")


@dataclass(frozen=True)
class KernelDefinition:
    arch: object
    variant: str = "krein"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")

    @property
    def chain_arch(self):
        """The architecture the kernel chains over: arch for K, arch.associated() for Kbar."""
        return self.arch.associated() if self.variant == "associated" else self.arch


def chain(arch, s, layers=None):
    """The layer recursion, elementwise over an array ``s`` of inner products.

    Each layer k in ``layers`` (consecutive indices, default all) applies
    sigma_k; the width H_k multiplies in between, not after the last listed
    layer.  Kbar chains over arch.associated().

    An entry that leaves a layer's domain is masked for the layers above, so
    the DomainError blames the first violating entry in C order, at the
    layer where it failed; ``location`` is its flat index (None for 0-d s).
    """
    layers = range(arch.depth) if layers is None else layers
    s = np.asarray(s, dtype=float)
    dead = blame = None  # masked entries; (flat index, layer, argument) of the first
    for k in layers:
        spec = arch.activations[k]
        fresh = act.outside_domain(spec, s)
        if dead is not None:
            fresh &= ~dead
        if fresh.any():
            i = int(np.argmax(fresh))
            if blame is None or i < blame[0]:
                blame = i, k, float(s.flat[i])
            dead = fresh if dead is None else dead | fresh
        s = act.evaluate(spec, s if dead is None else np.where(dead, 0.0, s))
        if k != layers[-1]:
            s = s * arch.widths[k]
    if blame is not None:
        i, k, arg = blame
        try:  # re-raise the blamed entry's own error
            act.evaluate(arch.activations[k], arg)
        except DomainError as exc:
            raise DomainError(
                f"layer {k}: {exc}", layer=k, location=i if s.ndim else None
            ) from exc
    return s


def _dot(arch, x, xp):
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    if x.shape != (arch.input_dim,) or xp.shape != (arch.input_dim,):
        raise ValueError(
            f"inputs must have shape ({arch.input_dim},), got {x.shape} and {xp.shape}"
        )
    return x @ xp


def kernel_value(defn, x, xp):
    """K or Kbar according to defn.variant."""
    return chain(defn.chain_arch, _dot(defn.arch, x, xp))


def associated_kernel(defn, x, xp):
    """The positive-definite companion Kbar(x, x') (any definition variant)."""
    return chain(defn.arch.associated(), _dot(defn.arch, x, xp))


def gram(defn, points):
    """The Gram matrix over the rows of ``points`` (exactly symmetric).

    The chain runs on the upper triangle of X X^T, which is mirrored, so
    G[i, j] and G[j, i] are bit-identical.  Domain violations and non-finite
    values are raised as DomainError with the first offending entry (i, j),
    in row-major order, attached.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != defn.arch.input_dim:
        raise ValueError(
            f"points must be a 2-d array with {defn.arch.input_dim} columns "
            f"(one row per sample), got shape {points.shape}"
        )
    upper = np.triu(np.ones((points.shape[0],) * 2, dtype=bool))
    out = points @ points.T
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are refused next
            values = chain(defn.chain_arch, out[upper])
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise DomainError("the kernel value is not finite", location=int(bad[0]))
    except DomainError as exc:
        i, j = (int(ix[exc.location]) for ix in np.nonzero(upper))
        raise DomainError(
            f"gram entry ({i}, {j}): {exc}", layer=exc.layer, location=(i, j)
        ) from exc
    out[upper] = values
    out.T[upper] = values  # the mirror: out.T walks the lower triangle in the same order
    return out
