"""Workload definitions: seeded inputs, the command list of a pass, and the
identities each command's report must satisfy.

Every workload is a closed loop with one client: the commands of a pass run
back to back, one process at a time.  The program only ever sees the CSV and
JSON files written here.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# Tolerances stated up front; measured values sit far below them (eig
# stationarity ~3e-14, flatten residual below 1e-9 on the tower workload).
FLATTEN_RESIDUAL_TOL = 1e-6
STATIONARITY_TOL = 1e-10

GD_STEPS = 100  # train-ksvm solver gd
NET_STEPS = 100  # train-net and compare
MC_DRAWS = 1000  # bounds: Monte-Carlo trials and hypothesis draws


@dataclass
class Op:
    """One CLI invocation of a pass."""

    name: str  # metric stem, e.g. "flatten" -> flatten_ms
    command: str  # kreinflat subcommand
    config: dict
    write_out: bool  # pass --out (report file plus sidecars) or capture stdout
    check: Callable[[dict], Optional[str]]


@dataclass
class Workload:
    name: str
    why: str
    ops: list


def _finite(v):
    return isinstance(v, (int, float)) and math.isfinite(v)


def _check_flatten(report):
    r = report["results"].get("max_equivalence_residual")
    if not _finite(r) or r >= FLATTEN_RESIDUAL_TOL:
        return f"max_equivalence_residual {r!r} not below {FLATTEN_RESIDUAL_TOL:g}"
    return None


def _check_symmetric(section):
    if section.get("symmetric") is not True:
        return "gram not symmetric"
    return None


def _check_kernel(report):
    return _check_symmetric(report["results"])


def _check_eig(report):
    res = report["results"]
    r = res.get("stationarity_residual")
    if not _finite(r) or r >= STATIONARITY_TOL:
        return f"stationarity_residual {r!r} not below {STATIONARITY_TOL:g}"
    return _check_symmetric(res)


def _check_gd(report):
    res = report["results"]
    if not _finite(res.get("final_gradient_norm")):
        return f"final_gradient_norm {res.get('final_gradient_norm')!r} not finite"
    return _check_symmetric(res)


def _check_train_net(report):
    res = report["results"]
    init, final = res.get("initial_objective"), res.get("final_objective")
    if not (_finite(init) and _finite(final) and final <= init):
        return f"final_objective {final!r} above initial_objective {init!r}"
    return None


def _bounds_violation(bounds, tight=None):
    """empirical_estimate must not exceed any finite bound.

    Infinite bounds are skipped: bound_kernel_trace overflows to inf on erf
    nets, and inf bounds everything.
    """
    est = bounds.get("empirical_estimate")
    if est is None:
        return None
    candidates = {k: bounds.get(k) for k in ("bound_kernel_trace", "bound_linear", "bound_growth")}
    for k, v in (tight or {}).items():
        if k != "bounded_layer":
            candidates[f"tight.{k}"] = v
    for k, v in candidates.items():
        if _finite(v) and est > v:
            return f"empirical_estimate {est!r} exceeds {k} {v!r}"
    return None


def _check_bounds(report):
    res = report["results"]
    if not _finite(res.get("empirical_estimate")):
        return "empirical_estimate missing"
    return _bounds_violation(res, res.get("tight"))


def _check_compare(report):
    res = report["results"]
    r = res["ksvm"].get("stationarity_residual")
    if not _finite(r) or r >= STATIONARITY_TOL:
        return f"ksvm stationarity_residual {r!r} not below {STATIONARITY_TOL:g}"
    if not _finite(res["network"].get("objective")):
        return "network objective not finite"
    return _check_symmetric(res["gram"]) or _bounds_violation(res.get("bounds") or {})


def _no_check(report):
    return None


def _arch(kind, input_dim, widths):
    return {"input_dim": input_dim, "widths": list(widths), "activations": [kind] * len(widths)}


def write_csv(path, xs, ys):
    d = xs.shape[1]
    lines = [",".join([f"x{i}" for i in range(d)] + ["y"])]
    lines += [",".join("%.17g" % v for v in (*row, t)) for row, t in zip(xs, ys)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _dataset(rng, path, xs):
    direction = rng.normal(size=xs.shape[1])
    write_csv(path, xs, np.tanh(xs @ direction / math.sqrt(xs.shape[1])))


def _write_weights(rng, path, widths, input_dim):
    """Gaussian matrices rescaled to unit Frobenius norm, in the format of
    netcore.save_weights.  Bounded norms keep the flattening residual of
    every seed far below FLATTEN_RESIDUAL_TOL; the default init's Gaussian
    tails do not (at depth 3, truncation 7 and inputs of scale 0.1, one seed
    in sixty reached 8e-5)."""
    fans = (input_dim, *widths[:-1])
    lines = [str(len(widths))]
    for h, f in zip(widths, fans):
        m = rng.normal(size=(h, f))
        m /= np.linalg.norm(m)
        lines.append(f"{h} {f}")
        lines += [" ".join("%.17g" % v for v in row) for row in m]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _tower(rng, seed, workdir):
    widths = (3, 2, 1)
    _dataset(rng, os.path.join(workdir, "tower.csv"), rng.uniform(-0.05, 0.05, size=(64, 2)))
    _write_weights(rng, os.path.join(workdir, "tower.weights.txt"), widths, 2)
    base = {"architecture": _arch("tanh", 2, widths), "truncation": 5,
            "weights": "tower.weights.txt"}
    return [
        Op("flatten", "flatten", {**base, "dataset": "tower.csv"}, True, _check_flatten),
        # Explicit intervals: the default ones (realized chain arguments) can
        # leave the tan domain and exit 3, which is correct behaviour.
        Op("sparsity", "sparsity", {**base, "intervals": [0.5, 0.5, 0.5]}, True, _no_check),
        Op("flatten_nodump", "flatten", {**base, "dataset": "tower.csv"}, False, _check_flatten),
    ]


def _gram(rng, seed, workdir):
    _dataset(rng, os.path.join(workdir, "gram.csv"), rng.normal(size=(300, 4)))
    base = {"architecture": _arch("erf", 4, (8, 1)), "dataset": "gram.csv", "lambda": 0.5}
    return [
        Op("kernel", "kernel", base, True, _check_kernel),
        Op("train_ksvm_eig", "train-ksvm", {**base, "solver": "eig"}, True, _check_eig),
        Op(
            "train_ksvm_gd",
            "train-ksvm",
            {**base, "solver": "gd", "train": {"steps": GD_STEPS, "step_size": 0.002}},
            True,
            _check_gd,
        ),
    ]


def _fit_bound(rng, seed, workdir):
    _dataset(rng, os.path.join(workdir, "fit.csv"), rng.normal(size=(200, 5)))
    base = {"architecture": _arch("erf", 5, (16, 8, 1)), "dataset": "fit.csv",
            "seed": seed % 2**32}
    train = {"lambda": 0.01, "train": {"steps": NET_STEPS, "step_size": 0.05}}
    return [
        Op("train_net", "train-net", {**base, **train}, True, _check_train_net),
        Op("compare", "compare", {**base, **train}, True, _check_compare),
        Op(
            "bounds",
            "bounds",
            {**base, "tight": True, "trials": MC_DRAWS, "hypothesis_draws": MC_DRAWS},
            True,
            _check_bounds,
        ),
    ]


_GENERATORS = {"tower": _tower, "gram": _gram, "fit-bound": _fit_bound}
_WHY = {
    "tower": "deep narrow tanh net with a 16.5k-entry flat tower: pushforward build, feature "
             "maps and dumps dominate; kreinkernel and ksvm never run",
    "gram": "shallow erf net, N=300: O(N^2) scalar kernel chains and the ksvm solvers dominate "
            "on an indefinite Gram; pushforward never runs",
    "fit-bound": "medium erf net, N=200: per-sample netcore training, Monte-Carlo and tight "
                 "bound chains dominate; kreinkernel runs a trace and one smaller Gram",
}
WORKLOADS = tuple(_GENERATORS)


def why(name):
    return _WHY[name]


def generate(name, seed, workdir):
    """Write the workload's inputs and one JSON config per op into workdir.

    Everything is drawn from one generator seeded by (seed, workload), so the
    same seed gives the same files.  Config paths are relative to workdir.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    ops = _GENERATORS[name](rng, seed, workdir)
    for op in ops:
        with open(os.path.join(workdir, f"{op.name}.config.json"), "w") as fh:
            json.dump(op.config, fh, indent=1, sort_keys=True)
    return Workload(name, _WHY[name], ops)
