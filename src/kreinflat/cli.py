"""Command-line front end.

Subcommands: flatten, kernel, train-net, train-ksvm, compare, bounds,
sparsity.  Every run reads one JSON config (--config), optionally overridden
by --seed/--trunc, and emits one JSON report with the sections config_echo /
results / diagnostics / warnings.  Reports are written atomically and contain
nothing run-dependent, so rerunning a config reproduces the bytes exactly.

Exit codes: 0 success, 2 configuration/validation problems, 3 numerical
domain failures (series domain violations, near-singular solves, divergence).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import activations as act
from . import analysis
from . import kreinkernel as kk
from . import ksvm
from . import netcore
from . import pushforward as pf
from .errors import DivergenceError, DomainError, NearSingularError, SizeLimitError
from .netcore import write_text

DEFAULT_TRUNCATION = pf.DEFAULT_TRUNCATION


class ConfigError(ValueError):
    """Configuration input that fails validation (exit code 2)."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

REQUIRED = object()  # the default of a key that a run must give

_ALL = ("flatten", "kernel", "train-net", "train-ksvm", "compare", "bounds", "sparsity")
_FIT = ("train-net", "train-ksvm", "compare")
_MC = ("compare", "bounds")
# type: (description, test of one value); a "<type> list" key holds a list of them
_TYPES = {
    "integer": ("an integer", lambda v: type(v) is int),
    "number": (
        "a finite number", lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max
    ),
    "bool": ("true or false", lambda v: type(v) is bool),
    "path": ("a path string", lambda v: type(v) is str),
    "choice": ("", lambda v: type(v) is str),
    "object": ("an object", lambda v: type(v) is dict),
    "activation": ("an activation name or object", lambda v: type(v) in (str, dict)),
}
_RANGES = {
    "": lambda v: True,
    "> 0": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    # integers that meet float arithmetic stay exact as floats
    ">= 1 and < 2**53": lambda v: 1 <= v < 2**53,
    ">= 0 and < 2**64": lambda v: 0 <= v < 2**64,
    # Monte-Carlo counts size arrays of that many rows
    ">= 0 and < 2**20": lambda v: 0 <= v < 2**20,
    ">= 1 and < 2**20": lambda v: 1 <= v < 2**20,
}


@dataclass(frozen=True)
class Key:
    """A config key: its type, range (or choices), default, and the commands that
    read it.  ``by_command`` replaces fields of the entry for one command."""

    type: str
    commands: tuple
    default: object = REQUIRED
    range: str = ""
    choices: tuple = ()
    by_command: dict = field(default_factory=dict)


CONFIG_KEYS = {
    "architecture": Key("object", _ALL),
    "architecture.input_dim": Key("integer", _ALL, range=">= 1 and < 2**53"),
    "architecture.widths": Key("integer list", _ALL, range=">= 1 and < 2**53"),
    "architecture.activations": Key("activation list", _ALL),
    "dataset": Key("path", _ALL[:-1], by_command={"flatten": {"default": None}}),  # not sparsity
    "weights": Key("path", ("flatten", "bounds", "sparsity"), None),
    "seed": Key("integer", ("flatten", "train-net", "compare", "bounds", "sparsity"), 0,
                ">= 0 and < 2**64"),
    "truncation": Key("integer", ("flatten", "sparsity"), DEFAULT_TRUNCATION, ">= 1"),
    "lambda": Key("number", _FIT, range="> 0"),
    "reg_scale": Key("number", ("train-net", "compare", "bounds", "sparsity"), None, ">= 0"),
    "loss": Key("choice", _FIT, "squared", choices=netcore.LOSSES),
    "variant": Key("choice", ("kernel", "train-ksvm", "compare"), "krein", choices=kk.VARIANTS),
    "solver": Key("choice", ("train-ksvm",), "eig", choices=("eig", "gd")),
    "train": Key("object", _FIT, {}),
    "train.steps": Key("integer", _FIT, 200, ">= 1", by_command={"train-ksvm": {"range": ">= 0"}}),
    "train.step_size": Key("number", _FIT, 0.05, "> 0"),
    "trials": Key("integer", _MC, 0, ">= 0 and < 2**20"),
    "hypothesis_draws": Key("integer", _MC, None, ">= 1 and < 2**20"),
    "radius": Key("number", ("bounds",), None, "> 0"),
    "n": Key("integer", ("bounds",), None, ">= 1 and < 2**53"),
    "tight": Key("bool", ("bounds",), False),
    "epsilons": Key("number list", ("sparsity",), [1e-2, 1e-4, 1e-6], "> 0"),
    "intervals": Key("number list", ("sparsity",), None, "> 0"),
}


class Config(dict):
    """The raw JSON config of one run, echoed as is in its report; ``command`` is set
    to the subcommand that reads it."""


def _fits(spec, value):
    """Whether one value (one element of a list key) has the key's type and range."""
    if not _TYPES[spec.type.removesuffix(" list")][1](value):
        return False
    return value in spec.choices if spec.choices else _RANGES[spec.range](value)


def _get(cfg, key):
    """Config ``key`` checked against its CONFIG_KEYS entry; numbers come back as floats.

    A dotted key is a field of an object key.  A missing (or null) key gives
    the default.  A missing required key, or a value of the wrong type or out
    of range, raises ConfigError naming the key.
    """
    spec = CONFIG_KEYS[key]
    spec = replace(spec, **spec.by_command.get(cfg.command, {}))
    parent, _, name = key.rpartition(".")
    value = (_get(cfg, parent) if parent else cfg).get(name)
    if value is None:
        if spec.default is REQUIRED:
            raise ConfigError(f"'{key}' is required")
        return spec.default
    return _checked(key, spec, value)


def _checked(key, spec, value):
    """A non-null value of ``key`` checked against ``spec``, as _get returns it."""
    kind = spec.type.removesuffix(" list")
    many = kind != spec.type
    values = value if many else [value]
    if many != (type(value) is list) or not all(_fits(spec, v) for v in values):
        choices = spec.choices and "one of " + ", ".join(spec.choices)
        expected = " ".join(filter(None, (_TYPES[kind][0], spec.range, choices)))
        raise ConfigError(f"'{key}' must be {'a list, each ' if many else ''}{expected}")
    return float(value) if spec.type == "number" else value


# the numeric fields of an activation object, typed as config keys are
_ACTIVATION_FIELDS = {"coefficients": "number list", "sharpness": "number"}


def _activation_from_entry(entry):
    try:
        if isinstance(entry, str):
            return act.ActivationSpec(entry)
        unknown = [name for name in entry if name != "kind" and name not in _ACTIVATION_FIELDS]
        if unknown:
            fields = ", ".join(("kind", *_ACTIVATION_FIELDS))
            raise ConfigError(f"unknown field {unknown[0]!r} (the fields are {fields})")
        if "kind" not in entry:
            raise ConfigError("missing field 'kind'")
        for name, type_ in _ACTIVATION_FIELDS.items():
            if entry.get(name) is not None:
                _checked(name, Key(type_, ()), entry[name])
        return act.ActivationSpec(**entry)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad activation entry {entry!r}: {exc}") from exc


def architecture_from_config(cfg):
    input_dim = _get(cfg, "architecture.input_dim")
    widths = _get(cfg, "architecture.widths")
    acts = [_activation_from_entry(e) for e in _get(cfg, "architecture.activations")]
    try:
        return netcore.Architecture(input_dim, widths, acts)
    except ValueError as exc:
        raise ConfigError(f"bad architecture: {exc}") from exc


def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def load_dataset(path, input_dim):
    """CSV with header x0..x{D-1},y; returns (X, y, lines), lines[i] the file line of row i."""
    expected = [f"x{i}" for i in range(input_dim)] + ["y"]
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read dataset: {exc}") from exc
    if not rows or [c.strip() for c in rows[0]] != expected:
        raise ConfigError(
            f"dataset header must be {','.join(expected)} (file {path!r})"
        )
    lines = [n for n, row in enumerate(rows[1:], start=2) if len(row) > 1 or row and row[0].strip()]
    if not lines:
        raise ConfigError("dataset has no samples")
    try:  # one conversion; NumPy parses each field as float() does
        table = np.array([rows[n - 1] for n in lines], dtype=float)
        ok = table.shape[1:] == (input_dim + 1,) and np.isfinite(table).all()
    except ValueError:  # a ragged or non-numeric table
        ok = False
    if not ok:  # row by row, to name the first bad line
        try:
            table = np.array([netcore.read_floats(rows[n - 1], n, input_dim + 1) for n in lines])
        except ValueError as exc:
            raise ConfigError(f"dataset {exc}") from exc
    return table[:, :input_dim], table[:, input_dim], lines


def _weights_for(cfg, arch):
    path = _get(cfg, "weights")
    if path is not None:
        try:
            weights = netcore.load_weights(path)
        except OSError as exc:
            raise ConfigError(f"cannot read weights: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"malformed weights file: {exc}") from exc
        netcore.check_shapes(arch, weights)  # ValueError: exit 2
        return weights
    return netcore.init_weights(arch, _get(cfg, "seed"))


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def render_report(report):
    return json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n"


def _emit(report, out):
    text = render_report(report)
    if out is None:
        sys.stdout.write(text)
    else:
        write_text(out, text)


def _report(cfg, results, diagnostics=None, warnings=None):
    return {
        "config_echo": cfg,
        "results": results,
        "diagnostics": diagnostics or {},
        "warnings": warnings or [],
    }


def _sidecars(out, names, skipped, artifacts):
    """Write artifacts next to the report ``out``, naming each file in ``names``;
    return the run's warnings about them.

    Each artifact is (name, file suffix, save, value), and save(path, value)
    writes it.  Without --out nothing is saved, and the warning names what was
    ``skipped`` (no warning when that is None).
    """
    if out is None:
        return [f"no --out given: {skipped} skipped"] if skipped else []
    stem = os.path.splitext(out)[0]
    for name, suffix, save, value in artifacts:
        save(f"{stem}.{suffix}", value)
        names[name] = os.path.basename(f"{stem}.{suffix}")
    return []


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def run_flatten(cfg, out=None):
    arch = architecture_from_config(cfg)
    trunc = _get(cfg, "truncation")
    weights = _weights_for(cfg, arch)
    metric = pf.flatten_metric(arch, trunc)
    vq, vnn = pf.pushed_weights(arch, weights, trunc)

    warnings = []
    diagnostics = {
        "level_entry_counts": pf.level_counts(arch, trunc),
        "stored_top_entries": int(len(vnn.values)),
    }
    results = {"truncation": trunc}

    path = _get(cfg, "dataset")
    if path is not None:
        xs, _, lines = load_dataset(path, arch.input_dim)
        probe = xs[0]
        gv = metric.values * vnn.values
        flat = []
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite row is refused next
            for phi in pf.feature_blocks(arch, xs, trunc):
                if not flat:  # compose works row by row: row 0 holds the probe's feature map
                    feature = vnn.like(phi[0].copy())
                # one 1-D sum per row, as flat_eval takes it: a sum along an axis of
                # the block rounds differently
                flat += [np.sum(row) for row in phi * gv]
            f = netcore.forward_batch(arch, weights, xs)
        del phi  # the last block is not kept through the dumps
        flat = np.array(flat)
        bad = np.flatnonzero(~(np.isfinite(f) & np.isfinite(flat)))
        if bad.size:
            raise DomainError(f"dataset line {lines[bad[0]]}: the network or flat value is not finite")
        results["max_equivalence_residual"] = float(np.max(np.abs(f - flat) / (1.0 + np.abs(f))))
        results["dataset_rows"] = int(xs.shape[0])
    else:
        probe = np.ones(arch.input_dim)
        feature = None if out is None else pf.flatten_feature_map(arch, probe, trunc)  # dumps only
        warnings.append("no dataset given: no equivalence residual, probe input is all-ones")
    results["probe_input"] = [float(v) for v in probe]

    vectors = [("feature_map", feature), ("metric", metric), ("flat_weight", vnn),
               *((f"weight_layer{q}", v) for q, v in enumerate(vq))]
    files = {}
    warnings += _sidecars(out, files, "series dumps", [
        (name, f"{name}.txt", lambda p, vec: write_text(p, pf.dump_series(vec)), vec)
        for name, vec in vectors])
    if files:
        results["dump_files"] = files
    return _report(cfg, results, diagnostics, warnings)


def _gram_diagnostics(gram):
    """The ascending eigenvalues of the Gram's symmetric part, and the report's
    diagnostics from them.  This is a run's one eigensolve: the exact solver's
    guard takes the same eigenvalues."""
    symmetric = bool(np.array_equal(gram, gram.T))  # then G is its own symmetric part
    eigs = np.linalg.eigvalsh(gram if symmetric else 0.5 * (gram + gram.T))
    return eigs, {
        "min_eigenvalue": float(eigs[0]),
        "max_eigenvalue": float(eigs[-1]),
        "symmetric": symmetric,
    }


def run_kernel(cfg, out=None):
    arch = architecture_from_config(cfg)
    variant = _get(cfg, "variant")
    xs, _, _ = load_dataset(_get(cfg, "dataset"), arch.input_dim)
    gram = kk.gram(kk.KernelDefinition(arch, variant), xs)
    results = {"variant": variant, "n": int(xs.shape[0])}
    results.update(_gram_diagnostics(gram)[1])
    warnings = _sidecars(out, results, "gram CSV", [(
        "gram_csv", "gram.csv",
        lambda p, g: write_text(p, "\n".join(netcore.text_rows(g, ",")) + "\n"), gram,
    )])
    return _report(cfg, results, warnings=warnings)


def run_train_net(cfg, out=None):
    arch = architecture_from_config(cfg)
    xs, ys, _ = load_dataset(_get(cfg, "dataset"), arch.input_dim)
    loss = _get(cfg, "loss")
    lam = _get(cfg, "lambda")
    steps, step_size = _get(cfg, "train.steps"), _get(cfg, "train.step_size")
    reg_scale = _get(cfg, "reg_scale")
    seed = _get(cfg, "seed")

    fit = netcore.train(arch, xs, ys, loss, lam, seed, steps, step_size, reg_scale)
    weights = fit.weights
    loss_of = netcore.loss_functions(loss)[0]
    results = {
        "initial_objective": fit.initial_objective,
        "final_objective": fit.final_objective,
        "final_mean_loss": float(np.mean(loss_of(ys, fit.predictions))),
        "layer_frobenius_sq": weights.frobenius_sq(),
        "weight_ball_radius": analysis.weight_ball_radius(arch, weights, reg_scale),
        "steps": steps,
        "step_size": step_size,
    }
    warnings = _sidecars(out, results, "weights file", [
        ("weights_file", "weights.txt", netcore.save_weights, weights)])
    return _report(cfg, results, warnings=warnings)


def run_train_ksvm(cfg, out=None):
    arch = architecture_from_config(cfg)
    xs, ys, _ = load_dataset(_get(cfg, "dataset"), arch.input_dim)
    variant = _get(cfg, "variant")
    lam = _get(cfg, "lambda")
    solver = _get(cfg, "solver")
    loss = _get(cfg, "loss")
    defn = kk.KernelDefinition(arch, variant)
    gram = kk.gram(defn, xs)
    results = {"variant": variant, "n": int(xs.shape[0]), "solver": solver}
    eigs, diagnostics = _gram_diagnostics(gram)
    results.update(diagnostics)
    if solver == "eig":
        alpha, residual = ksvm.train_squared(gram, ys, lam, eigs)
        results["stationarity_residual"] = residual
    else:
        steps, step_size = _get(cfg, "train.steps"), _get(cfg, "train.step_size")
        alpha, grad_norm = ksvm.train_gd(gram, ys, lam, loss, steps, step_size)
        results["final_gradient_norm"] = grad_norm
    parts = ksvm.stabilized_objective(alpha, gram, ys, lam, loss)
    results["stabilized_objective"] = parts._asdict()
    warnings = _sidecars(out, results, "model file", [
        ("model_file", "model.txt", ksvm.save_model, ksvm.TrainedKSVM(alpha, xs, lam, defn))])
    return _report(cfg, results, warnings=warnings)


def _bound_report(arch, weights_or_radius, xs, n, trials, draws, seed):
    """Every bound of the net, with the Monte-Carlo estimate when ``trials`` > 0."""
    report = analysis.rademacher_bound_net(arch, weights_or_radius, xs, n)
    if trials:
        report.empirical_estimate = analysis.empirical_rademacher(
            arch, report.weight_ball_radius, xs, trials=trials, hypothesis_draws=draws, seed=seed
        )
    return report


def run_compare(cfg, out=None):
    arch = architecture_from_config(cfg)
    xs, ys, _ = load_dataset(_get(cfg, "dataset"), arch.input_dim)
    loss = _get(cfg, "loss")
    lam = _get(cfg, "lambda")
    steps, step_size = _get(cfg, "train.steps"), _get(cfg, "train.step_size")
    seed = _get(cfg, "seed")
    reg_scale = _get(cfg, "reg_scale")
    trials = _get(cfg, "trials")
    draws = _get(cfg, "hypothesis_draws") or trials
    variant = _get(cfg, "variant")

    fit = netcore.train(arch, xs, ys, loss, lam, seed, steps, step_size, reg_scale)
    weights = fit.weights
    loss_of = netcore.loss_functions(loss)[0]
    net_loss = float(np.mean(loss_of(ys, fit.predictions)))

    defn = kk.KernelDefinition(arch, variant)
    gram = kk.gram(defn, xs)
    eigs, gram_diagnostics = _gram_diagnostics(gram)
    alpha, residual = ksvm.train_squared(gram, ys, lam, eigs)
    model = ksvm.TrainedKSVM(alpha, xs, lam, defn)
    svm_pred = gram @ alpha
    svm_loss = float(np.mean(loss_of(ys, svm_pred)))

    warnings = []
    bounds = None
    try:
        bounds = vars(_bound_report(arch, weights, xs, None, trials, draws, seed))
    except (ValueError, DomainError) as exc:
        warnings.append(f"bounds unavailable: {exc}")

    results = {
        "network": {
            "mean_loss": net_loss,
            "objective": fit.final_objective,
            "predictions": fit.predictions,
        },
        "ksvm": {
            "mean_loss": svm_loss,
            "stationarity_residual": residual,
            "predictions": svm_pred,
        },
        "gram": gram_diagnostics,
        "bounds": bounds,
    }
    _sidecars(out, results, None, [
        ("model_file", "model.txt", ksvm.save_model, model),
        ("weights_file", "weights.txt", netcore.save_weights, weights),
    ])
    return _report(cfg, results, warnings=warnings)


def run_bounds(cfg, out=None):
    arch = architecture_from_config(cfg)
    xs, _, _ = load_dataset(_get(cfg, "dataset"), arch.input_dim)
    radius = _get(cfg, "radius")
    if radius is None:
        weights = _weights_for(cfg, arch)
        radius = analysis.weight_ball_radius(arch, weights, _get(cfg, "reg_scale"))
    n = _get(cfg, "n") or int(xs.shape[0])
    trials = _get(cfg, "trials")
    draws = _get(cfg, "hypothesis_draws") or trials

    warnings = []
    results = dict(vars(_bound_report(arch, radius, xs, n, trials, draws, _get(cfg, "seed"))))
    if _get(cfg, "tight"):
        try:
            tb = analysis.tight_bound(arch, radius, xs, n)
            results["tight"] = vars(tb)
        except ValueError as exc:
            warnings.append(f"tight bound precondition not met: {exc}")
    diagnostics = {
        "mean_input_norm_sq": float(np.mean(analysis.squared_norms(xs))),
        "sample_rows": int(xs.shape[0]),
    }
    return _report(cfg, results, diagnostics, warnings)


def run_sparsity(cfg, out=None):
    arch = architecture_from_config(cfg)
    trunc = _get(cfg, "truncation")
    weights = _weights_for(cfg, arch)
    epsilons = _get(cfg, "epsilons")
    metric = pf.flatten_metric(arch, trunc)
    vnn = pf.flat_weight(arch, weights, trunc)
    radius = analysis.weight_ball_radius(arch, weights, _get(cfg, "reg_scale"))

    warnings = []
    intervals = _get(cfg, "intervals")
    assoc = arch.associated()
    if intervals is None:
        intervals = [max(m, 1e-9) for m in analysis.penalties(assoc, weights).intervals]
    width_gm, lbar = netcore.geometric_means(assoc, intervals)
    for q, spec in enumerate(arch.activations):
        if act.taylor_coefficient(spec, 0) != 0.0:
            warnings.append(
                f"layer {q} activation has a nonzero constant term; "
                "the sparsity ceiling is not guaranteed"
            )
    fro = weights.frobenius_sq()
    if any(f < 1.0 for f in fro) or max(float(np.max(np.abs(w))) for w in weights) > 1.0:
        warnings.append(
            "weight admissibility (per-layer Frobenius >= 1, entries <= 1) "
            "violated; the sup-norm ceilings are not guaranteed"
        )
    constants = analysis.SparsityConstants(
        width_gm=width_gm,
        lipschitz_assoc_gm=lbar,
        input_dim=arch.input_dim,
        weight_ball_radius=radius,
    )
    profile = analysis.sparsity_profile(metric.values, vnn.values, arch.depth, constants, epsilons)
    results = {
        **vars(profile),
        "epsilon_counts": [
            {"epsilon": e, "count": c, "ceiling": cap}
            for e, c, cap in profile.epsilon_counts
        ],
    }
    diagnostics = {
        "constants": vars(constants),
        "intervals": list(intervals),
        "stored_top_entries": int(len(vnn.values)),
    }
    return _report(cfg, results, diagnostics, warnings)


HANDLERS = {
    "flatten": run_flatten,
    "kernel": run_kernel,
    "train-net": run_train_net,
    "train-ksvm": run_train_ksvm,
    "compare": run_compare,
    "bounds": run_bounds,
    "sparsity": run_sparsity,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kreinflat",
        description="Flatten networks, evaluate their kernels, train, and bound.",
    )
    parser.add_argument("command", choices=HANDLERS, help="subcommand to run")
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=None, help="report path (stdout when omitted)")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--trunc", type=int, default=None, help="override truncation")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.out:
            parent = os.path.dirname(os.path.abspath(args.out))
            os.makedirs(parent, exist_ok=True)
        cfg = Config(load_config(args.config))
        cfg.command = args.command
        for key, value in (("seed", args.seed), ("truncation", args.trunc)):
            if value is not None:
                cfg[key] = value
                _get(cfg, key)
        report = HANDLERS[args.command](cfg, args.out)
        _emit(report, args.out)
    # LinAlgError subclasses ValueError, so it must be caught before the exit-2 clause
    except (DomainError, NearSingularError, DivergenceError, np.linalg.LinAlgError) as exc:
        print(f"numerical domain failure: {exc}", file=sys.stderr)
        return 3
    except SizeLimitError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
