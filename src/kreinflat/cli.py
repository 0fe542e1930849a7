"""Command-line front end.

Subcommands: flatten, kernel, train-net, train-ksvm, compare, bounds,
sparsity.  Every run reads one JSON config (--config), optionally overridden
by --seed/--trunc, and emits one JSON report with the sections config_echo /
results / diagnostics / warnings.  Reports are written atomically and contain
nothing run-dependent, so rerunning a config reproduces the bytes exactly.

Exit codes are decided by the error's type: 0 success; 2 InputError (a bad
config, dataset, weights file or combination of keys), SizeLimitError or
OSError; 3 DomainError, NearSingularError, DivergenceError or
numpy.linalg.LinAlgError.  Any other exception is a bug and propagates (exit 1).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from . import activations as act
from . import analysis
from . import kreinkernel as kk
from . import ksvm
from . import netcore
from . import pushforward as pf
from .errors import DivergenceError, DomainError, InputError, NearSingularError, SizeLimitError
from .netcore import write_text

DEFAULT_TRUNCATION = pf.DEFAULT_TRUNCATION


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
    "truncation": Key("integer", ("flatten", "sparsity"), DEFAULT_TRUNCATION, ">= 1 and < 2**53"),
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
    of range, raises InputError naming the key.
    """
    spec = CONFIG_KEYS[key]
    spec = replace(spec, **spec.by_command.get(cfg.command, {}))
    parent, _, name = key.rpartition(".")
    value = (_get(cfg, parent) if parent else cfg).get(name)
    if value is None:
        if spec.default is REQUIRED:
            raise InputError(f"'{key}' is required")
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
        raise InputError(f"'{key}' must be {'a list, each ' if many else ''}{expected}")
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
            raise InputError(f"unknown field {unknown[0]!r} (the fields are {fields})")
        if "kind" not in entry:
            raise InputError("missing field 'kind'")
        for name, type_ in _ACTIVATION_FIELDS.items():
            if entry.get(name) is not None:
                _checked(name, Key(type_, ()), entry[name])
        return act.ActivationSpec(**entry)
    except (ValueError, TypeError) as exc:
        raise InputError(f"bad activation entry {entry!r}: {exc}") from exc


def architecture_from_config(cfg):
    input_dim = _get(cfg, "architecture.input_dim")
    widths = _get(cfg, "architecture.widths")
    acts = [_activation_from_entry(e) for e in _get(cfg, "architecture.activations")]
    try:
        return netcore.Architecture(input_dim, widths, acts)
    except ValueError as exc:
        raise InputError(f"bad architecture: {exc}") from exc


def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config: {exc}") from exc
    except ValueError as exc:  # bad JSON, not UTF-8, or an int past int()'s digit limit
        raise InputError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InputError("config must be a JSON object")
    # a field of an object key goes by its dotted name; a key any command reads is listed
    unknown = [k for k in cfg if "." in k or k not in CONFIG_KEYS] + [
        f"{k}.{name}" for k, spec in CONFIG_KEYS.items() if spec.type == "object"
        and type(cfg.get(k)) is dict for name in cfg[k] if f"{k}.{name}" not in CONFIG_KEYS
    ]
    if unknown:
        raise InputError(f"unknown key {unknown[0]!r}")
    return cfg


def load_dataset(path, input_dim):
    """CSV with header x0..x{D-1},y; returns (X, y, lines), lines[i] the file line of row i."""
    expected = [f"x{i}" for i in range(input_dim)] + ["y"]
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"cannot read dataset: {exc}") from exc
    if not rows or [c.strip() for c in rows[0]] != expected:
        raise InputError(f"dataset header must be {','.join(expected)} (file {path!r})")
    lines = [n for n, row in enumerate(rows[1:], start=2) if len(row) > 1 or row and row[0].strip()]
    if not lines:
        raise InputError("dataset has no samples")
    try:  # one conversion; NumPy parses each field as float() does
        table = np.array([rows[n - 1] for n in lines], dtype=float)
        ok = table.shape[1:] == (input_dim + 1,) and np.isfinite(table).all()
    except ValueError:  # a ragged or non-numeric table
        ok = False
    if not ok:  # row by row, to name the first bad line
        try:
            table = np.array([netcore.read_floats(rows[n - 1], n, input_dim + 1) for n in lines])
        except InputError as exc:
            raise InputError(f"dataset {exc}") from exc
    return table[:, :input_dim], table[:, input_dim], lines


def _weights_for(cfg, arch):
    path = _get(cfg, "weights")
    if path is not None:
        try:
            weights = netcore.load_weights(path)
        except OSError as exc:
            raise InputError(f"cannot read weights: {exc}") from exc
        except InputError as exc:
            raise InputError(f"malformed weights file: {exc}") from exc
        try:
            netcore.check_shapes(arch, weights)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        return weights
    return netcore.init_weights(arch, _get(cfg, "seed"))


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, (np.ndarray, np.floating, np.integer)):
        obj = obj.tolist()  # a Python scalar, or nested lists of them
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else "inf" if obj > 0 else "-inf"
    return obj


def render_report(report):
    return json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n"


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
# steps the subcommands share
# ---------------------------------------------------------------------------

FitKeys = namedtuple("FitKeys", "loss lam seed steps step_size reg_scale")  # netcore.train's order
Gram = namedtuple("Gram", "defn values eigs keys alpha residual")


def _fit_keys(cfg):
    names = ("loss", "lambda", "seed", "train.steps", "train.step_size", "reg_scale")
    return FitKeys(*(_get(cfg, key) for key in names))


def _monte_carlo_keys(cfg):
    """(trials, hypothesis draws, seed); the draws default to the trials."""
    trials = _get(cfg, "trials")
    return trials, _get(cfg, "hypothesis_draws") or trials, _get(cfg, "seed")


def _dataset(cfg):
    """The config's architecture and its dataset: (arch, X, y)."""
    arch = architecture_from_config(cfg)
    return (arch, *load_dataset(_get(cfg, "dataset"), arch.input_dim)[:2])


def _mean_loss(loss, ys, predictions):
    return float(np.mean(netcore.loss_functions(loss)[0](ys, predictions)))


def _net_fit(arch, xs, ys, keys):
    """netcore.train on the fit's keys, and the mean loss of its predictions."""
    fit = netcore.train(arch, xs, ys, *keys)
    return fit, _mean_loss(keys.loss, ys, fit.predictions)


def _gram(arch, variant, xs, ys=None, lam=None):
    """The kernel of ``variant``, its Gram on xs, and the report's keys from the
    eigenvalues of its symmetric part: the run's one eigensolve, which also guards
    the exact solve on ys given ``lam`` (alpha and residual, else None)."""
    defn = kk.KernelDefinition(arch, variant)
    gram = kk.gram(defn, xs)
    symmetric = bool(np.array_equal(gram, gram.T))  # then G is its own symmetric part
    eigs = np.linalg.eigvalsh(gram if symmetric else 0.5 * (gram + gram.T))
    keys = dict(min_eigenvalue=float(eigs[0]), max_eigenvalue=float(eigs[-1]), symmetric=symmetric)
    solve = (None, None) if lam is None else ksvm.train_squared(gram, ys, lam, eigs)
    return Gram(defn, gram, eigs, keys, *solve)


def _radius(cfg, arch, weights):
    """The radius of the weight ball the config's regulariser defines around ``weights``."""
    return float(analysis.weight_ball_radius(arch, weights, _get(cfg, "reg_scale")))


def _bounds(arch, radius, xs, n, trials, draws, seed, tight=None):
    """Every bound on the ball of ``radius`` (given its ``tight`` bound, if computed),
    and the Monte-Carlo estimate if trials > 0."""
    report = analysis.rademacher_bound_net(arch, radius, xs, n, tight)
    if trials:
        if radius == math.inf:  # the weights overflowed: no ball to draw hypotheses in
            raise DomainError("the weight-ball radius overflowed to inf")
        report["empirical_estimate"] = analysis.empirical_rademacher(
            arch, radius, xs, trials=trials, hypothesis_draws=draws, seed=seed
        )
    return report


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def run_flatten(cfg, out=None):
    arch = architecture_from_config(cfg)
    trunc = _get(cfg, "truncation")
    weights = _weights_for(cfg, arch)
    path = _get(cfg, "dataset")
    counts = pf.level_counts(arch, trunc, pf.DEFAULT_MAX_ENTRIES)  # the size guard
    # the tower: for dumps, and past T = 170 to decide exit 3 (a multinomial <= 170! < 2**1024)
    if out is not None or trunc > 170:
        metric = pf.flatten_metric(arch, trunc)
        vq, vnn = pf.pushed_weights(arch, weights, trunc)

    warnings = []
    diagnostics = {"level_entry_counts": counts, "stored_top_entries": counts[-1]}
    results = {"truncation": trunc}

    if path is not None:
        xs, _, lines = load_dataset(path, arch.input_dim)
        probe = xs[0]
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite row is refused next
            flat = pf.flat_values(arch, weights, xs, trunc)
            f = netcore.forward_batch(arch, weights, xs)
        bad = np.flatnonzero(~(np.isfinite(f) & np.isfinite(flat)))
        if bad.size:
            raise DomainError(f"dataset line {lines[bad[0]]}: the network or flat value is not finite")
        results["max_equivalence_residual"] = float(np.max(np.abs(f - flat) / (1.0 + np.abs(f))))
        results["dataset_rows"] = int(xs.shape[0])
    else:
        probe = np.ones(arch.input_dim)
        warnings.append("no dataset given: no equivalence residual, probe input is all-ones")
    results["probe_input"] = [float(v) for v in probe]
    vectors = [] if out is None else [
        ("feature_map", pf.flatten_feature_map(arch, probe, trunc)), ("metric", metric),
        ("flat_weight", vnn), *((f"weight_layer{q}", v) for q, v in enumerate(vq))]
    files = {}
    warnings += _sidecars(out, files, "series dumps", [
        (name, f"{name}.txt", lambda p, vec: write_text(p, pf.dump_series(vec)), vec)
        for name, vec in vectors])
    if files:
        results["dump_files"] = files
    return _report(cfg, results, diagnostics, warnings)


def run_kernel(cfg, out=None):
    arch, xs, _ = _dataset(cfg)
    variant = _get(cfg, "variant")
    gram = _gram(arch, variant, xs)
    results = {"variant": variant, "n": int(xs.shape[0]), **gram.keys}
    warnings = _sidecars(out, results, "gram CSV", [(
        "gram_csv", "gram.csv",
        lambda p, g: write_text(p, netcore.symmetric_text_blocks(g, ",")), gram.values,
    )])
    return _report(cfg, results, warnings=warnings)


def run_train_net(cfg, out=None):
    arch, xs, ys = _dataset(cfg)
    keys = _fit_keys(cfg)
    fit, mean_loss = _net_fit(arch, xs, ys, keys)
    results = {
        "initial_objective": fit.initial_objective,
        "final_objective": fit.final_objective,
        "final_mean_loss": mean_loss,
        "layer_frobenius_sq": netcore.frobenius_sq(fit.weights),
        "weight_ball_radius": _radius(cfg, arch, fit.weights),
        "steps": keys.steps,
        "step_size": keys.step_size,
    }
    warnings = _sidecars(out, results, "weights file", [
        ("weights_file", "weights.txt", netcore.save_weights, fit.weights)])
    return _report(cfg, results, warnings=warnings)


def run_train_ksvm(cfg, out=None):
    arch, xs, ys = _dataset(cfg)
    variant, lam, solver, loss = (_get(cfg, key) for key in ("variant", "lambda", "solver", "loss"))
    descent = None  # gradient descent's (loss, steps, step size); the eig solver is exact
    if solver == "gd":
        descent = (loss, _get(cfg, "train.steps"), _get(cfg, "train.step_size"))
    gram = _gram(arch, variant, xs, ys, None if descent else lam)
    results = {"variant": variant, "n": int(xs.shape[0]), "solver": solver, **gram.keys}
    if descent:
        alpha, results["final_gradient_norm"] = ksvm.train_gd(gram.values, ys, lam, *descent)
    else:
        alpha, results["stationarity_residual"] = gram.alpha, gram.residual
    parts = ksvm.stabilized_objective(alpha, gram.values, ys, lam, loss)
    results["stabilized_objective"] = parts._asdict()
    warnings = _sidecars(out, results, "model file", [
        ("model_file", "model.txt", ksvm.save_model, ksvm.TrainedKSVM(alpha, xs, lam, gram.defn))])
    return _report(cfg, results, warnings=warnings)


def run_compare(cfg, out=None):
    arch, xs, ys = _dataset(cfg)
    keys, monte_carlo, variant = _fit_keys(cfg), _monte_carlo_keys(cfg), _get(cfg, "variant")

    fit, net_loss = _net_fit(arch, xs, ys, keys)
    radius = _radius(cfg, arch, fit.weights)
    gram = _gram(arch, variant, xs, ys, keys.lam)
    svm_pred = gram.values @ gram.alpha
    warnings, bounds = [], None
    try:
        bounds = _bounds(arch, radius, xs, None, *monte_carlo)
    except (InputError, DomainError) as exc:
        warnings.append(f"bounds unavailable: {exc}")

    results = {
        "network": {
            "mean_loss": net_loss,
            "objective": fit.final_objective,
            "predictions": fit.predictions,
        },
        "ksvm": {
            "mean_loss": _mean_loss(keys.loss, ys, svm_pred),
            "stationarity_residual": gram.residual,
            "predictions": svm_pred,
        },
        "gram": gram.keys,
        "bounds": bounds,
    }
    _sidecars(out, results, None, [
        ("model_file", "model.txt", ksvm.save_model,
         ksvm.TrainedKSVM(gram.alpha, xs, keys.lam, gram.defn)),
        ("weights_file", "weights.txt", netcore.save_weights, fit.weights),
    ])
    return _report(cfg, results, warnings=warnings)


def run_bounds(cfg, out=None):
    arch, xs, _ = _dataset(cfg)
    radius = _get(cfg, "radius")
    n = _get(cfg, "n") or int(xs.shape[0])
    monte_carlo = _monte_carlo_keys(cfg)
    tight = _get(cfg, "tight")
    if radius is None:
        radius = _radius(cfg, arch, _weights_for(cfg, arch))

    warnings, growth = [], None
    if tight:
        try:
            growth = analysis.tight_bound(arch, radius, xs, n)
        except (InputError, DomainError) as exc:
            warnings.append(f"tight bound precondition not met: {exc}")
    results = _bounds(arch, radius, xs, n, *monte_carlo, growth)
    if growth is not None:
        results["tight"] = growth
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
    intervals = _get(cfg, "intervals")
    radius = _radius(cfg, arch, weights)
    metric = pf.flatten_metric(arch, trunc)
    vnn = pf.flat_weight(arch, weights, trunc)

    warnings = []
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
    fro = netcore.frobenius_sq(weights)
    if any(f < 1.0 for f in fro) or max(float(np.max(np.abs(w))) for w in weights) > 1.0:
        warnings.append(
            "weight admissibility (per-layer Frobenius >= 1, entries <= 1) "
            "violated; the sup-norm ceilings are not guaranteed"
        )
    constants = {
        "width_gm": width_gm,
        "lipschitz_assoc_gm": lbar,
        "input_dim": arch.input_dim,
        "weight_ball_radius": radius,
    }
    results = analysis.sparsity_profile(metric.values, vnn.values, arch.depth, constants, epsilons)
    diagnostics = {
        "constants": constants,
        "intervals": list(intervals),
        "stored_top_entries": int(len(vnn.values)),
    }
    return _report(cfg, results, diagnostics, warnings)


HANDLERS = dict(zip(_ALL, (run_flatten, run_kernel, run_train_net, run_train_ksvm, run_compare,
                           run_bounds, run_sparsity)))


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
        text = render_report(HANDLERS[args.command](cfg, args.out))
        if args.out is None:
            sys.stdout.write(text)
        else:
            write_text(args.out, (text,))
    except (InputError, SizeLimitError, OSError) as exc:
        kind = "size guard" if isinstance(exc, SizeLimitError) else "invalid configuration"
        print(f"{kind}: {exc}", file=sys.stderr)
        return 2
    except (DomainError, NearSingularError, DivergenceError, np.linalg.LinAlgError) as exc:
        print(f"numerical domain failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
