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
import contextlib
import csv
import json
import math
import os
import secrets
import sys

import numpy as np

from . import activations as act
from . import analysis
from . import kreinkernel as kk
from . import ksvm
from . import netcore
from . import pushforward as pf
from .errors import DivergenceError, DomainError, NearSingularError, SizeLimitError

DEFAULT_TRUNCATION = pf.DEFAULT_TRUNCATION


class ConfigError(ValueError):
    """Configuration input that fails validation (exit code 2)."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _activation_from_entry(entry):
    try:
        if isinstance(entry, str):
            return act.ActivationSpec(entry)
        if isinstance(entry, dict):
            kind = entry.get("kind")
            kwargs = {}
            if "coefficients" in entry:
                kwargs["coefficients"] = tuple(entry["coefficients"])
            if "sharpness" in entry:
                kwargs["sharpness"] = entry["sharpness"]
            if "max_terms" in entry:
                kwargs["max_terms"] = entry["max_terms"]
            return act.ActivationSpec(kind, **kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad activation entry {entry!r}: {exc}") from exc
    raise ConfigError(f"bad activation entry {entry!r}")


def architecture_from_config(cfg):
    spec = cfg.get("architecture")
    if not isinstance(spec, dict):
        raise ConfigError("config needs an 'architecture' object")
    try:
        input_dim = int(spec["input_dim"])
        widths = tuple(int(h) for h in spec["widths"])
        acts = tuple(_activation_from_entry(e) for e in spec["activations"])
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad architecture section: {exc}") from exc
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
    """CSV with header x0..x{D-1},y; returns (X, y)."""
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
    data = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        try:
            data.append(netcore.read_floats(row, lineno, input_dim + 1))
        except ValueError as exc:
            raise ConfigError(f"dataset {exc}") from exc
    if not data:
        raise ConfigError("dataset has no samples")
    table = np.array(data, dtype=float)
    return table[:, :input_dim], table[:, input_dim]


def _positive(cfg, key, default=None, integer=False):
    value = cfg.get(key, default)
    if value is None:
        raise ConfigError(f"config needs '{key}'")
    try:
        value = int(value) if integer else float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"'{key}' must be a number: {exc}") from exc
    if value <= 0:
        raise ConfigError(f"'{key}' must be positive")
    return value


def _seed(cfg):
    seed = cfg.get("seed", 0)
    if not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ConfigError("'seed' must be an unsigned 64-bit integer")
    return seed


def _truncation(cfg):
    t = cfg.get("truncation", DEFAULT_TRUNCATION)
    if not isinstance(t, int) or t < 1:
        raise ConfigError("'truncation' must be an integer >= 1")
    return t


def _weights_for(cfg, arch):
    path = cfg.get("weights")
    if path is not None:
        if not isinstance(path, str):
            raise ConfigError("'weights' must be a path to a weights file")
        try:
            weights = netcore.load_weights(path)
        except OSError as exc:
            raise ConfigError(f"cannot read weights: {exc}") from exc
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"malformed weights file: {exc}") from exc
        netcore.check_shapes(arch, weights)  # ValueError: exit 2
        return weights
    return netcore.init_weights(arch, _seed(cfg))


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


def write_text(path, text):
    """Atomic write: a temp file of unique name in the same directory, then rename.

    The temp file is removed when writing or renaming fails.
    """
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


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


def _stem(out):
    if out is None:
        return None
    base, ext = os.path.splitext(out)
    return base if ext else out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def run_flatten(cfg, out=None):
    arch = architecture_from_config(cfg)
    trunc = _truncation(cfg)
    weights = _weights_for(cfg, arch)
    metric = pf.flatten_metric(arch, trunc)
    vq, vnn = pf.pushed_weights(arch, weights, trunc)

    warnings = []
    diagnostics = {
        "level_entry_counts": pf.level_counts(arch, trunc),
        "stored_top_entries": int(len(vnn.values)),
    }
    results = {"truncation": trunc}

    if cfg.get("dataset"):
        xs, _ = load_dataset(cfg["dataset"], arch.input_dim)
        probe = xs[0]
        gv = metric.values * vnn.values
        # one 1-D sum per row, as flat_eval takes it: a sum along an axis of
        # the block rounds differently
        blocks = pf.feature_blocks(arch, xs, trunc)
        flat = np.array([np.sum(row) for phi in blocks for row in phi * gv])
        f = netcore.forward_batch(arch, weights, xs)
        results["max_equivalence_residual"] = float(np.max(np.abs(f - flat) / (1.0 + np.abs(f))))
        results["dataset_rows"] = int(xs.shape[0])
    else:
        probe = np.ones(arch.input_dim)
        warnings.append("no dataset given: no equivalence residual, probe input is all-ones")

    feature = pf.flatten_feature_map(arch, probe, trunc)
    results["probe_input"] = [float(v) for v in probe]

    stem = _stem(out)
    if stem is None:
        warnings.append("no --out given: series dumps skipped")
    else:
        files = {}
        for name, vec in (
            ("feature_map", feature),
            ("metric", metric),
            ("flat_weight", vnn),
            *((f"weight_layer{q}", v) for q, v in enumerate(vq)),
        ):
            path = f"{stem}.{name}.txt"
            write_text(path, pf.dump_series(vec))
            files[name] = os.path.basename(path)
        results["dump_files"] = files
    return _report(cfg, results, diagnostics, warnings)


def _gram_diagnostics(gram):
    eigs = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    return {
        "min_eigenvalue": float(eigs[0]),
        "max_eigenvalue": float(eigs[-1]),
        "symmetric": bool(np.array_equal(gram, gram.T)),
    }


def run_kernel(cfg, out=None):
    arch = architecture_from_config(cfg)
    variant = cfg.get("variant", "krein")
    if variant not in kk.VARIANTS:
        raise ConfigError(f"'variant' must be one of {kk.VARIANTS}")
    if not cfg.get("dataset"):
        raise ConfigError("kernel needs a 'dataset'")
    xs, _ = load_dataset(cfg["dataset"], arch.input_dim)
    gram = kk.gram(kk.KernelDefinition(arch, variant), xs)
    results = {"variant": variant, "n": int(xs.shape[0])}
    results.update(_gram_diagnostics(gram))
    stem = _stem(out)
    warnings = []
    if stem is None:
        warnings.append("no --out given: gram CSV skipped")
    else:
        path = f"{stem}.gram.csv"
        lines = [",".join("%.17g" % v for v in row) for row in gram]
        write_text(path, "\n".join(lines) + "\n")
        results["gram_csv"] = os.path.basename(path)
    return _report(cfg, results, warnings=warnings)


def _train_section(cfg):
    section = cfg.get("train", {})
    if not isinstance(section, dict):
        raise ConfigError("'train' must be an object")
    steps = section.get("steps", 200)
    if not isinstance(steps, int) or steps < 0:
        raise ConfigError("'train.steps' must be a nonnegative integer")
    step_size = section.get("step_size", 0.05)
    if not isinstance(step_size, (int, float)) or step_size <= 0:
        raise ConfigError("'train.step_size' must be positive")
    return steps, float(step_size)


def _loss(cfg):
    loss = cfg.get("loss", "squared")
    if loss not in netcore.LOSSES:
        raise ConfigError(f"'loss' must be one of {netcore.LOSSES}")
    return loss


def run_train_net(cfg, out=None):
    arch = architecture_from_config(cfg)
    if not cfg.get("dataset"):
        raise ConfigError("train-net needs a 'dataset'")
    xs, ys = load_dataset(cfg["dataset"], arch.input_dim)
    loss = _loss(cfg)
    lam = _positive(cfg, "lambda")
    steps, step_size = _train_section(cfg)
    reg_scale = cfg.get("reg_scale")
    seed = _seed(cfg)

    init = netcore.init_weights(arch, seed)
    init_obj = netcore.objective(arch, init, xs, ys, loss, lam, reg_scale)
    weights = netcore.train(arch, xs, ys, loss, lam, seed, steps, step_size, reg_scale)
    final_obj = netcore.objective(arch, weights, xs, ys, loss, lam, reg_scale)
    loss_of = netcore.loss_functions(loss)[0]
    mean_loss = float(np.mean(loss_of(ys, netcore.forward_batch(arch, weights, xs))))
    results = {
        "initial_objective": init_obj,
        "final_objective": final_obj,
        "final_mean_loss": mean_loss,
        "layer_frobenius_sq": weights.frobenius_sq(),
        "weight_ball_radius": analysis.weight_ball_radius(arch, weights, reg_scale),
        "steps": steps,
        "step_size": step_size,
    }
    stem = _stem(out)
    warnings = []
    if stem is None:
        warnings.append("no --out given: weights file skipped")
    else:
        path = f"{stem}.weights.txt"
        netcore.save_weights(path, weights)
        results["weights_file"] = os.path.basename(path)
    return _report(cfg, results, warnings=warnings)


def run_train_ksvm(cfg, out=None):
    arch = architecture_from_config(cfg)
    if not cfg.get("dataset"):
        raise ConfigError("train-ksvm needs a 'dataset'")
    xs, ys = load_dataset(cfg["dataset"], arch.input_dim)
    variant = cfg.get("variant", "krein")
    if variant not in kk.VARIANTS:
        raise ConfigError(f"'variant' must be one of {kk.VARIANTS}")
    lam = _positive(cfg, "lambda")
    defn = kk.KernelDefinition(arch, variant)
    gram = kk.gram(defn, xs)
    solver = cfg.get("solver", "eig")
    results = {"variant": variant, "n": int(xs.shape[0]), "solver": solver}
    results.update(_gram_diagnostics(gram))
    if solver == "eig":
        alpha, residual = ksvm.train_squared(gram, ys, lam)
        results["stationarity_residual"] = residual
    elif solver == "gd":
        steps, step_size = _train_section(cfg)
        loss = _loss(cfg)
        alpha, grad_norm = ksvm.train_gd(gram, ys, lam, loss, steps, step_size)
        results["final_gradient_norm"] = grad_norm
    else:
        raise ConfigError("'solver' must be 'eig' or 'gd'")
    parts = ksvm.stabilized_objective(alpha, gram, ys, lam, _loss(cfg))
    results["stabilized_objective"] = {
        "total": parts.total,
        "empirical": parts.empirical,
        "regularizer": parts.regularizer,
    }
    stem = _stem(out)
    warnings = []
    if stem is None:
        warnings.append("no --out given: model file skipped")
    else:
        model = ksvm.TrainedKSVM(alpha, xs, lam, defn)
        path = f"{stem}.model.txt"
        ksvm.save_model(path, model)
        results["model_file"] = os.path.basename(path)
    return _report(cfg, results, warnings=warnings)


def run_compare(cfg, out=None):
    arch = architecture_from_config(cfg)
    if not cfg.get("dataset"):
        raise ConfigError("compare needs a 'dataset'")
    xs, ys = load_dataset(cfg["dataset"], arch.input_dim)
    loss = _loss(cfg)
    lam = _positive(cfg, "lambda")
    steps, step_size = _train_section(cfg)
    seed = _seed(cfg)
    reg_scale = cfg.get("reg_scale")

    weights = netcore.train(arch, xs, ys, loss, lam, seed, steps, step_size, reg_scale)
    loss_of = netcore.loss_functions(loss)[0]
    net_pred = netcore.forward_batch(arch, weights, xs)
    net_loss = float(np.mean(loss_of(ys, net_pred)))

    defn = kk.KernelDefinition(arch, cfg.get("variant", "krein"))
    gram = kk.gram(defn, xs)
    alpha, residual = ksvm.train_squared(gram, ys, lam)
    model = ksvm.TrainedKSVM(alpha, xs, lam, defn)
    svm_pred = gram @ alpha
    svm_loss = float(np.mean(loss_of(ys, svm_pred)))

    warnings = []
    bounds = None
    try:
        report = analysis.rademacher_bound_net(arch, weights, xs)
        trials = cfg.get("trials", 0)
        if trials:
            report.empirical_estimate = analysis.empirical_rademacher(
                arch,
                report.weight_ball_radius,
                xs,
                trials=trials,
                hypothesis_draws=cfg.get("hypothesis_draws", trials),
                seed=seed,
            )
        bounds = vars(report)
    except (ValueError, DomainError) as exc:
        warnings.append(f"bounds unavailable: {exc}")

    results = {
        "network": {
            "mean_loss": net_loss,
            "objective": netcore.objective(arch, weights, xs, ys, loss, lam, reg_scale),
            "predictions": net_pred,
        },
        "ksvm": {
            "mean_loss": svm_loss,
            "stationarity_residual": residual,
            "predictions": svm_pred,
        },
        "gram": _gram_diagnostics(gram),
        "bounds": bounds,
    }
    stem = _stem(out)
    if stem is not None:
        ksvm.save_model(f"{stem}.model.txt", model)
        netcore.save_weights(f"{stem}.weights.txt", weights)
        results["model_file"] = os.path.basename(f"{stem}.model.txt")
        results["weights_file"] = os.path.basename(f"{stem}.weights.txt")
    return _report(cfg, results, warnings=warnings)


def run_bounds(cfg, out=None):
    arch = architecture_from_config(cfg)
    if not cfg.get("dataset"):
        raise ConfigError("bounds needs a 'dataset'")
    xs, _ = load_dataset(cfg["dataset"], arch.input_dim)
    if cfg.get("radius") is not None:
        radius = _positive(cfg, "radius")
        weights = None
    else:
        weights = _weights_for(cfg, arch)
        radius = analysis.weight_ball_radius(arch, weights, cfg.get("reg_scale"))
    n = cfg.get("n", int(xs.shape[0]))
    if not isinstance(n, int) or n < 1:
        raise ConfigError("'n' must be a positive integer")

    warnings = []
    report = analysis.rademacher_bound_net(arch, radius, xs, n)
    trials = cfg.get("trials", 0)
    if trials:
        report.empirical_estimate = analysis.empirical_rademacher(
            arch,
            radius,
            xs,
            trials=trials,
            hypothesis_draws=cfg.get("hypothesis_draws", trials),
            seed=_seed(cfg),
        )
    results = dict(vars(report))
    if cfg.get("tight"):
        try:
            tb = analysis.tight_bound(arch, radius, xs, n)
            results["tight"] = vars(tb)
        except ValueError as exc:
            warnings.append(f"tight bound precondition not met: {exc}")
    diagnostics = {
        "mean_input_norm_sq": float(np.mean(np.sum(xs * xs, axis=1))),
        "sample_rows": int(xs.shape[0]),
    }
    return _report(cfg, results, diagnostics, warnings)


def run_sparsity(cfg, out=None):
    arch = architecture_from_config(cfg)
    trunc = _truncation(cfg)
    weights = _weights_for(cfg, arch)
    metric = pf.flatten_metric(arch, trunc)
    vnn = pf.flat_weight(arch, weights, trunc)
    radius = analysis.weight_ball_radius(arch, weights, cfg.get("reg_scale"))

    warnings = []
    intervals = cfg.get("intervals")
    if intervals is None:
        realized = analysis.chain_intervals(arch, weights, "associated")
        intervals = [max(m, 1e-9) for m in realized]
    width_gm, _, lbar = netcore.geometric_means(arch, intervals)
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
    epsilons = cfg.get("epsilons", [1e-2, 1e-4, 1e-6])
    profile = analysis.sparsity_profile(metric, vnn, arch.depth, constants, epsilons)
    results = {
        "bridge_norm": profile.bridge_norm,
        "bridge_bound": profile.bridge_bound,
        "weight_sup": profile.weight_sup,
        "weight_sup_bound": profile.weight_sup_bound,
        "valid_epsilon_max": profile.valid_epsilon_max,
        "epsilon_counts": [
            {"epsilon": e, "count": c, "ceiling": cap}
            for e, c, cap in profile.epsilon_counts
        ],
    }
    diagnostics = {
        "constants": {
            "width_gm": width_gm,
            "lipschitz_assoc_gm": lbar,
            "input_dim": arch.input_dim,
            "weight_ball_radius": radius,
        },
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
    sub = parser.add_subparsers(dest="command", required=True)
    for name in HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None, help="report path (stdout when omitted)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--trunc", type=int, default=None, help="override truncation")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.out:
            parent = os.path.dirname(os.path.abspath(args.out))
            os.makedirs(parent, exist_ok=True)
        cfg = load_config(args.config)
        if args.seed is not None:
            if not 0 <= args.seed < 2**64:
                raise ConfigError("--seed must be an unsigned 64-bit integer")
            cfg["seed"] = args.seed
        if args.trunc is not None:
            if args.trunc < 1:
                raise ConfigError("--trunc must be >= 1")
            cfg["truncation"] = args.trunc
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
