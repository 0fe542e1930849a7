"""End-to-end CLI behavior: configs, reports, exit codes, reproducibility."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from kreinflat import cli, ksvm, netcore
from kreinflat import activations as act
from kreinflat import kreinkernel as kk

SECTIONS = {"config_echo", "results", "diagnostics", "warnings"}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def write_dataset(path, xs, ys):
    dim = xs.shape[1]
    lines = [",".join([f"x{i}" for i in range(dim)] + ["y"])]
    for row, y in zip(xs, ys):
        lines.append(",".join("%.17g" % v for v in list(row) + [y]))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def poly_config(tmp_path, **extra):
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1.0, 1.0, size=(12, 2))
    ys = xs[:, 0] * 0.5 - xs[:, 1] * 0.2
    cfg = {
        "architecture": {
            "input_dim": 2,
            "widths": [2, 1],
            "activations": [
                {"kind": "polynomial", "coefficients": [0.0, 1.0, 0.3]},
                {"kind": "polynomial", "coefficients": [0.0, 0.7]},
            ],
        },
        "dataset": write_dataset(tmp_path / "data.csv", xs, ys),
        "truncation": 4,
        "seed": 3,
    }
    cfg.update(extra)
    return cfg


def tanh_config(tmp_path, n=10, scale=0.3, **extra):
    rng = np.random.default_rng(1)
    xs = rng.uniform(-scale, scale, size=(n, 2))
    ys = np.tanh(xs[:, 0] - xs[:, 1])
    cfg = {
        "architecture": {
            "input_dim": 2,
            "widths": [2, 1],
            "activations": ["tanh", "tanh"],
        },
        "dataset": write_dataset(tmp_path / "data.csv", xs, ys),
        "lambda": 0.5,
        "seed": 1,
    }
    cfg.update(extra)
    return cfg


def run(command, cfg_path, out=None, extra=()):
    argv = [command, "--config", cfg_path] + (["--out", out] if out else []) + list(extra)
    return cli.main(argv)


def read_report(path):
    with open(path) as fh:
        report = json.load(fh)
    assert set(report) == SECTIONS
    return report


# ---------------------------------------------------------------------------
# flatten
# ---------------------------------------------------------------------------

def test_flatten_report_and_dumps(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", poly_config(tmp_path))
    out = str(tmp_path / "report.json")
    assert run("flatten", cfg, out) == 0
    report = read_report(out)
    assert report["results"]["max_equivalence_residual"] <= 1e-9
    assert report["results"]["truncation"] == 4
    files = report["results"]["dump_files"]
    for name in ("feature_map", "metric", "flat_weight", "weight_layer0", "weight_layer1"):
        dump = tmp_path / files[name]
        assert dump.exists() and dump.read_text().strip()
    assert report["diagnostics"]["level_entry_counts"]


def test_flatten_stdout_mode(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", poly_config(tmp_path))
    assert run("flatten", cfg) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == SECTIONS
    assert any("dumps skipped" in w for w in report["warnings"])


def test_flatten_without_dataset_warns(tmp_path, capsys):
    cfg_obj = poly_config(tmp_path)
    del cfg_obj["dataset"]
    cfg = write_json(tmp_path / "cfg.json", cfg_obj)
    assert run("flatten", cfg) == 0
    report = json.loads(capsys.readouterr().out)
    assert "max_equivalence_residual" not in report["results"]
    assert any("no dataset" in w for w in report["warnings"])


def test_flatten_truncation_override(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", poly_config(tmp_path))
    assert run("flatten", cfg, extra=("--trunc", "2")) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["truncation"] == 2
    assert report["config_echo"]["truncation"] == 2


def test_reports_are_byte_identical(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", poly_config(tmp_path))
    (tmp_path / "run1").mkdir()
    (tmp_path / "run2").mkdir()
    out1 = str(tmp_path / "run1" / "report.json")
    out2 = str(tmp_path / "run2" / "report.json")
    assert run("flatten", cfg, out1) == 0
    assert run("flatten", cfg, out2) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    assert (
        (tmp_path / "run1" / "report.flat_weight.txt").read_bytes()
        == (tmp_path / "run2" / "report.flat_weight.txt").read_bytes()
    )


def test_seed_override_changes_initialization(tmp_path):
    cfg_obj = poly_config(tmp_path)
    del cfg_obj["dataset"]
    cfg = write_json(tmp_path / "cfg.json", cfg_obj)
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    assert run("flatten", cfg, out1) == 0
    assert run("flatten", cfg, out2, extra=("--seed", "9")) == 0
    r1, r2 = read_report(out1), read_report(out2)
    assert r2["config_echo"]["seed"] == 9
    w1 = (tmp_path / r1["results"]["dump_files"]["flat_weight"]).read_text()
    w2 = (tmp_path / r2["results"]["dump_files"]["flat_weight"]).read_text()
    assert w1 != w2


# sha256 of the six dumps of a 3-level tanh tower, taken before the tower was
# built from index arrays; 2,240 distinct "exponents | tag" prefixes share its
# 3,288 lines, so the bytes also pin the stored order that breaks their ties
GOLDEN_DUMPS = {
    "feature_map": "bc6e905b7d00224ae14e168b82629984f52284b391e4bb322e4bb7cc78e562ff",
    "flat_weight": "268a7539a1d34145529d4d0a65eb6f6a0162a691789e2a97b881960fe1a19513",
    "metric": "56c9ff191281cc89ebc47654907002aae8ebfdc001f3c9377598620a16b3f2e3",
    "weight_layer0": "af07c39a61ae743b8ec670164bbfb08d731ded2214e22ca980925451a474f0c7",
    "weight_layer1": "ce416017675a3993c7648416d2c5ca7157e93145d1c6728b547fab63a2cc2d86",
    "weight_layer2": "d782cc9b4450b0c967f8893c349c2fac58b75bfbdf51198d51177698790bcf12",
}


def test_flatten_dumps_match_golden_digests(tmp_path):
    (tmp_path / "data.csv").write_text(
        "x0,x1,y\n0.25,-0.5,0.1\n-0.125,0.375,-0.2\n0.5,0.0625,0.3\n"
    )
    cfg = write_json(tmp_path / "cfg.json", {
        "architecture": {
            "input_dim": 2, "widths": [2, 2, 1], "activations": ["tanh", "tanh", "tanh"],
        },
        "truncation": 5,
        "seed": 3,
        "dataset": str(tmp_path / "data.csv"),
    })
    out = str(tmp_path / "report.json")
    assert run("flatten", cfg, out) == 0
    files = read_report(out)["results"]["dump_files"]
    digests = {
        name: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
        for name, f in files.items()
    }
    assert digests == GOLDEN_DUMPS


def test_atomic_write_leaves_no_temp(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", poly_config(tmp_path))
    out = str(tmp_path / "report.json")
    assert run("flatten", cfg, out) == 0
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


def test_write_text_temp_names_are_unique(tmp_path):
    out = tmp_path / "report.json"
    # a fixed temp name would collide with this leftover of another run
    (tmp_path / "report.json.tmp").mkdir()
    cli.write_text(str(out), "one\n")
    cli.write_text(str(out), "two\n")
    assert out.read_text() == "two\n"
    assert sorted(os.listdir(tmp_path)) == ["report.json", "report.json.tmp"]


def test_write_text_failure_leaves_no_temp(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()  # renaming a file onto a directory fails
    with pytest.raises(OSError):
        cli.write_text(str(target), "text\n")
    assert os.listdir(tmp_path) == ["taken"]
    assert os.listdir(target) == []


def test_out_creates_missing_directories(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", poly_config(tmp_path))
    out = tmp_path / "fresh" / "nested" / "report.json"
    assert run("flatten", cfg, str(out)) == 0
    assert out.exists()
    assert (out.parent / "report.flat_weight.txt").exists()


# ---------------------------------------------------------------------------
# validation failures (exit 2)
# ---------------------------------------------------------------------------

def test_inline_weights_value_rejected(tmp_path, capsys):
    cfg_obj = poly_config(tmp_path, weights=[[[0.1, 0.2]], [[0.3]]])
    cfg = write_json(tmp_path / "cfg.json", cfg_obj)
    assert run("sparsity", cfg) == 2
    assert "'weights' must be a path" in capsys.readouterr().err

def test_bad_json_config(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    assert run("flatten", str(bad)) == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    assert run("flatten", str(tmp_path / "nope.json")) == 2


def test_missing_architecture_section(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {"truncation": 3})
    assert run("flatten", cfg) == 2


def test_widths_must_end_in_one(tmp_path):
    obj = poly_config(tmp_path)
    obj["architecture"]["widths"] = [2, 3]
    cfg = write_json(tmp_path / "cfg.json", obj)
    assert run("flatten", cfg) == 2


def test_unknown_activation_kind(tmp_path):
    obj = poly_config(tmp_path)
    obj["architecture"]["activations"] = ["tanh", "softplus"]
    cfg = write_json(tmp_path / "cfg.json", obj)
    assert run("flatten", cfg) == 2


def test_bad_dataset_header(tmp_path):
    obj = poly_config(tmp_path)
    (tmp_path / "data.csv").write_text("a,b,c\n1,2,3\n")
    cfg = write_json(tmp_path / "cfg.json", obj)
    assert run("flatten", cfg) == 2


def test_bad_dataset_value(tmp_path):
    obj = poly_config(tmp_path)
    (tmp_path / "data.csv").write_text("x0,x1,y\n0.1,oops,0.3\n")
    cfg = write_json(tmp_path / "cfg.json", obj)
    assert run("flatten", cfg) == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_dataset_value_names_its_line(tmp_path, capsys, value):
    obj = poly_config(tmp_path)
    (tmp_path / "data.csv").write_text(f"x0,x1,y\n0.1,0.2,0.3\n\n0.1,{value},0.3\n")
    cfg = write_json(tmp_path / "cfg.json", obj)
    assert run("flatten", cfg) == 2
    assert "dataset line 4: values must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_weights_file_names_its_line(tmp_path, capsys, value):
    weights = tmp_path / "weights.txt"
    weights.write_text(f"2\n1 2\n0.5 {value}\n\n1 1\n0.7\n")
    cfg_obj = {
        "architecture": {"input_dim": 2, "widths": [1, 1], "activations": ["tanh", "tanh"]},
        "truncation": 3,
        "weights": str(weights),
        "dataset": write_dataset(tmp_path / "data.csv", np.array([[0.1, 0.2]]), np.array([0.0])),
    }
    cfg = write_json(tmp_path / "cfg.json", cfg_obj)
    out = tmp_path / "report.json"
    assert run("flatten", cfg, str(out)) == 2
    assert "malformed weights file: line 3: values must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_weights_of_the_wrong_shape_exit_2(tmp_path, capsys):
    cfg_obj = poly_config(tmp_path, weights=admissible_weights_file(tmp_path))
    cfg = write_json(tmp_path / "cfg.json", cfg_obj)
    assert run("flatten", cfg) == 2
    assert "invalid configuration: weight shapes" in capsys.readouterr().err


def test_dataset_column_count(tmp_path):
    obj = poly_config(tmp_path)
    (tmp_path / "data.csv").write_text("x0,x1,y\n0.1,0.2\n")
    cfg = write_json(tmp_path / "cfg.json", obj)
    assert run("flatten", cfg) == 2


def test_size_guard_exits_2(tmp_path):
    obj = poly_config(tmp_path)
    obj["architecture"] = {
        "input_dim": 3,
        "widths": [3, 3, 1],
        "activations": [{"kind": "polynomial", "coefficients": [0.0, 1.0, 0.1, 0.1]}] * 3,
    }
    obj["truncation"] = 27
    del obj["dataset"]
    cfg = write_json(tmp_path / "cfg.json", obj)
    assert run("flatten", cfg) == 2


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        cli.main(["polish", "--config", "x.json"])


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def test_kernel_gram_csv(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", tanh_config(tmp_path, n=6))
    out = str(tmp_path / "report.json")
    assert run("kernel", cfg, out) == 0
    report = read_report(out)
    res = report["results"]
    assert res["variant"] == "krein" and res["n"] == 6
    assert res["symmetric"] is True
    assert res["min_eigenvalue"] <= res["max_eigenvalue"]
    rows = (tmp_path / res["gram_csv"]).read_text().strip().split("\n")
    gram = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert gram.shape == (6, 6)
    np.testing.assert_array_equal(gram, gram.T)


def test_kernel_associated_variant(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "cfg.json", tanh_config(tmp_path, n=5, variant="associated")
    )
    assert run("kernel", cfg) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["variant"] == "associated"
    assert report["results"]["min_eigenvalue"] >= -1e-10


def test_kernel_invalid_variant(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", tanh_config(tmp_path, variant="plus"))
    assert run("kernel", cfg) == 2


def test_kernel_requires_dataset(tmp_path):
    obj = tanh_config(tmp_path)
    del obj["dataset"]
    cfg = write_json(tmp_path / "cfg.json", obj)
    assert run("kernel", cfg) == 2


def test_domain_failure_exits_3(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "cfg.json",
        tanh_config(tmp_path, n=4, scale=1.6, variant="associated"),
    )
    assert run("kernel", cfg) == 3
    assert "numerical domain failure" in capsys.readouterr().err


def test_eigensolver_failure_exits_3(tmp_path, monkeypatch, capsys):
    # LinAlgError subclasses ValueError but is a numerical failure, not bad input
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    cfg = write_json(tmp_path / "cfg.json", tanh_config(tmp_path))
    assert run("kernel", cfg) == 3
    assert "did not converge" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# training front ends
# ---------------------------------------------------------------------------

def test_train_net_report_and_weights(tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json",
        tanh_config(tmp_path, **{"train": {"steps": 120, "step_size": 0.1}}),
    )
    out = str(tmp_path / "report.json")
    assert run("train-net", cfg, out) == 0
    res = read_report(out)["results"]
    assert res["final_objective"] <= res["initial_objective"]
    assert res["steps"] == 120
    weights = netcore.load_weights(tmp_path / res["weights_file"])
    assert len(weights) == 2
    assert res["weight_ball_radius"] == pytest.approx(
        0.5 * sum(weights.frobenius_sq()), rel=1e-12
    )


def test_train_net_zero_steps_rejected(tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json", tanh_config(tmp_path, **{"train": {"steps": 0}})
    )
    assert run("train-net", cfg) == 2


def test_train_ksvm_eig(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", tanh_config(tmp_path))
    out = str(tmp_path / "report.json")
    assert run("train-ksvm", cfg, out) == 0
    res = read_report(out)["results"]
    assert res["solver"] == "eig"
    assert res["stationarity_residual"] <= 1e-8
    parts = res["stabilized_objective"]
    assert parts["total"] == pytest.approx(parts["empirical"] + parts["regularizer"])
    model = ksvm.load_model(tmp_path / res["model_file"])
    assert model.lam == 0.5
    assert len(model.alpha) == 10


def test_train_ksvm_model_predicts_training_values(tmp_path):
    cfg_obj = tanh_config(tmp_path, n=5)
    cfg = write_json(tmp_path / "cfg.json", cfg_obj)
    out = str(tmp_path / "report.json")
    assert run("train-ksvm", cfg, out) == 0
    res = read_report(out)["results"]
    model = ksvm.load_model(tmp_path / res["model_file"])
    G = kk.gram(model.kernel_def, model.training_points)
    fits = G @ model.alpha
    for i, x in enumerate(model.training_points):
        assert ksvm.predict(model, x) == pytest.approx(fits[i], rel=1e-12)


def test_train_ksvm_gd_solver(tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json",
        tanh_config(tmp_path, solver="gd", **{"train": {"steps": 300, "step_size": 0.1}}),
    )
    out = str(tmp_path / "report.json")
    assert run("train-ksvm", cfg, out) == 0
    res = read_report(out)["results"]
    assert res["solver"] == "gd"
    assert res["final_gradient_norm"] < 0.1


def test_train_ksvm_divergence_exits_3(tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json",
        tanh_config(tmp_path, solver="gd", **{"train": {"steps": 400, "step_size": 50.0}}),
    )
    assert run("train-ksvm", cfg) == 3


def test_train_ksvm_bad_solver(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", tanh_config(tmp_path, solver="exact"))
    assert run("train-ksvm", cfg) == 2


def test_train_ksvm_requires_lambda(tmp_path):
    obj = tanh_config(tmp_path)
    del obj["lambda"]
    cfg = write_json(tmp_path / "cfg.json", obj)
    assert run("train-ksvm", cfg) == 2


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_single_sample_closed_form(tmp_path):
    xs = np.array([[0.3, -0.2]])
    ys = np.array([0.8])
    cfg_obj = tanh_config(tmp_path, **{"train": {"steps": 20, "step_size": 0.05}})
    cfg_obj["dataset"] = write_dataset(tmp_path / "one.csv", xs, ys)
    cfg = write_json(tmp_path / "cfg.json", cfg_obj)
    out = str(tmp_path / "report.json")
    assert run("compare", cfg, out) == 0
    report = read_report(out)
    arch = netcore.Architecture(2, (2, 1), (act.tanh(), act.tanh()))
    k = kk.kernel_value(kk.KernelDefinition(arch), xs[0], xs[0])
    alpha = ys[0] / (k + 0.5)
    assert report["results"]["ksvm"]["predictions"][0] == pytest.approx(
        k * alpha, rel=1e-12
    )
    assert report["results"]["gram"]["symmetric"] is True
    assert (tmp_path / report["results"]["model_file"]).exists()
    assert (tmp_path / report["results"]["weights_file"]).exists()


def test_compare_reports_both_losses_and_bounds(tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json",
        tanh_config(tmp_path, **{"train": {"steps": 150, "step_size": 0.1}}),
    )
    out = str(tmp_path / "report.json")
    assert run("compare", cfg, out) == 0
    res = read_report(out)["results"]
    assert res["network"]["mean_loss"] >= 0.0
    assert res["ksvm"]["mean_loss"] >= 0.0
    assert res["bounds"] is not None
    assert res["bounds"]["bound_kernel_trace"] > 0.0
    assert res["bounds"]["lipschitz_gm"] == 1.0


def test_compare_degrades_bounds_to_warning(tmp_path, capsys):
    cfg_obj = poly_config(tmp_path, **{"train": {"steps": 10, "step_size": 0.01}})
    cfg_obj["lambda"] = 0.5
    cfg = write_json(tmp_path / "cfg.json", cfg_obj)
    assert run("compare", cfg) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["bounds"] is None
    assert any("bounds unavailable" in w for w in report["warnings"])


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bounds_report_traceability(tmp_path):
    cfg_obj = tanh_config(tmp_path, radius=0.7, n=100, tight=True, trials=40)
    cfg = write_json(tmp_path / "cfg.json", cfg_obj)
    out = str(tmp_path / "report.json")
    assert run("bounds", cfg, out) == 0
    report = read_report(out)
    res = report["results"]
    for key in (
        "weight_ball_radius",
        "svm_ball_radius",
        "width_gm",
        "lipschitz_gm",
        "kernel_trace_mean",
        "bound_kernel_trace",
        "sample_size",
    ):
        assert key in res
    assert res["sample_size"] == 100
    assert res["weight_ball_radius"] == 0.7
    assert res["empirical_estimate"] is not None
    assert res["empirical_estimate"] <= res["bound_kernel_trace"]
    tight = res["tight"]
    assert tight["general"] > 0.0
    assert tight["bounded_layer"] == 1
    assert report["diagnostics"]["mean_input_norm_sq"] > 0.0


def test_bounds_tight_precondition_warning(tmp_path, capsys):
    cfg_obj = tanh_config(tmp_path, radius=1.0, tight=True)
    cfg_obj["architecture"]["activations"] = ["tanh", "logistic"]
    cfg = write_json(tmp_path / "cfg.json", cfg_obj)
    assert run("bounds", cfg) == 0
    report = json.loads(capsys.readouterr().out)
    assert "tight" not in report["results"]
    assert any("precondition" in w for w in report["warnings"])
    assert report["results"]["bound_growth"] is None


def test_bounds_domain_failure_exits_3(tmp_path):
    cfg_obj = tanh_config(tmp_path, n=6, scale=1.6, radius=1.0)
    cfg = write_json(tmp_path / "cfg.json", cfg_obj)
    assert run("bounds", cfg) == 3


def test_bounds_weights_seed_default_radius(tmp_path, capsys):
    cfg_obj = tanh_config(tmp_path)
    cfg = write_json(tmp_path / "cfg.json", cfg_obj)
    assert run("bounds", cfg) == 0
    report = json.loads(capsys.readouterr().out)
    w = netcore.init_weights(
        netcore.Architecture(2, (2, 1), (act.tanh(), act.tanh())), 1
    )
    assert report["results"]["weight_ball_radius"] == pytest.approx(
        0.5 * sum(w.frobenius_sq()), rel=1e-12
    )


# ---------------------------------------------------------------------------
# sparsity
# ---------------------------------------------------------------------------

def admissible_weights_file(tmp_path):
    arch = netcore.Architecture(1, (2, 1), (act.tanh(), act.tanh()))
    w = netcore.WeightSet((np.array([[0.8], [0.6]]), np.array([[0.8, 0.6]])))
    path = tmp_path / "weights.txt"
    netcore.save_weights(path, w)
    return str(path)


def test_sparsity_report(tmp_path):
    cfg_obj = {
        "architecture": {"input_dim": 1, "widths": [2, 1], "activations": ["tanh", "tanh"]},
        "truncation": 7,
        "weights": admissible_weights_file(tmp_path),
        "epsilons": [1e-3, 1e-2],
    }
    cfg = write_json(tmp_path / "cfg.json", cfg_obj)
    out = str(tmp_path / "report.json")
    assert run("sparsity", cfg, out) == 0
    report = read_report(out)
    res = report["results"]
    assert report["warnings"] == []
    assert 0.0 < res["bridge_norm"] <= res["bridge_bound"]
    assert res["weight_sup"] <= res["weight_sup_bound"]
    for row in res["epsilon_counts"]:
        assert row["count"] <= row["ceiling"]
        assert row["epsilon"] <= res["valid_epsilon_max"]
    assert report["diagnostics"]["constants"]["input_dim"] == 1


def test_sparsity_warns_on_inadmissible_weights(tmp_path, capsys):
    cfg_obj = {
        "architecture": {"input_dim": 1, "widths": [2, 1], "activations": ["tanh", "tanh"]},
        "truncation": 5,
        "seed": 5,
    }
    cfg = write_json(tmp_path / "cfg.json", cfg_obj)
    assert run("sparsity", cfg) == 0
    report = json.loads(capsys.readouterr().out)
    assert any("admissibility" in w for w in report["warnings"])


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------

def test_console_script_runs(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", poly_config(tmp_path))
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "kreinflat.cli", "flatten",
         "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(out.read_text())) == SECTIONS
