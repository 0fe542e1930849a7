"""End-to-end CLI behavior: configs, reports, exit codes, reproducibility."""

import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_cli_import_leaves_secrets_unimported():
    # temp names come from os.urandom; secrets would add its imports to every run
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, kreinflat.cli; assert 'secrets' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_out_creates_missing_directories(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", poly_config(tmp_path))
    out = tmp_path / "fresh" / "nested" / "report.json"
    assert run("flatten", cfg, str(out)) == 0
    assert out.exists()
    assert (out.parent / "report.flat_weight.txt").exists()


def test_flatten_multinomial_past_float_range_exits_3(tmp_path, capsys):
    # C(1100, 550) ~ 1e329 overflows a float before it meets a_1100 = 1e-300
    coefficients = [0.0] * 1101
    coefficients[1], coefficients[1100] = 1.0, 1e-300
    cfg_obj = {
        "architecture": {
            "input_dim": 2,
            "widths": [1],
            "activations": [{"kind": "polynomial", "coefficients": coefficients}],
        },
        "truncation": 1100,
    }
    assert run("flatten", write_json(tmp_path / "cfg.json", cfg_obj)) == 3
    err = capsys.readouterr().err
    assert "numerical domain failure: level 0: a multinomial of degree 1100" in err


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


@pytest.mark.parametrize("command", ["flatten", "bounds", "sparsity"])
@pytest.mark.parametrize("text, message", [
    ("", "the file holds no layer count"),
    ("2\n1 1\n0.5\n", "line 3: the file ends after 1 of 2 layers"),
])
def test_short_weights_file_exits_2(tmp_path, capsys, command, text, message):
    weights = tmp_path / "weights.txt"
    weights.write_text(text)
    cfg_obj = {
        "architecture": {"input_dim": 1, "widths": [1, 1], "activations": ["tanh", "tanh"]},
        "truncation": 3,
        "weights": str(weights),
        "dataset": write_dataset(tmp_path / "data.csv", np.array([[0.1]]), np.array([0.0])),
    }
    assert run(command, write_json(tmp_path / "cfg.json", cfg_obj)) == 2
    assert f"malformed weights file: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    # these raised "invalid literal for int()", "too many values to unpack", or
    # (a negative layer count) loaded as an empty weight set
    ("1\n1 x\n0.5\n", "line 2: shape count 'x' is not a whole number"),
    ("1\n1 1 1\n0.5\n", "line 2: expected 2 values, got 3"),
    ("-1\n", "line 1: layer count '-1' is not a whole number"),
])
def test_bad_weights_count_exits_2(tmp_path, capsys, text, message):
    weights = tmp_path / "weights.txt"
    weights.write_text(text)
    cfg_obj = {
        "architecture": {"input_dim": 1, "widths": [1], "activations": ["tanh"]},
        "truncation": 3,
        "weights": str(weights),
    }
    assert run("flatten", write_json(tmp_path / "cfg.json", cfg_obj)) == 2
    assert f"malformed weights file: {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("1\n1 2\n0.5 0.5\n1 1\n3\n", "line 4: the file goes on after 1 of 1 layers"),
    ("1\n1 2\n0.5 0.5\n0.5 0.5\n", "line 4: the file goes on after 1 of 1 layers"),
])
def test_weights_file_with_lines_past_its_layers_exits_2(tmp_path, capsys, text, message):
    # these loaded one layer and ignored the rest
    weights = tmp_path / "weights.txt"
    weights.write_text(text)
    cfg_obj = {
        "architecture": {"input_dim": 2, "widths": [1], "activations": ["tanh"]},
        "truncation": 3,
        "weights": str(weights),
    }
    assert run("flatten", write_json(tmp_path / "cfg.json", cfg_obj)) == 2
    assert f"malformed weights file: {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("activation, truncation", [
    ("exp", 180), ("erf", 400), ({"kind": "relu_surrogate"}, 180),
])
def test_high_degree_taylor_coefficients_exit_0_or_3(tmp_path, capsys, activation, truncation):
    # these coefficients raised OverflowError or ZeroDivisionError: exit 1
    cfg_obj = {
        "architecture": {"input_dim": 1, "widths": [1], "activations": [activation]},
        "truncation": truncation,
    }
    assert run("flatten", write_json(tmp_path / "cfg.json", cfg_obj)) in (0, 3)
    assert "Traceback" not in capsys.readouterr().err


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


def _row_by_row_load_dataset(path, input_dim):
    """load_dataset as it parsed before its one-array conversion, kept as the reference."""
    expected = [f"x{i}" for i in range(input_dim)] + ["y"]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip() for c in rows[0]] != expected:
        raise cli.ConfigError(f"dataset header must be {','.join(expected)} (file {path!r})")
    data = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        try:
            data.append(netcore.read_floats(row, lineno, input_dim + 1))
        except ValueError as exc:
            raise cli.ConfigError(f"dataset {exc}") from exc
    if not data:
        raise cli.ConfigError("dataset has no samples")
    table = np.array(data, dtype=float)
    return table[:, :input_dim], table[:, input_dim]


_FIELDS = st.floats(-1e6, 1e6).map(repr) | st.sampled_from(
    ["1_000", " 2.5 ", '"3.25"', "\t-0.0", "\u0661\u0662", "1e-400", "+7"]
)
_ODD_FIELDS = st.sampled_from(
    ["nan", "inf", "-inf", "1e400", "oops", "", "0x10", "1__0", '"1,5"', "   ", "1.5e"]
)


@st.composite
def _csv_bodies(draw):
    """A dataset file for input_dim 2: good rows, then up to two odd tokens, blank
    lines or rows of the wrong width, with LF or CRLF line ends."""
    rows = draw(st.lists(st.lists(_FIELDS, min_size=3, max_size=3), min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["token", "token", "token", "blank", "short", "long"]))
        if kind == "token":
            row = rows[draw(st.integers(0, len(rows) - 1))]
            row[draw(st.integers(0, len(row) - 1))] = draw(_ODD_FIELDS)
        else:
            width = {"blank": 0, "short": draw(st.integers(1, 2)), "long": 4}[kind]
            row = draw(st.lists(_FIELDS, min_size=width, max_size=width))
            rows.insert(draw(st.integers(0, len(rows))), row or [draw(st.sampled_from(["", "  "]))])
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(["x0,x1,y"] + [",".join(row) for row in rows])
    return text + end if draw(st.booleans()) else text


def _load_outcome(load, path):
    try:
        xs, ys = load(path, 2)[:2]
    except cli.ConfigError as exc:
        return "error", str(exc)
    return "table", xs.shape, xs.tobytes(), ys.tobytes()


@settings(max_examples=200)
@given(body=_csv_bodies())
def test_one_conversion_loads_what_the_row_by_row_parse_loads(tmp_path_factory, body):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(body.encode())
    got = _load_outcome(cli.load_dataset, str(path))
    assert got == _load_outcome(_row_by_row_load_dataset, str(path))
    if got[0] == "table":
        lines = cli.load_dataset(str(path), 2)[2]
        text_lines = body.replace("\r\n", "\n").split("\n")
        assert len(lines) == got[1][0]
        assert all(text_lines[n - 1].strip() for n in lines)


@pytest.mark.parametrize("body, message", [
    ("x0,x1,y\n0.1,0.2,0.3\n0.1,0.2\n", "dataset line 3: expected 3 values, got 2"),
    ("x0,x1,y\n0.1,0.2,0.3\n\n1,2,oops\n", "dataset line 4: could not convert string to float: 'oops'"),
    ("x0,x1,y\r\n0.1,0.2,0.3\r\n1,1e400,2\r\n", "dataset line 3: values must be finite"),
    ("x0,x1,y\n0.1,0.2,0.3,4\n", "dataset line 2: expected 3 values, got 4"),
])
def test_dataset_errors_name_the_first_bad_line(tmp_path, body, message):
    (tmp_path / "data.csv").write_text(body)
    with pytest.raises(cli.ConfigError) as exc:
        cli.load_dataset(str(tmp_path / "data.csv"), 2)
    assert str(exc.value) == message


def test_dataset_fields_parse_as_python_floats(tmp_path):
    (tmp_path / "data.csv").write_text('x0,x1,y\n1_000, 2.5 ,"3.25"\n\n\u0661\u0662,1e-400,-0.0\n')
    xs, ys, lines = cli.load_dataset(str(tmp_path / "data.csv"), 2)
    np.testing.assert_array_equal(xs, [[1000.0, 2.5], [12.0, 0.0]])
    assert ys.tolist() == [3.25, -0.0] and np.signbit(ys[1])
    assert lines == [2, 4]


def test_header_only_dataset_exits_2_without_a_warning(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", tanh_config(tmp_path))
    (tmp_path / "data.csv").write_text("x0,x1,y\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("train-ksvm", cfg) == 2
    assert capsys.readouterr().err == "invalid configuration: dataset has no samples\n"


def test_flatten_non_finite_network_value_exits_3_naming_its_line(tmp_path, capsys):
    # exp(exp(.)) overflows to inf on the sample of line 4
    (tmp_path / "data.csv").write_text("x0,x1,y\n0.1,0.2,1\n\n30,40,1\n0.5,0.5,0\n")
    cfg_obj = {
        "architecture": {"input_dim": 2, "widths": [3, 1], "activations": ["exp", "exp"]},
        "dataset": str(tmp_path / "data.csv"),
        "truncation": 3,
    }
    out = tmp_path / "report.json"
    assert run("flatten", write_json(tmp_path / "cfg.json", cfg_obj), str(out)) == 3
    assert capsys.readouterr().err == (
        "numerical domain failure: dataset line 4: the network or flat value is not finite\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command, error", [
    ("flatten", "dataset line 3: the network or flat value is not finite"),
    ("kernel", "gram entry (0, 1): the kernel value is not finite"),
    ("train-ksvm", "gram entry (0, 1): the kernel value is not finite"),
    ("train-net", "objective not finite at initialization"),
    ("compare", "objective not finite at initialization"),
])
def test_overflowing_network_exits_3_with_the_error_line_alone(tmp_path, capsys, command, error):
    # exp(exp(.)) overflows on the sample of line 3: no NumPy warning may precede the error
    (tmp_path / "data.csv").write_text("x0,x1,y\n0.1,0.2,1\n30,40,1\n0.5,0.5,0\n")
    cfg_obj = {
        "architecture": {"input_dim": 2, "widths": [3, 1], "activations": ["exp", "exp"]},
        "dataset": str(tmp_path / "data.csv"),
        "truncation": 3,
        "lambda": 0.5,
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(command, write_json(tmp_path / "cfg.json", cfg_obj)) == 3
    assert capsys.readouterr().err == f"numerical domain failure: {error}\n"


@pytest.mark.parametrize("command", ["train-net", "compare"])
def test_failed_rename_leaves_no_weights_model_or_temp_file(tmp_path, monkeypatch, command):
    cfg = write_json(tmp_path / "cfg.json", poly_config(tmp_path, **{"lambda": 0.1}))
    before = set(os.listdir(tmp_path))

    def refuse(src, dst):
        raise OSError(f"cannot rename {src} to {dst}")

    monkeypatch.setattr(os, "replace", refuse)
    assert run(command, cfg, str(tmp_path / "report.json")) == 2
    assert set(os.listdir(tmp_path)) == before


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


def test_size_guard_stops_counting_at_the_limit(tmp_path, capsys):
    # counting every level of this tower to the end took 45 s
    cfg = write_json(tmp_path / "cfg.json", tanh_config(tmp_path, truncation=600))
    start = time.perf_counter()
    assert run("flatten", cfg) == 2
    assert time.perf_counter() - start < 2.0
    assert "size guard: flat space needs more than 200000 entries at level 1" in (
        capsys.readouterr().err
    )


def test_too_many_weights_to_initialize_exit_2_naming_the_size(tmp_path, capsys):
    # 2**52 inputs passed the table and raised numpy's allocation error (exit 1)
    cfg_obj = tanh_config(tmp_path)
    cfg_obj["architecture"] = {"input_dim": 2**52, "widths": [1], "activations": ["tanh"]}
    del cfg_obj["dataset"]
    assert run("flatten", write_json(tmp_path / "cfg.json", cfg_obj)) == 2
    assert f"size guard: {2**52} weights in layers of shapes [(1, {2**52})]" in (
        capsys.readouterr().err
    )


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["polish", "--config", "x.json"])
    assert exc.value.code == 2
    assert "invalid choice: 'polish'" in capsys.readouterr().err


def test_missing_config_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["flatten"])
    assert exc.value.code == 2
    assert "the following arguments are required: --config" in capsys.readouterr().err


@pytest.mark.parametrize("command", list(cli.HANDLERS))
def test_every_command_takes_the_shared_options(command):
    options = ["--config", "c.json", "--out", "r.json", "--seed", "4", "--trunc", "5"]
    for argv in ([command, *options], [*options, command]):  # options may lead
        args = cli.build_parser().parse_args(argv)
        assert (args.command, args.config, args.out, args.seed, args.trunc) == (
            command, "c.json", "r.json", 4, 5
        )


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "{" + ",".join(cli.HANDLERS) + "}" in capsys.readouterr().out
    assert list(cli.HANDLERS) == [
        "flatten", "kernel", "train-net", "train-ksvm", "compare", "bounds", "sparsity"
    ]


def test_every_name_the_benchmark_tracer_wraps_exists():
    # perfbench/tracer.py looks each name up with a getattr that has no default
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, attrs in tracer.WRAPPED.items():
        module = importlib.import_module(f"kreinflat.{module_name}")
        for attr in attrs:
            assert callable(getattr(module, attr)), f"{module_name}.{attr}"


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
    # the exact-text writer gives the bytes of one "%.17g" per value
    xs, _, _ = cli.load_dataset(report["config_echo"]["dataset"], 2)
    arch = netcore.Architecture(2, (2, 1), (act.tanh(), act.tanh()))
    exact = kk.gram(kk.KernelDefinition(arch, "krein"), xs)
    per_value = "\n".join(",".join("%.17g" % v for v in row) for row in exact) + "\n"
    assert (tmp_path / res["gram_csv"]).read_bytes() == per_value.encode()


def test_gram_diagnostics_eigenvalues_keep_their_bits():
    arch = netcore.Architecture(2, (2, 1), (act.tanh(), act.tanh()))
    xs = np.random.default_rng(4).uniform(-0.5, 0.5, size=(9, 2))
    gram = kk.gram(kk.KernelDefinition(arch, "krein"), xs)
    eigs, diagnostics = cli._gram_diagnostics(gram)
    assert eigs.tobytes() == np.linalg.eigvalsh(0.5 * (gram + gram.T)).tobytes()
    assert diagnostics["symmetric"] is True
    # a Gram that is not bit-symmetric is still symmetrized: eigvalsh alone
    # reads the lower triangle and would not see the moved upper entry
    moved = gram.copy()
    moved[0, 1] += 1e-3
    eigs, diagnostics = cli._gram_diagnostics(moved)
    assert eigs.tobytes() == np.linalg.eigvalsh(0.5 * (moved + moved.T)).tobytes()
    assert not np.array_equal(eigs, np.linalg.eigvalsh(moved))
    assert diagnostics["symmetric"] is False
    assert diagnostics["min_eigenvalue"] == eigs[0]


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


@pytest.mark.parametrize("command, extra", [
    ("train-ksvm", {}),
    ("compare", {"train": {"steps": 5, "step_size": 0.05}}),
])
def test_exact_solve_takes_one_eigenvalue_pass(tmp_path, monkeypatch, command, extra):
    calls = {"eigvalsh": 0, "eigh": 0}

    def counted(name):
        original = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    cfg = write_json(tmp_path / "cfg.json", tanh_config(tmp_path, **extra))
    assert run(command, cfg, str(tmp_path / "report.json")) == 0
    assert calls == {"eigvalsh": 1, "eigh": 0}


@pytest.mark.parametrize("command, extra", [
    ("train-ksvm", {}),
    ("train-ksvm", {"solver": "gd", "train": {"steps": 20, "step_size": 0.1}}),
    ("compare", {"train": {"steps": 5, "step_size": 0.05}}),
])
def test_kernel_machine_runs_skip_the_symmetry_tolerance_test(tmp_path, monkeypatch, command,
                                                               extra):
    calls = []
    allclose = np.allclose
    monkeypatch.setattr(np, "allclose", lambda *a, **k: calls.append(1) or allclose(*a, **k))
    cfg = write_json(tmp_path / "cfg.json", tanh_config(tmp_path, **extra))
    assert run(command, cfg, str(tmp_path / "report.json")) == 0
    assert calls == []  # kk.gram's Gram is bit-symmetric
    # the counter sees the tolerance test when a Gram is not bit-symmetric
    ksvm._check_system(np.array([[1.0, 1e-15], [0.0, 1.0]]), np.zeros(2))
    assert calls == [1]


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


@pytest.mark.parametrize("command", ["bounds", "compare"])
@pytest.mark.parametrize("counts, key", [
    ({"trials": -5}, "trials"),
    ({"trials": 2.5}, "trials"),
    ({"trials": "10"}, "trials"),
    ({"trials": True}, "trials"),
    ({"trials": 10, "hypothesis_draws": -3}, "hypothesis_draws"),
    ({"trials": 10, "hypothesis_draws": 0}, "hypothesis_draws"),
    ({"trials": 10, "hypothesis_draws": 1.5}, "hypothesis_draws"),
])
def test_bad_monte_carlo_counts_exit_2_naming_the_key(tmp_path, capsys, command, counts, key):
    cfg = write_json(tmp_path / "cfg.json", tanh_config(tmp_path, **counts))
    assert run(command, cfg) == 2
    assert f"invalid configuration: '{key}'" in capsys.readouterr().err


def test_compare_runs_the_monte_carlo_estimate(tmp_path, capsys):
    cfg_obj = tanh_config(tmp_path, trials=30, hypothesis_draws=20, train={"steps": 5})
    cfg = write_json(tmp_path / "cfg.json", cfg_obj)
    assert run("compare", cfg) == 0
    bounds = json.loads(capsys.readouterr().out)["results"]["bounds"]
    assert 0.0 < bounds["empirical_estimate"] <= bounds["bound_kernel_trace"]


# ---------------------------------------------------------------------------
# config numbers: finite, and the offending key named
# ---------------------------------------------------------------------------

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("command, extra, key", [
    ("bounds", {"radius": NAN}, "radius"),
    ("bounds", {"radius": INF}, "radius"),
    ("bounds", {"reg_scale": NAN}, "reg_scale"),
    ("bounds", {"reg_scale": INF}, "reg_scale"),
    ("train-net", {"lambda": NAN}, "lambda"),
    ("train-net", {"lambda": INF}, "lambda"),
    ("train-net", {"train": {"step_size": NAN}}, "train.step_size"),
    ("train-net", {"train": {"step_size": INF}}, "train.step_size"),
    ("train-net", {"reg_scale": NAN}, "reg_scale"),
    ("train-ksvm", {"lambda": NAN}, "lambda"),
    ("train-ksvm", {"solver": "gd", "train": {"step_size": NAN}}, "train.step_size"),
    ("compare", {"reg_scale": INF}, "reg_scale"),
    ("sparsity", {"reg_scale": NAN}, "reg_scale"),
    ("sparsity", {"epsilons": [1e-3, NAN]}, "epsilons"),
    ("sparsity", {"epsilons": [INF]}, "epsilons"),
    ("sparsity", {"intervals": [INF, 1.0]}, "intervals"),
    ("sparsity", {"intervals": [NAN, 1.0]}, "intervals"),
    ("sparsity", {"intervals": 0.5}, "intervals"),
])
def test_non_finite_config_number_exits_2_naming_the_key(tmp_path, capsys, command, extra, key):
    cfg = write_json(tmp_path / "cfg.json", tanh_config(tmp_path, **extra))
    assert run(command, cfg) == 2
    assert f"invalid configuration: '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [
    {"kind": "relu_surrogate", "sharpness": NAN},
    {"kind": "relu_surrogate", "sharpness": INF},
    {"kind": "polynomial", "coefficients": [0.0, 1.0, NAN]},
    {"kind": "polynomial", "coefficients": [0.0, INF]},
])
def test_non_finite_activation_parameter_exits_2(tmp_path, capsys, entry):
    cfg_obj = tanh_config(tmp_path)
    cfg_obj["architecture"]["activations"][0] = entry
    cfg = write_json(tmp_path / "cfg.json", cfg_obj)
    assert run("bounds", cfg) == 2
    assert "invalid configuration: bad activation entry" in capsys.readouterr().err


@pytest.mark.parametrize("entry, message", [
    ({"kind": "relu_surrogate", "sharpness": True}, "'sharpness' must be a finite number"),
    ({"kind": "relu_surrogate", "sharpness": "0.5"}, "'sharpness' must be a finite number"),
    # fields the table does not list are not activation fields
    ({"kind": "tanh", "max_terms": 12}, "unknown field 'max_terms'"),
    ({"kind": "tanh", "terms": 2}, "unknown field 'terms'"),
    ({"kind": "polynomial", "coefficients": [0.0, True]},
     "'coefficients' must be a list, each a finite number"),
    ({"sharpness": 2}, "missing field 'kind'"),
])
@pytest.mark.parametrize("command", ["flatten", "kernel"])
def test_activation_fields_take_the_config_table_types(tmp_path, capsys, command, entry, message):
    cfg_obj = tanh_config(tmp_path)
    cfg_obj["architecture"]["activations"][0] = entry
    cfg = write_json(tmp_path / "cfg.json", cfg_obj)
    assert run(command, cfg) == 2
    err = capsys.readouterr().err
    assert "invalid configuration: bad activation entry" in err and message in err


def test_activation_fields_of_the_right_types_still_run(tmp_path):
    cfg_obj = tanh_config(tmp_path, truncation=3)
    cfg_obj["architecture"]["activations"] = [
        {"kind": "relu_surrogate", "sharpness": 1}, {"kind": "tanh"}
    ]
    assert run("flatten", write_json(tmp_path / "cfg.json", cfg_obj)) == 0


@pytest.mark.parametrize("extra, key", [
    ({"n": 10**400}, "n"),
    ({"n": 2**53}, "n"),
    ({"architecture": {"input_dim": 10**400, "widths": [2, 1],
                       "activations": ["tanh", "tanh"]}}, "architecture.input_dim"),
    ({"architecture": {"input_dim": 2, "widths": [10**400, 1],
                       "activations": ["tanh", "tanh"]}}, "architecture.widths"),
])
def test_huge_integers_that_meet_float_arithmetic_exit_2(tmp_path, capsys, extra, key):
    # a 401-digit n raised OverflowError in the bound's float division (exit 1)
    cfg_obj = tanh_config(tmp_path, radius=1.0)
    cfg_obj.update(extra)  # "n" is also tanh_config's sample count
    assert run("bounds", write_json(tmp_path / "cfg.json", cfg_obj)) == 2
    assert f"invalid configuration: '{key}' must be" in capsys.readouterr().err


@pytest.mark.parametrize("extra, key", [
    ({"trials": 10**400}, "trials"),
    ({"trials": 2**20}, "trials"),
    ({"trials": 3, "hypothesis_draws": 10**400}, "hypothesis_draws"),
])
def test_huge_monte_carlo_counts_exit_2_naming_the_key(tmp_path, capsys, extra, key):
    # a 401-digit trials failed in numpy: "Maximum allowed dimension exceeded"
    cfg = write_json(tmp_path / "cfg.json", tanh_config(tmp_path, radius=1.0, **extra))
    assert run("bounds", cfg) == 2
    assert f"invalid configuration: '{key}' must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train-net", "compare"])
def test_zero_train_steps_exit_2_naming_the_key(tmp_path, capsys, command):
    cfg = write_json(tmp_path / "cfg.json", tanh_config(tmp_path, train={"steps": 0}))
    assert run(command, cfg) == 2
    assert "invalid configuration: 'train.steps' must be an integer >= 1" in capsys.readouterr().err


def test_train_ksvm_gd_allows_zero_steps(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", tanh_config(tmp_path, solver="gd", train={"steps": 0}))
    assert run("train-ksvm", cfg) == 0
    assert json.loads(capsys.readouterr().out)["results"]["final_gradient_norm"] > 0.0


@pytest.mark.parametrize("command, extra, key", [
    ("bounds", {"n": True}, "n"),
    ("flatten", {"truncation": True}, "truncation"),
    ("flatten", {"seed": True}, "seed"),
    ("bounds", {"radius": True}, "radius"),
    ("train-net", {"lambda": True}, "lambda"),
    ("train-net", {"lambda": "0.5"}, "lambda"),
    ("train-net", {"train": {"steps": True}}, "train.steps"),
    ("bounds", {"tight": "no"}, "tight"),
    ("flatten", {"architecture": {"input_dim": 2.9, "widths": [2, 1],
                                  "activations": ["tanh", "tanh"]}}, "architecture.input_dim"),
    ("flatten", {"dataset": ["data.csv"]}, "dataset"),
    ("compare", {"trials": 0, "hypothesis_draws": 0}, "hypothesis_draws"),
])
def test_bools_strings_and_fractions_are_refused_naming_the_key(
    tmp_path, capsys, command, extra, key
):
    cfg_obj = tanh_config(tmp_path)
    cfg_obj.update(extra)  # "n" is also tanh_config's sample count
    cfg = write_json(tmp_path / "cfg.json", cfg_obj)
    assert run(command, cfg) == 2
    assert f"invalid configuration: '{key}' must be" in capsys.readouterr().err


def test_dataset_that_is_a_number_exits_2(tmp_path):
    # a number is no file name: open() would take it for a file descriptor
    # (2 closes the caller's stderr), so it runs in a process of its own
    cfg = write_json(tmp_path / "cfg.json", tanh_config(tmp_path, dataset=2))
    proc = subprocess.run(
        [sys.executable, "-m", "kreinflat.cli", "flatten", "--config", cfg],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "invalid configuration: 'dataset' must be a path string" in proc.stderr


@pytest.mark.parametrize("flag, value, key", [
    ("--seed", "-1", "seed"),
    ("--seed", str(2**64), "seed"),
    ("--trunc", "0", "truncation"),
])
@pytest.mark.parametrize("command", ["flatten", "kernel"])
def test_overrides_are_checked_as_their_keys(tmp_path, capsys, command, flag, value, key):
    cfg = write_json(tmp_path / "cfg.json", tanh_config(tmp_path))
    assert run(command, cfg, extra=[flag, value]) == 2
    assert f"invalid configuration: '{key}' must be" in capsys.readouterr().err


@pytest.mark.parametrize("activations", [["tanh", "tanh"], ["linear", "linear"]])
def test_overflowing_bounds_report_inf(tmp_path, capsys, activations):
    cfg_obj = tanh_config(tmp_path, radius=1e308, trials=3, tight=True)
    cfg_obj["architecture"]["activations"] = activations
    cfg = write_json(tmp_path / "cfg.json", cfg_obj)
    assert run("bounds", cfg) == 0
    text = capsys.readouterr().out
    assert "nan" not in text
    res = json.loads(text)["results"]
    assert res["svm_ball_radius"] == res["bound_kernel_trace"] == "inf"
    assert res["tight"]["general"] == "inf"
    assert res["bound_linear"] == ("inf" if activations[0] == "linear" else None)


def test_bounds_on_overflowing_row_norms_warn_nothing(tmp_path, monkeypatch, capsys):
    # squared row norms past the float range printed four NumPy overflow
    # warnings; the report already read inf and keeps its bytes
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.csv").write_text("x0,x1,y\n1e200,0,1\n0,1e200,-1\n")
    cfg_obj = {
        "architecture": {"input_dim": 2, "widths": [2, 1], "activations": ["linear", "linear"]},
        "dataset": "data.csv", "tight": True, "trials": 3, "hypothesis_draws": 3, "seed": 1,
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("bounds", write_json(tmp_path / "cfg.json", cfg_obj)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["diagnostics"]["mean_input_norm_sq"] == "inf"
    assert hashlib.sha256(captured.out.encode()).hexdigest() == (
        "c5d339de714ea338cda0df5de8808351ae2f4ec53e555645342606ff57c2addc"
    )


def test_zero_radius_bounds_are_zero_not_nan(tmp_path, capsys):
    # the associated chain of relu_surrogate overflows on inputs of scale 10: an
    # infinite kernel trace times a zero-radius ball
    xs = np.linspace(-10.0, 10.0, 5)[:, None]
    cfg_obj = {
        "architecture": {"input_dim": 1, "widths": [1],
                         "activations": [{"kind": "relu_surrogate", "sharpness": 0.5}]},
        "dataset": write_dataset(tmp_path / "data.csv", xs, np.ones(5)),
        "reg_scale": 0,
        "trials": 3,
    }
    assert run("bounds", write_json(tmp_path / "cfg.json", cfg_obj)) == 0
    text = capsys.readouterr().out
    assert "nan" not in text
    res = json.loads(text)["results"]
    assert res["kernel_trace_mean"] == "inf"
    assert res["svm_ball_radius"] == res["bound_kernel_trace"] == res["empirical_estimate"] == 0.0


# ---------------------------------------------------------------------------
# the config key table
# ---------------------------------------------------------------------------

def full_config(tmp_path):
    """A config that every command runs on, reading every key it can."""
    return tanh_config(
        tmp_path, n=6, truncation=3, solver="gd", train={"steps": 2}, intervals=[0.5, 0.5]
    )


def test_every_read_is_a_key_the_table_lists_for_the_command(tmp_path, monkeypatch, capsys):
    cfg = write_json(tmp_path / "cfg.json", full_config(tmp_path))
    reads = []
    get = cli._get

    def recording(cfg, key):
        reads.append((cfg.command, key))
        return get(cfg, key)

    monkeypatch.setattr(cli, "_get", recording)
    for command in cli.HANDLERS:
        assert run(command, cfg) == 0, command
    assert [(c, k) for c, k in reads if c not in cli.CONFIG_KEYS[k].commands] == []
    assert {k for _, k in reads} == set(cli.CONFIG_KEYS)


NONFINITE = st.sampled_from([NAN, INF, -INF])
NEGATIVE = st.one_of(st.integers(max_value=-1), st.floats(max_value=-1e-6, allow_infinity=False))


def bad_families(spec, kind):
    """Strategies for values that are not a ``kind`` value of the key, one per
    family: non-finite, negative, zero where the range excludes it, bools,
    strings, fractions for integers, objects, lists and integers above an
    upper bound."""
    zero_ok = spec.range.startswith(">= 0")
    families = [NONFINITE, NEGATIVE]
    zeros = [z for z in (0, 0.0) if not (zero_ok and (kind == "number" or type(z) is int))]
    if zeros:
        families.append(st.sampled_from(zeros))
    if kind != "bool":
        families.append(st.booleans())
    if kind not in ("path", "activation"):
        families.append(st.text(max_size=4).filter(lambda s: s not in spec.choices))
    if kind == "integer":
        families.append(st.floats(0.5, 100).filter(lambda v: not v.is_integer()))
    if kind not in ("object", "activation"):
        families.append(st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
    if kind != "list":
        families.append(st.lists(st.integers(), max_size=2))
    too_large = re.search(r"< 2\*\*(\d+)", spec.range)
    if too_large:
        families.append(st.integers(min_value=2 ** int(too_large.group(1))))
    return families


@pytest.fixture(scope="module")
def key_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("keys")


@pytest.mark.parametrize("key", sorted(cli.CONFIG_KEYS))
@settings(max_examples=2)
@given(data=st.data())
def test_a_bad_value_of_any_key_exits_2_naming_it(key_dir, key, data):
    spec = cli.CONFIG_KEYS[key]
    kind = spec.type.removesuffix(" list")
    families = bad_families(spec, kind)
    if kind != spec.type:  # a non-list, or a list with one bad element per family
        families = bad_families(spec, "list") + [
            st.lists(f, min_size=1, max_size=2) for f in families
        ]
    for value in data.draw(st.tuples(*families)):
        cfg_obj = full_config(key_dir)
        parent, _, name = key.rpartition(".")
        (cfg_obj.setdefault(parent, {}) if parent else cfg_obj)[name] = value
        cfg = key_dir / "cfg.json"
        cfg.write_text(json.dumps(cfg_obj))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(spec.commands[0], str(cfg))
        assert code == 2, (value, err.getvalue())
        assert f"invalid configuration: '{key}' must be" in err.getvalue()


def _cell(spec, field):
    """The README text of one field of a table entry, without its remark."""
    if field == "default":
        if spec.default is cli.REQUIRED:
            return "required"
        return "none" if spec.default is None else json.dumps(spec.default)
    if spec.choices:
        return "one of " + ", ".join(spec.choices)
    return spec.range or "—"


def test_readme_table_matches_the_config_keys():
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    header = "| key | type | range | default | commands |"
    lines = readme[readme.index(header):].split("\n")[2:]
    rows = [line.split(" | ") for line in lines[: lines.index("")]]
    assert [row[0].strip("|` ") for row in rows] == list(cli.CONFIG_KEYS)
    for (_, type_, range_, default, commands), (key, spec) in zip(rows, cli.CONFIG_KEYS.items()):
        assert type_ == spec.type, key
        assert commands.rstrip(" |") == (
            "all" if spec.commands == tuple(cli.HANDLERS) else ", ".join(spec.commands)
        ), key
        for field, cell in (("range", range_), ("default", default)):
            # each text may carry a remark in parentheses; a command's own
            # value follows as "; <command>: <text>"
            texts = [_cell(spec, field)] + [
                f"{command}: {_cell(cli.replace(spec, **fields), field)}"
                for command, fields in spec.by_command.items()
                if field in fields
            ]
            remark = r"( \([^)]*\))?"
            assert re.fullmatch("; ".join(re.escape(t) + remark for t in texts), cell), (key, cell)


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


def test_sparsity_overflowing_interval_exits_3_naming_the_layer(tmp_path, capsys):
    # the realized intervals are [3, 4889.98..., inf]: erfi overflows below layer 2
    cfg_obj = {
        "architecture": {"input_dim": 3, "widths": [3, 3, 1],
                         "activations": ["erf", "erf", "exp"]},
        "truncation": 2,
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("sparsity", write_json(tmp_path / "cfg.json", cfg_obj)) == 3
    assert capsys.readouterr().err == (
        "numerical domain failure: layer 2: a penalty-chain argument overflowed to inf\n"
    )


def test_sparsity_interval_past_the_radius_names_the_associated_kind(tmp_path, capsys):
    # lbar is the Lipschitz mean of the associated activations, so an interval
    # past pi/2 is refused for tan, the function the constant is taken of
    cfg_obj = {
        "architecture": {"input_dim": 1, "widths": [2, 1], "activations": ["tanh", "tanh"]},
        "truncation": 3,
        "weights": admissible_weights_file(tmp_path),
        "intervals": [2.0, 2.0],
    }
    assert run("sparsity", write_json(tmp_path / "cfg.json", cfg_obj)) == 3
    assert capsys.readouterr().err == (
        "numerical domain failure: interval [0, 2.0] exceeds the convergence radius of tan\n"
    )


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
