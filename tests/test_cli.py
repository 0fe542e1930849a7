"""End-to-end CLI behavior: configs, reports, exit codes, reproducibility."""

import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import math
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

from kreinflat import analysis, cli, ksvm, netcore
from kreinflat import pushforward as pf
from kreinflat import activations as act
from kreinflat import kreinkernel as kk
from kreinflat.errors import InputError

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


@pytest.mark.parametrize("kind", act.DERIVED_KINDS)
def test_flatten_config_may_name_an_associated_kind(tmp_path, capsys, kind):
    # a wider relu surrogate than the default sharpness keeps erfi's growth in range
    entry = {"kind": kind, "sharpness": 1.0} if kind == "relu_surrogate_assoc" else kind
    cfg_obj = tanh_config(tmp_path, truncation=4)
    cfg_obj["architecture"]["activations"] = [entry, entry]
    assert run("flatten", write_json(tmp_path / "cfg.json", cfg_obj)) == 0
    assert json.loads(capsys.readouterr().out)["results"]["max_equivalence_residual"] <= 1e-3


@pytest.mark.parametrize("kind, radius", [("tan", math.pi / 2), ("logistic_assoc", math.pi)])
def test_flatten_pole_limited_kind_outside_its_radius_exits_3(tmp_path, capsys, kind, radius):
    cfg_obj = tanh_config(tmp_path, scale=300.0, truncation=4)
    cfg_obj["architecture"]["activations"] = [kind, kind]
    assert run("flatten", write_json(tmp_path / "cfg.json", cfg_obj)) == 3
    assert capsys.readouterr().err.endswith(f", outside radius {radius!r}\n")


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
# built from index arrays (the three weight dumps above layer 0 re-taken when
# pushed weights went through compose); 2,240 distinct "exponents | tag"
# prefixes share its 3,288 lines, so the bytes also pin the stored order that
# breaks their ties
GOLDEN_DUMPS = {
    "feature_map": "bc6e905b7d00224ae14e168b82629984f52284b391e4bb322e4bb7cc78e562ff",
    "flat_weight": "fb453d560c4f8105ce2cced8d664707d884258009bc4e76c8319b7d593788617",
    "metric": "56c9ff191281cc89ebc47654907002aae8ebfdc001f3c9377598620a16b3f2e3",
    "weight_layer0": "af07c39a61ae743b8ec670164bbfb08d731ded2214e22ca980925451a474f0c7",
    "weight_layer1": "ff3ae07f26d2a7fcfc3bd4f4e9d7014261b11ba510a4e93be5f7bfeb2bf72677",
    "weight_layer2": "230cc4ef294eb5f2715340a108e258b0ca1e6ac5126c679a221f79363eeaef87",
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


def test_flatten_out_leaves_one_narrow_compose_table_per_level(tmp_path):
    arch = netcore.Architecture(1, (2, 2, 1), (act.tanh(),) * 3)
    cfg = write_json(tmp_path / "cfg.json", {
        "architecture": {"input_dim": 1, "widths": [2, 2, 1], "activations": ["tanh"] * 3},
        "truncation": 7, "seed": 2,
    })
    assert run("flatten", cfg, str(tmp_path / "report.json")) == 0
    hits = pf.flat_space.cache_info().hits
    space = pf.flat_space(arch, 7)
    assert pf.flat_space.cache_info().hits == hits + 1  # the tower flatten built
    for lv in space.levels:
        # the feature, metric and weight passes shared one table over all slots
        table = vars(lv)["table"]
        slots, _, gather = table
        width = 1 + lv.n_slots + len(slots)
        assert all(col.dtype == np.min_scalar_type(-1 - width) for col in gather), lv.level
        period = lv.n_slots if lv.level == 0 else len(lv.prev.own_degree)
        lv.compose(np.ones(period))
        lv.compose(np.ones(lv.n_slots))
        assert lv.table is table, lv.level


def test_atomic_write_leaves_no_temp(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", poly_config(tmp_path))
    out = str(tmp_path / "report.json")
    assert run("flatten", cfg, out) == 0
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


def test_write_text_temp_names_are_unique(tmp_path):
    out = tmp_path / "report.json"
    # a fixed temp name would collide with this leftover of another run
    (tmp_path / "report.json.tmp").mkdir()
    cli.write_text(str(out), ("one\n",))
    cli.write_text(str(out), ("two\n",))
    assert out.read_text() == "two\n"
    assert sorted(os.listdir(tmp_path)) == ["report.json", "report.json.tmp"]


def test_write_text_failure_leaves_no_temp(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()  # renaming a file onto a directory fails
    with pytest.raises(OSError):
        cli.write_text(str(target), ("text\n",))
    assert os.listdir(tmp_path) == ["taken"]
    assert os.listdir(target) == []


def test_write_text_joins_blocks_and_refuses_a_bare_str(tmp_path):
    out = tmp_path / "out.txt"
    cli.write_text(str(out), iter(["a\n", "", "b\nc\n"]))
    assert out.read_text() == "a\nb\nc\n"
    with pytest.raises(TypeError, match=r"\(text,\)"):
        cli.write_text(str(out), "text\n")
    assert out.read_text() == "a\nb\nc\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_text_failing_blocks_keep_the_previous_file(tmp_path):
    out = tmp_path / "dump.txt"
    cli.write_text(str(out), ("old\n",))

    def blocks():
        yield "new\n" * 50_000  # past the write buffer: the temp file holds text
        raise RuntimeError("block 2 failed")

    with pytest.raises(RuntimeError, match="block 2"):
        cli.write_text(str(out), blocks())
    assert out.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["dump.txt"]


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


@pytest.mark.parametrize("kind, entries", [("tanh", 825), ("exp", 178)])
def test_one_neuron_flatten_at_truncation_12000(tmp_path, capsys, kind, entries):
    # every coefficient past the last nonzero float (degree 1,649 for tanh, 177
    # for exp) rounds to 0, so the series work stops there whatever T is
    cfg_obj = {
        "architecture": {"input_dim": 1, "widths": [1], "activations": [kind]},
        "truncation": 12_000,
    }
    assert run("flatten", write_json(tmp_path / "cfg.json", cfg_obj)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["truncation"] == 12_000
    assert report["diagnostics"]["stored_top_entries"] == entries


def _flatten_report(tmp_path, capsys, cfg_obj, trunc):
    """Exit status and report of a flatten at --trunc ``trunc``, with the echoed truncation dropped."""
    status = run("flatten", write_json(tmp_path / "cfg.json", cfg_obj), extra=["--trunc", str(trunc)])
    out = capsys.readouterr().out
    if status:
        return status, None
    report = json.loads(out)
    assert report["config_echo"].pop("truncation") == report["results"].pop("truncation") == trunc
    return status, report


def test_a_truncation_past_the_coefficients_costs_what_their_end_costs(tmp_path, capsys):
    # exp's coefficients round to 0 past degree 177: the largest truncation
    # accepted is the machine at 177, and builds nothing larger (before, the
    # series work grew with T: 6.9 s at T = 1e6, and past 5.8 GB at a
    # 20-digit T)
    xs = np.array([[0.3, -0.2], [0.1, 0.4]])
    cfg_obj = {
        "architecture": {"input_dim": 2, "widths": [1], "activations": ["exp"]},
        "dataset": write_dataset(tmp_path / "data.csv", xs, np.zeros(2)),
    }
    want = _flatten_report(tmp_path, capsys, cfg_obj, 177)
    started = time.monotonic()
    assert _flatten_report(tmp_path, capsys, cfg_obj, 2**53 - 1) == want
    assert time.monotonic() - started < 1.0
    assert want[0] == 0 and want[1]["diagnostics"]["stored_top_entries"] == 178 * 179 // 2


def test_a_relu_surrogate_series_ends_where_its_coefficients_round_to_0(tmp_path, capsys):
    # one exact Fraction per even degree took 37 s at T = 20,000; the series
    # now stops at its last nonzero coefficient
    spec = act.relu_surrogate(1.0)
    end = len(act.taylor_series(spec, 20_000)) - 1
    assert 100 < end < 1000 and act.taylor_coefficient(spec, end) != 0.0
    assert not any(act.taylor_coefficient(spec, i) for i in range(end + 1, end + 41))
    cfg_obj = {"architecture": {"input_dim": 1, "widths": [1],
                                "activations": [{"kind": "relu_surrogate", "sharpness": 1.0}]},
               "dataset": write_dataset(tmp_path / "data.csv", np.array([[0.5], [-1.5]]), np.zeros(2))}
    want = _flatten_report(tmp_path, capsys, cfg_obj, end)
    assert want[0] == 0
    assert _flatten_report(tmp_path, capsys, cfg_obj, 20_000) == want


@pytest.mark.parametrize("trunc", [2**53, 10**18, 99999999999999999999])
def test_a_truncation_past_2_53_exits_2_naming_it(tmp_path, capsys, trunc):
    cfg = write_json(tmp_path / "cfg.json", {
        "architecture": {"input_dim": 2, "widths": [1], "activations": ["exp"]}})
    assert run("flatten", cfg, extra=["--trunc", str(trunc)]) == 2
    assert "'truncation' must be an integer >= 1 and < 2**53" in capsys.readouterr().err


def test_one_neuron_flatten_sums_the_terms_whose_powers_overflow(tmp_path, capsys):
    # 1.56**k overflows from k = 1,597, but a_k 1.56**k does not: 27 odd terms
    # up to tanh's last nonzero degree 1,649 are taken in log space (this exited 3)
    weights = tmp_path / "weights.txt"
    netcore.save_weights(weights, (np.array([[1.0]]),))
    xs = np.array([[0.5], [1.56]])
    cfg_obj = {
        "architecture": {"input_dim": 1, "widths": [1], "activations": ["tanh"]},
        "truncation": 12_000, "weights": str(weights),
        "dataset": write_dataset(tmp_path / "data.csv", xs, np.zeros(2)),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("flatten", write_json(tmp_path / "cfg.json", cfg_obj)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["results"]["max_equivalence_residual"] <= 1e-5


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


def test_flatten_without_dumps_builds_no_tower(tmp_path, capsys):
    # the residual comes from a forward pass of truncated series (T <= 170)
    cfg = write_json(tmp_path / "cfg.json", tanh_config(tmp_path, truncation=9))
    before = pf.flat_space.cache_info()
    assert run("flatten", cfg) == 0
    after = pf.flat_space.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    results = json.loads(capsys.readouterr().out)["results"]
    assert 0.0 <= results["max_equivalence_residual"] <= 1e-6


def test_flatten_without_dumps_past_the_size_guard_exits_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", tanh_config(tmp_path, truncation=17))
    before = pf.flat_space.cache_info()
    assert run("flatten", cfg) == 2
    assert pf.flat_space.cache_info().misses == before.misses
    assert capsys.readouterr().err == (
        "size guard: flat space needs more than 200000 entries at level 1; "
        "lower the truncation or the widths\n"
    )


@pytest.mark.parametrize("config", [
    lambda tmp_path: poly_config(tmp_path),
    lambda tmp_path: tanh_config(tmp_path, truncation=7),
    lambda tmp_path: {**tanh_config(tmp_path, truncation=3), "architecture": {
        "input_dim": 2, "widths": [2, 2, 1],
        "activations": ["logistic", {"kind": "polynomial", "coefficients": [0.5, 1.0, 0.2]}, "exp"],
    }},
], ids=["polynomial", "tanh", "constant-terms"])
def test_flatten_reports_with_and_without_dumps_differ_only_in_the_dumps(tmp_path, capsys, config):
    cfg = write_json(tmp_path / "cfg.json", config(tmp_path))
    out = str(tmp_path / "report.json")
    assert run("flatten", cfg, out) == 0
    dumped = read_report(out)
    assert run("flatten", cfg) == 0
    printed = json.loads(capsys.readouterr().out)
    assert set(dumped["results"].pop("dump_files")) >= {"feature_map", "metric", "flat_weight"}
    assert printed["warnings"] == dumped["warnings"] + ["no --out given: series dumps skipped"]
    printed["warnings"] = dumped["warnings"]
    assert printed == dumped


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


def test_a_config_that_is_a_json_array_exits_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", [poly_config(tmp_path)])
    assert run("flatten", cfg) == 2
    assert "invalid configuration: config must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("extra, key", [
    ({"truncaton": 3, "train": {"stpes": 5}}, "truncaton"),  # not a run at truncation 8
    ({"train": {"steps": 5, "stpes": 5}}, "train.stpes"),
    ({"train.steps": 5}, "train.steps"),  # a field is not a top-level key
    ({"architecture": {"input_dim": 2, "widths": [1], "activations": ["tanh"], "width": 2}},
     "architecture.width"),
])
def test_an_unknown_key_exits_2_naming_it(tmp_path, capsys, extra, key):
    cfg = write_json(tmp_path / "cfg.json", poly_config(tmp_path, **extra))
    assert run("flatten", cfg) == 2
    assert capsys.readouterr().err == f"invalid configuration: unknown key {key!r}\n"
    with pytest.raises(InputError, match=f"^unknown key {re.escape(repr(key))}$"):
        cli.load_config(cfg)


def test_a_key_that_another_command_reads_is_accepted(tmp_path, capsys):
    # the gram benchmark's kernel config carries train-ksvm's lambda
    cfg = write_json(tmp_path / "cfg.json", tanh_config(tmp_path, train={"steps": 2}))
    assert run("kernel", cfg) == 0
    assert json.loads(capsys.readouterr().out)["config_echo"]["lambda"] == 0.5


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


def test_an_unreadable_weights_path_exits_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", poly_config(tmp_path, weights=str(tmp_path / "nope.txt")))
    assert run("flatten", cfg) == 2
    assert "invalid configuration: cannot read weights: " in capsys.readouterr().err


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
        raise InputError(f"dataset header must be {','.join(expected)} (file {path!r})")
    data = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        try:
            data.append(netcore.read_floats(row, lineno, input_dim + 1))
        except ValueError as exc:
            raise InputError(f"dataset {exc}") from exc
    if not data:
        raise InputError("dataset has no samples")
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
    except InputError as exc:
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
    with pytest.raises(InputError) as exc:
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


def test_gram_diagnostics_eigenvalues_keep_their_bits(monkeypatch):
    arch = netcore.Architecture(2, (2, 1), (act.tanh(), act.tanh()))
    xs = np.random.default_rng(4).uniform(-0.5, 0.5, size=(9, 2))
    gram = kk.gram(kk.KernelDefinition(arch, "krein"), xs)
    step = cli._gram(arch, "krein", xs)
    eigs, diagnostics = step.eigs, step.keys
    assert step.values.tobytes() == gram.tobytes()
    assert eigs.tobytes() == np.linalg.eigvalsh(0.5 * (gram + gram.T)).tobytes()
    assert diagnostics["symmetric"] is True
    # the exact solve takes its guard from the same eigenvalues
    ys = np.tanh(xs[:, 0])
    step = cli._gram(arch, "krein", xs, ys, 0.5)
    alpha, residual = ksvm.train_squared(gram, ys, 0.5, eigs)
    assert step.alpha.tobytes() == alpha.tobytes() and step.residual == residual
    # a Gram that is not bit-symmetric is still symmetrized: eigvalsh alone
    # reads the lower triangle and would not see the moved upper entry
    moved = gram.copy()
    moved[0, 1] += 1e-3
    monkeypatch.setattr(kk, "gram", lambda defn, points: moved)
    step = cli._gram(arch, "krein", xs)
    eigs, diagnostics = step.eigs, step.keys
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
        0.5 * sum(netcore.frobenius_sq(weights)), rel=1e-12
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


def test_bounds_tight_computes_the_tight_bound_once(tmp_path, capsys, monkeypatch):
    # bound_growth and the tight section are one tight_bound's (this ran two)
    calls = []
    tight_bound = analysis.tight_bound

    def counted(*args):
        calls.append(args)
        return tight_bound(*args)

    monkeypatch.setattr(analysis, "tight_bound", counted)
    cfg = write_json(tmp_path / "cfg.json", tanh_config(tmp_path, radius=0.7, tight=True))
    assert run("bounds", cfg) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert len(calls) == 1
    assert res["bound_growth"] == res["tight"]["general"] > 0.0


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
        0.5 * sum(netcore.frobenius_sq(w)), rel=1e-12
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


def test_compare_bounds_the_weight_ball_of_the_config_reg_scale(tmp_path, capsys):
    # compare bounded the 1/depth ball of its trained weights, while train-net
    # reported the reg_scale one: ten times smaller here
    cfg_obj = tanh_config(tmp_path, n=20, reg_scale=5, train={"steps": 5})
    cfg_obj["architecture"].update(widths=[3, 1], activations=["erf", "erf"])
    cfg = write_json(tmp_path / "cfg.json", cfg_obj)
    assert run("train-net", cfg) == 0
    radius = json.loads(capsys.readouterr().out)["results"]["weight_ball_radius"]
    assert run("compare", cfg) == 0
    bounds = json.loads(capsys.readouterr().out)["results"]["bounds"]
    assert bounds["weight_ball_radius"] == radius


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


@pytest.mark.parametrize("coefficients", [[0, 1], [0.5, 2, 0]])
@pytest.mark.parametrize("command, extra", [
    ("bounds", {}),
    ("compare", {"lambda": 0.1, "train": {"steps": 5, "step_size": 0.01}}),
], ids=["bounds", "compare"])
def test_polynomial_on_an_overflowing_chain_reports_inf_not_nan(
    tmp_path, monkeypatch, capsys, coefficients, command, extra
):
    # erfi overflows on these rows, and Horner from an accumulator of zeros
    # made 0 * inf: exit 0 with "nan" in both keys and NumPy's warning
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.csv").write_text("x0,x1,y\n30,20,1\n-25,10,0\n")
    cfg_obj = {
        "architecture": {"input_dim": 2, "widths": [3, 1], "activations": [
            "erf", {"kind": "polynomial", "coefficients": coefficients}]},
        "dataset": "d.csv", "seed": 1, **extra,
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(command, write_json(tmp_path / "cfg.json", cfg_obj)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "nan" not in captured.out
    res = json.loads(captured.out)["results"]
    res = res["bounds"] if command == "compare" else res
    assert res["kernel_trace_mean"] == res["bound_kernel_trace"] == "inf"


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
    w = (np.array([[0.8], [0.6]]), np.array([[0.8, 0.6]]))
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


_BOUND_KEYS = {
    "weight_ball_radius", "svm_ball_radius", "width_gm", "lipschitz_gm", "kernel_trace_mean",
    "bound_kernel_trace", "bound_linear", "bound_growth", "empirical_estimate", "sample_size",
}
_TIGHT_KEYS = {"general", "lipschitz_form", "bounded_form", "bounded_layer"}
_PROFILE_KEYS = {
    "bridge_norm", "bridge_bound", "weight_sup", "weight_sup_bound", "epsilon_counts",
    "valid_epsilon_max",
}
_EPSILON_KEYS = {"epsilon", "count", "ceiling"}
_CONSTANT_KEYS = {"width_gm", "lipschitz_assoc_gm", "input_dim", "weight_ball_radius"}


def test_capacity_sections_are_the_dicts_analysis_returns(tmp_path, capsys):
    # analysis returns each report section as a dict: these sets are the one
    # guard against a key misspelled on either side
    arch = netcore.Architecture(2, (2, 1), (act.tanh(), act.tanh()))
    xs = np.random.default_rng(1).uniform(-0.3, 0.3, size=(10, 2))
    assert set(analysis.rademacher_bound_net(arch, 0.7, xs)) == _BOUND_KEYS
    assert set(analysis.tight_bound(arch, 0.7, xs)) == _TIGHT_KEYS
    constants = dict.fromkeys(_CONSTANT_KEYS, 1.0)
    profile = analysis.sparsity_profile(np.ones(3), np.ones(3), 2, constants, (0.1, 1e-3))
    assert set(profile) == _PROFILE_KEYS
    assert [set(row) for row in profile["epsilon_counts"]] == [_EPSILON_KEYS] * 2

    cfg = write_json(tmp_path / "bounds.json", tanh_config(tmp_path, radius=0.7, tight=True,
                                                           trials=5))
    assert run("bounds", cfg) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert set(res) == _BOUND_KEYS | {"tight"} and set(res["tight"]) == _TIGHT_KEYS
    assert res["empirical_estimate"] is not None
    assert run("compare", write_json(tmp_path / "compare.json", tanh_config(tmp_path))) == 0
    assert set(json.loads(capsys.readouterr().out)["results"]["bounds"]) == _BOUND_KEYS
    cfg_obj = {
        "architecture": {"input_dim": 1, "widths": [2, 1], "activations": ["tanh", "tanh"]},
        "truncation": 7, "weights": admissible_weights_file(tmp_path),
    }
    assert run("sparsity", write_json(tmp_path / "sparsity.json", cfg_obj)) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["results"]) == _PROFILE_KEYS
    assert [set(row) for row in report["results"]["epsilon_counts"]] == [_EPSILON_KEYS] * 3
    assert set(report["diagnostics"]["constants"]) == _CONSTANT_KEYS


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


def test_sparsity_warns_on_a_nonzero_constant_term(tmp_path, capsys):
    cfg_obj = {
        "architecture": {"input_dim": 1, "widths": [2, 1], "activations": ["logistic", "tanh"]},
        "truncation": 5,
        "weights": admissible_weights_file(tmp_path),
        "intervals": [0.5, 0.5],
    }
    assert run("sparsity", write_json(tmp_path / "cfg.json", cfg_obj)) == 0
    warnings = json.loads(capsys.readouterr().out)["warnings"]
    assert warnings == [
        "layer 0 activation has a nonzero constant term; the sparsity ceiling is not guaranteed"
    ]


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


def test_sparsity_nan_flat_metric_exits_3_naming_its_level(tmp_path, capsys):
    # a gamma of 1e200 meets an underflowed power at level 2: inf * 0 (this
    # exited 0 reporting "bridge_norm": "nan")
    cfg_obj = {
        "architecture": {"input_dim": 2, "widths": [2, 1, 1], "activations": [
            {"kind": "polynomial", "coefficients": [1e200, 1, 0, 1]},
            {"kind": "relu_surrogate", "sharpness": 1e300}, "logistic_assoc",
        ]},
        "seed": 1, "truncation": 3, "epsilons": [1e-300, 3.0], "intervals": [1.0, 0.5, 0.5],
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the error line alone: no NumPy warning first
        assert run("sparsity", write_json(tmp_path / "cfg.json", cfg_obj)) == 3
    assert capsys.readouterr().err == (
        "numerical domain failure: level 2: the flat metric holds a NaN\n"
    )


def test_sparsity_nan_flat_weight_exits_3_naming_its_layer(tmp_path, capsys):
    # (1e20)**17 overflows and meets 0**1: inf * 0 (this exited 0 reporting
    # "bridge_norm": "nan" and "weight_sup": "nan")
    path = tmp_path / "weights.txt"
    netcore.save_weights(path, (np.array([[1e20, 0.0]]),))
    cfg_obj = {
        "architecture": {"input_dim": 2, "widths": [1], "activations": ["tanh"]},
        "truncation": 17, "weights": str(path), "intervals": [0.5], "epsilons": [0.5],
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("sparsity", write_json(tmp_path / "cfg.json", cfg_obj)) == 3
    assert capsys.readouterr().err == (
        "numerical domain failure: layer 0: the flat weight holds a NaN\n"
    )


def test_sparsity_past_the_float_range_reports_inf_with_no_warning(tmp_path, capsys):
    # (1e20)**17 overflows with no zero weight to meet it: exit 0, and "inf"
    # is the documented vacuous value (this printed NumPy's overflow warning)
    path = tmp_path / "weights.txt"
    netcore.save_weights(path, (np.array([[1e20, 1e-5]]),))
    cfg_obj = {
        "architecture": {"input_dim": 2, "widths": [1], "activations": ["tanh"]},
        "truncation": 17, "weights": str(path), "intervals": [0.5], "epsilons": [0.5],
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("sparsity", write_json(tmp_path / "cfg.json", cfg_obj)) == 0
    out, err = capsys.readouterr()
    results = json.loads(out)["results"]
    assert (results["weight_sup"], results["bridge_norm"]) == ("inf", "inf")
    assert err == ""


# ---------------------------------------------------------------------------
# exit codes decided by the error's type
# ---------------------------------------------------------------------------

_MODEL_TEXT = "lambda 0.5\nvariant krein\ninput_dim 1\nwidths 1\nactivation tanh\npoints 1\n0.5\n"


@pytest.mark.parametrize("name, text, message", [
    ("config.json", '{"seed": 1,\n "truncation": oops}\n', r"not valid JSON: .*line 2"),
    ("data.csv", "x0,x1,y\n0.1,0.2,0.3\n1,2,oops\n", r"^dataset line 3: could not convert"),
    ("weights.txt", "1\n1 2\n0.5 nan\n", r"^line 3: values must be finite"),
    ("model.txt", _MODEL_TEXT + "alpha 1e400\n", r"^line 8: values must be finite"),
])
def test_every_loader_raises_input_error_on_a_bad_line(tmp_path, name, text, message):
    loaders = {
        "config.json": cli.load_config,
        "data.csv": lambda path: cli.load_dataset(path, 2),
        "weights.txt": netcore.load_weights,
        "model.txt": ksvm.load_model,
    }
    (tmp_path / name).write_text(text)
    with pytest.raises(InputError, match=message):
        loaders[name](str(tmp_path / name))


@pytest.mark.parametrize("name, data, message", [
    ("config.json", b'{"seed": "\xe9"}', r"^config is not valid JSON: .*codec can't decode"),
    ("config.json", b'{"seed": ' + b"1" * 5000 + b"}", r"^config is not valid JSON: Exceeds"),
    ("data.csv", b"x0,x1,y\n0.1,\xe9,0.3\n", r"^cannot read dataset: .*codec can't decode"),
    ("data.csv", b'x0,x1,y\n"' + b"1" * 200_000 + b'",0.2,0.3\n', r"^cannot read dataset: field"),
    ("weights.txt", b"1\n1 2\n0.5 \xe9\n", r"^not a text file: .*codec can't decode"),
    ("weights.txt", b"1" * 5000 + b"\n", r"^line 1: layer count: Exceeds"),
    ("model.txt", _MODEL_TEXT.encode() + b"alpha \xe9\n", r"^not a text file: .*codec"),
], ids=["config-latin1", "config-int-digits", "dataset-latin1", "dataset-long-field",
        "weights-latin1", "weights-int-digits", "model-latin1"])
def test_every_loader_raises_input_error_on_undecodable_or_oversized_text(
    tmp_path, name, data, message
):
    # a non-UTF-8 byte, an int past int()'s digit limit and a CSV field past the
    # csv module's size limit are plain ValueErrors (or csv.Error) unless the loader types them
    loaders = {
        "config.json": cli.load_config,
        "data.csv": lambda path: cli.load_dataset(path, 2),
        "weights.txt": netcore.load_weights,
        "model.txt": ksvm.load_model,
    }
    (tmp_path / name).write_bytes(data)
    with pytest.raises(InputError, match=message):
        loaders[name](str(tmp_path / name))


@pytest.mark.parametrize("broken", ["config", "dataset", "weights"])
def test_a_file_that_is_not_utf8_exits_2(tmp_path, capsys, broken):
    cfg_obj = tanh_config(tmp_path, weights=str(tmp_path / "weights.txt"))
    latin1 = "x0,x1,y\n0.1,caf\xe9,0.3\n" if broken == "dataset" else "1\n1 2\ncaf\xe9 1\n"
    path = tmp_path / ("data.csv" if broken == "dataset" else "weights.txt")
    path.write_bytes(latin1.encode("latin-1"))
    cfg = write_json(tmp_path / "cfg.json", cfg_obj)
    if broken == "config":
        (tmp_path / "cfg.json").write_bytes('{"seed": "caf\xe9"}'.encode("latin-1"))
    assert run("bounds", cfg) == 2
    assert re.fullmatch(r"invalid configuration: .*codec can't decode byte 0xe9.*\n",
                        capsys.readouterr().err)


def test_a_value_error_inside_a_handler_propagates(tmp_path, monkeypatch):
    # only the typed errors have exit codes: any other exception is a bug (exit 1)
    def broken(cfg, out=None):
        raise ValueError("a bug, not bad input")

    monkeypatch.setitem(cli.HANDLERS, "kernel", broken)
    cfg = write_json(tmp_path / "cfg.json", tanh_config(tmp_path))
    with pytest.raises(ValueError, match="a bug, not bad input"):
        run("kernel", cfg)


def _exp_config(tmp_path, **extra):
    cfg_obj = tanh_config(tmp_path, **extra)
    cfg_obj["architecture"]["activations"] = ["exp", "linear"]
    return write_json(tmp_path / "cfg.json", cfg_obj)


_NO_GLOBAL_CONSTANT = (
    "some activation has no global Lipschitz constant; the kernel-trace bound is unavailable"
)


def test_bounds_on_an_exp_net_exits_2_naming_the_missing_constant(tmp_path, capsys):
    assert run("bounds", _exp_config(tmp_path)) == 2
    assert capsys.readouterr().err == f"invalid configuration: {_NO_GLOBAL_CONSTANT}\n"


def test_compare_on_an_exp_net_warns_that_its_bounds_are_unavailable(tmp_path, capsys):
    assert run("compare", _exp_config(tmp_path, train={"steps": 5})) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["bounds"] is None
    assert report["warnings"] == [f"bounds unavailable: {_NO_GLOBAL_CONSTANT}"]


def test_sparsity_intervals_of_the_wrong_length_exit_2(tmp_path, capsys):
    cfg_obj = {
        "architecture": {"input_dim": 1, "widths": [2, 1], "activations": ["tanh", "tanh"]},
        "truncation": 3,
        "weights": admissible_weights_file(tmp_path),
        "intervals": [0.5],
    }
    assert run("sparsity", write_json(tmp_path / "cfg.json", cfg_obj)) == 2
    assert capsys.readouterr().err == "invalid configuration: need one interval per layer\n"


def test_an_overflowing_weight_ball_radius_exits_3_with_trials(tmp_path, capsys):
    # ||W||_F^2 of a 1e200 entry overflows: the bounds report "inf", but the
    # Monte-Carlo estimate has no ball to draw in (this exited 2)
    path = tmp_path / "weights.txt"
    netcore.save_weights(path, (np.array([[1e200, 0.0], [0.0, 1.0]]), np.array([[1.0, 1.0]])))
    cfg_obj = tanh_config(tmp_path, weights=str(path))
    cfg_obj["architecture"]["activations"] = ["linear", "linear"]
    assert run("bounds", write_json(tmp_path / "cfg.json", cfg_obj)) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["weight_ball_radius"] == results["bound_kernel_trace"] == "inf"
    cfg_obj["trials"] = 3
    assert run("bounds", write_json(tmp_path / "cfg.json", cfg_obj)) == 3
    assert capsys.readouterr().err == (
        "numerical domain failure: the weight-ball radius overflowed to inf\n"
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
