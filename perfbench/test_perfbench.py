"""Checks of the benchmark itself: failure accounting, tracing, BENCHMARK.json.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from kreinflat import cli  # noqa: E402

TANH_TOWER = {"input_dim": 2, "widths": [2, 2, 1], "activations": ["tanh"] * 3}
ERF_SHALLOW = {"input_dim": 4, "widths": [8, 1], "activations": ["erf"] * 2}


def _op(workdir, name, command, config, check=lambda report: None):
    with open(os.path.join(workdir, f"{name}.config.json"), "w") as fh:
        json.dump(config, fh)
    return workloads.Op(name, command, config, True, check)


def _small_dataset(workdir, seed):
    xs = np.random.default_rng(seed).normal(size=(6, 4))
    workloads.write_csv(os.path.join(workdir, "small.csv"), xs, np.tanh(xs[:, 0]))


def test_every_failure_kind_is_counted(tmp_path):
    workdir = str(tmp_path)
    _small_dataset(workdir, 0)
    kernel = _op(workdir, "kernel", "kernel", {"architecture": ERF_SHALLOW, "dataset": "small.csv"})
    ops = [
        (kernel, None),
        # no architecture section: configuration error
        (_op(workdir, "bad_config", "flatten", {"truncation": 3}), "exit 2"),
        # default intervals of a default-init tanh net leave the tan domain
        (_op(workdir, "tan_domain", "sparsity", {"architecture": TANH_TOWER, "truncation": 3}),
         "exit 3"),
        # known defect: lipschitz_on raises OverflowError from math.exp
        # instead of a domain error (exit 3)
        (_op(workdir, "erf_overflow", "sparsity", {"architecture": ERF_SHALLOW, "truncation": 3}),
         "uncaught exception: OverflowError"),
    ]
    ledger = harness.Ledger()
    for op, _ in ops:
        ledger.record(op, harness.run_op(cli, op, workdir))
    _small_dataset(workdir, 1)  # same command, different input: bytes change
    ledger.record(kernel, harness.run_op(cli, kernel, workdir))

    reasons = [r.failure for r in ledger.results]
    assert reasons[0] is None
    for (_, expected), got in zip(ops[1:], reasons[1:4]):
        assert got is not None and got.startswith(expected), got
    assert reasons[4].startswith("output bytes differ from the first pass")
    assert (ledger.attempted, ledger.failed) == (5, 4)


def test_identity_failures_are_counted(tmp_path):
    workdir = str(tmp_path)
    _small_dataset(workdir, 0)
    op = _op(workdir, "kernel", "kernel", {"architecture": ERF_SHALLOW, "dataset": "small.csv"},
             check=lambda report: "broken identity")
    ledger = harness.Ledger()
    assert ledger.record(op, harness.run_op(cli, op, workdir)).failure == "broken identity"


def test_overlong_op_is_killed_and_counted(tmp_path, monkeypatch):
    workdir = str(tmp_path)
    _small_dataset(workdir, 0)
    monkeypatch.setattr(harness, "OP_TIMEOUT_S", 1)
    op = _op(workdir, "slow", "bounds", {"architecture": ERF_SHALLOW, "dataset": "small.csv",
                                         "trials": 10**6})
    ledger = harness.Ledger()
    result = ledger.record(op, harness.run_op(cli, op, workdir))
    assert result.failure == "killed by signal 9"
    assert result.wall_s < 10


def test_bounds_identity_skips_infinite_bounds():
    bounds = {"empirical_estimate": 0.5, "bound_kernel_trace": "inf", "bound_growth": 0.6}
    assert workloads._bounds_violation(bounds) is None
    bounds["bound_growth"] = 0.4
    assert "bound_growth" in workloads._bounds_violation(bounds)
    assert "tight.general" in workloads._bounds_violation(
        {"empirical_estimate": 0.5}, {"general": 0.1, "bounded_layer": 2})


def test_traced_op_counts_calls_and_keeps_report_bytes(tmp_path):
    workdir = str(tmp_path)
    _small_dataset(workdir, 0)
    op = _op(workdir, "kernel", "kernel", {"architecture": ERF_SHALLOW, "dataset": "small.csv"})
    plain = harness.run_op(cli, op, workdir)
    traced = harness.run_op(cli, op, workdir, os.path.join(workdir, "t.json"), op_id=7)
    assert plain.exit_code == traced.exit_code == 0
    assert traced.digests == plain.digests
    fns, counters = traced.trace["functions"], traced.trace["counters"]
    assert traced.trace["op_id"] == 7
    assert fns["kreinkernel.gram"]["calls"] == 1
    assert fns["kreinkernel.kernel_value"]["calls"] == 6 * 7 // 2
    assert fns["cli.handler"]["calls"] == 1
    assert counters["gram_entries"] == 36
    assert sum(v["calls"] for k, v in fns.items() if k.startswith("pushforward.")) == 0
    assert all(v["self_ms"] >= 0.0 for v in fns.values())


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == workloads.why(w["name"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
