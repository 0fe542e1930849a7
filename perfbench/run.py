#!/usr/bin/env python3
"""Benchmark of the kreinflat CLI.

    python3 perfbench/run.py --workload {tower,gram,fit-bound} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root (the package is imported from ``src/``).  The
parent imports ``kreinflat.cli`` once and sets up three times: inputs
generated from the seed into a fresh directory, then one untimed warm-up op
per command (setup_s is the import plus the median setup).  It then runs
passes over the workload's command list for S seconds.  Each op is one forked
child running ``cli.main``, so every op pays what one CLI invocation pays,
with cold program caches.  Every op, warm-up included, is judged (exit code,
uncaught exception, output bytes equal to the first pass's, command
identities); see harness.py and workloads.py.

Output: one detail line (JSON: provenance, per-command medians under their
command names, report digests, failures), then the result line.  With
``--trace 0`` the result carries the end-to-end metrics; the slots op1_ms,
op2_ms, op3_ms are the median op times of the workload's commands in pass
order:

    tower      flatten --out | sparsity | flatten (report on stdout, no dumps)
    gram       kernel --out  | train-ksvm eig --out | train-ksvm gd --out
    fit-bound  train-net --out | compare --out | bounds (tight, Monte-Carlo)

With ``--trace 1`` passes alternate untraced and traced; traced ops wrap the
public functions of every module (tracer.py) and the result carries the
per-layer metrics: per command the median over its traced ops, summed over
the commands of a pass.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

# One BLAS thread: with one busy child at a time the benchmark then never has
# more threads running than cores.  Must be set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

SETUP_REPEATS = 3
IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import kreinflat.cli; print(time.perf_counter() - t)"
)

SLOTS = ("op1_ms", "op2_ms", "op3_ms")
END_TO_END = {"setup_s": "s", "import_ms": "ms", "pass_s": "s", "peak_rss_mb": "MB",
              **{slot: "ms" for slot in SLOTS}}

# Per-layer metrics: self time and/or call count of wrapped functions, then
# counters.  PER_LAYER lists (name, unit, better) in BENCHMARK.json order.
_FUNCTION_METRICS = (
    ("pushforward.flat_space", ("self_ms", "calls")),
    ("pushforward.level_counts", ("self_ms",)),
    ("pushforward.flatten_feature_map", ("self_ms", "calls")),
    ("pushforward.flat_eval", ("self_ms",)),
    ("pushforward.flatten_metric", ("self_ms",)),
    ("pushforward.pushforward_weights", ("self_ms",)),
    ("pushforward.flat_weight", ("self_ms",)),
    ("pushforward.dump_series", ("self_ms",)),
    ("activations.evaluate", ("self_ms", "calls")),
    ("activations.evaluate_array", ("self_ms", "calls")),
    ("activations.derivative_array", ("self_ms", "calls")),
    ("activations.lipschitz_on", ("self_ms",)),
    ("activations.taylor_coefficient", ("calls",)),
    ("kreinkernel.gram", ("self_ms",)),
    ("kreinkernel.kernel_value", ("self_ms", "calls")),
    ("kreinkernel.associated_kernel", ("self_ms", "calls")),
    ("ksvm.train_squared", ("self_ms",)),
    ("ksvm.save_model", ("self_ms",)),
    ("ksvm.train_gd", ("self_ms",)),
    ("ksvm.objective_gradient", ("self_ms", "calls")),
    ("ksvm.stabilized_objective", ("self_ms", "calls")),
    ("netcore.train", ("self_ms",)),
    ("netcore.gradient", ("self_ms", "calls")),
    ("netcore.objective", ("self_ms", "calls")),
    ("netcore.save_weights", ("self_ms",)),
    ("netcore.forward", ("self_ms", "calls")),
    ("netcore.forward_batch", ("self_ms", "calls")),
    ("analysis.empirical_rademacher", ("self_ms",)),
    ("analysis.rademacher_bound_net", ("self_ms",)),
    ("analysis.tight_bound", ("self_ms",)),
    ("analysis.weight_ball_radius", ("calls",)),
    ("analysis.sparsity_profile", ("self_ms",)),
    ("cli.handler", ("self_ms",)),
    ("cli.load_dataset", ("self_ms",)),
    ("cli.render_report", ("self_ms",)),
    ("cli.write_text", ("self_ms",)),
)
_COUNTER_METRICS = (
    ("pushforward.tower_entries", "count", "lower"),
    ("pushforward.flat_space.hit_ratio", "ratio", "higher"),
    ("pushforward.dump_bytes", "bytes", "lower"),
    ("kreinkernel.gram_entries", "count", "lower"),
    ("analysis.mc_accept_ratio", "ratio", "higher"),
    ("cli.bytes_written", "bytes", "lower"),
    ("trace_overhead", "ratio", "lower"),
)
PER_LAYER = tuple(
    (f"{fn}.{kind}", "ms" if kind == "self_ms" else "count", "lower")
    for fn, kinds in _FUNCTION_METRICS
    for kind in kinds
) + _COUNTER_METRICS


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _git_commit():
    """HEAD of the checkout, or None when it is not a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance():
    import numpy
    import platform
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
    }


def import_ms_sample():
    """Wall time of ``import kreinflat.cli`` in a fresh interpreter, in ms."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE.format(src=SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return 1e3 * float(proc.stdout.strip().splitlines()[-1])


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _op_layer_values(result):
    """Raw per-layer quantities of one traced op."""
    values = {
        f"{fn}.{kind}": result.trace["functions"][fn][kind]
        for fn, kinds in _FUNCTION_METRICS
        for kind in kinds
    }
    values.update(result.trace["counters"])
    values["dump_bytes"] = _dump_bytes(result)
    values["bytes_written"] = sum(result.sizes.values())
    return values


def layer_metrics(wl, passes, results):
    """Per-layer metrics from the traced ops: per command the median over its
    traced ops, summed over the commands of a pass."""
    medians = []
    for op in wl.ops:
        rows = [_op_layer_values(r) for r in results if r.trace is not None and r.name == op.name]
        if rows:
            medians.append({k: _median([row[k] for row in rows]) for k in rows[0]})

    def total(key):
        return sum(m[key] for m in medians)

    out = {f"{fn}.{kind}": total(f"{fn}.{kind}") for fn, kinds in _FUNCTION_METRICS for kind in kinds}
    out["pushforward.tower_entries"] = total("tower_entries")
    out["kreinkernel.gram_entries"] = total("gram_entries")
    out["pushforward.dump_bytes"] = total("dump_bytes")
    out["cli.bytes_written"] = total("bytes_written")
    calls = total("pushforward.flat_space.calls")
    out["pushforward.flat_space.hit_ratio"] = total("flat_space_hits") / calls if calls else 0.0
    wbr = total("mc_weight_ball_radius_calls")
    out["analysis.mc_accept_ratio"] = total("mc_draws_requested") / wbr if wbr else 0.0
    plain = _median([p["pass_s"] for p in passes if not p["traced"]])
    traced = _median([p["pass_s"] for p in passes if p["traced"]])
    out["trace_overhead"] = traced / plain if plain else 0.0
    return out


def _dump_bytes(result):
    try:
        files = json.loads(result.report)["results"].get("dump_files") or {}
    except (TypeError, ValueError, KeyError):
        return 0
    return sum(result.sizes.get(name, 0) for name in files.values())


def zero_predictions(wl, results):
    """Structural predictions of the workloads, checked on every traced op."""
    traced = [r for r in results if r.trace is not None]
    broken = []
    if wl.name in ("gram", "fit-bound"):
        calls = sum(v["calls"] for r in traced for k, v in r.trace["functions"].items()
                    if k.startswith("pushforward."))
        if calls:
            broken.append(f"{calls} pushforward calls on {wl.name}")
    if wl.name == "tower":
        calls = sum(r.trace["functions"]["kreinkernel.gram"]["calls"] for r in traced)
        if calls:
            broken.append(f"{calls} kreinkernel.gram calls on tower")
    return broken


def _setup(cli, workload, seed, workdir, ledger):
    """Generate the inputs into a fresh workdir and run one warm-up op per
    command (judged like every op; the first successful one of each command
    fixes the reference bytes).  Returns the Workload."""
    import harness
    import workloads

    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.join(workdir, "trace"))
    wl = workloads.generate(workload, seed, workdir)
    for op in wl.ops:
        ledger.record(op, harness.run_op(cli, op, workdir))
    return wl


def _measure(cli, wl, workdir, ledger, seconds, trace):
    """Closed loop of passes until the next one would overrun ``seconds``.

    Untraced runs take one fresh-interpreter import sample after each pass,
    so the samples spread over the whole window.  Traced runs alternate
    untraced and traced passes.  Returns (passes, import samples in ms).
    """
    import harness

    deadline = time.perf_counter() + seconds
    passes, import_ms, op_id = [], [], len(ledger.results)
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        same = [p["round_s"] for p in passes if p["traced"] == traced]
        enough = len(passes) >= (2 if trace else 1)
        if enough and time.perf_counter() + (same[-1] if same else 0.0) > deadline:
            break
        t_round = time.perf_counter()
        pass_s = 0.0
        for op in wl.ops:
            op_id += 1
            path = os.path.join(workdir, "trace", f"{op_id}.json") if traced else None
            result = ledger.record(op, harness.run_op(cli, op, workdir, path, op_id))
            pass_s += result.wall_s
        if not trace:
            import_ms.append(import_ms_sample())
        passes.append({"traced": traced, "pass_s": pass_s,
                       "round_s": time.perf_counter() - t_round})
    return passes, import_ms


def run(workload, seed, seconds, trace):
    if not os.path.isfile(os.path.join(SRC, "kreinflat", "cli.py")):
        return _fail(f"no kreinflat sources under {SRC}; run from the repository root")
    sys.path.insert(0, SRC)
    t_import = time.perf_counter()
    from kreinflat import cli

    parent_import_s = time.perf_counter() - t_import
    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "kreinflat"):
        return _fail(f"imported kreinflat from {cli.__file__}, not from {SRC}")
    import harness

    base = os.path.join(WORK, f"{workload}-{os.getpid()}")
    ledger = harness.Ledger()
    try:
        setup_times = []
        for i in range(SETUP_REPEATS):
            t = time.perf_counter()
            wl = _setup(cli, workload, seed, f"{base}-{i}", ledger)
            setup_times.append(time.perf_counter() - t)
            if i:
                shutil.rmtree(f"{base}-{i - 1}", ignore_errors=True)
        workdir = f"{base}-{SETUP_REPEATS - 1}"
        warm_ops = len(ledger.results)
        t_measure = time.perf_counter()
        passes, import_ms = _measure(cli, wl, workdir, ledger, seconds, trace)
        measured_s = time.perf_counter() - t_measure

        measured = ledger.results[warm_ops:]
        plain = [r for r in measured if r.trace is None]
        broken = zero_predictions(wl, measured) if trace else []
        per_cmd = {}
        for slot, op in zip(SLOTS, wl.ops):
            walls = [r.wall_s * 1e3 for r in plain if r.name == op.name]
            p, v = harness.high_percentile(walls)
            per_cmd[op.name] = {
                "slot": slot,
                "argv": harness.op_argv("<work>", op),
                "value": _median(walls),
                "unit": "ms",
                "high_percentile": p,
                "high_percentile_value": v,
                "samples": len(walls),
                "samples_ms": walls,
            }
        e2e = {
            "setup_s": parent_import_s + _median(setup_times),
            "import_ms": _median(import_ms),
            "pass_s": _median([p["pass_s"] for p in passes if not p["traced"]]),
            "peak_rss_mb": max(r.rss_kb for r in ledger.results) / 1024.0,
        }
        for slot, op in zip(SLOTS, wl.ops):
            e2e[slot] = per_cmd[op.name]["value"]
        detail = {
            "workload": workload,
            "why": wl.why,
            "seed": seed,
            "seconds": seconds,
            "measured_s": measured_s,
            "trace": trace,
            "loop": "closed, one client",
            "provenance": provenance(),
            "setup": {"parent_import_s": parent_import_s, "repeats_s": setup_times},
            "passes": len(passes),
            "import_ms_samples": import_ms,
            "metrics": {
                **{k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items() if k not in SLOTS},
                **{f"{name}_ms": c for name, c in per_cmd.items()},
                "failed_ops": {"value": ledger.failed / ledger.attempted, "unit": "ratio"},
            },
            "failures": ledger.failures(),
            "zero_predictions_broken": broken,
            "digests": ledger.reference,
        }
        if trace:
            layer = layer_metrics(wl, passes, measured)
            metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _ in PER_LAYER}
        else:
            metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
        print(json.dumps(detail, sort_keys=True))
        print(json.dumps({
            "correct": ledger.failed == 0 and not broken,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        for i in range(SETUP_REPEATS):
            shutil.rmtree(f"{base}-{i}", ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("tower", "gram", "fit-bound"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        return _fail("--seed must be nonnegative")
    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
