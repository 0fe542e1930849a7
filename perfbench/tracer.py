"""Spans around the public functions of each kreinflat module.

Installed only inside a forked child, so the parent and untraced ops never
see the wrappers.  Every call of a wrapped function records a span (name,
start, end, parent) in compact arrays; the op id is the child's.  When the
op ends the child reduces its spans to per-name self time and call counts,
adds the counters read from public sources, and writes one JSON file.

A span's self time is its duration minus the durations of its child spans.
Calls are strictly nested on one thread, so children never overlap.
"""

from __future__ import annotations

import json
import time
from array import array

# (module, attribute) pairs wrapped in place.  Intra-package calls go through
# module attributes (``pf.flat_space``, ``act.evaluate`` or a module global),
# so patching the attribute catches callers inside the package too.
WRAPPED = {
    "pushforward": (
        "flat_space", "level_counts", "flatten_feature_map", "flat_eval",
        "flatten_metric", "pushforward_weights", "flat_weight", "dump_series",
    ),
    "activations": (
        "evaluate", "evaluate_array", "derivative_array", "lipschitz_on",
        "taylor_coefficient",
    ),
    "kreinkernel": ("gram", "kernel_value", "associated_kernel"),
    "ksvm": (
        "train_squared", "save_model", "train_gd", "objective_gradient",
        "stabilized_objective",
    ),
    "netcore": ("train", "gradient", "objective", "save_weights", "forward", "forward_batch"),
    "analysis": (
        "empirical_rademacher", "rademacher_bound_net", "tight_bound",
        "weight_ball_radius", "sparsity_profile",
    ),
    "cli": ("load_dataset", "render_report", "write_text"),
}
HANDLER = "cli.handler"  # every entry of cli.HANDLERS


class Recorder:
    """Spans of one op (span id = index into the arrays) and its counters."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.names = []
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.towers = set()  # distinct (arch, truncation) passed to flat_space
        self.gram_entries = 0
        self.draws_requested = 0

    def _index(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, after=None):
        """fn wrapped so each call records a span under ``name``."""
        ix = self._index(name)
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_ix.append(ix)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(clock())
            self.end.append(0.0)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def summary(self):
        """Per-name {self_ms, calls} plus the counters, as a dict."""
        n = len(self.start)
        covered = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                covered[p] += self.end[sid] - self.start[sid]
        self_ms = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for sid in range(n):
            ix = self.name_ix[sid]
            self_ms[ix] += 1e3 * (self.end[sid] - self.start[sid] - covered[sid])
            calls[ix] += 1
        wbr_in_mc = self._count_inside("analysis.weight_ball_radius", "analysis.empirical_rademacher")
        return {
            "op_id": self.op_id,
            "spans": n,
            "functions": {
                name: {"self_ms": self_ms[i], "calls": calls[i]} for i, name in enumerate(self.names)
            },
            "counters": {
                "tower_entries": self._tower_entries(),
                "flat_space_hits": self._flat_space_hits(),
                "gram_entries": self.gram_entries,
                "mc_draws_requested": self.draws_requested,
                "mc_weight_ball_radius_calls": wbr_in_mc,
            },
        }

    def _count_inside(self, name, ancestor):
        try:
            ix, anc = self.names.index(name), self.names.index(ancestor)
        except ValueError:
            return 0
        count = 0
        for sid in range(len(self.start)):
            if self.name_ix[sid] != ix:
                continue
            p = self.parent[sid]
            while p >= 0 and self.name_ix[p] != anc:
                p = self.parent[p]
            count += p >= 0
        return count

    def _tower_entries(self):
        from kreinflat import pushforward as pf

        level_counts = getattr(pf.level_counts, "__wrapped__", pf.level_counts)
        return sum(level_counts(arch, t)[-1] for arch, t in self.towers)

    @staticmethod
    def _flat_space_hits():
        from kreinflat import pushforward as pf

        return getattr(pf.flat_space, "__wrapped__", pf.flat_space).cache_info().hits

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.summary(), fh)


def install(op_id):
    """Wrap every function in WRAPPED and every cli handler; return the Recorder."""
    import importlib

    rec = Recorder(op_id)

    def note_tower(result, arch, *args, **kwargs):
        rec.towers.add((arch, int(args[0] if args else kwargs["truncation"])))

    def note_gram(result, *args, **kwargs):
        rec.gram_entries += int(result.size)

    def note_draws(result, *args, **kwargs):
        rec.draws_requested += int(kwargs.get("hypothesis_draws", 200))

    after = {
        "pushforward.flat_space": note_tower,
        "kreinkernel.gram": note_gram,
        "analysis.empirical_rademacher": note_draws,
    }
    for module_name, attrs in WRAPPED.items():
        module = importlib.import_module(f"kreinflat.{module_name}")
        for attr in attrs:
            name = f"{module_name}.{attr}"
            setattr(module, attr, rec.wrap(name, getattr(module, attr), after.get(name)))
    cli = importlib.import_module("kreinflat.cli")
    for command, fn in list(cli.HANDLERS.items()):
        cli.HANDLERS[command] = rec.wrap(HANDLER, fn)
    return rec
