"""Fork-per-op runner and failure accounting.

The parent imports ``kreinflat.cli`` once.  Each op forks a child that runs
``cli.main(argv)`` with cold program caches and exits; the parent takes wall
time, exit status and peak RSS from ``os.wait4``.  At most one child runs at
a time.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

import tracer

EXIT_UNCAUGHT = 1
OP_TIMEOUT_S = 60  # a child still running after this is killed and counted failed


@dataclass
class OpResult:
    name: str
    wall_s: float
    rss_kb: int
    exit_code: int
    digests: dict  # file name -> sha256 of every output file in the op's directory
    sizes: dict  # file name -> bytes
    report: Optional[bytes]
    stderr: str
    failure: Optional[str] = None
    trace: Optional[dict] = None


def op_dir(workdir, op):
    return os.path.join(workdir, "ops", op.name)


def op_argv(workdir, op):
    argv = [op.command, "--config", os.path.join(workdir, f"{op.name}.config.json")]
    if op.write_out:
        argv += ["--out", os.path.join(op_dir(workdir, op), "report.json")]
    return argv


def _child(cli, argv, cwd, out_dir, trace_path, op_id):
    """Body of the forked child; never returns."""
    code = EXIT_UNCAUGHT
    try:
        os.chdir(cwd)
        for fd, name in ((1, "stdout"), (2, "stderr")):
            target = os.open(os.path.join(out_dir, name), os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
            os.dup2(target, fd)
            os.close(target)
        # Rebind the text streams too, in case they were not on fds 1 and 2
        # (a test runner capturing output replaces them).
        sys.stdout = open(1, "w", closefd=False)
        sys.stderr = open(2, "w", closefd=False)
        recorder = tracer.install(op_id) if trace_path is not None else None
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv with exit 2
            code = exc.code if isinstance(exc.code, int) else 2
        if recorder is not None:
            recorder.write(trace_path)
    except BaseException:
        traceback.print_exc()
        code = EXIT_UNCAUGHT
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def _digest_dir(path):
    """(sha256, size) per output file: the report, its sidecars, captured stdout."""
    digests, sizes = {}, {}
    for name in sorted(os.listdir(path)):
        if name == "stderr":
            continue
        h = hashlib.sha256()
        with open(os.path.join(path, name), "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        digests[name] = h.hexdigest()
        sizes[name] = os.path.getsize(os.path.join(path, name))
    return digests, sizes


def run_op(cli, op, workdir, trace_path=None, op_id=0):
    """Fork one child running the op; return its OpResult (not yet judged)."""
    out_dir = op_dir(workdir, op)
    os.makedirs(out_dir, exist_ok=True)
    argv = op_argv(workdir, op)
    sys.stdout.flush()
    sys.stderr.flush()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        _child(cli, argv, workdir, out_dir, trace_path, op_id)
    previous = signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(OP_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    report_path = os.path.join(out_dir, "report.json" if op.write_out else "stdout")
    report = None
    if os.path.exists(report_path):
        with open(report_path, "rb") as fh:
            report = fh.read()
    with open(os.path.join(out_dir, "stderr")) as fh:
        stderr = fh.read()
    trace = None
    if trace_path is not None and os.path.exists(trace_path):
        with open(trace_path) as fh:
            trace = json.load(fh)
        os.remove(trace_path)
    digests, sizes = _digest_dir(out_dir)
    return OpResult(op.name, wall, usage.ru_maxrss, code, digests, sizes, report, stderr,
                    trace=trace)


def judge(op, result, reference):
    """Failure reason for one op, or None.

    A failure is a kill (timeout or signal), a non-zero exit, an uncaught
    exception (exit 1 with a traceback), output bytes that differ from the
    reference digests taken from the first successful op of the same
    command, or a broken identity.
    """
    if result.exit_code < 0:
        return f"killed by signal {-result.exit_code}"
    if result.exit_code != 0:
        if result.exit_code == EXIT_UNCAUGHT and "Traceback" in result.stderr:
            last = result.stderr.strip().splitlines()[-1]
            return f"uncaught exception: {last}"
        return f"exit {result.exit_code}"
    if result.report is None:
        return "no report written"
    if reference is not None and result.digests != reference:
        changed = sorted(k for k in set(result.digests) | set(reference)
                         if result.digests.get(k) != reference.get(k))
        return f"output bytes differ from the first pass: {', '.join(changed)}"
    try:
        report = json.loads(result.report)
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    try:
        return op.check(report)
    except (KeyError, TypeError, AttributeError) as exc:
        return f"report lacks a checked field: {exc!r}"


@dataclass
class Ledger:
    """Judged op results of one run, and the reference digests per command."""

    results: list = field(default_factory=list)
    reference: dict = field(default_factory=dict)

    def record(self, op, result):
        result.failure = judge(op, result, self.reference.get(op.name))
        if result.failure is None and op.name not in self.reference:
            self.reference[op.name] = result.digests
        self.results.append(result)
        return result

    @property
    def attempted(self):
        return len(self.results)

    @property
    def failed(self):
        return sum(1 for r in self.results if r.failure is not None)

    def failures(self):
        return [f"{r.name}: {r.failure}" for r in self.results if r.failure is not None]


def high_percentile(samples):
    """(percentile, value) for the highest of a fixed ladder that has at least
    ten samples beyond it, or (None, None) when there are fewer than 20."""
    xs = sorted(samples)
    n = len(xs)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            k = min(n - 1, max(0, int(round(p / 100.0 * (n - 1)))))
            return p, xs[k]
    return None, None
