"""Closed-loop pass runner.

A workload is a list of ops, called a pass.  One client runs the ops of
a pass one after another, each starting when the previous one has
returned, and a run repeats whole passes, so the op mix never depends
on how fast the code is.  Every op result is checked right after it
returns; an op is never filtered or retried.
"""

import gc
import itertools
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from dblinst.errors import DblinstError


@dataclass
class Op:
    """One timed call into the library.

    ``run`` takes no arguments and returns the result; ``check`` returns
    None when the result matches the expected answer and a one-line cause
    otherwise.  An op with ``expect_error`` passes only when ``run`` raises
    that typed error.  ``shape`` records the sizes that set the work."""
    kind: str
    shape: dict
    run: Callable[[], object]
    check: Callable[[object], Optional[str]] = lambda result: None
    expect_error: Optional[type] = None


def expect(what, got, want):
    """None when ``got == want``, else the cause of a wrong answer."""
    return None if got == want else "{}: got {}, expected {}".format(
        what, got, want)


def execute(op):
    """Run one op; returns (latency in seconds, failure cause or None)."""
    start = time.perf_counter()
    try:
        result = op.run()
    except DblinstError as exc:
        latency = time.perf_counter() - start
        if op.expect_error is not None and isinstance(exc, op.expect_error):
            return latency, None
        return latency, "unexpected {}: {}".format(type(exc).__name__, exc)
    except Exception as exc:  # a crash in the library is a failed op
        return (time.perf_counter() - start,
                "unexpected {}: {}".format(type(exc).__name__, exc))
    latency = time.perf_counter() - start
    if op.expect_error is not None:
        return latency, "expected {}, got a result".format(
            op.expect_error.__name__)
    try:
        return latency, op.check(result)
    except Exception as exc:  # a malformed result can break the check
        return latency, "check raised {}: {}".format(type(exc).__name__, exc)


@dataclass(eq=False)
class PassRecord:
    traced: bool
    wall_s: float
    latencies: list


@dataclass
class RunRecord:
    ops: list
    passes: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)     # (kind, cause) -> count
    probe_failures: dict = field(default_factory=dict)

    def attempted(self):
        return sum(len(p.latencies) for p in self.passes)

    def failed(self):
        return sum(self.failures.values())


def run_pass(ops, record, probes=(), tracer=None):
    """Run every op of a pass once and append a PassRecord.

    A full collection and the probes of known defects run before the
    pass clock starts, so every pass starts from the same heap; probe
    outcomes are kept apart from the op counts."""
    gc.collect()
    for i, probe in enumerate(probes):
        if tracer is not None:
            tracer.start_op(-1 - i)
        _, cause = execute(probe)
        if cause is not None:
            key = (probe.kind, cause)
            record.probe_failures[key] = record.probe_failures.get(key, 0) + 1
    latencies = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.start_op(i)
        latency, cause = execute(op)
        if tracer is not None:
            tracer.end_op(latency)
        latencies.append(latency)
        if cause is not None:
            key = (op.kind, cause)
            record.failures[key] = record.failures.get(key, 0) + 1
    wall = time.perf_counter() - start
    record.passes.append(PassRecord(tracer is not None, wall, latencies))


def run(ops, seconds, min_ops, probes=(), tracer=None, breaks=()):
    """Repeat whole passes until at least ``seconds`` have passed and at
    least ``min_ops`` ops ran.  With a tracer, passes alternate between
    untraced and traced, so both halves see the same machine state.

    Successive passes (or pairs of passes) run pinned to each of the
    process's CPUs in turn: on a shared host one CPU can be slowed by
    its neighbours while another is not.

    ``breaks`` are (second, callable) pairs: each callable runs once,
    between two passes, as soon as the run is that many seconds old, so
    its time lies outside every pass."""
    record = RunRecord(ops)
    pending = sorted(breaks, key=lambda b: b[0])
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    try:
        for k in itertools.count():
            while pending and time.perf_counter() - start >= pending[0][0]:
                pending.pop(0)[1]()
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
            run_pass(ops, record, probes)
            if tracer is not None:
                with tracer:
                    run_pass(ops, record, probes, tracer)
            if time.perf_counter() - start >= seconds and \
                    record.attempted() >= min_ops:
                break
    finally:
        os.sched_setaffinity(0, cpus)
    for _, call in pending:
        call()
    return record


def first_of_each_kind(ops):
    """The first (smallest) op of every kind, in pass order."""
    seen, out = set(), []
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            out.append(op)
    return out


def op_latencies(passes):
    """Each op's latency: the mean of its latencies over the passes.

    On a shared host the speed changes by 1.4x to 1.8x for seconds to
    minutes at a time.  The mean over a run reads the share of the run
    the host spent slow, which varies smoothly between runs; the least
    or the median latency of an op reads whether the run caught a fast
    spell at all, which varied more (README.md gives the figures)."""
    return [statistics.fmean(ts) for ts in zip(*(p.latencies for p in passes))]


def percentile(values, q):
    """The q-th percentile (0 < q < 100), interpolated between ranks."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[q - 1]
