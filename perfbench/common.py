"""Shared pieces of the benchmark: run context, timing statistics,
spans, known-answer joins and memory readings.

Everything here runs inside a workload child process (see
``child.py``), except :class:`SpeedSampler`, which ``run.py`` also
uses; nothing here imports the checker at module level.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

#: p95 needs at least ten samples beyond it.
MIN_OPS = 200


@dataclass
class Context:
    """Arguments one workload child runs with."""

    seed: int
    seconds: float
    trace: bool
    workdir: Path
    #: Where a traced run writes its spans (Chrome trace-event JSON).
    trace_file: Path
    tiny: bool = False

    @property
    def min_ops(self) -> int:
        return 1 if self.tiny else MIN_OPS


@dataclass
class Outcome:
    """What a workload measured: op counts, the known-answer verdict,
    and metrics by name as ``(value, unit)`` pairs."""

    attempted: int = 0
    failed: int = 0
    #: Sites eliminated / sites the known answer says are eliminable.
    eliminated: int = 0
    eliminable: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        """Record one failed op (a wrong verdict, output or status)."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def latency_metrics(out: Outcome, samples_s: list[float],
                    window_s: float) -> None:
    """The timing end-to-end metrics from per-op wall times that are
    already scaled to the reference speed (see :class:`Speed`)."""
    ms = sorted(s * 1000.0 for s in samples_s)
    out.put("ops_per_s", len(ms) / window_s, "1/s")
    out.put("latency_ms_p50", statistics.median(ms), "ms")
    out.put("latency_ms_p95", quantile(ms, 0.95), "ms")


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

#: What :func:`kernel` takes, in ms, at the reference speed (about its
#: median on a 2-CPU x86 box under CPython 3.11).
NOMINAL_KERNEL_MS = 2.0


def kernel() -> int:
    """A fixed slice of interpreter work — dict updates, tuple
    allocation, sorting and recursion, like the checker's own — that
    no change to the checker can speed up or slow down."""
    counts: dict[tuple[int, int], int] = {}
    for i in range(1500):
        key = ((i * 7919) % 1009, i & 7)
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(((v, k) for k, v in counts.items()), reverse=True)

    def fib(n: int) -> int:
        return n if n < 2 else fib(n - 1) + fib(n - 2)

    return len(ranked) + fib(12)


class Speed:
    """Machine-speed calibration of timed work.

    On a shared box the interpreter's speed drifts by 20% and more
    over seconds, which moves every timing of a run together.  Each
    stretch of ops is scaled by ``NOMINAL_KERNEL_MS / kernel time``, so
    the timing metrics read as ms at the reference speed; the raw
    figures are reported beside them.  The kernel time comes either
    from runs of :func:`kernel` right before and after the stretch, in
    this process (:meth:`stretch`), or from a :class:`SpeedSampler`
    timing it alongside work that runs in other processes (:meth:`add`).
    """

    def __init__(self) -> None:
        self.kernel_ms: list[float] = []
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.raw_window = 0.0
        self.scaled_window = 0.0
        self._last = _time_kernel()

    def stretch(self, samples_s: list[float], window_s: float) -> None:
        """Record a stretch that just ended, at the mean kernel time
        before and after it."""
        before, self._last = self._last, _time_kernel()
        self.add(samples_s, window_s, (before + self._last) / 2.0)

    def add(self, samples_s: list[float], window_s: float,
            kernel_ms: float) -> None:
        """Record a stretch run at the given kernel time."""
        factor = NOMINAL_KERNEL_MS / kernel_ms
        self.kernel_ms.append(kernel_ms)
        self.raw.extend(samples_s)
        self.scaled.extend(s * factor for s in samples_s)
        self.raw_window += window_s
        self.scaled_window += window_s * factor

    def metrics(self, out: Outcome) -> None:
        """Scaled timing metrics, plus the raw ones and the kernel time
        under ``raw.*`` / ``speed.*`` names for the report."""
        latency_metrics(out, self.scaled, self.scaled_window)
        raw = Outcome()
        latency_metrics(raw, self.raw, self.raw_window)
        for name, (value, unit) in raw.metrics.items():
            out.put(f"raw.{name}", value, unit)
        out.put("speed.kernel_ms", statistics.median(self.kernel_ms), "ms")


def _time_kernel() -> float:
    started = time.perf_counter()
    kernel()
    return (time.perf_counter() - started) * 1000.0


class SpeedSampler:
    """Times :func:`kernel` every ``PERIOD_S`` in a separate process,
    for work whose ops run in other processes (pool workers, daemon
    workers), where a kernel between ops cannot see the machine's speed
    during an op.  It takes ~5% of one CPU, in every run alike."""

    PERIOD_S = 0.05

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__, "--sample", str(self.PERIOD_S)],
            stdout=subprocess.PIPE, text=True)
        self.samples: list[tuple[float, float]] = []

    def stop(self) -> None:
        """End the sampler and collect its ``(time.monotonic(), ms)``."""
        self._proc.terminate()
        stdout, _ = self._proc.communicate()
        self.samples = [tuple(map(float, line.split()))
                        for line in stdout.splitlines() if line.strip()]
        if not self.samples:  # stopped before its interpreter started
            self.samples = [(time.monotonic(), _time_kernel())]

    def kernel_ms(self, start: float, end: float) -> float:
        """Median kernel time of the samples taken in ``[start, end]``
        (``time.monotonic()``), or of the nearest one."""
        inside = [ms for t, ms in self.samples if start <= t <= end]
        if inside:
            return statistics.median(inside)
        middle = (start + end) / 2.0
        return min(self.samples, key=lambda sample: abs(sample[0] - middle))[1]


def _sample(period_s: float) -> None:
    while True:
        stamp = time.monotonic()
        print(stamp, _time_kernel(), flush=True)
        time.sleep(period_s)


def quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated quantile of an already sorted list."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------


def own_peak_rss_mb() -> float:
    """Peak RSS of this process (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak RSS among this process's reaped children."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak RSS) of a live process, read from ``/proc``."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory spans opened by the benchmark around layer calls.

    A span is ``[name, start, end, parent index, op id]``; spans of one
    op share the op id.  Nothing is written until :meth:`dump`.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` with every call enclosed in a span called ``name``."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def self_ms(self, ops: set[int] | None = None) -> dict[str, float]:
        """Total self time per span name, in ms: a span's duration minus
        the part its direct children cover."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        totals: dict[str, float] = {}
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if ops is not None and op not in ops:
                continue
            own = (end - start) - child_s[index]
            totals[name] = totals.get(name, 0.0) + own * 1000.0
        return totals

    def root_ms(self, name: str) -> list[float]:
        """Durations (ms) of the top-level spans called ``name``."""
        return [(end - start) * 1000.0
                for n, start, end, parent, op in self.spans
                if n == name and parent < 0]

    def dump(self, path: Path) -> None:
        """Write the spans as Chrome trace-event JSON."""
        if not self.spans:
            return
        origin = self.spans[0][1]
        events = [
            {"name": name, "ph": "X", "pid": 0, "tid": 0,
             "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
             "args": {"op": op, "parent": parent}}
            for name, start, end, parent, op in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


# ---------------------------------------------------------------------------
# Known answers
# ---------------------------------------------------------------------------


def site_lines(source: str, name: str) -> dict[str, int]:
    """Site id -> 1-based source line, from a fresh elaboration."""
    from repro import api

    front = api.elaborate_source(source, name)
    return {
        sid: front.source.line_col(info.span.start)[0]
        for sid, info in front.elab.sites.items()
    }


def eliminated_sites(verdicts: Iterable, sites: Iterable[str]) -> set[str]:
    """The sites an ``(origin, proved, reason)`` verdict list
    eliminates, by the checker's own policy: every structural goal
    (empty origin) holds and the site's own goals all hold."""
    verdicts = list(verdicts)
    if not all(proved for origin, proved, _ in verdicts if not origin):
        return set()
    failed = {origin for origin, proved, _ in verdicts if not proved}
    return {sid for sid in sites if sid not in failed}


def judge_truth(out: Outcome, label: str, eliminated: set[str],
                lines: dict[str, int], truths) -> None:
    """Join eliminated sites to ``SiteTruth`` by line and score them.

    A site that must keep its check but was eliminated, or a site with
    no ground truth, fails the op.  A missed eliminable site only lowers
    ``elim_share``.
    """
    by_line = {t.line: t for t in truths}
    for sid, line in lines.items():
        truth = by_line.get(line)
        if truth is None:
            out.fail(f"{label}: site {sid} on line {line} has no ground truth")
        elif truth.eliminable:
            out.eliminable += 1
            out.eliminated += sid in eliminated
        elif sid in eliminated:
            out.fail(f"{label}: site {sid} (line {line}, {truth.note}) "
                     "eliminated but must keep its check")


def judge_paper(out: Outcome, label: str, proved: list[bool],
                sites: set[str], eliminated: set[str]) -> None:
    """Paper programs: every goal proves and every site is eliminable."""
    out.eliminable += len(sites)
    out.eliminated += len(eliminated & sites)
    if not all(proved):
        out.fail(f"{label}: {proved.count(False)} goal(s) not proved")


def front_end(out: Outcome, tracer: Tracer, sources) -> None:
    """Per-op parse / infer / elaborate times and sizes of ``sources``,
    from the same public calls ``api.check`` makes, run in the
    benchmark process (the driver and the daemon report only their
    sum)."""
    from repro import programs
    from repro.core.elaborate import elaborate_program
    from repro.core.ml_infer import MLInferencer
    from repro.indices.terms import EvarStore
    from repro.lang.parser import parse_program

    template = MLInferencer()
    template.infer_program(parse_program(programs.prelude_source(),
                                         "prelude.dml"))
    first = tracer.op + 1
    constraints = sites = size = 0
    for source, name in sources:
        tracer.op += 1
        with tracer.span("front"):
            with tracer.span("lang.parse"):
                program = parse_program(source, name)
            with tracer.span("core.infer"):
                inferred = template.fork().infer_program(program)
            with tracer.span("core.elaborate"):
                elab = elaborate_program(inferred.program, inferred.env,
                                         EvarStore())
        constraints += elab.count_constraints()
        sites += len(elab.sites)
        size += len(source.encode())
    ops = set(range(first, tracer.op + 1))
    self_ms = tracer.self_ms(ops)
    for span, metric in (("lang.parse", "lang.parse_ms"),
                         ("core.infer", "core.infer_ms"),
                         ("core.elaborate", "core.elaborate_ms")):
        out.put(metric, self_ms.get(span, 0.0) / len(ops), "ms")
    out.put("lang.source_bytes", size, "bytes")
    out.put("core.constraints", constraints, "count")
    out.put("core.sites", sites, "count")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--sample"]:
        _sample(float(sys.argv[2]))
