"""``compile-run``: Table 2's question — what eliminating checks buys
at run time.

Set-up compiles the access-dense programs (bcopy, bsearch, quicksort,
kmp, matmult) and listaccess (tag checks) under the ``plain`` and
``packed`` dialects, twice each: the certificate-gated build from
``api.compile`` and a build that keeps every check.  The timed window
runs both builds of every (program, dialect) cell on seeded inputs,
in a seeded order, and compares every output with a plain-Python
reference (``sorted``, ``bisect``, ``bytes.find``, ...), never with
another build of the same compiler.

An op is one run of a cell's unchecked build; the all-checked run
beside it is the baseline (``run_checked_s``) and is checked too.
Loads ``compile`` and the generated code; the solver runs only at
set-up.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

from common import Context, Outcome, Speed, Tracer, own_peak_rss_mb

DIALECTS = ("plain", "packed")
#: Workload parameters per program, sized so an unchecked ``plain``
#: run takes roughly 5-10 ms on a 2-CPU x86 box and no program
#: dominates the sums.
PARAMS = {
    "bcopy": {"bytes": 40_000, "times": 1},
    "bsearch": {"size": 1_536, "probes": 1_536},
    "quicksort": {"size": 2_048},
    "kmp": {"text": 50_000, "pattern": 16},
    "matmult": {"dim": 34},
    "listaccess": {"length": 64, "times": 900},
}
TINY_PARAMS = {
    "bcopy": {"bytes": 400, "times": 1},
    "bsearch": {"size": 32, "probes": 32},
    "quicksort": {"size": 64},
    "kmp": {"text": 500, "pattern": 3},
    "matmult": {"dim": 4},
    "listaccess": {"length": 20, "times": 9},
}
#: Seeded input variants per program, cycled through the rounds.
VARIANTS = 4


def _copy(value):
    """Deep copy of nested lists/tuples (inputs are mutated in place)."""
    if isinstance(value, list):
        return [_copy(x) for x in value]
    if isinstance(value, tuple):
        return tuple(_copy(x) for x in value)
    return value


def reference(program: str, raw: tuple):
    """The expected ``(result, arguments after the call)`` from plain
    Python, for one input."""
    (args,) = raw
    if program == "bcopy":
        src, dst, _ = args
        return (), (src, list(src) + dst[len(src):], args[2])
    if program == "bsearch":
        arr, keys = args
        hits = 0
        for key in keys:
            i = bisect.bisect_left(arr, key)
            hits += i < len(arr) and arr[i] == key
        return hits, args
    if program == "quicksort":
        return (), sorted(args)
    if program == "kmp":
        text, pattern = args
        return bytes(text).find(bytes(pattern)), args
    if program == "matmult":
        a, b, c = args
        dim = len(a)
        product = [[sum(a[i][k] * b[k][j] for k in range(dim))
                    for j in range(dim)] for i in range(dim)]
        return (), (a, b, product)
    if program == "listaccess":
        data, times = args
        return times * sum(data[:16]), args
    raise ValueError(program)


class Cell:
    """One (program, dialect): two loaded builds and their timings."""

    def __init__(self, program: str, dialect: str, result, checked) -> None:
        self.program = program
        self.dialect = dialect
        self.result = result
        self.unchecked = result.module
        self.checked = checked
        self.runs = {"unchecked": [], "checked": []}


class CompileRun:
    def __init__(self, ctx: Context) -> None:
        from repro import api, programs
        from repro.bench import workloads as wl
        from repro.compile.pycodegen import compile_program

        self.ctx = ctx
        self.out = Outcome()
        self.entries = {w.program: w for w in wl.WORKLOADS.values()}
        params = TINY_PARAMS if ctx.tiny else PARAMS
        rng = random.Random(ctx.seed)
        # Inputs are built with Python lists; listaccess's list becomes
        # a plain Python list here and is converted per dialect below.
        self.inputs = {}
        for program, p in params.items():
            variants = []
            for _ in range(VARIANTS):
                raw = self.entries[program].build_with(
                    p, list, random.Random(rng.random()))
                if program == "kmp" and len(variants) % 2 == 0:
                    # Plant the pattern: a random text of this size
                    # almost never contains it, and -1 alone proves
                    # little.
                    text, pattern = raw[0]
                    at = rng.randrange(len(text) - len(pattern))
                    text[at:at + len(pattern)] = pattern
                variants.append((raw, reference(program, _copy(raw))))
            self.inputs[program] = variants
        self.tracer = Tracer() if ctx.trace else None
        self.cells = []
        for program in params:
            source = programs.load_source(program)
            for dialect in DIALECTS:
                if self.tracer is not None:
                    result, checked = self._traced_compile(program, source, dialect)
                else:
                    result = api.compile(source, f"{program}.dml", dialect=dialect)
                    result.module.load()
                    checked = compile_program(
                        result.report.program, result.report.env, set(),
                        program, dialect=dialect)
                    checked.load()
                sites = set(result.plan.sites)
                self.out.eliminable += len(sites)
                self.out.eliminated += len(result.plan.unchecked & sites)
                self.cells.append(Cell(program, dialect, result, checked))

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()

    # -- one run ---------------------------------------------------------

    def _args(self, cell: Cell, raw: tuple) -> tuple:
        """Fresh arguments in the dialect's representation."""
        from repro.compile import support

        raw = _copy(raw)
        if cell.program == "listaccess":
            (data, times), = raw
            raw = ((support.from_pylist(data), times),)
        return cell.unchecked.dialect.adapt_args(raw)

    def run_once(self, cell: Cell, build: str, variant: int) -> float:
        raw, (want_result, want_args) = self.inputs[cell.program][variant]
        args = self._args(cell, raw)
        module = cell.unchecked if build == "unchecked" else cell.checked
        entry = self.entries[cell.program].entry
        dialect = cell.unchecked.dialect
        self.out.attempted += 1
        started = time.perf_counter()
        try:
            got = module.call(entry, *args)
        except Exception as exc:  # noqa: BLE001 - an escaped error fails the op
            self.out.fail(f"{cell.program}/{cell.dialect}/{build}: "
                          f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - started
        elapsed = time.perf_counter() - started
        # listaccess only reads its list, so only its result is compared.
        args_ok = (cell.program == "listaccess"
                   or dialect.extract_value(args)[0] == want_args)
        if dialect.extract_value(got) != want_result or not args_ok:
            self.out.fail(f"{cell.program}/{cell.dialect}/{build}: output "
                          "differs from the Python reference")
        cell.runs[build].append(elapsed)
        return elapsed

    def run(self) -> Outcome:
        out = self.out
        rng = random.Random(self.ctx.seed + 1)
        order = list(self.cells)
        # One calibration kernel between consecutive cells.
        speed = Speed()
        deadline = time.perf_counter() + self.ctx.seconds
        variant = 0
        while (time.perf_counter() < deadline
               or len(speed.raw) < self.ctx.min_ops):
            rng.shuffle(order)
            for cell in order:
                if self.tracer is not None:
                    self.tracer.op += 1
                    with self.tracer.span("run.unchecked"):
                        elapsed = self.run_once(cell, "unchecked", variant)
                    with self.tracer.span("run.checked"):
                        self.run_once(cell, "checked", variant)
                else:
                    elapsed = self.run_once(cell, "unchecked", variant)
                    self.run_once(cell, "checked", variant)
                speed.stretch([elapsed], elapsed)
            variant = (variant + 1) % VARIANTS
        if self.tracer is None:
            speed.metrics(out)
            return out
        # Scaled like ops_per_s, so the two give the tracing overhead.
        out.put("trace.ops_per_s", len(speed.scaled) / speed.scaled_window,
                "1/s")
        self._layer_metrics(out)
        self.tracer.dump(self.ctx.trace_file)
        return out

    # -- traced ------------------------------------------------------------

    def _traced_compile(self, program: str, source: str, dialect: str):
        """``api.compile``'s calls plus ``load``, one span each."""
        from repro import api
        from repro.compile.elim import plan_elimination
        from repro.compile.pycodegen import compile_program

        tracer = self.tracer
        name = f"{program}.dml"
        tracer.op += 1
        with tracer.span("compile"):
            with tracer.span("compile.check"):
                report = api.check(source, name, cache=None)
            with tracer.span("compile.plan"):
                plan = plan_elimination(report, dialect)
            with tracer.span("compile.codegen"):
                module = compile_program(report.program, report.env,
                                         plan.unchecked, name=name,
                                         dialect=dialect)
            with tracer.span("compile.load"):
                module.load()
        checked = compile_program(report.program, report.env, set(), program,
                                  dialect=dialect)
        checked.load()
        return api.CompileResult(report, plan, module, plan.dialect), checked

    def _layer_metrics(self, out: Outcome) -> None:
        from repro.compile import support
        from repro.compile.pycodegen import compile_program

        tracer = self.tracer
        compiles = tracer.root_ms("compile")
        out.put("compile_ms_p50", statistics.median(compiles), "ms")
        per_compile = tracer.self_ms()
        for layer in ("check", "plan", "codegen", "load"):
            out.put(f"compile.{layer}_ms",
                    per_compile.get(f"compile.{layer}", 0.0) / len(compiles), "ms")
        out.put("compile.code_bytes",
                sum(len(c.unchecked.source.encode()) for c in self.cells), "bytes")
        unchecked = sum(len(c.result.plan.unchecked) for c in self.cells)
        sites = sum(len(c.result.plan.sites) for c in self.cells)
        out.put("compile.sites_unchecked", unchecked, "count")
        out.put("compile.sites_kept", sites - unchecked, "count")

        totals = {"unchecked": 0.0, "checked": 0.0}
        for cell in self.cells:
            for build in totals:
                p50 = statistics.median(cell.runs[build])
                totals[build] += p50
                out.put(f"run.{build}_ms.{cell.program}.{cell.dialect}",
                        p50 * 1000.0, "ms")
        out.put("run_unchecked_s", totals["unchecked"], "s")
        out.put("run_checked_s", totals["checked"], "s")

        # Exact dynamic check counts from instrumented builds, on the
        # first input variant of every cell.
        performed = eliminated = 0
        for cell in self.cells:
            report = cell.result.report
            module = compile_program(report.program, report.env,
                                     cell.result.plan.unchecked, cell.program,
                                     instrument=True, dialect=cell.dialect)
            raw, _ = self.inputs[cell.program][0]
            args = self._args(cell, raw)
            support.COUNTERS.reset()
            module.call(self.entries[cell.program].entry, *args)
            performed += support.COUNTERS.performed
            eliminated += support.COUNTERS.eliminated
        out.put("run.checks_performed", performed, "count")
        out.put("run.checks_eliminated", eliminated, "count")

