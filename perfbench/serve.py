"""``serve``: the checking daemon under a closed loop of waiting callers.

Set-up starts ``repro serve --executor process --jobs <nproc>`` as a
subprocess with a temp verdict store, and warms it with one request per
pool program from every client.  The timed window runs ``nproc`` client
threads, each holding one kept-alive ``ServeClient`` and sending its
next ``/check`` only when the previous verdict arrived (editor and CI
callers wait for each verdict).  Each request is, by a seeded draw,
either (~70%) a program from a fixed pool of paper and generated
programs — solver-cache hits — or (~30%) a freshly generated program —
misses and store writes.

An op is one ``/check`` request; it fails on a non-200 answer, an
escaped error, or a verdict that eliminates a site its known answer
says must keep its check.
"""

from __future__ import annotations

import math
import os
import random
import signal
import subprocess
import sys
import threading
import time

from common import (
    Context, Outcome, Speed, SpeedSampler, Tracer, eliminated_sites, front_end,
    judge_paper, judge_truth, mean, proc_peak_rss_mb, site_lines,
)

JOBS = max(1, os.cpu_count() or 1)
CLIENTS = JOBS
POOL_SHARE = 0.7
GENERATED_POOL = 16
#: Requests per client whose sources the traced run replays through
#: the front end, and over which the work counters are summed.
COUNTED_PER_CLIENT = 40
#: Requests are scaled by the machine speed sampled in their slice of
#: the window.
SLICE_S = 0.5
START_TIMEOUT_S = 60.0


class Request:
    """One program a client may send, with its known answer."""

    def __init__(self, name: str, source: str, truths=None) -> None:
        self.name = name
        self.source = source
        self.truths = truths  # None: a paper program
        self.lines: dict[str, int] | None = None

    def known_lines(self) -> dict[str, int]:
        if self.lines is None:
            self.lines = site_lines(self.source, self.name)
        return self.lines


class Serve:
    def __init__(self, ctx: Context) -> None:
        from repro import programs
        from repro.fuzz.gen import GenConfig, generate_rendered

        self.ctx = ctx
        self.daemon = None
        self.pool = [Request(f"{name}.dml", programs.load_source(name))
                     for name in programs.available()]
        for i in range(GENERATED_POOL):
            rendered = generate_rendered(f"pool:{ctx.seed}:{i}", GenConfig())
            self.pool.append(Request(f"g{i}.dml", rendered.source,
                                     rendered.truths))
        for request in self.pool:
            if request.truths is not None:
                request.known_lines()
        self._start_daemon()
        # Warm-up: every client sends every pool program once, so both
        # workers' caches and the store hold the pool's verdicts.
        warm = Outcome()
        self._clients(lambda k, client: [
            self._send(client, request, warm) for request in self.pool])
        if warm.failed:
            raise RuntimeError(f"warm-up failed: {warm.problems}")

    # -- daemon ------------------------------------------------------------

    def _start_daemon(self) -> None:
        store = self.ctx.workdir / "store"
        log = self.ctx.workdir / "daemon.out"
        cmd = [sys.executable, "-m", "repro.cli", "serve", "--executor",
               "process", "--jobs", str(JOBS), "--port", "0",
               "--cache-dir", str(store)]
        with open(log, "w") as handle:
            self.daemon = subprocess.Popen(
                cmd, stdout=handle, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            text = log.read_text()
            if "listening on http://" in text:
                self.port = int(text.split("listening on http://")[1]
                                .split()[0].rsplit(":", 1)[1])
                return
            if self.daemon.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"daemon did not start: {log.read_text()[-500:]}")

    def close(self) -> None:
        """Stop the daemon and its workers, and wait until they are gone.

        The daemon shares this process's group, so the parent's
        clean-up reaches it even if this process dies first.
        """
        if self.daemon is None:
            return
        pids = []
        if self.daemon.poll() is None:
            try:
                pids = self.worker_pids()
            except OSError:
                pass
            self.daemon.send_signal(signal.SIGINT)
            try:
                self.daemon.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.daemon.kill()
        self.daemon.wait()
        self.daemon = None
        deadline = time.monotonic() + 10
        for pid in pids:
            while not _gone(pid):
                if time.monotonic() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        break
                time.sleep(0.01)

    def worker_pids(self) -> list[int]:
        from repro.server.client import ServeClient

        with ServeClient(self.port) as client:
            return [row["pid"] for row in client.stats()["workers"]]

    def peak_rss_mb(self) -> float:
        pids = [self.daemon.pid, *self.worker_pids()]
        return max(proc_peak_rss_mb(pid) for pid in pids)

    # -- clients -------------------------------------------------------------

    def _clients(self, body) -> list:
        """Run ``body(k, client)`` on ``CLIENTS`` threads; returns the
        per-thread results in client order."""
        from repro.server.client import ServeClient

        results: list = [None] * CLIENTS
        errors: list = []

        def target(k: int) -> None:
            try:
                with ServeClient(self.port) as client:
                    results[k] = body(k, client)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=target, args=(k,))
                   for k in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return results

    def _send(self, client, request: Request, out: Outcome):
        """One ``/check``; returns (seconds, response or None)."""
        from repro.server.client import ServeError

        started = time.perf_counter()
        try:
            response = client.check(request.source, request.name)
        except ServeError as exc:
            elapsed = time.perf_counter() - started
            out.fail(f"{request.name}: HTTP {exc.status}")
            return elapsed, None
        return time.perf_counter() - started, response

    def _loop(self, k: int, client, deadline: float, tracer: Tracer | None):
        """One closed-loop caller: sends its next request when the
        previous verdict has arrived."""
        from repro.fuzz.gen import GenConfig, generate_rendered

        rng = random.Random(f"{self.ctx.seed}:client:{k}")
        sent = []
        out = Outcome()
        while time.monotonic() < deadline:
            if rng.random() < POOL_SHARE:
                request = self.pool[rng.randrange(len(self.pool))]
            else:
                # Rendering takes ~0.2 ms, beside ~20 ms per request.
                index = len(sent)
                rendered = generate_rendered(
                    f"fresh:{self.ctx.seed}:{k}:{index}", GenConfig())
                request = Request(f"f{k}-{index}.dml", rendered.source,
                                  rendered.truths)
            started = time.monotonic()
            if tracer is not None:
                tracer.op += 1
                with tracer.span("server.request"):
                    elapsed, response = self._send(client, request, out)
            else:
                elapsed, response = self._send(client, request, out)
            sent.append((request, elapsed, response, started))
        return sent, out

    def run(self) -> Outcome:
        from repro.server.client import ServeClient

        out = Outcome()
        with ServeClient(self.port) as client:
            before = client.stats()
        tracers = [Tracer() if self.ctx.trace else None
                   for _ in range(CLIENTS)]
        sampler = SpeedSampler()
        try:
            started = time.monotonic()
            deadline = started + self.ctx.seconds
            per_client = self._clients(
                lambda k, c: self._loop(k, c, deadline, tracers[k]))
            ended = time.monotonic()
        finally:
            sampler.stop()
        with ServeClient(self.port) as client:
            after = client.stats()

        # Judge every answer after the window, off the clock, and scale
        # each SLICE_S slice of the window by the speed sampled in it.
        slices = max(1, math.ceil((ended - started) / SLICE_S))
        by_slice: list[list[float]] = [[] for _ in range(slices)]
        for sent, client_out in per_client:
            out.failed += client_out.failed
            out.problems.extend(client_out.problems)
            for request, elapsed, response, sent_at in sent:
                by_slice[min(int((sent_at - started) / SLICE_S), slices - 1)
                         ].append(elapsed)
                if response is None:
                    out.attempted += 1
                    continue
                self._judge(out, request, response)
        speed = Speed()
        for index, samples in enumerate(by_slice):
            low = started + index * SLICE_S
            high = min(low + SLICE_S, ended)
            speed.add(samples, high - low, sampler.kernel_ms(low, high))
        if not self.ctx.trace:
            speed.metrics(out)
            return out
        # Scaled like ops_per_s, so the two give the tracing overhead.
        out.put("trace.ops_per_s", len(speed.scaled) / speed.scaled_window,
                "1/s")
        self._layer_metrics(out, per_client, before, after, ended - started)
        merged = Tracer()
        for tracer in tracers:
            merged.spans.extend(tracer.spans)
        merged.dump(self.ctx.trace_file)
        return out

    def _judge(self, out: Outcome, request: Request, response: dict) -> None:
        out.attempted += 1
        verdicts = [tuple(v) for v in response["verdicts"]]
        eliminated = set(response["eliminable"])
        if request.truths is None:
            lines = request.known_lines()
            judge_paper(out, request.name, [v[1] for v in verdicts],
                        set(lines), eliminated)
            return
        lines = request.known_lines()
        if eliminated != eliminated_sites(verdicts, lines):
            out.fail(f"{request.name}: eliminable list disagrees with "
                     "the verdicts")
            return
        judge_truth(out, request.name, eliminated, lines, request.truths)

    # -- traced ------------------------------------------------------------

    def _layer_metrics(self, out, per_client, before, after, window) -> None:
        answered = [(request, elapsed, response)
                    for sent, _ in per_client
                    for request, elapsed, response, _ in sent
                    if response is not None]
        request_ms = mean(e for _, e, _ in answered) * 1000.0
        check_ms = mean(r["wall_seconds"] for _, _, r in answered) * 1000.0
        out.put("server.request_ms", request_ms, "ms")
        out.put("server.check_ms", check_ms, "ms")
        out.put("server.transport_ms", request_ms - check_ms, "ms")
        out.put("server.generation_ms",
                mean(r["generation_seconds"] for _, _, r in answered) * 1000.0,
                "ms")
        # The daemon reports solving with its backend included.
        out.put("server.solve_ms",
                mean(r["solve_seconds"] for _, _, r in answered) * 1000.0, "ms")
        out.put("server.worker_busy_share",
                (after["busy_seconds"] - before["busy_seconds"])
                / (window * after["jobs"]), "ratio")
        queries = after["solver"]["queries"] - before["solver"]["queries"]
        hits = after["solver"]["cache_hits"] - before["solver"]["cache_hits"]
        out.put("server.cache_hit_ratio", hits / queries if queries else 0.0,
                "ratio")
        out.put("cache.queries", queries, "count")
        out.put("cache.hit_ratio", hits / queries if queries else 0.0, "ratio")
        out.put("server.respawns", after["respawns"] - before["respawns"],
                "count")
        out.put("server.check_errors",
                after["check_errors"] - before["check_errors"], "count")
        store = after["store"] or {}
        out.put("store.solver_entries", store.get("solver_entries", 0), "count")
        out.put("store.decl_entries", store.get("decl_entries", 0), "count")
        out.put("store.preloaded", after["cache"]["preloaded"], "count")
        store_dir = self.ctx.workdir / "store"
        out.put("store.bytes", sum(f.stat().st_size
                                   for f in store_dir.iterdir()), "bytes")
        slicing = after["slicing"]
        for key in ("sliced_queries", "atoms_before", "atoms_after",
                    "subsumption_hits", "prefix_reuses"):
            out.put(f"slice.{key}",
                    slicing[key] - before["slicing"][key], "count")

        # Work counters and front-end times over each client's first
        # requests, a seeded, fixed set of programs.
        counted = [item[:3] for sent, _ in per_client
                   for item in sent[:COUNTED_PER_CLIENT]
                   if item[2] is not None]
        out.put("solver.goals", sum(r["goals"] for _, _, r in counted), "count")
        tracer = Tracer()
        front_end(out, tracer, [(req.source, req.name) for req, _, _ in counted])


def _gone(pid: int) -> bool:
    """Has ``pid`` exited (reaped, or a zombie awaiting its parent)?"""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True
