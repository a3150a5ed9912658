"""The four closed-loop workloads.

Each workload makes its inputs from the seed, sets the program up and
warms it with one request, then drives it for the timed phase.  The
timed phase is cut into slices; set-ups are timed before some of them,
so ``setup_s`` samples the host at several moments of the run.  Every
caller waits for its reply before sending the next request, so a slower
program receives less load.  Inputs form a fixed pool that the clients cycle through; every
pool entry is answered at least once (entries the timed phase did not
reach are sent after it, untimed), so ``cycles_per_add`` is a pure
function of the seed.

A traced run traces half the slices, interleaved with the others, so
the host's drift in speed falls on traced and untraced slices alike.  Its end-to-end metrics are
never reported; the untraced slices only give the base for the tracing
overhead.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import os
import resource
import select
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import inputs
import layers
from spans import SpanLog

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

WORKLOADS = ("bulk", "scalar", "edge", "verify")
POOL_OPS = 1 << 16        # distinct additions per serving workload
BULK_BATCH = 2048         # pairs per bulk request
EDGE_BATCH = 64           # pairs per edge request line
EDGE_CONNECTIONS = 1      # edge clients, one TCP connection each
VERIFY_CHUNK = 32         # vectors per verify request
VERIFY_POOL = 1024        # vectors per verify stream
Z = 5.0                   # binomial band half-width, in sigmas
SLICES = 10               # the timed phase, in slices
#: Set-up points spread over the slices, and set-ups timed at each point.
SETUPS = {"bulk": (10, 5), "scalar": (10, 5), "edge": (3, 1),
          "verify": (10, 1)}
CPUS = sorted(os.sched_getaffinity(0))


def _bucket_percentile(buckets: Counter, q: float) -> float:
    """*q*-th percentile, in ms, of latencies held in log buckets."""
    rank = q / 100 * sum(buckets.values())
    seen = 0
    for key in sorted(buckets):
        count = buckets[key]
        if seen + count >= rank:
            frac = (rank - seen) / count
            return math.exp((key + frac) / Phase.PER_E) / 1e6
        seen += count
    return 0.0


class Phase:
    """One slice of the timed phase, accumulated in constant memory.

    Nothing grows with the number of requests, so a faster program does
    not raise the measured process's peak memory.  Latencies go into
    log-spaced buckets 0.1% wide, pooled and per second of the slice;
    percentiles interpolate inside one bucket.
    """

    PER_E = 1000.5  # buckets per factor e: neighbours differ by 0.1%

    def __init__(self, seconds: float):
        self.start_ns = time.perf_counter_ns()
        self.end_ns = self.start_ns + int(seconds * 1e9)
        self.last_ns = self.start_ns
        self.requests = 0
        self.ops = 0    # additions answered by the end of the slice
        self.good = 0   # ... and correct
        self.buckets: Counter = Counter()
        self.seconds: Dict[int, Counter] = {}  # whole seconds in the slice

    def add(self, t0: int, t1: int, ops: int, good: int) -> None:
        self.requests += 1
        key = int(math.log(max(t1 - t0, 1)) * self.PER_E)
        self.buckets[key] += 1
        if t1 <= self.end_ns:
            self.ops += ops
            self.good += good
            self.last_ns = max(self.last_ns, t1)
            second = (t1 - self.start_ns) // 1_000_000_000
            if second < (self.end_ns - self.start_ns) // 1_000_000_000:
                self.seconds.setdefault(second, Counter())[key] += 1

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def _rate(phases: List[Phase], column: str = "ops") -> float:
    """*column* per second over *phases*, each up to its last reply.

    A mean over the whole timed phase, not a median of slices: this
    host's speed drifts in spells of tens of seconds, which a longer
    average smooths and a median of short slices does not.  Ending each
    slice at its last reply keeps the rate from being quantised by whole
    requests fitting into a slice.
    """
    span = sum(p.last_ns - p.start_ns for p in phases)
    return (sum(getattr(p, column) for p in phases) * 1e9 / span
            if span else 0.0)


def _pooled(phases: List[Phase]) -> Counter:
    buckets: Counter = Counter()
    for p in phases:
        buckets.update(p.buckets)
    return buckets


def _median_ms(phases: List[Phase]) -> float:
    """The median latency of each whole second of *phases*, averaged.

    Each CPU of the defining host flips between a fast and a slow state
    (1.6-1.75x apart) in spells of seconds.  A median pooled over the
    run lands in whichever state held the majority and jumps when that
    changes; averaging per-second medians moves smoothly with the share
    of time spent in each state.
    """
    meds = [_bucket_percentile(c, 50) for p in phases
            for c in p.seconds.values()]
    if not meds:  # slices shorter than a second
        return _bucket_percentile(_pooled(phases), 50)
    return sum(meds) / len(meds)


class SetUps:
    """Set-up times, taken at points spread over the timed slices.

    ``setup_s`` is the median set-up of each point, averaged over the
    points, for the same reason as :func:`_median_ms`: set-ups back to
    back all fall in one state of the host.  The instance the run
    drives is the first sample of the first point; *again* sets up,
    warms and tears down one more instance and returns its seconds.
    """

    def __init__(self, workload: str, first: float, again):
        points, self.per_point = SETUPS[workload]
        self.at = {j * SLICES // points for j in range(points)}
        self.samples: List[List[float]] = [[first]]
        self._again = again

    async def before_slice(self, i: int) -> None:
        if i not in self.at:
            return
        if i:
            self.samples.append([])
        while len(self.samples[-1]) < self.per_point:
            self.samples[-1].append(await self._again())

    @property
    def seconds(self) -> float:
        meds = [statistics.median(s) for s in self.samples]
        return sum(meds) / len(meds)

    @property
    def count(self) -> int:
        return sum(map(len, self.samples))


class Ledger:
    """Every request's outcome: totals, and the phase being timed."""

    def __init__(self, sizes: List[int]):
        self.sizes = sizes                 # additions per pool entry
        self.seen: List[Optional[int]] = [None] * len(sizes)  # cycles
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self.phase: Optional[Phase] = None  # None: untimed (the drain)

    def record(self, k: int, t0: int, t1: int, bad: int,
               cycles: int) -> None:
        n = self.sizes[k]
        self.attempted += n
        self.failed += bad
        if self.phase is not None:
            self.phase.add(t0, t1, n, n - bad)
        if self.seen[k] is None:
            self.seen[k] = cycles

    def error(self, k: int, t0: int, t1: int, exc: BaseException) -> None:
        n = self.sizes[k]
        self.attempted += n
        self.failed += n
        self.errors[type(exc).__name__] += 1
        if self.phase is not None:
            self.phase.add(t0, t1, 0, 0)


@dataclass
class Result:
    """What one workload run hands back to ``run.py``."""

    metrics: Dict[str, float]
    samples: Dict[str, int]
    attempted: int
    failed: int
    checks: Dict[str, bool]
    notes: List[str] = field(default_factory=list)


# -- shared pieces -----------------------------------------------------
def _binomial_ok(stalls: int, n: int, p: float) -> bool:
    """*stalls* of *n* lies within Z sigmas (plus one) of ``n * p``."""
    mean = n * p
    return abs(stalls - mean) <= Z * math.sqrt(n * p * (1 - p)) + 1


def _result(plain: List[Phase], setups: SetUps, ledger: Ledger,
            pool_ops: int, checks: Dict[str, bool],
            adds_per_op: int = 1) -> Result:
    """End-to-end metrics (all but peak memory) and the outcome totals."""
    result = Result({}, {}, ledger.attempted, ledger.failed, checks)
    if ledger.errors:
        result.notes.append(f"errors {dict(ledger.errors)}")
    requests = sum(p.requests for p in plain)
    result.metrics = {
        "adds_per_s": _rate(plain) * adds_per_op,
        "vectors_per_s": _rate(plain, "good"),
        "request_ms_p50": _median_ms(plain),
        "cycles_per_add": sum(ledger.seen) / pool_ops,
        "setup_s": setups.seconds}
    result.samples = dict.fromkeys(
        ("adds_per_s", "vectors_per_s", "request_ms_p50"), requests)
    result.samples.update(cycles_per_add=pool_ops, setup_s=setups.count,
                          peak_rss_mb=1)
    # Pooled over the run, printed, not gated: scheduling stalls on the
    # defining host swing the tail by up to 2x from run to run (see
    # README.md).
    buckets = _pooled(plain)
    for q in (50, 90, 99):
        result.notes.append(
            f"pooled request_ms_p{q} {_bucket_percentile(buckets, q):.6f} "
            f"ms (not gated) n={requests}")
    return result


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


async def _closed_loop(calls: List[Callable], ledger: Ledger,
                       seconds: float, counter) -> Phase:
    """One caller per entry of *calls*, each awaiting its reply first."""
    phase = ledger.phase = Phase(seconds)

    async def client(call):
        while time.perf_counter_ns() < phase.end_ns:
            k = next(counter) % len(ledger.sizes)
            if isinstance(await _attempt(call, k, ledger), OSError):
                return  # the connection is gone; this caller is done

    await asyncio.gather(*(client(c) for c in calls))
    ledger.phase = None
    return phase


def _place(i: Optional[int]) -> set:
    """Run this process's event loop on one CPU for slice *i*.

    A lone busy thread stays on the CPU it started on, and each CPU of
    the defining host has slow spells of its own, so an in-process run
    would follow one CPU's state from start to end.  Taking the CPUs in
    turn, slice by slice, gives every run the same mix of both.  Any
    other thread may run anywhere, so a program that spreads its work
    over threads keeps both CPUs.  ``None`` frees the loop again.
    """
    one = set(CPUS) if i is None else {CPUS[i % len(CPUS)]}
    for thread in threading.enumerate():
        if thread.native_id is not None:
            os.sched_setaffinity(thread.native_id,
                                 one if thread is threading.main_thread()
                                 else set(CPUS))
    return one


def _pin_processes(pids: List[int], cpus: set) -> None:
    """Run every thread of the processes *pids* on *cpus*."""
    for pid in pids:
        for tid in os.listdir(f"/proc/{pid}/task"):
            try:
                os.sched_setaffinity(int(tid), cpus)
            except ProcessLookupError:
                pass  # the thread ended meanwhile


async def _timed(calls: List[Callable], ledger: Ledger, seconds: float,
                 setups: SetUps, tracing: Optional[layers.Tracing] = None,
                 place: Callable[[Optional[int]], object] = _place
                 ) -> Tuple[List[Phase], List[Phase]]:
    """The timed slices, then every pool entry they missed (untimed).

    Set-ups due before a slice are taken while the callers wait, on the
    CPU the last slice ran on.  Each slice runs on the CPU *place*
    chooses for it (see :func:`_place`).  With *tracing*, half the
    slices are traced.  Returns the untraced and the traced slices.
    """
    counter = itertools.count()
    plain: List[Phase] = []
    traced: List[Phase] = []
    for i in range(SLICES):
        await setups.before_slice(i)
        place(i)
        # Traced in slices 1, 2, 5, 6, 9: half the slices, and both
        # halves run on both CPUs when the loop takes them in turn.
        on = tracing is not None and i % 4 in (1, 2)
        if on:
            tracing.on()
        try:
            phase = await _closed_loop(calls, ledger, seconds / SLICES,
                                       counter)
        finally:
            if on:
                tracing.off()
        (traced if on else plain).append(phase)
    place(None)
    await _drain(calls[0], ledger)
    return plain, traced


def _traced_result(result: Result, log: SpanLog, plain: List[Phase],
                   traced: List[Phase], workload: str, **layer) -> Result:
    """Swap *result*'s metrics for the per-layer set and dump the spans."""
    result.metrics = layers.layer_metrics(
        log, sum(p.wall_s for p in traced), **layer)
    base = _rate(plain)
    result.metrics["trace.overhead_share"] = (
        1 - _rate(traced) / base if base else 0.0)
    log.dump(OUT / f"spans-{workload}.json")
    return result


async def _attempt(call: Callable, k: int,
                   ledger: Ledger) -> Optional[Exception]:
    """Send pool entry *k* and book the outcome; the error, if any."""
    t0 = time.perf_counter_ns()
    try:
        bad, cycles = await call(k)
    except Exception as exc:  # counted as failed; the run goes on
        ledger.error(k, t0, time.perf_counter_ns(), exc)
        return exc
    ledger.record(k, t0, time.perf_counter_ns(), bad, cycles)
    return None


async def _drain(call: Callable, ledger: Ledger) -> None:
    """Answer, untimed, every pool entry the timed phase never reached."""
    for k, cycles in enumerate(ledger.seen):
        if cycles is None and await _attempt(call, k, ledger) is not None:
            ledger.seen[k] = 0


def _mismatches(sums, couts, exp: inputs.Expected) -> int:
    if sums == exp.sums and couts == exp.couts:
        return 0
    if len(sums) != len(exp.sums) or len(couts) != len(exp.couts):
        return len(exp.sums)
    return sum(1 for s, c, es, ec in zip(sums, couts, exp.sums, exp.couts)
               if s != es or c != ec)


# -- bulk and scalar: an in-process VlsaService ------------------------
async def _serving(workload: str, seed: int, seconds: float,
                   trace: bool) -> Result:
    from repro.service import VlsaService

    rng = np.random.default_rng(seed)
    arr = inputs.uniform_words(rng, (POOL_OPS, 2))
    if workload == "bulk":
        exp = [inputs.expected(arr[i:i + BULK_BATCH])
               for i in range(0, POOL_OPS, BULK_BATCH)]
        reqs = [inputs.as_pairs(arr[i:i + BULK_BATCH])
                for i in range(0, POOL_OPS, BULK_BATCH)]
        sizes = [BULK_BATCH] * len(reqs)
        expected_cycles = [ex.cycles for ex in exp]
        clients = 2

        def make_call(svc):
            async def call(k):
                resp = await svc.submit_batch(reqs[k])
                return _mismatches(resp.sums, resp.couts, exp[k]), resp.cycles
            return call
    else:
        e = inputs.expected(arr)
        pairs = inputs.as_pairs(arr)
        sizes = [1] * POOL_OPS
        expected_cycles = (1 + inputs.RECOVERY * e.flags.astype(int)).tolist()
        clients = 64

        def make_call(svc):
            async def call(k):
                a, b = pairs[k]
                resp = await svc.submit(a, b, timeout=30)
                bad = resp.sum_out != e.sums[k] or resp.cout != e.couts[k]
                return int(bad), resp.latency_cycles
            return call

    ledger = Ledger(sizes)
    checks = {"warmup_correct": True}

    async def set_up():
        t0 = time.perf_counter()
        svc = VlsaService(width=inputs.WIDTH)
        await svc.start()
        bad, _ = await make_call(svc)(0)
        checks["warmup_correct"] &= not bad
        return svc, time.perf_counter() - t0

    async def again():
        other, dt = await set_up()
        await other.stop()
        return dt

    svc, first = await set_up()
    setups = SetUps(workload, first, again)
    checks["config"] = (svc.width, svc.window, svc.recovery_cycles) == (
        inputs.WIDTH, inputs.WINDOW, inputs.RECOVERY)
    tracing = layers.Tracing(
        layers.install_service,
        lambda: layers.counter_values(svc.metrics_json())) if trace else None
    plain, traced = await _timed([make_call(svc)] * clients, ledger,
                                 seconds, setups, tracing)
    analytic = svc.analytic_stall_probability
    await svc.stop()

    checks["cycles_exact"] = ledger.seen == expected_cycles
    stalls = (sum(ledger.seen) - POOL_OPS) // inputs.RECOVERY
    checks["cycles_binomial"] = _binomial_ok(stalls, POOL_OPS, analytic)
    result = _result(plain, setups, ledger, POOL_OPS, checks)
    result.metrics["peak_rss_mb"] = _self_rss_mb()
    if trace:
        return _traced_result(result, tracing.log, plain, traced, workload,
                              service_delta=tracing.delta)
    return result


# -- edge: TCP edge over a one-worker cluster, in its own process ------
class EdgeServer:
    """One ``edge_server.py`` process, from spawn to reaped."""

    def __init__(self, stats_path: Path):
        self.stats_path = stats_path
        stats_path.unlink(missing_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "edge_server.py"),
             "--stats", str(stats_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        words = self.expect("READY", timeout=120).split()
        self.port = int(words[1])
        self.worker_pids = [int(p) for p in words[2].split(",")]

    def expect(self, word: str, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith(word):
            self.kill()
            raise RuntimeError(f"edge server: expected {word}, got {line!r}")
        return line

    def command(self, cmd: str) -> None:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()

    def stop(self) -> Tuple[dict, bool]:
        """Stop the server; its stats, and whether every process is gone."""
        try:
            self.command("stop")
            self.proc.wait(timeout=60)
        except (subprocess.TimeoutExpired, BrokenPipeError):
            self.kill()
        if self.proc.returncode != 0 or not self.stats_path.exists():
            raise RuntimeError(f"edge server exited with "
                               f"{self.proc.returncode}")
        return json.loads(self.stats_path.read_text()), self.reaped()

    def reaped(self) -> bool:
        ok = self.proc.poll() is not None
        for pid in self.worker_pids:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            ok = False
            os.kill(pid, 9)
        return ok

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.reaped()


def _shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _edge_roundtrip(port: int, lines: List[bytes]) -> List[dict]:
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        reader = sock.makefile("rb")
        replies = []
        for line in lines:
            sock.sendall(line)
            replies.append(json.loads(reader.readline()))
        return replies


async def _edge_phases(server: EdgeServer, lines: List[bytes], exp,
                       ledger: Ledger, seconds: float, setups: SetUps,
                       trace: bool):
    conns = [await asyncio.open_connection("127.0.0.1", server.port)
             for _ in range(EDGE_CONNECTIONS)]
    ids = itertools.count(1)
    rtt: Dict[int, int] = {}  # request id -> round trip, traced slices
    errors: List[int] = []    # request ids answered with an error, traced

    def remote(cmd: str, reply: str):
        def send(_log):
            server.command(cmd)
            server.expect(reply, timeout=60)
        return send

    # The wrappers live in the server process (edge_server.py keeps
    # their spans and counter deltas); this side only switches them.
    tracing = layers.Tracing(remote("trace", "TRACE"), dict,
                             remote("untrace", "UNTRACE")) if trace else None

    def make_call(reader, writer):
        async def call(k):
            rid = next(ids)
            t0 = time.perf_counter_ns()
            writer.write(b'{"id": %d, ' % rid + lines[k])
            await writer.drain()
            line = await reader.readline()
            traced = tracing is not None and tracing.active
            if traced:
                rtt[rid] = time.perf_counter_ns() - t0
            if not line:
                raise ConnectionError("edge server closed the connection")
            msg = json.loads(line)
            if "error" in msg:
                if traced:
                    errors.append(rid)
                raise RuntimeError(msg.get("code", "error"))
            return (_mismatches(msg["sums"], msg["couts"], exp[k]),
                    sum(msg["latencies"]))
        return call

    def place(i):
        # The server and its worker follow this loop from CPU to CPU, so
        # each hop of a request wakes a process on the CPU it runs on.
        _pin_processes([server.proc.pid] + server.worker_pids, _place(i))

    # One connection: a closed loop in which one process at a time works.
    try:
        plain, traced = await _timed([make_call(r, w) for r, w in conns],
                                     ledger, seconds, setups, tracing,
                                     place)
    finally:
        for _, writer in conns:
            writer.close()
            await writer.wait_closed()
    return plain, traced, rtt, len(errors)


def _edge(seed: int, seconds: float, trace: bool) -> Result:
    rng = np.random.default_rng(seed)
    arr, chain = inputs.mixed_words(rng, POOL_OPS)
    exp, lines = [], []
    for i in range(0, POOL_OPS, EDGE_BATCH):
        part = arr[i:i + EDGE_BATCH]
        exp.append(inputs.expected(part))
        lines.append(json.dumps({"pairs": part.tolist()})[1:].encode() + b"\n")
    ledger = Ledger([EDGE_BATCH] * len(lines))
    checks = {"warmup_correct": True, "processes_reaped": True}
    OUT.mkdir(parents=True, exist_ok=True)
    stats = (OUT / f"edge-server-stats-{n}.json" for n in itertools.count())
    shm_before = _shm_entries()

    def set_up():
        t0 = time.perf_counter()
        server = EdgeServer(next(stats))
        try:
            info, warm = _edge_roundtrip(
                server.port, [b'{"cmd": "info"}\n', b'{"id": 0, ' + lines[0]])
        except BaseException:
            server.kill()
            raise
        checks["warmup_correct"] &= warm.get("sums") == exp[0].sums
        return server, info, time.perf_counter() - t0

    async def again():
        other, _, dt = set_up()
        checks["processes_reaped"] &= other.stop()[1]
        return dt

    server, info, first = set_up()
    setups = SetUps("edge", first, again)
    try:
        plain, traced, rtt, errors = asyncio.run(_edge_phases(
            server, lines, exp, ledger, seconds, setups, trace))
    except BaseException:
        server.kill()
        raise
    server_stats, ok = server.stop()
    checks["config"] = (info["width"], info["window"], info["recovery_cycles"],
                        info["backend"]) == (inputs.WIDTH, inputs.WINDOW,
                                             inputs.RECOVERY, "cluster:1xnumpy")
    checks["processes_reaped"] &= ok
    checks["no_shm_left"] = not (_shm_entries() - shm_before)

    n_chain = int(chain.sum())
    checks["cycles_exact"] = ledger.seen == [e.cycles for e in exp]
    stalls = (sum(ledger.seen) - POOL_OPS) // inputs.RECOVERY - n_chain
    p = (info["analytic_latency_cycles"] - 1) / inputs.RECOVERY
    checks["cycles_binomial"] = _binomial_ok(stalls, POOL_OPS - n_chain, p)
    result = _result(plain, setups, ledger, POOL_OPS, checks)
    result.metrics["peak_rss_mb"] = server_stats["rss_kb"] / 1024
    if trace:
        log = SpanLog(server_stats["spans"], server_stats["ops"])
        edge = layers.edge_metrics(log.finished(), server_stats["delta"],
                                   rtt, errors, server_stats["ready_s"])
        return _traced_result(result, log, plain, traced, "edge", edge=edge)
    return result


# -- verify: the differential verifier ---------------------------------
async def _verify(seed: int, seconds: float, trace: bool) -> Result:
    from repro.verify import DifferentialVerifier

    rng = np.random.default_rng(seed)
    streams = [inputs.verify_stream(name, rng, VERIFY_POOL)
               for name in inputs.VERIFY_STREAMS]
    # Every request carries an equal share of each stream, so request
    # latencies form one mode rather than four (a median between modes
    # would jump with the slightest drift).
    share = VERIFY_CHUNK // len(streams)
    chunks = []  # (pairs, expected)
    for i in range(0, VERIFY_POOL, share):
        part = np.concatenate([arr[i:i + share] for arr in streams])
        chunks.append((inputs.as_pairs(part), inputs.expected(part)))
    ledger = Ledger([VERIFY_CHUNK] * len(chunks))
    checks = {"report_ok": True, "flags_exact": True}

    def make_call(verifier):
        async def call(k):
            pairs, exp = chunks[k]
            rep = verifier.run_pairs([pairs], stream="mixed", seed=seed)
            bad = 0
            if not rep.ok or rep.discrepancies:
                checks["report_ok"] = False
                bad = max(1, len({d.index for d in rep.discrepancies}))
            flags = rep.totals["flags"]
            if flags != int(exp.flags.sum()):
                checks["flags_exact"] = False
            return bad, len(pairs) + inputs.RECOVERY * flags
        return call

    async def set_up():
        t0 = time.perf_counter()
        verifier = DifferentialVerifier(inputs.WIDTH)
        await make_call(verifier)(0)
        return verifier, time.perf_counter() - t0

    async def again():
        return (await set_up())[1]

    verifier, first = await set_up()
    setups = SetUps("verify", first, again)
    checks["config"] = (verifier.width, verifier.window) == (inputs.WIDTH,
                                                             inputs.WINDOW)
    tracing = layers.Tracing(
        lambda log: layers.install_verify(log, verifier),
        lambda: layers.counter_values(verifier.registry.to_json())
    ) if trace else None
    plain, traced = await _timed([make_call(verifier)], ledger, seconds,
                                 setups, tracing)

    result = _result(plain, setups, ledger, VERIFY_CHUNK * len(chunks),
                     checks, adds_per_op=len(verifier.impls))
    result.metrics["peak_rss_mb"] = _self_rss_mb()
    if trace:
        verify = layers.verify_metrics(
            tracing.log, sum(p.ops for p in traced),
            tracing.delta.get("verify_mismatches_total", 0))
        return _traced_result(result, tracing.log, plain, traced, "verify",
                              verify=verify)
    return result


def run(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    if workload in ("bulk", "scalar"):
        return asyncio.run(_serving(workload, seed, seconds, trace))
    if workload == "edge":
        return _edge(seed, seconds, trace)
    if workload == "verify":
        return asyncio.run(_verify(seed, seconds, trace))
    raise ValueError(f"unknown workload {workload!r}")
