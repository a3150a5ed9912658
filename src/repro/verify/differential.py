"""The differential verification engine.

Every claim of "bit-identical speculative-adder behaviour" in this
repository is enforced here, from one place, against one reference: the
*functional model* of the adder family under test (registered in
:mod:`repro.engine.functional`, itself cross-checked exactly against the
analytic recurrences).  Implementations register as adapters with a
uniform batch interface and fall into two groups:

* ``speculative`` — produce the raw speculative ``(sum, cout)`` the
  hardware emits (the gate-level circuit on the compiled engine, the
  legacy interpreter, the functional model itself, the family's
  vectorised numpy kernel);
* ``exact`` — produce the corrected sum plus the detector/stall flag and
  per-op latency (:class:`~repro.arch.vlsa_machine.VlsaMachine`, the
  service's :class:`~repro.service.executor.VlsaBatchExecutor` under
  both its backends, the gate-level recovery datapath).

Which adder is being verified is a *family* choice
(:mod:`repro.families`): ``family="aca"`` (the default) drives the
paper's Almost Correct Adder; ``"cesa"`` and ``"blockspec"`` drive the
other zoo members through exactly the same machinery.  The single
``window`` knob maps onto each family's primary parameter via
:func:`repro.families.base.resolve_params`.

One seeded vector stream drives every registered pair; any elementwise
disagreement is recorded with its first failing vector and a minimised
reproducer.  On top of the elementwise comparison, observed detector /
error **counts** on the uniform stream are tested against the family's
exact analytic probabilities with a binomial bound — so a
probabilistically wrong detector fails the run even when every sum
matches (the recovery path hides under- or over-firing detectors from
sum comparison).

Exhaustive mode enumerates *all* operand pairs of a small-width grid and
upgrades the statistical check to exact integer equality: over the full
``4^n`` pair space the number of speculative errors must equal
``P_error * 4^n`` computed with ``Fraction`` arithmetic — a zero-slack
cross-check of the analytic model against brute force.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from ..engine.context import RunContext, get_default_context
from ..engine.functional import functional_model
from ..families.base import get_family
from ..service.metrics import MetricsRegistry
from .report import Coverage, Discrepancy, ExhaustiveCell, VerifyReport
from .shrink import shrink_pair
from .stats import check_rate
from .vectors import pair_stream

__all__ = [
    "VerificationError",
    "ImplResult",
    "Implementation",
    "register_implementation",
    "available_implementations",
    "default_implementations",
    "make_implementation",
    "DifferentialVerifier",
    "run_exhaustive",
    "DEFAULT_STREAMS",
]

Pair = Tuple[int, int]

#: Streams a plain fuzz run drives by default ("attack" is opt-in — it
#: replays a captured cipher trace and costs a real attack run).
DEFAULT_STREAMS = ("uniform", "biased", "adversarial", "boundary")


class VerificationError(AssertionError):
    """Raised by ``raise_on_failure`` entry points when a run fails."""

    def __init__(self, report: VerifyReport):
        self.report = report
        super().__init__(
            f"differential verification failed: "
            f"{report.mismatch_count} mismatches, "
            f"{len(report.stat_failures)} failed rate checks")


def _resolved(family: str, width: int, window: Optional[int]
              ) -> Tuple[Any, Dict[str, int], int]:
    """(family object, resolved params, primary value) for one config."""
    fam = get_family(family)
    params = fam.resolve_params(width, window=window)
    return fam, params, fam.primary_value(width, params)


# ----------------------------------------------------------------------
# Implementation adapters
# ----------------------------------------------------------------------
@dataclass
class ImplResult:
    """Batch output of one implementation.

    ``sums``/``couts`` are speculative values for the ``speculative``
    family and corrected values for the ``exact`` family.  ``flags`` /
    ``latencies`` / ``spec_errors`` are optional; when ``flags`` is
    absent but the implementation can still report how many vectors took
    the recovery path, ``stall_count`` feeds the statistical check.
    """

    sums: List[int]
    couts: Optional[List[int]] = None
    flags: Optional[List[bool]] = None
    latencies: Optional[List[int]] = None
    spec_errors: Optional[List[bool]] = None
    stall_count: Optional[int] = None

    def stalls(self) -> Optional[int]:
        if self.flags is not None:
            return sum(1 for f in self.flags if f)
        return self.stall_count


class Implementation:
    """Adapter base: a named, family-tagged batch evaluator."""

    name = "?"
    family = "speculative"  # or "exact"

    def run(self, pairs: Sequence[Pair]) -> ImplResult:
        raise NotImplementedError


class FunctionalImpl(Implementation):
    """The family's functional model through its ``run_ints`` interface."""

    family = "speculative"

    def __init__(self, width: int, window: int, recovery_cycles: int = 1,
                 family: str = "aca"):
        self.name = "functional"
        self.model = functional_model(family, width=width, window=window)

    def run(self, pairs: Sequence[Pair]) -> ImplResult:
        out = self.model.run_ints({"a": [a for a, _ in pairs],
                                   "b": [b for _, b in pairs]})
        flags = [self.model.flags_error(a, b) for a, b in pairs]
        return ImplResult(sums=list(out["sum"]), couts=list(out["cout"]),
                          flags=flags)


class EngineImpl(Implementation):
    """Gate-level speculative core on the compiled engine."""

    family = "speculative"

    def __init__(self, width: int, window: int, recovery_cycles: int = 1,
                 family: str = "aca"):
        fam, params, _ = _resolved(family, width, window)
        self.name = "engine:bigint"
        self.width = width
        self.circuit = fam.build_speculative(width, **params)

    def run(self, pairs: Sequence[Pair]) -> ImplResult:
        from ..engine import execute_ints

        out = execute_ints(self.circuit,
                           {"a": [a for a, _ in pairs],
                            "b": [b for _, b in pairs]})
        return ImplResult(sums=out["sum"], couts=out["cout"])


class InterpreterImpl(Implementation):
    """The legacy per-gate interpreter on the same gate-level core."""

    family = "speculative"

    def __init__(self, width: int, window: int, recovery_cycles: int = 1,
                 family: str = "aca"):
        fam, params, _ = _resolved(family, width, window)
        self.name = "interpreter"
        self.circuit = fam.build_speculative(width, **params)

    def run(self, pairs: Sequence[Pair]) -> ImplResult:
        from ..circuit import simulate_interpreted
        from ..engine.pack import pack_vectors, unpack_vectors

        n = len(pairs)
        stim = {
            "a": pack_vectors([a for a, _ in pairs],
                              len(self.circuit.inputs["a"])),
            "b": pack_vectors([b for _, b in pairs],
                              len(self.circuit.inputs["b"])),
        }
        words = simulate_interpreted(self.circuit, stim, num_vectors=n)
        return ImplResult(sums=unpack_vectors(words["sum"], n),
                          couts=unpack_vectors(words["cout"], n))


class KernelImpl(Implementation):
    """The family's vectorised numpy kernel (widths up to 64 bits)."""

    family = "speculative"

    def __init__(self, width: int, window: int, recovery_cycles: int = 1,
                 family: str = "aca"):
        fam, params, _ = _resolved(family, width, window)
        self.name = "kernel"
        self.kernel = fam.numpy_kernel(width, **params)
        if self.kernel is None:
            raise ValueError(
                f"family {family!r} has no numpy kernel at width {width}")

    def run(self, pairs: Sequence[Pair]) -> ImplResult:
        import numpy as np

        a = np.array([a for a, _ in pairs], dtype=np.uint64)
        b = np.array([b for _, b in pairs], dtype=np.uint64)
        batch = self.kernel(a, b)
        return ImplResult(
            sums=[int(v) for v in batch.spec_sums],
            couts=[int(v) for v in batch.spec_couts],
            flags=[bool(v) for v in batch.flags],
            spec_errors=[bool(v) for v in batch.spec_errors])


class RecoveryImpl(Implementation):
    """The gate-level recovery datapath (exact outputs + detector flag).

    Drives the family's full :meth:`~repro.families.base.AdderFamily.
    build_circuit` netlist — speculative core, detector and shared-logic
    recovery path — and holds the *corrected* ``sum_exact``/``cout_exact``
    outputs plus the ``err`` flag to the reference.  This is the adapter
    that makes "the recovery hardware is exact for every family" a
    registry-enforced property rather than a per-family test.
    """

    family = "exact"

    def __init__(self, width: int, window: int, recovery_cycles: int = 1,
                 family: str = "aca"):
        fam, params, _ = _resolved(family, width, window)
        self.name = "recovery"
        self.circuit = fam.build_circuit(width, **params)

    def run(self, pairs: Sequence[Pair]) -> ImplResult:
        from ..engine import execute_ints

        out = execute_ints(self.circuit,
                           {"a": [a for a, _ in pairs],
                            "b": [b for _, b in pairs]})
        return ImplResult(sums=out["sum_exact"], couts=out["cout_exact"],
                          flags=[bool(v) for v in out["err"]])


class MachineImpl(Implementation):
    """The cycle-accurate :class:`VlsaMachine` (corrected sums + stalls)."""

    family = "exact"

    def __init__(self, width: int, window: int, recovery_cycles: int = 1,
                 family: str = "aca"):
        from ..arch import VlsaMachine

        self.name = "machine"
        self.machine = VlsaMachine(width, window=window,
                                   recovery_cycles=recovery_cycles,
                                   family=family)

    def run(self, pairs: Sequence[Pair]) -> ImplResult:
        trace = self.machine.run(pairs)
        return ImplResult(
            sums=[r.sum_out for r in trace.results],
            couts=[r.cout for r in trace.results],
            flags=[r.stalled for r in trace.results],
            latencies=[r.latency_cycles for r in trace.results],
            spec_errors=[r.stalled and not r.speculative_correct
                         for r in trace.results])


class ExecutorImpl(Implementation):
    """The service's micro-batch executor under one backend."""

    family = "exact"

    def __init__(self, width: int, window: int, backend: str,
                 recovery_cycles: int = 1, family: str = "aca"):
        from ..service.executor import VlsaBatchExecutor

        self.name = f"service:{backend}"
        self.executor = VlsaBatchExecutor(width, window=window,
                                          recovery_cycles=recovery_cycles,
                                          backend=backend, family=family)

    def run(self, pairs: Sequence[Pair]) -> ImplResult:
        out = self.executor.execute(pairs)
        return ImplResult(sums=out.sums, couts=out.couts,
                          flags=out.stalled, latencies=out.latencies,
                          spec_errors=out.spec_errors)


class ClusterImpl(Implementation):
    """The multi-process serving cluster, end to end.

    Batches travel the full production path — admission, sharding, the
    pipe wire protocol, a real worker process, result slicing — and the
    verifier holds the answers to the same bit-identical standard as the
    in-process executor.  Pools are expensive to boot, so instances
    share one process-wide cached cluster per configuration
    (:func:`~repro.cluster.sync.shared_cluster`); it is torn down at
    interpreter exit.  Because it spawns OS processes, ``cluster`` is
    registered but *not* part of :func:`default_implementations` —
    drive it explicitly (``--impls service:numpy,cluster``).
    """

    family = "exact"

    def __init__(self, width: int, window: int, recovery_cycles: int = 1,
                 family: str = "aca", workers: Optional[int] = None):
        import os

        from ..cluster import ClusterConfig
        from ..cluster.sync import shared_cluster

        self.name = "cluster"
        if workers is None:
            workers = int(os.environ.get("REPRO_CLUSTER_VERIFY_WORKERS",
                                         "2"))
        self.cluster = shared_cluster(ClusterConfig(
            width=width, window=window, recovery_cycles=recovery_cycles,
            workers=workers, heartbeat_interval=0.1, family=family))

    def run(self, pairs: Sequence[Pair]) -> ImplResult:
        out = self.cluster.add_batch(list(pairs))
        return ImplResult(sums=out.sums, couts=out.couts,
                          flags=out.stalled, latencies=out.latencies)


class AutotunedImpl(Implementation):
    """The autotuned service path: config changes mid-stream.

    Wraps :class:`~repro.autotune.controller.SyncAutotunedExecutor` —
    the online controller reconfigures window, family and batch size
    *between micro-batches while the vector stream is being verified*
    (the adversarial/biased streams force real switches).  The paper's
    invariant under test: recovery is exact at every configuration, so
    sums/couts must stay bit-identical to ``service:numpy`` no matter
    the reconfiguration schedule.  Flags and latencies legitimately
    differ per configuration, so this adapter reports none and the
    verifier compares values only.
    """

    family = "exact"

    def __init__(self, width: int, window: int, recovery_cycles: int = 1,
                 family: str = "aca"):
        from ..autotune import SLA, PolicyEngine, SyncAutotunedExecutor

        self.name = "service:autotuned"
        policy = PolicyEngine(width, SLA(stall_rate=0.05),
                              batch_sizes=[1024],
                              recovery_cycles=recovery_cycles)
        self.executor = SyncAutotunedExecutor(
            width, policy, window=window, family=family,
            recovery_cycles=recovery_cycles,
            decide_every_ops=512, profile_pairs=2048)

    def run(self, pairs: Sequence[Pair]) -> ImplResult:
        out = self.executor.execute(list(pairs))
        return ImplResult(sums=out.sums, couts=out.couts)


#: name -> factory(width, window, recovery_cycles[, family]) ->
#: Implementation.  Factories that do not accept a ``family`` keyword
#: (legacy three-argument ones, e.g. the mutation-test mutants) remain
#: usable for the default ``"aca"`` family.
_FACTORIES: Dict[str, Callable[..., Implementation]] = {}
#: The built-in adapter names (a default run drives exactly these;
#: externally registered implementations must be named explicitly).
_BUILTIN: List[str] = []


def register_implementation(
        name: str,
        factory: Callable[..., Implementation]) -> None:
    """Register *factory* under *name* (used by tests for mutants too)."""
    _FACTORIES[name] = factory


def unregister_implementation(name: str) -> None:
    """Remove a registered implementation (mutation-test cleanup)."""
    if name in _BUILTIN:
        raise ValueError(f"refusing to unregister builtin {name!r}")
    _FACTORIES.pop(name, None)


def _ensure_builtin() -> None:
    if "functional" in _FACTORIES:
        return
    register_implementation("functional", FunctionalImpl)
    register_implementation("engine:bigint", EngineImpl)
    register_implementation("interpreter", InterpreterImpl)
    register_implementation("kernel", KernelImpl)
    register_implementation("recovery", RecoveryImpl)
    register_implementation("machine", MachineImpl)
    register_implementation(
        "service:numpy",
        lambda w, win, rc, family="aca":
            ExecutorImpl(w, win, "numpy", rc, family=family))
    register_implementation(
        "service:bigint",
        lambda w, win, rc, family="aca":
            ExecutorImpl(w, win, "bigint", rc, family=family))
    _BUILTIN.extend(sorted(_FACTORIES))
    # One more implementation: the whole multi-process cluster.
    # Registered after the _BUILTIN snapshot on purpose — it spawns OS
    # processes, so a plain `repro verify` run does not pay for it; CI
    # and the cluster tests opt in with explicit impl lists.
    register_implementation("cluster", ClusterImpl)
    # Likewise post-snapshot: the autotuned path reconfigures itself
    # mid-stream, so its flags are schedule-dependent — it exists to
    # prove sums/couts stay bit-identical across reconfigurations and
    # is driven explicitly (--impls service:numpy,service:autotuned).
    register_implementation("service:autotuned", AutotunedImpl)


def available_implementations() -> List[str]:
    """Every registered implementation name."""
    _ensure_builtin()
    return sorted(_FACTORIES)


def default_implementations(width: int, family: str = "aca") -> List[str]:
    """The built-in implementations a plain run drives for *width*."""
    _ensure_builtin()
    names = list(_BUILTIN)
    if width > 64:
        # Machine-word kernels by design; bigint paths cover wide cores.
        names = [n for n in names if n not in ("service:numpy", "kernel")]
    return names


def _accepts_family(factory: Callable[..., Implementation]) -> bool:
    try:
        sig = inspect.signature(factory)
    except (TypeError, ValueError):  # builtins / C callables
        return False
    return any(p.name == "family" or p.kind is p.VAR_KEYWORD
               for p in sig.parameters.values())


def make_implementation(name: str, width: int, window: int,
                        recovery_cycles: int = 1,
                        family: str = "aca") -> Implementation:
    """Instantiate the registered implementation *name*."""
    _ensure_builtin()
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"no implementation registered as {name!r}; available: "
            f"{', '.join(available_implementations())}") from None
    if _accepts_family(factory):
        impl = factory(width, window, recovery_cycles, family=family)
    elif family == "aca":
        impl = factory(width, window, recovery_cycles)
    else:
        raise ValueError(
            f"implementation {name!r} is registered with a legacy "
            f"factory that does not accept family={family!r}")
    impl.name = name
    return impl


# ----------------------------------------------------------------------
# Reference values (the functional fast path, computed once per chunk)
# ----------------------------------------------------------------------
@dataclass
class _Reference:
    spec_sums: List[int]
    spec_couts: List[int]
    exact_sums: List[int]
    exact_couts: List[int]
    flags: List[bool]
    correct: List[bool]


def _reference(pairs: Sequence[Pair], width: int, window: int,
               family: str = "aca", model: Any = None) -> _Reference:
    if model is None:
        model = functional_model(family, width=width, window=window)
    mask = (1 << width) - 1
    spec_sums: List[int] = []
    spec_couts: List[int] = []
    exact_sums: List[int] = []
    exact_couts: List[int] = []
    flags: List[bool] = []
    correct: List[bool] = []
    for a, b in pairs:
        a &= mask
        b &= mask
        ss, sc = model.add(a, b)
        total = a + b
        spec_sums.append(ss)
        spec_couts.append(sc)
        exact_sums.append(total & mask)
        exact_couts.append(total >> width)
        flags.append(model.flags_error(a, b))
        correct.append(model.is_correct(a, b))
    return _Reference(spec_sums, spec_couts, exact_sums, exact_couts,
                      flags, correct)


# ----------------------------------------------------------------------
# The verifier
# ----------------------------------------------------------------------
class DifferentialVerifier:
    """Drives every registered implementation from one vector stream.

    Args:
        width: Operand bitwidth.
        window: The family's primary parameter (for ACA, the speculation
            window; default: the family's own choice, clamped to
            *width*).
        impls: Implementation names to drive (default:
            :func:`default_implementations`).
        recovery_cycles: Recovery penalty for the exact family.
        z: Sigma multiplier for the binomial rate checks.
        ctx: Run context — vectors/mismatch counters, per-impl phase
            timers, and one trace event per discrepancy land in its
            manifest.
        registry: Metrics registry — ``verify_*`` counters accumulate
            across runs of this verifier.
        shrink: Minimise failing vectors (re-runs the implementation).
        max_discrepancies: Recorded-discrepancy cap (counts keep
            accumulating in coverage beyond it).
        family: Registered adder family to verify (default ``"aca"``).
    """

    def __init__(self, width: int, window: Optional[int] = None,
                 impls: Optional[Sequence[str]] = None,
                 recovery_cycles: int = 1, z: float = 5.0,
                 ctx: Optional[RunContext] = None,
                 registry: Optional[MetricsRegistry] = None,
                 shrink: bool = True, max_discrepancies: int = 16,
                 family: str = "aca"):
        if width <= 0:
            raise ValueError("width must be positive")
        self.width = width
        self.family = family
        fam, params, primary = _resolved(family, width, window)
        self.params = params
        self.window = primary
        if self.window <= 0:
            raise ValueError("window must be positive")
        self._family_obj = fam
        self._model = functional_model(family, width=width,
                                       window=self.window)
        self.recovery_cycles = recovery_cycles
        self.z = z
        self.ctx = ctx if ctx is not None else get_default_context()
        self.registry = (registry if registry is not None
                         else MetricsRegistry())
        self.shrink = shrink
        self.max_discrepancies = max_discrepancies
        names = list(impls) if impls is not None else (
            default_implementations(width, family))
        self.impls = [make_implementation(n, self.width, self.window,
                                          recovery_cycles, family=family)
                      for n in names]
        self.m_vectors = self.registry.counter(
            "verify_vectors_total", "vectors driven per implementation")
        self.m_mismatch = self.registry.counter(
            "verify_mismatches_total", "elementwise disagreements found")
        self.m_stat_fail = self.registry.counter(
            "verify_stat_failures_total", "failed binomial rate checks")

    def _reference(self, pairs: Sequence[Pair]) -> _Reference:
        return _reference(pairs, self.width, self.window,
                          family=self.family, model=self._model)

    # ------------------------------------------------------------------
    def run(self, vectors: int = 10000,
            streams: Sequence[str] = DEFAULT_STREAMS,
            seed: Optional[int] = None,
            chunk: int = 4096) -> VerifyReport:
        """Fuzz every implementation with *vectors* per stream."""
        seed = self.ctx.seed if seed is None else seed
        report = VerifyReport(width=self.width, window=self.window,
                              seed=seed, family=self.family,
                              streams=list(streams),
                              impls=[i.name for i in self.impls])
        coverage = {i.name: Coverage(impl=i.name) for i in self.impls}
        uniform = {"n": 0, "errors": 0, "flags": 0}
        impl_stalls: Dict[str, int] = {}
        with self.ctx.phase("verify"):
            for stream in streams:
                base = 0
                for pairs in pair_stream(stream, self.width, self.window,
                                         vectors, seed=seed, chunk=chunk):
                    ref = self._reference(pairs)
                    self._check_reference(ref, pairs, stream, base, seed,
                                          report)
                    if stream == "uniform":
                        uniform["n"] += len(pairs)
                        uniform["errors"] += sum(
                            1 for c in ref.correct if not c)
                        uniform["flags"] += sum(
                            1 for f in ref.flags if f)
                    for impl in self.impls:
                        with self.ctx.phase(f"verify_{impl.name}"):
                            res = impl.run(pairs)
                        cov = coverage[impl.name]
                        cov.add(stream, len(pairs))
                        self.m_vectors.inc(len(pairs))
                        self._compare(impl, res, ref, pairs, stream,
                                      base, seed, report, cov)
                        if stream == "uniform":
                            stalls = res.stalls()
                            if stalls is not None:
                                impl_stalls[impl.name] = (
                                    impl_stalls.get(impl.name, 0) + stalls)
                    base += len(pairs)
        report.coverage = list(coverage.values())
        self._rate_checks(uniform, impl_stalls, report)
        self.ctx.add("verify_vectors",
                     sum(c.vectors for c in report.coverage))
        self.ctx.add("verify_mismatches", report.mismatch_count)
        return report

    def run_pairs(self, pairs_iter: Iterable[Sequence[Pair]],
                  stream: str = "explicit",
                  seed: Optional[int] = None) -> VerifyReport:
        """Drive explicit pair chunks (exhaustive mode's entry point)."""
        seed = self.ctx.seed if seed is None else seed
        report = VerifyReport(width=self.width, window=self.window,
                              seed=seed, family=self.family,
                              streams=[stream],
                              impls=[i.name for i in self.impls])
        coverage = {i.name: Coverage(impl=i.name) for i in self.impls}
        totals = {"n": 0, "errors": 0, "flags": 0}
        base = 0
        with self.ctx.phase("verify"):
            for pairs in pairs_iter:
                pairs = list(pairs)
                ref = self._reference(pairs)
                self._check_reference(ref, pairs, stream, base, seed,
                                      report)
                totals["n"] += len(pairs)
                totals["errors"] += sum(1 for c in ref.correct if not c)
                totals["flags"] += sum(1 for f in ref.flags if f)
                for impl in self.impls:
                    with self.ctx.phase(f"verify_{impl.name}"):
                        res = impl.run(pairs)
                    cov = coverage[impl.name]
                    cov.add(stream, len(pairs))
                    self.m_vectors.inc(len(pairs))
                    self._compare(impl, res, ref, pairs, stream, base,
                                  seed, report, cov)
                base += len(pairs)
        report.coverage = list(coverage.values())
        report.totals = totals  # type: ignore[attr-defined]
        self.ctx.add("verify_vectors",
                     sum(c.vectors for c in report.coverage))
        self.ctx.add("verify_mismatches", report.mismatch_count)
        return report

    # ------------------------------------------------------------------
    def _check_reference(self, ref: _Reference, pairs: Sequence[Pair],
                         stream: str, base: int, seed: int,
                         report: VerifyReport) -> None:
        """Internal invariants of the reference model itself.

        The detector must never miss an actual error, and the
        speculative result must equal the exact one iff the model calls
        the pair correct.
        """
        for i in range(len(pairs)):
            spec_ok = (ref.spec_sums[i] == ref.exact_sums[i]
                       and ref.spec_couts[i] == ref.exact_couts[i])
            flag_missed = not ref.flags[i] and not ref.correct[i]
            if spec_ok != ref.correct[i] or flag_missed:
                self._record(report, Discrepancy(
                    kind="reference", impl="functional", stream=stream,
                    width=self.width, window=self.window, index=base + i,
                    a=pairs[i][0], b=pairs[i][1],
                    expected={"correct": ref.correct[i],
                              "flag": ref.flags[i]},
                    got={"spec_matches_exact": spec_ok}, seed=seed,
                    family=self.family))

    def _compare(self, impl: Implementation, res: ImplResult,
                 ref: _Reference, pairs: Sequence[Pair], stream: str,
                 base: int, seed: int, report: VerifyReport,
                 cov: Coverage) -> None:
        exp_sums = (ref.spec_sums if impl.family == "speculative"
                    else ref.exact_sums)
        exp_couts = (ref.spec_couts if impl.family == "speculative"
                     else ref.exact_couts)
        checks: List[Tuple[str, Sequence, Sequence]] = []
        if res.sums != exp_sums:
            checks.append(("sum", exp_sums, res.sums))
        if res.couts is not None and res.couts != exp_couts:
            checks.append(("cout", exp_couts, res.couts))
        if res.flags is not None and res.flags != ref.flags:
            checks.append(("flag", ref.flags, res.flags))
        if res.latencies is not None:
            exp_lat = [1 + (self.recovery_cycles if f else 0)
                       for f in ref.flags]
            if res.latencies != exp_lat:
                checks.append(("latency", exp_lat, res.latencies))
        if res.spec_errors is not None:
            exp_err = [f and not c
                       for f, c in zip(ref.flags, ref.correct)]
            if res.spec_errors != exp_err:
                checks.append(("spec_error", exp_err, res.spec_errors))
        for kind, expected, got in checks:
            for i, (e, g) in enumerate(zip(expected, got)):
                if e != g:
                    cov.mismatches += 1
                    self.m_mismatch.inc()
                    self._record(report, self._discrepancy(
                        impl, kind, pairs[i], stream, base + i, seed,
                        e, g))
                    break  # first failing vector per kind per chunk

    def _discrepancy(self, impl: Implementation, kind: str, pair: Pair,
                     stream: str, index: int, seed: int,
                     expected: object, got: object) -> Discrepancy:
        a, b = pair
        disc = Discrepancy(kind=kind, impl=impl.name, stream=stream,
                           width=self.width, window=self.window,
                           index=index, a=a, b=b, expected=expected,
                           got=got, seed=seed, family=self.family)
        if self.shrink:
            predicate = self._predicate(impl, kind)
            sa, sb = shrink_pair(predicate, a, b, self.width)
            if (sa, sb) != (a, b):
                disc.shrunk_a, disc.shrunk_b = sa, sb
        return disc

    def _predicate(self, impl: Implementation,
                   kind: str) -> Callable[[int, int], bool]:
        """Single-pair "still fails" predicate for the shrinker."""

        def fails(a: int, b: int) -> bool:
            ref = self._reference([(a, b)])
            try:
                res = impl.run([(a, b)])
            except Exception:
                return True  # crashing on the candidate still counts
            if kind == "sum":
                exp = (ref.spec_sums if impl.family == "speculative"
                       else ref.exact_sums)
                return res.sums != exp
            if kind == "cout":
                exp = (ref.spec_couts if impl.family == "speculative"
                       else ref.exact_couts)
                return res.couts != exp
            if kind == "flag":
                return res.flags != ref.flags
            if kind == "latency":
                exp_lat = [1 + (self.recovery_cycles if f else 0)
                           for f in ref.flags]
                return res.latencies != exp_lat
            if kind == "spec_error":
                exp_err = [f and not c
                           for f, c in zip(ref.flags, ref.correct)]
                return res.spec_errors != exp_err
            return False

        return fails

    def _record(self, report: VerifyReport, disc: Discrepancy) -> None:
        if len(report.discrepancies) < self.max_discrepancies:
            report.discrepancies.append(disc)
            fields = {k: v for k, v in disc.as_dict().items()
                      if k not in ("expected", "got", "kind")}
            fields["mismatch_kind"] = disc.kind
            self.ctx.record_event("verify_discrepancy", **fields)

    # ------------------------------------------------------------------
    def _rate_checks(self, uniform: Dict[str, int],
                     impl_stalls: Dict[str, int],
                     report: VerifyReport) -> None:
        n = uniform["n"]
        if n == 0:
            return
        model = self._family_obj.error_model(self.width, **self.params)
        p_err = model.error_rate
        p_flag = model.flag_rate
        report.rate_checks.append(check_rate(
            "error_rate/reference", "uniform", uniform["errors"], n,
            p_err, self.z))
        report.rate_checks.append(check_rate(
            "detector_rate/reference", "uniform", uniform["flags"], n,
            p_flag, self.z))
        for name, stalls in sorted(impl_stalls.items()):
            report.rate_checks.append(check_rate(
                f"detector_rate/{name}", "uniform", stalls, n, p_flag,
                self.z))
        failed = sum(1 for rc in report.rate_checks if not rc.ok)
        if failed:
            self.m_stat_fail.inc(failed)
            self.ctx.record_event("verify_stat_failure", count=failed)
        self.ctx.add("verify_rate_checks", len(report.rate_checks))


# ----------------------------------------------------------------------
# Exhaustive small-width sweeps
# ----------------------------------------------------------------------
def _all_pairs(width: int, stride: int = 1,
               chunk: int = 4096) -> Iterable[List[Pair]]:
    """All ``(a, b)`` pairs (every *stride*-th, in index order)."""
    total = 1 << (2 * width)
    mask = (1 << width) - 1
    out: List[Pair] = []
    for idx in range(0, total, stride):
        out.append((idx >> width, idx & mask))
        if len(out) >= chunk:
            yield out
            out = []
    if out:
        yield out


def _exact_counts(width: int, window: int,
                  family: str = "aca") -> Tuple[int, int]:
    """Exact (error, flag) counts over all ``4^width`` operand pairs.

    The family's analytic model produces both probabilities as exact
    ``Fraction`` values whose denominators divide ``4^n``; multiplied by
    the pair-space size they are integers, checked here.
    """
    fam, params, _ = _resolved(family, width, window)
    model = fam.error_model(width, **params)
    total = 1 << (2 * width)
    err_count = model.exact_error_rate * total
    flag_count = model.exact_flag_rate * total
    if err_count.denominator != 1 or flag_count.denominator != 1:
        raise AssertionError(
            f"exact probabilities for family={family} n={width} "
            f"window={window} are not multiples of 4^-n: "
            f"{model.exact_error_rate}, {model.exact_flag_rate}")
    return int(err_count), int(flag_count)


def run_exhaustive(widths: Sequence[int],
                   windows: Optional[Sequence[int]] = None,
                   impls: Optional[Sequence[str]] = None,
                   recovery_cycles: int = 1, stride: int = 1,
                   chunk: int = 4096,
                   ctx: Optional[RunContext] = None,
                   registry: Optional[MetricsRegistry] = None,
                   shrink: bool = True,
                   family: str = "aca") -> VerifyReport:
    """Exhaustive (or strided) sweep over a small ``(width, window)`` grid.

    Args:
        widths: Bitwidths to enumerate (keep ``<= 10``; ``4^n`` pairs).
        windows: Primary-parameter values per width (default: every
            ``1..width``).
        impls: Implementation names (default: all registered for the
            width).
        recovery_cycles, ctx, registry, shrink: As for
            :class:`DifferentialVerifier`.
        stride: Check every *stride*-th pair (1 = complete; complete
            cells additionally get the exact count-equality check).
        family: Registered adder family to sweep.

    Returns:
        One merged :class:`VerifyReport` with an
        :class:`~repro.verify.report.ExhaustiveCell` per grid cell.
    """
    merged: Optional[VerifyReport] = None
    for width in widths:
        wins = list(windows) if windows is not None else (
            list(range(1, width + 1)))
        for window in wins:
            if window > width:
                continue
            names = (list(impls) if impls is not None
                     else default_implementations(width, family))
            verifier = DifferentialVerifier(
                width, window=window, impls=names,
                recovery_cycles=recovery_cycles, ctx=ctx,
                registry=registry, shrink=shrink, family=family)
            rep = verifier.run_pairs(
                _all_pairs(width, stride=stride, chunk=chunk),
                stream=f"exhaustive[{width},{window}]")
            rep.method = "exhaustive"
            totals = rep.totals  # type: ignore[attr-defined]
            complete = stride == 1
            cell = ExhaustiveCell(
                width=width, window=window, pairs=totals["n"],
                complete=complete,
                mismatches=sum(c.mismatches for c in rep.coverage),
                error_count=totals["errors"],
                flag_count=totals["flags"],
                family=family)
            if complete:
                exp_err, exp_flag = _exact_counts(width, window, family)
                cell.expected_error_count = exp_err
                cell.expected_flag_count = exp_flag
            rep.exhaustive.append(cell)
            # Grid cells fold their elementwise mismatch totals into the
            # cell record; drop per-impl coverage duplication of counts.
            merged = rep if merged is None else merged.merge(rep)
    if merged is None:
        merged = VerifyReport(width=0, window=0, seed=0, family=family,
                              method="exhaustive")
    return merged
