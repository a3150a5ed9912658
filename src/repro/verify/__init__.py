"""Differential + formal verification subsystem.

"Bit-identical" is an invariant, not a comment: this package drives
every registered ACA/VLSA implementation — the compiled engine,
the legacy interpreter, the functional models, the cycle-accurate
machine, and the service executors — from one seeded vector stream,
cross-checks them elementwise, and tests their empirical error/detector
rates against the exact analytic model with binomial bounds.

Three methods of escalating strength share one report format
(:data:`VERIFY_METHODS`): ``statistical`` fuzzing, ``exhaustive``
small-width enumeration with exact count equality, and ``formal`` BDD
proof over the gate-level netlists (:mod:`repro.verify.formal`) —
recovery exactness and symbolic error-set characterisation at full
production width.  See :mod:`repro.verify.differential` for the fuzz
engine, :mod:`repro.verify.vectors` for the streams, and ``python -m
repro verify --help`` for the CLI front-end.
"""

from .differential import (
    DEFAULT_STREAMS,
    DifferentialVerifier,
    ImplResult,
    Implementation,
    VerificationError,
    available_implementations,
    default_implementations,
    make_implementation,
    register_implementation,
    run_exhaustive,
    unregister_implementation,
)
from .formal import prove_datapath, run_formal
from .report import (VERIFY_METHODS, Coverage, Discrepancy, ExhaustiveCell,
                     ProofCertificate, VerifyReport)
from .shrink import shrink_pair
from .stats import RateCheck, binomial_bounds, check_rate, wilson_interval
from .vectors import STREAMS, boundary_patterns, pair_stream

__all__ = [
    "DEFAULT_STREAMS",
    "STREAMS",
    "VERIFY_METHODS",
    "Coverage",
    "DifferentialVerifier",
    "Discrepancy",
    "ExhaustiveCell",
    "ImplResult",
    "Implementation",
    "ProofCertificate",
    "RateCheck",
    "VerificationError",
    "VerifyReport",
    "available_implementations",
    "binomial_bounds",
    "boundary_patterns",
    "check_rate",
    "default_implementations",
    "make_implementation",
    "pair_stream",
    "prove_datapath",
    "register_implementation",
    "run_exhaustive",
    "run_formal",
    "shrink_pair",
    "unregister_implementation",
    "wilson_interval",
]
