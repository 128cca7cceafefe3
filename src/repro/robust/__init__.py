"""Solver-recovery layer: escalation ladders, failure reports, fault injection.

Shared by every nonlinear and iterative solve in the tool family (DC,
transient, shooting, HB/MPDE, oscillator PSS, GMRES).  See
:mod:`repro.robust.policy` for the ladder engine and the named default
ladders, :mod:`repro.robust.report` for the structured attempt records
attached to analysis results, and :mod:`repro.robust.faultinject` for
the test harness that proves every rung fires and recovers.
"""

from repro.robust.diagnostics import (
    ON_INVALID_MODES,
    SEVERITIES,
    Diagnostic,
    ValidationError,
    ValidationReport,
    enforce,
)
from repro.robust.faultinject import (
    Chaos,
    ChaosSpec,
    FaultClock,
    FaultyMNASystem,
    TransientFault,
    active_chaos,
    chaos_scope,
    inject_error,
    inject_nan,
    inject_perturb,
    inject_singular,
    tear_final_line,
)
from repro.robust.krylov import DirectSolveResult, robust_direct_solve, robust_gmres
from repro.robust.policy import (
    ON_FAILURE_MODES,
    EscalationPolicy,
    RungOutcome,
    SolveFailure,
    run_ladder,
)
from repro.robust.report import AttemptRecord, SolveReport, SweepItemRecord

__all__ = [
    "ON_FAILURE_MODES",
    "ON_INVALID_MODES",
    "SEVERITIES",
    "AttemptRecord",
    "Chaos",
    "ChaosSpec",
    "Diagnostic",
    "DirectSolveResult",
    "EscalationPolicy",
    "FaultClock",
    "FaultyMNASystem",
    "RungOutcome",
    "SolveFailure",
    "SolveReport",
    "SweepItemRecord",
    "TransientFault",
    "ValidationError",
    "ValidationReport",
    "active_chaos",
    "chaos_scope",
    "enforce",
    "inject_error",
    "inject_nan",
    "inject_perturb",
    "inject_singular",
    "robust_direct_solve",
    "robust_gmres",
    "run_ladder",
    "tear_final_line",
]
