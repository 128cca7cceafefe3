"""Pre-flight validation tests + EM/ROM recovery under injected faults.

Covers the diagnostics layer end to end: every pathological fixture
(floating node, voltage-source loop, current-source cutset, zero-area
panel, tone mismatch, ...) must yield a structured
:class:`~repro.robust.diagnostics.Diagnostic` with its stable code;
``on_invalid="warn"`` must degrade gracefully; and the EM/ROM solve
paths must escalate through their recovery ladders when the fault
harness corrupts their operators.
"""

import itertools
import warnings

import numpy as np
import pytest

from repro.analysis import dc_analysis, transient_analysis
from repro.analysis.shooting import shooting_analysis
from repro.em.fdsolver import Box, FDLaplaceSolver
from repro.em.geometry import Panel, Segment, make_plate
from repro.em.ies3 import compress_operator
from repro.em.mom import capacitance_matrix, capacitance_matrix_fast
from repro.em.peec import SpiralInductor
from repro.hb import harmonic_balance
from repro.netlist import Circuit, NetlistError, Sine, parse_netlist
from repro.robust import (
    FaultClock,
    FaultyMNASystem,
    ValidationError,
    ValidationReport,
    enforce,
    inject_error,
    inject_nan,
    robust_direct_solve,
)
from repro.robust.validate import (
    _tone_covers,
    lint_analysis,
    lint_circuit,
    lint_fd_grid,
    lint_mna,
    lint_panels,
    lint_segments,
    preflight,
)
from repro.rom.krylov import arnoldi
from repro.rom.statespace import DescriptorSystem


# ---------------------------------------------------------------------------
# topology lint fixtures
# ---------------------------------------------------------------------------


def healthy_circuit():
    ckt = Circuit("healthy")
    ckt.vsource("V1", "in", "0", 1.0)
    ckt.resistor("R1", "in", "out", 1e3)
    ckt.capacitor("C1", "out", "0", 1e-9)
    ckt.resistor("R2", "out", "0", 1e4)
    return ckt


def test_healthy_circuit_lints_clean():
    rep = lint_circuit(healthy_circuit())
    assert rep.ok
    assert len(rep) == 0


def test_floating_subgraph_detected():
    ckt = healthy_circuit()
    ckt.resistor("R9", "a", "b", 1e3)  # island, no path to ground
    rep = lint_circuit(ckt)
    assert rep.has("TOPO_FLOATING_SUBGRAPH")
    diag = rep.by_code("TOPO_FLOATING_SUBGRAPH")[0]
    assert diag.severity == "error"
    assert diag.suggestion  # a concrete fix is proposed
    with pytest.raises(ValidationError) as err:
        ckt.compile(on_invalid="raise")
    assert err.value.report.has("TOPO_FLOATING_SUBGRAPH")


def test_vsource_loop_detected():
    ckt = Circuit("vloop")
    ckt.vsource("V1", "a", "0", 1.0)
    ckt.vsource("V2", "a", "0", 2.0)
    ckt.resistor("R1", "a", "0", 1e3)
    rep = lint_circuit(ckt)
    assert rep.has("TOPO_VSOURCE_LOOP")
    assert rep.by_code("TOPO_VSOURCE_LOOP")[0].severity == "error"


def test_inductor_loop_detected():
    ckt = Circuit("lloop")
    ckt.vsource("V1", "a", "0", 1.0)
    ckt.resistor("R1", "a", "b", 10.0)
    ckt.inductor("L1", "b", "0", 1e-9)
    ckt.inductor("L2", "b", "0", 2e-9)
    rep = lint_circuit(ckt)
    assert rep.has("TOPO_INDUCTOR_LOOP")


def test_current_cutset_detected():
    ckt = Circuit("cutset")
    ckt.isource("I1", "x", "0", 1e-3)
    ckt.capacitor("C1", "x", "0", 1e-12)  # no DC return path
    rep = lint_circuit(ckt)
    assert rep.has("TOPO_CURRENT_CUTSET")
    assert rep.by_code("TOPO_CURRENT_CUTSET")[0].severity == "error"


def test_dangling_node_is_warning_only():
    ckt = healthy_circuit()
    ckt.resistor("R9", "out", "stub", 1e3)
    rep = lint_circuit(ckt)
    assert rep.has("TOPO_DANGLING_NODE")
    assert rep.ok  # warnings do not invalidate
    ckt.compile(on_invalid="raise")  # and do not raise


def test_no_ground_detected():
    ckt = Circuit("noground")
    ckt.resistor("R1", "a", "b", 1e3)
    ckt.capacitor("C1", "a", "b", 1e-12)
    rep = lint_circuit(ckt)
    assert rep.has("TOPO_NO_GROUND")


def test_nonfinite_device_param_detected():
    ckt = healthy_circuit()
    ckt.resistor("R9", "in", "0", float("nan"))
    rep = lint_circuit(ckt)
    assert rep.has("DEV_NONFINITE_PARAM")
    assert "R9" in rep.by_code("DEV_NONFINITE_PARAM")[0].location


# ---------------------------------------------------------------------------
# on_invalid policy
# ---------------------------------------------------------------------------


def broken_circuit():
    ckt = healthy_circuit()
    ckt.resistor("R9", "a", "b", 1e3)
    return ckt


def test_on_invalid_warn_degrades_gracefully():
    ckt = broken_circuit()
    with pytest.warns(RuntimeWarning, match="TOPO_FLOATING_SUBGRAPH"):
        system = ckt.compile(on_invalid="warn")
    # the report still travels with the compiled system
    assert system.validation is not None
    assert system.validation.has("TOPO_FLOATING_SUBGRAPH")


def test_on_invalid_ignore_attaches_report_silently():
    ckt = broken_circuit()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        system = ckt.compile(on_invalid="ignore")
    assert system.validation.has("TOPO_FLOATING_SUBGRAPH")


def test_on_invalid_default_compile_records_only():
    system = broken_circuit().compile()
    assert system.validation.has("TOPO_FLOATING_SUBGRAPH")


def test_on_invalid_rejects_unknown_mode():
    rep = ValidationReport()
    with pytest.raises(ValueError, match="on_invalid"):
        enforce(rep, "explode")


def test_dc_analysis_attaches_validation():
    sys_ = healthy_circuit().compile()
    res = dc_analysis(sys_)
    assert res.validation is not None and res.validation.ok


def test_dc_analysis_raises_on_invalid_input():
    sys_ = broken_circuit().compile()
    with pytest.raises(ValidationError):
        dc_analysis(sys_, on_invalid="raise")


# ---------------------------------------------------------------------------
# analysis-setup lint
# ---------------------------------------------------------------------------


def test_transient_nonpositive_timestep():
    sys_ = healthy_circuit().compile()
    with pytest.raises(ValidationError) as err:
        transient_analysis(sys_, t_stop=1e-6, dt=0.0)
    assert err.value.report.has("AN_TIMESTEP_NONPOSITIVE")


def test_transient_coarse_timestep_warns_not_raises():
    ckt = Circuit("fast")
    ckt.vsource("V1", "in", "0", Sine(1.0, 1e9))
    ckt.resistor("R1", "in", "0", 50.0)
    sys_ = ckt.compile()
    rep = preflight(sys_, "transient", dt=1e-8, t_stop=1e-6)
    assert rep.has("AN_TIMESTEP_COARSE")
    assert rep.ok  # warning severity


def test_hb_tone_mismatch():
    ckt = Circuit("twotone")
    ckt.vsource("V1", "in", "0", Sine(1.0, 1e6))
    ckt.resistor("R1", "in", "0", 50.0)
    sys_ = ckt.compile()
    rep = lint_analysis(sys_, "hb", freqs=[1.7e6])
    assert rep.has("AN_TONE_MISMATCH")
    with pytest.raises(ValidationError):
        harmonic_balance(sys_, freqs=[1.7e6], harmonics=4)


def test_hb_zero_amplitude_probe_is_not_a_mismatch():
    ckt = Circuit("probe")
    ckt.vsource("V1", "in", "0", Sine(1.0, 1e6))
    ckt.vsource("Vprobe", "p", "0", Sine(0.0, 9e5))  # pnoise-style probe
    ckt.resistor("R1", "in", "0", 50.0)
    ckt.resistor("R2", "p", "0", 50.0)
    sys_ = ckt.compile()
    rep = lint_analysis(sys_, "hb", freqs=[1e6])
    assert not rep.has("AN_TONE_MISMATCH")


def _tone_covers_loop(target, freqs, kmax=8):
    """The tone-coverage search written as the plain loop over every
    combination, summing ``k_i * f_i`` left to right: the reference the
    vectorized lint must agree with on every answer."""
    freqs = [f for f in freqs if f > 0]
    if not freqs:
        return False
    if len(freqs) > 3:
        return any(
            abs(target - k * f) <= 1e-6 * target for f in freqs for k in range(1, kmax + 1)
        )
    for combo in itertools.product(range(-kmax, kmax + 1), repeat=len(freqs)):
        if all(k == 0 for k in combo):
            continue
        mix = sum(k * f for k, f in zip(combo, freqs))
        if abs(target - abs(mix)) <= 1e-6 * target:
            return True
    return False


def test_tone_covers_matches_reference_loop():
    """Random 1-3 tone sets, with targets on a mix product, off every
    mix product, and within a few ulps of the 1e-6 relative tolerance on
    either side of it."""
    rng = np.random.default_rng(2024)
    answers = []
    for _ in range(60):
        d = int(rng.integers(1, 4))
        freqs = list(10.0 ** rng.uniform(3, 9, size=d))
        if d > 1 and rng.random() < 0.5:  # near-commensurate tones
            freqs[1] = freqs[0] * int(rng.integers(2, 9)) + float(rng.uniform(-1, 1))
        k = rng.integers(-8, 9, size=d)
        if not k.any():
            k[0] = 1
        mix = abs(sum(int(ki) * f for ki, f in zip(k, freqs)))
        targets = [mix, float(rng.uniform(0.5, 2.0)) * max(freqs), 9.5 * freqs[0]]
        for side in (-1.0, 1.0):
            edge = mix / (1.0 - side * 1e-6)  # |target - mix| == 1e-6 target
            targets += [np.nextafter(edge, edge + step) for step in (-np.inf, 0.0, np.inf)]
            targets += [edge * (1.0 + 4e-16 * j) for j in (-2, 2)]
        for target in targets:
            want = _tone_covers_loop(target, freqs)
            assert _tone_covers(target, freqs) is want, (target, freqs)
            answers.append(want)
    # both outcomes occur, edges included
    assert 0.2 < np.mean(answers) < 0.9


def test_shooting_nonpositive_period():
    sys_ = healthy_circuit().compile()
    with pytest.raises(ValidationError) as err:
        shooting_analysis(sys_, period=0.0)
    assert err.value.report.has("AN_PERIOD_NONPOSITIVE")


# ---------------------------------------------------------------------------
# MNA numerical-health probes
# ---------------------------------------------------------------------------


def test_mna_probe_clean_circuit():
    sys_ = healthy_circuit().compile()
    rep = lint_mna(sys_)
    assert rep.ok


def test_mna_probe_flags_poor_scaling():
    ckt = Circuit("scaling")
    ckt.vsource("V1", "a", "0", 1.0)
    ckt.resistor("R1", "a", "b", 1e-12)
    ckt.resistor("R2", "b", "0", 1e12)
    sys_ = ckt.compile()
    rep = lint_mna(sys_)
    assert rep.has("MNA_POOR_SCALING") or rep.has("MNA_ILL_CONDITIONED")


def test_preflight_skips_numeric_probe_on_fault_proxy():
    sys_ = healthy_circuit().compile()
    clock = FaultClock(start=1, count=None)
    proxy = FaultyMNASystem(sys_, G=inject_nan(sys_.G, clock))
    rep = preflight(proxy, "dc", numeric=True)
    assert rep.ok
    assert clock.calls == 0  # lint never consumed the fault schedule


# ---------------------------------------------------------------------------
# EM geometry lint
# ---------------------------------------------------------------------------


def zero_area_panel():
    return Panel(np.zeros(3), np.zeros(3), np.array([0.0, 1e-6, 0.0]))


def test_zero_area_panel_detected():
    panels = make_plate(1e-3, 1e-3, 2, 2) + [zero_area_panel()]
    rep = lint_panels(panels)
    assert rep.has("EM_ZERO_AREA_PANEL")
    with pytest.raises(ValidationError):
        capacitance_matrix(panels)


def test_overlapping_panels_detected():
    p = make_plate(1e-3, 1e-3, 2, 2)
    rep = lint_panels(p + [p[0]])
    assert rep.has("EM_OVERLAPPING_PANELS")


def test_extreme_aspect_panel_warns():
    skinny = Panel(np.zeros(3), np.array([1e-3, 0, 0]), np.array([0, 1e-9, 0]))
    rep = lint_panels([skinny])
    assert rep.has("EM_EXTREME_ASPECT")


def test_zero_length_segment_detected():
    segs = [Segment(np.zeros(3), np.zeros(3), 1e-6, 1e-6)]
    rep = lint_segments(segs)
    assert rep.has("EM_ZERO_LENGTH_SEGMENT")


def test_fd_inverted_box_detected():
    rep = lint_fd_grid((1.0, 1.0, 1.0), (10, 10, 10),
                       [Box((0.7, 0.3, 0.3), (0.3, 0.7, 0.7), 0)])
    assert rep.has("FD_BOX_INVERTED")
    with pytest.raises(ValidationError):
        FDLaplaceSolver((1.0, 1.0, 1.0), (10, 10, 10),
                        [Box((0.7, 0.3, 0.3), (0.3, 0.7, 0.7), 0)])


def test_fd_solver_warn_mode_still_builds():
    with pytest.warns(RuntimeWarning, match="FD_BOX_INVERTED"):
        solver = FDLaplaceSolver(
            (1.0, 1.0, 1.0), (10, 10, 10),
            [Box((0.7, 0.3, 0.3), (0.3, 0.7, 0.7), 0)],
            on_invalid="warn",
        )
    assert solver.validation is not None and not solver.validation.ok


def test_spiral_inductor_carries_validation():
    coil = SpiralInductor(turns=2, nw=1, nt=1)
    assert coil.validation is not None and coil.validation.ok


# ---------------------------------------------------------------------------
# parser line numbers (satellite 1) and branch() message (satellite 2)
# ---------------------------------------------------------------------------


def test_parse_error_carries_line_and_file():
    text = "title card\nV1 in 0 1.0\nR1 in out garbage\n.end\n"
    with pytest.raises(NetlistError) as err:
        parse_netlist(text, filename="bad.cir")
    assert err.value.line_no == 3
    assert err.value.filename == "bad.cir"
    assert "bad.cir:3" in str(err.value)


def test_parse_error_too_few_fields_located():
    text = "title card\nR1 in\n.end\n"
    with pytest.raises(NetlistError) as err:
        parse_netlist(text)
    assert err.value.line_no == 2
    assert "line 2" in str(err.value)


def test_branch_keyerror_lists_available_devices():
    sys_ = healthy_circuit().compile()
    with pytest.raises(KeyError) as err:
        sys_.branch("R1")  # resistors carry no branch current
    assert "V1" in str(err.value)


# ---------------------------------------------------------------------------
# CLI linter
# ---------------------------------------------------------------------------


def test_cli_lints_bundled_netlists(tmp_path, capsys):
    from repro.validate import main

    import pathlib

    netlists = sorted(
        str(p)
        for p in (pathlib.Path(__file__).parent.parent / "examples" / "netlists").glob("*.cir")
    )
    assert netlists, "bundled example netlists must exist"
    assert main(netlists) == 0

    bad = tmp_path / "bad.cir"
    bad.write_text("fixture\nV1 a 0 1.0\nV2 a 0 2.0\nR1 a 0 1k\n.end\n")
    assert main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "TOPO_VSOURCE_LOOP" in out


def test_cli_reports_parse_errors_without_crashing(tmp_path, capsys):
    from repro.validate import main

    bad = tmp_path / "broken.cir"
    bad.write_text("fixture\nR1 in out nonsense\n.end\n")
    assert main([str(bad)]) == 1
    assert "PARSE_ERROR" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# EM recovery under injected faults
# ---------------------------------------------------------------------------


def fd_case():
    return FDLaplaceSolver(
        (1.0, 1.0, 1.0), (8, 8, 8),
        [Box((0.3, 0.3, 0.4), (0.7, 0.7, 0.6), 0)],
    )


def test_fd_solver_recovers_from_poisoned_matvec():
    clean = fd_case().solve(estimate_condition=False)
    solver = fd_case()
    clock = FaultClock(start=1, count=1)
    solver._matvec = inject_nan(solver._matvec, clock)
    res = solver.solve(estimate_condition=False)
    assert clock.fired == 1
    cg = [a for a in res.report.attempts if a.strategy == "cg"]
    assert cg and not cg[0].converged
    assert res.report.converged  # a GMRES rung rescued the solve
    assert np.allclose(res.cap_matrix, clean.cap_matrix, rtol=1e-4)


def test_fd_report_records_clean_cg_fast_path():
    res = fd_case().solve(estimate_condition=False)
    assert res.report.converged
    assert res.report.attempts[0].strategy == "cg"
    assert res.report.attempts[0].converged


def test_ies3_solve_recovers_from_injected_error():
    panels = make_plate(1e-3, 1e-3, 6, 6)
    from repro.em.kernels import PanelKernel

    kern = PanelKernel(panels)
    op = compress_operator(kern.block, kern.centers, leaf_size=8)
    rhs = np.ones(op.n)
    clean = op.solve(rhs, tol=1e-10)
    assert clean.converged

    clock = FaultClock(start=1, count=1)
    op.matvec = inject_error(op.matvec, clock)
    res = op.solve(rhs, tol=1e-10)
    assert clock.fired == 1
    assert res.converged
    assert not res.report.attempts[0].converged  # first rung took the fault
    assert res.report.attempts[-1].converged
    assert np.allclose(res.x, clean.x, rtol=1e-6)


def test_ies3_aca_svd_fallback_fires_on_rough_kernel():
    # oscillatory pseudo-random kernel: far-field blocks are numerically
    # full-rank, so the truncated ACA cross fails the sampled residual
    # check and the dense-SVD recompression path must take over
    n = 96
    points = np.zeros((n, 3))
    points[:, 0] = np.arange(n, dtype=float)

    def entry(rows, cols):
        r = np.asarray(rows, dtype=float)[:, None]
        c = np.asarray(cols, dtype=float)[None, :]
        return np.sin(12.9898 * r + 78.233 * c) * np.cos(3.7 * r * c + 1.3)

    op = compress_operator(entry, points, leaf_size=12, tol=1e-8, max_rank=4)
    assert op.stats.svd_fallback_blocks > 0


def test_mom_fast_carries_report_and_validation():
    panels = make_plate(1e-3, 1e-3, 4, 4)
    res = capacitance_matrix_fast(panels)
    assert res.validation is not None and res.validation.ok
    assert res.report is not None and res.report.converged


# ---------------------------------------------------------------------------
# ROM recovery
# ---------------------------------------------------------------------------


def test_robust_direct_solve_singular_consistent():
    A = np.diag([1.0, 1.0, 0.0])
    b = np.array([1.0, 2.0, 0.0])
    res = robust_direct_solve(A, b, on_failure="best_effort")
    assert res.converged
    assert res.report.strategy in ("gmres-jacobi", "lstsq")
    assert np.allclose(A @ res.x, b, atol=1e-8)


def test_descriptor_transfer_survives_pole_probe():
    G = np.diag([1.0, 1.0, 0.0])
    B = np.array([[1.0], [0.0], [0.0]])
    d = DescriptorSystem(C=np.zeros((3, 3)), G=G, B=B, L=B.copy())
    rep = ValidationReport()  # unused; transfer takes a SolveReport
    from repro.robust import SolveReport

    srep = SolveReport(analysis="rom")
    H = d.transfer([0.0], on_failure="best_effort", report=srep)
    assert np.all(np.isfinite(H))
    assert len(srep.attempts) >= 1
    assert np.isclose(H[0, 0, 0].real, 1.0)


def test_arnoldi_survives_singular_expansion_point():
    import scipy.sparse as sp

    G = sp.csr_matrix(np.diag([1.0, 2.0, 0.0]))
    C = sp.identity(3, format="csr")
    B = np.array([[1.0], [1.0], [0.0]])  # in the range of the singular G
    red = arnoldi(DescriptorSystem(C=C, G=G, B=B, L=B.copy()), q=2, s0=0.0)
    assert red.order >= 1
    assert np.all(np.isfinite(red.G))


def test_cli_json_output_machine_readable(tmp_path, capsys):
    """``--json`` emits one structured document scripts can consume."""
    import json

    from repro.validate import main

    good = tmp_path / "good.cir"
    good.write_text("fixture\nV1 in 0 1.0\nR1 in 0 1k\n.end\n")
    bad = tmp_path / "bad.cir"
    bad.write_text("fixture\nR1 in out nonsense\n.end\n")
    assert main(["--json", str(good), str(bad)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    assert doc["files"] == 2 and doc["failed"] == 1
    reports = {r["subject"]: r for r in doc["reports"]}
    assert reports[str(good)]["failed"] is False
    bad_rep = reports[str(bad)]
    assert bad_rep["failed"] is True and bad_rep["errors"] >= 1
    diag = next(d for d in bad_rep["diagnostics"] if d["code"] == "PARSE_ERROR")
    assert diag["severity"] == "error"
    assert diag["location"].startswith(str(bad))  # file:line for tooling


def test_cli_json_strict_promotes_warnings(tmp_path, capsys):
    import json

    from repro.validate import main

    # compiles fine but carries a warning-severity diagnostic (dangling
    # internal node)
    warny = tmp_path / "warny.cir"
    warny.write_text(
        "fixture\nV1 in 0 1.0\nR1 in mid 1k\nR2 mid 0 1k\nR3 mid dangle 1k\n.end\n"
    )
    assert main(["--json", str(warny)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True and doc["strict"] is False
    assert main(["--json", "--strict", str(warny)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False and doc["strict"] is True
    assert doc["reports"][0]["failed"] is True
    assert doc["reports"][0]["errors"] == 0  # warnings did the failing


def test_cli_exit_code_2_on_usage_error(capsys):
    from repro.validate import main

    assert main([]) == 2
    assert main(["--json"]) == 2
    assert "no netlist files" in capsys.readouterr().err
