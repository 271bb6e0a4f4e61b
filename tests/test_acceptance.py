"""End-to-end acceptance gate for the truncation laboratory.

Every test here states its verdict on stdout as a single line

    ACCEPTANCE PASS: <what was checked> (<measured numbers>)

before asserting, so `pytest tests/test_acceptance.py -v -s` prints a
scoreboard even when something is red.  The desk-scale experiment runs
(mesh 16x16, 2^13 lattice nodes, reference dimension 512) are shared
session fixtures; the whole gate finishes in a few minutes on one core.
"""

import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from trunclab import fem, lattice, theory
from trunclab.experiment import (
    ExperimentConfig,
    PdeTruncationModel,
    distance_for,
    run_experiment,
)
from trunclab.field import (
    PERIODIC,
    DiffusionFieldSpec,
    truncate,
)
from trunclab.oracle import (
    ScalarTruncationModel,
    certified_theory_params,
    default_oracle_spec,
    exact_l2_truncation_error,
)

WORKERS = min(4, os.cpu_count() or 1)

DESK = ExperimentConfig(
    theta_list=(1.5, 2.0, 3.0),
    s_list=(4, 8, 16, 32, 64, 128, 256),
    s_ref=512,
    mesh_m=16,
    n_nodes=2 ** 13,
    seed=1,
)

# fit window: the top four truncation dimensions of the desk grid
FIT_S_MIN = 32

RATE_TOLERANCES = {1.5: 0.4, 2.0: 0.4, 3.0: 0.5}
QOI_TOLERANCE = 0.5
TRANSFORM_GAP_TOLERANCE = 0.3
ORACLE_QUADRATURE_RTOL = 1e-10
ORACLE_QMC_RTOL = 0.02
FIRST_TERM_SLOPE_ATOL = 1e-9
FEM_ORDER_WINDOW = (1.8, 2.2)


def _check(ok: bool, label: str, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {status}: {label} ({detail})"
    print(line)
    assert ok, line


def _tables_by_theta(results):
    return {float(table.metadata["theta"]): table for _, table in results}


@pytest.fixture(scope="session")
def full_tables(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_full")
    return _tables_by_theta(run_experiment(DESK, out, workers=WORKERS))


@pytest.fixture(scope="session")
def qoi_tables(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_qoi")
    config = replace(DESK, quantity="qoi_nl")
    return _tables_by_theta(run_experiment(config, out, workers=WORKERS))


@pytest.fixture(scope="session")
def identity_table(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_identity")
    config = replace(DESK, theta_list=(2.0,), transform="identity")
    (_, table), = run_experiment(config, out, workers=WORKERS)
    return table


def test_full_solution_rates_match_theory(full_tables):
    parts = []
    ok = True
    for theta, tol in sorted(RATE_TOLERANCES.items()):
        fit = theory.fit_rate(full_tables[theta], s_min=FIT_S_MIN)
        target = theory.expected_rate(theta)
        parts.append(f"theta={theta}: {fit.slope:.4f} vs {target} +/- {tol}")
        ok = ok and abs(fit.slope - target) <= tol
    _check(ok, "full-solution L2 rates, periodic field", "; ".join(parts))


def test_qoi_rates_match_theory(qoi_tables):
    parts = []
    ok = True
    for theta in sorted(RATE_TOLERANCES):
        fit = theory.fit_rate(qoi_tables[theta], s_min=FIT_S_MIN)
        target = theory.expected_rate(theta)
        parts.append(
            f"theta={theta}: {fit.slope:.4f} vs {target} +/- {QOI_TOLERANCE}"
        )
        ok = ok and abs(fit.slope - target) <= QOI_TOLERANCE
    _check(ok, "nonlinear-functional rates, periodic field", "; ".join(parts))


def test_identity_and_periodic_rates_agree(full_tables, identity_table):
    periodic = theory.fit_rate(full_tables[2.0], s_min=FIT_S_MIN).slope
    identity = theory.fit_rate(identity_table, s_min=FIT_S_MIN).slope
    gap = abs(identity - periodic)
    _check(
        gap <= TRANSFORM_GAP_TOLERANCE,
        "affine vs periodic rate agreement at theta=2.0",
        f"identity {identity:.4f}, periodic {periodic:.4f}, "
        f"gap {gap:.4f} <= {TRANSFORM_GAP_TOLERANCE}",
    )


def test_oracle_quadrature_and_qmc_agree():
    spec = default_oracle_spec()
    s_values = range(1, spec.s_prime)
    exact16 = [exact_l2_truncation_error(spec, s, q=16) for s in s_values]
    exact24 = [exact_l2_truncation_error(spec, s, q=24) for s in s_values]
    q_gap = max(abs(a - b) / b for a, b in zip(exact16, exact24))

    rule = lattice.lattice_rule(2 ** 14, lattice.load_builtin_vector(), seed=1)
    estimates = lattice.estimate_truncation_errors(
        ScalarTruncationModel(spec),
        list(s_values),
        spec.s_prime,
        rule,
        lattice.scalar_distance,
    )
    qmc_gap = max(
        abs(est - ex) / ex for est, ex in zip(estimates, exact16)
    )
    ok = q_gap <= ORACLE_QUADRATURE_RTOL and qmc_gap <= ORACLE_QMC_RTOL
    _check(
        ok,
        "closed-form oracle self-consistency",
        f"q=16 vs q=24 rel gap {q_gap:.3e} <= {ORACLE_QUADRATURE_RTOL}, "
        f"QMC at n=2^14 rel gap {qmc_gap:.3e} <= {ORACLE_QMC_RTOL}",
    )


def test_certified_bound_dominates_exact_error():
    spec = default_oracle_spec()
    p = theory.summability_exponent(2.0)
    params = certified_theory_params(spec, p)

    margins = []
    ok = True
    for s in range(1, spec.s_prime):
        bound = theory.truncation_upper_bound(params, s, moment="mu")
        exact_sq = exact_l2_truncation_error(spec, s, q=16) ** 2
        margins.append(bound / exact_sq)
        ok = ok and bound >= exact_sq

    term_a, _ = theory.truncation_upper_bound_terms(params, 512, moment="mu")
    term_b, _ = theory.truncation_upper_bound_terms(params, 1024, moment="mu")
    slope = math.log(term_b / term_a) / math.log(2.0)
    target = -2.0 / p + 1.0
    ok = ok and abs(slope - target) <= FIRST_TERM_SLOPE_ATOL
    _check(
        ok,
        "certified upper bound dominates the exact squared error",
        f"min margin {min(margins):.1f}x, first-term slope {slope:.10f} "
        f"vs {target:.10f}",
    )


def test_fem_convergence_orders():
    def exact(points):
        return np.sin(np.pi * points[:, 0]) * np.sin(np.pi * points[:, 1])

    def source(points):
        return 2.0 * np.pi ** 2 * exact(points)

    def ones(points):
        return np.ones(len(points))

    errors = []
    for m in (8, 16, 32):
        mesh = fem.build_unit_square_mesh(m)
        assembler = fem.Assembler(mesh)
        matrix = assembler.stiffness(assembler.coefficient_at_quad(ones))
        u = fem.solve(matrix, assembler.load(assembler.coefficient_at_quad(source)), mesh)
        errors.append(fem.l2_error_against(u, mesh, exact))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    lo, hi = FEM_ORDER_WINDOW
    ok = all(lo <= order <= hi for order in orders)
    _check(
        ok,
        "finite element L2 convergence order",
        f"orders {orders[0]:.4f}, {orders[1]:.4f} in [{lo}, {hi}]",
    )


def test_invariant_suite(full_tables, tmp_path_factory):
    failures = []

    # zero-mean transform: the periodic map integrates to zero on [-1/2, 1/2]
    nodes, weights = np.polynomial.legendre.leggauss(64)
    mean = 0.5 * weights @ PERIODIC.apply(0.5 * nodes)
    if abs(mean) > 1e-12:
        failures.append(f"zero-mean transform (mean {mean:.2e})")

    # tail bound dominates the tail it bounds
    b = np.array([float(j) ** -2.0 for j in range(1, 65)])
    p = theory.summability_exponent(2.0)
    for s in (1, 4, 16):
        if theory.stechkin_tail_bound(b, s, p) < theory.tail_sum(b, s):
            failures.append(f"tail bound at s={s}")

    # truncation is idempotent
    y = np.random.default_rng(7).uniform(-0.5, 0.5, size=16)
    once = truncate(y, 5)
    if not np.array_equal(truncate(once, 5), once):
        failures.append("truncate idempotence")

    # lattice nodes are periodic in the index
    rule = lattice.lattice_rule(2 ** 10, lattice.load_builtin_vector(), seed=1)
    if not np.array_equal(
        lattice.generate_nodes(rule, 3 + 2 ** 10, 4 + 2 ** 10, 8)[0],
        lattice.generate_nodes(rule, 3, 4, 8)[0],
    ):
        failures.append("node periodicity")

    # a repeated run writes byte-identical tables
    micro = ExperimentConfig(
        theta_list=(2.0,), s_list=(2, 4), s_ref=8, mesh_m=2, n_nodes=8, seed=5
    )
    base = tmp_path_factory.mktemp("accept_det")
    (p1, _), = run_experiment(micro, base / "a")
    (p2, _), = run_experiment(micro, base / "b")
    if Path(p1).read_bytes() != Path(p2).read_bytes():
        failures.append("run determinism")

    # the rate fitter recovers an exact power law to rounding
    rows = tuple((s, 2.0 * s ** -1.5) for s in (2, 4, 8, 16, 32, 64))
    fit = theory.fit_rate(theory.ErrorTable(rows, {"s_ref": "128"}), s_min=2)
    if abs(fit.slope + 1.5) > 1e-12 or fit.residual > 1e-12:
        failures.append(f"fit_rate exactness (slope {fit.slope!r})")

    # measured errors decrease with s (5% slack for cubature noise)
    for theta, table in sorted(full_tables.items()):
        errs = [err for _, err in table.rows]
        if any(errs[i + 1] > errs[i] * 1.05 for i in range(len(errs) - 1)):
            failures.append(f"monotone decrease (theta={theta})")

    _check(
        not failures,
        "invariant suite",
        "all hold" if not failures else "violated: " + ", ".join(failures),
    )


def test_cubature_budget_stability(full_tables):
    """Halving the node budget moves no fit-window error visibly.

    Not an acceptance criterion by itself: this guards the rate fits
    above against cubature noise masquerading as a truncation trend.
    """
    spec = DiffusionFieldSpec(decay=2.0, transform=PERIODIC, max_modes=DESK.s_ref)
    model = PdeTruncationModel(spec, mesh_m=DESK.mesh_m)
    rule = lattice.lattice_rule(DESK.n_nodes, lattice.load_builtin_vector(), seed=1)
    fit_s = [s for s in DESK.s_list if s >= FIT_S_MIN]
    half = lattice.estimate_truncation_errors(
        model,
        fit_s,
        DESK.s_ref,
        rule,
        distance_for("full_solution", "L2", model.assembler.mesh),
        n_used=DESK.n_nodes // 2,
        workers=WORKERS,
    )
    full = dict(full_tables[2.0].rows)
    for s, err_half in zip(fit_s, half):
        rel = abs(err_half - full[s]) / full[s]
        assert rel < 0.25, f"s={s}: half-budget estimate moved by {rel:.3f}"
