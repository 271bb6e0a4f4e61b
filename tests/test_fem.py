import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from trunclab import fem
from trunclab.fem import (
    Assembler,
    SolveError,
    build_unit_square_mesh,
    diff_norm,
    h10_seminorm,
    l2_error_against,
    l2_norm,
    qoi_nl,
    solve,
)
from trunclab.field import CoercivityError


def _ones(points):
    return np.ones(len(points))


def _zeros(points):
    return np.zeros(len(points))


def _manufactured(points):
    return np.sin(np.pi * points[:, 0]) * np.sin(np.pi * points[:, 1])


def _manufactured_source(points):
    return 2.0 * np.pi ** 2 * _manufactured(points)


def _system(mesh, coeff, source):
    """Interior stiffness matrix and load vector for pointwise callables."""
    assembler = Assembler(mesh)
    matrix = assembler.stiffness(assembler.coefficient_at_quad(coeff))
    return matrix, assembler.load(assembler.coefficient_at_quad(source))


def _solve(mesh, coeff, source):
    return solve(*_system(mesh, coeff, source), mesh)


def _band_of(dense, kd):
    """LAPACK upper band storage of a dense matrix: A[i, j] at band[kd + i - j, j]."""
    n = dense.shape[0]
    band = np.zeros((kd + 1, n))
    for d in range(kd + 1):
        band[kd - d, d:] = np.diagonal(dense, d)
    return band


def _csc_of(band):
    """The full symmetric CSC matrix whose upper triangle is the band."""
    kd, n = band.shape[0] - 1, band.shape[1]
    upper = sp.diags([band[kd - d, d:] for d in range(kd + 1)], range(kd + 1), shape=(n, n))
    return (upper + sp.triu(upper, 1).T).tocsc()


def test_mesh_m1_counts():
    mesh = build_unit_square_mesh(1)
    assert len(mesh.vertices) == 4
    assert len(mesh.triangles) == 2
    assert mesh.boundary_mask.all()
    assert mesh.interior.size == 0


def test_mesh_m2_counts():
    mesh = build_unit_square_mesh(2)
    assert len(mesh.vertices) == 9
    assert len(mesh.triangles) == 8
    assert mesh.interior.size == 1
    assert np.allclose(mesh.vertices[mesh.interior[0]], [0.5, 0.5])


def test_mesh_paper_scale_h():
    mesh = build_unit_square_mesh(32)
    assert mesh.h == 2.0 ** -5
    assert len(mesh.vertices) == 33 ** 2
    assert len(mesh.triangles) == 2 * 32 ** 2


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_mesh_invariants(m):
    mesh = build_unit_square_mesh(m)
    assert len(mesh.vertices) == (m + 1) ** 2
    assert len(mesh.triangles) == 2 * m * m
    v = mesh.vertices[mesh.triangles]
    area = 0.5 * (
        (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
        - (v[:, 1, 1] - v[:, 0, 1]) * (v[:, 2, 0] - v[:, 0, 0])
    )
    assert np.allclose(area, 0.5 / m ** 2, rtol=1e-12)
    assert np.all(area > 0)
    assert np.allclose(mesh.area, area, rtol=1e-14)
    # P1 basis functions sum to one, so their gradients sum to zero
    assert np.allclose(mesh.grads.sum(axis=1), 0.0, rtol=0, atol=1e-12)
    on_edge = (
        (mesh.vertices[:, 0] == 0)
        | (mesh.vertices[:, 0] == 1)
        | (mesh.vertices[:, 1] == 0)
        | (mesh.vertices[:, 1] == 1)
    )
    assert np.array_equal(mesh.boundary_mask, on_edge)


def test_mesh_rejects_zero():
    with pytest.raises(ValueError):
        build_unit_square_mesh(0)


def test_local_stiffness_reference_triangle():
    # the two triangles of the unit cell: (0,0),(1,0),(1,1) and (0,0),(1,1),(0,1)
    got = Assembler(build_unit_square_mesh(1)).element_base
    want = 0.5 * np.array(
        [
            [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]],
            [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [-1.0, -1.0, 2.0]],
        ]
    )
    assert np.allclose(got, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("m", [2, 5, 16])
def test_stiffness_matches_element_sum(m, rng):
    """Independent assembly: element matrices summed by scipy's COO format."""
    mesh = build_unit_square_mesh(m)
    assembler = Assembler(mesh)
    coeff = rng.uniform(0.5, 2.0, size=assembler.quad_points.shape[:2])
    got = assembler.stiffness(coeff)

    v = mesh.vertices[mesh.triangles]
    # edge opposite each corner; K_ij = a (e_i . e_j) / (4 area)
    edges = np.stack([v[:, 2] - v[:, 1], v[:, 0] - v[:, 2], v[:, 1] - v[:, 0]], axis=1)
    a, b = edges[:, 1], edges[:, 2]
    area = 0.5 * np.abs(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
    elem = np.einsum("tid,tjd->tij", edges, edges) / (4.0 * area[:, None, None])
    elem *= coeff.mean(axis=1)[:, None, None]
    renum = np.full(len(mesh.vertices), -1)
    renum[mesh.interior] = np.arange(mesh.interior.size)
    rows = np.repeat(renum[mesh.triangles], 3, axis=1).ravel()
    cols = np.tile(renum[mesh.triangles], 3).ravel()
    keep = (rows >= 0) & (cols >= 0)
    n = mesh.interior.size
    want = sp.coo_matrix(
        (elem.ravel()[keep], (rows[keep], cols[keep])), shape=(n, n)
    ).toarray()

    kd = assembler.half_bandwidth
    assert kd == (m if m > 2 else 0)  # row-major interior numbering
    offsets = np.subtract.outer(np.arange(n), np.arange(n))
    assert not np.any(want[np.abs(offsets) > kd])
    assert got.shape == (kd + 1, n)
    tol = 1e-15 * np.max(np.abs(want))
    assert np.max(np.abs(got - _band_of(want, kd))) <= tol
    assert np.max(np.abs(got - _band_of(want.T, kd))) <= tol


def test_zero_source_gives_zero_rhs_and_solution():
    mesh = build_unit_square_mesh(4)
    matrix, rhs = _system(mesh, _ones, _zeros)
    assert np.array_equal(rhs, np.zeros(mesh.interior.size))
    u = solve(matrix, rhs, mesh)
    assert np.array_equal(u, np.zeros(len(mesh.vertices)))


def test_constant_coefficient_scales_matrix():
    mesh = build_unit_square_mesh(4)
    base, _ = _system(mesh, _ones, _zeros)
    scaled, _ = _system(mesh, lambda p: 2.5 * np.ones(len(p)), _zeros)
    assert scaled.shape == base.shape
    assert np.max(np.abs(scaled - 2.5 * base)) <= 1e-14


def test_matrix_symmetry_exact():
    """The lower triangle the band drops equals its upper one bit for bit."""
    mesh = build_unit_square_mesh(8)
    assembler = Assembler(mesh)

    def wavy(points):
        return 1.5 + 0.4 * np.sin(3 * np.pi * points[:, 0]) * np.cos(points[:, 1])

    coeff = assembler.coefficient_at_quad(wavy)
    band = assembler.stiffness(coeff)
    # both triangles, summed from the same element entries in element order
    entries = (coeff @ assembler.quad_weights)[:, None, None] * assembler.element_base
    renum = np.full(len(mesh.vertices), -1)
    n = mesh.interior.size
    renum[mesh.interior] = np.arange(n)
    rows = np.repeat(renum[mesh.triangles], 3, axis=1).ravel()
    cols = np.tile(renum[mesh.triangles], 3).ravel()
    keep = (rows >= 0) & (cols >= 0)
    full = np.bincount(
        rows[keep] * n + cols[keep], weights=entries.ravel()[keep], minlength=n * n
    ).reshape(n, n)
    kd = assembler.half_bandwidth
    assert np.array_equal(full, full.T)
    assert np.array_equal(band, _band_of(full, kd))
    assert np.array_equal(band, _band_of(full.T, kd))


def test_nonpositive_coefficient_rejected():
    mesh = build_unit_square_mesh(4)

    def dips_negative(points):
        return 0.1 - points[:, 0]

    with pytest.raises(CoercivityError):
        _system(mesh, dips_negative, _zeros)


def test_manufactured_solution_nodal_accuracy():
    mesh = build_unit_square_mesh(32)
    u = _solve(mesh, _ones, _manufactured_source)
    exact = _manufactured(mesh.vertices)
    assert np.max(np.abs(u - exact)) <= 5e-3


def test_manufactured_error_quarters_when_h_halves():
    errs = []
    for m in (8, 16):
        mesh = build_unit_square_mesh(m)
        u = _solve(mesh, _ones, _manufactured_source)
        errs.append(l2_error_against(u, mesh, _manufactured))
    ratio = errs[0] / errs[1]
    assert 4.0 * 0.8 <= ratio <= 4.0 * 1.2


def test_mesh_convergence_order_window():
    errs = []
    for m in (8, 16, 32):
        mesh = build_unit_square_mesh(m)
        u = _solve(mesh, _ones, _manufactured_source)
        errs.append(l2_error_against(u, mesh, _manufactured))
    assert errs[0] > errs[1] > errs[2]
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    for order in orders:
        assert 1.8 <= order <= 2.2


def test_galerkin_residual_vanishes():
    mesh = build_unit_square_mesh(16)
    matrix, rhs = _system(mesh, _ones, _manufactured_source)
    u = solve(matrix, rhs, mesh)
    residual = rhs - _csc_of(matrix) @ u[mesh.interior]
    assert np.max(np.abs(residual)) <= 1e-9 * np.linalg.norm(rhs)


def test_coefficient_scaling_scales_solution():
    mesh = build_unit_square_mesh(8)
    u = _solve(mesh, _ones, _manufactured_source)
    c = 3.7

    def scaled_coeff(points):
        return c * np.ones(len(points))

    def scaled_source(points):
        return c * _manufactured_source(points)

    u_scaled = _solve(mesh, scaled_coeff, _manufactured_source)
    assert np.allclose(u_scaled, u / c, rtol=0, atol=1e-12)
    u_both = _solve(mesh, scaled_coeff, scaled_source)
    assert np.allclose(u_both, u, rtol=0, atol=1e-10)


def test_norms_of_zero_function():
    mesh = build_unit_square_mesh(4)
    u = np.zeros(len(mesh.vertices))
    assert l2_norm(u, mesh) == 0.0
    assert h10_seminorm(u, mesh) == 0.0
    assert qoi_nl(u, mesh) == 0.0


def test_h10_of_linear_interpolant_is_one():
    mesh = build_unit_square_mesh(6)
    assert h10_seminorm(mesh.vertices[:, 0], mesh) == pytest.approx(1.0, rel=1e-14)


def test_l2_of_linear_interpolant():
    # ||x1||_{L2}^2 = 1/3 over the unit square, P1 interpolation is exact
    mesh = build_unit_square_mesh(5)
    assert l2_norm(mesh.vertices[:, 0], mesh) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-13)


def test_diff_norm_of_identical_solutions(rng):
    mesh = build_unit_square_mesh(5)
    u = rng.normal(size=(3, len(mesh.vertices)))
    assert diff_norm(u, u, mesh, "L2").tolist() == [0.0] * 3
    assert diff_norm(u, u, mesh, "H10").tolist() == [0.0] * 3


def test_diff_norm_rows_match_single_functions(rng):
    mesh = build_unit_square_mesh(6)
    u = rng.normal(size=(4, len(mesh.vertices)))
    v = rng.normal(size=(4, len(mesh.vertices)))
    for which, norm in (("L2", l2_norm), ("H10", h10_seminorm)):
        got = diff_norm(u, v, mesh, which)
        want = [norm(a - b, mesh) for a, b in zip(u, v)]
        assert got.shape == (4,)
        assert np.allclose(got, want, rtol=1e-14, atol=0)


def test_diff_norm_rejects_mesh_mismatch():
    coarse, fine = build_unit_square_mesh(4), build_unit_square_mesh(8)
    u = coarse.vertices[:, 0][None]
    v = fine.vertices[:, 0][None]
    with pytest.raises(ValueError, match="vertex count"):
        diff_norm(u, v, coarse)
    with pytest.raises(ValueError, match="vertex count"):
        diff_norm(u, u, fine)


def test_diff_norm_rejects_unknown_kind():
    mesh = build_unit_square_mesh(3)
    u = np.zeros((1, len(mesh.vertices)))
    with pytest.raises(ValueError):
        diff_norm(u, u, mesh, "H2")


def test_qoi_is_squared_seminorm(rng):
    mesh = build_unit_square_mesh(7)
    for _ in range(10):
        u = rng.normal(size=len(mesh.vertices))
        seminorm = h10_seminorm(u, mesh)
        assert qoi_nl(u, mesh) == pytest.approx(seminorm ** 2, rel=1e-15)


def test_qoi_of_manufactured_interpolant():
    mesh = build_unit_square_mesh(32)
    u = _manufactured(mesh.vertices)
    assert qoi_nl(u, mesh) == pytest.approx(math.pi ** 2 / 2.0, rel=0.02)


def test_assembler_reuse_matches_fresh_assembly():
    mesh = build_unit_square_mesh(6)
    assembler = Assembler(mesh)

    def coeff_a(points):
        return 1.5 + 0.3 * points[:, 0]

    def coeff_b(points):
        return 2.0 - 0.5 * points[:, 1]

    for coeff in (coeff_a, coeff_b, coeff_a):
        reused = assembler.stiffness(assembler.coefficient_at_quad(coeff))
        fresh, _ = _system(mesh, coeff, _zeros)
        assert reused.shape == fresh.shape
        assert np.array_equal(reused, fresh)


def test_bad_quad_order_rejected():
    mesh = build_unit_square_mesh(3)
    for order in (1, 3):
        with pytest.raises(ValueError):
            Assembler(mesh, quad_order=order)


def test_solve_residual_contract_enforced(monkeypatch):
    mesh = build_unit_square_mesh(2)
    matrix, rhs = _system(mesh, _ones, _manufactured_source)
    # a zeroed matrix fails in the factorization
    with pytest.raises(SolveError):
        solve(matrix * 0.0, rhs, mesh)
    # a solve that returns a wrong answer fails the residual check; m = 2 has
    # one unknown, x = b / a, and its Cholesky factor is sqrt(a)
    monkeypatch.setattr(fem, "dpbtrs", lambda factor, b: (1.01 * b / factor[-1] ** 2, 0))
    with pytest.raises(SolveError, match="residual"):
        solve(matrix, rhs, mesh)


@pytest.mark.parametrize("m", [2, 5, 16, 32])
def test_solve_matches_splu(m, rng):
    """The banded Cholesky solve agrees with a direct sparse LU solve."""
    mesh = build_unit_square_mesh(m)
    assembler = Assembler(mesh)
    band = assembler.stiffness(rng.uniform(0.5, 2.0, size=assembler.quad_points.shape[:2]))
    rhs = rng.normal(size=mesh.interior.size)
    got = solve(band, rhs, mesh)[mesh.interior]
    want = spla.splu(_csc_of(band)).solve(rhs)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_solve_rejects_indefinite_band():
    mesh = build_unit_square_mesh(5)
    band, rhs = _system(mesh, _ones, _manufactured_source)
    band = band.copy()
    kd = band.shape[0] - 1
    band[kd, 3] = -band[kd, 3]  # a negative pivot at the fourth unknown
    with pytest.raises(SolveError, match="info = 4"):
        solve(band, rhs, mesh)
