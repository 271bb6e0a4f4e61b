"""P1 finite elements for -div(a grad u) = f on the unit square.

Uniform right-triangle mesh (every grid cell split along its lower-left to
upper-right diagonal), conforming piecewise-linear elements, homogeneous
Dirichlet conditions imposed by eliminating boundary vertices.  Norms of
piecewise-linear functions are integrated element-exactly; the variable
coefficient in the stiffness form is sampled by a symmetric triangle
quadrature rule.

Pointwise data (coefficient, source, exact solutions) enters through
callables that map an (P, 2) array of points to (P,) values.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .field import CoercivityError

SOLVER_RTOL = 1e-10


class SolveError(Exception):
    """The linear solver missed the residual contract."""


# Symmetric quadrature rules on the reference triangle in barycentric
# coordinates; weights sum to one (multiply by the element area).
_QUAD_BARY = {
    2: (
        np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
        np.full(3, 1 / 3),
    ),
    # degree-5 seven-point rule (centroid plus two symmetric orbits)
    5: (
        np.array(
            [
                [1 / 3, 1 / 3, 1 / 3],
                [0.797426985353087, 0.101286507323456, 0.101286507323456],
                [0.101286507323456, 0.797426985353087, 0.101286507323456],
                [0.101286507323456, 0.101286507323456, 0.797426985353087],
                [0.059715871789770, 0.470142064105115, 0.470142064105115],
                [0.470142064105115, 0.059715871789770, 0.470142064105115],
                [0.470142064105115, 0.470142064105115, 0.059715871789770],
            ]
        ),
        np.array(
            [
                0.225,
                0.125939180544827,
                0.125939180544827,
                0.125939180544827,
                0.132394152788506,
                0.132394152788506,
                0.132394152788506,
            ]
        ),
    ),
}


@dataclass(frozen=True)
class TriangularMesh:
    """Uniform triangulation of the unit square with m subdivisions per side."""

    m: int
    vertices: np.ndarray      # (n_vertices, 2)
    triangles: np.ndarray     # (n_triangles, 3), counterclockwise
    boundary_mask: np.ndarray  # (n_vertices,) bool
    area: np.ndarray          # (n_triangles,) triangle areas
    grads: np.ndarray         # (n_triangles, 3, 2) P1 basis gradients

    @property
    def h(self) -> float:
        return 1.0 / self.m

    @property
    def interior(self):
        return np.flatnonzero(~self.boundary_mask)


def build_unit_square_mesh(m: int) -> TriangularMesh:
    """Mesh the unit square with 2*m*m right triangles.

    Vertices are laid out row by row (x1 varying fastest), each cell is
    split along its lower-left to upper-right diagonal, and both triangles
    of a cell are oriented counterclockwise.
    """
    if m < 1:
        raise ValueError(f"m = {m} must be a positive integer")
    side = np.linspace(0.0, 1.0, m + 1)
    xx, yy = np.meshgrid(side, side)
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    ix, iy = np.meshgrid(np.arange(m), np.arange(m))
    ll = (iy * (m + 1) + ix).ravel()
    lr = ll + 1
    ul = ll + (m + 1)
    ur = ul + 1
    triangles = np.empty((2 * m * m, 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([ll, lr, ur])
    triangles[1::2] = np.column_stack([ll, ur, ul])
    idx = np.arange((m + 1) * (m + 1))
    gx = idx % (m + 1)
    gy = idx // (m + 1)
    boundary = (gx == 0) | (gx == m) | (gy == 0) | (gy == m)
    area, grads = _triangle_geometry(vertices[triangles])
    for arr in (vertices, triangles, boundary, area, grads):
        arr.setflags(write=False)
    return TriangularMesh(
        m=m, vertices=vertices, triangles=triangles, boundary_mask=boundary,
        area=area, grads=grads,
    )


def _triangle_geometry(v):
    """Signed areas (T,) and P1 basis gradients (T, 3, 2) of (T, 3, 2) corners."""
    det = (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1]) - (
        v[:, 1, 1] - v[:, 0, 1]
    ) * (v[:, 2, 0] - v[:, 0, 0])
    grads = np.empty((v.shape[0], 3, 2))
    grads[:, 0, 0] = v[:, 1, 1] - v[:, 2, 1]
    grads[:, 0, 1] = v[:, 2, 0] - v[:, 1, 0]
    grads[:, 1, 0] = v[:, 2, 1] - v[:, 0, 1]
    grads[:, 1, 1] = v[:, 0, 0] - v[:, 2, 0]
    grads[:, 2, 0] = v[:, 0, 1] - v[:, 1, 1]
    grads[:, 2, 1] = v[:, 1, 0] - v[:, 0, 0]
    grads /= det[:, None, None]
    return 0.5 * det, grads


class Assembler:
    """Precomputed assembly workspace for one mesh and quadrature order.

    Element matrices, quadrature points, and the scatter of element entries
    into band storage are built once, so reassembling for a new coefficient
    costs one scaled scatter-add.  This is what makes parametric sweeps with
    tens of thousands of assemblies practical.  Instances are immutable after
    construction and safe to share; process pools copy them wholesale.
    """

    def __init__(self, mesh: TriangularMesh, quad_order: int = 2):
        if quad_order not in _QUAD_BARY:
            raise ValueError(
                f"quad_order {quad_order} unsupported, choose one of {sorted(_QUAD_BARY)}"
            )
        self.mesh = mesh
        bary, qweights = _QUAD_BARY[quad_order]
        self.quad_weights = qweights
        self.basis_at_quad = bary
        v = mesh.vertices[mesh.triangles]
        self.quad_points = np.einsum("qb,tbd->tqd", bary, v)
        self.element_base = mesh.area[:, None, None] * np.einsum(
            "tid,tjd->tij", mesh.grads, mesh.grads
        )

        interior = mesh.interior
        self.interior = interior
        n_int = interior.size
        self.n_interior = n_int
        renum = np.full(len(mesh.vertices), -1, dtype=np.int64)
        renum[interior] = np.arange(n_int)
        li = np.repeat(np.arange(3), 3)
        lj = np.tile(np.arange(3), 3)
        rows = renum[mesh.triangles[:, li].ravel()]
        cols = renum[mesh.triangles[:, lj].ravel()]
        # the matrix is exactly symmetric (see stiffness), so its upper
        # triangle holds all of it; rows <= cols makes cols interior too
        keep = (rows >= 0) & (rows <= cols)
        self._keep = keep
        rows, cols = rows[keep], cols[keep]
        # m for the uniform mesh: neighbours are at most a grid row apart
        self.half_bandwidth = kd = int(np.max(cols - rows, initial=0))
        # LAPACK upper band storage puts A[i, j] at band[kd + i - j, j]; the
        # slots are numbered column by column, so the band is Fortran-ordered
        self._scatter = cols * (kd + 1) + (kd + rows - cols)
        self._nnz = (kd + 1) * n_int

    def coefficient_at_quad(self, fn):
        """Sample a pointwise callable at all quadrature points, shape (T, Q)."""
        flat = self.quad_points.reshape(-1, 2)
        vals = np.asarray(fn(flat), dtype=float)
        if vals.shape != (flat.shape[0],):
            raise ValueError("pointwise callables must map (P, 2) points to (P,) values")
        return vals.reshape(self.quad_points.shape[:2])

    def stiffness(self, coeff_at_quad) -> np.ndarray:
        """Interior stiffness matrix from coefficient samples of shape (T, Q).

        Quadrature of the bilinear form reduces, for P1 gradients, to
        scaling each precomputed element matrix by the quadrature average of
        the coefficient.  Symmetry of the matrix is exact: both (i, j) and
        (j, i) accumulate identical floats in identical order.  So only the
        upper triangle is summed, straight into the (kd + 1, n) LAPACK upper
        band storage that `solve` factors, kd the half-bandwidth: A[i, j]
        for i <= j <= i + kd is band[kd + i - j, j].
        """
        cvals = np.asarray(coeff_at_quad, dtype=float)
        cmin = cvals.min()
        if not cmin > 0.0:
            raise CoercivityError(
                f"nonpositive coefficient sample {cmin:.6g} at a quadrature point"
            )
        cavg = cvals @ self.quad_weights
        entries = (cavg[:, None, None] * self.element_base).ravel()[self._keep]
        band = np.bincount(self._scatter, weights=entries, minlength=self._nnz)
        return band.reshape(self.n_interior, self.half_bandwidth + 1).T

    def load(self, source_at_quad) -> np.ndarray:
        """Interior load vector from source samples of shape (T, Q)."""
        f = np.asarray(source_at_quad, dtype=float)
        weighted_basis = self.quad_weights[:, None] * self.basis_at_quad
        per_vertex = self.mesh.area[:, None] * (f @ weighted_basis)
        full = np.bincount(
            self.mesh.triangles.ravel(),
            weights=per_vertex.ravel(),
            minlength=len(self.mesh.vertices),
        )
        return full[self.interior]


def solve(matrix, rhs, mesh: TriangularMesh) -> np.ndarray:
    """Solve the interior system of mesh by banded Cholesky to relative residual 1e-10.

    matrix is the interior stiffness matrix in the upper band storage of
    `Assembler.stiffness` and rhs the interior load vector.  LAPACK factors
    it (dpbtrf) and solves (dpbtrs); the answer is checked against the
    residual contract.  Returns the (vertices,) nodal values, identically
    zero on the boundary.
    """
    n = matrix.shape[1]
    rhs_norm = float(np.linalg.norm(rhs))
    if n == 0 or rhs_norm == 0.0:
        inner = np.zeros(n)
    else:
        factor, info = dpbtrf(matrix)
        if info == 0:
            inner, info = dpbtrs(factor, rhs)
        if info != 0:
            raise SolveError(
                f"banded Cholesky failed with LAPACK info = {info} "
                "(positive: the leading minor of that order is not positive definite)"
            )
        product = dsbmv(matrix.shape[0] - 1, 1.0, matrix, inner)
        residual = float(np.linalg.norm(rhs - product))
        if residual > SOLVER_RTOL * rhs_norm:
            raise SolveError(
                f"residual {residual:.3e} exceeds contract {SOLVER_RTOL * rhs_norm:.3e}"
            )
    values = np.zeros(len(mesh.vertices))
    values[mesh.interior] = inner
    return values


def l2_norm(values, mesh: TriangularMesh):
    """Exact L2 norm of the P1 function with nodal values (..., vertices) on mesh.

    Leading axes of values, here and below, stack functions; one result each.
    """
    t = values[..., mesh.triangles]
    u1, u2, u3 = t[..., 0], t[..., 1], t[..., 2]
    elem = (mesh.area / 6.0) * (u1 * u1 + u2 * u2 + u3 * u3 + u1 * u2 + u1 * u3 + u2 * u3)
    return np.sqrt(np.sum(elem, axis=-1))


def h10_seminorm(values, mesh: TriangularMesh):
    """Exact H1_0 seminorm, one per stacked function: gradients are constant per triangle."""
    g = np.einsum("...ti,tid->...td", values[..., mesh.triangles], mesh.grads, optimize=True)
    return np.sqrt(np.sum(mesh.area * np.sum(g * g, axis=-1), axis=-1))


def diff_norm(u, v, mesh: TriangularMesh, which: str = "L2") -> np.ndarray:
    """Element-exact norms of u - v, row by row; which is "L2" or "H10".

    u and v are (k, vertices) stacks of nodal values on mesh; the result
    holds the k distances.
    """
    if u.shape[-1] != len(mesh.vertices) or v.shape[-1] != len(mesh.vertices):
        raise ValueError("nodal values do not match the mesh's vertex count")
    if which == "L2":
        return l2_norm(u - v, mesh)
    if which == "H10":
        return h10_seminorm(u - v, mesh)
    raise ValueError(f"unknown norm {which!r}")


def qoi_nl(values, mesh: TriangularMesh):
    """Nonlinear quantity of interest: the squared energy seminorm, one per stacked function."""
    value = h10_seminorm(values, mesh)
    return value * value


def l2_error_against(values, mesh: TriangularMesh, exact) -> float:
    """L2 distance between the P1 function and an analytic reference.

    Both are sampled with the degree-5 rule, so the measured discretization
    error is not polluted by quadrature or by superconvergence at the nodes.
    """
    rule = Assembler(mesh, 5)
    diff = values[mesh.triangles] @ rule.basis_at_quad.T - rule.coefficient_at_quad(exact)
    return float(np.sqrt(np.sum(mesh.area * ((diff * diff) @ rule.quad_weights))))
