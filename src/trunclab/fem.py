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
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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

    Element matrices, quadrature points, and the interior sparsity pattern
    are built once, so reassembling for a new coefficient costs one scaled
    scatter-add.  This is what makes parametric sweeps with tens of
    thousands of assemblies practical.  Instances are immutable after
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
        keep = (rows >= 0) & (cols >= 0)
        self._keep = keep
        pairs = rows[keep] * n_int + cols[keep]
        unique, inverse = np.unique(pairs, return_inverse=True)
        self._scatter = inverse
        self._nnz = unique.size
        self._indices = (unique % max(n_int, 1)).astype(np.int32)
        counts = np.bincount(unique // max(n_int, 1), minlength=n_int)
        self._indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)

    def coefficient_at_quad(self, fn):
        """Sample a pointwise callable at all quadrature points, shape (T, Q)."""
        flat = self.quad_points.reshape(-1, 2)
        vals = np.asarray(fn(flat), dtype=float)
        if vals.shape != (flat.shape[0],):
            raise ValueError("pointwise callables must map (P, 2) points to (P,) values")
        return vals.reshape(self.quad_points.shape[:2])

    def stiffness(self, coeff_at_quad) -> sp.csc_matrix:
        """Interior stiffness matrix from coefficient samples of shape (T, Q).

        Quadrature of the bilinear form reduces, for P1 gradients, to
        scaling each precomputed element matrix by the quadrature average of
        the coefficient.  Symmetry of the result is exact: both (i, j) and
        (j, i) accumulate identical floats in identical order.  So the
        row-major arrays built here are also the column-major ones, and the
        matrix is returned as CSC, the format splu factors without a copy.
        """
        cvals = np.asarray(coeff_at_quad, dtype=float)
        cmin = cvals.min()
        if not cmin > 0.0:
            raise CoercivityError(
                f"nonpositive coefficient sample {cmin:.6g} at a quadrature point"
            )
        cavg = cvals @ self.quad_weights
        entries = (cavg[:, None, None] * self.element_base).ravel()[self._keep]
        data = np.bincount(self._scatter, weights=entries, minlength=self._nnz)
        return sp.csc_matrix(
            (data, self._indices, self._indptr),
            shape=(self.n_interior, self.n_interior),
        )

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


@dataclass(frozen=True)
class FemSolution:
    """Piecewise-linear function given by one nodal value per vertex."""

    mesh: TriangularMesh
    values: np.ndarray


def solve(matrix, rhs, mesh: TriangularMesh) -> FemSolution:
    """Solve the interior system of mesh by sparse LU to relative residual 1e-10.

    matrix is the CSC interior stiffness matrix and rhs the interior load
    vector.  The answer is checked against the residual contract; boundary
    values of the returned solution are identically zero.
    """
    n = matrix.shape[0]
    rhs_norm = float(np.linalg.norm(rhs))
    if n == 0 or rhs_norm == 0.0:
        inner = np.zeros(n)
    else:
        inner = spla.splu(matrix).solve(rhs)
        residual = float(np.linalg.norm(rhs - matrix @ inner))
        if residual > SOLVER_RTOL * rhs_norm:
            raise SolveError(
                f"residual {residual:.3e} exceeds contract {SOLVER_RTOL * rhs_norm:.3e}"
            )
    values = np.zeros(len(mesh.vertices))
    values[mesh.interior] = inner
    return FemSolution(mesh, values)


def _same_mesh(u: FemSolution, v: FemSolution):
    if u.mesh is v.mesh:
        return
    if u.mesh.m != v.mesh.m or len(u.mesh.vertices) != len(v.mesh.vertices):
        raise ValueError("solutions live on different meshes")


def l2_norm(u: FemSolution) -> float:
    """Exact L2 norm of the piecewise-linear function."""
    t = u.values[u.mesh.triangles]
    u1, u2, u3 = t[:, 0], t[:, 1], t[:, 2]
    elem = (u.mesh.area / 6.0) * (u1 * u1 + u2 * u2 + u3 * u3 + u1 * u2 + u1 * u3 + u2 * u3)
    return float(np.sqrt(np.sum(elem)))


def h10_seminorm(u: FemSolution) -> float:
    """Exact H1_0 seminorm: gradients are constant per triangle."""
    g = np.einsum("ti,tid->td", u.values[u.mesh.triangles], u.mesh.grads)
    return float(np.sqrt(np.sum(u.mesh.area * np.sum(g * g, axis=1))))


def diff_norm(u: FemSolution, v: FemSolution, which: str = "L2") -> float:
    """Element-exact norm of u - v; which is "L2" or "H10"."""
    _same_mesh(u, v)
    w = FemSolution(u.mesh, u.values - v.values)
    if which == "L2":
        return l2_norm(w)
    if which == "H10":
        return h10_seminorm(w)
    raise ValueError(f"unknown norm {which!r}")


def qoi_nl(u: FemSolution) -> float:
    """Nonlinear quantity of interest: the squared energy seminorm."""
    value = h10_seminorm(u)
    return value * value


def l2_error_against(u: FemSolution, exact, quad_order: int = 5) -> float:
    """L2 distance between the P1 function and an analytic reference.

    The reference is sampled with a higher-order rule (degree 5 by default)
    so the measured discretization error is not polluted by quadrature or by
    superconvergence at the nodes.
    """
    bary, qweights = _QUAD_BARY[quad_order]
    v = u.mesh.vertices[u.mesh.triangles]
    pts = np.einsum("qb,tbd->tqd", bary, v)
    uh = u.values[u.mesh.triangles] @ bary.T
    ref = np.asarray(exact(pts.reshape(-1, 2)), dtype=float).reshape(uh.shape)
    diff = uh - ref
    return float(np.sqrt(np.sum(u.mesh.area * ((diff * diff) @ qweights))))
