"""Scalar reciprocal-affine model with an exact tensor-quadrature truncation error.

The model g(y) = 1/(a0 + sum_j b_j xi(y_j)) is analytic with certified
factorial derivative bounds, so it stands in for the PDE solution wherever an
exact reference value is wanted.  Its truncation error over the uniform
product measure depends on y only through the head sum (first s coordinates)
and the tail sum (the rest), so a full tensor-product Gauss-Legendre grid
factorizes into two small grids and evaluates the error to near machine
precision while the dimension count stays single-digit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .field import IDENTITY, CoercivityError, Transform
from .theory import TheoryParams, affine_theory_params

GRID_BUDGET = 250_000_000
# grid entries per chunk of the exact error's outer sum (at least one head
# row); it bounds the peak temporaries, a few chunk-sized float arrays
EXACT_CHUNK = 1 << 18

# Exact maximal moments of the uniform measure on [-1/2, 1/2] and of the
# pushforward under sin(2 pi y)/sqrt(6): both attain their maximum 1/12 at
# the second moment (higher even moments are 2^-l/(l+1) and E[sin^l]/6^(l/2),
# both decreasing).
UNIFORM_MOMENT_BOUND = 1.0 / 12.0
PERIODIC_MOMENT_BOUND = 1.0 / 12.0


def gauss_legendre_rule(q: int):
    """q-point Gauss-Legendre nodes and weights on [-1/2, 1/2]; weights sum to 1."""
    if not 1 <= q <= 32:
        raise ValueError(f"q = {q} outside the supported range [1, 32]")
    nodes, weights = np.polynomial.legendre.leggauss(int(q))
    return nodes / 2.0, weights / 2.0


@dataclass(frozen=True)
class ScalarModelSpec:
    """Reciprocal-affine model 1/(a0 + sum_j b_j xi(y_j)) in s' = len(b) dimensions."""

    a0: float
    b: tuple
    transform: Transform = IDENTITY

    def __post_init__(self):
        b = tuple(float(v) for v in self.b)
        if any(not math.isfinite(v) or v < 0 for v in b):
            raise ValueError("b entries must be finite and nonnegative")
        if any(b[i] < b[i + 1] for i in range(len(b) - 1)):
            raise ValueError("b must be nonincreasing")
        if self.a0 <= 0:
            raise ValueError(f"a0 = {self.a0} must be positive")
        if self.reserve(b) <= 0:
            raise CoercivityError(
                f"a0 = {self.a0} does not dominate the envelope "
                f"{self.transform.sup_abs * sum(b):.6g}: the reciprocal is unbounded"
            )
        object.__setattr__(self, "b", b)

    def reserve(self, b=None) -> float:
        """Uniform lower bound of the denominator over all parameters."""
        b = self.b if b is None else b
        return self.a0 - self.transform.sup_abs * float(sum(b))

    @property
    def s_prime(self) -> int:
        return len(self.b)


def default_oracle_spec() -> ScalarModelSpec:
    """The standard validation instance: a0 = 3/2, b_j = j^-2/10, s' = 6, identity."""
    return ScalarModelSpec(
        a0=1.5, b=tuple(0.1 * j ** -2.0 for j in range(1, 7)), transform=IDENTITY
    )


def scalar_model(spec: ScalarModelSpec, y) -> float:
    """Model value 1/(a0 + b . xi(y)) for a full-length parameter vector."""
    y = np.asarray(y, dtype=float)
    if y.shape != (spec.s_prime,):
        raise ValueError(f"y must have length s' = {spec.s_prime}")
    return float(1.0 / (spec.a0 + np.dot(spec.b, spec.transform.apply(y))))


class ScalarTruncationModel:
    """Adapter (s, nodes) -> model values at the nodes truncated to their first s coordinates.

    nodes is a (k, s') stack of full-length nodes, as the QMC truncation
    estimator passes a block; the k values come back in one array.
    """

    def __init__(self, spec: ScalarModelSpec):
        self.spec = spec
        self.b = np.asarray(spec.b)

    def __call__(self, s, nodes) -> np.ndarray:
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != self.spec.s_prime or not 0 <= s <= self.spec.s_prime:
            raise ValueError(
                f"need a (k, s' = {self.spec.s_prime}) stack of nodes and 0 <= s <= s', "
                f"got shape {nodes.shape} and s = {s}"
            )
        # xi(0) = 0, so dropping the coordinates past s truncates exactly
        return 1.0 / (self.spec.a0 + self.spec.transform.apply(nodes[:, :s]) @ self.b[:s])


def _sum_grid(bvals, xi_nodes, weights):
    """All sums sum_j b_j xi(x_{i_j}) over a tensor grid, with product weights."""
    totals = np.zeros(1)
    wprod = np.ones(1)
    for bj in bvals:
        term = bj * xi_nodes
        totals = (totals[:, None] + term[None, :]).ravel()
        wprod = (wprod[:, None] * weights[None, :]).ravel()
    return totals, wprod


def exact_l2_truncation_error(spec: ScalarModelSpec, s: int, q: int = 16) -> float:
    """Tensor Gauss-Legendre value of sqrt(E[(g - g_s)^2]).

    The grid is the product of a head grid over the first s coordinates and
    a tail grid over the rest; the error integrand depends only on the two
    group sums, so q^s' function values reduce to a blocked outer sum.
    Accumulation runs over fixed head blocks in index order, the same
    deterministic-reduction contract as the QMC mean.
    """
    s = int(s)
    s_prime = spec.s_prime
    if not 0 <= s <= s_prime:
        raise ValueError(f"s = {s} outside [0, s' = {s_prime}]")
    if s_prime > 8:
        raise ValueError(f"s' = {s_prime} > 8: the tensor grid is past any budget")
    if q < 8:
        raise ValueError(f"q = {q} too small, the oracle needs q >= 8")
    cost = q ** s_prime
    if cost > GRID_BUDGET:
        raise ValueError(
            f"tensor grid needs {cost:.3e} evaluations, budget is {GRID_BUDGET:.1e}; "
            "reduce q or the model dimension"
        )
    if s == s_prime:
        return 0.0
    nodes, weights = gauss_legendre_rule(q)
    xi_nodes = np.asarray(spec.transform.apply(nodes))
    head, w_head = _sum_grid(spec.b[:s], xi_nodes, weights)
    tail, w_tail = _sum_grid(spec.b[s:], xi_nodes, weights)
    err2 = 0.0
    chunk = max(1, EXACT_CHUNK // tail.size)
    for lo in range(0, head.size, chunk):
        head_part = head[lo:lo + chunk]
        g_full = 1.0 / (spec.a0 + head_part[:, None] + tail[None, :])
        g_trunc = 1.0 / (spec.a0 + head_part)
        diff = g_full - g_trunc[:, None]
        err2 += float(w_head[lo:lo + chunk] @ ((diff * diff) @ w_tail))
    return math.sqrt(err2)


def certified_theory_params(
    spec: ScalarModelSpec,
    p: float,
    c_mu: float = UNIFORM_MOMENT_BOUND,
    c_xi: float = PERIODIC_MOMENT_BOUND,
) -> TheoryParams:
    """Certified TheoryParams for the scalar model.

    Differentiating the reciprocal gives |d^nu g| <= |nu|! b^nu / r^(|nu|+1)
    with r the denominator's lower bound, i.e. Theta_ell = ell!/r with the
    normalized sequence b_j/r, exactly the affine-model certificate shape.
    """
    reserve = spec.reserve()
    normalized = np.asarray(spec.b, dtype=float) / reserve
    return affine_theory_params(1.0 / reserve, normalized, p, c_mu, c_xi)
