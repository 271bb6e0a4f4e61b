"""Parametric diffusion coefficient, parameter transforms, coercivity bounds.

The coefficient family on the unit square is

    a(x, y) = a0 + sum_{j=1}^{max_modes} xi(y_j) * j^(-decay) * sin(j pi x1) * sin(j pi x2)

with parameters y_j drawn uniformly from [-1/2, 1/2].  The transform xi is
either the identity (affine parameterization) or the periodic map
xi(y) = sin(2 pi y)/sqrt(6), which keeps zero mean and a range inside
[-1/2, 1/2] while making the coefficient 1-periodic in every parameter.
Truncation to s active modes sets y_{s+1}, y_{s+2}, ... to zero; because
xi(0) = 0 this removes the corresponding expansion terms exactly.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import zeta

SQRT6 = float(np.sqrt(6.0))

_DOMAIN_TOL = 1e-12


class CoercivityError(Exception):
    """The coefficient family admits no positive uniform lower bound."""


@dataclass(frozen=True)
class Transform:
    """Componentwise parameter transform, identity or periodic."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("identity", "periodic"):
            raise ValueError(f"unknown transform kind {self.kind!r}")

    @property
    def sup_abs(self) -> float:
        """Supremum of |xi| over the parameter domain [-1/2, 1/2]."""
        if self.kind == "identity":
            return 0.5
        return 1.0 / SQRT6

    def apply(self, y):
        y = np.asarray(y, dtype=float)
        bad = np.abs(y) > 0.5 + _DOMAIN_TOL
        if np.any(bad):
            j = int(np.flatnonzero(bad.ravel())[0])
            raise ValueError(
                f"parameter component out of [-1/2, 1/2]: y[{j}] = {float(y.ravel()[j])!r}"
            )
        if self.kind == "identity":
            return y.copy()
        return np.sin(2.0 * np.pi * y) / SQRT6


IDENTITY = Transform("identity")
PERIODIC = Transform("periodic")


def truncate(y, s: int):
    """Zero all components beyond the first s; the length is preserved."""
    y = np.asarray(y, dtype=float)
    if not 0 <= s <= y.size:
        raise ValueError(f"truncation dimension {s} outside [0, {y.size}]")
    out = y.copy()
    out[s:] = 0.0
    return out


@dataclass(frozen=True)
class DiffusionFieldSpec:
    """Coefficient family a0 + sum_j xi(y_j) j^(-decay) sin(j pi x1) sin(j pi x2).

    max_modes caps the expansion; it plays the role of the reference
    dimension s' in the truncation experiments.  Construction fails with
    CoercivityError when the envelope sum already exhausts a0.
    """

    a0: float = 1.5
    decay: float = 2.0
    transform: Transform = PERIODIC
    max_modes: int = 512

    def __post_init__(self):
        if self.a0 <= 0:
            raise ValueError(f"a0 = {self.a0} must be positive")
        if self.decay <= 1.0:
            raise ValueError(
                f"decay = {self.decay} must exceed 1 (mode sums diverge otherwise)"
            )
        if self.max_modes < 1:
            raise ValueError(f"max_modes = {self.max_modes} must be at least 1")
        coercivity_bounds(self)  # rejects specs without a positive lower bound


def mode_weights(spec: DiffusionFieldSpec, count: int) -> np.ndarray:
    """Mode amplitudes j^(-decay) for j = 1..count."""
    return np.arange(1, count + 1, dtype=float) ** -spec.decay


def mode_table(count: int, points) -> np.ndarray:
    """Spatial modes sin(j pi x1) sin(j pi x2) for j = 1..count at (P, 2) points.

    Row j - 1 holds mode j; the result has shape (count, P).
    """
    j = np.arange(1, count + 1, dtype=float)
    return np.sin(np.pi * np.outer(j, points[:, 0])) * np.sin(np.pi * np.outer(j, points[:, 1]))


def coefficient_from_modes(spec: DiffusionFieldSpec, y, table, weights) -> np.ndarray:
    """a0 + sum_j xi(y_j) weights[j] table[j] over the first len(y) modes.

    table and weights come from mode_table and mode_weights and may hold
    more modes than y has components.
    """
    y = np.asarray(y, dtype=float)
    s = y.size
    return spec.a0 + (spec.transform.apply(y) * weights[:s]) @ table[:s]


def _envelope_sum(spec: DiffusionFieldSpec) -> float:
    return spec.transform.sup_abs * float(np.sum(mode_weights(spec, spec.max_modes)))


def coercivity_bounds(spec: DiffusionFieldSpec):
    """Uniform coefficient bounds (a_min, a_max) over all parameters.

    a_min = a0 - sup|xi| * sum_{j <= max_modes} j^(-decay) and a_max is the
    mirror image, so a_min + a_max = 2 a0 exactly.  Raises CoercivityError
    when a_min is not positive.
    """
    envelope = _envelope_sum(spec)
    a_min = spec.a0 - envelope
    if a_min <= 0.0:
        raise CoercivityError(
            f"no positive lower bound: a0 = {spec.a0} minus envelope sum "
            f"{envelope:.6g} (decay {spec.decay}, {spec.max_modes} modes, "
            f"{spec.transform.kind} transform) gives {a_min:.6g}"
        )
    return a_min, spec.a0 + envelope


def coercivity_limit_bounds(spec: DiffusionFieldSpec):
    """Coefficient bounds using the infinite-sum (zeta) envelope.

    Reference values only: the coefficient actually evaluated stops at
    max_modes, so these are reported, never enforced, and the lower bound
    may be nonpositive.
    """
    envelope = spec.transform.sup_abs * float(zeta(spec.decay, 1))
    return spec.a0 - envelope, spec.a0 + envelope


def b_sequence(spec: DiffusionFieldSpec, count: int):
    """Normalized decay sequence b_j = j^(-decay) / a_min for j = 1..count.

    j^(-decay) is the sup norm of the j-th spatial mode: the sine product
    comes arbitrarily close to 1 somewhere in the open unit square.
    """
    a_min, _ = coercivity_bounds(spec)
    return mode_weights(spec, count) / a_min
