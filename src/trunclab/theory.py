"""Rates, tail bounds, regularity constants, and the closed-form truncation bound.

For a parametric map whose partial derivatives satisfy a factorial-type bound
with constants Theta_ell and a nonincreasing sequence b in l^p, p < 1, the
squared L2 truncation error at dimension s is bounded by an explicit two-term
expression: a leading term decaying like s^(-2/p+1) and a Taylor remainder
term decaying like s^((1-1/p)(k+1)), where k = ceil(1/(1-p)) is the Taylor
order.  This module evaluates those expressions (in log space, the factorial
and exponential factors get large), Stechkin tail bounds, and least-squares
rate fits of measured error tables.
"""

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def taylor_order(p: float) -> int:
    """Smallest integer k with k >= 1/(1-p).

    A tiny slack absorbs representation error in 1-p, so exact thresholds
    like p = 0.9 give 10 rather than 11.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"summability exponent p = {p!r} outside (0, 1)")
    return int(math.ceil(1.0 / (1.0 - p) - 1e-9))


def expected_rate(theta: float) -> float:
    """Predicted log-log slope of the L2 truncation error for b_j ~ j^(-theta)."""
    if theta <= 1.0:
        raise ValueError(
            f"decay {theta} <= 1: the sequence is not in any l^p with p < 1"
        )
    return 0.5 - theta


def summability_exponent(theta: float) -> float:
    """Working p for decay theta: 1/theta plus a small offset.

    b_j ~ j^(-theta) lies in l^p only for p strictly above 1/theta; the
    offset 1e-3 keeps every constant finite while staying near the limiting
    rate.
    """
    if theta <= 1.0:
        raise ValueError(
            f"decay {theta} <= 1: the sequence is not in any l^p with p < 1"
        )
    p = 1.0 / theta + 1e-3
    if p >= 1.0:
        raise ValueError(f"decay {theta} too close to 1: derived p = {p} leaves (0, 1)")
    return p


def _check_sequence(b) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.ndim != 1:
        raise ValueError("b must be a one-dimensional sequence")
    if not np.all(np.isfinite(b)) or np.any(b < 0):
        raise ValueError("b must be finite and nonnegative")
    if np.any(np.diff(b) > 0):
        raise ValueError("b must be nonincreasing")
    return b


def lp_quasi_norm(b, p: float) -> float:
    """(sum b_j^p)^(1/p) of the stored finite vector."""
    b = np.asarray(b, dtype=float)
    total = float(np.sum(b ** p))
    return total ** (1.0 / p)


def stechkin_tail_bound(b, s: int, p: float) -> float:
    """Bound s^(1-1/p) * ||b||_p on the tail sum of a nonincreasing b in l^p."""
    b = _check_sequence(b)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p = {p} outside (0, 1)")
    if s < 1:
        raise ValueError(f"s = {s} must be at least 1")
    return float(s ** (1.0 - 1.0 / p)) * lp_quasi_norm(b, p)


def tail_sum(b, s: int, power: float = 1.0) -> float:
    """Exact finite tail sum_{j > s} b_j^power of the stored vector."""
    b = np.asarray(b, dtype=float)
    if s < 0:
        raise ValueError(f"s = {s} must be nonnegative")
    return float(np.sum(b[int(s):] ** power))


@dataclass(frozen=True)
class TheoryParams:
    """Certified constants of one parametric model instance.

    theta_seq holds Theta_0 .. Theta_{k+1} from the derivative bound, b the
    normalized decay sequence, p its summability exponent, c_mu and c_xi the
    moment constants of the uniform measure and of the transform
    pushforward, and k the Taylor order (redundant with p, checked).
    """

    theta_seq: tuple
    b: np.ndarray
    p: float
    c_mu: float
    c_xi: float
    k: int

    def __post_init__(self):
        expected_k = taylor_order(self.p)  # validates p as a side effect
        if self.k != expected_k:
            raise ValueError(
                f"k = {self.k} inconsistent with ceil(1/(1-p)) = {expected_k}"
            )
        theta = tuple(float(t) for t in self.theta_seq)
        if len(theta) < self.k + 2:
            raise ValueError(
                f"theta_seq needs Theta_0..Theta_{self.k + 1}, got {len(theta)} values"
            )
        if any(t <= 0 or not math.isfinite(t) for t in theta):
            raise ValueError("theta_seq entries must be positive and finite")
        b = _check_sequence(self.b)
        b = b.copy()
        b.setflags(write=False)
        if self.c_mu < 0 or self.c_xi < 0:
            raise ValueError("moment constants must be nonnegative")
        object.__setattr__(self, "theta_seq", theta)
        object.__setattr__(self, "b", b)


def affine_theory_params(prefactor, b, p, c_mu=1.0 / 12.0, c_xi=1.0 / 12.0) -> TheoryParams:
    """Params with Theta_ell = prefactor * ell!, the affine-model certificate.

    The moment constants default to 1/12, the second moment of the uniform
    measure on [-1/2, 1/2] (and also the sharp constant for the sine
    transform, whose moments peak at the same value).
    """
    k = taylor_order(p)
    theta = tuple(prefactor * math.factorial(ell) for ell in range(k + 2))
    return TheoryParams(theta_seq=theta, b=b, p=p, c_mu=c_mu, c_xi=c_xi, k=k)


def _log_front(params: TheoryParams, top: int) -> float:
    return max(
        math.log(2.0 * params.theta_seq[ell]) - math.lgamma(ell + 1)
        for ell in range(top + 1)
    )


def _moment_constant(params: TheoryParams, moment: str) -> float:
    if moment == "mu":
        return params.c_mu
    if moment == "xi":
        return params.c_xi
    raise ValueError(f"moment must be 'mu' or 'xi', got {moment!r}")


def truncation_upper_bound_terms(params: TheoryParams, s: int, moment: str = "mu"):
    """The two closed-form terms bounding the squared L2 truncation error.

    term1 = C^k * (max_{l<=k} 2 Theta_l/l!)^2 * (k+1)! * s^(-2/p+1)
            * (exp(beta_k ||b||_p^2) - 1)
    term2 = C^(k+1) * (max_{l<=k+1} 2 Theta_l/l!)^2 * (k+2)!
            * stechkin_tail_bound(b, s, p)^(k+1)

    with beta_k = sum_{l=0}^{k-2} b_1^l and C the chosen moment constant
    (c_mu, or c_xi for transformed parameterizations, which rescales the
    terms by (c_xi/c_mu)^k and (c_xi/c_mu)^(k+1) and changes no exponent).
    Everything is evaluated in log space; a term that would overflow double
    range raises OverflowError.
    """
    if s < 1:
        raise ValueError(f"s = {s} must be at least 1")
    c = _moment_constant(params, moment)
    k, p = params.k, params.p
    norm_p = lp_quasi_norm(params.b, p)
    if norm_p == 0.0 or c == 0.0:
        return 0.0, 0.0
    beta_k = float(sum(params.b[0] ** ell for ell in range(k - 1)))
    growth = beta_k * norm_p * norm_p
    # log(exp(growth) - 1), stable for both tiny and huge arguments
    if growth > 50.0:
        log_expm1 = growth + math.log1p(-math.exp(-growth))
    else:
        log_expm1 = math.log(math.expm1(growth))
    log_s = math.log(s)
    log_term1 = (
        k * math.log(c)
        + 2.0 * _log_front(params, k)
        + math.lgamma(k + 2)
        + (-2.0 / p + 1.0) * log_s
        + log_expm1
    )
    log_stechkin = (1.0 - 1.0 / p) * log_s + math.log(norm_p)
    log_term2 = (
        (k + 1) * math.log(c)
        + 2.0 * _log_front(params, k + 1)
        + math.lgamma(k + 3)
        + (k + 1) * log_stechkin
    )
    out = []
    for name, log_term in (("first", log_term1), ("second", log_term2)):
        if log_term > 709.0:
            raise OverflowError(
                f"{name} bound term exp({log_term:.1f}) exceeds double range"
            )
        out.append(math.exp(log_term))
    return tuple(out)


def truncation_upper_bound(params: TheoryParams, s: int, moment: str = "mu") -> float:
    """Closed-form upper bound on the SQUARED L2 truncation error at s."""
    term1, term2 = truncation_upper_bound_terms(params, s, moment)
    return term1 + term2


FitResult = namedtuple("FitResult", ["slope", "intercept", "residual"])


@dataclass(frozen=True)
class ErrorTable:
    """Rows (s, error) plus free-form string metadata, CSV-serializable.

    s must increase strictly; errors must be finite and positive, except
    that an exact zero is allowed at s equal to the reference dimension
    recorded in metadata["s_ref"].
    """

    rows: tuple
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        rows = tuple((int(s), float(e)) for s, e in self.rows)
        meta = {str(k): str(v) for k, v in self.metadata.items()}
        for key, value in meta.items():
            for ch in ";=\n#":
                if ch in key or ch in value:
                    raise ValueError(
                        f"metadata entry {key!r}={value!r} contains reserved character {ch!r}"
                    )
        s_ref = int(meta["s_ref"]) if "s_ref" in meta else None
        previous = 0
        for s, err in rows:
            if s <= 0 or (previous and s <= previous):
                raise ValueError("s values must be positive and strictly increasing")
            previous = s
            if not math.isfinite(err) or err < 0:
                raise ValueError(f"error at s = {s} is {err!r}, not a finite nonnegative value")
            if err == 0.0 and s != s_ref:
                raise ValueError(
                    f"zero error at s = {s} is only allowed at the reference dimension"
                )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "metadata", meta)

    def write(self, path):
        """CSV with a '# key=value;...' comment line and an 's,error' header."""
        lines = ["# " + ";".join(f"{k}={v}" for k, v in self.metadata.items())]
        lines.append("s,error")
        lines.extend(f"{s},{err!r}" for s, err in self.rows)
        Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")

    @classmethod
    def read(cls, path):
        lines = Path(path).read_text(encoding="ascii").splitlines()
        meta = {}
        start = 0
        if lines and lines[0].lstrip().startswith("#"):
            body = lines[0].lstrip()[1:].strip()
            if body:
                for chunk in body.split(";"):
                    if "=" not in chunk:
                        raise ValueError(f"{path}: malformed metadata entry {chunk!r}")
                    key, value = chunk.split("=", 1)
                    meta[key.strip()] = value.strip()
            start = 1
        if start >= len(lines) or lines[start].strip() != "s,error":
            raise ValueError(f"{path}: missing 's,error' header line")
        rows = []
        for lineno, line in enumerate(lines[start + 1:], start=start + 2):
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path} line {lineno}: expected 's,error'")
            try:
                rows.append((int(parts[0]), float(parts[1])))
            except ValueError:
                raise ValueError(
                    f"{path} line {lineno}: malformed row {line!r}"
                ) from None
        return cls(rows=tuple(rows), metadata=meta)


def fit_rate(table: ErrorTable, s_min=None) -> FitResult:
    """Ordinary least squares on (log s, log error) over rows with s >= s_min.

    s_min defaults to the first s of the table's upper half, because
    measured tables flatten at small s before the asymptotic rate sets in.
    Zero-error rows (reference-dimension rows) are excluded with a warning.
    """
    rows = table.rows
    if not rows:
        raise ValueError("table has no rows")
    if s_min is None:
        s_min = rows[len(rows) // 2][0]
    selected = [(s, e) for s, e in rows if s >= s_min]
    zero_rows = [s for s, e in selected if e == 0.0]
    if zero_rows:
        warnings.warn(f"excluding zero-error rows at s = {zero_rows} from the fit")
        selected = [(s, e) for s, e in selected if e > 0.0]
    if len(selected) < 2:
        raise ValueError(
            f"need at least 2 rows with s >= {s_min} and positive error, "
            f"have {len(selected)}"
        )
    x = np.log([s for s, _ in selected])
    y = np.log([e for _, e in selected])
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.sum((y - (slope * x + intercept)) ** 2)))
    return FitResult(float(slope), float(intercept), residual)
