"""Rank-1 lattice rules with a single random shift, and the truncation sweep.

Nodes are frac(i*z/n + shift) - 1/2 on [-1/2, 1/2)^s; the products i*z_j are
reduced mod n in exact integer arithmetic before any division.  All averages
follow a fixed blocked pairwise summation tree, so results are bit-identical
no matter how many workers share the index range.

Generating vectors are ingested from plain text files, either one component
per line or the common two-column "dimension value" layout of published
lattice parameter files.
"""

import importlib.resources
import re
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

MAX_NODES = 2 ** 20
BUILTIN_VECTOR = "lattice-rcbc-1024-1048576.3600.txt"

_SWEEP_BLOCK = 64  # indices per partial sum in truncation sweeps


class LatticeFormatError(ValueError):
    """Malformed generating-vector text."""


class EvaluationError(RuntimeError):
    """An integrand produced a non-finite value."""


@dataclass(frozen=True)
class LatticeRule:
    """Shifted rank-1 lattice: node count, reduced vector, shift, seed."""

    n: int
    z: np.ndarray
    shift: np.ndarray
    seed: int


def draw_shift(seed: int, s: int) -> np.ndarray:
    """Uniform shift in [0,1)^s drawn from a PCG64 stream seeded with `seed`."""
    return np.random.Generator(np.random.PCG64(int(seed))).random(int(s))


def lattice_rule(n: int, z, seed: int = 1) -> LatticeRule:
    """Build a shifted rule: validate n, reduce z mod n, draw the shift.

    The rule is fully reproducible from (n, z, seed); the shift has one
    component per dimension of z.
    """
    n = int(n)
    if n < 2 or n & (n - 1):
        raise ValueError(f"node count {n} is not a power of two >= 2")
    if n > MAX_NODES:
        raise ValueError(f"node count {n} exceeds the supported maximum 2^20")
    z = np.asarray(z, dtype=np.int64)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("generating vector must be a nonempty 1-D integer array")
    reduced = np.mod(z, n)
    if np.any(reduced == 0):
        j = int(np.flatnonzero(reduced == 0)[0])
        raise ValueError(f"component z_{j + 1} = {int(z[j])} reduces to 0 mod {n}")
    if reduced[0] != 1:
        warnings.warn(
            f"z_1 reduces to {int(reduced[0])}; standard generating vectors have z_1 = 1"
        )
    shift = draw_shift(seed, z.size)
    reduced.setflags(write=False)
    shift.setflags(write=False)
    return LatticeRule(n=n, z=reduced, shift=shift, seed=int(seed))


def generate_nodes(rule: LatticeRule, start: int, stop: int, s: int) -> np.ndarray:
    """Shifted nodes in [-1/2, 1/2)^s for indices start..stop-1 (taken mod n).

    Returns a (stop - start, s) array, one node per row.
    """
    if s > rule.z.size:
        raise ValueError(
            f"dimension {s} exceeds generating vector length {rule.z.size}"
        )
    idx = np.arange(start, stop, dtype=np.int64) % rule.n
    residue = (idx[:, None] * rule.z[None, :s]) % rule.n
    return (residue / rule.n + rule.shift[None, :s]) % 1.0 - 0.5


def _pairwise_sum(values):
    """Fixed-tree pairwise sum of a sequence of floats or arrays."""
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        paired = [vals[k] + vals[k + 1] for k in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            paired.append(vals[-1])
        vals = paired
    return vals[0]


def _check_n_used(rule: LatticeRule, n_used):
    if n_used is None:
        return rule.n
    n_used = int(n_used)
    if n_used < 1 or n_used & (n_used - 1):
        raise ValueError(f"n_used = {n_used} is not a power of two")
    if n_used > rule.n:
        raise ValueError(f"n_used = {n_used} exceeds the rule's node count {rule.n}")
    return n_used


# Worker-side state for truncation sweeps.  Installed once per process by the
# pool initializer (or by the serial path), so large models are not re-pickled
# for every block.
_SWEEP_STATE = None


def _sweep_init(model, s_list, s_ref, rule, norm):
    global _SWEEP_STATE
    _SWEEP_STATE = (model, tuple(s_list), int(s_ref), rule, norm)


def _sweep_block(bounds):
    model, s_list, s_ref, rule, norm = _SWEEP_STATE
    start, stop = bounds
    sums = np.zeros(len(s_list))
    for i, y in enumerate(generate_nodes(rule, start, stop, s_ref), start):
        try:
            reference = model(s_ref, y)
            values = [None if s == s_ref else model(s, y) for s in s_list]
        except EvaluationError:
            raise
        except Exception as exc:
            raise EvaluationError(f"model failed at node index {i}: {exc}") from exc
        for k, s in enumerate(s_list):
            if s == s_ref:
                continue
            d = float(norm(reference, values[k]))
            if not np.isfinite(d):
                raise EvaluationError(
                    f"non-finite distance {d!r} at node index {i}, s = {s}"
                )
            sums[k] += d * d
    return sums


def estimate_truncation_errors(
    model, s_list, s_ref, rule: LatticeRule, norm, n_used=None, workers: int = 1
):
    """QMC estimates of the L2 truncation error for every s in s_list.

    `model(s, y)` receives the node y with all s_ref coordinates and returns
    the output at y truncated to its first s coordinates.  For each node the
    model is evaluated once at the reference dimension s_ref (the stand-in
    for infinity) and once per requested truncation level, all on the same
    y; `norm` maps two model outputs to their distance.  Returns an array
    aligned with s_list; entries with s = s_ref are exactly zero.

    Work is split into fixed blocks of 64 node indices.  With workers > 1
    the blocks go to a process pool of at most one process per block
    (model, rule and norm must be picklable); the fixed block partition and
    pairwise reduction make the result bit-identical for every worker count.
    """
    global _SWEEP_STATE
    if workers < 1:
        raise ValueError(f"workers = {workers} must be at least 1")
    n_used = _check_n_used(rule, n_used)
    s_list = [int(s) for s in s_list]
    if not s_list:
        raise ValueError("s_list must be nonempty")
    for s in s_list:
        if not 0 <= s <= s_ref:
            raise ValueError(f"s = {s} outside [0, s_ref = {s_ref}]")
    if s_ref > rule.z.size:
        raise ValueError(
            f"s_ref = {s_ref} exceeds generating vector length {rule.z.size}"
        )
    blocks = [(b, min(b + _SWEEP_BLOCK, n_used)) for b in range(0, n_used, _SWEEP_BLOCK)]
    # the pool starts all its processes up front, needed or not
    workers = min(workers, len(blocks))
    if workers == 1:
        _sweep_init(model, s_list, s_ref, rule, norm)
        try:
            partials = [_sweep_block(block) for block in blocks]
        finally:
            _SWEEP_STATE = None
    else:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_sweep_init,
            initargs=(model, s_list, s_ref, rule, norm),
        ) as pool:
            partials = list(pool.map(_sweep_block, blocks))
    totals = _pairwise_sum(partials)
    return np.sqrt(totals / n_used)


def scalar_distance(u, v) -> float:
    """Distance |u - v| for models returning plain numbers."""
    return abs(u - v)


def parse_generating_vector(text: str) -> np.ndarray:
    """Parse generating-vector text into an int64 array.

    Accepts one component per line, or two whitespace-separated columns
    (dimension, component) with a strictly increasing dimension column.
    """
    values = []
    last_index = None
    ncols = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (1, 2):
            raise LatticeFormatError(
                f"line {lineno}: expected 1 or 2 columns, found {len(parts)}"
            )
        if ncols is None:
            ncols = len(parts)
        elif len(parts) != ncols:
            raise LatticeFormatError(
                f"line {lineno}: mixed {ncols}-column and {len(parts)}-column rows"
            )
        try:
            numbers = [int(part) for part in parts]
        except ValueError:
            raise LatticeFormatError(
                f"line {lineno}: non-integer token in {line!r}"
            ) from None
        if ncols == 2:
            if last_index is not None and numbers[0] <= last_index:
                raise LatticeFormatError(
                    f"line {lineno}: dimension column must increase strictly "
                    f"({numbers[0]} after {last_index})"
                )
            last_index = numbers[0]
            component = numbers[1]
        else:
            component = numbers[0]
        if component <= 0:
            raise LatticeFormatError(
                f"line {lineno}: component {component} is not positive"
            )
        values.append(component)
    if not values:
        raise LatticeFormatError("no generating-vector entries found")
    return np.asarray(values, dtype=np.int64)


def load_generating_vector(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        return parse_generating_vector(fh.read())


def load_builtin_vector() -> np.ndarray:
    """The vendored generating vector shipped with the package."""
    resource = importlib.resources.files("trunclab") / "data" / BUILTIN_VECTOR
    return parse_generating_vector(resource.read_text(encoding="ascii"))


def declared_node_range(filename: str):
    """(n_min, n_max) declared in names like 'lattice-x-1024-1048576.3600.txt'.

    Returns None when the name does not follow that layout.
    """
    match = re.search(r"-(\d+)-(\d+)\.(\d+)(?:\.\w+)?$", str(filename))
    if not match:
        return None
    return int(match.group(1)), int(match.group(2))
