"""Experiment orchestration: configs, the PDE truncation model, runs, reports.

A run reproduces the truncation-error convergence study: for each decay
exponent theta it sweeps the truncation dimension s over a rank-1 lattice
QMC estimate of the L2 parameter-space error, against a reference solution
at dimension s_ref, and writes one CSV error table per theta.  The same
random shift (drawn from the config seed) serves every theta.
"""

import json
import math
import numbers
import os
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import fem, field, lattice, theory
from .field import (
    DiffusionFieldSpec,
    Transform,
    b_sequence,
    coercivity_bounds,
    coercivity_limit_bounds,
)
from .oracle import (
    PERIODIC_MOMENT_BOUND,
    UNIFORM_MOMENT_BOUND,
    ScalarModelSpec,
    ScalarTruncationModel,
    default_oracle_spec,
    exact_l2_truncation_error,
)

TRANSFORMS = ("identity", "periodic")
QUANTITIES = ("full_solution", "qoi_nl")
NORMS = ("L2", "H10")

# Dual norm bound of the fixed source f(x) = x1: ||f||_{X'} <= C_P ||f||_{L2}
# with Poincare constant C_P = 1/(sqrt(2) pi) on the unit square and
# ||x1||_{L2} = 1/sqrt(3), so ||f||_{X'} <= 1/(pi sqrt(6)).
SOURCE_DUAL_NORM_BOUND = 1.0 / (math.pi * math.sqrt(6.0))

FIELD_A0 = 1.5


def _number(name, value) -> float:
    """value as a float; ValueError unless it is a finite real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _integer(name, value) -> int:
    """value as an int; ValueError unless it is an integral number."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _list_of(name, value, convert) -> tuple:
    """Every entry of a list-like value converted with convert(name, entry)."""
    if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return tuple(convert(f"{name} entry", v) for v in value)


@dataclass(frozen=True)
class ExperimentConfig:
    """One convergence study: which decays, dimensions, mesh, budget, output.

    Defaults are the desk-scale study (minutes); paper_scale() upgrades to
    the full-scale geometry (mesh_m=32, n_nodes=2^20, s_ref=2^11,
    s in {2, 4, ..., 512}), which runs for hours.
    """

    theta_list: tuple = (1.5, 2.0, 3.0)
    s_list: tuple = (2, 4, 8, 16, 32, 64, 128, 256)
    s_ref: int = 512
    mesh_m: int = 16
    n_nodes: int = 2 ** 13
    seed: int = 1
    transform: str = "periodic"
    quantity: str = "full_solution"
    norm: str = "L2"
    lattice_file: str = "builtin"

    def __post_init__(self):
        # JSON configs arrive unchecked: coerce first, so the checks below see numbers
        for name in ("s_ref", "mesh_m", "n_nodes", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        object.__setattr__(self, "theta_list", _list_of("theta_list", self.theta_list, _number))
        object.__setattr__(self, "s_list", _list_of("s_list", self.s_list, _integer))
        if not self.theta_list:
            raise ValueError("theta_list must be nonempty")
        for theta in self.theta_list:
            if theta <= 1.0:
                raise ValueError(
                    f"theta = {theta} <= 1: b is not l^p-summable for any p < 1"
                )
        s_list = self.s_list
        if not s_list:
            raise ValueError("s_list must be nonempty")
        if any(s <= 0 for s in s_list) or any(
            a >= b for a, b in zip(s_list, s_list[1:])
        ):
            raise ValueError("s_list must be strictly increasing positive integers")
        if self.s_ref < 1:
            raise ValueError(f"s_ref = {self.s_ref} must be positive")
        if s_list[-1] > self.s_ref:
            raise ValueError(
                f"max(s_list) = {s_list[-1]} exceeds the reference dimension {self.s_ref}"
            )
        if self.mesh_m < 2:
            raise ValueError(
                f"mesh_m = {self.mesh_m} leaves no interior vertex to solve for; "
                "it must be at least 2"
            )
        if self.n_nodes < 2 or self.n_nodes & (self.n_nodes - 1):
            raise ValueError(f"n_nodes = {self.n_nodes} is not a power of two >= 2")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.transform not in TRANSFORMS:
            raise ValueError(f"transform must be one of {TRANSFORMS}")
        if self.quantity not in QUANTITIES:
            raise ValueError(f"quantity must be one of {QUANTITIES}")
        if self.norm not in NORMS:
            raise ValueError(f"norm must be one of {NORMS}")
        if not isinstance(self.lattice_file, str) or not self.lattice_file:
            raise ValueError("lattice_file must be a nonempty path or 'builtin'")


def paper_scale(config: ExperimentConfig) -> ExperimentConfig:
    """Full-scale variant of a config: the geometry the published figures use."""
    return replace(
        config,
        mesh_m=32,
        n_nodes=2 ** 20,
        s_ref=2 ** 11,
        s_list=tuple(2 ** k for k in range(1, 10)),
    )


def config_from_json(text: str) -> ExperimentConfig:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("config JSON must be an object")
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return ExperimentConfig(**data)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_json(fh.read())


def _load_vector(config: ExperimentConfig) -> np.ndarray:
    if config.lattice_file == "builtin":
        z = lattice.load_builtin_vector()
        declared = lattice.declared_node_range(lattice.BUILTIN_VECTOR)
    else:
        z = lattice.load_generating_vector(config.lattice_file)
        declared = lattice.declared_node_range(os.path.basename(config.lattice_file))
    if declared is not None and config.n_nodes > declared[1]:
        raise ValueError(
            f"n_nodes = {config.n_nodes} exceeds the vector's declared maximum "
            f"{declared[1]}"
        )
    if config.s_ref > z.size:
        raise ValueError(
            f"s_ref = {config.s_ref} exceeds the generating vector length {z.size}"
        )
    return z


def field_spec_for(config: ExperimentConfig, theta: float) -> DiffusionFieldSpec:
    """The coefficient family a run of config uses at decay theta."""
    return DiffusionFieldSpec(
        a0=FIELD_A0,
        decay=theta,
        transform=Transform(config.transform),
        max_modes=config.s_ref,
    )


class PdeTruncationModel:
    """The FEM solution (or its QoI) as a function of (s, nodes) for the estimator.

    Everything reusable is precomputed once: mesh geometry and band
    scatter, the load vector of the fixed source f(x) = x1, and the sine
    table of all modes up to s_ref at the distinct stiffness quadrature
    points (an edge midpoint serves both triangles of its edge).  A call
    model(s, nodes) takes a (k, s_ref) stack of nodes and returns the k
    outputs for the coefficients of the nodes truncated to their first s
    coordinates, stacked on axis 0: the nodal values (k, vertices) of the
    solutions, or with quantity="qoi_nl" the scalars G(u) (k,).  Instances
    are picklable, so process pools can receive them wholesale.
    """

    def __init__(
        self,
        field_spec: DiffusionFieldSpec,
        mesh_m: int,
        quantity: str = "full_solution",
    ):
        self.spec = field_spec
        self.quantity = quantity
        mesh = fem.build_unit_square_mesh(mesh_m)
        self.assembler = fem.Assembler(mesh)
        self.rhs = self.assembler.load(self.assembler.coefficient_at_quad(lambda p: p[:, 0]))
        points, self.point_index = np.unique(
            self.assembler.quad_points.reshape(-1, 2), axis=0, return_inverse=True
        )
        self.mode_table = field.mode_table(field_spec.max_modes, points)
        self.mode_weights = field.mode_weights(field_spec, field_spec.max_modes)

    def coefficient_at_quad(self, nodes) -> np.ndarray:
        """Coefficient samples (k, T, Q) for a (k, s) stack of truncated nodes."""
        coeff = field.coefficient_from_modes(self.spec, nodes, self.mode_table, self.mode_weights)
        return coeff[:, self.point_index].reshape(-1, *self.assembler.quad_points.shape[:2])

    def __call__(self, s, nodes):
        # xi(0) = 0, so dropping the coordinates past s truncates exactly
        active = np.asarray(nodes, dtype=float)[:, : int(s)]
        mesh = self.assembler.mesh
        values = np.empty((len(active), len(mesh.vertices)))
        for row, coeff in zip(values, self.coefficient_at_quad(active)):
            row[:] = fem.solve(self.assembler.stiffness(coeff), self.rhs, mesh)
        if self.quantity == "qoi_nl":
            return fem.qoi_nl(values, mesh)
        return values


def distance_for(quantity: str, norm: str, mesh: fem.TriangularMesh):
    """The distance between stacks of outputs for a config's quantity and norm."""
    if quantity == "qoi_nl":
        return lattice.scalar_distance
    return partial(fem.diff_norm, mesh=mesh, which=norm)


def _format_float(value: float) -> str:
    return repr(float(value))


def table_filename(config: ExperimentConfig, theta: float) -> str:
    return f"trunc_{config.quantity}_{config.transform}_theta{_format_float(theta)}.csv"


def run_experiment(config: ExperimentConfig, out_dir, workers: int = 1):
    """Run the truncation sweep for every theta; one CSV table per theta.

    Returns a list of (path, ErrorTable) in theta order.  Identical config,
    seed and lattice file give byte-identical CSVs, for any worker count.
    """
    # checked here too, so a bad count leaves no output directory and builds no model
    if workers < 1:
        raise ValueError(f"workers = {workers} must be at least 1")
    z = _load_vector(config)
    rule = lattice.lattice_rule(config.n_nodes, z, seed=config.seed)
    os.makedirs(out_dir, exist_ok=True)
    outputs = []
    for theta in config.theta_list:
        model = PdeTruncationModel(
            field_spec_for(config, theta), config.mesh_m, quantity=config.quantity
        )
        errors = lattice.estimate_truncation_errors(
            model,
            config.s_list,
            config.s_ref,
            rule,
            distance_for(config.quantity, config.norm, model.assembler.mesh),
            n_used=config.n_nodes,
            workers=workers,
        )
        metadata = {
            "norm": config.norm,
            "theta": _format_float(theta),
            "transform": config.transform,
            "n": str(config.n_nodes),
            "s_ref": str(config.s_ref),
            "h": _format_float(1.0 / config.mesh_m),
            "seed": str(config.seed),
            "quantity": config.quantity,
        }
        table = theory.ErrorTable(tuple(zip(config.s_list, errors)), metadata)
        path = os.path.join(out_dir, table_filename(config, theta))
        table.write(path)
        outputs.append((path, table))
    return outputs


def theory_params_for(config: ExperimentConfig, theta: float):
    """Certified TheoryParams of the PDE instance at one decay value.

    Theta_ell = ell! ||f||_{X'} / a_min is the affine-case certificate; the
    periodic parameterization keeps the same shape with the transform's
    moment constant swapped in for the uniform one.
    """
    field_spec = field_spec_for(config, theta)
    a_min, a_max = coercivity_bounds(field_spec)
    p = theory.summability_exponent(theta)
    params = theory.affine_theory_params(
        SOURCE_DUAL_NORM_BOUND / a_min,
        b_sequence(field_spec, config.s_ref),
        p,
        c_mu=UNIFORM_MOMENT_BOUND,
        c_xi=PERIODIC_MOMENT_BOUND,
    )
    return params, field_spec, (a_min, a_max)


def predict_report(config: ExperimentConfig):
    """Theory predictions per theta: rate, p, k, coercivity, bound table.

    Returns (lines, tables): printable text and one ErrorTable of the
    closed-form squared-error bound per theta, ready to be written next to
    measured tables.  The bound's constant grows like exp(beta_k ||b||_p^2);
    for PDE-scale sequences with b_1 of order one it routinely exceeds the
    double range, in which case the theta is reported in text without a
    bound table (the rate statement is unaffected, only the constant is
    unrepresentable).
    """
    moment = "xi" if config.transform == "periodic" else "mu"
    lines = []
    tables = []
    for theta in config.theta_list:
        p = theory.summability_exponent(theta)
        k = theory.taylor_order(p)
        rate = theory.expected_rate(theta)
        params, field_spec, (a_min, a_max) = theory_params_for(config, theta)
        limit_lo, limit_hi = coercivity_limit_bounds(field_spec)
        lines.append(
            f"theta={theta:g}: expected rate {rate:g}, p={p:.6g}, k={k}, "
            f"a_min={a_min:.6g}, a_max={a_max:.6g} "
            f"(infinite-sum envelope: a_min={limit_lo:.6g}, a_max={limit_hi:.6g})"
        )
        try:
            bounds = [
                theory.truncation_upper_bound(params, s, moment=moment)
                for s in config.s_list
            ]
        except OverflowError as exc:
            lines.append(f"  squared-error bound not representable: {exc}")
            continue
        lines.append(
            f"  squared-error bound at s={config.s_list[0]}: {bounds[0]:.6e}, "
            f"at s={config.s_list[-1]}: {bounds[-1]:.6e}"
        )
        metadata = {
            "kind": "upper_bound_sq",
            "theta": _format_float(theta),
            "transform": config.transform,
            "p": _format_float(p),
            "k": str(k),
            "s_ref": str(config.s_ref),
        }
        tables.append(
            theory.ErrorTable(tuple(zip(config.s_list, bounds)), metadata)
        )
    return lines, tables


def fit_report(table_path, s_min=None):
    """Fit a stored table and compare against the expected rate."""
    table = theory.ErrorTable.read(table_path)
    result = theory.fit_rate(table, s_min=s_min)
    lines = [
        f"{table_path}: slope {result.slope:.4f}, intercept {result.intercept:.4f}, "
        f"residual {result.residual:.3e}"
    ]
    if "theta" in table.metadata:
        rate = theory.expected_rate(float(table.metadata["theta"]))
        lines.append(
            f"expected rate {rate:g}, gap {abs(result.slope - rate):.4f}"
        )
    return lines


def oracle_spec_from_json(text: str) -> ScalarModelSpec:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("oracle spec JSON must be an object")
    unknown = sorted(set(data) - {"a0", "b", "transform"})
    if unknown:
        raise ValueError(f"unknown oracle spec keys: {', '.join(unknown)}")
    return ScalarModelSpec(
        a0=_number("a0", data.get("a0", 1.5)),
        b=_list_of("b", data.get("b", ()), _number),
        transform=Transform(data.get("transform", "identity")),
    )


def oracle_check_report(spec=None, seed: int = 1, n_used: int = 2 ** 14, q: int = 16):
    """Compare QMC truncation estimates against the tensor-quadrature oracle.

    Returns (ok, lines): ok is False when any relative gap exceeds 2%.
    Exact zeros on both sides (the constant-model case) count as a pass.
    """
    spec = default_oracle_spec() if spec is None else spec
    z = lattice.load_builtin_vector()
    rule = lattice.lattice_rule(n_used, z, seed=seed)
    s_values = list(range(1, spec.s_prime))
    # first, so a spec past the grid budget fails before any sweep; as in the
    # sweep, extra BLAS threads only spin on the quadrature's small products
    with lattice.single_blas_thread():
        exacts = [exact_l2_truncation_error(spec, s, q=q) for s in s_values]
    estimates = []
    if s_values:
        estimates = lattice.estimate_truncation_errors(
            ScalarTruncationModel(spec),
            s_values,
            spec.s_prime,
            rule,
            lattice.scalar_distance,
            n_used=n_used,
        ).tolist()
    ok = True
    lines = []
    for s, estimate, exact in zip(s_values, estimates, exacts):
        if exact == 0.0 and estimate == 0.0:
            lines.append(f"s={s}: exact zero on both sides, pass")
            continue
        gap = abs(estimate - exact) / exact if exact else math.inf
        good = gap <= 0.02
        ok = ok and good
        lines.append(
            f"s={s}: E*={exact:.6e} qmc={estimate:.6e} rel_gap={gap:.4f} "
            f"{'pass' if good else 'FAIL'}"
        )
    lines.append("oracle check PASSED" if ok else "oracle check FAILED (gap > 2%)")
    return ok, lines
