"""The benchmark's workloads: inputs, set-up, the timed call and its checks.

Every workload goes through the package's public entry points:
`experiment.run_experiment(config, out, workers)` for the PDE sweeps and
`experiment.oracle_check_report(...)` for the scalar oracle.  The lattice
shift seed is the benchmark's `--seed`; nothing else about the inputs
depends on it.

Importing this module needs `trunclab` on `sys.path`; `run.py` puts the
checkout's own `src/` there first.
"""

import math
import os
import re

from trunclab import experiment, lattice
from trunclab.experiment import ExperimentConfig, PdeTruncationModel
from trunclab.field import DiffusionFieldSpec, Transform
from trunclab.oracle import ScalarTruncationModel, default_oracle_spec

# Reference tables may move in the last digits when a later solver path
# reorders floating-point work; these bound that movement.  An error value e
# passes against its reference r when |e - r| <= RTOL*|r| + ATOL*max|r|.
TABLE_RTOL = 1e-6
TABLE_ATOL = 1e-9
# oracle_check_report prints seven significant digits
ORACLE_RTOL = 1e-5

ORACLE_LINE = re.compile(r"^s=(\d+): E\*=(\S+) qmc=(\S+) rel_gap=(\S+) (pass|FAIL)$")


class PdeWorkload:
    """A truncation sweep through `experiment.run_experiment`."""

    def __init__(self, name, params, workers, ref_key):
        self.name = name
        self.params = params
        self.workers = workers
        self.ref_key = ref_key  # workloads with identical outputs share references

    def config(self, seed, nodes=None):
        params = dict(self.params)
        if nodes is not None:
            params["n_nodes"] = nodes
        return ExperimentConfig(seed=seed, **params)

    def warm_config(self):
        """A tiny config on the same code path, to finish lazy set-up."""
        return ExperimentConfig(
            theta_list=(2.0,), s_list=(2,), s_ref=4, mesh_m=4, n_nodes=2,
            transform=self.params["transform"], norm=self.params["norm"],
        )

    def solves(self, config):
        """Model evaluations in one call: n x (len(s_list) + 1) x len(theta)."""
        return config.n_nodes * (len(config.s_list) + 1) * len(config.theta_list)

    def setup(self, config):
        """What run_experiment does before its first solve, for every theta."""
        z = lattice.load_builtin_vector()
        lattice.lattice_rule(config.n_nodes, z, seed=config.seed)
        for theta in config.theta_list:
            spec = DiffusionFieldSpec(
                a0=experiment.FIELD_A0,
                decay=theta,
                transform=Transform(config.transform),
                max_modes=config.s_ref,
            )
            PdeTruncationModel(spec, config.mesh_m, quantity=config.quantity)

    def call(self, config, out_dir, workers):
        """Run the sweep; return the error tables and the CSV bytes."""
        outputs = experiment.run_experiment(config, out_dir, workers)
        tables = {}
        csv = {}
        for path, table in outputs:
            tables[table.metadata["theta"]] = [[int(s), float(e)] for s, e in table.rows]
            with open(path, "rb") as fh:
                csv[os.path.basename(path)] = fh.read()
        return {"tables": tables, "csv": csv}

    def reference_entry(self, result):
        return result["tables"]

    def check(self, config, result, reference):
        """Problems with one call's output; an empty list means correct.

        Seed-independent: one table per theta, the configured s values,
        finite positive errors, and a smaller error at the largest s than at
        the smallest.  (Neighbouring values need not fall: beyond s = 2m the
        mesh aliases modes, and at few nodes the estimate can rise.)  With a
        stored reference for this seed, every error must also match it.
        """
        problems = []
        tables = result["tables"]
        expected = [repr(float(t)) for t in config.theta_list]
        if sorted(tables) != sorted(expected):
            return [f"tables for theta {sorted(tables)}, expected {sorted(expected)}"]
        for theta, rows in tables.items():
            s_vals = [s for s, _ in rows]
            errors = [e for _, e in rows]
            if s_vals != list(config.s_list):
                problems.append(f"theta={theta}: s values {s_vals}")
                continue
            if not all(math.isfinite(e) and e > 0.0 for e in errors):
                problems.append(f"theta={theta}: non-finite or nonpositive error {errors}")
                continue
            if errors[-1] >= errors[0]:
                problems.append(f"theta={theta}: error does not fall from s_min to s_max {errors}")
            if reference is None:
                continue
            ref = [e for _, e in reference[theta]]
            scale = max(abs(r) for r in ref)
            for s, e, r in zip(s_vals, errors, ref):
                if abs(e - r) > TABLE_RTOL * abs(r) + TABLE_ATOL * scale:
                    problems.append(f"theta={theta} s={s}: error {e!r} vs reference {r!r}")
        return problems


class OracleWorkload:
    """The default scalar oracle check through `experiment.oracle_check_report`."""

    ref_key = "oracle_scalar"
    n_used = 2 ** 14  # the report's default node count
    workers = 1

    def __init__(self, name):
        self.name = name

    def config(self, seed, nodes=None):
        return {"seed": seed}

    def warm_config(self):
        return None

    def solves(self, config):
        """Scalar model calls: two per node (reference, truncated) per s < s'."""
        return self.n_used * 2 * (default_oracle_spec().s_prime - 1)

    def setup(self, config):
        z = lattice.load_builtin_vector()
        lattice.lattice_rule(self.n_used, z, seed=config["seed"])
        ScalarTruncationModel(default_oracle_spec())

    def call(self, config, out_dir, workers):
        ok, lines = experiment.oracle_check_report(seed=config["seed"])
        rows = []
        for line in lines[:-1]:
            match = ORACLE_LINE.match(line)
            rows.append(
                None if match is None
                else [int(match.group(1)), float(match.group(2)), float(match.group(3))]
            )
        return {"ok": ok, "lines": lines, "rows": rows}

    def reference_entry(self, result):
        return result["rows"]

    def check(self, config, result, reference):
        """PASSED with one parsable line per s < s'; seed-independent exact
        values always match the stored ones, estimates too when stored."""
        lines = result["lines"]
        rows = result["rows"]
        s_prime = default_oracle_spec().s_prime
        if not result["ok"] or not lines or lines[-1] != "oracle check PASSED":
            return [f"oracle check did not pass: {lines[-1:]}"]
        if len(rows) != s_prime - 1 or any(r is None for r in rows):
            return [f"unexpected oracle report lines {lines}"]
        problems = []
        for s, exact, _ in rows:
            ref_exact = EXACT_ORACLE.get(s)
            if ref_exact is None or abs(exact - ref_exact) > ORACLE_RTOL * ref_exact:
                problems.append(f"s={s}: exact {exact!r} vs stored {ref_exact!r}")
        if reference is not None:
            for (s, _, qmc), (_, _, ref_qmc) in zip(rows, reference):
                if abs(qmc - ref_qmc) > ORACLE_RTOL * abs(ref_qmc):
                    problems.append(f"s={s}: estimate {qmc!r} vs reference {ref_qmc!r}")
        return problems


# Tensor-quadrature truncation errors of the default oracle model, as the
# report prints them.  They do not depend on the lattice shift.
EXACT_ORACLE = {1: 3.661418e-03, 2: 1.754381e-03, 3: 1.018594e-03, 4: 6.260624e-04, 5: 3.571036e-04}

DESK = {
    "theta_list": (1.5, 2.0, 3.0),
    "s_list": (4, 8, 16, 32, 64, 128, 256),
    "s_ref": 512,
    "mesh_m": 16,
    "n_nodes": 128,  # two 64-node sweep blocks per theta, one per pool worker
    "transform": "periodic",
    "quantity": "full_solution",
    "norm": "L2",
}

PAPER_M32 = {
    "theta_list": (2.0,),
    "s_list": tuple(2 ** k for k in range(1, 10)),
    "s_ref": 2048,
    "mesh_m": 32,
    "n_nodes": 32,
    "transform": "identity",
    "quantity": "full_solution",
    "norm": "H10",
}

WORKLOADS = {
    "desk_serial": PdeWorkload("desk_serial", DESK, workers=1, ref_key="desk"),
    "desk_pool": PdeWorkload("desk_pool", DESK, workers=2, ref_key="desk"),
    "paper_m32": PdeWorkload("paper_m32", PAPER_M32, workers=1, ref_key="paper_m32"),
    "oracle_scalar": OracleWorkload("oracle_scalar"),
}
