"""In-memory span tracing of the package's layers, installed from outside.

`Tracer.installed()` replaces the public functions on the path of one solve
with wrappers that record a span (layer, start, end, parent span, workload
call) and restores the originals on exit.  Spans stay in compact arrays
until `save()` writes them out after the run.  Tracing needs the sweep in
this process, so traced calls run with workers=1.
"""

import json
import os
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

from trunclab import experiment, fem, field, lattice, oracle, theory

ROOT_SPAN = "workload"


def _coeff_counts(args):
    """Computed bytes and multiply-adds of one coefficient synthesis.

    The (s, P) slice of the mode table is read once (s x 6m^2 points x 8 B
    for the default rule) and dotted with xi*b; the P coefficients are
    written.
    """
    model, y = args[0], args[1]
    s = np.asarray(y).size
    points = model.mode_table.shape[1]
    return 8 * (s * points + points + 3 * s), s * points + s


def _assembly_counts(args):
    """Computed bytes and multiply-adds of one stiffness assembly.

    The (T, Q) coefficient samples are read twice (positivity scan and
    quadrature average), the T x 9 element matrices are read and the scaled
    copy written, K kept entries are gathered and scatter-added by index
    into nnz matrix entries.
    """
    assembler, coeff = args[0], np.asarray(args[1])
    triangles, quad = coeff.shape
    kept = assembler._scatter.size
    nnz = assembler._nnz
    nbytes = 8 * (2 * triangles * quad + 18 * triangles + 2 * kept + nnz) + 9 * triangles
    return nbytes, triangles * quad + 9 * triangles + kept


def _csv_bytes(args):
    return os.path.getsize(args[1]), 0


# (layer, owner, attribute, computed counts of one call or None)
TARGETS = (
    ("lattice.generate_node", lattice, "generate_node", None),
    ("lattice.sweep", lattice, "estimate_truncation_errors", None),
    ("experiment.setup_model", experiment.PdeTruncationModel, "__init__", None),
    ("experiment.coeff", experiment.PdeTruncationModel, "coefficient_at_quad", _coeff_counts),
    ("field.transform", field.Transform, "apply", None),
    ("fem.assembly", fem.Assembler, "stiffness", _assembly_counts),
    ("fem.solve", fem, "solve", None),
    ("fem.distance", fem, "diff_norm", None),
    ("oracle.model", oracle.ScalarTruncationModel, "__call__", None),
    ("oracle.exact", experiment, "exact_l2_truncation_error", None),
    ("theory.write", theory.ErrorTable, "write", _csv_bytes),
)
LAYERS = tuple(target[0] for target in TARGETS)
COUNTED = tuple(target[0] for target in TARGETS if target[3] is not None)


class Tracer:
    def __init__(self):
        self.names = (ROOT_SPAN,) + LAYERS
        self.layer = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.call = array("l")
        self.bytes = {name: 0 for name in COUNTED}
        self.madds = {name: 0 for name in COUNTED}
        self.missing = []
        self._stack = []
        self._call = -1

    def _open(self, layer_id):
        index = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.call.append(self._call)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def _close(self, index):
        self.end[index] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn, counts):
        layer_id = self.names.index(name)

        def traced(*args, **kwargs):
            index = self._open(layer_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
                if counts is not None:
                    try:
                        nbytes, madds = counts(args)
                    except AttributeError:  # the layer no longer has the counted arrays
                        nbytes = madds = 0
                    self.bytes[name] += nbytes
                    self.madds[name] += madds

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target that exists; restore all of them on exit."""
        saved = []
        try:
            for name, owner, attr, counts in TARGETS:
                original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
                if original is None:
                    self.missing.append(name)
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, counts))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def workload_call(self):
        """Root span of one workload call; its index identifies the call."""
        self._call += 1
        index = self._open(0)
        try:
            yield
        finally:
            self._close(index)

    def arrays(self):
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int16).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "call": np.frombuffer(self.call, dtype=np.int64).copy(),
        }

    def save(self, path):
        np.savez(path, names=np.array(json.dumps(self.names)), **self.arrays())

    def summary(self):
        """Per-layer metrics, per workload call where they are counts."""
        spans = self.arrays()
        layer, parent = spans["layer"], spans["parent"]
        dur = (spans["end_ns"] - spans["start_ns"]).astype(float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_ns = dur - child
        roots = layer == 0
        n_calls = max(int(roots.sum()), 1)
        wall_ns = float(dur[roots].sum())
        metrics = {}
        for layer_id, name in enumerate(self.names[1:], start=1):
            mask = layer == layer_id
            samples = dur[mask]
            metrics[f"{name}.calls"] = (samples.size / n_calls, "count")
            metrics[f"{name}.samples"] = (samples.size, "count")
            p50, p99 = np.percentile(samples, [50, 99]) / 1e3 if samples.size else (0.0, 0.0)
            metrics[f"{name}.us_p50"] = (float(p50), "us")
            metrics[f"{name}.us_p99"] = (float(p99), "us")
            metrics[f"{name}.share"] = (float(samples.sum()) / wall_ns if wall_ns else 0.0, "ratio")
        sweep = layer == self.names.index("lattice.sweep")
        metrics["lattice.sweep.self_s"] = (float(self_ns[sweep].sum()) / n_calls / 1e9, "s")
        for name in ("experiment.coeff", "fem.assembly"):
            busy_ns = float(self_ns[layer == self.names.index(name)].sum())
            metrics[f"{name}.bytes_computed"] = (self.bytes[name] / n_calls, "B")
            metrics[f"{name}.madds_computed"] = (self.madds[name] / n_calls, "count")
            metrics[f"{name}.gbps_computed"] = (self.bytes[name] / busy_ns if busy_ns else 0.0, "GB/s")
        writes = metrics["theory.write.samples"][0]
        metrics["theory.write.bytes_per_csv"] = (
            self.bytes["theory.write"] / writes if writes else 0.0, "B"
        )
        metrics["trace.spans"] = (dur.size / n_calls, "count")
        return metrics
