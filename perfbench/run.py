"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk_serial --seed 1 --seconds 15 --trace 0

The package is imported from the `src/` directory next to `perfbench/`, so
the benchmark measures the checkout it sits in.  With `--trace 0` the run
reports the end-to-end metrics; with `--trace 1` it times the workload once
untraced and once traced (both with workers=1, so every span stays in this
process) and reports the per-layer metrics.  Every workload call is checked
for correct output.  The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

# set-up is timed at least this often in a run, and for at least this
# long after each workload call
SETUP_REPS = 5
SETUP_SLICE_S = 0.3
# timed workload calls per measuring window, at least
MIN_CALLS = 2


def import_package():
    """Put the checkout's own src/ first on sys.path and import trunclab."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "trunclab", "__init__.py")):
        raise SystemExit(f"perfbench: no trunclab package under {src}")
    sys.path.insert(0, src)
    import trunclab

    if os.path.dirname(os.path.dirname(os.path.abspath(trunclab.__file__))) != src:
        raise SystemExit(f"perfbench: imported trunclab from {trunclab.__file__}, not {src}")


def load_references(workload, seed, nodes):
    """Stored tables for this workload and seed, or None."""
    if nodes is not None:
        return None
    path = os.path.join(HERE, "references.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload.ref_key, {}).get(str(seed))


class Gate:
    """Counts workload calls and their failures.

    A call fails when it raises, when the workload's own check finds a
    problem, or when its output bytes differ from the first call's in this
    run (the same inputs must give the same bytes, for any worker count).
    """

    def __init__(self, workload, config, reference):
        self.workload = workload
        self.config = config
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = None

    def run(self, out_dir, workers):
        """One checked workload call; returns its wall and CPU seconds."""
        self.attempted += 1
        cpu0 = _cpu_now()
        t0 = time.perf_counter()
        try:
            result = self.workload.call(self.config, out_dir, workers)
        except Exception:  # a failing call is a measured outcome, not a crash
            wall = time.perf_counter() - t0
            self._fail(f"call {self.attempted} (workers={workers}) raised:\n{traceback.format_exc()}")
            return wall, _cpu_now() - cpu0
        wall = time.perf_counter() - t0
        cpu = _cpu_now() - cpu0
        problems = self.workload.check(self.config, result, self.reference)
        output = result.get("csv", result.get("lines"))
        if self.first is None:
            self.first = (workers, output)
        elif output != self.first[1]:
            problems.append(
                f"output differs from call 1 (workers={self.first[0]} vs {workers})"
            )
        if problems:
            self._fail(f"call {self.attempted} (workers={workers}): " + "; ".join(problems))
        return wall, cpu

    def _fail(self, message):
        self.failed += 1
        self.problems.append(message)
        print(f"perfbench: FAILED {message}", file=sys.stderr)


def _cpu_now():
    """User plus system CPU seconds of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def timed_calls(gate, out_dir, workers, seconds, tracer=None, between=None):
    """Call the workload for about `seconds`, at least MIN_CALLS times.

    A call is started only if, at the median call time so far, it would end
    less than half a call past the deadline, so runs do not overshoot.  Time
    spent in `between` (run after each call) moves the deadline back.
    """
    walls, cpus = [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_CALLS or (
        time.perf_counter() + 0.5 * statistics.median(walls) < deadline
    ):
        if tracer is None:
            wall, cpu = gate.run(out_dir, workers)
        else:
            with tracer.workload_call():
                wall, cpu = gate.run(out_dir, workers)
        walls.append(wall)
        cpus.append(cpu)
        if between is not None:
            started = time.perf_counter()
            between()
            deadline += time.perf_counter() - started
    return walls, cpus


def setup_sampler(workload, config, times):
    """Time set-up for at least SETUP_SLICE_S per call, appending to `times`.

    Run between workload calls, the set-up samples span the run as the
    calls do, so a slow spell of the machine weighs on both alike.
    """
    def sample():
        started = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            workload.setup(config)
            times.append(time.perf_counter() - t0)
            if time.perf_counter() - started >= SETUP_SLICE_S:
                return
    return sample


def peak_rss_mb(workers):
    """Peak RSS of this process, plus the largest child's once per pool worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + workers * child) / 1024.0


def end_to_end(workload, config, gate, out_dir, seconds):
    setup = []
    sample_setup = setup_sampler(workload, config, setup)
    walls, cpus = timed_calls(gate, out_dir, workload.workers, seconds, between=sample_setup)
    while len(setup) < SETUP_REPS:
        sample_setup()
    if workload.workers > 1:
        gate.run(out_dir, 1)  # the pooled bytes must equal the serial ones
    wall = statistics.median(walls)
    metrics = {
        "wall_s": (wall, "s"),
        "solves_per_s": (workload.solves(config) / wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (peak_rss_mb(workload.workers), "MB"),
    }
    return metrics, {"wall_s": walls, "cpu_s": cpus, "setup_s": setup}


def per_layer(workload, config, gate, out_dir, seconds):
    from tracer import Tracer

    half = seconds / 2.0
    untraced, _ = timed_calls(gate, out_dir, 1, half)
    tracer = Tracer()
    with tracer.installed():
        traced, _ = timed_calls(gate, out_dir, 1, half, tracer)
    if workload.workers > 1:
        gate.run(out_dir, workload.workers)  # the pooled bytes must equal the serial ones
    tracer.save(os.path.join(OUT, f"trace_{workload.name}.npz"))
    if tracer.missing:
        print(f"perfbench: not traced (absent): {', '.join(tracer.missing)}", file=sys.stderr)
    metrics = tracer.summary()
    metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio")
    metrics["trace.wall_s"] = (statistics.median(traced), "s")
    metrics["trace.untraced_wall_s"] = (statistics.median(untraced), "s")
    return metrics, {"untraced_wall_s": untraced, "traced_wall_s": traced}


def main(argv=None):
    parser = argparse.ArgumentParser(description="trunclab benchmark: one workload, one run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="lattice shift seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--nodes", type=int, default=None,
                        help="override the PDE workloads' node count (smoke tests); "
                             "stored references are then not used")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    import_package()
    from sysinfo import machine_info
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    config = workload.config(args.seed, args.nodes)
    reference = load_references(workload, args.seed, args.nodes)
    gate = Gate(workload, config, reference)
    out_dir = os.path.join(OUT, f"{workload.name}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        warm = workload.warm_config()
        if warm is not None:
            workload.call(warm, out_dir, workload.workers)
        measure = per_layer if args.trace else end_to_end
        metrics, samples = measure(workload, config, gate, out_dir, max(args.seconds, 1.0))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "reference": "stored" if reference is not None else "none for this seed",
        "failed_frac": gate.failed / gate.attempted,
        "problems": gate.problems[:10],
        "samples": samples,
        "machine": machine_info(ROOT),
    }
    print("report " + json.dumps(report, sort_keys=True))
    print(f"failed_frac {report['failed_frac']} ratio ({gate.failed} of {gate.attempted} calls)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
