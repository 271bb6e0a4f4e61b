import math
from fractions import Fraction

import numpy as np
import pytest

from trunclab import lattice, oracle
from trunclab.lattice import (
    EvaluationError,
    LatticeFormatError,
    LatticeRule,
    declared_node_range,
    draw_shift,
    estimate_truncation_errors,
    generate_nodes,
    lattice_rule,
    parse_generating_vector,
    scalar_distance,
)


def _unshifted(n, z):
    return LatticeRule(n=n, z=np.asarray(z, dtype=np.int64), shift=np.zeros(len(z)), seed=0)


def _node(rule, i, s):
    return generate_nodes(rule, i, i + 1, s)[0]


def _constant_distance(value):
    return lambda u, v: value


def test_parse_single_column():
    assert parse_generating_vector("1\n182667\n").tolist() == [1, 182667]


def test_parse_two_column():
    assert parse_generating_vector("1 1\n2 182667\n").tolist() == [1, 182667]


def test_parse_empty_rejected():
    with pytest.raises(LatticeFormatError):
        parse_generating_vector("")
    with pytest.raises(LatticeFormatError):
        parse_generating_vector("\n  \n")


def test_parse_malformed_line_number_reported():
    with pytest.raises(LatticeFormatError, match="line 2"):
        parse_generating_vector("1\nx\n")


def test_parse_nonmonotone_index_rejected():
    with pytest.raises(LatticeFormatError, match="increase strictly"):
        parse_generating_vector("1 1\n3 5\n2 7\n")


def test_parse_mixed_formats_rejected():
    with pytest.raises(LatticeFormatError):
        parse_generating_vector("1\n2 5\n")


def test_builtin_vector_loads(builtin_z):
    assert builtin_z.size == 3600
    assert builtin_z[0] == 1
    assert np.all(builtin_z >= 1)


def test_declared_node_range():
    assert declared_node_range("lattice-rcbc-1024-1048576.3600.txt") == (1024, 1048576)
    assert declared_node_range("lattice-39101-1024-1048576.3600") == (1024, 1048576)
    assert declared_node_range("myvector.txt") is None


def test_node_zero_index_is_corner():
    rule = _unshifted(4, [1, 3])
    assert _node(rule, 0, 2).tolist() == [-0.5, -0.5]


def test_node_arithmetic_example():
    rule = _unshifted(4, [1, 3])
    assert _node(rule, 1, 2).tolist() == [-0.25, 0.25]


def test_node_shift_symmetry():
    base = _unshifted(8, [1, 5, 3])
    shifted = LatticeRule(n=8, z=base.z, shift=np.full(3, 0.5), seed=0)
    for i in (0, 1, 5, 7):
        a = _node(base, i, 3) + 0.5  # back to [0,1)
        b = _node(shifted, i, 3) + 0.5
        assert np.allclose((a + 0.5) % 1.0, b, rtol=0, atol=1e-15)


def test_node_periodicity(small_rule):
    for i in (0, 1, 17, 1023):
        a = _node(small_rule, i, 16)
        b = _node(small_rule, i + small_rule.n, 16)
        assert np.array_equal(a, b)


def test_generate_nodes_matches_single(small_rule):
    block = generate_nodes(small_rule, 5, 21, 12)
    for k, i in enumerate(range(5, 21)):
        assert np.array_equal(block[k], _node(small_rule, i, 12))


def test_node_dimension_cap(small_rule):
    with pytest.raises(ValueError):
        generate_nodes(small_rule, 0, 1, small_rule.z.size + 1)


def test_exact_integer_reduction(rng):
    # against a plain big-integer reference, components must agree exactly
    n = 2 ** 20
    z = rng.integers(1, 2 ** 31, size=64, dtype=np.int64) | 1  # odd, never 0 mod n
    z[0] = 1
    rule = lattice_rule(n, z, seed=3)
    shift = rule.shift
    for _ in range(200):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, 64))
        want = ((i * int(z[j])) % n) / n  # python ints: exact
        want = (want + shift[j]) % 1.0 - 0.5
        got = _node(rule, i, 64)[j]
        assert got == want


def test_draw_shift_deterministic():
    assert np.array_equal(draw_shift(42, 16), draw_shift(42, 16))
    assert not np.array_equal(draw_shift(1, 16), draw_shift(2, 16))
    delta = draw_shift(7, 1000)
    assert np.all(delta >= 0.0)
    assert np.all(delta < 1.0)


def test_lattice_rule_validation(builtin_z):
    with pytest.raises(ValueError):
        lattice_rule(100, builtin_z)  # not a power of two
    with pytest.raises(ValueError):
        lattice_rule(2 ** 21, builtin_z)  # beyond supported range
    with pytest.raises(ValueError, match="z_2"):
        lattice_rule(8, np.array([1, 16]))  # reduces to zero residue


def test_lattice_rule_warns_on_nonstandard_first():
    with pytest.warns(UserWarning):
        lattice_rule(8, np.array([3, 5]))


def test_with_seed_changes_only_shift(small_rule):
    other = lattice_rule(small_rule.n, small_rule.z, seed=99)
    assert other.n == small_rule.n
    assert np.array_equal(other.z, small_rule.z)
    assert not np.array_equal(other.shift, small_rule.shift)


def test_qmc_mean_constant_is_exact(small_rule):
    # a constant distance c averages to c^2 exactly, so the estimate is c
    model = oracle.ScalarTruncationModel(oracle.ScalarModelSpec(a0=1.5, b=(0.1, 0.05)))
    err = estimate_truncation_errors(model, [1], 2, small_rule, _constant_distance(2.75))
    assert err[0] == 2.75


def test_qmc_mean_first_coordinate_closed_form():
    def first_coordinate(s, y):
        return float(y[0]) if s >= 1 else 0.0

    for n in (4, 64, 1024):
        rule = _unshifted(n, [1, 17])
        got = estimate_truncation_errors(first_coordinate, [0], 2, rule, scalar_distance)
        # mean of (i/n - 1/2)^2 over i < n, a dyadic rational
        mean_sq = Fraction(1, 12) + Fraction(1, 6 * n * n)
        assert got[0] == math.sqrt(float(mean_sq))


def test_qmc_mean_parity_counting():
    n = 256
    rule = _unshifted(n, [1, 3])

    def parity_indicator(s, y):
        i = round((y[0] + 0.5) * n)
        return 1.0 if s >= 1 and i % 2 == 0 else 0.0

    got = estimate_truncation_errors(parity_indicator, [0], 2, rule, scalar_distance)
    assert got[0] == math.sqrt(0.5)


def test_qmc_mean_rejects_bad_budget(small_rule):
    model = oracle.ScalarTruncationModel(oracle.ScalarModelSpec(a0=1.5, b=(0.1, 0.05)))
    for n_used in (100, 2 * small_rule.n):
        with pytest.raises(ValueError, match="n_used"):
            estimate_truncation_errors(
                model, [1], 2, small_rule, scalar_distance, n_used=n_used
            )


def test_qmc_mean_nonfinite_reports_node_index(small_rule):
    def nan_when_truncated(s, y):
        return math.nan if s < 2 else 0.0

    with pytest.raises(EvaluationError, match=r"nan at node index 0, s = 1"):
        estimate_truncation_errors(
            nan_when_truncated, [1], 2, small_rule, scalar_distance, n_used=64
        )


def test_shift_invariance_for_constant_integrand(builtin_z):
    model = oracle.ScalarTruncationModel(oracle.ScalarModelSpec(a0=1.5, b=(0.1,) * 8))
    values = [
        estimate_truncation_errors(
            model, [4], 8, lattice_rule(512, builtin_z, seed=s), _constant_distance(4.25)
        )[0]
        for s in (1, 2)
    ]
    assert values[0] == values[1] == 4.25


def test_estimate_zero_at_reference_dimension(small_rule):
    spec = oracle.ScalarModelSpec(a0=1.5, b=(0.1, 0.05, 0.02))
    model = oracle.ScalarTruncationModel(spec)
    err = estimate_truncation_errors(model, [3], 3, small_rule, scalar_distance, n_used=64)
    assert err[0] == 0.0


def test_estimate_matches_sweep(small_rule):
    spec = oracle.ScalarModelSpec(a0=1.5, b=(0.1, 0.05, 0.02, 0.01))
    model = oracle.ScalarTruncationModel(spec)
    sweep = estimate_truncation_errors(
        model, [1, 2, 3], 4, small_rule, scalar_distance, n_used=256
    )
    for k, s in enumerate([1, 2, 3]):
        single = estimate_truncation_errors(
            model, [s], 4, small_rule, scalar_distance, n_used=256
        )
        assert single[0] == sweep[k]


def test_estimate_monotone_in_s(small_rule):
    spec = oracle.ScalarModelSpec(a0=1.5, b=(0.2, 0.1, 0.05, 0.025, 0.0125))
    model = oracle.ScalarTruncationModel(spec)
    errs = estimate_truncation_errors(
        model, [1, 2, 3, 4], 5, small_rule, scalar_distance, n_used=1024
    )
    assert np.all(np.diff(errs) < 0)


def test_estimate_validates_dimensions(small_rule):
    spec = oracle.ScalarModelSpec(a0=1.5, b=(0.1, 0.05))
    model = oracle.ScalarTruncationModel(spec)
    with pytest.raises(ValueError):
        estimate_truncation_errors(model, [3], 2, small_rule, scalar_distance)
    with pytest.raises(ValueError):
        estimate_truncation_errors(
            model, [1], small_rule.z.size + 1, small_rule, scalar_distance
        )


def test_estimate_worker_counts_agree(small_rule):
    spec = oracle.ScalarModelSpec(a0=1.5, b=(0.1, 0.05, 0.02))
    model = oracle.ScalarTruncationModel(spec)
    serial = estimate_truncation_errors(
        model, [1, 2], 3, small_rule, scalar_distance, n_used=256, workers=1
    )
    parallel = estimate_truncation_errors(
        model, [1, 2], 3, small_rule, scalar_distance, n_used=256, workers=2
    )
    assert np.array_equal(serial, parallel)


def test_pool_is_capped_at_the_block_count(small_rule, monkeypatch):
    spec = oracle.ScalarModelSpec(a0=1.5, b=(0.1, 0.05, 0.02))
    model = oracle.ScalarTruncationModel(spec)
    monkeypatch.setattr(lattice, "_SWEEP_STATE", None)  # restored after the inline pool

    def estimate(n_used, workers):
        return estimate_truncation_errors(
            model, [1, 2], 3, small_rule, scalar_distance, n_used=n_used, workers=workers
        )

    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers"):
            estimate(64, workers)

    def no_pool(**kwargs):
        raise AssertionError("a pool was started for a single block")

    monkeypatch.setattr(lattice, "ProcessPoolExecutor", no_pool)
    assert np.array_equal(estimate(64, 1000), estimate(64, 1))

    sizes = []

    class InlinePool:
        """Records its size and runs the blocks in this process."""

        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(lattice, "ProcessPoolExecutor", InlinePool)
    assert np.array_equal(estimate(128, 1000), estimate(128, 1))
    assert sizes == [2]


def test_multishift_estimates(builtin_z):
    spec = oracle.ScalarModelSpec(a0=1.5, b=(0.1, 0.05, 0.02))
    model = oracle.ScalarTruncationModel(spec)

    def estimates():
        return [
            estimate_truncation_errors(
                model, [1], 3, lattice_rule(256, builtin_z, seed=seed), scalar_distance
            )[0]
            for seed in (1, 2, 3)
        ]

    values = estimates()
    assert values[0] != values[1]  # distinct shifts move the estimate
    assert values == estimates()


def test_shift_agreement_diagnostic(builtin_z):
    """Distinct shifts agree within a few standard deviations over 8 shifts."""
    from trunclab.field import PERIODIC

    spec = oracle.ScalarModelSpec(a0=1.5, b=(0.1, 0.05, 0.02), transform=PERIODIC)
    model = oracle.ScalarTruncationModel(spec)

    def estimate(seed):
        rule = lattice_rule(1024, builtin_z, seed=seed)
        return estimate_truncation_errors(model, [1], 3, rule, scalar_distance)[0]

    spread = float(np.std([estimate(seed) for seed in range(1, 9)]))
    a, b = estimate(11), estimate(12)
    assert abs(a - b) <= 3.0 * math.sqrt(2.0) * spread + 1e-12


def test_sweep_wraps_model_failures_with_node_index(small_rule):
    class Explodes:
        def __call__(self, s, y):
            raise RuntimeError("synthetic failure")

    with pytest.raises(EvaluationError, match="node index 0"):
        estimate_truncation_errors(
            Explodes(), [1], 2, small_rule, scalar_distance, n_used=64
        )
