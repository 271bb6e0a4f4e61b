import math

import numpy as np
import pytest

from trunclab import field
from trunclab.fem import Assembler, build_unit_square_mesh
from trunclab.field import (
    IDENTITY,
    PERIODIC,
    CoercivityError,
    DiffusionFieldSpec,
    b_sequence,
    coercivity_bounds,
    coercivity_limit_bounds,
    coefficient_from_modes,
    mode_table,
    mode_weights,
    truncate,
)

# independently computed partial sums (plain Python summation)
SUM_JM2_2048 = 1.6444459047881168
SUM_JM15_2048 = 2.5681865689993963
AMIN_PERIODIC_T2 = 0.8286577706099508
AMIN_IDENTITY_T15 = 0.21590671550030183


def test_periodic_transform_at_zero():
    assert PERIODIC.apply(np.zeros(5)).tolist() == [0.0] * 5


def test_periodic_transform_quarter():
    out = PERIODIC.apply(np.array([0.25]))
    assert out[0] == pytest.approx(1.0 / math.sqrt(6.0), rel=1e-15)


def test_identity_transform_is_noop(rng):
    y = rng.uniform(-0.5, 0.5, size=32)
    out = IDENTITY.apply(y)
    assert np.array_equal(out, y)
    assert out is not y  # defensive copy, caller may mutate


def test_transform_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"y\[2\]"):
        PERIODIC.apply(np.array([0.0, 0.1, 0.7]))


def test_periodic_range_inside_half_interval(rng):
    y = rng.uniform(-0.5, 0.5, size=1000)
    out = PERIODIC.apply(y)
    assert np.all(np.abs(out) <= 0.5)
    assert np.all(np.abs(out) <= 1.0 / math.sqrt(6.0) + 1e-15)


def test_periodic_zero_mean_by_quadrature():
    # 64-point Gauss-Legendre on [-1/2, 1/2]
    x, w = np.polynomial.legendre.leggauss(64)
    x, w = x / 2.0, w / 2.0
    mean = float(np.sum(w * PERIODIC.apply(x)))
    assert abs(mean) <= 1e-12


@pytest.mark.parametrize("k", range(2, 9))
def test_periodic_bounded_moments(k):
    x, w = np.polynomial.legendre.leggauss(64)
    x, w = x / 2.0, w / 2.0
    moment = float(np.sum(w * np.abs(PERIODIC.apply(x)) ** k))
    assert moment <= (1.0 / math.sqrt(6.0)) ** k
    assert moment <= 1.0


def test_truncate_full_length_is_identity(rng):
    y = rng.uniform(-0.5, 0.5, size=12)
    assert np.array_equal(truncate(y, len(y)), y)


def test_truncate_to_zero():
    y = np.array([0.3, -0.1, 0.2])
    assert np.array_equal(truncate(y, 0), np.zeros(3))


def test_truncate_definition():
    out = truncate(np.array([0.1, -0.2, 0.3]), 2)
    assert out.tolist() == [0.1, -0.2, 0.0]


def test_truncate_idempotent(rng):
    for _ in range(50):
        y = rng.uniform(-0.5, 0.5, size=rng.integers(1, 20))
        s = int(rng.integers(0, len(y) + 1))
        once = truncate(y, s)
        assert np.array_equal(truncate(once, s), once)


def test_truncate_rejects_bad_s():
    with pytest.raises(ValueError):
        truncate(np.zeros(3), 4)
    with pytest.raises(ValueError):
        truncate(np.zeros(3), -1)


def test_transform_truncation_commute(rng):
    for transform in (IDENTITY, PERIODIC):
        for _ in range(25):
            y = rng.uniform(-0.5, 0.5, size=16)
            s = int(rng.integers(0, 17))
            a = transform.apply(truncate(y, s))
            b = truncate(transform.apply(y), s)
            assert np.array_equal(a, b)


@pytest.mark.parametrize("m", [5, 16])
def test_mode_table_matches_outer_product_formula(m):
    """The separable table equals the per-point formula bit for bit."""
    points = Assembler(build_unit_square_mesh(m)).quad_points.reshape(-1, 2)
    j = np.arange(1, 513, dtype=float)
    want = np.sin(np.pi * np.outer(j, points[:, 0])) * np.sin(np.pi * np.outer(j, points[:, 1]))
    assert np.array_equal(mode_table(512, points), want)


def test_coefficient_from_modes_stacks_parameter_rows(rng):
    spec = DiffusionFieldSpec(decay=2.0, transform=PERIODIC, max_modes=64)
    x = rng.uniform(0.0, 1.0, size=(50, 2))
    table, weights = mode_table(64, x), mode_weights(spec, 64)
    y = rng.uniform(-0.5, 0.5, size=(4, 32))
    block = coefficient_from_modes(spec, y, table, weights)
    assert block.shape == (4, 50)
    for row, yr in zip(block, y):
        assert np.allclose(row, coefficient_from_modes(spec, yr, table, weights), rtol=1e-14, atol=0)


def test_eval_coefficient_at_zero_parameter():
    spec = DiffusionFieldSpec(decay=2.0, transform=PERIODIC, max_modes=64)
    x = np.array([[0.3, 0.7], [0.5, 0.5], [0.01, 0.99]])
    vals = coefficient_from_modes(spec, np.zeros(16), mode_table(16, x), mode_weights(spec, 16))
    assert np.allclose(vals, 1.5, rtol=0, atol=1e-15)


def test_eval_coefficient_single_mode_identity():
    spec = DiffusionFieldSpec(decay=2.0, transform=IDENTITY, max_modes=8)
    centre = np.array([[0.5, 0.5]])
    val = coefficient_from_modes(spec, [0.25], mode_table(1, centre), mode_weights(spec, 1))
    assert val[0] == pytest.approx(1.75, rel=1e-15)


def test_eval_coefficient_single_mode_periodic():
    spec = DiffusionFieldSpec(decay=2.0, transform=PERIODIC, max_modes=8)
    centre = np.array([[0.5, 0.5]])
    val = coefficient_from_modes(spec, [0.25], mode_table(1, centre), mode_weights(spec, 1))
    assert val[0] == pytest.approx(1.5 + 1.0 / math.sqrt(6.0), rel=1e-15)


def test_eval_coefficient_respects_coercivity(rng):
    spec = DiffusionFieldSpec(decay=2.0, transform=PERIODIC, max_modes=64)
    a_min, a_max = coercivity_bounds(spec)
    weights = mode_weights(spec, 64)
    for _ in range(100):
        y = rng.uniform(-0.5, 0.5, size=64)
        x = rng.uniform(0.0, 1.0, size=(100, 2))
        vals = coefficient_from_modes(spec, y, mode_table(64, x), weights)
        assert np.all(vals >= a_min - 1e-12)
        assert np.all(vals <= a_max + 1e-12)


def test_coercivity_bounds_periodic_theta2():
    spec = DiffusionFieldSpec(decay=2.0, transform=PERIODIC, max_modes=2048)
    a_min, a_max = coercivity_bounds(spec)
    assert a_min == pytest.approx(AMIN_PERIODIC_T2, rel=1e-12)
    assert a_min == pytest.approx(0.8287, abs=5e-5)


def test_coercivity_bounds_identity_theta15():
    spec = DiffusionFieldSpec(decay=1.5, transform=IDENTITY, max_modes=2048)
    a_min, a_max = coercivity_bounds(spec)
    assert a_min == pytest.approx(AMIN_IDENTITY_T15, rel=1e-12)
    assert a_min > 0


def test_coercivity_bounds_sum_symmetry(rng):
    for decay in (1.5, 2.0, 3.0):
        for transform in (IDENTITY, PERIODIC):
            spec = DiffusionFieldSpec(decay=decay, transform=transform, max_modes=128)
            a_min, a_max = coercivity_bounds(spec)
            assert a_min + a_max == pytest.approx(2 * spec.a0, rel=1e-15)


def test_coercivity_rejected_when_sum_too_large():
    with pytest.raises(CoercivityError, match="sum"):
        DiffusionFieldSpec(decay=1.01, transform=IDENTITY, max_modes=2048)


def test_coercivity_limit_bounds_reported_not_raised():
    spec = DiffusionFieldSpec(decay=2.0, transform=PERIODIC, max_modes=64)
    lo, hi = coercivity_limit_bounds(spec)
    a_min, a_max = coercivity_bounds(spec)
    # infinite-sum envelope is strictly wider than any finite truncation
    assert lo < a_min
    assert hi > a_max


def test_b_sequence_first_entry():
    spec = DiffusionFieldSpec(decay=2.0, transform=PERIODIC, max_modes=2048)
    a_min, _ = coercivity_bounds(spec)
    b = b_sequence(spec, 10)
    assert b[0] == pytest.approx(1.0 / a_min, rel=1e-15)
    assert b[0] == pytest.approx(1.2067707990765948, rel=1e-12)


def test_b_sequence_power_law_ratio():
    for decay in (1.5, 2.0, 3.0):
        spec = DiffusionFieldSpec(decay=decay, transform=PERIODIC, max_modes=256)
        b = b_sequence(spec, 200)
        for j in (1, 3, 10, 50):
            assert b[j - 1] / b[2 * j - 1] == pytest.approx(2.0 ** decay, rel=1e-12)


def test_b_sequence_nonincreasing():
    spec = DiffusionFieldSpec(decay=1.5, transform=PERIODIC, max_modes=256)
    b = b_sequence(spec, 256)
    assert np.all(np.diff(b) <= 0)


def test_spec_rejects_decay_at_most_one():
    with pytest.raises(ValueError):
        DiffusionFieldSpec(decay=1.0, transform=IDENTITY, max_modes=16)
