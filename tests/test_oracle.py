import math
import tracemalloc

import numpy as np
import pytest

from trunclab import lattice, oracle, theory
from trunclab.field import IDENTITY, PERIODIC, CoercivityError, truncate
from trunclab.oracle import (
    ScalarModelSpec,
    ScalarTruncationModel,
    certified_theory_params,
    default_oracle_spec,
    exact_l2_truncation_error,
    gauss_legendre_rule,
    scalar_model,
)

# reference value computed by the tensor quadrature itself and pinned; the
# q-convergence and QMC-agreement tests below cross-validate it through two
# independent computational routes
ESTAR_S3_Q16 = 1.0185944113497735e-3


@pytest.fixture(scope="module")
def canonical_spec():
    return default_oracle_spec()


def test_gauss_rule_midpoint():
    x, w = gauss_legendre_rule(1)
    assert x.tolist() == [0.0]
    assert w.tolist() == [1.0]


def test_gauss_rule_two_point():
    x, w = gauss_legendre_rule(2)
    assert np.allclose(sorted(x), [-0.5 / math.sqrt(3.0), 0.5 / math.sqrt(3.0)], atol=1e-15)
    assert np.allclose(w, [0.5, 0.5], atol=1e-15)


def test_gauss_rule_integrates_second_moment():
    x, w = gauss_legendre_rule(2)
    assert float(np.sum(w * x * x)) == pytest.approx(1.0 / 12.0, rel=1e-14)


def test_gauss_rule_weights_sum_to_one():
    for q in (1, 2, 5, 16, 32):
        _, w = gauss_legendre_rule(q)
        assert float(np.sum(w)) == pytest.approx(1.0, rel=1e-14)


def test_gauss_rule_rejects_out_of_range():
    for q in (0, 33, -1):
        with pytest.raises(ValueError):
            gauss_legendre_rule(q)


def test_gauss_rule_symmetry():
    x, w = gauss_legendre_rule(8)
    assert np.allclose(x + x[::-1], 0.0, atol=1e-16)
    assert np.allclose(w - w[::-1], 0.0, atol=1e-16)


def test_odd_coordinate_contributions_cancel():
    x, w = gauss_legendre_rule(8)
    # integrand y1 * y2^2 is odd in y1: the tensor sum must vanish
    total = float(np.sum(np.outer(w * x, w * x * x)))
    assert abs(total) <= 1e-14


def test_scalar_model_at_zero(canonical_spec):
    y = np.zeros(canonical_spec.s_prime)
    assert scalar_model(canonical_spec, y) == pytest.approx(1.0 / 1.5, rel=1e-15)


def test_scalar_model_single_mode():
    spec = ScalarModelSpec(a0=2.0, b=(0.3,), transform=IDENTITY)
    assert scalar_model(spec, np.array([0.5])) == pytest.approx(
        1.0 / (2.0 + 0.15), rel=1e-15
    )


def test_scalar_model_bounds(rng, canonical_spec):
    spec = canonical_spec
    hi = 1.0 / spec.reserve()
    lo = 1.0 / (spec.a0 + (spec.a0 - spec.reserve()))
    for _ in range(200):
        y = rng.uniform(-0.5, 0.5, size=spec.s_prime)
        val = scalar_model(spec, y)
        assert lo - 1e-15 <= val <= hi + 1e-15


def test_spec_rejects_unbounded_reciprocal():
    with pytest.raises(CoercivityError):
        ScalarModelSpec(a0=1.0, b=(1.5, 0.9), transform=IDENTITY)


def test_spec_rejects_increasing_b():
    with pytest.raises(ValueError):
        ScalarModelSpec(a0=1.5, b=(0.1, 0.2))


def test_exact_error_zero_at_full_dimension(canonical_spec):
    assert exact_l2_truncation_error(canonical_spec, canonical_spec.s_prime) == 0.0


def test_exact_error_zero_sequence():
    spec = ScalarModelSpec(a0=1.5, b=(0.0, 0.0, 0.0))
    for s in range(0, 4):
        assert exact_l2_truncation_error(spec, s, q=8) == 0.0


def test_exact_error_reference_value(canonical_spec):
    estar = exact_l2_truncation_error(canonical_spec, 3, q=16)
    assert estar > 0
    assert estar == pytest.approx(ESTAR_S3_Q16, rel=1e-10)


def test_exact_error_q_convergence(canonical_spec):
    e16 = exact_l2_truncation_error(canonical_spec, 3, q=16)
    e24 = exact_l2_truncation_error(canonical_spec, 3, q=24)
    assert abs(e24 - e16) <= 1e-10 * e24


def test_exact_error_monotone_in_s():
    spec = ScalarModelSpec(a0=1.5, b=tuple(0.2 * j ** -1.5 for j in range(1, 5)))
    errs = [exact_l2_truncation_error(spec, s, q=12) for s in range(0, 5)]
    assert errs[-1] == 0.0
    assert all(a >= b for a, b in zip(errs, errs[1:]))


def test_exact_error_budget_guard():
    nine = ScalarModelSpec(a0=1.5, b=tuple(0.01 * j ** -2.0 for j in range(1, 10)))
    with pytest.raises(ValueError, match="8"):
        exact_l2_truncation_error(nine, 3, q=16)
    eight = ScalarModelSpec(a0=1.5, b=tuple(0.01 * j ** -2.0 for j in range(1, 9)))
    with pytest.raises(ValueError, match="evaluations"):
        exact_l2_truncation_error(eight, 3, q=16)


def test_exact_error_validates_arguments(canonical_spec):
    with pytest.raises(ValueError):
        exact_l2_truncation_error(canonical_spec, 7)  # s beyond s_prime
    with pytest.raises(ValueError):
        exact_l2_truncation_error(canonical_spec, 2, q=4)  # q below floor


def test_truncation_model_ignores_padded_tail(canonical_spec):
    model = ScalarTruncationModel(canonical_spec)
    y = np.full(canonical_spec.s_prime, 0.25)
    a = model(2, truncate(y, 2)[None])
    b = scalar_model(canonical_spec, truncate(y, 2))
    assert a.tolist() == [b]


def test_truncation_model_truncates_full_length_node(canonical_spec, rng):
    model = ScalarTruncationModel(canonical_spec)
    nodes = rng.uniform(-0.5, 0.5, size=(10, canonical_spec.s_prime))
    for s in range(canonical_spec.s_prime + 1):
        truncated = nodes.copy()
        truncated[:, s:] = 0.0
        assert np.array_equal(model(s, nodes), model(s, truncated))
    assert np.all(model(0, nodes) == 1.0 / canonical_spec.a0)


@pytest.mark.parametrize("transform", [IDENTITY, PERIODIC])
def test_truncation_model_block_rows_match_single_nodes(transform, rng):
    spec = ScalarModelSpec(a0=1.5, b=(0.3, 0.2, 0.1, 0.05), transform=transform)
    model = ScalarTruncationModel(spec)
    nodes = rng.uniform(-0.5, 0.5, size=(64, spec.s_prime))
    for s in range(spec.s_prime + 1):
        block = model(s, nodes)
        assert block.shape == (64,)
        for r in range(len(nodes)):
            assert block[r] == pytest.approx(model(s, nodes[r:r + 1])[0], rel=1e-13, abs=0)
        if s == spec.s_prime:
            want = [scalar_model(spec, y) for y in nodes]
            assert np.allclose(block, want, rtol=1e-13, atol=0)


def test_truncation_model_checks_nodes(canonical_spec):
    model = ScalarTruncationModel(canonical_spec)
    nodes = np.zeros((2, canonical_spec.s_prime))
    with pytest.raises(ValueError, match="stack of nodes"):
        model(2, nodes[0])
    with pytest.raises(ValueError, match="stack of nodes"):
        model(2, nodes[:, :-1])
    with pytest.raises(ValueError, match="stack of nodes"):
        model(canonical_spec.s_prime + 1, nodes)
    nodes[1, 1] = -0.75
    with pytest.raises(ValueError, match=r"out of \[-1/2, 1/2\]"):
        model(2, nodes)
    assert model(1, nodes).tolist() == [1.0 / canonical_spec.a0] * 2  # y_2 is truncated away


def test_qmc_agreement_across_seeds(canonical_spec, builtin_z):
    estar = exact_l2_truncation_error(canonical_spec, 3, q=16)
    model = ScalarTruncationModel(canonical_spec)
    for seed in range(1, 6):
        rule = lattice.lattice_rule(2 ** 14, builtin_z, seed=seed)
        estimate = lattice.estimate_truncation_errors(
            model, [3], canonical_spec.s_prime, rule, lattice.scalar_distance
        )[0]
        assert abs(estimate - estar) / estar <= 0.02


def test_transform_rate_similarity(builtin_z):
    """Identity and periodic parameterizations give similar decay slopes."""
    slopes = {}
    for transform in (IDENTITY, PERIODIC):
        spec = ScalarModelSpec(
            a0=1.5,
            b=tuple(0.1 * j ** -2.0 for j in range(1, 7)),
            transform=transform,
        )
        errs = [exact_l2_truncation_error(spec, s, q=12) for s in range(1, 6)]
        fit = np.polyfit(np.log(np.arange(1, 6)), np.log(errs), 1)
        slopes[transform.kind] = fit[0]
    assert abs(slopes["identity"] - slopes["periodic"]) <= 0.3


def test_certified_params_dominate_exact_error(canonical_spec):
    p = theory.summability_exponent(2.0)
    params = certified_theory_params(canonical_spec, p)
    for s in range(1, 6):
        bound = theory.truncation_upper_bound(params, s)
        estar = exact_l2_truncation_error(canonical_spec, s, q=16)
        assert bound >= estar ** 2


def test_certified_params_shape(canonical_spec):
    p = theory.summability_exponent(2.0)
    params = certified_theory_params(canonical_spec, p)
    reserve = canonical_spec.reserve()
    assert params.k == theory.taylor_order(p)
    assert params.theta_seq[0] == pytest.approx(1.0 / reserve, rel=1e-15)
    assert params.theta_seq[2] == pytest.approx(2.0 / reserve, rel=1e-15)
    assert params.b[0] == pytest.approx(0.1 / reserve, rel=1e-15)


def test_exact_error_peak_temporaries_stay_small(canonical_spec):
    """Chunking bounds the exact error's temporaries: the peak stays below 64 MB."""
    for s in range(1, canonical_spec.s_prime):
        tracemalloc.start()
        try:
            exact_l2_truncation_error(canonical_spec, s, q=16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20, f"s = {s}: peak {peak / 2 ** 20:.1f} MB"
