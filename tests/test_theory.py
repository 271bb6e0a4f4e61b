import math

import numpy as np
import pytest

from trunclab import theory
from trunclab.theory import (
    ErrorTable,
    TheoryParams,
    affine_theory_params,
    expected_rate,
    fit_rate,
    lp_quasi_norm,
    stechkin_tail_bound,
    summability_exponent,
    tail_sum,
    taylor_order,
    truncation_upper_bound,
    truncation_upper_bound_terms,
)

# independently computed reference values (plain Python summation over 1e5 terms)
STECHKIN_TAIL = 0.09515633573168489
STECHKIN_BOUND = 3.2465445836545905


@pytest.mark.parametrize(
    "theta,rate", [(1.5, -1.0), (2.0, -1.5), (3.0, -2.5)]
)
def test_expected_rates(theta, rate):
    assert expected_rate(theta) == rate


def test_expected_rate_rejects_nonsummable():
    with pytest.raises(ValueError):
        expected_rate(1.0)
    with pytest.raises(ValueError):
        expected_rate(0.5)


@pytest.mark.parametrize("p,k", [(0.5, 2), (2.0 / 3.0, 3), (0.9, 10)])
def test_taylor_order(p, k):
    assert taylor_order(p) == k


def test_taylor_order_rejects_out_of_range():
    for p in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            taylor_order(p)


def test_summability_exponent():
    p = summability_exponent(2.0)
    assert p == pytest.approx(0.501, abs=1e-12)
    assert taylor_order(p) == 3


def test_tail_sum_single_mode():
    b = np.array([0.7, 0.0, 0.0, 0.0])
    assert tail_sum(b, 1) == 0.0
    assert tail_sum(b, 0) == 0.7


def test_stechkin_dominates_tail():
    b = np.arange(1, 100001, dtype=float) ** -2.0
    tail = tail_sum(b, 10)
    bound = stechkin_tail_bound(b, 10, 0.6)
    assert tail == pytest.approx(STECHKIN_TAIL, rel=1e-12)
    assert bound == pytest.approx(STECHKIN_BOUND, rel=1e-12)
    assert tail <= bound


def test_stechkin_homogeneous():
    b = np.arange(1, 200, dtype=float) ** -1.7
    for c in (0.1, 2.0, 17.5):
        assert stechkin_tail_bound(c * b, 5, 0.55) == pytest.approx(
            c * stechkin_tail_bound(b, 5, 0.55), rel=1e-12
        )


def test_stechkin_rejects_nonmonotone():
    with pytest.raises(ValueError):
        stechkin_tail_bound(np.array([0.1, 0.5]), 1, 0.5)


def test_theory_params_validation():
    with pytest.raises(ValueError):
        TheoryParams(
            theta_seq=(1.0, 1.0, 1.0, 1.0),
            b=(0.5, 0.25),
            p=0.5,
            c_mu=1 / 12,
            c_xi=1 / 12,
            k=3,  # inconsistent with p=0.5
        )
    with pytest.raises(ValueError):
        TheoryParams(
            theta_seq=(1.0, 1.0),  # too short for k=2
            b=(0.5,),
            p=0.5,
            c_mu=1 / 12,
            c_xi=1 / 12,
            k=2,
        )


def test_upper_bound_zero_sequence():
    params = affine_theory_params(1.0, (0.0, 0.0, 0.0), p=0.5)
    assert truncation_upper_bound(params, 1) == 0.0
    assert truncation_upper_bound(params, 7) == 0.0


def test_upper_bound_nonincreasing_in_s():
    b = tuple(0.1 * j ** -2.0 for j in range(1, 9))
    params = affine_theory_params(0.7, b, p=0.501)
    values = [truncation_upper_bound(params, s) for s in range(1, 10001, 37)]
    diffs = np.diff(values)
    assert np.all(diffs <= 0)


def test_upper_bound_first_term_slope():
    b = tuple(0.1 * j ** -2.0 for j in range(1, 9))
    params = affine_theory_params(0.7, b, p=0.501)
    t1a, _ = truncation_upper_bound_terms(params, 5)
    t1b, _ = truncation_upper_bound_terms(params, 10)
    slope = (math.log(t1b) - math.log(t1a)) / (math.log(10) - math.log(5))
    assert slope == pytest.approx(-2.0 / params.p + 1.0, abs=1e-9)


def test_upper_bound_moment_swap_rescales_terms():
    b = tuple(0.2 * j ** -2.0 for j in range(1, 9))
    params = affine_theory_params(0.7, b, p=0.501, c_mu=1 / 12, c_xi=1 / 18)
    ratio = params.c_xi / params.c_mu
    for s in (1, 3, 8):
        mu1, mu2 = truncation_upper_bound_terms(params, s, moment="mu")
        xi1, xi2 = truncation_upper_bound_terms(params, s, moment="xi")
        assert xi1 == pytest.approx(mu1 * ratio ** params.k, rel=1e-12)
        assert xi2 == pytest.approx(mu2 * ratio ** (params.k + 1), rel=1e-12)


def test_upper_bound_moment_swap_keeps_slopes():
    b = tuple(0.2 * j ** -2.0 for j in range(1, 9))
    params = affine_theory_params(0.7, b, p=0.501, c_mu=1 / 12, c_xi=1 / 18)

    def slope(moment, term_index):
        t_a = truncation_upper_bound_terms(params, 6, moment=moment)[term_index]
        t_b = truncation_upper_bound_terms(params, 12, moment=moment)[term_index]
        return (math.log(t_b) - math.log(t_a)) / math.log(2.0)

    for term_index in (0, 1):
        assert slope("mu", term_index) == pytest.approx(
            slope("xi", term_index), abs=1e-12
        )


def test_upper_bound_overflow_is_explicit():
    params = affine_theory_params(1.0, tuple([30.0] * 8), p=0.5)
    with pytest.raises(OverflowError):
        truncation_upper_bound(params, 2)


def test_lp_quasi_norm():
    b = np.array([0.5, 0.25])
    assert lp_quasi_norm(b, 0.5) == pytest.approx(
        (math.sqrt(0.5) + math.sqrt(0.25)) ** 2, rel=1e-14
    )


def _table(rows, metadata=None):
    meta = {"s_ref": "1024"}
    meta.update(metadata or {})
    return ErrorTable(tuple(rows), meta)


def test_fit_exact_power_law():
    rows = [(s, s ** -1.5) for s in (2, 4, 8, 16, 32, 64, 128, 256, 512)]
    fit = fit_rate(_table(rows), s_min=2)
    assert fit.slope == pytest.approx(-1.5, abs=1e-12)
    assert fit.residual <= 1e-12


def test_fit_two_point():
    fit = fit_rate(_table([(6, 0.5), (12, 0.25)]), s_min=1)
    assert fit.slope == pytest.approx(-1.0, abs=1e-14)


def test_fit_scaling_invariances():
    rows = [(s, 3.0 * s ** -2.0 * (1 + 0.01 * math.sin(s))) for s in (4, 8, 16, 32, 64)]
    base = fit_rate(_table(rows), s_min=4)
    scaled = fit_rate(_table([(s, 10.0 * e) for s, e in rows]), s_min=4)
    assert scaled.slope == pytest.approx(base.slope, abs=1e-12)
    assert scaled.intercept != pytest.approx(base.intercept, abs=1e-6)
    reindexed = fit_rate(_table([(3 * s, e) for s, e in rows]), s_min=12)
    assert reindexed.slope == pytest.approx(base.slope, abs=1e-12)


def test_fit_needs_two_rows():
    with pytest.raises(ValueError, match="2"):
        fit_rate(_table([(4, 0.1)]), s_min=1)
    with pytest.raises(ValueError):
        fit_rate(_table([(4, 0.1), (8, 0.05)]), s_min=8)


def test_fit_drops_zero_rows_with_warning():
    rows = [(4, 0.1), (8, 0.05), (1024, 0.0)]
    with pytest.warns(UserWarning):
        fit = fit_rate(_table(rows), s_min=4)
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)


def test_fit_default_window_is_upper_half():
    # lower half follows s^-1, upper half s^-2: the default window sees only -2
    rows = [(2, 1 / 2), (4, 1 / 4), (16, 1 / 256), (32, 1 / 1024)]
    fit = fit_rate(_table(rows))
    assert fit.slope == pytest.approx(-2.0, abs=1e-12)


def test_error_table_round_trip(tmp_path):
    table = _table(
        [(2, 0.125), (4, 3.5e-4), (8, 1.1e-9)],
        {"norm": "L2", "theta": "2.0", "seed": "1"},
    )
    path = tmp_path / "t.csv"
    table.write(path)
    again = ErrorTable.read(path)
    assert again == table
    # a second write of the parsed table is byte-identical
    path2 = tmp_path / "t2.csv"
    again.write(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_error_table_rejects_bad_rows():
    with pytest.raises(ValueError):
        _table([(4, 0.1), (4, 0.2)])  # not increasing
    with pytest.raises(ValueError):
        _table([(4, -0.1)])
    with pytest.raises(ValueError):
        _table([(4, 0.0)])  # zero only allowed at s == s_ref
    assert _table([(1024, 0.0)]).rows[0][1] == 0.0


def test_error_table_rejects_metadata_with_separators():
    with pytest.raises(ValueError):
        _table([(4, 0.1)], {"note": "a;b"})
    with pytest.raises(ValueError):
        _table([(4, 0.1)], {"note": "a=b"})


def test_error_table_read_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# s_ref=8\ns,error\n4,not_a_number\n", encoding="ascii")
    with pytest.raises(ValueError, match="line 3"):
        ErrorTable.read(path)
