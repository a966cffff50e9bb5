"""Water-filling theory tests.

The oracle solves for the water level in closed form: sort the saturation
values, walk the piecewise-linear total-distortion function segment by
segment in a scalar loop, and invert it exactly. The implementation reads the
same level off vectorized cumulative sums, so agreement checks that code
rather than the formula; the constraint and slackness checks and the
bisection oracle of acceptance 4 check the formula.
"""

import math

import numpy as np
import pytest

from sysaware.cli import TheoryConfig
from sysaware.gauss_theory import (
    CurvePoint,
    SpectralModel,
    curve_to_csv,
    expected_min_distortion,
    theoretical_rd_curve,
    water_fill,
)

# ---------------------------------------------------------------- oracles #


def oracle_water_level(weighted, target):
    """Exact water level: invert sum(min(theta, w_i)) = target segmentwise."""
    s = sorted(float(v) for v in weighted if v > 0)
    m = len(s)
    if m == 0 or target <= 0:
        return 0.0
    prefix = 0.0
    for j, sj in enumerate(s):
        # theta in [s_j, s_{j+1}) gives total = prefix_j + theta * (m - j)
        if prefix + sj * (m - j) >= target:
            return (target - prefix) / (m - j)
        prefix += sj
    return s[-1]


def oracle_allocation(model, total_d):
    theta = oracle_water_level(model.gain * model.lambda_w_tilde, model.n * total_d)
    d_k = np.zeros(model.n)
    r_k = np.zeros(model.n)
    for k in range(model.n):
        if not model.k_ab[k]:
            continue
        weighted = model.gain[k] * model.lambda_w_tilde[k]
        if theta < weighted:
            d_k[k] = theta / model.gain[k]
            r_k[k] = 0.5 * math.log(weighted / theta)
        else:
            d_k[k] = model.lambda_w_tilde[k]
    return theta, d_k, r_k


def random_model(rng, n=None):
    n = n or int(rng.integers(2, 65))
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    a[rng.random(n) < 0.3] = 0.0
    b[rng.random(n) < 0.3] = 0.0
    lam = rng.uniform(0.0, 3.0, size=n)
    return SpectralModel(n=n, lambda_x=lam, a_f=a, b_f=b)


# ------------------------------------------------------------ model setup #


def test_model_derived_fields():
    m = SpectralModel(n=4, lambda_x=[4.0, 3, 2, 1], a_f=[1, 1, 0, 1], b_f=[1, 0, 0, 1])
    assert np.array_equal(m.k_ab, [True, False, False, True])
    assert np.array_equal(m.lambda_w, [4.0, 3.0, 0.0, 1.0])
    assert np.array_equal(m.gain, [1.0, 0.0, 0.0, 1.0])
    assert np.array_equal(m.lambda_w_tilde, [4.0, 0.0, 0.0, 1.0])


def test_model_validation():
    with pytest.raises(ValueError):
        SpectralModel(n=2, lambda_x=[1.0, -0.5], a_f=[1, 1], b_f=[1, 1])
    with pytest.raises(ValueError):
        SpectralModel(n=3, lambda_x=[1.0, 1], a_f=[1, 1], b_f=[1, 1])
    with pytest.raises(ValueError):
        SpectralModel(n=0, lambda_x=[], a_f=[], b_f=[])


@pytest.mark.parametrize("field", ["lambda_x", "a_f", "b_f"])
def test_model_rejects_non_finite_inputs(field):
    for bad in (math.nan, math.inf, -math.inf):
        arrays = {"lambda_x": [1.0, 1.0], "a_f": [1.0, 1.0], "b_f": [1.0, 1.0]}
        arrays[field] = [1.0, bad]
        with pytest.raises(ValueError, match=field):
            SpectralModel(n=2, **arrays)


# -------------------------------------------------- expected_min_distortion #


def test_expected_min_distortion_hand_case():
    m = SpectralModel(n=4, lambda_x=[4.0, 3, 2, 1], a_f=[1, 1, 0, 1], b_f=[1, 0, 0, 1])
    assert expected_min_distortion(m) == 0.75  # only k=1 has a != 0, b = 0


def test_expected_min_distortion_zero_cases():
    m = SpectralModel(n=4, lambda_x=np.ones(4), a_f=np.ones(4), b_f=np.full(4, 2.0))
    assert expected_min_distortion(m) == 0.0  # b nowhere zero
    shared = np.array([1.0, 0.0, 1.0, 0.0])
    m2 = SpectralModel(n=4, lambda_x=np.ones(4), a_f=shared, b_f=shared)
    assert expected_min_distortion(m2) == 0.0  # zeros coincide


# -------------------------------------------------------------- water_fill #


def test_water_fill_hand_case():
    # gain [1,4,0,1], lambda_w_tilde [2,1,-,0.5], N*D = 2 -> theta = 0.75
    m = SpectralModel(n=4, lambda_x=[2.0, 4.0, 7.0, 0.5], a_f=[1, 1, 1, 1], b_f=[1, 2, 0, 1])
    assert np.array_equal(m.gain, [1.0, 4.0, 0.0, 1.0])
    assert np.array_equal(m.lambda_w_tilde, [2.0, 1.0, 0.0, 0.5])
    alloc = water_fill(m, 0.5)
    assert abs(alloc.theta - 0.75) <= 1e-12
    assert np.allclose(alloc.d_k, [0.75, 0.1875, 0.0, 0.5], atol=1e-12)
    expected_r = [0.5 * math.log(2.0 / 0.75), 0.5 * math.log(4.0 / 0.75), 0.0, 0.0]
    assert np.allclose(alloc.r_k, expected_r, atol=1e-12)
    assert abs(alloc.total_distortion - 2.0) <= 1e-12
    # independent closed-form route
    theta, d_k, r_k = oracle_allocation(m, 0.5)
    assert abs(alloc.theta - theta) <= 1e-12
    assert np.allclose(alloc.d_k, d_k, atol=1e-12)
    assert np.allclose(alloc.r_k, r_k, atol=1e-12)


def test_water_fill_classical_uniform():
    m = SpectralModel(n=8, lambda_x=np.ones(8), a_f=np.ones(8), b_f=np.ones(8))
    alloc = water_fill(m, 0.5)
    assert abs(alloc.theta - 0.5) <= 1e-12
    assert np.allclose(alloc.d_k, 0.5, atol=1e-12)
    assert np.allclose(alloc.r_k, 0.5 * math.log(2.0), atol=1e-12)


def test_water_fill_zero_budget():
    m = SpectralModel(n=4, lambda_x=[1.0, 2, 3, 4], a_f=np.ones(4), b_f=np.ones(4))
    alloc = water_fill(m, 0.0)
    assert alloc.theta == 0.0
    assert np.array_equal(alloc.d_k, np.zeros(4))
    assert alloc.rate_floored
    assert np.all(alloc.r_k >= 0.5 * math.log(1.0 / 1e-15) - 1e-9)  # floored evaluation


def test_water_fill_clamps_infeasible_budget():
    m = SpectralModel(n=4, lambda_x=np.ones(4), a_f=np.ones(4), b_f=np.ones(4))
    alloc = water_fill(m, 2.0)  # saturation is D = 1
    assert alloc.clamped
    assert np.array_equal(alloc.d_k, np.ones(4))
    assert alloc.total_rate == 0.0
    assert not water_fill(m, 1.0).clamped  # exactly at saturation is feasible


def test_water_fill_white_identity_level_equals_budget():
    cfg = TheoryConfig()
    n = cfg.n
    m = SpectralModel(n=n, lambda_x=np.ones(n), a_f=np.ones(n), b_f=np.ones(n))
    for d in cfg.d_grid:
        alloc = water_fill(m, d)
        assert alloc.theta == d  # one equal share of N * D over N unit bins
        assert not alloc.clamped


def test_water_fill_budget_inside_saturation_slack():
    # weighted variances [4, 2, 1, 0.5] sum to 7.5 exactly
    m = SpectralModel(n=4, lambda_x=[4.0, 2, 1, 0.5], a_f=np.ones(4), b_f=np.ones(4))
    total_d = 7.5 * (1 + 1e-13) / 4
    assert 4 * total_d > 7.5
    alloc = water_fill(m, total_d)
    assert not alloc.clamped
    assert alloc.theta == 4.0
    assert np.array_equal(alloc.r_k, np.zeros(4))
    assert np.array_equal(alloc.d_k, [4.0, 2.0, 1.0, 0.5])


def test_water_fill_negative_budget_rejected():
    m = SpectralModel(n=2, lambda_x=[1.0, 1], a_f=[1, 1], b_f=[1, 1])
    with pytest.raises(ValueError):
        water_fill(m, -0.1)


def test_water_fill_empty_support():
    m = SpectralModel(n=3, lambda_x=np.ones(3), a_f=np.ones(3), b_f=np.zeros(3))
    alloc = water_fill(m, 0.1)
    assert alloc.clamped  # any positive budget exceeds the zero saturation
    assert np.array_equal(alloc.d_k, np.zeros(3))
    assert alloc.total_rate == 0.0


def test_water_fill_degenerate_bin_stays_silent():
    m = SpectralModel(n=3, lambda_x=[1.0, 0.0, 2.0], a_f=np.ones(3), b_f=np.ones(3))
    alloc = water_fill(m, 0.3)
    assert alloc.d_k[1] == 0.0
    assert alloc.r_k[1] == 0.0


def test_water_fill_constraint_exactness_random_models():
    rng = np.random.default_rng(100)
    checked = 0
    while checked < 100:
        m = random_model(rng)
        saturation = float((m.gain * m.lambda_w_tilde)[m.k_ab].sum())
        if saturation == 0.0:
            continue
        total_d = float(rng.uniform(0.05, 0.95)) * saturation / m.n
        alloc = water_fill(m, total_d)
        target = m.n * total_d
        assert abs(alloc.total_distortion - target) <= 1e-9 * target
        # slackness, bounds, and the null-space rule, bin by bin
        weighted = m.gain * m.lambda_w_tilde
        for k in range(m.n):
            if not m.k_ab[k]:
                assert alloc.d_k[k] == 0.0 and alloc.r_k[k] == 0.0
            elif alloc.r_k[k] > 0.0:
                assert abs(alloc.d_k[k] * m.gain[k] - alloc.theta) <= 1e-12 * max(alloc.theta, 1.0)
                assert alloc.theta < weighted[k]
            else:
                assert alloc.d_k[k] == m.lambda_w_tilde[k]
                assert alloc.theta >= weighted[k] * (1 - 1e-12)
            assert -1e-15 <= alloc.d_k[k] <= m.lambda_w_tilde[k] * (1 + 1e-12)
        # closed-form oracle agreement
        theta, d_k, r_k = oracle_allocation(m, total_d)
        scale = max(theta, 1e-12)
        assert abs(alloc.theta - theta) <= 1e-9 * scale
        assert np.allclose(alloc.d_k, d_k, rtol=1e-9, atol=1e-12)
        assert np.allclose(alloc.r_k, r_k, rtol=1e-9, atol=1e-9)
        checked += 1


def test_water_fill_classical_reduction_matches_unweighted_oracle():
    rng = np.random.default_rng(200)
    for _ in range(20):
        n = int(rng.integers(2, 33))
        lam = rng.uniform(0.0, 2.0, size=n)
        m = SpectralModel(n=n, lambda_x=lam, a_f=np.ones(n), b_f=np.ones(n))
        total_d = float(rng.uniform(0.1, 0.9)) * float(lam.sum()) / n
        alloc = water_fill(m, total_d)
        theta = oracle_water_level(lam, n * total_d)  # textbook unweighted problem
        assert abs(alloc.theta - theta) <= 1e-9 * max(theta, 1e-12)
        expected = np.minimum(theta, lam)
        assert np.allclose(alloc.d_k, expected, rtol=1e-9, atol=1e-12)


def test_water_fill_modulation_compensation():
    rng = np.random.default_rng(300)
    for _ in range(10):
        m = random_model(rng, n=16)
        saturation = float((m.gain * m.lambda_w_tilde)[m.k_ab].sum())
        if saturation == 0.0:
            continue
        total_d = 0.4 * saturation / m.n
        c = 3.7
        scaled = SpectralModel(n=m.n, lambda_x=m.lambda_x, a_f=m.a_f * math.sqrt(c), b_f=m.b_f)
        assert np.allclose(scaled.gain, c * m.gain, rtol=1e-12)
        assert np.allclose(scaled.lambda_w_tilde, m.lambda_w_tilde, rtol=1e-12)
        base = water_fill(m, total_d)
        comp = water_fill(scaled, c * total_d)
        assert np.allclose(comp.r_k, base.r_k, atol=1e-10)
        assert abs(comp.theta - c * base.theta) <= 1e-10 * max(c * base.theta, 1e-12)


# ------------------------------------------------------------------ curve #


def test_curve_at_saturation_has_zero_rate():
    m = SpectralModel(n=4, lambda_x=[1.0, 2, 3, 4], a_f=np.ones(4), b_f=np.ones(4))
    saturation_d = float(m.lambda_x.sum()) / 4
    (point,) = theoretical_rd_curve(m, [saturation_d])
    assert point.rate_bits_per_sample <= 1e-9
    assert point.total_distortion == saturation_d  # no floor: b has full support


def test_curve_monotone():
    rng = np.random.default_rng(400)
    m = random_model(rng, n=32)
    saturation = float((m.gain * m.lambda_w_tilde)[m.k_ab].sum())
    grid = [f * saturation / m.n for f in (0.05, 0.1, 0.2, 0.4, 0.8, 1.0)]
    points = theoretical_rd_curve(m, grid)
    rates = [p.rate_bits_per_sample for p in points]
    dists = [p.total_distortion for p in points]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert all(a <= b for a, b in zip(dists, dists[1:]))


def test_curve_identity_white_matches_closed_form():
    sigma2 = 2.0
    m = SpectralModel(n=16, lambda_x=np.full(16, sigma2), a_f=np.ones(16), b_f=np.ones(16))
    grid = [0.125, 0.25, 0.5, 1.0, 2.0]
    points = theoretical_rd_curve(m, grid)
    for p, d in zip(points, grid):
        assert isinstance(p, CurvePoint)
        assert abs(p.rate_bits_per_sample - 0.5 * math.log2(sigma2 / d)) <= 1e-9
        assert p.total_distortion == d
        assert p.d == d


def test_curve_includes_floor_in_total_distortion():
    m = SpectralModel(n=4, lambda_x=[4.0, 3, 2, 1], a_f=[1, 1, 0, 1], b_f=[1, 0, 0, 1])
    points = theoretical_rd_curve(m, [0.1])
    assert abs(points[0].total_distortion - (0.75 + 0.1)) <= 1e-15


def test_curve_grid_validation():
    m = SpectralModel(n=2, lambda_x=[1.0, 1], a_f=[1, 1], b_f=[1, 1])
    with pytest.raises(ValueError):
        theoretical_rd_curve(m, [0.5, 0.1])
    with pytest.raises(ValueError):
        theoretical_rd_curve(m, [-0.1, 0.5])


def test_curve_csv_layout():
    m = SpectralModel(n=4, lambda_x=[4.0, 3, 2, 1], a_f=[1, 1, 0, 1], b_f=[1, 0, 0, 1])
    text = curve_to_csv(m, [0.1, 0.2])
    lines = text.strip().split("\n")
    assert lines[0] == "# e_d0 = 0.75"
    assert lines[1] == "D,total_distortion,rate_bits_per_sample,theta"
    assert len(lines) == 4
    first = lines[2].split(",")
    assert float(first[0]) == 0.1
    assert float(first[1]) == 0.75 + 0.1
