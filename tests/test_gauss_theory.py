"""Water-filling theory tests.

The oracle solves for the water level in closed form: sort the saturation
values, walk the piecewise-linear total-distortion function segment by
segment in a scalar loop, and invert it exactly. The implementation reads the
same level off vectorized cumulative sums, so agreement checks that code
rather than the formula; the constraint and slackness checks and the
bisection oracle of acceptance 4 check the formula. A second oracle,
``oracles.water_fill_reference``, builds every water-filling term anew for
each budget, so the per-model terms :class:`SpectralModel` builds are checked
against it bit for bit.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

from oracles import floor_reference, model_terms_reference, water_fill_reference
from sysaware import gauss_theory
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


def folded(n):
    return np.minimum(np.arange(n), n - np.arange(n))


def bits(value):
    return np.asarray(value, dtype=float).view(np.int64)


def assert_same_allocation(got, want):
    """Every field equal bit for bit, so signed zeros count."""
    for name in ("d_k", "r_k", "theta", "total_distortion", "total_rate"):
        assert np.array_equal(bits(getattr(got, name)), bits(getattr(want, name))), name
    assert type(got.theta) is float
    assert (got.clamped, got.rate_floored) == (want.clamped, want.rate_floored)


# ------------------------------------------------------------ model setup #


def test_model_derived_fields():
    m = SpectralModel(n=4, lambda_x=[4.0, 3, 2, 1], a_f=[1, 1, 0, 1], b_f=[1, 0, 0, 1])
    assert np.array_equal(m.k_ab, [True, False, False, True])
    assert np.array_equal(m.lambda_w, [4.0, 3.0, 0.0, 1.0])
    assert np.array_equal(m.gain, [1.0, 0.0, 0.0, 1.0])
    assert np.array_equal(m.lambda_w_tilde, [4.0, 0.0, 0.0, 1.0])


def test_models_can_sit_in_a_list_and_a_set():
    model = SpectralModel(n=4, lambda_x=[4.0, 3, 2, 1], a_f=[1, 1, 0, 1], b_f=[1, 0, 0, 1])
    other = SpectralModel(n=4, lambda_x=[4.0, 3, 2, 1], a_f=[1, 1, 0, 1], b_f=[1, 0, 0, 1])
    assert model in [other, model]
    assert len({model, other}) == 2


def test_allocations_of_different_models_are_not_equal():
    # both budgets are beyond saturation, so theta (the largest level), the
    # zero rate and the flags agree, but the saturated d_k do not
    first = water_fill(SpectralModel(n=4, lambda_x=[1.0, 1, 1, 1], a_f=np.ones(4), b_f=np.ones(4)), 10.0)
    second = water_fill(SpectralModel(n=4, lambda_x=[1.0, 1, 1, 0], a_f=np.ones(4), b_f=np.ones(4)), 10.0)
    assert (first.theta, first.total_rate, first.clamped, first.rate_floored) == (
        second.theta, second.total_rate, second.clamped, second.rate_floored
    )
    assert (first.total_distortion, second.total_distortion) == (4.0, 3.0)
    assert first != second
    assert first == first
    assert len({first, second, first}) == 2


def test_model_validation():
    with pytest.raises(ValueError):
        SpectralModel(n=2, lambda_x=[1.0, -0.5], a_f=[1, 1], b_f=[1, 1])
    with pytest.raises(ValueError):
        SpectralModel(n=3, lambda_x=[1.0, 1], a_f=[1, 1], b_f=[1, 1])
    with pytest.raises(ValueError):
        SpectralModel(n=0, lambda_x=[], a_f=[], b_f=[])


@pytest.mark.parametrize("n", [4.0, np.float64(4), True, "4", None], ids=["float", "np.float64", "True", "str", "None"])
def test_model_rejects_an_n_that_is_a_bool_or_not_an_integer(n):
    # a float n used to pass, and water_fill then failed in np.zeros(n)
    rows = np.ones(1 if n is True else 4)
    with pytest.raises(ValueError, match=f"^{re.escape(f'n must be an integer, got {n!r}')}$"):
        SpectralModel(n=n, lambda_x=rows, a_f=rows, b_f=rows)


@pytest.mark.parametrize("n", [np.int64(4), np.uint8(4), np.int32(4)], ids=["int64", "uint8", "int32"])
def test_model_takes_a_numpy_integer_n_as_the_int(n):
    rows = [4.0, 3.0, 2.0, 1.0], [1.0, 1.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]
    model, plain = SpectralModel(n, *rows), SpectralModel(4, *rows)
    assert type(model.n) is int
    assert curve_to_csv(model, [0.0, 0.1, 10.0]) == curve_to_csv(plain, [0.0, 0.1, 10.0])


@pytest.mark.parametrize(
    "lam, a_f, b_f, field",
    [
        # |a b|^2 and |a|^2 lambda_x overflow; lambda_w / gain is then inf / inf
        ([1.0, 1.0], [1.0, 1e200], [1.0, 1.0], "gain"),
        # a b = 1, but |a|^2 lambda_x = 1e20 * 1e300 overflows
        ([1.0, 1e300], [1.0, 1e10], [1.0, 1e-10], "lambda_w"),
        # a b underflows to a zero gain on the support: 0 / 0
        ([1.0, 1.0], [1.0, 1e-200], [1.0, 1e-200], "lambda_w_tilde"),
        # each weighted variance is 1e308, and their sum over the support overflows
        ([1e308, 1e308], [1.0, 1.0], [1.0, 1.0], "saturation sum"),
        # a b = 0 on the lost bin, but its |a|^2 lambda_x = 1e20 * 1e300 overflows
        ([1.0, 1e300], [1.0, 1e10], [1.0, 0.0], "lambda_w"),
        # each lost bin's lambda_w is 1e308, and their sum overflows
        ([1e308, 1e308], [1.0, 1.0], [0.0, 0.0], "distortion floor"),
    ],
    ids=["gain", "lambda_w", "lambda_w_tilde", "saturation", "lambda_w-lost", "floor"],
)
def test_model_rejects_derived_arrays_that_overflow(lam, a_f, b_f, field):
    # numpy's overflow warnings would fail this test; the model reports by name instead
    with pytest.raises(ValueError, match=f"^{field} is not finite"):
        SpectralModel(n=2, lambda_x=lam, a_f=a_f, b_f=b_f)


@pytest.mark.parametrize("field", ["lambda_x", "a_f", "b_f"])
def test_model_rejects_non_finite_inputs(field):
    for bad in (math.nan, math.inf, -math.inf):
        arrays = {"lambda_x": [1.0, 1.0], "a_f": [1.0, 1.0], "b_f": [1.0, 1.0]}
        arrays[field] = [1.0, bad]
        with pytest.raises(ValueError, match=field):
            SpectralModel(n=2, **arrays)


def model_outcome(n, lam, a_f, b_f):
    """The model's derived arrays and CSV curve, or the text of the ValueError
    it raises; numpy's warnings are off, as they are for the CLI."""
    try:
        with np.errstate(all="ignore"):
            m = SpectralModel(n=n, lambda_x=lam, a_f=a_f, b_f=b_f)
            saturation = float((m.gain * m.lambda_w_tilde).sum()) / n
            csv = curve_to_csv(m, [0.0, 1e-3 * saturation, 0.1 * saturation, 0.7 * saturation, 2 * saturation + 1])
    except ValueError as exc:
        return str(exc), ()
    return csv, [bits(m.gain), bits(m.lambda_w), bits(m.lambda_w_tilde), m.k_ab]


def real_response_models(rng):
    """(n, lambda_x, a_f, b_f) with real responses: one input for each of
    the model's three overflow errors, then 300 with magnitudes spread up to
    10**+-150, so |a b|^2 and |a|^2 lambda_x overflow or underflow in some,
    and zero bins of either sign."""
    yield 2, np.array([1.0, 1.0]), np.array([1.0, 1e200]), np.array([1.0, 1.0])
    yield 2, np.array([1.0, 1e300]), np.array([1.0, 1e10]), np.array([1.0, 1e-10])
    yield 2, np.array([1.0, 1.0]), np.array([1.0, 1e-200]), np.array([1.0, 1e-200])
    for _ in range(300):
        n = int(rng.integers(1, 301))
        spread = rng.uniform(0.0, 150.0)
        a, b, lam = (rng.normal(size=n) * 10.0 ** rng.uniform(-spread, spread, size=n) for _ in range(3))
        lam = np.abs(lam)
        for row in (a, b, lam):
            row[rng.random(n) < 0.2] = 0.0
            row[rng.random(n) < 0.1] = -0.0
        yield n, lam, a, b


def test_real_responses_give_the_bits_of_their_complex_casts():
    # the model keeps real responses real and complex ones complex
    m = SpectralModel(n=2, lambda_x=[1.0, 1.0], a_f=[1, 0], b_f=[1j, 1])
    assert (m.a_f.dtype, m.b_f.dtype) == (np.float64, np.complex128)
    rng = np.random.default_rng(1900)
    errors = []
    for n, lam, a, b in real_response_models(rng):
        a_c = a + 1j * rng.normal(size=n)
        pairs = [
            (model_outcome(n, lam, a, b), model_outcome(n, lam, a.astype(complex), b.astype(complex))),
            # a complex a beside a real b, and beside b's complex cast
            (model_outcome(n, lam, a_c, b), model_outcome(n, lam, a_c, b.astype(complex))),
        ]
        for (csv, arrays), (csv_cast, arrays_cast) in pairs:
            assert csv == csv_cast
            assert len(arrays) == len(arrays_cast)
            assert all(np.array_equal(x, y) for x, y in zip(arrays, arrays_cast))
        (text, arrays), _ = pairs[0]
        if not arrays:
            errors.append(text.split()[0])
    assert errors[:3] == ["gain", "lambda_w", "lambda_w_tilde"]
    assert 30 < len(errors) < 270


def test_masks_give_the_bits_of_their_float_rows():
    # a bool mask is read through != 0, isfinite and gathers cast to
    # float64, so the model, its public rows and its curve are those of the
    # mask's float64 row, beside a real or a complex partner
    rng = np.random.default_rng(2900)
    errors = []
    for n, lam, a, b in real_response_models(rng):
        a_mask, b_mask = a != 0, rng.random(n) < 0.7
        for a_f, b_f in ((a_mask, b_mask), (a_mask, b), (a, b_mask), (a_mask, b.astype(complex))):
            rows = [r.astype(float) if r.dtype == bool else r for r in (a_f, b_f)]
            got, want = model_outcome(n, lam, a_f, b_f), model_outcome(n, lam, *rows)
            assert got[0] == want[0]
            assert len(got[1]) == len(want[1]) and all(np.array_equal(x, y) for x, y in zip(*(got[1], want[1])))
            if not got[1]:
                errors.append(got[0].split()[0])
                continue
            with np.errstate(all="ignore"):
                m, terms = SpectralModel(n=n, lambda_x=lam, a_f=a_f, b_f=b_f), model_terms_reference(n, lam, *rows)
            for public, row in ((m.a_f, rows[0]), (m.b_f, rows[1])):
                assert public.dtype == row.dtype and np.array_equal(public.view(np.int64), row.view(np.int64))
            assert m.a_f.dtype == np.float64 and np.array_equal(m._order, terms._order)
            for name in ("_levels", "_below", "_saturation", "_ceiling", "_floor"):
                assert np.array_equal(bits(getattr(m, name)), bits(getattr(terms, name))), name
            assert bits(expected_min_distortion(m)) == bits(terms._floor)
    # each overflow error is raised with the float rows' message; a few
    # curves overflow at the theta floor, and water_fill names their rate
    assert set(errors) == {"gain", "lambda_w", "lambda_w_tilde", "rate"} and 100 < len(errors) < 300


def test_support_gathers_give_the_terms_of_the_full_rows():
    # the model builds its terms from gathers over the support and the lost
    # bins; the oracle derives them from full-length rows, and the rows the
    # model builds on first read are those rows
    rng = np.random.default_rng(2200)
    errors = []
    for n, lam, a, b in real_response_models(rng):
        for a_f, b_f in ((a, b), (a.astype(complex), b.astype(complex))):
            try:
                want = model_terms_reference(n, lam, a_f, b_f)
            except ValueError as exc:
                with pytest.raises(ValueError) as got, np.errstate(all="ignore"):
                    SpectralModel(n=n, lambda_x=lam, a_f=a_f, b_f=b_f)
                assert str(got.value) == str(exc)
                errors.append(str(exc).split()[0])
                continue
            m = SpectralModel(n=n, lambda_x=lam, a_f=a_f, b_f=b_f)
            assert np.array_equal(m._order, want._order)
            for name in ("_levels", "_below", "_saturation", "_ceiling", "_floor",
                         "gain", "lambda_w", "lambda_w_tilde"):
                assert np.array_equal(bits(getattr(m, name)), bits(getattr(want, name))), name
            assert type(m._ceiling) is type(m._floor) is type(m._saturation) is float
    assert errors[:6] == ["gain", "gain", "lambda_w", "lambda_w", "lambda_w_tilde", "lambda_w_tilde"]
    assert 60 < len(errors) < 540


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


def floor_models(rng):
    """(n, lambda_x, a_f, b_f) with n in [1, 300], real and complex
    responses, zero bins of either sign in a, in b and in both, an all-zero b
    and an all-zero a, over magnitudes spread up to 10**+-60."""
    for i in range(300):
        n = int(rng.integers(1, 301))
        spread = rng.uniform(0.0, 60.0)
        lam = np.abs(rng.normal(size=n)) * 10.0 ** rng.uniform(-spread, spread, size=n)
        a, b = (rng.normal(size=n) * 10.0 ** rng.uniform(-spread / 2, spread / 2, size=n) for _ in range(2))
        a, b = (row + 1j * rng.normal(size=n) if rng.random() < 0.4 else row for row in (a, b))
        for row in (a, b):
            row[rng.random(n) < 0.25] = 0.0
            row[rng.random(n) < 0.1] = -0.0
            if np.iscomplexobj(row):
                row[rng.random(n) < 0.1] = complex(-0.0, -0.0)
        lam[rng.random(n) < 0.1] = -0.0
        if i % 50 == 0:
            b[:] = 0.0
        if i % 50 == 1:
            a[:] = -0.0
        yield n, lam, a, b


def test_floor_is_the_masked_sum_bit_for_bit():
    # the model's floor, its CSV line and its joint support, against the
    # masks built anew
    rng = np.random.default_rng(2020)
    with_floor = 0
    for n, lam, a, b in floor_models(rng):
        m = SpectralModel(n=n, lambda_x=lam, a_f=a, b_f=b)
        want = floor_reference(m)
        assert bits(expected_min_distortion(m)) == bits(want)
        assert curve_to_csv(m, [0.0]).split("\n", 1)[0] == f"# e_d0 = {want!r}"
        assert np.array_equal(m.k_ab, (m.a_f != 0) & (m.b_f != 0))
        with_floor += want > 0
    assert 200 < with_floor < 300


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


def test_water_fill_names_a_rate_that_overflows_at_the_theta_floor():
    # 1e300 / 1e-15 overflows: the budget-0 rate is unbounded in float64 too,
    # so water_fill names it instead of summing an inf (numpy warns of nothing)
    m = SpectralModel(n=4, lambda_x=np.full(4, 1e300), a_f=np.ones(4), b_f=np.ones(4))
    with pytest.raises(ValueError, match=r"^rate at the theta floor 1e-15 is not finite"):
        water_fill(m, 0.0)
    alloc = water_fill(m, 0.1)  # the same model at a budget whose rates are finite
    assert alloc.theta == 0.1 and not alloc.rate_floored
    assert alloc.total_rate == pytest.approx(4 * 0.5 * math.log(1e301), rel=1e-14)
    # a water level above the floor can overflow the ratio too
    m = SpectralModel(n=2, lambda_x=[0.0, 1.7e308], a_f=np.ones(2), b_f=np.ones(2))
    with pytest.raises(ValueError, match=r"^rate at theta 0\.5 is not finite"):
        water_fill(m, 0.25)


def test_water_fill_clamps_infeasible_budget():
    m = SpectralModel(n=4, lambda_x=np.ones(4), a_f=np.ones(4), b_f=np.ones(4))
    alloc = water_fill(m, 2.0)  # saturation is D = 1
    assert alloc.clamped
    assert np.array_equal(alloc.d_k, np.ones(4))
    assert alloc.total_rate == 0.0
    assert not water_fill(m, 1.0).clamped  # exactly at saturation is feasible


def test_water_fill_clamped_is_the_saturated_allocation():
    # beyond saturation the level sits at the largest weighted variance, where
    # no bin is active: every supported bin keeps its variance at zero rate
    rng = np.random.default_rng(150)
    for _ in range(20):
        m = random_model(rng)
        weighted = m.gain * m.lambda_w_tilde
        saturation_d = float(weighted[m.k_ab].sum()) / m.n
        alloc = water_fill(m, 2 * saturation_d + 1.0)
        assert alloc.clamped and not alloc.rate_floored
        assert alloc.theta == weighted.max()
        assert np.array_equal(alloc.d_k, np.where(m.k_ab, m.lambda_w_tilde, 0.0))
        assert np.array_equal(alloc.r_k, np.zeros(m.n))
        assert alloc.total_rate == 0.0
        assert alloc.total_distortion == float((m.gain * alloc.d_k).sum())


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


def test_water_fill_nan_budget_rejected():
    m = SpectralModel(n=2, lambda_x=[1.0, 1], a_f=[1, 1], b_f=[1, 1])
    with pytest.raises(ValueError, match="total_d"):
        water_fill(m, math.nan)


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


def bitwise_models(rng):
    """Models with tied levels, zero and -0.0 variances on the support, an
    all-zero support and an empty one."""
    for _ in range(30):
        yield random_model(rng)
    for n in (1, 2, 7, 16, 64, 257):
        cut = int(rng.integers(0, n // 2 + 1))
        lam = 1.5 * (1.0 + folded(n)) ** -0.8  # equal on bins k and n - k: tied levels
        yield SpectralModel(n=n, lambda_x=lam, a_f=np.ones(n), b_f=(folded(n) <= cut).astype(float))
        zeroed = lam.copy()
        zeroed[rng.random(n) < 0.3] = 0.0
        zeroed[rng.random(n) < 0.3] = -0.0
        yield SpectralModel(n=n, lambda_x=zeroed, a_f=np.ones(n), b_f=np.ones(n))
        signed = np.where(rng.random(n) < 0.5, -0.0, 0.0)  # every level a zero of either sign
        yield SpectralModel(n=n, lambda_x=signed, a_f=np.ones(n), b_f=(folded(n) <= cut).astype(float))
        yield SpectralModel(n=n, lambda_x=lam, a_f=np.ones(n), b_f=np.zeros(n))


def bitwise_budgets(rng, model):
    """0 and -0.0, budgets putting theta exactly on a level, random ones
    inside, exactly at saturation, inside its 1e-12 slack, on either side of
    its edge and beyond it."""
    weighted = model.gain * model.lambda_w_tilde
    saturation = float(weighted[model.k_ab].sum())
    levels = np.sort(weighted[model.k_ab])
    on_level = [float(levels[:j].sum() + (levels.size - j) * levels[j]) for j in range(levels.size)]
    targets = [0.0, -0.0, *on_level[:: max(1, levels.size // 8)], saturation,
               saturation * (1 + 1e-13), saturation * (1 + 1e-11), 2 * saturation + 1.0]
    targets += list(rng.uniform(0.0, saturation, size=5))
    budgets = [t / model.n for t in targets] + [saturation / model.n * (1 + 1e-13)]
    # the last budget inside the slack and the first beyond it, where N * D
    # lands on them exactly
    edge = saturation * (1 + 1e-12)
    for target in (edge, np.nextafter(edge, math.inf)):
        near = target / model.n
        for d in (near, np.nextafter(near, 0.0), np.nextafter(near, math.inf)):
            if model.n * float(d) == target:
                budgets.append(float(d))
    return budgets


def test_water_fill_matches_the_per_budget_oracle_bit_for_bit():
    rng = np.random.default_rng(500)
    cases = 0
    for model in bitwise_models(rng):
        for total_d in bitwise_budgets(rng, model):
            assert_same_allocation(water_fill(model, total_d), water_fill_reference(model, total_d))
            cases += 1
    assert cases > 1000


def test_clamped_theta_on_an_all_zero_support_is_positive_zero():
    # the levels are zeros of either sign (or there are none), and np.max's
    # pick among them depends on their positions; the clamp level is +0.0
    rng = np.random.default_rng(500)
    clamped = 0
    for model in bitwise_models(rng):
        if not (model.gain * model.lambda_w_tilde).any():
            for total_d in bitwise_budgets(rng, model):
                alloc = water_fill(model, total_d)
                if alloc.clamped:
                    assert bits(alloc.theta) == bits(0.0)
                    clamped += 1
    assert clamped > 0


def theory_curve_model(n=1 << 16):
    """The shape of the benchmark's theory curve: a powerlaw spectrum and
    b's cutoff below a's."""
    lam = 1.3 * (1.0 + folded(n)) ** -0.9
    return SpectralModel(
        n=n, lambda_x=lam, a_f=(folded(n) <= 12000).astype(float), b_f=(folded(n) <= 5000).astype(float)
    )


def test_theory_curve_sized_run_matches_the_oracle_bit_for_bit():
    # 2**16 bins, ten budgets below saturation, plus 0 and one far beyond
    # saturation
    n = 1 << 16
    model = theory_curve_model(n)
    saturation_d = float(model.lambda_x[folded(n) <= 5000].sum()) / n
    grid = [0.0, *(float(f"{d:.6g}") for d in np.geomspace(1e-4 * saturation_d, 0.5 * saturation_d, 10)), 1e9]
    floor = expected_min_distortion(model)
    lines = [f"# e_d0 = {floor!r}", "D,total_distortion,rate_bits_per_sample,theta"]
    for d in grid:
        want = water_fill_reference(model, d)
        assert_same_allocation(water_fill(model, d), want)
        rate = want.total_rate / math.log(2) / n
        lines.append(f"{d!r},{floor + d!r},{rate!r},{want.theta!r}")
    assert curve_to_csv(model, grid) == "\n".join(lines) + "\n"


def test_curve_builds_no_per_bin_array(monkeypatch):
    allocations = []
    original = gauss_theory.water_fill
    monkeypatch.setattr(gauss_theory, "water_fill", lambda m, d: allocations.append(original(m, d)) or allocations[-1])
    model = theory_curve_model()
    curve_to_csv(model, [0.0, 1e-6, 1e-5, 1e-4, 1.0])
    assert len(allocations) == 5 and allocations[-1].clamped
    for alloc in allocations:
        assert not {"d_k", "r_k", "total_distortion"} & vars(alloc).keys()
    allocations[1].total_distortion  # built on request, with the d_k it reads, and kept
    assert {"d_k", "total_distortion"} <= vars(allocations[1]).keys()


def test_curve_traces_under_half_a_float_row():
    # only the rates of the bins below saturation are built, never an
    # n-length row per budget
    model = theory_curve_model()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        curve_to_csv(model, [0.0, 5.36e-08, 3.56e-07, 2.36e-06, 1.57e-05, 0.000104, 0.000268, 1.0])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * model.n, peak / (8 * model.n)


def test_total_rate_is_the_rate_row_summed_to_rounding():
    rng = np.random.default_rng(34)
    floored = clamped = 0
    for model in [*(random_model(rng) for _ in range(40)), theory_curve_model(1 << 12)]:
        saturation = float((model.gain * model.lambda_w_tilde)[model.k_ab].sum())
        for d in (0.0, *rng.uniform(0.0, saturation / model.n, size=4), 2 * saturation / model.n + 1.0):
            alloc = water_fill(model, d)
            exact = math.fsum(alloc.r_k)
            assert abs(alloc.total_rate - exact) <= 1e-14 * exact
            floored += alloc.rate_floored
            clamped += alloc.clamped
    assert floored and clamped


def test_model_and_curve_build_no_per_bin_row():
    model = theory_curve_model()
    curve_to_csv(model, [0.0, 1e-6, 1e-5, 1e-4, 1.0])
    assert not {"gain", "lambda_w", "lambda_w_tilde"} & vars(model).keys()
    assert "gain" not in repr(model)
    model.lambda_w_tilde  # built on request, with the rows it reads, and kept
    assert {"gain", "lambda_w", "lambda_w_tilde"} <= vars(model).keys()


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


@pytest.mark.parametrize("d_grid", [[0.01, math.nan, 0.5], [math.nan], [0.01, 0.5, math.nan]])
def test_curve_grid_rejects_nan(d_grid):
    m = SpectralModel(n=2, lambda_x=[1.0, 1], a_f=[1, 1], b_f=[1, 1])
    with pytest.raises(ValueError, match="non-negative"):
        theoretical_rd_curve(m, d_grid)


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
