"""Operator tests against dense-matrix oracles built from first principles."""

import numpy as np
import pytest

from sysaware.admm import DimensionMismatchError, ZUpdateTerms, solve_regularized
from sysaware.system_sim import gaussian_kernel, kernel_spectrum, make_blur_subsample_system

from oracles import (
    CirculantSpectral,
    Compose,
    Convolution,
    Identity,
    LinearMap,
    Replicate,
    Subsample,
    cg_regularized_solve,
    circulant_symbol,
    mask_spectrum,
    pinv_response,
    project_range,
    pseudoinverse_apply,
    support,
    system_chain,
)

# ---------------------------------------------------------------- oracles #


def dense_convolution(n, kernel, center=None):
    """Dense centered circular convolution: y[i] = sum_j k[j] x[(i+j-c) % n]."""
    kernel = np.asarray(kernel, float)
    if center is None:
        center = (len(kernel) - 1) // 2
    mat = np.zeros((n, n))
    for i in range(n):
        for j, kj in enumerate(kernel):
            mat[i, (i + j - center) % n] += kj
    return mat


def dense_subsample(n, factor):
    rows = range(0, n, factor)
    mat = np.zeros((len(rows), n))
    for r, idx in enumerate(rows):
        mat[r, idx] = 1.0
    return mat


def dense_replicate(n, factor):
    mat = np.zeros((n * factor, n))
    for i in range(n * factor):
        mat[i, i // factor] = 1.0
    return mat


def dft_matrix(n):
    jk = np.outer(np.arange(n), np.arange(n))
    return np.exp(-2j * np.pi * jk / n)


def dense_circulant(freq_response):
    """Dense real operator F^-1 diag(h) F (real part, matching the spectral apply)."""
    h = np.asarray(freq_response, complex)
    n = h.size
    f = dft_matrix(n)
    return (f.conj().T @ np.diag(h) @ f / n).real


class Window(LinearMap):
    """Diagonal windowing y[i] = weights[i] * x[i]: shift-variant, never circulant
    unless the weights are constant."""

    def __init__(self, weights):
        self.weights = np.asarray(weights, float)
        super().__init__(self.weights.size, self.weights.size)

    def _apply(self, x):
        return self.weights * x


def dense_of(op):
    """Materialize any operator kind from its defining parameters (not via apply)."""
    if isinstance(op, Identity):
        return np.eye(op.in_dim)
    if isinstance(op, Convolution):
        return dense_convolution(op.in_dim, op.kernel)
    if isinstance(op, Subsample):
        return dense_subsample(op.in_dim, op.factor)
    if isinstance(op, Replicate):
        return dense_replicate(op.in_dim, op.factor)
    if isinstance(op, CirculantSpectral):
        return dense_circulant(op.freq_response)
    if isinstance(op, Window):
        return np.diag(op.weights)
    if isinstance(op, Compose):
        mat = np.eye(op.in_dim)
        for stage in op.stages:
            mat = dense_of(stage) @ mat
        return mat
    raise TypeError(type(op))


def loop_kernel_spectrum(n, kernel):
    """kernel_spectrum's first column built tap by tap, then the same DFT."""
    kernel = np.asarray(kernel, float)
    center = (kernel.size - 1) // 2
    col0 = np.zeros(n)
    for j, kj in enumerate(kernel.tolist()):
        col0[(center - j) % n] += kj
    half = np.fft.rfft(col0)
    tail = np.arange(half.size, n)
    return np.concatenate((half, np.conj(half[n - tail])))


# ------------------------------------------------------------------ apply #


def test_kernel_spectrum_matches_the_tap_loop():
    rng = np.random.default_rng(12)
    cases = [(8, 3), (8, 8), (5, 13), (4, 29), (1, 4), (1024, 15)]  # kernels past n wrap around
    for n, taps in cases:
        kernel = rng.normal(size=taps)
        want = loop_kernel_spectrum(n, kernel)
        assert np.array_equal(kernel_spectrum(n, kernel), want), (n, taps)
        response = Convolution(n, kernel).freq_response  # bit for bit, signed zeros too
        assert (response.dtype, response.tobytes()) == (want.dtype, want.tobytes()), (n, taps)


def test_identity_apply():
    op = Identity(5)
    x = np.arange(5.0)
    assert np.array_equal(op.apply(x), x)


def test_subsample_apply():
    op = Subsample(6, 2)
    assert np.array_equal(op.apply([0.0, 1, 2, 3, 4, 5]), [0.0, 2, 4])


def test_conv_then_subsample_matches_dense_oracle():
    # Frozen expectation, recomputed by the dense oracle as well.
    x = np.array([1.0, 0, 0, 0, 0, 0, 0, 1])
    op = Compose([Convolution(8, [0.25, 0.5, 0.25]), Subsample(8, 2)])
    expected = np.array([0.75, 0.0, 0.0, 0.25])
    oracle = dense_subsample(8, 2) @ dense_convolution(8, [0.25, 0.5, 0.25]) @ x
    assert np.allclose(oracle, expected, atol=1e-15)
    assert np.allclose(op.apply(x), expected, atol=1e-12)


def test_replicate_apply():
    op = Replicate(2, 2)
    assert np.array_equal(op.apply([1.0, 2.0]), [1.0, 1.0, 2.0, 2.0])


def test_apply_dimension_error():
    with pytest.raises(DimensionMismatchError) as err:
        Subsample(6, 2).apply(np.zeros(5))
    assert err.value.expected == 6
    assert err.value.actual == 5


def test_compose_dimension_check():
    with pytest.raises(DimensionMismatchError):
        Compose([Subsample(8, 2), Convolution(8, [1.0])])


def test_compose_rejects_an_empty_stage_list():
    with pytest.raises(ValueError):
        Compose([])


@pytest.mark.parametrize(
    "build,needle",
    [
        (lambda: LinearMap(0, 3), "dimensions must be positive"),
        (lambda: LinearMap(3, 0), "dimensions must be positive"),
        (lambda: Subsample(4, 0), "subsampling factor"),
        (lambda: Replicate(4, 0), "replication factor"),
        (lambda: Convolution(4, []), "kernel must be non-empty"),
        (lambda: Convolution(0, [1.0]), "dimensions must be positive"),
    ],
    ids=["in_dim-0", "out_dim-0", "subsample-0", "replicate-0", "empty-kernel", "conv-n-0"],
)
def test_constructors_reject_degenerate_operators(build, needle):
    with pytest.raises(ValueError, match=needle):
        build()


def test_base_map_has_no_apply():
    with pytest.raises(NotImplementedError):
        LinearMap(2, 2).apply(np.zeros(2))


def test_all_kinds_match_dense_oracle():
    rng = np.random.default_rng(7)
    ops = [
        Identity(6),
        Convolution(6, rng.normal(size=5)),
        Subsample(6, 3),
        Replicate(6, 2),
        CirculantSpectral(kernel_spectrum(6, rng.normal(size=3))),
        Compose([Convolution(6, [0.5, 0.5]), Subsample(6, 2), Replicate(3, 4)]),
    ]
    for op in ops:
        mat = dense_of(op)
        for _ in range(5):
            x = rng.normal(size=op.in_dim)
            assert np.allclose(op.apply(x), mat @ x, atol=1e-12), type(op).__name__


# --------------------------------------------- pseudoinverse / projection #


def test_pseudoinverse_full_support_is_inverse():
    op = CirculantSpectral(np.ones(4))
    x = np.array([3.0, -1.0, 2.0, 0.5])
    assert np.allclose(pseudoinverse_apply(op, x), x, atol=1e-12)


def test_pseudoinverse_zero_bins():
    op = CirculantSpectral([1.0, 0.0, 1.0, 0.0])
    assert np.array_equal(support(op), [True, False, True, False])
    assert np.array_equal(pinv_response(op), [1.0, 0.0, 1.0, 0.0])


def test_pseudoinverse_threshold_rule():
    op = CirculantSpectral([1.0, 1e-13, 0.5, 2.0])
    assert not support(op)[1]  # below 1e-12 * max mag counts as zero


def test_pseudoinverse_matches_numpy_pinv():
    rng = np.random.default_rng(11)
    for n in (4, 8, 16):
        for _ in range(5):
            h = kernel_spectrum(n, rng.normal(size=3))
            j = int(rng.integers(0, n))
            h[[j, (n - j) % n]] = 0.0  # conjugate pair, keeps the filter real
            dense = dense_circulant(h)
            pinv = np.linalg.pinv(dense)
            op = CirculantSpectral(h)
            x = rng.normal(size=n)
            assert np.allclose(pseudoinverse_apply(op, x), pinv @ x, atol=1e-10)
            # C+ C x is the range projection of the transpose problem; for
            # circulant C the range and row-space projections coincide
            assert np.allclose(
                pseudoinverse_apply(op, dense @ x), project_range(op, x), atol=1e-10
            )


def test_project_range_frozen_case():
    op = CirculantSpectral([1.0, 1.0, 0.0, 1.0])
    x = np.array([1.0, 2.0, 3.0, 4.0])
    got = project_range(op, x)
    # dense oracle: F^-1 diag([1,1,0,1]) F, frozen output
    f = dft_matrix(4)
    oracle = (f.conj().T @ np.diag([1.0, 1, 0, 1]) @ f / 4 @ x).real
    expected = np.array([1.5, 1.5, 3.5, 3.5])
    assert np.allclose(oracle, expected, atol=1e-12)
    assert np.allclose(got, expected, atol=1e-12)


def test_project_range_full_and_empty_support():
    x = np.array([1.0, -2.0, 0.5, 4.0])
    assert np.allclose(project_range(CirculantSpectral(np.ones(4) * 2), x), x, atol=1e-12)
    assert np.allclose(project_range(CirculantSpectral(np.zeros(4)), x), 0.0, atol=1e-15)


def test_projection_idempotent():
    rng = np.random.default_rng(3)
    # support pattern is mirror-symmetric so the mask describes a real filter
    op = CirculantSpectral(np.array([1.0, 0.0, 2.0, 2.0, 0.0]))
    xf = rng.normal(size=5) + 1j * rng.normal(size=5)
    once = mask_spectrum(op, xf)
    assert np.array_equal(mask_spectrum(op, once), once)  # bin zeroing: exact
    x = rng.normal(size=5)
    p = project_range(op, x)
    assert np.allclose(project_range(op, p), p, atol=1e-14)  # fft round trip


def test_range_decomposition_identity():
    # ||w - Hv||^2 = ||(I - H H+) w||^2 + ||H (H+ w - v)||^2 for circulant H
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(3, 25))
        h = kernel_spectrum(n, rng.normal(size=int(rng.integers(1, n + 1))))
        zero = rng.random(n) < 0.3
        zero &= zero[(-np.arange(n)) % n]  # symmetric pattern keeps h real-filter-like
        h[zero] = 0.0
        op = CirculantSpectral(h)
        w = rng.normal(size=n)
        v = rng.normal(size=n)
        lhs = float(np.sum((w - op.apply(v)) ** 2))
        out_of_range = w - project_range(op, w)
        in_range = op.apply(pseudoinverse_apply(op, w) - v)
        rhs = float(np.sum(out_of_range**2) + np.sum(in_range**2))
        assert abs(lhs - rhs) <= 1e-10 * max(lhs, rhs, 1e-12)


# ------------------------------------------------------- solve_regularized #


def test_solve_identity_case():
    w = np.array([1.0, 2.0, 3.0, 4.0])
    v = np.array([0.0, 1.0, 0.0, 1.0])
    z = solve_regularized(ZUpdateTerms(circulant_symbol(Identity(4)), w, beta_tilde=1.0), v)
    assert np.allclose(z, (w + v) / 2, atol=1e-12)


def test_solve_large_beta_returns_target():
    rng = np.random.default_rng(5)
    a = Convolution(8, [0.2, 0.6, 0.2])
    w = rng.normal(size=8)
    v = rng.normal(size=8)
    z = solve_regularized(ZUpdateTerms(a.freq_response, w, beta_tilde=1e8), v)
    assert np.linalg.norm(z - v) <= 1e-6 * np.linalg.norm(v)


def test_solve_cg_dft_dense_agree():
    rng = np.random.default_rng(17)
    for n in (8, 16):
        for _ in range(5):
            a = CirculantSpectral(kernel_spectrum(n, rng.normal(size=4)))
            b = CirculantSpectral(kernel_spectrum(n, rng.normal(size=3)))
            w = rng.normal(size=n)
            v = rng.normal(size=n)
            beta = float(rng.uniform(0.2, 2.0))
            ad, bd = dense_of(a), dense_of(b)
            normal = bd.T @ ad.T @ ad @ bd + beta * np.eye(n)
            dense = np.linalg.solve(normal, bd.T @ ad.T @ w + beta * v)
            z_dft = solve_regularized(ZUpdateTerms(circulant_symbol(Compose([b, a])), w, beta), v)
            z_cg = cg_regularized_solve(ad, bd, w, v, beta)
            scale = np.linalg.norm(dense)
            assert np.linalg.norm(z_dft - dense) <= 1e-10 * scale
            assert np.linalg.norm(z_cg - dense) <= 1e-10 * scale


def test_solve_closed_form_ignores_operator_types():
    a = CirculantSpectral(kernel_spectrum(8, [0.5, 0.5]))
    w = np.ones(8)
    # the chain is circulant whatever b's type, so both have a symbol
    z = [
        solve_regularized(ZUpdateTerms(circulant_symbol(Compose([b, a])), w, 0.5), w)
        for b in (Identity(8), CirculantSpectral(np.ones(8)))
    ]
    assert np.allclose(z[0], z[1], atol=1e-8)


def dense_regularized_solve(a, b, w, v, beta):
    ad, bd = dense_of(a), dense_of(b)
    normal = bd.T @ ad.T @ ad @ bd + beta * np.eye(bd.shape[1])
    return np.linalg.solve(normal, bd.T @ ad.T @ w + beta * v)


def test_circulant_symbol_of_circulant_operators():
    rng = np.random.default_rng(37)
    h = kernel_spectrum(16, rng.normal(size=5))
    assert np.allclose(circulant_symbol(CirculantSpectral(h)), h, atol=1e-12)
    assert np.allclose(circulant_symbol(Identity(16)), np.ones(16), atol=1e-15)
    # replicate -> convolve -> subsample is circulant on the coarse grid
    chain = Compose([Replicate(8, 2), Convolution(16, rng.normal(size=5)), Subsample(16, 2)])
    symbol = circulant_symbol(chain)
    assert symbol is not None
    assert np.allclose(dense_circulant(symbol), dense_of(chain), atol=1e-12)


def test_circulant_symbol_rejects_shift_variant_and_non_square():
    weights = np.linspace(0.5, 1.5, 16)
    assert circulant_symbol(Window(weights)) is None
    assert circulant_symbol(Compose([Convolution(16, [0.25, 0.5, 0.25]), Window(weights)])) is None
    assert circulant_symbol(Subsample(16, 2)) is None
    # the impulse alone cannot see a window that is 1 at sample 0
    assert circulant_symbol(Window(np.r_[1.0, np.full(15, 2.0)])) is None


def test_solve_default_chain_takes_closed_form():
    system = make_blur_subsample_system()
    a, b = system_chain(1024, gaussian_kernel(), 4)
    symbol = circulant_symbol(Compose([b, a]))
    assert symbol is not None and symbol.size == 256
    assert symbol.tobytes() == system.symbol.tobytes()
    rng = np.random.default_rng(43)
    w = rng.normal(size=256)
    v = rng.normal(size=256)
    z = solve_regularized(ZUpdateTerms(symbol, w, 0.25), v)
    z_cg = cg_regularized_solve(dense_of(a), dense_of(b), w, v, 0.25)
    dense = dense_regularized_solve(a, b, w, v, 0.25)
    scale = np.linalg.norm(dense)
    assert np.linalg.norm(z - z_cg) <= 1e-10 * scale
    assert np.linalg.norm(z - dense) <= 1e-10 * scale


def test_solve_satisfies_normal_equations():
    rng = np.random.default_rng(29)
    a = Compose([Convolution(16, rng.normal(size=5)), Subsample(16, 2)])
    b = Replicate(8, 2)
    w = rng.normal(size=8)
    v = rng.normal(size=8)
    beta = 0.25
    z = solve_regularized(ZUpdateTerms(circulant_symbol(Compose([b, a])), w, beta), v)
    h = dense_of(a) @ dense_of(b)
    lhs = h.T @ (h @ z) + beta * z
    rhs = h.T @ w + beta * v
    assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)


def test_solve_dimension_and_argument_errors():
    symbol = circulant_symbol(Identity(4))
    w = np.zeros(4)
    with pytest.raises(DimensionMismatchError):
        ZUpdateTerms(symbol, np.zeros(3), 1.0)
    with pytest.raises(DimensionMismatchError):
        solve_regularized(ZUpdateTerms(symbol, w, 1.0), np.zeros(5))
    for beta in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            ZUpdateTerms(symbol, w, beta_tilde=beta)
