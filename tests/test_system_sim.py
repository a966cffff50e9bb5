"""Chirp experiment plumbing: signal, system, metrics, sweeps."""

import math
import re

import numpy as np
import pytest

from sysaware import admm
from sysaware.admm import AdmmConfig, DimensionMismatchError, run
from sysaware.system_sim import (
    RDPoint,
    SystemModel,
    acquire,
    gaussian_kernel,
    load_signal,
    make_blur_subsample_system,
    make_chirp,
    psnr,
    rd_points_to_csv,
    render,
    save_signal,
    signal_texts,
    sweep,
)
from sysaware.tree_codec import TreeCodecPlug

from oracles import (
    Compose,
    circulant_symbol,
    ideal_distortion_check,
    signal_text_reference,
    system_chain,
)


def identity_system(n, noise_std=0.0, seed=0):
    return SystemModel(n, [1.0], 1, noise_std, seed)


# ------------------------------------------------------------------ chirp #


def test_chirp_spot_values():
    x = make_chirp(1024)
    assert x[0] == 0.5  # zero envelope at t=0
    frozen = {256: 0.5883883476483186, 512: 0.4999999999999996, 768: 0.7651650429449549}
    for i, value in frozen.items():
        assert abs(x[i] - value) <= 1e-12
        t = i / 1024
        oracle = 0.5 + 0.5 * t * math.sin(2 * math.pi * (2 * t + 30 * t * t))
        assert abs(x[i] - oracle) <= 1e-12


def test_chirp_range_and_length():
    x = make_chirp(1024)
    assert x.shape == (1024,)
    assert np.all(x >= 0.0) and np.all(x <= 1.0)
    with pytest.raises(ValueError):
        make_chirp(1)


# ----------------------------------------------------------------- system #


def test_gaussian_kernel_shape():
    k = gaussian_kernel()
    assert k.shape == (15,)
    assert abs(k.sum() - 1.0) <= 1e-12
    assert np.allclose(k, k[::-1])  # symmetric taps
    assert k.max() / k.min() < 1.2  # wide std over short support: near-boxcar
    with pytest.raises(ValueError):
        gaussian_kernel(support=4)
    with pytest.raises(ValueError):
        gaussian_kernel(support=0)


@pytest.mark.parametrize("std", [0.0, -1.0, float("nan"), float("inf")])
def test_gaussian_kernel_requires_finite_positive_std(std):
    with pytest.raises(ValueError, match="finite and positive"):
        gaussian_kernel(std)
    with pytest.raises(ValueError, match="finite and positive"):
        make_blur_subsample_system(n=64, kernel_std=std)


@pytest.mark.parametrize("factor", [0, -4])
def test_blur_subsample_system_checks_the_factor_before_dividing_by_it(factor):
    with pytest.raises(ValueError, match=f"subsampling factor must be >= 1, got {factor}"):
        make_blur_subsample_system(n=64, factor=factor)


def test_system_model_validates_loop_closure():
    # the loop closes by construction when the factor divides n
    with pytest.raises(ValueError, match="subsampling factor 3 must divide n=4"):
        SystemModel(4, [1.0], 3, 0.0, 0)
    with pytest.raises(ValueError):
        SystemModel(4, [1.0], 1, -1.0, 0)


def test_system_models_can_sit_in_a_list_and_a_set():
    system, other = identity_system(8), identity_system(8)
    assert system in [other, system]
    assert len({system, other}) == 2


@pytest.mark.parametrize("noise_std", [-1.0, float("nan"), float("inf")])
def test_system_model_requires_finite_non_negative_noise(noise_std):
    with pytest.raises(ValueError, match="finite and non-negative"):
        SystemModel(4, [1.0], 1, noise_std, 0)


@pytest.mark.parametrize("seed", [-1, np.int64(-3), True, False, 1.0, "3", None])
def test_system_model_requires_a_non_negative_integer_seed(seed):
    # numpy's own refusal of a negative seed names neither the field nor the value
    with pytest.raises(ValueError, match=re.escape(f"rng_seed must be a non-negative integer, got {seed!r}")):
        SystemModel(4, [1.0], 1, 1.0, seed)
    for seed in (0, np.uint64(2**64 - 1), 2**70):
        system = SystemModel(4, [1.0], 1, 1.0, seed)
        assert np.array_equal(acquire(np.zeros(4), system), acquire(np.zeros(4), system))


PIN_KERNELS = {1: [0.7], 3: [0.25, 0.5, 0.25], 15: gaussian_kernel().tolist()}


@pytest.mark.parametrize("taps", sorted(PIN_KERNELS))
@pytest.mark.parametrize("n", [16, 64, 1024, 4096])
@pytest.mark.parametrize("factor", [1, 2, 4, 8])
def test_system_model_is_bitwise_the_operator_chain(n, factor, taps):
    kernel = PIN_KERNELS[taps]
    system = SystemModel(n, kernel, factor, 0.0, 0)
    a, b = system_chain(n, kernel, factor)
    symbol = circulant_symbol(Compose([b, a]))  # also checks the chain is circulant
    assert symbol is not None and system.symbol.tobytes() == symbol.tobytes()
    rng = np.random.default_rng(n + factor + taps)
    x, v = rng.uniform(size=n), rng.uniform(size=n // factor)
    assert acquire(x, system).tobytes() == a.apply(x).tobytes()
    assert render(v, system).tobytes() == b.apply(v).tobytes()


def test_acquire_and_render_reject_a_misshapen_vector():
    system = make_blur_subsample_system(n=64, factor=4)
    for bad in (np.zeros(63), np.zeros(65), np.zeros((4, 16)), 1.0):
        with pytest.raises(DimensionMismatchError, match="acquire: x: expected length 64"):
            acquire(bad, system)
    for bad in (np.zeros(15), np.zeros(64), np.zeros((2, 8)), 1.0):
        with pytest.raises(DimensionMismatchError, match="render: v: expected length 16"):
            render(bad, system)


@pytest.mark.parametrize(
    "n,kernel,factor,needle",
    [
        (0, [1.0], 1, "operator dimensions must be positive, got n=0"),
        (-4, [1.0], 2, "operator dimensions must be positive, got n=-4"),
        (4.0, [1.0], 1, "operator dimensions must be positive, got n=4.0"),
        (8, [], 2, "kernel must be non-empty"),
        (8, [1.0], 0, "subsampling factor must be >= 1, got 0"),
        (8, [1.0], -2, "subsampling factor must be >= 1, got -2"),
        (8, [1.0], True, "subsampling factor must be an integer, got True"),
        (8, [1.0], 2.0, "subsampling factor must be an integer, got 2.0"),
        (8, [1.0], "2", "subsampling factor must be an integer, got '2'"),
        (8, [1.0], 3, "subsampling factor 3 must divide n=8"),
        (64, [math.nan, 1.0, 0.5], 2, "kernel taps must be finite"),
        (64, [0.5, math.inf, 0.5], 2, "kernel taps must be finite"),
        (64, [0.5, 1.0, -math.inf], 2, "kernel taps must be finite"),
    ],
)
def test_system_model_rejects_a_degenerate_system(n, kernel, factor, needle):
    with pytest.raises(ValueError, match=re.escape(needle)):
        SystemModel(n, kernel, factor, 0.0, 0)


def test_default_system_dimensions():
    system = make_blur_subsample_system()
    assert (system.n, system.factor, system.m) == (1024, 4, 256)
    assert system.response.shape == (1024,) and system.symbol.shape == (256,)
    w = acquire(make_chirp(1024), system)
    assert w.shape == (256,)
    assert render(w, system).shape == (1024,)


def test_dimension_chain_for_power_of_two_sizes():
    codec = TreeCodecPlug()
    for n, factor in [(64, 2), (128, 4), (256, 8)]:
        system = make_blur_subsample_system(n=n, factor=factor, noise_std=1e-3, seed=3)
        w = acquire(make_chirp(n), system)
        assert w.shape == (n // factor,)
        y = render(codec.decompress(codec.compress(w, 1e-3)), system)
        assert y.shape == (n,)


def test_acquire_noiseless_identity():
    x = make_chirp(64)
    system = identity_system(64)
    # the one-tap kernel still goes through the FFT, as a config with
    # kernel_support 1 and factor 1 always did: x back to an ulp, and bit for
    # bit the operator chain's
    w = acquire(x, system)
    assert np.abs(w - x).max() <= np.finfo(float).eps
    a, _ = system_chain(64, [1.0], 1)
    assert w.tobytes() == a.apply(x).tobytes()


def test_acquire_deterministic_per_seed():
    x = make_chirp(128)
    system = make_blur_subsample_system(n=128, factor=4, noise_std=0.01, seed=42)
    assert np.array_equal(acquire(x, system), acquire(x, system))
    other = make_blur_subsample_system(n=128, factor=4, noise_std=0.01, seed=43)
    assert not np.array_equal(acquire(x, system), acquire(x, other))


def test_render_examples():
    system = make_blur_subsample_system(n=8, factor=2, kernel_support=3)
    assert np.array_equal(render(np.array([1.0, 2, 3, 4]), system), [1, 1, 2, 2, 3, 3, 4, 4])
    ident = identity_system(4)
    v = np.array([0.5, 0.25, 0.125, 1.0])
    assert np.array_equal(render(v, ident), v)


# ---------------------------------------------------------------- metrics #


def test_psnr_saturates_on_exact_match():
    x = make_chirp(64)
    assert psnr(x, x) == 200.0


def test_psnr_closed_form_case():
    x = np.zeros(100)
    y = np.full(100, 0.1)  # MSE 0.01
    assert abs(psnr(x, y) - 20.0) <= 1e-12


def test_psnr_against_two_pass_oracle():
    x = make_chirp(256)
    system = make_blur_subsample_system(n=256, factor=4, seed=9)
    w = acquire(x, system)
    codec = TreeCodecPlug()
    y = render(codec.decompress(codec.compress(w, 1e-3)), system)
    diffs = [float(a) - float(b) for a, b in zip(x, y)]
    mse = math.fsum(d * d for d in diffs) / len(diffs)
    assert abs(psnr(x, y) - 10 * math.log10(1.0 / mse)) <= 1e-10


def test_psnr_shape_mismatch():
    with pytest.raises(ValueError):
        psnr(np.zeros(4), np.zeros(5))


def test_ideal_distortion_zero_noise():
    system = make_blur_subsample_system(n=64, factor=4, noise_std=0.0)
    assert ideal_distortion_check(make_chirp(64), system) == 0.0


def test_ideal_distortion_matches_realized_noise_exactly():
    x = make_chirp(128)
    system = make_blur_subsample_system(n=128, factor=4, noise_std=0.01, seed=5)
    w = acquire(x, system)
    a, _ = system_chain(128, gaussian_kernel(), 4)
    realized = w - a.apply(x)
    assert ideal_distortion_check(x, system) == float((realized**2).mean())


def test_ideal_distortion_concentrates_near_variance():
    x = make_chirp(4096)
    for seed in range(10):
        system = make_blur_subsample_system(
            n=4096, factor=1, noise_std=1e-3, seed=seed
        )
        d = ideal_distortion_check(x, system)
        assert abs(d - 1e-6) <= 0.1 * 1e-6


# ------------------------------------------------------------------ sweep #


def test_sweep_identity_system_matches_regular():
    x = make_chirp(64)
    system = identity_system(64)
    codec = TreeCodecPlug()
    params = [1e-4, 1e-3, 1e-2]
    w = acquire(x, system)
    regular = sweep(x, w, system, codec, params, "regular")
    proposed = sweep(x, w, system, codec, params, "proposed", AdmmConfig(max_iters=1))
    assert len(regular) == len(proposed) == 3
    for r, p in zip(regular, proposed):
        assert r.blob == p.blob
        assert r.rate_bpp == p.rate_bpp
        assert r.psnr_db == p.psnr_db
        assert (r.method, p.method) == ("regular", "proposed")
        assert (r.iterations, p.iterations) == (1, 1)
        assert r.stop_reason == "" and p.stop_reason in ("converged", "max_iters")


def test_sweep_rate_monotone_in_nu():
    x = make_chirp(256)
    system = make_blur_subsample_system(n=256, factor=4, seed=2)
    params = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1]
    points = sweep(x, acquire(x, system), system, TreeCodecPlug(), params, "regular")
    assert len(points) == 5
    by_nu = sorted(points, key=lambda p: p.nu_or_theta)
    rates = [p.rate_bpp for p in by_nu]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert rates == sorted(rates, reverse=True)
    for p in points:
        assert p.rate_bpp > 0
        assert np.isfinite(p.psnr_db) and p.psnr_db <= 200.0
    assert [p.rate_bpp for p in points] == sorted(p.rate_bpp for p in points)


def test_proposed_sweep_probes_the_chain_once(monkeypatch):
    symbols = []
    solve = admm.solve_regularized

    def recorded_solve(terms, *args):
        symbols.append(terms.symbol)
        return solve(terms, *args)

    monkeypatch.setattr(admm, "solve_regularized", recorded_solve)
    x = make_chirp(128)
    system = make_blur_subsample_system(n=128, factor=4, seed=3)
    cfg = AdmmConfig(max_iters=3, tol=0.0)
    points = sweep(x, acquire(x, system), system, TreeCodecPlug(), [1e-4, 1e-3, 1e-2], "proposed", cfg)
    assert len(points) == 3
    assert len(symbols) == sum(p.iterations for p in points)
    assert all(symbol is system.symbol for symbol in symbols)


def test_sweep_points_carry_the_rendered_reconstruction():
    x = make_chirp(1024)
    system = make_blur_subsample_system(seed=3)
    codec = TreeCodecPlug()
    w = acquire(x, system)
    for method in ("regular", "proposed"):
        for point in sweep(x, w, system, codec, [1e-5, 1e-3], method, AdmmConfig(max_iters=3)):
            y = render(codec.decompress(point.blob), system)
            assert np.unique(y).size > 1
            assert np.array_equal(point.recon, y)
            assert point.psnr_db == psnr(x, y)


def test_sweep_rejects_unknown_method_and_misshapen_measurements():
    x = make_chirp(32)
    with pytest.raises(ValueError, match="method"):
        sweep(x, x, identity_system(32), TreeCodecPlug(), [1e-3], "fast")
    system = make_blur_subsample_system(n=32, factor=2, kernel_support=3)
    for w in (x, x[:16].reshape(2, 8), x[:8]):
        for method in ("regular", "proposed"):
            with pytest.raises(ValueError, match=r"w must have shape \(16,\)"):
                sweep(x, w, system, TreeCodecPlug(), [1e-3], method)


def test_sweep_failing_point_raises_naming_param():
    class Picky:
        def __init__(self):
            self.inner = TreeCodecPlug()

        def compress(self, signal, theta):
            if theta == 666.0:
                raise RuntimeError("unsupported setting")
            return self.inner.compress(signal, theta)

        def decompress(self, blob):
            return self.inner.decompress(blob)

        def rate_bits(self, blob):
            return self.inner.rate_bits(blob)

    x = make_chirp(64)
    with pytest.raises(RuntimeError, match="method=regular") as err:
        sweep(x, x, identity_system(64), Picky(), [1e-3, 666.0, 1e-2], "regular")
    assert "666" in str(err.value)
    assert isinstance(err.value.__cause__, RuntimeError)  # the codec's own error is chained


# -------------------------------------------------------------------- csv #


def test_csv_layout_and_determinism():
    x = make_chirp(128)
    system = make_blur_subsample_system(n=128, factor=4, seed=11)
    w = acquire(x, system)
    points = sweep(x, w, system, TreeCodecPlug(), [1e-3, 1e-2], "regular")
    text = rd_points_to_csv(points, seed=11)
    again = rd_points_to_csv(
        sweep(x, w, system, TreeCodecPlug(), [1e-3, 1e-2], "regular"), seed=11
    )
    assert text == again
    lines = text.strip().split("\n")
    assert lines[0] == "method,param,rate_bpp,psnr_db,iterations,seed,stop_reason"
    assert len(lines) == 3
    for line, point in zip(lines[1:], points):
        method, param, rate, db, iters, seed, stop_reason = line.split(",")
        assert method == "regular"
        assert float(param) == point.nu_or_theta
        assert float(rate) == point.rate_bpp
        assert float(db) == point.psnr_db
        assert int(iters) == 1
        assert stop_reason == point.stop_reason == ""
        assert int(seed) == 11


def test_signal_text_round_trip(tmp_path):
    x = make_chirp(64)
    path = tmp_path / "sig.txt"
    save_signal(path, x)
    assert np.array_equal(load_signal(path), x)


def test_save_signal_formats_each_value_with_repr(tmp_path):
    tiny = 5e-324  # the smallest subnormal
    x = np.array([0.5, -0.0, 0.0, 0.5, tiny, 1e300, -1e300, -0.0, 0.1 + 0.2, 0.0, tiny, 1 / 3])
    path = tmp_path / "sig.txt"
    save_signal(path, x)
    assert path.read_text() == "".join(f"{v!r}\n" for v in x.tolist())
    assert path.read_text().splitlines()[1] == "-0.0"
    save_signal(path, np.array([]))
    assert path.read_text() == ""


def test_signal_texts_match_the_one_signal_formatter_alone_and_batched(tmp_path):
    rng = np.random.default_rng(17)
    runs = np.repeat(rng.uniform(size=12).round(2), rng.integers(1, 40, 12))
    signals = {
        "run-heavy": np.append(runs, [0.0, 0.0]),  # ends where the next signal starts
        "signed-zero": np.resize([0.0, -0.0, -0.0, 0.0, 0.0, 0.25], 40),
        "one-sample": np.array([0.25]),
        "empty": np.array([]),
        "all-distinct": np.append(rng.uniform(-1, 1, 300), [5e-324, 1e300, 0.1 + 0.2]),
    }
    expected = [signal_text_reference(x) for x in signals.values()]
    assert signal_texts(signals.values()) == expected
    assert signal_texts(reversed(signals.values())) == expected[::-1]
    assert signal_texts([signals["empty"], *signals.values()]) == [b"", *expected]
    for (name, x), text in zip(signals.items(), expected):
        assert signal_texts([x]) == [text], name
        path = tmp_path / f"{name}.txt"
        assert save_signal(path, x) == text == path.read_bytes(), name


def test_rd_point_defaults():
    p = RDPoint(nu_or_theta=0.1, rate_bpp=2.0, psnr_db=30.0, method="regular", iterations=1)
    assert p.blob == b""
    assert p.stop_reason == ""
