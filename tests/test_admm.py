"""Tests for the codec-in-the-loop ADMM driver."""

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from sysaware import admm
from sysaware.admm import (
    AdmmConfig,
    AdmmState,
    CodecError,
    chain_symbol,
    run,
    stopping_check,
    system_distortion_dc,
)
from sysaware.linops import Compose, Convolution, Identity, Replicate, Subsample, ZUpdateTerms
from sysaware.system_sim import SystemModel, sweep
from sysaware.tree_codec import Bitstream, TreeCodecPlug

from oracles import dense_matrix, z_update_reference


@dataclass(frozen=True)
class CodecPlug:
    """Codec callables: compress(signal, theta) -> bytes, decompress(bytes) ->
    signal, rate_bits(bytes) -> int. Any object with these attributes works."""

    compress: Callable
    decompress: Callable
    rate_bits: Callable


def make_state(t, residual=0.0, norm=1.0):
    v = np.full(3, norm / np.sqrt(3))
    return AdmmState(
        t=t,
        z_tilde=v,
        blob=b"",
        v_hat=v,
        v_tilde=v,
        z_hat=v,
        u=np.zeros(3),
        residual=residual,
        rate_bits=8,
        d_c=0.0,
    )


# -------------------------------------------------------------------- run #


def test_identity_reduction_is_byte_exact():
    rng = np.random.default_rng(0)
    w = rng.uniform(size=64)
    codec = TreeCodecPlug()
    cfg = AdmmConfig(theta=1e-3, max_iters=1)
    blob, trace = run(w, Identity(64), Identity(64), codec, cfg)
    assert blob == codec.compress(w, 1e-3)
    assert len(trace) == 1
    assert trace[0].blob == blob
    assert np.array_equal(trace[0].z_tilde, w)
    assert np.array_equal(trace[0].u, np.zeros(64))


def test_huge_beta_pins_z_to_codec_output():
    rng = np.random.default_rng(2)
    w = rng.uniform(size=32)
    a = Convolution(32, [0.25, 0.5, 0.25])
    cfg = AdmmConfig(theta=1e-3, beta_tilde=1e8, max_iters=2, tol=0.0)
    _, trace = run(w, a, Identity(32), TreeCodecPlug(), cfg)
    assert len(trace) == 2
    assert trace[-1].residual <= 1e-6 * np.linalg.norm(w)


def test_run_never_parses_a_blob_with_tree_codec_plug(monkeypatch):
    parses = []
    original = Bitstream.from_bytes
    monkeypatch.setattr(
        Bitstream, "from_bytes", staticmethod(lambda data: parses.append(data) or original(data))
    )
    w = np.random.default_rng(13).uniform(size=32)
    a = Compose([Convolution(64, [0.25, 0.5, 0.25]), Subsample(64, 2)])
    cfg = AdmmConfig(theta=1e-3, max_iters=3, tol=0.0)
    blob, trace = run(w, a, Replicate(32, 2), TreeCodecPlug(), cfg)
    assert len(trace) == 3
    assert parses == []
    assert trace[-1].rate_bits == original(blob).reported_rate_bits


def test_returns_last_iteration_blob():
    rng = np.random.default_rng(3)
    w = rng.uniform(size=32)
    a = Convolution(32, [0.2, 0.6, 0.2])
    cfg = AdmmConfig(theta=2e-3, max_iters=6, tol=0.0)
    blob, trace = run(w, a, Identity(32), TreeCodecPlug(), cfg)
    assert len(trace) == 6
    assert blob == trace[-1].blob


def test_dual_update_is_exact():
    rng = np.random.default_rng(4)
    w = rng.uniform(size=32)
    a = Compose([Convolution(64, [0.25, 0.5, 0.25]), Subsample(64, 2)])
    b = Replicate(32, 2)
    cfg = AdmmConfig(theta=1e-3, max_iters=8, tol=0.0)
    _, trace = run(w, a, b, TreeCodecPlug(), cfg)
    assert len(trace) >= 2
    for prev, cur in zip(trace, trace[1:]):
        assert np.array_equal(cur.u, prev.u + (prev.v_hat - prev.z_hat))


def test_z_update_satisfies_normal_equations():
    rng = np.random.default_rng(5)
    a = Compose([Convolution(64, [0.25, 0.5, 0.25]), Subsample(64, 2)])
    b = Replicate(32, 2)
    w = rng.uniform(size=32)
    cfg = AdmmConfig(theta=1e-3, max_iters=4, tol=0.0)
    _, trace = run(w, a, b, TreeCodecPlug(), cfg)
    beta = cfg.beta_tilde
    h = dense_matrix(a) @ dense_matrix(b)
    for state in trace:
        lhs = h.T @ (h @ state.z_hat) + beta * state.z_hat
        rhs = h.T @ w + beta * state.v_tilde
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)


def test_run_probes_the_chain_once_per_run(monkeypatch):
    probes, symbols = [], []
    probe, solve = admm.circulant_symbol, admm.solve_regularized

    def counted_probe(op):
        probes.append(op)
        return probe(op)

    def recorded_solve(terms, *args):
        symbols.append(terms.symbol)
        return solve(terms, *args)

    monkeypatch.setattr(admm, "circulant_symbol", counted_probe)
    monkeypatch.setattr(admm, "solve_regularized", recorded_solve)
    w = np.random.default_rng(8).uniform(size=32)
    cfg = AdmmConfig(theta=1e-3, max_iters=3, tol=0.0)
    a = Compose([Convolution(64, [0.25, 0.5, 0.25]), Subsample(64, 2)])
    run(w, a, Replicate(32, 2), TreeCodecPlug(), cfg)
    assert len(probes) == 1 and len(symbols) == 3
    assert all(symbol is symbols[0] for symbol in symbols)


def default_chain_measurements():
    from sysaware.system_sim import acquire, make_blur_subsample_system, make_chirp

    system = make_blur_subsample_system()
    return system, acquire(make_chirp(1024), system)


def test_run_z_hat_is_bitwise_the_one_expression_z_update():
    system, w = default_chain_measurements()
    symbol = chain_symbol(system.a, system.b)
    for theta in (1e-4, 1e-2):
        cfg = AdmmConfig(theta=theta)
        _, trace = run(w, system.a, system.b, TreeCodecPlug(), cfg, symbol=symbol)
        for state in trace:
            expected = z_update_reference(symbol, w, state.v_tilde, cfg.beta_tilde)
            assert state.z_hat.tobytes() == expected.tobytes(), (theta, state.t)
            assert state.residual == float(np.linalg.norm(state.v_hat - state.z_hat))
            norms = (np.linalg.norm(state.v_hat), np.linalg.norm(state.z_hat), 1e-30)
            converged = state.residual <= cfg.tol * float(max(norms))
            assert stopping_check(state, cfg) == (state.t >= cfg.max_iters or converged)


def test_run_given_its_symbol_takes_three_transforms_per_iteration(monkeypatch):
    system, w = default_chain_measurements()
    symbol = chain_symbol(system.a, system.b)
    calls = []
    for name in ("fft", "ifft"):

        def counted(*args, _name=name, _transform=getattr(np.fft, name), **kwargs):
            calls.append(_name)
            return _transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    _, trace = run(w, system.a, system.b, TreeCodecPlug(), AdmmConfig(theta=1e-3), symbol=symbol)
    # fft(w) once per run; per iteration the solve's fft and ifft, and fft(v_hat) for d_c
    assert len(calls) == 3 * len(trace) + 1
    assert calls.count("ifft") == len(trace)


def test_non_circulant_chain_raises_before_any_codec_call():
    compressed = []

    class Counting(TreeCodecPlug):
        def compress(self, signal, theta):
            compressed.append(theta)
            return super().compress(signal, theta)

    w = np.random.default_rng(8).uniform(size=32)
    conv = Compose([Convolution(64, [0.25, 0.5, 0.25]), Subsample(64, 2)])
    # a sample-and-hold stage makes A(B(.)) shift-variant
    hold = Compose([conv, Subsample(32, 2), Replicate(16, 2)])
    b = Replicate(32, 2)
    with pytest.raises(ValueError, match="not circulant"):
        run(w, hold, b, Counting(), AdmmConfig(theta=1e-3, max_iters=3, tol=0.0))
    system = SystemModel(a=hold, b=b, noise_std=0.0, rng_seed=0)
    with pytest.raises(ValueError, match="not circulant"):
        sweep(np.zeros(64), system, Counting(), [1e-3], "proposed", AdmmConfig(theta=0.0))
    assert compressed == []


def test_chirp_loop_terminates_and_stays_bounded():
    from sysaware.system_sim import acquire, make_blur_subsample_system, make_chirp

    x = make_chirp(1024)
    system = make_blur_subsample_system()
    w = acquire(x, system)
    cfg = AdmmConfig(theta=1e-3)
    blob, trace = run(w, system.a, system.b, TreeCodecPlug(), cfg)
    assert 1 <= len(trace) <= 40
    assert blob == trace[-1].blob
    bound = 1e3 * np.linalg.norm(w)
    for state in trace:
        assert np.isfinite(state.residual)
        for vec in (state.z_tilde, state.v_hat, state.v_tilde, state.z_hat, state.u):
            assert np.linalg.norm(vec) <= bound


def test_run_rejects_inconsistent_dimensions():
    codec = TreeCodecPlug()
    cfg = AdmmConfig(theta=0.0)
    with pytest.raises(ValueError):
        run(np.zeros(8), Identity(4), Identity(4), codec, cfg)
    with pytest.raises(ValueError):
        run(np.zeros(4), Identity(4), Replicate(4, 2), codec, cfg)  # A.in != B.out
    with pytest.raises(ValueError):
        run(np.zeros(4), Subsample(8, 2), Identity(8), codec, cfg)  # B.in != len(w)


def test_codec_failure_reports_iteration():
    class Flaky:
        def __init__(self, fail_at):
            self.calls = 0
            self.fail_at = fail_at
            self.inner = TreeCodecPlug()

        def compress(self, signal, theta):
            self.calls += 1
            if self.calls == self.fail_at:
                raise RuntimeError("boom")
            return self.inner.compress(signal, theta)

        def decompress(self, blob):
            return self.inner.decompress(blob)

        def rate_bits(self, blob):
            return self.inner.rate_bits(blob)

    w = np.random.default_rng(6).uniform(size=16)
    cfg = AdmmConfig(theta=1e-3, max_iters=5, tol=0.0)
    for fail_at in (1, 2):
        with pytest.raises(CodecError) as err:
            run(w, Identity(16), Identity(16), Flaky(fail_at), cfg)
        assert err.value.iteration == fail_at


def test_codec_bad_shape_is_reported():
    codec = CodecPlug(
        compress=lambda s, theta: b"x",
        decompress=lambda blob: np.zeros(3),
        rate_bits=lambda blob: 8,
    )
    with pytest.raises(CodecError) as err:
        run(np.zeros(4), Identity(4), Identity(4), codec, AdmmConfig(theta=0.0))
    assert err.value.iteration == 1


def test_config_validation():
    for beta in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="beta_tilde must be positive and finite"):
            AdmmConfig(theta=0.0, beta_tilde=beta)
    with pytest.raises(ValueError):
        AdmmConfig(theta=0.0, max_iters=0)
    with pytest.raises(ValueError):
        AdmmConfig(theta=0.0, tol=-1.0)
    with pytest.raises(ValueError):
        AdmmConfig(theta=0.0, tol=float("nan"))


# ---------------------------------------------------------- d_c and stops #


def test_system_distortion_dc_exact_cases():
    terms = ZUpdateTerms(chain_symbol(Identity(2), Identity(2)), [1.0, 0.0], 1.0)
    assert system_distortion_dc(terms, [1.0, 0.0]) == 0.0
    assert system_distortion_dc(terms, [0.0, 0.0]) == 0.5


def test_system_distortion_dc_dense_oracle():
    rng = np.random.default_rng(7)
    kernel = rng.normal(size=3)
    a = Compose([Convolution(8, kernel), Subsample(8, 2)])
    b = Replicate(4, 2)
    w = rng.normal(size=4)
    v = rng.normal(size=4)
    expected = float(np.mean((w - dense_matrix(a) @ dense_matrix(b) @ v) ** 2))
    terms = ZUpdateTerms(chain_symbol(a, b), w, 1.0)
    assert abs(system_distortion_dc(terms, v) - expected) <= 1e-12


def test_system_distortion_dc_through_the_symbol_matches_the_operators():
    from sysaware.system_sim import make_blur_subsample_system

    system = make_blur_subsample_system()
    symbol = chain_symbol(system.a, system.b)
    rng = np.random.default_rng(10)
    for _ in range(5):
        w = rng.normal(size=system.a.out_dim)
        v = rng.uniform(size=system.b.in_dim)
        direct = float(((w - system.a.apply(system.b.apply(v))) ** 2).mean())
        spectral = system_distortion_dc(ZUpdateTerms(symbol, w, 1.0), v)
        assert abs(spectral - direct) <= 1e-12 * direct


def test_stopping_at_max_iters():
    cfg = AdmmConfig(theta=0.0, max_iters=7, tol=0.0)
    assert stopping_check(make_state(7, residual=123.0), cfg)
    assert not stopping_check(make_state(6, residual=123.0), cfg)


def test_stopping_on_exact_match():
    cfg = AdmmConfig(theta=0.0, max_iters=100, tol=0.0)
    assert stopping_check(make_state(1, residual=0.0), cfg)


def test_stopping_zero_norm_uses_floor():
    cfg = AdmmConfig(theta=0.0, max_iters=100, tol=1e-4)
    state = make_state(1, residual=1e-33, norm=0.0)
    assert not stopping_check(state, cfg)  # 1e-33 > 1e-4 * 1e-30


def test_stopping_first_crossing_of_scripted_sequence():
    cfg = AdmmConfig(theta=0.0, max_iters=100, tol=1e-2)
    residuals = [1.0, 0.5, 0.2, 0.009, 0.004, 0.02]
    flags = [stopping_check(make_state(t + 1, residual=r), cfg) for t, r in enumerate(residuals)]
    assert flags.index(True) == residuals.index(0.009)
