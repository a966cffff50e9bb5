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
    best_distortion_iteration,
    chain_symbol,
    run,
    stopping_check,
    system_distortion_dc,
    trace_to_csv,
)
from sysaware.linops import Compose, Convolution, Identity, Replicate, Subsample
from sysaware.tree_codec import Bitstream, TreeCodecPlug


@dataclass(frozen=True)
class CodecPlug:
    """Codec callables: compress(signal, theta) -> bytes, decompress(bytes) ->
    signal, rate_bits(bytes) -> int. Any object with these attributes works."""

    compress: Callable
    decompress: Callable
    rate_bits: Callable


def make_state(t, residual=0.0, norm=1.0, d_c=0.0):
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
        d_c=d_c,
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
    for state in trace:
        lhs = b.adjoint(a.adjoint(a.apply(b.apply(state.z_hat)))) + beta * state.z_hat
        rhs = b.adjoint(a.adjoint(w)) + beta * state.v_tilde
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)


def test_run_probes_the_chain_once_per_run(monkeypatch):
    probes, closed_form = [], []
    probe, solve = admm.circulant_symbol, admm.solve_regularized

    def counted_probe(op):
        probes.append(op)
        return probe(op)

    def recorded_solve(*args, **kwargs):
        closed_form.append(kwargs.get("symbol") is not None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(admm, "circulant_symbol", counted_probe)
    monkeypatch.setattr(admm, "solve_regularized", recorded_solve)
    w = np.random.default_rng(8).uniform(size=32)
    cfg = AdmmConfig(theta=1e-3, max_iters=3, tol=0.0)
    a = Compose([Convolution(64, [0.25, 0.5, 0.25]), Subsample(64, 2)])
    run(w, a, Replicate(32, 2), TreeCodecPlug(), cfg)
    assert len(probes) == 1 and closed_form == [True] * 3
    # a sample-and-hold stage makes A(B(.)) shift-variant: CG every iteration
    hold = Compose([a, Subsample(32, 2), Replicate(16, 2)])
    probes.clear()
    closed_form.clear()
    run(w, hold, Replicate(32, 2), TreeCodecPlug(), cfg)
    assert len(probes) == 1 and closed_form == [False] * 3


def test_shift_variant_chain_takes_cg_and_the_direct_distortion(monkeypatch):
    symbols, solve_symbols = [], []
    distortion, solve = admm.system_distortion_dc, admm.solve_regularized

    def recorded_distortion(w, a, b, v, symbol=None):
        symbols.append(symbol)
        return distortion(w, a, b, v, symbol)

    def recorded_solve(*args, **kwargs):
        solve_symbols.append(kwargs.get("symbol"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(admm, "system_distortion_dc", recorded_distortion)
    monkeypatch.setattr(admm, "solve_regularized", recorded_solve)
    w = np.random.default_rng(8).uniform(size=32)
    conv = Compose([Convolution(64, [0.25, 0.5, 0.25]), Subsample(64, 2)])
    hold = Compose([conv, Subsample(32, 2), Replicate(16, 2)])
    b = Replicate(32, 2)
    assert chain_symbol(hold, b) is None
    _, trace = run(w, hold, b, TreeCodecPlug(), AdmmConfig(theta=1e-3, max_iters=3, tol=0.0))
    assert symbols == [None] * 3 and solve_symbols == [None] * 3
    for state in trace:
        assert state.d_c == float(((w - hold.apply(b.apply(state.v_hat))) ** 2).mean())


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
    with pytest.raises(ValueError):
        AdmmConfig(theta=0.0, beta_tilde=0.0)
    with pytest.raises(ValueError):
        AdmmConfig(theta=0.0, max_iters=0)
    with pytest.raises(ValueError):
        AdmmConfig(theta=0.0, tol=-1.0)


# ---------------------------------------------------------- d_c and stops #


def test_system_distortion_dc_exact_cases():
    a = Identity(2)
    assert system_distortion_dc([1.0, 0.0], a, a, [1.0, 0.0]) == 0.0
    assert system_distortion_dc([1.0, 0.0], a, a, [0.0, 0.0]) == 0.5


def test_system_distortion_dc_dense_oracle():
    rng = np.random.default_rng(7)
    kernel = rng.normal(size=3)
    a = Compose([Convolution(8, kernel), Subsample(8, 2)])
    b = Replicate(4, 2)
    w = rng.normal(size=4)
    v = rng.normal(size=4)
    # dense route: materialize A and B column by column
    ad = np.column_stack([a.apply(np.eye(8)[:, j]) for j in range(8)])
    bd = np.column_stack([b.apply(np.eye(4)[:, j]) for j in range(4)])
    expected = float(np.mean((w - ad @ bd @ v) ** 2))
    assert abs(system_distortion_dc(w, a, b, v) - expected) <= 1e-12


def test_system_distortion_dc_through_the_symbol_matches_the_operators():
    from sysaware.system_sim import make_blur_subsample_system

    system = make_blur_subsample_system()
    symbol = chain_symbol(system.a, system.b)
    assert symbol is not None
    rng = np.random.default_rng(10)
    for _ in range(5):
        w = rng.normal(size=system.a.out_dim)
        v = rng.uniform(size=system.b.in_dim)
        direct = system_distortion_dc(w, system.a, system.b, v)
        spectral = system_distortion_dc(w, system.a, system.b, v, symbol)
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


# ------------------------------------------------------------ diagnostics #


def test_best_distortion_iteration():
    trace = [make_state(1, d_c=0.5), make_state(2, d_c=0.1), make_state(3, d_c=0.3)]
    assert best_distortion_iteration(trace) == 2
    with pytest.raises(ValueError):
        best_distortion_iteration([])


def test_trace_csv_round_trips():
    rng = np.random.default_rng(8)
    w = rng.uniform(size=16)
    cfg = AdmmConfig(theta=1e-3, max_iters=3, tol=0.0)
    _, trace = run(w, Identity(16), Identity(16), TreeCodecPlug(), cfg)
    lines = trace_to_csv(trace).strip().split("\n")
    assert lines[0] == "t,rate_bits,d_c,residual"
    assert len(lines) == len(trace) + 1
    for line, state in zip(lines[1:], trace):
        t, rate, d_c, residual = line.split(",")
        assert int(t) == state.t
        assert int(rate) == state.rate_bits
        assert float(d_c) == state.d_c
        assert float(residual) == state.residual
