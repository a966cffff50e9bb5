"""Tests for the codec-in-the-loop ADMM driver."""

import itertools
import tracemalloc
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from sysaware import admm, tree_codec
from sysaware.admm import (
    AdmmConfig,
    AdmmState,
    CodecError,
    ZUpdateTerms,
    run,
    stopping_check,
    system_distortion_dc,
)
from sysaware.system_sim import gaussian_kernel
from sysaware.tree_codec import Bitstream, TreeCodecPlug

from oracles import (
    Compose,
    Convolution,
    Identity,
    Replicate,
    Subsample,
    circulant_symbol,
    dense_matrix,
    system_chain,
    z_update_reference,
)


@dataclass(frozen=True)
class CodecPlug:
    """Codec callables: compress(signal, theta) -> bytes, decompress(bytes) ->
    signal, rate_bits(bytes) -> int. Any object with these attributes works."""

    compress: Callable
    decompress: Callable
    rate_bits: Callable


def chain_symbol(a, b):
    """The DFT symbol of the operator chain A(B(.)), probed by the oracle; a
    chain that does not close or is not circulant raises ValueError."""
    symbol = circulant_symbol(Compose([b, a]))
    if symbol is None:
        raise ValueError("A(B(.)) is not circulant on the coded grid, so the z-update has no solve")
    return symbol


def make_state(t, residual=0.0, norm=1.0):
    return AdmmState(t=t, residual=residual, scale=norm, rate_bits=8, d_c=0.0)


def iterates(w, symbol, codec, theta, cfg, count):
    """The first ``count`` iterations' vectors of the recursion ``run`` consumes."""
    terms = ZUpdateTerms(symbol, w, cfg.beta_tilde)
    return list(itertools.islice(admm._iterates(w, terms, codec, theta), count))


# -------------------------------------------------------------------- run #


def test_identity_reduction_is_byte_exact():
    rng = np.random.default_rng(0)
    w = rng.uniform(size=64)
    codec = TreeCodecPlug()
    symbol = chain_symbol(Identity(64), Identity(64))
    blob, trace, _ = run(w, symbol, codec, 1e-3, AdmmConfig(max_iters=1))
    assert blob == codec.compress(w, 1e-3)
    assert len(trace) == 1
    (first,) = iterates(w, symbol, TreeCodecPlug(), 1e-3, AdmmConfig(), 1)
    assert first.blob == blob
    assert np.array_equal(first.z_tilde, w)
    assert np.array_equal(first.u, np.zeros(64))


def test_huge_beta_pins_z_to_codec_output():
    rng = np.random.default_rng(2)
    w = rng.uniform(size=32)
    a = Convolution(32, [0.25, 0.5, 0.25])
    cfg = AdmmConfig(beta_tilde=1e8, max_iters=2, tol=0.0)
    _, trace, _ = run(w, chain_symbol(a, Identity(32)), TreeCodecPlug(), 1e-3, cfg)
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
    cfg = AdmmConfig(max_iters=3, tol=0.0)
    blob, trace, _ = run(w, chain_symbol(a, Replicate(32, 2)), TreeCodecPlug(), 1e-3, cfg)
    assert len(trace) == 3
    assert parses == []
    assert trace[-1].rate_bits == original(blob).reported_rate_bits


def test_returns_last_iteration_blob():
    rng = np.random.default_rng(3)
    w = rng.uniform(size=32)
    a = Convolution(32, [0.2, 0.6, 0.2])
    cfg = AdmmConfig(max_iters=6, tol=0.0)
    symbol = chain_symbol(a, Identity(32))
    blob, trace, _ = run(w, symbol, TreeCodecPlug(), 2e-3, cfg)
    assert len(trace) == 6
    assert blob == iterates(w, symbol, TreeCodecPlug(), 2e-3, cfg, 6)[-1].blob


def test_dual_update_is_exact():
    rng = np.random.default_rng(4)
    w = rng.uniform(size=32)
    a = Compose([Convolution(64, [0.25, 0.5, 0.25]), Subsample(64, 2)])
    b = Replicate(32, 2)
    cfg = AdmmConfig(max_iters=8, tol=0.0)
    vectors = iterates(w, chain_symbol(a, b), TreeCodecPlug(), 1e-3, cfg, cfg.max_iters)
    assert len(vectors) >= 2
    for prev, cur in zip(vectors, vectors[1:]):
        assert np.array_equal(cur.u, prev.u + (prev.v_hat - prev.z_hat))


def test_z_update_satisfies_normal_equations():
    rng = np.random.default_rng(5)
    a = Compose([Convolution(64, [0.25, 0.5, 0.25]), Subsample(64, 2)])
    b = Replicate(32, 2)
    w = rng.uniform(size=32)
    cfg = AdmmConfig(max_iters=4, tol=0.0)
    vectors = iterates(w, chain_symbol(a, b), TreeCodecPlug(), 1e-3, cfg, cfg.max_iters)
    beta = cfg.beta_tilde
    h = dense_matrix(a) @ dense_matrix(b)
    for it in vectors:
        lhs = h.T @ (h @ it.z_hat) + beta * it.z_hat
        rhs = h.T @ w + beta * it.v_tilde
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)


def default_chain_measurements():
    from sysaware.system_sim import acquire, make_blur_subsample_system, make_chirp

    system = make_blur_subsample_system()
    return system, acquire(make_chirp(1024), system)


def test_run_probes_the_chain_once_per_run(monkeypatch):
    symbols = []
    solve = admm.solve_regularized

    def recorded_solve(terms, *args):
        symbols.append(terms.symbol)
        return solve(terms, *args)

    monkeypatch.setattr(admm, "solve_regularized", recorded_solve)
    # the SystemModel builds its symbol once, when it is built
    system, w = default_chain_measurements()
    _, trace, _ = run(w, system.symbol, TreeCodecPlug(), 1e-3, AdmmConfig(max_iters=3, tol=0.0))
    assert len(trace) == 3 and len(symbols) == 3
    assert all(symbol is system.symbol for symbol in symbols)


def test_run_z_hat_is_bitwise_the_one_expression_z_update():
    system, w = default_chain_measurements()
    cfg = AdmmConfig()
    for theta in (1e-4, 1e-2):
        _, trace, _ = run(w, system.symbol, TreeCodecPlug(), theta, cfg)
        vectors = iterates(w, system.symbol, TreeCodecPlug(), theta, cfg, len(trace))
        for state, it in zip(trace, vectors, strict=True):
            expected = z_update_reference(system.symbol, w, it.v_tilde, cfg.beta_tilde)
            assert it.z_hat.tobytes() == expected.tobytes(), (theta, state.t)
            assert state.residual == float(np.linalg.norm(it.v_hat - it.z_hat))
            norms = (np.linalg.norm(it.v_hat), np.linalg.norm(it.z_hat), 1e-30)
            converged = state.residual <= cfg.tol * float(max(norms))
            assert stopping_check(state, cfg) == (state.t >= cfg.max_iters or converged)


def test_run_given_its_symbol_takes_three_transforms_per_iteration(monkeypatch):
    system, w = default_chain_measurements()
    calls = []
    for name in ("fft", "ifft"):

        def counted(*args, _name=name, _transform=getattr(np.fft, name), **kwargs):
            calls.append(_name)
            return _transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    _, trace, _ = run(w, system.symbol, TreeCodecPlug(), 1e-3, AdmmConfig())
    # fft(w) once per run; per iteration the solve's fft and ifft, and fft(v_hat) for d_c
    assert len(calls) == 3 * len(trace) + 1
    assert calls.count("ifft") == len(trace)


def test_run_analyzes_every_new_z_tilde_with_tree_codec_plug(monkeypatch):
    analyzed = []
    original = tree_codec._analyze

    def counting(w, *args):
        analyzed.append(w.tobytes())
        return original(w, *args)

    monkeypatch.setattr(tree_codec, "_analyze", counting)
    system, w = default_chain_measurements()
    blob, trace, _ = run(w, system.symbol, TreeCodecPlug(), 1e-3, AdmmConfig())
    in_run = analyzed[:]
    analyzed.clear()
    vectors = iterates(w, system.symbol, TreeCodecPlug(), 1e-3, AdmmConfig(), len(trace))
    signals = [it.z_tilde.tobytes() for it in vectors]
    # the plug reuses an analysis only for the bytes it was made from
    new = [z for i, z in enumerate(signals) if i == 0 or z != signals[i - 1]]
    assert in_run == analyzed == new
    assert len(new) == len(trace) > 1
    assert blob == tree_codec.encode(vectors[-1].z_tilde, 1e-3).to_bytes()


def test_run_memory_does_not_grow_with_its_iterations(monkeypatch):
    from sysaware.system_sim import acquire, make_blur_subsample_system, make_chirp

    # this run stalls at t = 8; a window past the cap lets it reach 10 and 40
    # iterations (it repeats no blob on the way)
    monkeypatch.setattr(admm, "_STALL_WINDOW", 41)
    system = make_blur_subsample_system(n=1 << 16)
    w = acquire(make_chirp(1 << 16), system)
    vector_bytes = w.nbytes  # one M-vector, M = 2**14
    # a first run fills the per-shape caches the codec keeps for the process
    run(w, system.symbol, TreeCodecPlug(), 1e-3, AdmmConfig(max_iters=2, tol=0.0))
    retained, peak = {}, {}
    for max_iters in (10, 40):
        cfg = AdmmConfig(max_iters=max_iters, tol=0.0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            blob, trace, _ = run(w, system.symbol, TreeCodecPlug(), 1e-3, cfg)
            after, high = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace) == max_iters
        retained[max_iters], peak[max_iters] = after - before, high - before
    # what outlives the run is its blob and a trace of scalars
    assert max(retained.values()) < vector_bytes, (retained, len(blob))
    assert peak[40] - peak[10] < vector_bytes, peak


def stub_codec(compress, decompress=None):
    """A codec of ``compress`` whose decompress is all zeros unless given."""
    return CodecPlug(
        compress=compress,
        decompress=decompress or (lambda blob: np.zeros(16)),
        rate_bits=lambda blob: 8 * len(blob),
    )


def test_run_stops_on_a_repeated_blob_and_returns_it():
    w = np.random.default_rng(20).uniform(size=16)
    codec = stub_codec(lambda signal, theta: b"same")
    blob, trace, stop = run(w, chain_symbol(Identity(16), Identity(16)), codec, 0.0, AdmmConfig())
    assert (blob, len(trace), stop) == (b"same", 2, "repeat")


def test_run_stops_when_the_residual_stalls(monkeypatch):
    # new blobs that all decode to zero, and a z-update pinned to ones: the
    # relative residual ||z_hat|| / ||z_hat|| is exactly 1 at every
    # iteration, so it improves only at t = 1
    monkeypatch.setattr(admm, "solve_regularized", lambda terms, v_tilde: np.ones(16))
    blobs = itertools.count(1)
    codec = stub_codec(lambda signal, theta: str(next(blobs)).encode())
    w = np.random.default_rng(21).uniform(size=16)
    blob, trace, stop = run(w, chain_symbol(Identity(16), Identity(16)), codec, 0.0, AdmmConfig())
    assert (len(trace), stop) == (1 + admm._STALL_WINDOW, "stall")
    assert blob == str(len(trace)).encode()
    assert {state.residual / state.scale for state in trace} == {1.0}


def test_run_stops_converged_when_the_codec_is_exact():
    w = np.random.default_rng(22).uniform(size=16)
    codec = stub_codec(lambda signal, theta: signal.tobytes(), lambda blob: np.frombuffer(blob))
    symbol = chain_symbol(Identity(16), Identity(16))
    # the residual stop is checked first, so it also names a stop at the cap
    for cfg in (AdmmConfig(), AdmmConfig(max_iters=1)):
        blob, trace, stop = run(w, symbol, codec, 0.0, cfg)
        assert (blob, len(trace), stop) == (w.tobytes(), 1, "converged")


def test_run_stops_at_the_cap():
    system, w = default_chain_measurements()
    _, trace, stop = run(w, system.symbol, TreeCodecPlug(), 1e-2, AdmmConfig(max_iters=1))
    assert (len(trace), stop) == (1, "max_iters")
    assert not trace[0].residual <= 0.02 * trace[0].scale
    # the repeat stop is checked before the cap
    codec = stub_codec(lambda signal, theta: b"same")
    w = np.random.default_rng(23).uniform(size=16)
    symbol = chain_symbol(Identity(16), Identity(16))
    assert run(w, symbol, codec, 0.0, AdmmConfig(max_iters=2))[2] == "repeat"


def test_non_circulant_chain_raises_before_any_codec_call():
    conv = Compose([Convolution(64, [0.25, 0.5, 0.25]), Subsample(64, 2)])
    # a sample-and-hold stage makes A(B(.)) shift-variant
    hold = Compose([conv, Subsample(32, 2), Replicate(16, 2)])
    b = Replicate(32, 2)
    assert circulant_symbol(Compose([b, hold])) is None
    # run takes a symbol, so a chain without one is rejected before any codec
    # call; a SystemModel cannot express such a chain at all
    with pytest.raises(ValueError, match="not circulant"):
        chain_symbol(hold, b)


def test_chirp_loop_terminates_and_stays_bounded():
    from sysaware.system_sim import acquire, make_blur_subsample_system, make_chirp

    x = make_chirp(1024)
    system = make_blur_subsample_system()
    w = acquire(x, system)
    blob, trace, _ = run(w, system.symbol, TreeCodecPlug(), 1e-3, AdmmConfig())
    assert 1 <= len(trace) <= 40
    vectors = iterates(w, system.symbol, TreeCodecPlug(), 1e-3, AdmmConfig(), len(trace))
    assert blob == vectors[-1].blob
    bound = 1e3 * np.linalg.norm(w)
    for state, it in zip(trace, vectors, strict=True):
        assert np.isfinite(state.residual)
        for vec in (it.z_tilde, it.v_hat, it.v_tilde, it.z_hat, it.u):
            assert np.linalg.norm(vec) <= bound


def test_run_rejects_inconsistent_dimensions():
    compressed = []

    class Counting(TreeCodecPlug):
        def compress(self, signal, theta):
            compressed.append(theta)
            return super().compress(signal, theta)

    cfg = AdmmConfig()
    symbol = chain_symbol(Identity(4), Identity(4))
    with pytest.raises(ValueError):
        run(np.zeros(8), symbol, Counting(), 0.0, cfg)  # len(w) != len(symbol)
    with pytest.raises(ValueError):
        run(np.zeros((2, 2)), symbol, Counting(), 0.0, cfg)  # w is not a vector
    assert compressed == []
    with pytest.raises(ValueError):
        chain_symbol(Identity(4), Replicate(4, 2))  # A.in != B.out
    with pytest.raises(ValueError):
        chain_symbol(Subsample(8, 2), Identity(8))  # B.in != A.out


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
    symbol = chain_symbol(Identity(16), Identity(16))
    cfg = AdmmConfig(max_iters=5, tol=0.0)
    for fail_at in (1, 2):
        with pytest.raises(CodecError) as err:
            run(w, symbol, Flaky(fail_at), 1e-3, cfg)
        assert err.value.iteration == fail_at


def test_codec_bad_shape_is_reported():
    codec = CodecPlug(
        compress=lambda s, theta: b"x",
        decompress=lambda blob: np.zeros(3),
        rate_bits=lambda blob: 8,
    )
    with pytest.raises(CodecError) as err:
        run(np.zeros(4), chain_symbol(Identity(4), Identity(4)), codec, 0.0, AdmmConfig())
    assert err.value.iteration == 1


def test_config_validation():
    for beta in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="beta_tilde must be positive and finite"):
            AdmmConfig(beta_tilde=beta)
    with pytest.raises(ValueError):
        AdmmConfig(max_iters=0)
    with pytest.raises(ValueError):
        AdmmConfig(tol=-1.0)
    with pytest.raises(ValueError):
        AdmmConfig(tol=float("nan"))


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
    a, b = system_chain(1024, gaussian_kernel(), 4)
    rng = np.random.default_rng(10)
    for _ in range(5):
        w = rng.normal(size=a.out_dim)
        v = rng.uniform(size=b.in_dim)
        direct = float(((w - a.apply(b.apply(v))) ** 2).mean())
        spectral = system_distortion_dc(ZUpdateTerms(system.symbol, w, 1.0), v)
        assert abs(spectral - direct) <= 1e-12 * direct


def test_stopping_at_max_iters():
    cfg = AdmmConfig(max_iters=7, tol=0.0)
    assert stopping_check(make_state(7, residual=123.0), cfg)
    assert not stopping_check(make_state(6, residual=123.0), cfg)


def test_stopping_on_exact_match():
    cfg = AdmmConfig(max_iters=100, tol=0.0)
    assert stopping_check(make_state(1, residual=0.0), cfg)


def test_stopping_zero_norm_uses_floor():
    cfg = AdmmConfig(max_iters=100, tol=1e-4)
    state = make_state(1, residual=1e-33, norm=0.0)
    assert not stopping_check(state, cfg)  # 1e-33 > 1e-4 * 1e-30


def test_stopping_first_crossing_of_scripted_sequence():
    cfg = AdmmConfig(max_iters=100, tol=1e-2)
    residuals = [1.0, 0.5, 0.2, 0.009, 0.004, 0.02]
    flags = [stopping_check(make_state(t + 1, residual=r), cfg) for t, r in enumerate(residuals)]
    assert flags.index(True) == residuals.index(0.009)
