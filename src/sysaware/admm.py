"""ADMM loop that adapts an off-the-shelf codec to a linear system.

The measurements w live in the codec's domain (length M); the loop alternates
between compressing a shifted signal, re-solving the regularized normal
equations against the acquisition operator A and rendering operator B, and a
scaled dual update. The result is always the blob produced by the final
iteration's compression.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .linops import Compose, LinearMap, circulant_symbol, solve_regularized

__all__ = [
    "AdmmConfig",
    "AdmmState",
    "CodecError",
    "chain_symbol",
    "run",
    "stopping_check",
    "system_distortion_dc",
    "best_distortion_iteration",
    "trace_to_csv",
]

_NORM_FLOOR = 1e-30  # keeps the relative stopping rule meaningful near zero
_UNPROBED = object()  # run's default symbol: probe the chain itself


class CodecError(RuntimeError):
    """The plugged codec failed; ``iteration`` is the ADMM step that called it."""

    def __init__(self, message: str, iteration: int):
        super().__init__(f"{message} (ADMM iteration {iteration})")
        self.iteration = iteration


@dataclass(frozen=True)
class AdmmConfig:
    """Loop parameters.

    theta is passed through to the codec's quality control. beta_tilde weighs
    proximity to the codec output against data fidelity in the z-update; the
    loop stops after max_iters iterations or once the primal residual
    ||v_hat - z_hat|| drops below tol relative to the iterate norms.
    """

    theta: float
    beta_tilde: float = 0.25
    max_iters: int = 40
    tol: float = 1e-4

    def __post_init__(self):
        if not self.beta_tilde > 0:
            raise ValueError("beta_tilde must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol < 0:
            raise ValueError("tol must be non-negative")


@dataclass(frozen=True)
class AdmmState:
    """Snapshot of iteration t. ``u`` is the scaled dual used by this
    iteration (before its update), so consecutive states satisfy
    u[t+1] - u[t] = v_hat[t] - z_hat[t]."""

    t: int
    z_tilde: np.ndarray
    blob: bytes
    v_hat: np.ndarray
    v_tilde: np.ndarray
    z_hat: np.ndarray
    u: np.ndarray
    residual: float
    rate_bits: int
    d_c: float


def system_distortion_dc(w, a: LinearMap, b: LinearMap, v, symbol: np.ndarray | None = None) -> float:
    """Mean squared system error (1/M) * ||w - A(B(v))||^2.

    Given the DFT ``symbol`` of a circulant A(B(.)), as :func:`chain_symbol`
    returns it, A(B(v)) is evaluated on the coded grid as ifft(symbol * fft(v));
    without one, through the operators.
    """
    w = np.asarray(w, dtype=float)
    if symbol is None:
        system_v = a.apply(b.apply(v))
    else:
        system_v = np.fft.ifft(symbol * np.fft.fft(v)).real
    return float(((w - system_v) ** 2).mean())


def chain_symbol(a: LinearMap, b: LinearMap) -> np.ndarray | None:
    """DFT symbol of A(B(.)) on the coded grid, or None when it is not circulant."""
    return circulant_symbol(Compose([b, a]))


def stopping_check(state: AdmmState, cfg: AdmmConfig) -> bool:
    """True when the loop should stop after this state."""
    if state.t >= cfg.max_iters:
        return True
    scale = max(
        float(np.linalg.norm(state.v_hat)),
        float(np.linalg.norm(state.z_hat)),
        _NORM_FLOOR,
    )
    return state.residual <= cfg.tol * scale


def run(
    w, a: LinearMap, b: LinearMap, codec, cfg: AdmmConfig, symbol=_UNPROBED
) -> tuple[bytes, list[AdmmState]]:
    """Compress w so that decoding and rendering through B approximates the
    acquisition inverse of A.

    Starting from z_hat = w and a zero dual, each iteration compresses
    z_tilde = z_hat - u, decompresses to v_hat, solves the regularized normal
    equations for the new z_hat with target v_tilde = v_hat + u, and updates
    u by the primal residual v_hat - z_hat. Returns the final iteration's
    blob and the full iteration trace.

    ``codec`` is any object with compress(signal, theta) -> bytes,
    decompress(bytes) -> signal and rate_bits(bytes) -> int.

    ``symbol`` is what :func:`chain_symbol` returns for (a, b): the DFT symbol
    of A(B(.)), or None when the chain is not circulant. A caller running many
    loops on one chain, as a sweep over theta does, probes once and passes it;
    when it is omitted, run probes the chain once itself. With a symbol, the
    z-update is solved in closed form and the system distortion is evaluated
    through it; with None, the z-update runs conjugate gradients and the
    distortion goes through the operators.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size != a.out_dim:
        raise ValueError(f"w must be a vector of length {a.out_dim}")
    if b.in_dim != w.size:
        raise ValueError(f"B.in_dim must equal len(w)={w.size}, got {b.in_dim}")
    if a.in_dim != b.out_dim:
        raise ValueError(f"A.in_dim={a.in_dim} and B.out_dim={b.out_dim} do not compose")

    m = w.size
    if symbol is _UNPROBED:
        symbol = chain_symbol(a, b)
    z_hat = w.copy()
    u = np.zeros(m)
    trace: list[AdmmState] = []
    blob = b""
    for t in range(1, cfg.max_iters + 1):
        z_tilde = z_hat - u
        try:
            blob = codec.compress(z_tilde, cfg.theta)
            v_hat = np.asarray(codec.decompress(blob), dtype=float)
        except Exception as exc:
            raise CodecError(f"codec failed: {exc}", iteration=t) from exc
        if v_hat.shape != (m,):
            raise CodecError(f"codec returned shape {v_hat.shape}, expected ({m},)", iteration=t)
        v_tilde = v_hat + u
        z_hat = solve_regularized(a, b, w, v_tilde, cfg.beta_tilde, symbol=symbol)
        state = AdmmState(
            t=t,
            z_tilde=z_tilde,
            blob=blob,
            v_hat=v_hat,
            v_tilde=v_tilde,
            z_hat=z_hat.copy(),
            u=u.copy(),
            residual=float(np.linalg.norm(v_hat - z_hat)),
            rate_bits=int(codec.rate_bits(blob)),
            d_c=system_distortion_dc(w, a, b, v_hat, symbol),
        )
        u = u + (v_hat - z_hat)
        trace.append(state)
        if stopping_check(state, cfg):
            break
    return blob, trace


def best_distortion_iteration(trace: list[AdmmState]) -> int:
    """Iteration index with the lowest system distortion (diagnostic only:
    the loop's result is always the last iteration's blob)."""
    if not trace:
        raise ValueError("empty trace")
    return min(trace, key=lambda s: s.d_c).t


def trace_to_csv(trace: list[AdmmState]) -> str:
    out = io.StringIO()
    out.write("t,rate_bits,d_c,residual\n")
    for state in trace:
        out.write(f"{state.t},{state.rate_bits},{state.d_c!r},{state.residual!r}\n")
    return out.getvalue()
