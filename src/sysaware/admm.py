"""ADMM loop that adapts an off-the-shelf codec to a linear system.

The measurements w live in the codec's domain (length M); the loop alternates
between compressing a shifted signal, re-solving the regularized normal
equations against the chain A(B(.)) of the acquisition operator A and the
rendering operator B, and a scaled dual update. That chain must be circulant
on the coded grid: its DFT symbol makes the z-update a closed-form solve.
The result is always the blob produced by the final iteration's compression.
What depends only on (A(B(.)), w, beta_tilde) is computed once per run, so
an iteration takes three FFTs: the z-update's forward and inverse, and
fft(v_hat), from which the system distortion follows by Parseval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linops import Compose, LinearMap, ZUpdateTerms, circulant_symbol, solve_regularized

__all__ = [
    "AdmmConfig",
    "AdmmState",
    "CodecError",
    "chain_symbol",
    "run",
    "stopping_check",
    "system_distortion_dc",
]

_NORM_FLOOR = 1e-30  # keeps the relative stopping rule meaningful near zero


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
    # the relative primal residual plateaus near 1e-2 on the reference system;
    # iterating past the plateau only refits measurement noise
    tol: float = 2e-2

    def __post_init__(self):
        if not 0 < self.beta_tilde < math.inf:  # also rejects NaN
            raise ValueError("beta_tilde must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.tol >= 0:
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


def system_distortion_dc(terms: ZUpdateTerms, v) -> float:
    """Mean squared system error (1/M) * ||w - A(B(v))||^2.

    A(B(.)) is the circulant chain whose DFT symbol h ``terms`` carries, with
    W = fft(w). By Parseval the error is ||W - h * fft(v)||^2 / M^2, so one
    forward transform of v evaluates it.
    """
    error = terms.w_hat - terms.symbol * np.fft.fft(v)
    return float(np.vdot(error, error).real) / error.size**2


def chain_symbol(a: LinearMap, b: LinearMap) -> np.ndarray:
    """DFT symbol of A(B(.)) on the coded grid.

    Raises ValueError when the chain is not circulant, since the z-update
    has no solve for it.
    """
    symbol = circulant_symbol(Compose([b, a]))
    if symbol is None:
        raise ValueError("A(B(.)) is not circulant on the coded grid, so the z-update has no solve")
    return symbol


def stopping_check(state: AdmmState, cfg: AdmmConfig) -> bool:
    """True when the loop should stop after this state."""
    if state.t >= cfg.max_iters:
        return True
    # sqrt(x @ x) is numpy's 1-D norm bit for bit, and sqrt is monotone
    scale = math.sqrt(max(state.v_hat @ state.v_hat, state.z_hat @ state.z_hat))
    return state.residual <= cfg.tol * max(scale, _NORM_FLOOR)


def run(
    w, a: LinearMap, b: LinearMap, codec, cfg: AdmmConfig, symbol: np.ndarray | None = None
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
    of A(B(.)), through which every z-update is solved in closed form and
    every system distortion is evaluated. A caller running many loops on one
    chain, as a sweep over theta does, probes once and passes it; when it is
    None, run probes the chain itself, and a chain that is not circulant
    raises ValueError before the codec is first called.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size != a.out_dim:
        raise ValueError(f"w must be a vector of length {a.out_dim}")
    if b.in_dim != w.size:
        raise ValueError(f"B.in_dim must equal len(w)={w.size}, got {b.in_dim}")
    if a.in_dim != b.out_dim:
        raise ValueError(f"A.in_dim ({a.in_dim}) and B.out_dim ({b.out_dim}) do not compose")

    m = w.size
    if symbol is None:
        symbol = chain_symbol(a, b)
    terms = ZUpdateTerms(symbol, w, cfg.beta_tilde)
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
        z_hat = solve_regularized(terms, v_tilde)
        step = v_hat - z_hat
        state = AdmmState(
            t=t,
            z_tilde=z_tilde,
            blob=blob,
            v_hat=v_hat,
            v_tilde=v_tilde,
            z_hat=z_hat,
            u=u,
            residual=math.sqrt(step @ step),
            rate_bits=int(codec.rate_bits(blob)),
            d_c=system_distortion_dc(terms, v_hat),
        )
        u = u + step
        trace.append(state)
        if stopping_check(state, cfg):
            break
    return blob, trace

