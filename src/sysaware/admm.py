"""ADMM loop that adapts an off-the-shelf codec to a linear system.

The measurements w live in the codec's domain (length M); the loop alternates
between compressing a shifted signal, re-solving the regularized normal
equations against the chain A(B(.)) of the acquisition operator A and the
rendering operator B, and a scaled dual update. The system enters only
through that z-update, which is a closed-form solve on the DFT symbol of the
circulant chain, so the loop takes the symbol and never the operators.
The result is always the blob produced by the final iteration's compression.
What depends only on (symbol, w, beta_tilde) is computed once per run, so
an iteration takes three FFTs: the z-update's forward and inverse, and
fft(v_hat), from which the system distortion follows by Parseval. The
recursion lives in one private generator of each iteration's vectors, and
:func:`run` keeps only scalars per iteration, so a run's memory does not
grow with its iteration count.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .linops import ZUpdateTerms, solve_regularized

__all__ = [
    "AdmmConfig",
    "AdmmState",
    "CodecError",
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
    """Loop settings shared by every point of a sweep.

    beta_tilde weighs proximity to the codec output against data fidelity in
    the z-update; the loop stops after max_iters iterations or once the
    primal residual ||v_hat - z_hat|| drops below tol relative to the
    iterate norms.
    """

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
    """The scalars of iteration t: the primal residual ||v_hat - z_hat||, the
    scale max(||v_hat||, ||z_hat||) the stopping rule weighs it against, the
    codec's rate for the iteration's blob and the system distortion d_c of v_hat."""

    t: int
    residual: float
    scale: float
    rate_bits: int
    d_c: float


# The vectors of iteration t. ``u`` is the scaled dual the iteration used, and
# step = v_hat - z_hat its update, so u[t+1] - u[t] = v_hat[t] - z_hat[t].
_Iterate = namedtuple("_Iterate", "t z_tilde blob v_hat v_tilde z_hat u step")


def system_distortion_dc(terms: ZUpdateTerms, v) -> float:
    """Mean squared system error (1/M) * ||w - A(B(v))||^2.

    A(B(.)) is the circulant chain whose DFT symbol h ``terms`` carries, with
    W = fft(w). By Parseval the error is ||W - h * fft(v)||^2 / M^2, so one
    forward transform of v evaluates it.
    """
    error = terms.w_hat - terms.symbol * np.fft.fft(v)
    return float(np.vdot(error, error).real) / error.size**2


def stopping_check(state: AdmmState, cfg: AdmmConfig) -> bool:
    """True when the loop should stop after this state."""
    if state.t >= cfg.max_iters:
        return True
    return state.residual <= cfg.tol * max(state.scale, _NORM_FLOOR)


def _iterates(w, terms: ZUpdateTerms, codec, theta: float):
    """The ADMM recursion on w and its z-update ``terms``, without end: from
    z_hat = w and u = 0, each iteration compresses z_tilde = z_hat - u,
    decompresses to v_hat, solves the z-update for target v_tilde = v_hat + u,
    yields, and adds the primal residual step = v_hat - z_hat to u."""
    m = terms.symbol.size
    z_hat, u = np.asarray(w, dtype=float).copy(), np.zeros(m)
    for t in itertools.count(1):
        z_tilde = z_hat - u
        try:
            blob = codec.compress(z_tilde, theta)
            v_hat = np.asarray(codec.decompress(blob), dtype=float)
        except Exception as exc:
            raise CodecError(f"codec failed: {exc}", iteration=t) from exc
        if v_hat.shape != (m,):
            raise CodecError(f"codec returned shape {v_hat.shape}, expected ({m},)", iteration=t)
        v_tilde = v_hat + u
        z_hat = solve_regularized(terms, v_tilde)
        step = v_hat - z_hat
        yield _Iterate(t, z_tilde, blob, v_hat, v_tilde, z_hat, u, step)
        u = u + step


def run(
    w, symbol: np.ndarray, codec, theta: float, cfg: AdmmConfig
) -> tuple[bytes, list[AdmmState]]:
    """Compress w so that decoding and rendering through B approximates the
    acquisition inverse of A: run the ``_iterates`` recursion until
    :func:`stopping_check` stops it, and return the final iteration's blob
    and one :class:`AdmmState` of scalars per iteration.

    ``symbol`` is the DFT symbol of A(B(.)), as
    :attr:`~sysaware.system_sim.SystemModel.symbol` holds it; every z-update
    is solved and every system distortion evaluated through it. ``codec`` is
    any object with compress(signal, theta) -> bytes, decompress(bytes) ->
    signal and rate_bits(bytes) -> int, and ``theta`` is passed through to
    its compress. A w that is not a vector of the symbol's length raises
    ValueError before the codec is first called.
    """
    terms = ZUpdateTerms(symbol, w, cfg.beta_tilde)
    trace: list[AdmmState] = []
    for it in _iterates(w, terms, codec, theta):
        # sqrt(x @ x) is numpy's 1-D norm bit for bit, and sqrt is monotone
        state = AdmmState(
            t=it.t,
            residual=math.sqrt(it.step @ it.step),
            scale=math.sqrt(max(it.v_hat @ it.v_hat, it.z_hat @ it.z_hat)),
            rate_bits=int(codec.rate_bits(it.blob)),
            d_c=system_distortion_dc(terms, it.v_hat),
        )
        trace.append(state)
        if stopping_check(state, cfg):
            return it.blob, trace
