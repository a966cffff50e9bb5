"""ADMM loop that adapts an off-the-shelf codec to a linear system.

The measurements w live in the codec's domain (length M); the loop alternates
between compressing a shifted signal, re-solving the regularized normal
equations against the chain A(B(.)) of the acquisition operator A and the
rendering operator B, and a scaled dual update. The system enters only
through that z-update, which lives here (:class:`ZUpdateTerms`,
:func:`solve_regularized`): a closed-form solve on the DFT symbol of the
circulant chain, so the loop takes the symbol and never the operators. A
vector of the wrong shape raises :class:`DimensionMismatchError`.
The result is always the blob produced by the final iteration's compression.
What depends only on (symbol, w, beta_tilde) is computed once per run, so
an iteration takes three FFTs: the z-update's forward and inverse, and
fft(v_hat), from which the system distortion follows by Parseval.
:func:`run` is the loop; it keeps only the current iteration's vectors,
scalars per iteration and, for the repeat stop, the bytes of every distinct
blob until it returns.

Every run stops for one of four reasons, checked after each iteration in
this order, and :func:`run` returns the first that holds as its label:

- ``converged``: the primal residual ||v_hat - z_hat|| is at most ``tol``
  times max(||v_hat||, ||z_hat||) (Boyd et al., 2011, section 3.3);
- ``repeat``: the codec returned a blob it had already returned in this run;
- ``stall``: the relative residual has not improved on its best for
  ``_STALL_WINDOW`` iterations;
- ``max_iters``: the cap.

The codec's outputs form a finite set, so the residual rule alone cannot
fire when the iterates cycle between a few blobs or wander without settling.
The repeat stop is a heuristic, not a proof of a cycle: the dual u still
moves, so the recursion need not come back to the same state, and the stop
is named for what it sees.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AdmmConfig",
    "AdmmState",
    "CodecError",
    "DimensionMismatchError",
    "ZUpdateTerms",
    "run",
    "solve_regularized",
    "stopping_check",
    "system_distortion_dc",
    "vector_of_length",
]

_NORM_FLOOR = 1e-30  # keeps the relative stopping rule meaningful near zero
# Iterations without a new best relative residual before the stall stop. On
# the default sweep at seed 1234, windows 3, 4, 5 and 6 take 31, 32, 33 and 34
# iterations; each keeps every acceptance-1 margin and leaves no proposed
# point dominated at seeds 0-39, so the choice is not sensitive.
_STALL_WINDOW = 5


class DimensionMismatchError(ValueError):
    """A vector's length, or its shape when it is not 1-D, does not match
    what the operation expects."""

    def __init__(self, what: str, expected: int, actual: int | tuple):
        got = f"shape {actual}" if isinstance(actual, tuple) else actual
        super().__init__(f"{what}: expected length {expected}, got {got}")
        self.expected = expected
        self.actual = actual


def vector_of_length(x, size: int, what: str) -> np.ndarray:
    """``x`` as a float vector of ``size`` samples; any other shape raises
    :class:`DimensionMismatchError` naming ``what``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (size,):
        raise DimensionMismatchError(what, size, x.size if x.ndim == 1 else x.shape)
    return x


class ZUpdateTerms:
    """The z-update's terms fixed through an ADMM run: W = fft(w), conj(h) * W and
    |h|^2 + beta_tilde, for the DFT symbol h of the circulant chain H = A(B(.)),
    the measurements w and the proximity weight beta_tilde, both checked here."""

    def __init__(self, symbol: np.ndarray, w, beta_tilde: float):
        w = vector_of_length(w, symbol.size, "ZUpdateTerms: w")
        self.symbol, self.beta = symbol, float(beta_tilde)
        if not 0 < self.beta < np.inf:  # also rejects NaN
            raise ValueError("beta_tilde must be positive and finite")
        self.w_hat = np.fft.fft(w)
        self.data = np.conj(symbol) * self.w_hat
        self.denominator = np.abs(symbol) ** 2 + self.beta


def solve_regularized(terms: ZUpdateTerms, v_tilde) -> np.ndarray:
    """Solve (H^T H + beta_tilde I) z = H^T w + beta_tilde v_tilde for z, with H, w
    and beta_tilde those of ``terms``. The system is diagonal in the DFT domain,
    (|h|^2 + beta_tilde) z_k = conj(h_k) w_k + beta_tilde v_k, so two FFTs solve it."""
    v_tilde = vector_of_length(v_tilde, terms.symbol.size, "solve_regularized: v_tilde")
    zf = terms.data + terms.beta * np.fft.fft(v_tilde)
    return np.fft.ifft(zf / terms.denominator).real


class CodecError(RuntimeError):
    """The plugged codec failed; ``iteration`` is the ADMM step that called it."""

    def __init__(self, message: str, iteration: int):
        super().__init__(f"{message} (ADMM iteration {iteration})")
        self.iteration = iteration


@dataclass(frozen=True)
class AdmmConfig:
    """Loop settings shared by every point of a sweep.

    beta_tilde weighs proximity to the codec output against data fidelity in
    the z-update; max_iters and tol set the ``max_iters`` and ``converged``
    stops of the module docstring. A max_iters that is a bool or not an
    integer raises ValueError.
    """

    beta_tilde: float = 0.25
    max_iters: int = 40
    # the relative primal residual plateaus near 1e-2 on the reference system;
    # iterating past the plateau only refits measurement noise
    tol: float = 2e-2

    def __post_init__(self):
        if not 0 < self.beta_tilde < math.inf:  # also rejects NaN
            raise ValueError("beta_tilde must be positive and finite")
        if not isinstance(self.max_iters, numbers.Integral) or isinstance(self.max_iters, bool):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
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


def system_distortion_dc(terms: ZUpdateTerms, v) -> float:
    """Mean squared system error (1/M) * ||w - A(B(v))||^2.

    A(B(.)) is the circulant chain whose DFT symbol h ``terms`` carries, with
    W = fft(w). By Parseval the error is ||W - h * fft(v)||^2 / M^2, so one
    forward transform of v evaluates it.
    """
    error = terms.w_hat - terms.symbol * np.fft.fft(v)
    return float(np.vdot(error, error).real) / error.size**2


def _converged(state: AdmmState, cfg: AdmmConfig) -> bool:
    return state.residual <= cfg.tol * max(state.scale, _NORM_FLOOR)


def stopping_check(state: AdmmState, cfg: AdmmConfig) -> bool:
    """True when the residual stop or the cap ends the loop after this state.
    The repeat and stall stops need the run's history, so :func:`run` applies
    them."""
    return state.t >= cfg.max_iters or _converged(state, cfg)


def run(
    w, symbol: np.ndarray, codec, theta: float, cfg: AdmmConfig
) -> tuple[bytes, list[AdmmState], str]:
    """Compress w so that decoding and rendering through B approximates the
    acquisition inverse of A. From z_hat = w and u = 0, each iteration
    compresses z_tilde = z_hat - u, decompresses to v_hat, solves the z-update
    for target v_hat + u, checks the stops of the module docstring and adds
    the primal residual step v_hat - z_hat to u. Return the final
    iteration's blob, one :class:`AdmmState` of scalars per iteration, and
    the stop's label.

    ``symbol`` is the DFT symbol of A(B(.)), as
    :attr:`~sysaware.system_sim.SystemModel.symbol` holds it; every z-update
    is solved and every system distortion evaluated through it. ``codec`` is
    any object with compress(signal, theta) -> bytes, decompress(bytes) ->
    signal and rate_bits(bytes) -> int, and ``theta`` is passed through to
    its compress. A w that is not a vector of the symbol's length raises
    ValueError before the codec is first called.
    """
    terms = ZUpdateTerms(symbol, w, cfg.beta_tilde)
    m = symbol.size
    z_hat, u = np.asarray(w, dtype=float), np.zeros(m)
    trace: list[AdmmState] = []
    seen: set[bytes] = set()
    best, since_best = math.inf, 0
    for t in itertools.count(1):
        z_tilde = z_hat - u
        try:
            blob = codec.compress(z_tilde, theta)
            v_hat = np.asarray(codec.decompress(blob), dtype=float)
        except Exception as exc:
            raise CodecError(f"codec failed: {exc}", iteration=t) from exc
        if v_hat.shape != (m,):
            raise CodecError(f"codec returned shape {v_hat.shape}, expected ({m},)", iteration=t)
        z_hat = solve_regularized(terms, v_hat + u)
        step = v_hat - z_hat
        # sqrt(x @ x) is numpy's norm bit for bit except on z_hat, a strided view; sqrt is monotone
        state = AdmmState(
            t=t,
            residual=math.sqrt(step @ step),
            scale=math.sqrt(max(v_hat @ v_hat, z_hat @ z_hat)),
            rate_bits=int(codec.rate_bits(blob)),
            d_c=system_distortion_dc(terms, v_hat),
        )
        trace.append(state)
        relative = state.residual / max(state.scale, _NORM_FLOOR)
        if relative < best:
            best, since_best = relative, 0
        else:
            since_best += 1
        if _converged(state, cfg):
            return blob, trace, "converged"
        if blob in seen:
            return blob, trace, "repeat"
        if since_best >= _STALL_WINDOW:
            return blob, trace, "stall"
        if t >= cfg.max_iters:
            return blob, trace, "max_iters"
        seen.add(blob)
        u += step
