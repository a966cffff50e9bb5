"""Rate-distortion theory for Gaussian sources seen through circulant systems.

The source x has independent DFT-domain variances lambda_x; acquisition and
rendering act as pointwise frequency responses a_f and b_f. Bins where a_f is
nonzero but b_f vanishes are unrecoverable and contribute a distortion floor;
on the joint support, coding the pseudoinverse-filtered measurements reduces
to reverse water-filling against the weighted variances |a_k b_k|^2 *
lambda_w_tilde_k. Rates are in nats internally and converted to bits only at
the reporting boundary.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpectralModel",
    "SpectralAllocation",
    "CurvePoint",
    "expected_min_distortion",
    "water_fill",
    "theoretical_rd_curve",
    "curve_to_csv",
]

_THETA_FLOOR = 1e-15  # rate evaluation floor when the water level hits zero


@dataclass(frozen=True)
class SpectralModel:
    """Source variances and system responses, all indexed by DFT bin.

    Derived arrays: ``gain`` = |a_f * b_f|^2, ``k_ab`` marks bins where both
    responses are nonzero, ``lambda_w`` = |a_f|^2 * lambda_x, and
    ``lambda_w_tilde`` = lambda_w / gain on ``k_ab`` (zero elsewhere).
    """

    n: int
    lambda_x: np.ndarray
    a_f: np.ndarray
    b_f: np.ndarray
    gain: np.ndarray = field(init=False)
    k_ab: np.ndarray = field(init=False)
    lambda_w: np.ndarray = field(init=False)
    lambda_w_tilde: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        lam = np.asarray(self.lambda_x, dtype=float)
        a_f = np.asarray(self.a_f, dtype=complex)
        b_f = np.asarray(self.b_f, dtype=complex)
        if not (lam.shape == a_f.shape == b_f.shape == (self.n,)):
            raise ValueError(f"lambda_x, a_f, b_f must all have shape ({self.n},)")
        for name, values in (("lambda_x", lam), ("a_f", a_f), ("b_f", b_f)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite")
        if np.any(lam < 0):
            raise ValueError("lambda_x must be non-negative")
        object.__setattr__(self, "lambda_x", lam)
        object.__setattr__(self, "a_f", a_f)
        object.__setattr__(self, "b_f", b_f)
        gain = np.abs(a_f * b_f) ** 2
        k_ab = (a_f != 0) & (b_f != 0)
        lambda_w = np.abs(a_f) ** 2 * lam
        tilde = np.zeros(self.n)
        np.divide(lambda_w, gain, out=tilde, where=k_ab)
        object.__setattr__(self, "gain", gain)
        object.__setattr__(self, "k_ab", k_ab)
        object.__setattr__(self, "lambda_w", lambda_w)
        object.__setattr__(self, "lambda_w_tilde", tilde)


@dataclass(frozen=True)
class SpectralAllocation:
    """Per-bin distortions and rates from reverse water-filling.

    ``total_distortion`` is the weighted sum over bins, sum_k |a_k b_k|^2 D_k
    (the constraint target N*D); ``total_rate`` is sum_k R_k in nats.
    ``clamped`` flags a request beyond the zero-rate saturation point;
    ``rate_floored`` flags rates evaluated at the theta floor (theta ~ 0, so
    the exact rates are unbounded).
    """

    d_k: np.ndarray
    r_k: np.ndarray
    theta: float
    total_distortion: float
    total_rate: float
    clamped: bool = False
    rate_floored: bool = False


@dataclass(frozen=True)
class CurvePoint:
    d: float
    total_distortion: float
    rate_bits_per_sample: float
    theta: float


def expected_min_distortion(model: SpectralModel) -> float:
    """Distortion floor from bins the rendering operator cannot reach:
    (1/N) * sum |a_k|^2 lambda_x_k over {k : a_k != 0, b_k = 0}."""
    lost = (model.a_f != 0) & (model.b_f == 0)
    return float(model.lambda_w[lost].sum()) / model.n


def _water_level(weighted: np.ndarray, target: float) -> float:
    """Level theta with sum(min(theta, weighted)) == target, for non-negative
    ``weighted`` and 0 <= target <= its sum (up to rounding).

    Closed form (Cover & Thomas, Elements of Information Theory, 10.3.3):
    with the values sorted ascending, theta is the first equal share of the
    budget left after the smaller values that does not exceed the next one.
    When no share fits (a budget at saturation) it is the largest value, and
    0 when there are no values.
    """
    levels = np.sort(weighted)
    below = np.concatenate(([0.0], np.cumsum(levels[:-1])))
    shares = (target - below) / np.arange(levels.size, 0, -1)
    fits = np.flatnonzero(shares <= levels)
    if fits.size:
        return float(shares[fits[0]])
    return float(levels[-1]) if levels.size else 0.0


def water_fill(model: SpectralModel, total_d: float) -> SpectralAllocation:
    """Reverse water-filling at per-sample distortion budget ``total_d``.

    The water level theta solves sum over the joint support of
    min(theta, |a_k b_k|^2 lambda_w_tilde_k) = N * total_d in closed form
    (see :func:`_water_level`). Bins below saturation get
    D_k = theta / |a_k b_k|^2 and R_k = 0.5 * ln(|a_k b_k|^2 lambda_w_tilde_k
    / theta); the rest keep D_k = lambda_w_tilde_k, R_k = 0. Budgets beyond
    the saturation point return the all-saturated allocation with
    ``clamped`` set.
    """
    total_d = float(total_d)
    if total_d < 0:
        raise ValueError("total_d must be non-negative")
    weighted = model.gain * model.lambda_w_tilde  # zero off the support
    target = model.n * total_d
    saturation = float(weighted[model.k_ab].sum())

    d_k = np.where(model.k_ab, model.lambda_w_tilde, 0.0)
    r_k = np.zeros(model.n)
    if target > saturation * (1 + 1e-12):
        theta = float(weighted.max())
        total = float((model.gain * d_k).sum())
        return SpectralAllocation(d_k, r_k, theta, total, 0.0, clamped=True)

    theta = _water_level(weighted[model.k_ab], target)
    active = model.k_ab & (theta < weighted)
    d_k[active] = theta / model.gain[active]
    rate_floored = bool(active.any()) and theta < _THETA_FLOOR
    theta_eff = max(theta, _THETA_FLOOR)
    r_k[active] = np.maximum(0.0, 0.5 * np.log(weighted[active] / theta_eff))
    total = float((model.gain * d_k).sum())
    return SpectralAllocation(
        d_k, r_k, theta, total, float(r_k.sum()), rate_floored=rate_floored
    )


def theoretical_rd_curve(model: SpectralModel, d_grid) -> list[CurvePoint]:
    """Rate-distortion curve over a grid of per-sample budgets D.

    Each point pairs the coding rate (bits per sample) with the total expected
    per-sample system distortion, i.e. the floor from unrecoverable bins plus D.
    """
    d_grid = [float(d) for d in d_grid]
    if any(d < 0 for d in d_grid):
        raise ValueError("d_grid entries must be non-negative")
    if any(b < a for a, b in zip(d_grid, d_grid[1:])):
        raise ValueError("d_grid must be sorted ascending")
    floor = expected_min_distortion(model)
    points = []
    for d in d_grid:
        alloc = water_fill(model, d)
        rate_bits = alloc.total_rate / math.log(2) / model.n
        points.append(CurvePoint(d, floor + d, rate_bits, alloc.theta))
    return points


def curve_to_csv(model: SpectralModel, d_grid) -> str:
    """CSV for the theoretical curve; the distortion floor rides in a comment."""
    out = io.StringIO()
    out.write(f"# e_d0 = {expected_min_distortion(model)!r}\n")
    out.write("D,total_distortion,rate_bits_per_sample,theta\n")
    for p in theoretical_rd_curve(model, d_grid):
        out.write(f"{p.d!r},{p.total_distortion!r},{p.rate_bits_per_sample!r},{p.theta!r}\n")
    return out.getvalue()
