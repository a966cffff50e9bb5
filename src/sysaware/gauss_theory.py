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

import functools
import io
import math
import numbers
from dataclasses import dataclass

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


class SpectralModel:
    """Source variances and system responses, all indexed by DFT bin.

    ``k_ab`` marks the joint support, where both responses are nonzero. A
    derived value that overflows (or a gain that underflows to zero on
    ``k_ab``) raises ValueError naming it.

    A response may be a bool mask; any other response is taken as float64
    unless it is complex, then as complex128. The model reads a response
    only through its bool cast (a mask's is the mask itself), ``isfinite``
    (skipped for a mask) and its gathers over the support and the lost bins
    (a_f nonzero, b_f zero), off which every row below is zero; each gather
    is cast to float64 (complex128 for a complex response), so a mask is
    never widened to a full float row. For real x, y and v, (x+0j)(y+0j) =
    x*y + 0j and |v+0j| = hypot(v, 0) = |v|, so every derived value has the
    bits that complex casts of real responses would give.

    A curve reads only each budget's theta and total rate, so the model
    gathers once, with the rows' expressions, the terms that no budget
    changes: the distortion floor that :func:`expected_min_distortion`
    returns, and for :func:`water_fill` the support bins ordered by their
    weighted variance gain * lambda_w_tilde (a stable sort), those variances
    (the levels) in that order, the running sums of the levels below each
    one and the count from each one up, the saturation sum, and the water
    level of a budget beyond it (the largest level, or +0.0 when none is
    positive, whatever the signs of the zeros). Every per-bin row is built
    on first read and then kept: the public ``a_f`` and ``b_f`` (float64 or
    complex128 rows; float64(True) is exactly 1.0), ``gain`` = |a_f *
    b_f|^2, ``lambda_w`` = |a_f|^2 * lambda_x, ``lambda_w_tilde`` =
    lambda_w / gain on ``k_ab`` (zero elsewhere), and an allocation's
    ``d_k``, ``r_k`` and ``total_distortion``. A bool ``n``, or one that is
    not an integer, raises ValueError.

    The model keeps references to ``lambda_x`` and to the responses, not
    copies, whenever they already are arrays of the dtype it computes with,
    and reads them again when a per-bin row is first read. A caller who
    writes into those arrays afterwards gets rows that no longer describe
    the curve.
    """

    def __init__(self, n: int, lambda_x, a_f, b_f):
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise ValueError(f"n must be an integer, got {n!r}")
        if n < 1:
            raise ValueError("n must be >= 1")
        n, lam = int(n), np.asarray(lambda_x, dtype=float)  # a numpy n would make numpy scalars of the floats
        a_f, b_f = (_response(r) for r in (a_f, b_f))
        if not (lam.shape == a_f.shape == b_f.shape == (n,)):
            raise ValueError(f"lambda_x, a_f, b_f must all have shape ({n},)")
        for name, values in (("lambda_x", lam), ("a_f", a_f), ("b_f", b_f)):
            if values.dtype != bool and not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite")
        if np.any(lam < 0):
            raise ValueError("lambda_x must be non-negative")
        a_nz, b_nz = a_f.astype(bool, copy=False), b_f.astype(bool, copy=False)  # != 0, as NaN is excluded
        k_ab = a_nz & b_nz
        support, lost = np.flatnonzero(k_ab), np.flatnonzero(a_nz & ~b_nz)  # b_f cannot reach lost bins
        with np.errstate(all="ignore"):  # overflow is reported below, by name
            a_s = _widened(a_f[support])
            gain = np.abs(a_s * _widened(b_f[support])) ** 2
            lambda_w = np.abs(a_s) ** 2 * lam[support]
            lost_w = np.abs(_widened(a_f[lost])) ** 2 * lam[lost]
            tilde = lambda_w / gain
            weighted = gain * tilde
            ranks = np.argsort(weighted, kind="stable")
            order, levels = support[ranks], weighted[ranks]
            below = np.concatenate(([0.0], np.cumsum(levels[:-1])))
            saturation = float(weighted.sum())
            floor = float(lost_w.sum()) / n
        for name, values in (
            ("gain", gain), ("lambda_w", lambda_w), ("lambda_w", lost_w), ("lambda_w_tilde", tilde),
            ("saturation sum", saturation), ("running sum", below), ("distortion floor", floor),
        ):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} is not finite: the responses or lambda_x are out of range")
        # the largest level, or +0.0 when none is positive (levels may be
        # zeros of either sign, and np.max's pick among them varies)
        top = levels[-1] if levels.size and levels[-1] > 0 else 0.0
        self.n, self.lambda_x, self.k_ab, self._a, self._b = n, lam, k_ab, a_f, b_f
        self._order, self._levels, self._below = order, levels, below
        self._counts = np.arange(levels.size, 0, -1, dtype=float)
        self._saturation, self._ceiling, self._floor = saturation, float(top), floor

    # the public responses and the per-bin rows, built on first read and then kept
    a_f = functools.cached_property(lambda self: _widened(self._a))
    b_f = functools.cached_property(lambda self: _widened(self._b))
    gain = functools.cached_property(lambda self: np.abs(self.a_f * self.b_f) ** 2)
    lambda_w = functools.cached_property(lambda self: np.abs(self.a_f) ** 2 * self.lambda_x)
    lambda_w_tilde = functools.cached_property(
        lambda self: np.divide(self.lambda_w, self.gain, out=np.zeros(self.n), where=self.k_ab)
    )


def _response(values) -> np.ndarray:
    """A bool mask as it is, any other response as float64, or as complex128
    if it is complex."""
    values = np.asarray(values)
    if values.dtype == bool:
        return values
    return np.asarray(values, dtype=complex if np.iscomplexobj(values) else float)


def _widened(values: np.ndarray) -> np.ndarray:
    """Response values as the model computes with them: a mask's as float64."""
    return values.astype(float) if values.dtype == bool else values


class SpectralAllocation:
    """Per-bin distortions and rates from reverse water-filling.

    ``total_distortion`` is the weighted sum over bins, sum_k |a_k b_k|^2 D_k
    (the constraint target N*D); ``total_rate`` sums R_k in nats over the
    bins below saturation in the model's ascending-level order, so it agrees
    with ``r_k.sum()`` to rounding. ``clamped`` flags a request beyond the
    zero-rate saturation point; ``rate_floored`` flags rates evaluated at the
    theta floor (theta ~ 0, so the exact rates are unbounded).
    :func:`water_fill` builds it from those four values, its model and
    ``start``, where the bins below saturation begin in the model's sorted
    support.
    """

    def __init__(self, theta: float, total_rate: float, clamped: bool, rate_floored: bool,
                 model: SpectralModel, start: int):
        self.theta, self.total_rate, self.clamped = theta, total_rate, clamped
        self.rate_floored, self._model, self._start = rate_floored, model, start

    @functools.cached_property
    def d_k(self) -> np.ndarray:
        model, start = self._model, self._start
        d_k = model.lambda_w_tilde.copy()  # zero off the support
        bins = model._order[start:]
        d_k[bins] = self.theta / model.gain[bins]
        return d_k

    @functools.cached_property
    def r_k(self) -> np.ndarray:
        r_k = np.zeros(self._model.n)
        r_k[self._model._order[self._start:]] = _active_rates(self._model, self._start, self.theta)
        return r_k

    @functools.cached_property
    def total_distortion(self) -> float:
        return float((self._model.gain * self.d_k).sum())


@dataclass(frozen=True)
class CurvePoint:
    d: float
    total_distortion: float
    rate_bits_per_sample: float
    theta: float


def expected_min_distortion(model: SpectralModel) -> float:
    """Distortion floor from bins the rendering operator cannot reach:
    (1/N) * sum |a_k|^2 lambda_x_k over {k : a_k != 0, b_k = 0}, built with
    the model."""
    return model._floor


def _water_level(model: SpectralModel, target: float) -> float:
    """Level theta with sum(min(theta, weighted)) == target over the support,
    for 0 <= target <= the saturation sum (up to rounding).

    Closed form (Cover & Thomas, Elements of Information Theory, 10.3.3):
    with the levels sorted ascending, theta is the first equal share of the
    budget left after the smaller levels that does not exceed the next one.
    When no share fits (a budget at saturation) it is the largest level, and
    0 when there are none.
    """
    levels = model._levels
    if not levels.size:
        return 0.0
    shares = target - model._below
    shares /= model._counts
    fits = shares <= levels
    first = int(fits.argmax())
    return float(shares[first] if fits[first] else levels[-1])


def water_fill(model: SpectralModel, total_d: float) -> SpectralAllocation:
    """Reverse water-filling at per-sample distortion budget ``total_d``.

    The water level theta solves sum over the joint support of
    min(theta, |a_k b_k|^2 lambda_w_tilde_k) = N * total_d in closed form
    (see :func:`_water_level`). Bins below saturation get
    D_k = theta / |a_k b_k|^2 and R_k = 0.5 * ln(|a_k b_k|^2 lambda_w_tilde_k
    / theta); the rest keep D_k = lambda_w_tilde_k, R_k = 0. A budget beyond
    the saturation point sets ``clamped`` and theta to the largest weighted
    variance, where no bin is below saturation, so the same path yields the
    all-saturated allocation at zero rate. The bins below saturation, the
    suffix of the sorted support above theta, give ``total_rate`` as the sum
    of their rates alone, in that order. A rate that overflows at theta, or
    at the theta floor when theta is below it, raises ValueError.
    """
    total_d = float(total_d)
    if not total_d >= 0:  # also rejects NaN
        raise ValueError("total_d must be non-negative")
    target = model.n * total_d
    clamped = target > model._saturation * (1 + 1e-12)
    theta = model._ceiling if clamped else _water_level(model, target)

    start = int(np.searchsorted(model._levels, theta, side="right"))
    rate_floored = start < model._levels.size and theta < _THETA_FLOOR
    # the largest ratio in _active_rates, in Python floats so that it warns of nothing
    level = max(theta, _THETA_FLOOR)
    if start < model._levels.size and not math.isfinite(float(model._levels[-1]) / level):
        at = "the theta floor" if rate_floored else "theta"
        raise ValueError(f"rate at {at} {level!r} is not finite: the responses or lambda_x are out of range")
    total_rate = float(_active_rates(model, start, theta).sum())
    return SpectralAllocation(theta, total_rate, clamped, rate_floored, model, start)


def _active_rates(model: SpectralModel, start: int, theta: float) -> np.ndarray:
    """R_k of the bins below saturation, in ascending-level order, at theta or the floor if larger."""
    rates = model._levels[start:] / max(theta, _THETA_FLOOR)
    np.log(rates, out=rates)
    rates *= 0.5
    return np.maximum(0.0, rates, out=rates)


def theoretical_rd_curve(model: SpectralModel, d_grid) -> list[CurvePoint]:
    """Rate-distortion curve over a grid of per-sample budgets D.

    Each point pairs the coding rate (bits per sample) with the total expected
    per-sample system distortion, i.e. the floor from unrecoverable bins plus D.
    """
    d_grid = [float(d) for d in d_grid]
    if any(not d >= 0 for d in d_grid):  # also rejects NaN
        raise ValueError("d_grid entries must be non-negative")
    if any(not b >= a for a, b in zip(d_grid, d_grid[1:])):
        raise ValueError("d_grid must be sorted ascending")
    points = []
    for d in d_grid:
        alloc = water_fill(model, d)
        rate_bits = alloc.total_rate / math.log(2) / model.n
        points.append(CurvePoint(d, model._floor + d, rate_bits, alloc.theta))
    return points


def curve_to_csv(model: SpectralModel, d_grid) -> str:
    """CSV for the theoretical curve; the distortion floor rides in a comment."""
    out = io.StringIO()
    out.write(f"# e_d0 = {expected_min_distortion(model)!r}\n")
    out.write("D,total_distortion,rate_bits_per_sample,theta\n")
    for p in theoretical_rd_curve(model, d_grid):
        out.write(f"{p.d!r},{p.total_distortion!r},{p.rate_bits_per_sample!r},{p.theta!r}\n")
    return out.getvalue()
