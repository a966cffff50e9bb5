"""Matrix-free linear operators and the regularized z-update solve.

Operators act on 1D real signals. The one circulant operator,
:class:`Convolution`, applies its kernel's DFT response with the numpy
convention (unnormalized forward transform, 1/N inverse), so its boundaries
are periodic. Instances are immutable after construction: ``apply`` is a
pure function of its input. The z-update is solved in closed form on the DFT
symbol of a circulant chain, which :func:`circulant_symbol` probes.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "LinearMap",
    "Subsample",
    "Replicate",
    "Convolution",
    "Compose",
    "kernel_spectrum",
    "circulant_symbol",
    "ZUpdateTerms",
    "solve_regularized",
]

# Relative defect below which a probed square operator counts as circulant.
CIRCULANT_TOL = 1e-12


class DimensionMismatchError(ValueError):
    """A vector's length does not match what the operator expects."""

    def __init__(self, what: str, expected: int, actual: int):
        super().__init__(f"{what}: expected length {expected}, got {actual}")
        self.expected = expected
        self.actual = actual


def _as_vector(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1D vector, got shape {x.shape}")
    return x


class LinearMap:
    """Base class for matrix-free operators mapping R^in_dim -> R^out_dim.

    Subclasses implement ``_apply``; ``apply`` validates the input length and
    raises :class:`DimensionMismatchError` on mismatch.
    """

    def __init__(self, in_dim: int, out_dim: int):
        if in_dim < 1 or out_dim < 1:
            raise ValueError("operator dimensions must be positive")
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)

    def apply(self, x) -> np.ndarray:
        x = _as_vector(x)
        if x.size != self.in_dim:
            raise DimensionMismatchError(f"{type(self).__name__}.apply", self.in_dim, x.size)
        return self._apply(x)

    def _apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Subsample(LinearMap):
    """Keep every ``factor``-th sample, starting at index 0."""

    def __init__(self, n: int, factor: int):
        factor = int(factor)
        if factor < 1:
            raise ValueError("subsampling factor must be >= 1")
        super().__init__(n, len(range(0, n, factor)))
        self.factor = factor

    def _apply(self, x):
        return x[:: self.factor].copy()


class Replicate(LinearMap):
    """Repeat each sample ``factor`` times contiguously (piecewise-constant upsampling)."""

    def __init__(self, n: int, factor: int):
        factor = int(factor)
        if factor < 1:
            raise ValueError("replication factor must be >= 1")
        super().__init__(n, n * factor)
        self.factor = factor

    def _apply(self, x):
        return np.repeat(x, self.factor)


def kernel_spectrum(n: int, kernel) -> np.ndarray:
    """Frequency response of centered circular convolution with ``kernel``.

    The operator computes y[i] = sum_j kernel[j] * x[(i + j - center) mod n]
    with center = (len(kernel) - 1) // 2, so a symmetric kernel does not
    shift the signal. The response is built from the real first column via
    rfft and mirrored, making it exactly conjugate-symmetric.
    """
    kernel = _as_vector(kernel)
    if kernel.size == 0:
        raise ValueError("kernel must be non-empty")
    center = (kernel.size - 1) // 2
    col0 = np.zeros(n)
    # taps that wrap onto one entry accumulate in tap order
    np.add.at(col0, (center - np.arange(kernel.size)) % n, kernel)
    half = np.fft.rfft(col0)
    freq = np.empty(n, dtype=complex)
    freq[: half.size] = half
    tail = np.arange(half.size, n)
    freq[tail] = np.conj(half[n - tail])
    return freq


class Convolution(LinearMap):
    """Centered circular convolution with a finite kernel, applied through the
    DFT: ``freq_response`` is :func:`kernel_spectrum` of the kernel."""

    def __init__(self, n: int, kernel):
        super().__init__(n, n)
        self.freq_response = kernel_spectrum(n, kernel)
        self.kernel = _as_vector(kernel).copy()

    def _apply(self, x):
        return np.fft.ifft(np.fft.fft(x) * self.freq_response).real


class Compose(LinearMap):
    """Pipeline of operators applied in list order (first stage acts first).

    The stage list must be non-empty.
    """

    def __init__(self, stages):
        stages = tuple(stages)
        if not stages:
            raise ValueError("Compose needs at least one stage")
        for s, t in zip(stages, stages[1:]):
            if s.out_dim != t.in_dim:
                raise DimensionMismatchError(
                    f"Compose: {type(t).__name__} input after {type(s).__name__}",
                    s.out_dim,
                    t.in_dim,
                )
        super().__init__(stages[0].in_dim, stages[-1].out_dim)
        self.stages = stages

    def _apply(self, x):
        for stage in self.stages:
            x = stage.apply(x)
        return x


def circulant_symbol(op: LinearMap) -> np.ndarray | None:
    """DFT symbol h with op(x) == ifft(h * fft(x)), or None if op is not circulant.

    h is the DFT of the impulse response op(e0). It is accepted when that
    identity holds, to ``CIRCULANT_TOL`` relative to max|h| * ||x||, on a
    fixed-seed random probe and on the probe rolled by one sample; any square
    map, composite or not, is checked the same way.
    """
    if op.in_dim != op.out_dim:
        return None
    impulse = np.zeros(op.in_dim)
    impulse[0] = 1.0
    h = np.fft.fft(op.apply(impulse))
    probe = np.random.default_rng(0).standard_normal(op.in_dim)
    limit = CIRCULANT_TOL * float(np.abs(h).max()) * float(np.linalg.norm(probe))
    for x in (probe, np.roll(probe, 1)):
        if np.linalg.norm(op.apply(x) - np.fft.ifft(h * np.fft.fft(x)).real) > limit:
            return None
    return h


class ZUpdateTerms:
    """The z-update's terms fixed through an ADMM run: W = fft(w), conj(h) * W and
    |h|^2 + beta_tilde, for the DFT symbol h of the circulant chain H = A(B(.)),
    the measurements w and the proximity weight beta_tilde, both checked here."""

    def __init__(self, symbol: np.ndarray, w, beta_tilde: float):
        w = _as_vector(w)
        if w.size != symbol.size:
            raise DimensionMismatchError("ZUpdateTerms: w", symbol.size, w.size)
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
    v_tilde = _as_vector(v_tilde)
    if v_tilde.size != terms.symbol.size:
        raise DimensionMismatchError("solve_regularized: v_tilde", terms.symbol.size, v_tilde.size)
    zf = terms.data + terms.beta * np.fft.fft(v_tilde)
    return np.fft.ifft(zf / terms.denominator).real
