"""The system's kernel spectrum and the regularized z-update solve.

The system is circulant on the coded grid, so the z-update is solved in
closed form on the DFT symbol of the chain A(B(.)) that
:class:`~sysaware.system_sim.SystemModel` builds. Spectra use the numpy
convention (unnormalized forward transform, 1/N inverse), so convolution
boundaries are periodic. A vector whose shape does not match what its
operation expects raises :class:`DimensionMismatchError`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "vector_of_length",
    "kernel_spectrum",
    "ZUpdateTerms",
    "solve_regularized",
]


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


def kernel_spectrum(n: int, kernel) -> np.ndarray:
    """Frequency response of centered circular convolution with ``kernel``.

    The convolution computes y[i] = sum_j kernel[j] * x[(i + j - center) mod n]
    with center = (len(kernel) - 1) // 2, so a symmetric kernel does not
    shift the signal. The response is built from the real first column via
    rfft and mirrored, making it exactly conjugate-symmetric.
    """
    kernel = np.asarray(kernel, dtype=float)
    if kernel.ndim != 1:
        raise ValueError(f"expected a 1D vector, got shape {kernel.shape}")
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
