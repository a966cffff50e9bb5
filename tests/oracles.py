"""Reference helpers that only the tests use: circulant pseudoinverse and range
projection, and the realized noise energy of an acquisition.

Response entries of a :class:`~sysaware.linops.CirculantSpectral` with
magnitude at most ``ZERO_TOL`` times the largest magnitude count as exact
zeros: :func:`support` marks the others, and :func:`pinv_response` holds
1/c_k on the support and 0 elsewhere.
"""

import numpy as np

from sysaware.linops import CirculantSpectral
from sysaware.system_sim import SystemModel, acquire

# Relative magnitude below which a frequency-response entry counts as zero.
ZERO_TOL = 1e-12


def support(op: CirculantSpectral) -> np.ndarray:
    magnitude = np.abs(op.freq_response)
    return magnitude > ZERO_TOL * magnitude.max()


def pinv_response(op: CirculantSpectral) -> np.ndarray:
    c = op.freq_response
    return np.divide(1.0, c, out=np.zeros_like(c), where=support(op))


def pseudoinverse_apply(op: CirculantSpectral, x) -> np.ndarray:
    """Apply the circulant pseudoinverse: divide DFT bins on the support, zero the rest."""
    return np.fft.ifft(np.fft.fft(x) * pinv_response(op)).real


def project_range(op: CirculantSpectral, x) -> np.ndarray:
    """Orthogonal projection onto the operator's range (zero the off-support DFT bins)."""
    return np.fft.ifft(mask_spectrum(op, np.fft.fft(x))).real


def mask_spectrum(op: CirculantSpectral, xf: np.ndarray) -> np.ndarray:
    """Zero the DFT bins outside the operator's support. Idempotent by construction."""
    out = np.array(xf, dtype=complex)
    out[~support(op)] = 0.0
    return out


def ideal_distortion_check(x, system: SystemModel) -> float:
    """Per-sample energy of the actual noise draw: (1/M)||w - A(x)||^2.

    For nonzero noise this concentrates around noise_std**2, which is the
    distortion an ideal system-aware coder approaches at high rate.
    """
    w = acquire(x, system)
    clean = system.a.apply(x)
    return float(((w - clean) ** 2).mean())
