"""End-to-end simulation: chirp source, noisy acquisition, rendering, sweeps.

The reference system blurs with a wide Gaussian kernel, subsamples, and adds
white noise; rendering replicates each coded sample back to the source grid.
Spectra use the numpy convention (unnormalized forward transform, 1/N
inverse), so convolution boundaries are periodic. Noise comes from numpy's
Philox counter-based generator so any draw is bit-reproducible from the
recorded seed.
"""

from __future__ import annotations

import io
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import admm

__all__ = [
    "kernel_spectrum",
    "SystemModel",
    "RDPoint",
    "make_chirp",
    "gaussian_kernel",
    "make_blur_subsample_system",
    "acquire",
    "render",
    "psnr",
    "sweep",
    "rd_points_to_csv",
    "signal_texts",
    "save_signal",
    "load_signal",
]

PSNR_CAP_DB = 200.0


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
    if not np.isfinite(kernel).all():
        raise ValueError("kernel taps must be finite")
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


class SystemModel:
    """The blur-subsample system: centered circular convolution of n samples
    with ``kernel``, every ``factor``-th sample kept (m = n // factor), and
    white Gaussian noise of ``noise_std`` from Philox keyed with ``rng_seed``;
    rendering repeats each coded sample ``factor`` times.

    ``response`` is the kernel's :func:`kernel_spectrum`.
    ``symbol``, the DFT symbol of acquire(render(.)) that the z-update solves
    on, is the fft of the rendered impulse's noise-free acquisition: the chain
    is circulant on the coded grid by construction. ValueError: an n below 1,
    an empty kernel or one with a non-finite tap, a factor that is a bool, not
    an integer, below 1 or not a divisor of n, a negative or non-finite
    ``noise_std``, or an ``rng_seed`` that is a bool or not a non-negative
    integer.
    """

    def __init__(self, n: int, kernel, factor: int, noise_std: float, rng_seed: int):
        if not _is_integer(factor):
            raise ValueError(f"subsampling factor must be an integer, got {factor!r}")
        if factor < 1:
            raise ValueError(f"subsampling factor must be >= 1, got {factor}")
        if not _is_integer(n) or n < 1:
            raise ValueError(f"operator dimensions must be positive, got n={n!r}")
        if n % factor:
            raise ValueError(f"subsampling factor {factor} must divide n={n}")
        self.n, self.factor, self.m = int(n), int(factor), int(n // factor)
        self.response = kernel_spectrum(self.n, kernel)
        if not (np.isfinite(noise_std) and noise_std >= 0):
            raise ValueError(f"noise_std must be finite and non-negative, got {noise_std!r}")
        if not _is_integer(rng_seed) or rng_seed < 0:
            raise ValueError(f"rng_seed must be a non-negative integer, got {rng_seed!r}")
        self.noise_std, self.rng_seed = noise_std, rng_seed
        impulse = np.zeros(self.m)
        impulse[0] = 1.0
        self.symbol = np.fft.fft(self._blur_subsample(render(impulse, self)))

    def _blur_subsample(self, x: np.ndarray) -> np.ndarray:
        return np.fft.ifft(np.fft.fft(x) * self.response).real[:: self.factor].copy()


@dataclass(frozen=True)
class RDPoint:
    """One operating point of a sweep. ``stop_reason`` is the ADMM stop of a
    proposed point (see :func:`sysaware.admm.run`) and "" for a regular one.
    ``blob`` keeps the compressed bytes and ``recon`` the rendered
    reconstruction the PSNR was measured on, so callers can persist exactly
    what was measured."""

    nu_or_theta: float
    rate_bpp: float
    psnr_db: float
    method: str
    iterations: int
    stop_reason: str = ""
    blob: bytes = b""
    recon: np.ndarray | None = field(default=None, compare=False, repr=False)


def make_chirp(n: int) -> np.ndarray:
    """Length-n chirp in [0, 1]: 0.5 + 0.5 * t * sin(2*pi*(2t + 30t^2)), t = i/n."""
    if n < 2:
        raise ValueError("n must be >= 2")
    t = np.arange(n) / n
    return 0.5 + 0.5 * t * np.sin(2 * np.pi * (2 * t + 30 * t * t))


def gaussian_kernel(std: float = 15.0, support: int = 15) -> np.ndarray:
    """Unit-sum Gaussian taps at integer offsets centered on zero.

    With the default std wide relative to the support the kernel is close to
    a boxcar, which is the intended strong blur.
    """
    if support < 1 or support % 2 == 0:
        raise ValueError("support must be a positive odd integer")
    if not 0 < std < np.inf:  # also rejects NaN
        raise ValueError(f"std must be finite and positive, got {std!r}")
    offsets = np.arange(support) - (support - 1) // 2
    taps = np.exp(-(offsets.astype(float) ** 2) / (2 * std * std))
    return taps / taps.sum()


def make_blur_subsample_system(
    n: int = 1024,
    kernel_std: float = 15.0,
    kernel_support: int = 15,
    factor: int = 4,
    noise_std: float = 1e-3,
    seed: int = 0,
) -> SystemModel:
    """Gaussian blur + subsample acquisition with replicating rendering."""
    kernel = gaussian_kernel(kernel_std, kernel_support)
    return SystemModel(n, kernel, factor, float(noise_std), int(seed))


def acquire(x, system: SystemModel) -> np.ndarray:
    """Measure x, of n samples, through the blur and the subsampling plus
    white Gaussian noise.

    The noise draw uses Philox keyed with the model seed, so repeated calls
    return identical measurements.
    """
    w = system._blur_subsample(admm.vector_of_length(x, system.n, "acquire: x"))
    if system.noise_std > 0:
        rng = np.random.Generator(np.random.Philox(system.rng_seed))
        w = w + system.noise_std * rng.standard_normal(w.size)
    return w


def render(v, system: SystemModel) -> np.ndarray:
    """Repeat each of the m coded samples of v ``factor`` times."""
    return np.repeat(admm.vector_of_length(v, system.m, "render: v"), system.factor)


def psnr(x, y) -> float:
    """PSNR of y against reference x for a peak of 1, capped at 200 dB (the
    cap flags a saturated, effectively exact reconstruction)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    mse = float(((x - y) ** 2).mean())
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(float(10 * np.log10(1.0 / mse)), PSNR_CAP_DB)


def sweep(
    x,
    w,
    system: SystemModel,
    codec,
    params,
    method: str,
    admm_cfg: admm.AdmmConfig = admm.AdmmConfig(),
) -> list[RDPoint]:
    """Rate-distortion sweep of the measurements w = acquire(x, system) over
    codec parameters, sorted by rate.

    method "regular" compresses w directly; "proposed" runs the ADMM loop on
    the system's symbol with each parameter as theta and the shared loop
    settings admm_cfg. A w whose shape is not (system.m,) raises
    ValueError. A failing point raises RuntimeError naming the method and the
    parameter.
    """
    if method not in ("regular", "proposed"):
        raise ValueError(f"method must be 'regular' or 'proposed', got {method!r}")
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    if w.shape != (system.m,):
        raise ValueError(f"w must have shape ({system.m},), got {w.shape}")
    m = w.size
    points = []
    for param in params:
        try:
            if method == "regular":
                blob = codec.compress(w, param)
                iterations, stop_reason = 1, ""
            else:
                blob, trace, stop_reason = admm.run(w, system.symbol, codec, param, admm_cfg)
                iterations = len(trace)
            v = np.asarray(codec.decompress(blob), dtype=float)
            y = render(v, system)
            points.append(
                RDPoint(
                    nu_or_theta=float(param),
                    rate_bpp=codec.rate_bits(blob) / m,
                    psnr_db=psnr(x, y),
                    method=method,
                    iterations=iterations,
                    stop_reason=stop_reason,
                    blob=blob,
                    recon=y,
                )
            )
        except Exception as exc:
            message = f"sweep point failed (method={method}, param={param!r}): {exc}"
            raise RuntimeError(message) from exc
    return sorted(points, key=lambda p: p.rate_bpp)


def rd_points_to_csv(points: list[RDPoint], seed: int) -> str:
    out = io.StringIO()
    out.write("method,param,rate_bpp,psnr_db,iterations,seed,stop_reason\n")
    for p in points:
        out.write(
            f"{p.method},{p.nu_or_theta!r},{p.rate_bpp!r},{p.psnr_db!r},{p.iterations},{seed},"
            f"{p.stop_reason}\n"
        )
    return out.getvalue()


def signal_texts(signals) -> list[bytes]:
    """The text of each signal, one ``repr`` per LF-ended line, as ASCII bytes.

    The signals are formatted together: each distinct float64 bit pattern is
    formatted once across them all, since a coded signal takes at most
    2**q_bits values, and each run of equal samples becomes one repeated line.
    Bit patterns, not values, are compared, so -0.0 keeps its own text apart
    from 0.0.
    """
    rows = [np.asarray(x, dtype=float).reshape(-1).view(np.int64) for x in signals]
    sizes = np.array([row.size for row in rows])
    bits = np.concatenate(rows)
    ends = np.cumsum(sizes)
    # a run starts where the bit pattern changes and at each signal's first sample
    first = np.empty(bits.size, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    first[(ends - sizes)[sizes > 0]] = True
    starts = np.flatnonzero(first)
    patterns, inverse = np.unique(bits[starts], return_inverse=True)
    lines = np.array([f"{value!r}\n".encode() for value in patterns.view(np.float64).tolist()], dtype=object)
    runs = (lines[inverse] * np.diff(starts, append=bits.size)).tolist()
    cuts = np.searchsorted(starts, ends).tolist()
    return [b"".join(runs[begin:end]) for begin, end in zip([0, *cuts], cuts)]


def save_signal(path, x) -> bytes:
    """Write a signal as its :func:`signal_texts` text and return the bytes written."""
    (data,) = signal_texts([x])
    Path(path).write_bytes(data)
    return data


def load_signal(path, parse=float) -> np.ndarray:
    """Read the non-blank lines of a text file, each parsed by ``parse``: a signal
    is one float per line (what :func:`save_signal` writes), and the value files
    of ``sysaware theory``'s ``file:`` specs hold floats or complex numbers."""
    with open(path) as fh:
        return np.array([parse(line) for line in fh if line.strip()], dtype=parse)
