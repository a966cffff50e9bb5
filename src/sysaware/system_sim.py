"""End-to-end simulation: chirp source, noisy acquisition, rendering, sweeps.

The reference system blurs with a wide Gaussian kernel, subsamples, and adds
white noise; rendering replicates each coded sample back to the source grid.
Noise comes from numpy's Philox counter-based generator so any draw is
bit-reproducible from the recorded seed.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import admm
from .linops import Compose, Convolution, LinearMap, Replicate, Subsample, circulant_symbol

__all__ = [
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
    "save_signal",
    "load_signal",
]

PSNR_CAP_DB = 200.0


@dataclass(frozen=True)
class SystemModel:
    """Acquisition operator a, rendering operator b, noise level, and seed.

    ``symbol`` is the DFT symbol of the chain a(b(.)), probed once here. The
    ADMM z-update is a closed-form solve on it, so a chain that is not
    circulant on the coded grid raises ValueError when the model is built.
    """

    a: LinearMap
    b: LinearMap
    noise_std: float
    rng_seed: int
    symbol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.a.in_dim != self.b.out_dim or self.a.out_dim != self.b.in_dim:
            raise ValueError(
                f"a ({self.a.in_dim}->{self.a.out_dim}) and "
                f"b ({self.b.in_dim}->{self.b.out_dim}) do not form a closed loop"
            )
        if not (np.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValueError(f"noise_std must be finite and non-negative, got {self.noise_std!r}")
        symbol = circulant_symbol(Compose([self.b, self.a]))
        if symbol is None:
            raise ValueError("A(B(.)) is not circulant on the coded grid, so the z-update has no solve")
        object.__setattr__(self, "symbol", symbol)


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
    if not factor >= 1:
        raise ValueError(f"subsampling factor must be >= 1, got {factor}")
    if n % factor:
        raise ValueError(f"subsampling factor {factor} must divide n={n}")
    a = Compose([Convolution(n, gaussian_kernel(kernel_std, kernel_support)), Subsample(n, factor)])
    b = Replicate(n // factor, factor)
    return SystemModel(a=a, b=b, noise_std=float(noise_std), rng_seed=int(seed))


def acquire(x, system: SystemModel) -> np.ndarray:
    """Measure x through the acquisition operator plus white Gaussian noise.

    The noise draw uses Philox keyed with the model seed, so repeated calls
    return identical measurements.
    """
    w = system.a.apply(x)
    if system.noise_std > 0:
        rng = np.random.Generator(np.random.Philox(system.rng_seed))
        w = w + system.noise_std * rng.standard_normal(w.size)
    return w


def render(v, system: SystemModel) -> np.ndarray:
    return system.b.apply(v)


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
    settings admm_cfg. A w whose shape is not (system.a.out_dim,) raises
    ValueError. A failing point raises RuntimeError naming the method and the
    parameter.
    """
    if method not in ("regular", "proposed"):
        raise ValueError(f"method must be 'regular' or 'proposed', got {method!r}")
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    if w.shape != (system.a.out_dim,):
        raise ValueError(f"w must have shape ({system.a.out_dim},), got {w.shape}")
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


def save_signal(path, x) -> str:
    """Write a signal as text, one ``repr`` per LF-ended line, and return the text.

    Each distinct float64 bit pattern is formatted once, since a coded signal
    takes at most 2**q_bits values. Bit patterns, not values, are compared, so
    -0.0 keeps its own text apart from 0.0.
    """
    patterns, inverse = np.unique(np.asarray(x, dtype=float).view(np.int64), return_inverse=True)
    lines = np.array([f"{value!r}\n" for value in patterns.view(np.float64).tolist()], dtype=object)
    text = "".join(lines[inverse].tolist())
    Path(path).write_text(text, newline="\n")
    return text


def load_signal(path, parse=float) -> np.ndarray:
    """Read the non-blank lines of a text file, each parsed by ``parse``: a signal
    is one float per line (what :func:`save_signal` writes), and the value files
    of ``sysaware theory``'s ``file:`` specs hold floats or complex numbers."""
    with open(path) as fh:
        return np.array([parse(line) for line in fh if line.strip()], dtype=parse)
