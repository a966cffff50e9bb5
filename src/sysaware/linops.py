"""Matrix-free linear operators and the regularized normal-equation solver.

Operators act on 1D real signals. Anything circulant is handled through the
DFT with the numpy convention (unnormalized forward transform, 1/N inverse),
and convolution boundaries are always periodic. Instances are immutable after
construction: ``apply`` and ``adjoint`` are pure functions of their inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "SolverError",
    "LinearMap",
    "Identity",
    "Scale",
    "Subsample",
    "Replicate",
    "CirculantSpectral",
    "Convolution",
    "Compose",
    "kernel_spectrum",
    "pseudoinverse_apply",
    "project_range",
    "mask_spectrum",
    "circulant_symbol",
    "solve_regularized",
]

# Relative magnitude below which a frequency-response entry counts as zero.
ZERO_TOL = 1e-12
# Relative defect below which a probed square operator counts as circulant.
CIRCULANT_TOL = 1e-12


class DimensionMismatchError(ValueError):
    """A vector's length does not match what the operator expects."""

    def __init__(self, what: str, expected: int, actual: int):
        super().__init__(f"{what}: expected length {expected}, got {actual}")
        self.expected = expected
        self.actual = actual


class SolverError(RuntimeError):
    """Conjugate gradients failed to reach the requested residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def _as_vector(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1D vector, got shape {x.shape}")
    return x


class LinearMap:
    """Base class for matrix-free operators mapping R^in_dim -> R^out_dim.

    Subclasses implement ``_apply`` and ``_adjoint``; the public methods
    validate lengths and raise :class:`DimensionMismatchError` on mismatch.
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

    def adjoint(self, y) -> np.ndarray:
        y = _as_vector(y)
        if y.size != self.out_dim:
            raise DimensionMismatchError(f"{type(self).__name__}.adjoint", self.out_dim, y.size)
        return self._adjoint(y)

    def _apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _adjoint(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Identity(LinearMap):
    def __init__(self, n: int):
        super().__init__(n, n)

    def _apply(self, x):
        return x.copy()

    def _adjoint(self, y):
        return y.copy()


class Scale(LinearMap):
    """Multiplication by a real scalar (self-adjoint)."""

    def __init__(self, n: int, factor: float):
        super().__init__(n, n)
        self.factor = float(factor)

    def _apply(self, x):
        return self.factor * x

    def _adjoint(self, y):
        return self.factor * y


class Subsample(LinearMap):
    """Keep every ``factor``-th sample, starting at index ``phase``.

    The adjoint inserts zeros at the discarded positions.
    """

    def __init__(self, n: int, factor: int, phase: int = 0):
        factor = int(factor)
        phase = int(phase)
        if factor < 1:
            raise ValueError("subsampling factor must be >= 1")
        if not 0 <= phase < factor:
            raise ValueError(f"phase must be in [0, {factor}), got {phase}")
        out = len(range(phase, n, factor))
        super().__init__(n, out)
        self.factor = factor
        self.phase = phase

    def _apply(self, x):
        return x[self.phase :: self.factor].copy()

    def _adjoint(self, y):
        out = np.zeros(self.in_dim)
        out[self.phase :: self.factor] = y
        return out


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

    def _adjoint(self, y):
        return y.reshape(self.in_dim, self.factor).sum(axis=1)


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


class CirculantSpectral(LinearMap):
    """Square circulant operator applied through the DFT.

    The adjoint is the circulant operator with the conjugate response. The
    response should be conjugate-symmetric when modeling a real filter;
    :func:`kernel_spectrum` guarantees that by construction. Response entries
    with magnitude at most ``ZERO_TOL`` times the largest magnitude count as
    exact zeros: ``support`` marks the others, and ``pinv_response`` holds
    1/c_k on the support and 0 elsewhere.
    """

    def __init__(self, freq_response):
        c = np.array(freq_response, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("frequency response must be a non-empty 1D vector")
        super().__init__(c.size, c.size)
        self.freq_response = c
        magnitude = np.abs(c)
        self.support = magnitude > ZERO_TOL * magnitude.max()
        self.pinv_response = np.divide(1.0, c, out=np.zeros_like(c), where=self.support)

    def _apply(self, x):
        return np.fft.ifft(np.fft.fft(x) * self.freq_response).real

    def _adjoint(self, y):
        return np.fft.ifft(np.fft.fft(y) * np.conj(self.freq_response)).real


class Convolution(CirculantSpectral):
    """Centered circular convolution with a finite kernel."""

    def __init__(self, n: int, kernel):
        super().__init__(kernel_spectrum(n, kernel))
        self.kernel = _as_vector(kernel).copy()


class Compose(LinearMap):
    """Pipeline of operators applied in list order (first stage acts first).

    The adjoint applies the stage adjoints in reverse order. An empty pipeline
    behaves as the identity and needs its dimension given explicitly.
    """

    def __init__(self, stages, dim: int | None = None):
        stages = tuple(stages)
        for s, t in zip(stages, stages[1:]):
            if s.out_dim != t.in_dim:
                raise DimensionMismatchError(
                    f"Compose: {type(t).__name__} input after {type(s).__name__}",
                    s.out_dim,
                    t.in_dim,
                )
        if stages:
            in_dim, out_dim = stages[0].in_dim, stages[-1].out_dim
        else:
            if dim is None:
                raise ValueError("empty Compose requires an explicit dim")
            in_dim = out_dim = dim
        super().__init__(in_dim, out_dim)
        self.stages = stages

    def _apply(self, x):
        for stage in self.stages:
            x = stage.apply(x)
        return x if self.stages else x.copy()

    def _adjoint(self, y):
        for stage in reversed(self.stages):
            y = stage.adjoint(y)
        return y if self.stages else y.copy()


def pseudoinverse_apply(op: CirculantSpectral, x) -> np.ndarray:
    """Apply the circulant pseudoinverse: divide DFT bins on the support, zero the rest."""
    x = _as_vector(x)
    if x.size != op.in_dim:
        raise DimensionMismatchError("pseudoinverse_apply", op.in_dim, x.size)
    return np.fft.ifft(np.fft.fft(x) * op.pinv_response).real


def project_range(op: CirculantSpectral, x) -> np.ndarray:
    """Orthogonal projection onto the operator's range (zero the off-support DFT bins)."""
    x = _as_vector(x)
    if x.size != op.in_dim:
        raise DimensionMismatchError("project_range", op.in_dim, x.size)
    return np.fft.ifft(mask_spectrum(op, np.fft.fft(x))).real


def mask_spectrum(op: CirculantSpectral, xf: np.ndarray) -> np.ndarray:
    """Zero the DFT bins outside the operator's support. Idempotent by construction."""
    out = np.array(xf, dtype=complex)
    out[~op.support] = 0.0
    return out


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


def solve_regularized(
    a: LinearMap,
    b: LinearMap,
    w,
    v_tilde,
    beta_tilde: float,
    cg_tol: float = 1e-10,
    cg_maxiter: int | None = None,
    symbol: np.ndarray | None = None,
) -> np.ndarray:
    """Solve (B*A*AB + beta_tilde I) z = B*A*w + beta_tilde v_tilde for z.

    The solution balances fidelity of A(B(z)) to the measurements w against
    proximity to the target v_tilde. Given the DFT ``symbol`` h of a circulant
    H = A(B(.)), as :func:`circulant_symbol` returns it, the normal equations
    are diagonal in the DFT domain and solved bin by bin:
    (|h|^2 + beta_tilde) z_k = conj(h_k) w_k + beta_tilde v_k. Without a
    symbol, conjugate gradients run matrix-free on the normal operator,
    stopping at ``cg_tol`` relative residual with an iteration cap of
    ``cg_maxiter`` (default 10x the problem dimension).
    """
    w = _as_vector(w)
    v_tilde = _as_vector(v_tilde)
    if w.size != a.out_dim:
        raise DimensionMismatchError("solve_regularized: w", a.out_dim, w.size)
    if v_tilde.size != b.in_dim:
        raise DimensionMismatchError("solve_regularized: v_tilde", b.in_dim, v_tilde.size)
    if a.in_dim != b.out_dim:
        raise DimensionMismatchError("solve_regularized: a.in_dim vs b.out_dim", b.out_dim, a.in_dim)
    beta = float(beta_tilde)
    if not beta > 0:
        raise ValueError("beta_tilde must be positive")
    if symbol is not None:
        zf = np.conj(symbol) * np.fft.fft(w) + beta * np.fft.fft(v_tilde)
        return np.fft.ifft(zf / (np.abs(symbol) ** 2 + beta)).real

    rhs = b.adjoint(a.adjoint(w)) + beta * v_tilde

    def normal_op(z):
        return b.adjoint(a.adjoint(a.apply(b.apply(z)))) + beta * z

    maxiter = int(cg_maxiter) if cg_maxiter is not None else 10 * rhs.size
    return _conjugate_gradients(normal_op, rhs, x0=v_tilde, tol=cg_tol, maxiter=maxiter)


def _conjugate_gradients(op, rhs, x0, tol, maxiter):
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs)
    limit = tol * rhs_norm
    x = np.array(x0, dtype=float)
    r = rhs - op(x)
    rs = float(r @ r)
    if np.sqrt(rs) <= limit:
        return x
    p = r.copy()
    for _ in range(maxiter):
        ap = op(p)
        alpha = rs / float(p @ ap)
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= limit:
            return x
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise SolverError(
        f"conjugate gradients: residual {np.sqrt(rs):.3e} above {tol:g} * ||rhs|| after {maxiter} iterations",
        residual=float(np.sqrt(rs)),
    )
