"""Reference helpers that only the tests use: matrix-free operators
(identity, subsampling, replication, kernel convolution, any circulant
response, and their composition), the circulant probe of an operator chain,
circulant pseudoinverse and range projection, the realized noise energy of an
acquisition, an operator's dense matrix, a conjugate-gradient solve of the
regularized normal equations, the z-update as one expression, a scalar
writer of the codec's wire format, reverse water-filling that builds every
term anew for each budget, the distortion floor from masks built anew, a
spectral model's water-filling terms derived from full-length per-bin rows,
a signal's text formatted one signal at a time, and the blur-subsample
system with the settings many tests share.

Operators act on 1D real signals and are immutable after construction:
``apply`` is a pure function of its input, and an input of the wrong length
raises :class:`~sysaware.admm.DimensionMismatchError`. Circulant operators
apply their response with the numpy convention (unnormalized forward
transform, 1/N inverse), so their boundaries are periodic.

Response entries of a :class:`CirculantSpectral` with
magnitude at most ``ZERO_TOL`` times the largest magnitude count as exact
zeros: :func:`support` marks the others, and :func:`pinv_response` holds
1/c_k on the support and 0 elsewhere.
"""

import struct
from types import SimpleNamespace

import numpy as np

from sysaware.gauss_theory import SpectralModel
from sysaware.admm import DimensionMismatchError
from sysaware.system_sim import SystemModel, acquire, gaussian_kernel, kernel_spectrum
from sysaware.tree_codec import MAGIC

# Relative magnitude below which a frequency-response entry counts as zero.
ZERO_TOL = 1e-12
# Relative defect below which a probed square operator counts as circulant.
CIRCULANT_TOL = 1e-12


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


class Identity(LinearMap):
    def __init__(self, n: int):
        super().__init__(n, n)

    def _apply(self, x):
        return x.copy()


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


class Convolution(LinearMap):
    """Centered circular convolution with a finite kernel, applied through the
    DFT: ``freq_response`` is :func:`~sysaware.system_sim.kernel_spectrum` of the kernel."""

    def __init__(self, n: int, kernel):
        super().__init__(n, n)
        self.freq_response = kernel_spectrum(n, kernel)
        self.kernel = _as_vector(kernel).copy()

    def _apply(self, x):
        return np.fft.ifft(np.fft.fft(x) * self.freq_response).real


class CirculantSpectral(LinearMap):
    """Square circulant operator applied through the DFT, with any response;
    :class:`Convolution` is the one built from a kernel."""

    def __init__(self, freq_response):
        self.freq_response = np.array(freq_response, dtype=complex)
        super().__init__(self.freq_response.size, self.freq_response.size)

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


def system_chain(n: int, kernel, factor: int) -> tuple[Compose, Replicate]:
    """The operators (A, B) of a :class:`~sysaware.system_sim.SystemModel`
    built from the same arguments: A convolves with ``kernel`` and keeps every
    ``factor``-th sample, and B repeats each coded sample ``factor`` times."""
    return Compose([Convolution(n, kernel), Subsample(n, factor)]), Replicate(n // factor, factor)


def blur_subsample_system(
    n=1024, kernel_std=15.0, kernel_support=15, factor=4, noise_std=1e-3, seed=0
) -> SystemModel:
    """The blur-subsample system many tests share: by default the experiment's
    kernel, factor and noise level, with noise seed 0."""
    return SystemModel(n, gaussian_kernel(kernel_std, kernel_support), factor, noise_std, seed)


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
    """Per-sample energy of the actual noise draw: (1/M)||w - A(x)||^2, with
    A(x) the noise-free acquisition.

    For nonzero noise this concentrates around noise_std**2, which is the
    distortion an ideal system-aware coder approaches at high rate.
    """
    w = acquire(x, system)
    clean = np.fft.ifft(np.fft.fft(x) * system.response).real[:: system.factor]
    return float(((w - clean) ** 2).mean())


def dense_matrix(op: LinearMap) -> np.ndarray:
    """The operator's matrix, column j being op applied to the j-th unit vector."""
    return np.column_stack([op.apply(e) for e in np.eye(op.in_dim)])


def cg_regularized_solve(ad: np.ndarray, bd: np.ndarray, w, v, beta: float) -> np.ndarray:
    """z with (B^T A^T A B + beta I) z = B^T A^T w + beta v, for the dense
    matrices ad of A and bd of B, by conjugate gradients started at v.

    Stops at 1e-12 relative residual and raises RuntimeError after 10x the
    dimension in steps.
    """
    h = ad @ bd
    normal = h.T @ h + beta * np.eye(h.shape[1])
    rhs = h.T @ w + beta * np.asarray(v, dtype=float)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs)
    limit = 1e-12 * rhs_norm
    x = np.array(v, dtype=float)
    r = rhs - normal @ x
    rs = float(r @ r)
    if np.sqrt(rs) <= limit:
        return x
    p = r.copy()
    for _ in range(10 * rhs.size):
        ap = normal @ p
        alpha = rs / float(p @ ap)
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= limit:
            return x
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise RuntimeError(f"conjugate gradients: residual {np.sqrt(rs):.3e} above 1e-12 * ||rhs||")


def z_update_reference(symbol: np.ndarray, w, v_tilde, beta: float) -> np.ndarray:
    """The closed-form z-update as one expression, every term computed anew:
    ifft((conj(h) fft(w) + beta fft(v_tilde)) / (|h|^2 + beta)).real."""
    zf = np.conj(symbol) * np.fft.fft(w) + beta * np.fft.fft(v_tilde)
    return np.fft.ifft(zf / (np.abs(symbol) ** 2 + beta)).real


def pack_bits_msb_first(bits) -> bytes:
    """Pack 0/1 values into bytes one at a time, MSB first, zero-padded."""
    out = bytearray((len(bits) + 7) // 8)
    for pos, bit in enumerate(bits):
        if bit:
            out[pos // 8] |= 1 << (7 - pos % 8)
    return bytes(out)


def oracle_to_bytes(stream) -> bytes:
    """Scalar writer of a Bitstream: pre-order walk one node at a time, each
    leaf index written bit by bit from its most significant of q_bits."""
    tree = []
    leaves = iter(stream.leaf_levels.tolist())
    next_leaf = next(leaves)
    pending = [0]
    while pending:
        level = pending.pop()
        if level == next_leaf:  # the next leaf in order starts at this node
            tree.append(0)
            next_leaf = next(leaves, None)
        else:
            tree.append(1)
            pending += [level + 1, level + 1]
    payload = [
        (index >> shift) & 1
        for index in stream.leaf_indices.tolist()
        for shift in range(stream.q_bits - 1, -1, -1)
    ]
    header = MAGIC + bytes([stream.d0, stream.d, stream.q_bits]) + struct.pack(">I", stream.m)
    return header + pack_bits_msb_first(tree) + pack_bits_msb_first(payload)


def floor_reference(model: SpectralModel) -> float:
    """The distortion floor from masks built anew for this call: (1/N) times
    the sum of lambda_w over the bins with a_f != 0 and b_f == 0."""
    lost = (model.a_f != 0) & (model.b_f == 0)
    return float(model.lambda_w[lost].sum()) / model.n


def model_terms_reference(n: int, lambda_x, a_f, b_f) -> SimpleNamespace:
    """The per-bin rows and the terms a :class:`SpectralModel` holds for
    water-filling and its floor, every term derived from full-length rows:
    ``gain`` = |a_f b_f|^2, ``lambda_w`` = |a_f|^2 lambda_x and
    ``lambda_w_tilde`` = lambda_w / gain on the joint support (zero
    elsewhere), then the weighted variances gathered from the rows over the
    support, their stable sort, running sums and sum, the clamp level and
    the floor over a mask of the lost bins. A row or sum that is not finite
    raises the model's ValueError, checked over the whole row, in the
    model's order. Takes valid inputs; responses keep their dtype rule."""
    lam = np.asarray(lambda_x, dtype=float)
    a_f, b_f = (np.asarray(r, dtype=complex if np.iscomplexobj(r) else float) for r in (a_f, b_f))
    k_ab = (a_f != 0) & (b_f != 0)
    tilde = np.zeros(n)
    with np.errstate(all="ignore"):
        gain = np.abs(a_f * b_f) ** 2
        lambda_w = np.abs(a_f) ** 2 * lam
        np.divide(lambda_w, gain, out=tilde, where=k_ab)
        support = np.flatnonzero(k_ab)
        weighted = gain[support] * tilde[support]
        ranks = np.argsort(weighted, kind="stable")
        levels = weighted[ranks]
        below = np.concatenate(([0.0], np.cumsum(levels[:-1])))
        saturation = float(weighted.sum())
        floor = float(lambda_w[(a_f != 0) & (b_f == 0)].sum()) / n
    for name, values in (
        ("gain", gain), ("lambda_w", lambda_w), ("lambda_w_tilde", tilde),
        ("saturation sum", saturation), ("running sum", below), ("distortion floor", floor),
    ):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} is not finite: the responses or lambda_x are out of range")
    top = float(levels[-1]) if levels.size and levels[-1] > 0 else 0.0
    return SimpleNamespace(
        gain=gain, lambda_w=lambda_w, lambda_w_tilde=tilde, _order=support[ranks], _levels=levels,
        _below=below, _saturation=saturation, _ceiling=top, _floor=floor,
    )


def water_fill_reference(model: SpectralModel, total_d: float) -> SimpleNamespace:
    """Reverse water-filling with every term built from the model's public
    arrays for this one budget: the weighted variances over all bins, their
    sort, running sums and equal shares, and boolean masks over all bins for
    the bins below saturation. The total rate sums the rates of those bins
    alone, ordered by ascending weighted variance and, among equal ones, by
    bin. Same operations on the same values as
    :func:`sysaware.gauss_theory.water_fill`, so every float should match
    bit for bit. Returns every field of a
    :class:`~sysaware.gauss_theory.SpectralAllocation`, all built eagerly."""
    total_d = float(total_d)
    if not total_d >= 0:
        raise ValueError("total_d must be non-negative")
    weighted = model.gain * model.lambda_w_tilde  # zero off the support
    target = model.n * total_d
    saturation = float(weighted[model.k_ab].sum())
    clamped = target > saturation * (1 + 1e-12)
    if clamped:
        top = float(weighted.max())
        theta = top if top > 0 else 0.0  # +0.0 whichever signed zeros the bins hold
    else:
        levels = np.sort(weighted[model.k_ab])
        below = np.concatenate(([0.0], np.cumsum(levels[:-1])))
        shares = (target - below) / np.arange(levels.size, 0, -1)
        fits = np.flatnonzero(shares <= levels)
        if fits.size:
            theta = float(shares[fits[0]])
        else:
            theta = float(levels[-1]) if levels.size else 0.0

    d_k = model.lambda_w_tilde.copy()
    r_k = np.zeros(model.n)
    active = model.k_ab & (theta < weighted)
    d_k[active] = theta / model.gain[active]
    rate_floored = bool(active.any()) and theta < 1e-15
    theta_eff = max(theta, 1e-15)
    r_k[active] = np.maximum(0.0, 0.5 * np.log(weighted[active] / theta_eff))
    bins = np.flatnonzero(active)
    ascending = bins[np.argsort(weighted[bins], kind="stable")]
    total = float((model.gain * d_k).sum())
    return SimpleNamespace(
        d_k=d_k, r_k=r_k, theta=theta, total_distortion=total, total_rate=float(r_k[ascending].sum()),
        clamped=clamped, rate_floored=rate_floored,
    )


def signal_text_reference(x) -> bytes:
    """A signal's text, one ``repr`` per LF-ended line, formatted alone: each
    distinct bit pattern once, then one line per sample."""
    patterns, inverse = np.unique(np.asarray(x, dtype=float).view(np.int64), return_inverse=True)
    lines = np.array([f"{value!r}\n" for value in patterns.view(np.float64).tolist()], dtype=object)
    return "".join(lines[inverse].tolist()).encode()
