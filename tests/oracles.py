"""Reference helpers that only the tests use: circulant pseudoinverse and range
projection, the realized noise energy of an acquisition, an operator's dense
matrix, a conjugate-gradient solve of the regularized normal equations, the
z-update as one expression, and a scalar writer of the codec's wire format.

Response entries of a :class:`~sysaware.linops.CirculantSpectral` with
magnitude at most ``ZERO_TOL`` times the largest magnitude count as exact
zeros: :func:`support` marks the others, and :func:`pinv_response` holds
1/c_k on the support and 0 elsewhere.
"""

import struct

import numpy as np

from sysaware.linops import CirculantSpectral, LinearMap
from sysaware.system_sim import SystemModel, acquire
from sysaware.tree_codec import MAGIC

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
