"""Pruned-binary-tree codec: quantized segment means over a dyadic partition.

A signal of length M = 2**d0 is covered by the leaves of a binary tree pruned
from an initial depth d <= d0. Each leaf stores the uniformly quantized mean
of its samples, so the rate is q_bits per leaf. Pruning minimizes, exactly,

    sum_leaves ||w[leaf] - recon(leaf)||^2 + nu * q_bits * n_leaves

over every tree reachable by merging sibling leaves: costs are accumulated
bottom-up and a node keeps its children only when their combined subtree cost
does not exceed the node's own leaf cost (ties keep the split).

A leaf's cost needs only its segment's sum and second moment about the mean,
m2, since ||w[leaf] - r||^2 = m2 + width * (mean - r)^2. The encoder reads the
samples only at level d and merges every shallower node from its two children
(Chan, Golub & LeVeque, 1983): sums add, and m2 = m2_L + m2_R + (mean_L -
mean_R)^2 * width_child / 2. The merged moments round differently from a
direct pass over each segment, so where two trees tie in exact arithmetic the
computed costs may break the tie either way; the split is kept whenever the
computed children's cost does not exceed the computed leaf cost.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAGIC",
    "MAX_LEN",
    "MAX_Q_BITS",
    "BitstreamError",
    "Bitstream",
    "encode",
    "decode",
    "TreeCodecPlug",
]

MAGIC = b"SAC1"
MAX_LEN = 1 << 24  # longest signal the codec writes or reads
MAX_Q_BITS = 52  # widest index whose rounding and reconstruction are exact in float64
_HEADER_LEN = 11  # magic, d0, d, q_bits, M as 4-byte big-endian


class BitstreamError(ValueError):
    """Malformed serialized stream; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True, eq=False)
class Bitstream:
    """A coded tree: header fields plus its leaves in left-to-right order.

    ``leaf_levels[i]`` is the tree level of leaf i, which covers
    ``m >> leaf_levels[i]`` samples; ``leaf_indices[i]`` is its quantized mean.

    Wire layout: 4 magic bytes "SAC1"; d0, d, q_bits as single bytes; M as a
    4-byte big-endian integer; the pre-order tree description, one bit per
    visited node (1 = split, 0 = leaf), MSB-first, zero-padded to a byte
    boundary; then q_bits per leaf in left-to-right leaf order, MSB-first,
    zero-padded to a byte boundary.
    """

    d0: int
    d: int
    q_bits: int
    m: int
    leaf_levels: np.ndarray
    leaf_indices: np.ndarray

    @property
    def reported_rate_bits(self) -> int:
        """Rate charged by the codec: payload bits only, q_bits per leaf."""
        return self.q_bits * len(self.leaf_indices)

    def to_bytes(self) -> bytes:
        levels = self.leaf_levels
        widths = self.m >> levels
        starts = np.cumsum(widths) - widths
        # In pre-order, leaf i is preceded by the splits of the nodes that start
        # at s_i from the shallowest one, at level d0 - ctz(s_i) (0 for s_i = 0).
        low = starts | self.m
        first = self.d0 + 1 - np.frexp(low & -low)[1]
        runs = levels - first + 1
        tree = np.ones(int(runs.sum()), dtype=np.uint8)
        tree[np.cumsum(runs) - 1] = 0
        # each index as 8 big-endian bytes, unpacked MSB-first: its low q_bits are the last
        index_bytes = self.leaf_indices.astype(">u8").view(np.uint8).reshape(-1, 8)
        payload = np.unpackbits(index_bytes, axis=1)[:, 64 - self.q_bits :]
        header = MAGIC + bytes([self.d0, self.d, self.q_bits]) + struct.pack(">I", self.m)
        return header + np.packbits(tree).tobytes() + np.packbits(payload).tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Bitstream":
        if len(data) < _HEADER_LEN:
            raise BitstreamError("truncated header", offset=len(data))
        if data[:4] != MAGIC:
            raise BitstreamError(f"bad magic {data[:4]!r}", offset=0)
        d0, d, q_bits = data[4], data[5], data[6]
        m = struct.unpack(">I", data[7:11])[0]
        if m > MAX_LEN:
            raise BitstreamError(f"signal length {m} exceeds MAX_LEN={MAX_LEN}", offset=7)
        if m != 1 << d0:
            raise BitstreamError(f"signal length {m} inconsistent with d0={d0}", offset=7)
        if not 1 <= d <= d0:
            raise BitstreamError(f"depth d={d} outside [1, d0={d0}]", offset=5)
        if not 1 <= q_bits <= MAX_Q_BITS:
            raise BitstreamError(f"q_bits={q_bits} outside [1, {MAX_Q_BITS}]", offset=6)

        levels, n_bits = _parse_tree(data, d)
        n_leaves = levels.size
        payload_start = _HEADER_LEN + (n_bits + 7) // 8
        expected_len = payload_start + (q_bits * n_leaves + 7) // 8
        if len(data) < expected_len:
            raise BitstreamError(
                f"truncated leaf payload: need {expected_len} bytes, have {len(data)}",
                offset=len(data),
            )
        if len(data) > expected_len:
            raise BitstreamError("trailing data after leaf payload", offset=expected_len)

        payload = np.unpackbits(
            np.frombuffer(data, dtype=np.uint8, offset=payload_start), count=q_bits * n_leaves
        )
        indices = payload.reshape(n_leaves, q_bits) @ (1 << np.arange(q_bits - 1, -1, -1))
        return cls(d0=d0, d=d, q_bits=q_bits, m=m, leaf_levels=levels, leaf_indices=indices)


def _parse_tree(data: bytes, d: int) -> tuple[np.ndarray, int]:
    """Read the pre-order tree section; return (leaf levels, bits consumed).

    A walk that neither ends nor splits below depth d visits distinct nodes of
    the full depth-d tree, so it decides within its 2**(d+1) - 1 bits.
    """
    n_bytes = ((1 << (d + 1)) + 6) // 8
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8, offset=_HEADER_LEN)[:n_bytes])
    # open slots after each bit: +1 per split, -1 per leaf, starting from the root's 1
    open_after = 2 * np.cumsum(bits, dtype=np.int64) - np.arange(bits.size)
    ends = np.flatnonzero(open_after == 0)
    n_bits = int(ends[0]) + 1 if ends.size else bits.size
    bits = bits[:n_bits]
    # A split at p has its left child at p + 1 and its right child at the next
    # position whose open count before reading equals that at p.
    open_before = open_after[:n_bits] - 2 * bits + 1
    order = np.argsort(open_before, kind="stable")
    right = np.full(n_bits, n_bits)
    same = open_before[order[1:]] == open_before[order[:-1]]
    right[order[:-1][same]] = order[1:][same]

    node_level = np.zeros(n_bits, dtype=np.int64)
    nodes = np.arange(min(n_bits, 1))  # the root, if any bit was read
    for level in range(d):
        if not nodes.size:
            break
        splits = nodes[bits[nodes] == 1]
        nodes = np.concatenate((splits + 1, right[splits]))
        nodes = nodes[nodes < n_bits]
        node_level[nodes] = level + 1
    below = nodes[bits[nodes] == 1]
    if below.size:
        raise BitstreamError(
            "tree bits split below the maximum depth", offset=_HEADER_LEN + int(below.min()) // 8
        )
    if not ends.size:
        raise BitstreamError("truncated tree description", offset=len(data))
    return node_level[bits == 0], n_bits


def _quantize_array(values: np.ndarray, q_bits: int) -> tuple[np.ndarray, np.ndarray]:
    levels = (1 << q_bits) - 1
    clamped = np.clip(values, 0.0, 1.0)
    index = np.floor(clamped * levels + 0.5).astype(np.int64)
    return index, index / levels


def encode(w, nu: float, d: int | None = None, q_bits: int = 8) -> Bitstream:
    """Encode ``w`` (length a power of two, finite samples) at Lagrangian weight ``nu``.

    ``d`` defaults to the maximal depth log2(len(w)). Returns the pruned tree
    as a :class:`Bitstream`.
    """
    w = np.asarray(w, dtype=float)
    m = w.size
    if m < 2 or m & (m - 1):
        raise ValueError(f"signal length must be a power of two >= 2, got {m}")
    if m > MAX_LEN:
        raise ValueError(f"signal length {m} exceeds MAX_LEN={MAX_LEN}")
    d0 = m.bit_length() - 1
    if d is None:
        d = d0
    if not 1 <= d <= d0:
        raise ValueError(f"depth must be in [1, {d0}], got {d}")
    if not nu >= 0:  # also rejects NaN
        raise ValueError("nu must be non-negative")
    if not 1 <= q_bits <= MAX_Q_BITS:
        raise ValueError(f"q_bits must be in [1, {MAX_Q_BITS}], got {q_bits}")
    if not np.isfinite(w).all():
        raise ValueError("signal contains non-finite samples")

    # Moments of the level-d segments in one direct pass (none at width 1, where
    # m2 is exactly 0); each shallower level merges its children's.
    width = m >> d
    if width == 1:
        sums = mean = w
        m2 = np.zeros(m)
    else:
        segments = w.reshape(1 << d, width)
        sums = segments.sum(axis=1)
        mean = sums / width
        m2 = ((segments - mean[:, None]) ** 2).sum(axis=1)

    # Bottom-up exact minimization: a node splits only when its children's
    # combined best cost does not exceed its own leaf cost (merge on strict >).
    leaf_bits = float(nu) * q_bits
    indices = [None] * (d + 1)
    split = [None] * d + [np.zeros(1 << d, dtype=bool)]
    for level in range(d, -1, -1):
        if level < d:
            delta = mean[0::2] - mean[1::2]
            m2 = m2[0::2] + m2[1::2] + delta * delta * (width / 2)
            width *= 2
            sums = sums[0::2] + sums[1::2]
            mean = sums / width
        indices[level], recon = _quantize_array(mean, q_bits)
        cost = m2 + width * (mean - recon) ** 2 + leaf_bits
        if level < d:
            child_sum = best[0::2] + best[1::2]
            split[level] = keep = child_sum <= cost
            cost = np.where(keep, child_sum, cost)
        best = cost

    # Top-down: the nodes reached through splits that are not split are leaves.
    starts, levels, leaf_indices = [], [], []
    reached = np.ones(1, dtype=bool)
    for level in range(d + 1):
        pos = np.flatnonzero(reached & ~split[level])
        starts.append(pos << (d0 - level))
        levels.append(np.full(pos.size, level))
        leaf_indices.append(indices[level][pos])
        reached = np.repeat(reached & split[level], 2)
        if not reached.any():
            break
    order = np.argsort(np.concatenate(starts))
    return Bitstream(
        d0=d0,
        d=d,
        q_bits=q_bits,
        m=m,
        leaf_levels=np.concatenate(levels)[order],
        leaf_indices=np.concatenate(leaf_indices)[order],
    )


def decode(data: Bitstream | bytes) -> np.ndarray:
    """Decode a stream (parsed or raw bytes) into the reconstructed signal."""
    stream = data if isinstance(data, Bitstream) else Bitstream.from_bytes(data)
    levels = (1 << stream.q_bits) - 1
    return np.repeat(stream.leaf_indices / levels, stream.m >> stream.leaf_levels)


class TreeCodecPlug:
    """Adapter exposing the tree codec through the generic codec interface.

    ``compress(signal, theta)`` interprets theta as the Lagrangian weight nu.
    The plug remembers the last blob it produced together with its coded tree,
    so ``decompress`` and ``rate_bits`` on those same bytes skip the parse; any
    other bytes are parsed (and rejected when malformed) as by
    :meth:`Bitstream.from_bytes`.
    """

    def __init__(self, depth: int | None = None, q_bits: int = 8):
        self.depth = depth
        self.q_bits = int(q_bits)
        self._last: tuple[bytes, Bitstream] | None = None

    def compress(self, signal, theta: float) -> bytes:
        stream = encode(signal, nu=theta, d=self.depth, q_bits=self.q_bits)
        blob = stream.to_bytes()
        self._last = (blob, stream)
        return blob

    def _stream(self, data: bytes) -> Bitstream:
        last = self._last  # read once: the pair is replaced whole
        if last is not None and data == last[0]:
            return last[1]
        return Bitstream.from_bytes(data)

    def decompress(self, data: bytes) -> np.ndarray:
        return decode(self._stream(data))

    def rate_bits(self, data: bytes) -> int:
        return self._stream(data).reported_rate_bits
