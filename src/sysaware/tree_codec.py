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

The encoder keeps every node of the depth-d tree in one flat heap: level l
occupies positions [2**l - 1, 2**(l+1) - 1), and node p has children 2p + 1
and 2p + 2, so each level and its children are plain slices. A numpy call
has a fixed overhead that outweighs its per-element work on small rows, so
the work is arranged in few calls: only the recursions from one level to the
next (the sums, the m2 merge, the pruning, and the top-down marking of
reached nodes) make a call per level, and everything else (the means, the
quantization, every leaf cost) runs once over the whole heap. The node
widths, which the shape (M, d) alone fixes, are built once per shape and
cached read-only. The float work runs in heap-sized rows reused in place
through ``out=``: at M = 2**16 fresh temporaries cost more in allocation and
page faults than the arithmetic they feed.

Only the rate term nu * q_bits depends on nu, so an encode is two steps. The
analysis, once per signal, builds the sums, m2, means and quantization
indices and every node's leaf cost without the rate term; it keeps two rows
(those leaf costs and the indices). The prune, once per nu, adds nu * q_bits
to a copy of the leaf costs, runs the bottom-up pruning and the top-down
marking, and lists the leaves. A rate ladder codes one signal at many nu, so
:class:`TreeCodecPlug` keeps its last signal's analysis and only prunes when
the same samples come again: the analysis reads every sample, while a
prune reads only the heap and lists fewer leaves the higher nu is.
"""

from __future__ import annotations

import functools
import mmap
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "MAGIC",
    "MAX_ABS",
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
# Largest |sample| the encoder accepts: a deviation from a segment mean is at
# most 2 * MAX_ABS, so (2 * MAX_ABS)**2 * MAX_LEN = 2**1022 bounds every
# second moment and leaf cost, and no square or sum overflows float64.
MAX_ABS = (2.0**1022 / MAX_LEN) ** 0.5 / 2
MAX_Q_BITS = 52  # widest index whose rounding and reconstruction are exact in float64
_HEADER_LEN = 11  # magic, d0, d, q_bits, M as 4-byte big-endian
# Heap slices of each level that has children, and of their left and right children.
_LEVELS = tuple(
    (slice(f, 2 * f + 1), slice(2 * f + 1, 4 * f + 3, 2), slice(2 * f + 2, 4 * f + 3, 2))
    for f in ((1 << level) - 1 for level in range(MAX_LEN.bit_length() - 1))
)


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
        index_bytes = self.leaf_indices.astype(">u8").view(np.uint8).reshape(-1, 8)
        # (-q_bits) // 8 = -ceil(q_bits / 8): unpack only the trailing bytes holding the low q_bits
        payload = np.unpackbits(index_bytes[:, (-self.q_bits) // 8 :], axis=1)[:, -self.q_bits :]
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


def encode(w, nu: float, d: int | None = None, q_bits: int = 8) -> Bitstream:
    """Encode ``w`` (1-D, length a power of two, |samples| <= MAX_ABS) at Lagrangian weight ``nu``.

    ``d`` defaults to the maximal depth log2(len(w)). Returns the pruned tree
    as a :class:`Bitstream`. ``nu`` must be non-negative with nu * q_bits finite.
    """
    return _prune(_analyze(w, d, q_bits), nu)


class _Analysis(NamedTuple):
    """What an encode computes before ``nu`` enters: the depth-d heap's leaf
    costs without the rate term, and every node's quantization index. A
    prune only reads it, so one analysis serves any number of prunes."""

    m: int
    d: int
    q_bits: int
    leaf_cost: np.ndarray  # m2 + width * (mean - index / levels)^2
    index: np.ndarray  # floor(clamp(mean, 0, 1) * levels + 0.5)


def _analyze(w, d: int | None, q_bits: int) -> _Analysis:
    """The nu-free part of :func:`encode`: validate, then build the heap's statistics."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 1:
        raise ValueError(f"signal must be 1-D, its length a power of two, got shape {w.shape}")
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
    if not 1 <= q_bits <= MAX_Q_BITS:
        raise ValueError(f"q_bits must be in [1, {MAX_Q_BITS}], got {q_bits}")
    # two reductions and no temporary; NaN fails both comparisons
    if not (-MAX_ABS <= w.min() and w.max() <= MAX_ABS):
        raise ValueError(f"signal contains non-finite samples or samples beyond MAX_ABS={MAX_ABS:.4g}")

    n_nodes = (2 << d) - 1
    n_parents = n_nodes >> 1
    width = _node_widths(m, d)
    # the analysis keeps cost and index and drops mean and work; four rows
    # apiece, since unpacking a 2-D block into rows costs more at M = 256
    cost, index = np.empty(n_nodes), np.empty(n_nodes)
    mean, work = np.empty(n_nodes), np.empty(n_nodes)
    sums, m2 = mean, cost  # in place, the sums become the means and m2 the leaf costs

    # Sum and second moment of the level-d segments in one direct pass (m2 is
    # exactly 0 at width 1); each shallower level merges its children's.
    bottom = slice(n_parents, n_nodes)
    if m == 1 << d:
        sums[bottom] = w
        m2[bottom] = 0.0
    else:
        segments = w.reshape(1 << d, m >> d)
        segments.sum(axis=1, out=sums[bottom])
        deviation = segments - (sums[bottom] / (m >> d))[:, None]
        np.square(deviation, out=deviation)
        deviation.sum(axis=1, out=m2[bottom])
    for node, left, right in reversed(_LEVELS[:d]):
        np.add(sums[left], sums[right], out=sums[node])
    np.divide(sums, width, out=mean)
    # (mean_L - mean_R)^2 * width_child / 2 for every parent at once; the
    # parents' m2 rows are still free and hold width_child / 2 meanwhile.
    merge = work[:n_parents]
    np.subtract(mean[1::2], mean[2::2], out=merge)
    np.multiply(merge, merge, out=merge)
    np.multiply(width[1::2], 0.5, out=m2[:n_parents])
    np.multiply(merge, m2[:n_parents], out=merge)
    for node, left, right in reversed(_LEVELS[:d]):
        parent = m2[node]
        np.add(m2[left], m2[right], out=parent)
        np.add(parent, merge[node], out=parent)

    # Every node's leaf cost m2 + width * (mean - index / levels)^2 at once,
    # with index = floor(clamp(mean, 0, 1) * levels + 0.5).
    levels = (1 << q_bits) - 1
    np.maximum(mean, 0.0, out=index)
    np.minimum(index, 1.0, out=index)
    np.multiply(index, levels, out=index)
    np.add(index, 0.5, out=index)
    np.floor(index, out=index)
    error = np.divide(index, levels, out=work)
    np.subtract(mean, error, out=error)
    np.square(error, out=error)
    np.multiply(error, width, out=error)
    np.add(m2, error, out=cost)
    return _Analysis(m, d, q_bits, cost, index)


def _prune(analysis: _Analysis, nu: float) -> Bitstream:
    """The nu-dependent part of :func:`encode`: the optimal pruned tree's leaves."""
    if not nu >= 0:  # also rejects NaN
        raise ValueError("nu must be non-negative")
    m, d, q_bits, leaf_cost, index = analysis
    rate = float(nu) * q_bits
    if not rate < np.inf:  # all costs inf would tie, and a tie splits: the finest tree
        raise ValueError(f"nu * q_bits must be finite, got nu={nu!r} and q_bits={q_bits}")
    n_nodes = leaf_cost.size
    n_parents = n_nodes >> 1
    cost, work = np.empty(n_nodes), np.empty(n_parents)
    np.add(leaf_cost, rate, out=cost)
    split = np.empty(n_nodes, dtype=bool)

    # Bottom-up exact minimization: a node splits only when its children's
    # combined best cost does not exceed its own leaf cost (merge on strict >).
    split[n_parents:] = False
    for node, left, right in reversed(_LEVELS[:d]):
        parent, children = cost[node], work[node]
        np.add(cost[left], cost[right], out=children)
        np.less_equal(children, parent, out=split[node])
        np.minimum(parent, children, out=parent)

    # Top-down: a node is reached when every ancestor splits, and the reached
    # nodes that do not split are the leaves. ``split`` becomes reached & split.
    for node, left, right in _LEVELS[: d - 1]:
        parent = split[node]
        np.logical_and(split[left], parent, out=split[left])
        np.logical_and(split[right], parent, out=split[right])
    reached = np.empty(n_nodes, dtype=bool)
    reached[0] = True
    reached[1::2] = reached[2::2] = split[:n_parents]
    pos = np.greater(reached, split, out=reached).nonzero()[0]
    # p + 1 = (2**l + i) for node i of level l, so frexp gives its level as
    # the exponent minus 1 and orders the leaves by start i / 2**l through the
    # mantissa (2**l + i) / 2**(l+1).
    mantissa, exponent = np.frexp(pos + 1)
    order = np.argsort(mantissa)
    return Bitstream(
        d0=m.bit_length() - 1, d=d, q_bits=q_bits, m=m,
        leaf_levels=exponent[order].astype(np.int64) - 1,
        leaf_indices=index[pos[order]].astype(np.int64),
    )


@functools.lru_cache(maxsize=4)
def _node_widths(m: int, d: int) -> np.ndarray:
    """Width of every node of the depth-d heap over m samples, as read-only floats.

    The row outlives every call, so it gets its own anonymous mapping: held in
    malloc's heap, a long-lived block of 0.5 MB or more changed how glibc trims
    it, so later calls took fresh pages and the process held more memory.
    """
    n_nodes = (2 << d) - 1
    width = np.frombuffer(mmap.mmap(-1, 8 * n_nodes), dtype=np.float64)
    width[n_nodes >> 1 :] = m >> d
    for level, (node, _, _) in enumerate(_LEVELS[:d]):
        width[node] = m >> level
    width.flags.writeable = False
    return width


def decode(data: Bitstream | bytes) -> np.ndarray:
    """Decode a stream (parsed or raw bytes) into the reconstructed signal."""
    stream = data if isinstance(data, Bitstream) else Bitstream.from_bytes(data)
    levels = (1 << stream.q_bits) - 1
    return np.repeat(stream.leaf_indices / levels, stream.m >> stream.leaf_levels)


class TreeCodecPlug:
    """Adapter exposing the tree codec through the generic codec interface.

    ``compress(signal, theta)`` interprets theta as the Lagrangian weight nu.
    A rate ladder codes one signal at many nu, and only the pruning depends on
    nu, so the plug keeps the last signal's analysis (the leaf costs without
    the rate term and the quantization indices, two heap-sized rows) keyed on
    the signal's float64 bytes, its shape, the depth and q_bits: compressing
    the same bytes again only prunes. A changed sample, even 0.0 against
    -0.0, is a new signal. At most one analysis is kept, and the old one is
    dropped before the next is built, so two never coexist: at M = 2**16 one
    is 2 MB, and the ADMM loop, which codes a new signal on every iteration,
    would gain nothing from more.

    The plug also remembers the last blob it produced together with its coded
    tree, so ``decompress`` and ``rate_bits`` on those same bytes skip the
    parse; any other bytes are parsed (and rejected when malformed) as by
    :meth:`Bitstream.from_bytes`.
    """

    def __init__(self, depth: int | None = None, q_bits: int = 8):
        if depth is not None and not depth >= 1:
            raise ValueError(f"depth must be None (finest) or >= 1, got {depth}")
        self.depth = depth
        self.q_bits = int(q_bits)
        if not 1 <= self.q_bits <= MAX_Q_BITS:
            raise ValueError(f"q_bits must be in [1, {MAX_Q_BITS}], got {q_bits}")
        # (shape, depth, q_bits), the signal's bits, and its analysis
        self._analysis: tuple[tuple, np.ndarray, _Analysis] | None = None
        self._last: tuple[bytes, Bitstream] | None = None

    def compress(self, signal, theta: float) -> bytes:
        w = np.asarray(signal, dtype=float)
        bits = w.view(np.int64)  # compared bit for bit, so 0.0 and -0.0 differ
        key = (w.shape, self.depth, self.q_bits)
        cached = self._analysis  # read once: the triple is replaced whole
        # with the shapes equal and nonempty, the first sample turns away most
        # new signals (one per ADMM iteration) without a pass over all of them
        if (
            cached is None
            or cached[0] != key
            or cached[1].item(0) != bits.item(0)
            or not np.array_equal(cached[1], bits)
        ):
            cached = self._analysis = None
            analysis = _analyze(w, self.depth, self.q_bits)
            cached = self._analysis = (key, bits.copy(), analysis)
        stream = _prune(cached[2], theta)
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
