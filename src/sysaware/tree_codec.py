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
mean_R)^2 * width_child / 2. Where two trees tie in exact arithmetic, the
merged moments may break the tie either way; the split is kept whenever the
computed children's cost does not exceed the computed leaf cost.

Every node of the depth-d tree sits in one flat heap: level l occupies
positions [2**l - 1, 2**(l+1) - 1), and node p has children 2p + 1 and 2p + 2.
Only the level-to-level recursions make a numpy call per level; all other
work runs once over the whole heap. An encode runs in a workspace built once
per shape (M, d), which holds the heap rows and each level's views of them,
so a call neither allocates a heap-sized row nor slices a level.

An encode is two steps. The analysis, once per signal, builds every node's
quantization index and its leaf cost without the rate term. The prune, once
per nu, adds nu * q_bits to those costs, prunes, and lists the leaves in
left-to-right order. :class:`TreeCodecPlug` keeps its last signal's analysis
and only prunes when the same samples come again.

The prune's stream is valid by construction: its leaves tile the M samples,
each aligned to its width and no deeper than d, and every index is in
[0, 2**q_bits). So it is built without the checks of the :class:`Bitstream`
constructor, which guards every stream that is hand-built or parsed.
"""

from __future__ import annotations

import mmap
import operator
import struct
import threading

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
_HEADER = struct.Struct(">4s3BI")  # magic, d0, d, q_bits, M as 4-byte big-endian


def _integer(name: str, value) -> int:
    """``value`` through ``operator.index``, which also takes a bool: that raises TypeError here."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not the bool {value!r}")
    return operator.index(value)


def _tree_zeros(levels: np.ndarray, heap: np.ndarray) -> np.ndarray:
    """Each leaf's 0 bit in the pre-order tree description, from its level and heap number.

    Leaf k, node i of level l (heap number 2**l + i), is preceded by the split
    bits of its l ancestors and by the popcount(i) whole subtrees to the left
    of its path, which hold its k predecessors and k - popcount(i) splits. So
    its 0 bit sits at 2k + l - popcount(i), and popcount(i) = popcount(2**l + i) - 1.
    """
    zeros = np.arange(1, 2 * levels.size, 2)
    zeros += levels
    zeros -= np.bitwise_count(heap)
    return zeros


class BitstreamError(ValueError):
    """Malformed serialized stream; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class Bitstream:
    """A coded tree: header fields plus its leaves in left-to-right order.

    Leaf i sits at level ``leaf_levels[i]``, covering ``m >> leaf_levels[i]``
    of the m = 2**d0 samples, and ``leaf_indices[i]`` is its quantized mean.

    Wire layout: ``_HEADER``, 11 bytes: magic "SAC1", then d0, d and q_bits
    as single bytes, then M as a 4-byte big-endian integer; the pre-order tree
    description, one bit per visited node (1 = split, 0 = leaf), MSB-first,
    zero-padded to a byte boundary; then q_bits per leaf in left-to-right leaf
    order, MSB-first, zero-padded to a byte boundary. :meth:`from_bytes`
    rejects nonzero padding bits, so each stream has exactly one encoding.

    The constructor takes d0, d and q_bits through ``operator.index``, and a
    bool there raises TypeError naming the field; it takes each row as a 1-D
    integer row (a list too), kept as int64, and a float, bool, object or
    non-1-D row raises ValueError naming it. It then
    checks the header ranges, that the leaves tile the m samples, each
    aligned to its width and no deeper than d, and that every index is in
    [0, 2**q_bits), and raises ValueError otherwise: a stream that exists
    serializes to bytes :meth:`from_bytes` reads back unchanged. The encoder's
    prune, whose stream is valid by construction, builds it through
    :meth:`_valid` without these checks; every other stream, hand-built or
    parsed, passes them.
    """

    def __init__(self, d0: int, d: int, q_bits: int, leaf_levels, leaf_indices):
        self.d0, self.d, self.q_bits = _integer("d0", d0), _integer("d", d), _integer("q_bits", q_bits)
        # d0 < MAX_LEN.bit_length() is 2**d0 <= MAX_LEN without building 2**d0 for any d0
        if not (1 <= self.d <= self.d0 < MAX_LEN.bit_length() and 1 <= self.q_bits <= MAX_Q_BITS):
            raise ValueError(
                f"header d0={self.d0}, d={self.d}, q_bits={self.q_bits} outside "
                f"1 <= d <= d0, 2**d0 <= MAX_LEN, 1 <= q_bits <= {MAX_Q_BITS}"
            )
        for name, values in (("leaf_levels", leaf_levels), ("leaf_indices", leaf_indices)):
            row = np.asarray(values)
            # np.asarray([]) is float64, so an empty row of any dtype passes as empty
            if row.ndim != 1 or row.dtype.kind not in "iu" and row.size:
                raise ValueError(f"{name} must be a 1-D integer row, not a {row.shape} {row.dtype} row")
            setattr(self, name, row.astype(np.int64, copy=False))
        levels = self.leaf_levels
        widths = self.m >> levels
        ends = np.cumsum(widths)
        if not ends.size or ends[-1] != self.m:
            raise ValueError(f"leaves do not tile the {self.m} samples")
        starts = ends - widths
        # a leaf deeper than d0 has width 0, which any start is a multiple of: the depth check rejects it
        if levels.min() < 0 or (starts % np.maximum(widths, 1)).any():
            raise ValueError("a leaf does not start at a multiple of its width")
        if levels.max() > self.d:
            raise ValueError(f"a leaf level exceeds the depth d={self.d}")
        # the indices' OR has a bit at q_bits or above (the sign bit, for a
        # negative index) exactly when some index is outside [0, 2**q_bits)
        if np.bitwise_or.reduce(self.leaf_indices) >> self.q_bits:
            raise ValueError(f"a leaf index is outside [0, 2**q_bits) for q_bits={self.q_bits}")
        # node i of level l starts at i * 2**(d0 - l), so its heap number 2**l + i is (start + m) >> (d0 - l)
        self._zeros = _tree_zeros(levels, (starts + self.m) >> (self.d0 - levels))

    @classmethod
    def _valid(cls, d0: int, d: int, q_bits: int, leaf_levels, leaf_indices, heap) -> "Bitstream":
        """The stream of int64 rows that the caller guarantees pass every check of
        the constructor, built without running them; ``heap`` holds each leaf's heap number 2**l + i."""
        stream = cls.__new__(cls)
        stream.d0, stream.d, stream.q_bits = d0, d, q_bits
        stream.leaf_levels, stream.leaf_indices = leaf_levels, leaf_indices
        stream._zeros = _tree_zeros(leaf_levels, heap)
        return stream

    @property
    def m(self) -> int:
        return 1 << self.d0

    @property
    def reported_rate_bits(self) -> int:
        """Rate charged by the codec: payload bits only, q_bits per leaf."""
        return self.q_bits * len(self.leaf_indices)

    def to_bytes(self) -> bytes:
        tree = np.ones(2 * self.leaf_levels.size - 1, dtype=np.uint8)
        tree[self._zeros] = 0
        # (-q_bits) // 8 = -ceil(q_bits / 8): an index's trailing bytes hold its low q_bits
        index_bytes = self.leaf_indices.astype(">u8").view(np.uint8).reshape(-1, 8)[:, (-self.q_bits) // 8 :]
        if self.q_bits % 8:  # drop each index's unused high bits and pack the rest
            payload = np.packbits(np.unpackbits(index_bytes, axis=1)[:, -self.q_bits :]).tobytes()
        else:
            payload = index_bytes.tobytes()
        return _HEADER.pack(MAGIC, self.d0, self.d, self.q_bits, self.m) + np.packbits(tree).tobytes() + payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "Bitstream":
        if len(data) < _HEADER.size:
            raise BitstreamError("truncated header", offset=len(data))
        magic, d0, d, q_bits, m = _HEADER.unpack_from(data)
        if magic != MAGIC:
            raise BitstreamError(f"bad magic {magic!r}", offset=0)
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
        payload_start = _HEADER.size + (n_bits + 7) // 8
        expected_len = payload_start + (q_bits * n_leaves + 7) // 8
        if len(data) < expected_len:
            raise BitstreamError(
                f"truncated leaf payload: need {expected_len} bytes, have {len(data)}",
                offset=len(data),
            )
        if len(data) > expected_len:
            raise BitstreamError("trailing data after leaf payload", offset=expected_len)
        # padding bits are zero, so each stream has exactly one encoding
        for end, used, section in (
            (payload_start, n_bits, "tree description"),
            (expected_len, q_bits * n_leaves, "leaf payload"),
        ):
            if data[end - 1] & (0xFF >> ((used - 1) % 8 + 1)):  # the bits after the last used one
                raise BitstreamError(f"nonzero padding bits after the {section}", offset=end - 1)

        payload = np.unpackbits(
            np.frombuffer(data, dtype=np.uint8, offset=payload_start), count=q_bits * n_leaves
        )
        indices = payload.reshape(n_leaves, q_bits) @ (1 << np.arange(q_bits - 1, -1, -1))
        return cls(d0=d0, d=d, q_bits=q_bits, leaf_levels=levels, leaf_indices=indices)


def _parse_tree(data: bytes, d: int) -> tuple[np.ndarray, int]:
    """Read the pre-order tree section; return (leaf levels, bits consumed).

    A walk that neither ends nor splits below depth d visits distinct nodes of
    the full depth-d tree, so it decides within its 2**(d+1) - 1 bits.
    """
    n_bytes = ((1 << (d + 1)) + 6) // 8
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8, offset=_HEADER.size)[:n_bytes])
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
            "tree bits split below the maximum depth", offset=_HEADER.size + int(below.min()) // 8
        )
    if not ends.size:
        raise BitstreamError("truncated tree description", offset=len(data))
    return node_level[bits == 0], n_bits


def encode(w, nu: float, d: int | None = None, q_bits: int = 8) -> Bitstream:
    """Encode ``w`` (1-D, length a power of two, |samples| <= MAX_ABS) at Lagrangian weight ``nu``.

    ``d`` (by default the maximal depth log2(len(w))) and ``q_bits`` are
    integers, not bools. Returns the pruned tree as a :class:`Bitstream`.
    ``nu`` must be non-negative with nu * q_bits finite.
    """
    return _prune(_analyze(w, d, q_bits), nu)


class _Workspace:
    """The rows, and the views of them, that every encode of the depth-d heap over m samples uses.

    Five heap-sized float rows share one anonymous mapping: ``width``, which
    the shape alone fixes; ``leaf_cost`` and ``index``, the two rows an
    analysis keeps; and ``mean`` and ``work``, its temporaries, which a prune
    reuses as its cost copy and, in ``work``'s front half, its children row.
    The prune's ``split`` and ``reached`` flags are bool views of the back
    half. Each level-to-level recursion runs on views built here once, a tuple
    per level: ``sum_levels`` and ``m2_levels`` (the analysis's merges),
    ``min_levels`` (the prune's minimization), all from the deepest parents
    up, and ``mark_levels`` (the top-down marking) from the root down.

    ``q_bits`` is that of the analysis the rows hold; :class:`TreeCodecPlug`
    keeps the key of that analysis itself.
    """

    def __init__(self, m: int, d: int):
        n_nodes = (2 << d) - 1
        n_parents = n_nodes >> 1
        self.m, self.d, self.q_bits = m, d, 0
        # A plug's rows outlive its calls, so they get their own mapping: held
        # in malloc's heap, a long-lived block of 0.5 MB or more changed how glibc
        # trims it, so later calls took fresh pages and the process held more memory.
        rows = np.frombuffer(mmap.mmap(-1, 40 * n_nodes), dtype=np.float64).reshape(5, n_nodes)
        self.width, self.leaf_cost, self.index, self.mean, self.work = rows
        flags = self.work[n_parents:].view(bool)
        self.split, self.reached = flags[:n_nodes], flags[n_nodes : 2 * n_nodes]
        self.width[n_parents:] = m >> d
        self.sum_levels, self.m2_levels, self.min_levels, self.mark_levels = [], [], [], []
        mean, cost, work, split = self.mean, self.leaf_cost, self.work, self.split
        for level in range(d):
            first = (1 << level) - 1
            node = slice(first, 2 * first + 1)
            left, right = slice(2 * first + 1, 4 * first + 3, 2), slice(2 * first + 2, 4 * first + 3, 2)
            self.width[node] = m >> level
            sums = mean[node], mean[left], mean[right]
            self.sum_levels.insert(0, sums)
            self.m2_levels.insert(0, (cost[node], cost[left], cost[right], work[node]))
            self.min_levels.insert(0, (*sums, work[node], split[node]))
            if level < d - 1:
                self.mark_levels.append((split[node], split[left], split[right]))


def _analyze(w, d: int | None, q_bits: int, workspace: _Workspace | None = None) -> _Workspace:
    """The nu-free part of :func:`encode`: validate, then build the heap's
    statistics in ``workspace``, or in a new one if it is None or of another shape."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 1:
        raise ValueError(f"signal must be 1-D, its length a power of two, got shape {w.shape}")
    m = w.size
    if m < 2 or m & (m - 1):
        raise ValueError(f"signal length must be a power of two >= 2, got {m}")
    if m > MAX_LEN:
        raise ValueError(f"signal length {m} exceeds MAX_LEN={MAX_LEN}")
    d0 = m.bit_length() - 1
    d, q_bits = d0 if d is None else _integer("d", d), _integer("q_bits", q_bits)
    if not 1 <= d <= d0:
        raise ValueError(f"depth must be in [1, {d0}], got {d}")
    if not 1 <= q_bits <= MAX_Q_BITS:
        raise ValueError(f"q_bits must be in [1, {MAX_Q_BITS}], got {q_bits}")
    # two reductions and no temporary; NaN fails both comparisons
    if not (-MAX_ABS <= w.min() and w.max() <= MAX_ABS):
        raise ValueError(f"signal contains non-finite samples or samples beyond MAX_ABS={MAX_ABS:.4g}")

    ws = workspace
    if ws is None or ws.m != m or ws.d != d:
        ws = _Workspace(m, d)
    ws.q_bits = q_bits
    width, cost, index, mean, work = ws.width, ws.leaf_cost, ws.index, ws.mean, ws.work
    sums, m2 = mean, cost  # in place, the sums become the means and m2 the leaf costs
    n_parents = width.size >> 1

    # Sum and second moment of the level-d segments in one direct pass (m2 is
    # exactly 0 at width 1); each shallower level merges its children's.
    if m == 1 << d:
        sums[n_parents:] = w
        m2[n_parents:] = 0.0
    else:
        segments = w.reshape(1 << d, m >> d)
        segments.sum(axis=1, out=sums[n_parents:])
        deviation = segments - (sums[n_parents:] / (m >> d))[:, None]
        np.square(deviation, out=deviation)
        deviation.sum(axis=1, out=m2[n_parents:])
    for node, left, right in ws.sum_levels:
        np.add(left, right, out=node)
    np.divide(sums, width, out=mean)
    # (mean_L - mean_R)^2 * width_child / 2 for every parent at once; the
    # parents' m2 rows are still free and hold width_child / 2 meanwhile.
    merge, half_width = work[:n_parents], m2[:n_parents]
    np.subtract(mean[1::2], mean[2::2], out=merge)
    np.multiply(merge, merge, out=merge)
    np.multiply(width[1::2], 0.5, out=half_width)
    np.multiply(merge, half_width, out=merge)
    for parent, left, right, merged in ws.m2_levels:
        np.add(left, right, out=parent)
        np.add(parent, merged, out=parent)

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
    return ws


def _prune(ws: _Workspace, nu: float) -> Bitstream:
    """The nu-dependent part of :func:`encode`: the optimal pruned tree's leaves
    for the analysis ``ws`` holds, which it reads and leaves unchanged."""
    if not nu >= 0:  # also rejects NaN
        raise ValueError("nu must be non-negative")
    q_bits = ws.q_bits
    rate = float(nu) * q_bits
    if not rate < np.inf:  # all costs inf would tie, and a tie splits: the finest tree
        raise ValueError(f"nu * q_bits must be finite, got nu={nu!r} and q_bits={q_bits}")
    cost, split, reached = ws.mean, ws.split, ws.reached
    n_parents = cost.size >> 1
    np.add(ws.leaf_cost, rate, out=cost)

    # Bottom-up exact minimization: a node splits only when its children's
    # combined best cost does not exceed its own leaf cost (merge on strict >).
    split[n_parents:] = False
    for parent, left, right, children, splits in ws.min_levels:
        np.add(left, right, out=children)
        np.less_equal(children, parent, out=splits)
        np.minimum(parent, children, out=parent)

    # Top-down: a node is reached when every ancestor splits, and the reached
    # nodes that do not split are the leaves. ``split`` becomes reached & split.
    for parent, left, right in ws.mark_levels:
        np.logical_and(left, parent, out=left)
        np.logical_and(right, parent, out=right)
    reached[0] = True
    reached[1::2] = reached[2::2] = split[:n_parents]
    number = np.greater(reached, split, out=reached).nonzero()[0]
    number += 1  # heap number p + 1 = 2**l + i of node i of level l
    # frexp gives the level as the exponent minus 1 and orders the leaves by
    # start i / 2**l through the mantissa (2**l + i) / 2**(l+1). nonzero lists
    # the leaves level by level, so the mantissas are d + 1 ascending runs,
    # which a stable sort (timsort) merges. Each leaf-sized row is updated in
    # place or dropped as soon as it can be, which keeps the prune's peak
    # memory low at high rate.
    mantissa, exponent = np.frexp(number)
    order = np.argsort(mantissa, kind="stable")
    del mantissa
    number, levels = number[order], exponent[order].astype(np.int64)
    del exponent, order
    levels -= 1
    indices = ws.index[number - 1].astype(np.int64)
    return Bitstream._valid(ws.m.bit_length() - 1, ws.d, q_bits, levels, indices, heap=number)


def decode(data: Bitstream | bytes) -> np.ndarray:
    """Decode a stream (parsed or raw bytes) into the reconstructed signal."""
    stream = data if isinstance(data, Bitstream) else Bitstream.from_bytes(data)
    levels = (1 << stream.q_bits) - 1
    return np.repeat(stream.leaf_indices / levels, stream.m >> stream.leaf_levels)


class TreeCodecPlug:
    """Adapter exposing the tree codec through the generic codec interface.

    ``compress(signal, theta)`` interprets theta as the Lagrangian weight nu.
    The plug codes in one workspace, kept from call to call and rebuilt only
    when the signal's length or the depth changes: five rows of 2**(d+1) - 1
    floats, 5 MB at M = 2**16, and a per-level view of each recursion. A rate
    ladder codes one signal at many nu, and only the pruning depends on nu, so
    the workspace also keeps the last signal's analysis (the leaf costs
    without the rate term and the quantization indices) keyed on the signal's
    float64 bytes, its shape, the depth and q_bits: compressing the same bytes
    again only prunes. A changed sample, even 0.0 against -0.0, is a new
    signal. The ADMM loop, which codes a new signal on every iteration, would
    gain nothing from keeping more analyses. The plug holds that key, and
    calls take turns: each holds a lock across its analysis and its prune.

    The plug also remembers the last blob it produced together with its coded
    tree, so ``decompress`` and ``rate_bits`` on those same bytes skip the
    parse; any other bytes are parsed (and rejected when malformed) as by
    :meth:`Bitstream.from_bytes`. A depth or q_bits that is a bool or not
    integral raises TypeError here, before any coding.
    """

    def __init__(self, depth: int | None = None, q_bits: int = 8):
        self.depth = None if depth is None else _integer("depth", depth)
        if self.depth is not None and self.depth < 1:
            raise ValueError(f"depth must be None (finest) or >= 1, got {depth}")
        self.q_bits = _integer("q_bits", q_bits)
        if not 1 <= self.q_bits <= MAX_Q_BITS:
            raise ValueError(f"q_bits must be in [1, {MAX_Q_BITS}], got {q_bits}")
        self._workspace: _Workspace | None = None
        self._source: tuple | None = None  # the key of the workspace's analysis
        self._lock = threading.Lock()
        self._last: tuple[bytes, Bitstream] | None = None

    def compress(self, signal, theta: float) -> bytes:
        w = np.asarray(signal, dtype=float)
        bits = w.view(np.int64)  # compared bit for bit, so 0.0 and -0.0 differ
        key = (w.shape, self.depth, self.q_bits)
        with self._lock:
            source = self._source
            if source is None or source[0] != key or not np.array_equal(source[1], bits):
                self._source = None  # the analysis that follows overwrites the rows
                self._workspace = _analyze(w, self.depth, self.q_bits, self._workspace)
                self._source = (key, bits.copy())
            stream = _prune(self._workspace, theta)
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
