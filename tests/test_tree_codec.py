"""Tree codec tests.

The optimality checks enumerate every pruned subtree (677 of them at depth 4)
and score each candidate with one shared cost function, so the encoder's
output can be compared against the exhaustive minimum bit for bit. The
moment-merging encoder is compared with a direct-statistics oracle on larger
signals. The wire format is checked against scalar bit-by-bit reference
walkers.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sysaware import tree_codec
from sysaware.tree_codec import (
    MAGIC,
    MAX_ABS,
    MAX_LEN,
    MAX_Q_BITS,
    Bitstream,
    BitstreamError,
    TreeCodecPlug,
    decode,
    encode,
)

from oracles import oracle_to_bytes

# ---------------------------------------------------------------- oracles #


def quantize(value: float, q_bits: int) -> tuple[int, float]:
    """Uniform scalar quantization of a value clamped to [0, 1].

    Returns (index, reconstruction) with index = round(value * (2**q_bits - 1)),
    ties rounding up, and reconstruction = index / (2**q_bits - 1).
    """
    if q_bits < 1:
        raise ValueError("q_bits must be >= 1")
    levels = (1 << q_bits) - 1
    clamped = min(max(float(value), 0.0), 1.0)
    index = int(np.floor(clamped * levels + 0.5))
    return index, index / levels


def segment_mean(w, interval: tuple[int, int]) -> float:
    """Mean of w over the half-open interval [start, stop)."""
    w = np.asarray(w, dtype=float)
    start, stop = interval
    if not 0 <= start < stop <= w.size:
        raise ValueError(f"invalid interval [{start}, {stop}) for length {w.size}")
    return float(w[start:stop].mean())


def enumerate_partitions(depth_left, level=0, start=0, stop=None, m=None):
    """Yield every leaf partition reachable by pruning a depth-d binary tree."""
    if stop is None:
        stop = m
    yield [(level, start, stop)]
    if depth_left == 0:
        return
    mid = (start + stop) // 2
    for left in enumerate_partitions(depth_left - 1, level + 1, start, mid):
        for right in enumerate_partitions(depth_left - 1, level + 1, mid, stop):
            yield left + right


def partition_cost(w, partition, nu, q_bits):
    """Lagrangian cost of a candidate partition, same arithmetic as the codec."""
    total = 0.0
    for _, start, stop in partition:
        _, recon = quantize(segment_mean(w, (start, stop)), q_bits)
        total += float(((w[start:stop] - recon) ** 2).sum()) + nu * q_bits
    return total


def oracle_encode(w, nu, d, q_bits):
    """Encoder that computes every level's segment statistics directly from the
    samples (four full passes per level) instead of merging child moments."""
    m = w.size
    d0 = m.bit_length() - 1
    levels_q = (1 << q_bits) - 1
    indices, costs = [], []
    for level in range(d + 1):
        segments = w.reshape(1 << level, m >> level)
        q_index = np.floor(np.clip(segments.mean(axis=1), 0.0, 1.0) * levels_q + 0.5)
        q_index = q_index.astype(np.int64)
        sse = ((segments - (q_index / levels_q)[:, None]) ** 2).sum(axis=1)
        indices.append(q_index)
        costs.append(sse + nu * q_bits)
    best = costs[d]
    split = [None] * d + [np.zeros(1 << d, dtype=bool)]
    for level in range(d - 1, -1, -1):
        child_sum = best[0::2] + best[1::2]
        split[level] = child_sum <= costs[level]
        best = np.where(split[level], child_sum, costs[level])
    starts, leaf_levels, leaf_indices = [], [], []
    reached = np.ones(1, dtype=bool)
    for level in range(d + 1):
        pos = np.flatnonzero(reached & ~split[level])
        starts.append(pos << (d0 - level))
        leaf_levels.append(np.full(pos.size, level))
        leaf_indices.append(indices[level][pos])
        reached = np.repeat(reached & split[level], 2)
    order = np.argsort(np.concatenate(starts))
    return Bitstream(
        d0=d0,
        d=d,
        q_bits=q_bits,
        m=m,
        leaf_levels=np.concatenate(leaf_levels)[order],
        leaf_indices=np.concatenate(leaf_indices)[order],
    )


def leaf_partition(stream):
    """(level, start, stop) of each leaf of a coded tree, left to right."""
    widths = stream.m >> stream.leaf_levels
    stops = np.cumsum(widths)
    return list(zip(stream.leaf_levels.tolist(), (stops - widths).tolist(), stops.tolist()))


def oracle_decode(data):
    """Scalar parser and decoder: header checks, pre-order walk, payload read bit by bit."""
    if len(data) < 11:
        raise BitstreamError("truncated header", offset=len(data))
    if data[:4] != MAGIC:
        raise BitstreamError("bad magic", offset=0)
    d0, d, q_bits = data[4], data[5], data[6]
    m = struct.unpack(">I", data[7:11])[0]
    if m > MAX_LEN or m != 1 << d0:
        raise BitstreamError("bad signal length", offset=7)
    if not 1 <= d <= d0:
        raise BitstreamError("bad depth", offset=5)
    if not 1 <= q_bits <= MAX_Q_BITS:
        raise BitstreamError("bad q_bits", offset=6)

    def bit_at(start, pos):
        return (data[start + pos // 8] >> (7 - pos % 8)) & 1

    levels = []
    pending = [0]  # levels of nodes awaiting their bit, pre-order
    pos = 0
    while pending:
        level = pending.pop()
        if pos >= 8 * (len(data) - 11):
            raise BitstreamError("truncated tree description", offset=len(data))
        if bit_at(11, pos):
            if level >= d:
                raise BitstreamError("split below the maximum depth", offset=11 + pos // 8)
            pending += [level + 1, level + 1]  # right pushed first, left popped first
        else:
            levels.append(level)
        pos += 1
    payload_start = 11 + (pos + 7) // 8
    expected_len = payload_start + (q_bits * len(levels) + 7) // 8
    if len(data) < expected_len:
        raise BitstreamError("truncated leaf payload", offset=len(data))
    if len(data) > expected_len:
        raise BitstreamError("trailing data", offset=expected_len)

    out = np.empty(m)
    start = 0
    for leaf, level in enumerate(levels):
        index = 0
        for bit in range(leaf * q_bits, (leaf + 1) * q_bits):
            index = (index << 1) | bit_at(payload_start, bit)
        out[start : start + (m >> level)] = index / ((1 << q_bits) - 1)
        start += m >> level
    return out


def test_partition_enumeration_count():
    # c(d) = 1 + c(d-1)^2 with c(0) = 1: 2, 5, 26, 677
    assert sum(1 for _ in enumerate_partitions(1, m=2)) == 2
    assert sum(1 for _ in enumerate_partitions(2, m=4)) == 5
    assert sum(1 for _ in enumerate_partitions(3, m=8)) == 26
    assert sum(1 for _ in enumerate_partitions(4, m=16)) == 677


# ------------------------------------------------------- scalar utilities #


def test_quantize_examples():
    assert quantize(0.5, 8) == (128, 128 / 255)
    assert quantize(0.0, 8) == (0, 0.0)
    assert quantize(1.0, 8) == (255, 1.0)
    assert quantize(-0.2, 8) == (0, 0.0)  # clamped below
    assert quantize(1.7, 8) == (255, 1.0)  # clamped above
    assert quantize(0.5, 1) == (1, 1.0)  # tie at half a step rounds up


def test_quantize_monotone_and_idempotent():
    rng = np.random.default_rng(0)
    for q in (1, 2, 8, 12):
        values = np.sort(rng.uniform(-0.2, 1.2, size=50))
        idx = [quantize(v, q)[0] for v in values]
        assert all(a <= b for a, b in zip(idx, idx[1:]))
        for v in values:
            _, recon = quantize(v, q)
            assert quantize(recon, q)[1] == recon


def test_quantize_rejects_zero_bits():
    with pytest.raises(ValueError):
        quantize(0.5, 0)


def test_segment_mean_basic():
    w = np.array([1.0, 2.0, 3.0, 4.0])
    assert segment_mean(w, (0, 4)) == 2.5
    assert segment_mean(w, (1, 3)) == 2.5
    assert segment_mean(w, (3, 4)) == 4.0


def test_segment_mean_chirp_prefix_direct_summation():
    from sysaware.system_sim import make_chirp

    w = make_chirp(1024)
    # direct-summation oracle built with the math module only
    acc = math.fsum(
        0.5 + 0.5 * (i / 1024) * math.sin(2 * math.pi * (2 * (i / 1024) + 30 * (i / 1024) ** 2))
        for i in range(256)
    )
    assert abs(segment_mean(w, (0, 256)) - acc / 256) <= 1e-12


def test_segment_mean_rejects_bad_intervals():
    w = np.zeros(8)
    for interval in [(2, 2), (3, 1), (-1, 4), (0, 9)]:
        with pytest.raises(ValueError):
            segment_mean(w, interval)


# ----------------------------------------------------------------- encode #


def test_encode_constant_signal_collapses_to_root():
    stream = encode(np.full(16, 0.5), nu=0.01)
    assert leaf_partition(stream) == [(0, 0, 16)]
    assert stream.leaf_indices.tolist() == [128]
    assert stream.reported_rate_bits == 8
    assert stream.to_bytes()[11:] == bytes([0b00000000, 128])  # one tree bit: a leaf


def test_encode_zero_nu_keeps_full_depth():
    rng = np.random.default_rng(1)
    w = rng.uniform(size=16)
    stream = encode(w, nu=0.0)
    assert stream.leaf_levels.tolist() == [4] * 16


def test_encode_step_signal_matches_enumeration():
    w = np.zeros(16)
    w[8:] = 1.0
    stream = encode(w, nu=0.001, d=4, q_bits=8)
    best = min(partition_cost(w, p, 0.001, 8) for p in enumerate_partitions(4, m=16))
    chosen = partition_cost(w, leaf_partition(stream), 0.001, 8)
    assert chosen == best
    # a two-segment step costs nothing beyond the rate of two leaves
    assert len(stream.leaf_levels) == 2


def test_encode_optimal_over_random_signals():
    rng = np.random.default_rng(42)
    for m, d in [(4, 2), (8, 3), (16, 4)]:
        for nu in (0.0, 1e-4, 1e-3, 1e-2, 0.1):
            for _ in range(5):
                w = rng.uniform(size=m)
                stream = encode(w, nu=nu, d=d)
                chosen = partition_cost(w, leaf_partition(stream), nu, stream.q_bits)
                best = min(
                    partition_cost(w, p, nu, stream.q_bits) for p in enumerate_partitions(d, m=m)
                )
                assert chosen == best


def test_encode_matches_direct_statistics_oracle():
    # Merged moments round differently from direct per-segment passes, so the
    # two encoders may break an exact tie differently: with nu = 0, or with
    # inputs on the quantization grid. Elsewhere the streams must be equal.
    rng = np.random.default_rng(2024)
    for case in range(600):
        d0 = int(rng.integers(1, 12))
        d = int(rng.integers(1, d0 + 1))
        q_bits = int(rng.integers(1, 17))
        nu = 0.0 if case % 4 == 0 else float(10 ** rng.uniform(-6, -1))
        on_grid = case % 3 == 0
        if on_grid:
            w = rng.integers(0, 1 << q_bits, size=1 << d0) / ((1 << q_bits) - 1)
        else:
            w = rng.uniform(size=1 << d0)
        stream = encode(w, nu=nu, d=d, q_bits=q_bits)
        expected = oracle_encode(w, nu, d, q_bits)
        if stream.to_bytes() == expected.to_bytes():
            continue
        assert nu == 0.0 or on_grid, (case, d0, d, q_bits, nu)
        cost, oracle_cost = (
            float(((w - decode(s)) ** 2).sum()) + nu * s.reported_rate_bits
            for s in (stream, expected)
        )
        assert abs(cost - oracle_cost) <= 1e-12 * max(cost, oracle_cost), case


def test_encode_matches_oracle_when_shapes_interleave():
    # the encoder caches the node widths per (M, d); a key missing M or d would
    # hand one shape another's widths
    tree_codec._node_widths.cache_clear()
    rng = np.random.default_rng(99)
    shapes = [(256, 8), (1 << 11, 5), (256, 3), (1 << 16, 16), (256, 8), (1 << 11, 8), (1 << 11, 5)]
    for m, d in shapes:
        w = rng.uniform(size=m)
        nu = 1e-5 if m == 1 << 16 else 1e-3
        stream = encode(w, nu=nu, d=d)
        expected = oracle_encode(w, nu, d, 8)
        assert stream.to_bytes() == expected.to_bytes(), (m, d)
        assert np.array_equal(stream.leaf_levels, expected.leaf_levels), (m, d)
        assert np.array_equal(stream.leaf_indices, expected.leaf_indices), (m, d)


def test_encoder_width_cache_is_read_only_and_shared():
    width = tree_codec._node_widths(1 << 11, 5)
    levels = np.repeat(np.arange(6), 1 << np.arange(6))  # heap order: 2**l nodes at level l
    assert width.dtype == np.float64
    assert np.array_equal(width, (1 << 11) >> levels)
    assert not width.flags.writeable
    with pytest.raises(ValueError):
        width[0] = 0.0
    assert tree_codec._node_widths(1 << 11, 5) is width


def test_encode_leaf_arrays_are_int64():
    # decode and to_bytes shift m by the leaf levels: a narrow level dtype
    # would wrap m = 2**16 and beyond
    w = np.random.default_rng(12).uniform(size=1 << 16)
    stream = encode(w, nu=1e-5)
    assert stream.leaf_levels.dtype == np.int64
    assert stream.leaf_indices.dtype == np.int64
    assert decode(stream).size == 1 << 16
    assert np.array_equal(decode(stream.to_bytes()), decode(stream))


def test_encode_rate_monotone_in_nu():
    rng = np.random.default_rng(5)
    for _ in range(10):
        w = rng.uniform(size=64)
        rates = [encode(w, nu=nu).reported_rate_bits for nu in (0.0, 1e-4, 1e-3, 1e-2, 0.1, 1.0)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_encode_partition_tiles_signal():
    rng = np.random.default_rng(9)
    for _ in range(20):
        w = rng.uniform(size=32)
        d = int(rng.integers(1, 6))
        stream = encode(w, nu=float(rng.uniform(0, 0.05)), d=d)
        widths = 32 >> stream.leaf_levels
        starts = np.cumsum(widths) - widths
        assert widths.sum() == 32
        assert np.all(starts % widths == 0)  # every leaf is a node of the dyadic tree
        assert stream.leaf_levels.max() <= d


def test_encode_argument_errors():
    w = np.zeros(16)
    with pytest.raises(ValueError):
        encode(np.zeros(12), nu=0.0)  # not a power of two
    with pytest.raises(ValueError):
        encode(np.zeros(1), nu=0.0)
    with pytest.raises(ValueError):
        encode(w, nu=-0.1)
    with pytest.raises(ValueError):
        encode(w, nu=float("nan"))
    with pytest.raises(ValueError):
        encode(w, nu=0.0, d=0)
    with pytest.raises(ValueError):
        encode(w, nu=0.0, d=5)
    with pytest.raises(ValueError):
        encode(w, nu=0.0, q_bits=0)
    with pytest.raises(ValueError):
        encode(w, nu=0.0, q_bits=MAX_Q_BITS + 1)


@pytest.mark.parametrize("nu", [math.inf, 1e308])
def test_encode_rejects_a_nu_whose_rate_term_overflows(nu):
    w = np.linspace(0.0, 1.0, 256)
    assert len(encode(w, nu=1e300).leaf_indices) == 1  # a huge finite nu codes one leaf
    with pytest.raises(ValueError, match="nu"):
        encode(w, nu=nu)
    with pytest.raises(ValueError, match="nu"):
        TreeCodecPlug().compress(w, nu)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_encode_rejects_non_finite_samples(bad):
    w = np.full(16, 0.5)
    w[5] = bad
    with pytest.raises(ValueError, match="non-finite"):
        encode(w, nu=0.01)


@pytest.mark.filterwarnings("error")  # an overflowing square would warn first
@pytest.mark.parametrize("bad", [1e200, -1e200, np.nextafter(MAX_ABS, np.inf)])
def test_encode_rejects_samples_beyond_max_abs(bad):
    w = np.full(16, 0.5)
    w[5] = bad
    with pytest.raises(ValueError, match="MAX_ABS"):
        encode(w, nu=1e-3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [1, 12])
def test_samples_at_max_abs_keep_every_leaf_cost_finite(d):
    assert math.isfinite((2 * MAX_ABS) ** 2 * MAX_LEN)  # bounds every m2 and leaf cost
    w = np.resize([MAX_ABS, -MAX_ABS], 1 << 12)  # the widest deviations allowed
    assert np.isfinite(tree_codec._analyze(w, d, 8).leaf_cost).all()
    assert encode(w, nu=1e-3, d=d).leaf_levels.size >= 2


def test_encode_rejects_signal_longer_than_max_len():
    w = np.broadcast_to(0.5, (2 * MAX_LEN,))  # a zero-stride view: nothing is allocated
    with pytest.raises(ValueError, match="MAX_LEN"):
        encode(w, nu=0.01)


@pytest.mark.parametrize("d", [None, 6])
def test_encode_and_plug_reject_a_signal_that_is_not_1d(d):
    w = np.full((2, 128), 0.5)  # 256 samples, so only the shape is wrong
    with pytest.raises(ValueError, match=r"1-D.*\(2, 128\)"):
        encode(w, 1e-3, d=d)
    with pytest.raises(ValueError, match=r"1-D.*\(2, 128\)"):
        TreeCodecPlug(depth=d).compress(w, 1e-3)


# ------------------------------------------------------------- round trip #


def test_round_trip_exact():
    rng = np.random.default_rng(21)
    for _ in range(20):
        w = rng.uniform(size=64)
        nu = float(rng.uniform(0, 0.02))
        q = int(rng.integers(1, 12))
        stream = encode(w, nu=nu, q_bits=q)
        data = stream.to_bytes()
        assert data == oracle_to_bytes(stream)
        parsed = Bitstream.from_bytes(data)
        assert np.array_equal(parsed.leaf_levels, stream.leaf_levels)
        assert np.array_equal(parsed.leaf_indices, stream.leaf_indices)
        assert np.array_equal(decode(data), oracle_decode(data))
        assert np.array_equal(decode(stream), oracle_decode(data))
        assert parsed.reported_rate_bits == q * len(stream.leaf_indices)


# to_bytes unpacks only the trailing ceil(q_bits / 8) bytes of each index:
# one, two, three and seven of them, each full and partly filled
@pytest.mark.parametrize("q_bits", [1, 5, 7, 8, 9, 13, 16, 17, MAX_Q_BITS])
def test_payload_bytes_match_scalar_writer(q_bits):
    w = np.random.default_rng(q_bits).uniform(size=128)
    w[:2] = 0.0, 1.0  # the smallest and largest index
    stream = encode(w, nu=0.0, q_bits=q_bits)
    data = stream.to_bytes()
    assert data == oracle_to_bytes(stream)
    assert np.array_equal(Bitstream.from_bytes(data).leaf_indices, stream.leaf_indices)


def test_single_leaf_stream_decodes_to_constant():
    data = MAGIC + bytes([2, 2, 8]) + struct.pack(">I", 4) + b"\x00" + bytes([128])
    assert np.array_equal(decode(data), np.full(4, 128 / 255))
    stream = Bitstream.from_bytes(data)
    assert stream.leaf_levels.tolist() == [0]
    assert stream.leaf_indices.tolist() == [128]
    assert stream.reported_rate_bits == 8


def test_encoded_constant_half_signal_bytes():
    stream = encode(np.full(4, 0.5), nu=0.01)
    expected = MAGIC + bytes([2, 2, 8]) + struct.pack(">I", 4) + b"\x00" + bytes([128])
    assert stream.to_bytes() == expected


def test_padding_bits_are_zero():
    w = np.arange(16) / 16
    data = encode(w, nu=0.0, q_bits=3).to_bytes()
    # 31 tree bits in 4 bytes, 48 payload bits in 6 bytes
    assert len(data) == 11 + 4 + 6
    assert data[14] & 1 == 0  # final padding bit of the tree section


# ----------------------------------------------------------- parse errors #


def _valid_stream_bytes():
    return encode(np.full(4, 0.5), nu=0.01).to_bytes()


def test_parse_error_bad_magic():
    data = b"XAC1" + _valid_stream_bytes()[4:]
    with pytest.raises(BitstreamError) as err:
        Bitstream.from_bytes(data)
    assert err.value.offset == 0


def test_parse_error_truncated_header():
    with pytest.raises(BitstreamError) as err:
        Bitstream.from_bytes(b"SAC1\x02")
    assert err.value.offset == 5


def test_parse_error_length_field_mismatch():
    data = bytearray(_valid_stream_bytes())
    struct.pack_into(">I", data, 7, 5)
    with pytest.raises(BitstreamError) as err:
        Bitstream.from_bytes(bytes(data))
    assert err.value.offset == 7


def test_parse_error_depth_out_of_range():
    for bad_d in (0, 3):
        data = bytearray(_valid_stream_bytes())
        data[5] = bad_d
        with pytest.raises(BitstreamError) as err:
            Bitstream.from_bytes(bytes(data))
        assert err.value.offset == 5


def test_parse_error_zero_q_bits():
    for bad_q in (0, MAX_Q_BITS + 1):
        data = bytearray(_valid_stream_bytes())
        data[6] = bad_q
        with pytest.raises(BitstreamError) as err:
            Bitstream.from_bytes(bytes(data))
        assert err.value.offset == 6


def test_parse_error_length_above_max_len():
    # consistent header for M = 2**31 and a valid one-leaf tree: decoding it
    # would allocate 16 GiB, so only the parse is attempted
    data = MAGIC + bytes([31, 1, 8]) + struct.pack(">I", 1 << 31) + b"\x00\x80"
    assert len(data) == 13
    with pytest.raises(BitstreamError) as err:
        Bitstream.from_bytes(data)
    assert err.value.offset == 7
    assert "MAX_LEN" in str(err.value)


def test_parse_error_truncated_tree():
    data = _valid_stream_bytes()[:11]
    with pytest.raises(BitstreamError) as err:
        Bitstream.from_bytes(data)
    assert err.value.offset == 11


def test_parse_error_split_below_max_depth():
    data = bytearray(_valid_stream_bytes())
    data[5] = 1  # d = 1, so a split at level 1 is illegal
    data[11] = 0b11000000
    with pytest.raises(BitstreamError) as err:
        Bitstream.from_bytes(bytes(data))
    assert err.value.offset == 11
    assert "below" in str(err.value)


def test_parse_error_truncated_payload():
    data = _valid_stream_bytes()
    with pytest.raises(BitstreamError) as err:
        Bitstream.from_bytes(data[:-1])
    assert err.value.offset == len(data) - 1


def test_parse_error_trailing_data():
    data = _valid_stream_bytes()
    with pytest.raises(BitstreamError) as err:
        Bitstream.from_bytes(data + b"\x00")
    assert err.value.offset == len(data)


@st.composite
def mutated_streams(draw):
    """A valid stream with one to three bit flips, truncations or appended bytes."""
    d0 = draw(st.integers(1, 6))
    d = draw(st.integers(1, d0))
    q_bits = draw(st.integers(1, 12))
    nu = draw(st.sampled_from([0.0, 1e-4, 1e-3, 1e-2, 1e-1]))
    w = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(size=1 << d0)
    data = bytearray(encode(w, nu=nu, d=d, q_bits=q_bits).to_bytes())
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "flip from end", "truncate", "append"]))
        if kind.startswith("flip") and data:
            pos = draw(st.integers(0, 8 * len(data) - 1))
            if kind == "flip from end":  # reach the tree and payload as often as the header
                pos = 8 * len(data) - 1 - pos
            data[pos // 8] ^= 0x80 >> (pos % 8)
        elif kind == "truncate":
            del data[len(data) - draw(st.integers(0, len(data))) :]
        else:
            data += draw(st.binary(min_size=1, max_size=8))
    return bytes(data)


@settings(max_examples=500, deadline=None)
@given(mutated_streams())
def test_parser_matches_scalar_oracle_on_mutated_streams(data):
    try:
        expected = oracle_decode(data)
    except BitstreamError as oracle_err:
        with pytest.raises(BitstreamError) as err:
            decode(data)
        assert err.value.offset == oracle_err.offset
    else:
        assert np.array_equal(decode(data), expected)


# ------------------------------------------------------------------- plug #


def test_plug_matches_library_calls():
    rng = np.random.default_rng(33)
    w = rng.uniform(size=32)
    plug = TreeCodecPlug(q_bits=8)
    blob = plug.compress(w, 0.003)
    stream = encode(w, nu=0.003, q_bits=8)
    assert blob == stream.to_bytes()
    assert np.array_equal(plug.decompress(blob), oracle_decode(blob))
    assert plug.rate_bits(blob) == 8 * len(stream.leaf_indices)


def test_plug_fixed_depth():
    w = np.random.default_rng(35).uniform(size=32)
    plug = TreeCodecPlug(depth=2, q_bits=6)
    blob = plug.compress(w, 0.0)
    assert Bitstream.from_bytes(blob).d == 2
    assert plug.rate_bits(blob) == 6 * 4


@pytest.fixture
def parses(monkeypatch):
    """Every ``Bitstream.from_bytes`` call made during the test, by its bytes."""
    calls = []
    original = Bitstream.from_bytes

    def counting(data):
        calls.append(bytes(data))
        return original(data)

    monkeypatch.setattr(Bitstream, "from_bytes", staticmethod(counting))
    return calls


def test_plug_never_parses_its_own_blob(parses):
    w = np.random.default_rng(36).uniform(size=256)
    plug = TreeCodecPlug(q_bits=8)
    blob = plug.compress(w, 1e-3)
    v = plug.decompress(blob)
    rate = plug.rate_bits(bytearray(blob))  # the same bytes in another container
    assert parses == []
    stream = Bitstream.from_bytes(blob)
    assert np.array_equal(v, decode(stream))
    assert np.array_equal(v, oracle_decode(blob))
    assert rate == stream.reported_rate_bits


def test_plug_parses_an_older_blob(parses):
    rng = np.random.default_rng(37)
    plug = TreeCodecPlug(q_bits=8)
    blob_a = plug.compress(rng.uniform(size=64), 1e-3)
    blob_b = plug.compress(rng.uniform(size=64), 1e-3)
    assert blob_a != blob_b
    assert np.array_equal(plug.decompress(blob_a), oracle_decode(blob_a))
    assert parses == [blob_a]
    assert plug.rate_bits(blob_b) == Bitstream.from_bytes(blob_b).reported_rate_bits


def test_plug_rejects_truncated_last_blob():
    plug = TreeCodecPlug(q_bits=8)
    blob = plug.compress(np.random.default_rng(38).uniform(size=64), 1e-3)
    for cut in (1, len(blob) - 11, len(blob) - 5):
        with pytest.raises(BitstreamError) as expected:
            Bitstream.from_bytes(blob[:-cut])
        for method in (plug.decompress, plug.rate_bits):
            with pytest.raises(BitstreamError) as err:
                method(blob[:-cut])
            assert err.value.offset == expected.value.offset


@pytest.mark.parametrize(
    "kwargs", [{"q_bits": 0}, {"q_bits": MAX_Q_BITS + 1}, {"depth": 0}, {"depth": -1}]
)
def test_plug_rejects_settings_no_signal_can_use(kwargs):
    with pytest.raises(ValueError, match="q_bits" if "q_bits" in kwargs else "depth"):
        TreeCodecPlug(**kwargs)


def test_plug_accepts_the_extreme_valid_settings():
    w = np.random.default_rng(39).uniform(size=16)
    for plug in (TreeCodecPlug(depth=1, q_bits=1), TreeCodecPlug(q_bits=MAX_Q_BITS)):
        blob = plug.compress(w, 1e-3)
        assert blob == encode(w, 1e-3, d=plug.depth, q_bits=plug.q_bits).to_bytes()


# ----------------------------------------------------- one analysis per signal #

NU_LADDER = (1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1)


@pytest.fixture
def analyses(monkeypatch):
    """The signal of every ``_analyze`` call made during the test, as bytes."""
    calls = []
    original = tree_codec._analyze

    def counting(w, d, q_bits):
        calls.append(np.asarray(w, dtype=float).tobytes())
        return original(w, d, q_bits)

    monkeypatch.setattr(tree_codec, "_analyze", counting)
    return calls


def plug_ladder(plug, w, analyses=None):
    """Code w down NU_LADDER, checking every stream against encode(); return
    the signals the plug analyzed meanwhile."""
    before = len(analyses) if analyses is not None else 0
    blobs = [plug.compress(w, nu) for nu in NU_LADDER]
    made = analyses[before:] if analyses is not None else []
    for nu, blob in zip(NU_LADDER, blobs):
        assert blob == encode(w, nu, d=plug.depth, q_bits=plug.q_bits).to_bytes(), nu
    assert np.array_equal(plug.decompress(blobs[-1]), decode(blobs[-1]))
    return made


def test_plug_analyzes_each_signal_once_down_a_ladder(analyses):
    rng = np.random.default_rng(40)
    plug = TreeCodecPlug(q_bits=8)
    signals = [rng.uniform(size=1 << 11) for _ in range(3)]
    for w in signals:
        assert plug_ladder(plug, w, analyses) == [w.tobytes()]


def test_plug_sees_an_in_place_change_of_the_callers_array(analyses):
    w = np.random.default_rng(41).uniform(size=256)
    plug = TreeCodecPlug(q_bits=8)
    original = w.tobytes()
    before = plug.compress(w, 1e-3)
    w[100:140] = 0.5  # the same array object, new samples
    after = plug.compress(w, 1e-3)
    assert analyses == [original, w.tobytes()]
    assert after != before
    assert after == encode(w, 1e-3).to_bytes()


def test_plug_tells_negative_zero_from_zero(analyses):
    zeros = np.zeros(64)
    zeros[1::2] = 0.25
    negative = zeros.copy()
    negative[2::2] = -0.0  # equal to zeros as numbers, and in the first sample
    assert np.array_equal(zeros, negative) and zeros.tobytes() != negative.tobytes()
    plug = TreeCodecPlug(q_bits=8)
    for w in (zeros, negative, zeros):
        assert plug_ladder(plug, w, analyses) == [w.tobytes()]


def test_plug_keys_its_analysis_on_length_depth_and_q_bits():
    rng = np.random.default_rng(42)
    short, long_ = rng.uniform(size=256), rng.uniform(size=1 << 11)
    plug = TreeCodecPlug(q_bits=8)
    # the same samples again after a change of length, depth or q_bits must
    # not reuse the analysis made for another shape or quantizer
    for w, depth, q_bits in [
        (short, None, 8), (long_, None, 8), (short, None, 8), (short, 3, 8),
        (short, None, 8), (long_, 5, 8), (long_, 5, 12), (long_, None, 12), (short, 3, 8),
        (long_[:256], None, 8), (long_.reshape(8, 256)[0], 8, 8), (long_[::8], 8, 8),
    ]:
        plug.depth, plug.q_bits = depth, q_bits
        plug_ladder(plug, w)


def test_plug_keeps_one_analysis_and_only_for_a_valid_signal():
    plug = TreeCodecPlug(q_bits=8)
    w = np.random.default_rng(43).uniform(size=64)
    plug.compress(w, 1e-3)
    first = plug._analysis
    plug.compress(w, 1e-2)
    assert plug._analysis is first
    bad = w.copy()
    bad[7] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        plug.compress(bad, 1e-3)
    assert plug._analysis is None  # the old analysis went before the new one failed
    with pytest.raises(ValueError, match="nu"):
        plug.compress(w, -1.0)
    assert plug.compress(w, 1e-3) == encode(w, 1e-3).to_bytes()
    for empty in (np.zeros(0), np.zeros((0, 64))):  # after a cached signal, as before one
        with pytest.raises(ValueError, match="power of two"):
            plug.compress(empty, 1e-3)
