import hashlib
import io
import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest

from pmds import codec
from pmds.codec import (
    CodecConfig,
    DecodeError,
    Share,
    bytes_to_symbols,
    bytes_to_words,
    decode,
    encode,
    generator_matrix,
    read_share,
    symbols_to_bytes,
    words_to_bytes,
    write_share,
)
from pmds.fields import make_field
from pmds.pascal import supplemented_pascal
from reference_gf import make_ref, ref_solve

F5 = make_field(5)
F16 = make_field(2, 4)
F256 = make_field(2, 8)


def test_config_budgets():
    assert CodecConfig(F5, 2, "supplemented_pascal").n == 6
    assert CodecConfig(F5, 2, "truncated_pascal").n == 5
    assert CodecConfig(F5, 2, "rs").n == 4
    assert CodecConfig(F5, 2, "supplemented_rs").n == 5
    with pytest.raises(ValueError):
        CodecConfig(F5, 2, "supplemented_pascal", n=7)
    with pytest.raises(ValueError):
        CodecConfig(F5, 3, "rs", n=2)  # n < K
    with pytest.raises(ValueError):
        CodecConfig(F5, 2, "hamming")
    with pytest.raises(ValueError):
        CodecConfig(F5, 6, "supplemented_pascal")  # K > q


def test_generator_matches_pascal():
    cfg = CodecConfig(F5, 2, "supplemented_pascal")
    assert generator_matrix(cfg) == supplemented_pascal(F5, 2)


def test_encode_repetition_when_k1():
    cfg = CodecConfig(F5, 1, "supplemented_pascal")
    shares = encode(cfg, [[3]])
    assert [int(s.symbols[0]) for s in shares] == [3] * 6


def test_encode_h52_word():
    cfg = CodecConfig(F5, 2, "supplemented_pascal")
    shares = encode(cfg, [[1, 1]])
    assert [int(s.symbols[0]) for s in shares] == [1, 2, 3, 4, 0, 1]


def test_encode_zero_word():
    cfg = CodecConfig(F5, 2, "supplemented_pascal")
    shares = encode(cfg, [[0, 0]])
    assert all(int(s.symbols[0]) == 0 for s in shares)


def test_encode_validates_word_length():
    cfg = CodecConfig(F5, 2, "supplemented_pascal")
    with pytest.raises(ValueError):
        encode(cfg, [[1, 2, 3]])
    with pytest.raises(ValueError):
        encode(cfg, [[1, 9]])


def test_encode_rejects_non_integer_symbols():
    cfg = CodecConfig(F5, 3)
    with pytest.raises(ValueError, match="integers"):
        encode(cfg, [[1.7, 2, 3]])  # would decode as [[1, 2, 3]]
    with pytest.raises(ValueError, match="integers"):
        encode(cfg, np.ones((2, 3)))
    msg = np.array([[1, 2, 3]], dtype=np.int32)
    assert decode(cfg, encode(cfg, msg)[:3]).tolist() == [[1, 2, 3]]
    assert decode(cfg, encode(cfg, [[1, 2, 3]])[:3]).tolist() == [[1, 2, 3]]


def test_encode_does_not_copy_its_words():
    """A 131,072 x 8 GF(2^8) encode (a 1 MiB file) reads its int64 words in
    place: the tracemalloc peak stays within 4 MiB of the coded output,
    without an 8 MiB copy of the words."""
    cfg = CodecConfig(F256, 8)
    words = np.random.default_rng(5).integers(0, 256, (131_072, 8))
    cfg.generator, cfg.field.tables()  # built before tracing
    tracemalloc.start()
    try:
        shares = encode(cfg, words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = shares[0].symbols.base.nbytes
    assert output == 131_072 * 257
    assert peak < output + (4 << 20), (peak, output)


def test_decode_rejects_non_integer_symbols():
    cfg = CodecConfig(F5, 2)
    shares = encode(cfg, [[1, 1]])
    with pytest.raises(DecodeError, match="integers"):
        decode(cfg, [shares[0], Share(1, np.array([2.0]))])


def test_decode_roundtrip_first_k():
    cfg = CodecConfig(F5, 2, "supplemented_pascal")
    msg = [[1, 1], [4, 2], [0, 3]]
    shares = encode(cfg, msg)
    assert decode(cfg, shares[:2]).tolist() == msg


def test_decode_from_shares_4_and_5():
    cfg = CodecConfig(F5, 2, "supplemented_pascal")
    got = decode(cfg, [Share(4, np.array([0])), Share(5, np.array([1]))])
    assert got.tolist() == [[1, 1]]


def test_decode_every_pair():
    cfg = CodecConfig(F5, 2, "supplemented_pascal")
    shares = encode(cfg, [[1, 1]])
    for a, b in combinations(range(6), 2):
        assert decode(cfg, [shares[a], shares[b]]).tolist() == [[1, 1]]


def test_decode_errors():
    cfg = CodecConfig(F5, 2, "supplemented_pascal")
    shares = encode(cfg, [[1, 1]])
    with pytest.raises(DecodeError):
        decode(cfg, [shares[0]])  # too few
    with pytest.raises(DecodeError):
        decode(cfg, [shares[0], Share(0, shares[0].symbols)])  # same u twice
    with pytest.raises(DecodeError):
        decode(cfg, [shares[0], Share(9, shares[1].symbols)])  # u out of range
    with pytest.raises(DecodeError):
        decode(cfg, [shares[0], Share(1, np.array([1, 2]))])  # length mismatch
    with pytest.raises(DecodeError, match="out of range"):
        decode(cfg, [shares[0], Share(1, np.array([5]))])  # symbol >= q


def test_decode_ignores_extra_shares():
    cfg = CodecConfig(F5, 3, "supplemented_pascal")
    msg = [[1, 2, 3], [4, 0, 1]]
    shares = encode(cfg, msg)
    assert decode(cfg, shares).tolist() == msg  # all six: lowest three solve, rest agree


def test_decode_rejects_corrupt_surplus_share():
    cfg = CodecConfig(F5, 3, "supplemented_pascal")
    msg = [[1, 2, 3], [4, 0, 1]]
    for bad_u in (0, 4):  # one of the K solving shares, or a surplus one
        shares = encode(cfg, msg)
        symbols = np.array(shares[bad_u].symbols, dtype=np.int64)
        symbols[1] = (symbols[1] + 1) % 5  # still in range
        shares[bad_u] = Share(bad_u, symbols)
        with pytest.raises(DecodeError, match="disagrees"):
            decode(cfg, shares[:5])
        assert decode(cfg, [s for s in shares if s.u != bad_u]).tolist() == msg


def test_decode_rejects_disagreeing_copies_of_a_share():
    cfg = CodecConfig(F5, 3, "supplemented_pascal")
    msg = [[1, 2, 3], [4, 0, 1]]
    shares = encode(cfg, msg)
    symbols = np.array(shares[0].symbols, dtype=np.int64)
    symbols[0] = (symbols[0] + 1) % 5  # still in range
    bad0 = Share(0, symbols)
    for order in ([bad0, *shares[:3]], [*shares[:3], bad0]):
        with pytest.raises(DecodeError, match="coordinate 0"):
            decode(cfg, order)
    twin = Share(0, shares[0].symbols.copy())
    assert decode(cfg, [twin, *shares[:3]]).tolist() == msg


# -- the decode inverse cache --------------------------------------------------------


@pytest.fixture
def inverses(monkeypatch):
    """An empty inverse cache for one test; the module's own comes back after."""
    cache = codec._Inverses()
    monkeypatch.setattr(codec, "_inverses", cache)
    return cache


def _no_solve(*_):
    raise AssertionError("a cached system was eliminated again")


@pytest.mark.parametrize(
    "field,k,cols",
    [(F16, 4, (1, 5, 9, 16)), (make_field(257), 5, (0, 2, 100, 200, 257)), (F5, 3, (3, 4, 5))],
    ids=repr,
)
def test_decode_cache_hit_and_miss_match_oracle(field, k, cols, inverses, monkeypatch):
    cfg = CodecConfig(field, k)
    msg = np.random.default_rng(field.q + k).integers(0, field.q, size=(7, k))
    shares = encode(cfg, msg)
    picked = [shares[u] for u in cols]
    system = generator_matrix(cfg).data[:, list(cols)].T.tolist()
    rhs = [s.symbols.tolist() for s in picked]
    expected = np.array(ref_solve(make_ref(field), system, rhs)).T
    assert np.array_equal(expected, msg)
    miss = decode(cfg, picked)
    assert list(inverses.systems) == [(field, k, cfg.kind, cols)]
    monkeypatch.setattr(codec, "solve_many", _no_solve)
    hit = decode(cfg, picked[::-1])  # order of the shares does not matter
    assert np.array_equal(miss, expected) and np.array_equal(hit, expected)
    assert miss.dtype == hit.dtype == np.int64


def test_decode_cache_evicts_oldest_within_budget(inverses):
    k = 3
    inverses.budget = 3 * k * k + 4  # three K = 3 systems
    cfg = CodecConfig(F16, k)
    msg = [[1, 2, 3], [15, 0, 7]]
    shares = encode(cfg, msg)
    subsets = list(combinations(range(cfg.n), k))[:8]
    for i, cols in enumerate(subsets * 2):  # every system is evicted and comes back
        assert decode(cfg, [shares[u] for u in cols]).tolist() == msg
        assert inverses.entries == sum(inv.size for inv in inverses.systems.values())
        assert inverses.entries <= inverses.budget
        order = [key[3] for key in inverses.systems]
        assert order == [subsets[j % 8] for j in range(max(0, i - 2), i + 1)]
    k4 = CodecConfig(F16, 4)  # a larger system evicts as many as it needs
    assert decode(k4, encode(k4, [[1, 2, 3, 4]])[:4]).tolist() == [[1, 2, 3, 4]]
    assert inverses.entries == 16 + 9 <= inverses.budget


def test_decode_cache_keeps_no_singular_system(inverses, monkeypatch):
    # A generator whose columns 0 and 1 are equal: that pair cannot decode.
    data = supplemented_pascal(F5, 2).data.copy()
    data[:, 1] = data[:, 0]
    monkeypatch.setattr(codec, "generator_columns", lambda f, k, kind, us: data[:, list(us)])
    cfg = CodecConfig(F5, 2)
    shares = encode(cfg, [[1, 2]])
    with pytest.raises(DecodeError, match="singular"):
        decode(cfg, shares[:2])
    assert inverses.systems == {} and inverses.entries == 0
    assert decode(cfg, shares[1:3]).tolist() == [[1, 2]]


def test_decode_cache_hit_still_checks_the_shares(inverses, monkeypatch):
    cfg = CodecConfig(F5, 3)
    msg = [[1, 2, 3], [4, 0, 1]]
    shares = encode(cfg, msg)
    assert decode(cfg, shares[:3]).tolist() == msg  # fills the cache
    monkeypatch.setattr(codec, "solve_many", _no_solve)
    assert list(inverses.systems) == [(F5, 3, cfg.kind, (0, 1, 2))]
    with pytest.raises(DecodeError, match="out of range"):
        decode(cfg, [shares[0], shares[1], Share(2, np.array([5, 0]))])
    with pytest.raises(DecodeError, match="coordinate 1"):
        decode(cfg, [*shares[:3], Share(1, (shares[1].symbols + 1) % 5)])
    bad = Share(4, (shares[4].symbols + 1) % 5)
    with pytest.raises(DecodeError, match="disagrees"):
        decode(cfg, [*shares[:3], bad])
    assert decode(cfg, shares[:5]).tolist() == msg


def test_decode_cache_is_shared_across_n(inverses, monkeypatch):
    field = make_field(257)
    short, full = CodecConfig(field, 16, n=20), CodecConfig(field, 16)
    msg = np.random.default_rng(5).integers(0, 257, size=(9, 16))
    cols = [0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 17, 19]
    assert np.array_equal(decode(short, [encode(short, msg)[u] for u in cols]), msg)
    monkeypatch.setattr(codec, "solve_many", _no_solve)
    assert np.array_equal(decode(full, [encode(full, msg)[u] for u in cols]), msg)
    assert len(inverses.systems) == 1


@pytest.mark.parametrize(
    "field,k,kind",
    [
        (F5, 2, "supplemented_pascal"),
        (F5, 3, "rs"),
        (F16, 4, "supplemented_pascal"),
        (F16, 3, "truncated_pascal"),
        (F256, 4, "supplemented_rs"),
    ],
)
def test_roundtrip_random_subsets(field, k, kind):
    rng = np.random.RandomState(13)
    cfg = CodecConfig(field, k, kind)
    for _ in range(10):
        w = rng.randint(1, 4)
        msg = rng.randint(0, field.q, size=(w, k))
        shares = encode(cfg, msg)
        subsets = (
            list(combinations(range(cfg.n), k))
            if comb(cfg.n, k) <= 50
            else [
                sorted(map(int, rng.choice(cfg.n, size=k, replace=False))) for _ in range(25)
            ]
        )
        for cols in subsets:
            picked = [shares[u] for u in cols]
            assert np.array_equal(decode(cfg, picked), msg)


def test_empty_message():
    cfg = CodecConfig(F5, 2, "supplemented_pascal")
    shares = encode(cfg, [])
    assert all(s.symbols.size == 0 for s in shares)
    assert decode(cfg, shares[:2]).shape == (0, 2)


# -- byte framing ------------------------------------------------------------------


def test_nibble_split():
    assert bytes_to_symbols(F16, b"\xab").tolist() == [10, 11]


def test_byte_identity_gf256():
    assert bytes_to_symbols(F256, b"\x00\xff\x41").tolist() == [0, 255, 65]


def test_base5_recoding():
    # 255 = 2*125 + 0*25 + 1*5 + 0
    assert bytes_to_symbols(F5, bytes([255])).tolist() == [2, 0, 1, 0]
    cfg = CodecConfig(F5, 2, "supplemented_pascal")
    words, record = bytes_to_words(cfg, bytes([255]))
    assert record == 1
    assert words.tolist() == [[2, 0], [1, 0]]
    assert words_to_bytes(cfg, words, record) == bytes([255])


def test_gf65536_byte_pairs():
    f = make_field(2, 16)
    assert bytes_to_symbols(f, b"\x01\x02\x03\x04").tolist() == [0x0102, 0x0304]
    assert bytes_to_symbols(f, b"\x01\x02\x03").tolist() == [0x0102, 0x0300]
    assert symbols_to_bytes(f, [0x0102, 0x0300], 3) == b"\x01\x02\x03"


@pytest.mark.parametrize("spec", ["3", "5", "2^4", "2^8", "2^16"])
def test_byte_roundtrip_all_lengths(spec):
    from pmds.fields import parse_field_spec

    field = parse_field_spec(spec)
    cfg = CodecConfig(field, min(2, field.q - 1) or 1)
    rng = np.random.RandomState(17)
    for length in list(range(0, 20)) + [63, 64, 65, 255, 256, 257]:
        data = rng.bytes(length)
        words, record = bytes_to_words(cfg, data)
        assert words_to_bytes(cfg, words, record) == data


FRAMING_ORDERS = (2, 3, 4, 5, 7, 9, 16, 17, 243, 256, 257, 4096, 3**10, 65521, 1 << 16)


def _digit_groups_oracle(q: int, data: bytes) -> list[int]:
    """Every b bytes, big-endian, as s base-q digits, most significant first;
    b = 2 at q = 2^16, else 1; s is the fewest digits with q^s >= 256^b."""
    b = 2 if q == 1 << 16 else 1
    s = 1
    while q**s < 256**b:
        s += 1
    data += bytes(-len(data) % b)
    out = []
    for i in range(0, len(data), b):
        group = int.from_bytes(data[i : i + b], "big")
        out.extend(group // q ** (s - 1 - j) % q for j in range(s))
    return out


@pytest.mark.parametrize("q", FRAMING_ORDERS, ids=lambda q: f"q{q}")
def test_bytes_to_symbols_matches_the_digit_group_oracle(q):
    from pmds.fields import field_from_order

    field = field_from_order(q)
    for length in list(range(13)) + [255, 256, 257]:
        data = bytes((255 - 37 * i) % 256 for i in range(length))  # every byte at 256
        syms = bytes_to_symbols(field, data)
        assert syms.tolist() == _digit_groups_oracle(q, data), length
        assert symbols_to_bytes(field, syms, length) == data


def test_symbols_to_bytes_length_mismatch():
    with pytest.raises(DecodeError):
        symbols_to_bytes(F5, [1, 2], 1)  # needs 4 digits
    with pytest.raises(DecodeError):
        symbols_to_bytes(F5, [4, 4, 4, 4], 1)  # 4444_5 = 624 > 255
    # A digit outside [0, q) is corrupt, whatever the value of its group.
    f65536 = make_field(2, 16)
    for field, syms, length in (
        (f65536, [-1], 2),
        (f65536, [65536 + 0x4142], 2),
        (F16, [0, 17], 1),
        (F5, [0, 0, 0, 5], 1),
    ):
        with pytest.raises(DecodeError):
            symbols_to_bytes(field, syms, length)


def test_full_pipeline_bytes():
    cfg = CodecConfig(F16, 3, "supplemented_pascal")
    data = b"any three of seventeen shares rebuild this"
    words, record = bytes_to_words(cfg, data)
    shares = encode(cfg, words)
    got = decode(cfg, [shares[2], shares[9], shares[16]])
    assert words_to_bytes(cfg, got, record) == data


# -- share frames -------------------------------------------------------------------


def test_share_file_roundtrip():
    cfg = CodecConfig(F256, 4, "supplemented_rs")
    data = bytes(range(100))
    words, record = bytes_to_words(cfg, data)
    shares = encode(cfg, words)
    blobs = []
    for s in shares[:6]:
        buf = io.BytesIO()
        write_share(buf, cfg, s, record)
        blobs.append(buf.getvalue())
    configs, parsed, lengths = zip(*(read_share(io.BytesIO(b)) for b in blobs))
    assert set(configs) == {cfg} and set(lengths) == {100}
    assert [s.u for s in parsed] == [0, 1, 2, 3, 4, 5]
    assert all(s.symbols.dtype == np.uint8 for s in parsed)
    got = decode(cfg, list(parsed[2:6]))
    assert words_to_bytes(cfg, got, lengths[0]) == data


def test_share_file_two_byte_symbols():
    f = make_field(2, 16)
    cfg = CodecConfig(f, 2, "rs")
    words, record = bytes_to_words(cfg, b"\xde\xad\xbe\xef\x99")
    shares = encode(cfg, words)
    buf = io.BytesIO()
    write_share(buf, cfg, shares[1], record)
    config, share, length = read_share(io.BytesIO(buf.getvalue()))
    assert (config, length) == (cfg, 5)
    assert share.u == 1
    assert share.symbols.dtype == np.uint16
    assert np.array_equal(share.symbols, shares[1].symbols)


def test_encode_shares_are_narrow_views():
    for field, dtype in ((F16, np.uint8), (make_field(257), np.uint16)):
        cfg = CodecConfig(field, 3, n=5)
        shares = encode(cfg, np.arange(60).reshape(20, 3) % field.q)
        assert all(s.symbols.dtype == dtype for s in shares)
        assert all(s.symbols.flags.c_contiguous for s in shares)
        assert shares[0].symbols.base is not None
        assert all(s.symbols.base is shares[0].symbols.base for s in shares)  # one buffer


def test_write_share_rejects_out_of_range_symbols():
    for field, bad in ((F5, 5), (F256, 256), (F256, -1), (make_field(2, 16), 65536)):
        cfg = CodecConfig(field, 2)
        buf = io.BytesIO()
        with pytest.raises(ValueError, match="out of range"):
            write_share(buf, cfg, Share(0, np.array([1, bad])), 2)
        assert buf.getvalue() == b""  # nothing written


def test_write_share_range_scan_by_dtype():
    """Unsigned symbols whose dtype cannot hold q need no range scan and
    frame as usual; every other dtype is still scanned."""
    for field, dtype in ((F256, np.uint8), (make_field(2, 16), np.uint16)):
        cfg = CodecConfig(field, 2)
        top = np.array([0, field.q - 1], dtype=dtype)
        buf = io.BytesIO()
        write_share(buf, cfg, Share(0, top), 2)
        assert buf.getvalue()[-top.nbytes:] == top.astype(">u%d" % top.itemsize).tobytes()
    for field, syms in ((make_field(2, 4), np.array([1, 16], np.uint8)),
                        (make_field(257), np.array([1, 257], np.uint16)),
                        (F256, np.array([1, 256], np.uint16))):
        with pytest.raises(ValueError, match="out of range"):
            write_share(io.BytesIO(), CodecConfig(field, 2), Share(0, syms), 2)


def test_share_frame_errors():
    cfg = CodecConfig(F5, 2, "supplemented_pascal")
    shares = encode(cfg, [[1, 2]])
    buf = io.BytesIO()
    write_share(buf, cfg, shares[0], 2)
    raw = buf.getvalue()
    with pytest.raises(DecodeError, match="magic"):
        read_share(io.BytesIO(b"XXXX" + raw[4:]))
    with pytest.raises(DecodeError, match="version"):
        read_share(io.BytesIO(raw[:4] + b"\x09" + raw[5:]))
    with pytest.raises(DecodeError, match="truncated"):
        read_share(io.BytesIO(raw[:10]))


@pytest.mark.parametrize(
    "p,h,k,reason",
    [
        pytest.param(4, 1, 2, "not prime", id="4-1-not prime"),
        pytest.param(5, 0, 2, "extension degree", id="5-0-extension degree"),
        pytest.param(2, 17, 2, "exceeds cap", id="2-17-exceeds cap"),
        (5, 1, 0, "K must be in"),
        (5, 1, 6, "K must be in"),
    ],
)
def test_share_frame_invalid_field_is_decode_error(p, h, k, reason):
    cfg = CodecConfig(F5, 2, "supplemented_pascal")
    buf = io.BytesIO()
    write_share(buf, cfg, encode(cfg, [[1, 2]])[0], 2)
    raw = bytearray(buf.getvalue())
    # header fields p (u16 BE), h (u8), K (u32 BE)
    raw[5:12] = p.to_bytes(2, "big") + bytes([h]) + k.to_bytes(4, "big")
    with pytest.raises(DecodeError, match=reason):
        read_share(io.BytesIO(bytes(raw)))


# Digest over every frame (in coordinate order) that encode + write_share make
# from seeded bytes.  Pins the frame bytes, symbol widths and framing.  The
# 65,537-byte GF(2^8) payload is 8,193 words: several row blocks of the
# gather from tables of multiples plus a one-word tail.  Its digest was
# recorded with the per-coefficient product, so the row gathers are pinned
# byte for byte against it.
GOLDEN_FRAMES = [
    ((2, 8), 8, None, 1, 3001, "e5644435037b09f7d0b3d0f4e31dc373074491e4a3ca9ffd9dfe5f12a20c7c58"),
    ((257, 1), 16, 20, 2, 3001, "4600f4506bf4a98a8cd216c94e10bb2cdaae49a72438ead1ae6c6f06e320ca39"),
    ((3, 2), 3, None, 3, 3001, "62e89240a6959ddbab1e72a94737d185157eb3e73d9be76dabccce5cd1cfdb55"),
    ((2, 16), 4, 12, 4, 3001, "4406828b6ee02619109bed19f9231c53b1fb98580e6eaa58224f6fc9c0f31fea"),
    ((2, 8), 8, None, 5, 65537, "0ae3bb2c0de77bed1fa77a0121c8a201f9f1f02a670d82f49413d3c6a2929881"),
]


@pytest.mark.parametrize(
    "ph,k,n,seed,size,expected",
    GOLDEN_FRAMES,
    ids=["gf256", "gf257", "gf9", "gf65536", "gf256-blocks"],
)
def test_share_frames_golden(ph, k, n, seed, size, expected):
    cfg = CodecConfig(make_field(*ph), k, n=n)
    data = np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8).tobytes()
    words, length = bytes_to_words(cfg, data)
    digest = hashlib.sha256()
    for share in encode(cfg, words):
        buf = io.BytesIO()
        write_share(buf, cfg, share, length)
        digest.update(buf.getvalue())
    assert digest.hexdigest() == expected
