import hashlib
import io
from itertools import combinations
from math import comb

import numpy as np
import pytest

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


def test_symbols_to_bytes_length_mismatch():
    with pytest.raises(DecodeError):
        symbols_to_bytes(F5, [1, 2], 1)  # needs 4 digits
    with pytest.raises(DecodeError):
        symbols_to_bytes(F5, [4, 4, 4, 4], 1)  # 4444_5 = 624 > 255


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
    headers, parsed = zip(*(read_share(io.BytesIO(b)) for b in blobs))
    h = headers[0]
    assert (h.p, h.h, h.k, h.kind, h.payload_byte_length) == (2, 8, 4, "supplemented_rs", 100)
    assert [s.u for s in parsed] == [0, 1, 2, 3, 4, 5]
    got = decode(cfg, list(parsed[2:6]))
    assert words_to_bytes(cfg, got, h.payload_byte_length) == data


def test_share_file_two_byte_symbols():
    f = make_field(2, 16)
    cfg = CodecConfig(f, 2, "rs")
    words, record = bytes_to_words(cfg, b"\xde\xad\xbe\xef\x99")
    shares = encode(cfg, words)
    buf = io.BytesIO()
    write_share(buf, cfg, shares[1], record)
    header, share = read_share(io.BytesIO(buf.getvalue()))
    assert share.u == 1
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
    "p,h,reason",
    [(4, 1, "not prime"), (5, 0, "extension degree"), (2, 17, "exceeds cap")],
)
def test_share_frame_invalid_field_is_decode_error(p, h, reason):
    cfg = CodecConfig(F5, 2, "supplemented_pascal")
    buf = io.BytesIO()
    write_share(buf, cfg, encode(cfg, [[1, 2]])[0], 2)
    raw = bytearray(buf.getvalue())
    raw[5:8] = p.to_bytes(2, "big") + bytes([h])  # header fields p (u16 BE), h (u8)
    with pytest.raises(DecodeError, match=reason):
        read_share(io.BytesIO(bytes(raw)))


# Digest over every frame (in coordinate order) that encode + write_share make
# from 3001 seeded bytes.  Pins the frame bytes, symbol widths and framing.
GOLDEN_FRAMES = [
    ((2, 8), 8, None, 1, "e5644435037b09f7d0b3d0f4e31dc373074491e4a3ca9ffd9dfe5f12a20c7c58"),
    ((257, 1), 16, 20, 2, "4600f4506bf4a98a8cd216c94e10bb2cdaae49a72438ead1ae6c6f06e320ca39"),
    ((3, 2), 3, None, 3, "62e89240a6959ddbab1e72a94737d185157eb3e73d9be76dabccce5cd1cfdb55"),
    ((2, 16), 4, 12, 4, "4406828b6ee02619109bed19f9231c53b1fb98580e6eaa58224f6fc9c0f31fea"),
]


@pytest.mark.parametrize(
    "ph,k,n,seed,expected", GOLDEN_FRAMES, ids=["gf256", "gf257", "gf9", "gf65536"]
)
def test_share_frames_golden(ph, k, n, seed, expected):
    cfg = CodecConfig(make_field(*ph), k, n=n)
    data = np.random.default_rng(seed).integers(0, 256, 3001, dtype=np.uint8).tobytes()
    words, length = bytes_to_words(cfg, data)
    digest = hashlib.sha256()
    for share in encode(cfg, words):
        buf = io.BytesIO()
        write_share(buf, cfg, share, length)
        digest.update(buf.getvalue())
    assert digest.hexdigest() == expected
