"""Mutation fuzz over share frames through ``pmds decode``.

Each case encodes a short payload, keeps K + s share frames (s >= 1 surplus
shares), mutates them (truncation, bit flips in header or payload, symbols
>= q, duplicated or renumbered shares) and decodes them with the CLI.  The
run must exit 0 or 1 (a ``DecodeError``), never with a crash or a usage
error.  When at most s frames were changed, an exit of 0 must write exactly
the original bytes: with s surplus shares, the code detects any s wrong
shares.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pmds import codec  # noqa: E402
from pmds.cli import main  # noqa: E402
from pmds.codec import CodecConfig  # noqa: E402
from pmds.fields import make_field  # noqa: E402

# (p, h, K): one- and two-byte symbols, binary, prime and odd extension fields.
CONFIGS = [(2, 4, 3), (2, 8, 2), (257, 1, 3), (5, 1, 2), (3, 2, 2)]
U_OFFSET = 13  # magic, version, p, h, K and kind come before the u32 coordinate

mutation = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 63), st.integers(0, 1 << 16)),
    st.tuples(st.just("flip"), st.integers(0, 63), st.integers(0, 1 << 16)),
    st.tuples(st.just("inject"), st.integers(0, 63), st.integers(0, 1 << 16)),
    st.tuples(st.just("renumber"), st.integers(0, 63), st.integers(0, 300)),
    st.tuples(st.just("duplicate"), st.integers(0, 63), st.just(0)),
)


@st.composite
def mutated_frames(draw):
    p, h, k = draw(st.sampled_from(CONFIGS))
    config = CodecConfig(make_field(p, h), k)
    data = draw(st.binary(max_size=40))
    surplus = draw(st.integers(1, 2))
    coords = draw(st.lists(st.integers(0, config.n - 1), min_size=k + surplus,
                           max_size=k + surplus, unique=True))
    words, length = codec.bytes_to_words(config, data)
    shares = codec.encode(config, words)
    frames = []
    for u in coords:
        buf = io.BytesIO()
        codec.write_share(buf, config, shares[u], length)
        frames.append(bytearray(buf.getvalue()))
    width = codec._symbol_width(config.field.q)
    changed = set()
    for kind, which, at in draw(st.lists(mutation, max_size=3)):
        i = which % len(frames)
        frame = frames[i]
        if kind == "truncate":
            del frame[at % (len(frame) + 1):]
        elif kind == "flip":
            if not frame:
                continue
            frame[at % (8 * len(frame)) // 8] ^= 1 << at % 8
        elif kind == "inject":
            symbols = (len(frame) - codec._HEADER.size) // width
            if symbols <= 0 or config.field.q == 256**width:
                continue  # no room for a symbol >= q
            start = codec._HEADER.size + at % symbols * width
            value = config.field.q + at % (256**width - config.field.q)
            frame[start : start + width] = value.to_bytes(width, "big")
        elif kind == "renumber":
            frame[U_OFFSET : U_OFFSET + 4] = at.to_bytes(4, "big")
        else:
            frames.append(bytearray(frame))
            continue
        changed.add(i)
    return data, surplus, len(changed), [bytes(f) for f in frames]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(mutated_frames())
def test_mutated_frames_decode_exactly_or_fail_with_exit_1(case):
    data, surplus, changed, frames = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, frame in enumerate(frames):
            paths.append(Path(tmp) / f"share_{i}.bin")
            paths[-1].write_bytes(frame)
        out = Path(tmp) / "out.bin"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["decode", *map(str, paths), "--out", str(out)])
        assert code in (0, 1), err.getvalue()
        if code == 0 and changed <= surplus:
            assert out.read_bytes() == data
