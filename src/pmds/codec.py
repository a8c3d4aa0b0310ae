"""Erasure codec: any K of the n coded coordinates recover the message.

A message is a sequence of words, K field elements each.  Coordinate u of
the code carries, for every word x, the inner product of generator column u
with x; decoding any K distinct coordinates solves the K x K system (always
nonsingular for the MDS generator kinds).

Byte framing maps raw bytes to field symbols: bit-packed for q = 2^4 / 2^8 /
2^16 (nibbles, bytes, big-endian byte pairs) and per-byte base-q digit
recoding for every other q, with the original byte length carried alongside
so the round trip is exact.

Share files are binary frames:

    magic 'PMDS' | version u8=1 | p u16 BE | h u8 | K u32 BE | kind u8 |
    u u32 BE | payload_byte_length u64 BE | symbols...

where each symbol occupies ceil(log2(q) / 8) bytes, big-endian.
"""

from __future__ import annotations

import functools
import io
import struct
from dataclasses import dataclass

import numpy as np

from . import kernels
from .codes import rs_generator
from .fields import GF, make_field
from .matrices import MatrixGF, SingularMatrixError, solve_many
from .pascal import supplement, supplemented_pascal, truncated_pascal

GENERATOR_KINDS = ("supplemented_pascal", "truncated_pascal", "rs", "supplemented_rs")
_KIND_CODE = {kind: i for i, kind in enumerate(GENERATOR_KINDS)}

MAGIC = b"PMDS"
VERSION = 1
_HEADER = struct.Struct(">4sBHBIBIQ")  # magic, version, p, h, K, kind, u, byte length


class DecodeError(ValueError):
    """Reconstruction is impossible or the share data is inconsistent."""


def _column_budget(field: GF, kind: str) -> int:
    q = field.q
    return {
        "supplemented_pascal": q + 1,
        "truncated_pascal": q,
        "rs": q - 1,
        "supplemented_rs": q,
    }[kind]


@dataclass(frozen=True)
class CodecConfig:
    field: GF
    k: int
    kind: str = "supplemented_pascal"
    n: int | None = None  # coded coordinates; defaults to the kind's full width

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if not 1 <= self.k <= self.field.q:
            raise ValueError(f"K must be in [1, {self.field.q}], got {self.k}")
        budget = _column_budget(self.field, self.kind)
        if self.n is None:
            object.__setattr__(self, "n", budget)
        if not self.k <= self.n <= budget:
            raise ValueError(
                f"n must be in [K, {budget}] for kind {self.kind!r}, got {self.n}"
            )


@dataclass
class Share:
    u: int
    symbols: np.ndarray  # one symbol per message word


@functools.lru_cache(maxsize=64)
def _full_generator(field: GF, k: int, kind: str) -> MatrixGF:
    if kind == "supplemented_pascal":
        return supplemented_pascal(field, k)
    if kind == "truncated_pascal":
        return truncated_pascal(field, k)
    if kind == "rs":
        return rs_generator(field, k, field.q - 1)
    return supplement(rs_generator(field, k, field.q - 1))


def generator_matrix(config: CodecConfig) -> MatrixGF:
    """The k x n generator: a column prefix of the kind's full matrix."""
    full = _full_generator(config.field, config.k, config.kind)
    if config.n == full.cols:
        return full
    return MatrixGF(config.field, full.data[:, : config.n])


def _as_words(config: CodecConfig, message) -> np.ndarray:
    words = np.array(message, dtype=np.int64, copy=True)
    if words.size == 0:
        return words.reshape(0, config.k)
    if words.ndim != 2 or words.shape[1] != config.k:
        raise ValueError(f"every word must have exactly K = {config.k} symbols")
    if np.any((words < 0) | (words >= config.field.q)):
        raise ValueError("message symbols out of range")
    return words


def encode(config: CodecConfig, message) -> list[Share]:
    """All n shares of a message (a sequence of K-symbol words)."""
    words = _as_words(config, message)
    gen = generator_matrix(config)
    coded = kernels.matmul(words, gen.data, *config.field.tables())  # (W, n)
    return [Share(u=u, symbols=coded[:, u]) for u in range(config.n)]


def decode(config: CodecConfig, shares) -> np.ndarray:
    """Reconstruct the message words from shares at >= K distinct coordinates.

    Uses the K lowest coordinate indices; one elimination of the K x K
    column matrix covers all words.  Shares at further coordinates are
    re-encoded from the solution and must match it, and copies of a share at
    one coordinate must be identical, so a corrupted share among more than K
    does not decode in silence.
    """
    shares = list(shares)
    seen: dict[int, Share] = {}
    for s in shares:
        if not 0 <= s.u < config.n:
            raise DecodeError(f"share coordinate {s.u} out of range [0, {config.n})")
        kept = seen.setdefault(s.u, s)
        if kept is not s and not np.array_equal(kept.symbols, s.symbols):
            raise DecodeError(
                f"two shares at coordinate {s.u} disagree: share data is corrupt"
            )
    if len(seen) < config.k:
        raise DecodeError(
            f"need at least K = {config.k} distinct coordinates, got {len(seen)}"
        )
    coords = sorted(seen)
    chosen = [seen[u] for u in coords[: config.k]]
    length = len(chosen[0].symbols)
    if any(len(s.symbols) != length for s in seen.values()):
        raise DecodeError("shares carry inconsistent symbol-sequence lengths")
    gen = generator_matrix(config)
    cols = gen.data[:, [s.u for s in chosen]]  # (K, K)
    rhs = np.stack([np.asarray(s.symbols, dtype=np.int64) for s in chosen])  # (K, W)
    if rhs.size and (rhs.min() < 0 or rhs.max() >= config.field.q):
        raise DecodeError(
            f"share symbol out of range [0, {config.field.q}): share data is corrupt"
        )
    try:
        system = MatrixGF(config.field, cols.T)  # row i: generator column u_i
    except ValueError as e:
        raise DecodeError(str(e)) from None
    try:
        solution = solve_many(system, rhs)  # (K, W)
    except SingularMatrixError:
        raise DecodeError("singular decode system: share data is corrupt") from None
    surplus = coords[config.k :]
    if surplus:
        expected = kernels.matmul(gen.data[:, surplus].T, solution, *config.field.tables())
        for u, row in zip(surplus, expected):
            if not np.array_equal(row, seen[u].symbols):
                raise DecodeError(
                    f"share {u} disagrees with the other shares: share data is corrupt"
                )
    return solution.T.copy()  # (W, K)


# -- byte <-> symbol framing ------------------------------------------------------


def _digits_per_byte(q: int) -> int:
    s, cap = 1, q
    while cap < 256:
        cap *= q
        s += 1
    return s


def bytes_to_symbols(field: GF, data: bytes) -> np.ndarray:
    """Map bytes to field symbols (see module docstring for the layouts)."""
    q = field.q
    arr = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
    if q == 16:
        out = np.empty(2 * arr.size, dtype=np.int64)
        out[0::2] = arr >> 4
        out[1::2] = arr & 0xF
        return out
    if q == 256:
        return arr
    if q == 65536:
        if len(data) % 2:
            data = data + b"\x00"
        return np.frombuffer(data, dtype=">u2").astype(np.int64)
    s = _digits_per_byte(q)
    out = np.empty(s * arr.size, dtype=np.int64)
    for j in range(s):
        out[j::s] = (arr // q ** (s - 1 - j)) % q
    return out


def symbols_to_bytes(field: GF, symbols, byte_length: int) -> bytes:
    """Inverse of bytes_to_symbols; byte_length is the original length."""
    q = field.q
    syms = np.asarray(symbols, dtype=np.int64).ravel()
    if byte_length == 0:
        return b""
    if q == 16:
        need = 2 * byte_length
        _require_symbols(syms, need)
        pairs = syms[:need].reshape(-1, 2)
        vals = (pairs[:, 0] << 4) | pairs[:, 1]
    elif q == 256:
        _require_symbols(syms, byte_length)
        vals = syms[:byte_length]
    elif q == 65536:
        need = (byte_length + 1) // 2
        _require_symbols(syms, need)
        raw = syms[:need].astype(">u2").tobytes()
        return raw[:byte_length]
    else:
        s = _digits_per_byte(q)
        need = s * byte_length
        _require_symbols(syms, need)
        digits = syms[:need].reshape(-1, s)
        vals = np.zeros(byte_length, dtype=np.int64)
        for j in range(s):
            vals = vals * q + digits[:, j]
    if np.any((vals < 0) | (vals > 255)):
        raise DecodeError("recoded symbol group exceeds a byte: data is corrupt")
    return vals.astype(np.uint8).tobytes()


def _require_symbols(syms: np.ndarray, need: int):
    if syms.size < need:
        raise DecodeError(
            f"length mismatch: need {need} symbols to rebuild the payload, got {syms.size}"
        )


def bytes_to_words(config: CodecConfig, data: bytes) -> tuple[np.ndarray, int]:
    """Frame bytes into (W, K) words (zero-padded) plus the byte-length record."""
    syms = bytes_to_symbols(config.field, data)
    k = config.k
    pad = (-syms.size) % k
    if pad:
        syms = np.concatenate([syms, np.zeros(pad, dtype=np.int64)])
    return syms.reshape(-1, k), len(data)


def words_to_bytes(config: CodecConfig, words, byte_length: int) -> bytes:
    """Inverse of bytes_to_words given the recorded byte length."""
    syms = np.asarray(words, dtype=np.int64).reshape(-1)
    return symbols_to_bytes(config.field, syms, byte_length)


# -- share frames -----------------------------------------------------------------


@dataclass(frozen=True)
class FrameHeader:
    p: int
    h: int
    k: int
    kind: str
    u: int
    payload_byte_length: int

    @property
    def field(self) -> GF:
        return make_field(self.p, self.h)


def _symbol_width(q: int) -> int:
    return ((q - 1).bit_length() + 7) // 8


def write_share(stream: io.RawIOBase, config: CodecConfig, share: Share, byte_length: int):
    q = config.field.q
    syms = np.asarray(share.symbols)
    if syms.size and (syms.min() < 0 or syms.max() >= q):
        raise ValueError(f"share symbols out of range [0, {q})")
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        config.field.p,
        config.field.h,
        config.k,
        _KIND_CODE[config.kind],
        share.u,
        byte_length,
    )
    stream.write(header)
    dtype = np.uint8 if _symbol_width(q) == 1 else ">u2"
    stream.write(syms.astype(dtype, copy=False).tobytes())


def read_share(stream: io.RawIOBase) -> tuple[FrameHeader, Share]:
    raw = stream.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise DecodeError("share frame truncated before the header ends")
    magic, version, p, h, k, kind_code, u, byte_length = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise DecodeError(f"bad magic {magic!r}; not a share frame")
    if version != VERSION:
        raise DecodeError(f"unsupported frame version {version}")
    if kind_code >= len(GENERATOR_KINDS):
        raise DecodeError(f"unknown generator kind code {kind_code}")
    header = FrameHeader(
        p=p, h=h, k=k, kind=GENERATOR_KINDS[kind_code], u=u, payload_byte_length=byte_length
    )
    try:
        field = header.field
    except ValueError as e:
        raise DecodeError(f"invalid field in share header: {e}") from None
    width = _symbol_width(field.q)
    body = stream.read()
    if len(body) % width:
        raise DecodeError("share payload is not a whole number of symbols")
    if width == 1:
        symbols = np.frombuffer(body, dtype=np.uint8).astype(np.int64)
    else:
        symbols = np.frombuffer(body, dtype=">u2").astype(np.int64)
    return header, Share(u=u, symbols=symbols)
