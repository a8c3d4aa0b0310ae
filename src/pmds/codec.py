"""Erasure codec: any K of the n coded coordinates recover the message.

A message is a sequence of words, K field elements each.  Coordinate u of
the code carries, for every word x, the inner product of generator column u
with x; decoding any K distinct coordinates solves the K x K system (always
nonsingular for the MDS generator kinds).

Byte framing maps raw bytes to field symbols by one rule: every b bytes,
read big-endian, become s base-q digits, most significant first.  b is the
number of whole bytes one symbol holds, at least one (2 at q = 2^16, else
1), and s is the fewest digits with q^s >= 256^b.  Nibbles at q = 16, bytes
at q = 256 and byte pairs at q = 2^16 are its instances.  The last group is
zero-padded and the original byte length travels alongside, so the round
trip is exact.

Share files are binary frames:

    magic 'PMDS' | version u8=1 | p u16 BE | h u8 | K u32 BE | kind u8 |
    u u32 BE | payload_byte_length u64 BE | symbols...

where kind is the generator kind's index in ``pascal.KINDS`` and each
symbol occupies ceil(log2(q) / 8) bytes, big-endian.  ``read_share``
returns what ``write_share`` takes, (config, share, byte_length), with the
symbols narrow as ``encode`` makes them.
"""

from __future__ import annotations

import functools
import io
import struct
from dataclasses import dataclass

import numpy as np

from . import kernels
from .fields import GF, make_field
from .matrices import MatrixGF, SingularMatrixError, int_array, solve_many
from .pascal import KINDS, generator_columns, width
# Not called here: the benchmark's tracer patches these bindings by name.
from .pascal import supplemented_pascal, truncated_pascal  # noqa: F401

MAGIC = b"PMDS"
VERSION = 1
_HEADER = struct.Struct(">4sBHBIBIQ")  # magic, version, p, h, K, kind, u, byte length


class DecodeError(ValueError):
    """Reconstruction is impossible or the share data is inconsistent."""


@dataclass(frozen=True)
class CodecConfig:
    field: GF
    k: int
    kind: str = "supplemented_pascal"
    n: int | None = None  # coded coordinates; defaults to the kind's full width

    def __post_init__(self):
        budget = width(self.field, self.kind)
        if not 1 <= self.k <= self.field.q:
            raise ValueError(f"K must be in [1, {self.field.q}], got {self.k}")
        if self.n is None:
            object.__setattr__(self, "n", budget)
        if not self.k <= self.n <= budget:
            raise ValueError(
                f"n must be in [K, {budget}] for kind {self.kind!r}, got {self.n}"
            )

    @functools.cached_property
    def generator(self) -> MatrixGF:
        """The k x n generator, built on first use and kept with the config."""
        columns = generator_columns(self.field, self.k, self.kind, range(self.n))
        return MatrixGF(self.field, columns)


@dataclass
class Share:
    u: int
    symbols: np.ndarray  # one symbol per message word


def generator_matrix(config: CodecConfig) -> MatrixGF:
    """The k x n generator: the first n columns of the kind's generator."""
    return config.generator


def _as_words(config: CodecConfig, message) -> np.ndarray:
    words = int_array(message)
    if words.size == 0:
        return words.reshape(0, config.k)
    if words.ndim != 2 or words.shape[1] != config.k:
        raise ValueError(f"every word must have exactly K = {config.k} symbols")
    if words.min() < 0 or words.max() >= config.field.q:
        raise ValueError("message symbols out of range")
    return words


def encode(config: CodecConfig, message) -> list[Share]:
    """All n shares of a message (a sequence of K-symbol words)."""
    words = _as_words(config, message)
    coded = kernels.matmul(words, config.generator.data, *config.field.tables())  # (W, n)
    return [Share(u=u, symbols=coded[:, u]) for u in range(config.n)]


_INVERSE_BUDGET = 1 << 22  # cached inverse entries: 32 MiB of int64


class _Inverses:
    """Decode inverses keyed on (field, K, kind, coordinates), oldest first,
    holding at most ``budget`` entries in total (the sum of K^2)."""

    def __init__(self, budget: int = _INVERSE_BUDGET):
        self.budget = budget
        self.systems: dict[tuple, np.ndarray] = {}
        self.entries = 0

    def add(self, key: tuple, inv: np.ndarray):
        while self.systems and self.entries + inv.size > self.budget:
            self.entries -= self.systems.pop(next(iter(self.systems))).size
        self.systems[key] = inv
        self.entries += inv.size


_inverses = _Inverses()


def _inverse(config: CodecConfig, coords: tuple) -> np.ndarray:
    """The inverse of the K x K system whose row i is generator column
    coords[i], from the cache or by one elimination."""
    key = (config.field, config.k, config.kind, coords)
    inv = _inverses.systems.get(key)
    if inv is not None:
        return inv
    columns = generator_columns(config.field, config.k, config.kind, coords)
    system = MatrixGF(config.field, columns.T)
    try:
        inv = solve_many(system, np.eye(config.k, dtype=np.int64))
    except SingularMatrixError:
        raise DecodeError("singular decode system: share data is corrupt") from None
    inv.flags.writeable = False  # shared by every later decode of this system
    _inverses.add(key, inv)
    return inv


def decode(config: CodecConfig, shares) -> np.ndarray:
    """Reconstruct the message words from shares at >= K distinct coordinates.

    Uses the K lowest coordinate indices.  The inverse of their K x K column
    matrix depends only on the field, K, the kind and those coordinates (n
    only cuts the column prefix), so it is eliminated once and cached; one
    product applies it to all words.  The cache holds at most
    ``_INVERSE_BUDGET`` = 2^22 entries in total (the sum of K^2 over its
    systems, 32 MiB of int64) and evicts the oldest system first; a singular
    system raises ``DecodeError`` and is not cached.
    Shares at further coordinates are re-encoded from the solution and must
    match it, and copies of a share at one coordinate must be identical, so
    a corrupted share among more than K does not decode in silence.
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
    rhs = np.stack([np.asarray(s.symbols) for s in chosen])  # (K, W)
    if rhs.size:
        if rhs.dtype.kind not in "iu":
            raise DecodeError(f"share symbols must be integers, got dtype {rhs.dtype}")
        if rhs.min() < 0 or rhs.max() >= config.field.q:
            raise DecodeError(
                f"share symbol out of range [0, {config.field.q}): share data is corrupt"
            )
    inv = _inverse(config, tuple(coords[: config.k]))
    tables = config.field.tables()
    solution = kernels._matmul(inv, rhs, *tables)  # (K, W), narrow symbols
    surplus = coords[config.k :]
    if surplus:
        columns = generator_columns(config.field, config.k, config.kind, surplus)
        expected = kernels._matmul(columns.T, solution, *tables)
        for u, row in zip(surplus, expected):
            if not np.array_equal(row, seen[u].symbols):
                raise DecodeError(
                    f"share {u} disagrees with the other shares: share data is corrupt"
                )
    return solution.T.astype(np.int64, order="C")  # (W, K)


# -- byte <-> symbol framing ------------------------------------------------------


def _digit_groups(q: int) -> tuple[int, int]:
    """(b, s): b bytes per group, the most whole bytes one symbol holds but
    at least one, and s digits per group, the fewest with q^s >= 256^b."""
    b = max(1, (q.bit_length() - 1) // 8)
    s = 1
    while q**s < 256**b:
        s += 1
    return b, s


def bytes_to_symbols(field: GF, data: bytes) -> np.ndarray:
    """Map bytes to int64 field symbols (see module docstring for the rule)."""
    q = field.q
    b, s = _digit_groups(q)
    groups = np.frombuffer(bytes(data) + bytes(-len(data) % b), dtype=f">u{b}")
    digits = np.empty((groups.size, s), dtype=np.int64)
    for j in range(s - 1, 0, -1):
        groups, digits[:, j] = np.divmod(groups, q)
    digits[:, 0] = groups
    return digits.ravel()


def symbols_to_bytes(field: GF, symbols, byte_length: int) -> bytes:
    """Inverse of bytes_to_symbols; byte_length is the original length.

    DecodeError for too few symbols, a digit outside [0, q) or a group of
    digits at or above 256^b, so no symbol sequence turns into wrong bytes.
    """
    q = field.q
    b, s = _digit_groups(q)
    need = -(-byte_length // b) * s
    syms = np.asarray(symbols, dtype=np.int64).ravel()
    if syms.size < need:
        raise DecodeError(
            f"length mismatch: need {need} symbols to rebuild the payload, got {syms.size}"
        )
    digits = syms[:need].reshape(-1, s)
    if need and (digits.min() < 0 or digits.max() >= q):
        raise DecodeError(f"payload symbol out of range [0, {q}): data is corrupt")
    groups = digits[:, 0]
    for j in range(1, s):
        groups = groups * q + digits[:, j]
    if need and q**s > 256**b and groups.max() >= 256**b:
        raise DecodeError(f"recoded symbol group exceeds {b} byte(s): data is corrupt")
    return groups.astype(f">u{b}").tobytes()[:byte_length]


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
    return symbols_to_bytes(config.field, words, byte_length)


# -- share frames -----------------------------------------------------------------


def _symbol_width(q: int) -> int:
    return ((q - 1).bit_length() + 7) // 8


def write_share(stream: io.RawIOBase, config: CodecConfig, share: Share, byte_length: int):
    q = config.field.q
    syms = np.asarray(share.symbols)
    # An unsigned dtype whose largest value is below q holds only symbols,
    # and unsigned symbols need no lower bound.
    unsigned = syms.dtype.kind == "u"
    narrow = unsigned and 256**syms.dtype.itemsize <= q
    if syms.size and not narrow and ((not unsigned and syms.min() < 0) or syms.max() >= q):
        raise ValueError(f"share symbols out of range [0, {q})")
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        config.field.p,
        config.field.h,
        config.k,
        KINDS.index(config.kind),
        share.u,
        byte_length,
    )
    stream.write(header)
    stream.write(syms.astype(f">u{_symbol_width(q)}", copy=False).tobytes())


def read_share(stream: io.RawIOBase) -> tuple[CodecConfig, Share, int]:
    """One frame as the (config, share, byte_length) that write_share takes.

    The config has the header's field, K and kind at the kind's full width,
    and an invalid one raises DecodeError.  The symbols are narrow, as
    encode makes them: uint8 for q <= 256 (a read-only view of the frame
    bytes), else uint16.
    """
    raw = stream.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise DecodeError("share frame truncated before the header ends")
    magic, version, p, h, k, kind_code, u, byte_length = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise DecodeError(f"bad magic {magic!r}; not a share frame")
    if version != VERSION:
        raise DecodeError(f"unsupported frame version {version}")
    if kind_code >= len(KINDS):
        raise DecodeError(f"unknown generator kind code {kind_code}")
    try:
        config = CodecConfig(make_field(p, h), k, KINDS[kind_code])
    except ValueError as e:
        raise DecodeError(f"invalid share header: {e}") from None
    width = _symbol_width(config.field.q)
    body = stream.read()
    if len(body) % width:
        raise DecodeError("share payload is not a whole number of symbols")
    symbols = np.frombuffer(body, dtype=f">u{width}").astype(f"u{width}", copy=False)
    return config, Share(u=u, symbols=symbols), byte_length
